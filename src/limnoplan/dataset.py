"""Ingest and partition irregular lake-monitoring time series.

Long-format CSV rows (one row per sampling visit) are parsed into
per-lake columnar series in date order. Leakage-prone covariates and
disk-on-bottom casts are excluded, per-feature gap fractions are
profiled, lakes are ranked by data richness, and each series is split
into a training pool and a held-out recent test block.

Expected CSV layout::

    midas,lake,date,seccbot,zS_m,<covariate>,<covariate>,...

`date` is `YYYY-MM-DD`, `seccbot` is Yes/No/empty, and missing cells are
empty or one of the configured NA tokens. Any column not claimed by
the fixed roles above is treated as a covariate.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, replace
from datetime import date
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import InsufficientDataError, SchemaError

DEFAULT_NA_TOKENS = frozenset({"", "NA"})

# Covariate names dropped because they are near-proxies of water clarity
# (lower case; matched case-insensitively).
DEFAULT_LEAKAGE_FEATURES = frozenset(
    {"chla", "chl_a", "chlorophyll", "chlorophyll_a", "chlorophyll-a"}
)


@dataclass(eq=False)
class LakeSeries:
    """One lake's visits as columns, one entry per visit, in date order.

    `dates` is datetime64[D] and nondecreasing. The target `sdd` and the
    rows x `feature_schema` `covariates` matrix hold NaN at gaps;
    `sdd_to_bottom` flags disk-on-bottom casts.
    """

    lake_id: int
    name: str
    dates: np.ndarray
    sdd: np.ndarray
    covariates: np.ndarray
    feature_schema: list[str]
    sdd_to_bottom: np.ndarray

    def __post_init__(self) -> None:
        self.dates = np.asarray(self.dates, dtype="datetime64[D]")
        self.sdd = np.asarray(self.sdd, dtype=float)
        self.covariates = np.asarray(self.covariates, dtype=float)
        self.sdd_to_bottom = np.asarray(self.sdd_to_bottom, dtype=bool)
        n = len(self.dates)
        if (
            self.dates.shape != (n,)
            or self.sdd.shape != (n,)
            or self.sdd_to_bottom.shape != (n,)
            or self.covariates.shape != (n, len(self.feature_schema))
        ):
            raise ValueError(f"lake {self.lake_id}: columns of unequal length")
        if (self.dates[1:] < self.dates[:-1]).any():
            raise ValueError(f"lake {self.lake_id}: dates are not in chronological order")

    def __len__(self) -> int:
        return len(self.dates)

    def take(self, rows: np.ndarray) -> "LakeSeries":
        """The visits at `rows` (an index array or boolean mask), with copied columns."""
        return LakeSeries(
            self.lake_id,
            self.name,
            self.dates[rows],
            self.sdd[rows],
            self.covariates[rows],
            list(self.feature_schema),
            self.sdd_to_bottom[rows],
        )


@dataclass(frozen=True)
class MissingnessProfile:
    """Per-feature gap fractions and their lake-level mean."""

    per_feature: dict[str, float]
    lake_mean: float


@dataclass
class SplitSeries:
    """Training pool (`pre`) and held-out recent block (`test`).

    `pre_rows`/`test_rows` index the corresponding visits inside the
    source series, so covariate matrices computed on the full series
    (e.g. after imputation) stay aligned with both blocks.
    """

    pre: LakeSeries
    test: LakeSeries
    pre_rows: np.ndarray
    test_rows: np.ndarray

    @property
    def n_pre(self) -> int:
        return len(self.pre)


@dataclass(frozen=True)
class IngestSchema:
    """Column roles and NA conventions for CSV ingest."""

    id_column: str = "midas"
    name_column: str = "lake"
    date_column: str = "date"
    sdd_column: str = "zS_m"
    seccbot_column: str = "seccbot"
    na_tokens: frozenset[str] = DEFAULT_NA_TOKENS

    def with_na_token(self, token: str) -> "IngestSchema":
        return replace(self, na_tokens=frozenset(self.na_tokens | {token}))


@dataclass(frozen=True)
class RowError:
    """A malformed CSV row, kept for reporting instead of aborting."""

    line: int
    message: str


def _parse_cell(raw: str, na_tokens: frozenset[str]) -> float:
    """The cell's value, NaN for a gap."""
    text = raw.strip()
    if text in na_tokens:
        return math.nan
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _format_cell(value: float) -> str:
    return "" if math.isnan(value) else repr(value)


def _parse_seccbot(raw: str, na_tokens: frozenset[str]) -> bool:
    text = raw.strip()
    if text in na_tokens:
        return False
    lowered = text.lower()
    if lowered == "yes":
        return True
    if lowered == "no":
        return False
    raise ValueError(f"unrecognized seccbot value {raw!r}")


_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(cell: str) -> date:
    """A strict `YYYY-MM-DD` date; ValueError for any other spelling."""
    # date.fromisoformat alone accepts other ISO forms (20010601, 2001-W01-1)
    # on some Python versions and not on others.
    text = cell.strip()
    if not _DATE.fullmatch(text):
        raise ValueError(f"date {text!r} is not YYYY-MM-DD")
    return date.fromisoformat(text)


def parse_dataset(
    stream: TextIO | Iterable[str],
    schema: IngestSchema = IngestSchema(),
) -> tuple[list[LakeSeries], list[RowError]]:
    """Parse long-format CSV into one LakeSeries per lake.

    Returns the series (sorted by lake id, visits stably sorted by date)
    and the list of malformed rows that were skipped. A missing
    mandatory column raises SchemaError; bad cells only fail their own
    row.
    """
    reader = csv.DictReader(stream)
    header = reader.fieldnames
    if header is None:
        raise SchemaError("input has no header row")

    mandatory = (schema.id_column, schema.date_column, schema.sdd_column)
    absent = [c for c in mandatory if c not in header]
    if absent:
        raise SchemaError(f"missing mandatory column(s): {', '.join(absent)}")

    role_columns = {
        schema.id_column,
        schema.name_column,
        schema.date_column,
        schema.sdd_column,
        schema.seccbot_column,
    }
    features = [c for c in header if c not in role_columns]

    errors: list[RowError] = []
    visits: dict[int, list[tuple[date, float, list[float], bool]]] = {}
    names: dict[int, str] = {}

    for row in reader:
        line = reader.line_num
        try:
            lake_id = int(row[schema.id_column].strip())
            timestamp = parse_date(row[schema.date_column])
            sdd = _parse_cell(row[schema.sdd_column], schema.na_tokens)
            if sdd <= 0:  # false for a gap (NaN)
                raise ValueError(f"non-positive Secchi depth {sdd}")
            seccbot = _parse_seccbot(row.get(schema.seccbot_column) or "", schema.na_tokens)
            covariates = [_parse_cell(row[f], schema.na_tokens) for f in features]
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            # AttributeError covers short rows, where DictReader yields None cells.
            errors.append(RowError(line=line, message=str(exc) or "short row"))
            continue

        names.setdefault(lake_id, (row.get(schema.name_column) or "").strip() or str(lake_id))
        visits.setdefault(lake_id, []).append((timestamp, sdd, covariates, seccbot))

    lakes = []
    for lake_id, rows in sorted(visits.items()):
        dates, sdd, covariates, seccbot = zip(*rows)
        dates = np.array(dates, dtype="datetime64[D]")
        order = np.argsort(dates, kind="stable")
        lakes.append(
            LakeSeries(
                lake_id=lake_id,
                name=names[lake_id],
                dates=dates[order],
                sdd=np.array(sdd)[order],
                covariates=np.array(covariates, dtype=float)[order],
                feature_schema=list(features),
                sdd_to_bottom=np.array(seccbot)[order],
            )
        )
    return lakes, errors


def write_series_csv(series: LakeSeries, stream: TextIO, schema: IngestSchema = IngestSchema()) -> None:
    """Write a series back out in the ingest CSV layout."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        [schema.id_column, schema.name_column, schema.date_column, schema.seccbot_column, schema.sdd_column]
        + list(series.feature_schema)
    )
    for day, flag, sdd, covariates in zip(
        series.dates.astype(str).tolist(),
        series.sdd_to_bottom.tolist(),
        series.sdd.tolist(),
        series.covariates.tolist(),
    ):
        writer.writerow(
            [series.lake_id, series.name, day, "Yes" if flag else "No", _format_cell(sdd)]
            + [_format_cell(value) for value in covariates]
        )


def apply_exclusions(series: LakeSeries) -> LakeSeries:
    """Drop clarity-proxy covariates and disk-on-bottom casts.

    Idempotent; a schema without any leakage column is passed through
    with only the flagged visits removed (and vice versa).
    """
    cols = [j for j, f in enumerate(series.feature_schema) if f.lower() not in DEFAULT_LEAKAGE_FEATURES]
    kept = series.take(~series.sdd_to_bottom)
    return replace(
        kept, covariates=kept.covariates[:, cols], feature_schema=[kept.feature_schema[j] for j in cols]
    )


def missingness_profile(series: LakeSeries) -> MissingnessProfile:
    """Per-feature gap fraction (#missing / #rows) and the mean over features."""
    n_rows = len(series)
    if n_rows == 0:
        raise InsufficientDataError(f"lake {series.lake_id}: empty series")
    if not series.feature_schema:
        raise SchemaError(f"lake {series.lake_id}: no covariates in schema")

    n_missing = np.isnan(series.covariates).sum(axis=0).tolist()
    per_feature = {feat: count / n_rows for feat, count in zip(series.feature_schema, n_missing)}
    lake_mean = sum(per_feature.values()) / len(per_feature)
    return MissingnessProfile(per_feature=per_feature, lake_mean=lake_mean)


def select_top_lakes(all_series: Sequence[LakeSeries], top: int) -> list[int]:
    """Lake ids of the `top` series with the least mean missingness.

    Ties break toward the longer record, then the smaller lake id, so
    the selection is a deterministic function of the input set.
    """
    if top > len(all_series):
        raise InsufficientDataError(f"requested top {top} of only {len(all_series)} lakes")
    keyed = [(missingness_profile(s).lake_mean, -len(s), s.lake_id) for s in all_series]
    keyed.sort()
    return [lake_id for _, _, lake_id in keyed[:top]]


def _years_before(day: date, years: int) -> date:
    try:
        return day.replace(year=day.year - years)
    except ValueError:
        # Feb 29 with no leap-year counterpart.
        return day.replace(year=day.year - years, day=28)


def split_test_block(series: LakeSeries, years: int = 5) -> SplitSeries:
    """Hold out rows from the most recent `years` calendar years.

    Rows without an observed target are dropped first (the target is
    never imputed, so they can serve neither training nor testing).
    The test block is every remaining row dated strictly after
    (latest date minus `years` years); everything earlier is `pre`.
    """
    if years < 1:
        raise ValueError("years must be >= 1")
    observed = np.flatnonzero(~np.isnan(series.sdd))
    if len(observed) < 2:
        raise InsufficientDataError(
            f"lake {series.lake_id}: need at least 2 rows with observed target, have {len(observed)}"
        )

    dates = series.dates[observed]
    boundary = np.datetime64(_years_before(dates[-1].item(), years), "D")
    pre, test = observed[dates <= boundary], observed[dates > boundary]
    if not len(pre) or not len(test):
        raise InsufficientDataError(
            f"lake {series.lake_id}: record does not span more than the {years}-year test window"
        )
    return _make_split(series, pre, test)


def split_by_count(series: LakeSeries, n_pre: int) -> SplitSeries:
    """Split the target-observed rows at a fixed position.

    The first `n_pre` observed rows become the training pool and the
    rest the test block. Useful for fixtures that need an exact pool
    size rather than a calendar window.
    """
    observed = np.flatnonzero(~np.isnan(series.sdd))
    if not 1 <= n_pre < len(observed):
        raise InsufficientDataError(
            f"lake {series.lake_id}: cannot reserve {n_pre} of {len(observed)} observed rows for training"
        )
    return _make_split(series, observed[:n_pre], observed[n_pre:])


def _make_split(series: LakeSeries, pre_rows: np.ndarray, test_rows: np.ndarray) -> SplitSeries:
    return SplitSeries(
        pre=series.take(pre_rows), test=series.take(test_rows), pre_rows=pre_rows, test_rows=test_rows
    )
