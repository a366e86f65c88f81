"""Ingest and partition irregular lake-monitoring time series.

Long-format CSV rows (one row per sampling visit) are parsed into
per-lake chronological series. Leakage-prone covariates and
disk-on-bottom casts are excluded, per-feature gap fractions are
profiled, lakes are ranked by data richness, and each series is split
into a training pool and a held-out recent test block.

Expected CSV layout::

    midas,lake,date,seccbot,zS_m,<covariate>,<covariate>,...

`date` is ISO-8601, `seccbot` is Yes/No/empty, and missing cells are
empty or one of the configured NA tokens. Any column not claimed by
the fixed roles above is treated as a covariate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from datetime import date
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import InsufficientDataError, SchemaError

DEFAULT_NA_TOKENS = frozenset({"", "NA"})

# Covariate names dropped because they are near-proxies of water clarity.
DEFAULT_LEAKAGE_FEATURES = frozenset(
    {"chla", "chl_a", "chlorophyll", "chlorophyll_a", "chlorophyll-a"}
)


@dataclass(frozen=True)
class Record:
    """One sampling visit: target depth plus covariates, gaps as None."""

    lake_id: int
    lake_name: str
    timestamp: date
    sdd: float | None
    covariates: dict[str, float | None]
    sdd_to_bottom: bool = False


@dataclass
class LakeSeries:
    """Chronologically ordered records for one lake.

    All records share `feature_schema`; timestamps are nondecreasing.
    """

    lake_id: int
    records: list[Record]
    feature_schema: list[str]

    def __post_init__(self) -> None:
        ts = [r.timestamp for r in self.records]
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"lake {self.lake_id}: records are not in chronological order")

    @property
    def name(self) -> str:
        return self.records[0].lake_name if self.records else str(self.lake_id)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class MissingnessProfile:
    """Per-feature gap fractions and their lake-level mean."""

    per_feature: dict[str, float]
    lake_mean: float


@dataclass
class SplitSeries:
    """Training pool (`pre`) and held-out recent block (`test`).

    `pre_rows`/`test_rows` index the corresponding records inside the
    source series, so covariate matrices computed on the full series
    (e.g. after imputation) stay aligned with both blocks.
    """

    pre: LakeSeries
    test: LakeSeries
    pre_rows: np.ndarray
    test_rows: np.ndarray

    @property
    def n_pre(self) -> int:
        return len(self.pre.records)


@dataclass(frozen=True)
class IngestSchema:
    """Column roles and NA conventions for CSV ingest."""

    id_column: str = "midas"
    name_column: str = "lake"
    date_column: str = "date"
    sdd_column: str = "zS_m"
    seccbot_column: str = "seccbot"
    na_tokens: frozenset[str] = DEFAULT_NA_TOKENS
    feature_columns: tuple[str, ...] | None = None

    def with_na_token(self, token: str) -> "IngestSchema":
        return replace(self, na_tokens=frozenset(self.na_tokens | {token}))


@dataclass(frozen=True)
class RowError:
    """A malformed CSV row, kept for reporting instead of aborting."""

    line: int
    message: str


def _parse_cell(raw: str, na_tokens: frozenset[str]) -> float | None:
    text = raw.strip()
    if text in na_tokens:
        return None
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


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


def parse_dataset(
    stream: TextIO | Iterable[str],
    schema: IngestSchema = IngestSchema(),
) -> tuple[list[LakeSeries], list[RowError]]:
    """Parse long-format CSV into one LakeSeries per lake.

    Returns the series (sorted by lake id, records sorted by date) and
    the list of malformed rows that were skipped. A missing mandatory
    column raises SchemaError; bad cells only fail their own row.
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
    if schema.feature_columns is not None:
        unknown = [c for c in schema.feature_columns if c not in header]
        if unknown:
            raise SchemaError(f"declared covariate column(s) not in header: {', '.join(unknown)}")
        features = list(schema.feature_columns)
    else:
        features = [c for c in header if c not in role_columns]

    errors: list[RowError] = []
    by_lake: dict[int, list[Record]] = {}
    names: dict[int, str] = {}

    for row in reader:
        line = reader.line_num
        try:
            lake_id = int(row[schema.id_column].strip())
            timestamp = date.fromisoformat(row[schema.date_column].strip())
            sdd = _parse_cell(row[schema.sdd_column], schema.na_tokens)
            if sdd is not None and sdd <= 0:
                raise ValueError(f"non-positive Secchi depth {sdd}")
            seccbot = _parse_seccbot(row.get(schema.seccbot_column) or "", schema.na_tokens)
            covariates = {f: _parse_cell(row[f], schema.na_tokens) for f in features}
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            # AttributeError covers short rows, where DictReader yields None cells.
            errors.append(RowError(line=line, message=str(exc) or "short row"))
            continue

        name = (row.get(schema.name_column) or "").strip() or str(lake_id)
        names.setdefault(lake_id, name)
        by_lake.setdefault(lake_id, []).append(
            Record(
                lake_id=lake_id,
                lake_name=names[lake_id],
                timestamp=timestamp,
                sdd=sdd,
                covariates=covariates,
                sdd_to_bottom=seccbot,
            )
        )

    lakes = [
        LakeSeries(
            lake_id=lake_id,
            records=sorted(records, key=lambda r: r.timestamp),
            feature_schema=list(features),
        )
        for lake_id, records in sorted(by_lake.items())
    ]
    return lakes, errors


def write_series_csv(series: LakeSeries, stream: TextIO, schema: IngestSchema = IngestSchema()) -> None:
    """Write a series back out in the ingest CSV layout."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(
        [schema.id_column, schema.name_column, schema.date_column, schema.seccbot_column, schema.sdd_column]
        + list(series.feature_schema)
    )
    for rec in series.records:
        row = [
            rec.lake_id,
            rec.lake_name,
            rec.timestamp.isoformat(),
            "Yes" if rec.sdd_to_bottom else "No",
            "" if rec.sdd is None else repr(float(rec.sdd)),
        ]
        for feat in series.feature_schema:
            value = rec.covariates.get(feat)
            row.append("" if value is None else repr(float(value)))
        writer.writerow(row)


def apply_exclusions(
    series: LakeSeries,
    leakage_features: frozenset[str] = DEFAULT_LEAKAGE_FEATURES,
) -> LakeSeries:
    """Drop clarity-proxy covariates and disk-on-bottom casts.

    Idempotent; a schema without any leakage column is passed through
    with only the flagged records removed (and vice versa).
    """
    lowered = {f.lower() for f in leakage_features}
    kept_schema = [f for f in series.feature_schema if f.lower() not in lowered]
    dropped = set(series.feature_schema) - set(kept_schema)

    records = []
    for rec in series.records:
        if rec.sdd_to_bottom:
            continue
        if dropped:
            covs = {k: v for k, v in rec.covariates.items() if k not in dropped}
            rec = replace(rec, covariates=covs)
        records.append(rec)
    return LakeSeries(lake_id=series.lake_id, records=records, feature_schema=kept_schema)


def missingness_profile(series: LakeSeries) -> MissingnessProfile:
    """Per-feature gap fraction (#missing / #rows) and the mean over features."""
    n_rows = len(series.records)
    if n_rows == 0:
        raise InsufficientDataError(f"lake {series.lake_id}: empty series")
    if not series.feature_schema:
        raise SchemaError(f"lake {series.lake_id}: no covariates in schema")

    per_feature = {}
    for feat in series.feature_schema:
        n_missing = sum(1 for rec in series.records if rec.covariates.get(feat) is None)
        per_feature[feat] = n_missing / n_rows
    lake_mean = sum(per_feature.values()) / len(per_feature)
    return MissingnessProfile(per_feature=per_feature, lake_mean=lake_mean)


def select_top_lakes(all_series: Sequence[LakeSeries], top: int) -> list[int]:
    """Lake ids of the `top` series with the least mean missingness.

    Ties break toward the longer record, then the smaller lake id, so
    the selection is a deterministic function of the input set.
    """
    if top > len(all_series):
        raise InsufficientDataError(f"requested top {top} of only {len(all_series)} lakes")
    keyed = [
        (missingness_profile(s).lake_mean, -len(s.records), s.lake_id) for s in all_series
    ]
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
    observed = [(i, rec) for i, rec in enumerate(series.records) if rec.sdd is not None]
    if len(observed) < 2:
        raise InsufficientDataError(
            f"lake {series.lake_id}: need at least 2 rows with observed target, have {len(observed)}"
        )

    boundary = _years_before(observed[-1][1].timestamp, years)
    pre = [(i, rec) for i, rec in observed if rec.timestamp <= boundary]
    test = [(i, rec) for i, rec in observed if rec.timestamp > boundary]
    if not pre or not test:
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
    observed = [(i, rec) for i, rec in enumerate(series.records) if rec.sdd is not None]
    if not 1 <= n_pre < len(observed):
        raise InsufficientDataError(
            f"lake {series.lake_id}: cannot reserve {n_pre} of {len(observed)} observed rows for training"
        )
    return _make_split(series, observed[:n_pre], observed[n_pre:])


def _make_split(
    series: LakeSeries,
    pre: list[tuple[int, Record]],
    test: list[tuple[int, Record]],
) -> SplitSeries:
    return SplitSeries(
        pre=LakeSeries(series.lake_id, [rec for _, rec in pre], list(series.feature_schema)),
        test=LakeSeries(series.lake_id, [rec for _, rec in test], list(series.feature_schema)),
        pre_rows=np.array([i for i, _ in pre], dtype=int),
        test_rows=np.array([i for i, _ in test], dtype=int),
    )


def covariate_matrix(series: LakeSeries) -> np.ndarray:
    """Rows x features float matrix with NaN marking gaps.

    The target column is never part of this matrix.
    """
    n_rows, n_feat = len(series.records), len(series.feature_schema)
    out = np.full((n_rows, n_feat), np.nan)
    for i, rec in enumerate(series.records):
        for j, feat in enumerate(series.feature_schema):
            value = rec.covariates.get(feat)
            if value is not None:
                out[i, j] = value
    return out


def sdd_values(series: LakeSeries) -> np.ndarray:
    """Target vector with NaN for unobserved rows."""
    return np.array(
        [np.nan if rec.sdd is None else rec.sdd for rec in series.records], dtype=float
    )
