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
from collections import ChainMap
from contextlib import suppress
from dataclasses import dataclass, replace
from datetime import date
from functools import partial
from itertools import compress, islice, zip_longest
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Sequence, TextIO

import numpy as np

from .errors import InsufficientDataError, SchemaError

DEFAULT_NA_TOKENS = frozenset({"", "NA"})
# The fixed column roles of the layout above.
ID_COLUMN, NAME_COLUMN, DATE_COLUMN, SECCBOT_COLUMN, SDD_COLUMN = "midas", "lake", "date", "seccbot", "zS_m"

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
        columns = ("dates", "sdd", "covariates", "sdd_to_bottom")
        return replace(self, feature_schema=list(self.feature_schema), **{c: getattr(self, c)[rows] for c in columns})


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


def _parse_seccbot(raw: str, na_tokens: frozenset[str]) -> bool:
    text = raw.strip()
    if text in na_tokens or text.lower() == "no":
        return False
    if text.lower() == "yes":
        return True
    raise ValueError(f"unrecognized seccbot value {raw!r}")


_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_DATES = re.compile(r"(?:(?!0000)[0-9]{4}-[0-9]{2}-[0-9]{2}\n)*")  # a column of them, from year 1 (numpy reads 0)


def parse_date(cell: str) -> date:
    """A strict `YYYY-MM-DD` date; ValueError for any other spelling."""
    # date.fromisoformat alone accepts other ISO forms (20010601, 2001-W01-1)
    # on some Python versions and not on others.
    text = cell.strip()
    if not _DATE.fullmatch(text):
        raise ValueError(f"date {text!r} is not YYYY-MM-DD")
    return date.fromisoformat(text)


def _convert(cells: Sequence, parse: Callable, dtype: Any, fast: Callable = lambda _: None) -> tuple[np.ndarray, dict]:
    """`fast(cells)` unless None, else `parse` of each distinct cell (None where it fails); and the failures by row."""
    with suppress(TypeError, ValueError):  # TypeError: a short row's missing cell, None
        if (values := fast(cells)) is not None:
            return values, {}
    table, failed = {}, {}
    for cell in dict.fromkeys(cells):
        try:
            table[cell] = parse(cell)
        except (ValueError, AttributeError) as exc:  # AttributeError: a short row's missing cell
            failed[cell] = exc
    errors = {row: failed[cell] for row, cell in enumerate(cells) if cell in failed} if failed else {}
    return np.array(list(map(table.get, cells)), dtype), errors  # None reads as NaN, NaT or False


def _floats(cells: Sequence, na_tokens: frozenset[str]) -> np.ndarray | None:
    """`_parse_cell` of each cell in one pass (strip, NaN at a token, `float`); None if a non-finite one is no token."""
    texts = list(map(str.strip, cells))
    values = np.fromiter(map(float, map(dict.fromkeys(na_tokens, "nan").get, texts, texts)), float, len(texts))
    return values if na_tokens.issuperset(compress(texts, (~np.isfinite(values)).tolist())) else None


def parse_dataset(
    stream: TextIO | Iterable[str],
    na_tokens: frozenset[str] = DEFAULT_NA_TOKENS,
) -> tuple[list[LakeSeries], list[RowError]]:
    """Parse long-format CSV into one LakeSeries per lake.

    Returns the series (sorted by lake id, visits stably sorted by date)
    and the list of malformed rows that were skipped. A missing
    mandatory column or a repeated column name raises SchemaError; bad
    cells only fail their own row, named by its first bad cell in role
    order. Each column is read in one pass (`_floats`; a strict regex
    and a datetime64 cast; a table of distinct cells), or cell by cell
    with `_parse_cell` and `parse_date` if that pass misreads a cell.
    """
    reader = csv.reader(stream)
    header = next(reader, None)
    if header is None:
        raise SchemaError("input has no header row")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise SchemaError(f"repeated column name(s): {', '.join(repeated)}")

    absent = [c for c in (ID_COLUMN, DATE_COLUMN, SDD_COLUMN) if c not in header]
    if absent:
        raise SchemaError(f"missing mandatory column(s): {', '.join(absent)}")

    roles = (ID_COLUMN, DATE_COLUMN, SDD_COLUMN, SECCBOT_COLUMN, NAME_COLUMN)
    width, at = len(header), {c: i for i, c in enumerate(header)}
    features = [c for c in header if c not in roles]
    id_at, date_at, sdd_at, seccbot_at, name_at = (at.get(c, width) for c in roles)  # absent: `width`, all None
    na, lines = na_tokens, []  # each record's line number; a blank line is no record
    columns = list(islice(zip_longest(*(row for row in reader if row and not lines.append(reader.line_num))), width))
    columns += [(None,) * len(lines)] * (width + 1 - len(columns))  # a short row's missing cells are None too

    number, floats = partial(_parse_cell, na_tokens=na), partial(_floats, na_tokens=na)
    converted = [  # (values, {row: exception}) by column, in role order
        _convert(columns[id_at], lambda cell: int(cell.strip()), object),
        _convert(columns[date_at], parse_date, "datetime64[D]",
                 lambda cells: np.array(cells, "datetime64[D]") if _DATES.fullmatch("\n".join(cells) + "\n") else None),
        _convert(columns[sdd_at], number, float, floats),
        _convert(columns[seccbot_at], lambda cell: _parse_seccbot(cell or "", na), bool),
        *(_convert(columns[at[c]], number, float, floats) for c in features),
    ]
    (ids, _), (days, _), (sdd, sdd_errors), (flags, _) = converted[:4]
    sdd_errors.update({i: ValueError(f"non-positive Secchi depth {sdd[i].item()}") for i in np.flatnonzero(sdd <= 0)})
    covariates = np.array([values for values, _ in converted[4:]], float).reshape(len(features), len(lines)).T

    first = ChainMap(*(bad for _, bad in converted))  # each bad row's first bad cell
    errors = [RowError(lines[i], str(exc) if not isinstance(exc, AttributeError)  # a short row's missing cell
                       else f"short row ({sum(c[i] is not None for c in columns[:width])} of {width} cells)")
              for i, exc in sorted(first.items())]
    keep = np.flatnonzero(~np.isin(np.arange(len(lines)), list(first)))
    lake_ids = sorted(set(ids[keep].tolist()))  # rows group on the id's value: "1" and "01" are one lake
    codes = np.fromiter(map({lake_id: c for c, lake_id in enumerate(lake_ids)}.get, ids[keep].tolist()), int, len(keep))
    order = keep[np.lexsort((days[keep], codes))]  # stable: same-date visits keep file order
    lakes = []
    for lake_id, rows in zip(lake_ids, np.split(order, np.cumsum(np.bincount(codes))[:-1])):
        name = (columns[name_at][rows.min()] or "").strip() or str(lake_id)  # the lake's first valid row's
        lakes.append(LakeSeries(lake_id, name, days[rows], sdd[rows], covariates[rows], list(features), flags[rows]))
    return lakes, errors


def write_series_csv(series: LakeSeries, stream: TextIO) -> None:
    """Write a series back out in the ingest CSV layout."""
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow  # returns the line it formats
    stream.write(line([ID_COLUMN, NAME_COLUMN, DATE_COLUMN, SECCBOT_COLUMN, SDD_COLUMN, *series.feature_schema]))
    prefix = line([series.lake_id, series.name])[:-1]  # the name quoted where it must be
    # No date, Yes/No or float repr needs quoting, and only NaN's repr holds "nan": a gap is an empty cell.
    stream.writelines(
        f"{prefix},{day},{'Yes' if flag else 'No'},{','.join(map(repr, values)).replace('nan', '')}\n"
        for day, flag, values in zip(
            series.dates.astype(str).tolist(),
            series.sdd_to_bottom.tolist(),
            np.column_stack([series.sdd, series.covariates]).tolist(),
        )
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


def _years_before(day: date, years: int) -> np.datetime64:
    if years >= day.year:  # the window opens before year 1, so every date falls in it
        return np.datetime64(date.min, "D") - 1
    try:
        return np.datetime64(day.replace(year=day.year - years), "D")
    except ValueError:
        # Feb 29 with no leap-year counterpart.
        return np.datetime64(day.replace(year=day.year - years, day=28), "D")


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
    boundary = _years_before(dates[-1].item(), years)
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
