"""End-to-end pipeline and report generation.

Wires ingest -> exclusions -> imputation -> feature ranking ->
reference fit -> joint feasibility search, per lake, then aggregates
across lakes. The sample curve is the grid's all-features column and,
under the lake's own ranking, forward selection is its full-pool row
(`FeasibilityGrid.curve` and `.selection`), so the curve, the selection
and the grid share one full-pool, full-feature reference nMAE. All
outputs are JSON (machine) and CSV (plot data); every report embeds the
hash of the run configuration that produced it, and identical
configurations reproduce byte-identical reports. Each lake's results
that do not depend on the tolerance are cached on disk as one entry, so
a re-run at a new tolerance imputes and fits nothing: it only
re-thresholds the cached nMAE values.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import warnings
import zlib
from dataclasses import asdict, astuple, dataclass, fields, replace
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from . import dataset as ds
from .errors import ConfigError, LimnoplanError
from .evaluation import SampleCurve, SizeGridSpec, fit_reference, require_full_fit, score_predictions
from .imputation import CompletedMatrix, ImputeConfig, ImputeReport, impute_series
from .joint import (
    DEFAULT_TOLERANCE, FeasibilityGrid, JointSummary, MinimalConfig, aggregate_configs, feasibility_grid,
    forward_selection, minimal_config,
)
from .models import DEFAULT_RIDGE_PENALTY, ForestConfig, RidgeModel, fit_forests, forest_input, predict_ridge
from .selection import FeatureRanking, SelectionResult, aggregate_ranking, forest_problem


@dataclass(frozen=True)
class RunConfig:
    """Run-level knobs shared by every stage."""

    test_years: int = 5
    tolerance: float = DEFAULT_TOLERANCE
    penalty: float = DEFAULT_RIDGE_PENALTY
    seed: int = 0
    impute_sweeps: int = ImputeConfig.max_sweeps
    impute_noise: bool = False
    n_trees: int = ForestConfig.n_trees
    grid_n_min: int | None = None
    grid_stride: int = 1
    lake_ids: tuple[int, ...] | None = None
    use_global_ranking: bool = False

    def __post_init__(self) -> None:
        if self.test_years < 1:
            raise ConfigError("test_years must be >= 1")
        if not 0 < self.tolerance < math.inf:  # the test of `joint.feasibility_threshold`
            raise ConfigError(f"tolerance must be finite and positive, got {self.tolerance}")
        if not 0 <= self.penalty < math.inf:
            raise ConfigError(f"penalty must be finite and nonnegative, got {self.penalty}")
        for name in ("impute_sweeps", "grid_stride", "n_trees"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    def grid_spec(self) -> SizeGridSpec:
        return SizeGridSpec(n_min=self.grid_n_min, stride=self.grid_stride)

    # Every entry point seeds a lake's imputation and forest through these
    # two methods, so a lake's results depend only on (seed, lake id).
    def impute_config(self, lake_id: int) -> ImputeConfig:
        return ImputeConfig(
            max_sweeps=self.impute_sweeps,
            add_noise=self.impute_noise,
            seed=derive_seed(self.seed, lake_id, 0),
        )

    def forest_config(self, lake_id: int) -> ForestConfig:
        return ForestConfig(n_trees=self.n_trees, seed=derive_seed(self.seed, lake_id, 1))


@dataclass
class TableRow:
    """One line of the per-lake train/test error table."""

    lake_id: int
    lake: str
    train_mae: float
    test_mae: float
    train_nmae: float
    test_nmae: float
    test_le_train: bool


@dataclass
class PreparedLake:
    """One lake's split, completed covariates and forest ranking."""

    series: ds.LakeSeries
    split: ds.SplitSeries
    completed: CompletedMatrix
    impute_report: ImputeReport
    ranking: FeatureRanking | None  # None until `rank_features` ranks it, unless read from the cache
    cached: dict[str, np.ndarray] | None = None  # the lake's cache entry, when prepared from one


@dataclass
class LakeReport:
    lake_id: int
    lake: PreparedLake
    reference_model: RidgeModel
    table_row: TableRow
    curve: SampleCurve
    selection: SelectionResult
    grid: FeasibilityGrid
    minimal: MinimalConfig
    entry: dict[str, np.ndarray] | None  # the cache entry of the grid and the bundle's CSV text; None without a cache


@dataclass
class PipelineResult:
    config_hash: str
    reports: list[LakeReport]
    failures: dict[int, str]
    summary: JointSummary
    mean_n_star: float | None


def derive_seed(*parts: int) -> int:
    """Stable nonnegative sub-seed from integer parts."""
    key = ":".join(str(int(p)) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "big")


def config_fingerprint(config: RunConfig, input_digest: str) -> str:
    payload = json.dumps({"config": asdict(config), "input": input_digest}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return None if math.isnan(value) else value
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def csv_text(rows: Sequence[Sequence[Any]], lines: Iterable[str] = ()) -> str:
    """`rows`, the header first, quoted by `csv`; then `lines`, rows the caller joined, each ending in a newline."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue() + "".join(lines)


def write_csv(path: Path, rows: Sequence[Sequence[Any]], lines: Iterable[str] = ()) -> None:
    """The `csv_text` of `rows` and `lines` at `path`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(rows, lines))


# --------------------------------------------------------------------------- #
# Payloads shared by the report bundle and the single-stage commands. The
# `stamp` fields identify the producer: the config hash in a bundle, the
# lake id in a command's output.
# --------------------------------------------------------------------------- #

def write_result(path: Path, result: Any, **stamp: Any) -> None:
    """A result dataclass's fields plus the stamp, as one JSON object."""
    write_json(path, {**stamp, **asdict(result)})


# Numeric CSV lines are joined here from Python floats: each cell is its repr, as `csv` writes it.
def completed_text(completed: CompletedMatrix) -> str:
    return csv_text([completed.feature_schema], [f"{','.join(map(repr, row))}\n" for row in completed.values.tolist()])


def write_nmae_table(path: Path, result: SampleCurve | SelectionResult, **stamp: Any) -> None:
    """A curve's `n,nmae` or a selection's `k,nmae` CSV at `path`, plus a JSON sidecar with the same stem.

    The sidecar holds the stamp and the result's other fields, but a curve's `grid`, whose sizes are the CSV's.
    """
    key, table = ("n", "nmae_at") if isinstance(result, SampleCurve) else ("k", "nmae_by_k")
    nmae = getattr(result, table)
    sidecar = {f.name: getattr(result, f.name) for f in fields(result) if f.name not in ("grid", table)}
    write_csv(path, [[key, "nmae"]], [f"{x},{nmae[x]!r}\n" for x in sorted(nmae)])
    write_json(path.with_suffix(".json"), {**stamp, **sidecar})


def grid_rows(grid: FeasibilityGrid, flag: str = "") -> list[str]:
    """`n,k,nmae,feasible` CSV lines in (n, k) order; `feasible` is 0 or 1, or `flag` on every line if given."""
    tau = grid.tau
    return [f"{n},{k},{value!r},{flag or '01'[value <= tau]}\n" for (n, k), value in sorted(grid.nmae.items())]


def grid_text(entry: dict[str, np.ndarray], grid: FeasibilityGrid) -> str:
    """`grid.csv` from a cache entry's text: the flag before each row's newline from `nmae <= tau` over its grid."""
    text, nmae = entry["grid_csv"].copy(), entry["grid"]
    cells = nmae[np.array(grid.n_grid)[:, None] > np.arange(1, grid.p + 1)]  # (n, k) order, excluded cells dropped
    text[np.flatnonzero(text == ord("\n"))[1:] - 1] = np.where(cells <= grid.tau, ord("1"), ord("0"))
    return text.tobytes().decode()


# --------------------------------------------------------------------------- #
# The stage cache
# --------------------------------------------------------------------------- #

# Part of every entry's key; bumped by any change to a cached value, even in the last bits. That
# includes any change to what `dataset.parse_dataset` returns for some input: values, lake names, messages.
CACHE_VERSION = 6
INPUT_COLUMNS = {"dates": "<M8[D]", "sdd": "f8", "covariates": "f8", "sdd_to_bottom": "?"}


@dataclass
class StageCache:
    """Disk cache of named arrays: one entry per lake and one for the parsed input, each under its key. An entry is
    one `.npy` record, a 0-d structured array of one field per array and a `crc32` one, so a read parses one header."""

    root: Path

    def _path(self, lake_id: int | str) -> Path:
        return self.root / f"{lake_id}.npy"

    def get(self, lake_id: int | str, key: str, layout: dict[str, tuple]) -> dict[str, np.ndarray] | None:
        """The arrays stored under `key`, or None unless each array `layout` names is there at its (dtype, shape)."""
        layout = {"key": ("u1", (len(key),)), "crc32": ("u4", ()), **layout}
        try:
            with open(self._path(lake_id), "rb") as fh, warnings.catch_warnings():
                warnings.simplefilter("error")  # a header only numpy's Python 2 filter parses warns: damaged too
                record = np.lib.format.read_array(fh, allow_pickle=False)  # never unpickled: an out-dir may be shared
            arrays = {name: record[name] for name in layout}
        except Exception:  # a damaged header alone can raise a SyntaxError, TypeError or tokenize.TokenError
            return None

        def fits(a: np.ndarray, dtype: str, shape: tuple | int | None) -> bool:
            if isinstance(shape, int):  # a text array: 1-D UTF-8 bytes holding `shape` newlines
                return a.dtype == dtype and a.ndim == 1 and np.count_nonzero(a == ord("\n")) == shape
            return a.dtype == dtype and shape in (None, a.shape)  # None: any shape

        fit = all(fits(arrays[name], *want) for name, want in layout.items())
        fit = fit and arrays.pop("crc32") == record_crc32(record)  # a flipped data bit is a miss
        return arrays if fit and arrays.pop("key").tobytes() == key.encode() else None

    def put(self, lake_id: int | str, key: str, arrays: dict[str, np.ndarray]) -> None:
        """Store `key` and `arrays` as one `.npy` record, in place of the entry stored before. Its fields go in
        descending alignment, so each array `get` returns is an aligned, C-contiguous view of the record."""
        arrays = {"key": np.frombuffer(key.encode(), np.uint8), "crc32": np.uint32(0), **arrays}
        names = sorted(arrays, key=lambda name: -arrays[name].dtype.alignment)
        try:
            record = np.empty((), [(name, arrays[name].dtype, arrays[name].shape) for name in names])
        except ValueError:  # over 2 GiB: numpy keeps a record's size in a C int. Such an entry is not stored.
            return
        for name in names:
            record[name] = arrays[name]
        record["crc32"] = record_crc32(record)
        # Write then rename, so a reader never sees a partial entry.
        path = self._path(lake_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npy")
        try:
            with open(tmp, "wb") as fh:
                np.save(fh, record)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def get_input(self, key: str) -> tuple[list[ds.LakeSeries], list[ds.RowError]] | None:
        """The `parse_dataset` result stored by `put_input`, or None unless its row counts fit its arrays."""
        entry = self.get("input", key, {"parse": ("u1", None), **{c: (t, None) for c, t in INPUT_COLUMNS.items()}})
        if entry is None:
            return None
        try:
            schema, lakes, errors = json.loads(entry["parse"].tobytes().decode())
            columns, counts = [entry[c] for c in INPUT_COLUMNS], [rows for _, _, rows in lakes]
            if any(len(c) != sum(counts) for c in columns):
                return None
            parts = zip(lakes, zip(*(np.split(c, np.cumsum(counts)[:-1]) for c in columns)))
            series = [ds.LakeSeries(i, name, d, y, x, list(schema), b) for (i, name, _), (d, y, x, b) in parts]
            return series, [ds.RowError(line, message) for line, message in errors]
        except (TypeError, ValueError):  # a JSON part of another shape, or columns LakeSeries rejects (the width)
            return None

    def put_input(self, key: str, lakes: list[ds.LakeSeries], errors: list[ds.RowError]) -> None:
        """Store a `parse_dataset` result of at least one lake: each column over all lakes, the rest as JSON."""
        meta = [lakes[0].feature_schema, [[s.lake_id, s.name, len(s)] for s in lakes], [astuple(e) for e in errors]]
        arrays = {c: np.concatenate([getattr(s, c) for s in lakes]) for c in INPUT_COLUMNS}
        self.put("input", key, {"parse": np.frombuffer(json.dumps(meta).encode(), np.uint8), **arrays})


def record_crc32(record: np.ndarray) -> int:
    """CRC-32 of a cache record's bytes but its `crc32` field's, via a uint8 view (a datetime64 field has no buffer)."""
    data, at = record.reshape(1).view(np.uint8), record.dtype.fields["crc32"][1]
    return zlib.crc32(data[at + 4 :], zlib.crc32(data[:at]))


def input_key(digest: str, na_tokens: frozenset[str]) -> str:
    """The input entry's key: the sha256 hex `digest` of the input's bytes, its NA tokens and `CACHE_VERSION`."""
    return hashlib.sha256(json.dumps([digest, sorted(na_tokens), CACHE_VERSION]).encode()).hexdigest()[:16]


def lake_key(series: ds.LakeSeries, config: RunConfig) -> str:
    """Digest of the post-exclusion series and every setting but `tolerance` and `lake_ids`."""
    columns = (series.dates, series.sdd, series.covariates, series.sdd_to_bottom)
    data = hashlib.sha256(b"".join(np.ascontiguousarray(c).tobytes() for c in columns)).hexdigest()
    settings = replace(config, tolerance=DEFAULT_TOLERANCE, lake_ids=None)
    return config_fingerprint(settings, json.dumps([CACHE_VERSION, series.lake_id, series.feature_schema, data]))


def entry_layout(series: ds.LakeSeries, split: ds.SplitSeries, config: RunConfig) -> dict[str, tuple]:
    """(dtype, shape) of each array of the lake's cache entry (see `lake_entry`)."""
    rows, p = series.covariates.shape
    n_grid = config.grid_spec().resolve(split.n_pre, p)
    return {
        "values": ("f8", (rows, p)), "impute": ("f8", (3,)), "scores": ("f8", (p,)),
        "selection": ("f8", (p,)), "grid_order": ("i8", (p,)), "grid": ("f8", (len(n_grid), p)),
        "completed_csv": ("u1", rows + csv_text([series.feature_schema]).count("\n")),  # a quoted name may span lines
        "grid_csv": ("u1", 1 + sum(min(n - 1, p) for n in n_grid)),  # a line per cell with n >= k+1
    }


def lake_entry(lake: PreparedLake, selection: SelectionResult, grid: FeasibilityGrid) -> dict:
    """Every result of the lake's report stages that does not depend on the tolerance, its CSV text (UTF-8) included."""
    impute, schema = lake.impute_report, lake.completed.feature_schema
    grid_csv = csv_text([["n", "k", "nmae", "feasible"]], grid_rows(grid, "?"))  # "?" where each flag goes
    return {
        "values": lake.completed.values,
        "impute": np.array([impute.sweeps, impute.final_delta, impute.converged], dtype=float),
        "scores": np.array([lake.ranking.scores[f] for f in schema]),
        "selection": np.array([selection.nmae_by_k[k] for k in range(1, grid.p + 1)]),
        "grid": grid.values,
        "grid_order": np.array([schema.index(f) for f in grid.feature_order], dtype=np.int64),
        "completed_csv": np.frombuffer(completed_text(lake.completed).encode(), np.uint8),
        "grid_csv": np.frombuffer(grid_csv.encode(), np.uint8),
    }


# --------------------------------------------------------------------------- #
# Per-lake processing
# --------------------------------------------------------------------------- #

def prepare_lake(series: ds.LakeSeries, config: RunConfig, cache: StageCache | None = None) -> PreparedLake:
    """Split and impute one exclusion-filtered lake, or read it, ranking included, from `cache`."""
    split = ds.split_test_block(series, config.test_years)
    entry = cache and cache.get(series.lake_id, lake_key(series, config), entry_layout(series, split, config))
    if entry is not None:
        schema, mask = list(series.feature_schema), np.isnan(series.covariates)  # the key hashes these covariates
        sweeps, delta, converged = entry["impute"].tolist()
        report = ImputeReport(int(sweeps), delta, bool(converged), dict(zip(schema, mask.sum(axis=0).tolist())))
        ranking = FeatureRanking.from_scores(dict(zip(schema, entry["scores"].tolist())))
        return PreparedLake(series, split, CompletedMatrix(entry["values"], schema, mask), report, ranking, entry)
    completed, impute_report = impute_series(series, config.impute_config(series.lake_id))
    return PreparedLake(series, split, completed, impute_report, None)


def rank_features(lakes: Sequence[PreparedLake], config: RunConfig) -> None:
    """Set each lake's ranking to its `selection.rank_features` ranking, bit for bit. The forests of all
    lakes grow together in passes bounded in rows; none depends on the other lakes in its pass."""
    problems = [forest_problem(lake.split, lake.completed, config.forest_config(lake.series.lake_id)) for lake in lakes]
    for lake, scores in zip(lakes, fit_forests(problems)):
        lake.ranking = FeatureRanking.from_scores(dict(zip(lake.completed.feature_schema, scores.tolist())))


def process_lake(
    lake: PreparedLake,
    config: RunConfig,
    cache: StageCache | None = None,
    global_ranking: FeatureRanking | None = None,
) -> LakeReport:
    """The report stages on a prepared lake; the grid uses `global_ranking` when given."""
    series, split, completed = lake.series, lake.split, lake.completed
    model, X_train, y_train = fit_reference(split, completed, completed.feature_schema, penalty=config.penalty)
    train = score_predictions(y_train, predict_ridge(model, X_train))
    test = score_predictions(split.test.sdd, predict_ridge(model, completed.values[split.test_rows]))
    table_row = TableRow(
        series.lake_id, series.name, train.mae, test.mae, train.nmae, test.nmae, test_le_train=test.nmae <= train.nmae
    )

    ranking, entry, tolerance = global_ranking or lake.ranking, lake.cached, config.tolerance
    # A grid over another ranking than the cached one's (a global ranking of other lakes) is recomputed.
    fresh = entry is None or entry["grid_order"].tolist() != list(map(completed.feature_schema.index, ranking.order))
    if fresh:
        grid = feasibility_grid(split, completed, ranking, config.grid_spec(), tolerance, config.penalty)
    else:
        n_grid = config.grid_spec().resolve(split.n_pre, len(ranking.order))
        grid = FeasibilityGrid.from_nmae(series.lake_id, n_grid, ranking.order, entry["grid"], tolerance)
    # The selection is over the lake's own ranking: the grid's full-pool row under that ranking, or else a
    # one-row grid at n = N_pre, of the cached row or from `forward_selection`.
    if global_ranking is None:
        selection = grid.selection()
    elif entry is not None:
        cached = entry["selection"][None]
        row = FeasibilityGrid.from_nmae(series.lake_id, [split.n_pre], lake.ranking.order, cached, tolerance)
        selection = row.selection()
    else:
        selection = forward_selection(split, completed, lake.ranking, tolerance, config.penalty)
    if fresh and cache is not None:
        entry = lake_entry(lake, selection, grid)
        cache.put(series.lake_id, lake_key(series, config), entry)

    return LakeReport(
        lake_id=series.lake_id,
        lake=lake,
        reference_model=model,
        table_row=table_row,
        curve=grid.curve(),  # the all-features column, which does not depend on the feature order
        selection=selection,
        grid=grid,
        minimal=minimal_config(grid),
        entry=entry,
    )


def train_test_table(rows: Sequence[TableRow]) -> str:
    """Fixed-width text table of per-lake train/test errors.

    The flag column marks lakes whose test error does not exceed the
    training error.
    """
    header = f"{'lake':<24} {'train_mae':>9} {'test_mae':>9} {'train_nmae':>10} {'test_nmae':>9}  test<=train"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.lake:<24} {row.train_mae:>9.3f} {row.test_mae:>9.3f} "
            f"{row.train_nmae:>10.3f} {row.test_nmae:>9.3f}  {'*' if row.test_le_train else ''}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Whole-run orchestration
# --------------------------------------------------------------------------- #

def select_series(lakes: Sequence[ds.LakeSeries], lake_ids: tuple[int, ...] | None) -> list[ds.LakeSeries]:
    """The lakes `lake_ids` names (all when None), in lake-id order; a ConfigError names ids not in `lakes`."""
    if lake_ids is None:
        return sorted(lakes, key=lambda s: s.lake_id)
    by_id = {s.lake_id: s for s in lakes}
    unknown = [i for i in lake_ids if i not in by_id]
    if unknown:
        raise ConfigError(f"unknown lake id(s): {', '.join(map(str, unknown))}")
    return [by_id[i] for i in sorted(set(lake_ids))]


def process_lakes(
    lakes: Sequence[ds.LakeSeries], config: RunConfig, cache: StageCache | None = None
) -> tuple[list[LakeReport], dict[int, str], FeatureRanking | None]:
    """Prepare and check every lake `config` selects, rank those not read from the cache together, then
    process each, in lake-id order.

    Returns the reports, the failure message of each lake that failed a
    stage, and, in global-ranking mode, the average of the prepared
    lakes' rankings that every grid used (None otherwise). A lake too
    short to fit every feature fails before it is ranked, so it never
    enters that average.
    """
    selected = [ds.apply_exclusions(s) for s in select_series(lakes, config.lake_ids)]
    if not selected:
        raise ConfigError("no lakes to process")
    prepared: list[PreparedLake] = []
    failures: dict[int, str] = {}
    for series in selected:
        try:
            lake = prepare_lake(series, config, cache=cache)
            forest_input(*forest_problem(lake.split, lake.completed, config.forest_config(series.lake_id)))
            require_full_fit(lake.split.n_pre, len(lake.completed.feature_schema))
            prepared.append(lake)
        except LimnoplanError as exc:
            failures[series.lake_id] = str(exc)
    unranked = [lake for lake in prepared if lake.ranking is None]
    if unranked:  # a run served from the cache grows no forest
        rank_features(unranked, config)
    shared = aggregate_ranking([lake.ranking for lake in prepared]) if config.use_global_ranking and prepared else None
    reports: list[LakeReport] = []
    for lake in prepared:
        try:
            reports.append(process_lake(lake, config, cache, shared))
        except LimnoplanError as exc:
            failures[lake.series.lake_id] = str(exc)
    if not reports:
        raise ConfigError("every lake failed: " + "; ".join(f"{i}: {m}" for i, m in sorted(failures.items())))
    return reports, failures, shared


def run_pipeline(
    lakes: Sequence[ds.LakeSeries],
    config: RunConfig,
    out_dir: Path | str,
    input_digest: str = "",
) -> PipelineResult:
    """Process every requested lake and write the report bundle.

    `input_digest` only enters the bundle's config hash; the stage cache
    is keyed on the data itself.
    """
    out_dir = Path(out_dir)
    for sub in ("cache", "lakes"):  # an out-dir that cannot be written fails here, before any lake is imputed
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    config_hash = config_fingerprint(config, input_digest)
    ordered, failures, shared = process_lakes(lakes, config, StageCache(out_dir / "cache"))

    summary = aggregate_configs([r.minimal for r in ordered])
    agg_ranking = shared or aggregate_ranking([r.lake.ranking for r in ordered])
    star_values = [r.curve.n_star for r in ordered if r.curve.n_star is not None]
    mean_n_star = float(np.mean(star_values)) if star_values else None

    result = PipelineResult(config_hash, ordered, failures, summary, mean_n_star)
    _write_bundle(out_dir, config, result, agg_ranking)
    return result


def _write_bundle(out_dir: Path, config: RunConfig, result: PipelineResult, agg_ranking: FeatureRanking) -> None:
    config_hash, reports = result.config_hash, result.reports
    for report in reports:
        lake_dir = out_dir / "lakes" / str(report.lake_id)
        write_result(lake_dir / "impute_report.json", report.lake.impute_report, config_hash=config_hash)
        write_csv(lake_dir / "completed.csv", [], [report.entry["completed_csv"].tobytes().decode()])
        write_result(lake_dir / "reference_model.json", report.reference_model, config_hash=config_hash)
        write_result(lake_dir / "metrics.json", report.table_row, config_hash=config_hash)
        write_nmae_table(lake_dir / "sample_curve.csv", report.curve, config_hash=config_hash)
        write_result(lake_dir / "ranking.json", report.lake.ranking, config_hash=config_hash)
        write_nmae_table(lake_dir / "selection.csv", report.selection, config_hash=config_hash)
        write_csv(lake_dir / "grid.csv", [], [grid_text(report.entry, report.grid)])
        write_result(
            lake_dir / "minimal_config.json",
            report.minimal,
            config_hash=config_hash,
            tau=report.grid.tau,
            full_nmae=report.grid.full_nmae,
        )

    # Lake directories an earlier run into this out-dir left, of lakes this run did not report, go.
    reported = {str(r.lake_id) for r in reports}
    for path in (out_dir / "lakes").iterdir():
        if path.name not in reported and path.name.lstrip("-").isdecimal() and path.is_dir():
            shutil.rmtree(path)
    # Written after the lake files, so a write that fails part-way leaves the last run's run_config.json.
    write_json(out_dir / "run_config.json", {"config": asdict(config), "config_hash": config_hash})
    write_json(
        out_dir / "summary.json",
        {
            "config_hash": config_hash,
            "lakes": [r.lake_id for r in reports],
            "failures": {str(k): v for k, v in sorted(result.failures.items())},
            "joint": asdict(result.summary),
            "minimal_configs": [asdict(r.minimal) for r in reports],
            "aggregate_ranking": asdict(agg_ranking),
            "mean_n_star": result.mean_n_star,
            "train_test": [asdict(r.table_row) for r in reports],
        },
    )
    write_csv(
        out_dir / "train_test.csv",
        # Every column but lake_id; csv writes a float as its repr, the flag as 0/1.
        [[f.name for f in fields(TableRow)][1:]]
        + [[*astuple(r.table_row)[1:-1], int(r.table_row.test_le_train)] for r in reports],
    )
