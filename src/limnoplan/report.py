"""End-to-end pipeline and report generation.

Wires ingest -> exclusions -> imputation -> reference fit -> sample
curve -> feature ranking/selection -> joint feasibility search, per
lake, then aggregates across lakes. All outputs are JSON (machine) and
CSV (plot data); every report embeds the hash of the run configuration
that produced it, and identical configurations reproduce byte-identical
reports. Feasibility grids are cached on disk keyed by a digest of the
data and settings they are computed from, so tolerance re-runs skip
refits.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import dataset as ds
from .errors import ConfigError, LimnoplanError
from .evaluation import (
    DEFAULT_TOLERANCE,
    SampleCurve,
    SizeGridSpec,
    fit_reference,
    sample_curve,
    score_predictions,
)
from .imputation import CompletedMatrix, ImputeConfig, ImputeReport, impute_series
from .joint import FeasibilityGrid, JointSummary, MinimalConfig, aggregate_configs, feasibility_grid, minimal_config
from .models import DEFAULT_RIDGE_PENALTY, ForestConfig, RidgeModel, predict_ridge
from .selection import FeatureRanking, SelectionResult, aggregate_ranking, forward_selection, rank_features


@dataclass(frozen=True)
class RunConfig:
    """Run-level knobs shared by every stage."""

    test_years: int = 5
    tolerance: float = DEFAULT_TOLERANCE
    penalty: float = DEFAULT_RIDGE_PENALTY
    seed: int = 0
    impute_sweeps: int = 10
    impute_noise: bool = False
    n_trees: int = 200
    min_samples_leaf: int = 2
    features_per_split: int | None = None
    grid_n_min: int | None = None
    grid_stride: int = 1
    lake_ids: tuple[int, ...] | None = None
    exclude_fallback: bool = False
    use_global_ranking: bool = False

    def __post_init__(self) -> None:
        if self.test_years < 1:
            raise ConfigError("test_years must be >= 1")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        if self.impute_sweeps < 1:
            raise ConfigError("impute_sweeps must be >= 1")

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
        return ForestConfig(
            n_trees=self.n_trees,
            min_samples_leaf=self.min_samples_leaf,
            features_per_split=self.features_per_split,
            seed=derive_seed(self.seed, lake_id, 1),
        )


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
    ranking: FeatureRanking | None  # None when prepared without ranking


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
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return None if math.isnan(value) else value
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --------------------------------------------------------------------------- #
# Payloads shared by the report bundle and the single-stage commands. The
# `stamp` fields identify the producer: the config hash in a bundle, the
# lake id in a command's output.
# --------------------------------------------------------------------------- #

def write_result(path: Path, result: Any, **stamp: Any) -> None:
    """A result dataclass's fields plus the stamp, as one JSON object."""
    write_json(path, {**stamp, **asdict(result)})


def write_completed(path: Path, completed: CompletedMatrix) -> None:
    write_csv(path, completed.feature_schema, [[repr(float(v)) for v in row] for row in completed.values])


def write_sample_curve(path: Path, curve: SampleCurve, **stamp: Any) -> None:
    """`n,nmae` CSV at `path` plus a JSON sidecar with the same stem."""
    write_csv(path, ["n", "nmae"], [[n, repr(curve.nmae_at[n])] for n in curve.grid])
    write_json(
        path.with_suffix(".json"),
        {**stamp, "n_star": curve.n_star, "reference_nmae": curve.reference_nmae, "tolerance": curve.tolerance},
    )


def write_selection(path: Path, selection: SelectionResult, **stamp: Any) -> None:
    """`k,nmae` CSV at `path` plus a JSON sidecar with the same stem."""
    write_csv(path, ["k", "nmae"], [[k, repr(selection.nmae_by_k[k])] for k in sorted(selection.nmae_by_k)])
    write_json(
        path.with_suffix(".json"),
        {**stamp, "k_star": selection.k_star, "subset": selection.subset, "full_nmae": selection.full_nmae},
    )


def grid_rows(grid: FeasibilityGrid) -> list[list[Any]]:
    """`n, k, nmae, feasible` rows in (n, k) order."""
    tau = grid.tau
    return [[n, k, repr(value), int(value <= tau)] for (n, k), value in sorted(grid.nmae.items())]


# --------------------------------------------------------------------------- #
# Grid (de)serialization and the stage cache
# --------------------------------------------------------------------------- #

def grid_to_dict(grid: FeasibilityGrid) -> dict[str, Any]:
    return {
        "lake_id": grid.lake_id,
        "n_grid": grid.n_grid,
        "p": grid.p,
        "n_pre": grid.n_pre,
        "feature_order": grid.feature_order,
        "nmae": [[n, k, value] for (n, k), value in sorted(grid.nmae.items())],
        "excluded": sorted(list(pair) for pair in grid.excluded),
        "full_nmae": grid.full_nmae,
        "tolerance": grid.tolerance,
    }


def grid_from_dict(payload: dict[str, Any]) -> FeasibilityGrid:
    return FeasibilityGrid(
        lake_id=int(payload["lake_id"]),
        n_grid=[int(n) for n in payload["n_grid"]],
        p=int(payload["p"]),
        n_pre=int(payload["n_pre"]),
        feature_order=list(payload["feature_order"]),
        nmae={(int(n), int(k)): float(v) for n, k, v in payload["nmae"]},
        excluded={(int(n), int(k)) for n, k in payload["excluded"]},
        full_nmae=float(payload["full_nmae"]),
        tolerance=float(payload["tolerance"]),
    )


class StageCache:
    """Disk cache of serialized feasibility grids keyed by (lake, `grid_key`)."""

    def __init__(self, root: Path):
        self.root = root

    def _path(self, lake_id: int, key: str) -> Path:
        return self.root / f"{lake_id}_grid_{key}.json"

    def get(self, lake_id: int, key: str) -> Any | None:
        """The stored entry, or None when it is absent or unreadable."""
        try:
            with open(self._path(lake_id, key)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def put(self, lake_id: int, key: str, payload: Any) -> None:
        """Store `payload`, which must hold only JSON types, as one compact line."""
        # Write then rename, so a reader never sees a partial entry.
        path = self._path(lake_id, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, path)


def grid_key(lake: PreparedLake, ranking: FeatureRanking, config: RunConfig) -> str:
    """Digest of everything a feasibility grid's nMAE values depend on.

    The tolerance is left out: a cached grid is re-thresholded instead.
    """
    split, completed = lake.split, lake.completed
    digest = hashlib.sha256()
    for array in (
        completed.values,
        split.pre.sdd,
        split.test.sdd,
        split.pre_rows,
        split.test_rows,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    settings = [
        lake.series.lake_id,
        completed.values.shape,
        completed.feature_schema,
        ranking.order,
        config.grid_n_min,
        config.grid_stride,
        config.penalty,
    ]
    digest.update(json.dumps(settings).encode())
    return digest.hexdigest()[:16]


def lake_grid(
    lake: PreparedLake, ranking: FeatureRanking, config: RunConfig, cache: StageCache | None = None
) -> FeasibilityGrid:
    """The lake's feasibility grid over `ranking`, from the cache when it holds one."""
    lake_id = lake.series.lake_id
    key = grid_key(lake, ranking, config)
    cached = cache.get(lake_id, key) if cache is not None else None
    if cached is not None:
        return grid_from_dict(cached).rethreshold(config.tolerance)
    grid = feasibility_grid(
        lake.split, lake.completed, ranking, config.grid_spec(), config.tolerance, config.penalty
    )
    if cache is not None:
        cache.put(lake_id, key, grid_to_dict(grid))
    return grid


# --------------------------------------------------------------------------- #
# Per-lake processing
# --------------------------------------------------------------------------- #

def prepare_lake(series: ds.LakeSeries, config: RunConfig, rank: bool = True) -> PreparedLake:
    """Split, impute and (unless `rank` is false) rank one exclusion-filtered lake."""
    split = ds.split_test_block(series, config.test_years)
    completed, impute_report = impute_series(series, config.impute_config(series.lake_id))
    ranking = rank_features(split, completed, config.forest_config(series.lake_id)) if rank else None
    return PreparedLake(series, split, completed, impute_report, ranking)


def every_lake_failed(failures: dict[int, str]) -> ConfigError:
    return ConfigError(
        "every lake failed: " + "; ".join(f"{i}: {m}" for i, m in sorted(failures.items()))
    )


def prepare_lakes(
    lakes: Sequence[ds.LakeSeries], config: RunConfig
) -> tuple[list[PreparedLake], dict[int, str], FeatureRanking | None]:
    """Prepare the lakes `config` selects, in lake-id order.

    Returns the prepared lakes, the failure message of each lake that
    could not be prepared, and, in global-ranking mode, the average of
    the prepared lakes' rankings (None otherwise).
    """
    selected = [ds.apply_exclusions(s) for s in _select_series(lakes, config.lake_ids)]
    if not selected:
        raise ConfigError("no lakes to process")
    prepared: list[PreparedLake] = []
    failures: dict[int, str] = {}
    for series in selected:
        try:
            prepared.append(prepare_lake(series, config))
        except LimnoplanError as exc:
            failures[series.lake_id] = str(exc)
    if not prepared:
        raise every_lake_failed(failures)
    shared = aggregate_ranking([lake.ranking for lake in prepared]) if config.use_global_ranking else None
    return prepared, failures, shared


def process_lake(
    lake: PreparedLake,
    config: RunConfig,
    cache: StageCache | None = None,
    global_ranking: FeatureRanking | None = None,
) -> LakeReport:
    """The report stages on a prepared lake; the grid uses `global_ranking` when given."""
    series, split, completed = lake.series, lake.split, lake.completed
    model, X_train, y_train = fit_reference(split, completed, completed.feature_schema, penalty=config.penalty)
    train_metrics = score_predictions(y_train, predict_ridge(model, X_train))
    X_test = completed.values[split.test_rows]
    y_test = split.test.sdd
    test_metrics = score_predictions(y_test, predict_ridge(model, X_test))
    table_row = TableRow(
        lake_id=series.lake_id,
        lake=series.name,
        train_mae=train_metrics.mae,
        test_mae=test_metrics.mae,
        train_nmae=train_metrics.nmae,
        test_nmae=test_metrics.nmae,
        test_le_train=test_metrics.nmae <= train_metrics.nmae,
    )

    curve = sample_curve(split, completed, config.grid_spec(), config.tolerance, config.penalty)
    selection = forward_selection(split, completed, lake.ranking, config.tolerance, config.penalty)
    grid = lake_grid(lake, global_ranking or lake.ranking, config, cache)

    return LakeReport(
        lake_id=series.lake_id,
        lake=lake,
        reference_model=model,
        table_row=table_row,
        curve=curve,
        selection=selection,
        grid=grid,
        minimal=minimal_config(grid),
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

def _select_series(
    lakes: Sequence[ds.LakeSeries], lake_ids: tuple[int, ...] | None
) -> list[ds.LakeSeries]:
    if lake_ids is None:
        return sorted(lakes, key=lambda s: s.lake_id)
    by_id = {s.lake_id: s for s in lakes}
    unknown = [i for i in lake_ids if i not in by_id]
    if unknown:
        raise ConfigError(f"unknown lake id(s): {', '.join(map(str, unknown))}")
    return [by_id[i] for i in sorted(set(lake_ids))]


def run_pipeline(
    lakes: Sequence[ds.LakeSeries],
    config: RunConfig,
    out_dir: Path | str,
    input_digest: str = "",
) -> PipelineResult:
    """Process every requested lake and write the report bundle.

    `input_digest` only enters the bundle's config hash; the grid cache
    is keyed on the data itself.
    """
    out_dir = Path(out_dir)
    config_hash = config_fingerprint(config, input_digest)
    cache = StageCache(out_dir / "cache")

    prepared, failures, shared = prepare_lakes(lakes, config)
    ordered: list[LakeReport] = []
    for lake in prepared:
        try:
            ordered.append(process_lake(lake, config, cache, shared))
        except LimnoplanError as exc:
            failures[lake.series.lake_id] = str(exc)
    if not ordered:
        raise every_lake_failed(failures)

    summary = aggregate_configs([r.minimal for r in ordered], config.exclude_fallback)
    agg_ranking = aggregate_ranking([r.lake.ranking for r in ordered])
    star_values = [r.curve.n_star for r in ordered if r.curve.n_star is not None]
    mean_n_star = float(np.mean(star_values)) if star_values else None

    result = PipelineResult(config_hash, ordered, failures, summary, mean_n_star)
    _write_bundle(out_dir, config, result, agg_ranking)
    return result


def _write_bundle(out_dir: Path, config: RunConfig, result: PipelineResult, agg_ranking: FeatureRanking) -> None:
    config_hash, reports = result.config_hash, result.reports
    write_json(out_dir / "run_config.json", {"config": asdict(config), "config_hash": config_hash})

    for report in reports:
        lake_dir = out_dir / "lakes" / str(report.lake_id)
        write_result(lake_dir / "impute_report.json", report.lake.impute_report, config_hash=config_hash)
        write_completed(lake_dir / "completed.csv", report.lake.completed)
        write_result(lake_dir / "reference_model.json", report.reference_model, config_hash=config_hash)
        write_result(lake_dir / "metrics.json", report.table_row, config_hash=config_hash)
        write_sample_curve(lake_dir / "sample_curve.csv", report.curve, config_hash=config_hash)
        write_result(lake_dir / "ranking.json", report.lake.ranking, config_hash=config_hash)
        write_selection(lake_dir / "selection.csv", report.selection, config_hash=config_hash)
        write_csv(lake_dir / "grid.csv", ["n", "k", "nmae", "feasible"], grid_rows(report.grid))
        write_result(
            lake_dir / "minimal_config.json",
            report.minimal,
            config_hash=config_hash,
            tau=report.grid.tau,
            full_nmae=report.grid.full_nmae,
        )

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
        ["lake", "train_mae", "test_mae", "train_nmae", "test_nmae", "test_le_train"],
        [
            [
                r.table_row.lake,
                repr(r.table_row.train_mae),
                repr(r.table_row.test_mae),
                repr(r.table_row.train_nmae),
                repr(r.table_row.test_nmae),
                int(r.table_row.test_le_train),
            ]
            for r in reports
        ],
    )
