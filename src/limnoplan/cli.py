"""Command-line front end.

Commands: ingest, lakes rank, impute, sample-curve, feature-rank,
feature-select, joint, synth, report. Exit codes: 0 success, 1 partial
failure (some lakes failed a stage), 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from .errors import ConfigError, LimnoplanError
from .evaluation import sample_curve
from .imputation import impute_series
from .joint import aggregate_configs, minimal_config
from .report import (
    RunConfig,
    every_lake_failed,
    grid_rows,
    lake_grid,
    prepare_lake,
    prepare_lakes,
    run_pipeline,
    train_test_table,
    write_completed,
    write_csv,
    write_json,
    write_result,
    write_sample_curve,
    write_selection,
)
from .selection import forward_selection
from .synth import config_from_dict, generate_lake


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="long-format monitoring CSV")
    parser.add_argument("--na-token", default="NA", help="extra token treated as missing")


def _add_protocol_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--test-years", type=int, default=5)
    parser.add_argument("--tolerance", type=float, default=0.05)
    parser.add_argument("--lambda", dest="penalty", type=float, default=1.0, help="ridge penalty")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-stride", dest="grid_stride", type=int, default=1, help="training-size grid stride")
    parser.add_argument(
        "--n-min", dest="grid_n_min", type=int, default=None, help="smallest training size on the grid"
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags `joint` and `report` share."""
    _add_input(parser)
    parser.add_argument("--lakes", default=None, help="JSON file with the lake ids to process")
    _add_protocol_flags(parser)
    parser.add_argument("--trees", dest="n_trees", type=int, default=200)
    parser.add_argument("--exclude-fallback", action="store_true")
    parser.add_argument(
        "--global-ranking", dest="use_global_ranking", action="store_true", help="rank once across lakes"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="limnoplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and validate a monitoring CSV")
    _add_input(p)
    p.add_argument("--out", default=None, help="write a per-lake summary JSON")

    lakes = sub.add_parser("lakes", help="lake-level utilities")
    lakes_sub = lakes.add_subparsers(dest="lakes_command", required=True)
    p = lakes_sub.add_parser("rank", help="rank lakes by data richness")
    _add_input(p)
    p.add_argument("--top", type=int, default=30)
    p.add_argument("--out", required=True)

    p = sub.add_parser("impute", help="complete one lake's covariates")
    _add_input(p)
    p.add_argument("--lake", type=int, required=True)
    p.add_argument("--sweeps", dest="impute_sweeps", type=int, default=10)
    p.add_argument("--noise", choices=["on", "off"], default="off")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="completed covariate CSV")
    p.add_argument("--report", default=None, help="fit report JSON (default: <out>.json)")

    p = sub.add_parser("sample-curve", help="test error vs training size for one lake")
    _add_input(p)
    p.add_argument("--lake", type=int, required=True)
    _add_protocol_flags(p)
    p.add_argument("--out", required=True, help="CSV of n,nmae (JSON sidecar alongside)")

    p = sub.add_parser("feature-rank", help="forest-importance ranking for one lake")
    _add_input(p)
    p.add_argument("--lake", type=int, required=True)
    p.add_argument("--test-years", type=int, default=5)
    p.add_argument("--trees", dest="n_trees", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("feature-select", help="greedy forward selection for one lake")
    _add_input(p)
    p.add_argument("--lake", type=int, required=True)
    _add_protocol_flags(p)
    p.add_argument("--trees", dest="n_trees", type=int, default=200)
    p.add_argument("--out", required=True, help="CSV of k,nmae (JSON sidecar alongside)")

    p = sub.add_parser("joint", help="minimal (samples, features) configuration per lake")
    _add_run_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-grid", default=None, help="dump n,k,nmae,feasible rows to CSV")

    p = sub.add_parser("synth", help="generate a synthetic lake CSV with ground truth")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="CSV in the ingest layout")
    p.add_argument("--truth", default=None, help="ground-truth JSON")

    p = sub.add_parser("report", help="full pipeline over all (or selected) lakes")
    _add_run_flags(p)
    p.add_argument("--out-dir", required=True)

    return parser


def _load_lakes(args: argparse.Namespace, exclusions: bool = True):
    schema = ds.IngestSchema().with_na_token(args.na_token)
    path = Path(args.input)
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    with open(path, newline="") as fh:
        lakes, errors = ds.parse_dataset(fh, schema)
    for err in errors:
        print(f"line {err.line}: {err.message}", file=sys.stderr)
    if exclusions:
        lakes = [ds.apply_exclusions(s) for s in lakes]
    return lakes, errors


def _one_lake(lakes, lake_id: int) -> ds.LakeSeries:
    for series in lakes:
        if series.lake_id == lake_id:
            return series
    raise ConfigError(f"lake {lake_id} not present in the input")


def _lake_ids_from_file(path: str | None) -> tuple[int, ...] | None:
    """Lake ids from a JSON list, or from the "lakes" list of a JSON object."""
    if path is None:
        return None
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read --lakes file {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"--lakes file {path} is not valid JSON: {exc}") from exc
    ids = payload.get("lakes") if isinstance(payload, dict) else payload
    if not isinstance(ids, list) or not all(type(i) is int for i in ids):
        raise ConfigError(f'--lakes file {path} must hold a list of integer lake ids or {{"lakes": [...]}}')
    return tuple(ids)


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The run configuration a command's flags set; flags it lacks keep their defaults.

    Flag destinations are named after `RunConfig` fields, except
    `--noise` and `--lakes`, which are converted here.
    """
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)}
    if hasattr(args, "noise"):
        fields["impute_noise"] = args.noise == "on"
    if hasattr(args, "lakes"):
        fields["lake_ids"] = _lake_ids_from_file(args.lakes)
    return RunConfig(**fields)


def _input_digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _cmd_ingest(args) -> int:
    lakes, errors = _load_lakes(args, exclusions=False)
    summary = []
    for series in lakes:
        summary.append(
            {
                "lake_id": series.lake_id,
                "lake": series.name,
                "rows": len(series),
                "rows_with_target": int(np.count_nonzero(~np.isnan(series.sdd))),
                "features": series.feature_schema,
            }
        )
    payload = {"lakes": summary, "row_errors": len(errors)}
    if args.out:
        write_json(Path(args.out), payload)
    print(f"parsed {len(lakes)} lake(s), {len(errors)} malformed row(s) skipped")
    return 0


def _cmd_lakes_rank(args) -> int:
    lakes, _ = _load_lakes(args)
    if args.top < 1:
        raise ConfigError(f"--top must be at least 1, got {args.top}")
    if args.top > len(lakes):
        raise ConfigError(f"--top {args.top} exceeds the {len(lakes)} lakes in the input")
    ranked = ds.select_top_lakes(lakes, args.top)
    profiles = {s.lake_id: ds.missingness_profile(s) for s in lakes}
    payload = {
        "missingness_after_exclusions": True,
        "lakes": ranked,
        "profiles": [{"lake_id": lake_id, **dataclasses.asdict(profiles[lake_id])} for lake_id in ranked],
    }
    write_json(Path(args.out), payload)
    print(f"ranked {len(lakes)} lakes; kept top {args.top}")
    return 0


def _cmd_impute(args) -> int:
    lakes, _ = _load_lakes(args)
    series = _one_lake(lakes, args.lake)
    config = _run_config(args)
    completed, fit_report = impute_series(series, config.impute_config(series.lake_id))
    write_completed(Path(args.out), completed)
    report_path = Path(args.report) if args.report else Path(args.out).with_suffix(".json")
    write_result(report_path, fit_report, lake_id=series.lake_id)
    print(f"lake {series.lake_id}: {fit_report.sweeps} sweep(s), final delta {fit_report.final_delta:.3g}")
    return 0


def _cmd_sample_curve(args) -> int:
    lakes, _ = _load_lakes(args)
    config = _run_config(args)
    lake = prepare_lake(_one_lake(lakes, args.lake), config, rank=False)
    curve = sample_curve(lake.split, lake.completed, config.grid_spec(), config.tolerance, config.penalty)
    write_sample_curve(Path(args.out), curve, lake_id=args.lake)
    print(f"lake {args.lake}: n_star={curve.n_star}, reference nMAE {curve.reference_nmae:.4f}")
    return 0


def _cmd_feature_rank(args) -> int:
    lakes, _ = _load_lakes(args)
    lake = prepare_lake(_one_lake(lakes, args.lake), _run_config(args))
    write_result(Path(args.out), lake.ranking, lake_id=args.lake)
    print(f"lake {args.lake}: top feature {lake.ranking.order[0]}")
    return 0


def _cmd_feature_select(args) -> int:
    lakes, _ = _load_lakes(args)
    config = _run_config(args)
    lake = prepare_lake(_one_lake(lakes, args.lake), config)
    result = forward_selection(lake.split, lake.completed, lake.ranking, config.tolerance, config.penalty)
    write_selection(Path(args.out), result, lake_id=args.lake)
    print(f"lake {args.lake}: k_star={result.k_star} ({', '.join(result.subset)})")
    return 0


def _cmd_joint(args) -> int:
    lakes, _ = _load_lakes(args, exclusions=False)
    config = _run_config(args)
    prepared, failures, shared = prepare_lakes(lakes, config)
    configs = []
    rows = []
    for lake in prepared:
        lake_id = lake.series.lake_id
        try:
            grid = lake_grid(lake, shared or lake.ranking, config)
        except LimnoplanError as exc:
            failures[lake_id] = str(exc)
            continue
        configs.append(minimal_config(grid))
        if args.emit_grid:
            rows.extend([lake_id, *row] for row in grid_rows(grid))

    if not configs:
        raise every_lake_failed(failures)
    summary = aggregate_configs(configs, config.exclude_fallback)
    write_json(
        Path(args.out),
        {
            "minimal_configs": [dataclasses.asdict(c) for c in configs],
            "summary": dataclasses.asdict(summary),
            "failures": {str(k): v for k, v in sorted(failures.items())},
        },
    )
    if args.emit_grid:
        write_csv(Path(args.emit_grid), ["lake_id", "n", "k", "nmae", "feasible"], rows)
    print(
        f"{summary.n_lakes} lake(s): median n_hat {summary.median_n:g}, median k_hat {summary.median_k:g}"
    )
    return 1 if failures else 0


def _cmd_synth(args) -> int:
    try:
        with open(args.config) as fh:
            config = config_from_dict(json.load(fh))
        series, truth = generate_lake(config)
    except OSError as exc:
        raise ConfigError(f"cannot read --config file {args.config}: {exc.strerror or exc}") from exc
    except (TypeError, ValueError) as exc:
        # Everything the generator rejects comes from the config file.
        raise ConfigError(f"synth config {args.config}: {exc}") from exc
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        ds.write_series_csv(series, fh)
    if args.truth:
        write_json(
            Path(args.truth),
            {
                "weights": truth.weights.tolist(),
                "intercept": truth.intercept,
                "noise_sd": truth.noise_sd,
                "feature_names": truth.feature_names,
                "covariates": truth.covariates.tolist(),
                "sdd": truth.sdd.tolist(),
                "missing_mask": truth.missing_mask.astype(int).tolist(),
            },
        )
    print(f"wrote {len(series)} rows for lake {series.lake_id}")
    return 0


def _cmd_report(args) -> int:
    lakes, _ = _load_lakes(args, exclusions=False)
    result = run_pipeline(lakes, _run_config(args), Path(args.out_dir), input_digest=_input_digest(args.input))
    print(train_test_table([r.table_row for r in result.reports]))
    if result.mean_n_star is not None:
        print(f"\nmean minimal sample count: {result.mean_n_star:.1f}")
    print(
        f"joint: median n_hat {result.summary.median_n:g} (IQR {result.summary.iqr_n:g}), "
        f"median k_hat {result.summary.median_k:g} (IQR {result.summary.iqr_k:g}), "
        f"{result.summary.fallback_count} fallback lake(s)"
    )
    for lake_id, message in sorted(result.failures.items()):
        print(f"lake {lake_id} skipped: {message}", file=sys.stderr)
    return 1 if result.failures else 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "impute": _cmd_impute,
    "sample-curve": _cmd_sample_curve,
    "feature-rank": _cmd_feature_rank,
    "feature-select": _cmd_feature_select,
    "joint": _cmd_joint,
    "synth": _cmd_synth,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "lakes":
            return _cmd_lakes_rank(args)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimnoplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
