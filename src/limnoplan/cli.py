"""Command-line front end.

Commands: ingest, lakes rank, impute, sample-curve, feature-rank, feature-select,
joint, synth, report. Exit codes: 0 success, 1 partial failure (some lakes failed
a stage), 2 configuration error: a bad flag or input file, or a path not writable.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import dataset as ds
from .errors import ConfigError, InsufficientDataError, LimnoplanError, SchemaError
from .imputation import impute_series
from .joint import aggregate_configs, forward_selection, sample_curve
from .report import (
    RunConfig, StageCache, completed_text, grid_rows, input_key, prepare_lake, process_lakes, rank_features,
    run_pipeline, select_series, train_test_table, write_csv, write_json, write_nmae_table, write_result,
)
from .synth import config_from_dict, generate_lake

DEFAULT_TOP = 30  # `lakes rank` keeps this many lakes, or every lake it ranked if fewer


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="long-format monitoring CSV")
    parser.add_argument("--na-token", default="NA", help="extra token treated as missing")


def _add_protocol_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--test-years", type=int)
    parser.add_argument("--tolerance", type=float)
    parser.add_argument("--lambda", dest="penalty", type=float, help="ridge penalty")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--n-stride", dest="grid_stride", type=int, help="training-size grid stride")
    parser.add_argument("--n-min", dest="grid_n_min", type=int, help="smallest training size on the grid")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags `joint` and `report` share."""
    _add_input(parser)
    parser.add_argument("--lakes", help="JSON file with the lake ids to process")
    _add_protocol_flags(parser)
    parser.add_argument("--trees", dest="n_trees", type=int)
    parser.add_argument(
        "--global-ranking", dest="use_global_ranking", action="store_true", help="rank once across lakes"
    )


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command. A flag that sets a `RunConfig` field has no default: a command's namespace
    holds only the flags given (`argument_default=SUPPRESS`), and `_run_config` takes the rest from `RunConfig`."""
    parser = argparse.ArgumentParser(prog="limnoplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name: str, run, summary: str) -> argparse.ArgumentParser:
        p = subparsers.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.set_defaults(run=run)
        return p

    p = command(sub, "ingest", _cmd_ingest, "parse and validate a monitoring CSV")
    _add_input(p)
    p.add_argument("--out", default=None, help="write a per-lake summary JSON")

    lakes = sub.add_parser("lakes", help="lake-level utilities")
    lakes_sub = lakes.add_subparsers(dest="lakes_command", required=True)
    p = command(lakes_sub, "rank", _cmd_lakes_rank, "rank lakes by data richness")
    _add_input(p)
    p.add_argument("--top", type=int, default=None, help=f"lakes to keep (default: min({DEFAULT_TOP}, lakes ranked)")
    p.add_argument("--out", required=True)

    p = command(sub, "impute", _cmd_impute, "complete one lake's covariates")
    _add_input(p)
    p.add_argument("--lake", type=int, required=True)
    p.add_argument("--sweeps", dest="impute_sweeps", type=int)
    p.add_argument("--noise", choices=["on", "off"])
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="completed covariate CSV")
    p.add_argument("--report", default=None, help="fit report JSON (default: <out>.json)")

    p = command(sub, "sample-curve", _cmd_sample_curve, "test error vs training size for one lake")
    _add_input(p)
    p.add_argument("--lake", type=int, required=True)
    _add_protocol_flags(p)
    p.add_argument("--out", required=True, help="CSV of n,nmae (JSON sidecar alongside)")

    p = command(sub, "feature-rank", _cmd_feature_rank, "forest-importance ranking for one lake")
    _add_input(p)
    p.add_argument("--lake", type=int, required=True)
    p.add_argument("--test-years", type=int)
    p.add_argument("--trees", dest="n_trees", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = command(sub, "feature-select", _cmd_feature_select, "greedy forward selection for one lake")
    _add_input(p)
    p.add_argument("--lake", type=int, required=True)
    _add_protocol_flags(p)
    p.add_argument("--trees", dest="n_trees", type=int)
    p.add_argument("--out", required=True, help="CSV of k,nmae (JSON sidecar alongside)")

    p = command(sub, "joint", _cmd_joint, "minimal (samples, features) configuration per lake")
    _add_run_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-grid", default=None, help="dump n,k,nmae,feasible rows to CSV")

    p = command(sub, "synth", _cmd_synth, "generate a synthetic lake CSV with ground truth")
    p.add_argument("--config", required=True, help="generator config JSON")
    p.add_argument("--out", required=True, help="CSV in the ingest layout")
    p.add_argument("--truth", default=None, help="ground-truth JSON")

    p = command(sub, "report", _cmd_report, "full pipeline over all (or selected) lakes")
    _add_run_flags(p)
    p.add_argument("--out-dir", required=True)

    return parser


def _load_lakes(args: argparse.Namespace, cache: StageCache | None = None):
    """The input's lakes (exclusions not applied), its malformed rows, and the digest of its bytes, from one read;
    with a `cache`, the parse of these bytes under these NA tokens comes from its input entry, or is stored there."""
    na_tokens = ds.DEFAULT_NA_TOKENS | {args.na_token}
    path = Path(args.input)
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    key = input_key(digest, na_tokens)
    parsed = cache and cache.get_input(key)
    if parsed is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"input file {path} is not UTF-8: {exc}") from exc
        parsed = ds.parse_dataset(io.StringIO(text, newline=""), na_tokens)
        if cache and parsed[0]:  # an input without a valid row stops `report` anyway
            cache.put_input(key, *parsed)
    lakes, errors = parsed
    for err in errors:
        print(f"line {err.line}: {err.message}", file=sys.stderr)
    return lakes, errors, digest[:16]


def _lake_and_config(args: argparse.Namespace) -> tuple[ds.LakeSeries, RunConfig]:
    """The `--lake` series, picked and exclusion-filtered as `process_lakes` does, and the run configuration."""
    config = _run_config(args)
    (series,) = select_series(_load_lakes(args)[0], (args.lake,))
    return ds.apply_exclusions(series), config


def _lake_ids_from_file(path: str) -> tuple[int, ...]:
    """Lake ids from a JSON list, or from the "lakes" list of a JSON object."""
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
    """The run configuration the given flags set; every other field keeps `RunConfig`'s default.

    Flag destinations are named after `RunConfig` fields, except
    `--noise` and `--lakes`, which are converted here.
    """
    fields = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)}
    if hasattr(args, "noise"):
        fields["impute_noise"] = args.noise == "on"
    if hasattr(args, "lakes"):
        fields["lake_ids"] = _lake_ids_from_file(args.lakes)
    return RunConfig(**fields)


def _cmd_ingest(args) -> int:
    lakes, errors, _ = _load_lakes(args)
    summary = [
        {"lake_id": s.lake_id, "lake": s.name, "rows": len(s), "features": s.feature_schema,
         "rows_with_target": int(np.count_nonzero(~np.isnan(s.sdd)))}
        for s in lakes
    ]
    payload = {"lakes": summary, "row_errors": len(errors)}
    if args.out:
        write_json(Path(args.out), payload)
    print(f"parsed {len(lakes)} lake(s), {len(errors)} malformed row(s) skipped")
    return 0


def _cmd_lakes_rank(args) -> int:
    if args.top is not None and args.top < 1:
        raise ConfigError(f"--top must be at least 1, got {args.top}")
    lakes, profiles, skipped = [], {}, {}
    for series in map(ds.apply_exclusions, _load_lakes(args)[0]):
        try:
            profiles[series.lake_id] = ds.missingness_profile(series)
            lakes.append(series)
        except InsufficientDataError as exc:
            skipped[series.lake_id] = str(exc)
    if not lakes:
        raise ConfigError("no lake can be ranked: " + "; ".join(f"{i}: {m}" for i, m in sorted(skipped.items())))
    top = min(DEFAULT_TOP, len(lakes)) if args.top is None else args.top
    if top > len(lakes):
        rankable = " that can be ranked" if skipped else ""
        raise ConfigError(f"--top {top} exceeds the {len(lakes)} lakes in the input{rankable}")
    ranked = ds.select_top_lakes(lakes, top)
    payload = {
        "missingness_after_exclusions": True,
        "lakes": ranked,
        "profiles": [{"lake_id": lake_id, **dataclasses.asdict(profiles[lake_id])} for lake_id in ranked],
    }
    write_json(Path(args.out), payload)
    print(f"ranked {len(lakes)} lakes; kept top {top}")
    for lake_id, message in sorted(skipped.items()):
        print(f"lake {lake_id} skipped: {message}", file=sys.stderr)
    return 1 if skipped else 0


def _cmd_impute(args) -> int:
    series, config = _lake_and_config(args)
    completed, fit_report = impute_series(series, config.impute_config(series.lake_id))
    write_csv(Path(args.out), [], [completed_text(completed)])
    report_path = Path(args.report) if args.report else Path(args.out).with_suffix(".json")
    write_result(report_path, fit_report, lake_id=series.lake_id)
    print(f"lake {series.lake_id}: {fit_report.sweeps} sweep(s), final delta {fit_report.final_delta:.3g}")
    return 0


def _cmd_sample_curve(args) -> int:
    series, config = _lake_and_config(args)
    lake = prepare_lake(series, config)
    curve = sample_curve(lake.split, lake.completed, config.grid_spec(), config.tolerance, config.penalty)
    write_nmae_table(Path(args.out), curve, lake_id=args.lake)
    print(f"lake {args.lake}: n_star={curve.n_star}, reference nMAE {curve.reference_nmae:.4f}")
    return 0


def _cmd_feature_rank(args) -> int:
    series, config = _lake_and_config(args)
    lake = prepare_lake(series, config)
    rank_features([lake], config)
    write_result(Path(args.out), lake.ranking, lake_id=args.lake)
    print(f"lake {args.lake}: top feature {lake.ranking.order[0]}")
    return 0


def _cmd_feature_select(args) -> int:
    series, config = _lake_and_config(args)
    lake = prepare_lake(series, config)
    rank_features([lake], config)
    result = forward_selection(lake.split, lake.completed, lake.ranking, config.tolerance, config.penalty)
    write_nmae_table(Path(args.out), result, lake_id=args.lake)
    print(f"lake {args.lake}: k_star={result.k_star} ({', '.join(result.subset)})")
    return 0


def _cmd_joint(args) -> int:
    config = _run_config(args)
    reports, failures, _ = process_lakes(_load_lakes(args)[0], config)
    summary = aggregate_configs([r.minimal for r in reports])
    write_json(
        Path(args.out),
        {
            "minimal_configs": [dataclasses.asdict(r.minimal) for r in reports],
            "summary": dataclasses.asdict(summary),
            "failures": {str(k): v for k, v in sorted(failures.items())},
        },
    )
    if args.emit_grid:
        rows = [f"{r.lake_id},{line}" for r in reports for line in grid_rows(r.grid)]
        write_csv(Path(args.emit_grid), [["lake_id", "n", "k", "nmae", "feasible"]], rows)
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
        mask = truth.missing_mask.astype(int)  # 0/1, not true/false
        write_json(Path(args.truth), {**dataclasses.asdict(truth), "missing_mask": mask})
    print(f"wrote {len(series)} rows for lake {series.lake_id}")
    return 0


def _cmd_report(args) -> int:
    config, out_dir = _run_config(args), Path(args.out_dir)  # a bad setting stops the run before anything is written
    lakes, _, digest = _load_lakes(args, StageCache(out_dir / "cache"))
    result = run_pipeline(lakes, config, out_dir, input_digest=digest)
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


_PARSER = build_parser()  # built once per process, after the handlers it registers


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, SchemaError, OSError) as exc:  # an input file's or a path's fault, not a lake's
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimnoplanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
