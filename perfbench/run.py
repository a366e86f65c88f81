"""Closed-loop benchmark of `limnoplan report` on seeded multi-lake CSVs.

One client runs one `report` at a time through the in-process entry
point `limnoplan.cli.main`, at the default worker setting. A repeat is a
cold `report` into a fresh out-dir followed by a re-threshold `report`
(`--tolerance 0.10`) on the same out-dir. Every leg's bundle goes
through the output check in `outcheck.py`.

    python3 perfbench/run.py --workload regional-global --seed 1 --seconds 60 --trace 0

Run from the repository root (the package is imported from `src/`).
Each leg is bracketed by a fixed reference work (`reference.py`) and its
wall time is scaled by how fast the machine ran that work, so the times
do not follow the shared machine's drifting speed. With `--trace 0` a
new repeat starts while it is expected to end within `--seconds` (at
least two run), and the end-to-end metrics are medians over repeats.
With `--trace 1` untraced and traced repeats alternate; the per-layer
metrics come from the first traced repeat, and the tracing overhead
from all of them. The last
line of standard output is the JSON result; the line before it records
the run's details and the machine it ran on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import spans

# `outcheck` and `workloads` import limnoplan, so they are imported inside
# functions, after `use_source_tree` has put this checkout's `src/` first.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MIN_REPEATS = 2
SETUPS_PER_REPEAT = 3
TEST_YEARS = 5  # the report default; the output check splits the input the same way


@dataclass
class Leg:
    seconds: float
    reference_s: list[float]  # reference passes just before and just after the leg
    lakes_done: int
    recorder: spans.Recorder | None

    @property
    def scaled_s(self) -> float:
        return reference.scaled(self.seconds, self.reference_s)


@dataclass
class Repeat:
    cold: Leg
    retol: Leg
    problems: list[str]


def use_source_tree() -> str | None:
    """Import limnoplan from this checkout's `src/`; return an error or None."""
    if not (SRC / "limnoplan" / "__init__.py").is_file():
        return f"no limnoplan package under {SRC}"
    sys.path.insert(0, str(SRC))
    import limnoplan

    if Path(limnoplan.__file__).resolve().parent != SRC / "limnoplan":
        return f"imported limnoplan from {limnoplan.__file__}, not from {SRC}"
    return None


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def run_leg(cli_args: list[str], recorder=None) -> tuple[int, float, list[float], str]:
    """One `limnoplan report` call, bracketed by the reference work.

    Returns the exit code, the call's wall time, the reference pass
    times before and after it, and the call's output.
    """
    from limnoplan import cli

    before = reference.passes()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if recorder is None:
            start = time.perf_counter()
            code = cli.main(cli_args)
            seconds = time.perf_counter() - start
        else:
            with spans.instrument(recorder, spans.TARGETS):
                start = time.perf_counter()
                with recorder.span("cli"):
                    code = cli.main(cli_args)
                seconds = time.perf_counter() - start
    return code, seconds, before + reference.passes(), sink.getvalue()


def run_repeat(
    index: int, work: Path, input_csv: Path, workload, splits, seed: int, traced: bool, first_snapshots
) -> tuple[Repeat, list[dict[str, bytes]]]:
    """Cold and re-threshold legs, each checked; bundles must match `first_snapshots`.

    Only the first repeat's bundle bytes are kept (as the reference for
    later ones), so the process's peak memory does not grow with the
    number of repeats.
    """
    import outcheck
    from workloads import RETOL_TOLERANCE

    out_dir = work / f"repeat{index}"
    base = ["report", "--input", str(input_csv), "--out-dir", str(out_dir), *workload.report_args]
    legs, answers, snapshots = [], [], []
    problems: list[str] = []
    for label, extra in (("cold", []), ("retol", ["--tolerance", RETOL_TOLERANCE])):
        recorder = spans.Recorder() if traced else None
        code, seconds, reference_s, output = run_leg(base + extra, recorder)
        if code != 0:
            problems.append(f"{label} leg exited {code}: {output.strip()[-400:]}")
        leg_problems, leg_answers = outcheck.check_leg(out_dir, splits, workload.lake_ids(), seed)
        problems.extend(f"{label}: {p}" for p in leg_problems)
        snapshot = outcheck.snapshot(out_dir)
        if first_snapshots is not None:
            problems += outcheck.compare_repeats(first_snapshots[len(snapshots)], snapshot, label)
        done = sum(1 for lake_id in workload.lake_ids() if lake_id in leg_answers)
        legs.append(Leg(seconds, reference_s, done, recorder))
        answers.append(leg_answers)
        snapshots.append(snapshot)
    problems.extend(outcheck.compare_retol(*answers))
    shutil.rmtree(out_dir, ignore_errors=True)
    return Repeat(*legs, problems), snapshots


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(setup_times: list[float], repeats: list[Repeat], ok_frac: float) -> dict:
    cold = [r.cold for r in repeats]
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "report_ref_s": metric(statistics.median(leg.scaled_s for leg in cold), "s"),
        "lakes_per_ref_s": metric(statistics.median(leg.lakes_done / leg.scaled_s for leg in cold), "1/s"),
        "retol_ref_s": metric(statistics.median(r.retol.scaled_s for r in repeats), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "lake_ok_frac": metric(ok_frac, "frac"),
    }


def per_layer_metrics(repeats: list[Repeat]) -> dict:
    """Layer numbers from the first traced cold leg; cache numbers from its re-threshold leg.

    Repeats alternate untraced and traced, so the tracing overhead
    compares the median scaled leg of each kind.
    """
    traced = repeats[1]
    rec, retol = traced.cold.recorder, traced.retol.recorder
    count = rec.counters.get
    pipeline = rec.total("report.run_pipeline")
    forest_s = rec.total("models.forest")
    grid_s = rec.total("joint.grid")
    nodes = count("models.forest_nodes", 0)
    cells = count("joint.grid_cells", 0)
    hits = retol.counters.get("report.cache_hits", 0)
    misses = retol.counters.get("report.cache_misses", 0)
    values = {
        "cli.total_s": (rec.total("cli"), "s"),
        "cli.self_s": (rec.self_time("cli"), "s"),
        "dataset.parse_s": (rec.total("dataset.parse"), "s"),
        "dataset.rows": (count("dataset.rows", 0), "count"),
        "dataset.split_s": (rec.total("dataset.split"), "s"),
        "imputation.impute_s": (rec.total("imputation.impute"), "s"),
        "imputation.calls": (rec.calls("imputation.impute"), "count"),
        "imputation.sweeps": (count("imputation.sweeps", 0), "count"),
        "models.forest_nodes": (nodes, "count"),
        "models.forest_trees": (count("models.forest_trees", 0), "count"),
        "models.ridge_fits": (count("models.ridge_fits", 0), "count"),
        "models.forest_us_per_node": (1e6 * forest_s / nodes if nodes else 0.0, "us"),
        "selection.rank_s": (rec.total("selection.rank"), "s"),
        "selection.rank_calls": (rec.calls("selection.rank"), "count"),
        "selection.select_s": (rec.total("selection.select"), "s"),
        "evaluation.reference_s": (rec.total("evaluation.reference"), "s"),
        "evaluation.curve_s": (rec.total("evaluation.curve"), "s"),
        "evaluation.curve_cells": (count("evaluation.curve_cells", 0), "count"),
        "joint.grid_s": (grid_s, "s"),
        "joint.grid_cells": (cells, "count"),
        "joint.grid_us_per_cell": (1e6 * grid_s / cells if cells else 0.0, "us"),
        "joint.minimal_s": (rec.total("joint.minimal"), "s"),
        "joint.aggregate_s": (rec.total("joint.aggregate"), "s"),
        "report.self_s": (rec.self_time("report.run_pipeline"), "s"),
        "report.write_s": (rec.total("report.write"), "s"),
        "report.files_written": (count("report.files_written", 0), "count"),
        "report.cache_hits": (hits, "count"),
        "report.cache_misses": (misses, "count"),
        "report.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "frac"),
        "trace.overhead_frac": (
            statistics.median(leg.scaled_s for r in repeats[1::2] for leg in (r.cold, r.retol))
            / statistics.median(leg.scaled_s for r in repeats[::2] for leg in (r.cold, r.retol))
            - 1.0,
            "frac",
        ),
        "trace.coverage": (
            1.0 - rec.self_time("report.run_pipeline") / pipeline if pipeline else 0.0,
            "frac",
        ),
        "trace.missing": (len(set(rec.missing) | set(retol.missing)), "count"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    error = use_source_tree()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    import outcheck
    from workloads import WORKLOADS, write_workload

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    machine = machine_facts()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    input_csv = work / "input.csv"
    setup_times: list[float] = []
    digests: set[str] = set()
    repeats: list[Repeat] = []
    try:
        splits = first_snapshots = None
        started = time.perf_counter()
        while True:
            repeat_start = time.perf_counter()
            # Set-up is timed before every repeat, so its samples spread over
            # the run like the report samples do.
            for _ in range(SETUPS_PER_REPEAT):
                start = time.perf_counter()
                write_workload(workload, args.seed, input_csv)
                setup_times.append(time.perf_counter() - start)
                digests.add(hashlib.sha256(input_csv.read_bytes()).hexdigest())
            if splits is None:
                splits = outcheck.load_splits(input_csv, TEST_YEARS)
            traced = bool(args.trace) and len(repeats) % 2 == 1
            repeat, snapshots = run_repeat(
                len(repeats), work, input_csv, workload, splits, args.seed, traced, first_snapshots
            )
            repeats.append(repeat)
            first_snapshots = first_snapshots or snapshots
            # Start another repeat only if it should end within --seconds.
            now = time.perf_counter()
            if len(repeats) >= MIN_REPEATS and now - started + (now - repeat_start) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    problems = [] if len(digests) == 1 else ["set-up wrote different inputs for the same seed"]
    for i, repeat in enumerate(repeats):
        problems.extend(f"repeat {i}: {p}" for p in repeat.problems)

    attempted = 2 * workload.lakes * len(repeats)
    completed = sum(leg.lakes_done for r in repeats for leg in (r.cold, r.retol))
    if args.trace:
        metrics = per_layer_metrics(repeats)
    else:
        metrics = end_to_end_metrics(setup_times, repeats, completed / attempted)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine,
        "repeats": len(repeats),
        "cold_wall_s": [r.cold.seconds for r in repeats],
        "retol_wall_s": [r.retol.seconds for r in repeats],
        "reference_s": [leg.reference_s for r in repeats for leg in (r.cold, r.retol)],
        "setup_s": setup_times,
        "problems": problems,
    }
    if args.trace:
        rec = repeats[1].cold.recorder
        total = rec.total("cli")
        details["missing_targets"] = sorted(set(rec.missing) | set(repeats[1].retol.recorder.missing))
        details["shares"] = {
            name: rec.total(name) / total
            for name in ("selection.rank", "joint.grid", "evaluation.curve", "imputation.impute")
        }
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"perfbench": details}))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": attempted - completed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
