"""Self-check for the benchmark's output check.

Runs `limnoplan report` on a smoke-sized workload, requires the output
check to pass on the real bundles, then corrupts copies of them and
requires the check to fail on each copy:

    python3 perfbench/selfcheck.py

Exit code 0 means every case behaved as expected.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import shutil
import sys
from pathlib import Path

import run

SMOKE_SEED = 5


def _rewrite_grid(lake_dir: Path, edit) -> None:
    path = lake_dir / "grid.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _rewrite_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _report(args: list[str]) -> None:
    from limnoplan import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    if code != 0:
        raise SystemExit(f"selfcheck: smoke report exited {code}")


def main() -> int:
    error = run.use_source_tree()
    if error:
        print(f"selfcheck: {error}", file=sys.stderr)
        return 2
    import outcheck
    from workloads import RETOL_TOLERANCE, Workload, write_workload

    smoke = Workload(lakes=2, visits=200, covariates=4, mar_lakes=1, report_args=("--trees", "5"))
    ids = smoke.lake_ids()
    work = run.ROOT / ".perfbench_work" / f"selfcheck-{os.getpid()}"
    results: list[tuple[str, bool]] = []
    try:
        input_csv = work / "input.csv"
        write_workload(smoke, SMOKE_SEED, input_csv)
        splits = outcheck.load_splits(input_csv, run.TEST_YEARS)
        base = ["report", "--input", str(input_csv), *smoke.report_args, "--out-dir"]

        def check(out_dir: Path, cells: int | None = None) -> tuple[list[str], dict]:
            return outcheck.check_leg(out_dir, splits, ids, SMOKE_SEED, cells)

        first, second = work / "first", work / "second"
        _report(base + [str(second)])
        _report(base + [str(first)])
        cold_problems, cold = check(first, None)
        cold_snapshot = outcheck.snapshot(first)
        _report(base + [str(first), "--tolerance", RETOL_TOLERANCE])
        retol_problems, retol = check(first, None)
        second_problems, second_answers = check(second)
        clean = (
            cold_problems
            + retol_problems
            + second_problems
            + outcheck.compare_retol(cold, retol)
            + outcheck.compare_repeats(cold_snapshot, outcheck.snapshot(second), "repeat")
        )
        for problem in clean:
            print(f"  unexpected: {problem}")
        results.append(("smoke bundles pass", not clean))

        rng = random.Random(SMOKE_SEED)
        lake_dir = Path("lakes") / str(ids[0])
        n_hat, k_hat, _ = cold[ids[0]].minimal

        # Each detector runs one part of the check alone on a corrupted copy.
        def leg_check(cells: int | None = outcheck.CELLS_PER_LAKE):
            return lambda copy: check(copy, cells)[0]

        def retol_check(copy: Path) -> list[str]:
            return outcheck.compare_retol(second_answers, check(copy)[1])

        def repeat_check(copy: Path) -> list[str]:
            return outcheck.compare_repeats(outcheck.snapshot(second), outcheck.snapshot(copy), "repeat")

        def corrupted(name: str, edit, detect) -> None:
            copy = work / name.replace(" ", "-").replace(",", "")
            shutil.copytree(second, copy)
            edit(copy)
            problems = detect(copy)
            print(f"  {name}: {problems[0] if problems else 'NOT DETECTED'}")
            results.append((f"detects {name}", bool(problems)))

        def flip_flag(rows: list[list[str]]) -> None:
            row = rows[rng.randrange(1, len(rows))]
            row[3] = "0" if row[3] == "1" else "1"

        def nudge_random(rows: list[list[str]]) -> None:
            row = rows[rng.randrange(1, len(rows))]
            row[2] = repr(float(row[2]) * (1 + 1e-6))

        def nudge_minimal(rows: list[list[str]]) -> None:
            for row in rows[1:]:
                if (int(row[0]), int(row[1])) == (n_hat, k_hat):
                    row[2] = repr(float(row[2]) * (1 + 1e-6))

        def bump_n_hat(payload: dict) -> None:
            payload["n_hat"] += 1

        def nudge_reference(payload: dict) -> None:
            payload["reference_nmae"] *= 1 + 1e-6

        def grid(edit):
            return lambda copy: _rewrite_grid(copy / lake_dir, edit)

        corrupted("flipped feasible flag", grid(flip_flag), leg_check())
        corrupted("edited nMAE, every cell recomputed", grid(nudge_random), leg_check(None))
        corrupted("edited nMAE of the minimal cell", grid(nudge_minimal), leg_check())
        corrupted(
            "edited n_hat",
            lambda copy: _rewrite_json(copy / lake_dir / "minimal_config.json", bump_n_hat),
            leg_check(),
        )
        corrupted(
            "edited reference_nmae",
            lambda copy: _rewrite_json(copy / lake_dir / "sample_curve.json", nudge_reference),
            leg_check(),
        )
        corrupted("nMAE column changed by re-thresholding", grid(nudge_random), retol_check)
        corrupted(
            "summary.json differing between repeats",
            lambda copy: (copy / "summary.json").write_text((copy / "summary.json").read_text() + " "),
            repeat_check,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
