"""A fingerprint of every byte `limnoplan report` writes, for seeded synthetic inputs.

Each case writes a multi-lake CSV with `limnoplan.synth`, built as the
benchmark's workloads build theirs, and runs `report` on it twice in
one out-dir: cold, then re-thresholded at `--tolerance 0.10`. After
each run it records the sha256 of every file in the out-dir (`cache/`
included), of stdout and of stderr, and the exit code.
`bundle_digests.json` holds these digests and the environment they were
recorded in; `test_bundle_digests.py` compares a fresh run with it.

Ridge, Gram and imputation bits go through BLAS/LAPACK, so another
Python, numpy, BLAS or CPU may write other bytes. The comparison
therefore holds only where the recorded environment matches; elsewhere
the test skips and names both environments.

The same runs also give each run's answers, read from its bundle: the
exit code and failed lakes, and per lake its minimal configuration,
selected features, ranking order, n*, k* and every grid cell's feasible
flag. `bundle_answers.json` holds them. No grid cell of these cases is
within a relative 4e-7 of its threshold, far above last-bit noise, so
their comparison holds in every environment and never skips.

After a deliberate change to any written byte, rewrite both files with

    python tests/bundle_digests.py --update
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

DIGESTS = Path(__file__).with_name("bundle_digests.json")
ANSWERS = Path(__file__).with_name("bundle_answers.json")
RETOL = ("--tolerance", "0.10")

# name: (lakes, visits, covariates, MAR lakes, CSV seed, report flags)
CASES = {
    "long-history": (1, 800, 12, 0, 1, ("--trees", "10")),
    "regional-global": (3, 300, 8, 1, 1, ("--trees", "40", "--global-ranking", "--n-stride", "5")),
    "regional-own": (3, 300, 8, 1, 1, ("--trees", "40", "--n-stride", "5")),
    "long-history-9": (1, 800, 12, 0, 9, ("--trees", "10")),
    "regional-global-9": (3, 300, 8, 1, 9, ("--trees", "40", "--global-ranking", "--n-stride", "5")),
    "six-lakes": (6, 600, 13, 2, 1, ()),
}


def case_csv(lakes: int, visits: int, covariates: int, mar_lakes: int, seed: int) -> str:
    """The lakes 1001, 1002, ... as one ingest-layout CSV; the first `mar_lakes` are MAR, the rest MCAR."""
    from limnoplan.dataset import write_series_csv
    from limnoplan.synth import SynthConfig, generate_lake

    parts = []
    for index in range(lakes):
        config = SynthConfig(
            n_samples=visits,
            n_features=covariates,
            cross_correlation=0.3,
            missing_fraction=0.3,
            missing_mechanism="mar" if index < mar_lakes else "mcar",
            sampling_interval_days=14,
            lake_id=1001 + index,
            lake_name=f"Lake {1001 + index}",
            seed=int(np.random.SeedSequence([seed, index]).generate_state(1)[0]),
        )
        buffer = io.StringIO()
        write_series_csv(generate_lake(config)[0], buffer)
        text = buffer.getvalue()
        parts.append(text if index == 0 else text.split("\n", 1)[1])  # one header for the whole file
    return "".join(parts)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_report(argv: list[str], out_dir: Path) -> tuple[dict, dict]:
    """Exit code, stdout and stderr digests, and each out-dir file's digest, of one in-process `report`; then
    the run's `answers`."""
    from limnoplan.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["report", *argv, "--out-dir", str(out_dir)])
    files = {p.relative_to(out_dir).as_posix(): sha256(p.read_bytes()) for p in out_dir.rglob("*") if p.is_file()}
    digests = {
        "exit": code,
        "stdout": sha256(stdout.getvalue().encode()),
        "stderr": sha256(stderr.getvalue().encode()),
        "files": dict(sorted(files.items())),
    }
    return digests, answers(out_dir, code)


def answers(out_dir: Path, code: int) -> dict:
    """The exit code, the failed lakes, and per lake what the bundle answers: `(n_hat, k_hat, fallback)`, the
    selected features, the ranking order, the curve's n*, the selection's k* and `grid.csv`'s feasible flags."""
    summary = json.loads((out_dir / "summary.json").read_text())
    lakes = {}
    for lake_id in summary["lakes"]:
        lake_dir = out_dir / "lakes" / str(lake_id)
        minimal = json.loads((lake_dir / "minimal_config.json").read_text())
        grid = (lake_dir / "grid.csv").read_text().splitlines()[1:]
        lakes[str(lake_id)] = {
            "minimal": [minimal["n_hat"], minimal["k_hat"], minimal["fallback"]],
            "selected": minimal["selected_features"],
            "order": json.loads((lake_dir / "ranking.json").read_text())["order"],
            "n_star": json.loads((lake_dir / "sample_curve.json").read_text())["n_star"],
            "k_star": json.loads((lake_dir / "selection.json").read_text())["k_star"],
            "feasible": "".join(line.rsplit(",", 1)[1] for line in grid),
        }
    return {"exit": code, "failures": sorted(summary["failures"]), "lakes": lakes}


def case_records(name: str, work: Path) -> tuple[dict, dict]:
    """The case's digests: the input CSV's, then the cold run's and the re-threshold run's records; and the
    answers of those two runs."""
    *shape, flags = CASES[name]
    path = work / f"{name}.csv"
    path.write_text(case_csv(*shape), newline="")
    argv, out_dir = ["--input", str(path), *flags], work / name
    cold, retol = run_report(argv, out_dir), run_report([*argv, *RETOL], out_dir)
    digests = {"input": sha256(path.read_bytes()), "cold": cold[0], "retol": retol[0]}
    return digests, {"cold": cold[1], "retol": retol[1]}


def environment() -> dict:
    """What the written bits can depend on beyond the code: Python, numpy, BLAS/LAPACK and the CPU."""
    try:
        config = np.show_config(mode="dicts")
        deps, simd = config["Build Dependencies"], config["SIMD Extensions"]
        libraries = {lib: {key: deps[lib].get(key) for key in ("name", "version", "openblas configuration")}
                     for lib in ("blas", "lapack")}
    except TypeError:  # numpy before 1.26 only prints its configuration
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_config()
        libraries, simd = {"show_config": text.getvalue()}, None
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": libraries,
        "simd": simd,
        "machine": {"system": platform.system(), "arch": platform.machine(), "cpu": cpu},
    }


def compute() -> tuple[dict, dict]:
    """Every case's digests, then every case's answers."""
    with tempfile.TemporaryDirectory() as work:
        records = {name: case_records(name, Path(work)) for name in CASES}
    return {name: r[0] for name, r in records.items()}, {name: r[1] for name, r in records.items()}


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit(f"usage: python {sys.argv[0]} --update")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    digests, case_answers = compute()
    record = {"environment": environment(), "cases": digests}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    ANSWERS.write_text(json.dumps(case_answers, indent=1, sort_keys=True) + "\n")
    count = sum(len(case[leg]["files"]) for case in record["cases"].values() for leg in ("cold", "retol"))
    lakes = sum(len(case[leg]["lakes"]) for case in case_answers.values() for leg in ("cold", "retol"))
    print(f"wrote {DIGESTS}: {count} file digests; {ANSWERS}: the answers of {lakes} lake runs")
