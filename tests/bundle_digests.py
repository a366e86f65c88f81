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

After a deliberate change to any written byte, rewrite the file with

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


def run_report(argv: list[str], out_dir: Path) -> dict:
    """Exit code, stdout and stderr digests, and each out-dir file's digest, of one in-process `report`."""
    from limnoplan.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["report", *argv, "--out-dir", str(out_dir)])
    files = {p.relative_to(out_dir).as_posix(): sha256(p.read_bytes()) for p in out_dir.rglob("*") if p.is_file()}
    return {
        "exit": code,
        "stdout": sha256(stdout.getvalue().encode()),
        "stderr": sha256(stderr.getvalue().encode()),
        "files": dict(sorted(files.items())),
    }


def case_digests(name: str, work: Path) -> dict:
    """The input CSV's digest, then the cold run's and the re-threshold run's records."""
    *shape, flags = CASES[name]
    path = work / f"{name}.csv"
    path.write_text(case_csv(*shape), newline="")
    argv, out_dir = ["--input", str(path), *flags], work / name
    cold = run_report(argv, out_dir)
    return {"input": sha256(path.read_bytes()), "cold": cold, "retol": run_report([*argv, *RETOL], out_dir)}


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


def compute() -> dict:
    with tempfile.TemporaryDirectory() as work:
        return {name: case_digests(name, Path(work)) for name in CASES}


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        raise SystemExit(f"usage: python {sys.argv[0]} --update")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    record = {"environment": environment(), "cases": compute()}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    count = sum(len(case[leg]["files"]) for case in record["cases"].values() for leg in ("cold", "retol"))
    print(f"wrote {DIGESTS}: {count} file digests")
