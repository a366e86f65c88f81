"""A seeded fuzz of `report` over mutated lakes: bad input fails its own lake by name, never the run.

Each trial mutates one lake of a three-lake CSV in one of the ways a
volunteer record can go wrong (`MUTATIONS`, in turn), seeded by the
trial number, and runs `report` in process, every second trial with
`--global-ranking`. It asserts that no exception or warning leaves
`main`, that the exit code is 0 or 1, that stderr holds only row errors
and skipped-lake lines, and that a failed lake changes no other lake's
files: they equal those of a run without it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import warnings
from pathlib import Path

import pytest

from limnoplan.cli import main

from bundle_digests import case_csv

TRIALS = 60
FLAGS = ("--trees", "5", "--n-stride", "5")
RANKINGS = ((), ("--global-ranking",))
STDERR_LINE = re.compile(r"(line \d+|lake \d+ skipped|error): ")

LINES = case_csv(3, 300, 8, 1, 1).splitlines()
HEADER = LINES[0].split(",")
DATE, BOTTOM, DEPTH = (HEADER.index(c) for c in ("date", "seccbot", "zS_m"))
COVARIATES = range(DEPTH + 1, len(HEADER))
LAKES = sorted({int(line.split(",", 1)[0]) for line in LINES[1:]})


def _set(rows, column, value, picks=None):
    for i in range(len(rows)) if picks is None else picks:
        rows[i][column] = value


def emptied_covariate(rng, rows):
    _set(rows, rng.choice(COVARIATES), "")


def huge_cells(rng, rows):
    column = rng.choice(COVARIATES)
    for i in rng.sample(range(len(rows)), 5):
        rows[i][column] = f"{rng.uniform(1, 10):.3f}e{rng.randint(154, 299)}"


def subnormal_covariate(rng, rows):
    column = rng.choice(COVARIATES)
    for row in rows:
        row[column] = repr(rng.randrange(40) * 5e-324)


def constant_covariate(rng, rows):
    _set(rows, rng.choice(COVARIATES), "1.5")


def constant_depth(rng, rows):
    _set(rows, DEPTH, "1.5")


def non_positive_depths(rng, rows):
    for i in rng.sample(range(len(rows) - 60, len(rows)), rng.randint(1, 60)):
        rows[i][DEPTH] = rng.choice(["0", "-0.0", "-2.5"])


def huge_pre_test_depths(rng, rows):
    _set(rows, DEPTH, "1e300", rng.sample(range(150), 3))


def huge_test_block_depths(rng, rows):
    # The test block is the last five years, about 130 visits.
    _set(rows, DEPTH, "1e300", rng.sample(range(len(rows) - 60, len(rows)), 3))


def one_date(rng, rows):
    _set(rows, DATE, rows[rng.randrange(len(rows))][DATE])


def cut_record(rng, rows):
    del rows[: len(rows) - rng.randint(1, 140)]


def all_on_bottom(rng, rows):
    _set(rows, BOTTOM, "Yes")


def one_observed_covariate(rng, rows):
    kept = rng.choice(COVARIATES)
    for column in COVARIATES:
        if column != kept:
            _set(rows, column, "")


def non_finite_cells(rng, rows):
    for i in rng.sample(range(len(rows)), rng.randint(1, 5)):
        rows[i][rng.choice([DEPTH, *COVARIATES])] = rng.choice(["nan", "inf", "-inf"])


# An odd count, so each mutation meets both ranking modes as the trials cycle through them.
MUTATIONS = (
    emptied_covariate, huge_cells, subnormal_covariate, constant_covariate, constant_depth, non_positive_depths,
    huge_pre_test_depths, huge_test_block_depths, one_date, cut_record, all_on_bottom, one_observed_covariate,
    non_finite_cells,
)


def csv_text(mutated: int | None = None, mutation=None, rng=None, dropped: int | None = None) -> str:
    """The three-lake CSV with lake `mutated` changed by `mutation(rng, rows)`, and lake `dropped` left out."""
    rows = {lake: [] for lake in LAKES}
    for line in LINES[1:]:
        cells = line.split(",")
        rows[int(cells[0])].append(cells)
    if mutated is not None:
        mutation(rng, rows[mutated])
    kept = [",".join(cells) for lake in LAKES if lake != dropped for cells in rows[lake]]
    return "\n".join([LINES[0], *kept]) + "\n"


def report(text: str, out: Path, ranking: tuple[str, ...]) -> tuple[int, str]:
    """Exit code and stderr of `report` on `text`, any warning raised as an error."""
    out.mkdir(parents=True)
    (out / "input.csv").write_text(text)
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(["report", "--input", str(out / "input.csv"), "--out-dir", str(out / "bundle"), *FLAGS, *ranking])
    return code, stderr.getvalue()


def lake_files(bundle: Path, lake: int) -> dict[str, object]:
    """Each file of the lake's directory: a JSON file's object without its `config_hash`, else its bytes."""
    files = {}
    for path in sorted((bundle / "lakes" / str(lake)).iterdir()):
        if path.suffix == ".json":
            payload = json.loads(path.read_text())
            payload.pop("config_hash")
            files[path.name] = payload
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.fixture(scope="module")
def without(tmp_path_factory):
    """Per (lake, ranking mode), the other lakes' files from a run of the CSV without that lake."""
    root, runs = tmp_path_factory.mktemp("without"), {}
    for lake in LAKES:
        for mode, ranking in enumerate(RANKINGS):
            out = root / f"{lake}-{mode}"
            assert report(csv_text(dropped=lake), out, ranking) == (0, "")
            runs[lake, mode] = {other: lake_files(out / "bundle", other) for other in LAKES if other != lake}
    return runs


def test_a_mutated_lake_fails_alone_and_by_name(tmp_path, without):
    failed = 0
    for trial in range(TRIALS):
        rng, mode = random.Random(trial), trial % 2
        mutation, lake = MUTATIONS[trial % len(MUTATIONS)], rng.choice(LAKES)
        context = f"trial {trial}: {mutation.__name__} of lake {lake}, {RANKINGS[mode] or 'per-lake ranking'}"
        out = tmp_path / str(trial)
        code, stderr = report(csv_text(lake, mutation, rng), out, RANKINGS[mode])
        assert code in (0, 1), context
        lines = stderr.splitlines()
        assert all(STDERR_LINE.match(line) for line in lines), f"{context}: {stderr}"
        skipped = [line for line in lines if line.startswith("lake ")]
        assert all(line.startswith(f"lake {lake} skipped: ") for line in skipped), f"{context}: {stderr}"
        if skipped:
            failed += 1
            for other, files in without[lake, mode].items():
                assert lake_files(out / "bundle", other) == files, f"{context}: lake {other} changed"
    assert failed >= TRIALS // 2  # most mutations fail their lake; the comparison above must run
