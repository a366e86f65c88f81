"""Every byte `report` writes, its stdout, stderr and exit code, equal the recorded fingerprint; and its
answers equal the recorded answers.

See `bundle_digests.py`: the byte comparison holds in the environment the
fingerprint was recorded in, and skips, naming both environments,
anywhere else. The answer comparison never skips. Both read the same
runs, made once per case.
"""

import functools
import json
import tempfile
from pathlib import Path

import pytest

import bundle_digests

RECORD = json.loads(bundle_digests.DIGESTS.read_text())
ANSWERS = json.loads(bundle_digests.ANSWERS.read_text())


@functools.cache
def case_records(name: str) -> tuple[dict, dict]:
    with tempfile.TemporaryDirectory() as work:
        return bundle_digests.case_records(name, Path(work))


@pytest.mark.parametrize("name", sorted(bundle_digests.CASES))
def test_bundle_bytes_equal_the_recorded_digests(name):
    here = bundle_digests.environment()
    if here != RECORD["environment"]:
        pytest.skip(
            "bundle digests were recorded in another environment; "
            f"recorded: {json.dumps(RECORD['environment'], sort_keys=True)}; here: {json.dumps(here, sort_keys=True)}"
        )
    want, got = RECORD["cases"][name], case_records(name)[0]
    assert got["input"] == want["input"], "the input CSV's bytes changed"
    for leg in ("cold", "retol"):
        mine, theirs = got[leg], want[leg]
        names = mine["files"].keys() | theirs["files"].keys()
        changed = sorted(f for f in names if mine["files"].get(f) != theirs["files"].get(f))
        assert not changed, f"{leg} run: files whose bytes changed, appeared or went: {changed}"
        for part in ("exit", "stdout", "stderr"):
            assert mine[part] == theirs[part], f"{leg} run: {part} changed"


@pytest.mark.parametrize("name", sorted(bundle_digests.CASES))
def test_bundle_answers_equal_the_recorded_answers(name):
    want, got = ANSWERS[name], case_records(name)[1]
    for leg in ("cold", "retol"):
        mine, theirs = got[leg], want[leg]
        assert (mine["exit"], mine["failures"]) == (theirs["exit"], theirs["failures"]), f"{leg} run"
        assert mine["lakes"].keys() == theirs["lakes"].keys(), f"{leg} run: the reported lakes changed"
        for lake, answer in theirs["lakes"].items():
            changed = sorted(part for part in answer if mine["lakes"][lake][part] != answer[part])
            assert not changed, f"{leg} run, lake {lake}: answers that changed: {changed}"
