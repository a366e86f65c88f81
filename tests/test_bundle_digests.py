"""Every byte `report` writes, its stdout, stderr and exit code, equal the recorded fingerprint.

See `bundle_digests.py`: the comparison holds in the environment the
fingerprint was recorded in, and skips, naming both environments,
anywhere else.
"""

import json

import pytest

import bundle_digests

RECORD = json.loads(bundle_digests.DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(bundle_digests.CASES))
def test_bundle_bytes_equal_the_recorded_digests(name, tmp_path):
    here = bundle_digests.environment()
    if here != RECORD["environment"]:
        pytest.skip(
            "bundle digests were recorded in another environment; "
            f"recorded: {json.dumps(RECORD['environment'], sort_keys=True)}; here: {json.dumps(here, sort_keys=True)}"
        )
    want, got = RECORD["cases"][name], bundle_digests.case_digests(name, tmp_path)
    assert got["input"] == want["input"], "the input CSV's bytes changed"
    for leg in ("cold", "retol"):
        mine, theirs = got[leg], want[leg]
        names = mine["files"].keys() | theirs["files"].keys()
        changed = sorted(f for f in names if mine["files"].get(f) != theirs["files"].get(f))
        assert not changed, f"{leg} run: files whose bytes changed, appeared or went: {changed}"
        for part in ("exit", "stdout", "stderr"):
            assert mine[part] == theirs[part], f"{leg} run: {part} changed"
