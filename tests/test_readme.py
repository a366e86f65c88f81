"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

from limnoplan import JointSummary, MinimalConfig, write_series_csv
from limnoplan.synth import SynthConfig, generate_lake

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    match = re.search(r"^## Library use\n+```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert match, "README has no python block under '## Library use'"
    return match.group(1)


def test_library_use_example_runs(tmp_path, monkeypatch):
    config = SynthConfig(n_samples=160, n_features=4, missing_fraction=0.1, sampling_interval_days=30, seed=3)
    series, _ = generate_lake(config)
    with open(tmp_path / "demo.csv", "w", newline="") as fh:
        write_series_csv(series, fh)
    monkeypatch.chdir(tmp_path)

    namespace: dict = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)

    assert namespace["row_errors"] == []
    assert namespace["curve"].n_star is not None
    assert 1 <= namespace["selection"].k_star <= 4
    assert isinstance(namespace["minimal"], MinimalConfig)
    summary = namespace["summary"]
    assert isinstance(summary, JointSummary) and summary.n_lakes == 1
