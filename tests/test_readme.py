"""The README's "Library use" example and "CLI walkthrough" run as written."""

import json
import re
import shlex
from pathlib import Path

from limnoplan import JointSummary, MinimalConfig, write_series_csv
from limnoplan.cli import main
from limnoplan.synth import SynthConfig, generate_lake

README = Path(__file__).resolve().parents[1] / "README.md"


def code_block(heading: str, language: str) -> str:
    match = re.search(rf"^## {heading}\n+```{language}\n(.*?)^```", README.read_text(), re.S | re.M)
    assert match, f"README has no {language} block under '## {heading}'"
    return match.group(1)


def test_library_use_example_runs(tmp_path, monkeypatch):
    config = SynthConfig(n_samples=160, n_features=4, missing_fraction=0.1, sampling_interval_days=30, seed=3)
    series, _ = generate_lake(config)
    with open(tmp_path / "demo.csv", "w", newline="") as fh:
        write_series_csv(series, fh)
    monkeypatch.chdir(tmp_path)

    namespace: dict = {}
    exec(compile(code_block("Library use", "python"), str(README), "exec"), namespace)

    assert namespace["row_errors"] == []
    assert namespace["curve"].n_star is not None
    assert 1 <= namespace["selection"].k_star <= 4
    assert isinstance(namespace["minimal"], MinimalConfig)
    summary = namespace["summary"]
    assert isinstance(summary, JointSummary) and summary.n_lakes == 1


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    """Each `limnoplan` line exits 0 on the one-lake `demo.csv` its first line writes; a `--top` above
    the number of lakes exits 2."""
    synth = {"n_samples": 160, "n_features": 4, "missing_fraction": 0.1, "sampling_interval_days": 30,
             "lake_id": 3141, "seed": 3}
    (tmp_path / "synth.json").write_text(json.dumps(synth))
    monkeypatch.chdir(tmp_path)

    commands = [shlex.split(line)[1:] for line in code_block("CLI walkthrough", "sh").splitlines()
                if line.startswith("limnoplan ")]
    assert commands[0][0] == "synth" and [argv[0] for argv in commands[1:]] == [
        "ingest", "lakes", "impute", "sample-curve", "feature-rank", "feature-select", "joint", "report"
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    assert json.loads(Path("lakes.json").read_text())["lakes"] == [3141]
    capsys.readouterr()

    assert main(["lakes", "rank", "--input", "demo.csv", "--top", "2", "--out", "top2.json"]) == 2
    assert capsys.readouterr().err == "error: --top 2 exceeds the 1 lakes in the input\n"
