"""The key sets of every JSON file the CLI writes.

Each result file is its dataclass's fields plus a stamp (`config_hash`
in a bundle, `lake_id` in a single-lake command's output). The keys are
spelled out here rather than read off the dataclasses, so renaming a
field changes the on-disk format only together with this test.
"""

import json

import pytest

from limnoplan.cli import main

from test_report_cli import small_lake_configs, synth_csv

RUN_CONFIG = {
    "test_years", "tolerance", "penalty", "seed", "impute_sweeps", "impute_noise", "n_trees",
    "grid_n_min", "grid_stride", "lake_ids", "exclude_fallback", "use_global_ranking",
}
JOINT_SUMMARY = {"median_n", "iqr_n", "median_k", "iqr_k", "feature_frequency", "fallback_count", "n_lakes"}
MINIMAL = {"lake_id", "n_hat", "k_hat", "selected_features", "fallback"}
RANKING = {"scores", "order"}
TABLE_ROW = {"lake_id", "lake", "train_mae", "test_mae", "train_nmae", "test_nmae", "test_le_train"}
IMPUTE_REPORT = {"sweeps", "final_delta", "converged", "fill_counts"}

PER_LAKE = {
    "impute_report.json": {"config_hash", *IMPUTE_REPORT},
    "reference_model.json": {
        "config_hash", "weights", "intercept", "train_means", "train_stds", "penalty", "feature_schema",
    },
    "metrics.json": {"config_hash", *TABLE_ROW},
    "sample_curve.json": {"config_hash", "n_star", "reference_nmae", "tolerance"},
    "ranking.json": {"config_hash", *RANKING},
    "selection.json": {"config_hash", "k_star", "subset", "full_nmae"},
    "minimal_config.json": {"config_hash", *MINIMAL, "tau", "full_nmae"},
}


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("schema") / "lakes.csv"
    synth_csv(path, small_lake_configs(2))
    return path


def load(path):
    return json.loads(path.read_text())


def test_report_bundle_keys(csv_path, tmp_path):
    out = tmp_path / "bundle"
    assert main(["report", "--input", str(csv_path), "--trees", "10", "--n-stride", "6", "--out-dir", str(out)]) == 0

    run_config = load(out / "run_config.json")
    assert set(run_config) == {"config", "config_hash"}
    assert set(run_config["config"]) == RUN_CONFIG

    summary = load(out / "summary.json")
    assert set(summary) == {
        "config_hash", "lakes", "failures", "joint", "minimal_configs", "aggregate_ranking", "mean_n_star",
        "train_test",
    }
    assert set(summary["joint"]) == JOINT_SUMMARY
    assert set(summary["aggregate_ranking"]) == RANKING
    assert [set(c) for c in summary["minimal_configs"]] == [MINIMAL, MINIMAL]
    assert [set(r) for r in summary["train_test"]] == [TABLE_ROW, TABLE_ROW]

    for lake_id in summary["lakes"]:
        lake_dir = out / "lakes" / str(lake_id)
        assert {p.name for p in lake_dir.glob("*.json")} == set(PER_LAKE)
        for name, keys in PER_LAKE.items():
            assert set(load(lake_dir / name)) == keys, name


def test_joint_keys(csv_path, tmp_path):
    out = tmp_path / "joint.json"
    assert main(["joint", "--input", str(csv_path), "--trees", "10", "--n-stride", "6", "--out", str(out)]) == 0
    payload = load(out)
    assert set(payload) == {"minimal_configs", "summary", "failures"}
    assert set(payload["summary"]) == JOINT_SUMMARY
    assert [set(c) for c in payload["minimal_configs"]] == [MINIMAL, MINIMAL]


def test_single_lake_command_keys(csv_path, tmp_path):
    one = ["--input", str(csv_path), "--lake", "100"]
    assert main(["impute", *one, "--out", str(tmp_path / "completed.csv")]) == 0
    assert set(load(tmp_path / "completed.json")) == {"lake_id", *IMPUTE_REPORT}

    assert main(["feature-rank", *one, "--trees", "10", "--out", str(tmp_path / "ranking.json")]) == 0
    assert set(load(tmp_path / "ranking.json")) == {"lake_id", *RANKING}
