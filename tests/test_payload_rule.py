"""Every JSON file is written by one rule: `report.write_json` of the result objects as they are.

The reference in each test is the rule that rule replaced, kept here: each
result dataclass copied by `dataclasses.asdict`, failure ids sorted as ints
and turned into strings by hand, then `json.dumps` of `old_jsonable` of that
(a recursive call per item), keys sorted. The files must equal it byte for
byte.

Every JSON and CSV file goes through one text writer, which rewrites a file
in place. Its reference is `open(path, "w")` after a `mkdir` of the parent:
the same bytes, the same empty file after a failed write, and no old byte
left after the new ones.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from limnoplan import dataset, report
from limnoplan.cli import main
from limnoplan.evaluation import SampleCurve
from limnoplan.imputation import ImputeReport
from limnoplan.models import RidgeModel
from limnoplan.report import RunConfig, TableRow, run_pipeline
from limnoplan.selection import FeatureRanking, SelectionResult, aggregate_ranking
from limnoplan.synth import config_from_dict, generate_lake

from test_report_cli import bundle, small_lake_configs, synth_csv

FLAGS = ["--trees", "10", "--n-stride", "6"]
CONFIG = RunConfig(n_trees=10, grid_stride=6)


def old_jsonable(obj):
    """The conversion `report._jsonable` makes, one recursive call per item, each testing for a dataclass."""
    if dataclasses.is_dataclass(obj):
        return {f.name: old_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): old_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return None if math.isnan(value) else value
    if isinstance(obj, np.ndarray):
        return old_jsonable(obj.tolist())
    return obj


def old_rule(payload) -> str:
    return json.dumps(old_jsonable(payload), indent=2, sort_keys=True) + "\n"


def old_failures(failures: dict[int, str]) -> dict[str, str]:
    return {str(k): v for k, v in sorted(failures.items())}


def old_write_csv(path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(report.csv_text(rows))


def input_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    """Lakes 999 and 1000, too short for the 5-year test window, whose ids sort apart as ints and as strings;
    then lakes 1001 and 1002, which complete."""
    base = small_lake_configs(1)[0]
    sizes = {999: 30, 1000: 30, 1001: 140, 1002: 140}
    configs = [
        dataclasses.replace(base, lake_id=i, lake_name=f"Synth {i}", n_samples=n, seed=50 + j)
        for j, (i, n) in enumerate(sizes.items())
    ]
    path = tmp_path_factory.mktemp("payload") / "lakes.csv"
    synth_csv(path, configs)
    return path


@pytest.mark.parametrize(
    "result, nulls",
    [
        (RidgeModel(np.array([math.nan, 1.5]), math.nan, np.array([0.0, np.nan]), np.ones(2), 0.1, ["a", "b"]), 3),
        (TableRow(7, "Lake 7", math.nan, 0.5, np.float64(math.nan), 1.0, False), 2),
        (FeatureRanking({"a": math.nan, "b": 0.2}, ["b", "a"]), 1),
        (ImputeReport(3, math.nan, False, {"a": 2}), 1),
        (SelectionResult(2, ["a", "b"], {1: math.nan, 2: 0.3, 10: 0.2}, math.nan), 2),
    ],
    ids=["ridge-model", "table-row", "ranking", "impute-report", "selection"],
)
def test_a_nan_field_is_written_as_null(tmp_path, result, nulls):
    # The table row's own lake_id wins over the stamp's, as it did.
    path = tmp_path / "result.json"
    report.write_json(path, result, config_hash="abc", lake_id=5)
    text = path.read_text()
    assert text == old_rule({"config_hash": "abc", "lake_id": 5, **dataclasses.asdict(result)})
    assert text.count("null") == nulls and "NaN" not in text


@dataclasses.dataclass
class Inner:
    name: str
    scores: dict
    values: np.ndarray


@dataclasses.dataclass
class Outer:
    inner: Inner
    items: list
    pair: tuple


@pytest.mark.parametrize(
    "payload",
    [
        np.array([1.5, math.nan, -0.0, math.inf, 1e-300]),
        np.array([[1.0, math.nan], [np.nan, 2.5]]),
        np.array([3, -2, 2**62], dtype=np.int64),
        np.array(math.nan),
        np.array([True, False]),
        (1, "a", 2.5, math.nan, np.float64(math.nan), np.float32(0.1), None, True, [1.0, math.nan], {2: 3.0}),
        [math.nan, 0.5, np.float64(0.25)],
        [],
        Outer(
            Inner("Lac \u00e9t\u00e9", {1: math.nan, "b": np.float64(2.0)}, np.array([0.1, math.nan])),
            [Inner("x", {}, np.zeros(0)), (np.float64(math.nan), 7)],
            (math.nan, "y", [Inner("z", {0: [math.nan]}, np.array([[1.0]]))]),
        ),
        {1: np.array([math.nan]), "k": (0.5, math.nan), 2.5: {3: [1, 2.0]}},
    ],
    ids=["float-nan", "float-2d", "int64", "0-d-nan", "bool", "mixed-tuple", "float-list", "empty", "dataclasses",
         "dict"],
)
def test_jsonable_is_the_old_rule(payload):
    new, old = report._jsonable(payload), old_jsonable(payload)
    assert repr(new) == repr(old)  # the same values of the same Python types
    assert json.dumps(new, sort_keys=True) == json.dumps(old, sort_keys=True)


def test_an_nmae_table_sidecar_keeps_the_rule(tmp_path):
    curve = SampleCurve([5, 6], {5: 0.5, 6: math.nan}, math.nan, None, 0.05)
    report.write_nmae_table(tmp_path / "sample_curve.csv", curve, config_hash="abc")
    fields = {k: v for k, v in dataclasses.asdict(curve).items() if k not in ("grid", "nmae_at")}
    assert (tmp_path / "sample_curve.json").read_text() == old_rule({"config_hash": "abc", **fields})
    assert (tmp_path / "sample_curve.csv").read_text() == "n,nmae\n5,0.5\n6,nan\n"


def test_summary_and_joint_with_failed_lakes_999_and_1000(csv_path, tmp_path):
    bundle, joint = tmp_path / "bundle", tmp_path / "joint.json"
    assert main(["report", "--input", str(csv_path), *FLAGS, "--out-dir", str(bundle)]) == 1
    assert main(["joint", "--input", str(csv_path), *FLAGS, "--out", str(joint)]) == 1

    with open(csv_path, newline="") as fh:
        lakes, _ = dataset.parse_dataset(fh)
    result = run_pipeline(lakes, CONFIG, tmp_path / "reference", input_digest(csv_path))
    assert sorted(result.failures) == [999, 1000] and [r.lake_id for r in result.reports] == [1001, 1002]
    minimal = [dataclasses.asdict(r.minimal) for r in result.reports]
    summary = {
        "config_hash": result.config_hash,
        "lakes": [1001, 1002],
        "failures": old_failures(result.failures),
        "joint": dataclasses.asdict(result.summary),
        "minimal_configs": minimal,
        "aggregate_ranking": dataclasses.asdict(aggregate_ranking([r.lake.ranking for r in result.reports])),
        "mean_n_star": result.mean_n_star,
        "train_test": [dataclasses.asdict(r.table_row) for r in result.reports],
    }
    text = (bundle / "summary.json").read_text()
    assert text == old_rule(summary)
    assert text.index('"1000": "lake 1000') < text.index('"999": "lake 999')  # JSON text order, not int order
    expected = {"minimal_configs": minimal, "summary": summary["joint"], "failures": summary["failures"]}
    assert joint.read_text() == old_rule(expected)


def test_run_config_and_config_hash_with_lake_ids(csv_path, tmp_path):
    lakes_file, out = tmp_path / "lakes.json", tmp_path / "bundle"
    lakes_file.write_text("[1002, 999, 1001]")
    assert main(["report", "--input", str(csv_path), *FLAGS, "--lakes", str(lakes_file), "--out-dir", str(out)]) == 1
    config = dataclasses.replace(CONFIG, lake_ids=(1002, 999, 1001))
    digest = input_digest(csv_path)
    fingerprint = json.dumps({"config": dataclasses.asdict(config), "input": digest}, sort_keys=True)
    config_hash = hashlib.sha256(fingerprint.encode()).hexdigest()[:16]
    assert report.config_fingerprint(config, digest) == config_hash
    run_config = {"config": dataclasses.asdict(config), "config_hash": config_hash}
    assert (out / "run_config.json").read_text() == old_rule(run_config)
    assert json.loads((out / "run_config.json").read_text())["config"]["lake_ids"] == [1002, 999, 1001]


def test_synth_truth_arrays(tmp_path):
    payload = {"n_samples": 40, "n_features": 3, "missing_fraction": 0.3, "seed": 2}
    config_path, truth_path = tmp_path / "synth.json", tmp_path / "truth.json"
    config_path.write_text(json.dumps(payload))
    argv = ["synth", "--config", str(config_path), "--out", str(tmp_path / "lake.csv"), "--truth", str(truth_path)]
    assert main(argv) == 0
    _, truth = generate_lake(config_from_dict(payload))
    assert truth.missing_mask.any() and truth.covariates.ndim == 2
    expected = {**dataclasses.asdict(truth), "missing_mask": truth.missing_mask.astype(int)}
    assert truth_path.read_text() == old_rule(expected)


def test_lakes_rank_profiles(csv_path, tmp_path):
    out = tmp_path / "rank.json"
    assert main(["lakes", "rank", "--input", str(csv_path), "--out", str(out)]) == 0
    with open(csv_path, newline="") as fh:
        lakes = {s.lake_id: s for s in dataset.parse_dataset(fh)[0]}
    ranked = json.loads(out.read_text())["lakes"]
    profiles = [
        {"lake_id": i, **dataclasses.asdict(dataset.missingness_profile(dataset.apply_exclusions(lakes[i])))}
        for i in ranked
    ]
    expected = {"missingness_after_exclusions": True, "lakes": ranked, "profiles": profiles}
    assert out.read_text() == old_rule(expected)


def test_a_rewrite_over_a_longer_file_leaves_only_the_new_bytes_in_place(tmp_path):
    json_path, csv_path = tmp_path / "minimal_config.json", tmp_path / "grid.csv"
    for path in (json_path, csv_path):
        path.write_bytes(b"stale bytes\n" * 1000)
    inodes = [path.stat().st_ino for path in (json_path, csv_path)]
    report.write_json(json_path, {"n_hat": 12}, config_hash="abc")
    report.write_csv(csv_path, [["n", "nmae"], [5, 0.5]])
    assert json_path.read_text() == old_rule({"config_hash": "abc", "n_hat": 12})
    assert csv_path.read_bytes() == b"n,nmae\n5,0.5\n"
    assert [path.stat().st_ino for path in (json_path, csv_path)] == inodes


def test_the_writers_make_a_missing_nested_directory(tmp_path):
    report.write_json(tmp_path / "a" / "b" / "result.json", {"x": 1})
    report.write_csv(tmp_path / "c" / "d" / "rows.csv", [["x"], [1]])
    assert (tmp_path / "a" / "b" / "result.json").read_text() == old_rule({"x": 1})
    assert (tmp_path / "c" / "d" / "rows.csv").read_text() == "x\n1\n"


def test_a_file_in_the_directory_s_place_raises_as_mkdir_did(tmp_path):
    (tmp_path / "1001").write_text("not a directory")
    with pytest.raises(FileExistsError):
        old_write_csv(tmp_path / "1001" / "old.csv", [["x"]])
    with pytest.raises(FileExistsError):
        report.write_csv(tmp_path / "1001" / "grid.csv", [["x"]])


def test_the_bytes_are_open_w_s_encoding_and_newlines(tmp_path):
    # JSON keeps text mode's newline translation; CSV keeps newline="", so a quoted "\r\n" stays as it is.
    rows = [["lake", "note"], [1, "Lac \u00e9t\u00e9\r\nsecond line"], [2, "\u6e56"]]
    payload = {"lake": "Lac \u00e9t\u00e9", "note": "a\r\nb"}
    old_write_csv(tmp_path / "old.csv", rows)
    with open(tmp_path / "old.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    report.write_csv(tmp_path / "new.csv", rows)
    report.write_json(tmp_path / "new.json", payload)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


@pytest.mark.parametrize("newline", [None, ""], ids=["translated", "untranslated"])
@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"lake": "Lac \u00e9t\u00e9 \u6e56", "note": "a\rb"}, indent=2, ensure_ascii=False) + "\n",
        report.csv_text([["lake", "note"], ["Lac \u00e9t\u00e9", "one\rtwo"], ["\u6e56", "x\r\ny"]], ["3,0.5\n"]),
    ],
    ids=["json", "csv"],
)
def test_the_text_writer_writes_open_w_s_bytes(tmp_path, text, newline):
    with open(tmp_path / "old", "w", newline=newline) as fh:
        fh.write(text)
    report._write_text(tmp_path / "new", text, newline)
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()
    written = (tmp_path / "new").read_bytes()
    assert "\u00e9".encode() in written and (b"\r" in written) == text.startswith("lake")  # JSON escapes a \r


@pytest.mark.parametrize("stale", [b"stale bytes\n" * 1000, None], ids=["over-a-file", "new-file"])
def test_a_failed_write_leaves_an_empty_file_as_open_w_did(tmp_path, stale):
    rows = [["lake", "note"], [1, "x" * 20000 + "\ud800"]]  # a lone surrogate has no encoding
    for name, write in (("old.csv", old_write_csv), ("new.csv", report.write_csv)):
        path = tmp_path / "lakes" / name
        if stale is not None:
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(stale)
        with pytest.raises(UnicodeEncodeError):
            write(path, rows)
        assert path.read_bytes() == b""


def test_lake_files_swapped_for_longer_junk_end_with_a_cold_run_s_bytes(csv_path, tmp_path):
    warm, cold = tmp_path / "warm", tmp_path / "cold"
    assert main(["report", "--input", str(csv_path), *FLAGS, "--out-dir", str(warm)]) == 1
    for name in ("1001/minimal_config.json", "1001/grid.csv", "1002/selection.csv", "1002/metrics.json"):
        path = warm / "lakes" / name
        path.write_bytes(path.read_bytes() + b"junk that no run writes\n" * 500)
    assert main(["report", "--input", str(csv_path), *FLAGS, "--tolerance", "0.10", "--out-dir", str(warm)]) == 1
    assert main(["report", "--input", str(csv_path), *FLAGS, "--tolerance", "0.10", "--out-dir", str(cold)]) == 1
    assert bundle(warm) == bundle(cold)
