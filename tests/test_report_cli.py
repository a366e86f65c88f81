"""Pipeline bundle, report determinism, and the command-line surface."""

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
import zlib
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from limnoplan import cli, dataset, report
from limnoplan.cli import main
from limnoplan.dataset import parse_dataset, write_series_csv
from limnoplan.errors import ConfigError
from limnoplan.joint import FeasibilityGrid
from limnoplan.report import RunConfig, run_pipeline, train_test_table
from limnoplan.synth import SynthConfig, generate_lake

from conftest import count_passes, series_from_arrays


def synth_csv(path: Path, configs: list[SynthConfig]) -> list:
    """Write several synthetic lakes into one ingest-layout CSV."""
    chunks = []
    for i, config in enumerate(configs):
        series, _ = generate_lake(config)
        buf = io.StringIO()
        write_series_csv(series, buf)
        text = buf.getvalue()
        chunks.append(text if i == 0 else text.split("\n", 1)[1])
    path.write_text("".join(chunks))
    return configs


def small_lake_configs(n_lakes=3, n_samples=140):
    return [
        SynthConfig(
            n_samples=n_samples,
            n_features=4,
            true_weights=(1.0, -0.5, 0.3, 0.0),
            missing_fraction=0.15,
            cross_correlation=0.5,
            noise_sd=0.4,
            sampling_interval_days=30,
            lake_id=100 + i,
            lake_name=f"Synth {100 + i}",
            seed=50 + i,
        )
        for i in range(n_lakes)
    ]


FAST = dict(n_trees=25, grid_stride=4, impute_sweeps=8)


def bundle(out_dir: Path) -> dict[str, bytes]:
    """Every file of a report bundle but the stage cache, by relative path."""
    return {
        str(path.relative_to(out_dir)): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and "cache" not in path.relative_to(out_dir).parts
    }


def entry_arrays(path: Path) -> dict[str, np.ndarray]:
    """The arrays of a stage-cache entry, `key` included: the fields of its one `.npy` record."""
    record = np.load(path, allow_pickle=False)
    return {name: record[name] for name in record.dtype.names}


def save_entry(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """`arrays` as one stage-cache record at `path`: a 0-d structured array of a field per array. A `crc32`
    field is set to the CRC-32 of the record's other bytes, so a tamper written here misses for its own fault."""
    record = np.empty((), [(name, a.dtype, a.shape) for name, a in arrays.items()])
    for name, a in arrays.items():
        record[name] = a
    if "crc32" in arrays:
        data, at = bytearray(record.tobytes()), record.dtype.fields["crc32"][1]
        del data[at : at + 4]
        record["crc32"] = zlib.crc32(data)
    save_npy(path, record)


def stored_key(path: Path) -> str:
    """The key a stage-cache entry was stored under."""
    return entry_arrays(path)["key"].tobytes().decode()


def same_arrays(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k], equal_nan=True) for k in a)


def save_npy(path: Path, array: np.ndarray) -> None:
    with open(path, "wb") as fh:  # np.save would add ".npy" to a path not ending in it
        np.save(fh, array)


def save_npz(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """`arrays` as the earlier format's entry: an uncompressed `.npz` zip of one member per array."""
    with open(path, "wb") as fh:  # np.savez would add ".npz" to a path
        np.savez(fh, **arrays)


def python2_header(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """The key's shape written the Python 2 way, `(16L,)`, and one header padding space dropped: a header that
    only numpy's Python 2 filter parses, with a `UserWarning`."""
    data = path.read_bytes()
    assert b"(16,)" in data
    path.write_bytes(data.replace(b"(16,)", b"(16L,)", 1).replace(b" \n", b"\n", 1))


def flip_data_bit(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """One bit of the first byte of the entry's first float64 array flipped on disk, its checksum as stored."""
    record, data = np.load(path), bytearray(path.read_bytes())
    name = next(name for name in record.dtype.names if record.dtype[name].base == np.float64)
    data[len(data) - record.dtype.itemsize + record.dtype.fields[name][1]] ^= 1
    path.write_bytes(bytes(data))


# Tampers that any entry fails on: the earlier `.npz` format under the new name, a non-structured array
# holding every byte of the entry's arrays, a record without its key, a header numpy cannot parse, one only
# its Python 2 filter parses, a record without its checksum (as stored before there was one) and a
# flipped data bit.
FORMAT_TAMPERS = {
    "old-npz": save_npz,
    "plain-npy": lambda path, arrays: save_npy(path, np.array(b"".join(a.tobytes() for a in arrays.values()))),
    "missing-key": lambda path, arrays: save_entry(path, {k: v for k, v in arrays.items() if k != "key"}),
    "damaged-header": lambda path, arrays: path.write_bytes(path.read_bytes().replace(b"[", b"[[", 1)),
    "python2-header": python2_header,
    "missing-checksum": lambda path, arrays: save_entry(path, {k: v for k, v in arrays.items() if k != "crc32"}),
    "flipped-data-bit": flip_data_bit,
}


def load_csv(path: Path) -> list:
    with open(path) as fh:
        lakes, _ = parse_dataset(fh)
    return lakes


class TestPipeline:
    def test_three_lakes_full_bundle(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs())
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        result = run_pipeline(lakes, RunConfig(seed=1, **FAST), tmp_path / "out")
        assert len(result.reports) == 3 and not result.failures
        assert (tmp_path / "out" / "summary.json").exists()
        for report in result.reports:
            lake_dir = tmp_path / "out" / "lakes" / str(report.lake_id)
            for name in (
                "impute_report.json",
                "completed.csv",
                "reference_model.json",
                "metrics.json",
                "sample_curve.csv",
                "sample_curve.json",
                "ranking.json",
                "selection.csv",
                "selection.json",
                "grid.csv",
                "minimal_config.json",
            ):
                assert (lake_dir / name).exists(), name
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["lakes"] == [100, 101, 102]
        assert summary["config_hash"] == result.config_hash
        assert summary["joint"]["n_lakes"] == 3

    def test_full_cell_is_its_own_reference_so_no_lake_falls_back(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs())
        lakes = load_csv(csv_path)
        result = run_pipeline(lakes, RunConfig(seed=4, tolerance=1e-12, **FAST), tmp_path / "out")
        assert len(result.reports) == 3 and result.summary.fallback_count == 0
        for report in result.reports:
            grid = report.grid
            assert grid.nmae[(grid.n_pre, grid.p)] == grid.full_nmae and not report.minimal.fallback

    def test_reports_embed_config_hash(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(1))
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        result = run_pipeline(lakes, RunConfig(seed=2, **FAST), tmp_path / "out")
        lake_dir = tmp_path / "out" / "lakes" / "100"
        for name in ("metrics.json", "ranking.json", "minimal_config.json", "sample_curve.json"):
            payload = json.loads((lake_dir / name).read_text())
            assert payload["config_hash"] == result.config_hash

    def test_byte_identical_reruns(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs())
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        config = RunConfig(seed=7, **FAST)
        run_pipeline(lakes, config, tmp_path / "a", input_digest="d1")
        run_pipeline(lakes, config, tmp_path / "b", input_digest="d1")
        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file() and "cache" not in p.parts)
        files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file() and "cache" not in p.parts)
        assert [p.relative_to(tmp_path / "a") for p in files_a] == [
            p.relative_to(tmp_path / "b") for p in files_b
        ]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_partial_failure_skips_lake(self, tmp_path):
        configs = small_lake_configs(2)
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, configs)
        # A lake whose record is too short to split joins the two good ones.
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        runt = series_from_arrays(999, np.array([2.0, 2.1]), np.ones((2, 4)), lakes[0].feature_schema)
        result = run_pipeline(lakes + [runt], RunConfig(seed=3, **FAST), tmp_path / "out")
        assert sorted(r.lake_id for r in result.reports) == [100, 101]
        assert 999 in result.failures
        again = run_pipeline(lakes + [runt], RunConfig(seed=3, tolerance=0.1, **FAST), tmp_path / "out")
        assert again.failures == result.failures
        assert len(list((tmp_path / "out" / "cache").iterdir())) == 2

    def test_rerun_over_fewer_lakes_removes_the_other_lake_directories(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs())
        wanted = tmp_path / "wanted.json"
        wanted.write_text("[100, 101]")
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        flags = ["--input", str(csv_path), "--trees", "25", "--n-stride", "4"]
        assert main(["report", *flags, "--out-dir", str(out)]) == 0
        (out / "lakes" / "notes").mkdir()
        (out / "lakes" / "7").write_text("not a lake directory")
        assert main(["report", *flags, "--lakes", str(wanted), "--out-dir", str(out)]) == 0
        assert main(["report", *flags, "--lakes", str(wanted), "--out-dir", str(fresh)]) == 0
        assert json.loads((out / "summary.json").read_text())["lakes"] == [100, 101]
        assert sorted(p.name for p in (out / "lakes").iterdir()) == ["100", "101", "7", "notes"]
        kept = bundle(out)
        assert kept.pop("lakes/7") == b"not a lake directory"
        assert kept == bundle(fresh)

    def test_every_lake_failing_raises_config_error(self, tmp_path):
        runt = series_from_arrays(7, np.array([2.0, 2.1]), np.ones((2, 2)), ["a", "b"])
        with pytest.raises(ConfigError):
            run_pipeline([runt], RunConfig(seed=0, **FAST), tmp_path / "out")

    def test_lake_selection_and_unknown_id(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs())
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        result = run_pipeline(
            lakes, RunConfig(seed=1, lake_ids=(101,), **FAST), tmp_path / "out"
        )
        assert [r.lake_id for r in result.reports] == [101]
        with pytest.raises(ConfigError):
            run_pipeline(lakes, RunConfig(seed=1, lake_ids=(555,), **FAST), tmp_path / "o2")

    def test_global_ranking_mode(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(2))
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        result = run_pipeline(
            lakes, RunConfig(seed=2, use_global_ranking=True, **FAST), tmp_path / "out"
        )
        assert len(result.reports) == 2
        orders = {tuple(r.grid.feature_order) for r in result.reports}
        assert len(orders) == 1  # every lake's joint stage used the same ranking

    @pytest.mark.parametrize("use_global_ranking", [False, True], ids=["per-lake", "global"])
    def test_one_reference_nmae_in_every_file(self, tmp_path, use_global_ranking):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(3))
        config = RunConfig(seed=4, use_global_ranking=use_global_ranking, **FAST)
        result = run_pipeline(load_csv(csv_path), config, tmp_path / "out")
        assert len(result.reports) == 3
        for lake in result.reports:
            lake_dir = tmp_path / "out" / "lakes" / str(lake.lake_id)
            curve, selection, minimal = (
                json.loads((lake_dir / name).read_text())
                for name in ("sample_curve.json", "selection.json", "minimal_config.json")
            )
            assert curve["reference_nmae"] == selection["full_nmae"] == minimal["full_nmae"], lake.lake_id

    def test_cache_reuse_preserves_results(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(1))
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        config = RunConfig(seed=4, **FAST)
        out = tmp_path / "out"
        first = run_pipeline(lakes, config, out, input_digest="dd")
        summary_before = (out / "summary.json").read_bytes()
        again = run_pipeline(lakes, config, out, input_digest="dd")
        assert (out / "summary.json").read_bytes() == summary_before
        assert again.reports[0].minimal == first.reports[0].minimal

    def test_new_tolerance_reuses_cached_grids(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(2))
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        out = tmp_path / "out"
        first = run_pipeline(lakes, RunConfig(seed=4, tolerance=0.05, **FAST), out)
        cached = sorted((out / "cache").iterdir())
        assert len(cached) == 2

        def no_refit(*args, **kwargs):
            raise AssertionError("a re-thresholded run refit the feasibility grid")

        monkeypatch.setattr("limnoplan.report.feasibility_grid", no_refit)
        again = run_pipeline(lakes, RunConfig(seed=4, tolerance=0.10, **FAST), out)
        assert sorted((out / "cache").iterdir()) == cached
        for before, after in zip(first.reports, again.reports):
            assert after.grid.nmae == before.grid.nmae
            assert after.grid.tolerance == 0.10

    def test_cache_misses_for_other_data_with_same_lake_ids(self, tmp_path):
        old_csv, new_csv = tmp_path / "old.csv", tmp_path / "new.csv"
        synth_csv(old_csv, small_lake_configs(2))
        synth_csv(new_csv, [dataclasses.replace(c, seed=c.seed + 10) for c in small_lake_configs(2)])
        with open(old_csv) as fh:
            old_lakes, _ = parse_dataset(fh)
        with open(new_csv) as fh:
            new_lakes, _ = parse_dataset(fh)
        config = RunConfig(seed=4, **FAST)
        shared = tmp_path / "shared"
        run_pipeline(old_lakes, config, shared)
        run_pipeline(new_lakes, config, shared)
        run_pipeline(new_lakes, config, tmp_path / "fresh")
        for lake_id in (100, 101):
            grid = Path("lakes", str(lake_id), "grid.csv")
            assert (shared / grid).read_bytes() == (tmp_path / "fresh" / grid).read_bytes()

    def test_unreadable_cache_entry_is_a_miss(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(1))
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        config = RunConfig(seed=4, **FAST)
        out = tmp_path / "out"
        run_pipeline(lakes, config, out)
        summary_before = (out / "summary.json").read_bytes()
        (entry,) = (out / "cache").iterdir()
        stored = entry_arrays(entry)
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])
        run_pipeline(lakes, config, out)
        assert (out / "summary.json").read_bytes() == summary_before
        assert same_arrays(entry_arrays(entry), stored)
        assert list((out / "cache").iterdir()) == [entry]

    def test_cache_entry_under_another_version_is_a_miss(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(1))
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        config = RunConfig(seed=4, **FAST)
        out = tmp_path / "out"
        monkeypatch.setattr(report, "CACHE_VERSION", report.CACHE_VERSION - 1)
        run_pipeline(lakes, config, out)
        (old_entry,) = (out / "cache").iterdir()
        # A grid computed the old way, under the old version's key.
        arrays = entry_arrays(old_entry)
        arrays["grid"] = np.zeros_like(arrays["grid"])
        save_entry(old_entry, arrays)
        monkeypatch.undo()

        run_pipeline(lakes, config, out)
        run_pipeline(lakes, config, tmp_path / "fresh")
        assert list((out / "cache").iterdir()) == [old_entry]
        assert stored_key(old_entry) != arrays["key"].tobytes().decode()
        grid = Path("lakes", "100", "grid.csv")
        assert (out / grid).read_bytes() == (tmp_path / "fresh" / grid).read_bytes()

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda path, arrays: save_entry(path, {k: v for k, v in arrays.items() if k != "selection"}),
            lambda path, arrays: save_entry(path, {**arrays, "grid": arrays["grid"][:-1]}),
            lambda path, arrays: save_entry(path, {**arrays, "scores": arrays["scores"].astype(np.float32)}),
            lambda path, arrays: save_npy(path, arrays["values"]),
            lambda path, arrays: path.write_text(json.dumps({"nmae": [[1, 2]], "excluded": []})),
            lambda path, arrays: path.write_text("{}"),
            lambda path, arrays: save_entry(path, {**arrays, "grid_csv": arrays["grid_csv"][:-100]}),
            lambda path, arrays: save_entry(path, {k: v for k, v in arrays.items() if k != "completed_csv"}),
            lambda path, arrays: save_entry(path, {**arrays, "grid_csv": arrays["grid_csv"].astype(np.int16)}),
            *FORMAT_TAMPERS.values(),
        ],
        ids=[
            "missing-array", "wrong-shape", "wrong-dtype", "npy-file", "old-json-grid", "empty-json",
            "truncated-grid-text", "missing-completed-text", "grid-text-not-uint8", *FORMAT_TAMPERS,
        ],
    )
    def test_unusable_cache_entry_is_a_miss_and_rewritten(self, tmp_path, tamper):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(1))
        lakes = load_csv(csv_path)
        config = RunConfig(seed=4, **FAST)
        out = tmp_path / "out"
        run_pipeline(lakes, config, out)
        cold = bundle(out)
        (entry,) = (out / "cache").iterdir()
        stored = entry_arrays(entry)
        tamper(entry, stored)
        # A grid file of the earlier JSON cache format is ignored.
        stale = out / "cache" / "100_grid_0123456789abcdef.json"
        stale.write_text(json.dumps({"nmae": [[1, 2]]}))

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # recorded, not raised: a cold run prints no warning either
            run_pipeline(lakes, config, out)
        assert caught == []
        assert bundle(out) == cold
        assert same_arrays(entry_arrays(entry), stored)
        assert sorted((out / "cache").iterdir()) == [entry, stale]

    def test_cache_entry_does_not_depend_on_the_tolerance(self, tmp_path):
        synth_csv(tmp_path / "lakes.csv", small_lake_configs(1))
        lakes = load_csv(tmp_path / "lakes.csv")
        run_pipeline(lakes, RunConfig(seed=4, tolerance=0.05, **FAST), tmp_path / "a")
        run_pipeline(lakes, RunConfig(seed=4, tolerance=0.5, **FAST), tmp_path / "b")
        (a,), (b,) = (list((tmp_path / out / "cache").iterdir()) for out in ("a", "b"))
        assert a.name == b.name and same_arrays(entry_arrays(a), entry_arrays(b))
        # The stored grid text holds a placeholder where each flag goes; the bundle's has 0 or 1.
        text = entry_arrays(a)["grid_csv"].tobytes().decode()
        grid_csv = (tmp_path / "a" / "lakes" / "100" / "grid.csv").read_text()
        assert text.splitlines()[0] == grid_csv.splitlines()[0] == "n,k,nmae,feasible"
        assert {line[-1] for line in text.splitlines()[1:]} == {"?"}
        assert [line[:-1] for line in text.splitlines()] == [line[:-1] for line in grid_csv.splitlines()]

    @pytest.mark.parametrize("use_global_ranking", [False, True], ids=["per-lake", "global"])
    def test_rethreshold_fits_nothing_and_matches_a_cold_run(self, tmp_path, monkeypatch, use_global_ranking):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(3))
        lakes = load_csv(csv_path)
        config = RunConfig(seed=4, use_global_ranking=use_global_ranking, **FAST)
        out = tmp_path / "out"
        run_pipeline(lakes, config, out)

        def refit(*args, **kwargs):
            raise AssertionError("a re-thresholded run imputed or fitted")

        for target in (
            "limnoplan.report.impute_series",
            "limnoplan.report.rank_features",
            "limnoplan.evaluation.prefix_nmae",
            "limnoplan.selection.prefix_nmae",
            "limnoplan.joint.prefix_nmae",
        ):
            monkeypatch.setattr(target, refit)
        retol = dataclasses.replace(config, tolerance=0.10)
        again = run_pipeline(lakes, retol, out)
        monkeypatch.undo()
        cold = run_pipeline(lakes, retol, tmp_path / "cold")
        assert bundle(out) == bundle(tmp_path / "cold")
        assert [r.minimal for r in again.reports] == [r.minimal for r in cold.reports]

    def test_tampered_input_cell_misses_the_cache(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(2))
        config = RunConfig(seed=4, **FAST)
        shared = tmp_path / "shared"
        run_pipeline(load_csv(csv_path), config, shared)
        keys = {lake_id: stored_key(shared / "cache" / f"{lake_id}.npy") for lake_id in (100, 101)}
        lines = csv_path.read_text().splitlines(keepends=True)
        header = lines[0].rstrip("\n").split(",")
        row = lines[-3].rstrip("\n").split(",")  # a visit of lake 101
        column = next(j for j, name in enumerate(header) if name.startswith("x") and row[j])
        row[column] = repr(float(row[column]) + 0.5)
        lines[-3] = ",".join(row) + "\n"
        csv_path.write_text("".join(lines))

        run_pipeline(load_csv(csv_path), config, shared)
        run_pipeline(load_csv(csv_path), config, tmp_path / "fresh")
        assert bundle(shared) == bundle(tmp_path / "fresh")
        assert sorted(path.name for path in (shared / "cache").iterdir()) == ["100.npy", "101.npy"]
        assert stored_key(shared / "cache" / "101.npy") != keys[101]
        assert stored_key(shared / "cache" / "100.npy") == keys[100]

    @pytest.mark.parametrize(
        "change", [dict(seed=5), dict(n_trees=30), dict(penalty=0.5), dict(test_years=4)],
        ids=["seed", "trees", "lambda", "test-years"],
    )
    def test_changed_setting_misses_the_cache(self, tmp_path, change):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(1))
        lakes = load_csv(csv_path)
        config = RunConfig(seed=4, **FAST)
        shared = tmp_path / "shared"
        run_pipeline(lakes, config, shared)
        (entry,) = (shared / "cache").iterdir()
        key = stored_key(entry)
        changed = dataclasses.replace(config, **change)
        run_pipeline(lakes, changed, shared)
        run_pipeline(lakes, changed, tmp_path / "fresh")
        assert bundle(shared) == bundle(tmp_path / "fresh")
        assert list((shared / "cache").iterdir()) == [entry] and stored_key(entry) != key

    def test_global_ranking_over_other_lakes_recomputes_the_grid(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        configs = small_lake_configs(3)
        configs[2] = dataclasses.replace(configs[2], true_weights=(0.0, 0.3, -0.5, 1.5))
        synth_csv(csv_path, configs)
        lakes = load_csv(csv_path)
        config = RunConfig(seed=4, use_global_ranking=True, **FAST)
        shared = tmp_path / "shared"
        every = run_pipeline(lakes, config, shared)
        entries = sorted((shared / "cache").iterdir())
        subset = dataclasses.replace(config, lake_ids=(100, 101))
        some = run_pipeline(lakes, subset, shared)
        run_pipeline(lakes, subset, tmp_path / "fresh")
        assert some.reports[0].grid.feature_order != every.reports[0].grid.feature_order
        fresh = bundle(tmp_path / "fresh")  # lakes/102 stays behind in `shared`
        assert {name: data for name, data in bundle(shared).items() if name in fresh} == fresh
        # The subset's entries now hold their grid over the subset's ranking.
        assert sorted((shared / "cache").iterdir()) == entries
        schema = some.reports[0].lake.completed.feature_schema
        order = [schema.index(f) for f in some.reports[0].grid.feature_order]
        assert entry_arrays(entries[0])["grid_order"].tolist() == order


class TestTrainTestTable:
    def test_perfect_fit_flagged_with_near_zero_rows(self, tmp_path):
        config = SynthConfig(
            n_samples=100,
            n_features=2,
            true_weights=(1.0, -0.5),
            noise_sd=0.0,
            seasonal_amplitude=0.0,
            sampling_interval_days=30,
            seed=8,
        )
        series, _ = generate_lake(config)
        result = run_pipeline([series], RunConfig(seed=1, penalty=1e-8, **FAST), tmp_path / "out")
        row = result.reports[0].table_row
        assert row.train_mae < 1e-5 and row.test_mae < 1e-5
        assert row.train_nmae < 1e-5 and row.test_nmae < 1e-5
        assert row.test_le_train == (row.test_nmae <= row.train_nmae)

    def test_overfit_case_not_flagged(self, rng, tmp_path):
        # Training pool barely larger than the feature count: in-sample error
        # collapses while the held-out block suffers.
        p = 3
        X = rng.normal(size=(34, p))
        sdd = 4 + X @ np.array([1.0, -0.5, 0.3]) + rng.normal(0, 0.5, 34)
        # 150-day cadence with a 12-year window leaves exactly p+1 pre rows.
        series = series_from_arrays(5, sdd, X, [f"f{j}" for j in range(p)], step_days=150)
        result = run_pipeline(
            [series], RunConfig(seed=1, test_years=12, penalty=1e-6, **FAST), tmp_path / "out"
        )
        row = result.reports[0].table_row
        assert result.reports[0].curve.grid == [p + 1]
        assert row.test_nmae > row.train_nmae
        assert not row.test_le_train

    def test_flag_marks_rows_where_test_not_worse(self):
        from limnoplan.report import TableRow

        rows = [
            TableRow(1, "Easygoing Pond", 0.5, 0.4, 0.10, 0.08, True),
            TableRow(2, "Harder Lake", 0.5, 0.9, 0.10, 0.18, False),
        ]
        lines = train_test_table(rows).splitlines()
        assert lines[2].rstrip().endswith("*")
        assert not lines[3].rstrip().endswith("*")

    def test_formatted_table_columns(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(2))
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        result = run_pipeline(lakes, RunConfig(seed=1, **FAST), tmp_path / "out")
        text = train_test_table([r.table_row for r in result.reports])
        head = text.splitlines()[0]
        for col in ("lake", "train_mae", "test_mae", "train_nmae", "test_nmae"):
            assert col in head
        with open(tmp_path / "out" / "train_test.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["lake", "train_mae", "test_mae", "train_nmae", "test_nmae", "test_le_train"]


def old_rule_csv(header: list, rows) -> bytes:
    """The bytes the bundle writers first produced: `csv.writer` over the cells, each float as `repr(float(v))`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(c)) if isinstance(c, (float, np.floating)) else c for c in row] for row in rows)
    return buf.getvalue().encode()


def old_rule_grid(grid, *prefix) -> list:
    """`[*prefix, n, k, nmae, feasible]` rows sorted by (n, k)."""
    return [[*prefix, n, k, value, int(value <= grid.tau)] for (n, k), value in sorted(grid.nmae.items())]


def old_rule_lake_csvs(completed, curve, selection, grid) -> dict[str, bytes]:
    return {
        "completed.csv": old_rule_csv(completed.feature_schema, completed.values),
        "sample_curve.csv": old_rule_csv(["n", "nmae"], [[n, curve.nmae_at[n]] for n in curve.grid]),
        "selection.csv": old_rule_csv(["k", "nmae"], sorted(selection.nmae_by_k.items())),
        "grid.csv": old_rule_csv(["n", "k", "nmae", "feasible"], old_rule_grid(grid)),
    }


# Floats whose repr is in exponent notation, is subnormal, or needs all 17 significant digits.
EDGE_FLOATS = [1e-300, 5e-324, 1e16, 123456789012345.6, 1e-05, 0.0001, 1e22, -0.0, 0.1 + 0.2, 1 / 3]


class TestWriterBytes:
    """Every bundle CSV and the `joint --emit-grid` file, byte for byte against the old rule."""

    def test_bundle_and_grid_dump_match_the_old_rule(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs())
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        out = tmp_path / "out"
        for tolerance in (0.05, 0.1):  # a cold run, then a re-threshold from the cache
            result = run_pipeline(lakes, RunConfig(n_trees=25, grid_stride=4, tolerance=tolerance), out)
            for lake in result.reports:
                expected = old_rule_lake_csvs(lake.lake.completed, lake.curve, lake.selection, lake.grid)
                for name, content in expected.items():
                    assert (out / "lakes" / str(lake.lake_id) / name).read_bytes() == content, name
            rows = [dataclasses.astuple(lake.table_row)[1:] for lake in result.reports]
            header = ["lake", "train_mae", "test_mae", "train_nmae", "test_nmae", "test_le_train"]
            assert (out / "train_test.csv").read_bytes() == old_rule_csv(header, [[*r[:-1], int(r[-1])] for r in rows])

        grid_csv = tmp_path / "grid.csv"
        flags = ["--input", str(csv_path), "--trees", "25", "--n-stride", "4", "--tolerance", "0.1"]
        assert main(["joint", *flags, "--out", str(tmp_path / "joint.json"), "--emit-grid", str(grid_csv)]) == 0
        rows = [row for lake in result.reports for row in old_rule_grid(lake.grid, lake.lake_id)]
        assert grid_csv.read_bytes() == old_rule_csv(["lake_id", "n", "k", "nmae", "feasible"], rows)

    def test_edge_floats_match_the_old_rule(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(1))
        with open(csv_path) as fh:
            lakes, _ = parse_dataset(fh)
        lake = run_pipeline(lakes, RunConfig(**FAST), tmp_path / "out").reports[0]
        values = lake.lake.completed.values.copy()
        values.flat[: len(EDGE_FLOATS)] = EDGE_FLOATS
        completed = dataclasses.replace(lake.lake.completed, values=values)

        def with_edges(cells: dict) -> dict:
            """`cells` with its first values, in key order, replaced by the edge floats."""
            return {**cells, **dict(zip(sorted(cells), EDGE_FLOATS))}

        curve = dataclasses.replace(lake.curve, nmae_at=with_edges(lake.curve.nmae_at))
        selection = dataclasses.replace(lake.selection, nmae_by_k=with_edges(lake.selection.nmae_by_k))
        grid = dataclasses.replace(lake.grid, nmae=with_edges(lake.grid.nmae))

        report.write_csv(tmp_path / "completed.csv", [], [report.completed_text(completed)])
        report.write_nmae_table(tmp_path / "sample_curve.csv", curve)
        report.write_nmae_table(tmp_path / "selection.csv", selection)
        report.write_csv(tmp_path / "grid.csv", [["n", "k", "nmae", "feasible"]], report.grid_rows(grid))
        for name, content in old_rule_lake_csvs(completed, curve, selection, grid).items():
            assert (tmp_path / name).read_bytes() == content, name
        grid_bytes = (tmp_path / "grid.csv").read_bytes()
        assert b",5e-324,1\n" in grid_bytes and b",1e+16,0\n" in grid_bytes

    @pytest.mark.parametrize("tolerance", [0.25, 0.1, 3.0])
    def test_flags_set_on_stored_grid_text_match_grid_rows(self, tolerance):
        # Full nMAE 1.0, so at tolerance 0.25 tau is exactly 1.25: cells at, just above and just below it.
        values = np.full((4, 3), np.nan)  # excluded cells (n < k+1) are NaN in a cache entry
        values[0, 0], values[1, :2], values[2:, :] = 1.25, [np.nextafter(1.25, 2), np.nextafter(1.25, 0)], 0.5
        values[2, 1], values[3, :] = 1.25, [3.0, 1.25, 1.0]
        grid = FeasibilityGrid.from_nmae(7, [2, 3, 5, 8], ["a", "b", "c"], values, tolerance)
        header = [["n", "k", "nmae", "feasible"]]
        stored = np.frombuffer(report.csv_text(header, report.grid_rows(grid, "?")).encode(), np.uint8)
        expected = report.csv_text(header, report.grid_rows(grid))
        assert report.grid_text({"grid": values, "grid_csv": stored}, grid) == expected
        assert stored.tobytes().decode() != expected and len(expected.splitlines()) == 1 + len(grid.nmae) == 10
        if tolerance == 0.25:
            assert ",1.25,1\n" in expected and ",1.2500000000000002,0\n" in expected

    def test_quoted_covariate_names_survive_the_cached_path(self, tmp_path, monkeypatch):
        names = ["x,1", 'x"2\ny']
        config = dataclasses.replace(small_lake_configs(1)[0], n_features=2, true_weights=(1.0, -0.5))
        series, _ = generate_lake(config)
        csv_path = tmp_path / "lakes.csv"
        with open(csv_path, "w", newline="") as fh:
            write_series_csv(dataclasses.replace(series, feature_schema=names), fh)
        out, completed = tmp_path / "out", Path("lakes", "100", "completed.csv")
        flags = ["--input", str(csv_path), "--trees", "10", "--n-stride", "4"]
        assert main(["report", *flags, "--out-dir", str(out)]) == 0
        cold = (out / completed).read_bytes()

        def refit(*args, **kwargs):
            raise AssertionError("the re-threshold did not read the cache")

        monkeypatch.setattr("limnoplan.report.impute_series", refit)
        assert main(["report", *flags, "--out-dir", str(out), "--tolerance", "0.10"]) == 0
        assert (out / completed).read_bytes() == cold
        monkeypatch.undo()
        assert main(["impute", "--input", str(csv_path), "--lake", "100", "--out", str(tmp_path / "imputed.csv")]) == 0
        assert (tmp_path / "imputed.csv").read_bytes() == cold

        header = io.StringIO()
        csv.writer(header, lineterminator="\n").writerow(names)
        assert cold.decode().startswith(header.getvalue()) and header.getvalue() == '"x,1","x""2\ny"\n'
        rows = list(csv.reader(io.StringIO(cold.decode())))
        assert rows[0] == names and {len(row) for row in rows} == {2}


class TestCli:
    def _write_synth_inputs(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(2))
        return csv_path

    def test_synth_and_ingest_round_trip(self, tmp_path, capsys):
        config_path = tmp_path / "synth.json"
        config_path.write_text(json.dumps({"n_samples": 40, "n_features": 3, "seed": 2}))
        out_csv = tmp_path / "lake.csv"
        truth_path = tmp_path / "truth.json"
        assert main(["synth", "--config", str(config_path), "--out", str(out_csv), "--truth", str(truth_path)]) == 0
        assert main(["ingest", "--input", str(out_csv)]) == 0
        out = capsys.readouterr().out
        assert "parsed 1 lake(s)" in out
        truth = json.loads(truth_path.read_text())
        assert len(truth["sdd"]) == 40

    def test_lakes_rank_command(self, tmp_path):
        csv_path = self._write_synth_inputs(tmp_path)
        out = tmp_path / "rank.json"
        assert main(["lakes", "rank", "--input", str(csv_path), "--top", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["lakes"]) == 2
        assert payload["missingness_after_exclusions"] is True

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_lakes_rank_top_below_one_is_config_error(self, tmp_path, capsys, top):
        csv_path = self._write_synth_inputs(tmp_path)
        out = tmp_path / "rank.json"
        assert main(["lakes", "rank", "--input", str(csv_path), "--top", top, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --top")
        assert not out.exists()

    def test_lakes_rank_checks_top_before_reading_the_input(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        out = tmp_path / "rank.json"
        assert main(["lakes", "rank", "--input", str(missing), "--top", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: --top")

    def test_lakes_rank_without_top_keeps_every_lake_of_a_small_input(self, tmp_path, capsys):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(3))
        out = tmp_path / "rank.json"
        assert main(["lakes", "rank", "--input", str(csv_path), "--out", str(out)]) == 0
        assert sorted(json.loads(out.read_text())["lakes"]) == [100, 101, 102]
        assert capsys.readouterr() == ("ranked 3 lakes; kept top 3\n", "")

    @staticmethod
    def _disk_on_bottom_everywhere(path: Path, lake_ids: set[str]) -> None:
        """Mark every visit of `lake_ids` as disk-on-bottom, so exclusions leave those lakes empty."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        column = rows[0].index("seccbot")
        for row in rows[1:]:
            if row[0] in lake_ids:
                row[column] = "Yes"
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    def test_lakes_rank_skips_a_lake_it_cannot_rank(self, tmp_path, capsys):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(3))
        self._disk_on_bottom_everywhere(csv_path, {"102"})
        out, top2, top3 = tmp_path / "rank.json", tmp_path / "top2.json", tmp_path / "top3.json"
        assert main(["lakes", "rank", "--input", str(csv_path), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("ranked 2 lakes; kept top 2\n", "lake 102 skipped: lake 102: empty series\n")
        payload = json.loads(out.read_text())
        assert sorted(payload["lakes"]) == [100, 101]
        assert [profile["lake_id"] for profile in payload["profiles"]] == payload["lakes"]
        assert main(["lakes", "rank", "--input", str(csv_path), "--top", "2", "--out", str(top2)]) == 1
        assert top2.read_bytes() == out.read_bytes()
        capsys.readouterr()
        # --top is checked against the lakes that can be ranked, not the lakes in the input.
        assert main(["lakes", "rank", "--input", str(csv_path), "--top", "3", "--out", str(top3)]) == 2
        assert capsys.readouterr().err == "error: --top 3 exceeds the 2 lakes in the input that can be ranked\n"
        assert not top3.exists()

    def test_lakes_rank_with_no_rankable_lake_is_one_error_line(self, tmp_path, capsys):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(2))
        self._disk_on_bottom_everywhere(csv_path, {"100", "101"})
        out = tmp_path / "rank.json"
        assert main(["lakes", "rank", "--input", str(csv_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: no lake can be ranked: 100: lake 100: empty series; 101: lake 101: empty series\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "joint"])
    def test_every_lake_failed_names_each_lake(self, tmp_path, capsys, command):
        csv_path = self._write_synth_inputs(tmp_path)
        out = ["--out-dir", str(tmp_path / "bundle")] if command == "report" else ["--out", str(tmp_path / "j.json")]
        # Both records span less than 20 years, so every lake fails its split.
        assert main([command, "--input", str(csv_path), "--trees", "5", "--test-years", "20", *out]) == 2
        err = capsys.readouterr().err
        reason = "record does not span more than the 20-year test window"
        assert err.startswith("error: every lake failed: ")
        assert f"100: lake 100: {reason}" in err and f"101: lake 101: {reason}" in err

    @pytest.mark.parametrize("command", ["report", "joint", "feature-select"])
    @pytest.mark.parametrize("keep_chla", [True, False])
    def test_lake_without_covariates_is_an_error_line(self, tmp_path, capsys, command, keep_chla):
        # The first covariate renamed `chla` is dropped as a clarity proxy,
        # so either input leaves no covariate.
        lines = self._write_synth_inputs(tmp_path).read_text().splitlines()
        rows = [line.split(",")[: 6 if keep_chla else 5] for line in lines]
        rows[0][5:] = ["chla"] if keep_chla else []
        csv_path = tmp_path / "no_covariates.csv"
        csv_path.write_text("".join(",".join(row) + "\n" for row in rows))
        out = {
            "report": ["--out-dir", str(tmp_path / "bundle")],
            "joint": ["--out", str(tmp_path / "j.json")],
            "feature-select": ["--lake", "100", "--out", str(tmp_path / "s.csv")],
        }[command]
        code, prefix = (1, "error: ") if command == "feature-select" else (2, "error: every lake failed: ")
        assert main([command, "--input", str(csv_path), "--trees", "5", *out]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and "feature column" in err and "Traceback" not in err

    def test_impute_command(self, tmp_path):
        csv_path = self._write_synth_inputs(tmp_path)
        out = tmp_path / "completed.csv"
        code = main(["impute", "--input", str(csv_path), "--lake", "100", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x01", "x02", "x03", "x04"]
        assert all(cell not in ("", "nan") for row in rows[1:] for cell in row)
        report = json.loads((tmp_path / "completed.json").read_text())
        assert report["lake_id"] == 100 and report["sweeps"] >= 1

    def test_sample_curve_command(self, tmp_path):
        csv_path = self._write_synth_inputs(tmp_path)
        out = tmp_path / "curve.csv"
        code = main(
            ["sample-curve", "--input", str(csv_path), "--lake", "100", "--n-stride", "4", "--out", str(out)]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "curve.json").read_text())
        assert sidecar["n_star"] is not None and sidecar["reference_nmae"] > 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "nmae"] and len(rows) > 2

    def test_feature_commands(self, tmp_path):
        csv_path = self._write_synth_inputs(tmp_path)
        rank_out = tmp_path / "ranking.json"
        assert main(
            ["feature-rank", "--input", str(csv_path), "--lake", "100", "--trees", "20", "--out", str(rank_out)]
        ) == 0
        ranking = json.loads(rank_out.read_text())
        assert set(ranking["scores"]) == {"x01", "x02", "x03", "x04"}

        select_out = tmp_path / "selection.csv"
        assert main(
            ["feature-select", "--input", str(csv_path), "--lake", "100", "--trees", "20", "--out", str(select_out)]
        ) == 0
        sidecar = json.loads((tmp_path / "selection.json").read_text())
        assert 1 <= sidecar["k_star"] <= 4

    def test_joint_command_with_grid_dump(self, tmp_path):
        csv_path = self._write_synth_inputs(tmp_path)
        out = tmp_path / "joint.json"
        grid_csv = tmp_path / "grid.csv"
        code = main(
            [
                "joint",
                "--input", str(csv_path),
                "--trees", "20",
                "--n-stride", "6",
                "--out", str(out),
                "--emit-grid", str(grid_csv),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["minimal_configs"]) == 2
        assert payload["summary"]["n_lakes"] == 2
        with open(grid_csv) as fh:
            header = next(csv.reader(fh))
        assert header == ["lake_id", "n", "k", "nmae", "feasible"]

    def test_report_command(self, tmp_path):
        csv_path = self._write_synth_inputs(tmp_path)
        out_dir = tmp_path / "bundle"
        code = main(
            [
                "report",
                "--input", str(csv_path),
                "--trees", "20",
                "--n-stride", "4",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        assert (out_dir / "summary.json").exists()

    def test_report_partial_failure_exit_code(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(2))
        # Append a lake whose record cannot span the test window.
        with open(csv_path, "a") as fh:
            fh.write("999,Runt Pond,2020-01-01,No,2.0,1,1,1,1\n")
            fh.write("999,Runt Pond,2020-06-01,No,2.1,1,1,1,1\n")
        code = main(
            [
                "report",
                "--input", str(csv_path),
                "--trees", "15",
                "--n-stride", "6",
                "--out-dir", str(tmp_path / "bundle"),
            ]
        )
        assert code == 1
        summary = json.loads((tmp_path / "bundle" / "summary.json").read_text())
        assert "999" in summary["failures"]

    def test_non_finite_target_fails_only_its_lake(self, tmp_path, monkeypatch):
        # Ingest rejects non-finite cells; a non-finite target reaching
        # evaluation by another route must still fail only its own lake.
        # (A NaN target is a gap, so the injected value is infinite.)
        csv_path = self._write_synth_inputs(tmp_path)
        parse = dataset.parse_dataset

        def parse_with_inf_target(*args, **kwargs):
            lakes, errors = parse(*args, **kwargs)
            lakes[1].sdd[-1] = np.inf
            return lakes, errors

        monkeypatch.setattr(dataset, "parse_dataset", parse_with_inf_target)
        out_dir = tmp_path / "bundle"
        code = main(
            ["report", "--input", str(csv_path), "--trees", "15", "--n-stride", "6", "--out-dir", str(out_dir)]
        )
        assert code == 1
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["lakes"] == [100]
        assert "nMAE is not finite" in summary["failures"]["101"]

    def test_single_lake_commands_match_report_bundle(self, tmp_path):
        csv_path = self._write_synth_inputs(tmp_path)
        common = ["--input", str(csv_path), "--seed", "3"]
        bundle = tmp_path / "bundle"
        assert main(["report", *common, "--trees", "20", "--n-stride", "4", "--out-dir", str(bundle)]) == 0
        lake_dir = bundle / "lakes" / "101"

        def same_json(path, bundle_name):
            ours = json.loads(path.read_text())
            theirs = json.loads((lake_dir / bundle_name).read_text())
            assert ours.pop("lake_id") == 101 and theirs.pop("config_hash")
            assert ours == theirs, bundle_name

        one = [*common, "--lake", "101"]
        assert main(["impute", *one, "--out", str(tmp_path / "completed.csv")]) == 0
        assert (tmp_path / "completed.csv").read_bytes() == (lake_dir / "completed.csv").read_bytes()
        same_json(tmp_path / "completed.json", "impute_report.json")

        assert main(["sample-curve", *one, "--n-stride", "4", "--out", str(tmp_path / "curve.csv")]) == 0
        assert (tmp_path / "curve.csv").read_bytes() == (lake_dir / "sample_curve.csv").read_bytes()
        same_json(tmp_path / "curve.json", "sample_curve.json")

        assert main(["feature-rank", *one, "--trees", "20", "--out", str(tmp_path / "ranking.json")]) == 0
        same_json(tmp_path / "ranking.json", "ranking.json")

        select_out = tmp_path / "selection.csv"
        assert main(["feature-select", *one, "--trees", "20", "--out", str(select_out)]) == 0
        assert select_out.read_bytes() == (lake_dir / "selection.csv").read_bytes()
        same_json(tmp_path / "selection.json", "selection.json")

    def test_joint_global_ranking_matches_report(self, tmp_path):
        csv_path = tmp_path / "lakes.csv"
        synth_csv(csv_path, small_lake_configs(3))
        common = ["--input", str(csv_path), "--seed", "5", "--trees", "20", "--n-stride", "4", "--global-ranking"]
        joint_out = tmp_path / "joint.json"
        assert main(["joint", *common, "--out", str(joint_out)]) == 0
        assert main(["report", *common, "--out-dir", str(tmp_path / "bundle")]) == 0
        joint = json.loads(joint_out.read_text())
        summary = json.loads((tmp_path / "bundle" / "summary.json").read_text())
        assert joint["minimal_configs"] == summary["minimal_configs"]
        assert joint["summary"] == summary["joint"]

    def test_row_errors_go_to_stderr_and_leave_the_bundle_alone(self, tmp_path, capsys):
        clean = self._write_synth_inputs(tmp_path)
        lines = clean.read_text().splitlines(keepends=True)
        header = lines[0].rstrip("\n").split(",")
        bad = lines[10].rstrip("\n").split(",")
        bad[header.index("zS_m")] = "nan"
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("".join([*lines[:10], ",".join(bad) + "\n", *lines[10:]]))  # file line 11

        flags = ["--trees", "15", "--n-stride", "6"]
        assert main(["report", "--input", str(clean), *flags, "--out-dir", str(tmp_path / "clean")]) == 0
        assert "line " not in capsys.readouterr().err
        assert main(["report", "--input", str(dirty), *flags, "--out-dir", str(tmp_path / "dirty")]) == 0
        assert capsys.readouterr().err.count("line 11:") == 1

        def without_hash(path):
            if path.suffix != ".json":
                return path.read_bytes()
            payload = json.loads(path.read_text())
            payload.pop("config_hash", None)  # hashes the input file's bytes
            return payload

        def files(out_dir):  # but the input's cache entry, whose key holds the input's digest
            return sorted(p.relative_to(out_dir) for p in out_dir.rglob("*") if not p.match("cache/input.npy"))

        clean_files, dirty_files = files(tmp_path / "clean"), files(tmp_path / "dirty")
        assert clean_files == dirty_files
        for rel in clean_files:
            if (tmp_path / "clean" / rel).is_file():
                assert without_hash(tmp_path / "clean" / rel) == without_hash(tmp_path / "dirty" / rel), rel

        assert main(["ingest", "--input", str(dirty)]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("line 11:") == 1
        assert "1 malformed row(s) skipped" in captured.out

    @pytest.mark.parametrize("command", ["report", "joint"])
    @pytest.mark.parametrize(
        "content",
        [None, "[101, ", json.dumps({"ids": [101]}), json.dumps([101, "x"]), json.dumps({"lakes": [1.5]})],
        ids=["missing", "truncated", "no-lakes-key", "string-id", "float-id"],
    )
    def test_bad_lakes_file_is_config_error(self, tmp_path, capsys, command, content):
        csv_path = self._write_synth_inputs(tmp_path)
        wanted = tmp_path / "wanted.json"
        if content is not None:
            wanted.write_text(content)
        out = ["--out-dir", str(tmp_path / "bundle")] if command == "report" else ["--out", str(tmp_path / "j.json")]
        assert main([command, "--input", str(csv_path), "--lakes", str(wanted), *out]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "[40, 3]",
            json.dumps({"bogus": 1}),
            json.dumps({"n_samples": 2}),
            json.dumps({"missing_mechanism": "weird"}),
            json.dumps({"n_samples": 50, "start_date": "20010601"}),
            # NaN goes out as JSON's NaN literal, which json.load reads back.
            json.dumps({"n_samples": 20, "missing_fraction": math.nan}),
            json.dumps({"n_features": 3, "missing_fraction": [0.2, math.nan, 0.1], "missing_mechanism": "mar"}),
        ],
        ids=[
            "missing", "list", "unknown-key", "too-few-samples", "unknown-mechanism", "compact-date",
            "nan-fraction", "nan-in-mar-fractions",
        ],
    )
    def test_bad_synth_config_is_config_error(self, tmp_path, capsys, content):
        config_path = tmp_path / "synth.json"
        if content is not None:
            config_path.write_text(content)
        out_csv = tmp_path / "lake.csv"
        assert main(["synth", "--config", str(config_path), "--out", str(out_csv)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", [["ingest"], ["report", "--out-dir", "bundle"]])
    def test_empty_input_file_is_config_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("empty.csv").write_bytes(b"")
        assert main([*command, "--input", "empty.csv"]) == 2
        assert capsys.readouterr().err == "error: input has no header row\n"

    @pytest.mark.parametrize("days", [0, -7])
    def test_synth_sampling_interval_below_one_day_is_config_error(self, tmp_path, capsys, days):
        config_path = tmp_path / "synth.json"
        config_path.write_text(json.dumps({"n_samples": 20, "sampling_interval_days": days}))
        out_csv = tmp_path / "lake.csv"
        assert main(["synth", "--config", str(config_path), "--out", str(out_csv)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: synth config {config_path}: sampling_interval_days must be >= 1\n"
        assert not out_csv.exists()

    def test_report_small_n_min_keeps_small_cells_and_curve_fits_every_feature(self, tmp_path):
        csv_path = self._write_synth_inputs(tmp_path)
        bundle = tmp_path / "bundle"
        small = ["--input", str(csv_path), "--n-min", "2", "--n-stride", "5"]
        assert main(["report", *small, "--trees", "15", "--out-dir", str(bundle)]) == 0
        p = 4
        with open(bundle / "lakes" / "100" / "grid.csv") as fh:
            grid_n = {int(row["n"]) for row in csv.DictReader(fh)}
        assert min(grid_n) == 2
        with open(bundle / "lakes" / "100" / "sample_curve.csv") as fh:
            curve_n = [int(row["n"]) for row in csv.DictReader(fh)]
        assert curve_n == sorted(n for n in grid_n if n >= p + 1)

        curve = tmp_path / "curve.csv"
        assert main(["sample-curve", *small, "--lake", "100", "--out", str(curve)]) == 0
        assert curve.read_bytes() == (bundle / "lakes" / "100" / "sample_curve.csv").read_bytes()

    @pytest.mark.parametrize(
        "flag, field, commands",
        [
            ("--n-stride", "grid_stride", ["report", "joint", "sample-curve", "feature-select"]),
            ("--trees", "n_trees", ["report", "joint", "feature-rank", "feature-select"]),
        ],
    )
    def test_zero_stride_or_trees_is_config_error_before_imputing(
        self, tmp_path, capsys, monkeypatch, flag, field, commands
    ):
        csv_path = self._write_synth_inputs(tmp_path)

        def no_impute(*args, **kwargs):
            raise AssertionError("imputed a lake under an invalid configuration")

        monkeypatch.setattr(report, "impute_series", no_impute)
        outputs = {"report": ["--out-dir", str(tmp_path / "bundle")]}
        for command in commands:
            lake = [] if command in ("report", "joint") else ["--lake", "100"]
            out = outputs.get(command, ["--out", str(tmp_path / f"{command}.out")])
            assert main([command, "--input", str(csv_path), *lake, flag, "0", *out]) == 2, command
            assert capsys.readouterr().err.startswith(f"error: {field} must be >= 1"), command
        assert not any(tmp_path.glob("*.out")) and not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--tolerance", value) for value in ("0", "-0.1", "nan", "inf")]
        + [("--lambda", value) for value in ("-1", "nan", "inf")],
    )
    def test_bad_tolerance_or_penalty_is_one_error_line_before_imputing(
        self, tmp_path, capsys, monkeypatch, flag, value
    ):
        message = {
            "--tolerance": "tolerance must be finite and positive",
            "--lambda": "penalty must be finite and nonnegative",
        }
        csv_path = self._write_synth_inputs(tmp_path)

        def no_impute(*args, **kwargs):
            raise AssertionError("imputed a lake under an invalid configuration")

        monkeypatch.setattr(report, "impute_series", no_impute)
        for command in ("report", "joint", "sample-curve", "feature-select"):
            lake = [] if command in ("report", "joint") else ["--lake", "100"]
            out = ["--out-dir" if command == "report" else "--out", str(tmp_path / f"{command}.out")]
            assert main([command, "--input", str(csv_path), *lake, flag, value, *out]) == 2, command
            assert capsys.readouterr().err == f"error: {message[flag]}, got {float(value)}\n", command
        assert not any(tmp_path.glob("*.out"))

    @pytest.mark.parametrize("command", ["ingest", "report"])
    def test_non_utf8_input_is_config_error(self, tmp_path, capsys, command):
        csv_path = tmp_path / "latin1.csv"
        text = "midas,lake,date,seccbot,zS_m,x1\n1,Lac \xe9t\xe9,2001-06-01,No,3.0,1.0\n"
        csv_path.write_bytes(text.encode("latin-1"))
        out = ["--out-dir", str(tmp_path / "bundle")] if command == "report" else []
        assert main([command, "--input", str(csv_path), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: input file {csv_path} is not UTF-8: ") and err.count("\n") == 1
        assert not (tmp_path / "bundle").exists()

    def test_global_ranking_leaves_out_a_lake_too_short_to_fit_every_feature(self, tmp_path, capsys):
        # Lake 103's 135 fortnightly visits leave 4 pre-test rows, too few to fit 6 features.
        visits = {101: 240, 102: 240, 103: 135}
        configs = [
            SynthConfig(n_samples=n, n_features=6, sampling_interval_days=14, lake_id=lake, seed=i)
            for i, (lake, n) in enumerate(visits.items())
        ]
        csv_path, wanted = tmp_path / "lakes.csv", tmp_path / "good.json"
        synth_csv(csv_path, configs)
        wanted.write_text("[101, 102]")
        flags = ["--input", str(csv_path), "--trees", "20", "--global-ranking", "--n-stride", "7"]
        assert main(["report", *flags, "--out-dir", str(tmp_path / "all")]) == 1
        assert capsys.readouterr().err == "lake 103 skipped: training size 4 outside [7, 4] for 6 feature(s)\n"
        assert main(["joint", *flags, "--out", str(tmp_path / "joint.json")]) == 1
        assert main(["report", *flags, "--lakes", str(wanted), "--out-dir", str(tmp_path / "good")]) == 0

        every, good = (json.loads((tmp_path / name / "summary.json").read_text()) for name in ("all", "good"))
        assert every["minimal_configs"] == good["minimal_configs"]
        assert every["aggregate_ranking"] == good["aggregate_ranking"]
        assert json.loads((tmp_path / "joint.json").read_text())["minimal_configs"] == good["minimal_configs"]
        for lake in ("101", "102"):
            grid = Path("lakes", lake, "grid.csv")
            assert (tmp_path / "all" / grid).read_bytes() == (tmp_path / "good" / grid).read_bytes(), lake

    def test_impute_zero_sweeps_is_config_error(self, tmp_path, capsys):
        csv_path = self._write_synth_inputs(tmp_path)
        out = tmp_path / "completed.csv"
        assert main(["impute", "--input", str(csv_path), "--lake", "100", "--sweeps", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: impute_sweeps")
        assert not out.exists()

    def test_repeated_column_name_is_config_error(self, tmp_path, capsys):
        csv_path = tmp_path / "repeated.csv"
        csv_path.write_text("midas,lake,date,seccbot,zS_m,x1,x1\n1,A,2001-06-01,No,3.0,1.0,2.0\n")
        assert main(["ingest", "--input", str(csv_path)]) == 2
        assert capsys.readouterr().err == "error: repeated column name(s): x1\n"

    def test_missing_input_is_config_error(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "nope.csv")]) == 2

    def test_unknown_lake_is_config_error(self, tmp_path):
        csv_path = self._write_synth_inputs(tmp_path)
        code = main(["impute", "--input", str(csv_path), "--lake", "42", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_empty_lake_selection_is_config_error(self, tmp_path):
        csv_path = self._write_synth_inputs(tmp_path)
        wanted = tmp_path / "wanted.json"
        wanted.write_text(json.dumps({"lakes": []}))
        code = main(
            ["joint", "--input", str(csv_path), "--lakes", str(wanted), "--out", str(tmp_path / "j.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["impute", "sample-curve", "feature-rank", "feature-select"])
    def test_unknown_lake_gives_the_report_lakes_message(self, tmp_path, capsys, command):
        csv_path = self._write_synth_inputs(tmp_path)
        out = tmp_path / "x.out"
        assert main([command, "--input", str(csv_path), "--lake", "42", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown lake id(s): 42\n"
        assert not out.exists()

    @pytest.mark.parametrize("years", ["3000", str(10**20)])
    @pytest.mark.parametrize("command, code", [("report", 2), ("sample-curve", 1)])
    def test_test_years_beyond_year_one_fails_the_lake(self, tmp_path, capsys, command, code, years):
        csv_path = self._write_synth_inputs(tmp_path)
        out = {
            "report": ["--out-dir", str(tmp_path / "bundle")],
            "sample-curve": ["--lake", "100", "--out", str(tmp_path / "curve.csv")],
        }
        assert main([command, "--input", str(csv_path), "--test-years", years, *out[command]]) == code
        reason = f"record does not span more than the {years}-year test window"
        assert capsys.readouterr().err == {
            "report": f"error: every lake failed: 100: lake 100: {reason}; 101: lake 101: {reason}\n",
            "sample-curve": f"error: lake 100: {reason}\n",
        }[command]

    @pytest.mark.parametrize("case", ["out-dir is a file", "lakes is a file", "ingest", "impute", "emit-grid"])
    def test_unwritable_output_path_is_one_error_line(self, tmp_path, capsys, case):
        csv_path = self._write_synth_inputs(tmp_path)
        a_file, a_dir, bundle_dir = tmp_path / "a_file", tmp_path / "a_dir", tmp_path / "bundle"
        a_file.write_text("")
        a_dir.mkdir()
        bundle_dir.mkdir()
        (bundle_dir / "lakes").write_text("")
        fast = ["--trees", "5", "--n-stride", "6"]
        args = {
            "out-dir is a file": ["report", *fast, "--out-dir", str(a_file)],
            "lakes is a file": ["report", *fast, "--out-dir", str(bundle_dir)],
            "ingest": ["ingest", "--out", str(a_dir)],
            "impute": ["impute", "--lake", "100", "--out", str(a_dir)],
            "emit-grid": ["joint", *fast, "--out", str(tmp_path / "j.json"), "--emit-grid", str(a_dir)],
        }[case]
        assert main([*args, "--input", str(csv_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_unwritable_out_dir_fails_before_any_lake_is_imputed(self, tmp_path, capsys, monkeypatch):
        csv_path = self._write_synth_inputs(tmp_path)
        a_file = tmp_path / "a_file"
        a_file.write_text("")

        def no_impute(*args, **kwargs):
            raise AssertionError("imputed a lake for an out-dir that cannot be written")

        monkeypatch.setattr(report, "impute_series", no_impute)
        assert main(["report", "--input", str(csv_path), "--out-dir", str(a_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_failed_rewrite_leaves_the_run_config_of_the_summary_beside_it(self, tmp_path, capsys):
        csv_path = self._write_synth_inputs(tmp_path)
        out_dir = tmp_path / "bundle"
        args = ["report", "--input", str(csv_path), "--trees", "5", "--n-stride", "6", "--out-dir", str(out_dir)]
        assert main(args) == 0
        shutil.rmtree(out_dir / "lakes" / "100")
        (out_dir / "lakes" / "100").write_text("")
        capsys.readouterr()
        assert main([*args, "--tolerance", "0.10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        run_config = json.loads((out_dir / "run_config.json").read_text())
        assert run_config["config_hash"] == json.loads((out_dir / "summary.json").read_text())["config_hash"]
        assert run_config["config"]["tolerance"] != 0.10

    def test_main_uses_the_parser_built_at_import(self, tmp_path, monkeypatch):
        def no_parser():
            raise AssertionError("built a parser per call")

        monkeypatch.setattr(cli, "build_parser", no_parser)
        assert main(["ingest", "--input", str(self._write_synth_inputs(tmp_path))]) == 0

    def test_one_call_leaves_no_flag_for_the_next(self, tmp_path):
        csv_path = self._write_synth_inputs(tmp_path)
        wanted = tmp_path / "wanted.json"
        wanted.write_text("[100]")
        common = ["report", "--input", str(csv_path), "--trees", "15", "--n-stride", "6"]
        flags = ["--global-ranking", "--lakes", str(wanted)]
        assert main([*common, *flags, "--out-dir", str(tmp_path / "first")]) == 0
        assert main([*common, "--out-dir", str(tmp_path / "second")]) == 0
        config = json.loads((tmp_path / "second" / "run_config.json").read_text())["config"]
        assert config["use_global_ranking"] is False
        assert config["lake_ids"] is None
        # The second command alone, in a process whose parser has parsed nothing before.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        alone = [sys.executable, "-m", "limnoplan.cli", *common, "--out-dir", str(tmp_path / "alone")]
        subprocess.run(alone, env=env, check=True, capture_output=True)
        assert bundle(tmp_path / "second") == bundle(tmp_path / "alone")


class TestRunConfigDefaults:
    """Every default of a run setting is `RunConfig`'s: no command's parser holds one of its own."""

    PROTOCOL = ["--test-years", "--tolerance", "--lambda", "--seed", "--n-stride", "--n-min"]
    RUN = [*PROTOCOL, "--trees", "--global-ranking", "--lakes"]
    COMMANDS = {
        "impute": (["--lake", "1", "--out", "o.csv"], ["--sweeps", "--noise", "--seed"]),
        "sample-curve": (["--lake", "1", "--out", "o.csv"], PROTOCOL),
        "feature-rank": (["--lake", "1", "--out", "o.json"], ["--test-years", "--trees", "--seed"]),
        "feature-select": (["--lake", "1", "--out", "o.csv"], [*PROTOCOL, "--trees"]),
        "joint": (["--out", "o.json"], RUN),
        "report": (["--out-dir", "out"], RUN),
    }
    # Each flag's words and the (field, value) of `RunConfig` they set; none is the field's default.
    FLAGS = {
        "--test-years": (["3"], "test_years", 3),
        "--tolerance": (["0.2"], "tolerance", 0.2),
        "--lambda": (["2.5"], "penalty", 2.5),
        "--seed": (["7"], "seed", 7),
        "--n-stride": (["3"], "grid_stride", 3),
        "--n-min": (["9"], "grid_n_min", 9),
        "--trees": (["11"], "n_trees", 11),
        "--sweeps": (["4"], "impute_sweeps", 4),
        "--noise": (["on"], "impute_noise", True),
        "--global-ranking": ([], "use_global_ranking", True),
        "--lakes": (["lakes.json"], "lake_ids", (101, 100)),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_required_flags_alone_give_the_default_config(self, command):
        required, _ = self.COMMANDS[command]
        args = cli.build_parser().parse_args([command, "--input", "in.csv", *required])
        assert not {f.name for f in dataclasses.fields(RunConfig)} & set(vars(args))
        assert cli._run_config(args) == RunConfig()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_flag_sets_only_its_own_field(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        Path("lakes.json").write_text("[101, 100]")
        required, flags = self.COMMANDS[command]
        for flag in flags:
            words, field, value = self.FLAGS[flag]
            assert getattr(RunConfig(), field) != value, flag
            args = cli.build_parser().parse_args([command, "--input", "in.csv", *required, flag, *words])
            assert cli._run_config(args) == dataclasses.replace(RunConfig(), **{field: value}), flag


MEMO_CSV = (
    "midas,lake,date,seccbot,zS_m,x1,x 2\n"
    "12345678901234567890,Big,2001-06-01,No,3.0,1.0,2.0\n"  # beyond int64
    '1,"Lake, ""quoted""\nname",2001-06-03,No,2.5,NA,1.5\n'  # a comma, a quote and a newline
    "01,Other,2001-06-02,Yes,3.5,1.25,\n"  # lake 1 again
    "2,Bad,2001-02-30,No,1.0,1,1\n"
    "2,Bad,2001-03-01,No,-1,1,1\n"
    "3,Short,2001-01-01\n"
    "2,Two,2002-03-01,No,4.0,-999,0.5\n"
    "2,Two,2002-01-01,No,4.5,2,oops\n"
    "2,Two,2001-12-01,,5.0,3,1e-300\n"
)


class TestInputEntry:
    """`report` keeps the parse of its input in the stage cache, keyed by the input's bytes and NA tokens."""

    @staticmethod
    def load(path: Path, cache_dir: Path, capsys, na_token: str = "NA"):
        """`cli._load_lakes` through the cache at `cache_dir`: (lakes, errors, stderr)."""
        capsys.readouterr()
        args = argparse.Namespace(input=str(path), na_token=na_token)
        lakes, errors, _ = cli._load_lakes(args, report.StageCache(cache_dir))
        return lakes, errors, capsys.readouterr().err

    @staticmethod
    def counting_parser(monkeypatch) -> list:
        calls, parse = [], dataset.parse_dataset
        monkeypatch.setattr(dataset, "parse_dataset", lambda *a, **k: calls.append(1) or parse(*a, **k))
        return calls

    def test_a_hit_reproduces_the_parse_exactly(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "lakes.csv"
        path.write_text(MEMO_CSV)
        with open(path, newline="") as fh:
            want, want_errors = parse_dataset(fh)
        _, _, parsed_err = self.load(path, tmp_path / "cache", capsys)
        calls = self.counting_parser(monkeypatch)
        lakes, errors, hit_err = self.load(path, tmp_path / "cache", capsys)
        assert calls == [] and hit_err == parsed_err and parsed_err.count("\n") == len(errors) == 4
        assert errors == want_errors
        assert [(s.lake_id, s.name, s.feature_schema) for s in lakes] == [
            (s.lake_id, s.name, s.feature_schema) for s in want
        ]
        assert [s.lake_id for s in lakes] == [1, 2, 12345678901234567890] and lakes[0].name == 'Lake, "quoted"\nname'
        for got, ref in zip(lakes, want):
            for column in ("dates", "sdd", "covariates", "sdd_to_bottom"):
                a, b = getattr(got, column), getattr(ref, column)
                assert (a.dtype, a.shape, a.strides, a.tobytes()) == (b.dtype, b.shape, b.strides, b.tobytes()), column

    def test_a_changed_byte_or_na_token_misses(self, tmp_path, capsys, monkeypatch):
        path, cache = tmp_path / "lakes.csv", tmp_path / "cache"
        path.write_text(MEMO_CSV)
        self.load(path, cache, capsys)
        keys = [stored_key(cache / "input.npy")]
        calls = self.counting_parser(monkeypatch)
        lakes, _, _ = self.load(path, cache, capsys, na_token="-999")
        assert len(calls) == 1 and np.isnan(lakes[1].covariates[1, 0])
        keys.append(stored_key(cache / "input.npy"))
        path.write_text(MEMO_CSV.replace("No,4.0,", "No,4.1,"))
        lakes, _, _ = self.load(path, cache, capsys)
        assert len(calls) == 2 and lakes[1].sdd.tolist() == [5.0, 4.1]
        keys.append(stored_key(cache / "input.npy"))
        assert list(cache.iterdir()) == [cache / "input.npy"] and len(set(keys)) == 3

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda path, arrays: path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2]),
            lambda path, arrays: path.write_bytes(b"not an npy"),
            lambda path, arrays: save_entry(path, {k: v for k, v in arrays.items() if k != "sdd_to_bottom"}),
            lambda path, arrays: save_entry(path, {**arrays, "sdd": arrays["sdd"].astype(np.float32)}),
            lambda path, arrays: save_entry(path, {**arrays, "dates": arrays["dates"][:-1]}),
            lambda path, arrays: save_entry(path, {**arrays, **{c: arrays[c][:-1] for c in report.INPUT_COLUMNS}}),
            lambda path, arrays: save_entry(path, {**arrays, "covariates": arrays["covariates"][:, :1]}),
            lambda path, arrays: save_entry(path, {**arrays, "parse": arrays["parse"][:-5]}),
            lambda path, arrays: save_entry(path, {**arrays, "parse": np.frombuffer(b'{"lakes": []}', np.uint8)}),
            *FORMAT_TAMPERS.values(),
        ],
        ids=["truncated", "garbage", "missing-array", "wrong-dtype", "short-column", "every-column-short",
             "narrow-covariates", "truncated-json", "other-json", *FORMAT_TAMPERS],
    )
    def test_an_unusable_entry_is_a_miss_and_rewritten(self, tmp_path, capsys, monkeypatch, tamper):
        path, cache = tmp_path / "lakes.csv", tmp_path / "cache"
        path.write_text(MEMO_CSV)
        _, want_errors, want_err = self.load(path, cache, capsys)
        (entry,) = cache.iterdir()
        stored = entry_arrays(entry)
        tamper(entry, stored)
        calls = self.counting_parser(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # recorded, not raised: a cold run prints no warning either
            _, errors, err = self.load(path, cache, capsys)
        assert calls == [1] and errors == want_errors and err == want_err and caught == []
        assert list(cache.iterdir()) == [entry] and same_arrays(entry_arrays(entry), stored)

    @pytest.mark.parametrize(
        "text",
        [
            "midas,lake,date,zS_m,x1,x1\n1,A,2001-06-01,3.0,1,2\n",
            "midas,lake,zS_m,x1\n1,A,3.0,1\n",
            "midas,date,zS_m\n",
        ],
        ids=["repeated-column", "missing-column", "no-rows"],
    )
    def test_no_entry_for_an_input_report_stops_on(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert main(["report", "--input", str(path), "--out-dir", str(tmp_path / "bundle")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("bundle/cache/input*"))

    def test_a_rethreshold_run_on_a_dirty_input_prints_and_writes_what_a_cold_run_does(self, tmp_path, capsys):
        clean = tmp_path / "lakes.csv"
        synth_csv(clean, small_lake_configs(2))
        lines = clean.read_text().splitlines(keepends=True)
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("".join([*lines[:5], "100,X,2001-02-30,No,1,1,1,1,1\n", *lines[5:9], "101,Y\n", *lines[9:]]))
        flags = ["report", "--input", str(dirty), "--trees", "15", "--n-stride", "6", "--tolerance", "0.10"]
        assert main([*flags[:-2], "--out-dir", str(tmp_path / "cached")]) == 0
        capsys.readouterr()
        assert main([*flags, "--out-dir", str(tmp_path / "cached")]) == 0
        cached = capsys.readouterr()
        assert main([*flags, "--out-dir", str(tmp_path / "fresh")]) == 0
        fresh = capsys.readouterr()
        assert (cached.out, cached.err) == (fresh.out, fresh.err) and cached.err.count("line ") == 2
        assert bundle(tmp_path / "cached") == bundle(tmp_path / "fresh")

    def test_a_bad_setting_wins_over_a_missing_input(self, tmp_path, capsys):
        args = ["report", "--input", str(tmp_path / "nope.csv"), "--tolerance", "0", "--out-dir", str(tmp_path / "b")]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: tolerance must be finite and positive, got 0.0\n"
        assert not (tmp_path / "b").exists()


class TestEntryRecord:
    """A stage-cache entry is one `.npy` record: a 0-d structured array of one field per array."""

    FLAGS = ["--trees", "15", "--n-stride", "6"]

    @staticmethod
    def assert_stored(got: dict[str, np.ndarray], want: dict[str, np.ndarray]) -> None:
        assert got.keys() == want.keys()
        for name, a in got.items():
            b = want[name]
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
            assert a.flags.c_contiguous and a.flags.aligned, name

    def test_a_lake_entry_reads_back_as_stored(self, tmp_path):
        synth_csv(tmp_path / "lakes.csv", small_lake_configs(1))
        config = RunConfig(seed=4, **FAST)
        (lake_report,) = run_pipeline(load_csv(tmp_path / "lakes.csv"), config, tmp_path / "out").reports
        series, split, entry = lake_report.lake.series, lake_report.lake.split, lake_report.entry
        cache, key = report.StageCache(tmp_path / "cache"), report.lake_key(series, config)
        cache.put(series.lake_id, key, entry)
        self.assert_stored(cache.get(series.lake_id, key, report.entry_layout(series, split, config)), entry)

    @pytest.mark.parametrize(
        "text", [MEMO_CSV, "midas,lake,date,zS_m\n1,A,2001-06-01,3.0\n2,B,2001-06-02,2.5\n2,B,2001-07-02,2.0\n"],
        ids=["covariates", "no-covariates"],
    )
    def test_an_input_entry_reads_back_as_stored(self, tmp_path, text):
        lakes, errors = parse_dataset(io.StringIO(text, newline=""))
        cache, key = report.StageCache(tmp_path / "cache"), "0123456789abcdef"
        cache.put_input(key, lakes, errors)
        columns = {c: np.concatenate([getattr(s, c) for s in lakes]) for c in report.INPUT_COLUMNS}
        layout = {"parse": ("u1", None), **{c: (t, None) for c, t in report.INPUT_COLUMNS.items()}}
        got = cache.get("input", key, layout)
        assert got.pop("parse").flags.c_contiguous
        self.assert_stored(got, columns)
        assert columns["covariates"].shape[1] == (2 if text == MEMO_CSV else 0)
        hit, hit_errors = cache.get_input(key)
        assert hit_errors == errors
        for a, b in zip(hit, lakes):
            self.assert_stored({c: getattr(a, c) for c in columns}, {c: getattr(b, c) for c in columns})

    def test_an_entry_over_the_record_size_is_not_stored(self, tmp_path):
        cache = report.StageCache(tmp_path / "cache")
        cache.put("input", "0123456789abcdef", {"sdd": np.broadcast_to(np.zeros(1), (2**28,))})  # 2 GiB, no memory
        assert not list(cache.root.glob("*"))

    @pytest.mark.parametrize("stage", ["input", "lake"])
    def test_a_failed_put_leaves_cache_as_it_was(self, tmp_path, capsys, monkeypatch, stage):
        synth_csv(tmp_path / "lakes.csv", small_lake_configs(1))
        args = ["report", "--input", str(tmp_path / "lakes.csv"), *self.FLAGS, "--out-dir", str(tmp_path / "out")]
        if stage == "lake":  # the input entry hits, and the lake's entry at another seed is stored
            assert main(args) == 0
            args += ["--seed", "5"]
        cache = tmp_path / "out" / "cache"
        before = {path.name: path.read_bytes() for path in cache.glob("*")}

        def failing_save(file, array, *args, **kwargs):
            file.write(b"\x93NUMPY")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "save", failing_save)
        capsys.readouterr()
        assert main(args) == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert {path.name: path.read_bytes() for path in cache.glob("*")} == before

    def test_entries_of_the_npz_format_are_ignored_and_kept(self, tmp_path, monkeypatch):
        synth_csv(tmp_path / "lakes.csv", small_lake_configs(2))
        args = ["report", "--input", str(tmp_path / "lakes.csv"), *self.FLAGS, "--out-dir"]
        assert main([*args, str(tmp_path / "cold")]) == 0
        old = tmp_path / "old" / "cache"
        old.mkdir(parents=True)
        for entry in (tmp_path / "cold" / "cache").iterdir():  # what the earlier format stored, key included
            save_npz(old / f"{entry.stem}.npz", entry_arrays(entry))
        npz = {path.name: path.read_bytes() for path in old.iterdir()}
        assert sorted(npz) == ["100.npz", "101.npz", "input.npz"]

        calls = []
        for name in ("impute_series", "rank_features"):
            counted = lambda *a, _name=name, _f=getattr(report, name), **k: calls.append(_name) or _f(*a, **k)
            monkeypatch.setattr(report, name, counted)
        assert main([*args, str(tmp_path / "old")]) == 0
        assert sorted(calls) == ["impute_series", "impute_series", "rank_features"]
        assert bundle(tmp_path / "old") == bundle(tmp_path / "cold")
        assert {path.name: path.read_bytes() for path in old.glob("*.npz")} == npz
        assert sorted(path.name for path in old.glob("*.npy")) == ["100.npy", "101.npy", "input.npy"]


def dated_lake(lake_id: int, early_visits: int, rng) -> dataset.LakeSeries:
    """A lake of four covariates: `early_visits` visits more than five years before its last, then 40
    monthly ones."""
    early = [date(2000, 1, 1) + timedelta(days=60 * i) for i in range(early_visits)]
    recent = [date(2010, 1, 1) + timedelta(days=30 * i) for i in range(40)]
    X = rng.normal(size=(len(early) + len(recent), 4))
    return series_from_arrays(lake_id, 3 + X[:, 0], X, ["x01", "x02", "x03", "x04"], dates=early + recent)


class TestPooledRanking:
    """The forests of all lakes grow in shared passes; a lake's results
    must not depend on which lakes share its pass, and a lake that fails
    still fails alone, with its own message."""

    FLAGS = ["--trees", "20", "--n-stride", "4", "--seed", "6"]

    @staticmethod
    def lake_files(out: Path, lake_id: int) -> dict:
        """The lake's bundle files (JSON without its config-hash stamp) and its cache entry."""
        files = {"cache": (out / "cache" / f"{lake_id}.npy").read_bytes()}
        for path in sorted((out / "lakes" / str(lake_id)).iterdir()):
            files[path.name] = path.read_bytes()
            if path.suffix == ".json":
                files[path.name] = json.loads(path.read_text())
                assert files[path.name].pop("config_hash")
        return files

    def report(self, csv_path: Path, out: Path, *flags: str) -> int:
        return main(["report", "--input", str(csv_path), *self.FLAGS, *flags, "--out-dir", str(out)])

    def test_a_lake_ranked_with_others_equals_it_ranked_alone(self, tmp_path, monkeypatch):
        csv_path, one = tmp_path / "lakes.csv", tmp_path / "one.json"
        synth_csv(csv_path, [dataclasses.replace(c, lake_id=1001 + i) for i, c in enumerate(small_lake_configs(3))])
        one.write_text("[1001]")
        passes = count_passes(monkeypatch)
        assert self.report(csv_path, tmp_path / "all") == 0
        assert passes == [3]  # the three forests grew in one pass
        assert self.report(csv_path, tmp_path / "one", "--lakes", str(one)) == 0
        assert passes == [3, 1]
        files = self.lake_files(tmp_path / "all", 1001)
        assert {"ranking.json", "grid.csv", "minimal_config.json"} <= files.keys()
        assert files == self.lake_files(tmp_path / "one", 1001)

    def test_failing_lakes_fail_alone_with_their_own_messages(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(3)
        csv_path, survivors = tmp_path / "lakes.csv", tmp_path / "survivors.json"
        synth_csv(csv_path, small_lake_configs(2))
        text = csv_path.read_text()
        # No visit before the test window, one pre-test row, and three pre-test rows for four covariates.
        for lake_id, early_visits in ((201, 0), (202, 1), (203, 3)):
            buffer = io.StringIO()
            write_series_csv(dated_lake(lake_id, early_visits, rng), buffer)
            text += buffer.getvalue().split("\n", 1)[1]
        csv_path.write_text(text)
        passes = count_passes(monkeypatch)
        assert self.report(csv_path, tmp_path / "all") == 1
        assert passes == [2]  # lake 203 fails its full-fit check before any forest grows
        failures = {
            "201": "lake 201: record does not span more than the 5-year test window",
            "202": "need at least 2 rows and 1 feature column to grow trees, have 1 x 4",
            "203": "training size 3 outside [5, 3] for 4 feature(s)",
        }
        assert json.loads((tmp_path / "all" / "summary.json").read_text())["failures"] == failures
        assert capsys.readouterr().err == "".join(f"lake {i} skipped: {m}\n" for i, m in failures.items())
        survivors.write_text("[100, 101]")
        assert self.report(csv_path, tmp_path / "survivors", "--lakes", str(survivors)) == 0
        for lake_id in (100, 101):
            assert self.lake_files(tmp_path / "all", lake_id) == self.lake_files(tmp_path / "survivors", lake_id)
