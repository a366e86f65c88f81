"""Output check for `limnoplan report` bundles.

For one report leg it confirms, per lake:

- the `feasible` column of `grid.csv` agrees with `nmae <= tau`;
- a lexicographic scan of `grid.csv` (n first, then k) reproduces the
  bundle's `(n_hat, k_hat, fallback)` and its selected features;
- the full-configuration nMAE equals `sample_curve.json`'s
  `reference_nmae` and `minimal_config.json`'s `full_nmae`;
- a seeded sample of grid cells, always including the minimal and the
  full cell, recomputed with `limnoplan.backward_eval` from the bundle's
  own `completed.csv` and ranking order, matches within 1e-9 relative.

Across repeats it compares `summary.json`, every `minimal_config.json`
and every `grid.csv` byte for byte. Across a cold leg and its
re-threshold leg it requires the same nMAE column and a lexicographically
no larger `(n_hat, k_hat)` for every lake. Each check returns a list of
problems; an empty list means the bundle passed.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from limnoplan import backward_eval
from limnoplan import dataset as ds
from limnoplan.imputation import CompletedMatrix

REL_TOL = 1e-9
CELLS_PER_LAKE = 24


@dataclass(frozen=True)
class LakeAnswer:
    cells: dict[tuple[int, int], str]  # (n, k) -> nMAE text as written
    minimal: tuple[int, int, bool]  # (n_hat, k_hat, fallback)


def load_splits(input_csv: Path, test_years: int) -> dict[int, ds.SplitSeries]:
    """Train/test splits of the benchmark input, as the pipeline forms them."""
    with open(input_csv, newline="") as fh:
        lakes, _ = ds.parse_dataset(fh)
    return {
        series.lake_id: ds.split_test_block(ds.apply_exclusions(series), test_years)
        for series in lakes
    }


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_grid(path: Path) -> dict[tuple[int, int], tuple[str, int]]:
    with open(path, newline="") as fh:
        return {
            (int(row["n"]), int(row["k"])): (row["nmae"], int(row["feasible"]))
            for row in csv.DictReader(fh)
        }


def _read_completed(path: Path) -> CompletedMatrix:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        schema = next(reader)
        values = np.array([[float(v) for v in row] for row in reader], dtype=float)
    return CompletedMatrix(
        values=values, feature_schema=schema, imputed_mask=np.zeros(values.shape, dtype=bool)
    )


def check_leg(
    out_dir: Path,
    splits: dict[int, ds.SplitSeries],
    lake_ids: list[int],
    sample_seed: int,
    cells_per_lake: int | None = CELLS_PER_LAKE,
) -> tuple[list[str], dict[int, LakeAnswer]]:
    """Check one bundle; `cells_per_lake=None` recomputes every cell."""
    try:
        config = _read_json(out_dir / "run_config.json")["config"]
        summary = _read_json(out_dir / "summary.json")
    except (OSError, ValueError, KeyError) as exc:
        return [f"{out_dir.name}: unreadable bundle ({exc})"], {}

    problems = []
    if summary["lakes"] != lake_ids:
        problems.append(f"summary lakes {summary['lakes']} != expected {lake_ids}")
    if summary["failures"]:
        problems.append(f"failed lakes: {summary['failures']}")
    global_order = summary["aggregate_ranking"]["order"] if config["use_global_ranking"] else None

    answers = {}
    for lake_id in summary["lakes"]:
        lake_dir = out_dir / "lakes" / str(lake_id)
        try:
            answer, lake_problems = _check_lake(
                lake_dir, splits[lake_id], config, global_order, sample_seed, cells_per_lake
            )
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"lake {lake_id}: unreadable output ({exc})")
            continue
        problems.extend(f"lake {lake_id}: {p}" for p in lake_problems)
        answers[lake_id] = answer
    return problems, answers


def _check_lake(
    lake_dir: Path,
    split: ds.SplitSeries,
    config: dict,
    global_order: list[str] | None,
    sample_seed: int,
    cells_per_lake: int | None,
) -> tuple[LakeAnswer, list[str]]:
    problems = []
    grid = _read_grid(lake_dir / "grid.csv")
    minimal = _read_json(lake_dir / "minimal_config.json")
    curve = _read_json(lake_dir / "sample_curve.json")
    order = global_order or _read_json(lake_dir / "ranking.json")["order"]
    p, n_pre = len(order), split.n_pre
    nmae = {cell: float(text) for cell, (text, _) in grid.items()}
    answer = LakeAnswer(
        cells={cell: text for cell, (text, _) in grid.items()},
        minimal=(minimal["n_hat"], minimal["k_hat"], minimal["fallback"]),
    )

    full = nmae.get((n_pre, p))
    if full is None:
        return answer, [f"grid has no full cell ({n_pre}, {p})"]
    if not _close(full, curve["reference_nmae"]):
        problems.append(f"full-cell nMAE {full!r} != reference_nmae {curve['reference_nmae']!r}")
    if not _close(full, minimal["full_nmae"]):
        problems.append(f"full-cell nMAE {full!r} != full_nmae {minimal['full_nmae']!r}")
    tau = minimal["tau"]
    if not _close(tau, (1.0 + config["tolerance"]) * minimal["full_nmae"], 1e-12):
        problems.append(f"tau {tau!r} != (1 + tolerance) * full_nmae")
    if any(n < k + 1 for n, k in grid):
        problems.append("grid holds an excluded cell (n < k + 1)")

    flipped = [cell for cell, (_, flag) in grid.items() if flag != int(nmae[cell] <= tau)]
    if flipped:
        problems.append(f"{len(flipped)} feasible flag(s) disagree with nmae <= tau, e.g. {flipped[0]}")

    feasible = sorted(cell for cell, (_, flag) in grid.items() if flag == 1)
    expected = (*feasible[0], False) if feasible else (n_pre, p, True)
    if answer.minimal != expected:
        problems.append(f"(n_hat, k_hat, fallback) {answer.minimal} != scan {expected}")
    if minimal["selected_features"] != order[: minimal["k_hat"]]:
        problems.append("selected features are not the ranking prefix of length k_hat")

    completed = _read_completed(lake_dir / "completed.csv")
    cells = sorted(grid)
    if cells_per_lake is not None and cells_per_lake < len(cells):
        rng = random.Random(f"{sample_seed}:{split.pre.lake_id}")
        cells = sorted(set(rng.sample(cells, cells_per_lake)) | {(n_pre, p), answer.minimal[:2]})
    for n, k in cells:
        if (n, k) not in grid:
            continue
        value = backward_eval(split, completed, n, order[:k], config["penalty"]).nmae
        if not _close(value, nmae[(n, k)]):
            problems.append(f"cell ({n}, {k}): recomputed nMAE {value!r} != bundle {nmae[(n, k)]!r}")
    return answer, problems


def snapshot(out_dir: Path) -> dict[str, bytes]:
    """Bytes of the files that must repeat exactly across identical runs."""
    files = [out_dir / "summary.json"]
    for lake_dir in sorted((out_dir / "lakes").glob("*")):
        files += [lake_dir / "minimal_config.json", lake_dir / "grid.csv"]
    return {str(f.relative_to(out_dir)): f.read_bytes() for f in files if f.is_file()}


def compare_repeats(first: dict[str, bytes], other: dict[str, bytes], label: str) -> list[str]:
    if first.keys() != other.keys():
        return [f"{label}: bundle file sets differ between repeats"]
    return [f"{label}: {name} differs between repeats" for name in first if first[name] != other[name]]


def compare_retol(cold: dict[int, LakeAnswer], retol: dict[int, LakeAnswer]) -> list[str]:
    """A larger tolerance keeps every nMAE and never enlarges the answer."""
    problems = []
    for lake_id, before in cold.items():
        after = retol.get(lake_id)
        if after is None:
            problems.append(f"lake {lake_id}: missing from the re-threshold leg")
            continue
        if after.cells != before.cells:
            problems.append(f"lake {lake_id}: nMAE column changed on the re-threshold leg")
        if after.minimal[:2] > before.minimal[:2]:
            problems.append(
                f"lake {lake_id}: re-threshold (n_hat, k_hat) {after.minimal[:2]} > {before.minimal[:2]}"
            )
    return problems
