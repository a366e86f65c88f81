"""Spans and counters for the traced benchmark run, kept in memory.

The traced run wraps public limnoplan functions at the names the
pipeline looks them up by (for example `limnoplan.report.rank_features`,
which `process_lake` calls), records one span per call and derives
counters from the objects the calls return. Nothing under `src/`
changes. A target that no longer exists is reported as missing rather
than failing the run, and a counter that cannot be read from a changed
return type is reported the same way.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Recorder.spans; -1 for a root span
    end: float = 0.0
    child_time: float = 0.0  # summed durations of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span = self.spans[index]
            span.end = time.perf_counter()
            if parent >= 0:
                self.spans[parent].child_time += span.duration

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Time inside spans called `name` not covered by their child spans."""
        return sum(s.duration - s.child_time for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # dotted within the module, e.g. "StageCache.get"
    span: str | None  # None: count results only, no span (hot per-cell calls)
    on_result: Callable[[Recorder, Any], None] | None = None


def _resolve(target: Target) -> tuple[Any, str, Any] | None:
    try:
        owner: Any = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = getattr(owner, name, None) if owner is not None else None
    if name.startswith("_") or not callable(original):
        return None
    return owner, name, original


def _wrap(recorder: Recorder, target: Target, fn: Callable) -> Callable:
    label = f"{target.module}.{target.attr}"

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if target.span is None:
            result = fn(*args, **kwargs)
        else:
            with recorder.span(target.span):
                result = fn(*args, **kwargs)
        if target.on_result is not None:
            try:
                target.on_result(recorder, result)
            except (AttributeError, TypeError, KeyError, ValueError):
                if f"{label} (result)" not in recorder.missing:
                    recorder.missing.append(f"{label} (result)")
        return result

    return wrapper


@contextmanager
def instrument(recorder: Recorder, targets: list[Target]) -> Iterator[Recorder]:
    """Patch every resolvable target for the duration of the block."""
    patched = []
    for target in targets:
        resolved = _resolve(target)
        if resolved is None:
            recorder.missing.append(f"{target.module}.{target.attr}")
            continue
        owner, name, original = resolved
        setattr(owner, name, _wrap(recorder, target, original))
        patched.append((owner, name, original))
    try:
        yield recorder
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


# --------------------------------------------------------------------------- #
# What the benchmark wraps, by layer
# --------------------------------------------------------------------------- #

def _rows(rec: Recorder, result: Any) -> None:
    lakes, _ = result
    rec.count("dataset.rows", sum(len(series) for series in lakes))


def _sweeps(rec: Recorder, result: Any) -> None:
    _, report = result
    rec.count("imputation.sweeps", report.sweeps)


def _curve_cells(rec: Recorder, result: Any) -> None:
    rec.count("evaluation.curve_cells", len(result.nmae_at))


def _forest(rec: Recorder, result: Any) -> None:
    rec.count("models.forest_trees", len(result.trees))
    rec.count("models.forest_nodes", sum(len(tree.feature) for tree in result.trees))


def _ridge(rec: Recorder, result: Any) -> None:
    rec.count("models.ridge_fits", 1 if result is not None else 0)


def _grid_cells(rec: Recorder, result: Any) -> None:
    rec.count("joint.grid_cells", len(result.nmae))


def _cache_lookup(rec: Recorder, result: Any) -> None:
    rec.count("report.cache_misses" if result is None else "report.cache_hits")


def _file(rec: Recorder, result: Any) -> None:
    rec.count("report.files_written")


# Names are wrapped where their callers look them up: `cli` reaches the
# parser and the splitter through the `limnoplan.dataset` module, while
# `report`, `selection` and `evaluation` import functions by name.
TARGETS = [
    Target("limnoplan.dataset", "parse_dataset", "dataset.parse", _rows),
    Target("limnoplan.cli", "run_pipeline", "report.run_pipeline"),
    Target("limnoplan.dataset", "apply_exclusions", "dataset.exclusions"),
    Target("limnoplan.dataset", "split_test_block", "dataset.split"),
    Target("limnoplan.report", "impute_series", "imputation.impute", _sweeps),
    Target("limnoplan.report", "fit_reference", "evaluation.reference"),
    Target("limnoplan.report", "predict_ridge", "evaluation.reference"),
    Target("limnoplan.report", "score_predictions", "evaluation.reference"),
    Target("limnoplan.report", "sample_curve", "evaluation.curve", _curve_cells),
    Target("limnoplan.report", "rank_features", "selection.rank"),
    Target("limnoplan.selection", "fit_forest", "models.forest", _forest),
    Target("limnoplan.report", "forward_selection", "selection.select"),
    Target("limnoplan.report", "aggregate_ranking", "selection.aggregate"),
    Target("limnoplan.report", "feasibility_grid", "joint.grid", _grid_cells),
    Target("limnoplan.report", "minimal_config", "joint.minimal"),
    Target("limnoplan.report", "aggregate_configs", "joint.aggregate"),
    Target("limnoplan.report", "StageCache.get", "report.cache_get", _cache_lookup),
    Target("limnoplan.report", "StageCache.put", "report.cache_put"),
    Target("limnoplan.report", "grid_from_dict", "report.cache_codec"),
    Target("limnoplan.report", "grid_to_dict", "report.cache_codec"),
    Target("limnoplan.report", "write_json", "report.write", _file),
    Target("limnoplan.report", "write_csv", "report.write", _file),
    Target("limnoplan.evaluation", "fit_ridge", None, _ridge),
]
