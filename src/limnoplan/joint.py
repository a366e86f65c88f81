"""Joint search for the minimal (history length, feature count) pair.

For every grid size n and ranking prefix length k, the ridge forecaster
is trained on the n most recent pre-test rows with the top-k features
and scored on the fixed test block. A configuration is feasible when
its nMAE stays within (1 + tolerance) of the full-pool, all-features
reference; pairs with n < k+1 are excluded as ill-posed. The lake's
minimal configuration is the lexicographically smallest feasible pair
(n first, then k), falling back to the full configuration when nothing
smaller qualifies, so every lake gets a well-defined answer.

The grid answers the other two questions under the same threshold: its
all-features column is the sample curve, its full-pool row forward
selection. `sample_curve` and `forward_selection` read grids they build.

A grid keeps its nMAE values as one array, a row per size and a column
per k, independent of the tolerance, so it can be re-thresholded at a
new tolerance without any refitting; every reading is a scan of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import SplitSeries
from .errors import EvaluationError
from .evaluation import SampleCurve, SizeGridSpec, prefix_nmae, require_full_fit
from .imputation import CompletedMatrix
from .models import DEFAULT_RIDGE_PENALTY
from .selection import FeatureRanking, SelectionResult, require_permutation

DEFAULT_TOLERANCE = 0.05


def feasibility_threshold(reference: float, tolerance: float) -> float:
    """The largest nMAE within `tolerance` of `reference`: the feasibility rule of every search."""
    if not 0 < tolerance < math.inf:  # false for NaN too
        raise EvaluationError(f"tolerance must be finite and positive, got {tolerance}")
    return (1.0 + tolerance) * reference


class FeasibilityGrid:
    """Test nMAE `values[i, k-1]` at (n_grid[i], k), sizes ascending, NaN at every cell without a value
    (n < k+1); plus the acceptance threshold."""

    def __init__(
        self, lake_id: int, n_grid: list[int], p: int, n_pre: int, feature_order: list[str],
        nmae: dict[tuple[int, int], float] | None, excluded: Iterable[tuple[int, int]], full_nmae: float,
        tolerance: float, values: np.ndarray | None = None,
    ) -> None:
        """A grid of `values`, or of a hand-built `nmae` dict of (n, k) cells in their place. A cell the dict
        leaves out is NaN, as each of `excluded` is: a cell without a value is never feasible."""
        if nmae is not None:
            values, row = np.full((len(n_grid), p), math.nan), {n: i for i, n in enumerate(n_grid)}
            for (n, k), value in nmae.items():
                values[row[n], k - 1] = value
        self.lake_id, self.n_grid, self.p, self.n_pre, self.feature_order = lake_id, n_grid, p, n_pre, feature_order
        self.full_nmae, self.tolerance, self.values = full_nmae, tolerance, values
        feasibility_threshold(full_nmae, tolerance)  # rejects a tolerance that is not finite and positive

    @property
    def tau(self) -> float:
        return feasibility_threshold(self.full_nmae, self.tolerance)

    @property
    def nmae(self) -> dict[tuple[int, int], float]:
        """Every cell with a value, `(n, k): nMAE` in (n, k) order; built on each call, for readers outside the
        pipeline: every stage, `grid.csv`'s rows included, reads `values` and `feasible()`."""
        has = ~np.isnan(self.values)
        return dict(zip(((self.n_grid[i], j + 1) for i, j in np.argwhere(has).tolist()), self.values[has].tolist()))

    def feasible(self) -> np.ndarray:
        """Whether each cell's nMAE is at most tau; False, and not compared, where it has none."""
        return np.less_equal(self.values, self.tau, out=np.zeros(self.values.shape, bool), where=~np.isnan(self.values))

    def feasible_pairs(self) -> list[tuple[int, int]]:
        return [(self.n_grid[i], j + 1) for i, j in np.argwhere(self.feasible()).tolist()]

    @classmethod
    def from_nmae(
        cls, lake_id: int, n_grid: list[int], order: Sequence[str], values: np.ndarray, tolerance: float
    ) -> FeasibilityGrid:
        """The grid of `values` (NaN at n < k+1, as `prefix_nmae` writes them); its full cell is the last."""
        p, full_nmae = len(order), float(values[-1, -1])
        return cls(lake_id, n_grid, p, n_grid[-1], list(order), None, (), full_nmae, tolerance, values)

    def rethreshold(self, tolerance: float) -> FeasibilityGrid:
        """Same evaluations, new tolerance; no refitting happens."""
        return FeasibilityGrid(self.lake_id, self.n_grid, self.p, self.n_pre, self.feature_order, None, (),
                               self.full_nmae, tolerance, self.values)

    def curve(self) -> SampleCurve:
        """The all-features column at the sizes that fit every feature (n >= p+1), referenced to the full
        cell; n* is the smallest of those sizes within the grid's threshold, None if none is."""
        at = slice(int(np.searchsorted(self.n_grid, self.p, side="right")), None)  # sizes ascend: n > p, a suffix
        sizes, within = self.n_grid[at], self.feasible()[at, self.p - 1]
        n_star = sizes[int(within.argmax())] if within.any() else None
        nmae_at = dict(zip(sizes, self.values[at, self.p - 1].tolist()))
        return SampleCurve(sizes, nmae_at, self.full_nmae, n_star, self.tolerance)

    def selection(self) -> SelectionResult:
        """The full-pool row (n = N_pre): k* is the shortest ranking prefix within the grid's threshold."""
        row = self.n_grid.index(self.n_pre)
        within, nmae_by_k = self.feasible()[row], dict(zip(range(1, self.p + 1), self.values[row].tolist()))
        if not within.any():
            raise EvaluationError("no ranking prefix is within tolerance of the all-features error")
        k_star = int(within.argmax()) + 1
        return SelectionResult(k_star, self.feature_order[:k_star], nmae_by_k, self.full_nmae)


@dataclass(frozen=True)
class MinimalConfig:
    """A lake's minimal sufficient configuration."""

    lake_id: int
    n_hat: int
    k_hat: int
    selected_features: list[str]
    fallback: bool


@dataclass(frozen=True)
class JointSummary:
    median_n: float
    iqr_n: float
    median_k: float
    iqr_k: float
    feature_frequency: dict[str, float]
    fallback_count: int
    n_lakes: int


def feasibility_grid(
    split: SplitSeries,
    completed: CompletedMatrix,
    ranking: FeatureRanking,
    grid_spec: SizeGridSpec = SizeGridSpec(),
    tolerance: float = DEFAULT_TOLERANCE,
    penalty: float = DEFAULT_RIDGE_PENALTY,
) -> FeasibilityGrid:
    """Evaluate every admissible (n, k) cell of the grid in one engine call, one stacked solve per k."""
    p, order = len(completed.feature_schema), ranking.order
    require_permutation(order, completed.feature_schema)
    n_grid = grid_spec.resolve(split.n_pre, p)
    require_full_fit(split.n_pre, p)

    values = prefix_nmae(split, completed, n_grid, order, penalty)
    return FeasibilityGrid.from_nmae(split.pre.lake_id, n_grid, order, values, tolerance)


def sample_curve(
    split: SplitSeries,
    completed: CompletedMatrix,
    grid_spec: SizeGridSpec = SizeGridSpec(),
    tolerance: float = DEFAULT_TOLERANCE,
    penalty: float = DEFAULT_RIDGE_PENALTY,
) -> SampleCurve:
    """Test nMAE with the full feature set at the sizes of `grid_spec` that fit it (n >= p+1): the curve
    of a grid over those sizes only, so no smaller size is fit. A pool of fewer than p+1 rows is an
    EvaluationError.
    """
    schema = completed.feature_schema
    lo = next((n for n in grid_spec.resolve(split.n_pre, len(schema)) if n > len(schema)), split.n_pre)
    curve_spec = SizeGridSpec(n_min=lo, stride=grid_spec.stride)  # the sizes of `grid_spec` above p
    return feasibility_grid(split, completed, FeatureRanking({}, schema), curve_spec, tolerance, penalty).curve()


def forward_selection(
    split: SplitSeries,
    completed: CompletedMatrix,
    ranking: FeatureRanking,
    tolerance: float = DEFAULT_TOLERANCE,
    penalty: float = DEFAULT_RIDGE_PENALTY,
) -> SelectionResult:
    """Shortest ranking prefix within tolerance of the full-feature fit: the selection of the one-row grid
    at the whole pre-test pool, so only the feature count varies.
    """
    grid = feasibility_grid(split, completed, ranking, SizeGridSpec(n_min=split.n_pre), tolerance, penalty)
    return grid.selection()


def minimal_config(grid: FeasibilityGrid) -> MinimalConfig:
    """Lexicographic minimum of the feasible set (n first, then k).

    An empty feasible set falls back to the full configuration
    (N_pre, p), flagged, so the result is total.
    """
    feasible = grid.feasible()
    rows = np.flatnonzero(feasible.any(axis=1))  # sizes ascend: the first is the smallest n with a feasible cell
    n, k = (grid.n_grid[rows[0]], int(feasible[rows[0]].argmax()) + 1) if rows.size else (grid.n_pre, grid.p)
    return MinimalConfig(grid.lake_id, n, k, grid.feature_order[:k], fallback=not rows.size)


def aggregate_configs(configs: Sequence[MinimalConfig]) -> JointSummary:
    """Median/IQR of the per-lake minima plus lone-predictor frequencies.

    Fallback lakes enter the medians at their full configuration and
    are counted. IQR is Q3 - Q1 with linearly interpolated quantiles.
    Frequencies are tabulated over lakes whose minimum uses a single
    predictor and sum to 1 whenever any such lake exists.
    """
    if not configs:
        raise EvaluationError("no configurations to aggregate")

    # One call for both medians and all four quartiles: on integers the 50th percentile is the median exactly.
    values = np.array([[c.n_hat for c in configs], [c.k_hat for c in configs]], dtype=float)
    (q1_n, q1_k), (median_n, median_k), (q3_n, q3_k) = np.percentile(values, [25, 50, 75], axis=1).tolist()
    single = [c for c in configs if c.k_hat == 1]
    frequency: dict[str, float] = {}
    for config in single:
        name = config.selected_features[0]
        frequency[name] = frequency.get(name, 0.0) + 1.0
    frequency = {name: count / len(single) for name, count in sorted(frequency.items())}

    return JointSummary(
        median_n=median_n,
        iqr_n=q3_n - q1_n,
        median_k=median_k,
        iqr_k=q3_k - q1_k,
        feature_frequency=frequency,
        fallback_count=sum(1 for c in configs if c.fallback),
        n_lakes=len(configs),
    )
