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

nMAE values are stored per (n, k) independent of the tolerance, so a
grid can be re-thresholded at a new tolerance without any refitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .dataset import SplitSeries
from .errors import EvaluationError
from .evaluation import SampleCurve, SizeGridSpec, prefix_nmae, require_full_fit
from .imputation import CompletedMatrix
from .models import DEFAULT_RIDGE_PENALTY
from .selection import FeatureRanking, SelectionResult, require_permutation

DEFAULT_TOLERANCE = 0.05
T = TypeVar("T")


def feasibility_threshold(reference: float, tolerance: float) -> float:
    """The largest nMAE within `tolerance` of `reference`: the feasibility rule of every search."""
    if not 0 < tolerance < math.inf:  # false for NaN too
        raise EvaluationError(f"tolerance must be finite and positive, got {tolerance}")
    return (1.0 + tolerance) * reference


def first_within(candidates: Iterable[T], nmae: dict[T, float], threshold: float) -> T | None:
    """The first of `candidates`, in search order, whose nMAE is at most `threshold`; one without an nMAE never is."""
    return next((c for c in candidates if nmae.get(c, math.nan) <= threshold), None)


@dataclass
class FeasibilityGrid:
    """Test nMAE per (n, k) plus the acceptance threshold; `from_nmae` also keeps the array as `values`."""

    lake_id: int
    n_grid: list[int]
    p: int
    n_pre: int
    feature_order: list[str]
    nmae: dict[tuple[int, int], float]
    excluded: set[tuple[int, int]]
    full_nmae: float
    tolerance: float
    values: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        feasibility_threshold(self.full_nmae, self.tolerance)  # rejects a tolerance that is not finite and positive

    @property
    def tau(self) -> float:
        return feasibility_threshold(self.full_nmae, self.tolerance)

    def feasible_pairs(self) -> list[tuple[int, int]]:
        tau = self.tau
        return sorted(pair for pair, value in self.nmae.items() if value <= tau)

    @classmethod
    def from_nmae(
        cls, lake_id: int, n_grid: list[int], order: Sequence[str], values: np.ndarray, tolerance: float
    ) -> FeasibilityGrid:
        """The grid of nMAE `values[i, k-1]` at (n_grid[i], k), keeping `values`; cells with n < k+1 are excluded."""
        p, n_pre = len(order), n_grid[-1]
        nmae: dict[tuple[int, int], float] = {}
        excluded: set[tuple[int, int]] = set()
        for n, row in zip(n_grid, values.tolist()):
            for k in range(1, p + 1):
                if n < k + 1:
                    excluded.add((n, k))
                else:
                    nmae[(n, k)] = row[k - 1]
        return cls(lake_id, n_grid, p, n_pre, list(order), nmae, excluded, nmae[(n_pre, p)], tolerance, values)

    def rethreshold(self, tolerance: float) -> "FeasibilityGrid":
        """Same evaluations, new tolerance; no refitting happens."""
        return replace(self, tolerance=tolerance)

    def curve(self) -> SampleCurve:
        """The all-features column at the sizes that fit every feature (n >= p+1), referenced to the full
        cell; n* is the smallest of those sizes within the grid's threshold, None if none is."""
        sizes = [n for n in self.n_grid if n > self.p]
        nmae_at = {n: self.nmae[(n, self.p)] for n in sizes}
        n_star = first_within(sorted(sizes), nmae_at, self.tau)
        return SampleCurve(sizes, nmae_at, self.full_nmae, n_star, self.tolerance)

    def selection(self) -> SelectionResult:
        """The full-pool row (n = N_pre): k* is the shortest ranking prefix within the grid's threshold."""
        nmae_by_k = {k: self.nmae[(self.n_pre, k)] for k in range(1, self.p + 1)}
        k_star = first_within(range(1, self.p + 1), nmae_by_k, self.tau)
        if k_star is None:
            raise EvaluationError("no ranking prefix is within tolerance of the all-features error")
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
    cells = ((n, k) for n in sorted(grid.n_grid) for k in range(1, grid.p + 1))
    found = first_within(cells, grid.nmae, grid.tau)
    n, k = found or (grid.n_pre, grid.p)
    return MinimalConfig(grid.lake_id, n, k, grid.feature_order[:k], fallback=found is None)


def aggregate_configs(configs: Sequence[MinimalConfig]) -> JointSummary:
    """Median/IQR of the per-lake minima plus lone-predictor frequencies.

    Fallback lakes enter the medians at their full configuration and
    are counted. IQR is Q3 - Q1 with linearly interpolated quantiles.
    Frequencies are tabulated over lakes whose minimum uses a single
    predictor and sum to 1 whenever any such lake exists.
    """
    if not configs:
        raise EvaluationError("no configurations to aggregate")

    n_values = np.array([c.n_hat for c in configs], dtype=float)
    k_values = np.array([c.k_hat for c in configs], dtype=float)

    def iqr(values: np.ndarray) -> float:
        q1, q3 = np.percentile(values, [25, 75])
        return float(q3 - q1)

    single = [c for c in configs if c.k_hat == 1]
    frequency: dict[str, float] = {}
    for config in single:
        name = config.selected_features[0]
        frequency[name] = frequency.get(name, 0.0) + 1.0
    frequency = {name: count / len(single) for name, count in sorted(frequency.items())}

    return JointSummary(
        median_n=float(np.median(n_values)),
        iqr_n=iqr(n_values),
        median_k=float(np.median(k_values)),
        iqr_k=iqr(k_values),
        feature_frequency=frequency,
        fallback_count=sum(1 for c in configs if c.fallback),
        n_lakes=len(configs),
    )
