"""Feature ranking and greedy forward selection.

A regression forest fit on the training pool supplies impurity-based
importance scores; sorting them descending gives the ranking. Forward
selection then refits the ridge forecaster on growing prefixes of that
ranking and keeps the shortest prefix whose test error stays within
tolerance of the all-features fit. Per-lake rankings can be averaged
into one cross-lake ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dataset import SplitSeries
from .errors import EvaluationError, SchemaError
from .evaluation import DEFAULT_TOLERANCE, feasibility_threshold, first_within, prefix_nmae, require_full_fit
from .imputation import CompletedMatrix
from .models import DEFAULT_RIDGE_PENALTY, ForestConfig, fit_forest


@dataclass
class FeatureRanking:
    """Importance scores and the descending name order they induce."""

    scores: dict[str, float]
    order: list[str]

    @classmethod
    def from_scores(cls, scores: dict[str, float]) -> FeatureRanking:
        """The scores and the order they induce: descending score, ties broken by name."""
        return cls(scores, [name for name, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))])


@dataclass
class SelectionResult:
    k_star: int
    subset: list[str]
    nmae_by_k: dict[int, float]
    full_nmae: float

    @classmethod
    def from_nmae(cls, values: Sequence[float], order: list[str], tolerance: float) -> SelectionResult:
        """The result for the nMAE `values` of every prefix of `order`, shortest first."""
        nmae_by_k = dict(enumerate(values, start=1))
        k_star = minimal_feature_count(nmae_by_k, nmae_by_k[len(order)], tolerance)
        return cls(k_star, order[:k_star], nmae_by_k, nmae_by_k[len(order)])


def require_permutation(order: Sequence[str], schema: Sequence[str]) -> None:
    """A SchemaError unless `order` names every feature of `schema` exactly once."""
    if sorted(order) != sorted(schema):
        raise SchemaError("ranking is not a permutation of the feature schema")


def minimal_feature_count(
    nmae_by_k: dict[int, float], full_nmae: float, tolerance: float = DEFAULT_TOLERANCE
) -> int:
    """Smallest prefix length within (1+tolerance) of the all-features error."""
    k = first_within(sorted(nmae_by_k), nmae_by_k, feasibility_threshold(full_nmae, tolerance))
    if k is None:
        raise EvaluationError("no ranking prefix is within tolerance of the all-features error")
    return k


def rank_features(
    split: SplitSeries,
    completed: CompletedMatrix,
    forest_config: ForestConfig = ForestConfig(),
) -> FeatureRanking:
    """Forest-importance ranking fit on all pre-test rows."""
    X = completed.values[split.pre_rows]
    y = split.pre.sdd
    importances = fit_forest(X, y, forest_config, feature_schema=completed.feature_schema)
    return FeatureRanking.from_scores({name: float(s) for name, s in zip(completed.feature_schema, importances)})


def forward_selection(
    split: SplitSeries,
    completed: CompletedMatrix,
    ranking: FeatureRanking,
    tolerance: float = DEFAULT_TOLERANCE,
    penalty: float = DEFAULT_RIDGE_PENALTY,
) -> SelectionResult:
    """Shortest ranking prefix within tolerance of the full-feature fit.

    Every prefix trains on the whole pre-test pool; only the feature
    count varies here.
    """
    require_permutation(ranking.order, completed.feature_schema)
    p = len(ranking.order)
    require_full_fit(split.n_pre, p)
    row = prefix_nmae(split, completed, [split.n_pre], ranking.order, penalty)[0]
    return SelectionResult.from_nmae(row.tolist(), ranking.order, tolerance)


def aggregate_ranking(per_lake: Sequence[FeatureRanking]) -> FeatureRanking:
    """Feature-wise mean of per-lake scores, re-sorted.

    Each lake's scores are normalized to unit sum first (all-zero score
    vectors stay zero), so data-rich lakes cannot dominate the average.
    """
    if not per_lake:
        raise SchemaError("no rankings to aggregate")
    names = sorted(per_lake[0].scores)
    for ranking in per_lake[1:]:
        if sorted(ranking.scores) != names:
            raise SchemaError("rankings disagree on the feature schema")

    totals = dict.fromkeys(names, 0.0)
    for ranking in per_lake:
        weight = sum(ranking.scores.values())
        for name in names:
            totals[name] += ranking.scores[name] / weight if weight > 0 else 0.0
    return FeatureRanking.from_scores({name: totals[name] / len(per_lake) for name in names})
