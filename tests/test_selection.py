"""Importance ranking, forward selection, cross-lake aggregation."""

import numpy as np
import pytest

from limnoplan.dataset import split_by_count
from limnoplan.errors import SchemaError
from limnoplan.joint import FeasibilityGrid, forward_selection
from limnoplan.models import ForestConfig
from limnoplan.selection import FeatureRanking, aggregate_ranking, rank_features
from limnoplan.synth import SynthConfig, generate_lake

from conftest import completed_from_series, series_from_arrays

FAST_FOREST = ForestConfig(n_trees=40, seed=0)


def _signal_lake(seed, weights, n=240, noise=0.2):
    config = SynthConfig(
        n_samples=n,
        n_features=len(weights),
        true_weights=tuple(weights),
        seasonal_amplitude=0.0,
        noise_sd=noise,
        seed=seed,
    )
    series, _ = generate_lake(config)
    return split_by_count(series, int(n * 0.7)), completed_from_series(series)


class TestRankFeatures:
    def test_constant_target_all_zero_lexicographic(self, rng):
        X = rng.normal(size=(30, 3))
        series = series_from_arrays(1, np.full(30, 2.0), X, ["g", "e", "f"])
        split = split_by_count(series, 20)
        ranking = rank_features(split, completed_from_series(series), FAST_FOREST)
        assert all(v == 0.0 for v in ranking.scores.values())
        assert ranking.order == ["e", "f", "g"]

    def test_single_informative_feature_tops_ranking(self):
        for seed in range(5):
            split, completed = _signal_lake(seed, (1.0, 0.0, 0.0, 0.0))
            ranking = rank_features(split, completed, ForestConfig(n_trees=40, seed=seed))
            assert ranking.order[0] == "x01"

    def test_order_is_a_permutation_of_schema(self, rng):
        p = 13
        X = rng.normal(size=(50, p))
        sdd = 4 + X[:, 2] + rng.normal(0, 0.3, 50)
        series = series_from_arrays(1, sdd, X, [f"f{j:02d}" for j in range(p)])
        split = split_by_count(series, 35)
        ranking = rank_features(split, completed_from_series(series), FAST_FOREST)
        assert len(ranking.order) == p
        assert sorted(ranking.order) == sorted(series.feature_schema)


def selection_of(nmae_by_k, full_nmae, tolerance=0.05):
    """The selection of a hand-built one-row grid (n = N_pre = p+1) with these prefix values."""
    p = len(nmae_by_k)
    nmae = {(p + 1, k): value for k, value in nmae_by_k.items()}
    order = [f"f{k}" for k in range(1, p + 1)]
    return FeasibilityGrid(1, [p + 1], p, p + 1, order, nmae, set(), full_nmae, tolerance).selection()


class TestForwardSelection:
    def test_threshold_arithmetic(self):
        result = selection_of({1: 0.30, 2: 0.21, 3: 0.20}, full_nmae=0.20, tolerance=0.05)
        assert (result.k_star, result.subset, result.full_nmae) == (2, ["f1", "f2"], 0.20)
        assert result.nmae_by_k == {1: 0.30, 2: 0.21, 3: 0.20}

    def test_single_feature_is_vacuous(self):
        split, completed = _signal_lake(3, (1.0,))
        ranking = rank_features(split, completed, FAST_FOREST)
        result = forward_selection(split, completed, ranking)
        assert result.k_star == 1 and result.subset == ["x01"]

    def test_one_signal_feature_selects_it_alone(self):
        split, completed = _signal_lake(0, (1.0, 0.0, 0.0, 0.0))
        ranking = rank_features(split, completed, FAST_FOREST)
        result = forward_selection(split, completed, ranking)
        assert result.k_star == 1
        assert result.subset == ["x01"]

    def test_two_equal_signals_need_two_features(self):
        split, completed = _signal_lake(1, (1.0, 1.0, 0.0, 0.0))
        ranking = rank_features(split, completed, FAST_FOREST)
        result = forward_selection(split, completed, ranking)
        assert result.k_star == 2
        assert set(result.subset) == {"x01", "x02"}

    def test_full_prefix_equals_reference_and_minimality(self):
        split, completed = _signal_lake(2, (1.0, -0.5, 0.3, 0.0, 0.0))
        ranking = rank_features(split, completed, FAST_FOREST)
        result = forward_selection(split, completed, ranking)
        p = len(completed.feature_schema)
        assert result.nmae_by_k[p] == result.full_nmae
        threshold = 1.05 * result.full_nmae
        for k in range(1, result.k_star):
            assert result.nmae_by_k[k] > threshold
        assert result.subset == ranking.order[: result.k_star]

    def test_ranking_must_cover_schema(self):
        split, completed = _signal_lake(4, (1.0, 0.0))
        bad = FeatureRanking(scores={"x01": 1.0}, order=["x01"])
        with pytest.raises(SchemaError):
            forward_selection(split, completed, bad)


class TestAggregateRanking:
    def test_single_lake_identity(self):
        ranking = FeatureRanking(scores={"a": 0.7, "b": 0.3}, order=["a", "b"])
        agg = aggregate_ranking([ranking])
        assert agg.scores == pytest.approx(ranking.scores)
        assert agg.order == ranking.order

    def test_tie_broken_by_name(self):
        one = FeatureRanking(scores={"A": 0.6, "B": 0.4}, order=["A", "B"])
        two = FeatureRanking(scores={"A": 0.4, "B": 0.6}, order=["B", "A"])
        agg = aggregate_ranking([one, two])
        assert agg.scores["A"] == pytest.approx(0.5)
        assert agg.scores["B"] == pytest.approx(0.5)
        assert agg.order == ["A", "B"]

    def test_shared_dominant_driver_wins_globally(self):
        rankings = []
        for seed in range(3):
            split, completed = _signal_lake(seed + 10, (1.2, 0.2, 0.0))
            rankings.append(rank_features(split, completed, ForestConfig(n_trees=40, seed=seed)))
        agg = aggregate_ranking(rankings)
        assert agg.order[0] == "x01"

    def test_order_invariance(self, rng):
        rankings = [
            FeatureRanking(scores={"a": 0.2, "b": 0.8}, order=["b", "a"]),
            FeatureRanking(scores={"a": 0.9, "b": 0.1}, order=["a", "b"]),
            FeatureRanking(scores={"a": 0.5, "b": 0.5}, order=["a", "b"]),
        ]
        baseline = aggregate_ranking(rankings)
        for _ in range(4):
            shuffled = [rankings[i] for i in rng.permutation(3)]
            again = aggregate_ranking(shuffled)
            assert again.scores == pytest.approx(baseline.scores)
            assert again.order == baseline.order

    def test_per_lake_normalization(self):
        # A lake with twice the raw score mass must not dominate.
        big = FeatureRanking(scores={"a": 1.6, "b": 0.4}, order=["a", "b"])
        small = FeatureRanking(scores={"a": 0.1, "b": 0.9}, order=["b", "a"])
        agg = aggregate_ranking([big, small])
        assert agg.scores["a"] == pytest.approx((0.8 + 0.1) / 2)

    def test_schema_mismatch_errors(self):
        one = FeatureRanking(scores={"a": 1.0}, order=["a"])
        two = FeatureRanking(scores={"b": 1.0}, order=["b"])
        with pytest.raises(SchemaError):
            aggregate_ranking([one, two])

    def test_empty_errors(self):
        with pytest.raises(SchemaError):
            aggregate_ranking([])
