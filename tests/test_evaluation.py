"""Metrics, the recent-history protocol, sample curves, complete-case."""

import warnings

import numpy as np
import pytest

from limnoplan.dataset import split_by_count
from limnoplan.errors import EvaluationError
from limnoplan.evaluation import (
    SizeGridSpec,
    backward_eval,
    complete_case_eval,
    fit_reference,
    mae,
    nmae,
    score_predictions,
)
from limnoplan.imputation import initialize_fill
from limnoplan.joint import FeasibilityGrid, sample_curve
from limnoplan.models import fit_ridge, predict_ridge
from limnoplan.synth import SynthConfig, generate_lake

from conftest import completed_from_series, series_from_arrays


class TestMae:
    def test_identical_vectors(self):
        assert mae(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_arithmetic(self):
        assert mae(np.array([1.0, 2.0]), np.array([2.0, 4.0])) == 1.5

    def test_empty_errors(self):
        with pytest.raises(EvaluationError):
            mae(np.array([]), np.array([]))

    def test_length_mismatch(self):
        with pytest.raises(EvaluationError):
            mae(np.ones(3), np.ones(4))

    def test_translation_property(self, rng):
        for _ in range(10):
            y = rng.normal(size=20)
            y_hat = rng.normal(size=20)
            c = float(rng.normal())
            assert mae(y + c, y_hat + c) == pytest.approx(mae(y, y_hat))


class TestNmae:
    def test_perfect_predictions(self):
        y = np.array([2.0, 3.0])
        assert nmae(y, y) == 0.0

    def test_shallow_lake_contrast_value(self):
        # MAE 0.80 m on a 2.14 m mean-clarity test block.
        y = np.array([2.14 - 0.5, 2.14 + 0.5])
        y_hat = y + np.array([0.80, -0.80])
        assert mae(y, y_hat) == pytest.approx(0.80)
        assert nmae(y, y_hat) == pytest.approx(0.374, abs=0.005)
        assert round(nmae(y, y_hat), 2) == 0.37

    def test_deep_lake_contrast_value(self):
        # MAE 0.74 m on a 6.43 m mean-clarity test block.
        y = np.array([6.43, 6.43])
        y_hat = y + np.array([0.74, -0.74])
        assert nmae(y, y_hat) == pytest.approx(0.115, abs=0.005)
        assert round(nmae(y, y_hat), 2) == 0.12

    def test_scale_invariance(self, rng):
        for _ in range(10):
            y = rng.uniform(1, 5, size=15)
            y_hat = y + rng.normal(0, 0.5, size=15)
            c = float(rng.uniform(0.1, 10))
            assert nmae(c * y, c * y_hat) == pytest.approx(nmae(y, y_hat))

    def test_nonpositive_normalizer_errors(self):
        with pytest.raises(EvaluationError):
            nmae(np.array([1.0, -1.0]), np.array([1.0, -1.0]))

    def test_non_finite_result_errors(self):
        with pytest.raises(EvaluationError):
            nmae(np.array([2.0, np.nan]), np.array([2.0, 2.0]))


class TestScorePredictions:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_input_errors_without_warnings(self, bad):
        y = np.array([1.0, 2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError):
                score_predictions(np.array([1.0, bad, 3.0]), y)


def assert_metrics_close(a, b, tol=1e-11):
    assert a.mae == pytest.approx(b.mae, rel=tol, abs=tol)
    assert a.nmae == pytest.approx(b.nmae, rel=tol, abs=tol)


def _linear_lake(rng, n=60, p=3, noise=0.1):
    X = rng.normal(size=(n, p))
    w = np.array([1.0, -0.5, 0.25][:p])
    sdd = 5.0 + X @ w + rng.normal(0, noise, n)
    schema = [f"f{j}" for j in range(p)]
    series = series_from_arrays(1, sdd, X, schema)
    return series, split_by_count(series, int(n * 0.7)), completed_from_series(series)


class TestBackwardEval:
    def test_full_pool_equals_reference_metrics(self, rng):
        series, split, completed = _linear_lake(rng)
        metrics = backward_eval(split, completed, split.n_pre, completed.feature_schema)
        model, _, _ = fit_reference(split, completed, completed.feature_schema)
        y_test = split.test.sdd
        expected = score_predictions(y_test, predict_ridge(model, completed.values[split.test_rows]))
        assert_metrics_close(metrics, expected)

    def test_smallest_legal_fit_runs(self, rng):
        series, split, completed = _linear_lake(rng)
        k = len(completed.feature_schema)
        metrics = backward_eval(split, completed, k + 1, completed.feature_schema)
        assert np.isfinite(metrics.mae) and np.isfinite(metrics.nmae)

    def test_out_of_range_n_errors(self, rng):
        series, split, completed = _linear_lake(rng)
        with pytest.raises(EvaluationError):
            backward_eval(split, completed, split.n_pre + 1, completed.feature_schema)
        with pytest.raises(EvaluationError):
            backward_eval(split, completed, len(completed.feature_schema), completed.feature_schema)

    def test_unknown_feature_errors(self, rng):
        series, split, completed = _linear_lake(rng)
        with pytest.raises(EvaluationError):
            backward_eval(split, completed, split.n_pre, ["nope"])

    def test_window_isolation(self, rng):
        # Values outside the trailing window must not affect the result.
        series, split, completed = _linear_lake(rng)
        n = 12
        metrics = backward_eval(split, completed, n, completed.feature_schema)
        tampered = initialize_fill(completed.values.copy(), completed.feature_schema)
        outside = split.pre_rows[:-n]
        tampered.values[outside] += 99.0
        again = backward_eval(split, tampered, n, completed.feature_schema)
        assert_metrics_close(metrics, again)

    def test_feature_subset_restricts_design(self, rng):
        series, split, completed = _linear_lake(rng)
        metrics = backward_eval(split, completed, split.n_pre, ["f1"])
        X_pre = completed.values[split.pre_rows][:, [1]]
        y_pre = split.pre.sdd
        model = fit_ridge(X_pre, y_pre, 1.0, feature_schema=["f1"])
        y_test = split.test.sdd
        expected = score_predictions(
            y_test, predict_ridge(model, completed.values[split.test_rows][:, [1]])
        )
        assert_metrics_close(metrics, expected)


def curve_of(nmae_at, reference, tolerance=0.05):
    """The curve of a hand-built one-feature grid: these all-features values and this full-cell nMAE."""
    sizes = list(nmae_at)
    nmae = {(n, 1): value for n, value in nmae_at.items()}
    return FeasibilityGrid(1, sizes, 1, sizes[-1], ["x"], nmae, set(), reference, tolerance).curve()


class TestSampleCurve:
    def test_minimal_size_threshold_arithmetic(self):
        curve = curve_of({50: 0.30, 100: 0.22, 150: 0.21, 200: 0.20}, reference=0.20, tolerance=0.05)
        assert curve.n_star == 150
        assert (curve.grid, curve.reference_nmae, curve.tolerance) == ([50, 100, 150, 200], 0.20, 0.05)

    def test_minimal_size_flat_curve(self):
        assert curve_of(dict.fromkeys([10, 20, 30], 0.2), reference=0.2, tolerance=0.05).n_star == 10

    def test_minimal_size_none_when_unreachable(self):
        assert curve_of({10: 1.0, 20: 0.5}, reference=0.1, tolerance=0.05).n_star is None

    def test_curve_keeps_the_sizes_that_fit_every_feature(self):
        # p = 2: size 2 has no all-features cell (2 < p+1), so the curve starts at 3; the feasible (2, 1) is not on it.
        nmae = {(2, 1): 0.1, (3, 1): 0.5, (3, 2): 0.1, (5, 1): 0.4, (5, 2): 0.3, (8, 1): 0.3, (8, 2): 0.2}
        grid = FeasibilityGrid(1, [2, 3, 5, 8], 2, 8, ["a", "b"], nmae, {(2, 2)}, 0.2, 0.05)
        curve = grid.curve()
        assert (curve.grid, curve.nmae_at, curve.n_star) == ([3, 5, 8], {3: 0.1, 5: 0.3, 8: 0.2}, 3)

    def test_curve_reference_is_full_pool_value(self, rng):
        series, split, completed = _linear_lake(rng, n=80)
        curve = sample_curve(split, completed, SizeGridSpec(stride=3))
        assert curve.reference_nmae == curve.nmae_at[split.n_pre]
        assert split.n_pre in curve.grid

    def test_n_star_satisfies_threshold_and_minimality(self, rng):
        series, split, completed = _linear_lake(rng, n=90)
        curve = sample_curve(split, completed, SizeGridSpec(stride=2))
        threshold = 1.05 * curve.reference_nmae
        assert curve.n_star is not None
        assert curve.nmae_at[curve.n_star] <= threshold
        # Independently coded scan.
        expected = None
        for n in sorted(curve.grid):
            if curve.nmae_at[n] <= threshold:
                expected = n
                break
        assert curve.n_star == expected

    def test_grid_below_full_fit_errors(self, rng):
        # Grid sizes below p+1 leave the curve; only a pool too short for the full fit is an error.
        series, split, completed = _linear_lake(rng)
        p = len(completed.feature_schema)
        curve = sample_curve(split, completed, SizeGridSpec(n_min=2))
        assert curve.grid == list(range(p + 1, split.n_pre + 1))
        assert curve == sample_curve(split, completed, SizeGridSpec(n_min=p + 1))
        with pytest.raises(EvaluationError):
            sample_curve(split_by_count(series, p), completed, SizeGridSpec(n_min=2))

    def test_grid_spec_always_includes_endpoint(self):
        spec = SizeGridSpec(n_min=5, stride=7)
        grid = spec.resolve(30, 3)
        assert grid[0] == 5 and grid[-1] == 30
        assert grid == sorted(set(grid))

    def test_stationary_lake_midpoint_close_to_reference(self):
        config = SynthConfig(
            n_samples=500,
            n_features=4,
            seasonal_amplitude=0.0,
            noise_sd=0.4,
            true_weights=(1.0, -0.7, 0.4, 0.0),
            seed=11,
        )
        series, _ = generate_lake(config)
        split = split_by_count(series, 400)
        completed = completed_from_series(series)
        mid = backward_eval(split, completed, 200, completed.feature_schema).nmae
        full = backward_eval(split, completed, 400, completed.feature_schema).nmae
        assert mid <= 1.05 * full


class TestCompleteCase:
    def test_gap_free_equals_backward_eval(self, rng):
        series, split, completed = _linear_lake(rng)
        via_deletion = complete_case_eval(split, split.n_pre, completed.feature_schema)
        via_matrix = backward_eval(split, completed, split.n_pre, completed.feature_schema)
        assert_metrics_close(via_deletion, via_matrix)

    def test_deletion_down_to_k_rows_errors(self, rng):
        n, p = 12, 3
        X = rng.normal(size=(n, p))
        X[: n - p - 4, 0] = np.nan  # leave too few complete pre rows
        sdd = rng.uniform(2, 4, n)
        series = series_from_arrays(1, sdd, X, [f"f{j}" for j in range(p)])
        split = split_by_count(series, 8)
        with pytest.raises(EvaluationError):
            complete_case_eval(split, None, series.feature_schema)

    def test_requesting_more_than_complete_errors(self, rng):
        series, split, completed = _linear_lake(rng)
        with pytest.raises(EvaluationError):
            complete_case_eval(split, split.n_pre + 1, completed.feature_schema)
