"""Warm start, chained sweeps, convergence, and mask discipline."""

import numpy as np
import pytest

from limnoplan.errors import ImputationError
from limnoplan.imputation import (
    CompletedMatrix,
    ImputeReport,
    ImputeConfig,
    impute_series,
    initialize_fill,
    mice_impute,
)
from limnoplan.models import solve_standardized_ridge
from limnoplan.synth import SynthConfig, generate_lake

from conftest import series_from_arrays


def oracle_column_ridge(x_obs, y_obs, x_query, penalty):
    """Closed-form one-regressor ridge on standardized x, explicit arithmetic."""
    mean_x, std_x = x_obs.mean(), x_obs.std()
    std_x = std_x if std_x > 0 else 1.0
    xs = (x_obs - mean_x) / std_x
    yc = y_obs - y_obs.mean()
    w = (xs @ yc) / (xs @ xs + penalty)
    return y_obs.mean() + w * (x_query - mean_x) / std_x


def oracle_column_fit(values, gaps, j, penalty, rng):
    """One conditional fit written out in full: the column-major `values[obs][:, others]` gather,
    `X.std`, `(X - means) / stds` and the Cholesky solve. The reference for every bit of a fit."""
    others = [c for c in range(values.shape[1]) if c != j]
    X_obs, y_obs, X_mis = values[~gaps][:, others], values[~gaps, j], values[gaps][:, others]
    means = X_obs.mean(axis=0)
    stds = np.where(X_obs.max(axis=0) > X_obs.min(axis=0), X_obs.std(axis=0), 1.0)
    Xs = (X_obs - means) / stds
    intercept = y_obs.mean()
    w = solve_standardized_ridge(Xs, y_obs - intercept, penalty)
    preds = intercept + ((X_mis - means) / stds) @ w
    if rng is not None:
        resid = y_obs - (intercept + Xs @ w)
        preds = preds + rng.normal(0.0, float(resid.std()), size=preds.shape)
    return preds


def oracle_mice_impute(matrix, config):
    """Chained imputation as a loop of whole sweeps, each finding its columns' rows again: the reference."""
    completed = initialize_fill(matrix)
    mask = completed.imputed_mask
    rng = np.random.default_rng(config.seed) if config.add_noise else None
    n_missing = mask.sum(axis=0)
    visit = sorted(range(mask.shape[1]), key=lambda j: (n_missing[j], j))
    sweeps, delta = 0, 0.0
    for _ in range(config.max_sweeps):
        values, delta = completed.values.copy(), 0.0
        for j in visit:
            gaps = mask[:, j]
            if not gaps.any():
                continue
            preds = oracle_column_fit(values, gaps, j, config.ridge_penalty, rng)
            delta = max(delta, float(np.abs(preds - values[gaps, j]).max()))
            values[gaps, j] = preds
        completed = CompletedMatrix(values, completed.feature_schema, mask)
        sweeps += 1
        if delta <= config.convergence_tol:
            break
    fill_counts = {name: int(mask[:, j].sum()) for j, name in enumerate(completed.feature_schema)}
    return completed, ImputeReport(sweeps, delta, delta <= config.convergence_tol, fill_counts)


class TestInitializeFill:
    def test_complete_matrix_unchanged(self, rng):
        M = rng.normal(size=(6, 3))
        out = initialize_fill(M)
        assert np.array_equal(out.values, M)
        assert not out.imputed_mask.any()

    def test_column_mean_fill(self):
        M = np.array([[1.0], [np.nan], [3.0]])
        out = initialize_fill(M, ["a"])
        assert out.values[1, 0] == 2.0
        assert out.imputed_mask[1, 0] and out.imputed_mask.sum() == 1

    def test_all_missing_column_errors_with_name(self):
        M = np.array([[np.nan, 1.0], [np.nan, 2.0]])
        with pytest.raises(ImputationError, match="oxy"):
            initialize_fill(M, ["oxy", "tmp"])


class TestSweep:
    """One sweep from the column-mean fill: `mice_impute` at `max_sweeps=1`."""

    def test_nothing_to_impute(self, rng):
        M = rng.normal(size=(8, 3))
        out, report = mice_impute(M, ImputeConfig(max_sweeps=1))
        assert report.final_delta == 0.0
        assert np.array_equal(out.values, M)

    def test_linearly_dependent_cell_matches_closed_form_oracle(self):
        # Column b is exactly 2a; one masked b cell must come back as the
        # penalized fit predicts, within 1e-6 of the true 2a value.
        n = 10_000
        a = np.linspace(-1.0, 1.0, n)
        b = 2.0 * a
        M = np.column_stack([a, b])
        masked_row = 4321
        M[masked_row, 1] = np.nan
        config = ImputeConfig(max_sweeps=1, ridge_penalty=1e-3)

        out, _ = mice_impute(M, config, ["a", "b"])

        obs = np.ones(n, dtype=bool)
        obs[masked_row] = False
        expected = oracle_column_ridge(a[obs], b[obs], a[masked_row], 1e-3)
        assert out.values[masked_row, 1] == pytest.approx(expected, abs=1e-10)
        assert abs(out.values[masked_row, 1] - 2.0 * a[masked_row]) <= 1e-6

    def test_two_masked_cells_in_different_columns(self, rng):
        M = rng.normal(size=(12, 3))
        M[2, 0] = np.nan
        M[7, 1] = np.nan
        original = M.copy()
        out, report = mice_impute(M, ImputeConfig(max_sweeps=1))
        assert np.isfinite(report.final_delta)
        observed = ~np.isnan(original)
        assert np.array_equal(out.values[observed], original[observed])
        assert np.isfinite(out.values).all()

    def test_zero_penalty_rank_deficient_errors(self):
        # The two predictor columns are identical, so the penalty-free
        # conditional fit for the gappy third column is singular.
        col = np.arange(6.0)
        M = np.column_stack([col, col, col * 0.5])
        M[3, 2] = np.nan
        with pytest.raises(ImputationError):
            mice_impute(M, ImputeConfig(max_sweeps=1, ridge_penalty=0.0))


class TestImpute:
    def test_complete_matrix_fixed_point(self, rng):
        M = rng.normal(size=(9, 4))
        out, report = mice_impute(M)
        assert report.sweeps == 1 and report.final_delta == 0.0 and report.converged
        assert np.array_equal(out.values, M)

    def test_observed_cells_bit_identical_and_gap_free(self, rng):
        M = rng.normal(size=(40, 5))
        mask = rng.random(M.shape) < 0.25
        mask[0] = False  # keep every column anchored
        M[mask] = np.nan
        original = M.copy()
        out, report = mice_impute(M)
        assert not np.isnan(out.values).any()
        observed = ~mask
        assert np.array_equal(out.values[observed], original[observed])
        assert np.array_equal(out.imputed_mask, mask)
        assert report.fill_counts == {
            f"x{j}": int(mask[:, j].sum()) for j in range(5)
        }

    @pytest.mark.parametrize("noise", [False, True], ids=["plain", "noise"])
    def test_matches_the_per_sweep_oracle_bit_for_bit(self, noise):
        rng = np.random.default_rng(2024)
        for trial in range(12):
            rows, cols = int(rng.integers(8, 60)), int(rng.integers(2, 7))
            M = rng.normal(size=(rows, cols)) @ rng.normal(size=(cols, cols))
            mask = rng.random(M.shape) < rng.uniform(0.05, 0.5)
            mask[:, rng.integers(cols)] = False  # a fully observed column
            mask[rng.integers(rows)] = False  # no column entirely missing
            M[mask] = np.nan
            config = ImputeConfig(max_sweeps=int(rng.integers(1, 15)), add_noise=noise, seed=trial)
            (out, report), (want, want_report) = mice_impute(M, config), oracle_mice_impute(M, config)
            assert out.values.tobytes() == want.values.tobytes(), trial
            assert np.array_equal(out.imputed_mask, want.imputed_mask) and report == want_report, trial

    @pytest.mark.parametrize(
        "case",
        [
            dict(),
            dict(add_noise=True),
            dict(ridge_penalty=0.0),
            dict(constant=True),
            dict(constant=True, add_noise=True),
            dict(n_features=2),
            dict(n_features=1),
            dict(mechanism="mar", n_features=12, n_samples=400),
        ],
        ids=["plain", "noise", "penalty-0", "constant", "constant-noise", "two-columns", "one-column", "mar-12"],
    )
    def test_synth_lakes_match_the_oracle_bit_for_bit(self, case):
        case = dict(case)
        constant = case.pop("constant", False)
        lake = dict(n_features=case.pop("n_features", 6), n_samples=case.pop("n_samples", 160))
        mechanism = case.pop("mechanism", "mcar")
        for seed in range(3):
            series, _ = generate_lake(
                SynthConfig(
                    **lake, cross_correlation=0.3, missing_fraction=0.3, missing_mechanism=mechanism, seed=seed
                )
            )
            matrix = series.covariates.copy()
            if constant:
                matrix[~np.isnan(matrix[:, 0]), 0] = 0.1  # twelve 0.1s have a computed std of 1e-17
            config = ImputeConfig(seed=seed, **case)
            (out, report), (want, want_report) = mice_impute(matrix, config), oracle_mice_impute(matrix, config)
            assert out.values.tobytes() == want.values.tobytes(), seed
            assert report == want_report, seed

    def test_impute_series_leaves_the_series_gappy(self):
        series, truth = generate_lake(SynthConfig(n_samples=60, missing_fraction=0.3, seed=8))
        before = series.covariates.copy()
        completed, _ = impute_series(series)
        assert not np.isnan(completed.values).any()
        assert np.array_equal(series.covariates, before, equal_nan=True)
        assert np.array_equal(np.isnan(series.covariates), truth.missing_mask)

    def test_deterministic_given_seed(self, rng):
        M = rng.normal(size=(30, 4))
        M[rng.random(M.shape) < 0.2] = np.nan
        for noise in (False, True):
            config = ImputeConfig(add_noise=noise, seed=99)
            a, _ = mice_impute(M.copy(), config)
            b, _ = mice_impute(M.copy(), config)
            assert np.array_equal(a.values, b.values)

    def test_noise_seed_changes_filled_cells_only(self, rng):
        M = rng.normal(size=(30, 4))
        mask = rng.random(M.shape) < 0.2
        M[mask] = np.nan
        a, _ = mice_impute(M.copy(), ImputeConfig(add_noise=True, seed=1))
        b, _ = mice_impute(M.copy(), ImputeConfig(add_noise=True, seed=2))
        assert not np.array_equal(a.values, b.values)
        assert np.array_equal(a.values[~mask], b.values[~mask])

    def test_deltas_finite_and_loop_bounded(self, rng):
        M = rng.normal(size=(25, 3))
        M[rng.random(M.shape) < 0.3] = np.nan
        for max_sweeps in range(1, 13):
            _, report = mice_impute(M, ImputeConfig(max_sweeps=max_sweeps))
            assert np.isfinite(report.final_delta) and report.sweeps <= max_sweeps

    def test_mcar_linear_structure_recovered(self):
        # Columns are jointly Gaussian with known linear structure, so the
        # exact conditional sd of each masked cell given its row's observed
        # cells is available in closed form; imputations should land within
        # three of those sds almost always.
        rng = np.random.default_rng(42)
        n = 400
        z1 = rng.normal(size=n)
        z2 = 1.5 * z1 + rng.normal(0, 0.3, n)
        z3 = -z1 + 0.5 * z2 + rng.normal(0, 0.3, n)
        truth = np.column_stack([z1, z2, z3])
        lin_map = np.array([[1.0, 0, 0], [1.5, 1.0, 0], [-0.25, 0.5, 1.0]])
        cov = lin_map @ np.diag([1.0, 0.09, 0.09]) @ lin_map.T

        M = truth.copy()
        mask = rng.random(M.shape) < 0.2
        M[mask] = np.nan
        out, _ = mice_impute(M, ImputeConfig(max_sweeps=40))

        within = []
        for t, j in zip(*np.where(mask)):
            obs = [c for c in range(3) if c != j and not mask[t, c]]
            if obs:
                cond_var = cov[j, j] - cov[j, obs] @ np.linalg.inv(cov[np.ix_(obs, obs)]) @ cov[obs, j]
            else:
                cond_var = cov[j, j]
            within.append(abs(out.values[t, j] - truth[t, j]) <= 3 * np.sqrt(cond_var))
        assert np.mean(within) >= 0.95

    def test_target_never_in_matrix(self):
        config = SynthConfig(n_samples=60, n_features=4, missing_fraction=0.2, seed=5)
        series, _ = generate_lake(config)
        completed, _ = impute_series(series)
        assert completed.values.shape[1] == 4
        assert completed.feature_schema == series.feature_schema
        assert "zS_m" not in completed.feature_schema

    def test_column_count_conserved(self, rng):
        sdd = rng.uniform(1, 5, 20)
        X = rng.normal(size=(20, 3))
        X[rng.random((20, 3)) < 0.2] = np.nan
        series = series_from_arrays(1, sdd, X, ["a", "b", "c"])
        completed, _ = impute_series(series)
        assert completed.values.shape == (20, 3)
