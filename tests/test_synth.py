"""Deterministic synthetic lakes and their gap mechanisms."""

import numpy as np
import pytest

from limnoplan.synth import SynthConfig, config_from_dict, generate_lake

from conftest import assert_same_series


class TestGenerate:
    def test_gap_free_when_fraction_zero(self):
        series, truth = generate_lake(SynthConfig(n_samples=50, missing_fraction=0.0, seed=0))
        assert not truth.missing_mask.any()
        assert not np.isnan(series.covariates).any()

    def test_mcar_fraction_concentrates(self):
        config = SynthConfig(
            n_samples=1000, n_features=4, missing_fraction=0.3, missing_mechanism="mcar", seed=3
        )
        series, truth = generate_lake(config)
        realized = truth.missing_mask.mean(axis=0)
        assert np.all(np.abs(realized - 0.3) <= 0.03)

    def test_deterministic_given_seed(self):
        config = SynthConfig(n_samples=80, missing_fraction=0.2, seed=11)
        a_series, a_truth = generate_lake(config)
        b_series, b_truth = generate_lake(config)
        assert_same_series(a_series, b_series)
        assert np.array_equal(a_truth.covariates, b_truth.covariates)
        assert np.array_equal(a_truth.missing_mask, b_truth.missing_mask)

    def test_different_seeds_differ(self):
        a, _ = generate_lake(SynthConfig(n_samples=40, seed=1))
        b, _ = generate_lake(SynthConfig(n_samples=40, seed=2))
        assert not (np.array_equal(a.sdd, b.sdd) and np.array_equal(a.covariates, b.covariates))

    def test_target_always_observed(self):
        series, _ = generate_lake(SynthConfig(n_samples=60, missing_fraction=0.5, seed=4))
        assert not np.isnan(series.sdd).any()

    def test_target_matches_generating_model(self):
        config = SynthConfig(n_samples=50, n_features=3, true_weights=(0.5, -0.2, 0.1), seed=6)
        series, truth = generate_lake(config)
        assert np.allclose(series.sdd, truth.sdd)
        assert np.array_equal(truth.weights, np.array([0.5, -0.2, 0.1]))

    def test_mar_missingness_tracks_driver(self):
        config = SynthConfig(
            n_samples=2000,
            n_features=3,
            missing_fraction=0.4,
            missing_mechanism="mar",
            mar_driver=0,
            mar_slope=2.0,
            seed=9,
        )
        series, truth = generate_lake(config)
        driver = truth.covariates[:, 0]
        top = driver >= np.median(driver)
        for j in (1, 2):
            high = truth.missing_mask[top, j].mean()
            low = truth.missing_mask[~top, j].mean()
            assert high > low + 0.1
        assert not truth.missing_mask[:, 0].any()  # driver stays observed
        # calibration keeps the marginal rate near the target
        assert np.abs(truth.missing_mask[:, 1:].mean() - 0.4) <= 0.05

    def test_cross_correlation_realized(self):
        config = SynthConfig(n_samples=3000, n_features=4, cross_correlation=0.8, seed=5)
        series, truth = generate_lake(config)
        # Residualize the annual harmonics so only the noise parts remain;
        # those share the configured common-factor correlation.
        phase = 2 * np.pi * np.array([d.timetuple().tm_yday for d in series.dates.tolist()]) / 365.25
        H = np.column_stack([np.sin(phase), np.cos(phase), np.ones_like(phase)])
        beta, *_ = np.linalg.lstsq(H, truth.covariates, rcond=None)
        resid = truth.covariates - H @ beta
        corr = np.corrcoef(resid.T)
        off_diag = corr[np.triu_indices(4, k=1)]
        assert off_diag.min() > 0.7

    def test_per_feature_fractions(self):
        config = SynthConfig(
            n_samples=800, n_features=3, missing_fraction=(0.0, 0.2, 0.5), seed=7
        )
        _, truth = generate_lake(config)
        realized = truth.missing_mask.mean(axis=0)
        assert realized[0] == 0.0
        assert abs(realized[1] - 0.2) < 0.05 and abs(realized[2] - 0.5) < 0.06


class TestValidation:
    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            generate_lake(SynthConfig(missing_fraction=1.0))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            generate_lake(SynthConfig(n_samples=3))

    def test_weights_length_mismatch(self):
        with pytest.raises(ValueError):
            generate_lake(SynthConfig(n_features=3, true_weights=(1.0,)))

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            generate_lake(SynthConfig(missing_mechanism="mnar"))

    def test_nonpositive_target_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            generate_lake(SynthConfig(intercept=-5.0, seed=0))

    def test_config_from_dict(self):
        payload = {
            "n_samples": 40,
            "n_features": 2,
            "true_weights": [1.0, 0.0],
            "start_date": "2001-05-04",
            "missing_fraction": [0.1, 0.0],
            "seed": 3,
        }
        config = config_from_dict(payload)
        series, _ = generate_lake(config)
        assert len(series) == 40
        assert series.dates[0].item().isoformat() == "2001-05-04"
