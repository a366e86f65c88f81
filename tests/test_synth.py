"""Deterministic synthetic lakes and their gap mechanisms.

`TestOracle` holds the generator and the writer to the per-element
code they replaced: `oracle_generate_lake` draws the AR(1) noise one
scalar `rng.normal` at a time and calibrates MAR gaps with a full
200-step bisection for every covariate, and `oracle_write_series_csv`
formats one cell at a time through `csv.writer`. Both must give the
same CSV text and the same truth arrays, bit for bit. Tier-1 runs on
the numpy floor too, so this also checks there that one vector normal
draw equals as many scalar draws.
"""

import csv
import io
import math
import random

import numpy as np
import pytest

from limnoplan.dataset import (
    DATE_COLUMN,
    ID_COLUMN,
    NAME_COLUMN,
    SDD_COLUMN,
    SECCBOT_COLUMN,
    LakeSeries,
    write_series_csv,
)
from limnoplan.synth import (
    AR_COEFF,
    DAYS_PER_YEAR,
    SynthConfig,
    _calibrated_probs,
    _sigmoid,
    config_from_dict,
    generate_lake,
)

from conftest import assert_same_series


def oracle_calibrated_probs(z, slope, target):
    """Logistic gap probabilities by a fixed 200-step bisection (the reference)."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _sigmoid(slope * z + mid).mean() < target:
            lo = mid
        else:
            hi = mid
    return _sigmoid(slope * z + 0.5 * (lo + hi))


def oracle_generate_lake(config):
    """The generator with one scalar draw per AR(1) step and one calibration per MAR covariate (the reference)."""
    rng = np.random.default_rng(config.seed)
    T, p = config.n_samples, config.n_features
    weights = config.weights()
    fractions = config.fractions()
    names = config.feature_names()

    dates = np.datetime64(config.start_date, "D") + np.arange(T) * config.sampling_interval_days
    day_of_year = (dates - dates.astype("datetime64[Y]")).astype(int) + 1
    doy_phase = 2.0 * np.pi * day_of_year / DAYS_PER_YEAR

    def ar1_path():
        innovation_sd = np.sqrt(1.0 - AR_COEFF**2)
        noise = np.empty(T)
        noise[0] = rng.normal(0.0, 1.0)
        for t in range(1, T):
            noise[t] = AR_COEFF * noise[t - 1] + rng.normal(0.0, innovation_sd)
        return noise

    shared = ar1_path()
    c = config.cross_correlation
    X = np.empty((T, p))
    for j in range(p):
        amplitude = rng.uniform(0.5, 1.5)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        own = ar1_path()
        X[:, j] = amplitude * np.sin(doy_phase + phase) + np.sqrt(c) * shared + np.sqrt(1.0 - c) * own

    sdd = (
        config.intercept
        + X @ weights
        + config.seasonal_amplitude * np.sin(doy_phase)
        + rng.normal(0.0, config.noise_sd, size=T)
    )

    mask = np.zeros((T, p), dtype=bool)
    for j in range(p):
        if fractions[j] == 0:
            continue
        if config.missing_mechanism == "mcar":
            mask[:, j] = rng.random(T) < fractions[j]
        else:
            if j == config.mar_driver:
                continue
            driver = X[:, config.mar_driver]
            z = (driver - driver.mean()) / driver.std()
            probs = oracle_calibrated_probs(z, config.mar_slope, fractions[j])
            mask[:, j] = rng.random(T) < probs

    series = LakeSeries(
        lake_id=config.lake_id,
        name=config.lake_name,
        dates=dates,
        sdd=sdd.copy(),
        covariates=np.where(mask, np.nan, X),
        feature_schema=names,
        sdd_to_bottom=np.zeros(T, dtype=bool),
    )
    return series, (weights, X, sdd, mask)


def oracle_write_series_csv(series, stream):
    """One `writerow` per visit, one formatted cell at a time (the reference)."""

    def format_cell(value):
        return "" if math.isnan(value) else repr(value)

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([ID_COLUMN, NAME_COLUMN, DATE_COLUMN, SECCBOT_COLUMN, SDD_COLUMN, *series.feature_schema])
    for day, flag, sdd, covariates in zip(
        series.dates.astype(str).tolist(),
        series.sdd_to_bottom.tolist(),
        series.sdd.tolist(),
        series.covariates.tolist(),
    ):
        writer.writerow(
            [series.lake_id, series.name, day, "Yes" if flag else "No", format_cell(sdd)]
            + [format_cell(value) for value in covariates]
        )


def csv_text(write, series):
    buffer = io.StringIO()
    write(series, buffer)
    return buffer.getvalue()


def assert_bit_identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


# Names the writer must quote, and one holding "nan", which only a gap's cell may lose.
LAKE_NAMES = ["Lake 1001", 'Lake "Big", North', "Twin\nBasin", "Tanana nan"]


def random_config(r, seed):
    """A config over the shapes and options the oracle must match on."""
    p = r.randint(1, 13)
    if r.random() < 0.3:
        fraction = r.choice([0.0, 0.05, 0.3, 0.7])
    else:  # per feature, with zeros and repeats
        fraction = tuple(r.choice([0.0, 0.0, 0.1, 0.3, 0.3, r.uniform(0.0, 0.95)]) for _ in range(p))
    return SynthConfig(
        n_samples=r.choice([4, 5, r.randint(6, 60), r.randint(61, 900)]),
        n_features=p,
        intercept=r.uniform(15.0, 30.0),  # keeps the target positive whatever the draws
        noise_sd=r.uniform(0.0, 1.0),
        cross_correlation=r.uniform(0.0, 0.9),
        missing_fraction=fraction,
        missing_mechanism=r.choice(["mcar", "mar"]),
        mar_driver=r.randrange(p),
        mar_slope=r.uniform(-4.0, 4.0),
        sampling_interval_days=r.randint(1, 45),
        lake_id=r.randint(1, 10**6),
        lake_name=r.choice(LAKE_NAMES),
        seed=seed,
    )


class TestOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_generator_and_writer_match_the_per_element_reference(self, seed):
        config = random_config(random.Random(seed), seed)
        series, truth = generate_lake(config)
        oracle_series, (weights, X, sdd, mask) = oracle_generate_lake(config)
        assert csv_text(write_series_csv, series) == csv_text(oracle_write_series_csv, oracle_series)
        assert_same_series(series, oracle_series)
        for ours, theirs in [(truth.weights, weights), (truth.covariates, X), (truth.sdd, sdd), (truth.missing_mask, mask)]:
            assert_bit_identical(ours, theirs)

    def test_the_random_configs_cover_every_required_case(self):
        configs = [random_config(random.Random(seed), seed) for seed in range(60)]
        assert {c.missing_mechanism for c in configs} == {"mcar", "mar"}
        assert {c.n_features for c in configs} >= {1, 13}
        assert set(LAKE_NAMES) <= {c.lake_name for c in configs}
        assert min(c.n_samples for c in configs) == 4 and max(c.n_samples for c in configs) > 600
        mar = [c.missing_fraction for c in configs if c.missing_mechanism == "mar" and isinstance(c.missing_fraction, tuple)]
        assert any(0.0 in f and len({x for x in f if x}) < len([x for x in f if x]) for f in mar)  # a repeat to reuse

    def test_bisection_matches_the_200_step_loop(self):
        r = np.random.default_rng(17)
        for _ in range(200):
            z = r.normal(size=int(r.integers(2, 400)))
            z = (z - z.mean()) / z.std()
            slope, target = r.uniform(-6.0, 6.0), r.uniform(0.001, 0.999)
            assert_bit_identical(_calibrated_probs(z, slope, target), oracle_calibrated_probs(z, slope, target))


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

    @pytest.mark.parametrize("days", [0, -7])
    def test_sampling_interval_below_one_day(self, days):
        with pytest.raises(ValueError, match="^sampling_interval_days must be >= 1$"):
            generate_lake(SynthConfig(n_samples=20, sampling_interval_days=days))
