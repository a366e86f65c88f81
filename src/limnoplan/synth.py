"""Seeded synthetic lakes with known ground truth.

Covariates follow a seasonal sinusoid plus AR(1) Gaussian noise; the
target is a known linear combination of them plus its own seasonal
term and observation noise. Gaps are injected completely at random or
conditioned on a driver covariate through a calibrated logistic rule.
The clean matrices and generating weights are returned alongside the
series so completion and recovery can be scored against truth.

The target column is generated fully observed; only covariates carry
injected gaps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date
from typing import Any

import numpy as np

from .dataset import LakeSeries, parse_date
from .errors import ConfigError

DAYS_PER_YEAR = 365.25
AR_COEFF = 0.5


@dataclass(frozen=True)
class SynthConfig:
    n_samples: int = 300
    n_features: int = 6
    true_weights: tuple[float, ...] | None = None  # None -> (0.8, -0.6, 0.4, 0, 0, ...)
    intercept: float = 8.0
    seasonal_amplitude: float = 1.0
    noise_sd: float = 0.3
    cross_correlation: float = 0.0  # shared-factor loading between covariates
    missing_fraction: float | tuple[float, ...] = 0.0
    missing_mechanism: str = "mcar"  # "mcar" | "mar"
    mar_driver: int = 0
    mar_slope: float = 2.0
    start_date: date = date(1995, 1, 1)
    sampling_interval_days: int = 14
    lake_id: int = 9001
    lake_name: str = "Synthetic Lake"
    seed: int = 0

    def feature_names(self) -> list[str]:
        return [f"x{j + 1:02d}" for j in range(self.n_features)]

    def weights(self) -> np.ndarray:
        if self.true_weights is not None:
            if len(self.true_weights) != self.n_features:
                raise ValueError("true_weights length must equal n_features")
            return np.asarray(self.true_weights, dtype=float)
        defaults = [0.8, -0.6, 0.4]
        w = np.zeros(self.n_features)
        w[: min(3, self.n_features)] = defaults[: min(3, self.n_features)]
        return w

    def fractions(self) -> np.ndarray:
        if isinstance(self.missing_fraction, (int, float)):
            fractions = np.full(self.n_features, float(self.missing_fraction))
        else:
            if len(self.missing_fraction) != self.n_features:
                raise ValueError("missing_fraction length must equal n_features")
            fractions = np.asarray(self.missing_fraction, dtype=float)
        if (fractions < 0).any() or (fractions >= 1).any():
            raise ValueError("missing fractions must lie in [0, 1)")
        return fractions


@dataclass
class SynthTruth:
    """Generating model and the clean data behind a synthetic lake."""

    weights: np.ndarray
    intercept: float
    covariates: np.ndarray
    sdd: np.ndarray
    missing_mask: np.ndarray
    feature_names: list[str]
    noise_sd: float


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def _calibrated_probs(z: np.ndarray, slope: float, target: float) -> np.ndarray:
    """Logistic gap probabilities with mean pinned to `target` by bisection."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break  # a fixed point: 0.5 * (lo + hi) stays `mid` at every later step
        if _sigmoid(slope * z + mid).mean() < target:
            lo = mid
        else:
            hi = mid
    return _sigmoid(slope * z + 0.5 * (lo + hi))


def generate_lake(config: SynthConfig) -> tuple[LakeSeries, SynthTruth]:
    """Deterministic synthetic series plus its generating ground truth."""
    if config.n_samples < 4:
        raise ValueError("n_samples must be >= 4")
    if config.n_features < 1:
        raise ValueError("n_features must be >= 1")
    if config.missing_mechanism not in ("mcar", "mar"):
        raise ValueError(f"unknown missing mechanism {config.missing_mechanism!r}")
    if not 0 <= config.mar_driver < config.n_features:
        raise ValueError("mar_driver must index a feature")
    if config.sampling_interval_days < 1:
        raise ValueError("sampling_interval_days must be >= 1")

    rng = np.random.default_rng(config.seed)
    T, p = config.n_samples, config.n_features
    weights = config.weights()
    fractions = config.fractions()
    names = config.feature_names()

    if not 0 <= config.cross_correlation < 1:
        raise ValueError("cross_correlation must lie in [0, 1)")

    dates = np.datetime64(config.start_date, "D") + np.arange(T) * config.sampling_interval_days
    day_of_year = (dates - dates.astype("datetime64[Y]")).astype(int) + 1
    doy_phase = 2.0 * np.pi * day_of_year / DAYS_PER_YEAR

    def ar1_path() -> np.ndarray:
        # One vector draw is the stream of T - 1 scalar draws; Python floats do float64's arithmetic.
        path = [rng.normal(0.0, 1.0)]
        for innovation in rng.normal(0.0, np.sqrt(1.0 - AR_COEFF**2), size=T - 1).tolist():
            path.append(AR_COEFF * path[-1] + innovation)
        return np.array(path)

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
    if (sdd <= 0).any():
        raise ValueError(
            "generated a non-positive target value; raise the intercept or shrink weights/noise"
        )

    mar = config.missing_mechanism == "mar"
    if mar:
        driver = X[:, config.mar_driver]
        z = (driver - driver.mean()) / driver.std()
        calibrated: dict[float, np.ndarray] = {}  # by gap fraction; calibration draws nothing
    mask = np.zeros((T, p), dtype=bool)
    for j, fraction in enumerate(fractions.tolist()):
        if fraction == 0 or (mar and j == config.mar_driver):
            continue  # the MAR driver stays observed
        if mar and fraction not in calibrated:
            calibrated[fraction] = _calibrated_probs(z, config.mar_slope, fraction)
        mask[:, j] = rng.random(T) < (calibrated[fraction] if mar else fraction)

    series = LakeSeries(
        lake_id=config.lake_id,
        name=config.lake_name,
        dates=dates,
        sdd=sdd.copy(),
        covariates=np.where(mask, np.nan, X),
        feature_schema=names,
        sdd_to_bottom=np.zeros(T, dtype=bool),
    )
    truth = SynthTruth(
        weights=weights,
        intercept=config.intercept,
        covariates=X,
        sdd=sdd,
        missing_mask=mask,
        feature_names=names,
        noise_sd=config.noise_sd,
    )
    return series, truth


def config_from_dict(payload: Any) -> SynthConfig:
    """Build a config from a JSON object of its fields (dates `YYYY-MM-DD`, lists allowed)."""
    if not isinstance(payload, dict):
        raise ConfigError("synth config must be a JSON object")
    unknown = sorted(set(payload) - {f.name for f in fields(SynthConfig)})
    if unknown:
        raise ConfigError(f"unknown synth config key(s): {', '.join(map(str, unknown))}")
    data = dict(payload)
    if isinstance(data.get("start_date"), str):
        data["start_date"] = parse_date(data["start_date"])
    for key in ("true_weights", "missing_fraction"):
        if isinstance(data.get(key), list):
            data[key] = tuple(data[key])
    return SynthConfig(**data)
