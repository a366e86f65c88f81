"""Chained-equation completion of gappy covariate matrices.

Gaps are warm-started at column means, then repeatedly overwritten by
per-column conditional ridge fits (each gappy column regressed on all
the others, observed rows only) until the largest imputed-cell change
falls under the convergence tolerance. Only the covariates are ever
completed; the forecast target never enters these matrices.

One completed matrix is produced. The optional noise mode adds a
seeded zero-mean Gaussian with the fit's residual standard deviation
to each prediction, for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import LakeSeries
from .errors import ImputationError
from .models import solve_standardized_ridge, standardize_columns

DEFAULT_IMPUTE_PENALTY = 1e-3


@dataclass(frozen=True)
class ImputeConfig:
    max_sweeps: int = 10
    ridge_penalty: float = DEFAULT_IMPUTE_PENALTY
    convergence_tol: float = 1e-6
    add_noise: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.ridge_penalty < 0:
            raise ValueError("ridge_penalty must be nonnegative")


@dataclass
class CompletedMatrix:
    """Gap-free covariate matrix; the mask marks the filled cells."""

    values: np.ndarray
    feature_schema: list[str]
    imputed_mask: np.ndarray


@dataclass(frozen=True)
class ImputeReport:
    sweeps: int
    final_delta: float
    converged: bool
    fill_counts: dict[str, int]


def initialize_fill(matrix: np.ndarray, feature_schema: list[str] | None = None) -> CompletedMatrix:
    """Replace every NaN cell by its column's observed mean."""
    values = np.asarray(matrix, dtype=float).copy()
    if values.ndim != 2:
        raise ImputationError(f"expected a 2-d matrix, got shape {values.shape}")
    schema = feature_schema if feature_schema is not None else [f"x{j}" for j in range(values.shape[1])]
    if len(schema) != values.shape[1]:
        raise ImputationError("feature_schema length does not match the matrix width")

    mask = np.isnan(values)
    for j in range(values.shape[1]):
        gaps = mask[:, j]
        if gaps.all():
            raise ImputationError(f"column {schema[j]!r} has no observed values")
        if gaps.any():
            values[gaps, j] = values[~gaps, j].mean()
    return CompletedMatrix(values=values, feature_schema=list(schema), imputed_mask=mask)


def _conditional_predictions(
    X_obs: np.ndarray,
    y_obs: np.ndarray,
    X_mis: np.ndarray,
    penalty: float,
) -> tuple[np.ndarray, float]:
    """Ridge predictions for the masked rows plus the residual std.

    Unlike the forecasting fit this path accepts fewer observed rows
    than regressors; the penalty keeps the solve well-posed.
    """
    Xs, means, stds = standardize_columns(X_obs)
    if penalty == 0 and np.linalg.matrix_rank(Xs) < Xs.shape[1]:
        raise ImputationError("rank-deficient conditional fit with zero penalty")
    intercept = y_obs.mean()
    w = solve_standardized_ridge(Xs, y_obs - intercept, penalty)
    resid = y_obs - (intercept + Xs @ w)
    preds = intercept + ((X_mis - means) / stds) @ w
    return preds, float(resid.std())


def mice_sweep(
    current: CompletedMatrix,
    original_mask: np.ndarray,
    config: ImputeConfig = ImputeConfig(),
    rng: np.random.Generator | None = None,
) -> tuple[CompletedMatrix, float]:
    """One chained pass over the gappy columns.

    Columns are visited in ascending original gap count (ties by column
    index). For each, the observed rows are regressed on every other
    column's current values and the masked cells overwritten with the
    predictions. Returns the updated matrix and the largest absolute
    cell change of the sweep.
    """
    if rng is None and config.add_noise:
        rng = np.random.default_rng(config.seed)
    values = current.values.copy()
    n_missing = original_mask.sum(axis=0)
    visit = sorted(range(values.shape[1]), key=lambda j: (n_missing[j], j))

    max_delta = 0.0
    for j in visit:
        gaps = original_mask[:, j]
        if not gaps.any():
            continue
        others = [c for c in range(values.shape[1]) if c != j]
        preds, resid_std = _conditional_predictions(
            values[~gaps][:, others],
            values[~gaps, j],
            values[gaps][:, others],
            config.ridge_penalty,
        )
        if config.add_noise:
            preds = preds + rng.normal(0.0, resid_std, size=preds.shape)
        delta = np.abs(preds - values[gaps, j]).max()
        max_delta = max(max_delta, float(delta))
        values[gaps, j] = preds

    return (
        CompletedMatrix(values=values, feature_schema=current.feature_schema, imputed_mask=original_mask),
        max_delta,
    )


def mice_impute(
    matrix: np.ndarray,
    config: ImputeConfig = ImputeConfig(),
    feature_schema: list[str] | None = None,
) -> tuple[CompletedMatrix, ImputeReport]:
    """Warm start then sweep until converged or max_sweeps is hit.

    Deterministic given (matrix, config); observed cells are returned
    bit-identical to the input.
    """
    completed = initialize_fill(matrix, feature_schema)
    mask = completed.imputed_mask
    rng = np.random.default_rng(config.seed) if config.add_noise else None

    sweeps = 0
    delta = 0.0
    for _ in range(config.max_sweeps):
        completed, delta = mice_sweep(completed, mask, config, rng=rng)
        sweeps += 1
        if delta <= config.convergence_tol:
            break

    fill_counts = {
        name: int(mask[:, j].sum()) for j, name in enumerate(completed.feature_schema)
    }
    report = ImputeReport(
        sweeps=sweeps,
        final_delta=delta,
        converged=delta <= config.convergence_tol,
        fill_counts=fill_counts,
    )
    return completed, report


def impute_series(
    series: LakeSeries, config: ImputeConfig = ImputeConfig()
) -> tuple[CompletedMatrix, ImputeReport]:
    """Complete a lake's covariates over its full record.

    Rows without an observed target still contribute here; they are
    only excluded later, when train/test blocks are formed.
    """
    return mice_impute(series.covariates, config, list(series.feature_schema))
