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
from .models import require_summable, solve_standardized_ridge, standardize_columns

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
    """Replace every NaN cell by its column's observed mean, once the observed cells pass `require_summable`."""
    values = np.asarray(matrix, dtype=float).copy()
    if values.ndim != 2:
        raise ImputationError(f"expected a 2-d matrix, got shape {values.shape}")
    schema = feature_schema if feature_schema is not None else [f"x{j}" for j in range(values.shape[1])]
    if len(schema) != values.shape[1]:
        raise ImputationError("feature_schema length does not match the matrix width")

    mask = np.isnan(values)
    require_summable(np.where(mask, 0.0, values))  # over the rows, as the fits sum them; a gap counts as 0
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
    noise_rng: np.random.Generator | None,
) -> np.ndarray:
    """Ridge predictions for the masked rows, standardizing `X_mis` in place;
    with ``noise_rng``, plus zero-mean Gaussian noise at the fit's residual
    standard deviation.

    Unlike the forecasting fit this path accepts fewer observed rows
    than regressors; the penalty keeps the solve well-posed.
    """
    Xs, means, stds = standardize_columns(X_obs)
    if penalty == 0 and np.linalg.matrix_rank(Xs) < Xs.shape[1]:
        raise ImputationError("rank-deficient conditional fit with zero penalty")
    intercept = y_obs.mean()
    w = solve_standardized_ridge(Xs, y_obs - intercept, penalty)
    X_mis -= means
    X_mis /= stds
    preds = intercept + X_mis @ w
    if noise_rng is not None:
        resid = y_obs - (intercept + Xs @ w)
        preds = preds + noise_rng.normal(0.0, float(resid.std()), size=preds.shape)
    return preds


def _visit_plan(mask: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(column, observed rows, missing rows, every other column then the column) per gappy column, by gap count,
    ties by column index."""
    n_missing, p = mask.sum(axis=0), mask.shape[1]
    return [
        (j, np.flatnonzero(~mask[:, j]), np.flatnonzero(mask[:, j]), np.array([c for c in range(p) if c != j] + [j]))
        for j in sorted(range(p), key=lambda j: (n_missing[j], j))
        if n_missing[j]
    ]


def _sweep(values: np.ndarray, plan: list, config: ImputeConfig, rng: np.random.Generator | None) -> float:
    """One chained pass over `plan`, in place on `values`; the largest absolute cell change."""
    max_delta, noise = 0.0, rng if config.add_noise else None
    for j, obs, mis, cols in plan:
        # A row gather, then a column pick: each block is column-major, as `values[obs][:, others]` is, and a
        # fit's bits rest on that layout. Its leading columns, the regressors, stay so; the last is column j.
        fit, gaps = (values.take(rows, axis=0)[:, cols] for rows in (obs, mis))
        preds = _conditional_predictions(fit[:, :-1], fit[:, -1], gaps[:, :-1], config.ridge_penalty, noise)
        max_delta = max(max_delta, float(np.abs(preds - gaps[:, -1]).max()))
        values[mis, j] = preds
    return max_delta


def mice_impute(
    matrix: np.ndarray,
    config: ImputeConfig = ImputeConfig(),
    feature_schema: list[str] | None = None,
) -> tuple[CompletedMatrix, ImputeReport]:
    """Warm start, then chained sweeps until converged or max_sweeps is hit.

    A sweep visits the gappy columns in ascending gap count (ties by column
    index), regresses each one's observed rows on every other column's
    current values and overwrites its gaps with the predictions; its delta
    is the largest cell change. Deterministic given (matrix, config);
    observed cells are returned bit-identical to the input.
    """
    completed = initialize_fill(matrix, feature_schema)
    mask = completed.imputed_mask
    rng = np.random.default_rng(config.seed) if config.add_noise else None
    plan = _visit_plan(mask)

    sweeps = 0
    delta = 0.0
    for _ in range(config.max_sweeps):
        delta = _sweep(completed.values, plan, config, rng)
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
