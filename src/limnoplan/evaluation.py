"""Forecast metrics and the recent-history training protocol.

A held-out recent block stays fixed while training uses the `n` most
recent pre-test rows; sweeping n over a size grid yields a sample
curve whose reference point uses the full training pool. The minimal
sample count is the smallest grid size whose test error stays within
the configured tolerance of that reference.

Errors are normalized by the test block's mean target (nMAE) so lakes
of different baseline clarity are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

import numpy as np

from .dataset import SplitSeries
from .errors import EvaluationError, FitError
from .imputation import CompletedMatrix
from .models import (
    DEFAULT_RIDGE_PENALTY,
    RidgeModel,
    check_penalty,
    fit_ridge,
    predict_ridge,
    standardize_columns,
)

DEFAULT_TOLERANCE = 0.05
T = TypeVar("T")


@dataclass(frozen=True)
class EvalMetrics:
    mae: float
    nmae: float
    r2: float
    n_test: int
    test_mean_sdd: float


@dataclass(frozen=True)
class SizeGridSpec:
    """Training-size grid: n_min..N_pre by stride, N_pre always included.

    n_min defaults to p+2 (one degree of freedom beyond the smallest
    legal full-feature fit).
    """

    n_min: int | None = None
    stride: int = 1

    def resolve(self, n_pre: int, n_features: int) -> list[int]:
        if self.stride < 1:
            raise EvaluationError("stride must be >= 1")
        lo = self.n_min if self.n_min is not None else n_features + 2
        lo = max(2, lo)
        if lo > n_pre:
            lo = n_pre
        sizes = list(range(lo, n_pre + 1, self.stride))
        if sizes[-1] != n_pre:
            sizes.append(n_pre)
        return sizes


@dataclass
class SampleCurve:
    grid: list[int]
    nmae_at: dict[int, float]
    reference_nmae: float
    n_star: int | None
    tolerance: float

    @classmethod
    def from_nmae(cls, grid: list[int], values: Sequence[float], tolerance: float) -> SampleCurve:
        """The curve of nMAE `values` over `grid`, referenced to its last size, the full pool."""
        nmae_at = dict(zip(grid, values))
        reference = nmae_at[grid[-1]]
        return cls(grid, nmae_at, reference, minimal_size(grid, nmae_at, reference, tolerance), tolerance)


def feasibility_threshold(reference: float, tolerance: float) -> float:
    """The largest nMAE within `tolerance` of `reference`: the feasibility rule of every search."""
    if not 0 < tolerance < math.inf:  # false for NaN too
        raise EvaluationError(f"tolerance must be finite and positive, got {tolerance}")
    return (1.0 + tolerance) * reference


def first_within(candidates: Iterable[T], nmae: dict[T, float], threshold: float) -> T | None:
    """The first of `candidates`, in search order, whose nMAE is at most `threshold`; one without an nMAE never is."""
    return next((c for c in candidates if nmae.get(c, math.nan) <= threshold), None)


def mae(y: np.ndarray, y_hat: np.ndarray) -> float:
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape or y.size == 0:
        raise EvaluationError(f"need equal nonzero lengths, got {y.shape} and {y_hat.shape}")
    return float(np.mean(np.abs(y - y_hat)))


def nmae(y: np.ndarray, y_hat: np.ndarray) -> float:
    y = np.asarray(y, dtype=float)
    denom = y.mean() if y.size else 0.0
    if denom <= 0:
        raise EvaluationError(f"nMAE normalizer (mean target) must be positive, got {denom}")
    value = mae(y, y_hat) / float(denom)
    if not math.isfinite(value):
        raise EvaluationError(f"nMAE is not finite ({value})")
    return value


def r_squared(y: np.ndarray, y_hat: np.ndarray) -> float:
    """1 - SSE/SST about the mean of y; negative on bad test fits."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape or y.size < 2:
        raise EvaluationError(f"need equal lengths >= 2, got {y.shape} and {y_hat.shape}")
    if not (np.isfinite(y).all() and np.isfinite(y_hat).all()):
        raise EvaluationError("non-finite target or prediction; coefficient of determination undefined")
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0:
        raise EvaluationError("target has zero variance; coefficient of determination undefined")
    sse = float(np.sum((y - y_hat) ** 2))
    return 1.0 - sse / sst


def score_predictions(y: np.ndarray, y_hat: np.ndarray) -> EvalMetrics:
    # r2 is NaN when the test block is degenerate (constant or single row).
    try:
        r2 = r_squared(y, y_hat)
    except EvaluationError:
        r2 = float("nan")
    return EvalMetrics(
        mae=mae(y, y_hat),
        nmae=nmae(y, y_hat),
        r2=r2,
        n_test=int(y.size),
        test_mean_sdd=float(y.mean()),
    )


def _feature_columns(schema: Sequence[str], features: Sequence[str]) -> list[int]:
    if not features:
        raise EvaluationError("feature subset is empty")
    missing = [f for f in features if f not in schema]
    if missing:
        raise EvaluationError(f"unknown feature(s): {', '.join(missing)}")
    return [schema.index(f) for f in features]


def fit_reference(
    split: SplitSeries,
    completed: CompletedMatrix,
    features: Sequence[str],
    n: int | None = None,
    penalty: float = DEFAULT_RIDGE_PENALTY,
) -> tuple[RidgeModel, np.ndarray, np.ndarray]:
    """Fit on the last n pre-test rows; also return that window's X, y."""
    cols = _feature_columns(completed.feature_schema, features)
    n_pre = split.n_pre
    if n is None:
        n = n_pre
    if not len(cols) + 1 <= n <= n_pre:
        raise EvaluationError(
            f"training size {n} outside [{len(cols) + 1}, {n_pre}] for {len(cols)} feature(s)"
        )
    X_pre = completed.values[split.pre_rows][:, cols]
    y_pre = split.pre.sdd
    X_train, y_train = X_pre[-n:], y_pre[-n:]
    model = fit_ridge(X_train, y_train, penalty, feature_schema=features)
    return model, X_train, y_train


def backward_eval(
    split: SplitSeries,
    completed: CompletedMatrix,
    n: int,
    features: Sequence[str],
    penalty: float = DEFAULT_RIDGE_PENALTY,
) -> EvalMetrics:
    """Train on the n most recent pre-test rows, score the test block."""
    cols = _feature_columns(completed.feature_schema, features)
    model, _, _ = fit_reference(split, completed, features, n=n, penalty=penalty)
    X_test = completed.values[split.test_rows][:, cols]
    y_test = split.test.sdd
    return score_predictions(y_test, predict_ridge(model, X_test))


def require_full_fit(n_pre: int, p: int) -> None:
    """The full-pool, all-features fit needs at least p+1 training rows."""
    if n_pre < p + 1:
        raise EvaluationError(
            f"training size {n_pre} outside [{p + 1}, {n_pre}] for {p} feature(s)"
        )


def prefix_nmae(
    split: SplitSeries,
    completed: CompletedMatrix,
    sizes: Sequence[int],
    order: Sequence[str],
    penalty: float = DEFAULT_RIDGE_PENALTY,
) -> np.ndarray:
    """Test nMAE of every prefix of `order` at every training size.

    Entry [i, k-1] is the nMAE `backward_eval(split, completed, sizes[i],
    order[:k], penalty)` gives, up to rounding; entries with
    sizes[i] < k+1 are NaN. Newest first, every window is a prefix of the
    pre-test rows, so one running sum, row by row, gives each size's means
    and co-moments, and from them its standardized Gram matrix and
    right-hand side. The top-k features' system is the leading k x k block
    of those, so one stacked solve per k fits every size with at least k+1
    rows; the all-features block is taken in schema order. So, among calls
    with the same largest size, an entry depends only on its own size and
    prefix, not on the other sizes, and column p not on the order of the
    features either.
    """
    cols = _feature_columns(completed.feature_schema, order)
    p = len(cols)
    n_top = max(sizes)
    check_penalty(penalty)
    if n_top > split.n_pre:
        raise EvaluationError(f"training size {n_top} exceeds the {split.n_pre}-row training pool")
    X_pre = completed.values[split.pre_rows][:, cols]
    y_pre = split.pre.sdd
    X_test = completed.values[split.test_rows][:, cols]
    y_test = split.test.sdd
    # The largest size reads every row and column any smaller size reads.
    q = min(p, n_top - 1)
    if not (np.isfinite(X_pre[-n_top:, :q]).all() and np.isfinite(y_pre[-n_top:]).all()):
        raise FitError("non-finite values in design or target")
    denom = y_test.mean() if y_test.size else 0.0
    if denom <= 0:
        raise EvaluationError(f"nMAE normalizer (mean target) must be positive, got {denom}")

    out = np.full((len(sizes), p), np.nan)
    n = np.asarray(sizes)
    kmax = np.minimum(n - 1, q)
    rows = np.flatnonzero(kmax >= 1)  # sizes below 2 fit nothing
    if penalty == 0:
        for size, k in zip(n[rows].tolist(), kmax[rows].tolist()):
            # Every prefix longer than a deficient one is deficient too.
            if np.linalg.matrix_rank(standardize_columns(X_pre[-size:, :k])[0]) < k:
                raise FitError("rank-deficient design with zero penalty")

    raw = np.column_stack([X_pre[-n_top:, :q], y_pre[-n_top:]])[::-1]
    center = np.ascontiguousarray(raw.T).mean(axis=1)  # one contiguous row per column, whatever raw's layout
    block = raw - center
    counts = np.arange(1, n_top + 1)
    running = np.cumsum(block, axis=0) / counts[:, None]
    # Row t adds (t/(t+1)) d d' with d = row t minus the mean of rows < t: the
    # updating form of Chan, Golub & LeVeque (1983), which does not cancel
    # when a window's mean is far from the pool's, as S2 - n m m' does.
    dev = block[1:] - running[:-1]
    comoment = np.empty((n_top, q + 1, q + 1))
    comoment[0] = 0.0
    np.multiply(dev[:, :, None], (dev * (counts[:-1] / counts[1:])[:, None])[:, None, :], out=comoment[1:])
    size = n[rows]
    comoment = np.cumsum(comoment, axis=0, out=comoment)[size - 1]  # a copy; the running stack is freed
    # As in `standardize_columns`, a constant column is zero with std 1.
    live = (np.maximum.accumulate(raw[:, :q]) > np.minimum.accumulate(raw[:, :q]))[size - 1]
    diag = np.arange(q)
    stds = np.where(live, np.sqrt(comoment[:, diag, diag] / size[:, None]), 1.0)
    rhs = np.where(live, comoment[:, :q, q], 0.0) / stds
    gram = comoment[:, :q, :q]  # scaled in place: no second stack of this size
    gram /= stds[:, :, None] * stds[:, None, :]
    gram[~(live[:, :, None] & live[:, None, :])] = 0.0
    gram[:, diag, diag] += penalty
    means = running[size - 1]
    X_test_c, y_test_c = X_test[:, :q] - center[:q], y_test - center[q]
    for k in range(1, q + 1):
        at = np.flatnonzero(size > k)  # the sizes with at least k+1 rows
        pick = np.argsort(cols) if k == p else np.arange(k)  # all features in schema order
        try:
            weights = np.linalg.solve(gram[np.ix_(at, pick, pick)], rhs[np.ix_(at, pick)][..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise FitError("singular penalized system; a positive penalty keeps the fit well-posed") from exc
        weights /= stds[np.ix_(at, pick)]
        offset = (means[np.ix_(at, pick)] * weights).sum(axis=1) - means[at, q]
        residuals = (X_test_c[:, pick] @ weights[..., None])[..., 0]
        residuals -= offset[:, None]
        residuals -= y_test_c
        values = np.abs(residuals, out=residuals).mean(axis=1) / denom
        del residuals  # before the next k allocates its own
        if not np.isfinite(values).all():
            raise EvaluationError("nMAE is not finite")
        out[rows[at], k - 1] = values
    return out


def sample_curve(
    split: SplitSeries,
    completed: CompletedMatrix,
    grid_spec: SizeGridSpec = SizeGridSpec(),
    tolerance: float = DEFAULT_TOLERANCE,
    penalty: float = DEFAULT_RIDGE_PENALTY,
) -> SampleCurve:
    """Test nMAE over the size grid with the full feature set.

    The reference is the full-pool fit (n = N_pre, always on the grid);
    the minimal sample count is the smallest grid size within
    (1 + tolerance) of it.
    """
    p = len(completed.feature_schema)
    grid = grid_spec.resolve(split.n_pre, p)
    if grid[0] < p + 1:
        raise EvaluationError(
            f"grid starts at {grid[0]} but the full {p}-feature fit needs at least {p + 1} rows"
        )

    values = prefix_nmae(split, completed, grid, completed.feature_schema, penalty)[:, p - 1]
    return SampleCurve.from_nmae(grid, values.tolist(), tolerance)


def minimal_size(
    grid: Sequence[int],
    nmae_at: dict[int, float],
    reference: float,
    tolerance: float = DEFAULT_TOLERANCE,
) -> int | None:
    """Smallest grid size whose nMAE is within (1+tolerance) of the reference."""
    return first_within(sorted(grid), nmae_at, feasibility_threshold(reference, tolerance))


def complete_case_eval(
    split: SplitSeries,
    n: int | None,
    features: Sequence[str],
    penalty: float = DEFAULT_RIDGE_PENALTY,
) -> EvalMetrics:
    """Deletion baseline: same protocol, but rows with any missing
    selected covariate are dropped instead of imputed.

    n counts the most recent *complete* pre-test rows used for
    training; None uses all of them.
    """
    k = len(features)
    X_pre_raw = split.pre.covariates
    X_test_raw = split.test.covariates
    cols = _feature_columns(split.pre.feature_schema, features)

    pre_ok = ~np.isnan(X_pre_raw[:, cols]).any(axis=1)
    test_ok = ~np.isnan(X_test_raw[:, cols]).any(axis=1)
    n_complete = int(pre_ok.sum())
    if n is None:
        n = n_complete
    if n > n_complete:
        raise EvaluationError(
            f"asked for {n} complete training rows, only {n_complete} remain after deletion"
        )
    if n < k + 1:
        raise EvaluationError(
            f"complete-case deletion leaves {n} training rows for {k} feature(s) (need >= {k + 1})"
        )
    if not test_ok.any():
        raise EvaluationError("complete-case deletion removed every test row")

    X_train = X_pre_raw[pre_ok][:, cols][-n:]
    y_train = split.pre.sdd[pre_ok][-n:]
    model = fit_ridge(X_train, y_train, penalty, feature_schema=features)

    X_test = X_test_raw[test_ok][:, cols]
    y_test = split.test.sdd[test_ok]
    return score_predictions(y_test, predict_ridge(model, X_test))
