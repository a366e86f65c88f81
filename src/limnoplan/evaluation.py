"""Forecast metrics, the recent-history training protocol and its engine.

A held-out recent block stays fixed while training uses the `n` most
recent pre-test rows. `prefix_nmae` scores every ranking prefix at
every training size in one call; `joint.feasibility_grid` is its one
caller, and the sample curve (n varies, every feature) and forward
selection (k varies, the full pool) are readings of that grid.

Errors are normalized by the test block's mean target (nMAE) so lakes
of different baseline clarity are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
    require_summable,
    standardize_columns,
)


@dataclass(frozen=True)
class EvalMetrics:
    mae: float
    nmae: float


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


def score_predictions(y: np.ndarray, y_hat: np.ndarray) -> EvalMetrics:
    return EvalMetrics(mae=mae(y, y_hat), nmae=nmae(y, y_hat))


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
    require_summable(X_pre[-n_top:, :q], y_pre[-n_top:])
    denom = y_test.mean() if y_test.size else 0.0
    if denom <= 0:
        raise EvaluationError(f"nMAE normalizer (mean target) must be positive, got {denom}")

    out = np.full((len(sizes), p), np.nan)
    by_size = np.argsort(sizes, kind="stable")
    size = np.asarray(sizes)[by_size]
    rows = by_size[size >= 2]  # sizes below 2 fit nothing; the others ascending, so size > k is a suffix
    size = size[size >= 2]
    if penalty == 0:
        for n, k in zip(size.tolist(), np.minimum(size - 1, q).tolist()):
            # Every prefix longer than a deficient one is deficient too.
            if np.linalg.matrix_rank(standardize_columns(X_pre[-n:, :k])[0]) < k:
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
    comoment = np.cumsum(comoment, axis=0, out=comoment)[size - 1]  # a copy; the running stack is freed
    # As in `standardize_columns`, a constant column, or one whose computed std is 0, is zero with std 1.
    diag = np.arange(q)
    stds = np.sqrt(comoment[:, diag, diag] / size[:, None])
    live = (np.maximum.accumulate(raw[:, :q]) > np.minimum.accumulate(raw[:, :q]))[size - 1] & (stds > 0)
    stds[~live] = 1.0
    rhs = np.where(live, comoment[:, :q, q], 0.0) / stds
    gram = comoment[:, :q, :q]  # scaled in place: no second stack of this size
    gram /= stds[:, :, None] * stds[:, None, :]
    gram[~(live[:, :, None] & live[:, None, :])] = 0.0
    gram[:, diag, diag] += penalty
    means = running[size - 1]
    X_test_c, y_test_c = X_test[:, :q] - center[:q], y_test - center[q]
    for k in range(1, q + 1):
        lo = int(np.searchsorted(size, k, side="right"))  # sizes ascend: these have at least k+1 rows
        # Below p, the leading k x k block is a view: `solve` copies each matrix into its own buffer, so
        # no bit depends on the layout. The all-features block is gathered in schema order, and the test
        # block, which a matmul reads, is gathered at every k.
        pick = np.argsort(cols) if k == p else np.arange(k)
        sel = pick if k == p else slice(k)
        lhs = gram[lo:, pick[:, None], pick] if k == p else gram[lo:, :k, :k]
        try:
            weights = np.linalg.solve(lhs, rhs[lo:, sel][..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise FitError("singular penalized system; a positive penalty keeps the fit well-posed") from exc
        del lhs  # the all-features gather, before the residuals take their own stack
        weights /= stds[lo:, sel]
        offset = (means[lo:, sel] * weights).sum(axis=1) - means[lo:, q]
        residuals = (X_test_c[:, pick] @ weights[..., None])[..., 0]
        residuals -= offset[:, None]
        residuals -= y_test_c
        values = np.abs(residuals, out=residuals).mean(axis=1) / denom
        del residuals  # before the next k allocates its own
        if not np.isfinite(values).all():
            raise EvaluationError("nMAE is not finite")
        out[rows[lo:], k - 1] = values
    return out


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
