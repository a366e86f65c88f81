"""Ridge forecaster and regression forest.

The ridge model is the forecaster used by every downstream protocol:
features are standardized by training means/stds, the intercept is the
(unpenalized) training-target mean, and the weights solve the penalized
normal equations on the standardized design with a direct Cholesky
solve of the k x k Gram matrix.

The regression forest exists to score features: ``fit_forests`` returns
the mean decrease in impurity of one or more forests (one per lake),
which drives the importance ranking; forests grow together, in passes
bounded in rows. Trees are grown on seeded bootstrap samples with
per-split feature subsampling and exact CART splits, every tree of a
pass together, one depth level at a time. There is no prediction API and
no tree is kept: the grower returns one record per node, and each
forest's importances are summed from its own records. Internally the
forest works in name-sorted ("canonical") column order, so fitting on a
permuted copy of the columns with the same seed yields the identical
trees and importances. Tree i draws its bootstrap and then one
candidate-key matrix per depth level from ``SeedSequence([seed, i])``,
so it depends only on (seed, i) and its own forest's rows, never on the
other forests in its pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FitError

DEFAULT_RIDGE_PENALTY = 1.0


# --------------------------------------------------------------------------- #
# Ridge
# --------------------------------------------------------------------------- #

@dataclass
class RidgeModel:
    """Fitted ridge forecaster with its standardization parameters."""

    weights: np.ndarray
    intercept: float
    train_means: np.ndarray
    train_stds: np.ndarray
    penalty: float
    feature_schema: list[str] | None = None


def standardize_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column-wise standardization; a constant column keeps std 1. Constancy
    is tested exactly: twelve 0.1s have a computed std of 1e-17, not 0. A
    column whose computed std is 0 all the same (a spread of subnormals,
    whose squares underflow) counts as constant too. The std takes
    `X.std`'s steps on the one centred copy, so its bits are `X.std`'s."""
    means = X.mean(axis=0)
    Xs = X - means
    stds = np.sqrt((Xs * Xs).sum(axis=0) / len(X))
    stds = np.where((X.max(axis=0) > X.min(axis=0)) & (stds > 0), stds, 1.0)
    Xs /= stds
    return Xs, means, stds


def check_penalty(penalty: float) -> None:
    """A ridge penalty must be finite and nonnegative."""
    if not 0 <= penalty < math.inf:  # false for NaN too
        raise FitError(f"penalty must be finite and nonnegative, got {penalty}")


def require_summable(*arrays: np.ndarray) -> None:
    """A FitError unless a sum of squared differences over each finite array's rows stays finite: every
    |value| is at most half the square root of the largest float over the row count. The test never warns."""
    for a in arrays:
        if np.abs(a).max(initial=0.0) > 0.5 * math.sqrt(np.finfo(float).max / max(len(a), 1)):
            raise FitError("values in design or target too large: sums of their squares overflow")


def solve_standardized_ridge(Xs: np.ndarray, y_centered: np.ndarray, penalty: float) -> np.ndarray:
    """Solve (Xs'Xs + penalty*I) w = Xs'y via Cholesky on the Gram matrix."""
    try:
        chol = np.linalg.cholesky(Xs.T @ Xs + penalty * np.eye(Xs.shape[1]))
    except np.linalg.LinAlgError as exc:
        raise FitError("singular penalized system; a positive penalty keeps the fit well-posed") from exc
    return np.linalg.solve(chol.T, np.linalg.solve(chol, Xs.T @ y_centered))


def fit_ridge(
    X: np.ndarray,
    y: np.ndarray,
    penalty: float = DEFAULT_RIDGE_PENALTY,
    feature_schema: Sequence[str] | None = None,
) -> RidgeModel:
    """Fit the standardized ridge forecaster.

    Requires n >= k+1 rows and finite inputs. With penalty 0 the design
    must have full column rank.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise FitError(f"bad shapes: X {X.shape}, y {y.shape}")
    n, k = X.shape
    if n < k + 1:
        raise FitError(f"under-determined fit: {n} rows for {k} features (need >= {k + 1})")
    check_penalty(penalty)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise FitError("non-finite values in design or target")

    Xs, means, stds = standardize_columns(X)
    intercept = float(y.mean())
    if penalty == 0 and np.linalg.matrix_rank(Xs) < k:
        raise FitError("rank-deficient design with zero penalty")
    weights = solve_standardized_ridge(Xs, y - intercept, penalty)
    return RidgeModel(
        weights=weights,
        intercept=intercept,
        train_means=means,
        train_stds=stds,
        penalty=float(penalty),
        feature_schema=list(feature_schema) if feature_schema is not None else None,
    )


def predict_ridge(model: RidgeModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise FitError(
            f"expected {model.weights.shape[0]} feature column(s), got shape {X.shape}"
        )
    Xs = (X - model.train_means) / model.train_stds
    return model.intercept + Xs @ model.weights


# --------------------------------------------------------------------------- #
# Regression forest
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 200
    seed: int = 0


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, tree_index]))


# Upper bound on the padded (node, candidate, row) cells one numpy pass of
# the split search holds, so per-level temporaries stay a few hundred KB
# however many trees grow together.
_SPLIT_CHUNK_CELLS = 1 << 14

# Upper bound on the bootstrap rows (n x n_trees, summed over forests) of
# one pass of `_grow_forests`: forests grown together share the per-level
# numpy calls, but past this the larger level arrays cost more than they save.
_POOL_ROWS = 1 << 17


def _best_splits(
    X_pad: np.ndarray,
    y_pad: np.ndarray,
    ranks: np.ndarray,
    rows: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact best split of each node over its candidate columns.

    Node j owns ``rows[starts[j]:starts[j] + counts[j]]``; the last row of
    ``X_pad``/``y_pad`` is a padding row of +inf features and zero target.
    ``ranks[f, r]`` is row r's dense value rank in column f among its own
    forest's rows; the padding row ranks above every value. Nodes are
    scored in chunks of similar size, each node padded to the largest, B
    rows. Per node and candidate, one plain sort of the int64 keys
    ``rank << bits | pos`` (pos = node in chunk x B + slot, the row's
    place in the chunk) orders the rows by value, ties by slot, and keeps
    each sorted row's place in the low bits. The keys are unique, so any
    sort algorithm gives this stable order. For a pool under 2**31 rows,
    rank and pos (below the larger of the chunk budget and the largest
    node) each fit 31 bits, so the keys fit int64. The target and its
    square are cumulatively summed, and every cut leaving at least
    ``min_leaf`` rows on each side between two distinct ranks is scored by
    its summed squared error. Arrays span whole blocks: the cut after a
    block's last row leaves no row on its right and is masked like the
    padded cuts. ``X_pad`` is read only at each node's chosen cut. Ties go
    to the lowest candidate, then the smallest left block. Returns the
    chosen column (-1 where no cut is valid), the midpoint threshold and
    the summed child error.
    """
    n_nodes, k = candidates.shape
    feature = np.empty(n_nodes, dtype=int)
    threshold = np.empty(n_nodes)
    best = np.empty(n_nodes)
    rows_ext = np.append(rows, X_pad.shape[0] - 1)
    by_size = np.argsort(counts, kind="stable")
    sizes = counts[by_size]
    budget = _SPLIT_CHUNK_CELLS // k
    lo = 0
    while lo < n_nodes:
        # A chunk is a run of nodes in size order, padded to its largest
        # node. (j + 1) * sizes[lo + j] grows with j, so the run that fits
        # the budget is a prefix; it holds at least one node.
        run = sizes[lo : lo + max(1, budget // int(sizes[lo]))]
        c = max(1, int(np.count_nonzero(np.arange(1, run.size + 1) * run <= budget)))
        nodes = by_size[lo : lo + c]
        B = int(sizes[lo + c - 1])
        lo += c
        n_rows = counts[nodes]
        cand = candidates[nodes]
        slots = np.arange(B)
        idx = rows_ext[np.where(slots < n_rows[:, None], starts[nodes][:, None] + slots, rows.size)]
        bits = (c * B - 1).bit_length()
        keys = ranks.ravel()[cand[:, :, None] * ranks.shape[1] + idx[:, None, :]]
        keys <<= bits
        keys |= np.arange(c * B).reshape(c, 1, B)
        keys.sort(axis=-1)
        pos = keys & ((1 << bits) - 1)
        keys >>= bits  # now the sorted ranks
        idx = idx.ravel()
        ys = y_pad[idx][pos]
        c1 = np.cumsum(ys, axis=-1)
        ys *= ys
        c2 = np.cumsum(ys, axis=-1)
        del ys
        t1 = c1[np.arange(c), :, n_rows - 1][:, :, None]
        t2 = c2[np.arange(c), :, n_rows - 1][:, :, None]
        left_n = np.arange(1, B + 1, dtype=float)
        right_n = n_rows[:, None, None] - left_n
        # Ties are found over the flat buffer; the comparison that crosses
        # into the next block falls on a block's last cut, masked anyway.
        sorted_ranks = keys.reshape(-1)
        invalid = np.append(sorted_ranks[:-1] == sorted_ranks[1:], True).reshape(keys.shape)
        invalid |= (left_n < min_leaf) | (right_n < min_leaf)
        del keys, sorted_ranks
        # total = max(s2 - s1^2/left_n, 0) + max((t2 - s2) - (t1 - s1)^2/right_n, 0),
        # with s1, s2 the cumulative sums, computed in place to bound the
        # live temporaries.
        total = c1 * c1
        total /= left_n
        np.subtract(c2, total, out=total)
        np.maximum(total, 0.0, out=total)
        spread = np.subtract(t1, c1, out=c1)
        spread *= spread
        # Padded cuts (right_n <= 0) are masked below; the clamp only
        # keeps their arithmetic finite.
        spread /= np.maximum(right_n, 1.0)
        sse_right = np.subtract(t2, c2, out=c2)
        sse_right -= spread
        np.maximum(sse_right, 0.0, out=sse_right)
        total += sse_right
        np.putmask(total, invalid, np.inf)
        total = total.reshape(c, -1)

        flat = np.argmin(total, axis=1)
        chunk_best = total[np.arange(c), flat]
        cand_pos, cut = np.divmod(flat, B)
        col = cand[np.arange(c), cand_pos]
        lower = X_pad[idx[pos[np.arange(c), cand_pos, cut]], col]
        upper = X_pad[idx[pos[np.arange(c), cand_pos, cut + 1]], col]
        thr = 0.5 * (lower + upper)
        # A midpoint that rounds up to the right value or overflows (to -inf
        # below -8.9e307, where every row would go right) falls back to the left one.
        thr = np.where((lower <= thr) & (thr < upper), thr, lower)
        found = chunk_best < math.inf
        feature[nodes] = np.where(found, col, -1)
        threshold[nodes] = np.where(found, thr, math.nan)
        best[nodes] = chunk_best
    return feature, threshold, best


def _grow_forests(jobs: Sequence[tuple], min_leaf: int, n_candidates: int) -> list[tuple[np.ndarray, ...]]:
    """Grow every tree of several forests together, one depth level at a time.

    Each job ``(Xc, y, seed, n_trees)`` is a forest over its own rows, all
    with the same columns. The rows of all jobs sit in one pool; each
    job's columns get their own dense value ranks, by ``np.unique`` (so
    -0.0 and 0.0 share a rank, as they tie in value). Tree i of a job
    draws its bootstrap sample from its own generator, then, at each
    level, one ``random((splittable nodes of tree i, p))`` key matrix,
    whatever ``n_candidates`` is; a node's candidates are the
    ``n_candidates`` columns with the smallest keys. A tree thus depends
    only on (seed, i) and its own job's rows. A level's nodes are ordered
    by job, tree, then left to right, and each node's rows are a
    contiguous block of ``rows`` (indices into the pool) in parent order.
    Returns, per job, one record per node as the flat arrays (tree,
    feature, threshold, n_samples, decrease); feature -1 marks a leaf,
    whose threshold is nan and decrease 0. They run tree by tree, each
    tree's nodes breadth-first, so within a tree the j-th split node's
    children are nodes 2j+1 and 2j+2.
    """
    p = jobs[0][0].shape[1]
    sizes = [len(y) for _, y, _, _ in jobs]
    offsets = np.cumsum(sizes) - sizes  # each job's first row in the pool
    X_pool = np.vstack([Xc for Xc, _, _, _ in jobs] + [np.full((1, p), np.inf)])
    y_pool = np.concatenate([y for _, y, _, _ in jobs] + [[0.0]])
    ranks = np.full((p, X_pool.shape[0]), max(sizes), dtype=np.int64)  # the padding row ranks last
    for (Xc, _, _, _), lo, n in zip(jobs, offsets.tolist(), sizes):
        for j in range(p):
            ranks[j, lo : lo + n] = np.unique(Xc[:, j], return_inverse=True)[1]

    n_trees = [trees for _, _, _, trees in jobs]
    rngs = [_tree_rng(seed, i) for (_, _, seed, trees) in jobs for i in range(trees)]
    counts = np.repeat(sizes, n_trees)
    rows = np.concatenate([rng.integers(0, n, size=n) for rng, n in zip(rngs, counts.tolist())])
    rows += np.repeat(np.repeat(offsets, n_trees), counts)
    tree_of = np.arange(len(rngs))
    levels: list[tuple[np.ndarray, ...]] = []
    while counts.size:
        starts = np.cumsum(counts) - counts
        y_rows = y_pool[rows]
        y_sum = np.add.reduceat(y_rows, starts)
        sse = np.maximum(np.add.reduceat(y_rows * y_rows, starts) - y_sum * (y_sum / counts), 0.0)
        splittable = (
            (counts >= 2 * min_leaf)
            & (sse > 0.0)
            & (np.maximum.reduceat(y_rows, starts) > np.minimum.reduceat(y_rows, starts))
        )

        feature = np.full(counts.size, -1)
        threshold = np.full(counts.size, math.nan)
        decrease = np.zeros(counts.size)
        todo = np.flatnonzero(splittable)
        if todo.size:
            per_tree = np.bincount(tree_of[todo], minlength=len(rngs))
            keys = np.vstack([rngs[t].random((per_tree[t], p)) for t in np.flatnonzero(per_tree).tolist()])
            candidates = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :n_candidates], axis=1)
            f, thr, total = _best_splits(
                X_pool, y_pool, ranks, rows, starts[todo], counts[todo], candidates, min_leaf
            )
            feature[todo] = f
            threshold[todo] = thr
            # total is inf where no cut is valid, which leaves a zero decrease.
            decrease[todo] = np.maximum(sse[todo] - total, 0.0) / counts[todo]

        split = feature >= 0
        levels.append((tree_of, feature, threshold, counts, decrease))

        # Children keep their rows in parent order: left block, then right.
        node_of_row = np.repeat(np.arange(counts.size), counts)
        keep = split[node_of_row]
        rows = rows[keep]
        node_of_row = node_of_row[keep]
        go_right = ~(X_pool[rows, feature[node_of_row]] <= threshold[node_of_row])
        child = 2 * (np.cumsum(split) - 1)[node_of_row] + go_right
        rows = rows[np.argsort(child, kind="stable")]
        counts = np.bincount(child, minlength=2 * np.count_nonzero(split))
        tree_of = np.repeat(tree_of[split], 2)

    records = [np.concatenate(column) for column in zip(*levels)]
    # Stable-sorting the level-major node list by tree keeps each tree's
    # nodes in level order, which is breadth-first, and each job's trees
    # in one block.
    order = np.argsort(records[0], kind="stable")
    first_tree = np.cumsum(n_trees) - n_trees
    bounds = np.searchsorted(records[0][order], first_tree[1:])
    parts = zip(first_tree, *(np.split(column[order], bounds) for column in records))
    return [(tree - first, *columns) for first, tree, *columns in parts]


def forest_input(
    X: np.ndarray, y: np.ndarray, config: ForestConfig, feature_schema: Sequence[str] | None = None
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The columns in canonical (name-sorted) order, the target and that order, once every check on a
    forest's input has passed; a FitError names the first that fails."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise FitError(f"bad shapes: X {X.shape}, y {y.shape}")
    n, p = X.shape
    if n < 2 or p < 1:
        raise FitError(f"need at least 2 rows and 1 feature column to grow trees, have {n} x {p}")
    if config.n_trees < 1:
        raise FitError("n_trees must be >= 1")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise FitError("non-finite values in design or target")
    require_summable(y)  # the grower sums squares of the target only

    schema = list(feature_schema) if feature_schema is not None else [f"x{j}" for j in range(p)]
    if len(schema) != p or len(set(schema)) != p:
        raise FitError("feature_schema must name each column exactly once")
    canonical_order = sorted(range(p), key=schema.__getitem__)
    return X[:, canonical_order], y, canonical_order


def _importances(records: tuple, n: int, n_trees: int, canonical_order: list[int]) -> np.ndarray:
    """The scores of a forest over n rows from its node records, aligned to the caller's columns."""
    _, feature, _, n_samples, decrease = records
    # The records run tree by tree, so np.add.at (unbuffered, in index
    # order) makes the additions of a per-tree loop, bit for bit.
    split, p = feature >= 0, len(canonical_order)
    raw_canonical = np.zeros(p)
    np.add.at(raw_canonical, feature[split], n_samples[split] / n * decrease[split])
    raw_canonical /= n_trees
    # Normalize before leaving canonical order, so the sum (and every bit of
    # the result) does not depend on the caller's column order.
    total = raw_canonical.sum()
    if total > 0:
        raw_canonical /= total

    scores = np.zeros(p)
    scores[canonical_order] = raw_canonical
    return scores


def fit_forests(problems: Sequence[tuple]) -> list[np.ndarray]:
    """Impurity-decrease importances of a bagged regression forest per problem ``(X, y, config,
    feature_schema)``, in order, each aligned to its caller's columns and deterministic given its seed.

    Leaves hold at least 2 rows, and each split draws ceil(p/3) candidate
    columns. Tree i draws its bootstrap sample and then, level by level,
    its candidate-feature keys from ``SeedSequence([seed, i])`` alone, so
    it is the same tree in a forest of any size, and a forest's scores do
    not depend on the other problems. Each split contributes (node sample
    fraction) x (impurity decrease) to its feature; the sums are averaged
    over trees and normalized to sum to 1. An all-leaf forest scores zero.
    Every input passes `forest_input`'s checks first; then runs of
    consecutive problems with the same column count grow in one pass of
    the grower while their bootstrap rows per level (n x n_trees, summed)
    stay within `_POOL_ROWS`.
    """
    passes: list[list[tuple]] = []
    rows, p = math.inf, 0  # the bootstrap rows per level and the columns of the pass under way
    for X, y, config, schema in problems:
        Xc, y, order = forest_input(X, y, config, schema)
        rows += len(y) * config.n_trees
        if rows > _POOL_ROWS or Xc.shape[1] != p:
            passes.append([])
            rows, p = len(y) * config.n_trees, Xc.shape[1]
        passes[-1].append((Xc, y, order, config))
    scores = []
    for group in passes:
        jobs = [(Xc, y, config.seed, config.n_trees) for Xc, y, _, config in group]
        records = _grow_forests(jobs, min_leaf=2, n_candidates=math.ceil(group[0][0].shape[1] / 3))
        scores += [_importances(r, len(y), config.n_trees, order) for r, (_, y, order, config) in zip(records, group)]
    return scores
