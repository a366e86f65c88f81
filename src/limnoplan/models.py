"""Ridge forecaster and regression forest.

The ridge model is the forecaster used by every downstream protocol:
features are standardized by training means/stds, the intercept is the
(unpenalized) training-target mean, and the weights solve the penalized
normal equations on the standardized design with a direct Cholesky
solve of the k x k Gram matrix.

The regression forest exists to score features: its mean decrease in
impurity drives the importance ranking. Trees are grown on seeded
bootstrap samples with per-split feature subsampling, all trees
together one depth level at a time, with exact CART splits. Internally
the forest works in name-sorted ("canonical") column order and routes
prediction inputs through the same mapping, so fitting on a permuted
copy of the columns with the same seed yields the identical model.
Tree i draws its bootstrap and then one candidate-key matrix per depth
level from ``SeedSequence([seed, i])``, so it depends only on (seed, i).
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
    is tested exactly: twelve 0.1s have a computed std of 1e-17, not 0."""
    means = X.mean(axis=0)
    stds = np.where(X.max(axis=0) > X.min(axis=0), X.std(axis=0), 1.0)
    return (X - means) / stds, means, stds


def check_penalty(penalty: float) -> None:
    """A ridge penalty must be finite and nonnegative."""
    if not 0 <= penalty < math.inf:  # false for NaN too
        raise FitError(f"penalty must be finite and nonnegative, got {penalty}")


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
    min_samples_leaf: int = 2
    max_depth: int | None = None
    features_per_split: int | None = None  # None -> ceil(p/3)
    seed: int = 0


@dataclass
class TreeNodes:
    """One tree as parallel node arrays (feature -1 marks a leaf)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    impurity_decrease: np.ndarray
    seed_key: tuple[int, int]


@dataclass
class ForestModel:
    trees: list[TreeNodes]
    feature_schema: list[str]
    canonical_schema: list[str]
    canonical_order: list[int]  # caller column -> position used internally
    config: ForestConfig


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, tree_index]))


# Upper bound on the padded (node, candidate, row) cells one numpy pass of
# the split search holds, so per-level temporaries stay a few hundred KB
# however many trees grow together.
_SPLIT_CHUNK_CELLS = 1 << 14


def _best_splits(
    X_pad: np.ndarray,
    y_pad: np.ndarray,
    rows: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact best split of each node over its candidate columns.

    Node j owns ``rows[starts[j]:starts[j] + counts[j]]``; the last row of
    ``X_pad``/``y_pad`` is a padding row of +inf features and zero target.
    Nodes are scored in chunks of similar size, each padded to its largest
    node. Per node and candidate the rows are stably sorted, the target
    and its square are cumulatively summed, and every cut leaving at least
    ``min_leaf`` rows on each side between two distinct values is scored by
    its summed squared error. Ties go to the lowest candidate, then the
    smallest left block. Returns the chosen column (-1 where no cut is
    valid), the midpoint threshold and the summed child error.
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
        slots = np.arange(B)
        idx = rows_ext[np.where(slots < n_rows[:, None], starts[nodes][:, None] + slots, rows.size)]
        x = X_pad[idx[:, None, :], candidates[nodes][:, :, None]]
        order = np.argsort(x, axis=-1, kind="stable")
        xs = np.take_along_axis(x, order, axis=-1)
        ys = np.take_along_axis(y_pad[idx][:, None, :], order, axis=-1)
        del x, order
        c1 = np.cumsum(ys, axis=-1)
        ys *= ys
        c2 = np.cumsum(ys, axis=-1)
        del ys
        t1 = c1[np.arange(c), :, n_rows - 1][:, :, None]
        t2 = c2[np.arange(c), :, n_rows - 1][:, :, None]
        s1 = c1[..., :-1]
        s2 = c2[..., :-1]
        left_n = np.arange(1, B, dtype=float)
        right_n = n_rows[:, None, None] - left_n
        valid = xs[..., :-1] < xs[..., 1:]
        valid &= (left_n >= min_leaf) & (right_n >= min_leaf)
        # total = max(s2 - s1^2/left_n, 0) + max((t2 - s2) - (t1 - s1)^2/right_n, 0),
        # computed in place to bound the live temporaries.
        total = s1 * s1
        total /= left_n
        np.subtract(s2, total, out=total)
        np.maximum(total, 0.0, out=total)
        spread = np.subtract(t1, s1, out=s1)  # reuses c1's storage
        spread *= spread
        # Padded cuts (right_n <= 0) are masked below; the clamp only
        # keeps their arithmetic finite.
        spread /= np.maximum(right_n, 1.0)
        sse_right = np.subtract(t2, s2, out=s2)  # reuses c2's storage
        sse_right -= spread
        np.maximum(sse_right, 0.0, out=sse_right)
        total += sse_right
        total[~valid] = np.inf
        total = total.reshape(c, -1)

        flat = np.argmin(total, axis=1)
        chunk_best = total[np.arange(c), flat]
        cand_pos, cut = np.divmod(flat, B - 1)
        lower = xs[np.arange(c), cand_pos, cut]
        upper = xs[np.arange(c), cand_pos, cut + 1]
        thr = 0.5 * (lower + upper)
        thr = np.where(thr < upper, thr, lower)  # midpoint rounded up to the right value
        found = chunk_best < math.inf
        feature[nodes] = np.where(found, candidates[nodes, cand_pos], -1)
        threshold[nodes] = np.where(found, thr, math.nan)
        best[nodes] = chunk_best
    return feature, threshold, best


def _grow_forest(
    Xc: np.ndarray,
    y: np.ndarray,
    seed: int,
    n_trees: int,
    min_leaf: int,
    max_depth: int | None,
    features_per_split: int,
) -> list[TreeNodes]:
    """Grow every tree of the forest together, one depth level at a time.

    Tree i draws its bootstrap sample from its own generator, then, at
    each level, one ``random((splittable nodes of tree i, p))`` key
    matrix; a node's candidates are the ``features_per_split`` columns
    with the smallest keys. A tree thus depends only on (seed, i). A
    level's nodes are ordered by tree, then left to right, and each
    node's rows are a contiguous block of ``rows`` (indices into ``Xc``)
    in parent order. Nodes are numbered breadth-first within each tree.
    """
    n, p = Xc.shape
    rngs = [_tree_rng(seed, i) for i in range(n_trees)]
    boots = [rng.integers(0, n, size=n) for rng in rngs]
    X_pad = np.vstack([Xc, np.full((1, p), np.inf)])
    y_pad = np.append(y, 0.0)

    rows = np.concatenate(boots)
    counts = np.full(n_trees, n)
    tree_of = np.arange(n_trees)
    levels: list[tuple[np.ndarray, ...]] = []
    n_before = 0  # nodes on the levels already grown
    depth = 0
    while counts.size:
        starts = np.cumsum(counts) - counts
        y_rows = y[rows]
        y_sum = np.add.reduceat(y_rows, starts)
        mean = y_sum / counts
        sse = np.maximum(np.add.reduceat(y_rows * y_rows, starts) - y_sum * mean, 0.0)
        splittable = (
            (counts >= 2 * min_leaf)
            & (sse > 0.0)
            & (np.maximum.reduceat(y_rows, starts) > np.minimum.reduceat(y_rows, starts))
            & (max_depth is None or depth < max_depth)
        )

        feature = np.full(counts.size, -1)
        threshold = np.full(counts.size, math.nan)
        decrease = np.zeros(counts.size)
        todo = np.flatnonzero(splittable)
        if todo.size:
            if features_per_split == p:
                # Every column is a candidate, so no keys are needed.
                candidates = np.broadcast_to(np.arange(p), (todo.size, p))
            else:
                per_tree = np.bincount(tree_of[todo], minlength=n_trees)
                keys = np.vstack(
                    [rngs[t].random((per_tree[t], p)) for t in np.flatnonzero(per_tree).tolist()]
                )
                candidates = np.sort(
                    np.argsort(keys, axis=1, kind="stable")[:, :features_per_split], axis=1
                )
            f, thr, total = _best_splits(
                X_pad, y_pad, rows, starts[todo], counts[todo], candidates, min_leaf
            )
            feature[todo] = f
            threshold[todo] = thr
            # total is inf where no cut is valid, which leaves a zero decrease.
            decrease[todo] = np.maximum(sse[todo] - total, 0.0) / counts[todo]

        split = feature >= 0
        n_split = int(split.sum())
        n_here = counts.size
        left = np.full(n_here, -1)
        left[split] = n_before + n_here + 2 * np.arange(n_split)
        levels.append((tree_of, feature, threshold, left, mean, counts, decrease))
        n_before += n_here

        # Children keep their rows in parent order: left block, then right.
        node_of_row = np.repeat(np.arange(n_here), counts)
        keep = split[node_of_row]
        rows = rows[keep]
        node_of_row = node_of_row[keep]
        go_right = ~(Xc[rows, feature[node_of_row]] <= threshold[node_of_row])
        child = 2 * (np.cumsum(split) - 1)[node_of_row] + go_right
        rows = rows[np.argsort(child, kind="stable")]
        counts = np.bincount(child, minlength=2 * n_split)
        tree_of = np.repeat(tree_of[split], 2)
        depth += 1

    tree_of, feature, threshold, left, value, n_samples, decrease = (
        np.concatenate(column) for column in zip(*levels)
    )
    # Stable-sorting the level-major node list by tree keeps each tree's
    # nodes in level order, which numbers them breadth-first.
    order = np.argsort(tree_of, kind="stable")
    sizes = np.bincount(tree_of, minlength=n_trees)
    first = np.cumsum(sizes) - sizes  # each tree's first position in `order`
    local = np.empty(order.size + 1, dtype=int)
    local[order] = np.arange(order.size) - first[tree_of[order]]
    local[-1] = -1  # a leaf's child id -1 maps to itself
    left = local[left]
    right = np.where(left >= 0, left + 1, -1)  # siblings are numbered together
    columns = [feature, threshold, left, right, value, n_samples, decrease]
    per_tree = zip(*(np.split(column[order], first[1:]) for column in columns))
    return [TreeNodes(*arrays, seed_key=(seed, i)) for i, arrays in enumerate(per_tree)]


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    config: ForestConfig = ForestConfig(),
    feature_schema: Sequence[str] | None = None,
) -> ForestModel:
    """Fit a bagged regression forest, deterministic given the seed.

    Tree i draws its bootstrap sample and then, level by level, its
    candidate-feature keys from ``SeedSequence([seed, i])`` alone, so it
    is the same tree in a forest of any size.
    """
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

    schema = list(feature_schema) if feature_schema is not None else [f"x{j}" for j in range(p)]
    if len(schema) != p or len(set(schema)) != p:
        raise FitError("feature_schema must name each column exactly once")

    canonical_order = sorted(range(p), key=schema.__getitem__)
    canonical_schema = [schema[j] for j in canonical_order]
    Xc = X[:, canonical_order]

    fps = config.features_per_split
    if fps is None:
        fps = math.ceil(p / 3)
    fps = max(1, min(fps, p))

    trees = _grow_forest(
        Xc,
        y,
        config.seed,
        config.n_trees,
        min_leaf=max(1, config.min_samples_leaf),
        max_depth=config.max_depth,
        features_per_split=fps,
    )
    return ForestModel(
        trees=trees,
        feature_schema=schema,
        canonical_schema=canonical_schema,
        canonical_order=canonical_order,
        config=config,
    )


def _tree_predict(tree: TreeNodes, Xc: np.ndarray) -> np.ndarray:
    n = Xc.shape[0]
    node = np.zeros(n, dtype=int)
    rows = np.arange(n)
    while True:
        feats = tree.feature[node]
        active = feats >= 0
        if not active.any():
            break
        sub = rows[active]
        f = feats[active]
        go_left = Xc[sub, f] <= tree.threshold[node[active]]
        node[sub] = np.where(go_left, tree.left[node[active]], tree.right[node[active]])
    return tree.value[node]


def predict_forest(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Average of per-tree predictions; X columns follow the fit-time schema."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(model.feature_schema):
        raise FitError(
            f"expected {len(model.feature_schema)} feature column(s), got shape {X.shape}"
        )
    Xc = X[:, model.canonical_order]
    out = np.zeros(X.shape[0])
    for tree in model.trees:
        out += _tree_predict(tree, Xc)
    return out / len(model.trees)


def mdi_importances(model: ForestModel) -> np.ndarray:
    """Impurity-decrease importances, aligned to the fit-time schema.

    Per tree, each split contributes (node sample fraction) x
    (impurity decrease) to its feature; tree sums are averaged and the
    result normalized to sum to 1. An all-leaf forest scores zero.
    """
    p = len(model.feature_schema)
    raw_canonical = np.zeros(p)
    for tree in model.trees:
        splits = tree.feature >= 0
        if not splits.any():
            continue
        weights = tree.n_samples[splits] / tree.n_samples[0]
        np.add.at(raw_canonical, tree.feature[splits], weights * tree.impurity_decrease[splits])
    raw_canonical /= len(model.trees)
    # Normalize before leaving canonical order, so the sum (and every bit of
    # the result) does not depend on the caller's column order.
    total = raw_canonical.sum()
    if total > 0:
        raw_canonical /= total

    scores = np.zeros(p)
    scores[model.canonical_order] = raw_canonical
    return scores

