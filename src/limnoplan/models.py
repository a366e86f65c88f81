"""Ridge forecaster and regression forest.

The ridge model is the forecaster used by every downstream protocol:
features are standardized by training means/stds, the intercept is the
(unpenalized) training-target mean, and the weights solve the penalized
normal equations on the standardized design with a direct Cholesky
solve of the k x k Gram matrix.

The regression forest exists to score features: its mean decrease in
impurity drives the importance ranking. Trees are grown on seeded
bootstrap samples with per-split feature subsampling. Internally the
forest works in name-sorted ("canonical") column order and routes
prediction inputs through the same mapping, so fitting on a permuted
copy of the columns with the same seed yields the identical model.
Per-tree randomness derives from ``SeedSequence([seed, tree_index])``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

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
    """Column-wise standardization; zero-variance stds are clamped to 1."""
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    stds = np.where(stds > 0, stds, 1.0)
    return (X - means) / stds, means, stds


def ridge_cholesky(Xs: np.ndarray, penalty: float) -> np.ndarray:
    """Lower Cholesky factor of the penalized Gram matrix Xs'Xs + penalty*I."""
    gram = Xs.T @ Xs + penalty * np.eye(Xs.shape[1])
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise FitError(
            "singular penalized system; a positive penalty keeps the fit well-posed"
        ) from exc


def solve_standardized_ridge(Xs: np.ndarray, y_centered: np.ndarray, penalty: float) -> np.ndarray:
    """Solve (Xs'Xs + penalty*I) w = Xs'y via Cholesky on the Gram matrix."""
    chol = ridge_cholesky(Xs, penalty)
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
    if penalty < 0:
        raise FitError("penalty must be nonnegative")
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


def ridge_to_dict(model: RidgeModel) -> dict[str, Any]:
    return {
        "weights": model.weights.tolist(),
        "intercept": model.intercept,
        "train_means": model.train_means.tolist(),
        "train_stds": model.train_stds.tolist(),
        "penalty": model.penalty,
        "feature_schema": model.feature_schema,
    }


def ridge_from_dict(payload: dict[str, Any]) -> RidgeModel:
    return RidgeModel(
        weights=np.asarray(payload["weights"], dtype=float),
        intercept=float(payload["intercept"]),
        train_means=np.asarray(payload["train_means"], dtype=float),
        train_stds=np.asarray(payload["train_stds"], dtype=float),
        penalty=float(payload["penalty"]),
        feature_schema=payload.get("feature_schema"),
    )


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


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    min_leaf: int,
    max_depth: int | None,
    features_per_split: int,
    seed_key: tuple[int, int],
) -> TreeNodes:
    n, p = X.shape
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []
    n_samples: list[int] = []
    decrease: list[float] = []

    # Stack entries: (row indices, depth, parent node id, is_left_child).
    stack: list[tuple[np.ndarray, int, int, bool]] = [(np.arange(n), 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            if is_left:
                left[parent] = node_id
            else:
                right[parent] = node_id

        y_node = y[idx]
        m = idx.size
        y_sum = float(y_node.sum())
        mean = y_sum / m
        sse = max(float(y_node @ y_node) - y_sum * mean, 0.0)

        feature.append(-1)
        threshold.append(math.nan)
        left.append(-1)
        right.append(-1)
        value.append(mean)
        n_samples.append(m)
        decrease.append(0.0)

        if (
            m < 2 * min_leaf
            or sse <= 0.0
            or (max_depth is not None and depth >= max_depth)
            or np.ptp(y_node) == 0.0  # exactly constant target
        ):
            continue

        candidates = np.sort(rng.choice(p, size=features_per_split, replace=False))
        # All candidate features are scored in one batch; ties resolve to the
        # lowest candidate index, then the smallest left-block size.
        Xn = X.take(idx, axis=0).take(candidates, axis=1)
        order = np.argsort(Xn, axis=0, kind="stable")
        xs = np.sort(Xn, axis=0, kind="stable")
        ys = y_node[order]
        c1 = np.cumsum(ys, axis=0)
        c2 = np.cumsum(ys * ys, axis=0)
        sizes = np.arange(min_leaf, m - min_leaf + 1)
        valid = xs[sizes - 1, :] < xs[sizes, :]
        if not valid.any():
            continue
        s1 = c1[sizes - 1, :]
        s2 = c2[sizes - 1, :]
        left_n = sizes[:, None].astype(float)
        sse_left = np.maximum(s2 - s1 * s1 / left_n, 0.0)
        sse_right = np.maximum((c2[-1, :] - s2) - (c1[-1, :] - s1) ** 2 / (m - left_n), 0.0)
        total = np.where(valid, sse_left + sse_right, np.inf)

        flat = int(np.argmin(total.T))
        cand_pos, size_pos = divmod(flat, sizes.size)
        cut = int(sizes[size_pos])
        f = int(candidates[cand_pos])
        thr = 0.5 * (xs[cut - 1, cand_pos] + xs[cut, cand_pos])
        if not thr < xs[cut, cand_pos]:  # midpoint rounded up to the right value
            thr = float(xs[cut - 1, cand_pos])

        feature[node_id] = f
        threshold[node_id] = float(thr)
        decrease[node_id] = max(sse - float(total[size_pos, cand_pos]), 0.0) / m

        left_mask = X[idx, f] <= thr
        left_idx = idx[left_mask]
        right_idx = idx[~left_mask]
        # Right child is pushed first so the left child is grown next (DFS order).
        stack.append((right_idx, depth + 1, node_id, False))
        stack.append((left_idx, depth + 1, node_id, True))

    return TreeNodes(
        feature=np.asarray(feature, dtype=int),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=int),
        right=np.asarray(right, dtype=int),
        value=np.asarray(value, dtype=float),
        n_samples=np.asarray(n_samples, dtype=int),
        impurity_decrease=np.asarray(decrease, dtype=float),
        seed_key=seed_key,
    )


def fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    config: ForestConfig = ForestConfig(),
    feature_schema: Sequence[str] | None = None,
) -> ForestModel:
    """Fit a bagged regression forest, deterministic given the seed."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise FitError(f"bad shapes: X {X.shape}, y {y.shape}")
    n, p = X.shape
    if n < 2:
        raise FitError(f"need at least 2 rows to grow trees, have {n}")
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

    trees = []
    for i in range(config.n_trees):
        rng = _tree_rng(config.seed, i)
        boot = rng.integers(0, n, size=n)
        trees.append(
            _grow_tree(
                Xc[boot],
                y[boot],
                rng,
                min_leaf=max(1, config.min_samples_leaf),
                max_depth=config.max_depth,
                features_per_split=fps,
                seed_key=(config.seed, i),
            )
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

    raw = np.zeros(p)
    raw[model.canonical_order] = raw_canonical
    total = raw.sum()
    return raw / total if total > 0 else raw


def forest_to_dict(model: ForestModel) -> dict[str, Any]:
    return {
        "feature_schema": model.feature_schema,
        "canonical_schema": model.canonical_schema,
        "canonical_order": model.canonical_order,
        "config": {
            "n_trees": model.config.n_trees,
            "min_samples_leaf": model.config.min_samples_leaf,
            "max_depth": model.config.max_depth,
            "features_per_split": model.config.features_per_split,
            "seed": model.config.seed,
        },
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "value": tree.value.tolist(),
                "n_samples": tree.n_samples.tolist(),
                "impurity_decrease": tree.impurity_decrease.tolist(),
                "seed_key": list(tree.seed_key),
            }
            for tree in model.trees
        ],
    }


def forest_from_dict(payload: dict[str, Any]) -> ForestModel:
    trees = [
        TreeNodes(
            feature=np.asarray(t["feature"], dtype=int),
            threshold=np.asarray(t["threshold"], dtype=float),
            left=np.asarray(t["left"], dtype=int),
            right=np.asarray(t["right"], dtype=int),
            value=np.asarray(t["value"], dtype=float),
            n_samples=np.asarray(t["n_samples"], dtype=int),
            impurity_decrease=np.asarray(t["impurity_decrease"], dtype=float),
            seed_key=tuple(t["seed_key"]),
        )
        for t in payload["trees"]
    ]
    cfg = payload["config"]
    return ForestModel(
        trees=trees,
        feature_schema=list(payload["feature_schema"]),
        canonical_schema=list(payload["canonical_schema"]),
        canonical_order=list(payload["canonical_order"]),
        config=ForestConfig(
            n_trees=cfg["n_trees"],
            min_samples_leaf=cfg["min_samples_leaf"],
            max_depth=cfg["max_depth"],
            features_per_split=cfg["features_per_split"],
            seed=cfg["seed"],
        ),
    )
