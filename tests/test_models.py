"""Ridge solver against a normal-equation oracle; forest against a
depth-first grower and its split search against a stable float-argsort
oracle."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from limnoplan import models
from limnoplan.dataset import split_by_count
from limnoplan.errors import FitError
from limnoplan.models import (
    _SPLIT_CHUNK_CELLS,
    ForestConfig,
    fit_forests,
    fit_ridge,
    predict_ridge,
    standardize_columns,
)
from limnoplan.selection import rank_features
from limnoplan.synth import SynthConfig, generate_lake

from conftest import completed_from_series, count_passes

TREE_ARRAYS = ("feature", "threshold", "n_samples", "impurity_decrease")


def oracle_ridge(X, y, penalty):
    """Independent closed-form solve: explicit inverse of the penalized Gram."""
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    stds = np.where(stds > 0, stds, 1.0)
    Xs = (X - means) / stds
    yc = y - y.mean()
    k = X.shape[1]
    w = np.linalg.inv(Xs.T @ Xs + penalty * np.eye(k)) @ (Xs.T @ yc)
    return w, y.mean(), means, stds


def oracle_grow_tree(X, y, rng, min_leaf, features_per_split):
    """Depth-first CART grower, one node per iteration (the reference).

    Same split rule as the forest: stable sort per candidate column,
    cumulative sums, cuts leaving at least `min_leaf` rows per side
    between distinct values, ties to the lowest candidate and then the
    smallest left block, midpoint threshold unless it rounds up to the
    right value. Candidates come from `rng.choice`, so only with
    `features_per_split == p` does it build the forest's trees. Nodes are
    numbered depth-first, and the record keeps its own child arrays.
    """
    n, p = X.shape
    feature, threshold, left, right, n_samples, decrease = ([] for _ in range(6))

    # Stack entries: (row indices, parent node id, is_left_child).
    stack = [(np.arange(n), -1, False)]
    while stack:
        idx, parent, is_left = stack.pop()
        node_id = len(feature)
        if parent >= 0:
            if is_left:
                left[parent] = node_id
            else:
                right[parent] = node_id

        y_node = y[idx]
        m = idx.size
        y_sum = float(y_node.sum())
        sse = max(float(y_node @ y_node) - y_sum * (y_sum / m), 0.0)

        feature.append(-1)
        threshold.append(math.nan)
        left.append(-1)
        right.append(-1)
        n_samples.append(m)
        decrease.append(0.0)

        if m < 2 * min_leaf or sse <= 0.0 or np.ptp(y_node) == 0.0:
            continue

        candidates = np.sort(rng.choice(p, size=features_per_split, replace=False))
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
        if not thr < xs[cut, cand_pos]:
            thr = float(xs[cut - 1, cand_pos])

        feature[node_id] = f
        threshold[node_id] = float(thr)
        decrease[node_id] = max(sse - float(total[size_pos, cand_pos]), 0.0) / m

        left_mask = X[idx, f] <= thr
        stack.append((idx[~left_mask], node_id, False))
        stack.append((idx[left_mask], node_id, True))

    return SimpleNamespace(
        feature=np.asarray(feature, dtype=int),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=int),
        right=np.asarray(right, dtype=int),
        n_samples=np.asarray(n_samples, dtype=int),
        impurity_decrease=np.asarray(decrease, dtype=float),
    )


def oracle_best_splits(
    X_pad: np.ndarray,
    y_pad: np.ndarray,
    rows: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    candidates: np.ndarray,
    min_leaf: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forest's split search as a stable float argsort (the reference).

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
        # The lower bound catches a midpoint overflowing to -inf, which sent
        # every row of the node right, so the grower never ended.
        thr = np.where((lower <= thr) & (thr < upper), thr, lower)
        found = chunk_best < math.inf
        feature[nodes] = np.where(found, candidates[nodes, cand_pos], -1)
        threshold[nodes] = np.where(found, thr, math.nan)
        best[nodes] = chunk_best
    return feature, threshold, best


def oracle_forest(X, y, seed, n_trees, min_leaf):
    """The forest grown tree by tree with the depth-first grower, every
    column a candidate; tree i bootstraps from SeedSequence([seed, i])."""
    n, p = X.shape
    trees = []
    for i in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, i]))
        boot = rng.integers(0, n, size=n)
        trees.append(oracle_grow_tree(X[boot], y[boot], rng, min_leaf, p))
    return trees


def fit_forest(X, y, config=ForestConfig(), feature_schema=None):
    """One forest's scores: `fit_forests` of the one problem."""
    return fit_forests([(X, y, config, feature_schema)])[0]


def grow_trees(X, y, seed, n_trees, min_leaf, n_candidates):
    """The grower's node records split into one namespace of node arrays
    per tree. The records must run tree by tree, each tree's in one block."""
    tree, *columns = models._grow_forests([(X, y, seed, n_trees)], min_leaf, n_candidates)[0]
    assert np.array_equal(np.unique(tree), np.arange(n_trees))
    assert np.all(np.diff(tree) >= 0)
    bounds = np.cumsum(np.bincount(tree))[:-1]
    per_tree = zip(*(np.split(column, bounds) for column in columns))
    return [SimpleNamespace(**dict(zip(TREE_ARRAYS, arrays))) for arrays in per_tree]


def default_trees(X, y, config):
    """`fit_forests`' trees for columns already in canonical order: leaves
    of at least 2 rows, ceil(p/3) candidates per split."""
    return grow_trees(X, y, config.seed, config.n_trees, 2, math.ceil(X.shape[1] / 3))


def records_of(trees):
    """Per-tree node arrays joined back into flat records, tree by tree."""
    tree = np.repeat(np.arange(len(trees)), [len(t.feature) for t in trees])
    return (tree, *(np.concatenate([getattr(t, name) for t in trees]) for name in TREE_ARRAYS))


def oracle_mdi(records, p):
    """Impurity-decrease importances summed tree by tree (the reference).

    Each tree's nodes are picked out by their tree index, in the order the
    records give them, and one np.add.at per tree adds each split's
    (sample fraction) x (decrease) to its feature; the sums are averaged
    over trees and normalized to sum to 1. An all-leaf forest scores zero.
    """
    tree, feature, _, n_samples, decrease = records
    raw = np.zeros(p)
    n_trees = int(tree.max()) + 1
    for t in range(n_trees):
        node = tree == t
        split = node & (feature >= 0)
        weights = n_samples[split] / n_samples[node][0]
        np.add.at(raw, feature[split], weights * decrease[split])
    raw /= n_trees
    total = raw.sum()
    if total > 0:
        raw /= total
    return raw


def breadth_first_children(feature):
    """Child arrays of a stored tree: the j-th split node's children are
    nodes 2j+1 and 2j+2; a leaf has -1."""
    left = np.full(len(feature), -1)
    split = feature >= 0
    left[split] = 2 * np.arange(np.count_nonzero(split)) + 1
    return left, np.where(split, left + 1, -1)


def nodes_by_path(feature, left, right):
    """Map each node's root-to-node path ("", "L", "LR", ...) to its id."""
    out = {}
    stack = [(0, "")]
    while stack:
        node, path = stack.pop()
        out[path] = node
        if feature[node] >= 0:
            stack.append((int(left[node]), path + "L"))
            stack.append((int(right[node]), path + "R"))
    assert len(out) == len(feature)  # every node is reachable once
    return out


def assert_same_tree(a, b):
    for name in TREE_ARRAYS:
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=name == "threshold")


def ridge_objective(Xs, yc, w, penalty):
    resid = yc - Xs @ w
    return float(resid @ resid + penalty * (w @ w))


class TestRidge:
    def test_constant_target(self):
        X = np.arange(12.0).reshape(6, 2)
        model = fit_ridge(X, np.full(6, 4.2), penalty=1.0)
        assert np.allclose(model.weights, 0.0)
        assert model.intercept == pytest.approx(4.2)

    def test_matches_normal_equation_oracle(self, rng):
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        model = fit_ridge(X, y, penalty=0.5)
        w, icpt, means, stds = oracle_ridge(X, y, 0.5)
        assert np.max(np.abs(model.weights - w)) <= 1e-8 * max(np.max(np.abs(w)), 1.0)
        assert model.intercept == pytest.approx(icpt)
        assert np.allclose(model.train_means, means) and np.allclose(model.train_stds, stds)

    def test_exact_linear_limit_recovers_slope(self):
        x = np.linspace(-2, 2, 30).reshape(-1, 1)
        model = fit_ridge(x, 3.0 * x[:, 0], penalty=1e-8)
        slope = model.weights[0] / model.train_stds[0]
        assert slope == pytest.approx(3.0, abs=1e-4)

    def test_predict_at_train_means_is_intercept(self, rng):
        X = rng.normal(size=(15, 4))
        y = rng.normal(size=15)
        model = fit_ridge(X, y, penalty=1.0)
        pred = predict_ridge(model, model.train_means.reshape(1, -1))
        assert pred[0] == pytest.approx(model.intercept)

    def test_zero_weights_predict_intercept(self):
        X = np.arange(10.0).reshape(5, 2)
        model = fit_ridge(X, np.full(5, 2.0), penalty=1.0)
        assert np.allclose(predict_ridge(model, X), 2.0)

    def test_in_sample_matches_oracle_predictions(self, rng):
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        model = fit_ridge(X, y, penalty=0.5)
        w, icpt, means, stds = oracle_ridge(X, y, 0.5)
        expected = icpt + ((X - means) / stds) @ w
        assert np.allclose(predict_ridge(model, X), expected, atol=1e-10)

    def test_under_determined_errors(self, rng):
        with pytest.raises(FitError):
            fit_ridge(rng.normal(size=(3, 3)), rng.normal(size=3), penalty=1.0)

    def test_non_finite_errors(self):
        X = np.ones((5, 1))
        X[0, 0] = np.nan
        with pytest.raises(FitError):
            fit_ridge(X, np.ones(5), penalty=1.0)

    def test_zero_penalty_rank_deficient_errors(self, rng):
        col = rng.normal(size=(10, 1))
        X = np.hstack([col, col])
        with pytest.raises(FitError):
            fit_ridge(X, rng.normal(size=10), penalty=0.0)

    def test_zero_variance_feature_guard(self, rng):
        X = rng.normal(size=(12, 2))
        X[:, 1] = 7.0
        model = fit_ridge(X, rng.normal(size=12), penalty=1.0)
        assert model.train_stds[1] == 1.0 and np.isfinite(model.weights).all()

    @pytest.mark.parametrize("value", [0.1, 7.77])
    def test_constant_feature_whose_mean_rounds_is_guarded(self, rng, value):
        # Twelve copies of these values do not average back to the value,
        # so their computed std is about 1e-17 or 1e-15, not zero.
        X = rng.normal(size=(12, 2))
        X[:, 1] = value
        model = fit_ridge(X, rng.normal(size=12), penalty=1.0)
        assert model.train_stds[1] == 1.0 and abs(model.weights[1]) < 1e-12

    @pytest.mark.parametrize("layout", ["C", "F", "F-view"])
    def test_standardize_columns_matches_the_old_formula_bit_for_bit(self, rng, layout):
        for trial in range(30):
            n, k = int(rng.integers(2, 90)), int(rng.integers(1, 9))
            X = rng.normal(size=(n, k)) * rng.uniform(1e-3, 1e3, size=k) + rng.normal(0.0, 1e4, size=k)
            X[:, rng.integers(k)] = [0.1, 7.77, 2.5][trial % 3]  # a constant column
            if layout == "F":
                X = np.asfortranarray(X)
            elif layout == "F-view":  # the column-major rows of a larger gather, as imputation reads them
                X = np.asfortranarray(np.vstack([X, rng.normal(size=(5, k))]))[:n]
            means = X.mean(axis=0)
            stds = np.where(X.max(axis=0) > X.min(axis=0), X.std(axis=0), 1.0)
            got = standardize_columns(X)
            for a, b in zip(got, ((X - means) / stds, means, stds)):
                assert a.tobytes("A") == b.tobytes("A") and a.flags.f_contiguous == b.flags.f_contiguous, trial

    def test_spread_whose_std_underflows_is_treated_as_constant(self, rng):
        # Forty multiples of the smallest subnormal: max > min, but every
        # squared deviation underflows, so the computed std is 0.
        X = np.column_stack([rng.normal(size=40), np.arange(40) * 5e-324])
        assert X[:, 1].max() > X[:, 1].min() and X[:, 1].std() == 0.0
        Xs, _, stds = standardize_columns(X)
        assert stds[1] == 1.0 and np.isfinite(Xs).all()
        model = fit_ridge(X, rng.normal(size=40), penalty=1.0)
        assert model.train_stds[1] == 1.0 and np.isfinite(model.weights).all()

    def test_shape_mismatch_on_predict(self, rng):
        model = fit_ridge(rng.normal(size=(10, 2)), rng.normal(size=10))
        with pytest.raises(FitError):
            predict_ridge(model, rng.normal(size=(4, 3)))

    def test_normal_equation_residual_invariant(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 50))
            k = int(rng.integers(1, min(n, 8)))
            lam = float(rng.choice([1e-3, 0.5, 1.0, 10.0]))
            X = rng.normal(size=(n, k))
            y = rng.normal(size=n)
            model = fit_ridge(X, y, penalty=lam)
            Xs = (X - model.train_means) / model.train_stds
            rhs = Xs.T @ (y - model.intercept)
            resid = (Xs.T @ Xs + lam * np.eye(k)) @ model.weights - rhs
            assert np.max(np.abs(resid)) <= 1e-8 * max(np.max(np.abs(rhs)), 1.0)

    def test_gradient_zero_at_solution(self, rng):
        for _ in range(10):
            n = int(rng.integers(6, 30))
            k = int(rng.integers(1, 5))
            lam = float(rng.choice([1e-3, 0.5, 1.0, 10.0]))
            X = rng.normal(size=(n, k))
            y = rng.normal(size=n)
            model = fit_ridge(X, y, penalty=lam)
            Xs = (X - model.train_means) / model.train_stds
            yc = y - model.intercept
            h = 1e-5
            for j in range(k):
                bump = np.zeros(k)
                bump[j] = h
                grad = (
                    ridge_objective(Xs, yc, model.weights + bump, lam)
                    - ridge_objective(Xs, yc, model.weights - bump, lam)
                ) / (2 * h)
                assert abs(grad) <= 1e-6

    def test_penalty_monotonicity(self, rng):
        for _ in range(10):
            X = rng.normal(size=(30, 4))
            y = rng.normal(size=30)
            norms = [
                np.linalg.norm(fit_ridge(X, y, penalty=lam).weights)
                for lam in (1e-3, 0.1, 1.0, 10.0, 100.0)
            ]
            assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


class TestForest:
    def test_design_without_columns_is_fit_error(self):
        with pytest.raises(FitError, match="1 feature column to grow trees, have 10 x 0"):
            fit_forest(np.empty((10, 0)), np.arange(10.0))

    def test_constant_target_single_leaf_trees(self, rng):
        X = rng.normal(size=(40, 3))
        config = ForestConfig(n_trees=10, seed=0)
        trees = default_trees(X, np.full(40, 3.3), config)
        assert len(trees) == 10
        assert all(len(t.feature) == 1 and t.feature[0] == -1 for t in trees)
        assert np.array_equal(fit_forest(X, np.full(40, 3.3), config), np.zeros(3))

    def test_single_informative_feature_dominates(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            X = rng.normal(size=(500, 2))
            y = X[:, 0].copy()
            imp = fit_forest(X, y, ForestConfig(n_trees=50, seed=seed))
            assert imp[0] > 0.9

    def test_determinism(self, rng):
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        config = ForestConfig(n_trees=12, seed=7)
        for ta, tb in zip(default_trees(X, y, config), default_trees(X, y, config)):
            assert_same_tree(ta, tb)
        assert_bitwise_equal(fit_forest(X, y, config), fit_forest(X, y, config))

    def test_importances_normalized(self, rng):
        X = rng.normal(size=(80, 5))
        y = X @ rng.normal(size=5) + rng.normal(0, 0.1, 80)
        imp = fit_forest(X, y, ForestConfig(n_trees=20, seed=3))
        assert (imp >= 0).all()
        assert abs(imp.sum() - 1.0) <= 1e-12

    def test_impurity_decreases_nonnegative(self, rng):
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        for tree in default_trees(X, y, ForestConfig(n_trees=5, seed=0)):
            assert (tree.impurity_decrease >= 0).all()
            leaves = tree.feature == -1
            assert np.allclose(tree.impurity_decrease[leaves], 0.0)

    def test_min_samples_leaf_respected(self, rng):
        X = rng.normal(size=(64, 2))
        y = rng.normal(size=64)
        for min_leaf in (2, 5):
            for tree in grow_trees(X, y, 2, 6, min_leaf, 1):
                leaves = tree.feature == -1
                assert tree.n_samples[leaves].min() >= min_leaf

    def test_repeated_schema_name_is_fit_error(self, rng):
        X, y = rng.normal(size=(20, 3)), rng.normal(size=20)
        with pytest.raises(FitError, match="^feature_schema must name each column exactly once$"):
            fit_forest(X, y, ForestConfig(n_trees=2), feature_schema=["x01", "x02", "x01"])

    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_fewer_than_one_tree_is_fit_error(self, rng, n_trees):
        with pytest.raises(FitError, match="^n_trees must be >= 1$"):
            fit_forest(rng.normal(size=(20, 2)), rng.normal(size=20), ForestConfig(n_trees=n_trees))

    def test_too_few_rows_error(self, rng):
        with pytest.raises(FitError):
            fit_forest(rng.normal(size=(1, 2)), np.ones(1))


class TestForestAgainstDepthFirstOracle:
    """With every column a candidate the candidate draw plays no part, so
    the level-wise forest must build the depth-first grower's trees."""

    @pytest.mark.parametrize("case", range(30))
    def test_same_trees_as_depth_first_grower(self, case):
        rng = np.random.default_rng(1000 + case)
        n = int(rng.integers(12, 160))
        p = int(rng.integers(1, 7))
        # Few distinct values, so columns and targets repeat within nodes.
        X = rng.integers(0, int(rng.integers(2, 9)), size=(n, p)) * 0.37
        y = np.round(X @ rng.normal(size=p) + rng.normal(size=n), 1) + 3.0
        min_leaf = int(rng.integers(1, 4))
        trees = grow_trees(X, y, case, 5, min_leaf, p)
        oracle = oracle_forest(X, y, case, 5, min_leaf)
        # Decreases are sums over the node's rows, added in another order;
        # their rounding follows the target's scale.
        decrease_tol = 1e-12 * float(np.max(y * y))
        for tree, ref in zip(trees, oracle):
            paths = nodes_by_path(tree.feature, *breadth_first_children(tree.feature))
            ref_paths = nodes_by_path(ref.feature, ref.left, ref.right)
            assert paths.keys() == ref_paths.keys()
            for path, node in paths.items():
                ref_node = ref_paths[path]
                assert tree.feature[node] == ref.feature[ref_node], path
                assert tree.n_samples[node] == ref.n_samples[ref_node], path
                assert np.array_equal(
                    tree.threshold[node], ref.threshold[ref_node], equal_nan=True
                ), path
                assert (
                    abs(tree.impurity_decrease[node] - ref.impurity_decrease[ref_node])
                    <= decrease_tol
                ), path
        assert np.max(np.abs(oracle_mdi(records_of(trees), p) - oracle_mdi(records_of(oracle), p))) <= 1e-12

    def test_breadth_first_node_ids(self, rng):
        X = rng.normal(size=(80, 3))
        y = X[:, 0] + rng.normal(0, 0.3, 80)
        for tree in default_trees(X, y, ForestConfig(n_trees=4, seed=2)):
            split = np.flatnonzero(tree.feature >= 0)
            # Every split adds one pair of children, and the j-th split's
            # pair, nodes 2j+1 and 2j+2, holds exactly its rows.
            assert len(tree.feature) == 1 + 2 * split.size
            j = np.arange(split.size)
            assert np.all(split < 2 * j + 1)  # children come after their parent
            assert np.array_equal(
                tree.n_samples[split], tree.n_samples[2 * j + 1] + tree.n_samples[2 * j + 2]
            )


class TestForestRandomness:
    def test_tree_depends_only_on_seed_and_index(self, rng):
        X = rng.normal(size=(90, 7))
        y = X[:, 2] - X[:, 5] + rng.normal(0, 0.3, 90)
        full = default_trees(X, y, ForestConfig(n_trees=12, seed=11))
        for k in (1, 5, 11):
            part = default_trees(X, y, ForestConfig(n_trees=k, seed=11))
            assert len(part) == k
            for tree, ref in zip(part, full):
                assert_same_tree(tree, ref)

    @pytest.mark.parametrize("seed", range(40))
    def test_importances_bitwise_invariant_to_column_order(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(70, 5))
        y = X[:, 1] * 2 + rng.normal(0, 0.2, 70)
        names = [f"f{j}" for j in range(5)]
        perm = [3, 0, 4, 1, 2]
        config = ForestConfig(n_trees=8, seed=5)
        permuted_names = [names[j] for j in perm]
        base = fit_forest(X, y, config, feature_schema=names)
        permuted = fit_forest(X[:, perm], y, config, feature_schema=permuted_names)
        imp_base = dict(zip(names, base.tolist()))
        imp_perm = dict(zip(permuted_names, permuted.tolist()))
        assert imp_base == imp_perm



class TestDefaultForestPinned:
    """The default 200-tree ranking of two fixed pools, pinned bit for bit
    across commits; a change here changes every default ranking. The
    second pool has the paper's shape: 13 covariates, 469 rows, so 5
    candidates per split and deeper trees than the 8-covariate pool's."""

    ORDER = ["x01", "x08", "x06", "x05", "x03", "x07", "x02", "x04"]
    SCORES = {
        "x01": "0x1.d9e985dd579f1p-2",
        "x02": "0x1.c801bdc8e7bc6p-5",
        "x03": "0x1.247085b3f7b81p-4",
        "x04": "0x1.26428444f9d3ep-5",
        "x05": "0x1.746983e26120ap-4",
        "x06": "0x1.a165346cb6714p-4",
        "x07": "0x1.2078e24f6e255p-4",
        "x08": "0x1.c67fa731334cbp-4",
    }
    PAPER_ORDER = ["x01", "x03", "x02", "x12", "x04", "x06", "x13", "x08", "x07", "x09", "x11", "x05", "x10"]
    PAPER_SCORES = {
        "x01": "0x1.3873939c9e937p-2",
        "x02": "0x1.acc0b795e0317p-4",
        "x03": "0x1.d60e26180eb61p-3",
        "x04": "0x1.65b4bc6bd67afp-5",
        "x05": "0x1.d79e313ef68e0p-6",
        "x06": "0x1.33fe359f45763p-5",
        "x07": "0x1.f555ec5ce3fcep-6",
        "x08": "0x1.fae8a214b7896p-6",
        "x09": "0x1.e2264d03a86e3p-6",
        "x10": "0x1.d443018e524aap-6",
        "x11": "0x1.df69d1d068092p-6",
        "x12": "0x1.0f767fd60c063p-4",
        "x13": "0x1.233179ce61bfdp-5",
    }

    def test_default_ranking_is_pinned(self):
        series, _ = generate_lake(SynthConfig(n_samples=240, n_features=8, seed=17))
        split = split_by_count(series, 169)
        ranking = rank_features(split, completed_from_series(series))
        assert ranking.order == self.ORDER
        assert {name: float.hex(score) for name, score in ranking.scores.items()} == self.SCORES

    def test_paper_shaped_ranking_is_pinned(self):
        series, _ = generate_lake(SynthConfig(n_samples=600, n_features=13, cross_correlation=0.3, seed=29))
        split = split_by_count(series, 469)
        ranking = rank_features(split, completed_from_series(series))
        assert ranking.order == self.PAPER_ORDER
        assert {name: float.hex(score) for name, score in ranking.scores.items()} == self.PAPER_SCORES

def random_level(case):
    """One level's split-search inputs: padded pool, node blocks, candidates.

    Nodes draw their rows with replacement (as a bootstrap does), have
    mixed sizes, and node 0 repeats a single row, so it has no valid cut.
    """
    rng = np.random.default_rng(3000 + case)
    n = int(rng.integers(6, 120))
    p = int(rng.integers(2, 7))
    kind = case % 4
    if kind == 0:  # heavy ties
        X = rng.integers(0, 3, size=(n, p)) * 0.25
    elif kind == 1:  # -0.0 and 0.0 in one column
        X = np.round(rng.normal(size=(n, p)), 1)
        X[:, 0] = rng.choice([-0.0, 0.0, 1.5, -2.0], size=n)
    elif kind == 2:  # midpoints round up to the right value or overflow
        X = np.round(rng.normal(size=(n, p)), 1)
        X[:, 0] = rng.choice(1.0 + np.arange(4) * np.finfo(float).eps, size=n)
        X[:, -1] = rng.choice([-1.7e308, -1e308, 1e308, 1.7e308], size=n)
    else:
        X = rng.normal(size=(n, p))
    y = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
    counts = rng.integers(2, n + 1, size=int(rng.integers(1, 200)))
    blocks = [rng.integers(0, n, size=m) for m in counts]
    blocks[0][:] = blocks[0][0]
    k = p if (case // 4) % 2 else int(rng.integers(1, p))
    candidates = np.sort(np.argsort(rng.random((counts.size, p)), axis=1)[:, :k], axis=1)
    # Dense value ranks by searchsorted, independent of the forest's np.unique.
    ranks = np.full((p, n + 1), n, dtype=np.int64)
    for j in range(p):
        ranks[j, :n] = np.searchsorted(np.unique(X[:, j]), X[:, j])
    X_pad = np.vstack([X, np.full((1, p), np.inf)])
    y_pad = np.append(y, 0.0)
    rows = np.concatenate(blocks)
    starts = np.cumsum(counts) - counts
    return X_pad, y_pad, ranks, rows, starts, counts, candidates, 1 + case % 3


def assert_bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestSplitSearchAgainstArgsortOracle:
    @pytest.mark.parametrize("case", range(48))
    def test_same_splits_bit_for_bit(self, case):
        X_pad, y_pad, ranks, rows, starts, counts, candidates, min_leaf = random_level(case)
        with np.errstate(over="ignore"):  # the 1e308 midpoints overflow to inf
            got = models._best_splits(X_pad, y_pad, ranks, rows, starts, counts, candidates, min_leaf)
            want = oracle_best_splits(X_pad, y_pad, rows, starts, counts, candidates, min_leaf)
        for a, b in zip(got, want):
            assert_bitwise_equal(a, b)
        assert got[0][0] == -1  # the single-row node
        if case % 4 == 2:
            # A midpoint that rounds up to the right value or overflows
            # falls back to the lower value.
            assert np.isfinite(got[1][got[0] == X_pad.shape[1] - 1]).all()
            assert np.isin(got[1][got[0] == 0], X_pad[:-1, 0]).all()

    def test_midpoint_overflowing_to_minus_inf_falls_back_to_lower(self):
        X_pad = np.array([[-1.7e308], [-1.0e308], [np.inf]])
        y_pad = np.array([0.0, 5.0, 0.0])
        ranks = np.array([[0, 1, 2]])
        rows, starts, counts, candidates = np.array([0, 1]), np.array([0]), np.array([2]), np.array([[0]])
        with np.errstate(over="ignore"):
            feature, threshold, _ = models._best_splits(
                X_pad, y_pad, ranks, rows, starts, counts, candidates, 1
            )
        assert feature[0] == 0 and threshold[0] == -1.7e308

    def test_some_levels_span_several_chunks(self):
        cells = [level[3].size * level[6].shape[1] for level in map(random_level, range(48))]
        assert max(cells) > 2 * _SPLIT_CHUNK_CELLS


def oracle_split_adapter(X_pad, y_pad, ranks, rows, starts, counts, candidates, min_leaf):
    return oracle_best_splits(X_pad, y_pad, rows, starts, counts, candidates, min_leaf)


class TestForestBitForBit:
    """The whole forest, grown with the oracle split search swapped in,
    must be the same in every bit. A `chunk_cells` budget of a few cells
    scores each node in a chunk of its own (None keeps the default), so
    the chunking cannot change a bit either. fps None is `fit_forests`'
    ceil(p/3); with it and leaves of 2 rows, `fit_forests` must also score
    as the per-tree sum of the records does."""

    @pytest.mark.parametrize(
        "n, p, n_trees, min_leaf, chunk_cells, fps",
        [
            (60, 5, 12, 1, None, 2),
            (90, 4, 8, 2, 3, 4),
            (45, 3, 10, 3, None, 3),
            (120, 7, 6, 2, 5, None),
            (640, 6, 200, 2, None, None),
        ],
    )
    def test_same_forest_as_with_oracle_split_search(
        self, monkeypatch, n, p, n_trees, min_leaf, chunk_cells, fps
    ):
        rng = np.random.default_rng(n * p + n_trees)
        X = np.round(rng.normal(size=(n, p)), 1)
        X[:, 0] = rng.choice([-0.0, 0.0, 0.5], size=n)
        y = np.round(X @ rng.normal(size=p) + rng.normal(size=n), 2)
        job, settings = (X, y, n_trees, n_trees), (min_leaf, fps or math.ceil(p / 3))
        if chunk_cells is not None:
            monkeypatch.setattr(models, "_SPLIT_CHUNK_CELLS", chunk_cells)
        records = models._grow_forests([job], *settings)[0]
        if fps is None and min_leaf == 2:
            scores = fit_forest(X, y, ForestConfig(n_trees, seed=n_trees))
            assert_bitwise_equal(scores, oracle_mdi(records, p))
        monkeypatch.setattr(models, "_best_splits", oracle_split_adapter)
        oracle = models._grow_forests([job], *settings)[0]
        for got, want in zip(records, oracle, strict=True):
            assert_bitwise_equal(got, want)


class TestForestScoresAgainstPerTreeSum:
    """`fit_forests` sums every split record in one np.add.at; it must give
    the per-tree loop's bits. Its grower, asked for leaves of 2 rows and
    ceil(p/3) candidates, is swapped for one with the case's settings."""

    @pytest.mark.parametrize("case", range(64))
    def test_scores_equal_per_tree_sum_bit_for_bit(self, monkeypatch, case):
        rng = np.random.default_rng(5000 + case)
        n = int(rng.integers(2, 401))
        p = int(rng.integers(1, 14))
        n_trees = int(rng.integers(1, 81))
        min_leaf = int(rng.integers(1, 4))
        n_candidates = int(rng.integers(1, p + 1))
        if case % 2:
            X = rng.integers(0, int(rng.integers(2, 6)), size=(n, p)) * 0.5
        else:
            X = rng.normal(size=(n, p))
        y = np.round(X @ rng.normal(size=p) + rng.normal(size=n), int(rng.integers(0, 3)))
        names = [f"x{j:02d}" for j in range(p)]  # canonical order is column order
        grow = models._grow_forests

        def grow_with_case_settings(jobs, **defaults):
            assert defaults == {"min_leaf": 2, "n_candidates": math.ceil(p / 3)}
            return grow(jobs, min_leaf, n_candidates)

        monkeypatch.setattr(models, "_grow_forests", grow_with_case_settings)
        scores = fit_forest(X, y, ForestConfig(n_trees, seed=case), feature_schema=names)
        assert_bitwise_equal(scores, oracle_mdi(grow([(X, y, case, n_trees)], min_leaf, n_candidates)[0], p))


def pooled_lake(rng, p, kind):
    """A lake of p columns for the pooled-forest tests: (X, y)."""
    n = 2 if kind == "two rows" else int(rng.integers(3, 301))
    X = np.round(rng.normal(size=(n, p)), 1)
    if kind == "ties":
        X = rng.integers(0, 3, size=(n, p)) * 0.5
    elif kind == "signed zeros":
        X[:, 0] = rng.choice([-0.0, 0.0, 0.7], size=n)
    y = np.round(X @ rng.normal(size=p) + rng.normal(size=n), int(rng.integers(0, 3)))
    if kind == "constant target":
        y = np.full(n, 2.5)
    return X, y


class TestForestsGrownTogether:
    """`fit_forests` grows the forests of several lakes in shared passes;
    each lake's scores must equal its forest grown alone, bit for bit,
    however the lakes fall into passes."""

    KINDS = ["plain", "ties", "signed zeros", "two rows", "constant target"]

    @pytest.mark.parametrize("pool_rows", ["one lake per pass", "part-way", "one pass"])
    @pytest.mark.parametrize("case", range(6))
    def test_each_forest_equals_its_forest_grown_alone(self, monkeypatch, case, pool_rows):
        rng = np.random.default_rng(7000 + case)
        p = int(rng.integers(1, 9))
        kinds = list(rng.permutation(self.KINDS)) + ["plain"] * int(rng.integers(0, 3))
        lakes = [pooled_lake(rng, p, kind) for kind in kinds]
        configs = [ForestConfig(n_trees=int(rng.integers(1, 30)), seed=int(rng.integers(0, 2**32))) for _ in lakes]
        names = [f"x{j:02d}" for j in range(p)]  # canonical order is column order
        alone = [fit_forest(X, y, config, names) for (X, y), config in zip(lakes, configs)]

        loads = [len(y) * config.n_trees for (_, y), config in zip(lakes, configs)]
        limit = {"one lake per pass": 1, "part-way": loads[0] + loads[1], "one pass": 1 << 40}
        monkeypatch.setattr(models, "_POOL_ROWS", limit[pool_rows])
        passes = count_passes(monkeypatch)
        pooled = models.fit_forests([(X, y, config, names) for (X, y), config in zip(lakes, configs)])
        assert sum(passes) == len(lakes)
        if pool_rows == "one lake per pass":
            assert passes == [1] * len(lakes)
        elif pool_rows == "one pass":
            assert passes == [len(lakes)]
        else:  # the first two lakes share a pass, and the rest follow in others
            assert passes[0] == 2 and len(passes) > 1
        for kind, (X, y), config, got, want in zip(kinds, lakes, configs, pooled, alone):
            assert_bitwise_equal(got, want)
            records = records_of(grow_trees(X, y, config.seed, config.n_trees, 2, math.ceil(p / 3)))
            assert_bitwise_equal(got, oracle_mdi(records, p))
            if kind in ("two rows", "constant target"):  # every tree is one leaf
                assert np.array_equal(records[1], np.full(config.n_trees, -1)) and not got.any()

    def test_lakes_of_another_column_count_start_a_new_pass(self, monkeypatch):
        rng = np.random.default_rng(11)
        lakes = [pooled_lake(rng, p, "plain") for p in (3, 3, 5, 3)]
        passes = count_passes(monkeypatch)
        config = ForestConfig(n_trees=4, seed=2)
        pooled = models.fit_forests([(X, y, config, None) for X, y in lakes])
        assert passes == [2, 1, 1]
        for (X, y), got in zip(lakes, pooled):
            assert_bitwise_equal(got, fit_forest(X, y, config))

    def test_a_bad_input_is_the_fit_forest_error(self, rng):
        good = (rng.normal(size=(20, 2)), rng.normal(size=20), ForestConfig(n_trees=3), None)
        bad = (rng.normal(size=(1, 2)), np.ones(1), ForestConfig(n_trees=3), None)
        with pytest.raises(FitError, match="^need at least 2 rows and 1 feature column to grow trees, have 1 x 2$"):
            models.fit_forests([good, bad])
