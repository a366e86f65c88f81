"""Ridge solver against a normal-equation oracle; forest against a
depth-first grower."""

import math

import numpy as np
import pytest

from limnoplan.errors import FitError
from limnoplan.models import (
    ForestConfig,
    ForestModel,
    TreeNodes,
    fit_forest,
    fit_ridge,
    mdi_importances,
    predict_forest,
    predict_ridge,
)


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


def oracle_grow_tree(X, y, rng, min_leaf, max_depth, features_per_split, seed_key):
    """Depth-first CART grower, one node per iteration (the reference).

    Same split rule as the forest: stable sort per candidate column,
    cumulative sums, cuts leaving at least `min_leaf` rows per side
    between distinct values, ties to the lowest candidate and then the
    smallest left block, midpoint threshold unless it rounds up to the
    right value. Candidates come from `rng.choice`, so only with
    `features_per_split == p` does it build the forest's trees.
    """
    n, p = X.shape
    feature, threshold, left, right, value, n_samples, decrease = ([] for _ in range(7))

    # Stack entries: (row indices, depth, parent node id, is_left_child).
    stack = [(np.arange(n), 0, -1, False)]
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
            or np.ptp(y_node) == 0.0
        ):
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
        stack.append((idx[~left_mask], depth + 1, node_id, False))
        stack.append((idx[left_mask], depth + 1, node_id, True))

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


def oracle_forest(X, y, config):
    """The forest grown tree by tree with the depth-first grower.

    Columns are taken as already canonical (names x0, x1, ... sort in
    order for p <= 10); tree i bootstraps from SeedSequence([seed, i]).
    """
    n, p = X.shape
    trees = []
    for i in range(config.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed & 0xFFFFFFFF, i]))
        boot = rng.integers(0, n, size=n)
        trees.append(
            oracle_grow_tree(
                X[boot], y[boot], rng, max(1, config.min_samples_leaf), config.max_depth, p,
                (config.seed, i),
            )
        )
    schema = [f"x{j}" for j in range(p)]
    return ForestModel(trees, schema, schema, list(range(p)), config)


def nodes_by_path(tree):
    """Map each node's root-to-node path ("", "L", "LR", ...) to its id."""
    out = {}
    stack = [(0, "")]
    while stack:
        node, path = stack.pop()
        out[path] = node
        if tree.feature[node] >= 0:
            stack.append((int(tree.left[node]), path + "L"))
            stack.append((int(tree.right[node]), path + "R"))
    assert len(out) == len(tree.feature)  # every node is reachable once
    return out


def assert_same_tree(a, b):
    assert np.array_equal(a.feature, b.feature)
    assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
    assert np.array_equal(a.left, b.left) and np.array_equal(a.right, b.right)
    assert np.array_equal(a.value, b.value)
    assert np.array_equal(a.n_samples, b.n_samples)
    assert np.array_equal(a.impurity_decrease, b.impurity_decrease)
    assert a.seed_key == b.seed_key


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
        model = fit_forest(X, np.full(40, 3.3), ForestConfig(n_trees=10, seed=0))
        assert all(len(t.feature) == 1 and t.feature[0] == -1 for t in model.trees)
        assert np.array_equal(mdi_importances(model), np.zeros(3))

    def test_single_informative_feature_dominates(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            X = rng.normal(size=(500, 2))
            y = X[:, 0].copy()
            model = fit_forest(X, y, ForestConfig(n_trees=50, seed=seed))
            imp = mdi_importances(model)
            assert imp[0] > 0.9

    def test_determinism(self, rng):
        X = rng.normal(size=(60, 4))
        y = rng.normal(size=60)
        a = fit_forest(X, y, ForestConfig(n_trees=12, seed=7))
        b = fit_forest(X, y, ForestConfig(n_trees=12, seed=7))
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold, equal_nan=True)
            assert np.array_equal(ta.value, tb.value)

    def test_importances_normalized(self, rng):
        X = rng.normal(size=(80, 5))
        y = X @ rng.normal(size=5) + rng.normal(0, 0.1, 80)
        imp = mdi_importances(fit_forest(X, y, ForestConfig(n_trees=20, seed=3)))
        assert (imp >= 0).all()
        assert abs(imp.sum() - 1.0) <= 1e-12

    def test_impurity_decreases_nonnegative(self, rng):
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        model = fit_forest(X, y, ForestConfig(n_trees=5, seed=0))
        for tree in model.trees:
            assert (tree.impurity_decrease >= 0).all()
            leaves = tree.feature == -1
            assert np.allclose(tree.impurity_decrease[leaves], 0.0)

    def test_permutation_invariance_with_mirrored_seed(self, rng):
        X = rng.normal(size=(70, 5))
        y = X[:, 1] * 2 + rng.normal(0, 0.2, 70)
        names = [f"f{j}" for j in range(5)]
        perm = [3, 0, 4, 1, 2]
        base = fit_forest(X, y, ForestConfig(n_trees=8, seed=5), feature_schema=names)
        permuted = fit_forest(
            X[:, perm], y, ForestConfig(n_trees=8, seed=5), feature_schema=[names[j] for j in perm]
        )
        X_new = rng.normal(size=(20, 5))
        assert np.array_equal(predict_forest(base, X_new), predict_forest(permuted, X_new[:, perm]))
        imp_base = dict(zip(base.feature_schema, mdi_importances(base)))
        imp_perm = dict(zip(permuted.feature_schema, mdi_importances(permuted)))
        assert imp_base == imp_perm

    def test_min_samples_leaf_respected(self, rng):
        X = rng.normal(size=(64, 2))
        y = rng.normal(size=64)
        model = fit_forest(X, y, ForestConfig(n_trees=6, min_samples_leaf=5, seed=2))
        for tree in model.trees:
            leaves = tree.feature == -1
            assert tree.n_samples[leaves].min() >= 5

    def test_max_depth_limits_tree(self, rng):
        X = rng.normal(size=(100, 2))
        y = rng.normal(size=100)
        model = fit_forest(X, y, ForestConfig(n_trees=4, max_depth=2, seed=1))
        for tree in model.trees:
            # Depth-2 binary tree has at most 7 nodes.
            assert len(tree.feature) <= 7

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
        config = ForestConfig(
            n_trees=5,
            min_samples_leaf=int(rng.integers(1, 4)),
            max_depth=4 if case % 3 else None,
            features_per_split=p,
            seed=case,
        )
        model = fit_forest(X, y, config)
        oracle = oracle_forest(X, y, config)
        # Node values and decreases are sums over the node's rows, added in
        # another order; their rounding follows the target's scale.
        value_tol = 1e-12 * float(np.max(np.abs(y)))
        decrease_tol = 1e-12 * float(np.max(y * y))
        for tree, ref in zip(model.trees, oracle.trees):
            assert tree.seed_key == ref.seed_key
            paths, ref_paths = nodes_by_path(tree), nodes_by_path(ref)
            assert paths.keys() == ref_paths.keys()
            for path, node in paths.items():
                ref_node = ref_paths[path]
                assert tree.feature[node] == ref.feature[ref_node], path
                assert tree.n_samples[node] == ref.n_samples[ref_node], path
                assert np.array_equal(
                    tree.threshold[node], ref.threshold[ref_node], equal_nan=True
                ), path
                assert abs(tree.value[node] - ref.value[ref_node]) <= value_tol, path
                assert (
                    abs(tree.impurity_decrease[node] - ref.impurity_decrease[ref_node])
                    <= decrease_tol
                ), path
        assert np.max(np.abs(mdi_importances(model) - mdi_importances(oracle))) <= 1e-12

    def test_breadth_first_node_ids(self, rng):
        X = rng.normal(size=(80, 3))
        y = X[:, 0] + rng.normal(0, 0.3, 80)
        for tree in fit_forest(X, y, ForestConfig(n_trees=4, seed=2)).trees:
            children = np.concatenate([tree.left, tree.right])
            children = children[children >= 0]
            # Children are numbered after their parents, in left-right pairs.
            assert np.array_equal(np.sort(children), np.arange(1, len(tree.feature)))
            split = tree.feature >= 0
            assert np.array_equal(tree.right[split], tree.left[split] + 1)
            assert np.all(np.diff(tree.left[split]) > 0)


class TestForestRandomness:
    def test_tree_depends_only_on_seed_and_index(self, rng):
        X = rng.normal(size=(90, 7))
        y = X[:, 2] - X[:, 5] + rng.normal(0, 0.3, 90)
        full = fit_forest(X, y, ForestConfig(n_trees=12, seed=11))
        for k in (1, 5, 11):
            part = fit_forest(X, y, ForestConfig(n_trees=k, seed=11))
            for tree, ref in zip(part.trees, full.trees[:k]):
                assert_same_tree(tree, ref)

    @pytest.mark.parametrize("seed", range(40))
    def test_importances_bitwise_invariant_to_column_order(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(70, 5))
        y = X[:, 1] * 2 + rng.normal(0, 0.2, 70)
        names = [f"f{j}" for j in range(5)]
        perm = [3, 0, 4, 1, 2]
        config = ForestConfig(n_trees=8, seed=5)
        base = fit_forest(X, y, config, feature_schema=names)
        permuted = fit_forest(X[:, perm], y, config, feature_schema=[names[j] for j in perm])
        imp_base = dict(zip(base.feature_schema, mdi_importances(base).tolist()))
        imp_perm = dict(zip(permuted.feature_schema, mdi_importances(permuted).tolist()))
        assert imp_base == imp_perm
