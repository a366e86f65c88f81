"""Feasibility grid, lexicographic minima, fallback, aggregation."""

import math

import numpy as np
import pytest

from limnoplan import joint
from limnoplan.dataset import split_by_count
from limnoplan.errors import EvaluationError, FitError, SchemaError
from limnoplan.evaluation import SizeGridSpec, backward_eval, prefix_nmae
from limnoplan.imputation import initialize_fill
from limnoplan.joint import (
    FeasibilityGrid,
    MinimalConfig,
    aggregate_configs,
    feasibility_grid,
    forward_selection,
    minimal_config,
    sample_curve,
)
from limnoplan.models import ForestConfig, fit_ridge
from limnoplan.selection import FeatureRanking, rank_features
from limnoplan.synth import SynthConfig, generate_lake

from conftest import completed_from_series, series_from_arrays


def lexmin_oracle(grid: FeasibilityGrid):
    """Exhaustive scan over every stored pair, independent of the search."""
    feasible = [(n, k) for (n, k), v in grid.nmae.items() if v <= grid.tau]
    if not feasible:
        return (grid.n_pre, grid.p, True)
    n, k = min(feasible)
    return (n, k, False)


def make_grid_by_hand(nmae, n_grid, p, n_pre, tolerance=0.05, full=1.0):
    order = [f"f{j}" for j in range(p)]
    excluded = {(n, k) for n in n_grid for k in range(1, p + 1) if n < k + 1}
    return FeasibilityGrid(
        lake_id=1,
        n_grid=list(n_grid),
        p=p,
        n_pre=n_pre,
        feature_order=order,
        nmae=nmae,
        excluded=excluded,
        full_nmae=full,
        tolerance=tolerance,
    )


def _prepared_lake(seed=0, n=140, weights=(1.0, 0.3), noise=0.25):
    config = SynthConfig(
        n_samples=n,
        n_features=len(weights),
        true_weights=tuple(weights),
        seasonal_amplitude=0.0,
        noise_sd=noise,
        seed=seed,
    )
    series, _ = generate_lake(config)
    split = split_by_count(series, n - 40)
    completed = completed_from_series(series)
    ranking = rank_features(split, completed, ForestConfig(n_trees=30, seed=seed))
    return split, completed, ranking


def oracle_nmae(split, completed, n, feature_names, penalty=1.0):
    """Normal-equation route computed without the package's fit/predict."""
    cols = [completed.feature_schema.index(f) for f in feature_names]
    X_pre = completed.values[split.pre_rows][:, cols][-n:]
    y_pre = split.pre.sdd[-n:]
    means, stds = X_pre.mean(axis=0), X_pre.std(axis=0)
    stds = np.where(stds > 0, stds, 1.0)
    Xs = (X_pre - means) / stds
    w = np.linalg.inv(Xs.T @ Xs + penalty * np.eye(len(cols))) @ (Xs.T @ (y_pre - y_pre.mean()))
    X_test = completed.values[split.test_rows][:, cols]
    y_test = split.test.sdd
    pred = y_pre.mean() + ((X_test - means) / stds) @ w
    return np.mean(np.abs(y_test - pred)) / y_test.mean()


class TestFeasibilityGrid:
    def test_full_configuration_always_feasible(self):
        split, completed, ranking = _prepared_lake()
        grid = feasibility_grid(split, completed, ranking, SizeGridSpec(stride=10))
        pair = (split.n_pre, len(completed.feature_schema))
        assert grid.nmae[pair] == grid.full_nmae
        assert grid.nmae[pair] <= grid.tau

    def test_ill_posed_pairs_excluded(self):
        split, completed, ranking = _prepared_lake()
        grid = feasibility_grid(
            split, completed, ranking, SizeGridSpec(n_min=1, stride=1), tolerance=0.05
        )
        p = grid.p
        for n in grid.n_grid[:5]:
            for k in range(1, p + 1):
                if n < k + 1:
                    assert (n, k) in grid.excluded
                    assert (n, k) not in grid.nmae
                else:
                    assert (n, k) in grid.nmae

    def test_grid_matches_normal_equation_oracle(self):
        split, completed, ranking = _prepared_lake(seed=5)
        grid = feasibility_grid(split, completed, ranking, SizeGridSpec(n_min=4, stride=9))
        for (n, k), value in grid.nmae.items():
            expected = oracle_nmae(split, completed, n, ranking.order[:k])
            assert value == pytest.approx(expected, rel=1e-9)

    def test_sufficient_single_feature_column_turns_feasible(self):
        # Feature 1 carries nearly all signal, so the k=1 column is feasible
        # for every size above some threshold.
        split, completed, ranking = _prepared_lake(seed=2, weights=(1.5, 0.05), noise=0.3)
        grid = feasibility_grid(split, completed, ranking, SizeGridSpec(n_min=4, stride=4))
        sizes = sorted(grid.n_grid)
        flags = [grid.nmae[(n, 1)] <= grid.tau for n in sizes]
        assert any(flags)
        first = flags.index(True)
        assert all(flags[first:]) or sum(flags[first:]) >= 0.8 * len(flags[first:])

    def test_rethreshold_shares_values(self):
        split, completed, ranking = _prepared_lake(seed=1)
        grid = feasibility_grid(split, completed, ranking, SizeGridSpec(stride=12))
        loose = grid.rethreshold(0.2)
        assert loose.nmae is grid.nmae
        assert loose.tau == pytest.approx(1.2 * grid.full_nmae)


class TestMinimalConfig:
    def test_forced_lexicographic_order(self):
        nmae = {(5, 2): 0.1, (5, 1): 0.1, (7, 1): 0.1, (7, 2): 9.9}
        grid = make_grid_by_hand(nmae, [5, 7], p=2, n_pre=7)
        chosen = minimal_config(grid)
        assert (chosen.n_hat, chosen.k_hat) == (5, 1)
        assert chosen.selected_features == ["f0"]
        assert not chosen.fallback

    def test_empty_feasible_set_falls_back(self):
        nmae = {(5, 1): 9.9, (7, 1): 9.9}
        grid = make_grid_by_hand(nmae, [5, 7], p=1, n_pre=7)
        chosen = minimal_config(grid)
        assert chosen.fallback
        assert (chosen.n_hat, chosen.k_hat) == (7, 1)
        assert chosen.selected_features == ["f0"]

    def test_matches_exhaustive_scan_on_random_grids(self, rng):
        for trial in range(300):
            n_pre = int(rng.integers(5, 40))
            p = int(rng.integers(1, 13))
            n_grid = sorted(set(rng.integers(2, n_pre + 1, size=rng.integers(2, 12)).tolist()))
            nmae = {}
            for n in n_grid:
                for k in range(1, p + 1):
                    if n >= k + 1:
                        nmae[(n, k)] = float(rng.uniform(0, 2))
            grid = make_grid_by_hand(nmae, n_grid, p=p, n_pre=n_pre, full=1.0, tolerance=0.05)
            chosen = minimal_config(grid)
            n_exp, k_exp, fb_exp = lexmin_oracle(grid)
            assert (chosen.n_hat, chosen.k_hat, chosen.fallback) == (n_exp, k_exp, fb_exp)

    def test_no_feasible_pair_precedes_choice(self, rng):
        for trial in range(50):
            p = int(rng.integers(1, 6))
            n_grid = sorted(set(rng.integers(2, 20, size=6).tolist()))
            nmae = {
                (n, k): float(rng.uniform(0.5, 1.5))
                for n in n_grid
                for k in range(1, p + 1)
                if n >= k + 1
            }
            grid = make_grid_by_hand(nmae, n_grid, p=p, n_pre=25, full=1.0)
            chosen = minimal_config(grid)
            if chosen.fallback:
                continue
            for pair in grid.feasible_pairs():
                assert pair >= (chosen.n_hat, chosen.k_hat)


class TestAggregate:
    def _config(self, lake, n, k, names=None, fallback=False):
        names = names or [f"f{j}" for j in range(k)]
        return MinimalConfig(lake_id=lake, n_hat=n, k_hat=k, selected_features=names, fallback=fallback)

    def test_direct_median(self):
        configs = [self._config(1, 10, 1), self._config(2, 20, 2), self._config(3, 30, 1)]
        summary = aggregate_configs(configs)
        assert summary.median_n == 20 and summary.median_k == 1

    def test_single_config_iqrs_zero(self):
        summary = aggregate_configs([self._config(1, 12, 3)])
        assert summary.iqr_n == 0.0 and summary.iqr_k == 0.0

    def test_linear_interpolation_iqr(self):
        configs = [self._config(i, n, 1) for i, n in enumerate([10, 20, 30, 40])]
        summary = aggregate_configs(configs)
        assert summary.iqr_n == pytest.approx(15.0)  # 37.5 - 22.5

    def test_feature_frequency_over_single_feature_lakes(self):
        configs = [
            self._config(1, 10, 1, ["oxy"]),
            self._config(2, 12, 1, ["oxy"]),
            self._config(3, 15, 1, ["phos"]),
            self._config(4, 30, 2, ["oxy", "phos"]),
        ]
        summary = aggregate_configs(configs)
        assert summary.feature_frequency == {"oxy": pytest.approx(2 / 3), "phos": pytest.approx(1 / 3)}
        assert sum(summary.feature_frequency.values()) == pytest.approx(1.0)

    def test_fallbacks_counted_and_excludable(self):
        configs = [
            self._config(1, 10, 1, ["a"]),
            self._config(2, 99, 3, ["a", "b", "c"], fallback=True),
        ]
        everything = aggregate_configs(configs)
        assert everything.fallback_count == 1 and everything.n_lakes == 2

    def test_empty_errors(self):
        with pytest.raises(EvaluationError):
            aggregate_configs([])


class TestToleranceMonotonicity:
    def test_nested_feasible_sets_and_monotone_minimum(self):
        split, completed, ranking = _prepared_lake(seed=8, weights=(1.0, 0.4, 0.2), n=160)
        grid = feasibility_grid(split, completed, ranking, SizeGridSpec(n_min=4, stride=6))
        tolerances = [round(0.01 * i, 2) for i in range(1, 11)]
        previous_set: set = set()
        previous_n = None
        for tol in tolerances:
            cur = grid.rethreshold(tol)
            pairs = set(cur.feasible_pairs())
            assert previous_set <= pairs
            chosen = minimal_config(cur)
            if previous_n is not None:
                assert chosen.n_hat <= previous_n
            previous_set, previous_n = pairs, chosen.n_hat

    def test_rethreshold_rejects_nonpositive(self):
        split, completed, ranking = _prepared_lake(seed=9)
        grid = feasibility_grid(split, completed, ranking, SizeGridSpec(stride=15))
        with pytest.raises(EvaluationError):
            grid.rethreshold(0.0)


BAD_TOLERANCES = [0.0, -0.1, float("nan"), float("inf")]


class TestOneToleranceRule:
    """Every search applies `joint.feasibility_threshold`, so each rejects the same tolerances."""

    @pytest.mark.parametrize("tolerance", BAD_TOLERANCES)
    def test_every_stage_rejects_a_tolerance_that_is_not_finite_and_positive(self, tolerance):
        split, completed, ranking = _prepared_lake(seed=9)
        spec = SizeGridSpec(stride=15)
        grid = feasibility_grid(split, completed, ranking, spec)
        stages = {
            "sample_curve": lambda: sample_curve(split, completed, spec, tolerance),
            "forward_selection": lambda: forward_selection(split, completed, ranking, tolerance),
            "feasibility_grid": lambda: feasibility_grid(split, completed, ranking, spec, tolerance),
            "rethreshold": lambda: grid.rethreshold(tolerance),
            "curve": lambda: make_grid_by_hand({(10, 1): 0.3, (20, 1): 0.2}, [10, 20], 1, 20, tolerance, 0.2).curve(),
            "selection": lambda: make_grid_by_hand({(3, 1): 0.3, (3, 2): 0.2}, [3], 2, 3, tolerance, 0.2).selection(),
        }
        for stage in stages.values():
            with pytest.raises(EvaluationError, match="tolerance must be finite and positive"):
                stage()

    def test_threshold_is_one_plus_tolerance_times_the_reference(self):
        assert joint.feasibility_threshold(0.2, 0.05) == (1.0 + 0.05) * 0.2
        assert joint.feasibility_threshold(0.2, 1e-12) > 0.2

    def test_first_within_keeps_search_order_and_skips_absent_candidates(self):
        nmae = {"a": 0.5, "b": 0.1, "c": 0.1, "nan": float("nan")}
        assert joint.first_within(["x", "nan", "a", "c", "b"], nmae, 0.2) == "c"
        assert joint.first_within(["a", "x"], nmae, 0.2) is None
        assert joint.first_within(iter(()), nmae, 1.0) is None

    def test_no_prefix_within_tolerance_is_an_evaluation_error(self):
        grid = make_grid_by_hand({(3, 1): 0.3, (3, 2): 0.2}, [3], p=2, n_pre=3, tolerance=0.05, full=0.1)
        with pytest.raises(EvaluationError, match="no ranking prefix"):
            grid.selection()

    def test_both_readers_apply_the_grids_threshold(self):
        # tau = 1.05 * 0.2 = 0.21: (8, 1) and (5, 2) are just over it, (8, 2) and (10, 2) within.
        nmae = {(5, 1): 0.3, (5, 2): 0.2100000001, (8, 1): 0.22, (8, 2): 0.21, (10, 1): 0.25, (10, 2): 0.2}
        grid = make_grid_by_hand(nmae, [5, 8, 10], p=2, n_pre=10, tolerance=0.05, full=0.2)
        assert (grid.curve().n_star, grid.selection().k_star) == (8, 2)
        assert (grid.rethreshold(0.5).curve().n_star, grid.rethreshold(0.5).selection().k_star) == (5, 1)

    def test_fallback_selects_the_whole_order(self):
        grid = make_grid_by_hand({(3, 1): 2.0, (3, 2): 1.0}, [3], p=2, n_pre=3, full=0.5)
        assert minimal_config(grid) == MinimalConfig(1, 3, 2, ["f0", "f1"], fallback=True)


def _engine_lake(seed, schema, n=70, n_pre=50, constant=None, duplicate=None):
    """Correlated gap-free covariates; `constant` names a zero-variance
    column, `duplicate` names a copy of the first column."""
    rng = np.random.default_rng(seed)
    X = 0.7 * rng.normal(size=(n, 1)) + rng.normal(size=(n, len(schema)))
    if constant is not None:
        X[:, schema.index(constant)] = 2.5
    if duplicate is not None:
        X[:, schema.index(duplicate)] = X[:, 0]
    sdd = 5.0 + X[:, 0] - 0.6 * X[:, 1] + 0.3 * X[:, -1] + rng.normal(0.0, 0.3, n)
    series = series_from_arrays(1, sdd, X, schema)
    return split_by_count(series, n_pre), completed_from_series(series)


def oracle_prefix_nmae(split, completed, sizes, order, penalty=1.0):
    """`prefix_nmae`'s arithmetic with one `np.ix_` gather per operand and prefix length: the
    reference for every bit the engine returns on input it accepts."""
    cols = [completed.feature_schema.index(f) for f in order]
    p, n_top = len(cols), max(sizes)
    X_pre = completed.values[split.pre_rows][:, cols]
    y_pre = split.pre.sdd
    X_test = completed.values[split.test_rows][:, cols]
    y_test = split.test.sdd
    q = min(p, n_top - 1)
    denom = y_test.mean()

    out = np.full((len(sizes), p), np.nan)
    n = np.asarray(sizes)
    kmax = np.minimum(n - 1, q)
    rows = np.flatnonzero(kmax >= 1)
    raw = np.column_stack([X_pre[-n_top:, :q], y_pre[-n_top:]])[::-1]
    center = np.ascontiguousarray(raw.T).mean(axis=1)
    block = raw - center
    counts = np.arange(1, n_top + 1)
    running = np.cumsum(block, axis=0) / counts[:, None]
    dev = block[1:] - running[:-1]
    comoment = np.empty((n_top, q + 1, q + 1))
    comoment[0] = 0.0
    np.multiply(dev[:, :, None], (dev * (counts[:-1] / counts[1:])[:, None])[:, None, :], out=comoment[1:])
    size = n[rows]
    comoment = np.cumsum(comoment, axis=0, out=comoment)[size - 1]
    live = (np.maximum.accumulate(raw[:, :q]) > np.minimum.accumulate(raw[:, :q]))[size - 1]
    diag = np.arange(q)
    stds = np.where(live, np.sqrt(comoment[:, diag, diag] / size[:, None]), 1.0)
    rhs = np.where(live, comoment[:, :q, q], 0.0) / stds
    gram = comoment[:, :q, :q]
    gram /= stds[:, :, None] * stds[:, None, :]
    gram[~(live[:, :, None] & live[:, None, :])] = 0.0
    gram[:, diag, diag] += penalty
    means = running[size - 1]
    X_test_c, y_test_c = X_test[:, :q] - center[:q], y_test - center[q]
    for k in range(1, q + 1):
        at = np.flatnonzero(size > k)
        pick = np.argsort(cols) if k == p else np.arange(k)
        weights = np.linalg.solve(gram[np.ix_(at, pick, pick)], rhs[np.ix_(at, pick)][..., None])[..., 0]
        weights /= stds[np.ix_(at, pick)]
        offset = (means[np.ix_(at, pick)] * weights).sum(axis=1) - means[at, q]
        residuals = (X_test_c[:, pick] @ weights[..., None])[..., 0]
        residuals -= offset[:, None]
        residuals -= y_test_c
        out[rows[at], k - 1] = np.abs(residuals).mean(axis=1) / denom
    return out


class TestPrefixEngineBitForBit:
    """`prefix_nmae` returns the oracle's bytes on seeded `synth` lakes."""

    @staticmethod
    def _lake(seed, n_features, constant=False, n=220, n_pre=170):
        series, _ = generate_lake(
            SynthConfig(n_samples=n, n_features=n_features, cross_correlation=0.3, noise_sd=0.4, seed=seed)
        )
        if constant:
            series.covariates[:, 1] = 0.1  # twelve 0.1s have a computed std of 1e-17
        return split_by_count(series, n_pre), completed_from_series(series)

    # A constant column makes a zero-penalty design rank-deficient, so it runs penalized only.
    @pytest.mark.parametrize(
        "n_features, constant, penalty",
        [(1, False, 0.0), (1, False, 1.0), (4, False, 0.0), (4, False, 1e-3), (4, True, 1e-3), (4, True, 1.0),
         (9, False, 0.0), (9, False, 1.0)],
    )
    def test_unsorted_sizes_with_sizes_below_two(self, n_features, constant, penalty):
        for seed in range(3):
            split, completed = self._lake(seed, n_features, constant)
            rng = np.random.default_rng(seed)
            order = [str(f) for f in rng.permutation(completed.feature_schema)]
            n_min = n_features + 2 if penalty == 0.0 else 2
            sizes = SizeGridSpec(n_min=n_min, stride=3).resolve(split.n_pre, n_features)
            sizes = [int(s) for s in rng.permutation(sizes)]
            if penalty > 0:
                sizes += [1, 0, 2]
            got = prefix_nmae(split, completed, sizes, order, penalty)
            want = oracle_prefix_nmae(split, completed, sizes, order, penalty)
            assert got.tobytes() == want.tobytes(), seed

    def test_a_pool_smaller_than_the_features(self):
        split, completed = self._lake(5, 9, n_pre=6)
        order = completed.feature_schema[::-1]
        sizes = [6, 3, 1, 5]
        want = oracle_prefix_nmae(split, completed, sizes, order)
        assert prefix_nmae(split, completed, sizes, order).tobytes() == want.tobytes()


class TestPrefixEngineAgainstOracle:
    """Grid, curve and selection share one factorization per training
    size; every value must still match a separate `backward_eval` fit."""

    SCHEMA = ["x01", "x02", "flat", "x03", "x04"]
    ORDER = ["x02", "flat", "x01", "x04", "x03"]  # zero-variance column ranked second

    @staticmethod
    def _assert_oracle(value, split, completed, n, features, penalty):
        expected = backward_eval(split, completed, n, features, penalty).nmae
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0), (n, features)

    @pytest.mark.parametrize("penalty", [1e-3, 0.5, 1.0, 10.0])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_every_value_matches_backward_eval(self, seed, penalty):
        split, completed = _engine_lake(seed, self.SCHEMA, constant="flat")
        ranking = FeatureRanking(scores={}, order=self.ORDER)
        p = len(self.SCHEMA)

        grid = feasibility_grid(split, completed, ranking, SizeGridSpec(n_min=2), penalty=penalty)
        assert min(grid.n_grid) < p + 1  # rows where only a prefix is admissible
        for (n, k), value in grid.nmae.items():
            self._assert_oracle(value, split, completed, n, self.ORDER[:k], penalty)

        curve = sample_curve(split, completed, SizeGridSpec(n_min=p + 1), penalty=penalty)
        for n, value in curve.nmae_at.items():
            self._assert_oracle(value, split, completed, n, self.SCHEMA, penalty)

        selection = forward_selection(split, completed, ranking, penalty=penalty)
        assert sorted(selection.nmae_by_k) == list(range(1, p + 1))
        for k, value in selection.nmae_by_k.items():
            self._assert_oracle(value, split, completed, split.n_pre, self.ORDER[:k], penalty)

    def test_zero_penalty_on_duplicated_column_is_a_fit_error(self):
        schema = ["x01", "x02", "x03", "x01_copy"]
        split, completed = _engine_lake(4, schema, duplicate="x01_copy")
        ranking = FeatureRanking(scores={}, order=["x01", "x01_copy", "x02", "x03"])
        with pytest.raises(FitError):
            feasibility_grid(split, completed, ranking, penalty=0.0)
        with pytest.raises(FitError):
            sample_curve(split, completed, penalty=0.0)
        with pytest.raises(FitError):
            forward_selection(split, completed, ranking, penalty=0.0)
        # The same design is well-posed once penalized.
        feasibility_grid(split, completed, ranking, penalty=1.0)
        sample_curve(split, completed, penalty=1.0)
        forward_selection(split, completed, ranking, penalty=1.0)

    def test_pool_too_small_for_the_full_fit_is_an_evaluation_error(self):
        schema = ["x01", "x02", "x03", "x04"]
        split, completed = _engine_lake(6, schema, n=20, n_pre=4)
        ranking = FeatureRanking(scores={}, order=schema)
        with pytest.raises(EvaluationError):
            feasibility_grid(split, completed, ranking)
        with pytest.raises(EvaluationError):
            sample_curve(split, completed)
        with pytest.raises(EvaluationError):
            forward_selection(split, completed, ranking)


class TestOneValuePerCell:
    """Among engine calls whose sizes end at the full pool, a cell's nMAE
    depends only on its own size and prefix, and the all-features column
    not on the order the features were asked in."""

    SCHEMA = ["x01", "x02", "flat", "x03", "x04"]
    ORDER = ["x03", "x01", "flat", "x04", "x02"]

    def test_shared_cells_are_bit_equal_across_size_sets(self):
        split, completed = _engine_lake(12, self.SCHEMA, n=200, n_pre=160, constant="flat")
        n_pre, p = split.n_pre, len(self.SCHEMA)
        size_sets = [
            SizeGridSpec(n_min=2).resolve(n_pre, p),
            SizeGridSpec(n_min=2, stride=3).resolve(n_pre, p),
            SizeGridSpec(stride=4).resolve(n_pre, p),
            SizeGridSpec(n_min=9, stride=7).resolve(n_pre, p),
            [n_pre],
        ]
        assert len(size_sets[0]) > 48
        cells: dict[tuple[int, int], list[float]] = {}
        for sizes in size_sets:
            for n, row in zip(sizes, prefix_nmae(split, completed, sizes, self.ORDER).tolist()):
                for k, value in enumerate(row, start=1):
                    if not math.isnan(value):
                        cells.setdefault((n, k), []).append(value)
        shared = {cell: values for cell, values in cells.items() if len(values) > 1}
        assert len(shared) > 200 and all(len(cells[(n_pre, k)]) == len(size_sets) for k in range(1, p + 1))
        assert [cell for cell, values in shared.items() if len(set(values)) > 1] == []

    def test_all_features_column_is_bit_equal_under_shuffled_orders(self):
        split, completed = _engine_lake(13, self.SCHEMA, n=200, n_pre=160, constant="flat")
        p = len(self.SCHEMA)
        sizes = SizeGridSpec(n_min=2, stride=3).resolve(split.n_pre, p)
        column = prefix_nmae(split, completed, sizes, self.SCHEMA)[:, p - 1]
        rng = np.random.default_rng(13)
        for _ in range(4):
            order = [str(name) for name in rng.permutation(self.SCHEMA)]
            assert np.array_equal(prefix_nmae(split, completed, sizes, order)[:, p - 1], column, equal_nan=True), order
        for n, value in zip(sizes, column.tolist()):
            if n > p:
                expected = backward_eval(split, completed, n, self.SCHEMA).nmae
                assert value == pytest.approx(expected, rel=1e-12, abs=0.0), n
            else:
                assert math.isnan(value)


@pytest.mark.parametrize("penalty", [math.nan, math.inf, -1.0])
def test_penalty_that_is_not_finite_and_nonnegative_is_a_fit_error(penalty):
    schema = ["x01", "x02", "x03"]
    split, completed = _engine_lake(14, schema)
    ranking = FeatureRanking(scores={}, order=schema)
    X, y = completed.values[split.pre_rows], split.pre.sdd
    calls = [
        lambda: fit_ridge(X, y, penalty),
        lambda: feasibility_grid(split, completed, ranking, penalty=penalty),
        lambda: sample_curve(split, completed, penalty=penalty),
        lambda: forward_selection(split, completed, ranking, penalty=penalty),
    ]
    for call in calls:
        with pytest.raises(FitError, match="penalty must be finite and nonnegative"):
            call()


@pytest.mark.parametrize(
    "order",
    [["x01", "x01", "x02"], ["x01", "x01", "x02", "x03"], ["x01", "x02"]],
    ids=["repeat", "repeat-beside-every-name", "short"],
)
def test_a_ranking_that_is_not_a_permutation_of_the_schema_is_a_schema_error(order):
    split, completed = _engine_lake(14, ["x01", "x02", "x03"])
    ranking = FeatureRanking(scores={}, order=order)
    for call in (feasibility_grid, forward_selection):
        with pytest.raises(SchemaError, match="not a permutation of the feature schema"):
            call(split, completed, ranking)


def test_singular_stacked_solve_is_a_fit_error(monkeypatch):
    schema = ["x01", "x02", "x03"]
    split, completed = _engine_lake(14, schema)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    calls = [
        lambda: prefix_nmae(split, completed, [8, split.n_pre], schema),
        lambda: feasibility_grid(split, completed, FeatureRanking({}, schema)),
    ]
    for call in calls:
        with pytest.raises(FitError, match="singular penalized system"):
            call()


def _trending_lake(seed, n=260, n_pre=200, steady_rows=0):
    """Columns `base`, `offset` (about 1e6), `trend` (a strong linear drift)
    and `steady` (scale 1e-9). `steady` is constant over the last
    `steady_rows` pre-test rows only, at a value whose computed mean over
    those rows is not the value itself."""
    rng = np.random.default_rng(seed)
    t = np.arange(n, dtype=float)
    base = rng.normal(size=n)
    # At 1e6 one ulp is 1.2e-10, which bounds how well any summation order
    # knows a window mean; a spread of 1e3 keeps that below 1e-12 after
    # standardizing, while S2 - n m m' about zero would lose 6 digits.
    offset = 1e6 + 1e3 * rng.normal(size=n)
    trend = 0.5 * t + 0.1 * rng.normal(size=n)
    steady = 1e-9 * rng.normal(size=n)
    if steady_rows:
        steady[n_pre - steady_rows : n_pre] = 7.77e-9
    X = np.column_stack([base, offset, trend, steady])
    sdd = 5.0 + base + 1e-3 * (offset - 1e6) + 0.004 * trend + 3e8 * steady + rng.normal(0.0, 0.3, n)
    series = series_from_arrays(1, sdd, X, ["base", "offset", "trend", "steady"])
    return split_by_count(series, n_pre), completed_from_series(series)


class TestBatchedEngineEdges:
    """Windows whose co-moments are hard to update, and the size counts and
    penalties that take other branches of the batched solve."""

    ORDER = ["trend", "offset", "steady", "base"]

    def _assert_grid_matches_oracle(self, split, completed, spec, penalty):
        grid = feasibility_grid(split, completed, FeatureRanking({}, self.ORDER), spec, penalty=penalty)
        for (n, k), value in grid.nmae.items():
            expected = backward_eval(split, completed, n, self.ORDER[:k], penalty).nmae
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0), (n, k)
        return grid

    @pytest.mark.parametrize("penalty", [1e-3, 1.0])
    def test_offset_and_trend_columns_over_several_chunks(self, penalty):
        split, completed = _trending_lake(7)
        grid = self._assert_grid_matches_oracle(split, completed, SizeGridSpec(n_min=2), penalty)
        assert len(grid.n_grid) > 48

    @pytest.mark.parametrize("penalty", [1e-3, 1.0])
    def test_column_constant_only_in_the_recent_window(self, penalty):
        split, completed = _trending_lake(8, steady_rows=12)
        pre = completed.values[split.pre_rows][:, 3]
        assert np.ptp(pre[-12:]) == 0 and np.ptp(pre[-13:]) > 0
        self._assert_grid_matches_oracle(split, completed, SizeGridSpec(n_min=2, stride=3), penalty)

    def test_as_many_sizes_as_features(self):
        # `solve` reads a (sizes, p) right-hand side as a stack of vectors
        # under numpy 1.x but, when sizes == p, as one matrix under 2.x.
        split, completed = _trending_lake(9)
        sizes = [9, 40, 77, 150]
        values = prefix_nmae(split, completed, sizes, self.ORDER, 1.0)
        for row, n in enumerate(sizes):
            for k in range(1, 5):
                expected = backward_eval(split, completed, n, self.ORDER[:k], 1.0).nmae
                assert values[row, k - 1] == pytest.approx(expected, rel=1e-12, abs=0.0), (n, k)

    def test_zero_penalty_with_sizes_up_to_p(self):
        # `steady`, ranked third, is constant over the last four rows: the
        # 4-row window (p = 4) is the one rank-deficient design.
        split, completed = _trending_lake(10, steady_rows=4)
        ranking = FeatureRanking({}, self.ORDER)
        with pytest.raises(FitError, match="rank-deficient"):
            feasibility_grid(split, completed, ranking, SizeGridSpec(n_min=2), penalty=0.0)
        grid = feasibility_grid(split, completed, ranking, SizeGridSpec(n_min=5, stride=20), penalty=0.0)
        for (n, k), value in grid.nmae.items():
            expected = backward_eval(split, completed, n, self.ORDER[:k], 0.0).nmae
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0), (n, k)


@pytest.mark.parametrize("penalty", [1e-3, 1.0])
def test_a_column_whose_std_underflows_matches_backward_eval(penalty):
    # Multiples of the smallest subnormal: most windows have max > min, but every squared deviation
    # underflows, so the computed std is 0 and both paths treat the column as constant.
    rng = np.random.default_rng(21)
    n, schema = 120, ["x01", "tiny", "x02"]
    X = rng.normal(size=(n, 3))
    X[:, 1] = rng.integers(0, 40, size=n) * 5e-324
    sdd = 5.0 + X[:, 0] - 0.5 * X[:, 2] + rng.normal(0.0, 0.3, n)
    series = series_from_arrays(1, sdd, X, schema)
    split, completed = split_by_count(series, 90), completed_from_series(series)
    order = ["tiny", "x02", "x01"]
    grid = feasibility_grid(split, completed, FeatureRanking({}, order), SizeGridSpec(n_min=2), penalty=penalty)
    assert np.isfinite(list(grid.nmae.values())).all()
    for (n, k), value in grid.nmae.items():
        expected = backward_eval(split, completed, n, order[:k], penalty).nmae
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0), (n, k)


def test_each_entry_point_makes_one_engine_call(monkeypatch):
    """The grid, the curve and the selection each come from one `prefix_nmae` call, over their own sizes."""
    split, completed, ranking = _prepared_lake(seed=9)
    p, calls, engine = len(ranking.order), [], joint.prefix_nmae

    def counting(split, completed, sizes, *args):
        calls.append(list(sizes))
        return engine(split, completed, sizes, *args)

    monkeypatch.setattr(joint, "prefix_nmae", counting)
    spec = SizeGridSpec(n_min=2, stride=15)
    grid = feasibility_grid(split, completed, ranking, spec)
    assert calls == [grid.n_grid]
    curve = sample_curve(split, completed, spec)
    assert calls[1:] == [curve.grid] and curve.grid == [n for n in grid.n_grid if n > p]
    forward_selection(split, completed, ranking)
    assert calls[2:] == [[split.n_pre]]


def _duplicate_row_lake():
    """A synth lake (80 x 4, seed 3, split at 60) whose last two pre-test rows are one point, so its
    2-row window is rank-deficient at zero penalty."""
    series, _ = generate_lake(SynthConfig(n_samples=80, n_features=4, seed=3))
    series.covariates[59] = series.covariates[58]
    split, completed = split_by_count(series, 60), initialize_fill(series.covariates, list(series.feature_schema))
    return series, split, completed


def test_zero_penalty_curve_fits_no_size_up_to_p():
    # A grid over every size of the spec fails on the duplicated window, while the curve's grid
    # (n > p = 4) leaves that window out and matches separate fits.
    series, split, completed = _duplicate_row_lake()
    spec = SizeGridSpec(n_min=2, stride=2)
    with pytest.raises(FitError, match="rank-deficient design with zero penalty"):
        feasibility_grid(split, completed, FeatureRanking({}, series.feature_schema), spec, penalty=0.0)
    curve = sample_curve(split, completed, spec, penalty=0.0)
    assert curve.grid == list(range(6, 61, 2)) and curve.n_star == 54
    for n, value in curve.nmae_at.items():
        expected = backward_eval(split, completed, n, series.feature_schema, 0.0).nmae
        assert value == pytest.approx(expected, rel=1e-12, abs=0.0), n


# The curve of the lake above, bit for bit, as written where `bundle_digests.json` was recorded.
DUPLICATE_ROW_CURVE = {
    6: "0x1.9eacf285442acp-2", 8: "0x1.17abcf8fe1785p-1", 10: "0x1.fa787e70681b6p-4", 12: "0x1.983c563e6c9b8p-4",
    14: "0x1.c813a23ebfd35p-4", 16: "0x1.248eea149acfbp-3", 18: "0x1.ce8028a896765p-4", 20: "0x1.cdba1e45fc9e7p-4",
    22: "0x1.bfece8bf42a9ep-4", 24: "0x1.4b6b706b0a216p-4", 26: "0x1.2d1b0556f0fecp-4", 28: "0x1.fddf30744395fp-5",
    30: "0x1.c33498f05d205p-5", 32: "0x1.023d407eaabfep-4", 34: "0x1.145faac3a5409p-4", 36: "0x1.011cb67b48e3dp-4",
    38: "0x1.e92f5fae4991fp-5", 40: "0x1.df4b2e1423633p-5", 42: "0x1.db7dc13958fc9p-5", 44: "0x1.d9e41a835637ap-5",
    46: "0x1.e9008b16e5577p-5", 48: "0x1.faaceac2c3062p-5", 50: "0x1.d5bc50c27c63dp-5", 52: "0x1.ceeedfba2862ap-5",
    54: "0x1.9bfde196b2d31p-5", 56: "0x1.b51ab14cca221p-5", 58: "0x1.b2f15439a7c21p-5", 60: "0x1.a9bf4b15b1fe6p-5",
}


def test_zero_penalty_curve_bits():
    """The solves' last bits depend on numpy, BLAS/LAPACK and the CPU, so the pin holds only in the
    environment `bundle_digests.json` records, and skips, naming both, anywhere else."""
    import json

    import bundle_digests

    recorded, here = json.loads(bundle_digests.DIGESTS.read_text())["environment"], bundle_digests.environment()
    if here != recorded:
        pytest.skip(
            "curve bits were recorded in another environment; "
            f"recorded: {json.dumps(recorded, sort_keys=True)}; here: {json.dumps(here, sort_keys=True)}"
        )
    series, split, completed = _duplicate_row_lake()
    curve = sample_curve(split, completed, SizeGridSpec(n_min=2, stride=2), penalty=0.0)
    assert {n: float.hex(value) for n, value in curve.nmae_at.items()} == DUPLICATE_ROW_CURVE
