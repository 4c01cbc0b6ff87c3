import warnings

import numpy as np
import pytest

from autocast.models.boosting import (
    BOTTOM,
    LEARNING_RATE,
    MAX_DEPTH,
    MIN_SAMPLES_LEAF,
    SLOTS,
    BoostedTreeForecaster,
    fit_boosted_trees,
    train_pooled_trees,
)
from autocast.models.windows import content_order, make_window_features
from autocast.series import Frequency
from autocast.synth import Archetype, ArchetypeSpec, generate_corpus

from helpers import monthly_series
from oracles import boosted_trees_predict, boosted_trees_sorting

MONTH_PATTERN = np.array(
    [100.0, 150.0, 80.0, 120.0, 200.0, 90.0, 60.0, 110.0, 170.0, 130.0, 95.0, 140.0]
)


def predict_rows(model, X):
    """The forest's prediction for each row of X, one predict_one call per row."""
    return np.array([model.predict_one(row) for row in X])


class TestFitBoostedTrees:
    def test_constant_target_predicted_exactly(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 5))
        model = fit_boosted_trees(X, np.full(30, 7.5))
        assert np.allclose(predict_rows(model, X), 7.5)

    def test_single_row_predicted_exactly(self):
        X = np.array([[1.0, 2.0, 3.0]])
        y = np.array([42.0])
        model = fit_boosted_trees(X, y)
        assert predict_rows(model, X)[0] == pytest.approx(42.0, abs=1e-12)

    def test_month_function_training_mape_below_one_percent(self):
        series = monthly_series(np.tile(MONTH_PATTERN, 4))
        X, y = make_window_features(series)
        model = fit_boosted_trees(X, y)
        predicted = np.expm1(predict_rows(model, X))
        actual = np.expm1(y)
        mape = float(np.mean(np.abs((actual - predicted) / actual)))
        assert mape < 0.01

    def test_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            fit_boosted_trees(np.empty((0, 3)), np.empty(0))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 8))
        y = rng.normal(size=60)
        grid = rng.normal(size=(20, 8))
        a = predict_rows(fit_boosted_trees(X, y), grid)
        b = predict_rows(fit_boosted_trees(X, y), grid)
        assert np.array_equal(a, b)


def single_tree(X, y):
    """A one-round fit, whose one tree is grown on y minus its mean at any learning rate."""
    return fit_boosted_trees(X, y, n_rounds=1)


def tree_depth(model, tree=0):
    """Levels of splits in one tree of the heap."""
    splits = np.nonzero(model.feature[tree] >= 0)[0]
    return 0 if len(splits) == 0 else int(np.log2(splits.max() + 1)) + 1


class TestTreeGrowth:
    def test_min_samples_per_leaf_blocks_splits(self):
        # 3 rows cannot split into two leaves of >= 2 samples each
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 5.0, 9.0])
        model = single_tree(X, y)
        assert model.feature[0, 0] == -1
        assert model.value[0, 0] == pytest.approx(0.0)

    def test_identical_feature_values_cannot_split(self):
        X = np.ones((10, 2))
        y = np.arange(10.0)
        assert single_tree(X, y).feature[0, 0] == -1

    def test_clean_split_found(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([1.0, 1.0, 9.0, 9.0])
        model = single_tree(X, y)
        assert list(model.leaves(X)[:, 0]) == pytest.approx([-4.0, -4.0, 4.0, 4.0])

    def test_depth_capped_at_three(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 4))
        y = rng.normal(size=200)
        model = single_tree(X, y)
        assert model.feature.shape == (1, SLOTS) == (1, 2 ** (MAX_DEPTH + 1) - 1)
        assert tree_depth(model) == 3


def same_heap_tree(model, tree, node, slot=0):
    """Slot-by-slot equality of one heap tree with an oracle tree: feature, threshold, value.

    A leaf above the bottom level must also be repeated down its left chain,
    with threshold +inf, so that routing reaches it after MAX_DEPTH steps.
    """
    feature, threshold, value = model.feature[tree], model.threshold[tree], model.value[tree]
    if (feature[slot], value[slot]) != (node.feature, node.value):
        return False
    if node.is_leaf:
        chain = [slot]
        while chain[-1] < BOTTOM:
            chain.append(2 * chain[-1] + 1)
        return all(feature[i] == -1 and threshold[i] == np.inf and value[i] == node.value for i in chain)
    return threshold[slot] == node.threshold and (
        same_heap_tree(model, tree, node.left, 2 * slot + 1) and same_heap_tree(model, tree, node.right, 2 * slot + 2)
    )


def tied_design(rng, n, features):
    """Few distinct values per column, so ties are everywhere."""
    return rng.integers(0, 4, size=(n, features)).astype(float)


def synth_windows(frequency=Frequency.MONTHLY):
    """Pooled training windows of one product of each archetype, as train_pooled_trees builds them.

    Weekly products get three years of history, so each position of the year
    recurs; the short-history archetype keeps its default length.
    """
    specs = [
        ArchetypeSpec.from_kind(f"P{i}", kind)
        if frequency is Frequency.MONTHLY or kind is Archetype.SHORT_HISTORY
        else ArchetypeSpec.from_kind(f"P{i}", kind, length=156)
        for i, kind in enumerate(Archetype)
    ]
    corpus = generate_corpus(specs, seed=3, frequency=frequency)
    blocks = [make_window_features(s) for s in content_order(corpus)]
    return np.vstack([X for X, _ in blocks if len(X)]), np.concatenate([y for _, y in blocks if len(y)])


class TestMatchesSortingTrainer:
    """The presorted trainer grows the trees the sort-per-node trainer grows, bit for bit."""

    @staticmethod
    def check(X, y, n_rounds=25):
        model = fit_boosted_trees(X, y, n_rounds=n_rounds)
        base, roots = boosted_trees_sorting(X, y, n_rounds, LEARNING_RATE, MAX_DEPTH, MIN_SAMPLES_LEAF)
        assert model.base_value == base
        assert len(model.feature) == len(roots)
        for tree, root in enumerate(roots):
            assert same_heap_tree(model, tree, root)
        want = boosted_trees_predict(base, roots, LEARNING_RATE, X)
        assert [model.predict_one(row) for row in X] == list(want)
        return model

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_designs_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        X = np.hstack([tied_design(rng, 60, 3), rng.normal(size=(60, 3))])
        self.check(X, rng.normal(size=60))

    def test_tied_targets(self):
        rng = np.random.default_rng(5)
        self.check(tied_design(rng, 50, 4), rng.integers(0, 3, size=50).astype(float))

    def test_duplicated_column(self):
        rng = np.random.default_rng(6)
        X = tied_design(rng, 40, 4)
        X[:, 2] = X[:, 0]
        model = self.check(X, X[:, 0] + 0.1 * rng.normal(size=40))
        # a tie between equal columns goes to the lower index
        assert model.feature[0, 0] == 0

    def test_constant_column(self):
        rng = np.random.default_rng(7)
        X = np.hstack([np.full((40, 1), 3.0), rng.normal(size=(40, 2))])
        model = self.check(X, rng.normal(size=40))
        assert np.all(model.feature[:, 0] != 0)

    @pytest.mark.parametrize("n", [2 * MIN_SAMPLES_LEAF, 2 * MIN_SAMPLES_LEAF + 1])
    def test_smallest_splittable_nodes(self, n):
        rng = np.random.default_rng(n)
        self.check(rng.normal(size=(n, 3)), rng.normal(size=n))

    def test_pooled_synth_windows(self):
        X, y = synth_windows()
        self.check(X, y, n_rounds=40)

    def test_pooled_weekly_synth_windows(self):
        # 52 lag columns and 52 one-hot position columns
        X, y = synth_windows(Frequency.WEEKLY)
        self.check(X, y, n_rounds=10)

    def test_all_binary_design(self):
        rng = np.random.default_rng(8)
        X = rng.integers(0, 2, size=(50, 5)).astype(float)
        self.check(X, X @ [1.0, -2.0, 0.5, 0.0, 3.0] + 0.1 * rng.normal(size=50))

    def test_binary_columns_off_zero_one(self):
        rng = np.random.default_rng(9)
        X = np.column_stack(
            [
                np.where(rng.random(60) < 0.3, 2.0, 5.0),
                rng.normal(size=60),
                np.where(rng.random(60) < 0.6, -1.0, 0.0),
            ]
        )
        self.check(X, X[:, 0] - 2.0 * X[:, 2] + 0.1 * rng.normal(size=60))

    def test_binary_column_with_a_single_minority_row(self):
        rng = np.random.default_rng(10)
        X = np.column_stack([np.zeros(30), rng.normal(size=30)])
        X[17, 0] = 1.0
        y = rng.normal(size=30)
        y[17] = 25.0
        self.check(X, y)

    def test_binary_column_next_to_constant_column(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([np.full(40, 3.0), (rng.random(40) < 0.5).astype(float), np.full(40, -1.0)])
        self.check(X, 4.0 * X[:, 1] + rng.normal(size=40))

    def test_column_of_two_adjacent_doubles(self):
        rng = np.random.default_rng(12)
        a = np.nextafter(1.0, 2.0)
        X = np.column_stack([np.where(rng.random(40) < 0.5, a, np.nextafter(a, 2.0)), rng.normal(size=40)])
        self.check(X, np.where(X[:, 0] > a, 10.0, 0.0) + 0.1 * rng.normal(size=40))


class TestHeapForest:
    """predict_one routes the heap arrays as the oracle walks its trees, bit for bit."""

    @staticmethod
    def fit(X, y, n_rounds=10):
        model = fit_boosted_trees(X, y, n_rounds=n_rounds)
        base, roots = boosted_trees_sorting(X, y, n_rounds, LEARNING_RATE, MAX_DEPTH, MIN_SAMPLES_LEAF)
        return model, lambda rows: boosted_trees_predict(base, roots, LEARNING_RATE, rows)

    @staticmethod
    def assert_routes_like_oracle(model, oracle, rows):
        want = oracle(rows)
        assert [model.predict_one(row) for row in rows] == list(want)

    def test_tree_that_stops_above_max_depth(self):
        # residuals -10, 0, 10 by column 0: the root cuts off the pure left group,
        # which is a leaf at depth 1, and the right child splits into leaves at depth 2
        rng = np.random.default_rng(13)
        group = np.repeat([0.0, 1.0, 2.0], 6)
        X = np.column_stack([group, rng.normal(size=18)])
        model, oracle = self.fit(X, 10.0 * group)
        assert list(model.feature[0, :3]) == [0, -1, 0]
        assert list(model.feature[0, 3:7]) == [-1, -1, -1, -1]
        # the early leaf repeats down its left chain: slots 1, 3, 7
        assert model.value[0, 1] == model.value[0, 3] == model.value[0, 7]
        self.assert_routes_like_oracle(model, oracle, np.vstack([X, rng.normal(1.0, 1.0, size=(20, 2))]))

    def test_rows_exactly_at_a_threshold_go_left(self):
        rng = np.random.default_rng(14)
        X = np.hstack([tied_design(rng, 60, 3), rng.normal(size=(60, 2))])
        model, oracle = self.fit(X, rng.normal(size=60))
        splits = np.argwhere(model.feature >= 0)
        assert len(splits) > 0
        rows = np.repeat(X[:1], len(splits), axis=0)
        for row, (tree, slot) in zip(rows, splits):
            row[model.feature[tree, slot]] = model.threshold[tree, slot]
        self.assert_routes_like_oracle(model, oracle, rows)
        # the clean one-column split of TestTreeGrowth cuts at 0.5
        model = single_tree(np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([1.0, 1.0, 9.0, 9.0]))
        assert model.threshold[0, 0] == 0.5
        at, above = model.leaves(np.array([[0.5], [np.nextafter(0.5, 1.0)]]))[:, 0]
        assert (at, above) == (-4.0, 4.0)

    def test_two_valued_column_split(self):
        rng = np.random.default_rng(15)
        X = np.column_stack([np.where(rng.random(40) < 0.5, 2.0, 5.0), rng.normal(size=40)])
        model, oracle = self.fit(X, 3.0 * X[:, 0] + 0.1 * rng.normal(size=40))
        assert (model.feature[0, 0], model.threshold[0, 0]) == (0, 3.5)
        probes = np.column_stack([[2.0, 3.5, np.nextafter(3.5, 5.0), 5.0], [0.0, 0.0, 0.0, 0.0]])
        self.assert_routes_like_oracle(model, oracle, np.vstack([X, probes]))


class TestAdjacentDoubleThreshold:
    """A split between adjacent doubles must leave both children non-empty."""

    @pytest.mark.parametrize("binary", [True, False])
    def test_children_non_empty_and_predictions_finite(self, binary):
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        X = np.array([[a], [a], [b], [b]])
        if not binary:  # a third value keeps the column on the presorted path
            X = np.vstack([X, [[3.0], [3.0]]])
        y = np.array([0.0, 0.0, 10.0, 10.0, 20.0, 20.0][: len(X)])
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_boosted_trees(X, y, n_rounds=5)
            predictions = predict_rows(model, X)
        assert model.feature[0, 0] == 0
        threshold = model.threshold[0, 0]
        assert threshold == a
        assert any(row[0] <= threshold for row in X)
        assert any(row[0] > threshold for row in X)
        assert np.all(np.isfinite(predictions))


class TestPooledTraining:
    def test_corpus_order_does_not_matter(self):
        rng = np.random.default_rng(4)
        corpus = [
            monthly_series(np.maximum(rng.normal(100, 20, 30), 0), product_id=f"p{i}")
            for i in range(4)
        ]
        grid = rng.normal(100, 20, size=(10, 24))
        forward = predict_rows(train_pooled_trees(corpus), grid)
        backward = predict_rows(train_pooled_trees(list(reversed(corpus))), grid)
        assert np.array_equal(forward, backward)

    def test_renaming_products_does_not_matter(self):
        # small integer sales: tied values make the split sums depend on row order
        rng = np.random.default_rng(5)
        values = [rng.integers(0, 6, n).astype(float) for n in (30, 30, 26, 40)]
        names = [f"p{i}" for i in range(4)]
        grid = rng.integers(0, 6, size=(50, 24)).astype(float)
        original = train_pooled_trees([monthly_series(v, product_id=p) for v, p in zip(values, names)])
        renamed = train_pooled_trees([monthly_series(v, product_id=p) for v, p in zip(values, names[::-1])])
        assert predict_rows(original, grid).tobytes() == predict_rows(renamed, grid).tobytes()

    def test_all_products_too_short_rejected(self):
        corpus = [monthly_series(np.arange(10.0) + 1, product_id="p0")]
        with pytest.raises(ValueError, match="window"):
            train_pooled_trees(corpus)


class TestBoostedTreeForecaster:
    def test_needs_a_year_of_history(self):
        series = monthly_series(np.tile(MONTH_PATTERN, 4))
        model = train_pooled_trees([series])
        with pytest.raises(ValueError):
            BoostedTreeForecaster(model).fit(monthly_series(np.arange(11.0) + 1))

    def test_periodic_series_forecast_tracks_pattern(self):
        series = monthly_series(np.tile(MONTH_PATTERN, 4))
        model = train_pooled_trees([series])
        result = BoostedTreeForecaster(model).fit(series).forecast(12)
        assert result.start == series.end + 1
        mape = float(np.mean(np.abs((MONTH_PATTERN - result.values) / MONTH_PATTERN)))
        assert mape < 0.05

    def test_forecast_nonnegative_and_deterministic(self):
        series = monthly_series(np.tile(MONTH_PATTERN, 4))
        model = train_pooled_trees([series])
        a = BoostedTreeForecaster(model).fit(series).forecast(18)
        b = BoostedTreeForecaster(model).fit(series).forecast(18)
        assert np.array_equal(a.values, b.values)
        assert np.all(a.values >= 0)
        assert a.model_id == "boosted_tree"
