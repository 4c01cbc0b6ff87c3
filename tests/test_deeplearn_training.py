import numpy as np
import pytest

from autocast.deeplearn.network import CnnConfig, CnnNetwork
from autocast.deeplearn.training import (
    Adam,
    CnnForecaster,
    EarlyStopping,
    build_training_windows,
    product_scale,
    train_shared_cnn,
)

from helpers import monthly_series

TINY = CnnConfig(input_window=6, kernel_size=2, dilations=(1, 2), channels=4, seed=0, max_epochs=60)


class TestProductScale:
    def test_scale_is_mean(self):
        assert product_scale(monthly_series([10.0, 20.0, 30.0])) == 20.0

    def test_scale_floored_at_one(self):
        assert product_scale(monthly_series([0.2, 0.4, 0.6])) == 1.0


class TestBuildTrainingWindows:
    def test_row_counts_pool_across_products(self):
        corpus = [
            monthly_series(np.arange(30, dtype=float) + 1, product_id="a"),
            monthly_series(np.arange(30, dtype=float) + 1, product_id="b"),
        ]
        X, y = build_training_windows(corpus, input_window=24)
        assert X.shape == (12, 24)
        assert y.shape == (12,)

    def test_rows_sorted_by_target_period_then_product(self):
        # b starts 3 months later, so its first target lands mid-stream of a's
        b_values = np.array([3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 6.0, 6.0, 6.0, 6.0])
        corpus = [
            monthly_series(b_values, product_id="b", start_index=243),
            monthly_series(np.full(12, 2.0), product_id="a", start_index=240),
        ]
        X, y = build_training_windows(corpus, input_window=6)
        # a targets indices 246..251 (scaled 1.0), b targets 249..252; sort keys:
        # (246,a) (247,a) (248,a) (249,a) (249,b) (250,a) (250,b) (251,a) (251,b) (252,b)
        assert len(y) == 10
        b_target = 6.0 / b_values.mean()
        np.testing.assert_allclose(
            y, [1.0, 1.0, 1.0, 1.0, b_target, 1.0, b_target, 1.0, b_target, b_target]
        )

    def test_windows_are_normalized_by_product_mean(self):
        values = np.array([10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 20.0])
        corpus = [monthly_series(values, product_id="a")]
        X, y = build_training_windows(corpus, input_window=6)
        scale = values.mean()
        np.testing.assert_allclose(X[0], values[:6] / scale)
        assert y[0] == pytest.approx(20.0 / scale)

    def test_short_products_contribute_nothing(self):
        corpus = [
            monthly_series(np.full(6, 5.0), product_id="short"),
            monthly_series(np.full(8, 5.0), product_id="long"),
        ]
        X, y = build_training_windows(corpus, input_window=6)
        assert X.shape == (2, 6)

    def test_all_short_gives_empty_arrays(self):
        corpus = [monthly_series(np.full(6, 5.0))]
        X, y = build_training_windows(corpus, input_window=6)
        assert X.shape == (0, 6)
        assert y.shape == (0,)


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        w = np.array([0.0])
        opt = Adam(w, learning_rate=0.01)
        opt.step(np.array([1.0]))
        assert w[0] == pytest.approx(-0.01, rel=1e-6)

    def test_descends_against_gradient_sign(self):
        w = np.array([0.0, 0.0])
        Adam(w, learning_rate=0.1).step(np.array([1.0, -1.0]))
        assert w[0] < 0 < w[1]

    def test_converges_on_quadratic(self):
        w = np.array([10.0])
        opt = Adam(w, learning_rate=0.1)
        for _ in range(500):
            opt.step(2.0 * (w - 3.0))
        assert w[0] == pytest.approx(3.0, abs=1e-3)

    def test_flat_state_matches_per_parameter_update(self):
        # each parameter, a view into the flat vector, follows the textbook update exactly
        rng = np.random.default_rng(0)
        shapes = [(2, 3, 4), (4,), (1,)]
        flat = rng.normal(size=29)
        ends = np.cumsum([np.prod(shape) for shape in shapes])
        params = [flat[end - np.prod(shape) : end].reshape(shape) for shape, end in zip(shapes, ends)]
        expected = [p.copy() for p in params]
        opt = Adam(flat, learning_rate=0.01)
        moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
        for t in range(1, 6):
            grads = [rng.normal(size=p.shape) for p in params]
            opt.step(np.concatenate([g.ravel() for g in grads]))
            for param, grad, (m, v) in zip(expected, grads, moments):
                m *= 0.9
                m += (1.0 - 0.9) * grad
                v *= 0.999
                v += (1.0 - 0.999) * grad * grad
                param -= 0.01 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        for got, want in zip(params, expected):
            np.testing.assert_array_equal(got, want)


class TestEarlyStopping:
    def test_patience_below_one_rejected(self):
        with pytest.raises(ValueError, match="patience"):
            EarlyStopping(0)

    def test_flat_trace_stops_after_patience_stale_epochs(self):
        stopper = EarlyStopping(5)
        decisions = [stopper.update(loss) for loss in [5, 4, 4, 4, 4, 4, 4]]
        assert decisions == [False, False, False, False, False, False, True]

    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(2)
        assert stopper.update(5.0) is False
        assert stopper.update(5.0) is False
        assert stopper.update(4.0) is False
        assert stopper.update(4.0) is False
        assert stopper.update(4.0) is True

    def test_equal_loss_is_not_improvement(self):
        stopper = EarlyStopping(1)
        assert stopper.update(3.0) is False
        assert stopper.update(3.0) is True


class TestTrainSharedCnn:
    def test_constant_corpus_learns_constant(self):
        corpus = [monthly_series(np.full(30, 50.0), product_id=p) for p in ("a", "b")]
        network = train_shared_cnn(corpus, TINY)
        assert network.predict_one(np.ones(6)) == pytest.approx(1.0, rel=0.05)

    def test_training_is_deterministic(self):
        corpus = [monthly_series(np.full(30, 50.0), product_id=p) for p in ("a", "b")]
        net1 = train_shared_cnn(corpus, TINY)
        net2 = train_shared_cnn(corpus, TINY)
        np.testing.assert_array_equal(net1.get_weights(), net2.get_weights())
        f1 = CnnForecaster(net1).fit(corpus[0]).forecast(6)
        f2 = CnnForecaster(net2).fit(corpus[0]).forecast(6)
        np.testing.assert_array_equal(f1.values, f2.values)

    def test_loss_decreases_on_learnable_signal(self):
        t = np.arange(60)
        vals = 100 + 30 * np.sin(2 * np.pi * t / 12)
        corpus = [
            monthly_series(vals, product_id="s1"),
            monthly_series(np.roll(vals, 3), product_id="s2"),
        ]
        config = CnnConfig(input_window=12, kernel_size=2, dilations=(1, 2, 4), channels=8, seed=0, max_epochs=40)
        X, y = build_training_windows(corpus, config.input_window)

        def train_loss(network):
            return float(np.mean((network.forward(X) - y) ** 2))

        network = train_shared_cnn(corpus, config)
        assert train_loss(network) <= 0.5 * train_loss(CnnNetwork(config))

    def test_all_products_too_short_rejected(self):
        corpus = [monthly_series(np.full(6, 5.0))]
        with pytest.raises(ValueError, match="long enough"):
            train_shared_cnn(corpus, TINY)


def constant_predictor(config, bias):
    """Zero-weight network whose dense bias makes every prediction `bias`."""
    network = CnnNetwork(config)
    network.set_weights(np.zeros_like(network.get_weights()))
    network.head[1][...] = float(bias)
    return network


class TestCnnForecast:
    def test_constant_predictor_rescales_by_product_mean(self):
        network = constant_predictor(TINY, 1.0)
        train = monthly_series(np.full(12, 500.0))
        result = CnnForecaster(network).fit(train).forecast(5)
        np.testing.assert_array_equal(result.values, np.full(5, 500.0))
        assert result.model_id == "cnn"
        assert result.start == train.end + 1

    def test_negative_predictions_floored_inside_feedback_loop(self):
        network = constant_predictor(TINY, -1.0)
        train = monthly_series(np.full(12, 500.0))
        result = CnnForecaster(network).fit(train).forecast(5)
        np.testing.assert_array_equal(result.values, np.zeros(5))

    def test_horizon_eighteen(self):
        corpus = [monthly_series(np.full(30, 50.0), product_id=p) for p in ("a", "b")]
        network = train_shared_cnn(corpus, TINY)
        result = CnnForecaster(network).fit(corpus[0]).forecast(18)
        assert result.horizon == 18
        assert np.all(result.values >= 0)
        np.testing.assert_allclose(result.values, 50.0, rtol=0.10)

    def test_scale_equivariance(self):
        base = 20 + 10 * np.abs(np.sin(np.arange(40)))
        config = CnnConfig(input_window=8, kernel_size=2, dilations=(1, 2), channels=4, seed=0, max_epochs=20)
        scale_factor = 0.5
        net_a = train_shared_cnn([monthly_series(base, product_id="a")], config)
        net_b = train_shared_cnn([monthly_series(base * scale_factor, product_id="a")], config)
        fa = CnnForecaster(net_a).fit(monthly_series(base, product_id="a")).forecast(6).values
        fb = CnnForecaster(net_b).fit(monthly_series(base * scale_factor, product_id="a")).forecast(6).values
        np.testing.assert_allclose(fb, scale_factor * fa, rtol=1e-6)


class TestCnnForecaster:
    def test_fit_takes_the_scale_training_used(self):
        corpus = [monthly_series(np.full(30, 50.0), product_id=p) for p in ("a", "b")]
        network = train_shared_cnn(corpus, TINY)
        forecaster = CnnForecaster(network).fit(corpus[0])
        assert forecaster.scale_ == product_scale(corpus[0]) == 50.0
        assert forecaster.model_id.value == "cnn"

    def test_fit_requires_window_length(self):
        network = constant_predictor(TINY, 1.0)
        with pytest.raises(ValueError, match="6"):
            CnnForecaster(network).fit(monthly_series(np.full(5, 10.0)))
