import numpy as np
import pytest

from autocast.deeplearn.network import CHANNELS, DILATIONS, KERNEL, RECEPTIVE_FIELD, CnnNetwork
from autocast.deeplearn.training import loss_and_grads

from oracles import LayerStackCnn, conv1d_causal_bruteforce, full_length_cnn

# the input windows the pipeline builds: two years of months, two years of weeks
WIDTHS = [24, 104]


def pairs(network):
    """Every (weight, bias) view pair, conv blocks first, then the head."""
    return network.convs + [network.head]


def grad_pairs(network):
    return network.conv_grads + [network.head_grad]


def central_difference_check(input_window, seed, data_seed, h=1e-5):
    """Max relative error between analytic and numeric dLoss/dParam."""
    network = CnnNetwork(input_window, seed)
    rng = np.random.default_rng(data_seed)
    X = rng.uniform(0.2, 2.0, size=(4, input_window))
    y = rng.uniform(0.2, 2.0, size=4)
    _, live = loss_and_grads(network, X, y)
    analytic = live.copy()
    weights = network.weights
    worst = 0.0
    for j in range(weights.size):
        orig = weights[j]
        weights[j] = orig + h
        loss_plus = float(np.mean((network.forward(X) - y) ** 2))
        weights[j] = orig - h
        loss_minus = float(np.mean((network.forward(X) - y) ** 2))
        weights[j] = orig
        numeric = (loss_plus - loss_minus) / (2 * h)
        worst = max(worst, abs(analytic[j] - numeric) / max(abs(analytic[j]), abs(numeric), 1e-4))
    return worst


class TestGradients:
    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_analytic_matches_central_differences(self, width, seed):
        assert central_difference_check(width, seed, data_seed=seed + 100) < 1e-4

    def test_zero_residual_gives_zero_grads(self):
        network = CnnNetwork(24, 0)
        network.set_weights(np.zeros_like(network.get_weights()))
        X = np.random.default_rng(0).uniform(size=(3, 24))
        loss, gradient = loss_and_grads(network, X, np.zeros(3))
        assert loss == 0.0
        np.testing.assert_array_equal(gradient, 0.0)

    def test_backward_is_linear_in_upstream_grad(self):
        network = CnnNetwork(24, 4)
        X = np.random.default_rng(9).uniform(0.2, 2.0, size=(5, 24))
        network.forward(X)
        upstream = np.random.default_rng(10).normal(size=5)
        network.zero_grads()
        network.backward(upstream)
        once = network.gradient.copy()
        network.zero_grads()
        network.backward(2.0 * upstream)
        np.testing.assert_allclose(network.gradient, 2.0 * once, rtol=1e-12, atol=1e-15)

    def test_loss_and_grads_returns_live_buffers(self):
        network = CnnNetwork(24, 0)
        X = np.random.default_rng(1).uniform(size=(3, 24))
        _, gradient = loss_and_grads(network, X, np.ones(3))
        assert gradient is network.gradient


class TestReceptiveField:
    def test_receptive_field_formula(self):
        assert RECEPTIVE_FIELD == 1 + (KERNEL - 1) * sum(DILATIONS) == 16

    def test_receptive_field_must_fit_window(self):
        with pytest.raises(ValueError, match="receptive field"):
            CnnNetwork(RECEPTIVE_FIELD - 1, 0)

    @pytest.mark.parametrize("width", WIDTHS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_receptive_field_is_exactly_the_last_sixteen_values(self, width, seed):
        network = CnnNetwork(width, seed)
        x = np.random.default_rng(42).uniform(0.5, 1.5, size=width)
        base = network.predict_one(x)
        outside = x.copy()
        outside[: width - 16] += 1.0
        assert network.predict_one(outside) == base
        for position in range(width - 16, width):
            inside = x.copy()
            inside[position] += 1.0
            assert network.predict_one(inside) != base


class TestNetwork:
    def test_wrong_window_width_rejected(self):
        network = CnnNetwork(24, 0)
        with pytest.raises(ValueError, match="24"):
            network.forward(np.ones((2, 25)))

    def test_forward_accepts_single_window(self):
        network = CnnNetwork(24, 0)
        x = np.arange(24.0)
        assert network.forward(x).shape == (1,)
        assert network.predict_one(x) == pytest.approx(network.forward(x[None, :])[0])

    def test_set_weights_copies_values(self):
        network = CnnNetwork(24, 0)
        stored = network.get_weights()
        stored[...] = 123.0
        # get_weights returned a copy, so the live params are untouched
        assert not np.any(network.weights == 123.0)
        network.set_weights(stored)
        assert all(np.all(w == 123.0) and np.all(b == 123.0) for w, b in pairs(network))

    def test_parameters_are_views_of_one_flat_buffer(self):
        network = CnnNetwork(24, 0)
        params = [p for pair in pairs(network) for p in pair]
        grads = [g for pair in grad_pairs(network) for g in pair]
        conv_shapes = [(2, 1, 16), (16,)] + [(2, 16, 16), (16,)] * 3
        assert [p.shape for p in params] == conv_shapes + [(16,), (1,)]
        assert [g.shape for g in grads] == [p.shape for p in params]
        assert sum(p.size for p in params) == network.weights.size == network.gradient.size
        assert all(np.shares_memory(p, network.weights) for p in params)
        assert all(np.shares_memory(g, network.gradient) for g in grads)
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]), network.weights)
        network.gradient[...] = 1.0
        network.zero_grads()
        assert all(np.all(g == 0.0) for g in grads)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_weights_match_a_network_drawn_layer_by_layer(self, width):
        # the flat buffer keeps the per-layer draws of the seed, whatever the window
        rng = np.random.default_rng(5)
        want = []
        in_channels = 1
        for _ in DILATIONS:
            scale = np.sqrt(2.0 / (2 * in_channels))
            want += [rng.normal(0.0, scale, size=(16, in_channels, 2)).transpose(2, 1, 0), np.zeros(16)]
            in_channels = 16
        want += [rng.normal(0.0, np.sqrt(1.0 / 16), size=16), np.zeros(1)]
        params = [p for pair in pairs(CnnNetwork(width, 5)) for p in pair]
        assert len(params) == len(want)
        for got, expected in zip(params, want):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("width", WIDTHS)
    def test_matches_bruteforce_convolutions(self, width):
        # tap k reads t - (1-k)*dilation: the head reads the last step of triple-loop
        # convolutions over the whole window, ReLU applied after each
        network = CnnNetwork(width, 2)
        X = np.random.default_rng(2).normal(size=(2, width))
        x = X[:, None, :]
        for (weight, bias), dilation in zip(network.convs, DILATIONS):
            x = np.maximum(conv1d_causal_bruteforce(x, weight.transpose(2, 1, 0), bias, dilation), 0.0)
        head_weight, head_bias = network.head
        want = x[:, :, -1] @ head_weight + head_bias[0]
        np.testing.assert_allclose(network.forward(X), want, rtol=1e-12, atol=1e-12)


def channel_zero_network(taps):
    """Every block feeds channel 0 from channel 0 with the given tap weights, nothing
    else; the head reads channel 0 with weight 1 and adds 0.5."""
    network = CnnNetwork(24, 0)
    network.set_weights(np.zeros_like(network.weights))
    for weight, _ in network.convs:
        weight[:, 0, 0] = taps
    head_weight, head_bias = network.head
    head_weight[0] = 1.0
    head_bias[...] = 0.5
    return network


class TestBlocks:
    def test_last_tap_identity(self):
        network = channel_zero_network([0.0, 1.0])
        X = np.array([np.arange(24.0), np.r_[np.arange(23.0), -5.0]])
        # relu(x[-1]) + 0.5: the last tap is the current step, a negative one is clipped
        np.testing.assert_array_equal(network.forward(X), [23.5, 0.5])

    def test_both_taps_sum_the_receptive_field(self):
        network = channel_zero_network([1.0, 1.0])
        x = np.arange(1.0, 25.0)
        # the binary tree adds each of the last 16 values once
        assert network.predict_one(x) == x[-16:].sum() + 0.5

    def test_zero_weights_give_bias(self):
        network = CnnNetwork(24, 0)
        biases = np.random.default_rng(3).normal(size=16)
        for weight, bias in network.convs:
            weight[...] = 0.0
            bias[...] = biases
        head_weight, head_bias = network.head
        X = np.random.default_rng(0).normal(size=(2, 24))
        # the top block outputs relu(bias) whatever the input
        want = np.maximum(biases, 0.0) @ head_weight + head_bias[0]
        np.testing.assert_array_equal(network.forward(X), [want, want])

    def test_relu_masks_forward_and_backward(self):
        network = CnnNetwork(24, 1)
        top_weight, top_bias = network.convs[-1]
        top_weight[...] = 0.0
        top_bias[...] = -1.0
        X = np.random.default_rng(2).uniform(0.2, 2.0, size=(4, 24))
        # every top ReLU is off: the head sees zeros, and only the head bias gets a gradient
        np.testing.assert_array_equal(network.forward(X), network.head[1][0])
        network.zero_grads()
        network.backward(np.ones(4))
        assert network.head_grad[1][0] == 4.0
        network.head_grad[1][...] = 0.0
        np.testing.assert_array_equal(network.gradient, 0.0)


def full_length_reference(network, X, y):
    """Predictions and gradients of the same weights convolved over the whole window."""
    head_weight, head_bias = network.head
    return full_length_cnn(
        [(w.transpose(2, 1, 0), b, d) for (w, b), d in zip(network.convs, DILATIONS)],
        head_weight,
        head_bias[0],
        X,
        y,
    )


class TestMatchesFullLength:
    @pytest.mark.parametrize("width", WIDTHS + [RECEPTIVE_FIELD], ids=["monthly", "weekly", "field_equals_window"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_full_length_network(self, width, seed):
        network = CnnNetwork(width, seed)
        rng = np.random.default_rng(seed + 50)
        X = rng.uniform(0.2, 2.0, size=(32, width))
        y = rng.uniform(0.2, 2.0, size=32)
        want_pred, want_grads = full_length_reference(network, X, y)
        np.testing.assert_allclose(network.forward(X), want_pred, rtol=1e-12)
        loss_and_grads(network, X, y)
        grads = [g for pair in grad_pairs(network) for g in pair]
        assert len(grads) == len(want_grads)
        for got, want in zip(grads, want_grads):
            want = want.transpose(2, 1, 0) if want.ndim == 3 else want
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestMatchesLayerStack:
    """The flat network reproduces the one-object-per-layer stack it replaced, bit for bit."""

    @pytest.mark.parametrize("width", WIDTHS, ids=["monthly", "weekly"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_weights_predictions_and_gradient(self, width, seed):
        network = CnnNetwork(width, seed)
        oracle = LayerStackCnn(width, KERNEL, DILATIONS, CHANNELS, seed)
        assert network.weights.tobytes() == oracle.flat_params().tobytes()
        rng = np.random.default_rng(seed + 70)
        X = rng.uniform(0.2, 2.0, size=(32, width))
        y = rng.uniform(0.2, 2.0, size=32)
        assert network.forward(X).tobytes() == oracle.forward(X).tobytes()
        _, gradient = loss_and_grads(network, X, y)
        assert gradient.tobytes() == oracle.loss_gradient(X, y).tobytes()
