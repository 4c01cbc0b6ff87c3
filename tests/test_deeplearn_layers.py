from dataclasses import replace

import numpy as np
import pytest

from autocast.deeplearn.network import CnnConfig, CnnNetwork, causal_taps, cone
from autocast.deeplearn.training import loss_and_grads

from oracles import LayerStackCnn, conv1d_causal_bruteforce, full_length_cnn


def pairs(network):
    """Every (weight, bias) view pair, conv blocks first, then the head."""
    return network.convs + [network.head]


def grad_pairs(network):
    return network.conv_grads + [network.head_grad]


def central_difference_check(config, data_seed, h=1e-5):
    """Max relative error between analytic and numeric dLoss/dParam."""
    network = CnnNetwork(config)
    rng = np.random.default_rng(data_seed)
    X = rng.uniform(0.2, 2.0, size=(4, config.input_window))
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
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_analytic_matches_central_differences(self, seed):
        config = CnnConfig(input_window=8, kernel_size=2, dilations=(1, 2), channels=3, seed=seed)
        assert central_difference_check(config, data_seed=seed + 100) < 1e-4

    def test_zero_residual_gives_zero_grads(self):
        config = CnnConfig(input_window=6, kernel_size=2, dilations=(1,), channels=2, seed=0)
        network = CnnNetwork(config)
        network.set_weights(np.zeros_like(network.get_weights()))
        X = np.random.default_rng(0).uniform(size=(3, 6))
        loss, gradient = loss_and_grads(network, X, np.zeros(3))
        assert loss == 0.0
        np.testing.assert_array_equal(gradient, 0.0)

    def test_backward_is_linear_in_upstream_grad(self):
        config = CnnConfig(input_window=8, kernel_size=2, dilations=(1, 2), channels=3, seed=4)
        network = CnnNetwork(config)
        X = np.random.default_rng(9).uniform(0.2, 2.0, size=(5, 8))
        network.forward(X)
        upstream = np.random.default_rng(10).normal(size=5)
        network.zero_grads()
        network.backward(upstream)
        once = network.gradient.copy()
        network.zero_grads()
        network.backward(2.0 * upstream)
        np.testing.assert_allclose(network.gradient, 2.0 * once, rtol=1e-12, atol=1e-15)

    def test_loss_and_grads_returns_live_buffers(self):
        config = CnnConfig(input_window=6, kernel_size=2, dilations=(1,), channels=2, seed=0)
        network = CnnNetwork(config)
        X = np.random.default_rng(1).uniform(size=(3, 6))
        _, gradient = loss_and_grads(network, X, np.ones(3))
        assert gradient is network.gradient


class TestCnnConfig:
    def test_receptive_field_formula(self):
        assert CnnConfig().receptive_field == 16
        assert CnnConfig(input_window=8, kernel_size=3, dilations=(1, 2), channels=2).receptive_field == 7

    def test_receptive_field_must_fit_window(self):
        with pytest.raises(ValueError, match="receptive field"):
            CnnConfig(input_window=10, dilations=(1, 2, 4, 8))

    def test_defaults(self):
        cfg = CnnConfig()
        assert (cfg.input_window, cfg.kernel_size, cfg.dilations, cfg.channels) == (24, 2, (1, 2, 4, 8), 16)
        assert (cfg.learning_rate, cfg.batch_size, cfg.max_epochs, cfg.patience, cfg.seed) == (
            1e-3, 32, 100, 5, 0,
        )


class TestNetwork:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_receptive_field_is_exactly_sixteen(self, seed):
        network = CnnNetwork(CnnConfig(seed=seed))
        x = np.random.default_rng(42).uniform(0.5, 1.5, size=24)
        base = network.predict_one(x)
        outside = x.copy()
        outside[24 - 17] += 1.0
        inside = x.copy()
        inside[24 - 16] += 1.0
        assert network.predict_one(outside) == base
        assert network.predict_one(inside) != base

    def test_wrong_window_width_rejected(self):
        network = CnnNetwork(CnnConfig(input_window=6, dilations=(1, 2), channels=2, seed=0))
        with pytest.raises(ValueError, match="6"):
            network.forward(np.ones((2, 7)))

    def test_forward_accepts_single_window(self):
        network = CnnNetwork(CnnConfig(input_window=6, dilations=(1, 2), channels=2, seed=0))
        x = np.arange(6.0)
        assert network.forward(x).shape == (1,)
        assert network.predict_one(x) == pytest.approx(network.forward(x[None, :])[0])

    def test_set_weights_copies_values(self):
        network = CnnNetwork(CnnConfig(input_window=6, dilations=(1,), channels=2, seed=0))
        stored = network.get_weights()
        stored[...] = 123.0
        # get_weights returned a copy, so the live params are untouched
        assert not np.any(network.weights == 123.0)
        network.set_weights(stored)
        assert all(np.all(w == 123.0) and np.all(b == 123.0) for w, b in pairs(network))

    def test_parameters_are_views_of_one_flat_buffer(self):
        network = CnnNetwork(CnnConfig(input_window=8, dilations=(1, 2), channels=3, seed=0))
        params = [p for pair in pairs(network) for p in pair]
        grads = [g for pair in grad_pairs(network) for g in pair]
        assert [p.shape for p in params] == [(2, 1, 3), (3,), (2, 3, 3), (3,), (3,), (1,)]
        assert [g.shape for g in grads] == [p.shape for p in params]
        assert sum(p.size for p in params) == network.weights.size == network.gradient.size
        assert all(np.shares_memory(p, network.weights) for p in params)
        assert all(np.shares_memory(g, network.gradient) for g in grads)
        np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]), network.weights)
        network.gradient[...] = 1.0
        network.zero_grads()
        assert all(np.all(g == 0.0) for g in grads)

    def test_weights_match_a_network_drawn_layer_by_layer(self):
        # the flat buffer keeps the per-layer draws of the seed
        config = CnnConfig(input_window=8, dilations=(1, 2), channels=3, seed=5)
        rng = np.random.default_rng(5)
        first = rng.normal(0.0, np.sqrt(2.0 / 2), size=(3, 1, 2)).transpose(2, 1, 0)
        second = rng.normal(0.0, np.sqrt(2.0 / 6), size=(3, 3, 2)).transpose(2, 1, 0)
        dense = rng.normal(0.0, np.sqrt(1.0 / 3), size=3)
        params = [p for pair in pairs(CnnNetwork(config)) for p in pair]
        for got, want in zip(params, [first, np.zeros(3), second, np.zeros(3), dense, np.zeros(1)]):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_one_block_matches_bruteforce_conv(self, dilation, kernel):
        # tap k reads t - (kernel-1-k)*dilation: the head reads the last step of a
        # triple-loop convolution over the whole window, ReLU applied
        config = CnnConfig(input_window=12, kernel_size=kernel, dilations=(dilation,), channels=2, seed=dilation)
        network = CnnNetwork(config)
        (weight, bias), (head_weight, head_bias) = network.convs[0], network.head
        X = np.random.default_rng(dilation).normal(size=(4, 12))
        conv = np.array(conv1d_causal_bruteforce(X[:, None, :], weight.transpose(2, 1, 0), bias, dilation))
        want = np.maximum(conv[:, :, -1], 0.0) @ head_weight + head_bias[0]
        np.testing.assert_allclose(network.forward(X), want, rtol=1e-12, atol=1e-12)


def one_channel_network(input_window, dilation, taps):
    """One 1-in 1-out kernel-2 block with the given tap weights, head weight 1, head bias 0.5."""
    network = CnnNetwork(CnnConfig(input_window=input_window, dilations=(dilation,), channels=1, seed=0))
    (weight, bias), (head_weight, head_bias) = network.convs[0], network.head
    weight[...] = np.reshape(taps, weight.shape)
    bias[...] = 0.0
    head_weight[...] = 1.0
    head_bias[...] = 0.5
    return network


class TestBlocks:
    def test_last_tap_identity(self):
        network = one_channel_network(5, 1, [0.0, 1.0])
        X = np.array([[3.0, 1.0, 4.0, 1.0, 5.0], [3.0, 1.0, 4.0, 1.0, -5.0]])
        # relu(x[-1]) + 0.5: the last tap is the current step, a negative one is clipped
        np.testing.assert_array_equal(network.forward(X), [5.5, 0.5])

    def test_both_taps_dilation_two(self):
        network = one_channel_network(4, 2, [1.0, 1.0])
        assert network.forward(np.array([[1.0, 2.0, 3.0, 4.0]]))[0] == 2.0 + 4.0 + 0.5

    def test_zero_weights_give_bias(self):
        network = CnnNetwork(CnnConfig(input_window=6, dilations=(1, 2), channels=3, seed=0))
        for weight, bias in network.convs:
            weight[...] = 0.0
            bias[...] = [0.5, -1.0, 2.0]
        head_weight, head_bias = network.head
        X = np.random.default_rng(0).normal(size=(2, 6))
        # the top block outputs relu(bias) whatever the input
        want = np.maximum([0.5, -1.0, 2.0], 0.0) @ head_weight + head_bias[0]
        np.testing.assert_array_equal(network.forward(X), [want, want])

    def test_relu_masks_forward_and_backward(self):
        network = CnnNetwork(CnnConfig(input_window=8, dilations=(1, 2), channels=3, seed=1))
        top_weight, top_bias = network.convs[-1]
        top_weight[...] = 0.0
        top_bias[...] = -1.0
        X = np.random.default_rng(2).uniform(0.2, 2.0, size=(4, 8))
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
        [(w.transpose(2, 1, 0), b, d) for (w, b), d in zip(network.convs, network.config.dilations)],
        head_weight,
        head_bias[0],
        X,
        y,
    )


class TestCone:
    def test_default_cone_reads_last_sixteen_inputs(self):
        reads = cone(CnnConfig())
        np.testing.assert_array_equal(reads[0], np.arange(8, 24))
        assert [len(r) for r in reads] == [16, 8, 4, 2]

    @pytest.mark.parametrize("window", [24, 104])
    def test_doubling_dilations_read_every_position_once(self, window):
        reads = cone(CnnConfig(input_window=window))
        assert [len(r) for r in reads] == [16, 8, 4, 2]
        assert all(len(np.unique(r)) == len(r) for r in reads)
        np.testing.assert_array_equal(np.sort(reads[0]), np.arange(window - 16, window))

    def test_each_layer_reads_the_taps_of_the_layer_above_in_read_order(self):
        config = CnnConfig(kernel_size=3, dilations=(1, 2), input_window=10)
        reads = cone(config)
        np.testing.assert_array_equal(reads[1], [5, 7, 9])
        np.testing.assert_array_equal(reads[0], causal_taps(reads[1], 3, 1).ravel())
        # overlapping taps are kept, to be recomputed: 9 reads of 7 positions
        np.testing.assert_array_equal(reads[0], [3, 4, 5, 5, 6, 7, 7, 8, 9])

    @pytest.mark.parametrize(
        "config",
        [
            CnnConfig(),
            CnnConfig(input_window=104),
            CnnConfig(kernel_size=3, dilations=(1, 2)),
            CnnConfig(input_window=16),
        ],
        ids=["monthly", "weekly", "kernel3", "field_equals_window"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_full_length_network(self, config, seed):
        network = CnnNetwork(replace(config, seed=seed))
        rng = np.random.default_rng(seed + 50)
        X = rng.uniform(0.2, 2.0, size=(32, config.input_window))
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

    @pytest.mark.parametrize(
        "config",
        [
            CnnConfig(),
            CnnConfig(input_window=104),
            CnnConfig(input_window=10, kernel_size=3, dilations=(1, 2), channels=5),
            CnnConfig(input_window=6, dilations=(1, 2), channels=4),
        ],
        ids=["monthly", "weekly", "kernel3_overlapping_taps", "tiny"],
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_weights_predictions_and_gradient(self, config, seed):
        config = replace(config, seed=seed)
        network = CnnNetwork(config)
        oracle = LayerStackCnn(config.input_window, config.kernel_size, config.dilations, config.channels, seed)
        assert network.weights.tobytes() == oracle.flat_params().tobytes()
        rng = np.random.default_rng(seed + 70)
        X = rng.uniform(0.2, 2.0, size=(32, config.input_window))
        y = rng.uniform(0.2, 2.0, size=32)
        assert network.forward(X).tobytes() == oracle.forward(X).tobytes()
        _, gradient = loss_and_grads(network, X, y)
        assert gradient.tobytes() == oracle.loss_gradient(X, y).tobytes()
