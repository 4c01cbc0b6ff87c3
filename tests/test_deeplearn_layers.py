from dataclasses import replace

import numpy as np
import pytest

from autocast.deeplearn import CnnConfig, CnnNetwork, loss_and_grads
from autocast.deeplearn.layers import DenseLastStep, DilatedCausalConv1d, Relu, causal_taps
from autocast.deeplearn.network import cone

from oracles import conv1d_causal_bruteforce, full_length_cnn


def conv_over(length, in_channels, out_channels, dilation, rng, kernel=2):
    """Conv at every position of a length-long input whose taps stay inside it.

    Returns (conv, output positions, input rows): the conv reads its input
    tap-ordered, so feed it x[:, rows, :].
    """
    positions = np.arange((kernel - 1) * dilation, length)
    conv = DilatedCausalConv1d(in_channels, out_channels, kernel, rng)
    return conv, positions, causal_taps(positions, kernel, dilation).ravel()


def identity_conv(length, dilation=1):
    """1-in 1-out kernel-2 conv whose last tap is 1: output == input."""
    conv, positions, rows = conv_over(length, 1, 1, dilation, np.random.default_rng(0))
    conv.weight[...] = np.array([[[0.0]], [[1.0]]])
    conv.bias[...] = 0.0
    return conv, positions, rows


class TestConvForward:
    def test_last_tap_identity(self):
        x = np.array([[3.0, 1.0, 4.0, 1.0, 5.0]])[:, :, None]
        conv, positions, rows = identity_conv(5)
        np.testing.assert_array_equal(conv.forward(x[:, rows, :]), x[:, positions, :])

    def test_both_taps_dilation_two(self):
        conv, positions, rows = identity_conv(4, dilation=2)
        conv.weight[...] = 1.0
        out = conv.forward(np.array([[1.0, 2.0, 3.0, 4.0]])[:, rows, None])
        np.testing.assert_array_equal(positions, [2, 3])
        np.testing.assert_array_equal(rows, [0, 2, 1, 3])
        np.testing.assert_array_equal(out[0, :, 0], [4.0, 6.0])

    def test_zero_weights_give_bias(self):
        conv, positions, rows = conv_over(4, 2, 3, 1, np.random.default_rng(0))
        conv.weight[...] = 0.0
        conv.bias[...] = np.array([0.5, -1.0, 2.0])
        out = conv.forward(np.ones((2, len(rows), 2)))
        for ch, b in enumerate([0.5, -1.0, 2.0]):
            np.testing.assert_array_equal(out[:, :, ch], np.full((2, len(positions)), b))

    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("dilation", [1, 2, 4])
    def test_matches_bruteforce(self, dilation, kernel):
        rng = np.random.default_rng(dilation)
        conv, positions, rows = conv_over(12, 3, 2, dilation, rng, kernel)
        x = rng.normal(size=(4, 12, 3))
        got = conv.forward(x[:, rows, :])
        weight = conv.weight.transpose(2, 1, 0)  # the oracle's (out, in, kernel)
        want = np.array(conv1d_causal_bruteforce(x.transpose(0, 2, 1), weight, conv.bias, dilation))
        np.testing.assert_allclose(got, want[:, :, positions].transpose(0, 2, 1), rtol=1e-12, atol=1e-12)

    def test_backward_sums_the_gradient_of_a_position_read_twice(self):
        # kernel 3 at dilation 1 reads most positions through several taps
        rng = np.random.default_rng(6)
        conv, _, rows = conv_over(8, 2, 3, 1, rng, kernel=3)
        x = rng.normal(size=(2, 8, 2))
        upstream = rng.normal(size=(2, len(rows) // 3, 3))
        conv.forward(x[:, rows, :])
        grad_rows = conv.backward(upstream)
        grad_x = np.zeros_like(x)
        np.add.at(grad_x, (slice(None), rows), grad_rows)
        # the forward pass is linear in x, so its gradient is the adjoint
        h = rng.normal(size=x.shape)
        delta = conv.forward(h[:, rows, :]) - conv.forward(np.zeros((2, len(rows), 2)))
        assert np.sum(delta * upstream) == pytest.approx(np.sum(h * grad_x), rel=1e-12)

    def test_causality(self):
        rng = np.random.default_rng(5)
        conv, positions, rows = conv_over(16, 1, 2, 4, rng)
        x = rng.normal(size=(1, 16, 1))
        base = conv.forward(x[:, rows, :])
        bumped = x.copy()
        bumped[0, 9, 0] += 10.0
        out = conv.forward(bumped[:, rows, :])
        before = positions < 9
        # outputs strictly before the bump are untouched
        np.testing.assert_array_equal(out[:, before, :], base[:, before, :])
        assert not np.allclose(out[:, ~before, :], base[:, ~before, :])

    def test_channel_mismatch_rejected(self):
        conv, _, rows = conv_over(5, 3, 2, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="3"):
            conv.forward(np.ones((1, len(rows), 2)))

    def test_partial_tap_group_rejected(self):
        conv, _, rows = conv_over(5, 1, 2, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="multiple of 2"):
            conv.forward(np.ones((1, len(rows) + 1, 1)))


class TestRelu:
    def test_forward_clips_negatives(self):
        relu = Relu()
        out = relu.forward(np.array([[-1.0, 0.0, 2.5]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.5]])

    def test_backward_masks_gradient(self):
        relu = Relu()
        relu.forward(np.array([[-1.0, 0.0, 2.5]]))
        grad = relu.backward(np.array([[1.0, 1.0, 1.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0]])


class TestDenseLastStep:
    def test_reads_only_final_step(self):
        dense = DenseLastStep(2, np.random.default_rng(0))
        dense.weight[...] = np.array([1.0, 10.0])
        dense.bias[...] = 0.5
        x = np.zeros((1, 4, 2))
        x[0, -1, :] = [3.0, 2.0]
        x[0, 0, :] = [99.0, 99.0]
        assert dense.forward(x)[0] == pytest.approx(3.0 + 20.0 + 0.5)

    def test_backward_routes_to_final_step(self):
        dense = DenseLastStep(2, np.random.default_rng(0))
        dense.weight[...] = np.array([2.0, -1.0])
        x = np.ones((1, 3, 2))
        dense.forward(x)
        grad_in = dense.backward(np.array([1.0]))
        assert grad_in.shape == x.shape
        np.testing.assert_array_equal(grad_in[0, :2, :], 0.0)
        np.testing.assert_array_equal(grad_in[0, -1, :], [2.0, -1.0])


def central_difference_check(config, data_seed, h=1e-5):
    """Max relative error between analytic and numeric dLoss/dParam."""
    network = CnnNetwork(config)
    rng = np.random.default_rng(data_seed)
    X = rng.uniform(0.2, 2.0, size=(4, config.input_window))
    y = rng.uniform(0.2, 2.0, size=4)
    _, live = loss_and_grads(network, X, y)
    analytic = [g.copy() for g in live]
    worst = 0.0
    for param, grad in zip(network.params(), analytic):
        flat, gflat = param.reshape(-1), grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            loss_plus = float(np.mean((network.forward(X) - y) ** 2))
            flat[j] = orig - h
            loss_minus = float(np.mean((network.forward(X) - y) ** 2))
            flat[j] = orig
            numeric = (loss_plus - loss_minus) / (2 * h)
            worst = max(worst, abs(gflat[j] - numeric) / max(abs(gflat[j]), abs(numeric), 1e-4))
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
        loss, grads = loss_and_grads(network, X, np.zeros(3))
        assert loss == 0.0
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_backward_is_linear_in_upstream_grad(self):
        config = CnnConfig(input_window=8, kernel_size=2, dilations=(1, 2), channels=3, seed=4)
        network = CnnNetwork(config)
        X = np.random.default_rng(9).uniform(0.2, 2.0, size=(5, 8))
        network.forward(X)
        upstream = np.random.default_rng(10).normal(size=5)
        network.zero_grads()
        network.backward(upstream)
        once = [g.copy() for g in network.grads()]
        network.zero_grads()
        network.backward(2.0 * upstream)
        for g2, g1 in zip(network.grads(), once):
            np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12, atol=1e-15)

    def test_loss_and_grads_returns_live_buffers(self):
        config = CnnConfig(input_window=6, kernel_size=2, dilations=(1,), channels=2, seed=0)
        network = CnnNetwork(config)
        X = np.random.default_rng(1).uniform(size=(3, 6))
        _, grads = loss_and_grads(network, X, np.ones(3))
        assert grads[0] is network.grads()[0]
        assert all(np.shares_memory(g, network.gradient) for g in grads)


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
        assert not np.any(network.params()[0] == 123.0)
        network.set_weights(stored)
        assert all(np.all(p == 123.0) for p in network.params())

    def test_parameters_are_views_of_one_flat_buffer(self):
        network = CnnNetwork(CnnConfig(input_window=8, dilations=(1, 2), channels=3, seed=0))
        params, grads = network.params(), network.grads()
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
        params = CnnNetwork(config).params()
        for got, want in zip(params, [first, np.zeros(3), second, np.zeros(3), dense, np.zeros(1)]):
            np.testing.assert_array_equal(got, want)


def full_length_reference(network, X, y):
    """Predictions and gradients of the same weights convolved over the whole window."""
    convs = [layer for layer in network.layers if isinstance(layer, DilatedCausalConv1d)]
    dense = network.layers[-1]
    return full_length_cnn(
        [(c.weight.transpose(2, 1, 0), c.bias, d) for c, d in zip(convs, network.config.dilations)],
        dense.weight,
        dense.bias[0],
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
        _, grads = loss_and_grads(network, X, y)
        assert len(grads) == len(want_grads)
        for got, want in zip(grads, want_grads):
            want = want.transpose(2, 1, 0) if want.ndim == 3 else want
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
