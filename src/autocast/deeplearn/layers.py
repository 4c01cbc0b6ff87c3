"""Network layers with hand-written forward and backward passes.

Tensors are float64 and channels-last: (batch, positions, channels). A conv
layer computes only the output positions that the layers above it read (the
cone under the network's head), and its input arrives tap-ordered: rows
i*kernel .. i*kernel + kernel-1 are the taps of output position i, in tap
order. So a forward pass is one reshape and one matrix multiply, and the
backward pass hands each input row its own gradient by reshaping back. A
position that two outputs read arrives twice and gets two gradient rows.
Forward passes cache whatever backward needs.

Parameters and gradients are attributes named in ``param_names`` and
``grad_`` + name; the network rebinds them to views of its flat buffers.
"""
from __future__ import annotations

import numpy as np


class Layer:
    param_names: tuple = ()

    def params(self) -> list:
        return [getattr(self, name) for name in self.param_names]

    def grads(self) -> list:
        return [getattr(self, "grad_" + name) for name in self.param_names]

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def causal_taps(positions, kernel_size: int, dilation: int) -> np.ndarray:
    """(len(positions), kernel_size) input positions each output position reads.

    Tap k (0-based) reads position t - (kernel-1-k)*dilation, so the last tap
    is the current step.
    """
    lags = dilation * np.arange(kernel_size - 1, -1, -1)
    return np.asarray(positions)[:, None] - lags


class DilatedCausalConv1d(Layer):
    """Causal conv over tap-ordered input: (batch, outputs*kernel, in) -> (batch, outputs, out).

    The dilation lives in which positions the network feeds the layer
    (causal_taps of its outputs, raveled), not in the layer. Weights are
    stored (kernel, in_channels, out_channels), so the taps of one output
    position form one row of the matrix multiply.
    """

    param_names = ("weight", "bias")

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, rng):
        scale = np.sqrt(2.0 / (in_channels * kernel_size))
        # drawn (out, in, kernel) so a seed gives the same weights whatever the storage order
        self.weight = rng.normal(0.0, scale, size=(out_channels, in_channels, kernel_size)).transpose(2, 1, 0).copy()
        self.bias = np.zeros(out_channels)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        kernel, in_channels, out_channels = self.weight.shape
        if x.ndim != 3 or x.shape[2] != in_channels or x.shape[1] % kernel:
            raise ValueError(f"expected (batch, a multiple of {kernel} positions, {in_channels}), got {x.shape}")
        self._in_shape = x.shape
        self._cols = x.reshape(-1, kernel * in_channels)
        out = self._cols @ self.weight.reshape(-1, out_channels) + self.bias
        return out.reshape(x.shape[0], x.shape[1] // kernel, out_channels)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out_channels = self.weight.shape[2]
        flat = grad_out.reshape(-1, out_channels)
        self.grad_bias += flat.sum(axis=0)
        self.grad_weight += (self._cols.T @ flat).reshape(self.weight.shape)
        return (flat @ self.weight.reshape(-1, out_channels).T).reshape(self._in_shape)


class Relu(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_out, 0.0)


class DenseLastStep(Layer):
    """Linear head over the channels of the final time step only."""

    param_names = ("weight", "bias")

    def __init__(self, in_channels: int, rng):
        scale = np.sqrt(1.0 / in_channels)
        self.weight = rng.normal(0.0, scale, size=in_channels)
        self.bias = np.zeros(1)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._last = x[:, -1, :]
        self._in_shape = x.shape
        return self._last @ self.weight + self.bias[0]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.grad_weight += grad_out @ self._last
        self.grad_bias[0] += grad_out.sum()
        grad_in = np.zeros(self._in_shape)
        grad_in[:, -1, :] = np.outer(grad_out, self.weight)
        return grad_in
