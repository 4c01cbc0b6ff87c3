"""Network layers with hand-written forward and backward passes.

Tensors are float64 and channels-last: (batch, positions, channels). A conv
layer computes only the output positions that the layers above it read (the
cone under the network's head), so each layer works on its own short list
of positions rather than the whole window. Forward passes cache whatever
backward needs, and every product is one matrix multiply.
"""
from __future__ import annotations

import numpy as np


class Layer:
    def params(self) -> list:
        return []

    def grads(self) -> list:
        return []

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
    """Causal conv evaluated at chosen output positions.

    taps[i, k] is the input row (axis 1 of the layer's input) that tap k of
    output position i reads; causal_taps gives the time positions, and the
    network maps them to rows of the positions its previous layer produced.
    Weights are stored (kernel, in_channels, out_channels), so the taps
    gathered at one position form one row of the matrix multiply.
    """

    def __init__(self, in_channels: int, out_channels: int, taps, rng):
        self.taps = np.asarray(taps)
        kernel = self.taps.shape[1]
        scale = np.sqrt(2.0 / (in_channels * kernel))
        # drawn (out, in, kernel) so a seed gives the same weights whatever the storage order
        self.weight = rng.normal(0.0, scale, size=(out_channels, in_channels, kernel)).transpose(2, 1, 0).copy()
        self.bias = np.zeros(out_channels)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def params(self):
        return [self.weight, self.bias]

    def grads(self):
        return [self.grad_weight, self.grad_bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        kernel, in_channels, out_channels = self.weight.shape
        if x.ndim != 3 or x.shape[2] != in_channels:
            raise ValueError(f"expected (batch, positions, {in_channels}), got {x.shape}")
        batch = x.shape[0]
        self._in_shape = x.shape
        self._cols = x[:, self.taps, :].reshape(-1, kernel * in_channels)
        out = self._cols @ self.weight.reshape(-1, out_channels) + self.bias
        return out.reshape(batch, len(self.taps), out_channels)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        kernel, in_channels, out_channels = self.weight.shape
        flat = grad_out.reshape(-1, out_channels)
        self.grad_bias += flat.sum(axis=0)
        self.grad_weight += (self._cols.T @ flat).reshape(self.weight.shape)
        grad_cols = (flat @ self.weight.reshape(-1, out_channels).T).reshape(
            grad_out.shape[0], len(self.taps), kernel, in_channels
        )
        grad_in = np.zeros(self._in_shape)
        # rows repeat across taps but never within one, so each += is a plain scatter
        for k in range(kernel):
            grad_in[:, self.taps[:, k], :] += grad_cols[:, :, k, :]
        return grad_in


class Relu(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_out, 0.0)


class DenseLastStep(Layer):
    """Linear head over the channels of the final time step only."""

    def __init__(self, in_channels: int, rng):
        scale = np.sqrt(1.0 / in_channels)
        self.weight = rng.normal(0.0, scale, size=in_channels)
        self.bias = np.zeros(1)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def params(self):
        return [self.weight, self.bias]

    def grads(self):
        return [self.grad_weight, self.grad_bias]

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
