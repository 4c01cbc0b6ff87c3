"""Network assembly and configuration.

Tensors are float64 and channels-last: rows of (positions, channels). The
network evaluates only the cone under its head, which reads the last step.
``cone`` unrolls it from the last step down: each conv block reads
causal_taps of the positions the block above produces, raveled in read
order. So every block's input arrives tap-ordered: rows i*kernel ..
i*kernel + kernel-1 are the taps of output position i, in tap order, and
the dilation lives in which positions are read, not in the block. A
block's forward pass is one reshape and one matrix multiply, and the
backward pass hands each input row its own gradient by reshaping back. A
position that two outputs read arrives twice and gets two gradient rows.
With kernel 2 and doubling dilations no position is read twice; a config
whose taps overlap recomputes the shared positions.

All parameters live in one flat buffer and all gradients in another. Each
conv block and the head hold one (weight, bias) pair of views into each.
Conv weights are stored (kernel, in_channels, out_channels), so the taps
of one output position form one row of the matrix multiply.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CnnConfig:
    input_window: int = 24
    kernel_size: int = 2
    dilations: tuple = (1, 2, 4, 8)
    channels: int = 16
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 5
    seed: int = 0

    @property
    def receptive_field(self) -> int:
        return 1 + sum((self.kernel_size - 1) * d for d in self.dilations)

    def __post_init__(self):
        if self.receptive_field > self.input_window:
            raise ValueError(
                f"receptive field {self.receptive_field} exceeds input window {self.input_window}"
            )


def causal_taps(positions, kernel_size: int, dilation: int) -> np.ndarray:
    """(len(positions), kernel_size) input positions each output position reads.

    Tap k (0-based) reads position t - (kernel-1-k)*dilation, so the last tap
    is the current step.
    """
    lags = dilation * np.arange(kernel_size - 1, -1, -1)
    return np.asarray(positions)[:, None] - lags


def cone(config: CnnConfig) -> list:
    """The window positions each conv block reads, first block first, tap-ordered.

    Walks back from the last step, which is all the dense head reads: a
    block reads causal_taps of the positions the block above reads from it.
    The first entry indexes the input window; the receptive field fits the
    window, so no position is negative.
    """
    positions = np.array([config.input_window - 1])
    reads = []
    for dilation in reversed(config.dilations):
        positions = causal_taps(positions, config.kernel_size, dilation).ravel()
        reads.append(positions)
    return reads[::-1]


def _view_pairs(buffer: np.ndarray, shapes: list) -> list:
    """(weight, bias) views laid back to back in buffer; shapes alternate weight, bias."""
    ends = np.cumsum([int(np.prod(shape)) for shape in shapes])
    views = [part.reshape(shape) for part, shape in zip(np.split(buffer, ends[:-1]), shapes)]
    return list(zip(views[::2], views[1::2]))


class CnnNetwork:
    """Stack of dilated causal conv+ReLU blocks and a dense head over the last step."""

    def __init__(self, config: CnnConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.inputs = cone(config)[0]
        kernel, channels = config.kernel_size, config.channels
        drawn = []
        in_channels = 1
        for _ in config.dilations:
            scale = np.sqrt(2.0 / (in_channels * kernel))
            # drawn (out, in, kernel) so a seed gives the same weights whatever the storage order
            weight = rng.normal(0.0, scale, size=(channels, in_channels, kernel)).transpose(2, 1, 0)
            drawn += [weight, np.zeros(channels)]
            in_channels = channels
        drawn += [rng.normal(0.0, np.sqrt(1.0 / in_channels), size=in_channels), np.zeros(1)]
        self.weights = np.concatenate([p.ravel() for p in drawn])
        self.gradient = np.zeros_like(self.weights)
        shapes = [p.shape for p in drawn]
        *self.convs, self.head = _view_pairs(self.weights, shapes)
        *self.conv_grads, self.head_grad = _view_pairs(self.gradient, shapes)

    def zero_grads(self):
        self.gradient.fill(0.0)

    def forward(self, windows: np.ndarray) -> np.ndarray:
        """windows: (batch, input_window) -> predictions (batch,)."""
        x = np.asarray(windows, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.config.input_window:
            raise ValueError(f"expected (batch, {self.config.input_window}) windows, got {x.shape}")
        x = x[:, self.inputs]
        self._cache = []
        for weight, bias in self.convs:
            kernel, in_channels, out_channels = weight.shape
            cols = x.reshape(-1, kernel * in_channels)
            out = cols @ weight.reshape(-1, out_channels) + bias
            mask = out > 0
            x = np.where(mask, out, 0.0)
            self._cache.append((cols, mask))
        # the top block computes one position per window: the last step, all the head reads
        self._last = x
        weight, bias = self.head
        return x @ weight + bias[0]

    def backward(self, grad_pred: np.ndarray):
        """Accumulate into ``gradient`` the gradient of the last forward pass's predictions."""
        grad_weight, grad_bias = self.head_grad
        grad_weight += grad_pred @ self._last
        grad_bias[0] += grad_pred.sum()
        grad = np.outer(grad_pred, self.head[0])
        for (weight, _), (grad_weight, grad_bias), (cols, mask) in zip(
            reversed(self.convs), reversed(self.conv_grads), reversed(self._cache)
        ):
            _, in_channels, out_channels = weight.shape
            flat = np.where(mask, grad, 0.0)
            grad_bias += flat.sum(axis=0)
            grad_weight += (cols.T @ flat).reshape(weight.shape)
            grad = (flat @ weight.reshape(-1, out_channels).T).reshape(-1, in_channels)

    def predict_one(self, window: np.ndarray) -> float:
        return float(self.forward(window[None, :])[0])

    def get_weights(self) -> np.ndarray:
        """A copy of the flat parameter buffer."""
        return self.weights.copy()

    def set_weights(self, weights: np.ndarray):
        self.weights[...] = weights
