"""The shared network: one fixed dilated causal CNN (WaveNet's stack, van den Oord et al. 2016).

Four kernel-2 causal conv+ReLU blocks, dilations 1, 2, 4 and 8, 16
channels each, then a dense head over the last step. The head reads one
position of the top block, and each output position of a block reads two
positions of the block below, `dilation` apart. So the blocks form a
binary tree over the window's last RECEPTIVE_FIELD values, which the
first block reads pair by pair, as each block above reads the outputs of
the one below; no position is read twice, and nothing else is computed.

Tensors are float64 and channels-last: rows of (positions, channels).
Rows 2i and 2i + 1 of a block's input are the taps of its output position
i, earlier tap first. A block's forward pass is one reshape and one matrix
multiply, and the backward pass hands each input row its gradient by
reshaping back.

All parameters live in one flat buffer and all gradients in another. Each
conv block and the head hold one (weight, bias) pair of views into each.
Conv weights are stored (kernel, in_channels, out_channels), so the taps
of one output position form one row of the matrix multiply.
"""
from __future__ import annotations

import numpy as np

KERNEL = 2
DILATIONS = (1, 2, 4, 8)
CHANNELS = 16
RECEPTIVE_FIELD = 16  # 1 + (KERNEL - 1) * sum(DILATIONS): the window's last values the head sees


def _view_pairs(buffer: np.ndarray, shapes: list) -> list:
    """(weight, bias) views laid back to back in buffer; shapes alternate weight, bias."""
    ends = np.cumsum([int(np.prod(shape)) for shape in shapes])
    views = [part.reshape(shape) for part, shape in zip(np.split(buffer, ends[:-1]), shapes)]
    return list(zip(views[::2], views[1::2]))


class CnnNetwork:
    """The dilated causal conv+ReLU blocks and the dense head over the last step."""

    def __init__(self, input_window: int, seed: int):
        if input_window < RECEPTIVE_FIELD:
            raise ValueError(f"receptive field {RECEPTIVE_FIELD} exceeds input window {input_window}")
        self.input_window = input_window
        rng = np.random.default_rng(seed)
        drawn = []
        in_channels = 1
        for _ in DILATIONS:
            scale = np.sqrt(2.0 / (in_channels * KERNEL))
            # drawn (out, in, kernel) so a seed gives the same weights whatever the storage order
            weight = rng.normal(0.0, scale, size=(CHANNELS, in_channels, KERNEL)).transpose(2, 1, 0)
            drawn += [weight, np.zeros(CHANNELS)]
            in_channels = CHANNELS
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
        if x.ndim != 2 or x.shape[1] != self.input_window:
            raise ValueError(f"expected (batch, {self.input_window}) windows, got {x.shape}")
        x = x[:, -RECEPTIVE_FIELD:]
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
