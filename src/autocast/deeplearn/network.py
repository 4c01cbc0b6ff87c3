"""Network assembly and configuration."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import DenseLastStep, DilatedCausalConv1d, Relu, causal_taps


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


def cone(config: CnnConfig):
    """The window positions the head depends on, and each conv layer's taps.

    Walks back from the last step, which is all the dense head reads: a
    layer must produce the positions the layer above reads, and reads
    causal_taps of them. Returns (input positions, taps per conv layer), the
    taps indexing rows of the previous layer's positions. The receptive
    field fits the window, so no position is negative.
    """
    positions = np.array([config.input_window - 1])
    taps = []
    for dilation in reversed(config.dilations):
        reads = causal_taps(positions, config.kernel_size, dilation)
        positions = np.unique(reads)
        taps.append(np.searchsorted(positions, reads))
    return positions, taps[::-1]


class CnnNetwork:
    """Stack of dilated causal conv+ReLU blocks and a dense head."""

    def __init__(self, config: CnnConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.inputs, taps = cone(config)
        self.layers = []
        in_channels = 1
        for layer_taps in taps:
            self.layers.append(DilatedCausalConv1d(in_channels, config.channels, layer_taps, rng))
            self.layers.append(Relu())
            in_channels = config.channels
        self.layers.append(DenseLastStep(in_channels, rng))

    def params(self) -> list:
        return [p for layer in self.layers for p in layer.params()]

    def grads(self) -> list:
        return [g for layer in self.layers for g in layer.grads()]

    def zero_grads(self):
        for g in self.grads():
            g[...] = 0.0

    def forward(self, windows: np.ndarray) -> np.ndarray:
        """windows: (batch, input_window) -> predictions (batch,)."""
        x = np.asarray(windows, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.config.input_window:
            raise ValueError(f"expected (batch, {self.config.input_window}) windows, got {x.shape}")
        x = x[:, self.inputs, None]
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_pred: np.ndarray):
        grad = grad_pred
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict_one(self, window: np.ndarray) -> float:
        return float(self.forward(window[None, :])[0])

    def get_weights(self) -> list:
        return [p.copy() for p in self.params()]

    def set_weights(self, weights: list):
        for param, stored in zip(self.params(), weights):
            param[...] = stored
