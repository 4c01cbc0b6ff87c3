"""Network assembly and configuration.

The network evaluates only the cone under its head. ``cone`` unrolls it
from the last step down: each conv layer reads causal_taps of the positions
the layer above produces, raveled in read order, so every layer's input is
tap-ordered (see layers.py) and no layer gathers or scatters. With kernel 2
and doubling dilations no position is read twice; a config whose taps
overlap recomputes the shared positions. All parameters live in one flat
buffer and all gradients in another, each layer holding views into them.
"""
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


def cone(config: CnnConfig) -> list:
    """The window positions each conv layer reads, first layer first, tap-ordered.

    Walks back from the last step, which is all the dense head reads: a
    layer reads causal_taps of the positions the layer above reads from it.
    The first entry indexes the input window; the receptive field fits the
    window, so no position is negative.
    """
    positions = np.array([config.input_window - 1])
    reads = []
    for dilation in reversed(config.dilations):
        positions = causal_taps(positions, config.kernel_size, dilation).ravel()
        reads.append(positions)
    return reads[::-1]


class CnnNetwork:
    """Stack of dilated causal conv+ReLU blocks and a dense head."""

    def __init__(self, config: CnnConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.inputs = cone(config)[0]
        self.layers = []
        in_channels = 1
        for _ in config.dilations:
            self.layers.append(DilatedCausalConv1d(in_channels, config.channels, config.kernel_size, rng))
            self.layers.append(Relu())
            in_channels = config.channels
        self.layers.append(DenseLastStep(in_channels, rng))
        named = [(layer, name) for layer in self.layers for name in layer.param_names]
        self.weights = np.concatenate([getattr(layer, name).ravel() for layer, name in named])
        self.gradient = np.zeros_like(self.weights)
        offset = 0
        for layer, name in named:
            shape = getattr(layer, name).shape
            part = slice(offset, offset + int(np.prod(shape)))
            setattr(layer, name, self.weights[part].reshape(shape))
            setattr(layer, "grad_" + name, self.gradient[part].reshape(shape))
            offset = part.stop
        self._params = [p for layer in self.layers for p in layer.params()]
        self._grads = [g for layer in self.layers for g in layer.grads()]

    def params(self) -> list:
        """Every parameter, as views into the flat ``weights`` buffer."""
        return self._params

    def grads(self) -> list:
        """Every gradient, as views into the flat ``gradient`` buffer."""
        return self._grads

    def zero_grads(self):
        self.gradient.fill(0.0)

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

    def get_weights(self) -> np.ndarray:
        """A copy of the flat parameter buffer."""
        return self.weights.copy()

    def set_weights(self, weights: np.ndarray):
        self.weights[...] = weights
