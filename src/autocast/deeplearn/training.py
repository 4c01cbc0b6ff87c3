"""Shared-weight training: window pooling, Adam, early stopping, inference."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..models.base import BaseForecaster, ModelId, iterate_one_step
from ..series import SalesSeries
from .network import CnnConfig, CnnNetwork


@dataclass(frozen=True)
class NormStats:
    """Per-product normalization: divide by the training mean, floored at 1."""

    scale: float

    def __post_init__(self):
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    @classmethod
    def from_series(cls, series: SalesSeries) -> "NormStats":
        return cls(scale=max(1.0, float(series.values.mean())))


def build_training_windows(corpus, input_window: int):
    """Pool normalized (window, next value) pairs from every product.

    Rows are ordered by target period, then product id, so "the last 10%"
    is a time-ordered validation split. Products shorter than
    input_window + 1 contribute nothing.
    """
    stats = {s.product_id: NormStats.from_series(s) for s in corpus}
    keyed = []
    for series in corpus:
        n = len(series)
        if n < input_window + 1:
            continue
        scaled = series.values / stats[series.product_id].scale
        for t in range(input_window, n):
            keyed.append(
                (series.start.index + t, series.product_id, scaled[t - input_window : t], scaled[t])
            )
    keyed.sort(key=lambda row: (row[0], row[1]))
    if not keyed:
        return np.empty((0, input_window)), np.empty(0), stats
    X = np.array([row[2] for row in keyed])
    y = np.array([row[3] for row in keyed])
    return X, y, stats


class Adam:
    """Adam over one flat parameter vector, updated in place, so a step is a few array operations."""

    def __init__(self, params: np.ndarray, learning_rate: float):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.m = np.zeros(params.size)
        self.v = np.zeros(params.size)
        self.t = 0

    def step(self, grad: np.ndarray):
        """grad: the gradient of the flat vector, in its layout."""
        self.t += 1
        correction1 = 1.0 - self.beta1**self.t
        correction2 = 1.0 - self.beta2**self.t
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        self.params -= self.learning_rate * (self.m / correction1) / (np.sqrt(self.v / correction2) + self.eps)


def loss_and_grads(network: CnnNetwork, X, y):
    """Mean squared error and parameter gradients for one batch.

    Returns the network's live flat ``gradient`` buffer; copy it before
    calling again if you need the old values.
    """
    network.zero_grads()
    pred = network.forward(X)
    diff = pred - y
    loss = float(diff @ diff) / len(y)
    network.backward(2.0 * diff / len(y))
    return loss, network.gradient


def _evaluate(network: CnnNetwork, X, y) -> float:
    pred = network.forward(X)
    diff = pred - y
    return float(diff @ diff) / len(y)


class EarlyStopping:
    """Patience counter over per-epoch validation losses (strict improvement)."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best_loss = np.inf
        self.stale_epochs = 0

    def update(self, loss: float) -> bool:
        """Record one epoch's loss; True means training should stop now."""
        if loss < self.best_loss:
            self.best_loss = loss
            self.stale_epochs = 0
            return False
        self.stale_epochs += 1
        return self.stale_epochs >= self.patience


def train_shared_cnn(corpus, config: CnnConfig):
    """Returns (network at its best validation epoch, per-product NormStats).

    Stops when the best validation loss has not improved for `patience`
    consecutive epochs (strict improvement), or at max_epochs.
    """
    X, y, stats = build_training_windows(corpus, config.input_window)
    if len(y) == 0:
        raise ValueError("no product is long enough to contribute a training window")
    n_val = max(1, int(round(len(y) * 0.10)))
    if n_val >= len(y):
        n_val = len(y) - 1
    if n_val == 0:
        # single window: train and validate on the same row
        X_train, y_train, X_val, y_val = X, y, X, y
    else:
        X_train, y_train = X[:-n_val], y[:-n_val]
        X_val, y_val = X[-n_val:], y[-n_val:]

    network = CnnNetwork(config)
    optimizer = Adam(network.weights, config.learning_rate)
    shuffler = np.random.default_rng(config.seed + 1)

    stopper = EarlyStopping(config.patience)
    best_weights = network.get_weights()
    for _ in range(config.max_epochs):
        order = shuffler.permutation(len(y_train))
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            loss_and_grads(network, X_train[batch], y_train[batch])
            optimizer.step(network.gradient)
        val_loss = _evaluate(network, X_val, y_val)
        improved = val_loss < stopper.best_loss
        should_stop = stopper.update(val_loss)
        if improved:
            best_weights = network.get_weights()
        if should_stop:
            break
    network.set_weights(best_weights)
    return network, stats


class CnnForecaster(BaseForecaster):
    """Per-product adapter around the shared network.

    Forecasts iterate one-step predictions on the normalized scale. The
    normalization scale is recomputed from the fitted series, which
    matches the scale used when that series contributed pooled windows.
    """

    model_id = ModelId.CNN

    def __init__(self, network: CnnNetwork):
        self.network = network

    def _fit(self, series: SalesSeries) -> None:
        window = self.network.config.input_window
        if len(series) < window:
            raise ValueError(f"need at least {window} points of history, got {len(series)}")
        self.stats_ = NormStats.from_series(series)

    def _path(self, horizon: int) -> np.ndarray:
        window = self.network.config.input_window

        def predict_one(history):
            return self.network.predict_one(history[-window:])

        return iterate_one_step(predict_one, self.train_.values / self.stats_.scale, horizon) * self.stats_.scale
