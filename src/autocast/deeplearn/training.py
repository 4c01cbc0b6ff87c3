"""Shared-weight training: window pooling, Adam, early stopping, inference.

Training and `CnnForecaster` both scale a product by `product_scale` alone.
"""
from __future__ import annotations

import numpy as np

from ..models.base import BaseForecaster, ModelId, iterate_one_step
from ..models.windows import content_order, lag_windows
from ..series import SalesSeries
from .network import CnnNetwork

LEARNING_RATE = 1e-3
BATCH_SIZE = 32
MAX_EPOCHS = 100
PATIENCE = 5


def product_scale(series: SalesSeries) -> float:
    """A product's normalization: divide by its mean over the given history, floored at 1."""
    return max(1.0, float(series.values.mean()))


def build_training_windows(corpus, input_window: int):
    """Pool scaled (window, next value) pairs from every product; returns (X, y).

    Rows are ordered by target period, then by `content_order`, so "the
    last 10%" is a time-ordered validation split. Products shorter than
    input_window + 1 contribute nothing.
    """
    pooled = content_order(s for s in corpus if len(s) > input_window)
    if not pooled:
        return np.empty((0, input_window)), np.empty(0)
    scaled = [series.values / product_scale(series) for series in pooled]
    X = np.concatenate([lag_windows(values, input_window)[:-1] for values in scaled])
    y = np.concatenate([values[input_window:] for values in scaled])
    # a stable sort by target period keeps the content order within a period
    order = np.argsort(np.concatenate([s.start.index + np.arange(input_window, len(s)) for s in pooled]), kind="stable")
    return X[order], y[order]


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
    """Stops training after PATIENCE epochs without a strictly lower validation loss."""

    def __init__(self):
        self.best_loss = np.inf
        self.stale_epochs = 0

    def update(self, loss: float) -> bool:
        """Record one epoch's loss; True means training should stop now."""
        if loss < self.best_loss:
            self.best_loss = loss
            self.stale_epochs = 0
            return False
        self.stale_epochs += 1
        return self.stale_epochs >= PATIENCE


def train_shared_cnn(corpus, input_window: int, seed: int) -> CnnNetwork:
    """Returns the network at its best validation epoch.

    Stops when the best validation loss has not improved for PATIENCE
    consecutive epochs (strict improvement), or at MAX_EPOCHS.
    """
    X, y = build_training_windows(corpus, input_window)
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

    network = CnnNetwork(input_window, seed)
    optimizer = Adam(network.weights, LEARNING_RATE)
    shuffler = np.random.default_rng(seed + 1)

    stopper = EarlyStopping()
    best_weights = network.get_weights()
    for _ in range(MAX_EPOCHS):
        order = shuffler.permutation(len(y_train))
        for lo in range(0, len(order), BATCH_SIZE):
            batch = order[lo : lo + BATCH_SIZE]
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
    return network


class CnnForecaster(BaseForecaster):
    """Per-product adapter around the shared network.

    Forecasts iterate one-step predictions on the scaled values: the fitted
    series' `product_scale`, the scale its pooled windows had in training.
    """

    model_id = ModelId.CNN

    def __init__(self, network: CnnNetwork):
        self.network = network

    def _fit(self, series: SalesSeries) -> None:
        window = self.network.input_window
        if len(series) < window:
            raise ValueError(f"need at least {window} points of history, got {len(series)}")
        self.scale_ = product_scale(series)

    def _path(self, horizon: int) -> np.ndarray:
        window = self.network.input_window

        def predict_one(history):
            return self.network.predict_one(history[-window:])

        return iterate_one_step(predict_one, self.train_.values / self.scale_, horizon) * self.scale_
