"""Gradient-boosted regression trees, squared loss, written from scratch.

Deterministic by construction: exact greedy splits, no row or column
subsampling, ties broken by lowest feature index then lowest threshold.
Each training presorts the feature columns once (presorted column blocks,
as in XGBoost): a node keeps, per feature, its rows in ascending order of
that feature, and its children inherit those orders by stable partition, so
no node sorts and one vectorised pass scores every feature's boundaries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..series import ForecastResult, SalesSeries
from .base import BaseForecaster, ModelId, iterate_one_step
from .windows import make_window_features, one_step_features

N_ROUNDS = 200
LEARNING_RATE = 0.1
MAX_DEPTH = 3
MIN_SAMPLES_LEAF = 2


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def _best_split(xs, ys, y):
    """Exact greedy scan of every feature at once; (feature, threshold, gain) or None.

    xs and ys are (features, rows): each feature's values in ascending order
    and the targets in that order; y is the targets in row order. The first
    minimum per feature is its lowest threshold, and the first feature
    reaching the largest gain wins.
    """
    n = len(y)
    total_sum = y.sum()
    total_sq = float(y @ y)
    base_sse = total_sq - total_sum * total_sum / n
    # boundary b splits after sorted row b; it needs enough rows on both
    # sides, and the value must change there
    lo, hi = MIN_SAMPLES_LEAF - 1, n - MIN_SAMPLES_LEAF
    csum = np.cumsum(ys, axis=1)[:, lo:hi]
    csq = np.cumsum(ys * ys, axis=1)[:, lo:hi]
    nl = np.arange(lo + 1.0, hi + 1.0)
    nr = n - nl
    sse = (csq - csum * csum / nl) + ((total_sq - csq) - (total_sum - csum) ** 2 / nr)
    sse[xs[:, lo:hi] == xs[:, lo + 1 : hi + 1]] = np.inf
    best = np.argmin(sse, axis=1)
    gains = base_sse - sse[np.arange(len(best)), best]
    j = int(np.argmax(gains))
    if not gains[j] > 1e-12:  # require a strictly positive improvement
        return None
    b = lo + best[j]
    return j, (xs[j, b] + xs[j, b + 1]) / 2.0, float(gains[j])


def _grow(Xt, residual, rows, order, xs, depth: int, fitted) -> _Node:
    """Grow one node over `rows` (ascending) and write leaf values into `fitted`.

    Xt is the design transposed, (features, all rows); order[f] lists the
    node's rows in ascending order of feature f, and xs[f] their values.
    """
    y = residual[rows]
    node = _Node(value=float(y.mean()))
    split = None
    if depth < MAX_DEPTH and len(rows) >= 2 * MIN_SAMPLES_LEAF:
        split = _best_split(xs, residual[order], y)
    if split is None:
        fitted[rows] = node.value
        return node
    feature, threshold, _ = split
    node.feature = feature
    node.threshold = threshold
    # stable partitions keep each child's per-feature orders sorted
    left_rows = Xt[feature, rows] <= threshold
    left = Xt[feature, order] <= threshold
    right = ~left
    shape = (len(order), -1)
    node.left = _grow(
        Xt, residual, rows[left_rows], order[left].reshape(shape), xs[left].reshape(shape), depth + 1, fitted
    )
    node.right = _grow(
        Xt, residual, rows[~left_rows], order[right].reshape(shape), xs[right].reshape(shape), depth + 1, fitted
    )
    return node


class RegressionTree:
    def __init__(self, root: _Node):
        self.root = root

    def predict_one(self, row) -> float:
        node = self.root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value


class GradientBoostedTrees:
    def __init__(self, base_value: float, trees: list, learning_rate: float):
        self.base_value = base_value
        self.trees = trees
        self.learning_rate = learning_rate

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.array([self.predict_one(row) for row in X])

    def predict_one(self, row) -> float:
        value = self.base_value
        for tree in self.trees:
            value += self.learning_rate * tree.predict_one(row)
        return value


def fit_boosted_trees(X, y, n_rounds: int = N_ROUNDS, learning_rate: float = LEARNING_RATE) -> GradientBoostedTrees:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(y) == 0:
        raise ValueError("cannot fit on zero rows")
    Xt = np.ascontiguousarray(X.T)
    rows = np.arange(len(y))
    order = np.argsort(Xt, axis=1, kind="stable")  # stable: equal values keep row order
    xs = np.take_along_axis(Xt, order, axis=1)
    base = float(y.mean())
    current = np.full(len(y), base)
    fitted = np.empty(len(y))
    trees = []
    for _ in range(n_rounds):
        residual = y - current
        trees.append(RegressionTree(_grow(Xt, residual, rows, order, xs, 0, fitted)))
        current += learning_rate * fitted
    return GradientBoostedTrees(base, trees, learning_rate)


def train_pooled_trees(corpus, log_targets: bool = True) -> GradientBoostedTrees:
    """One model over window rows pooled from every product (sorted id order)."""
    blocks = [make_window_features(s, log_targets) for s in sorted(corpus, key=lambda s: s.product_id)]
    xs = [X for X, _ in blocks if len(X)]
    ys = [y for _, y in blocks if len(y)]
    if not xs:
        raise ValueError("no product contributed any training window")
    return fit_boosted_trees(np.vstack(xs), np.concatenate(ys))


class BoostedTreeForecaster(BaseForecaster):
    """Per-product adapter around the shared pooled model."""

    model_id = ModelId.BOOSTED_TREE
    _param_names = ("log_targets",)

    def __init__(self, model: GradientBoostedTrees, log_targets: bool = True):
        self.model = model
        self.log_targets = log_targets

    def fit(self, series: SalesSeries) -> "BoostedTreeForecaster":
        m = series.frequency.periods_per_year
        if len(series) < m:
            raise ValueError(f"need at least {m} points of history, got {len(series)}")
        self.train_ = series
        return self

    def forecast(self, horizon: int) -> ForecastResult:
        self._check_fitted()
        m = self.train_.frequency.periods_per_year
        start_pos = self.train_.start.position_in_year
        n = len(self.train_)
        state = {"t": n}

        def predict_one(history):
            position = (start_pos + state["t"]) % m
            state["t"] += 1
            row = one_step_features(history, position, m)
            value = self.model.predict_one(row)
            return np.expm1(value) if self.log_targets else value

        values = iterate_one_step(predict_one, self.train_.values, horizon)
        return self._result(values)
