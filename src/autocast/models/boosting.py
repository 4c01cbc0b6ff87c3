"""Gradient-boosted regression trees, squared loss, written from scratch.

Deterministic by construction: exact greedy splits, no row or column
subsampling, ties broken by lowest feature index then lowest threshold.
Each training presorts the feature columns once (presorted column blocks,
as in XGBoost): a node keeps, per feature, its rows in ascending order of
that feature, and its children inherit those orders by stable partition, so
no node sorts and one vectorised pass scores every feature's boundaries.

A column with exactly two distinct values (the one-hot period position of
the window rows, half of every design) has one boundary, so it gets no
presorted block: the split search scores it at that boundary alone, from
row-order sums over the rows at its low value. Those sums add the low rows'
targets in the order the presorted scan would (the stable sort keeps equal
values in row order) and add 0.0 for the other rows, which is exact, so
every tree is bit-identical to the one a full sorted scan grows.
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


@dataclass(frozen=True)
class _Design:
    """The training design as the split search reads it.

    Xt is the design transposed, (features, rows). ``is_binary`` marks the
    columns with exactly two distinct values, ``lows`` and ``highs`` hold
    those values and ``on_low`` (binary columns, rows) which rows hold the
    low one; every other column is presorted. ``slot[f]`` is the row of
    feature f among the columns of its kind, in column order.
    """

    Xt: np.ndarray
    is_binary: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    on_low: np.ndarray
    slot: np.ndarray


def _threshold(below, above):
    # the midpoint of adjacent doubles rounds to the upper one, and `<=` would
    # then send every row left
    mid = (below + above) / 2.0
    return mid if mid < above else below


def _sse(csum, csq, nl, n, total_sum, total_sq):
    nr = n - nl
    return (csq - csum * csum / nl) + ((total_sq - csq) - (total_sum - csum) ** 2 / nr)


def _best_split(design: _Design, xs, ys, rows, y, total_sum):
    """Exact greedy scan of every feature at once; (feature, threshold, gain) or None.

    xs and ys are (numeric features, node rows): each presorted feature's
    values in ascending order and the targets in that order; rows are the
    node's rows in ascending order, y their targets and total_sum the sum
    of y. The first minimum per feature is its lowest threshold, and the
    first feature reaching the largest gain wins.
    """
    n = len(y)
    total_sq = float(y @ y)
    base_sse = total_sq - total_sum * total_sum / n
    gains = np.empty(len(design.slot))
    # boundary b splits after sorted row b; it needs enough rows on both
    # sides, and the value must change there
    lo, hi = MIN_SAMPLES_LEAF - 1, n - MIN_SAMPLES_LEAF
    csum = ys.cumsum(axis=1)[:, lo:hi]
    csq = (ys * ys).cumsum(axis=1)[:, lo:hi]
    sse = _sse(csum, csq, np.arange(lo + 1.0, hi + 1.0), n, total_sum, total_sq)
    sse[xs[:, lo:hi] == xs[:, lo + 1 : hi + 1]] = np.inf
    gains[~design.is_binary] = base_sse - sse.min(axis=1)
    # a binary column's one boundary follows its last low row
    on_low = design.on_low[:, rows]
    n_low = on_low.sum(axis=1)
    scored = (n_low >= MIN_SAMPLES_LEAF) & (n_low <= n - MIN_SAMPLES_LEAF)
    low_y = np.where(on_low[scored], y, 0.0)
    low_sum = low_y.cumsum(axis=1)[:, -1]
    low_sq = (low_y * low_y).cumsum(axis=1)[:, -1]
    binary_gains = np.full(len(design.lows), -np.inf)
    low_sse = _sse(low_sum, low_sq, n_low[scored], n, total_sum, total_sq)
    binary_gains[scored] = base_sse - low_sse
    gains[design.is_binary] = binary_gains
    j = int(gains.argmax())
    if not gains[j] > 1e-12:  # require a strictly positive improvement
        return None
    s = design.slot[j]
    if design.is_binary[j]:
        return j, _threshold(design.lows[s], design.highs[s]), float(gains[j])
    b = lo + sse[s].argmin()
    return j, _threshold(xs[s, b], xs[s, b + 1]), float(gains[j])


def _grow(design: _Design, residual, rows, order, xs, depth: int, fitted) -> _Node:
    """Grow one node over `rows` (ascending) and write leaf values into `fitted`.

    order[i] lists the node's rows in ascending order of the i-th presorted
    feature, and xs[i] their values.
    """
    y = residual[rows]
    total = y.sum()
    node = _Node(value=float(total / len(y)))  # y.mean(), without its overhead
    split = None
    if depth < MAX_DEPTH and len(rows) >= 2 * MIN_SAMPLES_LEAF:
        split = _best_split(design, xs, residual[order], rows, y, total)
    if split is None:
        fitted[rows] = node.value
        return node
    feature, threshold, _ = split
    node.feature = feature
    node.threshold = threshold
    # stable partitions keep each child's per-feature orders sorted
    column = design.Xt[feature]
    left_rows = column[rows] <= threshold
    left = column[order] <= threshold
    children = []
    for row_side, side in ((left_rows, left), (~left_rows, ~left)):
        child_rows = rows[row_side]
        # explicit, not -1: order has no rows when every column is binary
        shape = (len(order), len(child_rows))
        child_order, child_xs = order[side].reshape(shape), xs[side].reshape(shape)
        children.append(_grow(design, residual, child_rows, child_order, child_xs, depth + 1, fitted))
    node.left, node.right = children
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
    is_binary = np.count_nonzero(xs[:, 1:] != xs[:, :-1], axis=1) == 1
    slot = np.empty(len(Xt), dtype=int)
    slot[~is_binary] = np.arange(np.count_nonzero(~is_binary))
    slot[is_binary] = np.arange(np.count_nonzero(is_binary))
    lows, highs = xs[is_binary, 0], xs[is_binary, -1]
    design = _Design(Xt, is_binary, lows, highs, Xt[is_binary] == lows[:, None], slot)
    order, xs = order[~is_binary], xs[~is_binary]
    base = float(y.mean())
    current = np.full(len(y), base)
    fitted = np.empty(len(y))
    trees = []
    for _ in range(n_rounds):
        residual = y - current
        trees.append(RegressionTree(_grow(design, residual, rows, order, xs, 0, fitted)))
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
