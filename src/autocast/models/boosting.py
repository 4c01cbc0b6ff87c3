"""Gradient-boosted regression trees, squared loss, written from scratch.

Deterministic by construction: exact greedy splits, no row or column
subsampling, ties broken by lowest feature index then lowest threshold.
A split is scored by the gain of Breiman et al. (1984), in the form of
Chen & Guestrin (2016, XGBoost eq. 7) with unit hessians:
S_L²/n_L + S_R²/n_R − S²/n, where S is a sum of targets and n a row count,
so one cumulative sum per feature scores every boundary.

Each training presorts the feature columns once (presorted column blocks,
as in XGBoost): a node keeps, per feature, its rows in ascending order of
that feature, and its children inherit those orders by stable partition, so
no node sorts and one vectorised pass scores every feature's boundaries.
A column with exactly two distinct values (the one-hot period position of
the window rows, half of every design) has one boundary, so it gets no
presorted block: one matrix-vector product gives every such column's sum
over the node rows at its low value.

The forest is stored as heap-ordered arrays, one row per tree and one slot
per node (node i has children 2i+1 and 2i+2; 2**(MAX_DEPTH+1) - 1 slots):
``feature``, ``threshold`` and ``value``. A leaf has feature -1 and
threshold +inf, and a leaf above the bottom level is repeated down its left
chain, so every row takes exactly MAX_DEPTH steps to a bottom slot: routing
all trees is MAX_DEPTH rounds of gathers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..series import SalesSeries
from .base import BaseForecaster, ModelId, iterate_one_step
from .windows import content_order, make_window_features, one_step_features

N_ROUNDS = 200
LEARNING_RATE = 0.1
MAX_DEPTH = 3
MIN_SAMPLES_LEAF = 2
SLOTS = 2 ** (MAX_DEPTH + 1) - 1
BOTTOM = SLOTS // 2  # first slot at depth MAX_DEPTH; only the slots before it can split


@dataclass(frozen=True)
class _Design:
    """The training design as the split search reads it.

    Xt is the design transposed, (features, rows). ``is_binary`` marks the
    columns with exactly two distinct values, ``lows`` and ``highs`` hold
    those values and ``on_low`` (binary columns, rows) is 1.0 where a row
    holds the low one; every other column is presorted. ``slot[f]`` is the
    row of feature f among the columns of its kind, in column order.
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


def _best_split(design: _Design, xs, ys, rows, y, total_sum):
    """Exact greedy scan of every feature at once; (feature, threshold, gain) or None.

    xs and ys are (numeric features, node rows): each presorted feature's
    values in ascending order and the targets in that order; rows are the
    node's rows in ascending order, y their targets and total_sum the sum
    of y. The first maximum per feature is its lowest threshold, and the
    first feature reaching the largest gain wins.
    """
    n = len(y)
    parent = total_sum * total_sum / n
    gains = np.empty(len(design.slot))
    # boundary b splits after sorted row b; it needs enough rows on both
    # sides, and the value must change there
    lo, hi = MIN_SAMPLES_LEAF - 1, n - MIN_SAMPLES_LEAF
    nl = np.arange(lo + 1.0, hi + 1.0)
    sl = ys.cumsum(axis=1)[:, lo:hi]
    score = sl * sl / nl + (total_sum - sl) ** 2 / (n - nl)
    score[xs[:, lo:hi] == xs[:, lo + 1 : hi + 1]] = -np.inf
    gains[~design.is_binary] = score.max(axis=1) - parent
    # a binary column's one boundary follows its last low row
    on_low = design.on_low[:, rows]
    n_low = on_low.sum(axis=1)
    low_sum = on_low @ y
    scored = (n_low >= MIN_SAMPLES_LEAF) & (n_low <= n - MIN_SAMPLES_LEAF)
    binary_gains = np.full(len(design.lows), -np.inf)
    sl, nl = low_sum[scored], n_low[scored]
    binary_gains[scored] = sl * sl / nl + (total_sum - sl) ** 2 / (n - nl) - parent
    gains[design.is_binary] = binary_gains
    j = int(gains.argmax())
    if not gains[j] > 1e-12:  # require a strictly positive improvement
        return None
    s = design.slot[j]
    if design.is_binary[j]:
        return j, _threshold(design.lows[s], design.highs[s]), float(gains[j])
    b = lo + score[s].argmax()
    return j, _threshold(xs[s, b], xs[s, b + 1]), float(gains[j])


def _grow(design: _Design, residual, rows, order, xs, slot: int, tree, fitted):
    """Grow the node at heap slot `slot` over `rows` (ascending) into `tree`.

    tree is one tree's (feature, threshold, value) rows of the forest;
    leaf values also go into `fitted`. order[i] lists the node's rows in
    ascending order of the i-th presorted feature, and xs[i] their values.
    """
    feature, threshold, value = tree
    y = residual[rows]
    total = y.sum()
    value[slot] = total / len(y)  # y.mean(), without its overhead
    split = None
    if slot < BOTTOM and len(rows) >= 2 * MIN_SAMPLES_LEAF:
        split = _best_split(design, xs, residual[order], rows, y, total)
    if split is None:
        fitted[rows] = value[slot]
        while slot < BOTTOM:  # repeat the leaf down its left chain
            slot = 2 * slot + 1
            value[slot] = value[(slot - 1) // 2]
        return
    feature[slot], threshold[slot], _ = split
    # stable partitions keep each child's per-feature orders sorted
    column = design.Xt[feature[slot]]
    left_rows = column[rows] <= threshold[slot]
    left = column[order] <= threshold[slot]
    for child, row_side, side in ((2 * slot + 1, left_rows, left), (2 * slot + 2, ~left_rows, ~left)):
        child_rows = rows[row_side]
        # explicit, not -1: order has no rows when every column is binary
        shape = (len(order), len(child_rows))
        child_order, child_xs = order[side].reshape(shape), xs[side].reshape(shape)
        _grow(design, residual, child_rows, child_order, child_xs, child, tree, fitted)


class GradientBoostedTrees:
    """A forest in heap arrays of shape (trees, SLOTS); see the module docstring."""

    def __init__(self, base_value: float, feature, threshold, value):
        self.base_value = base_value
        self.feature = feature
        self.threshold = threshold
        self.value = value
        self._roots = SLOTS * np.arange(len(feature))  # flat slot of each root
        self._left = (self._roots[:, None] + 2 * np.arange(SLOTS) + 1).ravel()  # and of each left child

    def leaves(self, X) -> np.ndarray:
        """(rows, trees) value of the leaf each row of X reaches in each tree."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        # every slot's child for every row (the right child follows the left),
        # then MAX_DEPTH steps down from the roots
        child = self._left + (X[:, self.feature.ravel()] > self.threshold.ravel())
        rows = np.arange(len(X))[:, None]
        at = self._roots
        for _ in range(MAX_DEPTH):
            at = child[rows, at]
        return self.value.ravel()[at]

    def predict_one(self, row) -> float:
        value = self.base_value
        for leaf in self.leaves(row)[0].tolist():
            value += LEARNING_RATE * leaf
        return value


def fit_boosted_trees(X, y, n_rounds: int = N_ROUNDS) -> GradientBoostedTrees:
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
    on_low = (Xt[is_binary] == lows[:, None]).astype(float)
    design = _Design(Xt, is_binary, lows, highs, on_low, slot)
    order, xs = order[~is_binary], xs[~is_binary]
    base = float(y.mean())
    current = np.full(len(y), base)
    fitted = np.empty(len(y))
    feature = np.full((n_rounds, SLOTS), -1, dtype=np.intp)
    threshold = np.full((n_rounds, SLOTS), np.inf)
    value = np.full((n_rounds, SLOTS), np.nan)
    for t in range(n_rounds):
        residual = y - current
        _grow(design, residual, rows, order, xs, 0, (feature[t], threshold[t], value[t]), fitted)
        current += LEARNING_RATE * fitted
    return GradientBoostedTrees(base, feature, threshold, value)


def train_pooled_trees(corpus) -> GradientBoostedTrees:
    """One model over window rows pooled from every product, in `content_order`."""
    blocks = [make_window_features(s) for s in content_order(corpus)]
    xs = [X for X, _ in blocks if len(X)]
    ys = [y for _, y in blocks if len(y)]
    if not xs:
        raise ValueError("no product contributed any training window")
    return fit_boosted_trees(np.vstack(xs), np.concatenate(ys))


class BoostedTreeForecaster(BaseForecaster):
    """Per-product adapter around the shared pooled model."""

    model_id = ModelId.BOOSTED_TREE

    def __init__(self, model: GradientBoostedTrees):
        self.model = model

    def _fit(self, series: SalesSeries) -> None:
        m = series.frequency.periods_per_year
        if len(series) < m:
            raise ValueError(f"need at least {m} points of history, got {len(series)}")

    def _path(self, horizon: int) -> np.ndarray:
        m = self.train_.frequency.periods_per_year
        start_pos = self.train_.start.position_in_year

        def predict_one(history):
            # the history holds every point before the one predicted
            position = (start_pos + len(history)) % m
            row = one_step_features(history, position, m)
            return np.expm1(self.model.predict_one(row))

        return iterate_one_step(predict_one, self.train_.values, horizon)
