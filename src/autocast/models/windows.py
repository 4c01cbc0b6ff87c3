"""Lag windows: the rows both pooled models, the trees and the CNN, learn from.

`lag_windows` cuts a history into windows of its consecutive values: the
trees' training rows here and the CNN's training windows in
`deeplearn.training.build_training_windows` both take it, and the trees'
forecast row is its last window. The trees' row for period t holds the
previous year of values plus a one-hot of t's position in the year, so
features never look forward; `_tree_rows` alone lays that row out.
"""
from __future__ import annotations

import numpy as np

from ..series import SalesSeries


def lag_windows(values: np.ndarray, width: int) -> np.ndarray:
    """Every run of `width` consecutive values, one per row, as a read-only view.

    Row i is values[i : i + width], the input for the value at position
    i + width; the last row ends with the last value, so it is the input
    for the step after them. Raises ValueError when values are fewer than width.
    """
    return np.lib.stride_tricks.sliding_window_view(values, width)


def content_order(corpus) -> list:
    """The products sorted by (length, start period, value bytes), the order both pooled
    models stack their rows in: equal keys mean identical series, so ids never move a row."""
    return sorted(corpus, key=lambda s: (len(s), s.start.index, s.values.tobytes()))


def _tree_rows(lags: np.ndarray, positions, m: int) -> np.ndarray:
    """Each lag window followed by the one-hot of its target's position in the year."""
    rows = np.zeros((len(lags), 2 * m))
    rows[:, :m] = lags
    rows[np.arange(len(lags)), m + np.asarray(positions)] = 1.0
    return rows


def make_window_features(series: SalesSeries):
    """Returns (X, y) arrays with one row per period t >= m; empty for short series.

    Row t: values v_{t-m}..v_{t-1} in order, then the one-hot seasonal
    position of t. Targets are log1p-transformed.
    """
    m = series.frequency.periods_per_year
    n = len(series)
    if n < m + 1:
        return np.empty((0, 2 * m)), np.empty(0)
    positions = (series.start.position_in_year + np.arange(m, n)) % m
    return _tree_rows(lag_windows(series.values, m)[:-1], positions, m), np.log1p(series.values[m:])


def one_step_features(history: np.ndarray, next_position: int, m: int) -> np.ndarray:
    """Feature row for predicting the period right after `history`.

    Its lags, the last of `lag_windows(history, m)`, are sliced directly: on
    this per-step path a window view would cost more than the row.
    """
    if len(history) < m:
        raise ValueError(f"need at least {m} trailing values, got {len(history)}")
    return _tree_rows(history[None, -m:], [next_position], m)[0]
