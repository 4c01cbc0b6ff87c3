"""Lag-window training rows for the pooled tree and net models.

A row for period t holds the previous year of values plus a one-hot of the
target period's position in the year, so features never look forward.
"""
from __future__ import annotations

import numpy as np

from ..series import SalesSeries


def feature_length(m: int) -> int:
    return 2 * m


def make_window_features(series: SalesSeries):
    """Returns (X, y) arrays with one row per period t >= m; empty for short series.

    Row t: values v_{t-m}..v_{t-1} in order, then the one-hot seasonal
    position of t. Targets are log1p-transformed.
    """
    m = series.frequency.periods_per_year
    n = len(series)
    if n < m + 1:
        return np.empty((0, feature_length(m))), np.empty(0)
    values = series.values
    start_pos = series.start.position_in_year
    rows = n - m
    X = np.zeros((rows, 2 * m))
    for i, t in enumerate(range(m, n)):
        X[i, :m] = values[t - m : t]
        X[i, m + (start_pos + t) % m] = 1.0
    return X, np.log1p(values[m:])


def one_step_features(history: np.ndarray, next_position: int, m: int) -> np.ndarray:
    """Feature row for predicting the period right after `history`."""
    if len(history) < m:
        raise ValueError(f"need at least {m} trailing values, got {len(history)}")
    row = np.zeros(2 * m)
    row[:m] = history[-m:]
    row[m + next_position] = 1.0
    return row
