"""Forecast error metrics: RMSE, range-normalized RMSE, and MAPE.

nRMSE divides by the range of the actuals so products at different scales
become comparable; it is undefined (None) when the actuals are constant.
MAPE skips periods whose actual value is zero; it is undefined when every
actual is zero.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MetricSet:
    """Error metrics of one model on one product's holdout."""

    rmse: float
    nrmse: float | None
    mape: float | None


def _paired(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    """The pair as float vectors; both must be 1-D, non-empty, finite and of equal length."""
    pair = []
    for name, x in (("actual", actual), ("predicted", predicted)):
        arr = np.asarray(x, dtype=float)
        if arr.ndim != 1:
            raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ValueError(f"{name} must not be empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite entries")
        pair.append(arr)
    a, p = pair
    if a.size != p.size:
        raise ValueError(f"length mismatch: actual has {a.size}, predicted has {p.size}")
    return a, p


def compute_metric_set(actual, predicted) -> MetricSet:
    """All three metrics for one (actual, predicted) pair, checked once.

    RMSE is sqrt(mean((actual - predicted)^2)); nRMSE is RMSE over the range
    of the actuals; MAPE is the mean absolute percentage error over nonzero
    actuals, as a fraction.
    """
    a, p = _paired(actual, predicted)
    rmse = float(np.sqrt(np.mean((a - p) ** 2)))
    value_range = float(np.max(a) - np.min(a))
    nonzero = a != 0
    return MetricSet(
        rmse=rmse,
        nrmse=None if value_range == 0.0 else rmse / value_range,
        mape=float(np.mean(np.abs((a[nonzero] - p[nonzero]) / a[nonzero]))) if nonzero.any() else None,
    )


def format_metric(value) -> str:
    """value to the exports' 6 decimal places, or "" when it is undefined (None)."""
    return "" if value is None else f"{value:.6f}"
