"""Forecast error metrics: RMSE, range-normalized RMSE, and MAPE.

nRMSE divides by the range of the actuals so products at different scales
become comparable; it is undefined (None) when the actuals are constant.
MAPE skips periods whose actual value is zero and reports how many were
skipped; it is undefined when every actual is zero.
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
    mape_skipped: int = 0


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


def _rmse(a: np.ndarray, p: np.ndarray) -> float:
    return float(np.sqrt(np.mean((a - p) ** 2)))


def _nrmse(a: np.ndarray, rmse: float) -> float | None:
    value_range = float(np.max(a) - np.min(a))
    return None if value_range == 0.0 else rmse / value_range


def _mape(a: np.ndarray, p: np.ndarray) -> tuple[float | None, int]:
    nonzero = a != 0
    skipped = int(np.sum(~nonzero))
    if skipped == a.size:
        return None, skipped
    return float(np.mean(np.abs((a[nonzero] - p[nonzero]) / a[nonzero]))), skipped


def compute_rmse(actual, predicted) -> float:
    """Root mean squared error, sqrt(mean((actual - predicted)^2))."""
    return _rmse(*_paired(actual, predicted))


def compute_nrmse(actual, predicted) -> float | None:
    """RMSE divided by the range of the actuals; None for constant actuals."""
    a, p = _paired(actual, predicted)
    return _nrmse(a, _rmse(a, p))


def compute_mape(actual, predicted) -> tuple[float | None, int]:
    """Mean absolute percentage error over nonzero actuals, as a fraction.

    Returns (mape, skipped) where skipped counts zero-actual periods that
    were excluded; mape is None when all actuals are zero.
    """
    return _mape(*_paired(actual, predicted))


def compute_metric_set(actual, predicted) -> MetricSet:
    """All three metrics for one (actual, predicted) pair, checked once."""
    a, p = _paired(actual, predicted)
    rmse = _rmse(a, p)
    mape, skipped = _mape(a, p)
    return MetricSet(rmse=rmse, nrmse=_nrmse(a, rmse), mape=mape, mape_skipped=skipped)
