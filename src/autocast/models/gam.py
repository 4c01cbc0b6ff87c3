"""Additive model over deterministic time features, fit with the lasso.

A design row for time offset t (0 = first training period) of a series
with n training periods and m periods a year has, in this order:

- column 0: intercept, 1;
- column 1: linear trend, t;
- columns 2 .. 1 + 2K: Fourier seasonality, sin(2 pi k t / m) then
  cos(2 pi k t / m) for k = 1 .. K, with K = `FOURIER_ORDER` of the
  frequency (3 monthly, 10 weekly);
- one hinge max(u - knot, 0) per knot in `KNOTS`, on u = t / (n - 1).

The trend is piecewise linear with a changepoint at each knot, as Prophet's
is (Taylor & Letham 2018), and the lasso keeps only the changepoints the
data need. Past the last knot every trend column is affine in t, so a
forecast beyond the training end extrapolates the final slope linearly
rather than growing like a power or an exponential.

`seasonal_columns` is the Fourier slice, which `decompose` splits off as
the seasonal part. The penalty weight is picked by `select_lambda` on the
last 20% of rows, and the coefficients are read off the exact lasso path.
"""
from __future__ import annotations

import numpy as np

from ..series import Frequency, SalesSeries
from .base import BaseForecaster, ModelId
from .lasso import lasso_path, select_lambda

KNOTS = tuple((i + 1) / 6 for i in range(5))
FOURIER_ORDER = {Frequency.MONTHLY: 3, Frequency.WEEKLY: 10}


def seasonal_columns(frequency: Frequency) -> slice:
    """The Fourier columns: right after the intercept and the linear trend."""
    return slice(2, 2 + 2 * FOURIER_ORDER[frequency])


def build_design_rows(t_values, n_train: int, frequency: Frequency) -> np.ndarray:
    """Raw design rows for the given integer time offsets (0 = train start)."""
    t = np.asarray(t_values, dtype=float)
    m = frequency.periods_per_year
    cols = [np.ones_like(t), t]
    for k in range(1, FOURIER_ORDER[frequency] + 1):
        angle = 2.0 * np.pi * k * t / m
        cols.append(np.sin(angle))
        cols.append(np.cos(angle))
    u = t / max(n_train - 1, 1)
    cols.extend(np.maximum(u - knot, 0.0) for knot in KNOTS)
    return np.column_stack(cols)


def _standardize(design):
    means = design.mean(axis=0)
    stds = design.std(axis=0)
    means[0] = 0.0
    stds[0] = 1.0
    stds[stds == 0.0] = 1.0
    return (design - means) / stds, means, stds


class GamForecaster(BaseForecaster):
    """Piecewise-linear trend + Fourier fit on the training rows, forecast past the training end.

    ``beta_`` holds the coefficients on the raw (unstandardized) columns.
    """

    model_id = ModelId.GAM

    def _fit(self, series: SalesSeries) -> None:
        n = len(series)
        if n < 12:
            raise ValueError(f"fit needs at least 12 points, got {n}")
        std_design, means, stds = _standardize(build_design_rows(np.arange(n), n, series.frequency))
        y = series.values
        beta_std = lasso_path(std_design, y, [select_lambda(std_design, y)])[0]
        self.beta_ = beta_std / stds
        self.beta_[0] = beta_std[0] - float((beta_std[1:] * means[1:] / stds[1:]).sum())

    def _rows(self, t_values) -> np.ndarray:
        return build_design_rows(t_values, len(self.train_), self.train_.frequency)

    def _path(self, horizon: int) -> np.ndarray:
        n = len(self.train_)
        return self._rows(np.arange(n, n + horizon)) @ self.beta_

    def decompose(self) -> dict:
        """Trend and seasonal paths over the training window."""
        self._check_fitted()
        rows = self._rows(np.arange(len(self.train_)))
        seasonal = np.zeros(len(self.beta_), dtype=bool)
        seasonal[seasonal_columns(self.train_.frequency)] = True
        return {
            "trend": rows[:, ~seasonal] @ self.beta_[~seasonal],
            "seasonal": rows[:, seasonal] @ self.beta_[seasonal],
        }
