"""Exponential smoothing: simple (SES) and additive Holt-Winters.

SES keeps one level and forecasts it flat, on any history. Holt-Winters
starts its level, trend and seasonal pattern from a classical decomposition
of the first two seasons, so fit_hwes refuses a series shorter than two
seasons, as R's HoltWinters does; the pipeline then records hwes as skipped
there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle

import numpy as np

from ..series import SalesSeries
from .base import BaseForecaster, ModelId
from .optim import nelder_mead

PARAM_FLOOR = 0.001
PARAM_CEIL = 0.999


@dataclass(frozen=True)
class HwesState:
    """Smoothed endpoint of the Holt-Winters recursion plus the parameters that produced it.

    seasonal is end-aligned: seasonal[h % m] is the component for the h-th
    period after the end of training (h = 1, 2, ...). Components sum to 0.
    """

    alpha: float
    beta: float
    gamma: float
    level: float
    trend: float
    seasonal: tuple

    @property
    def season_length(self) -> int:
        return len(self.seasonal)


def _clamp(params):
    return [min(max(v, PARAM_FLOOR), PARAM_CEIL) for v in params]


# The passes run once per objective evaluation. They take the series as a
# list of floats (values.tolist()), the seasonal components as a list and the
# parameters as floats: float arithmetic is the IEEE double arithmetic numpy
# scalars do, without their per-operation overhead.
def _ses_pass(values, alpha):
    level = values[0]
    sse = 0.0
    for y in values[1:]:
        err = y - level
        sse += err * err
        level += alpha * err
    return sse, level


def _hwes_init(values, m):
    # Classical decomposition on the first two seasons: season means give
    # level and trend, per-position deviations give the seasonal pattern.
    first = values[:m]
    second = values[m : 2 * m]
    mean1 = first.mean()
    mean2 = second.mean()
    level = float(mean1)
    trend = float((mean2 - mean1) / m)
    seasonal = ((first - mean1) + (second - mean2)) / 2.0
    seasonal = seasonal - seasonal.mean()
    return level, trend, seasonal


def _hwes_pass(values, m, alpha, beta, gamma, init):
    level, trend, seasonal = init
    seasonal = list(seasonal)
    keep_a, keep_b, keep_g = 1.0 - alpha, 1.0 - beta, 1.0 - gamma
    sse = 0.0
    for pos, y in zip(cycle(range(m)), values):
        s_old = seasonal[pos]
        base = level + trend
        err = y - (base + s_old)
        sse += err * err
        seasonal[pos] = gamma * (y - level - trend) + keep_g * s_old
        prev_level = level
        level = alpha * (y - s_old) + keep_a * base
        trend = beta * (level - prev_level) + keep_b * trend
    return sse, level, trend, seasonal


def _minimize(sse_of, x0, maxfev: int):
    """Nelder-Mead over the clamped parameters; (clamped best, its SSE).

    sse_of takes the clamped parameters as floats; a non-finite SSE scores +inf.
    """

    def objective(params):
        sse = sse_of(*_clamp(params))
        return sse if math.isfinite(sse) else math.inf

    best, best_sse, _ = nelder_mead(objective, np.array(x0), maxfev=maxfev)
    return _clamp(best.tolist()), best_sse


def fit_ses(values):
    """Optimize alpha on one-step SSE."""
    values = np.asarray(values, dtype=float).tolist()
    (alpha,), _ = _minimize(lambda a: _ses_pass(values, a)[0], [0.3], 80)
    _, level = _ses_pass(values, alpha)
    return alpha, level


def fit_hwes(train: SalesSeries) -> HwesState:
    """Additive Holt-Winters with Nelder-Mead over (alpha, beta, gamma).

    Raises ValueError on fewer than two full seasons, which the seasonal
    start needs, and when no parameters give a finite loss.
    """
    values = train.values.tolist()
    m = train.frequency.periods_per_year
    n = len(values)
    if n < 2 * m:
        raise ValueError(f"Holt-Winters needs two seasons ({2 * m} points), got {n}")

    level0, trend0, seasonal0 = _hwes_init(train.values, m)
    init = (level0, trend0, seasonal0.tolist())
    (a, b, g), best_sse = _minimize(lambda a, b, g: _hwes_pass(values, m, a, b, g, init)[0], [0.3, 0.1, 0.1], 300)
    if not math.isfinite(best_sse):
        raise ValueError("Holt-Winters loss is not finite at any parameters tried")
    _, level, trend, seasonal = _hwes_pass(values, m, a, b, g, init)
    seasonal = np.array(seasonal)
    seasonal = seasonal - seasonal.mean()
    # rotate so that index h % m serves the h-th step after training
    end_aligned = tuple(seasonal[(n - 1 + k) % m] for k in range(m))
    return HwesState(a, b, g, level, trend, end_aligned)


def hwes_forecast(state: HwesState, horizon: int) -> np.ndarray:
    """Linear trend continuation plus the repeating seasonal pattern."""
    m = state.season_length
    steps = np.arange(1, horizon + 1)
    seasonal = np.array([state.seasonal[h % m] for h in steps])
    return state.level + steps * state.trend + seasonal


class SesForecaster(BaseForecaster):
    """Flat forecast at the optimized smoothed level."""

    model_id = ModelId.SES

    def _fit(self, series: SalesSeries) -> None:
        self.alpha_, self.level_ = fit_ses(series.values)

    def _path(self, horizon: int) -> np.ndarray:
        return np.full(horizon, self.level_)


class HwesForecaster(BaseForecaster):
    model_id = ModelId.HWES

    def _fit(self, series: SalesSeries) -> None:
        self.state_ = fit_hwes(series)

    def _path(self, horizon: int) -> np.ndarray:
        return hwes_forecast(self.state_, horizon)
