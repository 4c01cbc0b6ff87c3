"""Shared test helpers: compact series builders with fixed epochs, ARIMA orders, and the lasso optimality check."""
import numpy as np

from autocast.models.arima import MAX_P, MAX_Q, MAX_SEASONAL, ArimaOrder
from autocast.series import Frequency, Period, SalesSeries

# January 2020 / first ISO week of 2020 keep labels human-checkable
MONTH0 = 240
WEEK0 = 1043


def monthly_series(values, product_id="p1", start_index=MONTH0):
    return SalesSeries(
        product_id,
        Frequency.MONTHLY,
        Period(Frequency.MONTHLY, start_index),
        np.asarray(values, dtype=float),
    )


def weekly_series(values, product_id="p1", start_index=WEEK0):
    return SalesSeries(
        product_id,
        Frequency.WEEKLY,
        Period(Frequency.WEEKLY, start_index),
        np.asarray(values, dtype=float),
    )


def seasonal_values(n, m=12, level=100.0, amplitude=10.0, slope=0.0, noise=0.0, seed=0):
    """level + slope*t + amplitude*sin(2 pi t / m) + Gaussian noise, floored at 0."""
    t = np.arange(n)
    y = level + slope * t + amplitude * np.sin(2.0 * np.pi * t / m)
    if noise > 0:
        y = y + np.random.default_rng(seed).normal(0.0, noise, n)
    return np.maximum(y, 0.0)


def in_range_orders(m):
    """Every ArimaOrder with at least one coefficient, at d = D = 0 and seasonal period m."""
    for p in range(MAX_P + 1):
        for q in range(MAX_Q + 1):
            for P in range(MAX_SEASONAL + 1):
                for Q in range(MAX_SEASONAL + 1):
                    if p + q + P + Q:
                        yield ArimaOrder(p, 0, q, P, 0, Q, m if P + Q else 1)


def kkt_violation(M, y, beta, lam):
    """Largest breach of the lasso optimality conditions; column 0 unpenalized."""
    gradient = -(M.T @ (y - M @ beta)) / len(y)
    worst = abs(gradient[0])
    for j in range(1, M.shape[1]):
        if beta[j] != 0.0:
            worst = max(worst, abs(gradient[j] + lam * np.sign(beta[j])))
        else:
            worst = max(worst, abs(gradient[j]) - lam)
    return worst
