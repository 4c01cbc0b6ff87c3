"""The list-based Nelder-Mead against the numpy-simplex formulation, bit for bit."""
import math

import numpy as np
import pytest

from autocast.models.arima import ArimaOrder, css_of
from autocast.models import optim
from autocast.models.optim import levenberg_marquardt, nelder_mead

from helpers import in_range_orders
from oracles import nelder_mead_arrays


def same_fit(objective, x0, **options):
    x, f, nfev = nelder_mead(objective, x0, **options)
    x_ref, f_ref, nfev_ref = nelder_mead_arrays(objective, x0, **options)
    assert x.tobytes() == x_ref.tobytes()
    assert (f, nfev) == (f_ref, nfev_ref)
    return x, f, nfev


def seasonal_series(m, n, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    w = np.sin(2 * np.pi * t / m) + 0.5 * rng.normal(size=n)
    w = np.convolve(w, [1.0, 0.6, -0.2])[:n]
    return w - w.mean()


@pytest.mark.parametrize("m", [4, 12, 52])
def test_css_objectives_of_every_order(m):
    wc = seasonal_series(m, 3 * m + 20, seed=m)
    for order in in_range_orders(m):
        k = order.n_params
        same_fit(lambda params: css_of(wc, order, params), np.zeros(k), maxfev=30 + 20 * k, xatol=1e-3)


def test_generous_css_refits():
    wc = seasonal_series(12, 84, seed=1)
    for order in (ArimaOrder(2, 0, 2, 1, 0, 1, 12), ArimaOrder(3, 0, 0), ArimaOrder(0, 0, 3, 0, 0, 1, 12)):
        k = order.n_params
        same_fit(lambda params: css_of(wc, order, params), np.zeros(k), maxfev=200 * k, xatol=1e-6)


@pytest.mark.parametrize("ndim", range(1, 8))
def test_rosenbrock_default_budget(ndim):
    def rosenbrock(x):
        x = np.asarray(x)
        if len(x) == 1:
            return float((x[0] - 1.0) ** 2)
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    x0 = np.linspace(-0.5, 0.7, ndim)
    x0[ndim // 2] = 0.0  # one start coordinate takes the absolute step
    same_fit(rosenbrock, x0)


@pytest.mark.parametrize("ndim", [1, 2, 4, 7])
@pytest.mark.parametrize("norm", [lambda d: np.sum(np.abs(d)), lambda d: 10.0 * np.max(np.abs(d))])
def test_flat_plateaus_tie_and_shrink(ndim, norm):
    # a staircase: many moves land on a value already in the simplex, and
    # contractions that do not strictly improve force shrink steps
    target = np.linspace(0.3, -0.4, ndim)

    def staircase(x):
        return math.floor(4.0 * float(norm(np.asarray(x) - target))) / 4.0

    same_fit(staircase, np.zeros(ndim), maxfev=150 * ndim)


@pytest.mark.parametrize("ndim", [1, 3, 5])
def test_infinite_regions(ndim):
    def walled(x):
        x = np.asarray(x)
        if x[0] > 0.25 or np.sum(x) < -1.0:
            return math.inf
        return float(np.sum((x - 0.5) ** 2))

    same_fit(walled, np.zeros(ndim), maxfev=None)


def test_all_infinite_start():
    with np.errstate(invalid="ignore"):  # the array formulation subtracts inf from inf
        same_fit(lambda x: math.inf, np.zeros(3), maxfev=40)


def test_budget_below_the_simplex():
    same_fit(lambda x: float(np.sum(np.asarray(x) ** 2)), np.ones(4), maxfev=3)


def test_zero_dimensional_input_evaluated_once():
    x, f, nfev = nelder_mead(lambda x: 2.5, np.empty(0))
    assert (x.size, f, nfev) == (0, 2.5, 1)


def rosenbrock_least_squares(x):
    """Residuals of Rosenbrock's function and their Jacobian."""
    residuals = np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
    return residuals, np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


def rosenbrock_sse(x):
    residuals, _ = rosenbrock_least_squares(x)
    return float(residuals @ residuals)


def test_levenberg_marquardt_follows_the_valley():
    x0 = [-1.2, 1.0]
    x, f, n_jac, converged = levenberg_marquardt(rosenbrock_sse, rosenbrock_least_squares, x0, rosenbrock_sse(x0), 1e-10)
    assert converged and n_jac < 100
    assert np.allclose(x, [1.0, 1.0], atol=1e-6) and f < 1e-12


def test_levenberg_marquardt_solves_linear_least_squares_at_once():
    rng = np.random.default_rng(0)
    A, y = rng.normal(size=(30, 4)), rng.normal(size=30)

    def linearize(x):
        return A @ x - y, A

    x, f, n_jac, converged = levenberg_marquardt(
        lambda x: float(np.sum((A @ x - y) ** 2)), linearize, np.zeros(4), float(y @ y), 1e-10
    )
    assert converged and n_jac <= 3
    assert np.allclose(x, np.linalg.lstsq(A, y, rcond=None)[0], atol=1e-8)


def test_levenberg_marquardt_stops_at_an_exact_fit():
    # r = (x0^2, x1^2) vanishes at 0, where f shrinks only 16-fold per Gauss-Newton step
    def linearize(x):
        return x * x, np.diag(2.0 * x)

    def sse(x):
        return float(np.sum(x**4))

    x0 = np.array([1.0, -2.0])
    _, f_free, n_free, converged_free = levenberg_marquardt(sse, linearize, x0, sse(x0), 1e-10)
    x, f, n_jac, converged = levenberg_marquardt(sse, linearize, x0, sse(x0), 1e-10, fmin=1e-12 * sse(x0))
    assert converged and f <= 1e-12 * sse(x0) and n_jac < n_free
    assert not converged_free and n_free == optim.MAX_JACOBIANS
    x, f, n_jac, converged = levenberg_marquardt(sse, linearize, np.zeros(2), 0.0, 1e-10)
    assert converged and n_jac == 0


def test_levenberg_marquardt_reports_a_stopped_run(monkeypatch):
    monkeypatch.setattr(optim, "MAX_JACOBIANS", 2)
    x0 = [-1.2, 1.0]
    x, f, n_jac, converged = levenberg_marquardt(rosenbrock_sse, rosenbrock_least_squares, x0, rosenbrock_sse(x0), 1e-10)
    assert not converged and n_jac == 2 and f < rosenbrock_sse(x0)


def test_levenberg_marquardt_rejects_non_finite_trials():
    # beyond x = 0.5 the objective is undefined: steps there must be rejected
    def linearize(x):
        return np.array([x[0] - 2.0]), np.array([[1.0]])

    def walled(x):
        return math.inf if x[0] > 0.5 else float((x[0] - 2.0) ** 2)

    x, f, _, converged = levenberg_marquardt(walled, linearize, [0.0], walled([0.0]), 1e-10)
    assert converged and 0.5 - 1e-6 < x[0] <= 0.5
