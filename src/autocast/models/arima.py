"""ARIMA and seasonal ARIMA with Hyndman–Khandakar order selection.

Order selection follows Hyndman & Khandakar (2008), "Automatic time series
forecasting: the forecast package for R". The differencing orders are fixed
by tests before any model is fit: D = 1 when the seasonal strength of a
classical decomposition exceeds 0.64 (Wang, Smith & Hyndman 2006), then d by
repeated KPSS level tests (Kwiatkowski et al. 1992) on the seasonally
differenced series. At that (d, D) a stepwise search over (p, q, P, Q) moves
to the first neighbour that lowers AICc until none does, so every candidate
of one search is scored on the same differenced series.

Each candidate minimizes the CSS of the differenced, mean-centred series,
a sum of squared residuals e = a(B)/b(B) w, by Levenberg–Marquardt
(``optim.levenberg_marquardt``). Dividing by b(B), whose leading coefficient
is 1, is a unit lower-triangular banded solve (LAPACK's ``dtbtrs``, in
``_inverse_filter``). ``scipy.signal.lfilter`` runs the same recursion, but
importing ``scipy.signal`` cost every cold run over a second and ~75 MB of
RSS, for this one function. The Jacobian takes two banded triangular solves
per iteration (``_css_jacobian``); trial steps are scored by ``css_of``. A
pure AR(p) is solved exactly by least squares; every other candidate starts
from zero coefficients, as R's ``arima`` starts its CSS fit. Search candidates
stop once an accepted step gains at most SEARCH_FTOL of the CSS; the
winner's refit continues from the search iterate to REFIT_FTOL, and a
forced-order refit runs to REFIT_FTOL from zero. A fit whose CSS falls to
EXACT_FIT of the series' own sum of squares ends there. Every fit reports
whether it converged.

The model is its lag polynomials a(B), b(B) (``_polys``) and pi(B) =
(1 - B)^d (1 - B^m)^D (``_differencing``); differencing is the product pi(B) y.
A forecast solves a(B) w = b(B) e past the end of the history with the future
shocks zero, then pi(B) y = w (Box, Jenkins, Reinsel & Ljung, *Time Series
Analysis*, ch. 5), each by the banded solve the fit makes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dtbtrs

from ..series import SalesSeries
from .base import BaseForecaster, ModelId
# perfbench/tracing.py binds nelder_mead here for its optim.nelder_mead span.
# Nothing in this module calls it; the import leaves with that span.
from .optim import levenberg_marquardt, nelder_mead  # noqa: F401

MAX_P = 3
MAX_D = 2
MAX_Q = 3
MAX_SEASONAL = 1

# A search candidate stops once an accepted step lowers its CSS by at most
# this share; that moves its AICc by ~n * 1e-4, far below the gaps it ranks.
SEARCH_FTOL = 1e-4
# refits run to this share, or to a vanishing gradient
REFIT_FTOL = 1e-10
# a CSS at most this share of the differenced series' sum of squares is an
# exact fit (residuals a millionth of the series' scale); near an exact fit
# every step still gains a steady share of the CSS, so the ftol tests never end it
EXACT_FIT = 1e-12

# KPSS level test at the 5 % level (Kwiatkowski et al. 1992, table 1)
KPSS_CRITICAL_5PCT = 0.463
# seasonal strength above which one seasonal difference is taken
SEASONAL_STRENGTH_THRESHOLD = 0.64

# (p, q, P, Q) starting points of the stepwise search
SEARCH_STARTS = ((2, 2, 1, 1), (0, 0, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1))
# (dp, dq, dP, dQ) moves to a neighbour, tried in this order
SEARCH_MOVES = (
    (0, 0, -1, 0), (0, 0, 1, 0), (0, 0, 0, -1), (0, 0, 0, 1), (0, 0, -1, -1), (0, 0, 1, 1),
    (-1, 0, 0, 0), (1, 0, 0, 0), (0, -1, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0), (1, 1, 0, 0),
)


@dataclass(frozen=True)
class ArimaOrder:
    p: int
    d: int
    q: int
    P: int = 0
    D: int = 0
    Q: int = 0
    m: int = 1

    def __post_init__(self):
        if not (0 <= self.p <= MAX_P and 0 <= self.q <= MAX_Q and 0 <= self.d <= MAX_D):
            raise ValueError(f"non-seasonal order out of range: {self}")
        if not (0 <= self.P <= MAX_SEASONAL and 0 <= self.Q <= MAX_SEASONAL and 0 <= self.D <= MAX_SEASONAL):
            raise ValueError(f"seasonal order out of range: {self}")
        if self.is_seasonal and self.m <= max(MAX_P, MAX_Q):
            # _polys relies on the seasonal lags lying beyond the non-seasonal ones
            raise ValueError(f"seasonal order needs period m > {max(MAX_P, MAX_Q)}: {self}")

    @property
    def is_seasonal(self) -> bool:
        return (self.P + self.D + self.Q) > 0

    @property
    def n_params(self) -> int:
        return self.p + self.q + self.P + self.Q


@dataclass(frozen=True)
class FittedArima:
    order: ArimaOrder
    params: tuple          # phi..., theta..., Phi..., Theta...
    mean: float            # sample mean of the differenced series
    sse: float
    n_eff: int
    aicc: float
    fallback: bool = False
    converged: bool = True  # False when the CSS solver stopped short of its tolerance


def _differencing(d: int, D: int, m: int) -> np.ndarray:
    """The differencing polynomial pi(B) = (1 - B)^d (1 - B^m)^D, in lag order."""
    pi = np.array([1.0])
    for lag in [1] * d + [m] * D:
        factor = np.zeros(lag + 1)
        factor[[0, lag]] = 1.0, -1.0
        pi = np.convolve(pi, factor)
    return pi


def difference(values, d: int, D: int, m: int) -> np.ndarray:
    """pi(B) y at every point with a full lag window; empty when the series is shorter than pi."""
    pi = _differencing(d, D, m)
    y = np.asarray(values, dtype=float)
    if len(y) < len(pi):
        return np.empty(0)
    return np.convolve(y, pi, mode="valid")


def kpss_level(values) -> float:
    """KPSS statistic for level stationarity (Kwiatkowski et al. 1992).

    Squared partial sums of the demeaned series over n^2 times its long-run
    variance, Bartlett-weighted up to lag floor(3 sqrt(n) / 13). Large values
    reject stationarity; a constant series scores 0.
    """
    e = np.asarray(values, dtype=float)
    e = e - e.mean()
    n = len(e)
    lags = int(3.0 * math.sqrt(n) / 13.0)
    long_run = float(e @ e)
    for s in range(1, lags + 1):
        long_run += 2.0 * (1.0 - s / (lags + 1.0)) * float(e[s:] @ e[:-s])
    long_run /= n
    if long_run <= 0.0:
        return 0.0
    partial = np.cumsum(e)
    return float(partial @ partial) / (n * n * long_run)


def choose_d(values) -> int:
    """First differences, up to MAX_D, until the KPSS test no longer rejects at 5 %."""
    w = np.asarray(values, dtype=float)
    d = 0
    while d < MAX_D and kpss_level(w) > KPSS_CRITICAL_5PCT:
        w = np.diff(w)
        d += 1
    return d


def seasonal_strength(values, m: int) -> float:
    """1 - Var(remainder) / Var(seasonal + remainder), clipped to [0, 1].

    From a classical additive decomposition: a centred moving average of
    order m (2 x m for even m) is the trend, the per-phase mean of the
    detrended series, centred to sum to zero, the seasonal part (Wang, Smith
    & Hyndman 2006). Needs at least 2m points.
    """
    y = np.asarray(values, dtype=float)
    if m % 2 == 0:
        weights = np.concatenate([[0.5], np.ones(m - 1), [0.5]]) / m
    else:
        weights = np.ones(m) / m
    half = len(weights) // 2
    detrended = y[half : len(y) - half] - np.convolve(y, weights, mode="valid")
    phase = np.arange(half, len(y) - half) % m
    by_phase = np.bincount(phase, weights=detrended, minlength=m) / np.bincount(phase, minlength=m)
    seasonal = (by_phase - by_phase.mean())[phase]
    spread = float(np.var(detrended))
    if spread <= 0.0:
        return 0.0
    return float(np.clip(1.0 - np.var(detrended - seasonal) / spread, 0.0, 1.0))


def choose_D(values, m: int) -> int:
    """One seasonal difference when the series has 3 seasons and strong seasonality."""
    strong = len(values) >= 3 * m and seasonal_strength(values, m) > SEASONAL_STRENGTH_THRESHOLD
    return int(strong)


def _polys(order: ArimaOrder, params):
    """Combined AR and MA lag polynomials (seasonal x non-seasonal products).

    a = (1 - phi(L))(1 - Phi L^m) and b = (1 + theta(L))(1 + Theta L^m), with
    at most one seasonal term each. Since m > MAX_P >= p (and MAX_Q >= q),
    the terms of lags 1..p, m and m+1..m+p never share a lag, so every
    coefficient is one product, listed in lag order. The
    seasonal coefficients are added to 0.0, as accumulating them into a zeroed
    array would, so even the sign of a zero coefficient is that of the
    accumulated form. Called once per CSS evaluation with ``params`` a list
    of floats; a tuple or an array works as well.
    """
    p, q, P, Q, m = order.p, order.q, order.P, order.Q, order.m
    phi = params[:p]
    theta = params[p : p + q]
    a = [1.0, *[-v for v in phi]]
    if P:
        Phi = params[p + q]
        a += [0.0] * (m - p - 1)
        a.append(0.0 - Phi)
        a += [Phi * v + 0.0 for v in phi]
    b = [1.0, *theta]
    if Q:
        Theta = params[p + q + P]
        b += [0.0] * (m - q - 1)
        b.append(0.0 + Theta)
        b += [Theta * v + 0.0 for v in theta]
    return np.array(a), np.array(b)


def _inverse_filter(b, x):
    """u with b(B) u = x, where b[0] = 1: a unit lower-triangular banded solve.

    Column t of the band holds b, so row k is the k-th subdiagonal b[k]. The
    band is built Fortran-ordered, as LAPACK stores it, so it is passed
    without a copy. A band taller than the series is allowed. A non-invertible
    b overflows to non-finite values without a floating-point warning.
    """
    band = np.empty((len(b), len(x)), order="F")
    band[:] = b[:, None]
    u, info = dtbtrs(band, x, uplo="L", diag="U")
    if info != 0:
        raise RuntimeError(f"dtbtrs rejected argument {-info}")
    return u


def _css_residuals(wc, order: ArimaOrder, params):
    a, b = _polys(order, params)
    eps = np.convolve(wc, a)[: len(wc)]
    if len(b) > 1:
        eps = _inverse_filter(b, eps)
    return eps


def _conditioning_lags(order: ArimaOrder) -> int:
    return order.p + order.P * order.m


def css_of(wc, order: ArimaOrder, params) -> float:
    eps = _css_residuals(wc, order, params)
    tail = eps[_conditioning_lags(order) :]
    sse = float(tail @ tail)
    return sse if math.isfinite(sse) else math.inf


def _aicc(sse: float, n_eff: int, n_params: int, n_used: int) -> float:
    # The per-point variance sse/n_eff is scored over the n_used points of the
    # differenced series, as R's arima(method="CSS") does, so candidates that
    # condition on more lags stay comparable within one search.
    # +2: the subtracted mean and the residual variance both count.
    k = n_params + 2
    if n_eff <= k + 1 or sse < 0:
        return math.inf
    sse = max(sse, 1e-12)
    loglike_part = n_used * math.log(sse / n_eff)
    return loglike_part + 2 * k + (2 * k * (k + 1)) / (n_used - k - 1)


class _Differenced:
    """One differenced series, mean-centred, for the CSS fits of one (d, D)."""

    def __init__(self, w):
        self.mean = float(w.mean())
        self.centered = w - self.mean


def _css_jacobian(wc, order: ArimaOrder, params):
    """CSS residuals e = a(B)/b(B) wc on the scored points, and their Jacobian.

    With u = wc / b(B) and v = e / b(B), two banded triangular solves
    (``_inverse_filter``; not ``lfilter``, whose ``scipy.signal`` import
    costs every cold run about a second and ~75 MB of RSS),
    de/dphi_i = -B^i (1 - Phi B^m) u, de/dPhi = -B^m (1 - phi(B)) u,
    de/dtheta_j = -B^j (1 + Theta B^m) v and de/dTheta = -B^m (1 + theta(B)) v.
    The series are filtered behind ``pad`` leading zeros, so each column is a
    plain slice of one of these four, zero where its lag reaches before the
    first point.
    """
    p, q, P, Q, m = order.p, order.q, order.P, order.Q, order.m
    pad = max(q, Q * m)
    n = len(wc) + pad
    first = pad + _conditioning_lags(order)
    a, b = _polys(order, params)
    u = np.concatenate((np.zeros(pad), wc))
    if len(b) > 1:
        u = _inverse_filter(b, u)
    e = np.convolve(a, u)[:n]
    # one row per parameter, negated at the end
    rows = np.empty((order.n_params, n - first))
    if p or P:
        s = u
        if P:
            s = u.copy()
            s[m:] -= params[p + q] * u[:-m]
            rows[p + q] = np.convolve(u, a[: p + 1])[first - m : n - m]
        for i in range(1, p + 1):
            rows[i - 1] = s[first - i : n - i]
    if q or Q:
        v = _inverse_filter(b, e)
        h = v
        if Q:
            h = v.copy()
            h[m:] += params[p + q + P] * v[:-m]
            rows[p + q + P] = np.convolve(v, b[: q + 1])[first - m : n - m]
        for j in range(1, q + 1):
            rows[p + j - 1] = h[first - j : n - j]
    np.negative(rows, out=rows)
    return e[first:], rows.T


def _ar_least_squares(wc, p: int) -> np.ndarray:
    """Exact CSS minimizer of a pure AR(p): OLS of wc_t on its p lags."""
    n = len(wc)
    lagged = np.column_stack([wc[p - i : n - i] for i in range(1, p + 1)])
    return np.linalg.lstsq(lagged, wc[p:], rcond=None)[0]


def _fit_candidate(series: _Differenced, order: ArimaOrder, ftol: float, start=None):
    """CSS fit of one order on one differenced series; None when unfittable.

    A pure AR(p) is solved exactly. Every other order runs Levenberg–Marquardt
    to ``ftol`` from ``start`` when given, else from zero, as R's arima does.
    """
    wc = series.centered
    n_eff = len(wc) - _conditioning_lags(order)
    if n_eff <= order.n_params + 3:
        return None
    ndim = order.n_params
    converged = True
    # trial steps at a non-invertible b(B) overflow; their CSS is +inf and they are rejected
    with np.errstate(over="ignore", invalid="ignore"):
        if ndim == 0:
            params = np.empty(0)
            sse = css_of(wc, order, params)
        elif order.q == order.P == order.Q == 0:
            params = _ar_least_squares(wc, order.p)
            sse = css_of(wc, order, params)
        else:
            # _polys reads Python floats faster than numpy scalars
            def objective(x):
                return css_of(wc, order, x.tolist())

            def linearize(x):
                return _css_jacobian(wc, order, x.tolist())

            params = np.zeros(ndim) if start is None else np.array(start, dtype=float)
            sse = objective(params)
            exact = EXACT_FIT * float(wc @ wc)
            params, sse, _, converged = levenberg_marquardt(objective, linearize, params, sse, ftol, exact)
    if not math.isfinite(sse):
        return None
    return FittedArima(
        order,
        tuple(float(v) for v in params),
        series.mean,
        sse,
        n_eff,
        _aicc(sse, n_eff, ndim, len(wc)),
        converged=converged,
    )


def _make_order(p: int, d: int, q: int, P: int, D: int, Q: int, m: int) -> ArimaOrder:
    # a non-seasonal order carries m = 1 whichever search proposes it, so the
    # plain and the seasonal search share its cached fit
    return ArimaOrder(p, d, q, P, D, Q, m if P + D + Q else 1)


def _in_range(p: int, q: int, P: int, Q: int) -> bool:
    return 0 <= p <= MAX_P and 0 <= q <= MAX_Q and 0 <= P <= MAX_SEASONAL and 0 <= Q <= MAX_SEASONAL


def _search(values, m: int, seasonal: bool, cache: dict):
    """Stepwise Hyndman–Khandakar search at tested (d, D).

    Fits the starting orders, then moves to the first neighbour (SEARCH_MOVES
    order) whose AICc is lower, until no neighbour improves. Without
    ``seasonal`` the seasonal terms stay at zero. ``cache`` maps an order to
    its fit (None when unfittable) and may be shared by searches on the same
    values (see `fit_arima`). Returns the winner, or None when no candidate fits.
    """
    D = choose_D(values, m) if seasonal else 0
    d = choose_d(difference(values, 0, D, m))
    w = difference(values, d, D, m)

    series = _Differenced(w)

    def score(p, q, P, Q):
        order = _make_order(p, d, q, P, D, Q, m)
        if order not in cache:
            cache[order] = _fit_candidate(series, order, SEARCH_FTOL)
        fit = cache[order]
        return fit if fit is not None and math.isfinite(fit.aicc) else None

    starts = SEARCH_STARTS if seasonal else [(p, q, 0, 0) for p, q, _, _ in SEARCH_STARTS]
    best, best_terms = None, None
    for terms in starts:
        fit = score(*terms)
        if fit is not None and (best is None or fit.aicc < best.aicc):
            best, best_terms = fit, terms
    if best is None:
        return None
    moves = SEARCH_MOVES if seasonal else [mv for mv in SEARCH_MOVES if mv[2] == mv[3] == 0]
    improved = True
    while improved:
        improved = False
        for move in moves:
            terms = tuple(t + dt for t, dt in zip(best_terms, move))
            if not _in_range(*terms):
                continue
            fit = score(*terms)
            if fit is not None and fit.aicc < best.aicc:
                best, best_terms, improved = fit, terms, True
                break
    return best


def _refit(values, fit: FittedArima, cache: dict) -> FittedArima:
    """The search winner's fit continued to the refit tolerance, kept in cache under ("refit", order)."""
    key = ("refit", fit.order)
    if key not in cache:
        w = difference(values, fit.order.d, fit.order.D, fit.order.m)
        refit = _fit_candidate(_Differenced(w), fit.order, REFIT_FTOL, start=fit.params)
        cache[key] = refit if refit is not None else fit
    return cache[key]


_RANDOM_WALK = ArimaOrder(0, 1, 0)


def _random_walk_fit(values) -> FittedArima:
    w = difference(values, 1, 0, 1)
    mu = float(w.mean()) if len(w) else 0.0
    sse = float(np.sum((w - mu) ** 2))
    return FittedArima(_RANDOM_WALK, (), mu, sse, len(w), math.inf, fallback=True)


def fit_arima(
    train: SalesSeries, seasonal: bool = False, forced_order: ArimaOrder | None = None, cache: dict | None = None
) -> FittedArima:
    """Stepwise order search; falls back to a (0,1,0) random walk when nothing fits.

    cache holds the search's candidate fits by order and each winner's refit
    under ("refit", order). Searches on the same series may share one: an
    order both propose is fitted once, and a seasonal search that lands on
    the plain winner's order returns the plain winner's fit itself. Every fit
    is deterministic, so a cache changes no result. A forced order is fitted
    without searching and touches no cache.
    """
    values = train.values
    m = train.frequency.periods_per_year
    if forced_order is not None:
        w = difference(values, forced_order.d, forced_order.D, forced_order.m)
        fit = _fit_candidate(_Differenced(w), forced_order, REFIT_FTOL) if len(w) >= 4 else None
        return fit if fit is not None else _random_walk_fit(values)
    if seasonal:
        if len(values) < 3 * m:
            raise ValueError(f"seasonal fit needs at least {3 * m} points, got {len(values)}")
    elif len(values) < 10:
        raise ValueError(f"fit needs at least 10 points, got {len(values)}")
    cache = {} if cache is None else cache
    winner = _search(values, m, seasonal, cache)
    if winner is None:
        return _random_walk_fit(values)
    return _refit(values, winner, cache)


def fit_arima_pair(train: SalesSeries) -> tuple:
    """(fit_arima(train, False), fit_arima(train, True)) through one shared cache.

    The two-call composition that tests and the benchmark's tracer use; the
    pipeline's two ArimaForecasters share a cache the same way. The pair is
    one object twice when the seasonal search lands on the plain winner's order.
    """
    cache = {}
    return fit_arima(train, False, cache=cache), fit_arima(train, True, cache=cache)


def arima_forecast(fit: FittedArima, values, horizon: int) -> tuple:
    """The forecast path (``_arma_path``), and whether the random walk with drift replaced it.

    A path that overflows, as an explosive AR polynomial's can, is replaced
    by the random walk's.
    """
    values = np.asarray(values, dtype=float)
    # an explosive fit overflows here; its path is replaced below
    with np.errstate(over="ignore", invalid="ignore"):
        out = _arma_path(fit, values, horizon)
    substituted = not np.all(np.isfinite(out))
    if substituted:
        out = _arma_path(_random_walk_fit(values), values, horizon)
    return out, substituted


def _arma_path(fit: FittedArima, values: np.ndarray, horizon: int) -> np.ndarray:
    """The forecast path: the model's equations solved with the history fixed.

    The future of the centred differenced series w solves a(B) w = r, where r
    is b(B) e - a(B) w of the history continued by zeros; that of y solves
    pi(B) y = w + mean the same way.
    """
    order = fit.order
    future = np.zeros(horizon)
    w = difference(values, order.d, order.D, order.m) - fit.mean
    n = len(w)
    a, b = _polys(order, fit.params)
    eps = _css_residuals(w, order, fit.params) if n else w
    r = np.convolve(b, np.concatenate((eps, future)))[n : n + horizon]
    r -= np.convolve(a, np.concatenate((w, future)))[n : n + horizon]
    w_future = _inverse_filter(a, r) + fit.mean

    pi = _differencing(order.d, order.D, order.m)
    n = len(values)
    return _inverse_filter(pi, w_future - np.convolve(pi, np.concatenate((values, future)))[n : n + horizon])


class ArimaForecaster(BaseForecaster):
    """seasonal=False searches (p,d,q) only; True adds the (P,D,Q)[m] terms.

    cache is `fit_arima`'s, shared with the other variant fitted on the same
    series; the fit takes it, so a fitted forecaster holds none.
    """

    def __init__(self, seasonal: bool = False, forced_order: ArimaOrder | None = None, cache: dict | None = None):
        self.seasonal = seasonal
        self.forced_order = forced_order
        self.cache = cache

    @property
    def model_id(self) -> ModelId:
        return ModelId.SARIMA if self.seasonal else ModelId.ARIMA

    def _fit(self, series: SalesSeries) -> None:
        cache, self.cache = self.cache, None
        self.fit_ = fit_arima(series, self.seasonal, self.forced_order, cache)

    def _path(self, horizon: int) -> np.ndarray:
        path, substituted = arima_forecast(self.fit_, self.train_.values, horizon)
        if substituted:
            # the forecast is the random walk's, so the fit reports a fallback
            self.fit_ = replace(self.fit_, fallback=True)
        return path
