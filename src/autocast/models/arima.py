"""ARIMA and seasonal ARIMA with Hyndman–Khandakar order selection.

Order selection follows Hyndman & Khandakar (2008), "Automatic time series
forecasting: the forecast package for R". The differencing orders are fixed
by tests before any model is fit: D = 1 when the seasonal strength of a
classical decomposition exceeds 0.64 (Wang, Smith & Hyndman 2006), then d by
repeated KPSS level tests (Kwiatkowski et al. 1992) on the seasonally
differenced series. At that (d, D) a stepwise search over (p, q, P, Q) moves
to the first neighbour that lowers AICc until none does, so every candidate
of one search is scored on the same differenced series.

Each candidate is fit by Nelder-Mead on the CSS of the differenced,
mean-centered series (zero-initialized coefficients) with a skimpy budget;
the winner is refit generously.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from ..series import ForecastResult, SalesSeries
from .base import BaseForecaster, ModelId
from .optim import nelder_mead

MAX_P = 3
MAX_D = 2
MAX_Q = 3
MAX_SEASONAL = 1

# Skimpy budget for ranking candidates; the winner is refit generously.
SEARCH_MAXFEV_BASE = 30
SEARCH_MAXFEV_PER_DIM = 20
REFIT_MAXFEV_PER_DIM = 200

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

    def label(self) -> str:
        base = f"({self.p},{self.d},{self.q})"
        if self.is_seasonal:
            return f"{base}({self.P},{self.D},{self.Q})[{self.m}]"
        return base


@dataclass(frozen=True)
class FittedArima:
    order: ArimaOrder
    params: tuple          # phi..., theta..., Phi..., Theta...
    mean: float            # sample mean of the differenced series
    sse: float
    n_eff: int
    aicc: float
    fallback: bool = False


def difference(values, d: int, D: int, m: int) -> np.ndarray:
    w = np.asarray(values, dtype=float)
    for _ in range(d):
        w = np.diff(w)
    for _ in range(D):
        if len(w) <= m:
            return np.empty(0)
        w = w[m:] - w[:-m]
    return w


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
    coefficient is one product, written in place by slice assignment. The
    seasonal coefficients are added to 0.0, as accumulating them into a zeroed
    array would, so even the sign of a zero coefficient is that of the
    accumulated form. Called once per CSS evaluation with ``params`` a list
    of floats; a tuple or an array works as well.
    """
    p, q, P, Q, m = order.p, order.q, order.P, order.Q, order.m
    phi = params[:p]
    theta = params[p : p + q]
    a = np.empty(p + P * m + 1)
    a[0] = 1.0
    a[1 : p + 1] = [-v for v in phi]
    if P:
        Phi = params[p + q]
        a[p + 1 : m] = 0.0
        a[m] = 0.0 - Phi
        a[m + 1 :] = [Phi * v + 0.0 for v in phi]
    b = np.empty(q + Q * m + 1)
    b[0] = 1.0
    b[1 : q + 1] = theta
    if Q:
        Theta = params[p + q + P]
        b[q + 1 : m] = 0.0
        b[m] = 0.0 + Theta
        b[m + 1 :] = [Theta * v + 0.0 for v in theta]
    return a, b


def _css_residuals(wc, order: ArimaOrder, params):
    a, b = _polys(order, params)
    if len(b) == 1:
        # pure AR: the inverse filter is a finite convolution
        eps = np.convolve(wc, a)[: len(wc)]
    else:
        eps = lfilter(a, b, wc)
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


def _fit_candidate(wc, order: ArimaOrder, generous: bool):
    n_eff = len(wc) - _conditioning_lags(order)
    if n_eff <= order.n_params + 3:
        return None
    mu = float(wc.mean())
    centered = wc - mu
    ndim = order.n_params
    if ndim == 0:
        sse = css_of(centered, order, np.empty(0))
        if not math.isfinite(sse):
            return None
        return FittedArima(order, (), mu, sse, n_eff, _aicc(sse, n_eff, 0, len(wc)))

    def objective(params):
        return css_of(centered, order, params)

    if generous:
        maxfev, xatol = REFIT_MAXFEV_PER_DIM * ndim, 1e-6
    else:
        maxfev, xatol = SEARCH_MAXFEV_BASE + SEARCH_MAXFEV_PER_DIM * ndim, 1e-3
    params, sse, _ = nelder_mead(objective, np.zeros(ndim), maxfev=maxfev, xatol=xatol)
    if not math.isfinite(sse):
        return None
    return FittedArima(
        order,
        tuple(float(v) for v in params),
        mu,
        sse,
        n_eff,
        _aicc(sse, n_eff, ndim, len(wc)),
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
    values. Returns the winner, or None when no candidate fits.
    """
    D = choose_D(values, m) if seasonal else 0
    d = choose_d(difference(values, 0, D, m))
    w = difference(values, d, D, m)

    def score(p, q, P, Q):
        order = _make_order(p, d, q, P, D, Q, m)
        if order not in cache:
            cache[order] = _fit_candidate(w, order, generous=False)
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


def _refit(values, fit: FittedArima) -> FittedArima:
    w = difference(values, fit.order.d, fit.order.D, fit.order.m)
    refit = _fit_candidate(w, fit.order, generous=True)
    return refit if refit is not None else fit


_RANDOM_WALK = ArimaOrder(0, 1, 0)


def _random_walk_fit(values) -> FittedArima:
    w = difference(values, 1, 0, 1)
    mu = float(w.mean()) if len(w) else 0.0
    sse = float(np.sum((w - mu) ** 2))
    return FittedArima(_RANDOM_WALK, (), mu, sse, len(w), math.inf, fallback=True)


def fit_arima(train: SalesSeries, seasonal: bool = False, forced_order: ArimaOrder | None = None) -> FittedArima:
    """Stepwise order search; falls back to a (0,1,0) random walk when nothing fits."""
    values = train.values
    m = train.frequency.periods_per_year
    if forced_order is not None:
        w = difference(values, forced_order.d, forced_order.D, forced_order.m)
        fit = _fit_candidate(w, forced_order, generous=True) if len(w) >= 4 else None
        return fit if fit is not None else _random_walk_fit(values)
    if seasonal:
        if len(values) < 3 * m:
            raise ValueError(f"seasonal fit needs at least {3 * m} points, got {len(values)}")
    elif len(values) < 10:
        raise ValueError(f"fit needs at least 10 points, got {len(values)}")
    winner = _search(values, m, seasonal, {})
    if winner is None:
        return _random_walk_fit(values)
    return _refit(values, winner)


def fit_arima_pair(train: SalesSeries) -> tuple:
    """Both model variants from one set of cached candidate fits.

    Returns (non-seasonal winner, seasonal winner); either may be the
    random-walk fallback, and the pair is (plain, plain) when the seasonal
    search lands on the plain winner's order. The series must be long
    enough for the seasonal precondition; callers enforce their own
    preconditions.
    """
    values = train.values
    m = train.frequency.periods_per_year
    cache = {}
    best_plain = _search(values, m, False, cache)
    best_seasonal = _search(values, m, True, cache)
    plain = _refit(values, best_plain) if best_plain is not None else _random_walk_fit(values)
    if best_seasonal is None:
        return plain, _random_walk_fit(values)
    if best_seasonal.order == plain.order:
        return plain, plain
    return plain, _refit(values, best_seasonal)


def arima_forecast(fit: FittedArima, values, horizon: int) -> np.ndarray:
    """Recursive ARMA forecast on the differenced scale, then undifferencing."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    values = np.asarray(values, dtype=float)
    order = fit.order
    w = difference(values, order.d, order.D, order.m)
    wc = w - fit.mean
    a, b = _polys(order, fit.params)
    eps = _css_residuals(wc, order, fit.params) if len(wc) else np.empty(0)

    n = len(wc)
    wc_ext = np.concatenate([wc, np.zeros(horizon)])
    eps_ext = np.concatenate([eps, np.zeros(horizon)])
    for h in range(1, horizon + 1):
        t = n + h - 1
        acc = 0.0
        for j in range(1, len(a)):
            if t - j >= 0:
                acc -= a[j] * wc_ext[t - j]
        for j in range(max(h, 1), len(b)):
            if t - j >= 0:
                acc += b[j] * eps_ext[t - j]
        wc_ext[t] = acc
    w_future = wc_ext[n:] + fit.mean

    # invert the differencing: y_t = w_t - sum_{j>=1} pi_j y_{t-j}
    pi = np.array([1.0])
    for _ in range(order.d):
        pi = np.convolve(pi, [1.0, -1.0])
    seasonal_poly = np.zeros(order.m + 1)
    seasonal_poly[0] = 1.0
    seasonal_poly[-1] = -1.0
    for _ in range(order.D):
        pi = np.convolve(pi, seasonal_poly)
    if len(pi) == 1:
        out = w_future
    else:
        hist = list(values)
        out = np.empty(horizon)
        for h in range(horizon):
            y = w_future[h]
            for j in range(1, len(pi)):
                if len(hist) - j >= 0:
                    y -= pi[j] * hist[len(hist) - j]
            out[h] = y
            hist.append(y)
    if not np.all(np.isfinite(out)):
        rw = _random_walk_fit(values)
        drift = rw.mean
        out = values[-1] + drift * np.arange(1, horizon + 1)
    return np.maximum(out, 0.0)


class ArimaForecaster(BaseForecaster):
    """seasonal=False searches (p,d,q) only; True adds the (P,D,Q)[m] terms."""

    def __init__(self, seasonal: bool = False, forced_order: ArimaOrder | None = None):
        self.seasonal = seasonal
        self.forced_order = forced_order

    @property
    def model_id(self) -> ModelId:
        return ModelId.SARIMA if self.seasonal else ModelId.ARIMA

    def fit(self, series: SalesSeries) -> "ArimaForecaster":
        self.train_ = series
        self.fit_ = fit_arima(series, seasonal=self.seasonal, forced_order=self.forced_order)
        return self

    def forecast(self, horizon: int) -> ForecastResult:
        self._check_fitted()
        return self._result(arima_forecast(self.fit_, self.train_.values, horizon))
