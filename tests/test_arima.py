import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

import autocast.models.arima as arima_module
from autocast.models import optim
from autocast.models.arima import (
    ArimaForecaster,
    ArimaOrder,
    FittedArima,
    arima_forecast,
    fit_arima,
    fit_arima_pair,
    MAX_D,
    MAX_P,
    MAX_Q,
    MAX_SEASONAL,
    REFIT_FTOL,
    SEARCH_FTOL,
    SEASONAL_STRENGTH_THRESHOLD,
    _conditioning_lags,
    _css_jacobian,
    _css_residuals,
    _Differenced,
    _fit_candidate,
    _inverse_filter,
    _polys,
    _search,
    choose_d,
    css_of,
    difference,
    kpss_level,
    seasonal_strength,
)
from autocast.models.optim import nelder_mead
from autocast.pipeline import _is_fallback

from helpers import in_range_orders, monthly_series, seasonal_values, weekly_series
from oracles import (
    arima_path_recursion,
    difference_by_diffs,
    kpss_level_statistic,
    lag_polynomials_accumulated,
)


def simulate_ar1(phi, n, seed, burn=100):
    """AR(1) with unit-variance shocks, shifted positive for the sales domain."""
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, 1.0, n + burn)
    x = np.zeros(n + burn)
    for t in range(1, n + burn):
        x[t] = phi * x[t - 1] + eps[t]
    y = x[burn:]
    return y - y.min() + 1.0


class TestArimaOrder:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            ArimaOrder(4, 0, 0)
        with pytest.raises(ValueError):
            ArimaOrder(0, 3, 0)
        with pytest.raises(ValueError):
            ArimaOrder(0, 0, 4)
        with pytest.raises(ValueError):
            ArimaOrder(0, 0, 0, P=2, m=12)

    def test_seasonal_needs_period(self):
        with pytest.raises(ValueError):
            ArimaOrder(1, 0, 0, P=1, m=1)
        with pytest.raises(ValueError):  # seasonal lags must lie beyond the plain ones
            ArimaOrder(1, 0, 0, P=1, m=MAX_P)

    def test_param_count(self):
        assert ArimaOrder(2, 1, 1, 1, 0, 1, 12).n_params == 5
        assert ArimaOrder(0, 2, 0).n_params == 0

    def test_seasonal_flag(self):
        assert not ArimaOrder(3, 2, 3).is_seasonal
        assert ArimaOrder(0, 0, 0, D=1, m=12).is_seasonal


class TestLagPolynomials:
    """Slice-assigned polynomials against the zeroed-array accumulation, bit for bit."""

    @pytest.mark.parametrize("m", [4, 12, 52])
    def test_every_order_matches_accumulation(self, m):
        rng = np.random.default_rng(m)
        for order in in_range_orders(m):
            k = order.n_params
            # exact and negative zeros exercise the sign a zero coefficient gets
            mixed = np.where(rng.random(k) < 0.5, -0.0, rng.normal(size=k))
            for params in (np.zeros(k), -np.zeros(k), rng.normal(size=k), mixed):
                a_ref, b_ref = lag_polynomials_accumulated(order, params)
                for given in (params.tolist(), tuple(params), params):
                    a, b = _polys(order, given)
                    assert a.tobytes() == a_ref.tobytes() and b.tobytes() == b_ref.tobytes()


class TestInverseFilter:
    """The banded triangular solve against scipy.signal.lfilter as the oracle."""

    @staticmethod
    def assert_matches_lfilter(b, x):
        given = x.copy()
        u = _inverse_filter(b, x)
        expected = lfilter([1.0], b, x)
        assert u.shape == x.shape and np.array_equal(x, given)
        assert np.max(np.abs(u - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("m", [12, 52])
    def test_every_ma_band_matches_lfilter(self, m):
        rng = np.random.default_rng(m)
        for q in range(MAX_Q + 1):
            for Q in range(MAX_SEASONAL + 1):
                order = ArimaOrder(0, 0, q, 0, 0, Q, m if Q else 1)
                # |theta| summing below 1 and |Theta| < 1 keep b(B) invertible
                params = [*rng.uniform(-0.3, 0.3, q), *rng.uniform(-0.9, 0.9, Q)]
                _, b = _polys(order, params)
                for n in (4 * m, 20, 1):
                    # at n = 20 the seasonal band is taller than the series
                    self.assert_matches_lfilter(b, rng.normal(size=n))

    def test_non_invertible_band_overflows_without_warnings(self):
        x = np.random.default_rng(0).normal(size=1500)
        order = ArimaOrder(0, 0, 1)
        _, b = _polys(order, [3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = _inverse_filter(b, x)
        assert not np.all(np.isfinite(u))
        # the fits score such steps under this errstate and reject them
        with np.errstate(over="ignore", invalid="ignore"):
            assert css_of(x, order, [3.0]) == math.inf


class TestDifference:
    def test_first_difference(self):
        assert list(difference([1.0, 4.0, 9.0], 1, 0, 1)) == [3.0, 5.0]

    def test_second_difference(self):
        assert list(difference([1.0, 4.0, 9.0, 16.0], 2, 0, 1)) == [2.0, 2.0]

    def test_seasonal_difference(self):
        y = np.arange(24, dtype=float)
        assert np.allclose(difference(y, 0, 1, 12), 12.0)

    def test_seasonal_difference_on_short_series_is_empty(self):
        assert len(difference(np.arange(10.0), 0, 1, 12)) == 0

    def test_removes_linear_trend(self):
        y = 5.0 + 3.0 * np.arange(30)
        assert np.allclose(difference(y, 1, 0, 1), 3.0)

    @pytest.mark.parametrize("m", [4, 12, 52])
    def test_convolution_matches_repeated_diffs(self, m):
        rng = np.random.default_rng(m)
        for n in (1, m, m + 1, m + 3, 4 * m):
            y = 100.0 + rng.normal(scale=20.0, size=n)
            for d in range(3):
                for D in range(2):
                    got, expected = difference(y, d, D, m), difference_by_diffs(y, d, D, m)
                    assert got.shape == expected.shape
                    if d == 1 and D == 0:
                        assert np.array_equal(got, expected)
                    elif len(expected):
                        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(y))


class TestFitArima:
    def test_ar1_recovery(self):
        y = simulate_ar1(0.8, 200, seed=0)
        fit = fit_arima(monthly_series(y), forced_order=ArimaOrder(1, 0, 0))
        assert fit.params[0] == pytest.approx(0.8, abs=0.1)
        assert not fit.fallback

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_white_noise_selects_tiny_order(self, seed):
        rng = np.random.default_rng(seed)
        y = np.maximum(rng.normal(100.0, 5.0, 60), 0)
        fit = fit_arima(monthly_series(y), seasonal=False)
        assert fit.order.p + fit.order.q <= 1
        assert fit.order.d == 0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_white_noise_forecast_near_sample_mean(self, seed):
        rng = np.random.default_rng(seed)
        y = np.maximum(rng.normal(100.0, 5.0, 60), 0)
        fit = fit_arima(monthly_series(y), seasonal=False)
        forecast, _ = arima_forecast(fit, y, 12)
        assert forecast.mean() == pytest.approx(y.mean(), rel=0.05)

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_linear_trend_selects_differencing(self, seed):
        rng = np.random.default_rng(seed)
        y = 10.0 + 2.0 * np.arange(60) + rng.normal(0.0, 0.5, 60)
        fit = fit_arima(monthly_series(y), seasonal=False)
        assert fit.order.d >= 1

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="10"):
            fit_arima(monthly_series(np.arange(9.0) + 1), seasonal=False)
        with pytest.raises(ValueError, match="36"):
            fit_arima(monthly_series(np.arange(30.0) + 1), seasonal=True)

    def test_forced_order_skips_preconditions_and_search(self):
        # 12 points is below the plain-search minimum but enough to fit a
        # forced AR(1) directly
        y = simulate_ar1(0.5, 12, seed=3)
        fit = fit_arima(monthly_series(y), forced_order=ArimaOrder(1, 0, 0))
        assert fit.order == ArimaOrder(1, 0, 0)

    def test_exact_fit_of_a_ramp_stops_as_converged(self, monkeypatch):
        # the CSS of a forced ARMA(3, 3) on y = t tends to 0, where every step
        # still gains a steady share of it: only the exact-fit floor ends the fit
        jacobians = []
        linearize = arima_module._css_jacobian
        monkeypatch.setattr(arima_module, "_css_jacobian", lambda *a: jacobians.append(1) or linearize(*a))
        y = np.arange(48.0)
        fit = fit_arima(monthly_series(y), forced_order=ArimaOrder(3, 0, 3))
        wc = y - y.mean()
        assert fit.converged and not fit.fallback
        assert fit.sse <= arima_module.EXACT_FIT * float(wc @ wc)
        assert len(jacobians) < optim.MAX_JACOBIANS // 2

    def test_unfittable_forced_order_falls_back_to_random_walk(self):
        fit = fit_arima(
            monthly_series([1.0, 2.0, 3.0, 4.0, 5.0]), forced_order=ArimaOrder(0, 2, 0)
        )
        assert fit.fallback
        assert (fit.order.p, fit.order.d, fit.order.q) == (0, 1, 0)

    def test_random_walk_fallback_forecasts_with_drift(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        fit = fit_arima(monthly_series(values), forced_order=ArimaOrder(0, 2, 0))
        assert list(arima_forecast(fit, values, 3)[0]) == [6.0, 7.0, 8.0]


class TestFitArimaPair:
    def test_one_grid_pass_serves_both_variants(self):
        t = np.arange(48)
        y = np.maximum(
            100.0 + 30.0 * np.sin(2 * np.pi * t / 12) + np.random.default_rng(3).normal(0, 2, 48),
            0,
        )
        plain, seasonal = fit_arima_pair(monthly_series(y))
        assert not plain.order.is_seasonal
        assert seasonal.order.is_seasonal  # strong seasonality is detected
        assert seasonal.order.m == 12

    def test_plain_series_can_share_the_winner(self):
        rng = np.random.default_rng(11)
        y = np.maximum(rng.normal(100.0, 5.0, 48), 0)
        plain, seasonal = fit_arima_pair(monthly_series(y))
        # both are valid fits on the same data
        assert np.isfinite(plain.sse) and np.isfinite(seasonal.sse)

    @pytest.mark.parametrize(
        "y",
        [
            seasonal_values(48, amplitude=30.0, noise=2.0, seed=3),
            np.maximum(np.random.default_rng(11).normal(100.0, 5.0, 48), 0),
            np.maximum(np.random.default_rng(7).normal(100.0, 5.0, 48), 0),
        ],
    )
    def test_pair_is_the_two_single_fits(self, y):
        # seed 7's seasonal search lands on a plain order other than the plain winner's
        series = monthly_series(y)
        assert fit_arima_pair(series) == (fit_arima(series, False), fit_arima(series, True))

    def test_seasonal_search_on_the_plain_winner_returns_its_fit(self):
        y = np.maximum(np.random.default_rng(1).normal(100.0, 5.0, 48), 0)
        plain, seasonal = fit_arima_pair(monthly_series(y))
        assert not seasonal.order.is_seasonal
        assert seasonal is plain


class TestDifferencingTests:
    @pytest.mark.parametrize("n", [10, 13, 40, 84, 200])
    def test_kpss_matches_oracle(self, n):
        rng = np.random.default_rng(n)
        for y in (rng.normal(0.0, 1.0, n), np.cumsum(rng.normal(0.5, 1.0, n))):
            expected = kpss_level_statistic(list(y))
            assert kpss_level(y) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_kpss_of_constant_series_is_zero(self):
        assert kpss_level(np.full(30, 7.0)) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_choose_d_counts_unit_roots(self, seed):
        rng = np.random.default_rng(seed)
        noise = rng.normal(0.0, 1.0, 150)
        assert choose_d(noise) == 0
        assert choose_d(np.cumsum(noise)) == 1
        assert choose_d(np.cumsum(np.cumsum(noise))) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seasonal_strength_separates_sine_from_noise(self, seed):
        sine = seasonal_values(72, amplitude=20.0, noise=5.0, seed=seed)
        noise = np.random.default_rng(seed).normal(100.0, 5.0, 72)
        assert seasonal_strength(sine, 12) > SEASONAL_STRENGTH_THRESHOLD
        assert seasonal_strength(noise, 12) < SEASONAL_STRENGTH_THRESHOLD


class TestStepwiseSearch:
    @staticmethod
    def neighbours(order, seasonal):
        """Every in-range order one Hyndman-Khandakar move away from ``order``."""
        moves = [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]
        if seasonal:
            moves += [(0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)]
        for move in moves:
            for sign in (1, -1):
                p, q, P, Q = (
                    t + sign * dt for t, dt in zip((order.p, order.q, order.P, order.Q), move)
                )
                if 0 <= p <= MAX_P and 0 <= q <= MAX_Q and 0 <= P <= MAX_SEASONAL and 0 <= Q <= MAX_SEASONAL:
                    yield ArimaOrder(p, order.d, q, P, order.D, Q, 12 if P + order.D + Q else 1)

    @pytest.mark.parametrize("seasonal", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_winner_is_a_local_aicc_minimum(self, seed, seasonal):
        y = seasonal_values(72, amplitude=15.0, slope=0.5, noise=4.0, seed=seed)
        winner = _search(y, 12, seasonal, {})
        series = _Differenced(difference(y, winner.order.d, winner.order.D, 12))
        neighbours = list(self.neighbours(winner.order, seasonal))
        assert neighbours
        for order in neighbours:
            fit = _fit_candidate(series, order, SEARCH_FTOL)
            assert fit is None or fit.aicc >= winner.aicc, order

    def test_pair_fits_few_orders_once_each(self, monkeypatch):
        searched = []

        def counting_fit(series, order, ftol, start=None):
            if ftol == SEARCH_FTOL:
                searched.append(order)
            return _fit_candidate(series, order, ftol, start)

        monkeypatch.setattr(arima_module, "_fit_candidate", counting_fit)
        y = seasonal_values(84, amplitude=25.0, slope=1.0, noise=5.0, seed=5)
        fit_arima_pair(monthly_series(y))
        assert len(set(searched)) == len(searched)
        assert 4 <= len(searched) <= 40


class TestArimaForecast:
    def test_ar1_forecast_decays_toward_level(self):
        y = simulate_ar1(0.8, 200, seed=1)
        fit = fit_arima(monthly_series(y), forced_order=ArimaOrder(1, 0, 0))
        forecast, _ = arima_forecast(fit, y, 30)
        level = fit.mean
        gaps = np.abs(forecast - level)
        assert gaps[-1] <= gaps[0] + 1e-9  # geometric pull toward the mean


class TestForecastAgainstRecursion:
    """The banded-solve forecast against the step-by-step recursion, to 1e-10 of its scale."""

    @staticmethod
    def assert_matches_recursion(order, params, y, horizons):
        w = difference(y, order.d, order.D, order.m)
        fit = FittedArima(order, tuple(params), float(w.mean()), 1.0, len(w), 0.0)
        for horizon in horizons:
            expected = arima_path_recursion(order, params, fit.mean, y, horizon)
            assert np.all(np.isfinite(expected))
            got, substituted = arima_forecast(fit, y, horizon)
            assert got.shape == (horizon,) and not substituted
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= 1e-10 * scale

    @pytest.mark.parametrize("m", [4, 12, 52])
    def test_every_order_and_differencing(self, m):
        rng = np.random.default_rng(m)
        y = seasonal_values(3 * m + 10, amplitude=25.0, slope=1.0, noise=5.0, seed=m, m=m)
        for plain in [ArimaOrder(0, 0, 0), *in_range_orders(m)]:
            for d in range(MAX_D + 1):
                for D in range(MAX_SEASONAL + 1):
                    seasonal = plain.P + plain.Q + D
                    order = replace(plain, d=d, D=D, m=m if seasonal else 1)
                    # |coefficients| summing below 1 keep a(B) stationary and b(B) invertible
                    params = rng.uniform(-0.25, 0.25, order.n_params)
                    self.assert_matches_recursion(order, params, y, (1, m, 2 * m + 3))

    @pytest.mark.parametrize(
        "order, params",
        [
            (ArimaOrder(1, 0, 0), [0.97]),
            (ArimaOrder(2, 1, 0), [1.2, -0.3]),
            (ArimaOrder(3, 0, 0, 1, 1, 0, 12), [0.5, 0.2, -0.1, 0.8]),
            (ArimaOrder(0, 0, 1), [0.9]),
            (ArimaOrder(0, 2, 3), [0.6, -0.3, 0.2]),
            (ArimaOrder(0, 1, 2, 0, 1, 1, 12), [-0.4, 0.3, -0.7]),
        ],
    )
    def test_pure_ar_and_pure_ma(self, order, params):
        y = seasonal_values(60, amplitude=25.0, slope=1.0, noise=5.0, seed=3)
        self.assert_matches_recursion(order, params, y, (1, 12, 27))


class TestArimaForecasterAdapter:
    def test_model_id_tracks_seasonal_flag(self):
        assert ArimaForecaster().model_id.value == "arima"
        assert ArimaForecaster(seasonal=True).model_id.value == "sarima"

    def test_fit_forecast_roundtrip(self):
        y = simulate_ar1(0.6, 60, seed=7)
        series = monthly_series(y)
        model = ArimaForecaster().fit(series)
        result = model.forecast(12)
        assert result.model_id == "arima"
        assert result.start == series.end + 1
        assert result.horizon == 12
        assert np.array_equal(result.values, np.maximum(arima_forecast(model.fit_, y, 12)[0], 0.0))

    def test_deterministic(self):
        y = simulate_ar1(0.6, 60, seed=8)
        series = monthly_series(y)
        a = ArimaForecaster().fit(series).forecast(12)
        b = ArimaForecaster().fit(series).forecast(12)
        assert np.array_equal(a.values, b.values)


def simulate_arma(order, params, n, seed, burn=300):
    """y = b(B)/a(B) e for unit-variance Gaussian e, the lag polynomials built by convolution."""
    p, q, P, Q, m = order.p, order.q, order.P, order.Q, order.m
    params = list(params)
    a = np.concatenate([[1.0], [-v for v in params[:p]]])
    b = np.concatenate([[1.0], params[p : p + q]])
    if P:
        a = np.convolve(a, np.concatenate([[1.0], np.zeros(m - 1), [-params[p + q]]]))
    if Q:
        b = np.convolve(b, np.concatenate([[1.0], np.zeros(m - 1), [params[p + q + P]]]))
    e = np.random.default_rng(seed).normal(0.0, 1.0, n + burn)
    return lfilter(b, a, e)[burn:]


class TestCssSolver:
    """The Levenberg–Marquardt CSS fits: derivatives, exact AR, convergence, overflow."""

    @pytest.mark.parametrize("m", [4, 12, 52])
    def test_jacobian_matches_central_differences(self, m):
        rng = np.random.default_rng(m)
        wc = np.convolve(rng.normal(size=3 * m + 40), [1.0, 0.5, -0.3])[: 3 * m + 40]
        for order in in_range_orders(m):
            x = rng.normal(0.0, 0.3, order.n_params)
            residuals, jacobian = _css_jacobian(wc, order, x.tolist())
            first = _conditioning_lags(order)
            assert np.allclose(residuals, _css_residuals(wc, order, x)[first:], rtol=1e-12, atol=1e-12)
            numeric = np.empty_like(jacobian)
            for i in range(order.n_params):
                h = 1e-6 * max(1.0, abs(x[i]))
                up, down = x.copy(), x.copy()
                up[i] += h
                down[i] -= h
                numeric[:, i] = (_css_residuals(wc, order, up)[first:] - _css_residuals(wc, order, down)[first:]) / (2 * h)
            assert np.max(np.abs(jacobian - numeric)) <= 1e-6 * np.max(np.abs(jacobian)), order

    def test_search_and_forced_order_fits_start_at_zero(self, monkeypatch):
        starts = []

        def recording_lm(objective, linearize, x0, f0, ftol, fmin=0.0):
            starts.append(np.array(x0, dtype=float))
            return optim.levenberg_marquardt(objective, linearize, x0, f0, ftol, fmin)

        monkeypatch.setattr(arima_module, "levenberg_marquardt", recording_lm)
        y = seasonal_values(84, amplitude=25.0, slope=1.0, noise=5.0, seed=5)
        cache = {}
        _search(y, 12, False, cache)
        _search(y, 12, True, cache)
        searched = len(starts)
        fit_arima(monthly_series(y), forced_order=ArimaOrder(1, 1, 1, 0, 1, 1, 12))
        assert searched >= 4 and len(starts) == searched + 1
        assert all(not np.any(x0) for x0 in starts)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_pure_ar_is_least_squares(self, p):
        y = 50.0 + simulate_arma(ArimaOrder(p, 0, 0), [0.5, -0.2, 0.1][:p], 120, seed=p)
        wc = y - y.mean()
        lagged = np.column_stack([wc[p - i : len(wc) - i] for i in range(1, p + 1)])
        expected = np.linalg.lstsq(lagged, wc[p:], rcond=None)[0]
        fit = fit_arima(monthly_series(y), forced_order=ArimaOrder(p, 0, 0))
        assert fit.converged
        assert np.allclose(fit.params, expected, rtol=1e-10, atol=1e-10)
        assert fit.sse == pytest.approx(css_of(wc, fit.order, expected), rel=1e-12)

    @pytest.mark.parametrize(
        "order, truth",
        [
            (ArimaOrder(1, 0, 1), (0.6, 0.3)),
            (ArimaOrder(2, 0, 1), (0.5, -0.3, 0.4)),
            (ArimaOrder(1, 0, 1, 1, 0, 1, 12), (0.5, 0.3, 0.6, -0.4)),
            (ArimaOrder(0, 0, 1), (-0.7,)),
            (ArimaOrder(0, 0, 1, 0, 0, 1, 12), (0.4, -0.5)),
        ],
    )
    def test_refit_converges_near_truth_below_nelder_mead(self, order, truth):
        y = 100.0 + simulate_arma(order, truth, 1200, seed=order.n_params)
        fit = fit_arima(monthly_series(y), forced_order=order)
        assert fit.converged and not fit.fallback
        # sampling error: up to ~0.1 over eight seeds, seasonal terms seeing 100 years
        assert np.allclose(fit.params, truth, atol=0.15)
        wc = y - y.mean()
        k = order.n_params
        _, nm_sse, _ = nelder_mead(lambda x: css_of(wc, order, x), np.zeros(k), maxfev=200 * k, xatol=1e-6)
        assert fit.sse <= nm_sse * (1.0 + 1e-9)

    def test_every_search_fit_converges(self):
        y = seasonal_values(84, amplitude=25.0, slope=1.0, noise=5.0, seed=5)
        cache = {}
        _search(y, 12, False, cache)
        _search(y, 12, True, cache)
        fits = [fit for fit in cache.values() if fit is not None]
        assert fits and all(fit.converged for fit in fits)

    def test_validation_refit_continues_from_the_search_iterate(self, monkeypatch):
        starts = []

        def recording_fit(series, order, ftol, start=None):
            if ftol == REFIT_FTOL:
                starts.append(start)
            return _fit_candidate(series, order, ftol, start)

        monkeypatch.setattr(arima_module, "_fit_candidate", recording_fit)
        y = seasonal_values(84, amplitude=25.0, slope=1.0, noise=5.0, seed=5)
        winner = _search(y, 12, False, {})
        refit = fit_arima(monthly_series(y), seasonal=False)
        assert starts and starts[-1] == winner.params
        assert refit.order == winner.order and refit.sse <= winner.sse and refit.converged

    def test_overflowing_trial_steps_are_rejected_without_warnings(self, monkeypatch):
        # an MA(1) near the invertibility boundary: from 0.5 the first Gauss-Newton
        # step lands beyond it, where 1/b(B) overflows over 1500 points
        e = np.random.default_rng(0).normal(size=1501)
        w = e[1:] + 0.95 * e[:-1]
        overflowed = []

        def recording_css(wc, order, params):
            sse = css_of(wc, order, params)
            overflowed.append(math.isinf(sse))
            return sse

        monkeypatch.setattr(arima_module, "css_of", recording_css)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = _fit_candidate(_Differenced(w), ArimaOrder(0, 0, 1), REFIT_FTOL, start=(0.5,))
        assert any(overflowed)
        assert fit.converged and fit.params[0] == pytest.approx(0.95, abs=0.03)

    def test_weekly_search_and_forced_seasonal_order(self):
        y = seasonal_values(156, m=52, amplitude=30.0, slope=0.2, noise=5.0, seed=2)
        series = weekly_series(y)
        plain, seasonal = fit_arima_pair(series)
        assert seasonal.order.is_seasonal and seasonal.order.m == 52
        forced = fit_arima(series, forced_order=ArimaOrder(1, 0, 1, 0, 1, 1, 52))
        for fit in (plain, seasonal, forced):
            assert fit.converged and not fit.fallback
            assert math.isfinite(fit.sse) and np.all(np.isfinite(fit.params))
            forecast, _ = arima_forecast(fit, y, 52)
            assert len(forecast) == 52
            assert np.all(np.isfinite(forecast)) and np.all(forecast >= 0)


class TestForecastFallback:
    def test_overflowing_path_is_a_flagged_random_walk(self):
        y = simulate_ar1(0.5, 40, seed=5)
        explosive = FittedArima(ArimaOrder(1, 0, 0), (1e200,), float(y.mean()), 1.0, 39, 0.0)
        model = ArimaForecaster()
        model.train_ = monthly_series(y)
        model.fit_ = explosive
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = model.forecast(12)
        drift = float(np.mean(np.diff(y)))
        assert np.allclose(result.values, np.maximum(y[-1] + drift * np.arange(1, 13), 0.0))
        assert model.fit_.fallback and _is_fallback(model)
        assert model.fit_.order == explosive.order and model.fit_.params == explosive.params

    def test_finite_path_is_not_a_fallback(self):
        y = simulate_ar1(0.5, 40, seed=5)
        model = ArimaForecaster(forced_order=ArimaOrder(1, 0, 0)).fit(monthly_series(y))
        model.forecast(12)
        assert not model.fit_.fallback
