import numpy as np
import pytest

from autocast.models.smoothing import (
    PARAM_CEIL,
    PARAM_FLOOR,
    HwesForecaster,
    HwesState,
    SesForecaster,
    _hwes_init,
    _hwes_pass,
    _ses_pass,
    fit_hwes,
    fit_ses,
    hwes_forecast,
)

from helpers import monthly_series, weekly_series
from oracles import (
    holt_winters_recursion,
    hwes_pass_arrays,
    nelder_mead_arrays,
    ses_pass_arrays,
    ses_recursion,
)


class TestHwesForecastArithmetic:
    def test_flat_level(self):
        state = HwesState(0.3, 0.1, 0.1, level=10.0, trend=0.0, seasonal=(0.0,) * 4)
        assert list(hwes_forecast(state, 3)) == [10.0, 10.0, 10.0]

    def test_linear_trend(self):
        state = HwesState(0.3, 0.1, 0.1, level=10.0, trend=1.0, seasonal=(0.0,) * 4)
        assert list(hwes_forecast(state, 3)) == [11.0, 12.0, 13.0]

    def test_seasonal_rotation_is_end_aligned(self):
        # index h % m serves the h-th step after training
        state = HwesState(0.5, 0.1, 0.1, level=0.0, trend=0.0, seasonal=(5.0, -2.0, 7.0))
        assert list(hwes_forecast(state, 4)) == [-2.0, 7.0, 5.0, -2.0]  # s1, s2, s0, s1


class TestFitHwes:
    def test_constant_series_flat_forecast_and_zero_seasonal(self):
        state = fit_hwes(monthly_series(np.full(36, 5.0)))
        assert list(hwes_forecast(state, 12)) == [5.0] * 12
        assert max(abs(s) for s in state.seasonal) < 1e-9

    def test_noiseless_sinusoid_forecast(self):
        t = np.arange(48)
        series = monthly_series(100.0 + 10.0 * np.sin(2.0 * np.pi * t / 12.0))
        state = fit_hwes(series)
        forecast = hwes_forecast(state, 12)
        truth = 100.0 + 10.0 * np.sin(2.0 * np.pi * np.arange(48, 60) / 12.0)
        rmse = float(np.sqrt(np.mean((forecast - truth) ** 2)))
        assert rmse / (truth.max() - truth.min()) < 0.05

    def test_linear_trend_slope_recovered(self):
        state = fit_hwes(monthly_series(10.0 + 2.0 * np.arange(36)))
        assert state.trend == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("make, m", [(monthly_series, 12), (weekly_series, 52)])
    def test_needs_two_full_seasons(self, make, m):
        # the seasonal start decomposes the first two seasons
        t = np.arange(2 * m)
        values = 100.0 + 20.0 * np.sin(2 * np.pi * t / m)
        with pytest.raises(ValueError, match=f"Holt-Winters needs two seasons \\({2 * m} points\\), got {2 * m - 1}"):
            fit_hwes(make(values[:-1]))
        state = fit_hwes(make(values))
        assert state.season_length == m

    def test_overflowing_loss_raises(self):
        # every one-step error squares past the largest double, so no parameters score
        values = 1e200 * (2.0 + np.sin(2 * np.pi * np.arange(36) / 12))
        with pytest.raises(ValueError, match="not finite"):
            fit_hwes(monthly_series(values))

    def test_parameters_stay_clamped(self):
        state = fit_hwes(monthly_series(np.linspace(1, 400, 40)))
        for value in (state.alpha, state.beta, state.gamma):
            assert 0.0 <= value <= 0.999


class TestRecursionAgainstTextbookOracle:
    """Dual route: the array-based passes against plain-Python textbook updates."""

    def test_ses_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            values = rng.uniform(0, 200, size=int(rng.integers(2, 40)))
            alpha = float(rng.uniform(0.01, 0.99))
            sse, level = _ses_pass(values, alpha)
            sse_o, level_o = ses_recursion(list(values), alpha)
            assert sse == pytest.approx(sse_o, rel=1e-12, abs=1e-12)
            assert level == pytest.approx(level_o, rel=1e-12, abs=1e-12)

    def test_hwes_pass(self):
        rng = np.random.default_rng(8)
        m = 12
        for _ in range(10):
            values = rng.uniform(10, 300, size=int(rng.integers(2 * m, 4 * m)))
            alpha, beta, gamma = rng.uniform(0.01, 0.99, size=3)
            init = _hwes_init(values, m)
            sse, level, trend, seasonal = _hwes_pass(values, m, alpha, beta, gamma, init)
            sse_o, level_o, trend_o, seasonal_o = holt_winters_recursion(
                list(values), m, alpha, beta, gamma, init[0], init[1], list(init[2])
            )
            assert sse == pytest.approx(sse_o, rel=1e-9)
            assert level == pytest.approx(level_o, rel=1e-9, abs=1e-9)
            assert trend == pytest.approx(trend_o, rel=1e-9, abs=1e-9)
            assert np.allclose(seasonal, seasonal_o, rtol=1e-9, atol=1e-9)

    def test_fitted_state_reproducible_from_fitted_parameters(self):
        # end-aligned rotation: state.seasonal[h % m] is the component used
        # h steps after training, which the oracle can re-derive
        rng = np.random.default_rng(9)
        m = 12
        values = 100.0 + 20.0 * np.sin(2 * np.pi * np.arange(48) / 12) + rng.normal(0, 3, 48)
        values = np.maximum(values, 0)
        series = monthly_series(values)
        state = fit_hwes(series)
        init = _hwes_init(series.values, m)
        _, level_o, trend_o, seasonal_o = holt_winters_recursion(
            list(series.values), m, state.alpha, state.beta, state.gamma,
            init[0], init[1], list(init[2]),
        )
        assert state.level == pytest.approx(level_o, rel=1e-9)
        assert state.trend == pytest.approx(trend_o, rel=1e-9, abs=1e-9)
        n = len(values)
        recentered = np.array(seasonal_o) - np.mean(seasonal_o)
        expected = tuple(recentered[(n - 1 + k) % m] for k in range(m))
        assert np.allclose(state.seasonal, expected, rtol=1e-9, atol=1e-9)

    def test_initial_seasonal_components_sum_to_zero(self):
        rng = np.random.default_rng(10)
        values = rng.uniform(10, 500, size=36)
        _, _, seasonal = _hwes_init(values, 12)
        assert abs(seasonal.sum()) < 1e-9


class TestFitSes:
    def test_single_point(self):
        alpha, level = fit_ses(np.array([42.0]))
        assert level == 42.0

    def test_constant_series(self):
        _, level = fit_ses(np.full(10, 7.0))
        assert level == pytest.approx(7.0, abs=1e-9)


class TestForecasterAdapters:
    def test_ses_flat(self):
        series = monthly_series(np.array([10.0, 12.0, 9.0, 11.0, 10.5, 10.0]))
        model = SesForecaster().fit(series)
        assert (model.alpha_, model.level_) == fit_ses(series.values)
        result = model.forecast(4)
        assert result.values.tolist() == [model.level_] * 4
        assert result.model_id == "ses"
        assert result.start == series.end + 1

    def test_hwes_seasonal_state_stored(self):
        series = monthly_series(100.0 + 10.0 * np.sin(2 * np.pi * np.arange(36) / 12))
        model = HwesForecaster().fit(series)
        assert model.state_.season_length == 12
        assert model.forecast(12).horizon == 12


def clamp(params):
    return np.clip(params, PARAM_FLOOR, PARAM_CEIL)


def array_fit_hwes(values, m):
    """fit_hwes on numpy arrays and scalars."""
    level0, trend0, seasonal0 = _hwes_init(values, m)

    def objective(params):
        sse = hwes_pass_arrays(values, m, *clamp(params), level0, trend0, seasonal0)[0]
        return sse if np.isfinite(sse) else np.inf

    best, _, _ = nelder_mead_arrays(objective, np.array([0.3, 0.1, 0.1]), maxfev=300)
    a, b, g = (float(v) for v in clamp(best))
    _, level, trend, seasonal = hwes_pass_arrays(values, m, a, b, g, level0, trend0, seasonal0)
    seasonal = seasonal - seasonal.mean()
    n = len(values)
    return a, b, g, float(level), float(trend), tuple(seasonal[(n - 1 + k) % m] for k in range(m))


class TestMatchesArrayFormulation:
    """The float passes against the numpy-scalar passes, bit for bit."""

    def test_passes(self):
        rng = np.random.default_rng(11)
        for m in (4, 12, 52):
            values = rng.uniform(0, 300, size=3 * m)
            alpha, beta, gamma = rng.uniform(0.001, 0.999, size=3)  # numpy scalars, as np.clip gives them
            floats = values.tolist()
            assert _ses_pass(floats, float(alpha)) == ses_pass_arrays(values, alpha)
            level, trend, seasonal = _hwes_init(values, m)
            init = (level, trend, seasonal.tolist())
            got = _hwes_pass(floats, m, float(alpha), float(beta), float(gamma), init)
            ref = hwes_pass_arrays(values, m, alpha, beta, gamma, level, trend, seasonal)
            assert got[:3] == ref[:3]
            assert got[3] == ref[3].tolist()

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_fitted_ses(self, n):
        values = np.random.default_rng(n).uniform(0, 50, size=n)

        def objective(p):
            return ses_pass_arrays(values, float(clamp(p)[0]))[0]

        best, _, _ = nelder_mead_arrays(objective, np.array([0.3]), maxfev=80)
        alpha = float(clamp(best)[0])
        assert fit_ses(values) == (alpha, float(ses_pass_arrays(values, alpha)[1]))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "make, n", [(monthly_series, 40), (monthly_series, 24), (weekly_series, 110), (weekly_series, 104)]
    )
    def test_fitted_state(self, make, n, seed):
        rng = np.random.default_rng(seed)
        m = 12 if make is monthly_series else 52
        t = np.arange(n)
        values = np.maximum(100.0 + 0.5 * t + 20.0 * np.sin(2 * np.pi * t / m) + rng.normal(0, 5, n), 0.0)
        state = fit_hwes(make(values))
        expected = array_fit_hwes(values, m)
        assert (state.alpha, state.beta, state.gamma, state.level, state.trend, state.seasonal) == expected
