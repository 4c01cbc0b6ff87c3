import math

import numpy as np
import pytest

from autocast.models.gam import (
    KNOTS,
    GamForecaster,
    _standardize,
    build_design_rows,
    seasonal_columns,
)
import autocast.models.lasso as lasso_module
from autocast.models.lasso import default_lambda_grid, lasso_path
from autocast.series import Frequency
from autocast.synth import ArchetypeSpec, generate_corpus

from helpers import kkt_violation, monthly_series, seasonal_values, weekly_series


class TestDesignMatrix:
    @pytest.mark.parametrize("frequency, order", [(Frequency.MONTHLY, 3), (Frequency.WEEKLY, 10)])
    def test_seasonal_slice_is_exactly_the_fourier_columns(self, frequency, order):
        n = 60
        t = np.arange(n)
        rows = build_design_rows(t, n, frequency)
        # intercept + linear trend + 2K Fourier + one hinge per knot
        assert rows.shape == (n, 1 + 1 + 2 * order + len(KNOTS))
        angles = [2.0 * np.pi * k * t / frequency.periods_per_year for k in range(1, order + 1)]
        fourier = np.column_stack([f(a) for a in angles for f in (np.sin, np.cos)])
        np.testing.assert_array_equal(rows[:, seasonal_columns(frequency)], fourier)

    @pytest.mark.parametrize(
        "n, frequency",
        [(12, Frequency.MONTHLY), (17, Frequency.MONTHLY), (48, Frequency.MONTHLY),
         (96, Frequency.MONTHLY), (120, Frequency.WEEKLY)],
    )
    def test_trend_is_affine_past_the_last_knot(self, n, frequency):
        # from the last knot through 18 periods past the training end, every
        # non-seasonal column has zero second differences: forecasts
        # extrapolate the trend linearly
        t = np.arange(math.ceil(max(KNOTS) * (n - 1)), n + 18)
        rows = build_design_rows(t, n, frequency)
        trend = np.ones(rows.shape[1], dtype=bool)
        trend[seasonal_columns(frequency)] = False
        columns = rows[:, trend]
        second = np.diff(columns, n=2, axis=0)
        assert np.all(np.abs(second) <= 1e-9 * np.abs(columns).max(axis=0))


class TestFit:
    def test_exact_linear_recovery_at_lambda_zero(self):
        y = 3.0 + 2.0 * np.arange(36)
        beta = lasso_path(build_design_rows(np.arange(36), 36, Frequency.MONTHLY), y, [0.0])[0]
        assert beta[0] == pytest.approx(3.0, abs=1e-6)
        assert beta[1] == pytest.approx(2.0, abs=1e-6)
        assert np.max(np.abs(beta[2:])) < 1e-6

    def test_cosine_seasonality_recovered(self):
        t = np.arange(48)
        y = 1000.0 + 200.0 * np.cos(2.0 * np.pi * t / 12.0)
        seasonal = GamForecaster().fit(monthly_series(y)).decompose()["seasonal"]
        truth = 200.0 * np.cos(2.0 * np.pi * t / 12.0)
        a = seasonal - seasonal.mean()
        b = truth - truth.mean()
        cosine = float(a @ b / np.sqrt((a @ a) * (b @ b)))
        assert cosine > 0.95

    def test_huge_lambda_collapses_to_training_mean(self):
        t = np.arange(48)
        y = 1000.0 + 200.0 * np.cos(2.0 * np.pi * t / 12.0)
        beta = lasso_path(build_design_rows(t, 48, Frequency.MONTHLY), y, [1e9])[0]
        forecast = build_design_rows(np.arange(48, 66), 48, Frequency.MONTHLY) @ beta
        assert np.allclose(forecast, y.mean(), atol=1e-6)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="12"):
            GamForecaster().fit(monthly_series(np.arange(11.0) + 1))


class TestLassoOnGamDesign:
    @staticmethod
    def standardized_design(n):
        return _standardize(build_design_rows(np.arange(n), n, Frequency.MONTHLY))[0]

    @pytest.mark.parametrize("n", [96, 12])
    def test_optimal_at_smallest_grid_lambda(self, n):
        y = seasonal_values(n, level=500.0, amplitude=120.0, slope=3.0, noise=40.0, seed=n)
        M = self.standardized_design(n)
        cut = int(round(n * 0.8))
        lam = default_lambda_grid(M, y)[-1]
        # full rows (the final fit) and the head rows lambda selection fits on;
        # a 12-point head is 10 rows against 12 penalized columns, one of them
        # the last knot's hinge, which is constant there
        for rows in (slice(None), slice(0, cut)):
            beta = lasso_path(M[rows], y[rows], [lam])[0]
            assert kkt_violation(M[rows], y[rows], beta, lam) <= 1e-6

    @pytest.mark.parametrize("n", [15, 24, 48, 96])
    def test_least_squares_at_lambda_zero(self, n):
        # lambda = 0 is a legal grid entry; the hinges overlap the linear
        # trend (condition number up to ~1e3 at n = 15), and every column
        # that adds a direction must still join the path
        y = seasonal_values(n, level=500.0, amplitude=120.0, slope=3.0, noise=40.0, seed=n)
        M = self.standardized_design(n)
        beta = lasso_path(M, y, [0.0])[0]
        assert kkt_violation(M, y, beta, 0.0) <= 1e-8

    @pytest.mark.parametrize("n", [12, 15, 24, 48, 96])
    def test_path_to_the_bottom_takes_few_kinks(self, n, monkeypatch):
        # the 13-column designs need at most 34 kinks to reach lambda = 0
        # (47 on the benchmark corpora, seeds 1-20); a tenth of MAX_PATH_STEPS
        # leaves room without hiding a path that cycles
        monkeypatch.setattr(lasso_module, "MAX_PATH_STEPS", lasso_module.MAX_PATH_STEPS // 10)
        y = seasonal_values(n, level=500.0, amplitude=120.0, slope=3.0, noise=40.0, seed=n)
        M = self.standardized_design(n)
        for rows in (slice(None), slice(0, int(round(n * 0.8)))):
            lasso_path(M[rows], y[rows], [default_lambda_grid(M[rows], y[rows])[-1], 0.0])


class TestDecomposition:
    def test_parts_add_up_to_fitted_values(self):
        rng = np.random.default_rng(12)
        t = np.arange(48)
        y = np.maximum(200.0 + 2.0 * t + 30.0 * np.sin(2 * np.pi * t / 12) + rng.normal(0, 5, 48), 0)
        series = monthly_series(y)
        model = GamForecaster().fit(series)
        parts = model.decompose()
        assert set(parts) == {"trend", "seasonal"}
        fitted = build_design_rows(t, 48, Frequency.MONTHLY) @ model.beta_
        assert np.allclose(parts["trend"] + parts["seasonal"], fitted, atol=1e-8)

    def test_seasonal_part_is_pure_fourier(self):
        y = 1000.0 + 200.0 * np.cos(2 * np.pi * np.arange(48) / 12.0)
        seasonal = GamForecaster().fit(monthly_series(y)).decompose()["seasonal"]
        # the Fourier block repeats with the season
        assert np.allclose(seasonal[:12], seasonal[12:24], atol=1e-9)

    def test_weekly_seasonal_part_repeats_yearly(self):
        y = seasonal_values(120, m=52, level=500.0, amplitude=120.0, slope=2.0, noise=10.0, seed=3)
        seasonal = GamForecaster().fit(weekly_series(y)).decompose()["seasonal"]
        assert np.allclose(seasonal[:52], seasonal[52:104], atol=1e-9)


class TestGamForecaster:
    def test_forecast_continues_the_pattern(self):
        t = np.arange(48)
        y = 1000.0 + 200.0 * np.cos(2.0 * np.pi * t / 12.0)
        model = GamForecaster().fit(monthly_series(y))
        result = model.forecast(12)
        truth = 1000.0 + 200.0 * np.cos(2.0 * np.pi * np.arange(48, 60) / 12.0)
        nrmse = np.sqrt(np.mean((result.values - truth) ** 2)) / (truth.max() - truth.min())
        assert nrmse < 0.05

    def test_horizon_below_one_rejected(self):
        model = GamForecaster().fit(monthly_series(np.arange(24.0) + 1))
        with pytest.raises(ValueError):
            model.forecast(0)

    def test_short_volatile_series_forecast_stays_in_scale(self):
        # CI's ragged r2 (17 months, high variance): the trend extrapolates
        # linearly, so 18 steps stay within a few times its largest sale
        series = generate_corpus([ArchetypeSpec.from_kind("r2", "high_variance", length=17)], seed=3)[0]
        forecast = GamForecaster().fit(series).forecast(18).values
        assert forecast.max() <= 4.0 * series.values.max()

    def test_forecast_values_floored(self):
        # steep negative trend forces the raw extrapolation negative
        y = np.maximum(100.0 - 5.0 * np.arange(24), 0)
        model = GamForecaster().fit(monthly_series(y))
        raw = build_design_rows(np.arange(24, 42), 24, Frequency.MONTHLY) @ model.beta_
        assert np.any(raw < 0)
        assert np.all(model.forecast(18).values >= 0)
