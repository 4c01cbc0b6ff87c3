import numpy as np
import pytest

from autocast.models.gam import (
    N_SPLINE_KNOTS,
    GamForecaster,
    _standardize,
    build_design_rows,
    fit_gam,
    gam_decompose,
    gam_predict,
)
import autocast.models.lasso as lasso_module
from autocast.models.lasso import default_lambda_grid, lasso_path

from helpers import kkt_violation, monthly_series, seasonal_values, weekly_series


class TestDesignMatrix:
    def test_column_count_monthly(self):
        # intercept + 2 trends + 2K Fourier + (2 + knots) spline
        design = fit_gam(monthly_series(np.arange(24.0) + 1), lambda_grid=(0.0,))
        assert design.n_columns == 1 + 2 + 2 * 3 + 2 + 5
        assert design.column_names[0] == "intercept"
        assert design.fourier_order == 3

    def test_column_count_weekly(self):
        design = fit_gam(weekly_series(np.arange(60.0) + 1), lambda_grid=(0.0,))
        assert design.fourier_order == 10
        assert design.n_columns == 1 + 2 + 2 * 10 + 2 + 5

    def test_non_finite_design_names_column(self):
        t = np.arange(10.0)
        t[3] = np.nan
        # the time offset fills the linear-trend column, index 1
        with pytest.raises(ValueError, match="column 1"):
            build_design_rows(t, 10, 12, 3, (0.5,))


class TestFitGam:
    def test_exact_linear_recovery_at_lambda_zero(self):
        y = 3.0 + 2.0 * np.arange(36)
        design = fit_gam(monthly_series(y), lambda_grid=(0.0,))
        beta = np.array(design.beta)
        assert beta[0] == pytest.approx(3.0, abs=1e-6)
        assert beta[1] == pytest.approx(2.0, abs=1e-6)
        assert np.max(np.abs(beta[2:])) < 1e-6

    def test_cosine_seasonality_recovered(self):
        t = np.arange(48)
        y = 1000.0 + 200.0 * np.cos(2.0 * np.pi * t / 12.0)
        design = fit_gam(monthly_series(y))
        seasonal = gam_decompose(design, t)["seasonal"]
        truth = 200.0 * np.cos(2.0 * np.pi * t / 12.0)
        a = seasonal - seasonal.mean()
        b = truth - truth.mean()
        cosine = float(a @ b / np.sqrt((a @ a) * (b @ b)))
        assert cosine > 0.95

    def test_huge_lambda_collapses_to_training_mean(self):
        t = np.arange(48)
        y = 1000.0 + 200.0 * np.cos(2.0 * np.pi * t / 12.0)
        design = fit_gam(monthly_series(y), lambda_grid=(1e9,))
        assert design.lam == 1e9
        forecast = gam_predict(design, np.arange(48, 66))
        assert np.allclose(forecast, y.mean(), atol=1e-6)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="12"):
            fit_gam(monthly_series(np.arange(11.0) + 1))

    def test_lambda_selected_from_grid_when_unset(self):
        y = 100.0 + 10.0 * np.sin(2 * np.pi * np.arange(36) / 12)
        design = fit_gam(monthly_series(y), lambda_grid=np.array([0.5, 0.05]))
        assert design.lam in (0.5, 0.05)


class TestLassoOnGamDesign:
    @staticmethod
    def standardized_design(n):
        knots = tuple((i + 1) / (N_SPLINE_KNOTS + 1) for i in range(N_SPLINE_KNOTS))
        return _standardize(build_design_rows(np.arange(n), n, 12, 3, knots))[0]

    @pytest.mark.parametrize("n", [96, 12])
    def test_optimal_at_smallest_grid_lambda(self, n):
        y = seasonal_values(n, level=500.0, amplitude=120.0, slope=3.0, noise=40.0, seed=n)
        M = self.standardized_design(n)
        cut = int(round(n * 0.8))
        lam = default_lambda_grid(M, y)[-1]
        # full rows (the final fit) and the head rows lambda selection fits on;
        # a 12-point head is 10 rows against 15 penalized columns, one of them
        # a spline knot that is constant there
        for rows in (slice(None), slice(0, cut)):
            beta = lasso_path(M[rows], y[rows], [lam])[0]
            assert kkt_violation(M[rows], y[rows], beta, lam) <= 1e-6

    @pytest.mark.parametrize("n", [15, 24, 48, 96])
    def test_least_squares_at_lambda_zero(self, n):
        # lambda = 0 is a legal grid entry; the spline columns leave the
        # design near-collinear (condition number ~1e6), and every column
        # that adds a direction must still join the path
        y = seasonal_values(n, level=500.0, amplitude=120.0, slope=3.0, noise=40.0, seed=n)
        M = self.standardized_design(n)
        beta = lasso_path(M, y, [0.0])[0]
        assert kkt_violation(M, y, beta, 0.0) <= 1e-8

    @pytest.mark.parametrize("n", [12, 15, 24, 48, 96])
    def test_path_to_the_bottom_takes_few_kinks(self, n, monkeypatch):
        # the 16-column designs need at most 63 kinks to reach lambda = 0
        # (82 on the benchmark corpora); a tenth of MAX_PATH_STEPS leaves
        # room without hiding a path that cycles
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
        fitted = gam_predict(model.design_, t)
        assert np.allclose(parts["trend"] + parts["seasonal"], fitted, atol=1e-8)

    def test_seasonal_part_is_pure_fourier(self):
        y = 1000.0 + 200.0 * np.cos(2 * np.pi * np.arange(48) / 12.0)
        design = fit_gam(monthly_series(y))
        seasonal = gam_decompose(design, np.arange(48))["seasonal"]
        # the Fourier block repeats with the season
        assert np.allclose(seasonal[:12], seasonal[12:24], atol=1e-9)


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

    def test_forecast_values_floored(self):
        # steep negative trend forces the raw extrapolation negative
        y = np.maximum(100.0 - 5.0 * np.arange(24), 0)
        model = GamForecaster().fit(monthly_series(y))
        assert np.any(gam_predict(model.design_, np.arange(24, 42)) < 0)
        assert np.all(model.forecast(18).values >= 0)
