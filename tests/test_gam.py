import numpy as np
import pytest

from autocast.models import GamForecaster, fit_gam, gam_decompose, gam_predict
from autocast.models.gam import N_SPLINE_KNOTS, _standardize, build_design_rows
from autocast.models.lasso import default_lambda_grid, lasso_path

from helpers import kkt_violation, monthly_series, seasonal_values, weekly_series


class TestDesignMatrix:
    def test_column_count_monthly(self):
        # intercept + 2 trends + 2K Fourier + externals + (2 + knots) spline
        design = fit_gam(monthly_series(np.arange(24.0) + 1), lam=0.0)
        assert design.n_columns == 1 + 2 + 2 * 3 + 0 + 2 + 5
        assert design.column_names[0] == "intercept"
        assert design.fourier_order == 3

    def test_column_count_weekly(self):
        design = fit_gam(weekly_series(np.arange(60.0) + 1), lam=0.0)
        assert design.fourier_order == 10
        assert design.n_columns == 1 + 2 + 2 * 10 + 0 + 2 + 5

    def test_external_regressors_add_columns(self):
        series = monthly_series(np.arange(24.0) + 1)
        design = fit_gam(series, external=np.ones((24, 2)), lam=0.0)
        assert design.n_external == 2
        assert design.n_columns == 16 + 2

    def test_non_finite_external_names_column(self):
        series = monthly_series(np.arange(24.0) + 1)
        bad = np.ones(24)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="column"):
            fit_gam(series, external=bad, lam=0.0)

    def test_external_row_count_must_match(self):
        with pytest.raises(ValueError, match="rows"):
            build_design_rows(np.arange(10), 10, 12, 3, (0.5,), external_rows=np.ones(7))


class TestFitGam:
    def test_exact_linear_recovery_at_lambda_zero(self):
        y = 3.0 + 2.0 * np.arange(36)
        design = fit_gam(monthly_series(y), lam=0.0)
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
        design = fit_gam(monthly_series(y), lam=1e9)
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


class TestDecomposition:
    def test_parts_add_up_to_observed(self):
        rng = np.random.default_rng(12)
        t = np.arange(48)
        y = np.maximum(200.0 + 2.0 * t + 30.0 * np.sin(2 * np.pi * t / 12) + rng.normal(0, 5, 48), 0)
        series = monthly_series(y)
        model = GamForecaster().fit(series)
        parts = model.decompose()
        assert set(parts) == {"trend", "seasonal", "residual"}
        total = parts["trend"] + parts["seasonal"] + parts["residual"]
        assert np.allclose(total, y, atol=1e-8)

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

    def test_fit_with_externals_requires_them_at_forecast_time(self):
        series = monthly_series(np.arange(24.0) + 10)
        model = GamForecaster(lam=0.0).fit(series, external=np.arange(24.0))
        with pytest.raises(ValueError, match="external"):
            model.forecast(6)
        result = model.forecast(6, external=np.arange(24.0, 30.0))
        assert result.horizon == 6

    def test_params_roundtrip(self):
        model = GamForecaster().set_params(lam=0.25)
        assert model.get_params()["lam"] == 0.25

    def test_horizon_below_one_rejected(self):
        model = GamForecaster(lam=0.0).fit(monthly_series(np.arange(24.0) + 1))
        with pytest.raises(ValueError):
            model.forecast(0)

    def test_forecast_values_floored(self):
        # steep negative trend forces the raw extrapolation negative
        y = np.maximum(100.0 - 5.0 * np.arange(24), 0)
        model = GamForecaster(lam=0.0).fit(monthly_series(y))
        assert np.all(model.forecast(18).values >= 0)
