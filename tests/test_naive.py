import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autocast.models.naive import NaiveForecaster

from helpers import monthly_series, weekly_series


def seasonal_mean_forecast(series, horizon):
    return NaiveForecaster().fit(series).forecast(horizon)


class TestSeasonalMean:
    def test_two_januaries_average(self):
        # Jan 2020 = 100, Jan 2021 = 120, everything else 50
        values = np.full(24, 50.0)
        values[0] = 100.0
        values[12] = 120.0
        series = monthly_series(values)
        result = seasonal_mean_forecast(series, 12)
        assert result.start.label() == "2022-01"
        assert result.values[0] == pytest.approx(110.0, abs=1e-12)
        assert np.allclose(result.values[1:], 50.0)

    def test_exactly_periodic_series_is_continued_exactly(self):
        pattern = np.array([10.25, 80.5, 30.0, 55.75, 5.5, 60.0, 44.25, 12.0, 98.5, 71.0, 23.75, 66.5])
        series = monthly_series(np.tile(pattern, 4))
        result = seasonal_mean_forecast(series, 24)
        assert np.array_equal(result.values, np.tile(pattern, 2))

    def test_unseen_position_falls_back_to_overall_mean(self):
        # Jan..Jun only; forecasting Jul..Dec has no same-month history
        values = np.array([10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        series = monthly_series(values)
        result = seasonal_mean_forecast(series, 12)
        assert np.allclose(result.values[:6], 35.0)  # Jul..Dec -> overall mean
        assert np.array_equal(result.values[6:], values)  # next Jan..Jun seen

    def test_weekly_periodicity(self):
        pattern = np.arange(52, dtype=float) + 1.0
        series = weekly_series(np.tile(pattern, 2))
        result = seasonal_mean_forecast(series, 52)
        assert np.array_equal(result.values, pattern)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False, width=32), min_size=2, max_size=60),
        st.integers(min_value=1, max_value=24),
    )
    def test_values_nonnegative_and_finite(self, values, horizon):
        result = seasonal_mean_forecast(monthly_series(values), horizon)
        assert result.horizon == horizon
        assert np.all(np.isfinite(result.values))
        assert np.all(result.values >= 0)

