import numpy as np
import pytest

from autocast.models.windows import feature_length, make_window_features, one_step_features

from helpers import monthly_series, weekly_series


class TestMakeWindowFeatures:
    def test_thirteen_months_yield_one_row(self):
        X, y = make_window_features(monthly_series(np.arange(13.0) + 1))
        assert X.shape == (1, 24)
        assert y.shape == (1,)

    def test_two_years_yield_twelve_rows(self):
        X, y = make_window_features(monthly_series(np.arange(24.0) + 1))
        assert X.shape == (12, 24)
        assert len(y) == 12

    def test_row_holds_previous_year_in_order(self):
        values = np.arange(13.0) + 1
        X, y = make_window_features(monthly_series(values))
        assert list(X[0, :12]) == list(values[:12])  # v_0..v_11 for t=12
        assert y[0] == np.log1p(values[12])

    def test_rows_never_contain_the_target(self):
        values = np.arange(30.0) + 1
        X, y = make_window_features(monthly_series(values))
        for i in range(len(y)):
            t = 12 + i
            assert list(X[i, :12]) == list(values[t - 12 : t])
            assert y[i] == np.log1p(values[t])
            assert values[t] not in X[i, :12]  # strictly increasing values: no leak

    def test_one_hot_marks_target_position(self):
        series = monthly_series(np.arange(26.0) + 1)  # starts in January
        X, _ = make_window_features(series)
        for i in range(X.shape[0]):
            indicator = X[i, 12:]
            assert indicator.sum() == 1.0
            assert int(np.argmax(indicator)) == (series.start.position_in_year + 12 + i) % 12

    def test_short_series_empty(self):
        X, y = make_window_features(monthly_series(np.arange(12.0) + 1))
        assert X.shape == (0, 24)
        assert len(y) == 0

    def test_log_targets(self):
        values = np.arange(20.0) + 1
        _, y = make_window_features(monthly_series(values))
        np.testing.assert_array_equal(y, np.log1p(values[12:]))

    def test_log1p_roundtrip_precision(self):
        values = np.array([0.0, 1.0, 17.5, 1e3, 1e6, 1e9])
        roundtrip = np.expm1(np.log1p(values))
        assert np.max(np.abs(roundtrip - values) / np.maximum(values, 1.0)) < 1e-12

    def test_weekly_feature_width(self):
        X, y = make_window_features(weekly_series(np.arange(60.0) + 1))
        assert feature_length(52) == 104
        assert X.shape == (8, 104)


class TestOneStepFeatures:
    def test_matches_last_training_row(self):
        values = np.arange(24.0) + 1
        series = monthly_series(values)
        X, _ = make_window_features(series)
        last_t = 23
        row = one_step_features(values[:last_t], (series.start.position_in_year + last_t) % 12, 12)
        assert np.array_equal(row, X[-1])

    def test_uses_trailing_year_only(self):
        history = np.arange(40.0)
        row = one_step_features(history, 3, 12)
        assert list(row[:12]) == list(history[-12:])
        assert row[12 + 3] == 1.0
        assert row[12:].sum() == 1.0

    def test_too_short_history_rejected(self):
        with pytest.raises(ValueError):
            one_step_features(np.arange(11.0), 0, 12)
