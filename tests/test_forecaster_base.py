import numpy as np
import pytest

from autocast.models.arima import ArimaForecaster
from autocast.models.base import (
    MODEL_PRIORITY,
    BaseForecaster,
    ModelId,
    NotFittedError,
    iterate_one_step,
    priority_rank,
)
from autocast.models.gam import GamForecaster
from autocast.models.naive import NaiveForecaster
from autocast.models.smoothing import HwesForecaster, SesForecaster

from helpers import monthly_series


class TestModelId:
    def test_nine_models(self):
        assert len(ModelId) == 9

    def test_values_are_snake_case_strings(self):
        expected = {
            "naive",
            "ses",
            "hwes",
            "arima",
            "sarima",
            "gam",
            "boosted_tree",
            "cnn",
            "ensemble_median",
        }
        assert {m.value for m in ModelId} == expected

    def test_constructible_from_string(self):
        assert ModelId("hwes") is ModelId.HWES


class TestPriority:
    def test_covers_every_model_exactly_once(self):
        assert sorted(MODEL_PRIORITY, key=lambda m: m.value) == sorted(
            ModelId, key=lambda m: m.value
        )
        assert len(MODEL_PRIORITY) == len(set(MODEL_PRIORITY))

    def test_order(self):
        assert MODEL_PRIORITY == (
            ModelId.HWES,
            ModelId.SES,
            ModelId.GAM,
            ModelId.SARIMA,
            ModelId.ARIMA,
            ModelId.BOOSTED_TREE,
            ModelId.CNN,
            ModelId.ENSEMBLE_MEDIAN,
            ModelId.NAIVE,
        )

    def test_rank_is_position(self):
        for rank, model_id in enumerate(MODEL_PRIORITY):
            assert priority_rank(model_id) == rank

    def test_rank_accepts_plain_strings(self):
        assert priority_rank("hwes") == 0
        assert priority_rank("naive") == len(MODEL_PRIORITY) - 1


class TestIterateOneStep:
    def test_constant_predictor(self):
        out = iterate_one_step(lambda h: 7.0, np.array([1.0, 2.0]), 3)
        assert list(out) == [7.0, 7.0, 7.0]

    def test_feedback_uses_appended_predictions(self):
        # each step adds 1 to the last value, so predictions chain
        out = iterate_one_step(lambda h: h[-1] + 1.0, np.array([0.0]), 3)
        assert list(out) == [1.0, 2.0, 3.0]

    def test_negative_predictions_floored_inside_the_loop(self):
        seen = []

        def predictor(history):
            seen.append(history.copy())
            return -5.0

        out = iterate_one_step(predictor, np.array([10.0]), 3)
        assert list(out) == [0.0, 0.0, 0.0]
        # the second call must see the floored 0, not the raw -5
        assert list(seen[1]) == [10.0, 0.0]
        assert list(seen[2]) == [10.0, 0.0, 0.0]

    def test_history_not_mutated(self):
        history = np.array([3.0, 4.0])
        iterate_one_step(lambda h: 1.0, history, 2)
        assert list(history) == [3.0, 4.0]

    def test_horizon_below_one_rejected(self):
        with pytest.raises(ValueError):
            iterate_one_step(lambda h: 1.0, np.array([1.0]), 0)


class _Doubler(BaseForecaster):
    model_id = ModelId.SES

    def __init__(self, factor=2.0):
        self.factor = factor

    def fit(self, series):
        self.train_ = series
        return self

    def forecast(self, horizon):
        return self._result(np.full(horizon, self.factor * self.train_.values[-1]))


class TestBaseForecaster:
    @pytest.mark.parametrize(
        "model",
        [
            NaiveForecaster(),
            SesForecaster(),
            HwesForecaster(),
            ArimaForecaster(),
            GamForecaster(),
        ],
    )
    def test_forecast_before_fit_raises(self, model):
        with pytest.raises(NotFittedError):
            model.forecast(3)

    def test_fit_returns_self(self):
        series = monthly_series([1.0, 2.0, 3.0])
        model = NaiveForecaster()
        assert model.fit(series) is model

    def test_result_wires_product_start_and_floor(self):
        series = monthly_series([5.0, -0.0, 4.0], product_id="widget")
        model = _Doubler(factor=-1.0).fit(series)
        result = model.forecast(2)
        assert result.product_id == "widget"
        assert result.model_id == "ses"
        assert result.start == series.end + 1
        assert list(result.values) == [0.0, 0.0]
