import numpy as np
import pytest

from autocast.deeplearn.training import train_shared_cnn
from autocast.models.base import (
    MODEL_PRIORITY,
    BaseForecaster,
    ModelId,
    NotFittedError,
    iterate_one_step,
    priority_rank,
)
from autocast.models.boosting import fit_boosted_trees
from autocast.models.windows import make_window_features
from autocast.pipeline import FORECASTERS

from helpers import monthly_series, seasonal_values


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

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), float("inf")])
    def test_non_finite_prediction_raises(self, bad):
        # the floor would turn NaN and -inf into a zero forecast
        with pytest.raises(ValueError, match="one-step prediction 1 is"):
            iterate_one_step(lambda h: bad, np.array([1.0, 2.0, 3.0]), 3)

    def test_non_finite_later_step_names_it(self):
        with pytest.raises(ValueError, match="one-step prediction 3 is nan"):
            iterate_one_step(lambda h: float("nan") if len(h) == 4 else 1.0, np.array([1.0, 2.0]), 3)



def _trained_models():
    """Three-round pooled trees and the CNN, trained on one series, for the shared-model adapters."""
    series = monthly_series(seasonal_values(36, noise=2.0, seed=1))
    X, y = make_window_features(series)
    trees = fit_boosted_trees(X, y, n_rounds=3)
    network = train_shared_cnn([series], series.frequency.default_input_window, 0)
    return {ModelId.BOOSTED_TREE: trees, ModelId.CNN: network}


FORECASTING_MODELS = [m for m in MODEL_PRIORITY if m is not ModelId.ENSEMBLE_MEDIAN]
ARIMA_VARIANTS = (ModelId.ARIMA, ModelId.SARIMA)


def test_the_table_builds_every_model_but_the_ensemble():
    assert set(FORECASTERS) == set(ModelId) - {ModelId.ENSEMBLE_MEDIAN}


class TestForecasterContract:
    """Every forecaster the pipeline builds honours BaseForecaster's fit/forecast contract."""

    @pytest.fixture(scope="class")
    def trained(self):
        return _trained_models()

    @pytest.fixture(params=FORECASTING_MODELS, ids=lambda m: m.value)
    def model(self, request, trained):
        return FORECASTERS[request.param](None, trained.get(request.param), None)

    @pytest.fixture
    def series(self):
        return monthly_series(seasonal_values(40, noise=2.0, seed=2), product_id="widget")

    def test_built_model_has_its_id(self, request, model):
        assert model.model_id is request.node.callspec.params["model"]

    def test_fit_facts(self, model, series):
        # only ARIMA reports a fallback and an order to refit at, only the GAM a decomposition
        model.fit(series)
        model.forecast(5)
        if model.model_id in ARIMA_VARIANTS:
            assert model.fallback is model.fit_.fallback and model.refit_order is model.fit_.order
        else:
            assert model.fallback is False and model.refit_order is None
        parts = model.decompose()
        if model.model_id is ModelId.GAM:
            assert sorted(parts) == ["seasonal", "trend"]
            assert all(len(path) == len(series) for path in parts.values())
        else:
            assert parts is None

    def test_only_the_base_class_fits_and_forecasts(self, model):
        cls = type(model)
        assert cls.__bases__ == (BaseForecaster,)
        assert "fit" not in vars(cls) and "forecast" not in vars(cls)

    def test_forecast_before_fit_raises(self, model):
        with pytest.raises(NotFittedError):
            model.forecast(3)

    def test_fit_returns_self_and_forecast_is_dated_after_training(self, model, series):
        assert model.fit(series) is model
        result = model.forecast(5)
        assert result.product_id == "widget"
        assert result.model_id == model.model_id.value
        assert result.start == series.end + 1
        assert result.horizon == 5

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_rejected(self, model, series, horizon):
        model.fit(series)
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            model.forecast(horizon)

    def test_negative_path_floored_at_zero(self, model, series, monkeypatch):
        model.fit(series)
        monkeypatch.setattr(type(model), "_path", lambda self, horizon: np.array([-3.0, 2.5, -0.5])[:horizon])
        assert list(model.forecast(3).values) == [0.0, 2.5, 0.0]

    def test_failed_fit_leaves_model_unfitted(self, model, series, monkeypatch):
        model.fit(series)

        def failing_fit(self, series):
            raise ValueError("no fit")

        monkeypatch.setattr(type(model), "_fit", failing_fit)
        with pytest.raises(ValueError, match="no fit"):
            model.fit(series)
        with pytest.raises(NotFittedError):
            model.forecast(3)

    def test_too_short_series_leaves_model_unfitted(self, model):
        short = monthly_series([4.0, 5.0, 6.0, 5.0, 4.0])
        if model.model_id in (ModelId.NAIVE, ModelId.SES):
            assert model.fit(short).forecast(3).horizon == 3  # these fit any history
            return
        with pytest.raises(ValueError):
            model.fit(short)
        with pytest.raises(NotFittedError):
            model.forecast(3)
