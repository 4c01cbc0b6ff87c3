from .arima import ArimaForecaster, ArimaOrder, FittedArima, arima_forecast, fit_arima, fit_arima_pair
from .base import (
    MODEL_PRIORITY,
    BaseForecaster,
    ModelId,
    NotFittedError,
    iterate_one_step,
    priority_rank,
)
from .boosting import (
    BoostedTreeForecaster,
    GradientBoostedTrees,
    fit_boosted_trees,
    train_pooled_trees,
)
from .ensemble import DEFAULT_MEMBERS, ensemble_forecast
from .gam import GamDesign, GamForecaster, fit_gam, gam_decompose, gam_predict
from .lasso import lasso_objective, select_lambda
from .naive import NaiveForecaster, naive_forecast
from .optim import nelder_mead
from .smoothing import HwesState, HwesForecaster, SesForecaster, fit_hwes, fit_ses, hwes_forecast
from .windows import make_window_features, one_step_features

__all__ = [
    "MODEL_PRIORITY",
    "ArimaForecaster",
    "ArimaOrder",
    "BaseForecaster",
    "BoostedTreeForecaster",
    "DEFAULT_MEMBERS",
    "FittedArima",
    "GamDesign",
    "GamForecaster",
    "GradientBoostedTrees",
    "HwesForecaster",
    "HwesState",
    "ModelId",
    "NaiveForecaster",
    "NotFittedError",
    "SesForecaster",
    "arima_forecast",
    "ensemble_forecast",
    "fit_arima",
    "fit_arima_pair",
    "fit_boosted_trees",
    "fit_gam",
    "fit_hwes",
    "fit_ses",
    "gam_decompose",
    "gam_predict",
    "hwes_forecast",
    "iterate_one_step",
    "lasso_objective",
    "make_window_features",
    "naive_forecast",
    "nelder_mead",
    "one_step_features",
    "priority_rank",
    "select_lambda",
    "train_pooled_trees",
]
