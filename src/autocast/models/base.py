"""Shared forecaster contract and the model identity/priority machinery."""
from __future__ import annotations

from enum import Enum

import numpy as np

from ..series import ForecastResult, SalesSeries


class ModelId(str, Enum):
    NAIVE = "naive"
    SES = "ses"
    HWES = "hwes"
    ARIMA = "arima"
    SARIMA = "sarima"
    GAM = "gam"
    BOOSTED_TREE = "boosted_tree"
    CNN = "cnn"
    ENSEMBLE_MEDIAN = "ensemble_median"


# Tie-break order for equal validation RMSE, best first. Cheaper and more
# interpretable models win ties.
MODEL_PRIORITY = (
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

_PRIORITY_RANK = {model_id: rank for rank, model_id in enumerate(MODEL_PRIORITY)}


def priority_rank(model_id: ModelId) -> int:
    """Smaller rank wins ties."""
    return _PRIORITY_RANK[ModelId(model_id)]


class NotFittedError(RuntimeError):
    pass


class BaseForecaster:
    """The fit/forecast contract shared by every model in the zoo.

    A model supplies ``_fit(series)``, which fits its state or raises, and
    ``_path(horizon)``, its raw forecast path for horizon >= 1. Only this
    class records, checks, floors and dates: fit() runs _fit and then records
    the series as ``train_`` (a fit that raises leaves the model unfitted)
    and returns self; forecast() raises NotFittedError before a successful
    fit and ValueError for a horizon below 1, floors the path at 0, and
    dates it from the period after the training series. Fitted state lives
    in attributes with a trailing underscore.
    """

    model_id: ModelId
    train_: SalesSeries | None = None

    def fit(self, series: SalesSeries) -> "BaseForecaster":
        self.train_ = None
        self._fit(series)
        self.train_ = series
        return self

    def forecast(self, horizon: int) -> ForecastResult:
        self._check_fitted()
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        return ForecastResult(
            product_id=self.train_.product_id,
            model_id=self.model_id.value,
            start=self.train_.end + 1,
            values=np.maximum(np.asarray(self._path(horizon), dtype=float), 0.0),
        )

    def _fit(self, series: SalesSeries) -> None:
        raise NotImplementedError

    def _path(self, horizon: int) -> np.ndarray:
        raise NotImplementedError

    def _check_fitted(self):
        if self.train_ is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted; call fit() first")


def iterate_one_step(predict_one, history: np.ndarray, horizon: int) -> np.ndarray:
    """Roll a one-step predictor forward, feeding predictions back as input.

    Each prediction is floored at 0 before it is appended, so the floor is
    part of the feedback loop, not a cosmetic pass at the end.
    """
    working = np.asarray(history, dtype=float).copy()
    out = np.empty(horizon)
    for h in range(horizon):
        value = max(0.0, float(predict_one(working)))
        out[h] = value
        working = np.append(working, value)
    return out
