"""Seasonal-mean baseline: predict the mean of same-calendar-period history."""
from __future__ import annotations

import numpy as np

from ..series import SalesSeries
from .base import BaseForecaster, ModelId


class NaiveForecaster(BaseForecaster):
    """Mean of all training values in the same month(week)-of-year.

    Positions never seen in training fall back to the overall mean.
    """

    model_id = ModelId.NAIVE

    def _fit(self, series: SalesSeries) -> None:
        m = series.frequency.periods_per_year
        positions = np.array([p.position_in_year for p in series.periods()])
        overall = float(series.values.mean())
        self.by_position_ = np.full(m, overall)
        for pos in range(m):
            mask = positions == pos
            if mask.any():
                self.by_position_[pos] = float(series.values[mask].mean())
        self.next_position_ = (series.end + 1).position_in_year

    def _path(self, horizon: int) -> np.ndarray:
        m = len(self.by_position_)
        return self.by_position_[(self.next_position_ + np.arange(horizon)) % m]
