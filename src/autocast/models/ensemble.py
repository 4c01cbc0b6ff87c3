"""Forecast combination: the elementwise median of the members."""
from __future__ import annotations

import numpy as np

from ..series import ForecastResult
from .base import ModelId

# the models the median ensemble combines; on a product it takes those among
# them that produced a forecast there, and needs at least two
MEMBERS = (ModelId.HWES, ModelId.GAM, ModelId.ARIMA, ModelId.BOOSTED_TREE)


def ensemble_forecast(forecasts) -> ForecastResult:
    """Combine member forecasts for one product into an EnsembleMedian result.

    With an even member count the median is the mean of the two central
    values. Members must agree on product, start, and horizon; being
    forecasts they are never negative, and neither is their median.
    """
    if len(forecasts) < 2:
        raise ValueError(f"ensemble needs at least 2 member forecasts, got {len(forecasts)}")
    first = forecasts[0]
    for other in forecasts[1:]:
        if other.product_id != first.product_id:
            raise ValueError(f"mixed products: {other.product_id!r} vs {first.product_id!r}")
        if other.start != first.start or other.horizon != first.horizon:
            raise ValueError("members disagree on forecast start or horizon")
    return ForecastResult(
        product_id=first.product_id,
        model_id=ModelId.ENSEMBLE_MEDIAN.value,
        start=first.start,
        values=np.median(np.vstack([f.values for f in forecasts]), axis=0),
    )
