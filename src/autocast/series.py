"""Core time-series types: calendar periods and per-product sales histories.

Periods are integer counts since a fixed epoch (month 0 = January 2000,
week 0 = the ISO week containing Monday 2000-01-03), so period arithmetic is
plain integer arithmetic and two series can be aligned by index alone.
"""
from __future__ import annotations

import datetime as dt
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

_MONTH_EPOCH_YEAR = 2000
_WEEK_EPOCH_MONDAY = dt.date(2000, 1, 3)

_MONTH_LABEL = re.compile(r"^(\d{4})-(\d{2})$")
_WEEK_LABEL = re.compile(r"^(\d{4})-W(\d{2})$")


class Frequency(str, Enum):
    """Aggregation granularity of a sales series."""

    MONTHLY = "monthly"
    WEEKLY = "weekly"

    @property
    def periods_per_year(self) -> int:
        return 12 if self is Frequency.MONTHLY else 52

    @property
    def default_horizon(self) -> int:
        """Forecast length used when a config does not override it."""
        return 18 if self is Frequency.MONTHLY else 78

    @property
    def default_fourier_order(self) -> int:
        """Fourier order for the additive decomposition model."""
        return 3 if self is Frequency.MONTHLY else 10

    @property
    def default_input_window(self) -> int:
        """Input window of the shared convolutional net: two years."""
        return 2 * self.periods_per_year


@dataclass(frozen=True)
class Period:
    """One calendar bucket (a month or an ISO week) identified by its index."""

    frequency: Frequency
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"period index must be >= 0, got {self.index}")

    @classmethod
    def from_date(cls, frequency: Frequency, day: dt.date) -> "Period":
        if frequency is Frequency.MONTHLY:
            index = (day.year - _MONTH_EPOCH_YEAR) * 12 + (day.month - 1)
        else:
            monday = day - dt.timedelta(days=day.weekday())
            index = (monday - _WEEK_EPOCH_MONDAY).days // 7
        if index < 0:
            raise ValueError(f"date {day.isoformat()} lies before the {frequency.value} epoch")
        return cls(frequency, index)

    @classmethod
    def parse(cls, frequency: Frequency, label: str) -> "Period":
        """Inverse of :meth:`label` (``YYYY-MM`` monthly, ``YYYY-Www`` weekly)."""
        if frequency is Frequency.MONTHLY:
            m = _MONTH_LABEL.match(label)
            if not m or not 1 <= int(m.group(2)) <= 12:
                raise ValueError(f"invalid monthly period label {label!r}")
            return cls.from_date(frequency, dt.date(int(m.group(1)), int(m.group(2)), 1))
        m = _WEEK_LABEL.match(label)
        if not m:
            raise ValueError(f"invalid weekly period label {label!r}")
        try:
            monday = dt.date.fromisocalendar(int(m.group(1)), int(m.group(2)), 1)
        except ValueError as exc:
            raise ValueError(f"invalid weekly period label {label!r}: {exc}") from exc
        return cls.from_date(frequency, monday)

    @property
    def start_date(self) -> dt.date:
        """First calendar day of the period."""
        if self.frequency is Frequency.MONTHLY:
            year, month = divmod(self.index, 12)
            return dt.date(_MONTH_EPOCH_YEAR + year, month + 1, 1)
        return _WEEK_EPOCH_MONDAY + dt.timedelta(weeks=self.index)

    @property
    def position_in_year(self) -> int:
        """Seasonal slot: month-of-year (0..11) or week-of-year (0..51)."""
        return self.index % self.frequency.periods_per_year

    def label(self) -> str:
        if self.frequency is Frequency.MONTHLY:
            year, month = divmod(self.index, 12)
            return f"{_MONTH_EPOCH_YEAR + year:04d}-{month + 1:02d}"
        iso = self.start_date.isocalendar()
        return f"{iso.year:04d}-W{iso.week:02d}"

    def __add__(self, steps: int) -> "Period":
        return Period(self.frequency, self.index + int(steps))

    def __sub__(self, other):
        if isinstance(other, Period):
            if other.frequency is not self.frequency:
                raise ValueError(f"cannot compare {self.frequency.value} and {other.frequency.value} periods")
            return self.index - other.index
        return Period(self.frequency, self.index - int(other))


def _frozen_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SalesSeries:
    """Contiguous per-period sales history for one product.

    A period with no sales is an explicit 0; there are no gaps.
    """

    product_id: str
    frequency: Frequency
    start: Period
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_values(self.values))
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError(f"series {self.product_id!r} must hold a non-empty 1-D value list")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"series {self.product_id!r} contains non-finite values")
        if np.any(self.values < 0):
            raise ValueError(f"series {self.product_id!r} contains negative values")
        if self.start.frequency is not self.frequency:
            raise ValueError("series frequency does not match its start period")

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def end(self) -> Period:
        """Last covered period."""
        return self.start + (len(self) - 1)

    def periods(self) -> list[Period]:
        return [self.start + t for t in range(len(self))]

    def prefix(self, length: int) -> "SalesSeries":
        if not 1 <= length <= len(self):
            raise ValueError(f"prefix length {length} out of range for series of {len(self)}")
        return SalesSeries(self.product_id, self.frequency, self.start, self.values[:length])


@dataclass(frozen=True)
class ForecastResult:
    """One model's forecast horizon for one product."""

    product_id: str
    model_id: str
    start: Period
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_values(self.values))
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("forecast must hold a non-empty 1-D value list")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"forecast for {self.product_id!r} contains non-finite values")
        if np.any(self.values < 0):
            raise ValueError(f"forecast for {self.product_id!r} contains negative values")

    @property
    def horizon(self) -> int:
        return int(self.values.size)

    def periods(self) -> list[Period]:
        return [self.start + t for t in range(self.horizon)]


def split_holdout(series: SalesSeries, holdout: int) -> tuple[SalesSeries, SalesSeries]:
    """Split a series into a training prefix and a holdout suffix.

    The two parts concatenate back to the input. The training part is a
    physically separate object that does not contain holdout values, so a
    model fitted on it cannot leak future information.
    """
    holdout = int(holdout)
    if holdout < 1:
        raise ValueError(f"holdout must be >= 1, got {holdout}")
    if holdout >= len(series):
        raise ValueError(
            f"holdout {holdout} leaves no training data for series of length {len(series)}"
        )
    cut = len(series) - holdout
    train = SalesSeries(series.product_id, series.frequency, series.start, series.values[:cut])
    test = SalesSeries(series.product_id, series.frequency, series.start + cut, series.values[cut:])
    return train, test
