"""Additive model over deterministic time features, fit with the lasso.

The design is intercept + linear trend + normalized exponential trend +
Fourier seasonality + a cubic spline block
(t^2, t^3, and one truncated cube per interior knot). Coefficients are read
off the exact lasso path (``lasso_path``); the penalty weight is picked on the
last 20% of rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..series import SalesSeries
from .base import BaseForecaster, ModelId
from .lasso import default_lambda_grid, lasso_path, select_lambda

N_SPLINE_KNOTS = 5


@dataclass(frozen=True)
class GamDesign:
    """Fitted design description: enough to rebuild rows for any t."""

    n_train: int
    season_length: int
    fourier_order: int
    knots: tuple
    beta: tuple            # coefficients on the raw (unstandardized) columns
    column_names: tuple
    lam: float

    @property
    def n_columns(self) -> int:
        return len(self.column_names)


def _column_names(fourier_order: int, n_knots: int) -> tuple:
    names = ["intercept", "trend_linear", "trend_exp"]
    for k in range(1, fourier_order + 1):
        names += [f"fourier_sin{k}", f"fourier_cos{k}"]
    names += ["spline_t2", "spline_t3"]
    names += [f"spline_knot{i}" for i in range(n_knots)]
    return tuple(names)


def build_design_rows(
    t_values,
    n_train: int,
    season_length: int,
    fourier_order: int,
    knots,
) -> np.ndarray:
    """Raw design rows for the given integer time offsets (0 = train start)."""
    t = np.asarray(t_values, dtype=float)
    cols = [np.ones_like(t), t, np.exp(t / n_train) - 1.0]
    for k in range(1, fourier_order + 1):
        angle = 2.0 * np.pi * k * t / season_length
        cols.append(np.sin(angle))
        cols.append(np.cos(angle))
    # spline block scaled to the training range so cubes stay O(1)
    u = t / max(n_train - 1, 1)
    cols.append(u**2)
    cols.append(u**3)
    for knot in knots:
        shifted = u - knot
        cols.append(np.where(shifted > 0, shifted**3, 0.0))
    design = np.column_stack(cols)
    if not np.all(np.isfinite(design)):
        bad = int(np.argwhere(~np.isfinite(design))[0][1])
        raise ValueError(f"non-finite design entry in column {bad}")
    return design


def _standardize(design):
    means = design.mean(axis=0)
    stds = design.std(axis=0)
    means[0] = 0.0
    stds[0] = 1.0
    stds[stds == 0.0] = 1.0
    return (design - means) / stds, means, stds


def _destandardize(beta_std, means, stds):
    beta = beta_std / stds
    beta[0] = beta_std[0] - float((beta_std[1:] * means[1:] / stds[1:]).sum())
    return beta


def fit_gam(
    train: SalesSeries,
    lambda_grid=None,
) -> GamDesign:
    """Fit on the training rows; lambda is picked from lambda_grid, by default `default_lambda_grid`.

    The pipeline always takes the default. A one-entry grid fixes lambda:
    select_lambda returns it unscored.
    """
    n = len(train)
    if n < 12:
        raise ValueError(f"fit needs at least 12 points, got {n}")
    m = train.frequency.periods_per_year
    fourier_order = train.frequency.default_fourier_order
    knots = tuple((i + 1) / (N_SPLINE_KNOTS + 1) for i in range(N_SPLINE_KNOTS))
    design = build_design_rows(np.arange(n), n, m, fourier_order, knots)
    std_design, means, stds = _standardize(design)
    y = train.values
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(std_design, y)
    lam = select_lambda(std_design, y, lambda_grid)
    beta_std = lasso_path(std_design, y, [float(lam)])[0]
    beta = _destandardize(beta_std, means, stds)
    return GamDesign(
        n_train=n,
        season_length=m,
        fourier_order=fourier_order,
        knots=knots,
        beta=tuple(float(b) for b in beta),
        column_names=_column_names(fourier_order, N_SPLINE_KNOTS),
        lam=float(lam),
    )


def gam_predict(design: GamDesign, t_values) -> np.ndarray:
    rows = build_design_rows(
        t_values,
        design.n_train,
        design.season_length,
        design.fourier_order,
        design.knots,
    )
    return rows @ np.array(design.beta)


def gam_decompose(design: GamDesign, t_values) -> dict:
    """Split the fitted value into trend and seasonal paths on the raw scale."""
    rows = build_design_rows(
        t_values,
        design.n_train,
        design.season_length,
        design.fourier_order,
        design.knots,
    )
    beta = np.array(design.beta)
    seasonal = np.array([name.startswith("fourier_") for name in design.column_names])
    return {
        "trend": rows[:, ~seasonal] @ beta[~seasonal],
        "seasonal": rows[:, seasonal] @ beta[seasonal],
    }


class GamForecaster(BaseForecaster):
    """`fit_gam` at the default lambda grid, forecast past the training end."""

    model_id = ModelId.GAM

    def _fit(self, series: SalesSeries) -> None:
        self.design_ = fit_gam(series)

    def _path(self, horizon: int) -> np.ndarray:
        n = self.design_.n_train
        return gam_predict(self.design_, np.arange(n, n + horizon))

    def decompose(self) -> dict:
        """Trend and seasonal paths over the training window."""
        self._check_fitted()
        return gam_decompose(self.design_, np.arange(self.design_.n_train))
