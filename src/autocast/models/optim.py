"""Small dependency-free Nelder-Mead, tuned for many tiny fits.

scipy's wrapper costs more than these objectives do, and the ARIMA order
search runs dozens of fits per product, so the simplex loop is written out here.
Standard coefficients: reflect 1, expand 2, outside-contract 0.5, shrink 0.5.
"""
from __future__ import annotations

import numpy as np


def nelder_mead(
    objective,
    x0,
    maxfev: int | None = None,
    xatol: float = 1e-4,
    fatol_rel: float = 1e-8,
    initial_step: float = 0.1,
):
    """Minimize objective from x0; returns (x_best, f_best, nfev).

    The objective must return a finite float or +inf for invalid points.
    Zero-dimensional inputs are evaluated once and returned as-is.
    """
    x0 = np.asarray(x0, dtype=float)
    ndim = x0.size
    if ndim == 0:
        return x0, float(objective(x0)), 1
    if maxfev is None:
        maxfev = 200 * ndim

    points = np.tile(x0, (ndim + 1, 1))
    for i in range(ndim):
        if points[i + 1, i] == 0.0:
            points[i + 1, i] = initial_step
        else:
            points[i + 1, i] *= 1.0 + initial_step
    values = np.array([float(objective(p)) for p in points])
    nfev = ndim + 1

    while nfev < maxfev:
        order = np.argsort(values, kind="stable")
        points = points[order]
        values = values[order]
        best, worst, second_worst = values[0], values[-1], values[-2]
        if worst - best <= fatol_rel * (abs(best) + 1e-12):
            break
        if np.max(np.abs(points[1:] - points[0])) < xatol:
            break

        centroid = points[:-1].mean(axis=0)
        reflected = centroid + (centroid - points[-1])
        f_reflected = float(objective(reflected))
        nfev += 1
        if f_reflected < best:
            expanded = centroid + 2.0 * (centroid - points[-1])
            f_expanded = float(objective(expanded))
            nfev += 1
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
        elif f_reflected < second_worst:
            points[-1], values[-1] = reflected, f_reflected
        else:
            contracted = centroid + 0.5 * (points[-1] - centroid)
            f_contracted = float(objective(contracted))
            nfev += 1
            if f_contracted < worst:
                points[-1], values[-1] = contracted, f_contracted
            else:
                for i in range(1, ndim + 1):
                    points[i] = points[0] + 0.5 * (points[i] - points[0])
                    values[i] = float(objective(points[i]))
                nfev += ndim

    i = int(np.argmin(values))
    return points[i].copy(), float(values[i]), nfev
