"""Small dependency-free Nelder-Mead, tuned for many tiny fits.

scipy's wrapper costs more than these objectives do, and the ARIMA order
search runs dozens of fits per product, so the simplex loop is written out
here. Standard coefficients: reflect 1, expand 2, outside-contract 0.5,
shrink 0.5.

The simplex lives in Python lists of floats: with at most a handful of
dimensions, per-call numpy overhead would cost more than the arithmetic.
Float arithmetic is the same IEEE double arithmetic as on numpy scalars, and
every operation happens in the order an array formulation does it, so fits
are bit-identical to one. The centroid is a row-by-row sum from 0.0 divided
by ndim, as ``points[:-1].mean(axis=0)`` computes it. The simplex stays in
the order a stable argsort of its values gives: a replaced worst point goes
in by ``bisect_right``, after every point of equal value, because the other
points are already in that order; only a shrink moves them all and re-sorts.
"""
from __future__ import annotations

from bisect import bisect_right

import numpy as np


def _ranked(points, values):
    """The simplex in the order a stable argsort of its values gives."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return [points[i] for i in order], [values[i] for i in order]


def nelder_mead(
    objective,
    x0,
    maxfev: int | None = None,
    xatol: float = 1e-4,
    fatol_rel: float = 1e-8,
    initial_step: float = 0.1,
):
    """Minimize objective from x0; returns (x_best, f_best, nfev).

    The objective receives a list of floats and must return a finite float
    or +inf for invalid points. Zero-dimensional inputs are evaluated once
    and returned as-is.
    """
    x0 = np.asarray(x0, dtype=float)
    ndim = x0.size
    if ndim == 0:
        return x0, float(objective(x0)), 1
    if maxfev is None:
        maxfev = 200 * ndim

    start = x0.ravel().tolist()
    points = [start]
    for i in range(ndim):
        point = start.copy()
        point[i] = initial_step if point[i] == 0.0 else point[i] * (1.0 + initial_step)
        points.append(point)
    values = [float(objective(p)) for p in points]
    nfev = ndim + 1
    points, values = _ranked(points, values)

    while nfev < maxfev:
        best, worst, second_worst = values[0], values[-1], values[-2]
        if worst - best <= fatol_rel * (abs(best) + 1e-12):
            break
        first = points[0]
        if all(abs(v - f) < xatol for point in points[1:] for v, f in zip(point, first)):
            break

        centroid = [0.0] * ndim
        for point in points[:-1]:
            centroid = [c + v for c, v in zip(centroid, point)]
        centroid = [c / ndim for c in centroid]
        last = points[-1]
        reflected = [c + (c - w) for c, w in zip(centroid, last)]
        f_reflected = float(objective(reflected))
        nfev += 1
        if f_reflected < best:
            expanded = [c + 2.0 * (c - w) for c, w in zip(centroid, last)]
            f_expanded = float(objective(expanded))
            nfev += 1
            if f_expanded < f_reflected:
                new, f_new = expanded, f_expanded
            else:
                new, f_new = reflected, f_reflected
        elif f_reflected < second_worst:
            new, f_new = reflected, f_reflected
        else:
            contracted = [c + 0.5 * (w - c) for c, w in zip(centroid, last)]
            f_contracted = float(objective(contracted))
            nfev += 1
            if f_contracted < worst:
                new, f_new = contracted, f_contracted
            else:
                for i in range(1, ndim + 1):
                    points[i] = [f + 0.5 * (v - f) for v, f in zip(points[i], first)]
                    values[i] = float(objective(points[i]))
                nfev += ndim
                points, values = _ranked(points, values)
                continue
        del points[-1], values[-1]
        at = bisect_right(values, f_new)
        points.insert(at, new)
        values.insert(at, f_new)

    # the list is sorted, so its head is the first minimum
    return np.array(points[0]), values[0], nfev
