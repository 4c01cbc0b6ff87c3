"""Small dependency-free optimizers, tuned for many tiny fits.

``nelder_mead`` serves the exponential-smoothing fits, whose bounded,
clamped objectives are not residual vectors. scipy's wrapper costs more than
these objectives do, and each product runs an SES fit and a Holt-Winters fit
in each stage, so the simplex loop is written out here. Standard
coefficients: reflect 1, expand 2, outside-contract 0.5, shrink 0.5.

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

import math
from bisect import bisect_right

import numpy as np

# initial Levenberg-Marquardt damping, relative to the diagonal of J'J
LM_INITIAL_DAMPING = 1e-3
# largest cosine between the residuals and a Jacobian column at a minimum
LM_GTOL = 1e-10
# smallest step, relative to x, that a rejection may shrink to before f counts as minimal
LM_XTOL = 1e-12
MAX_JACOBIANS = 100
# the damping grows at least 2^(k(k+1)/2)-fold over k straight rejections, so
# the step falls below any xtol long before this many
MAX_REJECTIONS = 60
# gain ratios outside this band trigger one parabolic line search along the step
RHO_LOW, RHO_HIGH = 0.9, 1.05
MAX_LINE_STEP = 4.0


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


def levenberg_marquardt(objective, linearize, x0, f0: float, ftol: float, fmin: float = 0.0):
    """Minimize a sum of squares from x0, where it is f0; returns (x, f, n_jacobians, converged).

    ``objective(x)`` returns the sum of squares |r(x)|^2, or +inf where it is
    not finite; ``linearize(x)`` returns the residual vector r(x) and its
    Jacobian J. Trial points are scored by ``objective`` alone, so a rejected
    step costs one evaluation.

    Steps solve (J'J + mu D) dx = -J'r with D = diag(J'J) (Marquardt 1963),
    through one eigendecomposition of the scaled J'J per Jacobian, so a
    rejected step costs no new factorization. mu follows the gain ratio rho
    of actual to predicted decrease (Nielsen 1999): shrunk by up to 3x after a
    good prediction, doubled and more after every rejection. When rho leaves
    [RHO_LOW, RHO_HIGH], f along the accepted step is not the quadratic J'J
    predicts, and one more evaluation tries the minimum of the parabola
    through f(0), f'(0) and f(step).

    Converged means one of: f <= fmin, an exact fit as far as the caller is
    concerned (near f = 0 every step still gains a steady share of f, so the
    relative ftol test alone never ends it); an accepted step lowered f by
    <= ftol relative; every Jacobian column makes a cosine <= LM_GTOL with r
    (Moré 1978); or a rejected step fell below LM_XTOL relative to x, so no
    representable step lowers f. A run stopped by MAX_JACOBIANS or by a non-finite or
    undecomposable J'J is not converged.
    """
    x = np.array(x0, dtype=float)
    f = float(f0)
    mu = LM_INITIAL_DAMPING
    n_jac = 0
    while n_jac < MAX_JACOBIANS:
        if f <= fmin:
            return x, f, n_jac, True
        residuals, jacobian = linearize(x)
        n_jac += 1
        gradient = residuals @ jacobian
        normal = jacobian.T @ jacobian
        # k is at most a handful, so the scalar work runs on Python floats
        diagonal = normal.diagonal().tolist()
        g = gradient.tolist()
        if not math.isfinite(f + sum(diagonal) + sum(g)):
            return x, f, n_jac, False
        if all(gi * gi <= LM_GTOL * LM_GTOL * di * f for gi, di in zip(g, diagonal)):
            return x, f, n_jac, True
        # a column that vanishes here still gets some damping
        floor = 1e-12 * max(diagonal)
        scale = np.sqrt([max(d, floor) for d in diagonal])
        try:
            eigenvalues, vectors = np.linalg.eigh(normal / np.outer(scale, scale))
        except np.linalg.LinAlgError:
            return x, f, n_jac, False
        eigenvalues = [max(v, 0.0) for v in eigenvalues.tolist()]
        coords = ((gradient / scale) @ vectors).tolist()
        growth = 2.0
        for _ in range(MAX_REJECTIONS):
            step = (vectors @ [-c / (v + mu) for c, v in zip(coords, eigenvalues)]) / scale
            trial = x + step
            f_trial = float(objective(trial))
            if f_trial < f:
                break
            if math.sqrt(step @ step) <= LM_XTOL * (math.sqrt(x @ x) + LM_XTOL):
                return x, f, n_jac, True
            mu *= growth
            growth *= 2.0
        else:
            return x, f, n_jac, False
        # f - |r + J dx|^2, in the eigenbasis
        predicted = sum(c * c * (v + 2.0 * mu) / ((v + mu) * (v + mu)) for c, v in zip(coords, eigenvalues))
        ratio = (f - f_trial) / predicted if predicted > 0.0 else 0.0
        if not RHO_LOW <= ratio <= RHO_HIGH:
            slope = 2.0 * float(gradient @ step)
            curvature = f_trial - f - slope
            if curvature > 0.0:
                alpha = min(-slope / (2.0 * curvature), MAX_LINE_STEP)
                if abs(alpha - 1.0) > 0.1:
                    longer = x + alpha * step
                    f_longer = float(objective(longer))
                    if f_longer < f_trial:
                        trial, f_trial = longer, f_longer
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
        gain = f - f_trial
        x, f = trial, f_trial
        if gain <= ftol * (f + gain):
            return x, f, n_jac, True
    return x, f, n_jac, False
