"""Lasso regression with an unpenalized intercept.

Minimizes (1/2n)||y - M b||^2 + lambda * sum_{j>0} |b_j|. Column 0 is the
all-ones intercept; all other columns are expected to be standardized by the
caller.

``lasso_path`` solves exactly: it follows the piecewise-linear solution path
from lambda_max down with the lasso form of least angle regression (Efron,
Hastie, Johnstone & Tibshirani 2004, "Least Angle Regression"), one small
solve per kink. ``lasso_coordinate_descent`` is the plain cyclic coordinate
descent solver, kept as the reference the path is checked against.
"""
from __future__ import annotations

import numpy as np

CONVERGENCE_TOL = 1e-8
MAX_SWEEPS = 10_000
MAX_PATH_STEPS = 1_000
# a column whose centered norm is this small relative to its raw norm is
# constant on the rows given (e.g. a spline knot beyond a short head)
DEAD_COLUMN_TOL = 1e-10
# a joining column whose residual against the active columns keeps less than
# this share of its norm adds no direction (saturated or duplicate columns)
DEPENDENT_COLUMN_TOL = 1e-10
# kinks this close to lambda = 0, relative to lambda_max, are rounding noise in
# the correlations, not events: the last segment runs on to lambda = 0
PATH_END_TOL = 1e-10


def soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def lasso_coordinate_descent(design, target, lam: float, tol: float = CONVERGENCE_TOL, max_sweeps: int = MAX_SWEEPS):
    """Returns the coefficient vector after at most ``max_sweeps`` cyclic sweeps.

    Stops once no coordinate moves by ``tol`` in a sweep; raises on
    non-finite intermediates.
    """
    M = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    if M.ndim != 2 or M.shape[0] != y.shape[0]:
        raise ValueError(f"design {M.shape} does not match target {y.shape}")
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    n, k = M.shape
    beta = np.zeros(k)
    # non-finite intermediates are detected and raised explicitly, so the
    # interim numpy warnings on the way there are pure noise
    with np.errstate(invalid="ignore", over="ignore"):
        # the coordinate update needs (1/n) M_j'(y - M beta); with M'M and M'y
        # precomputed each sweep costs O(k^2) instead of O(n k)
        gram = (M.T @ M) / n
        corr = (M.T @ y) / n
        col_scale = gram.diagonal()  # z_j = (1/n) ||M_j||^2
        # q tracks (1/n) M'M beta; it starts at 0 exactly rather than by a
        # matmul, so a non-finite column cannot poison other entries
        q = np.zeros(k)
        for _ in range(max_sweeps):
            max_delta = 0.0
            for j in range(k):
                z = col_scale[j]
                if z == 0.0:
                    continue
                rho = corr[j] - q[j] + z * beta[j]
                if not np.isfinite(rho):
                    raise ValueError(f"non-finite intermediate in column {j}")
                if j == 0:
                    new = rho / z
                else:
                    new = soft_threshold(rho, lam) / z
                delta = new - beta[j]
                if delta != 0.0:
                    q += delta * gram[:, j]
                    beta[j] = new
                    max_delta = max(max_delta, abs(delta))
            if max_delta < tol:
                break
    return beta


def lasso_path(design, target, lams) -> np.ndarray:
    """Exact lasso coefficients at every lambda in ``lams``, from one homotopy.

    Returns an array of shape (len(lams), k) whose row i solves the problem at
    lams[i]. The intercept is projected out by centering y and the penalized
    columns on the given rows, and recovered at the end. Between kinks the
    active coefficients are affine in lambda, b_A = G_AA^-1 (rho_A - lambda s_A),
    so each requested lambda is read off the segment that holds it. A kink is
    where an inactive correlation reaches +-lambda (the column joins) or an
    active coefficient reaches zero (it leaves). Columns that are constant on
    the rows stay at zero; a joining column that lies in the span of the
    active ones (a saturated or duplicated design) is set aside until a
    column leaves. Raises ValueError on non-finite input, a negative lambda,
    or when the path needs more than MAX_PATH_STEPS kinks.
    """
    M = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    lams = np.asarray(lams, dtype=float).reshape(-1)
    if M.ndim != 2 or y.ndim != 1 or M.shape[0] != y.shape[0]:
        raise ValueError(f"design {M.shape} does not match target {y.shape}")
    bad = ~np.all(np.isfinite(M), axis=0)
    if bad.any():
        raise ValueError(f"non-finite design entry in column {int(np.argmax(bad))}")
    if not np.all(np.isfinite(y)):
        raise ValueError("non-finite target value")
    if not np.all(lams >= 0.0):
        raise ValueError(f"lambda must be >= 0, got {lams.min()}")
    n = len(y)
    means = M[:, 1:].mean(axis=0)
    X = M[:, 1:] - means
    y_mean = float(y.mean())
    y_centered = y - y_mean
    with np.errstate(over="ignore", invalid="ignore"):
        gram = (X.T @ X) / n
        rho = (X.T @ y_centered) / n
    bad = ~(np.all(np.isfinite(gram), axis=0) & np.isfinite(rho))
    if bad.any():
        raise ValueError(f"non-finite intermediate in column {int(np.argmax(bad)) + 1}")
    raw_norm = np.sqrt(np.mean(M[:, 1:] ** 2, axis=0))
    live = np.sqrt(gram.diagonal()) > DEAD_COLUMN_TOL * raw_norm

    coefs = np.zeros((len(lams), X.shape[1]))
    pending = sorted(range(len(lams)), key=lambda i: -lams[i])
    lam_now = lam_top = float(np.max(np.abs(rho[live]), initial=0.0))
    lam_floor = float(lams.min(initial=lam_now))
    while pending and lams[pending[0]] >= lam_now:
        pending.pop(0)  # at or above lambda_max every penalized coefficient is zero
    active, signs = [], []
    set_aside = np.zeros(len(live), dtype=bool)
    joined, left, left_sign = None, -1, 0.0
    if pending:
        joined = int(np.argmax(np.where(live, np.abs(rho), -1.0)))
        active, signs = [joined], [float(np.sign(rho[joined]))]
    steps = 0
    while pending:
        steps += 1
        if steps > MAX_PATH_STEPS:
            raise ValueError(f"lasso path did not reach lambda={lam_floor} within {MAX_PATH_STEPS} steps")
        A, s = np.array(active), np.array(signs)
        # a = G_AA^-1 rho_A is the least-squares fit on the active columns and
        # d = n (R'R)^-1 s_A: both solved through the QR factors of those
        # columns, not the normal equations, whose squared condition number
        # costs digits at lambda near 0
        Q, R = np.linalg.qr(X[:, A])
        sol = np.linalg.solve(R, np.column_stack([Q.T @ y_centered, np.linalg.solve(R.T, s)]))
        a, d = sol[:, 0], n * sol[:, 1]
        b_now = a - lam_now * d
        # lambda falls by `step` to the next kink: the nearest join or leave
        step, event = lam_now - lam_floor, None
        free = live & ~set_aside
        free[A] = False
        cand = np.flatnonzero(free)
        if len(cand):
            c = rho[cand] - gram[np.ix_(cand, A)] @ b_now
            rate = gram[np.ix_(cand, A)] @ d  # dc/dlambda on this segment
            for sign, slack, closing in ((1.0, lam_now - c, 1.0 - rate), (-1.0, lam_now + c, 1.0 + rate)):
                # a column that just left moves inward from the bound it held
                ok = (closing > 1e-12) & ~((cand == left) & (sign == left_sign))
                if ok.any():
                    gaps = np.maximum(slack[ok], 0.0) / closing[ok]
                    i = int(np.argmin(gaps))
                    if gaps[i] < step:
                        step, event = float(gaps[i]), ("join", int(cand[ok][i]), sign)
        shrinking = d * s < 0.0
        if joined is not None:
            shrinking[active.index(joined)] = False
        if shrinking.any():
            gaps = np.maximum(b_now[shrinking] * s[shrinking], 0.0) / np.abs(d[shrinking])
            i = int(np.argmin(gaps))
            if gaps[i] < step:
                step, event = float(gaps[i]), ("leave", int(A[shrinking][i]), float(s[shrinking][i]))
        if event is not None and lam_now - step <= PATH_END_TOL * lam_top:
            event = None
        lam_next = lam_now - step if event is not None else lam_floor
        while pending and lams[pending[0]] >= lam_next:
            i = pending.pop(0)
            b_i = a - lams[i] * d
            # on a segment every active coefficient carries its sign; the
            # opposite sign is rounding next to the kink where it is zero
            coefs[i, A] = np.where(b_i * s > 0.0, b_i, 0.0)
        lam_now = lam_next
        joined, left = None, -1
        if event is None:
            break
        kind, j, sign = event
        if kind == "leave":
            at = active.index(j)
            del active[at], signs[at]
            left, left_sign = j, sign
            set_aside[:] = False
        else:
            residual = X[:, j] - Q @ (Q.T @ X[:, j])
            if np.linalg.norm(residual) <= DEPENDENT_COLUMN_TOL * np.linalg.norm(X[:, j]):
                set_aside[j] = True
            else:
                active.append(j)
                signs.append(sign)
                joined = j
    intercept = y_mean - coefs @ means
    return np.column_stack([intercept, coefs])


def lambda_max(design, target) -> float:
    """Smallest lambda that zeroes every penalized coefficient."""
    M = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    centered = y - y.mean()
    n = len(y)
    return float(np.max(np.abs(M[:, 1:].T @ centered)) / n)


def default_lambda_grid(design, target, points: int = 10) -> np.ndarray:
    """10-point log grid from lambda_max down four decades."""
    top = lambda_max(design, target)
    if top <= 0:
        top = 1.0
    return np.geomspace(top, top * 1e-4, points)


def select_lambda(design, target, grid=None) -> float:
    """Pick lambda by squared error on the last 20% of rows (time-ordered)."""
    M = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    if grid is None:
        grid = default_lambda_grid(M, y)
    lams = sorted((float(lam) for lam in grid), reverse=True)
    if len(lams) == 1:
        return lams[0]
    n = len(y)
    cut = max(1, int(round(n * 0.8)))
    if cut >= n:
        cut = n - 1
    betas = lasso_path(M[:cut], y[:cut], lams)
    errors = np.mean((y[cut:, None] - M[cut:] @ betas.T) ** 2, axis=0)
    best_lam = lams[0]
    best_err = np.inf
    for lam, err in zip(lams, errors):
        # ties favor the larger lambda, i.e. the sparser model
        if err < best_err - 1e-12:
            best_err = float(err)
            best_lam = lam
    return best_lam
