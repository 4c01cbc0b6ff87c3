"""Lasso regression with an unpenalized intercept.

Minimizes (1/2n)||y - M b||^2 + lambda * sum_{j>0} |b_j|. Column 0 is the
all-ones intercept; all other columns are expected to be standardized by the
caller.

``lasso_path`` solves exactly: it follows the piecewise-linear solution path
from lambda_max down with the lasso form of least angle regression (Efron,
Hastie, Johnstone & Tibshirani 2004, "Least Angle Regression"). Exactly one
column joins or leaves the active set at each kink, so the path carries one
QR factorization of the active columns across the kinks instead of solving
afresh at each. ``lasso_coordinate_descent`` is the plain cyclic coordinate
descent solver, kept as the reference the path is checked against.
"""
from __future__ import annotations

import math

import numpy as np

CONVERGENCE_TOL = 1e-8
MAX_SWEEPS = 10_000
MAX_PATH_STEPS = 1_000
# a column whose centered norm is this small relative to its raw norm is
# constant on the rows given (e.g. a hinge whose knot lies beyond a short head)
DEAD_COLUMN_TOL = 1e-10
# a joining column whose residual against the active columns keeps less than
# this share of its norm adds no direction (saturated or duplicate columns)
DEPENDENT_COLUMN_TOL = 1e-10
# kinks this close to lambda = 0, relative to lambda_max, are rounding noise in
# the correlations, not events: the last segment runs on to lambda = 0
PATH_END_TOL = 1e-10
# the two signs a joining column can take, as a column for broadcasting
JOIN_SIGNS = np.array([[1.0], [-1.0]])


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


def _center(M: np.ndarray, y: np.ndarray) -> tuple:
    """(column means, X, target mean, y_c, rho, live) of the penalized problem.

    The intercept is projected out by centering y and the penalized columns
    on the given rows: X and y_c. rho = X'y_c/n is each column's correlation
    with the centered target, and live marks the columns not constant on the
    rows. Raises ValueError on a non-finite correlation.
    """
    n = len(y)
    means = M[:, 1:].mean(axis=0)
    X = M[:, 1:] - means
    y_mean = float(y.mean())
    y_centered = y - y_mean
    with np.errstate(over="ignore", invalid="ignore"):
        col_scale = np.einsum("ij,ij->j", X, X) / n  # the diagonal of G = X'X/n
        rho = (X.T @ y_centered) / n
    bad = ~(np.isfinite(col_scale) & np.isfinite(rho))
    if bad.any():
        raise ValueError(f"non-finite intermediate in column {int(np.argmax(bad)) + 1}")
    raw_norm = np.sqrt(np.mean(M[:, 1:] ** 2, axis=0))
    live = np.sqrt(col_scale) > DEAD_COLUMN_TOL * raw_norm
    return means, X, y_mean, y_centered, rho, live


def _first_kink(rho: np.ndarray, live: np.ndarray) -> float:
    """Where the path starts: the largest |rho| of a live column."""
    return float(np.max(np.abs(rho[live]), initial=0.0))


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

    The QR factors of the centered active columns are carried along the
    path rather than recomputed at every kink: a join appends its column to
    Q by Gram-Schmidt and extends R^-1 by one column, a leave refactors the
    remaining columns once, and in between a kink costs only matrix-vector
    products.
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
    means, X, y_mean, y_centered, rho, live = _center(M, y)

    k = X.shape[1]
    coefs = np.zeros((len(lams), k))
    pending = sorted(range(len(lams)), key=lambda i: -lams[i])
    lam_now = lam_top = _first_kink(rho, live)
    lam_floor = float(lams.min(initial=lam_now))
    while pending and lams[pending[0]] >= lam_now:
        pending.pop(0)  # at or above lambda_max every penalized coefficient is zero
    # X_A = QR, the active columns in join order. a = G_AA^-1 rho_A is the
    # least-squares fit R^-1 Q'y and d = n (R'R)^-1 s_A: both are read through
    # the factors, not the normal equations, whose squared condition number
    # costs digits at lambda near 0. R^-1 is kept rather than R because numpy
    # has no triangular solve, so each solve becomes a product. W = G_{:,A}
    # R^-1 = X'Q/n gives every column's correlation with the residual and its
    # rate by two more products. The factors fill the first m columns of
    # buffers sized for the largest independent active set.
    size = min(n, k)
    Q, W = np.zeros((n, size)), np.zeros((k, size))
    R_inv, qty = np.zeros((size, size)), np.zeros(size)
    m = 0
    active, signs = [], []
    # join candidates: live columns neither active nor set aside
    free = live.copy()
    joined, left, left_sign = False, -1, 0.0
    event = None
    if pending:
        j = int(np.argmax(np.where(live, np.abs(rho), -1.0)))
        event = ("join", j, float(np.sign(rho[j])))
    steps = 0
    while True:
        if event is not None:
            kind, j, sign = event
            if kind == "leave":
                at = active.index(j)
                del active[at], signs[at]
                left, left_sign = j, sign
                free = live.copy()
                free[active] = False
                # dropping a middle column leaves R Hessenberg, and restoring
                # it takes one Givens rotation per later column, each a numpy
                # call; one LAPACK factorization of the remaining columns costs
                # less at these sizes, and about one kink in five is a leave
                m = len(active)
                Q_A, R = np.linalg.qr(X[:, active])
                Q[:, :m] = Q_A
                R_inv[:m, :m] = np.linalg.inv(R)
                qty[:m] = Q_A.T @ y_centered
                W[:, :m] = (X.T @ Q_A) / n
            else:
                free[j] = False  # joins, or is set aside until a column leaves
                x = X[:, j]
                proj = Q[:, :m].T @ x
                residual = x - Q[:, :m] @ proj
                if math.sqrt(residual @ residual) > DEPENDENT_COLUMN_TOL * math.sqrt(x @ x):
                    # classical Gram-Schmidt, once more to restore orthogonality
                    again = Q[:, :m].T @ residual
                    residual -= Q[:, :m] @ again
                    proj += again
                    r = math.sqrt(residual @ residual)
                    q = residual / r
                    Q[:, m] = q
                    R_inv[:m, m] = (R_inv[:m, :m] @ proj) / -r
                    R_inv[m, m] = 1.0 / r
                    qty[m] = q @ y_centered
                    W[:, m] = (X.T @ q) / n
                    m += 1
                    active.append(j)
                    signs.append(sign)
                    joined = True
        if not pending:
            break
        steps += 1
        if steps > MAX_PATH_STEPS:
            raise ValueError(f"lasso path did not reach lambda={lam_floor} within {MAX_PATH_STEPS} steps")
        s = np.array(signs)
        R_inv_A, W_A = R_inv[:m, :m], W[:, :m]
        u = s @ R_inv_A  # R^-T s_A
        a = R_inv_A @ qty[:m]
        d = n * (R_inv_A @ u)
        b_now = a - lam_now * d
        # every column's correlation with the residual and its rate dc/dlambda
        rate = n * (W_A @ u)
        c = rho - W_A @ qty[:m] + lam_now * rate
        # lambda falls by `step` to the next kink: the nearest join or leave
        step, event = lam_now - lam_floor, None
        # both join signs in one pass, + before - and the lowest column first
        # on a tie: row 0 is sign +1, row 1 is sign -1
        slack = lam_now - JOIN_SIGNS * c
        closing = 1.0 - JOIN_SIGNS * rate
        ok = (closing > 1e-12) & free
        if left >= 0:
            # a column that just left moves inward from the bound it held
            ok[0 if left_sign > 0 else 1, left] = False
        gaps = np.divide(np.maximum(slack, 0.0), closing, out=np.full(slack.shape, np.inf), where=ok)
        i = int(np.argmin(gaps))
        if gaps.flat[i] < step:
            row, col = divmod(i, k)
            step, event = float(gaps.flat[i]), ("join", col, float(JOIN_SIGNS[row, 0]))
        shrinking = d * s < 0.0
        if joined:
            shrinking[-1] = False
        gaps = np.divide(np.maximum(b_now * s, 0.0), np.abs(d), out=np.full(m, np.inf), where=shrinking)
        i = int(np.argmin(gaps))
        if gaps[i] < step:
            step, event = float(gaps[i]), ("leave", active[i], signs[i])
        if event is not None and lam_now - step <= PATH_END_TOL * lam_top:
            event = None
        lam_next = lam_now - step if event is not None else lam_floor
        while pending and lams[pending[0]] >= lam_next:
            i = pending.pop(0)
            b_i = a - lams[i] * d
            # on a segment every active coefficient carries its sign; the
            # opposite sign is rounding next to the kink where it is zero
            coefs[i, active] = np.where(b_i * s > 0.0, b_i, 0.0)
        lam_now = lam_next
        joined, left = False, -1
        if event is None:
            break
    intercept = y_mean - coefs @ means
    return np.column_stack([intercept, coefs])


def lambda_max(design, target) -> float:
    """Smallest lambda that zeroes every penalized coefficient: `lasso_path`'s first kink."""
    *_, rho, live = _center(np.asarray(design, dtype=float), np.asarray(target, dtype=float))
    return _first_kink(rho, live)


def default_lambda_grid(design, target) -> np.ndarray:
    """10-point log grid from lambda_max down four decades."""
    top = lambda_max(design, target)
    if top <= 0:
        top = 1.0
    return np.geomspace(top, top * 1e-4, 10)


def select_lambda(design, target) -> float:
    """The `default_lambda_grid` point with the least squared error on the last 20% of rows (time-ordered).

    Each grid point is fit on the first 80% of rows. An error counts as
    lower only when it is below the best so far by a relative 1e-12, so
    ties, and errors that differ by rounding, go to the larger lambda (the
    sparser model) whatever the unit of the target.
    """
    M = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    lams = default_lambda_grid(M, y).tolist()
    n = len(y)
    cut = max(1, int(round(n * 0.8)))
    if cut >= n:
        cut = n - 1
    betas = lasso_path(M[:cut], y[:cut], lams)
    errors = np.mean((y[cut:, None] - M[cut:] @ betas.T) ** 2, axis=0)
    best_lam = lams[0]
    best_err = np.inf
    for lam, err in zip(lams, errors):
        if err < best_err * (1 - 1e-12):
            best_err = float(err)
            best_lam = lam
    return best_lam
