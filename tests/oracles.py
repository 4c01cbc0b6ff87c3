"""Straight-line reference implementations used as independent oracles.

Nothing here imports the package under test, so agreement between the two
routes is meaningful. The scalar oracles use plain Python loops and the math
module only. Three numpy references solve the whole problem the long way
round: a CNN that convolves every position of the window; the tree trainer
that sorts every feature at every node, which the presorted trainer must
reproduce bit for bit; and the lasso homotopy that factors its active
columns afresh at every kink, which the path that carries one factorization
must match to rounding. The fit kernels' array formulations (Nelder-Mead
on a numpy simplex, lag polynomials accumulated into zeroed arrays, the
smoothing recursions on numpy scalars, the CNN's cone as one object per
layer) are kept verbatim as well: the kernels must reproduce them bit for
bit.
"""
import math
from dataclasses import dataclass
from itertools import product

import numpy as np


def rmse_bruteforce(actual, predicted):
    assert len(actual) == len(predicted) and len(actual) > 0
    total = 0.0
    for a, p in zip(actual, predicted):
        total += (a - p) ** 2
    return math.sqrt(total / len(actual))


def nrmse_bruteforce(actual, predicted):
    lo = min(actual)
    hi = max(actual)
    if hi == lo:
        return None
    return rmse_bruteforce(actual, predicted) / (hi - lo)


def mape_bruteforce(actual, predicted):
    # abs of the whole ratio: identical to |y - yhat| / y on the sales
    # domain (y >= 0) and keeps the metric nonnegative off it.
    assert len(actual) == len(predicted) and len(actual) > 0
    total = 0.0
    used = 0
    skipped = 0
    for a, p in zip(actual, predicted):
        if a == 0:
            skipped += 1
            continue
        total += abs((a - p) / a)
        used += 1
    if used == 0:
        return None, skipped
    return total / used, skipped


def ses_recursion(values, alpha):
    """Textbook simple exponential smoothing; returns (one-step SSE, final level)."""
    level = values[0]
    sse = 0.0
    for y in values[1:]:
        err = y - level
        sse += err * err
        level = alpha * y + (1.0 - alpha) * level
    return sse, level


def holt_winters_recursion(values, m, alpha, beta, gamma, level, trend, seasonal):
    """Textbook additive Holt-Winters updates from a given initial state.

    Returns (one-step SSE, level, trend, seasonal list) after consuming every
    value. seasonal[t % m] plays the role of s_{t-m}.
    """
    seasonal = list(seasonal)
    sse = 0.0
    for t, y in enumerate(values):
        s = seasonal[t % m]
        forecast = level + trend + s
        err = y - forecast
        sse += err * err
        new_level = alpha * (y - s) + (1.0 - alpha) * (level + trend)
        new_trend = beta * (new_level - level) + (1.0 - beta) * trend
        seasonal[t % m] = gamma * (y - level - trend) + (1.0 - gamma) * s
        level, trend = new_level, new_trend
    return sse, level, trend, seasonal


def median_bruteforce(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def conv1d_causal_bruteforce(x, weight, bias, dilation):
    """Triple-loop dilated causal convolution.

    x is (batch, in_channels, length) nested lists; weight is
    (out_channels, in_channels, kernel); tap k reads input
    t - (kernel-1-k)*dilation, out-of-range reads are zero.
    """
    batch = len(x)
    out_channels = len(weight)
    in_channels = len(weight[0])
    kernel = len(weight[0][0])
    length = len(x[0][0])
    out = []
    for b in range(batch):
        rows = []
        for o in range(out_channels):
            row = []
            for t in range(length):
                acc = bias[o]
                for i in range(in_channels):
                    for k in range(kernel):
                        src = t - (kernel - 1 - k) * dilation
                        if src >= 0:
                            acc += weight[o][i][k] * x[b][i][src]
                row.append(acc)
            rows.append(row)
        out.append(rows)
    return out


def full_length_cnn(convs, dense_weight, dense_bias, X, y):
    """Dilated causal conv+ReLU stack over every window position, head on the last.

    convs is [(weight (out, in, kernel), bias, dilation)], X is (batch,
    window); positions before the window read zeros. Returns (predictions,
    gradients of the mean squared error in the order conv weights and biases
    layer by layer, then dense weight and bias).
    """
    batch, length = X.shape
    x = X[:, None, :]
    cache = []
    for weight, bias, dilation in convs:
        kernel = weight.shape[2]
        pad = (kernel - 1) * dilation
        padded = np.concatenate([np.zeros((batch, x.shape[1], pad)), x], axis=2)
        z = np.broadcast_to(bias[None, :, None], (batch, len(bias), length)).copy()
        for k in range(kernel):
            z += np.matmul(weight[:, :, k], padded[:, :, k * dilation : k * dilation + length])
        cache.append((padded, z))
        x = np.maximum(z, 0.0)
    last = x[:, :, -1]
    pred = last @ dense_weight + dense_bias
    grad_pred = 2.0 * (pred - y) / batch
    grad_x = np.zeros_like(x)
    grad_x[:, :, -1] = np.outer(grad_pred, dense_weight)
    grads = [grad_pred @ last, np.array([grad_pred.sum()])]
    for (weight, bias, dilation), (padded, z) in zip(reversed(convs), reversed(cache)):
        kernel = weight.shape[2]
        grad_z = np.where(z > 0, grad_x, 0.0)
        grad_weight = np.zeros_like(weight)
        grad_padded = np.zeros_like(padded)
        for k in range(kernel):
            segment = padded[:, :, k * dilation : k * dilation + length]
            grad_weight[:, :, k] = np.matmul(grad_z, segment.transpose(0, 2, 1)).sum(axis=0)
            grad_padded[:, :, k * dilation : k * dilation + length] += np.matmul(weight[:, :, k].T, grad_z)
        grads[:0] = [grad_weight, grad_z.sum(axis=(0, 2))]
        grad_x = grad_padded[:, :, (kernel - 1) * dilation :]
    return pred, grads


class Layer:
    param_names: tuple = ()

    def params(self) -> list:
        return [getattr(self, name) for name in self.param_names]

    def grads(self) -> list:
        return [getattr(self, "grad_" + name) for name in self.param_names]

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def causal_taps(positions, kernel_size: int, dilation: int) -> np.ndarray:
    """(len(positions), kernel_size) input positions each output position reads.

    Tap k (0-based) reads position t - (kernel-1-k)*dilation, so the last tap
    is the current step.
    """
    lags = dilation * np.arange(kernel_size - 1, -1, -1)
    return np.asarray(positions)[:, None] - lags


class DilatedCausalConv1d(Layer):
    """Causal conv over tap-ordered input: (batch, outputs*kernel, in) -> (batch, outputs, out).

    The dilation lives in which positions the network feeds the layer
    (causal_taps of its outputs, raveled), not in the layer. Weights are
    stored (kernel, in_channels, out_channels), so the taps of one output
    position form one row of the matrix multiply.
    """

    param_names = ("weight", "bias")

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, rng):
        scale = np.sqrt(2.0 / (in_channels * kernel_size))
        # drawn (out, in, kernel) so a seed gives the same weights whatever the storage order
        self.weight = rng.normal(0.0, scale, size=(out_channels, in_channels, kernel_size)).transpose(2, 1, 0).copy()
        self.bias = np.zeros(out_channels)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        kernel, in_channels, out_channels = self.weight.shape
        if x.ndim != 3 or x.shape[2] != in_channels or x.shape[1] % kernel:
            raise ValueError(f"expected (batch, a multiple of {kernel} positions, {in_channels}), got {x.shape}")
        self._in_shape = x.shape
        self._cols = x.reshape(-1, kernel * in_channels)
        out = self._cols @ self.weight.reshape(-1, out_channels) + self.bias
        return out.reshape(x.shape[0], x.shape[1] // kernel, out_channels)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out_channels = self.weight.shape[2]
        flat = grad_out.reshape(-1, out_channels)
        self.grad_bias += flat.sum(axis=0)
        self.grad_weight += (self._cols.T @ flat).reshape(self.weight.shape)
        return (flat @ self.weight.reshape(-1, out_channels).T).reshape(self._in_shape)


class Relu(Layer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return np.where(self._mask, grad_out, 0.0)


class DenseLastStep(Layer):
    """Linear head over the channels of the final time step only."""

    param_names = ("weight", "bias")

    def __init__(self, in_channels: int, rng):
        scale = np.sqrt(1.0 / in_channels)
        self.weight = rng.normal(0.0, scale, size=in_channels)
        self.bias = np.zeros(1)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._last = x[:, -1, :]
        self._in_shape = x.shape
        return self._last @ self.weight + self.bias[0]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        self.grad_weight += grad_out @ self._last
        self.grad_bias[0] += grad_out.sum()
        grad_in = np.zeros(self._in_shape)
        grad_in[:, -1, :] = np.outer(grad_out, self.weight)
        return grad_in


class LayerStackCnn:
    """The conv+ReLU stack over the head's cone as one object per layer, each with its own arrays."""

    def __init__(self, input_window, kernel_size, dilations, channels, seed):
        rng = np.random.default_rng(seed)
        positions = np.array([input_window - 1])
        for dilation in reversed(dilations):
            positions = causal_taps(positions, kernel_size, dilation).ravel()
        self.inputs = positions
        self.layers = []
        in_channels = 1
        for _ in dilations:
            self.layers.append(DilatedCausalConv1d(in_channels, channels, kernel_size, rng))
            self.layers.append(Relu())
            in_channels = channels
        self.layers.append(DenseLastStep(in_channels, rng))

    def flat_params(self):
        return np.concatenate([p.ravel() for layer in self.layers for p in layer.params()])

    def forward(self, windows):
        x = np.asarray(windows, dtype=float)[:, self.inputs, None]
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def loss_gradient(self, X, y):
        """Gradient of the batch's mean squared error, flattened layer by layer."""
        for layer in self.layers:
            for grad in layer.grads():
                grad.fill(0.0)
        diff = self.forward(X) - y
        grad = 2.0 * diff / len(y)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return np.concatenate([g.ravel() for layer in self.layers for g in layer.grads()])


def lasso_objective(design, target, beta, lam):
    """(1/2n)||y - M beta||^2 + lam * sum_{j>0} |beta_j|; column 0 is the unpenalized intercept."""
    M = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    r = y - M @ beta
    return float((r @ r) / (2 * len(y)) + lam * np.abs(beta[1:]).sum())


def lasso_path_refactoring(design, target, lams, max_steps=1_000):
    """The lasso homotopy that factors the active columns afresh at every kink.

    Same path, events and set-aside rule as ``lasso_path``, with the same
    tolerances (1e-10 for dead columns, dependent columns and the path end),
    but each kink runs ``np.linalg.qr`` on the active columns and solves on R,
    instead of carrying one factorization along the path. Inputs are assumed
    finite, lambdas non-negative.
    """
    M = np.asarray(design, dtype=float)
    y = np.asarray(target, dtype=float)
    lams = np.asarray(lams, dtype=float).reshape(-1)
    n = len(y)
    means = M[:, 1:].mean(axis=0)
    X = M[:, 1:] - means
    y_mean = float(y.mean())
    y_centered = y - y_mean
    gram = (X.T @ X) / n
    rho = (X.T @ y_centered) / n
    raw_norm = np.sqrt(np.mean(M[:, 1:] ** 2, axis=0))
    live = np.sqrt(gram.diagonal()) > 1e-10 * raw_norm

    coefs = np.zeros((len(lams), X.shape[1]))
    pending = sorted(range(len(lams)), key=lambda i: -lams[i])
    lam_now = lam_top = float(np.max(np.abs(rho[live]), initial=0.0))
    lam_floor = float(lams.min(initial=lam_now))
    while pending and lams[pending[0]] >= lam_now:
        pending.pop(0)
    active, signs = [], []
    set_aside = np.zeros(len(live), dtype=bool)
    joined, left, left_sign = None, -1, 0.0
    if pending:
        joined = int(np.argmax(np.where(live, np.abs(rho), -1.0)))
        active, signs = [joined], [float(np.sign(rho[joined]))]
    steps = 0
    while pending:
        steps += 1
        if steps > max_steps:
            raise ValueError(f"lasso path did not reach lambda={lam_floor} within {max_steps} steps")
        A, s = np.array(active), np.array(signs)
        Q, R = np.linalg.qr(X[:, A])
        sol = np.linalg.solve(R, np.column_stack([Q.T @ y_centered, np.linalg.solve(R.T, s)]))
        a, d = sol[:, 0], n * sol[:, 1]
        b_now = a - lam_now * d
        step, event = lam_now - lam_floor, None
        free = live & ~set_aside
        free[A] = False
        cand = np.flatnonzero(free)
        if len(cand):
            c = rho[cand] - gram[np.ix_(cand, A)] @ b_now
            rate = gram[np.ix_(cand, A)] @ d
            for sign, slack, closing in ((1.0, lam_now - c, 1.0 - rate), (-1.0, lam_now + c, 1.0 + rate)):
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
        if event is not None and lam_now - step <= 1e-10 * lam_top:
            event = None
        lam_next = lam_now - step if event is not None else lam_floor
        while pending and lams[pending[0]] >= lam_next:
            i = pending.pop(0)
            b_i = a - lams[i] * d
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
            if np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(X[:, j]):
                set_aside[j] = True
            else:
                active.append(j)
                signs.append(sign)
                joined = j
    intercept = y_mean - coefs @ means
    return np.column_stack([intercept, coefs])


def _midranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def wilcoxon_enumeration(diffs):
    """Exact two-sided signed-rank p-value by enumerating all 2^n sign vectors.

    Zero differences are dropped; ties get midranks. Returns (W, p) where W
    is the sum of ranks of the positive differences. Only feasible for small
    n; this is the ground truth the fast implementation must match.
    """
    d = [x for x in diffs if x != 0]
    n = len(d)
    if n == 0:
        raise ValueError("degenerate sample: all differences zero")
    ranks = _midranks([abs(x) for x in d])
    w_plus = sum(r for x, r in zip(d, ranks) if x > 0)
    # Work in doubled-rank integers so comparisons are exact.
    int_ranks = [int(round(2 * r)) for r in ranks]
    w2_obs = int(round(2 * w_plus))
    count_le = 0
    count_ge = 0
    for signs in product((0, 1), repeat=n):
        w2 = sum(r for s, r in zip(signs, int_ranks) if s)
        if w2 <= w2_obs:
            count_le += 1
        if w2 >= w2_obs:
            count_ge += 1
    denom = 2 ** n
    p = min(1.0, 2.0 * min(count_le / denom, count_ge / denom))
    return w_plus, p


def kpss_level_statistic(values):
    """KPSS level-stationarity statistic (Kwiatkowski et al. 1992).

    Squared partial sums of the demeaned series over n^2 times the
    Bartlett-window long-run variance at lag floor(3 sqrt(n) / 13).
    """
    n = len(values)
    mean = sum(values) / n
    e = [v - mean for v in values]
    lags = math.floor(3.0 * math.sqrt(n) / 13.0)
    long_run = sum(x * x for x in e) / n
    for s in range(1, lags + 1):
        weight = 1.0 - s / (lags + 1.0)
        long_run += 2.0 * weight * sum(e[t] * e[t - s] for t in range(s, n)) / n
    partial = 0.0
    total = 0.0
    for x in e:
        partial += x
        total += partial * partial
    return total / (n * n * long_run)


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def best_split_sorting(X, y, min_samples_leaf):
    """Exact greedy scan that sorts each feature of the node; (feature, threshold, gain) or None.

    The gain of a boundary is S_L²/n_L + S_R²/n_R − S²/n, from sums of the
    targets on each side (Breiman et al. 1984; XGBoost eq. 7 with unit hessians).
    """
    n = len(y)
    total_sum = y.sum()
    parent = total_sum * total_sum / n
    best = None
    best_gain = 1e-12  # require a strictly positive improvement
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        # candidate boundaries: value changes with enough rows on both sides
        boundaries = np.nonzero(xs[:-1] != xs[1:])[0]
        boundaries = boundaries[
            (boundaries >= min_samples_leaf - 1) & (boundaries <= n - 1 - min_samples_leaf)
        ]
        if len(boundaries) == 0:
            continue
        csum = np.cumsum(ys)
        nl = boundaries + 1.0
        nr = n - nl
        sl = csum[boundaries]
        score = sl * sl / nl + (total_sum - sl) ** 2 / nr
        i = int(np.argmax(score))  # first maximum = lowest threshold
        gain = float(score[i]) - parent
        if gain > best_gain:
            b = boundaries[i]
            best_gain = gain
            threshold = (xs[b] + xs[b + 1]) / 2.0
            best = (j, threshold if threshold < xs[b + 1] else xs[b], gain)
    return best


def grow_sorting(X, y, depth, max_depth, min_samples_leaf):
    node = TreeNode(value=float(y.mean()))
    if depth >= max_depth or len(y) < 2 * min_samples_leaf:
        return node
    split = best_split_sorting(X, y, min_samples_leaf)
    if split is None:
        return node
    feature, threshold, _ = split
    mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = grow_sorting(X[mask], y[mask], depth + 1, max_depth, min_samples_leaf)
    node.right = grow_sorting(X[~mask], y[~mask], depth + 1, max_depth, min_samples_leaf)
    return node


def tree_predict_rows(root, X):
    """Route every row of X down the tree, one row at a time."""
    out = np.empty(len(X))
    for i, row in enumerate(X):
        node = root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.value
    return out


def boosted_trees_sorting(X, y, n_rounds, learning_rate, max_depth, min_samples_leaf):
    """Squared-loss boosting over sort-per-node trees; returns (base value, roots)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    base = float(y.mean())
    current = np.full(len(y), base)
    roots = []
    for _ in range(n_rounds):
        residual = y - current
        root = grow_sorting(X, residual, 0, max_depth, min_samples_leaf)
        roots.append(root)
        current += learning_rate * tree_predict_rows(root, X)
    return base, roots


def boosted_trees_predict(base, roots, learning_rate, X):
    out = np.full(len(X), base)
    for root in roots:
        out += learning_rate * tree_predict_rows(root, X)
    return out


def nelder_mead_arrays(objective, x0, maxfev=None, xatol=1e-4, fatol_rel=1e-8, initial_step=0.1):
    """Nelder-Mead on a numpy simplex, re-sorted by a stable argsort every iteration."""
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


def lag_polynomials_accumulated(order, params):
    """(AR, MA) lag polynomials accumulated term by term into zeroed arrays.

    order has p, q, P, Q and m; params is phi..., theta..., Phi..., Theta...
    """
    p, q, P, Q, m = order.p, order.q, order.P, order.Q, order.m
    params = np.asarray(params, dtype=float)
    phi = params[:p]
    theta = params[p : p + q]
    Phi = params[p + q : p + q + P]
    Theta = params[p + q + P :]
    a = np.zeros(p + P * m + 1)
    a[0] = 1.0
    a[1 : p + 1] = -phi
    for j in range(P):
        lag = (j + 1) * m
        a[lag] += -Phi[j]
        a[lag + 1 : lag + p + 1] += Phi[j] * phi
    b = np.zeros(q + Q * m + 1)
    b[0] = 1.0
    b[1 : q + 1] = theta
    for j in range(Q):
        lag = (j + 1) * m
        b[lag] += Theta[j]
        b[lag + 1 : lag + q + 1] += Theta[j] * theta
    return a, b


def ses_pass_arrays(values, alpha):
    """Simple smoothing pass over a numpy array; returns (one-step SSE, level)."""
    level = values[0]
    sse = 0.0
    for y in values[1:]:
        err = y - level
        sse += err * err
        level += alpha * err
    return sse, level


def hwes_pass_arrays(values, m, alpha, beta, gamma, level, trend, seasonal):
    """Additive Holt-Winters pass over numpy arrays; returns (SSE, level, trend, seasonal array)."""
    seasonal = np.array(seasonal, dtype=float)
    sse = 0.0
    for t, y in enumerate(values):
        pos = t % m
        s_old = seasonal[pos]
        pred = level + trend + s_old
        err = y - pred
        sse += err * err
        prev_level = level
        prev_trend = trend
        level = alpha * (y - s_old) + (1.0 - alpha) * (level + trend)
        trend = beta * (level - prev_level) + (1.0 - beta) * trend
        seasonal[pos] = gamma * (y - prev_level - prev_trend) + (1.0 - gamma) * s_old
    return sse, level, trend, seasonal


def difference_by_diffs(values, d, D, m):
    """Differencing by d first differences, then D seasonal differences of lag m."""
    w = np.asarray(values, dtype=float)
    for _ in range(d):
        w = np.diff(w)
    for _ in range(D):
        if len(w) <= m:
            return np.empty(0)
        w = w[m:] - w[:-m]
    return w


def css_residuals_recursion(wc, a, b):
    """e_t = sum_j a_j wc_{t-j} - sum_{j>=1} b_j e_{t-j}, with zeros before the first point."""
    eps = np.zeros(len(wc))
    for t in range(len(wc)):
        acc = 0.0
        for j in range(len(a)):
            if t - j >= 0:
                acc += a[j] * wc[t - j]
        for j in range(1, len(b)):
            if t - j >= 0:
                acc -= b[j] * eps[t - j]
        eps[t] = acc
    return eps


def arima_path_recursion(order, params, mean, values, horizon):
    """ARIMA forecast path, step by step and lag by lag, not floored.

    The ARMA recursion on the differenced, mean-centred scale with future
    shocks set to zero, then the differencing inverted one step at a time.
    order has p, d, q, P, D, Q and m; mean is the differenced series' mean.
    """
    w = difference_by_diffs(values, order.d, order.D, order.m)
    wc = w - mean
    a, b = lag_polynomials_accumulated(order, params)
    eps = css_residuals_recursion(wc, a, b)

    n = len(wc)
    wc_ext = np.concatenate([wc, np.zeros(horizon)])
    eps_ext = np.concatenate([eps, np.zeros(horizon)])
    for h in range(1, horizon + 1):
        t = n + h - 1
        acc = 0.0
        for j in range(1, len(a)):
            if t - j >= 0:
                acc -= a[j] * wc_ext[t - j]
        for j in range(max(h, 1), len(b)):
            if t - j >= 0:
                acc += b[j] * eps_ext[t - j]
        wc_ext[t] = acc
    w_future = wc_ext[n:] + mean

    # invert the differencing: y_t = w_t - sum_{j>=1} pi_j y_{t-j}
    pi = np.array([1.0])
    for _ in range(order.d):
        pi = np.convolve(pi, [1.0, -1.0])
    seasonal_poly = np.zeros(order.m + 1)
    seasonal_poly[0] = 1.0
    seasonal_poly[-1] = -1.0
    for _ in range(order.D):
        pi = np.convolve(pi, seasonal_poly)
    if len(pi) == 1:
        out = w_future
    else:
        hist = list(values)
        out = np.empty(horizon)
        for h in range(horizon):
            y = w_future[h]
            for j in range(1, len(pi)):
                if len(hist) - j >= 0:
                    y -= pi[j] * hist[len(hist) - j]
            out[h] = y
            hist.append(y)
    return out
