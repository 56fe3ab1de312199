"""Kernel long-run covariance machinery.

Estimates the long-run variances of the residual-product scores (the
diagonal of the kernel-weighted sum of sample autocovariances, used for
Studentization) with the quadratic spectral and Bartlett kernels, and an
AR(1) plug-in bandwidth.

Both are sums over lags of products of the scores of every pair of S, so
neither depends on the order of the pairs, and this module alone decides
how the scores are read, by one of two routes:

  * Gram: when the score source offers ``gram_inputs()`` (a ``LazyEta``)
    and r >= |U|(|U| - 1)/2 for the variables U it touches, the sums come
    from |U| x |U| lag Gram matrices of the residuals of U, gathered only
    after this rule, and no score column is formed. With y_t = e_{a,t}
    e_{b,t} and P_k = E[:-k] * E[k:] (P_0 = E * E), [P_k' P_k]_ab =
    sum_t y_t y_{t+k} and [E' E]_ab = sum_t y_t; a lag costs about n |U|^2
    flops, where forming the scores costs n r. Subtracting a mean or v_ab
    from raw sums cancels where it is large next to the column's spread:
    the relative error grows like (mean / sd)^2 times the rounding unit;
  * columns: otherwise (an ndarray, or a sparse set such as one block pair)
    the columns are read SCORE_BLOCK at a time, and ``w_diag`` takes a
    banded Toeplitz product.

The bootstrap draws read the scores SCORE_BLOCK columns at a time too, and
their multiplier covariance (``multiplier_cov``) is built from the same lag
weights, so every kernel weight and score-block width is decided here.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import BandwidthFallback, DegenerateVariance, InsufficientData, \
    InvalidInput

QS = "qs"
BARTLETT = "bartlett"

# score columns read at a time: by the column route of the bandwidth and of
# w_diag, and by the bootstrap draws (bootstrap.DRAW_CHUNK)
SCORE_BLOCK = 256

# on the column route w_diag copies its lag-weight matrix out in blocks of
# TOEPLITZ_ROWS rows, each cut to the band of lags that carry weight
TOEPLITZ_ROWS = 64

RHO_CLIP = 0.97
W_FLOOR_EPS = 1e-8
# the AR(1) plug-in needs this many time points
PLUG_IN_MIN_N = 8


def check_bandwidth(value: float) -> float:
    """``value`` if it is a usable bandwidth S_n (finite and positive),
    else InvalidInput."""
    if not (math.isfinite(value) and value > 0):
        raise InvalidInput("bandwidth must be a positive finite number, "
                           f"got {value}")
    return value


@dataclass(frozen=True)
class KernelSpec:
    kind: str = QS
    truncation_eps: float = 1e-4

    def __post_init__(self):
        if self.kind not in (QS, BARTLETT):
            raise InvalidInput(f"unknown kernel {self.kind!r}")
        if self.truncation_eps < 0:
            raise InvalidInput("truncation_eps must be >= 0")


def kernel_eval(spec: KernelSpec, u):
    """Evaluate the kernel at u (scalar or array)."""
    u = np.asarray(u, dtype=np.float64)
    if spec.kind == BARTLETT:
        out = np.maximum(1.0 - np.abs(u), 0.0)
    else:
        x = 1.2 * np.pi * u  # 6 pi u / 5
        with np.errstate(divide="ignore", invalid="ignore"):
            exact = 3.0 / (x * x) * (np.sin(x) / x - np.cos(x))
        # series for the removable singularity: K = 1 - x^2/10 + x^4/280 - ...
        x2 = x * x
        series = 1.0 - x2 / 10.0 + x2 * x2 / 280.0
        out = np.where(np.abs(x) < 1e-3, series, exact)
    return out if out.ndim else float(out)


def _gram_inputs(eta):
    """(E, a, b, v_ab) from ``eta.gram_inputs()`` when the scores offer it
    and r >= |U|(|U| - 1)/2 for the variables U they touch, else None (a
    sparse set costs less read by columns); E is gathered only after that."""
    offer = getattr(eta, "gram_inputs", None)
    if offer is None:
        return None
    eps, touched, a, b, v_ab = offer()
    u = np.count_nonzero(touched)
    if eta.shape[1] < u * (u - 1) // 2:
        return None
    return eps[:, touched], a, b, v_ab


def _gram_ar1_sums(e, a, b):
    """For the pairs (a, b) of columns of E and z_t = y_t - mean(y) (the
    demeaned score): (sum_{t < n-1} z_t^2, sum_t z_t z_{t+1},
    sum_{t > 0} z_t^2), from the lag-0 and lag-1 Grams, E' E and the first
    and last rows of E. Each |U| x |U| Gram is gathered at [a, b] and
    dropped before the next is formed, and the terms are applied in place
    with the bits of the plain expressions, so a few r-vectors are held at
    a time."""
    n = e.shape[0]

    def product(t):  # y_t of every pair
        out = e[t, a]
        out *= e[t, b]
        return out

    total = (e.T @ e)[a, b]
    p = e[:-1] * e[1:]
    lag1 = (p.T @ p)[a, b]
    del p
    # lag1 = g1 - mean (2 total - first - last) + shared
    mean = total / n
    term = 2.0 * total
    term -= product(0)
    term -= product(-1)
    term *= mean
    lag1 -= term
    shared = np.multiply(n - 1, mean, out=term)  # (n - 1) mean^2
    shared *= mean
    lag1 += shared
    twice_mean = np.multiply(2.0, mean, out=mean)
    p = e * e
    gram = p.T @ p
    del p
    head, tail = gram[a, b], gram[a, b]
    del gram
    # head = g0 - last^2 - 2 mean (total - last) + shared; tail with first
    for form, t in ((head, -1), (tail, 0)):
        edge = product(t)
        spread = total - edge
        edge *= edge
        form -= edge
        spread *= twice_mean
        form -= spread
        form += shared
        del edge, spread
    return head, lag1, tail


def _ar1_summaries(eta):
    """Per-column AR(1) lag-1 correlation and innovation variance of every
    column, from the demeaned sums (sum_{t < n-1} z_t^2, sum_t z_t z_{t+1},
    sum_{t > 0} z_t^2) of either route; the column route takes SCORE_BLOCK
    columns at a time."""
    n, r = eta.shape
    gram = _gram_inputs(eta)
    if gram is not None:
        head, lag1, tail = _gram_ar1_sums(*gram[:3])
    else:
        head, lag1, tail = np.empty(r), np.empty(r), np.empty(r)
        for start in range(0, r, SCORE_BLOCK):
            stop = min(start + SCORE_BLOCK, r)
            # an index array gathers a column-major copy, as LazyEta reads
            # do: demeaning never touches eta, and each sum keeps its bits
            x = eta[:, np.arange(start, stop)]
            x -= x.mean(axis=0)
            head[start:stop] = (x[:-1] * x[:-1]).sum(axis=0)
            lag1[start:stop] = (x[1:] * x[:-1]).sum(axis=0)
            tail[start:stop] = (x[1:] * x[1:]).sum(axis=0)
    keep = head > 0.0
    if not np.any(keep):
        return None, None
    head, lag1, tail = head[keep], lag1[keep], tail[keep]
    r1 = np.clip(lag1 / head, -RHO_CLIP, RHO_CLIP)
    return r1, (tail - 2.0 * r1 * lag1 + r1 * r1 * head) / (n - 1)


def andrews_bandwidth(eta, kernel: KernelSpec) -> float:
    """AR(1) plug-in bandwidth, clipped to [1, 3 n^(1/5)]."""
    n = eta.shape[0]
    if n < PLUG_IN_MIN_N:
        raise InsufficientData(
            f"bandwidth selection needs n >= {PLUG_IN_MIN_N}, got {n}")
    rho, sig2 = _ar1_summaries(eta)
    if rho is None:
        warnings.warn("all score columns are constant; bandwidth set to 1",
                      BandwidthFallback)
        return 1.0
    sig4 = sig2 ** 2
    denom = np.sum(sig4 / (1.0 - rho) ** 4)
    if denom <= 0.0:
        warnings.warn("degenerate bandwidth plug-in; bandwidth set to 1",
                      BandwidthFallback)
        return 1.0
    if kernel.kind == QS:
        alpha2 = np.sum(4.0 * rho ** 2 * sig4 / (1.0 - rho) ** 8) / denom
        s_n = 1.3221 * (alpha2 * n) ** 0.2
    else:
        alpha1 = np.sum(
            4.0 * rho ** 2 * sig4 / ((1.0 - rho) ** 6 * (1.0 + rho) ** 2)
        ) / denom
        s_n = 1.1447 * (alpha1 * n) ** (1.0 / 3.0)
    return float(np.clip(s_n, 1.0, 3.0 * n ** 0.2))


def kernel_lag_weights(kernel: KernelSpec, n: int, s_n: float) -> np.ndarray:
    """Weights K(k/S_n) for k = 0..n-1; those below truncation_eps in
    absolute value are set to 0, except the lag-0 weight, which is 1."""
    w = kernel_eval(kernel, np.arange(n) / check_bandwidth(s_n))
    w = np.where(np.abs(w) < kernel.truncation_eps, 0.0, w)
    w[:1] = 1.0
    return w


def lag_toeplitz(w: np.ndarray) -> np.ndarray:
    """T[i, j] = w[|i - j|] for a by-lag vector w of length n: a read-only
    n x n view with a negative row stride. Copy it (or a block of it) to C
    order before a matrix product, so that the product does not depend on
    how NumPy treats that stride."""
    n = w.shape[0]
    mirrored = np.concatenate([w[:0:-1], w])
    # [:n] only cuts the one empty window that n = 0 gives
    return np.lib.stride_tricks.sliding_window_view(mirrored, n)[::-1][:n]


def multiplier_cov(n: int, s_n: float, kernel: KernelSpec) -> np.ndarray:
    """The n x n multiplier covariance A[i, j] = K(|i-j|/S_n), untruncated."""
    exact = replace(kernel, truncation_eps=0.0)
    return lag_toeplitz(kernel_lag_weights(exact, n, s_n)).copy()


def _toeplitz_forms(eta, weights: np.ndarray):
    """(x' T x, x' x) for every column x of eta, T = lag_toeplitz(weights):
    a matrix product per block of SCORE_BLOCK columns and TOEPLITZ_ROWS rows
    of T, each row block cut to the band of lags that carry weight and
    copied to C order first."""
    n, r = eta.shape
    toeplitz = lag_toeplitz(weights)
    reach = int(np.flatnonzero(weights)[-1])
    quad = np.zeros(r)
    lag0 = np.empty(r)
    for start in range(0, r, SCORE_BLOCK):
        stop = min(start + SCORE_BLOCK, r)
        cols, block = eta[:, start:stop], quad[start:stop]
        for a in range(0, n, TOEPLITZ_ROWS):
            b = min(a + TOEPLITZ_ROWS, n)
            lo, hi = max(0, a - reach), min(n, b + reach)
            t_rows = np.ascontiguousarray(toeplitz[a:b, lo:hi])
            block += (cols[a:b] * (t_rows @ cols[lo:hi])).sum(axis=0)
        lag0[start:stop] = (cols * cols).sum(axis=0)
    return quad, lag0


def _less_v_terms(form, cross, v_ab, count):
    """form - 2.0 * v_ab * cross + v_ab * v_ab * count, computed in place in
    ``form`` with the bits of that expression; ``cross`` is overwritten."""
    cross *= 2.0 * v_ab
    form -= cross
    np.multiply(v_ab, v_ab, out=cross)
    cross *= count
    form += cross
    return form


def _gram_forms(e, a, b, v_ab, weights: np.ndarray):
    """(x' T x, x' x) for the score x = e_a e_b - v_ab of each pair (a, b) of
    columns of E, T = lag_toeplitz(weights): x' T x = sum_k c_k w_k
    [P_k' P_k]_ab - 2 v_ab [E' diag(T 1) E]_ab + v_ab^2 1' T 1, with c_0 = 1
    and c_k = 2; lags of zero weight are skipped. Each |U| x |U| matrix and
    r-vector is dropped as soon as it has been read."""
    n = e.shape[0]
    p0 = e * e
    gram = p0.T @ p0
    del p0
    lag0 = _less_v_terms(gram[a, b], (e.T @ e)[a, b], v_ab, n)
    for k in np.flatnonzero(weights[1:]) + 1:
        p = e[:-k] * e[k:]
        lag = p.T @ p
        lag *= 2.0 * weights[k]
        gram += lag
        del p, lag
    # (T 1)_t = sum_{k <= t} w_k + sum_{k <= n-1-t} w_k - w_0
    upto = np.cumsum(weights)
    row_sums = upto + upto[::-1] - weights[0]
    quad = gram[a, b]
    del gram
    spread = (e * row_sums[:, None]).T @ e
    # like the Grams, symmetric bit for bit once its upper triangle is
    # copied onto the lower: (a, b) and (b, a) then read one number
    for i in range(1, spread.shape[0]):
        spread[i, :i] = spread[:i, i]
    spread = spread[a, b]
    return _less_v_terms(quad, spread, v_ab, row_sums.sum()), lag0


def w_diag(eta, h_diag: np.ndarray, s_n: float,
           kernel: KernelSpec) -> np.ndarray:
    """Diagonal of W = H Xi H without forming any r x r matrix.

    The kernel-weighted autocovariance sum of column x_l is the quadratic
    form x_l' T x_l / n with T[t, s] = K(|t - s| / S_n), so W_ll = h_l^2
    x_l' T x_l / n. When the scores offer ``gram_inputs()``, the forms come
    from lag Gram matrices of the residuals (``_gram_forms``) and no column
    is formed; otherwise from a banded Toeplitz product per block of columns
    (``_toeplitz_forms``). The two routes agree to rounding, not bitwise.

    Non-positive entries are floored at W_FLOOR_EPS times the lag-0 value and
    a DegenerateVariance warning is emitted.
    """
    n, r = eta.shape
    if h_diag.shape != (r,):
        raise InvalidInput("h_diag length must match the number of score columns")
    weights = kernel_lag_weights(kernel, n, s_n)
    gram = _gram_inputs(eta)
    quad, lag0 = (_toeplitz_forms(eta, weights) if gram is None
                  else _gram_forms(*gram, weights))
    # in place in quad, with the bits of h2 * quad / n
    h2 = h_diag ** 2
    w = np.multiply(quad, h2, out=quad)
    w /= n
    bad = w <= 0.0
    floored = int(np.count_nonzero(bad))
    if floored:
        warnings.warn(
            f"{floored} long-run variance estimates were non-positive and "
            "got floored", DegenerateVariance)
        base = h2[bad] * lag0[bad] / n
        w[bad] = W_FLOOR_EPS * np.where(base > 0.0, base, W_FLOOR_EPS)
    return w
