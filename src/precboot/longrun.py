"""Kernel long-run covariance machinery.

Estimates the long-run variances of the residual-product scores (the
diagonal of the kernel-weighted sum of sample autocovariances, used for
Studentization) with the quadratic spectral and Bartlett kernels, and an
AR(1) plug-in bandwidth.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import IndexSet, SymMatrix
from .errors import BandwidthFallback, DegenerateVariance, InsufficientData, \
    InvalidInput
from .precision import iter_column_blocks

QS = "qs"
BARTLETT = "bartlett"

# columns used for bandwidth selection at huge r (evenly spaced, deterministic)
BANDWIDTH_MAX_COLUMNS = 5000

# w_diag builds its lag-weight matrix in row chunks of at most this many
# entries (32 MB); up to n = 2048 that is one chunk
TOEPLITZ_MAX_ENTRIES = 2**22

RHO_CLIP = 0.97
W_FLOOR_EPS = 1e-8


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


def h_diag_from_v(v: SymMatrix, S: IndexSet) -> np.ndarray:
    """Diagonal of H: 1 / (v_{j1,j1} v_{j2,j2}) per pair."""
    d = v.diagonal()
    return 1.0 / (d[S.rows()] * d[S.cols()])


def _ar1_summaries(eta, max_columns: int):
    """Per-column AR(1) lag-1 correlation and innovation variance."""
    n, r = eta.shape
    if r > max_columns:
        idx = np.unique(np.linspace(0, r - 1, max_columns).astype(np.int64))
    else:
        idx = np.arange(r)
    rho = []
    sig2 = []
    block = 4096
    for start in range(0, idx.size, block):
        cols = idx[start:start + block]
        if isinstance(eta, np.ndarray):
            x = eta[:, cols]
        else:
            # lazy path: columns are contiguous only when r <= max_columns
            x = np.column_stack([eta.get_block(c, c + 1)[:, 0] for c in cols])
        x = x - x.mean(axis=0)
        denom = (x[:-1] ** 2).sum(axis=0)
        keep = denom > 0.0
        if not np.any(keep):
            continue
        x = x[:, keep]
        denom = denom[keep]
        r1 = (x[1:] * x[:-1]).sum(axis=0) / denom
        r1 = np.clip(r1, -RHO_CLIP, RHO_CLIP)
        innov = x[1:] - r1[None, :] * x[:-1]
        s2 = (innov ** 2).sum(axis=0) / (n - 1)
        rho.append(r1)
        sig2.append(s2)
    if not rho:
        return None, None
    return np.concatenate(rho), np.concatenate(sig2)


def andrews_bandwidth(eta, kernel: KernelSpec,
                      max_columns: int = BANDWIDTH_MAX_COLUMNS) -> float:
    """AR(1) plug-in bandwidth, clipped to [1, 3 n^(1/5)]."""
    n = eta.shape[0]
    if n < 8:
        raise InsufficientData("bandwidth selection needs n >= 8")
    rho, sig2 = _ar1_summaries(eta, max_columns)
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
    """Weights K(k/S_n) for k = 0..n-1, with small values truncated to 0.

    The lag-0 weight is always kept.
    """
    w = kernel_eval(kernel, np.arange(n) / s_n)
    w = np.where(np.abs(w) < kernel.truncation_eps, 0.0, w)
    w[0] = 1.0
    return w


def w_diag(eta, h_diag: np.ndarray, s_n: float, kernel: KernelSpec,
           block: int = 8192) -> np.ndarray:
    """Diagonal of W = H Xi H without forming any r x r matrix.

    The kernel-weighted autocovariance sum of column x_l is the quadratic
    form x_l' T x_l / n with T[t, s] = K(|t - s| / S_n), so W_ll = h_l^2
    x_l' T x_l / n: a matrix product per column block. T is built in row
    chunks of at most TOEPLITZ_MAX_ENTRIES entries, each restricted to the
    band of lags that carry weight, so memory stays bounded at large n.

    Non-positive entries are floored at W_FLOOR_EPS times the lag-0 value and
    a DegenerateVariance warning is emitted.
    """
    n, r = eta.shape
    if h_diag.shape != (r,):
        raise InvalidInput("h_diag length must match the number of score columns")
    weights = kernel_lag_weights(kernel, n, s_n)
    reach = int(np.flatnonzero(weights)[-1])
    chunk = max(1, TOEPLITZ_MAX_ENTRIES // n)
    out = np.empty(r)
    floored = 0
    for start, stop, cols in iter_column_blocks(eta, block):
        quad = np.zeros(stop - start)
        for a in range(0, n, chunk):
            b = min(a + chunk, n)
            lo, hi = max(0, a - reach), min(n, b + reach)
            t_rows = weights[np.abs(np.arange(a, b)[:, None]
                                    - np.arange(lo, hi)[None, :])]
            quad += (cols[a:b] * (t_rows @ cols[lo:hi])).sum(axis=0)
        h2 = h_diag[start:stop] ** 2
        w = h2 * quad / n
        base = h2 * (cols * cols).sum(axis=0) / n
        floor = W_FLOOR_EPS * np.where(base > 0.0, base, W_FLOOR_EPS)
        bad = w <= 0.0
        floored += int(bad.sum())
        out[start:stop] = np.where(bad, floor, w)
    if floored:
        warnings.warn(
            f"{floored} long-run variance estimates were non-positive and "
            "got floored", DegenerateVariance)
    return out

