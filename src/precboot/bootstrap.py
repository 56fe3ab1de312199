"""Kernel-based multiplier bootstrap (plain and Studentized).

A bootstrap draw is the projection eta' g of the n x r scores on a Gaussian
multiplier vector g whose covariance is the n x n kernel matrix A, so the
draw's own covariance is the r x r long-run covariance eta' A eta. Two
routes give that law:

  * r >= n: factor A (L L' = A), draw n normals per draw and project
    g = L z on the scores one block of SCORE_BLOCK columns at a time, so no
    r x r object and no n x r score matrix is formed;
  * r < n: factor eta' A eta itself (R R' = eta' A eta) and draw r normals
    per draw, so no n x n factor is formed.

The scores ``eta`` are read only as ``eta[:, cols]``: an n x r ndarray or
the ``LazyEta`` of ``precision.scores_for``, which forms the columns read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import precision
from .core import RngSpec
from .errors import InvalidInput, InvalidLevel, ShapeError
from .longrun import KernelSpec, andrews_bandwidth, kernel_eval, \
    lag_toeplitz, w_diag as w_diag_fn

DRAW_CHUNK = 256


def check_bandwidth(value: float) -> float:
    """``value`` if it is a usable bandwidth S_n (finite and positive),
    else InvalidInput."""
    if not (math.isfinite(value) and value > 0):
        raise InvalidInput("bandwidth must be a positive finite number, "
                           f"got {value}")
    return value


@dataclass
class BootstrapConfig:
    rng: RngSpec
    M: int = 3000
    kernel: KernelSpec = KernelSpec()
    bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.M < 1:
            raise InvalidInput("M must be >= 1")
        if self.bandwidth is not None:
            check_bandwidth(self.bandwidth)

    def bandwidth_for(self, eta) -> float:
        """The configured bandwidth S_n, else the Andrews AR(1) plug-in for
        the scores eta."""
        if self.bandwidth is None:
            return andrews_bandwidth(eta, self.kernel)
        return float(self.bandwidth)


@dataclass
class BootstrapResult:
    stats: np.ndarray  # sorted ascending
    bandwidth: float
    w_diag: Optional[np.ndarray] = None

    @property
    def M(self) -> int:
        return self.stats.shape[0]


def multiplier_cov(n: int, s_n: float, kernel: KernelSpec) -> np.ndarray:
    """The n x n multiplier covariance A with A[i, j] = K(|i-j|/S_n)."""
    # A is Toeplitz: evaluate K once per lag, then spread it by |i - j|
    by_lag = kernel_eval(kernel, np.arange(n) / s_n)
    return lag_toeplitz(by_lag).copy()


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """A factor R with R R' = cov for a symmetric positive semi-definite
    ``cov``, taken in correlation form: R = D V sqrt(vals) with
    D = diag(sqrt(diag cov)) and V, vals the eigenpairs (negative ones
    clipped to 0) of D^-1 cov D^-1, so rescaling a variable rescales its row
    of R and nothing else. Variables with zero variance get a zero row."""
    d = np.sqrt(np.clip(np.diagonal(cov), 0.0, None))
    safe = np.where(d > 0.0, d, 1.0)
    vals, vecs = np.linalg.eigh(cov / np.outer(safe, safe))
    return d[:, None] * vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]


def gaussian_mult_factor(n: int, s_n: float, kernel: KernelSpec) -> np.ndarray:
    """A factor L with L L' = A (Cholesky when possible, else
    ``psd_factor``)."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    a = multiplier_cov(n, s_n, kernel)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return psd_factor(a)


def score_mult_factor(eta, s_n: float, kernel: KernelSpec) -> np.ndarray:
    """``psd_factor`` of eta' A eta, the r x r covariance of a draw, with
    A = multiplier_cov(n, s_n, kernel)."""
    x = eta[:, :]
    return psd_factor(x.T @ (multiplier_cov(x.shape[0], s_n, kernel) @ x))


def _draw_multipliers(factor: np.ndarray, rng: RngSpec, m_start: int,
                      m_stop: int) -> np.ndarray:
    """``factor @ z`` for the standard normals z of draws m_start..m_stop-1,
    one substream per draw so results do not depend on chunking or thread
    count."""
    k = factor.shape[1]
    z = np.empty((k, m_stop - m_start))
    for m in range(m_start, m_stop):
        z[:, m - m_start] = rng.generator(m).standard_normal(k)
    return factor @ z


def kmb_draws(eta, h_diag: np.ndarray, cfg: BootstrapConfig,
              studentized: Sequence[bool] = (False,)) -> List[BootstrapResult]:
    """Run M multiplier-bootstrap draws at the bandwidth
    ``cfg.bandwidth_for(eta)`` and return one result of sorted max statistics
    per entry of ``studentized``, all from the same draws.

    A studentized entry also scales each coordinate by 1/sqrt(w_diag), with
    w_diag estimated at the same bandwidth; its result carries that w_diag.
    With fewer score columns than time points (r < n) the draws come from
    ``score_mult_factor``, else from ``gaussian_mult_factor``; there each
    block of score columns is formed once and projected on every draw.
    """
    n, r = eta.shape
    if r < 1:
        raise InvalidInput("need at least one score column")
    s_n = cfg.bandwidth_for(eta)
    w = w_diag_fn(eta, h_diag, s_n, cfg.kernel) if any(studentized) \
        else None
    plain = h_diag / math.sqrt(n)
    scales = [plain / _studentized_scale(w, r) if stud else plain
              for stud in studentized]
    factor = (score_mult_factor(eta, s_n, cfg.kernel) if r < n
              else gaussian_mult_factor(n, s_n, cfg.kernel))
    starts = range(0, cfg.M, DRAW_CHUNK)
    draws = [_draw_multipliers(factor, cfg.rng, m, min(m + DRAW_CHUNK, cfg.M))
             for m in starts]
    stats = np.zeros((len(scales), cfg.M))
    for start in range(0, r, precision.SCORE_BLOCK):
        stop = min(start + precision.SCORE_BLOCK, r)
        cols_t = eta[:, start:stop].T if r >= n else None
        for m, g in zip(starts, draws):
            # on the r < n route the draws are already the r projections;
            # |s x| == s |x| for s > 0, so one abs serves every scale
            mag = np.abs(cols_t @ g if r >= n else g[start:stop])
            for best, scale in zip(stats[:, m:m + g.shape[1]], scales):
                np.maximum(best, (scale[start:stop, None] * mag).max(axis=0),
                           out=best)
    stats.sort(axis=1)
    return [BootstrapResult(stats=row, bandwidth=float(s_n),
                            w_diag=w if stud else None)
            for row, stud in zip(stats, studentized)]


def quantile(result: BootstrapResult, level: float) -> float:
    """The ceil(M * level)-th order statistic of the bootstrap stats."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must be in (0, 1), got {level}")
    m = result.M
    k = math.ceil(m * level)
    return float(result.stats[k - 1])


def _studentized_scale(w_diag: np.ndarray, r: int) -> np.ndarray:
    """sqrt(w_diag), the scales of the r coordinates of a studentized run."""
    if np.shape(w_diag) != (r,):
        raise ShapeError("studentized bootstrap result lacks matching w_diag")
    return np.sqrt(w_diag)


def half_width(q: float, n: int, r: int,
               w_diag: Optional[np.ndarray] = None) -> np.ndarray:
    """Half-widths of the r intervals of the simultaneous box: q / sqrt(n),
    times sqrt(w_diag) when the bootstrap was studentized (w_diag given)."""
    half = np.full(r, q / math.sqrt(n))
    if w_diag is None:
        return half
    return half * _studentized_scale(w_diag, r)


def max_statistic(dev: np.ndarray, n: int,
                  w_diag: Optional[np.ndarray] = None) -> float:
    """sqrt(n) * max |dev|, each |dev_j| divided by sqrt(w_diag_j) first
    when the bootstrap was studentized (w_diag given)."""
    dev = np.abs(dev)
    if w_diag is not None:
        dev = dev / _studentized_scale(w_diag, dev.size)
    return math.sqrt(n) * float(dev.max())


def confidence_region(omega_s: np.ndarray, q: float, n: int,
                      w_diag: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-coordinate intervals of the simultaneous confidence box, as an
    (r, 2) array of [lo, hi]; studentized exactly when w_diag is given."""
    omega_s = np.asarray(omega_s, dtype=np.float64)
    half = half_width(q, n, omega_s.size, w_diag)
    return np.column_stack([omega_s - half, omega_s + half])
