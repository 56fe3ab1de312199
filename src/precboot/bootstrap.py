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

A ``BootstrapResult`` turns the draws into answers. It carries n and the
r-vector ``scale`` each coordinate was divided by (ones for a plain run,
sqrt(w_diag) for a studentized one), so the region's half-widths, the test
statistic and its p-value all come from the one object.
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


def max_statistic(dev: np.ndarray, n: int, scale: np.ndarray) -> float:
    """sqrt(n) * max(|dev| / scale); ShapeError unless dev and scale have
    the same shape."""
    dev = np.asarray(dev, dtype=np.float64)
    if dev.shape != np.shape(scale):
        raise ShapeError(f"deviation of shape {dev.shape} does not match "
                         f"the {np.shape(scale)} coordinate scales")
    return math.sqrt(n) * float((np.abs(dev) / scale).max())


@dataclass
class BootstrapResult:
    """The sorted max statistics of M draws over r coordinates, the sample
    size n, and the r coordinate scales: ones for a plain run, sqrt(w_diag)
    for a studentized one."""

    stats: np.ndarray  # sorted ascending
    bandwidth: float
    n: int
    scale: np.ndarray

    @property
    def M(self) -> int:
        return self.stats.shape[0]

    def quantile(self, level: float) -> float:
        """The ceil(M * level)-th order statistic of the draws."""
        if not 0.0 < level < 1.0:
            raise InvalidLevel(f"level must be in (0, 1), got {level}")
        return float(self.stats[math.ceil(self.M * level) - 1])

    def half_width(self, level: float) -> np.ndarray:
        """Half-widths of the r intervals of the simultaneous box at
        ``level``: quantile / sqrt(n), times each coordinate's scale."""
        return self.quantile(level) / math.sqrt(self.n) * self.scale

    def statistic(self, dev: np.ndarray) -> float:
        """The max statistic sqrt(n) * max(|dev| / scale) of a deviation
        from the r coordinates; ShapeError unless dev is an r-vector."""
        return max_statistic(dev, self.n, self.scale)

    def p_value(self, statistic: float) -> float:
        """(1 + #{T* >= T}) / (M + 1) (Phipson & Smyth 2010): never 0."""
        at_least = int(np.count_nonzero(self.stats >= statistic))
        return (1 + at_least) / (self.M + 1)


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

    A studentized entry also divides each coordinate by sqrt(w_diag), with
    w_diag estimated at the same bandwidth; its result's ``scale`` is that
    sqrt(w_diag), and a plain result's is ones.
    With fewer score columns than time points (r < n) the draws come from
    ``score_mult_factor``, else from ``gaussian_mult_factor``; there each
    block of score columns is formed once and projected on every draw.
    """
    n, r = eta.shape
    if r < 1:
        raise InvalidInput("need at least one score column")
    s_n = cfg.bandwidth_for(eta)
    sd = np.sqrt(w_diag_fn(eta, h_diag, s_n, cfg.kernel)) \
        if any(studentized) else None
    plain = h_diag / math.sqrt(n)
    scales = [plain / sd if stud else plain for stud in studentized]
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
    return [BootstrapResult(stats=row, bandwidth=float(s_n), n=n,
                            scale=sd if stud else np.ones(r))
            for row, stud in zip(stats, studentized)]
