"""Kernel-based multiplier bootstrap (plain and Studentized).

Each bootstrap draw needs only an n-dimensional Gaussian vector with the
kernel matrix as covariance; the max statistic is accumulated over column
blocks of the score matrix so no r x r object is ever formed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import RngSpec
from .errors import InvalidInput, InvalidLevel, MissingScale
from .longrun import KernelSpec, andrews_bandwidth, kernel_eval, \
    w_diag as w_diag_fn
from .precision import iter_column_blocks

DRAW_CHUNK = 256
COLUMN_BLOCK = 8192


@dataclass
class BootstrapConfig:
    rng: RngSpec
    M: int = 3000
    kernel: KernelSpec = KernelSpec()
    bandwidth: Optional[float] = None

    def __post_init__(self):
        if self.M < 1:
            raise InvalidInput("M must be >= 1")
        if self.bandwidth is not None and not (
                math.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise InvalidInput("bandwidth must be a positive finite number, "
                               f"got {self.bandwidth}")

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
    studentized: bool
    rng: RngSpec
    w_diag: Optional[np.ndarray] = None

    @property
    def M(self) -> int:
        return self.stats.shape[0]


def multiplier_cov(n: int, s_n: float, kernel: KernelSpec) -> np.ndarray:
    """The n x n multiplier covariance A with A[i, j] = K(|i-j|/S_n)."""
    idx = np.arange(n)
    # A is Toeplitz: evaluate K once per lag, then spread it by |i - j|
    by_lag = kernel_eval(kernel, idx / s_n)
    return by_lag[np.abs(idx[:, None] - idx[None, :])]


def gaussian_mult_factor(n: int, s_n: float, kernel: KernelSpec) -> np.ndarray:
    """A factor L with L L' = A (Cholesky when possible, else a clipped
    symmetric square root)."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    a = multiplier_cov(n, s_n, kernel)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(a)
        vals = np.clip(vals, 0.0, None)
        return vecs * np.sqrt(vals)[None, :]


def _draw_multipliers(factor: np.ndarray, rng: RngSpec, m_start: int,
                      m_stop: int) -> np.ndarray:
    """Multiplier vectors g for draws m_start..m_stop-1, one substream per
    draw so results do not depend on chunking or thread count."""
    n = factor.shape[0]
    z = np.empty((n, m_stop - m_start))
    for m in range(m_start, m_stop):
        z[:, m - m_start] = rng.generator(m).standard_normal(n)
    return factor @ z


def kmb_draws(eta, h_diag: np.ndarray, cfg: BootstrapConfig,
              studentized: Sequence[bool] = (False,),
              column_block: int = COLUMN_BLOCK) -> List[BootstrapResult]:
    """Run M multiplier-bootstrap draws at the bandwidth
    ``cfg.bandwidth_for(eta)`` and return one result of sorted max statistics
    per entry of ``studentized``, all from the same draws.

    A studentized entry also scales each coordinate by 1/sqrt(w_diag), with
    w_diag estimated at the same bandwidth; its result carries that w_diag.
    """
    n, r = eta.shape
    if r < 1:
        raise InvalidInput("need at least one score column")
    s_n = cfg.bandwidth_for(eta)
    w = w_diag_fn(eta, h_diag, s_n, cfg.kernel) if any(studentized) \
        else None
    plain = h_diag / math.sqrt(n)
    scales = [plain / np.sqrt(w) if stud else plain for stud in studentized]
    factor = gaussian_mult_factor(n, s_n, cfg.kernel)
    stats = np.zeros((len(scales), cfg.M))
    for m_start in range(0, cfg.M, DRAW_CHUNK):
        m_stop = min(m_start + DRAW_CHUNK, cfg.M)
        g = _draw_multipliers(factor, cfg.rng, m_start, m_stop)
        for start, stop, cols in iter_column_blocks(eta, column_block):
            proj = cols.T @ g
            for best, scale in zip(stats[:, m_start:m_stop], scales):
                np.maximum(best, np.abs(scale[start:stop, None] * proj)
                           .max(axis=0), out=best)
    stats.sort(axis=1)
    return [BootstrapResult(stats=row, bandwidth=float(s_n), studentized=stud,
                            rng=cfg.rng, w_diag=w if stud else None)
            for row, stud in zip(stats, studentized)]


def quantile(result: BootstrapResult, level: float) -> float:
    """The ceil(M * level)-th order statistic of the bootstrap stats."""
    if not 0.0 < level < 1.0:
        raise InvalidLevel(f"level must be in (0, 1), got {level}")
    m = result.M
    k = math.ceil(m * level)
    return float(result.stats[k - 1])


def confidence_region(omega_s: np.ndarray, q: float, n: int,
                      studentized: bool,
                      w_diag: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-coordinate intervals of the simultaneous confidence box, as an
    (r, 2) array of [lo, hi]."""
    omega_s = np.asarray(omega_s, dtype=np.float64)
    half = q / math.sqrt(n)
    if studentized:
        if w_diag is None:
            raise MissingScale("studentized region needs w_diag")
        half = half * np.sqrt(np.asarray(w_diag))
    else:
        half = np.full(omega_s.shape, half)
    return np.column_stack([omega_s - half, omega_s + half])
