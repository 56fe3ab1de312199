"""Kernel-based multiplier bootstrap (plain and Studentized).

A bootstrap draw is the projection eta' g of the n x r scores on a Gaussian
multiplier vector g whose covariance is the n x n kernel matrix A
(``longrun.multiplier_cov``), so the draw's own covariance is the r x r
long-run covariance eta' A eta. Two routes give that law:

  * r >= n: factor A (L L' = A), draw n normals per draw and project
    g = L z on the scores one block of ``DRAW_CHUNK`` columns at a time,
    so no r x r object and no n x r score matrix is formed;
  * r < n: factor eta' A eta itself (R R' = eta' A eta) and draw r normals
    per draw, so no n x n factor is formed.

Both routes take the one factor ``psd_factor``: the unique symmetric root
of the correlation matrix, scaled by the standard deviations. The draws
are then a function of the covariance alone, not of which factorization
succeeded or of the signs LAPACK gives the eigenvectors, and a small
change of the bandwidth moves them a little.

The r >= n route uses two symmetries:

  * A is symmetric Toeplitz, so centrosymmetric (J A J = A) bit for bit,
    and ``psd_factor`` takes the root of a centrosymmetric covariance from
    two eigenproblems of half its size (``_split_root``). That is the same
    root to rounding: it moves each draw by up to about 1e-8 at QS, where
    A has eigenvalues at rounding level;
  * column (j2, j1) of the scores is column (j1, j2) bit for bit, and so
    is its h, so lazy scores (``LazyEta.projected_columns``) project one
    column of each pair whose mirror is also in S, scaled by the larger
    of the pair's two scales, which gives the same max. The projected
    blocks have other shapes than the ordered ones, so the statistics
    agree to rounding. An ndarray carries no pair labels and is projected
    in order.

The scores ``eta`` are read only as ``eta[:, cols]``: an n x r ndarray or
the ``LazyEta`` of ``precision.scores_for``, which forms the columns read.

The draw step's working set does not grow with r past the r-vectors: one
formed n x DRAW_CHUNK score block, one DRAW_CHUNK x DRAW_CHUNK projection
buffer that each product writes into (the r < n route needs none: its
draws are the projections), one tile of ``_TILE_ROWS`` rows in which a
projection is scaled and reduced to its column max, and the draws
themselves. Tiling changes no bit: abs, scale and max are elementwise or
exact. The BLAS result does depend on each product's shape, which is
fixed by DRAW_CHUNK and M alone.

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

from .core import MIN_N, RngSpec
from .errors import InsufficientData, InvalidInput, InvalidLevel, ShapeError
from .longrun import PLUG_IN_MIN_N, SCORE_BLOCK, KernelSpec, \
    andrews_bandwidth, check_bandwidth, multiplier_cov, w_diag as w_diag_fn

# draws per chunk and score columns per block: longrun's one score width
DRAW_CHUNK = SCORE_BLOCK
# rows of a projection scaled and reduced at a time, so the scaled copy
# stays in cache
_TILE_ROWS = 64


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

    def check_n(self, n: int):
        """InsufficientData naming n and the limit when a Dataset (MIN_N) or
        the plug-in bandwidth (PLUG_IN_MIN_N) cannot be formed at n."""
        plug_in = self.bandwidth is None
        min_n = max(MIN_N, PLUG_IN_MIN_N) if plug_in else MIN_N
        if n < min_n:
            raise InsufficientData(
                f"too few time points at n = {n}: need n >= {min_n}"
                + (" for the plug-in bandwidth" if plug_in else ""))

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
    for a studentized one.

    The path the draws took: ``route`` is the factor's size, "n x n" (A)
    or "r x r" (eta' A eta); ``split`` whether that factor came from two
    half-size eigenproblems, as ``psd_factor``'s root of a centrosymmetric
    covariance does (read off the factor, which is then centrosymmetric
    bit for bit); ``projected`` the number of score columns projected on
    the multipliers (0 on the r x r route, whose draws are the
    projections). A result not made by ``kmb_draws`` has no route."""

    stats: np.ndarray  # sorted ascending
    bandwidth: float
    n: int
    scale: np.ndarray
    route: Optional[str] = None
    split: bool = False
    projected: int = 0

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


def _centrosymmetric(x: np.ndarray) -> bool:
    """Whether the square ``x`` has at least two rows and equals
    x[::-1, ::-1] bit for bit: the test by which ``psd_factor`` splits."""
    return x.shape[0] >= 2 and np.array_equal(x, x[::-1, ::-1])


def _root(c: np.ndarray) -> np.ndarray:
    """V sqrt(vals) V' from the eigenpairs of the symmetric ``c``, negative
    eigenvalues clipped to 0."""
    vals, vecs = np.linalg.eigh(c)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]) @ vecs.T


def _split_root(c: np.ndarray) -> np.ndarray:
    """The symmetric root of a centrosymmetric ``c`` from two eigenproblems
    of half its size (Cantoni & Butler 1976). With m = n // 2, J the m x m
    exchange matrix and the orthogonal Q = [[I, 0, I], [0, sqrt 2, 0],
    [J, 0, -J]] / sqrt 2 (no middle row or column at even n), Q' c Q is
    block-diagonal with the blocks
        plus  = [[C11 + C13 J, sqrt 2 x], [sqrt 2 x', c_mm]],
        minus = C11 - C13 J,
    where C13 is the top-right m x m block and x the top of the middle
    column (plus is C11 + C13 J alone at even n). So c^(1/2) = Q diag(
    plus^(1/2), minus^(1/2)) Q', and it is assembled here from mirrored
    copies of its blocks: the result is centrosymmetric bit for bit."""
    n = c.shape[0]
    m, mid = n // 2, n % 2
    near = c[:m, :m]
    far = c[:m, n - m:][:, ::-1]  # C13 J
    plus = np.empty((m + mid, m + mid))
    np.add(near, far, out=plus[:m, :m])
    if mid:
        plus[:m, m] = plus[m, :m] = math.sqrt(2.0) * c[:m, m]
        plus[m, m] = c[m, m]
    root_plus, root_minus = _root(plus), _root(near - far)
    half_sum = 0.5 * (root_plus[:m, :m] + root_minus)
    half_diff = 0.5 * (root_plus[:m, :m] - root_minus)
    out = np.empty((n, n))
    out[:m, :m] = half_sum
    out[n - m:, n - m:] = half_sum[::-1, ::-1]
    out[:m, n - m:] = half_diff[:, ::-1]
    out[n - m:, :m] = half_diff[::-1]
    if mid:
        column = root_plus[:m, m] / math.sqrt(2.0)
        row = root_plus[m, :m] / math.sqrt(2.0)
        out[:m, m], out[m + 1:, m] = column, column[::-1]
        out[m, :m], out[m, m + 1:] = row, row[::-1]
        out[m, m] = root_plus[m, m]
    return out


def psd_factor(cov: np.ndarray) -> np.ndarray:
    """The factor R = D C^(1/2) of a symmetric positive semi-definite
    ``cov``: D = diag(sqrt(diag cov)), C = D^-1 cov D^-1 and C^(1/2) =
    V sqrt(vals) V' the symmetric root from the eigenpairs of C (negative
    eigenvalues clipped to 0). R R' = cov, and R is unique: it does not
    depend on the signs or the order of the eigenvectors. Rescaling a
    variable rescales its row of R and nothing else; a variable with zero
    variance gets a zero row.

    When ``cov`` equals cov[::-1, ::-1] bit for bit (then so do C and D),
    C^(1/2) comes from two eigenproblems of half the size
    (``_split_root``), and R is centrosymmetric bit for bit. Every
    multiplier covariance A is centrosymmetric: it is symmetric Toeplitz."""
    d = np.sqrt(np.clip(np.diagonal(cov), 0.0, None))
    safe = np.where(d > 0.0, d, 1.0)
    corr = cov / np.outer(safe, safe)
    root = _split_root(corr) if _centrosymmetric(cov) else _root(corr)
    return d[:, None] * root


def gaussian_mult_factor(n: int, s_n: float, kernel: KernelSpec) -> np.ndarray:
    """``psd_factor`` of A = multiplier_cov(n, s_n, kernel); A has a unit
    diagonal, so this is its symmetric root A^(1/2)."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    return psd_factor(multiplier_cov(n, s_n, kernel))


def score_mult_factor(eta, s_n: float, kernel: KernelSpec) -> np.ndarray:
    """``psd_factor`` of eta' A eta, the r x r covariance of a draw, with
    A = multiplier_cov(n, s_n, kernel)."""
    x = eta[:, :]
    return psd_factor(x.T @ (multiplier_cov(x.shape[0], s_n, kernel) @ x))


def _draw_multipliers(factor: np.ndarray, rng: RngSpec, m_start: int,
                      m_stop: int) -> np.ndarray:
    """``factor @ z`` for the standard normals z of draws m_start..m_stop-1,
    one substream per draw so results do not depend on chunking or thread
    count. Each draw's normals are written straight into its row of z'."""
    z_t = np.empty((m_stop - m_start, factor.shape[1]))
    for m, row in zip(range(m_start, m_stop), z_t):
        rng.generator(m).standard_normal(out=row)
    return factor @ z_t.T


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
    Scores that offer ``projected_columns()`` (a ``LazyEta``) are projected
    one column per mirrored pair: the pair's two columns are equal, so the
    larger of their two scales serves both, and the max is the same.
    """
    n, r = eta.shape
    if r < 1:
        raise InvalidInput("need at least one score column")
    s_n = cfg.bandwidth_for(eta)
    sd = np.sqrt(w_diag_fn(eta, h_diag, s_n, cfg.kernel)) \
        if any(studentized) else None
    plain = h_diag / math.sqrt(n)
    scales = [plain / sd if stud else plain for stud in studentized]
    del plain
    offer = getattr(eta, "projected_columns", None) if r >= n else None
    kept = None
    if offer is not None:
        kept, mirror = offer()
        # rounding is monotone, so max(s, s') |x| rounds to the max of
        # s |x| and s' |x|; each r-length scale is dropped once cut
        scales = [np.maximum(scale[kept], scale[mirror]) for scale in scales]
        del mirror
    factor = (score_mult_factor(eta, s_n, cfg.kernel) if r < n
              else gaussian_mult_factor(n, s_n, cfg.kernel))
    starts = range(0, cfg.M, DRAW_CHUNK)
    draws = [_draw_multipliers(factor, cfg.rng, m, min(m + DRAW_CHUNK, cfg.M))
             for m in starts]
    # the coordinates read: the projected columns, or on the r < n route
    # the rows of the draws
    count = r if kept is None else kept.size
    stats = np.zeros((len(scales), cfg.M))
    width = min(cfg.M, DRAW_CHUNK)
    # the one projection buffer (r >= n: on the r < n route the draws are
    # already the projections), and one tile of scaled rows
    proj_buf = np.empty(min(count, DRAW_CHUNK) * width) if r >= n else None
    tile_buf = np.empty(min(count, _TILE_ROWS) * width)
    for start in range(0, count, DRAW_CHUNK):
        stop = min(start + DRAW_CHUNK, count)
        if r < n:
            cols_t = None
        elif kept is None:
            cols_t = eta[:, start:stop].T
        else:
            cols_t = eta[:, kept[start:stop]].T
        for m, g in zip(starts, draws):
            if r >= n:
                shape = (stop - start, g.shape[1])
                proj = np.matmul(cols_t, g, out=proj_buf[:shape[0] * shape[1]]
                                 .reshape(shape))
            else:
                proj = g[start:stop]
            for lo in range(start, stop, _TILE_ROWS):
                hi = min(lo + _TILE_ROWS, stop)
                # abs in place: each projection, and on the r < n route
                # each row of the draws, is read by this tile alone;
                # |s x| == s |x| for s > 0, so one abs serves every scale
                mag = np.abs(proj[lo - start:hi - start],
                             out=proj[lo - start:hi - start])
                tile = tile_buf[:mag.size].reshape(mag.shape)
                for best, scale in zip(stats[:, m:m + g.shape[1]], scales):
                    np.multiply(scale[lo:hi, None], mag, out=tile)
                    np.maximum(best, tile.max(axis=0), out=best)
        del cols_t  # release this block before forming the next
    stats.sort(axis=1)
    route = "r x r" if r < n else "n x n"
    split = _centrosymmetric(factor)
    return [BootstrapResult(stats=row, bandwidth=float(s_n), n=n,
                            scale=sd if stud else np.ones(r), route=route,
                            split=split, projected=0 if r < n else count)
            for row, stud in zip(stats, studentized)]
