"""Bias-corrected error covariance and precision matrix estimators.

The residual cross-moments from penalized node-wise regressions carry a
first-order bias; the corrected estimator removes it using the fitted
coefficients, after which the precision matrix follows from diagonal
rescaling.

The residual-product scores of an index set are never held whole. Readers
take columns, ``eta[:, cols]``, and each read forms just those columns from
the residuals; the bootstrap projection (and ``w_diag`` on a sparse set)
streams over all r columns a block of ``SCORE_BLOCK`` at a time.

The second moments that the plug-in bandwidth and ``w_diag`` need are sums
over time of products of scores, so they are also entries of small lag Gram
matrices of the residuals (``ScoreMoments``). When the index set is dense in
the variables U it touches, r >= |U|(|U| - 1)/2, the scores offer those
moments as ``eta.moments`` and no score column is formed for them.
"""
from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .core import IndexSet, SymMatrix
from .errors import DegenerateResiduals, InvalidInput
from .nodewise import NodewiseFit

# readers that stream over all r score columns take them this many at a time
SCORE_BLOCK = 8192


def estimate_v(fit: NodewiseFit) -> SymMatrix:
    """Bias-corrected covariance of the node-wise regression errors.

    Diagonal: mean squared residual. Off-diagonal (j1, j2):
    -(1/n) sum_t (e_{j1,t} e_{j2,t} + a_{j1,j2} e_{j2,t}^2
                  + a_{j2,j1} e_{j1,t}^2).
    """
    eps = fit.residuals
    n = eps.shape[0]
    cross = eps.T @ eps / n
    d = np.diagonal(cross).copy()
    if np.any(d <= 0.0):
        raise DegenerateResiduals("a node has identically zero residuals")
    v = -(cross + fit.alpha * d[None, :] + fit.alpha.T * d[:, None])
    np.fill_diagonal(v, d)
    return SymMatrix(v)


def estimate_omega(v: SymMatrix) -> SymMatrix:
    """omega_{j1,j2} = v_{j1,j2} / (v_{j1,j1} v_{j2,j2})."""
    d = v.diagonal()
    if np.any(d <= 0.0):
        raise DegenerateResiduals("non-positive diagonal in v")
    return SymMatrix(v.values / np.outer(d, d))


class LazyEta:
    """The n x r matrix of residual-product scores, formed only where it is
    read.

    Column l is e_{j1,t} e_{j2,t} - v_{j1,j2} for (j1, j2) = chi(l). The
    columns are centred at the bias-corrected v_hat, not at their own mean:
    when a_{j1,j2} = a_{j2,j1} = 0 the column mean is exactly -2 v_{j1,j2}.
    ``eta[:, cols]`` forms the columns ``cols`` (a slice or an index array),
    so readers can take an ndarray or this interchangeably. ``moments`` is
    the ``ScoreMoments`` of the columns when S is dense in the variables it
    touches, else None.
    """

    def __init__(self, fit: NodewiseFit, v: SymMatrix, S: IndexSet):
        self._eps = fit.residuals
        self._v = v.values
        self._rows = S.rows()
        self._cols = S.cols()
        self.shape = (self._eps.shape[0], S.r)

    def __getitem__(self, key) -> np.ndarray:
        every_row, cols = key
        rows, cols = self._rows[cols], self._cols[cols]
        if every_row != slice(None) or rows.ndim != 1:
            raise InvalidInput("scores are read as eta[:, cols] with cols a "
                               "slice or an index array")
        # in place, with the bits of eps[:, rows] * eps[:, cols] - v
        out = self._eps[:, rows]
        out *= self._eps[:, cols]
        out -= self._v[rows, cols]
        return out

    @cached_property
    def moments(self) -> Optional[ScoreMoments]:
        """The columns' ``ScoreMoments`` when r >= |U|(|U| - 1)/2 for the
        variables U that S touches, else None: a sparse set costs less read
        column by column."""
        touched = np.zeros(self._eps.shape[1], dtype=bool)
        touched[self._rows] = True
        touched[self._cols] = True
        u = int(touched.sum())
        if self.shape[1] < u * (u - 1) // 2:
            return None
        return ScoreMoments(self._eps, touched, self._rows, self._cols,
                            self._v)


class ScoreMoments:
    """Sums over time of the scores x_t = y_t - v_ab, y_t = e_{a,t} e_{b,t},
    of the pairs (a, b) = (rows[l], cols[l]), read from u x u lag Gram
    matrices of the n x u residuals E of the u variables the pairs touch.

    With P_k = E[:-k] * E[k:] (P_0 = E * E), [P_k' P_k]_ab =
    sum_t y_t y_{t+k}, and [E' E]_ab = sum_t y_t. The lag-0 and lag-1 Grams
    and E' E are formed once and shared by ``ar1_sums`` and
    ``quadratic_forms``; a lag costs about n u^2 flops, where forming the
    scores costs n r. Subtracting a mean or v_ab from raw sums cancels
    where it is large next to the column's spread: the relative error grows
    like (mean / sd)^2 times the rounding unit.
    """

    def __init__(self, eps: np.ndarray, touched: np.ndarray,
                 rows: np.ndarray, cols: np.ndarray, v: np.ndarray):
        self._all_eps, self._all_v = eps, v
        self._touched = touched
        self._local = np.cumsum(touched) - 1  # variable -> column of E
        self._rows, self._cols = rows, cols

    def _residuals(self) -> np.ndarray:
        """E, gathered afresh: the moments keep only u x u matrices and two
        rows."""
        return self._all_eps[:, self._touched]

    def _gather(self, matrices, idx=slice(None)):
        """The entries of the pairs ``idx`` in each u x u matrix."""
        a, b = self._local[self._rows[idx]], self._local[self._cols[idx]]
        return tuple(m[a, b] for m in matrices)

    @cached_property
    def _shared(self):
        """(P_0' P_0, P_1' P_1, E' E, E[0], E[-1]): what both readers use."""
        e = self._residuals()
        p0 = e * e
        p1 = e[:-1] * e[1:]
        return p0.T @ p0, p1.T @ p1, e.T @ e, e[0].copy(), e[-1].copy()

    def ar1_sums(self, idx: np.ndarray):
        """For the pairs ``idx`` and z_t = y_t - mean(y) (the demeaned
        score): (sum_{t < n-1} z_t^2, sum_t z_t z_{t+1}, sum_{t > 0} z_t^2)."""
        g0, g1, total, e_first, e_last = self._shared
        n = self._all_eps.shape[0]
        first = np.outer(e_first, e_first)
        last = np.outer(e_last, e_last)
        mean = total / n
        shared = (n - 1) * mean * mean
        head = g0 - last * last - 2.0 * mean * (total - last) + shared
        lag1 = g1 - mean * (2.0 * total - first - last) + shared
        tail = g0 - first * first - 2.0 * mean * (total - first) + shared
        return self._gather((head, lag1, tail), idx)

    def quadratic_forms(self, weights: np.ndarray):
        """(x' T x, x' x) for every score column x, with T[t, s] =
        weights[|t - s|] for a by-lag vector of length n.

        x' T x = sum_k c_k w_k [P_k' P_k]_ab - 2 v_ab [E' diag(T 1) E]_ab
        + v_ab^2 1' T 1, with c_0 = 1 and c_k = 2; lags of zero weight are
        skipped.
        """
        g0, g1, total = self._shared[:3]
        e = self._residuals()
        v = self._all_v[np.ix_(self._touched, self._touched)]
        n = e.shape[0]
        gram = g0.copy()
        for k in np.flatnonzero(weights[1:]) + 1:
            if k == 1:
                lagged = g1
            else:
                p = e[:-k] * e[k:]
                lagged = p.T @ p
            gram += (2.0 * weights[k]) * lagged
        # (T 1)_t = sum_{k <= t} w_k + sum_{k <= n-1-t} w_k - w_0
        upto = np.cumsum(weights)
        row_sums = upto + upto[::-1] - weights[0]
        spread = (e * row_sums[:, None]).T @ e
        return self._gather((
            gram - 2.0 * v * spread + v * v * row_sums.sum(),
            g0 - 2.0 * v * total + v * v * n))


def scores_for(fit: NodewiseFit, v: SymMatrix, S: IndexSet) -> LazyEta:
    """The scores of the index set S."""
    return LazyEta(fit, v, S)
