"""Bias-corrected error covariance and precision matrix estimators.

The residual cross-moments from penalized node-wise regressions carry a
first-order bias; the corrected estimator removes it using the fitted
coefficients, after which the precision matrix follows from diagonal
rescaling.

The residual-product scores of an index set are never held whole. Readers
take columns, ``eta[:, cols]``, and each read forms just those columns from
the residuals; the bootstrap projection (and ``w_diag`` on a sparse set)
streams over all r columns a block of ``SCORE_BLOCK`` at a time.

When the index set is dense in the variables U it touches,
r >= |U|(|U| - 1)/2, the scores also hand out the residuals of U and the
pairs as their columns (``LazyEta.gram_inputs``), from which ``longrun``
reads the bandwidth and ``w_diag`` through lag Gram matrices without
forming a score column.
"""
from __future__ import annotations

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
    so readers can take an ndarray or this interchangeably. When S is dense
    in the variables it touches, ``gram_inputs()`` gives what the lag Gram
    route of ``longrun`` reads instead of columns.
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

    def gram_inputs(self) -> Optional[tuple]:
        """(E, a, b, v_ab) when r >= |U|(|U| - 1)/2 for the variables U that
        S touches, else None: a sparse set costs less read column by column.
        E holds the n x |U| residuals of U, pair l is columns (a[l], b[l]) of
        E, and v_ab is v_hat of each pair."""
        touched = np.zeros(self._eps.shape[1], dtype=bool)
        touched[self._rows] = True
        touched[self._cols] = True
        u = int(touched.sum())
        if self.shape[1] < u * (u - 1) // 2:
            return None
        local = np.cumsum(touched) - 1  # variable -> column of E
        return (self._eps[:, touched], local[self._rows], local[self._cols],
                self._v[self._rows, self._cols])


def scores_for(fit: NodewiseFit, v: SymMatrix, S: IndexSet) -> LazyEta:
    """The scores of the index set S."""
    return LazyEta(fit, v, S)
