"""Bias-corrected error covariance and precision matrix estimators.

The residual cross-moments from penalized node-wise regressions carry a
first-order bias; the corrected estimator removes it using the fitted
coefficients, after which the precision matrix follows from diagonal
rescaling.

The residual-product scores of an index set are never held whole. Readers
take columns, ``eta[:, cols]``, and each read forms just those columns from
the residuals: it gathers the first residual factor as the n x |cols|
result and multiplies the second into it ``_PIECE_COLS`` columns at a time,
so a read holds its result and one n x ``_PIECE_COLS`` piece, with the
bits of the whole product. ``LazyEta.gram_inputs`` hands out the
residuals, the mask of the variables the set touches and its pairs as
columns of the masked residuals instead, and copies nothing;
``LazyEta.projected_columns`` names one column of each mirrored pair
(j1, j2), (j2, j1), whose columns are equal bit for bit, as is every
per-pair number formed from them on the Gram route (``longrun._gram_forms``
makes it so): this class alone knows about mirrors. How and when each is
read is decided by the readers (``longrun``, ``bootstrap``).
"""
from __future__ import annotations

import numpy as np

from .core import IndexSet, SymMatrix
from .errors import DegenerateResiduals, InvalidInput
from .nodewise import NodewiseFit

# columns of residuals gathered at a time to multiply into a formed block
_PIECE_COLS = 64


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


def h_diag_from_v(v: SymMatrix, S: IndexSet) -> np.ndarray:
    """Diagonal of H: 1 / (v_{j1,j1} v_{j2,j2}) per pair."""
    d = v.diagonal()
    return 1.0 / (d[S.rows()] * d[S.cols()])


class LazyEta:
    """The n x r matrix of residual-product scores, formed only where it is
    read.

    Column l is e_{j1,t} e_{j2,t} - v_{j1,j2} for (j1, j2) = chi(l). The
    columns are centred at the bias-corrected v_hat, not at their own mean:
    when a_{j1,j2} = a_{j2,j1} = 0 the column mean is exactly -2 v_{j1,j2}.
    ``eta[:, cols]`` forms the columns ``cols`` (a slice or an index array),
    so readers can take an ndarray or this interchangeably;
    ``gram_inputs()`` gives what the lag Gram route of ``longrun`` reads
    instead.
    """

    def __init__(self, fit: NodewiseFit, v: SymMatrix, S: IndexSet):
        self._eps = fit.residuals
        self._v = v.values
        self._rows = S.rows()
        self._cols = S.cols()
        self.shape = (self._eps.shape[0], S.r)

    def __getitem__(self, key) -> np.ndarray:
        whole = isinstance(key, tuple) and len(key) == 2 \
            and isinstance(key[0], slice) and key[0] == slice(None)
        rows = self._rows[key[1]] if whole else None
        if rows is None or rows.ndim != 1:
            raise InvalidInput("scores are read as eta[:, cols] with cols a "
                               "slice or an index array")
        cols = self._cols[key[1]]
        # in place, with the bits of eps[:, rows] * eps[:, cols] - v; the
        # second factor is gathered _PIECE_COLS columns at a time
        out = self._eps[:, rows]
        for lo in range(0, cols.size, _PIECE_COLS):
            piece = slice(lo, lo + _PIECE_COLS)
            out[:, piece] *= self._eps[:, cols[piece]]
        out -= self._v[rows, cols]
        return out

    def projected_columns(self) -> np.ndarray:
        """The positions, in chi order, of the columns that a projection of
        the scores needs. Column (j2, j1) is column (j1, j2) bit for bit
        (the product commutes and v_hat is exactly symmetric), so of a pair
        whose mirror is also in S only (j1, j2) with j1 < j2 is kept; a
        pair (j, j) or one without its mirror in S is kept. Membership
        comes from a p x p table, no larger than v_hat itself."""
        p = self._eps.shape[1]
        member = np.zeros((p, p), dtype=bool)
        member[self._rows, self._cols] = True
        return np.flatnonzero((self._rows <= self._cols)
                              | ~member[self._cols, self._rows])

    def gram_inputs(self) -> tuple:
        """(eps, touched, a, b, v_ab): the n x p residuals and the mask of
        the variables U that S touches, so that E = eps[:, touched] holds
        the residuals of U; pair l is columns (a[l], b[l]) of E, and v_ab
        is v_hat of each pair. Nothing is copied until a reader gathers E."""
        touched = np.zeros(self._eps.shape[1], dtype=bool)
        touched[self._rows] = True
        touched[self._cols] = True
        local = np.cumsum(touched) - 1  # variable -> column of E
        return (self._eps, touched, local[self._rows], local[self._cols],
                self._v[self._rows, self._cols])


def scores_for(fit: NodewiseFit, v: SymMatrix, S: IndexSet) -> LazyEta:
    """The scores of the index set S."""
    return LazyEta(fit, v, S)
