"""Bias-corrected error covariance and precision matrix estimators.

The residual cross-moments from penalized node-wise regressions carry a
first-order bias; the corrected estimator removes it using the fitted
coefficients, after which the precision matrix follows from diagonal
rescaling.
"""
from __future__ import annotations

import numpy as np

from .core import IndexSet, SymMatrix
from .errors import DegenerateResiduals
from .nodewise import NodewiseFit

# dense score matrices are materialized only up to this many entries
DEFAULT_ENTRY_BUDGET = 2**31


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


def eta_scores(fit: NodewiseFit, v: SymMatrix, S: IndexSet) -> np.ndarray:
    """n x r matrix of residual-product scores.

    Column l is e_{j1,t} e_{j2,t} - v_{j1,j2} for (j1, j2) = chi(l).  The
    columns are centred at the bias-corrected v_hat, not at their own mean:
    when a_{j1,j2} = a_{j2,j1} = 0 the column mean is exactly -2 v_{j1,j2}.
    """
    rows, cols = S.rows(), S.cols()
    eps = fit.residuals
    return eps[:, rows] * eps[:, cols] - v.values[rows, cols]


class LazyEta:
    """Column-blockwise view of the score matrix for large index sets.

    Produces exactly the same columns as :func:`eta_scores` without ever
    materializing the full n x r matrix.
    """

    def __init__(self, fit: NodewiseFit, v: SymMatrix, S: IndexSet):
        self._eps = fit.residuals
        self._v = v.values
        self._rows = S.rows()
        self._cols = S.cols()
        self.shape = (self._eps.shape[0], S.r)

    def get_block(self, start: int, stop: int) -> np.ndarray:
        rows = self._rows[start:stop]
        cols = self._cols[start:stop]
        return self._eps[:, rows] * self._eps[:, cols] - self._v[rows, cols]


def iter_column_blocks(eta, block: int):
    """Yield (start, stop, block_array) over columns of a dense or lazy
    score matrix, in a fixed order."""
    n, r = eta.shape
    for start in range(0, r, block):
        stop = min(start + block, r)
        if isinstance(eta, np.ndarray):
            yield start, stop, eta[:, start:stop]
        else:
            yield start, stop, eta.get_block(start, stop)


def scores_for(fit: NodewiseFit, v: SymMatrix, S: IndexSet,
               entry_budget: int = DEFAULT_ENTRY_BUDGET):
    """Dense scores when they fit in the entry budget, lazy blocks otherwise."""
    n = fit.residuals.shape[0]
    if n * S.r <= entry_budget:
        return eta_scores(fit, v, S)
    return LazyEta(fit, v, S)
