"""Node-wise Lasso regressions.

Each variable is regressed on all the others with an L1 penalty; the fitted
coefficient vector for node j is constrained to have -1 in position j, so the
residual for node j at time t is -<alpha_j, y_t>.

The solver is cyclic coordinate descent on the Gram matrix (covariance
updates), run for all p nodes in lockstep with NumPy: coordinate k is
visited by every node at once, so one sweep costs p vector steps instead
of p^2 scalar ones. The lockstep extends across samples: ``fit_batch``
solves the nodes of B same-shape samples (a chunk of Monte Carlo
replicates) as B*p rows of one solve, and ``fit_all`` is the case B = 1.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Dataset
from .errors import ConvergenceWarning, DegenerateColumn, InsufficientData, \
    InvalidInput, NotConverged

@dataclass
class LassoConfig:
    lambda_scale: float = 0.5
    max_iter: int = 10000
    tol: float = 1e-7

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidInput("tol must be positive")
        if self.max_iter < 1:
            raise InvalidInput("max_iter must be >= 1")


@dataclass
class NodewiseFit:
    """Fitted coefficients, penalties and residuals for all p nodes.

    alpha[j, k] is the coefficient of variable k+1 in the regression of node
    j+1, with alpha[j, j] = -1. residuals[t, j] = -<alpha_j, y_t>.
    """

    alpha: np.ndarray
    lambdas: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray


def default_lambdas(data: Dataset, cfg: LassoConfig) -> np.ndarray:
    """lambda_j = lambda_scale * sd(y_j) * sqrt(2 log p / n)."""
    sd = data.values.std(axis=0, ddof=1)
    if np.any(sd <= 0.0):
        bad = int(np.nonzero(sd <= 0.0)[0][0]) + 1
        raise DegenerateColumn(f"column {bad} has zero variance")
    return cfg.lambda_scale * sd * np.sqrt(2.0 * np.log(data.p) / data.n)


def _cd_lockstep(gram: np.ndarray, lambdas: np.ndarray, tol: float,
                 max_iter: int):
    """Cyclic coordinate descent on a stack of Gram matrices gram[b] =
    Y_b'Y_b/n, for all their node rows at once.

    Row i = b*p + j is node j of sample b: it minimizes gamma' C_b gamma +
    2*lambdas[i]*sum_{k != j} |gamma_k| over gamma_j = -1. All rows visit
    coordinate k together (covariance updates, Friedman, Hastie & Tibshirani
    2010); q[i] = C_b gamma_i is kept row-major and only the rows whose
    coefficient k moved are updated. A row leaves the solve at the end of
    the first sweep whose largest move is below tol. Every step is
    elementwise over rows, so each row does exactly the arithmetic of a
    one-node solve. Every C_b[k, k] must be positive. Returns (gamma,
    sweeps, converged), one row per node.
    """
    n_b, p, _ = gram.shape
    rows_all = n_b * p
    # np.zeros, not -np.eye: the latter leaves -0.0 in untouched coefficients
    gamma = np.zeros((rows_all, p))
    gamma.reshape(n_b, p * p)[:, ::p + 1] = -1.0
    gram_cols = np.ascontiguousarray(gram.transpose(0, 2, 1))
    q = -gram_cols.reshape(rows_all, p)  # q[i] = C_b @ gamma[i], incremental
    # by_coord[k][b] = C_b[:, k], the update direction of coordinate k
    by_coord = np.ascontiguousarray(gram_cols.transpose(1, 0, 2))
    ckk_all = np.repeat(np.diagonal(gram, axis1=1, axis2=2).T, p, axis=1)
    neg_lambdas = -lambdas
    sweeps = np.zeros(rows_all, dtype=np.int64)
    converged = np.zeros(rows_all, dtype=bool)
    max_delta = np.empty(rows_all)
    partial = np.empty(rows_all)
    new = np.empty(rows_all)
    diff = np.empty(rows_all)
    for sweep in range(1, max_iter + 1):
        max_delta.fill(0.0)
        for k in range(p):
            ckk = ckk_all[k]
            old = gamma[:, k]
            np.subtract(q[:, k], np.multiply(old, ckk, out=partial),
                        out=partial)
            # soft threshold (clip(partial, -lam, lam) - partial) / ckk; the
            # dead zone gives +0.0, as the one-node branches do
            np.maximum(partial, neg_lambdas, out=new)
            np.minimum(new, lambdas, out=new)
            new -= partial
            new /= ckk
            np.subtract(new, old, out=diff)
            diff[converged] = 0.0
            diff[k::p] = 0.0
            rows = np.flatnonzero(diff)
            if rows.size:
                cols = by_coord[k] if n_b == 1 else by_coord[k][rows // p]
                q[rows] += diff[rows, None] * cols
                gamma[rows, k] = new[rows]
                np.maximum(max_delta, np.abs(diff, out=diff), out=max_delta)
        sweeps[~converged] = sweep
        converged |= max_delta < tol
        if converged.all():
            break
    return gamma, sweeps, converged


def _gram(data: Dataset) -> np.ndarray:
    return data.values.T @ data.values / data.n


def node_penalties(data: Dataset, cfg: LassoConfig) -> np.ndarray:
    """Check that ``data`` can be fitted (centred, finite, no zero-variance
    column) and return its penalties lambda_j."""
    if not data.centered:
        raise InsufficientData("node-wise fits require centered data")
    if not np.all(np.isfinite(data.values)):
        raise InvalidInput("data contains NaN or infinite values")
    return default_lambdas(data, cfg)


@dataclass
class NodewiseBatch:
    """Node-wise fits of B centred samples of one shape, from one lockstep
    solve. samples[b] is sample b as given; alpha[b], lambdas[b] and
    iterations[b] are the fields of its NodewiseFit, and converged[b] flags
    its nodes that met the tolerance."""

    samples: Sequence[Dataset]
    alpha: np.ndarray
    lambdas: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    max_iter: int

    def sample(self, b: int) -> Dataset:
        return self.samples[b]

    def fit(self, b: int) -> NodewiseFit:
        """Sample b's fit with its residuals. Warns, in node order, for each
        node that did not converge; raises NotConverged if none did."""
        converged = self.converged[b]
        if not converged.any():
            raise NotConverged(
                f"no node converged within {self.max_iter} sweeps")
        for j0 in np.flatnonzero(~converged):
            warnings.warn(f"node {j0 + 1}: coordinate descent not converged "
                          f"after {self.max_iter} sweeps", ConvergenceWarning)
        alpha = self.alpha[b]
        return NodewiseFit(alpha=alpha, lambdas=self.lambdas[b],
                           residuals=-(self.samples[b].values @ alpha.T),
                           iterations=self.iterations[b])


def fit_batch(samples: Sequence[Dataset], lambdas: Sequence[np.ndarray],
              cfg: LassoConfig) -> NodewiseBatch:
    """Solve the node-wise regressions of several centred samples of one
    shape in one lockstep call; ``lambdas`` are their node_penalties.
    Raises DegenerateColumn if a sample has a zero-variance column."""
    gram = np.stack([_gram(d) for d in samples])
    zero = np.argwhere(np.diagonal(gram, axis1=1, axis2=2) <= 0.0)
    if zero.size:
        b, j = zero[0]
        raise DegenerateColumn(f"sample {b}: column {j + 1} has zero variance")
    lambdas = np.stack(lambdas)
    n_b, p = lambdas.shape
    alpha, sweeps, converged = _cd_lockstep(gram, lambdas.ravel(), cfg.tol,
                                            cfg.max_iter)
    return NodewiseBatch(
        samples=samples,
        alpha=alpha.reshape(n_b, p, p), lambdas=lambdas,
        iterations=sweeps.reshape(n_b, p),
        converged=converged.reshape(n_b, p), max_iter=cfg.max_iter)


def fit_all(data: Dataset, cfg: LassoConfig) -> NodewiseFit:
    """Fit all p node-wise regressions and compute residuals. Warns for
    each node that did not converge; raises NotConverged if none did."""
    return fit_batch([data], [node_penalties(data, cfg)], cfg).fit(0)

