"""Node-wise Lasso regressions.

Each variable is regressed on all the others with an L1 penalty; the fitted
coefficient vector for node j is constrained to have -1 in position j, so the
residual for node j at time t is -<alpha_j, y_t>.

The solver is cyclic coordinate descent on the Gram matrix (covariance
updates), run for all p nodes in lockstep with NumPy: coordinate k is
visited by every node at once, so one sweep costs p vector steps instead
of p^2 scalar ones.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Dataset
from .errors import ConvergenceWarning, DegenerateColumn, InsufficientData, InvalidInput

@dataclass
class LassoConfig:
    lambda_scale: float = 0.5
    max_iter: int = 10000
    tol: float = 1e-7
    lambda_override: Optional[Sequence[float]] = None

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
    if cfg.lambda_override is not None:
        lam = np.asarray(cfg.lambda_override, dtype=np.float64)
        if lam.shape != (data.p,):
            raise InvalidInput("lambda_override must have length p")
        return lam
    sd = data.values.std(axis=0, ddof=1)
    if np.any(sd <= 0.0):
        bad = int(np.nonzero(sd <= 0.0)[0][0]) + 1
        raise DegenerateColumn(f"column {bad} has zero variance")
    return cfg.lambda_scale * sd * np.sqrt(2.0 * np.log(data.p) / data.n)


def _cd_lockstep(gram: np.ndarray, lambdas: np.ndarray, active: np.ndarray,
                 tol: float, max_iter: int):
    """Cyclic coordinate descent on the Gram matrix gram = Y'Y/n, for the
    nodes in ``active`` at once.

    Node j minimizes gamma' C gamma + 2*lambdas[j]*sum_{k != j} |gamma_k|
    over gamma_j = -1. All nodes visit coordinate k together (covariance
    updates, Friedman, Hastie & Tibshirani 2010); q[j] = C gamma_j is kept
    node-major and only the rows of nodes whose coefficient k moved are
    updated. A node leaves ``active`` at the end of the first sweep whose
    largest move is below tol, so each node does exactly the arithmetic of
    a one-node solve. Returns (gamma, sweeps, converged), one row per node.
    """
    p = gram.shape[0]
    # np.zeros, not -np.eye: the latter leaves -0.0 in untouched coefficients
    gamma = np.zeros((p, p))
    np.fill_diagonal(gamma, -1.0)
    gram_cols = np.ascontiguousarray(gram.T)
    q = -gram_cols  # q[j] = C @ gamma[j], maintained incrementally
    ckk_all = np.diagonal(gram)
    coords = np.flatnonzero(ckk_all > 0.0).tolist()
    neg_lambdas = -lambdas
    active = active.copy()
    sweeps = np.zeros(p, dtype=np.int64)
    converged = np.zeros(p, dtype=bool)
    max_delta = np.empty(p)
    partial = np.empty(p)
    new = np.empty(p)
    diff = np.empty(p)
    for sweep in range(1, max_iter + 1):
        idle = ~active
        max_delta.fill(0.0)
        for k in coords:
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
            diff[idle] = 0.0
            diff[k] = 0.0
            rows = np.flatnonzero(diff)
            if rows.size:
                q[rows] += diff[rows, None] * gram_cols[k]
                gamma[rows, k] = new[rows]
                np.maximum(max_delta, np.abs(diff, out=diff), out=max_delta)
        sweeps[active] = sweep
        done = active & (max_delta < tol)
        converged |= done
        active &= ~done
        if not active.any():
            break
    return gamma, sweeps, converged


def _check_finite(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise InvalidInput("data contains NaN or infinite values")


def _solve(gram: np.ndarray, lambdas: np.ndarray, active: np.ndarray,
           cfg: LassoConfig):
    """Run the solver and warn, in node order, for every node in ``active``
    that did not converge."""
    gamma, sweeps, converged = _cd_lockstep(gram, lambdas, active, cfg.tol,
                                            cfg.max_iter)
    for j0 in np.flatnonzero(active & ~converged):
        warnings.warn(
            f"node {j0 + 1}: coordinate descent not converged after "
            f"{cfg.max_iter} sweeps",
            ConvergenceWarning,
        )
    return gamma, sweeps


def fit_node(data: Dataset, j: int, lambda_j: float, cfg: LassoConfig):
    """Fit the Lasso regression for node j (1-based).

    Returns (gamma, iterations) where gamma has gamma[j-1] = -1.
    """
    if not data.centered:
        raise InsufficientData("fit_node requires centered data")
    if not 1 <= j <= data.p:
        raise InvalidInput(f"node index {j} out of range 1..{data.p}")
    _check_finite(data.values)
    gram = data.values.T @ data.values / data.n
    active = np.arange(data.p) == j - 1
    gamma, sweeps = _solve(gram, np.full(data.p, float(lambda_j)), active, cfg)
    return gamma[j - 1], int(sweeps[j - 1])


def fit_all(data: Dataset, cfg: LassoConfig) -> NodewiseFit:
    """Fit all p node-wise regressions and compute residuals."""
    if not data.centered:
        raise InsufficientData("fit_all requires centered data")
    _check_finite(data.values)
    lambdas = default_lambdas(data, cfg)
    gram = data.values.T @ data.values / data.n
    alpha, iterations = _solve(gram, lambdas, np.ones(data.p, dtype=bool), cfg)
    residuals = -(data.values @ alpha.T)
    return NodewiseFit(alpha=alpha, lambdas=lambdas, residuals=residuals,
                       iterations=iterations)


def kkt_violation(data: Dataset, j: int, lambda_j: float, gamma: np.ndarray) -> float:
    """Largest violation of the stationarity conditions for node j.

    For r_t = -gamma' y_t the optimum satisfies, for every k != j,
    |mean(r * y_k)| <= lambda when gamma_k = 0 and mean(r * y_k) =
    lambda * sign(gamma_k) otherwise.
    """
    j0 = j - 1
    resid = -(data.values @ gamma)
    corr = data.values.T @ resid / data.n
    viol = 0.0
    for k in range(data.p):
        if k == j0:
            continue
        if gamma[k] == 0.0:
            viol = max(viol, abs(corr[k]) - lambda_j)
        else:
            viol = max(viol, abs(corr[k] - lambda_j * np.sign(gamma[k])))
    return viol
