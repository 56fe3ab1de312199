import math
import warnings

import numpy as np
import pytest

from precboot import Dataset, IndexSet, RngSpec, SymMatrix, center, \
    fit_pipeline, gaussian_mult_factor, multiplier_cov
from precboot.errors import ConvergenceWarning
from precboot.longrun import kernel_lag_weights
from precboot.nodewise import fit_batch
from precboot.simulate import DgpSpec, generate


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_centered(values) -> Dataset:
    return center(Dataset(np.asarray(values, dtype=np.float64)))


def gram_dataset(gram, n=4):
    """A centered dataset whose Gram matrix Y'Y/n equals ``gram`` exactly.

    Uses orthonormal mean-zero basis vectors scaled by the Cholesky factor;
    only supports p = 2 with n = 4.
    """
    gram = np.asarray(gram, dtype=np.float64)
    assert gram.shape == (2, 2) and n == 4
    z = np.column_stack([
        np.array([1.0, -1.0, 1.0, -1.0]) / 2.0,
        np.array([1.0, 1.0, -1.0, -1.0]) / 2.0,
    ])
    chol = np.linalg.cholesky(gram)
    return Dataset(2.0 * z @ chol.T, centered=True)


def desk_fit():
    """The pipeline fit of one sample at the paper's desk cell: structure A,
    p = 50, n = 150, rho = 0.3."""
    return fit_pipeline(center(generate(DgpSpec("A", 50, 0.3, 150,
                                                RngSpec(301, "dgp")))))


def partly_mirrored(p: int, rng) -> IndexSet:
    """The off-diagonal pairs of p variables with about a third of the pairs
    (j1 > j2) dropped, so some pairs have their mirror in the set and some
    do not; row-major."""
    j = np.arange(p)
    mask = (j[:, None] != j[None, :]) \
        & ((j[:, None] < j[None, :]) | (rng.uniform(size=(p, p)) > 0.35))
    return IndexSet(np.column_stack(np.nonzero(mask)) + 1)


def mirror_positions(S: IndexSet) -> np.ndarray:
    """For each pair (a, b) of S, the position of (b, a) in S, or -1."""
    position = {pair: l for l, pair in enumerate(map(tuple,
                                                     S.pairs.tolist()))}
    return np.array([position.get((b, a), -1) for a, b in S.pairs.tolist()])


# ---------------------------------------------------------------------------
# reference implementations the package is checked against

def fit_at(data, lambdas, cfg):
    """The node-wise fit of ``data`` at the given penalties lambda_j instead
    of the default ones: one lockstep solve, as ``fit_all`` runs it."""
    return fit_batch([data], [np.asarray(lambdas, dtype=np.float64)],
                     cfg).fit(0)


def kkt_violation(data, j, lambda_j, gamma):
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


def fit_node(data, j, lam, cfg):
    """(gamma, sweeps) of the Lasso regression of node j (1-based) at the
    penalty ``lam``: row j - 1 of a lockstep solve of ``data`` with every
    node at ``lam``, whose rows do exactly the one-node arithmetic. Warns
    when that node did not converge."""
    batch = fit_batch([data], [np.full(data.p, float(lam))], cfg)
    if not batch.converged[0, j - 1]:
        warnings.warn(f"node {j}: coordinate descent not converged after "
                      f"{cfg.max_iter} sweeps", ConvergenceWarning)
    return batch.alpha[0, j - 1], int(batch.iterations[0, j - 1])


def draw_vectors(eta, h_diag, cfg, coord_sd=None, n_by_n=None):
    """Full r x M matrix of bootstrap vectors at the fixed ``cfg.bandwidth``,
    divided entrywise by coord_sd when it is given. Column m is
    diag(h) eta' L z_m / sqrt(n), with L = A^(1/2) the symmetric root of the
    multiplier covariance and z_m the n standard normals of draw m's own
    substream, when r >= n or ``n_by_n``; otherwise it is
    diag(h) R z_m / sqrt(n), with R = D C^(1/2) for eta' A eta = D C D,
    D = diag(sd) and C^(1/2) the symmetric root of the correlation matrix,
    and z_m the first r normals of that substream."""
    n, r = eta.shape
    if n_by_n is None:
        n_by_n = r >= n
    if n_by_n:
        factor = gaussian_mult_factor(n, cfg.bandwidth, cfg.kernel)
    else:
        xi = eta.T @ multiplier_cov(n, cfg.bandwidth, cfg.kernel) @ eta
        sd = np.sqrt(np.diag(xi))
        vals, vecs = np.linalg.eigh(xi / np.outer(sd, sd))
        factor = sd[:, None] * (vecs * np.sqrt(np.maximum(vals, 0.0))
                                @ vecs.T)
    z = np.column_stack([cfg.rng.generator(m).standard_normal(factor.shape[1])
                         for m in range(cfg.M)])
    scale = h_diag / math.sqrt(n)
    if coord_sd is not None:
        scale = scale / coord_sd
    proj = eta.T @ (factor @ z) if n_by_n else factor @ z
    return scale[:, None] * proj


def gamma_hat(eta, k: int) -> np.ndarray:
    """Lag-k sample autocovariance of the scores, divisor n."""
    n = eta.shape[0]
    if k < 0:
        return gamma_hat(eta, -k).T
    if k == 0:
        return eta.T @ eta / n
    return eta[k:].T @ eta[:-k] / n


def xi_hat(eta, s_n: float, kernel) -> SymMatrix:
    """Full r x r kernel-weighted autocovariance sum; its diagonal, scaled by
    h^2, is what ``w_diag`` computes without forming it."""
    n, r = eta.shape
    weights = kernel_lag_weights(kernel, n, s_n)
    g0 = eta.T @ eta / n
    xi = (g0 + g0.T) / 2.0
    for k in range(1, n):
        if weights[k] == 0.0:
            continue
        gk = eta[k:].T @ eta[:-k] / n
        xi = xi + weights[k] * (gk + gk.T)
    return SymMatrix(xi)
