import math

import numpy as np
import pytest

from precboot import Dataset, RngSpec, SymMatrix, center, \
    gaussian_mult_factor
from precboot.longrun import kernel_lag_weights


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


# ---------------------------------------------------------------------------
# reference implementations the package is checked against

def draw_vectors(eta, h_diag, cfg, w=None):
    """Full r x M matrix of bootstrap vectors at the fixed ``cfg.bandwidth``:
    column m is diag(h) eta' L z_m / sqrt(n), divided entrywise by sqrt(w)
    when w is given, with L L' the multiplier covariance and z_m the
    standard normals of draw m's own substream."""
    n = eta.shape[0]
    factor = gaussian_mult_factor(n, cfg.bandwidth, cfg.kernel)
    z = np.column_stack([cfg.rng.generator(m).standard_normal(n)
                         for m in range(cfg.M)])
    scale = h_diag / math.sqrt(n)
    if w is not None:
        scale = scale / np.sqrt(w)
    return scale[:, None] * (eta.T @ (factor @ z))


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
