"""Metamorphic properties: how the outputs must move when the inputs are
transformed in a way whose effect is known."""
import numpy as np
import pytest

from precboot import Dataset, RngSpec, bh_select, fit_pipeline, \
    index_set_all_offdiag, kmb_draws, quantile, recover_support
from precboot.bootstrap import BootstrapConfig, half_width
from precboot.nodewise import LassoConfig
from precboot.simulate import DgpSpec, generate


def permuted(data, perm):
    """The data with its variables reordered: new column k is old perm[k]."""
    return Dataset(data.values[:, perm])


class TestBhMonotoneInAlpha:
    def test_rejections_grow_with_alpha(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 30))
            # a coarse grid gives ties, among them ties across the threshold
            p = np.round(rng.uniform(0.0, 0.3, k), 2)
            alphas = np.sort(rng.uniform(0.0, 0.5, 6))
            picks = [set(bh_select(p, a)) for a in alphas]
            for smaller, larger in zip(picks, picks[1:]):
                assert smaller <= larger


class TestVariablePermutation:
    P, N = 12, 120

    def sample(self, seed):
        dgp = DgpSpec(structure="A", p=self.P, rho=0.3, n=self.N,
                      rng=RngSpec(seed, "perm"))
        return generate(dgp), np.random.default_rng(seed).permutation(self.P)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_omega_hat_is_permuted(self, seed):
        # coordinate descent visits the variables in another order, so the
        # two fits agree only up to its stopping tolerance
        data, perm = self.sample(seed)
        cfg = LassoConfig()
        omega = fit_pipeline(data, cfg).omega_hat.values
        omega_perm = fit_pipeline(permuted(data, perm), cfg).omega_hat.values
        np.testing.assert_allclose(omega_perm, omega[np.ix_(perm, perm)],
                                   rtol=0.0, atol=10 * cfg.tol)

    @pytest.mark.parametrize("studentized", [False, True],
                             ids=["kmb", "skmb"])
    def test_recovered_support_is_permuted(self, studentized):
        # r = p(p - 1) = 132 >= n, so the draws project one multiplier
        # series per draw on every score column and the max statistic does
        # not depend on the column order
        data, perm = self.sample(1)
        S = index_set_all_offdiag(self.P)
        alpha = 0.05
        cfg = BootstrapConfig(rng=RngSpec(1, "boot"), M=500, bandwidth=2.0)
        edges = []
        for sample in (data, permuted(data, perm)):
            pipe = fit_pipeline(sample)
            eta, h = pipe.scores(S)
            (boot,) = kmb_draws(eta, h, cfg, (studentized,))
            omega_s = pipe.omega_on(S)
            threshold = half_width(quantile(boot, 1.0 - alpha), self.N, S.r,
                                   boot.w_diag)
            # premise: no |omega| is within reach of its threshold
            assert np.abs(np.abs(omega_s) - threshold).min() > 1e-4
            edges.append(recover_support(omega_s, S, boot, self.N,
                                         alpha).selected)
        assert edges[0]
        mapped = {(perm[j1 - 1] + 1, perm[j2 - 1] + 1) for j1, j2 in edges[1]}
        assert mapped == set(edges[0])
