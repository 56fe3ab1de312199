"""Metamorphic properties: how the outputs must move when the inputs are
transformed in a way whose effect is known."""
import numpy as np
import pytest

from precboot import Dataset, RngSpec, bh_select, fit_pipeline, \
    index_set_all_offdiag, kmb_draws, recover_support
from precboot.bootstrap import BootstrapConfig
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
            threshold = boot.half_width(1.0 - alpha)
            # premise: no |omega| is within reach of its threshold
            assert np.abs(np.abs(omega_s) - threshold).min() > 1e-4
            edges.append(recover_support(omega_s, S, boot, alpha))
        assert edges[0]
        mapped = {(perm[j1 - 1] + 1, perm[j2 - 1] + 1) for j1, j2 in edges[1]}
        assert mapped == set(edges[0])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_plug_in_bandwidth_and_edges_are_permuted(self, seed):
        # offdiag at p = 75 has r = 5,550 pairs, more than the plug-in once
        # read, and r >= n, so the max statistic does not depend on the
        # column order. Relabelling the variables only reorders the pairs,
        # which the plug-in reads all of; but the permuted node-wise fits
        # agree only to the CD tolerance, so S_n agrees to rtol 1e-6, not
        # 1e-12 (the relative differences were 5.6e-10 at seed 0 and
        # 3.7e-9 at seed 1)
        p, alpha = 75, 0.05
        dgp = DgpSpec(structure="A", p=p, rho=0.3, n=200,
                      rng=RngSpec(seed, "perm"))
        data = generate(dgp)
        perm = np.random.default_rng(seed).permutation(p)
        S = index_set_all_offdiag(p)
        cfg = BootstrapConfig(rng=RngSpec(seed, "boot"), M=300)
        bandwidths, edges = [], []
        for sample in (data, permuted(data, perm)):
            pipe = fit_pipeline(sample)
            eta, h = pipe.scores(S)
            (boot,) = kmb_draws(eta, h, cfg)
            omega_s = pipe.omega_on(S)
            # premise: no |omega| is within reach of its threshold; the two
            # runs' omega and thresholds differ by about 1e-7 and 1e-8
            threshold = boot.half_width(1.0 - alpha)
            assert np.abs(np.abs(omega_s) - threshold).min() > 1e-5
            bandwidths.append(boot.bandwidth)
            edges.append(recover_support(omega_s, S, boot, alpha))
        assert S.r > 5000 and edges[0]
        assert bandwidths[1] == pytest.approx(bandwidths[0], rel=1e-6)
        mapped = {(perm[j1 - 1] + 1, perm[j2 - 1] + 1) for j1, j2 in edges[1]}
        assert mapped == set(edges[0])
