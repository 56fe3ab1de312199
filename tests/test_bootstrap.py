import math

import numpy as np
import pytest

from precboot import RngSpec, confidence_region, gaussian_mult_factor, \
    kmb_draws, multiplier_cov, quantile
from precboot.bootstrap import BootstrapConfig, BootstrapResult
from precboot.errors import InvalidInput, InvalidLevel, MissingScale
from precboot.longrun import KernelSpec, andrews_bandwidth, w_diag

from conftest import draw_vectors

QS = KernelSpec(kind="qs")
QS_EXACT = KernelSpec(kind="qs", truncation_eps=0.0)
BART = KernelSpec(kind="bartlett")


def result_from(stats, studentized=False, w=None):
    return BootstrapResult(stats=np.sort(np.asarray(stats, dtype=np.float64)),
                           bandwidth=1.0, studentized=studentized,
                           rng=RngSpec(0), w_diag=w)


class TestMultiplierFactor:
    def test_bartlett_unit_bandwidth_identity(self):
        np.testing.assert_array_equal(multiplier_cov(4, 1.0, BART), np.eye(4))
        np.testing.assert_allclose(gaussian_mult_factor(4, 1.0, BART),
                                   np.eye(4), atol=1e-14)

    def test_two_by_two_reproduces_cov(self):
        a = multiplier_cov(2, 2.0, QS)
        factor = gaussian_mult_factor(2, 2.0, QS)
        np.testing.assert_allclose(factor @ factor.T, a, atol=1e-12)

    def test_single_point(self):
        np.testing.assert_allclose(gaussian_mult_factor(1, 5.0, QS), [[1.0]],
                                   atol=1e-14)

    def test_larger_instance(self):
        a = multiplier_cov(30, 3.0, QS)
        factor = gaussian_mult_factor(30, 3.0, QS)
        np.testing.assert_allclose(factor @ factor.T, a, atol=1e-8)

    def test_invalid_n(self):
        with pytest.raises(InvalidInput):
            gaussian_mult_factor(0, 1.0, QS)


class TestKmbDraws:
    def test_zero_scores_zero_stats(self):
        cfg = BootstrapConfig(rng=RngSpec(3), M=50, bandwidth=1.0, kernel=BART)
        (res,) = kmb_draws(np.zeros((20, 2)), np.ones(2), cfg)
        assert np.all(res.stats == 0.0)

    def test_stats_sorted_nonnegative_finite(self, rng):
        eta = rng.standard_normal((30, 4))
        cfg = BootstrapConfig(rng=RngSpec(3), M=200, bandwidth=2.0)
        (res,) = kmb_draws(eta, np.ones(4), cfg)
        assert np.all(np.diff(res.stats) >= 0.0)
        assert np.all(res.stats >= 0.0) and np.all(np.isfinite(res.stats))
        assert res.M == 200

    def test_half_normal_sd(self):
        # A = I, eta = ones: each stat is |N(0, 1)|
        eta = np.ones((100, 1))
        cfg = BootstrapConfig(rng=RngSpec(9), M=20000, bandwidth=1.0,
                              kernel=BART)
        (res,) = kmb_draws(eta, np.ones(1), cfg)
        assert res.stats.std() == pytest.approx(0.6028102749890869, rel=0.02)

    def test_studentized_half_normal_mean(self, rng):
        eta = 3.7 * rng.standard_normal((200, 1))
        cfg = BootstrapConfig(rng=RngSpec(9), M=20000, bandwidth=1.0,
                              kernel=BART)
        (res,) = kmb_draws(eta, np.ones(1), cfg, (True,))
        assert res.stats.mean() == pytest.approx(math.sqrt(2 / math.pi),
                                                 rel=0.02)

    def test_studentized_scale_invariance(self, rng):
        eta = rng.standard_normal((50, 3))
        h = np.array([0.7, 1.1, 2.0])
        scale = np.array([3.0, 0.25, 10.0])
        cfg = BootstrapConfig(rng=RngSpec(4), M=100, bandwidth=2.0)
        (res1,) = kmb_draws(eta, h, cfg, (True,))
        (res2,) = kmb_draws(eta * scale[None, :], h, cfg, (True,))
        np.testing.assert_allclose(res1.stats, res2.stats, rtol=1e-9)

    def test_determinism(self, rng):
        eta = rng.standard_normal((25, 3))
        cfg = BootstrapConfig(rng=RngSpec(11, "s"), M=64, bandwidth=1.5)
        (a,) = kmb_draws(eta, np.ones(3), cfg)
        (b,) = kmb_draws(eta, np.ones(3), cfg)
        np.testing.assert_array_equal(a.stats, b.stats)

    def test_block_size_does_not_change_results(self, rng):
        eta = rng.standard_normal((25, 7))
        cfg = BootstrapConfig(rng=RngSpec(11), M=32, bandwidth=1.5)
        a = kmb_draws(eta, np.ones(7), cfg, (False, True), column_block=2)
        b = kmb_draws(eta, np.ones(7), cfg, (False, True), column_block=100)
        # block partitioning changes BLAS accumulation order, so agreement is
        # to rounding, not bitwise; bitwise determinism is guaranteed for the
        # fixed default block size
        for x, y in zip(a, b):
            np.testing.assert_allclose(x.stats, y.stats, rtol=1e-12)

    def test_vectors_hook_agrees_with_stats(self, rng):
        # stats are the sorted max-abs of the reference draw vectors, plain
        # and studentized, over more than one draw chunk
        eta = rng.standard_normal((15, 4))
        h = rng.uniform(0.5, 2.0, 4)
        cfg = BootstrapConfig(rng=RngSpec(6), M=300, bandwidth=2.0)
        plain, stud = kmb_draws(eta, h, cfg, (False, True))
        w = w_diag(eta, h, 2.0, QS)
        np.testing.assert_array_equal(stud.w_diag, w)
        for res, vectors in ((plain, draw_vectors(eta, h, cfg)),
                             (stud, draw_vectors(eta, h, cfg, w))):
            np.testing.assert_allclose(np.sort(np.abs(vectors).max(axis=0)),
                                       res.stats, atol=1e-12)

    def test_dual_matches_separate_runs(self, rng):
        eta = rng.standard_normal((30, 5))
        h = rng.uniform(0.5, 2.0, 5)
        cfg = BootstrapConfig(rng=RngSpec(8), M=300, bandwidth=2.0)
        plain, stud = kmb_draws(eta, h, cfg, (False, True))
        (sep_plain,) = kmb_draws(eta, h, cfg, (False,))
        (sep_stud,) = kmb_draws(eta, h, cfg, (True,))
        np.testing.assert_array_equal(plain.stats, sep_plain.stats)
        np.testing.assert_array_equal(stud.stats, sep_stud.stats)
        assert not plain.studentized and plain.w_diag is None
        assert stud.studentized
        np.testing.assert_array_equal(stud.w_diag, sep_stud.w_diag)

    def test_plug_in_bandwidth_when_none(self, rng):
        eta = rng.standard_normal((40, 3))
        cfg = BootstrapConfig(rng=RngSpec(2), M=20)
        plain, stud = kmb_draws(eta, np.ones(3), cfg, (False, True))
        s_n = andrews_bandwidth(eta, cfg.kernel)
        assert plain.bandwidth == stud.bandwidth == s_n
        np.testing.assert_array_equal(
            stud.w_diag, w_diag(eta, np.ones(3), s_n, cfg.kernel))

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), 0.0,
                                           -2.0])
    def test_invalid_bandwidth(self, bandwidth):
        with pytest.raises(InvalidInput):
            BootstrapConfig(rng=RngSpec(0), bandwidth=bandwidth)


class TestQuantile:
    def test_median(self):
        assert quantile(result_from([1, 2, 3, 4]), 0.5) == 2.0

    def test_upper(self):
        assert quantile(result_from([1, 2, 3, 4]), 0.95) == 4.0

    def test_invalid_levels(self):
        res = result_from([1, 2, 3])
        for level in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidLevel):
                quantile(res, level)

    def test_monotone_in_level(self, rng):
        res = result_from(rng.standard_normal(97) ** 2)
        levels = np.linspace(0.01, 0.99, 25)
        qs = [quantile(res, lv) for lv in levels]
        assert all(b >= a for a, b in zip(qs, qs[1:]))


class TestConfidenceRegion:
    def test_arithmetic(self):
        region = confidence_region(np.array([0.5]), 2.0, 100, False)
        np.testing.assert_allclose(region, [[0.3, 0.7]], atol=1e-15)

    def test_zero_quantile_degenerate(self):
        region = confidence_region(np.array([0.1, -0.2]), 0.0, 25, False)
        np.testing.assert_allclose(region[:, 0], region[:, 1], atol=1e-15)

    def test_studentized_scaling(self):
        base = confidence_region(np.array([0.0]), 1.0, 4, True,
                                 w_diag=np.array([1.0]))
        wide = confidence_region(np.array([0.0]), 1.0, 4, True,
                                 w_diag=np.array([4.0]))
        assert wide[0, 1] == pytest.approx(2.0 * base[0, 1], abs=1e-15)

    def test_studentized_needs_w(self):
        with pytest.raises(MissingScale):
            confidence_region(np.array([0.0]), 1.0, 4, True)


class TestDistributionalCorrectness:
    def test_draw_covariance_matches_target(self, rng):
        # r = 4, n = 3 random instance; empirical covariance of the draw
        # vectors vs H (E'AE/n) H within 4 Monte Carlo standard errors
        n, r = 3, 4
        eta = rng.standard_normal((n, r))
        h = rng.uniform(0.5, 1.5, r)
        s_n = 2.0
        cfg = BootstrapConfig(rng=RngSpec(21), M=200000, bandwidth=s_n,
                              kernel=QS_EXACT)
        vectors = draw_vectors(eta, h, cfg)
        a = multiplier_cov(n, s_n, QS_EXACT)
        target = np.diag(h) @ (eta.T @ a @ eta / n) @ np.diag(h)
        emp = vectors @ vectors.T / cfg.M
        # se of a Gaussian product moment: sqrt((c_ii c_jj + c_ij^2)/M)
        d = np.diagonal(target)
        se = np.sqrt((np.outer(d, d) + target ** 2) / cfg.M)
        assert np.all(np.abs(emp - target) <= 4.0 * se)
