import math
import tracemalloc

import numpy as np
import pytest

from precboot import Dataset, RngSpec, center, confidence_region, \
    fit_pipeline, gaussian_mult_factor, index_set_all_offdiag, kmb_draws, \
    multiplier_cov, precision, quantile
from precboot.bootstrap import DRAW_CHUNK, BootstrapConfig, \
    BootstrapResult, max_statistic, psd_factor, score_mult_factor
from precboot.errors import InvalidInput, InvalidLevel, ShapeError
from precboot.longrun import KernelSpec, andrews_bandwidth, kernel_eval, \
    w_diag

from conftest import draw_vectors

QS = KernelSpec(kind="qs")
QS_EXACT = KernelSpec(kind="qs", truncation_eps=0.0)
BART = KernelSpec(kind="bartlett")


def result_from(stats, w=None):
    return BootstrapResult(stats=np.sort(np.asarray(stats, dtype=np.float64)),
                           bandwidth=1.0, w_diag=w)


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

    def test_fallback_is_psd_factor(self):
        # Cholesky fails on A at this bandwidth; A has a unit diagonal, so
        # the correlation form of psd_factor is the plain clipped eigh root
        a = multiplier_cov(150, 2.5, QS)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(a)
        got = psd_factor(a)
        want = gaussian_mult_factor(150, 2.5, QS)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("spec", [QS, QS_EXACT, BART],
                             ids=["qs", "qs-exact", "bartlett"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 150, 500])
    def test_cov_equals_index_matrix(self, spec, n):
        # the parent's form: K evaluated per lag, spread by |i - j|
        idx = np.arange(n)
        by_lag = kernel_eval(spec, idx / 2.3)
        a = multiplier_cov(n, 2.3, spec)
        np.testing.assert_array_equal(
            a, by_lag[np.abs(idx[:, None] - idx[None, :])])
        assert a.flags.c_contiguous and a.flags.writeable


def serially_dependent(rng, n, r, phi=0.5):
    """n x r scores, each column an AR(1) series with coefficient phi."""
    e = rng.standard_normal((n, r))
    for t in range(1, n):
        e[t] += phi * e[t - 1]
    return e


class TestScoreMultFactor:
    @pytest.mark.parametrize("n, r, s_n, kernel", [
        (40, 7, 2.5, QS), (200, 30, 4.0, QS), (60, 59, 3.0, BART),
        (12, 1, 1.5, QS)])
    def test_reproduces_long_run_cov(self, rng, n, r, s_n, kernel):
        eta = serially_dependent(rng, n, r) * rng.uniform(0.1, 10.0, r)
        factor = score_mult_factor(eta, s_n, kernel)
        xi = eta.T @ multiplier_cov(n, s_n, kernel) @ eta
        assert factor.shape == (r, r)
        np.testing.assert_allclose(factor @ factor.T, xi, rtol=0,
                                   atol=1e-10 * np.abs(xi).max())

    def test_zero_column_gets_zero_row(self, rng):
        eta = rng.standard_normal((30, 4))
        eta[:, 2] = 0.0
        factor = score_mult_factor(eta, 2.0, QS)
        assert np.all(factor[2] == 0.0) and np.all(np.isfinite(factor))
        xi = eta.T @ multiplier_cov(30, 2.0, QS) @ eta
        np.testing.assert_allclose(factor @ factor.T, xi, rtol=0,
                                   atol=1e-10 * np.abs(xi).max())


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
        # one shape per draw route: r < n and r >= n
        cfg = BootstrapConfig(rng=RngSpec(4), M=100, bandwidth=2.0)
        for n, r in ((50, 3), (6, 10)):
            eta = rng.standard_normal((n, r))
            h = rng.uniform(0.5, 2.0, r)
            scale = rng.choice([3.0, 0.25, 10.0], r)
            (res1,) = kmb_draws(eta, h, cfg, (True,))
            (res2,) = kmb_draws(eta * scale[None, :], h, cfg, (True,))
            np.testing.assert_allclose(res1.stats, res2.stats, rtol=1e-9)

    def test_determinism(self, rng):
        eta = rng.standard_normal((25, 3))
        cfg = BootstrapConfig(rng=RngSpec(11, "s"), M=64, bandwidth=1.5)
        (a,) = kmb_draws(eta, np.ones(3), cfg)
        (b,) = kmb_draws(eta, np.ones(3), cfg)
        np.testing.assert_array_equal(a.stats, b.stats)

    def test_block_size_does_not_change_results(self, rng, monkeypatch):
        eta = rng.standard_normal((25, 7))
        cfg = BootstrapConfig(rng=RngSpec(11), M=32, bandwidth=1.5)
        b = kmb_draws(eta, np.ones(7), cfg, (False, True))
        monkeypatch.setattr(precision, "SCORE_BLOCK", 2)
        a = kmb_draws(eta, np.ones(7), cfg, (False, True))
        # block partitioning changes BLAS accumulation order, so agreement is
        # to rounding, not bitwise; bitwise determinism is guaranteed for the
        # fixed default block size
        for x, y in zip(a, b):
            np.testing.assert_allclose(x.stats, y.stats, rtol=1e-12)

    def test_vectors_hook_agrees_with_stats(self, rng):
        # stats are the sorted max-abs of the reference draw vectors, plain
        # and studentized, over more than one draw chunk, on both routes
        cfg = BootstrapConfig(rng=RngSpec(6), M=300, bandwidth=2.0)
        for n, r in ((15, 4), (8, 12)):
            eta = rng.standard_normal((n, r))
            h = rng.uniform(0.5, 2.0, r)
            plain, stud = kmb_draws(eta, h, cfg, (False, True))
            w = w_diag(eta, h, 2.0, QS)
            np.testing.assert_array_equal(stud.w_diag, w)
            for res, vectors in ((plain, draw_vectors(eta, h, cfg)),
                                 (stud, draw_vectors(eta, h, cfg, w))):
                np.testing.assert_allclose(
                    np.sort(np.abs(vectors).max(axis=0)), res.stats,
                    atol=1e-12)

    def test_route_boundary(self, rng):
        # r = n - 1 takes the r x r route, r = n and n + 1 the n x n route,
        # whose stats are exactly the max-abs of diag(h) eta' L z / sqrt(n)
        n = 20
        cfg = BootstrapConfig(rng=RngSpec(13), M=DRAW_CHUNK, bandwidth=2.5)
        for r in (n - 1, n, n + 1):
            eta = rng.standard_normal((n, r))
            h = rng.uniform(0.5, 2.0, r)
            plain, stud = kmb_draws(eta, h, cfg, (False, True))
            assert np.all(np.isfinite(plain.stats))
            assert np.all(np.isfinite(stud.stats))
            if r >= n:
                for res, w in ((plain, None), (stud, stud.w_diag)):
                    vectors = draw_vectors(eta, h, cfg, w)
                    np.testing.assert_array_equal(
                        np.sort(np.abs(vectors).max(axis=0)), res.stats)

    def test_lazy_scores_match_dense(self, rng, monkeypatch):
        # the bandwidth, w_diag and the draws, on both routes and with both
        # kernels, are bitwise the same read from the lazy scores and from
        # all of them formed at once, block by block; against the default
        # block they agree to rounding (BLAS accumulation order)
        S = index_set_all_offdiag(6)  # r = 30
        cases = []
        for n in (60, 20):  # r < n, then r >= n
            y = serially_dependent(rng, n, 6)
            eta, h = fit_pipeline(center(Dataset(y))).scores(S)
            for kernel in (QS, BART):
                cfg = BootstrapConfig(rng=RngSpec(5), M=300, kernel=kernel)
                cases.append((eta, h, cfg,
                              kmb_draws(eta, h, cfg, (False, True))))
        monkeypatch.setattr(precision, "SCORE_BLOCK", 7)
        for eta, h, cfg, want in cases:
            lazy = kmb_draws(eta, h, cfg, (False, True))
            dense = kmb_draws(eta[:, :], h, cfg, (False, True))
            for a, b, c in zip(lazy, dense, want):
                assert a.bandwidth == b.bandwidth == c.bandwidth
                np.testing.assert_array_equal(a.stats, b.stats)
                np.testing.assert_allclose(a.stats, c.stats, rtol=1e-12)
            np.testing.assert_array_equal(lazy[1].w_diag, dense[1].w_diag)
            np.testing.assert_allclose(lazy[1].w_diag, want[1].w_diag,
                                       rtol=1e-12)

    def test_scores_are_never_held_whole(self, monkeypatch):
        # p = 120, n = 100 offdiag: r = 14,280 columns, 11.4 MB of scores if
        # they were formed at once; read a block at a time, the draws hold a
        # few n x SCORE_BLOCK blocks besides their length-r vectors (pair
        # indices, h, scales, w_diag)
        monkeypatch.setattr(precision, "SCORE_BLOCK", 512)
        n, p = 100, 120
        y = serially_dependent(np.random.default_rng(3), n, p)
        pipe = fit_pipeline(center(Dataset(y)))
        S = index_set_all_offdiag(p)
        cfg = BootstrapConfig(rng=RngSpec(4), M=20, bandwidth=2.0)
        bound = 4 * n * precision.SCORE_BLOCK * 8 + 8 * S.r * 8
        assert bound < n * S.r * 8 / 4
        tracemalloc.start()
        try:
            eta, h = pipe.scores(S)
            kmb_draws(eta, h, cfg, (False, True))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_dual_matches_separate_runs(self, rng):
        eta = rng.standard_normal((30, 5))
        h = rng.uniform(0.5, 2.0, 5)
        cfg = BootstrapConfig(rng=RngSpec(8), M=300, bandwidth=2.0)
        plain, stud = kmb_draws(eta, h, cfg, (False, True))
        (sep_plain,) = kmb_draws(eta, h, cfg, (False,))
        (sep_stud,) = kmb_draws(eta, h, cfg, (True,))
        np.testing.assert_array_equal(plain.stats, sep_plain.stats)
        np.testing.assert_array_equal(stud.stats, sep_stud.stats)
        assert plain.w_diag is None
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
        region = confidence_region(np.array([0.5]), 2.0, 100)
        np.testing.assert_allclose(region, [[0.3, 0.7]], atol=1e-15)

    def test_zero_quantile_degenerate(self):
        region = confidence_region(np.array([0.1, -0.2]), 0.0, 25)
        np.testing.assert_allclose(region[:, 0], region[:, 1], atol=1e-15)

    def test_studentized_scaling(self):
        base = confidence_region(np.array([0.0]), 1.0, 4,
                                 w_diag=np.array([1.0]))
        wide = confidence_region(np.array([0.0]), 1.0, 4,
                                 w_diag=np.array([4.0]))
        assert wide[0, 1] == pytest.approx(2.0 * base[0, 1], abs=1e-15)

    def test_w_diag_must_match(self):
        with pytest.raises(ShapeError):
            confidence_region(np.zeros(2), 1.0, 4, w_diag=np.ones(3))


class TestMaxStatistic:
    def test_plain_and_studentized(self, rng):
        dev = rng.standard_normal(7)
        w = rng.uniform(0.5, 2.0, 7)
        assert max_statistic(dev, 90) == math.sqrt(90) * np.abs(dev).max()
        assert max_statistic(dev, 90, w) == \
            math.sqrt(90) * (np.abs(dev) / np.sqrt(w)).max()

    def test_w_diag_must_match(self):
        with pytest.raises(ShapeError):
            max_statistic(np.zeros(2), 4, w_diag=np.ones(3))


def quantile_and_se(stats, level):
    """The level quantile of sorted stats and its Monte Carlo standard
    error, from the order statistics one binomial sd either side."""
    m = stats.size
    k = m * level
    half = math.sqrt(m * level * (1.0 - level))
    lo, hi = int(math.floor(k - half)), int(math.ceil(k + half))
    return stats[int(math.ceil(k)) - 1], (stats[hi - 1] - stats[lo - 1]) / 2.0


class TestDistributionalCorrectness:
    def test_routes_agree_in_law(self, rng):
        # r < n: the engine draws from the r x r factor of eta' A eta; the
        # n x n reference vectors, on an independent stream, must give the
        # same 0.90/0.95/0.99 quantiles within 4 Monte Carlo SEs
        n, r = 60, 10
        eta = serially_dependent(rng, n, r) * rng.uniform(0.5, 2.0, r)
        h = rng.uniform(0.5, 2.0, r)
        cfg = BootstrapConfig(rng=RngSpec(31), M=20000, bandwidth=3.0)
        ref_cfg = BootstrapConfig(rng=RngSpec(32), M=20000, bandwidth=3.0)
        plain, stud = kmb_draws(eta, h, cfg, (False, True))
        for res, w in ((plain, None), (stud, stud.w_diag)):
            ref = np.sort(np.abs(draw_vectors(eta, h, ref_cfg, w,
                                              n_by_n=True)).max(axis=0))
            for level in (0.90, 0.95, 0.99):
                q, se = quantile_and_se(res.stats, level)
                q_ref, se_ref = quantile_and_se(ref, level)
                assert abs(q - q_ref) <= 4.0 * math.hypot(se, se_ref)

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
