import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from precboot import Dataset, IndexSet, RngSpec, bootstrap, center, \
    fit_pipeline, gaussian_mult_factor, index_set_all_offdiag, kmb_draws, \
    longrun, multiplier_cov, precision, recover_support
from precboot.bootstrap import DRAW_CHUNK, BootstrapConfig, \
    BootstrapResult, max_statistic, psd_factor, score_mult_factor
from precboot.errors import InvalidInput, InvalidLevel, ShapeError
from precboot.inference import test_structure as structure_test
from precboot.longrun import KernelSpec, _gram_inputs, andrews_bandwidth, \
    kernel_eval, w_diag
from precboot.simulate import true_zero_set

from conftest import desk_fit, draw_vectors, mirror_positions, \
    partly_mirrored

QS = KernelSpec(kind="qs")
QS_EXACT = KernelSpec(kind="qs", truncation_eps=0.0)
BART = KernelSpec(kind="bartlett")


def result_from(stats, n=100, sd=(1.0,)):
    """A result of the given draws; ``sd`` is its coordinate scales."""
    return BootstrapResult(stats=np.sort(np.asarray(stats, dtype=np.float64)),
                           bandwidth=1.0, n=n,
                           scale=np.asarray(sd, dtype=np.float64))


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

    @pytest.mark.parametrize("spec, s_n", [(QS, 2.5), (QS, 1.0), (BART, 2.5)],
                             ids=["qs", "qs-unit", "bartlett"])
    def test_is_symmetric_root(self, spec, s_n):
        # one factor whether or not A has a Cholesky factor (at n = 150 it
        # has none for QS at S_n = 2.5, and one for the other two): A has a
        # unit diagonal, so psd_factor gives its symmetric root A^(1/2)
        a = multiplier_cov(150, s_n, spec)
        got = gaussian_mult_factor(150, s_n, spec)
        assert np.array_equal(got, psd_factor(a))
        np.testing.assert_allclose(got, got.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got @ got, a, rtol=0, atol=1e-8)

    def test_small_bandwidth_step_moves_draws_little(self):
        # S_n from 1.0 to 1.8 in 1% steps crosses the bandwidths where A
        # stops having a Cholesky factor (33 of these 60 have one); a factor
        # chosen by whether Cholesky succeeds, or one that carries the signs
        # of the eigenvectors, moved g = L z by up to 5.2 in one step
        z = np.random.default_rng(7).standard_normal(150)
        draws = [gaussian_mult_factor(150, 1.01 ** k, QS) @ z
                 for k in range(60)]
        assert np.abs(np.diff(draws, axis=0)).max() <= 0.5

    @pytest.mark.parametrize("spec", [QS, BART], ids=["qs", "bartlett"])
    @pytest.mark.parametrize("s_n", [1.0, 2.6, 7.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 150, 151])
    def test_split_root(self, monkeypatch, spec, s_n, n):
        # A is symmetric Toeplitz, so centrosymmetric bit for bit: from
        # n = 2 on its root comes from two eigenproblems of half its size
        # and is centrosymmetric bit for bit itself. It is the plain eigh
        # root to rounding: about 1e-8 at QS, where A has eigenvalues at
        # rounding level
        a = multiplier_cov(n, s_n, spec)
        sizes = []
        eigh = np.linalg.eigh

        def recorded(c):
            sizes.append(c.shape[0])
            return eigh(c)

        monkeypatch.setattr(np.linalg, "eigh", recorded)
        got = psd_factor(a)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert sizes == ([n - n // 2, n // 2] if n >= 2 else [1])
        assert np.array_equal(a, a[::-1, ::-1])
        assert np.array_equal(got, got[::-1, ::-1])
        np.testing.assert_allclose(got @ got, a, rtol=0,
                                   atol=1e-13 * np.abs(a).max())
        np.testing.assert_allclose(got, got.T, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got, plain_factor(a), rtol=0, atol=1e-7)

    @pytest.mark.parametrize("n", [2, 5, 6])
    def test_other_symmetric_matrices_take_the_plain_root(self, rng, n):
        # symmetric but not centrosymmetric: the one eigh of the parent,
        # bit for bit; a covariance of scores (r x r route) is one such
        b = rng.standard_normal((n, n + 2))
        eta = serially_dependent(rng, 30, n) * rng.uniform(0.1, 10.0, n)
        for cov in (b @ b.T, eta.T @ multiplier_cov(30, 2.5, QS) @ eta):
            assert not np.array_equal(cov, cov[::-1, ::-1])
            assert np.array_equal(psd_factor(cov), plain_factor(cov))

    @pytest.mark.parametrize("n", [9, 10])
    def test_split_zero_variance_rows(self, n):
        # zero rows at both ends keep A centrosymmetric: the split still
        # runs, and each zero-variance row gets a zero row
        a = multiplier_cov(n, 2.6, QS)
        a[[0, -1]] = 0.0
        a[:, [0, -1]] = 0.0
        got = psd_factor(a)
        assert np.array_equal(got, got[::-1, ::-1])
        assert np.all(got[[0, -1]] == 0.0) and np.all(np.isfinite(got))
        np.testing.assert_allclose(got @ got.T, a, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_bandwidth(self, bandwidth):
        # K is even, so a negative S_n would otherwise pass as |S_n|, and
        # S_n = 0 or nan would give a NaN factor
        with pytest.raises(InvalidInput, match="bandwidth"):
            multiplier_cov(10, bandwidth, QS)
        with pytest.raises(InvalidInput, match="bandwidth"):
            gaussian_mult_factor(10, bandwidth, QS)
        with pytest.raises(InvalidInput, match="bandwidth"):
            score_mult_factor(np.ones((10, 2)), bandwidth, QS)

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


def plain_factor(cov):
    """``psd_factor`` without the split: D times the root of the one
    eigendecomposition of the correlation matrix C = D^-1 cov D^-1."""
    d = np.sqrt(np.clip(np.diagonal(cov), 0.0, None))
    safe = np.where(d > 0.0, d, 1.0)
    vals, vecs = np.linalg.eigh(cov / np.outer(safe, safe))
    return d[:, None] * ((vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :])
                         @ vecs.T)


def flip_eigenvector_signs(monkeypatch):
    """Make np.linalg.eigh negate every other eigenvector: the same
    eigenpairs with other signs, which LAPACK is free to return."""
    eigh = np.linalg.eigh

    def flipped(a):
        vals, vecs = eigh(a)
        vecs[:, ::2] *= -1.0
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", flipped)


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

    def test_eigenvector_signs_do_not_change_factor(self, rng, monkeypatch):
        # V sqrt(vals) V' pairs each eigenvector with itself, and negating
        # both factors of a product is exact
        eta = serially_dependent(rng, 40, 12) * rng.uniform(0.1, 10.0, 12)
        cov = eta.T @ multiplier_cov(40, 2.5, QS) @ eta
        want = psd_factor(cov)
        flip_eigenvector_signs(monkeypatch)
        assert np.array_equal(psd_factor(cov), want)


def unbuffered_stats(eta, h_diag, cfg, studentized):
    """kmb_draws' sorted max statistics with a fresh |projection| array and
    one scaled temporary per DRAW_CHUNK x DRAW_CHUNK product: the reference
    for its buffers."""
    from precboot.bootstrap import _draw_multipliers

    n, r = eta.shape
    chunk = bootstrap.DRAW_CHUNK
    s_n = cfg.bandwidth_for(eta)
    sd = np.sqrt(w_diag(eta, h_diag, s_n, cfg.kernel))
    plain = h_diag / math.sqrt(n)
    scales = [plain / sd if stud else plain for stud in studentized]
    factor = (score_mult_factor(eta, s_n, cfg.kernel) if r < n
              else gaussian_mult_factor(n, s_n, cfg.kernel))
    starts = range(0, cfg.M, chunk)
    draws = [_draw_multipliers(factor, cfg.rng, m, min(m + chunk, cfg.M))
             for m in starts]
    stats = np.zeros((len(scales), cfg.M))
    for start in range(0, r, chunk):
        stop = min(start + chunk, r)
        cols_t = eta[:, start:stop].T if r >= n else None
        for m, g in zip(starts, draws):
            mag = np.abs(cols_t @ g if r >= n else g[start:stop])
            for best, scale in zip(stats[:, m:m + g.shape[1]], scales):
                np.maximum(best, (scale[start:stop, None] * mag).max(axis=0),
                           out=best)
    stats.sort(axis=1)
    return stats


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

    def test_eigenvector_signs_do_not_change_draws(self, rng, monkeypatch):
        # r < n, then r >= n at an A with no Cholesky factor
        cfg = BootstrapConfig(rng=RngSpec(15), M=100, bandwidth=2.5)
        cases = []
        for n, r in ((40, 12), (30, 45)):
            eta = serially_dependent(rng, n, r)
            h = rng.uniform(0.5, 2.0, r)
            cases.append((eta, h, kmb_draws(eta, h, cfg, (False, True))))
        flip_eigenvector_signs(monkeypatch)
        for eta, h, want in cases:
            for res, ref in zip(kmb_draws(eta, h, cfg, (False, True)), want):
                np.testing.assert_array_equal(res.stats, ref.stats)

    def test_draw_chunk_changes_stats_only_by_rounding(self, rng,
                                                       monkeypatch):
        # M = 310 is a multiple of none of the chunks 7, 256 and 300. Each
        # draw keeps its own substream, so every chunking draws the same
        # normals; but a BLAS product's column depends on how many columns
        # are multiplied with it (OpenBLAS 0.3.31 moved the stats by up to
        # 2.7e-15), so agreement is to rounding, not bitwise
        cfg = BootstrapConfig(rng=RngSpec(14), M=310, bandwidth=2.0)
        cases = []
        for n, r in ((40, 17), (15, 33)):  # r < n, then r >= n
            eta = serially_dependent(rng, n, r)
            h = rng.uniform(0.5, 2.0, r)
            cases.append((eta, h, kmb_draws(eta, h, cfg, (False, True))))
        for chunk in (1, 7, 300):
            monkeypatch.setattr(bootstrap, "DRAW_CHUNK", chunk)
            for eta, h, want in cases:
                for res, ref in zip(kmb_draws(eta, h, cfg, (False, True)),
                                    want):
                    assert res.bandwidth == ref.bandwidth
                    np.testing.assert_array_equal(res.scale, ref.scale)
                    np.testing.assert_allclose(res.stats, ref.stats,
                                               rtol=1e-13)

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
        monkeypatch.setattr(longrun, "SCORE_BLOCK", 2)
        a = kmb_draws(eta, np.ones(7), cfg, (False, True))
        # block partitioning changes BLAS accumulation order, so agreement is
        # to rounding, not bitwise; bitwise determinism is guaranteed for the
        # fixed default block size
        for x, y in zip(a, b):
            np.testing.assert_allclose(x.stats, y.stats, rtol=1e-12)

    @pytest.mark.parametrize("block", [None, 7])
    def test_buffered_epilogue_is_bitwise_unbuffered(self, rng, monkeypatch,
                                                     block):
        # the projections go to one reused buffer and are scaled and reduced
        # a tile of rows at a time; every operation is the unbuffered one or
        # an exact max, so on both routes, over whole and partial draw
        # chunks, projection blocks and tiles (r = 17 and 33 are several
        # tiles of 5 and a partial one, and r = 33 several projection blocks
        # of 7 and a partial one), the stats are bitwise the same. The draws
        # do not read SCORE_BLOCK; the reference's w_diag does
        if block is not None:
            monkeypatch.setattr(longrun, "SCORE_BLOCK", block)
        cfg = BootstrapConfig(rng=RngSpec(12), M=DRAW_CHUNK + 44,
                              bandwidth=2.0)
        for chunk, tile in ((DRAW_CHUNK, bootstrap._TILE_ROWS),
                            (DRAW_CHUNK, 5), (7, 5)):
            monkeypatch.setattr(bootstrap, "DRAW_CHUNK", chunk)
            monkeypatch.setattr(bootstrap, "_TILE_ROWS", tile)
            for n, r in ((40, 17), (15, 33)):  # r < n, then r >= n
                eta = serially_dependent(rng, n, r)
                h = rng.uniform(0.5, 2.0, r)
                got = kmb_draws(eta, h, cfg, (False, True))
                want = unbuffered_stats(eta, h, cfg, (False, True))
                for res, stats in zip(got, want):
                    np.testing.assert_array_equal(res.stats, stats)

    def test_vectors_hook_agrees_with_stats(self, rng):
        # stats are the sorted max-abs of the reference draw vectors, plain
        # and studentized, over more than one draw chunk, on both routes
        cfg = BootstrapConfig(rng=RngSpec(6), M=300, bandwidth=2.0)
        for n, r in ((15, 4), (8, 12)):
            eta = rng.standard_normal((n, r))
            h = rng.uniform(0.5, 2.0, r)
            plain, stud = kmb_draws(eta, h, cfg, (False, True))
            sd = np.sqrt(w_diag(eta, h, 2.0, QS))
            np.testing.assert_array_equal(plain.scale, np.ones(r))
            np.testing.assert_array_equal(stud.scale, sd)
            for res, vectors in ((plain, draw_vectors(eta, h, cfg)),
                                 (stud, draw_vectors(eta, h, cfg, sd))):
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
                for res in (plain, stud):
                    vectors = draw_vectors(eta, h, cfg, res.scale)
                    np.testing.assert_array_equal(
                        np.sort(np.abs(vectors).max(axis=0)), res.stats)

    def test_lazy_scores_match_dense(self, rng, monkeypatch):
        # offdiag at p = 6 is dense in its variables: read lazily, the
        # bandwidth and w_diag come from lag Gram matrices, read from all
        # columns formed at once, from the columns, so the two agree to
        # rounding, on both draw routes and with both kernels. The Grams
        # do not depend on the block size, so a lazy run's bandwidth and
        # scale are bitwise those of the default block. A sparse set takes
        # the column route read either way, so there lazy and dense runs
        # are bitwise equal
        S = index_set_all_offdiag(6)  # r = 30
        sparse = IndexSet(np.array([[1, 2], [3, 4], [5, 6], [2, 1]]))
        cases = []
        for n in (60, 20):  # r < n, then r >= n
            pipe = fit_pipeline(center(Dataset(serially_dependent(rng, n, 6))))
            for index_set in (S, sparse):
                eta, h = pipe.scores(index_set)
                assert (_gram_inputs(eta) is None) == (index_set is sparse)
                for kernel in (QS, BART):
                    cfg = BootstrapConfig(rng=RngSpec(5), M=300,
                                          kernel=kernel)
                    cases.append((eta, h, cfg,
                                  kmb_draws(eta, h, cfg, (False, True))))
        monkeypatch.setattr(longrun, "SCORE_BLOCK", 7)
        for eta, h, cfg, want in cases:
            lazy = kmb_draws(eta, h, cfg, (False, True))
            dense = kmb_draws(eta[:, :], h, cfg, (False, True))
            for a, c in zip(lazy, want):
                assert a.bandwidth == c.bandwidth
                np.testing.assert_allclose(a.stats, c.stats, rtol=1e-12)
            np.testing.assert_array_equal(lazy[1].scale, want[1].scale)
            if _gram_inputs(eta) is None:
                for a, b in zip(lazy, dense):
                    assert a.bandwidth == b.bandwidth
                    np.testing.assert_array_equal(a.stats, b.stats)
                    np.testing.assert_array_equal(a.scale, b.scale)
                continue
            # a bandwidth one ulp off moves every multiplier, and the factor
            # of A (or of eta' A eta) can magnify that to ~1e-11 in a draw,
            # so the draws are compared at the lazy run's bandwidth
            assert lazy[0].bandwidth == pytest.approx(dense[0].bandwidth,
                                                      rel=1e-13)
            fixed = replace(cfg, bandwidth=lazy[0].bandwidth)
            lazy = kmb_draws(eta, h, fixed, (False, True))
            dense = kmb_draws(eta[:, :], h, fixed, (False, True))
            np.testing.assert_array_equal(lazy[0].stats, dense[0].stats)
            np.testing.assert_allclose(lazy[1].scale, dense[1].scale,
                                       rtol=1e-13)
            np.testing.assert_allclose(lazy[1].stats, dense[1].stats,
                                       rtol=1e-12)

    def test_scores_are_never_held_whole(self, monkeypatch):
        # p = 120, n = 100 offdiag: r = 14,280 columns, 11.4 MB of scores if
        # they were formed at once; read a block at a time, the draws hold a
        # few n x SCORE_BLOCK blocks besides their length-r vectors (pair
        # indices, h, draw scales, w_diag and its square root). Past one
        # draw chunk they hold one formed n x DRAW_CHUNK block and the piece
        # multiplied into it, one DRAW_CHUNK x DRAW_CHUNK projection and one
        # tile of it, the n x M draws and the n x n factor besides those
        # vectors; a SCORE_BLOCK above DRAW_CHUNK only loosens the bound
        monkeypatch.setattr(longrun, "SCORE_BLOCK", 512)
        n, p = 100, 120
        y = serially_dependent(np.random.default_rng(3), n, p)
        pipe = fit_pipeline(center(Dataset(y)))
        S = index_set_all_offdiag(p)
        for M in (20, DRAW_CHUNK + 1):
            cfg = BootstrapConfig(rng=RngSpec(4), M=M, bandwidth=2.0)
            if M <= DRAW_CHUNK:
                bound = 4 * n * longrun.SCORE_BLOCK * 8 + 8 * S.r * 8
            else:
                bound = 8 * (n * (longrun.SCORE_BLOCK + precision._PIECE_COLS)
                             + (longrun.SCORE_BLOCK + bootstrap._TILE_ROWS)
                             * DRAW_CHUNK + n * (M + n) + 8 * S.r)
            assert bound < n * S.r * 8 / 4
            tracemalloc.start()
            try:
                eta, h = pipe.scores(S)
                kmb_draws(eta, h, cfg, (False, True))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, M

    def test_draw_step_is_bounded_by_draw_chunk(self):
        # the same shape at the default widths: on the r >= n route the
        # draws form and project DRAW_CHUNK columns at a time, so the bound
        # holds only one formed block and its piece, one projection and one
        # tile, the draws and the factor, and the length-r vectors: under
        # half of one block of 8192 columns (6.5 MB of these scores)
        n, p = 100, 120
        y = serially_dependent(np.random.default_rng(3), n, p)
        pipe = fit_pipeline(center(Dataset(y)))
        S = index_set_all_offdiag(p)
        M = DRAW_CHUNK + 1
        cfg = BootstrapConfig(rng=RngSpec(4), M=M, bandwidth=2.0)
        bound = 8 * (n * (DRAW_CHUNK + precision._PIECE_COLS)
                     + (DRAW_CHUNK + bootstrap._TILE_ROWS) * DRAW_CHUNK
                     + n * (M + n) + 8 * S.r)
        assert bound < n * 8192 * 8 / 2
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
        assert plain.n == stud.n == 30
        np.testing.assert_array_equal(plain.scale, sep_plain.scale)
        np.testing.assert_array_equal(stud.scale, sep_stud.scale)

    def test_plug_in_bandwidth_when_none(self, rng):
        eta = rng.standard_normal((40, 3))
        cfg = BootstrapConfig(rng=RngSpec(2), M=20)
        plain, stud = kmb_draws(eta, np.ones(3), cfg, (False, True))
        s_n = andrews_bandwidth(eta, cfg.kernel)
        assert plain.bandwidth == stud.bandwidth == s_n
        np.testing.assert_array_equal(
            stud.scale, np.sqrt(w_diag(eta, np.ones(3), s_n, cfg.kernel)))

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), 0.0,
                                           -2.0])
    def test_invalid_bandwidth(self, bandwidth):
        with pytest.raises(InvalidInput):
            BootstrapConfig(rng=RngSpec(0), bandwidth=bandwidth)

    def test_no_draws(self):
        with pytest.raises(InvalidInput, match="^M must be >= 1$"):
            BootstrapConfig(rng=RngSpec(0), M=0)

    def test_no_score_columns(self):
        cfg = BootstrapConfig(rng=RngSpec(0), M=10, bandwidth=2.0)
        with pytest.raises(InvalidInput,
                           match="^need at least one score column$"):
            kmb_draws(np.empty((20, 0)), np.empty(0), cfg)


class Unpaired:
    """Lazy scores that offer their Gram inputs but not the pairing of their
    mirrored columns, so the draws project every column in order."""

    def __init__(self, eta):
        self.shape = eta.shape
        self.gram_inputs = eta.gram_inputs
        self._eta = eta

    def __getitem__(self, key):
        return self._eta[key]


class TestMirroredProjection:
    """On the n x n route the lazy scores project one column per mirrored
    pair; the results equal those of the ordered path over every column of
    ``eta[:, :]`` to rounding, with the same p-values and support."""

    @pytest.fixture
    def sets(self, rng):
        """(name, S, n, projected count): the n x n route, r >= n."""
        p = 8
        with_diagonal = IndexSet(np.argwhere(np.ones((6, 6), bool)) + 1)
        partly = partly_mirrored(p, rng)
        mirrored = sum(1 for a, b in partly.pairs.tolist()
                       if a < b and [b, a] in partly.pairs.tolist())
        return [("offdiag", index_set_all_offdiag(p), 40, 28),
                ("zeros-A", true_zero_set("A", 12), 60, 55),
                ("zeros-B", true_zero_set("B", 10), 40, 25),
                ("partly-mirrored", partly, 30, partly.r - mirrored),
                ("with-diagonal", with_diagonal, 20, 21)]

    def test_matches_ordered_path(self, rng, sets):
        for name, S, n, count in sets:
            p = int(S.pairs.max())
            pipe = fit_pipeline(center(Dataset(serially_dependent(rng, n,
                                                                  p))))
            eta, h = pipe.scores(S)
            assert S.r >= n, name
            cfg = BootstrapConfig(rng=RngSpec(19), M=300,
                                  bandwidth=andrews_bandwidth(eta, QS))
            lazy = kmb_draws(eta, h, cfg, (False, True))
            omega_s = pipe.omega_on(S)
            # the dense columns read w_diag by the column route, so their
            # scale agrees to rounding; the lazy columns without the pairing
            # read it by the same route as the lazy run, bit for bit
            for scores in (eta[:, :], Unpaired(eta)):
                ordered = kmb_draws(scores, h, cfg, (False, True))
                for a, b in zip(lazy, ordered):
                    assert (a.route, a.split, a.projected) == \
                        ("n x n", True, count), name
                    assert (b.route, b.split, b.projected) == \
                        ("n x n", True, S.r), name
                    np.testing.assert_allclose(a.scale, b.scale, rtol=1e-14)
                    if isinstance(scores, Unpaired):
                        np.testing.assert_array_equal(a.scale, b.scale)
                    np.testing.assert_allclose(a.stats, b.stats, rtol=1e-14)
                    for level in (0.9, 0.95):
                        t = a.statistic(omega_s * level)
                        assert a.p_value(t) == b.p_value(t), name
                    for alpha in (0.01, 0.05, 0.5):
                        assert recover_support(omega_s, S, a, alpha) == \
                            recover_support(omega_s, S, b, alpha), name

    def test_fully_mirrored_set_projects_half(self, rng):
        S = index_set_all_offdiag(9)
        pipe = fit_pipeline(center(Dataset(serially_dependent(rng, 30, 9))))
        eta, _ = pipe.scores(S)
        kept = eta.projected_columns()
        assert kept.size == S.r // 2
        pairs = S.pairs
        mirror = mirror_positions(S)[kept]
        np.testing.assert_array_equal(pairs[kept][:, ::-1], pairs[mirror])
        assert np.all(pairs[kept, 0] < pairs[kept, 1])
        np.testing.assert_array_equal(eta[:, kept], eta[:, mirror])

    def test_recover_is_mirror_closed_at_the_knife_edge(self):
        # the desk cell's zero set, studentized. |omega| at the larger of
        # the two half-widths of a mirrored pair: were the pair's scales
        # unequal, that value would pick one of the two and not the other
        S = true_zero_set("A", 50)
        pipe = desk_fit()
        eta, h = pipe.scores(S)
        (res,) = kmb_draws(eta, h, BootstrapConfig(rng=RngSpec(19), M=200),
                           (True,))
        mirror = mirror_positions(S)
        assert np.all(mirror >= 0)
        np.testing.assert_array_equal(res.scale, res.scale[mirror])
        half = res.half_width(0.95)
        edge = np.maximum(half, half[mirror])
        for omega_s in (edge, -edge, np.nextafter(edge, np.inf),
                        pipe.omega_on(S)):
            picked = recover_support(omega_s, S, res, 0.05)
            assert sorted(picked) == sorted((b, a) for a, b in picked)

    def test_every_draw_keeps_its_generator(self, rng, monkeypatch):
        # the same factor and M generator calls, however many columns are
        # projected
        pipe = fit_pipeline(center(Dataset(serially_dependent(rng, 30, 8))))
        eta, h = pipe.scores(index_set_all_offdiag(8))
        cfg = BootstrapConfig(rng=RngSpec(4), M=DRAW_CHUNK + 9, bandwidth=2.0)
        calls = []
        generator = RngSpec.generator

        def counted(spec, *key):
            calls.append(key)
            return generator(spec, *key)

        monkeypatch.setattr(RngSpec, "generator", counted)
        for scores in (eta, eta[:, :]):
            calls.clear()
            kmb_draws(scores, h, cfg, (False, True))
            assert calls == [(m,) for m in range(cfg.M)]

    def test_r_by_r_route_projects_nothing(self, rng):
        eta = serially_dependent(rng, 40, 6)
        cfg = BootstrapConfig(rng=RngSpec(4), M=20, bandwidth=2.0)
        for res in kmb_draws(eta, np.ones(6), cfg, (False, True)):
            assert (res.route, res.split, res.projected) == ("r x r", False,
                                                             0)


class TestQuantile:
    def test_median(self):
        assert result_from([1, 2, 3, 4]).quantile(0.5) == 2.0

    def test_upper(self):
        assert result_from([1, 2, 3, 4]).quantile(0.95) == 4.0

    def test_invalid_levels(self):
        res = result_from([1, 2, 3])
        for level in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(InvalidLevel):
                res.quantile(level)
            with pytest.raises(InvalidLevel):
                res.half_width(level)

    def test_monotone_in_level(self, rng):
        res = result_from(rng.standard_normal(97) ** 2)
        levels = np.linspace(0.01, 0.99, 25)
        qs = [res.quantile(lv) for lv in levels]
        assert all(b >= a for a, b in zip(qs, qs[1:]))


class TestConfidenceRegion:
    # the box omega_s +- half_width(level), as `estimate` writes it
    def test_arithmetic(self):
        half = result_from([2.0], n=100).half_width(0.5)
        region = np.column_stack([0.5 - half, 0.5 + half])
        np.testing.assert_allclose(region, [[0.3, 0.7]], atol=1e-15)

    def test_zero_quantile_degenerate(self):
        half = result_from([0.0], n=25, sd=[1.0, 1.0]).half_width(0.9)
        omega_s = np.array([0.1, -0.2])
        np.testing.assert_array_equal(omega_s - half, omega_s + half)

    def test_studentized_scaling(self):
        base = result_from([1.0], n=4, sd=[1.0]).half_width(0.5)
        wide = result_from([1.0], n=4, sd=[2.0]).half_width(0.5)
        assert wide[0] == pytest.approx(2.0 * base[0], abs=1e-15)

    def test_scale_must_match(self):
        boot = result_from([1.0], n=4, sd=[1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            recover_support(np.zeros(2), IndexSet(np.array([[1, 2], [2, 1]])),
                            boot, 0.05)


class TestMaxStatistic:
    def test_plain_and_studentized(self, rng):
        dev = rng.standard_normal(7)
        w = rng.uniform(0.5, 2.0, 7)
        assert max_statistic(dev, 90, np.ones(7)) == \
            math.sqrt(90) * np.abs(dev).max()
        assert max_statistic(dev, 90, np.sqrt(w)) == \
            math.sqrt(90) * (np.abs(dev) / np.sqrt(w)).max()

    def test_scale_must_match(self):
        with pytest.raises(ShapeError):
            max_statistic(np.zeros(2), 4, np.ones(3))


def parent_quantile(stats, level):
    return float(stats[math.ceil(stats.size * level) - 1])


def parent_half_width(q, n, r, w=None):
    half = np.full(r, q / math.sqrt(n))
    return half if w is None else half * np.sqrt(w)


def parent_max_statistic(dev, n, w=None):
    dev = np.abs(dev)
    if w is not None:
        dev = dev / np.sqrt(w)
    return math.sqrt(n) * float(dev.max())


def parent_p_value(stats, statistic):
    return (1 + int(np.count_nonzero(stats >= statistic))) / (stats.size + 1)


class TestResultMethods:
    """The result's methods against the free functions they replaced, bit
    for bit, on real draws: plain and studentized, on both draw routes."""

    @pytest.mark.parametrize("n, r", [(40, 6), (12, 30)])
    def test_bitwise_equal_to_free_functions(self, rng, n, r):
        eta = serially_dependent(rng, n, r)
        h = rng.uniform(0.5, 2.0, r)
        cfg = BootstrapConfig(rng=RngSpec(17), M=301, bandwidth=2.2)
        plain, stud = kmb_draws(eta, h, cfg, (False, True))
        w = w_diag(eta, h, 2.2, QS)
        dev = rng.standard_normal(r) * 0.3
        for res, wd in ((plain, None), (stud, w)):
            assert res.n == n
            for level in (0.05, 0.5, 0.9, 0.95, 0.999):
                q = parent_quantile(res.stats, level)
                assert res.quantile(level) == q
                np.testing.assert_array_equal(
                    res.half_width(level), parent_half_width(q, n, r, wd))
            t = res.statistic(dev)
            assert t == parent_max_statistic(dev, n, wd)
            for stat in (t, 0.0, res.stats[0], res.stats[150], np.inf):
                assert res.p_value(stat) == parent_p_value(res.stats, stat)

    def test_wrong_length_raises_shape_error(self, rng):
        # a plain result over r = 56 coordinates judges only 56-vectors
        eta = rng.standard_normal((20, 56))
        cfg = BootstrapConfig(rng=RngSpec(3), M=50, bandwidth=1.5)
        (boot,) = kmb_draws(eta, np.ones(56), cfg)
        assert boot.scale.shape == (56,)
        dev = np.full(5, 0.1)
        with pytest.raises(ShapeError):
            boot.statistic(dev)
        with pytest.raises(ShapeError):
            structure_test(dev, np.zeros(5), boot, 0.05)
        S = IndexSet(np.array([[1, 2], [1, 3], [2, 3], [2, 1], [3, 1]]))
        with pytest.raises(ShapeError):
            recover_support(dev, S, boot, 0.05)


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
        for res in (plain, stud):
            ref = np.sort(np.abs(draw_vectors(eta, h, ref_cfg, res.scale,
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
