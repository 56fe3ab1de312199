import tracemalloc
import warnings

import numpy as np
import pytest

from precboot import SymMatrix, andrews_bandwidth, kernel_eval, w_diag
from precboot.core import IndexSet
from precboot.errors import BandwidthFallback, DegenerateVariance, \
    InsufficientData, InvalidInput
from precboot.longrun import KernelSpec, _gram_inputs, kernel_lag_weights
from precboot.precision import h_diag_from_v

from conftest import desk_fit, gamma_hat, mirror_positions, \
    partly_mirrored, xi_hat

QS = KernelSpec(kind="qs")
QS_EXACT = KernelSpec(kind="qs", truncation_eps=0.0)
BART = KernelSpec(kind="bartlett")


class TestKernelEval:
    def test_qs_at_zero(self):
        assert kernel_eval(QS, 0.0) == 1.0

    def test_qs_at_one(self):
        assert kernel_eval(QS, 1.0) == pytest.approx(0.13786058167459359,
                                                     abs=1e-12)

    def test_qs_series_matches_exact_at_switch(self):
        # the series/closed-form switch is at |x| = 1e-3; in float64 the
        # closed form loses ~1e-10 to cancellation there, so compare the
        # series branch against an extended-precision closed-form reference
        u = 0.999e-3 / (1.2 * np.pi)
        x = np.longdouble(1.2) * np.longdouble(np.pi) * np.longdouble(u)
        exact = 3.0 / x ** 2 * (np.sin(x) / x - np.cos(x))
        assert kernel_eval(QS, u) == pytest.approx(float(exact), abs=1e-12)

    def test_bartlett(self):
        assert kernel_eval(BART, 1.5) == 0.0
        assert kernel_eval(BART, 0.3) == pytest.approx(0.7, abs=1e-15)

    def test_symmetric_and_bounded(self):
        u = np.linspace(-3, 3, 101)
        for spec in (QS, BART):
            vals = kernel_eval(spec, u)
            np.testing.assert_allclose(vals, vals[::-1], atol=1e-15)
            assert np.all(np.abs(vals) <= 1.0)

    def test_unknown_kernel(self):
        with pytest.raises(InvalidInput):
            KernelSpec(kind="tukey")

    def test_negative_truncation(self):
        with pytest.raises(InvalidInput,
                           match="^truncation_eps must be >= 0$"):
            KernelSpec(truncation_eps=-1)


class TestBandwidth:
    def test_no_persistence_hits_lower_clip(self, monkeypatch):
        import precboot.longrun as lr
        monkeypatch.setattr(lr, "_ar1_summaries",
                            lambda eta: (np.zeros(3), np.ones(3)))
        assert andrews_bandwidth(np.zeros((500, 3)), QS) == 1.0

    def test_iid_columns_stay_small(self, rng):
        # sampling noise keeps rho-hat near 1/sqrt(n), so the plug-in stays
        # well below the dependent-data values
        eta = rng.standard_normal((500, 10))
        assert andrews_bandwidth(eta, QS) < 2.5

    def test_plugin_formula_qs(self, monkeypatch):
        import precboot.longrun as lr
        monkeypatch.setattr(lr, "_ar1_summaries",
                            lambda eta: (np.array([0.5]), np.array([1.0])))
        eta = np.zeros((300, 1))
        # alpha(2) = (4*0.25/0.5^8) / (1/0.5^4) = 16; 1.3221*(16*300)^(1/5)
        assert andrews_bandwidth(eta, QS) == pytest.approx(
            7.202985702101578, abs=1e-9)

    def test_plugin_formula_bartlett(self, monkeypatch):
        import precboot.longrun as lr
        monkeypatch.setattr(lr, "_ar1_summaries",
                            lambda eta: (np.array([0.5]), np.array([1.0])))
        eta = np.zeros((300, 1))
        a1 = (4 * 0.25 / (0.5 ** 6 * 1.5 ** 2)) / (1 / 0.5 ** 4)
        expected = 1.1447 * (a1 * 300) ** (1 / 3)
        assert andrews_bandwidth(eta, BART) == pytest.approx(expected,
                                                             abs=1e-9)

    def test_upper_clip(self, monkeypatch):
        import precboot.longrun as lr
        monkeypatch.setattr(lr, "_ar1_summaries",
                            lambda eta: (np.array([0.96]), np.array([1.0])))
        eta = np.zeros((300, 1))
        assert andrews_bandwidth(eta, QS) == pytest.approx(3.0 * 300 ** 0.2)

    def test_constant_columns_fall_back(self):
        eta = np.ones((50, 2))
        with pytest.warns(BandwidthFallback):
            assert andrews_bandwidth(eta, QS) == 1.0

    def test_needs_enough_rows(self):
        with pytest.raises(InsufficientData):
            andrews_bandwidth(np.zeros((5, 2)), QS)

    def test_deterministic(self, rng):
        x = np.cumsum(rng.standard_normal((200, 3)), axis=0)
        assert andrews_bandwidth(x, QS) == andrews_bandwidth(x.copy(), QS)

    def test_invariant_to_pair_order_on_gram_route(self, rng):
        # all 5,550 off-diagonal pairs at p = 75, the fit held fixed: the
        # plug-in reads every pair, so listing them in another order moves
        # S_n by rounding only
        from precboot.core import index_set_all_offdiag

        e = ar1_scores(rng, 150, 75)
        v = np.eye(75) + 0.1
        pairs = index_set_all_offdiag(75).pairs
        eta = moment_scores(e, v, pairs)
        assert eta.shape[1] > 5000 and _gram_inputs(eta) is not None
        for spec in (QS, BART):
            want = andrews_bandwidth(eta, spec)
            for _ in range(2):
                shuffled = moment_scores(e, v, rng.permutation(pairs))
                assert andrews_bandwidth(shuffled, spec) == pytest.approx(
                    want, rel=1e-12)

    def test_gram_route_working_set(self):
        # p = 120 offdiag, n = 100: r = 14,280, about |U|^2, so an r-vector
        # and a |U| x |U| Gram are each 0.11 MB. Above its inputs (the
        # scores' gram_inputs(), built beforehand) the plug-in gathers E,
        # n x |U|, forms one Gram at a time and applies the terms of its
        # sums in place, about 9 r-vectors at the peak; with every Gram
        # and term a fresh matrix it rose about 15.6. The sums keep the
        # bits of the plain expressions
        from precboot import center, fit_pipeline
        from precboot.core import Dataset, index_set_all_offdiag
        from precboot.longrun import _gram_ar1_sums

        y = np.random.default_rng(3).standard_normal((100, 120))
        y[1:] += 0.5 * y[:-1]
        pipe = fit_pipeline(center(Dataset(y)))
        eta, _ = pipe.scores(index_set_all_offdiag(120))
        offer = eta.gram_inputs()

        class Offered:  # the same scores, their inputs already built
            shape = eta.shape

            def gram_inputs(self):
                return offer
        e, a, b, _ = _gram_inputs(Offered())
        for got, want in zip(_gram_ar1_sums(e, a, b),
                             plain_gram_ar1_sums(e, a, b)):
            np.testing.assert_array_equal(got, want)
        for spec in (QS, BART):
            want = andrews_bandwidth(eta, spec)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                got = andrews_bandwidth(Offered(), spec)
                rise = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert got == want
            assert rise < 10 * 8 * eta.shape[1]

    def test_invariant_to_column_order_on_column_route(self, rng,
                                                       monkeypatch):
        from precboot import longrun

        eta = ar1_scores(rng, 40, 5500) * rng.uniform(0.5, 2.0, 5500)
        for block in (longrun.SCORE_BLOCK, 700):
            monkeypatch.setattr(longrun, "SCORE_BLOCK", block)
            for spec in (QS, BART):
                want = andrews_bandwidth(eta, spec)
                for _ in range(2):
                    shuffled = eta[:, rng.permutation(eta.shape[1])]
                    assert andrews_bandwidth(shuffled, spec) == \
                        pytest.approx(want, rel=1e-12)

    def test_ar_column_grows_bandwidth(self, rng):
        eps = rng.standard_normal(2000)
        ar = np.empty(2000)
        ar[0] = eps[0]
        for t in range(1, 2000):
            ar[t] = 0.6 * ar[t - 1] + eps[t]
        assert andrews_bandwidth(ar[:, None], QS) > 1.5


class TestGammaHat:
    def test_lag_zero(self):
        eta = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(gamma_hat(eta, 0),
                                   [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_zeros(self):
        assert np.all(gamma_hat(np.zeros((6, 2)), 3) == 0.0)

    def test_max_lag_single_term(self):
        n = 7
        eta = np.ones((n, 1))
        assert gamma_hat(eta, n - 1)[0, 0] == pytest.approx(1.0 / n)

    def test_negative_lag_transpose(self, rng):
        eta = rng.standard_normal((12, 3))
        np.testing.assert_array_equal(gamma_hat(eta, -2), gamma_hat(eta, 2).T)


def brute_force_xi(eta, s_n, spec):
    n, r = eta.shape
    weights = kernel_lag_weights(spec, n, s_n)
    xi = np.zeros((r, r))
    for k in range(-(n - 1), n):
        w = weights[abs(k)]
        if w == 0.0:
            continue
        xi += w * gamma_hat(eta, k)
    return xi


class TestXiHat:
    def test_bartlett_unit_bandwidth_is_gamma0(self, rng):
        eta = rng.standard_normal((15, 3))
        g0 = gamma_hat(eta, 0)
        np.testing.assert_allclose(xi_hat(eta, 1.0, BART).values,
                                   (g0 + g0.T) / 2.0, atol=1e-14)

    def test_matches_brute_force(self, rng):
        eta = rng.standard_normal((9, 3))
        xi = xi_hat(eta, 2.0, QS_EXACT)
        np.testing.assert_allclose(xi.values,
                                   brute_force_xi(eta, 2.0, QS_EXACT),
                                   atol=1e-12)

    def test_zeros(self):
        assert np.all(xi_hat(np.zeros((8, 2)), 2.0, QS).values == 0.0)

    def test_symmetric(self, rng):
        xi = xi_hat(rng.standard_normal((20, 4)), 3.0, QS)
        assert np.array_equal(xi.values, xi.values.T)

    def test_psd_with_exact_qs(self, rng):
        eta = rng.standard_normal((30, 5))
        xi = xi_hat(eta, 2.5, QS_EXACT)
        vals = np.linalg.eigvalsh(xi.values)
        assert vals.min() >= -1e-8 * np.trace(xi.values)

    def test_truncated_qs_near_psd(self, rng):
        eta = rng.standard_normal((40, 4))
        xi = xi_hat(eta, 2.0, QS)
        vals = np.linalg.eigvalsh(xi.values)
        assert vals.min() >= -1e-6 * np.trace(xi.values)


class TestWDiag:
    def test_matches_full_xi_path(self, rng):
        eta = rng.standard_normal((25, 6))
        h = rng.uniform(0.5, 2.0, 6)
        for spec, s_n in ((QS_EXACT, 2.3), (BART, 3.0), (QS, 1.7)):
            full = h[:, None] * xi_hat(eta, s_n, spec).values * h[None, :]
            np.testing.assert_allclose(w_diag(eta, h, s_n, spec),
                                       np.diagonal(full), atol=1e-12)

    def test_zero_column_floored_with_warning(self, rng):
        eta = np.column_stack([rng.standard_normal(30), np.zeros(30)])
        with pytest.warns(DegenerateVariance):
            w = w_diag(eta, np.ones(2), 1.0, QS)
        assert w[1] > 0.0

    def test_iid_unit_variance(self, rng):
        eta = rng.standard_normal((5000, 1))
        w = w_diag(eta, np.ones(1), 1.0, BART)
        assert w[0] == pytest.approx(1.0, abs=0.1)

    def test_shape_mismatch(self, rng):
        with pytest.raises(InvalidInput):
            w_diag(rng.standard_normal((10, 3)), np.ones(2), 1.0, QS)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan, np.inf])
    def test_invalid_bandwidth(self, rng, bandwidth):
        # S_n = nan gave NaN variances, and K is even, so S_n = -1 was read
        # as +1; the lag weights now refuse such an S_n on either route
        with pytest.raises(InvalidInput, match="bandwidth"):
            kernel_lag_weights(QS, 10, bandwidth)
        with pytest.raises(InvalidInput, match="bandwidth"):
            w_diag(rng.standard_normal((10, 3)), np.ones(3), bandwidth, QS)

    def test_gram_route_working_set(self):
        # p = 120 offdiag, n = 100: r = 14,280, about |U|^2, so an r-vector
        # and a |U| x |U| matrix are each 0.11 MB. Above its inputs (the
        # scores' gram_inputs(), built beforehand) w_diag gathers E, n x
        # |U|, and builds both forms and the floor in place, holding a few
        # such matrices and r-vectors at a time; with every form and term a
        # fresh array it rose about 10 r-vectors
        from precboot import center, fit_pipeline
        from precboot.core import Dataset, index_set_all_offdiag

        y = np.random.default_rng(3).standard_normal((100, 120))
        y[1:] += 0.5 * y[:-1]
        pipe = fit_pipeline(center(Dataset(y)))
        eta, h = pipe.scores(index_set_all_offdiag(120))
        offer = eta.gram_inputs()

        class Offered:  # the same scores, their inputs already built
            shape = eta.shape

            def gram_inputs(self):
                return offer
        for spec in (QS, BART):
            want = w_diag(eta, h, 2.0, spec)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                got = w_diag(Offered(), h, 2.0, spec)
                rise = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            np.testing.assert_array_equal(got, want)
            assert rise < 5 * 8 * eta.shape[1]

    def test_column_route_working_set(self):
        # one 30 x 30 block pair, n = 200: r = 900 pairs of 60 variables is
        # sparse, so the scores are read by columns. The bandwidth and
        # w_diag each hold a few n x SCORE_BLOCK blocks (a formed block,
        # its demeaned copy or banded product) and a few r-vectors, not
        # all 900 columns at once (3.0 MB traced)
        from precboot import center, fit_pipeline, longrun
        from precboot.core import Dataset, index_set_from_blocks

        n = 200
        y = np.random.default_rng(4).standard_normal((n, 60))
        y[1:] += 0.5 * y[:-1]
        pipe = fit_pipeline(center(Dataset(y)))
        groups = {"a": list(range(1, 31)), "b": list(range(31, 61))}
        eta, h = pipe.scores(index_set_from_blocks(groups, ("a", "b")))
        assert eta.shape == (n, 900) and _gram_inputs(eta) is None
        bound = 8 * (3 * n * longrun.SCORE_BLOCK + 8 * eta.shape[1])
        assert bound < 8 * n * eta.shape[1]  # all scores at once
        for spec in (QS, BART):
            for read in (lambda: andrews_bandwidth(eta, spec),
                         lambda: w_diag(eta, h, 2.0, spec)):
                tracemalloc.start()
                try:
                    read()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < bound


def direct_w(eta, h, s_n, spec):
    """h_l^2 (1/n) sum over |k| < n of K(k/S_n) sum_t x_{t,l} x_{t-|k|,l},
    one lag at a time."""
    n = eta.shape[0]
    weights = kernel_lag_weights(spec, n, s_n)
    total = (eta * eta).sum(axis=0)
    for k in range(1, n):
        total = total + 2.0 * weights[k] * (eta[k:] * eta[:-k]).sum(axis=0)
    return h ** 2 * total / n


class TestMirroredPairs:
    """(a, b) and (b, a) are one precision coefficient: their score columns
    are equal bit for bit, and on the Gram route so is their w_diag."""

    @pytest.mark.parametrize("spec", [QS, BART], ids=["qs", "bartlett"])
    def test_gram_route_w_diag_is_mirror_exact(self, rng, spec):
        from precboot.core import index_set_all_offdiag
        from precboot.simulate import true_zero_set

        pipe = desk_fit()
        for S in (true_zero_set("A", 50), index_set_all_offdiag(50),
                  partly_mirrored(50, rng)):
            eta, h = pipe.scores(S)
            assert _gram_inputs(eta) is not None
            mirror = mirror_positions(S)
            paired = mirror >= 0
            assert paired.sum() >= S.r // 2
            w = w_diag(eta, h, andrews_bandwidth(eta, spec), spec)
            np.testing.assert_array_equal(w[paired], w[mirror[paired]])


class TestWDiagOracle:
    @pytest.mark.parametrize("n", [8, 37, 150, 401])
    @pytest.mark.parametrize("spec", [QS, BART], ids=["qs", "bartlett"])
    def test_matches_direct_lag_sum(self, rng, n, spec):
        eps = rng.standard_normal((n, 12))
        eta = eps.copy()
        for t in range(1, n):
            eta[t] += 0.5 * eta[t - 1]
        h = rng.uniform(0.5, 2.0, 12)
        for s_n in (1.0, 2.7, 0.4 * n):
            np.testing.assert_allclose(w_diag(eta, h, s_n, spec),
                                       direct_w(eta, h, s_n, spec),
                                       rtol=1e-12)

    @pytest.mark.parametrize("spec", [QS, BART], ids=["qs", "bartlett"])
    def test_row_chunks_match_direct_lag_sum(self, rng, monkeypatch, spec):
        import precboot.longrun as lr
        eta = rng.standard_normal((150, 5))
        h = rng.uniform(0.5, 2.0, 5)
        monkeypatch.setattr(lr, "TOEPLITZ_ROWS", 7)
        for s_n in (1.0, 2.7, 40.0):
            np.testing.assert_allclose(w_diag(eta, h, s_n, spec),
                                       direct_w(eta, h, s_n, spec),
                                       rtol=1e-12)

    def test_floor_values_and_warning_count(self, rng):
        from precboot.longrun import W_FLOOR_EPS
        eta = rng.standard_normal((40, 7))
        eta[:, [1, 4, 5]] = 0.0
        with pytest.warns(DegenerateVariance,
                          match="^3 long-run variance estimates"):
            w = w_diag(eta, np.ones(7), 2.0, QS)
        np.testing.assert_array_equal(w[[1, 4, 5]], W_FLOOR_EPS ** 2)
        assert np.all(w[[0, 2, 3, 6]] > W_FLOOR_EPS)

    def test_lazy_scores_match_dense(self, rng, monkeypatch):
        # offdiag at p = 6 is dense in its variables, so the lazy scores
        # take the Gram route and the ndarray the column route: the two
        # agree to rounding. The Gram route is bitwise the same at any
        # SCORE_BLOCK; a sparse set takes the column route read lazily or
        # densely, bitwise at each block size and to rounding across them
        from precboot import center, fit_pipeline, longrun
        from precboot.core import Dataset, index_set_all_offdiag

        pipe = fit_pipeline(center(Dataset(rng.standard_normal((60, 6)))))
        lazy, h = pipe.scores(index_set_all_offdiag(6))
        sparse, h_sparse = pipe.scores(IndexSet(np.array([[1, 2], [3, 4],
                                                          [5, 6]])))
        assert _gram_inputs(lazy) is not None and _gram_inputs(sparse) is None
        dense = lazy[:, :]
        for spec in (QS, BART):
            moment_w = w_diag(lazy, h, 2.0, spec)
            column_w = w_diag(dense, h, 2.0, spec)
            sparse_w = w_diag(sparse, h_sparse, 2.0, spec)
            bandwidth = andrews_bandwidth(lazy, spec)
            with monkeypatch.context() as m:
                m.setattr(longrun, "SCORE_BLOCK", 2)
                np.testing.assert_array_equal(w_diag(lazy, h, 2.0, spec),
                                              moment_w)
                assert andrews_bandwidth(lazy, spec) == bandwidth
                got = w_diag(sparse, h_sparse, 2.0, spec)
                np.testing.assert_array_equal(
                    got, w_diag(sparse[:, :], h_sparse, 2.0, spec))
                assert andrews_bandwidth(sparse, spec) == \
                    andrews_bandwidth(sparse[:, :], spec)
                np.testing.assert_allclose(got, sparse_w, rtol=1e-13)
                np.testing.assert_allclose(w_diag(dense, h, 2.0, spec),
                                           column_w, rtol=1e-13)
            np.testing.assert_allclose(moment_w, column_w, rtol=1e-13)
            assert bandwidth == pytest.approx(andrews_bandwidth(dense, spec),
                                              rel=1e-13)


class TestHDiag:
    def test_formula(self):
        v = SymMatrix(np.diag([2.0, 4.0, 5.0]))
        S = IndexSet(np.array([[1, 2], [3, 3]]))
        np.testing.assert_allclose(h_diag_from_v(v, S), [1 / 8.0, 1 / 25.0],
                                   atol=1e-15)


def index_toeplitz(w):
    """w spread by |i - j| through an index matrix: the reference form of
    the Toeplitz lag-weight matrix."""
    idx = np.arange(w.shape[0])
    return w[np.abs(idx[:, None] - idx[None, :])]


def index_w_diag(eta, h_diag, s_n, kernel):
    """w_diag with each row block of T gathered through an index matrix,
    the reference for the strided-view form."""
    import precboot.longrun as lr
    n, r = eta.shape
    weights = kernel_lag_weights(kernel, n, s_n)
    reach = int(np.flatnonzero(weights)[-1])
    chunk = lr.TOEPLITZ_ROWS
    quad = np.zeros(r)
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        lo, hi = max(0, a - reach), min(n, b + reach)
        t_rows = weights[np.abs(np.arange(a, b)[:, None]
                                - np.arange(lo, hi)[None, :])]
        quad += (eta[a:b] * (t_rows @ eta[lo:hi])).sum(axis=0)
    h2 = h_diag ** 2
    w = h2 * quad / n
    base = h2 * (eta * eta).sum(axis=0) / n
    floor = lr.W_FLOOR_EPS * np.where(base > 0.0, base, lr.W_FLOOR_EPS)
    return np.where(w <= 0.0, floor, w)


def plain_gram_ar1_sums(e, a, b):
    """_gram_ar1_sums with every Gram and term a fresh |U| x |U| matrix,
    gathered at [a, b] at the end."""
    n = e.shape[0]
    p0, p1 = e * e, e[:-1] * e[1:]
    g0, g1, total = p0.T @ p0, p1.T @ p1, e.T @ e
    first, last = np.outer(e[0], e[0]), np.outer(e[-1], e[-1])
    mean = total / n
    shared = (n - 1) * mean * mean
    head = g0 - last * last - 2.0 * mean * (total - last) + shared
    lag1 = g1 - mean * (2.0 * total - first - last) + shared
    tail = g0 - first * first - 2.0 * mean * (total - first) + shared
    return head[a, b], lag1[a, b], tail[a, b]


def broadcast_ar1_summaries(eta):
    """_ar1_summaries as a chain of broadcast temporaries over all r columns
    at once: the demeaned (head, lag-1, tail) sums, then
    sigma^2 = (tail - 2 r1 lag1 + r1^2 head) / (n - 1)."""
    x = eta[:, np.arange(eta.shape[1])]
    x = x - x.mean(axis=0)
    head = (x[:-1] ** 2).sum(axis=0)
    lag1 = (x[1:] * x[:-1]).sum(axis=0)
    tail = (x[1:] ** 2).sum(axis=0)
    keep = head > 0.0
    head, lag1, tail = head[keep], lag1[keep], tail[keep]
    r1 = np.clip(lag1 / head, -0.97, 0.97)
    return r1, (tail - 2.0 * r1 * lag1 + r1 * r1 * head) / (eta.shape[0] - 1)


def innovation_ar1_summaries(eta):
    """rho as in _ar1_summaries, and sigma^2 as the direct sum of squared
    innovations x_t - r1 x_{t-1} over n - 1."""
    x = eta[:, np.arange(eta.shape[1])]
    x = x - x.mean(axis=0)
    denom = (x[:-1] ** 2).sum(axis=0)
    lag1 = (x[1:] * x[:-1]).sum(axis=0)
    keep = denom > 0.0
    x = x[:, keep]
    r1 = np.clip(lag1[keep] / denom[keep], -0.97, 0.97)
    innov = x[1:] - r1[None, :] * x[:-1]
    return r1, (innov ** 2).sum(axis=0) / (eta.shape[0] - 1)


def ar1_scores(rng, n, r):
    eta = rng.standard_normal((n, r))
    for t in range(1, n):
        eta[t] += 0.4 * eta[t - 1]
    return eta


class NoProduct(np.ndarray):
    """An ndarray whose matrix products raise. Slices keep the subclass;
    np.ascontiguousarray returns a plain ndarray."""

    def __matmul__(self, other):
        raise AssertionError("matrix product on the strided Toeplitz view")

    __rmatmul__ = __matmul__


class TestLagToeplitz:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 150, 500])
    def test_equals_index_matrix(self, rng, n):
        from precboot.longrun import lag_toeplitz
        w = rng.standard_normal(n)
        t = lag_toeplitz(w)
        np.testing.assert_array_equal(t, index_toeplitz(w))
        assert not t.flags.writeable

    @pytest.mark.parametrize("spec", [QS, BART], ids=["qs", "bartlett"])
    def test_w_diag_bitwise_one_chunk(self, rng, monkeypatch, spec):
        # TOEPLITZ_ROWS >= n: the whole of T is one row block
        import precboot.longrun as lr
        monkeypatch.setattr(lr, "TOEPLITZ_ROWS", 150)
        eta = ar1_scores(rng, 150, 30)
        h = rng.uniform(0.5, 2.0, 30)
        for s_n in (1.0, 2.7, 60.0):
            np.testing.assert_array_equal(w_diag(eta, h, s_n, spec),
                                          index_w_diag(eta, h, s_n, spec))

    @pytest.mark.parametrize("spec", [QS, BART], ids=["qs", "bartlett"])
    def test_w_diag_bitwise_row_chunks(self, rng, monkeypatch, spec):
        # 7-row blocks, then the default TOEPLITZ_ROWS, three blocks at
        # n = 150
        import precboot.longrun as lr
        assert lr.TOEPLITZ_ROWS < 150
        for rows, r in ((7, 9), (lr.TOEPLITZ_ROWS, 30)):
            monkeypatch.setattr(lr, "TOEPLITZ_ROWS", rows)
            eta = ar1_scores(rng, 150, r)
            h = rng.uniform(0.5, 2.0, r)
            for s_n in (1.0, 2.7, 60.0):
                np.testing.assert_array_equal(w_diag(eta, h, s_n, spec),
                                              index_w_diag(eta, h, s_n, spec))

    @pytest.mark.parametrize("rows", [150, 7, None],
                             ids=["one-chunk", "row-chunks", "default-rows"])
    def test_w_diag_copies_rows_before_product(self, rng, monkeypatch,
                                               rows):
        # a product with the negative-stride view itself may leave BLAS on
        # some NumPy versions and change the bits, so every row chunk must
        # be copied to C order first
        import precboot.longrun as lr
        view = lr.lag_toeplitz
        monkeypatch.setattr(lr, "lag_toeplitz",
                            lambda w: view(w).view(NoProduct))
        if rows is not None:
            monkeypatch.setattr(lr, "TOEPLITZ_ROWS", rows)
        with pytest.raises(AssertionError):
            lr.lag_toeplitz(np.ones(4))[1:3] @ np.ones(4)
        eta = ar1_scores(rng, 150, 9)
        h = rng.uniform(0.5, 2.0, 9)
        np.testing.assert_array_equal(w_diag(eta, h, 2.7, QS),
                                      index_w_diag(eta, h, 2.7, QS))


class TestAr1Summaries:
    def test_bitwise_equal_to_broadcast_form(self, rng):
        from precboot.longrun import _ar1_summaries
        eta = ar1_scores(rng, 150, 300)
        for got, want in zip(_ar1_summaries(eta),
                             broadcast_ar1_summaries(eta)):
            np.testing.assert_array_equal(got, want)

    def test_zero_variance_column(self, rng):
        from precboot.longrun import _ar1_summaries
        eta = ar1_scores(rng, 60, 7)
        eta[:, [2, 5]] = 0.25
        rho, sig2 = _ar1_summaries(eta)
        assert rho.shape == sig2.shape == (5,)
        for got, want in zip((rho, sig2), broadcast_ar1_summaries(eta)):
            np.testing.assert_array_equal(got, want)

    def test_matches_direct_innovation_sum(self, rng):
        # expanding sum (x_t - r1 x_{t-1})^2 into the three sums moves
        # sigma^2 by rounding only; rho is the same number
        from precboot.longrun import _ar1_summaries
        eta = ar1_scores(rng, 150, 300)
        eta[:, [7, 100]] = -1.5
        rho, sig2 = _ar1_summaries(eta)
        rho_o, sig2_o = innovation_ar1_summaries(eta)
        np.testing.assert_array_equal(rho, rho_o)
        np.testing.assert_allclose(sig2, sig2_o, rtol=1e-13)

    def test_input_unmodified(self, rng, monkeypatch):
        # the second input spans three blocks of the column route
        from precboot import longrun
        from precboot.longrun import _ar1_summaries
        for block, r in ((longrun.SCORE_BLOCK, 6), (4, 10)):
            monkeypatch.setattr(longrun, "SCORE_BLOCK", block)
            eta = ar1_scores(rng, 40, r) + 3.0
            before = eta.copy()
            _ar1_summaries(eta)
            np.testing.assert_array_equal(eta, before)


def moment_scores(residuals, v, pairs):
    """The LazyEta of ``pairs`` (1-based) over given residuals and v."""
    from precboot.nodewise import NodewiseFit
    from precboot.precision import LazyEta

    p = residuals.shape[1]
    fit = NodewiseFit(alpha=-np.eye(p), lambdas=np.ones(p),
                      residuals=residuals, iterations=np.ones(p, dtype=int))
    return LazyEta(fit, SymMatrix(v), IndexSet(np.asarray(pairs)))


@pytest.fixture(scope="module")
def paper_shapes():
    """(name, eta, h) at the desk shape (p = 50, n = 150, zero set) and the
    mid shape (p = 200, n = 400, all off-diagonal pairs), structure A,
    rho = 0.3."""
    from precboot import fit_pipeline
    from precboot.core import RngSpec
    from precboot.simulate import DgpSpec, generate, index_set_for

    out = []
    for name, p, n, choice in (("desk", 50, 150, "zeros"),
                               ("mid", 200, 400, "offdiag")):
        dgp = DgpSpec("A", p, 0.3, n, RngSpec(17, "shapes"))
        pipe = fit_pipeline(generate(dgp, 0))
        eta, h = pipe.scores(index_set_for(choice, "A", p))
        out.append((name, eta, h))
    return out


class TestScoreMoments:
    def test_route_rule(self):
        # dense in its variables when r >= |U|(|U| - 1)/2: the desk zero set
        # (2,352 vs 1,225) and all off-diagonal pairs take the Grams, one
        # block pair of two groups of 10 (100 vs 190) takes the columns. At
        # the boundary, all 10 pairs j1 < j2 of five variables take the
        # Grams and any nine of them, which still touch all five, the
        # columns. The scores offer their inputs either way
        from precboot.core import index_set_all_offdiag, \
            index_set_from_blocks
        from precboot.simulate import true_zero_set

        e = np.random.default_rng(0).standard_normal((30, 50))
        v = np.eye(50) + 0.25
        groups = {"a": list(range(1, 11)), "b": list(range(11, 21))}
        five = [[a, b] for a in range(1, 6) for b in range(a + 1, 6)]
        cases = [(true_zero_set("A", 50).pairs, True),
                 (index_set_all_offdiag(50).pairs, True),
                 (index_set_from_blocks(groups, ("a", "b")).pairs, False),
                 (index_set_from_blocks(groups, ("a", "a")).pairs, True),
                 (five, True)]
        cases += [(five[:k] + five[k + 1:], False) for k in range(10)]
        for pairs, dense in cases:
            eta = moment_scores(e, v, pairs)
            assert (_gram_inputs(eta) is not None) == dense
            eps, touched, a, b, v_ab = eta.gram_inputs()
            big = eps[:, touched]
            assert big.shape[1] == np.unique(np.asarray(pairs)).size
            np.testing.assert_array_equal(big[:, a] * big[:, b] - v_ab,
                                          eta[:, :])

    def test_route_chosen_before_residuals_are_gathered(self):
        # residuals that refuse every read by index: a block pair (100 pairs
        # of 20 variables) is sent to the columns without gathering E, and
        # the ten pairs of five variables gather it for the Grams
        from precboot.core import index_set_from_blocks

        class Refuse(np.ndarray):
            def __getitem__(self, key):
                raise AssertionError("the residuals were gathered")

        e = np.random.default_rng(1).standard_normal((30, 20)).view(Refuse)
        groups = {"a": list(range(1, 11)), "b": list(range(11, 21))}
        block = index_set_from_blocks(groups, ("a", "b")).pairs
        assert _gram_inputs(moment_scores(e, np.eye(20), block)) is None
        five = [[a, b] for a in range(1, 6) for b in range(a + 1, 6)]
        with pytest.raises(AssertionError, match="gathered"):
            _gram_inputs(moment_scores(e, np.eye(20), five))

    def test_gram_route_forms_no_column(self, paper_shapes, monkeypatch):
        # with every column read made to raise, the dense sets still give
        # their bandwidth and w_diag bitwise; a block pair reads columns
        from precboot.core import index_set_from_blocks
        from precboot.precision import LazyEta

        want = {}
        for name, eta, h in paper_shapes:
            for spec in (QS, BART):
                s_n = andrews_bandwidth(eta, spec)
                want[name, spec.kind] = s_n, w_diag(eta, h, s_n, spec)

        def refuse(self, key):
            raise AssertionError("a score column was formed")

        monkeypatch.setattr(LazyEta, "__getitem__", refuse)
        for name, eta, h in paper_shapes:
            for spec in (QS, BART):
                s_want, w_want = want[name, spec.kind]
                assert andrews_bandwidth(eta, spec) == s_want
                np.testing.assert_array_equal(w_diag(eta, h, s_want, spec),
                                              w_want)
        groups = {"a": list(range(1, 11)), "b": list(range(11, 21))}
        block = index_set_from_blocks(groups, ("a", "b"))
        eta = moment_scores(ar1_scores(np.random.default_rng(3), 60, 20),
                            np.eye(20), block.pairs)
        with pytest.raises(AssertionError, match="score column"):
            andrews_bandwidth(eta, QS)
        with pytest.raises(AssertionError, match="score column"):
            w_diag(eta, np.ones(block.r), 2.0, QS)

    @pytest.mark.parametrize("spec", [QS, BART], ids=["qs", "bartlett"])
    def test_match_column_route_and_direct_sum(self, paper_shapes, spec):
        from precboot.longrun import _ar1_summaries

        for name, eta, h in paper_shapes:
            assert _gram_inputs(eta) is not None, name
            cols = eta[:, :]
            s_n = andrews_bandwidth(eta, spec)
            assert s_n == pytest.approx(andrews_bandwidth(cols, spec),
                                        rel=1e-13)
            w = w_diag(eta, h, s_n, spec)
            np.testing.assert_allclose(w, w_diag(cols, h, s_n, spec),
                                       rtol=1e-13)
            some = np.linspace(0, eta.shape[1] - 1, 200).astype(int)
            np.testing.assert_allclose(
                w[some], direct_w(cols[:, some], h[some], s_n, spec),
                rtol=1e-13)
            (rho, sig2), (rho_c, sig2_c) = (_ar1_summaries(eta),
                                            _ar1_summaries(cols))
            np.testing.assert_allclose(rho, rho_c, rtol=0, atol=1e-13)
            np.testing.assert_allclose(sig2, sig2_c, rtol=1e-13)

    @pytest.mark.parametrize("offset", [3.0, 10.0, 30.0])
    @pytest.mark.parametrize("spec", [QS, BART], ids=["qs", "bartlett"])
    def test_near_collinear_pair_cancellation(self, offset, spec):
        # corr(e_a, e_b) = 0.99 around a common offset, and v_ab the mean of
        # y = e_a e_b, so that x = y - v_ab is centred and the moments
        # cancel by (mean(y) / sd(y))^2 (about 2, 24 and 200 here). Stated
        # bound: relative error <= 1e-14 (1 + (mean / sd)^2); measured
        # 3e-15, 3e-14 and 5.5e-13 at n = 400
        from precboot.longrun import _ar1_summaries

        rng = np.random.default_rng(7)
        n = 400
        x, noise = rng.standard_normal(n), rng.standard_normal(n)
        for t in range(1, n):
            x[t] += 0.3 * x[t - 1]
        e = np.column_stack([offset + x, offset + 0.99 * x
                             + np.sqrt(1.0 - 0.99 ** 2) * noise])
        y = e[:, 0] * e[:, 1]
        v = np.array([[1.0, y.mean()], [y.mean(), 1.0]])
        eta = moment_scores(e, v, [[1, 2], [2, 1]])
        assert _gram_inputs(eta) is not None
        bound = 1e-14 * (1.0 + (y.mean() / y.std()) ** 2)
        cols = eta[:, :]
        w = w_diag(eta, np.ones(2), 3.0, spec)
        np.testing.assert_allclose(w, w_diag(cols, np.ones(2), 3.0, spec),
                                   rtol=bound)
        np.testing.assert_allclose(w, direct_w(cols, np.ones(2), 3.0, spec),
                                   rtol=bound)
        (rho, sig2), (rho_c, sig2_c) = (_ar1_summaries(eta),
                                        _ar1_summaries(cols))
        np.testing.assert_allclose(rho, rho_c, rtol=0, atol=bound)
        np.testing.assert_allclose(sig2, sig2_c, rtol=bound)

    @pytest.mark.parametrize("spec", [QS, BART], ids=["qs", "bartlett"])
    def test_floors_match_column_route(self, rng, spec):
        # pairs with a zero residual column and v_ab = 0 have x = 0: both
        # routes floor the same entries at the same values, and warn with
        # the same count
        from precboot.longrun import W_FLOOR_EPS

        e = ar1_scores(rng, 80, 5)
        e[:, 3] = 0.0
        pairs = [[a, b] for a in range(1, 6) for b in range(1, 6) if a != b]
        eta = moment_scores(e, np.eye(5), pairs)
        assert _gram_inputs(eta) is not None
        h = rng.uniform(0.5, 2.0, len(pairs))
        messages = []
        for scores in (eta, eta[:, :]):
            with pytest.warns(DegenerateVariance) as caught:
                w = w_diag(scores, h, 2.5, spec)
            messages.append([str(c.message) for c in caught])
            floored = np.array([4 in pair for pair in pairs])
            np.testing.assert_array_equal(w[floored], W_FLOOR_EPS ** 2)
            assert np.all(w[~floored] > W_FLOOR_EPS)
        assert messages[0] == messages[1] == [
            "8 long-run variance estimates were non-positive and got floored"]

    def test_bitwise_invariant_to_block_size_and_threads(self, rng,
                                                         monkeypatch):
        from precboot import center, fit_pipeline, longrun
        from precboot.core import Dataset, index_set_all_offdiag, \
            map_ordered

        pipes = [fit_pipeline(center(Dataset(ar1_scores(rng, 90, 8))))
                 for _ in range(4)]
        # all pairs take the Grams; five pairs of eight variables take the
        # columns, in two blocks at SCORE_BLOCK = 3
        sets = (index_set_all_offdiag(8),
                IndexSet(np.array([[1, 2], [3, 4], [5, 6], [7, 8], [2, 1]])))
        jobs = [(pipe, S) for pipe in pipes for S in sets]

        def one(job):
            pipe, S = job
            eta, h = pipe.scores(S)
            s_n = andrews_bandwidth(eta, QS)
            return s_n, w_diag(eta, h, s_n, QS)

        want = [one(job) for job in jobs]
        monkeypatch.setattr(longrun, "SCORE_BLOCK", 3)
        for got in ([one(job) for job in jobs], map_ordered(one, jobs, 2)):
            for (s_n, w), (s_want, w_want) in zip(got, want):
                assert s_n == s_want
                np.testing.assert_array_equal(w, w_want)
