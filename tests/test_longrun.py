import warnings

import numpy as np
import pytest

from precboot import SymMatrix, andrews_bandwidth, kernel_eval, w_diag
from precboot.core import IndexSet
from precboot.errors import BandwidthFallback, DegenerateVariance, \
    InsufficientData, InvalidInput
from precboot.longrun import KernelSpec, h_diag_from_v, kernel_lag_weights

from conftest import gamma_hat, xi_hat

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


class TestBandwidth:
    def test_no_persistence_hits_lower_clip(self, monkeypatch):
        import precboot.longrun as lr
        monkeypatch.setattr(lr, "_ar1_summaries",
                            lambda eta, mc: (np.zeros(3), np.ones(3)))
        assert andrews_bandwidth(np.zeros((500, 3)), QS) == 1.0

    def test_iid_columns_stay_small(self, rng):
        # sampling noise keeps rho-hat near 1/sqrt(n), so the plug-in stays
        # well below the dependent-data values
        eta = rng.standard_normal((500, 10))
        assert andrews_bandwidth(eta, QS) < 2.5

    def test_plugin_formula_qs(self, monkeypatch):
        import precboot.longrun as lr
        monkeypatch.setattr(lr, "_ar1_summaries",
                            lambda eta, mc: (np.array([0.5]), np.array([1.0])))
        eta = np.zeros((300, 1))
        # alpha(2) = (4*0.25/0.5^8) / (1/0.5^4) = 16; 1.3221*(16*300)^(1/5)
        assert andrews_bandwidth(eta, QS) == pytest.approx(
            7.202985702101578, abs=1e-9)

    def test_plugin_formula_bartlett(self, monkeypatch):
        import precboot.longrun as lr
        monkeypatch.setattr(lr, "_ar1_summaries",
                            lambda eta, mc: (np.array([0.5]), np.array([1.0])))
        eta = np.zeros((300, 1))
        a1 = (4 * 0.25 / (0.5 ** 6 * 1.5 ** 2)) / (1 / 0.5 ** 4)
        expected = 1.1447 * (a1 * 300) ** (1 / 3)
        assert andrews_bandwidth(eta, BART) == pytest.approx(expected,
                                                             abs=1e-9)

    def test_upper_clip(self, monkeypatch):
        import precboot.longrun as lr
        monkeypatch.setattr(lr, "_ar1_summaries",
                            lambda eta, mc: (np.array([0.96]), np.array([1.0])))
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


def direct_w(eta, h, s_n, spec):
    """h_l^2 (1/n) sum over |k| < n of K(k/S_n) sum_t x_{t,l} x_{t-|k|,l},
    one lag at a time."""
    n = eta.shape[0]
    weights = kernel_lag_weights(spec, n, s_n)
    total = (eta * eta).sum(axis=0)
    for k in range(1, n):
        total = total + 2.0 * weights[k] * (eta[k:] * eta[:-k]).sum(axis=0)
    return h ** 2 * total / n


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
        monkeypatch.setattr(lr, "TOEPLITZ_MAX_ENTRIES", 150 * 7)
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

    def test_lazy_scores_match_dense(self, rng):
        from precboot import center, fit_pipeline
        from precboot.core import Dataset, index_set_all_offdiag
        from precboot.precision import LazyEta, eta_scores

        pipe = fit_pipeline(center(Dataset(rng.standard_normal((60, 6)))))
        S = index_set_all_offdiag(6)
        h = h_diag_from_v(pipe.v_hat, S)
        dense = eta_scores(pipe.fit, pipe.v_hat, S)
        lazy = LazyEta(pipe.fit, pipe.v_hat, S)
        np.testing.assert_array_equal(w_diag(lazy, h, 2.0, QS, block=7),
                                      w_diag(dense, h, 2.0, QS, block=7))
        np.testing.assert_allclose(w_diag(lazy, h, 2.0, QS, block=7),
                                   w_diag(dense, h, 2.0, QS), rtol=1e-13)


class TestHDiag:
    def test_formula(self):
        v = SymMatrix(np.diag([2.0, 4.0, 5.0]))
        S = IndexSet(np.array([[1, 2], [3, 3]]))
        np.testing.assert_allclose(h_diag_from_v(v, S), [1 / 8.0, 1 / 25.0],
                                   atol=1e-15)
