import math
import tracemalloc
import warnings

import numpy as np
import pytest

from precboot import Dataset, center, fit_all
from precboot.errors import ConvergenceWarning, DegenerateColumn, \
    InsufficientData, InvalidInput, NotConverged
from precboot.nodewise import LassoConfig, default_lambdas, fit_batch, \
    node_penalties

from conftest import fit_at, fit_node, gram_dataset, kkt_violation, \
    make_centered


class TestDefaultLambdas:
    def test_closed_form_value(self, rng):
        y = rng.standard_normal((200, 100))
        y = (y - y.mean(axis=0)) / y.std(axis=0, ddof=1)
        d = Dataset(y, centered=True)
        lam = default_lambdas(d, LassoConfig(lambda_scale=0.5))
        expected = 0.5 * math.sqrt(2.0 * math.log(100) / 200)
        assert expected == pytest.approx(0.10729830131446737, abs=1e-12)
        np.testing.assert_allclose(lam, expected, rtol=1e-12)

    def test_override_returned_verbatim(self, rng):
        # penalties given in place of the defaults come back as they are
        d = make_centered(rng.standard_normal((10, 3)))
        fit = fit_at(d, [0.3, 0.2, 0.1], LassoConfig())
        assert fit.lambdas.tolist() == [0.3, 0.2, 0.1]

    def test_constant_column(self):
        values = np.column_stack([np.zeros(10), np.arange(10.0)])
        d = make_centered(values)
        with pytest.raises(DegenerateColumn):
            default_lambdas(d, LassoConfig())


class TestFitNode:
    """One node's solve (the reference ``fit_node``, a row of the lockstep
    solve) and the input checks of ``fit_all``."""

    def test_soft_threshold_closed_form(self):
        d = gram_dataset([[1.0, 0.5], [0.5, 1.0]])
        gamma, _ = fit_node(d, 1, 0.2, LassoConfig(tol=1e-12))
        assert gamma[0] == -1.0
        assert gamma[1] == pytest.approx(0.3, abs=1e-10)

    def test_soft_threshold_kills_coefficient(self):
        d = gram_dataset([[1.0, 0.5], [0.5, 1.0]])
        gamma, _ = fit_node(d, 1, 0.6, LassoConfig(tol=1e-12))
        assert gamma[1] == 0.0

    def test_lambda_to_zero_gives_ols(self, rng):
        d = make_centered(rng.standard_normal((50, 3)))
        gamma, _ = fit_node(d, 1, 1e-12, LassoConfig(tol=1e-12))
        x = d.values[:, 1:]
        coef, *_ = np.linalg.lstsq(x, d.values[:, 0], rcond=None)
        np.testing.assert_allclose(gamma[1:], coef, atol=1e-8)

    def test_requires_centered(self, rng):
        d = Dataset(rng.standard_normal((10, 2)) + 5.0)
        with pytest.raises(InsufficientData):
            fit_all(d, LassoConfig())

    def test_nan_rejected(self):
        values = np.zeros((10, 2))
        values[0, 0] = np.nan
        with pytest.raises(InvalidInput):
            fit_all(Dataset(values, centered=True), LassoConfig())


class TestFitAll:
    def test_diagonal_minus_one(self, rng):
        d = make_centered(rng.standard_normal((30, 4)))
        fit = fit_all(d, LassoConfig())
        np.testing.assert_array_equal(np.diagonal(fit.alpha), -1.0)

    def test_residual_identity(self, rng):
        d = make_centered(rng.standard_normal((30, 4)))
        fit = fit_all(d, LassoConfig())
        np.testing.assert_array_equal(fit.residuals, -(d.values @ fit.alpha.T))

    def test_fully_penalized_residuals_are_raw_columns(self, rng):
        col = rng.standard_normal(20)
        d = make_centered(np.column_stack([col, col]))
        fit = fit_at(d, [10.0, 10.0], LassoConfig())
        assert fit.alpha[0, 1] == 0.0 and fit.alpha[1, 0] == 0.0
        np.testing.assert_allclose(fit.residuals, d.values, atol=1e-14)

    def test_identity_covariance_coefficients_small(self, rng):
        d = make_centered(rng.standard_normal((2000, 5)))
        fit = fit_all(d, LassoConfig())
        off = fit.alpha[~np.eye(5, dtype=bool)]
        assert np.abs(off).max() <= 0.1


class TestKktCertificates:
    def test_random_fits_satisfy_kkt(self, rng):
        cfg = LassoConfig(tol=1e-10)
        for _ in range(10):
            n = int(rng.integers(20, 60))
            p = int(rng.integers(3, 12))
            d = make_centered(rng.standard_normal((n, p)))
            lam = default_lambdas(d, cfg)
            fit = fit_all(d, cfg)
            for j in range(1, p + 1):
                viol = kkt_violation(d, j, float(lam[j - 1]), fit.alpha[j - 1])
                assert viol <= 1e-8

    def test_objective_monotone_in_sweeps(self, rng):
        d = make_centered(rng.standard_normal((40, 8)))
        lam = 0.05

        def objective(gamma):
            fitted = d.values @ gamma
            free = np.abs(gamma).sum() - 1.0
            return fitted @ fitted / d.n + 2.0 * lam * free

        values = []
        import warnings
        for sweeps in range(1, 8):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                gamma, _ = fit_node(d, 1, lam,
                                    LassoConfig(tol=1e-14, max_iter=sweeps))
            values.append(objective(gamma))
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_permutation_equivariance(self, rng):
        d = make_centered(rng.standard_normal((60, 5)))
        perm = np.array([2, 0, 4, 1, 3])
        d_perm = Dataset(d.values[:, perm], centered=True)
        cfg = LassoConfig(tol=1e-12)
        fit = fit_at(d, np.full(5, 0.05), cfg)
        fit_perm = fit_at(d_perm, np.full(5, 0.05), cfg)
        np.testing.assert_allclose(fit_perm.alpha,
                                   fit.alpha[np.ix_(perm, perm)], atol=1e-9)

    def test_scaling_maps_to_kkt_point(self, rng):
        # multiplying column k by c maps the optimum gamma_k -> gamma_k / c,
        # at the cost of scaling that coordinate's effective penalty by c;
        # check the stationarity conditions with the mapped penalties
        d = make_centered(rng.standard_normal((50, 4)))
        cfg = LassoConfig(tol=1e-12)
        lam = 0.07
        gamma, _ = fit_node(d, 1, lam, cfg)
        c = 2.5
        scaled = d.values.copy()
        scaled[:, 2] *= c
        mapped = gamma.copy()
        mapped[2] /= c
        resid = -(scaled @ mapped)
        corr = scaled.T @ resid / d.n
        lam_per = np.array([lam, lam, c * lam, lam])
        for k in range(1, 4):
            if mapped[k] == 0.0:
                assert abs(corr[k]) <= lam_per[k] + 1e-8
            else:
                assert abs(corr[k] - lam_per[k] * np.sign(mapped[k])) <= 1e-8


class TestConfigValidation:
    def test_bad_tol(self):
        with pytest.raises(InvalidInput):
            LassoConfig(tol=0.0)

    def test_bad_max_iter(self):
        with pytest.raises(InvalidInput):
            LassoConfig(max_iter=0)

    @pytest.mark.parametrize("scale", [-1.0, -1e-300, np.nan, np.inf])
    def test_bad_lambda_scale(self, scale):
        # a negative penalty inverts the soft threshold; 0 is plain least
        # squares and stays legal
        with pytest.raises(InvalidInput, match="lambda_scale"):
            LassoConfig(lambda_scale=scale)
        assert LassoConfig(lambda_scale=0.0).lambda_scale == 0.0


def scalar_cd(gram, j, lam, tol, max_iter):
    """Reference: the one-node cyclic coordinate descent that fit_all ran
    node by node before the lockstep solver, kept verbatim.

    Returns (gamma, sweeps, converged).
    """
    p = gram.shape[0]
    gamma = np.zeros(p)
    gamma[j] = -1.0
    q = -gram[:, j].copy()
    sweeps = 0
    converged = False
    while sweeps < max_iter:
        sweeps += 1
        max_delta = 0.0
        for k in range(p):
            if k == j:
                continue
            ckk = gram[k, k]
            if ckk <= 0.0:
                continue
            old = gamma[k]
            partial = q[k] - ckk * old
            if partial > lam:
                new = -(partial - lam) / ckk
            elif partial < -lam:
                new = -(partial + lam) / ckk
            else:
                new = 0.0
            if new != old:
                diff = new - old
                q += gram[:, k] * diff
                gamma[k] = new
                ad = abs(diff)
                if ad > max_delta:
                    max_delta = ad
        if max_delta < tol:
            converged = True
            break
    return gamma, sweeps, converged


def reference_fit(d, cfg, lam=None):
    """(alpha, iterations, non-converged 1-based nodes) from scalar_cd, at
    the penalties ``lam`` (default: those of ``cfg``)."""
    if lam is None:
        lam = default_lambdas(d, cfg)
    gram = d.values.T @ d.values / d.n
    rows, sweeps, bad = [], [], []
    for j0 in range(d.p):
        gamma, s, ok = scalar_cd(gram, j0, float(lam[j0]), cfg.tol,
                                 cfg.max_iter)
        rows.append(gamma)
        sweeps.append(s)
        if not ok:
            bad.append(j0 + 1)
    return np.array(rows), np.array(sweeps), bad


def fit_with_warnings(d, cfg, fit_fn=fit_all):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_fn(d, cfg)
    return fit, [str(w.message) for w in caught
                 if issubclass(w.category, ConvergenceWarning)]


def not_converged_messages(bad, max_iter):
    return [f"node {j}: coordinate descent not converged after "
            f"{max_iter} sweeps" for j in bad]


def assert_bitwise_equal(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestLockstepMatchesScalarCd:
    """fit_all solves all nodes in lockstep; every node must do exactly the
    arithmetic of the one-node solver: same alpha, bit for bit and with the
    sign of zero, the same sweep counts and the same warnings."""

    def check(self, d, cfg, lam=None):
        alpha, sweeps, bad = reference_fit(d, cfg, lam)
        fit_fn = fit_all if lam is None else lambda d, c: fit_at(d, lam, c)
        fit, messages = fit_with_warnings(d, cfg, fit_fn)
        assert_bitwise_equal(fit.alpha, alpha)
        np.testing.assert_array_equal(fit.iterations, sweeps)
        assert messages == not_converged_messages(bad, cfg.max_iter)
        return fit, bad

    def test_random_datasets(self, rng):
        cfg = LassoConfig()
        for p in np.linspace(3, 120, 20).astype(int):
            n = int(rng.integers(max(20, p // 2), 2 * p + 40))
            mix = rng.standard_normal((p, p)) * rng.uniform(0.0, 0.4)
            y = rng.standard_normal((n, p)) @ (np.eye(p) + mix)
            self.check(make_centered(y), cfg)

    def test_tiny_lambda_dense(self, rng):
        d = make_centered(rng.standard_normal((60, 8)))
        fit, _ = self.check(d, LassoConfig(tol=1e-10), np.full(8, 1e-6))
        assert np.all(fit.alpha != 0.0)

    def test_huge_lambda_all_zero(self, rng):
        d = make_centered(rng.standard_normal((40, 10)))
        fit, _ = self.check(d, LassoConfig(), np.full(10, 1e3))
        assert np.all(fit.alpha[~np.eye(10, dtype=bool)] == 0.0)
        np.testing.assert_array_equal(fit.iterations, 1)

    def test_zero_variance_column_raises(self, rng):
        # the lockstep solve divides by every C[k, k]; fit_batch refuses a
        # zero one up front, as node_penalties does for fit_all
        y = rng.standard_normal((50, 6))
        y[:, 2] = 3.0
        samples = [make_centered(rng.standard_normal((50, 6))),
                   make_centered(y)]
        with pytest.raises(DegenerateColumn,
                           match="sample 1: column 3 has zero variance"):
            fit_batch(samples, [np.full(6, 0.05)] * 2, LassoConfig())

    def test_max_iter_two_warns_same_nodes_in_order(self, rng):
        # nodes with a huge penalty stop after one sweep, the others run out
        # of sweeps: the warnings must name exactly the latter, in order
        y = rng.standard_normal((80, 12))
        y[:, 1:] += 0.9 * y[:, :-1]
        d = make_centered(y)
        lam = np.where(np.arange(12) % 3 == 0, 1e3, 0.01)
        _, bad = self.check(d, LassoConfig(max_iter=2), lam)
        assert bad == [j for j in range(1, 13) if (j - 1) % 3 != 0]

    def test_fit_node_is_row_of_fit_all(self, rng):
        d = make_centered(rng.standard_normal((70, 9)))
        cfg = LassoConfig()
        fit = fit_all(d, cfg)
        lam = default_lambdas(d, cfg)
        for j in range(1, d.p + 1):
            gamma, sweeps = fit_node(d, j, float(lam[j - 1]), cfg)
            assert_bitwise_equal(gamma, fit.alpha[j - 1])
            assert sweeps == fit.iterations[j - 1]
        # the reference fit_node does the one-node arithmetic, and warns
        # exactly when its node runs out of sweeps (here below 11)
        gram = d.values.T @ d.values / d.n
        for max_iter in (1, 2, 5, 20):
            short = LassoConfig(max_iter=max_iter)
            for j in (1, 5):
                want, want_sweeps, ok = scalar_cd(gram, j - 1, 0.01,
                                                  short.tol, max_iter)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    gamma, sweeps = fit_node(d, j, 0.01, short)
                assert_bitwise_equal(gamma, want)
                assert sweeps == want_sweeps
                assert [str(w.message) for w in caught] == (
                    [] if ok else not_converged_messages([j], max_iter))

    def test_batch_of_samples_matches_one_by_one(self, rng):
        # one lockstep solve over several samples of one shape: each sample's
        # nodes must do the arithmetic of the one-node solver, whatever the
        # other samples do (converge sooner or later, run out of sweeps)
        n, p = 60, 7
        samples, lambdas = [], []
        for scale in (0.0, 0.3, 0.9, 0.5):
            mix = np.eye(p) + scale * rng.standard_normal((p, p))
            samples.append(make_centered(rng.standard_normal((n, p)) @ mix))
            lambdas.append(default_lambdas(samples[-1], LassoConfig()))
        y = rng.standard_normal((n, p))
        y[:, 1:] += 0.9 * y[:, :-1]
        samples.append(make_centered(y))
        lambdas.append(np.where(np.arange(p) % 3 == 0, 1e3, 0.01))
        cfg = LassoConfig(max_iter=30)
        batch = fit_batch(samples, lambdas, cfg)
        refs = [reference_fit(d, cfg, lam) for d, lam in zip(samples, lambdas)]
        assert len({int(s.min()) for _, s, _ in refs}) > 2
        assert any(bad for _, _, bad in refs)
        for b, (d, (alpha, sweeps, bad)) in enumerate(zip(samples, refs)):
            fit, messages = fit_with_warnings(b, cfg,
                                              lambda b, _: batch.fit(b))
            assert_bitwise_equal(batch.alpha[b], alpha)
            assert_bitwise_equal(fit.alpha, alpha)
            np.testing.assert_array_equal(fit.iterations, sweeps)
            np.testing.assert_array_equal(fit.residuals,
                                          -(d.values @ alpha.T))
            assert messages == not_converged_messages(bad, cfg.max_iter)


class TestNotConverged:
    # a tiny penalty moves every coefficient in the first sweep, so with
    # max_iter = 1 no node meets the tolerance
    TINY = LassoConfig(max_iter=1, lambda_scale=1e-6)

    def test_fit_all_raises_when_no_node_converges(self, rng):
        d = make_centered(rng.standard_normal((50, 6)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            with pytest.raises(NotConverged):
                fit_all(d, self.TINY)

    def test_only_the_failing_sample_raises(self, rng):
        samples = [make_centered(rng.standard_normal((50, 6)))
                   for _ in range(3)]
        lambdas = [node_penalties(d, self.TINY) for d in samples]
        lambdas[1] = np.full(6, 1e3)  # nothing moves: converges in one sweep
        batch = fit_batch(samples, lambdas, self.TINY)
        for b in (0, 2):
            with pytest.raises(NotConverged):
                batch.fit(b)
        assert np.all(batch.fit(1).iterations == 1)


class TestGramStack:
    """fit_batch fills one stack of exactly symmetric Grams in place, and
    the lockstep solve reads each Gram's rows as its columns."""

    def test_stack_is_exactly_symmetric(self, rng, monkeypatch):
        from precboot import nodewise
        seen = []
        solve = nodewise._cd_lockstep

        def capture(gram, *args):
            seen.append(gram.copy())
            return solve(gram, *args)
        monkeypatch.setattr(nodewise, "_cd_lockstep", capture)
        cfg = LassoConfig()
        for n, p, n_b in ((150, 50, 4), (41, 17, 1), (33, 60, 2)):
            samples = [make_centered(rng.standard_normal((n, p)))
                       for _ in range(n_b)]
            fit_batch(samples, [node_penalties(d, cfg) for d in samples],
                      cfg)
            (gram,) = seen
            seen.clear()
            assert gram.shape == (n_b, p, p)
            assert np.array_equal(gram, gram.transpose(0, 2, 1))
            for d, g in zip(samples, gram):
                np.testing.assert_allclose(g, d.values.T @ d.values / n,
                                           rtol=1e-14)

    def test_working_set_of_a_batch(self, rng):
        # B = 30 samples at the desk shape: above its inputs the solve holds
        # the Gram stack, gamma, q and the update of one coordinate step,
        # each at most B p^2 floats, and a few B p-vectors; a copy of the
        # stack, such as its diagonals spread per row, would exceed the
        # bound
        n_b, n, p = 30, 150, 50
        samples = [make_centered(rng.standard_normal((n, p)))
                   for _ in range(n_b)]
        cfg = LassoConfig()
        lambdas = [node_penalties(d, cfg) for d in samples]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit_batch(samples, lambdas, cfg)
            rise = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rise < 4 * n_b * p * p * 8
