import math

import numpy as np
import pytest

from precboot import RngSpec, build_sigma, coverage_experiment, generate, \
    true_zero_set
from precboot.bootstrap import BootstrapConfig, BootstrapResult
from precboot.errors import InvalidDimension, InvalidInput
from precboot.longrun import KernelSpec, andrews_bandwidth, w_diag
from precboot.nodewise import LassoConfig
from precboot.pipeline import assemble, fit_pipeline
from precboot.simulate import DEFAULT_LEVELS, DgpSpec, _truth_stats, \
    index_set_for


class TestBuildSigma:
    def test_two_by_two_algebra(self):
        sigma, omega = build_sigma("A", 2)
        assert omega[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert omega[0, 1] == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("structure,p", [
        ("A", 10), ("A", 25), ("A", 100),
        ("B", 10), ("B", 25), ("B", 100),
    ])
    def test_unit_precision_diagonal(self, structure, p):
        _, omega = build_sigma(structure, p)
        np.testing.assert_allclose(omega.diagonal(), 1.0, atol=1e-10)

    @pytest.mark.parametrize("structure,p", [("A", 200), ("B", 100)])
    def test_sigma_omega_inverse(self, structure, p):
        sigma, omega = build_sigma(structure, p)
        resid = sigma.values @ omega.values - np.eye(p)
        assert np.abs(resid).max() < 1e-8

    def test_b_single_block_dense(self):
        _, omega = build_sigma("B", 5)
        assert np.abs(omega.values).min() > 1e-6

    def test_b_requires_multiple_of_five(self):
        with pytest.raises(InvalidDimension):
            build_sigma("B", 7)


class TestZeroSet:
    def test_structure_a_band(self):
        S = true_zero_set("A", 5)
        for j1, j2 in S.pairs.tolist():
            assert abs(j1 - j2) > 1
        assert S.r == 5 * 4 - 2 * 4  # off-diagonal minus first off-band

    def test_structure_b_blocks(self):
        S = true_zero_set("B", 10)
        for j1, j2 in S.pairs.tolist():
            assert (j1 - 1) // 5 != (j2 - 1) // 5
        assert S.r == 50  # 2 * 5 * 5 cross-block entries

    def test_pairs_match_double_loop(self):
        for structure, rule in (("A", lambda a, b: abs(a - b) > 1),
                                ("B", lambda a, b: a // 5 != b // 5)):
            for p in (6, 11, 17):
                expected = [[a + 1, b + 1] for a in range(p) for b in range(p)
                            if a != b and rule(a, b)]
                assert true_zero_set(structure, p).pairs.tolist() == expected

    @pytest.mark.parametrize("structure, p", [("A", 2), ("B", 5)])
    def test_no_zero_entries_rejected(self, structure, p):
        with pytest.raises(InvalidDimension):
            true_zero_set(structure, p)

    def test_zero_entries_are_truly_zero(self):
        for structure, p in (("A", 12), ("B", 15)):
            _, omega = build_sigma(structure, p)
            S = true_zero_set(structure, p)
            vals = omega.values[S.rows(), S.cols()]
            assert np.abs(vals).max() < 1e-10

    def test_unknown_choice(self):
        with pytest.raises(InvalidInput):
            index_set_for("everything", "A", 5)


def one_sample_recursion(dgp, *key):
    """The sample of one substream key, drawn and recursed on its own: the
    reference for the block draw."""
    sigma, _ = build_sigma(dgp.structure, dgp.p)
    eps = dgp.rng.generator(*key).standard_normal((dgp.n, dgp.p)) \
        @ np.linalg.cholesky(sigma.values).T
    if dgp.rho == 0.0:
        return eps
    y = np.empty_like(eps)
    y[0] = eps[0]
    damp = math.sqrt(1.0 - dgp.rho ** 2)
    for t in range(1, dgp.n):
        y[t] = dgp.rho * y[t - 1] + damp * eps[t]
    return y


class TestDrawBlock:
    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_bitwise_equal_to_one_sample_recursion(self, rho):
        from precboot.simulate import _draw_block

        dgp = DgpSpec("A", 7, rho, 40, RngSpec(3, "block"))
        keys = [(1, i) for i in range(5)]
        block = _draw_block(dgp, keys)
        assert block.shape == (5, 40, 7)
        for values, key in zip(block, keys):
            np.testing.assert_array_equal(values,
                                          one_sample_recursion(dgp, *key))
            np.testing.assert_array_equal(generate(dgp, *key).values, values)

    def test_batch_samples_are_centred_views_of_one_block(self):
        from precboot import center
        from precboot.simulate import _fit_chunk

        dgp = DgpSpec("A", 6, 0.3, 50, RngSpec(8, "block"))
        batch, slot = _fit_chunk(dgp, 0, range(4), LassoConfig())
        assert slot == {0: 0, 1: 1, 2: 2, 3: 3}
        block = batch.samples[0].values.base
        assert block.shape == (4, 50, 6)
        for i, sample in enumerate(batch.samples):
            assert sample.centered and sample.values.base is block
            np.testing.assert_array_equal(
                sample.values, center(generate(dgp, 0, i)).values)


class TestGenerate:
    def test_fixed_seed_reproducible(self):
        dgp = DgpSpec("A", 6, 0.3, 40, RngSpec(5, "g"))
        np.testing.assert_array_equal(generate(dgp).values,
                                      generate(dgp).values)

    def test_rho_zero_matches_innovations(self):
        spec0 = DgpSpec("A", 4, 0.0, 30, RngSpec(5, "g"))
        data = generate(spec0)
        assert data.values.shape == (30, 4)

    def test_marginal_variance(self):
        dgp = DgpSpec("A", 5, 0.4, 50000, RngSpec(6, "g"))
        sigma, _ = build_sigma("A", 5)
        data = generate(dgp)
        var = data.values.var(axis=0)
        tol = 4.0 * np.sqrt(2.0 / dgp.n) * sigma.diagonal() * 3.0
        assert np.all(np.abs(var - sigma.diagonal()) <= tol)

    def test_lag_one_autocovariance(self):
        rho = 0.3
        dgp = DgpSpec("A", 2, rho, 50000, RngSpec(7, "g"))
        sigma, _ = build_sigma("A", 2)
        y = generate(dgp).values
        lag1 = y[1:].T @ y[:-1] / (dgp.n - 1)
        assert np.abs(lag1 - rho * sigma.values).max() <= 4.0 * np.sqrt(2.0 / dgp.n) * 2.0

    def test_invalid_rho(self):
        with pytest.raises(InvalidInput):
            DgpSpec("A", 5, 1.0, 50, RngSpec(0))

    def test_invalid_structure(self):
        with pytest.raises(InvalidInput):
            DgpSpec("C", 5, 0.0, 50, RngSpec(0))

    def test_structure_b_needs_multiple_of_five(self):
        with pytest.raises(InvalidDimension,
                           match="^structure B needs p divisible by 5$"):
            DgpSpec("B", 12, 0.0, 50, RngSpec(0))


class TestCoverageExperiment:
    def small_cfg(self, M=20):
        return BootstrapConfig(rng=RngSpec(3, "boot"), M=M, bandwidth=1.0)

    def test_forced_infinite_quantile_gives_full_coverage(self, monkeypatch):
        monkeypatch.setattr(BootstrapResult, "quantile",
                            lambda result, level: np.inf)
        dgp = DgpSpec("A", 6, 0.0, 40, RngSpec(3, "dgp"))
        rep = coverage_experiment(dgp, "zeros", replicates=1,
                                  boot_cfg=self.small_cfg(M=2), truth_reps=5)
        for method in ("KMB", "SKMB"):
            assert all(v == 1.0 for v in rep.mean[method].values())

    def test_forced_zero_quantile_gives_no_coverage(self, monkeypatch):
        monkeypatch.setattr(BootstrapResult, "quantile",
                            lambda result, level: -1.0)
        dgp = DgpSpec("A", 6, 0.0, 40, RngSpec(3, "dgp"))
        rep = coverage_experiment(dgp, "zeros", replicates=1,
                                  boot_cfg=self.small_cfg(M=2), truth_reps=5)
        assert all(v == 0.0 for v in rep.mean["KMB"].values())

    def test_report_fields_and_bounds(self):
        dgp = DgpSpec("A", 5, 0.0, 50, RngSpec(4, "dgp"))
        rep = coverage_experiment(dgp, "offdiag", replicates=4,
                                  boot_cfg=self.small_cfg(), truth_reps=10)
        assert rep.failures == 0
        for method in ("KMB", "SKMB"):
            for level in DEFAULT_LEVELS:
                assert 0.0 <= rep.mean[method][level] <= 1.0
                assert rep.sd[method][level] >= 0.0

    def test_deterministic_across_thread_counts(self):
        dgp = DgpSpec("A", 5, 0.2, 60, RngSpec(9, "dgp"))
        kwargs = dict(replicates=4, boot_cfg=self.small_cfg(), truth_reps=8)
        a = coverage_experiment(dgp, "zeros", threads=1, **kwargs)
        b = coverage_experiment(dgp, "zeros", threads=8, **kwargs)
        assert a.mean == b.mean and a.sd == b.sd

    def test_no_replicates(self):
        dgp = DgpSpec("A", 5, 0.0, 50, RngSpec(4, "dgp"))
        with pytest.raises(InvalidInput, match="^replicates and truth_reps "
                                               "must be >= 1$"):
            coverage_experiment(dgp, "zeros", replicates=0,
                                boot_cfg=self.small_cfg(), truth_reps=3)

    def test_programming_error_propagates(self, monkeypatch):
        import precboot.simulate as sim

        def broken(data, fit):
            raise RuntimeError("bug in the pipeline")

        monkeypatch.setattr(sim, "assemble", broken)
        dgp = DgpSpec("A", 5, 0.0, 50, RngSpec(4, "dgp"))
        with pytest.raises(RuntimeError, match="bug in the pipeline"):
            coverage_experiment(dgp, "zeros", replicates=2,
                                boot_cfg=self.small_cfg(), truth_reps=3)

    def test_package_error_counts_one_failure(self, monkeypatch):
        import precboot.simulate as sim
        from precboot.errors import DegenerateResiduals

        calls = []

        def fails_once(data, fit):
            calls.append(1)
            if len(calls) == 4:  # the first estimation replicate
                raise DegenerateResiduals("a node has zero residuals")
            return assemble(data, fit)

        monkeypatch.setattr(sim, "assemble", fails_once)
        dgp = DgpSpec("A", 5, 0.0, 50, RngSpec(4, "dgp"))
        rep = coverage_experiment(dgp, "zeros", replicates=2,
                                  boot_cfg=self.small_cfg(), truth_reps=3)
        assert len(calls) == 5
        assert rep.failures == 1

    @pytest.mark.parametrize("rows_per_batch", [1, 3])
    def test_batch_size_does_not_change_results(self, monkeypatch,
                                                rows_per_batch):
        import precboot.simulate as sim

        dgp = DgpSpec("A", 6, 0.3, 50, RngSpec(8, "dgp"))
        kwargs = dict(replicates=5, boot_cfg=self.small_cfg(), truth_reps=7)
        whole = coverage_experiment(dgp, "zeros", **kwargs)
        monkeypatch.setattr(sim, "FIT_BATCH_NODES", rows_per_batch * dgp.p)
        split = coverage_experiment(dgp, "zeros", **kwargs)
        assert (whole.mean, whole.sd, whole.failures) \
            == (split.mean, split.sd, split.failures)

    @pytest.mark.parametrize("where", ["draw", "fit"])
    def test_failing_replicate_in_a_batch_counts_once(self, monkeypatch,
                                                      where):
        # replicate 1 of stage 2 fails, while drawing (non-finite data) or
        # after the batch solve (no node converged); the other replicates
        # of its batch must give the same bootstrap draws as without it
        import precboot.simulate as sim

        draws = []
        real_draws = sim.kmb_draws

        def record(eta, h, cfg, studentized):
            out = real_draws(eta, h, cfg, studentized)
            draws.append([r.stats for r in out])
            return out

        monkeypatch.setattr(sim, "kmb_draws", record)
        dgp = DgpSpec("A", 5, 0.0, 50, RngSpec(4, "dgp"))
        kwargs = dict(replicates=4, boot_cfg=self.small_cfg(), truth_reps=3)
        clean = coverage_experiment(dgp, "zeros", **kwargs)
        clean_draws, draws[:] = list(draws), []
        if where == "draw":
            real_draw_block = sim._draw_block

            def draw_block_nan(spec, keys):
                block = real_draw_block(spec, keys)
                for values, key in zip(block, keys):
                    if key == (1, 1):
                        values[0, 0] = np.nan
                return block

            monkeypatch.setattr(sim, "_draw_block", draw_block_nan)
        else:
            real_fit_batch = sim.fit_batch
            batches = []

            def second_stops_early(samples, lambdas, cfg):
                batch = real_fit_batch(samples, lambdas, cfg)
                batches.append(batch)
                if len(batches) == 2:  # stage 2's only batch
                    batch.converged[1] = False
                return batch

            monkeypatch.setattr(sim, "fit_batch", second_stops_early)
        rep = coverage_experiment(dgp, "zeros", **kwargs)
        assert clean.failures == 0 and rep.failures == 1
        assert len(draws) == 3
        for got, want in zip(draws, clean_draws[:1] + clean_draws[2:]):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)


class TestStudentizedScaleTrend:
    def test_w_grows_with_temporal_dependence(self):
        # the asymptotic variance ratio (1+rho^2)/(1-rho^2) > 1 at rho = 0.3;
        # check the ordinal version on estimated scales
        boot_cfg = BootstrapConfig(rng=RngSpec(0))

        def median_w(rho, seed):
            dgp = DgpSpec("A", 10, rho, 200, RngSpec(seed, "w"))
            S = index_set_for("zeros", "A", 10)
            meds = []
            for b in range(20):
                pipe = fit_pipeline(generate(dgp, 0, b), LassoConfig())
                eta, h = pipe.scores(S)
                meds.append(np.median(w_diag(
                    eta, h, boot_cfg.bandwidth_for(eta), boot_cfg.kernel)))
            return np.median(meds)

        assert median_w(0.3, 11) > median_w(0.0, 11)


class TestTruthStage:
    def test_studentizes_at_the_configured_bandwidth(self):
        # stage 1 must studentize at the bandwidth the bootstrap uses, not at
        # the plug-in (2.58 for this sample)
        dgp = DgpSpec("A", 10, 0.3, 100, RngSpec(5, "truth"))
        S = index_set_for("zeros", "A", 10)
        _, omega = build_sigma("A", 10)
        truth = omega.values[S.rows(), S.cols()]
        cfg = BootstrapConfig(rng=RngSpec(0), bandwidth=2.5)
        pipe = fit_pipeline(generate(dgp, 0, 3))
        _, stud = _truth_stats(pipe, S, truth, cfg)
        eta, h = pipe.scores(S)
        assert andrews_bandwidth(eta, KernelSpec()) != 2.5
        w = w_diag(eta, h, 2.5, KernelSpec())
        dev = np.abs(pipe.omega_on(S) - truth)
        assert stud == math.sqrt(dgp.n) * (dev / np.sqrt(w)).max()
