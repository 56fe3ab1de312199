"""End-to-end acceptance checks.

Each test prints a one-line summary so the run log reads as a checklist.
Criterion 3 is a long Monte Carlo run (hours) and only executes when
PRECBOOT_LONG=1 is set in the environment.
"""
import math
import os
import time

import numpy as np
import pytest

from precboot import Dataset, RngSpec, center, coverage_experiment, \
    estimate_omega, estimate_v, fit_all, multiplier_cov, recover_support
from precboot.inference import test_structure as structure_test
from precboot.bootstrap import BootstrapConfig, kmb_draws
from precboot.core import IndexSet, index_set_all_offdiag
from precboot.longrun import KernelSpec, andrews_bandwidth
from precboot.precision import h_diag_from_v
from precboot.nodewise import LassoConfig, NodewiseFit, default_lambdas
from precboot.pipeline import fit_pipeline
from precboot.simulate import DgpSpec, build_sigma, true_zero_set

from conftest import fit_node, kkt_violation, xi_hat

QS_EXACT = KernelSpec(kind="qs", truncation_eps=0.0)

RUN_LONG = os.environ.get("PRECBOOT_LONG") == "1"


def coverage_run(rho, seed):
    dgp = DgpSpec("A", 50, rho, 150, RngSpec(seed, "acc-dgp"))
    boot_cfg = BootstrapConfig(rng=RngSpec(seed, "acc-boot"), M=1000)
    return coverage_experiment(dgp, "zeros", replicates=500,
                               boot_cfg=boot_cfg, truth_reps=1000)


class TestCriterion1CoverageIid:
    # Known red on the studentized half: KMB coverage lands inside its band,
    # SKMB coverage is 0.9940 against an upper bound of 0.99.  Cause:
    # the scores centre e_{j1,t} e_{j2,t} at the bias-corrected v_hat, not at
    # the column mean.  When both Lasso coefficients of a pair are zero the
    # column mean is -2 v_hat = -2 (omega_hat - omega) / h exactly (median
    # ratio -2.000 at this cell), and w_diag does not demean, so w_hat
    # absorbs a term in (omega_hat - omega)^2.  The studentized statistic is
    # damped just where the deviation is largest: the correlation of w_hat
    # with the squared deviation is 0.34-0.39 as the code stands and
    # 0.13-0.17 with demeaned columns.  Demeaning alone does not mend this
    # test (SKMB 0.867 < 0.90, criterion 8 SKMB rejection 0.120 > 0.09), so
    # the fix waits on the paper's definition of the scores and of W.
    def test_desk_scale_coverage(self):
        t0 = time.perf_counter()
        rep = coverage_run(rho=0.0, seed=101)
        kmb = rep.mean["KMB"][0.95]
        skmb = rep.mean["SKMB"][0.95]
        ok = 0.93 <= kmb <= 1.00 and 0.90 <= skmb <= 0.99
        print(f"\n[criterion 1] KMB@0.95={kmb:.4f} SKMB@0.95={skmb:.4f} "
              f"failures={rep.failures} "
              f"runtime={time.perf_counter() - t0:.0f}s "
              f"{'PASS' if ok else 'FAIL'}")
        assert 0.93 <= kmb <= 1.00
        assert 0.90 <= skmb <= 0.99
        assert rep.failures == 0


class TestCriterion2CoverageDependent:
    def test_desk_scale_coverage_rho_03(self):
        t0 = time.perf_counter()
        rep = coverage_run(rho=0.3, seed=202)
        kmb = rep.mean["KMB"][0.95]
        ok = 0.92 <= kmb <= 1.00
        print(f"\n[criterion 2] KMB@0.95={kmb:.4f} failures={rep.failures} "
              f"runtime={time.perf_counter() - t0:.0f}s "
              f"{'PASS' if ok else 'FAIL'}")
        assert 0.92 <= kmb <= 1.00
        assert rep.failures == 0


@pytest.mark.skipif(not RUN_LONG, reason="long run; set PRECBOOT_LONG=1")
class TestCriterion3LongSpotCheck:
    # The SKMB half fails on the current program for the reason given under
    # criterion 1: a reduced run of this cell (300 truth reps x 100
    # replicates) measured SKMB@0.95 = 0.9964 against 0.956 +- 0.02, and
    # 0.9309 with demeaned score columns.
    def test_reference_cell(self):
        dgp = DgpSpec("A", 100, 0.0, 300, RngSpec(303, "acc-dgp"))
        boot_cfg = BootstrapConfig(rng=RngSpec(303, "acc-boot"), M=3000)
        rep = coverage_experiment(dgp, "zeros", replicates=1000,
                                  boot_cfg=boot_cfg, truth_reps=1000)
        kmb = rep.mean["KMB"][0.95]
        skmb = rep.mean["SKMB"][0.95]
        print(f"\n[criterion 3] KMB@0.95={kmb:.4f} SKMB@0.95={skmb:.4f}")
        assert kmb == pytest.approx(0.972, abs=0.02)
        assert skmb == pytest.approx(0.956, abs=0.02)


class TestCriterion4BootstrapCovarianceIdentity:
    def test_identity_on_random_instances(self):
        rng = np.random.default_rng(404)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(5, 13))
            r = int(rng.integers(2, 6))
            eta = rng.standard_normal((n, r))
            h = rng.uniform(0.5, 2.0, r)
            s_n = float(rng.uniform(1.0, 3.0))
            a = multiplier_cov(n, s_n, QS_EXACT)
            lhs = np.diag(h) @ (eta.T @ a @ eta / n) @ np.diag(h)
            rhs = np.diag(h) @ xi_hat(eta, s_n, QS_EXACT).values @ np.diag(h)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
        print(f"\n[criterion 4] max deviation={worst:.3e} "
              f"{'PASS' if worst <= 1e-12 else 'FAIL'}")
        assert worst <= 1e-12


class TestCriterion5BiasCorrectionOracle:
    def test_oracle_recovers_omega(self):
        rng = np.random.default_rng(505)
        omega = np.array([
            [1.0, 0.5, 0.0, 0.25],
            [0.5, 1.0, 0.4, 0.0],
            [0.0, 0.4, 1.0, 0.3],
            [0.25, 0.0, 0.3, 1.0],
        ])
        assert np.linalg.eigvalsh(omega).min() > 0
        sigma = np.linalg.inv(omega)
        n = 50000
        y = rng.multivariate_normal(np.zeros(4), sigma, size=n)
        alpha = -omega / np.diagonal(omega)[:, None]
        np.fill_diagonal(alpha, -1.0)

        def oracle_omega(rows):
            fit = NodewiseFit(alpha=alpha, lambdas=np.full(4, 0.1),
                              residuals=-(rows @ alpha.T),
                              iterations=np.ones(4, dtype=np.int64))
            return estimate_omega(estimate_v(fit)).values

        est = oracle_omega(y)
        batches = np.array_split(np.arange(n), 50)
        per_batch = np.array([oracle_omega(y[idx]) for idx in batches])
        se = per_batch.std(axis=0, ddof=1) / math.sqrt(len(batches))
        dev = np.abs(est - omega)
        ok = np.all(dev <= 4.0 * se + 1e-12)
        print(f"\n[criterion 5] max |dev|/se="
              f"{float((dev / (se + 1e-300)).max()):.2f} "
              f"{'PASS' if ok else 'FAIL'}")
        assert ok


class TestCriterion6KktCertificates:
    def test_hundred_random_fits(self):
        rng = np.random.default_rng(606)
        cfg = LassoConfig(tol=1e-10)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(20, 101))
            p = int(rng.integers(20, 101))
            mix = np.eye(p) + 0.1 * rng.standard_normal((p, p))
            data = center(Dataset(rng.standard_normal((n, p)) @ mix))
            lam = default_lambdas(data, cfg)
            j = int(rng.integers(1, p + 1))
            gamma, _ = fit_node(data, j, float(lam[j - 1]), cfg)
            worst = max(worst, kkt_violation(data, j, float(lam[j - 1]),
                                             gamma))
        print(f"\n[criterion 6] worst KKT violation={worst:.3e} "
              f"{'PASS' if worst <= 1e-8 else 'FAIL'}")
        assert worst <= 1e-8

    def test_closed_form_soft_threshold(self):
        from conftest import gram_dataset
        d = gram_dataset([[1.0, 0.5], [0.5, 1.0]])
        cfg = LassoConfig(tol=1e-13)
        gamma, _ = fit_node(d, 1, 0.2, cfg)
        assert abs(gamma[1] - 0.3) <= 1e-10
        gamma, _ = fit_node(d, 1, 0.6, cfg)
        assert gamma[1] == 0.0
        gamma, _ = fit_node(d, 2, 0.1, cfg)
        assert abs(gamma[0] - 0.4) <= 1e-10


class TestCriterion7SupportRecovery:
    # Exact recovery needs every non-zero entry to clear the simultaneous
    # threshold q/sqrt(n).  Under structure B the unit-diagonal rescaling of
    # 5x5 blocks with 0.5 off the diagonal puts every within-block |omega| at
    # 0.2.  The oracle 99% threshold (q99 of max |N(0, 1 or 1.04)| over the
    # 300 distinct pairs) is 0.208 at n = 400, above the signal, so each
    # within-block pair is selected with probability below 1/2 there and
    # exact recovery of all 30 pairs is about 0 for any correct procedure.
    # n = 1600 halves the threshold; the premise is asserted below.
    def test_exact_recovery_and_fwer(self):
        p, n, reps, alpha = 25, 1600, 200, 0.01
        S = index_set_all_offdiag(p)
        zero = true_zero_set("B", p)
        zero_keys = {tuple(pair) for pair in zero.pairs.tolist()}
        on_support = np.array([tuple(pair) not in zero_keys
                               for pair in S.pairs.tolist()])
        true_support = {tuple(pair) for pair in S.pairs[on_support].tolist()}
        _, omega = build_sigma("B", p)
        signal = float(np.abs(
            omega.values[S.rows(), S.cols()][on_support]).min())
        dgp_rng = RngSpec(707, "acc-dgp")
        boot_rng = RngSpec(707, "acc-boot")
        exact = 0
        false_pos = 0
        threshold_sum = 0.0
        from precboot.simulate import generate
        for rep in range(reps):
            dgp = DgpSpec("B", p, 0.0, n, dgp_rng)
            data = generate(dgp, rep)
            pipe = fit_pipeline(data)
            eta, h = pipe.scores(S)
            s_n = andrews_bandwidth(eta, KernelSpec())
            cfg = BootstrapConfig(rng=boot_rng.child(rep), M=500,
                                  bandwidth=s_n)
            (boot,) = kmb_draws(eta, h, cfg)
            selected = set(recover_support(pipe.omega_on(S), S, boot, alpha))
            exact += selected == true_support
            false_pos += bool(selected & zero_keys)
            threshold_sum += boot.quantile(1.0 - alpha) / math.sqrt(n)
        fwer = false_pos / reps
        threshold = threshold_sum / reps
        # the method promises FWER <= alpha; allow three binomial SEs
        cap = alpha + 3 * math.sqrt(alpha * (1 - alpha) / reps)
        ok = signal > threshold and exact / reps >= 0.80 and fwer <= cap
        print(f"\n[criterion 7] exact={exact / reps:.3f} FWER={fwer:.3f} "
              f"(cap {cap:.3f}) threshold={threshold:.3f} "
              f"min|omega|={signal:.3f} {'PASS' if ok else 'FAIL'}")
        assert signal > threshold
        assert exact / reps >= 0.80
        assert fwer <= cap


class TestCriterion8NullCalibration:
    def test_rejection_rate_under_null(self):
        p, n, reps, M, alpha = 20, 200, 500, 500, 0.05
        S = index_set_all_offdiag(p)
        rng_root = RngSpec(808, "acc-null")
        boot_rng = RngSpec(808, "acc-null-boot")
        rej_plain = rej_stud = any_fp = 0
        for rep in range(reps):
            y = rng_root.generator(rep).standard_normal((n, p))
            pipe = fit_pipeline(Dataset(y))
            eta, h = pipe.scores(S)
            s_n = andrews_bandwidth(eta, KernelSpec())
            cfg = BootstrapConfig(rng=boot_rng.child(rep), M=M,
                                  bandwidth=s_n)
            res_plain, res_stud = kmb_draws(eta, h, cfg, (False, True))
            omega_s = pipe.omega_on(S)
            c = np.zeros(S.r)
            out_p = structure_test(omega_s, c, res_plain, alpha)
            out_s = structure_test(omega_s, c, res_stud, alpha)
            rej_plain += out_p.reject
            rej_stud += out_s.reject
            # under the global null, any support-recovery selection is a
            # false positive; this reuses the same replicates for the FWER
            # module invariant
            any_fp += bool(recover_support(omega_s, S, res_plain, alpha))
        rate_p, rate_s = rej_plain / reps, rej_stud / reps
        fwer = any_fp / reps
        ok = 0.02 <= rate_p <= 0.09 and 0.02 <= rate_s <= 0.09 \
            and 0.01 <= fwer <= 0.10
        print(f"\n[criterion 8] KMB rej={rate_p:.3f} SKMB rej={rate_s:.3f} "
              f"FWER={fwer:.3f} {'PASS' if ok else 'FAIL'}")
        assert 0.02 <= rate_p <= 0.09
        assert 0.02 <= rate_s <= 0.09
        assert 0.01 <= fwer <= 0.10


class TestCriterion9Determinism:
    def test_cli_outputs_byte_identical_across_threads(self, tmp_path):
        from precboot.cli import main
        blobs = []
        for threads in (1, 8):
            out = tmp_path / f"cov-{threads}.csv"
            code = main(["simulate", "--structure", "A", "--p", "10", "--n",
                         "80", "--rho", "0.3", "--reps", "5", "--truth-reps",
                         "10", "--boot-M", "50", "--seed", "99", "--threads",
                         str(threads), "--out", str(out)])
            assert code == 0
            import json
            manifest = json.loads(
                (tmp_path / f"cov-{threads}.csv.manifest.json").read_text())
            # recorded per run by design: the thread count and output path
            del manifest["threads"], manifest["out"]
            blobs.append((out.read_bytes(), manifest))
        same_csv = blobs[0][0] == blobs[1][0]
        print(f"\n[criterion 9] byte-identical CSV across 1/8 threads: "
              f"{'PASS' if same_csv else 'FAIL'}")
        assert same_csv
        assert blobs[0][1] == blobs[1][1]
