import math
import sys

import numpy as np
import pytest

from precboot import RngSpec, bh_select, block_test_matrix, fit_pipeline, \
    recover_support
from precboot.inference import test_structure as structure_test
from precboot.bootstrap import BootstrapConfig, BootstrapResult
from precboot.core import IndexSet
from precboot.errors import InvalidPValue, ShapeError
from precboot.simulate import DgpSpec, generate


def result_from(stats, n, r=1, w=None):
    """A result of the given draws over r coordinates, studentized by w when
    it is given."""
    scale = np.ones(r) if w is None else np.sqrt(np.asarray(w, dtype=float))
    return BootstrapResult(stats=np.sort(np.asarray(stats, dtype=np.float64)),
                           bandwidth=1.0, n=n, scale=scale)


class TestTestStructure:
    def test_large_statistic_rejects(self):
        boot = result_from([1.0, 1.5, 2.0, 2.5], n=100)
        out = structure_test(np.array([0.5]), np.array([0.0]), boot,
                             alpha=0.05)
        assert out.statistic == pytest.approx(5.0)
        assert out.reject

    def test_exact_null_never_rejects(self):
        boot = result_from([0.0, 1.0, 2.0], n=50, r=2)
        omega = np.array([0.3, -0.2])
        out = structure_test(omega, omega.copy(), boot, alpha=0.1)
        assert out.statistic == 0.0 and not out.reject

    def test_p_value_counting(self):
        boot = result_from([1.0, 2.0, 3.0, 4.0], n=100)
        out = structure_test(np.array([0.25]), np.array([0.0]), boot,
                             alpha=0.5)
        assert out.statistic == pytest.approx(2.5)
        assert out.p_value == pytest.approx(0.6)  # (1 + 2) / (4 + 1)

    def test_studentized_statistic(self):
        boot = result_from([1.0, 2.0], n=100, w=[4.0])
        out = structure_test(np.array([0.4]), np.array([0.0]), boot,
                             alpha=0.5)
        assert out.statistic == pytest.approx(2.0)  # 10*0.4/sqrt(4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            structure_test(np.zeros(2), np.zeros(3),
                           result_from([1.0], n=10, r=2), alpha=0.05)

    def test_reject_iff_p_below_grid_level(self, rng):
        # with q = ceil(M(1-a))-th order stat: reject <=> p <= 1 - ceil(M(1-a))/M
        for _ in range(50):
            m = int(rng.integers(5, 40))
            alpha = float(rng.uniform(0.05, 0.5))
            boot = result_from(rng.standard_normal(m) ** 2, n=25, r=3)
            omega = rng.standard_normal(3) * 0.2
            out = structure_test(omega, np.zeros(3), boot, alpha=alpha)
            k = math.ceil(m * (1.0 - alpha))
            count_at_least = round(out.p_value * (m + 1)) - 1
            assert out.reject == (count_at_least <= m - k)

    def test_reject_iff_outside_region(self, rng):
        for _ in range(50):
            boot = result_from(rng.standard_normal(20) ** 2, n=30, r=4)
            omega = rng.standard_normal(4) * 0.3
            c = rng.standard_normal(4) * 0.3
            out = structure_test(omega, c, boot, alpha=0.1)
            half = boot.half_width(0.9)
            inside = np.all((c >= omega - half) & (c <= omega + half))
            assert out.reject == (not inside)


class TestRecoverSupport:
    def test_threshold_rule(self):
        S = IndexSet(np.array([[1, 2], [1, 3]]))
        boot = result_from([1.0] * 10, n=100, r=2)
        est = recover_support(np.array([0.5, 0.01]), S, boot, alpha=0.05)
        assert est == [(1, 2)]

    def test_huge_quantile_empty(self):
        S = IndexSet(np.array([[1, 2]]))
        boot = result_from([1e9], n=100)
        est = recover_support(np.array([0.5]), S, boot, alpha=0.05)
        assert est == []

    def test_zero_estimates_empty(self):
        S = IndexSet(np.array([[1, 2]]))
        boot = result_from([0.5], n=100)
        est = recover_support(np.zeros(1), S, boot, alpha=0.05)
        assert est == []

    def test_studentized_threshold(self):
        S = IndexSet(np.array([[1, 2], [2, 3]]))
        boot = result_from([1.0] * 4, n=100, w=[1.0, 100.0])
        est = recover_support(np.array([0.5, 0.5]), S, boot, alpha=0.05)
        assert est == [(1, 2)]  # the inflated scale blocks the second


class TestBhSelect:
    def test_step_up_example(self):
        assert bh_select([0.001, 0.02, 0.04, 0.9], 0.1) == [0, 1, 2]

    def test_all_ones_empty(self):
        assert bh_select([1.0, 1.0, 1.0], 0.1) == []

    def test_all_zeros_all_rejected(self):
        assert bh_select([0.0] * 5, 0.1) == [0, 1, 2, 3, 4]

    def test_empty_input(self):
        assert bh_select([], 0.1) == []

    def test_invalid_p_values(self):
        with pytest.raises(InvalidPValue):
            bh_select([0.5, 1.2], 0.1)

    def test_matches_brute_force(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 15))
            p = rng.uniform(0, 1, k)
            alpha = float(rng.uniform(0.01, 0.3))
            order = np.argsort(p, kind="stable")
            v = 0
            for j in range(1, k + 1):
                if p[order[j - 1]] <= alpha * j / k:
                    v = j
            expected = sorted(order[:v].tolist())
            assert bh_select(p, alpha) == expected

    def test_appending_null_hypothesis_recomputes_k(self):
        base = [0.01, 0.02, 0.03]
        with_extra = bh_select(base + [1.0], 0.1)
        assert 3 not in with_extra
        # the rule is re-evaluated with K = 4 thresholds
        assert with_extra == bh_select(base + [1.0], 0.1)


def block_fit(seed, p=10, n=300):
    dgp = DgpSpec(structure="B", p=p, rho=0.0, n=n, rng=RngSpec(seed, "blk"))
    return fit_pipeline(generate(dgp))


class TestBlockTestMatrix:
    def test_m_equal_one_gives_degenerate_p(self):
        pipe = block_fit(1)
        groups = {"g1": [1, 2, 3, 4, 5], "g2": [6, 7, 8, 9, 10]}
        cfg = BootstrapConfig(rng=RngSpec(2, "b"), M=1, bandwidth=1.0)
        result = block_test_matrix(pipe, groups, cfg, alpha=0.1)
        assert len(result.tests) == 1
        assert result.tests[0].p_value in (0.5, 1.0)

    def test_single_group_no_cross_pairs(self):
        pipe = block_fit(2)
        cfg = BootstrapConfig(rng=RngSpec(2, "b"), M=5, bandwidth=1.0)
        result = block_test_matrix(pipe, {"g": [1, 2, 3]}, cfg)
        assert result.tests == [] and result.adjacency == []

    def test_within_mode_adds_pairs(self):
        pipe = block_fit(3)
        groups = {"g1": [1, 2], "g2": [6, 7]}
        cfg = BootstrapConfig(rng=RngSpec(2, "b"), M=5, bandwidth=1.0)
        result = block_test_matrix(pipe, groups, cfg, include_within=True)
        labels = {(t.group1, t.group2) for t in result.tests}
        assert labels == {("g1", "g2"), ("g1", "g1"), ("g2", "g2")}

    def test_threads_give_identical_results(self):
        # more workers than cores and a short switch interval, so the pairs
        # interleave; each pair's own RNG child makes the result exact
        pipe = block_fit(5)
        groups = {f"g{k}": [2 * k + 1, 2 * k + 2] for k in range(5)}
        cfg = BootstrapConfig(rng=RngSpec(2, "b"), M=200, bandwidth=1.5)
        serial = block_test_matrix(pipe, groups, cfg, include_within=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = block_test_matrix(pipe, groups, cfg, include_within=True,
                                       threads=6)
        finally:
            sys.setswitchinterval(interval)
        assert len(serial.tests) == 15
        assert pooled == serial

    def test_csv_format(self, tmp_path):
        pipe = block_fit(4)
        groups = {"g1": [1, 2, 3, 4, 5], "g2": [6, 7, 8, 9, 10]}
        cfg = BootstrapConfig(rng=RngSpec(2, "b"), M=10, bandwidth=1.0)
        result = block_test_matrix(pipe, groups, cfg)
        out = tmp_path / "edges.csv"
        result.write_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "group1,group2,p_value,rejected"
        assert len(lines) == 2

    def test_block_diagonal_truth_recovered(self):
        # two independent 5-blocks: within-block pairs should be rejected and
        # the cross pair retained in >= 90% of replicates
        groups = {"g1": [1, 2, 3, 4, 5], "g2": [6, 7, 8, 9, 10]}
        hits = 0
        reps = 100
        for rep in range(reps):
            pipe = block_fit(100 + rep, p=10, n=400)
            cfg = BootstrapConfig(rng=RngSpec(rep, "bt"), M=200)
            result = block_test_matrix(pipe, groups, cfg, alpha=0.1,
                                       include_within=True)
            verdict = {(t.group1, t.group2): t.rejected for t in result.tests}
            ok = (verdict[("g1", "g1")] and verdict[("g2", "g2")]
                  and not verdict[("g1", "g2")])
            hits += ok
        assert hits >= 0.9 * reps
