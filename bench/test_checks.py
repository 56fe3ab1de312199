"""Each benchmark check holds on a right answer and fails on a wrong one.

    python3 -m pytest bench -q
"""
import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from precboot import Dataset, center, cli, fit_all  # noqa: E402
from precboot.bootstrap import gaussian_mult_factor  # noqa: E402
from precboot.longrun import KernelSpec, w_diag  # noqa: E402
from precboot.nodewise import LassoConfig  # noqa: E402
from spans import Tracer  # noqa: E402

QS = KernelSpec()


def coverage_rows(kmb=(0.92, 0.95, 0.975), skmb=(0.99, 0.995, 1.0)):
    return [{"set": "zeros", "level": str(level), "kmb_mean": str(k),
             "kmb_sd": "0.05", "skmb_mean": str(s), "skmb_sd": "0.01"}
            for level, k, s in zip(checks.LEVELS, kmb, skmb)]


def block_rows(rejected_pairs, p_low=0.0, p_high=0.5):
    labels = [f"G{h}" for h in range(10)]
    return labels, [
        {"group1": a, "group2": b,
         "p_value": str(p_low if (a, b) in rejected_pairs else p_high),
         "rejected": "1" if (a, b) in rejected_pairs else "0"}
        for i, a in enumerate(labels) for b in labels[i + 1:]]


ADJ = {(f"G{h}", f"G{h + 1}") for h in range(9)}


class TestOutputChecks:
    def test_coverage_right(self):
        assert checks.check_coverage(coverage_rows(), 0, 20, 80) == []

    @pytest.mark.parametrize("rows, failures", [
        (coverage_rows(kmb=(0.92, 0.95, 1.2)), 0),      # outside [0, 1]
        (coverage_rows(skmb=(1.0, 0.99, 1.0)), 0),      # decreasing
        (coverage_rows(kmb=(0.5, 0.55, 0.6)), 0),       # far from nominal
        (coverage_rows(), 1),                           # a replicate failed
        (coverage_rows()[:2], 0),                       # a level missing
    ])
    def test_coverage_wrong(self, rows, failures):
        assert checks.check_coverage(rows, failures, 20, 80)

    def test_edges(self):
        support = {(1, 2), (2, 1), (2, 3), (3, 2)}
        right = {e: "-0.4" for e in support}
        assert checks.check_edges(right, support, 0.8) == []
        off = {**right, (1, 3): "0.1", (3, 1): "0.1"}
        assert checks.check_edges(off, support, 0.8)
        mirror = {**right, (1, 2): "-0.5"}
        assert checks.check_edges(mirror, support, 0.8)
        low = {(1, 2): "-0.4", (2, 1): "-0.4"}
        assert checks.check_edges(low, support, 0.8)

    def test_blocks_right(self):
        labels, rows = block_rows(ADJ)
        assert checks.check_blocks(rows, labels, ADJ, 0.1, 4) == []

    @pytest.mark.parametrize("change", ["short", "p_range", "missed",
                                        "false", "not_bh"])
    def test_blocks_wrong(self, change):
        labels, rows = block_rows(ADJ)
        if change == "short":
            rows = rows[:-1]
        elif change == "p_range":
            rows[1]["p_value"] = "1.5"
        elif change == "missed":
            labels, rows = block_rows(ADJ - {("G0", "G1")})
        elif change == "false":
            extra = {("G0", f"G{h}") for h in range(2, 7)}
            labels, rows = block_rows(ADJ | extra)
        else:
            rows[1]["rejected"] = "1"
        assert checks.check_blocks(rows, labels, ADJ, 0.1, 4)


@pytest.fixture(scope="module")
def sample():
    sigma, _ = workloads.structure_a(12)
    return workloads.ar1_sample(sigma, 80, np.random.default_rng(3))


class TestLayerChecks:
    def test_kkt(self, sample):
        data = center(Dataset(sample))
        fit = fit_all(data, LassoConfig())
        assert checks.check_kkt(data.values, fit.alpha, fit.lambdas) == []
        alpha = fit.alpha.copy()
        alpha[0, 1] += 1e-3
        assert checks.check_kkt(data.values, alpha, fit.lambdas)

    def test_w_diag(self, sample):
        eta = sample[:, :5] * sample[:, 5:10]
        h = np.linspace(0.5, 2.0, 5)
        w = w_diag(eta, h, 2.3, QS)
        assert checks.check_w_diag(eta, h, 2.3, QS.truncation_eps, w) == []
        assert checks.check_w_diag(eta, h, 2.3, QS.truncation_eps,
                                   w * (1.0 + 1e-6))

    def test_factor(self):
        factor = gaussian_mult_factor(60, 3.1, QS)
        assert checks.check_factor(factor, 3.1) == []
        assert checks.check_factor(factor * (1.0 + 1e-6), 3.1)
        assert checks.check_factor(factor, 3.2)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestWorkloadChecks:
    """The workloads read their output files into the checks above."""

    def test_desk(self, tmp_path):
        wl = workloads.DeskCoverage()
        wl.prepare(tmp_path, 1)
        rows = coverage_rows()
        header = list(rows[0])
        for failures, ok in ((0, True), (2, False)):
            write_csv(wl.out, header, [list(r.values()) for r in rows])
            Path(str(wl.out) + ".manifest.json").write_text(
                json.dumps({"failures": failures}))
            assert (wl.check() == []) is ok

    def test_mid(self, tmp_path):
        wl = workloads.MidRecover()
        wl.prepare(tmp_path, 1)
        edges = sorted(wl.support)
        write_csv(wl.out, ["j1", "j2", "omega"], [e + ("-0.4",) for e in edges])
        assert wl.check() == []
        write_csv(wl.out, ["j1", "j2", "omega"],
                  [e + ("-0.4",) for e in edges] + [(1, 5, "0.1"), (5, 1, "0.1")])
        assert wl.check()

    def test_sector(self, tmp_path):
        wl = workloads.SectorBlocks()
        wl.prepare(tmp_path, 1)
        for pairs, ok in ((wl.true_pairs, True), (set(), False)):
            _, rows = block_rows(pairs)
            write_csv(wl.out, list(rows[0]), [list(r.values()) for r in rows])
            assert (wl.check() == []) is ok


def test_tracer_counts_and_checks(tmp_path, sample):
    np.savetxt(tmp_path / "data.csv", sample, delimiter=",")
    argv = ["recover", "--data", str(tmp_path / "data.csv"), "--set",
            "offdiag", "--boot-M", "40", "--out", str(tmp_path / "e.csv")]
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        uninstall()
    assert tracer.run_checks() == []
    assert {kind for kind in tracer.samples} >= {"kkt", "w_diag", "factor"}
    m = {k: v["value"] for k, v in tracer.metrics([0]).items()}
    n, p = sample.shape
    r = p * (p - 1)
    assert m["nodewise.nodes"] == p
    assert m["precision.score_entries"] == n * r
    assert m["bootstrap.draws"] == m["core.rng_substreams"] == 40
    assert m["bootstrap.proj_gflop"] == pytest.approx(2 * n * r * 40 / 1e9)
    assert m["bootstrap.factor_calls"] == m["longrun.bandwidth_calls"] == 1
    assert 0 < m["pipeline.fit_s"] < m["cli.main_s"]
    assert cli.main.__module__ == "precboot.cli"
    assert not hasattr(cli.main, "__wrapped__")
