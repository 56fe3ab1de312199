import csv
import json
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from precboot import RngSpec, fit_pipeline
from precboot.cli import UserError, _load_dataset, build_parser, \
    ingest_returns, main, parse_index_set
from precboot.core import Dataset
from precboot.errors import InvalidPrice, MissingValue
from precboot.simulate import DgpSpec, generate


def write_data_csv(path, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in values:
            writer.writerow([f"{x:.17g}" for x in row])


@pytest.fixture
def data_csv(tmp_path):
    dgp = DgpSpec("A", 8, 0.0, 80, RngSpec(13, "cli"))
    values = generate(dgp).values
    path = tmp_path / "data.csv"
    write_data_csv(path, values)
    return path, values


class TestIngestReturns:
    def write_prices(self, tmp_path, header, rows):
        path = tmp_path / "prices.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return path

    def test_log_return_value(self, tmp_path):
        path = self.write_prices(
            tmp_path, ["AAA", "BBB"],
            [[100, 50], [110, 55], [100, 60], [90, 66], [95, 70]])
        data, _, syms = ingest_returns(str(path), standardize=False)
        assert syms == ["AAA", "BBB"]
        assert data.values[0, 0] == pytest.approx(math.log(1.1), abs=1e-12)
        assert data.n == 4

    def test_standardized_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        prices = np.exp(np.cumsum(rng.standard_normal((30, 3)) * 0.01, axis=0))
        path = self.write_prices(tmp_path, ["A", "B", "C"], prices.tolist())
        data, _, _ = ingest_returns(str(path))
        np.testing.assert_allclose(data.values.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(data.values.std(axis=0, ddof=1), 1.0,
                                   rtol=1e-12)

    def test_constant_column_dropped_with_warning(self, tmp_path):
        e = math.e
        path = self.write_prices(
            tmp_path, ["CONST", "X", "Y"],
            [[1, 1, 2], [e, 2, 1], [e * e, 1, 2], [e ** 3, 2, 1],
             [e ** 4, 3, 3]])
        with pytest.warns(UserWarning, match="constant"):
            data, _, syms = ingest_returns(str(path))
        assert syms == ["X", "Y"]
        assert data.p == 2

    def test_non_positive_price(self, tmp_path):
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], [0, 2], [2, 3], [3, 4]])
        with pytest.raises(InvalidPrice):
            ingest_returns(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_price_names_row_and_symbol(self, tmp_path, cell):
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], [2, 2], [3, cell], [3, 4]])
        with pytest.raises(InvalidPrice, match="price at row 4, symbol B$"):
            ingest_returns(str(path))

    def test_first_bad_cell_reported(self, tmp_path):
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], [2, "nan"], [0, 2], [3, 4]])
        with pytest.raises(InvalidPrice,
                           match="^non-finite price at row 3, symbol B$"):
            ingest_returns(str(path))
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], [-2, 2], [1, "x"], [3, 4]])
        with pytest.raises(InvalidPrice,
                           match="^non-positive price at row 3, symbol A$"):
            ingest_returns(str(path))

    def test_one_cell_row_is_not_broadcast(self, tmp_path):
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], [2], [2, 3], [3, 4]])
        with pytest.raises(MissingValue,
                           match="^row 3 has 1 cells, expected 2$"):
            ingest_returns(str(path))

    def test_missing_cell(self, tmp_path):
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], ["", 2], [2, 3], [3, 4]])
        with pytest.raises(MissingValue):
            ingest_returns(str(path))

    def test_na_symbols_dropped(self, tmp_path):
        rng = np.random.default_rng(1)
        prices = np.exp(np.cumsum(rng.standard_normal((20, 3)) * 0.02, axis=0))
        path = self.write_prices(tmp_path, ["A", "B", "C"], prices.tolist())
        gmap = tmp_path / "groups.csv"
        gmap.write_text("A,tech\nB,NA\nC,tech\n")
        with pytest.warns(UserWarning, match="without a group"):
            data, groups, syms = ingest_returns(str(path),
                                                group_map=str(gmap))
        assert syms == ["A", "C"]
        assert groups == {"tech": [1, 2]}


class TestIndexSetLanguage:
    def test_offdiag(self):
        assert parse_index_set(["offdiag"], 4).r == 12

    def test_band_outside(self):
        s = parse_index_set(["band-outside", "2"], 5)
        for j1, j2 in s.pairs.tolist():
            assert abs(j1 - j2) > 2

    def test_pairs_file(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("1,3\n2,4\n")
        s = parse_index_set(["pairs", str(path)], 5)
        assert s.pairs.tolist() == [[1, 3], [2, 4]]

    @pytest.mark.parametrize("row", ["1,9", "0,2", "2,-1"])
    def test_pairs_outside_one_to_p(self, tmp_path, row):
        from precboot.cli import UserError
        path = tmp_path / "pairs.csv"
        path.write_text(f"1,3\n{row}\n")
        with pytest.raises(UserError) as caught:
            parse_index_set(["pairs", str(path)], 6)
        assert str(caught.value) == f"{path}: indices must be in 1..6"

    def test_band_outside_negative(self):
        from precboot.cli import UserError
        with pytest.raises(UserError, match="K >= 0, got -1"):
            parse_index_set(["band-outside", "-1"], 6)
        assert parse_index_set(["band-outside", "0"], 3).r == 6

    def test_zeros_of(self, tmp_path):
        mat = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.2], [0.5, 0.2, 1.0]])
        path = tmp_path / "mat.csv"
        write_data_csv(path, mat)
        s = parse_index_set(["zeros-of", str(path)], 3)
        assert s.pairs.tolist() == [[1, 2], [2, 1]]

    def test_block_needs_groups(self):
        from precboot.cli import UserError
        with pytest.raises(UserError):
            parse_index_set(["block", "a", "b"], 5, groups=None)

    def test_block_with_groups(self):
        s = parse_index_set(["block", "a", "b"], 5,
                            groups={"a": [1, 2], "b": [5]})
        assert s.pairs.tolist() == [[1, 5], [2, 5]]

    def test_unknown_form(self):
        from precboot.cli import UserError
        with pytest.raises(UserError):
            parse_index_set(["everything"], 5)


def run_cli(args):
    return main([str(a) for a in args])


class TestSimulateCommand:
    def test_writes_twelve_cells_and_manifest(self, tmp_path):
        out = tmp_path / "cov.csv"
        code = run_cli(["simulate", "--structure", "A", "--p", "6", "--n",
                        "50", "--rho", "0", "--reps", "2", "--truth-reps",
                        "4", "--boot-M", "10", "--seed", "3", "--out", out])
        assert code == 0
        assert out.read_text().splitlines()[0] == (
            "structure,rho,p,n,set,level,kmb_mean,kmb_sd,skmb_mean,skmb_sd")
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 6  # 3 levels x 2 index sets
        assert {r["set"] for r in rows} == {"zeros", "offdiag"}
        manifest = json.loads((tmp_path / "cov.csv.manifest.json").read_text())
        assert manifest["seed"] == 3 and manifest["boot_M"] == 10
        # simulate runs both KMB and SKMB at the fixed levels
        assert "studentized" not in manifest and "alpha" not in manifest

    def test_byte_identical_across_thread_counts(self, tmp_path):
        outs = []
        for threads, name in ((1, "t1.csv"), (8, "t8.csv")):
            out = tmp_path / name
            assert run_cli(["simulate", "--structure", "B", "--p", "5",
                            "--n", "60", "--rho", "0.3", "--reps", "3",
                            "--truth-reps", "5", "--boot-M", "16", "--seed",
                            "11", "--threads", threads, "--set", "offdiag",
                            "--out", out]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-2", "seed must be >= 0, got -2"),
        ("--threads", "0", "--threads must be >= 1, got 0"),
    ], ids=["negative-seed", "zero-threads"])
    def test_bad_seed_or_threads_exits_1_before_running(
            self, tmp_path, monkeypatch, capsys, flag, value, message):
        def coverage_experiment(*args, **kwargs):
            raise AssertionError("coverage_experiment called")
        monkeypatch.setattr("precboot.cli.coverage_experiment",
                            coverage_experiment)
        assert run_cli(["simulate", "--structure", "A", "--p", "5", "--n",
                        "40", "--reps", "2", flag, value,
                        "--out", tmp_path / "cov.csv"]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("out", [
        "a-dir", "no-dir/cov.csv", "m.csv",
    ], ids=["out-is-a-directory", "no-folder", "manifest-is-a-directory"])
    def test_unwritable_out_exits_1_before_running(
            self, tmp_path, monkeypatch, capsys, out):
        def coverage_experiment(*args, **kwargs):
            raise AssertionError("coverage_experiment called")
        monkeypatch.setattr("precboot.cli.coverage_experiment",
                            coverage_experiment)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a-dir").mkdir()
        (tmp_path / "m.csv.manifest.json").mkdir()
        assert run_cli(["simulate", "--structure", "A", "--p", "5", "--n",
                        "40", "--reps", "2", "--out", out]) == 1
        assert "directory" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.rglob("*")) == \
            ["a-dir", "m.csv.manifest.json"]

    @pytest.mark.parametrize("n, bandwidth, limit", [
        ("3", "auto", "n >= 8 for the plug-in bandwidth"),
        ("0", "auto", "n >= 8 for the plug-in bandwidth"),
        ("6", "auto", "n >= 8 for the plug-in bandwidth"),
        ("3", "2", "n >= 4"),
    ], ids=["n3-auto", "n0-auto", "n6-auto", "n3-fixed"])
    def test_unfittable_n_exits_1_before_drawing(
            self, tmp_path, monkeypatch, capsys, n, bandwidth, limit):
        # no replicate can be fitted below these limits: a Dataset needs
        # n >= 4 and the plug-in bandwidth n >= 8
        def draw_block(*args, **kwargs):
            raise AssertionError("a replicate was drawn")
        monkeypatch.setattr("precboot.simulate._draw_block", draw_block)
        assert run_cli(["simulate", "--structure", "A", "--p", "5", "--n", n,
                        "--reps", "2", "--truth-reps", "4", "--boot-M", "10",
                        "--bandwidth", bandwidth,
                        "--out", tmp_path / "cov.csv"]) == 1
        err = capsys.readouterr().err
        assert f"n = {n}: need {limit}" in err
        assert list(tmp_path.iterdir()) == []

    def test_n_below_plug_in_limit_runs_at_fixed_bandwidth(self, tmp_path):
        assert run_cli(["simulate", "--structure", "A", "--p", "5", "--n",
                        "6", "--reps", "2", "--truth-reps", "4", "--boot-M",
                        "10", "--bandwidth", "2",
                        "--out", tmp_path / "cov.csv"]) == 0
        assert len(list(csv.DictReader(open(tmp_path / "cov.csv")))) == 6


class TestEstimateCommand:
    def test_round_trip_bitwise(self, tmp_path, data_csv):
        path, values = data_csv
        out = tmp_path / "omega.csv"
        assert run_cli(["estimate", "--data", path, "--out", out]) == 0
        read_back = np.array([[float(c) for c in row]
                              for row in csv.reader(open(out))])
        expected = fit_pipeline(Dataset(values)).omega_hat.values
        assert np.array_equal(read_back, expected)

    def test_intervals_written(self, tmp_path, data_csv):
        path, _ = data_csv
        out = tmp_path / "omega.csv"
        ints = tmp_path / "ints.csv"
        assert run_cli(["estimate", "--data", path, "--out", out, "--set",
                        "band-outside", "1", "--boot-M", "50",
                        "--intervals-out", ints, "--seed", "2"]) == 0
        rows = list(csv.DictReader(open(ints)))
        assert rows and set(rows[0]) == {"j1", "j2", "omega", "lo", "hi"}
        for row in rows:
            assert float(row["lo"]) <= float(row["omega"]) <= float(row["hi"])

    def test_intervals_default_next_to_out(self, tmp_path, data_csv,
                                           monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        out = tmp_path / "omega.csv"
        assert run_cli(["estimate", "--data", data_csv[0], "--out", out,
                        "--set", "offdiag", "--boot-M", "20"]) == 0
        assert list(cwd.iterdir()) == []
        ints = tmp_path / "omega.csv.intervals.csv"
        assert len(ints.read_text().splitlines()) == 1 + 8 * 7
        manifest = json.loads((tmp_path / "omega.csv.manifest.json")
                              .read_text())
        assert manifest["intervals_out"] == str(ints)

    def test_failed_write_leaves_folder_unchanged(self, tmp_path, data_csv,
                                                  monkeypatch, capsys):
        # the manifest is written last; when its write fails (a full disk,
        # say), neither omega.csv nor the intervals written before it may
        # appear or replace an earlier run's files, and no temporary is left
        out = tmp_path / "omega.csv"
        out.write_text("an earlier run\n")
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}

        def dump(*args, **kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr("precboot.cli.json.dump", dump)
        assert run_cli(["estimate", "--data", data_csv[0], "--out", out,
                        "--set", "offdiag", "--boot-M", "20"]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


class TestTestCommand:
    def test_zero_null(self, tmp_path, data_csv):
        path, _ = data_csv
        out = tmp_path / "test.json"
        assert run_cli(["test", "--data", path, "--set", "offdiag", "--zero",
                        "--boot-M", "40", "--seed", "5", "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"statistic", "quantile", "p_value", "reject",
                                "alpha"}
        assert payload["alpha"] == 0.05
        assert 0.0 <= payload["p_value"] <= 1.0

    def test_c_file(self, tmp_path, data_csv):
        path, _ = data_csv
        cfile = tmp_path / "c.csv"
        cfile.write_text("0\n" * (8 * 7))
        out = tmp_path / "test.json"
        assert run_cli(["test", "--data", path, "--set", "offdiag",
                        "--c-file", cfile, "--boot-M", "40", "--seed", "5",
                        "--out", out]) == 0

    def test_missing_target_is_user_error(self, tmp_path, data_csv):
        path, _ = data_csv
        assert run_cli(["test", "--data", path, "--set", "offdiag",
                        "--boot-M", "10", "--out", tmp_path / "x.json"]) == 1


class TestRecoverCommand:
    def test_edge_list(self, tmp_path, data_csv):
        path, _ = data_csv
        out = tmp_path / "edges.csv"
        assert run_cli(["recover", "--data", path, "--set", "offdiag",
                        "--boot-M", "50", "--alpha", "0.05", "--seed", "4",
                        "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        for row in rows:
            assert int(row["j1"]) != int(row["j2"])
        manifest = json.loads((tmp_path / "edges.csv.manifest.json")
                              .read_text())
        assert manifest["studentized"] is False and manifest["alpha"] == 0.05


class TestInputsCheckedBeforeFit:
    """Every command checks its output paths, set, groups, target,
    bootstrap settings and n before it fits, so a bad input costs no fit and
    writes no file."""

    @pytest.fixture(autouse=True)
    def no_fit(self, monkeypatch):
        def fit_pipeline(*args, **kwargs):
            raise AssertionError("fit_pipeline called")
        monkeypatch.setattr("precboot.cli.fit_pipeline", fit_pipeline)

    @pytest.mark.parametrize("argv", [
        ["blocks"],
        ["recover", "--set", "everything"],
        ["recover", "--set", "offdiag", "--bandwidth", "-1"],
        ["test", "--set", "offdiag"],
        ["test", "--set", "offdiag", "--zero", "--c-file", "c.csv"],
        ["test", "--set", "offdiag", "--c-file", "c.csv"],
        ["test", "--set", "offdiag", "--c-file", "c-nan.csv"],
        ["test", "--set", "offdiag", "--c-file", "c-inf.csv"],
        ["estimate", "--set", "everything"],
        ["estimate", "--bandwidth", "0"],
        ["recover", "--set", "pairs", "pairs.csv"],
        ["recover", "--set", "band-outside", "-1"],
        ["recover", "--set", "offdiag", "--lambda-scale", "-1"],
        ["estimate", "--lambda-scale", "nan"],
        ["recover", "--set", "offdiag", "--seed", "-1"],
        ["recover", "--set", "offdiag", "--threads", "-3"],
        ["estimate", "--threads", "0"],
        # n = 6 (7 prices) is below the plug-in bandwidth's 8
        ["estimate", "--set", "offdiag", "--data", "short.csv"],
        ["test", "--set", "offdiag", "--zero", "--data", "short.csv"],
        ["recover", "--set", "offdiag", "--data", "short.csv"],
        ["blocks", "--prices", "short-prices.csv", "--group-map",
         "groups.csv"],
        ["blocks", "--prices", "prices.csv", "--group-map", "one-group.csv"],
        # output paths: a directory, or in a folder that does not exist
        ["estimate", "--set", "offdiag", "--intervals-out", "a-dir"],
        ["estimate", "--set", "offdiag", "--intervals-out", "no-dir/i.csv"],
        ["estimate", "--out", "no-dir/omega.csv"],
        ["recover", "--set", "offdiag", "--out", "a-dir"],
        ["test", "--set", "offdiag", "--zero", "--out", "no-dir/t.json"],
        ["blocks", "--prices", "prices.csv", "--group-map", "groups.csv",
         "--out", "m.csv"],
    ], ids=["blocks-no-group-map", "recover-unknown-set",
            "recover-bad-bandwidth", "test-no-target", "test-both-targets",
            "test-short-c-file", "test-nan-c-file", "test-inf-c-file",
            "estimate-unknown-set",
            "estimate-bad-bandwidth", "recover-pair-above-p",
            "recover-negative-band", "recover-negative-lambda-scale",
            "estimate-nan-lambda-scale", "recover-negative-seed",
            "recover-negative-threads", "estimate-zero-threads",
            "estimate-n6-auto", "test-n6-auto", "recover-n6-auto",
            "blocks-n6-auto", "blocks-one-group",
            "estimate-intervals-out-is-a-directory",
            "estimate-intervals-out-no-folder", "estimate-out-no-folder",
            "recover-out-is-a-directory", "test-out-no-folder",
            "blocks-manifest-is-a-directory"])
    def test_exits_1_without_fitting(self, tmp_path, data_csv, capsys,
                                     monkeypatch, argv):
        path, values = data_csv
        monkeypatch.chdir(tmp_path)  # relative output paths land here
        (tmp_path / "a-dir").mkdir()
        (tmp_path / "m.csv.manifest.json").mkdir()
        write_data_csv(tmp_path / "short.csv", values[:6])
        prices, _ = two_group_prices(tmp_path)
        (tmp_path / "short-prices.csv").write_text(
            "\n".join(prices.read_text().splitlines()[:8]) + "\n")
        (tmp_path / "one-group.csv").write_text("A,g\nB,g\nC,g\nD,g\n")
        (tmp_path / "c.csv").write_text("0\n")  # 1 value, |offdiag| = 56
        for bad in ("nan", "inf"):  # 56 values, one of them not finite
            (tmp_path / f"c-{bad}.csv").write_text("0\n" * 20 + f"{bad}\n"
                                                   + "0\n" * 35)
        (tmp_path / "pairs.csv").write_text("1,2\n1,9\n")  # p = 8
        inputs = sorted(f.name for f in tmp_path.iterdir())
        before = sorted(tmp_path.rglob("*"))
        argv = [tmp_path / a if a in inputs else a for a in argv]
        out = [] if "--out" in argv else ["--out", tmp_path / "out.csv"]
        # a --data in argv comes later and overrides this one
        assert run_cli([argv[0], "--data", path, *argv[1:], "--boot-M", "10",
                        *out]) == 1
        assert sorted(tmp_path.rglob("*")) == before
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if any("short" in str(a) for a in argv):
            assert "at n = 6: need n >= 8 for the plug-in bandwidth" in err
        if "--out" in argv or "--intervals-out" in argv:
            assert "directory" in err

    @pytest.mark.parametrize("argv, flag", [
        (["estimate", "--set", "offdiag", "--alpha", "1.5"], "--alpha"),
        (["test", "--set", "offdiag", "--zero", "--alpha", "0"], "--alpha"),
        (["recover", "--set", "offdiag", "--alpha", "0"], "--alpha"),
        (["blocks", "--fdr", "1"], "--fdr"),
    ], ids=["estimate", "test", "recover", "blocks"])
    def test_level_outside_unit_interval(self, tmp_path, data_csv, capsys,
                                         argv, flag):
        if argv[0] == "blocks":
            prices, gmap = two_group_prices(tmp_path)
            source = ["--prices", prices, "--group-map", gmap]
        else:
            source = ["--data", data_csv[0]]
        before = sorted(f.name for f in tmp_path.iterdir())
        assert run_cli(argv + source + ["--boot-M", "10",
                                        "--out", tmp_path / "out.csv"]) == 1
        assert f"{flag} must be in (0, 1)" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == before


def two_group_prices(tmp_path):
    """A 60-day price CSV of four symbols and a map of them to two groups."""
    rng = np.random.default_rng(8)
    prices = np.exp(np.cumsum(rng.standard_normal((60, 4)) * 0.02, axis=0))
    path = tmp_path / "prices.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["A", "B", "C", "D"])
        writer.writerows(prices.tolist())
    gmap = tmp_path / "groups.csv"
    gmap.write_text("A,g1\nB,g1\nC,g2\nD,g2\n")
    return path, gmap


class TestBlocksCommand:
    def test_adjacency_csv(self, tmp_path):
        path, gmap = two_group_prices(tmp_path)
        out = tmp_path / "adj.csv"
        assert run_cli(["blocks", "--prices", path, "--group-map", gmap,
                        "--fdr", "0.1", "--boot-M", "20", "--seed", "6",
                        "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "group1,group2,p_value,rejected"
        assert len(lines) == 2  # one cross pair

    def test_manifest_records_the_studentized_run(self, tmp_path):
        # every block pair gets the studentized bootstrap; the level is --fdr
        path, gmap = two_group_prices(tmp_path)
        out = tmp_path / "adj.csv"
        assert run_cli(["blocks", "--prices", path, "--group-map", gmap,
                        "--boot-M", "20", "--out", out]) == 0
        manifest = json.loads((tmp_path / "adj.csv.manifest.json")
                              .read_text())
        assert manifest["studentized"] is True and manifest["fdr"] == 0.1
        assert "alpha" not in manifest

    def test_needs_group_map(self, tmp_path, data_csv, capsys):
        path, _ = data_csv
        out = tmp_path / "adj.csv"
        assert run_cli(["blocks", "--data", path, "--boot-M", "10",
                        "--out", out]) == 1
        assert capsys.readouterr().err == \
            "error: blocks needs --group-map labels\n"
        assert not out.exists()

    def test_byte_identical_across_thread_counts(self, tmp_path):
        rng = np.random.default_rng(9)
        symbols = [f"S{k}" for k in range(8)]
        prices = np.exp(np.cumsum(rng.standard_normal((80, 8)) * 0.02, axis=0))
        path = tmp_path / "prices.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(symbols)
            writer.writerows(prices.tolist())
        gmap = tmp_path / "groups.csv"
        gmap.write_text("".join(f"{s},g{k % 4}\n"
                                for k, s in enumerate(symbols)))
        outs = []
        for threads in (1, 2):
            out = tmp_path / f"adj{threads}.csv"
            assert run_cli(["blocks", "--prices", path, "--group-map", gmap,
                            "--fdr", "0.1", "--boot-M", "300", "--seed", "6",
                            "--within", "--threads", threads,
                            "--out", out]) == 0
            manifest = json.loads(
                (tmp_path / f"adj{threads}.csv.manifest.json").read_text())
            assert manifest.pop("threads") == threads
            assert manifest.pop("out") == str(out)
            outs.append((out.read_bytes(), manifest))
        assert len(outs[0][0].splitlines()) == 1 + 6 + 4  # cross + within
        assert outs[0] == outs[1]


class TestManifest:
    """A manifest is the parsed command plus what the run found: every
    parsed argument appears in it with its parsed value, so no finding
    overwrites an argument."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--structure", "A", "--p", "5", "--n", "40", "--reps",
         "2", "--truth-reps", "4", "--set", "zeros", "--out", "cov.csv"],
        # an explicit --intervals-out: its default is filled in from --out
        ["estimate", "--data", "data.csv", "--set", "band-outside", "1",
         "--studentized", "--intervals-out", "ints.csv", "--out", "o.csv"],
        ["test", "--data", "data.csv", "--set", "offdiag", "--zero",
         "--alpha", "0.1", "--out", "t.json"],
        ["recover", "--data", "data.csv", "--set", "offdiag", "--kernel",
         "bartlett", "--lambda-scale", "0.7", "--out", "edges.csv"],
        ["blocks", "--prices", "prices.csv", "--group-map", "groups.csv",
         "--within", "--fdr", "0.2", "--out", "adj.csv"],
    ], ids=["simulate", "estimate", "test", "recover", "blocks"])
    def test_every_parsed_argument_recorded(self, tmp_path, data_csv,
                                            monkeypatch, capsys, argv):
        two_group_prices(tmp_path)
        monkeypatch.chdir(tmp_path)
        argv = argv + ["--boot-M", "10", "--seed", "3"]
        assert main(argv) == 0
        parsed = vars(build_parser().parse_args(argv))
        out = parsed["out"]
        manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
        assert {k: manifest.get(k, "<missing>") for k in parsed} == parsed
        assert manifest["tool"] == "precboot"


class TestExitCodes:
    @pytest.mark.parametrize("command,flag", [
        ("simulate", ["--alpha", "0.1"]), ("simulate", ["--studentized"]),
        ("blocks", ["--alpha", "0.1"]), ("blocks", ["--studentized"])])
    def test_level_flags_only_where_read(self, tmp_path, command, flag):
        # simulate runs both bootstraps at fixed levels and blocks always
        # studentizes at level --fdr, so neither takes these flags
        path, gmap = two_group_prices(tmp_path)
        args = (["--structure", "A", "--p", "6", "--n", "50", "--reps", "2",
                 "--truth-reps", "4"]
                if command == "simulate"
                else ["--prices", path, "--group-map", gmap])
        out = tmp_path / "out.csv"
        assert run_cli([command, *args, "--boot-M", "10", "--out", out,
                        *flag]) == 1
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        assert run_cli(["estimate", "--data", tmp_path / "nope.csv",
                        "--out", tmp_path / "o.csv"]) == 1

    def test_output_path_is_a_directory(self, tmp_path, data_csv, capsys):
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(["recover", "--data", data_csv[0], "--set", "offdiag",
                        "--boot-M", "10", "--out", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert sorted(tmp_path.rglob("*")) == before
        assert not Path(str(tmp_path) + ".manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["estimate"],
        ["estimate", "--set", "offdiag", "--bandwidth", "2"],
        ["test", "--set", "offdiag", "--zero", "--bandwidth", "2"],
        ["recover", "--set", "offdiag", "--bandwidth", "2"],
        ["blocks", "--bandwidth", "2"],
    ], ids=["estimate-no-set", "estimate", "test", "recover", "blocks"])
    def test_n_below_plug_in_limit_runs_without_plug_in(self, tmp_path,
                                                        data_csv, argv):
        # n = 6: no draws, or draws at a fixed bandwidth, need only n >= 4
        if argv[0] == "blocks":
            prices, gmap = two_group_prices(tmp_path)
            prices.write_text(
                "\n".join(prices.read_text().splitlines()[:8]) + "\n")
            source = ["--prices", prices, "--group-map", gmap]
        else:
            write_data_csv(tmp_path / "short.csv", data_csv[1][:6])
            source = ["--data", tmp_path / "short.csv"]
        out = tmp_path / "out"
        assert run_cli(argv + source + ["--boot-M", "10", "--out", out]) == 0
        assert out.exists()

    def test_bad_flag(self, tmp_path):
        assert run_cli(["simulate", "--structure", "Z", "--p", "5", "--n",
                        "50", "--reps", "1", "--out", tmp_path / "o"]) == 1

    def test_bad_bandwidth(self, tmp_path, data_csv):
        path, _ = data_csv
        assert run_cli(["estimate", "--data", path, "--bandwidth", "-2",
                        "--set", "offdiag", "--out", tmp_path / "o.csv"]) == 1

    @pytest.mark.parametrize("bandwidth", ["nan", "inf", "0", "-2"])
    def test_non_finite_or_non_positive_bandwidth(self, tmp_path, data_csv,
                                                  capsys, bandwidth):
        path, _ = data_csv
        out = tmp_path / "t.json"
        assert run_cli(["test", "--data", path, "--set", "offdiag", "--zero",
                        "--bandwidth", bandwidth, "--boot-M", "20",
                        "--out", out]) == 1
        assert "bandwidth" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bandwidth", ["nan", "inf", "0", "-2"])
    def test_estimate_without_set_rejects_bad_bandwidth(self, tmp_path,
                                                        data_csv, capsys,
                                                        bandwidth):
        path, _ = data_csv
        out = tmp_path / "omega.csv"
        assert run_cli(["estimate", "--data", path, "--bandwidth", bandwidth,
                        "--out", out]) == 1
        assert "bandwidth" in capsys.readouterr().err
        assert not out.exists()


class TestBadNumericCells:
    """A non-numeric cell in any input file is a user error (exit 1) that
    names the file and the row, never an internal error (exit 2)."""

    def run_expect_user_error(self, capsys, args, *needles):
        assert run_cli(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for needle in needles:
            assert needle in err

    def test_price_cell(self, tmp_path, capsys):
        path = tmp_path / "prices.csv"
        path.write_text("A,B\n1,2\n2,3\nx,4\n3,5\n4,6\n")
        self.run_expect_user_error(
            capsys, ["estimate", "--prices", path, "--out", tmp_path / "o"],
            str(path), "row 4", "symbol A", "'x'")

    def test_pairs_cell(self, tmp_path, data_csv, capsys):
        path, _ = data_csv
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("1,3\n2,y\n")
        self.run_expect_user_error(
            capsys, ["recover", "--data", path, "--set", "pairs", pairs,
                     "--boot-M", "10", "--out", tmp_path / "o"],
            str(pairs), "row 2")
        pairs.write_text("1,3\n2\n")
        self.run_expect_user_error(
            capsys, ["recover", "--data", path, "--set", "pairs", pairs,
                     "--boot-M", "10", "--out", tmp_path / "o"],
            str(pairs), "two indices")

    def test_ragged_data_rows(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        path.write_text("1,2\n3,4,5\n")
        self.run_expect_user_error(
            capsys, ["estimate", "--data", path, "--out", tmp_path / "o"],
            str(path), "different numbers of cells")

    def test_band_outside_argument(self, tmp_path, data_csv, capsys):
        path, _ = data_csv
        self.run_expect_user_error(
            capsys, ["recover", "--data", path, "--set", "band-outside", "x",
                     "--boot-M", "10", "--out", tmp_path / "o"],
            "band-outside", "'x'")

    def test_zeros_of_cell(self, tmp_path, data_csv, capsys):
        path, _ = data_csv
        mat = tmp_path / "mat.csv"
        mat.write_text("1,0\n0,z\n")
        self.run_expect_user_error(
            capsys, ["recover", "--data", path, "--set", "zeros-of", mat,
                     "--boot-M", "10", "--out", tmp_path / "o"],
            str(mat), "row 2")

    def test_c_file_cell(self, tmp_path, data_csv, capsys):
        path, _ = data_csv
        cfile = tmp_path / "c.csv"
        cfile.write_text("0\n" * 5 + "w\n")
        self.run_expect_user_error(
            capsys, ["test", "--data", path, "--set", "offdiag", "--c-file",
                     cfile, "--boot-M", "10", "--out", tmp_path / "o"],
            str(cfile), "row 6")


class TestInputChecks:
    """Each check of the inputs that a command makes: exit 1 with its
    message, and no file written."""

    @pytest.mark.parametrize("argv, message", [
        (["recover", "--data", "empty.csv", "--set", "offdiag"],
         "empty.csv: empty file"),
        (["estimate", "--prices", "one-day.csv"],
         "need at least two price rows to form returns"),
        (["estimate", "--prices", "one-moving.csv"],
         "fewer than two usable columns after ingestion"),
        (["estimate"], "provide --data or --prices"),
        (["recover", "--set", "offdiag", "1"], "offdiag takes no arguments"),
        (["recover", "--set", "zeros-of"],
         "zeros-of needs one file argument"),
        (["recover", "--set", "zeros-of", "two-by-two.csv"],
         "zeros-of matrix must be 8 x 8"),
        (["recover", "--set", "zeros-of", "ones.csv"],
         "zeros-of matrix has no off-diagonal zeros"),
        (["recover", "--set", "band-outside"],
         "band-outside needs one integer argument"),
        (["recover", "--set", "band-outside", "7"],
         "band-outside 7 selects no pairs at p = 8"),
        (["recover", "--set", "pairs"], "pairs needs one file argument"),
        (["recover", "--prices", "prices.csv", "--group-map", "groups.csv",
          "--set", "block", "g1"], "block needs two group labels"),
        (["recover", "--prices", "prices.csv", "--group-map", "groups.csv",
          "--set", "block", "g1", "g9"], "unknown group label(s): g9"),
        (["recover", "--set", "offdiag", "--bandwidth", "wide"],
         "--bandwidth must be 'auto' or a positive real"),
        # checks that read the whole file come before a row's error
        (["estimate", "--prices", "one-bad-day.csv"],
         "need at least two price rows to form returns"),
        (["recover", "--set", "pairs", "bad-then-short.csv"],
         "bad-then-short.csv: every row needs two indices"),
        (["estimate", "--data", "ragged-then-bad.csv"],
         "ragged-then-bad.csv: row 3: could not convert string to float: "
         "'x'"),
        # blank lines are not rows
        (["estimate", "--data", "blank-lines.csv"],
         "blank-lines.csv: row 2: could not convert string to float: 'q'"),
        (["estimate", "--prices", "blank-price-lines.csv"],
         "non-positive price at row 3, symbol B"),
    ], ids=["empty-file", "one-price-row", "one-usable-column", "no-data",
            "offdiag-arguments", "zeros-of-arity", "zeros-of-shape",
            "zeros-of-no-zeros", "band-outside-arity", "band-outside-empty",
            "pairs-arity", "block-arity", "block-unknown-label",
            "bandwidth-not-a-number", "one-bad-price-row",
            "pairs-bad-cell-then-short-row", "ragged-then-bad-cell",
            "blank-data-lines", "blank-price-lines"])
    def test_exits_1_with_message(self, tmp_path, data_csv, capsys,
                                  monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        two_group_prices(tmp_path)
        (tmp_path / "empty.csv").write_text("\n\n")
        (tmp_path / "one-day.csv").write_text("A,B\n1,2\n")
        (tmp_path / "one-moving.csv").write_text(
            "A,B\n1,2\n2,2\n1,2\n3,2\n2,2\n4,2\n")
        (tmp_path / "two-by-two.csv").write_text("1,0\n0,1\n")
        (tmp_path / "ones.csv").write_text("1,1,1,1,1,1,1,1\n" * 8)
        (tmp_path / "one-bad-day.csv").write_text("A,B\nx,2\n")
        (tmp_path / "bad-then-short.csv").write_text("1,2\n1,y\n3\n")
        (tmp_path / "ragged-then-bad.csv").write_text("1,2\n3,4,5\n6,x\n")
        (tmp_path / "blank-lines.csv").write_text("\n1,2\n\n\n3,q\n")
        (tmp_path / "blank-price-lines.csv").write_text(
            "A,B\n\n1,2\n\n2,0\n3,1\n")
        source = [] if "--data" in argv or "--prices" in argv \
            or argv == ["estimate"] else ["--data", data_csv[0]]
        before = sorted(tmp_path.rglob("*"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the dropped constant column
            code = run_cli([*argv, *source, "--boot-M", "10",
                            "--out", "out.csv"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_empty_set_specification(self):
        with pytest.raises(UserError, match="^empty --set specification$"):
            parse_index_set([], 8)

    def test_simple_returns(self, tmp_path):
        path, _ = two_group_prices(tmp_path)
        prices = np.array(list(csv.reader(open(path)))[1:], dtype=float)
        args = build_parser().parse_args(
            ["estimate", "--prices", str(path), "--simple-returns",
             "--no-standardize", "--out", str(tmp_path / "o.csv")])
        data, _ = _load_dataset(args)
        np.testing.assert_array_equal(data.values,
                                      prices[1:] / prices[:-1] - 1.0)


class TestRowByRowReading:
    @pytest.mark.parametrize("flag", ["--data", "--prices"])
    def test_working_set(self, tmp_path, flag):
        # 2,000 rows of 100 cells: each row is converted as it is read, so
        # no file is held as text (about 14 times the n x p floats) and
        # the returns overwrite the prices in place
        n, p = 2000, 100
        values = np.random.default_rng(8).standard_normal((n, p))
        path = tmp_path / "in.csv"
        if flag == "--data":
            write_data_csv(path, values)
        else:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"S{j}" for j in range(p)])
                writer.writerows(
                    [f"{x:.17g}" for x in row]
                    for row in 100.0 * np.exp(np.cumsum(0.01 * values, 0)))
        args = build_parser().parse_args(
            ["estimate", flag, str(path), "--out", str(tmp_path / "o.csv")])
        tracemalloc.start()
        try:
            data, _ = _load_dataset(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.values.shape == (n - (flag == "--prices"), p)
        assert peak < 4 * 8 * n * p


def corrupt(path, line: int, fault: str):
    """Rewrite a CSV file with one fault on ``line`` (0-based): a byte that
    is not UTF-8, a first cell over the csv module's 131,072-character
    field limit, or a first cell of inf."""
    lines = path.read_bytes().split(b"\n")
    cells = lines[line].split(b",")
    cells[0] = {"bad-byte": cells[0][:-1] + b"\xff",
                "huge-cell": b"1" * 131073, "inf": b"inf"}[fault]
    lines[line] = b",".join(cells)
    path.write_bytes(b"\n".join(lines))


class TestMalformedFiles:
    """A file that does not decode, malformed CSV and a value that is not
    finite each exit 1 with one error line that quotes none of the file,
    with no warning besides, and leave no file behind."""

    @pytest.mark.parametrize("flag", ["--data", "--prices"])
    @pytest.mark.parametrize("fault", ["bad-byte", "huge-cell", "inf"])
    def test_exits_1_with_one_error_line(self, tmp_path, data_csv, capsys,
                                         flag, fault):
        source, _ = data_csv if flag == "--data" \
            else two_group_prices(tmp_path)
        corrupt(source, 4, fault)
        name = re.escape(str(source))
        message = {
            "bad-byte": rf"{name}: not utf-8 text \(invalid start byte\) "
                        r"after \d+ lines read",
            "huge-cell": rf"{name}: line 5: field larger than field limit "
                         r"\(131072\)",
            "inf": "data contains NaN or infinite values" if flag == "--data"
            else "non-finite price at row 5, symbol A"}[fault]
        out = tmp_path / "sub" / "edges.csv"
        out.parent.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["recover", flag, source, "--set", "offdiag",
                            "--boot-M", "10", "--out", out])
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {message}\n", err), err
        assert caught == []
        assert list(out.parent.iterdir()) == []


class TestDrawFindings:
    @pytest.mark.parametrize("command, extra, route", [
        ("estimate", ["--set", "offdiag"], "n x n"),
        ("test", ["--set", "offdiag", "--zero"], "n x n"),
        ("recover", ["--set", "offdiag"], "n x n"),
        ("recover", ["--set", "pairs", "pairs.csv"], "r x r"),
    ], ids=["estimate", "test", "recover", "recover-r-by-r"])
    def test_manifest_records_the_draw_path(self, tmp_path, data_csv,
                                            capsys, command, extra, route):
        # p = 8, n = 40: offdiag's 56 columns take the n x n route, 28 of
        # them projected, and its factor of A splits; 3 pairs take r x r
        write_data_csv(tmp_path / "data.csv", data_csv[1][:40])
        (tmp_path / "pairs.csv").write_text("1,2\n2,1\n3,5\n")
        out = tmp_path / "out"
        extra = [tmp_path / a if a == "pairs.csv" else a for a in extra]
        assert run_cli([command, "--data", tmp_path / "data.csv", *extra,
                        "--boot-M", "10", "--out", out]) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert manifest["draw_route"] == route
        assert manifest["factor_split"] is (route == "n x n")
        assert manifest["projected_columns"] == (28 if route == "n x n"
                                                 else 0)
