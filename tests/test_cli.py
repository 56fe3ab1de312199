import csv
import json
import math

import numpy as np
import pytest

from precboot import RngSpec, fit_pipeline
from precboot.cli import ReturnsSpec, ingest_returns, main, parse_index_set
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
        data, _, syms = ingest_returns(
            ReturnsSpec(str(path), standardize=False))
        assert syms == ["AAA", "BBB"]
        assert data.values[0, 0] == pytest.approx(math.log(1.1), abs=1e-12)
        assert data.n == 4

    def test_standardized_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        prices = np.exp(np.cumsum(rng.standard_normal((30, 3)) * 0.01, axis=0))
        path = self.write_prices(tmp_path, ["A", "B", "C"], prices.tolist())
        data, _, _ = ingest_returns(ReturnsSpec(str(path)))
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
            data, _, syms = ingest_returns(ReturnsSpec(str(path)))
        assert syms == ["X", "Y"]
        assert data.p == 2

    def test_non_positive_price(self, tmp_path):
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], [0, 2], [2, 3], [3, 4]])
        with pytest.raises(InvalidPrice):
            ingest_returns(ReturnsSpec(str(path)))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_price_names_row_and_symbol(self, tmp_path, cell):
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], [2, 2], [3, cell], [3, 4]])
        with pytest.raises(InvalidPrice, match="price at row 4, symbol B$"):
            ingest_returns(ReturnsSpec(str(path)))

    def test_first_bad_cell_reported(self, tmp_path):
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], [2, "nan"], [0, 2], [3, 4]])
        with pytest.raises(InvalidPrice,
                           match="^non-finite price at row 3, symbol B$"):
            ingest_returns(ReturnsSpec(str(path)))
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], [-2, 2], [1, "x"], [3, 4]])
        with pytest.raises(InvalidPrice,
                           match="^non-positive price at row 3, symbol A$"):
            ingest_returns(ReturnsSpec(str(path)))

    def test_one_cell_row_is_not_broadcast(self, tmp_path):
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], [2], [2, 3], [3, 4]])
        with pytest.raises(MissingValue,
                           match="^row 3 has 1 cells, expected 2$"):
            ingest_returns(ReturnsSpec(str(path)))

    def test_missing_cell(self, tmp_path):
        path = self.write_prices(tmp_path, ["A", "B"],
                                 [[1, 1], ["", 2], [2, 3], [3, 4]])
        with pytest.raises(MissingValue):
            ingest_returns(ReturnsSpec(str(path)))

    def test_na_symbols_dropped(self, tmp_path):
        rng = np.random.default_rng(1)
        prices = np.exp(np.cumsum(rng.standard_normal((20, 3)) * 0.02, axis=0))
        path = self.write_prices(tmp_path, ["A", "B", "C"], prices.tolist())
        gmap = tmp_path / "groups.csv"
        gmap.write_text("A,tech\nB,NA\nC,tech\n")
        with pytest.warns(UserWarning, match="without a group"):
            data, groups, syms = ingest_returns(
                ReturnsSpec(str(path), group_map=str(gmap)))
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
    """Every command checks its set, groups, target and bootstrap settings
    before it fits, so a bad input costs no fit and writes no file."""

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
        ["estimate", "--set", "everything"],
        ["estimate", "--bandwidth", "0"],
    ], ids=["blocks-no-group-map", "recover-unknown-set",
            "recover-bad-bandwidth", "test-no-target", "test-both-targets",
            "test-short-c-file", "estimate-unknown-set",
            "estimate-bad-bandwidth"])
    def test_exits_1_without_fitting(self, tmp_path, data_csv, argv):
        path, _ = data_csv
        (tmp_path / "c.csv").write_text("0\n")  # 1 value, |offdiag| = 56
        argv = [tmp_path / a if a == "c.csv" else a for a in argv]
        out = tmp_path / "out.csv"
        assert run_cli(argv + ["--data", path, "--boot-M", "10",
                               "--out", out]) == 1
        assert sorted(f.name for f in tmp_path.iterdir()) == \
            ["c.csv", "data.csv"]


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
            outs.append((out.read_bytes(), manifest))
        assert len(outs[0][0].splitlines()) == 1 + 6 + 4  # cross + within
        assert outs[0] == outs[1]


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
