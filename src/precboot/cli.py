"""Command-line surface: data ingestion, pipeline execution, simulation
harness and report emission. The library returns objects; this module alone
reads and writes files. Input files are read row by row: each row is
checked and converted to numbers as it arrives, so no file is held as text.

Every run writes its primary output as CSV (or JSON for single test
outcomes) plus a ``<out>.manifest.json`` holding every parsed argument of
the command and what the run found (the bandwidth used, |S|, failures),
enough to reproduce the run exactly. Output paths are checked before any
work, and a run's files appear together or not at all: each is written
under a temporary name and renamed into place after the last write. Exit
codes: 0 ok, 1 user error, 2 internal error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from array import array
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, kmb_draws
from .core import Dataset, IndexSet, RngSpec, index_set_all_offdiag, \
    index_set_from_blocks, index_set_from_mask
from .errors import InvalidInput, InvalidPrice, MissingValue, PrecbootError
from .inference import block_pairs, block_test_matrix, recover_support, \
    test_structure
from .longrun import KernelSpec
from .nodewise import LassoConfig
from .pipeline import fit_pipeline
from .simulate import DEFAULT_LEVELS, KMB, SKMB, DgpSpec, coverage_experiment


class UserError(Exception):
    """Bad command line or bad input file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(message)


# ---------------------------------------------------------------------------
# files and returns ingestion

def _rows(path):
    """The non-blank rows of a CSV file as lists of cells, read one at a
    time. An empty file, bytes that do not decode and malformed CSV (such
    as a cell over the csv module's field limit) are user errors that name
    the file and the reader's line; the message quotes none of the file."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        try:
            first = next(rows, None)
            if first is None:
                raise UserError(f"{path}: empty file")
            yield first
            yield from rows
        except UnicodeDecodeError as exc:
            # text is decoded a buffer at a time, so the bad byte lies
            # somewhere past the last line read
            raise UserError(f"{path}: not {exc.encoding} text ({exc.reason})"
                            f" after {reader.line_num} lines read") from None
        except csv.Error as exc:
            raise UserError(f"{path}: line {reader.line_num}: {exc}") \
                from None


def _count(rows) -> int:
    """The number of rows left, read to the end: an error path reads the
    rest of its file first, so that a file that cannot be read (a bad
    encoding, malformed CSV) fails as that before any row's error."""
    return sum(1 for _ in rows)


class _Outputs:
    """The files one command writes. Each is written under a temporary name
    in its target's folder; ``commit`` renames them all into place once the
    last has been written, and ``discard`` removes the temporary files, so
    a run that fails part way leaves the folders as it found them."""

    def __init__(self):
        self._staged = []  # (temporary name, target)

    def _open(self, path, **kwargs):
        folder, name = os.path.split(path)
        temporary = os.path.join(folder, f".{name}.{os.getpid()}.tmp")
        fh = open(temporary, "x", **kwargs)
        self._staged.append((temporary, path))
        return fh

    def write_csv(self, path, header, rows):
        """A CSV file of ``rows`` under ``header`` (none when it is None)."""
        with self._open(path, newline="") as fh:
            writer = csv.writer(fh)
            if header is not None:
                writer.writerow(header)
            writer.writerows(rows)

    def write_json(self, path, payload: dict):
        with self._open(path) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def write_manifest(self, args, **findings):
        """``<out>.manifest.json``: every parsed argument, then what the run
        found."""
        self.write_json(args.out + ".manifest.json",
                        {"tool": "precboot", "version": __version__,
                         **vars(args), **findings})

    def commit(self):
        for temporary, path in self._staged:
            os.replace(temporary, path)
        self._staged.clear()

    def discard(self):
        for temporary, _ in self._staged:
            if os.path.exists(temporary):
                os.remove(temporary)
        self._staged.clear()


def _num(x) -> str:
    """A float as text that reads back to the same double."""
    return f"{x:.17g}"


def _numbers(path, cells=None) -> np.ndarray:
    """The first ``cells`` cells (every cell by default) of each row of a CSV
    file as a float matrix, each row converted as it is read. A bad cell is
    a user error that names the file and row (rows counted from 1, blank
    lines skipped); rows of different lengths are one too, once every row
    has been converted."""
    flat, widths = array("d"), set()
    rows = _rows(path)
    for i, row in enumerate(rows, start=1):
        row = row[:cells]
        try:
            flat.extend(map(float, row))
        except ValueError as exc:
            _count(rows)
            raise UserError(f"{path}: row {i}: {exc}") from None
        widths.add(len(row))
    if len(widths) > 1:
        raise UserError(f"{path}: rows have different numbers of cells")
    return np.frombuffer(flat).reshape(-1, widths.pop())


def _pairs(path, p: int) -> np.ndarray:
    """The 1-based (j1, j2) index pairs of a CSV file, the first two cells of
    each row, converted as each row is read. In order of precedence, a row
    of fewer than two cells, a bad cell and an index outside 1..p are user
    errors."""
    flat, outside = array("q"), False
    short = UserError(f"{path}: every row needs two indices")
    rows = _rows(path)
    for i, row in enumerate(rows, start=1):
        if len(row) < 2:
            _count(rows)
            raise short
        try:
            pair = [int(c) for c in row[:2]]
        except ValueError as exc:
            if min(map(len, rows), default=2) < 2:
                raise short from None
            raise UserError(f"{path}: row {i}: {exc}") from None
        if all(1 <= j <= p for j in pair):
            flat.extend(pair)
        else:
            outside = True
    if outside:
        raise UserError(f"{path}: indices must be in 1..{p}")
    return np.frombuffer(flat, np.int64).reshape(-1, 2)


def _price_row(path, symbols, i, row) -> List[float]:
    """Row i of a price file as floats, or the error of its first bad cell:
    a missing, non-numeric, non-positive or non-finite price."""
    if len(row) != len(symbols):
        raise MissingValue(f"row {i} has {len(row)} cells, "
                           f"expected {len(symbols)}")
    try:
        values = [float(cell) for cell in row]
    except ValueError:
        values = [math.nan]
    # a nan or inf makes the sum nan or inf; the walk passes an overflow
    if 0.0 < min(values) and sum(values) < math.inf:
        return values
    # go cell by cell to report the row's first bad cell
    for sym, cell in zip(symbols, row):
        cell = cell.strip()
        if cell == "" or cell.upper() == "NA":
            raise MissingValue(f"missing price at row {i}, symbol {sym}")
        try:
            value = float(cell)
        except ValueError:
            raise UserError(f"{path}: row {i}, symbol {sym}: "
                            f"not a number: {cell!r}") from None
        if not 0.0 < value < math.inf:
            kind = "non-positive" if value <= 0.0 else "non-finite"
            raise InvalidPrice(f"{kind} price at row {i}, symbol {sym}")
    return values


def ingest_returns(price_csv, log_returns: bool = True,
                   standardize: bool = True, group_map=None):
    """Price CSV (header of symbols, one row per day) -> returns Dataset.

    Returns (Dataset, groups, kept_symbols); groups maps labels to 1-based
    column indices of the returned matrix and is empty without a group map.
    """
    rows = _rows(price_csv)
    symbols = [c.strip() for c in next(rows)]
    flat = array("d")
    for i, row in enumerate(rows, start=2):
        try:
            flat.extend(_price_row(price_csv, symbols, i, row))
        except (UserError, PrecbootError):
            if i - 1 + _count(rows) >= 2:
                raise
            break  # too few rows comes first
    prices = np.frombuffer(flat).reshape(-1, len(symbols))
    if prices.shape[0] < 2:
        raise InvalidInput("need at least two price rows to form returns")

    # the returns overwrite all rows but the last of the prices
    returns = prices[:-1]
    if log_returns:
        np.log(prices, out=prices)
        np.subtract(prices[1:], returns, out=returns)
    else:
        np.divide(prices[1:], returns, out=returns)
        returns -= 1.0

    keep = np.ones(returns.shape[1], dtype=bool)
    if group_map is not None:
        group_of = {row[0].strip(): row[1].strip()
                    for row in _rows(group_map) if len(row) >= 2}
        for j, sym in enumerate(symbols):
            label = group_of.get(sym, "NA")
            if label.upper() == "NA":
                keep[j] = False
        dropped = [symbols[j] for j in range(len(symbols)) if not keep[j]]
        if dropped:
            warnings.warn(f"dropped {len(dropped)} symbols without a group: "
                          + ",".join(dropped))

    if standardize:
        sd = returns.std(axis=0, ddof=1)
        constant = sd <= 0.0
        if constant.any():
            names = [symbols[j] for j in np.nonzero(constant)[0]]
            warnings.warn("dropped constant-return columns: " + ",".join(names))
            keep &= ~constant
        mean = returns.mean(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            returns -= mean
            returns /= sd

    kept = [symbols[j] for j in range(len(symbols)) if keep[j]]
    if not keep.all():
        returns = returns[:, keep]
    if returns.shape[1] < 2:
        raise InvalidInput("fewer than two usable columns after ingestion")

    groups: Dict[str, List[int]] = {}
    if group_map is not None:
        for col, sym in enumerate(kept, start=1):
            groups.setdefault(group_of[sym], []).append(col)
    return Dataset(returns), groups, kept


# ---------------------------------------------------------------------------
# shared helpers

def _load_dataset(args):
    if args.prices:
        return ingest_returns(
            args.prices, log_returns=not args.simple_returns,
            standardize=not args.no_standardize, group_map=args.group_map)[:2]
    if args.data:
        return Dataset(_numbers(args.data)), {}
    raise UserError("provide --data or --prices")


def parse_index_set(tokens: List[str], p: int,
                    groups: Optional[dict] = None) -> IndexSet:
    """Index-set mini-language.

    ``offdiag`` | ``zeros-of FILE`` | ``band-outside K`` | ``pairs FILE`` |
    ``block H1 H2``
    """
    if not tokens:
        raise UserError("empty --set specification")
    head, rest = tokens[0], tokens[1:]
    if head == "offdiag":
        if rest:
            raise UserError("offdiag takes no arguments")
        return index_set_all_offdiag(p)
    if head == "zeros-of":
        if len(rest) != 1:
            raise UserError("zeros-of needs one file argument")
        mat = _numbers(rest[0])
        if mat.shape != (p, p):
            raise UserError(f"zeros-of matrix must be {p} x {p}")
        mask = (mat == 0.0) & ~np.eye(p, dtype=bool)
        if not mask.any():
            raise UserError("zeros-of matrix has no off-diagonal zeros")
        return index_set_from_mask(mask)
    if head == "band-outside":
        if len(rest) != 1:
            raise UserError("band-outside needs one integer argument")
        try:
            k = int(rest[0])
        except ValueError:
            raise UserError(f"band-outside needs an integer, got {rest[0]!r}") \
                from None
        if k < 0:
            raise UserError(f"band-outside needs K >= 0, got {k}")
        j = np.arange(p)
        mask = np.abs(j[:, None] - j[None, :]) > k
        if not mask.any():
            raise UserError(f"band-outside {k} selects no pairs at p = {p}")
        return index_set_from_mask(mask)
    if head == "pairs":
        if len(rest) != 1:
            raise UserError("pairs needs one file argument")
        return IndexSet(_pairs(rest[0], p))
    if head == "block":
        if len(rest) != 2:
            raise UserError("block needs two group labels")
        if not groups:
            raise UserError("block index sets need --group-map")
        missing = [h for h in rest if h not in groups]
        if missing:
            raise UserError(f"unknown group label(s): {','.join(missing)}")
        return index_set_from_blocks(groups, (rest[0], rest[1]))
    raise UserError(f"unknown index-set form {head!r}")


def _boot_cfg(args) -> BootstrapConfig:
    """The bootstrap settings of a command, once its level flag (--alpha or
    --fdr, where it has one) is checked to lie in (0, 1), --threads to be
    at least 1 and --bandwidth to be 'auto' or a number."""
    for flag in ("alpha", "fdr"):
        level = getattr(args, flag, None)
        if level is not None and not 0.0 < level < 1.0:
            raise UserError(f"--{flag} must be in (0, 1), got {level}")
    if args.threads < 1:
        raise UserError(f"--threads must be >= 1, got {args.threads}")
    try:
        bandwidth = None if args.bandwidth == "auto" else float(args.bandwidth)
    except ValueError:
        raise UserError("--bandwidth must be 'auto' or a positive real") \
            from None
    return BootstrapConfig(rng=RngSpec(args.seed, "boot"), M=args.boot_M,
                           kernel=KernelSpec(kind=args.kernel),
                           bandwidth=bandwidth)


def _fit_and_draw(args, data, S, cfg):
    """The node-wise fit of ``data`` and, for an index set S, the --studentized
    or plain bootstrap on its scores (else None). Given a ``cfg``, an n too
    small for its draws is an error before the fit."""
    if cfg is not None:
        cfg.check_n(data.n)
    pipe = fit_pipeline(data, LassoConfig(lambda_scale=args.lambda_scale))
    if S is None:
        return pipe, None
    eta, h = pipe.scores(S)
    (boot,) = kmb_draws(eta, h, cfg, (args.studentized,))
    return pipe, boot


def _draw_findings(boot) -> dict:
    """What a run's bootstrap found, for its manifest: the bandwidth, the
    factor's route, whether it split, and the score columns projected."""
    return {"bandwidth_used": boot.bandwidth, "draw_route": boot.route,
            "factor_split": boot.split, "projected_columns": boot.projected}


def _check_outputs(args):
    """Check that every file the command writes can be created, before any
    work: --out, its manifest and, for ``estimate --set``, the intervals,
    whose --intervals-out defaults to ``<out>.intervals.csv``."""
    paths = [args.out, args.out + ".manifest.json"]
    if args.command == "estimate" and args.set:
        args.intervals_out = args.intervals_out or args.out + ".intervals.csv"
        paths.append(args.intervals_out)
    for path in paths:
        folder = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise UserError(f"{path}: output path is a directory")
        if not os.path.isdir(folder):
            raise UserError(f"{path}: no directory {folder}")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args, out: _Outputs) -> int:
    dgp = DgpSpec(structure=args.structure, p=args.p, rho=args.rho, n=args.n,
                  rng=RngSpec(args.seed, "dgp"))
    boot_cfg = _boot_cfg(args)
    sets = ["zeros", "offdiag"] if args.set == "both" else [args.set]
    reports = [coverage_experiment(
        dgp, choice, replicates=args.reps, boot_cfg=boot_cfg,
        truth_reps=args.truth_reps,
        lasso_cfg=LassoConfig(lambda_scale=args.lambda_scale),
        threads=args.threads) for choice in sets]
    # Tables-style: one row per structure x rho x set x level
    out.write_csv(args.out, ["structure", "rho", "p", "n", "set", "level",
                              "kmb_mean", "kmb_sd", "skmb_mean", "skmb_sd"],
                   ([dgp.structure, _num(dgp.rho), dgp.p, dgp.n, choice]
                    + [_num(x) for x in (
                        level, rep.mean[KMB][level], rep.sd[KMB][level],
                        rep.mean[SKMB][level], rep.sd[SKMB][level])]
                    for choice, rep in zip(sets, reports)
                    for level in DEFAULT_LEVELS))
    out.write_manifest(args, sets=sets,
                       failures=sum(r.failures for r in reports))
    return 0


def _cmd_estimate(args, out: _Outputs) -> int:
    data, groups = _load_dataset(args)
    S = parse_index_set(args.set, data.p, groups) if args.set else None
    cfg = _boot_cfg(args)
    pipe, boot = _fit_and_draw(args, data, S, cfg if S is not None else None)
    findings = {"n": data.n, "p": data.p,
                "lambdas": [float(x) for x in pipe.fit.lambdas]}
    out.write_csv(args.out, None,
                   ([_num(x) for x in row] for row in pipe.omega_hat.values))
    if S is not None:
        omega_s = pipe.omega_on(S)
        half = boot.half_width(1.0 - args.alpha)
        out.write_csv(args.intervals_out, ["j1", "j2", "omega", "lo", "hi"],
                       ([j1, j2, _num(val), _num(lo), _num(hi)]
                        for (j1, j2), val, lo, hi in zip(
                            S.pairs.tolist(), omega_s, omega_s - half,
                            omega_s + half)))
        findings.update(_draw_findings(boot), r=S.r,
                        quantile=boot.quantile(1.0 - args.alpha))
    out.write_manifest(args, **findings)
    return 0


def _cmd_test(args, out: _Outputs) -> int:
    data, groups = _load_dataset(args)
    S = parse_index_set(args.set, data.p, groups)
    if args.zero:
        c = np.zeros(S.r)
    else:
        c = _numbers(args.c_file, cells=1)[:, 0]
        if c.shape != (S.r,):
            raise UserError(f"c-vector length {c.size} != |S| = {S.r}")
        if not np.all(np.isfinite(c)):
            row = int(np.argmin(np.isfinite(c))) + 1
            raise UserError(f"{args.c_file}: row {row}: c must be finite, "
                            f"got {c[row - 1]}")
    pipe, boot = _fit_and_draw(args, data, S, _boot_cfg(args))
    outcome = test_structure(pipe.omega_on(S), c, boot, args.alpha)
    out.write_json(args.out, {
        "statistic": outcome.statistic, "quantile": outcome.quantile,
        "p_value": outcome.p_value, "reject": outcome.reject,
        "alpha": args.alpha,
    })
    print(("REJECT" if outcome.reject else "RETAIN")
          + f" p={outcome.p_value:.6g} stat={outcome.statistic:.6g}"
          + f" q={outcome.quantile:.6g}")
    out.write_manifest(args, **_draw_findings(boot), r=S.r)
    return 0


def _cmd_recover(args, out: _Outputs) -> int:
    data, groups = _load_dataset(args)
    S = parse_index_set(args.set, data.p, groups)
    pipe, boot = _fit_and_draw(args, data, S, _boot_cfg(args))
    selected = recover_support(pipe.omega_on(S), S, boot, args.alpha)
    out.write_csv(args.out, ["j1", "j2", "omega"],
                   ([j1, j2, _num(pipe.omega_hat[j1 - 1, j2 - 1])]
                    for j1, j2 in selected))
    out.write_manifest(args, **_draw_findings(boot), r=S.r,
                       selected=len(selected))
    return 0


def _cmd_blocks(args, out: _Outputs) -> int:
    data, groups = _load_dataset(args)
    if not groups:
        raise UserError("blocks needs --group-map labels")
    cfg = _boot_cfg(args)
    if not block_pairs(groups, args.within):
        raise UserError("no block pair to test: blocks needs two groups, or "
                        "--within and a group of two or more symbols")
    pipe, _ = _fit_and_draw(args, data, None, cfg)
    result = block_test_matrix(pipe, groups, cfg, alpha=args.fdr,
                               include_within=args.within,
                               threads=args.threads)
    out.write_csv(args.out, ["group1", "group2", "p_value", "rejected"],
                   ([t.group1, t.group2, _num(t.p_value), int(t.rejected)]
                    for t in result.tests))
    out.write_manifest(args, studentized=True, groups=sorted(groups),
                       rejected=len(result.adjacency))
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(parser):
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--boot-M", type=int, default=3000, dest="boot_M")
    parser.add_argument("--kernel", choices=["qs", "bartlett"], default="qs")
    parser.add_argument("--bandwidth", default="auto",
                        help="'auto' (AR(1) plug-in) or a positive real")
    parser.add_argument("--lambda-scale", type=float, default=0.5,
                        dest="lambda_scale")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--out", required=True, help="output file path")


def _add_data_args(parser):
    parser.add_argument("--data", help="numeric CSV, rows = time points")
    parser.add_argument("--prices", help="price CSV with symbol header")
    parser.add_argument("--group-map", dest="group_map",
                        help="CSV mapping symbol to group label")
    parser.add_argument("--simple-returns", action="store_true",
                        help="use arithmetic instead of log returns")
    parser.add_argument("--no-standardize", action="store_true")


def build_parser() -> _Parser:
    parser = _Parser(prog="precboot")
    sub = parser.add_subparsers(dest="command", required=True,
                              parser_class=_Parser)

    p_sim = sub.add_parser("simulate")
    _add_common(p_sim)
    p_sim.add_argument("--structure", choices=["A", "B"], required=True)
    p_sim.add_argument("--p", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--rho", type=float, default=0.0)
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--truth-reps", type=int, default=1000,
                       dest="truth_reps")
    p_sim.add_argument("--set", choices=["zeros", "offdiag", "both"],
                       default="both")

    p_est = sub.add_parser("estimate")
    _add_common(p_est)
    _add_data_args(p_est)
    p_est.add_argument("--set", nargs="+", default=None,
                       help="index-set spec for confidence intervals")
    p_est.add_argument("--intervals-out", dest="intervals_out",
                       help="intervals CSV (default: <out>.intervals.csv)")

    p_test = sub.add_parser("test")
    _add_common(p_test)
    _add_data_args(p_test)
    p_test.add_argument("--set", nargs="+", required=True)
    target = p_test.add_mutually_exclusive_group(required=True)
    target.add_argument("--zero", action="store_true",
                        help="test against the zero vector")
    target.add_argument("--c-file", dest="c_file",
                        help="CSV with one target value per index pair")

    p_rec = sub.add_parser("recover")
    _add_common(p_rec)
    _add_data_args(p_rec)
    p_rec.add_argument("--set", nargs="+", required=True)
    # one bootstrap at one level; simulate and blocks take neither flag
    for level_parser in (p_est, p_test, p_rec):
        level_parser.add_argument("--studentized", action="store_true")
        level_parser.add_argument("--alpha", type=float, default=0.05)

    p_blk = sub.add_parser("blocks")
    _add_common(p_blk)
    _add_data_args(p_blk)
    p_blk.add_argument("--fdr", type=float, default=0.1)
    p_blk.add_argument("--within", action="store_true",
                       help="also test within-group blocks")
    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "test": _cmd_test,
    "recover": _cmd_recover,
    "blocks": _cmd_blocks,
}


def main(argv=None) -> int:
    parser = build_parser()
    out = _Outputs()
    try:
        args = parser.parse_args(argv)
        _check_outputs(args)
        code = _COMMANDS[args.command](args, out)
        out.commit()
        return code
    except (UserError, PrecbootError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2
    finally:
        out.discard()


if __name__ == "__main__":
    sys.exit(main())
