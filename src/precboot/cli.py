"""Command-line surface: data ingestion, pipeline execution, simulation
harness and report emission.

Every run writes its primary output as CSV (or JSON for single test
outcomes) plus a ``<out>.manifest.json`` capturing seed, penalties,
bandwidth, kernel and draw count, enough to reproduce the run exactly.
Exit codes: 0 ok, 1 user error, 2 internal error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, check_bandwidth, kmb_draws
from .core import Dataset, IndexSet, RngSpec, index_set_all_offdiag, \
    index_set_from_blocks, index_set_from_mask
from .errors import InvalidInput, InvalidPrice, MissingValue, PrecbootError
from .inference import block_test_matrix, recover_support, test_structure
from .longrun import KernelSpec
from .nodewise import LassoConfig
from .pipeline import fit_pipeline
from .simulate import DgpSpec, coverage_experiment, write_coverage_csv


class UserError(Exception):
    """Bad command line or bad input file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(message)


# ---------------------------------------------------------------------------
# returns ingestion

@dataclass
class ReturnsSpec:
    price_csv: str
    log_returns: bool = True
    standardize: bool = True
    group_map: Optional[str] = None


def _read_matrix_csv(path, expect_header: bool):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [row for row in rows if row]
    if not rows:
        raise UserError(f"{path}: empty file")
    header = None
    if expect_header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
    return header, rows


def _numbers(path, rows, convert=float) -> np.ndarray:
    """The cells of CSV rows as a numeric matrix; a bad cell is a user error
    that names the file and row (rows counted from 1, blank lines skipped)."""
    out = []
    for i, row in enumerate(rows, start=1):
        try:
            out.append([convert(c) for c in row])
        except ValueError as exc:
            raise UserError(f"{path}: row {i}: {exc}") from None
    if len({len(row) for row in out}) > 1:
        raise UserError(f"{path}: rows have different numbers of cells")
    return np.array(out)


def ingest_returns(spec: ReturnsSpec):
    """Price CSV (header of symbols, one row per day) -> returns Dataset.

    Returns (Dataset, groups, kept_symbols); groups maps labels to 1-based
    column indices of the returned matrix and is empty without a group map.
    """
    symbols, rows = _read_matrix_csv(spec.price_csv, expect_header=True)
    n_prices = len(rows)
    if n_prices < 2:
        raise InvalidInput("need at least two price rows to form returns")
    prices = np.empty((n_prices, len(symbols)))
    try:
        for price_row, row in zip(prices, rows):
            if len(row) != len(symbols):
                raise ValueError("ragged row")
            price_row[:] = [float(cell) for cell in row]
        valid = bool(np.all((prices > 0.0) & (prices < np.inf)))
    except ValueError:
        valid = False
    # on any bad cell, go cell by cell to report the first one
    for i, row in enumerate([] if valid else rows, start=2):
        if len(row) != len(symbols):
            raise MissingValue(f"row {i} has {len(row)} cells, "
                               f"expected {len(symbols)}")
        for sym, cell in zip(symbols, row):
            cell = cell.strip()
            if cell == "" or cell.upper() == "NA":
                raise MissingValue(f"missing price at row {i}, symbol {sym}")
            try:
                value = float(cell)
            except ValueError:
                raise UserError(f"{spec.price_csv}: row {i}, symbol {sym}: "
                                f"not a number: {cell!r}") from None
            if not 0.0 < value < math.inf:
                kind = "non-positive" if value <= 0.0 else "non-finite"
                raise InvalidPrice(f"{kind} price at row {i}, symbol {sym}")

    if spec.log_returns:
        returns = np.diff(np.log(prices), axis=0)
    else:
        returns = prices[1:] / prices[:-1] - 1.0

    keep = np.ones(returns.shape[1], dtype=bool)
    group_of: Dict[str, str] = {}
    if spec.group_map is not None:
        _, map_rows = _read_matrix_csv(spec.group_map, expect_header=False)
        for row in map_rows:
            if len(row) < 2:
                continue
            group_of[row[0].strip()] = row[1].strip()
        for j, sym in enumerate(symbols):
            label = group_of.get(sym, "NA")
            if label.upper() == "NA":
                keep[j] = False
        dropped = [symbols[j] for j in range(len(symbols)) if not keep[j]]
        if dropped:
            warnings.warn(f"dropped {len(dropped)} symbols without a group: "
                          + ",".join(dropped))

    if spec.standardize:
        sd = returns.std(axis=0, ddof=1)
        constant = sd <= 0.0
        if constant.any():
            names = [symbols[j] for j in np.nonzero(constant)[0]]
            warnings.warn("dropped constant-return columns: " + ",".join(names))
            keep &= ~constant
        mean = returns.mean(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            returns = (returns - mean) / sd

    kept = [symbols[j] for j in range(len(symbols)) if keep[j]]
    returns = returns[:, keep]
    if returns.shape[1] < 2:
        raise InvalidInput("fewer than two usable columns after ingestion")

    groups: Dict[str, List[int]] = {}
    if spec.group_map is not None:
        for col, sym in enumerate(kept, start=1):
            groups.setdefault(group_of[sym], []).append(col)
    return Dataset(returns), groups, kept


# ---------------------------------------------------------------------------
# shared helpers

def _load_dataset(args):
    if getattr(args, "prices", None):
        spec = ReturnsSpec(price_csv=args.prices,
                           log_returns=not args.simple_returns,
                           standardize=not args.no_standardize,
                           group_map=getattr(args, "group_map", None))
        data, groups, _ = ingest_returns(spec)
        return data, groups
    if getattr(args, "data", None):
        _, rows = _read_matrix_csv(args.data, expect_header=False)
        return Dataset(_numbers(args.data, rows)), {}
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
        _, rows = _read_matrix_csv(rest[0], expect_header=False)
        mat = _numbers(rest[0], rows)
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
        j = np.arange(p)
        mask = np.abs(j[:, None] - j[None, :]) > k
        if not mask.any():
            raise UserError(f"band-outside {k} selects no pairs at p = {p}")
        return index_set_from_mask(mask)
    if head == "pairs":
        if len(rest) != 1:
            raise UserError("pairs needs one file argument")
        _, rows = _read_matrix_csv(rest[0], expect_header=False)
        if any(len(row) < 2 for row in rows):
            raise UserError(f"{rest[0]}: every row needs two indices")
        return IndexSet(_numbers(rest[0], [row[:2] for row in rows], int))
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


def _bandwidth_from(args) -> Optional[float]:
    if args.bandwidth == "auto":
        return None
    try:
        value = float(args.bandwidth)
    except ValueError as exc:
        raise UserError("--bandwidth must be 'auto' or a positive real") from exc
    return check_bandwidth(value)


def _boot_cfg(args) -> BootstrapConfig:
    return BootstrapConfig(rng=RngSpec(args.seed, "boot"), M=args.boot_M,
                           kernel=KernelSpec(kind=args.kernel),
                           bandwidth=_bandwidth_from(args))


def _lasso_from(args) -> LassoConfig:
    return LassoConfig(lambda_scale=args.lambda_scale)


def _write_manifest(path, args, extra: dict):
    manifest = {
        "tool": "precboot",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "boot_M": args.boot_M,
        "kernel": args.kernel,
        "bandwidth": args.bandwidth,
        "lambda_scale": args.lambda_scale,
        "threads": args.threads,
    }
    if "studentized" in args:
        manifest.update(studentized=args.studentized, alpha=args.alpha)
    manifest.update(extra)
    with open(str(path) + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _draws(pipe, S, cfg, args):
    """The bootstrap of the chosen variant on the scores of S."""
    eta, h = pipe.scores(S)
    (boot,) = kmb_draws(eta, h, cfg, (args.studentized,))
    return boot


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    dgp = DgpSpec(structure=args.structure, p=args.p, rho=args.rho, n=args.n,
                  rng=RngSpec(args.seed, "dgp"))
    boot_cfg = _boot_cfg(args)
    sets = ["zeros", "offdiag"] if args.set == "both" else [args.set]
    reports = []
    for choice in sets:
        reports.append(coverage_experiment(
            dgp, choice, replicates=args.reps, boot_cfg=boot_cfg,
            truth_reps=args.truth_reps, lasso_cfg=_lasso_from(args),
            threads=args.threads))
    write_coverage_csv(args.out, reports)
    _write_manifest(args.out, args, {
        "structure": args.structure, "p": args.p, "n": args.n,
        "rho": args.rho, "reps": args.reps, "truth_reps": args.truth_reps,
        "sets": sets, "failures": sum(r.failures for r in reports),
    })
    return 0


def _cmd_estimate(args) -> int:
    data, groups = _load_dataset(args)
    S = parse_index_set(args.set, data.p, groups) if args.set else None
    cfg = _boot_cfg(args)
    pipe = fit_pipeline(data, _lasso_from(args))
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in pipe.omega_hat.values:
            writer.writerow([f"{x:.17g}" for x in row])
    extra = {"n": data.n, "p": data.p,
             "lambdas": [float(x) for x in pipe.fit.lambdas]}
    if S is not None:
        boot = _draws(pipe, S, cfg, args)
        q = boot.quantile(1.0 - args.alpha)
        omega_s = pipe.omega_on(S)
        half = boot.half_width(1.0 - args.alpha)
        with open(args.intervals_out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["j1", "j2", "omega", "lo", "hi"])
            for (j1, j2), val, lo, hi in zip(S.pairs.tolist(), omega_s,
                                             omega_s - half, omega_s + half):
                writer.writerow([j1, j2, f"{val:.17g}", f"{lo:.17g}",
                                 f"{hi:.17g}"])
        extra.update({"bandwidth_used": boot.bandwidth, "quantile": q,
                      "r": S.r})
    _write_manifest(args.out, args, extra)
    return 0


def _cmd_test(args) -> int:
    data, groups = _load_dataset(args)
    S = parse_index_set(args.set, data.p, groups)
    if args.zero:
        c = np.zeros(S.r)
    else:
        _, rows = _read_matrix_csv(args.c_file, expect_header=False)
        c = _numbers(args.c_file, [row[:1] for row in rows])[:, 0]
        if c.shape != (S.r,):
            raise UserError(f"c-vector length {c.size} != |S| = {S.r}")
    cfg = _boot_cfg(args)
    pipe = fit_pipeline(data, _lasso_from(args))
    boot = _draws(pipe, S, cfg, args)
    outcome = test_structure(pipe.omega_on(S), c, boot, args.alpha)
    payload = {
        "statistic": outcome.statistic, "quantile": outcome.quantile,
        "p_value": outcome.p_value, "reject": outcome.reject,
        "alpha": args.alpha,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(("REJECT" if outcome.reject else "RETAIN")
          + f" p={outcome.p_value:.6g} stat={outcome.statistic:.6g}"
          + f" q={outcome.quantile:.6g}")
    _write_manifest(args.out, args, {"bandwidth_used": boot.bandwidth,
                                     "r": S.r})
    return 0


def _cmd_recover(args) -> int:
    data, groups = _load_dataset(args)
    S = parse_index_set(args.set, data.p, groups)
    cfg = _boot_cfg(args)
    pipe = fit_pipeline(data, _lasso_from(args))
    boot = _draws(pipe, S, cfg, args)
    selected = recover_support(pipe.omega_on(S), S, boot, args.alpha)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j1", "j2", "omega"])
        omega = pipe.omega_hat
        for j1, j2 in selected:
            writer.writerow([j1, j2, f"{omega[j1 - 1, j2 - 1]:.17g}"])
    _write_manifest(args.out, args, {"bandwidth_used": boot.bandwidth,
                                     "r": S.r, "selected": len(selected)})
    return 0


def _cmd_blocks(args) -> int:
    data, groups = _load_dataset(args)
    if not groups:
        raise UserError("blocks needs --group-map labels")
    cfg = _boot_cfg(args)
    pipe = fit_pipeline(data, _lasso_from(args))
    result = block_test_matrix(pipe, groups, cfg, alpha=args.fdr,
                               include_within=args.within,
                               threads=args.threads)
    result.write_csv(args.out)
    _write_manifest(args.out, args, {
        "studentized": True, "fdr": args.fdr, "groups": sorted(groups),
        "rejected": len(result.adjacency),
    })
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
                       default="intervals.csv")

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
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UserError, PrecbootError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
