"""The benchmark's workloads: inputs drawn from the benchmark's own DGP, the
CLI command that one operation runs, and the checks on its output.

DGP (all workloads): the paper's structure A, a covariance whose precision
matrix is tridiagonal with unit diagonal, and an AR(1) in time with
rho = 0.3, y_t = rho y_{t-1} + sqrt(1 - rho^2) e_t, e_t ~ N(0, Sigma). The
true precision matrix is NumPy's inverse of Sigma.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import checks

RHO = 0.3
SUPPORT_TOL = 1e-8

DESK = {"p": 50, "n": 150, "reps": 10, "truth_reps": 30, "boot_M": 500}
MID = {"p": 200, "n": 400, "boot_M": 1000, "alpha": 0.001, "min_recall": 0.8}
SECTOR = {"sectors": 10, "size": 10, "days": 501, "boot_M": 500, "fdr": 0.1,
          "max_false": 4, "return_sd": 0.01}


def structure_a(p: int):
    """(Sigma, Omega): Sigma* = 0.5^|i-j| rescaled so that Omega = Sigma^-1
    has unit diagonal; Omega is tridiagonal."""
    idx = np.arange(p)
    star = 0.5 ** np.abs(idx[:, None] - idx[None, :])
    scale = np.sqrt(np.diagonal(np.linalg.inv(star)))
    sigma = star * np.outer(scale, scale)
    return sigma, np.linalg.inv(sigma)


def support_of(omega):
    """Ordered 1-based off-diagonal pairs where Omega is non-zero."""
    j1, j2 = np.nonzero((np.abs(omega) > SUPPORT_TOL)
                        & ~np.eye(omega.shape[0], dtype=bool))
    return {(int(a) + 1, int(b) + 1) for a, b in zip(j1, j2)}


def ar1_sample(sigma, n: int, rng) -> np.ndarray:
    e = rng.standard_normal((n, sigma.shape[0])) @ np.linalg.cholesky(sigma).T
    y = np.empty_like(e)
    y[0] = e[0]
    damp = math.sqrt(1.0 - RHO ** 2)
    for t in range(1, n):
        y[t] = RHO * y[t - 1] + damp * e[t]
    return y


def _write_rows(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)


def _read_dicts(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _common(seed: int, out: Path):
    return ["--seed", str(seed), "--threads", "1", "--out", str(out)]


class DeskCoverage:
    """`simulate` at the paper's desk cell (p = 50, n = 150, zero set)."""

    name = "desk-coverage"

    def prepare(self, work: Path, seed: int):
        self.out = work / "coverage.csv"
        return ["simulate", "--structure", "A", "--p", str(DESK["p"]),
                "--n", str(DESK["n"]), "--rho", str(RHO), "--set", "zeros",
                "--reps", str(DESK["reps"]),
                "--truth-reps", str(DESK["truth_reps"]),
                "--boot-M", str(DESK["boot_M"])] + _common(seed, self.out)

    def check(self):
        with open(str(self.out) + ".manifest.json") as fh:
            failures = json.load(fh)["failures"]
        return checks.check_coverage(_read_dicts(self.out), failures,
                                     DESK["reps"], DESK["truth_reps"])


class MidRecover:
    """`recover --set offdiag` on one p = 200, n = 400 sample."""

    name = "mid-recover"

    def prepare(self, work: Path, seed: int):
        sigma, omega = structure_a(MID["p"])
        self.support = support_of(omega)
        y = ar1_sample(sigma, MID["n"], np.random.default_rng([seed, 1]))
        data = work / "data.csv"
        _write_rows(data, ([repr(float(x)) for x in row] for row in y))
        self.out = work / "edges.csv"
        return ["recover", "--data", str(data), "--set", "offdiag",
                "--alpha", str(MID["alpha"]),
                "--boot-M", str(MID["boot_M"])] + _common(seed, self.out)

    def check(self):
        selected = {(int(row["j1"]), int(row["j2"])): row["omega"]
                    for row in _read_dicts(self.out)}
        return checks.check_edges(selected, self.support, MID["min_recall"])


class SectorBlocks:
    """`blocks` on a panel of prices, stocks ordered by sector so that the
    band of structure A crosses every boundary between adjacent sectors."""

    name = "sector-blocks"

    def prepare(self, work: Path, seed: int):
        k, size = SECTOR["sectors"], SECTOR["size"]
        p = k * size
        sigma, _ = structure_a(p)
        r = SECTOR["return_sd"] * ar1_sample(
            sigma, SECTOR["days"] - 1, np.random.default_rng([seed, 2]))
        prices = 100.0 * np.exp(np.vstack([np.zeros(p), np.cumsum(r, axis=0)]))
        symbols = [f"S{j:03d}" for j in range(p)]
        self.labels = [f"G{h}" for h in range(k)]
        self.true_pairs = {(self.labels[h], self.labels[h + 1])
                           for h in range(k - 1)}
        price_csv, sector_csv = work / "prices.csv", work / "sectors.csv"
        _write_rows(price_csv, ([repr(float(x)) for x in row] for row in prices),
                    header=symbols)
        _write_rows(sector_csv, ([s, self.labels[j // size]]
                                 for j, s in enumerate(symbols)))
        self.out = work / "blocks.csv"
        return ["blocks", "--prices", str(price_csv),
                "--group-map", str(sector_csv), "--fdr", str(SECTOR["fdr"]),
                "--boot-M", str(SECTOR["boot_M"])] + _common(seed, self.out)

    def check(self):
        return checks.check_blocks(_read_dicts(self.out), self.labels,
                                   self.true_pairs, SECTOR["fdr"],
                                   SECTOR["max_false"])


WORKLOADS = {w.name: w for w in (DeskCoverage, MidRecover, SectorBlocks)}
