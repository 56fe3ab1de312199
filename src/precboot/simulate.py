"""Data-generating processes and the Monte Carlo coverage harness.

The DGP is a stationary Gaussian AR(1) in time with marginal covariance
chosen so the true precision matrix has unit diagonal and a banded (A) or
block-diagonal (B) support.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bootstrap import BootstrapConfig, kmb_draws, quantile
from .core import Dataset, IndexSet, RngSpec, SymMatrix, index_set_all_offdiag
from .errors import GenerationError, InvalidDimension, InvalidInput, \
    PrecbootError
from .longrun import w_diag as w_diag_fn
from .nodewise import LassoConfig
from .pipeline import fit_pipeline

STRUCTURES = ("A", "B")
DEFAULT_LEVELS = (0.925, 0.95, 0.975)
KMB = "KMB"
SKMB = "SKMB"


@dataclass(frozen=True)
class DgpSpec:
    structure: str
    p: int
    rho: float
    n: int
    rng: RngSpec

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise InvalidInput(f"structure must be one of {STRUCTURES}")
        if not 0.0 <= self.rho < 1.0:
            raise InvalidInput("rho must be in [0, 1)")
        if self.structure == "B" and self.p % 5 != 0:
            raise InvalidDimension("structure B needs p divisible by 5")


def _sigma_star(structure: str, p: int) -> np.ndarray:
    if structure == "A":
        idx = np.arange(p)
        return 0.5 ** np.abs(idx[:, None] - idx[None, :])
    if p % 5 != 0:
        raise InvalidDimension("structure B needs p divisible by 5")
    sigma = np.eye(p)
    for h in range(p // 5):
        block = slice(5 * h, 5 * h + 5)
        sigma[block, block] = 0.5
    np.fill_diagonal(sigma, 1.0)
    return sigma


def build_sigma(structure: str, p: int) -> Tuple[SymMatrix, SymMatrix]:
    """Rescaled covariance and its exact inverse with unit-diagonal inverse."""
    star = _sigma_star(structure, p)
    star_inv = np.linalg.solve(star, np.eye(p))
    scale = np.sqrt(np.diagonal(star_inv))
    sigma = star * np.outer(scale, scale)
    omega = np.linalg.solve(sigma, np.eye(p))
    return SymMatrix(sigma), SymMatrix(omega)


def true_zero_set(structure: str, p: int) -> IndexSet:
    """Index set of the structurally zero precision entries, row-major."""
    pairs = []
    for j1 in range(1, p + 1):
        for j2 in range(1, p + 1):
            if j1 == j2:
                continue
            if structure == "A":
                zero = abs(j1 - j2) > 1
            else:
                zero = (j1 - 1) // 5 != (j2 - 1) // 5
            if zero:
                pairs.append((j1, j2))
    if not pairs:
        raise InvalidDimension("no zero entries for this structure/p")
    return IndexSet(np.asarray(pairs, dtype=np.int64))


def index_set_for(choice: str, structure: str, p: int) -> IndexSet:
    if choice == "zeros":
        return true_zero_set(structure, p)
    if choice == "offdiag":
        return index_set_all_offdiag(p)
    raise InvalidInput(f"unknown index set choice {choice!r}")


def generate(dgp: DgpSpec, *key: int) -> Dataset:
    """Simulate y_1 = e_1, y_t = rho y_{t-1} + sqrt(1-rho^2) e_t with
    e_t iid N(0, Sigma); every y_t is marginally N(0, Sigma)."""
    sigma, _ = build_sigma(dgp.structure, dgp.p)
    try:
        chol = np.linalg.cholesky(sigma.values)
    except np.linalg.LinAlgError as exc:
        raise GenerationError("covariance is not positive definite") from exc
    rng = dgp.rng.generator(*key)
    eps = rng.standard_normal((dgp.n, dgp.p)) @ chol.T
    if dgp.rho == 0.0:
        return Dataset(eps)
    y = np.empty_like(eps)
    y[0] = eps[0]
    damp = math.sqrt(1.0 - dgp.rho ** 2)
    for t in range(1, dgp.n):
        y[t] = dgp.rho * y[t - 1] + damp * eps[t]
    return Dataset(y)


@dataclass
class CoverageReport:
    structure: str
    rho: float
    p: int
    n: int
    index_choice: str
    levels: Tuple[float, ...]
    M: int
    replicates: int
    truth_reps: int
    mean: Dict[str, Dict[float, float]]
    sd: Dict[str, Dict[float, float]]
    failures: int
    runtime: float

    def rows(self) -> List[dict]:
        out = []
        for level in self.levels:
            out.append({
                "structure": self.structure,
                "rho": self.rho,
                "p": self.p,
                "n": self.n,
                "set": self.index_choice,
                "level": level,
                "kmb_mean": self.mean[KMB][level],
                "kmb_sd": self.sd[KMB][level],
                "skmb_mean": self.mean[SKMB][level],
                "skmb_sd": self.sd[SKMB][level],
            })
        return out


def _map_ordered(fn, items, threads: int):
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _replicate_stats(dgp: DgpSpec, S: IndexSet, omega_true_s: np.ndarray,
                     lasso_cfg: LassoConfig, boot_cfg: BootstrapConfig,
                     *key: int):
    """True-deviation max statistics (plain, studentized at the bandwidth
    the bootstrap uses) for one sample."""
    data = generate(dgp, *key)
    pipe = fit_pipeline(data, lasso_cfg)
    dev = np.abs(pipe.omega_on(S) - omega_true_s)
    eta, h = pipe.scores(S)
    w = w_diag_fn(eta, h, boot_cfg.bandwidth_for(eta), boot_cfg.kernel)
    root_n = math.sqrt(dgp.n)
    return root_n * dev.max(), root_n * (dev / np.sqrt(w)).max(), np.median(w)


def coverage_experiment(dgp: DgpSpec, index_choice: str,
                        replicates: int, boot_cfg: BootstrapConfig,
                        truth_reps: int = 1000,
                        levels: Sequence[float] = DEFAULT_LEVELS,
                        lasso_cfg: Optional[LassoConfig] = None,
                        threads: int = 1) -> CoverageReport:
    """Two-stage coverage protocol.

    Stage 1 builds the benchmark distribution of the max statistics from
    ``truth_reps`` independent samples. Stage 2 estimates the bootstrap
    quantiles on ``replicates`` fresh samples and records, per sample and
    level, the benchmark fraction at or below the estimated quantile. The
    report carries the mean and sd of those empirical coverages.
    """
    if replicates < 1 or truth_reps < 1:
        raise InvalidInput("replicates and truth_reps must be >= 1")
    t0 = time.perf_counter()
    lasso_cfg = lasso_cfg or LassoConfig()
    S = index_set_for(index_choice, dgp.structure, dgp.p)
    _, omega = build_sigma(dgp.structure, dgp.p)
    omega_true_s = omega.values[S.rows(), S.cols()]
    levels = tuple(levels)

    def bench_one(b):
        try:
            plain, stud, _ = _replicate_stats(
                dgp, S, omega_true_s, lasso_cfg, boot_cfg, 0, b)
            return plain, stud
        except PrecbootError:
            return None

    bench = _map_ordered(bench_one, range(truth_reps), threads)
    bench_fail = sum(1 for b in bench if b is None)
    bench_plain = np.array([b[0] for b in bench if b is not None])
    bench_stud = np.array([b[1] for b in bench if b is not None])
    if bench_plain.size == 0:
        raise GenerationError("every benchmark replicate failed")

    def estimate_one(i):
        try:
            data = generate(dgp, 1, i)
            pipe = fit_pipeline(data, lasso_cfg)
            eta, h = pipe.scores(S)
            cfg = replace(boot_cfg, rng=boot_cfg.rng.child(i))
            res_plain, res_stud = kmb_draws(eta, h, cfg, (False, True))
            cov = {}
            for level in levels:
                q_p = quantile(res_plain, level)
                q_s = quantile(res_stud, level)
                cov[(KMB, level)] = float(np.mean(bench_plain <= q_p))
                cov[(SKMB, level)] = float(np.mean(bench_stud <= q_s))
            return cov
        except PrecbootError:
            return None

    results = _map_ordered(estimate_one, range(replicates), threads)
    failures = bench_fail + sum(1 for r in results if r is None)
    results = [r for r in results if r is not None]
    if not results:
        raise GenerationError("every estimation replicate failed")

    mean = {KMB: {}, SKMB: {}}
    sd = {KMB: {}, SKMB: {}}
    for method in (KMB, SKMB):
        for level in levels:
            vals = np.array([r[(method, level)] for r in results])
            mean[method][level] = float(vals.mean())
            sd[method][level] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    return CoverageReport(
        structure=dgp.structure, rho=dgp.rho, p=dgp.p, n=dgp.n,
        index_choice=index_choice, levels=levels, M=boot_cfg.M,
        replicates=replicates, truth_reps=truth_reps, mean=mean, sd=sd,
        failures=failures, runtime=time.perf_counter() - t0)


def write_coverage_csv(path, reports: Sequence[CoverageReport]):
    """Tables-style CSV: one row per structure x rho x set x level."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["structure", "rho", "p", "n", "set", "level",
                         "kmb_mean", "kmb_sd", "skmb_mean", "skmb_sd"])
        for report in reports:
            for row in report.rows():
                writer.writerow([
                    row["structure"], f"{row['rho']:.17g}", row["p"], row["n"],
                    row["set"], f"{row['level']:.17g}",
                    f"{row['kmb_mean']:.17g}", f"{row['kmb_sd']:.17g}",
                    f"{row['skmb_mean']:.17g}", f"{row['skmb_sd']:.17g}",
                ])
