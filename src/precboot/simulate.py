"""Data-generating processes and the Monte Carlo coverage harness.

The DGP is a stationary Gaussian AR(1) in time with marginal covariance
chosen so the true precision matrix has unit diagonal and a banded (A) or
block-diagonal (B) support.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .bootstrap import BootstrapConfig, kmb_draws, max_statistic
from .core import Dataset, IndexSet, RngSpec, SymMatrix, center, \
    index_set_all_offdiag, index_set_from_mask, map_ordered
from .errors import GenerationError, InvalidDimension, InvalidInput, \
    PrecbootError
from .longrun import lag_toeplitz, w_diag as w_diag_fn
from .nodewise import LassoConfig, fit_batch, node_penalties
from .pipeline import PipelineFit, assemble

STRUCTURES = ("A", "B")
DEFAULT_LEVELS = (0.925, 0.95, 0.975)
KMB = "KMB"
SKMB = "SKMB"
# node rows per lockstep solve in coverage_experiment: a batch holds
# max(1, FIT_BATCH_NODES // p) replicates. Larger batches get slower again
# (p = 50, one BLAS thread on a 2-vCPU VM: 3.7 ms per fit at 32 replicates,
# 4.5 ms at 256, 25 ms one by one).
FIT_BATCH_NODES = 2048


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
        return lag_toeplitz(0.5 ** np.arange(p)).copy()
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
    j = np.arange(p)
    if structure == "A":
        mask = np.abs(j[:, None] - j[None, :]) > 1
    else:
        mask = j[:, None] // 5 != j[None, :] // 5
    if not mask.any():
        raise InvalidDimension("no zero entries for this structure/p")
    return index_set_from_mask(mask)


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
    replicates: int
    truth_reps: int
    mean: Dict[str, Dict[float, float]]
    sd: Dict[str, Dict[float, float]]
    failures: int
    runtime: float


def _truth_stats(pipe: PipelineFit, S: IndexSet, omega_true_s: np.ndarray,
                 boot_cfg: BootstrapConfig):
    """True-deviation max statistics of one fitted sample: plain, and
    studentized at the bandwidth the bootstrap uses."""
    dev = pipe.omega_on(S) - omega_true_s
    eta, h = pipe.scores(S)
    w = w_diag_fn(eta, h, boot_cfg.bandwidth_for(eta), boot_cfg.kernel)
    n = pipe.data.n
    return max_statistic(dev, n, np.ones(S.r)), \
        max_statistic(dev, n, np.sqrt(w))


def _fit_chunk(dgp: DgpSpec, stage: int, keys: range, lasso_cfg: LassoConfig,
               threads: int):
    """Draw the replicates ``keys`` of a stage and solve all their node-wise
    Lassos in one lockstep call. Returns (batch, slot): slot[i] is
    replicate i's index in the batch, absent when drawing or checking it
    raised a PrecbootError."""
    def draw(i):
        try:
            data = center(generate(dgp, stage, i))
            return data, node_penalties(data, lasso_cfg)
        except PrecbootError:
            return None

    good = {i: d for i, d in zip(keys, map_ordered(draw, keys, threads))
            if d is not None}
    if not good:
        return None, {}
    samples, lambdas = zip(*good.values())
    return fit_batch(samples, lambdas, lasso_cfg), \
        {i: b for b, i in enumerate(good)}


def _run_stage(dgp: DgpSpec, stage: int, count: int, lasso_cfg: LassoConfig,
               threads: int, stats) -> list:
    """[stats(i, pipe) for the replicates i of a stage], with None for a
    replicate that raised a PrecbootError. Replicates are fitted chunk by
    chunk, FIT_BATCH_NODES // p at a time; each one's PipelineFit is
    assembled when its stats run, and a chunk is released before the
    next."""
    def one(i):
        b = slot.get(i)
        if b is None:
            return None
        try:
            return stats(i, assemble(batch.sample(b), batch.fit(b)))
        except PrecbootError:
            return None

    size = max(1, FIT_BATCH_NODES // dgp.p)
    out = []
    for start in range(0, count, size):
        keys = range(start, min(start + size, count))
        batch, slot = _fit_chunk(dgp, stage, keys, lasso_cfg, threads)
        out += map_ordered(one, keys, threads)
        del batch, slot  # release this chunk before drawing the next
    return out


def coverage_experiment(dgp: DgpSpec, index_choice: str,
                        replicates: int, boot_cfg: BootstrapConfig,
                        truth_reps: int = 1000,
                        lasso_cfg: Optional[LassoConfig] = None,
                        threads: int = 1) -> CoverageReport:
    """Two-stage coverage protocol.

    Stage 1 builds the benchmark distribution of the max statistics from
    ``truth_reps`` independent samples. Stage 2 estimates the bootstrap
    quantiles on ``replicates`` fresh samples and records, per sample and
    level of DEFAULT_LEVELS, the benchmark fraction at or below the
    estimated quantile. The report carries the mean and sd of those
    empirical coverages.

    Each stage runs in batches of FIT_BATCH_NODES // p replicates: a batch
    is drawn, its node-wise Lassos are solved in one lockstep call, and then
    every replicate's scores, bandwidth, long-run variances and draws run on
    their own. The results do not depend on the batch size or on
    ``threads``. A replicate that raises a PrecbootError (generation, the
    data checks, a fit in which no node converged, ``estimate_v``) counts
    as one failure and leaves the rest of its batch unaffected.
    """
    if replicates < 1 or truth_reps < 1:
        raise InvalidInput("replicates and truth_reps must be >= 1")
    t0 = time.perf_counter()
    lasso_cfg = lasso_cfg or LassoConfig()
    S = index_set_for(index_choice, dgp.structure, dgp.p)
    _, omega = build_sigma(dgp.structure, dgp.p)
    omega_true_s = omega.values[S.rows(), S.cols()]

    def bench_one(i, pipe):
        return _truth_stats(pipe, S, omega_true_s, boot_cfg)

    bench = _run_stage(dgp, 0, truth_reps, lasso_cfg, threads, bench_one)
    bench_fail = sum(1 for b in bench if b is None)
    bench_plain = np.array([b[0] for b in bench if b is not None])
    bench_stud = np.array([b[1] for b in bench if b is not None])
    if bench_plain.size == 0:
        raise GenerationError("every benchmark replicate failed")

    def estimate_one(i, pipe):
        eta, h = pipe.scores(S)
        cfg = replace(boot_cfg, rng=boot_cfg.rng.child(i))
        res_plain, res_stud = kmb_draws(eta, h, cfg, (False, True))
        cov = {}
        for level in DEFAULT_LEVELS:
            q_p = res_plain.quantile(level)
            q_s = res_stud.quantile(level)
            cov[(KMB, level)] = float(np.mean(bench_plain <= q_p))
            cov[(SKMB, level)] = float(np.mean(bench_stud <= q_s))
        return cov

    results = _run_stage(dgp, 1, replicates, lasso_cfg, threads, estimate_one)
    failures = bench_fail + sum(1 for r in results if r is None)
    results = [r for r in results if r is not None]
    if not results:
        raise GenerationError("every estimation replicate failed")

    mean = {KMB: {}, SKMB: {}}
    sd = {KMB: {}, SKMB: {}}
    for method in (KMB, SKMB):
        for level in DEFAULT_LEVELS:
            vals = np.array([r[(method, level)] for r in results])
            mean[method][level] = float(vals.mean())
            sd[method][level] = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
    return CoverageReport(
        structure=dgp.structure, rho=dgp.rho, p=dgp.p, n=dgp.n,
        index_choice=index_choice, replicates=replicates,
        truth_reps=truth_reps, mean=mean, sd=sd, failures=failures,
        runtime=time.perf_counter() - t0)


def write_coverage_csv(path, reports: Sequence[CoverageReport]):
    """Tables-style CSV: one row per structure x rho x set x level."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["structure", "rho", "p", "n", "set", "level",
                         "kmb_mean", "kmb_sd", "skmb_mean", "skmb_sd"])
        for rep in reports:
            for level in DEFAULT_LEVELS:
                writer.writerow(
                    [rep.structure, f"{rep.rho:.17g}", rep.p, rep.n,
                     rep.index_choice]
                    + [f"{x:.17g}" for x in (
                        level, rep.mean[KMB][level], rep.sd[KMB][level],
                        rep.mean[SKMB][level], rep.sd[SKMB][level])])
