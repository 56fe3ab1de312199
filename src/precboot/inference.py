"""Structure tests, support recovery, bootstrap P-values and BH block
testing on the estimated precision matrix."""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bootstrap import BootstrapConfig, BootstrapResult, kmb_draws, quantile
from .core import Dataset, IndexSet, index_set_from_blocks
from .errors import InvalidPValue, ShapeError
from .nodewise import LassoConfig
from .pipeline import PipelineFit, fit_pipeline


@dataclass
class TestOutcome:
    statistic: float
    quantile: float
    reject: bool
    p_value: float
    alpha: float


@dataclass
class SupportEstimate:
    selected: List[Tuple[int, int]]
    alpha: float
    threshold: np.ndarray  # per-coordinate threshold on |omega|, length r


def test_structure(omega_s: np.ndarray, c: np.ndarray, boot: BootstrapResult,
                   n: int, alpha: float) -> TestOutcome:
    """Max-norm test of omega_S = c using bootstrap critical values."""
    omega_s = np.asarray(omega_s, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if omega_s.shape != c.shape:
        raise ShapeError("omega_S and c must have the same length")
    dev = np.abs(omega_s - c)
    if boot.studentized:
        if boot.w_diag is None or boot.w_diag.shape != omega_s.shape:
            raise ShapeError("studentized bootstrap result lacks matching w_diag")
        dev = dev / np.sqrt(boot.w_diag)
    statistic = math.sqrt(n) * float(dev.max())
    q = quantile(boot, 1.0 - alpha)
    p_value = float(np.mean(boot.stats >= statistic))
    return TestOutcome(statistic=statistic, quantile=q,
                       reject=statistic > q, p_value=p_value, alpha=alpha)


def recover_support(omega_hat: np.ndarray, S: IndexSet, boot: BootstrapResult,
                    n: int, alpha: float) -> SupportEstimate:
    """Pairs whose simultaneous confidence interval excludes zero."""
    omega_s = np.asarray(omega_hat, dtype=np.float64)
    if omega_s.shape != (S.r,):
        raise ShapeError("omega values must be given in chi order for S")
    q = quantile(boot, 1.0 - alpha)
    threshold = np.full(S.r, q / math.sqrt(n))
    if boot.studentized:
        if boot.w_diag is None or boot.w_diag.shape != (S.r,):
            raise ShapeError("studentized bootstrap result lacks matching w_diag")
        threshold = threshold * np.sqrt(boot.w_diag)
    picked = np.abs(omega_s) > threshold
    selected = [tuple(pair) for pair in S.pairs[picked].tolist()]
    return SupportEstimate(selected=selected, alpha=alpha, threshold=threshold)


def bh_select(p_values: Sequence[float], alpha: float) -> List[int]:
    """Benjamini-Hochberg step-up; returns the rejected 0-based indices."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise InvalidPValue("p-values must lie in [0, 1]")
    k = p.size
    if k == 0:
        return []
    order = np.lexsort((np.arange(k), p))  # stable: ties by original index
    thresholds = alpha * np.arange(1, k + 1) / k
    below = p[order] <= thresholds
    if not below.any():
        return []
    v = int(np.nonzero(below)[0][-1]) + 1
    return sorted(order[:v].tolist())


@dataclass
class BlockTest:
    group1: str
    group2: str
    p_value: float
    statistic: float
    rejected: bool = False


@dataclass
class BlockTestResult:
    tests: List[BlockTest]
    alpha: float
    adjacency: List[Tuple[str, str]] = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group1", "group2", "p_value", "rejected"])
            for t in self.tests:
                writer.writerow([t.group1, t.group2, f"{t.p_value:.17g}",
                                 int(t.rejected)])


def block_test_matrix(data: Dataset, groups: dict, boot_cfg: BootstrapConfig,
                      alpha: float = 0.1,
                      lasso_cfg: Optional[LassoConfig] = None,
                      include_within: bool = False,
                      pipe: Optional[PipelineFit] = None) -> BlockTestResult:
    """Test every block pair for a non-zero sub-block of the precision matrix.

    One global node-wise fit is shared across all hypotheses; each block pair
    gets its own Studentized bootstrap with an independent RNG substream. The
    P-values then go through BH selection at level ``alpha``.
    """
    if pipe is None:
        pipe = fit_pipeline(data, lasso_cfg)
    labels = list(groups.keys())
    pairs = []
    for i, h1 in enumerate(labels):
        for h2 in labels[i + 1:]:
            pairs.append((h1, h2))
        if include_within and len(groups[h1]) > 1:
            pairs.append((h1, h1))
    tests = []
    n = pipe.data.n
    for idx, (h1, h2) in enumerate(pairs):
        S = index_set_from_blocks(groups, (h1, h2))
        eta, h = pipe.scores(S)
        cfg = replace(boot_cfg, rng=boot_cfg.rng.child(idx))
        (boot,) = kmb_draws(eta, h, cfg, (True,))
        outcome = test_structure(pipe.omega_on(S), np.zeros(S.r), boot, n,
                                 alpha)
        tests.append(BlockTest(group1=str(h1), group2=str(h2),
                               p_value=outcome.p_value,
                               statistic=outcome.statistic))
    rejected = bh_select([t.p_value for t in tests], alpha)
    for i in rejected:
        tests[i].rejected = True
    adjacency = [(tests[i].group1, tests[i].group2) for i in rejected]
    return BlockTestResult(tests=tests, alpha=alpha, adjacency=adjacency)
