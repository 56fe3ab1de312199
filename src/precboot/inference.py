"""Structure tests, support recovery, bootstrap P-values and BH block
testing on the estimated precision matrix."""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .bootstrap import BootstrapConfig, BootstrapResult, half_width, \
    kmb_draws, max_statistic, quantile
from .core import IndexSet, index_set_from_blocks, map_ordered
from .errors import InvalidPValue, ShapeError
from .pipeline import PipelineFit


@dataclass
class TestOutcome:
    statistic: float
    quantile: float
    reject: bool
    p_value: float


@dataclass
class SupportEstimate:
    selected: List[Tuple[int, int]]


def test_structure(omega_s: np.ndarray, c: np.ndarray, boot: BootstrapResult,
                   n: int, alpha: float) -> TestOutcome:
    """Max-norm test of omega_S = c using bootstrap critical values."""
    omega_s = np.asarray(omega_s, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if omega_s.shape != c.shape:
        raise ShapeError("omega_S and c must have the same length")
    statistic = max_statistic(omega_s - c, n, boot.w_diag)
    q = quantile(boot, 1.0 - alpha)
    # (1 + #{T* >= T}) / (M + 1) (Phipson & Smyth 2010): never exactly 0
    at_least = int(np.count_nonzero(boot.stats >= statistic))
    p_value = (1 + at_least) / (boot.M + 1)
    return TestOutcome(statistic=statistic, quantile=q,
                       reject=statistic > q, p_value=p_value)


def recover_support(omega_hat: np.ndarray, S: IndexSet, boot: BootstrapResult,
                    n: int, alpha: float) -> SupportEstimate:
    """Pairs whose simultaneous confidence interval excludes zero."""
    omega_s = np.asarray(omega_hat, dtype=np.float64)
    if omega_s.shape != (S.r,):
        raise ShapeError("omega values must be given in chi order for S")
    threshold = half_width(quantile(boot, 1.0 - alpha), n, S.r, boot.w_diag)
    picked = np.abs(omega_s) > threshold
    selected = [tuple(pair) for pair in S.pairs[picked].tolist()]
    return SupportEstimate(selected=selected)


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
    rejected: bool = False


@dataclass
class BlockTestResult:
    tests: List[BlockTest]

    @property
    def adjacency(self) -> List[Tuple[str, str]]:
        """The rejected block pairs, in test order."""
        return [(t.group1, t.group2) for t in self.tests if t.rejected]

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["group1", "group2", "p_value", "rejected"])
            for t in self.tests:
                writer.writerow([t.group1, t.group2, f"{t.p_value:.17g}",
                                 int(t.rejected)])


def block_test_matrix(pipe: PipelineFit, groups: dict,
                      boot_cfg: BootstrapConfig, alpha: float = 0.1,
                      include_within: bool = False,
                      threads: int = 1) -> BlockTestResult:
    """Test every block pair for a non-zero sub-block of the precision matrix.

    The node-wise fit ``pipe`` is shared across all hypotheses; each block
    pair gets its own Studentized bootstrap with an independent RNG
    substream, so the pairs can run on ``threads`` threads with the same
    result. The P-values then go through BH selection at level ``alpha``.
    """
    labels = list(groups.keys())
    pairs = []
    for i, h1 in enumerate(labels):
        for h2 in labels[i + 1:]:
            pairs.append((h1, h2))
        if include_within and len(groups[h1]) > 1:
            pairs.append((h1, h1))
    n = pipe.data.n

    def test_one(item):
        idx, (h1, h2) = item
        S = index_set_from_blocks(groups, (h1, h2))
        eta, h = pipe.scores(S)
        cfg = replace(boot_cfg, rng=boot_cfg.rng.child(idx))
        (boot,) = kmb_draws(eta, h, cfg, (True,))
        outcome = test_structure(pipe.omega_on(S), np.zeros(S.r), boot, n,
                                 alpha)
        return BlockTest(str(h1), str(h2), outcome.p_value)

    tests = map_ordered(test_one, enumerate(pairs), threads)
    for i in bh_select([t.p_value for t in tests], alpha):
        tests[i].rejected = True
    return BlockTestResult(tests=tests)
