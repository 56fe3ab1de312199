"""Structure tests, support recovery, bootstrap P-values and BH block
testing on the estimated precision matrix."""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

import numpy as np

from .bootstrap import BootstrapConfig, BootstrapResult, kmb_draws
from .core import IndexSet, index_set_from_blocks, map_ordered
from .errors import InvalidPValue, ShapeError
from .pipeline import PipelineFit


@dataclass
class TestOutcome:
    statistic: float
    quantile: float
    reject: bool
    p_value: float


def test_structure(omega_s: np.ndarray, c: np.ndarray, boot: BootstrapResult,
                   alpha: float) -> TestOutcome:
    """Max-norm test of omega_S = c using bootstrap critical values."""
    omega_s = np.asarray(omega_s, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if omega_s.shape != c.shape:
        raise ShapeError("omega_S and c must have the same length")
    statistic = boot.statistic(omega_s - c)
    q = boot.quantile(1.0 - alpha)
    return TestOutcome(statistic=statistic, quantile=q, reject=statistic > q,
                       p_value=boot.p_value(statistic))


def recover_support(omega_hat: np.ndarray, S: IndexSet, boot: BootstrapResult,
                    alpha: float) -> List[Tuple[int, int]]:
    """The pairs of S, in chi order, whose simultaneous confidence interval
    excludes zero."""
    omega_s = np.asarray(omega_hat, dtype=np.float64)
    if omega_s.shape != (S.r,) or boot.scale.shape != (S.r,):
        raise ShapeError("omega values and the bootstrap must both be given "
                         "in chi order for S")
    picked = np.abs(omega_s) > boot.half_width(1.0 - alpha)
    return [tuple(pair) for pair in S.pairs[picked].tolist()]


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


def block_pairs(groups: dict, include_within: bool) -> List[Tuple[str, str]]:
    """The block pairs that ``block_test_matrix`` tests, in test order: each
    pair of labels of ``groups`` in their order, and with
    ``include_within`` each label of more than one column with itself,
    after its pairs with the labels that follow it."""
    labels = list(groups)
    pairs = []
    for i, h1 in enumerate(labels):
        pairs += [(h1, h2) for h2 in labels[i + 1:]]
        if include_within and len(groups[h1]) > 1:
            pairs.append((h1, h1))
    return pairs


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
    pairs = block_pairs(groups, include_within)

    def test_one(item):
        idx, (h1, h2) = item
        S = index_set_from_blocks(groups, (h1, h2))
        eta, h = pipe.scores(S)
        cfg = replace(boot_cfg, rng=boot_cfg.rng.child(idx))
        (boot,) = kmb_draws(eta, h, cfg, (True,))
        outcome = test_structure(pipe.omega_on(S), np.zeros(S.r), boot, alpha)
        return BlockTest(str(h1), str(h2), outcome.p_value)

    tests = map_ordered(test_one, enumerate(pairs), threads)
    for i in bh_select([t.p_value for t in tests], alpha):
        tests[i].rejected = True
    return BlockTestResult(tests=tests)
