"""Checks on the program's outputs and on its layers' intermediate results.

Every check is a pure function that returns a list of problems (empty when
the check holds). The truths they compare against are computed here, with
plain NumPy, apart from the program: the precision matrix is NumPy's inverse
of the DGP covariance, the Lasso KKT conditions use this file's own
``Y'r / n``, and the long-run variance and the multiplier covariance use this
file's own quadratic-spectral kernel.
"""
from __future__ import annotations

import math

import numpy as np

LEVELS = (0.925, 0.95, 0.975)
# width of the KMB coverage band, in standard errors of the coverage estimate
COVERAGE_Z = 4.0
KKT_TOL = 1e-5
W_RTOL = 1e-8
FACTOR_ATOL = 1e-8


def qs_kernel(x):
    """Quadratic-spectral kernel 25/(12 pi^2 x^2) (sin(6 pi x/5)/(6 pi x/5)
    - cos(6 pi x/5)), with K(0) = 1 (Andrews 1991, eq. 2.7)."""
    x = np.asarray(x, dtype=np.float64)
    z = 6.0 * np.pi * x / 5.0
    out = np.ones_like(z)
    nz = x != 0.0
    out[nz] = 25.0 / (12.0 * np.pi ** 2 * x[nz] ** 2) * (
        np.sin(z[nz]) / z[nz] - np.cos(z[nz]))
    return out


# ---------------------------------------------------------------------------
# output checks

def check_coverage(rows, failures: int, reps: int, truth_reps: int):
    """Coverage CSV rows of ``simulate --set zeros`` (dicts keyed by header).

    Both methods: coverage in [0, 1] and non-decreasing in the level. KMB:
    within COVERAGE_Z standard errors of its level, the error combining the
    truth sample (binomial, ``truth_reps`` draws) and the mean over ``reps``
    replicates (their reported sd). SKMB is not held to its level: its
    over-coverage is a known fault of the program.
    """
    problems = []
    if failures:
        problems.append(f"{failures} replicates failed")
    levels = [float(row["level"]) for row in rows]
    if levels != list(LEVELS) or any(row["set"] != "zeros" for row in rows):
        return problems + [f"expected the zeros set at levels {LEVELS}, "
                           f"got {levels}"]
    for method in ("kmb", "skmb"):
        cov = [float(row[f"{method}_mean"]) for row in rows]
        if not all(0.0 <= c <= 1.0 for c in cov):
            problems.append(f"{method} coverage outside [0, 1]: {cov}")
        if any(b < a for a, b in zip(cov, cov[1:])):
            problems.append(f"{method} coverage decreases with level: {cov}")
    for row, level in zip(rows, LEVELS):
        kmb = float(row["kmb_mean"])
        se = (math.sqrt(level * (1.0 - level) / truth_reps)
              + float(row["kmb_sd"]) / math.sqrt(reps))
        if abs(kmb - level) > COVERAGE_Z * se:
            problems.append(f"KMB coverage {kmb:.4f} at level {level} is "
                            f"outside {level} +- {COVERAGE_Z * se:.4f}")
    return problems


def check_edges(selected, support, min_recall: float):
    """Recovered ordered edges against the true off-diagonal support.

    ``selected`` maps (j1, j2) to the reported omega-hat. No edge may lie off
    the support, each edge must come with its mirror and the same value
    (omega-hat is exactly symmetric), and recall must reach ``min_recall``.
    """
    problems = []
    false = sorted(set(selected) - support)
    if false:
        problems.append(f"{len(false)} selected edges off the support, "
                        f"e.g. {false[:3]}")
    asym = [e for e, val in selected.items()
            if selected.get((e[1], e[0])) != val]
    if asym:
        problems.append(f"{len(asym)} edges lack an equal mirror, "
                        f"e.g. {asym[:3]}")
    recall = len(set(selected) & support) / len(support)
    if recall < min_recall:
        problems.append(f"recall {recall:.4f} < {min_recall}")
    return problems


def bh_reject(p_values, alpha: float):
    """Benjamini-Hochberg step-up: a boolean mask of rejected hypotheses."""
    p = np.asarray(p_values, dtype=np.float64)
    order = np.argsort(p, kind="stable")
    below = p[order] <= alpha * np.arange(1, p.size + 1) / p.size
    mask = np.zeros(p.size, dtype=bool)
    if below.any():
        mask[order[:np.nonzero(below)[0][-1] + 1]] = True
    return mask


def check_blocks(rows, labels, true_pairs, fdr: float, max_false: int):
    """Block-test CSV rows (dicts keyed by header) of ``blocks``.

    One row per unordered pair of ``labels``, p-values in [0, 1], rejections
    equal to this file's own BH at ``fdr``, every pair in ``true_pairs``
    rejected and at most ``max_false`` other pairs rejected.
    """
    expected = {(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]}
    got = [(row["group1"], row["group2"]) for row in rows]
    if len(got) != len(expected) or set(got) != expected:
        return [f"expected {len(expected)} block pairs, got {len(got)}"]
    p = np.array([float(row["p_value"]) for row in rows])
    rejected = np.array([row["rejected"] == "1" for row in rows])
    problems = []
    if not np.all((p >= 0.0) & (p <= 1.0)):
        problems.append("p-values outside [0, 1]")
    elif not np.array_equal(rejected, bh_reject(p, fdr)):
        problems.append("rejections differ from BH on the reported p-values")
    missed = [pair for pair, rej in zip(got, rejected)
              if pair in true_pairs and not rej]
    if missed:
        problems.append(f"{len(missed)} true block pairs not rejected: "
                        f"{missed[:3]}")
    false = sum(1 for pair, rej in zip(got, rejected)
                if rej and pair not in true_pairs)
    if false > max_false:
        problems.append(f"{false} false block rejections > {max_false}")
    return problems


# ---------------------------------------------------------------------------
# layer checks

def check_kkt(y, alpha, lambdas, tol: float = KKT_TOL):
    """Lasso KKT conditions of every node fit, from this file's own Y'r/n.

    For node j with residual r = -Y alpha_j: |Y_k'r/n| <= lambda_j where
    alpha_jk = 0, and Y_k'r/n = lambda_j sign(alpha_jk) elsewhere (k != j).
    """
    n = y.shape[0]
    corr = y.T @ -(y @ alpha.T) / n  # corr[k, j] = Y_k' r_j / n
    viol = np.where(alpha.T == 0.0, np.abs(corr) - lambdas[None, :],
                    np.abs(corr - lambdas[None, :] * np.sign(alpha.T)))
    np.fill_diagonal(viol, -np.inf)
    worst = float(viol.max())
    if worst > tol:
        j = int(np.argmax(viol.max(axis=0)))
        return [f"node {j + 1} violates its KKT conditions by {worst:.3g}"]
    return []


def direct_w(x, h, s_n: float, truncation_eps: float):
    """h^2 (g_0 + 2 sum_k K(k/s_n) g_k) for one score column x, with the lag-k
    autocovariance g_k = sum_t x_t x_{t-k} / n summed directly; kernel
    weights below ``truncation_eps`` in size are dropped, as the estimator
    defines them."""
    n = x.shape[0]
    weights = qs_kernel(np.arange(1, n) / s_n)
    total = x @ x / n
    for k, wk in enumerate(weights, start=1):
        if abs(wk) >= truncation_eps:
            total += 2.0 * wk * (x[k:] @ x[:-k]) / n
    return h * h * total


def check_w_diag(cols, h, s_n: float, truncation_eps: float, w_prog):
    """The program's w_diag on sampled score columns against direct sums,
    to W_RTOL of the larger of the sum and its lag-0 term.

    A non-positive direct sum must come back floored: positive and about
    1e-8 of the lag-0 term.
    """
    problems = []
    n = cols.shape[0]
    for j in range(cols.shape[1]):
        want = direct_w(cols[:, j], h[j], s_n, truncation_eps)
        got = float(w_prog[j])
        base = h[j] ** 2 * (cols[:, j] @ cols[:, j]) / n
        if want <= 0.0:
            ok = 0.0 < got <= 2e-8 * max(base, 1e-8)
        else:
            ok = abs(got - want) <= W_RTOL * max(want, base)
        if not ok:
            problems.append(f"w_diag {got:.12g} != direct {want:.12g} "
                            f"(sampled column {j})")
    return problems


def check_factor(factor, s_n: float, atol: float = FACTOR_ATOL):
    """L L' against A[i, j] = K(|i - j| / s_n) built from qs_kernel."""
    n = factor.shape[0]
    lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    err = float(np.abs(factor @ factor.T - qs_kernel(lag / s_n)).max())
    if not err <= atol:
        return [f"multiplier factor: max |L L' - A| = {err:.3g} (n = {n})"]
    return []
