"""Correctness checks of each workload's report, computed apart from ustatkit.

Every check holds for any seed: exact probabilities are compared with
Monte Carlo frequencies through a two-sided binomial test at level 1e-9,
and Monte Carlo estimates with their standard errors at six or more of
them.  `check(name, config, report)` returns the list of failures; an
empty list means the report is correct.  Only the Holder check calls into
ustatkit, to compare `holder_norm` with a plain pair scan on paths built
here.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

ALPHA = 1e-9  # two-sided level of every binomial test
Z = 6.0  # standard errors allowed for a Monte Carlo mean
REL = 1e-12  # relative tolerance of closed forms and of holder_norm
# Flat draw count of the program's Monte Carlo p-th moment table on the
# index-weighted path, which sets the error of that bound's third group.
WEIGHTED_MC_DRAWS = 16384


# ---------------------------------------------------------------------------
# helpers


def _log_factorials(n: int) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])


def binomial_consistent(freq: float, trials: int, prob: float) -> bool:
    """Is freq = k/trials a plausible Binomial(trials, prob) outcome?"""
    k = round(freq * trials)
    if abs(k - freq * trials) > 1e-6 * trials:
        return False
    if prob <= 0.0:
        return k == 0
    if prob >= 1.0:
        return k == trials
    lf = _log_factorials(trials)
    ks = np.arange(trials + 1)
    pmf = np.exp(lf[trials] - lf[ks] - lf[trials - ks]
                 + ks * math.log(prob) + (trials - ks) * math.log1p(-prob))
    return min(pmf[:k + 1].sum(), pmf[k:].sum()) >= ALPHA


def _walk_law(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Values and probabilities of a sum of `steps` Rademacher signs."""
    ks = np.arange(steps + 1)
    lf = _log_factorials(steps)
    probs = np.exp(lf[steps] - lf[ks] - lf[steps - ks] - steps * math.log(2.0))
    return 2.0 * ks - steps, probs


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# maxdev-short: product kernel on Rademacher data


def exact_max_tail(n_grid, thresholds) -> np.ndarray:
    """P(max_{k<=N} |U_k| > t) for U_k = (W_k^2 - k)/2, by a walk DP.

    Returns shape (len(thresholds), len(n_grid)).  The DP carries the law
    of W_k over paths that have not yet exceeded t.
    """
    n_max = max(n_grid)
    w = np.arange(-n_max, n_max + 1, dtype=np.float64)
    t = np.asarray(thresholds, dtype=np.float64)[:, None]
    alive = np.zeros((t.shape[0], w.size))
    alive[:, n_max] = 1.0
    out = np.zeros((t.shape[0], len(n_grid)))
    for k in range(1, n_max + 1):
        step = np.zeros_like(alive)
        step[:, 1:] += 0.5 * alive[:, :-1]
        step[:, :-1] += 0.5 * alive[:, 1:]
        alive = np.where(np.abs((w * w - k) / 2.0) > t, 0.0, step)
        if k in n_grid:
            out[:, list(n_grid).index(k)] = 1.0 - alive.sum(axis=1)
    return out


def _check_maxdev(config, report) -> list[str]:
    fails = []
    n_grid = list(config["n_grid"])
    reps = config["replications"]
    p = config["p"]
    q = config.get("q", p)
    rows = report["rows"]
    t_grid = sorted({row["t"] for row in rows})
    if len(rows) != len(t_grid) * len(n_grid):
        fails.append("rows do not cover t_grid x n_grid")
    exact = exact_max_tail(n_grid, t_grid)

    def integral(s):
        return min(1.0, 1.0 / s) ** q / q

    for row in rows:
        t, n = row["t"], row["N"]
        prob = exact[t_grid.index(t), n_grid.index(n)]
        if not binomial_consistent(row["lhs"], reps, prob):
            fails.append(f"lhs {row['lhs']} at t={t}, N={n}: exact probability {prob:.6g}")
        rhs = (n * n * integral(t) + 2 * n * integral(t / n ** (1.0 / p))
               + t ** (-q) * n ** (2 * q / p))
        if not _rel_close(row["rhs"], rhs):
            fails.append(f"rhs {row['rhs']!r} at t={t}, N={n}: closed form {rhs!r}")
    return fails


# ---------------------------------------------------------------------------
# holder-long-t2: product kernel on Rademacher data, one long horizon


def exact_increment_exceedance(a: int, b: int, threshold: float) -> float:
    """P(|U_b - U_a| > threshold), U_b - U_a = (2 W_a D + D^2 - (b - a))/2.

    W_a and the increment D = W_b - W_a are independent walk sums.
    """
    wa, pa = _walk_law(a)
    dv, pd = _walk_law(b - a)
    inc = np.abs(2.0 * wa[:, None] * dv[None, :] + dv * dv - (b - a)) / 2.0
    return float(pa @ (inc > threshold) @ pd)


def _terminal_quantile_floor(n: int, reps: int) -> float:
    """A value the sample median of `reps` Holder norms exceeds w.p. 1 - ALPHA.

    The norm is at least |x(1) - x(0)| = |U_n|/n, so the sample median is
    at least the ceil(reps/2)-th order statistic of a law above |U_n|/n.
    """
    w, pw = _walk_law(n)
    vals = np.abs((w * w - n) / 2.0) / n
    order = np.argsort(vals, kind="stable")
    vals, pw = vals[order], pw[order]
    need = math.ceil(reps / 2)
    lf = _log_factorials(reps)
    ks = np.arange(need, reps + 1)
    best = 0.0
    for c in vals:
        below = float(pw[vals < c].sum())
        if below > 0.0:
            if below >= 1.0:
                break
            tail = np.exp(lf[reps] - lf[ks] - lf[reps - ks]
                          + ks * math.log(below) + (reps - ks) * math.log1p(-below)).sum()
            if tail > ALPHA:
                break
        best = c
    return float(best)


def plain_pair_scan(y: np.ndarray, alpha: float) -> float:
    """|y_0| + max over breakpoint pairs of |y_j - y_i| / ((j - i)/n)^alpha."""
    n = y.size - 1
    best = 0.0
    for lag in range(1, n + 1):
        best = max(best, float(np.abs(y[lag:] - y[:-lag]).max()) / (lag / n) ** alpha)
    return abs(float(y[0])) + best


def _holder_norm_agrees(alpha: float, n: int, seed: int, paths: int = 3) -> list[str]:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from ustatkit.holder import holder_norm

    fails = []
    rng = np.random.default_rng([seed, 0x401D])
    for i in range(paths):
        walk = np.concatenate([[0.0], np.cumsum(rng.choice([-1.0, 1.0], size=n))])
        y = (walk * walk - np.arange(n + 1)) / 2.0 / n
        got, want = holder_norm(y, alpha), plain_pair_scan(y, alpha)
        if not _rel_close(got, want):
            fails.append(f"holder_norm {got!r} on path {i}: pair scan gives {want!r}")
    return fails


def _check_holder(config, report) -> list[str]:
    fails = []
    (n,) = config["n_grid"]
    alpha, d, reps = config["alpha"], config["d"], config["replications"]
    details = report["details"]
    eps = details["eps"]
    j_max = int(math.floor(math.log2(n)))
    cells = details["cells"]
    if len(cells) != 2 ** (j_max + 1) - 1:
        fails.append(f"{len(cells)} dyadic cells, expected {2 ** (j_max + 1) - 1}")
    scale = float(n) ** (d / 2.0)
    for cell in cells:
        j, k = cell["j"], cell["k"]
        a, b = (n * k) >> j, (n * (k + 1)) >> j
        if (cell["low"], cell["high"]) != (a, b):
            fails.append(f"cell ({j},{k}) spans [{cell['low']},{cell['high']}], not [{a},{b}]")
            continue
        prob = exact_increment_exceedance(a, b, scale * 2.0 ** (-alpha * j) * eps)
        if not binomial_consistent(cell["frequency"], reps, prob):
            fails.append(f"cell ({j},{k}) frequency {cell['frequency']}: "
                         f"exact probability {prob:.6g}")
    floor = _terminal_quantile_floor(n, reps)
    for row in details["quantiles"]:
        if row["median"] < floor:
            fails.append(f"median Holder norm {row['median']} below {floor} "
                         f"(median of |U_N|/N less its sampling tolerance)")
    fails += _holder_norm_agrees(alpha, n, config["seed"])
    return fails


# ---------------------------------------------------------------------------
# weighted-gauss: x1 x2 / (i1 + i2) on Gaussian data


def simulate_weighted_maxima(n_grid, reps: int, seed: int) -> np.ndarray:
    """max_{k<=N} |sum_{i<j<=k} x_i x_j / (i + j)|, shape (reps, len(n_grid))."""
    n_max = max(n_grid)
    x = np.random.default_rng([seed, 0x3E16]).standard_normal((reps, n_max))
    idx = np.arange(1, n_max + 1, dtype=np.float64)
    weight = np.triu(1.0 / (idx[:, None] + idx[None, :]), k=1)
    prefix = np.cumsum(x * (x @ weight), axis=1)
    running = np.maximum.accumulate(np.abs(prefix), axis=1)
    return running[:, [n - 1 for n in n_grid]]


def gaussian_abs_moment(p: float) -> float:
    """E|X|^p for a standard Gaussian X."""
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def _check_weighted(config, report, own_reps: int = 20_000) -> list[str]:
    fails = []
    n_grid = list(config["n_grid"])
    reps = config["replications"]
    p = config["p"]
    q = config.get("q", p)
    rows = report["rows"]
    t_grid = sorted({row["t"] for row in rows})
    if len(rows) != len(t_grid) * len(n_grid):
        fails.append("rows do not cover t_grid x n_grid")
    maxima = simulate_weighted_maxima(n_grid, own_reps, config["seed"])
    m_p, m_2p = gaussian_abs_moment(p), gaussian_abs_moment(2 * p)
    rel_se = math.sqrt(m_2p ** 2 - m_p ** 4) / (m_p ** 2 * math.sqrt(WEIGHTED_MC_DRAWS))
    weight_sums = {n: sum((i + j) ** (-p) for j in range(2, n + 1) for i in range(1, j))
                   for n in n_grid}
    for row in rows:
        t, n = row["t"], row["N"]
        mine = float(np.mean(maxima[:, n_grid.index(n)] > t))
        pooled = (row["lhs"] * reps + mine * own_reps) / (reps + own_reps)
        pooled = min(max(pooled, 1.0 / reps), 1.0 - 1.0 / reps)
        tol = Z * math.sqrt(pooled * (1 - pooled) * (1 / reps + 1 / own_reps)) + 1.0 / reps
        if abs(row["lhs"] - mine) > tol:
            fails.append(f"lhs {row['lhs']} at t={t}, N={n}: direct simulation {mine}")
        third = t ** (-q) * (m_p ** 2 * weight_sums[n]) ** (q / p)
        floor = third * (1.0 - Z * rel_se) ** (q / p)
        if not (math.isfinite(row["rhs"]) and row["rhs"] >= floor):
            fails.append(f"rhs {row['rhs']} at t={t}, N={n}: below the third group "
                         f"{third:.6g} less its Monte Carlo error")
    return fails


# ---------------------------------------------------------------------------
# incomplete-sparse: Bernoulli designs, product kernel on Rademacher data


def _check_incomplete(config, report) -> list[str]:
    fails = []
    if config["q"] != 2.0:
        return ["the exact second moment needs q = 2"]
    rows = report["rows"]
    if [(row["n"], row["p_n"]) for row in rows] != [tuple(c) for c in config["grid"]]:
        fails.append("rows do not follow the (n, p_n) grid")
    for row in rows:
        exact = math.comb(row["n"], 2) * row["p_n"]
        se = row["standard_error"]
        if not (se > 0 and abs(row["moment_estimate"] - exact) <= Z * se):
            fails.append(f"moment_estimate {row['moment_estimate']} at n={row['n']}: "
                         f"exact {exact}, standard error {se}")
    return fails


CHECKS = {
    "maxdev-short": _check_maxdev,
    "holder-long-t2": _check_holder,
    "weighted-gauss": _check_weighted,
    "incomplete-sparse": _check_incomplete,
}


def check(name: str, config: dict, report: dict) -> list[str]:
    """Failures of workload `name`'s report; empty when it is correct."""
    fails = [] if report.get("passed") is True else ["verdict is not PASS"]
    return fails + CHECKS[name](config, report)
