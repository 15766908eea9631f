"""Thirteen end-to-end checks, one labeled PASS/FAIL line each.

Run `pytest -s tests/test_acceptance.py` to read the checklist directly;
without -s the same lines appear in captured output.  Every test carries
its own wall-clock budget, so a slow run fails loudly instead of silently
overrunning.  The heavyweight experiment reports are cached per thread
count because the determinism test at the end re-runs them all.
"""

import json
import math
import time

import numpy as np
from scipy import integrate, stats

from ustatkit.combinatorics import (
    count_tuples,
    enumerate_tuples,
    rank_tuple,
    unrank_many,
)
from ustatkit.harness import ExperimentConfig, run_experiment
from ustatkit.hoeffding import (
    check_degeneracy,
    project_degenerate_level,
    reconstruct_identity_check,
)
from ustatkit.holder import holder_norm, holder_norm_grid
from ustatkit.incomplete import (
    SamplingDesign,
    bernoulli_sum_moment_check,
    draw_design,
    incomplete_ustat,
)
from ustatkit.kernels import (
    Distribution,
    builtin_kernel,
    kernel_from_expression,
    stream,
)
from ustatkit.tails import EmpiricalTail, tail_integral, weak_lp_norm
from ustatkit.ustat import complete_ustat, decomposition_identity_check

from recipes import _RECIPES


def _conclude(num, label, checks):
    """Print the verdict line, then raise with every broken condition."""
    bad = [msg for ok, msg in checks if not ok]
    print(f"criterion {num:02d} {label}: {'PASS' if not bad else 'FAIL'}")
    assert not bad, f"criterion {num:02d} {label}: " + "; ".join(bad)


# ---------------------------------------------------------------------------
# reports of the frozen recipes, cached for the determinism test

_REPORT_CACHE = {}


def _experiment(key, threads):
    cached = _REPORT_CACHE.get((key, threads))
    if cached is None:
        raw = dict(_RECIPES[key])
        raw["threads"] = threads
        cached = run_experiment(ExperimentConfig.from_dict(raw))
        _REPORT_CACHE[(key, threads)] = cached
    return cached


def _positive_spread(rows):
    ratios = [row["ratio"] for row in rows]
    positive = [r for r in ratios if r > 0.0]
    return (max(positive) / min(positive)) if positive else math.inf


# ---------------------------------------------------------------------------
# 1: exhaustive enumeration/rank/unrank round-trip


def test_criterion_01_combinatorics_round_trip():
    t0 = time.perf_counter()
    rank_misses = 0
    unrank_misses = 0
    count_misses = 0
    for n in range(17):
        for m in range(n + 1):
            tuples = list(enumerate_tuples(n, m))
            if len(tuples) != count_tuples(n, m):
                count_misses += 1
            for k, t in enumerate(tuples):
                if rank_tuple(t) != k:
                    rank_misses += 1
            if m == 0:
                continue
            cols = unrank_many(np.arange(len(tuples)), n, m)
            rebuilt = np.stack(cols, axis=1)
            if not np.array_equal(rebuilt, np.asarray(tuples)):
                unrank_misses += 1
    elapsed = time.perf_counter() - t0
    _conclude(1, "combinatorics round-trip", [
        (count_misses == 0, f"{count_misses} enumeration counts off"),
        (rank_misses == 0, f"{rank_misses} rank mismatches"),
        (unrank_misses == 0, f"{unrank_misses} unrank mismatches"),
        (elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"),
    ])


# ---------------------------------------------------------------------------
# 2: subset-projection reconstruction on finite laws


def test_criterion_02_reconstruction_identity():
    t0 = time.perf_counter()
    three = Distribution.finite([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])
    spread3 = Distribution.finite([-1.0, 0.0, 2.0], [0.3, 0.4, 0.3])
    halves = Distribution.finite([0.5, 2.5], [0.5, 0.5])
    pairs = [
        (builtin_kernel("product", 2), Distribution.rademacher()),
        (builtin_kernel("sum", 2), three),
        (builtin_kernel("covariance", 2), spread3),
        (builtin_kernel("sign", 2), three),
        (builtin_kernel("centered-product", 2, mu=1.5), halves),
        (kernel_from_expression("x1 * x2 + 2 * x1 + 2 * x2", 2, symmetric=True),
         Distribution.rademacher()),
        (kernel_from_expression("(x1 - x2) ^ 2", 2, symmetric=True), three),
        (builtin_kernel("product", 3), Distribution.rademacher()),
        (builtin_kernel("sum", 3), spread3),
        (kernel_from_expression("x1 * x2 * x3 + x1 + x2 + x3", 3, symmetric=True),
         Distribution.rademacher()),
    ]
    checks = []
    for i, (h, dist) in enumerate(pairs):
        chk = reconstruct_identity_check(h, dist, samples=32, seed=200 + i)
        checks.append((chk.exact, f"pair {i} fell back to Monte Carlo"))
        checks.append((chk.max_deviation <= 1e-10,
                       f"pair {i} deviated {chk.max_deviation:.3e}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"))
    _conclude(2, "reconstruction identity", checks)


# ---------------------------------------------------------------------------
# 3: complete sum equals the weighted level decomposition


def test_criterion_03_decomposition_identity():
    t0 = time.perf_counter()
    three = Distribution.finite([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])
    cases = [
        (builtin_kernel("product", 2), three, 8),
        (builtin_kernel("sum", 2), three, 8),
        (kernel_from_expression("(x1 - x2) ^ 2", 2, symmetric=True), three, 8),
        (builtin_kernel("product", 3), Distribution.rademacher(), 7),
        (kernel_from_expression("x1 + x2 + x3 + x1 * x2 * x3", 3, symmetric=True),
         Distribution.rademacher(), 7),
    ]
    checks = []
    for i, (h, dist, n) in enumerate(cases):
        sample = dist.sample(stream(300 + i, "acceptance-decomp"), n)
        chk = decomposition_identity_check(h, dist, sample, seed=i)
        checks.append((chk.deviation <= 1e-8,
                       f"kernel {i} deviated {chk.deviation:.3e}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"))
    _conclude(3, "decomposition identity", checks)


# ---------------------------------------------------------------------------
# 4: degeneracy certification at the stated Monte Carlo budget


def test_criterion_04_degeneracy_certification():
    t0 = time.perf_counter()
    gauss = Distribution.gaussian()
    unif = Distribution.uniform(-1.0, 1.0)
    cases = [
        ("product m=2 gaussian", builtin_kernel("product", 2), gauss, 2),
        ("product m=3 gaussian", builtin_kernel("product", 3), gauss, 3),
        ("product m=2 uniform", builtin_kernel("product", 2), unif, 2),
        ("sum m=2 gaussian", builtin_kernel("sum", 2), gauss, 1),
        ("sum m=3 gaussian", builtin_kernel("sum", 3), gauss, 1),
    ]
    checks = []
    for i, (name, h, dist, want) in enumerate(cases):
        rep = check_degeneracy(h, dist, inner=1024, outer=1024, seed=400 + i)
        checks.append((rep.order == want,
                       f"{name}: order {rep.order}, wanted {want}"))
        checks.append((rep.degenerate == (want == h.arity),
                       f"{name}: degenerate flag {rep.degenerate}"))

    # projected components keep their own Monte Carlo table, so the
    # degeneracy test combines the conditioning-sample error with the
    # component's internal standard error
    h = kernel_from_expression("x1 * x2 + x1 + x2", 2, symmetric=True)
    comp = project_degenerate_level(h, 2, gauss, inner=2048, seed=44)
    x_grid = gauss.sample(stream(2, "xg"), 64)
    ysamp = gauss.sample(stream(2, "ys"), 512)
    cols = [x_grid[:, None], ysamp[None, :]]
    vals = comp.evaluate_batch(cols)
    cond = vals.mean(axis=1)
    se = vals.std(axis=1, ddof=1) / math.sqrt(len(ysamp))
    se = se + comp.standard_error_batch(cols).mean(axis=1)
    worst = float(np.max(np.abs(cond) / se))
    checks.append((worst <= 3.0,
                   f"level-2 component conditional mean at {worst:.2f} SE"))

    comp1 = project_degenerate_level(builtin_kernel("sum", 2), 1, unif,
                                     inner=2048, seed=46)
    xs = unif.sample(stream(3, "xs"), 4096)
    v1 = comp1.evaluate_batch([xs])
    se1 = v1.std(ddof=1) / math.sqrt(len(xs))
    se1 = se1 + float(comp1.standard_error_batch([xs]).mean())
    z1 = abs(float(v1.mean())) / se1
    checks.append((z1 <= 3.0, f"level-1 component mean at {z1:.2f} SE"))

    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"))
    _conclude(4, "degeneracy certification", checks)


# ---------------------------------------------------------------------------
# 5: tail integral vs quadrature, weak norm vs order-statistic scan


def test_criterion_05_tail_functionals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(555)
    worst_quad = 0.0
    for _ in range(100):
        size = int(rng.integers(1, 400))
        values = rng.gamma(2.0, 1.0, size)
        tail = EmpiricalTail.from_samples(values)
        t = float(rng.uniform(0.2, 3.0))
        q = float(rng.uniform(0.5, 4.0))
        got = tail_integral(tail, t, q)

        def integrand(u, _t=t, _q=q, _tail=tail):
            return u ** (_q - 1.0) * _tail.survival(_t * u)

        breaks = sorted({float(v) / t for v in tail.values if 0.0 < v / t < 1.0})
        want, _ = integrate.quad(integrand, 0.0, 1.0, points=breaks,
                                 limit=len(breaks) + 100)
        worst_quad = max(worst_quad, abs(got - want))

    # power-of-two sample sizes keep every weight dyadic, so the scan over
    # order statistics and the library suffix sums round identically and
    # equality is bit-for-bit
    weak_misses = 0
    for _ in range(100):
        size = 2 ** int(rng.integers(1, 11))
        values = np.abs(rng.standard_normal(size))
        p = float(rng.uniform(0.5, 4.0))
        tail = EmpiricalTail.from_samples(values)
        v = np.sort(values)
        brute = float(np.max(v**p * ((size - np.arange(size)) * (1.0 / size))))
        if brute != weak_lp_norm(tail, p):
            weak_misses += 1

    elapsed = time.perf_counter() - t0
    _conclude(5, "tail functionals", [
        (worst_quad <= 1e-10, f"quadrature gap {worst_quad:.3e}"),
        (weak_misses == 0, f"{weak_misses} weak-norm mismatches"),
        (elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"),
    ])


# ---------------------------------------------------------------------------
# 6: deviation bound stability and scale invariance


def test_criterion_06_deviation_stability():
    t0 = time.perf_counter()
    rep = _experiment("deviation", 1)
    scaled = _experiment("deviation-scaled", 1)
    checks = [
        (math.isfinite(rep.fitted_constant),
         f"fitted constant {rep.fitted_constant}"),
        (rep.stability <= 10.0, f"stability {rep.stability:.3f} above 10"),
        (rep.passed, "report flagged itself failed"),
    ]
    worst_rel = 0.0
    for a, b in zip(rep.rows, scaled.rows):
        ref = max(abs(a["ratio"]), abs(b["ratio"]))
        if ref > 0.0:
            worst_rel = max(worst_rel, abs(a["ratio"] - b["ratio"]) / ref)
    checks.append((worst_rel <= 1e-12,
                   f"scaling moved ratios by {worst_rel:.3e} relative"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"))
    _conclude(6, "deviation stability", checks)


# ---------------------------------------------------------------------------
# 7: moment bound ratio across horizons at q = p


def test_criterion_07_moment_ratio():
    t0 = time.perf_counter()
    checks = []
    for key in ("moment-p15", "moment-p20"):
        rep = _experiment(key, 1)
        ratios = [row["ratio"] for row in rep.rows]
        spread = _positive_spread(rep.rows)
        checks.append((all(r > 0.0 and math.isfinite(r) for r in ratios),
                       f"{key}: degenerate ratios {ratios}"))
        checks.append((spread <= 3.0, f"{key}: spread {spread:.3f} above 3"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"))
    _conclude(7, "moment ratio", checks)


# ---------------------------------------------------------------------------
# 8: weak-norm ratio stability and terminal decay


def test_criterion_08_weak_norm_stability():
    t0 = time.perf_counter()
    rep = _experiment("lln", 1)
    spread = _positive_spread(rep.rows)
    medians = [row["terminal_median"] for row in rep.rows]
    decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    elapsed = time.perf_counter() - t0
    _conclude(8, "weak-norm stability", [
        (spread <= 3.0, f"ratio spread {spread:.3f} above 3"),
        (decreasing, f"terminal medians not decreasing: {medians}"),
        (elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"),
    ])


# ---------------------------------------------------------------------------
# 9: exact Holder norm vs fine uniform grid

# segment counts divide 20000, so with 20001 evaluation points (spacing
# 1/20000) every breakpoint sits on the oracle grid and corner ratios are
# sampled exactly; interior optima are then second order in the spacing
_SEGMENT_POOL = (2, 4, 5, 8, 10, 16, 20, 25, 32, 40, 50,
                 80, 100, 125, 160, 200, 250, 400, 500)


def test_criterion_09_holder_norm_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    below = 0
    worst_gap = 0.0
    for _ in range(100):
        nseg = int(rng.choice(_SEGMENT_POOL))
        start = float(rng.normal()) * 0.5
        y = start + np.concatenate(
            [[0.0], np.cumsum(rng.standard_normal(nseg))]) / math.sqrt(nseg)
        alpha = float(rng.uniform(0.1, 0.9))
        exact = holder_norm(y, alpha)
        grid = holder_norm_grid(y, alpha, points=20001)
        if exact < grid - 1e-12:
            below += 1
        worst_gap = max(worst_gap, abs(exact - grid))
    tent = holder_norm([0.0, 1.0, 0.0], 0.5)
    elapsed = time.perf_counter() - t0
    _conclude(9, "holder norm oracle", [
        (below == 0, f"{below} paths fell below the grid lower bound"),
        (worst_gap <= 1e-6, f"worst grid gap {worst_gap:.3e}"),
        (abs(tent - math.sqrt(2.0)) <= 1e-12,
         f"tent path gave {tent!r}"),
        (elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"),
    ])


# ---------------------------------------------------------------------------
# 10: dyadic increment tension decays across window scales


def test_criterion_10_holder_tension():
    t0 = time.perf_counter()
    rep = _experiment("holder", 1)
    curve = [row["tail_sum"] for row in rep.rows if 2 <= row["J"] <= 6]
    decreasing = all(b < a for a, b in zip(curve, curve[1:]))
    eps = rep.details.get("eps", 0.0)
    elapsed = time.perf_counter() - t0
    _conclude(10, "holder tension", [
        (len(curve) == 5, f"window truncated to {len(curve)} scales"),
        (decreasing, f"tail sums not strictly decreasing: {curve}"),
        (eps > 0.0, f"calibrated threshold {eps}"),
        (rep.passed, "report flagged itself failed"),
        (elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"),
    ])


# ---------------------------------------------------------------------------
# 11: incomplete designs: full-rate identity, uniformity, moment lemma


def test_criterion_11_incomplete_designs():
    t0 = time.perf_counter()
    checks = []

    h = builtin_kernel("product", 2)
    sample = Distribution.gaussian().sample(stream(61, "full-rate"), 12)
    ws = draw_design(SamplingDesign.bernoulli(1.0), 12, 2, seed=62)
    full = incomplete_ustat(h, sample, ws)
    complete = complete_ustat(h, sample)
    checks.append((full.value == complete.value and full.terms == complete.terms,
                   "full-rate Bernoulli differed from the complete sum"))

    # without-replacement draws leave each rank equally likely; the
    # occupancy chi-square needs the (K-1)/(K-N) correction for the
    # negative correlation inside one draw
    n, m, per_draw, reps = 8, 2, 7, 3000
    total = count_tuples(n, m)
    counts = np.zeros(total)
    for rep in range(reps):
        ws = draw_design(SamplingDesign.without_replacement(per_draw),
                         n, m, stream(63, "acceptance-gof", rep))
        counts[ws.ranks] += 1
    expected = reps * per_draw / total
    x2 = float(((counts - expected) ** 2 / expected).sum())
    x2_adj = x2 * (total - 1) / (total - per_draw)
    pvalue = float(stats.chi2.sf(x2_adj, df=total - 1))
    checks.append((pvalue > 0.001, f"occupancy fit p={pvalue:.5f}"))

    ratios = []
    for y in (0.05, 0.1, 0.3):
        chk = bernoulli_sum_moment_check(8, 8, y, p=1.5, q=3.0,
                                         replications=20000, seed=13)
        ratios.append(chk.ratio)
    lemma_spread = max(ratios) / min(ratios)
    checks.append((lemma_spread <= 3.0,
                   f"moment-lemma constant spread {lemma_spread:.3f}"))

    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"))
    _conclude(11, "incomplete designs", checks)


# ---------------------------------------------------------------------------
# 12: incomplete moment growth at two sparsity regimes


def test_criterion_12_incomplete_moment_growth():
    t0 = time.perf_counter()
    checks = []
    for key in ("incomplete-linear", "incomplete-quadratic"):
        rep = _experiment(key, 1)
        spread = _positive_spread(rep.rows)
        checks.append((spread <= 5.0, f"{key}: spread {spread:.3f} above 5"))
        checks.append((rep.passed, f"{key}: report flagged itself failed"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"))
    _conclude(12, "incomplete moment growth", checks)


# ---------------------------------------------------------------------------
# 13: byte-identical reports across thread counts


def test_criterion_13_thread_determinism():
    checks = []
    for key in ("deviation", "moment-p15", "moment-p20", "lln", "holder",
                "incomplete-linear", "incomplete-quadratic"):
        one = json.dumps(_experiment(key, 1).to_dict(), sort_keys=True)
        eight = json.dumps(_experiment(key, 8).to_dict(), sort_keys=True)
        checks.append((one == eight, f"{key}: reports differ across threads"))

    # the remaining criteria run single paths with no thread knob; their
    # determinism contract is byte-identical repetition under a fixed seed
    gauss = Distribution.gaussian()
    h2 = builtin_kernel("product", 2)
    rep_a = json.dumps(check_degeneracy(h2, gauss, inner=256, outer=256,
                                        seed=77).to_dict(), sort_keys=True)
    rep_b = json.dumps(check_degeneracy(h2, gauss, inner=256, outer=256,
                                        seed=77).to_dict(), sort_keys=True)
    checks.append((rep_a == rep_b, "degeneracy report not repeatable"))

    chk_a = reconstruct_identity_check(h2, gauss, samples=16, inner=128, seed=9)
    chk_b = reconstruct_identity_check(h2, gauss, samples=16, inner=128, seed=9)
    checks.append((chk_a == chk_b, "reconstruction check not repeatable"))

    ws_a = draw_design(SamplingDesign.without_replacement(9), 9, 2, seed=31)
    ws_b = draw_design(SamplingDesign.without_replacement(9), 9, 2, seed=31)
    checks.append((np.array_equal(ws_a.ranks, ws_b.ranks),
                   "design draw not repeatable"))

    lem_a = bernoulli_sum_moment_check(4, 6, 0.1, p=2.0, q=2.0,
                                       replications=500, seed=5)
    lem_b = bernoulli_sum_moment_check(4, 6, 0.1, p=2.0, q=2.0,
                                       replications=500, seed=5)
    checks.append((lem_a.ratio == lem_b.ratio,
                   "moment-lemma check not repeatable"))

    _conclude(13, "thread determinism", checks)
