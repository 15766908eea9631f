"""Subsampling designs, incomplete sums, and the subsampled moment bound."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ustatkit import incomplete, ustat
from ustatkit.combinatorics import count_tuples, rank_tuple
from ustatkit.harness import ExperimentConfig, run_experiment
from ustatkit.incomplete import (
    SamplingDesign,
    WeightSet,
    bernoulli_sum_moment_check,
    draw_design,
    incomplete_ustat,
)
from ustatkit.kernels import Distribution, Kernel, builtin_kernel, stream
from ustatkit.spaces import BanachSpaceDescriptor
from ustatkit.ustat import EvaluationBudgetError, complete_ustat


# ---------------------------------------------------------------------------
# designs


def test_design_validation():
    with pytest.raises(ValueError):
        SamplingDesign("bogus")
    with pytest.raises(ValueError):
        SamplingDesign.bernoulli(1.5)
    with pytest.raises(ValueError):
        SamplingDesign("bernoulli", rate=0.5, draws=3)
    with pytest.raises(ValueError):
        SamplingDesign("without_replacement", draws=-1)
    with pytest.raises(ValueError):
        SamplingDesign("without_replacement", draws=3, rate=0.5)


def test_design_dict_round_trip():
    for d in [
        SamplingDesign.bernoulli(0.25),
        SamplingDesign.without_replacement(10),
        SamplingDesign.with_replacement(7),
    ]:
        assert SamplingDesign.from_dict(d.to_dict()) == d
    with pytest.raises(ValueError):
        SamplingDesign.from_dict({"variant": "bernoulli"})
    with pytest.raises(ValueError):
        SamplingDesign.from_dict({"variant": "without_replacement"})


def test_without_replacement_counts_and_distinctness():
    design = SamplingDesign.without_replacement(10)
    ws = draw_design(design, 8, 2, seed=1)
    assert ws.size == 10
    assert ws.total_weight == 10
    assert np.all(np.diff(ws.ranks) > 0)
    assert np.all(ws.weights == 1)
    with pytest.raises(ValueError):
        draw_design(SamplingDesign.without_replacement(29), 8, 2, seed=1)


def test_with_replacement_weights_sum_to_draws():
    design = SamplingDesign.with_replacement(40)
    ws = draw_design(design, 8, 2, seed=2)
    assert ws.total_weight == 40
    assert ws.size <= 28


def test_bernoulli_count_matches_binomial_moments():
    total = count_tuples(8, 2)
    rate = 0.3
    sizes = []
    for rep in range(1000):
        ws = draw_design(SamplingDesign.bernoulli(rate),
                         8, 2, stream(5, "bern", rep))
        sizes.append(ws.size)
    sizes = np.asarray(sizes, dtype=np.float64)
    want_mean = total * rate
    want_sd = math.sqrt(total * rate * (1 - rate))
    assert abs(sizes.mean() - want_mean) <= 3.0 * want_sd / math.sqrt(1000)
    assert sizes.min() >= 0 and sizes.max() <= total


def test_bernoulli_ranks_uniform_goodness_of_fit():
    # with N kept out of K tuples each distinct rank is equally likely;
    # pool many draws and chi-square the per-rank occupancy counts,
    # scaling by (K-1)/(K-N) for the without-replacement correlation
    n, m = 8, 2
    total = count_tuples(n, m)
    per_draw = 7
    reps = 3000
    counts = np.zeros(total)
    for rep in range(reps):
        ws = draw_design(SamplingDesign.without_replacement(per_draw),
                         n, m, stream(11, "gof", rep))
        counts[ws.ranks] += 1
    expected = reps * per_draw / total
    x2 = float(((counts - expected) ** 2 / expected).sum())
    x2_adj = x2 * (total - 1) / (total - per_draw)
    pvalue = stats.chi2.sf(x2_adj, df=total - 1)
    assert pvalue > 0.001, (x2_adj, pvalue)


def test_rank_extremes_reachable():
    # full-rate bernoulli keeps everything; zero rate keeps nothing
    ws_all = draw_design(SamplingDesign.bernoulli(1.0), 7, 2, seed=3)
    assert ws_all.size == count_tuples(7, 2)
    ws_none = draw_design(SamplingDesign.bernoulli(0.0), 7, 2, seed=3)
    assert ws_none.size == 0


def _floyd_one_draw_per_step(rng, total, count):
    """Floyd's algorithm with one scalar rng.integers call per step: the oracle."""
    if count == total:
        return np.arange(total, dtype=np.int64)
    chosen = set()
    for j in range(total - count, total):
        t = int(rng.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return np.sort(np.fromiter(chosen, dtype=np.int64, count=count))


@st.composite
def _floyd_cases(draw):
    # tiny totals force repeated draws (the set-rule path); totals past
    # 2^32 take numpy's 64-bit bounded path
    total = draw(
        st.integers(0, 12)
        | st.integers(13, 2**32)
        | st.integers(2**32 + 1, incomplete._RANK_SPACE_LIMIT)
    )
    edges = [c for c in (0, 1, total - 1, total) if 0 <= c <= min(total, 4096)]
    count = draw(st.sampled_from(edges) | st.integers(0, min(total, 2000)))
    return total, count


@settings(max_examples=300, deadline=None)
@given(_floyd_cases(), st.integers(0, 2**32))
@example((12, 9), 0)  # draws 0, 3 and 4 repeat
@example((2**40, 1000), 1)
@example((5, 4), 81)  # draws 0, 0, 2, 3: steps 3 and 4 draw a collided step
def test_distinct_ranks_match_scalar_floyd(case, seed):
    total, count = case
    rng, oracle_rng = stream(seed, "floyd"), stream(seed, "floyd")
    got = incomplete._distinct_ranks(rng, total, count)
    want = _floyd_one_draw_per_step(oracle_rng, total, count)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    # the generator is left where one draw per step leaves it
    assert rng.integers(0, 2**63) == oracle_rng.integers(0, 2**63)


def _halves_taken(rng):
    """Half words a fresh Philox generator has handed out (buffer of 4 words)."""
    state = rng.bit_generator.state
    words = 4 * (int(state["state"]["counter"][0]) - 1) + state["buffer_pos"]
    return 2 * words - state["has_uint32"]


@st.composite
def _lemire_batches(draw):
    # totals past 2^31 reject up to half their draws; 2^32 is the widest
    # bound that integers draws from half words
    total = draw(
        st.integers(1, 12)
        | st.integers(13, 2**31)
        | st.integers(2**31 + 1, 2**32)
        | st.just(2**32)
    )
    top = min(total, 4096)
    counts = draw(st.lists(
        st.sampled_from(sorted({1, top})) | st.integers(1, top), min_size=1, max_size=4))
    slack = draw(st.lists(st.integers(0, 3), min_size=len(counts), max_size=len(counts)))
    return total, counts, slack


@settings(max_examples=200, deadline=None)
@given(_lemire_batches(), st.integers(0, 2**32))
@example((2**31 + 1, [4096, 7], [0, 0]), 0)
@example((5, [5, 4, 1], [0, 1, 2]), 81)
def test_lemire_map_and_resolver_match_distinct_ranks(batch, seed):
    total, counts, slack = batch
    words = [stream(seed, "lemire", r).bit_generator.random_raw(-(-c // 2) + s)
             for r, (c, s) in enumerate(zip(counts, slack))]
    counts = np.array(counts)
    draws, short = incomplete._lemire_draws(words, counts, total)
    assert draws.dtype == np.int64 and draws.shape == (counts.sum(),)
    last = np.cumsum(counts)
    want = []
    for r, count in enumerate(counts.tolist()):
        rows = slice(last[r] - count, last[r])
        rng = stream(seed, "lemire", r)
        floyd = incomplete._floyd_draws(rng, total, count)
        if count < total:
            # a row runs short exactly when integers takes more half words
            assert short[r] == (_halves_taken(rng) > 2 * words[r].size)
        if not short[r] and count < total:
            assert np.array_equal(draws[rows], floyd)
        if short[r]:
            draws[rows] = floyd  # as the cell redraws such a row
        want.append(incomplete._distinct_ranks(stream(seed, "lemire", r), total, count))
    got = incomplete._floyd_ranks(draws, counts, total)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.concatenate(want))


@pytest.mark.parametrize("design", [
    SamplingDesign.bernoulli(0.5),
    SamplingDesign.without_replacement(20),
])
def test_over_cap_design_refused_before_ranks_are_drawn(monkeypatch, design):
    def never(*args):
        raise AssertionError("ranks drawn for an over-cap design")

    monkeypatch.setattr(ustat, "MAX_EVALUATION_TERMS", 10)
    monkeypatch.setattr(incomplete, "_distinct_ranks", never)
    # C(12, 2) = 66 tuples: at p_n = 1/2 the Binomial count is above 10
    with pytest.raises(EvaluationBudgetError, match="exceed the cap 10"):
        draw_design(design, 12, 2, seed=5)


def test_over_cap_cell_refused_before_ranks_are_drawn(monkeypatch):
    def never(*args):
        raise AssertionError("ranks drawn for an over-cap design")

    monkeypatch.setattr(ustat, "MAX_EVALUATION_TERMS", 10)
    monkeypatch.setattr(incomplete, "_distinct_ranks", never)
    monkeypatch.setattr(incomplete, "_row_words", never)
    h = builtin_kernel("product", 2)
    with pytest.raises(EvaluationBudgetError, match="exceed the cap 10"):
        incomplete.bernoulli_moment_cell(
            h, Distribution.rademacher(), h.codomain.norm, 2.0, 12, 0.5, 5, 0, 5)


def test_with_replacement_capped_on_distinct_count(monkeypatch):
    # 30 draws over C(3, 2) = 3 tuples merge to at most 3 distinct ones
    monkeypatch.setattr(ustat, "MAX_EVALUATION_TERMS", 10)
    ws = draw_design(SamplingDesign.with_replacement(30), 3, 2, seed=5)
    assert ws.size <= 3 and ws.total_weight == 30
    result = incomplete_ustat(builtin_kernel("product", 2), np.ones(3), ws)
    assert result.terms == ws.size


# ---------------------------------------------------------------------------
# weight sets


def test_weight_set_validation():
    with pytest.raises(ValueError):
        WeightSet(5, 2, np.array([3, 1]), np.array([1, 1]))
    with pytest.raises(ValueError):
        WeightSet(5, 2, np.array([0, 100]), np.array([1, 1]))
    with pytest.raises(ValueError):
        WeightSet(5, 2, np.array([0, 1]), np.array([1, -1]))


def test_weight_set_lookup_and_items():
    ranks = np.array([rank_tuple((0, 1)), rank_tuple((1, 3))])
    ws = WeightSet(5, 2, ranks, np.array([2, 5]))
    rows = ws.indices()
    assert rows.shape == (2, 2)


# ---------------------------------------------------------------------------
# incomplete evaluation


def test_full_bernoulli_equals_complete_bit_for_bit():
    h = builtin_kernel("product", 2)
    rng = np.random.default_rng(19)
    sample = rng.normal(size=10)
    ws = draw_design(SamplingDesign.bernoulli(1.0), 10, 2, seed=0)
    inc = incomplete_ustat(h, sample, ws)
    comp = complete_ustat(h, sample)
    assert inc.value == comp.value  # exact equality, same pipeline
    assert inc.terms == comp.terms


def test_incomplete_matches_direct_weighted_sum():
    h = builtin_kernel("product", 2)
    sample = np.array([1.0, -2.0, 0.5, 3.0])
    ws = WeightSet(4, 2,
                   np.array([rank_tuple((0, 1)), rank_tuple((2, 3))]),
                   np.array([2, 3]))
    got = incomplete_ustat(h, sample, ws).value
    want = 2 * (1.0 * -2.0) + 3 * (0.5 * 3.0)
    assert got == pytest.approx(want)


def test_incomplete_empty_selection():
    h = builtin_kernel("product", 2)
    ws = WeightSet(4, 2, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    res = incomplete_ustat(h, np.ones(4), ws)
    assert res.value == 0.0 and res.terms == 0


def test_incomplete_validates_arity_and_length():
    h = builtin_kernel("product", 3)
    ws = draw_design(SamplingDesign.without_replacement(2), 5, 2, seed=0)
    with pytest.raises(ValueError):
        incomplete_ustat(h, np.ones(5), ws)
    h2 = builtin_kernel("product", 2)
    with pytest.raises(ValueError):
        incomplete_ustat(h2, np.ones(3), ws)


def test_with_replacement_unbiased_for_complete_average():
    # E[subsampled sum / draws] equals U_n / C(n,m)
    h = builtin_kernel("product", 2)
    rng = np.random.default_rng(23)
    sample = rng.normal(size=9)
    target = complete_ustat(h, sample).value / count_tuples(9, 2)
    draws = 64
    reps = 2000
    vals = np.empty(reps)
    for rep in range(reps):
        ws = draw_design(SamplingDesign.with_replacement(draws),
                         9, 2, stream(29, "unb", rep))
        vals[rep] = incomplete_ustat(h, sample, ws).value / draws
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - target) <= 4.0 * se


# ---------------------------------------------------------------------------
# Bernoulli-sum moment check


def test_bernoulli_sum_moment_bound_holds():
    chk = bernoulli_sum_moment_check(4, 6, 0.1, p=2.0, q=2.0,
                                     replications=20000, seed=7)
    assert chk.ratio <= 1.0
    assert chk.estimate > 0


def test_bernoulli_sum_moment_degenerate_rates():
    chk0 = bernoulli_sum_moment_check(3, 3, 0.0, p=2.0, q=4.0,
                                      replications=100, seed=1)
    assert chk0.estimate == 0.0
    chk1 = bernoulli_sum_moment_check(3, 3, 1.0, p=2.0, q=2.0,
                                      replications=100, seed=1)
    # all entries are 1: Y = a b^p exactly
    assert chk1.estimate == pytest.approx(3.0 * 9.0)


def test_bernoulli_sum_moment_validation():
    with pytest.raises(ValueError):
        bernoulli_sum_moment_check(3, 3, 0.5, p=1.0, q=2.0)
    with pytest.raises(ValueError):
        bernoulli_sum_moment_check(3, 3, 0.5, p=2.0, q=1.5)
    with pytest.raises(ValueError):
        bernoulli_sum_moment_check(3, 3, 1.5, p=2.0, q=2.0)
    with pytest.raises(ValueError):
        bernoulli_sum_moment_check(0, 3, 0.5, p=2.0, q=2.0)


def test_bernoulli_constant_stable_across_rates():
    ratios = []
    for y in (0.05, 0.1, 0.3):
        chk = bernoulli_sum_moment_check(8, 8, y, p=1.5, q=3.0,
                                         replications=20000, seed=13)
        ratios.append(chk.ratio)
    assert max(ratios) / min(ratios) <= 3.0, ratios


# ---------------------------------------------------------------------------
# moment growth experiment


def _incomplete_moment(h, dist, grid, **fields):
    return run_experiment(ExperimentConfig(
        kernel=h, dist=dist, experiment="incomplete-moment", grid=tuple(grid), **fields))


def test_incomplete_moment_experiment_smoke():
    h = builtin_kernel("product", 2)
    report = _incomplete_moment(
        h, Distribution.rademacher(),
        grid=[(16, 0.25), (32, 0.125)],
        p=2.0, q=2.0, d=2, moment_replications=200, seed=31)
    assert report.kind == "incomplete-moment"
    assert len(report.rows) == 2
    assert report.passed
    for row in report.rows:
        assert row["bound_shape"] > 0
        assert row["moment_estimate"] >= 0


def test_incomplete_moment_experiment_validates():
    # a ConfigError is a ValueError
    h = builtin_kernel("product", 2)
    d = Distribution.rademacher()
    with pytest.raises(ValueError, match="^p:"):
        _incomplete_moment(h, d, [(16, 0.5)], p=1.0, q=2.0, d=2)
    with pytest.raises(ValueError, match="^d:"):
        _incomplete_moment(h, d, [(16, 0.5)], p=2.0, q=2.0, d=3)
    with pytest.raises(ValueError, match="^grid:"):
        _incomplete_moment(h, d, [(1, 0.5)], p=2.0, q=2.0, d=2)
    with pytest.raises(ValueError, match="^grid:"):
        _incomplete_moment(h, d, [(16, 2.0)], p=2.0, q=2.0, d=2)
    # certification catches a wrong degeneracy claim
    s = builtin_kernel("sum", 2)
    with pytest.raises(ValueError, match="^d: kernel certifies to degeneracy order 1"):
        _incomplete_moment(s, d, [(16, 0.5)], p=2.0, q=2.0, d=2,
                           moment_replications=10)


def test_incomplete_moment_default_space_is_kernel_codomain():
    space = BanachSpaceDescriptor(dimension=3, norm_exponent=1.5)
    weights = np.array([1.0, -2.0, 0.5])
    h = Kernel(2, lambda xs, idx: (xs[0] * xs[1])[..., None] * weights,
               symmetric=True, codomain=space)
    kwargs = dict(grid=[(32, 0.5)], p=1.5, q=1.5, d=2, moment_replications=50,
                  seed=43)
    default = _incomplete_moment(h, Distribution.rademacher(), **kwargs)
    explicit = _incomplete_moment(h, Distribution.rademacher(), space=space, **kwargs)
    assert default.rows == explicit.rows


def _cell_oracle(h, dist, norm, q, n, rate, seed, cell_idx, replications):
    """One draw_design and incomplete_ustat per replication, on fresh streams."""
    design = SamplingDesign.bernoulli(rate)
    powered = np.empty(replications)
    for rep in range(replications):
        sample = dist.sample(stream(seed, "inc-moment", cell_idx, rep, 0), n)
        ws = draw_design(design, n, h.arity,
                         stream(seed, "inc-moment", cell_idx, rep, 1))
        powered[rep] = norm(incomplete_ustat(h, sample, ws).value) ** q
    return powered


def _vector_kernel():
    space = BanachSpaceDescriptor(dimension=3, norm_exponent=1.5)
    weights = np.array([1.0, -2.0, 0.5])
    return Kernel(2, lambda xs, idx: (xs[0] * xs[1])[..., None] * weights,
                  symmetric=True, codomain=space)


def _column_major_kernel():
    # (B, 3) values laid out column by column: each column sums contiguously
    space = BanachSpaceDescriptor(dimension=3, norm_exponent=1.5)
    return Kernel(2, lambda xs, idx: np.stack(
        [xs[0] * xs[1], 0.3 * xs[0] * xs[1], -xs[0] * xs[1]]).T,
        symmetric=True, codomain=space)


_RADEMACHER = Distribution.rademacher()
_GAUSSIAN = Distribution.gaussian()


@pytest.mark.parametrize("kernel, dist, n, rate, q", [
    (builtin_kernel("product", 2), _RADEMACHER, 32, 1 / 32, 2.0),
    (builtin_kernel("product", 2), _GAUSSIAN, 64, 0.05, 1.5),
    (builtin_kernel("product", 3), _GAUSSIAN, 20, 0.02, 2.0),
    (builtin_kernel("product", 2), _GAUSSIAN, 16, 0.0, 2.0),
    (builtin_kernel("product", 2), _GAUSSIAN, 8, 1.0, 2.0),
    (_vector_kernel(), _GAUSSIAN, 32, 0.1, 1.5),
    (_column_major_kernel(), _GAUSSIAN, 32, 0.1, 1.5),
], ids=["rademacher", "gaussian", "gaussian-m3", "rate-0", "rate-1", "l1.5-dim3",
        "l1.5-dim3-column-major"])
def test_batched_cell_matches_draw_design_bit_for_bit(kernel, dist, n, rate, q):
    args = (kernel, dist, kernel.codomain.norm, q, n, rate, 17, 2, 300)
    got = incomplete.bernoulli_moment_cell(*args)
    want = _cell_oracle(*args)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _counting(monkeypatch, name):
    calls = []
    original = getattr(incomplete, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(incomplete, name, counted)
    return calls


def test_batched_cell_sums_large_selections_alone(monkeypatch):
    # C(32, 2) = 496 tuples at rate 0.13 keep 64 on average: some
    # replications exceed the 64-tuple chunk and take incomplete_ustat
    monkeypatch.setattr(incomplete, "_CHUNK", 64)
    alone = _counting(monkeypatch, "incomplete_ustat")
    h = builtin_kernel("product", 2)
    args = (h, _GAUSSIAN, h.codomain.norm, 2.0, 32, 0.13, 23, 0, 200)
    got = incomplete.bernoulli_moment_cell(*args)
    assert 0 < len(alone) < 200
    want = _cell_oracle(*args)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("slack", [0, 2])
def test_batched_cell_redraws_replications_whose_words_run_out(monkeypatch, slack):
    # C(2346, 3) is just above 2^31, so about half of all draws are
    # rejected and many replications need more than their words
    monkeypatch.setattr(incomplete, "_SLACK_WORDS", slack)
    redrawn = _counting(monkeypatch, "_floyd_draws")
    h = builtin_kernel("product", 3)
    args = (h, _GAUSSIAN, h.codomain.norm, 2.0, 2346, 4e-9, 31, 0, 40)
    got = incomplete.bernoulli_moment_cell(*args)
    assert 0 < len(redrawn) < 40
    want = _cell_oracle(*args)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_batched_cell_draws_wide_rank_spaces_by_integers(monkeypatch):
    # C(3000, 3) > 2^32: integers takes 64-bit draws, so no raw words
    words = _counting(monkeypatch, "_row_words")
    h = builtin_kernel("product", 3)
    args = (h, _GAUSSIAN, h.codomain.norm, 2.0, 3000, 2e-9, 37, 1, 30)
    got = incomplete.bernoulli_moment_cell(*args)
    assert not words
    want = _cell_oracle(*args)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("bound, value", [
    ("_BATCH_TUPLES", 37),
    ("_BATCH_SAMPLE_VALUES", 5 * 24),
])
def test_batched_cell_splits_batches_mid_cell(monkeypatch, bound, value):
    monkeypatch.setattr(incomplete, bound, value)
    batches = _counting(monkeypatch, "evaluate_batch")
    h = _vector_kernel()
    args = (h, _GAUSSIAN, h.codomain.norm, 1.5, 24, 0.1, 29, 1, 200)
    got = incomplete.bernoulli_moment_cell(*args)
    assert len(batches) > 10
    want = _cell_oracle(*args)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
