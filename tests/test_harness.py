"""Experiment drivers: config validation, gating, bound shapes, invariances."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ustatkit.harness import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    _hp_tail,
    _norms_in_place,
    _tail_block,
    deviation_experiment,
    moment_experiment,
    run_experiment,
)
from ustatkit.kernels import (
    Distribution,
    builtin_kernel,
    kernel_from_expression,
    stream,
)
from ustatkit.spaces import BanachSpaceDescriptor

PRODUCT2 = {"name": "product", "m": 2}
RADEMACHER = {"family": "rademacher"}


def make(**overrides):
    raw = {"kernel": PRODUCT2, "distribution": RADEMACHER}
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# config parsing


def test_from_dict_minimal():
    cfg = make()
    assert cfg.kernel.arity == 2
    assert cfg.p == 1.5
    assert cfg.replications == 10_000


def test_from_dict_rejects_unknown_key():
    with pytest.raises(ConfigError, match="wibble"):
        make(wibble=3)


def test_from_dict_requires_kernel_and_distribution():
    with pytest.raises(ConfigError, match="kernel"):
        ExperimentConfig.from_dict({"distribution": RADEMACHER})
    with pytest.raises(ConfigError, match="distribution"):
        ExperimentConfig.from_dict({"kernel": PRODUCT2})


def test_field_errors_name_the_field():
    cases = [
        ("p", dict(p=0.5)),
        ("q", dict(q=-1.0)),
        ("d", dict(d=3)),
        ("alpha", dict(alpha=0.7)),
        ("gamma", dict(gamma=-0.1)),
        ("eps", dict(eps=0.0)),
        ("t_grid", dict(t_grid=[2.0, 1.0])),
        ("n_grid", dict(n_grid=[4, 4])),
        ("grid", dict(grid=[[16, 1.5]])),
        ("t_points", dict(t_points=0)),
        ("replications", dict(replications=0)),
        ("moment_replications", dict(moment_replications=0)),
        ("inner", dict(inner=1)),
        ("outer", dict(outer=0)),
        ("seed", dict(seed=-1)),
        ("threads", dict(threads=0)),
        ("stability_factor", dict(stability_factor=0.0)),
        # an integer field takes a JSON integer only: these ran truncated
        ("seed", dict(seed=1.5)),
        ("replications", dict(replications=2.7)),
        ("moment_replications", dict(moment_replications=True)),
        ("n_grid", dict(n_grid=[8.5, 16])),
        ("d", dict(d=2.9)),
        ("threads", dict(threads=True)),
        ("grid", dict(grid=[[16.7, 0.5]])),
        ("t_points", dict(t_points=4.0)),
        ("inner", dict(inner=64.5)),
        ("outer", dict(outer=False)),
        ("design", dict(design={"variant": "with_replacement", "draws": 2.7})),
        # a number field takes a JSON number only: these ran as the number
        # a string or a bool spells, or truncated
        ("space", dict(space={"dimension": 1.5})),
        ("space", dict(space={"norm_exponent": "2"})),
        ("gamma", dict(gamma=True)),
        ("stability_factor", dict(stability_factor="10")),
        ("grid", dict(grid=[[16, True]])),
        ("t_grid", dict(t_grid=["1.5"])),
        ("design", dict(design={"variant": "bernoulli", "p_n": "0.5"})),
        ("distribution", dict(distribution={"family": "uniform", "a": "0", "b": 1.0})),
    ]
    for field, kw in cases:
        with pytest.raises(ConfigError, match=f"^{field}"):
            make(**kw)


@pytest.mark.parametrize("field, value", [
    ("gamma", "1"), ("p", "1.5"), ("stability_factor", True), ("replications", "10"),
    ("seed", 2.0), ("t_grid", (1.0, "2")), ("n_grid", ("8",)), ("grid", ((16, "0.5"),)),
])
def test_a_config_built_in_python_names_a_bad_number_field(field, value):
    with pytest.raises(ConfigError, match=f"^{field}:"):
        ExperimentConfig(kernel=builtin_kernel("product", 2), dist=Distribution.rademacher(),
                         **{field: value})


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=3000, deadline=None)
@given(field=st.sampled_from(sorted(ExperimentConfig._KEYS)), value=JSON_VALUES)
def test_any_json_value_in_one_field_is_a_config_or_a_config_error(field, value):
    # floats include the inf and nan that json.loads reads from 1e999 and NaN
    raw = {"kernel": PRODUCT2, "distribution": RADEMACHER, "n_grid": [4, 8],
           field: value}
    try:
        ExperimentConfig.from_dict(raw)
    except ConfigError as exc:
        assert str(exc).startswith(f"{field}:")


@st.composite
def _nan_in_a_bounded_float_field(draw):
    """A NaN in a float field that must be positive, nonnegative or in a range."""
    nan = float("nan")
    field = draw(st.sampled_from(
        ["p", "q", "alpha", "gamma", "eps", "stability_factor", "t_grid", "grid"]))
    if field == "t_grid":
        values = sorted(set(draw(st.lists(st.floats(0.1, 100.0), max_size=4))))
        values.insert(draw(st.integers(0, len(values))), nan)
    elif field == "grid":
        values = [[n, 1.0 / n] for n in range(8, 8 + draw(st.integers(0, 3)))]
        values.insert(draw(st.integers(0, len(values))), [16, nan])
    else:
        values = nan
    return field, values


@settings(max_examples=200, deadline=None)
@given(_nan_in_a_bounded_float_field())
def test_nan_refused_by_every_bounded_float_field(case):
    # a comparison with NaN is False, so each bound must be tested as
    # "not inside" rather than "outside"
    field, value = case
    with pytest.raises(ConfigError, match=f"^{field}:"):
        make(n_grid=[4, 8], **{field: value})


def test_grids_are_coerced_to_tuples():
    cfg = make(n_grid=[4, 8], t_grid=[0.5, 1.0], grid=[[8, 0.5]])
    assert cfg.n_grid == (4, 8)
    assert cfg.t_grid == (0.5, 1.0)
    assert cfg.grid == ((8, 0.5),)


def test_n_grid_below_arity_rejected():
    with pytest.raises(ConfigError, match="n_grid"):
        make(n_grid=[1, 4])


def test_vector_space_p_range():
    # an l^1.5 codomain admits p only up to 1.5
    with pytest.raises(ConfigError, match="p"):
        make(space={"dimension": 2, "norm_exponent": 1.5}, p=1.8)
    cfg = make(space={"dimension": 2, "norm_exponent": 1.5}, p=1.4)
    assert cfg.space.dimension == 2


# ---------------------------------------------------------------------------
# dispatch


def test_run_experiment_dispatch_errors():
    cfg = make(n_grid=[4, 8])
    with pytest.raises(ConfigError, match="experiment"):
        run_experiment(cfg)
    with pytest.raises(ConfigError, match="experiment"):
        run_experiment(cfg, "osmosis")
    assert set(EXPERIMENTS) == {
        "deviation", "order-d-deviation", "moment", "lln", "holder",
        "incomplete-moment",
    }


# ---------------------------------------------------------------------------
# degeneracy gates


def test_deviation_rejects_nondegenerate_kernel():
    cfg = make(kernel={"name": "sum", "m": 2}, n_grid=[4, 8],
               replications=10)
    with pytest.raises(ConfigError, match="kernel"):
        deviation_experiment(cfg)


def test_order_d_gate_rejects_wrong_claim():
    cfg = make(experiment="order-d-deviation", d=1, n_grid=[4, 8],
               replications=10)
    with pytest.raises(ConfigError, match="d"):
        run_experiment(cfg)


def test_moment_requires_q_at_least_p():
    cfg = make(experiment="moment", p=2.0, q=1.5, n_grid=[4, 8],
               moment_replications=10)
    with pytest.raises(ConfigError, match="q"):
        run_experiment(cfg)


def test_lln_requires_p_strictly_inside():
    cfg = make(experiment="lln", p=2.0, n_grid=[8, 16], replications=10)
    with pytest.raises(ConfigError, match="p"):
        run_experiment(cfg)


def test_holder_requires_alpha_and_symmetric():
    cfg = make(experiment="holder", d=2, n_grid=[16], replications=10)
    with pytest.raises(ConfigError, match="alpha"):
        run_experiment(cfg)
    cfg2 = make(kernel={"name": "sign", "m": 2}, experiment="holder",
                alpha=0.3, d=1, n_grid=[16], replications=10)
    with pytest.raises(ConfigError, match="kernel"):
        run_experiment(cfg2)


def test_incomplete_requires_grid_and_d():
    cfg = make(experiment="incomplete-moment", p=2.0, q=2.0, d=2,
               moment_replications=10)
    with pytest.raises(ConfigError, match="grid"):
        run_experiment(cfg)
    cfg2 = make(experiment="incomplete-moment", p=2.0, q=2.0,
                grid=[[8, 0.5]], moment_replications=10)
    with pytest.raises(ConfigError, match="d"):
        run_experiment(cfg2)


def test_weighted_kernel_per_tuple_gate():
    # x1 + i1-weighted junk is not degenerate tuple by tuple; it splits into
    # (x1 + x2) times 1 / i2, so the gate reads the index-free factor
    cfg = make(kernel={"expr": "(x1 + x2) / i2", "symmetric": False},
               n_grid=[4, 6], replications=10)
    with pytest.raises(ConfigError, match="kernel: the index-free factor"):
        deviation_experiment(cfg)
    # without the split every summand is certified on its own
    generic = dataclasses.replace(cfg, kernel=dataclasses.replace(cfg.kernel, split=None))
    with pytest.raises(ConfigError, match=r"kernel: summand at index \(1, 2\)"):
        deviation_experiment(generic)


# ---------------------------------------------------------------------------
# deviation results


def test_deviation_report_shape():
    cfg = make(experiment="deviation", p=2.0, n_grid=[8, 16],
               replications=100, seed=1)
    rep = run_experiment(cfg)
    assert rep.kind == "deviation"
    assert rep.details["mode"] == "same-kernel"
    assert len(rep.rows) == len(rep.details["t_grid"]) * 2
    for row in rep.rows:
        assert set(row) == {"t", "N", "lhs", "lhs_se", "rhs", "ratio"}
        assert 0.0 <= row["lhs"] <= 1.0
        assert row["rhs"] >= 0.0
    assert np.isfinite(rep.fitted_constant)


def test_deviation_threshold_beyond_reach_gives_zero_lhs():
    # |U_n| over rademacher products is at most C(n,2); a threshold above
    # that is never crossed and contributes ratio 0
    cfg = make(experiment="deviation", p=2.0, n_grid=[8],
               t_grid=[2000.0], replications=50, seed=2)
    rep = run_experiment(cfg)
    assert all(row["lhs"] == 0.0 for row in rep.rows)
    assert all(row["ratio"] == 0.0 for row in rep.rows)


def test_deviation_scaling_invariance():
    # scaling the kernel by c and thresholds by c leaves every ratio fixed
    base = {"experiment": "deviation", "p": 2.0, "n_grid": [8, 12],
            "t_grid": [1.0, 3.0, 9.0], "replications": 100, "seed": 3}
    rep1 = run_experiment(make(**base))
    scaled = dict(base)
    scaled["kernel"] = {"expr": "3 * x1 * x2", "symmetric": True}
    scaled["t_grid"] = [3.0, 9.0, 27.0]
    rep2 = run_experiment(ExperimentConfig.from_dict(
        {"kernel": scaled.pop("kernel"), "distribution": RADEMACHER, **scaled}))
    for r1, r2 in zip(rep1.rows, rep2.rows):
        assert r1["lhs"] == r2["lhs"]
        assert r1["ratio"] == pytest.approx(r2["ratio"], rel=1e-12)


def test_deviation_weighted_mode():
    cfg = make(kernel={"expr": "x1 * x2 / (i1 * i2)", "symmetric": True},
               experiment="deviation", p=2.0, n_grid=[6, 8],
               replications=60, seed=4)
    rep = run_experiment(cfg)
    assert rep.details["mode"] == "index-weighted"
    assert rep.details["tuples"] == math.comb(8, 2)
    assert np.isfinite(rep.fitted_constant)


def test_deviation_weighted_tuple_cap():
    cfg = make(kernel={"expr": "x1 * x2 / (i1 * i2)", "symmetric": True},
               experiment="deviation", p=2.0, n_grid=[200],
               replications=10)
    with pytest.raises(ConfigError, match="n_grid"):
        run_experiment(cfg)


def _direct_tails(y, w, t_arr, q):
    """The per-threshold formula: one power and one product per t."""
    return np.stack([(np.minimum(1.0, y / t) ** q) @ w / q for t in t_arr], axis=1)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rows=st.integers(min_value=1, max_value=6),
    draws=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=1.0, max_value=2.0),
    q_excess=st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=2.5)),
    scale=st.floats(min_value=-3.0, max_value=3.0),
    placement=st.sampled_from(["below", "above", "equal", "spread"]),
)
def test_tail_block_matches_direct_formula(seed, rows, draws, p, q_excess, scale,
                                           placement):
    rng = np.random.default_rng(seed)
    y = np.abs(rng.standard_cauchy((rows, draws))) * 10.0 ** scale
    w = rng.random(draws) ** 3 + 1e-3
    w /= w.sum()
    q = p + q_excess
    if placement == "below":
        t_arr = y.min() * np.array([0.25, 0.5, 0.9])
    elif placement == "above":
        t_arr = y.max() * np.array([1.1, 2.0, 30.0])
    elif placement == "equal":
        t_arr = np.unique(rng.choice(y.ravel(), size=3))
    else:
        t_arr = np.quantile(y, [0.1, 0.5, 0.9, 0.99])
    kept = y.copy()
    moments, contrib = _tail_block(y, w, t_arr, p, q)
    assert np.array_equal(y, kept)
    assert np.array_equal(moments, (y ** p) @ w)
    np.testing.assert_allclose(contrib, _direct_tails(y, w, t_arr, q), rtol=1e-12, atol=0)


def test_tail_block_nan_row_and_infinite_norm():
    y = np.array([[0.5, np.nan, 2.0], [0.5, np.inf, 2.0], [0.5, 3.0, 2.0]])
    w = np.array([0.2, 0.3, 0.5])
    t_arr = np.array([0.1, 1.0, 2.5])
    moments, contrib = _tail_block(y, w, t_arr, 1.5, 2.0)
    assert np.isnan(contrib[0]).all() and np.isnan(moments[0])
    assert np.isnan(_direct_tails(y, w, t_arr, 2.0)[0]).all()
    # an infinite norm counts as 1 at every threshold, like a finite 3.0 above 2.5
    assert np.array_equal(contrib[1], contrib[2])
    np.testing.assert_allclose(contrib[1:], _direct_tails(y, w, t_arr, 2.0)[1:],
                               rtol=1e-12, atol=0)


def _weighted_reference(cfg):
    """Maxima and rhs of x1 * x2 / (i1 + i2) from the per-threshold formula.

    Built over all C(N, 2) tuples directly, on the same draws the harness
    uses: the exact support grid, or the seeded Monte Carlo tables.
    """
    p = cfg.p
    q = cfg.q if cfg.q is not None else p
    n_max = max(cfg.n_grid)
    support = cfg.dist.support()

    def draws(tag, *path, count):
        if support is not None:
            return np.asarray(support[0]), np.asarray(support[1])
        x = cfg.dist.sample(stream(cfg.seed, "deviation-weighted", tag, *path), count)
        return x, np.full(count, 1.0 / count)

    def tail(y, w, t):
        return float((np.minimum(1.0, y / t) ** q) @ w / q)

    # colex order: by the larger index, then the smaller one
    pairs = sorted(itertools.combinations(range(n_max), 2), key=lambda ij: ij[::-1])
    coef = {(i, j): 1.0 / float(i + j + 2) for i, j in pairs}
    if support is not None:
        atoms, probs = draws(0, count=0)
        x1, x2 = (a.ravel() for a in np.meshgrid(atoms, atoms, indexing="ij"))
        w = np.outer(probs, probs).ravel()
    else:
        x, _ = draws(0, count=16384 * 2)
        x1, x2 = x.reshape(16384, 2).T
        w = np.full(16384, 1.0 / 16384)

    rhs = {}
    for n in cfg.n_grid:
        inside = [(i, j) for i, j in pairs if j < n]
        pm = sum(float((np.abs(x1 * x2 * coef[ij]) ** p) @ w) for ij in inside)
        for t in cfg.t_grid:
            first = sum(tail(np.abs(x1 * x2 * coef[ij]), w, t) for ij in inside)
            rhs[n, t] = first + t ** (-q) * pm ** (q / p)
        # middle groups: J = {first position} keyed by i, J = {second} by j
        for slot, tag in ((0, 1), (1, 2)):
            outer_x, outer_w = draws(1, tag, count=cfg.outer)
            inner_x, inner_w = draws(2, tag, count=cfg.inner)
            inner_pm = float((np.abs(inner_x) ** p) @ inner_w)
            grouped = {}
            for ij in inside:
                cond = np.abs(outer_x) ** p * coef[ij] ** p * inner_pm
                grouped[ij[slot]] = grouped.get(ij[slot], 0.0) + cond
            for t in cfg.t_grid:
                rhs[n, t] += sum(tail(g ** (1.0 / p), outer_w, t) for g in grouped.values())

    maxima = np.empty((cfg.replications, len(cfg.n_grid)))
    scale = 1.0 / (np.arange(n_max)[:, None] + np.arange(n_max)[None, :] + 2.0)
    for r in range(cfg.replications):
        x = cfg.dist.sample(stream(cfg.seed, "deviation", r), n_max)
        terms = np.triu(np.outer(x, x) * scale, k=1)
        prefix = np.abs(np.cumsum(terms.sum(axis=0)))
        for col, n in enumerate(cfg.n_grid):
            maxima[r, col] = prefix[1:n].max()
    return maxima, rhs


# The smallest threshold sits below most summand norms, and on Rademacher
# data 1/8 equals the norm 1/(i1 + i2) of every tuple with i1 + i2 = 8.
@pytest.mark.parametrize("distribution, t_grid, q, seed", [
    (RADEMACHER, [0.07, 0.125, 0.3, 0.8], 2.0, 12),
    ({"family": "gaussian"}, [0.01, 0.05, 0.2, 0.6], None, 11),
])
def test_deviation_weighted_rhs_matches_direct_formula(distribution, t_grid, q, seed):
    cfg = ExperimentConfig.from_dict({
        "kernel": {"expr": "x1 * x2 / (i1 + i2)", "m": 2},
        "distribution": distribution, "experiment": "deviation",
        "n_grid": [5, 9], "t_grid": t_grid, "p": 1.5, "q": q,
        "replications": 200, "inner": 256, "outer": 64, "seed": seed,
    })
    rep = run_experiment(cfg)
    assert rep.details["exact_tails"] == (distribution == RADEMACHER)
    maxima, rhs = _weighted_reference(cfg)
    assert len(rep.rows) == 2 * len(t_grid)
    for row in rep.rows:
        col = cfg.n_grid.index(row["N"])
        assert row["lhs"] == float(np.mean(maxima[:, col] > row["t"]))
        assert row["rhs"] == pytest.approx(rhs[row["N"], row["t"]], rel=1e-12, abs=0)


_SPLITS = "x1 * x2 / (i1 + i2)"
# a sum never splits into a weight times one index-free kernel
_SUM = "x1 * x2 / (i1 + i2) + x1 * x2 / (i1 * i2)"


# The defaults give one tile on Rademacher data and 16-tuple tiles on
# Gaussian data; 1, 3 and 5 tuples' worth give 4-, 4- and 8-tuple tiles.
# Only the sum takes the tiled path; the split kernel's report must not
# move with the tile size either.
@pytest.mark.parametrize("distribution, t_grid, draws, expr", [
    pytest.param(RADEMACHER, [0.07, 0.125, 0.3, 0.8], 4, _SPLITS,
                 id="distribution0-t_grid0-4"),
    pytest.param({"family": "gaussian"}, [0.01, 0.05, 0.2, 0.6], 64 * 256, _SPLITS,
                 id="distribution1-t_grid1-16384"),
    pytest.param(RADEMACHER, [0.07, 0.125, 0.3, 0.8], 4, _SUM, id="rademacher-sum"),
    pytest.param({"family": "gaussian"}, [0.01, 0.05, 0.2, 0.6], 64 * 256, _SUM,
                 id="gaussian-sum"),
])
def test_deviation_weighted_independent_of_tile_size(monkeypatch, distribution,
                                                      t_grid, draws, expr):
    from ustatkit import harness

    cfg = ExperimentConfig.from_dict({
        "kernel": {"expr": expr, "m": 2},
        "distribution": distribution, "experiment": "deviation",
        "n_grid": [5, 9], "t_grid": t_grid, "p": 1.5,
        "replications": 200, "inner": 256, "outer": 64, "seed": 13,
    })
    # `draws` is both the first group's draws per tuple and the middle
    # groups' outer x inner grid (2 x 2 atoms on Rademacher data)
    default = run_experiment(cfg)
    for tuples in (1, 3, 5):
        monkeypatch.setattr(harness, "_WEIGHTED_TILE_ENTRIES", tuples * draws)
        tiled = run_experiment(cfg)
        assert tiled.passed == default.passed
        for row, ref in zip(tiled.rows, default.rows, strict=True):
            assert (row["t"], row["N"]) == (ref["t"], ref["N"])
            assert row["lhs"] == ref["lhs"] and row["lhs_se"] == ref["lhs_se"]
            assert row["rhs"] == pytest.approx(ref["rhs"], rel=1e-14, abs=0)


# ---------------------------------------------------------------------------
# index-factored weighted kernels

GAUSSIAN = {"family": "gaussian"}
# centred, with atoms of different sizes
FINITE = {"family": "finite", "values": [-2.0, 1.0, 3.0], "probabilities": [0.4, 0.5, 0.1]}


def _without_split(cfg):
    """The same config with a kernel that takes the tiled path."""
    return dataclasses.replace(cfg, kernel=dataclasses.replace(cfg.kernel, split=None))


def _factored_and_tiled(monkeypatch, cfg):
    """Reports of cfg on the factored branch and on the tiled path."""
    from ustatkit import harness

    calls = []
    factored = harness._tuple_tails_factored
    monkeypatch.setattr(harness, "_tuple_tails_factored",
                        lambda *args: calls.append(1) or factored(*args))
    rep = run_experiment(cfg)
    assert calls == [1]
    ref = run_experiment(_without_split(cfg))
    assert calls == [1]
    return rep, ref


def _assert_rows_match(rep, ref, rel=1e-12):
    assert rep.passed == ref.passed
    details, ref_details = dict(rep.details), dict(ref.details)
    for value, ref_value in [(details.pop("ratio_spread"), ref_details.pop("ratio_spread")),
                             (rep.fitted_constant, ref.fitted_constant),
                             (rep.stability, ref.stability)]:
        assert value == pytest.approx(ref_value, rel=rel, abs=0)
    assert details == ref_details
    for row, r in zip(rep.rows, ref.rows, strict=True):
        assert [row[k] for k in ("t", "N", "lhs", "lhs_se")] == \
            [r[k] for k in ("t", "N", "lhs", "lhs_se")]
        assert row["rhs"] == pytest.approx(r["rhs"], rel=rel, abs=0)
        assert row["ratio"] == pytest.approx(r["ratio"], rel=rel, abs=0)


def _same_report(rep, ref) -> bool:
    """Byte equality of the two reports, NaN included."""
    return json.dumps(rep.to_dict(), sort_keys=True) == json.dumps(ref.to_dict(), sort_keys=True)


def _pass_every_gate(monkeypatch):
    """Certify every kernel degenerate, to reach the bound of any kernel."""
    from ustatkit import harness
    from ustatkit.hoeffding import DegeneracyReport

    # no entries: every all-but-one mean vanishes, and none reads non-finite
    passed = DegeneracyReport(arity=0, exact=True, scale=1.0,
                              coordinate_entries=(), level_entries=())
    monkeypatch.setattr(harness, "check_degeneracy", lambda *args, **kwargs: passed)


@pytest.mark.parametrize("expr, m, distribution, n_grid, q, t_grid", [
    ("x1 * x2 / (i1 + i2)", 2, GAUSSIAN, [6, 9], None, None),
    ("x1 * x2 / (i1 + i2)", 2, RADEMACHER, [6, 9], 2.5, [0.07, 0.125, 0.3, 0.8]),
    ("-x1 * x2 / i1 / i2", 2, FINITE, [5, 8], None, None),
    ("x1 / i1", 1, GAUSSIAN, [8, 16], 3.0, None),
    ("3 * x1 * exp(i1 / 4)", 1, RADEMACHER, [8, 16], None, None),
    ("x1 * x2 * x3 / (i1 * i2 + i3)", 3, FINITE, [4, 7], 1.2, None),
    ("x1 * x2 * x3 * exp(i2 / 5)", 3, RADEMACHER, [4, 7], None, [0.5, 2.0, 8.0]),
    ("x1 * x2 * x3 / i3", 3, GAUSSIAN, [4, 7], None, None),
])
def test_factored_branch_matches_tiled_path(monkeypatch, expr, m, distribution,
                                            n_grid, q, t_grid):
    cfg = ExperimentConfig.from_dict({
        "kernel": {"expr": expr, "m": m}, "distribution": distribution,
        "experiment": "deviation", "n_grid": n_grid, "p": 1.5, "q": q,
        "t_grid": t_grid, "replications": 200, "inner": 256, "outer": 64, "seed": 21,
    })
    rep, ref = _factored_and_tiled(monkeypatch, cfg)
    _assert_rows_match(rep, ref)


# No kernel that ignores a position is degenerate unless it is 0, so the
# gate is passed by hand: these reach the bound with an f whose body
# returns fewer axes than the draws it meets.
@pytest.mark.parametrize("expr, m, distribution, n_grid", [
    ("x1 * x3 / i2", 3, GAUSSIAN, [4, 7]),
    ("x2 / (i1 + i2)", 2, FINITE, [5, 8]),
    ("0 * x1 / i2", 2, RADEMACHER, [5, 8]),
])
def test_factored_branch_when_f_ignores_a_position(monkeypatch, expr, m, distribution,
                                                   n_grid):
    _pass_every_gate(monkeypatch)
    cfg = ExperimentConfig.from_dict({
        "kernel": {"expr": expr, "m": m}, "distribution": distribution,
        "experiment": "deviation", "n_grid": n_grid, "p": 1.5,
        "t_grid": [0.05, 0.3, 2.0], "replications": 50, "inner": 32, "outer": 16,
        "seed": 22,
    })
    rep, ref = _factored_and_tiled(monkeypatch, cfg)
    _assert_rows_match(rep, ref)


_X_FACTORS = ["x{j}", "x{j} ^ 3", "sign(x{j})", "(2.5 * x{j})", "(-x{j})", "(x{j} * 0.5)"]
_I_FACTORS = ["i{j}", "(i{j} + 1)", "(i1 + i{j})", "i{j} ^ 0.5", "exp(i{j} / 7)",
              "(1 + i1 * i{j})"]


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_factored_branch_matches_tiled_path_on_random_splits(data):
    m = data.draw(st.integers(min_value=1, max_value=3), label="m")
    links = [f.format(j=j + 1) for j, f in enumerate(
        data.draw(st.lists(st.sampled_from(_X_FACTORS), min_size=m, max_size=m)))]
    for factor in data.draw(st.lists(st.sampled_from(_I_FACTORS), min_size=1, max_size=3)):
        links.append(factor.format(j=data.draw(st.integers(min_value=1, max_value=m))))
    if data.draw(st.booleans()):
        links.append("3")  # a constant factor joins f
    links = data.draw(st.permutations(links))
    ops = data.draw(st.lists(st.sampled_from("*/"), min_size=len(links), max_size=len(links)))
    expr = links[0] + "".join(f" {op} {link}" for op, link in zip(ops[1:], links[1:]))
    t_grid = data.draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=1,
                                max_size=4, unique=True).map(sorted), label="t_grid")
    cfg = ExperimentConfig.from_dict({
        "kernel": {"expr": expr, "m": m},
        "distribution": data.draw(st.sampled_from([RADEMACHER, GAUSSIAN, FINITE])),
        "experiment": "deviation", "n_grid": {1: [4, 12], 2: [4, 9], 3: [4, 7]}[m],
        "p": data.draw(st.sampled_from([1.2, 1.5, 2.0])),
        "q": data.draw(st.sampled_from([None, 1.0, 2.5])),
        "t_grid": t_grid, "replications": 20, "inner": 16, "outer": 8, "seed": 23,
    })
    assert cfg.kernel.split is not None, expr
    with pytest.MonkeyPatch.context() as monkeypatch:
        _pass_every_gate(monkeypatch)
        rep, ref = _factored_and_tiled(monkeypatch, cfg)
    _assert_rows_match(rep, ref)


def _split_of(cfg):
    from ustatkit import harness
    from ustatkit.combinatorics import unrank_many

    m, n_max = cfg.kernel.arity, max(cfg.n_grid)
    idx_cols = unrank_many(np.arange(math.comb(n_max, m)), n_max, m)
    table, _ = cfg.dist.nodes(m, harness._WEIGHTED_MC_DRAWS, cfg.seed, "deviation-weighted", 0)
    return harness._index_split(cfg.kernel, cfg.kernel.codomain, idx_cols, table)


# A weight of 0 (at i1 = 1) or inf (at i1 = 2, a tuple the 16 spot checks
# on Gaussian data skip) sends the run to the tiled path.
@pytest.mark.parametrize("expr, m, distribution, n_grid", [
    ("x1 * x2 * (i1 - 1)", 2, RADEMACHER, [4, 6]),
    ("x1 / (i1 - 2)", 1, GAUSSIAN, [20, 40]),
])
def test_zero_or_infinite_weight_takes_the_tiled_path(expr, m, distribution, n_grid):
    cfg = ExperimentConfig.from_dict({
        "kernel": {"expr": expr, "m": m}, "distribution": distribution,
        "experiment": "deviation", "n_grid": n_grid, "p": 1.5, "t_grid": [0.1, 1.0],
        "replications": 50, "inner": 256, "outer": 64, "seed": 24,
    })
    with np.errstate(divide="ignore", invalid="ignore"):
        assert cfg.kernel.split is not None and _split_of(cfg) is None
        assert _same_report(run_experiment(cfg), run_experiment(_without_split(cfg)))


_ZERO_ATOM = {"family": "finite", "values": [-1.0, 0.0, 1.0],
              "probabilities": [0.25, 0.5, 0.25]}


# f is NaN (0 / 0) or inf (2 / 0) where x1 is the zero atom.  A NaN norm
# sends the run to the tiled path; an infinite one stays on the factored
# branch, where it counts as an exceedance and makes the p-th moment, so
# every rhs, inf exactly as on the tiled path.
@pytest.mark.parametrize("expr, factored", [
    ("x1 * x2 * (x1 / x1) / i2", False),
    ("(x2 + 2) / x1 / i2", True),
])
def test_non_finite_norms_of_f_give_the_tiled_report(monkeypatch, expr, factored):
    _pass_every_gate(monkeypatch)
    cfg = ExperimentConfig.from_dict({
        "kernel": {"expr": expr, "m": 2}, "distribution": _ZERO_ATOM,
        "experiment": "deviation", "n_grid": [4, 6], "p": 1.5,
        "t_grid": [0.1, 1.0], "replications": 50, "seed": 25,
    })
    with np.errstate(divide="ignore", invalid="ignore"):
        assert (_split_of(cfg) is not None) == factored
        rep = run_experiment(cfg)
        ref = run_experiment(_without_split(cfg))
    assert _same_report(rep, ref)
    if factored:
        assert all(math.isinf(row["rhs"]) for row in rep.rows)


def _column_view():
    return np.random.default_rng(3).standard_normal((6, 4))[:, 1]


def _read_only_broadcast():
    return np.broadcast_to(np.random.default_rng(4).standard_normal(5), (3, 5))


def _trailing_unit_axis():
    return np.random.default_rng(5).standard_normal((6, 1))


def _trailing_unit_axis_view():
    return np.random.default_rng(6).standard_normal((6, 3))[:, 1:2]


@pytest.mark.parametrize("make_batch, dimension", [
    (_column_view, 1),
    (_read_only_broadcast, 1),
    (_trailing_unit_axis, 1),
    (_trailing_unit_axis_view, 1),
    (lambda: np.random.default_rng(7).standard_normal((4, 5, 3)), 3),
])
def test_norms_in_place_equal_space_norms(make_batch, dimension):
    space = BanachSpaceDescriptor(dimension=dimension, norm_exponent=1.5)
    batch = make_batch()
    owner = batch if batch.flags.owndata else batch.base
    kept = owner.copy()
    expected = space.norms(batch.copy())
    got = _norms_in_place(space, batch)
    assert got.shape == expected.shape and np.array_equal(got, expected)
    # it writes only over a scalar block that owns its memory
    if dimension == 1 and batch.flags.owndata and batch.flags.writeable:
        assert np.shares_memory(got, batch)
    else:
        assert np.array_equal(owner, kept)
        assert not np.shares_memory(got, owner)


# ---------------------------------------------------------------------------
# order-d deviation


def test_order_d_threshold_exponent():
    cfg = make(experiment="order-d-deviation", p=2.0, d=2,
               n_grid=[8, 16], replications=100, seed=5)
    rep = run_experiment(cfg)
    assert rep.kind == "order-d-deviation"
    # m = d = 2, p = 2: threshold scales as N^(m - d + d/p) = N
    assert rep.details["threshold_exponent"] == pytest.approx(1.0)
    assert np.isfinite(rep.fitted_constant)


def test_hp_tail_on_a_finite_law_is_the_max_of_exact_prefix_moments():
    # an asymmetric kernel, so conditioning on the wrong positions shows
    d = Distribution.finite([-2.0, 1.0, 3.0], [0.4, 0.5, 0.1])
    h = kernel_from_expression("x1 * x2 - 2 * x3", 3)
    p = 1.5
    tail = _hp_tail(h, d, p, 8, 8, 0, BanachSpaceDescriptor(1))
    atoms, probs = d.support()
    values, weights = [], []
    for x in itertools.product(range(3), repeat=3):
        levels = []
        for k in range(4):
            moment = 0.0
            for rest in itertools.product(range(3), repeat=3 - k):
                point = atoms[list(x[:k] + rest)]
                value = point[0] * point[1] - 2.0 * point[2]
                moment += np.prod(probs[list(rest)]) * abs(value) ** p
            levels.append(moment ** (1.0 / p))
        values.append(max(levels))
        weights.append(np.prod(probs[list(x)]))
    values, weights = np.array(values), np.array(weights)
    np.testing.assert_allclose(tail.values, np.sort(values), rtol=1e-13)
    for power in (1.0, 2.0):
        assert np.dot(tail.weights, tail.values ** power) == pytest.approx(
            np.dot(weights, values ** power), rel=1e-13)


def test_order_d_rejects_weighted_kernels():
    cfg = make(kernel={"expr": "x1 * x2 / i2", "symmetric": True},
               experiment="order-d-deviation", p=2.0, d=2, n_grid=[6],
               replications=10)
    with pytest.raises(ConfigError, match="kernel"):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# moment bounds


def test_moment_qp_bound_is_nm_times_moment():
    cfg = make(experiment="moment", p=2.0, n_grid=[8, 16],
               moment_replications=100, seed=6)
    rep = run_experiment(cfg)
    assert rep.details["mode"] == "q=p"
    # E|xy|^2 = 1 under rademacher, so the bound is exactly N^2
    for row in rep.rows:
        assert row["rhs"] == pytest.approx(row["N"] ** 2)


def test_moment_q_gt_p_has_three_groups():
    cfg = make(experiment="moment", p=1.5, q=3.0, n_grid=[6, 10],
               moment_replications=100, seed=7)
    rep = run_experiment(cfg)
    assert rep.details["mode"] == "q>p"
    for row in rep.rows:
        n = row["N"]
        # all |h| = 1 under rademacher: E|h|^q = E|h|^p = 1, and the
        # conditional profile is identically 1, so the three groups are
        # C(n,2)*1 + sum_J sum_i w^{q/p} + C(n,2)^{q/p}
        base = math.comb(n, 2)
        middle = 0.0
        for j in range(1, n):
            # positions (0,): index i has (n - 1 - i) completions
            middle += (n - j) ** 2.0  # (q/p = 2)
        # positions (1,): index i has i completions, same sum reversed
        middle = sum((n - 1 - i) ** 2.0 + i ** 2.0 for i in range(n))
        want = base + middle + base ** 2.0
        assert row["rhs"] == pytest.approx(want)


def test_moment_spread_pass_criterion():
    cfg = make(experiment="moment", p=2.0, n_grid=[8, 16, 32],
               moment_replications=150, seed=8)
    rep = run_experiment(cfg)
    spread = rep.details["ratio_spread"]
    assert rep.passed == (np.isfinite(rep.fitted_constant)
                          and spread <= cfg.stability_factor)


# ---------------------------------------------------------------------------
# lln


def test_lln_report_and_rate_series():
    cfg = make(experiment="lln", p=1.5, alpha=0.4, n_grid=[32, 64],
               replications=100, seed=9)
    rep = run_experiment(cfg)
    assert rep.kind == "lln"
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert row["moment"] == pytest.approx(1.0)  # E|xy|^1.5 = 1
        assert row["weak_norm"] >= 0.0
    series = rep.details["rate_series"]
    assert series["heuristic"] is True
    assert len(series["entries"]) == 2


def test_lln_terminal_medians_must_decrease():
    cfg = make(experiment="lln", p=1.5, n_grid=[16, 32, 64],
               replications=200, seed=10)
    rep = run_experiment(cfg)
    meds = [row["terminal_median"] for row in rep.rows]
    if rep.passed:
        assert all(b < a for a, b in zip(meds, meds[1:]))


# ---------------------------------------------------------------------------
# holder


def test_holder_report_structure():
    cfg = make(experiment="holder", alpha=0.3, d=2, n_grid=[64, 128],
               replications=60, seed=11)
    rep = run_experiment(cfg)
    assert rep.kind == "holder"
    assert rep.details["p_of_alpha"] == pytest.approx(5.0)
    assert rep.details["n_exceedance"] == 128
    assert rep.details["j_max"] == 7
    for J, row in enumerate(rep.rows):
        assert row["J"] == J
    sums = [row["tail_sum"] for row in rep.rows]
    assert all(b <= a + 1e-12 for a, b in zip(sums, sums[1:]))
    quantiles = rep.details["quantiles"]
    assert [q["n"] for q in quantiles] == [64, 128]


def test_holder_rejects_nonscalar_space():
    cfg = make(space={"dimension": 2, "norm_exponent": 2.0},
               experiment="holder", alpha=0.3, d=2, n_grid=[32],
               replications=10, p=1.4)
    with pytest.raises(ConfigError, match="space"):
        run_experiment(cfg)


def test_holder_projected_lower_order():
    # kernel with a pair interaction plus first-order noise, certified d=1
    cfg = make(kernel={"expr": "x1 + x2 + x1 * x2", "symmetric": True},
               experiment="holder", alpha=0.3, d=1, n_grid=[64],
               replications=40, seed=12)
    rep = run_experiment(cfg)
    assert rep.details["d"] == 1
    assert np.isfinite(rep.fitted_constant)


# ---------------------------------------------------------------------------
# incomplete dispatch


def test_incomplete_moment_through_harness():
    cfg = make(experiment="incomplete-moment", p=2.0, q=2.0, d=2,
               grid=[[16, 0.25], [32, 0.125]], moment_replications=100,
               seed=13)
    rep = run_experiment(cfg)
    assert rep.kind == "incomplete-moment"
    assert [row["n"] for row in rep.rows] == [16, 32]


# ---------------------------------------------------------------------------
# blocks of replications


@pytest.mark.parametrize("kernel", [
    builtin_kernel("product", 2),
    kernel_from_expression("x1 * x2 / (i1 + i2)", 2),
])
def test_max_norm_matrix_independent_of_blocks(monkeypatch, kernel):
    # Gaussian data: every sum carries rounding, so a change in summation
    # order between block sizes would show in the bytes
    from ustatkit import harness
    from ustatkit.kernels import stream
    from ustatkit.ustat import running_max_norms

    dist = Distribution.gaussian()
    n_grid, reps, seed = (8, 16, 32), 700, 41
    args = (kernel, dist, n_grid, reps, seed, kernel.codomain, "deviation")
    assert harness._block_rows(32, 2) < reps  # the default spans two blocks
    base = harness._max_norm_matrix(*args)
    assert base.shape == (reps, len(n_grid))
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 256)
    assert harness._block_rows(32, 2) == 8
    assert harness._max_norm_matrix(*args).tobytes() == base.tobytes()
    # row r is replication r simulated on its own
    cols = np.asarray(n_grid) - 2
    for rep in (0, 9, reps - 1):
        sample = dist.sample(stream(seed, "deviation", rep), 32)
        want = running_max_norms(kernel, sample, 32, kernel.codomain)[cols]
        assert want.tobytes() == base[rep].tobytes()


@pytest.mark.parametrize("arity", [1, 2])
def test_simulate_block_samples_are_the_per_replication_streams(arity):
    # the samples do not depend on the kernel's order, only on the streams
    from ustatkit import harness
    from ustatkit.kernels import stream

    dist, n, reps, seed = Distribution.gaussian(), 32, 1100, 17
    assert harness._block_rows(n, arity) * 2 < reps  # three blocks, the last short
    (samples,) = harness._simulate(builtin_kernel("product", arity), dist, n, reps, seed,
                                   ("deviation",), lambda traj, sample: (sample,))
    want = np.vstack([dist.sample(stream(seed, "deviation", r), n) for r in range(reps)])
    assert samples.tobytes() == want.tobytes()


def test_no_experiment_starts_threads(monkeypatch, tmp_path):
    # a threads key changes no report, and a holder run through the CLI
    # loads neither a thread pool nor the map the benchmark's tracer wraps
    from ustatkit import harness
    from test_cli import _fresh_python

    cases = [
        dict(experiment="deviation", p=2.0, n_grid=[8, 16], replications=40),
        dict(experiment="lln", p=1.5, n_grid=[8, 16], replications=40),
        dict(experiment="moment", p=2.0, n_grid=[8, 16], moment_replications=40),
        dict(experiment="holder", alpha=0.3, d=2, n_grid=[16, 32], replications=300),
    ]
    refs = [run_experiment(make(threads=1, **kw)) for kw in cases]
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 64)  # 4 rows a block at N = 16
    for kw, ref in zip(cases, refs):
        assert _same_report(run_experiment(make(threads=8, **kw)), ref)

    cfg = tmp_path / "holder.json"
    cfg.write_text(json.dumps({"kernel": PRODUCT2, "distribution": RADEMACHER,
                               "threads": 2, **cases[-1]}))
    script = ("import sys; from ustatkit.cli import main; code = main(sys.argv[1:]); "
              "print(code, *(m in sys.modules for m in "
              "('concurrent.futures', 'ustatkit._parallel')))")
    proc = _fresh_python(["-c", script, "experiment", "run", "--config", str(cfg),
                          "--out", str(tmp_path / "out")])
    assert proc.stdout.split()[-3:] == ["0", "False", "False"], proc.stdout + proc.stderr


def test_block_rows_depend_on_horizon_and_arity_only():
    from ustatkit import harness
    assert harness._block_rows(32, 2) == harness._BLOCK_ELEMENTS // 32
    assert harness._block_rows(1024, 3) == 1
    # m = 1 steps are one column wide; the (B, N) sample bounds the block
    assert harness._block_rows(4096, 1) == harness._BLOCK_ELEMENTS // 4096


def test_holder_rejects_horizons_past_the_scan_cap():
    from ustatkit.holder import MAX_SCAN_BREAKPOINTS
    with pytest.raises(ConfigError, match="n_grid"):
        make(experiment="holder", alpha=0.3, d=2,
             n_grid=[MAX_SCAN_BREAKPOINTS + 1], replications=1)
    cfg = make(alpha=0.3, d=2, n_grid=[MAX_SCAN_BREAKPOINTS + 1], replications=1)
    with pytest.raises(ConfigError, match="n_grid"):
        run_experiment(cfg, "holder")


def test_grid_fields_reject_non_numbers():
    for key, value in (("t_grid", ["x"]), ("n_grid", ["x"]), ("grid", [["x", 0.5]])):
        with pytest.raises(ConfigError, match=key):
            make(**{key: value})


def test_incomplete_moment_preconditions_are_config_errors():
    grid = [[16, 0.25], [32, 0.125]]
    with pytest.raises(ConfigError, match="q"):
        run_experiment(make(experiment="incomplete-moment", p=2.0, q=1.5, d=2,
                            grid=grid))
    with pytest.raises(ConfigError, match="kernel"):
        run_experiment(make(kernel={"name": "sign", "m": 2},
                            experiment="incomplete-moment", p=2.0, d=2, grid=grid))
    with pytest.raises(ConfigError, match="d"):
        run_experiment(make(kernel={"name": "sum", "m": 2},
                            experiment="incomplete-moment", p=2.0, d=2, grid=grid))
