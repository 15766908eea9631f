"""Experiment drivers: config validation, gating, bound shapes, invariances."""

import math

import numpy as np
import pytest

from ustatkit.harness import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    deviation_experiment,
    moment_experiment,
    run_experiment,
)
from ustatkit.kernels import (
    Distribution,
    builtin_kernel,
    kernel_from_expression,
)

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
    cases = {
        "p": dict(p=0.5),
        "q": dict(q=-1.0),
        "d": dict(d=3),
        "alpha": dict(alpha=0.7),
        "gamma": dict(gamma=-0.1),
        "eps": dict(eps=0.0),
        "t_grid": dict(t_grid=[2.0, 1.0]),
        "n_grid": dict(n_grid=[4, 4]),
        "grid": dict(grid=[[16, 1.5]]),
        "t_points": dict(t_points=0),
        "replications": dict(replications=0),
        "moment_replications": dict(moment_replications=0),
        "inner": dict(inner=1),
        "outer": dict(outer=0),
        "seed": dict(seed=-1),
        "threads": dict(threads=0),
        "stability_factor": dict(stability_factor=0.0),
    }
    for field, kw in cases.items():
        with pytest.raises(ConfigError, match=f"^{field}"):
            make(**kw)


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
    # x1 + i1-weighted junk is not degenerate tuple by tuple
    cfg = make(kernel={"expr": "(x1 + x2) / i2", "symmetric": False},
               n_grid=[4, 6], replications=10)
    with pytest.raises(ConfigError, match="kernel"):
        deviation_experiment(cfg)


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
def test_max_norm_matrix_independent_of_threads_and_blocks(monkeypatch, kernel):
    # Gaussian data: every sum carries rounding, so a change in summation
    # order between block sizes or thread counts would show in the bytes
    from ustatkit import harness
    from ustatkit.kernels import stream
    from ustatkit.ustat import running_max_norms

    dist = Distribution.gaussian()
    n_grid, reps, seed = (8, 16, 32), 700, 41
    args = (kernel, dist, n_grid, reps, seed)
    space = kernel.codomain
    assert harness._block_rows(32, 2) < reps  # the default spans two blocks
    base = harness._max_norm_matrix(*args, 1, space, "deviation")
    assert base.shape == (reps, len(n_grid))
    assert harness._max_norm_matrix(*args, 8, space, "deviation").tobytes() == base.tobytes()
    monkeypatch.setattr(harness, "_BLOCK_ELEMENTS", 256)
    assert harness._block_rows(32, 2) == 8
    for threads in (1, 8):
        again = harness._max_norm_matrix(*args, threads, space, "deviation")
        assert again.tobytes() == base.tobytes()
    # row r is replication r simulated on its own
    cols = np.asarray(n_grid) - 2
    for rep in (0, 9, reps - 1):
        sample = dist.sample(stream(seed, "deviation", rep), 32)
        want = running_max_norms(kernel, sample, 32, space)[cols]
        assert want.tobytes() == base[rep].tobytes()


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
