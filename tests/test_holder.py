"""Exact Holder norms of piecewise-linear paths and dyadic exceedances."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ustatkit.holder
from ustatkit.holder import (
    MAX_SCAN_BREAKPOINTS,
    DyadicExceedanceTable,
    HolderParams,
    calibrate_epsilon,
    dyadic_increment_exceedance,
    holder_norm,
    holder_norm_grid,
    holder_norm_quantiles,
    holder_norms,
    _pair_scan,
)
from ustatkit.kernels import builtin_kernel
from ustatkit.tails import quantile
from ustatkit.ustat import PartialSumPath, partial_sum_path


# ---------------------------------------------------------------------------
# parameters


def test_params_validation_and_critical_exponent():
    assert HolderParams(0.25).p_of_alpha == pytest.approx(4.0)
    assert HolderParams(0.3).p_of_alpha == pytest.approx(5.0)
    with pytest.raises(ValueError):
        HolderParams(0.0)
    with pytest.raises(ValueError):
        HolderParams(0.5)


# ---------------------------------------------------------------------------
# exact norm on hand-built paths


def test_tent_path_alpha_half():
    # tent through (0,0), (1/2,1), (1,0): the alpha=1/2 supremum is the
    # rise over the half gap, 1 / (1/2)^(1/2) = sqrt(2)
    y = np.array([0.0, 1.0, 0.0])
    assert holder_norm(y, 0.5) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_linear_path_alpha_half():
    # x(t) = t: increments t-s over (t-s)^(1/2) peak at the full span
    y = np.linspace(0.0, 1.0, 33)
    assert holder_norm(y, 0.5) == pytest.approx(1.0, abs=1e-12)


def test_zero_and_constant_paths():
    assert holder_norm(np.zeros(17), 0.3) == 0.0
    assert holder_norm(np.full(9, 2.5), 0.3) == pytest.approx(2.5)
    assert holder_norm(np.array([3.0]), 0.4) == pytest.approx(3.0)


def test_initial_value_enters_additively():
    base = np.array([0.0, 1.0, 0.0])
    shifted = base + 4.0
    assert holder_norm(shifted, 0.5) == pytest.approx(
        4.0 + holder_norm(base, 0.5))


def test_positive_homogeneity():
    rng = np.random.default_rng(5)
    y = rng.normal(size=20).cumsum()
    a = holder_norm(y, 0.3)
    b = holder_norm(2.5 * y, 0.3)
    assert b == pytest.approx(2.5 * a, rel=1e-12)


def test_alpha_monotonicity_on_unit_interval():
    # for increments within [0,1] the gap^(-alpha) factor grows with alpha
    rng = np.random.default_rng(6)
    y = rng.normal(size=24).cumsum()
    y -= y[0]
    norms = [holder_norm(y, a) for a in (0.1, 0.25, 0.4, 0.49)]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


def test_never_below_grid_oracle():
    rng = np.random.default_rng(7)
    for trial in range(25):
        npts = int(rng.integers(2, 40))
        y = rng.normal(size=npts).cumsum()
        alpha = float(rng.uniform(0.05, 0.95))
        exact = holder_norm(y, alpha)
        grid = holder_norm_grid(y, alpha, points=4001)
        assert exact >= grid - 1e-9, (exact, grid, alpha, npts)


def test_close_to_fine_grid_oracle():
    rng = np.random.default_rng(8)
    for trial in range(10):
        y = rng.normal(size=16).cumsum()
        alpha = float(rng.uniform(0.1, 0.45))
        exact = holder_norm(y, alpha)
        grid = holder_norm_grid(y, alpha, points=20001)
        assert exact == pytest.approx(grid, rel=5e-4, abs=5e-4)


def test_interior_optimum_found():
    # opposite-slope wedge, the shape where an interior pair would be most
    # likely to beat the corner pairs, small alpha and large; compare against
    # a dense grid to make sure the corner-pair scan never misses
    y = np.array([0.0, 1.0, -1.0, 0.5])
    for alpha in (0.15, 0.35, 0.6, 0.85):
        exact = holder_norm(y, alpha)
        grid = holder_norm_grid(y, alpha, points=40001)
        assert exact >= grid - 1e-9
        assert exact == pytest.approx(grid, rel=1e-3, abs=1e-3)


@settings(max_examples=20, deadline=None)
@given(
    values=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=8),
    gaps=st.lists(st.floats(1e-3, 1.0), min_size=7, max_size=7),
    alpha=st.floats(0.05, 0.95),
)
def test_corner_scan_never_below_grid_on_uneven_breakpoints(values, gaps, alpha):
    # short paths on uneven breakpoints, where sharp opposite-slope wedges
    # are the only place an interior pair could beat every corner pair
    y = np.array(values)
    t = np.concatenate([[0.0], np.cumsum(gaps[: y.size - 1])])
    path = SimpleNamespace(breakpoints=t, values=y)
    exact = holder_norm(path, alpha)
    assert exact >= holder_norm_grid(path, alpha, points=20001) - 1e-9


@pytest.mark.parametrize("law", ["rademacher", "gaussian"])
def test_block_rows_bit_equal_single_paths(law):
    rng = np.random.default_rng(17)
    n, exponent, alpha = 256, 1.0, 0.3
    steps = (rng.choice([-1.0, 1.0], size=(9, n)) if law == "rademacher"
             else rng.normal(size=(9, n)))
    walks = np.concatenate([np.zeros((9, 1)), steps.cumsum(axis=1)], axis=1)
    raw = (walks * walks - np.arange(n + 1)) / 2.0
    block = holder_norms(raw / float(n) ** exponent, alpha)
    single = [holder_norm(PartialSumPath(r, n, exponent), alpha) for r in raw]
    assert block.tolist() == single


def test_holder_norms_validation():
    with pytest.raises(ValueError):
        holder_norms(np.zeros(9), 0.3)
    with pytest.raises(ValueError):
        holder_norms(np.zeros((2, 3, 4)), 0.3)
    with pytest.raises(ValueError):
        holder_norms(np.zeros((2, MAX_SCAN_BREAKPOINTS + 2)), 0.3)
    with pytest.raises(ValueError):
        holder_norms(np.zeros((2, 5)), 1.0)


def test_nan_value_gives_nan_norm():
    y = np.array([0.0, np.nan, 1.0])
    assert np.isnan(holder_norm(y, 0.3))
    assert np.isnan(holder_norms(np.stack([y, np.zeros(3)]), 0.3)).tolist() == [True, False]


@pytest.mark.parametrize("breakpoints", [
    [0.0, np.nan, 1.0], [0.0, 0.5, np.inf], [-np.inf, 0.5, 1.0], [np.nan],
])
def test_non_finite_breakpoints_refused(breakpoints):
    path = SimpleNamespace(breakpoints=np.array(breakpoints),
                           values=np.arange(len(breakpoints), dtype=float))
    with pytest.raises(ValueError, match="finite"):
        holder_norm(path, 0.3)
    with pytest.raises(ValueError, match="finite"):
        holder_norm_grid(path, 0.3)


def _per_pair(values, alpha):
    """The scan with one gap power per pair on the grid k/n."""
    n = values.shape[1] - 1
    return _pair_scan(np.arange(n + 1) / max(n, 1), values, alpha)


def _same_norms(got, want):
    """Equal bits wherever finite, NaN in the same places."""
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


def _scanned(values, alpha, check):
    """holder_norms with the early stop tested every `check` lags."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ustatkit.holder, "STOP_CHECK_LAGS", check)
        return holder_norms(values, alpha)


_ALPHA = st.floats(0.05, 0.49)
_CHECK = st.integers(1, 19)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), log_n=st.integers(0, 7), alpha=_ALPHA, check=_CHECK)
def test_one_gap_per_lag_bit_equal_on_power_of_two_grids(data, log_n, alpha, check):
    # k/n is exact in binary, so every pair at a lag has the lag's one gap
    values = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 4)), 2**log_n + 1),
                                  elements=st.floats(-1e6, 1e6)))
    assert _same_norms(_scanned(values, alpha, check), _per_pair(values, alpha))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(3, 48).filter(lambda n: n & (n - 1)), alpha=_ALPHA,
       check=_CHECK)
def test_one_gap_per_lag_close_on_other_grids(data, n, alpha, check):
    # the per-pair gap t[i+L] - t[i] carries up to 2n/L roundings of t;
    # at n <= 48 and alpha < 1/2 that moves a norm by under 1e-14
    values = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 4)), n + 1),
                                  elements=st.floats(-1e6, 1e6)))
    got, want = _scanned(values, alpha, check), _per_pair(values, alpha)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), alpha=_ALPHA, check=_CHECK)
def test_one_gap_per_lag_non_finite_rows(data, n, alpha, check):
    element = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([np.nan, np.inf, -np.inf]))
    values = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 4)), n + 1),
                                  elements=element))
    with np.errstate(invalid="ignore"):  # inf - inf
        got, want = _scanned(values, alpha, check), _per_pair(values, alpha)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-14, atol=0.0)


def test_scan_drops_finished_rows_without_changing_them():
    # the step row reaches its span at lag 1 and is dropped at the first
    # check; the row with +inf 40 lags apart must scan on to meet inf - inf
    n = 64
    step = np.zeros(n + 1)
    step[1:] = 1.0
    late = np.zeros(n + 1)
    late[[3, 43]] = np.inf
    walk = np.concatenate([[0.0], np.random.default_rng(3).normal(size=n).cumsum()])
    values = np.stack([step, late, walk])
    for check in range(1, 20):
        with np.errstate(invalid="ignore"):
            got, want = _scanned(values, 0.3, check), _per_pair(values, 0.3)
        assert np.isnan(got[1])
        assert _same_norms(got, want)


def _quantile_row(kind: str, n: int, rng) -> np.ndarray:
    if kind in ("walk", "copy"):
        return np.concatenate([[0.0], rng.normal(size=n).cumsum()])
    if kind == "ties":  # integer walks: many rows share their norm
        return np.concatenate([[0.0], rng.choice([-1.0, 1.0], size=n).cumsum()])
    if kind == "constant":
        return np.full(n + 1, rng.choice([0.0, -0.0, 2.5]))
    if kind == "huge":  # a finite span whose ratios overflow to inf
        return rng.uniform(-8e307, 8e307, size=n + 1)
    if kind == "late":  # +inf at both ends: inf - inf is a NaN at the last lag only
        row = rng.normal(size=n + 1)
        row[[0, -1]] = np.inf
        return row
    row = rng.normal(size=n + 1)  # one NaN or +-inf
    row[rng.integers(n + 1)] = rng.choice([np.nan, np.inf, -np.inf])
    return row


_LEVELS = st.lists(st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0)),
                   min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), count=st.sampled_from([1, 2, 3, 9, 40]),
       n=st.sampled_from([0, 1, 2, 15, 16, 17, 40, 70]), alpha=st.floats(0.01, 0.99),
       levels=_LEVELS, check=st.integers(1, 19))
def test_norm_quantiles_bit_equal_to_the_full_scan(data, count, n, alpha, levels, check):
    kinds = data.draw(st.lists(
        st.sampled_from(["walk", "ties", "copy", "constant", "huge", "special", "late"]),
        min_size=count, max_size=count))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:  # a copy repeats the row before it, bounds and all
        rows.append(rows[-1] if kind == "copy" and rows else _quantile_row(kind, n, rng))
    values = np.stack(rows)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(ustatkit.holder, "STOP_CHECK_LAGS", check)
        got = holder_norm_quantiles(values, alpha, levels)
        want = quantile(holder_norms(values, alpha), levels)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_norm_quantiles_scan_few_steps(monkeypatch):
    # on the Holder experiment's product-kernel paths, only the rows near
    # the median and the 90% quantile scan to their last useful lag
    rng = np.random.default_rng(11)
    count, n = 400, 256
    walks = np.concatenate([np.zeros((count, 1)), rng.choice([-1.0, 1.0], (count, n))],
                           axis=1).cumsum(axis=1)
    walks = (walks * walks - np.arange(n + 1)) / 2.0 / n
    steps = []
    ratios = ustatkit.holder._lag_ratios
    monkeypatch.setattr(ustatkit.holder, "_lag_ratios",
                        lambda rows, *args: steps.append(len(rows)) or ratios(rows, *args))
    got = holder_norm_quantiles(walks, 0.3, [0.5, 0.9])
    assert sum(steps) < 0.15 * count * n
    assert got.tobytes() == quantile(holder_norms(walks, 0.3), [0.5, 0.9]).tobytes()


def test_norm_quantiles_validation():
    for values, alpha, levels in ((np.zeros(9), 0.3, 0.5), (np.zeros((2, 5)), 1.0, 0.5),
                                  (np.zeros((2, MAX_SCAN_BREAKPOINTS + 2)), 0.3, 0.5),
                                  (np.zeros((2, 5)), 0.3, 1.5)):
        with pytest.raises(ValueError):
            holder_norm_quantiles(values, alpha, levels)


def test_path_object_input():
    h = builtin_kernel("product", 2)
    sample = np.array([1.0, -1.0, 2.0, -2.0, 0.5])
    path = partial_sum_path(h, sample, normalization_exponent=1.0)
    direct = holder_norm(path, 0.3)
    # same numbers through the raw arrays
    manual = holder_norm_grid(path, 0.3, points=20001)
    assert direct >= manual - 1e-9


def test_breakpoint_cap_enforced():
    with pytest.raises(ValueError):
        holder_norm(np.zeros(MAX_SCAN_BREAKPOINTS + 2), 0.3)


def test_alpha_validation():
    with pytest.raises(ValueError):
        holder_norm(np.zeros(4), 0.0)
    with pytest.raises(ValueError):
        holder_norm(np.zeros(4), 1.0)
    with pytest.raises(ValueError):
        holder_norm_grid(np.zeros(4), 0.3, points=1)


# ---------------------------------------------------------------------------
# dyadic exceedance table


def _straight_paths(count, n, slope=1.0):
    base = np.arange(n + 1, dtype=np.float64) * slope
    return [base.copy() for _ in range(count)]


def test_exceedance_all_or_nothing():
    n = 64
    paths = _straight_paths(5, n, slope=1.0)
    # increments over cell (j, k) equal high - low ~= n 2^-j; a huge eps
    # silences every cell, a tiny one fires them all
    quiet = dyadic_increment_exceedance(paths, 0.3, eps=1e9, d=1, j_max=4)
    assert all(row["frequency"] == 0.0 for row in quiet.rows)
    loud = dyadic_increment_exceedance(paths, 0.3, eps=1e-9, d=1, j_max=4)
    assert all(row["frequency"] == 1.0 for row in loud.rows)
    # layer j has 2^j always-firing cells
    assert loud.layer_sums == [(j, float(2**j)) for j in range(5)]


def test_exceedance_single_jump_localized():
    # a path flat everywhere except one unit jump between breakpoints 20,21
    n = 64
    flat = np.zeros(n + 1)
    jump = flat.copy()
    jump[21:] = 1.0
    table = dyadic_increment_exceedance(
        [jump], alpha=0.25, eps=0.5 / float(n) ** 0.5, d=1, j_max=3)
    for row in table.rows:
        covers = row["low"] <= 20 < row["high"]
        # threshold at level j is n^(1/2) 2^(-alpha j) eps = 0.5 * 2^(-j/4) < 1
        assert row["frequency"] == (1.0 if covers else 0.0), row


def test_exceedance_tail_sums_are_reverse_cumulative():
    rng = np.random.default_rng(11)
    paths = [rng.normal(size=65).cumsum() for _ in range(40)]
    table = dyadic_increment_exceedance(paths, 0.3, eps=0.2, d=1, j_max=5)
    for J, _ in table.tail_sums:
        want = sum(s for j, s in table.layer_sums if j >= J)
        assert table.tail_sum(J) == pytest.approx(want)
    with pytest.raises(KeyError):
        table.tail_sum(99)


def test_exceedance_validation():
    paths = _straight_paths(2, 16)
    with pytest.raises(ValueError):
        dyadic_increment_exceedance(paths, 0.3, eps=0.1, d=1, j_max=5)
    with pytest.raises(ValueError):
        dyadic_increment_exceedance(paths, 0.3, eps=0.0, d=1, j_max=2)
    with pytest.raises(ValueError):
        dyadic_increment_exceedance(paths, 0.3, eps=0.1, d=0, j_max=2)
    with pytest.raises(ValueError):
        dyadic_increment_exceedance([], 0.3, eps=0.1, d=1, j_max=2)
    with pytest.raises(ValueError):
        dyadic_increment_exceedance(
            [np.zeros(5), np.zeros(6)], 0.3, eps=0.1, d=1, j_max=1)


def test_calibrate_epsilon_targets_exceedance_mass():
    rng = np.random.default_rng(13)
    paths = [rng.normal(size=129).cumsum() for _ in range(50)]
    eps = calibrate_epsilon(paths, alpha=0.3, d=1, j_max=4, level=0.9)
    assert eps > 0
    table = dyadic_increment_exceedance(paths, 0.3, eps=eps, d=1, j_max=4)
    total_cells = sum(2**j for j in range(5)) * len(paths)
    fired = sum(row["frequency"] for row in table.rows) * len(paths)
    # the pooled 0.9-quantile leaves close to 10 percent of cells firing
    assert 0.02 <= fired / total_cells <= 0.25


def test_calibrate_epsilon_validation():
    paths = _straight_paths(2, 16)
    with pytest.raises(ValueError):
        calibrate_epsilon(paths, 0.3, 1, j_max=2, level=1.0)
    with pytest.raises(ValueError):
        calibrate_epsilon(paths, 0.3, 1, j_max=9)
    # the exceedance table's own checks and messages
    for alpha in (1.5, -0.2):
        with pytest.raises(ValueError, match="outside"):
            calibrate_epsilon(paths, alpha, 1, j_max=2)
    with pytest.raises(ValueError, match="degeneracy order"):
        calibrate_epsilon(paths, 0.3, 0, j_max=2)
    with pytest.raises(ValueError, match="nonnegative"):
        calibrate_epsilon(paths, 0.3, 1, j_max=-1)
