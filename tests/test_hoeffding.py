"""Projections, degeneracy certification, and the reconstruction identity."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ustatkit.kernels as kernels

from ustatkit.hoeffding import (
    check_degeneracy,
    project_component,
    project_degenerate_level,
    reconstruct_identity_check,
)
from ustatkit.kernels import (
    Distribution,
    Kernel,
    builtin_kernel,
    evaluate,
    kernel_from_expression,
)
from ustatkit.spaces import BanachSpaceDescriptor

RADEMACHER = Distribution.rademacher()


# ---------------------------------------------------------------------------
# projections, exact path


def test_project_empty_subset_is_the_mean():
    h = builtin_kernel("sum", 2)
    d = Distribution.finite([0.0, 2.0], [0.5, 0.5])
    comp = project_component(h, (), d)
    assert comp.exact
    assert comp.constant == pytest.approx(2.0)


def test_project_singleton_sum_kernel():
    # h = x + y with mean-zero inputs: one-point projection is
    # E[h | x] - E[h] = x
    h = builtin_kernel("sum", 2)
    comp = project_component(h, (0,), RADEMACHER)
    for x in (-1.0, 1.0, 0.5):
        assert comp.evaluate([x]) == pytest.approx(x)


def test_project_pair_product_kernel():
    # product of centered inputs: the top component is h itself minus
    # lower terms, all of which vanish
    h = builtin_kernel("product", 2)
    comp = project_component(h, (0, 1), RADEMACHER)
    for x, y in [(1.0, 1.0), (1.0, -1.0), (0.5, 2.0)]:
        assert comp.evaluate([x, y]) == pytest.approx(x * y)


def test_project_pair_of_sum_kernel_vanishes():
    h = builtin_kernel("sum", 2)
    comp = project_component(h, (0, 1), RADEMACHER)
    for x, y in [(1.0, -1.0), (1.0, 1.0)]:
        assert comp.evaluate([x, y]) == pytest.approx(0.0, abs=1e-12)


def test_projection_is_centered():
    # every nonempty component integrates to zero in each argument
    h = kernel_from_expression("x1 * x2 + x1 + x2 ^ 2", 2)
    d = Distribution.finite([-1.0, 0.0, 2.0], [0.25, 0.5, 0.25])
    atoms, probs = d.support()
    comp = project_component(h, (0,), d)
    vals = np.array([comp.evaluate([a]) for a in atoms])
    assert float(np.dot(vals, probs)) == pytest.approx(0.0, abs=1e-12)


def test_level_projection_matches_subset_projection_for_symmetric():
    h = builtin_kernel("covariance", 2)
    d = Distribution.finite([0.0, 1.0, 3.0], [0.3, 0.4, 0.3])
    by_level = project_degenerate_level(h, 1, d)
    by_subset = project_component(h, (0,), d)
    for x in (0.0, 1.0, 3.0):
        assert by_level.evaluate([x]) == pytest.approx(by_subset.evaluate([x]))


def test_level_projection_validation():
    h = builtin_kernel("sign", 2)
    with pytest.raises(ValueError):
        project_degenerate_level(h, 1, RADEMACHER)
    g = builtin_kernel("product", 2)
    with pytest.raises(ValueError):
        project_degenerate_level(g, 3, RADEMACHER)
    w = kernel_from_expression("x1 * i1", 1, symmetric=True)
    with pytest.raises(ValueError):
        project_degenerate_level(w, 1, RADEMACHER)


def test_project_component_validation():
    h = builtin_kernel("product", 2)
    with pytest.raises(ValueError):
        project_component(h, (0, 0), RADEMACHER)
    with pytest.raises(ValueError):
        project_component(h, (0, 2), RADEMACHER)


def test_as_kernel_round_trip():
    h = builtin_kernel("covariance", 2)
    d = Distribution.finite([0.0, 1.0], [0.5, 0.5])
    comp = project_degenerate_level(h, 2, d)
    k = comp.as_kernel()
    assert k.arity == 2 and k.symmetric
    for x, y in [(0.0, 1.0), (1.0, 1.0)]:
        assert k.body((np.float64(x), np.float64(y)), None) == pytest.approx(
            comp.evaluate([x, y]))


def _poly(xs):
    """A nonlinear, non-symmetric function of any number of points."""
    out = 0.5
    for j, x in enumerate(xs):
        out = out * (1.0 + (j + 1) * x) + x * x
    return out


def _kernel(kind: str, m: int) -> Kernel:
    if kind == "scalar":
        return Kernel(m, lambda xs, idx: _poly(xs))
    if kind == "vector":
        return Kernel(m, lambda xs, idx: np.stack(np.broadcast_arrays(_poly(xs), sum(xs) - 1.0),
                                                  axis=-1),
                      codomain=BanachSpaceDescriptor(dimension=2, norm_exponent=2.0))
    return Kernel(m, lambda xs, idx: _poly(xs) / (1.0 + sum(idx)), weighted=True)


def _brute_force_component(h, subset, atoms, probs, point, index):
    """sum_{J subset I} (-1)^{|I|-|J|} E[h(V)], one atom tuple at a time.

    Also returns the sum of the terms' absolute values, the scale of the
    rounding error of any evaluation order."""
    m = h.arity
    total, scale = 0.0, 0.0
    for size in range(len(subset) + 1):
        for fixed in itertools.combinations(range(len(subset)), size):
            sign = (-1.0) ** (len(subset) - size)
            at = {subset[a]: point[a] for a in fixed}
            free = [j for j in range(m) if j not in at]
            for combo in itertools.product(range(len(atoms)), repeat=len(free)):
                values = {**at, **{j: atoms[c] for j, c in zip(free, combo)}}
                weight = float(np.prod([probs[c] for c in combo]))
                term = weight * np.asarray(evaluate(h, [values[j] for j in range(m)], index))
                total = total + sign * term
                scale = scale + np.abs(term)
    return total, scale


_FINITE_VALUES = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=120, deadline=None)
@given(
    atoms=st.lists(_FINITE_VALUES, min_size=1, max_size=4),
    masses=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=4, max_size=4),
    m=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["scalar", "vector", "weighted"]),
    data=st.data(),
)
def test_project_component_on_a_finite_law_is_the_alternating_sum(atoms, masses, m, kind,
                                                                    data):
    masses = np.asarray(masses[: len(atoms)])
    probs = list(masses / masses.sum())
    dist = Distribution.finite(atoms, probs)
    atoms, probs = dist.support()
    h = _kernel(kind, m)
    index = tuple(range(3, 3 + 2 * m, 2)) if h.weighted else None
    point = data.draw(st.lists(_FINITE_VALUES, min_size=m, max_size=m))
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            comp = project_component(h, subset, dist, index=index)
            assert comp.exact
            x = [point[j] for j in subset]
            got = comp.evaluate(x) if size else np.asarray(comp.constant)
            want, scale = _brute_force_component(h, subset, atoms, probs, x, index)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(scale))


@pytest.mark.parametrize("dist", [Distribution.finite([-2.0, 1.0, 3.0], [0.4, 0.5, 0.1]),
                                  Distribution.gaussian()])
@pytest.mark.parametrize("kind", ["scalar", "vector"])
def test_component_values_do_not_move_with_the_slabs(monkeypatch, dist, kind):
    h = _kernel(kind, 3)
    comp = project_component(h, (0, 2), dist, inner=16, seed=4)
    rng = np.random.default_rng(8)
    cols = [rng.standard_normal(37), rng.standard_normal(37)]
    whole = comp.evaluate_batch(cols)
    whole_se = comp.standard_error_batch(cols)
    # 37 points of 27 completions each are cut into slabs of 4 points
    monkeypatch.setattr(kernels, "_SLAB_VALUES", 100)
    slabbed = comp.evaluate_batch(cols)
    assert slabbed.shape == whole.shape and slabbed.tobytes() == whole.tobytes()
    assert comp.standard_error_batch(cols).tobytes() == whole_se.tobytes()


# ---------------------------------------------------------------------------
# reconstruction identity


def test_reconstruction_exact_paths():
    d = Distribution.finite([-1.0, 0.5, 2.0], [0.3, 0.4, 0.3])
    for h in [
        builtin_kernel("product", 2),
        builtin_kernel("sum", 3),
        builtin_kernel("covariance", 2),
        kernel_from_expression("x1 ^ 2 * x2 - x2 + 1", 2),
    ]:
        check = reconstruct_identity_check(h, d, samples=16, seed=3)
        assert check.exact
        assert check.passed, check.max_deviation


def test_reconstruction_monte_carlo_path():
    h = builtin_kernel("covariance", 2)
    d = Distribution.gaussian()
    check = reconstruct_identity_check(h, d, samples=8, inner=2048, seed=5)
    assert not check.exact
    assert check.passed, (check.max_deviation, check.tolerance)


def test_reconstruction_weighted_kernel_fixed_index():
    h = kernel_from_expression("x1 * x2 / (i1 + i2)", 2, symmetric=True)
    d = Distribution.finite([-1.0, 1.0], [0.5, 0.5])
    check = reconstruct_identity_check(h, d, samples=8, seed=7, index=(2, 5))
    assert check.exact and check.passed


def test_projection_of_a_kernel_that_ignores_a_position_on_a_finite_law():
    # the body returns x1's shape, smaller than the support grid it meets
    h = kernel_from_expression("x1", 2)
    d = Distribution.finite([0.0, 1.0, 3.0], [0.2, 0.3, 0.5])
    mu = d.mean()
    assert project_component(h, (0,), d).evaluate([0.5]) == pytest.approx(0.5 - mu)
    assert project_component(h, (1,), d).evaluate([0.5]) == pytest.approx(0.0, abs=1e-15)
    check = reconstruct_identity_check(h, d, samples=8, seed=7)
    assert check.exact and check.passed


# ---------------------------------------------------------------------------
# degeneracy certification


def test_product_kernel_fully_degenerate():
    report = check_degeneracy(builtin_kernel("product", 2), RADEMACHER)
    assert report.exact
    assert report.degenerate is True
    assert report.order == 2


def test_product_kernel_order_three():
    report = check_degeneracy(builtin_kernel("product", 3), RADEMACHER)
    assert report.degenerate is True
    assert report.order == 3


def test_sum_kernel_not_degenerate():
    report = check_degeneracy(builtin_kernel("sum", 2), RADEMACHER)
    assert report.degenerate is False
    assert report.order == 1


def test_uncentered_kernel_flags_order_zero():
    # (x - y)^2 / 2 has mean Var(x) > 0, so the prefix-0 entry fires
    d = Distribution.finite([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    report = check_degeneracy(builtin_kernel("covariance", 2), d)
    assert report.degenerate is False
    assert report.order == 0


def test_centered_covariance_order_one():
    # subtracting the variance centers it; E[h | x] = (x^2 - 2 x mu + ...)/2
    # still moves with x under this law, so the order is 1
    d = Distribution.finite([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    h = kernel_from_expression("((x1 - x2) ^ 2 - 1) / 2", 2, symmetric=True)
    report = check_degeneracy(h, d)
    assert report.degenerate is False
    assert report.order == 1


def test_centered_covariance_on_rademacher_is_degenerate():
    # under rademacher x^2 is constant, so centering kills E[h | x] entirely
    h = kernel_from_expression("((x1 - x2) ^ 2 - 2) / 2", 2, symmetric=True)
    report = check_degeneracy(h, RADEMACHER)
    assert report.degenerate is True
    assert report.order == 2


def test_report_to_dict_shape():
    report = check_degeneracy(builtin_kernel("product", 2), RADEMACHER)
    d = report.to_dict()
    assert d["arity"] == 2
    assert d["degenerate"] is True
    assert d["order"] == 2
    assert {e["label"] for e in d["coordinate_entries"]} == {"all-but-0", "all-but-1"}
    assert len(d["level_entries"]) == 3


def test_monte_carlo_certification_gaussian():
    report = check_degeneracy(builtin_kernel("product", 2),
                              Distribution.gaussian(), inner=512, outer=128,
                              seed=11)
    assert not report.exact
    assert report.degenerate is True


@pytest.mark.parametrize("seed", range(10))
def test_gaussian_product_certifies_its_order_at_small_budgets(seed):
    # prefix-2 has no free position, so E[h | xi_1, xi_2] = h is decided
    # from its values at the outer draws, with no split-sample floor
    report = check_degeneracy(builtin_kernel("product", 2), Distribution.gaussian(),
                              inner=256, outer=64, seed=seed)
    assert report.order == 2
    assert report.level_entries[2].squared_se == 0.0


def test_fully_conditioned_entry_of_a_live_kernel_is_nonzero():
    h = kernel_from_expression("x1 + x2 + x1 * x2", 2, symmetric=True)
    report = check_degeneracy(h, Distribution.gaussian(), inner=256, outer=64)
    assert report.level_entries[2].label == "prefix-2"
    assert report.level_entries[2].verdict == "nonzero"
    assert report.order == 1


@pytest.mark.parametrize("dist", [Distribution.finite([0.0, 1.0, 3.0], [0.2, 0.3, 0.5]),
                                  Distribution.gaussian()])
def test_kernel_that_ignores_a_position_is_certified(dist):
    # E[h | xi_1] = xi_1 - mu is live, E[h | xi_2] vanishes
    h = kernel_from_expression(f"x1 - {dist.mean()}", 2)
    report = check_degeneracy(h, dist, inner=256, outer=64, seed=3)
    verdicts = {e.label: e.verdict for e in report.coordinate_entries + report.level_entries}
    assert verdicts == {"all-but-0": "zero", "all-but-1": "nonzero", "prefix-0": "zero",
                        "prefix-1": "nonzero", "prefix-2": "nonzero"}
    assert report.order == 1


def test_check_degeneracy_rejects_weighted():
    h = kernel_from_expression("x1 * i1", 1)
    with pytest.raises(ValueError):
        check_degeneracy(h, RADEMACHER)


def test_projected_top_component_is_degenerate():
    # the top-level projection of a kernel with a real pair interaction is
    # (x - mu)(y - mu), which is fully degenerate
    h = kernel_from_expression("x1 * x2 + x1 + x2", 2, symmetric=True)
    d = Distribution.finite([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])
    comp = project_degenerate_level(h, 2, d)
    report = check_degeneracy(comp.as_kernel(), d)
    assert report.degenerate is True
    assert report.order == 2
    mu = d.mean()
    assert comp.evaluate([3.0, 1.0]) == pytest.approx((3.0 - mu) * (1.0 - mu))


def test_vector_codomain_projection():
    from ustatkit.spaces import BanachSpaceDescriptor
    space = BanachSpaceDescriptor(dimension=2, norm_exponent=2.0)
    h = Kernel(
        2,
        lambda xs, idx: np.stack(
            np.broadcast_arrays(xs[0] * xs[1], xs[0] + xs[1]), axis=-1),
        symmetric=True, codomain=space)
    check = reconstruct_identity_check(
        h, Distribution.finite([-1.0, 1.0], [0.5, 0.5]), samples=8, seed=2)
    assert check.exact and check.passed
    report = check_degeneracy(h, RADEMACHER)
    # the sum coordinate has a live first projection
    assert report.degenerate is False
