"""Projections, degeneracy certification, and the reconstruction identity."""

import numpy as np
import pytest

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
    kernel_from_expression,
)

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
