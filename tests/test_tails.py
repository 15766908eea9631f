"""Empirical tails, tail integrals, weak norms, conditional moment profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from ustatkit.kernels import Distribution, builtin_kernel, stream
from ustatkit.spaces import BanachSpaceDescriptor
from ustatkit.tails import (
    EmpiricalTail,
    conditional_moment_tail,
    median,
    norm_moment,
    quantile,
    required_integrability,
    tail_integral,
    weak_lp_norm,
)


def quad_tail_integral(tail, t, q):
    """Quadrature oracle for int_0^1 u^{q-1} P(Y > t u) du."""
    def integrand(u):
        return u ** (q - 1.0) * tail.survival(t * u)
    breaks = sorted({float(v) / t for v in tail.values if 0.0 < v / t < 1.0})
    val, _ = integrate.quad(integrand, 0.0, 1.0, points=breaks, limit=200)
    return val


def brute_weak_norm(tail, p):
    """Scan t just below each order statistic, where the sup is approached."""
    best = 0.0
    for v in tail.values:
        if v > 0.0:
            t = v * (1.0 - 1e-12)
            best = max(best, t**p * tail.survival(t))
    return best


# ---------------------------------------------------------------------------
# EmpiricalTail container


def test_from_samples_sorts_and_defaults_uniform():
    tail = EmpiricalTail.from_samples([3.0, 1.0, 2.0])
    np.testing.assert_allclose(tail.values, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(tail.weights, [1 / 3] * 3)


def test_from_samples_validation():
    with pytest.raises(ValueError):
        EmpiricalTail.from_samples([-1.0, 2.0])
    with pytest.raises(ValueError):
        EmpiricalTail.from_samples([1.0, 2.0], [0.5])
    with pytest.raises(ValueError):
        EmpiricalTail.from_samples([1.0, 2.0], [0.9, 0.9])


def test_survival_right_continuous():
    tail = EmpiricalTail.from_samples([1.0, 2.0, 3.0])
    assert tail.survival(0.5) == pytest.approx(1.0)
    assert tail.survival(1.0) == pytest.approx(2 / 3)
    assert tail.survival(2.5) == pytest.approx(1 / 3)
    assert tail.survival(3.0) == 0.0


def test_quantile_smallest_value_reaching_level():
    tail = EmpiricalTail.from_samples([1.0, 2.0, 3.0, 4.0])
    assert tail.quantile(0.25) == 1.0
    assert tail.quantile(0.26) == 2.0
    assert tail.quantile(1.0) == 4.0
    with pytest.raises(ValueError):
        tail.quantile(0.0)
    with pytest.raises(ValueError):
        EmpiricalTail.from_samples([]).quantile(0.5)


# ---------------------------------------------------------------------------
# tail integral


def test_tail_integral_hand_case():
    # values {1, 2, 3} uniform, t = 2, q = 1:
    # integral of P(Y > 2u) over [0,1] = 1/2 + (1/2)(2/3) = 5/6
    tail = EmpiricalTail.from_samples([1.0, 2.0, 3.0])
    assert tail_integral(tail, 2.0, 1.0) == pytest.approx(5.0 / 6.0, abs=1e-15)


def test_tail_integral_point_mass():
    tail = EmpiricalTail.from_samples([2.0], [1.0])
    # y >= t: min(1, y/t) = 1, integral = 1/q
    assert tail_integral(tail, 1.0, 3.0) == pytest.approx(1.0 / 3.0)
    # y < t: (y/t)^q / q
    assert tail_integral(tail, 4.0, 2.0) == pytest.approx(0.25 / 2.0)


def test_tail_integral_matches_quadrature():
    rng = np.random.default_rng(101)
    for trial in range(20):
        k = rng.integers(1, 30)
        vals = rng.gamma(2.0, 1.0, size=k)
        w = rng.random(k)
        tail = EmpiricalTail.from_samples(vals, w / w.sum())
        t = float(rng.uniform(0.2, 4.0))
        q = float(rng.uniform(0.5, 5.0))
        assert tail_integral(tail, t, q) == pytest.approx(
            quad_tail_integral(tail, t, q), abs=1e-10)


def test_tail_integral_validation_and_empty():
    tail = EmpiricalTail.from_samples([1.0])
    with pytest.raises(ValueError):
        tail_integral(tail, 0.0, 1.0)
    with pytest.raises(ValueError):
        tail_integral(tail, 1.0, 0.0)
    assert tail_integral(EmpiricalTail.from_samples([]), 1.0, 2.0) == 0.0


# ---------------------------------------------------------------------------
# weak norm


def test_weak_lp_norm_hand_case():
    tail = EmpiricalTail.from_samples([1.0, 2.0, 3.0])
    # candidates: 1^2*1, 2^2*(2/3), 3^2*(1/3) -> max is 3
    assert weak_lp_norm(tail, 2.0) == pytest.approx(3.0)


def test_weak_lp_norm_matches_brute_force():
    rng = np.random.default_rng(55)
    for trial in range(20):
        k = rng.integers(1, 40)
        vals = rng.exponential(1.0, size=k)
        w = rng.random(k)
        tail = EmpiricalTail.from_samples(vals, w / w.sum())
        p = float(rng.uniform(0.5, 4.0))
        assert weak_lp_norm(tail, p) == pytest.approx(
            brute_weak_norm(tail, p), rel=1e-9)


def test_weak_lp_norm_bounds_moment():
    # t^p P(Y > t) <= E Y^p always
    rng = np.random.default_rng(77)
    vals = rng.gamma(1.5, 1.0, size=50)
    tail = EmpiricalTail.from_samples(vals)
    for p in (1.0, 1.5, 2.0):
        assert weak_lp_norm(tail, p) <= np.mean(vals**p) + 1e-12


# ---------------------------------------------------------------------------
# conditional moment profiles


def test_conditional_profile_exact_full_conditioning():
    # J = all positions: the profile is just |h| itself
    h = builtin_kernel("product", 2)
    d = Distribution.finite([0.0, 2.0], [0.5, 0.5])
    tail = conditional_moment_tail(h, d, (0, 1), p=2.0)
    # |x y| over the four atoms: 0, 0, 0, 4
    assert tail.survival(1.0) == pytest.approx(0.25)
    assert tail.values.max() == pytest.approx(4.0)


def test_conditional_profile_exact_partial():
    # product kernel, condition on the first slot:
    # (E[(x xi)^2])^{1/2} = |x| sqrt(E xi^2) = |x| sqrt(2)
    h = builtin_kernel("product", 2)
    d = Distribution.finite([0.0, 2.0], [0.5, 0.5])
    tail = conditional_moment_tail(h, d, (0,), p=2.0)
    assert tail.size == 2
    np.testing.assert_allclose(sorted(tail.values), [0.0, 2.0 * np.sqrt(2.0)])
    np.testing.assert_allclose(tail.weights, [0.5, 0.5])


def test_conditional_profile_empty_conditioning_is_point_mass():
    h = builtin_kernel("product", 2)
    d = Distribution.rademacher()
    tail = conditional_moment_tail(h, d, (), p=3.0)
    assert tail.size == 1
    assert tail.values[0] == pytest.approx(1.0)


def test_conditional_profile_monte_carlo_close_to_exact():
    # uniform(0,1) law, product kernel: profile given x is x / sqrt(3)
    h = builtin_kernel("product", 2)
    d = Distribution.uniform(0.0, 1.0)
    tail = conditional_moment_tail(h, d, (0,), p=2.0,
                                   outer=512, inner=2048, seed=4)
    assert tail.size == 512
    # the profile maximum is 1/sqrt(3), its median is 0.5/sqrt(3)
    assert tail.values.max() == pytest.approx(1.0 / np.sqrt(3.0), rel=0.05)
    assert tail.quantile(0.5) == pytest.approx(0.5 / np.sqrt(3.0), rel=0.1)


def test_conditional_profile_validation():
    h = builtin_kernel("product", 2)
    d = Distribution.rademacher()
    with pytest.raises(ValueError):
        conditional_moment_tail(h, d, (0, 0), p=2.0)
    with pytest.raises(ValueError):
        conditional_moment_tail(h, d, (5,), p=2.0)
    with pytest.raises(ValueError):
        conditional_moment_tail(h, d, (0,), p=0.0)


def test_conditional_profile_vector_codomain():
    space = BanachSpaceDescriptor(dimension=2, norm_exponent=2.0)
    from ustatkit.kernels import Kernel
    h = Kernel(
        2,
        lambda xs, idx: np.stack(
            np.broadcast_arrays(xs[0] * xs[1], 0.0 * xs[0]), axis=-1),
        symmetric=True, codomain=space)
    d = Distribution.rademacher()
    tail = conditional_moment_tail(h, d, (0,), p=2.0)
    # norm of (x y, 0) is 1 for every atom pair
    np.testing.assert_allclose(tail.values, [1.0, 1.0])


# ---------------------------------------------------------------------------
# moments and rate exponents


def test_norm_moment_exact():
    h = builtin_kernel("product", 2)
    assert norm_moment(h, Distribution.rademacher(), 3.0) == pytest.approx(1.0)
    d = Distribution.finite([0.0, 2.0], [0.5, 0.5])
    # E[(x y)^2] = (E x^2)^2 = 4
    assert norm_moment(h, d, 2.0) == pytest.approx(4.0)


def test_norm_moment_monte_carlo():
    h = builtin_kernel("product", 2)
    d = Distribution.uniform(0.0, 1.0)
    # E[(x y)^2] = (1/3)^2
    got = norm_moment(h, d, 2.0, draws=1 << 15, seed=2)
    assert got == pytest.approx(1.0 / 9.0, rel=0.05)


def test_required_integrability_frozen_case():
    # max(2,2)/2 - 1/2 + 1 = 3/2 in the denominator, numerator 3
    assert required_integrability(2, 2, 0.0, 2.0, 0.5) == pytest.approx(2.0)


def test_required_integrability_validation():
    with pytest.raises(ValueError):
        required_integrability(0, 1, 0.0, 2.0, 0.2)
    with pytest.raises(ValueError):
        required_integrability(2, -1, 0.0, 2.0, 0.2)
    with pytest.raises(ValueError):
        required_integrability(2, 1, 0.0, 2.5, 0.2)
    with pytest.raises(ValueError):
        required_integrability(2, 1, -1.0, 2.0, 0.2)
    with pytest.raises(ValueError):
        required_integrability(2, 1, 0.0, 2.0, 1.5)


# ---------------------------------------------------------------------------
# order statistics


_EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.0]
# a few distinct values drawn again and again make ties, of +-0.0 too
_SAMPLES = st.lists(
    st.sampled_from(_EDGES) | st.floats(allow_subnormal=True) | st.integers(-3, 3).map(float),
    min_size=1, max_size=64)
_LEVELS = (st.lists(st.sampled_from([0.0, 1.0, 0.5, 0.9]) | st.floats(0.0, 1.0),
                    min_size=1, max_size=6).map(np.array)
           | st.integers(1, 24).map(lambda k: np.linspace(0.5, 0.96, k)))


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


@settings(max_examples=400, deadline=None)
@given(values=_SAMPLES, levels=_LEVELS)
def test_quantile_and_median_equal_numpy_bit_for_bit(values, levels):
    x = np.array(values)
    with np.errstate(all="ignore"):  # inf - inf, 1e308 + 1e308
        want = np.quantile(x, levels)
        assert _bits(quantile(x, levels)).tolist() == _bits(want).tolist()
        for level in levels:
            assert _bits(quantile(x, float(level))) == _bits(np.quantile(x, float(level)))
        assert _bits(median(x)) == _bits(np.median(x))
    assert x.tobytes() == np.array(values).tobytes()  # the input is left as it was


def test_quantile_refuses_a_level_outside_the_unit_interval():
    for level in (-0.1, 1.5, np.nan):
        with pytest.raises(ValueError, match="levels"):
            quantile([1.0, 2.0], [0.5, level])
