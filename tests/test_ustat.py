"""Complete sums, prefix trajectories, projected sums, decomposition identity."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ustatkit.hoeffding import project_component
from ustatkit.kernels import (
    Distribution,
    builtin_kernel,
    evaluate,
    kernel_from_expression,
    stream,
)
from ustatkit.spaces import BanachSpaceDescriptor
from ustatkit.ustat import (
    MAX_EVALUATION_TERMS,
    EvaluationBudgetError,
    complete_ustat,
    completion_weight,
    decomposition_identity_check,
    partial_sum_path,
    prefix_values,
    projection_ustat,
    running_max_norms,
)


def brute_force_ustat(h, sample, index_aware=False):
    total = 0.0
    m = h.arity
    for idx in itertools.combinations(range(len(sample)), m):
        vals = [sample[j] for j in idx]
        total += evaluate(h, vals, index=idx if index_aware else None)
    return total


# ---------------------------------------------------------------------------
# complete evaluation


def test_product_hand_case():
    res = complete_ustat(builtin_kernel("product", 2), [1.0, -1.0, 2.0])
    assert res.value == pytest.approx(-1.0)
    assert (res.n, res.m, res.terms) == (3, 2, 3)
    assert res.total_weight == pytest.approx(3.0)


def test_matches_brute_force_random_kernels():
    rng = np.random.default_rng(17)
    sample = rng.normal(size=9)
    for h in [
        builtin_kernel("product", 2),
        builtin_kernel("product", 3),
        builtin_kernel("sum", 2),
        builtin_kernel("covariance", 2),
        builtin_kernel("sign", 2),
        kernel_from_expression("x1 ^ 2 - x2 * x3", 3),
    ]:
        got = complete_ustat(h, sample).value
        want = brute_force_ustat(h, sample)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_weighted_kernel_sees_one_based_indices():
    h = kernel_from_expression("x1 * x2 / (i1 + i2)", 2, symmetric=True)
    sample = np.array([1.0, -1.0, 2.0])
    got = complete_ustat(h, sample).value
    want = brute_force_ustat(h, sample, index_aware=True)
    assert got == pytest.approx(want, rel=1e-12)
    # hand value: pairs (1,2),(1,3),(2,3) with 1-based index sums 3,4,5
    hand = (1 * -1) / 3 + (1 * 2) / 4 + (-1 * 2) / 5
    assert got == pytest.approx(hand)


def test_n_below_arity_gives_empty_sum():
    res = complete_ustat(builtin_kernel("product", 3), [1.0, 2.0])
    assert res.value == 0.0
    assert res.terms == 0


def test_budget_guard():
    h = builtin_kernel("product", 2)
    # C(10^6, 2) is far past the summand cap; the guard fires before any
    # kernel evaluation happens
    with pytest.raises(EvaluationBudgetError):
        complete_ustat(h, np.zeros(10**6))
    assert MAX_EVALUATION_TERMS == 10**8


def test_permutation_invariance_symmetric_kernel():
    rng = np.random.default_rng(3)
    sample = rng.normal(size=8)
    h = builtin_kernel("product", 3)
    base = complete_ustat(h, sample).value
    for _ in range(5):
        perm = rng.permutation(sample)
        assert complete_ustat(h, perm).value == pytest.approx(base, rel=1e-12)


def test_linearity_in_the_kernel():
    rng = np.random.default_rng(4)
    sample = rng.normal(size=7)
    a = kernel_from_expression("x1 * x2", 2)
    b = kernel_from_expression("x1 + x2 ^ 2", 2)
    combo = kernel_from_expression("3 * (x1 * x2) - 2 * (x1 + x2 ^ 2)", 2)
    va = complete_ustat(a, sample).value
    vb = complete_ustat(b, sample).value
    vc = complete_ustat(combo, sample).value
    assert vc == pytest.approx(3 * va - 2 * vb, rel=1e-12)


def test_vector_codomain_sums_componentwise():
    from ustatkit.kernels import Kernel
    space = BanachSpaceDescriptor(dimension=2, norm_exponent=2.0)
    h = Kernel(
        2,
        lambda xs, idx: np.stack(
            np.broadcast_arrays(xs[0] * xs[1], xs[0] + xs[1]), axis=-1),
        symmetric=True, codomain=space)
    sample = np.array([1.0, -1.0, 2.0])
    res = complete_ustat(h, sample)
    np.testing.assert_allclose(res.value, [-1.0, 4.0])


# ---------------------------------------------------------------------------
# prefix trajectories


def test_prefix_values_match_scratch_evaluation():
    rng = np.random.default_rng(8)
    sample = rng.normal(size=10)
    for h in [builtin_kernel("product", 2), builtin_kernel("sum", 3),
              builtin_kernel("sign", 2)]:
        traj = prefix_values(h, sample)
        assert traj.shape == (11,)
        for n in range(11):
            want = complete_ustat(h, sample[:n], n=n).value if n >= h.arity else 0.0
            assert traj[n] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_prefix_values_weighted_kernel():
    h = kernel_from_expression("x1 * x2 / (i1 + i2)", 2, symmetric=True)
    rng = np.random.default_rng(9)
    sample = rng.normal(size=8)
    traj = prefix_values(h, sample)
    for n in range(2, 9):
        want = brute_force_ustat(h, sample[:n], index_aware=True)
        assert traj[n] == pytest.approx(want, rel=1e-11)


def test_running_max_norms():
    h = builtin_kernel("product", 2)
    sample = np.array([1.0, -1.0, 2.0, -2.0])
    traj = prefix_values(h, sample)
    maxima = running_max_norms(h, sample)
    assert maxima.shape == (3,)
    want = np.maximum.accumulate(np.abs(traj[2:]))
    np.testing.assert_allclose(maxima, want)
    assert np.all(np.diff(maxima) >= 0)


# ---------------------------------------------------------------------------
# completion weights and projected sums


def test_completion_weight_hand_cases():
    # positions (0,) in arity 2: completions of index i are pairs (i, j), j > i
    assert completion_weight((0,), 2, (2,), 6) == 3
    # positions (1,): pairs (j, i), j < i
    assert completion_weight((1,), 2, (2,), 6) == 2
    # full positions: exactly one completion
    assert completion_weight((0, 1), 2, (1, 4), 6) == 1
    # empty assignment: all tuples complete it
    assert completion_weight((), 2, (), 6) == math.comb(6, 2)


def test_completion_weight_brute_force():
    n, m = 7, 3
    all_tuples = list(itertools.combinations(range(n), m))
    for positions in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        for indices in itertools.combinations(range(n), len(positions)):
            count = sum(
                1 for t in all_tuples
                if all(t[p] == i for p, i in zip(positions, indices))
            )
            assert completion_weight(positions, m, indices, n) == count


def test_projection_ustat_matches_weighted_brute_force():
    h = kernel_from_expression("x1 * x2 + x1", 2, symmetric=True)
    d = Distribution.finite([-1.0, 0.0, 2.0], [0.3, 0.4, 0.3])
    sample = np.array([-1.0, 2.0, 0.0, 2.0, -1.0])
    n, m = len(sample), 2
    for subset in [(), (0,), (1,), (0, 1)]:
        comp = project_component(h, subset, d)
        got = projection_ustat(comp, sample, m)
        want = 0.0
        for idx in itertools.combinations(range(n), len(subset)):
            w = completion_weight(subset, m, idx, n)
            v = comp.evaluate([sample[j] for j in idx]) if subset else comp.constant
            want += w * v
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_component_sums_reconstruct_complete_sum():
    # summing every subset component with completion weights returns U_n
    h = kernel_from_expression("x1 * x2 + x2 ^ 2", 2)
    d = Distribution.finite([-1.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    sample = np.array([1.0, 2.0, -1.0, 1.0])
    total = 0.0
    for k in range(3):
        for subset in itertools.combinations(range(2), k):
            comp = project_component(h, subset, d)
            total += projection_ustat(comp, sample, 2)
    want = complete_ustat(h, sample).value
    assert total == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# decomposition identity


def test_decomposition_identity_product():
    d = Distribution.rademacher()
    sample = d.sample(stream(21, "dc"), 8)
    for h in [builtin_kernel("product", 2),
              kernel_from_expression("x1 * x2 + x1 + x2 + 1", 2, symmetric=True)]:
        check = decomposition_identity_check(h, d, sample)
        assert check.passed, (check.lhs, check.rhs)


def test_decomposition_identity_three_point_law():
    d = Distribution.finite([-1.0, 0.0, 3.0], [0.5, 0.25, 0.25])
    sample = d.sample(stream(22, "dc"), 7)
    h = kernel_from_expression("(x1 - x2) ^ 2 * x3", 3, symmetric=False)
    # symmetrize by hand: the check demands a symmetric kernel
    sym = kernel_from_expression(
        "((x1 - x2) ^ 2 * x3 + (x1 - x3) ^ 2 * x2 + (x2 - x3) ^ 2 * x1) / 3",
        3, symmetric=True)
    check = decomposition_identity_check(sym, d, sample)
    assert check.passed, check.relative_deviation
    with pytest.raises(ValueError):
        decomposition_identity_check(h, d, sample)


def test_decomposition_identity_requires_finite_support():
    h = builtin_kernel("product", 2)
    with pytest.raises(ValueError):
        decomposition_identity_check(h, Distribution.gaussian(), np.zeros(5))


# ---------------------------------------------------------------------------
# partial-sum paths


def test_path_breakpoints_and_interpolation():
    h = builtin_kernel("product", 2)
    sample = np.array([1.0, 1.0, 1.0, 1.0])
    path = partial_sum_path(h, sample)
    np.testing.assert_allclose(path.breakpoints, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(path.raw, [0.0, 0.0, 1.0, 3.0, 6.0])
    # linear interpolation between breakpoints
    assert path.evaluate(0.875) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        path.evaluate(1.5)


def test_path_normalization():
    h = builtin_kernel("product", 2)
    sample = np.ones(4)
    path = partial_sum_path(h, sample, normalization_exponent=1.0)
    np.testing.assert_allclose(path.values, path.raw / 4.0)
    assert path.evaluate(1.0) == pytest.approx(6.0 / 4.0)


def test_path_rejects_vector_codomain():
    from ustatkit.kernels import Kernel
    space = BanachSpaceDescriptor(dimension=2, norm_exponent=2.0)
    h = Kernel(2, lambda xs, idx: np.stack(
        np.broadcast_arrays(xs[0], xs[1]), axis=-1), codomain=space)
    with pytest.raises(ValueError):
        partial_sum_path(h, np.ones(4))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**32))
def test_prefix_terminal_equals_complete(n, seed):
    rng = np.random.default_rng(seed)
    sample = rng.normal(size=n)
    h = builtin_kernel("product", 2)
    traj = prefix_values(h, sample)
    assert traj[-1] == pytest.approx(complete_ustat(h, sample).value, rel=1e-10)


# ---------------------------------------------------------------------------
# blocks of trajectories


def _block_kernel(kind, m):
    from ustatkit.kernels import Kernel
    if kind == "product":
        return builtin_kernel("product", m)
    if kind == "weighted":
        # x1 * x2 / (i1 + i2) at m = 2, the same shape at other arities
        xs = " * ".join(f"x{j + 1}" for j in range(m))
        idx = " + ".join(f"i{j + 1}" for j in range(m))
        return kernel_from_expression(f"{xs} / ({idx})", m)
    space = BanachSpaceDescriptor(dimension=3, norm_exponent=1.5)

    def body(xs, idx):
        prod = xs[0]
        for x in xs[1:]:
            prod = prod * x
        return np.stack(np.broadcast_arrays(prod, sum(xs), np.exp(xs[0])), axis=-1)

    return Kernel(m, body, codomain=space)


@settings(max_examples=60, deadline=None)
@given(
    law=st.sampled_from(["gaussian", "uniform"]),
    m=st.integers(min_value=1, max_value=3),
    kind=st.sampled_from(["product", "weighted", "vector"]),
    rows=st.sampled_from([1, 2, 7, 40]),
    extra=st.integers(min_value=0, max_value=36),
    fortran=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_block_rows_bit_equal_single_trajectories(law, m, kind, rows, extra,
                                                  fortran, seed):
    # non-integer data: any change in summation order shows in the last bits
    n = m + (extra if m < 3 else extra // 2)
    rng = np.random.default_rng(seed)
    if law == "gaussian":
        block = rng.normal(size=(rows, n))
    else:
        block = rng.uniform(-1.0, 2.0, size=(rows, n))
    if fortran:
        block = np.asfortranarray(block)
    h = _block_kernel(kind, m)
    traj = prefix_values(h, block, n)
    dim = h.codomain.dimension
    assert traj.shape == (rows, n + 1) + ((dim,) if dim > 1 else ())
    for r in range(rows):
        single = prefix_values(h, block[r].copy(), n)
        assert single.tobytes() == traj[r].tobytes(), r


def test_block_broadcasts_index_only_kernel():
    # a body that reads only the indices returns shape (k,), not (B, k)
    h = kernel_from_expression("i1 * i2", 2)
    block = np.zeros((3, 5))
    traj = prefix_values(h, block)
    for r in range(3):
        np.testing.assert_array_equal(traj[r], prefix_values(h, block[r]))
    assert traj[0, 3] == 1 * 2 + 1 * 3 + 2 * 3


def test_block_rejects_higher_rank_samples():
    with pytest.raises(ValueError, match="2-D block"):
        prefix_values(builtin_kernel("product", 2), np.zeros((2, 2, 4)))
