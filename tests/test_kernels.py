"""Kernel zoo, expression compiler, sampling laws, and seeded streams."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ustatkit import kernels
from ustatkit.kernels import (
    Distribution,
    Kernel,
    builtin_kernel,
    evaluate,
    evaluate_batch,
    evaluate_nested,
    kernel_from_config,
    kernel_from_expression,
    sample_rows,
    stream,
    stream_keys,
    support_grid,
)
from ustatkit.spaces import BanachSpaceDescriptor

from expression_oracle import old_kernel_from_expression


# ---------------------------------------------------------------------------
# builtin zoo


def test_product_kernel():
    h = builtin_kernel("product", 3)
    assert h.symmetric and not h.weighted
    assert evaluate(h, [2.0, -1.0, 4.0]) == -8.0


def test_sum_kernel():
    h = builtin_kernel("sum", 2)
    assert evaluate(h, [2.0, 5.0]) == 7.0


def test_centered_product_kernel():
    h = builtin_kernel("centered-product", 2, mu=1.0)
    assert evaluate(h, [3.0, 0.0]) == pytest.approx((3 - 1) * (0 - 1))


def test_covariance_kernel():
    h = builtin_kernel("covariance", 2)
    assert evaluate(h, [1.0, 4.0]) == pytest.approx(4.5)
    assert evaluate(h, [4.0, 1.0]) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        builtin_kernel("covariance", 3)


def test_sign_kernel_is_antisymmetric():
    h = builtin_kernel("sign", 2)
    assert not h.symmetric
    assert evaluate(h, [1.0, 2.0]) == 1.0
    assert evaluate(h, [2.0, 1.0]) == -1.0
    assert evaluate(h, [1.0, 1.0]) == 0.0


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError):
        builtin_kernel("nope", 2)


def test_builtin_parameters_are_checked():
    with pytest.raises(ValueError, match="'mu'"):
        builtin_kernel("product", 2, mu=1.0)
    for bad in (np.nan, np.inf, -np.inf, "0.5", True, None):
        with pytest.raises(ValueError, match="mu must be a finite number"):
            builtin_kernel("centered-product", 2, mu=bad)
    # any real number is written into the text as its float
    for good in (1, np.float64(1.0), np.int64(1)):
        assert (builtin_kernel("centered-product", 2, mu=good).name
                == "expr:(x1 - 1.0) * (x2 - 1.0)")


# The hand-written bodies the zoo had before it became expression text;
# the compiled zoo must keep their bits.
def _old_product(xs, idx):
    out = xs[0]
    for x in xs[1:]:
        out = out * x
    return out


def _old_sum(xs, idx):
    out = xs[0]
    for x in xs[1:]:
        out = out + x
    return out


def _old_centered(mu):
    def centered(xs, idx):
        out = xs[0] - mu
        for x in xs[1:]:
            out = out * (x - mu)
        return out

    return centered


_OLD_BODIES = {
    "product": lambda mu: _old_product,
    "sum": lambda mu: _old_sum,
    "centered-product": _old_centered,
    "covariance": lambda mu: lambda xs, idx: 0.5 * (xs[0] - xs[1]) ** 2,
    "sign": lambda mu: lambda xs, idx: np.sign(xs[1] - xs[0]),
}
_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308, 5e-324, 1.5, -2.0])


def _law_values(law, rng, size):
    if law == "gaussian":
        return rng.normal(size=size)
    if law == "uniform":
        return rng.uniform(-1.0, 2.0, size=size)
    if law == "finite":
        return rng.choice([-2.0, 0.0, 1.0, 3.0], size=size)
    return rng.choice(_SPECIAL, size=size)


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(_OLD_BODIES)),
    m=st.integers(min_value=1, max_value=4),
    law=st.sampled_from(["gaussian", "uniform", "finite", "special"]),
    mu=st.floats(allow_nan=False, allow_infinity=False),
    size=st.integers(min_value=0, max_value=60),
    conditioned=st.integers(min_value=0, max_value=15),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_builtins_keep_the_bits_of_their_old_bodies(name, m, law, mu, size,
                                                    conditioned, seed):
    if name in ("covariance", "sign"):
        m = 2
    params = {"mu": mu} if name == "centered-product" else {}
    new = builtin_kernel(name, m, **params)
    old = Kernel(m, _OLD_BODIES[name](mu))
    rng = np.random.default_rng(seed)
    cols = [_law_values(law, rng, size) for _ in range(m)]
    positions = [j for j in range(m) if conditioned >> j & 1]
    outer = _law_values(law, rng, (size % 7, len(positions)))
    inner = _law_values(law, rng, (size % 7, 5, m - len(positions)))
    with np.errstate(all="ignore"):
        assert evaluate_batch(new, cols).tobytes() == evaluate_batch(old, cols).tobytes()
        assert (evaluate_nested(new, positions, outer, inner).tobytes()
                == evaluate_nested(old, positions, outer, inner).tobytes())


def test_kernel_arity_validation():
    with pytest.raises(ValueError):
        Kernel(0, lambda xs, idx: xs[0])
    h = builtin_kernel("product", 2)
    with pytest.raises(ValueError):
        evaluate(h, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# expression kernels


def test_expression_basic_arithmetic():
    h = kernel_from_expression("x1 * x2 + 1", 2)
    assert not h.weighted
    assert evaluate(h, [2.0, 3.0]) == 7.0


def test_expression_power_and_unary_minus():
    h = kernel_from_expression("(-x1) ^ 2 - x2", 2)
    assert evaluate(h, [3.0, 4.0]) == 5.0


def test_expression_functions():
    h = kernel_from_expression("abs(x1) + sign(x2) + max(x1, x2) + min(x1, 0)", 2)
    assert evaluate(h, [-2.0, 5.0]) == pytest.approx(2.0 + 1.0 + 5.0 - 2.0)
    g = kernel_from_expression("exp(x1)", 1)
    assert evaluate(g, [0.0]) == 1.0


def test_expression_index_weighted_values_are_one_based():
    h = kernel_from_expression("x1 * x2 / (i1 + i2)", 2, symmetric=True)
    assert h.weighted
    # 0-based index (1, 2) means the kernel sees i1=2, i2=3
    assert evaluate(h, [2.0, 3.0], index=(1, 2)) == pytest.approx(6.0 / 5.0)


def test_expression_weighted_requires_index():
    h = kernel_from_expression("x1 * i1", 1)
    with pytest.raises(ValueError):
        evaluate(h, [1.0])
    with pytest.raises(ValueError):
        evaluate_batch(h, [np.ones(3)])


def test_expression_ieee_division():
    h = kernel_from_expression("x1 / x2", 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.isinf(evaluate(h, [1.0, 0.0]))
        assert np.isnan(evaluate(h, [0.0, 0.0]))


# texts the grammar refuses, among them what Python reads but the grammar
# does not: a bare fraction, digit grouping, hex and imaginary literals,
# **, a trailing comma in a call, keywords, attribute access, a
# parenthesised callee, a ^ that Python would read as a ** keyword unpack
# and a trailing blank
_REFUSED = [
    ("x1 + x3", 2), ("x1 +", 2), ("foo(x1)", 1), ("min(x1)", 1),
    (".5", 1), ("1_0", 1), ("0x1", 1), ("1j", 1), ("x1 ** 2", 1),
    ("min(x1, x2,)", 2), ("x1 if x2 else x1", 2), ("not x1", 1), ("x1.real", 1),
    ("abs(x1, ^x2)", 2), ("min(x1, x2, ^x1)", 2), ("abs(x1, ^foo)", 1), ("abs(^x1)", 1),
    ("(abs)(x1)", 1), ("2(x1)", 1), ("True", 1), ("1 + _0", 1), ("x1 ", 1), ("", 1),
]


def test_expression_rejects_unknown_names_and_syntax():
    for text, m in _REFUSED:
        with pytest.raises(ValueError):
            kernel_from_expression(text, m)
        with pytest.raises(ValueError):
            old_kernel_from_expression(text, m)
    with pytest.raises(ValueError, match=r"unknown variable 'x3'; allowed: i1, i2, x1, x2"):
        kernel_from_expression("x1 + x3", 2)
    with pytest.raises(ValueError, match="unknown function 'foo'"):
        kernel_from_expression("foo(x1)", 1)


@pytest.mark.parametrize("text, m, value", [
    # numbers Python refuses but the grammar reads, and blanks or line
    # breaks Python would not read between or before tokens
    ("01 * x1", 1, 3.0),
    ("007 ^ x1", 1, 343.0),
    (" x1", 1, 3.0),
    ("x1\n* x2", 2, 6.0),
    ("1" * 400 + " * x1", 1, float("1" * 400) * 3.0),
])
def test_expression_accepts_what_python_would_refuse(text, m, value):
    assert evaluate(kernel_from_expression(text, m), [3.0, 2.0][:m]) == value


@pytest.mark.parametrize("x, want", [(-0.0, -0.0), (-np.inf, np.nan), (np.inf, np.inf)])
def test_expression_power_is_numpy_power_on_scalars(x, want):
    # Python's ** on np.float64 follows C pow: (-0.0) ** 0.5 is 0.0 and
    # (-inf) ** 0.5 is inf; np.power gives -0.0 and nan
    h = kernel_from_expression("x1 ^ 0.5", 1)
    with np.errstate(invalid="ignore"):
        assert repr(evaluate(h, [x])) == repr(want)


def test_expression_long_sum_still_compiles():
    # well inside Python's recursion limit; 1,000 terms are refused (test_cli)
    h = kernel_from_expression(" + ".join(["x1"] * 350 + ["x2"] * 350), 2)
    assert evaluate(h, [1.0, 2.0]) == 1050.0


def test_expression_constants_are_not_folded():
    # 1 / 0 stays IEEE inf, and 2 ^ 0.5 is np.power of two np.float64
    with np.errstate(divide="ignore"):
        assert evaluate(kernel_from_expression("1 / 0 + x1", 1), [0.0]) == np.inf
    assert evaluate(kernel_from_expression("2 ^ 0.5 * x1", 1), [1.0]) == np.power(2.0, 0.5)


def test_expression_precedence():
    h = kernel_from_expression("x1 + x2 * x1 ^ 2", 2)
    # 2 + 3 * 4 = 14, not (2+3)*4
    assert evaluate(h, [2.0, 3.0]) == 14.0
    g = kernel_from_expression("2 ^ x1 ^ 2", 1)
    # right-associative power: 2^(3^2)
    assert evaluate(g, [3.0]) == 512.0


# Random expression texts for the oracle property: grammatical token lists,
# some with one token the grammar or Python refuses, and token soup, joined
# by blanks, tabs, line breaks or nothing.
_NUMBER_TEXTS = ["0", "1", "2", "3", "0.5", "2.", "1e-3", "2.5E+1", "01", "007",
                 "1e400", "9" * 400]
_TRAPS = ["**", ".5", "1_0", "0x1", "1j", ",", "(", ")", "if", "else", "not", ".real",
          "_", "_0", "True", "lambda", ":", "=", "[", "]", "//", "%", "and", "is",
          "~", "abs", "min", "x4", "i0", "\\", "'"]


def _extend(inner):
    def call(name, count):
        args = st.lists(inner, min_size=count, max_size=count)
        return args.map(lambda a: [name, "(", *sum(([",", *t] for t in a), [])[1:], ")"])

    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: t[0] + [t[1]] + t[2]),
        st.tuples(st.sampled_from("-+"), inner).map(lambda t: [t[0]] + t[1]),
        inner.map(lambda t: ["(", *t, ")"]),
        *(call(name, count) for name, count in [
            ("abs", 1), ("sign", 1), ("exp", 1), ("min", 2), ("max", 2), ("min", 1),
            ("foo", 1)]),
    )


def _grammatical(names):
    return st.recursive(st.sampled_from(names + _NUMBER_TEXTS).map(lambda token: [token]),
                        _extend, max_leaves=8)


def _chain(m):
    """A * / chain of factors that each read x-variables or i-variables only."""
    factor = st.one_of(*(_grammatical([f"{v}{j + 1}" for j in range(m)]) for v in "xi")).map(
        lambda t: t if len(t) == 1 else ["(", *t, ")"])
    links = st.lists(st.tuples(st.sampled_from("**/"), factor), min_size=1, max_size=4)
    return st.tuples(factor, links).map(lambda t: t[0] + sum(([op, *f] for op, f in t[1]), []))


def _token_lists(m):
    grammatical = _grammatical([f"{v}{j + 1}" for v in "xi" for j in range(m)])
    return st.one_of(
        grammatical, grammatical, _chain(m),
        st.tuples(grammatical, st.integers(0, 30), st.sampled_from(_TRAPS)).map(
            lambda t: t[0][:t[1]] + [t[2]] + t[0][t[1]:]),
        st.tuples(grammatical, st.integers(0, 30), grammatical).map(
            lambda t: _power_argument(*t)),
        st.lists(st.sampled_from(_TRAPS + ["x1", "1", "+", "*", "^", "(", ")"]), max_size=8),
    )


def _power_argument(tokens, k, operand):
    """tokens with "^ operand" after one of its "(" or ",", or with ", ^
    operand" before one of its ")": Python reads each ^ there as the ** of
    a keyword unpack, which the grammar has not."""
    spots = [(n + 1, ["^"]) for n, token in enumerate(tokens) if token in ("(", ",")]
    spots += [(n, [",", "^"]) for n, token in enumerate(tokens) if token == ")"]
    if not spots:
        return tokens
    n, head = spots[k % len(spots)]
    return tokens[:n] + head + operand + tokens[n:]


_TOKEN_LISTS = {m: _token_lists(m) for m in (1, 2, 3)}


@st.composite
def _expression_texts(draw):
    """An arity m of 1 to 3 and an expression text over its variables."""
    m = draw(st.integers(1, 3))
    tokens = draw(_TOKEN_LISTS[m])
    gaps = [draw(st.sampled_from(["", " ", " ", " ", " ", " ", "\n", "\t"]))
            for _ in tokens[1:]]
    head = draw(st.sampled_from(["", "", "", " ", "\n "]))
    tail = draw(st.sampled_from(["", "", "", "", "", "", " "]))
    return head + "".join(g + t for g, t in zip(["", *gaps], tokens)) + tail, m


_VALUES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0, 0.25, 3.0, 710.0])


def _bits(value):
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


def _compiled_or_refused(compile_text, text, m):
    try:
        return compile_text(text, m)
    except ValueError:
        return None


@settings(max_examples=400, deadline=None)
@given(text_m=_expression_texts(),
       rows=st.lists(st.lists(_VALUES, min_size=3, max_size=3), min_size=1, max_size=6),
       index=st.lists(st.integers(0, 40), min_size=3, max_size=3))
@example(text_m=("(x1 * i1) * x2", 2), rows=[[1.5, -2.0, 0.0]], index=[0, 1, 2])
@example(text_m=("(x1 * x2) * x2 / 3", 2), rows=[[-0.0, np.inf, 0.0]], index=[0, 1, 2])
@example(text_m=("x1 ^ 0.5 * 2 ^ 0.5 / 0 * i1 / (i2 + 1)", 2), rows=[[-0.0, -np.inf, 0.0]],
         index=[0, 1, 2])
@example(text_m=("01 * x1 / 1 / i1", 1), rows=[[-np.inf, 0.0, 0.0]], index=[3, 0, 0])
def test_expression_compiler_matches_the_old_parser(text_m, rows, index):
    # the hand-written parser this compiler replaced is the oracle: the
    # same texts refused, and bit-equal values, factors and splits
    text, m = text_m
    old = _compiled_or_refused(old_kernel_from_expression, text, m)
    new = _compiled_or_refused(kernel_from_expression, text, m)
    assert (old is None) == (new is None)
    if old is None:
        return
    assert (new.weighted, new.name) == (old.weighted, old.name)
    assert (new.factors is None) == (old.factors is None)
    assert (new.split is None) == (old.split is None)
    cols = [np.array([row[j] for row in rows]) for j in range(m)]
    idx = [index[j] + 3 * np.arange(len(rows)) for j in range(m)]
    ones = tuple(c + 1.0 for c in idx)
    with np.errstate(all="ignore"):
        assert _bits(evaluate_batch(new, cols, idx)) == _bits(evaluate_batch(old, cols, idx))
        for row in rows:
            assert (_bits(evaluate(new, row[:m], index[:m]))
                    == _bits(evaluate(old, row[:m], index[:m])))
        if old.factors is not None:
            ((old_coef, old_fs),), ((new_coef, new_fs),) = old.factors, new.factors
            assert _bits(new_coef) == _bits(old_coef)
            assert [f is None for f in new_fs] == [f is None for f in old_fs]
            for f, g, col in zip(new_fs, old_fs, cols):
                if f is not None:
                    assert _bits(f(col)) == _bits(g(col))
                    assert _bits(f(col[0])) == _bits(g(col[0]))
        if old.split is not None:
            (new_f, new_weight), (old_f, old_weight) = new.split, old.split
            assert _bits(evaluate_batch(new_f, cols)) == _bits(evaluate_batch(old_f, cols))
            assert _bits(new_weight(ones)) == _bits(old_weight(ones))


def _split_error(h, xs, idx):
    """max |h - c * f| / max |h| on the given (0-based index) columns."""
    f, weight = h.split
    full = evaluate_batch(h, xs, idx)
    factored = evaluate_batch(f, xs) * weight(tuple(np.asarray(i) + 1.0 for i in idx))
    return float(np.abs(full - factored).max() / np.abs(full).max())


@pytest.mark.parametrize("text, m", [
    ("x1 * x2 / (i1 + i2)", 2),
    ("-x1 * x2 / i1 / i2", 2),
    ("3 * x1 * i1 * x2", 2),
    ("1 / i1 * x1 * x2", 2),
    ("x1 / i2", 2),
    ("(x1 + x2) / i2", 2),
    ("x1 ^ 3 * x2 * x3 * exp(i3 / 4) / (i1 * i2)", 3),
])
def test_index_factored_expressions_split(text, m):
    h = kernel_from_expression(text, m)
    assert h.split is not None
    f, _ = h.split
    assert not f.weighted and f.arity == m and f.codomain == h.codomain
    rng = np.random.default_rng(7)
    xs = [rng.standard_normal((5, 1)) for _ in range(m)]
    idx = [rng.integers(0, 9, size=(1, 4)) for _ in range(m)]
    assert evaluate_batch(f, xs).shape == (5, 1)
    assert _split_error(h, xs, idx) < 1e-15


@pytest.mark.parametrize("text, m", [
    # a sum is never split, even when each term factors
    ("x1 * x2 / (i1 + i2) + x1 * x2 / (i1 * i2)", 2),
    ("exp(x1 * i1)", 1),
    ("i1 * i2", 2),
    ("x1 * i1 * 0 + x1", 1),
    ("x1 * (x2 * i1)", 2),
    ("-(x1 * i1)", 1),
    ("x1 * x2", 2),
    ("2 * i1", 1),
    # parenthesised, x1 * i1 is one factor reading both kinds
    ("(x1 * i1) * x2", 2),
])
def test_other_expressions_do_not_split(text, m):
    assert kernel_from_expression(text, m).split is None


def test_split_only_on_an_index_weighted_kernel():
    f = builtin_kernel("product", 2)
    weight = lambda idx: idx[0]  # noqa: E731
    with pytest.raises(ValueError, match="split"):
        Kernel(2, f.body, split=(f, weight))
    with pytest.raises(ValueError, match="split"):
        Kernel(2, f.body, weighted=True, split=(builtin_kernel("product", 3), weight))
    with pytest.raises(ValueError, match="split"):
        Kernel(2, f.body, weighted=True,
               split=(kernel_from_expression("x1 * i1", 2), weight))
    with pytest.raises(ValueError, match="split"):
        Kernel(2, f.body, weighted=True, split=(f, None))
    assert Kernel(2, f.body, weighted=True, split=(f, weight)).split[0] is f


# ---------------------------------------------------------------------------
# batch evaluation


def _rule_kernel(kernel):
    """A builtin at m = 2 (centered-product at mu = 0.5), a vector-valued
    x1 * x2, or a compiled expression of arity 2."""
    if kernel in ("product", "sum", "covariance", "sign"):
        return builtin_kernel(kernel, 2)
    if kernel == "centered-product":
        return builtin_kernel(kernel, 2, mu=0.5)
    if kernel == "vector":
        space = BanachSpaceDescriptor(dimension=2, norm_exponent=2.0)
        return kernel_from_expression("x1 * x2", 2, codomain=space)
    return kernel_from_expression(kernel, 2)


# the one-term rule: kernel -> (coefficient, which of x1, x2 carry a
# factor), or None where the kernel declares no factors
_FACTOR_RULE = {
    "product": (1.0, (True, True)),
    "x1 * x2": (1.0, (True, True)),
    "3 * x1 * x2": (3.0, (True, True)),
    "x1 / 2 * x2 * x1": (0.5, (True, True)),
    "exp(x1) * abs(x2)": (1.0, (True, True)),
    "exp(-abs(x1)) * exp(-abs(x2))": (1.0, (True, True)),
    "centered-product": (1.0, (True, True)),
    "x2 / 4": (0.25, (False, True)),
    "sum": None,
    "covariance": None,
    "sign": None,
    "x1 * x2 + x1": None,
    "(x1 - x2) ^ 2": None,
    "x1 * x2 * i1": None,
    "vector": None,
    # parenthesised, x1 * x2 is one factor reading two variables
    "(x1 * x2) * x2": None,
    "x1 * x2 * x2": (1.0, (True, True)),
}


@pytest.mark.parametrize("kernel", list(_FACTOR_RULE))
def test_factor_rule(kernel):
    # one term only: a sum of terms can cancel (covariance as x^2/2 +
    # y^2/2 - x*y), and the separable path's error scales with the terms
    h = _rule_kernel(kernel)
    want = _FACTOR_RULE[kernel]
    if want is None:
        assert h.factors is None
        return
    ((coef, fs),) = h.factors
    assert coef == want[0]
    assert tuple(f is not None for f in fs) == want[1]


def _one_term_kernels(m):
    """The one-term kernels of the rule table at m = 2, and at any m the
    two builtins and two compiled chains of arity m."""
    if m == 2:
        yield from (_rule_kernel(kernel) for kernel, want in _FACTOR_RULE.items() if want)
    yield builtin_kernel("product", m)
    yield builtin_kernel("centered-product", m, mu=-1.0 / 3.0)
    yield kernel_from_expression(" * ".join(["3"] + [f"x{j + 1}" for j in range(m)]), m)
    yield kernel_from_expression(" * ".join(f"exp(x{j + 1}) / 2" for j in range(m)), m)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_product_factors_multiply_to_the_body(m):
    rng = np.random.default_rng(3)
    cols = [rng.normal(size=200) for _ in range(m)]
    for h in _one_term_kernels(m):
        ((coef, fs),) = h.factors
        assert len(fs) == m
        term = np.full(200, coef)
        for f, x in zip(fs, cols):
            if f is not None:
                term = term * f(x)
        # the factors regroup the body's chain, a few roundings apart
        np.testing.assert_allclose(term, evaluate_batch(h, cols), rtol=1e-15,
                                   err_msg=h.name)


def test_factors_only_on_scalar_index_free_kernels():
    space = BanachSpaceDescriptor(dimension=2, norm_exponent=2.0)
    product = builtin_kernel("product", 2)
    with pytest.raises(ValueError, match="scalar kernel"):
        Kernel(2, product.body, weighted=True, factors=product.factors)
    with pytest.raises(ValueError, match="scalar kernel"):
        Kernel(2, product.body, codomain=space, factors=product.factors)
    with pytest.raises(ValueError, match="2 positions"):
        Kernel(2, product.body, factors=((1.0, (None,)),))


def test_evaluate_batch_broadcasts():
    h = builtin_kernel("product", 2)
    left = np.array([1.0, 2.0])[:, None]
    right = np.array([10.0, 20.0, 30.0])[None, :]
    out = evaluate_batch(h, [left, right])
    assert out.shape == (2, 3)
    np.testing.assert_allclose(out[1], [20.0, 40.0, 60.0])


def test_evaluate_batch_index_columns_shift():
    h = kernel_from_expression("i1 + i2 + 0 * x1 * x2", 2)
    out = evaluate_batch(
        h,
        [np.zeros(3), np.zeros(3)],
        [np.array([0.0, 1.0, 2.0]), np.array([3.0, 4.0, 5.0])],
    )
    np.testing.assert_allclose(out, [5.0, 7.0, 9.0])


@pytest.mark.parametrize("text, small", [
    ("1", lambda x1, x2, i2: 1.0),
    ("x1", lambda x1, x2, i2: x1),
    ("x2 * i2", lambda x1, x2, i2: x2 * i2),
])
def test_evaluate_batch_broadcasts_a_smaller_result(text, small):
    # a constant or a body that ignores a position still gives the
    # columns' broadcast shape, index columns included
    cols = [np.arange(3.0)[:, None], np.arange(4.0)[None, :]]
    idx = [np.zeros((3, 1), dtype=np.int64), np.arange(4)[None, :]]
    out = evaluate_batch(kernel_from_expression(text, 2), cols, idx)
    assert out.shape == (3, 4)
    np.testing.assert_array_equal(out, np.broadcast_to(small(*cols, idx[1] + 1.0), (3, 4)))


def test_evaluate_batch_returns_a_full_result_as_the_body_made_it():
    made = []

    def body(xs, idx):
        made.append(xs[0] * xs[1])
        return made[-1]

    out = evaluate_batch(Kernel(2, body), [np.ones((3, 1)), np.ones((1, 4))])
    assert out is made[0] and out.flags.writeable


def test_vector_codomain_kernel():
    space = BanachSpaceDescriptor(dimension=2, norm_exponent=2.0)
    h = Kernel(
        2,
        lambda xs, idx: np.stack(
            np.broadcast_arrays(xs[0] * xs[1], xs[0] + xs[1]), axis=-1),
        symmetric=True,
        codomain=space,
    )
    out = evaluate(h, [2.0, 3.0])
    np.testing.assert_allclose(out, [6.0, 5.0])
    batch = evaluate_batch(h, [np.array([1.0, 2.0]), np.array([4.0, 5.0])])
    assert batch.shape == (2, 2)


# ---------------------------------------------------------------------------
# distributions


def test_distribution_round_trips():
    for d in [
        Distribution.rademacher(),
        Distribution.uniform(-1.0, 2.0),
        Distribution.gaussian(0.5, 2.0),
        Distribution.finite([0.0, 1.0, 3.0], [0.2, 0.3, 0.5]),
    ]:
        assert Distribution.from_dict(d.to_dict()) == d


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        Distribution.gaussian(0.0, 0.0)
    with pytest.raises(ValueError):
        Distribution.finite([1.0], [0.5])
    with pytest.raises(ValueError):
        Distribution.from_dict({"family": "poisson"})


def test_rademacher_support_and_samples():
    d = Distribution.rademacher()
    atoms, probs = d.support()
    np.testing.assert_allclose(atoms, [-1.0, 1.0])
    np.testing.assert_allclose(probs, [0.5, 0.5])
    xs = d.sample(stream(0, "t"), 1000)
    assert set(np.unique(xs)) <= {-1.0, 1.0}
    assert abs(xs.mean()) < 0.2


def test_finite_sampling_hits_only_atoms():
    d = Distribution.finite([2.0, 5.0], [0.25, 0.75])
    xs = d.sample(stream(3, "f"), 2000)
    assert set(np.unique(xs)) <= {2.0, 5.0}
    assert abs(np.mean(xs == 5.0) - 0.75) < 0.05


@pytest.mark.parametrize("dist", [
    Distribution.rademacher(),
    Distribution.finite([0.0, 1.0, 3.0], [0.2, 0.3, 0.5]),
])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_nodes_on_a_finite_law_are_its_support_grid(dist, k):
    points, weights = dist.nodes(k, 64, 9, "tag")
    grid, grid_w = support_grid(*dist.support(), k)
    assert np.array_equal(points, grid) and np.array_equal(weights, grid_w)


@pytest.mark.parametrize("dist", [Distribution.uniform(-1.0, 2.0), Distribution.gaussian(0.5, 2.0)])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_nodes_on_a_sampled_law_read_the_stream_row_by_row(dist, k):
    draws = 50
    points, weights = dist.nodes(k, draws, 9, "tag", 4)
    expected = dist.sample(stream(9, "tag", 4), draws * k).reshape(draws, k)
    assert points.tobytes() == expected.tobytes()
    assert weights.shape == (draws,) and np.all(weights == 1.0 / draws)


@pytest.mark.parametrize("dist", [
    Distribution.rademacher(),
    Distribution.finite([0.0, 1.0, 3.0], [0.2, 0.3, 0.5]),
])
@pytest.mark.parametrize("j", [0, 1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_nested_nodes_on_a_finite_law_are_support_grids(dist, j, k):
    outer_pts, outer_w, inner_pts, inner_w = dist.nested_nodes(j, k, 8, 16, 9, "tag")
    grid_j, grid_j_w = support_grid(*dist.support(), j)
    grid_k, grid_k_w = support_grid(*dist.support(), k)
    assert np.array_equal(outer_pts, grid_j) and np.array_equal(outer_w, grid_j_w)
    assert inner_pts.shape == (1,) + grid_k.shape
    assert np.array_equal(inner_pts[0], grid_k) and np.array_equal(inner_w, grid_k_w)


@pytest.mark.parametrize("dist", [Distribution.uniform(-1.0, 2.0), Distribution.gaussian(0.5, 2.0)])
@pytest.mark.parametrize("j", [0, 1, 2])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_nested_nodes_on_a_sampled_law_read_two_streams_row_major(dist, j, k):
    outer, inner = 12, 10
    outer_pts, outer_w, inner_pts, inner_w = dist.nested_nodes(j, k, outer, inner, 9, "tag", 4)
    # no free position: one empty completion of weight 1 per outer point
    completions = inner if k else 1
    want_outer = dist.sample(stream(9, "tag", 4, 0), outer * j).reshape(outer, j)
    want_inner = dist.sample(stream(9, "tag", 4, 1), outer * inner * k)
    assert outer_pts.tobytes() == want_outer.tobytes() and outer_pts.shape == (outer, j)
    assert inner_pts.tobytes() == want_inner.tobytes()
    assert inner_pts.shape == (outer, completions, k)
    assert np.all(outer_w == 1.0 / outer) and outer_w.shape == (outer,)
    assert np.all(inner_w == 1.0 / completions) and inner_w.shape == (completions,)


def test_unknown_family_is_refused_on_construction():
    with pytest.raises(ValueError, match="poisson"):
        Distribution("poisson")


def test_continuous_support_is_none_and_mean():
    assert Distribution.uniform(0.0, 1.0).support() is None
    assert Distribution.gaussian().support() is None
    assert Distribution.uniform(0.0, 1.0).mean() == pytest.approx(0.5)
    assert Distribution.finite([1.0, 3.0], [0.5, 0.5]).mean() == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# streams


def test_stream_determinism_and_separation():
    a = stream(42, "tag", 0).random(5)
    b = stream(42, "tag", 0).random(5)
    c = stream(42, "tag", 1).random(5)
    d = stream(43, "tag", 0).random(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_string_path_elements():
    a = stream(7, "alpha", 2).random(3)
    b = stream(7, "beta", 2).random(3)
    assert not np.array_equal(a, b)


def _numpy_key(seed, path):
    """The Philox key numpy's own SeedSequence gives (seed, path)."""
    words = tuple(
        int.from_bytes(hashlib.sha256(x.encode("utf8")).digest()[:4], "big")
        if isinstance(x, str) else int(x)
        for x in path
    )
    ss = np.random.SeedSequence(entropy=seed, spawn_key=words)
    return ss.generate_state(2, np.uint64)


_SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1)
_ELEMENTS = (st.text(max_size=6) | st.integers(0, 2**32 - 1)
             | st.integers(2**32, 2**70))
_VALUES = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63]) | st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(_SEEDS, st.lists(_ELEMENTS, max_size=4))
def test_stream_keys_match_seed_sequence(seed, path):
    key = stream_keys(seed, *path)
    assert key.dtype == np.uint64 and key.shape == (2,)
    np.testing.assert_array_equal(key, _numpy_key(seed, path))


@settings(max_examples=200, deadline=None)
@given(_SEEDS, st.lists(_ELEMENTS, max_size=3), st.data())
def test_stream_keys_of_an_array_element_match_seed_sequence(seed, path, data):
    values = data.draw(st.lists(_VALUES, max_size=5))
    arrays = [np.array(values, dtype=np.uint64)]
    if all(v < 2**63 for v in values):
        arrays.append(np.array(values, dtype=np.int64))
    at = data.draw(st.integers(0, len(path)))
    for column in arrays:
        keys = stream_keys(seed, *path[:at], column, *path[at:])
        assert keys.dtype == np.uint64 and keys.shape == (len(values), 2)
        for row, v in enumerate(values):
            want = _numpy_key(seed, path[:at] + [v] + path[at:])
            np.testing.assert_array_equal(keys[row], want)


def test_stream_keys_broadcast_two_arrays():
    a = np.array([0, 2**32 + 5, 7])
    b = np.array([2**40, 3, 9], dtype=np.uint64)
    keys = stream_keys(2**64 - 1, "x", a, 4, b)
    for row in range(3):
        want = _numpy_key(2**64 - 1, ["x", int(a[row]), 4, int(b[row])])
        np.testing.assert_array_equal(keys[row], want)
    np.testing.assert_array_equal(stream_keys(5, np.array([3]), 2)[0],
                                  _numpy_key(5, [3, 2]))


@pytest.mark.parametrize("bad, error", [
    (-1, ValueError),
    (np.array([1, -1]), ValueError),
    (1.0, TypeError),
    (np.array([1.0]), TypeError),
    (np.array([True]), TypeError),
    (np.zeros((2, 2), dtype=np.int64), TypeError),
])
def test_stream_keys_reject_bad_path_elements(bad, error):
    with pytest.raises(error):
        stream_keys(1, "tag", bad)
    with pytest.raises(error):
        stream(1, bad)


@pytest.mark.parametrize("dist", [
    Distribution.rademacher(),
    Distribution.uniform(-1.0, 2.0),
    Distribution.gaussian(0.5, 2.0),
    Distribution.finite([0.0, 1.0, 3.0], [0.2, 0.5, 0.3]),
])
def test_rekeyed_generator_draws_like_a_fresh_stream(dist):
    reps = np.array([0, 1, 5, 2**33])
    for r, rng in zip(reps, kernels._rekeyed(stream_keys(11, "rekey", reps, 3))):
        fresh = dist.sample(stream(11, "rekey", int(r), 3), 40)
        assert dist.sample(rng, 40).tobytes() == fresh.tobytes()
        # leave the bit generator with an advanced counter and a cached half
        # word; the next row's re-key must clear both
        rng.integers(0, 2, 3)
        rng.standard_normal()
        state = rng.bit_generator.state
        assert state["has_uint32"] == 1 and state["state"]["counter"].any()
    empty = stream_keys(11, "rekey", np.array([], dtype=np.int64))
    assert list(kernels._rekeyed(empty)) == []


_REALS = st.floats(-1e6, 1e6, allow_subnormal=False)
# every family's parameters; Rademacher, uniform and finite rows are drawn
# in one Philox pass, Gaussian rows from a re-keyed generator
_LAW_PARAMS = {
    "rademacher": st.just(()),
    "uniform": st.tuples(_REALS, _REALS).filter(lambda ab: ab[0] < ab[1]),
    "gaussian": st.tuples(_REALS, st.floats(1e-3, 1e3)),
    "finite": st.lists(st.tuples(_REALS, st.floats(1e-3, 1.0)), min_size=1, max_size=5).map(
        lambda atoms: ([v for v, _ in atoms],
                       [w / sum(w for _, w in atoms) for _, w in atoms])),
}


_LAWS = st.sampled_from(sorted(kernels._FAMILIES)).flatmap(
    lambda family: _LAW_PARAMS[family].map(lambda p: getattr(Distribution, family)(*p)))


_GATE = [n for words in (kernels._PASS_WORDS, 2 * kernels._PASS_WORDS) for n in (words, words + 1)]


@settings(max_examples=300, deadline=None)
@given(dist=_LAWS, seed=_SEEDS,
       # n = 0 and 1; n ending part-way through a four-word block: 3, 9
       # and 33 for a law of two draws per word, 7, 9 and 33 for one; and
       # the last n of the Philox pass and the first past it, for one and
       # for two draws per word
       n=st.sampled_from([0, 1, 3, 7, 8, 9, 33, *_GATE]) | st.integers(0, 300),
       reps=st.lists(st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1), max_size=6),
       # long rows by the Philox pass, or re-keyed
       long_pass=st.booleans())
@example(dist=Distribution.rademacher(), seed=0, n=1024, reps=[0, 2**40], long_pass=False)
@example(dist=Distribution.rademacher(), seed=0, n=1024, reps=[0, 2**40], long_pass=True)
@example(dist=Distribution.uniform(-1.5, 2.25), seed=5, n=1023, reps=[], long_pass=True)
def test_sample_rows_equal_each_rows_own_stream(dist, seed, n, reps, long_pass):
    keys = stream_keys(seed, "rows", np.array(reps, dtype=np.uint64))
    got = sample_rows(dist, keys, n, long_pass)
    want = [dist.sample(stream(seed, "rows", r), n) for r in reps]
    assert got.dtype == np.float64 and got.shape == (len(reps), n)
    assert got.tobytes() == np.array(want).reshape(len(reps), n).tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=_SEEDS, reps=st.lists(st.integers(0, 2**64 - 1), max_size=4),
       # past the short-row gate too: whole rows of 512 and 1,024 words, and
       # counts that end part-way through a four-word block
       count=st.sampled_from([kernels._PASS_WORDS + 1, 511, 512, 513, 1022, 1024, 1027])
       | st.integers(0, 41) | st.integers(0, 1100))
def test_philox_pass_equals_numpy_philox_words(seed, reps, count):
    keys = stream_keys(seed, "words", np.array(reps, dtype=np.uint64))
    want = [np.random.Philox(key=key).random_raw(count) for key in keys]
    got = kernels._philox_words(keys, count)
    assert got.shape == (len(reps), count)
    assert got.tobytes() == np.array(want, dtype=np.uint64).reshape(len(reps), count).tobytes()


def test_pass_fits_run_counts_words_and_calls():
    rademacher = Distribution.rademacher()
    # holder-long-t2: 30 rows of 512 words in two blocks
    assert kernels.pass_fits_run(rademacher, 1024, 30, 2)
    # the lln and holder recipes: 256k and 512k words
    assert not kernels.pass_fits_run(rademacher, 1024, 500, 32)
    assert not kernels.pass_fits_run(rademacher, 1024, 1000, 63)
    # few words but many calls, each with the pass's fixed cost
    assert not kernels.pass_fits_run(rademacher, 128, 1000, 500)
    # a double per word doubles a row's words
    budget = kernels._RUN_PASS_WORDS - kernels._PASS_CALL_WORDS
    assert kernels.pass_fits_run(Distribution.uniform(0.0, 1.0), 1024, budget // 1024, 1)
    assert not kernels.pass_fits_run(Distribution.uniform(0.0, 1.0), 1024, budget // 1024 + 1, 1)
    assert kernels.pass_fits_run(rademacher, 1024, budget // 512, 1)
    # a Gaussian ziggurat draws a variable number of words: never the pass
    assert not kernels.pass_fits_run(Distribution.gaussian(), 64, 1, 1)


# ---------------------------------------------------------------------------
# config


def test_kernel_from_config_builtin_and_expr():
    h = kernel_from_config({"name": "product", "m": 3})
    assert h.arity == 3 and h.symmetric
    g = kernel_from_config({"expr": "x1 - x2", "m": 2})
    assert not g.symmetric
    s = kernel_from_config({"expr": "x1 * x2", "symmetric": True})
    assert s.symmetric and s.arity == 2
    with pytest.raises(ValueError):
        kernel_from_config({"m": 2})


@pytest.mark.parametrize("conditioned", [(), (1,), (0, 2), (2, 0, 1)])
def test_evaluate_nested_broadcasts_leading_axes_and_index_columns(conditioned):
    # outer points (T, O, j), inner points (T, 1, I, k), index columns (T, 1, 1):
    # the same numbers as evaluate_batch on columns broadcast by hand; with
    # no free position the inner points have no column and I is 1, and with
    # no conditioned one the outer points have none and O is 1
    h = kernel_from_expression("x1 * x2 / (i1 + i3) + x3 ^ 2 * i2 - x1", 3)
    rng = np.random.default_rng(5)
    j = len(conditioned)
    free = [p for p in range(3) if p not in conditioned]
    outer_pts = rng.standard_normal((4, 5, j))
    inner_pts = rng.standard_normal((4, 1, 6, 3 - j))
    idx = [rng.integers(0, 20, size=(4, 1, 1)) for _ in range(3)]
    got = evaluate_nested(h, conditioned, outer_pts, inner_pts, idx)
    shape = (4, 5 if conditioned else 1, 6 if free else 1)
    cols = [None] * 3
    for a, p in enumerate(conditioned):
        cols[p] = np.broadcast_to(outer_pts[:, :, a, None], shape)
    for a, p in enumerate(free):
        cols[p] = np.broadcast_to(inner_pts[:, :, :, a], shape)
    want = evaluate_batch(h, cols, [np.broadcast_to(c, shape) for c in idx])
    assert got.shape == shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
