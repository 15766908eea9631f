"""Ranking, unranking, and enumeration of increasing index tuples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ustatkit.combinatorics import (
    _binomial_column,
    count_tuples,
    enumerate_tuples,
    rank_tuple,
    unrank_many,
    unrank_tuple,
    validate_tuple,
)


def test_count_matches_binomial():
    for n in range(0, 12):
        for m in range(0, n + 1):
            assert count_tuples(n, m) == math.comb(n, m)


def test_enumeration_order_frozen_4_2():
    # colex order: the last coordinate moves slowest
    assert list(enumerate_tuples(4, 2)) == [
        (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
    ]


def test_enumeration_order_frozen_5_3():
    got = list(enumerate_tuples(5, 3))
    assert got[0] == (0, 1, 2)
    assert got[1] == (0, 1, 3)
    assert got[-1] == (2, 3, 4)
    assert len(got) == 10


def test_enumeration_is_prefix_stable():
    # Inc^m_c is a prefix of Inc^m_n for c <= n
    small = list(enumerate_tuples(6, 3))
    big = list(enumerate_tuples(9, 3))
    assert big[: len(small)] == small


def test_rank_of_enumeration_is_identity():
    for n, m in [(7, 1), (7, 2), (7, 3), (5, 5), (6, 4)]:
        for expected, t in enumerate(enumerate_tuples(n, m)):
            assert rank_tuple(t) == expected
            assert unrank_tuple(expected, n, m) == t


def test_rank_independent_of_n():
    t = (1, 4, 6)
    r = rank_tuple(t)
    assert unrank_tuple(r, 8, 3) == t
    assert unrank_tuple(r, 30, 3) == t


def test_unrank_many_matches_scalar_unrank():
    n, m = 9, 3
    total = count_tuples(n, m)
    cols = unrank_many(np.arange(total), n, m)
    assert len(cols) == m
    for r in range(total):
        scalar = unrank_tuple(r, n, m)
        assert tuple(int(c[r]) for c in cols) == scalar


@st.composite
def _unsorted_ranks(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m, 300 if m <= 2 else 60))
    total = math.comb(n, m)
    ranks = draw(st.lists(st.integers(0, total - 1), max_size=40))
    return n, m, ranks


@settings(max_examples=300, deadline=None)
@given(_unsorted_ranks())
def test_unrank_many_matches_unrank_tuple_on_unsorted_ranks(case):
    # incomplete-moment batches unrank many replications' ranks at once,
    # so the array is sorted within each replication but not across them
    n, m, ranks = case
    given_ranks = np.array(ranks, dtype=np.int64)
    cols = unrank_many(given_ranks, n, m)
    assert len(cols) == m
    assert all(c.dtype == np.int64 and c.shape == (len(ranks),) for c in cols)
    got = [tuple(int(c[i]) for c in cols) for i in range(len(ranks))]
    assert got == [unrank_tuple(r, n, m) for r in ranks]
    assert given_ranks.tolist() == ranks  # the input is left as it was


def _spread(draw, lo: int, hi: int) -> int:
    """An integer in [lo, hi] whose bit length is uniform, so large ones come up."""
    bits = draw(st.integers(lo.bit_length(), hi.bit_length()))
    return draw(st.integers(max(lo, 1 << (bits - 1)), min(hi, (1 << bits) - 1)))


@st.composite
def _pair_step_boundaries(draw):
    # ranks whose pair step lands on C(c, 2) - 1, C(c, 2) or C(c, 2) + 1,
    # where the float root of the closed form is nearest an integer; m = 2
    # builds no column, so n reaches 2^32, where C(n, 2) nears 2^63
    m = draw(st.integers(2, 4))
    n = _spread(draw, m + 1, 2**32 if m == 2 else 10**5)
    c = _spread(draw, 2, n - m + 1)
    if draw(st.booleans()):
        c = n - m + 3 - c  # as often near the top as near the bottom
    delta = draw(st.sampled_from([-1, 0, 1]))
    # the pair (c - 2, c - 1), (0, c) or (1, c), under coordinates above c
    upper = sorted(draw(st.lists(st.integers(c + 1, n - 1), min_size=m - 2, max_size=m - 2,
                                 unique=True))) if m > 2 else []
    rank = math.comb(c, 2) + delta + sum(math.comb(t, j) for j, t in enumerate(upper, start=3))
    return n, m, rank


@settings(max_examples=300, deadline=None)
@given(_pair_step_boundaries())
def test_unrank_many_pair_step_matches_unrank_tuple_at_binomial_boundaries(case):
    n, m, rank = case
    cols = unrank_many(np.array([rank]), n, m)
    assert tuple(int(c[0]) for c in cols) == unrank_tuple(rank, n, m)


def test_unrank_many_binomial_column_is_cached_and_read_only():
    n, m = 40, 3
    ranks = np.arange(count_tuples(n, m))
    first = unrank_many(ranks, n, m)
    again = unrank_many(ranks[::-1], n, m)
    for a, b in zip(first, again):
        assert np.array_equal(a[::-1], b)
    column = _binomial_column(n, 2)
    assert column is _binomial_column(n, 2)
    assert column.dtype == np.int64
    assert column.tolist() == [math.comb(c, 2) for c in range(n)]
    with pytest.raises(ValueError):
        column[0] = 1


def test_validate_tuple_rejects_bad_input():
    validate_tuple((0, 2, 3), 5, 3)
    with pytest.raises(ValueError):
        validate_tuple((2, 1), 5, 2)
    with pytest.raises(ValueError):
        validate_tuple((0, 0), 5, 2)
    with pytest.raises(ValueError):
        validate_tuple((0, 5), 5, 2)
    with pytest.raises(ValueError):
        validate_tuple((-1, 2), 5, 2)
    with pytest.raises(ValueError):
        validate_tuple((0, 1, 2), 5, 2)


def test_empty_tuple_cases():
    assert count_tuples(4, 0) == 1
    assert list(enumerate_tuples(4, 0)) == [()]
    assert rank_tuple(()) == 0
    assert unrank_tuple(0, 4, 0) == ()
    assert count_tuples(2, 3) == 0
    assert list(enumerate_tuples(2, 3)) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.data())
def test_round_trip_random(n, data):
    m = data.draw(st.integers(min_value=1, max_value=n))
    rank = data.draw(st.integers(min_value=0, max_value=math.comb(n, m) - 1))
    t = unrank_tuple(rank, n, m)
    validate_tuple(t, n, m)
    assert rank_tuple(t) == rank


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rank_round_trip_from_tuple(data):
    n = data.draw(st.integers(min_value=2, max_value=16))
    m = data.draw(st.integers(min_value=1, max_value=n))
    t = tuple(sorted(data.draw(
        st.sets(st.integers(min_value=0, max_value=n - 1),
                min_size=m, max_size=m))))
    assert unrank_tuple(rank_tuple(t), n, m) == t
