"""Strictly increasing index tuples in colexicographic order.

An increasing tuple is a plain tuple of 0-based indices i_0 < i_1 < ... <
i_{m-1} drawn from range(n).  The colexicographic order (compare last
coordinate first) is the enumeration order used everywhere in this package
because the combinatorial number system turns it into an O(m) bijection with
range(C(n, m)): rank(t) = sum_j C(t_j, j+1).  Python integers are unbounded,
so binomial counts never overflow; they are returned exactly.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Iterator

import numpy as np

__all__ = [
    "count_tuples",
    "enumerate_tuples",
    "rank_tuple",
    "unrank_tuple",
    "unrank_many",
    "validate_tuple",
]


def validate_tuple(t: tuple[int, ...], n: int, m: int) -> None:
    """Raise ValueError unless t is a strictly increasing m-tuple in range(n)."""
    if len(t) != m:
        raise ValueError(f"expected {m} indices, got {len(t)}")
    prev = -1
    for x in t:
        if not isinstance(x, (int, np.integer)):
            raise ValueError(f"index {x!r} is not an integer")
        if x <= prev:
            raise ValueError(f"indices must be strictly increasing, got {t}")
        prev = int(x)
    if m > 0 and (t[0] < 0 or t[-1] >= n):
        raise ValueError(f"indices must lie in [0, {n}), got {t}")


def count_tuples(n: int, m: int) -> int:
    """Number of strictly increasing m-tuples from range(n), exactly C(n, m)."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    return comb(n, m)


def enumerate_tuples(n: int, m: int) -> Iterator[tuple[int, ...]]:
    """Yield all increasing m-tuples from range(n) in colexicographic order."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if m == 0:
        yield ()
        return
    if m > n:
        return
    cur = list(range(m))
    while True:
        yield tuple(cur)
        j = 0
        while j < m - 1 and cur[j] + 1 == cur[j + 1]:
            j += 1
        if j == m - 1 and cur[j] + 1 == n:
            return
        cur[j] += 1
        for i in range(j):
            cur[i] = i


def rank_tuple(t: tuple[int, ...]) -> int:
    """Colexicographic rank of an increasing tuple, independent of n."""
    prev = -1
    r = 0
    for j, x in enumerate(t):
        if x <= prev:
            raise ValueError(f"indices must be strictly increasing, got {t}")
        prev = x
        r += comb(x, j + 1)
    return r


def _largest_with_binomial_at_most(rem: int, j: int, hi: int) -> int:
    # largest c in [j-1, hi] with C(c, j) <= rem, by binary search
    lo = j - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if comb(mid, j) <= rem:
            lo = mid
        else:
            hi = mid - 1
    return lo


def unrank_tuple(rank: int, n: int, m: int) -> tuple[int, ...]:
    """Inverse of rank_tuple for tuples drawn from range(n)."""
    total = comb(n, m)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} out of range [0, {total})")
    out = [0] * m
    rem = rank
    hi = n - 1
    for j in range(m, 0, -1):
        c = _largest_with_binomial_at_most(rem, j, hi)
        out[j - 1] = c
        rem -= comb(c, j)
        hi = c - 1
    return tuple(out)


@lru_cache(maxsize=32)
def _binomial_column(n: int, j: int) -> np.ndarray:
    """Read-only int64 column C(c, j) for c in range(n), built once per (n, j)."""
    table = np.array([comb(c, j) for c in range(n)], dtype=np.int64)
    table.flags.writeable = False
    return table


def unrank_many(ranks: np.ndarray, n: int, m: int) -> list[np.ndarray]:
    """Vectorized unrank: m int64 columns, one row per rank.

    Requires C(n, m) to fit in int64, which holds everywhere this package
    evaluates tuples (evaluation is capped long before that).
    """
    total = comb(n, m)
    if total > np.iinfo(np.int64).max:
        raise ValueError("C(n, m) exceeds int64; vectorized unrank unavailable")
    ranks = np.asarray(ranks, dtype=np.int64)
    if ranks.size and (ranks.min() < 0 or ranks.max() >= total):
        raise ValueError(f"ranks must lie in [0, {total})")
    if m == 0:
        return []
    cols: list[np.ndarray] = [ranks] * m
    rem = ranks
    for j in range(m, 1, -1):
        table = _binomial_column(n, j)
        idx = np.searchsorted(table, rem, side="right") - 1
        cols[j - 1] = idx
        rem = rem - table[idx]
    # C(c, 1) = c, so what is left of each rank is its first coordinate
    cols[0] = rem.copy() if m == 1 else rem
    return cols
