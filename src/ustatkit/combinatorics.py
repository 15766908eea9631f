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

    Coordinate j - 1 is the largest c with C(c, j) at most what is left of
    the rank: a binary search of the column C(., j) for j >= 3, and for
    j = 2 the float root of c (c - 1) / 2 = rest, corrected by one step
    either way in exact integer arithmetic, so no column is built.
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
    for j in range(m, 2, -1):
        table = _binomial_column(n, j)
        idx = np.searchsorted(table, rem, side="right") - 1
        cols[j - 1] = idx
        rem = rem - table[idx]
    if m >= 2:
        # C(c, 2) <= rest exactly when c <= (1 + sqrt(1 + 8 rest)) / 2, whose
        # float value is off by under one; the products c (c - 1) and
        # (c + 1) c fit uint64 because c <= 2^32 when C(n, 2) fits int64
        rest = rem.view(np.uint64)
        idx = ((np.sqrt(8.0 * rem + 1.0) + 1.0) * 0.5).astype(np.uint64)
        idx -= idx * (idx - 1) >> 1 > rest
        idx += (idx + 1) * idx >> 1 <= rest
        cols[1] = idx.view(np.int64)
        rem = (rest - (idx * (idx - 1) >> 1)).view(np.int64)
    # C(c, 1) = c, so what is left of each rank is its first coordinate
    cols[0] = rem.copy() if m == 1 else rem
    return cols
