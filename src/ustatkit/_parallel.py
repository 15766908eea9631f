"""Deterministic fan-out over work items.

The harness maps over blocks of replications whose bounds depend only on
the horizon N and the kernel arity m, never on the thread count; each
block is a few large numpy calls that release the interpreter lock.
Results come back in index order no matter how many workers run, so any
reduction applied afterwards sees a fixed operand order and experiment
output is independent of the thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["parallel_map", "resolve_threads"]


def resolve_threads(threads: int | None) -> int:
    """Explicit count wins; USTAT_THREADS is the fallback; default 1."""
    if threads is not None:
        n = int(threads)
    else:
        n = int(os.environ.get("USTAT_THREADS", "1"))
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    return n


def parallel_map(fn, count: int, threads: int | None = None) -> list:
    """Apply fn to 0..count-1, preserving order."""
    n = resolve_threads(threads)
    if n == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, range(count)))
