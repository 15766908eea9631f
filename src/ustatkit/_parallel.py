"""Deterministic fan-out over work items.

It has two uses.  The harness maps over blocks of replications whose
bounds depend only on the horizon N and the kernel arity m, and the Holder
pair scan (holder.holder_norms) maps over fixed chunks of 128 path rows;
neither ever depends on the thread count, and each item is a few large
numpy calls, or one per lag, that release the interpreter lock.  Results
come back in index order no matter how many workers run, so any
reduction applied afterwards sees a fixed operand order and experiment
output is independent of the thread count.  No more workers start than
there are items or usable cores: between those calls Python holds the
interpreter lock, and extra workers only trade it back and forth.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["parallel_map", "resolve_threads"]


def resolve_threads(threads: int | None) -> int:
    """Explicit count wins; USTAT_THREADS is the fallback; default 1.

    Raises ValueError naming the source when the count is not a positive
    integer.
    """
    if threads is not None:
        source, n = "thread count", int(threads)
    else:
        source, text = "USTAT_THREADS", os.environ.get("USTAT_THREADS", "1")
        try:
            n = int(text)
        except ValueError:
            raise ValueError(f"USTAT_THREADS: expected an integer, got {text!r}") from None
    if n < 1:
        raise ValueError(f"{source}: must be at least 1, got {n}")
    return n


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parallel_map(fn, count: int, threads: int | None = None) -> list:
    """Apply fn to 0..count-1, preserving order.

    Starts min(threads, count, usable cores) workers.
    """
    n = min(resolve_threads(threads), count, _usable_cores())
    if n <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, range(count)))
