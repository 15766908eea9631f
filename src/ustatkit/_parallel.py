"""Deterministic fan-out over work items.

It has one use: the Holder pair scan (holder.holder_norms) maps over fixed
chunks of 128 path rows, whose bounds never depend on the thread count,
and each chunk runs one large numpy call per lag, which releases the
interpreter lock.  Every other stage runs in the calling thread: between
its numpy calls Python holds the lock, and a second thread measured
slower than one.  Results come back in index order no matter how many
workers run, so any reduction applied afterwards sees a fixed operand
order and experiment output is independent of the thread count.  No more
workers start than there are items or usable cores, since extra workers
only trade the lock back and forth.
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
