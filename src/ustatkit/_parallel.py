"""An in-order map over work items, kept for the benchmark's tracer.

No ustatkit module calls it: every experiment stage runs in the calling
thread.  perfbench/tracing.py wraps this name to record the per-layer
`parallel.*` metrics, so it stays until the benchmark next changes.
"""

from __future__ import annotations

__all__ = ["parallel_map"]


def parallel_map(fn, count: int, threads: int | None = None) -> list:
    """Apply fn to 0..count-1 in order; `threads` is accepted and ignored."""
    return [fn(i) for i in range(count)]
