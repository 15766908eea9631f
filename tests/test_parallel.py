"""The in-order map the benchmark's tracer wraps."""

import pytest

from ustatkit._parallel import parallel_map


@pytest.mark.parametrize("threads, count", [(8, 100), (1, 100), (8, 1)])
def test_one_worker_runs_inline(threads, count):
    seen = []

    def item(i):
        seen.append(i)
        return -i

    assert parallel_map(item, count, threads) == [-i for i in range(count)]
    assert seen == list(range(count))
