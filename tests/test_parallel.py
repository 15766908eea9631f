"""Fan-out: the worker count cap and index order."""

import pytest

from ustatkit import _parallel
from ustatkit._parallel import parallel_map


class _RecordingExecutor:
    """Runs the map serially and records the worker count it was given."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.fixture
def recorder(monkeypatch):
    _RecordingExecutor.started = []
    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", _RecordingExecutor)
    return _RecordingExecutor.started


@pytest.mark.parametrize(
    "threads, count, cores, workers",
    [(8, 100, 2, 2), (8, 3, 16, 3), (4, 100, 16, 4), (2, 2, 2, 2)],
)
def test_workers_capped_by_threads_items_and_cores(
        monkeypatch, recorder, threads, count, cores, workers):
    monkeypatch.setattr(_parallel, "_usable_cores", lambda: cores)
    assert parallel_map(lambda i: i * i, count, threads) == [i * i for i in range(count)]
    assert recorder == [workers]


@pytest.mark.parametrize("threads, count, cores", [(8, 100, 1), (1, 100, 8), (8, 1, 8)])
def test_one_worker_runs_inline(monkeypatch, recorder, threads, count, cores):
    monkeypatch.setattr(_parallel, "_usable_cores", lambda: cores)
    assert parallel_map(lambda i: -i, count, threads) == [-i for i in range(count)]
    assert recorder == []


def test_usable_cores_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(_parallel.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: 3)
    assert _parallel._usable_cores() == 3
    monkeypatch.setattr(_parallel.os, "cpu_count", lambda: None)
    assert _parallel._usable_cores() == 1

