"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench

Each correctness check must pass on a report the program writes and fail
once that report is corrupted; the exact laws behind the checks are
compared with brute-force enumeration.
"""

import copy
import itertools
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import checks
import tracing
from workloads import make_config

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the workloads at test size: fewer replications, shorter horizons
SMALL = {
    "maxdev-short": {"replications": 1000},
    "holder-long-t2": {"n_grid": [256], "replications": 30, "threads": 1},
    "weighted-gauss": {"n_grid": [8, 16, 32], "replications": 300},
    "incomplete-sparse": {"moment_replications": 200},
}


def _report(name, tmp_path_factory):
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from ustatkit import cli

    config = {**make_config(name, 7), **SMALL[name]}
    tmp = tmp_path_factory.mktemp(name)
    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["experiment", "run", "--config", str(path),
                     "--out", str(tmp / "out")]) == 0
    return config, json.loads((tmp / "out" / "report.json").read_text())


@pytest.fixture(scope="module", params=list(SMALL))
def workload(request, tmp_path_factory):
    return request.param, *_report(request.param, tmp_path_factory)


def test_check_passes_on_program_report(workload):
    name, config, report = workload
    assert checks.check(name, config, report) == []


def test_failed_verdict_is_caught(workload):
    name, config, report = workload
    bad = copy.deepcopy(report)
    bad["passed"] = False
    assert checks.check(name, config, bad) != []


def _corruptions(name, report):
    """(what, corrupted report) pairs, one per check of the workload."""
    def edit(fn):
        bad = copy.deepcopy(report)
        fn(bad)
        return bad

    if name in ("maxdev-short", "weighted-gauss"):
        mid = len(report["rows"]) // 2
        # the weighted check compares two simulations, so it allows more
        shift = 0.1 if name == "maxdev-short" else 0.3
        yield "lhs", edit(lambda r: r["rows"][mid].update(lhs=r["rows"][mid]["lhs"] + shift))
        if name == "maxdev-short":
            yield "rhs", edit(lambda r: r["rows"][mid].update(rhs=r["rows"][mid]["rhs"] * (1 + 1e-9)))
        else:
            yield "rhs", edit(lambda r: r["rows"][mid].update(rhs=r["rows"][mid]["rhs"] * 1e-3))
            yield "rhs inf", edit(lambda r: r["rows"][mid].update(rhs=float("inf")))
        yield "row missing", edit(lambda r: r["rows"].pop())
    elif name == "holder-long-t2":
        def flip(r):
            cell = next(c for c in r["details"]["cells"] if c["j"] == 3)
            cell["frequency"] = 1.0 if cell["frequency"] < 0.5 else 0.0
        yield "cell frequency", edit(flip)
        yield "median", edit(lambda r: r["details"]["quantiles"][0].update(median=0.0))
        yield "cell missing", edit(lambda r: r["details"]["cells"].pop())
    else:
        def shift(r):
            row = r["rows"][1]
            row["moment_estimate"] += 10 * row["standard_error"]
        yield "moment_estimate", edit(shift)


def test_each_check_catches_its_corruption(workload):
    name, config, report = workload
    for what, bad in _corruptions(name, report):
        assert checks.check(name, config, bad) != [], what


def test_holder_norm_check_catches_a_wrong_norm(monkeypatch):
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import ustatkit.holder

    assert checks._holder_norm_agrees(0.3, 128, seed=1) == []
    original = ustatkit.holder.holder_norm
    monkeypatch.setattr(ustatkit.holder, "holder_norm",
                        lambda path, alpha: original(path, alpha) * (1 + 1e-9))
    assert checks._holder_norm_agrees(0.3, 128, seed=1) != []


# ---------------------------------------------------------------------------
# the exact laws behind the checks


def _all_walks(n):
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=n)))
    return np.concatenate([np.zeros((signs.shape[0], 1)), np.cumsum(signs, axis=1)], axis=1)


def test_exact_max_tail_matches_enumeration():
    walks = _all_walks(10)
    u = (walks ** 2 - np.arange(11)) / 2.0
    for t in (0.5, 2.0, 3.0, 7.5):
        got = checks.exact_max_tail([4, 10], [t])[0]
        want = [np.mean(np.abs(u[:, :n + 1]).max(axis=1) > t) for n in (4, 10)]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_exact_increment_exceedance_matches_enumeration():
    walks = _all_walks(10)
    u = (walks ** 2 - np.arange(11)) / 2.0
    for a, b, t in ((0, 10, 3.0), (3, 7, 1.0), (5, 10, 6.5), (9, 10, 0.5)):
        want = np.mean(np.abs(u[:, b] - u[:, a]) > t)
        assert abs(checks.exact_increment_exceedance(a, b, t) - want) < 1e-12


def test_binomial_consistent():
    assert checks.binomial_consistent(0.5, 100, 0.5)
    assert not checks.binomial_consistent(0.9, 100, 0.5)
    assert checks.binomial_consistent(0.0, 100, 0.0)
    assert not checks.binomial_consistent(0.01, 100, 0.0)
    assert not checks.binomial_consistent(0.505, 100, 0.5)  # not a count / 100


def test_weighted_simulation_uses_the_direct_sum():
    n_grid = [2, 3, 5]
    x = np.random.default_rng([5, 0x3E16]).standard_normal((4, 5))
    want = np.zeros((4, 3))
    for r in range(4):
        prefix = [sum(x[r, i - 1] * x[r, j - 1] / (i + j)
                      for j in range(2, k + 1) for i in range(1, j)) for k in range(1, 6)]
        running = np.maximum.accumulate(np.abs(prefix))
        want[r] = [running[n - 1] for n in n_grid]
    assert np.allclose(checks.simulate_weighted_maxima(n_grid, 4, 5), want, rtol=1e-12)


# ---------------------------------------------------------------------------
# tracing


def test_self_times_add_up_to_the_root_with_worker_threads(tmp_path):
    tracer = tracing.Tracer()
    leaf = tracer.traced("leaf", time.sleep)

    def fan_out(fn, count, threads=None):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, range(count)))

    parallel_map = tracer.traced_parallel_map(fan_out)
    tracer.root(lambda: [parallel_map(lambda i: leaf(0.01), 6), time.sleep(0.01)])
    path = tmp_path / "trace.npz"
    tracer.dump(str(path))
    metrics = tracing.derive(str(path))
    assert metrics["parallel.items"][0] == 6
    assert abs(metrics["trace.self_sum_s"][0] - metrics["trace.wall_s"][0]) < 1e-9
    assert 1.5 < metrics["parallel.overlap"][0] <= 2.0
