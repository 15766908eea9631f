"""The four benchmark workloads, each a `ustat experiment run` config.

A workload is a function of the workload seed alone: the seed is written
into the config as the master seed, and the program sees nothing else.
"""

from __future__ import annotations

# Bernoulli selection rates p_n = 1/n written exactly, so the config and
# the correctness check agree on every bit of the rate.
_SPARSE_GRID = [[n, 1.0 / n] for n in (256, 512, 1024, 2048)]

_PRODUCT = {"name": "product", "m": 2}
_RADEMACHER = {"family": "rademacher"}

WORKLOADS = {
    # tens of thousands of 32-step trajectories: per-step and per-stream
    # overhead of the prefix engine dominates
    "maxdev-short": {
        "kernel": _PRODUCT,
        "distribution": _RADEMACHER,
        "experiment": "deviation",
        "n_grid": [8, 16, 32],
        "p": 1.5,
        "replications": 5_000,
        "threads": 1,
    },
    # long paths: the O(n^2) Holder pair scan and the O(N^2)-summand prefix
    # engine, fanned out over two threads
    "holder-long-t2": {
        "kernel": _PRODUCT,
        "distribution": _RADEMACHER,
        "experiment": "holder",
        "n_grid": [1024],
        "alpha": 0.3,
        "d": 2,
        "replications": 30,
        "threads": 2,
    },
    # index-weighted kernel on Gaussian data: nested Monte Carlo
    # certification per summand and the per-summand bound groups
    "weighted-gauss": {
        "kernel": {"expr": "x1 * x2 / (i1 + i2)", "m": 2},
        "distribution": {"family": "gaussian"},
        "experiment": "deviation",
        "n_grid": [16, 32, 64],
        "p": 1.5,
        "replications": 500,
        "inner": 256,
        "outer": 64,
        "threads": 1,
    },
    # sparse Bernoulli designs: design draws and unranking, no prefix engine
    "incomplete-sparse": {
        "kernel": _PRODUCT,
        "distribution": _RADEMACHER,
        "experiment": "incomplete-moment",
        "grid": _SPARSE_GRID,
        "p": 1.5,
        "q": 2.0,
        "d": 2,
        "moment_replications": 300,
        "threads": 1,
    },
}

# Used when --seed is not given.
DEFAULT_SEEDS = {
    "maxdev-short": 101,
    "holder-long-t2": 202,
    "weighted-gauss": 303,
    "incomplete-sparse": 404,
}


def make_config(name: str, seed: int) -> dict:
    """The config of workload `name` with `seed` as its master seed."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit an unsigned 64-bit integer, got {seed}")
    return {**WORKLOADS[name], "seed": int(seed)}
