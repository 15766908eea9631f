"""Print the sha256 of each report.json that a fixed set of runs writes.

    python3 tools/report_hashes.py [--check]

Runs every acceptance recipe (tests/recipes.py) with a `threads` key of 1
and of 8, which must leave the report bytes alone, every benchmark
workload (perfbench/workloads.py, read only) at its default seed, and the
configs on non-integer data below (Gaussian, uniform and one finite law),
whose reports move in the last bits when a change reorders floating-point
work.  Each run is one
`ustat experiment run` in a fresh process that imports ustatkit from the
`src` directory of this checkout.  Four `ustat decompose` configs follow,
hashed by the report they print on stdout.  Prints one `name sha256` line
per report, so two checkouts give the same lines exactly when their
reports are byte-identical.  With --check, it also compares the lines with
the ledger tools/report_hashes.expected, names every line that differs,
is missing or is new, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "tools", "report_hashes.expected")

_PRODUCT = {"name": "product", "m": 2}
_GAUSSIAN = {"family": "gaussian"}

# Gaussian and uniform data: no recipe or workload but weighted-gauss
# leaves the integers, so these catch reordered arithmetic in the paths
# they take (the separable prefix path for the product; the generic
# engine for the expression kernel and its projected d = 1 component).
# The order-d line is the only one that reads the prefix-level tail of
# the order-d bound on a sampled law.  weighted-gauss's kernel splits into
# a weight times one index-free kernel, so its bound takes the factored
# branch; the weighted-generic line is a sum of two such kernels, which
# never splits, and keeps the tiled per-tuple path in view.  The scaled
# line's `3 * x1 * x2` is a compiled one-term chain, so it takes the
# separable prefix path with the factors the compiler derives.
# The Gaussian ones also draw through the ziggurat sampler, which reads
# the stream differently from the Rademacher integers.
OFF_RADEMACHER = {
    "gauss-product-deviation": {
        "kernel": _PRODUCT, "distribution": _GAUSSIAN, "experiment": "deviation",
        "n_grid": [8, 16, 32], "replications": 3000, "seed": 5,
    },
    "uniform-m3-product-deviation": {
        "kernel": {"name": "product", "m": 3},
        "distribution": {"family": "uniform", "a": -1.0, "b": 1.0},
        "experiment": "deviation", "n_grid": [8, 16, 32], "replications": 3000,
        "seed": 5,
    },
    "gauss-lln-alpha": {
        "kernel": _PRODUCT, "distribution": _GAUSSIAN, "experiment": "lln",
        "p": 1.5, "alpha": 0.4, "n_grid": [64, 128, 256], "replications": 200,
        "seed": 5,
    },
    "holder-projected-d1": {
        "kernel": {"expr": "x1 + x2 + x1 * x2", "m": 2, "symmetric": True},
        "distribution": _GAUSSIAN, "experiment": "holder", "alpha": 0.3, "d": 1,
        "n_grid": [64, 128], "replications": 40, "seed": 5,
    },
    "gauss-incomplete-moment": {
        "kernel": _PRODUCT, "distribution": _GAUSSIAN,
        "experiment": "incomplete-moment", "grid": [[64, 0.05], [128, 0.02]],
        "p": 1.5, "q": 2.0, "d": 2, "moment_replications": 300, "seed": 5,
    },
    "gauss-weighted-generic": {
        "kernel": {"expr": "x1 * x2 / (i1 + i2) + x1 * x2 / (i1 * i2)", "m": 2},
        "distribution": _GAUSSIAN, "experiment": "deviation", "n_grid": [16, 32],
        "inner": 256, "outer": 64, "replications": 500, "seed": 5,
    },
    "gauss-order-d-deviation": {
        "kernel": _PRODUCT, "distribution": _GAUSSIAN,
        "experiment": "order-d-deviation", "p": 2.0, "d": 2,
        "n_grid": [8, 16, 32], "replications": 1000, "seed": 5,
    },
    "gauss-scaled-deviation": {
        "kernel": {"expr": "3 * x1 * x2", "m": 2, "symmetric": True},
        "distribution": _GAUSSIAN, "experiment": "deviation",
        "n_grid": [8, 16, 32], "replications": 3000, "seed": 5,
    },
}

# A finite law whose atoms differ in size: the Rademacher product has
# |h| = 1, so its exact tails and moments are bit-exact in any summation
# order and cannot show whether an exact branch kept its arithmetic.  The
# holder line is the only one that evaluates a Hoeffding projection on the
# law's support grid, and the weighted line the only one that takes the
# tiled per-tuple path of the index-weighted bound on an exact law.
_FINITE = {"family": "finite", "values": [-2.0, 1.0, 3.0],
           "probabilities": [0.4, 0.5, 0.1]}
FINITE_LAW = {
    "finite-product-deviation": {
        "kernel": _PRODUCT, "distribution": _FINITE, "experiment": "deviation",
        "n_grid": [8, 16, 32], "replications": 1000, "seed": 5,
    },
    "finite-product-moment": {
        "kernel": _PRODUCT, "distribution": _FINITE, "experiment": "moment",
        "p": 1.5, "q": 2.0, "n_grid": [8, 16, 32], "moment_replications": 300,
        "seed": 5,
    },
    "finite-product-order-d-deviation": {
        "kernel": _PRODUCT, "distribution": _FINITE,
        "experiment": "order-d-deviation", "p": 2.0, "d": 2,
        "n_grid": [8, 16, 32], "replications": 1000, "seed": 5,
    },
    "finite-holder-projected-d1": {
        "kernel": {"expr": "x1 + x2 + x1 * x2", "m": 2, "symmetric": True},
        "distribution": _FINITE, "experiment": "holder", "alpha": 0.3, "d": 1,
        "n_grid": [64, 128], "replications": 40, "seed": 5,
    },
    "finite-weighted-generic": {
        "kernel": {"expr": "x1 * x2 / (i1 + i2) + x1 * x2 / (i1 * i2)", "m": 2},
        "distribution": _FINITE, "experiment": "deviation", "n_grid": [8, 16],
        "replications": 500, "seed": 5,
    },
}

# `ustat decompose` reports: two exact laws, whose bytes a refactor must
# keep, and two sampled laws on the nested Monte Carlo path.  The last
# kernel reads ^, exp, abs, min, max and unary minus on Gaussian data, which
# no other line evaluates off the integers.
DECOMPOSE = {
    "decompose-rademacher-product": {
        "kernel": _PRODUCT, "distribution": {"family": "rademacher"},
    },
    "decompose-finite-sign": {
        "kernel": {"name": "sign", "m": 2},
        "distribution": {"family": "finite", "values": [0.0, 1.0, 3.0],
                         "probabilities": [0.2, 0.3, 0.5]},
    },
    "decompose-gauss-expr": {
        "kernel": {"expr": "x1 + x2 + x1 * x2", "m": 2, "symmetric": True},
        "distribution": _GAUSSIAN, "inner": 256, "outer": 64,
    },
    "decompose-gauss-functions": {
        "kernel": {"expr": "exp(-abs(x1 - x2) ^ 1.5) + max(x1, x2) * min(x2, 0.5)", "m": 2},
        "distribution": _GAUSSIAN, "inner": 256, "outer": 64,
    },
}


def _configs():
    """(name, config) of every run, recipes first."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]
    from recipes import _RECIPES
    from workloads import DEFAULT_SEEDS, make_config

    for key, recipe in _RECIPES.items():
        for threads in (1, 8):
            yield f"{key}-t{threads}", {**recipe, "threads": threads}
    for key, seed in DEFAULT_SEEDS.items():
        yield f"{key}-s{seed}", make_config(key, seed)
    yield from OFF_RADEMACHER.items()
    yield from FINITE_LAW.items()


def _ustat(command: list, config: dict, wdir: str) -> bytes:
    """stdout of `ustat <command> --config <config>` run in wdir."""
    config_path = os.path.join(wdir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "ustatkit.cli", *command, "--config", config_path],
        env=env, cwd=wdir, capture_output=True)
    # 0 and 1 both write a report: a passed and a failed verdict
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"exit {proc.returncode}:\n{proc.stderr.decode()}")
    return proc.stdout


def report_hash(config: dict, wdir: str) -> str:
    """sha256 of the report.json that `ustat experiment run` writes for config."""
    out = os.path.join(wdir, "out")
    _ustat(["experiment", "run", "--out", out], config, wdir)
    with open(os.path.join(out, "report.json"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def decompose_hash(config: dict, wdir: str) -> str:
    """sha256 of the report that `ustat decompose` prints for config."""
    return hashlib.sha256(_ustat(["decompose"], config, wdir)).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="diff against tools/report_hashes.expected")
    args = parser.parse_args(argv)
    expected = {}
    if args.check:
        with open(LEDGER, encoding="utf-8") as fh:
            expected = dict(line.split() for line in fh if line.strip())

    runs = [(name, config, report_hash) for name, config in _configs()]
    runs += [(name, config, decompose_hash) for name, config in DECOMPOSE.items()]
    differ = []
    for name, config, digest in runs:
        with tempfile.TemporaryDirectory() as wdir:
            value = digest(config, wdir)
        print(name, value, flush=True)
        want = expected.pop(name, None)
        if args.check and want != value:
            differ.append(f"{name}: ledger {want or 'has no line'}, run {value}")
    differ += [f"{name}: in the ledger but not run" for name in expected]
    for line in differ:
        print(line, file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
