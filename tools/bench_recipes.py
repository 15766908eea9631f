"""Time `ustat experiment run` on every acceptance recipe and benchmark workload.

    python3 tools/bench_recipes.py --src parent=OLD/src --src change=src --out BENCH.json
    (each DIR is copied to s0/, s1/, ... under one temporary directory first)

Each `--src [LABEL=]DIR` names a directory that holds the ustatkit
package (the `src` directory of a checkout); LABEL defaults to DIR.  The
runs import each package from a copy of its DIR, not from DIR itself: the
copies sit side by side in one temporary directory, under names of equal
length (s0, s1, ...), because the times depend on the length of the path
a source sits at, not only on its code (an identical `src` at a longer
path read 6% slower on the holder recipe in 10 of 10 alternating pairs on
a 2-vCPU VM).
The configs come from this checkout: every recipe in tests/recipes.py and
every workload in perfbench/workloads.py (read only) at its default seed.
Every run is a fresh process.  It records three times: the process's wall
time, which includes interpreter start-up and imports; its CPU time (user
plus system, from the rusage os.wait4 returns, as perfbench/run.py reads
it), which also counts every thread the process starts; and the wall time
of the child's own `cli.main` call, timed as perfbench/child.py times it,
which leaves start-up out and so shows gaps of a few ms that start-up
noise hides.  A config runs REPEATS rounds; each round runs it on every
source in turn, so the times compared come from the same stretch of
machine load, and the sources take turns at running first, since the
second of two back-to-back runs of one config can read slower on
identical trees.  The median of each time counts.  Writes one JSON
object: the machine, and per source and config every time of the three
kinds, their medians and the sha256 of the report.json written,
which must be the same in every round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Rounds per config and source; the median of each time counts.
REPEATS = 7

# The child: ustatkit from PYTHONPATH, and only the CLI call timed.
_CHILD = """
import json, sys, time
from ustatkit import cli
start = time.perf_counter()
code = cli.main(sys.argv[2:])
wall = time.perf_counter() - start
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"cli_s": wall}, fh)
sys.exit(code)
"""


def _configs():
    """(name, config) per recipe, then per workload."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]
    from recipes import _RECIPES
    from workloads import DEFAULT_SEEDS, make_config

    yield from _RECIPES.items()
    for key, seed in DEFAULT_SEEDS.items():
        yield key, make_config(key, seed)


def _timed_run(src: str, config: dict) -> tuple[float, float, float, str]:
    """Wall and CPU seconds of one `ustat experiment run` process importing
    ustatkit from src, the wall seconds of its CLI call, and the sha256 of
    the report.json it writes."""
    with tempfile.TemporaryDirectory() as wdir:
        config_path = os.path.join(wdir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = os.path.join(wdir, "out")
        timing_path = os.path.join(wdir, "timing.json")
        env = {**os.environ, "PYTHONPATH": src}
        log_path = os.path.join(wdir, "child.log")
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", _CHILD, timing_path, "experiment", "run",
                 "--config", config_path, "--out", out],
                env=env, cwd=wdir, stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # 0 and 1 both write a report: a passed and a failed verdict
        if proc.returncode not in (0, 1):
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"exit {proc.returncode}:\n{fh.read()}")
        with open(timing_path, encoding="utf-8") as fh:
            cli_s = json.load(fh)["cli_s"]
        with open(os.path.join(out, "report.json"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return wall, usage.ru_utime + usage.ru_stime, cli_s, digest


def _source(arg: str) -> tuple[str, str]:
    label, sep, path = arg.partition("=")
    path = path if sep else label
    if not os.path.isdir(os.path.join(path, "ustatkit")):
        raise argparse.ArgumentTypeError(f"{path} holds no ustatkit package")
    return label, os.path.abspath(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=_source, action="append", required=True,
                        metavar="[LABEL=]DIR")
    parser.add_argument("--out", required=True, metavar="FILE")
    args = parser.parse_args(argv)

    import numpy

    results = {label: {} for label, _ in args.src}
    with tempfile.TemporaryDirectory() as copies:
        width = len(str(len(args.src) - 1))
        srcs = []
        for i, (label, path) in enumerate(args.src):
            copy = os.path.join(copies, f"s{i:0{width}d}")
            shutil.copytree(path, copy, ignore=shutil.ignore_patterns("__pycache__"))
            srcs.append((label, copy))
        for name, config in _configs():
            for label, _ in srcs:
                results[label][name] = {"wall_s": [], "cpu_s": [], "cli_s": []}
            for round_ in range(REPEATS):
                sources = srcs[round_ % len(srcs):] + srcs[:round_ % len(srcs)]
                for label, src in sources:
                    wall, cpu, cli_s, digest = _timed_run(src, config)
                    entry = results[label][name]
                    entry["wall_s"].append(round(wall, 4))
                    entry["cpu_s"].append(round(cpu, 4))
                    entry["cli_s"].append(round(cli_s, 5))
                    if entry.setdefault("report_sha256", digest) != digest:
                        raise RuntimeError(f"{label} {name}: report changed between runs")
            for label, _ in srcs:
                entry = results[label][name]
                for key in ("wall_s", "cpu_s", "cli_s"):
                    entry[f"median_{key}"] = statistics.median(entry[key])
                print(label, name, entry["median_wall_s"], entry["median_cpu_s"],
                      entry["median_cli_s"], flush=True)

    ledger = {
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            # a BLAS thread count set here reaches every child
            "blas_env": {k: os.environ[k] for k in (
                "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
                if k in os.environ},
        },
        "repeats": REPEATS,
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
