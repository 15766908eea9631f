"""Time `ustat experiment run` on every acceptance recipe and benchmark workload.

    python3 tools/bench_recipes.py --src parent=OLD/src --src change=src --out BENCH.json
        [--threads N ...]

Each `--src [LABEL=]DIR` names a directory that holds the ustatkit
package (the `src` directory of a checkout); LABEL defaults to DIR.  The
configs come from this checkout: every recipe in tests/recipes.py and
every workload in perfbench/workloads.py (read only) at its default seed,
each at its own thread count (one where it names none).  With one or more
`--threads N`, every config runs at each N instead, recorded as
`NAME/tN`.  Every run is a
fresh process.  It records two times: the process's wall time, which
includes interpreter start-up and imports, and the wall time of the
child's own `cli.main` call, timed as perfbench/child.py times it, which
leaves start-up out and so shows gaps of a few ms that start-up noise
hides.  A config runs REPEATS rounds; each round runs it at every thread
count on every source in turn, so the times compared come from the same
stretch of machine load, and the median of each time counts.  Writes one
JSON object: the machine, and per source and config the thread count,
every time of both kinds, their medians and the sha256 of the
report.json written, which must be the same in every round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
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


def _configs(threads=None):
    """Per recipe, then per workload, a list of (name, config): the config
    itself, or with a list of thread counts one NAME/tN entry per count."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]
    from recipes import _RECIPES
    from workloads import DEFAULT_SEEDS, make_config

    configs = [*_RECIPES.items(),
               *((key, make_config(key, seed)) for key, seed in DEFAULT_SEEDS.items())]
    for name, config in configs:
        if threads:
            yield [(f"{name}/t{n}", {**config, "threads": n}) for n in threads]
        else:
            yield [(name, config)]


def _timed_run(src: str, config: dict) -> tuple[float, float, str]:
    """Wall seconds of one `ustat experiment run` process importing ustatkit
    from src and of its CLI call, and the sha256 of the report.json it writes."""
    with tempfile.TemporaryDirectory() as wdir:
        config_path = os.path.join(wdir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = os.path.join(wdir, "out")
        timing_path = os.path.join(wdir, "timing.json")
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("USTAT_THREADS", None)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, timing_path, "experiment", "run",
             "--config", config_path, "--out", out],
            env=env, cwd=wdir, capture_output=True)
        wall = time.perf_counter() - start
        # 0 and 1 both write a report: a passed and a failed verdict
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"exit {proc.returncode}:\n{proc.stderr.decode()}")
        with open(timing_path, encoding="utf-8") as fh:
            cli_s = json.load(fh)["cli_s"]
        with open(os.path.join(out, "report.json"), "rb") as fh:
            return wall, cli_s, hashlib.sha256(fh.read()).hexdigest()


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
    parser.add_argument("--threads", type=int, action="append", metavar="N",
                        help="run every config at N threads (repeatable)")
    args = parser.parse_args(argv)

    import numpy

    results = {label: {} for label, _ in args.src}
    for group in _configs(args.threads):
        for name, config in group:
            for label, _ in args.src:
                results[label][name] = {
                    "threads": config.get("threads", 1), "wall_s": [], "cli_s": []}
        for _ in range(REPEATS):
            for name, config in group:
                for label, src in args.src:
                    wall, cli_s, digest = _timed_run(src, config)
                    entry = results[label][name]
                    entry["wall_s"].append(round(wall, 4))
                    entry["cli_s"].append(round(cli_s, 5))
                    if entry.setdefault("report_sha256", digest) != digest:
                        raise RuntimeError(f"{label} {name}: report changed between runs")
        for name, _ in group:
            for label, _ in args.src:
                entry = results[label][name]
                entry["median_wall_s"] = statistics.median(entry["wall_s"])
                entry["median_cli_s"] = statistics.median(entry["cli_s"])
                print(label, name, entry["median_wall_s"], entry["median_cli_s"], flush=True)

    ledger = {
        "machine": {
            "cpus": os.cpu_count(),
            "processor": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
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
