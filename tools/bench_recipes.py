"""Time `ustat experiment run` on every acceptance recipe and benchmark workload.

    python3 tools/bench_recipes.py --src parent=OLD/src --src change=src --out BENCH.json

Each `--src [LABEL=]DIR` names a directory that holds the ustatkit
package (the `src` directory of a checkout); LABEL defaults to DIR.  The
configs come from this checkout: every recipe in tests/recipes.py and
every workload in perfbench/workloads.py (read only) at its default seed,
each at its own thread count (one where it names none).  Every run is a
fresh process, so a time includes interpreter start-up and imports.  The
runs of one config alternate between the sources, REPEATS rounds, and
the best wall time of each counts.  Writes one JSON object: the machine,
and per source and config the thread count, every wall time, the best
one and the sha256 of the report.json written, which must be the same in
every round.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Rounds per config and source; the best wall time of each counts.
REPEATS = 3


def _configs():
    """(name, config) of every recipe, then every workload."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(ROOT, "tests"), os.path.join(ROOT, "perfbench")]
    from recipes import _RECIPES
    from workloads import DEFAULT_SEEDS, make_config

    yield from _RECIPES.items()
    for key, seed in DEFAULT_SEEDS.items():
        yield key, make_config(key, seed)


def _timed_run(src: str, config: dict) -> tuple[float, str]:
    """Wall seconds of one `ustat experiment run` importing ustatkit from src,
    and the sha256 of the report.json it writes."""
    with tempfile.TemporaryDirectory() as wdir:
        config_path = os.path.join(wdir, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out = os.path.join(wdir, "out")
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("USTAT_THREADS", None)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ustatkit.cli", "experiment", "run",
             "--config", config_path, "--out", out],
            env=env, cwd=wdir, capture_output=True)
        wall = time.perf_counter() - start
        # 0 and 1 both write a report: a passed and a failed verdict
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"exit {proc.returncode}:\n{proc.stderr.decode()}")
        with open(os.path.join(out, "report.json"), "rb") as fh:
            return wall, hashlib.sha256(fh.read()).hexdigest()


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
    for name, config in _configs():
        for label, _ in args.src:
            results[label][name] = {"threads": config.get("threads", 1), "wall_s": []}
        for _ in range(REPEATS):
            for label, src in args.src:
                wall, digest = _timed_run(src, config)
                entry = results[label][name]
                entry["wall_s"].append(round(wall, 4))
                if entry.setdefault("report_sha256", digest) != digest:
                    raise RuntimeError(f"{label} {name}: report changed between runs")
        for label, _ in args.src:
            entry = results[label][name]
            entry["best_s"] = min(entry["wall_s"])
            print(label, name, entry["best_s"], flush=True)

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
