"""Benchmark of `ustat experiment run` on four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload is a series of
`ustat experiment run` invocations, each a fresh child process
(perfbench/child.py) started after the previous one has ended, with
ustatkit imported from the checkout's `src`.  Rounds of invocations go on
until --seconds have passed (at least three rounds untraced, one traced).
Every report is checked against values computed apart from the program
(checks.py) and must be byte-identical to the run's first report.

With --trace 0 the end-to-end metrics are printed (medians over the run):
wall_s, cpu_s, setup_s, peak_rss_mb.  With --trace 1 each round is one
untraced and one traced invocation, and the per-layer metrics of the
traced ones are printed (tracing.py) with the tracing overhead.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Outputs go to perfbench/_runs/<workload>.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import tracing
from workloads import DEFAULT_SEEDS, WORKLOADS, make_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RUNS = os.path.join(HERE, "_runs")
PROBES = 4  # set-up-only launches per run, after one untimed warm-up launch
MIN_ROUNDS = {False: 3, True: 1}
CHILD_LIMIT_S = 170.0  # a child still running after this is killed
RUN_LIMIT_S = 120.0  # no new round starts after this


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    # the program sees only the config: no inherited import path or threads
    env.pop("PYTHONPATH", None)
    env.pop("USTAT_THREADS", None)
    return env


def launch(mode: str, wdir: str) -> dict:
    """One child process; its timings, resource usage and exit code."""
    out = os.path.join(wdir, "out")
    timing_path = os.path.join(wdir, "timing.json")
    shutil.rmtree(out, ignore_errors=True)
    if os.path.exists(timing_path):
        os.remove(timing_path)
    with open(os.path.join(wdir, f"{mode}.log"), "w") as log:
        start = _clock()
        proc = subprocess.Popen(
            [sys.executable, CHILD, mode, os.path.join(wdir, "config.json"), out, timing_path],
            stdout=log, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = {"mode": mode, "exit": proc.returncode,
          "cpu_s": usage.ru_utime + usage.ru_stime}
    if proc.returncode == 0 and os.path.exists(timing_path):
        with open(timing_path) as fh:
            timing = json.load(fh)
        op["setup_s"] = timing["setup_done"] - start
        op["peak_rss_mb"] = timing["peak_rss_kb"] / 1024.0
        if "wall_s" in timing:
            op["wall_s"] = timing["wall_s"]
    return op


def _outputs_written(out: str) -> bool:
    return all(os.path.exists(os.path.join(out, f))
               for f in ("manifest.json", "report.json", "rows.csv"))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 threads: int | None = None) -> dict:
    """Run one workload; returns the result object of the last output line."""
    wdir = os.path.join(RUNS, name)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    config = make_config(name, seed)
    if threads is not None:
        config["threads"] = threads
    with open(os.path.join(wdir, "config.json"), "w") as fh:
        json.dump(config, fh, indent=2)

    if launch("probe", wdir)["exit"] != 0:  # warm-up: page cache, bytecode cache
        raise SystemExit(f"{name}: the set-up probe failed; see {wdir}/probe.log")
    setups = []
    for _ in range(PROBES):
        probe = launch("probe", wdir)
        if probe["exit"] != 0:
            raise SystemExit(f"{name}: the set-up probe failed; see {wdir}/probe.log")
        setups.append(probe["setup_s"])

    modes = ["run", "trace"] if trace else ["run"]
    ops, problems, layer_runs = [], [], []
    first_report = None
    start = _clock()
    rounds = 0
    while True:
        for mode in modes:
            op = launch(mode, wdir)
            ops.append(op)
            out = os.path.join(wdir, "out")
            if op["exit"] != 0 or "wall_s" not in op or not _outputs_written(out):
                op["failed"] = True
                print(f"{name} {mode} #{len(ops)}: failed with exit {op['exit']}; "
                      f"see {wdir}/{mode}.log")
                continue
            with open(os.path.join(out, "report.json"), "rb") as fh:
                blob = fh.read()
            if first_report is None:
                first_report = blob
                problems += checks.check(name, config, json.loads(blob))
            elif blob != first_report:
                problems.append(f"{mode} #{len(ops)}: report.json differs from the first")
            if mode == "trace":
                layer_runs.append(tracing.derive(os.path.join(wdir, "trace.npz")))
            setups.append(op["setup_s"])
            print(f"{name} {mode} #{len(ops)}: wall_s={op['wall_s']:.4f} "
                  f"cpu_s={op['cpu_s']:.4f} setup_s={op['setup_s']:.4f} "
                  f"peak_rss_mb={op['peak_rss_mb']:.1f}")
        rounds += 1
        elapsed = _clock() - start
        if elapsed > RUN_LIMIT_S or (
                rounds >= MIN_ROUNDS[trace] and elapsed * (rounds + 1) / rounds > seconds):
            break

    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}")
    done = [op for op in ops if not op.get("failed")]
    untraced = [op for op in done if op["mode"] == "run"]
    failed = len(ops) - len(done)

    def median(key, which=untraced):
        return statistics.median(op[key] for op in which)

    metrics = {}
    if trace and layer_runs:
        for key, (_, unit) in layer_runs[0].items():
            metrics[key] = (statistics.median(run[key][0] for run in layer_runs), unit)
        wall = median("wall_s")
        traced_wall = median("wall_s", [op for op in done if op["mode"] == "trace"])
        metrics["trace.untraced_wall_s"] = (wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
    elif untraced:
        metrics = {
            "wall_s": (median("wall_s"), "s"),
            "cpu_s": (median("cpu_s"), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (median("peak_rss_mb"), "MiB"),
        }
    print(f"{name}: seed={seed} attempted={len(ops)} failed={failed} "
          f"correct={str(not problems).lower()}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="how long each workload's run measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="override the workloads' thread count, for comparisons")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "ustatkit", "__init__.py")):
        raise SystemExit(f"no ustatkit sources under {ROOT}/src; run from a checkout")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        seed = args.seed if args.seed is not None else DEFAULT_SEEDS[name]
        results[name] = run_workload(name, seed, args.seconds, bool(args.trace), args.threads)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
