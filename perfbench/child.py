"""One `ustat experiment run`, launched by run.py as a fresh process.

    python3 child.py MODE CONFIG OUT TIMING

MODE is `probe` (import ustatkit, build the ExperimentConfig, stop),
`run` (then run the experiment through the CLI) or `trace` (the same with
every layer traced; the spans go to OUT/../trace.npz).  TIMING receives a
JSON object with the CLOCK_MONOTONIC instant at which set-up ended, the
wall time of the CLI call, its exit code and this process's peak resident
set size.  ustatkit is imported from the `src` directory of the checkout
that holds this file, never from an installed copy.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _peak_rss_kb() -> int:
    # VmHWM covers this program only; the rusage of a spawned child also
    # counts the parent's memory it was started from
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    mode, config_path, out, timing_path = sys.argv[1:5]
    sys.path.insert(0, SRC)
    import ustatkit
    from ustatkit import cli
    from ustatkit.harness import ExperimentConfig

    if not os.path.abspath(ustatkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ustatkit imported from {ustatkit.__file__}, not {SRC}")
    with open(config_path, encoding="utf-8") as fh:
        ExperimentConfig.from_dict(json.load(fh))
    setup_done = time.clock_gettime(time.CLOCK_MONOTONIC)

    timing = {"setup_done": setup_done}
    if mode != "probe":
        argv = ["experiment", "run", "--config", config_path, "--out", out]
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            start = time.perf_counter()
            code = tracer.root(cli.main, argv)
            timing["wall_s"] = time.perf_counter() - start
            tracer.dump(os.path.join(os.path.dirname(out), "trace.npz"))
        else:
            start = time.perf_counter()
            code = cli.main(argv)
            timing["wall_s"] = time.perf_counter() - start
        timing["exit"] = code
    timing["peak_rss_kb"] = _peak_rss_kb()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return timing.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main())
