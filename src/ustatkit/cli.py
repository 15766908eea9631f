"""Command-line driver: evaluate statistics, certify kernels, run experiments.

Three subcommands share a JSON config convention:

  ustat compute    --config c.json            one statistic, JSON on stdout
  ustat decompose  --config c.json            degeneracy report, JSON on stdout
  ustat experiment run --config c.json --out d/   full experiment with outputs

Exit codes are CI-oriented: 0 success/pass, 1 experiment criteria failed,
2 usage or config error (the message names the offending field; a complete
statistic past the summand cap counts, since a `design` fixes it), and 3 an
internal error (any other exception, reported with its traceback).  Only
parsing and validation produce exit 2.  The
experiment command writes manifest.json first, then report.json and the grid
CSVs; report.json carries no timestamps, so identical (config, seed) runs
produce byte-identical reports regardless of --threads.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import traceback
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .harness import ConfigError, ExperimentConfig, run_experiment
from .hoeffding import check_degeneracy, project_degenerate_level
from .incomplete import SamplingDesign, draw_design, incomplete_ustat
from .kernels import Distribution, kernel_from_config, stream
from .spaces import BanachSpaceDescriptor
from .ustat import EvaluationBudgetError, complete_ustat
from ._parallel import resolve_threads

__all__ = ["main"]


# ---------------------------------------------------------------------------
# plumbing


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


def _u64(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from exc
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("value must be at least 1")
    return value


def _load_config(path: str | None) -> tuple[bytes, dict]:
    if path is None:
        raise ConfigError("--config: a config file is required")
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"--config: {exc}") from exc
    try:
        parsed = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--config: not valid JSON ({exc})") from exc
    if not isinstance(parsed, dict):
        raise ConfigError("--config: expected a JSON object at the top level")
    return blob, parsed


def _jsonable(obj):
    """Replace numpy scalars/arrays so json.dumps emits plain Python values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    # floats are printed at 17 significant digits so float(text) recovers
    # the exact binary value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: str, rows: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if not rows:
            return
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row.get(key)) for key in header])


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Provenance stamp written to the output directory before any result."""

    config_sha256: str
    master_seed: int
    version: str
    started_at: str
    written_at: str
    outputs: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "config_sha256": self.config_sha256,
            "master_seed": self.master_seed,
            "version": self.version,
            "started_at": self.started_at,
            "written_at": self.written_at,
            "outputs": list(self.outputs),
        }


def _parse_kernel(raw: dict):
    if "kernel" not in raw:
        raise ConfigError("kernel: missing")
    try:
        return kernel_from_config(raw["kernel"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"kernel: {exc}") from exc


def _parse_distribution(raw: dict) -> Distribution:
    if "distribution" not in raw:
        raise ConfigError("distribution: missing")
    try:
        return Distribution.from_dict(raw["distribution"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"distribution: {exc}") from exc


def _parse_space(raw: dict) -> BanachSpaceDescriptor | None:
    if raw.get("space") is None:
        return None
    try:
        return BanachSpaceDescriptor.from_dict(raw["space"])
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"space: {exc}") from exc


def _int_field(raw: dict, key: str, default=None) -> int:
    try:
        return int(raw.get(key, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _effective_seed(args, raw: dict) -> int:
    if args.seed is not None:
        return args.seed
    seed = raw.get("seed", 0)
    try:
        seed = int(seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"seed: {exc}") from exc
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed: must fit an unsigned 64-bit integer, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# compute


def _load_sample(raw: dict, seed: int) -> np.ndarray:
    have = [key for key in ("data", "data_file", "distribution") if key in raw]
    if "data" in raw:
        try:
            sample = np.asarray(raw["data"], dtype=np.float64).ravel()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"data: {exc}") from exc
        return sample
    if "data_file" in raw:
        try:
            sample = np.loadtxt(raw["data_file"], delimiter=",", ndmin=1)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"data_file: {exc}") from exc
        return np.asarray(sample, dtype=np.float64).ravel()
    if "distribution" in raw:
        if "n" not in raw:
            raise ConfigError("n: required when sampling from a distribution")
        dist = _parse_distribution(raw)
        n = _int_field(raw, "n")
        if n < 0:
            raise ConfigError(f"n: must be nonnegative, got {n}")
        return dist.sample(stream(seed, "compute-sample"), n)
    raise ConfigError(
        "data: provide inline data, a data_file, or a distribution with n "
        f"(got {have or 'none of them'})"
    )


def cmd_compute(args) -> int:
    _, raw = _load_config(args.config)
    kernel = _parse_kernel(raw)
    seed = _effective_seed(args, raw)
    resolve_threads(args.threads)  # validates the flag even though compute is serial
    sample = _load_sample(raw, seed)

    design = None
    if raw.get("design") is not None:
        try:
            design = SamplingDesign.from_dict(raw["design"])
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"design: {exc}") from exc

    try:
        if design is None:
            result = complete_ustat(kernel, sample)
        else:
            weights = draw_design(design, len(sample), kernel.arity, seed)
            result = incomplete_ustat(kernel, sample, weights)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except EvaluationBudgetError as exc:
        raise ConfigError(f'design: {exc} (add a "design" to the config)') from exc

    payload = {
        "value": result.value,
        "n": result.n,
        "m": result.m,
        "terms": result.terms,
        "total_weight": result.total_weight,
    }
    if design is not None:
        payload["design"] = design.to_dict()
    print(json.dumps(_jsonable(payload), sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
    _, raw = _load_config(args.config)
    kernel = _parse_kernel(raw)
    dist = _parse_distribution(raw)
    space = _parse_space(raw)
    seed = _effective_seed(args, raw)
    resolve_threads(args.threads)
    inner = _int_field(raw, "inner", 1024)
    outer = _int_field(raw, "outer", 256)

    try:
        report = check_degeneracy(kernel, dist, inner=inner, outer=outer,
                                  seed=seed, space=space)
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}") from exc
    payload = report.to_dict()

    if raw.get("level") is not None:
        level = _int_field(raw, "level")
        if not kernel.symmetric:
            raise ConfigError("level: level projections need a symmetric kernel")
        try:
            component = project_degenerate_level(kernel, level, dist,
                                                 inner=inner, seed=seed)
        except ValueError as exc:
            raise ConfigError(f"level: {exc}") from exc
        payload["level_component"] = {
            "level": level,
            "arity": component.arity,
            "exact": component.exact,
        }

    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# experiment


def cmd_experiment(args) -> int:
    blob, raw = _load_config(args.config)
    if args.out is None:
        raise ConfigError("--out: an output directory is required")
    config = ExperimentConfig.from_dict(raw)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.threads is not None:
        overrides["threads"] = args.threads
    if args.replications is not None:
        overrides["replications"] = args.replications
        overrides["moment_replications"] = args.replications
    if overrides:
        config = dataclasses.replace(config, **overrides)

    started = _utcnow()
    report = run_experiment(config)

    os.makedirs(args.out, exist_ok=True)
    extra_csv: dict[str, list] = {}
    if report.kind == "holder":
        extra_csv["cells.csv"] = report.details.get("cells", [])
        extra_csv["layer_sums.csv"] = report.details.get("layer_sums", [])
        extra_csv["quantiles.csv"] = report.details.get("quantiles", [])
    outputs = ("report.json", "rows.csv", *extra_csv)

    manifest = RunManifest(
        config_sha256=hashlib.sha256(blob).hexdigest(),
        master_seed=config.seed,
        version=__version__,
        started_at=started,
        written_at=_utcnow(),
        outputs=outputs,
    )
    _write_json(os.path.join(args.out, "manifest.json"), manifest.to_dict())
    _write_json(os.path.join(args.out, "report.json"), report.to_dict())
    _write_csv(os.path.join(args.out, "rows.csv"), report.rows)
    for name, rows in extra_csv.items():
        _write_csv(os.path.join(args.out, name), rows)

    status = "PASS" if report.passed else "FAIL"
    print(f"{report.kind}: {status} fitted_constant={report.fitted_constant:.6g} "
          f"stability={report.stability:.6g} report={os.path.join(args.out, 'report.json')}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ustat",
        description="U-statistic evaluation, Hoeffding certification, and "
                    "inequality experiments",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        sp.add_argument("--seed", metavar="U64", type=_u64, default=None,
                        help="master seed (default: config value, then 0)")
        sp.add_argument("--threads", metavar="N", type=_positive_int, default=None,
                        help="worker threads (default: USTAT_THREADS, then 1)")

    sp = sub.add_parser("compute", help="evaluate one statistic")
    common(sp)
    sp.set_defaults(func=cmd_compute)

    sp = sub.add_parser("decompose", help="degeneracy certification report")
    common(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("experiment", help="run an inequality experiment")
    sp.add_argument("action", choices=["run"], help="experiment action")
    common(sp)
    sp.add_argument("--out", metavar="DIR", help="output directory")
    sp.add_argument("--replications", metavar="N", type=_positive_int,
                    default=None, help="override replication counts")
    sp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EvaluationBudgetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
