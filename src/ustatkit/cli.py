"""Command-line driver: evaluate statistics, certify kernels, run experiments.

Three subcommands share a JSON config convention:

  ustat compute    --config c.json            one statistic, JSON on stdout
  ustat decompose  --config c.json            degeneracy report, JSON on stdout
  ustat experiment run --config c.json --out d/   full experiment with outputs

Exit codes are CI-oriented: 0 success/pass, 1 experiment criteria failed,
2 usage or config error (the message names the offending field; a statistic
past the summand cap counts, since adding a `design`, or lowering the rate or
draw count of the one given, fixes it), and 3 an internal error (any other
exception, reported with its traceback).  Only parsing and validation
produce exit 2; an --out that is a file or lies under one is refused
before the experiment runs.  The experiment command writes manifest.json
first, then report.json and rows.csv; report.json carries no timestamps,
so identical (config, seed) runs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys
import traceback
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .harness import (
    ConfigError, ExperimentConfig, check_fields, config_field, kernel_space, nested_draws,
    require_finite, run_experiment,
)
from .hoeffding import check_degeneracy, project_degenerate_level
from .incomplete import SamplingDesign, draw_design, incomplete_ustat
from .kernels import Distribution, kernel_from_config, stream
from .spaces import BanachSpaceDescriptor, json_int
from .ustat import EvaluationBudgetError, complete_ustat

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


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(obj) -> str | None:
    """JSON text of a str, None, bool, int or float; None for anything else."""
    if isinstance(obj, int):
        return ("true" if obj else "false") if isinstance(obj, bool) else int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NONFINITE.get(text, text)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    return "null" if obj is None else None


_PLAIN = frozenset({str, int, float, bool, type(None)})


def _table_rows(items, indent: str) -> list[str] | None:
    """The JSON text of each row of a table at indent, or None if items
    is not one: a table is a list of dicts with one set of str keys, whose
    values are all plain str, int, float, bool or None."""
    first = items[0]
    if type(first) is not dict or not first:
        return None
    keys = first.keys()
    if (any(type(key) is not str for key in keys)
            or any(type(row) is not dict or row.keys() != keys for row in items)):
        return None
    names = sorted(keys)
    texts = []
    for key in names:
        column = [row[key] for row in items]
        kinds = set(map(type, column))
        if not kinds <= _PLAIN:
            return None
        # an all-float or all-int column skips _json_scalar's dispatch
        if kinds == {float}:
            texts.append([_NONFINITE.get(text, text) for text in map(float.__repr__, column)])
        else:
            texts.append(map(int.__repr__ if kinds == {int} else _json_scalar, column))
    inner = indent + "  "
    template = "{" + ",".join(
        f"\n{inner}" + encode_basestring_ascii(key).replace("%", "%%") + ": %s"
        for key in names) + f"\n{indent}}}"
    return [template % row for row in zip(*texts)]


def _dump_json(payload, fh) -> None:
    """Write payload and a newline to fh, byte for byte as
    json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n".

    json.dumps is this writer's oracle.  Its indented encoder is pure
    Python and would first need _jsonable's copy of the tree; this one
    converts numpy values where it meets them, writes a table of plain
    rows (_table_rows) one template per row, and hands fh its text every
    few thousand pieces, so a report is never held whole.
    """
    out = []

    def emit(obj, indent: str) -> None:
        text = _json_scalar(obj)
        if text is not None:
            out.append(text)
            return
        if isinstance(obj, np.ndarray):
            return emit(obj.tolist(), indent)
        for kind, cast in ((np.bool_, bool), (np.integer, int), (np.floating, float)):
            if isinstance(obj, kind):  # as _jsonable converts them
                return emit(cast(obj), indent)
        keyed = isinstance(obj, dict)
        if keyed:
            items = sorted(dict(zip(map(str, obj), obj.values())).items())
        elif isinstance(obj, (list, tuple)):
            items = obj
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        if not items:
            out.append("{}" if keyed else "[]")
            return
        inner = indent + "  "
        table = None if keyed else _table_rows(items, inner)
        if table is not None:
            out.append("[\n" + inner + (",\n" + inner).join(table) + "\n" + indent + "]")
            return
        sep = ("{\n" if keyed else "[\n") + inner
        for item in items:
            if keyed:
                key, item = item
                out.append(sep + encode_basestring_ascii(key) + ": ")
            else:
                out.append(sep)
            sep = ",\n" + inner
            emit(item, inner)
            if len(out) > 4096:
                fh.write("".join(out))
                out.clear()
        out.append("\n" + indent + ("}" if keyed else "]"))

    emit(payload, "")
    out.append("\n")
    fh.write("".join(out))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _dump_json(payload, fh)


@functools.cache
def _cell_text(kind: type):
    """The CSV text function of one value type.

    Floats are printed at 17 significant digits so float(text) recovers
    the exact binary value.
    """
    if issubclass(kind, (bool, np.bool_)):
        return lambda value: "true" if value else "false"
    if issubclass(kind, (int, np.integer)):
        return lambda value: int.__repr__(int(value))
    if issubclass(kind, (float, np.floating)):
        return lambda value: format(float(value), ".17g")
    return str


def _cell(value) -> str:
    return _cell_text(type(value))(value)


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


def _effective_seed(args, raw: dict) -> int:
    if args.seed is not None:
        return args.seed
    seed = config_field(raw, "seed", json_int, 0)
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed: must fit an unsigned 64-bit integer, got {seed}")
    return seed


# ---------------------------------------------------------------------------
# compute


def _load_sample(raw: dict, seed: int) -> np.ndarray:
    have = [key for key in ("data", "data_file", "distribution") if key in raw]
    if "data" in raw:
        return config_field(raw, "data", lambda data: np.asarray(data, dtype=np.float64).ravel())
    if "data_file" in raw:
        try:
            sample = np.loadtxt(raw["data_file"], delimiter=",", ndmin=1)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"data_file: {exc}") from exc
        return np.asarray(sample, dtype=np.float64).ravel()
    if "distribution" in raw:
        dist = config_field(raw, "distribution", Distribution.from_dict)
        n = config_field(raw, "n", json_int)
        if n < 0:
            raise ConfigError(f"n: must be nonnegative, got {n}")
        return dist.sample(stream(seed, "compute-sample"), n)
    raise ConfigError(
        "data: provide inline data, a data_file, or a distribution with n "
        f"(got {have or 'none of them'})"
    )


def cmd_compute(args) -> int:
    _, raw = _load_config(args.config)
    kernel = config_field(raw, "kernel", kernel_from_config)
    seed = _effective_seed(args, raw)
    sample = _load_sample(raw, seed)
    design = config_field(raw, "design", SamplingDesign.from_dict, None)
    check_fields(raw, {"kernel", "seed", "data", "data_file", "distribution", "n", "design"})

    try:
        if design is None:
            result = complete_ustat(kernel, sample)
        else:
            weights = draw_design(design, len(sample), kernel.arity, seed)
            result = incomplete_ustat(kernel, sample, weights)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except EvaluationBudgetError as exc:
        advice = ('add a "design" to the config' if design is None
                  else 'lower the design\'s "p_n" or "draws"')
        raise ConfigError(f"design: {exc} ({advice})") from exc

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
    kernel = config_field(raw, "kernel", kernel_from_config)
    dist = config_field(raw, "distribution", Distribution.from_dict)
    space = kernel_space(
        kernel, config_field(raw, "space", BanachSpaceDescriptor.from_dict, None))
    seed = _effective_seed(args, raw)
    inner = config_field(raw, "inner", nested_draws, 1024)
    outer = config_field(raw, "outer", nested_draws, 256)
    level = config_field(raw, "level", json_int, None)
    check_fields(raw, {"kernel", "distribution", "space", "seed", "inner", "outer", "level"})
    if level is not None and not kernel.symmetric:
        raise ConfigError("level: level projections need a symmetric kernel")

    try:
        report = check_degeneracy(kernel, dist, inner=inner, outer=outer,
                                  seed=seed, space=space)
    except ValueError as exc:
        raise ConfigError(f"kernel: {exc}") from exc
    require_finite(report)
    payload = report.to_dict()

    if level is not None:
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

    _dump_json(payload, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# experiment


def _check_out_dir(out: str) -> None:
    """Refuse an output directory that is a file or lies under one.

    Nothing is created, so a config error still leaves no directory.
    """
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out: {path} exists and is not a directory")


def cmd_experiment(args) -> int:
    blob, raw = _load_config(args.config)
    if args.out is None:
        raise ConfigError("--out: an output directory is required")
    _check_out_dir(args.out)
    config = ExperimentConfig.from_dict(raw)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.replications is not None:
        overrides["replications"] = args.replications
        overrides["moment_replications"] = args.replications
    if overrides:
        config = dataclasses.replace(config, **overrides)

    started = _utcnow()
    report = run_experiment(config)

    os.makedirs(args.out, exist_ok=True)
    manifest = RunManifest(
        config_sha256=hashlib.sha256(blob).hexdigest(),
        master_seed=config.seed,
        version=__version__,
        started_at=started,
        written_at=_utcnow(),
        outputs=("report.json", "rows.csv"),
    )
    _write_json(os.path.join(args.out, "manifest.json"), manifest.to_dict())
    _write_json(os.path.join(args.out, "report.json"), report.to_dict())
    _write_csv(os.path.join(args.out, "rows.csv"), report.rows)

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
