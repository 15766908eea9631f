"""Command-line interface: exit codes, outputs, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import ustatkit
from ustatkit.cli import _cell, _dump_json, _jsonable, _write_csv, _write_json, main
from ustatkit.kernels import builtin_kernel
from ustatkit.ustat import complete_ustat


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute


def test_compute_inline_data(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
        "data": [1, -1, 2],
    })
    code, out, _ = run(["compute", "--config", cfg], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == -1.0
    assert payload["n"] == 3 and payload["m"] == 2 and payload["terms"] == 3


def test_compute_missing_kernel_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"data": [1, 2, 3]})
    code, _, err = run(["compute", "--config", cfg], capsys)
    assert code == 2
    assert "kernel" in err


def test_compute_missing_config_exits_2(capsys):
    code, _, err = run(["compute"], capsys)
    assert code == 2
    assert "--config" in err


def test_compute_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code, _, err = run(["compute", "--config", str(path)], capsys)
    assert code == 2


def test_compute_from_distribution(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
        "distribution": {"family": "rademacher"},
        "n": 12,
        "seed": 5,
    })
    code, out, _ = run(["compute", "--config", cfg], capsys)
    assert code == 0
    first = json.loads(out)
    code, out, _ = run(["compute", "--config", cfg], capsys)
    assert json.loads(out) == first  # same seed, same sample


def test_compute_from_data_file(tmp_path, capsys):
    data = tmp_path / "xs.csv"
    data.write_text("1.0\n-1.0\n2.0\n")
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
        "data_file": str(data),
    })
    code, out, _ = run(["compute", "--config", cfg], capsys)
    assert code == 0
    assert json.loads(out)["value"] == -1.0


def test_compute_no_data_source_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
    })
    code, _, err = run(["compute", "--config", cfg], capsys)
    assert code == 2
    assert "data" in err


def test_compute_full_bernoulli_equals_complete(tmp_path, capsys):
    sample = [0.3, -1.2, 0.7, 2.0, -0.4, 1.1]
    base = {
        "kernel": {"name": "product", "m": 2},
        "data": sample,
    }
    cfg_complete = write_config(tmp_path, "a.json", base)
    cfg_design = write_config(tmp_path, "b.json", {
        **base, "design": {"variant": "bernoulli", "p_n": 1.0},
    })
    _, out_a, _ = run(["compute", "--config", cfg_complete], capsys)
    _, out_b, _ = run(["compute", "--config", cfg_design], capsys)
    va = json.loads(out_a)["value"]
    vb = json.loads(out_b)["value"]
    assert va == vb  # bit-identical, not merely close
    want = complete_ustat(builtin_kernel("product", 2), np.asarray(sample)).value
    assert va == want


def test_compute_incomplete_reports_design(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
        "data": [1.0, 2.0, 3.0, 4.0],
        "design": {"variant": "without_replacement", "draws": 3},
        "seed": 9,
    })
    code, out, _ = run(["compute", "--config", cfg], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["design"]["draws"] == 3
    assert payload["terms"] == 3


# ---------------------------------------------------------------------------
# decompose


def test_decompose_product_order(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
        "distribution": {"family": "rademacher"},
    })
    code, out, _ = run(["decompose", "--config", cfg], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["degenerate"] is True
    assert payload["order"] == 2


def test_decompose_sum_order_one(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "sum", "m": 3},
        "distribution": {"family": "rademacher"},
    })
    code, out, _ = run(["decompose", "--config", cfg], capsys)
    payload = json.loads(out)
    assert payload["degenerate"] is False
    assert payload["order"] == 1


def test_decompose_level_component(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
        "distribution": {"family": "rademacher"},
        "level": 1,
    })
    code, out, _ = run(["decompose", "--config", cfg], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["level_component"]["level"] == 1
    assert payload["level_component"]["exact"] is True


@pytest.mark.parametrize("distribution", [{"family": "rademacher"}, {"family": "gaussian"}])
def test_decompose_constant_kernel(tmp_path, capsys, distribution):
    # the body returns one scalar for a whole batch of points
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"expr": "1", "m": 2, "symmetric": True},
        "distribution": distribution, "inner": 256, "outer": 64,
    })
    code, out, err = run(["decompose", "--config", cfg], capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["scale"] == 1.0
    assert payload["degenerate"] is False
    assert payload["order"] == 0


def test_decompose_level_nonsymmetric_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "sign", "m": 2},
        "distribution": {"family": "rademacher"},
        "level": 1,
    })
    code, _, err = run(["decompose", "--config", cfg], capsys)
    assert code == 2
    assert "level" in err


# ---------------------------------------------------------------------------
# experiment


EXP_CONFIG = {
    "kernel": {"name": "product", "m": 2},
    "distribution": {"family": "rademacher"},
    "experiment": "deviation",
    "p": 2.0,
    "n_grid": [8, 16],
    "replications": 120,
    "seed": 7,
}


def test_experiment_run_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", EXP_CONFIG)
    out_dir = tmp_path / "out"
    code, out, _ = run(["experiment", "run", "--config", cfg,
                        "--out", str(out_dir)], capsys)
    assert code == 0
    assert "deviation" in out and "PASS" in out

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["master_seed"] == 7
    assert set(manifest["outputs"]) == {"report.json", "rows.csv"}
    for name in manifest["outputs"]:
        assert (out_dir / name).exists()
    assert len(manifest["config_sha256"]) == 64

    report = json.loads((out_dir / "report.json").read_text())
    assert report["kind"] == "deviation"
    assert report["passed"] is True
    # no timestamps anywhere in the report
    assert "started_at" not in report and "written_at" not in report


def test_experiment_missing_out_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", EXP_CONFIG)
    code, _, err = run(["experiment", "run", "--config", cfg], capsys)
    assert code == 2
    assert "--out" in err


def test_experiment_unknown_name_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", {**EXP_CONFIG, "experiment": "zeppelin"})
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "experiment" in err


def test_experiment_bad_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", {**EXP_CONFIG, "n_grid": [16, 8]})
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "n_grid" in err


def test_experiment_nan_threshold_exits_2(tmp_path, capsys):
    # json writes NaN as the bare token NaN, which json.loads reads back
    cfg = write_config(tmp_path, "e.json", {**EXP_CONFIG, "t_grid": [math.nan]})
    out_dir = tmp_path / "o"
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(out_dir)], capsys)
    assert code == 2
    assert "t_grid" in err
    assert not out_dir.exists()


def test_experiment_inconclusive_certification_names_the_blocking_entry(tmp_path, capsys):
    # the product kernel on Gaussian data at seed 99 leaves all-but-0
    # inconclusive at the default 1024/256 budgets
    cfg = write_config(tmp_path, "e.json", {**EXP_CONFIG, "seed": 99,
                                            "distribution": {"family": "gaussian"}})
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "certifies inconclusive: all-but-0 has squared_statistic" in err
    assert "squared_se" in err and "scale" in err and "inner=1024, outer=256" in err


def test_experiment_vanishing_kernel_has_no_degeneracy_order(tmp_path, capsys):
    # every prefix level of the zero kernel is exactly zero on a finite law,
    # so no budget makes it certify: the message must not ask for one
    cfg = write_config(tmp_path, "e.json", {
        **EXP_CONFIG, "experiment": "order-d-deviation", "d": 2,
        "kernel": {"expr": "0 * x1 * x2", "m": 2, "symmetric": True}})
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "no degeneracy order: every prefix level certifies zero" in err
    assert "inconclusive" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family", ["rademacher", "gaussian"])
@pytest.mark.parametrize("expr", ["x1 * x2 / (x1 - x1)", "x1 * x2 * 1e308 * 1e308"])
@pytest.mark.parametrize("kind", [{"experiment": "deviation"},
                                  {"experiment": "order-d-deviation", "d": 2}])
def test_experiment_non_finite_kernel_is_named_as_such(tmp_path, capsys, family, expr,
                                                       kind):
    # without the check, Rademacher data read "not degenerate" (or "order
    # 0") and Gaussian data "certifies inconclusive ... raise inner/outer"
    cfg = write_config(tmp_path, "e.json", {
        **EXP_CONFIG, **kind, "kernel": {"expr": expr, "m": 2, "symmetric": True},
        "distribution": {"family": family}})
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "kernel: the kernel is not finite under the law: all-but-0 has" in err
    assert "degenera" not in err and "inconclusive" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("family", ["rademacher", "gaussian"])
@pytest.mark.parametrize("expr", ["x1 * x2 / (x1 - x1)", "x1 * x2 * 1e308 * 1e308"])
def test_decompose_refuses_a_non_finite_kernel_as_experiment_does(tmp_path, capsys, family,
                                                                 expr):
    # decompose printed bare NaN, which is not JSON, and exited 0
    law = {"kernel": {"expr": expr, "m": 2, "symmetric": True},
           "distribution": {"family": family}}
    cfg = write_config(tmp_path, "d.json", law)
    code, out, err = run(["decompose", "--config", cfg], capsys)
    assert code == 2 and out == ""
    assert "kernel: the kernel is not finite under the law: all-but-0 has" in err
    cfg = write_config(tmp_path, "e.json", {**EXP_CONFIG, "experiment": "deviation", **law})
    assert run(["experiment", "run", "--config", cfg, "--out", str(tmp_path / "o")],
               capsys) == (2, "", err)


# One config of each experiment kind; deviation and order-d-deviation
# build the automatic t-grid, lln with alpha the default eps.
_KIND_CONFIGS = {
    "deviation-auto": {"experiment": "deviation", "n_grid": [8, 16], "replications": 200},
    "lln": {"experiment": "lln", "p": 1.5, "n_grid": [16, 32], "replications": 50},
    "lln-alpha": {"experiment": "lln", "p": 1.5, "alpha": 0.25, "n_grid": [16, 32],
                  "replications": 50},
    "holder": {"experiment": "holder", "alpha": 0.3, "d": 2, "n_grid": [64],
               "replications": 20},
    "moment": {"experiment": "moment", "p": 1.5, "n_grid": [8, 16],
               "moment_replications": 50},
    "order-d": {"experiment": "order-d-deviation", "d": 2, "n_grid": [8, 16],
                "replications": 100},
    "incomplete-moment": {"experiment": "incomplete-moment", "d": 2, "p": 2.0, "q": 2.0,
                          "grid": [[32, 1 / 32]], "moment_replications": 50},
}


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(args, blas_env=None):
    """A fresh interpreter run with args, importing ustatkit from this
    checkout, with none of the BLAS thread variables but those in blas_env."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ustatkit.__file__)))
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    env.update(blas_env or {}, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("kind", sorted(_KIND_CONFIGS))
def test_experiment_run_does_not_import_numpy_ma(tmp_path, kind):
    # importing numpy.ma takes 8-17 ms, a quarter of a short run; pytest
    # and Hypothesis may import it themselves, so the run gets its own process
    cfg = write_config(tmp_path, "e.json", {
        "kernel": {"name": "product", "m": 2}, "distribution": {"family": "rademacher"},
        "seed": 3, **_KIND_CONFIGS[kind]})
    script = ("import sys; from ustatkit.cli import main; code = main(sys.argv[1:]); "
              "print(code, 'numpy.ma' in sys.modules)")
    proc = _fresh_python(["-c", script, "experiment", "run", "--config", cfg,
                          "--out", str(tmp_path / "o")])
    assert proc.stdout.split()[-2:] == ["0", "False"], proc.stdout + proc.stderr


def test_import_loads_numpy_with_a_one_thread_blas():
    # a meta-path finder reads the variable as numpy's import begins
    script = (
        "import os, sys\n"
        "seen = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy':\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Spy())\n"
        "import ustatkit\n"
        "print(seen, os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    proc = _fresh_python(["-c", script])
    assert proc.stdout.split() == ["['1']", "1"], proc.stdout + proc.stderr


@pytest.mark.parametrize("name", _BLAS_THREAD_VARIABLES)
def test_import_leaves_a_chosen_blas_thread_count_alone(name):
    script = ("import os, ustatkit; "
              f"print(sorted(k + '=' + os.environ[k] for k in {_BLAS_THREAD_VARIABLES!r} "
              "if k in os.environ))")
    proc = _fresh_python(["-c", script], {name: "2"})
    assert proc.stdout.strip() == repr([f"{name}=2"]), proc.stdout + proc.stderr


def test_import_after_numpy_leaves_the_environment_alone():
    script = ("import os; before = dict(os.environ); import numpy, ustatkit; "
              "print(dict(os.environ) == before)")
    proc = _fresh_python(["-c", script])
    assert proc.stdout.strip() == "True", proc.stdout + proc.stderr


def test_experiment_report_bytes_do_not_follow_the_blas_thread_count(tmp_path):
    # the bound's tails.norm_moment ends in a dot over 65,536 Gaussian
    # draws, which a multi-threaded BLAS splits by the machine's core count
    cfg = write_config(tmp_path, "e.json", {
        "kernel": {"name": "product", "m": 2}, "distribution": {"family": "gaussian"},
        "experiment": "deviation", "n_grid": [8], "replications": 100, "seed": 5})
    reports = []
    for tag, blas_env in (("unset", None), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / tag
        proc = _fresh_python(["-m", "ustatkit.cli", "experiment", "run",
                              "--config", cfg, "--out", str(out)], blas_env)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_experiment_reports_identical_across_runs_and_threads(tmp_path, capsys):
    texts = []
    for tag, threads in (("a", 1), ("b", 8), ("c", 3)):
        cfg = write_config(tmp_path, f"{tag}.json", {**EXP_CONFIG, "threads": threads})
        out_dir = tmp_path / tag
        code, _, _ = run(["experiment", "run", "--config", cfg,
                          "--out", str(out_dir)], capsys)
        assert code == 0
        texts.append((out_dir / "report.json").read_text()
                     + (out_dir / "rows.csv").read_text())
    assert texts[0] == texts[1] == texts[2]


def test_experiment_seed_override_changes_report(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", EXP_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(["experiment", "run", "--config", cfg, "--out", str(out_a)], capsys)
    run(["experiment", "run", "--config", cfg, "--out", str(out_b),
         "--seed", "12345"], capsys)
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    assert rep_a["rows"] != rep_b["rows"]
    man_b = json.loads((out_b / "manifest.json").read_text())
    assert man_b["master_seed"] == 12345


def test_experiment_replications_override(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", EXP_CONFIG)
    out_dir = tmp_path / "o"
    code, _, _ = run(["experiment", "run", "--config", cfg,
                      "--out", str(out_dir), "--replications", "40"], capsys)
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["details"]["replications"] == 40


def test_experiment_csv_floats_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", EXP_CONFIG)
    out_dir = tmp_path / "o"
    run(["experiment", "run", "--config", cfg, "--out", str(out_dir)], capsys)
    report = json.loads((out_dir / "report.json").read_text())
    with open(out_dir / "rows.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report["rows"])
    for got, want in zip(rows, report["rows"]):
        for key, val in want.items():
            if isinstance(val, float):
                assert float(got[key]) == val  # 17 digits recover the bits
            else:
                assert got[key] == str(val)


def test_experiment_holder_extra_csvs(tmp_path, capsys):
    cfg = write_config(tmp_path, "h.json", {
        "kernel": {"name": "product", "m": 2},
        "distribution": {"family": "rademacher"},
        "experiment": "holder",
        "alpha": 0.3,
        "d": 2,
        "n_grid": [32, 64],
        "replications": 40,
        "seed": 3,
    })
    out_dir = tmp_path / "o"
    code, _, _ = run(["experiment", "run", "--config", cfg,
                      "--out", str(out_dir)], capsys)
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    # the holder tables are written once, under the report's details
    assert manifest["outputs"] == ["report.json", "rows.csv"]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "manifest.json", "report.json", "rows.csv"]
    details = json.loads((out_dir / "report.json").read_text())["details"]
    assert list(details["cells"][0]) == ["frequency", "high", "j", "k", "low"]
    assert details["layer_sums"] and details["quantiles"]


def test_experiment_failing_report_exits_1(tmp_path, capsys):
    # an absurd stability factor forces FAIL while the run itself succeeds
    cfg = write_config(tmp_path, "e.json", {
        **EXP_CONFIG, "stability_factor": 1e-9,
    })
    out_dir = tmp_path / "o"
    code, out, _ = run(["experiment", "run", "--config", cfg,
                        "--out", str(out_dir)], capsys)
    assert code == 1
    assert "FAIL" in out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["passed"] is False


# ---------------------------------------------------------------------------
# flags


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "ustat" in out


def test_bad_seed_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2}, "data": [1, 2, 3]})
    with pytest.raises(SystemExit):
        main(["compute", "--config", cfg, "--seed", "-3"])
    with pytest.raises(SystemExit):
        main(["compute", "--config", cfg, "--seed", str(2**64)])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exit codes: 2 only for parsing and validation, 3 for internal errors


def test_compute_over_cap_exits_2_and_points_to_design(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
        "distribution": {"family": "rademacher"},
        "n": 20000,
    })
    code, out, err = run(["compute", "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert "design" in err and "Traceback" not in err


def test_compute_over_cap_design_exits_2_and_points_to_its_rate(tmp_path, capsys):
    # C(20000, 2) * 0.9 is about 1.8e8 selected tuples, past the 1e8 cap
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
        "distribution": {"family": "rademacher"},
        "n": 20000,
        "design": {"variant": "bernoulli", "p_n": 0.9},
    })
    code, out, err = run(["compute", "--config", cfg], capsys)
    assert code == 2
    assert out == ""
    assert 'lower the design\'s "p_n" or "draws"' in err
    assert 'add a "design"' not in err and "Traceback" not in err


def test_experiment_holder_past_scan_cap_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", {
        "kernel": {"name": "product", "m": 2},
        "distribution": {"family": "rademacher"},
        "experiment": "holder", "alpha": 0.3, "d": 2,
        "n_grid": [9000], "replications": 2,
    })
    out_dir = tmp_path / "o"
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(out_dir)], capsys)
    assert code == 2
    assert "n_grid" in err
    assert not out_dir.exists()


def test_experiment_unparsable_grid_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", {**EXP_CONFIG, "n_grid": ["eight"]})
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "n_grid" in err


def test_decompose_unparsable_budget_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
        "distribution": {"family": "rademacher"},
        "inner": "many",
    })
    code, _, err = run(["decompose", "--config", cfg], capsys)
    assert code == 2
    assert "inner" in err


@pytest.mark.parametrize("command, field, value", [
    ("compute", "n", 12.5),  # ran as n = 12
    ("compute", "seed", 1.5),
    ("compute", "design", {"variant": "without_replacement", "draws": 2.7}),
    ("decompose", "level", 1.5),  # ran as level 1
    ("decompose", "inner", 64.5),
    ("decompose", "outer", True),
])
def test_fractional_integer_field_exits_2(tmp_path, capsys, command, field, value):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
        "distribution": {"family": "rademacher"},
        **({"n": 12} if command == "compute" else {}),
        field: value,
    })
    code, out, err = run([command, "--config", cfg], capsys)
    assert code == 2
    assert err.startswith(f"config error: {field}: ")
    assert "must be an integer" in err
    assert out == ""


@pytest.mark.parametrize("command", ["compute", "decompose"])
def test_non_object_kernel_exits_2(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "c.json", {
        "kernel": "product",
        "distribution": {"family": "rademacher"},
        "data": [1, -1, 2],
    })
    code, _, err = run([command, "--config", cfg], capsys)
    assert code == 2
    assert "kernel: expected a JSON object" in err and "internal error" not in err


@pytest.mark.parametrize("field,value", [
    ("kernel", None), ("kernel", "product"), ("distribution", ["rademacher"]),
    ("space", 3), ("design", "x"), ("n_grid", 8), ("grid", [5]),
    ("experiment", ["deviation"]), ("replications", 1e999),
    # these once ran as the number a string or a bool spells, or truncated
    ("space", {"dimension": 1.5}), ("space", {"dimension": 1, "norm_exponent": "2"}),
    ("gamma", True), ("stability_factor", "10"), ("grid", [[16, True]]),
    ("design", {"variant": "bernoulli", "p_n": "0.5"}),
    ("distribution", {"family": "uniform", "a": "0", "b": 1.0}),
])
def test_experiment_malformed_field_exits_2(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, "e.json", {**EXP_CONFIG, field: value})
    out_dir = tmp_path / "o"
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(out_dir)], capsys)
    assert code == 2
    assert f"config error: {field}:" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("field,value", [
    ("distribution", {"family": "gaussian", "sd": math.nan}),
    ("distribution", {"family": "gaussian", "mean": -math.inf}),
    ("distribution", {"family": "finite", "values": [0.0, 1.0],
                      "probabilities": [math.nan, 1.0]}),
    ("distribution", {"family": "finite", "values": [math.inf, 1.0],
                      "probabilities": [0.5, 0.5]}),
    ("distribution", {"family": "uniform", "a": -1.0, "b": math.inf}),
    ("space", {"dimension": 1, "norm_exponent": math.inf}),
])
def test_experiment_non_finite_law_or_space_exits_2(tmp_path, capsys, field, value):
    cfg = write_config(tmp_path, "e.json", {**EXP_CONFIG, field: value})
    out_dir = tmp_path / "o"
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(out_dir)], capsys)
    assert code == 2
    assert f"config error: {field}:" in err and "finite" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("kernel,key", [
    # once run as a non-symmetric kernel: holder blamed the symmetry, and
    # deviation took the all-subsets bound
    ({"expr": "x1 * x2", "symetric": True}, "'symetric'"),
    ({"expr": "x1 * x2", "symmetric": "yes"}, "symmetric"),
    ({"name": "product", "m": 2, "mu": 0.5}, "'mu'"),  # was dropped
    ({"name": "product", "expr": "x1 + x2"}, "'expr'"),  # name won
    ({"name": "product", "m": 2.7}, "m must be an integer"),  # was m = 2
    # was "an all-but-one conditional mean is nonzero"
    ({"name": "centered-product", "m": 2, "mu": math.nan}, "mu must be a finite number"),
    # was float("0.5") and float(True), or a message without the key
    ({"name": "centered-product", "m": 2, "mu": "0.5"}, "mu must be a finite number"),
    ({"name": "centered-product", "m": 2, "mu": True}, "mu must be a finite number"),
    ({"name": "centered-product", "m": 2, "mu": "half"}, "mu must be a finite number"),
], ids=["misspelt-key", "non-bool-symmetric", "mu-on-product", "name-and-expr",
        "fractional-m", "nan-mu", "string-mu", "bool-mu", "word-mu"])
def test_experiment_malformed_kernel_exits_2(tmp_path, capsys, kernel, key):
    cfg = write_config(tmp_path, "e.json", {**EXP_CONFIG, "kernel": kernel})
    out_dir = tmp_path / "o"
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(out_dir)], capsys)
    assert code == 2
    assert "config error: kernel:" in err and key in err
    assert not out_dir.exists()


@pytest.mark.parametrize("field,value", [
    ("inner", 1), ("outer", 0), ("outer", 1), ("outer", -1),
])
def test_decompose_budgets_below_two_exit_2(tmp_path, capsys, field, value):
    # one outer row has a zero standard error, so any nonzero statistic
    # would read "nonzero"; ExperimentConfig refuses the same budgets
    cfg = write_config(tmp_path, "c.json", {
        "kernel": {"name": "product", "m": 2},
        "distribution": {"family": "gaussian"},
        field: value,
    })
    code, out, err = run(["decompose", "--config", cfg], capsys)
    assert code == 2
    assert f"config error: {field}: nested estimates need at least 2 draws" in err
    assert out == ""


@pytest.mark.parametrize("exc", [ValueError("bad shape"), RuntimeError("boom")])
def test_mid_run_exception_exits_3(tmp_path, capsys, monkeypatch, exc):
    import ustatkit.cli as cli

    def failing(config):
        raise exc

    monkeypatch.setattr(cli, "run_experiment", failing)
    cfg = write_config(tmp_path, "e.json", EXP_CONFIG)
    code, _, err = run(["experiment", "run", "--config", cfg,
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 3
    assert "internal error" in err and str(exc) in err
    assert "config error" not in err


@pytest.mark.parametrize("under", ["", "sub"])
def test_experiment_out_at_or_under_a_file_exits_2_before_the_run(
        tmp_path, capsys, monkeypatch, under):
    import ustatkit.cli as cli

    def never(config):
        raise AssertionError("the experiment started")

    monkeypatch.setattr(cli, "run_experiment", never)
    blocker = tmp_path / "afile"
    blocker.write_text("kept")
    cfg = write_config(tmp_path, "e.json", EXP_CONFIG)
    code, out, err = run(["experiment", "run", "--config", cfg,
                          "--out", os.path.join(blocker, under)], capsys)
    assert code == 2
    assert "config error: --out:" in err and str(blocker) in err
    assert out == "" and blocker.read_text() == "kept"


_SPACE_2D = {"dimension": 2, "norm_exponent": 2.0}


@pytest.mark.parametrize("command,config", [
    ("experiment", {**EXP_CONFIG, "space": _SPACE_2D}),
    ("experiment", {**EXP_CONFIG, "experiment": "incomplete-moment", "d": 2,
                    "grid": [[16, 0.5]], "moment_replications": 20,
                    "space": _SPACE_2D}),
    ("decompose", {"kernel": {"name": "product", "m": 2},
                   "distribution": {"family": "rademacher"}, "space": _SPACE_2D}),
])
def test_space_of_another_dimension_than_the_codomain_exits_2(tmp_path, capsys,
                                                             command, config):
    cfg = write_config(tmp_path, "c.json", config)
    out_dir = tmp_path / "o"
    args = ([command, "run", "--out", str(out_dir)] if command == "experiment"
            else [command]) + ["--config", cfg]
    code, out, err = run(args, capsys)
    assert code == 2
    assert "config error: space: dimension 2 differs" in err
    assert "internal error" not in err and out == "" and not out_dir.exists()


@pytest.mark.parametrize("command,config", [
    ("compute", {"kernel": {"name": "product", "m": 2}, "data": [1.0, -1.0, 2.0],
                 "desgin": {"variant": "bernoulli", "p_n": 0.5}}),
    ("decompose", {"kernel": {"name": "product", "m": 2},
                   "distribution": {"family": "rademacher"}, "levle": 2}),
    ("experiment", {**EXP_CONFIG, "desgin": {"variant": "bernoulli", "p_n": 0.5}}),
])
def test_unknown_config_field_exits_2(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, "c.json", config)
    out_dir = tmp_path / "o"
    args = ([command, "run", "--out", str(out_dir)] if command == "experiment"
            else [command]) + ["--config", cfg]
    code, out, err = run(args, capsys)
    assert code == 2
    typo = next(key for key in config if key in ("desgin", "levle"))
    assert f"config error: {typo}: unknown config field" in err
    assert out == "" and not out_dir.exists()


# ---------------------------------------------------------------------------
# report writers


_NUMPY_SCALARS = st.one_of(
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.floats().map(np.longdouble),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**200, 2**200),
    # NaN, +-inf, -0.0 and subnormals included
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, math.nan, math.inf, -math.inf]),
    st.text(),  # non-ASCII, control characters, quotes and backslashes
    _NUMPY_SCALARS,
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
)
_PLAIN_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(),
                          st.text(max_size=6))
_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(["x%", "%s", "%%", "\u00e9%d"]))


def _tables(cells):
    """Lists (or tuples) of dicts that share one key set, as report row
    tables do; a cell is a plain scalar or, now and then, anything else."""
    def rows(spec):
        keys, length = spec
        row = st.fixed_dictionaries({key: cells for key in keys})
        return st.lists(row, min_size=length, max_size=length)
    shape = st.tuples(st.lists(_KEYS, max_size=4, unique=True), st.integers(1, 5))
    return st.one_of(shape.flatmap(rows), shape.flatmap(rows).map(tuple))


_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_KEYS, st.integers(-20, 20)), children, max_size=4),
        _tables(st.one_of(_PLAIN_SCALARS, _PLAIN_SCALARS, _PLAIN_SCALARS, children)),
    ),
    max_leaves=24,
)


def _json_oracle(payload):
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


@settings(max_examples=300, deadline=None)
@given(payload=_TREES)
def test_report_writer_matches_json_dumps(payload):
    fh = io.StringIO()
    _dump_json(payload, fh)
    assert fh.getvalue() == _json_oracle(payload)


def test_report_writer_hands_out_large_reports_in_pieces(tmp_path):
    class Sink(io.StringIO):
        writes = 0

        def write(self, text):
            Sink.writes += 1
            return super().write(text)

    cells = [{"j": np.int64(j), "k": k, "frequency": j / 7.0, "low": None, "ok": np.bool_(k)}
             for j in range(3000) for k in (0, 1)]
    payload = {"details": {"cells": cells, "eps": np.float32(0.1)}, "rows": np.eye(3)}
    fh = Sink()
    _dump_json(payload, fh)
    assert fh.getvalue() == _json_oracle(payload)
    assert Sink.writes > 1
    path = tmp_path / "report.json"
    _write_json(str(path), payload)
    assert path.read_bytes() == _json_oracle(payload).encode("ascii")


def test_report_writer_refuses_what_json_refuses():
    for payload in ({"x": {1, 2}}, [object()], np.complex128(1j), np.datetime64(1, "ns")):
        with pytest.raises(TypeError):
            json.dumps(_jsonable(payload))
        with pytest.raises(TypeError):
            _dump_json(payload, io.StringIO())


def _old_cell(value) -> str:
    """The CSV cell text before it dispatched on the value's type."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.one_of(st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(), st.text(),
              _NUMPY_SCALARS),
    min_size=1), min_size=1, max_size=5))
def test_csv_cells_match_the_isinstance_chain(tmp_path_factory, rows):
    header = list(rows[0])
    for row in rows:
        assert [_cell(row.get(key)) for key in header] == [
            _old_cell(row.get(key)) for key in header]
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    _write_csv(str(path), rows)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(header)
    writer.writerows([_old_cell(row.get(key)) for key in header] for row in rows)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == want.getvalue()
