"""Command-line interface: exit codes, outputs, determinism."""

import csv
import json
import math

import numpy as np
import pytest

from ustatkit.cli import main
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


def test_experiment_reports_identical_across_runs_and_threads(tmp_path, capsys):
    cfg = write_config(tmp_path, "e.json", EXP_CONFIG)
    texts = []
    for tag, threads in (("a", "1"), ("b", "8"), ("c", "3")):
        out_dir = tmp_path / tag
        code, _, _ = run(["experiment", "run", "--config", cfg,
                          "--out", str(out_dir), "--threads", threads], capsys)
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
    assert set(manifest["outputs"]) == {
        "report.json", "rows.csv", "cells.csv", "layer_sums.csv",
        "quantiles.csv",
    }
    for name in manifest["outputs"]:
        assert (out_dir / name).exists()
    with open(out_dir / "cells.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["j", "k", "frequency", "low", "high"]


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


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
@pytest.mark.parametrize("command", ["compute", "decompose", "experiment"])
def test_bad_ustat_threads_exits_2(tmp_path, capsys, monkeypatch, value, command):
    monkeypatch.setenv("USTAT_THREADS", value)
    if command == "experiment":
        cfg = write_config(tmp_path, "e.json", EXP_CONFIG)
        args = ["experiment", "run", "--config", cfg, "--out", str(tmp_path / "o")]
    else:
        cfg = write_config(tmp_path, "c.json", {
            "kernel": {"name": "product", "m": 2},
            "distribution": {"family": "rademacher"},
            "data": [1, -1, 2],
        })
        args = [command, "--config", cfg]
    code, _, err = run(args, capsys)
    assert code == 2
    assert "USTAT_THREADS" in err and "internal error" not in err


def test_config_threads_override_a_bad_ustat_threads(tmp_path, capsys, monkeypatch):
    # the environment is only the fallback, so it is not read at all here
    monkeypatch.setenv("USTAT_THREADS", "abc")
    cfg = write_config(tmp_path, "e.json", {**EXP_CONFIG, "threads": 1})
    code, _, _ = run(["experiment", "run", "--config", cfg,
                      "--out", str(tmp_path / "o")], capsys)
    assert code == 0
