"""Command line front end: flags, config, determinism, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from osclab import cli
from osclab.cli import main

LINEAR_CURVE_FLAGS = [
    "curve", "--function", "linear:d=1:v=1", "--p", "2",
    "--kappa-max", "0.02", "--kappa-min", "0.00002",
    "--omega=-0.5:0.5", "--r-max", "50", "--samples", "64",
]


def run_cli(args, monkeypatch=None):
    return main(list(args))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_lists_entries(capsys):
    assert main(["catalog"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 6
    assert any("plateau" in ln for ln in lines)


def test_catalog_filter_by_dimension(capsys):
    assert main(["catalog", "--filter", "d=2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all("d=2" in ln for ln in lines)


def test_catalog_unknown_filter_key_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--filter", "bogus=1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# oscillation
# ---------------------------------------------------------------------------

def test_oscillation_linear_closed_form(capsys):
    assert main(["oscillation", "--function", "linear:d=1:v=1",
                 "--r", "1"]) == 0
    out = capsys.readouterr().out
    assert "= 0.5 " in out


def test_oscillation_constant_is_zero(capsys):
    assert main(["oscillation", "--function", "linear:d=1:v=0",
                 "--r", "2"]) == 0
    assert "= 0 " in capsys.readouterr().out


def test_oscillation_q2_closed_form(capsys):
    assert main(["oscillation", "--function", "linear:d=1:v=1",
                 "--r", "1", "--q", "2"]) == 0
    assert "0.57735" in capsys.readouterr().out


def test_oscillation_writes_json_with_config_echo(tmp_path, capsys):
    assert main(["oscillation", "--function", "indicator:d=1:r=0.5",
                 "--a", "0.25", "--r", "0.5", "--seed", "5",
                 "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "oscillation.json").read_text())
    assert payload["value"] == pytest.approx(0.375)
    assert payload["config"]["seed"] == 5
    assert payload["config"]["function"] == "indicator:d=1:r=0.5"


def test_oscillation_pairwise_is_monte_carlo_in_one_dimension(tmp_path):
    # d = 1 defaults to gauss_1d of order 8; --pairwise must not read that
    # order as a sample count, but take the query's Monte Carlo default
    assert main(["oscillation", "--function", "plateau:d=1:a=1:ri=0.5:ro=1",
                 "--a", "0.7", "--r", "0.3", "--pairwise",
                 "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "oscillation.json").read_text())
    assert payload["config"]["quadrature"] == {"method": "monte_carlo",
                                               "node_count": 65536}
    assert 0 < payload["std_error"] < 0.01


@pytest.mark.parametrize("args", [
    ["oscillation", "--function", "nope:d=1", "--r", "1"],
    ["oscillation", "--function", "linear:d=1:v=1"],          # missing r
    ["oscillation", "--function", "linear:d=1:v=1", "--r", "-1"],
    ["oscillation", "--function", "linear:d=2:v=1,0", "--r", "1",
     "--d", "1"],                                             # dim mismatch
    ["oscillation", "--function", "linear:d=1:v=1", "--r", "1",
     "--q", "0.5"],
    ["oscillation", "--function", "linear:d=2:v=1,0", "--r", "1",
     "--nodes", "1"],
    ["oscillation", "--function", "linear:d=1:v=1", "--r", "1",
     "--a", "nan"],
    ["oscillation", "--function", "linear:d=2:v=1,0", "--r", "1",
     "--samples", "64"],                                      # not a flag
    ["oscillation", "--function", "linear:d=1:v=1", "--r", "1",
     "--nodes", "0"],                                         # not the default
])
def test_oscillation_usage_errors(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


def test_oscillation_on_a_zero_width_ball_is_a_usage_error(capsys):
    # 3 +- 1e-17 rounds to 3: a clean usage error, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["oscillation", "--function", "plateau:d=1:a=1:ri=0.5:ro=1",
                  "--a", "3", "--r", "1e-17"])
    assert exc.value.code == 2
    assert "zero width" in capsys.readouterr().err


def test_oscillation_ignores_the_curve_samples_key(tmp_path, capsys):
    # config keys are global, so a file shared with curve runs may hold
    # samples; it is the curve's center count, never the node count here
    ini = tmp_path / "shared.ini"
    ini.write_text("[run]\nfunction = linear:d=2:v=1,0\nr = 1\n"
                   "samples = 64\n")
    assert main(["oscillation", "--config", str(ini),
                 "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "oscillation.json").read_text())
    assert payload["config"]["quadrature"] == {"method": "monte_carlo",
                                               "node_count": 65536}


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def test_curve_writes_csv_and_json(tmp_path, capsys):
    assert main(LINEAR_CURVE_FLAGS + ["--out-dir", str(tmp_path)]) == 0
    csv_text = (tmp_path / "curve.csv").read_text()
    assert csv_text.startswith("# osclab-curve-schema 1\n")
    assert "kappa,nu,nu_stderr,kappa_p_nu,tail_bound" in csv_text
    payload = json.loads((tmp_path / "curve.json").read_text())
    assert payload["summary"]["reference_value"] == pytest.approx(0.125)
    assert payload["summary"]["limit_estimate"] == pytest.approx(0.125,
                                                                 rel=1e-3)
    cfg = payload["config"]
    assert cfg["p"] == 2.0 and cfg["seed"] == 20260819
    assert cfg["domain"]["box"] == [[-0.5, 0.5]]
    assert "threads" not in cfg  # runtime knob, not experiment config


def test_curve_byte_identical_across_threads_and_runs(tmp_path):
    outs = []
    for name, threads in [("a", "1"), ("b", "3"), ("c", "1")]:
        d = tmp_path / name
        assert main(LINEAR_CURVE_FLAGS
                    + ["--threads", threads, "--out-dir", str(d)]) == 0
        outs.append(((d / "curve.csv").read_bytes(),
                     (d / "curve.json").read_bytes()))
    assert outs[0] == outs[1] == outs[2]


def test_curve_config_file_and_flag_override(tmp_path, capsys):
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\n"
        "function = linear:d=1:v=1\n"
        "p = 2\n"
        "[kappa]\n"
        "kappa_max = 0.02\n"
        "kappa_min = 0.00002\n"
        "[domain]\n"
        "omega = -0.5:0.5\n"
        "r_max = 50\n"
        "[run]\n"
        "samples = 64\n"
        "seed = 11\n")
    d1 = tmp_path / "from_config"
    assert main(["curve", "--config", str(ini),
                 "--out-dir", str(d1)]) == 0
    payload = json.loads((d1 / "curve.json").read_text())
    assert payload["config"]["seed"] == 11
    d2 = tmp_path / "override"
    assert main(["curve", "--config", str(ini), "--seed", "12",
                 "--out-dir", str(d2)]) == 0
    payload2 = json.loads((d2 / "curve.json").read_text())
    assert payload2["config"]["seed"] == 12


def test_env_seed_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OSCLAB_SEED", "777")
    d = tmp_path / "env"
    assert main(LINEAR_CURVE_FLAGS + ["--out-dir", str(d)]) == 0
    payload = json.loads((d / "curve.json").read_text())
    assert payload["config"]["seed"] == 777


@pytest.mark.parametrize("d, method, nodes", [
    pytest.param(1, "gauss_1d", 8, id="d1"),
    pytest.param(2, "monte_carlo", 512, id="d2"),
])
def test_curve_monte_carlo_default_nodes(tmp_path, d, method, nodes):
    # a curve in d >= 2 without --nodes uses 512 nodes per ball, not the
    # single-query default; in d = 1 the echoed count is the Gauss order
    # the curve uses
    assert main(["curve", "--function", f"plateau:d={d}:a=1:ri=0.5:ro=1",
                 "--samples", "8", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "curve.json").read_text())
    assert payload["config"]["quadrature"] == {"method": method,
                                               "node_count": nodes}
    assert payload["summary"]["node_count"] == nodes


def test_env_seed_is_not_read_when_the_flag_sets_one(tmp_path, monkeypatch):
    # a malformed OSCLAB_SEED only matters when neither flag nor config
    # gives a seed
    monkeypatch.setenv("OSCLAB_SEED", "not-a-seed")
    assert main(["oscillation", "--function", "linear:d=1:v=1", "--r", "1",
                 "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "oscillation.json").read_text())
    assert payload["config"]["seed"] == 5


def test_curve_of_a_constant_has_limit_zero(tmp_path):
    # every scaled point is 0 with stderr 0: the limit is 0, not NaN, and
    # the run neither warns nor crashes on writing curve.json
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["curve", "--function", "linear:d=1:v=0",
                     "--kappa-min", "0.001", "--kappa-max", "1",
                     "--samples", "64", "--out-dir", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "curve.json").read_text())["summary"]
    assert summary["limit_estimate"] == summary["reference_value"] == 0.0
    assert summary["limit_ok"] is True


@pytest.mark.parametrize("extra", [
    ["--p", "0.5"], ["--p", "nan"], ["--p", "inf"],
    ["--omega=-1:1,-1:1"],                                    # 2 axes, d = 1
    ["--r-max", "-1"],
])
def test_curve_inputs_the_library_refuses(tmp_path, extra):
    with pytest.raises(SystemExit) as exc:
        main(LINEAR_CURVE_FLAGS + ["--out-dir", str(tmp_path)] + extra)
    assert exc.value.code == 2
    assert not (tmp_path / "curve.csv").exists()
    assert not (tmp_path / "curve.json").exists()


def test_missing_config_file_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--config", str(tmp_path / "absent.ini")])
    assert exc.value.code == 2


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nfunction = linear:d=1:v=1\nr = 1\n",
    "[DEFAULT]\nfunction = linear:d=1:v=1\n[ball]\nr = 1\n[run]\nq = 1\n",
], ids=["alone", "beside-two-sections"])
def test_config_reads_the_default_section(tmp_path, capsys, text):
    # [DEFAULT] is a section like any other: its keys are neither dropped
    # nor copied into the other sections as duplicates
    ini = tmp_path / "default.ini"
    ini.write_text(text)
    assert main(["oscillation", "--config", str(ini),
                 "--out-dir", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "oscillation.json").read_text())
    assert payload["config"]["function"] == "linear:d=1:v=1"


def test_config_values_are_read_literally(tmp_path, capsys):
    # no %-interpolation: a percent sign is part of the value
    out = tmp_path / "pct%dir"
    ini = tmp_path / "pct.ini"
    ini.write_text(f"[run]\nfunction = linear:d=1:v=1\nr = 1\n"
                   f"out_dir = {out}\n")
    assert main(["oscillation", "--config", str(ini)]) == 0
    assert (out / "oscillation.json").exists()


def test_curve_rejects_narrow_grid():
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--function", "linear:d=1:v=1",
              "--kappa-max", "0.02", "--kappa-min", "0.01"])
    assert exc.value.code == 2


def test_curve_refuses_an_unfittable_grid_before_it_scans(tmp_path,
                                                         monkeypatch, capsys):
    # at ratio 2 only 4 thresholds lie within a factor of 10 of the
    # smallest; the limit fit needs 5, so no curve may be computed
    def no_curve(*args, **kwargs):
        raise AssertionError("distribution_curve was called")

    monkeypatch.setattr(cli, "distribution_curve", no_curve)
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--function", "plateau:d=1:a=1:ri=0.5:ro=1",
              "--kappa-max", "1", "--kappa-min", "0.0001",
              "--kappa-ratio", "2", "--samples", "2048",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert ("need at least 5 thresholds within a factor of 10.0 of the "
            "smallest, got 4") in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists()
    assert not (tmp_path / "curve.json").exists()


@pytest.mark.parametrize("kmin, kmax", [("0.01", "inf"), ("nan", "0.02")])
@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_curve_rejects_non_finite_kappa_bounds(tmp_path, kmin, kmax,
                                               from_config):
    if from_config:
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[kappa]\nkappa_min = {kmin}\nkappa_max = {kmax}\n")
        bounds = ["--config", str(ini)]
    else:
        bounds = ["--kappa-min", kmin, "--kappa-max", kmax]
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--function", "linear:d=1:v=1", "--samples", "8",
              "--out-dir", str(tmp_path / "out")] + bounds)
    assert exc.value.code == 2


def test_curve_rejects_a_single_sample(tmp_path):
    # one centre has no standard error: nothing NaN may reach curve.json
    with pytest.raises(SystemExit) as exc:
        main(LINEAR_CURVE_FLAGS + ["--samples", "1", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "curve.json").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
def test_curve_rejects_threads_below_one(tmp_path, threads, from_config):
    # a thread count below 1 is a usage error, not a quiet single thread
    if from_config:
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[run]\nthreads = {threads}\n")
        extra = ["--config", str(ini)]
    else:
        extra = ["--threads", threads]
    with pytest.raises(SystemExit) as exc:
        main(LINEAR_CURVE_FLAGS + ["--out-dir", str(tmp_path / "out")] + extra)
    assert exc.value.code == 2
    assert not (tmp_path / "out" / "curve.json").exists()


def test_write_json_refuses_non_finite_values(tmp_path):
    # outputs are strict JSON: a NaN or Infinity token fails the write
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._write_json(tmp_path / "out.json", {"v": value})
    assert not (tmp_path / "out.json").exists()


def test_a_config_with_q_serves_oscillation_and_curve(tmp_path, capsys):
    # curve reads no q: a config file shared with oscillation may set it
    ini = tmp_path / "shared.ini"
    ini.write_text("[experiment]\nfunction = linear:d=1:v=1\nr = 1\n"
                   "q = 2\nsamples = 16\n")
    assert main(["oscillation", "--config", str(ini)]) == 0
    assert "0.57735" in capsys.readouterr().out
    out = tmp_path / "curve"
    assert main(["curve", "--config", str(ini), "--out-dir", str(out)]) == 0
    config = json.loads((out / "curve.json").read_text())["config"]
    assert config["q"] == 1.0 and config["samples"] == 16


def test_curve_rejects_q_not_one():
    with pytest.raises(SystemExit) as exc:
        main(LINEAR_CURVE_FLAGS + ["--q", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("fid", ["linear:d=1:v=1", "linear:d=2:v=1,0"])
def test_curve_rejects_zero_nodes(fid):
    # --nodes 0 is a count below 2, not a request for the default
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--function", fid, "--nodes", "0", "--samples", "8"])
    assert exc.value.code == 2


def test_curve_has_no_fault_injection():
    # fault presets only reach the verify battery, whose sentinels see them
    with pytest.raises(SystemExit) as exc:
        main(LINEAR_CURVE_FLAGS + ["--fault-inject", "weight"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_exit_zero_and_report(tmp_path, capsys):
    code = main(["verify", "--samples", "8", "--nodes", "1024",
                 "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["report"]["passed"] is True
    assert payload["config"]["samples"] == 8
    assert "suites:" in out


def test_verify_fault_injection_fails(capsys):
    code = main(["verify", "--samples", "8", "--nodes", "1024",
                 "--fault-inject", "slope"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["--nodes", "0", "--samples", "8"],
    ["--nodes", "1", "--samples", "8"],
    ["--nodes", "-3", "--samples", "8"],
    ["--nodes", "1024", "--samples", "0"],
    ["--nodes", "1024", "--samples", "-3"],
])
def test_verify_usage_errors(args, tmp_path):
    # a count the battery cannot run is refused before any suite runs,
    # as oscillation and curve refuse it, and nothing is written
    with pytest.raises(SystemExit) as exc:
        main(["verify", *args, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "verify.json").exists()


def test_verify_unknown_fault_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fault-inject", "gremlins"])
    assert exc.value.code == 2


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "osclab.cli", "oscillation",
         "--function", "linear:d=1:v=1", "--r", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "= 0.5 " in proc.stdout


_NO_SCIPY_SCRIPT = """
import sys
import osclab.cli
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, ("import", loaded[:5])
out = sys.argv[1]
assert osclab.cli.main(["curve", "--function", "plateau:d=1:a=1:ri=0.5:ro=1",
                        "--samples", "16", "--out-dir", out + "/d1"]) == 0
assert osclab.cli.main(["curve", "--function", "plateau:d=2:a=1:ri=0.5:ro=1",
                        "--nodes", "32", "--samples", "16",
                        "--out-dir", out + "/d2"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, ("curve", loaded[:5])
"""


def test_import_and_curve_runs_leave_scipy_unloaded(tmp_path):
    # scipy is only for the verify oracles: importing the CLI and running a
    # Gauss (d = 1) and a Monte Carlo (d = 2) curve must not load it.  A
    # fresh interpreter, since other tests import scipy in this one.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    for d in ("d1", "d2"):
        payload = json.loads((tmp_path / d / "curve.json").read_text())
        assert payload["summary"]["reference_value"] is not None


_NO_SCIPY_VERIFY_SCRIPT = """
import sys
import osclab.cli
code = osclab.cli.main(["verify", "--samples", "2", "--nodes", "1024",
                        "--out-dir", sys.argv[1]])
assert code in (0, 1), code
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, ("verify", loaded[:5])
"""


def test_verify_run_leaves_scipy_unloaded(tmp_path):
    # the battery's quadrature oracles are numpy rules: a whole verify run
    # in a fresh interpreter loads no scipy module
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_VERIFY_SCRIPT, str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "verify.json").read_text())["report"]["reports"]
