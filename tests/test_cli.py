"""Command line front end: flags, config, determinism, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
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


@pytest.mark.parametrize("command", ["curve", "oscillation"])
@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("family", [
    "linear:d={d}:v=1", "plateau:d={d}:a=1:ri=0.5:ro=1",
    "indicator:d={d}:r=0.5"])
def test_a_dimension_below_one_is_a_usage_error(tmp_path, capsys, command,
                                                family, d):
    args = [command, "--function", family.format(d=d)]
    args += (["--out-dir", str(tmp_path)] if command == "curve"
             else ["--r", "1"])
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"dimension must be positive, got {d}" in capsys.readouterr().err


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


@pytest.mark.parametrize("fid, message", [
    ("indicator:d=1:r=0.5", "has no gradient bound"),
    ("linear:d=1:v=0", "it is constant, so it has no threshold scale")])
def test_curve_without_a_gradient_scale_needs_kappa_bounds(
        tmp_path, monkeypatch, capsys, fid, message):
    # without --out-dir the curve writes into the working directory
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--function", fid, "--samples", "64"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
    # outputs are strict JSON: a NaN or Infinity token fails the write,
    # which leaves an earlier artifact as it was and no partial file
    target = tmp_path / "out.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._write_json(target, {"v": value})
        assert list(tmp_path.iterdir()) == []
    cli._write_json(target, {"v": 1.5})
    before = target.read_bytes()
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._write_json(target, {"a": 1, "v": [0.0, value]})
        assert target.read_bytes() == before
        assert list(tmp_path.iterdir()) == [target]


def test_write_json_gives_an_artifact_the_mode_of_write_text(tmp_path):
    cli._write_json(tmp_path / "out.json", {"v": 1})
    (tmp_path / "plain.txt").write_text("x")
    mode = (tmp_path / "plain.txt").stat().st_mode
    assert (tmp_path / "out.json").stat().st_mode == mode


def test_write_json_streams_a_large_document(tmp_path):
    # the serialized document is never held in memory whole: the traced
    # peak of the write stays far below the size of the file it writes
    payload = {"rows": [{"i": i, "name": f"row{i}", "x": i * 0.5}
                        for i in range(40000)]}
    target = tmp_path / "big.json"
    tracemalloc.start()
    try:
        cli._write_json(target, payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    size = len(want.encode("utf-8"))
    assert size >= 2_000_000
    assert peak < size / 4
    assert target.read_text(encoding="utf-8") == want


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


def _verify_defaults_seed(seed: int) -> str:
    """The osclab seed of a benchmark seed on perfbench's verify-defaults
    workload: the first 4 bytes of SHA-256("verify-defaults:<seed>")."""
    digest = hashlib.sha256(f"verify-defaults:{seed}".encode()).digest()
    return str(int.from_bytes(digest[:4], "big"))


def test_verify_at_its_defaults_passes_on_a_benchmark_seed(tmp_path):
    # the battery at its defaults (60 samples, 16384 nodes) on the osclab
    # seeds of benchmark seeds 11-15 (11 is 2891793251): no suite errors
    # or comes out empty, no case fails, and the exit code is 0.  A kernel
    # change that tips one verdict fails here, before the benchmark sees
    # it
    assert _verify_defaults_seed(11) == "2891793251"
    for seed in range(11, 16):
        out = tmp_path / str(seed)
        code = main(["verify", "--seed", _verify_defaults_seed(seed),
                     "--out-dir", str(out)])
        report = json.loads((out / "verify.json").read_text())["report"]
        suites = report["reports"]
        assert suites
        assert [s["suite_name"] for s in suites
                if s["error"] or not s["cases"]] == [], seed
        fails = [(s["suite_name"], c["name"]) for s in suites
                 for c in s["cases"] if c["verdict"] == "fail"]
        assert fails == [], seed
        assert all(s["passed"] is True for s in suites), seed
        assert report["passed"] is True
        assert code == 0, seed


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


# argv, the config file's text (or None) and the message's start; each
# case reaches a raise of the front end's own checks
_FRONT_END_ERRORS = {
    "kappa-min-alone": (
        ["curve", "--function", "linear:d=1:v=1", "--kappa-min", "0.001"],
        None, "--kappa-min and --kappa-max must be given together"),
    "curve-without-function": (
        ["curve", "--p", "2"], None, "curve needs --function"),
    "oscillation-without-function": (
        ["oscillation", "--r", "1"], None, "oscillation needs --function"),
    "omega-without-colon": (
        LINEAR_CURVE_FLAGS + ["--omega=-1"], None, "bad box axis '-1'"),
    "omega-not-a-number": (
        LINEAR_CURVE_FLAGS + ["--omega=a:1"], None, "bad box axis 'a:1'"),
    "centre-not-a-number": (
        ["oscillation", "--function", "linear:d=2:v=1,0", "--r", "1",
         "--a", "0.1,x"], None, "bad point '0.1,x'"),
    "key-before-any-section": (
        ["oscillation", "--r", "1"], "function = linear:d=1:v=1\n",
        "malformed config file"),
    "key-in-two-sections": (
        ["oscillation"],
        "[ball]\nr = 1\n[run]\nfunction = linear:d=1:v=1\nr = 2\n",
        "config key 'r' appears in more than one section"),
    "p-not-a-number": (
        ["curve"], "[run]\nfunction = linear:d=1:v=1\np = two\n",
        "config key 'p'"),
    "filter-d-not-an-integer": (
        ["catalog", "--filter", "d=two"], None, "filter d wants an integer"),
}


@pytest.mark.parametrize("case", sorted(_FRONT_END_ERRORS))
def test_front_end_usage_errors(tmp_path, monkeypatch, capsys, case):
    # each exits 2 with its message and writes no file, neither in the
    # output directory nor in the working directory
    argv, config, message = _FRONT_END_ERRORS[case]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OSCLAB_SEED", raising=False)
    if config is not None:
        (tmp_path / "run.ini").write_text(config)
        argv = argv + ["--config", "run.ini"]
    if argv[0] != "catalog":
        argv = argv + ["--out-dir", "out"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"osclab: error: {message}" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ([] if config is None
                                            else ["run.ini"])


@pytest.mark.parametrize("command", [
    ["oscillation", "--function", "linear:d=1:v=1", "--r", "1"],
    LINEAR_CURVE_FLAGS])
def test_an_environment_seed_that_is_no_integer_is_a_usage_error(
        tmp_path, monkeypatch, capsys, command):
    # with no --seed and no config seed, OSCLAB_SEED is read, and a value
    # that is no integer exits 2 before anything is written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("OSCLAB_SEED", "not-a-seed")
    with pytest.raises(SystemExit) as exc:
        main(command + ["--out-dir", "out"])
    assert exc.value.code == 2
    assert ("osclab: error: OSCLAB_SEED must be an integer, got "
            "'not-a-seed'" in capsys.readouterr().err)
    assert os.listdir(tmp_path) == []


def test_catalog_filter_by_kind(capsys):
    assert main(["catalog", "--filter", "kind=plateau"]) == 0
    ids = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()]
    assert ids == [f"plateau:d={d}:a=1:ri=0.5:ro=1" for d in (1, 2, 3)]


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
