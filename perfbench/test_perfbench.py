"""Tests of the benchmark itself: references, smoke rounds, negative checks.

    python3 -m pytest -q perfbench/test_perfbench.py

The smoke rounds run every workload at tiny sizes through the same worker
and checks as a measured run.  At those sizes the statistical accuracy
checks are not expected to hold, so a smoke round may fail only those.
"""
from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ACCURACY_CHECKS = {"limit_within_tolerance", "limit_ok"}

CURVE_CHECKS = {"cli_call", "curve_outputs_readable", "limit_within_tolerance",
                "reference_matches", "nu_nondecreasing_as_kappa_falls",
                "scaled_column_consistent", "nu_stderr_finite_nonnegative",
                "tail_bound_finite_nonnegative"}
VERIFY_CHECKS = {"cli_call", "verify_output_readable", "battery_cases_pass",
                 "suites_without_error_and_nonempty", "inconclusive_share",
                 "slope_constants_match"}


def test_reference_self_check_and_closed_forms():
    checks.self_check()
    assert checks.SLOPE_CONSTANT[2] == pytest.approx(4.0 / (3.0 * math.pi),
                                                     rel=1e-15)
    # d = 2: 2 pi (1/w) int S'^2 (ri + w s) ds = 2 pi * 2 (5/7 + 5/14)
    energy = checks.plateau_gradient_energy(2, 1.0, 0.5, 1.0, 2)
    assert energy == pytest.approx(30.0 * math.pi / 7.0, rel=1e-13)


def test_reference_agrees_with_osclab():
    sys.path.insert(0, str(run.ROOT / "src"))
    from osclab import Domain, make_plateau_bump, reference_scaled_limit
    for d in (1, 2):
        f = make_plateau_bump(d, 1.0, 0.5, 1.0)
        box = tuple((-1.25, 1.25) for _ in range(d))
        theirs = reference_scaled_limit(f, 2.0, Domain(box, 22.5, 1e-4))
        ours = checks.limit_reference(d, 2, 1.0, 0.5, 1.0)
        assert ours == pytest.approx(theirs, rel=1e-10)


@pytest.fixture(scope="module")
def smoke_rounds():
    """One smoke round per workload: (outcomes, output directory)."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        drv = run.Driver(wl, seed=1, smoke=True)
        drv.round("test-smoke")
        out[name] = (drv.outcomes, run.RUNS_DIR / name / "test-smoke")
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_round_runs_every_check(smoke_rounds, name):
    outcomes, _ = smoke_rounds[name]
    names = {n for n, _, _ in outcomes}
    kind = workloads.WORKLOADS[name].kind
    assert names >= (CURVE_CHECKS if kind == "curve" else VERIFY_CHECKS)
    failed = {n for n, passed, _ in outcomes if not passed}
    assert failed <= ACCURACY_CHECKS, outcomes


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_timed_path_reports_end_to_end_metrics(capsys):
    code = run.main(["--workload", "curve-exact-1d", "--seed", "3",
                     "--seconds", "0", "--trace", "0", "--smoke"])
    res = _last_json(capsys)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert set(res["metrics"]) == {"solve_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert res["attempted"] >= len(CURVE_CHECKS) + run.SETUP_PROBES
    assert code == (0 if res["correct"] else 1)


def test_traced_path_reports_every_layer_metric(capsys):
    run.main(["--workload", "curve-mc-2d", "--seed", "3", "--seconds", "0",
              "--trace", "1", "--smoke"])
    res = _last_json(capsys)
    expected = set(spans.LAYER_METRICS) | {"trace.solve_s", "trace.spans"}
    assert set(res["metrics"]) == expected
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # the 2-d curve evaluates f, draws node sets, scans and bisects
    for key in ("catalog.eval_points", "quadrature.node_sets",
                "weaknorm.scan_balls", "weaknorm.bisect_steps"):
        assert m[key] > 0, key
    assert m["verify.tail_bounds_s"] == 0.0
    spans_file = run.RUNS_DIR / "curve-mc-2d" / "trace" / "trace_spans.csv"
    lines = spans_file.read_text().splitlines()
    assert lines[0] == "index,name,start_ns,end_ns,parent"
    assert len(lines) - 1 == m["trace.spans"]


def test_missing_osclab_name_is_reported_absent(monkeypatch):
    sys.path.insert(0, str(run.ROOT / "src"))
    import osclab.cli  # noqa: F401
    import osclab.weaknorm as wn
    monkeypatch.delattr(wn, "_bisect_crossings")
    tracer = spans.Tracer()
    with monkeypatch.context() as m:
        # instrument() rebinds module names; undo them after the test
        for mod in ("osclab", "osclab.catalog", "osclab.quadrature",
                    "osclab.oscillation", "osclab.weaknorm", "osclab.verify",
                    "osclab.cli"):
            module = sys.modules[mod]
            for attr, value in list(vars(module).items()):
                m.setattr(module, attr, value)
        for cls in (wn._Exact1D, wn._McScan):
            m.setattr(cls, "scan", cls.scan)
        absent = spans.instrument(tracer)
    assert absent == {"weaknorm.bisect"}
    got = spans.metrics(tracer, absent)
    assert "weaknorm.bisect_s" not in got
    assert "weaknorm.bisect_steps" not in got
    assert "weaknorm.scan_s" in got


def test_span_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    incl, own = tracer.times()
    assert own["outer"] == incl["outer"] - incl["inner"]
    assert own["inner"] == incl["inner"] > 0


# ---------------------------------------------------------------------------
# negative tests: a perturbed output file must fail its check
# ---------------------------------------------------------------------------

def _verdicts(found) -> dict:
    return {name: passed for name, passed, _ in found}


def _curve_verdicts(out_dir: Path) -> dict:
    wl = workloads.WORKLOADS["curve-exact-1d"]
    return _verdicts(checks.check_curve(
        out_dir, wl.dim, wl.p, wl.limit_tol, wl.require_limit_ok,
        workloads.PLATEAU))


@pytest.fixture
def curve_copy(smoke_rounds, tmp_path):
    shutil.copytree(smoke_rounds["curve-exact-1d"][1], tmp_path / "c")
    return tmp_path / "c"


@pytest.fixture
def verify_copy(smoke_rounds, tmp_path):
    shutil.copytree(smoke_rounds["verify-defaults"][1], tmp_path / "v")
    return tmp_path / "v"


def _edit_csv_row(path: Path, col: str, row: int, factor: float) -> None:
    lines = path.read_text().splitlines()
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    idx = lines[header].split(",").index(col)
    cells = lines[header + 1 + row].split(",")
    cells[idx] = repr(float(cells[idx]) * factor)
    lines[header + 1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_scaled_nu_value_fails_check(curve_copy):
    assert _curve_verdicts(curve_copy)["scaled_column_consistent"]
    _edit_csv_row(curve_copy / "curve.csv", "nu", 8, 1.2)
    assert not _curve_verdicts(curve_copy)["scaled_column_consistent"]


def test_shrunk_nu_breaks_monotonicity(curve_copy):
    assert _curve_verdicts(curve_copy)["nu_nondecreasing_as_kappa_falls"]
    _edit_csv_row(curve_copy / "curve.csv", "nu", 12, 0.2)
    assert not _curve_verdicts(curve_copy)["nu_nondecreasing_as_kappa_falls"]


def test_scaled_limit_fails_check(curve_copy):
    assert _curve_verdicts(curve_copy)["limit_within_tolerance"]
    path = curve_copy / "curve.json"
    doc = json.loads(path.read_text())
    doc["summary"]["limit_estimate"] *= 1.2
    path.write_text(json.dumps(doc))
    assert not _curve_verdicts(curve_copy)["limit_within_tolerance"]


def _edit_verify(out_dir: Path, edit) -> dict:
    path = out_dir / "verify.json"
    doc = json.loads(path.read_text())
    edit(doc["report"])
    path.write_text(json.dumps(doc))
    return _verdicts(checks.check_verify(out_dir, 0))


def test_suite_marked_failed_fails_check(verify_copy):
    assert all(_verdicts(checks.check_verify(verify_copy, 0)).values())

    def fail_one(report):
        report["reports"][3]["passed"] = False
    assert not _edit_verify(verify_copy, fail_one)["battery_cases_pass"]


def test_failed_case_fails_check_unless_seed_dependent(verify_copy):
    def fail_case(name):
        def edit(report):
            suite = report["reports"][0]
            suite["cases"][0]["name"] = name
            suite["cases"][0]["verdict"] = "fail"
            suite["passed"] = report["passed"] = False
        return edit
    path = verify_copy / "verify.json"
    original = path.read_text()
    got = _edit_verify(verify_copy, fail_case("expansion[0]"))
    assert not got["battery_cases_pass"]
    path.write_text(original)
    edit = fail_case("ratio_stability_under_doubling")
    doc = json.loads(original)
    edit(doc["report"])
    path.write_text(json.dumps(doc))
    assert _verdicts(checks.check_verify(verify_copy, 1))["battery_cases_pass"]
    assert not _verdicts(
        checks.check_verify(verify_copy, 0))["battery_cases_pass"]


def test_suite_error_and_slope_drift_fail_checks(verify_copy):
    def corrupt(report):
        report["reports"][0]["error"] = "RuntimeError: boom"
        for suite in report["reports"]:
            for case in suite["cases"]:
                if case["name"] == "slope_constant_identity":
                    case["inputs"]["claimed"] *= 1.0 + 1e-9
    got = _edit_verify(verify_copy, corrupt)
    assert not got["suites_without_error_and_nonempty"]
    assert not got["slope_constants_match"]
