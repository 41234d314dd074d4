"""Verification battery: suites pass clean, faults flip them, and the
jump-function closed forms agree with direct evaluation."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osclab import (
    Domain,
    FaultSpec,
    Mollifier,
    QuadratureSpec,
    UnsupportedFunctionError,
    battery_passed,
    battery_to_dict,
    c_d_prime,
    check_bv_divergence,
    check_local_expansion,
    check_maximal_domination,
    check_mollification,
    check_tail_bounds,
    expansion_remainder_coeff,
    indicator_section_1d,
    interval_weight,
    make_ball_indicator,
    make_linear,
    make_plateau_bump,
    mollify_1d,
    run_all,
)
from osclab import verify

GAUSS = QuadratureSpec(method="gauss_1d", node_count=16, seed=8)


def _m_indicator(a, r, R=0.5):
    # exact rational arithmetic on the float inputs: a section end can lie
    # far below the spacing of doubles near a, where a - r rounds to a
    a, r, R = Fraction(a), Fraction(r), Fraction(R)
    lo = max(a - r, -R)
    hi = min(a + r, R)
    lam = max(Fraction(0), hi - lo) / (2 * r)
    return float(2 * lam * (1 - lam))


# ---------------------------------------------------------------------------
# whole battery
# ---------------------------------------------------------------------------

def test_run_all_green():
    reports = run_all(seed=20260819, n_samples=30, node_count=8192)
    assert battery_passed(reports), [
        (r.suite_name, r.error) for r in reports if not r.passed]
    digest = battery_to_dict(reports)
    assert digest["passed"] and not digest["failed_suites"]
    assert digest["suite_count"] >= 15
    # inconclusive budget: at most 5 percent of all cases
    total = sum(len(r.cases) for r in reports)
    assert digest["inconclusive_total"] <= 0.05 * total
    json.dumps(digest)  # report must be JSON-clean


@pytest.mark.parametrize("budget", [{"n_samples": 0}, {"node_count": 1}])
def test_run_all_refuses_a_budget_before_any_suite(monkeypatch, budget):
    called = []
    for name in ("check_local_expansion", "check_mollification",
                 "check_maximal_domination", "check_bv_divergence",
                 "check_tail_bounds"):
        monkeypatch.setattr(verify, name,
                            lambda *args, name=name, **kw: called.append(name))
    with pytest.raises(ValueError, match="at least"):
        run_all(**budget)
    assert called == []


@pytest.mark.parametrize("fault,expect_suite", [
    (FaultSpec(slope_factor=1.05), "local_expansion"),
    (FaultSpec(expansion_factor=0.95), "local_expansion"),
    (FaultSpec(weight_exponent_shift=0.15), "maximal_domination"),
])
def test_fault_injection_flips_battery(fault, expect_suite):
    reports = run_all(seed=20260819, fault=fault, n_samples=10,
                      node_count=2048)
    digest = battery_to_dict(reports)
    assert not digest["passed"]
    assert any(name.startswith(expect_suite)
               for name in digest["failed_suites"]), digest["failed_suites"]


def _claimed(report, name):
    return next(c for c in report.cases if c.name == name).inputs["claimed"]


@pytest.mark.parametrize("d", [1, 2])
def test_fault_presets_perturb_the_checked_constants(d):
    # each preset moves exactly the value its identity case claims, by the
    # same floating-point operation on the unperturbed constant
    f = make_plateau_bump(d, 1.0, 0.5, 1.0)
    spec = GAUSS if d == 1 else QuadratureSpec(node_count=256, seed=8)
    rep = check_local_expansion(f, 2, spec,
                                fault=FaultSpec(slope_factor=1.05))
    assert _claimed(rep, "slope_constant_identity") == 1.05 * c_d_prime(d)
    rep = check_local_expansion(f, 2, spec,
                                fault=FaultSpec(expansion_factor=0.95))
    assert (_claimed(rep, "remainder_moment_identity")
            == expansion_remainder_coeff(d, 1.0) * 0.95)
    rep = check_maximal_domination(f, 2, spec,
                                   fault=FaultSpec(weight_exponent_shift=0.15))
    case = next(c for c in rep.cases if c.name == "weight_integral_identity")
    assert case.inputs["claimed"] == float(
        interval_weight(case.inputs["r_lo"], None, case.inputs["p"] + 0.15))
    assert case.inputs["claimed"] != float(
        interval_weight(case.inputs["r_lo"], None, case.inputs["p"]))


# ---------------------------------------------------------------------------
# local expansion
# ---------------------------------------------------------------------------

def test_local_expansion_plateau_small_radius():
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    rep = check_local_expansion(f, 40, GAUSS)
    assert rep.passed and rep.fail_count == 0


def test_local_expansion_needs_gradient_data():
    with pytest.raises(UnsupportedFunctionError):
        check_local_expansion(make_ball_indicator(1, 0.5), 5, GAUSS)


def test_local_expansion_identity_sentinels_present():
    f = make_linear(1, [1.0])
    rep = check_local_expansion(f, 5, GAUSS)
    names = {c.name for c in rep.cases}
    assert "slope_constant_identity" in names
    assert "remainder_moment_identity" in names


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def test_mollifier_unit_mass():
    for t in (0.05, 0.2, 1.0):
        assert Mollifier(t).mass_defect <= 1e-10


def test_mollify_linear_is_identity():
    # the kernel is even, so convolving v.x leaves it unchanged
    f = make_linear(1, [2.0])
    g = mollify_1d(f, Mollifier(0.3))
    for x in (-1.0, 0.0, 0.7, 2.5):
        assert abs(float(g.eval(np.array([x]))) - 2.0 * x) <= 1e-12


def test_mollify_extends_support():
    f = make_ball_indicator(1, 0.5)
    g = mollify_1d(f, Mollifier(0.1))
    assert g.support_radius == pytest.approx(0.6)
    assert abs(float(g.eval(np.array([0.0]))) - 1.0) <= 1e-12
    assert float(g.eval(np.array([0.7]))) == 0.0


def test_mollification_inequality_suites():
    for fid_make, t in [(lambda: make_linear(1, [1.0]), 0.05),
                        (lambda: make_plateau_bump(1, 1.0, 0.5, 1.0), 0.2),
                        (lambda: make_ball_indicator(1, 0.5), 0.1)]:
        rep = check_mollification(fid_make(), Mollifier(t), 20, GAUSS.seed)
        assert rep.passed, (rep.suite_name,
                            [c.name for c in rep.cases if not c.passed])


def test_mollification_strictly_helps_the_jump():
    # smoothing the indicator strictly lowers the oscillation for some
    # balls: the averaged inequality is not an equality there
    rep = check_mollification(make_ball_indicator(1, 0.5), Mollifier(0.1),
                              40, GAUSS.seed)
    strict = [c for c in rep.cases
              if c.name.startswith("mollified_vs_averaged")
              and c.measured_margin < -1e-3]
    assert len(strict) >= 3, len(strict)


# ---------------------------------------------------------------------------
# maximal domination and tail bounds
# ---------------------------------------------------------------------------

def test_maximal_domination_plateau():
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    rep = check_maximal_domination(f, 20, GAUSS)
    assert rep.passed
    names = {c.name for c in rep.cases}
    assert "max_ratio_finite" in names
    assert "weight_integral_identity" in names


def test_maximal_domination_zero_gradient():
    rep = check_maximal_domination(make_linear(1, [0.0]), 10, GAUSS)
    assert rep.passed
    assert any(c.name.startswith("zero_gradient_guard") for c in rep.cases)


def test_poincare_case_catches_inflated_oscillation(monkeypatch):
    # m <= r * ball average of |grad f| is a theorem; on plateau d=1 these
    # 60 balls reach a ratio of 0.935, so m scaled by 1.1 breaks it there
    from osclab import verify
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    rep = check_maximal_domination(f, 60, GAUSS)
    poincare = [c for c in rep.cases if c.name.startswith("poincare")]
    assert len(poincare) == 60 and rep.passed
    assert "ratio_stability_under_doubling" not in {c.name for c in rep.cases}
    honest = verify.mean_oscillation

    def inflated(*args):
        est = honest(*args)
        return type(est)(1.1 * est.value, est.std_error)

    monkeypatch.setattr(verify, "mean_oscillation", inflated)
    rep = check_maximal_domination(f, 60, GAUSS)
    failed = {c.name.split("[")[0] for c in rep.cases if c.verdict == "fail"}
    assert failed == {"poincare"}


def _ball_index(case):
    return int(case.name.split("[")[1].rstrip("]"))


@pytest.mark.parametrize("f, n, spec", [
    (make_plateau_bump(1, 1.0, 0.5, 1.0), 60, GAUSS),
    (make_plateau_bump(2, 1.0, 0.5, 1.0), 30,
     QuadratureSpec(node_count=256, seed=8)),
    (make_linear(1, [0.0]), 8, GAUSS),
], ids=["plateau-d1", "plateau-d2", "zero"])
def test_maximal_domination_case_layout(f, n, spec):
    # one Poincare case per ball and a zero guard exactly where the ball
    # has no gradient mass; nothing compares against a frozen bound
    rep = check_maximal_domination(f, n, spec)
    assert rep.passed
    assert not any(c.name.startswith("domination[") for c in rep.cases)
    poincare = [c for c in rep.cases if c.name.startswith("poincare[")]
    assert [_ball_index(c) for c in poincare] == list(range(n))
    guarded = {_ball_index(c) for c in rep.cases
               if c.name.startswith("zero_gradient_guard[")}
    assert guarded == {_ball_index(c) for c in poincare
                       if c.inputs["ball_gradient_average"] == 0.0}
    ratio = [c for c in rep.cases if c.name == "max_ratio_finite"]
    if len(guarded) < n:
        assert ratio[0].inputs == {"max_ratio": max(
            c.inputs["ratio"] for c in poincare
            if c.inputs["ball_gradient_average"] > 0.0)}
    else:
        assert ratio == []


def test_maximal_domination_evaluates_grad_once_per_ball(monkeypatch):
    # each ball pays at most one f.grad call, for its own radius, and none
    # when flat_radius certifies f constant on it
    from osclab import verify
    from osclab.oscillation import flat_balls
    plateau = make_plateau_bump(1, 1.0, 0.5, 1.0)
    grad_calls = []

    def counting_grad(x):
        grad_calls.append(np.shape(x))
        return plateau.grad(x)

    f = dataclasses.replace(plateau, grad=counting_grad)
    per_ball = []
    honest = verify.maximal_gradient

    def recording(*args):
        before = len(grad_calls)
        out = honest(*args)
        per_ball.append(len(grad_calls) - before)
        return out

    monkeypatch.setattr(verify, "maximal_gradient", recording)
    rep = check_maximal_domination(f, 60, GAUSS)
    balls = [c.inputs for c in rep.cases if c.name.startswith("poincare[")]
    flat = [bool(flat_balls(f, b["a"], np.array([b["r"]]))[0]) for b in balls]
    assert per_ball == [0 if fl else 1 for fl in flat]
    assert len(grad_calls) == sum(per_ball)
    # these 60 balls hold both kinds, so the layout test above sees both
    # the guard and the ratio branch on plateau-d1
    assert any(flat) and not all(flat)


def test_tail_bounds_plateau_and_indicator():
    spec = QuadratureSpec(method="gauss_1d", node_count=16, seed=3)
    for f in (make_plateau_bump(1, 1.0, 0.5, 1.0),
              make_ball_indicator(1, 0.5)):
        rep = check_tail_bounds(f, 20, spec)
        assert rep.passed, f.function_id


def test_tail_bounds_reject_unlocalized():
    with pytest.raises(UnsupportedFunctionError):
        check_tail_bounds(make_linear(1, [1.0]), 5, GAUSS)


# ---------------------------------------------------------------------------
# jump-function divergence
# ---------------------------------------------------------------------------

def test_bv_divergence_suite_green():
    dom = Domain(box=((-2.0, 2.0),), r_max=10.0, r_min=1e-3)
    rep = check_bv_divergence(0.5, np.geomspace(1e-1, 1e-4, 4), dom)
    assert rep.passed, [c.name for c in rep.cases if not c.passed]
    names = [c.name for c in rep.cases]
    assert "kappa_ratio_divergence" in names
    assert "floor_refinement_divergence" in names
    assert "fixed_window_scaled_decreases" in names


@given(
    a=st.floats(-3.0, 3.0),
    kappa=st.floats(0.01, 0.49),
    radius=st.floats(0.1, 2.0),
)
@settings(max_examples=120, deadline=None)
# a section whose lower end (about 2e-17) is far below the spacing of
# doubles near a
@example(a=0.1, kappa=0.3125, radius=math.nextafter(0.1, 1.0))
@example(a=0.1, kappa=0.25, radius=math.nextafter(0.1, 1.0))
# a section about 0.05 percent wide, just below the peak at the cover radius
@example(a=0.91015625, kappa=0.283203125, radius=0.1875)
def test_indicator_section_membership(a, kappa, radius):
    # endpoints of the closed-form section flip the superlevel property
    # of the directly evaluated oscillation
    sec = indicator_section_1d(a, kappa, radius)
    if sec is None:
        for r in np.geomspace(1e-3 * radius, 50 * radius, 200):
            assert _m_indicator(a, float(r), radius) <= kappa + 1e-9
        return
    lo, hi = sec
    assert 0.0 <= lo < hi
    mid = math.sqrt(max(lo, 1e-12) * hi)
    assert _m_indicator(a, mid, radius) > kappa - 1e-12
    # the inner probes stay inside a section narrower than 1 percent
    if lo > 0:
        assert _m_indicator(a, lo * 0.995, radius) <= kappa + 1e-9
        assert _m_indicator(a, min(lo * 1.005, mid), radius) >= kappa - 1e-9
    assert _m_indicator(a, hi * 1.005, radius) <= kappa + 1e-9
    assert _m_indicator(a, max(hi * 0.995, mid), radius) >= kappa - 1e-9


def test_report_passed_semantics():
    from osclab.verify import CaseResult, VerificationReport
    ok = CaseResult(name="a", inputs={}, measured_margin=0.0, tolerance=1.0,
                    passed=True, verdict="pass", note="")
    bad = CaseResult(name="b", inputs={}, measured_margin=2.0, tolerance=1.0,
                     passed=False, verdict="fail", note="")
    murky = CaseResult(name="c", inputs={}, measured_margin=0.0,
                       tolerance=1.0, passed=True, verdict="inconclusive",
                       note="")
    rep = VerificationReport(suite_name="s", cases=(ok, murky))
    assert rep.passed and rep.inconclusive_count == 1
    rep2 = VerificationReport(suite_name="s", cases=(ok, bad))
    assert not rep2.passed
    rep3 = VerificationReport(suite_name="s", cases=(ok,), error="boom")
    assert not rep3.passed


def test_case_digest_writes_infinities_as_strings():
    # a numpy infinity reads "inf" as a Python one does, so the digest stays
    # strict JSON
    from osclab.verify import CaseResult
    case = CaseResult(name="a", inputs={"np": np.float64(np.inf),
                                        "py": -math.inf, "x": np.float64(2.0)},
                      measured_margin=np.float64(-np.inf), tolerance=0.0,
                      passed=True, verdict="pass", note="")
    out = case.to_dict()
    assert out["inputs"] == {"np": "inf", "py": "-inf", "x": 2.0}
    assert out["measured_margin"] == "-inf"
    json.dumps(out, allow_nan=False)
