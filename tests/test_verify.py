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
    translate,
)
from osclab import verify, weaknorm
from osclab.oscillation import exact_oscillation_1d
from osclab.quadrature import segment_integrals

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


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_sentinel_oracles_match_their_closed_forms(d):
    # the slope constant c'_d, the radial moment d / (d + 2) and the tail
    # weight r^-p / p, each against the oracle its sentinel case uses
    assert verify._slope_constant_oracle(d) == pytest.approx(
        c_d_prime(d), rel=1e-13, abs=0.0)
    assert verify._moment_coeff_oracle(d) == pytest.approx(
        d / (d + 2), rel=1e-13, abs=0.0)
    r_edge = 0.2 * 10.0 ** ((d - 1) / 4)   # 0.2 ... 2, the sampled range
    for n in (8, 16):
        assert verify._tail_weight_quadrature(r_edge, n) == pytest.approx(
            r_edge ** -verify._WEIGHT_P / verify._WEIGHT_P, rel=1e-13, abs=0.0)


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


def _one_case_rhs(f, phi, a, r, panels=verify._MOLLIFY_PANELS):
    # the right side of one case on its own: its own panel edges, one
    # segment_integrals call per refinement, the oscillation of scalar a
    t = phi.scale
    pts = {-t, t}
    for b in f.breakpoints_1d:
        for edge in (a - r - b, a + r - b):
            if -t < edge < t:
                pts.add(edge)
    base = np.array(sorted(pts))
    sums = []
    for k in (panels, 2 * panels):
        edges = np.concatenate([np.linspace(lo, hi, k + 1)[:-1]
                                for lo, hi in zip(base[:-1], base[1:])]
                               + [base[-1:]])
        seg = segment_integrals(
            lambda z: phi.density(z) * exact_oscillation_1d(f, a - z, r)[0],
            edges, 8)
        sums.append(float(seg.sum()))
    coarse, fine = sums
    return fine, abs(fine - coarse)


@pytest.mark.parametrize("t", [0.05, 0.2])
@pytest.mark.parametrize("make", [lambda: make_linear(1, [1.0]),
                                  lambda: make_plateau_bump(1, 1.0, 0.5, 1.0),
                                  lambda: make_ball_indicator(1, 0.5)],
                         ids=["linear", "plateau", "indicator"])
def test_batched_mollification_matches_one_case_evaluation(make, t):
    f, phi = make(), Mollifier(t)
    g = mollify_1d(f, phi)
    rep = check_mollification(f, phi, 6, GAUSS.seed)
    cases = [c for c in rep.cases if c.name.startswith("mollified_vs_averaged")]
    assert len(cases) == 6
    for case in cases:
        a, r = case.inputs["a"], case.inputs["r"]
        assert case.inputs["lhs"] == float(exact_oscillation_1d(g, a, r)[0])
        rhs, err = _one_case_rhs(f, phi, a, r)
        assert case.inputs["rhs"] == rhs
        assert abs(case.inputs["quad_error"] - err) <= 4 * np.finfo(float).eps * abs(rhs)


def test_mollification_kernel_calls_do_not_grow_with_samples(monkeypatch):
    sizes = []
    kernel = verify.exact_oscillation_1d

    def counted(f, a, r, *args, **kwargs):
        sizes.append(np.size(a))
        return kernel(f, a, r, *args, **kwargs)

    monkeypatch.setattr(verify, "exact_oscillation_1d", counted)
    f, phi = make_plateau_bump(1, 1.0, 0.5, 1.0), Mollifier(0.2)
    for n in (2, 40):
        sizes.clear()
        check_mollification(f, phi, n, GAUSS.seed)
        # one call for every left side and one for every right side; the
        # kernel bounds its own passes
        assert len(sizes) == 2
        assert sizes[0] == n


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


@pytest.mark.parametrize("shift", [None, [0.3]], ids=["linear", "shifted"])
def test_maximal_domination_linear_ratio_is_exact(shift):
    # an affine entry (grad_lipschitz 0) in d = 1 attains the Poincare
    # constant: its largest ratio m / (r |grad f|) is c'_1 to rounding,
    # and its translate image is still affine
    f = make_linear(1, [1.5])
    f = f if shift is None else translate(f, shift)
    rep = check_maximal_domination(f, 20, QuadratureSpec("gauss_1d", 8))
    exact = [c for c in rep.cases if c.name == "linear_exact_ratio"]
    assert len(exact) == 1 and exact[0].verdict == "pass"
    assert exact[0].inputs["expected"] == c_d_prime(1)
    assert rep.passed


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


@pytest.mark.parametrize("box", [
    (1.0, 3.0), (-0.4, 0.4), (0.5 + 5e-10, 3.0),
], ids=["outside", "inside", "just-outside"])
def test_bv_divergence_refuses_a_window_without_a_jump(box):
    # the indicator of [-0.5, 0.5] is constant on such a window, so its
    # measure is finite: no case could show divergence there, nor when a
    # box end lies within 1e-9 of the jump but off it
    dom = Domain(box=(box,), r_max=10.0, r_min=1e-3)
    with pytest.raises(ValueError, match="no support edge"):
        check_bv_divergence(0.5, (1e-1, 1e-2, 1e-3, 1e-4), dom)


def test_smooth_contrast_case_runs_on_at_most_256_centres(monkeypatch):
    # the centre rule's 160 + 80 nodes, where a sampled curve took 1024
    centres = []
    make = weaknorm._make_engine

    def counting(f, centers, *args):
        centres.append(centers.shape[0])
        return make(f, centers, *args)

    monkeypatch.setattr(weaknorm, "_make_engine", counting)
    dom = Domain(box=((-2.0, 2.0),), r_max=10.0, r_min=1e-3)
    rep = check_bv_divergence(1.0, (1e-1, 1e-2, 1e-3, 1e-4), dom)
    case = {c.name: c for c in rep.cases}["smooth_contrast_bounded"]
    assert case.passed
    assert 0 < sum(centres) <= 256


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


def test_indicator_section_of_an_array_is_the_section_of_each_centre():
    # one formula serves both forms: NaN in the arrays where the float
    # form returns None
    a = np.linspace(-3.0, 3.0, 240)
    for kappa, radius in [(0.49, 0.5), (0.1, 1.0), (1e-4, 0.5), (0.6, 1.0)]:
        lo, hi = indicator_section_1d(a.reshape(3, -1), kappa, radius)
        assert lo.shape == hi.shape == (3, a.size // 3)
        for x, l, h in zip(a, lo.ravel(), hi.ravel()):
            want = indicator_section_1d(float(x), kappa, radius)
            if want is None:
                assert math.isnan(l) and math.isnan(h), (x, kappa, radius)
            else:
                assert (l, h) == want, (x, kappa, radius)


def test_indicator_measure_with_an_edge_on_the_box_end_is_infinite():
    # the weight grows like s / t on the side of the edge inside the box,
    # which is not integrable without a radius floor
    for box in [(-0.5, 0.5), (0.5, 2.0), (-2.0, -0.5)]:
        assert math.isinf(verify.indicator_measure_1d(0.1, 0.5, box, 0.0, 40.0))


def _adaptive_indicator_measure(kappa, radius, box, r_lo, r_hi, p):
    # scipy's adaptive quadrature of the section weight, one centre at a
    # time, with the branch points of the section supplied explicitly
    from scipy.integrate import quad

    s = math.sqrt(1.0 - 2.0 * kappa)

    def w(a):
        sec = indicator_section_1d(a, kappa, radius)
        if sec is None:
            return 0.0
        lo, hi = max(sec[0], r_lo), min(sec[1], r_hi)
        return float(interval_weight(lo, hi, p)) if hi > lo else 0.0

    t_star = 2.0 * radius * s / (1.0 - s)
    pts = sorted({edge + sign * off
                  for edge in (-radius, radius)
                  for off in (0.0, s * r_lo, s * r_hi, t_star,
                              min(t_star, radius), 2.0 * radius * s / (1.0 + s))
                  for sign in (-1.0, 1.0) if box[0] < edge + sign * off < box[1]})
    return quad(w, box[0], box[1], points=pts, limit=400,
                epsabs=1e-12, epsrel=1e-11)[0]


def _mpmath_indicator_measure(kappa, radius, box, r_lo, r_hi, p):
    # the section weight integrated over the centre a in 30-digit
    # arithmetic, where forming ||a| - radius| loses no digits that matter
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 30
    k, R, p = mp.mpf(kappa), mp.mpf(radius), mp.mpf(p)
    s = mp.sqrt(1 - 2 * k)

    def w(a):
        u = abs(a)
        t = abs(u - R)
        if u > R:
            if t > 2 * R * s / (1 - s):
                return mp.zero
            lo = t / s
        else:
            lo = t / s if t <= s * (u + R) else R * (1 - s) / k
        lo, hi = max(lo, r_lo), min(R * (1 + s) / k, r_hi)
        return (lo ** -p - hi ** -p) / p if hi > lo else mp.zero

    offs = [s * r_lo, s * r_hi, 2 * R * s / (1 - s), 2 * R * s / (1 + s)]
    offs += [s * r_lo * 2 ** j for j in range(40)]
    pts = {mp.mpf(box[0]), mp.mpf(box[1])}
    pts.update(edge + sign * off for edge in (-R, R) for off in [0] + offs
               for sign in (-1, 1) if box[0] < edge + sign * off < box[1])
    return mp.quad(w, sorted(pts))


def test_indicator_measure_near_the_jump_matches_a_30_digit_reference():
    # the weight peaks within s r_lo = 1.4e-6 of each edge; nodes formed
    # from the centre a would carry that distance to about 1e-10 relative
    args = (0.49, 1.0, (-2.0, 2.0), 1e-5, 40.0, 2.0)
    got = verify.indicator_measure_1d(*args)
    want = _mpmath_indicator_measure(*args)
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("box", [(-2.0, 2.0), (-0.4, 0.45), (1.2, 3.0)],
                         ids=["edges-inside", "within-support", "beyond-support"])
@pytest.mark.parametrize("radius", [0.5, 1.0])
@pytest.mark.parametrize("kappa", [0.49, 0.1, 1e-2, 1e-4])
def test_indicator_measure_matches_adaptive_quadrature(kappa, radius, box):
    # the composite Gauss rule against scipy's quad, an independent route
    for r_lo in (1e-5, 1e-3, 0.1):
        for p in (1.0, 1.5, 2.0):
            got = verify.indicator_measure_1d(kappa, radius, box, r_lo, 40.0, p)
            want = _adaptive_indicator_measure(kappa, radius, box, r_lo, 40.0, p)
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), (r_lo, p)


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
