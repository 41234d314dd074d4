"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one ACCEPTANCE line; pytest -v shows one PASSED/FAILED
line per criterion as well.  Tolerances follow the statements exactly;
where a probe measured comfortable margin the assertion keeps the stated
budget, never a looser one.
"""

import math

import numpy as np
import pytest

from osclab import (
    BallSample,
    Domain,
    FaultSpec,
    Mollifier,
    QuadratureSpec,
    battery_to_dict,
    c_d_prime,
    c_dp,
    check_bv_divergence,
    check_local_expansion,
    check_mollification,
    check_tail_bounds,
    default_catalog,
    default_domain,
    default_kappa_grid,
    distribution_curve,
    grad_norm_p,
    indicator_measure_1d,
    limit_extrapolate,
    make_ball_indicator,
    make_linear,
    make_plateau_bump,
    mean_oscillation,
    pair_oscillation,
    q_oscillation,
    run_all,
)
from osclab.cli import main as cli_main

SEED = 20260819


def _ok(n, label):
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


# ---------------------------------------------------------------------------

def test_criterion_01_constants():
    assert abs(c_d_prime(1) - 0.5) <= 1e-12
    assert abs(c_d_prime(3) - 0.375) <= 1e-12
    assert abs(c_dp(1, 2.0) - 0.125) <= 1e-12
    _ok(1, "closed-form constants to 1e-12")


def test_criterion_02_linear_exactness():
    # d = 1 deterministic rule: relative error <= 1e-10
    f1 = make_linear(1, [2.0])
    spec1 = QuadratureSpec(method="gauss_1d", node_count=16, seed=SEED)
    for a, r in [(0.3, 0.1), (-1.0, 2.5), (0.0, 7.0)]:
        est = mean_oscillation(f1, BallSample(np.array([a]), r), spec1)
        target = c_d_prime(1) * r * 2.0
        assert abs(est.value - target) <= 1e-10 * target
    # d = 2, 3 Monte Carlo at 1e6 nodes: within 3 stderr, rel stderr <= 1e-3
    for d, v in [(2, [1.0, 0.5]), (3, [1.0, 2.0, 2.0])]:
        f = make_linear(d, v)
        spec = QuadratureSpec(method="monte_carlo", node_count=1_000_000,
                              seed=SEED)
        r = 1.7
        est = mean_oscillation(f, BallSample(np.zeros(d), r), spec)
        target = c_d_prime(d) * r * float(np.linalg.norm(v))
        assert abs(est.value - target) <= 3 * est.std_error
        assert est.std_error <= 1e-3 * est.value
    _ok(2, "linear oscillation matches slope constant in d=1,2,3")


def test_criterion_03_linear_distribution_closed_form():
    # unit box, every grid threshold within 1 percent of c_{d,p} |v|^p,
    # spread across thresholds at most 1 percent
    cases = {
        1: (make_linear(1, [1.0]), Domain(box=((-0.5, 0.5),),
                                          r_max=50.0, r_min=1e-4),
            QuadratureSpec(method="gauss_1d", node_count=8, seed=SEED),
            1024),
        2: (make_linear(2, [0.6, 0.8]),
            Domain(box=((-0.5, 0.5), (-0.5, 0.5)), r_max=30.0, r_min=1e-4),
            QuadratureSpec(method="monte_carlo", node_count=512, seed=SEED),
            512),
    }
    for d, (f, dom, spec, samples) in cases.items():
        for p in (1.5, 2.0, 3.0):
            top = 0.02 * c_d_prime(d) * 1.0 * dom.r_max
            grid = np.geomspace(top, top / 1000.0, 13)
            cur = distribution_curve(f, p, grid, dom, spec, samples=samples)
            target = c_dp(d, p) * 1.0  # |v| = 1, unit box volume
            dev = np.abs(cur.scaled - target) / target
            assert dev.max() <= 0.01, (d, p, dev.max())
            spread = cur.scaled.max() / cur.scaled.min() - 1.0
            assert spread <= 0.01, (d, p, spread)
    _ok(3, "linear distribution flat at c_dp |v|^p in d=1,2 x p=1.5,2,3")


def test_criterion_04_limit_theorem_desk_scale():
    # d = 1: extrapolated limit within 5 percent of the gradient reference
    f1 = make_plateau_bump(1, 1.0, 0.5, 1.0)
    dom1 = default_domain(f1)
    spec1 = QuadratureSpec(method="gauss_1d", node_count=8, seed=SEED)
    cur1 = distribution_curve(f1, 2.0, default_kappa_grid(f1), dom1, spec1,
                              samples=2048)
    lim1 = limit_extrapolate(cur1)
    ref1 = c_dp(1, 2.0) * grad_norm_p(f1, 2.0)
    assert lim1.ok, lim1.notes
    assert abs(lim1.value - ref1) <= 0.05 * ref1, (lim1.value, ref1)
    # d = 2 at 4096 center samples: within 10 percent
    f2 = make_plateau_bump(2, 1.0, 0.5, 1.0)
    dom2 = Domain(box=((-1.25, 1.25), (-1.25, 1.25)), r_max=22.5,
                  r_min=1e-4)
    spec2 = QuadratureSpec(method="monte_carlo", node_count=512, seed=SEED)
    cur2 = distribution_curve(f2, 2.0, np.geomspace(20.0, 0.02, 13), dom2,
                              spec2, samples=4096)
    lim2 = limit_extrapolate(cur2)
    ref2 = c_dp(2, 2.0) * grad_norm_p(f2, 2.0)
    assert lim2.ok, lim2.notes
    assert abs(lim2.value - ref2) <= 0.10 * ref2, (lim2.value, ref2)
    _ok(4, "scaled superlevel limit matches gradient norm (d=1 5%, d=2 10%)")


def test_criterion_05_local_expansion_two_hundred_samples():
    for d in (1, 2):
        f = make_plateau_bump(d, 1.0, 0.5, 1.0)
        method = "gauss_1d" if d == 1 else "monte_carlo"
        spec = QuadratureSpec(method=method, node_count=16384, seed=SEED)
        rep = check_local_expansion(f, 200, spec)
        sample_cases = [c for c in rep.cases
                        if c.name.startswith("expansion[")]
        assert len(sample_cases) >= 200
        assert all(c.passed for c in sample_cases), d
        assert rep.passed
    _ok(5, "local expansion bound holds at 100% of 200 samples, d=1,2")


def test_criterion_06_mollification_matrix():
    total = inconclusive = 0
    for maker in (lambda: make_linear(1, [1.0]),
                  lambda: make_plateau_bump(1, 1.0, 0.5, 1.0),
                  lambda: make_ball_indicator(1, 0.5)):
        for t in (0.05, 0.2):
            rep = check_mollification(maker(), Mollifier(t), 40, SEED)
            assert rep.fail_count == 0, (rep.suite_name, t)
            total += len(rep.cases)
            inconclusive += rep.inconclusive_count
    assert inconclusive <= 0.05 * total, (inconclusive, total)
    _ok(6, "mollified oscillation bound: no failures, <=5% inconclusive")


def test_criterion_07_q_monotonicity_and_sandwich():
    rng = np.random.default_rng(SEED)
    funcs = [make_plateau_bump(1, 1.0, 0.5, 1.0),
             make_linear(1, [1.5]),
             make_plateau_bump(2, 1.0, 0.5, 1.0)]
    violations = 0
    for i in range(100):
        f = funcs[i % len(funcs)]
        a = rng.uniform(-1.2, 1.2, size=f.dim)
        r = float(rng.uniform(0.05, 2.0))
        q1 = float(rng.uniform(1.0, 2.5))
        q2 = q1 + float(rng.uniform(0.1, 1.5))
        spec = QuadratureSpec(method="monte_carlo", node_count=8192,
                              seed=SEED + i)
        ball = BallSample(a, r)
        lo = q_oscillation(f, ball, q1, spec)
        hi = q_oscillation(f, ball, q2, spec)
        pair = pair_oscillation(f, ball, q1, spec)
        slack = 2 * (lo.std_error + hi.std_error)
        if lo.value > hi.value + slack:
            violations += 1
        pslack = 2 * (lo.std_error + pair.std_error)
        if lo.value > pair.value + pslack:
            violations += 1
        if pair.value > 2 * lo.value + 2 * pslack:
            violations += 1
    assert violations == 0
    _ok(7, "q-monotone ladder and factor-2 pairwise sandwich, 100 queries")


def test_criterion_08_tail_bounds_all_localized_entries():
    entries = [f for f in default_catalog()
               if f.support_radius is not None and f.l1_mass is not None]
    assert len(entries) >= 4
    for f in entries:
        method = "gauss_1d" if f.dim == 1 else "monte_carlo"
        spec = QuadratureSpec(method=method, node_count=16384, seed=SEED)
        rep = check_tail_bounds(f, 40, spec)
        assert rep.passed, (f.function_id,
                            [c.name for c in rep.cases if not c.passed])
    _ok(8, "vanishing and mass tail bounds on all localized entries")


def test_criterion_09_p1_divergence_on_the_jump():
    # closed-form evaluation, no quadrature noise: over the full radius
    # range the weighted measure is infinite at every threshold below 1/2,
    # so kappa nu at 1e-4 dominates twice its value at 1e-1 in the
    # extended reals; the truncated evaluations certify the divergence
    # quantitatively
    box = (-2.0, 2.0)
    nu_small = indicator_measure_1d(1e-4, 0.5, box, 0.0, 40.0, p=1.0)
    nu_big = indicator_measure_1d(1e-1, 0.5, box, 0.0, 40.0, p=1.0)
    assert math.isinf(nu_small) and math.isinf(nu_big)
    assert 1e-4 * nu_small >= 2.0 * (1e-1 * nu_big)
    # quantitative witness: halving the radius floor (factor 4 here) grows
    # the truncated measure by sides * sqrt(1 - 2 kappa) * ln 4, endlessly
    k = 1e-2
    vals = [indicator_measure_1d(k, 0.5, box, 0.1 * 4.0**-j, 40.0, p=1.0)
            for j in range(5)]
    incs = np.diff(vals)
    theory = 4.0 * math.sqrt(1.0 - 2.0 * k) * math.log(4.0)
    np.testing.assert_allclose(incs, theory, rtol=1e-9)
    # and the full deterministic suite agrees
    dom = Domain(box=(box,), r_max=10.0, r_min=1e-3)
    rep = check_bv_divergence(0.5, np.geomspace(1e-1, 1e-4, 4), dom)
    assert rep.passed, [c.name for c in rep.cases if not c.passed]
    _ok(9, "p=1 jump divergence: infinite measure, growing truncations")


def test_criterion_10_mutation_sensitivity():
    for fault in (FaultSpec(slope_factor=1.05),
                  FaultSpec(weight_exponent_shift=0.15)):
        digest = battery_to_dict(
            run_all(seed=SEED, fault=fault, n_samples=10, node_count=2048))
        assert not digest["passed"], fault
        assert digest["failed_suites"], fault
    _ok(10, "5% slope or weight-exponent faults flip the battery")


def test_criterion_11_thread_determinism(tmp_path):
    flags = ["curve", "--function", "plateau:d=1:a=1:ri=0.5:ro=1",
             "--p", "2", "--samples", "1024", "--seed", str(SEED)]
    blobs = []
    for name, threads in [("t1", "1"), ("t4", "4")]:
        out = tmp_path / name
        assert cli_main(flags + ["--threads", threads,
                                 "--out-dir", str(out)]) == 0
        blobs.append(((out / "curve.csv").read_bytes(),
                      (out / "curve.json").read_bytes()))
    assert blobs[0][0] == blobs[1][0], "CSV bytes differ across threads"
    assert blobs[0][1] == blobs[1][1], "JSON bytes differ across threads"
    _ok(11, "curve outputs byte-identical across thread counts")
