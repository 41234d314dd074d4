"""Ball oscillation evaluators: closed forms, q-ladder, transform laws."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from osclab import (
    BallSample,
    Domain,
    QuadratureError,
    QuadratureSpec,
    UnsupportedFunctionError,
    dilate,
    distribution_curve,
    default_domain,
    default_kappa_grid,
    exact_oscillation_1d,
    make_ball_indicator,
    make_linear,
    make_plateau_bump,
    maximal_gradient,
    mean_oscillation,
    pair_oscillation,
    parse_function_id,
    q_oscillation,
    scale_values,
    stream,
    translate,
    unit_ball_nodes,
)
from osclab import catalog, oscillation
from osclab.catalog import DEFAULT_IDS, coordinate_dot
from osclab.oscillation import (PointNodes, RadialNodes, ball_estimates,
                                mc_deviations, mc_oscillation)
from osclab.quadrature import (KEY_INNER, KEY_OUTER, KEY_PAIR,
                               live_segments, segment_integrals)
from osclab.verify import check_local_expansion, check_maximal_domination

GAUSS = QuadratureSpec(method="gauss_1d", node_count=16, seed=9)


def _mc(seed=9, n=65536):
    return QuadratureSpec(method="monte_carlo", node_count=n, seed=seed)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_linear_mean_oscillation_closed_form_1d():
    # centered first absolute moment of v.x over an interval is r |v| / 2
    f = make_linear(1, [2.0])
    for r in (0.1, 1.0, 7.5):
        est = mean_oscillation(f, BallSample(np.array([0.3]), r), GAUSS)
        assert est.std_error == 0.0
        assert abs(est.value - 0.5 * r * 2.0) <= 1e-12 * max(1.0, r)


def test_linear_q2_oscillation_closed_form_1d():
    # quadratic mean of the centered linear profile is r |v| / sqrt(3)
    f = make_linear(1, [1.0])
    est = q_oscillation(f, BallSample(np.array([0.0]), 1.0), 2.0, GAUSS)
    assert abs(est.value - 1.0 / math.sqrt(3.0)) <= 1e-12


def test_linear_pairwise_q2_closed_form_1d():
    # two-point differences of v.x over the interval: r |v| sqrt(2/3)
    f = make_linear(1, [1.0])
    est = pair_oscillation(f, BallSample(np.array([0.0]), 1.0), 2.0,
                           _mc(seed=4, n=1 << 18))
    target = math.sqrt(2.0 / 3.0)
    assert est.std_error > 0
    assert abs(est.value - target) <= 3 * est.std_error


def test_pair_oscillation_refuses_a_gauss_spec():
    # node_count of a gauss_1d spec is a Gauss order (8 by default), not a
    # sample count; pairing that many random points is not the rule asked for
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    with pytest.raises(QuadratureError, match="Monte Carlo"):
        pair_oscillation(f, BallSample(np.array([0.7]), 0.3), 1.0,
                         QuadratureSpec(method="gauss_1d", node_count=8))


def test_indicator_mean_oscillation_closed_form():
    # overlap fraction lam gives oscillation 2 lam (1 - lam)
    f = make_ball_indicator(1, 0.5)
    for a, r in [(0.25, 0.5), (0.0, 0.75), (0.45, 0.2), (-0.6, 0.3),
                 (0.5, 1.0), (2.0, 0.5)]:
        lo, hi = a - r, a + r
        lam = max(0.0, min(hi, 0.5) - max(lo, -0.5)) / (2 * r)
        est = mean_oscillation(f, BallSample(np.array([a]), r), GAUSS)
        assert abs(est.value - 2 * lam * (1 - lam)) <= 1e-12


def test_exact_oscillation_matches_mean_oscillation_plateau():
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    a = np.array([0.31, 0.77, 1.1, -0.62])
    r = np.array([0.05, 0.4, 1.3, 0.9])
    moment, mu = exact_oscillation_1d(f, a, r, mu_nodes=GAUSS.node_count)
    for i in range(a.size):
        est = mean_oscillation(
            f, BallSample(np.array([a[i]]), float(r[i])), GAUSS)
        assert est.value == moment[i], (a[i], r[i])


def test_constant_function_oscillates_zero():
    f = make_linear(1, [0.0])
    est = mean_oscillation(f, BallSample(np.array([0.2]), 0.8), GAUSS)
    assert abs(est.value) <= 1e-14


def test_linear_mean_oscillation_monte_carlo_2d():
    # slope-constant times r |v| with the d = 2 value 4 / (3 pi)
    f = make_linear(2, [3.0, 4.0])
    est = mean_oscillation(f, BallSample(np.zeros(2), 2.0), _mc(n=1 << 18))
    target = 4.0 / (3.0 * math.pi) * 2.0 * 5.0
    assert abs(est.value - target) <= 3 * est.std_error
    assert est.std_error <= 2e-2 * target


# ---------------------------------------------------------------------------
# q ladder
# ---------------------------------------------------------------------------

def test_q1_reduces_to_mean_oscillation():
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    ball = BallSample(np.array([0.6]), 0.7)
    a = mean_oscillation(f, ball, GAUSS)
    b = q_oscillation(f, ball, 1.0, GAUSS)
    assert a.value == b.value


@given(
    a=st.floats(-1.2, 1.2),
    r=st.floats(0.05, 2.0),
    q_lo=st.floats(1.0, 3.0),
    bump=st.floats(0.1, 2.0),
    seed=st.integers(0, 2**20),
)
@settings(max_examples=40, deadline=None)
def test_q_monotone_and_pair_sandwich(a, r, q_lo, bump, seed):
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    ball = BallSample(np.array([a]), r)
    spec = QuadratureSpec(method="monte_carlo", node_count=8192, seed=seed)
    q_hi = q_lo + bump
    lo = q_oscillation(f, ball, q_lo, spec)
    hi = q_oscillation(f, ball, q_hi, spec)
    assert lo.value <= hi.value + 2 * (lo.std_error + hi.std_error)
    pair = pair_oscillation(f, ball, q_lo, spec)
    slack = 2 * (lo.std_error + pair.std_error)
    assert lo.value <= pair.value + slack
    assert pair.value <= 2 * lo.value + 2 * slack


def _zigzag_entry():
    """(f, breakpoints, values): the piecewise-linear interpolant of 17
    random values at breakpoints 0.25 apart on [-2, 2], constant past
    them.  It is monotone between its breakpoints (degree_1d 1), so f - mu
    has at most one root on each piece, and a ball of radius >= 1 holds at
    least 8 live segments."""
    bps = np.linspace(-2.0, 2.0, 17)
    vals = np.random.default_rng(43).uniform(-1.0, 1.0, bps.size)
    f = catalog.TestFunction(
        function_id="zigzag", dim=1,
        eval=lambda x: np.interp(np.asarray(x, dtype=float)[..., 0], bps,
                                 vals),
        grad=None, grad_lipschitz=None, support_radius=None,
        breakpoints_1d=tuple(bps), degree_1d=1)
    return f, bps, vals


def _mp_q_oscillation(bps, vals, lo, hi, q):
    """(average over [lo, hi] of |f - mu|^q)^(1/q) for the interpolant f of
    vals at bps, by mpmath's quad at 30 digits on each piece between f's
    breakpoints and the roots of f - mu, which are exact for f linear."""
    import mpmath

    mp = mpmath.mp.clone()
    mp.dps = 30
    xs = [mp.mpf(float(b)) for b in bps]
    vs = [mp.mpf(float(v)) for v in vals]

    def f(x):
        if x <= xs[0]:
            return vs[0]
        if x >= xs[-1]:
            return vs[-1]
        k = max(i for i in range(len(xs) - 1) if xs[i] <= x)
        return vs[k] + (vs[k + 1] - vs[k]) * (x - xs[k]) / (xs[k + 1] - xs[k])

    lo, hi = mp.mpf(float(lo)), mp.mpf(float(hi))
    pts = [lo] + [x for x in xs if lo < x < hi] + [hi]
    mu = sum(mp.quad(f, [x0, x1]) for x0, x1 in zip(pts, pts[1:])) / (hi - lo)
    cuts = list(pts)
    for x0, x1 in zip(pts, pts[1:]):
        g0, g1 = f(x0) - mu, f(x1) - mu
        if g0 * g1 < 0:
            cuts.append(x0 + g0 * (x1 - x0) / (g0 - g1))
    cuts.sort()
    moment = sum(mp.quad(lambda x: abs(f(x) - mu) ** q, [x0, x1])
                 for x0, x1 in zip(cuts, cuts[1:])) / (hi - lo)
    return float(moment ** (mp.mpf(1) / q))


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_q_oscillation_on_many_segments_matches_mpmath(q):
    # each live segment splits at its root and each part takes graded
    # panels, which integrate |f - mu|^q of degree q exactly; every ball
    # holds 8 to 13 live segments, and f - mu changes sign on several
    f, bps, vals = _zigzag_entry()
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, 12)
    r = rng.uniform(1.0, 1.5, 12)
    segs = live_segments(f.breakpoints_1d, a - r, a + r)
    assert np.bincount(segs.ball).min() >= 8
    got = exact_oscillation_1d(f, a, r, q)[0]
    want = [_mp_q_oscillation(bps, vals, a[i] - r[i], a[i] + r[i], q)
            for i in range(a.size)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_row_sums_add_each_ball_left_to_right():
    # the radial rule's rows in d = 2 hold up to 10 live pieces, most where
    # t is near r and the graded cuts spread out; each ball's sum has the
    # bits of a left-to-right sum from 0, whatever the rest of the list
    # (numpy's pairwise sum of a row of 8 or more adds in another order)
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    rng = np.random.default_rng(17)
    r = np.exp(rng.uniform(np.log(1e-2), np.log(3.0), 400))
    t = r * (1.0 + rng.choice([-1.0, 1.0], r.size)
             * 10.0 ** rng.uniform(-9.0, -3.0, r.size))
    segs, kind = oscillation._radial_pieces(f.radial.breakpoints, t, r, 2)
    values = oscillation._radial_integrals(
        lambda rho: f.radial.profile(rho * rho), 2, segs.edges, kind,
        t[segs.ball], r[segs.ball], 20)
    values -= rng.uniform(0.0, 1.0, values.size) * np.abs(values)
    assert np.count_nonzero(np.bincount(segs.ball) >= 8) > 100
    want = np.empty(t.size)
    for b in range(t.size):
        acc = 0.0
        for v in values[segs.first[b]:segs.last[b] + 1]:
            acc += v
        want[b] = acc
    assert np.array_equal(segs.row_sums(values), want)


# ---------------------------------------------------------------------------
# transform laws
# ---------------------------------------------------------------------------

def test_value_scaling_is_exact():
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    g = scale_values(f, 3.0)
    ball = BallSample(np.array([0.4]), 0.9)
    a = mean_oscillation(f, ball, GAUSS)
    b = mean_oscillation(g, ball, GAUSS)
    assert abs(b.value - 3.0 * a.value) <= 1e-13 * max(1.0, a.value)


def test_translation_invariance_shared_frame():
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    h = 1.75
    g = translate(f, [h])
    a, r = 0.4, 0.9
    v0 = mean_oscillation(f, BallSample(np.array([a]), r), GAUSS)
    v1 = mean_oscillation(g, BallSample(np.array([a + h]), r), GAUSS)
    assert abs(v1.value - v0.value) <= 1e-12


def test_dilation_invariance_shared_frame():
    # composing with x / s and scaling the ball leaves the value unchanged
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    s = 2.5
    g = dilate(f, s)
    a, r = 0.4, 0.9
    v0 = mean_oscillation(f, BallSample(np.array([a]), r), GAUSS)
    v1 = mean_oscillation(g, BallSample(np.array([s * a]), s * r), GAUSS)
    assert abs(v1.value - v0.value) <= 1e-12


def test_dilation_invariance_monte_carlo_2d():
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    s = 3.0
    g = dilate(f, s)
    spec = _mc(seed=21, n=1 << 15)
    v0 = mean_oscillation(f, BallSample(np.array([0.3, -0.2]), 0.6), spec)
    v1 = mean_oscillation(g, BallSample(np.array([0.9, -0.6]), 1.8), spec)
    # identical unit-ball node layout makes the two estimates equal samples
    assert abs(v1.value - v0.value) <= 1e-12


# ---------------------------------------------------------------------------
# maximal gradient
# ---------------------------------------------------------------------------

def test_maximal_gradient_requires_gradient():
    f = make_ball_indicator(1, 0.5)
    with pytest.raises(UnsupportedFunctionError):
        maximal_gradient(f, BallSample(np.array([0.2]), 0.1), GAUSS)


def test_maximal_gradient_is_within_lipschitz_reach_of_the_center_gradient():
    # |f'| is grad_lipschitz-Lipschitz, so its average over [a - r, a + r]
    # differs from |f'(a)| by at most the average of L |x - a|, which is
    # L r / 2; the exact Gauss route meets that bound on the taper, up to
    # roundoff
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    lip = f.grad_lipschitz
    for a in (0.55, 0.7, 0.95):
        g = abs(float(f.grad(np.array([a]))[0]))
        for r in (1e-3, 1e-2, 0.04):
            mg = maximal_gradient(f, BallSample(np.array([a]), r), GAUSS)
            assert abs(mg - g) <= lip * r / 2 + 1e-12, (a, r)


SKIP_ENTRIES = [
    (make_plateau_bump(1, 1.0, 0.5, 1.0), GAUSS),
    (make_plateau_bump(1, 1.0, 0.5, 1.0), _mc(n=256)),
    (make_plateau_bump(2, 1.0, 0.5, 1.0), _mc(n=256)),
    (dilate(make_plateau_bump(1, 1.0, 0.5, 1.0), 2.5), GAUSS),
    (translate(make_plateau_bump(2, 1.0, 0.5, 1.0), [0.4, -0.3]), _mc(n=256)),
    (scale_values(make_plateau_bump(2, 1.0, 0.5, 1.0), -0.7), _mc(n=256)),
    (scale_values(make_plateau_bump(1, 1.0, 0.5, 1.0), 3.0), GAUSS),
]


@pytest.mark.parametrize("f,spec", SKIP_ENTRIES,
                         ids=[f"{f.function_id}-{s.method}"
                              for f, s in SKIP_ENTRIES])
def test_maximal_gradient_skip_is_bit_identical(f, spec):
    # a ball on which flat_radius certifies f constant has a zero gradient
    # average, so skipping it leaves the result bit for bit as it was;
    # grad is then called at fewer points
    points = []

    def counted(x):
        points.append(math.prod(x.shape[:-1]))
        return f.grad(x)

    g = dataclasses.replace(f, grad=counted)
    bare = dataclasses.replace(g, flat_radius=None)
    scale = f.support_radius
    centers = stream(4, 31).uniform(-1.3 * scale, 1.3 * scale,
                                    size=(40, f.dim))
    counts = {"skip": 0, "bare": 0}
    skipped = 0
    for a in centers:
        rho = float(f.flat_radius(a))
        skipped += rho > 1e-3 * scale
        radii = [1e-3 * scale, 0.1 * scale, 2.0 * scale]
        if rho > 0:
            radii.append(0.5 * rho)
        for r in radii:
            ball = BallSample(a, r)
            out = {}
            for label, h in (("skip", g), ("bare", bare)):
                points.clear()
                out[label] = maximal_gradient(h, ball, spec)
                counts[label] += sum(points)
            assert out["skip"] == out["bare"], (a, r)
            assert out["skip"] >= 0.0
    assert skipped > 0
    assert counts["skip"] < counts["bare"]


def test_maximal_gradient_is_zero_when_every_radius_is_flat():
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    g = dataclasses.replace(f, grad=lambda x: pytest.fail("grad was called"))
    for a in ([0.0, 0.0], [2.0, 1.0]):
        for r in np.geomspace(1e-3, 0.1, 12):
            assert maximal_gradient(g, BallSample(np.array(a), r),
                                    _mc(n=64)) == 0.0


_PLATEAU_2 = make_plateau_bump(2, 1.0, 0.5, 1.0)
BLOCK_CASES = {
    "one-radius": (_PLATEAU_2, [0.7, 0.0], 0.4, 4096),
}


@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_maximal_gradient_blocks_are_bit_identical(case):
    # the Monte Carlo route is the mean of |grad f| over a + r u, u the
    # outer node set of the spec, bit for bit
    f, a, r, n = BLOCK_CASES[case]
    spec = _mc(seed=12, n=n)
    got = maximal_gradient(f, BallSample(np.array(a), r), spec)
    u = np.ascontiguousarray(unit_ball_nodes(
        f.dim, n, stream(spec.seed, KEY_OUTER)).T)
    x = np.array(a)[:, None] + r * u
    g = np.asarray(f.grad(np.swapaxes(x, -1, -2)), dtype=float)
    assert got == float(np.mean(np.sqrt(coordinate_dot(g, g))))
    assert got > 0.0


@pytest.mark.parametrize("f,a", [
    (_PLATEAU_2, [0.7]),
    (make_plateau_bump(1, 1.0, 0.5, 1.0), [0.7, 99.0]),
    (_PLATEAU_2, [0.7, 0.1, 0.2]),
], ids=["short", "long-1d", "long-2d"])
def test_maximal_gradient_rejects_a_center_of_the_wrong_shape(f, a):
    spec = GAUSS if f.dim == 1 else _mc(n=256)
    with pytest.raises(ValueError, match="does not match function dimension"):
        maximal_gradient(f, BallSample(np.array(a), 0.3), spec)


@pytest.mark.parametrize("r", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("spec", [GAUSS, _mc(n=256)], ids=["gauss", "mc"])
def test_maximal_gradient_rejects_non_finite_radii(r, spec):
    # the radius check is BallSample's, before any rule runs
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="finite and positive"):
        maximal_gradient(f, BallSample(np.array([0.7]), r), spec)


def test_maximal_gradient_gauss_rejects_a_non_finite_gradient():
    f = make_linear(1, [1.0])
    g = dataclasses.replace(f, grad=lambda x: np.full(x.shape, np.nan))
    with pytest.raises(QuadratureError, match="gradient"):
        maximal_gradient(g, BallSample(np.array([0.2]), 0.1), GAUSS)


def test_invalid_radius_rejected():
    f = make_linear(1, [1.0])
    with pytest.raises(ValueError):
        BallSample(np.array([0.0]), -1.0)


def test_maximal_gradient_gauss_divides_by_the_integrated_width():
    # at a = 3, r = 1e-9 the rounded width (a + r) - (a - r) is not 2 r;
    # the average of |grad| = 1 over it must still read exactly 1
    f = make_linear(1, [1.0])
    spec = QuadratureSpec(method="gauss_1d", node_count=8, seed=0)
    assert maximal_gradient(f, BallSample(np.array([3.0]), 1e-9),
                            spec) == 1.0


def test_zero_width_balls_fail_loudly():
    # a +- 1e-17 rounds to a = 3: the width is 0 and no mean exists; the
    # kernels must say so instead of dividing 0 by 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="zero width"):
            exact_oscillation_1d(make_plateau_bump(1, 1.0, 0.5, 1.0),
                                 3.0, 1e-17)
        with pytest.raises(QuadratureError, match="zero width"):
            maximal_gradient(make_linear(1, [1.0]),
                             BallSample(np.array([3.0]), 1e-17), GAUSS)


def _eval_counted(f):
    # f with an eval that adds the points it is given, as perfbench counts
    # catalog.eval_points: the product of all axes but the coordinate one
    seen = [0]

    def ev(x):
        seen[0] += math.prod(np.shape(x)[:-1])
        return f.eval(x)

    return dataclasses.replace(f, eval=ev), seen


@pytest.mark.parametrize("a, r, points", [
    # the plateau's pieces are quintics (degree_1d 5), so both passes take
    # the 3-point rule.  Inside the core, [-0.2, 0.2]: the edges are
    # clip(-1), clip(-0.5), clip(0.5), clip(1) between the ends,
    # [-.2, -.2, -.2, .2, .2, .2], so 1 of 5 segments is live.  Inner mean:
    # 1 x 3 = 3.  Root search: the 2 ends, which the 4 clipped breakpoints
    # copy, and f - mu has no sign change (f is constant).  Deviation: no
    # piece has a root, so each reuses its inner-mean integral and nothing
    # is evaluated.  3 + 2 + 0 = 5.
    (0.0, 0.2, 5),
    # straddling ri, [0.3, 0.7]: edges [.3, .3, .3, .5, .7, .7], 2 live
    # segments, 6.  Root search: the 2 ends and the breakpoint .5 inside,
    # 3, then f - mu changes sign on [.5, .7] only (f = 1 > mu at .5,
    # f < mu at .7), 12 bisection steps of one point, and the regula falsi
    # step evaluates nothing: 3 + 12 = 15.  Deviation: only the left part
    # [.5, root] of the piece with the root is evaluated, 3; its right part
    # and the root-free [.3, .5] reuse the inner-mean integrals.
    # 6 + (3 + 12) + 3 = 24.
    (0.5, 0.2, 24),
])
def test_exact_oscillation_1d_evaluates_live_segments_only(a, r, points):
    f, seen = _eval_counted(make_plateau_bump(1, 1.0, 0.5, 1.0))
    exact_oscillation_1d(f, a, r)
    assert seen[0] == points


def _gauss_mean(fev, breakpoints, lo, hi):
    """The 8-point Gauss mean of f over each ball [lo, hi], on its live
    segments."""
    segs = live_segments(breakpoints, lo, hi)
    return segs.row_sums(segment_integrals(fev, segs.edges, 8)) / (hi - lo)


@pytest.mark.parametrize("f", [
    make_plateau_bump(1, 1.0, 0.5, 1.0),
    make_plateau_bump(1, -2.0, 0.3, 0.9),
    make_ball_indicator(1, 0.5, center=[0.25]),
], ids=lambda f: f.function_id)
def test_segment_roots_follow_the_sign_of_f_at_every_edge(f):
    # the root search evaluates f once at each breakpoint and hands the
    # value to both segments that share it; the segments with a root must
    # still be those where f - mu changes sign between f's values at their
    # own two ends
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.5, 1.5, 400)
    r = np.exp(rng.uniform(np.log(1e-3), np.log(3.0), 400))
    mu = _gauss_mean(f.eval_1d, f.breakpoints_1d, a - r, a + r)
    segs = live_segments(f.breakpoints_1d, a - r, a + r)
    root, _, _ = oscillation._segment_roots(f.eval_1d, segs, mu)
    mu_seg = mu[segs.ball]
    cross = (np.sign(f.eval_1d(segs.lo) - mu_seg)
             * np.sign(f.eval_1d(segs.hi) - mu_seg) < 0)
    assert cross.any()
    assert np.array_equal(root[~cross], segs.hi[~cross])
    assert np.all((segs.lo[cross] < root[cross])
                  & (root[cross] < segs.hi[cross]))


def _bisected_m(f, a, r):
    """m of the 1-d balls (a, r) with each root of f - mu the midpoint of
    30 plain bisections, on exact_oscillation_1d's live segments, with
    8-point rules for mu and for f - mu on every part: the reference of
    its root step, of its Gauss order and of its reuse of the mean pass."""
    fev = f.eval_1d
    lo, hi = a - r, a + r
    segs = live_segments(f.breakpoints_1d, lo, hi)
    mu = _gauss_mean(fev, f.breakpoints_1d, lo, hi)[segs.ball]
    side = np.sign(fev(segs.lo) - mu)
    cross = side * np.sign(fev(segs.hi) - mu) < 0
    blo, bhi = segs.lo[cross], segs.hi[cross]
    side, mu_rows = side[cross], mu[cross]
    for _ in range(30):
        mid = 0.5 * (blo + bhi)
        keep = np.sign(fev(mid) - mu_rows) == side
        blo, bhi = np.where(keep, mid, blo), np.where(keep, bhi, mid)
    root = segs.hi.copy()
    root[cross] = 0.5 * (blo + bhi)
    # [lo, root] and [root, hi] of each segment, the second of zero width
    # where it has no root
    parts = np.stack([segs.lo, root, root, segs.hi], axis=-1).reshape(-1, 2)
    seg = segment_integrals(lambda x, m: fev(x) - m, parts, 8,
                            np.repeat(mu, 2))
    return (np.bincount(np.repeat(segs.ball, 2), np.abs(seg),
                        minlength=lo.size) / (hi - lo))


def _sine_entry():
    """sin(3x), split at its extrema from -5.8 to 5.8, past every ball of
    _UNIT_BALLS, so it is monotone between its breakpoints: a custom entry
    with no polynomial pieces and no degree_1d, which the exact kernel
    integrates at mu_nodes."""
    return catalog.TestFunction(
        function_id="sine:k=3", dim=1,
        eval=lambda x: np.sin(3.0 * np.asarray(x, dtype=float)[..., 0]),
        grad=None, grad_lipschitz=None, support_radius=None,
        breakpoints_1d=tuple((0.5 + j) * math.pi / 3.0
                             for j in range(-6, 6)))


def _d1_entries():
    """(f, max |f|, length scale, shift) for the d = 1 catalog entries and
    their translate, dilate and scale_values images, then the sine; a ball
    of f is a unit ball moved by the shift and scaled by the length
    scale."""
    out = []
    for f, top in ((make_plateau_bump(1, 1.0, 0.5, 1.0), 1.0),
                   (make_plateau_bump(1, -2.0, 0.3, 0.9), 2.0),
                   (make_ball_indicator(1, 0.5, center=[0.25]), 1.0)):
        out += [(f, top, 1.0, 0.0), (translate(f, 0.37), top, 1.0, 0.37),
                (dilate(f, 0.01), top, 0.01, 0.0),
                (dilate(f, 30.0), top, 30.0, 0.0),
                (scale_values(f, -2.5), 2.5 * top, 1.0, 0.0)]
    return out + [(_sine_entry(), 1.0, 1.0, 0.0)]


_D1_ENTRIES = _d1_entries()
_UNIT_BALLS = st.lists(
    st.tuples(st.floats(-1.5, 1.5),
              st.floats(math.log(1e-3), math.log(3.0)).map(math.exp)),
    min_size=1, max_size=32)


@given(entry=st.sampled_from(_D1_ENTRIES), balls=_UNIT_BALLS)
# the indicator's ball [0.74190, 0.75000428] ends 4.3e-6 past the jump at
# 0.75: 30 bisections put the root 2e-15 past it, the outer Gauss node of
# [0.75, root] rounds onto 0.75, where the closed indicator is 1, and the
# reference misses the exact m by 1.24e-14 = 56 eps (12 steps and the
# regula falsi step: 5e-17)
@example(entry=_D1_ENTRIES[10],
         balls=[(0.7459506739867905, 0.004053606709783293)])
@settings(max_examples=150, deadline=None)
def test_root_step_keeps_m_of_thirty_bisections(entry, balls):
    # a root error delta moves m by about |f'| delta^2, so 12 bisections and
    # one regula falsi step leave m where 30 bisections put it, to rounding;
    # so do the Gauss order sized by degree_1d and the deviation that reuses
    # the mean pass, on the sine at the reference's own order 8:
    # 8 eps max|f|, times 1 + |a| / r, the condition of m in the ball's
    # ends, since both place their nodes in coordinates of size |a|
    f, top, scale, shift = entry
    u, rho = np.array(balls).T
    a = shift + scale * u
    r = scale * rho
    m, _ = exact_oscillation_1d(f, a, r)
    tol = 8.0 * np.finfo(float).eps * top * (1.0 + np.abs(a) / r)
    assert np.all(np.abs(m - _bisected_m(f, a, r)) <= tol)


def test_constant_pieces_take_no_root_search():
    # the closed indicator is constant between its breakpoints (degree_1d
    # 0): its inner mean takes 1 point per live segment, and neither the
    # root search nor the deviation evaluates f.  The only sign change of
    # f - mu there is f's value 1 at the jump, where a root moves m by
    # rounding only
    base = make_ball_indicator(1, 0.5, center=[0.25])
    f, seen = _eval_counted(base)
    rng = np.random.default_rng(11)
    a = rng.uniform(-1.5, 1.5, 20000)
    r = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), 20000))
    m, _ = exact_oscillation_1d(f, a, r)
    assert seen[0] == live_segments(base.breakpoints_1d, a - r,
                                     a + r).lo.size
    tol = 8.0 * np.finfo(float).eps * (1.0 + np.abs(a) / r)
    assert np.all(np.abs(m - _bisected_m(base, a, r)) <= tol)


def test_plateau_core_mean_reads_the_order_3_weight_sum_and_m_stays_0():
    # _exact_pass's weight-sum facts: order 3, the plateau's, has weights
    # that add up to 2 - 2^-51, so the core value 1 has the mean
    # 0.9999999999999998 = 1 - 2^-52 on dyadic balls inside the core and
    # is within an ulp of it on others, and m reads exactly 0 on all of them
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    m, mu = exact_oscillation_1d(f, np.array([0.0, 0.125, -0.25]),
                                 np.array([0.25, 0.125, 0.0625]))
    assert np.all(mu == 0.9999999999999998) and np.all(m == 0.0)
    rng = np.random.default_rng(2)
    m, mu = exact_oscillation_1d(f, rng.uniform(-0.25, 0.25, 2000),
                                 rng.uniform(1e-6, 0.25, 2000))
    assert np.all(np.abs(mu - (1.0 - 2.0 ** -52)) <= 2.0 ** -53)
    assert np.all(m == 0.0)


def test_root_step_stays_in_the_final_bracket():
    # f jumps at 0 inside [lo, h], h > 0 tiny, so every bisection keeps the
    # right end: the final bracket is [about lo / 2^12, h], with g = 1 and
    # -h at its ends.  The step lo + g_lo (hi - lo) / (g_lo - g_hi) rounds
    # hi - lo up for several of these pairs and would land past h; the clip
    # keeps every root inside its segment
    h = np.array([c * 2.0 ** -e for e in range(60, 68)
                  for c in (0.55, 0.75, 0.9, 1.5, 3.3)])
    lo = np.repeat([-0.7, -0.9, -1.3], h.size)
    hi = np.tile(h, 3)
    root, _, _ = oscillation._segment_roots(
        lambda x: np.where(x < 0.0, 1.0, -x), live_segments((), lo, hi),
        np.zeros(lo.size))
    assert np.all((lo < root) & (root <= hi))


@pytest.mark.parametrize("q", [0.0, -1.0, 0.5, float("nan"), float("inf")])
def test_exact_oscillation_refuses_q_as_the_single_ball_rules_do(q):
    # unchecked, q = 0 divides by zero, q = -1 gives 0.0229 and q = NaN NaN
    f, seen = _recording(make_plateau_bump(1, 1.0, 0.5, 1.0))
    with pytest.raises(ValueError) as single:
        q_oscillation(f, BallSample(np.array([0.5]), 0.2), q, GAUSS)
    with pytest.raises(ValueError) as batch:
        exact_oscillation_1d(f, np.array([0.5, -0.3]), 0.2, q)
    assert type(batch.value) is ValueError
    assert str(batch.value) == str(single.value)
    assert str(batch.value) == f"q must be a real number >= 1, got {q}"
    assert seen == []


@pytest.mark.parametrize("mu_nodes, message", [
    (0, "Gauss order must be at least 1"),
    (2.5, "Gauss order must be an integer, got 2.5"),
])
def test_exact_oscillation_refuses_a_gauss_order_gauss_rule_refuses(mu_nodes,
                                                                     message):
    f, seen = _recording(make_plateau_bump(1, 1.0, 0.5, 1.0))
    with pytest.raises(QuadratureError) as got:
        exact_oscillation_1d(f, np.array([0.5, -0.3]), 0.2, mu_nodes=mu_nodes)
    assert str(got.value) == message
    assert seen == []


def test_exact_oscillation_refuses_a_bool_gauss_order():
    # True is an int to Python: it ran the 1-point rule, and on this
    # plateau ball m read 0.25952 against 0.28812
    f, seen = _recording(make_plateau_bump(1, 1.0, 0.5, 1.0))
    with pytest.raises(QuadratureError) as got:
        exact_oscillation_1d(f, 0.7, 0.2, mu_nodes=True)
    assert str(got.value) == "Gauss order must be an integer, got True"
    assert seen == []


def test_exact_oscillation_refuses_a_slope_off_q_one():
    f, seen = _recording(make_plateau_bump(1, 1.0, 0.5, 1.0))
    with pytest.raises(ValueError) as got:
        exact_oscillation_1d(f, 0.7, 0.2, 2.0, slope=True)
    assert str(got.value) == ("the slope of m is defined for q = 1 only, "
                              "got 2.0")
    assert seen == []


_PLATEAU_1D = make_plateau_bump(1, 1.0, 0.5, 1.0)
# sin(3 x) split at every extremum the balls below reach, so it is monotone
# between its breakpoints, and with no degree_1d
_SIN_1D = catalog.TestFunction(
    function_id="sin3", dim=1, eval=lambda x: np.sin(3.0 * x[..., 0]),
    grad=None, grad_lipschitz=None, support_radius=None,
    breakpoints_1d=tuple(math.pi / 6.0 + k * math.pi / 3.0
                         for k in range(-6, 6)))


@pytest.mark.parametrize("f, scale", [
    (_PLATEAU_1D, 1.0),
    (translate(_PLATEAU_1D, [0.37]), 1.0),
    (dilate(_PLATEAU_1D, 0.01), 0.01),
    (dilate(_PLATEAU_1D, 30.0), 30.0),
    (scale_values(_PLATEAU_1D, -3.3), 1.0),
    (make_linear(1, [1.7]), 1.0),
    (make_ball_indicator(1, 0.5, center=[0.25]), 1.0),
    (_SIN_1D, 1.0),
], ids=lambda v: getattr(v, "function_id", None))
def test_exact_slope_matches_a_central_difference(f, scale):
    # dm/dr keeps m and mu to the bit, and matches (m(r + h) - m(r - h)) /
    # 2 h, h = 1e-5 r, to 1e-4 of max(|that|, m / r): near a maximum of
    # m(a, .) the difference quotient is a rounding of m over h, so m / r,
    # the size of dm/dr where m grows like a power of r, sets the scale.
    # The balls have m >= 1e-4 max|f|, below which m's absolute rounding,
    # near eps max|f|, swamps the quotient, and ends at least 1e-3 r from
    # a breakpoint, where dm/dr has a kink
    rng = np.random.default_rng(17)
    a = rng.uniform(-1.5, 1.5, 4000) * scale
    r = np.exp(rng.uniform(math.log(1e-3), math.log(3.0), a.size)) * scale
    m, mu, dm = exact_oscillation_1d(f, a, r, slope=True)
    m0, mu0 = exact_oscillation_1d(f, a, r)
    assert m.tobytes() == m0.tobytes() and mu.tobytes() == mu0.tobytes()
    h = 1e-5 * r
    diff = (exact_oscillation_1d(f, a, r + h)[0]
            - exact_oscillation_1d(f, a, r - h)[0]) / (2.0 * h)
    top = np.max(np.abs(f.eval_1d(np.linspace(-4.5, 4.5, 9001) * scale)))
    ends = np.stack([a - r, a + r], axis=-1)[..., None]
    gap = np.min(np.abs(ends - np.array(f.breakpoints_1d or [np.inf])),
                 axis=(-2, -1))
    ok = (m >= 1e-4 * top) & (gap >= 1e-3 * r)
    assert ok.sum() > 1000
    np.testing.assert_array_less(
        np.abs(dm - diff)[ok], 1e-4 * np.maximum(np.abs(diff), m / r)[ok])


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_exact_oscillation_1d_bounds_its_passes(q):
    # more balls than two passes hold, pairwise disjoint, so each point f
    # sees belongs to one ball: no f.eval call may cover the balls of two
    # passes, and every ball keeps the bits it has on its own
    size = oscillation._EXACT_PASS
    n = 7 * -(-(2 * size + 3) // 7)  # fills 7 rows at any pass size
    a = np.linspace(-1.5, 1.5, n)
    step = a[1] - a[0]
    r = step * np.linspace(0.05, 0.45, n)
    base = make_plateau_bump(1, 1.0, 0.5, 1.0)
    f, seen = _recording(base)
    m, mu = exact_oscillation_1d(f, a.reshape(7, -1), r.reshape(7, -1), q)
    assert m.shape == mu.shape == (7, n // 7)
    passes = [np.unique(np.rint((x[..., 0] - a[0]) / step) // size)
              for x in seen if x.size]
    assert {len(p) for p in passes} == {1}
    assert {int(p[0]) for p in passes} == {0, 1, 2}
    for i in (0, 1, size - 1, size, size + 1, 2 * size - 1, 2 * size, n - 1):
        one = exact_oscillation_1d(base, a[i], r[i], q)
        assert one[0].shape == one[1].shape == ()
        assert one[0].tobytes() == m.reshape(-1)[i].tobytes()
        assert one[1].tobytes() == mu.reshape(-1)[i].tobytes()


@pytest.mark.parametrize("q", [1.0, 2.5])
def test_pass_size_moves_no_bit_of_exact_oscillation(monkeypatch, q):
    # the segment rule sums each segment on its own, so a ball's m and mu
    # keep their bytes whether its pass holds 7 balls or all of them
    n = 3 * 2048 + 5
    rng = np.random.default_rng(35)
    a = rng.uniform(-1.5, 1.5, n)
    r = np.exp(rng.uniform(np.log(1e-4), np.log(3.0), n))
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    got = set()
    for size in (7, 2048, 8192):
        monkeypatch.setattr(oscillation, "_EXACT_PASS", size)
        m, mu = exact_oscillation_1d(f, a, r, q)
        got.add(m.tobytes() + mu.tobytes())
    assert len(got) == 1


@pytest.mark.parametrize("q", [2.0, 2.5])
def test_exact_q_powers_take_the_c_library_pow(monkeypatch, q):
    # numpy's array power misses pow's last bit on some CPUs, so both
    # powers of the exact q != 1 route go through _libm_power: |f - mu|^q
    # at its nodes and the moment's 1/q-th power, once per ball (no ball
    # here covers the support, so each is evaluated on its own)
    calls = []
    power = oscillation._libm_power

    def counting(x, e):
        calls.append((np.size(x), e))
        return power(x, e)

    monkeypatch.setattr(oscillation, "_libm_power", counting)
    a = np.linspace(-1.2, 1.2, 41)
    r = np.geomspace(1e-3, 0.9, 41)
    exact_oscillation_1d(make_plateau_bump(1, 1.0, 0.5, 1.0), a, r, q)
    assert {e for _, e in calls} == {q, 1.0 / q}
    assert sum(n for n, e in calls if e == 1.0 / q) == a.size
    assert sum(n for n, e in calls if e == q) > a.size


def test_monte_carlo_q_powers_take_the_c_library_pow(monkeypatch):
    # the per-node powers of the Monte Carlo rules at q != 1, |f - mu|^q in
    # ball_estimates and |f(x) - f(y)|^q in pair_oscillation, go through
    # _libm_power, one value per node, so the pair value equals its
    # Python-float reference bit for bit
    q = 2.5
    calls = []
    power = oscillation._libm_power

    def counting(x, e):
        calls.append((np.size(x), e))
        return power(x, e)

    monkeypatch.setattr(oscillation, "_libm_power", counting)
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    spec = _mc(seed=6, n=512)
    centers = np.array([[0.3, 0.2], [0.5, -0.4], [0.0, 0.9]])
    ball_estimates(f, centers, np.array([0.4, 0.3, 0.6]), spec, q)
    assert sum(n for n, e in calls if e == q) == centers.shape[0] * 512
    calls.clear()
    ball = BallSample(centers[0], 0.4)
    got = pair_oscillation(f, ball, q, spec)
    assert [n for n, e in calls if e == q] == [512]
    vx, vy = (f.eval(ball.center + ball.radius
                     * oscillation._ball_nodes(2, 512, 6, key).T).tolist()
              for key in (KEY_OUTER, KEY_PAIR))
    y = np.array([abs(x - z) ** q for x, z in zip(vx, vy)])
    m_q = float(np.mean(y))
    se = float(np.std(y, ddof=1) / np.sqrt(y.size))
    assert got.value == m_q ** (1.0 / q)
    assert got.std_error == (1.0 / q) * m_q ** (1.0 / q - 1.0) * se


def _d1_entries_and_images():
    out = []
    for fid in DEFAULT_IDS:
        f = parse_function_id(fid)
        if f.dim == 1:
            out += [f, translate(f, [0.3]), translate(f, [-0.7]),
                    dilate(f, 0.4), dilate(f, 2.5), scale_values(f, -2.0)]
    # support_radius 0.75 = 0.5 + |c|: the ball of radius 0.5 about 0 does
    # not hold f's support
    return out + [make_ball_indicator(1, 0.5, center=[0.25])]


_D1_ENTRIES = _d1_entries_and_images()


def _own_bits(f, a, r, q=1.0, slope=True):
    """Each ball's result on the per-centre path, whose bits do not depend
    on the pass that holds the ball."""
    return oscillation._exact_pass(f, a, r, q, oscillation._GL_ORDER, slope)


@pytest.mark.parametrize("q", [1.0, 2.0])
@pytest.mark.parametrize("f", _D1_ENTRIES, ids=lambda f: f.function_id)
def test_covering_balls_take_the_bits_of_their_radius_at_the_origin(f, q):
    # a ball with |a| + support_radius <= r, past the margin, holds every
    # point where f is not constant, so m, mu and dm/dr depend on r alone;
    # the kernel returns the bits of the ball (0, r), and these differ from
    # the ball's own by roundoff.  An entry without support_radius
    # certifies no ball.
    slope = q == 1.0
    radius = f.support_radius or 1.0
    rng = np.random.default_rng(48)
    n = 2000
    a = rng.uniform(-8.0, 8.0, n)
    edge = (np.abs(a) + radius) * (1.0 + 1e-7)
    r = np.where(rng.random(n) < 0.5,
                 edge * (1.0 + rng.uniform(0.0, 1e-3, n)),
                 rng.uniform(edge, 40.0))
    got = exact_oscillation_1d(f, a, r, q, slope=slope)
    own = _own_bits(f, a, r, q, slope)
    if f.support_radius is None:
        assert [x.tobytes() for x in got] == [x.tobytes() for x in own]
        return
    at_origin = _own_bits(f, np.zeros(n), r, q, slope)
    assert [x.tobytes() for x in got] == [x.tobytes() for x in at_origin]
    m, mu = got[:2]
    assert np.all(np.abs(m - own[0]) <= 1e-14 * own[0])
    assert np.all(np.abs(mu - own[1]) <= 1e-14 * np.abs(own[1]))
    if slope:
        # dm/dr = (|g(a - r)| + |g(a + r)| - mu' S - 2 m) / 2 r, g = f - mu:
        # the ends' g is c - mu, c the constant outside the support, and
        # |mu' S| <= |g(a - r) + g(a + r)|, since |S| <= 2 r.  Each term
        # carries a few units of roundoff relative to itself, so the two
        # slopes differ by a few eps of the terms' magnitudes over 2 r,
        # not of dm/dr, which cancels (2.7 eps at worst over these entries)
        ends = np.abs(f.eval_1d(a + r) - own[1])
        terms = 4.0 * ends + 2.0 * own[0]
        eps = np.finfo(float).eps
        assert np.all(np.abs(got[2] - own[2]) <= 16.0 * eps * terms / (2 * r))


@pytest.mark.parametrize("f", [f for f in _D1_ENTRIES
                               if f.support_radius is not None],
                         ids=lambda f: f.function_id)
def test_balls_short_of_the_cover_margin_keep_their_own_bits(f):
    # r = |a| + support_radius within a few ulps, and balls well inside it,
    # are not certified: each keeps the bits of its own centre
    rng = np.random.default_rng(49)
    a = rng.uniform(-8.0, 8.0, 300)
    edge = np.abs(a) + f.support_radius
    near = edge[:, None] + np.arange(-4, 5) * np.spacing(edge)[:, None]
    inside = edge[:, None] * rng.uniform(0.05, 1.0, (a.size, 8))
    r = np.concatenate([near, inside], axis=1).ravel()
    a = np.repeat(a, 17)
    got = exact_oscillation_1d(f, a, r, slope=True)
    assert ([x.tobytes() for x in got]
            == [x.tobytes() for x in _own_bits(f, a, r)])


def test_covering_balls_reach_the_pass_once_per_radius(monkeypatch):
    # 4096 covering balls on 7 radii and 100 that cover nothing: 107 balls
    # reach _exact_pass, and every ball keeps its bits in passes of 3 and
    # in reverse order
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    rng = np.random.default_rng(50)
    radii = rng.choice([1.5, 2.0, 3.0, 5.5, 9.0, 17.0, 39.0], 4096)
    cover = rng.uniform(-1.0, 1.0, 4096) * (radii - 1.0) * (1.0 - 1e-6)
    order = rng.permutation(4196)
    a = np.concatenate([cover, rng.uniform(-1.5, 1.5, 100)])[order]
    r = np.concatenate([radii, rng.uniform(0.01, 0.45, 100)])[order]
    sizes = []
    real = oscillation._exact_pass

    def counted(f, a, *args):
        sizes.append(a.size)
        return real(f, a, *args)

    monkeypatch.setattr(oscillation, "_exact_pass", counted)
    whole = exact_oscillation_1d(f, a, r, slope=True)
    assert sum(sizes) == 107
    sizes.clear()
    monkeypatch.setattr(oscillation, "_EXACT_PASS", 3)
    back = exact_oscillation_1d(f, a[::-1], r[::-1], slope=True)
    assert max(sizes) == 3 and sum(sizes) == 107
    assert ([x.tobytes() for x in whole]
            == [x[::-1].tobytes() for x in back])


def test_gauss_gradient_average_runs_in_bounded_passes(monkeypatch):
    # ball_estimates hands _gauss_gradient at most _EXACT_PASS balls a
    # call, the live ones each once, and every ball keeps the bits it has
    # in a pass that holds them all
    n = 60
    rng = np.random.default_rng(36)
    centers = rng.uniform(-1.5, 1.5, (n, 1))
    radii = np.exp(rng.uniform(np.log(1e-3), np.log(3.0), n))
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    whole = ball_estimates(f, centers, radii, GAUSS, oscillation=False,
                           gradient=True).gradient
    sizes = []
    real = oscillation._gauss_gradient

    def counting(f, a, r):
        sizes.append(a.size)
        return real(f, a, r)

    monkeypatch.setattr(oscillation, "_gauss_gradient", counting)
    monkeypatch.setattr(oscillation, "_EXACT_PASS", 7)
    split = ball_estimates(f, centers, radii, GAUSS, oscillation=False,
                           gradient=True).gradient
    live = ~oscillation.flat_balls(f, centers, radii[:, None])[:, 0]
    assert 7 < live.sum() < n
    assert max(sizes) == 7 and sum(sizes) == live.sum()
    assert split.tobytes() == whole.tobytes()


def test_pass_size_moves_no_bit_of_a_d1_curve(monkeypatch):
    # passes of a prime 61 balls cut the engine's batches anywhere, at a
    # ninth of the time passes of 7 take
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    spec = QuadratureSpec("gauss_1d", 8, seed=3)
    for plan in ({"samples": 256}, {"panels": 8}):
        got = set()
        for size in (61, 2048, 8192):
            monkeypatch.setattr(oscillation, "_EXACT_PASS", size)
            curve = distribution_curve(f, 2.0, default_kappa_grid(f),
                                       default_domain(f), spec, **plan)
            got.add(curve.nu.tobytes() + curve.nu_stderr.tobytes())
        assert len(got) == 1, plan


_BAD_RADII = [-0.1, 0.0, -0.0, float("nan"), float("inf"), -float("inf")]


def _ballsample_error(center, r):
    with pytest.raises(QuadratureError) as refused:
        BallSample(center, r)
    return str(refused.value)


@pytest.mark.parametrize("r", _BAD_RADII)
def test_exact_oscillation_refuses_the_balls_ballsample_refuses(r):
    # BallSample's message, before any pass evaluates f, for a scalar ball
    # and for one bad ball in an array
    f, seen = _recording(make_plateau_bump(1, 0.7, 0.5, 1.0))
    want = _ballsample_error(np.array([0.3]), r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, radius in ((0.3, r), (np.array([0.3, -0.2, 0.9]),
                                     np.array([0.2, r, 0.4]))):
            with pytest.raises(QuadratureError) as got:
                exact_oscillation_1d(f, a, radius)
            assert str(got.value) == want
        if not np.isfinite(r):
            # the same value as a centre
            want = _ballsample_error(np.array([r]), 0.2)
            for a in (r, np.array([0.3, r, 0.9])):
                with pytest.raises(QuadratureError) as got:
                    exact_oscillation_1d(f, a, 0.2)
                assert str(got.value) == want
    assert seen == []


@pytest.mark.parametrize("function_id", ["plateau:d=2:a=1:ri=0.5:ro=1",
                                         "linear:d=2:v=1,0"])
@pytest.mark.parametrize("r", _BAD_RADII)
def test_mc_oscillation_refuses_the_radii_ballsample_refuses(function_id, r):
    # a negative radius would otherwise give the reflected ball's m; radial
    # and point nodes alike refuse it before any pass reaches f
    f = parse_function_id(function_id)
    nodes = oscillation.centre_nodes(f, np.array([[0.1, 0.2], [0.3, -0.4]]),
                                     5, 16, 0)
    calls = []
    if isinstance(nodes, RadialNodes):
        nodes = dataclasses.replace(
            nodes, profile=lambda q: calls.append(q) or f.radial.profile(q))
    else:
        nodes = dataclasses.replace(
            nodes, ev=lambda x: calls.append(x) or f.eval(x))
    want = _ballsample_error(np.array([0.1, 0.2]), r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for radii, rows in ((np.array([r]), np.array([0])),
                            (np.array([0.2, r, 0.4]), np.array([0, 1, 1]))):
            with pytest.raises(QuadratureError) as got:
                mc_oscillation(nodes, radii, rows)
            assert str(got.value) == want
    assert calls == []


def test_centre_nodes_probe_catches_a_stale_profile_off_the_support():
    # a stale eval = 2 f agrees with the profile at centres off the support,
    # where both are 0; the probe's ray through each piece still sees it,
    # so the chunk takes the point route and measures the new eval
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    stale = dataclasses.replace(f, eval=lambda x: 2.0 * f.eval(x))
    centers = np.array([[1.1, 1.1], [1.2, -1.15]])
    rows = np.array([0, 1, 0, 1])
    radii = np.array([0.8, 1.0, 1.5, 2.5])
    nodes = oscillation.centre_nodes(stale, centers, 7, 256, 0)
    assert isinstance(nodes, PointNodes)
    point = oscillation.centre_nodes(dataclasses.replace(stale, radial=None),
                                     centers, 7, 256, 0)
    m = mc_oscillation(nodes, radii, rows)
    np.testing.assert_array_equal(m, mc_oscillation(point, radii, rows))
    true = oscillation.centre_nodes(f, centers, 7, 256, 0)
    assert isinstance(true, RadialNodes)
    assert np.all(m > 0.0)
    np.testing.assert_allclose(m, 2.0 * mc_oscillation(true, radii, rows),
                               rtol=1e-12)
    # a Radial without breakpoints, which the radial rule refuses, takes
    # the point route as well
    bare = dataclasses.replace(
        f, radial=catalog.Radial(f.radial.center, f.radial.profile))
    assert isinstance(oscillation.centre_nodes(bare, centers, 7, 256, 0),
                      PointNodes)


# ---------------------------------------------------------------------------
# memory layout of the Monte Carlo ball points
# ---------------------------------------------------------------------------

def _mc_deviations_point_major(ev, centers, radii, u_out, u_in, rows):
    # the kernel as written for nodes stored one point per row, (..., n, d)
    c = centers[rows][..., None, :]
    r = np.asarray(radii, dtype=float)[..., None, None]
    ru = r * u_in[rows]
    dev = np.asarray(ev(c + r * u_out[rows]), dtype=float)
    pair_sums = (np.asarray(ev(c + ru), dtype=float)
                 + np.asarray(ev(c - ru), dtype=float))
    dev -= 0.5 * pair_sums.mean(axis=-1)[..., None]
    return dev, pair_sums


@pytest.mark.parametrize("f", [
    make_plateau_bump(1, 1.0, 0.5, 1.0),
    make_plateau_bump(2, 1.0, 0.5, 1.0),
    make_plateau_bump(3, -2.0, 0.3, 0.9),
    make_linear(3, [0.3, -1.7, 2.9]),
    make_ball_indicator(3, 0.5),
], ids=lambda f: f.function_id)
def test_mc_deviations_match_the_point_major_formula(f):
    # coordinate-major nodes change the layout, not one bit of the result
    d, n, m, c_rows = f.dim, 96, 48, 7
    centers = stream(6, 1).uniform(-1.2, 1.2, size=(c_rows, d))
    u_out = np.stack([unit_ball_nodes(d, n, stream(6, 2, i))
                      for i in range(c_rows)])
    u_in = np.stack([unit_ball_nodes(d, m, stream(6, 3, i))
                     for i in range(c_rows)])
    rows = np.array([0, 3, 3, 6, 1, 5, 2, 4, 0])
    radii = np.geomspace(1e-3, 3.0, rows.size)
    want = _mc_deviations_point_major(f.eval, centers, radii, u_out, u_in,
                                      rows)
    got = mc_deviations(f.eval, centers, radii,
                        np.ascontiguousarray(np.swapaxes(u_out, 1, 2)),
                        np.ascontiguousarray(np.swapaxes(u_in, 1, 2)), rows)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_mc_deviations_antithetic_pairs_kill_the_odd_part():
    # the inner pass pairs u with -u, so the mean of f = 5 + (x0 - c0)^3,
    # odd about the center up to the constant, is 5 to roundoff
    c = np.array([0.3, -0.1])
    u_out = np.ascontiguousarray(unit_ball_nodes(2, 64, stream(3, 0)).T)
    u_in = np.ascontiguousarray(unit_ball_nodes(2, 1024, stream(3, 1)).T)
    _, pair_sums = mc_deviations(lambda x: 5.0 + (x[..., 0] - c[0]) ** 3,
                                 c, 1.0, u_out, u_in)
    assert abs(0.5 * pair_sums.mean() - 5.0) <= 1e-12


@pytest.mark.parametrize("function_id", ["plateau:d=2:a=1:ri=0.5:ro=1",
                                         "linear:d=3:v=1,2,2"])
def test_single_ball_and_batch_share_one_estimator(function_id):
    # q_oscillation at q = 1 and mc_oscillation run one estimator: on the
    # spec's node sets, which _ball_nodes draws, each ball's m has the
    # same bits from either entry
    f = parse_function_id(function_id)
    spec = _mc(seed=4, n=512)
    u_out = oscillation._ball_nodes(f.dim, 512, 4, KEY_OUTER)
    u_in = oscillation._ball_nodes(f.dim, oscillation.inner_count(512), 4,
                                   KEY_INNER)
    centers = stream(4, 1).uniform(-1.2, 1.2, size=(5, f.dim))
    radii = np.geomspace(0.05, 2.0, 5)
    nodes = PointNodes(f.eval, centers,
                       np.broadcast_to(u_out, (5,) + u_out.shape),
                       np.broadcast_to(u_in, (5,) + u_in.shape))
    batch = mc_oscillation(nodes, radii, np.arange(5))
    for a, r, m in zip(centers, radii, batch):
        one = q_oscillation(f, BallSample(a, r), 1.0, spec).value
        assert np.float64(one).tobytes() == m.tobytes()


def test_mc_oscillation_passes_keep_each_pair_bits(monkeypatch):
    # passes of two pairs give each (row, radius) pair the bits of one
    # pass over all of them, and no f.eval call exceeds the pass budget
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    d, n, m, c_rows = 2, 96, 48, 7
    centers = stream(6, 1).uniform(-1.2, 1.2, size=(c_rows, d))
    u_out = np.stack([unit_ball_nodes(d, n, stream(6, 2, i)).T
                      for i in range(c_rows)])
    u_in = np.stack([unit_ball_nodes(d, m, stream(6, 3, i)).T
                     for i in range(c_rows)])
    rows = np.array([0, 3, 3, 6, 1, 5, 2, 4, 0])
    radii = np.geomspace(1e-3, 3.0, rows.size)
    dev, _ = mc_deviations(f.eval, centers, radii, u_out, u_in, rows)
    whole = np.abs(dev).mean(axis=-1)
    sizes = []

    def ev(x):
        sizes.append(math.prod(x.shape[:-1]))
        return f.eval(x)

    monkeypatch.setattr(oscillation, "BLOCK_POINTS", 2 * (n + 2 * m) + 1)
    split = mc_oscillation(PointNodes(ev, centers, u_out, u_in), radii, rows)
    assert split.tobytes() == whole.tobytes()
    assert len(sizes) == 3 * math.ceil(rows.size / 2)
    assert max(sizes) == 2 * n <= oscillation.BLOCK_POINTS


def _radial_nodes(f, centers, u_out, u_in):
    # the features of RadialNodes from point-major node sets (C, n, d)
    y = centers - f.radial.center
    return RadialNodes(f.radial.profile, coordinate_dot(y, y),
                       2.0 * coordinate_dot(u_out, y[:, None]),
                       coordinate_dot(u_out, u_out),
                       2.0 * coordinate_dot(u_in, y[:, None]),
                       coordinate_dot(u_in, u_in))


def _point_nodes(f, centers, u_out, u_in):
    # PointNodes from point-major node sets (C, n, d)
    return PointNodes(f.eval, centers,
                      np.ascontiguousarray(np.swapaxes(u_out, 1, 2)),
                      np.ascontiguousarray(np.swapaxes(u_in, 1, 2)))


def test_mc_oscillation_on_radial_nodes_keeps_each_pair_bits(monkeypatch):
    # radial nodes split their batch as point nodes do: passes of
    # two pairs give each pair the bits of one pass over all of them, no
    # profile call exceeds the pass budget, and m agrees with the generic
    # route on the same nodes up to the rounding of |x - c|^2
    f = translate(make_plateau_bump(2, 1.0, 0.5, 1.0), [0.2, -0.1])
    d, n, m, c_rows = 2, 96, 48, 7
    centers = stream(6, 1).uniform(-1.2, 1.2, size=(c_rows, d))
    u_out = np.stack([unit_ball_nodes(d, n, stream(6, 2, i))
                      for i in range(c_rows)])
    u_in = np.stack([unit_ball_nodes(d, m, stream(6, 3, i))
                     for i in range(c_rows)])
    nodes = _radial_nodes(f, centers, u_out, u_in)
    rows = np.array([0, 3, 3, 6, 1, 5, 2, 4, 0])
    radii = np.geomspace(1e-3, 3.0, rows.size)
    whole = mc_oscillation(nodes, radii, rows)
    generic = mc_oscillation(_point_nodes(f, centers, u_out, u_in), radii,
                             rows)
    np.testing.assert_allclose(whole, generic, rtol=0.0, atol=1e-14)
    sizes = []

    def profile(q):
        sizes.append(q.size)
        return f.radial.profile(q)

    monkeypatch.setattr(oscillation, "BLOCK_POINTS", 2 * (n + 2 * m) + 1)
    split = mc_oscillation(dataclasses.replace(nodes, profile=profile),
                           radii, rows)
    assert split.tobytes() == whole.tobytes()
    assert sizes == [2 * (n + 2 * m)] * 4 + [n + 2 * m]


def test_radial_nodes_clamp_rounding_below_zero():
    # a ball whose centre sits at -r u from c for one of its outer nodes u
    # puts that point on c; q = |y|^2 + r (2 y.u + r |u|^2) can then round
    # below 0, where sqrt would give NaN, and the kernel clamps it to 0
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    u_out = unit_ball_nodes(1, 64, stream(7, 0))[None]
    u_in = unit_ball_nodes(1, 32, stream(7, 1))[None]
    r = 0.75
    for u in u_out[0, :, 0]:
        y = np.array([-r * u])
        nodes = _radial_nodes(f, y[None], u_out, u_in)
        q = nodes.yy + r * (nodes.out_dot + r * nodes.out_sq)
        if q.min() < 0.0:
            break
    assert q.min() < 0.0
    m = mc_oscillation(nodes, np.array([r]), np.array([0]))
    assert np.isfinite(m).all()
    np.testing.assert_allclose(
        m, mc_oscillation(_point_nodes(f, y[None], u_out, u_in),
                          np.array([r]), np.array([0])), rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# float32 radial node features
# ---------------------------------------------------------------------------

_FEATURES = ("yy", "out_dot", "out_sq", "in_dot", "in_sq")


def _plateau_images(d):
    f = make_plateau_bump(d, 1.0, 0.5, 1.0)
    return [f, translate(f, [0.3] + [-0.2] * (d - 1)), dilate(f, 0.4),
            dilate(f, 2.5), scale_values(f, -2.0)]


@pytest.mark.parametrize("d", [2, 3])
def test_centre_nodes_float32_features_are_the_float64_ones_rounded(d):
    # the float32 features are the float64 ones cast, bit for bit, and m
    # comes back in float64 whatever the features' dtype
    f = translate(make_plateau_bump(d, 1.0, 0.5, 1.0), [0.3] * d)
    centers = stream(8, d).uniform(-1.5, 1.5, size=(5, d))
    wide, narrow = (oscillation.centre_nodes(f, centers, 3, 96, 17, dtype)
                    for dtype in (np.float64, np.float32))
    assert isinstance(narrow, RadialNodes)
    for name in _FEATURES:
        got = getattr(narrow, name)
        assert got.dtype == np.float32, name
        assert got.tobytes() == getattr(wide, name).astype(
            np.float32).tobytes(), name
    rows = np.array([0, 4, 2, 2])
    radii = np.array([0.1, 0.7, 1.3, 9.0])
    m = mc_oscillation(narrow, radii, rows)
    assert m.dtype == np.float64
    np.testing.assert_allclose(m, mc_oscillation(wide, radii, rows),
                               rtol=0.0, atol=1e-6)
    # point nodes hold no features and stay float64
    point = oscillation.centre_nodes(make_linear(d, [1.0] * d), centers, 3,
                                     96, 17, np.float32)
    assert isinstance(point, PointNodes)
    assert point.u_out.dtype == point.u_in.dtype == np.float64


@pytest.mark.parametrize("d", [2, 3])
def test_float32_profiles_keep_their_dtype_and_their_zero(d):
    # a profile that upcast float32 would give the float32 route's time
    # back; and B takes f = 0 past the support in float32 exactly.  The
    # indicator, whose curve stays float64, keeps its input's dtype too
    ind = make_ball_indicator(d, 0.5)
    for f in _plateau_images(d) + [
            ind, make_ball_indicator(d, 0.5, center=[0.2] + [-0.1] * (d - 1)),
            dilate(ind, 2.5)]:
        q = np.linspace(0.0, 4.0 * f.support_radius ** 2, 1001,
                        dtype=np.float32)
        vals = f.radial.profile(q.copy())
        assert vals.dtype == np.float32, f.function_id
        outside = q > f.support_radius ** 2
        assert outside.any() and np.all(vals[outside] == 0.0), f.function_id
        nodes = oscillation.centre_nodes(
            f, np.zeros((2, d)), 4, 32, 0, np.float32)
        dev, pair_sums = nodes.deviations(np.array([0.3, 2.0]),
                                          np.array([0, 1]))
        assert dev.dtype == pair_sums.dtype == np.float32, f.function_id


def _budget_balls(f, count, n, seed):
    # count balls near c (centres in the default window, r log-uniform up
    # to r_max) and count far ones (centres at R to R n^(1/d) from c, their
    # spheres through the support), where |y| + r is large against the
    # support and the rounding of q moves m most
    dom = default_domain(f)
    d, big_r = f.dim, f.support_radius
    rng = stream(77, seed)
    near = rng.uniform(dom.box[0][0], dom.box[0][1], size=(count, d))
    r_near = np.exp(rng.uniform(math.log(dom.r_min), math.log(dom.r_max),
                                count))
    t = rng.uniform(big_r, big_r * n ** (1.0 / d), count)
    z = rng.standard_normal((count, d))
    far = f.radial.center + t[:, None] * z / np.linalg.norm(
        z, axis=1, keepdims=True)
    r_far = t + big_r * rng.uniform(-1.0, 1.0, count)
    return np.concatenate([near, far]), np.concatenate([r_near, r_far])


@pytest.mark.parametrize("d", [2, 3])
def test_float32_radial_route_stays_within_its_budget(d):
    # B bounds the gap's expectation over the node draw; with n share >= 1
    # support nodes per ball on average, as on these balls, a draw stays
    # near it.  The far balls of d = 2 are where the q term of B is needed:
    # 6 to 13 of each image's exceed B without it, by up to 3.5 times
    n = 128
    for k, f in enumerate(_plateau_images(d)):
        centers, radii = _budget_balls(f, 1000, n, 10 * d + k)
        rows = np.arange(radii.size)
        wide, narrow = (oscillation.centre_nodes(f, centers, k, n, 0, dtype)
                        for dtype in (np.float64, np.float32))
        gap = np.abs(mc_oscillation(narrow, radii, rows)
                     - mc_oscillation(wide, radii, rows))
        budget = oscillation.float32_budget(f, radii, n)
        assert np.all(gap <= budget), f.function_id
        # the float32 route rounds m, it does not take another estimator
        assert np.mean(gap > 0.0) > 0.3, f.function_id


def test_float32_budget_is_largest_at_the_support_radius():
    # in d >= 2 B is bounded in r and peaks at r = R, which the curve's
    # choice of dtype reads; in d = 1 it has no bound
    for d in (2, 3):
        for f in _plateau_images(d):
            r = f.support_radius * np.geomspace(1e-6, 1e6, 1201)
            top = oscillation.float32_budget(f, f.support_radius, 512)
            assert np.all(oscillation.float32_budget(f, r, 512)
                          <= top * (1.0 + 1e-12)), f.function_id
    with pytest.raises(ValueError, match="d >= 2"):
        oscillation.float32_budget(make_plateau_bump(1, 1.0, 0.5, 1.0), 1.0,
                                   512)


def _recording(f):
    """f whose eval and grad record the arrays they are handed; the radial
    certificate goes with the replaced eval, so the Monte Carlo curve hands
    its points to this eval rather than to the profile."""
    seen = []

    def ev(x):
        seen.append(x)
        return f.eval(x)

    def gr(x):
        seen.append(x)
        return f.grad(x)

    return dataclasses.replace(f, eval=ev, grad=gr, radial=None), seen


def _not_coordinate_major(seen):
    # the node axis is the contiguous one: arithmetic runs along n, not d
    return [(x.shape, x.strides) for x in seen
            if not x.strides[-1] > x.strides[-2]]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_monte_carlo_points_reach_f_coordinate_major(d):
    f, seen = _recording(make_plateau_bump(d, 1.0, 0.5, 1.0))
    spec = _mc(seed=3, n=64)
    ball = BallSample(np.full(d, 0.3), 0.6)
    q_oscillation(f, ball, 1.0, spec)
    q_oscillation(f, ball, 2.5, spec)
    pair_oscillation(f, ball, 1.0, spec)
    maximal_gradient(f, BallSample(np.full(d, 0.6), 0.4), spec)
    dom = Domain(box=((-1.25, 1.25),) * d, r_max=5.0, r_min=1e-3)
    curve = distribution_curve(f, 2.0, np.geomspace(2.0, 2e-3, 9), dom,
                               spec, samples=16)
    assert curve.counters["below_floor"] == 0
    assert len(seen) > 10
    assert _not_coordinate_major(seen) == []


# ---------------------------------------------------------------------------
# the single-ball node sets
# ---------------------------------------------------------------------------

def _count_draws(monkeypatch):
    calls = []
    real = oscillation.unit_ball_nodes

    def counting(d, n, rng):
        calls.append((d, n))
        return real(d, n, rng)

    monkeypatch.setattr(oscillation, "unit_ball_nodes", counting)
    return calls


def test_local_expansion_draws_each_node_set_once(monkeypatch):
    # five balls under one spec share its outer and inner sets
    calls = _count_draws(monkeypatch)
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    rep = check_local_expansion(f, 5, _mc(seed=8, n=256))
    assert sum(c.name.startswith("expansion[") for c in rep.cases) == 5
    assert calls == [(2, 256), (2, 128)]


def test_maximal_domination_draws_two_node_sets_per_call(monkeypatch):
    # six balls under one spec share its outer and inner sets, and the
    # gradient average reuses the outer set the oscillation takes
    calls = _count_draws(monkeypatch)
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    check_maximal_domination(f, 6, _mc(seed=8, n=256))
    assert calls == [(2, 256), (2, 128)]


@pytest.mark.parametrize("count", [1, 9])
def test_a_monte_carlo_call_draws_each_node_set_once(monkeypatch, count):
    # every call draws the sets it needs, once, whatever ran before: the
    # outer and inner sets for the oscillation, the outer set alone for a
    # gradient average, and none for a gradient average on balls where f
    # is certified constant
    calls = _count_draws(monkeypatch)
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    spec = _mc(seed=8, n=256)
    centers = stream(8, 1).uniform(-1.2, 1.2, size=(count, 2))
    radii = np.geomspace(0.05, 2.0, count)
    core = np.zeros((count, 2))
    for what, balls, want in [
            ({}, (centers, radii), [(2, 256), (2, 128)]),
            ({}, (centers, radii), [(2, 256), (2, 128)]),
            ({"gradient": True}, (centers, radii), [(2, 256), (2, 128)]),
            ({"oscillation": False, "gradient": True}, (centers, radii),
             [(2, 256)]),
            ({"oscillation": False, "gradient": True}, (core, radii / 10),
             [])]:
        calls.clear()
        ball_estimates(f, *balls, spec, **what)
        assert calls == want, what


def _parent_mc_ball(f, a, r, q, u_out, u_in):
    # the per-ball Monte Carlo estimate in Python floats, as one ball
    # alone computes it: mu from the antithetic pair sums, then the power
    # mean of |f - mu|^q with the delta method's error plus mu's
    x = a[:, None] + r * u_out
    dev = np.asarray(f.eval(np.swapaxes(x, -1, -2)), dtype=float)
    ru = r * u_in
    pairs = (np.asarray(f.eval(np.swapaxes(a[:, None] + ru, -1, -2)))
             + np.asarray(f.eval(np.swapaxes(a[:, None] - ru, -1, -2))))
    dev -= 0.5 * pairs.mean(axis=-1)
    half = u_in.shape[-1]
    se_mu = float(np.std(0.5 * pairs, ddof=1) / np.sqrt(half))
    y = np.array([v ** q for v in np.abs(dev).tolist()])
    m_q = float(np.mean(y))
    se_m = float(np.std(y, ddof=1) / np.sqrt(y.size))
    if q == 1.0:
        return m_q, se_m + se_mu
    if m_q <= 0.0:
        return 0.0, se_mu
    return (m_q ** (1.0 / q),
            (1.0 / q) * m_q ** (1.0 / q - 1.0) * se_m + se_mu)


@pytest.mark.parametrize("q", [1.0, 2.0, 2.5])
def test_a_monte_carlo_batch_keeps_each_ball_bits_across_passes(
        monkeypatch, q):
    # 50 balls with the gradient at 512 nodes take 3 * 512 points each, so
    # 21 balls a pass: each ball's value and std_error are its one-ball
    # q_oscillation's bits, its gradient is its maximal_gradient, and a
    # ball on which f is certified constant reads a gradient of 0
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    spec = _mc(seed=6, n=512)
    centers = stream(6, 1).uniform(-1.6, 1.6, size=(50, 2))
    radii = np.geomspace(0.02, 2.5, 50)
    centers[:4] = [[0.0, 0.0], [0.1, -0.1], [3.0, 0.0], [0.0, -4.0]]
    radii[:4] = [0.3, 0.2, 0.5, 1.0]
    sizes = []
    real = oscillation._mc_pass_estimates

    def counting(f, centers, *args):
        sizes.append(len(centers))
        return real(f, centers, *args)

    monkeypatch.setattr(oscillation, "_mc_pass_estimates", counting)
    got = ball_estimates(f, centers, radii, spec, q, gradient=True)
    assert sizes == [21, 21, 8]
    flat = oscillation.flat_balls(f, centers, radii[:, None])[:, 0]
    assert flat[:4].all() and 10 < np.count_nonzero(~flat) < 50
    assert np.all(got.gradient[flat] == 0.0)
    assert np.all(got.gradient[~flat] > 0.0)
    u_out = oscillation._ball_nodes(2, 512, 6, KEY_OUTER)
    u_in = oscillation._ball_nodes(2, 256, 6, KEY_INNER)
    for i, (a, r) in enumerate(zip(centers, radii)):
        one = q_oscillation(f, BallSample(a, r), q, spec)
        assert got.value[i].tobytes() == np.float64(one.value).tobytes()
        assert (got.std_error[i].tobytes()
                == np.float64(one.std_error).tobytes())
        assert (one.value, one.std_error) == _parent_mc_ball(
            f, a, r, q, u_out, u_in)
        assert got.gradient[i] == maximal_gradient(f, BallSample(a, r), spec)
