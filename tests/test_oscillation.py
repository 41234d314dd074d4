"""Ball oscillation evaluators: closed forms, q-ladder, transform laws."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab import (
    BallSample,
    Domain,
    QuadratureError,
    QuadratureSpec,
    UnsupportedFunctionError,
    dilate,
    distribution_curve,
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
from osclab import oscillation
from osclab.catalog import coordinate_dot
from osclab.oscillation import (PointNodes, RadialNodes, mc_deviations,
                                mc_oscillation)
from osclab.quadrature import KEY_INNER, KEY_OUTER, KEY_PAIR
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
    # inside the core, [-0.2, 0.2]: the edges are clip(-1), clip(-0.5),
    # clip(0.5), clip(1) between the ends, [-.2, -.2, -.2, .2, .2, .2], so
    # 1 of 5 segments is live.  Inner mean: 1 x 8 = 8.  Root search: the 2
    # ends, which the 4 clipped breakpoints copy, and f - mu has no sign
    # change (f is constant).  The refined edges put each segment's right
    # end after it as a placeholder,
    # [-.2, -.2, -.2, -.2, -.2, .2, .2, .2, .2, .2, .2]: 1 of 10 live, 8.
    # 8 + 2 + 8 = 18 (the dense rule: 40 + 6 + 80 = 126).
    (0.0, 0.2, 18),
    # straddling ri, [0.3, 0.7]: edges [.3, .3, .3, .5, .7, .7], 2 live
    # segments, 16.  Root search: the 2 ends and the breakpoint .5 inside,
    # then f - mu changes sign on [.5, .7] only (f = 1 > mu at .5, f < mu
    # at .7), 30 bisection steps of one point, 33.  Refined: [.3, .3, .3,
    # .3, .3, .5, .5, root, .7, .7, .7], 3 live, 24.  16 + 33 + 24 = 73
    # (dense: 40 + 36 + 80 = 156).
    (0.5, 0.2, 73),
])
def test_exact_oscillation_1d_evaluates_live_segments_only(a, r, points):
    f, seen = _eval_counted(make_plateau_bump(1, 1.0, 0.5, 1.0))
    exact_oscillation_1d(f, a, r)
    assert seen[0] == points


@pytest.mark.parametrize("f", [
    make_plateau_bump(1, 1.0, 0.5, 1.0),
    make_plateau_bump(1, -2.0, 0.3, 0.9),
    make_ball_indicator(1, 0.5, center=[0.25]),
], ids=lambda f: f.function_id)
def test_root_refined_edges_follow_the_sign_of_f_at_every_edge(f):
    # the clipped breakpoints copy the values at the ends instead of
    # evaluating f there; the segments with a root must still be those
    # where f - mu changes sign between f's values at all K + 2 edges
    from osclab.quadrature import segment_edges, segment_mean
    rng = np.random.default_rng(7)
    a = rng.uniform(-1.5, 1.5, 400)
    r = np.exp(rng.uniform(np.log(1e-3), np.log(3.0), 400))
    edges = segment_edges(f.breakpoints_1d, a - r, a + r)
    mu = segment_mean(f.eval_1d, edges, 8)
    g = f.eval_1d(edges) - mu[..., None]
    cross = np.sign(g[..., :-1]) * np.sign(g[..., 1:]) < 0
    lo, hi = edges[..., :-1], edges[..., 1:]
    out = oscillation._root_refined_edges(f.eval_1d, edges, mu)
    roots = out[..., 1::2]
    assert cross.any()
    assert np.array_equal(out[..., 0::2], edges)
    assert np.array_equal(roots[~cross], hi[~cross])
    assert np.all((lo[cross] < roots[cross]) & (roots[cross] < hi[cross]))


@pytest.mark.parametrize("q", [1.0, 2.0])
def test_exact_oscillation_1d_bounds_its_passes(q):
    # more balls than two passes hold, pairwise disjoint, so each point f
    # sees belongs to one ball: no f.eval call may cover the balls of two
    # passes, and every ball keeps the bits it has on its own
    size = oscillation._EXACT_PASS
    n = 2 * size + 3
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
    # node sets that _ball_nodes draws for the spec, each ball's m has the
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
# the single-ball node memo
# ---------------------------------------------------------------------------

_ball_nodes = oscillation._ball_nodes


def _fresh_nodes(d, n, seed, key):
    return np.ascontiguousarray(unit_ball_nodes(d, n, stream(seed, key)).T)


@pytest.mark.parametrize("d, n, seed, key", [
    (1, 64, 3, KEY_OUTER), (2, 1000, 7, KEY_INNER), (3, 257, 11, KEY_PAIR)])
def test_ball_nodes_memo_returns_a_fresh_draw(d, n, seed, key):
    _ball_nodes.cache_clear()
    for _ in range(2):  # the miss, then the hit
        u = _ball_nodes(d, n, seed, key)
        assert u.shape == (d, n) and u.flags.c_contiguous
        assert u.tobytes() == _fresh_nodes(d, n, seed, key).tobytes()
    assert _ball_nodes.cache_info().hits == 1


def test_ball_nodes_memo_is_read_only():
    _ball_nodes.cache_clear()
    u = _ball_nodes(2, 64, 5, KEY_OUTER)
    with pytest.raises(ValueError):
        u[0, 0] = 1.0
    with pytest.raises(ValueError):
        u *= 2.0
    assert u.tobytes() == _fresh_nodes(2, 64, 5, KEY_OUTER).tobytes()


def test_ball_nodes_memo_redraws_an_evicted_set_bit_for_bit():
    _ball_nodes.cache_clear()
    kept = _ball_nodes.cache_info().maxsize
    first = _ball_nodes(2, 128, 0, KEY_OUTER).tobytes()
    for seed in range(1, kept + 3):
        _ball_nodes(2, 128, seed, KEY_OUTER)
        _ball_nodes(2, 64, seed, KEY_INNER)
    assert _ball_nodes.cache_info().currsize == kept
    misses = _ball_nodes.cache_info().misses
    assert _ball_nodes(2, 128, 0, KEY_OUTER).tobytes() == first
    assert _ball_nodes.cache_info().misses == misses + 1


def _count_draws(monkeypatch):
    calls = []
    real = oscillation.unit_ball_nodes

    def counting(d, n, rng):
        calls.append((d, n))
        return real(d, n, rng)

    _ball_nodes.cache_clear()
    monkeypatch.setattr(oscillation, "unit_ball_nodes", counting)
    return calls


def test_local_expansion_draws_each_node_set_once(monkeypatch):
    # five balls under one spec share its outer and inner sets
    calls = _count_draws(monkeypatch)
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    rep = check_local_expansion(f, 5, _mc(seed=8, n=256))
    assert sum(c.name.startswith("expansion[") for c in rep.cases) == 5
    assert calls == [(2, 256), (2, 128)]


def test_maximal_domination_draws_two_node_sets_per_ball(monkeypatch):
    # each ball has its own seed; its gradient average reuses the outer
    # set its oscillation drew
    calls = _count_draws(monkeypatch)
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    check_maximal_domination(f, 6, _mc(seed=8, n=256))
    assert calls == [(2, 256), (2, 128)] * 6
