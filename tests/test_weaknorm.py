"""Distribution curves over (center, radius): constants, closed forms,
transform laws, the jump-function divergence evaluator, and machinery."""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import lambertw

from osclab import (
    BallSample,
    Domain,
    QuadratureError,
    QuadratureSpec,
    c_d_prime,
    c_dp,
    default_domain,
    default_kappa_grid,
    distribution_curve,
    exact_oscillation_1d,
    expansion_remainder_coeff,
    indicator_measure_1d,
    interval_weight,
    kappa_grid,
    limit_extrapolate,
    make_ball_indicator,
    make_linear,
    make_plateau_bump,
    maximal_gradient,
    mean_oscillation,
    q_oscillation,
    reference_scaled_limit,
    scale_values,
    curve_summary,
    dilate,
    translate,
    default_catalog,
    parse_function_id,
    weak_sup,
    write_curve_csv,
)
from osclab import catalog, weaknorm
from osclab.oscillation import (BLOCK_POINTS, PointNodes, RadialNodes,
                                mc_oscillation)
from osclab.quadrature import KEY_CENTERS, stream
from osclab.weaknorm import (
    DistributionCurve,
    _below_floor_bracket,
    _bisect_crossings,
    _make_engine,
    _McScan,
    _resolve_sections,
    _scan_grid,
    _skip_mask,
    sample_centers,
)

GAUSS = QuadratureSpec(method="gauss_1d", node_count=8, seed=20260819)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_slope_constants_closed_form():
    assert abs(c_d_prime(1) - 0.5) <= 1e-12
    assert abs(c_d_prime(2) - 4.0 / (3.0 * math.pi)) <= 1e-12
    assert abs(c_d_prime(3) - 0.375) <= 1e-12


def test_limit_constants_closed_form():
    assert abs(c_dp(1, 2.0) - 0.125) <= 1e-12
    assert abs(c_dp(2, 2.0) - 8.0 / (9.0 * math.pi**2)) <= 1e-12
    assert abs(c_dp(1, 1.0) - 0.5) <= 1e-12
    assert abs(c_dp(3, 3.0) - 0.375**3 / 3.0) <= 1e-12


def test_expansion_remainder_coefficient():
    for d in (1, 2, 3):
        assert abs(expansion_remainder_coeff(d, 2.0)
                   - 3.0 * d / (d + 2.0) * 2.0) <= 1e-12


# ---------------------------------------------------------------------------
# radius weight
# ---------------------------------------------------------------------------

def test_interval_weight_matches_quadrature():
    for p in (1.0, 1.5, 2.0, 3.0):
        for lo, hi in [(0.1, 2.0), (0.5, 0.6), (1e-3, 1e3)]:
            val, err = quad(lambda r: r**(-p - 1), lo, hi,
                            points=[1.0] if lo < 1.0 < hi else None,
                            limit=200)
            assert abs(interval_weight(lo, hi, p) - val) <= 1e-9 * val + 10 * err


def test_interval_weight_tail():
    # integral of r^(-p-1) from R to infinity is R^(-p) / p
    for p in (1.0, 2.5):
        for R in (0.2, 3.0):
            assert abs(interval_weight(R, None, p) - R**(-p) / p) <= 1e-14
            assert interval_weight(R, np.inf, p) == interval_weight(R, None, p)
    # an infinite upper radius is the tail, in an array too
    np.testing.assert_array_equal(
        interval_weight(1.0, np.array([np.inf, 4.0]), 2.0), [0.5, 0.5 - 1 / 32])


@given(
    a=st.floats(1e-3, 10.0),
    b=st.floats(1e-3, 10.0),
    c=st.floats(1e-3, 10.0),
    p=st.floats(1.0, 4.0),
)
@settings(max_examples=80, deadline=None)
def test_interval_weight_additive(a, b, c, p):
    lo, mid, hi = sorted((a, b, c))
    whole = interval_weight(lo, hi, p)
    parts = interval_weight(lo, mid, p) + interval_weight(mid, hi, p)
    assert abs(whole - parts) <= 1e-10 * max(whole, 1e-30)


def test_interval_weight_rejects_bad_input():
    with pytest.raises(ValueError):
        interval_weight(0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        interval_weight(2.0, 1.0, 2.0)


# ---------------------------------------------------------------------------
# domain and sampling
# ---------------------------------------------------------------------------

def test_domain_validation():
    with pytest.raises(ValueError):
        Domain(box=((1.0, -1.0),), r_max=10.0, r_min=1e-4)
    with pytest.raises(ValueError):
        Domain(box=((-1.0, 1.0),), r_max=1e-4, r_min=10.0)
    d = Domain(box=((-1.0, 1.0), (0.0, 4.0)), r_max=10.0, r_min=1e-3)
    assert d.dim == 2
    assert abs(d.volume - 8.0) <= 1e-14


def test_default_domain_covers_support():
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    dom = default_domain(f)
    assert dom.dim == 2
    for lo, hi in dom.box:
        assert lo <= -f.support_radius and hi >= f.support_radius
    assert dom.r_max > 2.0 * f.support_radius


def test_default_kappa_grid_shape():
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    grid = default_kappa_grid(f)
    assert grid[0] > grid[-1] > 0
    assert grid[0] / grid[-1] >= 999.0
    ratios = grid[:-1] / grid[1:]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)


# an entry without grad_max has no bound to scale by; one with grad_max 0
# has a bound, but is constant and so has no threshold scale
@pytest.mark.parametrize("fid, message", [
    ("indicator:d=1:r=0.5", "indicator:d=1:r=0.5 has no gradient bound; "
     "pass thresholds explicitly"),
    ("linear:d=1:v=0", "linear:d=1:v=0 has grad_max 0.0: it is constant, so "
     "it has no threshold scale; pass thresholds explicitly")])
def test_default_kappa_grid_refuses_an_entry_without_a_gradient_scale(
        fid, message):
    with pytest.raises(ValueError) as exc:
        default_kappa_grid(parse_function_id(fid))
    assert str(exc.value) == message


@pytest.mark.parametrize("ratio", [1.0, 0.5, math.nan, math.inf])
def test_threshold_grids_refuse_a_ratio_not_above_one(ratio):
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="ratio"):
        default_kappa_grid(f, ratio=ratio)
    with pytest.raises(ValueError, match="ratio"):
        kappa_grid(1.0, 1e-3, ratio)


@pytest.mark.parametrize("kmax, kmin", [
    (1e-3, 1e-3), (1e-3, 1.0), (1.0, 0.0), (1.0, -1.0), (math.inf, 1.0),
    (1.0, math.nan), (math.nan, 1.0)])
def test_kappa_grid_refuses_bounds_out_of_order(kmax, kmin):
    with pytest.raises(ValueError, match="kappa_min < kappa_max"):
        kappa_grid(kmax, kmin, 10.0 ** 0.25)


@pytest.mark.parametrize("ratio", [10.0 ** 0.125, 10.0 ** 0.25, 10.0 ** 0.5,
                                   1.1, 1.5, 2.0, 3.0])
def test_kappa_grid_keeps_the_grids_it_replaced(ratio):
    # the default grid of every catalog entry with a gradient, against the
    # four-decade formula default_kappa_grid had of its own
    for f in default_catalog():
        if f.grad_max is None:
            continue
        r_typ = f.support_radius if f.support_radius is not None else 1.0
        top = c_d_prime(f.dim) * r_typ * f.grad_max
        count = int(round(4.0 / math.log10(ratio))) + 1
        want = np.geomspace(top, top * 10.0 ** -4.0, count)
        assert np.array_equal(default_kappa_grid(f, ratio=ratio), want), (
            f.function_id)


def test_kappa_grid_keeps_the_grid_of_the_2d_benchmark_flags():
    # curve --kappa-max 20 --kappa-min 0.02 --kappa-ratio 1.7782794100389228
    ratio = 1.7782794100389228
    want = np.geomspace(20.0, 0.02, 13)
    assert np.array_equal(kappa_grid(20.0, 0.02, ratio), want)
    assert ratio == 10.0 ** 0.25


def test_sample_centers_in_box_and_stratified():
    dom = Domain(box=((-1.0, 3.0), (0.0, 2.0)), r_max=5.0, r_min=1e-3)
    pts, sid, n_strata = sample_centers(dom, 300, seed=5)
    assert pts.shape == (300, 2)
    assert np.all(pts[:, 0] >= -1.0) and np.all(pts[:, 0] <= 3.0)
    assert np.all(pts[:, 1] >= 0.0) and np.all(pts[:, 1] <= 2.0)
    assert np.all(np.diff(sid) >= 0)
    counts = np.bincount(sid, minlength=n_strata)
    assert counts.max() - counts.min() <= 1
    again, _, _ = sample_centers(dom, 300, seed=5)
    np.testing.assert_array_equal(pts, again)


@pytest.mark.parametrize("d", [1, 2])
def test_sample_centers_one_cell_is_plain_uniform(d):
    # below 16 * 2^d samples the box is one stratum, whose jittered draw is
    # the plain uniform draw of the centre stream, bit for bit
    dom = Domain(box=((-1.0, 3.0), (0.0, 2.0))[:d], r_max=5.0, r_min=1e-3)
    lo = np.array([side[0] for side in dom.box])
    hi = np.array([side[1] for side in dom.box])
    for n in (1, 2, 16 * 2 ** d - 1):
        pts, sid, n_strata = sample_centers(dom, n, seed=5)
        assert n_strata == 1
        np.testing.assert_array_equal(sid, np.zeros(n, dtype=np.intp))
        u = stream(5, KEY_CENTERS).uniform(size=(n, d))
        assert pts.tobytes() == (lo + u * (hi - lo)).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_centers_splits_into_the_integer_root_of_cells(d):
    # k is the largest integer with 16 k^d <= count, also when count / 16
    # is an exact d-th power, where a float root can fall short of it
    # (64 ** (1/3) < 4)
    dom = Domain(box=((-1.0, 3.0), (0.0, 2.0), (-1.0, 1.0))[:d], r_max=5.0,
                 r_min=1e-3)
    for m in range(2, 9):
        for count, k in ((16 * m ** d, m), (16 * m ** d - 1, m - 1)):
            _, sid, n_strata = sample_centers(dom, count, seed=5)
            assert n_strata == k ** d, (count, n_strata)
            assert sid[-1] == n_strata - 1


# ---------------------------------------------------------------------------
# superlevel radius sections
# ---------------------------------------------------------------------------

def _section(f, a, kappa, dom, spec, grid=None):
    """The radius intervals where m_f(a, .) > kappa, resolved as the curve
    resolves them: one centre's engine scanned on grid (by default the
    curve's own _scan_grid), then _resolve_sections.  An interval's flags
    may hold "below_scan_floor" and "open_at_r_max"; its
    endpoint_uncertainty is the crossing tolerance, 2^-iters of a scan cell
    below r_hi (about 1e-6 * r_hi at 18 steps), or half the first scanned
    radius for a lower end below the scan."""
    centers = np.atleast_1d(np.asarray(a, dtype=float))[None, :]
    if grid is None:
        grid = _scan_grid(f, dom, kappa)
    eng = _make_engine(f, centers, spec, 0)
    scan, slopes = eng.scan(grid, _skip_mask(f, centers, grid, kappa))
    _, _, lo, hi, _, below_floor, at_r_max = _resolve_sections(
        eng, scan, slopes, grid, np.array([kappa]), 1.0)
    tol = 0.25 / 2.0 ** eng.iters
    out = []
    for i in range(lo.size):
        flags = ()
        err = tol * hi[i]
        if below_floor[i]:
            flags += ("below_scan_floor",)
            err = max(err, 0.5 * grid[0])
        if at_r_max[i]:
            flags += ("open_at_r_max",)
        out.append(SimpleNamespace(r_lo=lo[i], r_hi=hi[i], flags=flags,
                                   endpoint_uncertainty=err))
    return out


def test_linear_section_single_interval():
    # v.x exceeds threshold kappa on radii above 2 kappa / |v|, up to r_max
    f = make_linear(1, [1.0])
    dom = Domain(box=((-1.0, 1.0),), r_max=50.0, r_min=1e-4)
    ivs = _section(f, np.array([0.3]), 0.1, dom, GAUSS)
    assert len(ivs) == 1
    iv = ivs[0]
    assert abs(iv.r_lo - 0.2) <= 2e-6 * 0.2
    assert iv.r_hi == 50.0
    assert "open_at_r_max" in iv.flags


def test_indicator_section_matches_closed_form():
    # the closed form returns one (lo, hi) pair or None for the single
    # superlevel interval of the jump function
    from osclab import indicator_section_1d
    f = make_ball_indicator(1, 0.5)
    dom = Domain(box=((-1.0, 1.0),), r_max=30.0, r_min=1e-5)
    for a, k in [(0.3, 0.1), (0.45, 0.2), (0.62, 0.05), (0.0, 0.3)]:
        want = indicator_section_1d(a, k, 0.5)
        got = _section(f, np.array([a]), k, dom, GAUSS)
        assert want is not None and len(got) == 1, (a, k, got, want)
        lo, hi = want
        iv = got[0]
        assert abs(iv.r_lo - lo) <= max(3e-5 * lo, iv.endpoint_uncertainty)
        assert abs(iv.r_hi - min(hi, 30.0)) <= 3e-5 * hi


def test_indicator_section_none_cases():
    from osclab import indicator_section_1d
    assert indicator_section_1d(0.3, 0.6, 0.5) is None   # above max value
    assert indicator_section_1d(40.0, 0.3, 0.5) is None  # too far outside


def test_below_floor_crossing_is_bracketed():
    # scanning starts at r_min = 0.2 but the section reaches lower; the
    # bracket must cover the true crossing within its stated uncertainty
    f = make_ball_indicator(1, 0.5)
    dom = Domain(box=((-1.0, 1.0),), r_max=30.0, r_min=0.2)
    k = 0.1
    s = math.sqrt(1 - 2 * k)
    true_lo = 0.1 / s
    ivs = _section(f, np.array([0.4]), k, dom, GAUSS)
    assert len(ivs) == 1
    iv = ivs[0]
    assert "below_scan_floor" in iv.flags
    assert abs(iv.r_lo - true_lo) <= iv.endpoint_uncertainty


BELOW_FLOOR_INDICATORS = {
    "d2": (make_ball_indicator(2, 0.5), [0.5 + 1e-7, 0.0], [0.0, 0.0]),
    "d3": (make_ball_indicator(3, 0.5), [0.0, 0.0, -0.5 - 1e-7],
           [0.0, 0.0, 0.0]),
    "d2-translated": (translate(make_ball_indicator(2, 0.5), [0.3, -0.2]),
                      [0.8 + 1e-7, -0.2], [0.3, -0.2]),
}


@pytest.mark.parametrize("case", sorted(BELOW_FLOOR_INDICATORS))
def test_below_floor_bracket_reaches_the_sphere(case):
    # a center 1e-7 outside the sphere: m is 0 on balls that miss it and
    # well above kappa once the radius doubles, so the crossing lies in
    # [t, 2 t] for the distance t, far below the scan floor; the bracket
    # must reach down to t, which only the constancy radius certifies
    f, a, c = BELOW_FLOOR_INDICATORS[case]
    a = np.array(a)
    t = abs(float(np.linalg.norm(a - np.array(c))) - 0.5)
    kappa = 0.01
    spec = QuadratureSpec(method="monte_carlo", node_count=512, seed=7)
    assert mean_oscillation(f, BallSample(a, 2.0 * t), spec).value > kappa
    dom = Domain(box=((-1.0, 1.0),) * f.dim, r_max=5.0, r_min=5e-5)
    ivs = _section(f, a, kappa, dom, spec)
    iv = ivs[0]
    assert "below_scan_floor" in iv.flags
    assert iv.r_lo - iv.endpoint_uncertainty <= t
    assert iv.r_lo + iv.endpoint_uncertainty >= 2.0 * t
    lo, hi = _below_floor_bracket(f, a[None, :], np.array([0]), dom.r_min)
    assert 0.0 < lo[0] <= t and hi[0] == dom.r_min


@given(a=st.floats(-2.0, 2.0), c=st.sampled_from([0.0, 0.25, -0.7]),
       floor=st.floats(1e-6, 1e-2))
@settings(max_examples=200, deadline=None)
def test_below_floor_bracket_of_the_1d_indicator(a, c, floor):
    # in d = 1 the constancy radius is the distance to the nearer jump
    # c -+ R; for c = 0 it equals that breakpoint distance bit for bit;
    # off center the two round differently, by at most an ulp of |a - c|
    # and one of c -+ R
    f = make_ball_indicator(1, 0.5, center=[c])
    lo, hi = _below_floor_bracket(f, np.array([[a]]), np.array([0]), floor)
    t = min(abs(a - (c - 0.5)), abs(a - (c + 0.5)))
    want = min(max(t, floor * 1e-6), floor * 0.999999)
    if c == 0.0:
        assert lo[0] == want
    else:
        assert lo[0] == pytest.approx(want, rel=1e-15,
                                      abs=2.0 * np.spacing(1.2))
    assert hi[0] == floor


# ---------------------------------------------------------------------------
# crossing solver
# ---------------------------------------------------------------------------

ITERS = 18


def _reference_bisection(m_at, rows, lo, hi, kappa, rising, iters):
    """Plain lockstep bisection: the midpoint of its final cell, which holds
    a crossing, is the reference the solver's crossings lie near."""
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        take_hi = (m_at(rows, mid)[0] > kappa) == rising
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)


def _pairs(m):
    """The m_at of a plain m(rows, r): it returns (m, None), as the Monte
    Carlo engine's m_at does."""
    return lambda rows, r: (m(rows, r), None)


class _Counted:
    """m_at(rows, r) wrapper that counts evaluations per row, and calls."""

    def __init__(self, m, n_rows):
        self.m = m
        self.per_row = np.zeros(n_rows, dtype=np.intp)
        self.calls = 0

    def __call__(self, rows, r):
        np.add.at(self.per_row, rows, 1)
        self.calls += 1
        return self.m(rows, r)


class _Logged:
    """m_at(rows, r) wrapper that keeps every (row, r, m) it evaluates."""

    def __init__(self, m):
        self.m = m
        self.seen = []

    def __call__(self, rows, r):
        out = self.m(rows, r)
        self.seen.append((rows.copy(), np.array(r, dtype=float),
                          out[0].copy()))
        return out

    @property
    def calls(self):
        return len(self.seen)


def _evaluated_sides(m, rows, lo, hi, kappa, rising, m_lo, m_hi):
    """Per bracket, the points of [lo, hi] that the _Logged m evaluated on
    its row, the ends with their given values among them, and whether each
    lies on the high side."""
    ev_row, ev_r, ev_m = (np.concatenate(x) for x in zip(*m.seen))
    kappa = np.broadcast_to(kappa, rows.shape)
    for i in range(rows.size):
        sel = (ev_row == rows[i]) & (ev_r >= lo[i]) & (ev_r <= hi[i])
        pts = np.concatenate([[lo[i], hi[i]], ev_r[sel]])
        high = (np.concatenate([[m_lo[i], m_hi[i]], ev_m[sel]])
                > kappa[i]) == rising[i]
        yield pts, high


def _assert_certified(x, width, m, *brackets):
    """Each x[i] lies between an evaluated point on its bracket's low side
    and one on its high side, at most width[i] apart; brackets are the
    solve's (rows, lo, hi, kappa, rising, m_lo, m_hi)."""
    for i, (pts, high) in enumerate(_evaluated_sides(m, *brackets)):
        a = pts[~high & (pts <= x[i])].max()
        b = pts[high & (pts >= x[i])].min()
        assert b - a <= width[i], (i, a, b, width[i])


def _assert_near_bisection(got, want, lo, hi, iters=ITERS, reach=1.0):
    """Each crossing lies within reach widths w = 2^-iters (hi - lo) of
    plain bisection's result want.  With one crossing per bracket, 1.5
    holds for any m: the crossing lies in the evaluated bracket of width w
    that holds got, and in bisection's final cell, whose centre is want; a
    smooth m, whose secant errs at second order in w, keeps within 1, and
    so does a step symmetric about kappa, whose secant is the middle of its
    bracket."""
    width = (hi - lo) / 2.0 ** iters
    assert np.all(np.abs(got - want) <= reach * width), np.max(
        np.abs(got - want) / width)


def _certified_solve(m, n_rows, rows, lo, hi, kappa, rising, iters, m_lo,
                     m_hi, slopes=None):
    """_bisect_crossings on the m_at m over n_rows rows: the crossings, each
    checked to lie in an evaluated sign change no wider than 2^-iters of
    its bracket, and the _Counted m."""
    counted = _Counted(m, n_rows)
    logged = _Logged(counted)
    got = _bisect_crossings(logged, rows, lo, hi, kappa, rising, iters, m_lo,
                            m_hi, slopes=slopes)
    _assert_certified(got, (hi - lo) / 2.0 ** iters, logged, rows, lo, hi,
                      kappa, rising, m_lo, m_hi)
    return got, counted


def _solve(m, lo, hi, kappa, rising, iters=ITERS):
    """The solver's certified crossings (_certified_solve), plain
    bisection's results, and the solver's evaluations per row."""
    rows = np.arange(lo.size)
    flags = np.full(lo.size, rising)
    got, counted = _certified_solve(_pairs(m), lo.size, rows, lo, hi, kappa,
                                    flags, iters, m(rows, lo), m(rows, hi))
    want = _reference_bisection(_pairs(m), rows, lo, hi, kappa, flags, iters)
    return got, want, counted.per_row


def _geometric_cells(n, ratio=1.25, seed=3):
    lo = np.geomspace(1e-3, 10.0, n) * np.random.default_rng(seed).uniform(
        0.9, 1.1, n)
    return lo, lo * ratio


def test_solver_matches_bisection_on_monotone_brackets():
    lo, hi = _geometric_cells(200)
    t = lo + np.random.default_rng(4).uniform(0.05, 0.95, lo.size) * (hi - lo)
    scale = 1.0 / t ** 1.5     # each row crosses kappa = 1 at its own t

    def rising_m(rows, r):
        return scale[rows] * r ** 1.5

    def falling_m(rows, r):
        return 2.0 - scale[rows] * r ** 1.5

    for m, rising in ((rising_m, True), (falling_m, False)):
        got, want, per_row = _solve(m, lo, hi, 1.0, rising)
        _assert_near_bisection(got, want, lo, hi)
        assert per_row.max() <= 2 * ITERS + 1


def test_solver_matches_bisection_on_ties_at_midpoints():
    # m(r) = r and 3 - r are exact on these dyadic brackets; kappa = 1.5 is
    # the first midpoint of three rows and the second of the last one
    lo = np.array([1.0, 1.25, 0.5, 1.0])
    hi = np.array([2.0, 1.75, 2.5, 3.0])

    def rising_m(rows, r):
        return np.asarray(r, dtype=float).copy()

    def falling_m(rows, r):
        return 3.0 - np.asarray(r, dtype=float)

    for m, rising in ((rising_m, True), (falling_m, False)):
        got, want, per_row = _solve(m, lo, hi, 1.5, rising)
        _assert_near_bisection(got, want, lo, hi)
        assert per_row.max() <= 2 * ITERS + 1


def test_solver_with_three_crossings_returns_a_crossing():
    # kappa + sin(2 pi r) rises through kappa at r = 1 and 2 and falls at
    # 1.5; every bracket holds all three
    rng = np.random.default_rng(5)
    lo = rng.uniform(0.55, 0.95, 64)
    hi = rng.uniform(2.05, 2.45, 64)
    kappa = 0.3

    def m(rows, r):
        return kappa + np.sin(2.0 * np.pi * np.asarray(r, dtype=float))

    got, _, per_row = _solve(m, lo, hi, kappa, True)
    roots = np.array([1.0, 1.5, 2.0])
    dist = np.abs(got[:, None] - roots[None, :]).min(axis=1)
    tol = (hi - lo) / 2.0 ** (ITERS + 1)
    assert np.all(dist <= tol * (1.0 + 1e-9))
    assert per_row.max() <= 2 * ITERS + 1


def test_solver_worst_case_on_a_step():
    # a jump gives the interpolation nothing to work with; the evaluation
    # count per row must still stay within twice the bisection budget
    lo, hi = _geometric_cells(100)
    t = lo + np.random.default_rng(6).uniform(0.01, 0.99, lo.size) * (hi - lo)

    def m(rows, r):
        return np.where(np.asarray(r) > t[rows], 1.0, 0.0)

    got, want, per_row = _solve(m, lo, hi, 0.5, True)
    _assert_near_bisection(got, want, lo, hi)
    assert per_row.max() <= 2 * ITERS + 1


def test_solver_saves_evaluations_on_smooth_m():
    lo, hi = _geometric_cells(300)
    t = lo + np.random.default_rng(7).uniform(0.02, 0.98, lo.size) * (hi - lo)

    def m(rows, r):
        return np.log1p(np.asarray(r) / t[rows])

    got, want, per_row = _solve(m, lo, hi, math.log(2.0), True)
    _assert_near_bisection(got, want, lo, hi)
    assert per_row.sum() <= 0.5 * lo.size * ITERS


def test_batched_solve_equals_per_threshold_calls():
    # m(row, r) = h r e^(1 - r/s) / s rises to h at r = s and falls after;
    # every threshold below 0.7 h crosses once on each side, in its own cell
    rng = np.random.default_rng(8)
    n = 40
    h = rng.uniform(1.0, 2.0, n)
    s = np.geomspace(1e-2, 10.0, n)

    def m(rows, r):
        x = np.asarray(r, dtype=float) / s[rows]
        return h[rows] * x * np.exp(1.0 - x)

    cells = []
    for kappa in (0.3, 0.5, 0.7):
        for rising in (True, False):
            # x e^(1 - x) = c at x = -W(-c / e), branch 0 below 1, -1 above
            w = lambertw(-kappa / h / math.e, 0 if rising else -1).real
            lo = -w * s / 1.25 ** rng.uniform(0.05, 0.95, n)
            cells.append((lo, 1.25 * lo, np.full(n, kappa),
                          np.full(n, rising)))

    rows = np.arange(n)
    m_at = _pairs(m)
    want = [_bisect_crossings(m_at, rows, lo, hi, kappa[0], rising, ITERS,
                              m(rows, lo), m(rows, hi))
            for lo, hi, kappa, rising in cells]
    lo, hi, kappa, rising = (np.concatenate(x) for x in zip(*cells))
    rows = np.tile(rows, len(cells))
    m_lo, m_hi = m(rows, lo), m(rows, hi)
    assert np.all((m_lo > kappa) != (m_hi > kappa))
    got, counted = _certified_solve(m_at, n, rows, lo, hi, kappa, rising,
                                    ITERS, m_lo, m_hi)
    # the rows are independent, so batching keeps every bit
    np.testing.assert_array_equal(got, np.concatenate(want))
    _assert_near_bisection(got, _reference_bisection(
        m_at, rows, lo, hi, kappa, rising, ITERS), lo, hi)
    # each center holds len(cells) brackets of the batch
    assert counted.per_row.max() <= len(cells) * (2 * ITERS + 1)
    assert counted.calls <= 2 * ITERS + 1


def _shape_value(kind, par, t, r):
    """Increasing g(r) per row, by kind: s r^par with s = t^-par,
    e^(par (r - t) / t), or log1p(r / t)."""
    out = np.empty(r.shape)
    for k, g in enumerate((lambda a, c, x: c ** -a * x ** a,
                           lambda a, c, x: np.exp(a * (x - c) / c),
                           lambda a, c, x: np.log1p(x / c))):
        sel = kind == k
        out[sel] = g(par[sel], t[sel], r[sel])
    return out


_BRACKET = st.tuples(
    st.integers(0, 2),                        # shape of m
    st.floats(0.2, 50.0),                     # power or exponential rate
    st.floats(1e-3, 10.0),                    # lo
    st.floats(1.01, 2.0),                     # hi / lo
    st.booleans(),                            # rising
    st.one_of(st.floats(0.01, 0.99),          # crossing inside the bracket
              st.lists(st.booleans(), min_size=1, max_size=8)),  # or a tie
    st.booleans())                            # lo holds a skipped cell's 0


@settings(max_examples=150, deadline=None)
@given(st.lists(_BRACKET, min_size=1, max_size=6), st.integers(4, 24))
def test_solver_matches_bisection_on_random_brackets(brackets, iters):
    # a single crossing per bracket, wherever it falls: at a random point,
    # or a tie m == kappa at a midpoint of the bisection path (reached by
    # the listed turns); a rising row's low end may hold the 0 of a skipped
    # scan cell while m there is positive and below kappa.  Each result lies
    # in an evaluated sign change of 2^-iters of its bracket, near plain
    # bisection's, within the budgets
    kind, par, lo, ratio, rising, skipped = (
        np.array([b[i] for b in brackets]) for i in (0, 1, 2, 3, 4, 6))
    hi = lo * ratio
    t = np.empty(lo.size)
    for i, where in enumerate(b[5] for b in brackets):
        if isinstance(where, float):
            t[i] = lo[i] + where * (hi[i] - lo[i])
            continue
        a, b = lo[i], hi[i]
        for go_hi in where:
            mid = 0.5 * (a + b)
            a, b = (a, mid) if go_hi else (mid, b)
        t[i] = 0.5 * (a + b)

    def m(rows, r):
        g = _shape_value(kind[rows], par[rows], t[rows], np.asarray(r, float))
        return np.where(rising[rows], g, 1.0 / g)

    rows = np.arange(lo.size)
    kappa = m(rows, t)
    m_lo, m_hi = np.where(rising & skipped, 0.0, m(rows, lo)), m(rows, hi)
    assert np.all(m(rows, lo) > 0.0)
    assert np.all((m_lo > kappa) != (m_hi > kappa))
    got, counted = _certified_solve(_pairs(m), lo.size, rows, lo, hi, kappa,
                                    rising, iters, m_lo, m_hi)
    _assert_near_bisection(got, _reference_bisection(
        _pairs(m), rows, lo, hi, kappa, rising, iters), lo, hi, iters,
        reach=1.5)
    assert counted.per_row.max() <= 2 * iters + 1
    assert counted.calls <= 2 * iters + 1


def _shape_slope(kind, par, t, r):
    """dg/dr of _shape_value's g, by kind."""
    out = np.empty(r.shape)
    for k, g in enumerate((lambda a, c, x: a * c ** -a * x ** (a - 1.0),
                           lambda a, c, x: a / c * np.exp(a * (x - c) / c),
                           lambda a, c, x: 1.0 / (c + x))):
        sel = kind == k
        out[sel] = g(par[sel], t[sel], r[sel])
    return out


# garbage slopes whose Newton targets, were they taken past step
# iters + 1, would keep the row's bracket at 1.5 times the bound
@example(brackets=[(False, (1, 2.0, 1.0, 2.0, True, 0.5, True))], iters=4,
         slopes="garbage", seed=186)
@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.booleans(), _BRACKET), min_size=1, max_size=6),
       st.integers(4, 24), st.sampled_from(["true", "garbage", "none"]),
       st.integers(0, 2 ** 32 - 1))
def test_slopes_move_where_the_solver_looks_not_what_it_returns(
        brackets, iters, slopes, seed):
    # the brackets of the property above, and steps (m jumps through kappa
    # at the crossing, with slope 0), solved with the true slopes of m,
    # with garbage slopes of random sign and scale, and without slopes:
    # each run returns a crossing in an evaluated sign change of 2^-iters of
    # its bracket, near plain bisection's, within the budgets
    step = np.array([b[0] for b in brackets])
    kind, par, lo, ratio, rising, skipped = (
        np.array([b[1][i] for b in brackets]) for i in (0, 1, 2, 3, 4, 6))
    hi = lo * ratio
    t = np.empty(lo.size)
    for i, where in enumerate(b[1][5] for b in brackets):
        if isinstance(where, float):
            t[i] = lo[i] + where * (hi[i] - lo[i])
            continue
        a, b = lo[i], hi[i]
        for go_hi in where:
            mid = 0.5 * (a + b)
            a, b = (a, mid) if go_hi else (mid, b)
        t[i] = 0.5 * (a + b)
    gen = np.random.default_rng(seed)

    def shape(rows, r):
        return np.where(step[rows],
                        np.where(r > t[rows], 2.0,
                                 np.where(r == t[rows], 1.0, 0.5)),
                        _shape_value(kind[rows], par[rows], t[rows], r))

    def m(rows, r):
        g = shape(rows, np.asarray(r, dtype=float))
        return np.where(rising[rows], g, 1.0 / g)

    def m_at(rows, r):
        r = np.asarray(r, dtype=float)
        val = m(rows, r)
        if slopes == "none":
            return val, None
        if slopes == "garbage":
            return val, (gen.choice([-1.0, 1.0], r.size)
                         * 10.0 ** gen.uniform(-9.0, 9.0, r.size))
        g = shape(rows, r)
        dg = np.where(step[rows], 0.0,
                      _shape_slope(kind[rows], par[rows], t[rows], r))
        return val, np.where(rising[rows], dg, -dg / (g * g))

    rows = np.arange(lo.size)
    kappa = m(rows, t)
    m_lo, m_hi = np.where(rising & skipped, 0.0, m(rows, lo)), m(rows, hi)
    assert np.all((m_lo > kappa) != (m_hi > kappa))
    ends = None
    if slopes != "none":
        ends = (m_at(rows, lo)[1], m_at(rows, hi)[1])
        if slopes == "true":
            # a skipped scan cell holds 0 for m and for its slope
            ends = (np.where(rising & skipped, 0.0, ends[0]), ends[1])
    got, counted = _certified_solve(m_at, lo.size, rows, lo, hi, kappa,
                                    rising, iters, m_lo, m_hi, slopes=ends)
    _assert_near_bisection(got, _reference_bisection(
        _pairs(m), rows, lo, hi, kappa, rising, iters), lo, hi, iters,
        reach=1.5)
    assert counted.per_row.max() <= 2 * iters + 1
    assert counted.calls <= 2 * iters + 1


@pytest.mark.parametrize("g, dg, kappa, rising", [
    (lambda u: u ** 1.5, lambda u: 1.5 * u ** 0.5, 1.0, True),
    (lambda u: u ** -2.0, lambda u: -2.0 * u ** -3.0, 1.0, False),
    (lambda u: u ** 20, lambda u: 20.0 * u ** 19, 1.0, True),
    (np.log1p, lambda u: 1.0 / (1.0 + u), math.log(2.0), True)],
    ids=["r^1.5", "r^-2", "r^20", "log1p"])
def test_true_slopes_solve_smooth_rows_in_three_evaluations(g, dg, kappa,
                                                            rising):
    # m(row, r) = g(r / t) crosses kappa at the row's t, anywhere in its
    # cell.  With the true slopes each row takes the Hermite step, one
    # Newton step and the Newton step carried eps / 2 past the crossing,
    # which straddles it: at most 3 evaluations per row and 3 calls of m,
    # and a secant within 1e-10 of the cell's width of t
    lo, hi = _geometric_cells(2000)
    t = lo + np.random.default_rng(9).uniform(0.0, 1.0, lo.size) * (hi - lo)

    def m_at(rows, r):
        u = np.asarray(r, dtype=float) / t[rows]
        return g(u), dg(u) / t[rows]

    rows = np.arange(lo.size)
    got, counted = _certified_solve(
        m_at, lo.size, rows, lo, hi, kappa, np.full(lo.size, rising), ITERS,
        g(lo / t), g(hi / t), slopes=(dg(lo / t) / t, dg(hi / t) / t))
    assert counted.per_row.max() <= 3
    assert counted.calls <= 3
    assert np.all(np.abs(got - t) <= 1e-10 * (hi - lo))


def _mean_evaluations(m, lo, hi, kappa, rising):
    rows = np.arange(lo.size)
    counted = _Counted(_pairs(m), lo.size)
    _bisect_crossings(counted, rows, lo, hi, kappa, np.full(lo.size, rising),
                      ITERS, m(rows, lo), m(rows, hi))
    return counted.per_row.mean()


def test_solver_evaluations_per_bracket():
    # the crossing search's work, independent of the machine: smooth m
    # needs about 4 evaluations of m per bracket, a steep power law about
    # 9, where an ITP phase (Oliveira and Takahashi 2020) needs about 6.7
    # and 16
    lo, hi = _geometric_cells(300)
    t = lo + np.random.default_rng(7).uniform(0.02, 0.98, lo.size) * (hi - lo)
    assert _mean_evaluations(lambda rows, r: np.log1p(np.asarray(r) / t[rows]),
                             lo, hi, math.log(2.0), True) <= 5.0
    lo, hi = _geometric_cells(200)
    t = lo + np.random.default_rng(4).uniform(0.05, 0.95, lo.size) * (hi - lo)
    scale = 1.0 / t ** 1.5
    assert _mean_evaluations(lambda rows, r: scale[rows] * r ** 1.5,
                             lo, hi, 1.0, True) <= 5.0
    assert _mean_evaluations(lambda rows, r: 2.0 - scale[rows] * r ** 1.5,
                             lo, hi, 1.0, False) <= 5.0
    lo, hi = _geometric_cells(200, ratio=2.0)
    t = lo + np.random.default_rng(4).uniform(0.05, 0.95, lo.size) * (hi - lo)
    scale = 1.0 / t ** 20
    assert _mean_evaluations(lambda rows, r: scale[rows] * r ** 20,
                             lo, hi, 1.0, True) <= 14.0


# ---------------------------------------------------------------------------
# the Monte Carlo crossing budget
# ---------------------------------------------------------------------------

MC512 = QuadratureSpec(method="monte_carlo", node_count=512, seed=11)


def test_mc_crossing_budget_from_the_node_count():
    # k = ceil(log2(0.25 sqrt(n))), clipped to [1, 18]: 2^-k of a scan cell
    # [r, 1.25 r] is at most r / sqrt(n) wide wherever k is not clipped
    iters = weaknorm._mc_crossing_iters
    assert [iters(n) for n in (1, 16, 64, 128, 512, 65536, 2 ** 60)] == [
        1, 1, 1, 2, 3, 6, weaknorm._BISECT_ITERS]
    for n in range(16, 100000, 97):
        assert 0.25 / 2.0 ** iters(n) <= 1.0 / math.sqrt(n)


def _chunk_brackets(monkeypatch, f, spec, dom, kappas, count):
    """The engine of one chunk of count sampled centres, and the arguments
    its _resolve_sections hands _bisect_crossings without the slopes."""
    centers, _, _ = sample_centers(dom, count, spec.seed)
    eng = _make_engine(f, centers, spec, 0)
    grid = _scan_grid(f, dom, float(kappas[-1]))
    scan, _ = eng.scan(grid, _skip_mask(f, centers, grid, float(kappas[-1])))
    seen = []

    def record(*args, **kw):
        seen.append(args)
        return _bisect_crossings(*args, **kw)

    with monkeypatch.context() as patch:
        patch.setattr(weaknorm, "_bisect_crossings", record)
        _resolve_sections(eng, scan, None, grid, kappas, 2.0)
    (args,) = seen
    return eng, args


@pytest.mark.parametrize("power", [1, 20])
@pytest.mark.parametrize("fid, nodes", [
    ("plateau:d=2:a=1:ri=0.5:ro=1", RadialNodes),
    ("linear:d=2:v=1,0", PointNodes)])
def test_budgeted_mc_crossings_lie_in_certified_brackets(monkeypatch, fid,
                                                         nodes, power):
    # a Monte Carlo entry with a gradient solves its crossings to the node
    # budget, k = 3 at 512 nodes: each one lies in an evaluated bracket no
    # wider than 2^-k of its scan cell, so within that width of the 18-step
    # crossing.  m^20 against kappa^20 has the sides of m, and with them its
    # crossings and bisection results, but defeats the interpolation, so
    # rows run past the step cap and bisect until they meet the bound
    f = parse_function_id(fid)
    dom = Domain(box=((-1.25, 1.25),) * 2, r_max=22.5, r_min=1e-4)
    eng, args = _chunk_brackets(monkeypatch, f, MC512, dom,
                                np.geomspace(1.6, 1.6e-4, 13), 32)
    m_at, rows, lo, hi, kappa, rising, iters, m_lo, m_hi = args
    assert type(eng.nodes) is nodes
    assert eng.iters == iters == 3
    assert rows.size > 300
    m = _Logged(lambda r, x: (m_at(r, x)[0] ** power, None))
    x = _bisect_crossings(m, rows, lo, hi, kappa ** power, rising, iters,
                          m_lo ** power, m_hi ** power)
    width = (hi - lo) / 2.0 ** iters
    _assert_certified(x, width, m, rows, lo, hi, kappa ** power, rising,
                      m_lo ** power, m_hi ** power)
    assert m.calls <= 2 * iters + 1
    if power > 1:
        assert m.calls > iters + 1
    full = _bisect_crossings(m_at, rows, lo, hi, kappa, rising, ITERS, m_lo,
                             m_hi)
    assert np.all(np.abs(x - full) <= width + (hi - lo) / 2.0 ** (ITERS + 1))


def test_budgeted_solve_bisects_rows_past_the_step_cap():
    # a steep power law makes Chandrupatla's steps land close to one end,
    # so some rows are still wider than the bound after iters + 1 steps;
    # they bisect on, each row within 2 iters + 1 evaluations, and the
    # secant through the last bracket errs far below its width
    lo, hi = _geometric_cells(400)
    t = lo + np.random.default_rng(3).uniform(0.02, 0.98, lo.size) * (hi - lo)
    scale = 1.0 / t ** 20
    rows = np.arange(lo.size)
    rising = np.full(lo.size, True)
    for iters in (2, 3, 4):
        per_row = _Counted(
            _pairs(lambda r, x: scale[r] * np.asarray(x) ** 20), lo.size)
        m = _Logged(per_row)
        x = _bisect_crossings(m, rows, lo, hi, 1.0, rising, iters,
                              scale * lo ** 20, scale * hi ** 20)
        width = (hi - lo) / 2.0 ** iters
        _assert_certified(x, width, m, rows, lo, hi, 1.0, rising,
                          scale * lo ** 20, scale * hi ** 20)
        assert per_row.per_row.max() <= 2 * iters + 1
        assert np.all(np.abs(x - t) <= 0.2 * width)
        if iters > 2:
            assert np.sum(per_row.per_row > iters + 1) > 10


@pytest.mark.parametrize("fid, spec", [
    ("plateau:d=1:a=1:ri=0.5:ro=1", GAUSS),
    ("indicator:d=2:r=0.5", MC512)])
def test_18_step_crossings_lie_within_a_cell_of_plain_bisection(monkeypatch,
                                                               fid, spec):
    # the exact route, and a Monte Carlo entry without a gradient (whose
    # estimate jumps where a node crosses the sphere), solve each crossing
    # to an evaluated sign change of 2^-18 of its scan cell, within that
    # width of the 18-step bisection result, or 1.5 widths where the
    # secant crosses a jump (see _assert_near_bisection).  The indicator's
    # estimate can cross kappa several times in one scan cell; there the
    # two may pick different crossings
    f = parse_function_id(fid)
    kappas = (default_kappa_grid(f) if f.grad_max else
              np.geomspace(0.45, 4.5e-4, 13))
    eng, args = _chunk_brackets(monkeypatch, f, spec, default_domain(f),
                                kappas, 64)
    m_at, rows, lo, hi, kappa, rising, iters, m_lo, m_hi = args
    assert eng.iters == iters == ITERS
    assert rows.size > 500
    m = _Logged(m_at)
    got = _bisect_crossings(m, *args[1:])
    width = (hi - lo) / 2.0 ** ITERS
    _assert_certified(got, width, m, rows, lo, hi, kappa, rising, m_lo, m_hi)
    reach = 1.0 if f.grad is not None else 1.5
    far = np.abs(got - _reference_bisection(m_at, rows, lo, hi, kappa, rising,
                                            ITERS)) > reach * width
    assert far.sum() <= (0 if f.grad is not None else 0.01 * rows.size)


def test_exact_chunk_solve_stays_within_its_budgets():
    # with the slopes of m the Newton steps, carried eps / 2 past their
    # zero, straddle nearly every crossing within a few evaluations: the
    # chunk takes 3.11 evaluations per bracket, and 3.20 with the Newton
    # steps taken to their zero without the carry, so 3.15 pins it
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    dom = default_domain(f)
    kappas = default_kappa_grid(f)
    centers, _, _ = sample_centers(dom, 256, GAUSS.seed)
    eng = _make_engine(f, centers, GAUSS, 0)
    grid = _scan_grid(f, dom, float(kappas[-1]))
    scan, slopes = eng.scan(grid, _skip_mask(f, centers, grid,
                                             float(kappas[-1])))
    asked = []
    m_at = eng.m_at

    def counting(rows, r):
        asked.append(rows.size)
        return m_at(rows, r)

    eng.m_at = counting
    _resolve_sections(eng, scan, slopes, grid, kappas, 2.0)
    # the solve's first step evaluates every bracket once
    brackets = asked[0]
    assert brackets > 3000
    assert sum(asked) <= 3.15 * brackets
    assert len(asked) <= 2 * ITERS + 1


def test_budgeted_mc_curve_agrees_with_the_bisection_curve(monkeypatch):
    # the plateau d = 2 curve on 512 nodes, with its crossings solved to
    # the node budget and with the 18-step bisection put back, on the same
    # seed: nu agrees to 1e-4 relative at every threshold
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    dom = Domain(box=((-1.25, 1.25),) * 2, r_max=22.5, r_min=1e-4)
    grid = np.geomspace(20.0, 0.02, 13)
    budget = distribution_curve(f, 2.0, grid, dom, MC512, samples=256)
    solve = weaknorm._bisect_crossings

    def bisection(m_at, rows, lo, hi, kappa, rising, iters, m_lo, m_hi, *,
                  slopes=None):
        return solve(m_at, rows, lo, hi, kappa, rising, ITERS, m_lo, m_hi,
                     slopes=slopes)

    monkeypatch.setattr(weaknorm, "_bisect_crossings", bisection)
    full = distribution_curve(f, 2.0, grid, dom, MC512, samples=256)
    live = full.nu > 0
    assert live.sum() >= 6
    np.testing.assert_array_equal(budget.nu[~live], 0.0)
    assert not np.array_equal(budget.nu, full.nu)
    np.testing.assert_allclose(budget.nu[live], full.nu[live], rtol=1e-4,
                               atol=0.0)


def test_rule_curve_agrees_with_a_40_step_bisection_curve(monkeypatch):
    # the d = 1 plateau rule curve, whose crossings are secants through
    # evaluated brackets of 2^-18 of a scan cell, against the same curve
    # with every crossing bisected 40 times: nu agrees to roundoff at every
    # threshold (the midpoint of the 18-step bisection cell missed by
    # 1.4e-7 relative)
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    grid = default_kappa_grid(f)
    dom = default_domain(f)
    curve = distribution_curve(f, 2.0, grid, dom, GAUSS, panels=16)

    def bisection(m_at, rows, lo, hi, kappa, rising, *args, **kw):
        return _reference_bisection(m_at, rows, lo, hi, kappa, rising, 40)

    monkeypatch.setattr(weaknorm, "_bisect_crossings", bisection)
    ref = distribution_curve(f, 2.0, grid, dom, GAUSS, panels=16)
    assert np.count_nonzero(ref.nu) >= 10
    np.testing.assert_allclose(curve.nu, ref.nu, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# radius sections from the scan
# ---------------------------------------------------------------------------

@st.composite
def _step_scans(draw):
    """Step-profile rows: level[row, g] of 0..3 on the radii from the
    crossing in gap g to the one in gap g + 1, each at a drawn fraction of
    its gap, so m at grid[g] is level[row, g]; plus a set of thresholds."""
    n_rows = draw(st.integers(1, 4))
    j = draw(st.integers(2, 24))
    level = draw(st.lists(st.lists(st.integers(0, 3), min_size=j, max_size=j),
                          min_size=n_rows, max_size=n_rows))
    cut = draw(st.lists(st.lists(st.floats(0.05, 0.95), min_size=j - 1,
                                 max_size=j - 1),
                        min_size=n_rows, max_size=n_rows))
    kappas = draw(st.lists(st.sampled_from([2.5, 1.5, 0.5]), min_size=1,
                           max_size=3, unique=True))
    return level, cut, kappas


def _runs(above):
    """(first, end) grid indices of each run of True, in order."""
    edges = np.diff(np.concatenate([[0], above.astype(int), [0]]))
    return list(zip(np.nonzero(edges == 1)[0], np.nonzero(edges == -1)[0]))


# six runs from grid[0] to r_max, an empty row, and five inner runs
_MANY_RUNS = ([[3, 0] * 5 + [3], [0] * 11, [0, 2, 0, 2, 1, 2, 0, 2, 0, 2, 0]],
              [[0.5] * 10] * 3, [1.5, 0.5])


@example(scans=_MANY_RUNS)
@given(scans=_step_scans())
@settings(max_examples=150, deadline=None)
def test_sections_are_the_runs_of_the_scan(scans):
    # each run of scan cells above a threshold is one interval, however
    # many a row holds; an inner end is the crossing in the gap next to the
    # run, in an evaluated sign change of 2^-18 of that gap and near what
    # plain bisection returns there (m is a step), a run at grid[0] starts
    # at the midpoint of the below-floor bracket and one at the last radius
    # ends at r_max
    level, cut, kappas = (np.array(x, dtype=float) for x in scans)
    n_rows, j = level.shape
    grid = np.geomspace(1e-3, 10.0, j)
    cross = grid[:-1] + cut * np.diff(grid)

    def m(rows, r):
        r = np.asarray(r, dtype=float)
        return level[rows, (r[:, None] > cross[rows]).sum(axis=1)]

    f = make_ball_indicator(1, 0.5)
    centers = np.linspace(-0.9, 0.9, n_rows)[:, None]
    logged = _Logged(_pairs(m))
    eng = SimpleNamespace(m_at=logged, iters=ITERS, f=f, centers=centers)
    got = _resolve_sections(eng, level, None, grid, kappas, 2.0)
    assert all(x.shape == got[0].shape for x in got)
    # want holds None for an inner end; ends lists each as (interval, field
    # of got, row, gap, kappa, rising)
    want, ends = [], []
    for ki, kappa in enumerate(kappas):
        for row in range(n_rows):
            for first, end in _runs(level[row] > kappa):
                lo, hi, ambig = None, grid[-1], 0.0
                if first == 0:
                    blo, bhi = _below_floor_bracket(
                        f, centers, np.array([row]), grid[0])
                    lo = 0.5 * (blo[0] + bhi[0])
                    ambig = interval_weight(blo, bhi, 2.0)[0]
                else:
                    ends.append((len(want), 2, row, first, kappa, True))
                if end < j:
                    hi = None
                    ends.append((len(want), 3, row, end, kappa, False))
                want.append((ki, row, lo, hi, ambig, first == 0, end == j))
    assert len(want) == got[0].size
    for i, interval in enumerate(want):
        assert all(w is None or x[i] == w for x, w in zip(got, interval))
    if ends:
        i, field, rows, g, kappa, rising = (np.array(x) for x in zip(*ends))
        x = np.array([got[fi][ii] for fi, ii in zip(field, i)])
        lo, hi = grid[g - 1], grid[g]
        m_lo, m_hi = level[rows, g - 1], level[rows, g]
        _assert_certified(x, (hi - lo) / 2.0 ** ITERS, logged, rows, lo, hi,
                          kappa, rising, m_lo, m_hi)
        _assert_near_bisection(x, _reference_bisection(
            _pairs(m), rows, lo, hi, kappa, rising, ITERS), lo, hi, reach=1.5)


def _cosine():
    """cos(2 pi x): a breakpoint at every extremum out to |x| = 6, so the
    1-d route sees monotone pieces on every ball below r_max = 3 over the
    window (-1/2, 1/2)."""
    return catalog.TestFunction(
        function_id="cosine", dim=1,
        eval=lambda x: np.cos(2.0 * np.pi * x[..., 0]), grad=None,
        grad_lipschitz=None, support_radius=None,
        breakpoints_1d=tuple(k / 2.0 for k in range(-12, 13)))


def test_every_interval_of_a_many_interval_row_is_resolved():
    # m_f(a, .) of a cosine oscillates about 2 / pi with decaying
    # amplitude, so kappa just below it cuts the radius section into many
    # intervals; on a scan of ratio 1.02 the section lists every one, each
    # really above kappa and separated by radii below it
    f = _cosine()
    dom = Domain(box=((-0.5, 0.5),), r_max=3.0, r_min=1e-3)
    kappa = 0.63
    n = math.ceil(math.log(dom.r_max / dom.r_min) / math.log(1.02)) + 1
    grid = np.geomspace(dom.r_min, dom.r_max, n)
    centers, _, _ = sample_centers(dom, 16, GAUSS.seed)
    most = 0
    for a in centers:
        ivs = _section(f, a, kappa, dom, GAUSS, grid)
        most = max(most, len(ivs))
        lo = np.array([iv.r_lo for iv in ivs])
        hi = np.array([iv.r_hi for iv in ivs])
        inside, _ = exact_oscillation_1d(f, np.full(lo.size, a[0]),
                                         0.5 * (lo + hi), mu_nodes=8)
        between, _ = exact_oscillation_1d(f, np.full(lo.size - 1, a[0]),
                                          0.5 * (hi[:-1] + lo[1:]),
                                          mu_nodes=8)
        assert np.all(inside > kappa) and np.all(between < kappa)
        assert np.all(hi[:-1] < lo[1:])
    assert most >= 5


def test_curve_weight_of_a_many_interval_row_is_the_sum_of_its_sections():
    # the curve weight of each center is the sum of the closed-form
    # weights of the intervals its section lists on the curve's own grid
    f = _cosine()
    dom = Domain(box=((-0.5, 0.5),), r_max=3.0, r_min=1e-3)
    kappa = 0.63
    samples = 16
    cur = weaknorm._curve_engine(f, 1.0, np.geomspace(kappa, kappa * 1e-3, 8),
                                 dom, GAUSS, samples, 1)
    centers, _, _ = sample_centers(dom, samples, GAUSS.seed)
    weights = [sum(float(interval_weight(iv.r_lo, iv.r_hi, 1.0))
                   for iv in _section(f, a, kappa, dom, GAUSS))
               for a in centers]
    assert cur.nu[0] == dom.volume * np.mean(weights)
    assert cur.counters["merged"] == 0


# ---------------------------------------------------------------------------
# distribution curves
# ---------------------------------------------------------------------------

def _linear_curve(p=2.0, samples=128, seed=20260819, r_max=50.0):
    f = make_linear(1, [1.0])
    dom = Domain(box=((-0.5, 0.5),), r_max=r_max, r_min=1e-4)
    grid = np.geomspace(0.02, 2e-5, 13)
    spec = QuadratureSpec(method="gauss_1d", node_count=8, seed=seed)
    return f, distribution_curve(f, p, grid, dom, spec, samples=samples)


def test_linear_distribution_closed_form_1d():
    # every grid threshold sees kappa^p nu = c_{d,p} |v|^p |box| up to the
    # radius truncation bias (kappa / (c' |v| r_max))^p and bisection slack
    f, cur = _linear_curve()
    target = c_dp(1, 2.0) * 1.0 * 1.0
    bias = (cur.kappa_grid / (0.5 * 50.0)) ** 2.0
    dev = np.abs(cur.scaled - target * (1 - bias))
    assert dev.max() <= 3e-5 * target
    # every centre's weight is the same up to the roundoff of its crossings
    assert np.all(cur.nu_stderr <= 1e-12 * cur.nu)
    spread = cur.scaled.max() / cur.scaled.min() - 1
    assert spread <= 1e-5


def test_distribution_curve_frozen_regression():
    # the first threshold's kappa^p nu is the closed form
    # c_{1,2} (1 - (kappa / (c'_1 r_max))^2), with c'_1 = 1/2 for |v| = 1
    _, cur = _linear_curve()
    kappa = cur.kappa_grid[0]
    assert cur.scaled[0] == pytest.approx(
        c_dp(1, 2.0) * (1.0 - (kappa / (0.5 * 50.0)) ** 2), rel=1e-12)


def test_nu_decreasing_in_kappa():
    _, cur = _linear_curve()
    assert np.all(np.diff(cur.nu) > 0)  # grid is decreasing, nu grows


def test_value_scaling_law_is_exact():
    # replacing f by 2f and kappa by 2kappa reproduces nu bit for bit
    f = make_linear(1, [1.0])
    g = scale_values(f, 2.0)
    dom = Domain(box=((-0.5, 0.5),), r_max=50.0, r_min=1e-4)
    grid = np.geomspace(0.02, 2e-5, 13)
    c1 = distribution_curve(f, 2.0, grid, dom, GAUSS, samples=64)
    c2 = distribution_curve(g, 2.0, 2.0 * grid, dom, GAUSS, samples=64)
    np.testing.assert_array_equal(c1.nu, c2.nu)


def test_dilation_scaling_law():
    # f(x / s) on the dilated window multiplies the measure by s^(d - p)
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    s, p = 3.0, 2.0
    g = dilate(f, s)
    dom = Domain(box=((-1.25, 1.25),), r_max=30.0, r_min=1e-4)
    dom_s = Domain(box=((-1.25 * s, 1.25 * s),), r_max=30.0 * s,
                   r_min=1e-4 * s)
    grid = np.geomspace(0.2, 2e-4, 9)
    c1 = distribution_curve(f, p, grid, dom, GAUSS, samples=256)
    c2 = distribution_curve(g, p, grid, dom_s, GAUSS, samples=256)
    ratio = c2.nu / c1.nu
    np.testing.assert_allclose(ratio, s ** (1 - p), rtol=1e-10)


def test_threads_do_not_change_results():
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    dom = default_domain(f)
    grid = default_kappa_grid(f)
    c1 = distribution_curve(f, 2.0, grid, dom, GAUSS, samples=256, threads=1)
    c4 = distribution_curve(f, 2.0, grid, dom, GAUSS, samples=256, threads=4)
    np.testing.assert_array_equal(c1.nu, c4.nu)
    np.testing.assert_array_equal(c1.nu_stderr, c4.nu_stderr)
    # Monte Carlo in d = 2 over two chunks, each split into kernel blocks
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    dom = Domain(box=((-1.25, 1.25),) * 2, r_max=5.0, r_min=1e-3)
    spec = QuadratureSpec(method="monte_carlo", node_count=256, seed=9)
    grid = np.geomspace(2.0, 2e-3, 9)
    c1, c2 = (distribution_curve(f, 2.0, grid, dom, spec, samples=320,
                                 threads=t) for t in (1, 2))
    np.testing.assert_array_equal(c1.nu, c2.nu)
    np.testing.assert_array_equal(c1.nu_stderr, c2.nu_stderr)
    # the d = 1 centre rule on a three-piece box: 288 rule nodes and 144
    # half-panel nodes fill two chunks
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    dom = Domain(box=((-0.75, 0.75),), r_max=10.0, r_min=1e-4)
    grid = np.geomspace(0.2, 2e-4, 9)
    c1, c4 = (distribution_curve(f, 2.0, grid, dom, GAUSS, threads=t,
                                 panels=12) for t in (1, 4))
    assert c1.samples == 288
    assert c1.nu.tobytes() == c4.nu.tobytes()
    assert c1.nu_stderr.tobytes() == c4.nu_stderr.tobytes()


def test_mc_scan_columns_equal_single_radius_calls():
    # the scan and the crossing search share one kernel, so a scan column
    # is the value m_at returns at that radius, bit for bit
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    centers, _, _ = sample_centers(
        Domain(box=((-1.25, 1.25), (-1.25, 1.25)), r_max=5.0, r_min=1e-3),
        12, seed=5)
    eng = _McScan(f, centers, seed=5, node_count=64, global_start=40)
    grid = np.geomspace(1e-2, 5.0, 7)
    scan, _ = eng.scan(grid, _no_skip(f, centers, grid, 0.0))
    rows = np.arange(centers.shape[0])
    for j, r in enumerate(grid):
        np.testing.assert_array_equal(
            scan[:, j], eng.m_at(rows, np.full(rows.size, r))[0])


def test_shared_scan_keeps_slopes_where_the_kernel_gives_them():
    # both engines run _Engine.scan, which returns m with the dm/dr m_at
    # gives: the exact engine's scan keeps the kernel's m and dm/dr bit
    # for bit at every
    # evaluated cell and reads 0 in both at a skipped cell; the Monte Carlo
    # engine gives no slopes, and its scan reads mc_oscillation's bits
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    dom = default_domain(f)
    centers, _, _ = sample_centers(dom, 64, seed=7)
    grid = _scan_grid(f, dom, 1e-3)
    skip = _skip_mask(f, centers, grid, 1e-3)
    assert skip.any() and not skip.all()
    eng = _make_engine(f, centers, GAUSS, 0)
    scan, slopes = eng.scan(grid, skip)
    rows, cols = np.nonzero(~skip)
    m, _, dm = exact_oscillation_1d(f, centers[rows, 0], grid[cols],
                                    mu_nodes=GAUSS.node_count, slope=True)
    assert slopes.shape == scan.shape == skip.shape
    assert scan[rows, cols].tobytes() == m.tobytes()
    assert slopes[rows, cols].tobytes() == dm.tobytes()
    assert not scan[skip].any() and not slopes[skip].any()

    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    centers, _, _ = sample_centers(
        Domain(box=((-1.25, 1.25), (-1.25, 1.25)), r_max=5.0, r_min=1e-3),
        12, seed=5)
    grid = np.geomspace(1e-2, 5.0, 7)
    skip = _skip_mask(f, centers, grid, 0.2)
    assert skip.any() and not skip.all()
    eng = _make_engine(f, centers, QuadratureSpec("monte_carlo", 64, 5), 40)
    scan, slopes = eng.scan(grid, skip)
    assert slopes is None
    rows, cols = np.nonzero(~skip)
    assert (scan[rows, cols].tobytes()
            == mc_oscillation(eng.nodes, grid[cols], rows).tobytes())
    assert not scan[skip].any()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mc_radial_route_agrees_with_the_generic_route(d):
    # the radial route changes only the rounding of |x - c|^2: on random
    # balls, centres in the default window and radii from 1e-4 to 25, the
    # engine's m matches the generic route's (radial=None) to 1e-12
    f = make_plateau_bump(d, 1.0, 0.5, 1.0)
    centers, _, _ = sample_centers(default_domain(f), 64, seed=30 + d)
    engines = [_McScan(g, centers, seed=d, node_count=128, global_start=9)
               for g in (f, dataclasses.replace(f, radial=None))]
    assert [type(eng.nodes) for eng in engines] == [RadialNodes, PointNodes]
    rng = stream(40, d)
    rows = rng.integers(0, centers.shape[0], 2000)
    r = np.exp(rng.uniform(math.log(1e-4), math.log(25.0), rows.size))
    radial, generic = (eng.m_at(rows, r)[0] for eng in engines)
    # many balls meet the taper, where m is neither 0 nor a rounded 0
    assert np.mean(radial > 1e-6) > 0.3
    np.testing.assert_allclose(radial, generic, rtol=0.0, atol=1e-12)


# the curve-mc-2d window: its box, r_max and 13 thresholds from 20 to 0.02
_MC_2D_DOMAIN = Domain(box=((-1.25, 1.25),) * 2, r_max=22.5, r_min=1e-4)
_MC_2D_GRID = np.geomspace(20.0, 0.02, 13)


def _mc(n, seed=5):
    return QuadratureSpec(method="monte_carlo", node_count=n, seed=seed)


@pytest.mark.parametrize("fid, n, grid, want", [
    # the curve-mc-2d window and the CI smoke window
    ("plateau:d=2:a=1:ri=0.5:ro=1", 512, _MC_2D_GRID, np.float32),
    ("plateau:d=2:a=1:ri=0.5:ro=1", 128, _MC_2D_GRID, np.float32),
    # the default grids reach 1e-4 of kappa_top, below B's reach
    ("plateau:d=2:a=1:ri=0.5:ro=1", 512, None, np.float64),
    ("plateau:d=2:a=1:ri=0.5:ro=1", 128, None, np.float64),
    ("plateau:d=3:a=1:ri=0.5:ro=1", 512, None, np.float64),
    # no grad_max, no radial certificate, d = 1
    ("indicator:d=2:r=0.5", 512, np.geomspace(0.45, 4.5e-4, 13), np.float64),
    ("linear:d=2:v=1,0", 512, _MC_2D_GRID, np.float64),
    ("plateau:d=1:a=1:ri=0.5:ro=1", 512, _MC_2D_GRID, np.float64),
])
def test_curve_takes_float32_nodes_only_where_the_budget_allows(
        monkeypatch, fid, n, grid, want):
    # the dtype is picked once per curve and reaches every chunk's nodes
    f = parse_function_id(fid)
    grid = default_kappa_grid(f) if grid is None else grid
    assert weaknorm._node_dtype(f, _mc(n), float(grid[-1])) is want
    seen = []
    make = weaknorm.centre_nodes

    def recording(*args):
        seen.append(args[-1])
        return make(*args)

    monkeypatch.setattr(weaknorm, "centre_nodes", recording)
    dom = Domain(box=((-1.25, 1.25),) * f.dim, r_max=5.0, r_min=1e-3)
    distribution_curve(f, 2.0, grid, dom, _mc(8), samples=300)
    picked = weaknorm._node_dtype(f, _mc(8), float(grid[-1]))
    assert seen == [picked, picked]


def test_float32_curve_keeps_its_bytes_across_threads():
    # two chunks of the curve-mc-2d window on float32 nodes
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    spec = _mc(64, seed=9)
    assert weaknorm._node_dtype(f, spec, 0.02) is np.float32
    c1, c2 = (distribution_curve(f, 2.0, _MC_2D_GRID, _MC_2D_DOMAIN, spec,
                                 samples=320, threads=t) for t in (1, 2))
    assert c1.nu.tobytes() == c2.nu.tobytes()
    assert c1.nu_stderr.tobytes() == c2.nu_stderr.tobytes()
    assert np.any(c1.nu > 0.0)


def test_mc_curve_checks_the_radial_certificate_against_eval():
    # an eval replaced without its radial certificate no longer matches the
    # profile at the chunk's centres, so the curve takes the generic route
    # and measures the new eval, not the stale profile
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    stale = dataclasses.replace(f, eval=lambda x: 2.0 * f.eval(x))
    dom = Domain(box=((-1.25, 1.25),) * 2, r_max=5.0, r_min=1e-3)
    spec = QuadratureSpec(method="monte_carlo", node_count=64, seed=2)
    grid = np.geomspace(2.0, 2e-3, 9)
    curves = [distribution_curve(g, 2.0, grid, dom, spec, samples=64)
              for g in (f, stale, dataclasses.replace(stale, radial=None))]
    assert not np.array_equal(curves[0].nu, curves[1].nu)
    np.testing.assert_array_equal(curves[1].nu, curves[2].nu)
    np.testing.assert_array_equal(curves[1].nu_stderr, curves[2].nu_stderr)


def test_gauss_node_count_drives_exact_curve():
    # a Gaussian is no piecewise polynomial, so the inner mean's Gauss
    # order shows in the curve; node_count must reach the 1-d route
    def ev(x):
        return np.exp(-x[..., 0] ** 2)

    def gr(x):
        return -2.0 * x * np.exp(-x ** 2)

    f = catalog.TestFunction(
        function_id="gaussian", dim=1, eval=ev, grad=gr, grad_lipschitz=2.0,
        support_radius=None,
        grad_max=math.sqrt(2 / math.e), breakpoints_1d=(0.0,))
    dom = Domain(box=((-2.0, 2.0),), r_max=20.0, r_min=1e-3)
    grid = np.geomspace(0.3, 3e-4, 9)
    curves = [distribution_curve(
        f, 2.0, grid, dom,
        QuadratureSpec(method="gauss_1d", node_count=n, seed=1), samples=32)
        for n in (2, 8)]
    assert [c.node_count for c in curves] == [2, 8]
    assert not np.array_equal(curves[0].nu, curves[1].nu)


@pytest.mark.parametrize("count", [9, 17])
def test_crossing_search_calls_do_not_grow_with_thresholds(monkeypatch,
                                                           count):
    # one chunk solves every threshold's crossings in one batch, so its
    # m_at calls stay within one solve's budget of 2 * iters + 1
    engines = []
    make = weaknorm._make_engine

    def counting(f, centers, *args):
        eng = make(f, centers, *args)
        eng.m_at = _Counted(eng.m_at, centers.shape[0])
        engines.append(eng)
        return eng

    monkeypatch.setattr(weaknorm, "_make_engine", counting)
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    grid = np.geomspace(0.4, 4e-4, count)
    distribution_curve(f, 2.0, grid, default_domain(f), GAUSS, samples=256)
    assert len(engines) == 1
    assert 0 < engines[0].m_at.calls <= 2 * weaknorm._BISECT_ITERS + 1


def test_crossing_search_evaluations_per_bracket_on_a_curve(monkeypatch):
    # the brackets of a real chunk (plateau d = 1, exact route, 256 centers)
    # cost about 3.1 evaluations of m each with the slopes of m, against
    # 4.5 by Chandrupatla's steps alone and about 6.7 with an ITP phase;
    # counted on the m_at the crossing search gets
    seen = {"brackets": 0, "evaluations": 0}
    solve = weaknorm._bisect_crossings

    def counting(m_at, rows, *args, **kw):
        def counted(r, x):
            seen["evaluations"] += r.size
            return m_at(r, x)
        seen["brackets"] += rows.size
        return solve(counted, rows, *args, **kw)

    monkeypatch.setattr(weaknorm, "_bisect_crossings", counting)
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    distribution_curve(f, 2.0, default_kappa_grid(f), default_domain(f),
                       GAUSS, samples=256)
    assert seen["brackets"] > 1000
    assert seen["evaluations"] <= 4.0 * seen["brackets"]


@pytest.mark.parametrize("d", [1, 2])
def test_curve_rejects_non_finite_oscillation(d):
    # m > kappa is False for NaN, so a ball where f is not finite would
    # count as below every threshold and the curve would come out finite
    # and wrong; both routes raise instead, as single-ball queries do
    f = make_plateau_bump(d, 1.0, 0.5, 1.0)
    g = dataclasses.replace(f, eval=lambda x: np.where(
        x[..., 0] > 0.7, np.nan, f.eval(x)))
    spec = (GAUSS if d == 1 else
            QuadratureSpec(method="monte_carlo", node_count=64, seed=3))
    with pytest.raises(QuadratureError, match="non-finite"):
        distribution_curve(g, 2.0, default_kappa_grid(g), default_domain(g),
                           spec, samples=64)


def test_mc_kernel_calls_stay_within_block_budget():
    # no call on the Monte Carlo curve path gets more points than one
    # kernel block, however many rows the scan or the batch holds: f.eval
    # on the generic route (radial=None), the profile on the radial one
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    sizes = {"eval": [], "profile": []}

    def ev(x):
        sizes["eval"].append(math.prod(x.shape[:-1]))
        return f.eval(x)

    def profile(q):
        sizes["profile"].append(q.size)
        return f.radial.profile(q)

    dom = Domain(box=((-1.25, 1.25),) * 2, r_max=5.0, r_min=1e-3)
    spec = QuadratureSpec(method="monte_carlo", node_count=512, seed=4)
    for g in (dataclasses.replace(f, eval=ev, radial=None),
              dataclasses.replace(f, radial=dataclasses.replace(
                  f.radial, profile=profile))):
        distribution_curve(g, 2.0, np.geomspace(2.0, 2e-3, 9), dom, spec,
                           samples=128)
    for route, seen in sizes.items():
        assert len(seen) > 1 and max(seen) <= BLOCK_POINTS, route


@pytest.mark.parametrize("d", [1, 2])
def test_thresholds_are_solved_independently(d):
    # with r_min below the scan start of every threshold (one step below
    # its gradient skip bound) the scan grid is the same for one threshold
    # as for the whole grid, so batching the crossing search must reproduce
    # each single-threshold measure exactly; _curve_engine's node dtype
    # defaults to float64, as the whole grid's is here
    f = make_plateau_bump(d, 1.0, 0.5, 1.0)
    dom = Domain(box=((-1.25, 1.25),) * d, r_max=5.0, r_min=1e-7)
    spec = (GAUSS if d == 1 else
            QuadratureSpec(method="monte_carlo", node_count=64, seed=3))
    grid = np.geomspace(0.4, 4e-4, 9)
    scan = _scan_grid(f, dom, grid[-1])
    cur = distribution_curve(f, 2.0, grid, dom, spec, samples=64)
    for i, kappa in enumerate(grid):
        np.testing.assert_array_equal(
            _scan_grid(f, dom, kappa), scan)
        one = weaknorm._curve_engine(f, 2.0, np.array([kappa]), dom, spec,
                                     64, 1)
        assert (one.nu[0], one.nu_stderr[0]) == (cur.nu[i], cur.nu_stderr[i])


# ---------------------------------------------------------------------------
# skipped scan cells
# ---------------------------------------------------------------------------

def _skip_setup(f):
    # r_min two decades below the default, so the Lipschitz skip covers
    # several columns
    dom = default_domain(f)
    dom = dataclasses.replace(dom, r_min=1e-2 * dom.r_min)
    kappa_min = (default_kappa_grid(f)[-1] if f.grad_max is not None
                 else 1e-3)
    return dom, kappa_min


SKIP_ENTRIES = default_catalog() + [
    dilate(make_plateau_bump(1, 1.0, 0.5, 1.0), 3.0),
    scale_values(make_plateau_bump(2, 1.0, 0.5, 1.0), 0.7),
    make_ball_indicator(2, 0.5, center=[0.2, -0.1]),
]
SKIP_ROUTES = [(f, method) for f in SKIP_ENTRIES
               for method in (("gauss_1d", "monte_carlo") if f.dim == 1
                              else ("monte_carlo",))]


@pytest.mark.parametrize(
    "f,method", SKIP_ROUTES,
    ids=[f"{f.function_id}-{m}" for f, m in SKIP_ROUTES])
def test_skipped_cells_are_below_kappa_min(f, method):
    # the skip certifies the estimator, so evaluating a skipped cell on
    # either route gives a value below kappa_min, and 0 up to rounding on
    # a ball where f is constant: at most 1e-12 by Monte Carlo; the exact
    # route divides by the width it integrates over, so its inner mean is
    # |f| to an ulp or two at any radius
    dom, kappa_min = _skip_setup(f)
    centers, _, _ = sample_centers(dom, 96, seed=8)
    grid = _scan_grid(f, dom, kappa_min)
    skip = _skip_mask(f, centers, grid, kappa_min)
    assert skip.any() and not skip.all()
    spec = QuadratureSpec(method=method, node_count=64, seed=8)
    eng = _make_engine(f, centers, spec, 0)
    rows, cols = np.nonzero(skip)
    m = eng.m_at(rows, grid[cols])[0]
    assert m.max() < kappa_min
    if f.flat_radius is not None:
        a, r = centers[rows], grid[cols]
        flat = r < f.flat_radius(a)
        assert flat.any()
        if method == "gauss_1d":
            allowance = 4.0 * np.finfo(float).eps * np.abs(f.eval(a))
        else:
            allowance = np.full(rows.size, 1e-12)
        assert np.all(np.abs(m[flat]) <= allowance[flat])
    # the unskipped cells read what m_at returns there
    scan, _ = eng.scan(grid, skip)
    assert np.all(scan[skip] == 0.0)
    keep_r, keep_c = np.nonzero(~skip)
    np.testing.assert_array_equal(scan[keep_r, keep_c],
                                  eng.m_at(keep_r, grid[keep_c])[0])


def _no_skip(f, centers, grid, kappa_min):
    return np.zeros((centers.shape[0], grid.size), dtype=bool)


SKIP_CURVES = {
    "plateau-d1-exact": (
        make_plateau_bump(1, 1.0, 0.5, 1.0), GAUSS, None, None, 512),
    "plateau-d2-mc": (
        make_plateau_bump(2, 1.0, 0.5, 1.0),
        QuadratureSpec(method="monte_carlo", node_count=128, seed=11),
        Domain(box=((-1.25, 1.25),) * 2, r_max=22.5, r_min=1e-4),
        np.geomspace(20.0, 0.02, 13), 256),
    "indicator-d1-exact": (
        make_ball_indicator(1, 0.5), GAUSS,
        Domain(box=((-2.0, 2.0),), r_max=10.0, r_min=1e-3),
        np.geomspace(0.4, 4e-4, 9), 512),
    "dilated-plateau-d1-exact": (
        dilate(make_plateau_bump(1, 1.0, 0.5, 1.0), 3.0), GAUSS, None, None,
        512),
}


@pytest.mark.parametrize("case", sorted(SKIP_CURVES))
def test_skip_mask_keeps_curve_bytes_and_saves_points(monkeypatch, tmp_path,
                                                      case):
    # skipped cells only move where the crossing solve places its points,
    # so the curve is byte-identical to the one scanned at every cell,
    # while f is evaluated at fewer points
    f, spec, dom, grid, samples = SKIP_CURVES[case]
    dom = dom or default_domain(f)
    grid = default_kappa_grid(f) if grid is None else grid
    # f's points are counted where the route evaluates f: at eval on the
    # generic route (radial=None), and at the profile on the radial one
    points = []

    def ev(x):
        points.append(math.prod(x.shape[:-1]))
        return f.eval(x)

    def profile(q):
        points.append(q.size)
        return f.radial.profile(q)

    routes = {"eval": dataclasses.replace(f, eval=ev, radial=None)}
    if spec.method == "monte_carlo":
        routes["profile"] = dataclasses.replace(
            f, radial=dataclasses.replace(f.radial, profile=profile))
    for route, g in routes.items():
        out = {}
        for label in ("masked", "full"):
            with monkeypatch.context() as patch:
                if label == "full":
                    patch.setattr(weaknorm, "_skip_mask", _no_skip)
                points.clear()
                cur = distribution_curve(
                    g, 2.0 if f.grad is not None else 1.0, grid, dom, spec,
                    samples=samples)
            path = tmp_path / f"{route}-{label}.csv"
            write_curve_csv(cur, path)
            out[label] = (path.read_bytes(), sum(points))
        assert out["masked"][0] == out["full"][0], route
        assert out["masked"][1] < out["full"][1], route


GRADIENT_ENTRIES = [
    g for f in default_catalog() if f.grad_max
    for g in (f, translate(f, [0.3] + [-0.2] * (f.dim - 1)), dilate(f, 0.4),
              dilate(f, 3.0), scale_values(f, -0.7))]


@pytest.mark.parametrize("below", [False, True], ids=["r_min-above",
                                                      "r_min-below"])
@pytest.mark.parametrize("f", GRADIENT_ENTRIES, ids=lambda f: f.function_id)
def test_first_scanned_radius_is_skipped_for_gradient_entries(f, below):
    # the scan of an entry with grad_max starts one scan step below the
    # radius where the gradient skip certifies the estimate under
    # kappa_min (or at a lower r_min), so its first column is skipped on
    # every row and no section starts below the scan, on the exact route
    # in d = 1 and on the Monte Carlo route in d = 2 and 3
    kappas = default_kappa_grid(f)
    kappa_min = float(kappas[-1])
    dom = default_domain(f)
    bound = kappa_min / (2.0 * f.grad_max)
    # every default r_min sits above the start, one step below this bound
    assert bound / weaknorm._SCAN_RATIO < dom.r_min
    if below:
        dom = dataclasses.replace(dom, r_min=1e-2 * bound)
    grid = _scan_grid(f, dom, kappa_min)
    assert grid[0] <= dom.r_min
    centers, _, _ = sample_centers(dom, 64, seed=5)
    assert _skip_mask(f, centers, grid, kappa_min)[:, 0].all()
    spec = (GAUSS if f.dim == 1 else
            QuadratureSpec(method="monte_carlo", node_count=32, seed=5))
    cur = distribution_curve(f, 2.0, kappas, dom, spec, samples=32)
    assert cur.counters["below_floor"] == 0


def test_grid_validation():
    f = make_linear(1, [1.0])
    dom = Domain(box=((-0.5, 0.5),), r_max=50.0, r_min=1e-4)
    with pytest.raises(ValueError):
        distribution_curve(f, 2.0, np.geomspace(0.02, 0.01, 8), dom, GAUSS,
                           samples=8)
    with pytest.raises(ValueError):
        distribution_curve(f, 2.0, np.geomspace(1e-5, 0.02, 13), dom, GAUSS,
                           samples=8)


@pytest.mark.parametrize("samples", [1, 0])
def test_distribution_curve_needs_two_samples(samples):
    # one centre has no standard error, so no NaN may reach the curve
    f = make_linear(1, [1.0])
    dom = Domain(box=((-0.5, 0.5),), r_max=50.0, r_min=1e-4)
    with pytest.raises(ValueError, match="2 center samples"):
        distribution_curve(f, 2.0, np.geomspace(0.02, 2e-5, 13), dom, GAUSS,
                           samples=samples)


@pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
def test_distribution_curve_refuses_p_before_any_scan(monkeypatch, p):
    def no_engine(*args):
        raise AssertionError("an engine was built for a refused p")

    monkeypatch.setattr(weaknorm, "_make_engine", no_engine)
    f = make_linear(1, [1.0])
    dom = Domain(box=((-0.5, 0.5),), r_max=50.0, r_min=1e-4)
    with pytest.raises(ValueError, match="p must be"):
        distribution_curve(f, p, np.geomspace(0.02, 2e-5, 13), dom, GAUSS,
                           samples=8)


GAUSS_OFF_D1 = {
    "q_oscillation": lambda f, spec: q_oscillation(
        f, BallSample(np.zeros(2), 0.5), 2.0, spec),
    "maximal_gradient": lambda f, spec: maximal_gradient(
        f, BallSample(np.zeros(2), 0.5), spec),
    "exact_oscillation_1d": lambda f, spec: exact_oscillation_1d(
        f, 0.0, 0.5, mu_nodes=spec.node_count),
    "distribution_curve": lambda f, spec: distribution_curve(
        f, 2.0, default_kappa_grid(f), default_domain(f), spec, samples=8),
    "rule_curve": lambda f, spec: distribution_curve(
        f, 2.0, default_kappa_grid(f), default_domain(f), spec, panels=2),
}


@pytest.mark.parametrize("call", sorted(GAUSS_OFF_D1))
def test_gauss_rule_off_dimension_one_is_refused_with_one_message(
        monkeypatch, call):
    # every route that reads a gauss_1d spec refuses it in d = 2 with the
    # same message, and the curve does so before it builds an engine
    def no_engine(*args):
        raise AssertionError("an engine was built for a refused spec")

    monkeypatch.setattr(weaknorm, "_make_engine", no_engine)
    f = parse_function_id("plateau:d=2:a=1:ri=0.5:ro=1")
    with pytest.raises(QuadratureError,
                       match="^gauss_1d applies to dimension one only, "
                             "got dimension 2$"):
        GAUSS_OFF_D1[call](f, GAUSS)


def test_curve_refuses_a_radial_spec_before_any_scan(monkeypatch):
    # the curve has engines for gauss_1d and monte_carlo only: a radial
    # spec must not run the Monte Carlo engine at its Gauss order and
    # write method=radial
    def no_engine(*args):
        raise AssertionError("an engine was built for a refused spec")

    monkeypatch.setattr(weaknorm, "_make_engine", no_engine)
    f = parse_function_id("plateau:d=2:a=1:ri=0.5:ro=1")
    with pytest.raises(QuadratureError, match="no radial engine"):
        distribution_curve(f, 2.0, default_kappa_grid(f), default_domain(f),
                           QuadratureSpec("radial", 20, 3), samples=64)


# ---------------------------------------------------------------------------
# the d = 1 centre rule
# ---------------------------------------------------------------------------

# the p = 1 plateau set-up of check_bv_divergence's smooth_contrast_bounded
SMOOTH_CONTRAST = (make_plateau_bump(1, 1.0, 0.5, 1.0), 1.0,
                   np.geomspace(0.25, 0.25 * 1e-3, 9),
                   Domain(box=((-1.5, 1.5),), r_max=20.0, r_min=1e-4))


@pytest.fixture(scope="module")
def smooth_contrast_rule():
    return distribution_curve(*SMOOTH_CONTRAST, GAUSS, panels=4)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_center_rule_matches_the_linear_closed_form(p):
    # m = r / 2 for v = 1, so each centre's section is (2 kappa, r_max]
    f = parse_function_id("linear:d=1:v=1")
    dom = default_domain(f)
    grid = default_kappa_grid(f)
    curve = distribution_curve(f, p, grid, dom, GAUSS, panels=2)
    exact = dom.volume * ((2.0 * grid) ** -p - dom.r_max ** -p) / p
    # the crossing tolerance, 1e-6 in r, moves the weight by about p 1e-6
    np.testing.assert_allclose(curve.nu, exact, rtol=2e-6, atol=0.0)
    assert np.all(curve.nu_stderr <= 2e-6 * curve.nu)


def test_center_rule_error_bounds_a_rule_with_16_times_the_panels(
        smooth_contrast_rule):
    nu, err = smooth_contrast_rule.nu, smooth_contrast_rule.nu_stderr
    fine = distribution_curve(*SMOOTH_CONTRAST, GAUSS, panels=64).nu
    assert np.all(np.abs(nu - fine) <= err)
    assert np.all(err <= 1e-4 * nu)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_stratified_curve_agrees_with_the_center_rule(smooth_contrast_rule,
                                                      seed):
    nu = smooth_contrast_rule.nu
    spec = dataclasses.replace(GAUSS, seed=seed)
    curve = distribution_curve(*SMOOTH_CONTRAST, spec, samples=1024)
    assert np.all(np.abs(curve.nu - nu) <= 4.0 * curve.nu_stderr)


@pytest.mark.parametrize("spec,plan,error", [
    (GAUSS, 3, ValueError),
    (GAUSS, 0, ValueError),
    (GAUSS, 2.0, ValueError),
    (QuadratureSpec("monte_carlo", 64, 1), 2, QuadratureError),
    pytest.param(GAUSS, {"samples": 100.0}, ValueError, id="samples=100.0"),
    pytest.param(GAUSS, {"samples": 2.5}, ValueError, id="samples=2.5"),
    pytest.param(GAUSS, {"samples": 64, "panels": 2}, ValueError, id="both"),
    pytest.param(GAUSS, {}, ValueError, id="neither"),
    pytest.param(GAUSS, {"samples": 64, "threads": 2.5}, ValueError,
                 id="threads=2.5"),
])
def test_center_rule_refuses_its_inputs_before_any_scan(monkeypatch, spec,
                                                        plan, error):
    # a bare number is panels; a dict holds the centre plan's keywords
    def no_engine(*args):
        raise AssertionError("an engine was built for refused inputs")

    monkeypatch.setattr(weaknorm, "_make_engine", no_engine)
    with pytest.raises(error):
        distribution_curve(*SMOOTH_CONTRAST, spec,
                           **(plan if isinstance(plan, dict)
                              else {"panels": plan}))


def test_curve_refuses_a_bool_thread_count():
    # True is an int to Python, and ran the curve on one thread
    base = make_plateau_bump(1, 1.0, 0.5, 1.0)
    seen = []
    f = dataclasses.replace(
        base, eval=lambda x: seen.append(x) or base.eval(x))
    with pytest.raises(ValueError) as got:
        distribution_curve(f, 2.0, default_kappa_grid(f), default_domain(f),
                           GAUSS, samples=64, threads=True)
    assert str(got.value) == ("need an integer count of at least 1 worker "
                              "thread, got True")
    assert seen == []


def test_sample_count_is_stored_as_a_python_int():
    # the count reaches curve.json, whose writer refuses an np.int64
    f = make_linear(1, [1.0])
    dom = Domain(box=((-0.5, 0.5),), r_max=50.0, r_min=1e-4)
    cur = distribution_curve(f, 2.0, np.geomspace(0.02, 2e-5, 13), dom,
                             GAUSS, samples=np.int64(8))
    assert type(cur.samples) is int and cur.samples == 8


# ---------------------------------------------------------------------------
# weak sup and limit extrapolation
# ---------------------------------------------------------------------------

def _synthetic_curve(L, coef, alpha, p=2.0, rel_noise=1e-3):
    grid = np.geomspace(1e-1, 1e-4, 13)
    scaled = L + coef * grid**alpha
    nu = scaled / grid**p
    dom = Domain(box=((-1.0, 1.0),), r_max=10.0, r_min=1e-4)
    return DistributionCurve(
        function_id="synthetic", dim=1, p=p, kappa_grid=grid, nu=nu,
        nu_stderr=rel_noise * nu, tail_bound=0.0, domain=dom, samples=1,
        seed=0, method="gauss_1d", node_count=8, counters={})


def test_weak_sup_reports_max_plus_stderr():
    cur = _synthetic_curve(1.0, 3.0, 1.0)
    est = weak_sup(cur)
    assert est.kappa_at_max == pytest.approx(1e-1)
    assert est.scaled_max == pytest.approx(1.3)
    assert est.value == pytest.approx(1.3 + 1.3e-3)


def test_limit_extrapolate_recovers_synthetic_limit():
    for alpha in (0.5, 1.0, 1.5):
        cur = _synthetic_curve(0.7, 2.0, alpha)
        lim = limit_extrapolate(cur)
        assert lim.ok, lim.notes
        assert abs(lim.value - 0.7) <= max(3 * lim.uncertainty, 5e-3 * 0.7)


def test_limit_extrapolate_flags_noise():
    cur = _synthetic_curve(0.7, 2.0, 1.0, rel_noise=0.2)
    lim = limit_extrapolate(cur)
    assert not lim.ok
    assert lim.notes


def test_limit_extrapolate_of_a_zero_curve_is_zero():
    # stderr 0 everywhere once made every fit weight infinite and the
    # level NaN, reported as ok
    cur = _synthetic_curve(0.0, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lim = limit_extrapolate(cur)
    assert (lim.value, lim.uncertainty, lim.ok) == (0.0, 0.0, True)
    assert math.isfinite(lim.alpha) and math.isfinite(lim.rel_residual)


def test_weak_sup_at_least_limit_for_plateau():
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    dom = default_domain(f)
    grid = default_kappa_grid(f)
    cur = distribution_curve(f, 2.0, grid, dom, GAUSS, samples=512)
    lim = limit_extrapolate(cur)
    assert lim.ok
    assert weak_sup(cur).value >= lim.value - lim.uncertainty


def test_reference_scaled_limit_catalog():
    lin = make_linear(1, [2.0])
    dom = Domain(box=((-0.5, 0.5),), r_max=50.0, r_min=1e-4)
    want = c_dp(1, 2.0) * 2.0**2 * 1.0
    assert reference_scaled_limit(lin, 2.0, dom) == pytest.approx(want)
    pla = make_plateau_bump(1, 1.0, 0.5, 1.0)
    dom2 = default_domain(pla)
    want2 = c_dp(1, 2.0) * pla.grad_norm_p(2.0, dom2.box)
    assert reference_scaled_limit(pla, 2.0, dom2) == pytest.approx(want2)
    ind = make_ball_indicator(1, 0.5)
    assert reference_scaled_limit(ind, 1.0, dom) is None
    bare = catalog.TestFunction(
        function_id="custom", dim=1, eval=lambda x: x[..., 0], grad=None,
        grad_lipschitz=None, support_radius=None)
    assert bare.grad_norm_p is None
    assert reference_scaled_limit(bare, 2.0, dom) is None


def test_plateau_reference_reads_the_amplitude_not_its_identifier():
    # the identifier prints a = 1.23457; the reference must use the entry's
    # own 1.23456789: c_(1,2) = 1/8 and the d = 1 integral is A^2 * 40/7
    A = 1.23456789
    pla = make_plateau_bump(1, A, 0.5, 1.0)
    assert "a=1.23457:" in pla.function_id
    assert reference_scaled_limit(pla, 2.0, default_domain(pla)) == (
        pytest.approx(A ** 2 * 40.0 / 7.0 / 8.0, rel=1e-15))


def test_translated_linear_keeps_its_reference():
    # |grad f| = |v| on the whole window, shifted or not
    v = [1.0, 2.0]
    dom = Domain(box=((-0.5, 1.5), (-1.0, 0.25)), r_max=50.0, r_min=1e-4)
    want = c_dp(2, 3.0) * 5.0 ** 1.5 * 2.5
    for g in (make_linear(2, v), translate(make_linear(2, v), [0.5, -0.75])):
        assert reference_scaled_limit(g, 3.0, dom) == pytest.approx(
            want, rel=1e-15)


def test_translated_plateau_reference_needs_only_its_shifted_support():
    # the window holds the shifted support [-0.2, 1.8] x [-1.6, 0.4] but not
    # the cube [-(ro + |h|), ro + |h|]^2 = [-2, 2]^2 about the origin
    pla = make_plateau_bump(2, 1.0, 0.5, 1.0)
    g = translate(pla, [0.8, -0.6])
    dom = Domain(box=((-0.25, 1.85), (-1.65, 0.45)), r_max=22.5, r_min=1e-4)
    assert not all(lo <= -g.support_radius and hi >= g.support_radius
                   for lo, hi in dom.box)
    want = reference_scaled_limit(pla, 2.0, default_domain(pla))
    assert reference_scaled_limit(g, 2.0, dom) == want
    # a window that cuts the shifted taper shell gets none
    cut = Domain(box=((-0.1, 1.85), (-1.65, 0.45)), r_max=22.5, r_min=1e-4)
    assert reference_scaled_limit(g, 2.0, cut) is None


def test_reference_refuses_a_window_of_another_dimension():
    # a 1-d window for a 2-d entry used to give the 1-d volume's value 0.180
    lin = make_linear(2, [1.0, 0.0])
    with pytest.raises(ValueError, match="does not match function dimension"):
        reference_scaled_limit(lin, 2.0, Domain(((-1.0, 1.0),), 10.0, 1e-3))
    # translate's mapped integral zipped the box with the shift, which cut
    # a 3-d box to 2 sides; it refuses it, as the entry itself is refused
    cube = ((-2.0, 2.0),) * 3
    for g in (translate(lin, [0.5, 0.0]),
              translate(make_plateau_bump(2, 1.0, 0.5, 1.0), [0.1, 0.2])):
        with pytest.raises(ValueError,
                           match="does not match function dimension"):
            g.grad_norm_p(2.0, cube)
        with pytest.raises(ValueError,
                           match="does not match function dimension"):
            reference_scaled_limit(g, 2.0, Domain(cube, 10.0, 1e-3))


@pytest.mark.parametrize("transform,factor", [
    (lambda f: dilate(f, 3.0), 3.0 ** (1 - 2)),
    (lambda f: scale_values(f, -2.0), 2.0 ** 2),
    (lambda f: translate(f, [0.25]), 1.0),
], ids=["dilate", "scale_values", "translate"])
def test_curve_summary_reference_follows_the_transform_laws(transform,
                                                            factor):
    # dilation by s multiplies the integral of |grad f|^p by s^(d - p),
    # scaling the values by lam by |lam|^p, and translation leaves it as is
    pla = make_plateau_bump(1, 1.0, 0.5, 1.0)
    g = transform(pla)
    dom = default_domain(g)
    cur = distribution_curve(g, 2.0, default_kappa_grid(g), dom, GAUSS,
                             samples=16)
    want = factor * reference_scaled_limit(pla, 2.0, default_domain(pla))
    assert curve_summary(cur, limit_extrapolate(cur),
                         g)["reference_value"] == pytest.approx(want,
                                                                rel=1e-15)


# ---------------------------------------------------------------------------
# jump-function closed-form evaluator
# ---------------------------------------------------------------------------

FROZEN_JUMP_VALUES = [
    # (radius, r_lo, r_hi, kappa, nu); box (-2, 2); converged adaptive
    # quadrature cross-checked against a midpoint center lattice that
    # evaluates the oscillation directly, with no shared section formula
    (0.5, 1e-4, 40.0, 1e-1, 35.994880885740386),
    (0.5, 1e-4, 40.0, 10**-2.5, 40.0511147126321),
    (0.5, 1e-4, 40.0, 1e-4, 40.16237054441598),
    (1.0, 1e-3, 10.0, 1e-1, 28.29381459060923),
    (1.0, 1e-3, 10.0, 1e-4, 31.22825785814571),
]


@pytest.mark.parametrize("radius,rlo,rhi,kappa,expected", FROZEN_JUMP_VALUES)
def test_indicator_measure_frozen_values(radius, rlo, rhi, kappa, expected):
    nu = indicator_measure_1d(kappa, radius, (-2.0, 2.0), rlo, rhi, p=1.0)
    assert nu == pytest.approx(expected, rel=1e-6)


def test_indicator_measure_untruncated_is_infinite():
    # every threshold below 1/2 has infinite weighted measure: near a jump
    # the section weight behaves like 1 / distance, which is not integrable
    for k in (0.49, 0.1, 1e-4):
        nu = indicator_measure_1d(k, 0.5, (-2.0, 2.0), 0.0, 40.0, p=1.0)
        assert math.isinf(nu)
    # above the maximal oscillation value 1/2 nothing is exceeded
    nu = indicator_measure_1d(0.51, 0.5, (-2.0, 2.0), 0.0, 40.0, p=1.0)
    assert nu == 0.0


def test_indicator_measure_grows_under_floor_refinement():
    # each factor-4 cut of the radius floor adds sides * sqrt(1 - 2k) * ln 4
    k = 0.01
    R, box = 1.0, (-3.0, 3.0)
    floors = [0.1 * 4.0**-j for j in range(4)]
    vals = [indicator_measure_1d(k, R, box, lo, 10.0, p=1.0)
            for lo in floors]
    incs = np.diff(vals)
    theory = 4.0 * math.sqrt(1 - 2 * k) * math.log(4.0)
    np.testing.assert_allclose(incs, theory, rtol=1e-9)
