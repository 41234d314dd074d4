"""Ball mean oscillation and related local functionals.

The central object is

    m_f(a, r) = average over B_r(a) of |f - (average of f over B_r(a))|

computed as a genuine two-pass estimate: the inner ball average first, then
the average of the absolute deviation, on an independent node set.

There is one kernel per rule, and one batch entry per rule, which runs it
on any number of balls in passes of bounded size: exact_oscillation_1d,
mc_oscillation for Monte Carlo, and ball_estimates, which serves the
single-ball rules on every method, the radial rule included.  Every pass
is a slice of _passes, and no other module splits a batch into passes.

exact_oscillation_1d (dimension one, method "gauss_1d") is fully
deterministic: the interval is split at the function's breakpoints into
one flat list of the live segments of every ball in a pass
(quadrature.Segments, the one segment layout of every Gauss sum, whose
per-ball sums add each ball's values left to right), the inner mean is a
per-segment Gauss-Legendre rule of order node_count, capped at the order
that is exact for the entry's polynomial pieces (TestFunction.degree_1d),
the sign changes of f - mean are located by a short bisection and one
regula falsi step, and the outer integral is evaluated per sign-constant
segment at the same order, reusing the inner mean's integral of every
segment without a sign change.  That mean, root and deviation pass
(_split_deviation) is shared with the radial rule below, which hands it
another weight.  Both integrals use the segment rule of quadrature.  For
the piecewise-polynomial catalog entries the result is exact to roundoff
and std_error is reported as 0.  With slope=True it also returns dm/dr,
from the values the pass already holds, for the curve's crossing search.

mc_deviations (any dimension, method "monte_carlo") uses two independent
uniform node sets in the ball's local frame.  The inner pass is antithetic
(u, -u pairs), which integrates odd functions exactly; the outer pass is
plain.  Error propagation is first-order additive: the mean-to-deviation
map is 1-Lipschitz in the inner mean, so the two standard errors add.
Its nodes, and those of pair_oscillation and maximal_gradient, are stored
coordinate-major, (d, n), so each array operation on the points runs over
the n nodes instead of the d coordinates; f receives (n, d) views.

mc_oscillation takes the nodes of a batch's centres, which centre_nodes
draws for the curve, one stream per centre, and stores in one of two
ways.  PointNodes holds the node sets for mc_deviations.  RadialNodes,
for a radial entry f(x) = profile(|x - c|^2) (catalog.Radial) that
passes the radial rule's stale-profile probe, holds per-node features
instead: with y = a - c, |a + r u - c|^2 = |y|^2 + r (2 y.u + r |u|^2),
and the antithetic pair has (|y|^2 + r^2 |u|^2) +- 2 r y.u.  Its cost
does not grow with d, and it reduces mu, f - mu and the mean of |f - mu|
in mc_deviations' order.  With float64 features its m differs from the
point route's only by the rounding of the squared distances.  With
float32 features, which the curve takes where their rounding budget
(float32_budget, derived in RadialNodes) is small against its thresholds,
q, the profile and both means run in float32 and m moves by at most that
budget, in expectation over the node draw; mc_oscillation returns m in
float64 either way.

The radial rule (method "radial", dimensions two and three) is
deterministic too.  For a radial entry f(x) = g(|x - c|)
(catalog.Radial, with the profile's breakpoints in rho = |x - c| and its
degree there) and a ball at distance t from c with radius r, every ball
average is a 1-d integral in rho against sigma(rho), the measure of the
sphere of radius rho inside the ball: m = integral of |g - mu| sigma /
integral of sigma.  The integrals split at |t - r|, t + r, the
breakpoints and the root of g - mu, and take the segment rule of
quadrature on each piece; the mean, the root and the deviation are the
1-d kernel's pass (_split_deviation) with the weight sigma, so the rule
itself is only geometry.  In d = 3 sigma is a polynomial in rho and the
rule is exact at the order the degree sets.  In d = 2 sigma has
square-root zeros at |t - r| and t + r; the pieces that cross the ball's
boundary are integrated in s with rho = |t - r| + s^2 or t + r - s^2,
and graded toward |t - r|, so the integrands are smooth.  The ball
average of |grad f| uses the same pieces.

The single-ball rules take one BallSample and a QuadratureSpec, and are
one-ball calls of ball_estimates, which takes arrays of centres and
radii: q_oscillation and mean_oscillation follow the spec's method;
maximal_gradient gives the ball average of |grad f|, the radius-r term of
the centered maximal function.  pair_oscillation is Monte Carlo in every
dimension and refuses the Gauss rules.  On Monte Carlo routes every ball
of a call takes the spec's node sets, which _ball_nodes draws once at the
top of the call: the outer set (KEY_OUTER), the antithetic inner set
(KEY_INNER) for the oscillation, and pair_oscillation's second set
(KEY_PAIR).  ball_estimates broadcasts the outer and inner sets over the
balls of each pass and reaches m through the same mc_deviations, so a
batch of any size takes one code path; at q != 1 every power takes the C
library's pow (_power_mean).  A suite makes one ball_estimates call, so
its balls share the spec's node sets.  centre_nodes draws the curve's
nodes on streams of their own, one per centre.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .catalog import TestFunction, coordinate_dot
from .quadrature import (KEY_BALL_IN, KEY_BALL_OUT, KEY_INNER, KEY_OUTER,
                         KEY_PAIR, BallSample, EstimatedValue,
                         QuadratureError, QuadratureSpec, Segments,
                         live_segments, require_balls, require_exponent,
                         require_finite, require_gauss_order,
                         require_method_dimension, row_segments,
                         segment_integrals, segment_width, stream,
                         unit_ball_nodes)

# relative slack of flat_balls against the rounding of a + r u, of |x| and
# of f itself, which are a few ulps of the coordinates and values
SKIP_MARGIN = 1e-9
# f evaluation points per Monte Carlo pass (_passes)
BLOCK_POINTS = 2 ** 15
# the largest gap between a radial entry's profile and its eval at the
# probe's points, relative to the largest value there, that still takes a
# radial route; rounding of |a - c|^2 leaves gaps near 1e-16
_RADIAL_PROBE_RTOL = 1e-9
# balls per pass of exact_oscillation_1d.  On the 2048-centre d = 1 curve
# (Python 3.11, numpy 2.4, shared 2-core x86-64, fresh interpreters),
# with the pass on the flat list of live segments and the crossing search
# on the slopes of m, passes of 8192, 4096, 2048, 1024 and 512 balls took
# 0.46, 0.47, 0.51, 0.56 and 0.71 s (medians of 8) at a peak RSS of 43.3,
# 42.0, 41.3, 40.9 and 41.4 MB: larger passes are a little faster but
# take more memory, and 1024 saves 0.4 MB for 10 % more time
_EXACT_PASS = 2048

# bisections per root of f - mu before the regula falsi step
# (_segment_roots).  Against 30 plain bisections, on 20 000 random
# balls (r log-uniform in [1e-3, 3]) for each d = 1 plateau and its
# translate, dilate (x0.01, x30) and scale_values images, m moved at most
# 2.2e-11, 8.7e-14, 1.2e-15 and 9.0e-16 of max|f| at 8, 10, 12 and 14
# steps.  On the 2048-centre d = 1 curve (Python 3.11, numpy 2.4, shared
# 2-core x86-64) 12 steps call the plateau profile 3690 times instead of
# 8118, the best of 7 runs took 0.60-0.70 s of CPU instead of 0.91-0.93 s,
# and the curve's bytes did not change
_ROOT_ITERS = 12
# Gauss order of the 1-d rules that no degree_1d certificate sizes: the
# default mu_nodes of exact_oscillation_1d (both passes of an entry
# without the certificate, exact to degree 15 per segment), the graded
# panels of its q != 1 deviation, and maximal_gradient's segments
_GL_ORDER = 8
_GRADE_PANELS = 8


class UnsupportedFunctionError(ValueError):
    """Raised when an operation needs metadata the function does not carry."""


def _passes(count: int, size: int):
    """Slices of count balls, size to a pass (the last may hold fewer): the
    passes of every batch entry, size = max(1, BLOCK_POINTS // points per
    ball) by Monte Carlo and _EXACT_PASS otherwise."""
    return (slice(lo, lo + size) for lo in range(0, count, size))


# ---------------------------------------------------------------------------
# deterministic dimension-one machinery, vectorized over (a, r) pair arrays
# ---------------------------------------------------------------------------

def _segment_roots(fev, segs: Segments, mu: np.ndarray, degree=None):
    """One root of f - mu per live segment where its sign flips, else the
    segment's right end: root, shape (L,), and g = f - mu at the two ends
    of each ball, (B,) each, or None where f was not evaluated.

    Assumes at most one root per segment, which holds for the catalog
    entries (each is monotone between its breakpoints).  f is evaluated
    once at each end of a ball and at each breakpoint strictly inside it.

    Each root is bracketed by _ROOT_ITERS bisections of its segment, which
    carry g = f - mu at both ends of the bracket, and is then one regula
    falsi step through the final bracket, lo + g_lo (hi - lo) / (g_lo -
    g_hi), clipped into it; the step costs no evaluation.  Where f is
    continuous between its breakpoints, as the Gauss segment rule already
    needs, the signed integrals of g on the two sides of the root add up to
    the segment's fixed total, so a root error delta moves the integral of
    |g| by about |f'| delta^2 only, and the step leaves delta at second
    order in the bracket width, 2^-_ROOT_ITERS of the segment.  Without
    that premise, the error is still bounded by the final bracket.  Where
    only f's value at a breakpoint makes the sign change (the closed
    indicator at its jump), g has one sign on both sides of the root, and
    the root moves the integral by rounding only.  So pieces of degree 0
    (degree, f's degree_1d certificate) get no root search: f is constant
    inside each of them, and f is not evaluated.
    """
    if degree == 0:
        return segs.hi, None, None
    size = segs.lo.size
    vals = fev(np.concatenate([segs.lo, segs.hi[segs.last]]))
    mu_seg = mu[segs.ball]
    glo = vals[:size] - mu_seg
    g_end = vals[size:] - mu
    ghi = np.empty(size)
    ghi[:-1] = glo[1:]
    ghi[segs.last] = g_end
    g_start = glo[segs.first]

    root = segs.hi.copy()
    idx = np.flatnonzero(np.sign(glo) * np.sign(ghi) < 0)
    if idx.size:
        blo = segs.lo[idx]
        bhi = segs.hi[idx]
        gblo = glo[idx]
        gbhi = ghi[idx]
        slo = np.sign(gblo)
        mu_rows = mu_seg[idx]
        for _ in range(_ROOT_ITERS):
            xm = 0.5 * (blo + bhi)
            gm = fev(xm) - mu_rows
            # slo is +-1, so this is sign(gm) == slo, NaN and 0 included
            same_side = gm * slo > 0.0
            blo = np.where(same_side, xm, blo)
            bhi = np.where(same_side, bhi, xm)
            gblo = np.where(same_side, gm, gblo)
            gbhi = np.where(same_side, gbhi, gm)
        # gblo keeps the sign slo and gbhi is 0 or of the other sign, so
        # the two differ; the midpoint guards the division all the same
        flat = gblo == gbhi
        step = blo + gblo * (bhi - blo) / np.where(flat, 1.0, gblo - gbhi)
        root[idx] = np.where(flat, 0.5 * (blo + bhi),
                             np.clip(step, blo, bhi))
    return root, g_start, g_end


def _split_deviation(fev, segs: Segments, integrate, measure: np.ndarray,
                     volume: np.ndarray, degree=None):
    """(m, mu, root, cut, dev, left, g_start, g_end) of the balls of segs:
    the mean, root and q = 1 deviation pass of both exact rules, the line
    (_exact_pass) and rho (_radial_pass).

    integrate(h, edges, idx, *args) integrates h(x, *args) times the rule's
    weight (1 on the line, sigma in rho) over edges (L', 2), parts of the
    segments at idx; measure (L,) holds each segment's integral S_k of the
    weight, volume (B,) each ball's.  mu = sum of I_k / volume, I_k the
    integrals of f (fev); root is f - mu's on each segment (_segment_roots,
    with g_start and g_end).  A segment without one adds |dev|, dev = I_k -
    mu S_k; one in cut evaluates only left, the integral of f - mu over
    [lo, root] (exactly 0 where the root is lo), and adds |left| +
    |dev - left|, the two sides of its root where the rule integrates the
    weight exactly.  m = the sum / volume.
    """
    whole = integrate(fev, segs.edges, slice(None))
    mu = segs.row_sums(whole) / volume
    root, g_start, g_end = _segment_roots(fev, segs, mu, degree)
    dev = whole - mu[segs.ball] * measure
    part = np.abs(dev)
    cut = np.flatnonzero(root < segs.hi)
    left = np.empty(0)
    if cut.size:
        left = integrate(lambda x, m: fev(x) - m,
                         np.stack([segs.lo[cut], root[cut]], axis=-1), cut,
                         mu[segs.ball[cut]])
        part[cut] = np.abs(left) + np.abs(dev[cut] - left)
    return (segs.row_sums(part) / volume, mu, root, cut, dev, left, g_start,
            g_end)


def exact_oscillation_1d(f: TestFunction, a, r, q: float = 1.0,
                         mu_nodes: int = _GL_ORDER, slope: bool = False):
    """Deterministic (m_f, inner mean) over arrays of 1-d balls, and with
    slope=True also dm_f/dr: (m, mu, dm/dr).

    Vectorized over broadcastable a and r arrays, in _passes of
    _EXACT_PASS balls, so the working set does not grow with the batch and
    a ball's bits do not depend on its pass.  The inner mean, and for
    q = 1 the deviation, take the Gauss order n = min(mu_nodes,
    f.degree_1d // 2 + 1), or mu_nodes where f carries no degree_1d
    (_exact_pass).  Exact to roundoff for piecewise-polynomial f of degree
    <= 2 n - 1 per segment when q is 1, and when q is 2 or 3 with
    (f - mu)^q of degree <= 15, which the deviation's 8-point graded
    panels integrate.  The slope costs no integral: it comes from values
    the pass holds (_exact_pass), and m and mu keep the bits they have
    without it.  It is defined for q = 1 only; another q with slope=True
    raises ValueError.

    A ball that covers f's support, |a| + R + SKIP_MARGIN (|a| + r) <= r
    with R = f.support_radius (a radius about the origin), holds every
    point where f is not constant, and f takes its one outside constant on
    both sides of the support.  So m, mu, the integral of |f - mu|^q and
    the end values behind dm/dr depend on r alone, and each distinct
    radius of such balls runs through the pass once, at a = 0: a covering
    ball returns the bits of its radius's ball at a = 0, which differ from
    those of its own centre by roundoff (the slope, which cancels, by a
    few eps of its terms over 2 r).  The margin, flat_balls', keeps a ball
    whose ends round across the support on its own centre.  Every other
    ball, and every ball of an entry without support_radius, keeps its own.

    A centre that is not finite, or a radius that is not finite and
    positive, raises QuadratureError before any pass, as BallSample would
    (quadrature.require_balls).  So do an exponent q that is not a finite
    real >= 1 (ValueError, as for the single-ball rules) and a mu_nodes
    that is not an integer >= 1 (QuadratureError, as gauss_rule).
    """
    require_method_dimension("gauss_1d", f.dim)
    require_exponent("q", q)
    if slope and q != 1.0:
        raise ValueError(f"the slope of m is defined for q = 1 only, got {q}")
    mu_nodes = require_gauss_order(mu_nodes)
    a, r = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(r, dtype=float))
    require_balls(r, a)
    shape = a.shape
    a, r = a.ravel(), r.ravel()
    # the balls that cover f's support run once per radius, at a = 0
    covers = np.zeros(a.size, dtype=bool)
    if f.support_radius is not None:
        size = np.abs(a)
        covers = size + f.support_radius + SKIP_MARGIN * (size + r) <= r
    own = np.flatnonzero(~covers)
    radii, which = np.unique(r[covers], return_inverse=True)
    ball_a = np.concatenate([a[own], np.zeros(radii.size)])
    ball_r = np.concatenate([r[own], radii])
    res = np.empty((3 if slope else 2, ball_a.size))
    for at in _passes(ball_a.size, _EXACT_PASS):
        res[:, at] = _exact_pass(f, ball_a[at], ball_r[at], q, mu_nodes,
                                 slope)
    out = np.empty((res.shape[0], a.size))
    out[:, own] = res[:, :own.size]
    out[:, covers] = res[:, own.size + which]
    return tuple(row.reshape(shape) for row in out)


def _exact_pass(f: TestFunction, a: np.ndarray, r: np.ndarray, q: float,
                mu_nodes: int, slope: bool = False):
    """(m, inner mean), and dm/dr with slope, of the balls (a, r), shape
    (B,), on one pass of the exact segment route: the average of
    |f - mu|^q over the segments between f's breakpoints and the roots of
    f - mu.

    The work runs on the flat list of live segments (live_segments).  The
    mean takes the integrals I_k of the pieces between f's breakpoints at
    the Gauss order n = min(mu_nodes, degree_1d // 2 + 1), exact for
    pieces of degree_1d, or mu_nodes where f carries no degree.  For q = 1
    the deviation is _split_deviation's, with S_k = each piece's length
    and the ball's width as its volume; in exact arithmetic the n weights
    integrate 1 exactly.  In floating point, added first to last as
    segment_integrals adds them, the weights of 12 of the orders 1-64 sum
    to exactly 2: 1, 7, 8, 9, 20, 23, 28, 36, 43, 52, 54 and 63 (numpy
    2.4, x86-64); those of the others miss 2 by 1 to 6 units of 2^-53
    relative.  At order 8 a constant f then has exactly its value as mean
    on balls whose segment widths add up to their width, as with dyadic
    ends, when that value is short in binary (1, 0.75, 3, ...).  Order 3,
    which the plateau's quintic pieces take, is not among the twelve: its
    weights add up to 2 - 2^-51, a constant piece integrates to its value
    times its length less 2 units of 2^-53, relative, and the mean of the
    plateau's core value 1 reads 0.9999999999999998 on a dyadic ball inside
    the core (within an ulp of it on others).  m stays 0 there, since the
    deviation subtracts that mean times each length from the same
    integrals (weaknorm's skip certificate rests on m reading 0 on a
    constant ball).  For another q each live segment splits at its root,
    and each part is graded toward its ends into _GRADE_PANELS panels of
    the _GL_ORDER rule, which handle the kink of |f - mu|^q: the
    2 _GRADE_PANELS + 1 cuts of each segment go to row_segments, which
    drops the zero-width panels of a segment without a root.  Both of its
    powers, |f - mu|^q at the nodes and the moment's 1/q-th, take
    _libm_power, so their bits are the C library's on every CPU.

    With M the integral of |f - mu| over the ball, m = M / (2 r) and
    mu' = (f(a + r) + f(a - r) - 2 mu) / (2 r), so
    M' = |f(a + r) - mu| + |f(a - r) - mu| - mu' S, with S the integral of
    sign(f - mu), and dm/dr = (M' - 2 m) / (2 r).  S adds each piece's
    length times the sign of its integral of f - mu, on each side of a
    root; f at the ends comes from the root search, and only pieces of
    degree 0, which have none, evaluate it for the slope.
    """
    fev = f.eval_1d
    degree = f.degree_1d
    n = mu_nodes if degree is None else min(mu_nodes, degree // 2 + 1)
    lo = a - r
    hi = a + r
    width = segment_width(lo, hi)
    segs = live_segments(f.breakpoints_1d, lo, hi)

    def integrate(h, edges, idx, *args):
        return segment_integrals(h, edges, n, *args)

    if q != 1.0:
        mu = segs.row_sums(integrate(fev, segs.edges, slice(None))) / width
        root = _segment_roots(fev, segs, mu, degree)[0][:, None]
        frac = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi,
                                               _GRADE_PANELS + 1)))
        s_lo = segs.lo[:, None]
        panels = row_segments(np.concatenate(
            [s_lo + (root - s_lo) * frac[:-1],
             root + (segs.hi[:, None] - root) * frac], axis=1))
        seg = segment_integrals(
            lambda x, m: _libm_power(np.abs(fev(x) - m), q), panels.edges,
            _GL_ORDER, mu[segs.ball[panels.ball]])
        moment = segs.row_sums(panels.row_sums(seg)) / width
        return _libm_power(np.maximum(moment, 0.0), 1.0 / q), mu

    length = segs.hi - segs.lo
    m, mu, root, cut, dev, left, g_start, g_end = _split_deviation(
        fev, segs, integrate, length, width, degree)
    if not slope:
        return m, mu

    signed = np.sign(dev) * length
    right = dev[cut] - left
    signed[cut] = (np.sign(left) * (root[cut] - segs.lo[cut])
                   + np.sign(right) * (segs.hi[cut] - root[cut]))
    if g_start is None:
        ends = fev(np.concatenate([lo, hi])) - np.tile(mu, 2)
        g_start, g_end = ends[:lo.size], ends[lo.size:]
    sign_integral = segs.row_sums(signed)
    dmu = (g_start + g_end) / width
    return m, mu, (np.abs(g_start) + np.abs(g_end) - dmu * sign_integral
                   - 2.0 * m) / width


# ---------------------------------------------------------------------------
# Monte Carlo two-pass kernel, any dimension
# ---------------------------------------------------------------------------

def inner_count(n: int) -> int:
    """Antithetic inner nodes that go with n outer nodes: half, at least 1."""
    return max((n + 1) // 2, 1)


def mc_deviations(ev, centers, radii, u_out, u_in, rows=slice(None)):
    """(f - mu at the outer nodes, antithetic pair sums) for each ball.

    The balls are (c, r) = (centers[rows], radii), centers of shape (..., d);
    u_out[rows] and u_in[rows] are unit-ball nodes stored coordinate-major,
    shape (..., d, n) and (..., d, m).  The points c + r u are built in that
    layout, so each broadcast operation runs over n contiguous values
    rather than d, and ev receives them as (..., n, d) views with the node
    axis contiguous (the catalog's eval gives the same bits for any layout).
    The pair sums s = f(c + r u) + f(c - r u) over u_in, shape (..., m),
    give mu = mean(s) / 2; f - mu over c + r u_out, shape (..., n), is
    computed in place.
    """
    c = centers[rows][..., :, None]
    r = np.asarray(radii, dtype=float)[..., None, None]
    ru = r * u_in[rows]
    dev = np.asarray(ev(_point_major(c + r * u_out[rows])), dtype=float)
    pair_sums = (np.asarray(ev(_point_major(c + ru)), dtype=float)
                 + np.asarray(ev(_point_major(c - ru)), dtype=float))
    dev -= 0.5 * pair_sums.mean(axis=-1)[..., None]
    return dev, pair_sums


@dataclass(frozen=True)
class PointNodes:
    """Node sets of C centres for f.eval: centers (C, d), and u_out and u_in
    coordinate-major, (C, d, n) and (C, d, m), as mc_deviations takes them."""
    ev: Callable[[np.ndarray], np.ndarray]
    centers: np.ndarray
    u_out: np.ndarray
    u_in: np.ndarray

    @property
    def pair_points(self) -> int:
        return self.u_out.shape[-1] + 2 * self.u_in.shape[-1]

    def deviations(self, radii, rows):
        return mc_deviations(self.ev, self.centers, radii, self.u_out,
                             self.u_in, rows)


@dataclass(frozen=True)
class RadialNodes:
    """Node features of C centres for a radial entry f = profile(|x - c|^2).

    For the centre a of row i, y = a - c, its outer nodes u and its inner
    nodes v: yy[i] = |y|^2, out_dot[i] = 2 y.u, out_sq[i] = |u|^2,
    in_dot[i] = 2 y.v and in_sq[i] = |v|^2, of shapes (C,), (C, n), (C, n),
    (C, m) and (C, m), all of one dtype, float64 or float32, in which
    deviations runs and the profile is called (the catalog's profiles keep
    their input's dtype).

    float32 features round m by B(r) = float32_budget(f, r, n) at most, in
    expectation over the node draw of a ball of radius r (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 3-4), with
    u = 2^-24, G = grad_max, R = support_radius and share = min(1,
    (R / r)^d), the chance that a node of the ball lies in the support
    |x| <= R.  f is 0 outside it and the float32 profile gives that 0
    exactly, so only nodes inside it move, and m moves by at most the mean
    move of its outer values plus that of mu.  Two terms:
    - (a) the rounding of the profile and of the sums: each value in the
      support moves by _PROFILE_ROUNDINGS u G R at most (sup |f| <= G R,
      and G rho <= G R there), and each of the two means of numpy's
      pairwise sum by its depth D(n) roundings of its terms:
      u (2 _PROFILE_ROUNDINGS + 3 D(n) + 6) G R share.
    - (b) the rounding of q: the five features, r and the four operations
      of each q give |q32 - q64| <= _Q_ROUNDINGS u (|y| + r)^2, and
      |y| <= rho + r for a node at distance rho from c.  That moves f by
      at most G |q32 - q64| / rho on a node of the support, and the mean of
      (rho + 2 r)^2 / rho over those nodes is at most W(r) = share (R + 4 r)
      + 4 d / (d - 1) min(R, r)^(d - 1) r^(2 - d): the integral of 1 / rho
      over a set of the ball's volume or the support's is largest on the
      ball about c.  The term is 2 _Q_ROUNDINGS u G W(r).
    In d >= 2 B(r) is bounded and largest at r = R; in d = 1 the integral
    of 1 / rho diverges at c and B has no bound.  A single draw can exceed
    B, which bounds an expectation, but the gaps measured on random balls
    sit orders below it.
    """
    profile: Callable[[np.ndarray], np.ndarray]
    yy: np.ndarray
    out_dot: np.ndarray
    out_sq: np.ndarray
    in_dot: np.ndarray
    in_sq: np.ndarray

    @property
    def pair_points(self) -> int:
        return self.out_dot.shape[-1] + 2 * self.in_dot.shape[-1]

    def deviations(self, radii, rows):
        """mc_deviations' (dev, pair_sums) for rows at radii, shape (P,), in
        the features' dtype.

        The squared distances of the outer points and of both antithetic
        points, q = |y|^2 + r (2 y.u + r |u|^2) and
        q+- = (|y|^2 + r^2 |v|^2) +- r 2 y.v, go into three contiguous runs
        of one buffer, which profile gets in one call.  Rounding can leave q
        just below 0 where a point meets c, so q is clamped at 0 first.  r
        is cast to the features' dtype once, and q, the profile's values,
        the pair sums and their mean keep it.
        """
        dtype = self.yy.dtype
        r = np.asarray(radii, dtype=dtype)[:, None]
        p = r.shape[0]
        n = self.out_dot.shape[-1]
        m = self.in_dot.shape[-1]
        yy = self.yy[rows][:, None]
        q = np.empty(p * (n + 2 * m), dtype=dtype)
        q_out = q[:p * n].reshape(p, n)
        q_plus = q[p * n:p * (n + m)].reshape(p, m)
        q_minus = q[p * (n + m):].reshape(p, m)
        np.multiply(self.out_sq[rows], r, out=q_out)
        q_out += self.out_dot[rows]
        q_out *= r
        q_out += yy
        np.multiply(self.in_sq[rows], r * r, out=q_plus)
        q_plus += yy
        r_dot = np.multiply(self.in_dot[rows], r)
        np.subtract(q_plus, r_dot, out=q_minus)
        q_plus += r_dot
        np.maximum(q, 0.0, out=q)
        vals = self.profile(q)
        dev = vals[:p * n].reshape(p, n)
        pair_sums = (vals[p * n:p * (n + m)].reshape(p, m)
                     + vals[p * (n + m):].reshape(p, m))
        dev -= 0.5 * pair_sums.mean(axis=-1)[:, None]
        return dev, pair_sums


# roundings of the catalog's profiles in float32, each at most u G R: the
# plateau's taper takes 17 (the root, ri, the shift, w and the division in
# s, 12 in the polynomial and its amplitude), and one scale_values and one
# dilate layer 3 more
_PROFILE_ROUNDINGS = 24
# roundings of each q, relative to (|y| + r)^2: 7 on the float32 route and
# the float64 route's own, far smaller
_Q_ROUNDINGS = 8


def _pairwise_depth(n: int) -> int:
    """Roundings on the path of one term through numpy's pairwise sum of n
    values: blocks of at most 128 values on eight accumulators (at most 15
    additions each, 3 to join them, 7 for the rest), then one per halving."""
    return 25 + max(0, math.ceil(math.log2(n / 128)))


def float32_budget(f: TestFunction, r, node_count: int):
    """B(r): the bound on |m32 - m64| of RadialNodes with float32 features,
    for balls of radius r (an array or a float) of f at node_count outer
    nodes, in expectation over the node draw (the RadialNodes docstring
    derives it).  f must carry grad_max and support_radius, in d >= 2: in
    d = 1 the bound grows without limit in r (ValueError)."""
    u = 2.0 ** -24
    d, g, big_r = f.dim, f.grad_max, f.support_radius
    if d < 2:
        raise ValueError("the float32 budget is bounded in d >= 2 only")
    r = np.asarray(r, dtype=float)
    share = np.minimum(1.0, (big_r / r) ** d)
    profile = (2 * _PROFILE_ROUNDINGS + 3 * _pairwise_depth(node_count)
               + 6) * big_r * share
    weight = (share * (big_r + 4.0 * r) + 4.0 * d / (d - 1)
              * np.minimum(big_r, r) ** (d - 1) * r ** (2 - d))
    return u * g * (profile + 2 * _Q_ROUNDINGS * weight)


def centre_nodes(f: TestFunction, centers: np.ndarray, seed: int,
                 node_count: int, global_start: int, dtype=np.float64):
    """The Monte Carlo nodes of a chunk of curve centres, (C, d).

    The centre of row i draws node_count outer and inner_count(node_count)
    inner nodes from its own streams, KEY_BALL_OUT and KEY_BALL_IN keyed by
    its global index global_start + i, so its m does not depend on the
    chunk.  It is RadialNodes where the radial rule takes the entry, past
    _radial_profile's stale-profile probe (eval against the profile at the
    chunk's centres and at a point of each piece on a ray from c, so a
    chunk off the support is probed too), and PointNodes where that rule
    refuses it: no breakpoints, or an eval that the profile does not
    reproduce or that is not finite there.  Every sum over coordinates
    runs in index order (coordinate_dot), so no bit depends on a layout.
    RadialNodes' features take dtype: they are computed in float64 and
    stored into arrays of dtype, so float32 features are the float64 ones
    rounded, and deviations then runs in dtype (the profile keeps its
    input's dtype).  PointNodes stay float64.
    """
    c_rows, d = centers.shape
    n, m = node_count, inner_count(node_count)
    try:
        yy = _radial_profile(f, centers)
    except UnsupportedFunctionError:
        yy = None
    radial = yy is not None
    if radial:
        y = centers - f.radial.center
        nodes = RadialNodes(f.radial.profile, yy.astype(dtype, copy=False),
                            np.empty((c_rows, n), dtype),
                            np.empty((c_rows, n), dtype),
                            np.empty((c_rows, m), dtype),
                            np.empty((c_rows, m), dtype))
    else:
        nodes = PointNodes(f.eval, centers, np.empty((c_rows, d, n)),
                           np.empty((c_rows, d, m)))
    for i in range(c_rows):
        g = global_start + i
        u_out = unit_ball_nodes(d, n, stream(seed, KEY_BALL_OUT, g))
        u_in = unit_ball_nodes(d, m, stream(seed, KEY_BALL_IN, g))
        if radial:
            nodes.out_dot[i] = 2.0 * coordinate_dot(u_out, y[i])
            nodes.out_sq[i] = coordinate_dot(u_out, u_out)
            nodes.in_dot[i] = 2.0 * coordinate_dot(u_in, y[i])
            nodes.in_sq[i] = coordinate_dot(u_in, u_in)
        else:
            nodes.u_out[i] = u_out.T
            nodes.u_in[i] = u_in.T
    return nodes


def mc_oscillation(nodes, radii, rows) -> np.ndarray:
    """m for each (row, radius) pair of nodes (PointNodes or RadialNodes),
    in float64 whatever the nodes' dtype, in _passes of at most
    BLOCK_POINTS evaluation points (n + 2m per pair).
    A radius that is not finite and positive raises QuadratureError before
    any pass, as BallSample would."""
    radii = np.asarray(radii, dtype=float)
    require_balls(radii)
    out = np.empty(len(rows))
    for at in _passes(len(rows), max(1, BLOCK_POINTS // nodes.pair_points)):
        out[at] = _mc_pass(nodes, radii[at], rows[at])
    return out


def _mc_pass(nodes, radii: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m for one pass of mc_oscillation; a function of its own, so that a
    pass's arrays are freed before the next pass allocates its own."""
    dev, _ = nodes.deviations(radii, rows)
    return np.abs(dev, out=dev).mean(axis=-1)


def _point_major(x: np.ndarray) -> np.ndarray:
    """The (..., n, d) view of coordinate-major points x of shape (..., d, n),
    which is the shape the catalog's eval and grad take."""
    return np.swapaxes(x, -1, -2)


def _ball_nodes(d: int, n: int, seed: int, key: int) -> np.ndarray:
    """unit_ball_nodes(d, n, stream(seed, key)) stored coordinate-major,
    (d, n): a single-ball node set of the spec with that seed."""
    return np.ascontiguousarray(unit_ball_nodes(d, n, stream(seed, key)).T)


# ---------------------------------------------------------------------------
# exact radial machinery, dimensions two and three
# ---------------------------------------------------------------------------

# Gauss order of the radial rule that the battery takes (verify.run_all).
# In d = 2, on 3000 balls of the d = 2 plateau drawn to stress the rule
# (r log-uniform in [1e-3, 5]; a quarter of them with |t - r| / r in
# [1e-12, 1], a half with a zero of the sphere measure within 1e-9 to 0.1
# of a breakpoint), m at orders 12, 16 and 20 missed an order-64 rule on
# four times as many pieces by at most 0.54, 0.12 and 0.094 of
# 1e-12 m + 16 eps; 20 sits at that rounding floor.  In d = 3 the rule
# is exact at the order the profile's degree sets, 5 for the plateau.
RADIAL_ORDER = 20
# the pieces of a d = 2 ball near the inner zero |t - r| of the sphere
# measure are graded at |t - r| + c 64^k, k < _GRADE_CUTS, with c =
# max(2 |t - r|, _GRADE_FROM max(t, r)): the measure carries
# sqrt(rho - |t - r| + 2 |t - r|) there, singular 2 |t - r| past the
# piece, and the part of the ball below the first cut weighs at most
# about _GRADE_FROM^2 of it.  Without the cuts, order 24 missed the
# order-64 rule by 17 times the bound above on balls with |t - r| near
# 1e-5 r
_GRADE_FROM = 1e-8
_GRADE_RATIO = 64.0
_GRADE_CUTS = 5
# kinds of the pieces in rho: the sphere of radius rho lies inside the
# ball (_FULL), or crosses its boundary: in d = 2 below max(t, r)
# (_LOWER) or above it (_UPPER), in d = 3 anywhere (_CAP)
_FULL, _LOWER, _UPPER, _CAP = 0, 1, 2, 3


def _radial_pieces(breakpoints, t: np.ndarray, r: np.ndarray, d: int):
    """The pieces in rho of the balls at distance t from a radial entry's
    centre with radii r, (B,) each: (Segments, kind of each piece).

    A ball meets the spheres of radius rho in [max(t - r, 0), t + r]; it
    holds the whole sphere below |t - r| when t < r.  The pieces split
    there, at the profile's breakpoints and, in d = 2, at max(t, r), which
    parts the two square-root zeros of the sphere measure, and at the
    graded cuts above |t - r| (_GRADE_FROM).  A ball whose range in rho
    rounds to a point raises QuadratureError (segment_width).
    """
    rho_min = np.maximum(t - r, 0.0)
    inner = np.abs(t - r)
    outer = t + r
    segment_width(rho_min, outer)
    cols = [rho_min, inner, outer]
    cols += [np.full(t.shape, float(b)) for b in breakpoints]
    if d == 2:
        mid = np.maximum(t, r)
        step = np.maximum(2.0 * inner, _GRADE_FROM * mid)
        cols.append(mid)
        cols += [np.minimum(inner + step * _GRADE_RATIO ** k, mid)
                 for k in range(_GRADE_CUTS)]
    cuts = np.sort(np.clip(np.stack(cols, axis=-1), rho_min[:, None],
                           outer[:, None]), axis=-1)
    segs = row_segments(cuts)
    hi = segs.hi
    full = hi <= inner[segs.ball]
    if d == 3:
        return segs, np.where(full, _FULL, _CAP)
    return segs, np.where(full, _FULL, np.where(hi <= mid[segs.ball],
                                                _LOWER, _UPPER))


def _piece_coordinates(lo, hi, kind, t, r):
    """The ends of pieces [lo, hi] in rho in their integration variable s:
    rho itself, or on a _LOWER (_UPPER) piece of d = 2 the root of the
    distance to the zero |t - r| (t + r) of the sphere measure, so that
    rho = |t - r| + s^2 (t + r - s^2); that substitution takes the zero's
    square root out of the integrand."""
    s_lo = lo.copy()
    s_hi = hi.copy()
    low = kind == _LOWER
    up = kind == _UPPER
    inner = np.abs(t[low] - r[low])
    s_lo[low] = np.sqrt(lo[low] - inner)
    s_hi[low] = np.sqrt(hi[low] - inner)
    outer = t[up] + r[up]
    s_lo[up] = np.sqrt(outer - hi[up])
    s_hi[up] = np.sqrt(outer - lo[up])
    return s_lo, s_hi


def _sphere_measure(s, kind, t, r, d: int):
    """(rho, w) at the nodes s (L, n) of pieces of kind, for balls at
    distance t with radius r ((L, 1) columns): the radius rho of the node
    and w, the measure of the sphere of radius rho inside the ball times
    drho/ds.

    d = 3: w = 4 pi rho^2 on a full sphere, else the cap
    pi rho (t + r - rho) (rho - (t - r)) / t.  d = 2: w = 2 pi rho on a
    full circle, else 2 rho theta 2 s, where theta, the half angle of the
    arc inside the ball, is 2 atan2(sqrt(d_hi P), sqrt(Q (rho + t + r))),
    with d_lo = rho - |t - r| and d_hi = t + r - rho, one of them s^2
    and the other 2 min(t, r) - s^2 on the substituted pieces, and
    {P, Q} = {d_lo, d_lo + 2 |t - r|}: no difference of nearly equal
    numbers is formed.
    """
    kind = kind[:, 0]
    full = kind == _FULL
    part = ~full
    w = np.empty_like(s)
    w[full] = (2.0 * np.pi * s[full] if d == 2
               else 4.0 * np.pi * s[full] ** 2)
    tp = t[part]
    rp = r[part]
    sp = s[part]
    if d == 3:
        w[part] = np.pi * sp * ((tp + rp) - sp) * (sp - (tp - rp)) / tp
        return s, w
    low = (kind == _LOWER)[part][:, None]
    sq = sp * sp
    gap = np.abs(tp - rp)
    rest = 2.0 * np.minimum(tp, rp) - sq
    d_lo = np.where(low, sq, rest)
    d_hi = np.where(low, rest, sq)
    inside = tp < rp
    rho_p = np.where(low, gap + sq, (tp + rp) - sq)
    theta = 2.0 * np.arctan2(
        np.sqrt(d_hi * (d_lo + np.where(inside, 2.0 * gap, 0.0))),
        np.sqrt((d_lo + np.where(inside, 0.0, 2.0 * gap))
                * (rho_p + tp + rp)))
    rho = s.copy()
    rho[part] = rho_p
    w[part] = 4.0 * rho_p * theta * sp
    return rho, w


def _radial_integrals(h, d: int, edges, kind, t, r, n: int, *args):
    """Per-piece integrals over rho in edges (L, 2) of h(rho, *args) times
    the measure of the sphere of radius rho inside the ball, or of that
    measure alone for h None: shape (L,), by segment_integrals at order n
    in each piece's variable (_piece_coordinates); t and r are each
    piece's ball, and args reach h as segment_integrals hands them on."""
    s_lo, s_hi = _piece_coordinates(edges[:, 0], edges[:, 1], kind, t, r)

    def g(s, k, tk, rk, *cols):
        rho, w = _sphere_measure(s, k, tk, rk, d)
        return w if h is None else h(rho, *cols) * w

    return segment_integrals(g, np.stack([s_lo, s_hi], axis=-1), n,
                             kind, t, r, *args)


def _radial_profile(f: TestFunction, centers: np.ndarray) -> np.ndarray:
    """|a - c|^2 for the ball centres a (B, d) and f's radial centre c,
    once f.radial holds breakpoints and its profile reproduces eval to
    _RADIAL_PROBE_RTOL of the largest |eval|, at the centres and at one
    point of each piece between the breakpoints, on a ray from c (so balls
    centred off the support do not leave a stale profile unprobed);
    UnsupportedFunctionError otherwise.  The radial rule and centre_nodes
    take this one probe."""
    rad = f.radial
    if rad is None or rad.breakpoints is None:
        raise UnsupportedFunctionError(
            f"{f.function_id} carries no radial profile with breakpoints; "
            "the radial rule does not apply")
    ends = [0.0, *rad.breakpoints, 2.0 * max(rad.breakpoints, default=0.5)]
    ray = np.tile(rad.center, (len(ends) - 1, 1))
    ray[:, 0] += 0.5 * (np.array(ends[:-1]) + np.array(ends[1:]))
    points = np.concatenate([centers, ray])
    y = points - rad.center
    yy = coordinate_dot(y, y)
    ev = np.asarray(f.eval(points), dtype=float)
    gap = np.abs(rad.profile(yy.copy()) - ev)
    if not np.all(gap <= _RADIAL_PROBE_RTOL * np.max(np.abs(ev))):
        raise UnsupportedFunctionError(
            f"the radial profile of {f.function_id} does not reproduce its "
            "eval; the radial rule refuses a stale certificate")
    return yy[:len(centers)]


def _radial_pass(f: TestFunction, t, r, n: int, oscillation: bool,
                 gradient):
    """(m, ball average of |grad f|) of the balls at distance t from f's
    radial centre with radii r, shape (B,) each, on one pass of the radial
    rule: None for what is not asked; gradient is None, or the mask of the
    balls whose average to compute (the others read 0).  In d = 3 the Gauss
    order n is capped at (degree + 3) // 2 + 1, where the rule is exact.

    The rule is geometry only: the pieces in rho (_radial_pieces), the
    measure sigma(rho) of the sphere of radius rho inside the ball
    (_sphere_measure) and the substitution in s on d = 2's boundary pieces
    (_piece_coordinates).  With g the profile in rho, the mean and m are
    _split_deviation's, with S_k the integral of sigma over each piece and
    their sum as the volume (the profile is monotone between its
    breakpoints).  Both divide by the integrated sigma, not by |B_r|, so a
    ball on which f is constant reads 0 to rounding.
    """
    rad = f.radial
    d = f.dim
    if d == 3 and rad.degree is not None:
        n = min(n, (rad.degree + 3) // 2 + 1)
    segs, kind = _radial_pieces(rad.breakpoints, t, r, d)
    tk = t[segs.ball]
    rk = r[segs.ball]

    def integrate(h, edges, idx, *args):
        return _radial_integrals(h, d, edges, kind[idx], tk[idx], rk[idx], n,
                                 *args)

    measure = integrate(None, segs.edges, slice(None))
    volume = segs.row_sums(measure)
    m = avg = None
    if oscillation:
        m = _split_deviation(lambda rho: rad.profile(rho * rho), segs,
                             integrate, measure, volume, rad.degree)[0]
    if gradient is not None:
        def gmag(rho):
            x = np.empty(rho.shape + (d,))
            x[...] = rad.center
            x[..., 0] += rho
            g = np.asarray(f.grad(x), dtype=float)
            return np.sqrt(coordinate_dot(g, g))

        live = np.flatnonzero(gradient[segs.ball])
        integral = np.zeros(segs.lo.size)
        if live.size:
            integral[live] = integrate(gmag, segs.edges[live], live)
        avg = segs.row_sums(integral) / volume
    return m, avg


# ---------------------------------------------------------------------------
# public single-ball operations
# ---------------------------------------------------------------------------

def _check_query(f: TestFunction, dim: int, spec: QuadratureSpec,
                 q: float = 1.0) -> None:
    """Refuse a query that has no meaning: an exponent q that is not a
    finite real >= 1, balls of another dimension dim than f, a rule off
    its dimensions (require_method_dimension), or the radial rule with
    q != 1.  BallSample and require_balls check the balls themselves."""
    require_exponent("q", q)
    if dim != f.dim:
        raise ValueError(f"ball dimension {dim} does not match function dimension {f.dim}")
    require_method_dimension(spec.method, f.dim)
    if spec.method == "radial" and q != 1.0:
        raise QuadratureError("the radial rule computes the mean "
                              f"oscillation, q = 1, only; got {q}")


def _libm_power(x, e: float) -> np.ndarray:
    """x ** e for each entry of x by Python's float power, the C library's
    pow: numpy's array power takes a vector routine on CPUs with AVX-512
    whose last bit differs from pow's on about one value in twenty."""
    return np.array([v ** e for v in np.ravel(x).tolist()]).reshape(
        np.shape(x))


def _power_mean(dev: np.ndarray, q: float, se_extra):
    """(mean(y)^(1/q), its standard error) along the last axis of y =
    dev^q, dev the samples of |deviation|, with every power by _libm_power
    unless q = 1: the delta method on the q-th moment plus se_extra, the
    error carried in from an estimated inner mean (1-Lipschitz
    propagation).  A zero moment reads 0 with error se_extra."""
    y = dev if q == 1.0 else _libm_power(dev, q)
    m_q = np.mean(y, axis=-1)
    se_m = np.std(y, axis=-1, ddof=1) / np.sqrt(y.shape[-1])
    if q == 1.0:
        return m_q, se_m + se_extra
    flat = m_q <= 0.0
    m_q = np.where(flat, 1.0, m_q)
    return (np.where(flat, 0.0, _libm_power(m_q, 1.0 / q)),
            np.where(flat, 0.0,
                     (1.0 / q) * _libm_power(m_q, 1.0 / q - 1.0) * se_m)
            + se_extra)


def _mc_pass_estimates(f: TestFunction, centers: np.ndarray,
                       radii: np.ndarray, q: float, u_out: np.ndarray,
                       u_in: Optional[np.ndarray], live: Optional[np.ndarray]):
    """(value, std_error, gradient) of one Monte Carlo pass of ball_estimates
    on the balls (centers (P, d), radii (P,)), None where not asked: the
    q-oscillation of every ball with its standard error when u_in is given,
    and the mean of |grad f| over a + r u_out on the balls of the mask live
    when it is given (0 on the others, unevaluated).  Every ball takes the
    same outer set u_out (d, n) and inner set u_in (d, m), broadcast over
    the rows; a function of its own, so that a pass's arrays are freed
    before the next pass allocates its own."""
    value = std_error = avg = None
    if u_in is not None:
        half = u_in.shape[-1]
        dev, pair_sums = mc_deviations(f.eval, centers, radii, u_out, u_in)
        require_finite(dev)
        require_finite(pair_sums)
        se_mu = 0.0
        if half > 1:
            se_mu = np.std(0.5 * pair_sums, axis=-1, ddof=1) / np.sqrt(half)
        value, std_error = _power_mean(np.abs(dev, out=dev), q, se_mu)
    if live is not None:
        avg = np.zeros(radii.size)
        at = np.flatnonzero(live)
        if at.size:
            points = centers[at][:, :, None] + radii[at][:, None, None] * u_out
            g = np.asarray(f.grad(_point_major(points)), dtype=float)
            avg[at] = np.sqrt(coordinate_dot(g, g)).mean(axis=-1)
    return value, std_error, avg


def _gauss_gradient(f: TestFunction, a: np.ndarray, r: np.ndarray):
    """Mean of |f'| over each 1-d ball [a - r, a + r], shape (B,), by the
    _GL_ORDER segment rule on the live segments between f's breakpoints,
    divided by the width they span; a width of 0 raises QuadratureError
    (segment_width)."""
    def gmag(x):
        return np.abs(f.grad(x[..., None])[..., 0])

    lo = a - r
    hi = a + r
    width = segment_width(lo, hi)
    segs = live_segments(f.breakpoints_1d, lo, hi)
    integrals = segment_integrals(gmag, segs.edges, _GL_ORDER)
    return segs.row_sums(integrals) / width


@dataclass(frozen=True)
class BallEstimates:
    """What ball_estimates returns, arrays of shape (B,) or None where not
    asked for: value, the q-oscillation of each ball, with std_error, its
    one-sigma error (0 on the deterministic rules), and gradient, the
    ball average of |grad f|."""
    value: Optional[np.ndarray]
    std_error: Optional[np.ndarray]
    gradient: Optional[np.ndarray]


def ball_estimates(f: TestFunction, centers, radii, spec: QuadratureSpec,
                   q: float = 1.0, *, oscillation: bool = True,
                   gradient: bool = False) -> BallEstimates:
    """The q-oscillation and, with gradient=True, the ball average of
    |grad f| of the balls B_radii[i](centers[i]), centers (B, d) and
    radii (B,), under spec: the one entry behind every single-ball rule
    but pair_oscillation.

    Every rule runs in _passes.  gauss_1d makes one exact_oscillation_1d
    call, and takes the average of |f'| by the _GL_ORDER segment rule
    between f's breakpoints in passes of _EXACT_PASS balls.  radial makes
    one pass of the radial rule (_radial_pass) per _EXACT_PASS balls,
    after the probe of _radial_profile.  monte_carlo runs mc_deviations,
    the estimator of the curve's mc_oscillation, in its passes of at most
    BLOCK_POINTS evaluation points, with every ball of the call on the
    node sets of spec.seed, each drawn once at the top of the call
    (_ball_nodes) and broadcast over the balls of a pass: the antithetic
    inner set for the oscillation only, and the outer set, which the
    oscillation and the gradient share, only when some ball needs it.  A
    ball's value therefore has the bits it has alone, whatever the call
    and its pass.  A ball on which flat_radius
    certifies f constant gets the gradient average 0 without an
    evaluation, since grad is exactly 0 there.  Functions without a
    gradient are refused for gradient=True (UnsupportedFunctionError),
    and so are the queries _check_query and require_balls refuse.  A
    value or standard error that is not finite raises QuadratureError.
    """
    if gradient and f.grad is None:
        raise UnsupportedFunctionError(
            f"{f.function_id} has no gradient; maximal averages are undefined")
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    if centers.ndim != 2 or radii.shape != centers.shape[:1]:
        raise ValueError("need centers of shape (B, d) and radii of shape "
                         f"(B,), got {centers.shape} and {radii.shape}")
    _check_query(f, centers.shape[1], spec, q)
    require_balls(radii, centers)
    count = radii.size
    value = np.empty(count) if oscillation else None
    std_error = np.zeros(count) if oscillation else None
    avg = np.zeros(count) if gradient else None
    if gradient:
        live = (~flat_balls(f, centers, radii[:, None])[:, 0]
                if f.flat_radius is not None else np.ones(count, dtype=bool))
    if spec.method == "monte_carlo":
        n = spec.node_count
        u_out = u_in = None
        if oscillation or (gradient and live.any()):
            u_out = _ball_nodes(f.dim, n, spec.seed, KEY_OUTER)
        if oscillation:
            u_in = _ball_nodes(f.dim, inner_count(n), spec.seed, KEY_INNER)
        # f's points per ball: the outer and both antithetic inner sets for
        # the oscillation, and the outer set again for the gradient
        points = ((n + 2 * inner_count(n) if oscillation else 0)
                  + (n if gradient else 0))
        for at in (_passes(count, max(1, BLOCK_POINTS // points))
                   if u_out is not None else ()):
            val, err, grad = _mc_pass_estimates(
                f, centers[at], radii[at], q, u_out, u_in,
                live[at] if gradient else None)
            if oscillation:
                value[at], std_error[at] = val, err
            if gradient:
                avg[at] = grad
    elif spec.method == "gauss_1d":
        if oscillation:
            value[:] = exact_oscillation_1d(f, centers[:, 0], radii, q,
                                            mu_nodes=spec.node_count)[0]
        if gradient:
            balls = np.flatnonzero(live)
            for part in _passes(balls.size, _EXACT_PASS):
                at = balls[part]
                avg[at] = _gauss_gradient(f, centers[at, 0], radii[at])
    else:
        t = np.sqrt(_radial_profile(f, centers))
        for at in _passes(count, _EXACT_PASS):
            m, mean_grad = _radial_pass(f, t[at], radii[at], spec.node_count,
                                        oscillation,
                                        live[at] if gradient else None)
            if oscillation:
                value[at] = m
            if gradient:
                avg[at] = mean_grad
    if oscillation:
        require_finite(value, "oscillation")
        require_finite(std_error, "standard error")
    if gradient:
        require_finite(avg, "gradient")
    return BallEstimates(value, std_error, avg)


def _one_ball(f: TestFunction, ball: BallSample, spec: QuadratureSpec,
              q: float = 1.0, **what) -> BallEstimates:
    """ball_estimates on the one ball of a single-ball rule."""
    return ball_estimates(f, ball.center[None, :], np.array([ball.radius]),
                          spec, q, **what)


def q_oscillation(f: TestFunction, ball: BallSample, q: float,
                  spec: QuadratureSpec) -> EstimatedValue:
    """(average over the ball of |f - mean|^q)^(1/q), by ball_estimates.

    Nondecreasing in q for fixed inputs; q = 1 is the plain mean oscillation.
    """
    est = _one_ball(f, ball, spec, q)
    return EstimatedValue(est.value[0], est.std_error[0])


def mean_oscillation(f: TestFunction, ball: BallSample,
                     spec: QuadratureSpec) -> EstimatedValue:
    """Ball average of |f - ball mean of f|; same code path as q = 1."""
    return q_oscillation(f, ball, 1.0, spec)


def pair_oscillation(f: TestFunction, ball: BallSample, q: float,
                     spec: QuadratureSpec) -> EstimatedValue:
    """(double ball average of |f(x) - f(y)|^q)^(1/q).

    Statistical in every dimension: two independent uniform samples of
    spec.node_count points are paired, so spec must be monte_carlo; a
    gauss_1d or radial spec, whose node_count is a Gauss order, raises
    QuadratureError.  Sandwiched between the centered variant and twice it.
    """
    _check_query(f, ball.dim, spec, q)
    if spec.method != "monte_carlo":
        raise QuadratureError(
            f"pair_oscillation is a Monte Carlo rule; got method {spec.method!r}")
    n = spec.node_count
    d = ball.dim
    c = ball.center[:, None]
    ux = _ball_nodes(d, n, spec.seed, KEY_OUTER)
    uy = _ball_nodes(d, n, spec.seed, KEY_PAIR)
    vx = require_finite(np.asarray(
        f.eval(_point_major(c + ball.radius * ux)), dtype=float))
    vy = require_finite(np.asarray(
        f.eval(_point_major(c + ball.radius * uy)), dtype=float))
    return EstimatedValue(*_power_mean(np.abs(vx - vy), q, 0.0))


def flat_balls(f: TestFunction, centers, radii) -> np.ndarray:
    """r + SKIP_MARGIN (|a| + r) < f.flat_radius(a): the balls B_r(a) on
    which f is certified constant.  centers (..., d) and radii (J,) give
    shape (..., J)."""
    rho = np.asarray(f.flat_radius(centers), dtype=float)[..., None]
    size = np.linalg.norm(centers, axis=-1)[..., None]
    return radii + SKIP_MARGIN * (size + radii) < rho


def maximal_gradient(f: TestFunction, ball: BallSample,
                     spec: QuadratureSpec) -> float:
    """Ball average of |grad f| over the ball B_r(a), by ball_estimates.

    This is the radius-r term of the centered maximal function of |grad f|
    at a, hence a lower bound for M|grad f|(a) (exact in dimension one with
    gauss_1d, and in dimension three with radial; to RADIAL_ORDER's
    accuracy in dimension two; statistical on monte_carlo).  Functions
    without a gradient are rejected.  A ball on which flat_radius
    certifies f constant returns 0.0 before any evaluation, since grad is
    exactly 0 there.  The Monte Carlo route averages over the spec's outer
    node set, the one q_oscillation draws for the same spec.
    """
    return float(_one_ball(f, ball, spec, oscillation=False,
                           gradient=True).gradient[0])
