"""Ball mean oscillation and related local functionals.

The central object is

    m_f(a, r) = average over B_r(a) of |f - (average of f over B_r(a))|

computed as a genuine two-pass estimate: the inner ball average first, then
the average of the absolute deviation, on an independent node set.

There is one kernel per rule, and one batch entry per rule, which runs it
on any number of balls in passes of bounded size: exact_oscillation_1d,
and mc_oscillation for Monte Carlo.  No other module splits a batch into
passes.

exact_oscillation_1d (dimension one, method "gauss_1d") is fully
deterministic: the interval is split at the function's breakpoints, the
inner mean is a per-segment Gauss-Legendre rule of order node_count (exact
for piecewise polynomials), the sign changes of f - mean are located by
bisection, and the outer integral is evaluated per sign-constant segment.
Both integrals use the segment rule of quadrature.  For the piecewise-
polynomial catalog entries the result is exact to roundoff and std_error
is reported as 0.

mc_deviations (any dimension, method "monte_carlo") uses two independent
uniform node sets in the ball's local frame.  The inner pass is antithetic
(u, -u pairs), which integrates odd functions exactly; the outer pass is
plain.  Error propagation is first-order additive: the mean-to-deviation
map is 1-Lipschitz in the inner mean, so the two standard errors add.
Its nodes, and those of pair_oscillation and maximal_gradient, are stored
coordinate-major, (d, n), so each array operation on the points runs over
the n nodes instead of the d coordinates; f receives (n, d) views.

mc_oscillation takes the nodes of a batch's centres, which centre_nodes
draws for the curve, one stream per centre, and stores in one of two ways.
PointNodes holds the node sets for mc_deviations.  RadialNodes, for a
radial entry f(x) = profile(|x - c|^2) (catalog.Radial), holds per-node
features instead: with y = a - c, |a + r u - c|^2 = |y|^2 + r (2 y.u +
r |u|^2), and the antithetic pair has (|y|^2 + r^2 |u|^2) +- 2 r y.u.  Its
cost does not grow with d, it reduces mu, f - mu and the mean of |f - mu|
in mc_deviations' order, and its m differs from the point route's only by
the rounding of the squared distances.

The single-ball rules take one BallSample and a QuadratureSpec:
q_oscillation and mean_oscillation follow the spec's method;
pair_oscillation is Monte Carlo in every dimension and refuses gauss_1d;
maximal_gradient gives the ball average of |grad f|, the radius-r term of
the centered maximal function.  On Monte Carlo routes they take their
node sets from _ball_nodes, which memoizes the draw on (d, n, seed, key)
and keeps the 8 most recently used sets.  Repeated queries under one spec,
such as a suite's balls, then draw each set once and get the same bits.
The cached arrays are read-only because every caller shares them.
centre_nodes does not use the memo.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import TestFunction, coordinate_dot
from .quadrature import (KEY_BALL_IN, KEY_BALL_OUT, KEY_INNER, KEY_OUTER,
                         KEY_PAIR, BallSample, EstimatedValue,
                         QuadratureError, QuadratureSpec,
                         require_finite, require_method_dimension,
                         segment_edges, segment_integrals, segment_mean,
                         stream, unit_ball_nodes)

# relative slack of flat_balls against the rounding of a + r u, of |x| and
# of f itself, which are a few ulps of the coordinates and values
SKIP_MARGIN = 1e-9
# single-ball node sets _ball_nodes keeps: the three a spec can draw
# (outer, inner, pair) with room to spare; 8 x 16384 x 3 doubles is 3.1 MB
_NODE_SETS_KEPT = 8
# f evaluation points per Monte Carlo pass of mc_oscillation
BLOCK_POINTS = 2 ** 15
# the largest gap between a radial entry's profile and its eval at a
# chunk's centres, relative to the largest value there, that still takes
# the radial route; rounding of |a - c|^2 leaves gaps near 1e-16
_RADIAL_PROBE_RTOL = 1e-9
# balls per pass of exact_oscillation_1d: on the 2048-centre d = 1 curve
# (Python 3.11, Xeon, one BLAS thread) 8192 cut the peak from 69.5 to 56-58
# MB in the same time; 4096 and 2048 took x1.09 and x1.19 (1 ms per pass)
_EXACT_PASS = 8192

_ROOT_ITERS = 30
_GL_ORDER = 8
_GRADE_PANELS = 8


class UnsupportedFunctionError(ValueError):
    """Raised when an operation needs metadata the function does not carry."""


# ---------------------------------------------------------------------------
# deterministic dimension-one machinery, vectorized over (a, r) pair arrays
# ---------------------------------------------------------------------------

def _root_refined_edges(fev, edges: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Insert one bisected root of f - mu per segment where the sign flips.

    Returns edges of shape (..., 2K+3): original edges interleaved with the
    roots; segments without a sign change get a zero-width placeholder at
    their right end, which segment_integrals skips.  Assumes at most one
    root per segment, which holds for the catalog entries (each is
    monotone between its breakpoints).  f is evaluated once at each end of
    the ball and at each breakpoint strictly inside it; segment_edges
    clips the other breakpoints onto an end, whose value they copy.
    """
    first = edges[..., :1]
    live = (edges > first) & (edges < edges[..., -1:])
    live[..., [0, -1]] = True
    at = np.flatnonzero(live)  # take and put index the flat views
    f_edges = np.empty(edges.shape)
    f_edges.put(at, fev(edges.take(at)))
    g_edges = np.where(live, f_edges, np.where(
        edges == first, f_edges[..., :1], f_edges[..., -1:])) - mu[..., None]
    lo = edges[..., :-1]
    hi = edges[..., 1:]
    glo = g_edges[..., :-1]
    ghi = g_edges[..., 1:]
    cross = (np.sign(glo) * np.sign(ghi)) < 0

    root = hi.copy()
    idx = np.nonzero(cross)
    if idx[0].size:
        blo = lo[idx]
        bhi = hi[idx]
        slo = np.sign(glo[idx])
        mu_rows = np.broadcast_to(mu[..., None], cross.shape)[idx]
        for _ in range(_ROOT_ITERS):
            xm = 0.5 * (blo + bhi)
            same_side = np.sign(fev(xm) - mu_rows) == slo
            blo = np.where(same_side, xm, blo)
            bhi = np.where(same_side, bhi, xm)
        root[idx] = 0.5 * (blo + bhi)

    out = np.empty(edges.shape[:-1] + (2 * edges.shape[-1] - 1,),
                   dtype=float)
    out[..., 0::2] = edges
    out[..., 1::2] = root
    return out


def exact_oscillation_1d(f: TestFunction, a, r, q: float = 1.0,
                         mu_nodes: int = _GL_ORDER):
    """Deterministic (m_f, inner mean) over arrays of 1-d balls.

    Vectorized over broadcastable a and r arrays, in passes of at most
    _EXACT_PASS balls, so the working set does not grow with the batch and
    a ball's bits do not depend on its pass.  Exact to roundoff for
    piecewise-polynomial f of degree <= 2*mu_nodes - 1 per segment when q
    is 1, 2, or 3.
    """
    require_method_dimension("gauss_1d", f.dim)
    a, r = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(r, dtype=float))
    out = np.empty((2, a.size))
    for lo in range(0, a.size, _EXACT_PASS):
        at = slice(lo, lo + _EXACT_PASS)
        out[:, at] = _exact_pass(f, a.flat[at], r.flat[at], q, mu_nodes)
    return out[0].reshape(a.shape), out[1].reshape(a.shape)


def _exact_pass(f: TestFunction, a: np.ndarray, r: np.ndarray, q: float,
                mu_nodes: int):
    """(m, inner mean) of the balls (a, r), shape (B,), on one pass of the
    exact segment route: the average of |f - mu|^q over the segments
    between f's breakpoints and the roots of f - mu."""
    fev = f.eval_1d
    edges = segment_edges(f.breakpoints_1d, a - r, a + r)
    width = edges[..., -1] - edges[..., 0]
    mu = segment_mean(fev, edges, mu_nodes)
    refined = _root_refined_edges(fev, edges, mu)
    if q == 1.0:
        seg = segment_integrals(lambda x, m: fev(x) - m, refined,
                                _GL_ORDER, mu)
        return np.abs(seg).sum(axis=-1) / width, mu
    # graded subdivision toward segment ends handles the |.|^q kink
    frac = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, _GRADE_PANELS + 1)))
    lo = refined[..., :-1]
    hi = refined[..., 1:]
    sub = lo[..., None] + (hi - lo)[..., None] * frac
    seg = segment_integrals(lambda x, m: np.abs(fev(x) - m) ** q, sub,
                            _GL_ORDER, mu)
    moment = seg.sum(axis=(-2, -1)) / width
    return np.maximum(moment, 0.0) ** (1.0 / q), mu


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
    (C, m) and (C, m).
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
        """mc_deviations' (dev, pair_sums) for rows at radii, shape (P,).

        The squared distances of the outer points and of both antithetic
        points, q = |y|^2 + r (2 y.u + r |u|^2) and
        q+- = (|y|^2 + r^2 |v|^2) +- r 2 y.v, go into three contiguous runs
        of one buffer, which profile gets in one call.  Rounding can leave q
        just below 0 where a point meets c, so q is clamped at 0 first.
        """
        r = radii[:, None]
        p = r.shape[0]
        n = self.out_dot.shape[-1]
        m = self.in_dot.shape[-1]
        yy = self.yy[rows][:, None]
        q = np.empty(p * (n + 2 * m))
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


def centre_nodes(f: TestFunction, centers: np.ndarray, seed: int,
                 node_count: int, global_start: int):
    """The Monte Carlo nodes of a chunk of curve centres, (C, d).

    The centre of row i draws node_count outer and inner_count(node_count)
    inner nodes from its own streams, KEY_BALL_OUT and KEY_BALL_IN keyed by
    its global index global_start + i, so its m does not depend on the
    chunk.  For a radial entry whose profile reproduces eval at every
    centre, to _RADIAL_PROBE_RTOL of the largest |eval| there, the result
    is RadialNodes, else PointNodes.  That probe checks the certificate
    where the chunk uses it: an eval replaced without its radial
    certificate, or not finite at a centre, takes the point route, so a
    curve never evaluates a stale profile.  Every sum over coordinates runs
    in index order (coordinate_dot), so no bit depends on a layout.
    """
    c_rows, d = centers.shape
    n, m = node_count, inner_count(node_count)
    radial = f.radial is not None
    if radial:
        y = centers - f.radial.center
        yy = coordinate_dot(y, y)
        ev = np.asarray(f.eval(np.ascontiguousarray(centers.T).T),
                        dtype=float)
        gap = np.abs(f.radial.profile(yy.copy()) - ev)
        radial = bool(np.all(gap <= _RADIAL_PROBE_RTOL * np.max(np.abs(ev))))
    if radial:
        nodes = RadialNodes(f.radial.profile, yy, np.empty((c_rows, n)),
                            np.empty((c_rows, n)), np.empty((c_rows, m)),
                            np.empty((c_rows, m)))
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


def _mc_passes(count: int, points_per_pair: int):
    """Slices of count (row, radius) pairs whose points_per_pair points per
    pair add up to at most BLOCK_POINTS a pass (at least one pair), so the
    working set does not grow with the batch."""
    per_pass = max(1, BLOCK_POINTS // points_per_pair)
    return (slice(lo, lo + per_pass) for lo in range(0, count, per_pass))


def mc_oscillation(nodes, radii, rows) -> np.ndarray:
    """m for each (row, radius) pair of nodes (PointNodes or RadialNodes),
    in passes of at most BLOCK_POINTS evaluation points (n + 2m per pair)."""
    radii = np.asarray(radii, dtype=float)
    out = np.empty(len(rows))
    for at in _mc_passes(len(rows), nodes.pair_points):
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


@functools.lru_cache(maxsize=_NODE_SETS_KEPT)
def _ball_nodes(d: int, n: int, seed: int, key: int) -> np.ndarray:
    """unit_ball_nodes(d, n, stream(seed, key)) stored coordinate-major,
    (d, n), and read-only.

    Memoized on (d, n, seed, key), the whole input of the draw, keeping the
    _NODE_SETS_KEPT (8) most recently used sets: a single-ball rule called
    again with the same spec gets the same bits without drawing them
    again.  The array is shared by every caller that asks for the key, so
    it is made read-only; a write raises instead of corrupting later calls.
    """
    u = np.ascontiguousarray(unit_ball_nodes(d, n, stream(seed, key)).T)
    u.flags.writeable = False
    return u


# ---------------------------------------------------------------------------
# public single-ball operations
# ---------------------------------------------------------------------------

def _check_query(f: TestFunction, ball: BallSample, spec: QuadratureSpec,
                 q: float = 1.0) -> None:
    """Refuse a single-ball query that has no meaning: an exponent q that
    is not a finite real >= 1, a ball of another dimension than f, or the
    gauss_1d rule off dimension one.  BallSample checks the ball itself."""
    if not (np.isfinite(q) and q >= 1.0):
        raise ValueError(f"q must be a real number >= 1, got {q}")
    if ball.dim != f.dim:
        raise ValueError(f"ball dimension {ball.dim} does not match function dimension {f.dim}")
    require_method_dimension(spec.method, f.dim)


def _power_mean(y: np.ndarray, q: float, se_extra: float) -> EstimatedValue:
    """mean(y)^(1/q) for samples y of |deviation|^q, with its standard
    error: the delta method on the q-th moment plus se_extra, the error
    carried in from an estimated inner mean (1-Lipschitz propagation)."""
    m_q = float(np.mean(y))
    se_m = float(np.std(y, ddof=1) / np.sqrt(y.size))
    if q == 1.0:
        return EstimatedValue(m_q, se_m + se_extra)
    if m_q <= 0.0:
        return EstimatedValue(0.0, se_extra)
    return EstimatedValue(m_q ** (1.0 / q),
                          (1.0 / q) * m_q ** (1.0 / q - 1.0) * se_m + se_extra)


def q_oscillation(f: TestFunction, ball: BallSample, q: float,
                  spec: QuadratureSpec) -> EstimatedValue:
    """(average over the ball of |f - mean|^q)^(1/q).

    Nondecreasing in q for fixed inputs; q = 1 is the plain mean oscillation.
    """
    _check_query(f, ball, spec, q)
    if spec.method == "gauss_1d":
        mom, _ = exact_oscillation_1d(f, ball.center[0], ball.radius, q,
                                      mu_nodes=spec.node_count)
        return EstimatedValue(float(mom), 0.0)

    n = spec.node_count
    d = ball.dim
    half = inner_count(n)
    u_out = _ball_nodes(d, n, spec.seed, KEY_OUTER)
    u_in = _ball_nodes(d, half, spec.seed, KEY_INNER)
    dev, pair_sums = mc_deviations(f.eval, ball.center, ball.radius,
                                   u_out, u_in)
    require_finite(dev)
    require_finite(pair_sums)
    pair_vals = 0.5 * pair_sums
    se_mu = float(np.std(pair_vals, ddof=1) / np.sqrt(half)) if half > 1 else 0.0
    return _power_mean(np.abs(dev, out=dev) ** q, q, se_mu)


def mean_oscillation(f: TestFunction, ball: BallSample,
                     spec: QuadratureSpec) -> EstimatedValue:
    """Ball average of |f - ball mean of f|; same code path as q = 1."""
    return q_oscillation(f, ball, 1.0, spec)


def pair_oscillation(f: TestFunction, ball: BallSample, q: float,
                     spec: QuadratureSpec) -> EstimatedValue:
    """(double ball average of |f(x) - f(y)|^q)^(1/q).

    Statistical in every dimension: two independent uniform samples of
    spec.node_count points are paired, so spec must be monte_carlo; a
    gauss_1d spec, whose node_count is a Gauss order, raises
    QuadratureError.  Sandwiched between the centered variant and twice it.
    """
    _check_query(f, ball, spec, q)
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
    return _power_mean(np.abs(vx - vy) ** q, q, 0.0)


def flat_balls(f: TestFunction, centers, radii) -> np.ndarray:
    """r + SKIP_MARGIN (|a| + r) < f.flat_radius(a): the balls B_r(a) on
    which f is certified constant.  centers (..., d) and radii (J,) give
    shape (..., J)."""
    rho = np.asarray(f.flat_radius(centers), dtype=float)[..., None]
    size = np.linalg.norm(centers, axis=-1)[..., None]
    return radii + SKIP_MARGIN * (size + radii) < rho


def maximal_gradient(f: TestFunction, ball: BallSample,
                     spec: QuadratureSpec) -> float:
    """Ball average of |grad f| over the ball B_r(a).

    This is the radius-r term of the centered maximal function of |grad f|
    at a, hence a lower bound for M|grad f|(a) (exact in dimension one with
    gauss_1d, statistical otherwise).  Functions without a gradient are
    rejected.  A ball on which flat_radius certifies f constant returns 0.0
    before any evaluation, since grad is exactly 0 there.  The Monte Carlo
    route averages over the outer node set that q_oscillation draws for the
    same spec.
    """
    if f.grad is None:
        raise UnsupportedFunctionError(
            f"{f.function_id} has no gradient; maximal averages are undefined")
    _check_query(f, ball, spec)
    a, r = ball.center, ball.radius
    if f.flat_radius is not None and flat_balls(f, a, np.array([r]))[0]:
        return 0.0

    if spec.method == "gauss_1d":
        def gmag(x):
            return np.abs(f.grad(x[..., None])[..., 0])

        edges = segment_edges(f.breakpoints_1d, a[0] - r, a[0] + r)
        return float(require_finite(segment_mean(gmag, edges, _GL_ORDER),
                                    "gradient"))

    u = _ball_nodes(f.dim, spec.node_count, spec.seed, KEY_OUTER)
    g = np.asarray(f.grad(_point_major(a[:, None] + r * u)), dtype=float)
    return float(np.mean(require_finite(np.sqrt(coordinate_dot(g, g)),
                                        "gradient")))
