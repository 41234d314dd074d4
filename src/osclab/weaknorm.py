"""Superlevel statistics of the ball oscillation on center-radius space.

The reference measure on R^d x (0, infinity) is da x dr / r^(p+1).  For a
threshold kappa > 0 the object of interest is the measure of the superlevel
set {(a, r): m_f(a, r) > kappa}, restricted to a box window in the center
variable and to radii at most r_max.  The radius section at fixed center is
resolved deterministically.  A geometric scan at ratio 1.25 brackets every
sign change of m_f(a, .) - kappa between neighbouring scanned radii (an
interval narrower than one scan step can fall between two of them), and
each run of scanned radii above kappa is one interval, however many runs
a row holds (nothing in the theory bounds their number).  A bracketed
inverse quadratic interpolation (Chandrupatla's method) started from the
scanned end values shrinks each bracket to 2^-k of its scan cell, and the
crossing is the secant through the final bracket's two evaluated ends,
clipped into it.  On the exact route the kernel also gives dm/dr, at no
extra integral, at the scanned radii and at each point the solve
evaluates; the solve then starts from the inverse cubic Hermite
interpolant of log m through the bracket's ends and takes Newton steps on
log m, each carried a quarter of the final bracket's width past its zero,
so that a converged step lands across the crossing and the bracket meets
the stop rule every route shares.  On the exact route, and on the Monte
Carlo route for an entry without a gradient, k = 18 (a bracket within
1e-6 of r), which on the exact route leaves the secant within roundoff
of the crossing, at about 3.1 evaluations per bracket on the d = 1
plateau curve (4.5 with Chandrupatla's steps alone) against the 2 k + 1
it may spend.  On the Monte Carlo route for an entry with a gradient, m
carries a node error of about 1 / sqrt(n) relative, so a crossing is
solved only to that budget, k = ceil(log2(0.25 sqrt(n))) (3 at 512
nodes, a bracket within r / sqrt(n)), at about 2 evaluations per bracket
on the d = 2 plateau curve against 4.7 for k = 18 (see
_mc_crossing_iters).  The weight of the resulting union of intervals has
the closed form (lo^-p - hi^-p) / p per interval.  The brackets of every
threshold, interval and direction in a chunk of centers go into one such
solve, whose rows are independent, so the crossing search costs a fixed
number of calls of m per chunk however many thresholds the grid holds.  A
side is decided by m > kappa, so a ball where f is not finite raises
QuadratureError rather than count as below every threshold.  Only the
center integral is approximated, by one of two centre plans, each of which
gives the centres, the count the curve reports and the reduction of the
per-centre weights to nu and its error.  distribution_curve(samples=...)
samples it (_sampled_plan), stratified and uniform over the window, which
makes it statistical, with a standard error; panels=... integrates it in
d = 1 on Gauss panels aligned with f's breakpoints (_rule_plan_1d), where
the weight of a center is a deterministic, piecewise smooth function of
it, with a deterministic error estimate.  The curve picks its plan once,
and every plan's centres go through the same chunked scan and solve.

The window's r_min is a numerical floor, not a truncation.  For an entry
with grad_max > 0 the scan starts at r_min or one scan step below the
radius where the gradient skip below certifies the estimate under the
smallest threshold, whichever is lower, so its first scanned radius is
skipped on every row and no section starts below the scan.  For other
entries it starts at r_min, and a section already above threshold there
is resolved by an analytic bracket (_below_floor_bracket: the constancy
radius flat_radius where the entry has one, certified), with the bracket's
weight spread reported as ambiguity.
The grid itself never moves, but the scan skips the cells whose estimate
is certified below the smallest threshold before any quadrature (see
_skip_mask): balls inside the region where f is constant (the catalog's
flat_radius), and balls too small for f to vary by that threshold
(2 r grad_max below it).  They read 0, which is on the same side of every
threshold as the estimate they stand for, so the sign pattern, and with it
every bracket the solve certifies, stays the same.  The secant reads that
0 as the value at its bracket's lower end, so next to a skipped cell a
crossing can move inside its certified bracket; that needs m above
kappa_min at a radius within one scan step of the skip bound, which the
plateau, with m near c'_d r |grad f| <= r grad_max / 2, never approaches.
At the other end of the grid nothing is skipped, but on the exact route a
ball that covers f's support (|a| + support_radius <= r, with the same
margin) has an m that depends on r alone: exact_oscillation_1d evaluates
each such radius once, at a = 0, and hands its bits to every centre.  So
the covering cells of a chunk share bits across its centres, and the
crossing rows bracketed there ask the kernel for the same radii, which it
evaluates once.

Two systematic truncations stay visible rather than hidden: the per-kappa
tail_bound column bounds the weight beyond r_max that the window cannot
see, and centers outside the box contribute nothing by construction (for a
compactly supported function and a box containing its support, that
contribution vanishes in the kappa^p-scaled limit).

m_f comes from the batch entries of oscillation, exact_oscillation_1d and
mc_oscillation, which bound the size of their own kernel passes; single-
ball queries run the same rules.  Both curve engines answer one batch
protocol, m_at(rows, r) -> (m, dm/dr or None), and share one radius scan
(_Engine.scan), which returns the slopes with m where the kernel gives
them, on the exact route.  Every center gets its own node stream
keyed by global sample index (oscillation.centre_nodes, which also picks
how the nodes are stored, in the dtype that _node_dtype picks once per
curve from its rounding budget and its smallest threshold), so results
are independent of chunking and thread count, and one scan is shared
across all thresholds (common random numbers), which makes the curve
exactly monotone in kappa up to the crossing tolerance.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .catalog import TestFunction, require_box_dimension, unit_ball_volume
from .oscillation import (SKIP_MARGIN, centre_nodes, exact_oscillation_1d,
                          flat_balls, float32_budget, mc_oscillation)
from .quadrature import (KEY_CENTERS, QuadratureError, QuadratureSpec,
                         gauss_rule, is_count, require_exponent,
                         require_finite, require_method_dimension, stream)

_CHUNK = 256
# Gauss order per panel of the d = 1 centre rule (distribution_curve's panels)
_CENTER_RULE_ORDER = 8

# merged always reads 0, since every interval is resolved; the key stays in
# the byte-stable outputs until their schema changes
_COUNTER_KEYS = ("below_floor", "open_at_r_max", "merged")
# the scan ratio of the radius grid and the bisection steps that bring a
# crossing to relative tolerance 1e-6 inside one scan cell (18): every
# radius section is resolved on this grid, by _resolve_sections, and every
# crossing of the exact route (and of a Monte Carlo entry without a
# gradient) to this tolerance; _mc_crossing_iters gives the others theirs
_SCAN_RATIO = 1.25
_BISECT_ITERS = math.ceil(math.log2(math.log(_SCAN_RATIO) / 1e-6))
# the default window's margin, the default threshold grid's span in
# decades, and the grid step of every threshold grid that names none
_DOMAIN_MARGIN = 0.25
_KAPPA_DECADES = 4.0
DEFAULT_KAPPA_RATIO = 10.0 ** 0.25
# limit_extrapolate's fit window, exponents and ok bounds
_FIT_SPAN = 10.0
_FIT_MIN_POINTS = 5
_FIT_ALPHAS = (0.5, 0.75, 1.0, 1.25, 1.5)
_FIT_MAX_REL_STDERR = 0.02
_FIT_MAX_REL_RESIDUAL = 0.05


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def c_d_prime(d: int) -> float:
    """Slope of the oscillation of a unit-gradient linear function.

    The mean absolute deviation of one coordinate over the unit ball:
    1/2 in dimension one, 4/(3 pi) in dimension two, 3/8 in three.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return math.exp(math.lgamma((d + 2) / 2.0)
                    - math.lgamma((d + 3) / 2.0)) / math.sqrt(math.pi)


def c_dp(d: int, p: float) -> float:
    """Limit constant for the scaled superlevel measure: c'_d^p / p."""
    require_exponent("p", p)
    return c_d_prime(d) ** p / p


def expansion_remainder_coeff(d: int, grad_lipschitz: float) -> float:
    """Certified coefficient of the r^2 remainder in the small-r expansion.

    For f whose gradient is grad_lipschitz-Lipschitz, the deviation
    |m_f(a,r) - c'_d r |grad f(a)|| is at most this coefficient times r^2.
    """
    return 3.0 * d / (d + 2.0) * grad_lipschitz


def interval_weight(r_lo, r_hi, p: float):
    """Measure of a radius interval under dr / r^(p+1): (lo^-p - hi^-p) / p.

    r_hi may be None or inf for the full tail above r_lo.  Vectorized over
    array inputs.
    """
    require_exponent("p", p)
    lo = np.asarray(r_lo, dtype=float)
    if np.any(lo <= 0):
        raise ValueError("interval weight requires a positive lower radius")
    if r_hi is None:
        return lo ** (-p) / p
    hi = np.asarray(r_hi, dtype=float)
    if np.any(hi < lo):
        raise ValueError("interval must have r_hi >= r_lo")
    return (lo ** (-p) - hi ** (-p)) / p


# ---------------------------------------------------------------------------
# the center-radius window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Box window for centers plus the radius range of interest.

    box is ((lo, hi), ...) per coordinate.  Radii are truncated above at
    r_max; r_min is a numerical floor: scanning starts at it or below it
    (_scan_grid), and sections reaching below the scan are resolved by
    analytic brackets, so the reported measure always refers to radii in
    (0, r_max].
    """
    box: tuple
    r_max: float
    r_min: float

    def __post_init__(self):
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        object.__setattr__(self, "box", box)
        if not box:
            raise ValueError("domain box must have at least one coordinate")
        for lo, hi in box:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ValueError(f"bad box side ({lo}, {hi})")
        if not (np.isfinite(self.r_max) and self.r_max > 0):
            raise ValueError("r_max must be finite and positive")
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")

    @property
    def dim(self) -> int:
        return len(self.box)

    @property
    def volume(self) -> float:
        return math.prod(hi - lo for lo, hi in self.box)


def default_domain(f: TestFunction) -> Domain:
    """Window with the support (or unit) scale padded by a quarter per side.

    r_max is 10 times (window diameter + support scale), where the
    certified tail bound makes the unseen weight negligible; r_min is 1e-4
    of the feature scale.
    """
    scale = f.support_radius if f.support_radius is not None else 1.0
    half = scale * (1.0 + _DOMAIN_MARGIN)
    box = tuple((-half, half) for _ in range(f.dim))
    r_max = 10.0 * (2.0 * half * math.sqrt(f.dim) + scale)
    return Domain(box=box, r_max=r_max, r_min=1e-4 * scale)


def kappa_grid(kappa_max: float, kappa_min: float,
               ratio: float) -> np.ndarray:
    """Decreasing geometric grid from kappa_max to kappa_min with
    round(log(kappa_max / kappa_min) / log(ratio)) + 1 points, at least 2.
    ValueError unless ratio > 1 is finite and 0 < kappa_min < kappa_max < inf.
    """
    if not (math.isfinite(ratio) and ratio > 1.0):
        raise ValueError(f"kappa ratio must be a finite real > 1, got {ratio}")
    if not 0.0 < kappa_min < kappa_max < math.inf:
        raise ValueError("need 0 < kappa_min < kappa_max < inf")
    count = int(round(math.log(kappa_max / kappa_min) / math.log(ratio))) + 1
    return np.geomspace(kappa_max, kappa_min, max(count, 2))


def default_kappa_grid(f: TestFunction,
                       ratio: float = DEFAULT_KAPPA_RATIO) -> np.ndarray:
    """kappa_grid over four decades, top at the gradient scale."""
    if f.grad_max is None or f.grad_max <= 0:
        raise ValueError(
            f"{f.function_id} has no gradient bound; pass thresholds explicitly")
    r_typ = f.support_radius if f.support_radius is not None else 1.0
    top = c_d_prime(f.dim) * r_typ * f.grad_max
    return kappa_grid(top, top * 10.0 ** (-_KAPPA_DECADES), ratio)


def sample_centers(domain: Domain, count: int, seed: int):
    """Uniform centers over the window; returns (centers, stratum_ids, n_strata).

    The box is split into k^d equal sub-cells, k = floor((count / 16)^(1/d)),
    each receiving an equal share of the budget (the remainder spread one
    per cell), and one jittered point is drawn per slot; below 16 * 2^d
    samples there is one cell.  The estimator stays unbiased (every
    point is uniform in its cell and the cells tile the box evenly) and the
    stratum ids support a per-stratum variance estimate.  Sampling order is
    sorted by stratum, so chunked consumers see a deterministic layout.
    """
    if count < 1:
        raise ValueError("need at least one center sample")
    d = domain.dim
    rng = stream(seed, KEY_CENTERS)
    lo = np.array([s[0] for s in domain.box])
    hi = np.array([s[1] for s in domain.box])
    # the largest k with 16 k^d <= count; the float root only seeds it,
    # since it can land below an exact root (64 ** (1/3) < 4)
    k = round((count / 16) ** (1.0 / d))
    if 16 * k ** d > count:
        k -= 1
    k = max(k, 1)
    base = k ** d
    per, extra = divmod(count, base)
    counts = np.full(base, per, dtype=np.intp)
    counts[:extra] += 1
    ids = np.repeat(np.arange(base, dtype=np.intp), counts)
    cell = np.stack(np.unravel_index(ids, (k,) * d), axis=-1).astype(float)
    u = rng.uniform(size=(count, d))
    pos = (cell + u) / k
    return lo + pos * (hi - lo), ids, base


# ---------------------------------------------------------------------------
# radius-section location: scan, runs, crossings
# ---------------------------------------------------------------------------

def _scan_grid(f: TestFunction, domain: Domain,
               kappa_min: float) -> np.ndarray:
    """Geometric radius grid at ratio _SCAN_RATIO up to r_max, with at
    least 3 radii, from r_min or lower.

    For an entry with grad_max > 0 it starts one scan step or more below
    the radius kappa_min / (2 grad_max (1 + SKIP_MARGIN)) under which
    _skip_mask certifies the estimate below kappa_min, so the first scanned
    radius is skipped on every row, on either route and for every node
    draw, and no section of such an entry starts below the scan.
    """
    start = min(domain.r_min, domain.r_max / _SCAN_RATIO ** 2)
    if f.grad_max is not None and f.grad_max > 0:
        start = min(start, kappa_min / (2.0 * f.grad_max * (1.0 + SKIP_MARGIN)
                                        * _SCAN_RATIO))
    n = int(math.ceil(math.log(domain.r_max / start)
                      / math.log(_SCAN_RATIO))) + 1
    return np.geomspace(start, domain.r_max, max(n, 3))


def _skip_mask(f: TestFunction, centers: np.ndarray, grid: np.ndarray,
               kappa_min: float) -> np.ndarray:
    """Scan cells (center, grid radius), shape (C, J), whose estimate of m
    is certified below kappa_min without evaluating f.

    Both certificates bound the estimator on either route, not only the
    true m_f: the inner mean is a convex combination of values of f in the
    ball (antithetic Monte Carlo mean, positive-weight Gauss rule), and m
    averages |f - mean| over points of the ball, so m <= osc of f on the
    ball.  That oscillation is 0 when r < flat_radius(a), and at most
    2 r grad_max always.  Both conditions hold on a prefix of radii in each
    row, and _scan_grid starts the grid of an entry with grad_max > 0 inside
    the second one's.  On a constant ball both routes read 0 up to
    rounding: the Monte Carlo estimate is a mean of equal values minus
    itself, and the exact route divides its Gauss sums by the width it
    integrates over (oscillation._exact_pass states the weight sums behind
    that).
    """
    r = grid[None, :]
    skip = np.zeros((centers.shape[0], grid.size), dtype=bool)
    if f.grad_max is not None:
        skip |= 2.0 * r * f.grad_max * (1.0 + SKIP_MARGIN) < kappa_min
    if f.flat_radius is not None:
        skip |= flat_balls(f, centers, grid)
    return skip


def _mc_crossing_iters(node_count: int) -> int:
    """Halvings k of a scan cell that solve a Monte Carlo crossing to the
    node noise: k = ceil(log2((_SCAN_RATIO - 1) sqrt(n))), clipped to
    [1, _BISECT_ITERS].

    An estimate of m on n nodes carries a relative error of about
    1 / sqrt(n).  Where m(a, .) grows or falls at least like a power r or
    1 / r (the small-radius expansion m ~ c'_d r |grad f(a)|, the decay
    beyond the support), that error moves its crossing of kappa by about
    r / sqrt(n), so a finer crossing resolves the node draw, not m_f.  A
    scan cell [r, _SCAN_RATIO r] is (_SCAN_RATIO - 1) r wide, so a bracket
    of 2^-k of it is at most r / sqrt(n) wide, and the secant that
    _bisect_crossings returns from it errs at second order in that width.
    At n = 512, k = 3: a bracket of 1/8 of the cell, 3.1 % of r, against a
    node noise of 4.4 %.
    """
    k = math.ceil(math.log2((_SCAN_RATIO - 1.0) * math.sqrt(node_count)))
    return min(max(k, 1), _BISECT_ITERS)


def _bisect_crossings(m_at, rows, lo, hi, kappa, rising, iters, m_lo, m_hi,
                      *, slopes=None):
    """Crossing of m(row, .) through kappa in each bracket [lo, hi], solved
    to an evaluated bracket of 2^-iters of it.

    m_at(rows, r) returns (m, dm/dr or None), as _Engine's does.  There is
    one entry of rows (the row of m, which may repeat), lo, hi and rising
    per bracket, and kappa is a scalar or one threshold per bracket.
    m_lo and m_hi are the values of m at the bracket ends (from the scan,
    so they cost nothing); any value on the same side of kappa as m serves,
    such as the 0 a skipped scan cell holds.  A side counts as high when
    (m > kappa) == rising, as in bisection.

    First a Chandrupatla solve (Chandrupatla, Advances in Engineering
    Software 28(3), 1997) shrinks each bracket to [a, b].  It keeps the
    newest point x1 and the bracket end x2 across the crossing from it; x3
    is the point a step drops.  Its first step interpolates linearly
    between the end values, and each later one takes the inverse quadratic
    interpolant of m - kappa through the three points when Chandrupatla's
    test accepts it (phi^2 < xi and (1 - phi)^2 < 1 - xi, where
    xi = (x1 - x2) / (x3 - x2) and phi is the same ratio of the values of
    m - kappa), and bisects otherwise.  With eps = (hi - lo) / 2^(iters + 1)
    every step lands at least eps / 2 from x1 and from x2, so once the
    interpolant sits on the crossing the next step straddles it; a row
    stops when b - a <= 2 eps, 2^-iters of its bracket.  The values of
    m - kappa only place points; the side of a point is decided by the rule
    above.

    With slopes, a pair (dm/dr at lo, dm/dr at hi) of arrays, the slopes
    place points too, on y = log(m / kappa), which is nearer linear in r
    than m where m grows or decays like a power of r.  The first step
    takes the zero of the inverse cubic Hermite interpolant of y through
    both ends, or the Newton step from the one end whose value and slope
    serve (not the 0 of a skipped cell) (_hermite_step).  After each
    evaluation the Newton step on y from the new x1, with the dm/dr that
    m_at returned there, is carried eps / 2 past its zero, away from x1;
    where that lands strictly inside the bracket it replaces
    Chandrupatla's step.  Once Newton has converged each such point lands
    eps / 2 past the crossing, across it from x1, so two in turn leave a
    bracket about eps wide, which meets the stop rule: on smooth m a row
    takes the Hermite step, one Newton step and the carried one.
    Chandrupatla's floor, the stop rule and the phase below stay as they
    are.

    A row past iters + 1 steps bisects until b - a <= 2 eps, which takes at
    most iters more.  The result is the secant through the final bracket's
    two evaluated ends, clipped into [a, b].  It costs no further
    evaluation, lies in an evaluated sign change no wider than 2^-iters of
    [lo, hi] (with several crossings in the bracket, next to one of them),
    and errs at second order in that width where m is smooth: on the exact
    route, at _BISECT_ITERS, within roundoff of the crossing.  A row costs
    at most 2 * iters + 1 evaluations, and the whole call at most
    2 * iters + 1 calls of m_at, however many rows.
    """
    kappa = np.broadcast_to(np.asarray(kappa, dtype=float), rows.shape)
    eps = (hi - lo) / 2.0 ** (iters + 1)
    sign = np.where(rising, 1.0, -1.0)
    x1, y1 = hi.copy(), sign * (m_hi - kappa)
    x2, y2 = lo.copy(), sign * (m_lo - kappa)
    # step t from x1 toward x2, first the secant; y1 - y2 > 0 since the
    # ends lie on either side
    t = y1 / (y1 - y2)
    if slopes is not None:
        t = _hermite_step(x1, x2,
                          *_log_residual(m_hi, slopes[1], kappa, sign),
                          *_log_residual(m_lo, slopes[0], kappa, sign), t)
    act = np.arange(rows.size)
    for step in range(2 * iters + 1):
        act = act[np.abs(x2[act] - x1[act]) > 2.0 * eps[act]]
        if not act.size:
            break
        if step > iters:
            t[act] = 0.5
        p1, p2, f1, f2 = x1[act], x2[act], y1[act], y2[act]
        floor = 0.5 * eps[act] / np.abs(p2 - p1)
        x = p1 + np.clip(t[act], floor, 1.0 - floor) * (p2 - p1)
        m, dm = m_at(rows[act], x)
        y = sign[act] * (m - kappa[act])
        # the new point replaces x1 when both lie on the same side
        same = ((m > kappa[act]) == rising[act]) == (p1 > p2)
        p3 = np.where(same, p1, p2)
        f3 = np.where(same, f1, f2)
        p2 = np.where(same, p2, p1)
        f2 = np.where(same, f2, f1)
        p1, f1 = x, y
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (p1 - p2) / (p3 - p2)
            phi = (f1 - f2) / (f3 - f2)
            iqi = (f1 / (f2 - f1) * f3 / (f2 - f3)
                   + (p3 - p1) / (p2 - p1) * f1 / (f3 - f1) * f2 / (f3 - f2))
        t[act] = np.where((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi),
                          iqi, 0.5)
        if slopes is not None:
            # the Newton step on log(m / kappa) from x1, carried eps / 2
            # past its zero, where that lands strictly inside the bracket
            # (only a step toward x2 can, and the carry adds to it)
            ly, ld = _log_residual(m, dm, kappa[act], sign[act])
            carry = 0.5 * eps[act] / np.abs(p2 - p1)
            with np.errstate(all="ignore"):
                tn = carry - ly / ld / (p2 - p1)
            t[act] = np.where((tn > carry) & (tn < 1.0), tn, t[act])
        x1[act], x2[act], y1[act], y2[act] = p1, p2, f1, f2
    # x1 and x2 lie on either side, so at most one of y1, y2 is 0 and their
    # signs differ
    return np.clip(x1 - y1 * (x2 - x1) / (y2 - y1), np.minimum(x1, x2),
                   np.maximum(x1, x2))


def _log_residual(m, dm, kappa, sign):
    """sign * log(m / kappa) and its slope sign * dm / m; not finite
    where m is not positive."""
    with np.errstate(all="ignore"):
        return sign * np.log(m / kappa), sign * dm / m


def _hermite_step(x1, x2, y1, d1, y2, d2, t):
    """t of the first step from x1 = hi toward x2 = lo, from y = sign
    log(m / kappa) and its slope d at both ends: the zero of the inverse
    cubic Hermite interpolant x(y) through (y2, x2) and (y1, x1) with
    x'(y) = 1 / d2 and 1 / d1 where both ends serve (y finite, on its
    side, d positive), else the Newton step from the end that serves,
    else the given t (the secant); each only when it lands strictly inside
    the bracket."""
    with np.errstate(all="ignore"):
        dy = y1 - y2
        u = -y2 / dy
        uu = u * u
        x = ((2.0 * u - 3.0) * uu + 1.0) * x2 + ((3.0 - 2.0 * u) * uu) * x1
        x += (u * (u - 1.0) * dy) * ((u - 1.0) / d2 + u / d1)
        span = x2 - x1
        steps = ((x - x1) / span, -y1 / d1 / span, 1.0 + -y2 / d2 / span)
    hi_ok = (d1 > 0.0) & (y1 > 0.0) & np.isfinite(y1)
    lo_ok = (d2 > 0.0) & (y2 < 0.0) & np.isfinite(y2)
    # the lowest priority first, so each later choice overrides it
    for ok, step in zip((lo_ok, hi_ok, hi_ok & lo_ok), steps[::-1]):
        t = np.where(ok & (step > 0.0) & (step < 1.0), step, t)
    return t


def _below_floor_bracket(f: TestFunction, centers: np.ndarray, rows,
                         floor: float):
    """Certified (lo, hi) bracket for a crossing below the scanned range.

    Only entries without grad_max reach it (_scan_grid starts the others'
    scan on a radius that _skip_mask skips).  For an entry with a
    constancy radius it serves: m(a, r) = 0 while r < flat_radius(a), in
    every dimension and under translate and dilate.  It is kept above
    floor * 1e-6, so a center on the jump set still gets a finite weight.
    Other entries fall back to 0.1 * floor, which nothing certifies.  The
    scanned value at the floor being above threshold caps the bracket.
    """
    hi = np.full(rows.size, floor)
    lo = np.full(rows.size, floor * 0.1)
    if f.flat_radius is not None:
        rho = np.asarray(f.flat_radius(centers[rows]), dtype=float)
        lo = np.clip(rho, floor * 1e-6, hi * 0.999999)
    return lo, hi


def _resolve_sections(eng, scan, slopes, grid, kappas, p):
    """Radius sections per threshold and row of eng's chunk, from the
    (m, slopes) that eng.scan returned on grid.

    kappas is the array of K thresholds sharing the scan.  Each run of scan
    cells above a threshold is one interval, however many runs a row
    holds.  The interval starts at the crossing in the gap before the run
    and ends at the crossing in the gap after it; gap g lies between
    grid[g - 1] and grid[g], gap 0 below the scan and gap J beyond it.
    Every bracket of every threshold goes into one _bisect_crossings call
    on eng.m_at, with eng.iters (_BISECT_ITERS, or a Monte Carlo budget),
    and with the slopes of m at the bracket ends unless slopes is None.
    A run that starts at grid[0] takes the midpoint of _below_floor_bracket
    (on eng.f and eng.centers) as its lower end and that bracket's weight
    as its ambiguity; a run still above at r_max ends there.

    Returns flat arrays, one entry per interval, ordered by threshold, row
    and radius: the threshold index, the row, lo, hi, the ambiguity weight,
    and the below-floor and open-at-r_max flags.
    """
    kappas = np.asarray(kappas, dtype=float)
    j = scan.shape[1]
    above = scan[None, :, :] > kappas[:, None, None]
    pad = np.zeros(above.shape[:2] + (1,), dtype=bool)
    above = np.concatenate([pad, above, pad], axis=2)
    # rises and falls alternate along a row, so in C order the i-th rise
    # and the i-th fall bound the same interval
    k, row, rise = np.nonzero(above[..., 1:] & ~above[..., :-1])
    fall = np.nonzero(above[..., :-1] & ~above[..., 1:])[2]
    # the (K, C, J + 2) mask is not needed during the crossing search
    del above
    below_floor = rise == 0
    at_r_max = fall == j
    lo = np.empty(k.size)
    hi = np.full(k.size, grid[-1])
    ambig = np.zeros(k.size)

    # the intervals whose lower (upper) end is a crossing inside the scan
    inner_lo = np.nonzero(~below_floor)[0]
    inner_hi = np.nonzero(~at_r_max)[0]
    t = np.concatenate([inner_lo, inner_hi])
    rows = row[t]
    jb = np.concatenate([rise[inner_lo], fall[inner_hi]])
    rising = np.arange(t.size) < inner_lo.size
    ends = (None if slopes is None else
            (slopes[rows, jb - 1], slopes[rows, jb]))
    x = _bisect_crossings(eng.m_at, rows, grid[jb - 1], grid[jb],
                          kappas[k[t]], rising, eng.iters, scan[rows, jb - 1],
                          scan[rows, jb], slopes=ends)
    lo[inner_lo] = x[rising]
    hi[inner_hi] = x[~rising]

    if below_floor.any():
        blo, bhi = _below_floor_bracket(eng.f, eng.centers, row[below_floor],
                                        grid[0])
        lo[below_floor] = 0.5 * (blo + bhi)
        ambig[below_floor] = interval_weight(blo, bhi, p)
    return k, row, lo, hi, ambig, below_floor, at_r_max


# ---------------------------------------------------------------------------
# scan engines
# ---------------------------------------------------------------------------

class _Engine:
    """m(row, r) for f on a chunk of centers (C, d), and the radius scan.

    m_at(rows, r) returns the pair (m, dm/dr) at each (row, radius) pair,
    the one batch protocol of both engines; dm/dr is None where the kernel
    gives none (the Monte Carlo route).  m_at raises QuadratureError on a
    ball where f is not finite: a side is decided by m > kappa, which is
    False for NaN, so such a ball would otherwise count as below every
    threshold.  iters is the crossing search's (see _bisect_crossings), by
    default _BISECT_ITERS.
    """
    iters = _BISECT_ITERS

    def scan(self, grid: np.ndarray, skip: np.ndarray):
        """(m, slopes) at every (row, grid radius) cell, shape (C, J) each;
        slopes is None where m_at gives no dm/dr.

        Cells where the (C, J) mask skip is True are not evaluated and read
        0 in both; the others go to m_at as one gather of (row, radius)
        pairs, so each value is the one m_at returns for that pair.
        """
        rows, cols = np.nonzero(~skip)
        out = np.zeros(skip.shape)
        out[rows, cols], dm = self.m_at(rows, grid[cols])
        if dm is None:
            return out, None
        slopes = np.zeros(skip.shape)
        slopes[rows, cols] = dm
        return out, slopes


class _Exact1D(_Engine):
    """The deterministic Gauss route of exact_oscillation_1d, d = 1.

    m_at asks the kernel for dm/dr too, which it gives at no extra integral
    and with the same bits of m, so the scan returns the slopes of its cells
    for the crossing search.
    """

    def __init__(self, f: TestFunction, centers: np.ndarray, mu_nodes: int):
        self.f, self.centers = f, centers
        self.mu_nodes = mu_nodes

    def m_at(self, rows, r):
        # q = 1, with dm/dr
        m, _, dm = exact_oscillation_1d(self.f, self.centers[rows, 0], r, 1.0,
                                        self.mu_nodes, True)
        return require_finite(m), dm


class _McScan(_Engine):
    """The Monte Carlo route: m_at runs mc_oscillation on the chunk's nodes
    from centre_nodes, whose radial features take dtype (the curve's
    _node_dtype), and which keys each centre's streams by its global sample
    index, so m(a, r) is a deterministic function per centre and results do
    not depend on chunk boundaries or thread count.  The inner mean uses an
    independent antithetic stream, which keeps the two-pass estimate
    unbiased for odd perturbations.  It gives no dm/dr.

    For an entry with a gradient, f and so m(a, .) are continuous, and the
    crossings are solved to the node noise (_mc_crossing_iters).  Without
    one (the indicator) m(a, .) jumps where a node crosses the sphere, so
    the crossings are solved to _BISECT_ITERS steps: the secant across a
    jump can land anywhere in its bracket, which is then 2^-18 of a cell.
    """

    def __init__(self, f: TestFunction, centers: np.ndarray, seed: int,
                 node_count: int, global_start: int, dtype=np.float64):
        self.f, self.centers = f, centers
        self.nodes = centre_nodes(f, centers, seed, node_count, global_start,
                                  dtype)
        if f.grad is not None:
            self.iters = _mc_crossing_iters(node_count)

    def m_at(self, rows, r):
        return require_finite(mc_oscillation(self.nodes, r, rows)), None


def _make_engine(f, centers, spec, global_start, dtype=np.float64):
    if spec.method == "gauss_1d":
        return _Exact1D(f, centers, spec.node_count)
    return _McScan(f, centers, spec.seed, spec.node_count, global_start,
                   dtype)


def _node_dtype(f: TestFunction, spec: QuadratureSpec,
                kappa_min: float):
    """The dtype of a Monte Carlo curve's radial node features: float32
    where f is radial in d >= 2, carries grad_max and support_radius, and
    its rounding budget B (oscillation.float32_budget, largest at r = R)
    is at most kappa_min / (10 sqrt(n)); float64 otherwise.

    A crossing of kappa moves by about its m error over the slope of m,
    and m's node noise, kappa / sqrt(n) there, moves it by the 2^-k
    bracket of _mc_crossing_iters; so B keeps the shift from float32 at a
    tenth of that bracket or less.
    """
    if (spec.method != "monte_carlo" or f.dim < 2 or f.radial is None
            or f.grad_max is None or f.support_radius is None):
        return np.float64
    budget = float32_budget(f, f.support_radius, spec.node_count)
    if budget <= kappa_min / (10.0 * math.sqrt(spec.node_count)):
        return np.float32
    return np.float64


# ---------------------------------------------------------------------------
# distribution curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionCurve:
    """Superlevel measure against threshold, with scaled values and bounds.

    kappa_grid is strictly decreasing; nu is the window-restricted measure
    estimate with nu_stderr its center-sampling standard error, or the
    centre rule's error estimate (bracket ambiguities included); scaled is
    kappa^p * nu; tail_bound bounds the weight beyond r_max that the window
    cannot see (measure units).  samples counts the centers whose weights
    make nu (for a rule curve the rule's nodes), and counters sum over every
    evaluated center (for a rule curve the half-panel rule's nodes too).
    """
    function_id: str
    dim: int
    p: float
    kappa_grid: np.ndarray
    nu: np.ndarray
    nu_stderr: np.ndarray
    tail_bound: np.ndarray
    domain: Domain
    samples: int
    seed: int
    method: str
    node_count: int
    counters: dict = field(default_factory=dict)

    @property
    def scaled(self) -> np.ndarray:
        return self.kappa_grid ** self.p * self.nu

    @property
    def scaled_stderr(self) -> np.ndarray:
        return self.kappa_grid ** self.p * self.nu_stderr


def _r_tail_bound(f: TestFunction, kappa: float, p: float,
                  domain: Domain) -> float:
    full = domain.volume * domain.r_max ** (-p) / p
    if f.l1_mass is None:
        return full
    gamma = 2.0 * f.l1_mass / unit_ball_volume(f.dim)
    r_top = (gamma / kappa) ** (1.0 / f.dim)
    if r_top <= domain.r_max:
        return 0.0
    return domain.volume * float(interval_weight(domain.r_max, r_top, p))


def _center_weights(f, centers, kappas, p, spec, grid, threads, dtype):
    """Per-centre weights and bracket ambiguities, each of shape (K, C),
    and the counters summed over every chunk.

    The centres run in chunks of _CHUNK, each scanned by its own engine
    keyed by its global start, on the node dtype the curve picked
    (_node_dtype), and the chunk results join in order, so threads
    changes wall time only.
    """
    starts = range(0, centers.shape[0], _CHUNK)

    def run(start):
        chunk = centers[start:start + _CHUNK]
        eng = _make_engine(f, chunk, spec, start, dtype)
        scan, slopes = eng.scan(grid, _skip_mask(f, chunk, grid,
                                                 float(kappas.min())))
        k, row, lo, hi, amb, below_floor, at_r_max = _resolve_sections(
            eng, scan, slopes, grid, kappas, p)
        # each (threshold, row) cell adds its intervals in radius order
        shape = (kappas.size, chunk.shape[0])
        w = np.zeros(shape)
        np.add.at(w, (k, row), interval_weight(lo, hi, p))
        ambig = np.zeros(shape)
        np.add.at(ambig, (k, row), amb)
        return w, ambig, {"below_floor": int(below_floor.sum()),
                          "open_at_r_max": int(at_r_max.sum())}

    if threads > 1 and len(starts) > 1:
        # imported here, so a single-threaded run does not load the pool's
        # modules at start
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(threads, len(starts))) as pool:
            results = list(pool.map(run, starts))
    else:
        results = [run(start) for start in starts]

    weights = np.concatenate([w for w, _, _ in results], axis=1)
    ambig = np.concatenate([am for _, am, _ in results], axis=1)
    counters = {key: sum(cnt.get(key, 0) for _, _, cnt in results)
                for key in _COUNTER_KEYS}
    return weights, ambig, counters


# ---------------------------------------------------------------------------
# centre plans: the centres, the count a curve reports, and reduce(weights,
# ambig) -> (nu, nu_stderr) over the (K, C) arrays of _center_weights
# ---------------------------------------------------------------------------

def _sampled_plan(domain: Domain, samples: int, seed: int):
    """The centres of sample_centers; nu is the window's volume times the
    mean weight, and its error the stratified standard error plus the
    volume times the mean ambiguity."""
    centers, strata, n_strata = sample_centers(domain, samples, seed)
    vol = domain.volume
    # sample_centers sorts the centres by stratum, so each stratum is one
    # run of columns
    cuts = np.flatnonzero(np.diff(strata)) + 1

    def reduce(weights, ambig):
        # the variances add up in stratum order
        acc = np.zeros(weights.shape[0])
        for grp in np.split(weights, cuts, axis=1):
            acc += grp.var(axis=1, ddof=1) / grp.shape[1]
        return (vol * weights.mean(axis=1),
                vol * np.sqrt(acc) / n_strata + vol * ambig.mean(axis=1))

    return centers, samples, reduce


def _center_rule_1d(f: TestFunction, domain: Domain, n: int):
    """Nodes and Gauss weights of distribution_curve's d = 1 centre rule
    on n panels per piece."""
    lo, hi = domain.box[0]
    cuts = np.array(sorted({lo, hi} | {float(b) for b in f.breakpoints_1d
                                       if lo < b < hi}))
    t, g = gauss_rule(_CENTER_RULE_ORDER)
    s = np.linspace(0.0, 1.0, n + 1)
    edges = cuts[:-1, None] + (cuts[1:] - cuts[:-1])[:, None] * s
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])[..., None]
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])[..., None]
    return (mid + half * t).ravel(), (half * g).ravel()


def _rule_plan_1d(f: TestFunction, domain: Domain, panels: int):
    """The nodes of the d = 1 centre rule on panels panels per piece, then
    those of the rule on half the panels, which only the error estimate
    reads; the count is the first rule's.  nu is the rule's sum, and its
    error |nu - nu_half| plus the rule's sum of the ambiguities."""
    fine, g_fine = _center_rule_1d(f, domain, panels)
    coarse, g_coarse = _center_rule_1d(f, domain, panels // 2)

    def reduce(weights, ambig):
        nu = weights[:, :fine.size] @ g_fine
        return nu, (np.abs(nu - weights[:, fine.size:] @ g_coarse)
                    + ambig[:, :fine.size] @ g_fine)

    return np.concatenate([fine, coarse])[:, None], fine.size, reduce


def _curve_engine(f: TestFunction, p: float, kappas: np.ndarray,
                  domain: Domain, spec: QuadratureSpec, samples: int,
                  threads: int, panels: Optional[int] = None,
                  dtype=np.float64) -> DistributionCurve:
    centers, samples, reduce = (
        _sampled_plan(domain, samples, spec.seed) if panels is None
        else _rule_plan_1d(f, domain, panels))
    grid = _scan_grid(f, domain, float(kappas[-1]))
    weights, ambig, counters = _center_weights(f, centers, kappas, p, spec,
                                               grid, threads, dtype)
    nu, se = reduce(weights, ambig)
    tail = np.array([_r_tail_bound(f, float(k), p, domain) for k in kappas])
    return DistributionCurve(
        function_id=f.function_id, dim=f.dim, p=float(p), kappa_grid=kappas,
        nu=nu, nu_stderr=se, tail_bound=tail, domain=domain,
        samples=samples, seed=spec.seed, method=spec.method,
        node_count=spec.node_count, counters=counters)


def distribution_curve(f: TestFunction, p: float, kappa_grid,
                       domain: Domain, spec: QuadratureSpec,
                       samples: Optional[int] = None, threads: int = 1,
                       panels: Optional[int] = None) -> DistributionCurve:
    """Estimate the superlevel measure for a whole threshold grid at once.

    Exactly one of samples and panels gives the center integral.  samples
    (an integer >= 2) samples the centers, stratified and uniform over the
    window, with a standard error.  panels (an even integer >= 2) is the
    d = 1 centre rule of the gauss_1d route: there the weight w(a, kappa)
    of a centre is smooth between f's breakpoints, so a composite
    Gauss-Legendre rule integrates it far better than sampling (Davis and
    Rabinowitz, Methods of Numerical Integration, 1984, ch. 2).  The box
    splits at its ends and at the breakpoints_1d inside it, each piece into
    panels equal panels of _CENTER_RULE_ORDER nodes a_i with Gauss weights
    g_i, and nu = sum_i g_i w(a_i, kappa).  nu_stderr is |nu - nu_half|,
    nu_half being the same rule on panels / 2 panels per piece (its nodes
    share the weight evaluation), plus sum_i g_i times a_i's ambiguity.

    The grid must be geometric-like: at least 8 decreasing points spanning
    at least 3 decades.  One radius scan per center is shared by every
    threshold (common random numbers), so the returned curve is monotone in
    kappa up to bisection tolerance.  Work is split into fixed-size chunks
    whose results are combined in order; threads changes wall time only,
    never the values.  Every input is checked before any scan: p must be a
    finite real >= 1, and a bad grid, count or plan raises ValueError; a
    gauss_1d spec needs dimension one, and panels the gauss_1d route
    (QuadratureError otherwise).  A radial spec raises QuadratureError:
    the curve has engines for gauss_1d and monte_carlo only.
    """
    require_exponent("p", p)
    require_box_dimension(domain.box, f.dim)
    require_method_dimension(spec.method, f.dim)
    if spec.method == "radial":
        raise QuadratureError("the curve has no radial engine; take a "
                              "gauss_1d or monte_carlo spec")
    kappas = np.asarray(kappa_grid, dtype=float)
    if kappas.ndim != 1 or kappas.size < 8:
        raise ValueError("threshold grid needs at least 8 points")
    if not (np.all(np.isfinite(kappas)) and np.all(kappas > 0)):
        raise ValueError("thresholds must be positive finite reals")
    if not np.all(np.diff(kappas) < 0):
        raise ValueError("threshold grid must be strictly decreasing")
    if kappas[0] / kappas[-1] < 999.99:
        raise ValueError("threshold grid must span at least 3 decades")
    if (samples is None) == (panels is None):
        raise ValueError("give exactly one of samples (sampled centers) and "
                         "panels (the d = 1 centre rule)")
    if panels is None:
        if not (is_count(samples) and samples >= 2):
            raise ValueError(f"need an integer count of at least 2 center "
                             f"samples for a standard error, got {samples!r}")
        samples = int(samples)
    elif spec.method != "gauss_1d":
        raise QuadratureError(
            f"the centre rule needs the gauss_1d route, got {spec.method}")
    elif not (is_count(panels) and panels >= 2 and panels % 2 == 0):
        raise ValueError(f"panels must be an even integer >= 2, got {panels}")
    if not (is_count(threads) and threads >= 1):
        raise ValueError(f"need an integer count of at least 1 worker "
                         f"thread, got {threads!r}")
    return _curve_engine(f, float(p), kappas, domain, spec, samples, threads,
                         panels, _node_dtype(f, spec, float(kappas[-1])))


@dataclass(frozen=True)
class WeakSupEstimate:
    """Conservative grid supremum of the scaled curve.

    value = largest scaled point plus one standard error; kappa_at_max is
    where the grid attained it.  A finite-grid maximum, hence a lower-bound
    flavored estimate of the weak quasi-norm to the p.
    """
    value: float
    scaled_max: float
    std_error: float
    kappa_at_max: float


def weak_sup(curve: DistributionCurve) -> WeakSupEstimate:
    """Largest scaled value kappa^p * nu over the grid, plus one stderr."""
    scaled = curve.scaled
    i = int(np.argmax(scaled))
    return WeakSupEstimate(
        value=float(scaled[i] + curve.scaled_stderr[i]),
        scaled_max=float(scaled[i]),
        std_error=float(curve.scaled_stderr[i]),
        kappa_at_max=float(curve.kappa_grid[i]))


# ---------------------------------------------------------------------------
# small-threshold limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitEstimate:
    """Extrapolated small-threshold limit of the scaled curve.

    uncertainty is the larger of the weighted fit residual and the fitted
    level's standard error; ok is False (with reasons in notes) when the
    sampling noise or the residual exceeds its threshold.
    """
    value: float
    uncertainty: float
    alpha: float
    rel_residual: float
    points_used: int
    ok: bool
    notes: tuple = ()


def limit_fit_mask(kappa_grid) -> np.ndarray:
    """The thresholds limit_extrapolate fits: those within a factor of 10
    of the smallest.

    Raises ValueError when fewer than 5 are, so that a grid the fit cannot
    use is refused before any curve is computed on it.
    """
    kap = np.asarray(kappa_grid, dtype=float)
    mask = kap <= _FIT_SPAN * kap.min() * (1.0 + 1e-12)
    if int(mask.sum()) < _FIT_MIN_POINTS:
        raise ValueError(
            f"need at least {_FIT_MIN_POINTS} thresholds within a factor of "
            f"{_FIT_SPAN} of the smallest, got {int(mask.sum())}")
    return mask


def limit_extrapolate(curve: DistributionCurve) -> LimitEstimate:
    """Fit scaled(kappa) = L + c * kappa^alpha on the smallest thresholds.

    Uses the points within a factor of 10 of the smallest kappa (at least 5
    required; see limit_fit_mask).  Weighted least squares for each alpha in 0.5, 0.75, ...,
    1.5; the winner by residual provides L.  The exponent alpha is purely
    empirical and reported, never asserted.  The estimate is not ok when a
    point's relative stderr exceeds 0.02 or the relative fit residual 0.05.
    A curve that reads 0 with stderr 0 at every fitted threshold has the
    exact limit 0, returned as ok without a fit.
    """
    mask = limit_fit_mask(curve.kappa_grid)
    x = curve.kappa_grid[mask]
    y = curve.scaled[mask]
    sig = curve.scaled_stderr[mask]
    if not (y.any() or sig.any()):
        # the weights 1 / stderr^2 below would all be infinite
        return LimitEstimate(value=0.0, uncertainty=0.0,
                             alpha=_FIT_ALPHAS[0], rel_residual=0.0,
                             points_used=int(mask.sum()), ok=True)
    notes = []
    ok = True

    floor = max(1e-12 * max(abs(y).max(), 1e-300), 1e-300)
    w = 1.0 / np.maximum(sig, floor) ** 2
    best = None
    for alpha in _FIT_ALPHAS:
        design = np.stack([np.ones_like(x), x ** alpha], axis=1)
        a_mat = design.T @ (design * w[:, None])
        b_vec = design.T @ (y * w)
        try:
            coef = np.linalg.solve(a_mat, b_vec)
            cov = np.linalg.inv(a_mat)
        except np.linalg.LinAlgError:
            continue
        resid = y - design @ coef
        score = float(np.sqrt((w * resid ** 2).sum() / w.sum()))
        if best is None or score < best[0]:
            best = (score, float(coef[0]), float(math.sqrt(max(cov[0, 0], 0.0))),
                    float(alpha))
    if best is None:
        raise ValueError("extrapolation fit failed for every exponent")
    score, level, level_se, alpha = best
    rel_resid = score / abs(level) if level != 0 else math.inf

    rel_noise = float(np.max(sig / np.maximum(np.abs(y), 1e-300)))
    if rel_noise > _FIT_MAX_REL_STDERR:
        ok = False
        notes.append(f"sampling noise {rel_noise:.3g} exceeds {_FIT_MAX_REL_STDERR:g}")
    if rel_resid > _FIT_MAX_REL_RESIDUAL:
        ok = False
        notes.append(f"fit residual {rel_resid:.3g} exceeds {_FIT_MAX_REL_RESIDUAL:g}")
    return LimitEstimate(value=level, uncertainty=max(score, level_se),
                         alpha=alpha, rel_residual=rel_resid,
                         points_used=int(mask.sum()), ok=ok, notes=tuple(notes))


def reference_scaled_limit(f: TestFunction, p: float,
                           domain: Domain) -> Optional[float]:
    """Independent value of c_dp times the window integral of |grad f|^p.

    The integral is the entry's closed form (TestFunction.grad_norm_p) over
    the window's box.  None when the entry has none for that box; a window
    of another dimension than f's raises ValueError.
    """
    require_box_dimension(domain.box, f.dim)
    norm = None if f.grad_norm_p is None else f.grad_norm_p(p, domain.box)
    return None if norm is None else c_dp(f.dim, p) * norm


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_curve_csv(curve: DistributionCurve, path) -> None:
    """Write the curve with a commented, versioned header; the bytes depend
    only on the curve values, never on thread count."""
    box = " ".join(f"{lo!r}:{hi!r}" for lo, hi in curve.domain.box)
    lines = [
        "# osclab-curve-schema 1",
        f"# function_id={curve.function_id}",
        f"# dim={curve.dim} p={curve.p!r}",
        f"# box={box}",
        f"# r_min={curve.domain.r_min!r} r_max={curve.domain.r_max!r}",
        f"# samples={curve.samples} seed={curve.seed} "
        f"method={curve.method} node_count={curve.node_count}",
        "# counters " + " ".join(f"{k}={v}" for k, v in
                                 sorted(curve.counters.items())),
        "kappa,nu,nu_stderr,kappa_p_nu,tail_bound",
    ]
    scaled = curve.scaled
    for i in range(curve.kappa_grid.size):
        lines.append(",".join(repr(float(v)) for v in (
            curve.kappa_grid[i], curve.nu[i], curve.nu_stderr[i],
            scaled[i], curve.tail_bound[i])))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def curve_summary(curve: DistributionCurve, limit: LimitEstimate,
                  f: TestFunction) -> dict:
    """JSON-ready digest of a curve and its limit in the documented report
    schema.  reference_value is the independent target c_dp * integral of
    |grad f|^p when one is computable, else None.
    """
    sup = weak_sup(curve)
    return {
        "function_id": curve.function_id,
        "d": curve.dim,
        "p": curve.p,
        "domain": {
            "box": [list(side) for side in curve.domain.box],
            "r_min": curve.domain.r_min,
            "r_max": curve.domain.r_max,
        },
        "sup_estimate": sup.value,
        "sup_at_kappa": sup.kappa_at_max,
        "limit_estimate": limit.value,
        "limit_uncertainty": limit.uncertainty,
        "limit_ok": limit.ok,
        "limit_notes": list(limit.notes),
        "reference_value": reference_scaled_limit(f, curve.p, curve.domain),
        "seeds": {"master": curve.seed},
        "samples": curve.samples,
        "method": curve.method,
        "node_count": curve.node_count,
        "counters": dict(curve.counters),
    }
