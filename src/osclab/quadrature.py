"""Quadrature over Euclidean balls: the rules the oscillation kernels use.

Three rules serve the kernels of oscillation: a deterministic
split-interval Gauss-Legendre rule for dimension one, a deterministic
Gauss-Legendre rule in the distance to the centre for radial entries in
dimensions two and three, and uniform Monte-Carlo nodes for any
dimension.  segment_integrals is osclab's one Gauss segment rule, on
edges that segment_edges splits at breakpoints, and segment_mean turns its
sums into the mean over the integrated width; the nodes and weights come
from gauss_rule, which needs numpy only, so importing osclab does not load
scipy.  The integrand is called as g(x, *args) on the nodes of the live
segments only, those with hi > lo, gathered into one (L, n) array; each
arg is indexed like the edges' leading axes and reaches g gathered the
same way.  Dead segments, the zero-width ones that clipped breakpoints and
root placeholders leave, integrate to exactly 0 without evaluating g.
Each live segment's values are summed against the weights in one fixed
order, with no BLAS call, so a segment's integral has the same bits in any
batch, at any position and in any pass.

Every random stream is counter-based: a node set is derived from
(seed, key...) through an independent Philox generator, so results never
depend on evaluation order, chunking, or thread count.

Monte-Carlo nodes are drawn in the unit ball, the ball's local frame: the
kernels place them at center + radius * u, so translating or dilating the
ball moves the same node layout rigidly, which makes covariance identities
of downstream estimators exact rather than statistical.  unit_ball_nodes
hands out points as an (n, d) array, one point per row; the oscillation
kernels store the same node values transposed, coordinate-major as (d, n),
so that their arithmetic runs along the long node axis (see
oscillation.mc_deviations).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

METHODS = ("gauss_1d", "monte_carlo", "radial")
# dimensions in which the radial rule knows the sphere measure in a ball
RADIAL_DIMS = (2, 3)


class QuadratureError(ValueError):
    """Raised when a quadrature request is malformed or an integrand misbehaves."""


# Stream keys: the first entry of a stream's key tuple, one per use of the
# master seed, so no two uses ever draw from the same stream.
KEY_OUTER = 0      # single-ball nodes: outer pass and one-set rules
KEY_INNER = 1      # single-ball inner (antithetic) pass
KEY_PAIR = 2       # second sample of pair_oscillation
KEY_CENTERS = 3    # curve centers
KEY_BALL_OUT = 4   # curve outer nodes, one stream per center
KEY_BALL_IN = 5    # curve inner nodes, one stream per center
KEY_VERIFY = 6     # verification suites' sampled inputs


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) pair.

    Counter-based splitting: the key tuple goes into the SeedSequence spawn
    key, so streams for different keys are statistically independent and the
    mapping is pure.  No generator state is ever shared between work items.
    """
    ss = np.random.SeedSequence(entropy=int(seed) & ((1 << 128) - 1),
                                spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def require_finite(values, what: str = "integrand"):
    """values itself, once every entry is finite; QuadratureError otherwise."""
    if not np.all(np.isfinite(values)):
        raise QuadratureError(f"{what} produced non-finite values")
    return values


def require_method_dimension(method: str, dim: int) -> None:
    """Refuse the gauss_1d rule off dimension one, and the radial rule off
    dimensions two and three: QuadratureError."""
    if method == "gauss_1d" and dim != 1:
        raise QuadratureError(
            f"gauss_1d applies to dimension one only, got dimension {dim}")
    if method == "radial" and dim not in RADIAL_DIMS:
        raise QuadratureError(
            f"radial applies to dimensions {RADIAL_DIMS} only, "
            f"got dimension {dim}")


def _require_integer(name: str, value) -> int:
    """value as an int, once it is integral (a numpy integer or a whole
    float passes, a bool does not); QuadratureError naming it otherwise."""
    try:
        whole = (int(value) == value
                 and not isinstance(value, (bool, np.bool_)))
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise QuadratureError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_gauss_order(n) -> int:
    """n as an int, once it is an integer >= 1: a Gauss order that
    gauss_rule takes; QuadratureError otherwise."""
    n = _require_integer("Gauss order", n)
    if n < 1:
        raise QuadratureError("Gauss order must be at least 1")
    return n


def require_balls(radii, centers=None) -> None:
    """Refuse the balls BallSample refuses, for arrays of them: a centre
    coordinate that is not finite, or a radius that is not finite and
    positive; QuadratureError, with BallSample's messages.  A positive
    radius whose ends round together passes here; segment_width refuses
    its zero width."""
    if centers is not None and not np.all(np.isfinite(centers)):
        raise QuadratureError("ball center must be finite")
    radii = np.asarray(radii, dtype=float)
    bad = ~(np.isfinite(radii) & (radii > 0.0))
    if np.any(bad):
        raise QuadratureError("ball radius must be finite and positive, "
                              f"got {float(radii[bad][0])}")


@dataclass(frozen=True)
class BallSample:
    """A Euclidean ball, the basic averaging region.

    center has shape (d,), radius is strictly positive.
    """
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if c.ndim != 1 or c.size == 0:
            raise QuadratureError("ball center must be a nonempty 1-d point")
        r = float(self.radius)
        require_balls(r, c)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class QuadratureSpec:
    """Which rule the oscillation kernels use on a ball, and how finely.

    method: "gauss_1d" (deterministic, dimension one only), "radial"
    (deterministic, radial entries in dimensions two and three) or
    "monte_carlo".
    node_count: an integer, at least 2.  For monte_carlo, the nodes per
    pass.  For radial, the Gauss order per piece of the integrals in the
    distance rho to the entry's centre, capped in dimension three, where
    the sphere measure in a ball is a polynomial in rho, at the order
    exact for the profile's degree, (degree + 3) // 2 + 1 (5 for the
    plateau); oscillation.RADIAL_ORDER, which the battery takes, is 20.
    For gauss_1d, the Gauss order per segment of both passes of the
    exact oscillation, the inner mean and the deviation, capped at the
    order exact for the entry's polynomial pieces, degree_1d // 2 + 1,
    when it carries degree_1d: 3 for the plateau's quintic taper, 1 for
    linear entries and the indicator (the deviation for q != 1 takes
    8-point rules on graded panels).  default_spec picks order 8: it is
    exact to degree 15 per segment, which covers the entries without the
    certificate that osclab builds, the mollifications (verify.mollify_1d),
    piecewise polynomials of degree at most 12.
    seed: integer master seed for node generation; ignored by gauss_1d
    and radial.
    A node_count or seed that is not integral raises QuadratureError.
    """
    method: str = "monte_carlo"
    node_count: int = 4096
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise QuadratureError(f"unknown method {self.method!r}, expected one of {METHODS}")
        for name in ("node_count", "seed"):
            object.__setattr__(self, name,
                               _require_integer(name, getattr(self, name)))
        if self.node_count < 2:
            raise QuadratureError("node_count must be at least 2")


def default_spec(dim: int, seed: int, mc_nodes: int,
                 nodes: Optional[int] = None) -> QuadratureSpec:
    """osclab's rule for a dimension: gauss_1d of order nodes (default 8,
    see QuadratureSpec) in d = 1, else monte_carlo with nodes per ball
    (default mc_nodes).  Any given nodes, 0 included, goes to
    QuadratureSpec unchanged, which rejects counts below 2."""
    method, count = ("gauss_1d", 8) if dim == 1 else ("monte_carlo", mc_nodes)
    return QuadratureSpec(method, count if nodes is None else nodes, seed)


@dataclass(frozen=True)
class EstimatedValue:
    """A number with an attached one-sigma error estimate.

    Deterministic rules report std_error 0.  Monte-Carlo rules report the
    standard error of the sample mean.
    """
    value: float
    std_error: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise QuadratureError(f"estimate value must be finite, got {self.value}")
        if not (np.isfinite(self.std_error) and self.std_error >= 0.0):
            raise QuadratureError(f"std_error must be finite and nonnegative, got {self.std_error}")
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "std_error", float(self.std_error))

    def __str__(self) -> str:
        return f"{self.value:.12g} +/- {self.std_error:.3g}"


_NEWTON_STEPS = 20


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1 by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    # (1 - x^2) P_n' = n (P_{n-1} - x P_n)
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=64)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], exact to degree 2n-1.

    The classical method (see Hale and Townsend, SIAM J. Sci. Comput.
    35(2), 2013): Newton's method on P_n, evaluated by the three-term
    recurrence, from Tricomi's estimates of the nonnegative nodes; the
    others follow by symmetry.  The weights are 2 / ((1 - x^2) P_n'(x)^2).
    Each Newton step costs O(n^2) (n/2 nodes, n recurrence terms each), and
    three or four steps reach the last bit: order 16384 took 2.2 s on a
    shared 2-core x86_64 container, against 9.8 s for scipy's
    roots_legendre.  Nodes agree with roots_legendre to 2.2e-16; the
    integral of exp is exact to 2e-16 relative at orders 1000 and 4096,
    where roots_legendre is off by 6e-14.  An order that is not an integer
    >= 1 raises QuadratureError; a numpy integer is an integer.
    """
    n = require_gauss_order(n)
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n ** 4)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # P_n is odd; the recurrence gives P_n(0) = 0 exactly
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) <= 2.0 * np.finfo(float).eps:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    # x runs from the largest node down; for odd n its last entry is 0
    odd = n % 2
    return (np.concatenate([-x, x[::-1][odd:]]),
            np.concatenate([w, w[::-1][odd:]]))


def unit_ball_nodes(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniform in the unit ball of R^d, shape (n, d).

    Direction from a normalized Gaussian, radius as U^(1/d); rejection-free
    in every dimension.
    """
    z = rng.standard_normal((n, d))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    # a Gaussian vector is never exactly zero in practice; guard anyway
    norms[norms == 0.0] = 1.0
    u = rng.random((n, 1)) ** (1.0 / d)
    return z / norms * u


def segment_edges(breakpoints, lo, hi) -> np.ndarray:
    """Segment edges of [lo, hi] split at breakpoints, shape (..., K+2).

    Breakpoints outside an interval are clipped to its ends; the zero-width
    segments that result integrate to zero, so every row has one layout.
    """
    cols = [lo]
    for b in sorted(breakpoints):
        cols.append(np.clip(b, lo, hi))
    cols.append(hi)
    return np.stack(cols, axis=-1)


# live segments from which segment_integrals sums its weighted values
# column by column (n numpy calls on L values each) rather than by
# np.add.accumulate along each row (one call on L n values): the two take
# equal time near L = 300-500 at n = 8, 12 and 64, and give the same bits
_COLUMN_SUM_FROM = 256


def segment_integrals(g: Callable, edges: np.ndarray, n: int,
                      *args) -> np.ndarray:
    """Per-segment n-point Gauss-Legendre integrals of g over consecutive
    edges, shape (..., K+1).

    g(x, *args) maps an (L, n) array of nodes, n for each of the L
    segments of positive width (hi > lo), to values of the same shape.
    Each arg is indexed like the leading axes of edges: it is extended with
    trailing axes to the segment shape (..., K+1), broadcast to it, and
    handed to g as the (L, 1) column of its entries on those segments.  A
    zero-width segment is not evaluated and integrates to exactly 0.
    A live segment with values v gets half * (w[0] v[0] + w[1] v[1] + ...),
    with half its half-width: each product and each sum is rounded on its
    own, the products are added first to last, and no BLAS call takes
    part.  Fewer than _COLUMN_SUM_FROM live segments are summed by
    np.add.accumulate along their rows, more column by column in n steps;
    both add in that order, so the choice moves no bit, and a few segments
    at a high order (16384 in the acceptance tests) run no Python loop of
    n steps.  A segment's integral therefore has the bits it has alone,
    whatever the batch, its position there and the pass.  Rows of
    different lengths can share one call when each is padded by repeating
    its last edge: the padding integrates to exactly 0 and every row keeps
    its own bits, whatever its count.  Edges whose segments are all live,
    such as the exact 1-d kernel's list of live segments (one row of two
    edges each), are read in place rather than gathered into copies.
    """
    t, w = gauss_rule(n)
    lo = edges[..., :-1]
    hi = edges[..., 1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # flat indices of the live segments, which index flat views; every
    # segment when all are live, without a gather
    live = np.flatnonzero(hi > lo)
    if live.size == half.size:
        live = slice(None)
    # the columns are gathered before the nodes: the other order read 0.7
    # to 2 MB more peak RSS on the 2048-centre d = 1 curve
    cols = []
    for arg in args:
        arg = np.asarray(arg)
        arg = arg.reshape(arg.shape + (1,) * (half.ndim - arg.ndim))
        cols.append(np.broadcast_to(arg, half.shape).reshape(-1)[live, None])
    half_live = half.reshape(-1)[live]
    x = mid.reshape(-1)[live, None] + half_live[:, None] * t
    vals = g(x, *cols)
    del x  # the nodes are not needed past g; the sums below allocate
    if vals.shape[0] < _COLUMN_SUM_FROM:
        # accumulate adds along a row first to last, by its definition
        terms = vals * w
        total = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    else:
        total = vals[:, 0] * w[0]
        for j in range(1, n):
            total += vals[:, j] * w[j]
    out = np.zeros(half.shape)
    out.reshape(-1)[live] = half_live * total
    return out


def segment_mean(g: Callable, edges: np.ndarray, n: int,
                 *args) -> np.ndarray:
    """Mean of g over edges[..., 0] to edges[..., -1] by segment_integrals,
    which receives args unchanged.

    The sum of the segment integrals is divided by the width the edges
    span, not by the nominal interval length.  Added first to last, as
    segment_integrals adds them, the Gauss weights of 12 of the orders
    1-64 sum to exactly 2: 1, 7, 8, 9, 20, 23, 28, 36, 43, 52, 54 and 63
    (numpy 2.4, x86-64).  Those of the other 52 miss 2 by 1 to 6 units of
    2^-53 relative, up to 6.7e-16 (order 2 gives a constant 1 the mean
    1.0000000000000002).  At order 8 a constant g then has exactly its
    value as mean on balls whose segment widths add up to their width, as
    with dyadic ends, when that value is short in binary (1, 0.75, 3, ...);
    a value such as 0.7 can miss it by an ulp or two.  Order 3, which the
    exact kernel takes for the plateau's quintic pieces, is not among the
    twelve: its weights add up to 2 - 2^-51.  A constant piece (the
    plateau's core, or its zero outside) then integrates to its value
    times its width less 2 units of 2^-53, relative, and the mean of the
    core value 1 on any ball inside it reads 0.9999999999999998; m there
    stays 0 to rounding, since the deviation subtracts that mean times the
    width from the same integral.  A width of 0, as when a + r rounds to
    a - r, has no mean: QuadratureError (segment_width).
    """
    width = segment_width(edges)
    return segment_integrals(g, edges, n, *args).sum(axis=-1) / width


def segment_width(edges: np.ndarray) -> np.ndarray:
    """edges[..., -1] - edges[..., 0], the width the edges span, once no
    width is 0; QuadratureError otherwise, since such an interval (a + r
    rounded to a - r) has no mean."""
    width = edges[..., -1] - edges[..., 0]
    if np.any(width == 0.0):
        raise QuadratureError("interval has zero width: its ends round to "
                              "the same point, so it has no mean")
    return width
