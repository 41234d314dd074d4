"""Quadrature over Euclidean balls: the rules the oscillation kernels use.

Three rules serve the kernels of oscillation: a deterministic
split-interval Gauss-Legendre rule for dimension one, a deterministic
Gauss-Legendre rule in the distance to the centre for radial entries in
dimensions two and three, and uniform Monte-Carlo nodes for any
dimension.  segment_integrals is osclab's one Gauss segment rule; the
nodes and weights come from gauss_rule, which needs numpy only, so
importing osclab does not load scipy.  It takes one segment layout, the
flat list of the live segments (those of positive width) of a batch of
balls, Segments, built from fixed breakpoints by live_segments or from
cuts that vary per row by row_segments; its row_sums adds each ball's
integrals left to right.  The integrand is called as g(x, *cols) on the
(L, n) nodes of the L segments, with one (L, 1) column per arg.  Each
segment's values are summed against the weights in one fixed order, with
no BLAS call, so a segment's integral has the same bits in any batch, at
any position and in any pass.

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


def is_count(value) -> bool:
    """Whether value is a count: an int or numpy integer, and not a bool,
    which Python counts as an int (True would run one thread or one
    sample).  A whole float is not a count."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def require_exponent(name: str, value) -> None:
    """Refuse an exponent that is not a finite real >= 1: ValueError,
    naming it ("p must be ...").  That is the range of the oscillation
    exponent q and of the weight exponent p, for which the theorem holds
    on 1 < p < inf and p = 1 is the jump's divergent case."""
    if not (np.isfinite(value) and value >= 1.0):
        raise ValueError(f"{name} must be a real number >= 1, got {value}")


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
    node_count: an integer, at least 2.  For monte_carlo, the outer nodes
    of each ball; its antithetic inner set takes
    oscillation.inner_count(node_count), half as many.  For radial, the
    Gauss order per piece of the integrals in the distance rho to the
    entry's centre, capped in dimension three, where the sphere measure in
    a ball is a polynomial in rho, at the order exact for the profile's
    degree, (degree + 3) // 2 + 1 (5 for the plateau);
    oscillation.RADIAL_ORDER, which the battery takes, is 20.
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


@dataclass(frozen=True)
class Segments:
    """The live segments of B balls, the one segment layout of every Gauss
    sum: a flat list ordered by ball, then left to right, of the segments
    of positive width between each ball's cuts (fixed breakpoints,
    live_segments; cuts that vary per row, row_segments).

    edges (L, 2) holds each segment's ends and ball the ball of each;
    first and last are the indices of each ball's first and last segments.
    """
    edges: np.ndarray
    ball: np.ndarray
    first: np.ndarray
    last: np.ndarray

    @property
    def lo(self) -> np.ndarray:
        return self.edges[:, 0]

    @property
    def hi(self) -> np.ndarray:
        return self.edges[:, 1]

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-ball sums of values, one per segment, each added left to
        right from 0 (np.bincount), so a ball's sum has the bits it has
        alone, whatever the other balls of the list."""
        return np.bincount(self.ball, values, minlength=self.first.size)


def live_segments(breakpoints, lo: np.ndarray, hi: np.ndarray) -> Segments:
    """The live segments of the balls [lo, hi], shape (B,), hi > lo: each
    ball's segments run from lo through the breakpoints strictly inside it
    to hi.  The same list as row_segments of the breakpoints clipped to
    each ball, built without the clipped copies."""
    bp = np.sort(np.asarray(breakpoints, dtype=float))
    first = np.searchsorted(bp, lo, side="right")
    count = np.searchsorted(bp, hi, side="left") - first + 1
    stop = np.cumsum(count)
    start = stop - count
    ball = np.repeat(np.arange(lo.size), count)
    col = first[ball] + np.arange(stop[-1]) - start[ball]
    edges = np.empty((col.size, 2))
    # the pad keeps take valid on an empty breakpoint list; the ends of the
    # balls replace every value it gives
    pad = np.append(bp, 0.0)
    edges[:, 0] = pad.take(col - 1)
    edges[start, 0] = lo
    edges[:, 1] = pad.take(col)
    edges[stop - 1, 1] = hi
    return Segments(edges, ball, start, stop - 1)


def row_segments(cuts: np.ndarray) -> Segments:
    """The live segments of rows of sorted cut points, cuts (B, J), as one
    flat list: the zero-width segments of repeated cuts are left out."""
    lo = cuts[:, :-1]
    hi = cuts[:, 1:]
    flat = np.flatnonzero(hi > lo)
    ball = flat // lo.shape[1]
    edges = np.stack([lo.reshape(-1)[flat], hi.reshape(-1)[flat]], axis=-1)
    rows = np.arange(cuts.shape[0])
    return Segments(edges, ball, np.searchsorted(ball, rows),
                     np.searchsorted(ball, rows, side="right") - 1)


def segment_integrals(g: Callable, edges: np.ndarray, n: int,
                      *cols) -> np.ndarray:
    """n-point Gauss-Legendre integrals of g over the segments edges (L, 2),
    shape (L,).

    g(x, *cols) maps an (L, n) array of nodes, n for each segment, to
    values of the same shape; each col holds one entry per segment, shape
    (L,), and reaches g as an (L, 1) column.  A segment with values v gets
    half * (w[0] v[0] + w[1] v[1] + ...), with half its half-width: each
    product and each sum is rounded on its own, the products are added
    first to last, column by column in n steps of L values each, and no
    BLAS call takes part.  A segment's integral therefore has the bits it
    has alone, whatever the batch, its position there and the pass.  A zero-width segment is evaluated at its one
    point and integrates to exactly 0 wherever g is finite there.
    """
    t, w = gauss_rule(n)
    lo = edges[:, 0]
    hi = edges[:, 1]
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * t
    vals = g(x, *(np.asarray(col)[:, None] for col in cols))
    del x  # the nodes are not needed past g; the sums below allocate
    total = vals[:, 0] * w[0]
    for j in range(1, w.size):
        total += vals[:, j] * w[j]
    return half * total


def segment_width(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """hi - lo, the width of the intervals [lo, hi], once no width is 0;
    QuadratureError otherwise, since such an interval (a + r rounded to
    a - r) has no mean."""
    width = hi - lo
    if np.any(width == 0.0):
        raise QuadratureError("interval has zero width: its ends round to "
                              "the same point, so it has no mean")
    return width
