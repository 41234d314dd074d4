"""Quadrature over Euclidean balls: the rules the oscillation kernels use.

Two rules serve the kernels of oscillation: a deterministic split-interval
Gauss-Legendre rule for dimension one, and uniform Monte-Carlo nodes for
any dimension.  segment_integrals is osclab's one Gauss segment rule, on
edges that segment_edges splits at breakpoints, and segment_mean turns its
sums into the mean over the integrated width; the nodes and weights come
from gauss_rule, which needs numpy only, so importing osclab does not load
scipy.  The integrand is called as g(x, *args) on the nodes of the live
segments only, those with hi > lo, gathered into one (L, n) array; each
arg is indexed like the edges' leading axes and reaches g gathered the
same way.  Dead segments, the zero-width ones that clipped breakpoints and
root placeholders leave, integrate to exactly 0 without evaluating g.

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

METHODS = ("gauss_1d", "monte_carlo")


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
    """Refuse the gauss_1d rule off dimension one: QuadratureError."""
    if method == "gauss_1d" and dim != 1:
        raise QuadratureError(
            f"gauss_1d applies to dimension one only, got dimension {dim}")


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
        if not np.all(np.isfinite(c)):
            raise QuadratureError("ball center must be finite")
        r = float(self.radius)
        if not np.isfinite(r) or r <= 0.0:
            raise QuadratureError(f"ball radius must be finite and positive, got {r}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class QuadratureSpec:
    """Which rule the oscillation kernels use on a ball, and how finely.

    method: "gauss_1d" (deterministic, dimension one only) or "monte_carlo".
    node_count: an integer, at least 2.  For monte_carlo, the nodes per
    pass.  For gauss_1d, the Gauss order per segment of the inner mean; the
    deviation integral of the oscillation keeps a fixed 8-point rule on
    root-refined segments.  default_spec picks order 8 for the inner mean
    as well: it is exact to degree 15 per segment, and the catalog's 1-d
    entries are piecewise polynomials of degree at most 5 (the plateau's
    quintic taper), their mollifications (verify.mollify_1d) of degree at
    most 12.
    seed: integer master seed for node generation; ignored by gauss_1d.
    A node_count or seed that is not integral raises QuadratureError.
    """
    method: str = "monte_carlo"
    node_count: int = 4096
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise QuadratureError(f"unknown method {self.method!r}, expected one of {METHODS}")
        for name in ("node_count", "seed"):
            value = getattr(self, name)
            try:
                whole = int(value) == value
            except (TypeError, ValueError, OverflowError):
                whole = False
            if not whole:
                raise QuadratureError(
                    f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
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
    where roots_legendre is off by 6e-14.
    """
    n = int(n)
    if n < 1:
        raise QuadratureError("Gauss order must be at least 1")
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


def segment_integrals(g: Callable, edges: np.ndarray, n: int,
                      *args) -> np.ndarray:
    """Per-segment n-point Gauss-Legendre integrals of g over consecutive
    edges, shape (..., K+1).

    g(x, *args) maps an (L, n) array of nodes, n for each of the L
    segments of positive width (hi > lo), to values of the same shape.
    Each arg is indexed like the leading axes of edges: it is extended with
    trailing axes to the segment shape (..., K+1), broadcast to it, and
    handed to g as the (L, 1) column of its entries on those segments.  A
    zero-width segment is not evaluated: its integral, 0 * (g @ w), is 0.
    The values go into a zero-filled (..., K+1, n) array and the sums run
    as half * (vals @ w) on that full shape, since the BLAS row sum depends
    on the row count and a matmul over the live rows alone moves last bits.
    Rows of different lengths can share one call when each is padded by
    repeating its last edge: the padding integrates to exactly 0, and a row
    of 4k segments keeps the bits it has alone (BLAS takes the rows of the
    matmul in blocks of four; a row of another count may move a last bit).
    """
    t, w = gauss_rule(n)
    lo = edges[..., :-1]
    hi = edges[..., 1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    # flat indices of the live segments; take gathers from a flat view
    live = np.flatnonzero(hi > lo)
    x = mid.take(live)[:, None] + half.take(live)[:, None] * t
    cols = []
    for arg in args:
        arg = np.asarray(arg)
        arg = arg.reshape(arg.shape + (1,) * (half.ndim - arg.ndim))
        cols.append(np.broadcast_to(arg, half.shape).reshape(-1)
                    .take(live)[:, None])
    vals = np.zeros(half.shape + (n,))
    vals.reshape(-1, n)[live] = g(x, *cols)
    return half * (vals @ w)


def segment_mean(g: Callable, edges: np.ndarray, n: int,
                 *args) -> np.ndarray:
    """Mean of g over edges[..., 0] to edges[..., -1] by segment_integrals,
    which receives args unchanged.

    The sum of the segment integrals is divided by the width the edges
    span, not by the nominal interval length.  The Gauss weights of order 8
    sum to exactly 2, so a constant g has exactly its value as mean; those
    of 49 of the orders 1-64 miss 2 by up to 6.7e-16 relative (order 2
    gives a constant 1 the mean 1.0000000000000002).  A width of
    0, as when a + r rounds to a - r, has no mean: QuadratureError.
    """
    width = edges[..., -1] - edges[..., 0]
    if np.any(width == 0.0):
        raise QuadratureError("interval has zero width: its ends round to "
                              "the same point, so it has no mean")
    return segment_integrals(g, edges, n, *args).sum(axis=-1) / width
