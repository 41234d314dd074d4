"""Catalog of test functions with certified metadata.

Every entry is a pure, vectorized function of points in R^d together with
whatever certificates downstream estimators need: an exact gradient where one
exists, an upper bound for the Lipschitz constant of that gradient, the
radius outside which the function is constant, the radius of a ball around
each point on which it is constant, the integral of |grad f|^p over a box,
in dimension one, the breakpoints between which the function is a
polynomial and a bound on the degree of those polynomials, and, for radial
entries, the centre and profile (Radial) from which the Monte Carlo curve
evaluates f without building points, with the profile's breakpoints in
the distance to the centre and its degree between them, on which the
exact radial rule of oscillation splits its integrals.  Every
non-linear entry is radial: the plateau and the indicator about their
centres, and their images.  translate, dilate and scale_values map every
certificate.
Entries are immutable and safe to share across threads.  The plateau's L1
mass and gradient norms are closed forms (integrals of polynomials and Beta
functions), so the catalog needs numpy only.

String identifiers, whose first field is the one name of an entry's family
(no other field repeats it; estimators read the certificates, not a label):
    linear:d=2:v=1,0
    plateau:d=1:a=1:ri=0.5:ro=1
    indicator:d=1:r=0.5          (optional :c=0.25 recenters the ball)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .quadrature import is_count

# quintic taper shape S on [0, 1]: S(0)=0, S(1)=1, S'=S''=0 at both ends
_SPRIME_MAX = 15.0 / 8.0           # max of S' = 30 s^2 (1-s)^2, at s = 1/2
_SSECOND_MAX = 10.0 / math.sqrt(3)  # max of |S''| = |60 s (1-s) (1-2s)|


def _taper_d1(s: np.ndarray) -> np.ndarray:
    return 30.0 * s * s * (1.0 - s) ** 2


def coordinate_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum over k of x[..., k] * y[..., k], added in index order.

    einsum and matmul choose their order of summation, and whether to fuse
    a multiply into an add, from the memory layout of their operands, so
    points stored coordinate-major (see TestFunction) could differ in the
    last bit from the same points stored point-major.  Adding the
    coordinates one at a time, first to last, gives the same bits for
    either layout.
    """
    out = x[..., 0] * y[..., 0]
    for k in range(1, x.shape[-1]):
        out = out + x[..., k] * y[..., k]
    return out


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _shell_sum(ri: float, w: float, d: int,
               moment: Callable[[int], float]) -> float:
    """w * integral over s in [0, 1] of g(s) (ri + w s)^(d-1), for a profile
    g with moments moment(k) = integral of s^k g(s): the binomial expansion
    of the radial weight rho^(d-1) on the taper shell rho = ri + w s."""
    return w * sum(math.comb(d - 1, k) * ri ** (d - 1 - k) * w ** k * moment(k)
                   for k in range(d))


def _beta(a: float, b: float) -> float:
    # math.gamma keeps the ratio within a few ulps where it does not
    # overflow; exp(lgamma) loses several more
    try:
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    except OverflowError:
        return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _require_dimension(d: int) -> None:
    """Refuse a dimension below 1 (ValueError), before any arithmetic on it."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")


def _require_degree(name: str, value) -> None:
    """Refuse a degree certificate that is not an integer >= 0 (a bool, a
    float or a negative value): ValueError.  None, no certificate, and
    numpy integers pass."""
    if value is not None and not (is_count(value) and value >= 0):
        raise ValueError(f"{name} must be an integer >= 0 when present, "
                         f"got {value!r}")


@dataclass(frozen=True, eq=False)
class Radial:
    """f(x) = profile(|x - center|^2): center has shape (dim,), and profile
    maps an array of squared distances to values of f of the same shape
    and dtype: the Monte Carlo curve hands it float32 where its rounding
    budget allows (oscillation.RadialNodes), and an upcast would cost that
    route its speed.  profile may overwrite its input, so a caller hands it
    an array it owns and does not read again.

    breakpoints, when present, lists the distances rho = |x - center| at
    which the profile may change its formula: between two of them, and
    past the last, f is a polynomial in rho of degree at most degree (an
    integer >= 0, or None for no such bound).  The exact radial rule of
    oscillation splits its integrals in rho there, and its stale-profile
    probe, which the Monte Carlo curve shares, checks the profile between
    them; None means no such certificate, and both refuse the entry.
    """
    center: np.ndarray
    profile: Callable[[np.ndarray], np.ndarray]
    breakpoints: Optional[tuple] = None
    degree: Optional[int] = None

    def __post_init__(self):
        _require_degree("Radial degree", self.degree)


@dataclass(frozen=True)
class TestFunction:
    """A catalog entry.

    function_id names the entry, and the kind that begins a catalog
    identifier is its family's one name; behaviour rests on the
    certificates below (grad_lipschitz 0, for one, means f is affine).
    eval maps an array of shape (..., dim) to values of shape (...,).
    grad, when present, maps (..., dim) to (..., dim).  Both, and
    flat_radius, accept any memory layout and give the same bits for
    every layout of the same values: the Monte Carlo kernels pass
    coordinate-major views (the node axis contiguous, x.strides[-1] >
    x.strides[-2]), so entries sum over coordinates with coordinate_dot,
    never with einsum, matmul or a reduction whose order follows the
    strides.
    grad_lipschitz is a certified upper bound for |grad f(x) - grad f(y)| / |x - y|,
    or None when the gradient does not exist as a function.
    support_radius is a radius about the origin outside which f is
    constant, or None: f is constant where |x| > support_radius, so an
    entry centred elsewhere adds its centre's norm (translate,
    make_ball_indicator(c=)).  exact_oscillation_1d relies on that
    centring when it evaluates a ball that covers the support once per
    radius, at a = 0.
    grad_max bounds sup |grad f|; breakpoints_1d lists the points (dimension
    one only) between which f is a single polynomial.  degree_1d, when
    present, bounds the degree of those polynomials (dimension one only),
    an integer >= 0; the exact 1-d kernel sizes its Gauss rule by it.  None
    (custom and mollified entries) means no such bound.
    l1_mass is the integral of |f - c| when finite, else None, with c the
    constant that f takes outside support_radius.
    flat_radius, when present, maps centers of shape (..., dim) to radii of
    shape (...,) such that f is constant on the open ball of that radius
    around each center (a lower bound; 0 where no such ball is known), and
    grad, where present, is exactly 0 on that ball.  It lets estimators
    certify m_f(a, r) = 0, and a zero ball average of |grad f|, for r below
    it without evaluating f or grad; None (linear and custom entries) means
    no such certificate.
    grad_norm_p, when present, maps (p, box ((lo, hi), ...)) to the integral
    of |grad f|^p over the box in closed form, or to None if it has none.
    radial, when present, certifies eval(x) == radial.profile(|x - c|^2),
    c = radial.center, up to rounding, and the Monte Carlo curve and the
    exact radial rule evaluate f through it instead of through eval; None
    (linear and custom entries) means f is not known to be radial.  A
    dataclasses.replace that swaps eval must also replace or drop the
    certificates that describe it, radial and degree_1d among them, or the
    curve keeps evaluating the old function through its profile, or
    integrates the new one with a Gauss rule sized for the old one.
    A support_radius that is not finite and positive, a grad_lipschitz that
    is not finite and nonnegative, a degree_1d that is not an integer >= 0
    and a dim below 1 raise ValueError.
    """
    function_id: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    grad: Optional[Callable[[np.ndarray], np.ndarray]]
    grad_lipschitz: Optional[float]
    support_radius: Optional[float]
    grad_max: Optional[float] = None
    breakpoints_1d: tuple = ()
    l1_mass: Optional[float] = None
    flat_radius: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_norm_p: Optional[Callable[[float, tuple], Optional[float]]] = None
    radial: Optional[Radial] = None
    degree_1d: Optional[int] = None

    def __post_init__(self):
        _require_dimension(self.dim)
        _require_degree("degree_1d", self.degree_1d)
        if self.support_radius is not None and not (
                np.isfinite(self.support_radius) and self.support_radius > 0):
            raise ValueError("support_radius must be finite and positive "
                             f"when present, got {self.support_radius}")
        if self.grad_lipschitz is not None and not (
                np.isfinite(self.grad_lipschitz) and self.grad_lipschitz >= 0):
            raise ValueError("grad_lipschitz must be finite and nonnegative "
                             f"when present, got {self.grad_lipschitz}")

    def eval_1d(self, x: np.ndarray) -> np.ndarray:
        """Convenience for dim == 1: accepts a bare coordinate array."""
        x = np.asarray(x, dtype=float)
        return self.eval(x[..., None])


def _fmt(x: float) -> str:
    return format(float(x), "g")


def make_linear(d: int, v) -> TestFunction:
    """f(x) = v . x, the function whose oscillation is exactly linear in r."""
    _require_dimension(d)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (d,):
        raise ValueError(f"direction must have shape ({d},), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("direction must be finite")
    vn = float(np.linalg.norm(v))
    fid = f"linear:d={d}:v=" + ",".join(_fmt(c) for c in v)

    def ev(x: np.ndarray) -> np.ndarray:
        return coordinate_dot(np.asarray(x, dtype=float), v)

    def gr(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(v, x.shape).copy()

    def gnorm(p: float, box: tuple) -> float:
        # |grad f| = |v| everywhere, times the volume of the box
        return vn ** p * math.prod(hi - lo for lo, hi in box)

    return TestFunction(
        function_id=fid, dim=d, eval=ev, grad=gr,
        grad_lipschitz=0.0, support_radius=None, grad_max=vn,
        breakpoints_1d=(), l1_mass=None, grad_norm_p=gnorm,
        degree_1d=1 if d == 1 else None)


def make_plateau_bump(d: int, amplitude: float, inner_radius: float,
                      outer_radius: float) -> TestFunction:
    """Radial C^2 bump: amplitude inside |x| <= ri, zero outside |x| >= ro,
    quintic taper in between.

    The gradient Lipschitz certificate comes from the closed-form Hessian of
    the taper: |f''| <= |A| max|S''| / w^2 radially and, for d >= 2, the
    tangential curvature adds |A| max(S') / (w ri) on the annulus.  The
    L1 mass integrates the polynomial (1 - S(s)) (ri + w s)^(d-1) over the
    taper shell exactly, term by term.
    With s = (|x| - ri) / w, |grad f| = (30 |A| / w) s^2 (1 - s)^2, so over
    a box that holds the ball |x| <= ro (else grad_norm_p is None) the
    integral of |grad f|^p, p > 0, is d omega_d w (30 |A| / w)^p times
    sum_k C(d-1, k) ri^(d-1-k) w^k B(2p + k + 1, 2p + 1).
    """
    _require_dimension(d)
    A = float(amplitude)
    ri = float(inner_radius)
    ro = float(outer_radius)
    if not (0.0 < ri < ro < math.inf):
        raise ValueError("need 0 < inner_radius < outer_radius < inf")
    if not np.isfinite(A):
        raise ValueError("amplitude must be finite")
    w = ro - ri
    lip_radial = abs(A) * _SSECOND_MAX / w ** 2
    if d == 1:
        lip = lip_radial
    else:
        lip = max(lip_radial, abs(A) * _SPRIME_MAX / (w * ri))
    gmax = abs(A) * _SPRIME_MAX / w
    fid = f"plateau:d={d}:a={_fmt(A)}:ri={_fmt(ri)}:ro={_fmt(ro)}"

    def profile(q: np.ndarray) -> np.ndarray:
        # A (1 - S(s)) with s = clip((sqrt(q) - ri) / w, 0, 1), in place in
        # q and one more buffer instead of a new array per operation.
        # 1 - S(s) = (1 - s)^3 (1 + 3 s + 6 s^2) keeps its relative accuracy
        # as s -> 1, where 1 - (10 - 15 s + 6 s^2) s^3 cancels
        s = np.sqrt(q, out=q)
        s -= ri
        s /= w
        np.maximum(s, 0.0, out=s)
        np.minimum(s, 1.0, out=s)
        val = np.multiply(s, 6.0, out=np.empty_like(s))
        val += 3.0
        val *= s
        val += 1.0
        u = np.subtract(1.0, s, out=s)
        val *= u
        val *= u
        val *= u
        val *= A
        return val

    def ev(x: np.ndarray) -> np.ndarray:
        # |x|^2 by the operations of coordinate_dot in their order, into one
        # buffer that the profile then overwrites: the same bits
        x = np.asarray(x, dtype=float)
        q = np.multiply(x[..., 0], x[..., 0], out=np.empty(x.shape[:-1]))
        for k in range(1, x.shape[-1]):
            q += x[..., k] * x[..., k]
        val = profile(q)
        return val if val.ndim else val[()]

    def gr(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rho = np.sqrt(coordinate_dot(x, x))
        s = np.clip((rho - ri) / w, 0.0, 1.0)
        mag = -A * _taper_d1(s) / w
        safe = np.where(rho > 0.0, rho, 1.0)
        return (mag / safe)[..., None] * x

    def flat(a: np.ndarray) -> np.ndarray:
        # f is A on the core |x| <= ri and 0 outside |x| >= ro
        a = np.asarray(a, dtype=float)
        rho = np.sqrt(coordinate_dot(a, a))
        return np.maximum(np.maximum(ri - rho, rho - ro), 0.0)

    # |f - 0| integrates to the core volume plus the taper shell, where
    # 1 - S(s) = 1 - 10 s^3 + 15 s^4 - 6 s^5 integrates in closed form
    shell = _shell_sum(ri, w, d, lambda k: (1.0 / (k + 1) - 10.0 / (k + 4)
                                            + 15.0 / (k + 5) - 6.0 / (k + 6)))
    surf = d * unit_ball_volume(d)
    mass = abs(A) * (surf * ri ** d / d + surf * shell)

    def gnorm(p: float, box: tuple) -> Optional[float]:
        if not all(lo <= -ro and hi >= ro for lo, hi in box):
            return None
        shell = _shell_sum(ri, w, d,
                           lambda k: _beta(2.0 * p + k + 1.0, 2.0 * p + 1.0))
        return surf * (30.0 * abs(A) / w) ** p * shell

    return TestFunction(
        function_id=fid, dim=d, eval=ev, grad=gr,
        grad_lipschitz=lip, support_radius=ro, grad_max=gmax,
        breakpoints_1d=(-ro, -ri, ri, ro) if d == 1 else (),
        l1_mass=mass, flat_radius=flat, grad_norm_p=gnorm,
        radial=Radial(np.zeros(d), profile, (ri, ro), 5),
        degree_1d=5 if d == 1 else None)


def make_ball_indicator(d: int, radius: float, center=None) -> TestFunction:
    """Indicator of the closed ball of the given radius.

    The boundary convention is the closed ball: f = 1 when |x - c| <= radius.
    The choice only affects a measure-zero set and is fixed here so that the
    function is reproducible pointwise.
    """
    _require_dimension(d)
    R = float(radius)
    if not (np.isfinite(R) and R > 0):
        raise ValueError("radius must be finite and positive")
    if center is None:
        c = np.zeros(d)
        cid = ""
    else:
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if c.shape != (d,):
            raise ValueError(f"center must have shape ({d},)")
        if not np.all(np.isfinite(c)):
            raise ValueError("center must be finite")
        cid = ":c=" + ",".join(_fmt(x) for x in c)
    fid = f"indicator:d={d}:r={_fmt(R)}" + cid

    def profile(q: np.ndarray) -> np.ndarray:
        return (np.sqrt(q) <= R).astype(q.dtype)

    def ev(x: np.ndarray) -> np.ndarray:
        y = np.asarray(x, dtype=float) - c
        return profile(coordinate_dot(y, y))

    def flat(a: np.ndarray) -> np.ndarray:
        # distance to the sphere |x - c| = R, where the only jump sits
        y = np.asarray(a, dtype=float) - c
        return np.abs(np.sqrt(coordinate_dot(y, y)) - R)

    bps = (float(c[0]) - R, float(c[0]) + R) if d == 1 else ()
    return TestFunction(
        function_id=fid, dim=d, eval=ev, grad=None,
        grad_lipschitz=None, support_radius=R + float(np.linalg.norm(c)),
        grad_max=None, breakpoints_1d=bps,
        l1_mass=unit_ball_volume(d) * R ** d, flat_radius=flat,
        radial=Radial(c, profile, (R,), 0), degree_1d=0 if d == 1 else None)


def _then(value, fn):
    """fn(value), or None when value (a certificate) is None."""
    return None if value is None else fn(value)


def require_box_dimension(box, dim: int) -> None:
    """Refuse a box ((lo, hi), ...) with other than dim sides: ValueError."""
    if len(box) != dim:
        raise ValueError(f"domain dimension {len(box)} does not match "
                         f"function dimension {dim}")


def translate(f: TestFunction, shift) -> TestFunction:
    """g(x) = f(x - shift); metadata moves rigidly, and the gradient norm
    over a box is f's over the box shifted by -shift.  A shift that is not
    finite or not of f's dimension raises ValueError, and so does a box of
    another dimension than f's (require_box_dimension)."""
    h = np.atleast_1d(np.asarray(shift, dtype=float))
    if h.shape != (f.dim,):
        raise ValueError("shift dimension mismatch")
    if not np.all(np.isfinite(h)):
        raise ValueError(f"shift must be finite, got {h}")

    def shifted(g):
        return lambda x: g(np.asarray(x, dtype=float) - h)

    def shifted_norm(n):
        def norm(p, box):
            require_box_dimension(box, f.dim)
            return n(p, tuple((lo - hk, hi - hk)
                              for (lo, hi), hk in zip(box, h)))
        return norm

    return replace(
        f,
        function_id=f.function_id + ":shifted=" + ",".join(_fmt(v) for v in h),
        eval=shifted(f.eval),
        grad=_then(f.grad, shifted),
        support_radius=_then(f.support_radius,
                             lambda R: R + float(np.linalg.norm(h))),
        breakpoints_1d=tuple(b + h[0] for b in f.breakpoints_1d),
        flat_radius=_then(f.flat_radius, shifted),
        grad_norm_p=_then(f.grad_norm_p, shifted_norm),
        radial=_then(f.radial, lambda rad: replace(rad,
                                                   center=rad.center + h)))


def scale_values(f: TestFunction, lam: float) -> TestFunction:
    """g(x) = lam * f(x); flat_radius carries over unchanged and gradient
    norms gain |lam|^p.  A lam that is not finite raises ValueError."""
    lam = float(lam)
    if not np.isfinite(lam):
        raise ValueError(f"value scale must be finite, got {lam}")
    return replace(
        f,
        function_id=f.function_id + f":times={_fmt(lam)}",
        eval=lambda x, _f=f.eval: lam * _f(x),
        grad=_then(f.grad, lambda g: lambda x: lam * g(x)),
        grad_lipschitz=_then(f.grad_lipschitz, lambda L: abs(lam) * L),
        grad_max=_then(f.grad_max, lambda m: abs(lam) * m),
        l1_mass=_then(f.l1_mass, lambda m: abs(lam) * m),
        grad_norm_p=_then(f.grad_norm_p, lambda n: lambda p, box: _then(
            n(p, box), lambda v: abs(lam) ** p * v)),
        radial=_then(f.radial, lambda rad: replace(
            rad, profile=lambda q, _g=rad.profile: lam * _g(q))))


def dilate(f: TestFunction, s: float) -> TestFunction:
    """g(x) = f(x / s) for s > 0; lengths scale by s, and the gradient norm
    over a box is s^(d - p) times f's over the box divided by s.  An s that
    is not finite and positive raises ValueError."""
    s = float(s)
    if not (np.isfinite(s) and s > 0):
        raise ValueError(
            f"dilation factor must be finite and positive, got {s}")
    return replace(
        f,
        function_id=f.function_id + f":dilated={_fmt(s)}",
        eval=lambda x, _f=f.eval: _f(np.asarray(x, dtype=float) / s),
        grad=_then(f.grad, lambda g: lambda x:
                   g(np.asarray(x, dtype=float) / s) / s),
        grad_lipschitz=_then(f.grad_lipschitz, lambda L: L / s ** 2),
        grad_max=_then(f.grad_max, lambda m: m / s),
        support_radius=_then(f.support_radius, lambda R: R * s),
        breakpoints_1d=tuple(b * s for b in f.breakpoints_1d),
        flat_radius=_then(f.flat_radius, lambda r: lambda a:
                          s * r(np.asarray(a, dtype=float) / s)),
        l1_mass=_then(f.l1_mass, lambda m: m * s ** f.dim),
        grad_norm_p=_then(f.grad_norm_p, lambda n: lambda p, box: _then(
            n(p, tuple((lo / s, hi / s) for lo, hi in box)),
            lambda v: s ** (f.dim - p) * v)),
        radial=_then(f.radial, lambda rad: replace(
            rad, center=s * rad.center,
            profile=lambda q, _g=rad.profile: _g(np.divide(q, s * s, out=q)),
            breakpoints=_then(rad.breakpoints,
                              lambda bps: tuple(b * s for b in bps)))))


def _parse_fields(fid: str) -> dict:
    parts = fid.split(":")
    out = {"kind": parts[0]}
    for part in parts[1:]:
        if "=" not in part:
            raise ValueError(f"malformed identifier field {part!r} in {fid!r}")
        k, _, val = part.partition("=")
        out[k] = val
    return out


def parse_function_id(fid: str) -> TestFunction:
    """Build a catalog entry from its string identifier."""
    fields = _parse_fields(fid.strip())
    kind = fields.pop("kind")
    try:
        d = int(fields.pop("d"))
        if kind == "linear":
            v = [float(t) for t in fields.pop("v").split(",")]
            _reject_extras(fid, fields)
            return make_linear(d, v)
        if kind == "plateau":
            a = float(fields.pop("a"))
            ri = float(fields.pop("ri"))
            ro = float(fields.pop("ro"))
            _reject_extras(fid, fields)
            return make_plateau_bump(d, a, ri, ro)
        if kind == "indicator":
            r = float(fields.pop("r"))
            center = None
            if "c" in fields:
                center = [float(t) for t in fields.pop("c").split(",")]
            _reject_extras(fid, fields)
            return make_ball_indicator(d, r, center)
    except KeyError as missing:
        raise ValueError(
            f"identifier {fid!r} is missing the {missing.args[0]}= field"
        ) from None
    raise ValueError(f"unknown function kind {kind!r} in {fid!r}")


def _reject_extras(fid: str, fields: dict) -> None:
    if fields:
        raise ValueError(f"unexpected fields {sorted(fields)} in {fid!r}")


DEFAULT_IDS = (
    "linear:d=1:v=1",
    "linear:d=2:v=1,0",
    "linear:d=3:v=1,2,2",
    "plateau:d=1:a=1:ri=0.5:ro=1",
    "plateau:d=2:a=1:ri=0.5:ro=1",
    "plateau:d=3:a=1:ri=0.5:ro=1",
    "indicator:d=1:r=0.5",
)


def default_catalog() -> list[TestFunction]:
    return [parse_function_id(fid) for fid in DEFAULT_IDS]
