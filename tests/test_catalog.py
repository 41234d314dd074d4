"""Test function catalog: certificates, identifiers, transforms."""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from osclab import (
    DEFAULT_IDS,
    Mollifier,
    default_catalog,
    dilate,
    make_ball_indicator,
    make_linear,
    make_plateau_bump,
    mollify_1d,
    parse_function_id,
    scale_values,
    stream,
    translate,
    unit_ball_nodes,
    unit_ball_volume,
)
from osclab import catalog
from osclab.catalog import coordinate_dot
from osclab.oscillation import SKIP_MARGIN as _SKIP_MARGIN
from osclab.quadrature import gauss_rule

DIFFERENTIABLE = [f for f in default_catalog() if f.grad is not None]


def _fd_gradient(f, x, h=1e-4):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f.eval(x + e) - f.eval(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("f", DIFFERENTIABLE, ids=lambda f: f.function_id)
def test_finite_difference_gradient(f):
    # central differences at 100 random points within 1e-5 * (1 + |grad|)
    rng = stream(101, 50)
    scale = f.support_radius if f.support_radius is not None else 1.0
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1.2 * scale, 1.2 * scale, size=f.dim)
        g = f.grad(x)
        fd = _fd_gradient(f, x)
        err = np.max(np.abs(fd - g))
        tol = 1e-5 * (1.0 + float(np.max(np.abs(g))))
        worst = max(worst, err / tol)
        assert err <= tol, (f.function_id, x, err, tol)
    assert worst <= 1.0


@pytest.mark.parametrize(
    "f", [f for f in DIFFERENTIABLE if f.grad_lipschitz is not None],
    ids=lambda f: f.function_id)
def test_gradient_lipschitz_certificate(f):
    # |grad(x) - grad(y)| <= L |x - y| over 10^4 random pairs
    rng = stream(102, 51)
    scale = f.support_radius if f.support_radius is not None else 1.0
    n = 10_000
    x = rng.uniform(-1.3 * scale, 1.3 * scale, size=(n, f.dim))
    y = x + rng.uniform(-0.2 * scale, 0.2 * scale, size=(n, f.dim))
    gx = np.stack([f.grad(xi) for xi in x])
    gy = np.stack([f.grad(yi) for yi in y])
    num = np.linalg.norm(gx - gy, axis=-1)
    den = np.linalg.norm(x - y, axis=-1)
    keep = den > 0
    ratio = num[keep] / den[keep]
    assert ratio.max() <= f.grad_lipschitz * (1 + 1e-9), ratio.max()


@pytest.mark.parametrize(
    "f", [f for f in default_catalog() if f.support_radius is not None],
    ids=lambda f: f.function_id)
def test_support_certificate(f):
    # the function is 0 outside the declared support radius, the constant
    # that l1_mass is taken about
    rng = stream(103, 52)
    for _ in range(200):
        direction = rng.standard_normal(f.dim)
        direction /= np.linalg.norm(direction)
        x = direction * f.support_radius * rng.uniform(1.0 + 1e-9, 5.0)
        assert f.eval(x) == 0.0


def _support_box(f, center=None):
    """The cube of half-side support_radius about center (default 0)."""
    c = np.zeros(f.dim) if center is None else np.asarray(center, float)
    return tuple((ck - f.support_radius, ck + f.support_radius) for ck in c)


def test_plateau_gradient_norm_squared_is_40_over_7():
    # the quintic taper's derivative is 30 s^2 (1 - s)^2; integrating its
    # square over both ramps of the unit-amplitude profile gives 40/7
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    assert abs(f.grad_norm_p(2.0, _support_box(f)) - 40.0 / 7.0) <= 1e-9


def test_plateau_l1_gradient_norm_is_two():
    # f rises 0 -> 1 and falls 1 -> 0, so the total variation is exactly 2
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    assert abs(f.grad_norm_p(1.0, _support_box(f)) - 2.0) <= 1e-9


def test_plateau_gradient_norm_squared_is_40_over_7_to_two_ulps():
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    exact = 40.0 / 7.0
    got = f.grad_norm_p(2.0, _support_box(f))
    assert abs(got - exact) <= 2.0 * math.ulp(exact)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_plateau_taper_keeps_its_relative_accuracy_near_the_outer_radius(d):
    # 1 - S(s) = 1 - 10 s^3 + 15 s^4 - 6 s^5 vanishes like 10 (1 - s)^3 as
    # s -> 1; eval stays within 4 eps relative of its exact rational value
    # at the s it computes, on points along the diagonal at s = 1 - 10^-k
    f = make_plateau_bump(d, 1.0, 0.5, 1.0)
    for k in range(1, 7):
        x = np.full((1, d), (0.5 + 0.5 * (1.0 - 10.0 ** -k)) / math.sqrt(d))
        s = np.clip((np.sqrt(coordinate_dot(x, x)) - 0.5) / 0.5, 0.0, 1.0)
        t = Fraction(float(s[0]))
        exact = 1 - 10 * t ** 3 + 15 * t ** 4 - 6 * t ** 5
        assert exact > 0
        err = abs(Fraction(float(f.eval(x)[0])) - exact) / exact
        assert err <= 4 * Fraction(np.finfo(float).eps), (k, float(err))


PLATEAU_PARAMS = [(1.0, 0.5, 1.0), (-2.0, 0.3, 0.9), (0.4, 1.5, 1.75)]

# transforms of a d-dimensional entry: (transform, image's centre, radius
# factor of the image's taper shell)
PLATEAU_TRANSFORMS = [
    (lambda f: f, lambda d: np.zeros(d), 1.0),
    (lambda f: dilate(f, 1.7), lambda d: np.zeros(d), 1.7),
    (lambda f: scale_values(f, -2.5), lambda d: np.zeros(d), 1.0),
    (lambda f: translate(f, [0.3, -0.2, 0.1][:f.dim]),
     lambda d: np.array([0.3, -0.2, 0.1][:d]), 1.0),
]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.7])
def test_plateau_gradient_norm_closed_form_matches_quadrature(d, p):
    # radial quadrature of |grad g|^p over the taper shell about g's centre
    # is the oracle, for the plateau and its dilate, scale_values and
    # translate images, over the cube of half-side support_radius about it
    from scipy.integrate import quad
    from osclab import unit_ball_volume
    for (A, ri, ro), (transform, centre, stretch) in itertools.product(
            PLATEAU_PARAMS, PLATEAU_TRANSFORMS):
        g = transform(make_plateau_bump(d, A, ri, ro))
        c = centre(d)

        def integrand(rho):
            x = c + np.array([rho] + [0.0] * (d - 1))
            return float(np.linalg.norm(g.grad(x))) ** p * rho ** (d - 1)

        val, err = quad(integrand, stretch * ri, stretch * ro, epsabs=0.0,
                        epsrel=2e-14, limit=200)
        oracle = d * unit_ball_volume(d) * val
        got = g.grad_norm_p(p, _support_box(g, c))
        assert isinstance(got, float)
        assert abs(got - oracle) <= 1e-13 * oracle, (g.function_id, got,
                                                     oracle)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.7])
def test_grad_norm_p_transform_laws(d, p):
    # over boxes that hold the whole support: translation leaves the
    # integral of |grad f|^p unchanged, dilation by s multiplies it by
    # s^(d - p) and scaling the values by lam multiplies it by |lam|^p
    f = make_plateau_bump(d, -2.0, 0.3, 0.9)
    base = f.grad_norm_p(p, _support_box(f))
    h = np.array([0.8, -0.6, 0.4][:d])
    assert translate(f, h).grad_norm_p(p, _support_box(f, h)) == base
    g = dilate(f, 2.5)
    got = g.grad_norm_p(p, _support_box(g))
    assert got == pytest.approx(2.5 ** (d - p) * base, rel=1e-15)
    got = scale_values(f, -0.3).grad_norm_p(p, _support_box(f))
    assert got == pytest.approx(0.3 ** p * base, rel=1e-15)


@pytest.mark.parametrize("transform", [
    lambda f: dilate(f, 3.0),
    lambda f: scale_values(f, 2.0),
    lambda f: translate(f, [0.25]),
], ids=["dilate", "scale_values", "translate"])
def test_grad_norm_p_needs_the_transformed_support_in_the_box(transform):
    # a box that cuts the image's taper shell has no closed form, whether
    # or not it would hold the untransformed support
    g = transform(make_plateau_bump(1, 1.0, 0.5, 1.0))
    lo, hi = -g.support_radius, g.support_radius
    assert g.grad_norm_p(2.0, ((lo, hi),)) is not None
    assert g.grad_norm_p(2.0, ((0.5 * lo, hi),)) is None


def test_transforms_keep_a_missing_gradient_norm_missing():
    ind = make_ball_indicator(2, 0.5)
    assert ind.grad_norm_p is None
    for g in (translate(ind, [0.1, 0.2]), dilate(ind, 2.0),
              scale_values(ind, 3.0)):
        assert g.grad_norm_p is None


@pytest.mark.parametrize("f", [f for f in default_catalog()
                               if f.grad_norm_p is not None],
                         ids=lambda f: f.function_id)
@pytest.mark.parametrize("extra", [-1, 1])
def test_grad_norm_p_refuses_a_box_of_another_dimension(f, extra):
    # a box with one side too few or too many, on the entry and on each of
    # its images (zip would drop a longer box's last side unseen)
    box = ((-5.0, 5.0),) * (f.dim + extra)
    for g in (f, translate(f, np.full(f.dim, 0.2)), dilate(f, 1.5),
              scale_values(f, -2.0)):
        with pytest.raises(ValueError, match="does not match function dim"):
            g.grad_norm_p(2.0, box)


def _image_rules():
    """One rule per TestFunction field for g(x) = lam f((x - h) / s):
    rule(f, g, h, s, lam, x), x points of shape (n, dim), asserts that g
    carries f's certificate mapped by that rule."""
    close = dict(rtol=1e-14, atol=0.0)

    def both_or_none(a, b, check):
        assert (a is None) == (b is None)
        if a is not None:
            check(a, b)

    def inner(h, s, x):
        return (x - h) / s

    def fid(f, g, h, s, lam, x):
        assert g.function_id == (
            f.function_id + f":times={lam:g}:dilated={s:g}:shifted="
            + ",".join(f"{v:g}" for v in h))

    def dim(f, g, h, s, lam, x):
        assert g.dim == f.dim

    def ev(f, g, h, s, lam, x):
        np.testing.assert_allclose(g.eval(x), lam * f.eval(inner(h, s, x)),
                                   **close)

    def grad(f, g, h, s, lam, x):
        both_or_none(f.grad, g.grad, lambda fg, gg: np.testing.assert_allclose(
            gg(x), lam * fg(inner(h, s, x)) / s, **close))

    def scalar(name, factor):
        def rule(f, g, h, s, lam, x):
            both_or_none(getattr(f, name), getattr(g, name),
                         lambda a, b: np.testing.assert_allclose(
                             b, factor(a, h, s, lam, f.dim), **close))
        return rule

    def breakpoints(f, g, h, s, lam, x):
        np.testing.assert_allclose(g.breakpoints_1d,
                                   [s * b + h[0] for b in f.breakpoints_1d],
                                   **close)

    def flat(f, g, h, s, lam, x):
        both_or_none(f.flat_radius, g.flat_radius,
                     lambda fr, gr: np.testing.assert_allclose(
                         gr(x), s * fr(inner(h, s, x)), **close))

    def gnorm(f, g, h, s, lam, x):
        def check(fn, gn):
            R = g.support_radius
            for box in (tuple((hk - R, hk + R) for hk in h),
                        ((-0.3, 0.2),) * f.dim):
                want = fn(2.5, tuple(((lo - hk) / s, (hi - hk) / s)
                                     for (lo, hi), hk in zip(box, h)))
                got = gn(2.5, box)
                both_or_none(want, got,
                             lambda w, v: np.testing.assert_allclose(
                                 v, abs(lam) ** 2.5 * s ** (f.dim - 2.5) * w,
                                 **close))
        both_or_none(f.grad_norm_p, g.grad_norm_p, check)

    def radial(f, g, h, s, lam, x):
        def check(fr, gr):
            np.testing.assert_allclose(gr.center, s * fr.center + h, **close)
            q = np.linspace(0.0, 4.0, 97)
            np.testing.assert_allclose(gr.profile(q.copy()),
                                       lam * fr.profile(q / s ** 2), **close)
            np.testing.assert_allclose(gr.breakpoints,
                                       [s * b for b in fr.breakpoints],
                                       **close)
            assert gr.degree == fr.degree
        both_or_none(f.radial, g.radial, check)

    def degree(f, g, h, s, lam, x):
        assert g.degree_1d == f.degree_1d

    scalars = {
        "grad_lipschitz": lambda L, h, s, lam, d: abs(lam) * L / s ** 2,
        "grad_max": lambda m, h, s, lam, d: abs(lam) * m / s,
        "support_radius": lambda R, h, s, lam, d: s * R + np.linalg.norm(h),
        "l1_mass": lambda m, h, s, lam, d: abs(lam) * m * s ** d,
    }
    return {
        "function_id": fid, "dim": dim, "eval": ev, "grad": grad,
        "breakpoints_1d": breakpoints, "flat_radius": flat,
        "grad_norm_p": gnorm, "radial": radial, "degree_1d": degree,
        **{name: scalar(name, factor) for name, factor in scalars.items()},
    }


@pytest.mark.parametrize("fid", ["plateau:d=1:a=1:ri=0.5:ro=1",
                                 "plateau:d=2:a=1:ri=0.5:ro=1",
                                 "indicator:d=2:r=0.5:c=0.1,0"])
def test_every_certificate_has_an_image_rule(fid):
    # the table names exactly the fields of TestFunction, so a certificate
    # added without a rule for the affine image fails here
    rules = _image_rules()
    assert set(rules) == {fld.name for fld in dataclasses.fields(
        catalog.TestFunction)}
    f = parse_function_id(fid)
    h, s, lam = np.array([0.3, -0.45][:f.dim]), 1.7, -0.6
    g = translate(dilate(scale_values(f, lam), s), h)
    x = np.random.default_rng(3).uniform(-3.0, 3.0, size=(301, f.dim))
    for rule in rules.values():
        rule(f, g, h, s, lam, x)


def test_plateau_l1_mass_is_a_float():
    for d in (1, 2, 3):
        assert type(make_plateau_bump(d, 1.0, 0.5, 1.0).l1_mass) is float


def test_identifier_round_trip():
    for fid in DEFAULT_IDS:
        f = parse_function_id(fid)
        assert f.function_id == fid
        again = parse_function_id(f.function_id)
        assert again.function_id == fid
        assert again.dim == f.dim


@pytest.mark.parametrize("bad", [
    "nope:d=1",
    "linear:v=1",            # missing d
    "linear:d=1",            # missing v
    "plateau:d=1:a=1:ri=0.9:ro=0.5",   # inner >= outer
    "plateau:d=1:a=1:ri=0.5:ro=inf",   # infinite outer radius
    "linear:d=1:v=1:extra=2",
    "indicator:d=1",
    "indicator:d=2:r=0.5:c=inf,0",   # non-finite center
    "indicator:d=1:r=0.5:c=nan",
])
def test_identifier_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_function_id(bad)


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("family", [
    "linear:d={d}:v=1", "plateau:d={d}:a=1:ri=0.5:ro=1",
    "indicator:d={d}:r=0.5"])
def test_identifier_rejects_a_dimension_below_one(family, d):
    # refused before any arithmetic on d: the plateau's mass divides by d,
    # and numpy refuses negative shapes with its own message
    with pytest.raises(ValueError, match=f"dimension must be positive, "
                                         f"got {d}$"):
        parse_function_id(family.format(d=d))


def test_indicator_center_field_round_trip():
    f = make_ball_indicator(1, 0.5, center=[0.25])
    assert "c=" in f.function_id
    g = parse_function_id(f.function_id)
    assert g.eval(np.array([0.5])) == 1.0
    assert g.eval(np.array([0.8])) == 0.0


def test_default_catalog_has_at_least_six_entries():
    cat = default_catalog()
    assert len(cat) >= 6
    assert len({f.function_id for f in cat}) == len(cat)


@given(
    v=st.lists(st.floats(-5, 5), min_size=1, max_size=3),
    x=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_linear_eval_is_dot_product(v, x):
    d = len(v)
    f = make_linear(d, v)
    pt = np.array(x[:d])
    assert math.isclose(float(f.eval(pt)), float(np.dot(v, pt)),
                        rel_tol=1e-12, abs_tol=1e-12)
    np.testing.assert_allclose(f.grad(pt), v, rtol=0, atol=0)


@given(lam=st.floats(0.25, 4.0), x=st.floats(-2.0, 2.0))
@settings(max_examples=60, deadline=None)
def test_scale_values_multiplies_everything(lam, x):
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    g = scale_values(f, lam)
    pt = np.array([x])
    assert math.isclose(float(g.eval(pt)), lam * float(f.eval(pt)),
                        rel_tol=1e-12, abs_tol=1e-300)
    assert math.isclose(g.grad_max, lam * f.grad_max, rel_tol=1e-12)
    assert g.support_radius == f.support_radius


@given(s=st.floats(0.5, 3.0), x=st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_dilate_rescales_argument(s, x):
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    g = dilate(f, s)
    pt = np.array([x])
    assert math.isclose(float(g.eval(pt)), float(f.eval(pt / s)),
                        rel_tol=1e-12, abs_tol=1e-300)
    assert math.isclose(g.support_radius, s * f.support_radius,
                        rel_tol=1e-12)
    assert math.isclose(g.grad_max, f.grad_max / s, rel_tol=1e-12)


@given(h=st.floats(-2.0, 2.0), x=st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_translate_shifts_argument(h, x):
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    g = translate(f, [h])
    pt = np.array([x])
    assert math.isclose(float(g.eval(pt)), float(f.eval(pt - h)),
                        rel_tol=1e-12, abs_tol=1e-300)


FLAT_ENTRIES = [
    make_plateau_bump(1, 1.0, 0.5, 1.0),
    make_plateau_bump(2, 1.0, 0.5, 1.0),
    make_plateau_bump(3, -2.0, 0.3, 0.9),
    make_ball_indicator(1, 0.5),
    make_ball_indicator(1, 0.5, center=[0.25]),
    make_ball_indicator(2, 0.6, center=[0.3, -0.2]),
    translate(make_plateau_bump(2, 1.0, 0.5, 1.0), [0.4, -0.3]),
    dilate(make_plateau_bump(1, 1.0, 0.5, 1.0), 2.5),
    dilate(make_ball_indicator(2, 0.5), 0.4),
    scale_values(make_plateau_bump(2, 1.0, 0.5, 1.0), 0.7),
    scale_values(translate(make_ball_indicator(3, 0.5), [0.1, 0.0, -0.2]),
                 -3.0),
]


@given(f=st.sampled_from(FLAT_ENTRIES),
       a=st.lists(st.floats(-2.5, 2.5), min_size=3, max_size=3),
       t=st.floats(0.0, 1.0, exclude_max=True),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=300, deadline=None)
def test_flat_radius_certifies_constancy(f, a, t, seed):
    # f is exactly constant, and grad f exactly 0, on B(a, r) for every r
    # the scan or maximal_gradient may skip by constancy: r + margin *
    # (|a| + r) < flat_radius(a), which leaves room for the rounding of
    # a + r u, even for nodes on the sphere
    a = np.array(a[:f.dim])
    rho = float(f.flat_radius(a))
    r = t * rho
    assume(r + _SKIP_MARGIN * (np.linalg.norm(a) + r) < rho)
    u = unit_ball_nodes(f.dim, 64, stream(seed, 53))
    u = np.concatenate([u, u / np.linalg.norm(u, axis=1, keepdims=True)])
    vals = f.eval(a + r * u)
    assert np.all(vals == f.eval(a)), (f.function_id, a, r)
    # and the gradient, where there is one, is exactly 0 on that ball
    if f.grad is not None:
        assert np.all(f.grad(a + r * u) == 0.0), (f.function_id, a, r)
        assert np.all(f.grad(a) == 0.0), (f.function_id, a, r)


RADIAL_ENTRIES = [
    make_plateau_bump(1, 1.0, 0.5, 1.0),
    make_plateau_bump(2, -2.5, 0.3, 1.7),
    make_plateau_bump(3, 1.0, 0.5, 1.0),
    make_ball_indicator(1, 0.5),
    make_ball_indicator(1, 0.5, center=[0.25]),
    make_ball_indicator(2, 0.6, center=[0.3, -0.2]),
    make_ball_indicator(3, 0.5),
]
RADIAL_IMAGES = [image(f) for f in RADIAL_ENTRIES for image in (
    lambda f: translate(f, [0.3, -0.2, 0.1][:f.dim]),
    lambda f: dilate(f, 1.7),
    lambda f: dilate(f, 0.4),
    lambda f: scale_values(f, -0.6),
    lambda f: scale_values(dilate(translate(f, [-0.4, 0.7, 0.2][:f.dim]),
                                  2.5), 3.0),
)]


@given(case=st.sampled_from([(f, True) for f in RADIAL_ENTRIES]
                            + [(f, False) for f in RADIAL_IMAGES]),
       x=st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12))
@settings(max_examples=300, deadline=None)
def test_radial_certificate_describes_eval(case, x):
    # eval(x) == profile(|x - c|^2): bit for bit on the entries, which
    # build eval from the profile, and within 1e-12 on their images, whose
    # |x - c|^2 rounds differently; a jump entry is compared off its jump
    # set, where that rounding cannot move a point across it
    f, exact = case
    pts = np.array(x).reshape(4, 3)[:, :f.dim]
    y = pts - f.radial.center
    got = f.radial.profile(coordinate_dot(y, y))
    want = f.eval(pts)
    if exact:
        assert got.tobytes() == want.tobytes(), f.function_id
        return
    if f.grad is None:
        assume(np.all(f.flat_radius(pts) > 1e-9))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12,
                               err_msg=f.function_id)


def test_linear_entries_are_not_radial():
    f = make_linear(2, [1.0, -2.0])
    for g in (f, translate(f, [0.5, 0.5]), dilate(f, 2.0),
              scale_values(f, 3.0), make_linear(1, [1.0])):
        assert g.radial is None, g.function_id


def _radial_images():
    out = []
    for fid in (*DEFAULT_IDS, "plateau:d=2:a=-2.5:ri=0.3:ro=1.7",
                "indicator:d=2:r=0.5:c=0.3,0", "indicator:d=3:r=0.7"):
        f = parse_function_id(fid)
        if f.radial is not None:
            out += [f, translate(f, np.linspace(0.37, -0.21, f.dim)),
                    dilate(f, 0.01), dilate(f, 30.0), scale_values(f, -3.3)]
    return out


def _fit_miss(rho, vals, degree):
    """Largest miss of the least-squares polynomial of degree to vals."""
    fit = np.polynomial.Polynomial.fit(rho, vals, degree)
    return float(np.max(np.abs(fit(rho) - vals)))


@pytest.mark.parametrize("f", _radial_images(), ids=lambda f: f.function_id)
def test_radial_breakpoints_and_degree_describe_the_profile(f):
    # the profile in rho = |x - c|, evaluated densely, is a polynomial of
    # the stated degree below the first radial breakpoint, between two of
    # them and past the last: a least-squares fit of that degree misses
    # none of 400 values per piece by more than 1e-9 of max|f|.  Each
    # breakpoint is one (a fit of the degree across it misses by more
    # than 1e-6), and the degree is no higher than needed (a fit of one
    # less misses some piece by more than 1e-6)
    bps = f.radial.breakpoints
    degree = f.radial.degree
    cuts = [0.0, *bps, 3.0 * bps[-1]]

    def profile(lo, hi):
        rho = np.linspace(lo, hi, 402)[1:-1]
        return rho, f.radial.profile(rho * rho)

    size = max(np.max(np.abs(profile(0.0, cuts[-1])[1])), 1e-300)
    lower = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        assert _fit_miss(*profile(lo, hi), degree) <= 1e-9 * size
        if degree > 0:
            lower = max(lower, _fit_miss(*profile(lo, hi), degree - 1))
    assert degree == 0 or lower > 1e-6 * size
    for lo, hi in zip(cuts[:-2], cuts[2:]):
        assert _fit_miss(*profile(lo, hi), degree) > 1e-6 * size


def test_radial_certificate_of_each_entry():
    # the plateau breaks at ri and ro with quintic pieces, the indicator
    # at its radius with constant ones; transforms keep the degree and
    # dilate scales the breakpoints.  Radial(center, profile) carries no
    # breakpoints and no degree, and a degree that is not an integer >= 0
    # is refused
    plateau = make_plateau_bump(2, 1.0, 0.5, 1.0)
    indicator = make_ball_indicator(3, 0.7, center=[0.1, 0.0, 0.2])
    for f, bps, degree in ((plateau, (0.5, 1.0), 5), (indicator, (0.7,), 0)):
        for g, s in ((f, 1.0), (translate(f, np.full(f.dim, 0.3)), 1.0),
                     (dilate(f, 2.5), 2.5), (scale_values(f, -3.0), 1.0)):
            assert g.radial.breakpoints == tuple(s * b for b in bps)
            assert g.radial.degree == degree
    bare = catalog.Radial(np.zeros(2), plateau.radial.profile)
    assert bare.breakpoints is None and bare.degree is None
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError, match="Radial degree must be an "
                                             "integer >= 0"):
            catalog.Radial(np.zeros(2), plateau.radial.profile, (1.0,), bad)


def _d1_images():
    out = []
    for f in (make_linear(1, [1.3]), make_plateau_bump(1, 1.0, 0.5, 1.0),
              make_plateau_bump(1, -2.5, 0.3, 1.7),
              make_ball_indicator(1, 0.5, center=[0.25])):
        out += [f, translate(f, [0.37]), dilate(f, 0.01), dilate(f, 30.0),
                scale_values(f, -3.3)]
    return out


@pytest.mark.parametrize("f", _d1_images(), ids=lambda f: f.function_id)
def test_degree_certificate_sizes_an_exact_gauss_rule(f):
    # on each piece between the breakpoints, and on a stretch of each outer
    # piece as long as the breakpoints' span, osclab's Gauss rule of the
    # order degree_1d // 2 + 1 integrates f as numpy's 16-point rule
    # (exact to degree 31) does, to rounding: on the whole piece and on 20
    # random parts of it.  A whole taper piece alone would not show a
    # missing degree: 1 - S(s) - 1/2 is odd about its middle
    t, w = gauss_rule(f.degree_1d // 2 + 1)
    t16, w16 = np.polynomial.legendre.leggauss(16)
    bps = list(f.breakpoints_1d)
    span = bps[-1] - bps[0] if bps else 1.0
    cuts = [bps[0] - span, *bps, bps[-1] + span] if bps else [-1.0, 1.0]
    rng = np.random.default_rng(3)
    for p_lo, p_hi in zip(cuts, cuts[1:]):
        parts = np.sort(rng.uniform(p_lo, p_hi, (20, 2)), axis=1)
        for lo, hi in [(p_lo, p_hi), *parts]:
            half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
            vals = f.eval_1d(mid + half * t16)
            exact = half * float(w16 @ vals)
            got = half * float(w @ f.eval_1d(mid + half * t))
            tol = 64.0 * np.finfo(float).eps * np.max(np.abs(vals)) * (hi - lo)
            assert abs(got - exact) <= tol, (f.function_id, lo, hi)


def test_degree_certificate_of_each_entry():
    # transforms keep the degree; entries with no polynomial pieces in d = 1
    # (d >= 2, mollified, built by hand) carry none
    for f, degree in ((make_linear(1, [2.0]), 1),
                      (make_plateau_bump(1, 1.0, 0.5, 1.0), 5),
                      (make_ball_indicator(1, 0.5, center=[0.25]), 0)):
        for g in (f, translate(f, [0.3]), dilate(f, 2.0),
                  scale_values(f, -3.0)):
            assert g.degree_1d == degree, g.function_id
    plateau = make_plateau_bump(1, 1.0, 0.5, 1.0)
    for g in (make_linear(2, [1.0, 0.0]), make_plateau_bump(2, 1.0, 0.5, 1.0),
              make_ball_indicator(2, 0.5), mollify_1d(plateau, Mollifier(0.1)),
              catalog.TestFunction("custom", 1, plateau.eval, None, None,
                                   None)):
        assert g.degree_1d is None, g.function_id


@pytest.mark.parametrize("degree", [-1, 2.5, True])
def test_degree_certificate_must_be_an_integer_of_at_least_zero(degree):
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="degree_1d must be an integer >= 0"):
        dataclasses.replace(f, degree_1d=degree)
    assert dataclasses.replace(f, degree_1d=np.int64(4)).degree_1d == 4


def test_translate_names_its_shift():
    # two shifts of one entry are two functions, with two identifiers
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    assert (translate(f, [0.3, 0.0]).function_id
            == "plateau:d=2:a=1:ri=0.5:ro=1:shifted=0.3,0")
    assert (translate(f, [0.0, -0.7]).function_id
            == "plateau:d=2:a=1:ri=0.5:ro=1:shifted=0,-0.7")


def test_flat_radius_values():
    plateau = make_plateau_bump(2, 1.0, 0.5, 1.0)
    pts = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.75], [3.0, 4.0]])
    np.testing.assert_allclose(plateau.flat_radius(pts), [0.5, 0.2, 0.0, 4.0])
    ind = make_ball_indicator(1, 0.5, center=[0.25])
    np.testing.assert_allclose(ind.flat_radius(np.array([[0.25], [1.0]])),
                               [0.5, 0.25])
    g = dilate(translate(plateau, [1.0, 0.0]), 2.0)
    np.testing.assert_allclose(g.flat_radius(np.array([[2.0, 0.0]])), [1.0])


def test_flat_radius_absent_without_a_constancy_certificate():
    for f in (make_linear(1, [1.0]), make_linear(2, [1.0, 0.0]),
              translate(make_linear(2, [1.0, 2.0]), [0.5, 0.5])):
        assert f.flat_radius is None


def test_plateau_l1_mass_matches_quadrature():
    # the declared L1 mass is the oracle for tail-bound constants
    from scipy.integrate import quad
    for d in (1, 2, 3):
        f = make_plateau_bump(d, 1.0, 0.5, 1.0)
        if f.l1_mass is None:
            continue
        if d == 1:
            val, err = quad(lambda t: abs(f.eval_1d(np.array([t]))[0]),
                            -1.0, 1.0, limit=200)
            val *= 1.0  # symmetric profile integrated over the whole line
        else:
            from osclab import unit_ball_volume
            surf = d * unit_ball_volume(d)
            val, err = quad(
                lambda t: abs(f.eval_1d(np.array([t]))[0]) * surf * t**(d - 1),
                0.0, 1.0, limit=200)
        assert abs(val - f.l1_mass) <= 1e-8 + 10 * err, (d, val, f.l1_mass)


def _metadata_images():
    out = []
    for f in default_catalog():
        out += [f, translate(f, np.linspace(0.37, -0.21, f.dim)),
                dilate(f, 0.4), dilate(f, 1.7), scale_values(f, -2.5)]
    return out


def _unit_rays(d, count, seed):
    """count unit vectors of R^d; in d = 1 the two of the line."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    u = stream(seed, 53).standard_normal((count, d))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


@pytest.mark.parametrize("f", _metadata_images(), ids=lambda f: f.function_id)
def test_l1_mass_of_each_entry_and_image_matches_a_quadrature(f):
    # l1_mass feeds _r_tail_bound's gamma.  Every entry with a finite mass
    # is radial and 0 outside its support, so |f| integrates along each
    # ray from the centre against |S^(d-1)| rho^(d-1): 4 panels of 8 Gauss
    # nodes on each piece between the radial breakpoints, and on a piece
    # past the last as long again, integrate a polynomial piece exactly, so
    # every ray gives the mass to rounding.  A linear entry has no finite
    # mass
    if f.radial is None:
        assert f.l1_mass is None and f.support_radius is None
        return
    bps = (0.0, *f.radial.breakpoints, 2.0 * f.radial.breakpoints[-1])
    edges = np.concatenate([np.linspace(lo, hi, 5)[:-1]
                            for lo, hi in zip(bps[:-1], bps[1:])] + [bps[-1:]])
    t, w = gauss_rule(8)
    half = 0.5 * np.diff(edges)[:, None]
    rho = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * t).ravel()
    weight = (half * w).ravel() * f.dim * unit_ball_volume(f.dim)
    for u in _unit_rays(f.dim, 8, 54):
        vals = np.abs(f.eval(f.radial.center + rho[:, None] * u))
        got = float(weight @ (vals * rho ** (f.dim - 1)))
        assert got == pytest.approx(f.l1_mass, rel=1e-12, abs=0.0), u


@pytest.mark.parametrize("f", _metadata_images(), ids=lambda f: f.function_id)
def test_grad_max_of_each_entry_and_image_bounds_the_gradient(f):
    # grad_max feeds the skip mask and the scan start.  |grad f| stays
    # below it, up to the few ulps by which the computed norm rounds up
    # (the skip mask's 1 + SKIP_MARGIN covers them), at 2000 uniform points
    # of a cube around the support (around the origin for a linear entry)
    # and at 2001 radii along each of 8 rays from a radial entry's centre;
    # those points reach it to 1e-3 of it, so they probe where the bound
    # is tight.  The indicator has neither a gradient nor a bound
    if f.grad is None:
        assert f.grad_max is None
        return
    if f.radial is None:
        c, reach = np.zeros(f.dim), 2.0
        rays = np.empty((0, f.dim))
    else:
        c, reach = f.radial.center, 1.5 * f.radial.breakpoints[-1]
        rho = np.linspace(0.0, reach, 2001)
        rays = (c + rho[:, None, None] * _unit_rays(f.dim, 8, 55)).reshape(
            -1, f.dim)
    cube = c + stream(104, 56).uniform(-reach, reach, size=(2000, f.dim))
    norms = np.linalg.norm(f.grad(np.concatenate([cube, rays])), axis=-1)
    assert norms.max() <= (1.0 + 8.0 * np.finfo(float).eps) * f.grad_max
    assert norms.max() >= (1.0 - 1e-3) * f.grad_max


# ---------------------------------------------------------------------------
# memory layout: the Monte Carlo kernels pass coordinate-major views
# ---------------------------------------------------------------------------

LAYOUT_ENTRIES = (default_catalog() + [
    make_linear(2, [0.3, -1.7]),
    make_linear(3, [0.3, -1.7, 2.9]),
    make_ball_indicator(2, 0.6, center=[0.3, -0.2]),
    make_ball_indicator(3, 0.5),
    translate(make_plateau_bump(2, 1.0, 0.5, 1.0), [0.4, -0.3]),
    translate(make_plateau_bump(3, 1.0, 0.3, 0.9), [0.1, 0.0, -0.2]),
    dilate(make_plateau_bump(3, 1.0, 0.5, 1.0), 0.7),
    dilate(make_ball_indicator(2, 0.5), 0.4),
    scale_values(make_plateau_bump(3, -2.0, 0.3, 0.9), 0.7),
    scale_values(translate(make_ball_indicator(3, 0.5), [0.1, 0.0, -0.2]),
                 -3.0),
])


def _coordinate_major(x):
    """The values of x, stored with the second-to-last axis contiguous."""
    store = np.empty(x.shape[:-2] + (x.shape[-1], x.shape[-2]))
    store[...] = np.swapaxes(x, -1, -2)
    y = np.swapaxes(store, -1, -2)
    assert np.array_equal(y, x) and y.strides[-1] > y.strides[-2]
    return y


def _same_bits(a, b):
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(f=st.sampled_from(LAYOUT_ENTRIES),
       rows=st.integers(1, 4), n=st.integers(2, 40),
       scale=st.floats(0.1, 2.0), seed=st.integers(0, 2 ** 16))
@settings(max_examples=200, deadline=None)
def test_catalog_is_layout_independent(f, rows, n, scale, seed):
    # eval, grad and flat_radius give the same bits on a coordinate-major
    # view as on the contiguous copy of the same points
    x = scale * stream(seed, 71).uniform(-1.5, 1.5, size=(rows, n, f.dim))
    view = _coordinate_major(x)
    assert _same_bits(f.eval(view), f.eval(x)), f.function_id
    if f.grad is not None:
        assert _same_bits(f.grad(view), f.grad(x)), f.function_id
    if f.flat_radius is not None:
        assert _same_bits(f.flat_radius(view), f.flat_radius(x)), f.function_id


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("amp, ri, ro", [(1.0, 0.5, 1.0), (-2.5, 0.3, 1.7)])
def test_plateau_eval_matches_its_formula_bit_for_bit(d, amp, ri, ro):
    # eval works in place; these are the plain operations in the same order
    f = make_plateau_bump(d, amp, ri, ro)
    x = stream(d, 72).uniform(-1.2 * ro, 1.2 * ro, size=(3, 50, d))
    x[0, :4] = 0.0
    x[0, 0, 0], x[0, 1, 0], x[0, 2, 0] = ri, ro, -ri
    rho = np.sqrt(sum(x[..., k] * x[..., k] for k in range(d)))
    s = np.minimum(np.maximum((rho - ri) / (ro - ri), 0.0), 1.0)
    u = 1.0 - s
    expect = amp * (((6.0 * s + 3.0) * s + 1.0) * u * u * u)
    assert _same_bits(f.eval(x), expect)
    one = f.eval(x[0, 5])
    assert type(one) is np.float64 and one == expect[0, 5]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_transforms_refuse_a_parameter_that_is_not_finite(value):
    # each transform refuses it where it enters, before an entry with a
    # NaN or infinite certificate can reach a kernel
    for f in (make_plateau_bump(1, 1.0, 0.5, 1.0),
              make_ball_indicator(2, 0.5)):
        with pytest.raises(ValueError, match="dilation factor must be "
                                             "finite and positive"):
            dilate(f, value)
        with pytest.raises(ValueError, match="value scale must be finite"):
            scale_values(f, value)
        shift = np.zeros(f.dim)
        shift[-1] = value
        with pytest.raises(ValueError, match="shift must be finite"):
            translate(f, shift)


@pytest.mark.parametrize("field,value", [
    ("support_radius", math.nan), ("support_radius", math.inf),
    ("support_radius", 0.0), ("grad_lipschitz", math.nan),
    ("grad_lipschitz", math.inf), ("grad_lipschitz", -1.0)])
def test_entries_refuse_a_certificate_that_is_not_finite(field, value):
    f = make_plateau_bump(1, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        dataclasses.replace(f, **{field: value})
