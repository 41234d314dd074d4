"""The exact radial rule and the batched single-ball entries,
ball_estimates and gradient_averages."""

import dataclasses

import numpy as np
import pytest

from osclab import (BallSample, QuadratureError, QuadratureSpec,
                    UnsupportedFunctionError, dilate, make_linear,
                    make_plateau_bump, maximal_gradient, mean_oscillation,
                    pair_oscillation, parse_function_id, q_oscillation,
                    scale_values, stream, translate)
from osclab import catalog
from osclab.oscillation import (RADIAL_ORDER, ball_estimates,
                                gradient_averages)

EPS = np.finfo(float).eps
RADIAL = QuadratureSpec("radial", RADIAL_ORDER, 0)


def _images(f):
    """f and its translate, dilate (x0.01, x30) and scale_values images,
    with the length scale and the value factor of each."""
    return [(f, 1.0, 1.0),
            (translate(f, np.linspace(0.37, -0.21, f.dim)), 1.0, 1.0),
            (dilate(f, 0.01), 0.01, 1.0),
            (dilate(f, 30.0), 30.0, 1.0),
            (scale_values(f, -3.3), 1.0, -3.3)]


BASES = [make_plateau_bump(2, 1.0, 0.5, 1.0),
         make_plateau_bump(3, 1.0, 0.5, 1.0),
         parse_function_id("indicator:d=2:r=0.5:c=0.3,0")]
ENTRIES = [image for f in BASES for image in _images(f)]
IDS = [image[0].function_id for image in ENTRIES]


def _balls(f, scale, count, seed):
    """count random balls around f's radial centre (the origin for an
    entry without one): centres uniform in a cube of side 3 scale, radii
    log-uniform in [1e-3, 3] scale."""
    rng = stream(seed, 0)
    middle = np.zeros(f.dim) if f.radial is None else f.radial.center
    centers = middle + scale * rng.uniform(-1.5, 1.5, size=(count, f.dim))
    radii = scale * np.exp(rng.uniform(np.log(1e-3), np.log(3.0), count))
    return centers, radii


def _uncapped(f):
    """f without the radial degree certificate, so that a radial spec's
    node_count is its Gauss order in d = 3 as well."""
    return dataclasses.replace(
        f, radial=dataclasses.replace(f.radial, degree=None))


@pytest.mark.parametrize("f, scale, lam", ENTRIES, ids=IDS)
def test_radial_rule_matches_an_order_64_rule(f, scale, lam):
    # m and the ball average of |grad f| at RADIAL_ORDER (d = 2) or at the
    # degree's exact order (d = 3) against the 64-point rule without the
    # certificate.  Relative 1e-12, with a floor of 16 eps of the values'
    # scale: m is formed from f - mu, and mu carries a rounding of a few
    # eps |f| that no order removes (m near 1e-8 of |f| misses any rule
    # by 1e-8 relative)
    centers, radii = _balls(f, scale, 200, 1)
    # and 60 balls whose boundary passes within 1e-10 to 1e-2 of r of the
    # centre, where the sphere measure's zeros |t - r| and t + r part
    # a tiny full region (or gap) from the rest
    rng = stream(5, 0)
    direction = rng.normal(size=(60, f.dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    near_r = scale * np.exp(rng.uniform(np.log(0.05), np.log(3.0), 60))
    near_t = near_r * (1.0 + rng.choice([-1.0, 1.0], 60)
                       * 10.0 ** rng.uniform(-10.0, -2.0, 60))
    centers = np.concatenate(
        [centers, f.radial.center + direction * near_t[:, None]])
    radii = np.concatenate([radii, near_r])
    fine = QuadratureSpec("radial", 64, 0)
    est = ball_estimates(f, centers, radii, RADIAL)
    ref = ball_estimates(_uncapped(f), centers, radii, fine)
    size = abs(lam)
    assert np.all(est.std_error == 0.0)
    assert np.all(np.abs(est.value - ref.value)
                  <= 1e-12 * ref.value + 16 * EPS * size)
    assert np.any(est.value > 0.1 * size)
    if f.grad is not None:
        gmax = f.grad_max
        got = gradient_averages(f, centers, radii, RADIAL)
        want = gradient_averages(_uncapped(f), centers, radii, fine)
        assert np.all(np.abs(got - want) <= 1e-12 * want + 16 * EPS * gmax)
        assert np.any(got > 0.1 * gmax)


def _lens_share(d, big, small, t):
    """|B_big(0) & B_small(x)| / |B_small| with |x| = t, in closed form:
    the circle-circle lens area in d = 2, the sphere-sphere lens volume
    in d = 3."""
    if t >= big + small:
        return 0.0
    if t <= abs(big - small):
        return min(1.0, (big / small) ** d)
    if d == 2:
        area = (big ** 2 * np.arccos((t * t + big ** 2 - small ** 2)
                                     / (2 * t * big))
                + small ** 2 * np.arccos((t * t + small ** 2 - big ** 2)
                                         / (2 * t * small))
                - 0.5 * np.sqrt((-t + big + small) * (t + big - small)
                                * (t - big + small) * (t + big + small)))
        return area / (np.pi * small ** 2)
    volume = (np.pi * (big + small - t) ** 2
              * (t * t + 2 * t * small - 3 * small ** 2 + 2 * t * big
                 + 6 * small * big - 3 * big ** 2) / (12 * t))
    return volume / (4.0 / 3.0 * np.pi * small ** 3)


@pytest.mark.parametrize("d", [2, 3])
def test_radial_rule_matches_the_lens_closed_form(d):
    # f the indicator of B_R(c) takes the values 0 and 1, so its mean on a
    # ball is the share s of the ball inside B_R(c), and m = 2 s (1 - s):
    # the lens formulas check the sphere measure of either dimension
    # against a route that shares nothing with it
    f = catalog.make_ball_indicator(d, 0.7, center=np.full(d, 0.2))
    centers, radii = _balls(f, 1.0, 300, 8)
    m = ball_estimates(f, centers, radii, RADIAL).value
    for a, r, got in zip(centers, radii, m):
        share = _lens_share(d, 0.7, r, np.linalg.norm(a - f.radial.center))
        assert abs(got - 2.0 * share * (1.0 - share)) <= 1e-12, (a, r)


def test_radial_rule_agrees_with_monte_carlo():
    # the 16384-node Monte Carlo rule is unbiased to first order and
    # reports its standard error: over every entry and image (each with
    # node sets of its own), |z| <= 2 on a share of the balls consistent
    # with 95 % (three binomial sigmas), and no |z| is above 5.  On a ball
    # where the Monte Carlo m is rounding only, below 1e-14 of the values'
    # scale (off the support, or in the core), std_error is the rounding's
    # spread and z has no meaning; the exact m must be rounding there too
    z = []
    for k, (f, scale, lam) in enumerate(ENTRIES):
        centers, radii = _balls(f, scale, 50, 2)
        exact = ball_estimates(f, centers, radii, RADIAL).value
        est = ball_estimates(f, centers, radii,
                             QuadratureSpec("monte_carlo", 16384, 7 + k))
        varies = est.value > 1e-14 * abs(lam)
        assert np.all(exact[~varies] <= 1e-15 * abs(lam)), f.function_id
        z += list((exact[varies] - est.value[varies])
                  / est.std_error[varies])
    z = np.abs(np.array(z))
    share = np.mean(z <= 2.0)
    assert z.size > 300
    assert share >= 0.95 - 3.0 * np.sqrt(0.95 * 0.05 / z.size), share
    assert np.max(z) <= 5.0


@pytest.mark.parametrize("f, scale, lam", ENTRIES, ids=IDS)
def test_radial_rule_reads_zero_off_the_support_and_in_the_core(
        f, scale, lam):
    # past the last radial breakpoint f is 0 on every piece, so m is
    # exactly 0; inside the first, the core, f is the constant A, and m is
    # A's rounding through mu: at most 1e-15 |A|
    core, edge = f.radial.breakpoints[0], f.radial.breakpoints[-1]
    rng = stream(3, 0)
    direction = rng.normal(size=(40, f.dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    far_r = scale * np.exp(rng.uniform(np.log(1e-3), np.log(3.0), 40))
    gap = scale * rng.uniform(1e-3, 2.0, 40)
    far = f.radial.center + direction * (edge + far_r + gap)[:, None]
    off = ball_estimates(f, far, far_r, RADIAL)
    assert np.all(off.value == 0.0)
    in_r = core * rng.uniform(1e-3, 0.5, 40)
    near = f.radial.center + direction * (
        (core - in_r) * rng.uniform(0.0, 0.999, 40))[:, None]
    inner = ball_estimates(f, near, in_r, RADIAL)
    assert np.all(inner.value <= 1e-15 * abs(lam))
    if f.grad is not None:
        assert np.all(gradient_averages(f, near, in_r, RADIAL) == 0.0)


@pytest.mark.parametrize("f", BASES, ids=[f.function_id for f in BASES])
@pytest.mark.parametrize("lam, s", [(-3.3, 0.01), (2.0, 30.0), (0.7, 1.7)])
def test_radial_rule_is_covariant(f, lam, s):
    # m of lam f(. / s) on B_{s r}(s a) is |lam| m_f(a, r); the rule
    # meets it to 1e-13 of the values' scale |lam| max|f| (mu's rounding
    # is absolute, so a plain relative bound would fail on small m)
    centers, radii = _balls(f, 1.0, 200, 4)
    m = ball_estimates(f, centers, radii, RADIAL).value
    g = scale_values(dilate(f, s), lam)
    got = ball_estimates(g, s * centers, s * radii, RADIAL).value
    assert np.all(np.abs(got - abs(lam) * m) <= 1e-13 * abs(lam))


def test_radial_rule_refuses_a_stale_profile():
    # an eval replaced without its certificate fails the probe that
    # centre_nodes takes, before any integral: at the ball centres, and on
    # a ray through the pieces, so also for balls centred off the support,
    # where the stale and the true eval agree
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    stale = dataclasses.replace(f, eval=lambda x: 2.0 * f.eval(x))
    for a in ([0.1, 0.2], [1.5, 0.0]):
        ball = BallSample(np.array(a), 1.0)
        for rule in (mean_oscillation, maximal_gradient):
            with pytest.raises(UnsupportedFunctionError,
                               match="does not reproduce"):
                rule(stale, ball, RADIAL)
    ball = BallSample(np.array([0.1, 0.2]), 0.3)
    # a Radial without breakpoints, and an entry without Radial, have no
    # pieces in rho to split at
    bare = dataclasses.replace(
        f, radial=catalog.Radial(f.radial.center, f.radial.profile))
    for g in (bare, make_linear(2, [1.0, 0.5])):
        with pytest.raises(UnsupportedFunctionError, match="breakpoints"):
            mean_oscillation(g, ball, RADIAL)


def test_radial_rule_refuses_what_it_does_not_compute():
    ball = BallSample(np.array([0.1, 0.2]), 0.3)
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    with pytest.raises(QuadratureError, match="q = 1"):
        q_oscillation(f, ball, 2.0, RADIAL)
    with pytest.raises(QuadratureError, match="Monte Carlo"):
        pair_oscillation(f, ball, 1.0, RADIAL)
    for d in (1, 4):
        g = make_plateau_bump(d, 1.0, 0.5, 1.0)
        with pytest.raises(QuadratureError, match="radial applies"):
            mean_oscillation(g, BallSample(np.full(d, 0.1), 0.3), RADIAL)


_BITS_CASES = [
    (make_plateau_bump(1, 1.0, 0.5, 1.0), QuadratureSpec("gauss_1d", 8)),
    (make_linear(1, [1.5]), QuadratureSpec("gauss_1d", 8)),
    (make_plateau_bump(2, 1.0, 0.5, 1.0),
     QuadratureSpec("monte_carlo", 256, 5)),
    (make_plateau_bump(3, 1.0, 0.5, 1.0), RADIAL),
    (make_plateau_bump(2, 1.0, 0.5, 1.0), RADIAL),
]


@pytest.mark.parametrize("f, spec", _BITS_CASES,
                         ids=[f"{f.function_id}-{s.method}"
                              for f, s in _BITS_CASES])
def test_ball_estimates_keeps_the_bits_of_each_ball(f, spec):
    # one batched call of each entry returns, ball for ball, the bits
    # that the single-ball rules return under the same spec, and the
    # gradient averages do not depend on an oscillation call before them
    centers, radii = _balls(f, 1.0, 40, 6)
    est = ball_estimates(f, centers, radii, spec)
    gradient = gradient_averages(f, centers, radii, spec)
    for i, (a, r) in enumerate(zip(centers, radii)):
        one = mean_oscillation(f, BallSample(a, r), spec)
        assert (est.value[i], est.std_error[i]) == (one.value, one.std_error)
        assert gradient[i] == maximal_gradient(f, BallSample(a, r), spec)
    assert set(vars(est)) == {"value", "std_error"}
    alone = gradient_averages(f, centers, radii, spec)
    assert np.array_equal(alone, gradient)


def test_ball_estimates_refuses_mismatched_balls():
    f = make_plateau_bump(2, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError, match="shape"):
        ball_estimates(f, np.zeros((3, 2)), np.ones(2), RADIAL)
    with pytest.raises(ValueError, match="does not match function dimension"):
        ball_estimates(f, np.zeros((3, 3)), np.ones(3), RADIAL)
    with pytest.raises(QuadratureError, match="finite and positive"):
        ball_estimates(f, np.zeros((2, 2)), np.array([0.5, 0.0]), RADIAL)
