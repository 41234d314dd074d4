"""Seeded quadrature: exactness, uniform law, error honesty, determinism."""

import numpy as np
import pytest

from osclab import (
    BallSample,
    QuadratureError,
    QuadratureSpec,
    ball_average,
    gauss_rule,
    sample_ball_uniform,
    stream,
    unit_ball_nodes,
    unit_ball_volume,
)


def test_gauss_rule_polynomial_exactness():
    # an n-point rule integrates degree <= 2n - 1 exactly on [-1, 1]
    for n in (2, 5, 8, 12):
        x, w = gauss_rule(n)
        for k in range(2 * n):
            got = float(w @ x**k)
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(got - exact) <= 1e-12, (n, k)


def test_gauss_rule_weights_positive_sum_two():
    x, w = gauss_rule(16)
    assert np.all(w > 0)
    assert abs(w.sum() - 2.0) <= 1e-14
    assert np.all(np.diff(x) > 0)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 64, 200])
def test_gauss_rule_matches_scipy_roots_legendre(n):
    # scipy's generator is the oracle; the weights differ mostly at the
    # ends, where 1 - x^2 is small and scipy is the less accurate of the two
    from scipy.special import roots_legendre
    x, w = gauss_rule(n)
    xs, ws = roots_legendre(n)
    assert np.max(np.abs(x - xs)) <= 4e-16
    assert np.max(np.abs(w - ws) / ws) <= 1e-10


def test_gauss_rule_exact_to_degree_2n_minus_1_and_symmetric():
    for n in range(1, 13):
        x, w = gauss_rule(n)
        assert x.shape == w.shape == (n,)
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(w @ x**k) - exact) <= 4e-15, (n, k)


def test_gauss_rule_integrates_exp_at_high_order():
    x, w = gauss_rule(4096)
    exact = np.e - 1.0 / np.e
    assert abs(float(w @ np.exp(x)) - exact) <= 1e-15 * exact


def test_stream_deterministic_and_key_separated():
    a = stream(123, 0, 5).standard_normal(8)
    b = stream(123, 0, 5).standard_normal(8)
    c = stream(123, 0, 6).standard_normal(8)
    d = stream(124, 0, 5).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_ball_uniform_inside_and_deterministic():
    ball = BallSample(center=np.array([1.0, -2.0]), radius=1.5)
    pts1 = sample_ball_uniform(ball, 4096, seed=11)
    pts2 = sample_ball_uniform(ball, 4096, seed=11)
    np.testing.assert_array_equal(pts1, pts2)
    rad = np.linalg.norm(pts1 - ball.center, axis=-1)
    assert rad.max() <= ball.radius * (1 + 1e-12)


def test_sample_ball_uniform_law_radial_moment():
    # in d = 2 the squared normalized radius of a uniform point has mean 1/2
    ball = BallSample(center=np.zeros(2), radius=2.0)
    pts = sample_ball_uniform(ball, 200_000, seed=5)
    u2 = np.sum((pts / ball.radius) ** 2, axis=-1)
    se = u2.std(ddof=1) / np.sqrt(u2.size)
    assert abs(u2.mean() - 0.5) <= 4 * se


def test_sample_ball_uniform_law_halfspace():
    # each half of the ball receives half the points
    ball = BallSample(center=np.zeros(1), radius=3.0)
    pts = sample_ball_uniform(ball, 100_000, seed=6)
    frac = float(np.mean(pts[:, 0] > 0))
    se = 0.5 / np.sqrt(pts.shape[0])
    assert abs(frac - 0.5) <= 4 * se


def test_unit_ball_nodes_shape_and_norm():
    rng = stream(42, 9)
    pts = unit_ball_nodes(3, 1000, rng)
    assert pts.shape == (1000, 3)
    assert np.linalg.norm(pts, axis=-1).max() <= 1 + 1e-12


def test_ball_average_gauss_exact_linear():
    f = lambda x: 3.0 * x[..., 0] + 1.0
    ball = BallSample(center=np.array([0.25]), radius=0.5)
    spec = QuadratureSpec(method="gauss_1d", node_count=8, seed=0)
    est = ball_average(f, ball, spec)
    assert est.std_error == 0.0
    assert abs(est.value - (3.0 * 0.25 + 1.0)) <= 1e-14


def test_ball_average_gauss_calls_g_on_point_rows():
    # g receives (n, 1) points, as in the Monte Carlo branch
    def g(x):
        assert x.ndim == 2 and x.shape[1] == 1, x.shape
        return x[:, 0] ** 2

    ball = BallSample(center=np.array([0.5]), radius=0.5)
    spec = QuadratureSpec(method="gauss_1d", node_count=8, seed=0)
    est = ball_average(g, ball, spec, breakpoints=(0.25,))
    assert abs(est.value - 1.0 / 3.0) <= 1e-14


def test_ball_average_gauss_divides_by_the_integrated_width():
    # at a = 3, r = 1e-9 the rounded width (a + r) - (a - r) is not 2 r;
    # the average of the constant 1 over it must still read exactly 1
    ball = BallSample(center=np.array([3.0]), radius=1e-9)
    spec = QuadratureSpec(method="gauss_1d", node_count=8, seed=0)
    assert ball_average(lambda x: np.ones(x.shape[0]), ball, spec).value == 1.0


def test_ball_average_breakpoints_make_kinks_exact():
    # average of an indicator over an interval straddling its jump
    b = 0.2
    f = lambda x: (x[..., 0] < b).astype(float)
    ball = BallSample(center=np.array([0.0]), radius=1.0)
    spec = QuadratureSpec(method="gauss_1d", node_count=8, seed=0)
    est = ball_average(f, ball, spec, breakpoints=(b,))
    assert abs(est.value - (b - (-1.0)) / 2.0) <= 1e-14


def test_ball_average_monte_carlo_error_honesty():
    # |x - a| over a radius-2 interval has mean r/2 = 1; the reported
    # standard error must cover the true error at the 4 sigma level for
    # at least 95 percent of independent seeds
    ball = BallSample(center=np.array([0.7]), radius=2.0)
    f = lambda x: np.abs(x[..., 0] - 0.7)
    hits = 0
    trials = 300
    for s in range(trials):
        spec = QuadratureSpec(method="monte_carlo", node_count=512, seed=s)
        est = ball_average(f, ball, spec)
        assert est.std_error > 0
        if abs(est.value - 1.0) <= 4 * est.std_error:
            hits += 1
    assert hits >= 0.95 * trials, f"{hits}/{trials} inside 4 sigma"


def test_ball_average_antithetic_kills_odd_part():
    # antithetic pairing integrates odd functions about the center exactly
    ball = BallSample(center=np.array([0.3, -0.1]), radius=1.0)
    f = lambda x: 5.0 + (x[..., 0] - 0.3) ** 3
    spec = QuadratureSpec(method="monte_carlo", node_count=2048, seed=3)
    est = ball_average(f, ball, spec, antithetic=True)
    assert abs(est.value - 5.0) <= 1e-12


def test_ball_average_rejects_non_finite():
    ball = BallSample(center=np.zeros(1), radius=1.0)
    spec = QuadratureSpec(method="gauss_1d", node_count=8, seed=0)
    with pytest.raises(QuadratureError):
        ball_average(lambda x: np.full(x.shape[:-1], np.nan), ball, spec)


def test_ball_average_deterministic_across_calls():
    ball = BallSample(center=np.array([0.1, 0.2, 0.3]), radius=0.7)
    f = lambda x: np.sin(x).sum(axis=-1)
    spec = QuadratureSpec(method="monte_carlo", node_count=4096, seed=17)
    e1 = ball_average(f, ball, spec)
    e2 = ball_average(f, ball, spec)
    assert e1.value == e2.value and e1.std_error == e2.std_error


def test_unit_ball_volume_closed_forms():
    assert abs(unit_ball_volume(1) - 2.0) <= 1e-12
    assert abs(unit_ball_volume(2) - np.pi) <= 1e-12
    assert abs(unit_ball_volume(3) - 4.0 * np.pi / 3.0) <= 1e-12
