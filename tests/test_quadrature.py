"""Seeded quadrature: exactness, uniform law, determinism."""

import numpy as np
import pytest

from osclab import gauss_rule, stream, unit_ball_nodes, unit_ball_volume
from osclab.quadrature import segment_edges, segment_mean


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


def test_unit_ball_nodes_shape_and_norm():
    rng = stream(42, 9)
    pts = unit_ball_nodes(3, 1000, rng)
    assert pts.shape == (1000, 3)
    assert np.linalg.norm(pts, axis=-1).max() <= 1 + 1e-12


def test_unit_ball_nodes_deterministic_in_the_seed():
    pts1 = unit_ball_nodes(2, 4096, stream(11, 0))
    pts2 = unit_ball_nodes(2, 4096, stream(11, 0))
    np.testing.assert_array_equal(pts1, pts2)
    assert not np.array_equal(pts1, unit_ball_nodes(2, 4096, stream(12, 0)))


def test_unit_ball_nodes_law_radial_moment():
    # in d = 2 the squared radius of a uniform point has mean 1/2
    pts = unit_ball_nodes(2, 200_000, stream(5, 0))
    u2 = np.sum(pts ** 2, axis=-1)
    se = u2.std(ddof=1) / np.sqrt(u2.size)
    assert abs(u2.mean() - 0.5) <= 4 * se


def test_unit_ball_nodes_law_halfspace():
    # each half of the ball receives half the points
    pts = unit_ball_nodes(1, 100_000, stream(6, 0))
    frac = float(np.mean(pts[:, 0] > 0))
    se = 0.5 / np.sqrt(pts.shape[0])
    assert abs(frac - 0.5) <= 4 * se


def test_segment_mean_exact_linear():
    f = lambda x: 3.0 * x + 1.0
    mean = segment_mean(f, segment_edges((), -0.25, 0.75), 8)
    assert abs(mean - (3.0 * 0.25 + 1.0)) <= 1e-14


def test_segment_mean_breakpoints_make_kinks_exact():
    # average of an indicator over an interval straddling its jump
    b = 0.2
    f = lambda x: (x < b).astype(float)
    mean = segment_mean(f, segment_edges((b,), -1.0, 1.0), 8)
    assert abs(mean - (b - (-1.0)) / 2.0) <= 1e-14


def test_unit_ball_volume_closed_forms():
    assert abs(unit_ball_volume(1) - 2.0) <= 1e-12
    assert abs(unit_ball_volume(2) - np.pi) <= 1e-12
    assert abs(unit_ball_volume(3) - 4.0 * np.pi / 3.0) <= 1e-12
