"""Seeded quadrature: exactness, uniform law, determinism."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab import (QuadratureError, QuadratureSpec, gauss_rule,
                    make_plateau_bump, oscillation, stream, unit_ball_nodes,
                    unit_ball_volume)
from osclab import quadrature
from osclab.quadrature import segment_edges, segment_integrals, segment_mean


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


@pytest.mark.parametrize("n", [2.5, 8.9, float("nan"), float("inf"), "8"])
def test_gauss_rule_refuses_an_order_that_is_not_integral(n):
    # int() would truncate 2.5 to the order-2 rule
    with pytest.raises(QuadratureError,
                       match="Gauss order must be an integer"):
        gauss_rule(n)


@pytest.mark.parametrize("n", [0, -3, np.int64(0)])
def test_gauss_rule_refuses_an_order_below_one(n):
    with pytest.raises(QuadratureError, match="Gauss order must be at least 1"):
        gauss_rule(n)


def test_gauss_rule_takes_numpy_integers_and_whole_floats():
    want = gauss_rule(8)
    for n in (np.int64(8), np.int32(8), np.uint8(8), 8.0):
        got = gauss_rule(n)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


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


# ---------------------------------------------------------------------------
# the segment rule skips zero-width segments without moving a bit
# ---------------------------------------------------------------------------

PLATEAU_1D = make_plateau_bump(1, 1.0, 0.5, 1.0)


def _fixed_order_sum(vals, w):
    # w[0] v[0] + w[1] v[1] + ... over the last axis, added first to last
    total = vals[..., 0] * w[0]
    for j in range(1, w.size):
        total = total + vals[..., j] * w[j]
    return total


def _dense_segment_integrals(g, edges, n):
    # the rule as it reads with every segment evaluated, dead ones included
    t, w = gauss_rule(n)
    lo = edges[..., :-1]
    hi = edges[..., 1:]
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[..., None] + half[..., None] * t
    return half * _fixed_order_sum(g(x), w)


def _has_dead_segments(edges):
    return bool(np.any(edges[..., 1:] == edges[..., :-1]))


# balls inside the core, straddling ri and ro, outside the support and
# covering all of it: each keeps some clipped, zero-width segments
_A = np.array([0.0, 0.5, -0.45, 0.9, 1.7, 0.2, -0.8, 0.05])
_R = np.array([0.2, 0.2, 0.3, 0.25, 0.4, 3.0, 0.05, 1.0])


def test_segment_integrals_match_the_dense_rule_on_a_scalar_ball():
    fev = PLATEAU_1D.eval_1d
    edges = segment_edges(PLATEAU_1D.breakpoints_1d, 0.5 - 0.2, 0.5 + 0.2)
    assert edges.shape == (6,) and _has_dead_segments(edges)
    for n in (2, 8, 13):
        assert np.array_equal(segment_integrals(fev, edges, n),
                              _dense_segment_integrals(fev, edges, n))


def test_segment_integrals_match_the_dense_rule_on_a_batch_of_balls():
    fev = PLATEAU_1D.eval_1d
    edges = segment_edges(PLATEAU_1D.breakpoints_1d, _A - _R, _A + _R)
    assert edges.shape == (_A.size, 6) and _has_dead_segments(edges)
    assert np.array_equal(segment_integrals(fev, edges, 8),
                          _dense_segment_integrals(fev, edges, 8))
    # and a (2, N) stack of the same balls, as the curve engine's blocks
    stacked = np.stack([edges, edges[::-1]])
    assert np.array_equal(segment_integrals(fev, stacked, 8),
                          _dense_segment_integrals(fev, stacked, 8))
    # and enough balls to reach the column-by-column sum
    many = np.tile(edges, (60, 1))
    live = np.count_nonzero(many[:, 1:] > many[:, :-1])
    assert live >= quadrature._COLUMN_SUM_FROM
    assert np.array_equal(segment_integrals(fev, many, 8),
                          _dense_segment_integrals(fev, many, 8))


def _refined_batch():
    fev = PLATEAU_1D.eval_1d
    edges = segment_edges(PLATEAU_1D.breakpoints_1d, _A - _R, _A + _R)
    mu = segment_mean(fev, edges, 8)
    segs = oscillation._live_segments(PLATEAU_1D.breakpoints_1d, _A - _R,
                                      _A + _R)
    root, _, _ = oscillation._segment_roots(fev, segs, mu)
    # each live segment's root, or its right end, between its two edges in
    # the (N, 2K+3) layout; the flat list holds the live segments,
    # np.flatnonzero(hi > lo), in order
    full = edges[:, 1:].copy()
    live = np.flatnonzero(full > edges[:, :-1])
    assert live.size == root.size
    full.reshape(-1)[live] = root
    refined = np.empty((_A.size, 2 * edges.shape[1] - 1))
    refined[:, 0::2] = edges
    refined[:, 1::2] = full
    assert _has_dead_segments(refined)
    return fev, refined, mu


def test_segment_integrals_with_an_arg_match_the_dense_rule():
    # the q = 1 deviation integral: mu is indexed like the balls
    fev, refined, mu = _refined_batch()
    got = segment_integrals(lambda x, m: fev(x) - m, refined, 8, mu)
    want = _dense_segment_integrals(lambda x: fev(x) - mu[:, None, None],
                                    refined, 8)
    assert np.array_equal(got, want)


def test_segment_integrals_on_graded_sub_panels_match_the_dense_rule():
    # the q != 1 route: (N, S, G) sub-panels, the arg still indexed by ball
    fev, refined, mu = _refined_batch()
    frac = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, 9)))
    lo = refined[..., :-1]
    hi = refined[..., 1:]
    sub = lo[..., None] + (hi - lo)[..., None] * frac
    assert sub.shape == (_A.size, 10, 9) and _has_dead_segments(sub)
    q = 2.5
    got = segment_integrals(lambda x, m: np.abs(fev(x) - m) ** q, sub, 8, mu)
    want = _dense_segment_integrals(
        lambda x: np.abs(fev(x) - mu[:, None, None, None]) ** q, sub, 8)
    assert np.array_equal(got, want)


def test_segment_integrals_broadcast_a_column_arg_per_row():
    # mollify_1d's call: points y of shape (P, 1), one window row each
    fev = PLATEAU_1D.eval_1d
    y = np.linspace(-1.3, 1.3, 11)[:, None]
    t = 0.3
    cols = [np.full_like(y, -t)]
    cols += [np.clip(y - b, -t, t) for b in PLATEAU_1D.breakpoints_1d]
    cols.append(np.full_like(y, t))
    edges = np.sort(np.concatenate(cols, axis=-1), axis=-1)
    assert _has_dead_segments(edges)
    got = segment_integrals(lambda z, p: np.cos(z) * fev(p - z), edges, 12, y)
    want = _dense_segment_integrals(
        lambda z: np.cos(z) * fev(y[..., None] - z), edges, 12)
    assert np.array_equal(got, want)


def _padded_row(row, width):
    # row's edges, padded to width by repeating its last edge
    return np.pad(row, (0, width - row.size), mode="edge")


def test_segment_integrals_of_a_row_padded_by_its_last_edge_keep_their_bits():
    # ragged rows stacked into one call, each padded by repeating its last
    # edge, as the mollification suite stacks its cases: the padding adds
    # zero-width segments worth exactly 0, and every row keeps the bits it
    # has alone, sums included, whatever its segment count.  The batch has
    # enough live segments for the column sum, each row alone too few.
    rng = np.random.default_rng(5)
    fev = PLATEAU_1D.eval_1d
    rows = [np.sort(rng.uniform(-1.3, 1.3, size=n + 1))
            for n in (4, 12, 24, 48, 1, 3, 15, 37, 160)]
    assert (sum(row.size - 1 for row in rows) >= quadrature._COLUMN_SUM_FROM
            > max(row.size - 1 for row in rows))
    width = max(row.size for row in rows)
    padded = np.stack([_padded_row(row, width) for row in rows])
    shift = rng.uniform(-0.2, 0.2, size=len(rows))
    got = segment_integrals(lambda x, c: fev(x - c), padded, 8, shift)
    for i, row in enumerate(rows):
        alone = segment_integrals(lambda x: fev(x - shift[i]), row, 8)
        own = got[i, :row.size - 1]
        assert np.all(got[i, row.size - 1:] == 0.0)
        assert own.tobytes() == alone.tobytes(), row.size - 1
        assert own.sum() == alone.sum()


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 8, 12, 13]),
       counts=st.lists(st.integers(1, 40), min_size=1, max_size=9),
       pick=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_a_segment_integral_does_not_depend_on_its_batch(n, counts, pick,
                                                          seed):
    # any row, stacked at any position among random rows and padded by its
    # last edge, has the bits of its own call, segment by segment
    rng = np.random.default_rng(seed)
    fev = PLATEAU_1D.eval_1d
    rows = [np.sort(rng.uniform(-1.3, 1.3, size=k + 1)) for k in counts]
    pick %= len(rows)
    width = max(row.size for row in rows)
    padded = np.stack([_padded_row(row, width) for row in rows])
    shift = rng.uniform(-0.2, 0.2, size=len(rows))
    got = segment_integrals(lambda x, c: np.cos(3.0 * x) + fev(x - c),
                            padded, n, shift)
    row = rows[pick]
    alone = segment_integrals(lambda x: np.cos(3.0 * x) + fev(x - shift[pick]),
                              row, n)
    assert got[pick, :row.size - 1].tobytes() == alone.tobytes()
    assert np.all(got[pick, row.size - 1:] == 0.0)


def test_segment_integrals_call_g_on_live_segments_only():
    calls = []

    def g(x, m):
        calls.append((x.shape, m.shape))
        return x + m

    edges = np.array([[0.0, 0.0, 1.0, 1.0], [2.0, 2.5, 2.5, 3.0]])
    out = segment_integrals(g, edges, 4, np.array([10.0, 20.0]))
    assert calls == [((3, 4), (3, 1))]
    assert out[0, 0] == out[0, 2] == out[1, 1] == 0.0
    assert abs(out[0, 1] - 10.5) <= 1e-14
    assert abs(out[1, 0] - 0.5 * 22.25) <= 1e-13


def test_weight_sums_in_the_fixed_order_as_segment_mean_states():
    # one segment [-1, 1] of g = 1 integrates to the weights' sum, added
    # first to last: exactly 2 at order 8 (and 1), within 6 units of 2^-53
    # relative at every order 1-64
    for n in range(1, 65):
        total = segment_integrals(lambda x: np.ones_like(x),
                                  np.array([-1.0, 1.0]), n)[0]
        assert abs(total - 2.0) / 2.0 <= 6 * 2.0 ** -53, n
        if n in (1, 8):
            assert total == 2.0, n


def test_order_8_gives_a_constant_its_value_as_mean_across_breakpoints():
    # the fact the skip certificate of weaknorm relies on: dyadic balls,
    # most of them straddling some of the plateau's breakpoints, so their
    # segment widths add up to the width exactly
    a = np.repeat(np.arange(-80, 81) / 64.0, 40)
    r = np.tile(np.arange(1, 41) / 32.0, 161)
    edges = segment_edges(PLATEAU_1D.breakpoints_1d, a - r, a + r)
    inside = (edges[:, 1:-1] > edges[:, :1]) & (edges[:, 1:-1] < edges[:, -1:])
    assert inside.any(axis=1).mean() > 0.8 and inside.sum(axis=1).max() == 4
    for c in (1.0, -1.0, 0.5, 0.75, 3.0, 0.0):
        mean = segment_mean(lambda x: np.full_like(x, c), edges, 8)
        assert np.all(mean == c), c
    for c in (0.7, 0.3, np.pi):
        mean = segment_mean(lambda x: np.full_like(x, c), edges, 8)
        assert np.max(np.abs(mean - c)) <= 2 * np.spacing(c), c


def test_segment_mean_refuses_a_zero_width_interval():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="zero width"):
            segment_mean(lambda x: x, segment_edges((), 3.0 - 1e-17,
                                                    3.0 + 1e-17), 8)
        with pytest.raises(QuadratureError, match="zero width"):
            segment_mean(lambda x: x,
                         segment_edges((), np.array([0.0, 3.0 - 1e-17]),
                                       np.array([1.0, 3.0 + 1e-17])), 8)


@pytest.mark.parametrize("kwargs", [
    {"node_count": 8.9}, {"node_count": float("nan")},
    {"node_count": float("inf")}, {"node_count": "8"},
    {"seed": 1.7}, {"seed": None}, {"seed": "1"},
])
def test_spec_refuses_a_count_or_seed_that_is_not_integral(kwargs):
    # int() would truncate 8.9 to order 8 and seed 1.7 to 1
    with pytest.raises(QuadratureError, match="must be an integer"):
        QuadratureSpec("gauss_1d", **{"node_count": 8, "seed": 1, **kwargs})


def test_spec_keeps_integral_counts_and_seeds_as_ints():
    spec = QuadratureSpec("monte_carlo", np.int64(16), 3.0)
    assert (spec.node_count, spec.seed) == (16, 3)
    assert type(spec.node_count) is int and type(spec.seed) is int
