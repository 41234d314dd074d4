"""Seeded quadrature: exactness, uniform law, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab import (QuadratureError, QuadratureSpec, gauss_rule,
                    make_ball_indicator, make_linear, make_plateau_bump,
                    oscillation, stream, unit_ball_nodes, unit_ball_volume)
from osclab import quadrature
from osclab.quadrature import (live_segments, row_segments,
                               segment_integrals, segment_width)


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


@pytest.mark.parametrize("value, count", [
    (3, True), (np.int64(3), True), (0, True), (True, False),
    (np.bool_(True), False), (3.0, False), ("3", False), (None, False)])
def test_is_count_takes_integers_and_refuses_bools_and_floats(value, count):
    assert quadrature.is_count(value) is count


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


def _mean(g, breakpoints, lo, hi, n=8):
    # the mean of g over each ball [lo, hi] as the kernels take it: the
    # segment rule on the live segments, added left to right per ball and
    # divided by the width
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    segs = live_segments(breakpoints, lo, hi)
    return (segs.row_sums(segment_integrals(g, segs.edges, n))
            / segment_width(lo, hi))


def test_segment_rule_mean_exact_linear():
    f = lambda x: 3.0 * x + 1.0
    mean = _mean(f, (), -0.25, 0.75)
    assert abs(mean[0] - (3.0 * 0.25 + 1.0)) <= 1e-14


def test_segment_rule_breakpoints_make_kinks_exact():
    # average of an indicator over an interval straddling its jump
    b = 0.2
    f = lambda x: (x < b).astype(float)
    mean = _mean(f, (b,), -1.0, 1.0)
    assert abs(mean[0] - (b - (-1.0)) / 2.0) <= 1e-14


def test_unit_ball_volume_closed_forms():
    assert abs(unit_ball_volume(1) - 2.0) <= 1e-12
    assert abs(unit_ball_volume(2) - np.pi) <= 1e-12
    assert abs(unit_ball_volume(3) - 4.0 * np.pi / 3.0) <= 1e-12


# ---------------------------------------------------------------------------
# the segment rule on the flat list of live segments
# ---------------------------------------------------------------------------

PLATEAU_1D = make_plateau_bump(1, 1.0, 0.5, 1.0)


def _fixed_order_sum(vals, w):
    # w[0] v[0] + w[1] v[1] + ... over the last axis, added first to last
    total = vals[..., 0] * w[0]
    for j in range(1, w.size):
        total = total + vals[..., j] * w[j]
    return total


def _dense_segment_integrals(g, edges, n, *cols):
    # the rule as it reads with every segment evaluated, zero-width ones
    # included, and its weighted values added in one loop
    t, w = gauss_rule(n)
    lo = edges[:, 0]
    hi = edges[:, 1]
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * t
    return half * _fixed_order_sum(g(x, *(c[:, None] for c in cols)), w)


# balls inside the core, straddling ri and ro, outside the support and
# covering all of it
_A = np.array([0.0, 0.5, -0.45, 0.9, 1.7, 0.2, -0.8, 0.05])
_R = np.array([0.2, 0.2, 0.3, 0.25, 0.4, 3.0, 0.05, 1.0])


def test_segment_integrals_match_the_dense_rule_on_a_scalar_ball():
    fev = PLATEAU_1D.eval_1d
    segs = live_segments(PLATEAU_1D.breakpoints_1d, np.array([0.5 - 0.2]),
                          np.array([0.5 + 0.2]))
    assert segs.edges.shape == (2, 2)
    for n in (2, 8, 13):
        assert np.array_equal(segment_integrals(fev, segs.edges, n),
                              _dense_segment_integrals(fev, segs.edges, n))


def test_segment_integrals_match_the_dense_rule_on_a_batch_of_balls():
    fev = PLATEAU_1D.eval_1d
    edges = live_segments(PLATEAU_1D.breakpoints_1d, _A - _R, _A + _R).edges
    assert np.array_equal(segment_integrals(fev, edges, 8),
                          _dense_segment_integrals(fev, edges, 8))
    # and a batch 60 times that size: a segment's integral has its bits
    # wherever it sits
    many = np.tile(edges, (60, 1))
    assert np.array_equal(segment_integrals(fev, many, 8),
                          _dense_segment_integrals(fev, many, 8))


def test_segment_integrals_match_the_dense_rule_at_a_high_order():
    # few segments at a high order: the same column-by-column sum
    fev = PLATEAU_1D.eval_1d
    edges = live_segments(PLATEAU_1D.breakpoints_1d, np.array([0.25]),
                          np.array([1.15])).edges
    assert edges.shape == (3, 2)
    assert np.array_equal(segment_integrals(fev, edges, 4096),
                          _dense_segment_integrals(fev, edges, 4096))


def _split_batch():
    # the q = 1 deviation's parts: each live segment split at the root of
    # f - mu that _segment_roots finds, or at its right end, into [lo, root]
    # and [root, hi], with mu for each part
    fev = PLATEAU_1D.eval_1d
    segs = live_segments(PLATEAU_1D.breakpoints_1d, _A - _R, _A + _R)
    mu = _mean(fev, PLATEAU_1D.breakpoints_1d, _A - _R, _A + _R)
    root, _, _ = oscillation._segment_roots(fev, segs, mu)
    parts = np.stack([segs.lo, root, root, segs.hi], axis=-1).reshape(-1, 2)
    assert np.any(parts[:, 1] == parts[:, 0]) and np.any(root < segs.hi)
    return fev, segs, parts, np.repeat(mu[segs.ball], 2)


def test_segment_integrals_with_an_arg_match_the_dense_rule():
    # the q = 1 deviation integral, zero-width parts included: each reads
    # exactly 0
    fev, _, parts, mu = _split_batch()
    got = segment_integrals(lambda x, m: fev(x) - m, parts, 8, mu)
    want = _dense_segment_integrals(lambda x, m: fev(x) - m, parts, 8, mu)
    assert np.array_equal(got, want)
    assert np.all(got[parts[:, 1] == parts[:, 0]] == 0.0)


def test_segment_integrals_on_graded_sub_panels_match_the_dense_rule():
    # the q != 1 route: each live segment's 2 P + 1 graded cuts, split at
    # its root, as one flat list of live panels, mu indexed by ball
    fev, segs, parts, _ = _split_batch()
    mu = _mean(fev, PLATEAU_1D.breakpoints_1d, _A - _R, _A + _R)
    frac = 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, 9)))
    lo = segs.lo[:, None]
    root = parts[0::2, 1:]
    panels = row_segments(np.concatenate(
        [lo + (root - lo) * frac[:-1],
         root + (segs.hi[:, None] - root) * frac], axis=1))
    assert np.array_equal(np.bincount(panels.ball),
                          np.where(root[:, 0] < segs.hi, 16, 8))
    col = mu[segs.ball[panels.ball]]
    q = 2.5
    got = segment_integrals(lambda x, m: np.abs(fev(x) - m) ** q,
                            panels.edges, 8, col)
    want = _dense_segment_integrals(lambda x, m: np.abs(fev(x) - m) ** q,
                                    panels.edges, 8, col)
    assert np.array_equal(got, want)


def test_segment_integrals_evaluate_every_segment_and_zero_width_ones_give_0():
    calls = []

    def g(x, m):
        calls.append((x.shape, m.shape))
        return x + m

    edges = np.array([[0.0, 0.0], [0.0, 1.0], [2.5, 2.5], [2.5, 3.0]])
    out = segment_integrals(g, edges, 4, np.array([10.0, 10.0, 20.0, 20.0]))
    assert calls == [((4, 4), (4, 1))]
    assert out[0] == out[2] == 0.0
    assert abs(out[1] - 10.5) <= 1e-14
    assert abs(out[3] - 0.5 * 22.75) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 8, 12, 13]),
       counts=st.lists(st.integers(1, 40), min_size=1, max_size=9),
       pick=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_a_segment_integral_does_not_depend_on_its_batch(n, counts, pick,
                                                          seed):
    # any row's segments, at any position in a flat list among the
    # segments of random rows, have the bits of their own call
    rng = np.random.default_rng(seed)
    fev = PLATEAU_1D.eval_1d
    rows = [np.sort(rng.uniform(-1.3, 1.3, size=k + 1)) for k in counts]
    pick %= len(rows)
    shift = rng.uniform(-0.2, 0.2, size=len(rows))
    edges = np.concatenate([np.stack([row[:-1], row[1:]], axis=-1)
                            for row in rows])
    ball = np.repeat(np.arange(len(rows)), counts)
    got = segment_integrals(lambda x, c: np.cos(3.0 * x) + fev(x - c),
                            edges, n, shift[ball])
    row = rows[pick]
    alone = segment_integrals(lambda x: np.cos(3.0 * x) + fev(x - shift[pick]),
                              np.stack([row[:-1], row[1:]], axis=-1), n)
    assert got[ball == pick].tobytes() == alone.tobytes()


def test_weight_sums_in_the_fixed_order_as_exact_pass_states():
    # one segment [-1, 1] of g = 1 integrates to the weights' sum, added
    # first to last: exactly 2 at order 8 (and 1), 2 - 2^-51 at order 3,
    # the plateau's, within 6 units of 2^-53 relative at every order 1-64
    for n in range(1, 65):
        total = segment_integrals(lambda x: np.ones_like(x),
                                  np.array([[-1.0, 1.0]]), n)[0]
        assert abs(total - 2.0) / 2.0 <= 6 * 2.0 ** -53, n
        if n in (1, 8):
            assert total == 2.0, n
        if n == 3:
            assert total == 2.0 - 2.0 ** -51


def test_order_8_gives_a_constant_its_value_as_mean_across_breakpoints():
    # the fact the skip certificate of weaknorm relies on: dyadic balls,
    # most of them straddling some of the plateau's breakpoints, so their
    # segment widths add up to the width exactly
    a = np.repeat(np.arange(-80, 81) / 64.0, 40)
    r = np.tile(np.arange(1, 41) / 32.0, 161)
    count = np.bincount(live_segments(PLATEAU_1D.breakpoints_1d, a - r,
                                       a + r).ball)
    assert (count > 1).mean() > 0.8 and count.max() == 5
    for c in (1.0, -1.0, 0.5, 0.75, 3.0, 0.0):
        mean = _mean(lambda x: np.full_like(x, c), PLATEAU_1D.breakpoints_1d,
                     a - r, a + r)
        assert np.all(mean == c), c
    for c in (0.7, 0.3, np.pi):
        mean = _mean(lambda x: np.full_like(x, c), PLATEAU_1D.breakpoints_1d,
                     a - r, a + r)
        assert np.max(np.abs(mean - c)) <= 2 * np.spacing(c), c


@pytest.mark.parametrize("f", [
    PLATEAU_1D, make_ball_indicator(1, 0.5, center=[0.25]),
    make_linear(1, [1.0]),
], ids=lambda f: f.function_id)
def test_live_segments_are_the_row_segments_of_the_clipped_cuts(f):
    # live_segments builds, without the clipped copies, the list that
    # row_segments makes of the breakpoints clipped to each ball: edges,
    # balls, first and last, bit for bit.  The balls lie inside the core,
    # straddle breakpoints, start or end exactly at one ([0, 0.5],
    # [0.5, 1], [0, 1]) and cover the support; the linear entry has no
    # breakpoints
    rng = np.random.default_rng(3)
    a = np.concatenate([[0.0, 0.5, -0.45, 0.25, 0.75, 0.5, 0.0],
                        rng.uniform(-1.5, 1.5, 300)])
    r = np.concatenate([[0.2, 0.2, 0.3, 0.25, 0.25, 0.5, 3.0],
                        np.exp(rng.uniform(np.log(1e-3), np.log(3.0), 300))])
    lo, hi = a - r, a + r
    bp = sorted(f.breakpoints_1d)
    assert f is not PLATEAU_1D or (np.isin(lo, bp).any()
                                   and np.isin(hi, bp).sum() >= 3)
    cuts = np.clip(np.stack([lo, *(np.full_like(lo, b) for b in bp), hi],
                            axis=-1), lo[:, None], hi[:, None])
    live = live_segments(f.breakpoints_1d, lo, hi)
    rows = row_segments(cuts)
    assert live.edges.tobytes() == rows.edges.tobytes()
    for name in ("ball", "first", "last"):
        assert np.array_equal(getattr(live, name), getattr(rows, name)), name


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
