"""Link lifetime prediction against a numeric root-finding oracle."""

import math

import numpy as np
import pytest

from cftsim.connection import (connection_times, in_range, in_range_mask,
                               predict_connection_time, range_window)

R = 250.0
# Ranges of the exact-equality scans: the shipped 250 m, wider ones, and
# one whose square is not a whole number.
SCAN_RANGES = (250.0, 300.0, 437.3, 600.0)


def _separation_sq(dx, dy, dvx, dvy, t):
    return (dx + dvx * t) ** 2 + (dy + dvy * t) ** 2


def _bisect_exit_time(dx, dy, dvx, dvy, r, tol=1e-9):
    """Root of |d + v t| = r by bracketing and bisection.

    Only valid for in-range pairs with nonzero relative speed: the
    separation is eventually increasing, so doubling finds an upper
    bracket and bisection pins the last crossing.
    """
    f = lambda t: _separation_sq(dx, dy, dvx, dvy, t) - r * r
    hi = 1.0
    while f(hi) <= 0.0:
        hi *= 2.0
        assert hi < 1e12, "pair never leaves range; bad test draw"
    lo = 0.0
    # f can dip negative and recover once (quadratic), so walk lo up to the
    # last non-positive point before bisecting.
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _random_in_range_pair(gen, r):
    theta = gen.uniform(0.0, 2.0 * math.pi)
    rho = r * math.sqrt(gen.uniform(0.0, 1.0))
    dx, dy = rho * math.cos(theta), rho * math.sin(theta)
    dvx, dvy = gen.uniform(-40.0, 40.0, size=2)
    return dx, dy, dvx, dvy


def test_colocated_pair_crosses_one_radius():
    # 3-4-5 style: from the centre at 10 m/s the boundary is R/10 away.
    assert predict_connection_time(0.0, 0.0, 10.0, 0.0, R) == pytest.approx(25.0)


def test_identical_velocities_never_disconnect():
    assert predict_connection_time(100.0, 5.0, 0.0, 0.0, R) == math.inf


def test_out_of_range_pair_is_rejected():
    with pytest.raises(ValueError):
        predict_connection_time(R + 1.0, 0.0, -10.0, 0.0, R)


def test_nonpositive_range_is_rejected():
    with pytest.raises(ValueError):
        predict_connection_time(0.0, 0.0, 1.0, 0.0, 0.0)


def test_head_on_transit_is_full_chord():
    # Entering at one edge and closing at v covers 2R before separating.
    v = 30.0
    dt = predict_connection_time(R, 0.0, -v, 0.0, R)
    assert dt == pytest.approx(2.0 * R / v, rel=1e-12)


def test_matches_bisection_oracle_on_random_pairs():
    gen = np.random.default_rng(1001)
    for _ in range(10_000):
        dx, dy, dvx, dvy = _random_in_range_pair(gen, R)
        if dvx * dvx + dvy * dvy < 1e-12:
            continue
        dt = predict_connection_time(dx, dy, dvx, dvy, R)
        assert dt >= 0.0
        oracle = _bisect_exit_time(dx, dy, dvx, dvy, R)
        assert abs(dt - oracle) < 1e-6


def test_prediction_satisfies_the_circle_equation():
    gen = np.random.default_rng(1002)
    for _ in range(2_000):
        dx, dy, dvx, dvy = _random_in_range_pair(gen, R)
        if dvx * dvx + dvy * dvy < 1e-12:
            continue
        dt = predict_connection_time(dx, dy, dvx, dvy, R)
        assert _separation_sq(dx, dy, dvx, dvy, dt) == pytest.approx(
            R * R, rel=1e-9)


def test_prediction_is_symmetric_in_the_pair():
    gen = np.random.default_rng(1003)
    for _ in range(500):
        dx, dy, dvx, dvy = _random_in_range_pair(gen, R)
        a = predict_connection_time(dx, dy, dvx, dvy, R)
        b = predict_connection_time(-dx, -dy, -dvx, -dvy, R)
        assert a == pytest.approx(b, rel=1e-12)


def test_prediction_grows_with_range():
    gen = np.random.default_rng(1004)
    for _ in range(200):
        dx, dy, dvx, dvy = _random_in_range_pair(gen, R)
        if dvx * dvx + dvy * dvy < 1e-12:
            continue
        prev = predict_connection_time(dx, dy, dvx, dvy, R)
        for r in (300.0, 400.0, 600.0):
            cur = predict_connection_time(dx, dy, dvx, dvy, r)
            assert cur >= prev - 1e-12
            prev = cur


def _scan_pairs(gen, r, n=5_000):
    """n in-range pairs within r, every tenth of them at standstill."""
    pairs = [_random_in_range_pair(gen, r) for _ in range(n)]
    return [(dx, dy, 0.0, 0.0) if k % 10 == 0 else (dx, dy, dvx, dvy)
            for k, (dx, dy, dvx, dvy) in enumerate(pairs)]


def test_range_window_starts_now_for_an_in_range_pair():
    gen = np.random.default_rng(1006)
    for r in SCAN_RANGES:
        for pair in _scan_pairs(gen, r):
            assert in_range(*pair[:2], r)
            assert range_window(*pair, r) == (
                0.0, predict_connection_time(*pair, r))


def test_vectorised_times_equal_the_scalar_prediction():
    gen = np.random.default_rng(1007)
    for r in SCAN_RANGES:
        pairs = _scan_pairs(gen, r)
        want = [predict_connection_time(*pair, r) for pair in pairs]
        got = connection_times(*np.array(pairs).T, r)
        assert got.tolist() == want
        assert math.inf in want


def test_range_window_is_unbounded_for_a_stationary_in_range_pair():
    assert range_window(50.0, 5.0, 0.0, 0.0, R) == (0.0, math.inf)


def test_range_window_opens_later_for_an_approaching_pair():
    # 1000 m ahead, closing at 25 m/s on the same line: the window must
    # open at (1000 - R) / 25 and close at (1000 + R) / 25.
    win = range_window(1000.0, 0.0, -25.0, 0.0, R)
    assert win is not None
    t_in, t_out = win
    assert t_in == pytest.approx((1000.0 - R) / 25.0, rel=1e-12)
    assert t_out == pytest.approx((1000.0 + R) / 25.0, rel=1e-12)


def test_window_is_none_when_paths_never_meet():
    assert range_window(1000.0, 0.0, 25.0, 0.0, R) is None        # receding
    assert range_window(1000.0, 500.0, -25.0, 0.0, R) is None     # wide miss
    assert range_window(1000.0, 5.0, 0.0, 0.0, R) is None         # stationary far


def test_window_bounds_contain_only_in_range_instants():
    gen = np.random.default_rng(1005)
    checked = 0
    while checked < 2_000:
        dx = gen.uniform(-2000.0, 2000.0)
        dy = gen.uniform(-20.0, 20.0)
        dvx, dvy = gen.uniform(-40.0, 40.0, size=2)
        win = range_window(dx, dy, dvx, dvy, R)
        if win is None or math.isinf(win[1]):
            continue
        t_in, t_out = win
        assert 0.0 <= t_in <= t_out
        mid = 0.5 * (t_in + t_out)
        assert _separation_sq(dx, dy, dvx, dvy, mid) <= R * R + 1e-6
        if t_out > t_in:
            after = t_out + max(1e-3, 1e-6 * t_out)
            assert _separation_sq(dx, dy, dvx, dvy, after) > R * R
        checked += 1


def test_range_edge_pair_is_in_range_for_a_non_negative_lifetime():
    # Pairs at exactly the range edge, r = math.hypot(dx, dy), every tenth
    # at standstill.  For some of them the squared distance exceeds r * r,
    # so a squares test would put them out of range.
    gen = np.random.default_rng(1008)
    squares_disagree = 0
    for k in range(10_000):
        dx, dy = gen.uniform(-600.0, 600.0), gen.uniform(-20.0, 20.0)
        dvx, dvy = (0.0, 0.0) if k % 10 == 0 else gen.uniform(-40.0, 40.0, 2)
        r = math.hypot(dx, dy)
        squares_disagree += dx * dx + dy * dy > r * r
        assert in_range(dx, dy, r)
        dt = predict_connection_time(dx, dy, dvx, dvy, r)
        assert dt >= 0.0
        assert range_window(dx, dy, dvx, dvy, r) == (0.0, dt)
    assert squares_disagree > 0


def test_in_range_mask_equals_the_scalar_test():
    # Lane pairs as the traffic sees them.  np.hypot differs from
    # math.hypot in the last bit on some of them, and at the range edge
    # R = math.hypot(dx, dy) a plain np.hypot test puts some of those out
    # of range; the mask must agree with in_range on every one.
    gen = np.random.default_rng(1009)
    dx = gen.uniform(-600.0, 600.0, 1_000_000)
    dy = gen.choice([-10.0, -5.0, 5.0, 10.0], size=dx.size)
    dist = np.hypot(dx, dy)
    pairs = list(zip(dx.tolist(), dy.tolist()))
    exact = np.array([math.hypot(*pair) for pair in pairs])
    differ = np.nonzero(dist != exact)[0]
    assert differ.size > 0
    np_out_at_edge = 0
    for k in differ.tolist():
        r = float(exact[k])
        np_out_at_edge += bool(dist[k] > r)
        one = slice(k, k + 1)
        for edge in (r, float(np.nextafter(r, 0.0)), float(dist[k])):
            want = [in_range(*pairs[k], edge)]
            assert in_range_mask(dx[one], dy[one], edge).tolist() == want
    assert np_out_at_edge > 0
    for r in (250.0, 437.3, 600.0):
        want = (exact <= r).tolist()      # in_range, pair by pair
        assert in_range_mask(dx, dy, r).tolist() == want
        assert in_range_mask(dx, dy, r, dist).tolist() == want
    # A scalar dy broadcasts over dx, as a trajectory scan passes it.
    k = next(k for k in differ.tolist() if dist[k] > exact[k])
    assert in_range_mask(dx[k:k + 1], float(dy[k]), float(exact[k])).all()
