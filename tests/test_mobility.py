"""Highway mobility model: init rules, safety braking, ring invariants."""

import numpy as np
import pytest

from cftsim.mobility import (Fleet, MobilityConfig, init_scenario,
                             lane_gaps, ring_delta, step, warm_up)

V_MIN = 60.0 / 3.6
V_MAX = 120.0 / 3.6


def make_cfg(density=5.0, sd=150.0, **kw):
    return MobilityConfig(density_per_km=density, v_min_mps=V_MIN,
                          v_max_mps=V_MAX, safety_distance_m=sd, **kw)


class _ConstRng:
    """Degenerate generator: uniform draws pinned to a fixed fraction."""

    def __init__(self, frac):
        self.frac = frac

    def uniform(self, low, high=None, size=None):
        if high is None:
            low, high = 0.0, low
        val = low + self.frac * (high - low)
        if size is None:
            return val
        return np.full(size, val)


def _placed_gaps(fleet, direction, lane, cfg):
    """Gaps between consecutive placed vehicles, closure gap dropped.

    The lane is a ring, so one of the in-order gaps is the leftover void
    that closes it rather than a drawn spacing; at the densities tested it
    is always the largest by a wide margin.
    """
    gaps = lane_gaps(fleet, direction, lane, cfg)
    if gaps.size < 2:
        return np.empty(0)
    return np.delete(gaps, np.argmax(gaps))


def test_vehicle_count_follows_density():
    cfg = make_cfg(density=5.0)
    assert cfg.vehicles_per_direction == 55
    fleet = init_scenario(cfg, np.random.default_rng(0))
    assert fleet.n == 110
    assert (fleet.direction == 1).sum() == 55
    assert (fleet.direction == -1).sum() == 55
    # Round-robin split of 55 over 2 lanes.
    assert ((fleet.direction == 1) & (fleet.lane == 0)).sum() == 28
    assert ((fleet.direction == 1) & (fleet.lane == 1)).sum() == 27


def test_zero_noise_init_gives_minimum_gaps_and_speeds():
    cfg = make_cfg(density=5.0)
    fleet = init_scenario(cfg, _ConstRng(0.0))
    assert np.allclose(fleet.speed, V_MIN)
    for direction in (1, -1):
        for lane in range(cfg.lanes_per_direction):
            placed = _placed_gaps(fleet, direction, lane, cfg)
            assert np.allclose(placed, cfg.safety_distance_m)


def test_full_noise_init_gives_double_gaps_and_max_speeds():
    cfg = make_cfg(density=5.0)   # 28 gaps * 300 m < ring, no rescale
    fleet = init_scenario(cfg, _ConstRng(1.0))
    assert np.allclose(fleet.speed, V_MAX)
    for direction in (1, -1):
        placed = _placed_gaps(fleet, direction, 0, cfg)
        assert np.allclose(placed, 2.0 * cfg.safety_distance_m)


def test_overfull_lane_is_rescaled_to_close_the_ring():
    # 55 per lane at full noise would need 16.5 km; the drawn gaps must
    # shrink uniformly so the lane still closes.
    cfg = make_cfg(density=10.0)
    fleet = init_scenario(cfg, _ConstRng(1.0))
    gaps = lane_gaps(fleet, 1, 0, cfg)
    assert gaps.sum() == pytest.approx(cfg.lane_length_m)
    assert np.allclose(gaps, gaps[0])


def test_mean_placed_gap_is_one_and_a_half_safety_distances():
    cfg = make_cfg(density=5.0, sd=150.0)
    total, count = 0.0, 0
    for seed in range(1000):
        fleet = init_scenario(cfg, np.random.default_rng(seed))
        for direction in (1, -1):
            for lane in range(cfg.lanes_per_direction):
                placed = _placed_gaps(fleet, direction, lane, cfg)
                total += placed.sum()
                count += placed.size
    mean = total / count
    assert mean == pytest.approx(1.5 * 150.0, rel=0.01)


def test_positions_and_speeds_stay_in_bounds():
    cfg = make_cfg(density=7.0)
    gen = np.random.default_rng(7)
    fleet = init_scenario(cfg, gen)
    for _ in range(1000):
        step(fleet, cfg, gen)
        assert np.all(fleet.speed >= V_MIN - 1e-12)
        assert np.all(fleet.speed <= V_MAX + 1e-12)
        assert np.all(fleet.x >= 0.0)
        assert np.all(fleet.x < cfg.lane_length_m)
    assert fleet.n == 154   # density conservation


def _crowded_pairs_ok(fleet, cfg):
    for direction in (1, -1):
        for lane in range(cfg.lanes_per_direction):
            mask = (fleet.direction == direction) & (fleet.lane == lane)
            idx = np.nonzero(mask)[0]
            if idx.size < 2:
                continue
            order = idx[np.argsort(fleet.x[idx] * direction)]
            x_ord = fleet.x[order] * direction
            gaps = (np.roll(x_ord, -1) - x_ord) % cfg.lane_length_m
            for k in range(order.size):
                if gaps[k] <= cfg.safety_distance_m:
                    rear, front = order[k], order[(k + 1) % order.size]
                    if fleet.speed[rear] > fleet.speed[front] + 1e-9:
                        return False
    return True


@pytest.mark.parametrize("density", [5.0, 10.0])
def test_crowded_pairs_leave_each_step_ordered(density):
    cfg = make_cfg(density=density, sd=150.0)
    gen = np.random.default_rng(int(density))
    fleet = init_scenario(cfg, gen)
    for _ in range(200):
        step(fleet, cfg, gen)
        assert _crowded_pairs_ok(fleet, cfg)


def test_no_overtaking_within_a_lane():
    cfg = make_cfg(density=10.0, sd=150.0)
    gen = np.random.default_rng(99)
    fleet = init_scenario(cfg, gen)
    mask = (fleet.direction == 1) & (fleet.lane == 0)
    idx = np.nonzero(mask)[0]

    def cyclic_order():
        return idx[np.argsort(fleet.x[idx])]

    prev = cyclic_order()
    for _ in range(300):
        step(fleet, cfg, gen)
        cur = cyclic_order()
        # Same cyclic sequence, possibly rotated by the ring wrap.
        shift = int(np.nonzero(cur == prev[0])[0][0])
        assert np.array_equal(np.roll(cur, -shift), prev)
        prev = cur


def test_braking_slows_the_rear_vehicle_only():
    cfg = make_cfg(density=5.0)
    # Two-vehicle lane, rear faster and within the safety distance.
    fleet = Fleet(
        x=np.array([1000.0, 1100.0]),
        y=np.array([2.5, 2.5]),
        speed=np.array([V_MAX, V_MIN]),
        direction=np.array([1, 1]),
        lane=np.array([0, 0]),
    )
    zero_noise = _ConstRng(0.5)   # gamma = 0: speeds unchanged by noise
    step(fleet, cfg, zero_noise)
    assert fleet.speed[0] <= fleet.speed[1] + 1e-12
    assert fleet.speed[1] == pytest.approx(V_MIN)


def test_single_vehicle_coasts_without_acceleration():
    cfg = make_cfg(density=5.0, accel_mps2=0.0)
    fleet = Fleet(
        x=np.array([500.0]), y=np.array([2.5]),
        speed=np.array([20.0]), direction=np.array([1]),
        lane=np.array([0]),
    )
    gen = np.random.default_rng(3)
    for k in range(5):
        step(fleet, cfg, gen)
        assert fleet.speed[0] == pytest.approx(20.0)
        assert fleet.x[0] == pytest.approx(500.0 + 20.0 * (k + 1))


def test_ring_distance_helpers():
    assert ring_delta(np.array(10_900.0), np.array(100.0), 11_000.0) == 200.0


def test_trajectories_are_deterministic_per_seed():
    cfg = make_cfg(density=6.0)
    a = init_scenario(cfg, np.random.default_rng(11))
    b = init_scenario(cfg, np.random.default_rng(11))
    ga, gb = np.random.default_rng(12), np.random.default_rng(12)
    warm_up(a, cfg, ga, 50)
    warm_up(b, cfg, gb, 50)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.speed, b.speed)


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(density=0.0)
    with pytest.raises(ValueError):
        MobilityConfig(density_per_km=5.0, v_min_mps=30.0, v_max_mps=20.0,
                       safety_distance_m=150.0)
    with pytest.raises(ValueError):
        make_cfg(sd=0.0)
    with pytest.raises(ValueError):
        make_cfg(lanes_per_direction=0)
