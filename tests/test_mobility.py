"""Highway mobility model: init rules, safety braking, ring invariants."""

import dataclasses

import numpy as np
import pytest

from cftsim import mobility
from cftsim.config import load_config
from cftsim.mobility import (Fleet, init_scenario, ring_delta, step,
                             warm_up_batch)

CFG = load_config()
V_MIN = CFG.mobility_defaults["v_min_mps"]
V_MAX = CFG.mobility_defaults["v_max_mps"]


def make_cfg(density=5.0, sd=150.0, **kw):
    return dataclasses.replace(CFG.mobility(density, sd), **kw)


def warm_up(fleet, cfg, rng, steps):
    """The single-fleet oracle of every batched step: steps calls of step."""
    for _ in range(steps):
        step(fleet, cfg, rng)


class _ConstRng:
    """Degenerate generator: uniform draws pinned to a fixed fraction."""

    def __init__(self, frac):
        self.frac = frac

    def random(self, size):
        return np.full(size, float(self.frac))

    def uniform(self, low, high=None, size=None):
        if high is None:
            low, high = 0.0, low
        val = low + self.frac * (high - low)
        if size is None:
            return val
        return np.full(size, val)


def _lane_gaps(fleet, direction, lane, cfg):
    """One lane's vehicle ids in driving order (rearmost first), and the
    forward gap from each to the vehicle ahead, wrapping round the ring."""
    idx = np.nonzero((fleet.direction == direction) & (fleet.lane == lane))[0]
    order = idx[np.argsort(fleet.x[idx] * direction)]
    x_ord = fleet.x[order] * direction
    return order, (np.roll(x_ord, -1) - x_ord) % cfg.lane_length_m


def _placed_gaps(fleet, direction, lane, cfg):
    """Gaps between consecutive placed vehicles, closure gap dropped.

    The lane is a ring, so one of the in-order gaps is the leftover void
    that closes it rather than a drawn spacing; at the densities tested it
    is always the largest by a wide margin.
    """
    gaps = _lane_gaps(fleet, direction, lane, cfg)[1]
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


def _init_scenario_lane_by_lane(cfg, rng):
    """The exact oracle of init_scenario: one uniform call per draw, lane by
    lane."""
    xs, ys, speeds, dirs, lanes = [], [], [], [], []
    for direction in (1, -1):
        n_dir = cfg.vehicles_per_direction
        for lane in range(cfg.lanes_per_direction):
            n_lane = n_dir // cfg.lanes_per_direction
            if lane < n_dir % cfg.lanes_per_direction:
                n_lane += 1
            if n_lane == 0:
                continue
            gaps = (1.0 + rng.uniform(0.0, 1.0, size=n_lane)) * cfg.safety_distance_m
            total = gaps.sum()
            if total > cfg.lane_length_m:
                gaps *= cfg.lane_length_m / total
            start = rng.uniform(0.0, cfg.lane_length_m)
            pos = (start + np.concatenate(([0.0], np.cumsum(gaps[:-1])))) % cfg.lane_length_m
            xs.append(pos)
            ys.append(np.full(n_lane, mobility._lane_y(direction, lane, cfg)))
            speeds.append(cfg.v_min_mps
                          + rng.uniform(0.0, 1.0, size=n_lane) * (cfg.v_max_mps - cfg.v_min_mps))
            dirs.append(np.full(n_lane, direction, dtype=np.int64))
            lanes.append(np.full(n_lane, lane, dtype=np.int64))
    return Fleet(x=np.concatenate(xs), y=np.concatenate(ys),
                 speed=np.concatenate(speeds), direction=np.concatenate(dirs),
                 lane=np.concatenate(lanes))


@pytest.mark.parametrize("sd", [150.0, 400.0])
def test_init_scenario_equals_the_lane_by_lane_draws(sd):
    # Densities from sparse to rescaled-to-close lanes; one lane per
    # direction too, and a lane count that leaves a lane empty.
    cases = [(d, {}) for d in (2.0, 3.0, 5.0, 7.5, 10.0, 15.0, 25.0, 40.0, 60.0)]
    cases += [(5.0, {"lanes_per_direction": 1}),
              (0.4, {"lanes_per_direction": 3, "lane_length_m": 5_000.0})]
    for density, kw in cases:
        cfg = make_cfg(density=density, sd=sd, **kw)
        for seed in range(50):
            gen, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = init_scenario(cfg, gen)
            want = _init_scenario_lane_by_lane(cfg, twin)
            for name in ("x", "y", "speed", "direction", "lane"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert gen.bit_generator.state == twin.bit_generator.state


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
    gaps = _lane_gaps(fleet, 1, 0, cfg)[1]
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
            order, gaps = _lane_gaps(fleet, direction, lane, cfg)
            if order.size < 2:
                continue
            for k in range(order.size):
                if gaps[k] <= cfg.safety_distance_m:
                    rear, front = order[k], order[(k + 1) % order.size]
                    if fleet.speed[rear] > fleet.speed[front] + 1e-9:
                        return False
    return True


# At 10 veh/km, SD 250 m and 400 m reach the cycle case, where every gap of
# a lane is within SD; SD 400 m reaches it on most steps.
@pytest.mark.parametrize("density, sd", [
    pytest.param(5.0, 150.0, id="5.0"),
    pytest.param(10.0, 150.0, id="10.0"),
    pytest.param(10.0, 250.0, id="10.0-sd250"),
    pytest.param(10.0, 400.0, id="10.0-sd400"),
])
def test_crowded_pairs_leave_each_step_ordered(density, sd):
    cfg = make_cfg(density=density, sd=sd)
    gen = np.random.default_rng(int(density))
    fleet = init_scenario(cfg, gen)
    for _ in range(200):
        step(fleet, cfg, gen)
        assert _crowded_pairs_ok(fleet, cfg)


def _scalar_safety_rule(x, speed, direction, sd, length):
    """Reference sweep: one lane, front to back, one vehicle at a time."""
    n = x.size
    if n < 2:
        return
    order = np.argsort(x * direction)  # driving order, rearmost first
    x_ord = x[order]
    gaps = (np.roll(x_ord, -1) - x_ord) * direction % length
    leader_slot = int(np.argmax(gaps))  # vehicle with the most room ahead
    if gaps[leader_slot] <= sd:
        # Cycle case: the leader takes the lane's least pre-step speed.
        speed[order[leader_slot]] = speed.min()
    for back in range(n):
        k = (leader_slot - back) % n        # follower slot
        lead = (k + 1) % n
        if gaps[k] <= sd:
            i, j = order[k], order[lead]
            if speed[i] > speed[j]:
                speed[i] = speed[j]


def _reference_step(fleet, cfg, rng):
    """step() with the safety rule applied lane by lane through masks."""
    gamma = rng.uniform(-1.0, 1.0, size=fleet.n)
    fleet.speed += gamma * cfg.accel_mps2 * cfg.step_s
    np.clip(fleet.speed, cfg.v_min_mps, cfg.v_max_mps, out=fleet.speed)
    fleet.x += fleet.vx * cfg.step_s
    fleet.x %= cfg.lane_length_m
    for direction in (1, -1):
        for lane in range(cfg.lanes_per_direction):
            idx = np.nonzero((fleet.direction == direction)
                             & (fleet.lane == lane))[0]
            speeds = fleet.speed[idx]
            _scalar_safety_rule(fleet.x[idx], speeds, direction,
                                cfg.safety_distance_m, cfg.lane_length_m)
            fleet.speed[idx] = speeds


def _scenario(cfg, seed):
    return init_scenario(cfg, np.random.default_rng(seed))


def _shuffled(cfg, seed):
    """A scenario with vehicle ids permuted, so no lane is contiguous."""
    fleet = _scenario(cfg, seed)
    p = np.random.default_rng(seed + 1).permutation(fleet.n)
    return Fleet(fleet.x[p], fleet.y[p], fleet.speed[p], fleet.direction[p],
                 fleet.lane[p])


def _sparse(cfg, seed):
    """Lanes of 2, 1, 0 and 2 vehicles; each pair starts 100 m apart."""
    gen = np.random.default_rng(seed)
    x0, x1 = gen.uniform(0.0, cfg.lane_length_m, size=2)
    x = np.array([x0, x0 + 100.0, x1, x1, x1 + 100.0]) % cfg.lane_length_m
    direction = np.array([1, 1, 1, -1, -1])
    lane = np.array([0, 0, 1, 1, 1])
    return Fleet(x=x, y=direction * (lane + 0.5) * cfg.lane_width_m,
                 speed=gen.uniform(V_MIN, V_MAX, size=5),
                 direction=direction, lane=lane)


def _tied(cfg, seed):
    """One lane of 5 whose first step leaves two widest gaps of 210 m.

    Both are within SD, so the lane is a cycle and brakes to 17 m/s
    throughout, whichever of the two the sweep starts at.
    """
    return Fleet(x=np.arange(5) * cfg.lane_length_m / 5, y=np.full(5, 2.5),
                 speed=np.array([20.0, 30.0, 20.0, 30.0, 17.0]),
                 direction=np.ones(5, dtype=np.int64),
                 lane=np.zeros(5, dtype=np.int64))


def _coincident(cfg, seed):
    """One lane of three where the rear vehicle catches the one ahead of
    it exactly on the second step: a zero gap.  The sort puts the lower
    id behind; the kept order has the other one behind."""
    return Fleet(x=np.array([500.0, 300.0, 100.0]), y=np.full(3, 2.5),
                 speed=np.array([20.0, 120.0, 20.0]),
                 direction=np.ones(3, dtype=np.int64),
                 lane=np.zeros(3, dtype=np.int64))


# id: (config, fleet builder, whether some lane must close a cycle)
ORACLE_CASES = {
    "d5-sd150": (make_cfg(5.0, 150.0), _scenario, False),
    "d5-sd250": (make_cfg(5.0, 250.0), _scenario, False),
    "d10-sd150": (make_cfg(10.0, 150.0), _scenario, False),
    "d10-sd250": (make_cfg(10.0, 250.0), _scenario, False),
    # 55 vehicles at 400 m need 22 km of ring: every gap is within SD.
    "all-crowded-d10-sd400": (make_cfg(10.0, 400.0), _scenario, True),
    "sparse-lanes-sd150": (make_cfg(5.0, 150.0), _sparse, False),
    # SD beyond the ring length puts every lane in the cycle case.
    "sparse-lanes-sd12000": (make_cfg(5.0, 12_000.0), _sparse, True),
    # 55 vehicles per direction split 28/27, with SD near the mean spacing
    # of either lane (393 m and 407 m).
    "uneven-28-27-sd400": (make_cfg(5.0, 400.0), _scenario, False),
    "uneven-19-18-18-sd250": (
        make_cfg(5.0, 250.0, lanes_per_direction=3), _scenario, False),
    "ids-not-grouped-d10-sd250": (make_cfg(10.0, 250.0), _shuffled, False),
    # A cycle with two widest gaps, so two candidate leaders.
    "tied-gaps-cycle": (
        make_cfg(5.0, 1_000.0, lane_length_m=1_000.0, accel_mps2=0.0),
        _tied, True),
    "zero-gap": (make_cfg(5.0, 50.0, lane_length_m=1_000.0, accel_mps2=0.0,
                          v_min_mps=0.0, v_max_mps=200.0),
                 _coincident, False),
}


# Batched, the fleet runs through warm_up_batch, whose noise comes in
# blocks of NOISE_ROWS steps: 500 steps cross many block edges, and the
# sparse, cycle, zero-gap and tied cases sort their lanes afresh within a
# block.
@pytest.mark.parametrize("case, batched", [
    *(pytest.param(case, False, id=case) for case in sorted(ORACLE_CASES)),
    *(pytest.param(case, True, id=f"{case}-batched")
      for case in sorted(ORACLE_CASES)),
])
def test_step_matches_scalar_sweep_exactly(case, batched):
    cfg, build, must_cycle = ORACLE_CASES[case]
    fleet = build(cfg, 3)
    ref = fleet.copy()
    gen, ref_gen = np.random.default_rng(4), np.random.default_rng(4)
    steps = 500
    if batched:
        x_rows, speed_rows = np.empty((2, steps, fleet.n))
        warm_up_batch([(fleet, cfg, gen)], steps, [(x_rows, speed_rows)])
    cycles = 0
    for j in range(steps):
        if batched:
            x, speed = x_rows[j], speed_rows[j]
        else:
            step(fleet, cfg, gen)
            x, speed = fleet.x, fleet.speed
        _reference_step(ref, cfg, ref_gen)
        assert np.array_equal(x, ref.x)
        assert np.array_equal(speed, ref.speed)
        for direction in (1, -1):
            for lane in range(cfg.lanes_per_direction):
                gaps = _lane_gaps(ref, direction, lane, cfg)[1]
                cycles += gaps.size > 1 and gaps.max() <= cfg.safety_distance_m
    assert np.array_equal(fleet.x, ref.x)
    assert np.array_equal(fleet.speed, ref.speed)
    assert gen.bit_generator.state == ref_gen.bit_generator.state
    if must_cycle:
        assert cycles > 0


# Pointer jumping covers 2**k vehicles of a chain in k passes, so chain
# lengths on either side of a power of two catch a loop that stops a pass
# early.
@pytest.mark.parametrize("chain", [1, 2, 3, 4, 5, 8, 9, 16, 17, 33])
def test_crowded_chain_takes_its_front_speed(chain):
    # One lane: a free vehicle 1 km behind a chain 50 m apart whose front
    # vehicle is its slowest and free.  The free vehicle is slower still,
    # so a minimum that leaks past a free vehicle shows too.
    cfg = make_cfg(density=5.0, sd=150.0)
    n = chain + 1
    x = np.concatenate(([0.0], 1_000.0 + 50.0 * np.arange(chain)))
    speed = np.concatenate(([V_MIN],
                            V_MIN + 1.0 + 0.25 * np.arange(chain)[::-1]))
    fleet = Fleet(x=x, y=np.full(n, 2.5), speed=speed,
                  direction=np.ones(n, dtype=np.int64),
                  lane=np.zeros(n, dtype=np.int64))
    want = speed.copy()
    _scalar_safety_rule(x, want, 1, cfg.safety_distance_m,
                        cfg.lane_length_m)
    mobility._brake_to_leaders(fleet, cfg.safety_distance_m,
                               cfg.lane_length_m)
    assert np.array_equal(fleet.speed, want)
    assert np.array_equal(want, np.r_[V_MIN, np.full(chain, V_MIN + 1.0)])


def test_a_nan_speed_cannot_hang_the_step():
    # NaN != NaN, so the chain minimum never settles on a NaN speed; the
    # pass cap must end it.
    cfg = make_cfg(density=5.0)
    fleet = Fleet(x=np.array([100.0, 200.0, 300.0]), y=np.full(3, 2.5),
                  speed=np.array([20.0, np.nan, 25.0]),
                  direction=np.ones(3, dtype=np.int64),
                  lane=np.zeros(3, dtype=np.int64))
    step(fleet, cfg, np.random.default_rng(0))


def _overtaken(cfg, seed):
    """A scenario and an edit that swaps the positions of two neighbours
    in one lane, against the driving order the fleet keeps."""
    fleet = _scenario(cfg, seed)
    order = _lane_gaps(fleet, 1, 0, cfg)[0]

    def swap(fleet):
        a, b = order[:2]
        fleet.x[[a, b]] = fleet.x[[b, a]]
    return fleet, swap


def _as_is(build):
    return lambda cfg, seed: (build(cfg, seed), None)


# id: (config, fleet builder returning the fleet and a hand edit made
# after the first step, whether the kept order must be reused)
KEPT_ORDER_CASES = {
    "d10-sd150": (make_cfg(10.0, 150.0), _as_is(_scenario), True),
    "forced-overtake-d10-sd150": (make_cfg(10.0, 150.0), _overtaken, True),
    "zero-gap": (ORACLE_CASES["zero-gap"][0], _as_is(_coincident), False),
    "tied-widest-gaps": (ORACLE_CASES["tied-gaps-cycle"][0], _as_is(_tied),
                         True),
    "one-vehicle-lane": (make_cfg(5.0, 150.0), _as_is(_sparse), False),
}


@pytest.mark.parametrize("case", sorted(KEPT_ORDER_CASES))
def test_kept_order_equals_a_fresh_sort(case):
    # A step that reuses the fleet's kept driving order must equal one
    # that sorts every lane afresh, also when the order breaks or the
    # check must refuse it.
    cfg, build, must_reuse = KEPT_ORDER_CASES[case]
    fleet, edit = build(cfg, 3)
    ref = fleet.copy()
    gen, ref_gen = np.random.default_rng(4), np.random.default_rng(4)
    reused = 0
    for k in range(300):
        if k == 1 and edit is not None:
            edit(fleet)
            edit(ref)
        kept = fleet._order
        step(fleet, cfg, gen)
        reused += kept is not None and fleet._order is kept
        ref._order = None
        step(ref, cfg, ref_gen)
        assert np.array_equal(fleet.x, ref.x)
        assert np.array_equal(fleet.speed, ref.speed)
    if must_reuse:
        assert reused > 150


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


def _ring_offset_oracle(x_from, x_to, length):
    """The ring offset written out in Python floats, apart from
    ring_delta: its exact-equality oracle."""
    d = x_to - x_from
    half = length / 2.0
    return (d + half) % length - half


@pytest.mark.parametrize("length", [11_000.0, 2_000.0, 3_000.7])
def test_ring_delta_equals_the_ring_offset_oracle_bit_for_bit(length):
    # Uniform pairs on and off the ring, pairs across the seam (x near 0
    # and near L, and 0.0 and the last float below L), and pairs whose
    # offset is exactly +L/2 or -L/2.
    gen = np.random.default_rng(4_242)
    n, k = 40_000, 5_000
    seam = np.concatenate([gen.uniform(0.0, 1e-6, k),
                           length - gen.uniform(0.0, 1e-6, k),
                           [0.0, np.nextafter(length, 0.0)] * 8])
    base = np.round(gen.uniform(0.0, length, k))
    halves = base + np.where(gen.random(k) < 0.5, 0.5, -0.5) * length
    exact = np.abs(halves - base) == length / 2.0
    assert exact.mean() > 0.25
    x_from = np.concatenate([gen.uniform(0.0, length, n),
                             gen.uniform(-length, 2.0 * length, n),
                             seam, gen.permutation(seam), base[exact]])
    x_to = np.concatenate([gen.uniform(0.0, length, n),
                           gen.uniform(-length, 2.0 * length, n),
                           gen.permutation(seam), seam, halves[exact]])
    assert x_from.size >= 100_000
    want = np.array([_ring_offset_oracle(a, b, length)
                     for a, b in zip(x_from.tolist(), x_to.tolist())])
    on_floats = np.array([ring_delta(a, b, length)
                          for a, b in zip(x_from.tolist(), x_to.tolist())])
    on_arrays = ring_delta(x_from, x_to, length)
    # Both signs of an exact half-ring offset map to -L/2.
    assert np.all(want[-exact.sum():] == -length / 2.0)
    bits = want.view(np.uint64)
    assert np.array_equal(on_floats.view(np.uint64), bits)
    assert np.array_equal(on_arrays.view(np.uint64), bits)
    # Broadcast the way recruitment's rings call it: anchors by candidates.
    grid = ring_delta(x_from[:300, None], x_to[None, -300:], length)
    assert np.array_equal(grid.view(np.uint64), np.array(
        [[_ring_offset_oracle(a, b, length) for b in x_to[-300:].tolist()]
         for a in x_from[:300].tolist()]).view(np.uint64))


def test_trajectories_are_deterministic_per_seed():
    cfg = make_cfg(density=6.0)
    a = init_scenario(cfg, np.random.default_rng(11))
    b = init_scenario(cfg, np.random.default_rng(11))
    ga, gb = np.random.default_rng(12), np.random.default_rng(12)
    warm_up(a, cfg, ga, 50)
    warm_up(b, cfg, gb, 50)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.speed, b.speed)


# A batched warm-up draws its noise in blocks of NOISE_ROWS steps; these
# step counts end a warm-up before, on and after a block's edge.
BLOCK_EDGE_STEPS = [0, 1, mobility.NOISE_ROWS - 1, mobility.NOISE_ROWS,
                    mobility.NOISE_ROWS + 1, 2 * mobility.NOISE_ROWS + 5]
MIXED_KEYS = [(5.0, 1), (10.0, 2), (10.0, 3), (5.0, 4)]


# At 10 veh/km, SD 250 m and 400 m reach the cycle case.  A bound of 400
# vehicles splits the mixed members (110, 220, 220, 110) into two batches,
# and one of 100 puts each in a batch of its own.
@pytest.mark.parametrize("sd", [150.0, 250.0, 400.0])
@pytest.mark.parametrize("keys, bound, steps", [
    pytest.param([(5.0, 1)], mobility.BATCH_VEHICLES, 200, id="one"),
    pytest.param(MIXED_KEYS, mobility.BATCH_VEHICLES, 200, id="mixed"),
    pytest.param(MIXED_KEYS, 400, 200, id="mixed-split"),
    pytest.param(MIXED_KEYS, 100, 200, id="mixed-alone"),
    *(pytest.param(MIXED_KEYS, bound, steps, id=f"{name}-{steps}-steps")
      for name, bound in [("mixed", mobility.BATCH_VEHICLES),
                          ("mixed-split", 400)]
      for steps in BLOCK_EDGE_STEPS),
])
def test_batched_warm_up_equals_per_seed_warm_up(monkeypatch, keys, bound,
                                                 steps, sd):
    monkeypatch.setattr(mobility, "BATCH_VEHICLES", bound)

    def members():
        out = []
        for density, seed in keys:
            cfg = make_cfg(density, sd)
            gen = np.random.default_rng(seed)
            out.append((init_scenario(cfg, gen), cfg, gen))
        return out

    batch, alone = members(), members()
    warm_up_batch(batch, steps)
    for fleet, cfg, gen in alone:
        warm_up(fleet, cfg, gen, steps)
    for (fleet, _, gen), (want, _, want_gen) in zip(batch, alone):
        assert np.array_equal(fleet.x, want.x)
        assert np.array_equal(fleet.speed, want.speed)
        assert gen.bit_generator.state == want_gen.bit_generator.state


# A bound of 250 vehicles puts each of the members (110, 220, 110) in a
# batch of its own.
@pytest.mark.parametrize("bound, steps", [
    *(pytest.param(bound, 40, id=str(bound))
      for bound in (mobility.BATCH_VEHICLES, 250)),
    *(pytest.param(bound, steps, id=f"{bound}-{steps}-steps")
      for bound in (mobility.BATCH_VEHICLES, 250)
      for steps in BLOCK_EDGE_STEPS),
])
def test_batched_steps_record_every_row(monkeypatch, bound, steps):
    monkeypatch.setattr(mobility, "BATCH_VEHICLES", bound)

    def members():
        out = []
        for density, seed in [(5.0, 1), (10.0, 2), (5.0, 3)]:
            cfg = make_cfg(density, 250.0)
            gen = np.random.default_rng(seed)
            out.append((init_scenario(cfg, gen), cfg, gen))
        return out

    batch, alone = members(), members()
    record = [(np.empty((steps, fleet.n)), np.empty((steps, fleet.n)))
              for fleet, _, _ in batch]
    warm_up_batch(batch, steps, record)
    for (fleet, _, gen), (x_rows, speed_rows), (want, cfg, want_gen) in zip(
            batch, record, alone):
        for j in range(steps):
            step(want, cfg, want_gen)
            assert np.array_equal(x_rows[j], want.x)
            assert np.array_equal(speed_rows[j], want.speed)
        assert np.array_equal(fleet.x, want.x)
        assert np.array_equal(fleet.speed, want.speed)
        assert gen.bit_generator.state == want_gen.bit_generator.state


def _mirrored(fleet, cfg):
    """The fleet seen in a mirror across the ring's origin and the median:
    x -> (L - x) mod L, y -> -y, direction -> -direction."""
    return Fleet((cfg.lane_length_m - fleet.x) % cfg.lane_length_m, -fleet.y,
                 fleet.speed.copy(), -fleet.direction, fleet.lane.copy())


MIRROR_STEPS = 300


@pytest.mark.parametrize("batched", [False, True], ids=["step", "batched"])
@pytest.mark.parametrize("sd", [150.0, 250.0, 400.0])
def test_a_mirrored_fleet_steps_as_the_mirror_image(batched, sd):
    # The rules know no left or right, so stepping the mirror image of a
    # fleet with the same draws gives the mirror image of the stepped
    # fleet.  A speed never depends on a position's rounding unless a gap
    # lands within a rounding of SD, so speeds agree bit for bit.  L - x is
    # not exact in floats: each step rounds every move and wrap of both
    # fleets by at most half a float spacing at 2L, so positions may drift
    # (2 * MIRROR_STEPS + 2) spacings apart, counting the mirror at the
    # start and at the end.  The worst case measured is 4.7e-11 m.
    tol = (2 * MIRROR_STEPS + 2) * np.spacing(
        2.0 * CFG.mobility_defaults["lane_length_m"])
    members = []
    for density in (5.0, 7.0, 10.0):
        cfg = make_cfg(density, sd)
        fleet = init_scenario(cfg, np.random.default_rng(int(density)))
        members.append((fleet, cfg, np.random.default_rng(100 + int(density))))
        members.append((_mirrored(fleet, cfg), cfg,
                        np.random.default_rng(100 + int(density))))
    if batched:
        warm_up_batch(members, MIRROR_STEPS)
    else:
        for fleet, cfg, gen in members:
            warm_up(fleet, cfg, gen, MIRROR_STEPS)
    for (fleet, cfg, _), (mirror, _, _) in zip(members[::2], members[1::2]):
        assert np.array_equal(mirror.speed, fleet.speed)
        image = _mirrored(fleet, cfg)
        drift = np.abs(ring_delta(mirror.x, image.x, cfg.lane_length_m))
        assert drift.max() <= tol


def test_lane_groups_are_built_once_per_layout():
    cfg = make_cfg(5.0)
    a = init_scenario(cfg, np.random.default_rng(1))
    b = init_scenario(cfg, np.random.default_rng(2))
    # A fleet branched from a warm start, as a request instant branches it,
    # with no layout of its own yet.
    branch = Fleet(a.x.copy(), a.y.copy(), a.speed.copy(),
                   a.direction.copy(), a.lane.copy())
    assert a.lane_groups is b.lane_groups is branch.lane_groups
    want = mobility.LaneGroups.build(a.direction, a.lane)
    for name, value in vars(want).items():
        assert np.array_equal(getattr(a.lane_groups, name), value)
    other = init_scenario(make_cfg(10.0), np.random.default_rng(1))
    assert other.lane_groups is not a.lane_groups


def test_batched_warm_up_rejects_bad_batches():
    gen = np.random.default_rng(0)
    with pytest.raises(ValueError):
        warm_up_batch([], 10)
    cfg = make_cfg(5.0)
    fleet = init_scenario(cfg, gen)
    with pytest.raises(ValueError):     # one record for two members
        warm_up_batch([(fleet, cfg, gen), (fleet.copy(), cfg, gen)], 1,
                      [(np.empty((1, fleet.n)), np.empty((1, fleet.n)))])
    for other in (make_cfg(10.0, 250.0),
                  make_cfg(10.0, 150.0, lanes_per_direction=3),
                  make_cfg(10.0, 150.0, step_s=0.5)):
        members = [(init_scenario(cfg, gen), cfg, gen)
                   for cfg in (make_cfg(5.0, 150.0), other)]
        with pytest.raises(ValueError):
            warm_up_batch(members, 10)


def test_wrap_equals_the_float_remainder_bit_for_bit():
    # _wrap stands in for % on [-L, 2L): equal values and equal signs,
    # on the edges where a conditional -/+ L could differ from it.
    length = make_cfg().lane_length_m
    tiny = np.nextafter(0.0, -1.0)
    edges = [length, -0.0, 0.0, tiny, -1e-13, -length / 2 ** 60,
             np.nextafter(length, 0.0), np.nextafter(length, 2.0 * length),
             np.nextafter(2.0 * length, 0.0), -length,
             np.nextafter(-length, 0.0), 3.0, -3.0, length + 3.0]
    # Tiny negative x whose x + L rounds to L: % gives L, not 0.
    assert (np.array([-1e-13]) % length)[0] == length
    x = np.concatenate([np.array(edges),
                        np.random.default_rng(8).uniform(-length, 2.0 * length,
                                                         size=10_000)])
    got = mobility._wrap(x.copy(), length)
    want = x % length
    assert got.tobytes() == want.tobytes()
    # A zero gap in a -1 lane: 0.0 * -1 is -0.0, and % makes it +0.0.
    gap = mobility._wrap(np.array([0.0]) * -1, length)
    assert gap.tobytes() == np.array([0.0]).tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        make_cfg(density=0.0)
    with pytest.raises(ValueError):
        make_cfg(v_min_mps=30.0, v_max_mps=20.0)
    with pytest.raises(ValueError):
        make_cfg(sd=0.0)
    with pytest.raises(ValueError):
        make_cfg(lanes_per_direction=0)
    with pytest.raises(ValueError):       # over half a lap in one step
        make_cfg(lane_length_m=1_000.0, v_max_mps=600.0)
    for accel in (-2.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            make_cfg(accel_mps2=accel)
    make_cfg(accel_mps2=0.0)
