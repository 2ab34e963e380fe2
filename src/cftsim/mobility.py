"""Free-mobility model on a bi-directional multi-lane ring highway.

Vehicles accelerate randomly within speed limits and brake to the speed of
the vehicle ahead whenever the same-lane gap drops to the safety distance or
below.  The road is a ring: positions wrap modulo the lane length, so the
vehicle population is closed and density stays constant.  Braking is one
vectorised chain minimum over all lanes per step; ``step`` states the rule.
In a lane with no gap over the safety distance, every vehicle takes the
lane's least speed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class MobilityConfig:
    """Scenario parameters for the highway mobility model.

    density_per_km counts vehicles per km per direction of travel; each
    direction gets floor(density * length_km) vehicles spread round-robin
    over its lanes.  Speeds are in m/s.  lane_length_m is the ring
    circumference of each lane, accel_mps2 bounds the random acceleration,
    and step_s is the update interval.
    """

    density_per_km: float
    v_min_mps: float
    v_max_mps: float
    safety_distance_m: float
    lane_length_m: float
    lane_width_m: float
    lanes_per_direction: int
    accel_mps2: float
    step_s: float

    def __post_init__(self):
        if self.density_per_km <= 0.0:
            raise ValueError("density_per_km must be positive")
        if not 0.0 <= self.v_min_mps <= self.v_max_mps:
            raise ValueError("need 0 <= v_min_mps <= v_max_mps")
        if self.safety_distance_m <= 0.0:
            raise ValueError("safety_distance_m must be positive")
        if self.lane_length_m <= 0.0 or self.step_s <= 0.0:
            raise ValueError("lane_length_m and step_s must be positive")
        if self.lanes_per_direction < 1:
            raise ValueError("need at least one lane per direction")
        if not 0.0 <= self.accel_mps2 < math.inf:
            raise ValueError("accel_mps2 must be finite and not negative")
        # Keeps a stepped position within the interval _wrap handles.
        if self.v_max_mps * self.step_s > self.lane_length_m / 2.0:
            raise ValueError("a vehicle may not drive over half a lap in "
                             "one step")

    @property
    def vehicles_per_direction(self) -> int:
        return int(np.floor(self.density_per_km * self.lane_length_m / 1000.0))


@dataclass(frozen=True)
class LaneGroups:
    """Fixed index layout of a fleet's lanes, for braking all lanes at once.

    Vehicles are grouped by (direction, lane).  Sorting by (group, position)
    puts each group in one block of "slots"; the per-slot arrays describe
    that block layout.  It is fixed, since vehicles never change lanes,
    and ``of`` builds it once per layout: every fleet with the same
    direction and lane arrays, a fleet branched from a warm start for
    one, shares it.
    """

    group: np.ndarray           # group id per vehicle
    slot: np.ndarray            # 0, 1, ..., n - 1
    lanes: int                  # number of groups
    slot_direction: np.ndarray  # direction of travel per slot
    ahead: np.ndarray           # slot ahead in driving order, cyclic per group
    # Most passes a chain minimum over one lane can take: ceil(log2(largest
    # lane)) to cover the lane, and one to see that nothing changes.
    passes: int

    @classmethod
    def of(cls, direction: np.ndarray, lane: np.ndarray) -> "LaneGroups":
        return _lane_groups(np.asarray(direction, np.int64).tobytes(),
                            np.asarray(lane, np.int64).tobytes())

    @classmethod
    def build(cls, direction: np.ndarray, lane: np.ndarray) -> "LaneGroups":
        keys, group, counts = np.unique(
            np.stack((direction, lane)), axis=1, return_inverse=True,
            return_counts=True)
        ends = np.cumsum(counts)
        slot = np.arange(direction.size)
        ahead = slot + 1
        ahead[ends - 1] = ends - counts
        return cls(
            group=group.reshape(-1), slot=slot, lanes=counts.size,
            slot_direction=np.repeat(keys[0], counts), ahead=ahead,
            passes=int(counts.max() - 1).bit_length() + 1)


# A 4,000-vehicle batch's layout takes about 200 kB with its key, so only
# the layouts of the last few fleets and batches are kept.
@functools.lru_cache(maxsize=16)
def _lane_groups(direction: bytes, lane: bytes) -> LaneGroups:
    return LaneGroups.build(np.frombuffer(direction, np.int64),
                            np.frombuffer(lane, np.int64))


@dataclass
class Fleet:
    """State of all vehicles: parallel arrays indexed by vehicle id."""

    x: np.ndarray          # position along the ring, m, in [0, lane_length]
    y: np.ndarray          # lateral position, m (fixed per lane)
    speed: np.ndarray      # m/s, non-negative
    direction: np.ndarray  # +1 or -1, sign of travel along x
    lane: np.ndarray       # lane index within the direction
    # Built from direction and lane on first use; copies share it.
    _groups: LaneGroups | None = field(default=None, repr=False, compare=False)
    # Vehicle ids slot by slot, each lane in cyclic driving order, as the
    # last braking pass found them; replaced, never written, so copies
    # share it.
    _order: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def vx(self) -> np.ndarray:
        return self.speed * self.direction

    @property
    def lane_groups(self) -> LaneGroups:
        if self._groups is None:
            self._groups = LaneGroups.of(self.direction, self.lane)
        return self._groups

    def copy(self) -> "Fleet":
        return Fleet(self.x.copy(), self.y.copy(), self.speed.copy(),
                     self.direction.copy(), self.lane.copy(), self._groups,
                     self._order)


def ring_delta(x_from, x_to, length: float):
    """Signed shortest displacement from x_from to x_to on the ring, for
    floats or arrays (broadcast together) alike."""
    d = x_to - x_from
    return (d + length / 2.0) % length - length / 2.0


def _wrap(a: np.ndarray, length: float) -> np.ndarray:
    """a % length, in place, for every a in [-length, 2 * length).

    Bit for bit what numpy's float remainder gives there, signed zeros
    included, for a third of its cost: fmod is exact on that interval,
    so the remainder is a itself or a -/+ length.  As with %, a tiny
    negative a whose a + length rounds up gives length, and a zero of
    either sign gives +0.0.
    """
    np.subtract(a, length, out=a, where=a >= length)
    np.add(a, length, out=a, where=a < 0.0)
    a += 0.0                  # -0.0 + 0.0 is +0.0
    return a


def _lane_y(direction: int, lane: int, cfg: MobilityConfig) -> float:
    # Lanes of the +1 direction sit above the median, -1 below.
    offset = (lane + 0.5) * cfg.lane_width_m
    return offset if direction > 0 else -offset


def init_scenario(cfg: MobilityConfig, rng: np.random.Generator) -> Fleet:
    """Populate both directions of the ring with randomised gaps and speeds.

    Per lane, vehicles are laid head to tail with gaps (1 + g) * SD for
    g ~ U[0, 1], starting from a random offset.  If the drawn gaps exceed the
    ring length (dense scenarios), they are rescaled uniformly so the lane
    still closes.  Initial speeds are uniform on [v_min, v_max].
    """
    n_dir, k = cfg.vehicles_per_direction, cfg.lanes_per_direction
    # Round-robin split of each direction's vehicles over its lanes; an
    # empty lane draws nothing.
    layout = [(direction, lane, n_dir // k + (lane < n_dir % k))
              for direction in (1, -1) for lane in range(k)]
    directions, lanes, counts = zip(*[spec for spec in layout if spec[2] > 0])
    # Lane by lane: n gap fractions, the start offset's fraction and n
    # speed fractions, all from one draw.  uniform(0, 1, n) is 0 + 1 * u
    # and uniform(0, L) is L * u, so this is bit for bit what one uniform
    # call per draw gives, and leaves the generator where they leave it.
    u = rng.random(sum(2 * n + 1 for n in counts))
    xs, fracs, at = [], [], 0
    for n in counts:
        gaps = (1.0 + u[at:at + n]) * cfg.safety_distance_m
        total = gaps.sum()
        if total > cfg.lane_length_m:
            gaps *= cfg.lane_length_m / total
        start = cfg.lane_length_m * u[at + n]
        xs.append((start + np.concatenate(([0.0], np.cumsum(gaps[:-1]))))
                  % cfg.lane_length_m)
        fracs.append(u[at + n + 1:at + 2 * n + 1])
        at += 2 * n + 1
    return Fleet(
        x=np.concatenate(xs),
        y=np.repeat([_lane_y(d, lane, cfg) for d, lane in zip(directions, lanes)],
                    counts),
        speed=cfg.v_min_mps
        + np.concatenate(fracs) * (cfg.v_max_mps - cfg.v_min_mps),
        direction=np.repeat(np.array(directions, np.int64), counts),
        lane=np.repeat(np.array(lanes, np.int64), counts),
    )


def _lane_gaps(x: np.ndarray, order: np.ndarray, g: LaneGroups,
               length: float) -> np.ndarray:
    """Room ahead of each slot, with the lanes laid out by order.

    Positions lie in [0, length] (``_wrap``), so a difference lies in
    [-length, length], and only a negative one is wrapped, as % would.  A
    zero gap may read -0.0, which no test on gaps tells from +0.0.  A gap
    from a vehicle at 0.0 to one at length reads length where % reads 0:
    a kept order with it fails the check by a whole lap, and a sorted lane
    has it only when all its vehicles sit on that point.
    """
    x_ord = x[order]
    gaps = (x_ord[g.ahead] - x_ord) * g.slot_direction
    np.add(gaps, length, out=gaps, where=gaps < 0.0)
    return gaps


def _brake_to_leaders(fleet: Fleet, sd: float, length: float) -> None:
    """Apply the safety-distance rule of ``step`` to every lane, in place.

    A vehicle's new speed is the least pre-step speed over itself and the
    vehicles ahead of it, up to and including the first one whose gap
    ahead exceeds SD.  That is a minimum along a chain: each slot points
    at the slot ahead when its gap is within SD, and at itself otherwise.
    Pointer jumping computes it for all lanes at once: each pass takes the
    minimum with the slot pointed at, then points every slot twice as far,
    so k passes cover 2**k vehicles of each chain.  The loop stops at the
    first pass after the first that changes nothing, since no later pass
    can then change anything, and after at most ``LaneGroups.passes``
    passes.  A lane with no gap over SD is one chain round the whole lane,
    so every vehicle takes the lane's least speed.  The minimum does no
    arithmetic, so each new speed is a pre-step speed bit for bit.

    The order the last pass laid out is kept on the fleet and reused while
    a cheap check of the new gaps shows it still holds; otherwise every
    lane is sorted afresh with ``lexsort``.  The check asks for two
    things:

    - no gap is zero, so there is no tie for the sort to break by id;
    - the gaps of all lanes sum to under (lanes + 1/2) laps.  With every
      gap positive, a lane's gaps sum to a whole number of laps, at least
      one, and to exactly one only in driving order.

    A kept order may start a lane at another vehicle than the sort would
    (a vehicle that wraps past the ring's end rotates the sorted order);
    the chains do not depend on where a lane starts.  A one-vehicle lane
    has a zero gap, so a fleet with one is sorted on every step.
    """
    g = fleet.lane_groups
    order = fleet._order
    if order is not None:
        gaps = _lane_gaps(fleet.x, order, g, length)
        if not (gaps.min() > 0.0 and gaps.sum() < (g.lanes + 0.5) * length):
            order = None
    if order is None:
        order = np.lexsort((fleet.x * fleet.direction, g.group))
        gaps = _lane_gaps(fleet.x, order, g, length)
    fleet._order = order
    nxt = np.where(gaps <= sd, g.ahead, g.slot)
    m = fleet.speed[order]
    for k in range(g.passes):
        m_next = np.minimum(m, m[nxt])
        # The first pass skips the check: a pass after the chains settle
        # changes nothing.  NaN != NaN, so a NaN speed runs the loop to
        # its cap.
        if k and not (m_next != m).any():
            break
        m = m_next
        nxt = nxt[nxt]
    fleet.speed[order] = m


def _kicks(u: np.ndarray, cfg: MobilityConfig) -> np.ndarray:
    """Speed changes from uniform draws u in [0, 1), in place.

    The noise is rng.uniform(-1.0, 1.0), which draws u and returns
    -1 + 2u; the doubling is exact, so 2u - 1 is the same number.  A kick
    is (noise * accel_mps2) * step_s, in that order.
    """
    u *= 2.0
    u -= 1.0
    u *= cfg.accel_mps2
    u *= cfg.step_s
    return u


def _advance(fleet: Fleet, cfg: MobilityConfig, kick: np.ndarray,
             heading: np.ndarray) -> None:
    """One step of ``step``, given each vehicle's speed change from
    ``_kicks`` and its heading, direction * step_s.

    It draws nothing: ``step`` draws one row of noise per call, and
    ``warm_up_batch`` a block of rows per generator call.  speed * heading
    is the velocity times step_s bit for bit: multiplying by +/-1 is exact
    and rounding is symmetric in sign.  The clip to [v_min, v_max] passes
    a NaN speed on.
    """
    speed = fleet.speed
    speed += kick
    np.maximum(speed, cfg.v_min_mps, out=speed)
    np.minimum(speed, cfg.v_max_mps, out=speed)
    fleet.x += speed * heading
    _wrap(fleet.x, cfg.lane_length_m)
    _brake_to_leaders(fleet, cfg.safety_distance_m, cfg.lane_length_m)


def step(fleet: Fleet, cfg: MobilityConfig, rng: np.random.Generator) -> None:
    """Advance the fleet by one time step, in place.

    Speed noise first, then position updates with ring wraparound, then the
    safety-distance rule at the new spacings.  The rule is a chain minimum
    per lane: a vehicle within SD of the one ahead belongs to that one's
    chain, and a vehicle with more than SD ahead ends its chain.  Each
    vehicle takes the least pre-step speed over itself and the vehicles
    ahead of it, up to and including the end of its chain, so every
    crowded pair leaves the step with the rear no faster than the front.
    In the cycle case, when every gap of a lane is within SD, the lane is
    one platoon with no vehicle free ahead of it: its chain runs round the
    whole lane and every vehicle takes the lane's least speed.

    Each lane's driving order is kept on the fleet from one step to the
    next and reused while a check of the new gaps confirms it (no zero
    gap, one lap per lane); otherwise the lanes are sorted afresh.  Either
    way the step's result is the same.

    The noise is one ``rng.random(n)`` call: the n draws that
    ``rng.uniform(-1.0, 1.0, n)`` makes, so the generator ends where that
    call leaves it.
    """
    _advance(fleet, cfg, _kicks(rng.random(fleet.n), cfg),
             fleet.direction * cfg.step_s)


# Most vehicles one batched warm-up steps at once.  simulator.warm_starts
# cuts every seeded experiment's keys into key batches of at most this many
# vehicles, and Trajectory.step_together steps the first rows of a
# max-volume key batch's trajectories.
# Warming up 240 keys (5-10 veh/km, 40 seeds each) for 300 steps took
# 6-9 us per seed-step in batches of up to 2,000 vehicles, 5-7 us in
# batches of up to 4,000 and 5-6 us in batches of up to 8,000 or 16,000
# (best of 3, four runs each, 2-core Xeon VM, numpy 2.4.6).  Much larger
# batches cost time and memory: the shipped max-volume sweep's 1,200 keys
# as one batch ran 5.4-6.9 s against 4.7-5.1 s and lifted its peak RSS
# from 65 to 311 MB.
BATCH_VEHICLES = 4_000

# Steps of noise a batched warm-up draws per generator call: each member's
# generator fills a block of up to this many rows, one per step.  The
# block holds NOISE_ROWS * 8 bytes per vehicle of the batch, 1 MB at
# BATCH_VEHICLES; tracemalloc puts the peak of a 300-step warm-up at 0.73
# MB against 0.23 MB with one row per call at 1,980 vehicles, and at 0.49
# MB against 0.15 MB at 1,320.
NOISE_ROWS = 32


def batches(sizes: Sequence[int]) -> list[slice]:
    """Consecutive runs of sizes, in order, of at most BATCH_VEHICLES
    vehicles each; a size over the bound is a run of its own."""
    runs, first, vehicles = [], 0, 0
    for i, n in enumerate(sizes):
        if i > first and vehicles + n > BATCH_VEHICLES:
            runs.append(slice(first, i))
            first, vehicles = i, 0
        vehicles += n
    return runs + [slice(first, len(sizes))] if sizes else []


def warm_up_batch(
        members: Sequence[tuple[Fleet, MobilityConfig, np.random.Generator]],
        steps: int, record: Sequence[tuple[np.ndarray, np.ndarray]] = ()
) -> None:
    """Step several fleets, each exactly as ``steps`` calls of ``step``
    would.

    members holds (fleet, cfg, rng) triples whose configs agree in all but
    density_per_km.  Consecutive members are stepped together, in batches
    of at most BATCH_VEHICLES vehicles (``batches``; a larger member is a
    batch of its own): every step runs the kinematics and the braking pass
    once over the lanes of the batch.  Each member's noise comes from its
    own generator in blocks of up to NOISE_ROWS steps, one
    ``rng.random((rows, n))`` call per block: the draws ``step`` makes, in
    the order it makes them.  The last block holds only the steps left, so
    every generator ends exactly where ``steps`` calls of ``step`` leave
    it.  Each member's x and speed are written back into its fleet.
    record, if given, holds one (x_rows, speed_rows) pair of arrays per
    member, with a row per step: row j receives the member's x and speed
    after step j + 1.
    """
    if not members:
        raise ValueError("a batched warm-up needs at least one member")
    if record and len(record) != len(members):
        raise ValueError("record needs one pair of arrays per member")
    cfg = members[0][1]
    for _, other, _ in members:
        if replace(other, density_per_km=cfg.density_per_km) != cfg:
            raise ValueError("the members' mobility configs may differ only "
                             "in density_per_km")
    if steps == 0:
        return
    for run in batches([fleet.n for fleet, _, _ in members]):
        _warm_up_together(members[run], cfg, steps, record[run])


def _warm_up_together(members: Sequence, cfg: MobilityConfig, steps: int,
                      record: Sequence) -> None:
    """Step the members' fleets as one fleet; see ``warm_up_batch``."""
    fleets = [fleet for fleet, _, _ in members]
    bounds = np.cumsum([0] + [fleet.n for fleet in fleets]).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))

    def joined(name: str) -> np.ndarray:
        return np.concatenate([getattr(fleet, name) for fleet in fleets])

    # Every member's lanes are lanes of their own in the batch.
    lane = joined("lane")
    member = np.repeat(np.arange(len(fleets)), np.diff(bounds))
    batch = Fleet(joined("x"), joined("y"), joined("speed"),
                  joined("direction"), lane + member * (lane.max() + 1))
    heading = batch.direction * cfg.step_s
    kicks = np.empty((min(steps, NOISE_ROWS), batch.n))
    for first in range(0, steps, NOISE_ROWS):
        block = kicks[:steps - first]
        for (_, _, rng), (lo, hi) in zip(members, spans):
            block[:, lo:hi] = rng.random((len(block), hi - lo))
        for j, kick in enumerate(_kicks(block, cfg), first):
            _advance(batch, cfg, kick, heading)
            for (x_rows, speed_rows), (lo, hi) in zip(record, spans):
                x_rows[j] = batch.x[lo:hi]
                speed_rows[j] = batch.speed[lo:hi]
    for fleet, (lo, hi) in zip(fleets, spans):
        fleet.x[:] = batch.x[lo:hi]
        fleet.speed[:] = batch.speed[lo:hi]
