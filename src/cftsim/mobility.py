"""Free-mobility model on a bi-directional multi-lane ring highway.

Vehicles accelerate randomly within speed limits and brake to the speed of
the vehicle ahead whenever the same-lane gap drops to the safety distance or
below.  The road is a ring: positions wrap modulo the lane length, so the
vehicle population is closed and density stays constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Geometry defaults for the simulated highway segment.
LANE_LENGTH_M = 11_000.0   # ring circumference per lane, m
LANE_WIDTH_M = 5.0         # m
LANES_PER_DIRECTION = 2

ACCEL_MAX_MPS2 = 2.0       # acceleration magnitude bound, m/s^2
STEP_S = 1.0               # update interval, s


@dataclass(frozen=True)
class MobilityConfig:
    """Scenario parameters for the highway mobility model.

    density_per_km counts vehicles per km per direction of travel; each
    direction gets floor(density * length_km) vehicles spread round-robin
    over its lanes.  Speeds are in m/s.
    """

    density_per_km: float
    v_min_mps: float
    v_max_mps: float
    safety_distance_m: float
    lane_length_m: float = LANE_LENGTH_M
    lane_width_m: float = LANE_WIDTH_M
    lanes_per_direction: int = LANES_PER_DIRECTION
    accel_mps2: float = ACCEL_MAX_MPS2
    step_s: float = STEP_S

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

    @property
    def vehicles_per_direction(self) -> int:
        return int(np.floor(self.density_per_km * self.lane_length_m / 1000.0))


@dataclass
class Fleet:
    """State of all vehicles: parallel arrays indexed by vehicle id."""

    x: np.ndarray          # position along the ring, m, in [0, lane_length)
    y: np.ndarray          # lateral position, m (fixed per lane)
    speed: np.ndarray      # m/s, non-negative
    direction: np.ndarray  # +1 or -1, sign of travel along x
    lane: np.ndarray       # lane index within the direction

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def vx(self) -> np.ndarray:
        return self.speed * self.direction

    def copy(self) -> "Fleet":
        return Fleet(self.x.copy(), self.y.copy(), self.speed.copy(),
                     self.direction.copy(), self.lane.copy())


def ring_delta(x_from: np.ndarray, x_to: np.ndarray, length: float) -> np.ndarray:
    """Signed shortest displacement from x_from to x_to on the ring."""
    d = np.asarray(x_to) - np.asarray(x_from)
    return (d + length / 2.0) % length - length / 2.0


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
    xs, ys, speeds, dirs, lanes = [], [], [], [], []
    for direction in (1, -1):
        n_dir = cfg.vehicles_per_direction
        for lane in range(cfg.lanes_per_direction):
            # Round-robin split of the direction's vehicles over its lanes.
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
            ys.append(np.full(n_lane, _lane_y(direction, lane, cfg)))
            speeds.append(cfg.v_min_mps
                          + rng.uniform(0.0, 1.0, size=n_lane) * (cfg.v_max_mps - cfg.v_min_mps))
            dirs.append(np.full(n_lane, direction, dtype=np.int64))
            lanes.append(np.full(n_lane, lane, dtype=np.int64))
    return Fleet(
        x=np.concatenate(xs),
        y=np.concatenate(ys),
        speed=np.concatenate(speeds),
        direction=np.concatenate(dirs),
        lane=np.concatenate(lanes),
    )


def _apply_safety_rule(x: np.ndarray, speed: np.ndarray, direction: int,
                       sd: float, length: float) -> None:
    """Brake followers closer than the safety distance, front to back.

    One sweep per step: starting from the vehicle with the largest free gap
    ahead (a local leader), walk the lane backwards and give every crowded
    follower at most its leader's speed.  Because leaders are settled before
    their followers, every crowded pair ends the sweep with rear <= front.
    Mutates speed in place.
    """
    n = x.size
    if n < 2:
        return
    order = np.argsort(x * direction)  # driving order, rearmost first
    x_ord = x[order]
    gaps = (np.roll(x_ord, -1) - x_ord) * direction % length
    # gaps[k] is the room between order[k] and its leader order[k+1].
    leader_slot = int(np.argmax(gaps))  # vehicle with the most room ahead
    for back in range(n):
        k = (leader_slot - back) % n        # follower slot
        lead = (k + 1) % n
        if gaps[k] <= sd:
            i, j = order[k], order[lead]
            if speed[i] > speed[j]:
                speed[i] = speed[j]


def step(fleet: Fleet, cfg: MobilityConfig, rng: np.random.Generator) -> None:
    """Advance the fleet by one time step, in place.

    Speed noise first, then position updates with ring wraparound, then the
    safety-distance rule per lane at the new spacings, so crowded pairs
    always leave the step with the rear no faster than the front.
    """
    gamma = rng.uniform(-1.0, 1.0, size=fleet.n)
    fleet.speed += gamma * cfg.accel_mps2 * cfg.step_s
    np.clip(fleet.speed, cfg.v_min_mps, cfg.v_max_mps, out=fleet.speed)
    fleet.x += fleet.vx * cfg.step_s
    fleet.x %= cfg.lane_length_m
    for direction in (1, -1):
        for lane in range(cfg.lanes_per_direction):
            mask = (fleet.direction == direction) & (fleet.lane == lane)
            idx = np.nonzero(mask)[0]
            if idx.size < 2:
                continue
            speeds = fleet.speed[idx]
            _apply_safety_rule(fleet.x[idx], speeds, direction,
                               cfg.safety_distance_m, cfg.lane_length_m)
            fleet.speed[idx] = speeds


def warm_up(fleet: Fleet, cfg: MobilityConfig, rng: np.random.Generator,
            steps: int) -> None:
    for _ in range(steps):
        step(fleet, cfg, rng)


def lane_gaps(fleet: Fleet, direction: int, lane: int, cfg: MobilityConfig) -> np.ndarray:
    """Forward gaps within one lane, in driving order (rearmost first)."""
    mask = (fleet.direction == direction) & (fleet.lane == lane)
    x = fleet.x[mask]
    if x.size < 2:
        return np.empty(0)
    x_ord = np.sort(x * direction)
    return (np.roll(x_ord, -1) - x_ord) % cfg.lane_length_m
