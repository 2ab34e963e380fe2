"""Seeded experiment engine: scenario generation, sweeps, aggregation.

Each experiment walks a parameter grid; every (grid point, seed) pair gets
its own deterministic RNG stream derived from the base seed, so results are
independent of execution order and bit-identical across repeats.  Aggregates
always retain the per-run records they were computed from.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import mobility
from .channel import expected_rate, expected_rates
from .config import DENSITY_KEY_SCALE, Config, seed_key
from .connection import NEAR_SLACK_M, connection_times, in_range_mask
from .mobility import Fleet, MobilityConfig
from .protocol import (Snapshot, VehicleState, form_cluster, recruit, run_cft,
                       run_direct_baseline)
# Not called here: perfbench/tracing.py times link_budget at this lookup site.
from .protocol import link_budget  # noqa: F401

# Stream ids keep RNG derivation stable without relying on string hashing.
_STREAMS = {"connection": 1, "capability": 2, "max-volume": 3, "cluster": 4}

MAX_REQUEST_WAIT_STEPS = 900


def _rng(base_seed: int, stream: str, *key: int) -> np.random.Generator:
    parts = [int(base_seed), _STREAMS[stream], *key]
    return np.random.default_rng(np.random.SeedSequence(parts))


@dataclass
class SweepResult:
    """A metric table plus the per-run records behind each aggregate row."""

    header: list[str]
    rows: list[tuple]
    records: dict = field(default_factory=dict)


def write_csv(path: str, result: SweepResult) -> None:
    """Write rows with a fixed number format so repeats are byte-identical."""
    def fmt(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, str):
            return v
        return f"{float(v):.6f}"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(result.header) + "\n")
        for row in result.rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Pair-population metrics: connection time and transmission capability


def _opposite_pairs(fleet: Fleet, length_m: float, range_m: float):
    """Every pair of opposite-direction vehicles within range_m, as
    connection.in_range_mask tests it, eastbound index major and westbound
    index minor.

    Returns (east, west, dx, dy, dvx, dist): each pair's indices among the
    eastbound and among the westbound vehicles, in vid order, its position
    and velocity relative to the eastbound one, and its np.hypot distance;
    dvy is zero on a straight highway.  Positions lie in [0, length_m]
    (a wrap can give length_m itself), so a band test on the raw
    |x_b - x_a| first keeps only the pairs whose ring distance along x is
    within range_m + NEAR_SLACK_M; ring_delta, the offsets, the distances
    and the exact test run on those alone.
    """
    fwd = fleet.direction > 0
    bwd = ~fwd
    xa, ya, va = fleet.x[fwd], fleet.y[fwd], fleet.vx[fwd]
    xb, yb, vb = fleet.x[bwd], fleet.y[bwd], fleet.vx[bwd]
    gap = np.abs(xb[None, :] - xa[:, None])
    reach = range_m + NEAR_SLACK_M
    east, west = np.nonzero((gap <= reach) | (gap >= length_m - reach))
    dx = mobility.ring_delta(xa[east], xb[west], length_m)
    dy = yb[west] - ya[east]
    dist = np.hypot(dx, dy)
    near = in_range_mask(dx, dy, range_m, dist)
    east, west = east[near], west[near]
    return (east, west, dx[near], dy[near], vb[west] - va[east],
            dist[near])


def _pair_sweep(cfg: Config, stream: str, value_name: str,
                pair_values) -> SweepResult:
    """Per-range mean of pair_values(dist, dts) over in-range opposite
    pairs, given their np.hypot distances and horizon-capped residual
    connection times; each seed's mean over its warmed-up fleet is one
    record.

    The fleets come from warm_starts, with no range in their RNG keys, one
    key batch at a time, each let go once its near pairs are taken.  Each
    seed's pairs within the longest range are enumerated once
    (_opposite_pairs: a band test on raw positions cuts the fleet's pairs
    to the near ones, and the exact test decides); the pairs within a
    shorter range are among them.  Every seed's near pairs are
    concatenated, each seed's contiguous and in its own order, eastbound
    index major and westbound index minor.  Per range, one in_range_mask
    selection and one connection_times and pair_values pass cover every
    seed, and a seed's record is the mean of its own slice: np.add.reduce
    (the pairwise sum np.mean takes) over that seed's pairs alone, in the
    order a pass over that seed alone sums them, divided by their count,
    so the record is the same to the last bit (np.add.reduceat would sum
    each slice left to right and round differently).

    A seed with no pair in range gives no record, so a range that no pair
    reaches in any seed gets the row value nan and n_runs 0.
    """
    e = cfg.experiments
    density = e.connection_density_per_km
    sd = e.safety_distance_m
    keys = [(density, seed_idx) for seed_idx in range(e.seeds)]
    pairs = []
    for batch in warm_starts(cfg, keys, sd, None, e.warmup_steps, stream):
        pairs += [_opposite_pairs(start.fleet, start.mcfg.lane_length_m,
                                  max(e.comm_ranges_m)) for _, start in batch]
        del batch
    starts = np.cumsum([0] + [east.size for east, *_ in pairs])
    dx, dy, dvx, dist = (np.concatenate([p[k] for p in pairs])
                         for k in range(2, 6))
    del pairs
    records = {}
    for r_m in e.comm_ranges_m:
        sel = in_range_mask(dx, dy, r_m, dist)
        dts = np.minimum(
            connection_times(dx[sel], dy[sel], dvx[sel], 0.0, r_m),
            e.horizon_s)
        values = pair_values(dist[sel], dts)
        # Seed k's selected pairs are values[edges[k]:edges[k + 1]].
        edges = np.searchsorted(np.flatnonzero(sel), starts)
        records[(r_m,)] = [float(np.add.reduce(values[lo:hi]) / (hi - lo))
                           for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    rows = []
    for r_m in e.comm_ranges_m:
        rec = records[(r_m,)]
        mean = float(np.mean(rec)) if rec else math.nan
        rows.append((r_m, density, sd, mean, len(rec)))
    return SweepResult(
        header=["comm_range_m", "density_per_km", "safety_distance_m",
                value_name, "n_runs"],
        rows=rows,
        records=records,
    )


def connection_time_sweep(cfg: Config) -> SweepResult:
    """Mean residual connection time of in-range opposite-direction pairs.

    Sampled at the instant warm-up ends; unbounded or over-horizon
    predictions are capped at the experiment horizon.
    """
    return _pair_sweep(cfg, "connection", "avg_connection_time_s",
                       lambda dist, dts: dts)


def _rate_table(cfg: Config, max_distance_m: float) -> np.ndarray:
    """Expected rate at each key int(4 * d) up to max_distance_m, that is
    expected_rate(max(key / 4, 0.25)), filled in one exact vectorised pass."""
    keys = np.arange(int(4 * max_distance_m) + 1)
    return expected_rates(np.maximum(keys / 4.0, 0.25), cfg.channel, cfg.rates)


def _link_capacities(rate_table: np.ndarray, dist: np.ndarray,
                     dts: np.ndarray, s_bytes: float) -> np.ndarray:
    """Whole fragments of s_bytes each pair's link carries in its time dts,
    in bytes: s * int(rate * t / (8 s)), pair by pair, with each pair's
    rate read from the table at its distance quantised down to 0.25 m."""
    rates = rate_table[(dist * 4).astype(np.int64)]
    return s_bytes * np.trunc(rates * dts / (8.0 * s_bytes))


def capability_sweep(cfg: Config) -> SweepResult:
    """Mean whole-fragment link capacity over the same pair population.

    Each pair's rate is read from one table over the 0.25 m distance keys
    up to the longest range, built before the sweep (_rate_table).
    """
    s = cfg.experiments.fragment_bytes
    table = _rate_table(cfg, max(cfg.experiments.comm_ranges_m))
    return _pair_sweep(cfg, "capability", "avg_capability_bytes",
                       lambda dist, dts: _link_capacities(table, dist, dts, s))


def throughput_sweep(cfg: Config) -> SweepResult:
    """Expected MAC throughput over the (density, range) grid.

    The contender count scales with density times carrier-sense range, so
    both grid axes feed the Poisson mean.  The forwarding data rate is the
    configured nominal rate; the result is analytic and deterministic.
    """
    from .mac import throughput
    e = cfg.experiments
    rows, records = [], {}
    for density in e.densities_per_km:
        for r_m in e.comm_ranges_m:
            val = throughput(cfg.mac_for(r_m, density), e.nominal_mac_rate_bps)
            rows.append((density, r_m, val))
            records[(density, r_m)] = [val]
    return SweepResult(
        header=["density_per_km", "comm_range_m", "avg_throughput_bps"],
        rows=rows,
        records=records,
    )


def rate_curve(cfg: Config) -> SweepResult:
    """Expected PHY rate versus link distance, 10 m to 600 m."""
    rows = [(float(d), expected_rate(float(d), cfg.channel, cfg.rates))
            for d in np.arange(10.0, 601.0, 10.0)]
    return SweepResult(header=["distance_m", "expected_rate_bps"], rows=rows)


# ---------------------------------------------------------------------------
# Transfer scenarios: one request vehicle meeting a designated resource


class Trajectory:
    """Kinematic record of every vehicle from the request instant on, and
    a traffic source like protocol.Ballistic.

    The trajectory owns the fleet and the generator of its traffic, and
    steps them only as far as a reader asks: ``state`` to the step it
    reads, ``window`` until the pair's first in-range run has closed.
    ``step_together`` steps the first rows of several fresh trajectories
    at once, before any reader asks.  The horizon caps how far a reader
    may look; a read past it sees the last step.  Nothing else draws from
    the generator after the request instant, so a step taken late draws
    the same numbers as one taken at once.  ``x`` and ``speed`` hold the
    rows stepped so far, one per step from the request instant (row 0).
    """

    def __init__(self, fleet: Fleet, mcfg: MobilityConfig,
                 rng: np.random.Generator, horizon_s: float):
        self._fleet, self._mcfg, self._rng = fleet, mcfg, rng
        self.n_steps = int(round(horizon_s / mcfg.step_s))
        self._x = fleet.x[None, :].copy()
        self._speed = fleet.speed[None, :].copy()
        self._k = 0              # last row stepped
        self.y = fleet.y
        self.direction = fleet.direction
        self.dt_s = mcfg.step_s
        self.length_m = mcfg.lane_length_m
        self._windows = {}

    @property
    def x(self) -> np.ndarray:
        return self._x[:self._k + 1]

    @property
    def speed(self) -> np.ndarray:
        return self._speed[:self._k + 1]

    @staticmethod
    def step_together(trajectories: list["Trajectory"], k: int) -> None:
        """Step fresh trajectories (row 0 only) to row k, capped at the
        horizon, in the batch kernel (mobility.warm_up_batch).  Each
        records the rows, and draws the numbers, that stepping it on
        demand would."""
        if any(t._k for t in trajectories):
            raise ValueError("only a fresh trajectory is stepped together")
        k = min([k] + [t.n_steps for t in trajectories])
        if k <= 0:
            return
        for t in trajectories:
            t._reserve(k + 1)
        mobility.warm_up_batch(
            [(t._fleet, t._mcfg, t._rng) for t in trajectories], k,
            [(t._x[1:k + 1], t._speed[1:k + 1]) for t in trajectories])
        for t in trajectories:
            t._k = k

    def _reserve(self, rows: int) -> None:
        """Room for at least rows rows.  The record grows by doubling, up
        to the horizon, so a trajectory read a few rows deep stays small."""
        have = self._x.shape[0]
        if rows > have:
            rows = min(max(rows, 2 * have), self.n_steps + 1)
            for name in ("_x", "_speed"):
                grown = np.empty((rows, self._fleet.n))
                grown[:self._k + 1] = getattr(self, name)[:self._k + 1]
                setattr(self, name, grown)

    def _step_to(self, k: int) -> int:
        """Step until row k, capped at the horizon, is recorded; returns
        the capped k."""
        k = min(k, self.n_steps)
        self._reserve(k + 1)
        while self._k < k:
            mobility.step(self._fleet, self._mcfg, self._rng)
            self._k += 1
            self._x[self._k] = self._fleet.x
            self._speed[self._k] = self._fleet.speed
        return k

    def state(self, vid: int, t_s: float) -> VehicleState:
        k = self._step_to(max(int(round(t_s / self.dt_s)), 0))
        return VehicleState(
            vid=vid,
            x=float(self._x[k, vid]),
            y=float(self.y[vid]),
            vx=float(self._speed[k, vid] * self.direction[vid]),
            vy=0.0,
        )

    def window(self, vid_a: int, vid_b: int, range_m: float):
        """First contiguous in-range interval of the pair, in seconds,
        found once and kept.  A run still open at the horizon ends there; a
        pair never in range up to the horizon gives (0.0, 0.0)."""
        key = (vid_a, vid_b, range_m)
        if key not in self._windows:
            self._windows[key] = self._scan_window(*key)
        return self._windows[key]

    def _scan_window(self, vid_a: int, vid_b: int, range_m: float):
        # The rows stepped so far, then each row as it is stepped.
        dy = self.y[vid_b] - self.y[vid_a]
        start, k = None, 0
        while k <= self.n_steps:
            x = self._x[k:self._k + 1]
            dx = mobility.ring_delta(x[:, vid_a], x[:, vid_b], self.length_m)
            inside = in_range_mask(dx, dy, range_m).tolist()
            for row, now_in in enumerate(inside, k):
                if start is None and now_in:
                    start = row
                elif start is not None and not now_in:
                    return (start * self.dt_s, row * self.dt_s)
            k = self._k + 1
            self._step_to(k)
        return (0.0, 0.0) if start is None else (start * self.dt_s,
                                                 k * self.dt_s)


def _snapshot(x: np.ndarray, y: np.ndarray, vx: np.ndarray) -> Snapshot:
    """The fleet's Snapshot, vid i in row i, from its positions and signed
    speeds; vy is zero on a straight highway."""
    return Snapshot(np.arange(x.size), x, y, vx, np.zeros(x.size))


@dataclass
class TransferScenario:
    """One request: the head and resource vids, and the trajectory from its
    instant on.

    snapshot holds every vehicle at the request instant, the trajectory's
    row 0, and is built on first read; every scheme plans on it, and
    snapshot[vid] equals trajectory.state(vid, 0.0).
    """

    head_vid: int
    resource_vid: int
    trajectory: Trajectory

    @cached_property
    def snapshot(self) -> Snapshot:
        t = self.trajectory
        return _snapshot(t.x[0].copy(), t.y, t.speed[0] * t.direction)


@dataclass(frozen=True)
class WarmStart:
    """Warmed-up traffic of one experiment key, before any request.

    Every request branches from copies of the fleet and the generator, so
    the schemes of one key share a warm-up and each sees the same traffic
    and the same point in the generator's stream.  comm_range_m is the
    range a request looks for its resource in; a pair sweep's warm start,
    which no request branches from, has None.
    """

    fleet: Fleet
    mcfg: MobilityConfig
    rng: np.random.Generator
    comm_range_m: float | None


def warm_starts(cfg: Config, keys, sd: float, comm_range_m: float | None,
                warmup_steps: int, stream: str
                ) -> Iterator[list[tuple[tuple, WarmStart]]]:
    """Populate and warm up the traffic of every (density, seed_idx) key at
    one SD on one RNG stream, and yield it one key batch at a time.

    The keys are cut, in order, into mobility.batches of their fleet sizes.
    A batch is warmed up together (mobility.warm_up_batch) only when the
    caller asks for it, and comes as a list of (key, WarmStart) pairs; each
    key's traffic is exactly what warming it up alone gives.  A caller that
    lets each batch go before asking for the next holds one batch of
    fleets at a time.  A key's RNG key is the stream, the density, the
    range (none when comm_range_m is None, as in the pair sweeps), the SD
    and the seed index.
    """
    ranges = () if comm_range_m is None else (seed_key(comm_range_m),)
    sizes = [2 * cfg.mobility(density, sd).vehicles_per_direction
             for density, _ in keys]
    for run in mobility.batches(sizes):
        batch = []
        for density, seed_idx in keys[run]:
            mcfg = cfg.mobility(density, sd)
            rng = _rng(cfg.experiments.base_seed, stream,
                       seed_key(density, DENSITY_KEY_SCALE), *ranges,
                       seed_key(sd), seed_idx)
            batch.append(((density, seed_idx),
                          WarmStart(mobility.init_scenario(mcfg, rng), mcfg,
                                    rng, comm_range_m)))
        mobility.warm_up_batch([(w.fleet, w.mcfg, w.rng) for _, w in batch],
                               warmup_steps)
        yield batch


def _branch_rng(rng: np.random.Generator) -> np.random.Generator:
    """A generator at rng's point of rng's stream, drawing independently of
    rng: a copy of its bit generator's state."""
    bit_generator = type(rng.bit_generator)()
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator)


def request_instant(start: WarmStart, request_at: str):
    """Branch from a warm start and step it to the instant its file
    request fires; start itself is left as it was.

    The request vehicle is an eastbound vehicle near the middle of the
    ring.  request_at picks the instant its file request fires:

    - "contact": at a random instant during an ongoing pass.  The holder
      is drawn uniformly from the westbound vehicles currently in range,
      so the request catches that link at a random phase and only its
      remainder is usable.  This is the natural setting for a scheme that
      grabs whatever link it happens to have.
    - "encounter": the moment a fresh westbound holder enters range, so
      the whole pass lies ahead.  A scheme that plans a transfer starts
      the clock when it discovers the resource, which happens at first
      beacon contact.

    Returns (fleet, head, resource, rng): the branch's fleet at that
    instant, the head and resource vids, and the generator that steps the
    same traffic on from it.
    """
    if request_at not in ("contact", "encounter"):
        raise ValueError(f"unknown request_at '{request_at}'")
    mcfg, comm_range_m = start.mcfg, start.comm_range_m
    fleet, rng = start.fleet.copy(), _branch_rng(start.rng)

    fwd = np.nonzero(fleet.direction > 0)[0]
    bwd = np.nonzero(fleet.direction < 0)[0]

    if request_at == "contact":
        east, west = _opposite_pairs(fleet, mcfg.lane_length_m,
                                     comm_range_m)[:2]
        # At the shipped configs some oncoming pair is always in range; a
        # config with none (say a range below the lane separation) raises.
        if east.size == 0:
            raise RuntimeError(
                "no oncoming contact found for a transfer scenario")
        has_holder = np.unique(east)
        mid = np.argmin(np.abs(
            fleet.x[fwd[has_holder]] - mcfg.lane_length_m / 2.0))
        row = has_holder[mid]
        candidates = bwd[west[east == row]]
        head = int(fwd[row])
        resource = int(candidates[rng.integers(candidates.size)])
    else:
        # Put the requester in the thick of its direction's traffic: the
        # vehicle minimizing mean ring distance to the rest (geometric
        # median).  The initial-gap rule fixes mean spacing per lane, so at
        # low densities the fleet occupies only part of the ring and drifts
        # into platoons; a requester at the edge of one, or straggling
        # between two, sees a fraction of the neighbours an interior
        # vehicle does.
        gaps = np.abs(mobility.ring_delta(fleet.x[fwd][:, None],
                                          fleet.x[fwd][None, :],
                                          mcfg.lane_length_m))
        head = int(fwd[np.argmin(gaps.mean(axis=1))])

        def holders_in_range() -> np.ndarray:
            dx = mobility.ring_delta(fleet.x[head], fleet.x[bwd],
                                     mcfg.lane_length_m)
            dy = fleet.y[bwd] - fleet.y[head]
            return in_range_mask(dx, dy, comm_range_m)

        prev = holders_in_range()
        resource = None
        for _ in range(MAX_REQUEST_WAIT_STEPS):
            mobility.step(fleet, mcfg, rng)
            now = holders_in_range()
            fresh = np.nonzero(now & ~prev)[0]
            if fresh.size:
                resource = int(bwd[fresh[rng.integers(fresh.size)]])
                break
            prev = now
        if resource is None:
            raise RuntimeError(
                "no oncoming vehicle entered range for a transfer scenario")

    return fleet, head, resource, rng


def build_transfer_scenario(cfg: Config, start: WarmStart,
                            request_at: str = "contact") -> TransferScenario:
    """The traffic of a max-volume request instant, branched from start.

    The request instant comes from request_instant.  The trajectory from
    it on validates predicted transfers; it is stepped only as far as its
    readers look, and the experiment horizon caps how far that may be.
    """
    fleet, head, resource, rng = request_instant(start, request_at)
    return TransferScenario(
        head_vid=head, resource_vid=resource,
        trajectory=Trajectory(fleet, start.mcfg, rng,
                              cfg.experiments.horizon_s))


def _direct_max_volume(cfg: Config, scen: TransferScenario, density: float,
                       comm_range_m: float) -> float:
    """Largest file, in bytes, the head-resource link alone delivers: what
    protocol.run_direct_baseline delivers on the trajectory when asked for
    the link's predicted capacity (0.0 out of range).  The request reads
    only the head's and the resource's rows of scen.snapshot; the
    recruitment's invitation never starts.
    """
    snap = scen.snapshot
    recruitment = recruit(snap[scen.head_vid], snap,
                          cfg.experiments.fragment_bytes,
                          cfg.models(comm_range_m, density),
                          [scen.resource_vid])
    if recruitment is None:
        return 0.0
    return run_direct_baseline(recruitment,
                               recruitment.head_budget.capacity_bytes,
                               scen.trajectory).bytes_delivered


def _cft_max_volume(cfg: Config, scen: TransferScenario, density: float,
                    comm_range_m: float) -> float:
    """Largest file volume the cluster scheme delivers, in bytes.

    A doubling search plus bisection on the fragment count; every probe
    reads its cluster off one recruitment of the request.  The search
    assumes that success is monotone in the file size, and that can fail:
    at the shipped settings some seeds fail at one size yet succeed at a
    larger one (ROADMAP item 3).  On such a seed the result is a size that
    succeeds next to one that fails, set by the probe order; it need not
    lie below the first failing size.
    """
    e = cfg.experiments
    s = e.fragment_bytes
    models = cfg.models(comm_range_m, density,
                        plan_margin_s=e.max_volume_plan_margin_s)
    snap = scen.snapshot
    recruitment = recruit(snap[scen.head_vid], snap, s, models,
                          [scen.resource_vid])

    def ok(frags: int) -> bool:
        v_bytes = frags * s
        out = run_cft(recruitment, v_bytes, scen.trajectory)
        return out.bytes_delivered >= v_bytes

    if not ok(1):
        return 0.0
    lo, hi = 1, 2
    while ok(hi):
        lo, hi = hi, hi * 2
        if hi > 65536:
            break
    # Invariant: ok(lo) holds, ok(hi) fails (or hi hit the cap).
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return float(lo * s)


# Rows of every max-volume trajectory stepped in the batch kernel, a key
# batch at once, before its readers step on demand.  At the shipped config
# direct scenarios read a median of 7 rows (max 15) and CFT scenarios a
# median of 22 (p90 34, max 70), of 120.  In an interleaved scan (9 rounds,
# 2-core Xeon VM, numpy 2.4.6) the max-volume time against K = 0 read 0.94
# / 0.93 / 0.87 / 0.87 / 0.88 / 0.92 at K = 8 / 16 / 24 / 32 / 48 / 64 for
# CFT alone at 2 seeds, and 0.92 / 0.90 / 0.87 / 0.89 / 0.92 / 0.97 for
# both schemes at 6 and 12 seeds.
HEAD_STEPS = 24


# Per scheme: the instant its request fires and the volume one scenario
# delivers, both scored on the scenario's trajectory.  An opportunistic
# transfer (protocol.run_direct_baseline) can only use the remainder of the
# link it happens to have; a planned transfer (protocol.run_cft) starts when
# the resource is first discovered, with the whole pass ahead.
_SCHEMES = {
    "direct": ("contact", _direct_max_volume),
    "cft": ("encounter", _cft_max_volume),
}


def max_transfer_volume(cfg: Config, *schemes: str) -> SweepResult:
    """Largest volume deliverable in at least success_fraction of runs.

    One row per (scheme, density), scheme by scheme in the order given.
    Seed k of every scheme has the same RNG key, so it is warmed up once
    and each scheme that runs seed k branches from it.  The (density,
    seed) keys run one key batch of warm_starts at a time, so memory stays
    bounded whatever the seed count: a batch's scenarios are branched, the
    batch is let go, the first HEAD_STEPS rows of their trajectories are
    stepped together in the batch kernel (Trajectory.step_together), and
    each scenario is let go once it is scored.  Past those rows a
    trajectory is stepped on demand, only as far as its readers look, up to
    the experiment horizon.
    """
    e = cfg.experiments
    r_m = e.max_volume_range_m
    sd = e.max_volume_sd_m
    for scheme in schemes:
        if scheme not in _SCHEMES:
            raise ValueError(f"unknown scheme '{scheme}'")
    if len(set(schemes)) != len(schemes):
        raise ValueError(f"a scheme is given twice: {schemes}")
    # The direct estimate is cheap and far noisier per run (the current
    # link's remaining lifetime is near-uniform), so it gets its own seed
    # count.
    n_seeds = {"direct": e.max_volume_direct_seeds, "cft": e.max_volume_seeds}
    records = {(scheme, density): [] for scheme in schemes
               for density in e.max_volume_densities}
    most_seeds = max((n_seeds[s] for s in schemes), default=0)
    keys = [(density, seed_idx) for density in e.max_volume_densities
            for seed_idx in range(most_seeds)]
    for batch in warm_starts(cfg, keys, sd, r_m, e.max_volume_warmup_steps,
                             "max-volume"):
        scenarios = [(scheme, density,
                      build_transfer_scenario(cfg, start, _SCHEMES[scheme][0]))
                     for (density, seed_idx), start in batch
                     for scheme in schemes if seed_idx < n_seeds[scheme]]
        del batch
        Trajectory.step_together([scen.trajectory for _, _, scen in scenarios],
                                 HEAD_STEPS)
        while scenarios:
            scheme, density, scen = scenarios.pop(0)
            records[(scheme, density)].append(
                _SCHEMES[scheme][1](cfg, scen, density, r_m))
    rows = []
    for (scheme, density), per_seed in records.items():
        # Largest volume still achieved by at least success_fraction of runs.
        need = math.ceil(e.success_fraction * len(per_seed))
        volume = sorted(per_seed)[len(per_seed) - need]
        rows.append((scheme, density, r_m, sd, volume, len(per_seed)))
    return SweepResult(
        header=["scheme", "density_per_km", "comm_range_m",
                "safety_distance_m", "max_volume_bytes", "n_runs"],
        rows=rows,
        records=records,
    )


def cluster_size_profile(cfg: Config) -> SweepResult:
    """Mean cluster size versus file size, per traffic density.

    The cluster size is fixed once recruitment covers the file, before any
    fragment moves, so each run stops there (protocol.form_cluster): it
    plans on the fleet at the request instant, with cluster_horizon_s as
    the planning horizon, and records no trajectory.  Recruitment order
    does not depend on the file size, so every file size of a seed reads
    its cluster off the same recruitment.  Runs whose file fits through
    the direct link record a cluster size of zero and are excluded from
    the mean (no cluster was formed), as are runs where recruitment could
    not cover the file.  The (density, seed) keys run one key batch of
    warm_starts at a time, each let go before the next is warmed up.
    """
    e = cfg.experiments
    r_m = e.cluster_range_m
    sd = e.cluster_sd_m
    models = {density: cfg.models(r_m, density, e.cluster_horizon_s)
              for density in e.cluster_densities}
    records = {(density, v_bytes): [] for density in e.cluster_densities
               for v_bytes in e.file_sizes_bytes}
    keys = [(density, seed_idx) for density in e.cluster_densities
            for seed_idx in range(e.cluster_seeds)]
    for batch in warm_starts(cfg, keys, sd, r_m, e.cluster_warmup_steps,
                             "cluster"):
        for (density, _), start in batch:
            fleet, head, resource, _ = request_instant(start, "encounter")
            snap = _snapshot(fleet.x, fleet.y, fleet.vx)
            recruitment = recruit(snap[head], snap, e.fragment_bytes,
                                  models[density], [resource])
            for v_bytes in e.file_sizes_bytes:
                records[(density, v_bytes)].append(
                    form_cluster(recruitment, v_bytes).n_c)
        del batch, start
    rows = []
    for (density, v_bytes), sizes in records.items():
        formed = [n for n in sizes if n > 0]
        avg = float(np.mean(formed)) if formed else 0.0
        rows.append((density, v_bytes, avg, len(formed)))
    return SweepResult(
        header=["density_per_km", "v_file_bytes", "avg_cluster_size",
                "n_clustered_runs"],
        rows=rows,
        records=records,
    )


# Every experiment the CLI offers, by command name, in the CLI's order.
SWEEPS = {
    "connection-time": connection_time_sweep,
    "throughput": throughput_sweep,
    "capacity": capability_sweep,
    "max-volume": lambda cfg: max_transfer_volume(cfg, "direct", "cft"),
    "cluster-size": cluster_size_profile,
    "rate-curve": rate_curve,
}


def run_sweep(cfg: Config, metric: str) -> SweepResult:
    """Dispatch a named experiment sweep."""
    if metric not in SWEEPS:
        raise ValueError(f"unknown metric '{metric}'")
    return SWEEPS[metric](cfg)
