"""Experiment engine: determinism, aggregation, scenario construction."""

import copy
import dataclasses
import gc
import math
import warnings
import weakref

import numpy as np
import pytest

from cftsim import mobility, protocol, simulator
from cftsim.channel import expected_rate
from cftsim.config import load_config
from cftsim.connection import predict_connection_time
from cftsim.mac import throughput
from cftsim.protocol import (Ballistic, Cluster, VehicleState,
                             _evaluate_plan, link_budget, recruit, run_cft)
from cftsim.simulator import (SweepResult, build_transfer_scenario,
                              capability_sweep, cluster_size_profile,
                              connection_time_sweep, max_transfer_volume,
                              rate_curve, run_sweep, throughput_sweep,
                              write_csv)
from conftest import unstopped_invitation
from test_mobility import warm_up

MB = 1_000_000.0


@pytest.fixture(scope="module")
def small_cfg():
    return load_config(overrides=[
        "experiments.comm_range_m=[100, 250]",
        "experiments.seeds=3",
    ])


def test_write_csv_fixed_format(tmp_path):
    res = SweepResult(header=["a", "b", "c"],
                      rows=[(5, "cft", 1.5), (np.int64(7), "x", 1.0 / 3.0)])
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_csv(str(p1), res)
    write_csv(str(p2), res)
    assert p1.read_text() == "a,b,c\n5,cft,1.500000\n7,x,0.333333\n"
    assert p1.read_bytes() == p2.read_bytes()


def test_vectorised_pair_times_match_scalar_prediction():
    gen = np.random.default_rng(77)
    r = 250.0
    for i in range(200):
        dx = float(gen.uniform(-200.0, 200.0))
        dy = float(gen.choice([-10.0, -5.0, 5.0, 10.0]))
        dvx = float(-gen.uniform(33.4, 66.6))    # westbound minus eastbound
        if i % 20 == 0:
            dvx = 0.0                            # both at standstill: inf
        want = predict_connection_time(dx, dy, dvx, 0.0, r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = simulator._pair_connection_times(
                np.array([dx]), np.array([dy]), np.array([dvx]), r)
        assert got[0] == pytest.approx(want, rel=1e-9)


def test_rng_streams_are_stable_and_independent():
    a = simulator._rng(1, "connection", 5, 0).integers(1 << 30, size=4)
    b = simulator._rng(1, "connection", 5, 0).integers(1 << 30, size=4)
    c = simulator._rng(1, "capability", 5, 0).integers(1 << 30, size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_keys_are_exact(default_cfg):
    # Shipped integer grids keep the keys int() gave them.
    for d in (5.0, 6.0, 7.0, 8.0, 9.0, 10.0):
        assert simulator._seed_key(d, 1000) == int(d * 1000)
    assert simulator._seed_key(250.0) == 250
    assert simulator._seed_key(1.001, 1000) == 1001   # int() gave 1.0's 1000
    with pytest.raises(ValueError):
        simulator._seed_key(250.9)                   # int() reused 250's stream
    with pytest.raises(ValueError):
        simulator.warm_starts(default_cfg, [(5.0, 0)], 150.0, 250.9, 15,
                              "max-volume")


@pytest.mark.parametrize("sweep,value_name", [
    (connection_time_sweep, "avg_connection_time_s"),
    (capability_sweep, "avg_capability_bytes"),
])
def test_pair_sweep_rows_recompute_from_records(small_cfg, sweep, value_name):
    res = sweep(small_cfg)
    assert res.header[3] == value_name
    assert len(res.rows) == 2
    for row in res.rows:
        rec = res.records[(row[0],)]
        assert row[4] == len(rec) == 3
        assert row[3] == pytest.approx(np.mean(rec))
        assert row[3] > 0.0
    # longer range, longer chords: the mean grows with r
    assert res.rows[1][3] > res.rows[0][3]
    assert sweep(small_cfg).rows == res.rows     # bit-identical repeat


def test_a_range_no_pair_reaches_gives_nan_and_no_runs(tmp_path):
    # Opposite lanes lie 5 m apart or more, so no pair is ever within 1 m.
    cfg = load_config(overrides=["experiments.comm_range_m=[1, 250]",
                                 "experiments.seeds=2"])
    for sweep in (connection_time_sweep, capability_sweep):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sweep(cfg)
        near, far = res.rows
        assert math.isnan(near[3]) and near[4] == 0
        assert res.records[(1.0,)] == []
        assert far[3] > 0.0 and far[4] == 2
        write_csv(str(tmp_path / "out.csv"), res)
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[1] == "1.000000,5.000000,150.000000,nan,0"


def test_a_standstill_pair_is_capped_at_the_horizon(tmp_path):
    # At v_min_kmh=0 an opposite pair can stand still in range, which the
    # scalar prediction gives an unbounded connection time; the sweeps cap
    # it at the horizon like any other.  Seed 3 of the connection stream
    # and seed 0 of the capability stream hold such a pair.
    cfg = load_config(overrides=["mobility.v_min_kmh=0", "experiments.seeds=4",
                                 "experiments.comm_range_m=[250, 600]"])
    e = cfg.experiments
    for stream, sweep in (("connection", connection_time_sweep),
                          ("capability", capability_sweep)):
        fleets, mcfg = simulator._snapshot_states(
            cfg, e.connection_density_per_km, e.safety_distance_m, stream)
        standstill = 0
        for fleet in fleets:
            dx, dy, dvx, dist = simulator._cross_direction_pairs(
                fleet, mcfg.lane_length_m)
            standstill += int(np.sum((dvx == 0.0) & (dist <= 250.0)))
        assert standstill > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sweep(cfg)
        assert all(math.isfinite(row[3]) and row[4] == 4 for row in res.rows)
        write_csv(str(tmp_path / "out.csv"), res)
        assert "nan" not in (tmp_path / "out.csv").read_text()


@pytest.mark.parametrize("warmup_steps", [0, 15])
def test_batched_snapshots_equal_per_seed_warm_up(monkeypatch, warmup_steps):
    cfg = load_config(overrides=[f"experiments.warmup_steps={warmup_steps}",
                                 "experiments.seeds=4"])
    e = cfg.experiments
    density, sd = e.connection_density_per_km, e.safety_distance_m
    gens = []
    real_rng = simulator._rng

    def keeping(*args):
        gens.append(real_rng(*args))
        return gens[-1]

    monkeypatch.setattr(simulator, "_rng", keeping)
    fleets, mcfg = simulator._snapshot_states(cfg, density, sd, "connection")
    assert len(fleets) == len(gens) == 4
    for seed_idx, (snap, gen) in enumerate(zip(fleets, gens)):
        rng = real_rng(e.base_seed, "connection",
                       simulator._seed_key(density, 1000),
                       simulator._seed_key(sd), seed_idx)
        fleet = mobility.init_scenario(mcfg, rng)
        warm_up(fleet, mcfg, rng, warmup_steps)
        assert np.array_equal(snap.x, fleet.x)
        assert np.array_equal(snap.speed, fleet.speed)
        assert gen.bit_generator.state == rng.bit_generator.state


def _scalar_rate(cfg, d):
    """One pair's rate as capability_sweep once looked it up, pair by pair,
    memoised by int(4 d)."""
    return expected_rate(max(int(d * 4) / 4.0, 0.25), cfg.channel, cfg.rates)


def test_rate_table_capacities_equal_the_scalar_expression(default_cfg):
    cfg = default_cfg
    s = cfg.experiments.fragment_bytes
    r_m, far_m = 600.0, 100_000.0
    gen = np.random.default_rng(5)
    quarters = np.arange(4 * int(r_m) + 1) / 4.0
    dist = np.concatenate([
        gen.uniform(0.0, r_m, 3_000),
        quarters, np.nextafter(quarters, 0.0), np.nextafter(quarters, r_m),
        [0.0, 1e-9, 0.1, 0.2, np.nextafter(0.25, 0.0), 0.25, r_m],
        # Zero expected rate this far out.
        [60_000.0, 99_999.9, far_m],
    ])
    dts = gen.uniform(0.0, 120.0, dist.size)
    dts[:10] = 0.0
    dts[10:20] = 120.0
    assert expected_rate(far_m, cfg.channel, cfg.rates) == 0.0
    table = simulator._rate_table(cfg, far_m)
    got = simulator._link_capacities(table, dist, dts, s)
    rate_of = {}
    for d in dist:
        rate_of.setdefault(int(d * 4), _scalar_rate(cfg, d))
    rates = [rate_of[int(d * 4)] for d in dist]
    assert table[(dist * 4).astype(np.int64)].tolist() == rates
    want = [s * int(rate * t / (8.0 * s)) for rate, t in zip(rates, dts)]
    assert got.tolist() == want
    assert got[-1] == 0.0 and rates[-1] == 0.0


def test_branched_generator_draws_as_a_deep_copy():
    for gen in (np.random.default_rng(3),
                np.random.Generator(np.random.Philox(4)),
                np.random.Generator(np.random.MT19937(5))):
        # An odd number of 32-bit draws leaves half a word buffered.
        gen.random(7)
        gen.integers(0, 10, size=3, dtype=np.uint32)
        before = gen.bit_generator.state
        twin, deep = simulator._branch_rng(gen), copy.deepcopy(gen)
        assert type(twin.bit_generator) is type(gen.bit_generator)

        def draws(g):
            return [g.random(5), g.integers(0, 1 << 40, size=4),
                    g.integers(0, 10, size=3, dtype=np.uint32),
                    g.uniform(-1.0, 1.0, size=6), g.standard_normal(3)]

        for a, b in zip(draws(twin), draws(deep)):
            assert a.tobytes() == b.tobytes()
        assert _same(twin.bit_generator.state, deep.bit_generator.state)
        assert _same(gen.bit_generator.state, before)


def _same(a, b) -> bool:
    """Equality of bit-generator states, whose values may be arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def test_connection_means_cap_at_the_horizon(small_cfg):
    res = connection_time_sweep(small_cfg)
    for row in res.rows:
        assert row[3] <= small_cfg.experiments.horizon_s


def test_throughput_sweep_is_analytic(default_cfg):
    res = throughput_sweep(default_cfg)
    e = default_cfg.experiments
    assert len(res.rows) == len(e.densities_per_km) * len(e.comm_ranges_m)
    for density, r_m, val in res.rows:
        assert val == throughput(default_cfg.mac_for(r_m, density),
                                 e.nominal_mac_rate_bps)
        assert 0.0 < val < e.nominal_mac_rate_bps


def test_rate_curve_spans_the_default_grid(default_cfg):
    res = rate_curve(default_cfg)
    assert res.header == ["distance_m", "expected_rate_bps"]
    assert len(res.rows) == 60                   # 10 m .. 600 m
    by_d = dict(res.rows)
    assert by_d[250.0] == pytest.approx(53_826_080.18, rel=1e-6)


def _scenario(cfg, density, sd, r_m, warmup_steps, seed_idx,
              request_at="contact"):
    """A max-volume transfer scenario warmed up on its own."""
    start = simulator.warm_starts(cfg, [(density, seed_idx)], sd, r_m,
                                  warmup_steps, "max-volume")[0]
    return build_transfer_scenario(cfg, start, request_at)


def _head_resource_distance(scen, cfg):
    head = scen.states[scen.head_vid]
    res = scen.states[scen.resource_vid]
    dx = mobility.ring_delta(head.x, res.x, cfg.mobility_defaults["lane_length_m"])
    return math.hypot(dx, res.y - head.y)


def _indexed_states(fleet):
    """Every vehicle's VehicleState read index by index: the oracle of
    simulator._vehicle_states."""
    return [VehicleState(vid=i, x=float(fleet.x[i]), y=float(fleet.y[i]),
                         vx=float(fleet.vx[i]), vy=0.0)
            for i in range(fleet.n)]


@pytest.mark.parametrize("request_at", ["contact", "encounter"])
def test_request_states_equal_trajectory_row_zero(default_cfg, request_at):
    # The direct scheme reads the head and the resource through
    # trajectory.state(vid, 0.0) and never builds the fleet-wide list;
    # both give equal VehicleStates, also after the trajectory stepped on.
    cfg = default_cfg
    e = cfg.experiments
    r_m = e.max_volume_range_m
    for density, seed_idx in ((5.0, 0), (10.0, 1)):
        start = simulator.warm_starts(cfg, [(density, seed_idx)],
                                      e.max_volume_sd_m, r_m, 30,
                                      "max-volume")[0]
        fleet = simulator.request_instant(start, request_at)[0]
        scen = build_transfer_scenario(cfg, start, request_at)
        simulator._direct_max_volume(cfg, scen, density, r_m)
        assert "states" not in vars(scen)
        assert scen.trajectory.x.shape[0] > 1
        row_zero = [scen.trajectory.state(vid, 0.0) for vid in range(fleet.n)]
        assert row_zero == scen.states == _indexed_states(fleet)


def _request_budget(cfg, scen, density, comm_range_m):
    """link_budget of the scenario's head-resource pair at its request."""
    t = scen.trajectory
    return link_budget(t.state(scen.head_vid, 0.0),
                       t.state(scen.resource_vid, 0.0),
                       cfg.experiments.fragment_bytes,
                       cfg.models(comm_range_m, density))


def _direct_oracle(cfg, scen, density, comm_range_m):
    """The direct scheme's own expression before it was scored through
    protocol.run_direct_baseline: the predicted and the realized fragment
    counts of the head-resource link, the smaller one, capped at 10^6."""
    s = cfg.experiments.fragment_bytes
    try:
        b = _request_budget(cfg, scen, density, comm_range_m)
    except ValueError:
        return 0.0
    t_in, t_out = scen.trajectory.window(
        scen.head_vid, scen.resource_vid, comm_range_m)
    realized = int(b.e_c_bps * (t_out - t_in) / (8.0 * s))
    n = min(b.n_frags, realized)
    return float(min(n, 1_000_000) * s)


def _on_each_scored(monkeypatch, check):
    """Have max_transfer_volume call check(scheme, density, scen) on each
    scenario it scores, as the scheme's scorer receives it: its first
    HEAD_STEPS rows stepped together with its key batch's."""
    def spy(scheme, score):
        def scored(cfg, scen, density, comm_range_m):
            check(scheme, density, scen)
            return score(cfg, scen, density, comm_range_m)
        return scored

    monkeypatch.setattr(simulator, "_SCHEMES", {
        scheme: (request_at, spy(scheme, score))
        for scheme, (request_at, score) in simulator._SCHEMES.items()})


def _contact_cfg(densities, seeds, *overrides):
    """The direct max-volume experiment over densities, seeds each, on a
    short warm-up."""
    return load_config(overrides=[
        f"experiments.max_volume.density_per_km={list(densities)}",
        f"experiments.max_volume.direct_seeds={seeds}",
        "experiments.max_volume.warmup_steps=30", *overrides])


def _contact_scenarios(monkeypatch, cfg, check):
    """Run the direct max-volume experiment at cfg, calling
    check(density, scen) on each contact scenario as it is scored."""
    _on_each_scored(monkeypatch,
                    lambda scheme, density, scen: check(density, scen))
    max_transfer_volume(cfg, "direct")


def test_direct_volume_equals_the_realized_link_oracle(monkeypatch,
                                                       default_cfg):
    # 300 contact scenarios over the shipped densities, on a short warm-up
    # (criterion 8's digest covers the shipped one), bit for bit.
    cfg = _contact_cfg(default_cfg.experiments.max_volume_densities, 50)
    r_m = cfg.experiments.max_volume_range_m
    volumes = []

    def check(density, scen):
        want = _direct_oracle(cfg, scen, density, r_m)
        assert simulator._direct_max_volume(cfg, scen, density, r_m) == want
        volumes.append(want)
        # A westbound resource out of range delivers nothing.
        t = scen.trajectory
        far = next(vid for vid in range(len(t.direction))
                   if t.direction[vid] < 0 and abs(mobility.ring_delta(
                       t.x[0][scen.head_vid], t.x[0][vid], t.length_m)) > r_m)
        away = dataclasses.replace(scen, resource_vid=far)
        assert simulator._direct_max_volume(cfg, away, density, r_m) == 0.0
        assert _direct_oracle(cfg, away, density, r_m) == 0.0

    _contact_scenarios(monkeypatch, cfg, check)
    assert len(volumes) == 300
    assert sum(v > 0.0 for v in volumes) > 250


def _contact_scenario(monkeypatch, density, seed_idx, *overrides):
    """The contact scenario of (density, seed_idx), as the direct
    max-volume experiment scores it."""
    scenarios = []
    _contact_scenarios(monkeypatch,
                       _contact_cfg([density], seed_idx + 1, *overrides),
                       lambda density, scen: scenarios.append(scen))
    return scenarios[seed_idx]


def test_direct_volume_edge_links_equal_the_oracle(monkeypatch, default_cfg):
    # A zero-rate link, and a head and resource both at standstill: an
    # unbounded predicted capacity, so the trajectory's window decides.
    r_m = default_cfg.experiments.max_volume_range_m
    dead_rates = ["rates.rates_mbps=[6]", "rates.thresholds_snr=[1e300]"]
    dead = load_config(overrides=dead_rates)
    scen = _contact_scenario(monkeypatch, 5.0, 0, *dead_rates)
    assert _request_budget(dead, scen, 5.0, r_m).e_c_bps == 0.0
    assert _direct_oracle(dead, scen, 5.0, r_m) == 0.0
    assert simulator._direct_max_volume(dead, scen, 5.0, r_m) == 0.0

    still = load_config(overrides=["mobility.v_min_kmh=0"])
    scen = _contact_scenario(monkeypatch, 7.0, 6, "mobility.v_min_kmh=0")
    assert math.isinf(_request_budget(still, scen, 7.0, r_m).capacity_bytes)
    want = _direct_oracle(still, scen, 7.0, r_m)
    assert 0.0 < want < math.inf
    assert simulator._direct_max_volume(still, scen, 7.0, r_m) == want


def test_transfer_scenario_is_deterministic(default_cfg):
    a = _scenario(default_cfg, 5.0, 150.0, 250.0, 15, 3)
    b = _scenario(default_cfg, 5.0, 150.0, 250.0, 15, 3)
    assert a.head_vid == b.head_vid
    assert a.resource_vid == b.resource_vid
    horizon_s = default_cfg.experiments.horizon_s
    for scen in (a, b):                  # step both to the horizon
        scen.trajectory.state(scen.head_vid, horizon_s)
    assert a.trajectory.x.shape == (121, len(a.states))
    assert np.array_equal(a.trajectory.x, b.trajectory.x)
    assert np.array_equal(a.trajectory.speed, b.trajectory.speed)


def _eager_record(fleet, mcfg, rng, n_steps):
    """Every row up to the horizon, stepped at once."""
    xs, sp = [fleet.x.copy()], [fleet.speed.copy()]
    for _ in range(n_steps):
        mobility.step(fleet, mcfg, rng)
        xs.append(fleet.x.copy())
        sp.append(fleet.speed.copy())
    return np.array(xs), np.array(sp)


def _eager_window(xs, y, length_m, dt_s, vid_a, vid_b, range_m):
    """First in-range run of the pair over the whole eager record."""
    dx = mobility.ring_delta(xs[:, vid_a], xs[:, vid_b], length_m)
    inside = np.hypot(dx, y[vid_b] - y[vid_a]) <= range_m
    idx = np.nonzero(inside)[0]
    if idx.size == 0:
        return (0.0, 0.0)
    start = idx[0]
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    end = idx[breaks[0]] if breaks.size else idx[-1]
    return (start * dt_s, (end + 1) * dt_s)


@pytest.mark.parametrize("request_at", ["contact", "encounter"])
def test_on_demand_reads_equal_an_eager_record(default_cfg, request_at):
    # The trajectory steps only when a reader asks.  Whatever the order of
    # the reads, each must equal the read of the whole horizon recorded at
    # once from the same request instant, and no unstepped row may show.
    e = default_cfg.experiments
    r_m = e.max_volume_range_m
    start = simulator.warm_starts(default_cfg, [(10.0, 2)], e.max_volume_sd_m,
                                  r_m, 15, "max-volume")[0]
    fleet, head, resource, rng = simulator.request_instant(start, request_at)
    mcfg = start.mcfg
    n_steps = int(round(e.horizon_s / mcfg.step_s))
    xs, sp = _eager_record(fleet, mcfg, rng, n_steps)

    def want_window(vid_a, vid_b, range_m):
        return _eager_window(xs, fleet.y, mcfg.lane_length_m, mcfg.step_s,
                             vid_a, vid_b, range_m)

    def want_state(vid, t_s):
        k = min(max(int(round(t_s / mcfg.step_s)), 0), n_steps)
        return VehicleState(vid, float(xs[k, vid]), float(fleet.y[vid]),
                            float(sp[k, vid] * fleet.direction[vid]), 0.0)

    vids = list(range(0, fleet.n, 5))
    ends = {v: want_window(v, resource, r_m)[1] for v in vids}
    assert sum(0.0 < t < e.horizon_s for t in ends.values()) >= 3
    # Pairs by the end of their first window, those never in range last.
    by_end = sorted(vids, key=lambda v: ends[v] or math.inf)
    past = e.horizon_s + 3.0
    orders = {
        "growing": [("state", head, t) for t in (0.0, 2.0, 2.0, 9.6, 41.0)]
                   + [("window", v, r_m) for v in by_end],
        "shrinking": [("state", head, t) for t in (80.0, 30.0, 30.0, 1.0)]
                     + [("window", v, r_m) for v in reversed(by_end)],
        "windows first": [("window", v, r_m) for v in by_end]
                         + [("state", v, 3.0 * i) for i, v in enumerate(vids)],
        "past the horizon": [("state", head, 1e9), ("state", resource, past),
                             ("window", head, r_m), ("state", head, 0.0)],
    }
    for reads in orders.values():
        traj = build_transfer_scenario(default_cfg, start, request_at).trajectory
        assert traj.x.shape == (1, fleet.n)
        for kind, vid, arg in reads:
            if kind == "state":
                assert traj.state(vid, arg) == want_state(vid, arg)
            else:
                assert (traj.window(vid, resource, arg)
                        == want_window(vid, resource, arg))
            k = traj.x.shape[0]
            assert np.array_equal(traj.x, xs[:k])
            assert np.array_equal(traj.speed, sp[:k])

    # The resource's pass ends well inside the horizon, and its window
    # steps only to the first row after it.
    traj = build_transfer_scenario(default_cfg, start, request_at).trajectory
    t_in, t_out = traj.window(head, resource, r_m)
    assert 0.0 < t_out < e.horizon_s
    assert traj.x.shape[0] == round(t_out / mcfg.step_s) + 1
    # Opposite lanes are more than 1 m apart: never in range, so the
    # window steps the whole horizon and comes back empty.
    assert want_window(head, resource, 1.0) == (0.0, 0.0)
    assert traj.window(head, resource, 1.0) == (0.0, 0.0)
    assert np.array_equal(traj.x, xs)


def _batch_cfg(seeds=3, direct_seeds=4, warmup_steps=60):
    """Both transfer experiments at 5 and 10 veh/km on a short warm-up."""
    return load_config(overrides=[
        "experiments.max_volume.density_per_km=[5, 10]",
        f"experiments.max_volume.seeds={seeds}",
        f"experiments.max_volume.direct_seeds={direct_seeds}",
        f"experiments.max_volume.warmup_steps={warmup_steps}",
        f"experiments.cluster_size.seeds={seeds}",
        f"experiments.cluster_size.warmup_steps={warmup_steps}",
        "experiments.base_seed=17",
    ])


# A bound of 400 vehicles splits every call below into several key batches.
@pytest.mark.parametrize("head_steps", [0, 1, simulator.HEAD_STEPS,
                                        "n_steps"])
def test_batch_stepped_heads_equal_on_demand_rows(monkeypatch, head_steps):
    cfg = _batch_cfg()
    e = cfg.experiments
    n_steps = round(e.horizon_s / cfg.mobility_defaults["step_s"])
    head_steps = n_steps if head_steps == "n_steps" else head_steps
    monkeypatch.setattr(mobility, "BATCH_VEHICLES", 400)
    monkeypatch.setattr(simulator, "HEAD_STEPS", 0)
    on_demand = max_transfer_volume(cfg, "direct", "cft")
    monkeypatch.setattr(simulator, "HEAD_STEPS", head_steps)

    # Each scenario's eager record from its request instant, taken as it
    # is built; a key batch's scenarios are scored in the order built.
    built = []
    build = simulator.build_transfer_scenario

    def recording(cfg, start, request_at):
        fleet, head, resource, rng = simulator.request_instant(start,
                                                               request_at)
        built.append((head, resource,
                      _eager_record(fleet, start.mcfg, rng, n_steps)))
        return build(cfg, start, request_at)

    scored = []

    def check(scheme, density, scen):
        head, resource, (xs, sp) = built.pop(0)
        assert (scen.head_vid, scen.resource_vid) == (head, resource)
        traj = scen.trajectory
        assert traj.x.shape == (head_steps + 1, xs.shape[1])
        assert np.array_equal(traj.x, xs[:head_steps + 1])
        assert np.array_equal(traj.speed, sp[:head_steps + 1])
        # On demand past the batch-stepped rows.
        traj.state(head, e.horizon_s)
        assert np.array_equal(traj.x, xs) and np.array_equal(traj.speed, sp)
        scored.append(scheme)

    monkeypatch.setattr(simulator, "build_transfer_scenario", recording)
    _on_each_scored(monkeypatch, check)
    assert max_transfer_volume(cfg, "direct", "cft") == on_demand
    assert built == [] and sorted(scored) == ["cft"] * 6 + ["direct"] * 8


def test_key_batches_leave_the_records_as_they_are(monkeypatch):
    cfg = _batch_cfg()
    warmed = []
    real = simulator.warm_starts

    def counting(cfg, keys, *args):
        warmed.append(len(keys))
        return real(cfg, keys, *args)

    monkeypatch.setattr(simulator, "warm_starts", counting)
    shipped = [max_transfer_volume(cfg, "direct", "cft"),
               cluster_size_profile(cfg)]
    assert warmed == [8, 6]              # one key batch per experiment
    warmed.clear()
    monkeypatch.setattr(mobility, "BATCH_VEHICLES", 400)
    assert [max_transfer_volume(cfg, "direct", "cft"),
            cluster_size_profile(cfg)] == shipped
    assert warmed == [3, 2, 1, 1, 1] + [3, 1, 1, 1]


@pytest.mark.parametrize("experiment", [
    pytest.param(lambda cfg: max_transfer_volume(cfg, "direct", "cft"),
                 id="max-volume"),
    pytest.param(cluster_size_profile, id="cluster-size"),
])
def test_live_warm_starts_do_not_grow_with_the_seed_count(monkeypatch,
                                                          experiment):
    count = {"live": 0, "peak": 0}

    def release():
        count["live"] -= 1

    real = simulator.warm_starts

    def tracking(*args):
        # The last key batch was let go before this one is warmed up.
        assert count["live"] == 0
        starts = real(*args)
        for start in starts:
            weakref.finalize(start, release)
        count["live"] += len(starts)
        count["peak"] = max(count["peak"], count["live"])
        return starts

    monkeypatch.setattr(simulator, "warm_starts", tracking)
    # Up to three 5 veh/km fleets (110 vehicles) fit in a 400-vehicle batch.
    monkeypatch.setattr(mobility, "BATCH_VEHICLES", 400)
    peaks = []
    for seeds in (4, 12):
        count["peak"] = 0
        experiment(_batch_cfg(seeds, seeds, warmup_steps=5))
        assert count["live"] == 0
        peaks.append(count["peak"])
    assert peaks == [3, 3]


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_key_sizes_are_the_fleets_init_scenario_builds(lanes):
    # 5 veh/km on 11 km is 55 vehicles a direction, split 28/27 over two
    # lanes and 19/18/18 over three; 0.1 veh/km leaves lanes empty.
    cfg = load_config(overrides=[f"mobility.lanes_per_direction={lanes}"])
    rng = np.random.default_rng(0)
    for density in (0.1, 0.25, 1.0, 5.0, 5.5, 7.3, 10.0, 41.0):
        for sd in (50.0, 150.0):
            fleet = mobility.init_scenario(cfg.mobility(density, sd), rng)
            assert simulator._fleet_size(cfg, density, sd) == fleet.n


def test_only_fresh_trajectories_are_stepped_together(default_cfg):
    scen = _scenario(default_cfg, 5.0, 150.0, 250.0, 15, 0)
    scen.trajectory.state(scen.head_vid, 2.0)
    with pytest.raises(ValueError):
        simulator.Trajectory.step_together([scen.trajectory], 5)


def test_contact_request_catches_an_ongoing_pass(default_cfg):
    for seed in range(4):
        scen = _scenario(default_cfg, 5.0, 150.0, 250.0, 15, seed,
                         request_at="contact")
        head = scen.states[scen.head_vid]
        res = scen.states[scen.resource_vid]
        assert head.vx > 0.0 and res.vx < 0.0
        assert _head_resource_distance(scen, default_cfg) <= 250.0
        t_in, t_out = scen.trajectory.window(
            scen.head_vid, scen.resource_vid, 250.0)
        assert t_in == 0.0 and t_out > 0.0


def test_encounter_request_fires_as_the_resource_enters_range(default_cfg):
    for seed in range(4):
        scen = _scenario(default_cfg, 5.0, 150.0, 250.0, 15, seed,
                         request_at="encounter")
        head = scen.states[scen.head_vid]
        res = scen.states[scen.resource_vid]
        assert head.vx > 0.0 and res.vx < 0.0
        d = _head_resource_distance(scen, default_cfg)
        # Fresh contact: in range now, but by at most one step's closing
        # speed (2 * 33.33 m/s * 1 s).
        assert d <= 250.0
        assert d > 250.0 - 70.0


def test_transfer_scenario_rejects_unknown_request_modes(default_cfg):
    with pytest.raises(ValueError):
        _scenario(default_cfg, 5.0, 150.0, 250.0, 15, 0,
                  request_at="whenever")


def test_trajectory_state_reads_the_step_grid(default_cfg):
    scen = _scenario(default_cfg, 5.0, 150.0, 250.0, 15, 0)
    traj = scen.trajectory
    s0 = traj.state(scen.head_vid, 0.0)
    init = scen.states[scen.head_vid]
    assert (s0.x, s0.y, s0.vx) == (init.x, init.y, init.vx)
    assert traj.state(scen.resource_vid, 0.0).vx < 0.0
    beyond = traj.state(scen.head_vid, 1e9)      # clamps to the last step
    assert beyond.x == float(traj.x[-1, scen.head_vid])


def test_max_volume_schemes_and_aggregation():
    cfg = load_config(overrides=[
        "experiments.max_volume.density_per_km=[5]",
        "experiments.max_volume.seeds=4",
        "experiments.max_volume.direct_seeds=6",
    ])
    with pytest.raises(ValueError):
        max_transfer_volume(cfg, "bogus")
    with pytest.raises(ValueError):
        max_transfer_volume(cfg, "cft", "cft")
    for scheme, n in (("direct", 6), ("cft", 4)):
        res = max_transfer_volume(cfg, scheme)
        (row,) = res.rows
        assert row[0] == scheme and row[5] == n
        rec = res.records[(scheme, 5.0)]
        assert len(rec) == n
        # aggregate = largest volume still reached by success_fraction of runs
        need = math.ceil(cfg.experiments.success_fraction * n)
        assert row[4] == sorted(rec)[n - need]
        assert row[4] > 0.0
        assert row[4] % cfg.experiments.fragment_bytes == 0.0


def test_joint_max_volume_equals_single_scheme_calls(monkeypatch):
    # Seed k of both schemes shares one warm-up; each scheme branches from
    # its own copy, so the joint call must equal the two separate ones,
    # with the direct-only seeds warmed up for direct alone.
    cfg = load_config(overrides=[
        "experiments.max_volume.density_per_km=[5, 10]",
        "experiments.max_volume.seeds=3",
        "experiments.max_volume.direct_seeds=5",
        "experiments.base_seed=31",
    ])
    inits = []
    real_init = mobility.init_scenario

    def counting(*args, **kwargs):
        inits.append(1)
        return real_init(*args, **kwargs)

    monkeypatch.setattr(mobility, "init_scenario", counting)
    both = max_transfer_volume(cfg, "direct", "cft")
    assert len(inits) == 2 * 5
    direct = max_transfer_volume(cfg, "direct")
    cft = max_transfer_volume(cfg, "cft")
    assert len(inits) == 2 * 5 + 2 * (5 + 3)
    assert both.header == direct.header
    assert both.rows == direct.rows + cft.rows
    assert both.records == {**direct.records, **cft.records}
    assert [row[0] for row in both.rows] == ["direct"] * 2 + ["cft"] * 2


def _fresh_recruitment_volume(cfg, density, seed_idx):
    """The search for the cluster scheme's max volume, recruiting afresh
    for every probe, and the smallest failing fragment count below the
    volume it finds (None when success is monotone up to it)."""
    e = cfg.experiments
    r_m, s = e.max_volume_range_m, e.fragment_bytes
    scen = _scenario(cfg, density, e.max_volume_sd_m, r_m,
                     e.max_volume_warmup_steps, seed_idx,
                     request_at="encounter")
    models = cfg.models(r_m, density, plan_margin_s=e.max_volume_plan_margin_s)
    head = scen.states[scen.head_vid]

    def delivered(recruitment, frags):
        out = run_cft(recruitment, frags * s, scen.trajectory)
        return out.bytes_delivered >= frags * s

    def ok(frags):
        return delivered(recruit(head, scen.states, s, models,
                                 [scen.resource_vid]), frags)

    if not ok(1):
        return 0.0, None
    lo, hi = 1, 2
    while ok(hi):
        lo, hi = hi, hi * 2
        if hi > 65536:
            break
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    shared = recruit(head, scen.states, s, models, [scen.resource_vid])
    gaps = [k for k in range(1, lo) if not delivered(shared, k)]
    return float(lo * s), (gaps[0] if gaps else None)


def test_max_volume_records_match_fresh_recruitment_per_probe():
    # Every probe of the search reads its cluster off one shared
    # recruitment; recruiting afresh per probe must give the same volumes,
    # also on seeds where success is not monotone in the file size and the
    # result depends on which sizes are probed (ROADMAP item 3).
    cfg = load_config(overrides=[
        "experiments.max_volume.density_per_km=[5, 10]",
        "experiments.max_volume.seeds=6",
        "experiments.base_seed=20240",
    ])
    res = max_transfer_volume(cfg, "cft")
    non_monotone = 0
    for density in (5.0, 10.0):
        for seed_idx in range(6):
            want, gap = _fresh_recruitment_volume(cfg, density, seed_idx)
            assert res.records[("cft", density)][seed_idx] == want
            non_monotone += gap is not None
    assert non_monotone > 0


def test_memoised_member_scores_equal_a_fresh_recruitment(monkeypatch):
    # One recruitment serves the search's probes on recorded traffic and on
    # ballistic prediction, interleaved, so its memo holds the scores of
    # both traffic sources at once, and of fragment ranges that differ only
    # in the size of their last fragment.  Every outcome must equal run_cft
    # on a fresh recruitment, member_results included.
    cfg = load_config()
    e = cfg.experiments
    r_m, s = e.max_volume_range_m, e.fragment_bytes
    hits = 0
    for density, seed_idx in ((5.0, 1), (10.0, 0), (10.0, 2)):
        scen = _scenario(cfg, density, e.max_volume_sd_m, r_m,
                         e.max_volume_warmup_steps, seed_idx,
                         request_at="encounter")
        probes = []

        def recording(recruitment, v_bytes, traffic):
            probes.append(v_bytes)
            return run_cft(recruitment, v_bytes, traffic)

        with monkeypatch.context() as m:
            m.setattr(simulator, "run_cft", recording)
            simulator._cft_max_volume(cfg, scen, density, r_m)
        assert len(probes) > 10
        models = cfg.models(r_m, density,
                            plan_margin_s=e.max_volume_plan_margin_s)

        def fresh():
            return recruit(scen.states[scen.head_vid], scen.states, s, models,
                           [scen.resource_vid])

        def sources(recruitment):
            return (Ballistic(recruitment.states, recruitment.models),
                    scen.trajectory)

        shared = fresh()
        shared_sources = sources(shared)
        scored = 0
        # Each probe, then the same fragments with a short last one.
        for v_bytes in (v for probe in probes for v in (probe, probe - s / 3)):
            for i, traffic in enumerate(shared_sources):
                out = run_cft(shared, v_bytes, traffic)
                again = fresh()
                assert out == run_cft(again, v_bytes, sources(again)[i])
                scored += len(out.member_results)
        hits += scored - len(shared.scores)
    assert hits > 0


def test_a_dropped_recruitment_is_freed_at_once():
    # The memo's keys hold the traffic source a recruitment was scored on,
    # the trajectory or a Ballistic over the recruitment's own states; no
    # reference cycle may keep a dropped recruitment, and its source with
    # it, alive until the garbage collector runs.
    cfg = load_config()
    e = cfg.experiments
    r_m = e.max_volume_range_m
    scen = _scenario(cfg, 10.0, e.max_volume_sd_m, r_m, 30, 0,
                     request_at="encounter")
    models = cfg.models(r_m, 10.0)
    for predicted in (False, True):
        recruitment = recruit(scen.states[scen.head_vid], scen.states,
                              e.fragment_bytes, models, [scen.resource_vid])
        traffic = (Ballistic(recruitment.states, recruitment.models)
                   if predicted else scen.trajectory)
        run_cft(recruitment, 300 * MB, traffic)
        assert recruitment.scores
        alive = weakref.ref(recruitment)
        source = weakref.ref(traffic) if predicted else None
        del traffic
        gc.disable()
        try:
            del recruitment
            assert alive() is None
            assert source is None or source() is None
        finally:
            gc.enable()


def test_members_forward_independently_of_each_other():
    # All members forward to the head at once, each at the full MAC
    # throughput: no member's result may depend on the others.  Scoring a
    # member alone, with the fragment range the cluster gave it, must give
    # the same MemberResult, on recorded traffic and on ballistic
    # prediction alike.
    cfg = load_config()
    e = cfg.experiments
    r_m, s = e.max_volume_range_m, e.fragment_bytes
    models = cfg.models(r_m, 10.0, plan_margin_s=e.max_volume_plan_margin_s)
    compared = 0
    for seed_idx in range(3):
        scen = _scenario(cfg, 10.0, e.max_volume_sd_m, r_m,
                         e.max_volume_warmup_steps, seed_idx,
                         request_at="encounter")
        recruitment = recruit(scen.states[scen.head_vid], scen.states, s,
                              models, [scen.resource_vid])

        for traffic in (Ballistic(recruitment.states, recruitment.models),
                        scen.trajectory):
            for v_bytes in (100 * MB, 200 * MB, 300 * MB, 400 * MB):
                out = run_cft(recruitment, v_bytes, traffic)
                if out.cluster is None:
                    continue
                c = out.cluster
                for m, got in zip(c.members, out.member_results):
                    if m.vid == c.head:
                        continue
                    # A fresh recruitment, so no memoised score is read.
                    alone = _evaluate_plan(
                        Cluster(c.head, c.resource, [m], v_bytes, s),
                        recruit(scen.states[scen.head_vid], scen.states, s,
                                models, [scen.resource_vid]),
                        traffic)
                    assert alone.member_results == [got]
                    compared += c.n_c > 2
    assert compared > 0          # some members shared a cluster


def test_cluster_profile_recomputes_from_records():
    cfg = load_config(overrides=[
        "experiments.cluster_size.density_per_km=[10]",
        "experiments.cluster_size.seeds=4",
        "experiments.file_size_mb=[100, 400]",
    ])
    res = cluster_size_profile(cfg)
    assert len(res.rows) == 2
    for density, v_bytes, avg, n_formed in res.rows:
        rec = res.records[(density, v_bytes)]
        assert len(rec) == 4
        formed = [n for n in rec if n > 0]
        assert n_formed == len(formed)
        assert avg == pytest.approx(np.mean(formed) if formed else 0.0)
    by_v = {row[1]: row[2] for row in res.rows}
    assert by_v[400 * MB] > by_v[100 * MB]       # bigger file, bigger cluster


def test_cluster_profile_matches_the_full_pipeline(monkeypatch):
    # n_c is fixed once recruitment covers the file, so the sweep, which
    # stops there, must record the n_c of the whole run_cft pipeline on
    # the same request instant.  The 10 MB file fits the direct link.
    cfg = load_config(overrides=[
        "experiments.cluster_size.density_per_km=[5, 10]",
        "experiments.cluster_size.seeds=3",
        "experiments.file_size_mb=[10, 100, 200, 300, 400, 500, 600, 700, 800, 900]",
    ])

    def stops_at_recruitment(*args, **kwargs):
        raise AssertionError("cluster-size went past recruitment")

    with monkeypatch.context() as m:
        m.setattr(simulator, "build_transfer_scenario", stops_at_recruitment)
        m.setattr(simulator, "run_cft", stops_at_recruitment)
        res = cluster_size_profile(cfg)
    e = cfg.experiments
    seen = set()
    for density in e.cluster_densities:
        models = cfg.models(e.cluster_range_m, density, e.cluster_horizon_s)
        for seed_idx in range(e.cluster_seeds):
            fleet, head, resource, _ = simulator.request_instant(
                simulator.warm_starts(cfg, [(density, seed_idx)],
                                      e.cluster_sd_m, e.cluster_range_m,
                                      e.cluster_warmup_steps, "cluster")[0],
                "encounter")
            states = simulator._vehicle_states(fleet.x, fleet.y, fleet.vx)
            traffic = Ballistic({v.vid: v for v in states}, models)
            for v_bytes in e.file_sizes_bytes:
                # A fresh recruitment per file size, as one request each.
                out = run_cft(recruit(states[head], states, e.fragment_bytes,
                                      models, [resource]), v_bytes, traffic)
                assert res.records[(density, v_bytes)][seed_idx] == out.n_c
                seen.add("clustered" if out.n_c > 0 else out.mode)
    # direct 0, clustered n_c > 0, and 0 where recruitment ran out
    assert seen == {"direct", "clustered", "failed"}


def test_cluster_profile_plans_over_an_infinite_horizon(monkeypatch):
    # With no planning horizon, any vehicle of the head's heading that ever
    # meets both the head and the resource may join.  The stopped
    # invitation must still record what an unstopped one does.
    cfg = load_config(overrides=["experiments.cluster_size.horizon_s=.inf",
                                 "experiments.cluster_size.seeds=1"])
    res = cluster_size_profile(cfg)
    assert any(n > 0 for sizes in res.records.values() for n in sizes)
    monkeypatch.setattr(protocol, "_may_join", unstopped_invitation)
    assert cluster_size_profile(cfg) == res


def test_run_sweep_dispatch(default_cfg):
    assert run_sweep(default_cfg, "rate-curve").header == \
        ["distance_m", "expected_rate_bps"]
    with pytest.raises(ValueError):
        run_sweep(default_cfg, "no-such-metric")
