"""Transfer protocol: budgets, recruitment, assignment, execution."""

import dataclasses
import math

import numpy as np
import pytest

from cftsim import protocol, simulator
from cftsim.channel import expected_rate
from cftsim.mac import throughput
from cftsim.protocol import (Ballistic, Cluster, ClusterMember,
                             InsufficientCapacityError, MemberResult, Models,
                             NoResourceError, Recruitment, VehicleState,
                             _derated_frags, _evaluate_plan,
                             _plannable_frags, _relative,
                             assign_fragments, build_cluster, form_cluster,
                             forwarding_feasible, link_budget,
                             prospective_link_budget, recruit, run_cft,
                             run_direct_baseline, select_resource)

from conftest import (LANE_LENGTH_M, predicted, random_scene,
                      single_rate_models, unstopped_invitation)

MB = 1_000_000.0


def vehicle(vid, x, y=0.0, vx=0.0, vy=0.0):
    return VehicleState(vid=vid, x=x, y=y, vx=vx, vy=vy)


def test_cluster_fragment_accounting():
    c = assign_fragments(Cluster(0, 9, [_member(0, 12)], 10.5 * MB, MB))
    assert c.members[0].frag_count == 11
    assert c.fragment_bytes(0, 1) == MB
    assert c.fragment_bytes(10, 1) == 0.5 * MB   # short final fragment
    assert c.fragment_bytes(0, 11) == 10.5 * MB
    assert c.fragment_bytes(3, 0) == 0.0
    empty = assign_fragments(Cluster(0, 9, [_member(0, 12)], 0.0, MB))
    assert empty.members[0].frag_count == 0


@pytest.mark.parametrize("s_bytes", [0.0, -MB, math.nan],
                         ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("holders", [[9], []], ids=["holder", "no-holder"])
def test_non_positive_fragment_size_is_rejected(s_bytes, holders):
    # Both ways a fragment size enters, even when no holder is reachable.
    models, head, src, fleet = _three_member_scene()
    with pytest.raises(ValueError):
        recruit(head, fleet, s_bytes, models, holders)
    with pytest.raises(ValueError):
        Recruitment(head, src, None, fleet, s_bytes, models)


def test_link_budget_exact_division():
    # 8 Mbit/s for 10 s moves exactly 10 fragments of 1 MB.
    models = single_rate_models(8e6)
    head = vehicle(0, 0.0, 0.0, 0.0)
    src = vehicle(1, 0.0, 0.0, 25.0)    # co-located, parts at 25 m/s
    b = link_budget(head, src, MB, models)
    assert b.delta_t_s == pytest.approx(10.0, rel=1e-12)
    assert b.e_c_bps == 8e6
    assert b.n_frags == 10
    assert b.capacity_bytes == 10 * MB


def test_link_budget_floors_partial_fragments():
    models = single_rate_models(8e6, range_m=252.0)
    head = vehicle(0, 0.0, 0.0, 0.0)
    src = vehicle(1, 0.0, 0.0, 24.0)    # 252 m / 24 m/s = 10.5 s
    b = link_budget(head, src, MB, models)
    assert b.delta_t_s == pytest.approx(10.5, rel=1e-12)
    assert b.n_frags == 10


def test_link_budget_requires_an_in_range_pair():
    models = single_rate_models(8e6)
    with pytest.raises(ValueError):
        link_budget(vehicle(0, 0.0), vehicle(1, 251.0), MB,
                    models)


def test_link_budget_matches_fragment_stepthrough(default_cfg):
    """Oracle: walk the link fragment by fragment and count completions."""
    gen = np.random.default_rng(2024)
    models = default_cfg.models(250.0, 5.0)
    frag_bits = 8.0 * MB
    for _ in range(300):
        d = float(gen.uniform(1.0, 249.0))
        head = vehicle(0, 0.0, 0.0, 0.0)
        src = vehicle(1, d, 0.0, float(gen.uniform(5.0, 40.0)
                                       * gen.choice([-1.0, 1.0])))
        b = link_budget(head, src, MB, models)
        if math.isinf(b.n_frags):
            continue
        rate = expected_rate(d, models.channel, models.rates)
        done = 0
        while (done + 1) * frag_bits / rate <= b.delta_t_s:
            done += 1
        assert b.n_frags == done
        assert b.capacity_bytes == done * MB


def test_prospective_budget_of_future_window():
    # Out of range now, window opens at (1000-250)/25 = 30 s and closes
    # at (1000+250)/25 = 50 s: 20 s of contact at 8 Mbit/s = 20 frags.
    models = single_rate_models(8e6)
    head = vehicle(0, 0.0, 0.0, 0.0)
    src = vehicle(1, 1000.0, 0.0, -25.0)
    b = prospective_link_budget(head, src, MB, models)
    assert b.t_start_s == pytest.approx(30.0, rel=1e-12)
    assert b.delta_t_s == pytest.approx(20.0, rel=1e-12)
    assert b.n_frags == 20


def test_prospective_budget_clips_to_horizon():
    models = single_rate_models(8e6, horizon_s=40.0)
    head = vehicle(0, 0.0, 0.0, 0.0)
    src = vehicle(1, 1000.0, 0.0, -25.0)
    b = prospective_link_budget(head, src, MB, models)
    assert b.delta_t_s == pytest.approx(10.0, rel=1e-12)   # 30..40 only
    src_never = vehicle(2, 1000.0, 0.0, 25.0)              # receding
    b2 = prospective_link_budget(head, src_never, MB, models)
    assert b2.n_frags == 0


@pytest.mark.parametrize("src, want", [
    (vehicle(9, 100.0, 0.0, -1.0), (0.0, 350.0)),
    (vehicle(9, 1000.0, 0.0, -10.0), (75.0, 120.0)),
    (vehicle(9, 1000.0, 0.0, -5.0), (150.0, 150.0)),
    (vehicle(9, 1000.0, 0.0, 25.0), (0.0, 0.0)),
], ids=["in-range-outlasts-horizon", "opens-later-clipped",
        "opens-after-horizon", "never-in-range"])
def test_predicted_window_is_the_budget_window(src, want):
    # A pair in range now keeps its whole contact, past the horizon; a
    # later one is clipped to the horizon, down to an empty window at its
    # t_in; one never in range gets (0, 0).
    models = single_rate_models(8e6, horizon_s=120.0)
    member = vehicle(1, 0.0, 0.0, 0.0)
    b = prospective_link_budget(member, src, MB, models)
    if want[0] == 0.0 and want[1] > 0.0:        # in range now
        assert link_budget(member, src, MB, models) == b
    t_in, t_out = Ballistic({1: member, 9: src}, models).window(
        1, 9, models.range_m)
    assert (t_in, t_out) == (b.t_start_s, b.t_start_s + b.delta_t_s)
    assert t_out - t_in == b.delta_t_s
    assert (t_in, t_out) == pytest.approx(want, rel=1e-12)


def test_predicted_window_is_the_budget_window_in_random_scenes(default_cfg):
    # Scoring on the ballistic source reads each member's window off the
    # source, not its budget; both must agree to the last bit.
    gen = np.random.default_rng(101_010)
    models = default_cfg.models(250.0, 5.0, horizon_s=120.0)
    opening = {True: 0, False: 0}
    for _ in range(1000):
        fleet, head, holders, _ = random_scene(gen)
        recruitment = recruit(head, fleet, MB, models, holders)
        if recruitment is None:
            continue
        try:
            recruitment.covering_prefix(1e12)    # admit every member
        except InsufficientCapacityError:
            pass
        traffic = Ballistic(recruitment.states, recruitment.models)
        for m in recruitment.members:
            b = m.budget
            t_in, t_out = traffic.window(m.vid, recruitment.resource.vid,
                                         models.range_m)
            assert (t_in, t_out) == (b.t_start_s, b.t_start_s + b.delta_t_s)
            assert t_out - t_in == b.delta_t_s
            opening[t_in > 0.0] += 1
    assert opening[True] > 50 and opening[False] > 500


def test_select_resource_prefers_capacity_then_distance():
    models = single_rate_models(8e6)
    req = vehicle(0, 0.0, 0.0, 0.0)
    slow = vehicle(1, 100.0, 0.0, -30.0)
    unbounded = vehicle(2, 200.0, 0.0, 0.0)   # same velocity, never parts
    assert select_resource(req, [slow, unbounded], MB, models)[0].vid == 2
    assert select_resource(req, [slow], MB, models)[0].vid == 1
    with pytest.raises(NoResourceError):
        select_resource(req, [], MB, models)
    with pytest.raises(NoResourceError):
        select_resource(req, [vehicle(3, 500.0, 0.0, -10.0)], MB, models)


def test_select_resource_matches_argmax_oracle(default_cfg):
    gen = np.random.default_rng(555)
    models = default_cfg.models(250.0, 5.0)
    req = vehicle(0, 0.0, 2.5, 25.0)
    for _ in range(50):
        responders = [
            vehicle(i + 1, float(gen.uniform(-400.0, 400.0)),
                    float(gen.choice([-7.5, -2.5])),
                    float(gen.uniform(-33.3, -16.7)))
            for i in range(12)
        ]
        def key(r):
            dx, dy = models.ring_dx(req.x, r.x), r.y - req.y
            d = math.hypot(dx, dy)
            if d > models.range_m:
                return None
            b = link_budget(req, r, MB, models)
            return (-b.capacity_bytes, d, r.vid)
        scored = [(key(r), r.vid) for r in responders if key(r) is not None]
        if not scored:
            continue
        want = min(scored)[1]
        got, budget = select_resource(req, responders, MB, models)
        assert got.vid == want
        assert budget == link_budget(req, got, MB, models)


def test_direct_feasibility_boundaries():
    # The direct-link boundary: a 10 MB link from a standing requester, and
    # a co-moving holder whose link never closes.
    models = single_rate_models(8e6)
    req = vehicle(0, 0.0, 0.0, 0.0)
    scene = [req, vehicle(1, 0.0, 0.0, 25.0), vehicle(2, 100.0, 0.0, 0.0)]
    for v_bytes, holder, delivered in ((0.0, 1, True), (10 * MB, 1, True),
                                       (10 * MB + 1, 1, False),
                                       (10_000 * MB, 2, True)):
        out = run_direct_baseline(recruit(req, scene, MB, models, [holder]),
                                  v_bytes, predicted(scene, models))
        assert out.mode == ("direct" if delivered else "failed")
        assert out.bytes_delivered == (v_bytes if delivered else 0.0)


# --- cluster construction ---------------------------------------------------


def around(head, src, fleet, models):
    """The recruitment of a request for a file of 1 MB fragments held by
    src, which need not be in range of the head: recruit's when it is."""
    try:
        head_budget = link_budget(head, src, MB, models)
    except ValueError:
        head_budget = None
    return Recruitment(head, src, head_budget, fleet, MB, models)


def _three_member_scene():
    """Head plus two co-moving helpers, all 10-fragment links to the source.

    The convoy is co-located and shares one velocity, so member-head links
    never break, every download link closes in exactly 10 s (250 m range,
    25 m/s closing speed, 8 Mbit/s), and budgets are exactly 10 fragments.
    """
    models = single_rate_models(8e6)
    head = vehicle(0, 0.0, 0.0, 20.0)
    m1 = vehicle(1, 0.0, 0.0, 20.0)
    m2 = vehicle(2, 0.0, 0.0, 20.0)
    src = vehicle(9, 0.0, 0.0, -5.0)
    fleet = [head, m1, m2, src]
    return models, head, src, fleet


def test_cluster_of_one_when_the_head_suffices():
    models, head, src, fleet = _three_member_scene()
    cluster = build_cluster(around(head, src, fleet, models), 10 * MB)
    assert cluster.n_c == 1
    assert cluster.members[0].vid == 0


def test_cluster_of_three_exact_partition():
    models, head, src, fleet = _three_member_scene()
    cluster = build_cluster(around(head, src, fleet, models), 30 * MB)
    assert [m.vid for m in cluster.members] == [0, 1, 2]
    assert cluster.n_c == 3
    assert cluster.total_planned_bytes() == 30 * MB


def test_cluster_recruitment_is_a_minimal_prefix():
    models, head, src, fleet = _three_member_scene()
    cluster = build_cluster(around(head, src, fleet, models), 25 * MB)
    planned = [MB * m.planned_frags for m in cluster.members]
    assert sum(planned) >= 25 * MB
    assert sum(planned[:-1]) < 25 * MB


def test_cluster_raises_when_the_fleet_is_exhausted():
    models, head, src, fleet = _three_member_scene()
    with pytest.raises(InsufficientCapacityError):
        build_cluster(around(head, src, fleet, models), 31 * MB)


def test_cluster_skips_opposite_direction_candidates():
    models = single_rate_models(8e6)
    head = vehicle(0, 0.0, 0.0, 25.0)
    wrong_way = vehicle(1, 0.0, 5.0, -25.0)
    src = vehicle(9, 0.0, 0.0, -25.0)            # 5-fragment head link
    fleet = [head, wrong_way, src]
    cluster = build_cluster(around(head, src, fleet, models), 5 * MB)
    assert [m.vid for m in cluster.members] == [0]
    with pytest.raises(InsufficientCapacityError):
        build_cluster(around(head, src, fleet, models), 6 * MB)


def test_cluster_invitation_relays_across_a_gap():
    # A helper beyond the head's own range is recruited through the
    # vehicle between them, even though that vehicle is oncoming and
    # contributes nothing itself.
    models = single_rate_models(8e6)
    head = vehicle(0, 0.0, 0.0, 20.0)
    bridge = vehicle(1, -240.0, 0.0, -30.0)
    far = vehicle(2, -400.0, 0.0, 33.0)          # catching up from behind
    src = vehicle(9, 0.0, 0.0, -5.0)
    fleet = [head, bridge, far, src]
    cluster = build_cluster(around(head, src, fleet, models), 12 * MB)
    vids = [m.vid for m in cluster.members]
    assert 2 in vids
    assert 1 not in vids


def test_plan_margin_derates_member_budgets():
    models, head, src, fleet = _three_member_scene()
    v_bytes = 10 * MB
    full = build_cluster(around(head, src, fleet, models), v_bytes)
    assert full.members[0].planned_frags == 10
    # One second of margin at 8 Mbit/s shaves ceil(1 MB / 1 MB) = 1 frag.
    derated_models = single_rate_models(8e6, plan_margin_s=1.0)
    derated = build_cluster(
        around(head, src, fleet, derated_models), v_bytes)
    assert derated.members[0].planned_frags == 9
    assert derated.n_c == 2


def test_late_short_contact_caps_the_member_at_its_window():
    # The member meets the head only after its download window has been
    # open for a while, and briefly: the usable share is what fits through
    # the contact at the MAC forwarding rate, not the download budget.
    models = single_rate_models(8e6, horizon_s=300.0)
    head = vehicle(0, 0.0, 0.0, 20.0)
    chain = [vehicle(i, 200.0 * i, 0.0, -30.0) for i in (1, 2, 3)]
    member = vehicle(4, 800.0, 0.0, 2.0)         # head closes at 18 m/s
    src = vehicle(9, 800.0, 0.0, 2.0)            # rides with the member
    fleet = [head, *chain, member, src]
    cluster = build_cluster(around(head, src, fleet, models), 5 * MB)
    assert [m.vid for m in cluster.members] == [4]
    t_in, t_out = (800.0 - 250.0) / 18.0, (800.0 + 250.0) / 18.0
    r_thr = throughput(models.mac, 8e6)
    # The contact (t_out - t_in ~ 27.8 s) ends before the member could
    # first fill its own pre-contact time, so the window alone binds.
    assert (t_out - t_in) * r_thr / 8.0 < t_in * 8e6 / 8.0
    want = math.floor((t_out - t_in) * r_thr / 8.0 / MB)
    assert cluster.members[0].planned_frags == want


def test_in_range_member_splits_time_between_download_and_forwarding():
    # Contact with the head is already open, so every byte must first be
    # pulled at the PHY rate and then pushed at the MAC rate before the
    # contact closes: the cap is t_out / (8/e_c + 8/r_thr).
    models = single_rate_models(8e6)
    head = vehicle(0, 0.0, 0.0, 20.0)
    member = vehicle(1, 240.0, 0.0, 4.0)
    src = vehicle(9, 240.0, 0.0, 4.0)            # rides with the member
    fleet = [head, member, src]
    cluster = build_cluster(around(head, src, fleet, models), 35 * MB)
    m = next(m for m in cluster.members if m.vid == 1)
    t_out = (240.0 + 250.0) / 16.0
    r_thr = throughput(models.mac, 8e6)
    want = math.floor(t_out / (8.0 / 8e6 + 8.0 / r_thr) / MB)
    assert m.planned_frags == want
    out = run_cft(recruit(head, fleet, MB, models, [9]), 35 * MB,
                  predicted(fleet, models))
    assert out.mode == "clustered"
    assert out.bytes_delivered == 35 * MB


def test_member_that_never_meets_the_head_contributes_nothing():
    # The only candidate has a healthy download window but, pulling away
    # ahead of the head, will never share air time with it: its fragments
    # could not be handed over, so it must not be counted as capacity.
    models = single_rate_models(8e6)
    head = vehicle(0, 0.0, 0.0, 20.0)
    bridge = vehicle(1, 240.0, 0.0, -30.0)
    src = vehicle(9, 710.0, 0.0, -5.0)
    runaway = vehicle(2, 460.0, 0.0, 33.0)
    with pytest.raises(InsufficientCapacityError):
        build_cluster(
            around(head, src, [head, bridge, runaway, src], models),
            11 * MB)
    # Same scene, but the candidate drifts back into the head instead:
    # now its download is deliverable and the cluster forms around it.
    laggard = vehicle(2, 460.0, 0.0, 5.0)
    cluster = build_cluster(
        around(head, src, [head, bridge, laggard, src], models),
        11 * MB)
    assert [m.vid for m in cluster.members] == [2]


# --- one recruitment shared by every file size ------------------------------


def _scalar_admissions(head, resource, fleet, models):
    """Reference recruitment in 1 MB fragments: every member in order, from
    the per-vehicle scalar ring loop, until the invitation reaches nobody
    new.

    Every ring is found by testing each remaining vehicle against each
    anchor with math.hypot, and every vehicle of the head's heading that
    it reaches is scored.
    """
    try:
        head_budget = link_budget(head, resource, MB, models)
    except ValueError:
        head_budget = None
    if head_budget is not None and head_budget.capacity_bytes > 0:
        plan = _derated_frags(head_budget, MB, models)
        if plan > 0:
            yield ClusterMember(head.vid, head_budget, plan)

    recruited = {head.vid, resource.vid}
    anchors = [head]
    while True:
        ring = []
        for v in fleet:
            if v.vid in recruited:
                continue
            for a in anchors:
                dx, dy, _, _ = _relative(a, v, models)
                if math.hypot(dx, dy) <= models.range_m:
                    ring.append(v)
                    break
        if not ring:
            return
        def dist_to_resource(v):
            dx, dy, _, _ = _relative(resource, v, models)
            return (math.hypot(dx, dy), v.vid)
        ring.sort(key=dist_to_resource)
        for v in ring:
            recruited.add(v.vid)
            if v.vx * head.vx <= 0.0:
                continue
            budget = prospective_link_budget(v, resource, MB, models)
            plan = _plannable_frags(v, head, budget, MB, models)
            if plan > 0:
                yield ClusterMember(v.vid, budget, plan)
        anchors = ring


def _scalar_cluster(head, resource, fleet, v_bytes, models):
    """Reference cluster for one file of v_bytes: the shortest prefix of a
    fresh reference recruitment that covers it, the head always kept."""
    members = []
    covered = 0.0
    for m in _scalar_admissions(head, resource, fleet, models):
        if covered >= v_bytes and m.vid != head.vid:
            return members
        members.append(m)
        covered += MB * m.planned_frags
    if covered < v_bytes:
        raise InsufficientCapacityError
    return members


def _oracle_sizes(head, resource, fleet, models):
    """0, each prefix coverage c_k of the reference recruitment, c_k +- 1
    byte, and one byte above the total coverage."""
    covers = []
    v_bytes = 0.0
    while True:
        try:
            members = _scalar_cluster(head, resource, fleet, v_bytes, models)
        except InsufficientCapacityError:
            break
        covered = 0.0
        for m in members:
            covered += MB * m.planned_frags
        covers.append(covered)
        if math.isinf(covered):
            break
        v_bytes = covered + 1.0
    sizes = {0.0, v_bytes}
    for c in covers:
        sizes.update(v for v in (c - 1.0, c, c + 1.0) if v >= 0.0)
    return sorted(sizes), covers


def _check_reads(head, resource, fleet, models, order):
    """Read every size in order off one recruitment; each read must equal
    a fresh reference recruitment for that size."""
    recruitment = around(head, resource, fleet, models)
    failed = []
    for v_bytes in order:
        try:
            want = _scalar_cluster(head, resource, fleet, v_bytes, models)
        except InsufficientCapacityError:
            want = None
        try:
            got = build_cluster(recruitment, v_bytes)
        except InsufficientCapacityError:
            got = None
        if want is None or got is None:
            assert want is None and got is None, v_bytes
            failed.append(v_bytes)
            continue
        assert (got.head, got.resource) == (head.vid, resource.vid)
        assert [(m.vid, m.budget, m.planned_frags) for m in got.members] == \
            [(m.vid, m.budget, m.planned_frags) for m in want], v_bytes
    return failed


def _check_scene(head, resource, fleet, models):
    """Growing, shrinking, then repeated reads, and the reverse; returns
    how many reads found a cluster and how many ran out of capacity."""
    sizes, covers = _oracle_sizes(head, resource, fleet, models)
    found = exhausted = 0
    for order in (sizes + sizes[::-1] + sizes, sizes[::-1] + sizes):
        failed = _check_reads(head, resource, fleet, models, order)
        exhausted += len(failed)
        found += len(order) - len(failed)
    # Exhaustion sets in exactly above the total coverage, on every read.
    assert exhausted == 5 * sum(v > covers[-1] for v in sizes)
    return found, exhausted


def test_shared_recruitment_matches_fresh_recruitment_random_scenes(
        default_cfg):
    gen = np.random.default_rng(70_707)
    models = default_cfg.models(250.0, 5.0, horizon_s=120.0)
    found = exhausted = 0
    for _ in range(200):
        fleet, head, holders, _ = random_scene(gen)
        recruitment = recruit(head, fleet, MB, models, holders)
        # An out-of-range resource exercises a head without a direct link.
        resource = (recruitment.resource if recruitment is not None
                    else next(v for v in fleet if v.vid == holders[0]))
        scene_found, scene_exhausted = _check_scene(head, resource, fleet,
                                                    models)
        found += scene_found
        exhausted += scene_exhausted
    assert found > 0 and exhausted > 0


def _ring_scene(gen, n, length_m):
    """n vehicles spread over a whole ring road, even vids eastbound."""
    fleet = []
    for vid in range(n):
        way = 1.0 if vid % 2 == 0 else -1.0
        x = float(gen.uniform(-length_m / 2, length_m / 2))
        fleet.append(vehicle(vid, x, way * float(gen.choice([2.5, 7.5])),
                             way * float(gen.uniform(16.7, 33.3))))
    return fleet


def test_shared_recruitment_matches_fresh_recruitment_ring_scenes(default_cfg):
    gen = np.random.default_rng(80_808)
    length_m = 3000.0
    models = Models(channel=default_cfg.channel, rates=default_cfg.rates,
                    mac=default_cfg.mac_for(250.0, 5.0), range_m=250.0,
                    horizon_s=120.0, ring_length_m=length_m)
    for _ in range(10):
        fleet = _ring_scene(gen, 40, length_m)
        head = fleet[0]
        resource = min((v for v in fleet if v.vx < 0),
                       key=lambda v: abs(models.ring_dx(head.x, v.x)))
        found, _ = _check_scene(head, resource, fleet, models)
        assert found > 0


def test_shared_recruitment_keeps_the_inclusive_range_edge():
    # A candidate at exactly range_m ahead of the head is in earshot: inside
    # the shipped ring road, and across the seam of a short one.  The head
    # gains on it, so their contact lasts.  Moved 1 nm further, inside the
    # numpy prefilter's slack, it would still contribute but is never
    # invited.
    for ring_length_m, head_x, edge_x in ((LANE_LENGTH_M, 0.0, 250.0),
                                          (2000.0, 850.0, -900.0)):
        models = single_rate_models(8e6, ring_length_m=ring_length_m)
        head = vehicle(0, head_x, 0.0, 20.0)
        edge = vehicle(1, edge_x, 0.0, 19.0)
        src = vehicle(9, head_x + 125.0, 0.0, -5.0)   # between the two
        assert models.ring_dx(head.x, edge.x) == 250.0
        fleet = [head, edge, src]
        _check_scene(head, src, fleet, models)
        v_bytes = 16 * MB                             # head alone: 15 MB
        cluster = build_cluster(around(head, src, fleet, models),
                                v_bytes)
        assert [m.vid for m in cluster.members] == [0, 1]
        far = vehicle(1, edge_x + 1e-9, 0.0, 19.0)
        assert models.ring_dx(head.x, far.x) > 250.0
        with pytest.raises(InsufficientCapacityError):
            build_cluster(around(head, src, [head, far, src], models),
                          v_bytes)
        # Once the head is near enough to invite it, it does contribute.
        near = vehicle(0, head_x + 1e-6, 0.0, 20.0)
        assert build_cluster(around(near, src, [near, far, src], models),
                             v_bytes).n_c == 2


# --- where the invitation stops ---------------------------------------------


def _exhausted(head, resource, fleet, models):
    """Every member of the request's recruitment, read until its
    invitation stops."""
    recruitment = around(head, resource, fleet, models)
    return recruitment.members + list(recruitment._pending)


def _check_admissions(head, resource, fleet, models):
    """The invitation admits exactly the reference recruitment's members,
    in its order, down to the last; returns how many."""
    got = _exhausted(head, resource, fleet, models)
    want = list(_scalar_admissions(head, resource, fleet, models))
    assert [(m.vid, m.budget, m.planned_frags) for m in got] == \
        [(m.vid, m.budget, m.planned_frags) for m in want]
    return len(got)


def _warmed_request(cfg, experiment, density, seed_idx):
    """A shipped transfer experiment's request: its head, resource and
    fleet at the request instant, and its planning models."""
    e = cfg.experiments
    if experiment == "max-volume":
        sd, r_m, steps = (e.max_volume_sd_m, e.max_volume_range_m,
                          e.max_volume_warmup_steps)
        models = cfg.models(r_m, density,
                            plan_margin_s=e.max_volume_plan_margin_s)
    else:
        sd, r_m, steps = e.cluster_sd_m, e.cluster_range_m, e.cluster_warmup_steps
        models = cfg.models(r_m, density, e.cluster_horizon_s)
    start = simulator.warm_starts(cfg, [(density, seed_idx)], sd, r_m, steps,
                                  experiment)[0]
    fleet, head, resource, _ = simulator.request_instant(start, "encounter")
    states = simulator._vehicle_states(fleet.x, fleet.y, fleet.vx)
    return states[head], states[resource], states, models


@pytest.mark.parametrize("experiment", ["max-volume", "cluster"])
@pytest.mark.parametrize("density", [5.0, 10.0])
def test_invitation_admits_the_reference_members_on_warmed_fleets(
        default_cfg, experiment, density):
    # Max-volume plans over 120 s with a plan margin, cluster-size over
    # 3,600 s.
    admitted = 0
    for seed_idx in range(3):
        admitted += _check_admissions(
            *_warmed_request(default_cfg, experiment, density, seed_idx))
    assert admitted > 0


@pytest.mark.parametrize("horizon_s", [120.0, math.inf])
@pytest.mark.parametrize("opens_s", [119.5, 120.5])
def test_invitation_at_a_resource_contact_opening_near_the_horizon(
        horizon_s, opens_s):
    # The member rides with the head.  The resource closes on both at
    # 25 m/s and comes into the member's range opens_s from now: inside a
    # 120 s horizon that is 0.5 s of contact, 5 fragments at 80 Mbit/s.
    models = single_rate_models(80e6, horizon_s=horizon_s)
    head = vehicle(0, 0.0, 0.0, 20.0)
    member = vehicle(1, 10.0, 0.0, 20.0)
    src = vehicle(9, 260.0 + 25.0 * opens_s, 0.0, -5.0)
    assert _check_admissions(head, src, [head, member, src], models) == \
        (opens_s < horizon_s)


@pytest.mark.parametrize("horizon_s", [120.0, math.inf])
@pytest.mark.parametrize("opens_s", [117.0, 123.0])
def test_invitation_at_a_head_contact_opening_near_the_horizon(
        horizon_s, opens_s):
    # The member rides with the resource far ahead and downloads from it
    # at once.  The head gains on both at 19 m/s and meets the member
    # opens_s from now: inside a 120 s horizon that is 3 s to forward 2
    # fragments in.  Oncoming vehicles relay the invitation out to them.
    models = single_rate_models(8e6, horizon_s=horizon_s)
    head = vehicle(0, 0.0, 0.0, 20.0)
    gap = 250.0 + 19.0 * opens_s
    member = vehicle(1, gap, 0.0, 1.0)
    src = vehicle(9, gap + 10.0, 0.0, 1.0)
    relays = [vehicle(100 + i, 200.0 * i, 0.0, -30.0)
              for i in range(1, int(gap // 200.0) + 1)]
    fleet = [head, *relays, member, src]
    assert _check_admissions(head, src, fleet, models) == (opens_s < horizon_s)


def test_invitation_at_the_range_edge_with_zero_relative_speed():
    # Head, resource and member share one velocity, and the member sits
    # exactly range_m from the resource as math.hypot measures it, in
    # another lane.  At this offset np.hypot can round that distance up,
    # and _may_join's slack keeps the member anyway.
    head = vehicle(0, 0.0, 0.0, 20.0)
    src = vehicle(9, 100.0, 0.0, 20.0)
    edge = vehicle(1, -138.533, -65.0, 20.0)
    range_m = math.hypot(single_rate_models(8e6).ring_dx(edge.x, src.x),
                         src.y - edge.y)
    models = single_rate_models(8e6, range_m=range_m)
    assert _check_admissions(head, src, [head, edge, src], models) == 2


@pytest.mark.parametrize("horizon_s", [120.0, math.inf])
def test_invitation_admits_the_reference_members_with_lateral_motion(
        default_cfg, horizon_s):
    gen = np.random.default_rng(90_909)
    models = default_cfg.models(250.0, 5.0, horizon_s=horizon_s,
                                plan_margin_s=1.0)
    admitted = 0
    for _ in range(100):
        fleet, head, holders, _ = random_scene(gen)
        # Lane changes and drift, with some pairs left at zero lateral
        # speed.
        fleet = [dataclasses.replace(v, vy=float(gen.choice([0.0, -1.5, 0.8])))
                 for v in fleet]
        head = fleet[head.vid]
        resource = fleet[holders[0]]
        admitted += _check_admissions(head, resource, fleet, models)
    assert admitted > 0


def test_invitation_stops_once_nobody_left_may_join(default_cfg,
                                                     monkeypatch):
    # Unmasked, the invitation of a shipped max-volume request relays ring
    # by ring round the whole road; it stops as soon as no vehicle it has
    # yet to reach may join, and admits the same members.
    head, resource, states, models = _warmed_request(default_cfg,
                                                     "max-volume", 10.0, 0)
    passes = []
    in_earshot = protocol._in_earshot

    def counting(*args):
        hit = in_earshot(*args)
        passes.append(bool(hit.any()))
        return hit

    monkeypatch.setattr(protocol, "_in_earshot", counting)
    members = _exhausted(head, resource, states, models)
    stopped_after = len(passes)
    passes.clear()
    monkeypatch.setattr(protocol, "_may_join", unstopped_invitation)
    assert _exhausted(head, resource, states, models) == members
    rings = sum(passes)
    assert 0 < stopped_after < rings


def test_clusters_of_one_recruitment_do_not_share_members():
    models, head, src, fleet = _three_member_scene()
    recruitment = around(head, src, fleet, models)
    big = assign_fragments(build_cluster(recruitment, 30 * MB))
    before = [(m.frag_start, m.frag_count) for m in big.members]
    small = assign_fragments(build_cluster(recruitment, 15 * MB))
    for cluster, n_frags in ((big, 30), (small, 15)):
        assert (cluster.v_bytes, cluster.s_bytes) == (n_frags * MB, MB)
        seen = []
        for m in cluster.members:
            seen.extend(range(m.frag_start, m.frag_start + m.frag_count))
        assert seen == list(range(n_frags))            # exact partition
    assert [(m.frag_start, m.frag_count) for m in big.members] == before
    assert before == [(0, 10), (10, 10), (20, 10)]
    assert [(m.frag_start, m.frag_count) for m in small.members] == \
        [(0, 10), (10, 5)]


# --- fragment assignment ----------------------------------------------------


def _member(vid, n_frags, e_c=8e6):
    from cftsim.protocol import LinkBudget
    frag_time = n_frags * 8.0 * MB / e_c
    b = LinkBudget(delta_t_s=frag_time, e_c_bps=e_c, n_frags=n_frags,
                   capacity_bytes=n_frags * MB)
    return ClusterMember(vid=vid, budget=b, planned_frags=n_frags)


def test_assignment_gives_everything_to_a_big_member():
    cluster = Cluster(head=0, resource=9, members=[_member(0, 12)],
                      v_bytes=10 * MB, s_bytes=MB)
    assign_fragments(cluster)
    assert cluster.members[0].frag_start == 0
    assert cluster.members[0].frag_count == 10


def test_assignment_splits_contiguously():
    cluster = Cluster(head=0, resource=9,
                      members=[_member(0, 3), _member(1, 5)],
                      v_bytes=8 * MB, s_bytes=MB)
    assign_fragments(cluster)
    assert (cluster.members[0].frag_start, cluster.members[0].frag_count) == (0, 3)
    assert (cluster.members[1].frag_start, cluster.members[1].frag_count) == (3, 5)


def test_assignment_rejects_uncovered_files():
    cluster = Cluster(head=0, resource=9, members=[_member(0, 3)],
                      v_bytes=4 * MB, s_bytes=MB)
    with pytest.raises(ValueError):
        assign_fragments(cluster)


def test_assignment_partitions_randomized_clusters():
    gen = np.random.default_rng(808)
    for _ in range(300):
        n_members = int(gen.integers(1, 9))
        members = [_member(i, int(gen.integers(1, 30)))
                   for i in range(n_members)]
        total = int(sum(m.budget.n_frags for m in members))
        n_frags = int(gen.integers(1, total + 1))
        cluster = Cluster(head=0, resource=99, members=members,
                          v_bytes=n_frags * MB, s_bytes=MB)
        assign_fragments(cluster)
        seen = []
        for m in cluster.members:
            assert 0 <= m.frag_count <= m.budget.n_frags
            seen.extend(range(m.frag_start, m.frag_start + m.frag_count))
        assert seen == list(range(n_frags))   # exact partition, in order


# --- forwarding -------------------------------------------------------------


def test_forwarding_trivial_cases():
    models = single_rate_models(8e6)
    head = vehicle(0, 0.0, 0.0, 0.0)
    member = vehicle(1, 100.0, 0.0, 0.0)         # same velocity: unbounded
    assert forwarding_feasible(member, head, 0.0, models)
    assert forwarding_feasible(member, head, 1e15, models)
    parted = vehicle(2, 300.0, 0.0, 10.0)        # gone for good
    assert forwarding_feasible(parted, head, 0.0, models)
    assert not forwarding_feasible(parted, head, 1.0, models)


def test_forwarding_boundary_is_inclusive():
    models = single_rate_models(8e6)
    head = vehicle(0, 0.0, 0.0, 0.0)
    member = vehicle(1, 0.0, 0.0, 10.0)          # 25 s of contact left
    d_mid = math.hypot(0.0 + 10.0 * 12.5, 0.0)
    r_thr = throughput(models.mac,
                       expected_rate(d_mid, models.channel, models.rates))
    exact = 25.0 * r_thr / 8.0
    assert forwarding_feasible(member, head, exact, models)
    assert not forwarding_feasible(member, head, exact * (1.0 + 1e-9), models)


def test_forwarding_waits_for_a_future_contact():
    models = single_rate_models(8e6)
    head = vehicle(0, 0.0, 0.0, 0.0)
    inbound = vehicle(1, 500.0, 0.0, -10.0)      # contact at t=25..75
    r_thr = throughput(models.mac,
                       expected_rate(250.0, models.channel, models.rates))
    within = 49.0 * r_thr / 8.0
    beyond = 51.0 * r_thr / 8.0
    assert forwarding_feasible(inbound, head, within, models)
    assert not forwarding_feasible(inbound, head, beyond, models)


# --- end-to-end runs --------------------------------------------------------


def test_run_cft_uses_direct_mode_for_small_files():
    models, head, src, fleet = _three_member_scene()
    out = run_cft(recruit(head, fleet, MB, models, [9]), 5 * MB,
                  predicted(fleet, models))
    assert out.mode == "direct"
    assert out.bytes_delivered == 5 * MB
    assert out.cluster is None


def test_run_cft_fails_without_a_reachable_holder():
    models, head, src, fleet = _three_member_scene()
    out = run_cft(recruit(head, fleet, MB, models, []), 5 * MB,
                  predicted(fleet, models))
    assert out.mode == "failed"
    assert out.bytes_delivered == 0.0
    out = run_cft(recruit(head, fleet, MB, models, [0]), 5 * MB,
                  predicted(fleet, models))
    assert out.mode == "failed"   # the requester itself does not count


def test_run_cft_clusters_and_delivers():
    models, head, src, fleet = _three_member_scene()
    out = run_cft(recruit(head, fleet, MB, models, [9]), 30 * MB,
                  predicted(fleet, models))
    assert out.mode == "clustered"
    assert out.bytes_delivered == 30 * MB
    assert out.n_c == 3
    assert all(r.forward_ok for r in out.member_results)
    total_assigned = sum(r.assigned_bytes for r in out.member_results)
    assert total_assigned == 30 * MB


def test_run_cft_marks_shortfalls_failed():
    models, head, src, fleet = _three_member_scene()
    # Realised windows half the predicted ones: downloads fall short.  The
    # vehicles themselves move as predicted.
    halved = {0: (0.0, 5.0), 1: (0.0, 5.0), 2: (0.0, 5.0)}

    class HalvedWindows(Ballistic):
        def window(self, vid_a, vid_b, range_m):
            assert (vid_b, range_m) == (9, models.range_m)
            return halved[vid_a]

    recruitment = recruit(head, fleet, MB, models, [9])
    out = run_cft(recruitment, 30 * MB,
                  HalvedWindows(recruitment.states, recruitment.models))
    assert out.mode == "failed"
    assert out.bytes_delivered == 15 * MB


def test_direct_baseline_discards_oversized_files():
    models, head, src, fleet = _three_member_scene()
    ok = run_direct_baseline(recruit(head, fleet, MB, models, [9]), 10 * MB,
                             predicted(fleet, models))
    assert ok.mode == "direct"
    assert ok.bytes_delivered == 10 * MB
    big = run_direct_baseline(recruit(head, fleet, MB, models, [9]),
                              10 * MB + 1, predicted(fleet, models))
    assert big.mode == "failed"
    assert big.bytes_delivered == 0.0
    assert big.member_results == []          # not attempted


def test_direct_baseline_is_scored_on_the_traffic():
    # The file fits the predicted 10-fragment link, but the realised head
    # window is half the predicted one: the head downloads 5 fragments,
    # scored as _evaluate_plan scores a cluster's head.
    models, head, src, fleet = _three_member_scene()

    class HalvedWindows(Ballistic):
        def window(self, vid_a, vid_b, range_m):
            assert (vid_a, vid_b, range_m) == (0, 9, models.range_m)
            return (0.0, 5.0)

    recruitment = recruit(head, fleet, MB, models, [9])
    traffic = HalvedWindows(recruitment.states, recruitment.models)
    out = run_direct_baseline(recruitment, 10 * MB, traffic)
    assert out.mode == "failed"
    assert out.bytes_delivered == 5 * MB
    assert out.n_c == 0 and out.cluster is None
    assert out.member_results == [MemberResult(
        vid=0, assigned_bytes=10 * MB, downloaded_bytes=5 * MB,
        forwarded_bytes=5 * MB, download_done_s=5.0, forward_ok=True)]
    # A cluster of the same file reads the head's score off the memo.
    cluster = assign_fragments(build_cluster(recruitment, 10 * MB))
    clustered = _evaluate_plan(cluster, recruitment, traffic)
    assert clustered.member_results == out.member_results
    assert len(recruitment.scores) == 1


@pytest.mark.parametrize("read, holders", [
    (build_cluster, [9]),
    (form_cluster, [9]), (form_cluster, []),
    (run_cft, [9]), (run_cft, []),
    (run_direct_baseline, [9]), (run_direct_baseline, []),
], ids=lambda v: getattr(v, "__name__", "holder" if v else "no-holder"))
def test_negative_volume_is_rejected(read, holders):
    # With holders=[] recruit returns None: no holder is reachable.
    models, head, src, fleet = _three_member_scene()
    recruitment = recruit(head, fleet, MB, models, holders)
    assert (recruitment is None) == (not holders)
    traffic = ((predicted(fleet, models),)
               if read in (run_cft, run_direct_baseline) else ())
    for v_bytes in (-1.0, math.nan):
        with pytest.raises(ValueError):
            read(recruitment, v_bytes, *traffic)


def test_zero_byte_file_is_a_trivial_direct_success():
    models, head, src, fleet = _three_member_scene()
    out = run_cft(recruit(head, fleet, MB, models, [9]), 0.0,
                  predicted(fleet, models))
    assert out.mode == "direct"
    assert out.bytes_delivered == 0.0
