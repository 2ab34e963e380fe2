"""Transfer protocol: budgets, recruitment, assignment, execution."""

import dataclasses
import math

import numpy as np
import pytest

from cftsim import protocol, simulator
from cftsim.channel import expected_rate
from cftsim.mac import throughput
from cftsim.mobility import ring_delta
from cftsim.protocol import (Ballistic, Cluster, ClusterMember,
                             InsufficientCapacityError, LinkBudget,
                             MemberResult, Models, Recruitment, Snapshot,
                             VehicleState,
                             _derated_frags, _evaluate_plan,
                             _in_range, _plannable_frags, _relative,
                             assign_fragments, build_cluster, form_cluster,
                             forwarding_feasible, link_budget,
                             prospective_link_budget, recruit, run_cft,
                             run_direct_baseline, select_resource)

from conftest import (LANE_LENGTH_M, predicted, random_scene,
                      single_rate_models, unstopped_invitation,
                      vehicle_states, warm_start)

MB = 1_000_000.0


def vehicle(vid, x, y=0.0, vx=0.0, vy=0.0):
    return VehicleState(vid=vid, x=x, y=y, vx=vx, vy=vy)


def test_cluster_fragment_accounting():
    c = Cluster(0, 9, [_member(0, 12)], 10.5 * MB, MB)
    assert assign_fragments(c) == [11]
    assert c.fragment_bytes(0, 1) == MB
    assert c.fragment_bytes(10, 1) == 0.5 * MB   # short final fragment
    assert c.fragment_bytes(0, 11) == 10.5 * MB
    assert c.fragment_bytes(3, 0) == 0.0
    assert assign_fragments(Cluster(0, 9, [_member(0, 12)], 0.0, MB)) == [0]


@pytest.mark.parametrize("s_bytes", [0.0, -MB, math.nan],
                         ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("holders", [[9], []], ids=["holder", "no-holder"])
def test_non_positive_fragment_size_is_rejected(s_bytes, holders):
    # Both ways a fragment size enters, even when no holder is reachable.
    models, head, src, fleet = _three_member_scene()
    with pytest.raises(ValueError):
        recruit(head, fleet, s_bytes, models, holders)
    with pytest.raises(ValueError):
        Recruitment(head, src, link_budget(head, src, MB, models),
                    Snapshot.of(fleet), s_bytes, models)


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


def _edge_pairs(n=10_000):
    """(models, a, b) with b exactly at the edge of a's range: range_m is
    the math.hypot distance of the pair's ring offset.  First the ring
    offsets x = 210.526, 185.517 and 236.535 m with dy = 65 m, at which a
    squared-distance test puts the pair out of that range; then n seeded
    pairs around the ring, every tenth at standstill."""
    base = single_rate_models(8e6)

    def at_edge(a, b):
        dx, dy, _, _ = _relative(a, b, base)
        return dataclasses.replace(base, range_m=math.hypot(dx, dy)), a, b

    for x in (210.526, 185.517, 236.535):
        yield at_edge(vehicle(0, 0.0, 0.0, 25.0), vehicle(1, x, 65.0, -25.0))
    gen = np.random.default_rng(2025)
    lanes = (-7.5, -2.5, 2.5, 7.5)
    for k in range(n):
        xa = gen.uniform(0.0, LANE_LENGTH_M)
        xb = (xa + gen.uniform(-600.0, 600.0)) % LANE_LENGTH_M
        va, vb = (0.0, 0.0) if k % 10 == 0 else gen.uniform(-35.0, 35.0, 2)
        yield at_edge(vehicle(0, xa, lanes[gen.integers(4)], va),
                      vehicle(1, xb, lanes[gen.integers(4)], vb))


def test_range_edge_pairs_get_a_budget_from_now():
    squares_disagree = []
    for models, a, b in _edge_pairs():
        dx, dy, _, _ = _relative(a, b, models)
        squares_disagree.append(
            dx * dx + dy * dy > models.range_m * models.range_m)
        budget = link_budget(a, b, MB, models)
        assert budget.t_start_s == 0.0
        assert budget.delta_t_s >= 0.0
        assert prospective_link_budget(a, b, MB, models) == budget
        window = Ballistic(Snapshot.of([a, b]), models).window(0, 1, models.range_m)
        assert window == (0.0, budget.delta_t_s)
    assert all(squares_disagree[:3]) and any(squares_disagree[3:])


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
    t_in, t_out = Ballistic(Snapshot.of([member, src]), models).window(
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
        traffic = Ballistic(recruitment.snapshot, recruitment.models)
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
    assert select_resource(req, [], MB, models) is None
    assert select_resource(req, [vehicle(3, 500.0, 0.0, -10.0)], MB,
                           models) is None


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
            dx = ring_delta(req.x, r.x, models.ring_length_m)
            dy = r.y - req.y
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
    src, which need not be in range of the head: recruit's when it is, and
    one whose head has an empty link to src when it is not."""
    try:
        head_budget = link_budget(head, src, MB, models)
    except ValueError:
        head_budget = LinkBudget(0.0, 0.0, 0, 0.0)
    return Recruitment(head, src, head_budget, Snapshot.of(fleet), MB,
                       models)


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
    assert sum(MB * m.planned_frags for m in cluster.members) == 30 * MB


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


@pytest.mark.parametrize("plan_margin_s,want", [(0.0, 24), (2.0, 23)])
def test_late_short_contact_caps_the_member_at_its_window(plan_margin_s,
                                                          want):
    # The member meets the head only after its download window has been
    # open for a while, and briefly: the usable share is what fits through
    # the contact, less the margin, at the MAC forwarding rate, not the
    # download budget.
    models = single_rate_models(8e6, horizon_s=300.0,
                                plan_margin_s=plan_margin_s)
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
    usable_s = t_out - t_in - plan_margin_s
    assert math.floor(usable_s * r_thr / 8.0 / MB) == want
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
    frag_start = 0                  # the plans of the members so far
    if head_budget is not None and head_budget.capacity_bytes > 0:
        plan = _derated_frags(head_budget, MB, models)
        if plan > 0:
            yield ClusterMember(head.vid, head_budget, plan, frag_start)
            frag_start += plan

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
                yield ClusterMember(v.vid, budget, plan, frag_start)
                frag_start += plan
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
        assert got.members == want, v_bytes
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
                       key=lambda v: abs(ring_delta(head.x, v.x, length_m)))
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
        assert ring_delta(head.x, edge.x, ring_length_m) == 250.0
        fleet = [head, edge, src]
        _check_scene(head, src, fleet, models)
        v_bytes = 16 * MB                             # head alone: 15 MB
        cluster = build_cluster(around(head, src, fleet, models),
                                v_bytes)
        assert [m.vid for m in cluster.members] == [0, 1]
        far = vehicle(1, edge_x + 1e-9, 0.0, 19.0)
        assert ring_delta(head.x, far.x, ring_length_m) > 250.0
        with pytest.raises(InsufficientCapacityError):
            build_cluster(around(head, src, [head, far, src], models),
                          v_bytes)
        # Once the head is near enough to invite it, it does contribute.
        near = vehicle(0, head_x + 1e-6, 0.0, 20.0)
        assert build_cluster(around(near, src, [near, far, src], models),
                             v_bytes).n_c == 2


def _hypot_roundings(gen, length_m, n=200_000):
    """Seeded pairs ((xa, ya), (xb, yb)) across the ring's seam, 50-300 m
    apart, at which np.hypot rounds the distance math.hypot gives: first
    those it rounds up, then those it rounds down."""
    lanes = np.array([-7.5, -2.5, 2.5, 7.5])
    xa = gen.uniform(length_m - 150.0, length_m, n)
    xb = (xa + gen.uniform(50.0, 300.0, n)) % length_m
    ya, yb = lanes[gen.integers(4, size=n)], lanes[gen.integers(4, size=n)]
    swap = gen.random(n) < 0.5
    xa, xb = np.where(swap, xb, xa), np.where(swap, xa, xb)
    dx, dy = ring_delta(xa, xb, length_m), yb - ya
    up, down = [], []
    for i, (d_np, d) in enumerate(zip(np.hypot(dx, dy).tolist(),
                                      map(math.hypot, dx.tolist(),
                                          dy.tolist()))):
        if d_np != d:
            pair = ((float(xa[i]), float(ya[i])), (float(xb[i]), float(yb[i])))
            (up if d_np > d else down).append(pair)
    return up, down


def _check_earshot(fleet, models):
    """The neighbour pass over fleet equals _in_range for every ordered
    pair of distinct vehicles; returns its mask."""
    heard = protocol._earshot(np.array([v.x for v in fleet]),
                              np.array([v.y for v in fleet]), models)
    assert heard.tolist() == [[a is not c and _in_range(a, c, models)
                               for c in fleet] for a in fleet]
    return heard


def _one_way_pair(gen, length_m):
    """A pair ((xa, ya), (xb, yb)) near the ring's seam whose two ring
    offsets are not each other's negation in floats, and the range at
    which only the pair's nearer direction is in range."""
    lanes = np.array([-7.5, -2.5, 2.5, 7.5])
    while True:
        xa = float(gen.uniform(length_m - 150.0, length_m))
        xb = float((xa + gen.uniform(50.0, 300.0)) % length_m)
        ya, yb = (float(v) for v in lanes[gen.integers(4, size=2)])
        there = math.hypot(ring_delta(xa, xb, length_m), yb - ya)
        back = math.hypot(ring_delta(xb, xa, length_m), ya - yb)
        if there != back:
            return ((xa, ya), (xb, yb)), min(there, back)


def test_neighbour_pass_equals_the_scalar_range_test():
    # Seeded scenes of 40 vehicles on a 2,000 m ring, a fifth of each
    # scene within 150 m of the seam.  Vehicles 0 and 1 straddle the seam
    # at an edge: range_m is their math.hypot distance, which np.hypot
    # rounds up, or one ulp below it, which np.hypot rounds down to, so a
    # plain np.hypot test gets that pair wrong; or their two ring offsets
    # round apart and range_m puts only one direction in range.  Each
    # scene is tested as built, then with every position moved by a
    # whole number of laps, out of [0, length_m).
    gen = np.random.default_rng(31_337)
    length_m = 2000.0
    lanes = (-7.5, -2.5, 2.5, 7.5)
    up, down = _hypot_roundings(gen, length_m)
    assert len(up) >= 20 and len(down) >= 20
    scenes = [(pair, False) for pair in up[:20]] + \
        [(pair, True) for pair in down[:20]]
    scenes += [_one_way_pair(gen, length_m) for _ in range(20)]
    for pair, edge in scenes:
        (xa, ya), (xb, yb) = pair
        fleet = [vehicle(0, xa, ya), vehicle(1, xb, yb)]
        for vid in range(2, 40):
            x = (gen.uniform(-150.0, 150.0) % length_m if vid % 5 == 0
                 else gen.uniform(0.0, length_m))
            fleet.append(vehicle(vid, float(x), lanes[gen.integers(4)]))
        dx, dy, _, _ = _relative(fleet[0], fleet[1],
                                 single_rate_models(8e6,
                                                    ring_length_m=length_m))
        if isinstance(edge, bool):
            range_m = math.hypot(dx, dy)
            if edge:
                range_m = math.nextafter(range_m, 0.0)
        else:
            range_m = edge
        models = single_rate_models(8e6, range_m=range_m,
                                    ring_length_m=length_m)
        if isinstance(edge, bool):
            assert (np.hypot(dx, dy) <= range_m) != _in_range(
                fleet[0], fleet[1], models)
        heard = _check_earshot(fleet, models)
        if not isinstance(edge, bool):
            assert heard[0, 1] != heard[1, 0]
        laps = gen.integers(-3, 4, size=len(fleet))
        _check_earshot([dataclasses.replace(v, x=v.x + float(k) * length_m)
                        for v, k in zip(fleet, laps)], models)


@pytest.mark.parametrize("length_m", [120.0, 300.0, 501.0, 502.0, 503.0])
def test_neighbour_pass_on_a_ring_shorter_than_twice_the_reach(length_m):
    # At 250 m the band reaches 251 m either way, so on these rings one
    # vehicle's band ahead and its band across the seam overlap, or cover
    # the ring more than once; every pair must still be tested exactly.
    gen = np.random.default_rng(int(length_m))
    models = single_rate_models(8e6, range_m=250.0, ring_length_m=length_m)
    for n in (1, 2, 9, 30):
        fleet = [vehicle(vid, float(gen.uniform(-2.0, 3.0) * length_m),
                         float(gen.choice([-7.5, -2.5, 2.5, 7.5])))
                 for vid in range(n)]
        _check_earshot(fleet, models)


# --- where the invitation stops ---------------------------------------------


def _exhausted_members(recruitment):
    """Every member of a recruitment, read until its invitation stops."""
    return recruitment.members + list(recruitment._pending)


def _exhausted(head, resource, fleet, models):
    """Every member of the request's recruitment, read until its
    invitation stops."""
    return _exhausted_members(around(head, resource, fleet, models))


def _check_admissions(head, resource, fleet, models):
    """The invitation admits exactly the reference recruitment's members,
    in its order, down to the last; returns how many."""
    got = _exhausted(head, resource, fleet, models)
    want = list(_scalar_admissions(head, resource, fleet, models))
    assert got == want
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
    start = warm_start(cfg, density, seed_idx, sd, r_m, steps, experiment)
    _, head, resource, fleet, _ = simulator.request_instant(start, "encounter")
    states = vehicle_states(fleet.x, fleet.y, fleet.vx)
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
    range_m = math.hypot(ring_delta(edge.x, src.x, LANE_LENGTH_M),
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


def _seam_scene(gen, length_m):
    """A request scene on a ring of length_m round its seam: the head, 2-9
    eastbound vehicles within 600 m of it and 1-3 oncoming holders within
    300 m, every position moved by a whole number of laps, some out of
    [0, length_m)."""
    lanes = (2.5, 7.5)
    fleet = []
    for vid in range(int(gen.integers(3, 11))):
        x = (length_m - 50.0 + (gen.uniform(-600.0, 600.0) if vid else 0.0))
        fleet.append(vehicle(vid, x, float(gen.choice(lanes)),
                             float(gen.uniform(16.7, 33.3))))
    holders = []
    for _ in range(int(gen.integers(1, 4))):
        holders.append(len(fleet))
        fleet.append(vehicle(len(fleet),
                             length_m - 50.0 + gen.uniform(-300.0, 300.0),
                             -float(gen.choice(lanes)),
                             -float(gen.uniform(16.7, 33.3))))
    laps = gen.integers(-2, 3, size=len(fleet))
    fleet = [dataclasses.replace(v, x=v.x + float(k) * length_m)
             for v, k in zip(fleet, laps)]
    return fleet, fleet[0], holders


def _shuffled_snapshot(fleet, gen):
    """The Snapshot of fleet, built from arrays in a shuffled row order."""
    rows = [fleet[i] for i in gen.permutation(len(fleet))]
    return Snapshot(np.array([v.vid for v in rows]),
                    *(np.array([getattr(v, name) for v in rows])
                      for name in ("x", "y", "vx", "vy")))


def test_a_fleet_with_a_repeated_vehicle_id_is_rejected():
    models, head, src, fleet = _three_member_scene()
    twice = fleet + [vehicle(1, 50.0, 0.0, 20.0)]
    with pytest.raises(ValueError):
        Snapshot.of(twice)
    with pytest.raises(ValueError):
        recruit(head, twice, MB, models, [9])


@pytest.mark.parametrize("scene", ["random", "ring", "seam-2000",
                                   "seam-11000"])
def test_recruit_on_a_snapshot_equals_recruit_on_its_states(default_cfg,
                                                            scene):
    gen = np.random.default_rng(4_242)
    admitted = 0
    for k in range(60 if scene != "ring" else 10):
        length_m = LANE_LENGTH_M
        if scene == "random":
            fleet, head, holders, _ = random_scene(gen)
        elif scene == "ring":
            length_m = 3000.0
            fleet = _ring_scene(gen, 40, length_m)
            head = fleet[0]
            holders = [v.vid for v in fleet if v.vx < 0]
        else:
            length_m = float(scene.split("-")[1])
            fleet, head, holders = _seam_scene(gen, length_m)
        models = dataclasses.replace(
            default_cfg.models(250.0, 5.0, horizon_s=120.0,
                               plan_margin_s=1.0),
            ring_length_m=length_m)
        if k % 2:
            # Lane changes and drift.
            fleet = [dataclasses.replace(
                v, vy=float(gen.choice([0.0, -1.5, 0.8]))) for v in fleet]
            head = fleet[head.vid]
        snapshot = _shuffled_snapshot(fleet, gen)
        assert [snapshot[v.vid] for v in fleet] == fleet
        from_states = recruit(head, fleet, MB, models, holders)
        from_snapshot = recruit(head, snapshot, MB, models, holders)
        if from_states is None:
            assert from_snapshot is None
            continue
        assert from_snapshot.resource == from_states.resource
        assert _exhausted_members(from_snapshot) == \
            _exhausted_members(from_states)
        admitted += _check_admissions(head, from_states.resource, fleet,
                                      models)
    assert admitted > 0


def test_invitation_stops_once_nobody_left_may_join(default_cfg,
                                                     monkeypatch):
    # Unmasked, the invitation of a shipped max-volume request relays ring
    # by ring round the whole road; it stops as soon as no vehicle it has
    # yet to reach may join, and admits the same members.
    head, resource, states, models = _warmed_request(default_cfg,
                                                     "max-volume", 10.0, 0)
    rings = []
    next_ring = protocol._next_ring

    def counting(*args):
        ring = next_ring(*args)
        rings.append(ring.size)
        return ring

    monkeypatch.setattr(protocol, "_next_ring", counting)
    members = _exhausted(head, resource, states, models)
    stopped = list(rings)
    rings.clear()
    monkeypatch.setattr(protocol, "_may_join", unstopped_invitation)
    assert _exhausted(head, resource, states, models) == members
    # Every ring of the stopped invitation reached somebody.
    assert all(stopped)
    assert 0 < len(stopped) < sum(size > 0 for size in rings)
    assert members


def _ranges(cluster):
    """Each member's fragment range as (start, count)."""
    return [(m.frag_start, count)
            for m, count in zip(cluster.members, assign_fragments(cluster))]


def test_clusters_of_one_recruitment_share_members_and_ranges():
    # Every cluster of a recruitment holds the recruitment's own members,
    # and assigning one file moves no range of another.
    models, head, src, fleet = _three_member_scene()
    recruitment = around(head, src, fleet, models)
    big = build_cluster(recruitment, 30 * MB)
    before = _ranges(big)
    small = build_cluster(recruitment, 15 * MB)
    for cluster, n_frags in ((big, 30), (small, 15)):
        assert (cluster.v_bytes, cluster.s_bytes) == (n_frags * MB, MB)
        assert all(m is r for m, r in zip(cluster.members,
                                          recruitment.members))
        seen = []
        for start, count in _ranges(cluster):
            seen.extend(range(start, start + count))
        assert seen == list(range(n_frags))            # exact partition
    assert _ranges(big) == before
    assert before == [(0, 10), (10, 10), (20, 10)]
    assert _ranges(small) == [(0, 10), (10, 5)]


# --- fragment assignment ----------------------------------------------------


def _member(vid, n_frags, frag_start=0, e_c=8e6):
    frag_time = n_frags * 8.0 * MB / e_c
    b = LinkBudget(delta_t_s=frag_time, e_c_bps=e_c, n_frags=n_frags,
                   capacity_bytes=n_frags * MB)
    return ClusterMember(vid=vid, budget=b, planned_frags=n_frags,
                         frag_start=frag_start)


def _walked_ranges(cluster):
    """Reference assignment: the stateful loop assign_fragments replaced.
    Members in order each take as many of the fragments still unassigned
    as their plan allows, from where the previous member stopped; (start,
    count) per member."""
    n_total = math.ceil(cluster.v_bytes / cluster.s_bytes)
    next_frag = 0
    ranges = []
    for m in cluster.members:
        if next_frag >= n_total:
            ranges.append((next_frag, 0))
            continue
        remaining = n_total - next_frag
        take = remaining if math.isinf(m.planned_frags) \
            else min(int(m.planned_frags), remaining)
        ranges.append((next_frag, take))
        next_frag += take
    return ranges


def _check_assignment(cluster):
    """assign_fragments gives the reference's counts exactly, and each
    member with fragments the reference's start; the ranges partition the
    file's fragments in order."""
    counts = assign_fragments(cluster)
    walked = _walked_ranges(cluster)
    assert counts == [count for _, count in walked]
    assert [(m.frag_start, count) for m, count in zip(cluster.members, counts)
            if count] == [r for r in walked if r[1]]
    seen = []
    for m, count in zip(cluster.members, counts):
        assert 0 <= count <= m.planned_frags
        seen.extend(range(m.frag_start, m.frag_start + count))
    assert seen == list(range(math.ceil(cluster.v_bytes / cluster.s_bytes)))


def test_assignment_gives_everything_to_a_big_member():
    cluster = Cluster(head=0, resource=9, members=[_member(0, 12)],
                      v_bytes=10 * MB, s_bytes=MB)
    assert assign_fragments(cluster) == [10]
    assert cluster.members[0].frag_start == 0


def test_assignment_splits_contiguously():
    cluster = Cluster(head=0, resource=9,
                      members=[_member(0, 3), _member(1, 5, 3)],
                      v_bytes=8 * MB, s_bytes=MB)
    assert _ranges(cluster) == [(0, 3), (3, 5)]


def test_assignment_partitions_randomized_clusters():
    gen = np.random.default_rng(808)
    for _ in range(300):
        n_members = int(gen.integers(1, 9))
        plans = [int(gen.integers(1, 30)) for _ in range(n_members)]
        members = [_member(i, n, sum(plans[:i])) for i, n in enumerate(plans)]
        n_frags = int(gen.integers(1, sum(plans) + 1))
        _check_assignment(Cluster(head=0, resource=99, members=members,
                                  v_bytes=n_frags * MB, s_bytes=MB))


@pytest.mark.parametrize("experiment", ["max-volume", "cluster"])
@pytest.mark.parametrize("density", [5.0, 10.0])
def test_clusters_are_recruitment_prefixes_on_warmed_fleets(default_cfg,
                                                            density,
                                                            experiment):
    # Every cluster read at 50-900 MB off warmed requests holds the
    # recruitment's own first n_c members, each starting at the plans
    # recruited before it, and is assigned as the reference loop does.
    read = 0
    for seed_idx in range(4):
        head, resource, states, models = _warmed_request(
            default_cfg, experiment, density, seed_idx)
        recruitment = around(head, resource, states, models)
        for v_bytes in np.arange(50, 901, 50) * MB:
            try:
                cluster = build_cluster(recruitment, v_bytes)
            except InsufficientCapacityError:
                continue
            members, n_c = recruitment.members, cluster.n_c
            assert n_c <= len(members)
            assert all(m is r for m, r in zip(cluster.members, members))
            assert [m.frag_start for m in cluster.members] == \
                [sum(r.planned_frags for r in members[:i]) for i in range(n_c)]
            _check_assignment(cluster)
            read += n_c > 2
    assert read > 0            # some clusters had several helpers


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
                  HalvedWindows(recruitment.snapshot, recruitment.models))
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
    traffic = HalvedWindows(recruitment.snapshot, recruitment.models)
    out = run_direct_baseline(recruitment, 10 * MB, traffic)
    assert out.mode == "failed"
    assert out.bytes_delivered == 5 * MB
    assert out.n_c == 0 and out.cluster is None
    assert out.member_results == [MemberResult(
        vid=0, assigned_bytes=10 * MB, downloaded_bytes=5 * MB,
        forwarded_bytes=5 * MB, download_done_s=5.0, forward_ok=True)]
    # A cluster of the same file reads the head's score off the memo.
    cluster = build_cluster(recruitment, 10 * MB)
    clustered = _evaluate_plan(cluster, assign_fragments(cluster),
                               recruitment, traffic)
    assert clustered.member_results == out.member_results
    assert len(recruitment.scores) == 1


def test_forwarding_is_judged_after_a_late_download():
    # The head contact is open now and closes at 5 s, as the member pulls
    # away at 10 m/s; the resource window opens only at 20 s.  The member
    # downloads its fragment by 21 s, when the head is out of reach, so it
    # forwards nothing, though it could have within the first 5 s.
    models = single_rate_models(8e6)
    head = vehicle(0, 0.0, 0.0, 20.0)
    member = vehicle(1, 200.0, 0.0, 30.0)
    src = vehicle(9, 0.0, 0.0, 20.0)
    assert forwarding_feasible(member, head, MB, models)

    class LateResource(Ballistic):
        def window(self, vid_a, vid_b, range_m):
            assert (vid_a, vid_b) == (1, 9)
            return (20.0, 30.0)

    recruitment = around(head, src, [head, member, src], models)
    cluster = Cluster(head=0, resource=9, members=[_member(1, 1)],
                      v_bytes=MB, s_bytes=MB)
    out = _evaluate_plan(cluster, [1], recruitment,
                         LateResource(recruitment.snapshot, models))
    assert out.mode == "failed" and out.bytes_delivered == 0.0
    assert out.member_results == [MemberResult(
        vid=1, assigned_bytes=MB, downloaded_bytes=MB, forwarded_bytes=0.0,
        download_done_s=21.0, forward_ok=False)]


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


# Metamorphic relations on the whole request pipeline.  Each maps a scene
# to one the model must treat alike: a point reflection of the road (the
# lanes swap sides and the directions swap), a rotation of the ring, or new
# vehicle ids.
def _mirrored(snap, head, holder, length_m, gen):
    return (Snapshot(snap.vid, length_m - snap.x, -snap.y, -snap.vx,
                     snap.vy), head, holder)


def _rotated(snap, head, holder, length_m, gen):
    return (Snapshot(snap.vid, (snap.x + 3_777.25) % length_m, snap.y,
                     snap.vx, snap.vy), head, holder)


def _relabelled(snap, head, holder, length_m, gen):
    vid = gen.permutation(len(snap))
    return (Snapshot(vid[snap.vid], snap.x, snap.y, snap.vx, snap.vy),
            int(vid[head]), int(vid[holder]))


@pytest.fixture(scope="module")
def encounter_scenes(default_cfg):
    """The 24 max-volume encounter requests of seeds 0-11 at 5 and 10
    veh/km, at the shipped warm-up, range and safety distance, each as
    (snapshot, head, holder, planning models)."""
    cfg = default_cfg
    e = cfg.experiments
    keys = [(density, seed_idx) for density in (5.0, 10.0)
            for seed_idx in range(12)]
    scenes = []
    for batch in simulator.warm_starts(cfg, keys, e.max_volume_sd_m,
                                       e.max_volume_range_m,
                                       e.max_volume_warmup_steps,
                                       "max-volume"):
        for (density, _), start in batch:
            snap, head, holder, _, _ = simulator.request_instant(start,
                                                                 "encounter")
            scenes.append((snap, head, holder, cfg.models(
                e.max_volume_range_m, density,
                plan_margin_s=e.max_volume_plan_margin_s)))
    return scenes


def _scene_outcomes(snap, head, holder, models):
    """(mode, bytes, n_c) of run_cft and (mode, bytes) of
    run_direct_baseline at 50, 150, 300 and 500 MB, each on one
    recruitment of the request and scored against its Ballistic traffic."""
    recruitment = recruit(snap[head], snap, MB, models, [holder])
    traffic = Ballistic(snap, models)
    outcomes = []
    for v_bytes in (50 * MB, 150 * MB, 300 * MB, 500 * MB):
        cft = run_cft(recruitment, v_bytes, traffic)
        direct = run_direct_baseline(recruitment, v_bytes, traffic)
        outcomes.append(((cft.mode, cft.bytes_delivered, cft.n_c),
                         (direct.mode, direct.bytes_delivered)))
    return outcomes


@pytest.mark.parametrize("relation", [_mirrored, _rotated, _relabelled],
                         ids=["mirror", "rotation", "relabelling"])
def test_a_related_scene_has_the_same_outcomes(encounter_scenes, relation):
    # Exact equality on all 96 cases (24 scenes, 4 file sizes).  A broken
    # case is a finding to explain, not a tolerance to widen.
    gen = np.random.default_rng(8_808)
    modes = set()
    for snap, head, holder, models in encounter_scenes:
        want = _scene_outcomes(snap, head, holder, models)
        got = _scene_outcomes(*relation(snap, head, holder,
                                        models.ring_length_m, gen), models)
        assert got == want
        modes.update(cft[0] for cft, _ in want)
    assert modes == {"direct", "clustered", "failed"}
