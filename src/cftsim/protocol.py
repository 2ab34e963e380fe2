"""Cluster-based cooperative file transfer between moving vehicles.

A request vehicle that cannot download a whole file from a passing resource
vehicle within their connection time recruits nearby co-directional vehicles
into a cluster.  Each cluster vehicle downloads a contiguous range of file
fragments from the resource while that resource is within its own range, and
afterwards forwards those fragments to the request vehicle (the cluster
head).  Capacity accounting is done in whole fragments so a handoff never
truncates a fragment mid-air.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Collection
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import ChannelParams, RateTable, expected_rate
from .connection import predict_connection_time, range_window
from .mac import MacParams, throughput
from .mobility import ring_delta


class NoResourceError(Exception):
    """No reachable vehicle holds the requested file."""


class InsufficientCapacityError(Exception):
    """Recruitment exhausted the fleet before covering the file."""


# Both checks are written so that NaN fails them.
def _check_volume(v_bytes: float) -> None:
    if not v_bytes >= 0:
        raise ValueError("file size must be non-negative")


def _check_fragment_size(s_bytes: float) -> None:
    if not s_bytes > 0:
        raise ValueError("fragment size must be positive")


@dataclass(frozen=True)
class VehicleState:
    """Kinematic snapshot of one vehicle."""

    vid: int
    x: float
    y: float
    vx: float
    vy: float = 0.0


@dataclass(frozen=True)
class Models:
    """Bundle of the radio, rate, and MAC models plus scenario scope."""

    channel: ChannelParams
    rates: RateTable
    mac: MacParams
    range_m: float
    horizon_s: float
    ring_length_m: float  # every scenario's road is a ring of this length
    # Safety margin the cluster planner shaves off every member budget, in
    # seconds of link time.  Predictions assume constant velocity; actual
    # trajectories drift, so planning to the full budget over-commits about
    # half the members.  Zero keeps planning exactly at the budget.
    plan_margin_s: float = 0.0

    def ring_dx(self, x_from: float, x_to: float) -> float:
        d = x_to - x_from
        half = self.ring_length_m / 2.0
        return (d + half) % self.ring_length_m - half


@dataclass(frozen=True)
class LinkBudget:
    """Whole-fragment transfer capacity of one link.

    n_frags = floor(e_c * delta_t / (8 s)) fragments of s bytes fit in the
    connection window, and capacity is their byte volume.  t_start_s is the
    window opening relative to now: zero for a currently connected pair,
    positive for a pair that will only come into range later.
    """

    delta_t_s: float
    e_c_bps: float
    n_frags: float
    capacity_bytes: float
    t_start_s: float = 0.0


def _relative(a: VehicleState, b: VehicleState, models: Models):
    dx = models.ring_dx(a.x, b.x)
    dy = b.y - a.y
    return dx, dy, b.vx - a.vx, b.vy - a.vy


def _distance(a: VehicleState, b: VehicleState, models: Models) -> float:
    dx, dy, _, _ = _relative(a, b, models)
    return math.hypot(dx, dy)


def _contact(a: VehicleState, b: VehicleState, models: Models,
             range_m: float) -> tuple[float, float, float]:
    """Predicted contact of the pair within range_m: (t_start_s, delta_t_s,
    distance its link is rated at).  A pair in range now keeps its whole
    contact from 0, rated at its present distance; a later one is clipped
    to the horizon (empty at its t_in, or at 0 if none) and rated at its
    midpoint distance, as it has no meaningful present-distance rate."""
    dx, dy, dvx, dvy = _relative(a, b, models)
    dist = math.hypot(dx, dy)
    if dist <= range_m:
        # A zero-distance link would have an undefined rate; distances are
        # lane-separated in practice, but clamp defensively.
        return (0.0, predict_connection_time(dx, dy, dvx, dvy, range_m),
                max(dist, 1e-6))
    t_in, t_out = range_window(dx, dy, dvx, dvy, range_m) or (0.0, 0.0)
    t_out = min(t_out, models.horizon_s)
    if t_out <= t_in:
        return t_in, 0.0, range_m
    return (t_in, t_out - t_in,
            _mid_contact_distance(dx, dy, dvx, dvy, t_in, t_out))


def _budget_from_contact(i: VehicleState, source: VehicleState,
                         s_bytes: float, models: Models) -> LinkBudget:
    """The i <- source link's capacity over its predicted contact."""
    t_start_s, duration_s, d_m = _contact(i, source, models, models.range_m)
    e_c = expected_rate(d_m, models.channel, models.rates)
    if math.isinf(duration_s):
        return LinkBudget(duration_s, e_c, math.inf, math.inf, t_start_s)
    if e_c <= 0.0:
        return LinkBudget(duration_s, e_c, 0, 0.0, t_start_s)
    n = int(e_c * duration_s / (8.0 * s_bytes))
    return LinkBudget(duration_s, e_c, n, n * s_bytes, t_start_s)


def link_budget(i: VehicleState, source: VehicleState, s_bytes: float,
                models: Models) -> LinkBudget:
    """Capacity of the i <- source link over its remaining connection time
    (_contact), in fragments of s_bytes; the pair must be in range now."""
    dist = _distance(i, source, models)
    if dist > models.range_m:
        raise ValueError(
            f"vehicles {i.vid} and {source.vid} are {dist:.1f} m apart, "
            f"beyond the {models.range_m:.1f} m range"
        )
    return _budget_from_contact(i, source, s_bytes, models)


def prospective_link_budget(i: VehicleState, source: VehicleState,
                            s_bytes: float, models: Models) -> LinkBudget:
    """Capacity of a link that may only open in the future, over its
    contact as _contact predicts it; link_budget's for a pair in range."""
    return _budget_from_contact(i, source, s_bytes, models)


def _mid_contact_distance(dx: float, dy: float, dvx: float, dvy: float,
                          t_in: float, t_out: float) -> float:
    """Pair separation halfway through its contact window, clamped off zero.

    A future contact is out of range right now by construction, so links
    are rated at this distance, not the present one.
    """
    t_mid = 0.5 * (t_in + t_out)
    return max(math.hypot(dx + dvx * t_mid, dy + dvy * t_mid), 1e-6)


def _mid_contact_throughput(dx: float, dy: float, dvx: float, dvy: float,
                            t_in: float, t_out: float, models: Models) -> float:
    """Forwarding MAC throughput in bit/s; zero when no rate is usable."""
    d_mid = _mid_contact_distance(dx, dy, dvx, dvy, t_in, t_out)
    rate = expected_rate(d_mid, models.channel, models.rates)
    if rate <= 0:
        return 0.0
    return throughput(models.mac, rate)


def select_resource(request: VehicleState, responders: list[VehicleState],
                    s_bytes: float, models: Models
                    ) -> tuple[VehicleState, LinkBudget]:
    """Pick the downloading source among responding file holders.

    The responder whose link to the request vehicle has the largest
    whole-fragment capacity wins; ties go to the nearer responder, then to
    the smaller vehicle id.  Only responders within communication range are
    considered (a broadcast cannot reach the others).  Returns the winner
    and the budget of its link to the request vehicle.
    """
    if not responders:
        raise NoResourceError("no vehicle responded to the file request")
    scored = []
    for r in responders:
        dist = _distance(request, r, models)
        if dist > models.range_m:
            continue
        b = link_budget(request, r, s_bytes, models)
        scored.append((-b.capacity_bytes, dist, r.vid, r, b))
    if not scored:
        raise NoResourceError("no responder within communication range")
    scored.sort(key=lambda t: t[:3])
    return scored[0][3:]


@dataclass
class ClusterMember:
    vid: int
    budget: LinkBudget
    # Fragments the planner may schedule on this member: its budget less
    # the planning margin, and for any member but the head, no more than
    # it can forward to the head.
    planned_frags: float
    frag_start: int = 0
    frag_count: int = 0


def _derated_frags(budget: LinkBudget, s_bytes: float, models: Models) -> float:
    """Budget fragment count minus the planning safety margin."""
    if math.isinf(budget.n_frags):
        return budget.n_frags
    if models.plan_margin_s <= 0.0:
        return budget.n_frags
    margin = math.ceil(models.plan_margin_s * budget.e_c_bps / (8.0 * s_bytes))
    return max(budget.n_frags - margin, 0)


def _plannable_frags(member: VehicleState, head: VehicleState,
                     budget: LinkBudget, s_bytes: float,
                     models: Models) -> float:
    """Fragments the member can download from the resource AND hand to the
    head, given both predicted contact windows.

    A fragment is only useful if the member finishes downloading it while
    it shares air time with the head to forward it.  With the member-head
    contact window [t_in, t_out] and the download opening at t_start,
    assigning b bytes puts the download end at t_done = t_start + 8b/e_c
    and the forwarding end at t_done + 8b/r_thr, so b must satisfy

        t_start + 8b/e_c >= t_in + margin   (in contact when trying to send)
        t_start + 8b*(1/e_c + 1/r_thr) <= t_out - margin

    Fragments held by a member that has already dropped out of contact, or
    that never entered it, are lost: undershooting t_in is as fatal as
    overshooting t_out.  Members whose two windows cannot satisfy both
    bounds at once contribute nothing.
    """
    plan = _derated_frags(budget, s_bytes, models)
    if plan <= 0:
        return 0.0
    dx, dy, dvx, dvy = _relative(member, head, models)
    window = range_window(dx, dy, dvx, dvy, models.range_m)
    if window is None:
        return 0.0
    t_in, t_out = window
    if t_in >= models.horizon_s:
        return 0.0
    if math.isinf(t_out):
        return plan
    t_out = min(t_out, models.horizon_s)
    e_c = budget.e_c_bps
    if e_c <= 0:
        return 0.0
    r_thr = _mid_contact_throughput(dx, dy, dvx, dvy, t_in, t_out, models)
    if r_thr <= 0:
        return 0.0
    # Forwarding cannot start before the download ends (t_start + 8b/e_c)
    # nor before the contact opens (t_in), and must finish by t_out less
    # the margin.  Feasibility shrinks as b grows, so the cap is the root
    # of the piecewise-linear constraint.
    b_kink = (t_in - budget.t_start_s) * e_c / 8.0
    b_wait = (t_out - t_in - models.plan_margin_s) * r_thr / 8.0
    if b_wait <= b_kink:
        cap_bytes = b_wait
    else:
        usable_s = t_out - models.plan_margin_s - budget.t_start_s
        cap_bytes = usable_s / (8.0 / e_c + 8.0 / r_thr)
    if cap_bytes <= 0:
        return 0.0
    return min(plan, float(math.floor(cap_bytes / s_bytes)))


@dataclass
class Cluster:
    """A covering set of downloaders for one file of v_bytes, cut into
    fragments of s_bytes; the final fragment may be short and still counts
    as one fragment.

    Members are ordered by recruitment (nearest to the resource first); the
    request vehicle itself appears as the first member when it has usable
    direct capacity, since its own download needs no forwarding.  That
    order does not depend on the file size: every cluster of one request
    is a prefix of the same Recruitment.
    """

    head: int
    resource: int
    members: list[ClusterMember]
    v_bytes: float
    s_bytes: float

    @property
    def n_c(self) -> int:
        return len(self.members)

    def total_planned_bytes(self) -> float:
        return sum(self.s_bytes * m.planned_frags for m in self.members)

    def fragment_bytes(self, start: int, count: int) -> float:
        """Actual byte size of fragments [start, start+count), 0-indexed."""
        if count <= 0:
            return 0.0
        hi = min((start + count) * self.s_bytes, self.v_bytes)
        return hi - start * self.s_bytes


# Relative and absolute slack of the numpy range prefilters, _in_earshot
# and _may_join: far wider than any rounding gap between np.hypot and
# math.hypot.
_EARSHOT_REL = 1e-9
_EARSHOT_ABS_M = 1e-6


def _in_earshot(anchors: np.ndarray, waiting: np.ndarray,
                vehicles: list[VehicleState], x: np.ndarray, y: np.ndarray,
                models: Models) -> np.ndarray:
    """Mask over vehicles[waiting]: within range of some vehicles[anchors].

    x and y hold every vehicle's position.  A numpy pass over every
    (anchor, candidate) pair keeps the pairs within range up to a small
    slack; each kept candidate is then confirmed with the scalar test, so
    the mask is exactly that of _distance(anchor, candidate) <= range_m.
    """
    dx = ring_delta(x[anchors][:, None], x[waiting][None, :],
                    models.ring_length_m)
    dy = y[waiting][None, :] - y[anchors][:, None]
    reach = models.range_m * (1.0 + _EARSHOT_REL) + _EARSHOT_ABS_M
    near = np.hypot(dx, dy) <= reach
    hit = np.zeros(waiting.size, dtype=bool)
    for j in np.nonzero(near.any(axis=0))[0]:
        v = vehicles[waiting[j]]
        hit[j] = any(_distance(vehicles[a], v, models) <= models.range_m
                     for a in anchors[near[:, j]])
    return hit


def _may_join(vehicles: list[VehicleState], x: np.ndarray, y: np.ndarray,
              head: VehicleState, resource: VehicleState,
              models: Models) -> np.ndarray:
    """Mask over vehicles: those the planner might admit as members.

    A vehicle is admitted only with the head's heading, a resource budget
    (prospective_link_budget) of some fragments and a plan
    (_plannable_frags) of some.  The budget needs a resource contact of
    positive length that opens before horizon_s, or one open now; the plan
    needs a head window that opens before it (t_in < horizon_s).  Either
    way the pair is within range_m at some t in [0, horizon_s).  So the
    mask keeps the vehicles of the head's heading whose closest approach
    under constant velocity over [0, horizon_s] comes within range_m of
    the head and of the resource, up to _in_earshot's slack; every kept
    vehicle is then scored by those scalar tests, which leaves admissions
    exact.  It holds at horizon_s = inf, at zero relative speed (the
    closest approach is now) and with vy != 0.
    """
    vx = np.array([v.vx for v in vehicles])
    vy = np.array([v.vy for v in vehicles])
    reach = models.range_m * (1.0 + _EARSHOT_REL) + _EARSHOT_ABS_M
    may = vx * head.vx > 0.0
    for other in (head, resource):
        # Each pair as _relative(vehicle, other) sees it.
        dx = ring_delta(x, other.x, models.ring_length_m)
        dy = other.y - y
        dvx = other.vx - vx
        dvy = other.vy - vy
        speed2 = dvx * dvx + dvy * dvy
        t = np.divide(-(dx * dvx + dy * dvy), speed2,
                      out=np.zeros_like(speed2), where=speed2 > 0.0)
        np.clip(t, 0.0, models.horizon_s, out=t)
        may &= np.hypot(dx + dvx * t, dy + dvy * t) <= reach
    return may


class Recruitment:
    """One request's cluster members in recruitment order, for every file.

    Recruitment expands ring by ring, as a relayed broadcast propagates:
    first the head's neighbours, then everyone in earshot of a vehicle
    that already heard the invitation.  Within each ring, candidates
    closer to the resource vehicle are taken first, so the resource hands
    fragments to the nearest member at each handoff.  The head comes first
    when its own link to the resource has usable capacity.  Only vehicles
    travelling the head's way are eligible: an opposite vehicle leaves the
    cluster neighbourhood before it could forward anything.  The
    invitation stops once no vehicle it has yet to reach may join: none
    of the head's heading comes within range of both the head and the
    resource before the planning horizon (_may_join).

    Neither that order nor any member's planned_frags depends on the file
    size, only on the fragment size s_bytes, so one recruitment serves
    every file size: build_cluster reads each cluster as the shortest
    prefix of the members that covers its file.  Members are admitted
    lazily, only as far as the largest file read so far needs.

    head_budget is the head-resource link as select_resource scored it,
    or None when the pair is out of range; states maps vid -> state over
    the fleet.  scores memoises _evaluate_plan's MemberResults for every
    file and traffic source read off this recruitment, keyed by (traffic
    source, vid, frag_start, frag_count, assigned bytes), so it lives and
    dies with it.
    """

    def __init__(self, head: VehicleState, resource: VehicleState,
                 head_budget: LinkBudget | None,
                 fleet: Collection[VehicleState], s_bytes: float,
                 models: Models):
        _check_fragment_size(s_bytes)
        self.head = head
        self.resource = resource
        self.head_budget = head_budget
        self.states = {v.vid: v for v in fleet}
        self.s_bytes = s_bytes
        self.models = models
        self.members: list[ClusterMember] = []
        if self.head_budget is not None and self.head_budget.capacity_bytes > 0:
            plan = _derated_frags(self.head_budget, s_bytes, models)
            if plan > 0:
                self.members.append(ClusterMember(head.vid, self.head_budget, plan))
        # _covered[j] is the planned volume of the first _first + j members;
        # a cluster never drops the head, so it is at least _first long.
        self._first = len(self.members)
        self._covered = [s_bytes * self.members[0].planned_frags
                         if self.members else 0.0]
        self._pending = self._admissions(head, resource, self.states, s_bytes,
                                         models)
        self.scores: dict[tuple, MemberResult] = {}

    @staticmethod
    def _admissions(head: VehicleState, resource: VehicleState,
                    states: dict, s_bytes: float, models: Models):
        """Yield the members after the head, in recruitment order, until
        no vehicle the invitation has yet to reach may join (_may_join).

        The generator holds no reference to its recruitment, so no cycle
        keeps a dropped recruitment, its scores and the traffic sources
        their keys hold alive until the garbage collector runs.
        """
        # The head first, then every candidate; positions as arrays.
        vehicles = [head] + [v for v in states.values()
                             if v.vid not in (head.vid, resource.vid)]
        x = np.array([v.x for v in vehicles])
        y = np.array([v.y for v in vehicles])
        may_join = _may_join(vehicles, x, y, head, resource, models)
        anchors = np.array([0])
        waiting = np.arange(1, len(vehicles))
        while may_join[waiting].any():
            # Next ring: anyone in earshot of a vehicle that already carries
            # the invitation.  The broadcast is omnidirectional, so vehicles
            # with nothing to offer, including oncoming ones, still relay it
            # across gaps in the convoy.
            hit = _in_earshot(anchors, waiting, vehicles, x, y, models)
            if not hit.any():
                return
            anchors = waiting[hit]
            waiting = waiting[~hit]
            ring = [vehicles[i] for i in anchors[may_join[anchors]]]
            ring.sort(key=lambda v: (_distance(resource, v, models), v.vid))
            for v in ring:
                budget = prospective_link_budget(v, resource, s_bytes, models)
                # Anything beyond what the member can relay back to the head
                # is dead weight; its planned share is capped accordingly.
                plan = _plannable_frags(v, head, budget, s_bytes, models)
                if plan > 0:
                    yield ClusterMember(v.vid, budget, plan)

    def covering_prefix(self, v_bytes: float) -> int:
        """Member count of the minimal cluster that covers v_bytes.

        Raises InsufficientCapacityError when every reachable candidate
        together still cannot cover it.
        """
        _check_volume(v_bytes)
        covered = self._covered
        while covered[-1] < v_bytes:
            member = next(self._pending, None)
            if member is None:
                raise InsufficientCapacityError(
                    f"cluster capacity {covered[-1]:.0f} B cannot cover "
                    f"{v_bytes:.0f} B"
                )
            self.members.append(member)
            covered.append(covered[-1] + self.s_bytes * member.planned_frags)
        return self._first + bisect.bisect_left(covered, v_bytes)


def build_cluster(recruitment: Recruitment, v_bytes: float) -> Cluster:
    """The minimal cluster able to cover a file of v_bytes.

    It is the shortest prefix of the recruitment whose summed usable
    capacities cover the file, which makes it minimal; the recruitment
    order itself is shared by every file size.  Each call returns fresh
    ClusterMembers, so assigning fragments to one cluster leaves every
    other cluster of the same recruitment untouched.  Raises
    InsufficientCapacityError when every reachable candidate together
    still cannot cover the file.
    """
    n = recruitment.covering_prefix(v_bytes)
    return Cluster(recruitment.head.vid, recruitment.resource.vid,
                   [replace(m) for m in recruitment.members[:n]], v_bytes,
                   recruitment.s_bytes)


def assign_fragments(cluster: Cluster) -> Cluster:
    """Assign contiguous fragment ranges to members in recruitment order.

    Each member takes as many of the remaining fragments as its budget
    allows; the final member of the cover may take fewer than its maximum.
    Returns the same cluster with frag_start/frag_count filled in.
    """
    if cluster.total_planned_bytes() < cluster.v_bytes:
        raise ValueError("cluster does not cover the file")
    n_total = math.ceil(cluster.v_bytes / cluster.s_bytes)
    next_frag = 0
    for m in cluster.members:
        if next_frag >= n_total:
            m.frag_start, m.frag_count = next_frag, 0
            continue
        remaining = n_total - next_frag
        take = remaining if math.isinf(m.planned_frags) \
            else min(int(m.planned_frags), remaining)
        m.frag_start, m.frag_count = next_frag, take
        next_frag += take
    if next_frag < n_total:
        # Coverage in bytes guarantees coverage in whole fragments:
        # sum(n_i) * s >= V implies sum(n_i) >= ceil(V/s).
        raise AssertionError("fragment assignment failed to cover the file")
    return cluster


def forwarding_feasible(member: VehicleState, head: VehicleState,
                        assigned_bytes: float, models: Models) -> bool:
    """Can the member push its fragments to the head in their contact time?

    True when the member-head contact window times the expected MAC
    throughput covers the assigned bytes.  A member still waiting for its
    first contact with the head holds its fragments until then; one whose
    contact has already closed (or never happens) cannot deliver at all:
    a second contact never occurs on an open road and retries are out of
    scope.

    The verdict is for this member alone.  All members of a cluster forward
    to the one head at the same time, each at the full mac.throughput rate:
    the Poisson contender count of models.mac stands for the surrounding
    traffic and leaves out the other members.
    """
    if assigned_bytes <= 0:
        return True
    dx, dy, dvx, dvy = _relative(member, head, models)
    window = range_window(dx, dy, dvx, dvy, models.range_m)
    if window is None:
        return False
    t_in, t_out = window
    if math.isinf(t_out):
        return True
    dt = t_out - t_in
    if dt <= 0:
        return False
    r_thr = _mid_contact_throughput(dx, dy, dvx, dvy, t_in, t_out, models)
    return dt * r_thr / 8.0 >= assigned_bytes


@dataclass(frozen=True)
class MemberResult:
    vid: int
    assigned_bytes: float
    downloaded_bytes: float
    forwarded_bytes: float
    download_done_s: float
    forward_ok: bool


@dataclass
class TransferOutcome:
    """Result of one transfer attempt.

    mode is "direct" when the file fit through the resource-head link,
    "clustered" when every fragment reached the head via the cluster, and
    "failed" otherwise.  bytes_delivered counts bytes that reached the head.
    """

    mode: str
    bytes_delivered: float
    cluster: Cluster | None = None
    member_results: list[MemberResult] = field(default_factory=list)

    @property
    def n_c(self) -> int:
        return self.cluster.n_c if self.cluster is not None else 0


@dataclass(frozen=True, eq=False)
class Ballistic:
    """Constant-velocity traffic from a snapshot of states (vid ->
    VehicleState), a traffic source like simulator.Trajectory; a pair's
    window is its contact as its link budget predicts it (_contact).  It
    keys recruitments' scores, so it must not hold a recruitment."""

    states: dict
    models: Models

    def window(self, vid_a: int, vid_b: int, range_m: float):
        t_start_s, duration_s, _ = _contact(
            self.states[vid_a], self.states[vid_b], self.models, range_m)
        return t_start_s, t_start_s + duration_s

    def state(self, vid: int, t_s: float) -> VehicleState:
        s = self.states[vid]
        return replace(s, x=s.x + s.vx * t_s, y=s.y + s.vy * t_s)


def _evaluate_plan(cluster: Cluster, recruitment: Recruitment,
                   traffic) -> TransferOutcome:
    """Score a fragment plan member by member against a traffic source.

    traffic.window(vid, resource, range_m) gives each member's window with
    the resource, and traffic.state(vid, t_s) its state and the head's when
    it is ready to forward.  Download shortfalls (window shorter than the
    assigned fragments need) and forwarding failures both reduce delivered
    bytes; any shortfall demotes the outcome to failed.

    Each member is scored on its own: every member forwards to the head at
    once, at the full mac.throughput rate (see forwarding_feasible), so no
    member's result depends on which other members share the cluster.  A
    member's result is therefore computed once per traffic source and
    fragment range, and kept in recruitment.scores for every later file of
    the recruitment.  The assigned bytes are part of the key, since the
    last fragment of a file may be short.
    """
    models, scores = recruitment.models, recruitment.scores
    delivered = 0.0
    results = []
    frag_bits = 8.0 * cluster.s_bytes
    for m in cluster.members:
        assigned = cluster.fragment_bytes(m.frag_start, m.frag_count)
        key = (traffic, m.vid, m.frag_start, m.frag_count, assigned)
        result = scores.get(key)
        if result is None:
            b = m.budget
            t_in, t_out = traffic.window(m.vid, recruitment.resource.vid,
                                         models.range_m)
            window = max(t_out - t_in, 0.0)
            if b.e_c_bps <= 0:
                frags_possible = 0
            elif math.isinf(window):
                # A contact that never closes downloads everything assigned.
                frags_possible = m.frag_count
            else:
                frags_possible = int(b.e_c_bps * window / frag_bits)
            frags_got = min(m.frag_count, frags_possible)
            downloaded = cluster.fragment_bytes(m.frag_start, frags_got)
            t_done = t_in + (frags_got * frag_bits / b.e_c_bps
                             if b.e_c_bps > 0 else 0.0)
            # The head's own fragments need no forwarding hop.
            ok = m.vid == cluster.head or forwarding_feasible(
                traffic.state(m.vid, t_done),
                traffic.state(cluster.head, t_done), downloaded, models)
            forwarded = downloaded if ok else 0.0
            result = scores[key] = MemberResult(m.vid, assigned, downloaded,
                                                forwarded, t_done, ok)
        delivered += result.forwarded_bytes
        results.append(result)
    complete = delivered >= cluster.v_bytes
    return TransferOutcome(
        mode="clustered" if complete else "failed",
        bytes_delivered=min(delivered, cluster.v_bytes),
        cluster=cluster,
        member_results=results,
    )


def recruit(request: VehicleState, fleet: Collection[VehicleState],
            s_bytes: float, models: Models,
            holders: list[int]) -> Recruitment | None:
    """Answer a file request once, for every file of fragment size s_bytes.

    Selects the resource among the holders in fleet (select_resource,
    which depends on the fragment size only) and returns the recruitment
    around it, or None when no holder is within range.
    """
    _check_fragment_size(s_bytes)
    wanted = set(holders) - {request.vid}
    try:
        resource, head_budget = select_resource(
            request, [v for v in fleet if v.vid in wanted], s_bytes, models)
    except NoResourceError:
        return None
    return Recruitment(request, resource, head_budget, fleet, s_bytes, models)


def _direct_outcome(recruitment: Recruitment | None,
                    v_bytes: float) -> TransferOutcome | None:
    """A failed outcome when no holder is reachable, a direct one when the
    resource link carries the file, and None when it needs more."""
    _check_volume(v_bytes)
    if recruitment is None:
        return TransferOutcome(mode="failed", bytes_delivered=0.0)
    link = recruitment.head_budget
    if link is not None and link.capacity_bytes >= v_bytes:
        return TransferOutcome(mode="direct", bytes_delivered=v_bytes)
    return None


def form_cluster(recruitment: Recruitment | None,
                 v_bytes: float) -> Cluster | TransferOutcome:
    """Plan one file of v_bytes up to the point where its cluster size is
    fixed.

    Returns the final outcome when no cluster forms: direct when the
    resource link alone carries the file, failed with zero bytes when no
    holder is reachable (recruitment None) or recruitment cannot cover the
    file.  Otherwise returns the cluster; fragment assignment and delivery
    never change its members.  Both results have n_c, which is 0 for an
    outcome.
    """
    outcome = _direct_outcome(recruitment, v_bytes)
    if outcome is not None:
        return outcome
    try:
        return build_cluster(recruitment, v_bytes)
    except InsufficientCapacityError:
        return TransferOutcome(mode="failed", bytes_delivered=0.0)


def run_cft(recruitment: Recruitment | None, v_bytes: float,
            traffic) -> TransferOutcome:
    """Full cluster-based transfer pipeline for one file of v_bytes.

    recruitment comes from recruit() and may be shared by any number of
    files; they are cut into its fragment size.  Returns form_cluster's
    outcome when no cluster forms, and otherwise schedules the cluster it
    read and scores it against traffic (Ballistic or simulator.Trajectory;
    one per recruitment, so its scores serve every file).
    """
    planned = form_cluster(recruitment, v_bytes)
    if isinstance(planned, TransferOutcome):
        return planned
    assign_fragments(planned)
    return _evaluate_plan(planned, recruitment, traffic)


def run_direct_baseline(recruitment: Recruitment | None, v_bytes: float,
                        traffic) -> TransferOutcome:
    """Single-link transfer that discards files too large for the link.

    The baseline scheme never clusters: when the head-resource link's
    predicted capacity is below the file size the transfer is simply not
    attempted.  An attempted file is the head's own download, scored
    against traffic (Ballistic or simulator.Trajectory) as _evaluate_plan
    scores a cluster's head, in recruitment.scores; mode is "direct" when
    it delivers the whole file.  The outcome has no cluster (n_c 0), and
    member_results holds the head's MemberResult.
    """
    attempt = _direct_outcome(recruitment, v_bytes)
    if attempt is None or attempt.mode != "direct":
        return TransferOutcome(mode="failed", bytes_delivered=0.0)
    link, s_bytes = recruitment.head_budget, recruitment.s_bytes
    # A link that never closes (head and resource at standstill) covers an
    # unbounded file; the window traffic gives then bounds what arrives.
    n_frags = v_bytes / s_bytes
    head = ClusterMember(recruitment.head.vid, link, link.n_frags, 0,
                         n_frags if math.isinf(n_frags) else math.ceil(n_frags))
    scored = _evaluate_plan(
        Cluster(head.vid, recruitment.resource.vid, [head], v_bytes, s_bytes),
        recruitment, traffic)
    return TransferOutcome(
        mode="direct" if scored.mode == "clustered" else "failed",
        bytes_delivered=scored.bytes_delivered,
        member_results=scored.member_results)
