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
from functools import cached_property

import numpy as np

from .channel import ChannelParams, RateTable, expected_rate
from .connection import (NEAR_SLACK_M, RANGE_SLACK_M, RANGE_SLACK_REL,
                         in_range, in_range_mask, predict_connection_time,
                         range_window)
from .mac import MacParams, throughput
from .mobility import ring_delta


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


@dataclass(frozen=True, eq=False)
class Snapshot:
    """Every vehicle's kinematics at one instant, as parallel arrays.

    Row i is vehicle vid[i], at position (x[i], y[i]) with velocity
    (vx[i], vy[i]); the simulator's snapshots hold vid i in row i.
    snapshot[vid] builds that vehicle's VehicleState from float() of each
    element, the values .tolist() gives, so that VehicleStates exist only
    for the vehicles protocol scores one at a time.
    """

    vid: np.ndarray
    x: np.ndarray
    y: np.ndarray
    vx: np.ndarray
    vy: np.ndarray

    @classmethod
    def of(cls, states: Collection[VehicleState]) -> Snapshot:
        """The snapshot of hand-built states, one row each in their order;
        ValueError when a vehicle id repeats."""
        vid = [v.vid for v in states]
        if len(set(vid)) != len(vid):
            raise ValueError("a vehicle id appears twice in the fleet")
        return cls(np.array(vid, dtype=np.int64),
                   *np.array([(v.x, v.y, v.vx, v.vy) for v in states],
                             dtype=float).reshape(-1, 4).T)

    @cached_property
    def _rows(self) -> dict:
        return dict(zip(self.vid.tolist(), range(self.vid.size)))

    def __len__(self) -> int:
        return self.vid.size

    def __contains__(self, vid: int) -> bool:
        return vid in self._rows

    def __getitem__(self, vid: int) -> VehicleState:
        return self.row(self._rows[vid])

    def row(self, i: int) -> VehicleState:
        return VehicleState(int(self.vid[i]), float(self.x[i]),
                            float(self.y[i]), float(self.vx[i]),
                            float(self.vy[i]))


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
    dx = ring_delta(a.x, b.x, models.ring_length_m)
    dy = b.y - a.y
    return dx, dy, b.vx - a.vx, b.vy - a.vy


def _distance(a: VehicleState, b: VehicleState, models: Models) -> float:
    dx, dy, _, _ = _relative(a, b, models)
    return math.hypot(dx, dy)


def _in_range(a: VehicleState, b: VehicleState, models: Models) -> bool:
    dx, dy, _, _ = _relative(a, b, models)
    return in_range(dx, dy, models.range_m)


def _contact(a: VehicleState, b: VehicleState, models: Models,
             range_m: float) -> tuple[float, float, float]:
    """Predicted contact of the pair within range_m: (t_start_s, delta_t_s,
    distance its link is rated at).  A pair in range now keeps its whole
    contact from 0, rated at its present distance; a later one is clipped
    to the horizon (empty at its t_in, or at 0 if none) and rated at its
    midpoint distance, as it has no meaningful present-distance rate."""
    dx, dy, dvx, dvy = _relative(a, b, models)
    if in_range(dx, dy, range_m):
        # A zero-distance link would have an undefined rate; distances are
        # lane-separated in practice, but clamp defensively.
        return (0.0, predict_connection_time(dx, dy, dvx, dvy, range_m),
                max(math.hypot(dx, dy), 1e-6))
    t_in, t_out = range_window(dx, dy, dvx, dvy, range_m) or (0.0, 0.0)
    t_out = min(t_out, models.horizon_s)
    if t_out <= t_in:
        return t_in, 0.0, range_m
    return (t_in, t_out - t_in,
            _mid_contact_distance(dx, dy, dvx, dvy, t_in, t_out))


def link_budget(i: VehicleState, source: VehicleState, s_bytes: float,
                models: Models) -> LinkBudget:
    """Capacity of the i <- source link over its remaining connection time
    (_contact), in fragments of s_bytes; the pair must be in range now."""
    if not _in_range(i, source, models):
        raise ValueError(
            f"vehicles {i.vid} and {source.vid} are "
            f"{_distance(i, source, models):.1f} m apart, "
            f"beyond the {models.range_m:.1f} m range"
        )
    return prospective_link_budget(i, source, s_bytes, models)


def prospective_link_budget(i: VehicleState, source: VehicleState,
                            s_bytes: float, models: Models) -> LinkBudget:
    """Capacity of a link that may only open in the future, over its
    contact as _contact predicts it; link_budget's for a pair in range."""
    t_start_s, duration_s, d_m = _contact(i, source, models, models.range_m)
    e_c = expected_rate(d_m, models.channel, models.rates)
    if math.isinf(duration_s):
        return LinkBudget(duration_s, e_c, math.inf, math.inf, t_start_s)
    if e_c <= 0.0:
        return LinkBudget(duration_s, e_c, 0, 0.0, t_start_s)
    n = int(e_c * duration_s / (8.0 * s_bytes))
    return LinkBudget(duration_s, e_c, n, n * s_bytes, t_start_s)


def _mid_contact_distance(dx: float, dy: float, dvx: float, dvy: float,
                          t_in: float, t_out: float) -> float:
    """Pair separation halfway through its contact window, clamped off zero.

    A future contact is out of range right now by construction, so links
    are rated at this distance, not the present one.
    """
    t_mid = 0.5 * (t_in + t_out)
    return max(math.hypot(dx + dvx * t_mid, dy + dvy * t_mid), 1e-6)


def _head_link(member: VehicleState, head: VehicleState, models: Models,
               until_s: float) -> tuple[float, float, float] | None:
    """The member-head contact a member forwards over: (t_in, t_out, r_thr),
    or None when it never opens before until_s.

    t_out is clipped to until_s and r_thr is the MAC throughput in bit/s
    at the contact's midpoint distance, zero when no rate is usable.  A
    contact that never closes keeps t_out = inf, with r_thr = inf.
    """
    dx, dy, dvx, dvy = _relative(member, head, models)
    window = range_window(dx, dy, dvx, dvy, models.range_m)
    if window is None or window[0] >= until_s:
        return None
    t_in, t_out = window
    if math.isinf(t_out):
        return t_in, t_out, math.inf
    t_out = min(t_out, until_s)
    rate = expected_rate(_mid_contact_distance(dx, dy, dvx, dvy, t_in, t_out),
                         models.channel, models.rates)
    return t_in, t_out, throughput(models.mac, rate) if rate > 0 else 0.0


def select_resource(request: VehicleState, responders: list[VehicleState],
                    s_bytes: float, models: Models
                    ) -> tuple[VehicleState, LinkBudget] | None:
    """Pick the downloading source among responding file holders.

    The responder whose link to the request vehicle has the largest
    whole-fragment capacity wins; ties go to the nearer responder, then to
    the smaller vehicle id.  Only responders within communication range are
    considered (a broadcast cannot reach the others).  Returns the winner
    and the budget of its link to the request vehicle, or None when no
    responder is within range, none responding included.
    """
    scored = []
    for r in responders:
        if not _in_range(request, r, models):
            continue
        b = link_budget(request, r, s_bytes, models)
        scored.append((-b.capacity_bytes, _distance(request, r, models),
                       r.vid, r, b))
    if not scored:
        return None
    scored.sort(key=lambda t: t[:3])
    return scored[0][3:]


@dataclass(frozen=True)
class ClusterMember:
    """A recruitment's member, fixed at admission.  planned_frags is what
    the planner may schedule on it: its budget less the planning margin,
    and for any member but the head, no more than it can forward to the
    head.  frag_start, the sum of the plans admitted before it, is where
    its fragments start in every cluster that holds it (infinite only past
    an infinite plan, which covers every file, so no cluster holds it)."""

    vid: int
    budget: LinkBudget
    planned_frags: float
    frag_start: int


def _derated_frags(budget: LinkBudget, s_bytes: float, models: Models) -> float:
    """Budget fragment count minus the planning safety margin."""
    if math.isinf(budget.n_frags):
        return budget.n_frags
    margin = math.ceil(models.plan_margin_s * budget.e_c_bps / (8.0 * s_bytes))
    return max(budget.n_frags - margin, 0)


def _plannable_frags(member: VehicleState, head: VehicleState,
                     budget: LinkBudget, s_bytes: float,
                     models: Models) -> float:
    """Fragments the member can download from the resource AND hand to the
    head, given both predicted contact windows.

    With the member-head contact window [t_in, t_out] and the download
    opening at t_start, b bytes are downloaded by t_start + 8b/e_c.  A
    member holds its fragments until the head contact opens, the rule
    forwarding_feasible judges by: forwarding starts at max(t_start +
    8b/e_c, t_in), takes 8b/r_thr, and must end by t_out - margin.  The
    plan is the largest whole-fragment b that meets this, and at most the
    budget less its margin (_derated_frags).  A member whose head contact
    never opens before the horizon contributes nothing.

    For example, at models(250, 5, plan_margin_s=1.75) with 1 MB fragments,
    take the head at x = 0 (20 m/s), the member 400 m behind it in the same
    lane (25 m/s) and the resource at x = -200 m, y = -2.5 m (-25 m/s).
    Downloading the member's whole 60-fragment budget ends at 8.92 s, the
    head contact opens at 30.0 s, and the member plans 48 fragments.
    """
    plan = _derated_frags(budget, s_bytes, models)
    if plan <= 0:
        return 0.0
    link = _head_link(member, head, models, models.horizon_s)
    if link is None:
        return 0.0
    t_in, t_out, r_thr = link
    if math.isinf(t_out):
        return plan
    e_c = budget.e_c_bps
    if e_c <= 0 or r_thr <= 0:
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
    return min(plan, math.floor(cap_bytes / s_bytes))


@dataclass
class Cluster:
    """A covering set of downloaders for one file of v_bytes, cut into
    fragments of s_bytes; the final fragment may be short and still counts
    as one fragment.

    Members are ordered by recruitment (nearest to the resource first); the
    request vehicle itself appears as the first member when it has usable
    direct capacity, since its own download needs no forwarding.  That
    order does not depend on the file size: every cluster of one request
    is a prefix of the same Recruitment, and holds its ClusterMembers
    themselves.
    """

    head: int
    resource: int
    members: list[ClusterMember]
    v_bytes: float
    s_bytes: float

    @property
    def n_c(self) -> int:
        return len(self.members)

    def fragment_bytes(self, start: int, count: int) -> float:
        """Actual byte size of fragments [start, start+count), 0-indexed."""
        if count <= 0:
            return 0.0
        hi = min((start + count) * self.s_bytes, self.v_bytes)
        return hi - start * self.s_bytes


def _earshot(x: np.ndarray, y: np.ndarray, models: Models) -> np.ndarray:
    """The neighbour pass: a square mask over the vehicles whose positions
    x and y hold, [a, c] true when c is in earshot of a != c, exactly as
    _in_range(a, c) tests it.

    A band test on the positions mod ring_length_m first keeps the pairs
    within range_m + NEAR_SLACK_M of each other along x, either way round
    the ring: on the sorted positions, each vehicle's band ahead of it and
    its band across the seam, the latter cut to start past the former, so
    that each pair comes once even on a ring shorter than twice that
    reach, and positions may lie outside [0, ring_length_m).  Each such
    pair is then tested both ways exactly as the scalar test does it
    (ring_delta from anchor to candidate, the y offset, in_range_mask):
    ring_delta(a, c) need not be -ring_delta(c, a) in floats, so at the
    range edge the relation can be one-way.
    """
    n, length = x.size, models.ring_length_m
    reach = models.range_m + NEAR_SLACK_M
    at = x % length
    order = np.argsort(at)
    at = at[order]
    ahead = np.searchsorted(at, at + reach, side="right")
    seam = np.maximum(np.searchsorted(at, at + (length - reach)), ahead)
    # Sorted rows i < j near row i: [i + 1, ahead[i]) and [seam[i], n).
    first = np.concatenate((np.arange(1, n + 1), seam))
    count = np.concatenate((ahead, np.full(n, n))) - first
    i = np.tile(np.arange(n), 2).repeat(count)
    j = np.arange(i.size) - np.repeat(np.cumsum(count) - count - first, count)
    a = order[np.concatenate((i, j))]
    c = order[np.concatenate((j, i))]
    heard = np.zeros(n * n, dtype=bool)
    heard[a * n + c] = in_range_mask(ring_delta(x[a], x[c], length),
                                     y[c] - y[a], models.range_m)
    return heard.reshape(n, n)


def _next_ring(heard: np.ndarray, ring: np.ndarray,
               reached: np.ndarray) -> np.ndarray:
    """The indices of the vehicles in earshot of some vehicle of ring, by
    heard (from _earshot), that reached does not mark yet; they are marked
    there."""
    hit = heard[ring].any(axis=0)
    hit &= ~reached
    reached |= hit
    return np.flatnonzero(hit)


def _may_join(x: np.ndarray, y: np.ndarray, vx: np.ndarray, vy: np.ndarray,
              head: VehicleState, resource: VehicleState,
              models: Models) -> np.ndarray:
    """Mask over the vehicles whose positions and velocities x, y, vx and
    vy hold: those the planner might admit as members.

    A vehicle is admitted only with the head's heading, a resource budget
    (prospective_link_budget) of some fragments and a plan
    (_plannable_frags) of some.  The budget needs a resource contact of
    positive length that opens before horizon_s, or one open now; the plan
    needs a head window that opens before it (t_in < horizon_s).  Either
    way the pair is within range_m at some t in [0, horizon_s).  So the
    mask keeps the vehicles of the head's heading whose closest approach
    under constant velocity over [0, horizon_s] comes within range_m of
    the head and of the resource, up to connection's range slack; every
    kept vehicle is then scored by those scalar tests, which leaves
    admissions exact.  It holds at horizon_s = inf, at zero relative speed
    (the closest approach is now) and with vy != 0.  This prefilter is
    protocol's only range pass of its own; a ring's range test is
    in_range_mask (_earshot).
    """
    reach = models.range_m * (1.0 + RANGE_SLACK_REL) + RANGE_SLACK_M
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
    resource before the planning horizon (_may_join).  Once a first ring
    is needed, one neighbour pass (_earshot) finds who is in earshot of
    whom, exactly as the scalar in_range each pair's link checks use, and
    each ring is a lookup in it (_next_ring).

    Neither that order nor any member's planned_frags depends on the file
    size, only on the fragment size s_bytes, so one recruitment serves
    every file size: build_cluster reads each cluster as the shortest
    prefix of the members that covers its file.  There every member but
    the last carries its whole plan, so a member's fragments start at the
    same frag_start in every cluster, fixed at admission.  Members are
    admitted lazily, only as far as the largest file read so far needs.

    head_budget is the head-resource link as select_resource scored it;
    snapshot holds the fleet at the request instant, and VehicleStates
    are built from it only for the vehicles scored one at a time.  scores
    memoises _evaluate_plan's MemberResults for every file and traffic
    source read off this recruitment, keyed by (traffic source, vid,
    frag_start, count, assigned bytes), so it lives and dies with it.
    """

    def __init__(self, head: VehicleState, resource: VehicleState,
                 head_budget: LinkBudget, snapshot: Snapshot,
                 s_bytes: float, models: Models):
        _check_fragment_size(s_bytes)
        self.head = head
        self.resource = resource
        self.head_budget = head_budget
        self.snapshot = snapshot
        self.s_bytes = s_bytes
        self.models = models
        self.members: list[ClusterMember] = []
        plan = _derated_frags(head_budget, s_bytes, models)
        if plan > 0:
            self.members.append(ClusterMember(head.vid, head_budget, plan, 0))
        # _covered[j] is the planned volume of the first _first + j members;
        # a cluster never drops the head, so it is at least _first long.
        self._first = len(self.members)
        self._covered = [s_bytes * plan]
        self._pending = self._admissions(head, resource, snapshot, s_bytes,
                                         models, plan)
        self.scores: dict[tuple, MemberResult] = {}

    @staticmethod
    def _admissions(head: VehicleState, resource: VehicleState,
                    snapshot: Snapshot, s_bytes: float, models: Models,
                    frag_start: int):
        """Yield the members after the head, in recruitment order, until
        no vehicle the invitation has yet to reach may join (_may_join).
        frag_start is the head's plan, 0 when the head is no member.

        The generator holds no reference to its recruitment, so no cycle
        keeps a dropped recruitment, its scores and the traffic sources
        their keys hold alive until the garbage collector runs.
        """
        # The head in row 0, then every candidate.
        rest = (snapshot.vid != head.vid) & (snapshot.vid != resource.vid)
        fleet = Snapshot(*(np.concatenate(([getattr(head, name)],
                                           getattr(snapshot, name)[rest]))
                           for name in ("vid", "x", "y", "vx", "vy")))
        may_join = _may_join(fleet.x, fleet.y, fleet.vx, fleet.vy, head,
                             resource, models)
        left = np.count_nonzero(may_join[1:])  # may join, not reached yet
        heard = None
        reached = np.zeros(len(fleet), dtype=bool)
        reached[0] = True
        ring = np.array([0])
        while left:
            if heard is None:
                heard = _earshot(fleet.x, fleet.y, models)
            # Next ring: anyone in earshot of a vehicle that already carries
            # the invitation.  The broadcast is omnidirectional, so vehicles
            # with nothing to offer, including oncoming ones, still relay it
            # across gaps in the convoy.
            ring = _next_ring(heard, ring, reached)
            if not ring.size:
                return
            joining = ring[may_join[ring]]
            left -= joining.size
            for v in sorted(map(fleet.row, joining), key=lambda v: (
                    _distance(resource, v, models), v.vid)):
                budget = prospective_link_budget(v, resource, s_bytes, models)
                # Anything beyond what the member can relay back to the head
                # is dead weight; its planned share is capped accordingly.
                plan = _plannable_frags(v, head, budget, s_bytes, models)
                if plan > 0:
                    yield ClusterMember(v.vid, budget, plan, frag_start)
                    frag_start += plan

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
    order itself is shared by every file size, and so are its members.
    Raises InsufficientCapacityError when every reachable candidate
    together still cannot cover the file.
    """
    n = recruitment.covering_prefix(v_bytes)
    return Cluster(recruitment.head.vid, recruitment.resource.vid,
                   recruitment.members[:n], v_bytes, recruitment.s_bytes)


def assign_fragments(cluster: Cluster) -> list[int]:
    """Each member's fragment count: the fragments [frag_start, frag_start
    + count) of the file are its own.

    A member takes its whole plan, or what is left of the file's
    ceil(v_bytes / s_bytes) fragments from its frag_start on, if fewer;
    so the last member of the cover takes the rest, and the ranges
    partition the file.
    """
    n_total = math.ceil(cluster.v_bytes / cluster.s_bytes)
    return [max(int(min(m.planned_frags, n_total - m.frag_start)), 0)
            for m in cluster.members]


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
    link = _head_link(member, head, models, math.inf)
    if link is None:
        return False
    t_in, t_out, r_thr = link
    # A contact that never closes (t_out = r_thr = inf) carries any volume.
    return (t_out - t_in) * r_thr / 8.0 >= assigned_bytes


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
    """Constant-velocity traffic from a Snapshot, a traffic source like
    simulator.Trajectory; a pair's window is its contact as its link
    budget predicts it (_contact).  It keys recruitments' scores, so it
    must not hold a recruitment."""

    snapshot: Snapshot
    models: Models

    def window(self, vid_a: int, vid_b: int, range_m: float):
        t_start_s, duration_s, _ = _contact(
            self.snapshot[vid_a], self.snapshot[vid_b], self.models, range_m)
        return t_start_s, t_start_s + duration_s

    def state(self, vid: int, t_s: float) -> VehicleState:
        s = self.snapshot[vid]
        return replace(s, x=s.x + s.vx * t_s, y=s.y + s.vy * t_s)


def _evaluate_plan(cluster: Cluster, counts: list, recruitment: Recruitment,
                   traffic) -> TransferOutcome:
    """Score a fragment plan member by member against a traffic source.

    counts[i] is the fragment count of cluster.members[i], from its
    frag_start on (assign_fragments).  traffic.window(vid, resource,
    range_m) gives each member's window with the resource, and
    traffic.state(vid, t_s) its state and the head's when it is ready to
    forward.  Download shortfalls (window shorter than the assigned
    fragments need) and forwarding failures both reduce delivered bytes;
    any shortfall demotes the outcome to failed.

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
    for m, count in zip(cluster.members, counts):
        assigned = cluster.fragment_bytes(m.frag_start, count)
        key = (traffic, m.vid, m.frag_start, count, assigned)
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
                frags_possible = count
            else:
                frags_possible = int(b.e_c_bps * window / frag_bits)
            frags_got = min(count, frags_possible)
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


def recruit(request: VehicleState,
            fleet: Snapshot | Collection[VehicleState], s_bytes: float,
            models: Models, holders: list[int]) -> Recruitment | None:
    """Answer a file request once, for every file of fragment size s_bytes.

    Selects the resource among the holders in fleet (select_resource,
    which depends on the fragment size only) and returns the recruitment
    around it, or None when no holder is within range.  fleet is a
    Snapshot; a collection of VehicleStates is converted to one here.
    """
    _check_fragment_size(s_bytes)
    if not isinstance(fleet, Snapshot):
        fleet = Snapshot.of(fleet)
    chosen = select_resource(
        request, [fleet[vid] for vid in sorted(set(holders))
                  if vid != request.vid and vid in fleet],
        s_bytes, models)
    if chosen is None:
        return None
    return Recruitment(request, *chosen, fleet, s_bytes, models)


def form_cluster(recruitment: Recruitment | None,
                 v_bytes: float) -> Cluster | TransferOutcome:
    """Plan one file of v_bytes up to the point where its cluster size is
    fixed: CFT's first step, the head-resource link, decides whether a
    cluster is needed.

    Returns the final outcome when no cluster forms: failed with zero
    bytes when no holder is reachable (recruitment None), direct when the
    resource link's predicted capacity alone carries the file, and failed
    with zero bytes when recruitment cannot cover it.  Otherwise returns
    the cluster; fragment assignment and delivery never change its
    members.  Both results have n_c, which is 0 for an outcome.
    """
    _check_volume(v_bytes)
    if recruitment is None:
        return TransferOutcome(mode="failed", bytes_delivered=0.0)
    if recruitment.head_budget.capacity_bytes >= v_bytes:
        return TransferOutcome(mode="direct", bytes_delivered=v_bytes)
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
    counts = assign_fragments(planned)
    return _evaluate_plan(planned, counts, recruitment, traffic)


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
    _check_volume(v_bytes)
    if (recruitment is None
            or recruitment.head_budget.capacity_bytes < v_bytes):
        return TransferOutcome(mode="failed", bytes_delivered=0.0)
    link, s_bytes = recruitment.head_budget, recruitment.s_bytes
    # A link that never closes (head and resource at standstill) covers an
    # unbounded file; the window traffic gives then bounds what arrives.
    n_frags = v_bytes / s_bytes
    head = ClusterMember(recruitment.head.vid, link, link.n_frags, 0)
    scored = _evaluate_plan(
        Cluster(head.vid, recruitment.resource.vid, [head], v_bytes, s_bytes),
        [n_frags if math.isinf(n_frags) else math.ceil(n_frags)],
        recruitment, traffic)
    return TransferOutcome(
        mode="direct" if scored.mode == "clustered" else "failed",
        bytes_delivered=scored.bytes_delivered,
        member_results=scored.member_results)
