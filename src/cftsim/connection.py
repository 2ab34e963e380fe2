"""Link lifetime prediction for vehicles moving at constant velocity.

Two vehicles are in range while their separation is at most the
communication range R; in_range is the one scalar test of that, and
in_range_mask its numpy form, equal to it element by element.  Callers
take a pair's offset along the ring from mobility.ring_delta; protocol's
link checks ask in_range, and recruitment's rings, the pair sweeps and the
request scans ask in_range_mask.  With relative position (dx, dy) and
relative velocity (dvx, dvy) both treated as constant, the squared
separation is

    |d + v t|^2 = B t^2 + 2 A t + (dx^2 + dy^2)

with A = dvx*dx + dvy*dy and B = dvx^2 + dvy^2, so range crossings are the
roots of a quadratic.  range_window is the one scalar closed form of them;
predict_connection_time reads an in-range pair's residual lifetime off it,
and connection_times is its numpy form for in-range pairs, evaluated in the
same order so that the two agree exactly.
"""

from __future__ import annotations

import math

import numpy as np


# Relative and absolute slack around a range within which np.hypot may
# fall on the other side of it than math.hypot: far wider than any rounding
# gap between the two.  Numpy range tests decide outside this band and
# leave the inside to in_range.
RANGE_SLACK_REL = 1e-9
RANGE_SLACK_M = 1e-6
# Slack of a band test on positions, in metres: far wider than any
# rounding of ring_delta, so that the exact test decides.
NEAR_SLACK_M = 1.0


def in_range(dx: float, dy: float, comm_range_m: float) -> bool:
    """Whether a pair at relative position (dx, dy) is within range now."""
    return math.hypot(dx, dy) <= comm_range_m


def in_range_mask(dx, dy, comm_range_m: float, dist=None) -> np.ndarray:
    """in_range over arrays (broadcast together), element by element and
    exactly equal to it.  dist, if given, is np.hypot(dx, dy), so that a
    caller that needs the distances anyway computes them once.

    np.hypot can differ from math.hypot in the last bit, so np.hypot
    decides only a distance outside the slack band around comm_range_m;
    one inside it is tested with in_range.
    """
    if dist is None:
        dist = np.hypot(dx, dy)
    inside = dist <= comm_range_m
    band = comm_range_m * RANGE_SLACK_REL + RANGE_SLACK_M
    edge = np.nonzero(np.abs(dist - comm_range_m) <= band)
    if edge[0].size:
        dx, dy = np.broadcast_arrays(dx, dy)
        for i in zip(*edge):
            inside[i] = in_range(float(dx[i]), float(dy[i]), comm_range_m)
    return inside


def predict_connection_time(dx: float, dy: float, dvx: float, dvy: float,
                            comm_range_m: float) -> float:
    """Residual time until an in-range pair separates beyond comm_range_m.

    Returns math.inf when the relative velocity is zero (the pair never
    separates under the constant-velocity assumption); callers cap that with
    their own horizon.  Raises ValueError if the pair is already out of
    range, where no residual lifetime is defined.
    """
    window = range_window(dx, dy, dvx, dvy, comm_range_m)
    if not in_range(dx, dy, comm_range_m):
        raise ValueError(
            "pair is out of communication range; predict_connection_time "
            "requires an in-range pair"
        )
    return window[1]


def range_window(dx: float, dy: float, dvx: float, dvy: float,
                 comm_range_m: float) -> tuple[float, float] | None:
    """Future time window [t_in, t_out] during which the pair is in range.

    A pair in range now gets exactly (0.0, t_out), its residual connection
    time, never negative; a stationary one gets (0.0, inf).  A pair out of
    range now but approaching gets t_in > 0, or 0.0 where rounding puts its
    entry in the past.  Returns None when the trajectories never come
    within range.
    """
    if comm_range_m <= 0.0:
        raise ValueError(f"communication range must be positive, got {comm_range_m}")
    now = in_range(dx, dy, comm_range_m)
    b = dvx * dvx + dvy * dvy
    if b == 0.0:
        return (0.0, math.inf) if now else None
    a = dvx * dx + dvy * dy
    cross = dvy * dx - dvx * dy
    radicand = b * (comm_range_m * comm_range_m) - cross * cross
    if now:
        # In range now guarantees a non-negative radicand and t_out up to
        # rounding.
        return (0.0, max((-a + math.sqrt(max(radicand, 0.0))) / b, 0.0))
    if radicand < 0.0:
        return None
    root = math.sqrt(radicand)
    t_out = (-a + root) / b
    if t_out <= 0.0:
        return None
    return (max((-a - root) / b, 0.0), t_out)


def connection_times(dx, dy, dvx, dvy, comm_range_m: float) -> np.ndarray:
    """predict_connection_time over arrays of in-range pairs, element by
    element and exactly equal to it; inf for a pair with no relative
    speed.  Pairs out of range are not detected."""
    a = dvx * dx + dvy * dy
    b = dvx * dvx + dvy * dvy
    cross = dvy * dx - dvx * dy
    radicand = np.maximum(b * (comm_range_m * comm_range_m) - cross * cross,
                          0.0)
    t_out = np.divide(-a + np.sqrt(radicand), b,
                      out=np.full_like(b, np.inf), where=b != 0.0)
    return np.maximum(t_out, 0.0)
