"""In-memory span tracer that wraps cftsim's public functions from outside.

Each wrapped function is patched at the module attribute where its callers
look it up (for example ``simulator.run_cft``, which the simulator imported
from ``protocol``), so the package itself is untouched.  A span records its
name, start, end and parent span; spans stay in memory until ``report``
folds them into per-layer metrics after the run.
"""

from __future__ import annotations

import contextlib
import time
import weakref

import numpy as np

from cftsim import mac, mobility, protocol, simulator

# (module, attribute looked up by callers, span name).  One function can be
# looked up in several modules; every lookup site shares the span name.
PATCH_SITES = (
    (mobility, "step", "mobility.step"),
    (mobility, "init_scenario", "mobility.init_scenario"),
    (simulator, "run_sweep", "simulator.run_sweep"),
    (simulator, "max_transfer_volume", "simulator.max_transfer_volume"),
    (simulator, "build_transfer_scenario", "simulator.build_transfer_scenario"),
    (simulator, "write_csv", "simulator.write_csv"),
    (simulator, "run_cft", "protocol.run_cft"),
    (simulator, "link_budget", "protocol.link_budget"),
    (simulator, "expected_rate", "channel.expected_rate"),
    (protocol, "link_budget", "protocol.link_budget"),
    (protocol, "prospective_link_budget", "protocol.prospective_link_budget"),
    (protocol, "build_cluster", "protocol.build_cluster"),
    (protocol, "assign_fragments", "protocol.assign_fragments"),
    (protocol, "forwarding_feasible", "protocol.forwarding_feasible"),
    (protocol, "expected_rate", "channel.expected_rate"),
    (protocol, "throughput", "mac.throughput"),
    (protocol, "range_window", "connection.range_window"),
    (protocol, "predict_connection_time", "connection.predict_connection_time"),
    (mac, "throughput", "mac.throughput"),
)

# mobility.step spans are split by traffic density (veh/km) so the figures
# line up with the per-step baseline ROADMAP quotes at 5 and 10 veh/km.
STEP_DENSITIES = (5.0, 10.0)


def _tag(name, args, result):
    """Per-span detail kept beside the timing, or None."""
    if name == "mobility.step":
        return args[1].density_per_km
    if name == "protocol.run_cft":
        return result.mode
    if name == "protocol.build_cluster":
        return result.n_c
    return None


def _trajectory_bytes(traj) -> int:
    return traj.x.nbytes + traj.speed.nbytes + traj.y.nbytes + traj.direction.nbytes


class Tracer:
    """Span store for one traced run; install() patches, report() sums."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.tag: list = []
        self._stack: list[int] = []
        self.traj_live = 0
        self.traj_peak = 0

    def _wrap(self, name, fn):
        names, starts, ends, parents, tags = (
            self.name, self.start, self.end, self.parent, self.tag)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            tags.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            tags[idx] = _tag(name, args, result)
            if name == "simulator.build_transfer_scenario":
                self._track_trajectory(result.trajectory)
            return result

        return traced

    def _track_trajectory(self, traj) -> None:
        nbytes = _trajectory_bytes(traj)
        self.traj_live += nbytes
        self.traj_peak = max(self.traj_peak, self.traj_live)
        weakref.finalize(traj, self._release_trajectory, nbytes)

    def _release_trajectory(self, nbytes: int) -> None:
        self.traj_live -= nbytes

    @contextlib.contextmanager
    def install(self):
        """Patch every site for the duration of the block, then restore."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCH_SITES]
        try:
            for (mod, attr, name), (_, _, fn) in zip(PATCH_SITES, originals):
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def report(self, reps: int, traced_s: float, untraced_s: float) -> dict:
        """Per-layer metrics, as (value, unit), per repetition of the workload.

        reps is the number of traced repetitions the spans cover; counts and
        busy times are divided by it, so each figure describes one pass of
        the workload's sweeps.  Percentiles pool every traced repetition.
        """
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        names = np.asarray(self.name, dtype=object)
        parent = np.asarray(self.parent, dtype=np.int64)
        child_time = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time

        def sel(name):
            return names == name

        def calls(name):
            return int(np.count_nonzero(sel(name))) // reps

        def busy(name):
            return float(dur[sel(name)].sum()) / reps

        def self_s(name):
            return float(self_time[sel(name)].sum()) / reps

        def pct(values, q, scale):
            return float(np.percentile(values, q)) * scale if values.size else 0.0

        m = {}
        step = sel("mobility.step")
        step_dur = dur[step]
        step_density = np.asarray([t for t, s in zip(self.tag, step) if s], dtype=float)
        m["mobility.step.calls"] = (calls("mobility.step"), "count")
        m["mobility.step.busy_s"] = (busy("mobility.step"), "s")
        m["mobility.step.p50_us"] = (pct(step_dur, 50, 1e6), "us")
        m["mobility.step.p99_us"] = (pct(step_dur, 99, 1e6), "us")
        for d in STEP_DENSITIES:
            m[f"mobility.step.p50_us.d{d:g}"] = (
                pct(step_dur[step_density == d], 50, 1e6), "us")
        m["mobility.init_scenario.calls"] = (calls("mobility.init_scenario"), "count")
        m["mobility.init_scenario.busy_s"] = (busy("mobility.init_scenario"), "s")

        bts = "simulator.build_transfer_scenario"
        scen_dur = dur[sel(bts)]
        m[f"{bts}.calls"] = (calls(bts), "count")
        m[f"{bts}.self_s"] = (self_s(bts), "s")
        m[f"{bts}.p50_ms"] = (pct(scen_dur, 50, 1e3), "ms")
        m[f"{bts}.p90_ms"] = (pct(scen_dur, 90, 1e3), "ms")
        m["simulator.trajectory_bytes_peak"] = (self.traj_peak, "bytes")

        cft = sel("protocol.run_cft")
        cft_dur = dur[cft]
        m["protocol.run_cft.calls"] = (calls("protocol.run_cft"), "count")
        m["protocol.run_cft.busy_s"] = (busy("protocol.run_cft"), "s")
        m["protocol.run_cft.p50_us"] = (pct(cft_dur, 50, 1e6), "us")
        m["protocol.run_cft.p99_us"] = (pct(cft_dur, 99, 1e6), "us")
        n_scen = calls(bts)
        m["protocol.run_cft.calls_per_scenario"] = (
            calls("protocol.run_cft") / n_scen if n_scen else 0.0, "count")
        modes = [t for t, s in zip(self.tag, cft) if s]
        for mode in ("direct", "clustered", "failed"):
            m[f"protocol.run_cft.mode.{mode}"] = (modes.count(mode) // reps, "count")
        m["protocol.build_cluster.calls"] = (calls("protocol.build_cluster"), "count")
        m["protocol.build_cluster.self_s"] = (self_s("protocol.build_cluster"), "s")
        for fn in ("link_budget", "prospective_link_budget", "forwarding_feasible"):
            m[f"protocol.{fn}.calls"] = (calls(f"protocol.{fn}"), "count")
            m[f"protocol.{fn}.busy_s"] = (busy(f"protocol.{fn}"), "s")
        m["protocol.assign_fragments.busy_s"] = (busy("protocol.assign_fragments"), "s")
        sizes = [t for t, s in zip(self.tag, sel("protocol.build_cluster"))
                 if s and t is not None]
        m["protocol.cluster_members.mean"] = (
            float(np.mean(sizes)) if sizes else 0.0, "count")

        for name in ("channel.expected_rate", "mac.throughput",
                     "connection.range_window", "connection.predict_connection_time"):
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.busy_s"] = (busy(name), "s")
        m["simulator.write_csv.busy_s"] = (busy("simulator.write_csv"), "s")
        m["trace.overhead_frac"] = (traced_s / untraced_s, "ratio")
        return m
