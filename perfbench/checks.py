"""Output checks for the benchmark's sweeps.

Every aggregate row is recomputed from ``SweepResult.records`` and the
records are held to physical bounds.  An operation is one (grid point, seed)
record; ``check`` returns how many operations a sweep attempted and how many
sit in rows that failed a check, with a reason for each failed row.  A
simulated transfer that fails (mode "failed") is a model result, not a
failed operation.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


# rate_curve's default grid, which run_sweep("rate-curve") uses.
RATE_CURVE_DISTANCES = tuple(float(d) for d in np.arange(10.0, 601.0, 10.0))


def expected_ops(sweep: str, cfg) -> int:
    """Operations the sweep attempts at this config, before it runs."""
    e = cfg.experiments
    if sweep in ("connection-time", "capacity"):
        return len(e.comm_ranges_m) * e.seeds
    if sweep == "throughput":
        return len(e.densities_per_km) * len(e.comm_ranges_m)
    if sweep == "rate-curve":
        return len(RATE_CURVE_DISTANCES)
    if sweep == "max-volume-cft":
        return len(e.max_volume_densities) * e.max_volume_seeds
    if sweep == "cluster-size":
        return len(e.cluster_densities) * len(e.file_sizes_bytes) * e.cluster_seeds
    raise ValueError(f"unknown sweep '{sweep}'")


def _pair_rows(cfg, result, upper):
    """connection-time and capacity: per-range mean of per-seed values."""
    e = cfg.experiments
    for row in result.rows:
        r_m, _density, _sd, mean, n = row
        rec = result.records.get((r_m,), [])
        if n != len(rec) or n > e.seeds:
            yield e.seeds, f"range {r_m}: n_runs {n} vs {len(rec)} records"
        elif rec and not _close(mean, float(np.mean(rec))):
            yield e.seeds, f"range {r_m}: mean {mean} does not recompute"
        elif not all(0.0 <= v <= upper for v in rec):
            yield e.seeds, f"range {r_m}: a value lies outside [0, {upper}]"
        else:
            yield e.seeds, None


def _throughput_rows(cfg, result):
    e = cfg.experiments
    for density, r_m, val in result.rows:
        rec = result.records.get((density, r_m), [])
        if len(rec) != 1 or not _close(val, rec[0]):
            yield 1, f"({density}, {r_m}): throughput does not recompute"
        elif not 0.0 < val <= e.nominal_mac_rate_bps:
            yield 1, f"({density}, {r_m}): throughput {val} out of bounds"
        else:
            yield 1, None


def _rate_curve_rows(cfg, result):
    top = max(cfg.rates.rates_bps)
    for i, (d, rate) in enumerate(result.rows):
        want = RATE_CURVE_DISTANCES[i] if i < len(RATE_CURVE_DISTANCES) else None
        if d != want:
            yield 1, f"distance {d}: expected {want}"
        elif not 0.0 <= rate <= top:
            yield 1, f"distance {d}: rate {rate} outside [0, {top}]"
        else:
            yield 1, None


def _max_volume_rows(cfg, result):
    e = cfg.experiments
    for scheme, density, _r, _sd, volume, n in result.rows:
        rec = result.records.get((scheme, density), [])
        if n != len(rec) or n != e.max_volume_seeds:
            yield e.max_volume_seeds, f"density {density}: n_runs {n} vs {len(rec)} records"
            continue
        need = math.ceil(e.success_fraction * n)
        if volume != sorted(rec)[n - need]:
            yield n, f"density {density}: quantile volume {volume} does not recompute"
        elif not all(v >= 0.0 and v % e.fragment_bytes == 0.0 for v in rec):
            yield n, f"density {density}: a volume is negative or not whole fragments"
        else:
            yield n, None


def _cluster_rows(cfg, result):
    e = cfg.experiments
    for density, v_bytes, avg, n_formed in result.rows:
        sizes = result.records.get((density, v_bytes), [])
        formed = [s for s in sizes if s > 0]
        expect = float(np.mean(formed)) if formed else 0.0
        if len(sizes) != e.cluster_seeds:
            yield e.cluster_seeds, f"({density}, {v_bytes}): {len(sizes)} records"
        elif any(s < 0 or s != int(s) for s in sizes):
            yield len(sizes), f"({density}, {v_bytes}): a cluster size is not a count"
        elif n_formed != len(formed) or not _close(avg, expect):
            yield len(sizes), f"({density}, {v_bytes}): formed-cluster mean does not recompute"
        elif formed and avg < 1.0:
            yield len(sizes), f"({density}, {v_bytes}): formed clusters under 1 member"
        else:
            yield len(sizes), None


def check(sweep: str, cfg, result) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one sweep's result."""
    e = cfg.experiments
    if sweep == "connection-time":
        rows = _pair_rows(cfg, result, e.horizon_s)
    elif sweep == "capacity":
        rows = _pair_rows(cfg, result,
                          max(cfg.rates.rates_bps) * e.horizon_s / 8.0)
    elif sweep == "throughput":
        rows = _throughput_rows(cfg, result)
    elif sweep == "rate-curve":
        rows = _rate_curve_rows(cfg, result)
    elif sweep == "max-volume-cft":
        rows = _max_volume_rows(cfg, result)
    elif sweep == "cluster-size":
        rows = _cluster_rows(cfg, result)
    else:
        raise ValueError(f"unknown sweep '{sweep}'")
    attempted = expected_ops(sweep, cfg)
    failed, problems, seen = 0, [], 0
    for ops, problem in rows:
        seen += ops
        if problem is not None:
            failed += ops
            problems.append(f"{sweep}: {problem}")
    if seen != attempted:
        # Missing or extra rows: the grid was not covered as configured.
        problems.append(f"{sweep}: rows cover {seen} of {attempted} operations")
        failed = attempted
    return attempted, failed, problems
