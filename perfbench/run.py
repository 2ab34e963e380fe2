#!/usr/bin/env python3
"""cftsim benchmark: run one workload end to end, or traced layer by layer.

    python3 perfbench/run.py --workload cluster-profile --seed 0 --seconds 30 --trace 0

Run from a source checkout: the package is imported from ``src/`` beside
this directory, at the shipped ``default.yaml``.  Prints the environment,
every metric by name with its unit, and as the last line one JSON object
with keys correct, attempted, failed and metrics.  Exits 1 when an output
check fails and 2 when the checkout holds no cftsim source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CONFIG = os.path.join(SRC, "cftsim", "data", "default.yaml")

# Each workload is a list of sweeps run through the CLI's entry points, and
# the seed count per repetition.  The seed counts set how much work one
# repetition holds: enough scenarios that a repetition's cost does not hinge
# on one draw, few enough that several repetitions fit in a run.
WORKLOADS = {
    # cluster_size_profile keeps every 3,600 s trajectory of a density alive
    # at once: mobility-bound, and the memory workload.
    "cluster-profile": (("cluster-size",), 4),
    # Bisection calls run_cft ~17 times per scenario: the protocol workload.
    "max-volume-cft": (("max-volume-cft",), 2),
    # Short warm-ups and snapshot copies, bulk channel lookups, no protocol
    # work: the bypass workload for protocol changes.
    "pair-sweeps": (("connection-time", "capacity", "throughput", "rate-curve"), 30),
}

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

# Per-step figures ROADMAP quotes from its re-anchor, for comparison.
ROADMAP_STEP_US = {"mobility.step.p50_us.d5": 110.0,
                   "mobility.step.p50_us.d10": 150.0}

# Time from before `import cftsim` to a resolved config, in a fresh
# interpreter.  argv: src dir, config path, overrides...
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cftsim
from cftsim.config import load_config
load_config(sys.argv[2], sys.argv[3:])
elapsed = time.perf_counter() - t0
if not cftsim.__file__.startswith(sys.argv[1]):
    sys.exit("imported cftsim from outside the checkout: " + cftsim.__file__)
print(repr(elapsed))
"""

SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def overrides(seeds: int, base_seed: int) -> list[str]:
    """The CLI's --seeds expansion plus the base seed."""
    return [f"experiments.seeds={seeds}",
            f"experiments.max_volume.seeds={seeds}",
            f"experiments.cluster_size.seeds={seeds}",
            f"experiments.base_seed={base_seed}"]


def base_seed(seed: int, rep: int) -> int:
    return seed * 100_000 + rep


def measure_setup(opts: list[str]) -> float:
    """Median setup time over fresh interpreters."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, SRC, CONFIG, *opts],
            capture_output=True, text=True, env=env, timeout=SETUP_TIMEOUT_S,
            check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def environment(workload: str, seed: int, seeds_per_rep: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
                env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "seeds_per_rep": seeds_per_rep,
    }


@dataclass
class Rep:
    """Outcome of one pass over a workload's sweeps."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


def run_rep(sweeps, seeds: int, bseed: int, tmpdir: str) -> Rep:
    """Run every sweep once at one base seed; time the sweeps, check them."""
    from cftsim import simulator
    from cftsim.config import load_config

    import checks

    cfg = load_config(CONFIG, overrides(seeds, bseed))
    rep = Rep()
    for sweep in sweeps:
        t0 = time.perf_counter()
        try:
            if sweep == "max-volume-cft":
                result = simulator.max_transfer_volume(cfg, "cft")
            else:
                result = simulator.run_sweep(cfg, sweep)
        except Exception as exc:  # a crashed sweep fails all its operations
            rep.wall_s += time.perf_counter() - t0
            ops = checks.expected_ops(sweep, cfg)
            rep.attempted += ops
            rep.failed += ops
            rep.problems.append(f"{sweep}: {type(exc).__name__}: {exc}")
            continue
        rep.wall_s += time.perf_counter() - t0
        path = os.path.join(tmpdir, f"{sweep}.csv")
        simulator.write_csv(path, result)
        with open(path, "rb") as fh:
            rep.digests[sweep] = hashlib.sha256(fh.read()).hexdigest()
        attempted, failed, problems = checks.check(sweep, cfg, result)
        rep.attempted += attempted
        rep.failed += failed
        rep.problems += problems
    return rep


def run_untraced(sweeps, seeds, seed, seconds, tmpdir):
    """Repetitions at successive base seeds until `seconds` have passed."""
    reps = []
    t_end = time.perf_counter() + seconds
    while not reps or time.perf_counter() < t_end:
        reps.append(run_rep(sweeps, seeds, base_seed(seed, len(reps)), tmpdir))
    return reps


def run_traced(sweeps, seeds, seed, seconds, tmpdir):
    """Alternate untraced and traced passes over one input.

    Every pass uses the same base seed, so per-pass counts repeat exactly
    and the untraced/traced wall times compare like with like.  A traced
    CSV that differs from the untraced one is an output failure.
    """
    from tracing import Tracer

    tracer = Tracer()
    reps, untraced_s, traced_s, n_traced = [], 0.0, 0.0, 0
    bseed = base_seed(seed, 0)
    t_end = time.perf_counter() + seconds
    while not n_traced or time.perf_counter() < t_end:
        plain = run_rep(sweeps, seeds, bseed, tmpdir)
        with tracer.install():
            traced = run_rep(sweeps, seeds, bseed, tmpdir)
        if traced.digests != plain.digests:
            traced.failed = traced.attempted
            traced.problems.append("traced output differs from untraced output")
        reps += [plain, traced]
        untraced_s += plain.wall_s
        traced_s += traced.wall_s
        n_traced += 1
    return reps, tracer.report(n_traced, traced_s, untraced_s)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cftsim", "__init__.py")):
        print(f"error: no cftsim source under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path[:0] = [SRC, HERE]
    import cftsim
    if not os.path.abspath(cftsim.__file__).startswith(SRC + os.sep):
        print(f"error: cftsim imported from {cftsim.__file__}", file=sys.stderr)
        return 2

    sweeps, seeds = WORKLOADS[args.workload]
    for key, value in environment(args.workload, args.seed, seeds).items():
        print(f"env {key} = {value}")

    with tempfile.TemporaryDirectory(prefix=".csv-", dir=HERE) as tmpdir:
        if args.trace:
            reps, metrics = run_traced(sweeps, seeds, args.seed, args.seconds, tmpdir)
        else:
            setup_s = measure_setup(overrides(seeds, base_seed(args.seed, 0)))
            reps = run_untraced(sweeps, seeds, args.seed, args.seconds, tmpdir)
            # Operations over the sweeps' summed wall time: the inverse of
            # the time to solution for every input the run drew.  Inputs
            # differ in cost (bisection depth, recruitment length), so this
            # weights each by its work rather than taking a median of rates.
            rate = sum(r.attempted for r in reps) / sum(r.wall_s for r in reps)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "scenarios_per_s": (rate, "1/s"),
                "peak_rss_mb": (peak_kb * 1024 / 1e6, "MB"),
                "setup_s": (setup_s, "s"),
            }

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    problems = [p for r in reps for p in r.problems]
    for i, r in enumerate(reps):
        print(f"rep {i}: operations = {r.attempted}, sweep wall = {r.wall_s!r} s")
    for sweep, digest in reps[0].digests.items():
        print(f"fingerprint {sweep}.csv sha256 = {digest}")
    for name, (value, unit) in metrics.items():
        ref = ROADMAP_STEP_US.get(name)
        note = f"  (ROADMAP re-anchor baseline: {ref:g} us)" if ref else ""
        print(f"metric {name} = {value!r} {unit}{note}")
    print(f"operations attempted = {attempted}, failed = {failed}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
