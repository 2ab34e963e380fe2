"""Acceptance suite: one test per shipped-behavior criterion.

Each test prints the measured values it judged, so a verbose run doubles as
a results table.  The heavy end-to-end sweeps (criteria 8 and 9) run at the
shipped default configuration and take about 15 s together on 2 cores.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chi2

from cftsim import protocol
from cftsim.channel import rate_distribution
from cftsim.config import load_config
from cftsim.connection import predict_connection_time
from cftsim.mac import (avg_slot_length, collision_duration, p_success,
                        success_duration, transmission_prob)
from cftsim.protocol import recruit, run_cft, run_direct_baseline
from cftsim.simulator import (capability_sweep, cluster_size_profile,
                              connection_time_sweep, max_transfer_volume,
                              rate_curve, throughput_sweep, write_csv)

from channel_oracles import sample_snr, snr_cdf
from conftest import predicted, random_scene

MB = 1_000_000.0


# SHA-256 of the CLI CSVs at the shipped config that the criteria compute
# anyway (the rate curve's 60 distances cost next to nothing): a change
# meant to keep the output must keep them.
SHIPPED_CSVS = {
    "connection-time":
        "873b81bb85e6fe66f0f16eb6f3fe79c52d3bdae6e56c91233f9282e210d50351",
    "rate-curve":
        "d026d86fbdb9a5167f6464f9433fb1c2c59182a39c3d257d34f5624169f78a25",
    "throughput":
        "5dcedc1d7d5b5e303f596ab8cc4093845edf686da45f5c6727a537fec2d5d406",
    "capacity":
        "655c2fb837c55666556b212721e109cf21e81c9f7a924876d7d7803994b082e2",
    "max-volume":
        "555f87c564538a0d2036eb87cb2b38f21b3a00b61c5a60b7fc47c94c97176102",
    "cluster-size":
        "2ea0029a5e919dc337657647e3e772b35abeb28c0b40a96644ccf1e1eafd9758",
}


# SHA-256 of every per-run record behind those CSVs, written out by
# _canonical.  A CSV holds only order statistics or means of its records,
# so a change can move records and leave the CSV byte-identical.  Taken on
# Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
SHIPPED_RECORDS = {
    "connection-time":
        "0341e3b84b13185eeae31d6ff664f538e544d97bb183b0e575e515a71062db56",
    "capacity":
        "6bdb95fd7cda1a61bd720611033bc7c89ed30202c56955f84eda950ec554193c",
    "max-volume":
        "4b0ca80720a1292844c5dbe6c7cfe71e756bb30a291c83dfb623374ba7a1500f",
    "cluster-size":
        "9491b1ff848c1f3e6bc327ace4bb859135b66db4c5d639106622dfb6c4cab078",
}


def _canonical(value) -> str:
    """value written out exactly: floats by float.hex, other scalars by
    str, and tuples and lists element by element, in order."""
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(v) for v in value) + ")"
    if isinstance(value, float):
        return float.hex(value)
    return str(value)


def _assert_shipped_digest(tmp_path, command, result):
    path = tmp_path / f"{command}.csv"
    write_csv(str(path), result)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    print(f"{command}.csv sha256 {digest}")
    assert digest == SHIPPED_CSVS[command]
    if command in SHIPPED_RECORDS:
        text = "\n".join(f"{_canonical(key)}:{_canonical(runs)}"
                         for key, runs in result.records.items())
        digest = hashlib.sha256(text.encode()).hexdigest()
        print(f"{command} records sha256 {digest}")
        assert digest == SHIPPED_RECORDS[command]


@pytest.fixture(scope="module")
def connection_result(default_cfg):
    return connection_time_sweep(default_cfg)


def test_criterion_01_connection_time_reproduction(tmp_path, connection_result,
                                                   default_cfg):
    # avg connection time: 5.3 s +/- 20% at 250 m, 12.7 s +/- 20% at 600 m,
    # non-decreasing across the range grid.
    vals = {row[0]: row[3] for row in connection_result.rows}
    ordered = [vals[r] for r in default_cfg.experiments.comm_ranges_m]
    print(f"criterion 1: connection time 250m={vals[250.0]:.3f}s "
          f"600m={vals[600.0]:.3f}s grid={[round(v, 2) for v in ordered]}")
    assert 5.3 * 0.8 <= vals[250.0] <= 5.3 * 1.2
    assert 12.7 * 0.8 <= vals[600.0] <= 12.7 * 1.2
    assert all(b >= a for a, b in zip(ordered, ordered[1:]))
    _assert_shipped_digest(tmp_path, "connection-time", connection_result)


def test_criterion_02_connection_time_closed_form_vs_bisection():
    # 10^4 random in-range pairs; closed form within 1e-6 s of a bisection
    # root of the separation-circle equation; 100% required.
    gen = np.random.default_rng(424242)
    r = 250.0
    failures = 0
    for _ in range(10_000):
        rad = r * math.sqrt(float(gen.uniform(0.0, 1.0)))
        ang = float(gen.uniform(0.0, 2.0 * math.pi))
        dx, dy = rad * math.cos(ang), rad * math.sin(ang)
        dvx = float(gen.uniform(5.0, 40.0) * gen.choice([-1.0, 1.0]))
        dvy = float(gen.uniform(-5.0, 5.0))
        predicted = predict_connection_time(dx, dy, dvx, dvy, r)

        def f(t):
            return (dx + dvx * t) ** 2 + (dy + dvy * t) ** 2 - r * r

        hi = 1.0
        while f(hi) <= 0.0:
            hi *= 2.0
        lo = 0.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if f(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        if abs(predicted - 0.5 * (lo + hi)) > 1e-6:
            failures += 1
    print(f"criterion 2: bisection mismatches {failures}/10000")
    assert failures == 0


def test_criterion_03_channel_normalization_and_rayleigh_reduction(tmp_path,
                                                                  default_cfg):
    # Rate probabilities sum to one within 1e-9 over 100 distances; with the
    # shape forced to 1 the SNR CDF is the exponential closed form.
    worst = 0.0
    for d in np.linspace(50.0, 600.0, 100):
        rd = rate_distribution(float(d), default_cfg.channel, default_cfg.rates)
        worst = max(worst, abs(rd.prob_zero + sum(rd.probs) - 1.0))
    assert worst <= 1e-9

    rayleigh = dataclasses.replace(default_cfg.channel,
                                   mu_profile=((0.0, math.inf, 1.0),))
    worst_cdf = 0.0
    for d in (60.0, 150.0, 300.0, 500.0):
        omega = 0.2 / d ** 4
        for x in (0.01, 0.03, 0.12, 0.55, 2.0, 20.0):
            closed = 1.0 - math.exp(-(rayleigh.noise_w / omega) * x)
            got = snr_cdf(x, d, rayleigh)
            worst_cdf = max(worst_cdf, abs(got - closed))
    print(f"criterion 3: normalization err {worst:.2e}, "
          f"exponential-reduction err {worst_cdf:.2e}")
    assert worst_cdf <= 1e-9
    _assert_shipped_digest(tmp_path, "rate-curve", rate_curve(default_cfg))


def _chi2_merge(observed, expected):
    """Merge adjacent bins until every expected count is at least 5."""
    obs, exp = list(observed), list(expected)
    i = 0
    while i < len(exp):
        if exp[i] < 5.0 and len(exp) > 1:
            j = i + 1 if i + 1 < len(exp) else i - 1
            exp[j] += exp[i]
            obs[j] += obs[i]
            del exp[i], obs[i]
            i = 0
        else:
            i += 1
    return np.array(obs, float), np.array(exp, float)


@pytest.mark.parametrize("d", [100.0, 250.0, 400.0])
def test_criterion_04_channel_monte_carlo_equivalence(default_cfg, d):
    # 10^6 fading samples binned by the rate thresholds vs the analytic
    # distribution, chi-square at 99% confidence.
    n = 10 ** 6
    gen = np.random.default_rng(900_000 + int(d))
    snr = sample_snr(d, default_cfg.channel, gen, n)
    edges = np.array(default_cfg.rates.thresholds_snr)
    counts = np.histogram(snr, bins=np.concatenate(([0.0], edges, [np.inf])))[0]
    rd = rate_distribution(d, default_cfg.channel, default_cfg.rates)
    expected = np.array([rd.prob_zero, *rd.probs]) * n
    obs, exp = _chi2_merge(counts, expected)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = max(len(exp) - 1, 1)
    limit = float(chi2.ppf(0.99, dof))
    print(f"criterion 4: d={d:.0f}m chi2={stat:.2f} (dof {dof}, 99% {limit:.2f})")
    assert stat <= limit


def test_criterion_05_mac_exactness_and_slot_monte_carlo(default_cfg):
    zeta = transmission_prob(32)
    assert zeta == 2.0 / 33.0
    assert p_success(1, zeta) == 1.0
    params = default_cfg.mac_for(250.0, 5.0)
    rate = 8e6
    t_succ = success_duration(params, rate)
    t_coll = collision_duration(params)
    for n in (2, 5, 10):
        gen = np.random.default_rng(95_150 + n)
        tx = gen.binomial(n, zeta, size=10 ** 6)
        busy = int((tx > 0).sum())
        p_hat = float((tx == 1).sum()) / busy
        p = p_success(n, zeta)
        se = math.sqrt(p * (1.0 - p) / busy)
        durations = np.where(tx == 0, params.t_slot_s,
                             np.where(tx == 1, t_succ, t_coll))
        t_hat = float(durations.mean())
        t_model = avg_slot_length(n, zeta, params, rate)
        se_t = float(durations.std(ddof=1)) / math.sqrt(durations.size)
        print(f"criterion 5: n={n} P_suc {p_hat:.5f} vs {p:.5f} "
              f"(3se {3 * se:.5f}); T {t_hat * 1e6:.2f}us vs "
              f"{t_model * 1e6:.2f}us (3se {3 * se_t * 1e6:.2f}us)")
        assert abs(p_hat - p) <= 3.0 * se
        assert abs(t_hat - t_model) <= 3.0 * se_t


def test_criterion_06_throughput_band_and_monotone_trends(tmp_path, default_cfg):
    # ~6.6 -> 8.0 Mbps over R=250 -> 600 m at rho=5, +/- 15%; non-decreasing
    # in both density and range over the whole grid.
    res = throughput_sweep(default_cfg)
    thr = {(row[0], row[1]): row[2] for row in res.rows}
    e = default_cfg.experiments
    ranges, densities = e.comm_ranges_m, e.densities_per_km
    at5 = [thr[(5.0, r)] for r in ranges]
    print(f"criterion 6: rho=5 throughput {at5[0] / 1e6:.2f} -> "
          f"{at5[-1] / 1e6:.2f} Mbps over R={ranges[0]:.0f}..{ranges[-1]:.0f}")
    assert 6.6e6 * 0.85 <= at5[0] <= 6.6e6 * 1.15
    assert 8.0e6 * 0.85 <= at5[-1] <= 8.0e6 * 1.15
    for rho in densities:
        series = [thr[(rho, r)] for r in ranges]
        assert all(b >= a for a, b in zip(series, series[1:]))
    for r in ranges:
        series = [thr[(rho, r)] for rho in densities]
        assert all(b >= a for a, b in zip(series, series[1:]))
    _assert_shipped_digest(tmp_path, "throughput", res)


def test_criterion_07_transmission_capability_band(tmp_path, default_cfg):
    # ~35.0 MB at 250 m to ~102.9 MB at 600 m, +/- 25%, linear in R with
    # R^2 >= 0.95.
    res = capability_sweep(default_cfg)
    vals = {row[0]: row[3] for row in res.rows}
    ranges = list(default_cfg.experiments.comm_ranges_m)
    y = np.array([vals[r] for r in ranges])
    x = np.array(ranges, float)
    fit = np.polyval(np.polyfit(x, y, 1), x)
    r2 = 1.0 - ((y - fit) ** 2).sum() / ((y - y.mean()) ** 2).sum()
    print(f"criterion 7: capability {vals[250.0] / MB:.2f} MB at 250m, "
          f"{vals[600.0] / MB:.2f} MB at 600m, linear R^2={r2:.4f}")
    assert 35.0 * MB * 0.75 <= vals[250.0] <= 35.0 * MB * 1.25
    assert 102.9 * MB * 0.75 <= vals[600.0] <= 102.9 * MB * 1.25
    assert r2 >= 0.95
    _assert_shipped_digest(tmp_path, "capacity", res)


def test_criterion_08_cft_vs_direct_max_volume(tmp_path, default_cfg):
    # At R=250 m over rho=5..10: direct within 35-45 MB +/- 25% and varying
    # by < 20%; CFT within 295-415 MB +/- 25%, non-decreasing in rho, and
    # at least 6x direct at every density.
    res = max_transfer_volume(default_cfg, "direct", "cft")
    d_vals = {row[1]: row[4] for row in res.rows if row[0] == "direct"}
    c_vals = {row[1]: row[4] for row in res.rows if row[0] == "cft"}
    densities = list(default_cfg.experiments.max_volume_densities)
    d_series = [d_vals[rho] for rho in densities]
    c_series = [c_vals[rho] for rho in densities]
    print(f"criterion 8: direct {[v / MB for v in d_series]} MB, "
          f"cft {[v / MB for v in c_series]} MB")
    for v in d_series:
        assert 35.0 * MB * 0.75 <= v <= 45.0 * MB * 1.25
    assert (max(d_series) - min(d_series)) / min(d_series) < 0.20
    for v in c_series:
        assert 295.0 * MB * 0.75 <= v <= 415.0 * MB * 1.25
    assert all(b >= a for a, b in zip(c_series, c_series[1:]))
    for rho in densities:
        assert c_vals[rho] / d_vals[rho] >= 6.0
    _assert_shipped_digest(tmp_path, "max-volume", res)


def test_criterion_09_cluster_size_profile(tmp_path, default_cfg):
    # At rho=10 the mean cluster size spans ~1.7 -> 13.2 +/- 30% over the
    # file sizes, non-decreasing in file size; sparser traffic needs larger
    # clusters at every file size.
    res = cluster_size_profile(default_cfg)
    avg = {(row[0], row[1]): row[2] for row in res.rows}
    sizes = list(default_cfg.experiments.file_sizes_bytes)
    at10 = [avg[(10.0, v)] for v in sizes]
    at5 = [avg[(5.0, v)] for v in sizes]
    print(f"criterion 9: rho=10 N_c {[round(v, 2) for v in at10]}; "
          f"rho=5 N_c {[round(v, 2) for v in at5]}")
    assert 1.7 * 0.7 <= at10[0] <= 1.7 * 1.3
    assert 13.2 * 0.7 <= at10[-1] <= 13.2 * 1.3
    assert all(b >= a for a, b in zip(at10, at10[1:]))
    for v in sizes:
        assert avg[(5.0, v)] >= avg[(10.0, v)]
    _assert_shipped_digest(tmp_path, "cluster-size", res)


def test_criterion_10_protocol_invariants_randomized(default_cfg, monkeypatch):
    # 10^3 random scenes: coverage, minimality, exact fragment partition,
    # CFT delivers at least the baseline (both scored on one traffic
    # source), and the direct short-circuit never builds a cluster.  100%
    # required.
    gen = np.random.default_rng(101_010)
    calls = {"n": 0}
    real_build = protocol.build_cluster

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real_build(*args, **kwargs)

    monkeypatch.setattr(protocol, "build_cluster", counting)
    models = default_cfg.models(250.0, 5.0, horizon_s=120.0)
    modes = {"direct": 0, "clustered": 0, "failed": 0}
    for _ in range(1000):
        fleet, head, holders, v_bytes = random_scene(gen)
        before = calls["n"]
        recruitment = recruit(head, fleet, MB, models, holders)
        traffic = predicted(fleet, models)
        out = run_cft(recruitment, v_bytes, traffic)
        built = calls["n"] - before
        base = run_direct_baseline(recruitment, v_bytes, traffic)
        modes[out.mode] += 1
        assert out.bytes_delivered >= base.bytes_delivered
        if out.mode == "direct":
            assert built == 0
        if out.mode == "clustered":
            c = out.cluster
            planned = [MB * m.planned_frags for m in c.members]
            assert sum(planned) >= v_bytes                    # coverage
            assert sum(planned[:-1]) < v_bytes                # minimality
            seen = []
            for m in c.members:
                assert m.frag_count <= m.budget.n_frags       # no overdraw
                seen.extend(range(m.frag_start, m.frag_start + m.frag_count))
            assert seen == list(range(math.ceil(v_bytes / MB)))  # partition
            assert out.bytes_delivered == v_bytes
    print(f"criterion 10: outcomes {modes}")
    assert min(modes.values()) > 0        # every mode actually exercised
    # The pinned modes of these scenes: a change is a behaviour change.
    assert modes == {"direct": 45, "clustered": 37, "failed": 918}


def test_criterion_11_repeat_runs_are_byte_identical(tmp_path, default_cfg,
                                                     connection_result):
    rerun = connection_time_sweep(default_cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(str(p1), connection_result)
    write_csv(str(p2), rerun)
    assert p1.read_bytes() == p2.read_bytes()
    t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    write_csv(str(t1), throughput_sweep(default_cfg))
    write_csv(str(t2), throughput_sweep(default_cfg))
    assert t1.read_bytes() == t2.read_bytes()
    print("criterion 11: repeated sweeps byte-identical")
