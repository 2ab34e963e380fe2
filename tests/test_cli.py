"""Command-line interface: exit codes, CSV emission, overrides."""

import hashlib

import pytest

from cftsim.cli import METRIC_COMMANDS, SEED_KEYS, main


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_command_roster_is_stable():
    assert METRIC_COMMANDS == ("connection-time", "throughput", "capacity",
                               "max-volume", "cluster-size", "rate-curve")


def test_seed_keys_are_the_four_seed_counts():
    assert SEED_KEYS == ("experiments.seeds", "experiments.max_volume.seeds",
                         "experiments.max_volume.direct_seeds",
                         "experiments.cluster_size.seeds")


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["throughput", "--seeds", "0"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["validate-config", "--config",
                 str(tmp_path / "absent.yaml")]) == 2
    assert main(["throughput", "--set", "experiments.success_fraction=7"]) == 2
    assert main(["validate-config", "--set", "chanel.noise_dbm=-90"]) == 2
    assert "config error" in capsys.readouterr().err
    # A NaN, or an infinite max-volume trajectory, fails as a config error
    # before any row is written.
    for argv in (["validate-config", "--set", "mobility.step_s=nan"],
                 ["throughput", "--set", "mac.slot_us=nan"],
                 ["connection-time", "--set", "mobility.accel_mps2=nan"],
                 ["max-volume", "--set", "experiments.horizon_s=.inf"]):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert f"'{argv[-1].split('=')[0]}'" in capsys.readouterr().err
    # So does a negative or infinite random acceleration bound.
    for value in ("-2", ".inf"):
        for argv in (["validate-config"], ["cluster-size", "--seeds", "1"]):
            assert main([*argv, "--set", f"mobility.accel_mps2={value}",
                         "--out", str(tmp_path)]) == 2
            assert "accel_mps2" in capsys.readouterr().err
    # So does a value of the wrong shape: a string or a number where a list
    # belongs, a value where a section belongs, or a string, a list or null
    # for an integer.  Each message names the key.
    for setting, key in (
            ("experiments.comm_range_m='25'", "experiments.comm_range_m"),
            ("experiments.max_volume.density_per_km='57'",
             "experiments.max_volume.density_per_km"),
            ("experiments.comm_range_m=250", "experiments.comm_range_m"),
            ("rates.rates_mbps=6", "rates.rates_mbps"),
            ("channel.mu_profile=[[0, 1]]", "channel.mu_profile[0]"),
            ("experiments.max_volume=5", "experiments.max_volume"),
            ("experiments.cluster_size=[1]", "experiments.cluster_size"),
            ("mobility=3", "mobility"),
            ("experiments.seeds=abc", "experiments.seeds"),
            ("experiments.seeds=[3]", "experiments.seeds"),
            ("experiments.seeds=null", "experiments.seeds")):
        for argv in (["validate-config"], ["throughput"]):
            assert main([*argv, "--set", setting, "--out", str(tmp_path)]) == 2
            assert f"'{key}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# Every real experiment setting but the cluster-size planning horizon set
# to infinity, each through a command it used to crash or to run with.
INFINITE_SETTINGS = [
    ("connection-time", "experiments.comm_range_m=[250,.inf]"),
    ("connection-time", "experiments.density_per_km=[5,.inf]"),
    ("connection-time", "experiments.safety_distance_m=.inf"),
    ("max-volume", "experiments.horizon_s=.inf"),
    ("connection-time", "experiments.connection_density_per_km=.inf"),
    ("cluster-size", "experiments.file_size_mb=[10,.inf]"),
    ("cluster-size", "experiments.fragment_mb=.inf"),
    ("throughput", "experiments.nominal_mac_rate_mbps=.inf"),
    ("max-volume", "experiments.success_fraction=.inf"),
    ("max-volume", "experiments.max_volume.density_per_km=[5,.inf]"),
    ("max-volume", "experiments.max_volume.comm_range_m=.inf"),
    ("max-volume", "experiments.max_volume.safety_distance_m=.inf"),
    ("max-volume", "experiments.max_volume.plan_margin_s=.inf"),
    ("cluster-size", "experiments.cluster_size.density_per_km=[5,.inf]"),
    ("cluster-size", "experiments.cluster_size.comm_range_m=.inf"),
    ("cluster-size", "experiments.cluster_size.safety_distance_m=.inf"),
]


@pytest.mark.parametrize("command,setting", INFINITE_SETTINGS,
                         ids=[s.split("=")[0] for _, s in INFINITE_SETTINGS])
def test_an_infinite_setting_exits_2(tmp_path, capsys, command, setting):
    key = setting.split("=")[0]
    for argv in (["validate-config"], [command, "--seeds", "1"]):
        assert main([*argv, "--set", setting, "--out", str(tmp_path)]) == 2
        assert f"'{key}' must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# Values that no rule outside experiments checked, and values no RNG stream
# could be keyed by, each through a command it crashed or ran to a wrong
# result with.  Each names its key, or its section for a rule across keys.
REJECTED_SETTINGS = [
    ("throughput", "mac.packet_kb=.inf", "mac.packet_kb"),
    ("rate-curve", "channel.noise_dbm=.inf", "channel.noise_dbm"),
    ("connection-time", "mobility.lane_length_km=.inf", "mobility.lane_length_km"),
    ("rate-curve", "channel.mu_profile=[]", "channel.mu_profile"),
    ("throughput", "mac.slot_us=0", "mac.slot_us"),
    ("rate-curve", "channel.tx_power_w=0", "channel.tx_power_w"),
    ("connection-time", "mobility.step_s=0", "mobility.step_s"),
    ("rate-curve", "rates.rates_mbps=[]", "rates.rates_mbps"),
    ("throughput", "mac.carrier_sense_factor=0", "mac.carrier_sense_factor"),
    ("rate-curve", "channel.tx_gain=-1", "channel.tx_gain"),
    ("rate-curve", "channel.tx_height_m=0", "channel.tx_height_m"),
    ("rate-curve", "channel.path_loss_exp=-4", "channel.path_loss_exp"),
    ("connection-time", "mobility.lane_width_m=0", "mobility.lane_width_m"),
    ("rate-curve", "channel.mu_profile=[[0, .inf, .inf]]", "channel.mu_profile[0][2]"),
    ("cluster-size", "experiments.cluster_size.comm_range_m=250.5",
     "experiments.cluster_size.comm_range_m"),
    ("capacity", "experiments.safety_distance_m=150.5",
     "experiments.safety_distance_m"),
    ("connection-time", "mobility.v_min_kmh=130", "mobility"),
    ("rate-curve", "rates.rates_mbps=[6, 9]", "rates"),
    ("rate-curve", "channel.mu_profile=[[10, .inf, 1.0]]", "channel"),
    ("rate-curve", "channel.mu_profile=[[0, 90.5, 1.0], [100, .inf, 0.84]]",
     "channel"),
]


@pytest.mark.parametrize("command,setting,name", REJECTED_SETTINGS,
                         ids=[s for _, s, _ in REJECTED_SETTINGS])
def test_a_rejected_setting_exits_2_naming_its_key(tmp_path, capsys, command,
                                                   setting, name):
    for argv in (["validate-config"], [command, "--seeds", "1"]):
        assert main([*argv, "--set", setting, "--out", str(tmp_path)]) == 2
        assert f"'{name}'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_runtime_errors_exit_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    rc = main(["throughput", "--out", str(blocker / "sub")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_max_volume_with_no_pair_in_range_exits_3(tmp_path, capsys):
    # A range below the lane separation leaves no request a holder.
    rc = main(["max-volume", "--set", "experiments.max_volume.comm_range_m=4",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "no oncoming contact" in capsys.readouterr().err


def test_validate_config_echoes_resolved_values(capsys):
    assert main(["validate-config"]) == 0
    out = capsys.readouterr().out
    assert "base_seed = 20240" in out
    assert main(["validate-config", "--set", "mobility.v_max_kmh=100"]) == 0
    assert "27.7" in capsys.readouterr().out    # 100 km/h in m/s
    assert main(["validate-config", "--seeds", "3"]) == 0
    out = capsys.readouterr().out
    for name in ("seeds", "max_volume_seeds", "max_volume_direct_seeds",
                 "cluster_seeds"):
        assert f"  {name} = 3\n" in out


def test_rate_curve_csv_decreases_within_fading_bands(tmp_path, capsys):
    assert main(["rate-curve", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "rate-curve.csv")
    assert header == ["distance_m", "expected_rate_bps"]
    curve = {float(d): float(r) for d, r in rows}
    # The fading-shape profile changes at 90.5 m and 230.7 m; the expected
    # rate falls with distance inside each band but may jump at the seams.
    bands = [(10, 90), (100, 230), (240, 580), (590, 600)]
    for lo, hi in bands:
        ds = [d for d in sorted(curve) if lo <= d <= hi]
        for a, b in zip(ds, ds[1:]):
            assert curve[b] <= curve[a]
    out = capsys.readouterr().out
    assert "wrote" in out and "rate-curve.csv" in out


def test_throughput_csv_is_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["throughput", "--out", str(out1)]) == 0
    assert main(["throughput", "--out", str(out2)]) == 0
    b1 = (out1 / "throughput.csv").read_bytes()
    assert b1 == (out2 / "throughput.csv").read_bytes()
    assert b1.startswith(b"density_per_km,comm_range_m,avg_throughput_bps\n")


def test_connection_time_run_with_overrides(tmp_path, capsys):
    rc = main(["connection-time", "--out", str(tmp_path), "--seeds", "2",
               "--set", "experiments.comm_range_m=[100, 250]"])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "connection-time.csv")
    assert header[:2] == ["comm_range_m", "density_per_km"]
    assert [float(r[0]) for r in rows] == [100.0, 250.0]
    assert all(int(r[4]) == 2 for r in rows)
    assert all(float(r[3]) > 0.0 for r in rows)
    out = capsys.readouterr().out
    assert out.count("connection-time:") == 2


def test_max_volume_runs_both_schemes(tmp_path):
    rc = main(["max-volume", "--out", str(tmp_path), "--seeds", "2",
               "--set", "experiments.max_volume.density_per_km=[5]"])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "max-volume.csv")
    assert header[0] == "scheme"
    assert [r[0] for r in rows] == ["direct", "cft"]
    direct_v, cft_v = (float(r[4]) for r in rows)
    assert direct_v > 0.0 and cft_v > 0.0
    assert [int(r[5]) for r in rows] == [2, 2]   # --seeds covers both schemes


# SHA-256 of each stochastic sweep's CSV at three seeds per grid point.
# The traffic, the metrics and the number format all feed these bytes, so
# a change meant to keep the output as it is must keep every digest; a
# change that moves one changes behaviour and says so.
GOLDEN_CSVS = {
    "max-volume":
        "e07c01ac7e43a4e6413f6d164a143b9dff58a6ccdec1bf6358f3e8ff6fae689c",
    "cluster-size":
        "9a45cd5704aef7671db1d8535a50c6123b540c1514b4126064429a714beb19b6",
    "connection-time":
        "e562373bd247ec7d01c583c17c74ebee2f14ab3426b4c2ae00cc9038c6ec6f33",
    "capacity":
        "82abbb6ad20455de0fe489ec5313c33316a76ccd90755f125d8444657852c5dc",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_CSVS))
def test_reduced_seed_csvs_keep_their_digests(tmp_path, command):
    assert main([command, "--seeds", "3", "--out", str(tmp_path)]) == 0
    csv = (tmp_path / f"{command}.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == GOLDEN_CSVS[command]
