"""Config loading: unit conversion, overrides, validation, defaults."""

import dataclasses
import math

import pytest
import yaml

from cftsim.config import (KEYS, ConfigError, _integer, _reals,
                           apply_overrides, default_config_path, describe,
                           load_config, load_raw, resolve)

MB = 1_000_000.0


def test_default_config_resolves(default_cfg):
    d = default_cfg.mobility_defaults
    assert d["lane_length_m"] == 11_000.0
    assert d["lane_width_m"] == 5.0
    assert d["lanes_per_direction"] == 2
    assert d["v_min_mps"] == pytest.approx(60.0 / 3.6)
    assert d["v_max_mps"] == pytest.approx(120.0 / 3.6)
    assert d["accel_mps2"] == 2.0
    assert d["step_s"] == 1.0


def test_channel_and_rate_units(default_cfg):
    ch = default_cfg.channel
    assert ch.tx_power_w == 0.2
    assert ch.path_loss_exp == 4.0
    assert ch.noise_w == pytest.approx(10.0 ** (-12.6), rel=1e-12)
    assert ch.mu_profile[0] == (0.0, 90.5, 1.0)
    assert ch.mu_profile[-1][1] == math.inf
    assert default_cfg.rates.rates_bps == tuple(
        r * 1e6 for r in (6, 9, 12, 18, 24, 36, 48, 54))
    assert default_cfg.rates.thresholds_snr == \
        (0.03, 0.05, 0.08, 0.12, 0.18, 0.27, 0.40, 0.55)


def test_mac_units(default_cfg):
    m = default_cfg.mac_for(250.0, 5.0)
    assert m.w == 32
    assert m.lp_bits == pytest.approx(4.2 * 1024 * 8)
    assert m.t_slot_s == pytest.approx(13e-6)
    assert m.t_rts_s == pytest.approx(53e-6)
    assert m.t_cts_s == pytest.approx(37e-6)
    assert m.t_difs_s == pytest.approx(32e-6)
    assert m.t_sifs_s == pytest.approx(53e-6)
    assert m.t_ack_s == pytest.approx(37e-6)
    assert default_cfg.carrier_sense_factor == 1.0


def test_experiment_settings(default_cfg):
    e = default_cfg.experiments
    assert e.comm_ranges_m == (250, 300, 350, 400, 450, 500, 550, 600)
    assert e.densities_per_km == (5, 6, 7, 8, 9, 10)
    assert e.safety_distance_m == 150.0
    assert e.connection_density_per_km == 5.0
    assert (e.seeds, e.base_seed, e.warmup_steps) == (30, 20240, 15)
    assert e.horizon_s == 120.0
    assert e.file_sizes_bytes == tuple(v * MB for v in range(100, 1000, 100))
    assert e.fragment_bytes == MB
    assert e.nominal_mac_rate_bps == 8e6
    assert e.success_fraction == 0.5
    assert e.max_volume_range_m == 250.0
    assert e.max_volume_warmup_steps == 300
    assert (e.max_volume_seeds, e.max_volume_direct_seeds) == (100, 200)
    assert e.max_volume_plan_margin_s == 1.75
    assert e.cluster_densities == (5, 10)
    assert (e.cluster_seeds, e.cluster_horizon_s) == (100, 3600.0)
    assert e.cluster_warmup_steps == 300


def test_mobility_builder_accepts_density_and_sd(default_cfg):
    mcfg = default_cfg.mobility(7.0, 150.0)
    assert mcfg.density_per_km == 7.0
    assert mcfg.safety_distance_m == 150.0
    assert default_cfg.mobility(7.0, 80.0).safety_distance_m == 80.0


def test_mac_for_scales_sensing_with_range_and_density(default_cfg):
    params = default_cfg.mac_for(400.0, 8.0)
    assert params.rcs_m == 400.0 * default_cfg.carrier_sense_factor
    assert params.rho_per_m == pytest.approx(0.008)
    assert params.w == default_cfg.mac_defaults["w"]


def test_models_builder_wires_scope(default_cfg):
    m = default_cfg.models(300.0, 6.0)
    assert m.range_m == 300.0
    assert m.horizon_s == default_cfg.experiments.horizon_s
    assert m.ring_length_m == 11_000.0
    assert m.plan_margin_s == 0.0
    custom = default_cfg.models(250.0, 5.0, horizon_s=900.0, plan_margin_s=2.0)
    assert custom.horizon_s == 900.0
    assert custom.plan_margin_s == 2.0
    assert custom.mac.rho_per_m == pytest.approx(0.005)


def test_overrides_follow_dotted_paths():
    raw = {"a": {"b": 1}}
    apply_overrides(raw, ["a.b=2", "a.c.d=[1, 2]", "e=hi"])
    assert raw == {"a": {"b": 2, "c": {"d": [1, 2]}}, "e": "hi"}
    with pytest.raises(ConfigError):
        apply_overrides({}, ["missing-equals"])
    with pytest.raises(ConfigError):
        apply_overrides({"a": 5}, ["a.b=1"])     # traverses a scalar


def test_override_changes_a_resolved_value():
    cfg = load_config(overrides=["experiments.seeds=7",
                                 "mobility.v_max_kmh=100"])
    assert cfg.experiments.seeds == 7
    assert cfg.mobility_defaults["v_max_mps"] == pytest.approx(100.0 / 3.6)


def test_env_var_selects_the_config_file(tmp_path, monkeypatch):
    raw = load_raw()
    raw["experiments"]["base_seed"] = 777
    p = tmp_path / "alt.yaml"
    p.write_text(yaml.safe_dump(raw))
    monkeypatch.setenv("CFTSIM_CONFIG", str(p))
    assert default_config_path() == str(p)
    assert load_config().experiments.base_seed == 777


def test_config_error_cases(tmp_path):
    with pytest.raises(ConfigError):
        load_raw(str(tmp_path / "absent.yaml"))
    bad = tmp_path / "bad.yaml"
    bad.write_text("a: [unclosed\n")
    with pytest.raises(ConfigError):
        load_raw(str(bad))
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError):
        load_raw(str(listy))


@pytest.mark.parametrize("override", [
    "experiments.seeds=0",
    "experiments.max_volume.seeds=0",
    "experiments.success_fraction=0",
    "experiments.success_fraction=1.5",
    "experiments.comm_range_m=[]",
    "mac.carrier_sense_factor=0",
    # out-of-range values
    "experiments.warmup_steps=-5",
    "experiments.max_volume.warmup_steps=-1",
    "experiments.cluster_size.warmup_steps=-1",
    "experiments.horizon_s=0",
    "experiments.horizon_s=.inf",
    "experiments.cluster_size.horizon_s=0",
    "experiments.fragment_mb=0",
    "experiments.nominal_mac_rate_mbps=0",
    "experiments.comm_range_m=[250, 0]",
    "experiments.density_per_km=[-5]",
    "experiments.connection_density_per_km=0",
    "experiments.max_volume.comm_range_m=0",
    "experiments.max_volume.density_per_km=[0]",
    "experiments.cluster_size.comm_range_m=-250",
    "experiments.cluster_size.density_per_km=[5, 0]",
    "experiments.max_volume.plan_margin_s=-0.5",
    "experiments.base_seed=-1",
    "mac.backoff_window=0",
    "mac.slot_us=0",
    # a random acceleration bound that is negative or infinite
    "mobility.accel_mps2=-2",
    "mobility.accel_mps2=.inf",
    # integer keys given a float or a bool
    "experiments.seeds=2.7",
    "experiments.seeds=true",
    "mobility.lanes_per_direction=2.5",
    "mac.backoff_window=32.5",
    "experiments.warmup_steps=1.5",
    # float keys given a bool
    "experiments.horizon_s=true",
    "mac.slot_us=true",
    "experiments.comm_range_m=[true]",
    # a grid value given twice
    "experiments.comm_range_m=[250, 300, 250]",
    "experiments.file_size_mb=[100, 100.0]",
    "experiments.max_volume.density_per_km=[5, 5]",
    "experiments.cluster_size.density_per_km=[5, 10, 5]",
    # unknown keys: a misspelt key, a key beside a real one, a misspelt section
    "mobility.v_max_khm=100",
    "experiments.max_volume.seed=3",
    "chanel.noise_dbm=-90",
    # keys that were removed
    "experiments.snapshots=0",
    "experiments.snapshot_stride_s=0",
    # a string or a number where a list belongs
    "experiments.comm_range_m='25'",
    "experiments.max_volume.density_per_km='57'",
    "experiments.comm_range_m=250",
    "rates.rates_mbps=6",
    "rates.thresholds_snr='0.5'",
    "channel.mu_profile=5",
    # a mu_profile band of the wrong length or shape
    "channel.mu_profile=[[0, 1]]",
    "channel.mu_profile=[5]",
    # a value where a section belongs
    "experiments.max_volume=5",
    "experiments.cluster_size=[1]",
    "mobility=3",
    # integer keys given a string, a list or null
    "experiments.seeds=abc",
    "experiments.seeds=[3]",
    "experiments.seeds=null",
    # model values that are infinite, empty, not positive or out of range
    "mac.packet_kb=.inf",
    "channel.noise_dbm=.inf",
    "mobility.lane_length_km=.inf",
    "channel.mu_profile=[]",
    "channel.tx_power_w=0",
    "mobility.step_s=0",
    "rates.rates_mbps=[]",
    "channel.tx_gain=-1",
    "channel.tx_height_m=0",
    "channel.path_loss_exp=-4",
    "mobility.lane_width_m=0",
    # mu_profile band values: lo, hi and mu out of range
    "channel.mu_profile=[[-1, .inf, 1.0]]",
    "channel.mu_profile=[[.inf, .inf, 1.0]]",
    "channel.mu_profile=[[5, 5, 1.0]]",
    "channel.mu_profile=[[0, .inf, 0]]",
    "channel.mu_profile=[[0, .inf, .inf]]",
    # values that cannot key an RNG stream
    "experiments.cluster_size.comm_range_m=250.5",
    "experiments.safety_distance_m=150.5",
    "experiments.max_volume.density_per_km=[5, 5.0001]",
    "experiments.connection_density_per_km=7.0005",
    # rules across the keys of a section
    "mobility.v_min_kmh=130",
    "rates.rates_mbps=[6, 9]",
])
def test_invalid_values_are_config_errors(override):
    with pytest.raises(ConfigError):
        load_config(overrides=[override])


# The declared keys whose kind lets 0 through; every other key must be
# positive (or, for a count, at least 1).
ZERO_KEYS = {"mobility.v_min_kmh", "mobility.v_max_kmh", "mobility.accel_mps2",
             "channel.noise_dbm", "experiments.base_seed",
             "experiments.warmup_steps", "experiments.max_volume.warmup_steps",
             "experiments.cluster_size.warmup_steps",
             "experiments.max_volume.plan_margin_s"}


def test_every_declared_key_is_shipped_and_checked_by_its_kind():
    # KEYS declares each key of the five sections once, with its SI name
    # and kind.  The declared keys are the shipped file's leaf keys.  Each
    # one rejects an infinity, naming its key, but the cluster-size planning
    # horizon, and each one but ZERO_KEYS rejects 0.  mu_profile is read
    # band by band, with a kind per band value: its cases are below.
    declared = {f"{section}.{key}": kind for section, keys in KEYS.items()
                for key, kind in keys.values()}
    assert set(declared) == set(_leaf_paths(load_raw()))
    del declared["channel.mu_profile"]
    for path, kind in declared.items():
        listed = kind.read is _reals
        if path == "experiments.cluster_size.horizon_s":
            cfg = load_config(overrides=[f"{path}=.inf"])
            assert math.isinf(cfg.experiments.cluster_horizon_s)
        else:
            with pytest.raises(ConfigError) as info:
                load_config(overrides=[f"{path}={'[5, .inf]' if listed else '.inf'}"])
            must = "be an integer" if kind.read is _integer else "be finite"
            assert f"'{path}' must {must}" in str(info.value)
        zero = "[0]" if listed else "0"
        if path in ZERO_KEYS:
            assert kind.ok(kind.scale(0))
        else:
            with pytest.raises(ConfigError) as info:
                load_config(overrides=[f"{path}={zero}"])
            assert f"'{path}' must" in str(info.value)


@pytest.mark.parametrize("override,path", [
    ("mobility.step_s=nan", "mobility.step_s"),
    ("mobility.accel_mps2=.nan", "mobility.accel_mps2"),
    ("mac.slot_us=nan", "mac.slot_us"),
    ("experiments.comm_range_m=[250, .nan]", "experiments.comm_range_m[1]"),
    ("channel.mu_profile=[[0, .nan, 1.0]]", "channel.mu_profile[0][1]"),
    ("channel.mu_profile=[[0, .inf, .nan]]", "channel.mu_profile[0][2]"),
])
def test_nan_values_are_config_errors_naming_their_key(override, path):
    # Every comparison with NaN is false, so no range check would catch it.
    with pytest.raises(ConfigError) as info:
        load_config(overrides=[override])
    assert f"'{path}'" in str(info.value)


@pytest.mark.parametrize("override,path", [
    ("experiments.comm_range_m='25'", "experiments.comm_range_m"),
    ("experiments.max_volume.density_per_km='57'",
     "experiments.max_volume.density_per_km"),
    ("experiments.comm_range_m=250", "experiments.comm_range_m"),
    ("rates.rates_mbps=6", "rates.rates_mbps"),
    ("rates.thresholds_snr='0.5'", "rates.thresholds_snr"),
    ("channel.mu_profile=5", "channel.mu_profile"),
    ("channel.mu_profile=[[0, .inf, 1.0], [0, 1]]", "channel.mu_profile[1]"),
    ("channel.mu_profile=[5]", "channel.mu_profile[0]"),
    ("experiments.max_volume=5", "experiments.max_volume"),
    ("experiments.cluster_size=[1]", "experiments.cluster_size"),
    ("mobility=3", "mobility"),
    ("experiments.seeds=abc", "experiments.seeds"),
    ("experiments.seeds=[3]", "experiments.seeds"),
    ("experiments.seeds=null", "experiments.seeds"),
    ("mac.packet_kb=.inf", "mac.packet_kb"),
    ("channel.noise_dbm=.inf", "channel.noise_dbm"),
    ("mobility.lane_length_km=.inf", "mobility.lane_length_km"),
    ("channel.mu_profile=[]", "channel.mu_profile"),
    ("mac.slot_us=0", "mac.slot_us"),
    ("channel.tx_power_w=0", "channel.tx_power_w"),
    ("mobility.step_s=0", "mobility.step_s"),
    ("rates.rates_mbps=[]", "rates.rates_mbps"),
    ("mac.carrier_sense_factor=0", "mac.carrier_sense_factor"),
    ("channel.tx_gain=-1", "channel.tx_gain"),
    ("channel.tx_height_m=0", "channel.tx_height_m"),
    ("channel.path_loss_exp=-4", "channel.path_loss_exp"),
    ("mobility.lane_width_m=0", "mobility.lane_width_m"),
    ("channel.mu_profile=[[-1, .inf, 1.0]]", "channel.mu_profile[0][0]"),
    ("channel.mu_profile=[[.inf, .inf, 1.0]]", "channel.mu_profile[0][0]"),
    ("channel.mu_profile=[[0, 90.5, 1.0], [90.5, 90.5, 1.0]]",
     "channel.mu_profile[1][1]"),
    ("channel.mu_profile=[[0, .inf, 0]]", "channel.mu_profile[0][2]"),
    ("channel.mu_profile=[[0, .inf, .inf]]", "channel.mu_profile[0][2]"),
    ("experiments.cluster_size.comm_range_m=250.5",
     "experiments.cluster_size.comm_range_m"),
    ("experiments.safety_distance_m=150.5", "experiments.safety_distance_m"),
    ("experiments.max_volume.density_per_km=[5, 5.0001]",
     "experiments.max_volume.density_per_km"),
    ("experiments.connection_density_per_km=7.0005",
     "experiments.connection_density_per_km"),
    # An integer past the largest float is not a number.
    (f"mobility.step_s=1{'0' * 309}", "mobility.step_s"),
    # A rule across keys names the section.
    ("mobility.v_min_kmh=130", "mobility"),
    ("rates.rates_mbps=[6, 9]", "rates"),
])
def test_misshapen_values_are_config_errors_naming_their_key(override, path):
    # A string is iterable, so a list reader would split it into characters.
    # Every value a kind rejects is named by its key too.
    with pytest.raises(ConfigError) as info:
        load_config(overrides=[override])
    assert f"'{path}'" in str(info.value)


def test_infinite_values_are_numbers():
    cfg = load_config(overrides=["channel.mu_profile=[[0, .inf, 1.0]]",
                                 "experiments.cluster_size.horizon_s=.inf"])
    assert cfg.channel.mu_profile == ((0.0, math.inf, 1.0),)
    assert cfg.experiments.cluster_horizon_s == math.inf


def _leaf_paths(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


@pytest.mark.parametrize("path", list(_leaf_paths(load_raw())))
def test_every_leaf_key_is_required(path):
    raw = load_raw()
    *sections, leaf = path.split(".")
    node = raw
    for section in sections:
        node = node[section]
    del node[leaf]
    with pytest.raises(ConfigError) as info:
        resolve(raw)
    assert f"'{path}'" in str(info.value)


def test_missing_sections_are_config_errors():
    raw = load_raw()
    del raw["channel"]
    with pytest.raises(ConfigError):
        resolve(raw)
    raw2 = load_raw()
    del raw2["mac"]["backoff_window"]
    with pytest.raises(ConfigError):
        resolve(raw2)


def test_describe_echoes_resolved_parameters(default_cfg):
    text = describe(default_cfg)
    assert "lane_length_m = 11000.0" in text
    assert "noise_w = 2.511886e-13" in text
    assert "base_seed = 20240" in text
    assert "success_fraction = 0.5" in text
    for params in (default_cfg.channel, default_cfg.experiments):
        for f in dataclasses.fields(params):
            assert f"  {f.name} = " in text
    assert "\n".join([
        "mac:",
        "  w = 32",
        "  lp_bits = 34406.4",
        "  t_slot_s = 1.3e-05",
        "  t_rts_s = 5.3e-05",
        "  t_cts_s = 3.7e-05",
        "  t_difs_s = 3.2e-05",
        "  t_sifs_s = 5.3e-05",
        "  t_ack_s = 3.7e-05",
        "  carrier_sense_factor = 1.0",
        "experiments:",
    ]) in text
    assert "rcs_m" not in text and "rho_per_m" not in text
