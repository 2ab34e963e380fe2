"""Configuration loading and unit conversion.

Config files are YAML with sections mirroring the model modules.  Keys carry
unit suffixes in the conventions the scenario parameters are usually quoted
in (km/h, dBm, KB, us, MB); everything is converted to SI here at load time
so the rest of the package never sees mixed units.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from importlib import resources

import yaml

from .channel import ChannelParams, RateTable, watts_from_dbm
from .mac import MacParams
from .mobility import MobilityConfig
from .protocol import Models

ENV_CONFIG = "CFTSIM_CONFIG"

KB = 1024.0          # packet sizes
MB = 1_000_000.0     # file sizes


class ConfigError(Exception):
    """Invalid or unreadable configuration."""


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing key '{key}' in section '{where}'")
    return section[key]


class _Section(dict):
    """A config mapping that records the keys looked up in it."""

    def __init__(self, raw: dict):
        super().__init__({k: _Section(v) if isinstance(v, dict) else v
                          for k, v in raw.items()})
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        return self[key] if key in self else default

    def unread(self, prefix: str = ""):
        """Dotted paths of the keys nothing looked up."""
        for key, value in self.items():
            if key not in self.read:
                yield prefix + str(key)
            elif isinstance(value, _Section):
                yield from value.unread(f"{prefix}{key}.")


@dataclass(frozen=True)
class ExperimentSettings:
    """Sweep grids and run-scale knobs for the experiment suite."""

    comm_ranges_m: tuple
    densities_per_km: tuple
    safety_distance_m: float
    seeds: int
    base_seed: int
    warmup_steps: int
    horizon_s: float
    snapshots: int
    snapshot_stride_s: float
    connection_density_per_km: float
    file_sizes_bytes: tuple
    fragment_bytes: float
    nominal_mac_rate_bps: float
    success_fraction: float
    max_volume_densities: tuple
    max_volume_range_m: float
    max_volume_sd_m: float
    max_volume_warmup_steps: int
    max_volume_seeds: int
    max_volume_direct_seeds: int
    max_volume_plan_margin_s: float
    cluster_densities: tuple
    cluster_range_m: float
    cluster_sd_m: float
    cluster_warmup_steps: int
    cluster_seeds: int
    cluster_horizon_s: float

    def __post_init__(self):
        if (self.seeds < 1 or self.max_volume_seeds < 1
                or self.max_volume_direct_seeds < 1 or self.cluster_seeds < 1):
            raise ConfigError("seed counts must be at least 1")
        if not 0.0 < self.success_fraction <= 1.0:
            raise ConfigError("success_fraction must be in (0, 1]")
        for name in ("comm_ranges_m", "densities_per_km", "file_sizes_bytes",
                     "max_volume_densities", "cluster_densities"):
            if len(getattr(self, name)) == 0:
                raise ConfigError(f"{name} must not be empty")


@dataclass(frozen=True)
class Config:
    """Fully resolved configuration in SI units."""

    channel: ChannelParams
    rates: RateTable
    mac_base: MacParams
    carrier_sense_factor: float
    mobility_defaults: dict
    experiments: ExperimentSettings

    def mobility(self, density_per_km: float,
                 safety_distance_m: float | None = None) -> MobilityConfig:
        return MobilityConfig(
            density_per_km=density_per_km,
            safety_distance_m=(self.experiments.safety_distance_m
                               if safety_distance_m is None else safety_distance_m),
            **self.mobility_defaults,
        )

    def mac_for(self, comm_range_m: float, density_per_km: float) -> MacParams:
        return replace(self.mac_base,
                       rcs_m=self.carrier_sense_factor * comm_range_m,
                       rho_per_m=density_per_km / 1000.0)

    def models(self, comm_range_m: float, density_per_km: float,
               horizon_s: float | None = None,
               plan_margin_s: float = 0.0) -> Models:
        return Models(
            channel=self.channel,
            rates=self.rates,
            mac=self.mac_for(comm_range_m, density_per_km),
            range_m=comm_range_m,
            horizon_s=self.experiments.horizon_s if horizon_s is None else horizon_s,
            ring_length_m=self.mobility_defaults["lane_length_m"],
            plan_margin_s=plan_margin_s,
        )


def default_config_path() -> str:
    env = os.environ.get(ENV_CONFIG)
    if env:
        return env
    return str(resources.files("cftsim").joinpath("data/default.yaml"))


def load_raw(path: str | None = None) -> dict:
    """Read the YAML document, without resolving units."""
    p = path or default_config_path()
    try:
        with open(p, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file {p}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"cannot parse config file {p}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    return raw


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply dotted key=value overrides, values parsed as YAML scalars."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not of the form key=value")
        key, value = item.split("=", 1)
        node = raw
        parts = key.strip().split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override '{key}' traverses a non-mapping node")
        try:
            node[parts[-1]] = yaml.safe_load(value)
        except yaml.YAMLError as e:
            raise ConfigError(f"cannot parse override value '{value}': {e}") from e
    return raw


def resolve(raw: dict) -> Config:
    """Convert a raw config document to typed SI-unit objects.

    A key this function never reads is a ConfigError.
    """
    raw = _Section(raw)
    try:
        mob = _require(raw, "mobility", "root")
        cha = _require(raw, "channel", "root")
        rat = _require(raw, "rates", "root")
        mac = _require(raw, "mac", "root")
        exp = _require(raw, "experiments", "root")

        mobility_defaults = {
            "lane_length_m": float(_require(mob, "lane_length_km", "mobility")) * 1000.0,
            "lane_width_m": float(_require(mob, "lane_width_m", "mobility")),
            "lanes_per_direction": int(_require(mob, "lanes_per_direction", "mobility")),
            "v_min_mps": float(_require(mob, "v_min_kmh", "mobility")) / 3.6,
            "v_max_mps": float(_require(mob, "v_max_kmh", "mobility")) / 3.6,
            "accel_mps2": float(_require(mob, "accel_mps2", "mobility")),
            "step_s": float(mob.get("step_s", 1.0)),
        }

        profile = tuple(
            (float(lo), math.inf if hi in ("inf", ".inf", None) else float(hi), float(m))
            for lo, hi, m in _require(cha, "mu_profile", "channel")
        )
        channel = ChannelParams(
            tx_power_w=float(_require(cha, "tx_power_w", "channel")),
            tx_gain=float(cha.get("tx_gain", 1.0)),
            rx_gain=float(cha.get("rx_gain", 1.0)),
            tx_height_m=float(cha.get("tx_height_m", 1.0)),
            rx_height_m=float(cha.get("rx_height_m", 1.0)),
            path_loss_exp=float(_require(cha, "path_loss_exp", "channel")),
            system_loss=float(cha.get("system_loss", 1.0)),
            noise_w=watts_from_dbm(float(_require(cha, "noise_dbm", "channel"))),
            mu_profile=profile,
        )

        rates = RateTable(
            rates_bps=tuple(float(r) * 1e6 for r in _require(rat, "rates_mbps", "rates")),
            thresholds_snr=tuple(float(t) for t in _require(rat, "thresholds_snr", "rates")),
        )

        mac_base = MacParams(
            w=int(_require(mac, "backoff_window", "mac")),
            lp_bits=float(_require(mac, "packet_kb", "mac")) * KB * 8.0,
            t_slot_s=float(_require(mac, "slot_us", "mac")) * 1e-6,
            t_rts_s=float(_require(mac, "rts_us", "mac")) * 1e-6,
            t_cts_s=float(_require(mac, "cts_us", "mac")) * 1e-6,
            t_difs_s=float(_require(mac, "difs_us", "mac")) * 1e-6,
            t_sifs_s=float(_require(mac, "sifs_us", "mac")) * 1e-6,
            t_ack_s=float(_require(mac, "ack_us", "mac")) * 1e-6,
        )
        cs_factor = float(mac.get("carrier_sense_factor", 1.0))
        if cs_factor <= 0:
            raise ConfigError("carrier_sense_factor must be positive")

        mv = exp.get("max_volume", {})
        cl = exp.get("cluster_size", {})
        settings = ExperimentSettings(
            comm_ranges_m=tuple(float(r) for r in _require(exp, "comm_range_m", "experiments")),
            densities_per_km=tuple(float(d) for d in _require(exp, "density_per_km", "experiments")),
            safety_distance_m=float(_require(exp, "safety_distance_m", "experiments")),
            seeds=int(exp.get("seeds", 30)),
            base_seed=int(exp.get("base_seed", 20240)),
            warmup_steps=int(exp.get("warmup_steps", 300)),
            horizon_s=float(exp.get("horizon_s", 120.0)),
            snapshots=int(exp.get("snapshots", 5)),
            snapshot_stride_s=float(exp.get("snapshot_stride_s", 30.0)),
            connection_density_per_km=float(exp.get("connection_density_per_km", 5)),
            file_sizes_bytes=tuple(float(v) * MB for v in _require(exp, "file_size_mb", "experiments")),
            fragment_bytes=float(exp.get("fragment_mb", 1.0)) * MB,
            nominal_mac_rate_bps=float(_require(exp, "nominal_mac_rate_mbps", "experiments")) * 1e6,
            success_fraction=float(exp.get("success_fraction", 0.95)),
            max_volume_densities=tuple(float(d) for d in mv.get("density_per_km", exp["density_per_km"])),
            max_volume_range_m=float(mv.get("comm_range_m", 250.0)),
            max_volume_sd_m=float(mv.get("safety_distance_m", exp["safety_distance_m"])),
            max_volume_warmup_steps=int(mv.get("warmup_steps", exp.get("warmup_steps", 300))),
            max_volume_seeds=int(mv.get("seeds", exp.get("seeds", 30))),
            max_volume_direct_seeds=int(mv.get("direct_seeds",
                                               mv.get("seeds", exp.get("seeds", 30)))),
            max_volume_plan_margin_s=float(mv.get("plan_margin_s", 0.0)),
            cluster_densities=tuple(float(d) for d in cl.get("density_per_km", exp["density_per_km"])),
            cluster_range_m=float(cl.get("comm_range_m", 250.0)),
            cluster_sd_m=float(cl.get("safety_distance_m", exp["safety_distance_m"])),
            cluster_warmup_steps=int(cl.get("warmup_steps", exp.get("warmup_steps", 300))),
            cluster_seeds=int(cl.get("seeds", exp.get("seeds", 30))),
            cluster_horizon_s=float(cl.get("horizon_s", exp.get("horizon_s", 120.0))),
        )

        cfg = Config(
            channel=channel,
            rates=rates,
            mac_base=mac_base,
            carrier_sense_factor=cs_factor,
            mobility_defaults=mobility_defaults,
            experiments=settings,
        )
        # Instantiating one mobility config exercises its validation too.
        cfg.mobility(settings.densities_per_km[0])
        unknown = list(raw.unread())
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cfg
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as e:
        raise ConfigError(f"invalid configuration: {e}") from e


def load_config(path: str | None = None, overrides: list[str] | None = None) -> Config:
    raw = load_raw(path)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return resolve(raw)


def describe(cfg: Config) -> str:
    """Human-readable echo of the resolved SI-unit parameters."""
    e = cfg.experiments
    lines = [
        "mobility:",
        *(f"  {k} = {v}" for k, v in cfg.mobility_defaults.items()),
        "channel:",
        f"  tx_power_w = {cfg.channel.tx_power_w}",
        f"  noise_w = {cfg.channel.noise_w:.6e}",
        f"  path_loss_exp = {cfg.channel.path_loss_exp}",
        f"  mu_profile = {list(cfg.channel.mu_profile)}",
        "rates:",
        f"  rates_bps = {list(cfg.rates.rates_bps)}",
        f"  thresholds_snr = {list(cfg.rates.thresholds_snr)}",
        "mac:",
        f"  w = {cfg.mac_base.w}",
        f"  lp_bits = {cfg.mac_base.lp_bits}",
        f"  t_slot_s = {cfg.mac_base.t_slot_s}",
        f"  t_rts_s = {cfg.mac_base.t_rts_s}",
        f"  t_cts_s = {cfg.mac_base.t_cts_s}",
        f"  t_difs_s = {cfg.mac_base.t_difs_s}",
        f"  t_sifs_s = {cfg.mac_base.t_sifs_s}",
        f"  t_ack_s = {cfg.mac_base.t_ack_s}",
        f"  carrier_sense_factor = {cfg.carrier_sense_factor}",
        "experiments:",
    ]
    for f in fields(e):
        v = getattr(e, f.name)
        lines.append(f"  {f.name} = {list(v) if isinstance(v, tuple) else v}")
    return "\n".join(lines)
