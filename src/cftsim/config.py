"""Configuration loading and unit conversion.

Config files are YAML with sections mirroring the model modules.  Keys carry
unit suffixes in the conventions the scenario parameters are usually quoted
in (km/h, dBm, KB, us, MB); everything is converted to SI here at load time
so the rest of the package never sees mixed units.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
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


def _real(value, path: str) -> float:
    """value as a float; ConfigError naming path for a bool, a non-number
    or NaN.  An infinity is a number.

    YAML reads true/false as booleans, and float(True) would be 1.0.
    """
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if not math.isnan(number):
                return number
    raise ConfigError(f"config key '{path}' must be a number, got {value!r}")


class _Section(dict):
    """A config mapping that records the keys looked up in it.

    Every key is required: looking up a missing one is a ConfigError that
    names its dotted path.
    """

    def __init__(self, raw: dict, path: str = ""):
        super().__init__({k: _Section(v, f"{path}{k}.") if isinstance(v, dict)
                          else v for k, v in raw.items()})
        self.path = path
        self.read = set()

    def __getitem__(self, key):
        if key not in self:
            raise ConfigError(f"missing config key '{self.path}{key}'")
        self.read.add(key)
        return super().__getitem__(key)

    def integer(self, key):
        """The value at key, which must not be a float or a bool."""
        value = self[key]
        if isinstance(value, (bool, float)):
            raise ConfigError(
                f"config key '{self.path}{key}' must be an integer, got {value!r}")
        return int(value)

    def real(self, key):
        """The value at key as a float; a bool is not a number here."""
        return _real(self[key], f"{self.path}{key}")

    def reals(self, key):
        """The list at key as a tuple of floats, each checked as by real."""
        return tuple(_real(v, f"{self.path}{key}[{i}]")
                     for i, v in enumerate(self[key]))

    def unread(self):
        """Dotted paths of the keys nothing looked up."""
        for key, value in self.items():
            if key not in self.read:
                yield f"{self.path}{key}"
            elif isinstance(value, _Section):
                yield from value.unread()


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
        for name in ("seeds", "max_volume_seeds", "max_volume_direct_seeds",
                     "cluster_seeds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for name in ("base_seed", "warmup_steps", "max_volume_warmup_steps",
                     "cluster_warmup_steps", "max_volume_plan_margin_s"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative")
        if not 0.0 < self.success_fraction <= 1.0:
            raise ConfigError("success_fraction must be in (0, 1]")
        for name in ("comm_ranges_m", "densities_per_km", "file_sizes_bytes",
                     "max_volume_densities", "cluster_densities"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ConfigError(f"{name} must not be empty")
            # Rows and records are keyed by grid value.
            if len(set(grid)) != len(grid):
                raise ConfigError(f"{name} lists a value twice")
        for name in ("comm_ranges_m", "densities_per_km", "safety_distance_m",
                     "horizon_s", "connection_density_per_km",
                     "fragment_bytes", "nominal_mac_rate_bps",
                     "max_volume_densities", "max_volume_range_m", "max_volume_sd_m",
                     "cluster_densities", "cluster_range_m", "cluster_sd_m",
                     "cluster_horizon_s"):
            value = getattr(self, name)
            if min(value if isinstance(value, tuple) else (value,)) <= 0:
                raise ConfigError(f"{name} must be positive")
        # A max-volume trajectory records horizon_s of traffic.  The
        # cluster-size horizon only bounds planning and may be infinite.
        if math.isinf(self.horizon_s):
            raise ConfigError(
                "config key 'experiments.horizon_s' must be finite")


@dataclass(frozen=True)
class Config:
    """Fully resolved configuration in SI units."""

    channel: ChannelParams
    rates: RateTable
    mac_defaults: dict
    carrier_sense_factor: float
    mobility_defaults: dict
    experiments: ExperimentSettings

    def mobility(self, density_per_km: float,
                 safety_distance_m: float) -> MobilityConfig:
        return MobilityConfig(density_per_km=density_per_km,
                              safety_distance_m=safety_distance_m,
                              **self.mobility_defaults)

    def mac_for(self, comm_range_m: float, density_per_km: float) -> MacParams:
        return MacParams(rcs_m=self.carrier_sense_factor * comm_range_m,
                         rho_per_m=density_per_km / 1000.0,
                         **self.mac_defaults)

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
        mob = raw["mobility"]
        cha = raw["channel"]
        rat = raw["rates"]
        mac = raw["mac"]
        exp = raw["experiments"]

        mobility_defaults = {
            "lane_length_m": mob.real("lane_length_km") * 1000.0,
            "lane_width_m": mob.real("lane_width_m"),
            "lanes_per_direction": mob.integer("lanes_per_direction"),
            "v_min_mps": mob.real("v_min_kmh") / 3.6,
            "v_max_mps": mob.real("v_max_kmh") / 3.6,
            "accel_mps2": mob.real("accel_mps2"),
            "step_s": mob.real("step_s"),
        }

        def band(i, row):
            lo, hi, m = row
            at = f"channel.mu_profile[{i}]"
            hi = math.inf if hi in ("inf", ".inf", None) else _real(hi, f"{at}[1]")
            return (_real(lo, f"{at}[0]"), hi, _real(m, f"{at}[2]"))

        profile = tuple(band(i, row) for i, row in enumerate(cha["mu_profile"]))
        channel = ChannelParams(
            tx_power_w=cha.real("tx_power_w"),
            noise_w=watts_from_dbm(cha.real("noise_dbm")),
            tx_gain=cha.real("tx_gain"),
            rx_gain=cha.real("rx_gain"),
            tx_height_m=cha.real("tx_height_m"),
            rx_height_m=cha.real("rx_height_m"),
            path_loss_exp=cha.real("path_loss_exp"),
            system_loss=cha.real("system_loss"),
            mu_profile=profile,
        )

        rates = RateTable(
            rates_bps=tuple(r * 1e6 for r in rat.reals("rates_mbps")),
            thresholds_snr=rat.reals("thresholds_snr"),
        )

        mac_defaults = {
            "w": mac.integer("backoff_window"),
            "lp_bits": mac.real("packet_kb") * KB * 8.0,
            "t_slot_s": mac.real("slot_us") * 1e-6,
            "t_rts_s": mac.real("rts_us") * 1e-6,
            "t_cts_s": mac.real("cts_us") * 1e-6,
            "t_difs_s": mac.real("difs_us") * 1e-6,
            "t_sifs_s": mac.real("sifs_us") * 1e-6,
            "t_ack_s": mac.real("ack_us") * 1e-6,
        }
        cs_factor = mac.real("carrier_sense_factor")
        if cs_factor <= 0:
            raise ConfigError("carrier_sense_factor must be positive")

        mv = exp["max_volume"]
        cl = exp["cluster_size"]
        settings = ExperimentSettings(
            comm_ranges_m=exp.reals("comm_range_m"),
            densities_per_km=exp.reals("density_per_km"),
            safety_distance_m=exp.real("safety_distance_m"),
            seeds=exp.integer("seeds"),
            base_seed=exp.integer("base_seed"),
            warmup_steps=exp.integer("warmup_steps"),
            horizon_s=exp.real("horizon_s"),
            connection_density_per_km=exp.real("connection_density_per_km"),
            file_sizes_bytes=tuple(v * MB for v in exp.reals("file_size_mb")),
            fragment_bytes=exp.real("fragment_mb") * MB,
            nominal_mac_rate_bps=exp.real("nominal_mac_rate_mbps") * 1e6,
            success_fraction=exp.real("success_fraction"),
            max_volume_densities=mv.reals("density_per_km"),
            max_volume_range_m=mv.real("comm_range_m"),
            max_volume_sd_m=mv.real("safety_distance_m"),
            max_volume_warmup_steps=mv.integer("warmup_steps"),
            max_volume_seeds=mv.integer("seeds"),
            max_volume_direct_seeds=mv.integer("direct_seeds"),
            max_volume_plan_margin_s=mv.real("plan_margin_s"),
            cluster_densities=cl.reals("density_per_km"),
            cluster_range_m=cl.real("comm_range_m"),
            cluster_sd_m=cl.real("safety_distance_m"),
            cluster_warmup_steps=cl.integer("warmup_steps"),
            cluster_seeds=cl.integer("seeds"),
            cluster_horizon_s=cl.real("horizon_s"),
        )

        cfg = Config(
            channel=channel,
            rates=rates,
            mac_defaults=mac_defaults,
            carrier_sense_factor=cs_factor,
            mobility_defaults=mobility_defaults,
            experiments=settings,
        )
        # Instantiating one mobility and one MAC config exercises their
        # validation too.
        cfg.mobility(settings.densities_per_km[0], settings.safety_distance_m)
        cfg.mac_for(settings.comm_ranges_m[0], settings.densities_per_km[0])
        unknown = list(raw.unread())
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cfg
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid configuration: {e}") from e


def load_config(path: str | None = None, overrides: list[str] | None = None) -> Config:
    raw = load_raw(path)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return resolve(raw)


def _field_lines(params):
    """One "  name = value" line per dataclass field, tuples as lists."""
    for f in fields(params):
        v = getattr(params, f.name)
        v = list(v) if isinstance(v, tuple) else v
        yield f"  {f.name} = {format(v, '.6e' if f.name == 'noise_w' else '')}"


def describe(cfg: Config) -> str:
    """Human-readable echo of the resolved SI-unit parameters."""
    lines = [
        "mobility:",
        *(f"  {k} = {v}" for k, v in cfg.mobility_defaults.items()),
        "channel:",
        *_field_lines(cfg.channel),
        "rates:",
        f"  rates_bps = {list(cfg.rates.rates_bps)}",
        f"  thresholds_snr = {list(cfg.rates.thresholds_snr)}",
        "mac:",
        *(f"  {k} = {v}" for k, v in cfg.mac_defaults.items()),
        f"  carrier_sense_factor = {cfg.carrier_sense_factor}",
        "experiments:",
        *_field_lines(cfg.experiments),
    ]
    return "\n".join(lines)
