"""Configuration loading and unit conversion.

Config files are YAML with sections mirroring the model modules.  Keys carry
unit suffixes in the conventions the scenario parameters are usually quoted
in (km/h, dBm, KB, us, MB); everything is converted to SI here at load time
so the rest of the package never sees mixed units.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
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


def _list(value, path: str, length: int | None = None) -> list:
    """value, which must be a list (of length items, when length is given);
    else a ConfigError naming path."""
    if isinstance(value, list) and length in (None, len(value)):
        return value
    what = "a list" if length is None else f"a list of {length}"
    raise ConfigError(f"config key '{path}' must be {what}, got {value!r}")


class _Section(dict):
    """A config mapping that records the keys looked up in it.

    Every key is required: looking up a missing one is a ConfigError that
    names its dotted path, and so is a value of the wrong shape.
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

    def section(self, key):
        """The mapping at key."""
        value = self[key]
        if not isinstance(value, _Section):
            raise ConfigError(f"config key '{self.path}{key}' must be a "
                              f"section of keys, got {value!r}")
        return value

    def integer(self, key):
        """The int at key: not a float, a bool, a string, a list or null."""
        value = self[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(
                f"config key '{self.path}{key}' must be an integer, got {value!r}")
        return value

    def real(self, key):
        """The value at key as a float; a bool is not a number here."""
        return _real(self[key], f"{self.path}{key}")

    def reals(self, key):
        """The list at key as a tuple of floats, each checked as by real."""
        path = f"{self.path}{key}"
        return tuple(_real(v, f"{path}[{i}]")
                     for i, v in enumerate(_list(self[key], path)))

    def unread(self):
        """Dotted paths of the keys nothing looked up."""
        for key, value in self.items():
            if key not in self.read:
                yield f"{self.path}{key}"
            elif isinstance(value, _Section):
                yield from value.unread()


@dataclass(frozen=True)
class Kind:
    """How an experiments setting is read, scaled to SI and checked."""

    read: str           # the _Section reader: "real", "reals" or "integer"
    ok: Callable        # the rule every value must meet, and...
    rule: str           # ...that rule in words, after "must"
    scale: float = 1    # config unit to SI; an int times 1 stays an int
    finite: bool = True


# A grid is a list of distinct values: rows and records are keyed by them.
GRID = Kind("reals", lambda v: v > 0, "be positive")
GRID_MB = replace(GRID, scale=MB)
POSITIVE = replace(GRID, read="real")
POSITIVE_MB = replace(POSITIVE, scale=MB)
POSITIVE_MBPS = replace(POSITIVE, scale=1e6)
SEED_COUNT = Kind("integer", lambda v: v >= 1, "be at least 1")
COUNT = Kind("integer", lambda v: v >= 0, "not be negative")   # steps, base seed
PLAN_MARGIN = replace(COUNT, read="real")
FRACTION = Kind("real", lambda v: 0 < v <= 1, "be in (0, 1]")
# Only bounds planning, so unlike every other real setting it does not size
# a fleet, a grid, a file or a recorded trajectory.
PLANNING_HORIZON = replace(POSITIVE, finite=False)


def _setting(key: str, kind: Kind):
    """A field read from experiments.<key>, a dotted path."""
    return field(metadata={"key": key, "kind": kind})


@dataclass(frozen=True)
class ExperimentSettings:
    """Sweep grids and run-scale knobs for the experiment suite.

    Each field declares its config key under experiments and its kind;
    resolve reads and __post_init__ checks every field by them.
    """

    comm_ranges_m: tuple = _setting("comm_range_m", GRID)
    densities_per_km: tuple = _setting("density_per_km", GRID)
    safety_distance_m: float = _setting("safety_distance_m", POSITIVE)
    seeds: int = _setting("seeds", SEED_COUNT)
    base_seed: int = _setting("base_seed", COUNT)
    warmup_steps: int = _setting("warmup_steps", COUNT)
    horizon_s: float = _setting("horizon_s", POSITIVE)
    connection_density_per_km: float = _setting("connection_density_per_km", POSITIVE)
    file_sizes_bytes: tuple = _setting("file_size_mb", GRID_MB)
    fragment_bytes: float = _setting("fragment_mb", POSITIVE_MB)
    nominal_mac_rate_bps: float = _setting("nominal_mac_rate_mbps", POSITIVE_MBPS)
    success_fraction: float = _setting("success_fraction", FRACTION)
    max_volume_densities: tuple = _setting("max_volume.density_per_km", GRID)
    max_volume_range_m: float = _setting("max_volume.comm_range_m", POSITIVE)
    max_volume_sd_m: float = _setting("max_volume.safety_distance_m", POSITIVE)
    max_volume_warmup_steps: int = _setting("max_volume.warmup_steps", COUNT)
    max_volume_seeds: int = _setting("max_volume.seeds", SEED_COUNT)
    max_volume_direct_seeds: int = _setting("max_volume.direct_seeds", SEED_COUNT)
    max_volume_plan_margin_s: float = _setting("max_volume.plan_margin_s", PLAN_MARGIN)
    cluster_densities: tuple = _setting("cluster_size.density_per_km", GRID)
    cluster_range_m: float = _setting("cluster_size.comm_range_m", POSITIVE)
    cluster_sd_m: float = _setting("cluster_size.safety_distance_m", POSITIVE)
    cluster_warmup_steps: int = _setting("cluster_size.warmup_steps", COUNT)
    cluster_seeds: int = _setting("cluster_size.seeds", SEED_COUNT)
    cluster_horizon_s: float = _setting("cluster_size.horizon_s", PLANNING_HORIZON)

    def __post_init__(self):
        for f in fields(self):
            kind, value = f.metadata["kind"], getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            for broken, must in (
                    (kind.finite and math.inf in map(abs, values), "be finite"),
                    (not values, "not be empty"),
                    (len(set(values)) != len(values), "not list a value twice"),
                    (not all(map(kind.ok, values)), kind.rule)):
                if broken:
                    raise ConfigError(f"config key 'experiments."
                                      f"{f.metadata['key']}' must {must}")


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
        mob = raw.section("mobility")
        cha = raw.section("channel")
        rat = raw.section("rates")
        mac = raw.section("mac")
        exp = raw.section("experiments")

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
            at = f"channel.mu_profile[{i}]"
            lo, hi, m = _list(row, at, 3)
            hi = math.inf if hi in ("inf", ".inf", None) else _real(hi, f"{at}[1]")
            return (_real(lo, f"{at}[0]"), hi, _real(m, f"{at}[2]"))

        profile = tuple(band(i, row) for i, row in
                        enumerate(_list(cha["mu_profile"], "channel.mu_profile")))
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

        values = {}
        for f in fields(ExperimentSettings):
            *sections, key = f.metadata["key"].split(".")
            kind = f.metadata["kind"]
            value = getattr(functools.reduce(_Section.section, sections, exp),
                            kind.read)(key)
            values[f.name] = (tuple(v * kind.scale for v in value)
                              if kind.read == "reals" else value * kind.scale)
        settings = ExperimentSettings(**values)

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
