"""Configuration loading and unit conversion.

Config files are YAML with sections mirroring the model modules.  Keys carry
unit suffixes in the conventions the scenario parameters are usually quoted
in (km/h, dBm, KB, us, MB); everything is converted to SI here at load time
so the rest of the package never sees mixed units.
"""

from __future__ import annotations

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
# Densities key RNG streams in 1/DENSITY_KEY_SCALE veh/km, lengths in metres.
DENSITY_KEY_SCALE = 1000


class ConfigError(Exception):
    """Invalid or unreadable configuration."""


def _whole(value: float, scale: int) -> bool:
    """Whether value is a whole multiple of 1/scale, to rounding error."""
    scaled = value * scale
    return math.isclose(scaled, round(scaled), rel_tol=1e-9, abs_tol=1e-9)


def seed_key(value: float, scale: int = 1) -> int:
    """RNG key of a grid value in units of 1/scale; ValueError unless whole."""
    if not _whole(value, scale):
        raise ValueError(f"{value} is not a whole multiple of 1/{scale}")
    return round(value * scale)


def _real(value, path: str) -> float:
    """value as a float; ConfigError naming path for a bool, a non-number
    or NaN.  An infinity is a number.

    YAML reads true/false as booleans, and float(True) would be 1.0.
    """
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):   # an int past float
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


def _integer(value, path: str) -> int:
    """value, which must be an int, not a float, a bool, a string, a list
    or null; else a ConfigError naming path."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key '{path}' must be an integer, got {value!r}")
    return value


def _reals(value, path: str) -> tuple:
    """The list value as a tuple of floats, each checked as by _real."""
    return tuple(_real(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path)))


def _bands(value, path: str) -> tuple:
    """The list value as a tuple of (lo, hi, mu) bands: each value read and
    checked by its BAND kind, hi above lo, and a null hi infinite."""
    bands = []
    for i, row in enumerate(_list(value, path)):
        at = f"{path}[{i}]"
        lo, hi, mu = _list(row, at, 3)
        band = tuple(_value(v, f"{at}[{k}]", kind) for k, (v, kind) in enumerate(
            zip((lo, math.inf if hi in (".inf", None) else hi, mu), BAND)))
        if band[1] <= band[0]:
            raise ConfigError(f"config key '{at}[1]' must be above {at}[0]")
        bands.append(band)
    return tuple(bands)


@dataclass(frozen=True)
class Kind:
    """How a config key is read, converted to SI and checked."""

    read: Callable      # (value, dotted path) -> a number or a tuple of them
    ok: Callable        # the rule every SI value must meet, and...
    rule: str           # ...that rule in words, after "must"
    scale: Callable = lambda v: v   # config unit to SI, one value at a time
    finite: bool = True


def _value(value, path: str, kind: Kind):
    """value, of the key at path, read, converted to SI and checked by
    kind; else a ConfigError naming path."""
    read = kind.read(value, path)
    values = read if isinstance(read, tuple) else (read,)
    try:
        si = tuple(map(kind.scale, values))
    except OverflowError:       # 10.0 ** x, for x from a huge dBm
        si = (math.inf,)
    if not si:
        must = "not be empty"
    elif kind.finite and math.inf in map(abs, si):
        must = "be finite"
    elif len(set(si)) != len(si):
        must = "not list a value twice"
    elif not all(map(kind.ok, si)):
        must = kind.rule
    else:
        return si if isinstance(read, tuple) else si[0]
    raise ConfigError(f"config key '{path}' must {must}")


# A grid is a list of distinct values: rows and records are keyed by them.
GRID = Kind(_reals, lambda v: v > 0, "be positive")
GRID_MB = replace(GRID, scale=lambda v: v * MB)
GRID_MBPS = replace(GRID, scale=lambda v: v * 1e6)
POSITIVE = replace(GRID, read=_real)
POSITIVE_MB = replace(POSITIVE, scale=GRID_MB.scale)
POSITIVE_MBPS = replace(POSITIVE, scale=GRID_MBPS.scale)
MICROSECONDS = replace(POSITIVE, scale=lambda v: v * 1e-6)
ONE_OR_MORE = Kind(_integer, lambda v: v >= 1, "be at least 1")
SEED_COUNT = replace(ONE_OR_MORE)   # its own object: --seeds sets each one
COUNT = Kind(_integer, lambda v: v >= 0, "not be negative")   # steps, base seed
NOT_NEGATIVE = replace(COUNT, read=_real)
KMH = replace(NOT_NEGATIVE, scale=lambda v: v / 3.6)
FRACTION = Kind(_real, lambda v: 0 < v <= 1, "be in (0, 1]")
# Only bounds planning, so unlike every other real setting it does not size
# a fleet, a grid, a file or a recorded trajectory.
PLANNING_HORIZON = replace(POSITIVE, finite=False)
# A value that keys RNG streams (seed_key) is whole in its key unit.
WHOLE_METRES = replace(POSITIVE, ok=lambda v: v > 0 and _whole(v, 1),
                       rule="be positive and in whole metres")
DENSITY_GRID = replace(
    GRID, ok=lambda v: v > 0 and _whole(v, DENSITY_KEY_SCALE),
    rule=f"be positive and in whole 1/{DENSITY_KEY_SCALE} veh/km")
DENSITY = replace(DENSITY_GRID, read=_real)
# A mu_profile band's lo_m, hi_m and mu, which _bands checks one by one.
BAND = (NOT_NEGATIVE, replace(POSITIVE, finite=False), POSITIVE)

# Every config key, in describe's order: section, then SI name, then (key
# under the section, kind).  The experiments section is added below, from
# ExperimentSettings' fields.
KEYS = {
    "mobility": {
        "lane_length_m": ("lane_length_km", replace(POSITIVE, scale=lambda v: v * 1000.0)),
        "lane_width_m": ("lane_width_m", POSITIVE),
        "lanes_per_direction": ("lanes_per_direction", ONE_OR_MORE),
        "v_min_mps": ("v_min_kmh", KMH),
        "v_max_mps": ("v_max_kmh", KMH),
        "accel_mps2": ("accel_mps2", NOT_NEGATIVE),
        "step_s": ("step_s", POSITIVE),
    },
    "channel": {
        "tx_power_w": ("tx_power_w", POSITIVE),
        "noise_w": ("noise_dbm", Kind(_real, lambda w: w > 0, "be above 0 W", watts_from_dbm)),
        "tx_gain": ("tx_gain", POSITIVE),
        "rx_gain": ("rx_gain", POSITIVE),
        "tx_height_m": ("tx_height_m", POSITIVE),
        "rx_height_m": ("rx_height_m", POSITIVE),
        "path_loss_exp": ("path_loss_exp", POSITIVE),
        "system_loss": ("system_loss", replace(ONE_OR_MORE, read=_real)),
        "mu_profile": ("mu_profile", Kind(_bands, lambda band: True, "", finite=False)),
    },
    "rates": {
        "rates_bps": ("rates_mbps", GRID_MBPS),
        "thresholds_snr": ("thresholds_snr", GRID),
    },
    "mac": {
        "w": ("backoff_window", ONE_OR_MORE),
        "lp_bits": ("packet_kb", replace(POSITIVE, scale=lambda v: v * KB * 8.0)),
        "t_slot_s": ("slot_us", MICROSECONDS),
        "t_rts_s": ("rts_us", MICROSECONDS),
        "t_cts_s": ("cts_us", MICROSECONDS),
        "t_difs_s": ("difs_us", MICROSECONDS),
        "t_sifs_s": ("sifs_us", MICROSECONDS),
        "t_ack_s": ("ack_us", MICROSECONDS),
        "carrier_sense_factor": ("carrier_sense_factor", POSITIVE),
    },
}


def _setting(key: str, kind: Kind):
    """A field read from experiments.<key>, a dotted path."""
    return field(metadata={"key": key, "kind": kind})


@dataclass(frozen=True)
class ExperimentSettings:
    """Sweep grids and run-scale knobs for the experiment suite.

    Each field declares its config key under experiments and its kind, by
    which resolve, the only code that builds one, reads and checks it.
    """

    comm_ranges_m: tuple = _setting("comm_range_m", GRID)
    densities_per_km: tuple = _setting("density_per_km", GRID)
    safety_distance_m: float = _setting("safety_distance_m", WHOLE_METRES)
    seeds: int = _setting("seeds", SEED_COUNT)
    base_seed: int = _setting("base_seed", COUNT)
    warmup_steps: int = _setting("warmup_steps", COUNT)
    horizon_s: float = _setting("horizon_s", POSITIVE)
    connection_density_per_km: float = _setting("connection_density_per_km", DENSITY)
    file_sizes_bytes: tuple = _setting("file_size_mb", GRID_MB)
    fragment_bytes: float = _setting("fragment_mb", POSITIVE_MB)
    nominal_mac_rate_bps: float = _setting("nominal_mac_rate_mbps", POSITIVE_MBPS)
    success_fraction: float = _setting("success_fraction", FRACTION)
    max_volume_densities: tuple = _setting("max_volume.density_per_km", DENSITY_GRID)
    max_volume_range_m: float = _setting("max_volume.comm_range_m", WHOLE_METRES)
    max_volume_sd_m: float = _setting("max_volume.safety_distance_m", WHOLE_METRES)
    max_volume_warmup_steps: int = _setting("max_volume.warmup_steps", COUNT)
    max_volume_seeds: int = _setting("max_volume.seeds", SEED_COUNT)
    max_volume_direct_seeds: int = _setting("max_volume.direct_seeds", SEED_COUNT)
    max_volume_plan_margin_s: float = _setting("max_volume.plan_margin_s", NOT_NEGATIVE)
    cluster_densities: tuple = _setting("cluster_size.density_per_km", DENSITY_GRID)
    cluster_range_m: float = _setting("cluster_size.comm_range_m", WHOLE_METRES)
    cluster_sd_m: float = _setting("cluster_size.safety_distance_m", WHOLE_METRES)
    cluster_warmup_steps: int = _setting("cluster_size.warmup_steps", COUNT)
    cluster_seeds: int = _setting("cluster_size.seeds", SEED_COUNT)
    cluster_horizon_s: float = _setting("cluster_size.horizon_s", PLANNING_HORIZON)


KEYS["experiments"] = {f.name: (f.metadata["key"], f.metadata["kind"])
                       for f in fields(ExperimentSettings)}


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


def _at(raw: dict, path: str):
    """The value at the dotted path of raw; a ConfigError names a missing
    key, or a value where a section of keys belongs."""
    node, parts = raw, path.split(".")
    for i, key in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigError(f"config key '{'.'.join(parts[:i])}' must be a "
                              f"section of keys, got {node!r}")
        if key not in node:
            raise ConfigError(f"missing config key '{'.'.join(parts[:i + 1])}'")
        node = node[key]
    return node


def _paths(node: dict, prefix: str = ""):
    """The dotted path of every key in node that holds no section of keys."""
    for key, value in node.items():
        if isinstance(value, dict) and value:
            yield from _paths(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


def _built(where: str, make: Callable, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError as a ConfigError saying where."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"config {where}: {e}") from e


def resolve(raw: dict) -> Config:
    """Convert a raw config document to typed SI-unit objects.

    Every key of KEYS is read, converted and checked by its kind, and any
    other key is a ConfigError.
    """
    si = {section: {} for section in KEYS}
    for section, keys in KEYS.items():
        for name, (key, kind) in keys.items():
            path = f"{section}.{key}"
            si[section][name] = _value(_at(raw, path), path, kind)
    settings = ExperimentSettings(**si["experiments"])
    cfg = Config(
        channel=_built("section 'channel'", ChannelParams, **si["channel"]),
        rates=_built("section 'rates'", RateTable, **si["rates"]),
        carrier_sense_factor=si["mac"].pop("carrier_sense_factor"),
        mac_defaults=si["mac"],
        mobility_defaults=si["mobility"],
        experiments=settings,
    )
    # Every fleet an experiment simulates, named by its density key; the
    # throughput grid, densities_per_km, is analytic and sizes no fleet.
    s = settings
    for key, densities, sd in (
            ("connection_density_per_km", (s.connection_density_per_km,), s.safety_distance_m),
            ("max_volume.density_per_km", s.max_volume_densities, s.max_volume_sd_m),
            ("cluster_size.density_per_km", s.cluster_densities, s.cluster_sd_m)):
        for density in densities:
            _built(f"section 'mobility' at 'experiments.{key}' = {density:g}",
                   cfg.mobility, density, sd)
    declared = {f"{section}.{key}" for section, keys in KEYS.items()
                for key, _ in keys.values()}
    unknown = [path for path in _paths(raw) if path not in declared]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return cfg


def load_config(path: str | None = None, overrides: list[str] | None = None) -> Config:
    raw = load_raw(path)
    if overrides:
        raw = apply_overrides(raw, overrides)
    return resolve(raw)


def describe(cfg: Config) -> str:
    """Human-readable echo of the resolved SI-unit parameters, one
    "  name = value" line per value (tuples as lists) under its section."""
    mac = {**cfg.mac_defaults, "carrier_sense_factor": cfg.carrier_sense_factor}
    lines = []
    for section, values in zip(KEYS, (cfg.mobility_defaults, vars(cfg.channel),
                                      vars(cfg.rates), mac, vars(cfg.experiments))):
        lines.append(f"{section}:")
        for name, v in values.items():
            v = list(v) if isinstance(v, tuple) else v
            lines.append(f"  {name} = {format(v, '.6e' if name == 'noise_w' else '')}")
    return "\n".join(lines)
