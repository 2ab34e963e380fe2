"""Command-line entry point for the experiment suite.

Subcommands select a metric sweep, read the YAML config (shipped default,
CFTSIM_CONFIG, or --config), apply key=value overrides, write one CSV per
metric into --out, and print a one-line summary per grid point.

Exit codes: 0 success, 1 usage error, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from . import simulator
from .config import (SEED_COUNT, ConfigError, ExperimentSettings, describe,
                     load_config)

METRIC_COMMANDS = tuple(simulator.SWEEPS)

# Every seed count in the config; --seeds N sets each of them to N.
SEED_KEYS = tuple(f"experiments.{f.metadata['key']}"
                  for f in fields(ExperimentSettings)
                  if f.metadata["kind"] is SEED_COUNT)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; we reserve 2 for config
    # problems, so route usage errors through our own exception.
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="cftsim",
        description="Highway cooperative file transfer experiments",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name in METRIC_COMMANDS + ("validate-config",):
        p = sub.add_parser(name, help=f"run the {name} task")
        p.add_argument("--config", default=None, help="path to a YAML config file")
        p.add_argument("--out", default=".", help="directory for CSV output")
        p.add_argument("--seeds", type=int, default=None,
                       help="override the number of seeds per grid point")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config key (dotted path), repeatable")
    return parser


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _load(args):
    """The config after --set overrides, then the --seeds expansion."""
    overrides = list(args.overrides)
    if args.seeds is not None:
        if args.seeds < 1:
            raise UsageError("--seeds must be at least 1")
        overrides += [f"{key}={args.seeds}" for key in SEED_KEYS]
    return load_config(args.config, overrides)


def _run_metric(command: str, args) -> int:
    cfg = _load(args)
    result = simulator.run_sweep(cfg, command)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"{command}.csv")
    simulator.write_csv(out_path, result)
    for row in result.rows:
        summary = ", ".join(f"{h}={_fmt(v)}" for h, v in zip(result.header, row))
        print(f"{command}: {summary}")
    print(f"wrote {out_path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required "
                             f"(one of: {', '.join(METRIC_COMMANDS)}, validate-config)")
        if args.command == "validate-config":
            print(describe(_load(args)))
            return 0
        return _run_metric(args.command, args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failures get their own exit code
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
