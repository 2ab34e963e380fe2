"""Largest transferable file: single pass vs cluster.

Searches for the largest file that still completes under each scheme,
per vehicle density.  Seed counts are reduced from the shipped defaults
so this finishes in well under a minute; pass --full for the defaults.
"""

import argparse

from cftsim.config import load_config
from cftsim.simulator import max_transfer_volume

MB = 1_000_000.0

FAST_OVERRIDES = [
    "experiments.max_volume.seeds=20",
    "experiments.max_volume.direct_seeds=40",
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--full", action="store_true",
                    help="run the shipped seed counts (several minutes)")
    args = ap.parse_args()

    cfg = load_config(overrides=[] if args.full else FAST_OVERRIDES)
    res = max_transfer_volume(cfg, "direct", "cft")
    d = {row[1]: row[4] for row in res.rows if row[0] == "direct"}
    c = {row[1]: row[4] for row in res.rows if row[0] == "cft"}
    print("largest completed transfer [MB] at R=250 m:")
    print(f"  {'rho/km':>6}  {'single pass':>11}  {'cluster':>8}  {'gain':>5}")
    for rho in cfg.experiments.max_volume_densities:
        print(f"  {rho:6.0f}  {d[rho] / MB:11.0f}  {c[rho] / MB:8.0f}"
              f"  {c[rho] / d[rho]:4.1f}x")


if __name__ == "__main__":
    main()
