"""What the shipped rate ladder produces, and how little its thresholds matter.

The PHY ladder maps instantaneous SNR to a transmission rate.  The rate
values are standard OFDM modes; the activation thresholds are the free
parameter.  This script shows what the shipped thresholds produce and how
sensitive the expected rate is to moving them.  Every threshold lies below
0 dB SNR, so the expected rate stays within 6% of the top rung out to 600 m,
and scaling all thresholds by 0.8 or 1.25 moves it at 250 m only from 53.83
to 53.86 or 53.79 Mbps.  So the thresholds are not the knob that puts the
experiment metrics in their reference bands.

Run:  python3 demos/calibrate_rate_table.py
"""

import dataclasses

from cftsim.channel import expected_rate, rate_distribution
from cftsim.config import load_config

DISTANCES_M = [50.0, 100.0, 150.0, 250.0, 400.0, 500.0, 600.0]
SCALES = [0.8, 1.0, 1.25]  # threshold multipliers


def main() -> None:
    cfg = load_config()
    table = cfg.rates

    print("shipped ladder (rate Mbps : linear-SNR threshold):")
    for rate, thr in zip(table.rates_bps, table.thresholds_snr):
        print(f"  {rate / 1e6:5.0f} : {thr:.3f}")

    print("\nexpected rate and outage by distance:")
    print(f"  {'d [m]':>6}  {'E[rate] Mbps':>12}  {'P(no rate)':>10}")
    for d in DISTANCES_M:
        rd = rate_distribution(d, cfg.channel, table)
        print(f"  {d:6.0f}  {rd.expected_bps / 1e6:12.2f}  {rd.prob_zero:10.4f}")

    # Sensitivity: every threshold scaled together.
    print("\nexpected rate at 250 m if all thresholds are scaled:")
    for s in SCALES:
        scaled = dataclasses.replace(
            table, thresholds_snr=tuple(s * t for t in table.thresholds_snr))
        e = expected_rate(250.0, cfg.channel, scaled)
        print(f"  x{s:<5} -> {e / 1e6:6.2f} Mbps")


if __name__ == "__main__":
    main()
