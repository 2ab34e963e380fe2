"""Saturation throughput of a contended roadside channel.

Prints the analytic throughput grid (vehicle density x communication
range) and, for one density, the slot-level accounting that produces it.
"""

from cftsim.config import load_config
from cftsim.mac import (avg_slot_length, contention_pmf, p_success,
                        throughput, transmission_prob)

SHOW_RHO = 5.0  # vehicles/km, row to expand in detail


def main() -> None:
    cfg = load_config()
    e = cfg.experiments
    rate = e.nominal_mac_rate_bps

    print("throughput [Mbps] by density (rows) and range (columns):")
    print("  rho\\R " + "".join(f"{r:8.0f}" for r in e.comm_ranges_m))
    for rho in e.densities_per_km:
        cells = [throughput(cfg.mac_for(r, rho), rate) / 1e6
                 for r in e.comm_ranges_m]
        print(f"  {rho:5.1f} " + "".join(f"{v:8.2f}" for v in cells))

    r = 250.0
    params = cfg.mac_for(r, SHOW_RHO)
    zeta = transmission_prob(params.w)
    ns, masses = contention_pmf(params)
    print(f"\nslot accounting at rho={SHOW_RHO:.0f}/km, R={r:.0f} m "
          f"(carrier-sense {params.rcs_m:.0f} m):")
    print(f"  transmission probability zeta = {zeta:.4f}")
    print(f"  mean contenders = {float((ns * masses).sum()):.2f}")
    for n, p in list(zip(ns, masses))[:6]:
        n_eff = max(int(n), 1)
        print(f"  n={int(n)}: weight {p:.3f}  "
              f"P_suc={p_success(n_eff, zeta):.3f}  "
              f"slot={avg_slot_length(n_eff, zeta, params, rate) * 1e6:.1f} us")


if __name__ == "__main__":
    main()
