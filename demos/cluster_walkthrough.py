"""Step-by-step transfer of one file, small and large.

Builds a fixed highway scene: a requesting platoon heading east and an
oncoming vehicle holding the file.  A small file fits into the single
pass and is fetched directly.  A large file does not, so the requester
recruits its platoon into a cluster, splits the file into fragment
ranges, and each member hands its share over after the pass.
"""

import math

from cftsim.config import load_config
from cftsim.protocol import Ballistic, VehicleState, recruit, run_cft

MB = 1_000_000.0

# Eastbound platoon (requester first) and the westbound file holder.
FLEET = [
    VehicleState(0, 0.0, 2.5, 24.0, 0.0),      # requester / cluster head
    VehicleState(1, -60.0, 2.5, 24.0, 0.0),
    VehicleState(2, -120.0, 7.5, 26.0, 0.0),
    VehicleState(3, -180.0, 2.5, 24.0, 0.0),
    VehicleState(4, 150.0, -2.5, -26.0, 0.0),  # oncoming, holds the file
]
HOLDERS = [4]


def narrate(head, recruitment, traffic, v_bytes):
    out = run_cft(recruitment, v_bytes, traffic)
    print(f"\nrequesting {v_bytes / MB:.0f} MB "
          f"({math.ceil(v_bytes / MB)} fragments) -> mode={out.mode}, "
          f"delivered {out.bytes_delivered / MB:.0f} MB")
    if out.cluster is None:
        return
    print(f"  cluster of {out.n_c} (head + {out.n_c - 1} helpers), "
          f"resource vehicle {out.cluster.resource}")
    for m, r in zip(out.cluster.members, out.member_results):
        frags = f"fragments {m.frag_start}..{m.frag_start + m.frag_count - 1}"
        role = "head  " if m.vid == head.vid else "member"
        hand = "keeps them" if m.vid == head.vid else (
            "forwards in time" if r.forward_ok else "misses the handover")
        print(f"  {role} vehicle {m.vid}: {frags} "
              f"({m.frag_count} of budget {m.budget.n_frags}), "
              f"downloads {r.downloaded_bytes / MB:.0f} MB, {hand}")


def main() -> None:
    cfg = load_config()
    models = cfg.models(comm_range_m=250.0, density_per_km=5.0)
    head = FLEET[0]
    # One request: both files read their clusters off the same recruitment
    # and are scored on the same constant-velocity prediction of the scene,
    # so the second file reuses the first one's member scores.
    recruitment = recruit(head, FLEET, 1.0 * MB, models, HOLDERS)
    traffic = Ballistic(recruitment.snapshot, recruitment.models)
    narrate(head, recruitment, traffic, 20.0 * MB)
    narrate(head, recruitment, traffic, 120.0 * MB)


if __name__ == "__main__":
    main()
