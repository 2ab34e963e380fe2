"""DCF MAC throughput with a constant backoff window and RTS/CTS.

Stations within carrier-sense range contend per slot with a fixed
transmission probability zeta = 2/(W+1).  The number of contenders around a
transfer pair is Poisson in the local vehicle density, and the expected
MAC-layer throughput follows from the per-slot success probability and the
expected slot duration.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

POISSON_TAIL = 1e-12     # truncation mass for the contender distribution


@dataclass(frozen=True)
class MacParams:
    """Contention and timing parameters.

    rcs_m is the carrier-sense range diameter and rho_per_m the traffic
    density: rho_per_m * rcs_m vehicles contend on average.
    """

    w: int
    lp_bits: float
    t_slot_s: float
    t_rts_s: float
    t_cts_s: float
    t_difs_s: float
    t_sifs_s: float
    t_ack_s: float
    rcs_m: float
    rho_per_m: float

    def __post_init__(self):
        if self.w < 1:
            raise ValueError("backoff window must be >= 1")
        if self.lp_bits <= 0:
            raise ValueError("packet length must be positive")
        for name in ("t_slot_s", "t_rts_s", "t_cts_s", "t_difs_s", "t_sifs_s", "t_ack_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.rcs_m <= 0:
            raise ValueError("carrier-sense range must be positive")
        if self.rho_per_m < 0:
            raise ValueError("traffic density must be non-negative")


def transmission_prob(w: int) -> float:
    """Per-slot transmission probability zeta = 2/(W+1)."""
    if w < 1:
        raise ValueError(f"backoff window must be >= 1, got {w}")
    return 2.0 / (w + 1.0)


def contention_pmf(params: MacParams) -> tuple[np.ndarray, np.ndarray]:
    """PMF of the contender count n ~ Poisson(rho_per_m * rcs_m).

    Returns (values, masses) truncated once the remaining tail mass drops
    below POISSON_TAIL, renormalised to sum exactly to 1.
    """
    lam = params.rho_per_m * params.rcs_m
    if lam == 0.0:
        return np.array([0]), np.array([1.0])
    masses = [math.exp(-lam)]
    # p_{k+1} = p_k * lam / (k+1); stop when the tail is negligible.
    k = 0
    cum = masses[0]
    while cum < 1.0 - POISSON_TAIL or k < lam:
        masses.append(masses[-1] * lam / (k + 1))
        k += 1
        cum += masses[-1]
    p = np.array(masses)
    p /= p.sum()
    return np.arange(p.size), p


def p_success(n: int, zeta: float) -> float:
    """Probability a busy slot carries exactly one transmission.

    P_suc = n*zeta*(1-zeta)^(n-1) / (1 - (1-zeta)^n), conditioned on at
    least one of the n contenders transmitting.
    """
    if n < 1:
        raise ValueError(f"need at least one contender, got n={n}")
    if not 0.0 < zeta <= 1.0:
        raise ValueError(f"zeta must be in (0, 1], got {zeta}")
    if n == 1:
        # zeta / (1 - (1 - zeta)) = 1; return it exactly rather than
        # through the rounding of the general expression.
        return 1.0
    if zeta == 1.0:
        return 0.0
    q = 1.0 - zeta
    return n * zeta * q ** (n - 1) / (1.0 - q**n)


def success_duration(params: MacParams, data_rate_bps: float) -> float:
    """Duration of a successful RTS/CTS/DATA/ACK exchange, in seconds."""
    if data_rate_bps <= 0:
        raise ValueError("data rate must be positive")
    return (params.t_rts_s + params.t_sifs_s + params.t_cts_s + params.t_sifs_s
            + params.lp_bits / data_rate_bps
            + params.t_sifs_s + params.t_ack_s + params.t_difs_s)


def collision_duration(params: MacParams) -> float:
    """Time lost to a collided RTS, in seconds."""
    return params.t_rts_s + params.t_difs_s


def _slot_terms(n: int, zeta: float, params: MacParams
                ) -> tuple[float, float, float]:
    """The rate-free terms of a slot with n contenders: P_idle * t_slot,
    P_s and P_c * T_c, where P_idle = (1-zeta)^n, P_s is the unconditional
    single-transmission probability and P_c the collision probability."""
    p_one = p_success(n, zeta)      # checks n and zeta before the power
    p_idle = (1.0 - zeta) ** n
    p_tr = 1.0 - p_idle
    p_s = p_tr * p_one
    return (p_idle * params.t_slot_s, p_s,
            (p_tr - p_s) * collision_duration(params))


def avg_slot_length(n: int, zeta: float, params: MacParams,
                    data_rate_bps: float) -> float:
    """Expected slot duration T = P_idle * t_slot + P_s * T_s + P_c * T_c
    with n contenders (_slot_terms)."""
    idle, p_s, collided = _slot_terms(n, zeta, params)
    return idle + p_s * success_duration(params, data_rate_bps) + collided


@functools.lru_cache(maxsize=256)
def _rate_free_terms(params: MacParams) -> tuple:
    """The terms of throughput that do not depend on the data rate: per
    entry of contention_pmf its mass, the _slot_terms and P_s * L_p; a
    draw of n = 0 contenders counts as n = 1."""
    zeta = transmission_prob(params.w)
    ns, masses = contention_pmf(params)
    terms = []
    for n, mass in zip(ns.tolist(), masses.tolist()):
        idle, p_s, collided = _slot_terms(max(n, 1), zeta, params)
        terms.append((mass, idle, p_s, collided, p_s * params.lp_bits))
    return tuple(terms)


def throughput(params: MacParams, data_rate_bps: float) -> float:
    """Expected MAC throughput R_thr between two vehicles, in bit/s.

    Averages the per-slot payload rate P_s * L_p / T over the Poisson
    contender count at the traffic density params.rho_per_m, with T the
    avg_slot_length.  The transfer pair itself always contends, so n = 0
    draws still see one active station; an empty road therefore yields the
    lone-pair ceiling rather than zero.

    Everything but T_s is independent of the rate, so it is computed once
    per MacParams and kept in a bounded cache (_rate_free_terms); a call
    computes only T_s and the sum over n.
    """
    t_s = success_duration(params, data_rate_bps)
    total = 0.0
    for mass, idle, p_s, collided, payload in _rate_free_terms(params):
        total += mass * (payload / (idle + p_s * t_s + collided))
    return total
