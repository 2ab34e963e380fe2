"""Nakagami-m fading channel model for highway V2V links.

Received signal power over a link at distance d is Gamma distributed with
shape mu (the fading figure, measured per distance band) and mean Omega given
by a deterministic power-law path loss.  From the SNR distribution the model
derives the probability of each PHY rate in a threshold ladder and the
expected data rate of the link.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc


def watts_from_dbm(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Radio and propagation constants.

    tx_power_w        transmit power P_t in watts
    noise_w           receiver noise power N_r in watts
    tx_gain, rx_gain  antenna gains (dimensionless)
    tx_height_m, rx_height_m  antenna heights entering the two-ray-style
                      d**alpha path loss as squared factors
    path_loss_exp     path loss exponent alpha
    system_loss       system loss factor L >= 1
    mu_profile        distance-banded Nakagami shape values, as (lo_m,
                      hi_m, mu) bands that partition [0, inf) in order
    """

    tx_power_w: float
    noise_w: float
    tx_gain: float
    rx_gain: float
    tx_height_m: float
    rx_height_m: float
    path_loss_exp: float
    system_loss: float
    mu_profile: tuple

    def __post_init__(self):
        if self.tx_power_w <= 0.0:
            raise ValueError("tx_power_w must be positive")
        if self.noise_w <= 0.0:
            raise ValueError("noise_w must be positive")
        if self.system_loss < 1.0:
            raise ValueError("system_loss must be >= 1")
        end = 0.0
        for lo, hi, mu in self.mu_profile:
            if mu <= 0.0:
                raise ValueError("mu values must be positive")
            if lo != end:
                raise ValueError(f"mu profile band [{lo}, {hi}) must start at {end}")
            if hi <= lo:
                raise ValueError("mu profile bands must have positive width")
            end = hi
        if end != np.inf:
            raise ValueError(f"mu profile must end at inf, not at {end}")


def mean_power(distance_m: float, params: ChannelParams) -> float:
    """Mean received power Omega (watts) at the given link distance."""
    _check_distance(distance_m)
    p = params
    return _gain(p) / (distance_m**p.path_loss_exp * p.system_loss)


def _gain(p: ChannelParams) -> float:
    return p.tx_power_w * p.tx_gain * p.rx_gain * p.tx_height_m**2 * p.rx_height_m**2


def _check_distance(distance_m) -> None:
    # Written so that NaN fails too.  An infinite distance has no mean
    # power to divide by.
    if not 0.0 < distance_m < np.inf:
        raise ValueError(
            f"link distance must be positive and finite, got {distance_m}")


def mu_for_distance(distance_m: float, params: ChannelParams) -> float:
    """Nakagami shape for the band containing the distance: the first band
    whose upper edge lies above it, as the bands partition [0, inf)."""
    _check_distance(distance_m)
    for _, hi, mu in params.mu_profile:
        if distance_m < hi:
            return mu


@dataclass(frozen=True)
class RateTable:
    """PHY rate ladder: rate k is usable while SNR >= thresholds[k].

    Rates in bit/s ascending, thresholds in linear SNR ascending, equal
    length.  SNR below the first threshold supports no transmission.
    """

    rates_bps: tuple
    thresholds_snr: tuple

    def __post_init__(self):
        if len(self.rates_bps) != len(self.thresholds_snr):
            raise ValueError("rates and thresholds must have equal length")
        if len(self.rates_bps) == 0:
            raise ValueError("rate table must not be empty")
        if any(r <= 0 for r in self.rates_bps):
            raise ValueError("rates must be positive")
        if any(t <= 0 for t in self.thresholds_snr):
            raise ValueError("SNR thresholds must be positive")
        if list(self.rates_bps) != sorted(self.rates_bps):
            raise ValueError("rates must be ascending")
        if list(self.thresholds_snr) != sorted(self.thresholds_snr):
            raise ValueError("SNR thresholds must be ascending")


@dataclass(frozen=True)
class RateDistribution:
    """Per-link PHY rate distribution.

    probs[k] is the probability of rates_bps[k]; prob_zero is the probability
    that the SNR supports no rate at all.
    """

    rates_bps: tuple
    probs: tuple
    prob_zero: float
    expected_bps: float


def rate_distribution(distance_m: float, params: ChannelParams,
                      table: RateTable) -> RateDistribution:
    """Probability of each ladder rate at the given distance.

    P(rate k) = Q(mu, z_k) - Q(mu, z_{k+1}) with z_k the Gamma-tail argument
    of threshold k; the top rate keeps the whole remaining tail.
    """
    omega = mean_power(distance_m, params)
    mu = mu_for_distance(distance_m, params)
    scale = (mu / omega) * params.noise_w
    tails = gammaincc(mu, scale * np.array(table.thresholds_snr)).tolist()
    tails.append(0.0)
    probs = tuple(tails[k] - tails[k + 1] for k in range(len(table.rates_bps)))
    prob_zero = 1.0 - tails[0]
    # Left to right, as expected_rates does; sum() is compensated from
    # Python 3.12 on.
    expected = 0.0
    for r, p in zip(table.rates_bps, probs):
        expected += r * p
    return RateDistribution(
        rates_bps=tuple(table.rates_bps),
        probs=probs,
        prob_zero=prob_zero,
        expected_bps=expected,
    )


def expected_rate(distance_m: float, params: ChannelParams,
                  table: RateTable) -> float:
    """Expected usable PHY rate E(c) in bit/s at the given distance."""
    return rate_distribution(distance_m, params, table).expected_bps


def expected_rates(distances_m, params: ChannelParams,
                   table: RateTable) -> np.ndarray:
    """expected_rate at each of a 1-D array of distances, equal to it
    element by element.

    Every step is the scalar one taken elementwise.  d**alpha is Python's
    ``**`` per element, which is libm's pow: numpy's vectorised pow is not
    bit-exact against it.  The Nakagami shape takes the first band whose
    upper edge lies above the distance, as mu_for_distance does.
    """
    d = np.asarray(distances_m, dtype=float)
    bad = ~((d > 0.0) & (d < np.inf))
    if bad.any():
        _check_distance(float(d[bad][0]))
    p = params
    path = np.array([x**p.path_loss_exp for x in d.tolist()])
    omega = _gain(p) / (path * p.system_loss)
    _, hi, band_mu = np.array(p.mu_profile, dtype=float).T
    mu = band_mu[np.searchsorted(hi, d, side="right")]
    scale = (mu / omega) * p.noise_w
    tails = gammaincc(mu[:, None], scale[:, None] * np.array(table.thresholds_snr))
    probs = tails - np.column_stack((tails[:, 1:], np.zeros(d.size)))
    expected = np.zeros(d.size)
    for k, r in enumerate(table.rates_bps):
        expected += r * probs[:, k]
    return expected
