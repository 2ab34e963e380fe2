"""Fading-model oracles that only the tests use.

The simulator needs only the rate distribution; these closed forms and the
sampler check it and the channel model from the outside.
"""

import numpy as np
from scipy.special import gammaincc, gamma as gamma_function

from cftsim.channel import ChannelParams, mean_power, mu_for_distance


def upper_incomplete_gamma(mu: float, z: float) -> float:
    """Unnormalised upper incomplete gamma integral from z to infinity.

    Equals the tail integral of exp(-x) * x**(mu-1).  Relative accuracy is
    that of the underlying regularised routine, well below 1e-10 over the
    parameter range used here.
    """
    if mu <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {mu}")
    if z < 0.0:
        raise ValueError(f"lower limit must be non-negative, got {z}")
    return float(gammaincc(mu, z) * gamma_function(mu))


def snr_cdf(x: float, distance_m: float, params: ChannelParams) -> float:
    """P(SNR <= x) at the given distance.

    Received power S is Gamma(mu, Omega/mu), so
    P(S/N_r <= x) = 1 - Gamma(mu, (mu/Omega) N_r x) / Gamma(mu).
    """
    if x < 0.0:
        raise ValueError(f"SNR must be non-negative, got {x}")
    omega = mean_power(distance_m, params)
    mu = mu_for_distance(distance_m, params)
    z = (mu / omega) * params.noise_w * x
    return float(1.0 - gammaincc(mu, z))


def sample_snr(distance_m: float, params: ChannelParams, rng: np.random.Generator,
               size: int) -> np.ndarray:
    """Draw SNR samples from the fading model (power over noise)."""
    omega = mean_power(distance_m, params)
    mu = mu_for_distance(distance_m, params)
    power = rng.gamma(shape=mu, scale=omega / mu, size=size)
    return power / params.noise_w
