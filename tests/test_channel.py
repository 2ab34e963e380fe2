"""Fading channel model against quadrature and Monte-Carlo oracles."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc
from scipy.stats import chi2

from cftsim.channel import (RateDistribution, RateTable, expected_rate,
                            expected_rates, mean_power, mu_for_distance,
                            rate_distribution, watts_from_dbm)
from cftsim.config import load_config

from channel_oracles import sample_snr, snr_cdf, upper_incomplete_gamma

CFG = load_config()
PARAMS = CFG.channel
RATES = CFG.rates

# Frozen from the quadrature oracle below (integral of exp(-x) x^(mu-1)
# from z to infinity), evaluated once and pinned.
GAMMA_074_13 = 0.224687528812


def _gamma_tail_quad(mu, z):
    # Split at 1 so the x**(mu-1) singularity and the infinite tail are
    # handled by separate adaptive panels.
    f = lambda x: math.exp(-x) * x ** (mu - 1.0)
    kw = dict(epsabs=1e-12, epsrel=1e-12, limit=200)
    if z < 1.0:
        v1, e1 = quad(f, z, 1.0, **kw)
        v2, e2 = quad(f, 1.0, math.inf, **kw)
        val, err = v1 + v2, e1 + e2
    else:
        val, err = quad(f, z, math.inf, **kw)
    assert err < 5e-9
    return val


def test_gamma_tail_known_constants():
    assert upper_incomplete_gamma(0.5, 0.0) == pytest.approx(
        math.sqrt(math.pi), abs=1e-9)
    assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(
        math.exp(-2.0), abs=1e-9)
    assert upper_incomplete_gamma(1.0, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_gamma_tail_matches_quadrature():
    assert upper_incomplete_gamma(0.74, 1.3) == pytest.approx(
        _gamma_tail_quad(0.74, 1.3), abs=1e-8)
    assert upper_incomplete_gamma(0.74, 1.3) == pytest.approx(
        GAMMA_074_13, abs=1e-8)
    for mu in (0.5, 0.74, 0.84, 1.0, 2.3):
        for z in (0.0, 0.01, 0.7, 4.2):
            assert upper_incomplete_gamma(mu, z) == pytest.approx(
                _gamma_tail_quad(mu, z), abs=1e-8)


def test_gamma_tail_rejects_bad_arguments():
    with pytest.raises(ValueError):
        upper_incomplete_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        upper_incomplete_gamma(1.0, -0.1)


def test_noise_floor_conversion():
    assert watts_from_dbm(-96.0) == pytest.approx(10.0 ** -12.6, rel=1e-12)
    assert watts_from_dbm(30.0) == pytest.approx(1.0, rel=1e-12)


def test_mean_power_direct_substitution():
    assert mean_power(100.0, PARAMS) == pytest.approx(0.2 / 1e8, rel=1e-12)
    assert mean_power(250.0, PARAMS) == pytest.approx(0.2 / 250.0**4, rel=1e-12)


def test_mean_power_follows_the_power_law():
    for d in (50.0, 120.0, 400.0):
        assert mean_power(2.0 * d, PARAMS) == pytest.approx(
            mean_power(d, PARAMS) / 16.0, rel=1e-12)
    with pytest.raises(ValueError):
        mean_power(0.0, PARAMS)


def test_fading_figure_bands():
    assert mu_for_distance(50.0, PARAMS) == 1.0
    assert mu_for_distance(100.0, PARAMS) == 0.74
    assert mu_for_distance(300.0, PARAMS) == 0.84
    assert mu_for_distance(1000.0, PARAMS) == 0.84
    # Band edges belong to the upper band.
    assert mu_for_distance(90.5, PARAMS) == 0.74
    assert mu_for_distance(230.7, PARAMS) == 0.84
    assert mu_for_distance(588.0, PARAMS) == 0.84


def test_snr_cdf_at_zero_and_shape():
    assert snr_cdf(0.0, 250.0, PARAMS) == 0.0
    xs = np.logspace(-4, 2, 60)
    prev = 0.0
    for x in xs:
        c = snr_cdf(float(x), 250.0, PARAMS)
        assert 0.0 <= c <= 1.0
        assert c >= prev - 1e-15
        prev = c
    with pytest.raises(ValueError):
        snr_cdf(-1.0, 250.0, PARAMS)


def test_snr_cdf_rayleigh_reduction():
    # With the shape forced to 1 the received power is exponential, so
    # P(SNR <= x) = 1 - exp(-N_r x / Omega) in closed form.
    p1 = dataclasses.replace(PARAMS, mu_profile=((0.0, math.inf, 1.0),))
    for d in (80.0, 250.0, 500.0):
        omega = mean_power(d, p1)
        for x in (0.01, 0.1, 1.0, 10.0, 300.0):
            want = 1.0 - math.exp(-p1.noise_w * x / omega)
            assert snr_cdf(x, d, p1) == pytest.approx(want, abs=1e-9)


def test_snr_cdf_matches_quadrature():
    # Gamma(mu, omega/mu) density integrated up to N_r * x.
    d = 300.0                      # band with mu = 0.84
    omega = mean_power(d, PARAMS)  # ~2.5e-11 W at 300 m
    mu = 0.84
    for x in (0.05, 0.5, 5.0, 50.0):
        z = (mu / omega) * PARAMS.noise_w * x
        want = 1.0 - _gamma_tail_quad(mu, z) / math.gamma(mu)
        assert snr_cdf(x, d, PARAMS) == pytest.approx(want, abs=1e-8)


def test_rate_probabilities_sum_to_one():
    for d in np.linspace(50.0, 600.0, 100):
        rd = rate_distribution(float(d), PARAMS, RATES)
        assert rd.prob_zero + sum(rd.probs) == pytest.approx(1.0, abs=1e-9)
        assert rd.prob_zero >= -1e-15
        assert all(p >= -1e-15 for p in rd.probs)


def _scalar_rate_distribution(distance_m, params, table):
    """rate_distribution with one gammaincc call per threshold: the
    exact-equality oracle of its single call over the ladder."""
    omega = mean_power(distance_m, params)
    mu = mu_for_distance(distance_m, params)
    scale = (mu / omega) * params.noise_w
    tails = [float(gammaincc(mu, scale * v)) for v in table.thresholds_snr]
    tails.append(0.0)
    probs = tuple(tails[k] - tails[k + 1] for k in range(len(table.rates_bps)))
    return RateDistribution(
        rates_bps=tuple(table.rates_bps), probs=probs, prob_zero=1.0 - tails[0],
        expected_bps=functools.reduce(
            lambda acc, rp: acc + rp[0] * rp[1], zip(table.rates_bps, probs), 0.0))


def test_rate_distribution_equals_the_per_threshold_oracle():
    # 12,000 random distances, spread over every mu band of the profile
    # and past its last edge.
    gen = np.random.default_rng(2024)
    bands = [(lo, min(hi, 2.0 * lo + 600.0)) for lo, hi, _ in PARAMS.mu_profile]
    per_band = 12_000 // len(bands)
    for lo, hi in bands:
        for d in gen.uniform(max(lo, 0.5), hi, size=per_band).tolist():
            assert rate_distribution(d, PARAMS, RATES) == \
                _scalar_rate_distribution(d, PARAMS, RATES)


def _assert_rates_equal_scalar(dist, params, table):
    got = expected_rates(dist, params, table)
    want = [expected_rate(d, params, table) for d in dist.tolist()]
    assert got.dtype == np.float64 and got.shape == dist.shape
    assert got.tolist() == want


def test_expected_rates_equal_the_scalar_rate():
    gen = np.random.default_rng(18)
    keys = np.maximum(np.arange(4 * 600 + 1) / 4.0, 0.25)
    edges = np.array([e for lo, hi, _ in PARAMS.mu_profile for e in (lo, hi)
                      if 0.0 < e < math.inf])
    around = np.concatenate([edges, np.nextafter(edges, 0.0),
                             np.nextafter(edges, np.inf)])
    spread = 2_000.0 * (1.0 - gen.random(50_000))   # (0, 2000] m
    for dist in (keys, around, spread):
        _assert_rates_equal_scalar(dist, PARAMS, RATES)
    # Another channel and a shorter ladder with the thresholds scaled, as
    # demos/calibrate_rate_table.py tries them.
    params = dataclasses.replace(PARAMS, path_loss_exp=3.7)
    table = RateTable(rates_bps=RATES.rates_bps[:5], thresholds_snr=tuple(
        1.25 * t for t in RATES.thresholds_snr[:5]))
    _assert_rates_equal_scalar(np.concatenate([keys, around, spread[:5_000]]),
                               params, table)


def test_a_nan_infinite_or_non_positive_distance_is_rejected():
    for d in (math.nan, math.inf, 0.0, -1.0):
        for fn in (lambda: mean_power(d, PARAMS),
                   lambda: mu_for_distance(d, PARAMS),
                   lambda: expected_rate(d, PARAMS, RATES),
                   lambda: expected_rates(np.array([100.0, d]), PARAMS, RATES)):
            with pytest.raises(ValueError, match="must be positive and finite"):
                fn()


def test_degenerate_thresholds_select_the_top_rate():
    # Thresholds at the bottom of the SNR scale leave the whole tail mass
    # on the last ladder step.
    table = RateTable(rates_bps=(6e6, 54e6), thresholds_snr=(1e-300, 2e-300))
    rd = rate_distribution(250.0, PARAMS, table)
    assert rd.probs == (0.0, 1.0)
    assert rd.prob_zero == 0.0
    assert rd.expected_bps == 54e6


def test_unreachable_threshold_kills_the_link():
    table = RateTable(rates_bps=(6e6,), thresholds_snr=(1e12,))
    rd = rate_distribution(250.0, PARAMS, table)
    assert rd.prob_zero == pytest.approx(1.0, abs=1e-12)
    assert rd.expected_bps == pytest.approx(0.0, abs=1.0)


def test_expected_rate_at_reference_distance():
    # Regression anchor for the shipped ladder; value frozen from this
    # implementation and cross-checked against the Monte-Carlo oracle.
    assert expected_rate(250.0, PARAMS, RATES) == pytest.approx(
        53_826_080.18, rel=1e-6)


def test_expected_rate_non_increasing_within_bands():
    for lo, hi in ((10.0, 90.0), (91.0, 230.0), (231.0, 587.0), (589.0, 900.0)):
        ds = np.linspace(lo, hi, 120)
        vals = [expected_rate(float(d), PARAMS, RATES) for d in ds]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


def test_rate_table_validation():
    with pytest.raises(ValueError):
        RateTable(rates_bps=(6e6, 9e6), thresholds_snr=(0.03,))
    with pytest.raises(ValueError):
        RateTable(rates_bps=(), thresholds_snr=())
    with pytest.raises(ValueError):
        RateTable(rates_bps=(9e6, 6e6), thresholds_snr=(0.03, 0.05))
    with pytest.raises(ValueError):
        RateTable(rates_bps=(6e6, 9e6), thresholds_snr=(0.05, 0.03))
    with pytest.raises(ValueError):
        RateTable(rates_bps=(6e6,), thresholds_snr=(0.0,))


def test_channel_params_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(PARAMS, tx_power_w=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(PARAMS, system_loss=0.5)
    with pytest.raises(ValueError, match="mu values must be positive"):
        dataclasses.replace(PARAMS, mu_profile=((0.0, math.inf, -1.0),))
    with pytest.raises(ValueError, match="positive width"):
        dataclasses.replace(PARAMS, mu_profile=((0.0, 0.0, 1.0),
                                                (0.0, math.inf, 1.0)))


@pytest.mark.parametrize("profile,message", [
    (((0.0, 90.5, 1.0), (100.0, math.inf, 0.84)), "must start at 90.5"),
    (((0.0, 90.5, 1.0), (80.0, math.inf, 0.84)), "must start at 90.5"),
    (((10.0, math.inf, 1.0),), "must start at 0.0"),
    (((0.0, 90.5, 1.0), (90.5, 588.0, 0.84)), "must end at inf"),
], ids=["gap", "overlap", "first-band-not-at-0", "last-band-not-at-inf"])
def test_mu_profile_must_partition_the_distances(profile, message):
    # Both lookups take the first band whose upper edge lies above the
    # distance, which is the band containing it only on a partition.
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(PARAMS, mu_profile=profile)


def _chi2_stat(counts, probs, n):
    expected = np.asarray(probs) * n
    # Merge bins too thin for the chi-square approximation into their
    # richer neighbours, smallest first.
    counts = list(counts)
    expected = list(expected)
    while len(expected) > 1 and min(expected) < 5.0:
        k = int(np.argmin(expected))
        j = k - 1 if k > 0 else k + 1
        expected[j] += expected.pop(k)
        counts[j] += counts.pop(k)
    stat = sum((c - e) ** 2 / e for c, e in zip(counts, expected) if e > 0)
    return stat, len(expected) - 1


@pytest.mark.parametrize("distance_m", [100.0, 250.0, 400.0])
def test_rate_distribution_matches_monte_carlo(distance_m):
    n = 1_000_000
    gen = np.random.default_rng(42_000 + int(distance_m))
    snr = sample_snr(distance_m, PARAMS, gen, n)
    edges = np.concatenate(([0.0], RATES.thresholds_snr, [np.inf]))
    counts, _ = np.histogram(snr, bins=edges)
    rd = rate_distribution(distance_m, PARAMS, RATES)
    probs = (rd.prob_zero,) + rd.probs
    stat, dof = _chi2_stat(counts, probs, n)
    assert dof >= 1
    assert stat < chi2.ppf(0.99, dof), (
        f"chi2={stat:.2f} exceeds the 99% bound at {distance_m} m")
