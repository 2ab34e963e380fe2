"""Contention MAC model against exact values and a slot-level simulation."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import poisson

from cftsim.config import load_config
from cftsim.mac import (avg_slot_length, collision_duration, contention_pmf,
                        p_success, success_duration, throughput,
                        transmission_prob)

PARAMS = load_config().mac_for(250.0, 5.0)
DATA_RATE = 11e6


def test_transmission_probability_exact_values():
    assert transmission_prob(32) == 2.0 / 33.0
    assert transmission_prob(1) == 1.0
    assert transmission_prob(3) == 0.5
    with pytest.raises(ValueError):
        transmission_prob(0)


def test_contender_pmf_degenerate_and_poisson_one():
    ns, ps = contention_pmf(dataclasses.replace(PARAMS, rho_per_m=0.0))
    assert list(ns) == [0]
    assert list(ps) == [1.0]
    # One vehicle per 250 m over PARAMS' 250 m sense range: mean 1.
    ns, ps = contention_pmf(dataclasses.replace(PARAMS, rho_per_m=1.0 / 250.0))
    assert ps[0] == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert ps[1] == pytest.approx(math.exp(-1.0), abs=1e-9)
    assert ps.sum() == pytest.approx(1.0, abs=1e-12)


def test_contender_pmf_matches_textbook_table():
    # 5 per km over a 500 m sense range: mean 2.5.
    ns, ps = contention_pmf(dataclasses.replace(PARAMS, rcs_m=500.0))
    want = poisson(2.5).pmf(ns)
    assert np.allclose(ps, want, atol=1e-9)
    assert ps.sum() == pytest.approx(1.0, abs=1e-12)


def test_single_contender_always_succeeds():
    for zeta in (0.01, 2.0 / 33.0, 0.5, 1.0):
        assert p_success(1, zeta) == 1.0


def test_two_greedy_contenders_always_collide():
    assert p_success(2, 1.0) == 0.0


def test_success_probability_decreases_with_contenders():
    zeta = 2.0 / 33.0
    vals = [p_success(n, zeta) for n in range(1, 30)]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        p_success(0, zeta)
    with pytest.raises(ValueError):
        p_success(2, 0.0)


def test_slot_length_boundary_cases():
    # No one transmits: every slot is an idle slot.
    t = avg_slot_length(1, 1e-12, PARAMS, DATA_RATE)
    assert t == pytest.approx(PARAMS.t_slot_s, rel=1e-6)
    # A lone always-on transmitter: every slot is a success.
    t = avg_slot_length(1, 1.0, PARAMS, DATA_RATE)
    assert t == pytest.approx(success_duration(PARAMS, DATA_RATE), rel=1e-12)


def test_slot_length_floor_and_payload_monotonicity():
    zeta = 2.0 / 33.0
    for n in (1, 3, 8):
        assert avg_slot_length(n, zeta, PARAMS, DATA_RATE) >= PARAMS.t_slot_s
    small = dataclasses.replace(PARAMS, lp_bits=1024.0)
    big = dataclasses.replace(PARAMS, lp_bits=65536.0)
    assert (avg_slot_length(3, zeta, big, DATA_RATE)
            > avg_slot_length(3, zeta, small, DATA_RATE))


@pytest.mark.parametrize("n", [2, 5, 10])
def test_analytics_match_slot_simulation(n):
    """10^6 simulated slots: per-slot Bernoulli(zeta) transmissions."""
    zeta = 2.0 / 33.0
    n_slots = 1_000_000
    gen = np.random.default_rng(5150 + n)
    tx = gen.binomial(n, zeta, size=n_slots)
    t_succ = success_duration(PARAMS, DATA_RATE)
    t_coll = collision_duration(PARAMS)
    durations = np.where(tx == 0, PARAMS.t_slot_s,
                         np.where(tx == 1, t_succ, t_coll))

    # Success probability among busy slots, within 3 binomial sigmas.
    busy = int((tx > 0).sum())
    succ = int((tx == 1).sum())
    p_hat = succ / busy
    p = p_success(n, zeta)
    sigma = math.sqrt(p * (1.0 - p) / busy)
    assert abs(p_hat - p) < 3.0 * sigma

    # Mean slot duration, within 3 sigmas of the sample mean.
    t_hat = durations.mean()
    t = avg_slot_length(n, zeta, PARAMS, DATA_RATE)
    sigma_t = durations.std(ddof=1) / math.sqrt(n_slots)
    assert abs(t_hat - t) < 3.0 * sigma_t


def test_empty_road_gives_the_lone_pair_ceiling():
    # The transfer pair itself still contends, so zero ambient density
    # reduces to the n=1 case rather than zero throughput.
    zeta = 2.0 / 33.0
    lone = (1.0 - (1.0 - zeta)) * PARAMS.lp_bits / avg_slot_length(
        1, zeta, PARAMS, DATA_RATE)
    empty = dataclasses.replace(PARAMS, rho_per_m=0.0)
    assert throughput(empty, DATA_RATE) == pytest.approx(lone, rel=1e-12)
    assert lone > 0.0


def _per_n_throughput(params, data_rate_bps):
    """throughput with every term computed afresh for each contender
    count: the exact-equality oracle of its cached rate-free terms."""
    zeta = transmission_prob(params.w)
    ns, masses = contention_pmf(params)
    total = 0.0
    for n, mass in zip(ns, masses):
        n = max(int(n), 1)
        t = avg_slot_length(n, zeta, params, data_rate_bps)
        p_s = (1.0 - (1.0 - zeta) ** n) * p_success(n, zeta)
        total += mass * (p_s * params.lp_bits / t)
    return total


def test_throughput_equals_the_per_n_oracle():
    # rho * rcs == 0 (one term), w == 1 (zeta == 1: every n > 1 collides)
    # and every rate of the ladder, plus rates off it; each pair twice, so
    # the second call reads the cached terms.
    rates = list(load_config().rates.rates_bps) + [1.0, 11e6, 1e9]
    grid = [dataclasses.replace(PARAMS, w=w, rcs_m=rcs, rho_per_m=rho)
            for w in (1, 2, 32, 1023)
            for rcs in (100.0, 500.0, 1500.0)
            for rho in (0.0, 0.005, 0.01, 0.1)]
    assert any(p.rho_per_m * p.rcs_m == 0.0 for p in grid)
    assert any(transmission_prob(p.w) == 1.0 for p in grid)
    for params in grid:
        for rate in rates:
            want = _per_n_throughput(params, rate)
            assert throughput(params, rate) == want
            assert throughput(params, rate) == want


def test_throughput_rejects_a_non_positive_rate():
    for rate in (0.0, -1.0):
        with pytest.raises(ValueError):
            throughput(PARAMS, rate)


def test_throughput_never_exceeds_the_data_rate():
    gen = np.random.default_rng(77)
    for _ in range(100):
        rcs = float(gen.uniform(100.0, 1000.0))
        rate = float(gen.uniform(1e6, 54e6))
        rho = float(gen.uniform(0.0, 0.05))
        params = dataclasses.replace(PARAMS, rcs_m=rcs, rho_per_m=rho)
        assert throughput(params, rate) <= rate


def test_throughput_rises_then_collapses_with_contention():
    # At light contention extra stations cut idle waste faster than they
    # add collisions (a collided RTS costs 85 us against a 3 ms payload),
    # so throughput climbs; deep saturation finally drowns it.
    light = [throughput(dataclasses.replace(PARAMS, rho_per_m=rho), DATA_RATE)
             for rho in (0.0, 0.005, 0.01, 0.02)]
    assert all(b > a for a, b in zip(light, light[1:]))
    saturated = dataclasses.replace(PARAMS, rho_per_m=0.64)
    assert throughput(saturated, DATA_RATE) < light[0]


def test_params_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(PARAMS, w=0)
    with pytest.raises(ValueError):
        dataclasses.replace(PARAMS, lp_bits=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(PARAMS, t_slot_s=0.0)
    with pytest.raises(ValueError):
        dataclasses.replace(PARAMS, rho_per_m=-0.001)
