"""Shared fixtures and exact-model helpers for the test suite."""

import dataclasses
import math

import numpy as np
import pytest

from cftsim.channel import RateTable
from cftsim.config import load_config
from cftsim.protocol import Ballistic, Models, VehicleState

DEFAULT_CFG = load_config()
MB = 1_000_000.0
LANE_LENGTH_M = DEFAULT_CFG.mobility_defaults["lane_length_m"]


@pytest.fixture(scope="session")
def default_cfg():
    return DEFAULT_CFG


def single_rate_models(rate_bps: float, range_m: float = 250.0,
                       horizon_s: float = 120.0,
                       plan_margin_s: float = 0.0,
                       ring_length_m: float = LANE_LENGTH_M) -> Models:
    """Models whose expected PHY rate is exactly rate_bps at any distance.

    A single-entry ladder with a threshold of 1e-300 puts the whole SNR
    tail mass on that one rate (the Gamma tail at ~0 is exactly 1.0 in
    floats), which makes link capacities exact rational numbers and lets
    tests assert fragment counts without tolerance.
    """
    channel = dataclasses.replace(DEFAULT_CFG.channel,
                                  mu_profile=((0.0, math.inf, 1.0),))
    rates = RateTable(rates_bps=(rate_bps,), thresholds_snr=(1e-300,))
    return Models(channel=channel, rates=rates,
                  mac=DEFAULT_CFG.mac_for(250.0, 5.0), range_m=range_m,
                  horizon_s=horizon_s, ring_length_m=ring_length_m,
                  plan_margin_s=plan_margin_s)


def predicted(fleet, models: Models) -> Ballistic:
    """The planner's constant-velocity prediction of fleet, as the traffic
    source run_cft scores a plan against."""
    return Ballistic({v.vid: v for v in fleet}, models)


def unstopped_invitation(vehicles, x, y, head, resource, models):
    """protocol._may_join cut down to its heading test: the invitation
    scores every vehicle of the head's heading it reaches and relays on
    until it reaches nobody new."""
    return np.array([v.vx * head.vx > 0.0 for v in vehicles])


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_scene(gen):
    """A random request scene on the shipped ring road, within 800 m of
    its origin: 2-7 eastbound vehicles (the head among them) and 1-5
    westbound ones, some holding a file of whole MB, which is returned
    last as its volume in bytes."""
    fleet, west = [], []
    vid = 0
    for _ in range(int(gen.integers(2, 8))):
        fleet.append(VehicleState(vid, float(gen.uniform(-800.0, 800.0)),
                                  float(gen.choice([2.5, 7.5])),
                                  float(gen.uniform(16.7, 33.3)), 0.0))
        vid += 1
    for _ in range(int(gen.integers(1, 6))):
        fleet.append(VehicleState(vid, float(gen.uniform(-800.0, 800.0)),
                                  float(gen.choice([-2.5, -7.5])),
                                  -float(gen.uniform(16.7, 33.3)), 0.0))
        west.append(vid)
        vid += 1
    head = fleet[int(gen.integers(0, len(fleet) - len(west)))]
    n_holders = int(gen.integers(1, len(west) + 1))
    holders = [int(h) for h in gen.choice(west, size=n_holders, replace=False)]
    v_bytes = float(gen.integers(1, 400)) * MB
    return fleet, head, holders, v_bytes
