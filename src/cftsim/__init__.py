"""Cooperative file transfer over highway vehicle-to-vehicle links.

Models and experiments for moving large files between vehicles on a
bi-directional highway: free mobility with safety-distance braking,
closed-form link lifetime prediction, a Nakagami-m fading rate model, DCF
MAC throughput under Poisson contention, and a cluster-based transfer
protocol compared against a single-link baseline.
"""

from .channel import (ChannelParams, RateTable, RateDistribution,
                      expected_rate, expected_rates, mean_power,
                      mu_for_distance, rate_distribution)
from .connection import predict_connection_time, range_window
from .mac import (MacParams, avg_slot_length, contention_pmf, p_success,
                  throughput, transmission_prob)
from .mobility import (Fleet, MobilityConfig, init_scenario, step,
                       warm_up_batch)
from .protocol import (Ballistic, Cluster, LinkBudget, Models, Recruitment,
                       Snapshot, TransferOutcome, VehicleState,
                       assign_fragments, build_cluster, form_cluster,
                       forwarding_feasible, link_budget,
                       prospective_link_budget, recruit, run_cft,
                       run_direct_baseline, select_resource)
from .config import Config, ConfigError, load_config

__version__ = "0.1.0"
