"""Cooperative network-coded ARQ on the two-way relay channel.

Exact steady-state throughput analysis over correlated (Good/Bad Markov)
fading links, cross-validated by a seeded Monte Carlo protocol simulator,
plus a CLI for parameter sweeps.
"""

from .analysis import analytic_many, analytic_throughput
from .channel import (
    JointChannelModel,
    db_to_linear,
    fading_margin_from_outage,
    outage_probability,
)
from .exceptions import NumericalError, ProtocolError
from .protocol import CsiMode, Strategy, XorConvention
from .simulate import SimConfig, SimStats, run, run_csi_comparison, run_many

__version__ = "0.1.0"

__all__ = [
    "CsiMode",
    "JointChannelModel",
    "NumericalError",
    "ProtocolError",
    "SimConfig",
    "SimStats",
    "Strategy",
    "XorConvention",
    "analytic_many",
    "analytic_throughput",
    "db_to_linear",
    "fading_margin_from_outage",
    "outage_probability",
    "run",
    "run_csi_comparison",
    "run_many",
]
