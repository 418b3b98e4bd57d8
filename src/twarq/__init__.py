"""Cooperative network-coded ARQ on the two-way relay channel.

Exact steady-state throughput analysis over correlated (Good/Bad Markov)
fading links, cross-validated by a seeded Monte Carlo protocol simulator,
plus a CLI for parameter sweeps.
"""

from .analysis import (
    SteadyState,
    SubStateSpace,
    aggregate_coarse,
    analytic_many,
    analytic_throughput,
    enumerate_substates,
    steady_state,
    sw_arq_throughput,
    throughput,
    transition_matrix,
)
from .channel import (
    GilbertElliottParams,
    JointChannelModel,
    LinkId,
    db_to_linear,
    fading_margin_from_outage,
    ge_transitions,
    joint_matrix,
    linear_to_db,
    outage_probability,
    stationary_link,
)
from .exceptions import NumericalError, ProtocolError
from .protocol import (
    Action,
    ArqState,
    CsiMode,
    NodeId,
    Payload,
    Phase,
    PolicyContext,
    SlotOutcome,
    Strategy,
    XorConvention,
    advance_token,
    apply_slot,
    policy_action,
    resolve_c,
    round_complete,
)
from .simulate import SimConfig, SimStats, run, run_csi_comparison, run_many

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ArqState",
    "CsiMode",
    "GilbertElliottParams",
    "JointChannelModel",
    "LinkId",
    "NodeId",
    "NumericalError",
    "Payload",
    "Phase",
    "PolicyContext",
    "ProtocolError",
    "SimConfig",
    "SimStats",
    "SlotOutcome",
    "SteadyState",
    "Strategy",
    "SubStateSpace",
    "XorConvention",
    "advance_token",
    "aggregate_coarse",
    "analytic_many",
    "analytic_throughput",
    "apply_slot",
    "db_to_linear",
    "enumerate_substates",
    "fading_margin_from_outage",
    "ge_transitions",
    "joint_matrix",
    "linear_to_db",
    "outage_probability",
    "policy_action",
    "resolve_c",
    "round_complete",
    "run",
    "run_csi_comparison",
    "run_many",
    "stationary_link",
    "steady_state",
    "sw_arq_throughput",
    "throughput",
    "transition_matrix",
]
