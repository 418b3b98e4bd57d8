"""Exact steady-state throughput via the expanded protocol/channel chain.

The coarse protocol cycle has three phases: T0 (first slot of a round, S1
transmits), T1 (second slot, S2 transmits), and R (retransmitting).  Each
phase is expanded into sub-states that pin down everything the next slot
depends on:

    T0(i)       i = joint channel index during the slot
    T1(a, i)    a = dec[ps1, rs1] left behind by the first slot
    R(b, i)     b = dec[ps1, ps2, rs1, rs2], b <= 11
    R(b, i, t)  rows that also need the scheduler token

The ARQ part of every transition is deterministic (it is read off
protocol.kernel), so entry (m, n) of the transition matrix is the
joint-channel step probability p_c(i_m, i_n) whenever the protocol maps m's
configuration to n's, and zero otherwise.  Stacking blocks in the order
T0, T1, R gives the structure

    [ 0    P01  0   ]
    [ P10  0    P1R ]
    [ PR0  0    PRR ],

and the throughput is twice the stationary mass of the T0 block: two
packets delivered per round, one round per T0 visit.  It is the long-run
T0 share of a run started at sub-state 0, solved on the recurrent class
that run settles in (see steady_state).

The sub-states are the kernel's previous-slot states times the channel
during the slot, m = node*8 + i.  The token t is the AR alternation bit on
every row, or on the C rows of CR the choice cached from the channel the
previous slot saw; RR keeps none.  That yields 8+32+96 = 136 sub-states for
RR and RR-NC, 8+32+192 = 232 for AR and AR-NC, 176 for CR-NC and 184 for
CR.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import JointChannelModel, joint_matrix, stationary_link
from .exceptions import NumericalError
from .protocol import Strategy, XorConvention, kernel, kernel_nodes

__all__ = [
    "SteadyState",
    "SubState",
    "SubStateSpace",
    "aggregate_coarse",
    "analytic_throughput",
    "enumerate_substates",
    "steady_state",
    "sw_arq_throughput",
    "throughput",
    "transition_matrix",
]

N_CHAN = 8


@dataclass(frozen=True)
class SubState:
    """One expanded chain state; unused indices stay None."""

    kind: str  # "T0" | "T1" | "R"
    chan: int
    a: int | None = None
    b: int | None = None
    token: int | None = None


class SubStateSpace:
    """Ordered sub-state list for one strategy, with both index directions."""

    def __init__(self, strategy: Strategy):
        if not strategy.cooperative:
            raise ValueError(
                "the stop-and-wait baseline has a closed-form throughput; "
                "no sub-state chain is defined for it"
            )
        self.strategy = strategy
        nodes = kernel_nodes(strategy)
        self.tokened_rows = frozenset(node.b for node in nodes if node.token is not None)
        self.states = tuple(
            SubState(node.kind, i, node.a, node.b, node.token)
            for node in nodes
            for i in range(N_CHAN)
        )
        self.index = {s: m for m, s in enumerate(self.states)}
        self.n_t0 = N_CHAN
        self.n_t1 = 4 * N_CHAN
        self.n_r = len(self.states) - self.n_t0 - self.n_t1

    def __len__(self) -> int:
        return len(self.states)

    @property
    def t0_slice(self) -> slice:
        return slice(0, self.n_t0)

    @property
    def t1_slice(self) -> slice:
        return slice(self.n_t0, self.n_t0 + self.n_t1)

    @property
    def r_slice(self) -> slice:
        return slice(self.n_t0 + self.n_t1, len(self.states))


@lru_cache(maxsize=None)
def enumerate_substates(strategy: Strategy) -> SubStateSpace:
    """Full ordered sub-state space for a cooperative strategy.

    Built once per strategy; every caller shares the same instance.
    """
    return SubStateSpace(strategy)


def transition_matrix(
    space: SubStateSpace,
    model: JointChannelModel,
    xor_convention: XorConvention = XorConvention.SAME_INDEX,
) -> np.ndarray:
    """Dense row-stochastic matrix of the sub-state chain.

    Each row has exactly eight nonzeros: P[m, 8*nxt[m] + j] = p_c(i, j) for
    sub-state m = node*8 + i, with nxt the kernel's next node.
    """
    nxt, _ = kernel(space.strategy, xor_convention)
    p_c = joint_matrix(model)
    m = np.arange(len(space))
    mat = np.zeros((m.size, m.size))
    mat[m[:, None], N_CHAN * nxt.reshape(-1, 1) + np.arange(N_CHAN)] = p_c[m % N_CHAN]
    rowsum_err = np.abs(mat.sum(axis=1) - 1.0).max()
    if rowsum_err > 1e-12:
        raise NumericalError(f"transition matrix rows off stochastic by {rowsum_err}")
    return mat


@dataclass(frozen=True)
class SteadyState:
    """Stationary distribution and the sup-norm residual of pi P = pi."""

    pi: np.ndarray
    residual: float


def _reach(mask: np.ndarray, start: int) -> np.ndarray:
    """Boolean set of the states reachable from `start` along `mask` edges."""
    seen = np.zeros(mask.shape[0], dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = mask[frontier].any(axis=0) & ~seen
        seen |= frontier
    return seen


def _closed_class(mat: np.ndarray) -> np.ndarray:
    """Indices of the recurrent class that a chain started at state 0 enters.

    The forward reach of x is one closed class exactly when every state in
    it can reach x back.  Otherwise x moves to a state that cannot, whose
    reach is strictly smaller, so the walk ends within n steps.
    """
    mask = mat > 0.0
    x = 0
    while True:
        ahead = _reach(mask, x)
        stuck = ahead & ~_reach(mask.T, x)
        if not stuck.any():
            return np.flatnonzero(ahead)
        x = int(stuck.argmax())


def steady_state(mat: np.ndarray, residual_tol: float = 1e-10) -> SteadyState:
    """Long-run state occupancy of the chain started at state 0.

    pi = pi P with sum(pi) = 1 is one LU solve on the recurrent class that
    the chain started at state 0 settles in, with the last balance equation
    replaced by the normalisation; every other state gets zero mass.  On
    that class the system is nonsingular even when degenerate links leave
    other closed classes (packets held behind a pinned-Bad relay) or make
    T0 transient (rounds that stall forever).  Raises NumericalError on
    negative mass or a residual above residual_tol.
    """
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("transition matrix must be square")
    if np.abs(mat.sum(axis=1) - 1.0).max() > 1e-9:
        raise ValueError("matrix is not row-stochastic")

    cls = _closed_class(mat)
    system = mat[np.ix_(cls, cls)].T - np.eye(cls.size)
    system[-1] = 1.0
    rhs = np.zeros(cls.size)
    rhs[-1] = 1.0
    pi = np.zeros(n)
    pi[cls] = np.linalg.solve(system, rhs)

    if pi.min() < -1e-10:
        raise NumericalError(f"steady-state solve gave negative mass {pi.min()}")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    res = float(np.abs(pi @ mat - pi).max())
    if res > residual_tol or abs(pi.sum() - 1.0) > 1e-12:
        raise NumericalError(
            f"steady-state residual {res} above {residual_tol} on a "
            f"{cls.size}-state recurrent class"
        )
    return SteadyState(pi=pi, residual=res)


def throughput(space: SubStateSpace, steady: SteadyState | np.ndarray) -> float:
    """Packets per slot: twice the stationary probability of the T0 block."""
    pi = steady.pi if isinstance(steady, SteadyState) else steady
    return 2.0 * float(pi[space.t0_slice].sum())


def aggregate_coarse(
    space: SubStateSpace, steady: SteadyState | np.ndarray
) -> tuple[float, float, float]:
    """Collapse the stationary law onto the coarse (T0, T1, R) phases."""
    pi = steady.pi if isinstance(steady, SteadyState) else steady
    return (
        float(pi[space.t0_slice].sum()),
        float(pi[space.t1_slice].sum()),
        float(pi[space.r_slice].sum()),
    )


def sw_arq_throughput(p_ss: float) -> float:
    """Stop-and-wait baseline: 1 - P_ss, independent of channel correlation."""
    if not 0.0 <= p_ss < 1.0:
        raise ValueError(f"direct-link outage probability must be in [0, 1), got {p_ss}")
    return 1.0 - p_ss


def analytic_throughput(
    strategy: Strategy,
    model: JointChannelModel,
    xor_convention: XorConvention = XorConvention.SAME_INDEX,
) -> float:
    """End-to-end throughput for any strategy under the given channel model."""
    if strategy is Strategy.SW_ARQ:
        p_ss, _ = stationary_link(model.s1s2)
        return sw_arq_throughput(p_ss)
    space = enumerate_substates(strategy)
    mat = transition_matrix(space, model, xor_convention)
    return throughput(space, steady_state(mat))
