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
packets delivered per round, one round per T0 visit, since the kernel
enters T0 exactly when a round completes.  It is the long-run T0 share of
a run started at sub-state 0, solved on the recurrent class that run
settles in (see steady_state).

The sub-states are the previous-slot nodes of protocol.kernel_nodes times
the channel during the slot, m = node*8 + i.  The token t is the AR
alternation bit on every row, or on the C rows of CR the choice cached from
the channel the previous slot saw; RR and SW-ARQ keep none.  That yields
8+32+96 = 136 sub-states for SW-ARQ, RR and RR-NC, 8+32+192 = 232 for AR
and AR-NC, 176 for CR-NC and 184 for CR.  SW-ARQ's chain reproduces its
closed form 1 - P_ss, which analytic_many returns for it as the direct
link's stationary Good share, so nothing cancels as P_ss nears 1.

analytic_many does not solve pi P = pi on the whole chain.  It cuts every
run at its round starts, the T0 visits, where the ARQ bits are all zero
(Markov renewal).  Let Q be P restricted to the non-T0 sub-states and e(s)
the first step out of T0(s), a round that starts in channel s.  Then

    v(s) = e(s) (I - Q)^-1          expected visits per round,
    L(s) = 1 + v(s) 1               mean round length in slots,
    K(s, j) = v(s) P(., T0(j))      the channel the next round starts in,

and with nu the round-start law (nu K = nu, nu 1 = 1) the renewal-reward
theorem gives the T0 share of slots as 1 / (nu L), so eta = 2 / (nu L).

ARQ bits only latch from 0 to 1, so once T0 is cut out, the only cycles of
the kernel's node graph are self-loops and the token flips of one row, or,
in the last-known kernels of CR and CR-NC, whose R nodes keep the view, two
views of one row.  Its strongly connected components hold at most 2 nodes
(16 sub-states) in every kernel.  In their topological order I - Q is block
lower-triangular, and v is found by forward substitution, for all points
of a call at once.  A component's block of I - Q depends only on its
channels and inner steps, so the 16-17 components of a strategy share 5-6
distinct blocks, each inverted once per batch.  Every diagonal of I - Q is
the sum of the row's off-diagonal probabilities, never 1 - p_ii, which
cancels when rho is near 1 and a state is held with probability near 1;
nu comes from GTH state reduction of the 8x8 K, which forms no diagonal at
all (Grassmann, Taksar and Heyman, Operations Research 33(5), 1985).

Links pinned Good or Bad zero parts of p_c.  The block order and the closed
class that a run from sub-state 0 settles in depend only on which entries
of p_c are positive, so both are planned once per support pattern.  When
that class holds no T0 sub-state the rounds stall and eta = 0; otherwise the
renewal runs on the class, where every round ends, and sub-states outside
it get zero visits.  The dense steady_state of transition_matrix stays as
the reference: acceptance checks C1 and C5 run on it, and the tests and the
selftest check the renewal value against it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import JointChannelModel, joint_matrices, stationary_link
from .exceptions import NumericalError
from .protocol import Strategy, XorConvention, kernel, kernel_nodes

__all__ = [
    "SteadyState",
    "SubStateSpace",
    "aggregate_coarse",
    "analytic_many",
    "analytic_throughput",
    "enumerate_substates",
    "steady_state",
    "sw_arq_throughput",
    "throughput",
    "transition_matrix",
]

N_CHAN = 8
# Largest sup-norm residual of pi P = pi either solve accepts.
_RESIDUAL_TOL = 1e-10
# Points solved together.  Each holds two float64 arrays of 8 starts by
# 232 sub-states at most (30 KB), so a batch stays under 8 MB.
_BATCH = 256


class SubStateSpace:
    """Sizes of one strategy's sub-state blocks, m = node*8 + chan over the
    nodes of protocol.kernel_nodes: T0, then T1, then R."""

    def __init__(self, strategy: Strategy):
        self.strategy = strategy
        self.n_t0 = N_CHAN
        self.n_t1 = 4 * N_CHAN
        self.n_r = N_CHAN * len(kernel_nodes(strategy)) - self.n_t0 - self.n_t1

    def __len__(self) -> int:
        return self.n_t0 + self.n_t1 + self.n_r

    @property
    def t0_slice(self) -> slice:
        return slice(0, self.n_t0)

    @property
    def t1_slice(self) -> slice:
        return slice(self.n_t0, self.n_t0 + self.n_t1)

    @property
    def r_slice(self) -> slice:
        return slice(self.n_t0 + self.n_t1, len(self))


@lru_cache(maxsize=None)
def enumerate_substates(strategy: Strategy) -> SubStateSpace:
    """Full ordered sub-state space for a strategy.

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
    nxt = kernel(space.strategy, xor_convention)
    mat = _scatter(nxt, joint_matrices([model])[0])
    _check_rows(mat.sum(axis=1))
    return mat


def _scatter(nxt: np.ndarray, p_c: np.ndarray) -> np.ndarray:
    """Dense sub-state matrix with P[m, 8*nxt[m] + j] = p_c(i, j), m = node*8 + i."""
    m = np.arange(nxt.size)
    mat = np.zeros((m.size, m.size))
    mat[m[:, None], N_CHAN * nxt.reshape(-1, 1) + np.arange(N_CHAN)] = p_c[m % N_CHAN]
    return mat


def _check_rows(rowsums: np.ndarray) -> None:
    rowsum_err = np.abs(rowsums - 1.0).max(initial=0.0)
    if not rowsum_err <= 1e-12:  # NaN fails too
        raise NumericalError(f"transition matrix rows off stochastic by {rowsum_err}")


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


def steady_state(mat: np.ndarray) -> SteadyState:
    """Long-run state occupancy of the chain started at state 0.

    pi = pi P with sum(pi) = 1 is one LU solve on the recurrent class that
    the chain started at state 0 settles in, with the last balance equation
    replaced by the normalisation; every other state gets zero mass.  On
    that class the system is nonsingular even when degenerate links leave
    other closed classes (packets held behind a pinned-Bad relay) or make
    T0 transient (rounds that stall forever).  Raises NumericalError on
    negative or NaN mass or a residual above 1e-10.
    """
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("transition matrix must be square")
    if not np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-9:
        raise ValueError("matrix is not row-stochastic")

    cls = _closed_class(mat)
    system = mat[np.ix_(cls, cls)].T - np.eye(cls.size)
    system[-1] = 1.0
    rhs = np.zeros(cls.size)
    rhs[-1] = 1.0
    pi = np.zeros(n)
    pi[cls] = np.linalg.solve(system, rhs)

    if not pi.min() >= -1e-10:
        raise NumericalError(f"steady-state solve gave negative or NaN mass {pi.min()}")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    res = float(np.abs(pi @ mat - pi).max())
    if not (res <= _RESIDUAL_TOL and abs(pi.sum() - 1.0) <= 1e-12):
        raise NumericalError(
            f"steady-state residual {res} above {_RESIDUAL_TOL} on a "
            f"{cls.size}-state recurrent class"
        )
    return SteadyState(pi=pi, residual=res)


def throughput(space: SubStateSpace, steady: SteadyState) -> float:
    """Packets per slot: twice the stationary probability of the T0 block."""
    return 2.0 * float(steady.pi[space.t0_slice].sum())


def aggregate_coarse(space: SubStateSpace, steady: SteadyState) -> tuple[float, float, float]:
    """Collapse the stationary law onto the coarse (T0, T1, R) phases."""
    pi = steady.pi
    return (
        float(pi[space.t0_slice].sum()),
        float(pi[space.t1_slice].sum()),
        float(pi[space.r_slice].sum()),
    )


def sw_arq_throughput(p_ss: float) -> float:
    """Stop-and-wait baseline: 1 - P_ss, independent of channel correlation."""
    if not 0.0 <= p_ss <= 1.0:
        raise ValueError(f"direct-link outage probability must be in [0, 1], got {p_ss}")
    return 1.0 - p_ss


def analytic_throughput(
    strategy: Strategy,
    model: JointChannelModel,
    xor_convention: XorConvention = XorConvention.SAME_INDEX,
) -> float:
    """End-to-end throughput for any strategy under the given channel model."""
    return float(analytic_many(strategy, [model], xor_convention)[0])


def analytic_many(
    strategy: Strategy,
    models: Sequence[JointChannelModel],
    xor_convention: XorConvention = XorConvention.SAME_INDEX,
) -> np.ndarray:
    """Throughput of one strategy at every channel model, by the renewal
    solve of the module docstring, batched over the points that share a
    support pattern of p_c.  Each value equals what a one-point call gives.

    Raises NumericalError when a p_c row is off stochastic by more than
    1e-12, on negative or NaN mass, or when the slot-level law the renewal
    implies leaves a residual of pi P = pi above 1e-10 (or NaN).
    """
    if strategy is Strategy.SW_ARQ:
        return np.array([stationary_link(m.s1s2)[1] for m in models])
    p_c = joint_matrices(models)
    _check_rows(p_c.sum(axis=2))
    eta = np.empty(len(p_c))
    groups: dict[bytes, list[int]] = {}
    for k, pattern in enumerate(p_c > 0.0):
        groups.setdefault(pattern.tobytes(), []).append(k)
    for support, members in groups.items():
        plan = _plan(strategy, xor_convention, support)
        for lo in range(0, len(members), _BATCH):
            part = members[lo : lo + _BATCH]
            eta[part] = _renewal(plan, p_c[part])
    return eta


@dataclass(frozen=True)
class _System:
    """The matrix I - Q of a block, as a pattern over the p_c entries.

    Several blocks share one: their sub-states differ only in the node.
    """

    chan: np.ndarray  # the channel i of each sub-state
    pairs: np.ndarray  # flat p_c index i*8 + j for each (row, column) pair
    inner: np.ndarray  # inner[r, c] = 1.0 when sub-state r steps to c's node
    loop: np.ndarray  # sub-state r steps back to its own node


@dataclass(frozen=True)
class _Block:
    """One strongly connected set of kernel nodes, as its in-class sub-states."""

    gather: np.ndarray  # flow positions node*8 + i of the block's nodes, node-major
    cols: np.ndarray  # the in-class sub-states, as positions in `gather`
    sub: np.ndarray  # the same sub-states as chain indices node*8 + i
    system: int  # index of its I - Q in _Plan.systems
    dest: np.ndarray  # the distinct flow positions node*8 + i its sub-states exit to
    exits: np.ndarray  # exits[r, d] = 1.0 when sub-state r steps out to dest[d]


@dataclass(frozen=True)
class _Plan:
    """Block order and round starts of one (strategy, convention, support)."""

    starts: np.ndarray  # channels s with T0(s) in the closed class; empty on a stall
    first: np.ndarray  # flow position of the first step out of each T0(s)
    blocks: tuple[_Block, ...]
    systems: tuple[_System, ...]
    hops: np.ndarray  # (8, nodes, nodes): hops[i, n, nxt[n, i]] = 1


def _components(step: np.ndarray) -> list[np.ndarray]:
    """Strongly connected components of a graph, in topological order.

    A component's ancestors strictly contain those of every component
    before it, so sorting by their count is a topological order.
    """
    reach = np.array([_reach(step, n) for n in range(step.shape[0])])
    comp = reach & reach.T
    out, seen = [], np.zeros(step.shape[0], dtype=bool)
    for n in sorted(range(step.shape[0]), key=lambda n: (reach[:, n].sum(), n)):
        if not seen[n]:
            seen |= comp[n]
            out.append(np.flatnonzero(comp[n]))
    return out


@lru_cache(maxsize=None)
def _plan(strategy: Strategy, convention: XorConvention, support: bytes) -> _Plan:
    nxt = kernel(strategy, convention)
    n_nodes = nxt.shape[0]
    pattern = np.frombuffer(support, dtype=bool).reshape(N_CHAN, N_CHAN)
    cls = _closed_class(_scatter(nxt, pattern.astype(float)))
    in_class = np.zeros(nxt.size, dtype=bool)
    in_class[cls] = True
    hops = np.zeros((N_CHAN, n_nodes, n_nodes))
    hops[np.arange(N_CHAN), np.arange(n_nodes)[:, None], nxt] = 1.0
    starts = cls[cls < N_CHAN]

    step = hops.any(axis=0)  # the node graph of one round: no edges into T0
    step[:, 0] = False
    blocks, systems = [], {}
    for nodes in _components(step)[1:]:  # T0 comes first, alone
        gather = (N_CHAN * nodes[:, None] + np.arange(N_CHAN)).ravel()
        cols = np.flatnonzero(in_class[gather])
        if not (cols.size and starts.size):
            continue
        sub = gather[cols]
        node, chan = np.divmod(sub, N_CHAN)
        to = nxt[node, chan]
        inner = to[:, None] == node
        key = (chan.tobytes(), inner.tobytes())
        if key not in systems:
            systems[key] = _System(chan, N_CHAN * chan[:, None] + chan,
                                   inner.astype(float), to == node)
        rows = np.flatnonzero(~np.isin(to, nodes))
        dest, which = np.unique(N_CHAN * to[rows] + chan[rows], return_inverse=True)
        exits = np.zeros((sub.size, dest.size))
        exits[rows, which] = 1.0
        blocks.append(_Block(gather, cols, sub, list(systems).index(key), dest, exits))
    return _Plan(starts, N_CHAN * nxt[0, starts] + starts, tuple(blocks),
                 tuple(systems.values()), hops)


def _renewal(plan: _Plan, p_c: np.ndarray) -> np.ndarray:
    """eta for a batch of joint channel matrices that share the plan's support."""
    batch, n0 = p_c.shape[0], plan.starts.size
    if n0 == 0:  # the rounds stall: no T0 sub-state is recurrent
        return np.zeros(batch)
    flat = p_c.reshape(batch, N_CHAN * N_CHAN)
    diag = np.arange(N_CHAN)
    off = p_c.copy()
    off[:, diag, diag] = 0.0
    held, leave = off.sum(axis=2), p_c.sum(axis=2)  # GTH diagonals without and with a self-loop
    inverses = []
    for system in plan.systems:
        mat = system.inner * -flat[:, system.pairs]
        r = np.arange(system.chan.size)
        mat[:, r, r] = np.where(system.loop, held[:, system.chan], leave[:, system.chan])
        inverses.append(np.linalg.inv(mat))

    n_flow = plan.hops.shape[1] * N_CHAN
    # flow[b, s, n*8 + i]: entries per round into node n from a slot under channel i
    flow = np.zeros((batch, n0, n_flow))
    flow[:, np.arange(n0), plan.first] = 1.0
    visits = np.zeros((batch, n0, n_flow))
    for blk in plan.blocks:
        k = blk.gather.size // N_CHAN
        inflow = flow[:, :, blk.gather].reshape(batch, n0 * k, N_CHAN) @ p_c
        rhs = inflow.reshape(batch, n0, k * N_CHAN)[:, :, blk.cols]
        x = rhs @ inverses[blk.system]
        visits[:, :, blk.sub] = x
        flow[:, :, blk.dest] += x @ blk.exits

    # Round-start law nu K = nu by GTH state reduction of the small K: fold
    # the last start into the ones before it, pivoting on its outflow to
    # them, then back-substitute.
    k_mat = (flow[:, :, :N_CHAN] @ p_c)[:, :, plan.starts]
    for e in range(n0 - 1, 0, -1):
        out = k_mat[:, e, :e].sum(axis=1)
        k_mat[:, :e, :e] += k_mat[:, :e, e, None] * k_mat[:, e, None, :e] / out[:, None, None]
    nu = np.ones((batch, n0))
    for e in range(1, n0):
        nu[:, e] = np.einsum("bs,bs->b", nu[:, :e], k_mat[:, :e, e]) / k_mat[:, e, :e].sum(axis=1)
    nu /= nu.sum(axis=1, keepdims=True)
    cycle = np.einsum("bs,bs->b", nu, 1.0 + visits.sum(axis=2))

    pi = np.einsum("bs,bsn->bn", nu, visits)
    pi[:, plan.starts] += nu
    pi /= cycle[:, None]
    if not pi.min() >= -1e-10:  # NaN fails too
        raise NumericalError(f"renewal solve gave negative or NaN mass {pi.min()}")
    by_node = pi.reshape(batch, -1, N_CHAN)
    # pi P through the kernel: mass entering node n under channel i, times p_c
    entering = (by_node.transpose(2, 0, 1) @ plan.hops).transpose(1, 2, 0)
    res = np.abs(entering @ p_c - by_node).max(axis=(1, 2))
    if not res.max() <= _RESIDUAL_TOL:
        raise NumericalError(
            f"steady-state residual {res.max()} above {_RESIDUAL_TOL} on the renewal solve")
    return 2.0 / cycle
