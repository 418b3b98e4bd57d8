"""Seeded Monte Carlo execution of the ARQ protocol over sampled channels.

A run streams the horizon in fixed blocks.  Each block samples the three
link chains (one independent PCG64 stream per link, spawned from the run
seed and carrying each link's state across blocks, so two runs with the
same seed share the exact channel trajectory regardless of strategy, xor
convention, or CSI mode) and walks the protocol state machine over it from
the state the previous block ended in.  Memory is O(block) plus one record
per completed round, whatever the horizon.

The walk is table-driven: the per-slot protocol step is a pure function of
(protocol node, decision view, channel state), so it is enumerated once per
strategy by literally executing policy_action/apply_slot on every
combination.  Folding the decision view into the state turns the protocol
into one finite-state machine over channel symbols, which is walked
data-parallel with numpy: chunks of a block advance in lockstep from
guessed starts and are stitched left to right.

Throughput is delivered packets over slots.  The standard error comes from
regenerative round statistics: completed rounds are grouped into batches
aligned on round boundaries, and a ratio-estimator variance is computed
over the batch sums, which keeps the estimate honest under the strong
within-round (and, at high correlation, cross-round) dependence.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import JointChannelModel, LinkId, sample_link_path, with_link_bit
from .protocol import (
    ArqState,
    Phase,
    PolicyContext,
    Strategy,
    XorConvention,
    apply_slot,
    policy_action,
    row_designates_c,
)

__all__ = ["CsiMode", "SimConfig", "SimStats", "run", "run_csi_comparison"]


class CsiMode(enum.Enum):
    """Channel view the CR decision rule reads.

    PREV_SLOT: the full previous-slot channel state (matches the analytic
    chain).  LAST_KNOWN: per-link values from the most recent feedback that
    exercised each link.  GENIE: the current slot's true state.
    """

    PREV_SLOT = "prev"
    LAST_KNOWN = "last-known"
    GENIE = "genie"


_CR_FAMILY = (Strategy.CR, Strategy.CR_NC)
_AR_FAMILY = (Strategy.AR, Strategy.AR_NC)


@dataclass(frozen=True)
class SimConfig:
    strategy: Strategy
    model: JointChannelModel
    n_slots: int
    seed: int
    csi_mode: CsiMode = CsiMode.PREV_SLOT
    xor_convention: XorConvention = XorConvention.SAME_INDEX

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {self.n_slots}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class SimStats:
    """Point estimate plus regenerative confidence information for one run."""

    config: SimConfig
    slots_run: int
    rounds_completed: int
    delivered_packets: int
    throughput_estimate: float
    std_error: float
    mean_round_length: float


# ---------------------------------------------------------------------------
# Protocol step tables.
#
# Node encoding: 0 = T0; 1..4 = T1(a); then the retransmission rows,
# 5 + b for strategies without a persistent token and 5 + 2*b + t for the
# AR family.  CR keeps no token in the node: its choice is recomputed every
# slot from the decision view.
# ---------------------------------------------------------------------------

_NODE_T0 = 0
_NODE_T1 = 1
_NODE_R = 5


def _n_nodes(strategy: Strategy) -> int:
    return _NODE_R + (24 if strategy in _AR_FAMILY else 12)


def _encode_r(strategy: Strategy, b: int, token: int) -> int:
    if strategy in _AR_FAMILY:
        return _NODE_R + 2 * b + token
    return _NODE_R + b


def _step_node(
    strategy: Strategy,
    convention: XorConvention,
    node: int,
    csi_bits: int,
    chan: int,
) -> tuple[int, bool, int]:
    """Execute one slot from an encoded node; returns (next node, round done,
    updated last-known view)."""
    if node == _NODE_T0:
        state = ArqState()
        ctx = PolicyContext(phase=Phase.TRANSMISSION_1)
    elif node < _NODE_R:
        a = node - _NODE_T1
        state = ArqState(ps1=(a >> 1) & 1, rs1=a & 1)
        ctx = PolicyContext(phase=Phase.TRANSMISSION_2)
    else:
        if strategy in _AR_FAMILY:
            b, token = divmod(node - _NODE_R, 2)
        else:
            b, token = node - _NODE_R, 0
        state = ArqState.from_b_index(b)
        ctx = PolicyContext(phase=Phase.RETRANSMISSION, token=token)
        ctx.set_csi_from_index(csi_bits, -1)

    action = policy_action(strategy, state, ctx)
    out = apply_slot(state, action, chan, convention)

    lk_next = csi_bits
    for link, bit in out.observed:
        lk_next = with_link_bit(lk_next, link, bit)

    if out.state.complete:
        return _NODE_T0, True, lk_next
    if node == _NODE_T0:
        a_new = (out.state.ps1 << 1) | out.state.rs1
        return _NODE_T1 + a_new, False, lk_next
    if node < _NODE_R:
        return _encode_r(strategy, out.state.b_index, 0), False, lk_next
    token_new = 0
    if strategy in _AR_FAMILY:
        token_new = ctx.token ^ (1 if row_designates_c(strategy, state.b_index) else 0)
    return _encode_r(strategy, out.state.b_index, token_new), False, lk_next


@lru_cache(maxsize=None)
def _tables(
    strategy: Strategy, convention: XorConvention
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = _n_nodes(strategy)
    next_tab = np.zeros((n, 8, 8), dtype=np.int16)
    done_tab = np.zeros((n, 8, 8), dtype=np.uint8)
    lk_tab = np.zeros((n, 8, 8), dtype=np.int8)
    for node in range(n):
        for csi in range(8):
            for chan in range(8):
                nxt, done, lk = _step_node(strategy, convention, node, csi, chan)
                next_tab[node, csi, chan] = nxt
                done_tab[node, csi, chan] = done
                lk_tab[node, csi, chan] = lk
    next_tab.setflags(write=False)
    done_tab.setflags(write=False)
    lk_tab.setflags(write=False)
    return next_tab, done_tab, lk_tab


# Walk geometry: the horizon is sampled and walked in blocks of _BLOCK slots,
# and each block is split into chunks of _CHUNK slots walked in lockstep.  A
# short block gets shorter chunks, at least _MIN_CHUNKS of them, so that a
# short run does not pay one numpy call per slot.
_BLOCK = 1 << 18
_CHUNK = 2048
_MIN_CHUNKS = 64
# Slots converted to Python lists at a time while the stitch walks a chunk
# again; most chunks meet their guessed trajectory within a few rounds.
_STITCH_WINDOW = 64


@lru_cache(maxsize=None)
def _fsm(
    strategy: Strategy, convention: XorConvention, mode: CsiMode
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The protocol with its decision view folded into one state, as 1-D
    tables over the index s*8 + chan.

    A state s is node*8 + prev for PREV_SLOT, node*8 + last-known view for
    LAST_KNOWN, and node alone for GENIE.  Returns (nxt, done, start):
    nxt[s*8 + c] is 8*s' for the next state s', pre-scaled so that one add
    forms the next index; done[s*8 + c] marks a completed round; start[c]
    is 8*s for node T0 whose view is channel c.  A run starts at start[7]
    (links never observed count as Good).
    """
    next_tab, done_tab, lk_tab = _tables(strategy, convention)
    chan = np.arange(8)
    if mode is CsiMode.GENIE:
        nxt = next_tab[:, chan, chan].astype(np.intp)
        done = done_tab[:, chan, chan]
        start = np.zeros(8, dtype=np.intp)
    else:
        view = chan if mode is CsiMode.PREV_SLOT else lk_tab
        nxt = 8 * next_tab.astype(np.intp) + view
        done = done_tab
        start = 8 * chan
    tables = (8 * nxt.ravel(), done.ravel().astype(bool), start)
    for tab in tables:
        tab.setflags(write=False)
    return tables


def _walk(
    blocks: Iterable[np.ndarray], nxt: np.ndarray, done: np.ndarray, start: np.ndarray
) -> np.ndarray:
    """Slots at which rounds complete over the concatenated channel blocks,
    walking each block from the state the previous one ended in."""
    found = []
    offset = 0
    state = int(start[7])
    for path in blocks:
        hits, state = _walk_block(path, state, nxt, done, start)
        found.append(hits + offset)
        offset += path.shape[0]
    return np.concatenate(found)


def _walk_block(
    path: np.ndarray, state: int, nxt: np.ndarray, done: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, int]:
    """Walk one block as chunks in lockstep; returns (completion slots within
    the block, end state).

    Data-parallel FSM walk (Mytkowicz, Musuvathi & Schulte, ASPLOS 2014):
    every chunk after the first is walked from a guessed start, node T0 with
    the view its previous slot gives, one gather per slot for all chunks.
    A left-to-right stitch then walks a chunk whose guess differs from the
    true end of the chunk before it again from the true state, but only
    until the two trajectories meet; from there on the guessed one is the
    true one.  A chunk that never meets it, as when no round completes in
    it, is walked to its end.
    """
    n = path.shape[0]
    length = max(1, min(_CHUNK, n // _MIN_CHUNKS))
    k = -(-n // length)
    tail = n - (k - 1) * length
    # chan[t, j] is slot j*length + t; the last chunk is padded with index 0
    # (every link Bad), in which no round completes
    chan = np.zeros((length, k), dtype=np.intp)
    chan.T[: k - 1] = path[: n - tail].reshape(k - 1, length)
    chan[:tail, k - 1] = path[n - tail :]
    # idx[t, j] = state*8 + chan: the table index of chunk j's trajectory
    idx = np.empty((length, k), dtype=np.intp)
    s = np.empty(k, dtype=np.intp)
    s[0] = state
    s[1:] = start[chan[length - 1, : k - 1]]
    guesses = s.tolist()
    take = nxt.take
    for c, i in zip(chan, idx):
        np.add(s, c, out=i)
        take(i, out=s, mode="clip")
    ends = s.tolist()

    nxt_list = nxt.tolist()
    true = state
    for j in range(k):
        if true == guesses[j]:
            true = ends[j]
            continue
        for lo in range(0, length, _STITCH_WINDOW):
            hi = min(lo + _STITCH_WINDOW, length)
            walked = []
            for c, guessed in zip(chan[lo:hi, j].tolist(), idx[lo:hi, j].tolist()):
                i = true + c
                if i == guessed:
                    break
                walked.append(i)
                true = nxt_list[i]
            idx[lo : lo + len(walked), j] = walked
            if len(walked) < hi - lo:  # met the guessed trajectory
                true = ends[j]
                break
    end = int(nxt[idx[tail - 1, k - 1]])
    hits = done[idx].T.ravel()[:n]
    return np.flatnonzero(hits), end


def _channel_blocks(
    model: JointChannelModel, n_slots: int, seed: int
) -> Iterator[np.ndarray]:
    """Joint channel indices for the horizon, _BLOCK slots at a time.

    One PCG64 stream per link, spawned from the run seed and drawn in the
    same order whatever the block size, so two runs with the same seed see
    the same trajectory.
    """
    children = np.random.SeedSequence(seed).spawn(4)  # 3 links + 1 spare
    links = [
        (model.link(link), np.random.Generator(np.random.PCG64(child)))
        for link, child in zip(LinkId, children)
    ]
    last = [None] * len(links)
    for lo in range(0, n_slots, _BLOCK):
        bits = [
            sample_link_path(ge, min(_BLOCK, n_slots - lo), rng, prev)
            for (ge, rng), prev in zip(links, last)
        ]
        last = [int(b[-1]) for b in bits]
        yield (bits[0] << 2) | (bits[1] << 1) | bits[2]


def _channel_path(model: JointChannelModel, n_slots: int, seed: int) -> np.ndarray:
    """Joint channel indices for the whole horizon."""
    return np.concatenate(list(_channel_blocks(model, n_slots, seed)))


def _regenerative_stderr(lengths: np.ndarray, n_batches: int = 100) -> float:
    """Ratio-estimator standard error over round-aligned batches."""
    n_rounds = lengths.shape[0]
    n_b = min(n_batches, n_rounds)
    if n_b < 2:
        return float("nan")
    batches = np.array_split(lengths.astype(np.float64), n_b)
    batch_len = np.array([b.sum() for b in batches])
    batch_yield = np.array([2.0 * b.size for b in batches])
    eta = batch_yield.sum() / batch_len.sum()
    excess = batch_yield - eta * batch_len
    var = float((excess**2).sum()) / (n_b - 1)
    return math.sqrt(var / n_b) / float(batch_len.mean())


def run(config: SimConfig) -> SimStats:
    """Simulate one configuration; deterministic for a fixed seed."""
    mode = config.csi_mode if config.strategy in _CR_FAMILY else CsiMode.PREV_SLOT
    fsm = _fsm(config.strategy, config.xor_convention, mode)
    blocks = _channel_blocks(config.model, config.n_slots, config.seed)
    lengths = np.diff(_walk(blocks, *fsm), prepend=np.int64(-1))
    n_rounds = lengths.shape[0]
    mean_len = float(lengths.mean()) if n_rounds else float("nan")
    return SimStats(
        config=config,
        slots_run=config.n_slots,
        rounds_completed=n_rounds,
        delivered_packets=2 * n_rounds,
        throughput_estimate=2.0 * n_rounds / config.n_slots,
        std_error=_regenerative_stderr(lengths),
        mean_round_length=mean_len,
    )


def run_csi_comparison(config: SimConfig) -> tuple[SimStats, SimStats, SimStats]:
    """Run the same seed (hence the same channel trajectory) under the three
    CSI views; only the CR decision rule differs between the runs."""
    if config.strategy not in _CR_FAMILY:
        raise ValueError("CSI-mode comparison is defined for the CR family only")
    return tuple(
        run(replace(config, csi_mode=mode))
        for mode in (CsiMode.PREV_SLOT, CsiMode.LAST_KNOWN, CsiMode.GENIE)
    )
