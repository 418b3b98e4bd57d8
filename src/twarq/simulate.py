"""Seeded Monte Carlo execution of the ARQ protocol over sampled channels.

A run streams the horizon in fixed blocks.  Each block samples the three
link chains (one independent PCG64 stream per link, spawned from the run
seed and carrying each link's state across blocks, so two runs with the
same seed share the exact channel trajectory regardless of strategy, xor
convention, or CSI mode) and walks the protocol state machine over it from
the state the previous block ended in.  Memory is O(block) plus one record
per completed round, whatever the horizon.

The walk reads protocol.kernel, the (state, channel) table the analytic
chain is assembled from, for the run's CSI view: one finite-state machine
over channel symbols, walked data-parallel with numpy.  Chunks of a block
advance in lockstep from guessed starts and are stitched left to right.

Throughput is delivered packets over slots.  The standard error comes from
regenerative round statistics: completed rounds are grouped into batches
aligned on round boundaries, and a ratio-estimator variance is computed
over the batch sums, which keeps the estimate honest under the strong
within-round (and, at high correlation, cross-round) dependence.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import JointChannelModel, LinkId, sample_link_path
from .protocol import CsiMode, Strategy, XorConvention, kernel

__all__ = ["CsiMode", "SimConfig", "SimStats", "run", "run_csi_comparison"]

_CR_FAMILY = (Strategy.CR, Strategy.CR_NC)


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
    """The kernel for the CSI view as 1-D tables over the index s*8 + chan.

    Returns (nxt, done, start): nxt[s*8 + c] is 8*s' for the next state s',
    pre-scaled so that one add forms the next index; done[s*8 + c] marks a
    completed round; start[c] is 8*s for node T0 whose view is channel c
    (under LAST_KNOWN; the other views keep none in the state).  A run
    starts at start[7]: links never observed count as Good.
    """
    nxt, done = kernel(strategy, convention, mode)
    start = np.arange(8) if mode is CsiMode.LAST_KNOWN else np.zeros(8, dtype=np.intp)
    tables = (8 * nxt.ravel(), done.ravel(), 8 * start)
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
    every chunk after the first is walked from a guessed start, start[c] for
    the channel c of its previous slot, one gather per slot for all chunks.
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
