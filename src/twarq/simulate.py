"""Seeded Monte Carlo execution of the ARQ protocol over sampled channels.

Runs are point-major.  A seed pins the channel trajectory (one PCG64 stream
per link, spawned from the seed) whatever the strategy, xor convention or
CSI view, so `run_many` draws it once per (model, horizon, seed) group, in
fixed blocks, and walks every protocol state machine of the group over each
block from where the previous block left it.  Memory is O(block) per
machine plus one record per completed round, whatever the horizon.

A machine is protocol.kernel, the (state, channel) table the analytic chain
is built from, for the run's CSI view.  The group's tables are concatenated,
and every (machine, chunk) column of a block advances in lockstep, one
gather per slot, from a guessed start a fixed lookback before its chunk; a
left-to-right stitch keeps the result exact.

Throughput is delivered packets over slots.  The standard error is a ratio
estimator over batches of whole rounds (regenerative statistics), which
stays honest under the strong within-round (and, at high correlation,
cross-round) dependence.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import JointChannelModel, LinkId, sample_link_path
from .protocol import CsiMode, Strategy, XorConvention, kernel

__all__ = ["CsiMode", "SimConfig", "SimStats", "run", "run_csi_comparison", "run_many"]


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
# Slots a guessed chunk walks before its first slot, so that it has mostly
# joined the true trajectory by then.  Capped at a quarter of the chunk: the
# short chunks of a short run would pay more lockstep steps than it saves.
_LOOKBACK = 256
# Slots converted to Python lists at a time while the stitch walks a chunk
# again; most chunks meet their guessed trajectory within a few rounds.
_STITCH_WINDOW = 64
# Round-aligned batches of the regenerative standard error.
_N_BATCHES = 100


@lru_cache(maxsize=None)
def _fsm(
    strategy: Strategy, convention: XorConvention, mode: CsiMode
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel for the CSI view as 1-D tables over the index s*8 + chan.

    Returns (nxt, done, start): nxt[s*8 + c] is 8*s' for the next state s',
    pre-scaled so that one add forms the next index; done[s*8 + c] marks a
    completed round; start[c] is 8*s for node T0 whose view is channel c.
    Only LAST_KNOWN keeps a view in the state, and that view alone fixes the
    CR choice; PREV_SLOT caches the choice in a token instead, and GENIE
    reads the current channel.  A run starts at start[7]: links never
    observed count as Good.
    """
    nxt, done = kernel(strategy, convention, mode)
    start = np.arange(8) if mode is CsiMode.LAST_KNOWN else np.zeros(8, dtype=np.intp)
    tables = (8 * nxt.ravel(), done.ravel(), 8 * start)
    for tab in tables:
        tab.setflags(write=False)
    return tables


def _walk(blocks: Iterable[np.ndarray], fsms: Sequence[tuple]) -> list[np.ndarray]:
    """Slots at which rounds complete, one array per FSM, over the
    concatenated channel blocks.  All FSMs walk each block together, each
    from the state it ended the previous block in, on one table: theirs
    stacked, each shifted by the size of those before it."""
    base = np.cumsum([0] + [fsm[0].shape[0] for fsm in fsms[:-1]])
    nxt = np.concatenate([fsm[0] + b for fsm, b in zip(fsms, base)])
    done = np.concatenate([fsm[1] for fsm in fsms])
    start = np.stack([fsm[2] + b for fsm, b in zip(fsms, base)])
    nxt_list = nxt.tolist()  # the stitch steps one slot at a time
    found = [[] for _ in fsms]
    offset = 0
    state = start[:, 7]
    for path in blocks:
        hits, state = _walk_block(path, state, nxt, nxt_list, done, start)
        for acc, h in zip(found, hits):
            acc.append(h + offset)
        offset += path.shape[0]
    return [np.concatenate(acc) for acc in found]


def _walk_block(path: np.ndarray, state: np.ndarray, nxt: np.ndarray, nxt_list: list,
                done: np.ndarray, start: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Walk one block as chunks, every FSM at once; returns (completion slots
    within the block per FSM, end states).

    Data-parallel FSM walk (Mytkowicz, Musuvathi & Schulte, ASPLOS 2014):
    each chunk after the first starts from a guess, start[c] for the channel
    c just before its lookback, and walks the lookback and then the chunk,
    one gather per slot for all (FSM, chunk) columns.  A left-to-right
    stitch per FSM walks a chunk whose guess differs from the true end of
    the chunk before it again from the true state, but only until the two
    trajectories meet; from there on they agree.  A chunk that never meets
    it, as when no round completes in it, is walked to its end.
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
    take = nxt.take
    # s[f, j]: FSM f's state in chunk j; the guesses walk the lookback first
    s = np.empty((state.shape[0], k), dtype=np.intp)
    s[:, 0] = state
    w = min(_LOOKBACK, length // 4)
    guess = start[:, chan[length - 1 - w, : k - 1]].copy()  # C order, for fast gathers
    ahead = np.empty_like(guess)
    for c in chan[length - w :, : k - 1]:
        np.add(guess, c, out=ahead)
        take(ahead, out=guess, mode="clip")
    s[:, 1:] = guess
    guesses = s.tolist()
    # idx[t, f, j] = state*8 + chan: the table index of FSM f in chunk j
    idx = np.empty((length, *s.shape), dtype=np.intp)
    for c, i in zip(chan, idx):
        np.add(s, c, out=i)
        take(i, out=s, mode="clip")
    ends = s.tolist()

    for f, (guessed_starts, guessed_ends) in enumerate(zip(guesses, ends)):
        true = guessed_starts[0]
        for j in range(k):
            if true == guessed_starts[j]:
                true = guessed_ends[j]
                continue
            for lo in range(0, length, _STITCH_WINDOW):
                hi = min(lo + _STITCH_WINDOW, length)
                walked = []
                for c, guessed in zip(chan[lo:hi, j].tolist(), idx[lo:hi, f, j].tolist()):
                    i = true + c
                    if i == guessed:
                        break
                    walked.append(i)
                    true = nxt_list[i]
                idx[lo : lo + len(walked), f, j] = walked
                if len(walked) < hi - lo:  # met the guessed trajectory
                    true = guessed_ends[j]
                    break
    end = nxt[idx[tail - 1, :, k - 1]]
    hits = done.take(idx).transpose(1, 2, 0).reshape(idx.shape[1], -1)[:, :n]
    return [np.flatnonzero(h) for h in hits], end


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


def _regenerative_stderr(lengths: np.ndarray) -> float:
    """Ratio-estimator standard error over round-aligned batches."""
    n_b = min(_N_BATCHES, lengths.shape[0])
    if n_b < 2:
        return float("nan")
    batches = np.array_split(lengths.astype(np.float64), n_b)
    batch_len = np.array([b.sum() for b in batches])
    batch_yield = np.array([2.0 * b.size for b in batches])
    eta = batch_yield.sum() / batch_len.sum()
    excess = batch_yield - eta * batch_len
    var = float((excess**2).sum()) / (n_b - 1)
    return math.sqrt(var / n_b) / float(batch_len.mean())


def _fsm_key(config: SimConfig) -> tuple[Strategy, XorConvention, CsiMode]:
    mode = config.csi_mode if config.strategy.reads_csi else CsiMode.PREV_SLOT
    return config.strategy, config.xor_convention, mode


def run_many(configs: Iterable[SimConfig]) -> list[SimStats]:
    """Simulate every configuration; results in input order, each equal to
    `run` of its configuration.  Configurations with the same (model,
    n_slots, seed) share one channel draw, walked by all their FSMs at once."""
    configs = list(configs)
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        groups.setdefault((c.model, c.n_slots, c.seed), []).append(i)
    out: list[SimStats] = [None] * len(configs)
    for (model, n_slots, seed), members in groups.items():
        keys = list(dict.fromkeys(_fsm_key(configs[i]) for i in members))
        walked = _walk(_channel_blocks(model, n_slots, seed), [_fsm(*key) for key in keys])
        completions = dict(zip(keys, walked))
        for i in members:
            lengths = np.diff(completions[_fsm_key(configs[i])], prepend=np.int64(-1))
            n_rounds = lengths.shape[0]
            out[i] = SimStats(
                config=configs[i],
                slots_run=n_slots,
                rounds_completed=n_rounds,
                delivered_packets=2 * n_rounds,
                throughput_estimate=2.0 * n_rounds / n_slots,
                std_error=_regenerative_stderr(lengths),
                mean_round_length=float(lengths.mean()) if n_rounds else float("nan"),
            )
    return out


def run(config: SimConfig) -> SimStats:
    """Simulate one configuration; deterministic for a fixed seed."""
    return run_many([config])[0]


def run_csi_comparison(config: SimConfig) -> tuple[SimStats, SimStats, SimStats]:
    """Run the same seed under the three CSI views, on one channel draw that
    all three walk; only the CR decision rule differs between the runs."""
    if not config.strategy.reads_csi:
        raise ValueError("CSI-mode comparison is defined for the CR family only")
    modes = (CsiMode.PREV_SLOT, CsiMode.LAST_KNOWN, CsiMode.GENIE)
    return tuple(run_many(replace(config, csi_mode=mode) for mode in modes))
