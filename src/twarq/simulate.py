"""Seeded Monte Carlo execution of the ARQ protocol over sampled channels.

Runs are point-major.  A seed pins the channel trajectory (one PCG64 stream
per link, spawned from the seed) whatever the strategy, xor convention or
CSI view, so `run_many` draws it once per (model, horizon, seed) group, in
fixed blocks, and walks every protocol state machine of the group over each
block from where the previous block left it.  Memory is O(block) per
machine plus its round record, one bit per slot, whatever the horizon.

A machine is protocol.kernel, the (state, channel) table the analytic chain
is built from, for the run's CSI view, composed with itself into a table
that steps two slots at once and flags, by bit 0 and bit 8, which of the two
slots completed a round.  The group's tables are concatenated, and every
(machine, chunk) column of a block advances in lockstep, one gather per
pair of slots, from a guessed start a fixed lookback before its chunk; a
left-to-right stitch keeps the result exact.

Throughput is delivered packets over slots.  The standard error is a ratio
estimator over batches of whole rounds (regenerative statistics), which
stays honest under the strong within-round (and, at high correlation,
cross-round) dependence.  It needs only the slots that end each batch,
which are read from the round record by rank.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

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
# and each block is split into chunks of _CHUNK slots walked in lockstep, two
# slots a step.  A short block gets shorter chunks, at least _MIN_CHUNKS of
# them, so that a short run does not pay one numpy call per slot pair.
_BLOCK = 1 << 18
_CHUNK = 2048
_MIN_CHUNKS = 64
# Slots a guessed chunk walks before its first slot, so that it has mostly
# joined the true trajectory by then.  Capped at a quarter of the chunk: the
# short chunks of a short run would pay more lockstep steps than it saves.
_LOOKBACK = 256
# Slot pairs converted to Python lists at a time while the stitch walks a
# chunk again; most chunks meet their guessed trajectory within a few rounds.
_STITCH_WINDOW = 64
# Round-aligned batches of the regenerative standard error.
_N_BATCHES = 100
# Bytes of a round record per round count: one block of slots.
_SEGMENT = _BLOCK // 8
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


class _Record(NamedTuple):
    """Where one FSM's rounds complete: bit t of `bits` (little-endian
    within each byte) is set when a round completes in slot t, and
    counts[i] is the number of rounds completed in bytes
    i*_SEGMENT .. (i+1)*_SEGMENT - 1."""

    bits: np.ndarray
    counts: np.ndarray


def _record(bits: np.ndarray) -> _Record:
    """The record of a packed completion bitmap, counted segment by segment."""
    counts = [int(_POPCOUNT.take(bits[lo : lo + _SEGMENT]).sum())
              for lo in range(0, bits.shape[0], _SEGMENT)]
    return _Record(bits, np.array(counts, dtype=np.int64))


class _Machine(NamedTuple):
    """One kernel as the flat tables the walk indexes (see `_fsm`)."""

    start: np.ndarray
    nxt2: np.ndarray
    done2: np.ndarray


@lru_cache(maxsize=None)
def _fsm(strategy: Strategy, convention: XorConvention, mode: CsiMode) -> _Machine:
    """The kernel for the CSI view, stepped two slots at a time.

    Over the index s*64 + c1*8 + c2 of a state and the channels of two
    slots, nxt2 is 64*s'' for the state after both, pre-scaled so that one
    add forms the next index, and done2 is a little-endian 16-bit flag: bit
    0 marks a round completed in the first slot, bit 8 one completed in the
    second, so that the bytes of a run of flags mark completions slot by
    slot.  start[c] is the state of node T0 whose view is channel c.  Only
    LAST_KNOWN keeps a view in the state, and that view alone fixes the CR
    choice; PREV_SLOT caches the choice in a token instead, and GENIE reads
    the current channel.  A run starts at start[7]: links never observed
    count as Good.
    """
    nxt, done = kernel(strategy, convention, mode)
    nxt, done = nxt.ravel(), done.ravel()
    mid = 8 * nxt[:, None] + np.arange(8)  # the index of the second slot
    done2 = done[:, None] | done[mid].astype(np.uint16) << 8
    start = np.arange(8) if mode is CsiMode.LAST_KNOWN else np.zeros(8, dtype=np.intp)
    tables = _Machine(start, 64 * nxt[mid].ravel(), done2.ravel().astype("<u2"))
    for tab in tables:
        tab.setflags(write=False)
    return tables


def _walk(blocks: Iterable[np.ndarray], fsms: Sequence[_Machine],
          n_slots: int) -> list[_Record]:
    """The round record of each FSM over the concatenated channel blocks,
    n_slots in all, every block _BLOCK slots long but the last, as
    `_channel_blocks` yields them.  All FSMs walk each block together, each
    from the state it ended the previous block in, on one table: theirs
    stacked, each shifted by the states of those before it.  Block i's
    packed flags are written into the records at byte i*_SEGMENT."""
    base = np.cumsum([0] + [fsm.nxt2.shape[0] // 64 for fsm in fsms[:-1]])
    nxt2 = np.concatenate([fsm.nxt2 + 64 * b for fsm, b in zip(fsms, base)])
    done2 = np.concatenate([fsm.done2 for fsm in fsms])
    start = 64 * np.stack([fsm.start + b for fsm, b in zip(fsms, base)])
    nxt2_list = nxt2.tolist()  # the stitch steps one pair of slots at a time
    bits = np.zeros((len(fsms), -(-n_slots // 8)), dtype=np.uint8)
    state = start[:, 7]
    for lo, path in zip(range(0, bits.shape[1], _SEGMENT), blocks):
        packed, state = _walk_block(path, state, nxt2, nxt2_list, done2, start)
        bits[:, lo : lo + packed.shape[1]] = packed
    return [_record(row) for row in bits]


def _walk_block(path: np.ndarray, state: np.ndarray, nxt2: np.ndarray, nxt2_list: list,
                done2: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walk one block as chunks, every FSM at once, two slots a step;
    returns (completion flags, end states), the flags of FSM f packed
    little-endian into row f, one bit per slot of the block.

    A step reads the channels of a pair of slots as one index c1*8 + c2
    into the two-slot tables of `_fsm`, whose flag marks a completion in
    the pair's first slot by bit 0 and in its second by bit 8.  The end
    states are those after the block's last pair, so only a block of even
    length carries them on; an odd block, which can only be the last one,
    ends in a pair padded with one all-Bad slot.

    Data-parallel FSM walk (Mytkowicz, Musuvathi & Schulte, ASPLOS 2014):
    each chunk after the first starts from a guess, start[c] for the channel
    c just before its lookback, and walks the lookback and then the chunk,
    one gather per pair of slots for all (FSM, chunk) columns.  A
    left-to-right stitch per FSM walks a chunk whose guess differs from the
    true end of the chunk before it again from the true state, but only
    until the two trajectories meet; from there on they agree.  A chunk
    that never meets it, as when no round completes in it, is walked to its
    end.
    """
    n = path.shape[0]
    m = -(-n // 2)  # slot pairs
    length = max(1, min(_CHUNK // 2, m // _MIN_CHUNKS))
    k = -(-m // length)
    tail = m - (k - 1) * length
    pairs = path[::2] << 3
    pairs[: n // 2] |= path[1::2]
    # chan[t, j] is pair j*length + t; the last chunk is padded with index 0
    # (every link Bad in both slots), in which no round completes
    chan = np.zeros((length, k), dtype=np.intp)
    chan.T[: k - 1] = pairs[: m - tail].reshape(k - 1, length)
    chan[:tail, k - 1] = pairs[m - tail :]
    take = nxt2.take
    # s[f, j]: FSM f's state in chunk j; the guesses walk the lookback first
    s = np.empty((state.shape[0], k), dtype=np.intp)
    s[:, 0] = state
    w = min(_LOOKBACK // 2, length // 4)
    # C order, for fast gathers; c & 7 is the second slot of pair c
    guess = start[:, chan[length - 1 - w, : k - 1] & 7].copy()
    ahead = np.empty_like(guess)
    for c in chan[length - w :, : k - 1]:
        np.add(guess, c, out=ahead)
        take(ahead, out=guess, mode="clip")
    s[:, 1:] = guess
    guesses = s.tolist()
    # idx[t, f, j] = state*64 + pair: the table index of FSM f in chunk j
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
                    true = nxt2_list[i]
                idx[lo : lo + len(walked), f, j] = walked
                if len(walked) < hi - lo:  # met the guessed trajectory
                    true = guessed_ends[j]
                    break
    end = nxt2[idx[tail - 1, :, k - 1]]
    flags = done2.take(idx).transpose(1, 2, 0).reshape(idx.shape[1], -1)
    # every byte of a flag is 0 or 1, one byte per slot
    return np.packbits(flags.view(np.uint8)[:, :n], axis=1, bitorder="little"), end


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


def _slots_by_rank(record: _Record, ranks: np.ndarray) -> np.ndarray:
    """The slot in which round r completes (rounds counted from 0), for each
    r of the ascending ranks, all below the record's round count.

    The segment counts give the segment, a cumulative popcount over that
    segment's bytes the byte, and the byte's unpacked bits the slot."""
    ends = np.cumsum(record.counts)
    segment = np.searchsorted(ends, ranks, side="right")
    slots = np.empty(ranks.shape[0], dtype=np.int64)
    for s in np.unique(segment).tolist():
        at = segment == s
        lo = s * _SEGMENT
        seg_bits = record.bits[lo : lo + _SEGMENT]
        by_byte = np.cumsum(_POPCOUNT.take(seg_bits), dtype=np.intp)
        rank = ranks[at] - (ends[s] - record.counts[s])
        byte = np.searchsorted(by_byte, rank, side="right")
        rank -= by_byte[byte] - _POPCOUNT.take(seg_bits[byte])  # rank within the byte
        unpacked = np.unpackbits(seg_bits[byte, None], axis=1, bitorder="little")
        bit = (np.cumsum(unpacked, axis=1) > rank[:, None]).argmax(axis=1)
        slots[at] = 8 * (lo + byte) + bit
    return slots


def _round_stats(record: _Record) -> tuple[int, float, float]:
    """(rounds completed, regenerative standard error, mean round length).

    The standard error is the ratio estimator over round-aligned batches,
    which split the rounds as np.array_split does.  A batch's length is the
    gap between the completion slots that bound it, an integer, so each
    float is the one a sum over its round lengths gives."""
    n_rounds = int(record.counts.sum())
    if not n_rounds:
        return 0, float("nan"), float("nan")
    n_b = min(_N_BATCHES, n_rounds)
    rounds = np.full(n_b, n_rounds // n_b)
    rounds[: n_rounds % n_b] += 1
    ends = _slots_by_rank(record, np.cumsum(rounds) - 1)
    # the rounds fill slots 0..ends[-1]
    mean_round_length = (int(ends[-1]) + 1) / n_rounds
    if n_b < 2:
        return n_rounds, float("nan"), mean_round_length
    batch_len = np.diff(ends, prepend=-1).astype(np.float64)
    batch_yield = 2.0 * rounds
    eta = batch_yield.sum() / batch_len.sum()
    excess = batch_yield - eta * batch_len
    var = float((excess**2).sum()) / (n_b - 1)
    return n_rounds, math.sqrt(var / n_b) / float(batch_len.mean()), mean_round_length


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
        records = _walk(_channel_blocks(model, n_slots, seed),
                        [_fsm(*key) for key in keys], n_slots)
        stats = {key: _round_stats(record) for key, record in zip(keys, records)}
        for i in members:
            n_rounds, std_error, mean_round_length = stats[_fsm_key(configs[i])]
            out[i] = SimStats(
                config=configs[i],
                slots_run=n_slots,
                rounds_completed=n_rounds,
                delivered_packets=2 * n_rounds,
                throughput_estimate=2.0 * n_rounds / n_slots,
                std_error=std_error,
                mean_round_length=mean_round_length,
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
