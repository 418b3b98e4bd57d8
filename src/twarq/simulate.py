"""Seeded Monte Carlo execution of the ARQ protocol over sampled channels.

Runs are point-major.  A seed pins the channel trajectory (one PCG64 stream
per link, spawned from the seed) whatever the strategy, xor convention or
CSI view, so `run_many` draws it once per (model, horizon, seed) group, in
fixed blocks, and walks every protocol state machine of the group over each
block from where the previous block left it.  Memory is O(block) per
machine plus its round record, one bit per slot and a round count per 512
slots, whatever the horizon.

A machine is protocol.kernel, the (state, channel) table the analytic chain
is built from, for the run's CSI view, composed into a table that steps four
slots at once and flags, by bit t of a nibble, a round completed in slot t.
A step's key is its four slots' joint channel indices in base 8, slot 0
lowest, read off the links' packed bits (`channel.sample_link_words`) one
table lookup per link byte.  The group's tables stand side by side, and
every (machine, chunk) column of a block advances in lockstep, one gather per
four slots, from a guessed start a fixed lookback before its chunk; a
left-to-right stitch keeps the result exact.  The nibbles of two consecutive
steps are one byte of the round record, and each block's rounds are
counted as its bytes are written.

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

from .channel import JointChannelModel, LinkId, sample_link_words
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
# and each block is split into chunks of _CHUNK slots walked in lockstep, four
# slots a step.  A short block gets shorter chunks, at least _MIN_CHUNKS of
# them, so that a short run does not pay one numpy call per step.
_BLOCK = 1 << 18
_CHUNK = 2048
_MIN_CHUNKS = 64
# Slots a guessed chunk walks before its first slot, so that it has mostly
# joined the true trajectory by then.  Capped at half the chunk: the short
# chunks of a short run would pay more lockstep steps than it saves.
_LOOKBACK = 256
# Round-aligned batches of the regenerative standard error.
_N_BATCHES = 100
# Bytes of a round record per block of slots, and per round count: 512
# slots, so that a rank is found within one unpacked window of 64 bytes.
_SEGMENT = _BLOCK // 8
_COUNTED = 64
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
# A link's byte of slots as its bits of two step keys: bit t of the byte goes
# to bit 3*(t % 4) of the first key (low half) or the second (high half).
_SPREAD = np.array([sum((b >> t & 1) << 3 * (t % 4) + 16 * (t // 4) for t in range(8))
                    for b in range(256)], dtype="<u4")


class _Record(NamedTuple):
    """Where one FSM's rounds complete: bit t of `bits` (little-endian
    within each byte) is set when a round completes in slot t, and
    counts[i] is the number of rounds completed in bytes
    i*_COUNTED .. (i+1)*_COUNTED - 1."""

    bits: np.ndarray
    counts: np.ndarray


def _counts(bits: np.ndarray) -> np.ndarray:
    """The rounds in each _COUNTED bytes of packed flags, along the last axis."""
    starts = np.arange(0, bits.shape[-1], _COUNTED)
    return np.add.reduceat(_POPCOUNT.take(bits), starts, axis=-1, dtype=np.int64)


class _Machine(NamedTuple):
    """FSMs side by side, as the tables the walk indexes (see `_fsm`)."""

    start: np.ndarray
    nxt4: np.ndarray
    done4: np.ndarray


def _then(nxt: np.ndarray, done: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Two steps of the [row, state] tables as one: row r2*R + r1 of the
    result takes row r1 and then row r2 of the R rows given, and flags the
    completions of r1 as they were and those of r2 shifted up `shift` bits."""
    n_rows = nxt.shape[0]
    done2 = done.take(nxt, axis=1)  # [r2, r1, state]
    done2 <<= shift
    done2 |= done
    return (nxt.take(nxt, axis=1).reshape(n_rows * n_rows, -1),
            done2.reshape(n_rows * n_rows, -1))


@lru_cache(maxsize=16)
def _fsm(keys: tuple[tuple[Strategy, XorConvention, CsiMode], ...]) -> _Machine:
    """The FSMs of the keys, each the kernel for its CSI view, side by side
    in one set of tables that steps four slots at a time: the states of each
    FSM shifted by those of the FSMs before it.  Kept per group of keys,
    since a sweep walks the same group at every point.

    A step key is the joint channel indices c0..c3 of its four slots in
    base 8, c0 + 8*c1 + 64*c2 + 512*c3.  Both tables are channel-major,
    [key, state]: nxt4 is the state after the four slots (uint16), and done4
    a nibble whose bit t marks a round completed in slot t (uint8), so that
    the flags of two consecutive steps make one little-endian byte of the
    round record.  They are the kernels composed into a two-slot step and
    that step composed with itself, whose rows `_then` lays out in key
    order.  A slot completes a round exactly when its kernel steps to T0,
    so the one-slot flags are the kernel entries equal to 0, read before
    the states are shifted.

    start[f] is the state of FSM f's T0, kernel state 0, where every run
    of it starts.
    """
    kernels = [kernel(*key) for key in keys]
    sizes = [nxt.shape[0] for nxt in kernels]
    base = np.cumsum([0] + sizes[:-1])
    nxt = np.concatenate(kernels)
    done = nxt == 0
    nxt += np.repeat(base, sizes)[:, None]
    nxt, done = nxt.T.astype(np.uint16), done.T.astype(np.uint8)  # [channel, state]
    tables = _Machine(base, *_then(*_then(nxt, done, 1), 2))
    for tab in tables:
        tab.setflags(write=False)
    return tables


def _walk(blocks: Iterable[np.ndarray], fsms: _Machine, n_slots: int) -> list[_Record]:
    """The round record of each of the FSMs over n_slots slots whose step
    keys come in blocks, every block _BLOCK slots long but the last, as
    `_channel_blocks` yields them.  All FSMs walk each block together, each
    from the state it ended the previous block in.  Block i's flags are
    written into the records at byte i*_SEGMENT, and their round counts,
    taken while the flags are fresh, at window i*_SEGMENT/_COUNTED."""
    n_bytes = -(-n_slots // 8)
    bits = np.zeros((fsms.start.shape[0], n_bytes), dtype=np.uint8)
    counts = np.zeros((fsms.start.shape[0], -(-n_bytes // _COUNTED)), dtype=np.int64)
    state = fsms.start
    for lo, keys in zip(range(0, n_bytes, _SEGMENT), blocks):
        packed, state = _walk_block(keys, state, fsms)
        bits[:, lo : lo + packed.shape[1]] = packed
        counts[:, lo // _COUNTED : (lo + _SEGMENT) // _COUNTED] = _counts(packed)
    return list(map(_Record, bits, counts))


def _walk_block(keys: np.ndarray, state: np.ndarray,
                fsms: _Machine) -> tuple[np.ndarray, np.ndarray]:
    """Walk one block as chunks, every FSM at once, four slots a step;
    returns (completion flags, end states), the flags of FSM f packed
    little-endian into row f, one bit per slot of the block.

    The block comes as its step keys (see `_step_keys`), two per byte of
    slots, and a step of an FSM in state s reads entry key*S + s of the
    `_fsm` tables, S states wide.  The nibbles of two consecutive steps
    make one byte of flags.  The end states are those after the block's
    last step, so only a block of whole bytes carries them on; a shorter
    block, which can only be the last one, ends in slots padded all-Bad,
    in which no round completes.

    Data-parallel FSM walk (Mytkowicz, Musuvathi & Schulte, ASPLOS 2014):
    each chunk after the first starts from a guess, the FSM's T0, and walks
    the lookback and then the chunk, one gather per step for all (FSM,
    chunk) columns.  A left-to-right stitch per FSM walks a chunk whose
    guess differs from the true end of the chunk before it again from the
    true state, its keys and guessed indices taken as lists once, but only
    until the two trajectories meet; from there on they agree.  A chunk
    that never meets it, as when no round completes in it, is walked to its
    end.
    """
    m = keys.shape[0]
    start, nxt4, done4 = fsms
    n_states = nxt4.shape[1]
    nxt4, done4 = nxt4.ravel(), done4.ravel()
    length = max(1, min(_CHUNK // 4, m // _MIN_CHUNKS))
    k = -(-m // length)
    tail = m - (k - 1) * length
    # chan[t, j] is step j*length + t; the last chunk is padded with key 0
    # (every link Bad in all four slots), in which no round completes
    chan = np.zeros((length, k), dtype=np.intp)
    chan.T[: k - 1] = keys[: m - tail].reshape(k - 1, length)
    chan[:tail, k - 1] = keys[m - tail :]
    # s[f, j]: FSM f's state in chunk j; the guesses walk the lookback first
    w = min(_LOOKBACK // 4, length // 2)
    s = np.empty((state.shape[0], k), dtype=np.uint16)
    s[:, 0] = state
    guess = np.repeat(start[:, None].astype(np.uint16), k - 1, axis=1)
    chan *= n_states
    take = nxt4.take
    ahead = np.empty(guess.shape, dtype=np.intp)
    for c in chan[length - w :, : k - 1]:
        np.add(guess, c, out=ahead)
        take(ahead, out=guess, mode="clip")
    s[:, 1:] = guess
    guesses = s.tolist()
    # idx[t, f, j] = key*S + state: the table index of FSM f in chunk j
    idx = np.empty((length, *s.shape), dtype=np.intp)
    for c, i in zip(chan, idx):
        np.add(s, c, out=i)
        take(i, out=s, mode="clip")
    ends = s.tolist()

    step = nxt4.item
    for f, (guessed_starts, guessed_ends) in enumerate(zip(guesses, ends)):
        true = guessed_starts[0]
        for j, (guessed_start, guessed_end) in enumerate(zip(guessed_starts, guessed_ends)):
            if true == guessed_start:
                true = guessed_end
                continue
            walked = []
            for c, guessed in zip(chan[:, j].tolist(), idx[:, f, j].tolist()):
                i = true + c
                if i == guessed:  # met the guessed trajectory
                    true = guessed_end
                    break
                walked.append(i)
                true = step(i)
            idx[: len(walked), f, j] = walked
    end = nxt4[idx[tail - 1, :, k - 1]]
    flags = done4.take(idx).transpose(1, 2, 0).reshape(idx.shape[1], -1)
    return flags[:, 0:m:2] | flags[:, 1:m:2] << 4, end


def _step_keys(words: Sequence[np.ndarray], n_slots: int) -> np.ndarray:
    """The walk's step keys over n_slots slots of the S1-R, S2-R and S1-S2
    links' packed bits, two per byte of slots: slot t of a step is base-8
    digit t of its key, the slot's joint channel index (see `_fsm`).  Each
    link byte is spread by `_SPREAD` and shifted to its link's bit of the
    index; the two keys of a byte are read little-endian."""
    n_bytes = -(-n_slots // 8)
    keys = np.zeros(n_bytes, dtype="<u4")
    for link, shift in zip(words, (2, 1, 0)):
        keys |= _SPREAD.take(link.view(np.uint8)[:n_bytes]) << shift
    return keys.view("<u2")


def _channel_blocks(
    model: JointChannelModel, n_slots: int, seed: int
) -> Iterator[np.ndarray]:
    """The walk's step keys for the horizon, _BLOCK slots at a time, from
    each link's packed Good bits (see `sample_link_words`).

    One PCG64 stream per link, spawned from the run seed and drawn in the
    same order whatever the block size, so two runs with the same seed see
    the same trajectory.
    """
    children = np.random.SeedSequence(seed).spawn(len(LinkId))
    links = [
        (model.link(link), np.random.Generator(np.random.PCG64(child)))
        for link, child in zip(LinkId, children)
    ]
    last = [None] * len(links)
    for lo in range(0, n_slots, _BLOCK):
        n = min(_BLOCK, n_slots - lo)
        words = [sample_link_words(ge, n, rng, prev) for (ge, rng), prev in zip(links, last)]
        last = [int(w[(n - 1) // 64]) >> (n - 1) % 64 & 1 for w in words]
        yield _step_keys(words, n)


def _slots_by_rank(record: _Record, ranks: np.ndarray) -> np.ndarray:
    """The slot in which round r completes (rounds counted from 0), for each
    r of the ascending ranks, all below the record's round count.

    The counts give each rank's window of _COUNTED bytes, and a cumulative
    count over the window's unpacked bits the slot.  All windows are
    gathered at once; the last may run past the record, and the clipped
    gather repeats its last byte there, after every round that window
    holds."""
    ends = np.cumsum(record.counts)
    window = np.searchsorted(ends, ranks, side="right")
    rank = ranks - (ends[window] - record.counts[window])  # rank within the window
    first = window * _COUNTED
    window_bits = record.bits.take(first[:, None] + np.arange(_COUNTED), mode="clip")
    unpacked = np.unpackbits(window_bits, axis=1, bitorder="little")
    bit = (np.cumsum(unpacked, axis=1) > rank[:, None]).argmax(axis=1)
    return 8 * first + bit


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
        records = _walk(_channel_blocks(model, n_slots, seed), _fsm(tuple(keys)), n_slots)
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
