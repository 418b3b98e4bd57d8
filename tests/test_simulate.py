import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twarq.analysis import analytic_throughput
from twarq.channel import (
    JointChannelModel,
    LinkId,
    db_to_linear,
    fading_margin_from_outage,
    outage_probability,
    sample_link_path,
)
from twarq.protocol import Strategy, XorConvention, kernel
from twarq.simulate import (
    _BLOCK,
    _CHUNK,
    CsiMode,
    SimConfig,
    _channel_path,
    _fsm,
    _record,
    _round_stats,
    _slots_by_rank,
    _walk,
    run,
    run_csi_comparison,
    run_many,
)

from _oracles import (
    link_path_scalar,
    round_stats_from_lengths,
    simulate_reference,
    walk_reference,
)

COOPERATIVE = [s for s in Strategy if s.cooperative]


def model_for(pss, ratio_db, rho):
    margin_r = fading_margin_from_outage(pss) * db_to_linear(ratio_db)
    return JointChannelModel.symmetric(pss, outage_probability(margin_r), rho)


MODEL = model_for(0.5, 10.0, 0.9)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(Strategy.RR, MODEL, n_slots=0, seed=1)
    with pytest.raises(ValueError):
        SimConfig(Strategy.RR, MODEL, n_slots=10, seed=-1)


def test_csi_comparison_needs_cr():
    with pytest.raises(ValueError):
        run_csi_comparison(SimConfig(Strategy.RR, MODEL, n_slots=10, seed=1))


# ---------------------------------------------------------------------------
# Determinism and bookkeeping
# ---------------------------------------------------------------------------


def test_same_seed_bit_identical():
    cfg = SimConfig(Strategy.AR_NC, MODEL, n_slots=50_000, seed=99)
    assert run(cfg) == run(cfg)


def test_different_seed_differs():
    cfg = SimConfig(Strategy.AR_NC, MODEL, n_slots=50_000, seed=99)
    other = run(replace(cfg, seed=100))
    assert other.rounds_completed != run(cfg).rounds_completed


def test_stats_accounting():
    cfg = SimConfig(Strategy.RR_NC, MODEL, n_slots=20_000, seed=5)
    stats = run(cfg)
    assert stats.slots_run == 20_000
    assert stats.delivered_packets == 2 * stats.rounds_completed
    assert stats.throughput_estimate == 2.0 * stats.rounds_completed / 20_000
    assert 0.0 <= stats.throughput_estimate <= 1.0


def test_trailing_incomplete_round_counts_slots():
    model = JointChannelModel.from_outage(0.0, 0.0, 0.0, 0.0)
    stats = run(SimConfig(Strategy.RR, model, n_slots=3, seed=1))
    assert stats.slots_run == 3
    assert stats.rounds_completed == 1
    assert stats.throughput_estimate == pytest.approx(2.0 / 3.0)


def test_perfect_channels_every_strategy():
    model = JointChannelModel.from_outage(0.0, 0.0, 0.0, 0.0)
    for strat in Strategy:
        stats = run(SimConfig(strat, model, n_slots=1000, seed=3))
        assert stats.throughput_estimate == 1.0
        assert stats.mean_round_length == 2.0
        assert stats.std_error == 0.0


def test_all_bad_channels_deliver_nothing():
    model = JointChannelModel.from_outage(1.0, 1.0, 1.0, 0.0)
    stats = run(SimConfig(Strategy.RR_NC, model, n_slots=1000, seed=3))
    assert stats.rounds_completed == 0
    assert stats.throughput_estimate == 0.0
    assert math.isnan(stats.mean_round_length)


# ---------------------------------------------------------------------------
# Kernel fidelity
# ---------------------------------------------------------------------------

REFERENCE_CONFIGS = [
    SimConfig(Strategy.SW_ARQ, model_for(0.4, 10.0, 0.5), 3000, 11),
    SimConfig(Strategy.RR, model_for(0.6, 0.0, 0.9), 3000, 12),
    SimConfig(Strategy.RR_NC, model_for(0.5, 10.0, 0.9), 3000, 13),
    SimConfig(Strategy.RR_NC, model_for(0.5, 10.0, 0.9), 3000, 13,
              xor_convention=XorConvention.PHYSICAL),
    SimConfig(Strategy.AR, model_for(0.7, 0.0, 0.999), 3000, 14),
    SimConfig(Strategy.AR_NC, model_for(0.3, 10.0, 0.0), 3000, 15),
    SimConfig(Strategy.CR, model_for(0.6, 0.0, 0.9), 3000, 16),
    SimConfig(Strategy.CR_NC, model_for(0.5, 10.0, 0.9), 3000, 17),
    SimConfig(Strategy.CR_NC, model_for(0.5, 10.0, 0.9), 3000, 17,
              csi_mode=CsiMode.LAST_KNOWN),
    SimConfig(Strategy.CR_NC, model_for(0.5, 10.0, 0.9), 3000, 17,
              csi_mode=CsiMode.GENIE),
    SimConfig(Strategy.CR, model_for(0.4, 10.0, 0.99), 3000, 18,
              csi_mode=CsiMode.LAST_KNOWN,
              xor_convention=XorConvention.PHYSICAL),
    SimConfig(Strategy.CR, model_for(0.6, 0.0, 0.9), 3000, 16,
              csi_mode=CsiMode.LAST_KNOWN),
    SimConfig(Strategy.CR_NC, model_for(0.5, 10.0, 0.9), 3000, 17,
              csi_mode=CsiMode.LAST_KNOWN,
              xor_convention=XorConvention.PHYSICAL),
]


@pytest.mark.parametrize("cfg", REFERENCE_CONFIGS, ids=lambda c: f"{c.strategy.value}-{c.csi_mode.value}-{c.xor_convention.value}-{c.seed}")
def test_table_walk_matches_slot_replay(cfg):
    """The table-driven kernel must reproduce, round for round, a direct
    slot-by-slot replay through the public protocol API."""
    rounds, lengths = simulate_reference(cfg)
    stats = run(cfg)
    assert stats.rounds_completed == rounds
    if rounds:
        assert stats.mean_round_length == pytest.approx(float(np.mean(lengths)))
        assert stats.throughput_estimate == 2.0 * rounds / cfg.n_slots


WALK_CASES = [
    (strategy, convention, mode)
    for strategy in Strategy
    if strategy is not Strategy.SW_ARQ
    for convention in XorConvention
    for mode in (CsiMode if strategy in (Strategy.CR, Strategy.CR_NC)
                 else [CsiMode.PREV_SLOT])
]
WALK_HORIZONS = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                 _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 17)


@pytest.fixture(scope="module")
def walk_path():
    return _channel_path(model_for(0.5, 10.0, 0.99), max(WALK_HORIZONS), seed=21)


def _walk_slots(blocks, fsms, n_slots):
    """Slots at which each FSM completes a round, read from its round record."""
    return [np.flatnonzero(np.unpackbits(record.bits, count=n_slots, bitorder="little"))
            for record in _walk(blocks, fsms, n_slots)]


def _walk_in_blocks(path, fsm):
    return _walk_group_in_blocks(path, [fsm])[0]


@pytest.mark.parametrize("strategy,convention,mode", WALK_CASES,
                         ids=lambda v: getattr(v, "value", v))
def test_walk_matches_sequential_reference(strategy, convention, mode, walk_path):
    """The chunked walk, streamed in blocks, completes rounds at exactly the
    slots the sequential table walk does: within one chunk, across chunk and
    block boundaries, and after chunks whose speculation never merges."""
    fsm = _fsm(strategy, convention, mode)
    expected = walk_reference(walk_path, strategy, convention, mode)
    for horizon in WALK_HORIZONS:
        got = _walk_in_blocks(walk_path[:horizon], fsm)
        assert np.array_equal(got, expected[expected < horizon]), horizon

    # one all-Good slot delivers p1, then every link is Bad for several
    # chunks: the round stalls in a node the T0 guesses never reach, so no
    # guessed trajectory meets the true one until the channel recovers
    outage = 5 * _CHUNK + 3
    path = np.concatenate(([7], np.zeros(outage, dtype=np.int8), walk_path[:3000]))
    expected = walk_reference(path, strategy, convention, mode)
    assert expected.size and expected[0] > outage
    assert np.array_equal(_walk_in_blocks(path, fsm), expected)


TABLE_CASES = [(s, c, m) for s in Strategy for c in XorConvention for m in CsiMode]


@pytest.mark.parametrize("strategy,convention,mode", TABLE_CASES,
                         ids=lambda v: getattr(v, "value", v))
def test_two_slot_tables_are_two_single_steps(strategy, convention, mode):
    """For every (state, c1, c2), the two-slot step lands where two kernel
    steps do, and its flag's first byte marks a round completed in the
    first slot, its second byte one completed in the second."""
    nxt, done = (tab.tolist() for tab in kernel(strategy, convention, mode))
    fsm = _fsm(strategy, convention, mode)
    nxt2 = fsm.nxt2.tolist()
    flags = fsm.done2.view(np.uint8).reshape(-1, 2).tolist()
    assert len(nxt2) == len(flags) == 64 * len(nxt)
    for s, (row_nxt, row_done) in enumerate(zip(nxt, done)):
        for c1, mid in enumerate(row_nxt):
            for c2 in range(8):
                i = 64 * s + 8 * c1 + c2
                assert nxt2[i] == 64 * nxt[mid][c2], (s, c1, c2)
                assert flags[i] == [row_done[c1], done[mid][c2]], (s, c1, c2)


def _walk_group_in_blocks(path, fsms):
    blocks = (path[lo : lo + _BLOCK] for lo in range(0, path.shape[0], _BLOCK))
    return _walk_slots(blocks, fsms, path.shape[0])


def test_grouped_walk_matches_sequential_reference(walk_path):
    """All walk cases stepped in one lockstep group over one path: each
    machine completes rounds at exactly the slots its sequential walk does."""
    fsms = [_fsm(*case) for case in WALK_CASES]
    expected = [walk_reference(walk_path, *case) for case in WALK_CASES]
    for horizon in WALK_HORIZONS:
        got = _walk_group_in_blocks(walk_path[:horizon], fsms)
        assert len(got) == len(WALK_CASES)
        for case, g, e in zip(WALK_CASES, got, expected):
            assert np.array_equal(g, e[e < horizon]), (horizon, case)

    outage = 5 * _CHUNK + 3
    path = np.concatenate(([7], np.zeros(outage, dtype=np.int8), walk_path[:3000]))
    for case, g in zip(WALK_CASES, _walk_group_in_blocks(path, fsms)):
        expected = walk_reference(path, *case)
        assert expected.size and expected[0] > outage
        assert np.array_equal(g, expected), case


def test_run_many_equals_run_in_input_order():
    """Interleaved configurations over two models and two seeds: grouping
    by channel path does not change any result or its position."""
    other = model_for(0.3, 0.0, 0.9)
    configs = [
        SimConfig(Strategy.RR_NC, MODEL, 30_000, 1),
        SimConfig(Strategy.CR_NC, other, 30_000, 2, csi_mode=CsiMode.LAST_KNOWN),
        SimConfig(Strategy.AR, MODEL, 30_000, 2),
        SimConfig(Strategy.CR, MODEL, 30_000, 1, csi_mode=CsiMode.GENIE),
        SimConfig(Strategy.SW_ARQ, other, 30_000, 1),
        SimConfig(Strategy.RR_NC, MODEL, 30_000, 1, xor_convention=XorConvention.PHYSICAL),
        SimConfig(Strategy.CR_NC, other, 30_000, 2),
        SimConfig(Strategy.RR_NC, MODEL, 30_000, 1),
        SimConfig(Strategy.RR_NC, MODEL, 30_000, 1, csi_mode=CsiMode.GENIE),
    ]
    got = run_many(configs)
    assert len(got) == len(configs)
    for cfg, stats in zip(configs, got):
        assert stats == run(cfg)
        assert stats.config is cfg


PINNED_SLOTS = 800_000  # three blocks and part of a fourth
PINNED_ROUNDS = [
    (Strategy.RR_NC, CsiMode.PREV_SLOT, 330294),
    (Strategy.AR_NC, CsiMode.PREV_SLOT, 330306),
    (Strategy.CR_NC, CsiMode.PREV_SLOT, 331349),
    (Strategy.CR_NC, CsiMode.LAST_KNOWN, 330804),
]


@pytest.mark.parametrize("strategy,mode,rounds", PINNED_ROUNDS,
                         ids=lambda v: getattr(v, "value", v))
def test_pinned_trajectories(strategy, mode, rounds):
    """Rounds completed by fixed-seed runs that span several blocks.  The
    values come from the sequential walk over a one-shot channel draw, so
    they pin the trajectory through block streaming and the chunked walk."""
    assert PINNED_SLOTS >= 3 * _BLOCK
    model = model_for(0.4, 10.0, 0.99)
    cfg = SimConfig(strategy, model, PINNED_SLOTS, 12345, csi_mode=mode)
    assert run(cfg).rounds_completed == rounds


def test_block_streamed_path_equals_one_shot_draw():
    model = model_for(0.4, 10.0, 0.99)
    n = 2 * _BLOCK + 5
    children = np.random.SeedSequence(8).spawn(4)
    bits = [
        link_path_scalar(model.link(link), n, np.random.Generator(np.random.PCG64(child)))
        for link, child in zip(LinkId, children)
    ]
    expected = (bits[0] << 2) | (bits[1] << 1) | bits[2]
    assert np.array_equal(_channel_path(model, n, seed=8), expected)


def _traced_growth_per_slot(cfg, horizons):
    """Traced peak of the run at the longer horizon less that at the shorter,
    per slot between them."""
    peaks = []
    for n_slots in horizons:
        tracemalloc.start()
        try:
            run(replace(cfg, n_slots=n_slots))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return (peaks[1] - peaks[0]) / (horizons[1] - horizons[0])


def test_memory_does_not_grow_with_horizon():
    """Past the fixed per-block buffers, a run keeps only its round record,
    one bit per slot."""
    cfg = SimConfig(Strategy.CR_NC, model_for(0.4, 10.0, 0.99), 400_000, 12345)
    assert _traced_growth_per_slot(cfg, (400_000, 2_000_000)) <= 12.0


def test_memory_of_a_1e8_slot_run():
    """A 10^8-slot run outgrows a 4*10^5-slot one by its round record alone:
    a uint8 holds the flags of 8 slots, 0.125 B/slot, and the bound leaves
    as much again for the rest."""
    cfg = SimConfig(Strategy.RR_NC, model_for(0.4, 10.0, 0.99), 400_000, 12345)
    assert _traced_growth_per_slot(cfg, (400_000, 100_000_000)) <= 0.25


# ---------------------------------------------------------------------------
# Round statistics
# ---------------------------------------------------------------------------


def _assert_stats_match_oracle(stats, done):
    std_error, mean_round_length = round_stats_from_lengths(done)
    assert stats.rounds_completed == done.shape[0]
    assert stats.std_error.hex() == std_error.hex()
    assert stats.mean_round_length.hex() == mean_round_length.hex()


# Slots next to byte and block edges of a record.
RECORD_EDGES = (0, 1, 7, 8, 9, 15, 16, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                2 * _BLOCK - 8, 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 8)


@st.composite
def completion_flags(draw):
    """Dense random flags over up to 300 slots, or a few flags over up to two
    blocks and a bit, most of them next to a byte or block edge."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.booleans(), min_size=1, max_size=300)))
    n = draw(st.integers(1, 2 * _BLOCK + 9))
    near_edge = st.sampled_from([e for e in RECORD_EDGES if e < n])
    slots = draw(st.lists(near_edge | st.integers(0, n - 1), max_size=40))
    flags = np.zeros(n, dtype=bool)
    flags[slots] = True
    return flags


def _one_hot(n, *slots):
    flags = np.zeros(n, dtype=bool)
    flags[list(slots)] = True
    return flags


@given(completion_flags())
@example(_one_hot(13))
@example(_one_hot(_BLOCK + 3, _BLOCK))
@example(_one_hot(9, 7, 8))
@example(_one_hot(2 * _BLOCK + 1, _BLOCK - 1, 2 * _BLOCK))
@settings(max_examples=150, deadline=None)
def test_slots_by_rank_match_unpacked_bits(flags):
    """Each round's slot, found by rank through the segment counts and the
    popcounts, is the slot of its set bit; the round statistics read from
    those slots equal the per-round oracle's."""
    n = flags.shape[0]
    record = _record(np.packbits(flags, bitorder="little"))
    done = np.flatnonzero(np.unpackbits(record.bits, count=n, bitorder="little"))
    assert np.array_equal(done, np.flatnonzero(flags))
    assert np.array_equal(_slots_by_rank(record, np.arange(done.shape[0])), done)
    n_rounds, std_error, mean_round_length = _round_stats(record)
    assert n_rounds == done.shape[0]
    assert (std_error.hex(), mean_round_length.hex()) == tuple(
        x.hex() for x in round_stats_from_lengths(done))


@pytest.mark.parametrize("rounds", [0, 1, 2, 99, 100, 101])
def test_round_stats_equal_per_round_oracle(rounds):
    """Batch lengths read off the completion slots give, bit for bit, the
    standard error and mean that the per-round lengths give, around the
    batch count and with a trailing incomplete round."""
    model = model_for(0.4, 10.0, 0.99)
    done = walk_reference(_channel_path(model, 5000, seed=3),
                          Strategy.AR_NC, XorConvention.SAME_INDEX, CsiMode.PREV_SLOT)
    n_slots = int(done[rounds])  # rounds 0..rounds-1 complete before this slot
    stats = run(SimConfig(Strategy.AR_NC, model, n_slots, seed=3))
    _assert_stats_match_oracle(stats, done[:rounds])


def test_round_stats_equal_per_round_oracle_long():
    cfg = SimConfig(Strategy.RR_NC, model_for(0.327, 10.0, 0.99), 2_000_000, 12345)
    done = _walk_in_blocks(_channel_path(cfg.model, cfg.n_slots, cfg.seed),
                           _fsm(Strategy.RR_NC, XorConvention.SAME_INDEX, CsiMode.PREV_SLOT))
    assert 750_000 <= done.shape[0] <= 900_000
    _assert_stats_match_oracle(run(cfg), done)


# ---------------------------------------------------------------------------
# Statistical behaviour
# ---------------------------------------------------------------------------


def test_occupancy_matches_marginal_memoryless():
    model = model_for(0.3, 10.0, 0.0)
    path = _channel_path(model, 1_000_000, seed=4)
    direct_bad = np.mean((path & 1) == 0)
    sigma = math.sqrt(0.3 * 0.7 / 1_000_000)
    assert abs(direct_bad - 0.3) <= 4.0 * sigma


def test_occupancy_matches_marginal_correlated():
    # dependent slots: binomial bands widened by the two-state chain's
    # autocorrelation factor (1+lambda)/(1-lambda), lambda = 1-p_gb-p_bg
    model = model_for(0.3, 10.0, 0.9)
    ge = model.s1s2
    lam = 1.0 - ge.p_gb - ge.p_bg
    n = 1_000_000
    path = _channel_path(model, n, seed=4)
    direct_bad = np.mean((path & 1) == 0)
    sigma = math.sqrt(0.3 * 0.7 / n * (1.0 + lam) / (1.0 - lam))
    assert abs(direct_bad - 0.3) <= 4.0 * sigma


def _direct_link_first_slot(model, seed):
    """Slot 0 of the direct link as `_channel_blocks` draws it, from the one
    stream of the seed's spawn that the direct link reads."""
    child = np.random.SeedSequence(seed, spawn_key=(LinkId.S1S2,))
    rng = np.random.Generator(np.random.PCG64(child))
    return int(sample_link_path(model.s1s2, 1, rng)[0])


def test_initial_state_stationary():
    model = model_for(0.4, 10.0, 0.999)
    for seed in range(200):
        assert _direct_link_first_slot(model, seed) == _channel_path(model, 1, seed)[0] & 1
    bad = 0
    trials = 40_000
    for seed in range(trials):
        bad += int(_direct_link_first_slot(model, seed) == 0)
    sigma = math.sqrt(0.4 * 0.6 / trials)
    assert abs(bad / trials - 0.4) <= 4.0 * sigma


def test_stderr_shrinks_with_run_length():
    base = SimConfig(Strategy.RR_NC, model_for(0.5, 10.0, 0.0), 200_000, 31)
    se_short = run(base).std_error
    se_long = run(replace(base, n_slots=800_000)).std_error
    # quadrupling the horizon should halve the error, give or take noise
    assert se_long < se_short
    assert 0.3 <= se_long / se_short <= 0.75


def test_xor_convention_within_noise_memoryless():
    base = SimConfig(Strategy.RR_NC, model_for(0.5, 10.0, 0.0), 1_000_000, 77)
    same = run(base)
    phys = run(replace(base, xor_convention=XorConvention.PHYSICAL))
    gap = abs(same.throughput_estimate - phys.throughput_estimate)
    assert gap <= 3.0 * math.hypot(same.std_error, phys.std_error)


def test_raising_direct_margin_never_hurts():
    for strat in (Strategy.RR_NC, Strategy.CR):
        estimates = []
        for fs_db in (-3.0, 0.0, 3.0, 6.0):
            margin_s = db_to_linear(fs_db)
            model = JointChannelModel.symmetric(
                outage_probability(margin_s),
                outage_probability(margin_s * 10.0),
                0.9,
            )
            stats = run(SimConfig(strat, model, 1_000_000, seed=8))
            estimates.append((stats.throughput_estimate, stats.std_error))
        for (lo, se_lo), (hi, se_hi) in zip(estimates, estimates[1:]):
            assert hi >= lo - 3.0 * (se_lo + se_hi)


def test_sw_arq_matches_closed_form():
    for seed, rho in ((1000, 0.0), (1009, 0.9)):
        stats = run(SimConfig(Strategy.SW_ARQ, model_for(0.3, 10.0, rho), 1_000_000, seed))
        assert abs(stats.throughput_estimate - 0.7) <= 3.0 * stats.std_error


# ---------------------------------------------------------------------------
# CSI-mode comparison
# ---------------------------------------------------------------------------


def test_csi_comparison_perfect_channels_identical():
    model = JointChannelModel.from_outage(0.0, 0.0, 0.0, 0.0)
    prev, last, genie = run_csi_comparison(
        SimConfig(Strategy.CR_NC, model, n_slots=5000, seed=2)
    )
    assert prev.throughput_estimate == last.throughput_estimate == 1.0
    assert genie.throughput_estimate == 1.0


def test_csi_comparison_common_trajectory():
    cfg = SimConfig(Strategy.CR_NC, MODEL, n_slots=2000, seed=44)
    prev, last, genie = run_csi_comparison(cfg)
    assert prev.config.seed == last.config.seed == genie.config.seed
    assert {prev.config.csi_mode, last.config.csi_mode, genie.config.csi_mode} == set(CsiMode)


def test_genie_no_worse_when_memoryless():
    # with iid channels the stale views carry no information; the genie
    # should come out at least as good up to noise
    model = model_for(0.5, 10.0, 0.0)
    prev, last, genie = run_csi_comparison(
        SimConfig(Strategy.CR_NC, model, n_slots=1_000_000, seed=55)
    )
    for other in (prev, last):
        slack = 3.0 * (genie.std_error + other.std_error)
        assert genie.throughput_estimate >= other.throughput_estimate - slack


def test_prev_slot_mode_tracks_analytic_chain():
    eta = analytic_throughput(Strategy.CR_NC, MODEL)
    stats = run(SimConfig(Strategy.CR_NC, MODEL, n_slots=1_000_000, seed=66))
    assert abs(eta - stats.throughput_estimate) <= 3.0 * stats.std_error
