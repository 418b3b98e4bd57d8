import itertools

import pytest

from twarq.channel import GOOD, BAD, LinkId
from twarq.exceptions import ProtocolError
from twarq.protocol import (
    Action,
    ArqState,
    CsiMode,
    NodeId,
    Payload,
    Phase,
    PolicyContext,
    Strategy,
    XorConvention,
    advance_token,
    apply_slot,
    c_rows,
    kernel,
    kernel_nodes,
    policy_action,
    resolve_c,
    round_complete,
)

COOPERATIVE = [s for s in Strategy if s.cooperative]
ALL_STRATEGIES = list(Strategy)


def _retx_ctx(token=0, csi=None):
    ctx = PolicyContext(phase=Phase.RETRANSMISSION, token=token)
    if csi is not None:
        for link, bit in csi.items():
            ctx.observe(link, bit)
    return ctx


def _chan(s1r, s2r, s1s2):
    return (s1r << 2) | (s2r << 1) | s1s2


# ---------------------------------------------------------------------------
# Policy table
# ---------------------------------------------------------------------------


def test_c_row_sets():
    for strat in (Strategy.RR_NC, Strategy.AR_NC, Strategy.CR_NC):
        assert c_rows(strat) == (2, 6, 7, 9, 11)
    for strat in (Strategy.RR, Strategy.AR, Strategy.CR):
        assert c_rows(strat) == (2, 3, 6, 7, 9, 11)


def test_policy_transmission_phases():
    ctx = PolicyContext(phase=Phase.TRANSMISSION_1)
    for strat in ALL_STRATEGIES:
        assert policy_action(strat, ArqState(), ctx) == Action(NodeId.S1, Payload.P1)
    ctx.phase = Phase.TRANSMISSION_2
    for strat in ALL_STRATEGIES:
        assert policy_action(strat, ArqState(), ctx) == Action(NodeId.S2, Payload.P2)


def test_policy_xor_row():
    state = ArqState(0, 0, 1, 1)
    assert policy_action(Strategy.RR_NC, state, _retx_ctx()) == Action(NodeId.R, Payload.XOR)
    # without network coding the same row is a C row carrying p1
    assert policy_action(Strategy.RR, state, _retx_ctx()) == Action(NodeId.R, Payload.P1)


def test_policy_first_row_everywhere():
    state = ArqState(0, 0, 0, 0)
    for strat in ALL_STRATEGIES:
        assert policy_action(strat, state, _retx_ctx()) == Action(NodeId.S1, Payload.P1)


def test_policy_relay_retransmits_p2():
    state = ArqState(1, 0, 0, 1)  # b = 9
    assert policy_action(Strategy.RR, state, _retx_ctx()) == Action(NodeId.R, Payload.P2)


def test_policy_total_over_all_rows():
    csi_views = [
        {LinkId.S1R: a, LinkId.S2R: b, LinkId.S1S2: c}
        for a, b, c in itertools.product((0, 1), repeat=3)
    ]
    for strat in COOPERATIVE:
        for b in range(12):
            state = ArqState.from_b_index(b)
            for token in (0, 1):
                for view in csi_views:
                    action = policy_action(strat, state, _retx_ctx(token, view))
                    # transmitter must hold the payload it sends
                    if action.transmitter is NodeId.R:
                        if action.payload in (Payload.P1, Payload.XOR):
                            assert state.rs1 == 1
                        if action.payload in (Payload.P2, Payload.XOR):
                            assert state.rs2 == 1
                    elif action.transmitter is NodeId.S1:
                        assert action.payload is Payload.P1
                    else:
                        assert action.payload is Payload.P2


def test_policy_rejects_completed_round():
    for strat in ALL_STRATEGIES:
        with pytest.raises(ProtocolError):
            policy_action(strat, ArqState(1, 1, 0, 0), _retx_ctx())


def test_nc_and_plain_agree_off_the_xor_row():
    pairs = [
        (Strategy.RR, Strategy.RR_NC),
        (Strategy.AR, Strategy.AR_NC),
        (Strategy.CR, Strategy.CR_NC),
    ]
    view = {LinkId.S1R: 1, LinkId.S2R: 0, LinkId.S1S2: 1}
    for plain, coded in pairs:
        for b in range(12):
            if b == 3:
                continue
            state = ArqState.from_b_index(b)
            for token in (0, 1):
                assert policy_action(plain, state, _retx_ctx(token, view)) == policy_action(
                    coded, state, _retx_ctx(token, view)
                )


def test_sw_arq_repeats_missing_packet():
    assert policy_action(Strategy.SW_ARQ, ArqState(0, 1, 1, 1), _retx_ctx()) == Action(
        NodeId.S1, Payload.P1
    )
    assert policy_action(Strategy.SW_ARQ, ArqState(1, 0, 0, 0), _retx_ctx()) == Action(
        NodeId.S2, Payload.P2
    )


# ---------------------------------------------------------------------------
# resolve_c
# ---------------------------------------------------------------------------


def test_resolve_alternating_token():
    state = ArqState(0, 0, 1, 0)  # b = 2
    assert resolve_c(Strategy.AR_NC, state, Payload.P1, _retx_ctx(token=0)) is NodeId.R
    assert resolve_c(Strategy.AR_NC, state, Payload.P1, _retx_ctx(token=1)) is NodeId.S1


def test_resolve_csi_rule_for_p1():
    state = ArqState(0, 0, 1, 0)
    bad_relay = {LinkId.S2R: BAD, LinkId.S1S2: GOOD}
    good_relay = {LinkId.S2R: GOOD, LinkId.S1S2: GOOD}
    assert resolve_c(Strategy.CR_NC, state, Payload.P1, _retx_ctx(csi=bad_relay)) is NodeId.S1
    assert resolve_c(Strategy.CR_NC, state, Payload.P1, _retx_ctx(csi=good_relay)) is NodeId.R
    # direct link down: relay retransmits even if its link also looks bad
    both_bad = {LinkId.S2R: BAD, LinkId.S1S2: BAD}
    assert resolve_c(Strategy.CR_NC, state, Payload.P1, _retx_ctx(csi=both_bad)) is NodeId.R


def test_resolve_csi_rule_uses_destination_link():
    state = ArqState(1, 0, 0, 1)  # b = 9, packet p2 toward S1
    view = {LinkId.S1R: BAD, LinkId.S2R: GOOD, LinkId.S1S2: GOOD}
    assert resolve_c(Strategy.CR_NC, state, Payload.P2, _retx_ctx(csi=view)) is NodeId.S2


def test_resolve_unknown_counts_as_good():
    state = ArqState(0, 0, 1, 0)
    assert resolve_c(Strategy.CR_NC, state, Payload.P1, _retx_ctx()) is NodeId.R


def test_resolve_rejects_non_c_rows():
    with pytest.raises(ProtocolError):
        resolve_c(Strategy.RR, ArqState(0, 0, 0, 0), Payload.P1, _retx_ctx())
    with pytest.raises(ProtocolError):
        resolve_c(Strategy.RR_NC, ArqState(0, 0, 1, 1), Payload.XOR, _retx_ctx())


# ---------------------------------------------------------------------------
# apply_slot
# ---------------------------------------------------------------------------


def test_apply_xor_broadcast_completes_round():
    state = ArqState(0, 0, 1, 1)
    out = apply_slot(state, Action(NodeId.R, Payload.XOR), _chan(1, 1, 0))
    assert out.state == ArqState(1, 1, 1, 1)
    assert round_complete(out.state)


def test_apply_xor_broadcast_all_relay_links_down():
    state = ArqState(0, 0, 1, 1)
    out = apply_slot(state, Action(NodeId.R, Payload.XOR), _chan(0, 0, 1))
    assert out.state == state


def test_apply_xor_conventions_differ_per_bit():
    state = ArqState(0, 0, 1, 1)
    chan = _chan(0, 1, 0)
    same = apply_slot(state, Action(NodeId.R, Payload.XOR), chan, XorConvention.SAME_INDEX)
    phys = apply_slot(state, Action(NodeId.R, Payload.XOR), chan, XorConvention.PHYSICAL)
    assert (same.state.ps1, same.state.ps2) == (0, 1)
    assert (phys.state.ps1, phys.state.ps2) == (1, 0)


def test_apply_first_transmission_updates_both_links():
    out = apply_slot(ArqState(), Action(NodeId.S1, Payload.P1), _chan(1, 0, 0))
    assert (out.state.ps1, out.state.rs1) == (0, 1)
    assert dict(out.observed) == {LinkId.S1S2: 0, LinkId.S1R: 1}


def test_apply_relay_unicast_uses_destination_link():
    state = ArqState(0, 0, 1, 0)
    # p1's destination is S2: delivery rides the S2-R link
    out = apply_slot(state, Action(NodeId.R, Payload.P1), _chan(0, 1, 0))
    assert out.state.ps1 == 1
    out = apply_slot(state, Action(NodeId.R, Payload.P1), _chan(1, 0, 1))
    assert out.state.ps1 == 0
    # both relay links are revealed by the broadcast feedback
    assert dict(out.observed) == {LinkId.S1R: 1, LinkId.S2R: 0}


def test_apply_relay_needs_payload():
    with pytest.raises(ProtocolError):
        apply_slot(ArqState(0, 0, 0, 1), Action(NodeId.R, Payload.P1), 7)
    with pytest.raises(ProtocolError):
        apply_slot(ArqState(0, 0, 1, 0), Action(NodeId.R, Payload.XOR), 7)
    with pytest.raises(ProtocolError):
        apply_slot(ArqState(), Action(NodeId.S1, Payload.P2), 7)


def test_apply_never_clears_bits():
    actions = [
        Action(NodeId.S1, Payload.P1),
        Action(NodeId.S2, Payload.P2),
        Action(NodeId.R, Payload.P1),
        Action(NodeId.R, Payload.P2),
        Action(NodeId.R, Payload.XOR),
    ]
    for b in range(16):
        state = ArqState.from_b_index(b)
        for action in actions:
            if action.transmitter is NodeId.R:
                if action.payload in (Payload.P1, Payload.XOR) and state.rs1 == 0:
                    continue
                if action.payload in (Payload.P2, Payload.XOR) and state.rs2 == 0:
                    continue
            for chan in range(8):
                for conv in XorConvention:
                    new = apply_slot(state, action, chan, conv).state
                    assert new.ps1 >= state.ps1 and new.ps2 >= state.ps2
                    assert new.rs1 >= state.rs1 and new.rs2 >= state.rs2


def test_round_complete_definition():
    assert round_complete(ArqState(1, 1, 0, 0))
    assert not round_complete(ArqState(1, 0, 1, 1))
    assert not round_complete(ArqState(0, 1, 1, 1))


# ---------------------------------------------------------------------------
# Token bookkeeping
# ---------------------------------------------------------------------------


def test_token_flips_on_c_row():
    ctx = _retx_ctx(token=0)
    advance_token(Strategy.AR, ctx, ArqState.from_b_index(2), ArqState.from_b_index(2))
    assert ctx.token == 1
    advance_token(Strategy.AR, ctx, ArqState.from_b_index(2), ArqState.from_b_index(2))
    assert ctx.token == 0


def test_token_holds_on_fixed_row():
    ctx = _retx_ctx(token=0)
    advance_token(Strategy.AR, ctx, ArqState.from_b_index(0), ArqState.from_b_index(2))
    assert ctx.token == 0


def test_token_xor_row_fixed_only_with_nc():
    ctx = _retx_ctx(token=0)
    advance_token(Strategy.AR_NC, ctx, ArqState.from_b_index(3), ArqState.from_b_index(3))
    assert ctx.token == 0  # xor broadcast is not a C row under network coding
    advance_token(Strategy.AR, ctx, ArqState.from_b_index(3), ArqState.from_b_index(3))
    assert ctx.token == 1


def test_token_csi_recompute():
    ctx = _retx_ctx()
    ctx.set_csi_from_index(_chan(1, 0, 1))  # S2R bad, direct good
    advance_token(Strategy.CR_NC, ctx, None, ArqState.from_b_index(2))
    assert ctx.token == 1  # source retransmits p1
    ctx.set_csi_from_index(_chan(1, 1, 1))
    advance_token(Strategy.CR_NC, ctx, None, ArqState.from_b_index(2))
    assert ctx.token == 0


def test_token_untouched_for_rr():
    ctx = _retx_ctx(token=1)
    advance_token(Strategy.RR, ctx, ArqState.from_b_index(2), ArqState.from_b_index(2))
    assert ctx.token == 1


def test_context_round_reset():
    ctx = _retx_ctx(token=1)
    ctx.observe(LinkId.S1R, BAD)
    ctx.reset_round()
    assert ctx.phase is Phase.TRANSMISSION_1 and ctx.token == 0
    # channel knowledge survives the round boundary
    assert ctx.csi(LinkId.S1R) == BAD


# ---------------------------------------------------------------------------
# Whole-protocol properties
# ---------------------------------------------------------------------------


def test_perfect_channel_rounds_take_two_slots():
    for strat in ALL_STRATEGIES:
        state = ArqState()
        ctx = PolicyContext()
        out = apply_slot(state, policy_action(strat, state, ctx), 7)
        assert not round_complete(out.state)
        ctx.phase = Phase.TRANSMISSION_2
        out = apply_slot(out.state, policy_action(strat, out.state, ctx), 7)
        assert round_complete(out.state)


def test_reachable_states_safe_by_exhaustive_walk():
    """BFS over (phase, arq, token) x channel views: every reachable
    configuration yields a legal action whose transmitter holds the payload
    (apply_slot and resolve_c raise otherwise)."""
    for strat in ALL_STRATEGIES:
        seen = set()
        frontier = [(Phase.TRANSMISSION_1, ArqState(), 0)]
        while frontier:
            phase, state, token = frontier.pop()
            key = (phase, state, token)
            if key in seen:
                continue
            seen.add(key)
            for view_bits in range(8):
                ctx = _retx_ctx(token)
                ctx.phase = phase
                ctx.set_csi_from_index(view_bits)
                action = policy_action(strat, state, ctx)
                for chan in range(8):
                    out = apply_slot(state, action, chan)
                    if phase is Phase.RETRANSMISSION:
                        advance_token(strat, ctx, state, out.state)
                    if round_complete(out.state):
                        frontier.append((Phase.TRANSMISSION_1, ArqState(), 0))
                    elif phase is Phase.TRANSMISSION_1:
                        frontier.append((Phase.TRANSMISSION_2, out.state, 0))
                    else:
                        frontier.append((Phase.RETRANSMISSION, out.state, ctx.token))
        # 1 start + 4 second-slot states + at most 12 rows x 2 tokens
        assert len(seen) <= 1 + 4 + 24


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

PREV_STATES = {
    Strategy.RR: 17, Strategy.RR_NC: 17, Strategy.AR: 29, Strategy.AR_NC: 29,
    Strategy.CR: 23, Strategy.CR_NC: 22,
}
KERNEL_STATES = (
    [(s, CsiMode.PREV_SLOT, n) for s, n in PREV_STATES.items()]
    + [(s, CsiMode.GENIE, 17) for s in (Strategy.CR, Strategy.CR_NC)]
    + [(s, CsiMode.LAST_KNOWN, 8 * n) for s, n in PREV_STATES.items()]
)


@pytest.mark.parametrize("strategy,view,states", KERNEL_STATES,
                         ids=lambda v: getattr(v, "value", v))
@pytest.mark.parametrize("convention", list(XorConvention), ids=lambda c: c.value)
def test_kernel_state_counts(strategy, view, states, convention):
    nxt, done = kernel(strategy, convention, view)
    assert nxt.shape == done.shape == (states, 8)
    assert nxt.min() >= 0 and nxt.max() < states
    assert not nxt.flags.writeable and not done.flags.writeable
    views = 8 if view is CsiMode.LAST_KNOWN else 1
    assert len(kernel_nodes(strategy, view)) * views == states

