import itertools

import numpy as np
import pytest

from twarq.channel import GOOD, BAD, LinkId, with_link_bit
from twarq.exceptions import ProtocolError
from twarq.protocol import (
    Action,
    ArqState,
    CsiMode,
    Node,
    NodeId,
    Payload,
    Phase,
    PolicyContext,
    Strategy,
    XorConvention,
    apply_slot,
    c_rows,
    kernel,
    kernel_nodes,
    policy_action,
    resolve_c,
)

COOPERATIVE = [s for s in Strategy if s is not Strategy.SW_ARQ]
ALL_STRATEGIES = list(Strategy)


def _retx_ctx(token=0, csi=None):
    ctx = PolicyContext(phase=Phase.RETRANSMISSION, token=token)
    if csi is not None:
        for link, bit in csi.items():
            ctx.observe(link, bit)
    return ctx


def _chan(s1r, s2r, s1s2):
    return (s1r << 2) | (s2r << 1) | s1s2


def _retx(b, token=None):
    return Node(Phase.RETRANSMISSION, b=b, token=token)


def _next_node(strategy, node, chan, view=CsiMode.PREV_SLOT):
    """The kernel node after one slot in `node` under joint channel `chan`."""
    nodes = kernel_nodes(strategy, view)
    nxt = kernel(strategy, XorConvention.SAME_INDEX, view)
    return nodes[nxt[nodes.index(node), chan]]


# ---------------------------------------------------------------------------
# Policy table
# ---------------------------------------------------------------------------


def test_c_row_sets():
    for strat in (Strategy.RR_NC, Strategy.AR_NC, Strategy.CR_NC):
        assert c_rows(strat) == (2, 6, 7, 9, 11)
    for strat in (Strategy.RR, Strategy.AR, Strategy.CR):
        assert c_rows(strat) == (2, 3, 6, 7, 9, 11)


def test_only_cr_reads_the_channel_view():
    assert {s for s in Strategy if s.reads_csi} == {Strategy.CR, Strategy.CR_NC}


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
    assert out.state.complete


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
    assert ArqState(1, 1, 0, 0).complete
    assert not ArqState(1, 0, 1, 1).complete
    assert not ArqState(0, 1, 1, 1).complete


# ---------------------------------------------------------------------------
# Token bookkeeping: the kernel carries it from one slot to the next
# ---------------------------------------------------------------------------


def test_token_flips_on_c_row():
    # row 2 is C; every link Bad keeps b = 2 whoever sends p1
    assert _next_node(Strategy.AR, _retx(2, 0), 0) == _retx(2, 1)
    assert _next_node(Strategy.AR, _retx(2, 1), 0) == _retx(2, 0)


def test_token_holds_on_fixed_row():
    # row 0: S1 sends p1, the relay hears it (b = 2) but S2 does not
    for token in (0, 1):
        assert _next_node(Strategy.AR, _retx(0, token), _chan(1, 0, 0)) == _retx(2, token)


def test_token_xor_row_fixed_only_with_nc():
    # xor broadcast is not a C row under network coding
    assert _next_node(Strategy.AR_NC, _retx(3, 0), 0) == _retx(3, 0)
    assert _next_node(Strategy.AR, _retx(3, 0), 0) == _retx(3, 1)


def test_token_csi_recompute():
    # the token on CR's row 2 is the choice read from the slot's channel
    # (1 = source), whatever the token the slot started from
    s2r_bad_direct_good = _chan(1, 0, 1)
    assert _next_node(Strategy.CR_NC, _retx(2, 0), s2r_bad_direct_good) == _retx(2, 1)
    direct_bad = _chan(1, 0, 0)
    assert _next_node(Strategy.CR_NC, _retx(2, 1), direct_bad) == _retx(2, 0)
    # under the other views the stored view or the current channel decides
    for view in (CsiMode.LAST_KNOWN, CsiMode.GENIE):
        assert all(node.token is None for node in kernel_nodes(Strategy.CR_NC, view))


def test_token_untouched_for_rr():
    for strat in (Strategy.RR, Strategy.RR_NC, Strategy.SW_ARQ):
        assert all(node.token is None for node in kernel_nodes(strat))
    assert _next_node(Strategy.RR, _retx(2), 0) == _retx(2)


# ---------------------------------------------------------------------------
# Whole-protocol properties
# ---------------------------------------------------------------------------


def test_perfect_channel_rounds_take_two_slots():
    for strat in ALL_STRATEGIES:
        state = ArqState()
        ctx = PolicyContext()
        out = apply_slot(state, policy_action(strat, state, ctx), 7)
        assert not out.state.complete
        ctx.phase = Phase.TRANSMISSION_2
        out = apply_slot(out.state, policy_action(strat, out.state, ctx), 7)
        assert out.state.complete


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
            # the AR token flips after each executed C row, as the slot
            # replay oracle flips it
            flip = (phase is Phase.RETRANSMISSION and strat in (Strategy.AR, Strategy.AR_NC)
                    and state.b_index in c_rows(strat))
            for view_bits in range(8):
                ctx = _retx_ctx(token)
                ctx.phase = phase
                ctx.set_csi_from_index(view_bits)
                action = policy_action(strat, state, ctx)
                for chan in range(8):
                    out = apply_slot(state, action, chan)
                    if out.state.complete:
                        frontier.append((Phase.TRANSMISSION_1, ArqState(), 0))
                    elif phase is Phase.TRANSMISSION_1:
                        frontier.append((Phase.TRANSMISSION_2, out.state, 0))
                    else:
                        frontier.append((Phase.RETRANSMISSION, out.state, token ^ flip))
        # 1 start + 4 second-slot states + at most 12 rows x 2 tokens
        assert len(seen) <= 1 + 4 + 24


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

PREV_STATES = {
    Strategy.SW_ARQ: 17, Strategy.RR: 17, Strategy.RR_NC: 17,
    Strategy.AR: 29, Strategy.AR_NC: 29, Strategy.CR: 23, Strategy.CR_NC: 22,
}
KERNEL_STATES = (
    [(s, CsiMode.PREV_SLOT, n) for s, n in PREV_STATES.items()]
    + [(s, CsiMode.GENIE, 17) for s in (Strategy.CR, Strategy.CR_NC)]
    + [(s, CsiMode.LAST_KNOWN, 101 if s in (Strategy.CR, Strategy.CR_NC) else n)
       for s, n in PREV_STATES.items()]
)


@pytest.mark.parametrize("strategy,view,states", KERNEL_STATES,
                         ids=lambda v: getattr(v, "value", v))
@pytest.mark.parametrize("convention", list(XorConvention), ids=lambda c: c.value)
def test_kernel_state_counts(strategy, view, states, convention):
    nxt = kernel(strategy, convention, view)
    assert nxt.shape == (states, 8)
    assert nxt.min() >= 0 and nxt.max() < states
    assert not nxt.flags.writeable
    nodes = kernel_nodes(strategy, view)
    assert len(nodes) == states
    assert nodes[0] == Node(Phase.TRANSMISSION_1)
    if view is CsiMode.LAST_KNOWN and strategy not in (Strategy.CR, Strategy.CR_NC):
        # only CR reads the view: the others walk their previous-slot kernel
        assert np.array_equal(nxt, kernel(strategy, convention))


@pytest.mark.parametrize("strategy", [Strategy.CR, Strategy.CR_NC], ids=lambda s: s.value)
@pytest.mark.parametrize("convention", list(XorConvention), ids=lambda c: c.value)
def test_last_known_kernel_pairs_with_slot_replay(strategy, convention):
    """BFS over (phase, ARQ bits, last-known view) paired with a kernel
    state, from a run's start: (T0, no bits, nothing observed) with state 0.
    On every channel, the slot replayed through policy_action / apply_slot /
    observe completes a round exactly where the kernel does, and every pair
    reached names the same phase, bits and, in retransmission, view."""
    nodes = kernel_nodes(strategy, CsiMode.LAST_KNOWN)
    nxt = kernel(strategy, convention, CsiMode.LAST_KNOWN).tolist()
    start = (Phase.TRANSMISSION_1, ArqState(), (None,) * len(LinkId), 0)
    seen, frontier = {start}, [start]
    while frontier:
        phase, state, known, s = frontier.pop()
        node = nodes[s]
        assert node.kind is phase, (node, state)
        if phase is Phase.TRANSMISSION_2:
            assert node.a == (state.ps1 << 1) | state.rs1, (node, state)
        if phase is Phase.RETRANSMISSION:
            assert None not in known
            view = 0
            for link, bit in zip(LinkId, known):
                view = with_link_bit(view, link, bit)
            assert (node.b, node.view) == (state.b_index, view), (node, state, known)
        for chan in range(8):
            ctx = PolicyContext(phase=phase)
            for link, bit in zip(LinkId, known):
                if bit is not None:
                    ctx.observe(link, bit)
            out = apply_slot(state, policy_action(strategy, state, ctx), chan, convention)
            known_to = list(known)
            for link, bit in out.observed:
                known_to[link] = bit
            assert (nxt[s][chan] == 0) == out.state.complete, (node, known, chan)
            if out.state.complete:
                phase_to, state_to = Phase.TRANSMISSION_1, ArqState()
            elif phase is Phase.TRANSMISSION_1:
                phase_to, state_to = Phase.TRANSMISSION_2, out.state
            else:
                phase_to, state_to = Phase.RETRANSMISSION, out.state
            pair = (phase_to, state_to, tuple(known_to), nxt[s][chan])
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)

