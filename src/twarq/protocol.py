"""ARQ state machine shared by the simulator and the analytic engine.

A round starts with the two sources transmitting their packets back to back
(p1 from S1, then p2 from S2).  If either packet misses its destination the
network enters the retransmission phase, where the next transmission is read
off a 12-row policy table keyed by the four ARQ bits

    b = dec[ps1, ps2, rs1, rs2]

with ps = "packet delivered at its destination source" and rs = "packet held
by the relay".  b = 12..15 (both delivered) never occurs in retransmission.
Some rows fix the transmitter; the rows marked C leave the choice between
the relay and the original source to the strategy:

    b   ps rs    network-coded      plain       stop-and-wait
    0   00 00    S1 -> p1           S1 -> p1    S1 -> p1
    1   00 01    S1 -> p1           S1 -> p1    S1 -> p1
    2   00 10    C  -> p1           C  -> p1    S1 -> p1
    3   00 11    R  -> p1 xor p2    C  -> p1    S1 -> p1
    4   01 00    S1 -> p1           S1 -> p1    S1 -> p1
    5   01 01    S1 -> p1           S1 -> p1    S1 -> p1
    6   01 10    C  -> p1           C  -> p1    S1 -> p1
    7   01 11    C  -> p1           C  -> p1    S1 -> p1
    8   10 00    S2 -> p2           S2 -> p2    S2 -> p2
    9   10 01    C  -> p2           C  -> p2    S2 -> p2
    10  10 10    S2 -> p2           S2 -> p2    S2 -> p2
    11  10 11    C  -> p2           C  -> p2    S2 -> p2

Strategies: RR always resolves C to the relay; AR alternates relay/source via
a one-bit token that flips on every executed C row; CR picks the source when
the feedback-observed channel state says the direct link was up while the
relay link toward the packet's destination was down, otherwise the relay.
The *-NC variants use the xor broadcast row above, the plain variants treat
b = 3 as a C row.  SW_ARQ, the stop-and-wait baseline, has no C rows: it
ignores the relay and repeats the missing packet over the direct link, p1
first.

Both engines walk one table, kernel(strategy, convention, view) -> nxt,
built by running the one-slot rules above on every (state, joint channel)
pair; the state carries phase, token and view.  A state is a node:

    T0             first slot of a round (S1 sends p1)
    T1(a)          a = dec[ps1, rs1] left by the first slot, a = 0..3
    R(b[, t|v])    b = 0..11; a token t = 0, 1 after each tokened row, or
                   the last-known view v = 0..7 for CR under LAST_KNOWN

The token is the AR alternation bit on every row, or, on the C rows of CR
under the previous-slot view, the choice (1 = source) cached from the channel
the previous slot saw.  RR, the stop-and-wait baseline and CR under the other
two views keep none: the stored last-known view, or the genie's current
channel, fixes the CR choice.  On a C row the token names the transmitter:
0 the relay, 1 the packet's source.  The view, the joint channel index of
the links as feedback last showed them, sits on R nodes only: a round's
first two slots observe all three links before a C row reads it.  So T0 is
state 0 of every kernel.  nxt[s, c] is the state after a slot in state s
under joint channel c, and a round completes exactly when nxt returns to
T0: nxt[s, c] == 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .channel import GOOD, LinkId, link_bit, with_link_bit
from .exceptions import ProtocolError

__all__ = [
    "Action",
    "ArqState",
    "CsiMode",
    "Node",
    "NodeId",
    "Payload",
    "Phase",
    "PolicyContext",
    "SlotOutcome",
    "Strategy",
    "XorConvention",
    "apply_slot",
    "c_rows",
    "kernel",
    "kernel_nodes",
    "policy_action",
    "resolve_c",
]


class Strategy(enum.Enum):
    SW_ARQ = "sw-arq"
    RR = "rr"
    RR_NC = "rr-nc"
    AR = "ar"
    AR_NC = "ar-nc"
    CR = "cr"
    CR_NC = "cr-nc"

    @property
    def network_coded(self) -> bool:
        return self in (Strategy.RR_NC, Strategy.AR_NC, Strategy.CR_NC)

    @property
    def reads_csi(self) -> bool:
        """Whether the C-row choice reads the feedback channel view (CR)."""
        return self in (Strategy.CR, Strategy.CR_NC)


class NodeId(enum.Enum):
    S1 = "S1"
    S2 = "S2"
    R = "R"


class Payload(enum.Enum):
    P1 = "p1"
    P2 = "p2"
    XOR = "p1^p2"


class Phase(enum.Enum):
    TRANSMISSION_1 = 1
    TRANSMISSION_2 = 2
    RETRANSMISSION = 3


class CsiMode(enum.Enum):
    """Channel view the CR decision rule reads.

    PREV_SLOT: the full previous-slot channel state (matches the analytic
    chain).  LAST_KNOWN: per-link values from the most recent feedback that
    exercised each link.  GENIE: the current slot's true state.
    """

    PREV_SLOT = "prev"
    LAST_KNOWN = "last-known"
    GENIE = "genie"


class XorConvention(enum.Enum):
    """Which relay link delivers which packet under the xor broadcast.

    SAME_INDEX marks packet i delivered when relay link i (S_i-R) is up.
    PHYSICAL routes each packet over the relay link toward its destination
    (p1 to S2 over S2-R, p2 to S1 over S1-R).  Plain strategies never
    broadcast the xor and so never consult the convention.  For RR-NC and
    AR-NC the two coincide with equal relay margins and memoryless channels.
    CR-NC coincides only when, in addition, the relay and direct links are
    equally distributed: its C-row choice reads the relay link observed in
    the xor slot, which sends the leftover packet through the relay under
    SAME_INDEX and through its source under PHYSICAL.  Under positive
    slot-to-slot correlation they genuinely differ and SAME_INDEX comes out
    ahead, because it leaves the not-yet-delivered packet on the link that
    was just Good and PHYSICAL on the one that just failed.
    """

    SAME_INDEX = "table2"
    PHYSICAL = "physical"


@dataclass(frozen=True)
class ArqState:
    """The four ARQ bits: packet-at-destination and packet-at-relay flags."""

    ps1: int = 0
    ps2: int = 0
    rs1: int = 0
    rs2: int = 0

    def __post_init__(self) -> None:
        for name in ("ps1", "ps2", "rs1", "rs2"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")

    @property
    def b_index(self) -> int:
        return (self.ps1 << 3) | (self.ps2 << 2) | (self.rs1 << 1) | self.rs2

    @classmethod
    def from_b_index(cls, b: int) -> "ArqState":
        if not 0 <= b <= 15:
            raise ValueError(f"b index must be in 0..15, got {b}")
        return cls((b >> 3) & 1, (b >> 2) & 1, (b >> 1) & 1, b & 1)

    @property
    def complete(self) -> bool:
        return self.ps1 == 1 and self.ps2 == 1


@dataclass(frozen=True)
class Action:
    transmitter: NodeId
    payload: Payload

    def __post_init__(self) -> None:
        if self.payload is Payload.XOR and self.transmitter is not NodeId.R:
            raise ValueError("only the relay can send the xor combination")


@dataclass(frozen=True)
class SlotOutcome:
    """Result of one slot: updated ARQ state plus the link states revealed
    by the broadcast ACK/NAK feedback of that slot."""

    state: ArqState
    observed: tuple[tuple[LinkId, int], ...]


@dataclass
class PolicyContext:
    """One slot's scheduler input: phase, the alternation token, and the
    view, the joint channel index the CR rule reads.  Whoever walks the
    slots updates it between them and starts each round at phase
    TRANSMISSION_1, token 0.  The view starts all Good (7): a link never
    observed yet counts as Good, so the CR rule falls through to its relay
    default.
    """

    phase: Phase = Phase.TRANSMISSION_1
    token: int = 0
    view: int = 7

    def observe(self, link: LinkId, state_bit: int) -> None:
        self.view = with_link_bit(self.view, link, state_bit)

    def csi(self, link: LinkId) -> int:
        return link_bit(self.view, link)

    def set_csi_from_index(self, chan_index: int, slot: int | None = None) -> None:
        """Overwrite the whole view with a joint channel index.  `slot` is
        not read; the benchmark's protocol probe still passes one."""
        self.view = chan_index


# Retransmission table, b -> (fixed transmitter or None for C, payload).
# The two cooperative variants differ only in row 3.
_ROWS_NC: dict[int, tuple[NodeId | None, Payload]] = {
    0: (NodeId.S1, Payload.P1),
    1: (NodeId.S1, Payload.P1),
    2: (None, Payload.P1),
    3: (NodeId.R, Payload.XOR),
    4: (NodeId.S1, Payload.P1),
    5: (NodeId.S1, Payload.P1),
    6: (None, Payload.P1),
    7: (None, Payload.P1),
    8: (NodeId.S2, Payload.P2),
    9: (None, Payload.P2),
    10: (NodeId.S2, Payload.P2),
    11: (None, Payload.P2),
}
_ROWS_PLAIN = dict(_ROWS_NC)
_ROWS_PLAIN[3] = (None, Payload.P1)
_ROWS_SW = {b: (NodeId.S1, Payload.P1) if b < 8 else (NodeId.S2, Payload.P2) for b in range(12)}


def _table(strategy: Strategy) -> dict[int, tuple[NodeId | None, Payload]]:
    if strategy is Strategy.SW_ARQ:
        return _ROWS_SW
    return _ROWS_NC if strategy.network_coded else _ROWS_PLAIN


def c_rows(strategy: Strategy) -> tuple[int, ...]:
    """All rows whose transmitter is strategy-resolved, ascending."""
    return tuple(b for b in range(12) if _table(strategy)[b][0] is None)


_SOURCE_OF = {Payload.P1: NodeId.S1, Payload.P2: NodeId.S2}
_DEST_RELAY_LINK = {Payload.P1: LinkId.S2R, Payload.P2: LinkId.S1R}


def resolve_c(
    strategy: Strategy, state: ArqState, packet: Payload, ctx: PolicyContext
) -> NodeId:
    """Pick the transmitter for a C row.

    RR: always the relay.  AR: the relay when the token is 0, otherwise the
    packet's source.  CR: the source when the observed direct link was Good
    while the observed relay link toward the packet's destination was Bad,
    otherwise the relay.
    """
    if packet not in _SOURCE_OF:
        raise ProtocolError(f"C rows never carry payload {packet}")
    b = state.b_index
    if not (0 <= b <= 11) or _table(strategy)[b][0] is not None:
        raise ProtocolError(f"row {b} of {strategy.value} does not designate C")
    rs_bit = state.rs1 if packet is Payload.P1 else state.rs2
    if rs_bit != 1:
        raise ProtocolError(f"relay does not hold {packet.value} in state b={b}")

    if strategy in (Strategy.RR, Strategy.RR_NC):
        return NodeId.R
    if strategy in (Strategy.AR, Strategy.AR_NC):
        return NodeId.R if ctx.token == 0 else _SOURCE_OF[packet]
    if strategy.reads_csi:
        direct_good = ctx.csi(LinkId.S1S2) == GOOD
        relay_bad = ctx.csi(_DEST_RELAY_LINK[packet]) != GOOD
        return _SOURCE_OF[packet] if direct_good and relay_bad else NodeId.R
    raise ProtocolError(f"{strategy} has no C rows")


def policy_action(strategy: Strategy, state: ArqState, ctx: PolicyContext) -> Action:
    """Transmission scheduled for the next slot under the given strategy."""
    if ctx.phase is Phase.TRANSMISSION_1:
        return Action(NodeId.S1, Payload.P1)
    if ctx.phase is Phase.TRANSMISSION_2:
        return Action(NodeId.S2, Payload.P2)
    if state.complete:
        raise ProtocolError("retransmission requested but the round is complete")
    fixed, payload = _table(strategy)[state.b_index]
    if fixed is not None:
        return Action(fixed, payload)
    return Action(resolve_c(strategy, state, payload, ctx), payload)


def apply_slot(
    state: ArqState,
    action: Action,
    chan_index: int,
    convention: XorConvention = XorConvention.SAME_INDEX,
) -> SlotOutcome:
    """Update the ARQ bits for one slot executed under joint channel state
    chan_index, and report which links that slot's feedback revealed.

    Delivery bits only ever latch from 0 to 1; they reset at round start,
    not here.
    """
    s1r = link_bit(chan_index, LinkId.S1R)
    s2r = link_bit(chan_index, LinkId.S2R)
    s1s2 = link_bit(chan_index, LinkId.S1S2)

    tx, payload = action.transmitter, action.payload
    if tx is NodeId.S1:
        if payload is not Payload.P1:
            raise ProtocolError("S1 only ever holds p1")
        new = replace(state, ps1=state.ps1 | s1s2, rs1=state.rs1 | s1r)
        observed = ((LinkId.S1S2, s1s2), (LinkId.S1R, s1r))
    elif tx is NodeId.S2:
        if payload is not Payload.P2:
            raise ProtocolError("S2 only ever holds p2")
        new = replace(state, ps2=state.ps2 | s1s2, rs2=state.rs2 | s2r)
        observed = ((LinkId.S1S2, s1s2), (LinkId.S2R, s2r))
    elif payload is Payload.P1:
        if state.rs1 != 1:
            raise ProtocolError("relay cannot retransmit p1 before receiving it")
        new = replace(state, ps1=state.ps1 | s2r)
        observed = ((LinkId.S1R, s1r), (LinkId.S2R, s2r))
    elif payload is Payload.P2:
        if state.rs2 != 1:
            raise ProtocolError("relay cannot retransmit p2 before receiving it")
        new = replace(state, ps2=state.ps2 | s1r)
        observed = ((LinkId.S1R, s1r), (LinkId.S2R, s2r))
    else:  # xor broadcast
        if not (state.rs1 == 1 and state.rs2 == 1):
            raise ProtocolError("xor broadcast needs both packets at the relay")
        if convention is XorConvention.SAME_INDEX:
            new = replace(state, ps1=state.ps1 | s1r, ps2=state.ps2 | s2r)
        else:
            new = replace(state, ps1=state.ps1 | s2r, ps2=state.ps2 | s1r)
        observed = ((LinkId.S1R, s1r), (LinkId.S2R, s2r))
    return SlotOutcome(state=new, observed=observed)


class Node(NamedTuple):
    """A kernel state: the phase of the slot, the ARQ bits it starts from (a
    for TRANSMISSION_2, b for RETRANSMISSION), the token and the last-known
    view, a joint channel index (each None where the state keeps none)."""

    kind: Phase
    a: int | None = None
    b: int | None = None
    token: int | None = None
    view: int | None = None


def _tokened_rows(strategy: Strategy, view: CsiMode) -> tuple[int, ...]:
    if strategy in (Strategy.AR, Strategy.AR_NC):
        return tuple(range(12))
    if strategy.reads_csi and view is CsiMode.PREV_SLOT:
        return c_rows(strategy)
    return ()


def kernel_nodes(
    strategy: Strategy, view: CsiMode = CsiMode.PREV_SLOT
) -> tuple[Node, ...]:
    """The kernel's states in order: T0, T1(a), then R(b[, t|v])."""
    tokened = _tokened_rows(strategy, view)
    views = range(8) if strategy.reads_csi and view is CsiMode.LAST_KNOWN else (None,)
    nodes = [Node(Phase.TRANSMISSION_1)] + [Node(Phase.TRANSMISSION_2, a=a) for a in range(4)]
    for b in range(12):
        nodes += [Node(Phase.RETRANSMISSION, b=b, token=t, view=v)
                  for t in ((0, 1) if b in tokened else (None,)) for v in views]
    return tuple(nodes)


@lru_cache(maxsize=None)
def kernel(
    strategy: Strategy,
    convention: XorConvention = XorConvention.SAME_INDEX,
    view: CsiMode = CsiMode.PREV_SLOT,
) -> np.ndarray:
    """Read-only nxt table of shape (states, 8) over (state, joint channel):
    the state after the slot.  The states are those of `kernel_nodes`, T0
    first, and nxt is 0, T0, exactly after the slot that completes a round.

    The next state's token is the AR alternation bit advanced past the slot,
    or, under PREV_SLOT, the CR choice for its row made from the slot's
    channel.  Without a token, CR chooses from the view the state keeps
    (LAST_KNOWN) or from the current channel (GENIE).  An R state's view is
    the one before the slot with the slot's observed links written in; from
    T1(a), the S1-R bit of a is all it takes from before.
    """
    nodes = kernel_nodes(strategy, view)
    index = {node: k for k, node in enumerate(nodes)}
    rows, tokened, c_set = _table(strategy), _tokened_rows(strategy, view), c_rows(strategy)
    keeps_view = strategy.reads_csi and view is CsiMode.LAST_KNOWN
    nxt = np.empty((len(nodes), 8), dtype=np.intp)
    for k, node in enumerate(nodes):
        if node.kind is Phase.RETRANSMISSION:
            state = ArqState.from_b_index(node.b)
        else:
            a = node.a or 0
            state = ArqState(ps1=a >> 1, rs1=a & 1)
        known = node.view if node.view is not None else with_link_bit(0, LinkId.S1R, state.rs1)
        for chan in range(8):
            ctx = PolicyContext(node.kind, node.token or 0,
                                chan if node.view is None else node.view)
            if node.token is not None and node.b in c_set:
                payload = rows[node.b][1]
                sender = _SOURCE_OF[payload] if node.token else NodeId.R
                action = Action(sender, payload)
            else:
                action = policy_action(strategy, state, ctx)
            out = apply_slot(state, action, chan, convention)
            if out.state.complete:
                target = Node(Phase.TRANSMISSION_1)
            elif node.kind is Phase.TRANSMISSION_1:
                target = Node(Phase.TRANSMISSION_2, a=(out.state.ps1 << 1) | out.state.rs1)
            else:
                b, token, seen = out.state.b_index, None, None
                if b in tokened and strategy.reads_csi:  # PREV_SLOT: ctx holds chan
                    chosen = resolve_c(strategy, out.state, rows[b][1], ctx)
                    token = int(chosen is not NodeId.R)
                elif b in tokened:  # AR: the bit flips past every executed C row
                    token = ctx.token ^ (node.b in c_set)
                if keeps_view:
                    seen = known
                    for link, bit in out.observed:
                        seen = with_link_bit(seen, link, bit)
                target = Node(Phase.RETRANSMISSION, b=b, token=token, view=seen)
            nxt[k, chan] = index[target]
    nxt.setflags(write=False)
    return nxt
