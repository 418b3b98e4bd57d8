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

    b   ps rs    network-coded      plain
    0   00 00    S1 -> p1           S1 -> p1
    1   00 01    S1 -> p1           S1 -> p1
    2   00 10    C  -> p1           C  -> p1
    3   00 11    R  -> p1 xor p2    C  -> p1
    4   01 00    S1 -> p1           S1 -> p1
    5   01 01    S1 -> p1           S1 -> p1
    6   01 10    C  -> p1           C  -> p1
    7   01 11    C  -> p1           C  -> p1
    8   10 00    S2 -> p2           S2 -> p2
    9   10 01    C  -> p2           C  -> p2
    10  10 10    S2 -> p2           S2 -> p2
    11  10 11    C  -> p2           C  -> p2

Strategies: RR always resolves C to the relay; AR alternates relay/source via
a one-bit token that flips on every executed C row; CR picks the source when
the feedback-observed channel state says the direct link was up while the
relay link toward the packet's destination was down, otherwise the relay.
The *-NC variants use the xor broadcast row above, the plain variants treat
b = 3 as a C row.  SW_ARQ ignores the relay entirely and just repeats the
missing packet over the direct link.

Both engines read the protocol from one table, kernel(strategy, convention,
view) -> (nxt, done), built once by executing the rules above on every
(state, joint channel) pair.  A state is a node, in the order

    T0             first slot of a round (S1 sends p1)
    T1(a)          a = dec[ps1, rs1] left by the first slot, a = 0..3
    R(b[, t])      b = 0..11; a token t = 0, 1 after each tokened row

times the last-known feedback view (node*8 + view) under CsiMode.LAST_KNOWN.
The token is the AR alternation bit on every row, or, on the C rows of CR,
the choice (1 = source) cached from the view the previous slot left; RR, the
stop-and-wait baseline and CR under the genie view keep none.  On a C row
the token names the transmitter: 0 the relay, 1 the packet's source.
nxt[s, c] is the state after a slot in state s under joint channel c, and
done[s, c] marks a completed round.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
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
    "advance_token",
    "apply_slot",
    "c_rows",
    "kernel",
    "kernel_nodes",
    "policy_action",
    "resolve_c",
    "round_complete",
    "row_designates_c",
    "row_payload",
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
    def cooperative(self) -> bool:
        return self is not Strategy.SW_ARQ


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


def round_complete(state: ArqState) -> bool:
    """True once both packets have reached their destination sources."""
    return state.complete


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
    """Per-run scheduler memory: phase, the alternation token, and the
    last channel state each link was observed in (feedback bookkeeping).

    Links never observed yet are treated as Good, so the CR rule falls
    through to its relay default.
    """

    phase: Phase = Phase.TRANSMISSION_1
    token: int = 0
    last_known: dict[LinkId, int] = field(default_factory=dict)

    def observe(self, link: LinkId, state_bit: int) -> None:
        self.last_known[link] = state_bit

    def csi(self, link: LinkId) -> int:
        return self.last_known.get(link, GOOD)

    def set_csi_from_index(self, chan_index: int, slot: int | None = None) -> None:
        """Overwrite the whole view from a joint channel index.  `slot` is
        not read; the benchmark's protocol probe still passes one."""
        for link in LinkId:
            self.observe(link, link_bit(chan_index, link))

    def reset_round(self) -> None:
        self.phase = Phase.TRANSMISSION_1
        self.token = 0


# Retransmission table, b -> (fixed transmitter or None for C, payload).
# The two variants differ only in row 3.
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


def _table(strategy: Strategy) -> dict[int, tuple[NodeId | None, Payload]]:
    return _ROWS_NC if strategy.network_coded else _ROWS_PLAIN


def row_designates_c(strategy: Strategy, b: int) -> bool:
    """Whether retransmission row b leaves the transmitter choice to the strategy."""
    if strategy is Strategy.SW_ARQ:
        return False
    return _table(strategy)[b][0] is None


def row_payload(strategy: Strategy, b: int) -> Payload:
    return _table(strategy)[b][1]


def c_rows(strategy: Strategy) -> tuple[int, ...]:
    """All rows whose transmitter is strategy-resolved, ascending."""
    return tuple(b for b in range(12) if row_designates_c(strategy, b))


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
    if not (0 <= b <= 11) or not row_designates_c(strategy, b):
        raise ProtocolError(f"row {b} of {strategy.value} does not designate C")
    rs_bit = state.rs1 if packet is Payload.P1 else state.rs2
    if rs_bit != 1:
        raise ProtocolError(f"relay does not hold {packet.value} in state b={b}")

    if strategy in (Strategy.RR, Strategy.RR_NC):
        return NodeId.R
    if strategy in (Strategy.AR, Strategy.AR_NC):
        return NodeId.R if ctx.token == 0 else _SOURCE_OF[packet]
    if strategy in (Strategy.CR, Strategy.CR_NC):
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

    if strategy is Strategy.SW_ARQ:
        # Relay-blind repeat of whichever packet is still missing, p1 first.
        if state.ps1 == 0:
            return Action(NodeId.S1, Payload.P1)
        return Action(NodeId.S2, Payload.P2)

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


def advance_token(
    strategy: Strategy,
    ctx: PolicyContext,
    executed_state: ArqState | None,
    next_state: ArqState | None = None,
) -> PolicyContext:
    """Update the scheduler token after a retransmission slot.

    AR family: the token flips exactly when the executed row designated C.
    CR family: the token is not alternated; it is recomputed from the
    feedback view as the decision bit (1 = source) for the upcoming row, so
    it mirrors what resolve_c will choose.  RR and SW_ARQ keep no token.
    """
    if strategy in (Strategy.AR, Strategy.AR_NC):
        if executed_state is not None and row_designates_c(
            strategy, executed_state.b_index
        ):
            ctx.token ^= 1
        return ctx
    if strategy in (Strategy.CR, Strategy.CR_NC):
        ctx.token = 0
        if next_state is not None and not next_state.complete:
            b = next_state.b_index
            if row_designates_c(strategy, b):
                chosen = resolve_c(strategy, next_state, row_payload(strategy, b), ctx)
                ctx.token = 0 if chosen is NodeId.R else 1
        return ctx
    return ctx


class Node(NamedTuple):
    """A kernel node: phase kind ("T0", "T1", "R"), the ARQ bits the slot
    starts from (a for T1, b for R) and the token (None if untokened)."""

    kind: str
    a: int | None = None
    b: int | None = None
    token: int | None = None


_PHASE_OF = {
    "T0": Phase.TRANSMISSION_1,
    "T1": Phase.TRANSMISSION_2,
    "R": Phase.RETRANSMISSION,
}


def _tokened_rows(strategy: Strategy, view: CsiMode) -> tuple[int, ...]:
    if strategy in (Strategy.AR, Strategy.AR_NC):
        return tuple(range(12))
    if strategy in (Strategy.CR, Strategy.CR_NC) and view is not CsiMode.GENIE:
        return c_rows(strategy)
    return ()


def kernel_nodes(
    strategy: Strategy, view: CsiMode = CsiMode.PREV_SLOT
) -> tuple[Node, ...]:
    """The kernel's nodes in state order: T0, T1(a), then R(b[, t])."""
    tokened = _tokened_rows(strategy, view)
    nodes = [Node("T0")] + [Node("T1", a=a) for a in range(4)]
    for b in range(12):
        nodes += [Node("R", b=b, token=t) for t in ((0, 1) if b in tokened else (None,))]
    return tuple(nodes)


@lru_cache(maxsize=None)
def kernel(
    strategy: Strategy,
    convention: XorConvention = XorConvention.SAME_INDEX,
    view: CsiMode = CsiMode.PREV_SLOT,
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (nxt, done) tables of shape (states, 8) over (state, joint
    channel); see the module docstring for the state order.

    The next node's token is the AR alternation bit advanced past the slot,
    or the CR choice for its row made from the view the slot leaves: its
    channel (PREV_SLOT) or the last-known view updated by its feedback.
    Under GENIE the CR choice is made from the current channel instead.
    """
    nodes = kernel_nodes(strategy, view)
    index = {node: k for k, node in enumerate(nodes)}
    tokened = _tokened_rows(strategy, view)
    views = range(8) if view is CsiMode.LAST_KNOWN else (None,)
    nxt = np.empty((len(nodes) * len(views), 8), dtype=np.intp)
    done = np.zeros(nxt.shape, dtype=bool)
    for k, node in enumerate(nodes):
        if node.kind == "R":
            state = ArqState.from_b_index(node.b)
        else:
            a = node.a or 0
            state = ArqState(ps1=a >> 1, rs1=a & 1)
        for v, known in enumerate(views):
            s = k * len(views) + v
            for chan in range(8):
                ctx = PolicyContext(phase=_PHASE_OF[node.kind], token=node.token or 0)
                ctx.set_csi_from_index(chan)  # read by the genie view only
                if node.kind == "R" and node.token is not None and row_designates_c(
                    strategy, node.b
                ):
                    payload = row_payload(strategy, node.b)
                    sender = _SOURCE_OF[payload] if node.token else NodeId.R
                    action = Action(sender, payload)
                else:
                    action = policy_action(strategy, state, ctx)
                out = apply_slot(state, action, chan, convention)
                seen = chan
                if known is not None:
                    seen = known
                    for link, bit in out.observed:
                        seen = with_link_bit(seen, link, bit)
                if out.state.complete:
                    done[s, chan] = True
                    target = Node("T0")
                elif node.kind == "T0":
                    target = Node("T1", a=(out.state.ps1 << 1) | out.state.rs1)
                else:
                    b, token = out.state.b_index, None
                    if b in tokened:
                        ctx.set_csi_from_index(seen)
                        executed = state if node.kind == "R" else None
                        token = advance_token(strategy, ctx, executed, out.state).token
                    target = Node("R", b=b, token=token)
                nxt[s, chan] = index[target] * len(views) + (0 if known is None else seen)
    nxt.setflags(write=False)
    done.setflags(write=False)
    return nxt, done
