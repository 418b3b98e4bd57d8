"""Output checks that stand apart from the program.

Each check rests on a property the method must have, or on a computation
the benchmark owns; none compares against a stored copy of earlier output.

* the CSV header is the frozen schema and the row count matches the grid;
* `sw-arq` rows equal the closed form 1 - pss;
* every throughput lies in (0, 1];
* at rho = 0 the `rr` / `rr-nc` analytic rows equal an absorbing-chain
  solve over i.i.d. links, built here from the 12-row retransmission table
  documented in `twarq.protocol`;
* a row with both engines has |eta_sim - eta_analytic| <= Z_BOUND * stderr
  wherever the analytic chain models the simulated decision view;
* a slot-by-slot replay, written here without `twarq.protocol`, reproduces
  `rounds_completed` of `twarq.run` exactly over a prefix of every
  long-simulation configuration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

HEADER = "strategy,rho,fs_db,fr_db,pss,psr,eta_analytic,eta_sim,sim_stderr,n_slots,seed"
COLUMNS = HEADER.split(",")

# Cross-engine gate: a both-engine row is wrong if the simulated throughput
# sits more than Z_BOUND regenerative standard errors from the chain value.
Z_BOUND = 5.0
CLOSED_FORM_TOL = 1e-11  # CSV values carry 12 significant digits
IID_TOL = 1e-9
REPLAY_SLOTS = 20_000


def parse(call, text: str) -> tuple[list[dict], list[str]]:
    """Rows of one CLI call's CSV, plus the problems found in its shape."""
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != HEADER:
        return [], [f"{' '.join(call.argv[:2])}: header {lines[:1]!r} is not the frozen schema"]
    rows = [dict(zip(COLUMNS, line.split(","))) for line in lines[1:]]
    if len(rows) != call.rows:
        problems.append(f"{' '.join(call.argv[:2])}: {len(rows)} rows, grid asks for {call.rows}")
    for row in rows:
        if len(row) != len(COLUMNS) or row["strategy"] not in call.labels:
            problems.append(f"malformed row {row}")
    return rows, problems


def check_rows(call, rows: list[dict]) -> tuple[list[str], float]:
    """Value checks of one call's rows; returns problems and the largest |z|."""
    problems = []
    worst_z = 0.0
    for row in rows:
        label = row["strategy"]
        pss = float(row["pss"])
        etas = [float(row[k]) for k in ("eta_analytic", "eta_sim") if row[k]]
        if not etas:
            problems.append(f"{label} pss={pss}: no throughput column filled")
        for eta in etas:
            if not 0.0 < eta <= 1.0:
                problems.append(f"{label} pss={pss} rho={row['rho']}: eta {eta} outside (0, 1]")
        if label == "sw-arq" and row["eta_analytic"]:
            if abs(float(row["eta_analytic"]) - (1.0 - pss)) > CLOSED_FORM_TOL:
                problems.append(f"sw-arq pss={pss}: eta {row['eta_analytic']} != 1 - pss")
        if call.engines != "analytic":
            if row["n_slots"] != str(call.n_slots) or row["seed"] != str(call.seed):
                problems.append(f"{label}: n_slots/seed columns {row['n_slots']}/{row['seed']}")
        # The chain models the previous-slot view; other views have no analytic twin.
        if row["eta_analytic"] and row["eta_sim"] and call.csi == "prev":
            gap = float(row["eta_sim"]) - float(row["eta_analytic"])
            se = float(row["sim_stderr"])
            z = abs(gap) / se if se > 0 else (0.0 if gap == 0 else math.inf)
            worst_z = max(worst_z, z)
            if z > Z_BOUND:
                problems.append(
                    f"{label} pss={pss} rho={row['rho']}: |eta_sim - eta_analytic| = "
                    f"{abs(gap):.3g} is {z:.2f} stderr (bound {Z_BOUND})"
                )
    return problems, worst_z


# ---------------------------------------------------------------------------
# i.i.d. reference: the 12-row retransmission table, with RR's relay choice.
# ARQ word b = ps1 ps2 rs1 rs2 (ps = packet at its destination source,
# rs = packet held by the relay).  Link bits: 1 = Good.
# ---------------------------------------------------------------------------

S1, S2, RELAY = "S1", "S2", "R"
P1, P2, XOR = "p1", "p2", "xor"
_TABLE = {
    0: (S1, P1), 1: (S1, P1), 2: (None, P1), 3: (RELAY, XOR),
    4: (S1, P1), 5: (S1, P1), 6: (None, P1), 7: (None, P1),
    8: (S2, P2), 9: (None, P2), 10: (S2, P2), 11: (None, P2),
}


def table_row(strategy: str, b: int) -> tuple[str | None, str]:
    """(transmitter or None for a C row, payload) of retransmission row b."""
    if b == 3 and not strategy.endswith("-nc"):
        return None, P1
    return _TABLE[b]


def deliver(bits: tuple[int, int, int, int], tx: str, payload: str,
            s1r: int, s2r: int, direct: int) -> tuple[tuple[int, int, int, int], tuple[str, ...]]:
    """ARQ bits after one slot, and the links its feedback reveals.

    The xor broadcast books delivery by link index (the `table2` default):
    p1 counts as delivered when S1-R is up, p2 when S2-R is up.
    """
    ps1, ps2, rs1, rs2 = bits
    if tx == S1:
        return (ps1 | direct, ps2, rs1 | s1r, rs2), ("s1s2", "s1r")
    if tx == S2:
        return (ps1, ps2 | direct, rs1, rs2 | s2r), ("s1s2", "s2r")
    if payload == P1:
        return (ps1 | s2r, ps2, rs1, rs2), ("s1r", "s2r")
    if payload == P2:
        return (ps1, ps2 | s1r, rs1, rs2), ("s1r", "s2r")
    return (ps1 | s1r, ps2 | s2r, rs1, rs2), ("s1r", "s2r")


def _word(bits) -> int:
    ps1, ps2, rs1, rs2 = bits
    return (ps1 << 3) | (ps2 << 2) | (rs1 << 1) | rs2


def iid_rr_throughput(strategy: str, pss: float, psr: float) -> float:
    """RR / RR-NC throughput over memoryless links: 2 / E[round length].

    The two first slots are S1 -> p1 and S2 -> p2; the retransmission rows
    then form an absorbing chain over b = 0..11 whose expected absorption
    time is solved directly.
    """
    outcomes = []
    for s1r, s2r, direct in itertools.product((0, 1), repeat=3):
        p = (1 - psr if s1r else psr) * (1 - psr if s2r else psr) * (1 - pss if direct else pss)
        outcomes.append((p, s1r, s2r, direct))

    q = np.zeros((12, 12))
    for b in range(12):
        bits = ((b >> 3) & 1, (b >> 2) & 1, (b >> 1) & 1, b & 1)
        tx, payload = table_row(strategy, b)
        tx = tx or RELAY  # RR resolves every C row to the relay
        for p, s1r, s2r, direct in outcomes:
            nxt, _ = deliver(bits, tx, payload, s1r, s2r, direct)
            if not (nxt[0] and nxt[1]):
                q[b, _word(nxt)] += p
    steps = np.linalg.solve(np.eye(12) - q, np.ones(12))

    length = 2.0
    for (p1, a1, _, d1), (p2, _, b2, d2) in itertools.product(outcomes, repeat=2):
        bits = (d1, d2, a1, b2)
        if not (d1 and d2):
            length += p1 * p2 * steps[_word(bits)]
    return float(2.0 / length)


def check_iid(rows: list[dict]) -> list[str]:
    problems = []
    for row in rows:
        if (row["strategy"] in ("rr", "rr-nc") and row["eta_analytic"]
                and float(row["rho"]) == 0.0):
            want = iid_rr_throughput(row["strategy"], float(row["pss"]), float(row["psr"]))
            got = float(row["eta_analytic"])
            if abs(got - want) > IID_TOL:
                problems.append(
                    f"{row['strategy']} rho=0 pss={row['pss']} psr={row['psr']}: "
                    f"eta {got!r} but the i.i.d. chain gives {want!r}"
                )
    return problems


# ---------------------------------------------------------------------------
# Slot-by-slot replay of a simulation prefix.
# ---------------------------------------------------------------------------

_SHIFT = {"s1r": 2, "s2r": 1, "s1s2": 0}
_DEST_RELAY_LINK = {P1: "s2r", P2: "s1r"}
_SOURCE = {P1: S1, P2: S2}


def link_path(p_gb: float, p_bg: float, n: int, rng: np.random.Generator) -> list[int]:
    """One link's Good(1)/Bad(0) bits by the documented draw rule: one
    uniform for a stationary start, then one per transition (Good next iff
    u < p_bg from Bad, u < p_gg from Good)."""
    state = 0 if rng.random() < p_gb / (p_gb + p_bg) else 1
    p_gg = 1.0 - p_gb
    out = [state]
    for u in rng.random(n - 1).tolist():
        state = 1 if u < (p_bg if state == 0 else p_gg) else 0
        out.append(state)
    return out


def joint_path(links, seed: int, n: int) -> list[int]:
    """Joint indices [s1r s2r s1s2] from one PCG64 stream per link, spawned
    from the run seed in link order S1-R, S2-R, S1-S2."""
    children = np.random.SeedSequence(seed).spawn(4)
    bits = [
        link_path(ge.p_gb, ge.p_bg, n, np.random.Generator(np.random.PCG64(child)))
        for ge, child in zip(links, children)
    ]
    return [(a << 2) | (b << 1) | c for a, b, c in zip(*bits)]


def replay_rounds(strategy: str, csi: str, path: list[int]) -> int:
    """Rounds completed when `strategy` runs over the joint channel path."""
    family = strategy.split("-")[0]
    rounds = 0
    bits = (0, 0, 0, 0)
    phase = 0  # 0: S1 sends p1, 1: S2 sends p2, 2: retransmission
    token = 0
    prev = last_known = 7  # links never seen count as Good
    for chan in path:
        view = {"prev": prev, "genie": chan, "last-known": last_known}[csi]
        c_row = False
        if phase == 0:
            tx, payload = S1, P1
        elif phase == 1:
            tx, payload = S2, P2
        else:
            tx, payload = table_row(strategy, _word(bits))
            c_row = tx is None
            if c_row:
                if family == "rr":
                    tx = RELAY
                elif family == "ar":
                    tx = RELAY if token == 0 else _SOURCE[payload]
                else:
                    direct_good = view & 1
                    relay_bad = not (view >> _SHIFT[_DEST_RELAY_LINK[payload]]) & 1
                    tx = _SOURCE[payload] if direct_good and relay_bad else RELAY
        bits, seen = deliver(bits, tx, payload, (chan >> 2) & 1, (chan >> 1) & 1, chan & 1)
        for link in seen:
            shift = _SHIFT[link]
            last_known = (last_known & ~(1 << shift)) | (((chan >> shift) & 1) << shift)
        if bits[0] and bits[1]:
            rounds += 1
            bits, phase, token = (0, 0, 0, 0), 0, 0
        else:
            phase = min(phase + 1, 2)
            if family == "ar" and c_row:
                token ^= 1
        prev = chan
    return rounds
