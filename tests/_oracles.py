"""Independent reference implementations the tests check the package against.

The Marcum Q oracles integrate the defining Rician tail directly, one with
scipy's adaptive quadrature and one at 40 digits in mpmath, which stays
exact where rho is so close to 1 that the link chain's p_gb is a difference
of two Q values agreeing to 12 digits.  A second 40-digit p_gb oracle
evaluates the channel module's cancellation-free integral with mpmath's own
quadrature; it needs no cancellation, so it reaches outages near 1e-300,
where the Q difference would need some 300 digits.  The stationary-law
oracle is damped power iteration, the link step reads p_bg and p_gg
without the link matrix the joint one is built from, and the chain oracle
solves the sub-state chain at 40 digits by GTH state reduction.  The link
sampler steps the two-state chain scalar-wise; for long horizons a second
one forward-fills its forced slots by a running maximum over one key per
slot.
The joint path draws each link of a seed in one call over the horizon, so
it shares no block carry with the simulator.  The protocol oracle replays
the state machine slot by slot through the per-slot protocol API, not
through protocol.kernel, and keeps the token and round state itself, so it
checks the kernel's carry as well as its slots.
The walk oracle does read the kernel, one slot at a time: it checks the
chunked data-parallel walk and its stitch, not the table the walk reads.
The round statistics oracle sums per-round lengths batch by batch, where
the simulator reads each batch off the completion slots that bound it.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ive

from twarq.channel import GilbertElliottParams, JointChannelModel, LinkId, sample_link_path
from twarq.protocol import (
    ArqState,
    Phase,
    PolicyContext,
    Strategy,
    XorConvention,
    apply_slot,
    c_rows,
    policy_action,
)
from twarq.protocol import CsiMode, kernel
from twarq.simulate import SimConfig

_CR_FAMILY = (Strategy.CR, Strategy.CR_NC)
_AR_FAMILY = (Strategy.AR, Strategy.AR_NC)


def marcum_q_quad(a: float, b: float) -> float:
    """Adaptive quadrature of the Rician tail integral defining Q(a, b).

    The integrand is scaled as x * ive(0, a x) * exp(-(x-a)^2/2) so it stays
    representable for large arguments; the integral is split at a point far
    past the density bulk because quadpack cannot mix break points with an
    infinite limit.
    """
    def integrand(x: float) -> float:
        return x * ive(0, a * x) * np.exp(-0.5 * (x - a) ** 2)

    cut = a + b + 40.0
    pts = [a] if b < a < cut else None
    with warnings.catch_warnings():
        # requesting tolerances at the roundoff floor is intentional here
        warnings.simplefilter("ignore", IntegrationWarning)
        head, _ = quad(integrand, b, cut, points=pts, epsabs=1e-14, epsrel=1e-14, limit=400)
        tail, _ = quad(integrand, cut, np.inf, epsabs=1e-14, epsrel=1e-14, limit=200)
    return head + tail


def marcum_q_mp(a, b, dps: int = 40) -> mpmath.mpf:
    """Q(a, b) as the Rician tail integral of x exp(-(x^2 + a^2)/2) I0(a x)
    over [b, inf), at `dps` digits.

    Pass mpf arguments computed at that precision when the inputs
    themselves must be exact to more than 16 digits.  The integration range
    is cut at the density's peak near x = a and 20 on either side of it.
    """
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(a), mpmath.mpf(b)

        def density(x):
            return x * mpmath.exp(-(x * x + a * a) / 2) * mpmath.besseli(0, a * x)

        cuts = [b] + [x for x in (a - 20, a, a + 20) if x > b] + [mpmath.inf]
        return mpmath.quad(density, cuts)


def good_to_bad_mp(p_out: float, rho: float, dps: int = 40) -> mpmath.mpf:
    """p_gb = -expm1(-a) + exp(-a) (2/pi) I at `dps` digits, from the float
    inputs, with I = integral_0^inf -expm1(-b t^2/(1 + k^2 t^2)) dt/(1 + t^2)
    and L, k, a, b as in twarq.channel.

    I is integrated over I/b, so that mpmath's absolute error target stays
    relative however small b is.  Past t = 1/k the substitution v = 1/t
    gives the finite integral of -expm1(-b/(v^2 + k^2)) dv/(1 + v^2) over
    [0, k].  Before it the range is cut at every power of ten and at
    1/sqrt(b), where the integrand turns.
    """
    with mpmath.workdps(dps):
        p, r = mpmath.mpf(p_out), mpmath.mpf(rho)
        big_l = -2 * mpmath.log1p(-p)
        k = (1 - r) / (1 + r)
        a = big_l * k / 2
        b = 2 * r * big_l * k / (1 + r) ** 2
        if b == 0:
            return -mpmath.expm1(-a)

        def near(t):
            return -mpmath.expm1(-b * t * t / (1 + k * k * t * t)) / (b * (1 + t * t))

        def far(v):
            return -mpmath.expm1(-b / (v * v + k * k)) / (b * (1 + v * v))

        decades = {mpmath.mpf(10) ** j for j in range(int(mpmath.log10(1 / k)) + 1)}
        cuts = sorted({mpmath.mpf(0), 1 / k, min(1 / mpmath.sqrt(b), 1 / k)} | decades)
        body = mpmath.quad(near, cuts) + mpmath.quad(far, [0, k])
        return -mpmath.expm1(-a) + mpmath.exp(-a) * 2 / mpmath.pi * b * body


def stationary_power_iteration(mat: np.ndarray, tol: float = 1e-14) -> np.ndarray:
    """Damped power iteration; averaging makes periodic chains converge."""
    n = mat.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(5_000_000):
        nxt = 0.5 * (pi + pi @ mat)
        nxt /= nxt.sum()
        if np.abs(nxt - pi).max() < tol:
            return nxt
        pi = nxt
    raise RuntimeError("power iteration stalled")


def link_transition(ge: GilbertElliottParams, cur: int, nxt: int) -> float:
    """Probability that one link steps from state `cur` to state `nxt`
    (0 Bad, 1 Good), read off p_bg and p_gg, not off the link matrix."""
    p_good = ge.p_bg if cur == 0 else ge.p_gg
    return p_good if nxt == 1 else 1.0 - p_good


def link_path_scalar(ge: GilbertElliottParams, n_slots: int, rng,
                     start: int | None = None) -> np.ndarray:
    """Step the two-state chain one uniform at a time: the next state is
    Good iff u < p_bg from Bad, u < p_gg from Good.  Without `start` the
    first slot is drawn stationary; with it, every slot is a step from the
    state before, the first from `start`."""
    out = np.empty(n_slots, dtype=np.int8)
    if start is None:
        pi_bad = ge.p_gb / (ge.p_gb + ge.p_bg)
        cur = 0 if rng.random() < pi_bad else 1
        out[0] = cur
        first = 1
    else:
        cur, first = start, 0
    for k in range(first, n_slots):
        p_good = ge.p_bg if cur == 0 else ge.p_gg
        cur = 1 if rng.random() < p_good else 0
        out[k] = cur
    return out


def link_path_running_max(ge: GilbertElliottParams, n_slots: int, rng,
                          start: int) -> np.ndarray:
    """The forced-renewal form of the chain (see `sample_link_path`), every
    slot a step from `start` and the one before: the state is the last
    forced value, or `start`, forward-filled by a running maximum over one
    key per slot, 2*(slot+1) + value, or 0 for a slot not forced; a toggling
    chain xors in the parity of its unforced slots.  It draws what
    link_path_scalar draws, at numpy speed, so it reaches long horizons."""
    u = rng.random(n_slots)
    value = u < min(ge.p_bg, ge.p_gg)
    forced = value | (u >= max(ge.p_bg, ge.p_gg))
    toggles = ge.p_bg > ge.p_gg
    if toggles:
        parity = np.logical_xor.accumulate(~forced)
        value ^= parity
    key = np.arange(2, 2 * n_slots + 2, 2, dtype=np.int64)
    key += value
    key *= forced
    key[0] = max(key[0], start)
    np.maximum.accumulate(key, out=key)
    path = (key & 1).astype(np.int8)
    if toggles:
        path ^= parity
    return path


def joint_path(model: JointChannelModel, n_slots: int, seed: int) -> np.ndarray:
    """Joint channel indices (s1r << 2) | (s2r << 1) | s1s2 of a run's
    seed, one int8 per slot.  Each link is drawn in one call over the whole
    horizon by sample_link_path, from its own PCG64 stream spawned from the
    seed in LinkId order, as the simulator spawns them; no block carry."""
    children = np.random.SeedSequence(seed).spawn(4)  # 3 links + 1 spare
    path = np.zeros(n_slots, dtype=np.int8)
    for link, child in zip(LinkId, children):
        path <<= 1
        path |= sample_link_path(model.link(link), n_slots,
                                 np.random.Generator(np.random.PCG64(child)))
    return path


def simulate_reference(config: SimConfig) -> tuple[int, list[int]]:
    """Slot-by-slot protocol replay on the same channel trajectory run() uses.

    Returns (rounds completed, per-round slot counts).  Shares only the
    channel path with run(); every protocol decision goes through
    policy_action / apply_slot directly, and the replay keeps what carries
    across slots itself: the AR token flips after each executed C row, the
    CR view is the previous slot's channel (PREV_SLOT), the genie's current
    one, or the feedback observed so far (LAST_KNOWN), and each round starts
    at phase TRANSMISSION_1 with token 0.
    """
    path = joint_path(config.model, config.n_slots, config.seed)
    strategy = config.strategy
    state = ArqState()
    ctx = PolicyContext()
    rounds = 0
    lengths: list[int] = []
    round_start = 0
    prev_chan = 7

    for k in range(config.n_slots):
        chan = int(path[k])
        if ctx.phase is Phase.RETRANSMISSION and strategy in _CR_FAMILY:
            if config.csi_mode is CsiMode.PREV_SLOT:
                ctx.set_csi_from_index(prev_chan)
            elif config.csi_mode is CsiMode.GENIE:
                ctx.set_csi_from_index(chan)
        action = policy_action(strategy, state, ctx)
        outcome = apply_slot(state, action, chan, config.xor_convention)
        if ctx.phase is Phase.RETRANSMISSION and strategy in _AR_FAMILY:
            ctx.token ^= state.b_index in c_rows(strategy)
        for link, bit in outcome.observed:
            ctx.observe(link, bit)
        state = outcome.state

        if state.complete:
            rounds += 1
            lengths.append(k - round_start + 1)
            round_start = k + 1
            state = ArqState()
            ctx.phase, ctx.token = Phase.TRANSMISSION_1, 0
        elif ctx.phase is Phase.TRANSMISSION_1:
            ctx.phase = Phase.TRANSMISSION_2
        elif ctx.phase is Phase.TRANSMISSION_2:
            ctx.phase = Phase.RETRANSMISSION
        prev_chan = chan
    return rounds, lengths


def walk_reference(
    path: np.ndarray, strategy: Strategy, convention: XorConvention, mode: CsiMode
) -> np.ndarray:
    """Completion slots of the sequential kernel walk over a channel path,
    started at T0, state 0 of every kernel."""
    nxt = kernel(strategy, convention, mode).tolist()
    state = 0
    completions = []
    for k, c in enumerate(path.tolist()):
        state = nxt[state][c]
        if state == 0:  # a round completes exactly when T0 is entered
            completions.append(k)
    return np.array(completions, dtype=np.int64)


def round_stats_from_lengths(done: np.ndarray) -> tuple[float, float]:
    """(regenerative standard error, mean round length) from the per-round
    lengths of a run whose rounds complete at the slots `done`: the ratio
    estimator over 100 np.array_split batches of the float64 round lengths."""
    lengths = np.diff(done, prepend=np.int64(-1))
    mean = float(lengths.mean()) if lengths.shape[0] else float("nan")
    n_b = min(100, lengths.shape[0])
    if n_b < 2:
        return float("nan"), mean
    batches = np.array_split(lengths.astype(np.float64), n_b)
    batch_len = np.array([b.sum() for b in batches])
    batch_yield = np.array([2.0 * b.size for b in batches])
    eta = batch_yield.sum() / batch_len.sum()
    excess = batch_yield - eta * batch_len
    var = float((excess**2).sum()) / (n_b - 1)
    return math.sqrt(var / n_b) / float(batch_len.mean()), mean


def chain_throughput_mp(strategy: Strategy, model, convention: XorConvention,
                        dps: int = 40) -> mpmath.mpf:
    """eta of the sub-state chain at `dps` digits, by GTH state reduction.

    The link matrices take the float p_gb and p_bg as given and form the
    staying probabilities 1 - p at `dps` digits.  The chain is the kernel
    scatter P[8n + i, 8 nxt[n, i] + j] = p_c(i, j) on the states reached
    from sub-state 0, which must form one closed class (every p_c entry
    positive does that).  Those states are eliminated one at a time,
    highest index first, each one's row mass spread over its predecessors
    in proportion, with the diagonal never formed (Grassmann, Taksar and
    Heyman, Operations Research 33(5), 1985); the stationary law then
    follows by back-substitution, and eta is twice its T0 mass.
    """
    nxt = kernel(strategy, convention).tolist()
    with mpmath.workdps(dps):
        links = []
        for ge in (model.s1r, model.s2r, model.s1s2):
            p_gb, p_bg = mpmath.mpf(ge.p_gb), mpmath.mpf(ge.p_bg)
            links.append(((1 - p_bg, p_bg), (p_gb, 1 - p_gb)))

        def p_c(i: int, j: int):
            out = mpmath.mpf(1)
            for shift, link in zip((2, 1, 0), links):
                out *= link[(i >> shift) & 1][(j >> shift) & 1]
            return out

        rows: dict[int, dict[int, mpmath.mpf]] = {}
        todo = [0]
        while todo:
            m = todo.pop()
            if m in rows:
                continue
            node, i = divmod(m, 8)
            rows[m] = {8 * nxt[node][i] + j: p_c(i, j) for j in range(8)}
            rows[m] = {n: p for n, p in rows[m].items() if p != 0}
            todo += [n for n in rows[m] if n not in rows]
        preds: dict[int, set[int]] = {m: set() for m in rows}
        for m, row in rows.items():
            for n in row:
                preds[n].add(m)

        order = sorted(rows, reverse=True)[:-1]  # state 0 stays
        removed = []
        for e in order:
            row = rows.pop(e)
            row.pop(e, None)
            out = mpmath.fsum(row.values())
            col = {i: rows[i].pop(e) for i in preds.pop(e) - {e}}
            for i, p_ie in col.items():
                for j, p in row.items():
                    rows[i][j] = rows[i].get(j, 0) + p_ie * p / out
                    preds[j].add(i)
            for j in row:
                preds[j].discard(e)
            removed.append((e, col, out))

        pi = {0: mpmath.mpf(1)}
        for e, col, out in reversed(removed):
            pi[e] = mpmath.fsum(pi[i] * p for i, p in col.items()) / out
        total = mpmath.fsum(pi.values())
        return 2 * mpmath.fsum(p for m, p in pi.items() if m < 8) / total
