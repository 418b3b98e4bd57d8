"""Independent reference implementations the tests check the package against.

The Marcum Q oracles integrate the defining Rician tail directly, one with
scipy's adaptive quadrature and one at 40 digits in mpmath, which stays
exact where rho is so close to 1 that the link chain's p_gb is a difference
of two Q values agreeing to 12 digits.  The stationary-law oracle is damped power iteration, and the link sampler steps
the two-state chain scalar-wise.  The protocol oracle replays the state
machine slot by slot through the public protocol API, not through
protocol.kernel, so it checks the kernel.  The walk oracle does read the
kernel, one slot at a time: it checks the chunked data-parallel walk and
its stitch, not the table the walk reads.
"""

from __future__ import annotations

import warnings

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ive

from twarq.channel import GilbertElliottParams
from twarq.protocol import (
    ArqState,
    Phase,
    PolicyContext,
    Strategy,
    XorConvention,
    advance_token,
    apply_slot,
    policy_action,
    round_complete,
)
from twarq.protocol import CsiMode, kernel
from twarq.simulate import SimConfig, _channel_path

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


def link_path_scalar(ge: GilbertElliottParams, n_slots: int, rng) -> np.ndarray:
    """Step the two-state chain one uniform at a time: the next state is
    Good iff u < p_bg from Bad, u < p_gg from Good."""
    pi_bad = ge.p_gb / (ge.p_gb + ge.p_bg)
    cur = 0 if rng.random() < pi_bad else 1
    out = np.empty(n_slots, dtype=np.int8)
    out[0] = cur
    for k in range(1, n_slots):
        p_good = ge.p_bg if cur == 0 else ge.p_gg
        cur = 1 if rng.random() < p_good else 0
        out[k] = cur
    return out


def simulate_reference(config: SimConfig) -> tuple[int, list[int]]:
    """Slot-by-slot protocol replay on the same channel trajectory run() uses.

    Returns (rounds completed, per-round slot counts).  Shares only the
    channel path with run(); every protocol decision goes through
    policy_action / apply_slot / advance_token directly.
    """
    path = _channel_path(config.model, config.n_slots, config.seed)
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
            advance_token(strategy, ctx, state, outcome.state)
        for link, bit in outcome.observed:
            ctx.observe(link, bit)
        state = outcome.state

        if round_complete(state):
            rounds += 1
            lengths.append(k - round_start + 1)
            round_start = k + 1
            state = ArqState()
            ctx.reset_round()
        elif ctx.phase is Phase.TRANSMISSION_1:
            ctx.phase = Phase.TRANSMISSION_2
        elif ctx.phase is Phase.TRANSMISSION_2:
            ctx.phase = Phase.RETRANSMISSION
        prev_chan = chan
    return rounds, lengths


def walk_reference(
    path: np.ndarray, strategy: Strategy, convention: XorConvention, mode: CsiMode
) -> np.ndarray:
    """Completion slots of the sequential kernel walk over a channel path.

    Starts from node T0, under LAST_KNOWN with the all-Good view (state 7).
    Strategies outside the CR family ignore the view and are walked with the
    previous-slot one.
    """
    if strategy not in _CR_FAMILY:
        mode = CsiMode.PREV_SLOT
    nxt, done = (tab.tolist() for tab in kernel(strategy, convention, mode))
    state = 7 if mode is CsiMode.LAST_KNOWN else 0
    completions = []
    for k, c in enumerate(path.tolist()):
        if done[state][c]:
            completions.append(k)
        state = nxt[state][c]
    return np.array(completions, dtype=np.int64)
