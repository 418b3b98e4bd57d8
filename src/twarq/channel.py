"""Correlated two-state (Good/Bad) Markov link model and its 8-state joint chain.

Each wireless link is abstracted to a binary outage process: Bad means the
slot's transmission on that link is lost, Good means it succeeds.  For a
Rayleigh-faded link with fading margin F the marginal outage probability is
P = 1 - exp(-1/F), and slot-to-slot memory with Jakes correlation rho gives
a two-state Markov chain whose transition probabilities come from the
bivariate Rayleigh level-crossing form

    p_gb = Q(theta, rho*theta) - Q(rho*theta, theta),
    p_bg = p_gb * (1 - P) / P,

with theta = sqrt((2/F) / (1 - rho^2)) and Q the first-order Marcum Q
function.  At rho = 0 this collapses to the memoryless chain p_gb = P,
p_bg = 1 - P.

The network has three such links: source1-relay, source2-relay, and the
direct source1-source2 link.  They fade independently, so the joint channel
is an 8-state chain indexed by the 3-bit word [s1r, s2r, s1s2] with bit
value 1 = Good (no outage); index 7 means all links up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import iv, ive

from .exceptions import NumericalError

__all__ = [
    "BAD",
    "GOOD",
    "GilbertElliottParams",
    "JointChannelModel",
    "LinkId",
    "LinkParams",
    "db_to_linear",
    "fading_margin_from_outage",
    "ge_transitions",
    "joint_matrix",
    "linear_to_db",
    "link_bit",
    "marcum_q",
    "outage_probability",
    "sample_link_path",
    "sample_next",
    "stationary_link",
    "with_link_bit",
]

BAD = 0
GOOD = 1

N_JOINT_STATES = 8


class LinkId(enum.IntEnum):
    """The three links of the two-way relay network."""

    S1R = 0
    S2R = 1
    S1S2 = 2


# Bit position of each link inside the 3-bit joint channel index
# (S1R is the most significant bit, the direct link the least).
_LINK_SHIFT = {LinkId.S1R: 2, LinkId.S2R: 1, LinkId.S1S2: 0}


def link_bit(index: int, link: LinkId) -> int:
    """Extract one link's Good/Bad bit from a joint channel index."""
    return (index >> _LINK_SHIFT[link]) & 1


def with_link_bit(index: int, link: LinkId, bit: int) -> int:
    """Return the joint index with one link's bit overwritten."""
    shift = _LINK_SHIFT[link]
    return (index & ~(1 << shift)) | ((bit & 1) << shift)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise ValueError(f"dB conversion needs a positive value, got {x}")
    return 10.0 * math.log10(x)


def marcum_q(a: float, b: float) -> float:
    """First-order Marcum Q function Q(a, b).

    Q(a,b) = integral_b^inf x * exp(-(x^2 + a^2)/2) * I0(a*x) dx, the tail
    probability of a Rician envelope.  Evaluated by the canonical modified
    Bessel series with exponential scaling,

        Q(a,b) = exp(-(b-a)^2/2) * sum_k (a/b)^k * ive(k, a*b),

    truncated adaptively once terms fall below 1e-16 of the running sum.
    The series is summed with a <= b only; for a > b the complement
    identity Q(a,b) = 1 + exp(-(a-b)^2/2)*ive(0, a*b) - Q(b,a) keeps the
    term ratio below one.  Absolute accuracy is ~1e-15 for arguments up to
    the theta values produced by any valid (P, rho) pair.
    """
    if not (math.isfinite(a) and math.isfinite(b)) or a < 0.0 or b < 0.0:
        raise ValueError(f"marcum_q needs finite a >= 0, b >= 0, got a={a}, b={b}")
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    if a > b:
        crossing = math.exp(-0.5 * (a - b) ** 2) * float(ive(0, a * b))
        return min(1.0, 1.0 + crossing - marcum_q(b, a))

    ratio = a / b
    ab = a * b
    if ab <= 1e-8:
        # library Bessel functions misbehave for near-underflow arguments;
        # here sum_k (a/b)^k ive(k, ab) = e^{-ab} sum_k (a^2/2)^k / k! to
        # relative accuracy (ab)^2/4 <= 2.5e-17, so truncate analytically
        poly = 1.0 + 0.5 * a * a * (1.0 + 0.25 * a * a)
        return min(1.0, math.exp(-0.5 * (b - a) ** 2 - ab) * poly)
    total = 0.0
    block = 64
    k0 = 0
    while k0 < 200_000:
        ks = np.arange(k0, k0 + block)
        terms = ratio**ks * ive(ks, ab)
        total += float(terms.sum())
        if terms[-1] <= 1e-16 * total:
            break
        k0 += block
    else:
        raise NumericalError(f"marcum_q series failed to converge for a={a}, b={b}")
    return min(1.0, math.exp(-0.5 * (b - a) ** 2) * total)


def _i0_minus_1(x: float) -> float:
    """I0(x) - 1 by its power series; library i0 is only accurate to 1 ulp
    of I0 itself, which is far too coarse when the excess over 1 matters."""
    if x == 0.0:
        return 0.0
    q = 0.25 * x * x
    term = q
    total = q
    k = 1
    while True:
        k += 1
        term *= q / (k * k)
        if term <= 1e-17 * total:
            return total + term
        total += term
        if k > 500:
            raise NumericalError(f"I0 excess series stalled at x={x}")


def _marcum_tail_diff(theta_sq: float, rho: float) -> float:
    """Q(theta, rho*theta) - Q(rho*theta, theta) without cancellation.

    The naive difference of two Marcum Q values near 1 loses all relative
    precision for small theta (near-perfect links).  Substituting the series
    for both terms and using the complement identity collapses the
    difference to

        D = 1 - exp(-c) * S,
        S = I0(ab) + 2 * sum_{k>=1} rho^k I_k(ab),
        c = theta^2 (1 + rho^2) / 2,   ab = rho * theta^2,

    which evaluates stably as -expm1(log(S) - c): via log1p of the small
    excess S-1 when ab is modest, and via exponentially scaled Bessel terms
    in log space when ab is large.
    """
    ab = rho * theta_sq
    c = 0.5 * (1.0 + rho * rho) * theta_sq

    if ab <= 1e-8:
        # I0(ab)-1 + 2 sum rho^k I_k(ab) to second order in ab; the library
        # Bessel routines underflow or return NaN this far down
        excess = ab * (rho + 0.25 * ab * (1.0 + rho * rho))
        return -math.expm1(math.log1p(excess) - c)

    if ab <= 30.0:
        excess = _i0_minus_1(ab)
        if rho > 0.0:
            k0 = 1
            while True:
                ks = np.arange(k0, k0 + 64)
                terms = 2.0 * rho**ks * iv(ks, ab)
                excess += float(terms.sum())
                if terms[-1] <= 1e-17 * (1.0 + excess):
                    break
                k0 += 64
                if k0 > 20_000:
                    raise NumericalError(
                        f"tail-difference series stalled at theta^2={theta_sq}, rho={rho}"
                    )
        return -math.expm1(math.log1p(excess) - c)

    scaled = float(ive(0, ab))
    k0 = 1
    while True:
        ks = np.arange(k0, k0 + 64)
        terms = 2.0 * rho**ks * ive(ks, ab)
        scaled += float(terms.sum())
        if terms[-1] <= 1e-17 * scaled:
            break
        k0 += 64
        if k0 > 200_000:
            raise NumericalError(
                f"tail-difference series stalled at theta^2={theta_sq}, rho={rho}"
            )
    # c - ab reduces to theta^2 (1-rho)^2 / 2 exactly; using the product form
    # avoids subtracting two large near-equal exponents.
    gap = 0.5 * theta_sq * (1.0 - rho) ** 2
    return -math.expm1(math.log(scaled) - gap)


def outage_probability(fading_margin: float) -> float:
    """Rayleigh outage probability 1 - exp(-1/F) for fading margin F (linear)."""
    if not fading_margin > 0.0 or math.isnan(fading_margin):
        raise ValueError(f"fading margin must be positive, got {fading_margin}")
    return -math.expm1(-1.0 / fading_margin)


def fading_margin_from_outage(p_out: float) -> float:
    """Inverse of outage_probability: F = -1/ln(1 - P) for P in (0, 1)."""
    if not 0.0 < p_out < 1.0:
        raise ValueError(f"outage probability must be in (0, 1), got {p_out}")
    return -1.0 / math.log1p(-p_out)


@dataclass(frozen=True)
class GilbertElliottParams:
    """Transition probabilities of one link's two-state chain.

    p_gb is the Good-to-Bad probability, p_bg the Bad-to-Good one; the
    staying probabilities are implied.  Stationarity against a marginal
    outage probability P requires (1-P)*p_gb = P*p_bg.
    """

    p_gb: float
    p_bg: float

    def __post_init__(self) -> None:
        for name, p in (("p_gb", self.p_gb), ("p_bg", self.p_bg)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @property
    def p_gg(self) -> float:
        return 1.0 - self.p_gb

    @property
    def p_bb(self) -> float:
        return 1.0 - self.p_bg

    def matrix(self) -> np.ndarray:
        """2x2 row-stochastic matrix over states (Bad, Good)."""
        return np.array([[self.p_bb, self.p_bg], [self.p_gb, self.p_gg]])

    def transition(self, cur: int, nxt: int) -> float:
        """Probability of moving from state `cur` to state `nxt` (0=Bad, 1=Good)."""
        p_good = self.p_bg if cur == BAD else self.p_gg
        return p_good if nxt == GOOD else 1.0 - p_good

    @classmethod
    def always_good(cls) -> "GilbertElliottParams":
        return cls(p_gb=0.0, p_bg=1.0)

    @classmethod
    def always_bad(cls) -> "GilbertElliottParams":
        return cls(p_gb=1.0, p_bg=0.0)


@lru_cache(maxsize=4096)
def ge_transitions(p_out: float, rho: float) -> GilbertElliottParams:
    """Derive a link's two-state chain from (outage probability, correlation).

    Uses the level-crossing form described in the module docstring.  Results
    are cached: a sweep asks for the same few links once per strategy, and
    near rho = 1 one Marcum series costs tens of milliseconds.  The
    computed probabilities must land inside [-1e-9, 1 + 1e-9]; anything
    further out is treated as a broken Marcum Q evaluation rather than
    silently clamped.
    """
    if not 0.0 < p_out < 1.0:
        raise ValueError(f"outage probability must be in (0, 1), got {p_out}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"correlation must be in [0, 1), got {rho}")

    # theta^2 = (2/F)/(1-rho^2) with 2/F = -2 ln(1-P), kept squared so the
    # rho = 0 limit reproduces P = -expm1(-1/F) to the last bit.
    theta_sq = -2.0 * math.log1p(-p_out) / (1.0 - rho * rho)
    p_gb = _marcum_tail_diff(theta_sq, rho)
    p_bg = p_gb * (1.0 - p_out) / p_out

    band = 1e-9
    for name, p in (("p_gb", p_gb), ("p_bg", p_bg)):
        if not -band <= p <= 1.0 + band:
            raise NumericalError(
                f"{name}={p} outside [{-band}, {1 + band}] for "
                f"p_out={p_out}, rho={rho}; Marcum Q looks broken"
            )
    return GilbertElliottParams(
        p_gb=min(1.0, max(0.0, p_gb)),
        p_bg=min(1.0, max(0.0, p_bg)),
    )


def stationary_link(ge: GilbertElliottParams) -> tuple[float, float]:
    """Stationary (pi_bad, pi_good) of one link's chain."""
    denom = ge.p_gb + ge.p_bg
    if denom == 0.0:
        raise ValueError("degenerate chain: p_gb = p_bg = 0 has no unique stationary law")
    return ge.p_gb / denom, ge.p_bg / denom


@dataclass(frozen=True)
class LinkParams:
    """(fading margin, correlation) description of one link, margins linear."""

    fading_margin: float
    rho: float

    def __post_init__(self) -> None:
        if not self.fading_margin > 0.0:
            raise ValueError(f"fading margin must be positive, got {self.fading_margin}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"correlation must be in [0, 1), got {self.rho}")

    @property
    def outage_prob(self) -> float:
        return outage_probability(self.fading_margin)

    @classmethod
    def from_outage(cls, p_out: float, rho: float) -> "LinkParams":
        return cls(fading_margin_from_outage(p_out), rho)

    @classmethod
    def from_margin_db(cls, margin_db: float, rho: float) -> "LinkParams":
        return cls(db_to_linear(margin_db), rho)

    def chain(self) -> GilbertElliottParams:
        return ge_transitions(self.outage_prob, self.rho)


@dataclass(frozen=True)
class JointChannelModel:
    """Three independent link chains composed into one 8-state joint chain."""

    s1r: GilbertElliottParams
    s2r: GilbertElliottParams
    s1s2: GilbertElliottParams

    def link(self, link: LinkId) -> GilbertElliottParams:
        return (self.s1r, self.s2r, self.s1s2)[link]

    @classmethod
    def from_outage(
        cls, p_s1r: float, p_s2r: float, p_s1s2: float, rho: float
    ) -> "JointChannelModel":
        """Build from per-link outage probabilities in [0, 1], same correlation.

        The degenerate endpoints give a link pinned Good (P=0) or Bad (P=1).
        """

        def one(p: float) -> GilbertElliottParams:
            if p == 0.0:
                return GilbertElliottParams.always_good()
            if p == 1.0:
                return GilbertElliottParams.always_bad()
            return ge_transitions(p, rho)

        return cls(one(p_s1r), one(p_s2r), one(p_s1s2))

    @classmethod
    def symmetric(cls, p_ss: float, p_sr: float, rho: float) -> "JointChannelModel":
        """Equal relay-link reliability on both sides, direct link separate."""
        return cls.from_outage(p_sr, p_sr, p_ss, rho)


def joint_matrix(model: JointChannelModel) -> np.ndarray:
    """Full 8x8 row-stochastic matrix of the joint channel chain.

    The links fade independently, so it is the Kronecker product of the link
    matrices, S1R outermost as in the joint index.
    """
    s1r, s2r, s1s2 = (model.link(link).matrix() for link in LinkId)
    return np.kron(np.kron(s1r, s2r), s1s2)


def sample_next(model: JointChannelModel, i: int, rng: np.random.Generator) -> int:
    """Advance the joint chain one slot; one uniform per link, S1R first."""
    if not 0 <= i < N_JOINT_STATES:
        raise ValueError(f"joint channel index must be in 0..7, got {i}")
    j = 0
    for link in LinkId:
        ge = model.link(link)
        p_good = ge.p_bg if link_bit(i, link) == BAD else ge.p_gg
        bit = 1 if rng.random() < p_good else 0
        j |= bit << _LINK_SHIFT[link]
    return j


def sample_link_path(
    ge: GilbertElliottParams,
    n_slots: int,
    rng: np.random.Generator,
    start: int | None = None,
) -> np.ndarray:
    """Sample one link's Good/Bad bits for n_slots slots.

    Without `start` the first slot is drawn stationary from one uniform and
    the remaining n_slots - 1 slots from one uniform per transition.  With
    `start` (the link's state in the slot just before) every returned slot
    is a transition, one uniform each, so a horizon sampled in blocks that
    carry the last state forward draws exactly what one call over the whole
    horizon draws.

    Transitions map a uniform u exactly like sample_next (next is Good iff
    u < p_bg from Bad, u < p_gg from Good).  That rule is equivalent to a
    forced-renewal form that vectorises for any chain: u < min(p_bg, p_gg)
    forces Good, u >= max(p_bg, p_gg) forces Bad, and in between the state
    holds when p_bg <= p_gg and toggles when p_bg > p_gg.  A slot's state is
    then the last forced value (or `start`), forward-filled, xor the parity
    of the toggles since it.  The forward fill is a running maximum over
    keys 2*(slot+1) + value, so the value rides in the lowest bit.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    if start is None:
        pi_bad, _ = stationary_link(ge)
        first = BAD if rng.random() < pi_bad else GOOD
        path = np.empty(n_slots, dtype=np.int8)
        path[0] = first
        if n_slots > 1:
            path[1:] = sample_link_path(ge, n_slots - 1, rng, first)
        return path

    u = rng.random(n_slots)
    value = u < min(ge.p_bg, ge.p_gg)
    forced = value | (u >= max(ge.p_bg, ge.p_gg))
    toggles = ge.p_bg > ge.p_gg
    if toggles:
        parity = np.logical_xor.accumulate(~forced)
        value ^= parity
    key_type = np.int32 if n_slots < 2**30 else np.int64
    key = np.arange(2, 2 * n_slots + 2, 2, dtype=key_type)
    key += value
    key = np.where(forced, key, key_type(start))
    np.maximum.accumulate(key, out=key)
    path = (key & 1).astype(np.int8)
    if toggles:
        path ^= parity
    return path
