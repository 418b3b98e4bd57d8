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
function.  The difference is evaluated as one integral whose terms are all
non-negative, so nothing cancels however close rho is to 1:

    p_gb = -expm1(-a) + exp(-a) * (2/pi) * integral_0^inf
               -expm1(-b t^2 / (1 + k^2 t^2)) dt / (1 + t^2),

with L = 2/F = -2 ln(1 - P), k = (1 - rho)/(1 + rho), a = L k / 2 and
b = 2 rho L k / (1 + rho)^2.  It follows from the trigonometric (Craig)
form of Q (Simon & Alouini, Digital Communication over Fading Channels,
2nd ed., 2005, ch. 4): with exp(-c) I0(rho theta^2) written as a circle
average, the difference has the Poisson kernel
(1 - rho^2) / (1 - 2 rho cos(phi) + rho^2) as its weight, and the
substitution t = tan(psi/2), phi = 2 atan(k t) makes that weight uniform.
At rho = 0, b = 0 and the memoryless chain p_gb = P, p_bg = 1 - P comes
out exactly.

The network has three such links: source1-relay, source2-relay, and the
direct source1-source2 link.  They fade independently, so the joint channel
is an 8-state chain indexed by the 3-bit word [s1r, s2r, s1s2] with bit
value 1 = Good (no outage); index 7 means all links up.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import NumericalError

__all__ = [
    "BAD",
    "GOOD",
    "GilbertElliottParams",
    "JointChannelModel",
    "LinkId",
    "db_to_linear",
    "fading_margin_from_outage",
    "ge_transitions",
    "joint_matrices",
    "linear_to_db",
    "link_bit",
    "outage_probability",
    "sample_link_path",
    "sample_link_words",
    "stationary_link",
    "with_link_bit",
]

BAD = 0
GOOD = 1


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
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise ValueError(f"{x_db} dB is too large for a linear value") from None


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise ValueError(f"dB conversion needs a positive value, got {x}")
    return 10.0 * math.log10(x)


# 24-point Gauss-Legendre rule on [-1, 1], applied panel by panel in u = ln t.
# It is symmetric, so only the positive nodes and their weights are written
# out: np.polynomial.legendre.leggauss(24) to the last bit (a test checks),
# without loading numpy.polynomial and a LAPACK eigensolver at import.
_GL_HALF_NODES = np.array([
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451,
    0.5454214713888396, 0.6480936519369755, 0.7401241915785544, 0.820001985973903,
    0.8864155270044011, 0.9382745520027328, 0.9747285559713095, 0.9951872199970213,
])
_GL_HALF_WEIGHTS = np.array([
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552,
    0.10744427011596556, 0.09761865210411393, 0.0861901615319532, 0.07334648141108016,
    0.05929858491543636, 0.04427743881741941, 0.02853138862893356, 0.01234122979998869,
])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[::-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])


def _good_to_bad(p_out: float, rho: float) -> float:
    """p_gb by the integral of the module docstring, every term non-negative.

    L is kept factored out of a = L*alpha and b = L*beta: each -expm1(-L x)
    is evaluated as L * x * phi(L x) with phi(y) = -expm1(-y)/y, so nothing
    underflows when P, and with it L, is near 1e-300.

    The integrand changes shape at t = 1/sqrt(b) and t = 1/k, so the u = ln t
    axis is cut there, and each piece is covered by Gauss-Legendre panels at
    most 2 wide.  They run from 20 below the lower cut, or below t = 1 where
    the weight turns, to 20 above 1/k.  Past that the integrand is its limit
    -expm1(-b/k^2) times the weight, whose tail integral is atan(1/t).
    1/sqrt(b) is clipped at 1/k, which keeps t^2 finite for subnormal rho.
    """
    big_l = -2.0 * math.log1p(-p_out)
    k = (1.0 - rho) / (1.0 + rho)
    if rho == 0.0:
        return -math.expm1(-0.5 * big_l)
    alpha = 0.5 * k
    beta = 2.0 * rho * k / (1.0 + rho) ** 2
    u_k = -math.log(k)
    u_b = min(-0.5 * (math.log(big_l) + math.log(beta)), u_k)
    cuts = (min(u_b, 0.0) - 20.0, u_b, u_k, u_k + 20.0)
    # sorted(set()) rather than np.unique, which would load numpy.ma
    edges = np.array(sorted(set(np.concatenate([
        np.linspace(lo, hi, max(1, math.ceil((hi - lo) / 2.0)) + 1)
        for lo, hi in zip(cuts, cuts[1:])
    ]).tolist())))
    half = 0.5 * np.diff(edges)
    u = ((edges[:-1] + half)[:, None] + half[:, None] * _GL_NODES).ravel()
    t_sq = np.exp(2.0 * u)
    # b t^2 / (1 + k^2 t^2) over L, and dt / (1 + t^2) = du / (2 cosh u)
    shape = beta * t_sq / (1.0 + k * k * t_sq)
    integrand = shape * _expm1_ratio(big_l * shape) / (2.0 * np.cosh(u))
    body = float(integrand @ (half[:, None] * _GL_WEIGHTS).ravel())
    limit = beta / (k * k)
    tail = limit * float(_expm1_ratio(big_l * limit)) * math.atan(math.exp(-cuts[-1]))
    head = alpha * float(_expm1_ratio(big_l * alpha))
    return big_l * (head + math.exp(-big_l * alpha) * (2.0 / math.pi) * (body + tail))


def _expm1_ratio(y):
    """-expm1(-y)/y for y >= 0, with its limit 1 at y = 0."""
    y = np.asarray(y, dtype=float)
    return np.where(y > 0.0, -np.expm1(-y) / np.where(y > 0.0, y, 1.0), 1.0)


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

    @classmethod
    def always_good(cls) -> "GilbertElliottParams":
        return cls(p_gb=0.0, p_bg=1.0)

    @classmethod
    def always_bad(cls) -> "GilbertElliottParams":
        return cls(p_gb=1.0, p_bg=0.0)


@lru_cache(maxsize=4096)
def ge_transitions(p_out: float, rho: float) -> GilbertElliottParams:
    """Derive a link's two-state chain from (outage probability, correlation).

    Uses the level-crossing integral of the module docstring.  Results are
    cached: each sweep asks for every link once per strategy.  The computed
    probabilities must land inside [-1e-9, 1 + 1e-9]; anything further out
    is treated as a broken evaluation rather than silently clamped.
    """
    if not 0.0 < p_out < 1.0:
        raise ValueError(f"outage probability must be in (0, 1), got {p_out}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"correlation must be in [0, 1), got {rho}")

    p_gb = _good_to_bad(p_out, rho)
    p_bg = p_gb * (1.0 - p_out) / p_out

    band = 1e-9
    for name, p in (("p_gb", p_gb), ("p_bg", p_bg)):
        if not -band <= p <= 1.0 + band:
            raise NumericalError(
                f"{name}={p} outside [{-band}, {1 + band}] for "
                f"p_out={p_out}, rho={rho}; the level-crossing integral looks broken"
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


def joint_matrices(models: Sequence[JointChannelModel]) -> np.ndarray:
    """The 8x8 row-stochastic matrix of each model's joint channel chain,
    stacked to shape (len(models), 8, 8).

    The links fade independently, so each is the Kronecker product of the
    link matrices, S1R outermost as in the joint index: entry
    (4i + 2k + m, 4j + 2l + n) is s1r[i, j] * s2r[k, l] * s1s2[m, n],
    multiplied in that order, as np.kron(np.kron(s1r, s2r), s1s2) does.
    """
    links = np.array([[model.link(link).matrix() for link in LinkId] for model in models])
    s1r, s2r, s1s2 = links.reshape(-1, 3, 2, 2).transpose(1, 0, 2, 3)
    prod = (
        s1r[:, :, None, None, :, None, None]
        * s2r[:, None, :, None, None, :, None]
        * s1s2[:, None, None, :, None, None, :]
    )
    return prod.reshape(-1, 8, 8)


# Shift counts of the word fill, 1 to 32, and of a word's top bit.  As
# np.uint64 scalars they keep every word operation in uint64 under numpy 1.x
# value-based promotion and NEP 50 alike.
_WORD_SHIFTS = tuple(np.uint64(1 << i) for i in range(6))
_TOP_BIT = np.uint64(63)


def sample_link_path(
    ge: GilbertElliottParams,
    n_slots: int,
    rng: np.random.Generator,
    start: int | None = None,
) -> np.ndarray:
    """Sample one link's Good/Bad bits for n_slots slots, one int8 per slot:
    the bits of `sample_link_words`, drawn the same way."""
    words = sample_link_words(ge, n_slots, rng, start)
    return np.unpackbits(words.view(np.uint8), count=n_slots, bitorder="little").view(np.int8)


def sample_link_words(
    ge: GilbertElliottParams,
    n_slots: int,
    rng: np.random.Generator,
    start: int | None = None,
) -> np.ndarray:
    """Sample one link's Good/Bad bits for n_slots slots, packed
    little-endian into 64-bit words: slot t is bit t % 64 of word t // 64,
    and every bit past n_slots is 0.

    Without `start` the first slot is drawn stationary from one uniform and
    the remaining n_slots - 1 slots from one uniform per transition.  With
    `start` (the link's state in the slot just before) every returned slot
    is a transition, one uniform each, so a horizon sampled in blocks that
    carry the last state forward draws exactly what one call over the whole
    horizon draws.

    A transition maps a uniform u to the next state: Good iff u < p_bg from
    Bad, u < p_gg from Good.  That rule is equivalent to a
    forced-renewal form that vectorises for any chain: u < min(p_bg, p_gg)
    forces Good, u >= max(p_bg, p_gg) forces Bad, and in between the state
    holds when p_bg <= p_gg and toggles when p_bg > p_gg.  A slot's state is
    then the last forced value (or `start`), forward-filled, xor the parity
    of the toggles since it.  A stationary first slot is forced to its draw.

    The fill runs on the bits packed little-endian into 64-slot words, a
    value word and a forced word.  Within a word it is a prefix scan in six
    doubling steps (Hillis & Steele, CACM 29(12), 1986): for k = 1, 2, ...,
    32, a slot not yet filled takes the value of the slot k below it, and
    is filled if that one is.  A word's top bit is then its last state, if
    anything in it was forced.  Across words the state is carried by a
    running maximum over one key per word, 2*(word+1) + top value, or 0 for
    a word with nothing forced, so it costs one element per 64 slots; the
    carried state fills the slots of a word before its first forced one.
    A toggling chain first takes the parity of its unforced slots the same
    way: a prefix xor within each word, and an xor over the word totals
    across them.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots must be >= 1, got {n_slots}")
    u = np.empty(n_slots)
    stationary = start is None
    if stationary:
        pi_bad, _ = stationary_link(ge)
        start = BAD if rng.random() < pi_bad else GOOD
        rng.random(out=u[1:])
    else:
        rng.random(out=u)
    good = u < min(ge.p_bg, ge.p_gg)
    bad = u >= max(ge.p_bg, ge.p_gg)
    if stationary:
        good[0], bad[0] = start == GOOD, start == BAD
    n_words = -(-n_slots // 64)
    value = _packed_words(good, n_words)
    forced = value | _packed_words(bad, n_words)
    toggles = ge.p_bg > ge.p_gg
    if toggles:
        parity = ~forced
        for k in _WORD_SHIFTS:
            parity ^= parity << k
        through = np.bitwise_xor.accumulate(parity >> _TOP_BIT)  # to each word's end
        parity[1:] ^= _all_ones_where(through[:-1])
        value ^= parity
        value &= forced
    for k in _WORD_SHIFTS:
        value |= (value << k) & ~forced
        forced |= forced << k
    key = np.arange(2, 2 * n_words + 2, 2, dtype=np.int64)
    key += (value >> _TOP_BIT).astype(np.int64)
    key *= (forced >> _TOP_BIT).astype(np.int64)
    key[0] = max(key[0], start)
    np.maximum.accumulate(key, out=key)
    carried = np.empty(n_words, dtype=np.int64)
    carried[0] = start
    carried[1:] = key[:-1] & 1
    value |= ~forced & _all_ones_where(carried)
    if toggles:
        value ^= parity
    if n_slots % 64:
        value[-1] &= np.uint64((1 << n_slots % 64) - 1)
    return value


def _packed_words(bits: np.ndarray, n_words: int) -> np.ndarray:
    """The bits packed little-endian into n_words 64-bit words, zero-padded."""
    packed = np.zeros(8 * n_words, dtype=np.uint8)
    packed[: -(-bits.shape[0] // 8)] = np.packbits(bits, bitorder="little")
    return packed.view("<u8")


def _all_ones_where(bits: np.ndarray) -> np.ndarray:
    """A word of all ones for each 1 in the 0/1 integers, zero for each 0."""
    return (-bits.astype(np.int64)).view(np.uint64)
