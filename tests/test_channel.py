import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twarq.channel import (
    GilbertElliottParams,
    JointChannelModel,
    LinkId,
    db_to_linear,
    fading_margin_from_outage,
    ge_transitions,
    joint_matrices,
    linear_to_db,
    link_bit,
    outage_probability,
    sample_link_path,
    sample_link_words,
    stationary_link,
)

from _oracles import (
    good_to_bad_mp,
    joint_path,
    link_path_running_max,
    link_path_scalar,
    link_transition,
    marcum_q_mp,
    marcum_q_quad,
)

GRID_01 = np.linspace(0.05, 0.95, 19)
# a relay link of the benchmark's long simulations: +10 dB over pss 0.327 at
# rho 0.99, where about 40 % of the sampler's uniforms force a state
SIM_LONG_RELAY = ge_transitions(
    outage_probability(fading_margin_from_outage(0.327) * db_to_linear(10.0)), 0.99)


# ---------------------------------------------------------------------------
# Marcum Q oracles (the references the link chain is checked against)
# ---------------------------------------------------------------------------


def test_marcum_full_density_integrates_to_one():
    assert marcum_q_mp(2.5, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_marcum_rayleigh_reduction():
    # I0(0) = 1 collapses the integrand to the Rayleigh tail.
    assert marcum_q_mp(0.0, 1.5) == pytest.approx(math.exp(-1.125), abs=1e-15)


def test_marcum_equal_arguments_frozen():
    # frozen from the quadrature oracle (err estimate 8e-15)
    assert marcum_q_mp(1.0, 1.0) == pytest.approx(0.7328798037968204, abs=1e-12)


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 2.5, 4.0, 5.0])
@pytest.mark.parametrize("b", [0.0, 0.3, 1.0, 1.7, 3.0, 5.0])
def test_marcum_matches_quadrature(a, b):
    assert float(marcum_q_mp(a, b)) == pytest.approx(marcum_q_quad(a, b), abs=1e-12)


# ---------------------------------------------------------------------------
# Outage probability and fading margin
# ---------------------------------------------------------------------------


def test_outage_unit_margin():
    assert outage_probability(1.0) == pytest.approx(0.6321205588285577, abs=1e-15)


def test_outage_10db_margin():
    assert outage_probability(10.0) == pytest.approx(0.09516258196404043, abs=1e-15)


def test_outage_huge_margin_vanishes():
    assert outage_probability(1e308) == pytest.approx(0.0, abs=1e-300)
    assert outage_probability(math.inf) == 0.0


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_outage_domain(bad):
    with pytest.raises(ValueError):
        outage_probability(bad)


def test_margin_inverse_pair():
    assert fading_margin_from_outage(1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-14)
    assert fading_margin_from_outage(0.5) == pytest.approx(1.4426950408889634, abs=1e-14)


def test_margin_round_trip_grid():
    for p in np.linspace(0.01, 0.99, 100):
        assert outage_probability(fading_margin_from_outage(p)) == pytest.approx(
            p, abs=1e-12
        )


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.3])
def test_margin_domain(bad):
    with pytest.raises(ValueError):
        fading_margin_from_outage(bad)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=60, deadline=None)
def test_margin_round_trip_property(p):
    assert abs(outage_probability(fading_margin_from_outage(p)) - p) < 1e-12


def test_db_conversions_round_trip():
    for x_db in np.linspace(-40.0, 40.0, 33):
        assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db, abs=1e-12)
    with pytest.raises(ValueError):
        linear_to_db(0.0)


# ---------------------------------------------------------------------------
# Gilbert-Elliott transitions
# ---------------------------------------------------------------------------


def test_ge_memoryless_degeneracy():
    ge = ge_transitions(0.2, 0.0)
    assert ge.p_gb == pytest.approx(0.2, abs=1e-12)
    assert ge.p_bg == pytest.approx(0.8, abs=1e-12)


def test_ge_against_quadrature_oracle():
    # frozen value computed from marcum_q_quad at (P=0.5, rho=0.9)
    ge = ge_transitions(0.5, 0.9)
    assert ge.p_gb == pytest.approx(0.20885037419216917, abs=1e-10)
    assert ge.p_bg == pytest.approx(0.20885037419216917, abs=1e-10)

    for p_out, rho in [(0.3, 0.5), (0.9, 0.999), (0.05, 0.99)]:
        theta = math.sqrt((2.0 / fading_margin_from_outage(p_out)) / (1 - rho * rho))
        oracle = marcum_q_quad(theta, rho * theta) - marcum_q_quad(rho * theta, theta)
        assert ge_transitions(p_out, rho).p_gb == pytest.approx(oracle, abs=1e-9)


def test_ge_stationarity_balance_exact():
    for p_out in GRID_01:
        for rho in (0.0, 0.4, 0.9, 0.99):
            ge = ge_transitions(p_out, rho)
            assert (1.0 - p_out) * ge.p_gb == pytest.approx(p_out * ge.p_bg, rel=1e-12)


def test_ge_monotone_in_correlation():
    for p_out in (0.1, 0.5, 0.9):
        values = [ge_transitions(p_out, rho).p_gb for rho in np.arange(0.0, 0.991, 0.1)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("p_out,rho", [(0.0, 0.5), (1.0, 0.5), (0.5, -0.1), (0.5, 1.0)])
def test_ge_domain_errors(p_out, rho):
    with pytest.raises(ValueError):
        ge_transitions(p_out, rho)


@pytest.mark.parametrize(
    "p_out,rho",
    [(0.7, 0.999999999), (0.9, 0.999999999), (0.999, 0.999999999),
     (0.5, 0.999999999999), (0.3, 0.9)],
)
def test_ge_matches_mp_oracle_near_one(p_out, rho):
    # theta is formed at 40 digits from the same float inputs: near rho = 1,
    # p_gb is a difference of two Q values that agree to 12 digits
    with mpmath.workdps(40):
        p, r = mpmath.mpf(p_out), mpmath.mpf(rho)
        theta = mpmath.sqrt(-2 * mpmath.log1p(-p) / ((1 - r) * (1 + r)))
        oracle = marcum_q_mp(theta, r * theta) - marcum_q_mp(r * theta, theta)
    assert ge_transitions(p_out, rho).p_gb == pytest.approx(float(oracle), rel=1e-12)


@pytest.mark.parametrize("p_out,rho", [(0.3, 0.5), (0.7, 0.999999999), (0.5, 0.999999999999)])
def test_integral_oracle_matches_marcum_oracle(p_out, rho):
    with mpmath.workdps(40):
        p, r = mpmath.mpf(p_out), mpmath.mpf(rho)
        theta = mpmath.sqrt(-2 * mpmath.log1p(-p) / ((1 - r) * (1 + r)))
        # the Q difference cancels about as many of its 40 digits as 1 - rho has zeros
        marcum = marcum_q_mp(theta, r * theta) - marcum_q_mp(r * theta, theta)
        assert abs(good_to_bad_mp(p_out, rho) - marcum) <= 1e-24 * marcum


@pytest.mark.parametrize("rho", [1 - 1e-9, 1 - 1e-12, 1 - 1.1e-16])
def test_ge_tiny_outage_near_one(rho):
    """At P = 1e-300, a = L k/2 and b would be subnormal near rho = 1; with
    L factored out of both, p_gb keeps its digits."""
    exact = float(good_to_bad_mp(1e-300, rho))
    assert abs(ge_transitions(1e-300, rho).p_gb - exact) <= 1e-12 * exact


def _outage_where_b_is(target: float, rho: float) -> float:
    """The outage P at which the integral's b = 2 rho L k/(1+rho)^2 is target."""
    k = (1.0 - rho) / (1.0 + rho)
    big_l = target * (1.0 + rho) ** 2 / (2.0 * rho * k)
    return -math.expm1(-0.5 * big_l)


@pytest.mark.parametrize("boundary,rho", [
    ("b = 1", 0.1), ("b = 1", 0.3), ("b = 1", 0.5),
    ("b = k^2", 0.1), ("b = k^2", 0.5), ("b = k^2", 0.9), ("b = k^2", 0.999),
])
def test_ge_continuous_where_panel_layout_changes(boundary, rho):
    """The panels are cut at t = 1/sqrt(b), which turns at t = 1 (b = 1) and
    is clipped at t = 1/k (b = k^2).  Stepping P one ulp at a time across
    each switch, p_gb never jumps by more than 1e-14 relative."""
    k = (1.0 - rho) / (1.0 + rho)
    target = 1.0 if boundary == "b = 1" else k * k
    p_mid = _outage_where_b_is(target, rho)
    outages = [p_mid]
    for direction in (0.0, 1.0):
        p = p_mid
        for _ in range(16):
            p = float(np.nextafter(p, direction))
            outages.append(p)
    outages.sort()
    b_ends = [2 * rho * -2 * math.log1p(-p) * k / (1 + rho) ** 2 for p in outages[::len(outages) - 1]]
    assert b_ends[0] < target < b_ends[1]
    values = [ge_transitions(p, rho).p_gb for p in outages]
    jumps = [abs(b - a) / a for a, b in zip(values, values[1:])]
    assert max(jumps) <= 1e-14


def test_gauss_legendre_table_is_numpys_rule():
    from twarq import channel

    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(channel._GL_NODES, nodes)
    assert np.array_equal(channel._GL_WEIGHTS, weights)


@given(
    st.floats(min_value=1e-4, max_value=1 - 1e-4),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=60, deadline=None)
def test_ge_balance_property(p_out, rho):
    ge = ge_transitions(p_out, rho)
    assert 0.0 <= ge.p_gb <= 1.0 and 0.0 <= ge.p_bg <= 1.0
    assert abs((1.0 - p_out) * ge.p_gb - p_out * ge.p_bg) < 1e-12


@given(
    # P from 1e-12 up; test_ge_tiny_outage_near_one covers P = 1e-300
    st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@settings(max_examples=60, deadline=None)
def test_ge_not_increasing_in_correlation_property(p_out, rho_a, rho_b):
    lo, hi = sorted((rho_a, rho_b))
    # a few ulps of slack: at equal or adjacent rho the values tie up to rounding
    assert ge_transitions(p_out, hi).p_gb <= ge_transitions(p_out, lo).p_gb * (1 + 1e-14)


@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=60, deadline=None)
def test_ge_memoryless_exact_property(p_out):
    assert ge_transitions(p_out, 0.0).p_gb == -math.expm1(math.log1p(-p_out))


# ---------------------------------------------------------------------------
# Stationary law
# ---------------------------------------------------------------------------


def test_stationary_balance():
    assert stationary_link(ge_transitions(0.3, 0.0)) == pytest.approx((0.3, 0.7), abs=1e-12)


def test_stationary_symmetric():
    assert stationary_link(GilbertElliottParams(0.25, 0.25)) == (0.5, 0.5)


def test_stationary_rho_invariant():
    pi_bad, pi_good = stationary_link(ge_transitions(0.2, 0.999))
    assert pi_bad == pytest.approx(0.2, abs=1e-9)
    assert pi_good == pytest.approx(0.8, abs=1e-9)


def test_stationary_consistency_grid():
    for p_out in GRID_01:
        for rho in (0.0, 0.3, 0.6, 0.9, 0.99, 0.999):
            pi_bad, _ = stationary_link(ge_transitions(p_out, rho))
            assert pi_bad == pytest.approx(p_out, abs=1e-9)


def test_stationary_degenerate_error():
    with pytest.raises(ValueError):
        stationary_link(GilbertElliottParams(0.0, 0.0))


# ---------------------------------------------------------------------------
# Joint chain
# ---------------------------------------------------------------------------


def _asymmetric_model() -> JointChannelModel:
    return JointChannelModel(
        s1r=GilbertElliottParams(0.11, 0.31),
        s2r=GilbertElliottParams(0.07, 0.53),
        s1s2=GilbertElliottParams(0.23, 0.41),
    )


def test_joint_transition_factorisation():
    model = _asymmetric_model()
    # state 2 = [0,1,0], state 7 = [1,1,1]: Bad->Good on S1R, Good->Good on
    # S2R, Bad->Good on the direct link.
    expected = model.s1r.p_bg * model.s2r.p_gg * model.s1s2.p_bg
    mat = joint_matrices([model])[0]
    assert mat[2, 7] == pytest.approx(expected, rel=1e-14)
    for i in range(8):
        for j in range(8):
            product = math.prod(
                link_transition(model.link(link), link_bit(i, link), link_bit(j, link))
                for link in LinkId
            )
            assert mat[i, j] == pytest.approx(product, rel=1e-14), (i, j)


def test_joint_rows_stochastic():
    mat = joint_matrices([_asymmetric_model()])[0]
    assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-12


def test_joint_memoryless_rows_identical():
    model = JointChannelModel(
        ge_transitions(0.2, 0.0), ge_transitions(0.4, 0.0), ge_transitions(0.6, 0.0)
    )
    mat = joint_matrices([model])[0]
    assert np.abs(mat - mat[0]).max() < 1e-12


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_channel_path_empirical_distribution():
    """The joint transitions of a seed's path, drawn one link at a time as
    the engines draw it, follow the joint channel matrix."""
    model = JointChannelModel(
        ge_transitions(0.3, 0.6), ge_transitions(0.15, 0.2), ge_transitions(0.5, 0.8)
    )
    mat = joint_matrices([model])[0]
    path = joint_path(model, 1_000_000, 1234).astype(np.int64)
    counts = np.bincount(8 * path[:-1] + path[1:], minlength=64).reshape(8, 8)
    for i in range(8):
        n = counts[i].sum()
        for j in range(8):
            p = mat[i, j]
            sigma = math.sqrt(p * (1.0 - p) / n)
            assert abs(counts[i, j] / n - p) <= 4.0 * sigma + 1e-12, (i, j, counts[i, j] / n, p)


@pytest.mark.parametrize(
    "ge",
    [
        ge_transitions(0.3, 0.0),
        ge_transitions(0.3, 0.9),
        ge_transitions(0.05, 0.999),
        GilbertElliottParams.always_good(),
        GilbertElliottParams.always_bad(),
        GilbertElliottParams(0.9, 0.8),  # negatively correlated: the state toggles
        ge_transitions(0.79, 0.0),  # p_bg exceeds p_gg by 1 ulp
        SIM_LONG_RELAY,
    ],
)
def test_link_path_matches_scalar_stepping(ge):
    seed = np.random.SeedSequence(77)
    vec = sample_link_path(ge, 5000, np.random.Generator(np.random.PCG64(seed)))
    ref = link_path_scalar(ge, 5000, np.random.Generator(np.random.PCG64(seed)))
    assert np.array_equal(vec, ref)

    # the same horizon in pieces, each carrying the last state of the one before
    rng = np.random.Generator(np.random.PCG64(seed))
    pieces = [sample_link_path(ge, 1000, rng)]
    for n in (1, 1499, 2500):
        pieces.append(sample_link_path(ge, n, rng, start=int(pieces[-1][-1])))
    assert np.array_equal(np.concatenate(pieces), ref)

    # every slot a step from a given start, down to one slot
    for start in (0, 1):
        for n in (1, 2, 7, 5000):
            vec = sample_link_path(ge, n, np.random.Generator(np.random.PCG64(seed)), start)
            ref = link_path_scalar(ge, n, np.random.Generator(np.random.PCG64(seed)), start)
            assert np.array_equal(vec, ref), (start, n)


def test_sim_long_relay_link_is_about_40_percent_forced():
    u = np.random.default_rng(5).random(100_000)
    lo, hi = sorted((SIM_LONG_RELAY.p_bg, SIM_LONG_RELAY.p_gg))
    assert 0.35 <= np.mean((u < lo) | (u >= hi)) <= 0.45


@pytest.mark.parametrize("start", [0, 1])
def test_link_path_start_when_slot_0_is_not_forced(start):
    """Slot 0 holds the start state when its uniform forces nothing."""
    ge = SIM_LONG_RELAY
    seed = next(s for s in range(100)
                if ge.p_bg <= np.random.Generator(np.random.PCG64(s)).random() < ge.p_gg)
    for n in (1, 2, 7, 1000):
        vec = sample_link_path(ge, n, np.random.Generator(np.random.PCG64(seed)), start)
        ref = link_path_scalar(ge, n, np.random.Generator(np.random.PCG64(seed)), start)
        assert vec[0] == start
        assert np.array_equal(vec, ref), n


@pytest.mark.parametrize(
    "ge", [GilbertElliottParams(0.0, 0.0), GilbertElliottParams(1.0, 1.0)],
    ids=["sticky", "toggling"])
@pytest.mark.parametrize("start", [0, 1])
def test_link_path_with_no_forced_slot(ge, start):
    """No uniform forces a state: the path holds `start`, or alternates from it."""
    n = 4097
    vec = sample_link_path(ge, n, np.random.default_rng(9), start)
    assert np.array_equal(vec, link_path_scalar(ge, n, np.random.default_rng(9), start))
    expected = start ^ (np.arange(1, n + 1) & 1) if ge.p_bg > ge.p_gg else np.full(n, start)
    assert np.array_equal(vec, expected)


def test_link_path_single_slot():
    ge = ge_transitions(0.3, 0.5)
    path = sample_link_path(ge, 1, np.random.default_rng(3))
    assert path.shape == (1,) and path[0] in (0, 1)


# The sampler fills 64-slot words and carries the state, and a toggling
# chain's parity, from word to word; the simulator calls it on blocks of 2^18.
WORD_EDGES = (63, 64, 65, 127, 128, 129)
BLOCK_EDGES = (2**18 - 1, 2**18, 2**18 + 1)
# p_bg 2.5e-4 and p_gb 2.5e-6: about one slot in 4,000 forces a state, so
# unforced runs span dozens of words, and the carry crosses each word edge
RARELY_FORCED = ge_transitions(0.01, 1.0 - 1e-9)
WORD_FILL_CHAINS = [
    pytest.param(SIM_LONG_RELAY, id="sim-long-relay"),
    pytest.param(ge_transitions(0.3, 0.9), id="p0.3-rho0.9"),
    pytest.param(RARELY_FORCED, id="rarely-forced"),
    pytest.param(GilbertElliottParams(0.9, 0.8), id="toggling"),
    pytest.param(GilbertElliottParams(1.0, 1.0), id="always-toggling"),
]


def _both_samplers(sampler, ge, n, seed, start):
    vec = sample_link_path(ge, n, np.random.default_rng(seed), start)
    ref = sampler(ge, n, np.random.default_rng(seed), start)
    return vec, ref


@pytest.mark.parametrize("ge", WORD_FILL_CHAINS)
@pytest.mark.parametrize("start", [0, 1])
def test_word_fill_at_word_and_block_edges(ge, start):
    """Horizons either side of a word and a block edge draw what the
    running-maximum form draws, slot for slot."""
    for n in WORD_EDGES + BLOCK_EDGES:
        vec, ref = _both_samplers(link_path_running_max, ge, n, n, start)
        assert vec.dtype == np.int8 and vec.shape == (n,)
        assert np.array_equal(vec, ref), n


@pytest.mark.parametrize("ge", WORD_FILL_CHAINS)
@pytest.mark.parametrize("start", [0, 1])
def test_word_fill_matches_scalar_stepping(ge, start):
    for n in WORD_EDGES + (1, 2, 191, 192, 193, 4095, 4096, 4097):
        vec, ref = _both_samplers(link_path_scalar, ge, n, 3 * n, start)
        assert np.array_equal(vec, ref), n


@pytest.mark.parametrize("ge", WORD_FILL_CHAINS)
@pytest.mark.parametrize("start", [None, 0, 1])
def test_packed_words_unpack_to_the_path(ge, start):
    """The packed words hold the path's bits, slot t at bit t % 64 of word
    t // 64, and no bit past the horizon: a stray bit there would record
    rounds in slots that do not exist."""
    for n in (1, 63, 64, 65, 2**18 - 1, 2**18 + 1):
        words = sample_link_words(ge, n, np.random.default_rng(n), start)
        path = sample_link_path(ge, n, np.random.default_rng(n), start)
        assert words.dtype == np.dtype("<u8") and words.shape == (-(-n // 64),)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert np.array_equal(bits[:n], path), n
        assert not bits[n:].any(), n


def test_rarely_forced_chain_carries_across_many_words():
    """Most words of this path force nothing, and hold the state carried
    from the last forced slot, words before."""
    n = 2**18 + 1
    u = np.random.default_rng(4).random(n)
    lo, hi = sorted((RARELY_FORCED.p_bg, RARELY_FORCED.p_gg))
    forced = np.flatnonzero((u < lo) | (u >= hi))
    assert 1 <= forced.shape[0] and np.diff(forced, prepend=0, append=n).max() >= 64 * 100
    for start in (0, 1):
        vec, ref = _both_samplers(link_path_running_max, RARELY_FORCED, n, 4, start)
        assert np.array_equal(vec, ref), start


@settings(max_examples=80, deadline=None)
@given(
    p_gb=st.floats(0.0, 1.0),
    p_bg=st.floats(0.0, 1.0),
    n=st.integers(1, 1000) | st.sampled_from(WORD_EDGES + (2**12, 2**12 + 63)),
    start=st.sampled_from([0, 1, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_word_fill_property(p_gb, p_bg, n, start, seed):
    ge = GilbertElliottParams(p_gb, p_bg)
    if start is None and p_gb + p_bg == 0.0:
        start = 1  # no stationary law to draw the first slot from
    vec, ref = _both_samplers(link_path_scalar, ge, n, seed, start)
    assert np.array_equal(vec, ref)
    if start is not None:
        _, ref = _both_samplers(link_path_running_max, ge, n, seed, start)
        assert np.array_equal(vec, ref)
