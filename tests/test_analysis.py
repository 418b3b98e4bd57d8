import numpy as np
import pytest

from twarq.analysis import (
    _components,
    _plan,
    aggregate_coarse,
    analytic_many,
    analytic_throughput,
    enumerate_substates,
    steady_state,
    sw_arq_throughput,
    throughput,
    transition_matrix,
)
from twarq.channel import (
    JointChannelModel,
    db_to_linear,
    fading_margin_from_outage,
    ge_transitions,
    joint_matrices,
    outage_probability,
)
from twarq.exceptions import NumericalError
from twarq.protocol import CsiMode, Node, Phase, Strategy, XorConvention, kernel, kernel_nodes

from _oracles import chain_throughput_mp, stationary_power_iteration

COOPERATIVE = [s for s in Strategy if s is not Strategy.SW_ARQ]


def model_for(pss: float, ratio_db: float, rho: float) -> JointChannelModel:
    margin_r = fading_margin_from_outage(pss) * db_to_linear(ratio_db)
    return JointChannelModel.symmetric(pss, outage_probability(margin_r), rho)


PARAM_POINTS = [
    (0.3, 10.0, 0.0),
    (0.5, 10.0, 0.9),
    (0.7, 0.0, 0.999),
]


# ---------------------------------------------------------------------------
# Sub-state space
# ---------------------------------------------------------------------------


def test_substate_counts():
    expected = {
        Strategy.SW_ARQ: (136, 96),
        Strategy.RR: (136, 96),
        Strategy.RR_NC: (136, 96),
        Strategy.AR: (232, 192),
        Strategy.AR_NC: (232, 192),
        Strategy.CR: (184, 144),
        Strategy.CR_NC: (176, 136),
    }
    for strat, (total, r_block) in expected.items():
        space = enumerate_substates(strat)
        assert len(space) == total
        assert space.n_r == r_block
        assert space.n_t0 == 8 and space.n_t1 == 32


def substate(strategy: Strategy, m: int) -> tuple[Node, int]:
    """The (kernel node, channel) pair of sub-state m = node*8 + chan."""
    node, chan = divmod(m, 8)
    return kernel_nodes(strategy)[node], chan


def substate_index(strategy: Strategy, node: Node, chan: int) -> int:
    return 8 * kernel_nodes(strategy).index(node) + chan


def test_substate_order_t0_t1_r():
    assert len(enumerate_substates(Strategy.RR_NC)) == 8 * len(kernel_nodes(Strategy.RR_NC))
    assert substate(Strategy.RR_NC, 0) == (Node(Phase.TRANSMISSION_1), 0)
    assert substate(Strategy.RR_NC, 7) == (Node(Phase.TRANSMISSION_1), 7)
    assert substate(Strategy.RR_NC, 8) == (Node(Phase.TRANSMISSION_2, a=0), 0)
    assert substate(Strategy.RR_NC, 39) == (Node(Phase.TRANSMISSION_2, a=3), 7)
    assert substate(Strategy.RR_NC, 40)[0].kind is Phase.RETRANSMISSION


@pytest.mark.parametrize("rho", [0.0, 0.9, 0.999, 1 - 1e-7])
def test_sw_arq_chain_matches_closed_form(rho):
    """SW-ARQ's rows make an ordinary chain of the shared kernel, whose
    dense solve gives the closed form 1 - P_ss."""
    space = enumerate_substates(Strategy.SW_ARQ)
    assert len(space) == 136
    for pss in np.linspace(0.05, 0.95, 19):
        steady = steady_state(transition_matrix(space, model_for(pss, 10.0, rho)))
        assert abs(throughput(space, steady) - sw_arq_throughput(pss)) <= 1e-12, pss


def test_tokened_rows_match_c_rows():
    def tokened(strategy, view=CsiMode.PREV_SLOT):
        return {node.b for node in kernel_nodes(strategy, view) if node.token is not None}

    assert tokened(Strategy.CR_NC) == {2, 6, 7, 9, 11}
    assert tokened(Strategy.CR) == {2, 3, 6, 7, 9, 11}
    assert tokened(Strategy.AR) == set(range(12))
    assert tokened(Strategy.RR_NC) == set()
    # the stored view (last-known) or the current channel (genie) fixes the CR choice
    for strategy in (Strategy.CR, Strategy.CR_NC):
        assert tokened(strategy, CsiMode.LAST_KNOWN) == tokened(strategy, CsiMode.GENIE) == set()


# ---------------------------------------------------------------------------
# Transition matrix structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("strat", COOPERATIVE)
def test_matrix_rows_and_blocks(strat):
    space = enumerate_substates(strat)
    mat = transition_matrix(space, model_for(0.5, 10.0, 0.9))
    assert np.abs(mat.sum(axis=1) - 1.0).max() <= 1e-12
    t0, t1, r = space.t0_slice, space.t1_slice, space.r_slice
    assert np.all(mat[t0, t0] == 0.0)
    assert np.all(mat[t0, r] == 0.0)
    assert np.all(mat[t1, t1] == 0.0)
    assert np.all(mat[r, t1] == 0.0)
    # T0 rows reach exactly the eight sub-states of one T1 row-group
    assert np.all((mat[t0] > 0).sum(axis=1) == 8)


def test_xor_row_transitions_follow_the_update_table():
    """RR-NC from the both-at-relay row: the xor broadcast either completes
    the round (both relay links up), flips one delivery bit, or leaves the
    row unchanged, always with the channel-step probability."""
    space = enumerate_substates(Strategy.RR_NC)
    model = model_for(0.4, 10.0, 0.9)
    p_c = joint_matrices([model])[0]
    mat = transition_matrix(space, model)

    def idx(chan, b=None):
        node = Node(Phase.TRANSMISSION_1) if b is None else Node(Phase.RETRANSMISSION, b=b)
        return substate_index(Strategy.RR_NC, node, chan)

    for j in range(8):
        assert mat[idx(0, b=3), idx(j, b=3)] == pytest.approx(p_c[0, j], rel=1e-14)
        assert mat[idx(2, b=3), idx(j, b=7)] == pytest.approx(p_c[2, j], rel=1e-14)
        assert mat[idx(4, b=3), idx(j, b=11)] == pytest.approx(p_c[4, j], rel=1e-14)
        assert mat[idx(6, b=3), idx(j)] == pytest.approx(p_c[6, j], rel=1e-14)
        assert mat[idx(7, b=3), idx(j)] == pytest.approx(p_c[7, j], rel=1e-14)


def test_second_slot_new_round_condition():
    """T1 -> T0 exactly when p1 already arrived and the direct link is up."""
    space = enumerate_substates(Strategy.RR_NC)
    mat = transition_matrix(space, model_for(0.4, 10.0, 0.0))
    t0 = space.t0_slice
    for a in range(4):
        for i in range(8):
            row = mat[substate_index(Strategy.RR_NC, Node(Phase.TRANSMISSION_2, a=a), i)]
            goes_new_round = row[t0].sum() > 0
            assert goes_new_round == (a >= 2 and i & 1 == 1)


# ---------------------------------------------------------------------------
# Steady state
# ---------------------------------------------------------------------------


def test_steady_state_two_state_swap():
    st = steady_state(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert st.pi == pytest.approx([0.5, 0.5], abs=1e-14)


def test_steady_state_solves_on_the_class_reached_from_state_0():
    # two closed classes; a run started at state 0 never enters {2}
    mat = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    st = steady_state(mat)
    assert st.pi == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)


def test_steady_state_rejects_bad_matrix():
    with pytest.raises(ValueError):
        steady_state(np.array([[0.5, 0.2], [0.3, 0.7]]))


def test_steady_state_rejects_nan():
    with pytest.raises(ValueError, match="not row-stochastic"):
        steady_state(np.array([[np.nan, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("strat", [Strategy.RR_NC, Strategy.AR, Strategy.CR_NC])
@pytest.mark.parametrize("point", PARAM_POINTS)
def test_direct_solve_matches_power_iteration(strat, point):
    space = enumerate_substates(strat)
    mat = transition_matrix(space, model_for(*point))
    direct = steady_state(mat).pi
    oracle = stationary_power_iteration(mat)
    assert np.abs(direct - oracle).max() < 1e-8


@pytest.mark.parametrize("strat", COOPERATIVE)
@pytest.mark.parametrize("point", PARAM_POINTS)
def test_steady_state_quality(strat, point):
    space = enumerate_substates(strat)
    st = steady_state(transition_matrix(space, model_for(*point)))
    assert st.pi.min() >= 0.0
    assert st.pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert st.residual <= 1e-10
    t0, t1, _ = aggregate_coarse(space, st)
    assert abs(t0 - t1) <= 1e-10


def test_coarse_masses_sum_to_one():
    space = enumerate_substates(Strategy.CR)
    st = steady_state(transition_matrix(space, model_for(0.6, 10.0, 0.9)))
    t0, t1, r = aggregate_coarse(space, st)
    assert t0 + t1 + r == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Throughput
# ---------------------------------------------------------------------------


def test_perfect_channels_throughput_exact():
    model = JointChannelModel.from_outage(0.0, 0.0, 0.0, 0.0)
    for strat in COOPERATIVE:
        space = enumerate_substates(strat)
        st = steady_state(transition_matrix(space, model))
        assert throughput(space, st) == 1.0
        assert aggregate_coarse(space, st) == (0.5, 0.5, 0.0)


def test_all_bad_throughput_vanishes():
    model = JointChannelModel.from_outage(1.0, 1.0, 1.0, 0.0)
    for strat in COOPERATIVE:
        space = enumerate_substates(strat)
        st = steady_state(transition_matrix(space, model))
        assert throughput(space, st) == 0.0
        assert aggregate_coarse(space, st)[2] == 1.0


def test_pinned_bad_relays_give_direct_link_throughput():
    """Relays pinned Bad: the R rows with a packet held at a relay form
    closed classes that a run started at T0 never enters, and every
    cooperative strategy reduces to stop-and-wait over the direct link."""
    model = JointChannelModel.from_outage(1.0, 1.0, 0.4, 0.5)
    for strat in COOPERATIVE:
        assert abs(analytic_throughput(strat, model) - 0.6) <= 1e-12, strat


@pytest.mark.parametrize("outages,stalled", [
    ((1.0, 0.3, 1.0), COOPERATIVE),
    ((0.3, 1.0, 0.4), [Strategy.RR, Strategy.RR_NC]),
], ids=["s1-isolated", "s2-relay-down"])
def test_stalled_rounds_give_zero_throughput(outages, stalled):
    """When every route the protocol gives a packet runs over a link pinned
    Bad, its round stalls forever and T0 is transient; the solve must land
    on a closed class, not on everything reachable from state 0."""
    model = JointChannelModel.from_outage(*outages, 0.5)
    for strat in stalled:
        assert abs(analytic_throughput(strat, model)) <= 1e-12, strat


def test_throughput_stays_in_unit_interval():
    for strat in COOPERATIVE:
        for point in PARAM_POINTS:
            eta = analytic_throughput(strat, model_for(*point))
            assert 0.0 < eta <= 1.0


def test_sw_arq_formula_exact():
    assert sw_arq_throughput(0.3) == 0.7
    assert sw_arq_throughput(0.0) == 1.0
    assert sw_arq_throughput(1.0) == 0.0
    with pytest.raises(ValueError):
        sw_arq_throughput(1.1)
    with pytest.raises(ValueError):
        sw_arq_throughput(-0.1)


def test_analytic_throughput_sw_route():
    model = model_for(0.25, 10.0, 0.9)
    assert analytic_throughput(Strategy.SW_ARQ, model) == pytest.approx(0.75, abs=1e-9)


@pytest.mark.parametrize("rho", [0.0, 0.999, 1 - 1e-9])
def test_sw_arq_keeps_its_relative_precision_as_pss_nears_one(rho):
    """1 - pi_bad of the direct link cancels as P_ss nears 1: at -15.7 dB
    it gave 2.22e-16 for 1.11e-16.  Its Good share does not."""
    for fs_db in (-15.7, -15.0, -14.0, -10.0):
        pss = outage_probability(db_to_linear(fs_db))
        model = JointChannelModel.symmetric(pss, 0.3, rho)
        eta = analytic_many(Strategy.SW_ARQ, [model])[0]
        assert abs(eta - (1.0 - pss)) <= 1e-12 * (1.0 - pss), (fs_db, eta, 1.0 - pss)


@pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
def test_analytic_many_of_no_models_is_empty(strategy):
    eta = analytic_many(strategy, [])
    assert eta.shape == (0,) and eta.dtype == np.float64


def test_xor_conventions_agree_memoryless_symmetric():
    """With symmetric relay margins and no channel memory, which relay link
    carries which packet out of the xor broadcast is exchangeable, so the
    two bookkeeping conventions coincide.  (Under correlation they do not:
    the same-index convention always retries the leftover packet over the
    link that was just Good, the physical one over the link that just
    failed.  See test_acceptance for the grid-wide comparison.)"""
    for strat in (Strategy.RR_NC, Strategy.AR_NC):
        for pss in (0.2, 0.5, 0.8):
            model = model_for(pss, 10.0, 0.0)
            same = analytic_throughput(strat, model, XorConvention.SAME_INDEX)
            phys = analytic_throughput(strat, model, XorConvention.PHYSICAL)
            assert abs(same - phys) < 1e-10


def test_xor_conventions_chain_correlation_differently():
    # correlated channels: the same-index bookkeeping rides the surviving
    # good link and comes out strictly ahead
    model = model_for(0.5, 10.0, 0.9)
    same = analytic_throughput(Strategy.RR_NC, model, XorConvention.SAME_INDEX)
    phys = analytic_throughput(Strategy.RR_NC, model, XorConvention.PHYSICAL)
    assert same > phys + 1e-4


def test_xor_conventions_differ_for_asymmetric_relays():
    model = JointChannelModel(
        s1r=ge_transitions(0.05, 0.9),
        s2r=ge_transitions(0.6, 0.9),
        s1s2=ge_transitions(0.5, 0.9),
    )
    same = analytic_throughput(Strategy.RR_NC, model, XorConvention.SAME_INDEX)
    phys = analytic_throughput(Strategy.RR_NC, model, XorConvention.PHYSICAL)
    assert abs(same - phys) > 1e-4


# Recorded with repr() from the per-row assembly that the kernel scatter
# replaced: pss 0.4, relay margins +10 dB, rho 0.99.
PINNED_ETA = [
    (Strategy.RR, 0.7634348998294866, 0.7634348998294866),
    (Strategy.RR_NC, 0.8253994011664089, 0.820942502249003),
    (Strategy.AR, 0.7371107231840582, 0.7371107231840582),
    (Strategy.AR_NC, 0.8253865969439828, 0.8218337272344988),
    (Strategy.CR, 0.7677929767273207, 0.7677929767273207),
    (Strategy.CR_NC, 0.8281770462345432, 0.8251898249916239),
]


@pytest.mark.parametrize("strat,same_index,physical", PINNED_ETA,
                         ids=lambda v: getattr(v, "value", None))
def test_pinned_analytic_values(strat, same_index, physical):
    model = model_for(0.4, 10.0, 0.99)
    for convention, eta in ((XorConvention.SAME_INDEX, same_index),
                            (XorConvention.PHYSICAL, physical)):
        assert abs(analytic_throughput(strat, model, convention) - eta) <= 1e-12


# ---------------------------------------------------------------------------
# Renewal route (analytic_many)
# ---------------------------------------------------------------------------

C1_RHO, C1_PSS, C1_RATIO_DB = (0.0, 0.9, 0.999), (0.1, 0.3, 0.5, 0.7, 0.9), (0.0, 10.0)
CONVENTIONS = list(XorConvention)


@pytest.mark.parametrize("convention", CONVENTIONS, ids=lambda c: c.value)
@pytest.mark.parametrize("strat", COOPERATIVE, ids=lambda s: s.value)
def test_renewal_matches_dense_route_on_c1_grid(strat, convention):
    space = enumerate_substates(strat)
    models = [model_for(pss, ratio, rho)
              for rho in C1_RHO for ratio in C1_RATIO_DB for pss in C1_PSS]
    for model, eta in zip(models, analytic_many(strat, models, convention)):
        dense = throughput(space, steady_state(transition_matrix(space, model, convention)))
        assert abs(eta - dense) <= 1e-11


def test_batched_values_equal_one_point_calls():
    """Degenerate supports split a batch into plans; every value is still
    bit for bit what a call with that point alone gives."""
    models = [model_for(pss, 10.0, rho) for rho in (0.0, 0.99, 0.9999999)
              for pss in (0.1, 0.5, 0.9)]
    models[4:4] = [
        JointChannelModel.from_outage(0.0, 0.0, 0.0, 0.0),
        JointChannelModel.from_outage(1.0, 1.0, 0.4, 0.5),
        JointChannelModel.from_outage(1.0, 0.3, 1.0, 0.5),
        JointChannelModel.from_outage(0.3, 1.0, 0.4, 0.5),
    ]
    for strat in COOPERATIVE:
        for convention in CONVENTIONS:
            many = analytic_many(strat, models, convention)
            one = [analytic_many(strat, [m], convention)[0] for m in models]
            assert np.array_equal(many, one), (strat, convention)
            assert many[4] == 1.0


def test_renewal_keeps_the_row_sum_gate(monkeypatch):
    import twarq.analysis as analysis

    exact = analysis.joint_matrices
    monkeypatch.setattr(analysis, "joint_matrices", lambda models: exact(models) * (1 + 1e-9))
    with pytest.raises(NumericalError, match="off stochastic"):
        analytic_many(Strategy.RR_NC, [model_for(0.4, 10.0, 0.9)])


def test_renewal_row_sum_gate_rejects_nan(monkeypatch):
    import twarq.analysis as analysis

    exact = analysis.joint_matrices
    monkeypatch.setattr(analysis, "joint_matrices", lambda models: exact(models) * np.nan)
    with pytest.raises(NumericalError, match="off stochastic"):
        analytic_many(Strategy.RR_NC, [model_for(0.4, 10.0, 0.9)])


def test_renewal_raises_where_its_solve_gives_nan():
    """A direct-link outage of 1e-309 leaves a subnormal outflow in the
    round-start reduction; the division by it gives NaN, which the mass
    and residual checks must reject rather than return."""
    model = JointChannelModel.symmetric(1e-309, 0.0, 0.0)
    with np.errstate(all="ignore"), pytest.raises(NumericalError):
        analytic_many(Strategy.RR, [model])


# The analytic benchmark workload's quasi-static points: pss sweeps at
# rho = 1 - 1e-7 and 1 - 1e-8, fixed outages at 1 - 1e-9; relays +10 dB.
NEAR_ONE = (
    [(rho, pss) for rho in (0.9999999, 0.99999999) for pss in (0.1, 0.3, 0.5, 0.7, 0.9)]
    + [(0.999999999, pss) for pss in (0.3, 0.5, 0.7, 0.9)]
)


@pytest.mark.parametrize("strat", COOPERATIVE, ids=lambda s: s.value)
def test_renewal_matches_40_digit_chain_near_rho_one(strat):
    for rho, pss in NEAR_ONE:
        model = model_for(pss, 10.0, rho)
        exact = chain_throughput_mp(strat, model, XorConvention.SAME_INDEX)
        eta = analytic_throughput(strat, model)
        assert abs(eta - exact) <= 2e-12 * exact, (rho, pss)


def test_chain_oracle_matches_dense_solve_away_from_rho_one():
    for strat in (Strategy.RR_NC, Strategy.AR, Strategy.CR):
        for convention in CONVENTIONS:
            model = model_for(0.4, 10.0, 0.9)
            space = enumerate_substates(strat)
            dense = throughput(space, steady_state(transition_matrix(space, model, convention)))
            exact = float(chain_throughput_mp(strat, model, convention))
            assert abs(dense - exact) <= 1e-14 * exact


@pytest.mark.parametrize("view,bound", [(CsiMode.PREV_SLOT, 2), (CsiMode.LAST_KNOWN, 2)])
def test_round_components_are_small(view, bound):
    """ARQ bits only latch from 0 to 1, so with round starts (T0, state 0)
    cut out the kernel's graph has only tiny cycles: the token flips of one
    row, or under last-known two views of one CR row."""
    for strat in COOPERATIVE:
        for convention in CONVENTIONS:
            nxt = kernel(strat, convention, view)
            step = np.zeros((nxt.shape[0],) * 2, dtype=bool)
            step[np.repeat(np.arange(nxt.shape[0]), 8), nxt.ravel()] = True
            step[:, 0] = False
            comps = _components(step)
            assert sorted(np.concatenate(comps).tolist()) == list(range(nxt.shape[0]))
            assert max(c.size for c in comps) <= bound
            # topological: no edge runs from a later component to an earlier one
            rank = np.empty(nxt.shape[0], dtype=int)
            for k, c in enumerate(comps):
                rank[c] = k
            src, dst = np.nonzero(step)
            assert np.all(rank[src] <= rank[dst])


def test_plan_blocks_hold_at_most_16_sub_states():
    full = np.ones((8, 8), dtype=bool).tobytes()
    for strat in COOPERATIVE:
        for convention in CONVENTIONS:
            plan = _plan(strat, convention, full)
            assert plan.starts.tolist() == list(range(8))
            assert max(block.sub.size for block in plan.blocks) <= 16
