import copy
import math
import pickle

import pytest

from tempo_ncg import (
    CostBreakdown,
    EquilibriumKind,
    HostGraph,
    InvalidPurchase,
    NotOwned,
    NotSimple,
    Setting,
    SettingMismatch,
    StrategyProfile,
    TemporalGraph,
    TimeEdge,
    UnknownNode,
    Verdict,
    agent_cost,
    dense_cycle_instance,
    direct_terminal_profile,
    equilibrium_certificates,
    find_forbidden_structure,
    find_improving_response,
    ge_from_minimal_spanner,
    greedy_dynamics,
    greedy_improving_response,
    hypercube_equilibrium,
    is_greedy_equilibrium,
    is_nash_equilibrium,
    is_terminal_spanner,
    necessary_terminals,
    random_host,
    realized_graph,
    social_cost,
    two_terminal_ne,
    validate_and_normalize_host,
)
import tempo_ncg.game
from oracles import (
    assert_matches_the_unbudgeted_oracle,
    call_under_a_low_recursion_limit,
    oracle_find_improving_response,
)
from tempo_ncg.fixtures import fig4_instance, fig5_left_instance, fig5_right_instance
from tempo_ncg.game import SearchOutcome, _others_groups, _realized_index


def edge(u, v, label):
    return TimeEdge(u, v, label)


def make_host(nodes, overrides, default, terminals):
    """Complete host with ``default`` on every pair not in ``overrides``."""
    edges = []
    done = set()
    for (a, b), labels in overrides.items():
        if isinstance(labels, int):
            labels = (labels,)
        edges.extend(edge(a, b, l) for l in labels)
        done.add(edge(a, b, labels[0]).pair)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if (a, b) not in done and (b, a) not in done:
                edges.append(edge(a, b, default))
    return validate_and_normalize_host(TemporalGraph(nodes, edges), terminals)


# --- profiles and realized graphs -------------------------------------------


def test_empty_profile_realizes_edgeless_graph():
    inst = fig4_instance()
    empty = StrategyProfile.empty(Setting.GLOBAL)
    assert realized_graph(empty, inst.host).time_edge_count == 0


def test_left_fixture_realizes_five_blue_edges():
    inst = fig5_left_instance()
    g = realized_graph(inst.profile, inst.host)
    assert g.time_edge_count == 5
    assert g.has_time_edge(edge("v1", "v4", 1))
    assert g.has_time_edge(edge("v1", "v2", 4))


def test_shared_purchase_appears_once():
    inst = fig5_right_instance()
    p = inst.profile.with_setting(Setting.GLOBAL)
    # v1 re-buys an edge v3 already owns: 8 purchases, 7 distinct edges.
    s1 = (p.strategy("v1") - {edge("v1", "v3", 2)}) | {edge("v3", "v4", 1)}
    p = p.with_strategy("v1", s1)
    assert p.total_purchases() == 8
    assert realized_graph(p, inst.host).time_edge_count == 7


def test_profile_validation_errors():
    inst = fig5_left_instance()
    ghost = StrategyProfile(
        setting=Setting.GLOBAL,
        strategies={"v1": frozenset({edge("v1", "v2", 9)})},
    )
    with pytest.raises(InvalidPurchase):
        realized_graph(ghost, inst.host)
    foreign = StrategyProfile(
        setting=Setting.LOCAL,
        strategies={"v1": frozenset({edge("v2", "v3", 3)})},
    )
    with pytest.raises(InvalidPurchase):
        foreign.validate(inst.host)
    # The same strategy is fine when the setting is global.
    foreign.with_setting(Setting.GLOBAL).validate(inst.host)


def _count_host_lookups(monkeypatch):
    """Count ``HostGraph.has_time_edge`` calls: validation makes one per
    bought edge, and a remembered validation makes none."""
    calls = []
    real = HostGraph.has_time_edge
    monkeypatch.setattr(
        HostGraph, "has_time_edge", lambda h, e: calls.append(e) or real(h, e)
    )
    return calls


def test_validation_memo_is_per_host_object():
    inst = fig5_left_instance()
    s = inst.profile
    _realized_index(s, inst.host)
    # A host that lacks one of the profile's edges still rejects it.
    dropped = next(iter(s.bought_edges()))
    graph = inst.host.graph.without_time_edge(dropped)
    lacking = HostGraph(graph=graph, terminals=inst.host.terminals)
    with pytest.raises(InvalidPurchase):
        s.validate(lacking)
    with pytest.raises(InvalidPurchase):
        realized_graph(s, lacking)
    with pytest.raises(InvalidPurchase):
        agent_cost(s.buyers[0], s, lacking)
    s.validate(inst.host)


def test_validation_memo_skips_only_a_repeat_on_the_same_host(monkeypatch):
    inst = fig5_left_instance()
    s = inst.profile
    s.validate(inst.host)
    calls = _count_host_lookups(monkeypatch)
    s.validate(inst.host)
    assert calls == []
    # An equal host that is another object is checked afresh.
    twin = HostGraph(graph=inst.host.graph, terminals=inst.host.terminals)
    s.validate(twin)
    assert len(calls) == s.total_purchases()
    # Copies and derived profiles carry no memo, and build their own index.
    index = _realized_index(s, inst.host)
    agent = s.buyers[0]
    for other in (
        copy.copy(s),
        pickle.loads(pickle.dumps(s)),
        s.with_strategy(agent, s.strategy(agent)),
    ):
        calls.clear()
        other.validate(inst.host)
        assert len(calls) == other.total_purchases()
        fresh = _realized_index(other, inst.host)
        assert fresh is not index and fresh == index


def test_validation_memo_leaves_equality_and_pickle_alone():
    inst = fig5_left_instance()
    fresh = fig5_left_instance().profile
    s = inst.profile
    before = pickle.dumps(s)
    s.validate(inst.host)
    _realized_index(s, inst.host)
    assert pickle.dumps(s) == before
    assert s == fresh and fresh == s


def test_with_strategy_and_relabel_round_trip():
    inst = fig5_left_instance()
    p = inst.profile.with_strategy("v2", [edge("v2", "v3", 3)])
    assert p.strategy("v2") == {edge("v2", "v3", 3)}
    assert inst.profile.strategy("v2") == {edge("v2", "v4", 1)}
    mapping = {v: v.upper() for v in inst.host.nodes}
    back = {v.upper(): v for v in inst.host.nodes}
    assert p.relabel(mapping).relabel(back) == p


def test_relabel_rejects_a_mapping_that_merges_or_misses_a_node():
    inst = fig5_left_instance()
    p = inst.profile
    names = {v: v for v in inst.host.nodes}
    agents = sorted(p.strategies)
    with pytest.raises(ValueError, match="not injective"):
        p.relabel({**names, agents[0]: "x", agents[1]: "x"})
    del names[agents[0]]
    with pytest.raises(UnknownNode, match="misses"):
        p.relabel(names)


# --- costs -------------------------------------------------------------------


def test_agent_cost_empty_profile_counts_other_terminals():
    inst = fig4_instance()
    empty = StrategyProfile.empty(Setting.GLOBAL)
    assert agent_cost("v1", empty, inst.host).total == (3, 0)
    with pytest.raises(UnknownNode):
        agent_cost("nope", empty, inst.host)


def test_agent_cost_on_forced_assignment():
    inst = fig4_instance()
    assert agent_cost("v3", inst.profile, inst.host).total == (0, 3)
    cheaper = inst.profile.with_strategy("v3", [edge("v1", "v3", 1)])
    assert agent_cost("v3", cheaper, inst.host).total == (0, 1)


def test_cost_breakdown_orders_lexicographically():
    assert CostBreakdown(0, 5) < CostBreakdown(1, 0)
    assert CostBreakdown(1, 0) < CostBreakdown(1, 1)
    assert CostBreakdown(0, 5).numeric(6) == 5
    assert CostBreakdown(1, 0).numeric(6) == 6


def test_social_cost_examples():
    inst = fig4_instance()
    empty = StrategyProfile.empty(Setting.GLOBAL)
    assert social_cost(empty, inst.host).total == (12, 0)
    left = fig5_left_instance()
    assert social_cost(left.profile, left.host).total == (0, 5)
    host3, s3 = hypercube_equilibrium(3)
    assert social_cost(s3, host3).total == (0, 12)


# --- greedy moves -------------------------------------------------------------


def test_greedy_adds_direct_edge_when_terminal_missing():
    inst = fig5_left_instance()
    empty = StrategyProfile.empty(Setting.GLOBAL)
    move = greedy_improving_response("v1", empty, inst.host)
    assert move.action == "add"
    assert move.edge.touches("v1") or move.edge.u in inst.host.terminal_set
    before = agent_cost("v1", empty, inst.host)
    after = agent_cost("v1", empty.with_strategy("v1", move.new_strategy), inst.host)
    assert after < before


def test_greedy_removes_monochromatic_cycle_edge():
    host = make_host(["a", "b", "c"], {}, 1, ["a", "b", "c"])
    cycle = StrategyProfile(
        setting=Setting.GLOBAL,
        strategies={
            "a": frozenset({edge("a", "b", 1), edge("b", "c", 1), edge("a", "c", 1)})
        },
    )
    move = greedy_improving_response("a", cycle, host)
    assert move is not None and move.action == "remove"


def test_left_fixture_has_no_greedy_moves():
    inst = fig5_left_instance()
    for v in inst.host.nodes:
        assert greedy_improving_response(v, inst.profile, inst.host) is None


def test_greedy_equilibrium_verdicts():
    dense = dense_cycle_instance(2)
    assert is_greedy_equilibrium(dense.profile, dense.host).is_equilibrium

    inst = fig5_left_instance()
    padded = inst.profile.with_strategy(
        "v1", inst.profile.strategy("v1") | {edge("v2", "v3", 3)}
    )
    report = is_greedy_equilibrium(padded, inst.host)
    assert report.verdict is Verdict.REFUTED
    assert report.witness.agent == "v1"
    assert report.witness.strategy == {edge("v1", "v4", 1)}


def _record_calls(monkeypatch, name):
    """Record the positional arguments of each call to ``game.<name>``."""
    calls = []
    real = getattr(tempo_ncg.game, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(tempo_ncg.game, name, counted)
    return calls


def test_greedy_check_makes_one_snapshot_sweep_and_no_propagation(monkeypatch):
    dense = dense_cycle_instance(6)
    propagations = _record_calls(monkeypatch, "propagate_arrivals")
    sweeps = _record_calls(monkeypatch, "removal_masks")
    assert is_greedy_equilibrium(dense.profile, dense.host).is_equilibrium
    # Every agent reaches every terminal, so no add scan propagates, and the
    # 276 removes of the 48 buyers all read the one index's snapshot sweep.
    assert propagations == []
    assert len(sweeps) == 1


def test_ge_synthesized_from_minimal_spanner_verifies():
    inst = fig4_instance()
    blue = realized_graph(inst.profile, inst.host)
    profile = ge_from_minimal_spanner(blue, inst.host)
    assert is_greedy_equilibrium(profile, inst.host).is_equilibrium


# --- exact deviation search ---------------------------------------------------


def test_forced_assignment_deviation_found():
    inst = fig4_instance()
    outcome = find_improving_response("v3", inst.profile, inst.host)
    assert outcome.response == {edge("v1", "v3", 1)}
    assert outcome.exact


def test_right_fixture_v1_has_no_deviation():
    inst = fig5_right_instance()
    outcome = find_improving_response("v1", inst.profile, inst.host)
    assert outcome.response is None
    assert outcome.exact


def test_idle_satisfied_agent_is_exact_immediately():
    host = make_host(["a", "b", "c"], {}, 1, ["a"])
    lone = StrategyProfile(
        setting=Setting.GLOBAL,
        strategies={"b": frozenset({edge("a", "b", 1), edge("a", "c", 1)})},
    )
    outcome = find_improving_response("c", lone, host)
    assert outcome.response is None
    assert outcome.exact
    assert outcome.states_examined == 0


def test_search_depth_does_not_depend_on_the_recursion_limit():
    nodes = [f"n{i:02d}" for i in range(12)]
    host = make_host(nodes, {}, 1, nodes)
    v = nodes[0]
    profile = StrategyProfile(
        setting=Setting.LOCAL,
        strategies={v: frozenset(edge(v, t, 1) for t in nodes[1:])},
    )
    outcome = call_under_a_low_recursion_limit(
        find_improving_response, v, profile, host
    )
    assert outcome.response is None
    assert outcome.exact
    # Each own edge adds one terminal and v needs all 11, so the coverage
    # check of each pass r = 1..10 prunes at its root: one unit per pass.
    assert outcome.states_examined == 10


def test_global_walk_depth_does_not_depend_on_the_recursion_limit():
    # The global twin of the local star above. The star edges carry label 2
    # and every other pair label 1, which no walk can take after a star
    # edge, so only the 11 star edges ever improve a map. Every one is
    # needed, so the walk runs through depth 10, one state per subset of
    # each pass.
    nodes = [f"n{i:02d}" for i in range(12)]
    v = nodes[0]
    star = {(v, t): 2 for t in nodes[1:]}
    host = make_host(nodes, star, 1, nodes)
    profile = StrategyProfile(
        setting=Setting.GLOBAL,
        strategies={v: frozenset(edge(v, t, 2) for t in nodes[1:])},
    )
    outcome = call_under_a_low_recursion_limit(
        find_improving_response, v, profile, host
    )
    assert outcome.response is None
    assert outcome.exact
    assert outcome.states_examined == sum(
        math.comb(11, j) for r in range(1, 11) for j in range(1, r + 1)
    )


@pytest.mark.parametrize("budget", [None, 1, 100])
def test_deep_searches_match_the_recursive_oracle_on_the_4_cube(budget):
    # Agents buying 3 or 4 edges search to depth 2 and 3 on a 16-node host.
    # The profile is local, so the coverage check decides each pass and
    # counts its own units; the oracle is asked without a budget.
    host, profile = hypercube_equilibrium(4)
    for v in host.nodes:
        got = find_improving_response(v, profile, host, budget=budget)
        want = oracle_find_improving_response(v, profile, host)
        assert_matches_the_unbudgeted_oracle(got, want, budget)


def test_a_local_pass_whose_covers_all_overlap_is_walked():
    # From b1, the other agents' edges reach t1, t2 and t3; from b2, t3, t4
    # and t5 (b1's edge to t3 comes after b2's, so neither passes on). No
    # node reaches all five, and every 2-edge cover joins two gains that
    # share t3, so the coverage check of pass 2 must keep both.
    nodes = ["b1", "b2", "t1", "t2", "t3", "t4", "t5", "v"]
    bought = {("b1", "t1"): 2, ("b1", "t2"): 2, ("b1", "t3"): 3,
              ("b2", "t3"): 2, ("b2", "t4"): 2, ("b2", "t5"): 2}
    host = make_host(nodes, bought, 1, ["t1", "t2", "t3", "t4", "t5"])
    strategies = {
        b: frozenset(edge(x, y, label) for (x, y), label in bought.items() if x == b)
        for b in ("b1", "b2")
    }
    strategies["v"] = frozenset(
        {edge("b1", "v", 1), edge("t4", "v", 1), edge("t5", "v", 1)}
    )
    profile = StrategyProfile(setting=Setting.LOCAL, strategies=strategies)
    got = find_improving_response("v", profile, host)
    assert got.exact and len(got.response) == 2
    assert got.response == oracle_find_improving_response("v", profile, host).response


def test_nash_check_of_the_5_cube_visits_a_pinned_number_of_states():
    # The profile is local, so each pass is decided by the coverage check
    # and counted in its branch-and-bound nodes; a change of the gains'
    # order or of its prunes changes the count even where the verdict stays.
    # The walk over improving prefixes took 60,667 states.
    host, profile = hypercube_equilibrium(5)
    report = is_nash_equilibrium(profile, host)
    assert report.verdict is Verdict.EQUILIBRIUM
    assert report.states_examined == 49


def test_dense_cycle_searches_visit_pinned_numbers_of_states():
    dense = dense_cycle_instance(4)
    got = find_improving_response("w00.00", dense.profile, dense.host)
    assert (got.response, got.exact, got.states_examined) == (None, True, 2_174)
    # The unbudgeted search of v00.00 needs 723,542 states.
    got = find_improving_response("v00.00", dense.profile, dense.host, budget=20_000)
    assert (got.response, got.exact, got.states_examined) == (None, False, 20_001)


def test_deviation_search_propagates_once(monkeypatch):
    host, profile = hypercube_equilibrium(4)
    v = max(profile.buyers, key=lambda b: len(profile.strategy(b)))
    calls = _record_calls(monkeypatch, "propagate_arrivals")
    outcome = find_improving_response(v, profile, host)
    # The coverage check prunes each pass r = 1..|S_v| - 1 at its root, one
    # unit each, and adds no sweep.
    assert outcome == SearchOutcome(None, True, len(profile.strategy(v)) - 1)
    # The current strategy is priced by the index's reach masks; the one
    # sweep, over the other agents' edges, prices the empty response and
    # starts the search. A sweep pricing the current strategy made two.
    index = _realized_index(profile, host)
    assert [args[:2] for args in calls] == [
        (_others_groups(index, profile.strategy(v)), v)
    ]


def test_nash_check_groups_the_realized_graph_once(monkeypatch):
    host, profile = hypercube_equilibrium(4)
    fresh = copy.copy(profile)
    calls = _record_calls(monkeypatch, "group_by_label")
    assert is_nash_equilibrium(fresh, host).is_equilibrium
    # Every buyer's search reads the profile's index; regrouping the other
    # agents' edges and the realized graph per buyer made 1 + 2 * 15 = 31.
    assert len(calls) == 1


def test_an_edge_bought_twice_leaves_an_exact_two_edge_response():
    # With 000's edge to 001 bought by both, 000 has a 2-edge improving
    # response.
    host, profile = hypercube_equilibrium(3)
    doubled = profile.with_strategy(
        "001", profile.strategy("001") | {edge("000", "001", 4)}
    )
    found = find_improving_response("000", doubled, host)
    assert found.exact and len(found.response) == 2


def test_nash_check_searches_only_buyers(monkeypatch):
    inst = fig5_left_instance()
    searched = []

    def recording(v, s, h, budget=None):
        searched.append(v)
        return find_improving_response(v, s, h, budget=budget)

    monkeypatch.setattr(tempo_ncg.game, "find_improving_response", recording)
    report = is_nash_equilibrium(inst.profile, inst.host)
    assert report.verdict is Verdict.EQUILIBRIUM
    assert len(inst.profile.buyers) < inst.host.node_count
    # ``v1`` and ``v2`` buy one edge each and are settled without a search
    # (``game`` module docstring); ``v3`` buys three.
    assert searched == ["v3"]


@pytest.mark.parametrize("setting", list(Setting))
def test_a_two_terminal_nash_check_makes_no_search(monkeypatch, setting):
    cases = []
    for seed in range(5):
        host = random_host(24, 2, seed)
        cases.append((host, two_terminal_ne(host, setting)))
    searched = []

    def recording(v, s, h, budget=None):
        searched.append(v)
        return find_improving_response(v, s, h, budget=budget)

    monkeypatch.setattr(tempo_ncg.game, "find_improving_response", recording)
    for host, profile in cases:
        assert is_nash_equilibrium(profile, host).verdict is Verdict.EQUILIBRIUM
    assert searched == []


def test_witness_self_check_rejects_a_bad_witness(monkeypatch):
    host, profile = hypercube_equilibrium(2)
    stale = lambda v, s, h, budget=None: SearchOutcome(s.strategy(v), True, 1)
    monkeypatch.setattr(tempo_ncg.game, "find_improving_response", stale)
    with pytest.raises(AssertionError, match="does not improve"):
        is_nash_equilibrium(profile, host)

    beyond = host.lifetime + 1
    foreign = lambda v, s, h, budget=None: SearchOutcome(
        frozenset({edge(v, next(u for u in h.nodes if u != v), beyond)}), True, 1
    )
    monkeypatch.setattr(tempo_ncg.game, "find_improving_response", foreign)
    with pytest.raises(InvalidPurchase):
        is_nash_equilibrium(profile, host)


def test_budget_never_flips_a_verdict():
    inst = fig4_instance()
    starved = find_improving_response("v3", inst.profile, inst.host, budget=1)
    # Either the witness is found within budget or the outcome admits inexactness.
    if starved.response is None:
        assert not starved.exact
    else:
        assert agent_cost(
            "v3", inst.profile.with_strategy("v3", starved.response), inst.host
        ) < agent_cost("v3", inst.profile, inst.host)

    # Local searches count their coverage checks against the budget too. In
    # the second profile 0001 also buys the edge 0000 bought towards it, so
    # 0000 has a witness: dropping its copy.
    host, profile = hypercube_equilibrium(4)
    dup = next(e for e in profile.strategy("0000") if e.touches("0001"))
    redundant = profile.with_strategy("0001", profile.strategy("0001") | {dup})
    starved_any = False
    for s in (profile, redundant):
        for v in host.nodes:
            starved = find_improving_response(v, s, host, budget=1)
            want = oracle_find_improving_response(v, s, host)
            assert not starved.exact or starved.response == want.response
            starved_any |= not starved.exact
    assert starved_any
    assert find_improving_response("0000", redundant, host).response == {
        e for e in redundant.strategy("0000") if e != dup
    }


def test_nash_verdicts_on_fixtures():
    left = fig5_left_instance()
    assert is_nash_equilibrium(left.profile, left.host).is_equilibrium

    # Handing (v1,v2)@4 to v1 makes it droppable: v1 still reaches everyone
    # through the two label-1 edges at v4.
    moved = left.profile.with_strategy("v1", [edge("v1", "v4", 1), edge("v1", "v2", 4)])
    moved = moved.with_strategy("v3", [edge("v3", "v4", 2), edge("v2", "v3", 3)])
    moved = moved.with_setting(Setting.LOCAL)
    report = is_nash_equilibrium(moved, left.host)
    assert report.verdict is Verdict.REFUTED
    assert report.witness.agent == "v1"
    assert report.witness.strategy == {edge("v1", "v4", 1)}


def test_single_node_host_is_trivially_nash():
    host = HostGraph(graph=TemporalGraph(["only"]), terminals=["only"])
    report = is_nash_equilibrium(StrategyProfile.empty(Setting.GLOBAL), host)
    assert report.is_equilibrium


def test_tiny_budget_reports_inconclusive():
    left = fig5_left_instance()
    report = is_nash_equilibrium(left.profile, left.host, budget=1)
    assert report.verdict is Verdict.INCONCLUSIVE
    # The report names the buyers whose search ran out, in node order.
    assert report.exhausted == tuple(
        v
        for v in left.host.nodes
        if v in left.profile.strategies
        and not find_improving_response(v, left.profile, left.host, budget=1).exact
    )
    assert report.exhausted
    assert is_nash_equilibrium(left.profile, left.host).exhausted == ()


# --- dynamics -----------------------------------------------------------------


def test_dynamics_from_direct_edges_converges():
    inst = fig4_instance()
    start = direct_terminal_profile(inst.host, Setting.GLOBAL)
    assert is_terminal_spanner(realized_graph(start, inst.host), inst.host.terminals)
    result = greedy_dynamics(start, inst.host)
    assert result.converged
    assert result.report.is_equilibrium
    assert is_terminal_spanner(
        realized_graph(result.profile, inst.host), inst.host.terminals
    )


def test_dynamics_from_equilibrium_is_silent():
    left = fig5_left_instance()
    result = greedy_dynamics(left.profile, left.host)
    assert result.converged
    assert result.rounds == 1
    assert result.profile == left.profile


def test_dynamics_on_lifetime_two_host_meets_density_bound():
    host = random_host(6, 3, seed=11, max_label=2, extra_label_prob=0.2)
    assert host.lifetime <= 2
    result = greedy_dynamics(StrategyProfile.empty(Setting.GLOBAL), host)
    assert result.converged
    cert = result.report.certificates["lifetime_density"]
    assert cert.holds
    assert cert.value <= 2 * (host.node_count - 1)


def test_dynamics_can_time_out():
    inst = fig4_instance()
    start = direct_terminal_profile(inst.host, Setting.GLOBAL)
    result = greedy_dynamics(start, inst.host, max_rounds=0)
    assert not result.converged
    assert result.report is None


def test_dynamics_rejects_negative_rounds():
    inst = fig4_instance()
    start = direct_terminal_profile(inst.host, Setting.GLOBAL)
    with pytest.raises(ValueError, match="max_rounds"):
        greedy_dynamics(start, inst.host, max_rounds=-3)


# --- necessary terminals ------------------------------------------------------


def test_necessary_terminals_on_forced_assignment():
    inst = fig4_instance()
    # Losing (v2,v3)@4 strands v3 below label 3, cutting v2 and, through it, v1.
    got = necessary_terminals(edge("v2", "v3", 4), "v3", inst.profile, inst.host)
    assert got == {"v1", "v2"}


def test_duplicated_edge_is_never_necessary():
    inst = fig5_left_instance()
    p = inst.profile.with_strategy(
        "v1", inst.profile.strategy("v1") | {edge("v2", "v4", 1)}
    )
    assert necessary_terminals(edge("v2", "v4", 1), "v1", p, inst.host) == frozenset()


def test_necessary_terminals_requires_ownership():
    inst = fig5_left_instance()
    with pytest.raises(NotOwned):
        necessary_terminals(edge("v2", "v4", 1), "v1", inst.profile, inst.host)


def test_dense_cycle_path_edge_guards_opposite_bag():
    dense = dense_cycle_instance(2)
    second_hop = edge("w01.00", "v02.00", 2)
    assert second_hop in dense.profile.strategy("v00.00")
    cut = necessary_terminals(second_hop, "v00.00", dense.profile, dense.host)
    assert {"v02.00", "w02.00"} <= cut


# --- forbidden structure ------------------------------------------------------


def _two_fan_instance():
    """Two agents fanning out to both terminals through a shared neighbor."""
    nodes = ["a", "b", "c", "w", "x", "y"]
    overrides = {
        ("a", "c"): 1,
        ("b", "c"): 1,
        ("a", "x"): 2,
        ("a", "y"): 2,
        ("b", "x"): 2,
        ("b", "y"): 2,
    }
    host = make_host(nodes, overrides, 3, ["x", "y"])
    profile = StrategyProfile(
        setting=Setting.LOCAL,
        strategies={
            "a": frozenset({edge("a", "c", 1), edge("a", "x", 2), edge("a", "y", 2)}),
            "b": frozenset({edge("b", "c", 1), edge("b", "x", 2), edge("b", "y", 2)}),
        },
    )
    return host, profile


def test_forbidden_structure_absent_on_local_fixture():
    inst = fig5_right_instance()
    assert find_forbidden_structure(inst.profile, inst.host) is None


def test_forbidden_structure_absent_on_honest_fan():
    host, profile = _two_fan_instance()
    assert find_forbidden_structure(profile, host) is None


def test_forbidden_structure_negative_control(monkeypatch):
    # A broken necessity stub that blames every terminal on every edge must
    # trip the detector on the fan instance.
    host, profile = _two_fan_instance()
    monkeypatch.setattr(
        tempo_ncg.game,
        "necessary_terminals",
        lambda e, buyer, s, host: frozenset({"x", "y"}),
    )
    witness = find_forbidden_structure(profile, host)
    assert witness is not None
    assert witness.z == "c"
    assert {witness.u1, witness.u2} == {"a", "b"}
    assert {witness.x, witness.y} == {"x", "y"}


def test_forbidden_structure_rejects_global_profiles():
    inst = fig5_left_instance()
    with pytest.raises(SettingMismatch):
        find_forbidden_structure(inst.profile, inst.host)


def test_forbidden_structure_rejects_multilabel_realized_graph():
    host = make_host(["a", "b", "c"], {("a", "b"): (1, 2)}, 2, ["a"])
    doubled = StrategyProfile(
        setting=Setting.LOCAL,
        strategies={
            "a": frozenset({edge("a", "b", 1)}),
            "b": frozenset({edge("a", "b", 2)}),
        },
    )
    with pytest.raises(NotSimple):
        find_forbidden_structure(doubled, host)


def test_empty_profile_has_no_forbidden_structure():
    inst = fig5_right_instance()
    assert (
        find_forbidden_structure(StrategyProfile.empty(Setting.LOCAL), inst.host)
        is None
    )


# --- certificates --------------------------------------------------------------


def test_certificates_on_dense_cycle_nash():
    dense = dense_cycle_instance(2)
    certs = equilibrium_certificates(dense.profile, dense.host, EquilibriumKind.NASH)
    assert certs["global_ne_size"].value == 12
    assert certs["global_ne_size"].bound == 8 * 7
    assert certs["global_ne_size"].holds
    assert certs["lifetime_density"].holds
    assert "local_ge_density" not in certs


def test_certificates_skip_size_bound_for_greedy_kind():
    dense = dense_cycle_instance(2)
    certs = equilibrium_certificates(dense.profile, dense.host, EquilibriumKind.GREEDY)
    assert "global_ne_size" not in certs
    assert certs["lifetime_density"].holds


def test_certificates_local_density_bound():
    host, s = hypercube_equilibrium(3)
    assert s.setting is Setting.LOCAL
    certs = equilibrium_certificates(s, host, EquilibriumKind.NASH)
    assert certs["local_ge_density"].value == 12
    assert certs["local_ge_density"].holds
