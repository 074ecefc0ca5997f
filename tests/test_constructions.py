import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tempo_ncg import (
    DenseCycleChecks,
    DenseCycleParams,
    HostGraph,
    IncompleteHost,
    InstanceFile,
    PreconditionFailed,
    ProductNodeId,
    Setting,
    SettingMismatch,
    StrategyProfile,
    TemporalGraph,
    TimeEdge,
    Verdict,
    connected_components,
    dense_cycle_instance,
    dense_cycle_lemma_checks,
    dumps_instance,
    extend_with_nonterminal,
    extend_with_terminal,
    find_nash_by_search,
    graph_product,
    hypercube_equilibrium,
    is_greedy_equilibrium,
    is_nash_equilibrium,
    is_terminal_spanner,
    lifetime2_tree_ne,
    random_host,
    realized_graph,
    relabel_instance,
    scale_with_nonterminals,
    two_terminal_ne,
    validate_and_normalize_host,
)
from tempo_ncg.fixtures import FIXTURE_BUILDERS, fig5_left_instance
from tempo_ncg import constructions

from oracles import (
    call_under_a_low_recursion_limit,
    oracle_increasing_paths,
    oracle_is_ne,
    oracle_random_host,
)


def edge(u, v, label):
    return TimeEdge(u, v, label)


def complete_host(labels, terminals):
    nodes = sorted({n for pair in labels for n in pair})
    edges = [edge(a, b, l) for (a, b), ls in labels.items() for l in (ls if isinstance(ls, tuple) else (ls,))]
    return validate_and_normalize_host(TemporalGraph(nodes, edges), terminals)


# --- product node ids ---------------------------------------------------------


def test_product_node_id_round_trip():
    pid = ProductNodeId("a", "b")
    assert pid.render() == "a×b"
    assert ProductNodeId.parse("a×b") == pid


def test_product_node_id_rejects_reserved_separator():
    with pytest.raises(PreconditionFailed):
        ProductNodeId("a×b", "c").render()
    with pytest.raises(PreconditionFailed):
        ProductNodeId.parse("abc")


# --- graph product --------------------------------------------------------------


def test_square_product_structure():
    host1, s1 = hypercube_equilibrium(1)
    prod_host, prod_s = graph_product(host1, s1, host1, s1)
    assert prod_host.node_count == 4
    assert prod_host.terminal_count == 4
    within = [edge("0×0", "1×0", 1), edge("0×1", "1×1", 1)]
    aligned = [edge("0×0", "0×1", 2), edge("1×0", "1×1", 2)]
    diagonal = [edge("0×0", "1×1", 3), edge("0×1", "1×0", 3)]
    for e in within + aligned + diagonal:
        assert prod_host.has_time_edge(e)
    assert prod_s.bought_edges() == frozenset(within + aligned)
    assert prod_s.setting is Setting.LOCAL
    assert is_nash_equilibrium(prod_s, prod_host).is_equilibrium


def test_product_edge_count_identity():
    left = fig5_left_instance()
    k2_host, k2_s = hypercube_equilibrium(1)
    k2_s = k2_s.with_setting(Setting.GLOBAL)
    prod_host, prod_s = graph_product(left.host, left.profile, k2_host, k2_s)
    m1 = len(left.profile.bought_edges())
    m2 = len(k2_s.bought_edges())
    n2, k1 = k2_host.node_count, left.host.terminal_count
    assert len(prod_s.bought_edges()) == n2 * m1 + k1 * m2
    assert is_nash_equilibrium(prod_s, prod_host).is_equilibrium


def test_product_requires_matching_settings():
    host1, s1 = hypercube_equilibrium(1)
    with pytest.raises(SettingMismatch):
        graph_product(host1, s1, host1, s1.with_setting(Setting.GLOBAL))


def test_product_rejects_separator_in_factor_ids():
    host = complete_host({("a×b", "c"): 1}, ["c"])
    s = StrategyProfile.empty(Setting.LOCAL)
    clean_host, clean_s = hypercube_equilibrium(1)
    with pytest.raises(PreconditionFailed):
        graph_product(host, s, clean_host, clean_s)


# --- scaling -----------------------------------------------------------------


def test_scaled_hypercube_counts():
    host3, s3 = hypercube_equilibrium(3)
    big_host, big_s = scale_with_nonterminals(host3, s3, 3)
    assert big_host.node_count == 24
    assert big_host.terminal_count == 8
    assert len(big_s.bought_edges()) == 3 * 12 + 2 * 8  # c*m1 + (c-1)*k


def test_scaled_latest_label_spans():
    host1, s1 = hypercube_equilibrium(1)
    big_host, _ = scale_with_nonterminals(host1, s1, 3)
    top = big_host.lifetime
    top_pairs = [
        (a, b)
        for i, a in enumerate(big_host.nodes)
        for b in big_host.nodes[i + 1 :]
        if top in big_host.labels(a, b)
    ]
    assert connected_components(big_host.nodes, top_pairs) == [
        frozenset(big_host.nodes)
    ]


def test_scale_with_single_copy_keeps_edge_count():
    host2, s2 = hypercube_equilibrium(2)
    one_host, one_s = scale_with_nonterminals(host2, s2, 1)
    assert one_host.node_count == 4
    assert len(one_s.bought_edges()) == len(s2.bought_edges())


def test_scale_preconditions():
    host3, s3 = hypercube_equilibrium(3)
    with pytest.raises(PreconditionFailed):
        scale_with_nonterminals(host3, s3, 0)
    big_host, big_s = scale_with_nonterminals(host3, s3, 2)
    with pytest.raises(PreconditionFailed):
        scale_with_nonterminals(big_host, big_s, 2)  # nonterminals present


# --- dismounting extensions -----------------------------------------------------


def test_extend_with_nonterminal_on_left_fixture():
    left = fig5_left_instance()
    new_host, new_s = extend_with_nonterminal(left.host, left.profile)
    assert new_host.node_count == 5
    assert new_host.terminal_count == 4
    assert new_s.total_purchases() == 6  # m + 1
    assert is_nash_equilibrium(new_s, new_host).is_equilibrium


def test_extend_with_nonterminal_keeps_latest_label_tree():
    host1, s1 = hypercube_equilibrium(1)
    big_host, big_s = scale_with_nonterminals(host1, s1, 3)
    new_host, new_s = extend_with_nonterminal(big_host, big_s)
    top = new_host.lifetime
    top_pairs = [
        (a, b)
        for i, a in enumerate(new_host.nodes)
        for b in new_host.nodes[i + 1 :]
        if top in new_host.labels(a, b)
    ]
    assert connected_components(new_host.nodes, top_pairs) == [
        frozenset(new_host.nodes)
    ]
    assert is_nash_equilibrium(new_s, new_host).is_equilibrium


def test_extend_with_terminal_splits_bag_component():
    dense = dense_cycle_instance(2)
    new_host, new_s = extend_with_terminal(dense.host, dense.profile)
    assert new_host.node_count == 9
    assert new_host.terminal_count == 9
    assert new_s.total_purchases() == dense.profile.total_purchases() + 2
    assert is_nash_equilibrium(new_s, new_host).is_equilibrium


def test_extend_with_terminal_tree_case_rebuilds_star():
    host = random_host(4, 2, seed=3, max_label=1)
    tree = lifetime2_tree_ne(host)
    new_host, new_s = extend_with_terminal(host, tree)
    assert new_host.node_count == 5
    assert new_host.lifetime == 1
    assert new_s.total_purchases() == 4  # a star on n+1 nodes
    assert is_nash_equilibrium(new_s, new_host).is_equilibrium


def test_extend_with_terminal_rejects_empty_profile():
    left = fig5_left_instance()
    with pytest.raises(PreconditionFailed):
        extend_with_terminal(left.host, StrategyProfile.empty(Setting.GLOBAL))


def _local_profile(purchases):
    """A local profile from ``{agent: [(u, v, label), ...]}``."""
    return StrategyProfile(
        Setting.LOCAL,
        {agent: {edge(*e) for e in bought} for agent, bought in purchases.items()},
    )


@pytest.mark.parametrize(
    "labels, terminals, purchases, reason",
    [
        pytest.param(
            {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1},
            ["a"],
            {"a": [("a", "b", 1)], "b": [("b", "c", 1)], "c": [("a", "c", 1)]},
            "contain a cycle",
            id="latest-label-cycle",
        ),
        pytest.param(
            {("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1},
            ["a", "b"],
            {"a": [("a", "b", 2), ("a", "c", 1)], "b": [("b", "c", 1)]},
            "not a spanning tree",
            id="terminal-tree-in-a-cyclic-graph",
        ),
        pytest.param(
            {("a", "b"): 1, ("a", "c"): 1, ("a", "d"): 1,
             ("b", "c"): 1, ("b", "d"): 1, ("c", "d"): 2},
            ["a"],
            {"a": [("a", "b", 1)], "b": [("b", "c", 1)], "c": [("c", "d", 2)]},
            "without any terminal",
            id="terminal-free-component",
        ),
        pytest.param(
            {("a", "b"): 2, ("a", "c"): 1, ("b", "c"): 1},
            ["a", "c"],
            {"a": [("a", "b", 2)], "b": [("a", "b", 2)], "c": [("b", "c", 1)]},
            "every node of the chosen component buys",
            id="component-of-buyers",
        ),
    ],
)
def test_extend_with_terminal_rejects_non_equilibrium_inputs(
    labels, terminals, purchases, reason
):
    host = complete_host(labels, terminals)
    with pytest.raises(PreconditionFailed, match=reason):
        extend_with_terminal(host, _local_profile(purchases))


def test_repeated_extensions_suffix_fresh_node_names():
    inst = fig5_left_instance()
    host, profile = inst.host, inst.profile
    steps = [
        (extend_with_nonterminal, "x"),
        (extend_with_nonterminal, "x2"),
        (extend_with_terminal, "x3"),
        (extend_with_terminal, "x4"),
        (extend_with_nonterminal, "x5"),
    ]
    for extend, fresh in steps:
        new_host, profile = extend(host, profile)
        assert set(new_host.nodes) - set(host.nodes) == {fresh}
        assert (fresh in new_host.terminals) == (extend is extend_with_terminal)
        assert is_nash_equilibrium(profile, new_host).is_equilibrium
        assert is_greedy_equilibrium(profile, new_host).is_equilibrium
        host = new_host


# --- two-terminal equilibria ------------------------------------------------------


def test_two_terminal_ring_case():
    labels = {
        ("t1", "t2"): 9,
        ("t1", "m1"): 1,
        ("m1", "t2"): 5,
        ("t2", "n1"): 1,
        ("n1", "t1"): 5,
        ("m1", "n1"): 9,
    }
    host = complete_host(labels, ["t1", "t2"])
    s = two_terminal_ne(host)
    assert len(s.bought_edges()) <= host.node_count
    assert all(len(s.strategy(v)) <= 2 for v in host.nodes)
    assert is_nash_equilibrium(s, host).is_equilibrium
    assert is_nash_equilibrium(s.with_setting(Setting.LOCAL), host).is_equilibrium


def test_two_terminal_degenerate_pair():
    # The pair core buys the latest label: 7, normalized to 2.
    host = complete_host({("t1", "t2"): (2, 7)}, ["t1", "t2"])
    s = two_terminal_ne(host)
    assert s.bought_edges() == {edge("t1", "t2", 2)}


def test_two_terminal_random_hosts():
    for seed in range(10):
        host = random_host(3 + seed % 10, 2, seed=seed, extra_label_prob=0.35)
        s = two_terminal_ne(host)
        assert len(s.bought_edges()) <= host.node_count
        for setting in (Setting.GLOBAL, Setting.LOCAL):
            assert is_nash_equilibrium(s.with_setting(setting), host).is_equilibrium


def assert_two_terminal_ne(host, s):
    """Incident purchases only, at most n edges, an NE in both settings."""
    assert all(e.touches(agent) for agent, bought in s.strategies.items() for e in bought)
    assert len(s.bought_edges()) <= host.node_count
    for setting in Setting:
        assert is_nash_equilibrium(s.with_setting(setting), host).is_equilibrium


@pytest.mark.parametrize(
    "n, seed, extra_label_prob, setting",
    [
        (10, 10485, 0.0, Setting.LOCAL),
        (13, 430225714, 0.3, Setting.GLOBAL),
        (6, 288, 0.3, Setting.LOCAL),
    ],
)
def test_two_terminal_returns_a_verified_profile_on_the_pinned_hosts(
    n, seed, extra_label_prob, setting
):
    host = random_host(n, 2, seed, extra_label_prob=extra_label_prob)
    s = two_terminal_ne(host, setting)
    assert s.setting is setting
    assert_two_terminal_ne(host, s)


@pytest.mark.parametrize(
    "labels, strategies",
    [
        pytest.param({("n0", "n1"): 1}, {"n1": [("n0", "n1", 1)]}, id="pair"),
        pytest.param(
            {("n0", "n1"): 1, ("n0", "n2"): 2, ("n1", "n2"): 2},
            {"n0": [("n0", "n2", 2)], "n2": [("n1", "n2", 2)]},
            id="tie",
        ),
        pytest.param(
            {("n0", "n1"): 1, ("n0", "n2"): 2, ("n1", "n2"): 3},
            {"n1": [("n0", "n1", 1)], "n2": [("n0", "n2", 2), ("n1", "n2", 3)]},
            id="bridge",
        ),
        pytest.param(
            {
                ("n0", "n1"): 1, ("n0", "n2"): 1, ("n0", "n3"): 3,
                ("n1", "n2"): 2, ("n1", "n3"): 2, ("n2", "n3"): 2,
            },
            {
                "n0": [("n0", "n2", 1)],
                "n2": [("n1", "n2", 2)],
                "n1": [("n1", "n3", 2)],
                "n3": [("n0", "n3", 3)],
            },
            id="ring",
        ),
    ],
)
def test_two_terminal_core_on_its_smallest_host(labels, strategies):
    host = complete_host(labels, ["n0", "n1"])
    s = two_terminal_ne(host)
    assert s.strategies == {
        agent: frozenset(edge(*e) for e in bought) for agent, bought in strategies.items()
    }
    assert_two_terminal_ne(host, s)


def test_two_terminal_every_three_node_host_with_label_sets_from_1_to_3():
    nodes = ("n0", "n1", "n2")
    pairs = list(itertools.combinations(nodes, 2))
    label_sets = [
        labels
        for size in (1, 2, 3)
        for labels in itertools.combinations((1, 2, 3), size)
    ]
    count = 0
    for chosen in itertools.product(label_sets, repeat=len(pairs)):
        edges = [edge(a, b, l) for (a, b), labels in zip(pairs, chosen) for l in labels]
        for terminals in pairs:
            host = validate_and_normalize_host(TemporalGraph(nodes, edges), terminals)
            s = two_terminal_ne(host, Setting.LOCAL)
            assert_two_terminal_ne(host, s)
            assert oracle_is_ne(s, host)
            count += 1
    assert count == 1029


def test_two_terminal_every_single_label_four_node_host_with_labels_1_to_3():
    nodes = ("n0", "n1", "n2", "n3")
    pairs = list(itertools.combinations(nodes, 2))
    count = 0
    for chosen in itertools.product((1, 2, 3), repeat=len(pairs)):
        edges = [edge(a, b, l) for (a, b), l in zip(pairs, chosen)]
        for terminals in pairs:
            host = validate_and_normalize_host(TemporalGraph(nodes, edges), terminals)
            assert_two_terminal_ne(host, two_terminal_ne(host))
            count += 1
    assert count == 4374


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([None, 2, 3]),
    st.sampled_from([0.0, 0.3, 0.6]),
)
def test_two_terminal_property(n, seed, max_label, extra_label_prob):
    host = random_host(n, 2, seed, max_label=max_label, extra_label_prob=extra_label_prob)
    assert_two_terminal_ne(host, two_terminal_ne(host))
    if n <= 5:
        for setting in Setting:
            assert find_nash_by_search(host, setting) is not None


@pytest.mark.slow
def test_two_terminal_never_refuses_on_24000_random_hosts():
    # 24,000 seeds, n = 3..13, with and without extra labels, both settings.
    for seed in range(24_000):
        n = 3 + seed % 11
        for extra_label_prob in (0.0, 0.3):
            host = random_host(n, 2, seed, extra_label_prob=extra_label_prob)
            for setting in Setting:
                s = two_terminal_ne(host, setting)
                assert s.setting is setting
                assert all(e.touches(a) for a, bought in s.strategies.items() for e in bought)
                assert len(s.bought_edges()) <= n
                assert is_nash_equilibrium(s, host).is_equilibrium


def test_two_terminal_requires_a_complete_host():
    graph = TemporalGraph(["a", "b", "c"], [edge("a", "b", 1), edge("a", "c", 2)])
    with pytest.raises(IncompleteHost):
        two_terminal_ne(HostGraph(graph=graph, terminals=("a", "b")))


def test_two_terminal_requires_two_terminals():
    host, _ = hypercube_equilibrium(2)
    with pytest.raises(PreconditionFailed):
        two_terminal_ne(host)


def test_two_terminal_matches_oracle_on_small_hosts():
    for seed in (0, 1, 2):
        host = random_host(4, 2, seed=seed, extra_label_prob=0.5)
        s = two_terminal_ne(host)
        assert oracle_is_ne(s, host)


# --- hypercubes ---------------------------------------------------------------


@pytest.mark.parametrize("d,nodes,edges", [(1, 2, 1), (2, 4, 4), (3, 8, 12)])
def test_hypercube_counts(d, nodes, edges):
    host, s = hypercube_equilibrium(d)
    assert host.node_count == nodes
    assert host.terminal_count == nodes
    assert len(s.bought_edges()) == edges
    assert s.setting is Setting.LOCAL
    assert is_nash_equilibrium(s, host).is_equilibrium


def test_hypercube_square_is_cycle_of_bit_strings():
    host, s = hypercube_equilibrium(2)
    assert host.nodes == ("00", "01", "10", "11")
    assert sorted(e.label for e in s.bought_edges()) == [1, 1, 2, 2]
    # Dimension i is bought at label i+1.
    for e in s.bought_edges():
        flipped = sum(a != b for a, b in zip(e.u, e.v))
        assert flipped == 1
        bit = next(i for i, (a, b) in enumerate(zip(e.u, e.v)) if a != b)
        assert e.label == bit + 1


def test_hypercube_rejects_bad_dimension():
    with pytest.raises(PreconditionFailed):
        hypercube_equilibrium(0)


# --- dense cycles ---------------------------------------------------------------


@pytest.mark.parametrize("x", [2, 4])
def test_dense_cycle_counts(x):
    inst = dense_cycle_instance(x)
    assert inst.host.node_count == 2 * x * x
    assert inst.cycle_graph.time_edge_count == x**3
    assert inst.connected_graph.time_edge_count == x**3 + 2 * x * (x - 1)
    assert inst.host.terminal_count == inst.host.node_count
    assert realized_graph(inst.profile, inst.host) == inst.connected_graph


def test_dense_cycle_params_round_trip():
    p = DenseCycleParams(4, 7, 1, primed=True)
    assert p.node_id() == "w07.01"
    assert DenseCycleParams.parse(4, "w07.01") == p


def test_dense_cycle_rejects_odd_or_tiny_x():
    with pytest.raises(PreconditionFailed):
        dense_cycle_instance(3)
    with pytest.raises(PreconditionFailed):
        dense_cycle_instance(0)


def test_dense_cycle_refuses_two_cycle_edges_with_one_label_at_a_node(monkeypatch):
    build = constructions._dense_cycle_graphs

    def doubled(x):
        nodes, cycle_edges, bag_paths = build(x)
        first = cycle_edges[0]
        spare = next(n for n in nodes if n not in first.pair)
        return nodes, [*cycle_edges, TimeEdge(first.u, spare, first.label)], bag_paths

    monkeypatch.setattr(constructions, "_dense_cycle_graphs", doubled)
    with pytest.raises(PreconditionFailed, match="two edges with one label"):
        dense_cycle_instance(2)


def test_dense_cycle_lemma_checks_smallest():
    checks = dense_cycle_lemma_checks(2)
    assert checks.all_ok
    assert checks.node_count == 8
    assert checks.cycle_edge_count == 8
    assert checks.connected_edge_count == 12


@pytest.mark.parametrize(
    "x, counts", [(2, (8, 8, 12)), (4, (32, 64, 88)), (6, (72, 216, 276))]
)
def test_dense_cycle_path_walk_matches_the_recursive_oracle(x, counts):
    graph = dense_cycle_instance(x).cycle_graph
    incident = {n: [] for n in graph.nodes}
    for e in sorted(graph.time_edges()):
        incident[e.u].append(e)
        incident[e.v].append(e)
    for node in graph.nodes:
        assert list(constructions._increasing_paths(incident, node)) == list(
            oracle_increasing_paths(incident, node)
        )
    assert dense_cycle_lemma_checks(x) == DenseCycleChecks(x, *counts, *[True] * 5)


def test_dense_cycle_lemma_checks_do_not_depend_on_the_recursion_limit():
    # The x = 10 cycle has temporal paths of 10 edges, past the 8 frames to
    # spare, so a walk that recursed once per edge would fail here.
    checks = call_under_a_low_recursion_limit(dense_cycle_lemma_checks, 10)
    assert checks == DenseCycleChecks(10, 200, 1000, 1180, *[True] * 5)


def test_dense_cycle_smallest_profile_is_nash():
    inst = dense_cycle_instance(2)
    report = is_nash_equilibrium(inst.profile, inst.host)
    assert report.is_equilibrium


# --- lifetime-2 spanning trees ----------------------------------------------------


def tree_shaped(profile, host):
    g = realized_graph(profile, host)
    pairs = list(g.pairs())
    comps = connected_components(host.nodes, pairs)
    return g.time_edge_count == host.node_count - 1 and len(comps) == 1


def test_lifetime2_all_ones_host_gets_star():
    host = random_host(5, 3, seed=0, max_label=1)
    s = lifetime2_tree_ne(host)
    assert tree_shaped(s, host)
    assert is_nash_equilibrium(s, host).is_equilibrium
    assert is_nash_equilibrium(s.with_setting(Setting.LOCAL), host).is_equilibrium


def test_lifetime2_label2_tree_host():
    host = complete_host(
        {("a", "b"): 2, ("b", "c"): 2, ("a", "c"): 1, ("a", "d"): 2, ("b", "d"): 1, ("c", "d"): 1},
        ["a", "b", "c", "d"],
    )
    s = lifetime2_tree_ne(host)
    assert tree_shaped(s, host)
    assert is_nash_equilibrium(s, host).is_equilibrium


def test_lifetime2_random_hosts():
    for seed in range(8):
        n = 3 + seed % 4
        host = random_host(n, 1 + seed % n, seed=seed, max_label=2, extra_label_prob=0.3)
        s = lifetime2_tree_ne(host)
        assert s is not None
        assert tree_shaped(s, host)
        assert is_nash_equilibrium(s, host).is_equilibrium


def test_lifetime2_single_node():
    host = validate_and_normalize_host(TemporalGraph(["z"]), ["z"])
    s = lifetime2_tree_ne(host)
    assert s.bought_edges() == frozenset()


def test_lifetime2_rejects_long_lifetimes():
    host = random_host(4, 2, seed=1, max_label=4)
    assert host.lifetime > 2
    with pytest.raises(PreconditionFailed):
        lifetime2_tree_ne(host)


def test_lifetime2_refuted_candidate_is_an_internal_error(monkeypatch):
    host = random_host(5, 2, seed=4, max_label=2)
    refuted = is_nash_equilibrium(StrategyProfile.empty(Setting.GLOBAL), host)
    assert refuted.verdict is Verdict.REFUTED
    monkeypatch.setattr(constructions, "is_nash_equilibrium", lambda s, h: refuted)
    with pytest.raises(AssertionError, match="internal error"):
        lifetime2_tree_ne(host)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=7),
    k_seed=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
    max_label=st.sampled_from([1, 2]),
    extra_label_prob=st.sampled_from([0.0, 0.3, 0.7]),
)
def test_lifetime2_tree_is_an_equilibrium_in_both_settings(
    n, k_seed, seed, max_label, extra_label_prob
):
    host = random_host(
        n, 1 + k_seed % n, seed=seed, max_label=max_label,
        extra_label_prob=extra_label_prob,
    )
    s = lifetime2_tree_ne(host)
    assert tree_shaped(s, host)
    local = s.with_setting(Setting.LOCAL)
    assert is_nash_equilibrium(s, host).is_equilibrium
    assert is_nash_equilibrium(local, host).is_equilibrium
    # The brute-force global pool is every host edge, so it stops at n = 4.
    if n <= 5:
        assert oracle_is_ne(local, host)
    if n <= 4:
        assert oracle_is_ne(s, host)


# --- random hosts and relabeling ----------------------------------------------------


def test_random_host_is_deterministic_and_normalized():
    a = random_host(6, 3, seed=42, extra_label_prob=0.4)
    b = random_host(6, 3, seed=42, extra_label_prob=0.4)
    assert a.graph == b.graph and a.terminals == b.terminals
    used = set()
    for e in a.time_edges():
        used.add(e.label)
    assert used == set(range(1, a.lifetime + 1))
    assert a.terminal_count == 3


@pytest.mark.parametrize("max_label", [None, 1, 2, 5])
@pytest.mark.parametrize("extra_label_prob", [0.0, 0.3, 0.7])
def test_random_host_matches_the_time_edge_construction(max_label, extra_label_prob):
    # The pair map is filled directly; the checked TimeEdge build of the same
    # draws gives the same graph, terminals and file bytes.
    for n in range(1, 13):
        for k in sorted({1, (n + 1) // 2, n}):
            for seed in range(5):
                got = random_host(n, k, seed, max_label, extra_label_prob)
                want = oracle_random_host(n, k, seed, max_label, extra_label_prob)
                assert got.graph == want.graph
                assert list(got.graph.pairs()) == list(want.graph.pairs())
                assert got.terminals == want.terminals
                name = f"random-{n}-{k}-{seed}"
                assert dumps_instance(InstanceFile(name, got)) == dumps_instance(
                    InstanceFile(name, want)
                )


def test_random_host_builds_no_time_edge(monkeypatch):
    calls = []
    real = TimeEdge.__post_init__

    def counted(edge):
        calls.append(edge)
        real(edge)

    monkeypatch.setattr(TimeEdge, "__post_init__", counted)
    host = random_host(12, 4, seed=3, extra_label_prob=0.3)
    assert calls == []
    assert oracle_random_host(12, 4, 3, extra_label_prob=0.3) == host
    assert len(calls) == host.time_edge_count > 66


def test_random_host_rejects_bad_sizes():
    with pytest.raises(PreconditionFailed):
        random_host(0, 0, seed=1)
    with pytest.raises(PreconditionFailed):
        random_host(3, 4, seed=1)


def test_relabel_instance_preserves_equilibrium():
    left = fig5_left_instance()
    mapping = {v: f"node-{v}" for v in left.host.nodes}
    new_host, new_s = relabel_instance(left.host, left.profile, mapping)
    assert sorted(new_host.nodes) == sorted(mapping.values())
    assert is_nash_equilibrium(new_s, new_host).is_equilibrium


# --- pinned construction outputs ------------------------------------------------


def _lifetime2_hosts():
    """Seeded hosts with labels 1 and 2. A pair carries label 2 with
    probability q, so a small q leaves the label-2 pairs disconnected."""
    for seed in range(60):
        rng = random.Random(seed)
        n = 1 + seed % 8
        q = (0.0, 0.2, 0.4, 0.7)[seed % 4]
        nodes = [f"n{i}" for i in range(n)]
        edges = []
        for a, b in itertools.combinations(nodes, 2):
            labels = {2 if rng.random() < q else 1}
            if rng.random() < 0.3:
                labels.add(rng.choice((1, 2)))
            edges.extend(TimeEdge(a, b, label) for label in labels)
        terminals = rng.sample(nodes, 1 + seed % n)
        yield f"l2-{seed}", validate_and_normalize_host(
            TemporalGraph(nodes, edges), terminals
        )


def _construction_inputs():
    for name, build in sorted(FIXTURE_BUILDERS.items()):
        fixture = build()
        yield name, fixture.host, fixture.profile
    for d in (1, 2, 3):
        yield (f"cube{d}", *hypercube_equilibrium(d))
    for name, host in _lifetime2_hosts():
        if host.node_count > 1:
            yield name, host, lifetime2_tree_ne(host)


def _dense_case(x):
    inst = dense_cycle_instance(x)
    return inst.host, inst.profile


def _random_host_cases():
    """Seeded ``random_host`` draws over sizes, terminal counts, label caps and
    extra-label chances, each named by its parameters."""
    for max_label in (None, 2, 3):
        for extra_label_prob in (0.0, 0.3):
            for seed in range(30):
                n = 1 + seed % 12
                k = 1 + (7 * seed) % n
                name = f"random-n{n}-k{k}-cap{max_label}-p{extra_label_prob}-s{seed}"
                yield name, lambda n=n, k=k, seed=seed, m=max_label, p=extra_label_prob: (
                    random_host(n, k, seed, max_label=m, extra_label_prob=p),
                    None,
                )


def _digest(cases):
    """sha256 over each case's instance file, or over its refusal."""
    text = []
    for name, build in cases:
        try:
            host, profile = build()
        except PreconditionFailed:
            text.append(f"{name}: refused\n")
        else:
            text.append(dumps_instance(InstanceFile(name, host, profile)))
    return hashlib.sha256("".join(text).encode()).hexdigest()


CONSTRUCTION_DIGESTS = {
    "extend_with_terminal": (
        "484ba5797d226d053716cee572f4594cd027dddd4feae4dfc32e9fe2c2f7d0d8"
    ),
    "extend_with_nonterminal": (
        "b3964fdf392dd21dd1eac12c4cd6743f6b34e9c92c7cf33ce82bfd6b412282b8"
    ),
    "scale_with_nonterminals": (
        "138a18e316282a4e547f3c8879c6c772c5ce3e029763c0ced5979b679c2a6a92"
    ),
    "lifetime2_tree_ne": (
        "8208e3271ff4ee352dba482353df6e023e4da022163d98ecb6a9307f870ddc98"
    ),
    "dense_cycle_instance": (
        "dfcb223f7de5dd1d592f6eac51c57c2b09869f834fe57fe23d6b1c054096eb94"
    ),
    "hypercube_equilibrium": (
        "04a5979103c35770e3d3214c3c17030e0c20a7c91b8a8257dba476176789515c"
    ),
    "random_host": (
        "b0f4c13b5547b44f74d3a1b837cc873f760664d8e2195cbdfe0cf864fc9055fc"
    ),
}


def test_construction_outputs_are_pinned():
    inputs = list(_construction_inputs())
    scalable = [
        (name, host, profile)
        for name, host, profile in inputs
        if set(host.terminals) == set(host.nodes)
    ]
    digests = {
        "extend_with_terminal": _digest(
            (name, lambda h=host, p=profile: extend_with_terminal(h, p))
            for name, host, profile in inputs
        ),
        "extend_with_nonterminal": _digest(
            (name, lambda h=host, p=profile: extend_with_nonterminal(h, p))
            for name, host, profile in inputs
        ),
        "scale_with_nonterminals": _digest(
            (f"{name}-c{c}", lambda h=host, p=profile, c=c: scale_with_nonterminals(h, p, c))
            for name, host, profile in scalable
            for c in (1, 2, 3)
        ),
        "lifetime2_tree_ne": _digest(
            (name, lambda h=host: (h, lifetime2_tree_ne(h)))
            for name, host in _lifetime2_hosts()
        ),
        "dense_cycle_instance": _digest(
            (f"dense{x}", lambda x=x: _dense_case(x)) for x in (2, 4, 6)
        ),
        "hypercube_equilibrium": _digest(
            (f"cube{d}", lambda d=d: hypercube_equilibrium(d)) for d in (1, 2, 3, 4)
        ),
        "random_host": _digest(_random_host_cases()),
    }
    assert digests == CONSTRUCTION_DIGESTS
