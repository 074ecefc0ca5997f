import itertools

import pytest

from tempo_ncg import (
    InstanceFile,
    NotASpanner,
    NotMinimal,
    SearchTooLarge,
    Setting,
    SpannerSearchConfig,
    TemporalGraph,
    TimeEdge,
    dense_cycle_instance,
    dumps_instance,
    find_nash_by_search,
    ge_from_minimal_spanner,
    is_greedy_equilibrium,
    is_minimal_terminal_spanner,
    is_terminal_spanner,
    loads_instance,
    min_terminal_spanner,
    mono_label_spanning_tree,
    prune_to_minimal,
    random_host,
    realized_graph,
    social_cost,
    sweep_ownership,
    validate_and_normalize_host,
)
import oracles
import tempo_ncg.core
import tempo_ncg.spanner_opt
from tempo_ncg.core import kruskal
from tempo_ncg.fixtures import fig4_instance
from tempo_ncg.spanner_opt import terminal_spanners

from oracles import (
    brute_force_arrivals,
    naive_min_spanner,
    oracle_is_spanner,
    oracle_single_pass_prune,
    oracle_terminal_spanners,
    take_spanners,
)


def edge(u, v, label):
    return TimeEdge(u, v, label)


def test_config_rejects_nonpositive_budgets():
    with pytest.raises(ValueError):
        SpannerSearchConfig(max_candidate_edges=0)
    with pytest.raises(ValueError):
        SpannerSearchConfig(max_subsets=0)


def test_mono_label_tree_found_when_one_label_spans():
    host = random_host(5, 2, seed=9, max_label=1)
    tree = mono_label_spanning_tree(host)
    assert tree is not None
    assert tree.time_edge_count == 4
    assert len({e.label for e in tree.time_edges()}) == 1
    assert is_terminal_spanner(tree, host.terminals)


def test_mono_label_tree_absent_on_clique_fixture():
    assert mono_label_spanning_tree(fig4_instance().host) is None


def test_mono_label_scan_skips_groups_too_short_to_span(monkeypatch):
    # Four nodes, each label on two edges: no group can hold a 3-edge tree.
    host = validate_and_normalize_host(
        TemporalGraph("abcd", [
            edge("a", "b", 1), edge("c", "d", 1), edge("a", "c", 2),
            edge("b", "d", 2), edge("a", "d", 3), edge("b", "c", 3),
        ]),
        ["a"],
    )
    calls = []

    def counted(nodes, pairs):
        calls.append(1)
        return kruskal(nodes, pairs)

    monkeypatch.setattr(tempo_ncg.spanner_opt, "kruskal", counted)
    assert mono_label_spanning_tree(host) is None
    assert calls == []
    # A group of n - 1 edges is still scanned.
    assert mono_label_spanning_tree(random_host(5, 2, seed=9, max_label=1)) is not None
    assert calls == [1]


def test_mono_label_scan_builds_no_time_edge(monkeypatch):
    # The scan reads the host's label groups, which hold pairs: no time edge
    # is built, for the host or for the returned tree.
    host = random_host(13, 3, seed=4, max_label=2)
    calls = []
    real = tempo_ncg.core._trusted_edge

    def counted(u, v, label):
        calls.append((u, v, label))
        return real(u, v, label)

    monkeypatch.setattr(tempo_ncg.core, "_trusted_edge", counted)
    tree = mono_label_spanning_tree(host)
    assert tree is not None
    assert calls == []
    assert len(list(tree.time_edges())) == len(calls) == 12


def test_union_find_reads_no_pair_after_the_last_join(monkeypatch):
    read = []

    def pairs(listed):
        for pair in listed:
            read.append(pair)
            yield pair

    # The third join, at the fourth pair, spans the four nodes; the two
    # pairs after it are never read.
    k4 = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("a", "d"), ("b", "d")]
    kept, find = kruskal("abcd", pairs(k4))
    assert kept == [("a", "b"), ("b", "c"), ("c", "d")]
    assert read == k4[:4]
    assert len({find(node) for node in "abcd"}) == 1
    # The one-label scan stops at the tree's last pair too.
    host = random_host(12, 3, seed=1, max_label=1)
    read.clear()
    monkeypatch.setattr(
        tempo_ncg.spanner_opt, "kruskal", lambda nodes, listed: kruskal(nodes, pairs(listed))
    )
    tree = mono_label_spanning_tree(host)
    assert tree is not None
    assert read[-1] == max(tree.pairs())
    assert len(read) < host.graph.static_edge_count


@pytest.mark.parametrize("n", [12, 13, 14])
def test_mono_label_tree_matches_the_oracle_at_the_benchmark_shape(n):
    # Two labels: one label class or its complement connects the host.
    for seed in range(40):
        host = random_host(n, 3, seed, max_label=2)
        tree = mono_label_spanning_tree(host)
        assert tree is not None
        assert tree == oracles.oracle_mono_label_tree(host), seed


@pytest.mark.parametrize("n", [7, 8, 9, 10])
def test_mono_label_scan_matches_the_oracle_when_no_label_spans(n):
    # With labels up to n most hosts have no spanning label class; some of
    # those still have a label group long enough to be scanned.
    scanned_in_vain = 0
    for seed in range(40):
        host = random_host(n, 3, seed)
        tree = mono_label_spanning_tree(host)
        assert tree == oracles.oracle_mono_label_tree(host), seed
        groups = host.graph.label_groups()
        if tree is None and any(len(edges) >= n - 1 for _, edges in groups):
            scanned_in_vain += 1
    assert scanned_in_vain > 0


def test_all_ones_host_optimum_is_spanning_tree():
    host = random_host(4, 4, seed=2, max_label=1)
    best = min_terminal_spanner(host)
    assert best.time_edge_count == 3
    size, _ = naive_min_spanner(host)
    assert size == 3


def test_clique_fixture_optimum_is_four():
    host = fig4_instance().host
    best = min_terminal_spanner(host)
    assert is_terminal_spanner(best, host.terminals)
    assert best.time_edge_count == 4
    # No 3-edge subset spans: the independent enumeration agrees.
    size, _ = naive_min_spanner(host)
    assert size == 4


def test_dense_cycle_optimum_is_node_count_minus_one():
    inst = dense_cycle_instance(2)
    best = min_terminal_spanner(inst.host)
    assert best.time_edge_count == 7


def test_single_node_optimum_is_empty():
    host = validate_and_normalize_host(TemporalGraph(["a"]), ["a"])
    assert min_terminal_spanner(host).time_edge_count == 0
    # The size-0 layer is the whole walk: it yields the empty graph once.
    assert take_spanners(terminal_spanners(host, 1)) == [TemporalGraph(["a"])]


def test_optimum_refuses_oversized_searches():
    host = fig4_instance().host
    with pytest.raises(SearchTooLarge):
        min_terminal_spanner(host, SpannerSearchConfig(max_candidate_edges=3))
    with pytest.raises(SearchTooLarge):
        min_terminal_spanner(host, SpannerSearchConfig(max_subsets=3))


def subsets_tested_until(host, accept):
    """How many subsets plain enumeration (ascending size from n - 1,
    ``combinations`` order) tests up to the first spanner ``accept``s."""
    pool = sorted(host.time_edges())
    tested = 0
    for size in range(host.node_count - 1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            tested += 1
            graph = TemporalGraph(host.nodes, combo)
            if oracle_is_spanner(graph, host.terminals) and accept(graph):
                return tested, graph
    raise AssertionError("a complete host always spans")


def test_optimum_budget_counts_the_subsets_tested():
    host = fig4_instance().host
    assert mono_label_spanning_tree(host) is None
    tested, first = subsets_tested_until(host, lambda graph: True)
    assert tested == 26  # all 20 three-edge subsets, then 6 of four edges
    assert min_terminal_spanner(host, SpannerSearchConfig(max_subsets=tested)) == first
    with pytest.raises(SearchTooLarge):
        min_terminal_spanner(host, SpannerSearchConfig(max_subsets=tested - 1))


@pytest.mark.parametrize("setting", list(Setting), ids=lambda s: s.value)
def test_nash_search_budget_counts_the_subsets_tested(setting):
    host = fig4_instance().host
    tested, first = subsets_tested_until(
        host, lambda graph: sweep_ownership(host, graph, setting).equilibria
    )
    found = find_nash_by_search(host, setting, max_subsets=tested)
    assert found == sweep_ownership(host, first, setting).equilibria[0]
    with pytest.raises(SearchTooLarge):
        find_nash_by_search(host, setting, max_subsets=tested - 1)


def count_sweeps(monkeypatch, module, name):
    """Record each call of the sweep that ``module`` reads as ``name``."""
    calls = []
    real = getattr(module, name)

    def counted(groups, bits):
        calls.append(1)
        return real(groups, bits)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_two_node_walk_yields_every_nonempty_subset():
    host = validate_and_normalize_host(
        TemporalGraph("ab", [edge("a", "b", 1), edge("a", "b", 2)]), ["a"]
    )
    spanners = take_spanners(terminal_spanners(host, 3))
    assert [graph.time_edge_count for graph in spanners] == [1, 1, 2]
    assert spanners == take_spanners(oracle_terminal_spanners(host, 3))
    assert take_spanners(terminal_spanners(host, 2)) == spanners[:2] + ["refused"]


def test_a_budget_inside_a_skipped_block_refuses_where_plain_enumeration_does(
    monkeypatch,
):
    # On the clique fixture the three-edge subsets of ranks 17-20 (those from
    # the third pool edge on) cannot span, so the walk skips them as one
    # block: budgets 16 to 19 cost it the same sweeps and all refuse.
    host = fig4_instance().host
    for budget in range(1, 40):
        assert take_spanners(terminal_spanners(host, budget), 3) == take_spanners(
            oracle_terminal_spanners(host, budget), 3
        )
    sweeps = count_sweeps(monkeypatch, tempo_ncg.spanner_opt, "reach_masks")
    cost = {}
    for budget in (16, 19):
        sweeps.clear()
        with pytest.raises(SearchTooLarge):
            next(terminal_spanners(host, budget))
        cost[budget] = len(sweeps)
    assert 0 < cost[16] == cost[19] < 16


def test_pruning_sweeps_at_most_half_of_plain_enumerations_rank(monkeypatch):
    host = random_host(6, 3, seed=9)
    assert mono_label_spanning_tree(host) is None
    assert host.time_edge_count <= SpannerSearchConfig().max_candidate_edges
    # Plain enumeration sweeps each subset once, so its count is the rank.
    rank = count_sweeps(monkeypatch, oracles, "spans_terminals")
    first = next(oracle_terminal_spanners(host, 10**6))
    sweeps = count_sweeps(monkeypatch, tempo_ncg.spanner_opt, "reach_masks")
    assert min_terminal_spanner(host) == first
    assert len(rank) > 1000
    assert 0 < len(sweeps) <= len(rank) // 2


@pytest.mark.parametrize("k", [2, 3])
def test_pruned_walk_finds_plain_enumerations_first_spanner_at_n6(k):
    for seed in range(30):
        host = random_host(6, k, seed)
        assert next(terminal_spanners(host, 10**6)) == next(
            oracle_terminal_spanners(host, 10**6)
        )


@pytest.mark.slow
def test_pruned_walk_finds_the_first_spanner_on_838_hosts():
    # Every host of n = 5 or 6, k = 2 or 3 and seeds 0-299 that the exact
    # optimum search enumerates: no one-label tree, at most 20 pool edges.
    enumerated = 0
    for n, k, seed in itertools.product((5, 6), (2, 3), range(300)):
        host = random_host(n, k, seed)
        if len(host.sorted_time_edges) > 20:
            continue
        if mono_label_spanning_tree(host) is not None:
            continue
        enumerated += 1
        assert next(terminal_spanners(host, 10**6)) == next(
            oracle_terminal_spanners(host, 10**6)
        ), (n, k, seed)
    assert enumerated == 838


def test_optimum_matches_oracle_on_random_hosts():
    for seed in range(6):
        host = random_host(4, 1 + seed % 4, seed=seed)
        best = min_terminal_spanner(host)
        size, _ = naive_min_spanner(host)
        assert best.time_edge_count == size
        assert size >= host.node_count - 1 or host.node_count == 1
        assert oracle_is_spanner(best, host.terminals)


def test_prune_full_clique_fixture_host():
    host = fig4_instance().host
    pruned = prune_to_minimal(host.graph, host.terminals)
    minimal, witness = is_minimal_terminal_spanner(pruned, host.terminals)
    assert minimal and witness is None
    assert 3 <= pruned.time_edge_count <= 5


def test_prune_is_identity_on_minimal_input():
    inst = fig4_instance()
    blue = realized_graph(inst.profile, inst.host)
    assert prune_to_minimal(blue, inst.host.terminals) == blue


def test_prune_fat_blue_graph():
    inst = fig4_instance()
    fat = realized_graph(inst.profile, inst.host).with_time_edges(
        [edge("v1", "v3", 1)]
    )
    pruned = prune_to_minimal(fat, inst.host.terminals)
    # Canonical removal drops (v1,v2)@5 first, which unlocks (v2,v3)@4 too,
    # landing on an optimum-sized 4-edge minimal spanner.
    assert pruned.time_edge_count == 4
    assert is_minimal_terminal_spanner(pruned, inst.host.terminals) == (True, None)


def test_prune_rejects_non_spanner():
    inst = fig4_instance()
    with pytest.raises(NotASpanner):
        prune_to_minimal(TemporalGraph(inst.host.nodes), inst.host.terminals)


def test_prune_matches_the_one_sweep_per_edge_loop_at_n10():
    # The shape of the prune-fallback hosts: 45 edges over about ten labels.
    for seed in range(4):
        host = random_host(10, 3, seed)
        assert prune_to_minimal(host.graph, host.terminals) == oracle_single_pass_prune(
            host.graph, host.terminals
        )


def test_prune_reads_the_pair_map_and_rebuilds_a_canonical_graph():
    # A freshly parsed host of the prune-fallback shape: the prune builds no
    # label groups for it, and its trusted rebuild equals the checked one,
    # pair order included.
    for seed in range(4):
        host = random_host(10, 3, seed)
        graph = loads_instance(dumps_instance(InstanceFile(name="h", host=host))).host.graph
        pruned = prune_to_minimal(graph, host.terminals)
        assert graph._groups is None
        checked = TemporalGraph(host.nodes, pruned.time_edges())
        assert pruned == checked
        assert list(pruned.pairs()) == list(checked.pairs())


def test_spanner_walk_reads_the_pair_map_and_rebuilds_canonical_graphs():
    host = random_host(6, 3, seed=9)
    spanners = take_spanners(terminal_spanners(host, 10**6), 3)
    assert host.graph._groups is None
    assert "sorted_time_edges" not in vars(host)
    assert mono_label_spanning_tree(host) is None
    for spanner in spanners:
        checked = TemporalGraph(host.nodes, spanner.time_edges())
        assert spanner == checked
        assert list(spanner.pairs()) == list(checked.pairs())


def test_minimum_never_exceeds_pruned_size():
    for seed in range(5):
        host = random_host(4, 2, seed=seed + 20)
        pruned = prune_to_minimal(host.graph, host.terminals)
        best = min_terminal_spanner(host)
        assert best.time_edge_count <= pruned.time_edge_count


def test_ge_assignment_reproduces_forced_profile():
    inst = fig4_instance()
    blue = realized_graph(inst.profile, inst.host)
    profile = ge_from_minimal_spanner(blue, inst.host)
    assert profile == inst.profile
    assert is_greedy_equilibrium(profile, inst.host).is_equilibrium


def test_ge_owners_actually_need_their_edges():
    host = random_host(5, 3, seed=31, extra_label_prob=0.3)
    pruned = prune_to_minimal(host.graph, host.terminals)
    profile = ge_from_minimal_spanner(pruned, host)
    report = is_greedy_equilibrium(profile, host)
    assert report.is_equilibrium
    assert social_cost(profile, host).total == (0, pruned.time_edge_count)
    for owner in profile.buyers:
        for e in profile.strategy(owner):
            reach_without = brute_force_arrivals(pruned.without_time_edge(e), owner)
            assert any(t not in reach_without for t in host.terminals)


def test_ge_on_exact_minimum_reaches_the_optimum_cost():
    host = fig4_instance().host
    best = min_terminal_spanner(host)
    profile = ge_from_minimal_spanner(best, host)
    assert is_greedy_equilibrium(profile, host).is_equilibrium
    assert social_cost(profile, host).total == (0, best.time_edge_count)


def test_ge_rejects_non_minimal_spanner():
    inst = fig4_instance()
    fat = realized_graph(inst.profile, inst.host).with_time_edges(
        [edge("v1", "v3", 1)]
    )
    with pytest.raises(NotMinimal):
        ge_from_minimal_spanner(fat, inst.host)


def test_ge_rejects_non_spanner():
    inst = fig4_instance()
    with pytest.raises(NotASpanner):
        ge_from_minimal_spanner(TemporalGraph(inst.host.nodes), inst.host)


def test_ge_rejects_a_graph_without_every_host_node():
    # Only the terminals and one edge between them: it spans its own nodes,
    # but the host's other nodes reach nothing, so no profile is a GE.
    host = random_host(4, 2, seed=3)
    u, v = host.terminals
    graph = TemporalGraph(host.terminals, [edge(u, v, host.min_label(u, v))])
    with pytest.raises(NotASpanner):
        ge_from_minimal_spanner(graph, host)
