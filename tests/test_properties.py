"""Invariants checked over randomized inputs."""

import copy
import dataclasses
import zlib
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (
    assert_matches_the_unbudgeted_oracle,
    brute_force_arrivals,
    naive_min_spanner,
    oracle_cost,
    oracle_dumps_instance,
    oracle_edge_needers,
    oracle_find_forbidden_structure,
    oracle_find_improving_response,
    oracle_greedy_dynamics,
    oracle_greedy_improving_response,
    oracle_greedy_witness,
    oracle_instance_from_dict,
    oracle_is_ge,
    oracle_is_nash_equilibrium,
    oracle_is_minimal_spanner,
    oracle_is_spanner,
    oracle_mono_label_tree,
    oracle_other_edges,
    oracle_prune_to_minimal,
    oracle_reach,
    oracle_sweep_ownership,
    oracle_sweep_product,
    oracle_terminal_spanners,
    take_spanners,
)
from tempo_ncg import (
    CostBreakdown,
    HostGraph,
    InstanceFile,
    NotASpanner,
    SearchOutcome,
    SearchTooLarge,
    Setting,
    StrategyProfile,
    TemporalGraph,
    TimeEdge,
    UnknownNode,
    Verdict,
    agent_cost,
    connected_components,
    direct_terminal_profile,
    dumps_instance,
    earliest_arrivals,
    edge_needers,
    find_forbidden_structure,
    find_improving_response,
    find_nash_by_search,
    graph_product,
    greedy_dynamics,
    greedy_improving_response,
    instance_from_dict,
    instance_to_dict,
    is_greedy_equilibrium,
    is_minimal_terminal_spanner,
    is_nash_equilibrium,
    is_terminal_spanner,
    loads_instance,
    min_terminal_spanner,
    mono_label_spanning_tree,
    necessary_terminals,
    prune_to_minimal,
    random_host,
    reach_set,
    realized_graph,
    sweep_ownership,
    two_terminal_ne,
    validate_and_normalize_host,
)
import tempo_ncg.game
from tempo_ncg.core import (
    group_by_label,
    label_reach_masks,
    propagate_arrivals,
    reach_masks,
    removal_masks,
    terminal_bits,
)
from tempo_ncg.game import (
    _grow_frame,
    _others_groups,
    _reached_bits,
    _realized_index,
    _since_table,
)
from tempo_ncg.poa import optimum_bounds
from tempo_ncg.spanner_opt import terminal_spanners


def _pairs(nodes):
    return [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]


@st.composite
def temporal_graphs(draw, max_n=5, max_label=5, min_labels_per_pair=0):
    n = draw(st.integers(min_value=1, max_value=max_n))
    nodes = tuple(f"n{i}" for i in range(n))
    edges = []
    for u, v in _pairs(nodes):
        labels = draw(
            st.lists(
                st.integers(min_value=1, max_value=max_label),
                min_size=min_labels_per_pair,
                max_size=2,
                unique=True,
            )
        )
        edges.extend(TimeEdge(u, v, label) for label in labels)
    return TemporalGraph(nodes, edges)


@st.composite
def hosts(draw, max_n=5, max_label=5):
    graph = draw(
        temporal_graphs(max_n=max_n, max_label=max_label, min_labels_per_pair=1)
    )
    k = draw(st.integers(min_value=1, max_value=len(graph.nodes)))
    return HostGraph(graph=graph, terminals=graph.nodes[:k])


@given(hosts())
def test_normalization_is_idempotent(host):
    once = validate_and_normalize_host(host.graph, host.terminals)
    twice = validate_and_normalize_host(once.graph, once.terminals)
    assert once == twice
    labels = {e.label for e in once.graph.time_edges()}
    assert labels == set(range(1, len(labels) + 1))


@given(temporal_graphs())
def test_arrivals_match_brute_force(graph):
    for source in graph.nodes:
        got = earliest_arrivals(graph, source)
        assert dict(got.arrival) == brute_force_arrivals(graph, source)


@given(temporal_graphs(), st.data())
def test_arrival_tree_maps_each_reached_node_to_a_pair_that_reached_it(graph, data):
    """``propagate_arrivals`` returns, per reached node but the source, a
    canonical pair of the graph holding the node and carrying the node's
    arrival time; ``earliest_arrivals`` rebuilds its predecessor edges from
    those pairs at that time."""
    source = data.draw(st.sampled_from(graph.nodes), label="source")
    arrival, tree = propagate_arrivals(graph.label_groups(), source)
    assert tree.keys() == arrival.keys() - {source}
    pairs = set(graph.pairs())
    for node, pair in tree.items():
        assert pair in pairs and node in pair
        assert arrival[node] in graph.labels(*pair)
    predecessor = earliest_arrivals(graph, source).predecessor
    assert predecessor == {x: TimeEdge(*pair, arrival[x]) for x, pair in tree.items()}


@given(temporal_graphs(), st.data())
def test_backward_reach_masks_match_brute_force(graph, data):
    bits = {v: data.draw(st.integers(0, 7), label=v) for v in graph.nodes}
    labels = data.draw(st.sets(st.integers(min_value=1, max_value=6)), label="labels")
    masks = label_reach_masks(graph.label_groups(), bits, labels)
    assert masks.keys() == labels | {e.label for e in graph.time_edges()}
    for label, by_node in masks.items():
        later = TemporalGraph(
            graph.nodes, [e for e in graph.time_edges() if e.label >= label]
        )
        for source in graph.nodes:
            want = 0
            for node in brute_force_arrivals(later, source):
                want |= bits[node]
            assert by_node[source] == want


@given(temporal_graphs(max_n=6), st.data())
def test_incremental_arrivals_match_a_fresh_propagation(graph, data):
    """Growing a frame edge by edge, as the deviation search does, gives at
    every step the arrival map of a full propagation over the graph plus the
    chosen prefix, the pool edges that improve that map and the terminals it
    reaches. The pool holds the graph's own edges, whose bits never enter the
    improving set: the map stays closed under the graph."""
    groups = graph.label_groups()
    adjacency = {}
    for label, pairs in groups:
        for u, v in pairs:
            adjacency.setdefault(u, []).append((label, v))
            adjacency.setdefault(v, []).append((label, u))
    source = data.draw(st.sampled_from(graph.nodes), label="source")
    terminals = data.draw(st.sets(st.sampled_from(graph.nodes)), label="terminals")
    bits = terminal_bits(graph.nodes, sorted(terminals))
    pool = [TimeEdge(u, v, lab) for u, v in _pairs(graph.nodes) for lab in range(1, 7)]
    since = _since_table(graph.nodes, pool, {0, *range(1, 7), *dict(groups)})

    def improving_in_pool(arrival):
        # Brute force: the edges with one end reached by their label, the
        # other end not.
        found = []
        for i, e in enumerate(pool):
            au = arrival.get(e.u, float("inf"))
            av = arrival.get(e.v, float("inf"))
            if au <= e.label < av:
                found.append((i, e, e.v))
            elif av <= e.label < au:
                found.append((i, e, e.u))
        return found

    arrival, _ = propagate_arrivals(groups, source)
    improving = 0
    for x, t in arrival.items():
        improving ^= since[x][t]
    reached = _reached_bits(arrival, bits)
    own = sum(1 << i for i, e in enumerate(pool) if graph.has_time_edge(e))
    prefix = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4), label="steps")):
        candidates = improving_in_pool(arrival)
        assert improving == sum(1 << i for i, _, _ in candidates)
        assert not improving & own
        assert reached == _reached_bits(arrival, bits)
        if not candidates:
            break
        _, e, far = data.draw(st.sampled_from(candidates), label="edge")
        prefix.append(e)
        arrival, improving, reached = _grow_frame(
            arrival, improving, reached, far, e.label, adjacency, since, bits
        )
        merged = group_by_label([*graph.time_edges(), *prefix])
        assert arrival == propagate_arrivals(merged, source)[0]
    assert improving == sum(1 << i for i, _, _ in improving_in_pool(arrival))
    assert not improving & own
    assert reached == _reached_bits(arrival, bits)


@given(temporal_graphs(max_n=4), st.data())
def test_adding_an_edge_never_shrinks_reach(graph, data):
    if len(graph.nodes) < 2:
        return
    u, v = data.draw(st.sampled_from(_pairs(graph.nodes)), label="endpoints")
    label = data.draw(st.integers(min_value=1, max_value=6), label="label")
    bigger = graph.with_time_edges([TimeEdge(u, v, label)])
    for source in graph.nodes:
        assert reach_set(graph, source) <= reach_set(bigger, source)


@given(temporal_graphs())
def test_reconstructed_paths_are_valid(graph):
    for source in graph.nodes:
        arrivals = earliest_arrivals(graph, source)
        for target in arrivals.reached:
            if target == source:
                continue
            path = arrivals.path_to(target)
            assert path[0].touches(source)
            labels = [e.label for e in path]
            assert labels == sorted(labels)
            assert labels[-1] == arrivals.arrival_of(target)
            at = source
            for step in path:
                assert step.touches(at)
                at = step.other(at)
            assert at == target


@given(temporal_graphs())
def test_time_edges_come_in_canonical_order(graph):
    assert list(graph.time_edges()) == sorted(graph.time_edges())


@given(temporal_graphs(max_label=1))
def test_single_label_reach_is_the_static_component(graph):
    components = connected_components(
        graph.nodes, {e.pair for e in graph.time_edges()}
    )
    by_node = {v: set(comp) for comp in components for v in comp}
    for source in graph.nodes:
        assert set(reach_set(graph, source)) == by_node[source]


@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=10),
)
def test_cost_order_matches_numeric_collapse(u1, b1, u2, b2):
    # With any constant above the largest edge count the scalar form orders
    # exactly like the lexicographic pair.
    c = 11
    lhs, rhs = CostBreakdown(u1, b1), CostBreakdown(u2, b2)
    assert (lhs < rhs) == (lhs.numeric(c) < rhs.numeric(c))
    assert (lhs == rhs) == (lhs.numeric(c) == rhs.numeric(c))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_nash_implies_greedy_on_searched_equilibria(seed):
    host = random_host(3, 1 + seed % 3, seed, max_label=2)
    profile = find_nash_by_search(host, Setting.GLOBAL)
    if profile is None:
        return
    assert is_nash_equilibrium(profile, host).verdict is Verdict.EQUILIBRIUM
    assert is_greedy_equilibrium(profile, host).verdict is Verdict.EQUILIBRIUM


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=1_000),
    st.integers(min_value=0, max_value=1_000),
)
def test_product_edge_identity_on_random_factors(seed1, seed2):
    host1 = random_host(3, 2, seed1, max_label=2)
    host2 = random_host(3, 2, seed2, max_label=2)
    s1 = two_terminal_ne(host1, Setting.LOCAL)
    s2 = two_terminal_ne(host2, Setting.LOCAL)
    product_host, product_profile = graph_product(host1, s1, host2, s2)
    assert product_host.node_count == 9
    m1 = s1.total_purchases()
    m2 = s2.total_purchases()
    assert product_profile.total_purchases() == 3 * m1 + 2 * m2


@given(temporal_graphs(), st.data())
def test_spanner_check_matches_the_brute_force_oracle(graph, data):
    terminals = data.draw(
        st.sets(st.sampled_from(graph.nodes), min_size=1), label="terminals"
    )
    assert is_terminal_spanner(graph, terminals) == oracle_is_spanner(graph, terminals)


# About one host in eight has no one-label spanning tree, hence the count.
@settings(max_examples=250, deadline=None)
@given(hosts(max_n=4, max_label=3))
def test_min_spanner_is_the_first_spanner_of_plain_enumeration(host):
    size, combo = naive_min_spanner(host)
    tree = mono_label_spanning_tree(host)
    if tree is None:
        assert min_terminal_spanner(host) == TemporalGraph(host.nodes, combo)
    else:
        assert min_terminal_spanner(host) == tree
        assert size == host.node_count - 1


@settings(max_examples=100, deadline=None)
@given(
    hosts(max_n=5, max_label=3),
    st.integers(min_value=1, max_value=5000),
    st.sampled_from([1, 2, 4, None]),
)
def test_pruned_spanner_walk_matches_plain_enumeration(host, budget, count):
    # The same spanners in the same order, and a refusal at the same point,
    # for any budget and however many spanners the caller takes.
    assert take_spanners(terminal_spanners(host, budget), count) == take_spanners(
        oracle_terminal_spanners(host, budget), count
    )


@settings(max_examples=40, deadline=None)
@given(hosts(max_n=5, max_label=3), st.data())
def test_minimality_check_matches_the_brute_force_oracle(host, data):
    edges = sorted(host.time_edges())
    keep = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    graph = TemporalGraph(host.nodes, [e for e, k in zip(edges, keep) if k])
    if not oracle_is_spanner(graph, host.terminals):
        with pytest.raises(NotASpanner):
            is_minimal_terminal_spanner(graph, host.terminals)
        return
    assert is_minimal_terminal_spanner(
        graph, host.terminals
    ) == oracle_is_minimal_spanner(graph, host.terminals)


@settings(max_examples=40, deadline=None)
@given(hosts(max_n=5, max_label=3))
def test_single_pass_prune_matches_the_rescan_oracle(host):
    assert prune_to_minimal(host.graph, host.terminals) == oracle_prune_to_minimal(
        host.graph, host.terminals
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_optimum_bounds_bracket_the_exact_optimum(n, data):
    """One label per pair keeps every host within the exact search's pool of
    20 edges, so the optimum is always exact here."""
    nodes = tuple(f"n{i}" for i in range(n))
    pairs = _pairs(nodes)
    labels = data.draw(
        st.lists(st.integers(min_value=1, max_value=3),
                 min_size=len(pairs), max_size=len(pairs))
    )
    graph = TemporalGraph(
        nodes, [TimeEdge(u, v, label) for (u, v), label in zip(pairs, labels)]
    )
    k = data.draw(st.integers(min_value=1, max_value=n))
    host = HostGraph(graph=graph, terminals=nodes[:k])
    upper, lower = optimum_bounds(host)
    assert upper == prune_to_minimal(host.graph, host.terminals).time_edge_count
    assert lower <= min_terminal_spanner(host).time_edge_count <= upper


@settings(max_examples=60, deadline=None)
@given(hosts(max_n=5, max_label=5), st.data())
def test_prune_of_a_subgraph_matches_the_rescan_oracle(host, data):
    """Subgraphs with labels up to n: a drop can then change the masks of the
    lower labels (the re-sweep runs to time 0) or leave them as they were (it
    stops early), and some inputs do not span at all."""
    edges = sorted(host.time_edges())
    keep = data.draw(
        st.lists(st.sampled_from([True, True, True, False]),
                 min_size=len(edges), max_size=len(edges))
    )
    graph = TemporalGraph(host.nodes, [e for e, k in zip(edges, keep) if k])
    with pytest.raises(UnknownNode):
        prune_to_minimal(graph, (*host.terminals, "zz"))
    if not oracle_is_spanner(graph, host.terminals):
        with pytest.raises(NotASpanner):
            prune_to_minimal(graph, host.terminals)
        return
    assert prune_to_minimal(graph, host.terminals) == oracle_prune_to_minimal(
        graph, host.terminals
    )


@settings(max_examples=40, deadline=None)
@given(hosts(max_n=5, max_label=3), st.data())
def test_edge_needers_match_the_brute_force_oracle(host, data):
    edges = sorted(host.time_edges())
    keep = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    target = TemporalGraph(host.nodes, [e for e, k in zip(edges, keep) if k])
    assert edge_needers(target, host.terminals) == oracle_edge_needers(target, host)


@st.composite
def graphs_with_terminals(draw):
    graph = draw(temporal_graphs(max_n=5, max_label=4))
    return graph, sorted(draw(st.sets(st.sampled_from(graph.nodes))))


# Labels 1 (bottom), 2 and 4 (top) each hold one edge, which its removal
# empties; the pairs (a, b) and (b, c) carry two labels each.
_LAYERED = TemporalGraph(
    ("a", "b", "c", "d"),
    [
        TimeEdge("a", "b", 1),
        TimeEdge("b", "c", 2),
        TimeEdge("a", "b", 3),
        TimeEdge("c", "d", 3),
        TimeEdge("b", "c", 4),
    ],
)


@example((_LAYERED, ["a", "d"]))
@given(graphs_with_terminals())
def test_removal_masks_match_a_sweep_without_the_edge(case):
    graph, terminals = case
    bits = terminal_bits(graph.nodes, terminals)
    without = removal_masks(graph.label_groups(), bits)
    edges = set(graph.time_edges())
    for e in sorted(edges):
        assert without(e) == reach_masks(group_by_label(edges - {e}), bits)


# One label chains a path, listed so that a pass that rescans only while
# its last pair changed stops before the terminal's bit reaches ``a``.
_CHAIN = TemporalGraph(
    "abcd", [TimeEdge("a", "b", 1), TimeEdge("b", "c", 1), TimeEdge("c", "d", 1)]
)


@example((_CHAIN, ["d"]))
@given(graphs_with_terminals())
def test_one_sweep_gives_equal_masks_over_index_pairs_and_id_pairs(case):
    """One kernel: ``reach_masks`` over node-index pairs into a list equals
    ``reach_masks`` over node-id pairs into a dict, both equal brute force
    and both inputs are left unchanged."""
    graph, terminals = case
    bits = terminal_bits(graph.nodes, terminals)
    at = {node: i for i, node in enumerate(graph.nodes)}
    groups = graph.label_groups()
    indexed = [(label, [(at[u], at[v]) for u, v in pairs]) for label, pairs in groups]
    start = [bits[node] for node in graph.nodes]
    swept = reach_masks(indexed, start)
    want = reach_masks(groups, bits)
    assert swept == [want[node] for node in graph.nodes]
    for source in graph.nodes:
        assert want[source] == _reached_bits(brute_force_arrivals(graph, source), bits)
    assert start == [bits[node] for node in graph.nodes]  # the inputs are left as they were
    assert bits == terminal_bits(graph.nodes, terminals)


@given(hosts(max_n=5, max_label=2) | hosts(max_n=6, max_label=4))
def test_mono_label_tree_is_the_canonical_tree_of_a_spanning_label(host):
    assert mono_label_spanning_tree(host) == oracle_mono_label_tree(host)


@st.composite
def verification_cases(draw):
    """A small host with a direct-terminal, two-terminal or perturbed profile."""
    n = draw(st.integers(min_value=3, max_value=5))
    kind = draw(st.sampled_from(["perturbed", "direct", "two-terminal"]))
    k = 2 if kind == "two-terminal" else draw(st.integers(min_value=1, max_value=n))
    host = random_host(n, k, draw(st.integers(0, 10_000)), max_label=3)
    setting = draw(st.sampled_from(list(Setting)))
    if kind == "two-terminal":
        return host, two_terminal_ne(host, setting)
    profile = direct_terminal_profile(host, setting)
    if kind == "perturbed":
        # One extra purchase: refuting it may need the budgeted search.
        agent = draw(st.sampled_from(host.nodes))
        own = profile.strategy(agent)
        pool = sorted(
            e
            for e in host.time_edges()
            if e not in own and (setting is Setting.GLOBAL or e.touches(agent))
        )
        assume(pool)
        profile = profile.with_strategy(agent, own | {draw(st.sampled_from(pool))})
    return host, profile


@settings(max_examples=150, deadline=None)
@given(verification_cases())
def test_budget_only_ever_downgrades_the_verdict_to_inconclusive(case):
    host, profile = case
    exact = is_nash_equilibrium(profile, host)
    # No single search examines more states than the whole exact check, so
    # larger budgets change nothing.
    for budget in range(exact.states_examined + 1):
        verdict = is_nash_equilibrium(profile, host, budget=budget).verdict
        assert verdict in (exact.verdict, Verdict.INCONCLUSIVE)


@st.composite
def search_cases(draw):
    """A small host and a random profile in which agents may miss terminals."""
    host = draw(hosts(max_n=6, max_label=3))
    setting = draw(st.sampled_from(list(Setting)))
    rng = draw(st.randoms(use_true_random=False))
    strategies = {}
    for v in host.nodes:
        density = rng.choice([0.0, 0.05, 0.1, 0.3])
        strategies[v] = frozenset(
            e
            for e in host.time_edges()
            if (setting is Setting.GLOBAL or e.touches(v)) and rng.random() < density
        )
    return host, StrategyProfile(setting, strategies)


@settings(max_examples=200, deadline=None)
@given(search_cases())
def test_deviation_search_matches_the_recursive_oracle(case):
    host, profile = case
    for agent in host.nodes:
        unbudgeted = oracle_find_improving_response(agent, profile, host)
        for budget in (None, 1, 3, 17):
            got = find_improving_response(agent, profile, host, budget=budget)
            if profile.setting is Setting.LOCAL:
                assert_matches_the_unbudgeted_oracle(got, unbudgeted, budget)
                continue
            want = oracle_find_improving_response(agent, profile, host, budget=budget)
            assert (got.response, got.exact, got.states_examined) == (
                want.response,
                want.exact,
                want.states_examined,
            )


@settings(max_examples=150, deadline=None)
@given(search_cases(), st.data())
def test_a_local_strategy_reaches_the_union_of_its_edges_masks(case, data):
    """The union lemma: what ``v`` reaches with own edges that all touch it
    is what the other agents' edges reach from ``v``, plus, for each own edge
    (v, b, L), what they reach from ``b`` leaving at L or later. The others'
    edges come from profiles of either setting."""
    host, profile = case
    bits = terminal_bits(host.nodes, host.terminals)
    for v in host.nodes:
        others = oracle_other_edges(profile, v)
        incident = [e for e in host.time_edges() if e.touches(v)]
        own = data.draw(
            st.sets(st.sampled_from(incident)) if incident else st.just(set()),
            label=f"own of {v}",
        )
        groups = group_by_label(others)
        masks = label_reach_masks(groups, bits, {e.label for e in own})
        union = _reached_bits(propagate_arrivals(groups, v)[0], bits)
        for e in own:
            union |= masks[e.label][e.other(v)]
        reached, _ = propagate_arrivals(group_by_label(others | own), v)
        assert union == _reached_bits(reached, bits)


@settings(max_examples=100, deadline=None)
@given(search_cases())
def test_agent_cost_matches_the_brute_force_oracle(case):
    host, profile = case
    for agent in host.nodes:
        assert agent_cost(agent, profile, host).total == oracle_cost(agent, profile, host)


@st.composite
def instance_files(draw):
    """Random hosts as instance files, with long node ids (``v1`` sorts before
    ``v10`` as a tuple, after it inside a "u|v" key) and, sometimes, the
    ``default_label`` shorthand."""
    n = draw(st.integers(min_value=1, max_value=9))
    host = random_host(
        n,
        draw(st.integers(min_value=1, max_value=n)),
        draw(st.integers(min_value=0, max_value=2**16)),
        max_label=draw(st.sampled_from([None, 2, 3])),
        extra_label_prob=draw(st.sampled_from([0.0, 0.4])),
    )
    ids = draw(st.permutations(range(1, 30)))[:n]
    mapping = {node: f"v{i}" for node, i in zip(host.nodes, ids)}
    host = HostGraph(
        graph=host.graph.relabel_nodes(mapping),
        terminals=tuple(mapping[t] for t in host.terminals),
    )
    default = draw(st.none() | st.integers(min_value=1, max_value=max(host.lifetime, 1)))
    return InstanceFile(name="random", host=host, default_label=default)


# Node ids, names and sources with every character the escaper treats
# specially: quotes, backslashes, control characters, non-ASCII letters and
# the JSON punctuation (commas, brackets, braces, colons).
_ID_TEXT = st.text(
    st.sampled_from('"\\\n\t\x00\x1f\x7f,[]{}: aéßΩ漢\u2028😀'), min_size=1, max_size=4
)


@st.composite
def written_instances(draw):
    """Instances to write: odd node ids, a host whose pairs may equal the
    default label, with or without a source, and a profile in either
    setting, sometimes with no strategy at all."""
    nodes = draw(st.lists(_ID_TEXT, min_size=1, max_size=5, unique=True))
    edges = [
        TimeEdge(u, v, label)
        for u, v in _pairs(sorted(nodes))
        for label in draw(
            st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=2, unique=True)
        )
    ]
    graph = TemporalGraph(nodes, edges)
    terminals = draw(st.lists(st.sampled_from(graph.nodes), min_size=1, unique=True))
    host = HostGraph(graph=graph, terminals=tuple(terminals))
    profile = None
    if draw(st.booleans()):
        setting = draw(st.sampled_from(Setting))
        strategies = {}
        for agent in draw(st.lists(st.sampled_from(graph.nodes), unique=True)):
            offered = [
                e for e in graph.time_edges()
                if setting is Setting.GLOBAL or e.touches(agent)
            ]
            if offered:
                strategies[agent] = frozenset(draw(st.lists(st.sampled_from(offered))))
        profile = StrategyProfile(setting=setting, strategies=strategies)
    return InstanceFile(
        name=draw(_ID_TEXT),
        host=host,
        profile=profile,
        source=draw(st.none() | _ID_TEXT),
        default_label=draw(st.none() | st.integers(min_value=1, max_value=3)),
    )


@settings(max_examples=200, deadline=None)
@given(written_instances())
def test_the_writer_matches_the_json_encoder(inst):
    text = dumps_instance(inst)
    assert text == oracle_dumps_instance(inst)
    assert dumps_instance(loads_instance(text)) == text


@settings(max_examples=150, deadline=None)
@given(instance_files(), st.randoms(use_true_random=False))
def test_parse_and_label_groups_match_the_checked_constructor(inst, rng):
    want = TemporalGraph(inst.host.nodes, list(inst.host.time_edges()))
    graph = loads_instance(dumps_instance(inst)).host.graph
    assert graph == want
    assert hash(graph) == hash(want)
    assert list(graph.pairs()) == list(want.pairs())
    assert graph.label_groups() == group_by_label(graph.time_edges())
    assert want.label_groups() == group_by_label(want.time_edges())

    # Valid but non-canonical files parse to the same graph: keys shuffled,
    # label lists unsorted and with repeats.
    data = instance_to_dict(inst)
    items = list(data["host"]["edges"].items())
    rng.shuffle(items)
    data["host"]["edges"] = {
        key: rng.sample(labels + labels[:1], len(labels) + 1) for key, labels in items
    }
    shuffled = instance_from_dict(data).host.graph
    assert shuffled == want
    assert list(shuffled.pairs()) == list(want.pairs())
    assert shuffled.label_groups() == want.label_groups()


@st.composite
def parser_inputs(draw):
    """Instance dicts for the parser: a drawn instance file, sometimes with
    a profile in either setting, its edge keys sometimes shuffled and some
    label lists sometimes unsorted and with repeats."""
    inst = draw(instance_files())
    if draw(st.booleans()):
        setting = draw(st.sampled_from(Setting))
        strategies = {}
        for agent in draw(st.lists(st.sampled_from(inst.host.nodes), unique=True)):
            offered = [
                e for e in inst.host.time_edges()
                if setting is Setting.GLOBAL or e.touches(agent)
            ]
            if offered:
                strategies[agent] = frozenset(draw(st.lists(st.sampled_from(offered))))
        inst = dataclasses.replace(
            inst, profile=StrategyProfile(setting=setting, strategies=strategies)
        )
    data = instance_to_dict(inst)
    edges = list(data["host"]["edges"].items())
    if draw(st.booleans()):
        edges = draw(st.permutations(edges))
    if draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        edges = [
            (key, rng.sample(labels + labels[:1], len(labels) + 1))
            if rng.random() < 0.5 else (key, labels)
            for key, labels in edges
        ]
    data["host"]["edges"] = dict(edges)
    return data


@settings(max_examples=200, deadline=None)
@given(parser_inputs())
def test_the_parser_matches_the_per_key_oracle(data):
    want = oracle_instance_from_dict(data)
    got = instance_from_dict(data)
    assert got == want
    assert list(got.host.graph._labels) == list(want.host.graph._labels)
    assert dumps_instance(got) == dumps_instance(want)


@st.composite
def sweep_cases(draw):
    """A small host, a setting and a target realized graph: from
    ``two_terminal_ne``, from the direct-terminal profile, or a random
    minimal spanner (grown from shuffled host edges, then pruned in another
    random order), sometimes with one unneeded edge more."""
    n = draw(st.integers(min_value=2, max_value=6))
    kind = draw(st.sampled_from(["two-terminal", "direct", "random-spanning"]))
    k = 2 if kind == "two-terminal" else draw(st.integers(min_value=1, max_value=n))
    max_label = draw(st.sampled_from([2, 3, None]))
    host = random_host(n, k, draw(st.integers(0, 10_000)), max_label=max_label)
    mode = draw(st.sampled_from(list(Setting)))
    if kind == "two-terminal":
        return host, realized_graph(two_terminal_ne(host, mode), host), mode
    if kind == "direct":
        return host, realized_graph(direct_terminal_profile(host, mode), host), mode

    def spans(edges):
        return is_terminal_spanner(TemporalGraph(host.nodes, edges), host.terminals)

    pool = draw(st.permutations(host.sorted_time_edges))
    size = next(i for i in range(1, len(pool) + 1) if spans(pool[:i]))
    edges = list(pool[:size])
    for e in draw(st.permutations(edges)):
        rest = [x for x in edges if x != e]
        if spans(rest):
            edges = rest
    extra = draw(st.integers(min_value=0, max_value=1))
    return host, TemporalGraph(host.nodes, [*edges, *pool[size : size + extra]]), mode


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
def test_ownership_sweep_matches_the_unmemoized_oracle(case):
    host, target, mode = case
    budget = 200
    try:
        want = oracle_sweep_ownership(host, target, mode, budget=budget)
    except SearchTooLarge:
        with pytest.raises(SearchTooLarge):
            sweep_ownership(host, target, mode, budget=budget)
        return
    got = sweep_ownership(host, target, mode, budget=budget)
    assert got.total_assignments == want.total_assignments
    assert got.survivors == want.survivors
    assert got.equilibria == want.equilibria


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
def test_ownership_sweep_matches_the_product_loop(case):
    """The pruned walk returns what the product loop over every survivor
    returns: the same counts, the same refusal and the same equilibria in
    the same order."""
    host, target, mode = case
    budget = 5_000
    try:
        want = oracle_sweep_product(host, target, mode, budget=budget)
    except SearchTooLarge:
        with pytest.raises(SearchTooLarge):
            sweep_ownership(host, target, mode, budget=budget)
        return
    got = sweep_ownership(host, target, mode, budget=budget)
    assert got.total_assignments == want.total_assignments
    assert got.survivors == want.survivors
    assert got.equilibria == want.equilibria


@settings(max_examples=150, deadline=None)
@given(sweep_cases(), st.randoms(use_true_random=False))
def test_a_one_edge_owner_in_a_sweep_survivor_has_no_improving_response(case, rng):
    """The sweep settles owners of one edge without a search (``sweeps``
    module docstring). Up to 8 random survivors of the needer filter check
    that the search and its oracle both return no response, exactly, after
    0 states for every such owner."""
    host, target, mode = case
    assume(is_terminal_spanner(target, host.terminals))
    needers = edge_needers(target, host.terminals)
    edges = list(needers)
    choices = [
        [v for v in (e.pair if mode is Setting.LOCAL else host.nodes) if v in needers[e]]
        for e in edges
    ]
    assume(all(choices))
    none = SearchOutcome(response=None, exact=True, states_examined=0)
    for _ in range(8):
        strategies = {}
        for e, choice in zip(edges, choices):
            strategies.setdefault(rng.choice(choice), set()).add(e)
        profile = StrategyProfile(mode, strategies)
        for agent, own in profile.strategies.items():
            if len(own) == 1:
                assert find_improving_response(agent, profile, host) == none
                assert oracle_find_improving_response(agent, profile, host) == none


@st.composite
def greedy_cases(draw):
    """A random host (n <= 7) and a random profile in which agents may miss
    terminals, some edges are bought twice and global agents may buy edges
    far from themselves; half of the profiles are then run through the
    oracle's greedy dynamics."""
    n = draw(st.integers(min_value=2, max_value=7))
    host = random_host(
        n,
        draw(st.integers(min_value=1, max_value=n)),
        draw(st.integers(min_value=0, max_value=2**16)),
        max_label=draw(st.sampled_from([None, 2, 3])),
        extra_label_prob=draw(st.sampled_from([0.0, 0.3])),
    )
    setting = draw(st.sampled_from(list(Setting)))
    rng = draw(st.randoms(use_true_random=False))
    strategies = {}
    for v in host.nodes:
        density = rng.choice([0.0, 0.05, 0.15, 0.3, 0.5])
        strategies[v] = {
            e
            for e in host.sorted_time_edges
            if (setting is Setting.GLOBAL or e.touches(v)) and rng.random() < density
        }
    for v in host.nodes:
        # Buy a copy of another agent's edge now and then.
        if rng.random() < 0.25:
            shared = sorted(
                e
                for agent, edges in strategies.items()
                if agent != v
                for e in edges
                if setting is Setting.GLOBAL or e.touches(v)
            )
            if shared:
                strategies[v].add(rng.choice(shared))
    profile = StrategyProfile(setting, strategies)
    if draw(st.booleans()):
        # Mostly greedy equilibria, where every remove must fail.
        profile, _, _ = oracle_greedy_dynamics(profile, host, 10)
    return host, profile


@settings(max_examples=200, deadline=None)
@given(greedy_cases())
def test_greedy_checks_match_the_per_edge_oracle(case):
    host, profile = case
    for v in host.nodes:
        assert greedy_improving_response(
            v, profile, host
        ) == oracle_greedy_improving_response(v, profile, host)
    report = is_greedy_equilibrium(profile, host)
    assert report.is_equilibrium == oracle_is_ge(profile, host)
    witness = oracle_greedy_witness(profile, host)
    if witness is None:
        assert report.witness is None
    else:
        assert (report.witness.agent, report.witness.strategy) == witness
    result = greedy_dynamics(profile, host, max_rounds=4)
    assert (result.profile, result.converged, result.rounds) == oracle_greedy_dynamics(
        profile, host, 4
    )


@settings(max_examples=150, deadline=None)
@given(greedy_cases())
def test_others_groups_match_the_other_agents_edges(case):
    host, profile = case
    is_greedy_equilibrium(profile, host)
    index = _realized_index(profile, host)
    # The check above left its index on the profile; an equal profile
    # without one builds the same index afresh.
    assert index == _realized_index(copy.copy(profile), host)
    for v in host.nodes:
        assert _others_groups(index, profile.strategy(v)) == group_by_label(
            oracle_other_edges(profile, v)
        )


@settings(max_examples=150, deadline=None)
@given(greedy_cases(), st.randoms(use_true_random=False))
def test_one_edge_update_matches_a_rebuild(case, rng):
    host, profile = case
    index = _realized_index(profile, host)
    before = copy.deepcopy(index)
    before_without = {e: copy.deepcopy(index.without(e)) for e in index.bought}
    # Dynamics derive each profile's index from its parent's, the first
    # parent being the caller's profile, whose index they must not touch.
    result = greedy_dynamics(profile, host, max_rounds=4)
    assert (result.profile, result.converged, result.rounds) == oracle_greedy_dynamics(
        profile, host, 4
    )
    assert _realized_index(profile, host) is index
    assert index == before
    assert {e: index.without(e) for e in index.bought} == before_without
    assert _realized_index(result.profile, host) == _realized_index(
        copy.copy(result.profile), host
    )
    # Random single-edge moves, valid but not necessarily improving.
    for _ in range(12):
        v = rng.choice(host.nodes)
        own = profile.strategy(v)
        kind = rng.choice(["add", "add a bought edge", "remove", "remove a shared edge"])
        if kind == "remove":
            options = sorted(own)
        elif kind == "remove a shared edge":
            options = sorted(own & index.shared)
        else:
            options = [
                e
                for e in host.sorted_time_edges
                if e not in own
                and (profile.setting is Setting.GLOBAL or e.touches(v))
                and (kind == "add" or e in index.bought)
            ]
        if not options:
            continue
        e = rng.choice(options)
        child = profile.with_strategy(v, own ^ {e})
        if rng.random() < 0.5:
            index.without  # a parent with its removal masks built
        else:
            index = dataclasses.replace(index)  # one without
        with mock.patch.object(
            tempo_ncg.game, "group_by_label", wraps=group_by_label
        ) as regroup:
            moved = index.moved(child, e)
        fresh = _realized_index(copy.copy(child), host)
        assert moved == fresh
        # A move that only changes who buys a still-bought edge keeps the
        # graph: it neither regroups nor drops what the parent has cached.
        ownership_only = (e in index.bought) == (e in fresh.bought)
        assert regroup.call_count == (0 if ownership_only else 1)
        for cached in ("masks", "without"):
            if ownership_only and cached in vars(index):
                assert vars(moved)[cached] is vars(index)[cached]
        assert all(moved.without(x) == fresh.without(x) for x in fresh.bought)
        assert moved.masks == fresh.masks
        profile, index = child, moved


@st.composite
def nash_cases(draw, max_n=7):
    """A random host (n <= ``max_n``) and a profile for the Nash check:
    ``two_terminal_ne`` in either setting, or a random profile as in
    ``greedy_cases`` that may also buy a pair at two labels. Half of the
    random profiles then go through greedy dynamics, which leaves many
    one-edge buyers that need their edge."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    two_terminal = draw(st.booleans())
    host = random_host(
        n,
        2 if two_terminal else draw(st.integers(min_value=1, max_value=n)),
        draw(st.integers(min_value=0, max_value=2**16)),
        max_label=draw(st.sampled_from([None, 2, 3])),
        extra_label_prob=draw(st.sampled_from([0.0, 0.3])),
    )
    setting = draw(st.sampled_from(list(Setting)))
    if two_terminal:
        return host, two_terminal_ne(host, setting)
    rng = draw(st.randoms(use_true_random=False))
    strategies = {}
    for v in host.nodes:
        density = rng.choice([0.0, 0.05, 0.15, 0.3])
        strategies[v] = {
            e
            for e in host.sorted_time_edges
            if (setting is Setting.GLOBAL or e.touches(v)) and rng.random() < density
        }
    for v in host.nodes:
        # Buy another agent's pair now and then, at its label or another.
        if rng.random() < 0.25:
            pool = sorted(
                e
                for agent, edges in strategies.items()
                if agent != v
                for e in edges
                if setting is Setting.GLOBAL or e.touches(v)
            )
            if pool:
                e = rng.choice(pool)
                strategies[v].add(TimeEdge(e.u, e.v, rng.choice(host.labels(e.u, e.v))))
    profile = StrategyProfile(setting, strategies)
    if draw(st.booleans()):
        profile = greedy_dynamics(profile, host, max_rounds=10).profile
    return host, profile


def _two_terminal_core_case(labels, setting):
    """``two_terminal_ne`` on the smallest host of one core (the four
    ``test_two_terminal_core_on_its_smallest_host`` hosts)."""
    edges = [TimeEdge(a, b, label) for (a, b), label in labels.items()]
    nodes = sorted({*"".join(labels)})
    host = validate_and_normalize_host(TemporalGraph(nodes, edges), ("a", "b"))
    return host, two_terminal_ne(host, setting)


_CORE_HOSTS = {
    "pair": {"ab": 1},
    "tie": {"ab": 1, "ac": 2, "bc": 2},
    "bridge": {"ab": 1, "ac": 2, "bc": 3},
    # The ring's four core edges are one-edge buys that are not bridges.
    "ring": {"ab": 1, "ac": 1, "ad": 3, "bc": 2, "bd": 2, "cd": 2},
}


def assert_the_nash_check_matches_the_per_buyer_oracle(case):
    host, profile = case
    for budget in (None, 1, 3):
        want = oracle_is_nash_equilibrium(copy.copy(profile), host, budget=budget)
        assert is_nash_equilibrium(copy.copy(profile), host, budget=budget) == want


@settings(max_examples=200, deadline=None)
@given(nash_cases())
@example(_two_terminal_core_case(_CORE_HOSTS["pair"], Setting.GLOBAL))
@example(_two_terminal_core_case(_CORE_HOSTS["tie"], Setting.LOCAL))
@example(_two_terminal_core_case(_CORE_HOSTS["bridge"], Setting.GLOBAL))
@example(_two_terminal_core_case(_CORE_HOSTS["ring"], Setting.LOCAL))
@example(_two_terminal_core_case(_CORE_HOSTS["ring"], Setting.GLOBAL))
def test_the_nash_check_matches_the_per_buyer_oracle(case):
    """Same report (verdict, witness, states, exhausted agents and
    certificates) as searching every buyer, with and without a budget."""
    assert_the_nash_check_matches_the_per_buyer_oracle(case)


@pytest.mark.slow
@settings(max_examples=2000, deadline=None)
@given(nash_cases(max_n=12))
def test_the_nash_check_matches_the_per_buyer_oracle_on_larger_hosts(case):
    assert_the_nash_check_matches_the_per_buyer_oracle(case)


@settings(max_examples=150, deadline=None)
@given(greedy_cases())
def test_necessary_terminals_match_reach_without_the_edge(case):
    host, profile = case
    for v in host.nodes:
        own = profile.strategy(v)
        before = oracle_reach(realized_graph(profile, host), v)
        for e in own:
            without = profile.with_strategy(v, own - {e})
            after = oracle_reach(realized_graph(without, host), v)
            want = {t for t in host.terminals if t in before and t not in after}
            assert necessary_terminals(e, v, profile, host) == want


@st.composite
def forbidden_cases(draw):
    """A random host (4 <= n <= 7) and a random local profile whose realized
    graph is simple: each bought pair carries one label, bought by one end
    or by both."""
    n = draw(st.integers(min_value=4, max_value=7))
    host = random_host(
        n,
        draw(st.integers(min_value=1, max_value=n)),
        draw(st.integers(min_value=0, max_value=2**16)),
        max_label=draw(st.sampled_from([None, 2, 3])),
        extra_label_prob=0.3,
    )
    rng = draw(st.randoms(use_true_random=False))
    density = rng.choice([0.3, 0.5, 0.8])
    strategies = {v: set() for v in host.nodes}
    for u, v in _pairs(host.nodes):
        if rng.random() < density:
            e = TimeEdge(u, v, rng.choice(host.labels(u, v)))
            for owner in rng.choice([(u,), (v,), (u, v)]):
                strategies[owner].add(e)
    return host, StrategyProfile(Setting.LOCAL, strategies)


@settings(max_examples=150, deadline=None)
@given(forbidden_cases(), st.integers(min_value=0, max_value=2**16))
def test_forbidden_structure_scan_matches_the_nested_loop_oracle(case, salt):
    """Same first witness (or None) as the nested loops, with the real
    necessary-terminal sets and with a seeded hash standing in for them."""
    host, profile = case

    def hashed(e, buyer, *_profile_and_host):
        return frozenset(
            t
            for t in host.terminals
            if zlib.crc32(f"{salt}|{e.u}|{e.v}|{e.label}|{buyer}|{t}".encode()) % 3
        )

    assert find_forbidden_structure(profile, host) == oracle_find_forbidden_structure(
        profile, host
    )
    # Hypothesis rejects function-scoped fixtures such as monkeypatch, so the
    # hashed stand-in is patched in for the second scan by hand.
    with mock.patch.object(tempo_ncg.game, "necessary_terminals", hashed):
        assert find_forbidden_structure(
            profile, host
        ) == oracle_find_forbidden_structure(profile, host, hashed)
