import ast
import pickle
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tempo_ncg
from tempo_ncg import (
    HostGraph,
    IncompleteHost,
    InstanceFile,
    NoTerminals,
    NotASpanner,
    TemporalGraph,
    TimeEdge,
    UnknownNode,
    connected_components,
    dense_cycle_instance,
    dumps_instance,
    earliest_arrivals,
    edge_needers,
    is_minimal_terminal_spanner,
    is_terminal_spanner,
    loads_instance,
    prune_to_minimal,
    random_host,
    reach_set,
    realized_graph,
    validate_and_normalize_host,
)
from tempo_ncg.core import (
    group_by_label,
    label_reach_masks,
    reach_masks,
    removal_masks,
    static_bridges,
    terminal_bits,
)
from tempo_ncg.fixtures import fig4_instance, fig5_left_instance, fig5_right_instance

from oracles import brute_force_arrivals, call_under_a_low_recursion_limit


def edge(u, v, label):
    return TimeEdge(u, v, label)


# --- the export surface -----------------------------------------------------


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from tempo_ncg import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(tempo_ncg.__all__)
    assert len(set(tempo_ncg.__all__)) == len(tempo_ncg.__all__) == 90
    for name in tempo_ncg.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(tempo_ncg, name), types.ModuleType)


def test_no_module_imports_a_name_it_never_reads():
    """A deletion that leaves an import behind fails here. ``__init__.py``
    imports in order to export; every other module must read each name it
    imports (the modules defer annotations, which still parse to names)."""
    unused = []
    for path in sorted(Path(tempo_ncg.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {n}" for n in names if n not in read]
    assert unused == []


# --- TimeEdge ---------------------------------------------------------------


def test_time_edge_canonicalizes_endpoints():
    e = edge("b", "a", 3)
    assert (e.u, e.v) == ("a", "b")
    assert e == edge("a", "b", 3)
    assert e.pair == ("a", "b")
    assert e.touches("a") and e.touches("b") and not e.touches("c")
    assert e.other("a") == "b"
    assert str(e) == "(a,b)@3"


def test_time_edge_rejects_bad_input():
    with pytest.raises(ValueError):
        edge("a", "a", 1)
    with pytest.raises(ValueError):
        edge("a", "b", 0)
    with pytest.raises(ValueError):
        edge("a", "b", True)
    with pytest.raises(UnknownNode):
        edge("a", "b", 1).other("c")


def test_time_edges_order_by_pair_then_label():
    edges = [edge("a", "c", 1), edge("a", "b", 9), edge("a", "b", 2)]
    assert sorted(edges) == [edge("a", "b", 2), edge("a", "b", 9), edge("a", "c", 1)]


# --- TemporalGraph ----------------------------------------------------------


def test_temporal_graph_merges_duplicate_labels():
    g = TemporalGraph("ba", [edge("a", "b", 2), edge("b", "a", 2), edge("a", "b", 1)])
    assert g.nodes == ("a", "b")
    assert g.labels("b", "a") == (1, 2)
    assert g.time_edge_count == 2
    assert g.static_edge_count == 1
    assert g.lifetime == 2
    assert not g.is_simple
    assert g.has_time_edge(edge("a", "b", 1))
    assert not g.has_time_edge(edge("a", "b", 3))


def test_temporal_graph_rejects_foreign_edge_endpoints():
    with pytest.raises(UnknownNode):
        TemporalGraph(["a", "b"], [edge("a", "c", 1)])
    with pytest.raises(UnknownNode):
        TemporalGraph(["a", "b"]).labels("a", "c")


@pytest.mark.parametrize(
    "nodes", [["a", 1], ["a", None], [1, 2], ["a", ""]], ids=["int", "none", "ints", "empty"]
)
def test_temporal_graph_rejects_ids_that_are_not_nonempty_strings(nodes):
    with pytest.raises(UnknownNode, match="node ids must be nonempty strings"):
        TemporalGraph(nodes)


def test_with_and_without_time_edge():
    g = TemporalGraph(["a", "b", "c"], [edge("a", "b", 1)])
    g2 = g.with_time_edges([edge("b", "c", 2)])
    assert g2.time_edge_count == 2
    assert g.time_edge_count == 1  # immutable
    g3 = g2.without_time_edge(edge("b", "c", 2))
    assert g3 == g
    assert hash(g3) == hash(g)
    with pytest.raises(UnknownNode):
        g.without_time_edge(edge("b", "c", 2))


def test_relabel_nodes_keeps_structure():
    g = TemporalGraph(["a", "b"], [edge("a", "b", 4)])
    h = g.relabel_nodes({"a": "x", "b": "y"})
    assert h.nodes == ("x", "y")
    assert h.labels("x", "y") == (4,)


# --- normalization ----------------------------------------------------------


def test_normalize_collapses_single_label():
    g = TemporalGraph(["a", "b"], [edge("a", "b", 7)])
    host = validate_and_normalize_host(g, ["a", "b"])
    assert host.labels("a", "b") == (1,)
    assert host.lifetime == 1


def test_normalize_closes_label_gaps():
    g = TemporalGraph(
        ["a", "b", "c"],
        [edge("a", "b", 1), edge("a", "c", 3), edge("b", "c", 3)],
    )
    host = validate_and_normalize_host(g, ["a"])
    assert host.labels("a", "b") == (1,)
    assert host.labels("a", "c") == (2,)
    assert host.labels("b", "c") == (2,)


def test_normalize_is_identity_on_gap_free_host():
    host = fig4_instance().host
    again = validate_and_normalize_host(host.graph, host.terminals)
    assert again.graph == host.graph
    assert again.terminals == host.terminals


def test_validate_rejects_bad_hosts():
    complete = TemporalGraph(["a", "b"], [edge("a", "b", 1)])
    with pytest.raises(NoTerminals):
        validate_and_normalize_host(complete, [])
    with pytest.raises(UnknownNode):
        validate_and_normalize_host(complete, ["z"])
    holey = TemporalGraph(["a", "b", "c"], [edge("a", "b", 1)])
    with pytest.raises(IncompleteHost):
        validate_and_normalize_host(holey, ["a"])


def test_host_min_label_and_terminal_set():
    host = fig4_instance().host
    assert host.min_label("v1", "v3") == 1
    assert host.terminal_set == frozenset({"v1", "v2", "v3", "v4"})
    with pytest.raises(IncompleteHost):
        host.min_label("v1", "v1")


def test_host_pickles_after_its_cached_properties_are_computed():
    host = fig4_instance().host
    cached = (host.terminal_set, host.sorted_time_edges, host.lifetime)
    again = pickle.loads(pickle.dumps(host))
    assert again == host
    assert (again.terminal_set, again.sorted_time_edges, again.lifetime) == cached


# --- earliest arrivals ------------------------------------------------------


def test_arrivals_single_node():
    g = TemporalGraph(["s"])
    arrivals = earliest_arrivals(g, "s")
    assert dict(arrivals.arrival) == {"s": 0}
    assert arrivals.path_to("s") == ()


def test_arrivals_unknown_source():
    with pytest.raises(UnknownNode):
        earliest_arrivals(TemporalGraph(["a"]), "b")


def test_arrivals_pinned_on_right_fixture():
    inst = fig5_right_instance()
    g = realized_graph(inst.profile, inst.host)
    assert g.time_edge_count == 8
    arrivals = earliest_arrivals(g, "v1")
    assert {n: arrivals.arrival_of(n) for n in g.nodes} == {
        "v1": 0, "v2": 1, "v3": 2, "v4": 2, "v5": 2, "v6": 2,
    }


def test_arrivals_chain_equal_labels():
    # v2 -> v4 -> v1 rides two label-1 edges back to back.
    inst = fig5_left_instance()
    g = realized_graph(inst.profile, inst.host)
    arrivals = earliest_arrivals(g, "v2")
    assert arrivals.arrival_of("v1") == 1
    assert [e.label for e in arrivals.path_to("v1")] == [1, 1]


def test_arrivals_unique_dense_cycle_path():
    inst = dense_cycle_instance(2)
    arrivals = earliest_arrivals(inst.cycle_graph, "v00.00")
    assert arrivals.arrival_of("v02.00") == 2
    path = arrivals.path_to("v02.00")
    assert [e.label for e in path] == [1, 2]
    assert path[0].touches("w01.00") and path[1].touches("w01.00")


@pytest.mark.parametrize(
    "make", [fig4_instance, fig5_left_instance, fig5_right_instance]
)
def test_arrivals_match_brute_force(make):
    inst = make()
    for graph in (inst.host.graph, realized_graph(inst.profile, inst.host)):
        for source in graph.nodes:
            got = earliest_arrivals(graph, source)
            assert dict(got.arrival) == brute_force_arrivals(graph, source)


def test_path_reconstruction_is_temporal():
    inst = fig5_right_instance()
    g = realized_graph(inst.profile, inst.host)
    arrivals = earliest_arrivals(g, "v3")
    for target in arrivals.reached - {"v3"}:
        path = arrivals.path_to(target)
        at = "v3"
        last = 0
        for e in path:
            assert e.touches(at)
            assert e.label >= last
            at, last = e.other(at), e.label
        assert at == target
        assert last == arrivals.arrival_of(target)
    with pytest.raises(ValueError):
        earliest_arrivals(TemporalGraph(["a", "b"]), "a").path_to("b")


@pytest.mark.parametrize("seed", range(3))
def test_label_groups_build_no_time_edge(monkeypatch, seed):
    # The groups come from the pair map as canonical pairs, so a freshly
    # parsed graph fills its cache without one trusted time edge.
    inst = InstanceFile(name="random", host=random_host(10, 3, seed))
    graph = loads_instance(dumps_instance(inst)).host.graph
    calls = []
    real = tempo_ncg.core._trusted_edge

    def counted(u, v, label):
        calls.append((u, v, label))
        return real(u, v, label)

    monkeypatch.setattr(tempo_ncg.core, "_trusted_edge", counted)
    groups = graph.label_groups()
    assert calls == []
    assert groups == group_by_label(graph.time_edges())
    assert len(calls) == graph.time_edge_count == 45


# --- reach sets -------------------------------------------------------------


def test_reach_edgeless():
    g = TemporalGraph(["a", "b"])
    assert reach_set(g, "a") == {"a"}


def test_reach_blue_subgraph():
    inst = fig4_instance()
    blue = realized_graph(inst.profile, inst.host)
    assert reach_set(blue, "v3") == {"v1", "v2", "v3", "v4"}
    # Dropping (v2,v3)@4 strands v3: its only remaining start is (v3,v4)@3.
    cut = blue.without_time_edge(edge("v2", "v3", 4))
    assert reach_set(cut, "v3") == {"v3", "v4"}


def test_label_reach_masks_leave_the_start_masks_alone():
    # Label 3 lies above every group and carries no edge, so its snapshot
    # holds the start masks: a copy of them, not the caller's dict.
    g = TemporalGraph(["a", "b", "c"], [edge("a", "b", 1), edge("b", "c", 2)])
    bits = terminal_bits(g.nodes, ["a", "c"])
    before = dict(bits)
    masks = label_reach_masks(g.label_groups(), bits, {3})
    assert masks == {
        3: before,
        2: {"a": 1, "b": 2, "c": 2},
        1: {"a": 3, "b": 3, "c": 2},
    }
    assert all(snapshot is not bits for snapshot in masks.values())
    masks[3]["a"] = 7
    assert bits == before


# --- spanner predicates -----------------------------------------------------


def test_star_is_terminal_spanner():
    center = "v"
    leaves = ["a", "b", "c"]
    g = TemporalGraph([center, *leaves], [edge(l, center, 1) for l in leaves])
    assert is_terminal_spanner(g, [center])
    # Equal labels chain, so the label-1 star even spans for every terminal.
    assert is_terminal_spanner(g, [center, *leaves])
    late = TemporalGraph([center, *leaves], [edge("a", center, 1), edge("b", center, 2), edge("c", center, 2)])
    assert is_terminal_spanner(late, [center])
    assert not is_terminal_spanner(late, [center, "a"])  # b arrives at v too late


def test_spanner_rejects_bad_terminals():
    g = TemporalGraph(["a"])
    with pytest.raises(NoTerminals):
        is_terminal_spanner(g, [])
    with pytest.raises(UnknownNode):
        is_terminal_spanner(g, ["missing"])


def test_dense_cycle_spanner_needs_bag_paths():
    inst = dense_cycle_instance(2)
    everyone = inst.host.terminals
    assert is_terminal_spanner(inst.connected_graph, everyone)
    assert not is_terminal_spanner(inst.cycle_graph, everyone)


def test_uniform_spanning_tree_is_minimal():
    g = TemporalGraph(
        ["a", "b", "c", "d"],
        [edge("a", "b", 1), edge("b", "c", 1), edge("c", "d", 1)],
    )
    minimal, witness = is_minimal_terminal_spanner(g, ["a", "b", "c", "d"])
    assert minimal and witness is None


def test_blue_subgraph_minimal_and_extension_not():
    inst = fig4_instance()
    blue = realized_graph(inst.profile, inst.host)
    assert is_minimal_terminal_spanner(blue, inst.host.terminals) == (True, None)
    fat = blue.with_time_edges([edge("v1", "v3", 1)])
    minimal, witness = is_minimal_terminal_spanner(fat, inst.host.terminals)
    assert not minimal
    # The shortcut edge leaves several edges droppable; the witness must be one.
    assert witness is not None
    assert is_terminal_spanner(fat.without_time_edge(witness), inst.host.terminals)
    assert is_terminal_spanner(
        fat.without_time_edge(edge("v1", "v3", 1)), inst.host.terminals
    )


def test_minimality_requires_spanner_input():
    g = TemporalGraph(["a", "b"])
    with pytest.raises(NotASpanner):
        is_minimal_terminal_spanner(g, ["a", "b"])


def test_needers_map_every_edge_and_reject_an_unknown_terminal():
    g = TemporalGraph(["a", "b", "c"], [edge("a", "b", 1), edge("b", "c", 2)])
    assert edge_needers(g, ["c"]) == {
        edge("a", "b", 1): ("a",),
        edge("b", "c", 2): ("a", "b"),
    }
    with pytest.raises(UnknownNode):
        edge_needers(g, ["c", "d"])


@pytest.mark.parametrize(
    "check",
    [is_terminal_spanner, is_minimal_terminal_spanner, prune_to_minimal, edge_needers],
)
@pytest.mark.parametrize("extra", [(), (edge("v1", "v3", 1),)], ids=["blue", "fat"])
def test_one_shot_terminals_give_the_list_answer(check, extra):
    # A terminal iterator may be read only once, though some checks pass
    # their terminals on to a second one.
    inst = fig4_instance()
    graph = realized_graph(inst.profile, inst.host).with_time_edges(extra)
    terminals = list(inst.host.terminals)
    assert check(graph, iter(terminals)) == check(graph, terminals)


# --- static components ------------------------------------------------------


def test_connected_components_sorted_by_min_member():
    comps = connected_components(
        ["a", "b", "c", "d", "e"], [("d", "e"), ("a", "c")]
    )
    assert comps == [frozenset({"a", "c"}), frozenset({"b"}), frozenset({"d", "e"})]


# --- static bridges ---------------------------------------------------------


def bridges_of(graph, terminals):
    return static_bridges(graph.label_groups(), terminal_bits(graph.nodes, terminals))


def test_every_edge_of_a_path_is_a_bridge():
    g = TemporalGraph("abcd", [edge("a", "b", 2), edge("b", "c", 1), edge("c", "d", 3)])
    order, bridges = bridges_of(g, ["a", "d"])
    assert order == {"a": 0, "b": 1, "c": 2, "d": 3}
    # Each far subtree holds ``d`` (bit 2) and none holds ``a`` (bit 1).
    assert bridges == {
        ("a", "b"): (1, 4, 2),
        ("b", "c"): (2, 4, 2),
        ("c", "d"): (3, 4, 2),
    }


def test_a_star_walked_from_a_leaf_has_every_edge_as_a_bridge():
    g = TemporalGraph("abcd", [edge("a", "c", 1), edge("b", "c", 2), edge("c", "d", 1)])
    order, bridges = bridges_of(g, ["a", "b", "d"])
    # Neighbours are walked in label order: ``d`` (label 1) before ``b``.
    assert order == {"a": 0, "c": 1, "d": 2, "b": 3}
    assert bridges == {
        ("a", "c"): (1, 4, 0b110),
        ("c", "d"): (2, 3, 0b100),
        ("b", "c"): (3, 4, 0b010),
    }


def test_a_cycle_has_no_bridge():
    g = TemporalGraph("abc", [edge("a", "b", 1), edge("b", "c", 2), edge("a", "c", 3)])
    order, bridges = bridges_of(g, ["a"])
    assert sorted(order.values()) == [0, 1, 2]
    assert bridges == {}


def test_a_pair_with_two_labels_is_never_a_bridge():
    g = TemporalGraph("abc", [edge("a", "b", 1), edge("a", "b", 2), edge("b", "c", 3)])
    _, bridges = bridges_of(g, ["c"])
    assert bridges == {("b", "c"): (2, 3, 1)}


def test_a_disconnected_graph_numbers_every_node():
    g = TemporalGraph("abcde", [edge("a", "b", 1), edge("d", "e", 1)])
    order, bridges = bridges_of(g, ["b", "e"])
    assert order == {"a": 0, "b": 1, "c": 2, "d": 3, "e": 4}
    assert bridges == {("a", "b"): (1, 2, 1), ("d", "e"): (4, 5, 2)}


@st.composite
def sparse_graphs_with_terminals(draw):
    """A graph on 1 to 8 nodes whose pairs carry 0, 1 or 2 labels, sparse
    enough to hold bridges and other components, and some of its nodes as
    terminals."""
    n = draw(st.integers(min_value=1, max_value=8))
    nodes = tuple(f"n{i}" for i in range(n))
    rng = draw(st.randoms(use_true_random=False))
    density = rng.choice([0.15, 0.3, 0.5])
    edges = [
        edge(u, v, label)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
        if rng.random() < density
        for label in rng.sample(range(1, 5), rng.choice([1, 1, 2]))
    ]
    terminals = draw(st.sets(st.sampled_from(nodes)))
    return TemporalGraph(nodes, edges), sorted(terminals)


@settings(max_examples=200, deadline=None)
@given(sparse_graphs_with_terminals())
def test_a_bridge_leaves_each_node_the_reach_on_its_own_side(case):
    """For every reported bridge and every node ``x``, the reach mask of
    ``x`` cut to ``x``'s side of the bridge is its reach mask without the
    bridge; and a one-label pair is reported exactly when removing it splits
    a static component."""
    graph, terminals = case
    bits = terminal_bits(graph.nodes, terminals)
    groups = graph.label_groups()
    order, bridges = static_bridges(groups, bits)
    assert sorted(order.values()) == list(range(graph.node_count))
    masks = reach_masks(groups, bits)
    without = removal_masks(groups, bits)
    pairs = list(graph.pairs())
    count = len(connected_components(graph.nodes, pairs))
    for u, v in pairs:
        labels = graph.labels(u, v)
        rest = [pair for pair in pairs if pair != (u, v)]
        splits = len(connected_components(graph.nodes, rest)) > count
        splits = splits and len(labels) == 1
        assert ((u, v) in bridges) == splits
        if not splits:
            continue
        lo, hi, below = bridges[(u, v)]
        assert (lo <= order[u] < hi) != (lo <= order[v] < hi)
        assert below == sum(bits[x] for x in graph.nodes if lo <= order[x] < hi)
        cut = without(edge(u, v, labels[0]))
        for x in graph.nodes:
            side = below if lo <= order[x] < hi else ~below
            assert masks[x] & side == cut[x]


def test_bridges_of_a_long_path_need_no_recursion():
    nodes = [f"v{i:04d}" for i in range(5000)]
    g = TemporalGraph(nodes, [edge(a, b, 1) for a, b in zip(nodes, nodes[1:])])
    groups, bits = g.label_groups(), terminal_bits(nodes, nodes[-1:])
    order, bridges = call_under_a_low_recursion_limit(static_bridges, groups, bits)
    assert order == {node: i for i, node in enumerate(nodes)}
    path = zip(nodes, nodes[1:])
    assert bridges == {(a, b): (i + 1, 5000, 1) for i, (a, b) in enumerate(path)}
