"""Minimum terminal spanners, minimality pruning, and equilibria from them.

The social optimum of the edge-buying game is a minimum-cardinality terminal
spanner of the host: zero unreached terminals at the fewest bought edges.
Every terminal spanner needs at least n - 1 time edges, because each node
must be statically connected to the terminals. A spanning tree on a single
label matches that bound whenever one exists (inside one label group,
arrivals chain transitively), which settles many instances without any
enumeration; the rest run an exact cardinality-ascending subset search behind
explicit budgets.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass

from .core import (
    HostGraph,
    NodeId,
    TemporalGraph,
    TimeEdge,
    bounded_subsets,
    group_by_label,
    is_terminal_spanner,
    iter_needers,
    kruskal,
    spans_terminals,
    terminal_bits,
)
from .errors import NotASpanner, NotMinimal, SearchTooLarge
from .game import Setting, StrategyProfile


@dataclass(frozen=True)
class SpannerSearchConfig:
    """Budgets for the exact optimum search.

    The search refuses to run past either budget rather than silently
    truncating, so a returned graph is always a proven optimum.
    """

    max_candidate_edges: int = 20
    max_subsets: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_candidate_edges < 1 or self.max_subsets < 1:
            raise ValueError("search budgets must be positive")


def mono_label_spanning_tree(host: HostGraph) -> TemporalGraph | None:
    """Spanning tree using a single label, if some label class connects V.

    Such a tree is a terminal spanner with exactly n - 1 time edges (within
    one label group every node reaches every other), meeting the universal
    lower bound; its existence settles the optimum without enumeration. Scans
    labels ascending with one Kruskal pass per label group, which keeps n - 1
    edges (the canonical tree) exactly when the label connects V.
    """
    for _, edges in host.graph.label_groups():
        joined, _ = kruskal(host.nodes, (e.pair for e in edges))
        kept = list(itertools.compress(edges, joined))
        if len(kept) == host.node_count - 1:
            return TemporalGraph(host.nodes, kept)
    return None


def min_terminal_spanner(
    host: HostGraph, config: SpannerSearchConfig | None = None
) -> TemporalGraph:
    """Exact minimum-cardinality terminal spanner of a host.

    Returns a one-label spanning tree directly when some label class connects
    all nodes (n - 1 edges, provably optimal). Otherwise enumerates host
    time-edge subsets by ascending cardinality starting at n - 1 and returns
    the first terminal spanner found, which is the lexicographically least
    optimum. Each subset is tested by one backward sweep over its label
    groups, and only the winner becomes a graph.

    Raises:
        SearchTooLarge: the host has more candidate edges or subsets than the
            configured budgets allow; callers fall back to bounds.
    """
    if config is None:
        config = SpannerSearchConfig()
    tree = mono_label_spanning_tree(host)
    if tree is not None:
        return tree
    pool = host.sorted_time_edges
    if len(pool) > config.max_candidate_edges:
        raise SearchTooLarge(
            f"{len(pool)} candidate edges exceed the budget of "
            f"{config.max_candidate_edges}"
        )
    sizes = range(host.node_count - 1, len(pool) + 1)
    bits = terminal_bits(host.nodes, host.terminals)
    for combo in bounded_subsets(pool, sizes, config.max_subsets):
        if spans_terminals(group_by_label(combo), bits):
            return TemporalGraph(host.nodes, combo)
    raise AssertionError("internal error: a complete host is its own spanner")


def prune_to_minimal(
    graph: TemporalGraph, terminals: Iterable[NodeId]
) -> TemporalGraph:
    """Drop removable time edges in one pass over the canonical edge order.

    An edge is dropped when no node needs it in the graph pruned so far (one
    sweep per edge). The result is an inclusion-minimal terminal spanner
    (minimal inputs come back unchanged), the same one as from dropping the
    first removable edge and rescanning until none is left: removal only
    shrinks reachability, so an edge found needed stays needed in every
    smaller spanner.

    Raises:
        NotASpanner: input does not reach every terminal from every node.
    """
    terminal_set = frozenset(terminals)
    if not is_terminal_spanner(graph, terminal_set):
        raise NotASpanner("input graph does not reach all terminals from all nodes")
    by_label = {label: list(edges) for label, edges in graph.label_groups()}
    bits = terminal_bits(graph.nodes, terminal_set)
    for edge in graph.time_edges():
        edges = by_label[edge.label]
        at = edges.index(edge)
        del edges[at]
        if not spans_terminals(by_label.items(), bits):
            edges.insert(at, edge)
    return TemporalGraph(graph.nodes, itertools.chain.from_iterable(by_label.values()))


def ge_from_minimal_spanner(
    graph: TemporalGraph, host: HostGraph
) -> StrategyProfile:
    """Assign each spanner edge to the first node that needs it.

    A node needs an edge when removing it costs the node some terminal. On an
    inclusion-minimal terminal spanner every edge has a needer, and the
    resulting single-owner global profile is a greedy equilibrium: owners
    cannot drop a needed edge, and adds never help an agent that already
    reaches every terminal.

    Raises:
        NotASpanner: ``graph`` is not a terminal spanner of the host.
        NotMinimal: some edge has no needer, i.e. the spanner is not
            inclusion-minimal.
    """
    terminal_set = host.terminal_set
    if not is_terminal_spanner(graph, terminal_set):
        raise NotASpanner("input graph does not reach all terminals from all nodes")
    strategies: dict[NodeId, set[TimeEdge]] = {}
    for edge in graph.time_edges():
        needer = next(iter_needers(graph, edge, terminal_set), None)
        if needer is None:
            raise NotMinimal(
                f"{edge} is removable, so the spanner is not inclusion-minimal"
            )
        strategies.setdefault(needer, set()).add(edge)
    profile = StrategyProfile(setting=Setting.GLOBAL, strategies=strategies)
    profile.validate(host)
    return profile
