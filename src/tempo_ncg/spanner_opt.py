"""Minimum terminal spanners, minimality pruning, and equilibria from them.

The social optimum of the edge-buying game is a minimum-cardinality terminal
spanner of the host: zero unreached terminals at the fewest bought edges.
Every terminal spanner needs at least n - 1 time edges, because each node
must be statically connected to the terminals. A spanning tree on a single
label matches that bound whenever one exists (inside one label group,
arrivals chain transitively), which settles many instances without any
enumeration; only labels with n - 1 or more host pairs are tried. The rest
take the first spanner from :func:`terminal_spanners`, the one budgeted
subset enumeration (``sweeps.find_nash_by_search`` walks it too), which
skips the subsets that provably cannot span and yields the same spanners,
in the same order, as testing every subset.

When the exact search refuses, :func:`prune_to_minimal` gives the upper
bound: it keeps the backward sweep's reach masks per label, so testing an
edge re-sweeps only the labels at or below it and stops once the masks match
the stored ones. An equilibrium built from a minimal spanner gives each edge
to its first needer in ``core.edge_needers``.

The walk and the prune read the graph's pair -> labels map directly: nodes
are numbered once, each label's node-index pairs form a group for
``core.reach_masks``, reach masks are lists indexed by node, and results are
rebuilt from the kept labels with the trusted ``TemporalGraph._from_labels``.
Neither builds a time edge, the graph's label groups or a checked graph.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .core import (
    HostGraph,
    NodeId,
    TemporalGraph,
    TimeEdge,
    _check_terminals,
    edge_needers,
    is_terminal_spanner,
    kruskal,
    reach_masks,
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
    the host's label groups ascending, which hold pairs, so no time edge is
    built, and runs Kruskal on each group of at least n - 1 pairs; it joins
    n - 1 of them (the canonical tree) exactly when the label connects V.
    """
    need = host.node_count - 1
    for label, pairs in host.graph.label_groups():
        if len(pairs) >= need:
            kept, _ = kruskal(host.nodes, pairs)
            if len(kept) == need:
                return TemporalGraph._from_labels(host.nodes, dict.fromkeys(kept, (label,)))
    return None


def terminal_spanners(host: HostGraph, max_subsets: int) -> Iterator[TemporalGraph]:
    """Every terminal spanner among the host's time-edge subsets, by ascending
    size from n - 1 and in ``combinations`` order within a size.

    The pool is the host's time edges in canonical order, read from its pair
    map as node-index pairs. Each size is walked depth-first over pool
    positions, on an explicit stack, with a subset carried as a bitmask. One
    rule makes the walk sound: a subset is yielded only after a full
    ``core.reach_masks`` sweep of its own edges gives every node every
    terminal. A yielded spanner is rebuilt from its chosen labels with
    ``TemporalGraph._from_labels``. The prunes skip only subtrees that
    provably hold no spanner, so the spanners and their order are those of
    plain enumeration:

    - superset: if the prefix plus every pool edge from position k on does
      not span, no completion whose next edge is k or later does (reach only
      grows with edges), so child k and every later sibling are skipped. The
      last edge of a subset gets no such test, which would cost as much as
      testing the subset itself;
    - inheritance: a frame keeps ``known``, the largest j for which the
      prefix plus ``pool[j:]`` is known to span (0 at the root, as the host
      is complete), and hands ``max(k + 1, known)`` to child k, so the first
      subset of a size costs no test but its own;
    - static forest: a spanner of size s is statically connected, so at most
      s - (n - 1) of its edges join a node to its own component (a static
      cycle or a repeated pair); a child past that slack is skipped.

    ``max_subsets`` bounds the rank reached in plain enumeration: a tested
    subset counts one and a skipped subtree counts all its subsets, so the
    search refuses exactly where plain enumeration would.

    Raises:
        SearchTooLarge: the next spanner lies past rank ``max_subsets``.
    """
    n = host.node_count
    at = {node: i for i, node in enumerate(host.nodes)}
    pool = [(pair, label) for pair, labels in host.graph._labels.items() for label in labels]
    m = len(pool)
    ends = [(at[u], at[v]) for (u, v), _ in pool]
    bits = list(terminal_bits(host.nodes, host.terminals).values())
    full = sum(bits)
    by_label: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for k, ((_, label), ij) in enumerate(zip(pool, ends)):
        by_label.setdefault(label, []).append((1 << k, ij))
    groups = [
        (label, sum(bit for bit, _ in edges), edges)
        for label, edges in sorted(by_label.items())
    ]
    suffix = [(1 << m) - (1 << j) for j in range(m + 1)]
    rank = 0

    def spans(chosen: int) -> bool:
        chosen_groups = [
            (label, [ij for bit, ij in edges if chosen & bit])
            for label, mask, edges in groups
            if chosen & mask
        ]
        return reach_masks(chosen_groups, bits).count(full) == n

    def spanner(chosen: int) -> TemporalGraph:
        labels: dict[tuple[NodeId, NodeId], tuple[int, ...]] = {}
        for k, (pair, label) in enumerate(pool):
            if chosen >> k & 1:
                labels[pair] = (*labels.get(pair, ()), label)
        return TemporalGraph._from_labels(host.nodes, labels)

    def advance(subsets: int) -> None:
        nonlocal rank
        rank += subsets
        if rank > max_subsets:
            raise SearchTooLarge(f"subset enumeration exceeded {max_subsets} sets")

    for size in range(n - 1, m + 1):
        # A frame: the chosen positions, the next position k, known, the
        # static component of each node, the slack left and the edges still
        # to choose.
        stack = [(0, 0, 0, tuple(range(n)), size - n + 1, size)]
        while stack:
            chosen, k, known, comp, spare, left = stack.pop()
            if not left:
                advance(1)
                if spans(chosen):
                    yield spanner(chosen)
                continue
            if k > m - left:
                continue
            a, b = comp[ends[k][0]], comp[ends[k][1]]
            if a == b and not spare:
                advance(math.comb(m - k - 1, left - 1))
                stack.append((chosen, k + 1, known, comp, spare, left))
                continue
            if k > known and left > 1:
                if not spans(chosen | suffix[k]):
                    advance(math.comb(m - k, left))
                    continue
                known = k
            stack.append((chosen, k + 1, known, comp, spare, left))
            if a == b:
                spare -= 1
            else:
                comp = tuple(a if c == b else c for c in comp)
            child = (chosen | 1 << k, k + 1, max(k + 1, known), comp, spare, left - 1)
            stack.append(child)


def min_terminal_spanner(
    host: HostGraph, config: SpannerSearchConfig | None = None
) -> TemporalGraph:
    """Exact minimum-cardinality terminal spanner of a host.

    Returns a one-label spanning tree directly when some label class connects
    all nodes (n - 1 edges, provably optimal). Otherwise returns the first
    spanner of :func:`terminal_spanners`, which is the lexicographically
    least optimum.

    Raises:
        SearchTooLarge: the host has more candidate edges or subsets than the
            configured budgets allow; callers fall back to bounds.
    """
    if config is None:
        config = SpannerSearchConfig()
    tree = mono_label_spanning_tree(host)
    if tree is not None:
        return tree
    candidates = host.time_edge_count
    if candidates > config.max_candidate_edges:
        raise SearchTooLarge(
            f"{candidates} candidate edges exceed the budget of "
            f"{config.max_candidate_edges}"
        )
    spanner = next(terminal_spanners(host, config.max_subsets), None)
    if spanner is None:
        raise AssertionError("internal error: a complete host is its own spanner")
    return spanner


def prune_to_minimal(
    graph: TemporalGraph, terminals: Iterable[NodeId]
) -> TemporalGraph:
    """Drop removable time edges in one pass over the canonical edge order.

    An edge is dropped when the graph pruned so far still spans without it.
    The pass reads the graph's pair map once: it numbers the nodes, groups
    the node-index pairs by label into ``(label, pairs)`` groups and walks
    the time edges in canonical order (pairs as stored, labels ascending
    within a pair). It keeps the backward sweep's snapshot per label, a
    list of masks indexed by node (the masks once ``core.reach_masks`` has
    swept every label at or above it). To test an edge at label L it
    re-sweeps only the labels at or below L, from the stored snapshot above
    L, and stops at the first recomputed snapshot equal to the stored one:
    every lower snapshot then agrees too, so the edge is removable and the
    new snapshots are kept. Masks only shrink when an edge goes, so reaching time 0 without
    such a match means some node lost a terminal and the edge stays. The
    kept labels are rebuilt with the trusted ``TemporalGraph._from_labels``,
    in the input's pair order.

    The result is an inclusion-minimal terminal spanner (minimal inputs come
    back unchanged), the same one as from dropping the first removable edge
    and rescanning until none is left: removal only shrinks reachability, so
    an edge found needed stays needed in every smaller spanner.

    Raises:
        NoTerminals, UnknownNode: as :func:`core.is_terminal_spanner`.
        NotASpanner: input does not reach every terminal from every node.
    """
    nodes = graph.nodes
    bits = list(terminal_bits(nodes, _check_terminals(graph, terminals)).values())
    full = sum(bits)
    at = {node: i for i, node in enumerate(nodes)}
    ends = [(at[u], at[v]) for u, v in graph._labels]
    by_label: dict[int, list[tuple[int, int]]] = {}
    for ij, labels in zip(ends, graph._labels.values()):
        for label in labels:
            by_label.setdefault(label, []).append(ij)
    groups = sorted(by_label.items(), reverse=True)
    rank = {label: k for k, (label, _) in enumerate(groups)}
    snapshots = []
    masks = bits
    for group in groups:
        masks = reach_masks((group,), masks)
        snapshots.append(masks)
    if any(mask != full for mask in masks):
        raise NotASpanner("input graph does not reach all terminals from all nodes")
    kept = {}
    for ij, (pair, labels) in zip(ends, graph._labels.items()):
        stay = []
        for label in labels:
            start = rank[label]
            pairs = groups[start][1]
            where = pairs.index(ij)
            del pairs[where]
            masks = snapshots[start - 1] if start else bits
            trial = []
            for k in range(start, len(groups)):
                masks = reach_masks((groups[k],), masks)
                if masks == snapshots[k]:
                    snapshots[start:k] = trial
                    break
                trial.append(masks)
            else:
                pairs.insert(where, ij)
                stay.append(label)
        if stay:
            kept[pair] = tuple(stay)
    return TemporalGraph._from_labels(nodes, kept)


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
        NotASpanner: ``graph``'s nodes are not the host's, or it does not span.
        NotMinimal: some edge has no needer, i.e. the spanner is not
            inclusion-minimal.
    """
    if graph.nodes != host.nodes:
        raise NotASpanner("the graph's nodes must be the host's nodes")
    if not is_terminal_spanner(graph, host.terminals):
        raise NotASpanner("input graph does not reach all terminals from all nodes")
    strategies: dict[NodeId, set[TimeEdge]] = {}
    for edge, needers in edge_needers(graph, host.terminals).items():
        if not needers:
            raise NotMinimal(
                f"{edge} is removable, so the spanner is not inclusion-minimal"
            )
        strategies.setdefault(needers[0], set()).add(edge)
    profile = StrategyProfile(setting=Setting.GLOBAL, strategies=strategies)
    profile.validate(host)
    return profile
