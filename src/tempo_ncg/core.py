"""Temporal graphs, temporal reachability, and terminal-spanner predicates.

A temporal graph assigns every undirected edge a nonempty set of integer time
labels; each (pair, label) combination is one *time edge*, the unit that game
agents buy. A temporal path is a walk whose labels never decrease (equal labels
on consecutive hops are allowed); a path leaves its source at time 0 and its
arrival time is the label of its last edge. A host graph is a complete temporal
graph together with a nonempty set of terminal nodes.

Earliest-arrival computation processes labels in ascending order and runs a
fixed point inside each label group, so chains of equally labelled edges
propagate in one pass. :func:`reach_masks` is its backward twin: one sweep
in descending label order gives, for every node at once, the terminals it
reaches (one bit each, :func:`terminal_bits`), so the spanner check costs
one sweep, not one forward propagation per node. :func:`label_reach_masks`
keeps a snapshot per label (after Wu et al., VLDB 2014), read by the
deviation search and by :func:`removal_masks`.

Every sweep reads label groups of one form: ``(label, pairs)`` in ascending
label order, each pair a canonical node pair. A graph's cached
:meth:`TemporalGraph.label_groups` reads them from its pair map and
:func:`group_by_label` from a set of time edges (a profile's bought edges),
so the time edge stays the unit agents buy and no sweep reads one.
:func:`reach_masks` is the one backward sweep: pairs of node ids index a
dict of masks, and pairs of node indices, as in ``spanner_opt``'s prune and
subset walk, index a list.

The other modules share three primitives from here instead of their own
copies: :func:`group_by_label` (label groups for every sweep),
:func:`kruskal` (the one union-find, behind :func:`connected_components` and
the one-label spanning tree) and :func:`removal_masks` (the reach masks
without any one edge, behind :func:`edge_needers` and the greedy checks).

Input is checked once, at the public boundary. Checked data then takes the
trusted ``TemporalGraph._from_labels`` and ``_trusted_edge``, which are exact
because pairs stay canonical and every label was checked on the way in.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping, Reversible, Sequence
from dataclasses import dataclass
from typing import TypeVar

from .errors import (
    IncompleteHost,
    NoTerminals,
    NotASpanner,
    UnknownNode,
)

NodeId = str

_INF = float("inf")


@dataclass(frozen=True, order=True)
class TimeEdge:
    """One purchasable unit: an unordered node pair at a single time label.

    Endpoints are stored in lexicographic order regardless of construction
    order, so equal time edges always compare and hash equal.
    """

    u: NodeId
    v: NodeId
    label: int

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-loop at {self.u!r}")
        if not isinstance(self.label, int) or isinstance(self.label, bool):
            raise ValueError(f"label must be an int, got {self.label!r}")
        if self.label < 1:
            raise ValueError(f"labels start at 1, got {self.label}")
        if self.u > self.v:
            lo, hi = self.v, self.u
            object.__setattr__(self, "u", lo)
            object.__setattr__(self, "v", hi)

    @property
    def pair(self) -> tuple[NodeId, NodeId]:
        return (self.u, self.v)

    def touches(self, node: NodeId) -> bool:
        return node == self.u or node == self.v

    def other(self, node: NodeId) -> NodeId:
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise UnknownNode(f"{node!r} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"({self.u},{self.v})@{self.label}"


def _trusted_edge(u: NodeId, v: NodeId, label: int) -> TimeEdge:
    """A time edge from a triple its graph already checked (u < v, label >= 1)."""
    edge = object.__new__(TimeEdge)
    object.__setattr__(edge, "u", u)
    object.__setattr__(edge, "v", v)
    object.__setattr__(edge, "label", label)
    return edge


def _canonical_pair(a: NodeId, b: NodeId) -> tuple[NodeId, NodeId]:
    return (a, b) if a <= b else (b, a)


LabelGroups = tuple[tuple[int, tuple[tuple[NodeId, NodeId], ...]], ...]
_Masks = TypeVar("_Masks", dict[NodeId, int], list[int])


def group_by_label(edges: Iterable[TimeEdge]) -> LabelGroups:
    """The time edges' pairs grouped by ascending label, each group sorted."""
    by_label: dict[int, list[tuple[NodeId, NodeId]]] = {}
    for edge in edges:
        by_label.setdefault(edge.label, []).append((edge.u, edge.v))
    return tuple((label, tuple(sorted(by_label[label]))) for label in sorted(by_label))


class TemporalGraph:
    """Immutable undirected temporal graph.

    Nodes are string ids; labels per pair are kept as sorted duplicate-free
    tuples. Equality and hashing cover nodes and labelled edges.
    """

    __slots__ = ("_nodes", "_node_set", "_labels", "_groups", "_hash")

    def __init__(self, nodes: Iterable[NodeId], edges: Iterable[TimeEdge] = ()) -> None:
        node_tuple = tuple(sorted(set(nodes)))
        for node in node_tuple:
            if not isinstance(node, str) or not node:
                raise UnknownNode(f"node ids must be nonempty strings, got {node!r}")
        node_set = frozenset(node_tuple)
        by_pair: dict[tuple[NodeId, NodeId], set[int]] = {}
        for edge in edges:
            if edge.u not in node_set or edge.v not in node_set:
                raise UnknownNode(f"edge {edge} uses a node outside the graph")
            by_pair.setdefault(edge.pair, set()).add(edge.label)
        self._nodes = node_tuple
        self._node_set = node_set
        self._labels: dict[tuple[NodeId, NodeId], tuple[int, ...]] = {
            pair: tuple(sorted(labels)) for pair, labels in sorted(by_pair.items())
        }
        self._groups: LabelGroups | None = None
        self._hash: int | None = None

    @classmethod
    def _from_labels(cls, nodes: tuple[NodeId, ...], labels: dict) -> TemporalGraph:
        """Trusted: sorted node ids; sorted canonical pairs -> sorted labels."""
        graph = object.__new__(cls)
        graph._nodes, graph._node_set, graph._labels = nodes, frozenset(nodes), labels
        graph._groups = graph._hash = None
        return graph

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self._nodes

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._node_set

    def pairs(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Static edges (pairs carrying at least one label), canonical order."""
        return iter(self._labels)

    @property
    def static_edge_count(self) -> int:
        return len(self._labels)

    def labels(self, a: NodeId, b: NodeId) -> tuple[int, ...]:
        """Sorted labels of pair {a, b}; empty tuple if the pair is absent."""
        for node in (a, b):
            if node not in self._node_set:
                raise UnknownNode(f"{node!r} is not in the graph")
        return self._labels.get(_canonical_pair(a, b), ())

    def time_edges(self) -> Iterator[TimeEdge]:
        """Every time edge, already in canonical (u, v, label) order."""
        for (u, v), labels in self._labels.items():
            for label in labels:
                yield _trusted_edge(u, v, label)

    @property
    def time_edge_count(self) -> int:
        return sum(len(labels) for labels in self._labels.values())

    @property
    def lifetime(self) -> int:
        """Largest label present, 0 for an edgeless graph."""
        return max((labels[-1] for labels in self._labels.values()), default=0)

    @property
    def is_simple(self) -> bool:
        return all(len(labels) == 1 for labels in self._labels.values())

    def has_time_edge(self, edge: TimeEdge) -> bool:
        return edge.label in self._labels.get(edge.pair, ())

    def with_time_edges(self, extra: Iterable[TimeEdge]) -> "TemporalGraph":
        return TemporalGraph(self._nodes, [*self.time_edges(), *extra])

    def without_time_edge(self, edge: TimeEdge) -> "TemporalGraph":
        if not self.has_time_edge(edge):
            raise UnknownNode(f"{edge} is not in the graph")
        return TemporalGraph(
            self._nodes, (e for e in self.time_edges() if e != edge)
        )

    def relabel_nodes(self, mapping: Mapping[NodeId, NodeId]) -> "TemporalGraph":
        """Rename nodes through a total injective mapping."""
        missing = [n for n in self._nodes if n not in mapping]
        if missing:
            raise UnknownNode(f"mapping misses nodes {missing}")
        if len(set(mapping[n] for n in self._nodes)) != len(self._nodes):
            raise ValueError("node mapping is not injective")
        return TemporalGraph(
            (mapping[n] for n in self._nodes),
            (TimeEdge(mapping[e.u], mapping[e.v], e.label) for e in self.time_edges()),
        )

    def label_groups(self) -> LabelGroups:
        """Pairs grouped by ascending label from the pair map, in order; cached."""
        if self._groups is None:
            by_label: defaultdict[int, list[tuple[NodeId, NodeId]]] = defaultdict(list)
            for pair, labels in self._labels.items():
                for label in labels:
                    by_label[label].append(pair)
            self._groups = tuple(
                (label, tuple(by_label[label])) for label in sorted(by_label)
            )
        return self._groups

    def _key(self) -> tuple:
        return (self._nodes, tuple(self._labels.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self) -> str:
        return (
            f"TemporalGraph(n={len(self._nodes)}, pairs={len(self._labels)}, "
            f"time_edges={self.time_edge_count})"
        )


@dataclass(frozen=True)
class HostGraph:
    """A complete temporal graph plus a nonempty terminal set.

    Instances produced by :func:`validate_and_normalize_host` carry gap-free
    labels 1..#distinct. Direct construction checks terminals only; use the
    validator for untrusted input.
    """

    graph: TemporalGraph
    terminals: tuple[NodeId, ...]

    def __post_init__(self) -> None:
        terminal_set = _check_terminals(self.graph, self.terminals)
        object.__setattr__(self, "terminals", tuple(sorted(terminal_set)))

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return self.graph.nodes

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def terminal_count(self) -> int:
        return len(self.terminals)

    @functools.cached_property
    def terminal_set(self) -> frozenset[NodeId]:
        return frozenset(self.terminals)

    @functools.cached_property
    def sorted_time_edges(self) -> tuple[TimeEdge, ...]:
        """All host time edges in canonical order."""
        return tuple(self.graph.time_edges())

    def __getstate__(self) -> dict:
        # Pickle the fields only, never the cached properties.
        return {"graph": self.graph, "terminals": self.terminals}

    @functools.cached_property
    def lifetime(self) -> int:
        return self.graph.lifetime

    @property
    def time_edge_count(self) -> int:
        return self.graph.time_edge_count

    def labels(self, a: NodeId, b: NodeId) -> tuple[int, ...]:
        return self.graph.labels(a, b)

    def min_label(self, a: NodeId, b: NodeId) -> int:
        labels = self.graph.labels(a, b)
        if not labels:
            raise IncompleteHost(f"host has no labels on pair ({a!r}, {b!r})")
        return labels[0]

    def time_edges(self) -> Iterator[TimeEdge]:
        return self.graph.time_edges()

    def has_time_edge(self, edge: TimeEdge) -> bool:
        return self.graph.has_time_edge(edge)


def validate_and_normalize_host(
    raw: TemporalGraph, terminals: Iterable[NodeId]
) -> HostGraph:
    """Check completeness and terminal sanity, then normalize labels.

    Normalization maps the distinct labels of the whole graph onto 1..#distinct
    by rank, which preserves every temporal path (only the order of labels
    matters for reachability). The function is idempotent.

    Raises:
        NoTerminals: the terminal iterable is empty.
        UnknownNode: a terminal is not a node of ``raw``.
        IncompleteHost: some node pair carries no label.
    """
    terminal_tuple = HostGraph(graph=raw, terminals=tuple(terminals)).terminals
    nodes, by_pair = raw.nodes, raw._labels
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if (a, b) not in by_pair:
                raise IncompleteHost(f"pair ({a!r}, {b!r}) has no time label")
    distinct = sorted({label for labels in by_pair.values() for label in labels})
    rank = {label: i + 1 for i, label in enumerate(distinct)}
    # Ranks keep each pair's labels sorted and distinct; the pairs stay canonical.
    normalized = TemporalGraph._from_labels(
        nodes,
        {pair: tuple(rank[label] for label in labels) for pair, labels in by_pair.items()},
    )
    return HostGraph(graph=normalized, terminals=terminal_tuple)


@dataclass(frozen=True)
class ArrivalMap:
    """Earliest temporal arrival times from a fixed source.

    ``arrival`` maps every reachable node to its earliest arrival time (the
    source itself to 0); unreachable nodes are absent. ``predecessor`` holds,
    for every reachable node except the source, the final time edge of one
    earliest-arrival path.
    """

    source: NodeId
    arrival: Mapping[NodeId, int]
    predecessor: Mapping[NodeId, TimeEdge]

    def arrival_of(self, node: NodeId) -> int | None:
        return self.arrival.get(node)

    @property
    def reached(self) -> frozenset[NodeId]:
        return frozenset(self.arrival)

    def path_to(self, node: NodeId) -> tuple[TimeEdge, ...]:
        """Reconstruct one earliest-arrival temporal path to ``node``."""
        if node not in self.arrival:
            raise ValueError(f"{node!r} is unreachable from {self.source!r}")
        hops: list[TimeEdge] = []
        current = node
        while current != self.source:
            edge = self.predecessor[current]
            hops.append(edge)
            current = edge.other(current)
        hops.reverse()
        return tuple(hops)


def propagate_arrivals(
    groups: Iterable[tuple[int, Iterable[tuple[NodeId, NodeId]]]], source: NodeId
) -> tuple[dict[NodeId, int], dict[NodeId, tuple[NodeId, NodeId]]]:
    """Earliest-arrival sweep over label groups: the arrival map and, for
    every reached node but ``source``, the pair that set its arrival, at
    that arrival's label, once; those pairs form an earliest-arrival tree.

    ``groups`` must be sorted by ascending label (as from
    :meth:`TemporalGraph.label_groups` or :func:`group_by_label`); a caller
    that adds edges to a base graph groups the union. Within one label the
    sweep iterates to a fixed point so equally labelled edges chain.
    """
    arrival: dict[NodeId, int] = {source: 0}
    tree: dict[NodeId, tuple[NodeId, NodeId]] = {}
    for label, pairs in groups:
        changed = True
        while changed:
            changed = False
            for u, v in pairs:
                au = arrival.get(u, _INF)
                av = arrival.get(v, _INF)
                if au <= label < av:
                    arrival[v] = label
                    tree[v] = (u, v)
                    changed = True
                elif av <= label < au:
                    arrival[u] = label
                    tree[u] = (u, v)
                    changed = True
    return arrival, tree


def reach_masks(
    groups: Reversible[tuple[int, Iterable[tuple]]], masks: _Masks
) -> _Masks:
    """Backward reach sweep: a copy of ``masks`` in which ``masks[x]`` ORs
    the start masks of every node that ``x`` reaches from time 0, for all
    sources in one pass.

    ``groups`` must be sorted by ascending label (as from
    :meth:`TemporalGraph.label_groups` or :func:`group_by_label`); the sweep
    walks them in reverse. ``masks`` covers every node: a dict for pairs of
    node ids, a list for pairs of node indices. A node always reaches
    itself. Inside one label, a fixed point spreads masks over each
    connected component of that label's pairs.
    """
    masks = masks.copy()
    for _, pairs in reversed(groups):
        changed = True
        while changed:
            changed = False
            for i, j in pairs:
                mi = masks[i]
                mj = masks[j]
                if mi != mj:
                    masks[i] = masks[j] = mi | mj
                    changed = True
    return masks


def label_reach_masks(
    groups: Iterable[tuple[int, tuple[tuple[NodeId, NodeId], ...]]],
    bits: Mapping[NodeId, int],
    labels: Iterable[int],
) -> dict[int, dict[NodeId, int]]:
    """:func:`reach_masks` with a snapshot per label: ``masks[L][x]`` ORs
    ``bits`` over the nodes that ``x`` reaches by a temporal path leaving at
    label ``L`` or later.

    Masks are returned for every label in ``labels`` or in ``groups``; a
    label that no edge carries shares the mask of the next larger one.
    """
    by_label = dict(groups)
    current = bits
    masks: dict[int, dict[NodeId, int]] = {}
    for label in sorted(by_label.keys() | set(labels), reverse=True):
        edges = by_label.get(label, ())
        if edges:
            current = reach_masks(((label, edges),), current)
        elif current is bits:  # no snapshot aliases the caller's masks
            current = dict(bits)
        masks[label] = current
    return masks


def removal_masks(
    groups: LabelGroups, bits: Mapping[NodeId, int]
) -> Callable[[TimeEdge], dict[NodeId, int]]:
    """``without(edge)``: the :func:`reach_masks` of ``groups`` without the
    pair of ``edge`` at its label, from one :func:`label_reach_masks` sweep.

    Leaving an edge out changes no snapshot above its label, so each call
    re-sweeps only the labels at or below it, from the stored snapshot of
    the next label up. ``groups`` ascend by label, as for :func:`reach_masks`.
    """
    labels = [label for label, _ in groups]
    snapshots = label_reach_masks(groups, bits, ())

    def without(edge: TimeEdge) -> dict[NodeId, int]:
        at = bisect_right(labels, edge.label) - 1
        above = snapshots[labels[at + 1]] if at + 1 < len(labels) else bits
        pair = (edge.u, edge.v)
        kept = tuple(p for p in groups[at][1] if p != pair)
        return reach_masks((*groups[:at], (edge.label, kept)), above)

    return without


def static_bridges(
    groups: LabelGroups, bits: Mapping[NodeId, int]
) -> tuple[dict[NodeId, int], dict[tuple[NodeId, NodeId], tuple[int, int, int]]]:
    """Every node's preorder number in one depth-first walk over the time
    edges of ``groups`` (``bits`` covers every node), on an explicit stack,
    and per static bridge (Tarjan, IPL 1974) ``(lo, hi, below)``: the
    preorder interval ``[lo, hi)`` of its far subtree and the OR of ``bits``
    over it. A pair with two labels closes a cycle, so it is no bridge.
    """
    adjacency: dict[NodeId, list[tuple[NodeId, int]]] = {x: [] for x in bits}
    for label, pairs in groups:
        for u, v in pairs:
            adjacency[u].append((v, label))
            adjacency[v].append((u, label))
    order: dict[NodeId, int] = {}
    low: dict[NodeId, int] = {}
    below = dict(bits)
    bridges = {}
    for root in bits:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        # The root is its own parent, by label 0, so it closes no bridge.
        stack = [(root, root, 0, iter(adjacency[root]))]
        while stack:
            x, parent, entry, unseen = stack[-1]
            for y, label in unseen:
                if y not in order:
                    order[y] = low[y] = len(order)
                    stack.append((y, x, label, iter(adjacency[y])))
                    break
                if y != parent or label != entry:
                    low[x] = min(low[x], order[y])
            else:
                stack.pop()
                low[parent] = min(low[parent], low[x])
                below[parent] |= below[x]
                if low[x] > order[parent]:
                    pair = _canonical_pair(x, parent)
                    bridges[pair] = (order[x], len(order), below[x])
    return order, bridges


def terminal_bits(
    nodes: Iterable[NodeId], terminals: Iterable[NodeId]
) -> dict[NodeId, int]:
    """Bit ``i`` for the ``i``-th of the distinct ``terminals``, 0 elsewhere."""
    bits = dict.fromkeys(nodes, 0)
    for i, t in enumerate(terminals):
        bits[t] = 1 << i
    return bits


def spans_terminals(groups: LabelGroups, bits: dict[NodeId, int]) -> bool:
    """Whether every node reaches every :func:`terminal_bits` terminal;
    ``groups`` ascend by label, as for :func:`reach_masks`."""
    full = sum(bits.values())
    return all(mask == full for mask in reach_masks(groups, bits).values())


def earliest_arrivals(graph: TemporalGraph, source: NodeId) -> ArrivalMap:
    """Earliest arrival times from ``source`` over the whole graph.

    Raises:
        UnknownNode: ``source`` is not a node of ``graph``.
    """
    if source not in graph:
        raise UnknownNode(f"{source!r} is not a node of the graph")
    arrival, tree = propagate_arrivals(graph.label_groups(), source)
    predecessor = {x: _trusted_edge(u, v, arrival[x]) for x, (u, v) in tree.items()}
    return ArrivalMap(source=source, arrival=arrival, predecessor=predecessor)


def reach_set(graph: TemporalGraph, source: NodeId) -> frozenset[NodeId]:
    """All nodes temporally reachable from ``source`` (always includes it)."""
    return earliest_arrivals(graph, source).reached


def kruskal(
    nodes: Iterable[NodeId], pairs: Iterable[tuple[NodeId, NodeId]]
) -> tuple[list[tuple[NodeId, NodeId]], Callable[[NodeId], NodeId]]:
    """One union-find pass over ``pairs`` in order: the pairs that joined two
    components (a spanning forest) and ``find``, from a node to its
    component's root. Reading stops at the (n - 1)-th join, after which no
    pair can join.
    """
    parent: dict[NodeId, NodeId] = {n: n for n in nodes}

    def find(a: NodeId) -> NodeId:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    kept = []
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept.append((u, v))
            if len(kept) == len(parent) - 1:
                break
    return kept, find


def connected_components(
    nodes: Sequence[NodeId], pairs: Iterable[tuple[NodeId, NodeId]]
) -> list[frozenset[NodeId]]:
    """Static (label-blind) connected components, sorted by smallest member."""
    _, find = kruskal(nodes, pairs)
    components: dict[NodeId, set[NodeId]] = {}
    for n in nodes:
        components.setdefault(find(n), set()).add(n)
    return sorted(map(frozenset, components.values()), key=min)


def _check_terminals(graph: TemporalGraph, terminals: Iterable[NodeId]) -> frozenset[NodeId]:
    """The terminals as a set, checked to be nonempty nodes of ``graph``."""
    terminal_set = frozenset(terminals)
    if not terminal_set:
        raise NoTerminals("the terminal set is empty")
    unknown = [t for t in terminal_set if t not in graph]
    if unknown:
        raise UnknownNode(f"terminal {min(unknown)!r} is not a node of the graph")
    return terminal_set


def is_terminal_spanner(graph: TemporalGraph, terminals: Iterable[NodeId]) -> bool:
    """Whether every node of ``graph`` temporally reaches every terminal."""
    bits = terminal_bits(graph.nodes, _check_terminals(graph, terminals))
    return spans_terminals(graph.label_groups(), bits)


def edge_needers(
    graph: TemporalGraph, terminals: Iterable[NodeId]
) -> dict[TimeEdge, tuple[NodeId, ...]]:
    """For each time edge of ``graph``, canonical order, the nodes (canonical
    order) that miss a terminal once that edge alone is gone.

    An edge with no needer can be dropped from a spanner. One
    :func:`removal_masks` sweep serves every edge.
    """
    bits = terminal_bits(graph.nodes, _check_terminals(graph, terminals))
    full = sum(bits.values())
    without = removal_masks(graph.label_groups(), bits)
    needers = {}
    for edge in graph.time_edges():
        masks = without(edge)
        needers[edge] = tuple(node for node in graph.nodes if masks[node] != full)
    return needers


def is_minimal_terminal_spanner(
    graph: TemporalGraph, terminals: Iterable[NodeId]
) -> tuple[bool, TimeEdge | None]:
    """Inclusion-minimality check for a terminal spanner.

    Returns ``(True, None)`` when no single time edge can be dropped, else
    ``(False, edge)`` with the canonically first removable edge.

    Raises:
        NotASpanner: ``graph`` is not a terminal spanner to begin with.
    """
    terminal_set = frozenset(terminals)
    if not is_terminal_spanner(graph, terminal_set):
        raise NotASpanner("input graph does not reach all terminals from all nodes")
    needers = edge_needers(graph, terminal_set)
    removable = next((edge for edge, who in needers.items() if not who), None)
    return removable is None, removable
