"""Host-graph and equilibrium generators.

Every generator returns instances meant to pass the exact verifiers in
:mod:`tempo_ncg.game`; the test suite re-verifies each one. The constructions
are: a label-shifting graph product that multiplies equilibria, scaling by
non-terminal satellites, two single-node extensions (one new terminal, one new
non-terminal), a direct two-terminal equilibrium for arbitrary hosts, iterated
hypercube equilibria, the dense-cycle family with many-edged equilibria, and a
direct spanning-tree equilibrium for hosts with at most two labels.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .core import (
    HostGraph,
    NodeId,
    TemporalGraph,
    TimeEdge,
    connected_components,
    group_by_label,
    is_terminal_spanner,
    label_reach_masks,
    propagate_arrivals,
    terminal_bits,
    validate_and_normalize_host,
)
from .errors import IncompleteHost, PreconditionFailed, SettingMismatch
from .game import (
    Setting,
    StrategyProfile,
    Verdict,
    is_greedy_equilibrium,
    is_nash_equilibrium,
    realized_graph,
)

PRODUCT_SEPARATOR = "×"


@dataclass(frozen=True, order=True)
class ProductNodeId:
    """Node of a product graph, rendered "left×right".

    The separator is reserved: factor ids must not contain it, otherwise the
    rendered id would not parse back unambiguously.
    """

    left: NodeId
    right: NodeId

    def __post_init__(self) -> None:
        for part in (self.left, self.right):
            if PRODUCT_SEPARATOR in part:
                raise PreconditionFailed(
                    f"factor id {part!r} contains the reserved separator "
                    f"{PRODUCT_SEPARATOR!r}"
                )

    def render(self) -> NodeId:
        return f"{self.left}{PRODUCT_SEPARATOR}{self.right}"

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def parse(cls, node_id: NodeId) -> "ProductNodeId":
        left, sep, right = node_id.partition(PRODUCT_SEPARATOR)
        if not sep or not left or not right:
            raise PreconditionFailed(f"{node_id!r} is not a product node id")
        return cls(left=left, right=right)


def relabel_instance(
    host: HostGraph, profile: StrategyProfile, mapping: Mapping[NodeId, NodeId]
) -> tuple[HostGraph, StrategyProfile]:
    """Rename nodes of a host and profile consistently."""
    new_host = HostGraph(
        graph=host.graph.relabel_nodes(mapping),
        terminals=tuple(mapping[t] for t in host.terminals),
    )
    return new_host, profile.relabel(mapping)


def graph_product(
    h1: HostGraph,
    s1: StrategyProfile,
    h2: HostGraph,
    s2: StrategyProfile,
) -> tuple[HostGraph, StrategyProfile]:
    """Product host and profile; equilibria of the factors stay equilibria.

    Nodes are all pairs. A pair of nodes sharing the right factor keeps the
    left host's labels; sharing the left factor, the right host's labels
    shifted past the left lifetime; differing in both, a single label later
    than everything else. The product strategy copies s1 into every right
    copy, and copies s2 (shifted) into the aligned edges of copies whose left
    node is a terminal of h1, which preserves both the realized structure and
    the locality of the inputs.

    Raises:
        SettingMismatch: the two profiles use different settings.
    """
    if s1.setting is not s2.setting:
        raise SettingMismatch("product factors must share one setting")
    s1.validate(h1)
    s2.validate(h2)
    shift = h1.lifetime
    diagonal = h1.lifetime + h2.lifetime + 1

    def pid(a: NodeId, b: NodeId) -> NodeId:
        return ProductNodeId(a, b).render()

    nodes = [pid(a, b) for a in h1.nodes for b in h2.nodes]
    edges: list[TimeEdge] = []
    for x1, y1 in itertools.combinations(h1.nodes, 2):
        labels = h1.labels(x1, y1)
        for b in h2.nodes:
            edges.extend(TimeEdge(pid(x1, b), pid(y1, b), l) for l in labels)
    for x2, y2 in itertools.combinations(h2.nodes, 2):
        labels = h2.labels(x2, y2)
        for a in h1.nodes:
            edges.extend(TimeEdge(pid(a, x2), pid(a, y2), l + shift) for l in labels)
    for x1, y1 in itertools.combinations(h1.nodes, 2):
        for x2, y2 in itertools.permutations(h2.nodes, 2):
            if (x1, x2) < (y1, y2):
                edges.append(TimeEdge(pid(x1, x2), pid(y1, y2), diagonal))
    host = HostGraph(
        graph=TemporalGraph(nodes, edges),
        terminals=tuple(pid(a, b) for a in h1.terminals for b in h2.terminals),
    )
    strategies: dict[NodeId, set[TimeEdge]] = {}
    left_terminals = h1.terminal_set
    for v1 in h1.nodes:
        for v2 in h2.nodes:
            bought: set[TimeEdge] = set()
            for e in s1.strategy(v1):
                bought.add(TimeEdge(pid(e.u, v2), pid(e.v, v2), e.label))
            if v1 in left_terminals:
                for e in s2.strategy(v2):
                    bought.add(TimeEdge(pid(v1, e.u), pid(v1, e.v), e.label + shift))
            if bought:
                strategies[pid(v1, v2)] = bought
    profile = StrategyProfile(setting=s1.setting, strategies=strategies)
    return host, profile


def _label1_star(
    nodes: tuple[NodeId, ...],
    terminals: tuple[NodeId, ...],
    center: NodeId,
    setting: Setting,
) -> tuple[HostGraph, StrategyProfile]:
    """Complete all-label-1 host; every node but ``center`` buys its spoke."""
    edges = [TimeEdge(a, b, 1) for a, b in itertools.combinations(nodes, 2)]
    host = HostGraph(graph=TemporalGraph(nodes, edges), terminals=terminals)
    strategies = {v: {TimeEdge(v, center, 1)} for v in nodes if v != center}
    return host, StrategyProfile(setting=setting, strategies=strategies)


def scale_with_nonterminals(
    h1: HostGraph, s1: StrategyProfile, c: int
) -> tuple[HostGraph, StrategyProfile]:
    """Blow each terminal up into one terminal plus c-1 non-terminal copies.

    Requires every node of ``h1`` to be a terminal. The result has c*k nodes,
    k terminals, and c*m1 + (c-1)*k bought edges. For k >= 2 and c >= 3 the
    product's latest label alone connects the whole host, so the social
    optimum drops to n - 1 while the equilibrium keeps all scaled edges.

    Raises:
        PreconditionFailed: some node of ``h1`` is not a terminal, or c < 1.
    """
    if c < 1:
        raise PreconditionFailed(f"need c >= 1, got {c}")
    if set(h1.terminals) != set(h1.nodes):
        raise PreconditionFailed("scaling requires every node to be a terminal")
    width = len(str(max(c - 1, 1)))
    nodes = ("t", *(f"u{i:0{width}d}" for i in range(1, c)))
    h2, s2 = _label1_star(nodes, ("t",), "t", s1.setting)
    return graph_product(h1, s1, h2, s2)


def _fresh_node(existing: Iterable[NodeId], base: str = "x") -> NodeId:
    taken = set(existing)
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def _attach(
    host: HostGraph, s: StrategyProfile, anchor: NodeId, terminal: bool
) -> tuple[HostGraph, dict[NodeId, frozenset[TimeEdge]], NodeId]:
    """Shift every label up by one and hang a fresh node x off ``anchor``.

    x gets a label-1 edge to ``anchor`` and the new latest label to every
    other node, and buys (x, anchor, 1); every old purchase is shifted too.
    Returns the new host, the new strategies and x.
    """
    x = _fresh_node(host.nodes)
    top = host.lifetime + 1
    edges = [TimeEdge(e.u, e.v, e.label + 1) for e in host.time_edges()]
    edges += [TimeEdge(x, v, 1 if v == anchor else top) for v in host.nodes]
    new_host = HostGraph(
        graph=TemporalGraph((*host.nodes, x), edges),
        terminals=(*host.terminals, x) if terminal else host.terminals,
    )
    strategies = {
        agent: frozenset(TimeEdge(e.u, e.v, e.label + 1) for e in bought)
        for agent, bought in s.strategies.items()
    }
    strategies[x] = frozenset({TimeEdge(x, anchor, 1)})
    return new_host, strategies, x


def extend_with_nonterminal(
    host: HostGraph, s: StrategyProfile
) -> tuple[HostGraph, StrategyProfile]:
    """Add one non-terminal node to an equilibrium instance.

    Old labels shift up by one; the new node x gets a label-1 edge to the
    canonical node y and the latest label everywhere else, then buys (x,y,1).
    The equilibrium property, its type, and the setting carry over, adding
    exactly one bought edge. A spanning tree on latest-label host pairs, when
    present, is preserved.
    """
    s.validate(host)
    new_host, strategies, _ = _attach(host, s, host.nodes[0], terminal=False)
    return new_host, StrategyProfile(setting=s.setting, strategies=strategies)


def extend_with_terminal(
    host: HostGraph, s: StrategyProfile
) -> tuple[HostGraph, StrategyProfile]:
    """Add one terminal node to an equilibrium instance.

    Splits on F, the realized edges carrying the realized graph's latest
    label. If F is a tree containing every terminal the realized graph must
    itself be a spanning tree, and the result is a fresh all-label-1 host
    whose star (centered on the canonical node) is the new equilibrium.
    Otherwise a component B of F, a non-buyer a inside B, and a second node b
    inside B are chosen canonically; labels shift up by one, the new terminal
    x hangs off a via a label-1 edge, b additionally buys (x,b) at the latest
    label, and everything else is unchanged. The output is re-verified as a
    greedy equilibrium (every Nash input yields a Nash output, which tests
    check separately).

    Raises:
        PreconditionFailed: the realized graph is empty, a stated property of
            the construction fails (flagging a broken input equilibrium), or
            the output fails greedy re-verification.
    """
    graph = realized_graph(s, host)
    if graph.time_edge_count == 0:
        raise PreconditionFailed("cannot extend an empty realized graph")
    realized_top = graph.lifetime
    top_pairs = [p for p in graph.pairs() if realized_top in graph.labels(*p)]
    forest_nodes = sorted({n for p in top_pairs for n in p})
    components = connected_components(forest_nodes, top_pairs)
    if len(top_pairs) != len(forest_nodes) - len(components):  # not a forest
        raise PreconditionFailed(
            "latest-label realized edges contain a cycle; "
            "input is not an equilibrium"
        )
    terminal_set = host.terminal_set

    if len(components) == 1 and terminal_set <= components[0]:
        n = host.node_count
        connected = len(connected_components(graph.nodes, list(graph.pairs()))) == 1
        if graph.time_edge_count != n - 1 or not connected:
            raise PreconditionFailed(
                "latest-label tree spans all terminals but the realized "
                "graph is not a spanning tree; input is not an equilibrium"
            )
        x = _fresh_node(host.nodes)
        nodes = (*host.nodes, x)
        new_host, profile = _label1_star(
            nodes, (*host.terminals, x), min(nodes), s.setting
        )
    else:
        # Some component misses a terminal: disjoint components cannot all
        # hold the nonempty terminal set, and a lone one that holds it took
        # the tree branch above.
        chosen = next(comp for comp in components if not terminal_set <= comp)
        if not (terminal_set & chosen):
            raise PreconditionFailed(
                "latest-label component without any terminal; "
                "input is not an equilibrium"
            )
        comp_pairs = {p for p in top_pairs if p[0] in chosen}
        buyers = {
            agent
            for agent, bought in s.strategies.items()
            for e in bought
            if e.pair in comp_pairs and e.label == realized_top
        }
        non_buyers = sorted(set(chosen) - buyers)
        if not non_buyers:
            raise PreconditionFailed(
                "every node of the chosen component buys one of its edges; "
                "input is not an equilibrium"
            )
        a = non_buyers[0]
        b = min(set(chosen) - {a})
        new_host, strategies, x = _attach(host, s, a, terminal=True)
        late = TimeEdge(x, b, host.lifetime + 1)
        strategies[b] = strategies.get(b, frozenset()) | {late}
        profile = StrategyProfile(setting=s.setting, strategies=strategies)

    check = is_greedy_equilibrium(profile, new_host)
    if not check.is_equilibrium:
        raise PreconditionFailed(
            "extended profile failed greedy re-verification; "
            "was the input an equilibrium?"
        )
    return new_host, profile


def _hang(host: HostGraph, strategies: dict[NodeId, frozenset[TimeEdge]]) -> list[NodeId]:
    """Hang nodes off the bought edges, one edge each, into ``strategies``;
    return the nodes left over.

    ``latest[w]`` is the latest label at which a walk standing at ``w`` still
    reaches both terminals. Latest first, an unplaced ``v`` buys the latest
    label ``L <= latest[w]`` of its pair with a placed ``w``: ``latest[v] = L``.
    """
    groups = group_by_label(e for bought in strategies.values() for e in bought)
    masks = label_reach_masks(groups, terminal_bits(host.nodes, host.terminals), ())
    # Labels ascend, so the latest one at which w has both terminal bits wins.
    latest = {w: label for label in sorted(masks) for w, m in masks[label].items() if m == 3}
    heap = sorted((-label, w, w) for w, label in latest.items())  # sorted is a heap
    while heap:
        minus, v, w = heapq.heappop(heap)
        if v != w:  # v hangs off w unless it already hangs
            if v in latest:
                continue
            latest[v] = -minus
            strategies[v] = frozenset({TimeEdge(v, w, -minus)})
        for u in host.nodes:
            if u not in latest:
                below = [l for l in host.labels(u, v) if l <= -minus]
                if below:
                    heapq.heappush(heap, (-below[-1], u, v))
    return [v for v in host.nodes if v not in latest]


def two_terminal_ne(
    host: HostGraph, setting: Setting = Setting.GLOBAL
) -> StrategyProfile:
    """Equilibrium for any host with exactly two terminals, <= n edges.

    A core joins ``t1`` and ``t2`` both ways; every other node then hangs off
    it by buying one edge (:func:`_hang`). The first core under which every
    node hangs is used. Along a path, the first end of an edge buys it.

    1. Pair: ``t2`` buys the latest label ``G`` of ``(t1, t2)``.
    2. Tie: ``t1 -x- m -x- t2``, for the largest label ``x`` of both
       ``(t1, m)`` and ``(m, t2)``, then the smallest ``m``.
    3. Ring: ``t1 -p- m -q- t2`` and ``t2 -r- n -s- t1`` with ``m != n``.
       ``q`` is the latest ``(m, t2)`` label and ``p < q`` the latest
       ``(t1, m)`` label below it, for the largest ``p``, then the smallest
       ``m``; the other half likewise with the terminals swapped.
    4. Bridge: the pair and its hung nodes stay. A node ``b`` left over buys
       ``(b, t1, p)`` and ``(b, t2, q)``, ``p != q``, for the largest
       ``min(p, q)``; ``t1`` buys the pair edge instead if ``p > q``. Then
       the rest hang.

    Why it is an equilibrium: each agent reaches both terminals, so only a
    smaller strategy could be better. A hung node pays (0, 1), and dropping
    its edge cuts it off; hung edges form pendant trees, giving no agent a new
    route. Strict label orders make every core edge its buyer's only route to
    some terminal. Every label from ``b`` to a terminal is later than ``G``,
    as ``b`` could not hang off the pair; one edge serving ``b`` instead
    would, with the pair's forest fixed, let a node left over hang off the
    pair. All purchases are incident, so the global equilibrium is also a
    local one. The result is still checked.

    Raises:
        PreconditionFailed: terminal count differs from two.
        IncompleteHost: some node pair has no label.
    """
    if host.terminal_count != 2:
        raise PreconditionFailed("construction needs exactly two terminals")
    if host.graph.static_edge_count != host.node_count * (host.node_count - 1) // 2:
        raise IncompleteHost("the two-terminal construction needs a complete host")
    t1, t2 = host.terminals
    labels = host.labels
    inner = [v for v in host.nodes if v not in host.terminal_set]

    def core(*path: tuple[NodeId, NodeId, int]) -> dict[NodeId, frozenset[TimeEdge]]:
        return {a: frozenset({TimeEdge(a, b, l)}) for a, b, l in path}

    def halves(a: NodeId, b: NodeId) -> list[tuple[int, NodeId, int]]:
        found = [(m, labels(m, b)[-1]) for m in inner]
        found = [(max((p for p in labels(a, m) if p < q), default=0), m, q) for m, q in found]
        return sorted((-p, m, q) for p, m, q in found if p)

    strategies = core((t2, t1, labels(t1, t2)[-1]))
    left = _hang(host, strategies)
    if left:
        ties = sorted((-x, m) for m in inner for x in set(labels(t1, m)) & set(labels(m, t2)))
        rings = [
            core((t1, m, -p), (m, t2, q), (t2, n, -r), (n, t1, s))
            for (p, m, q), (r, n, s) in itertools.product(halves(t1, t2), halves(t2, t1))
            if m != n
        ]
        for candidate in [core((t1, m, -x), (m, t2, -x)) for x, m in ties[:1]] + rings[:1]:
            if not _hang(host, candidate):
                strategies, left = candidate, []
                break
    if left:
        _, b, p, q = min((-min(p, q), b, p, q) for b in left for p in labels(b, t1)
                         for q in labels(b, t2) if p != q)
        strategies[b] = frozenset({TimeEdge(b, t1, p), TimeEdge(b, t2, q)})
        if p > q:
            strategies[t1] = strategies.pop(t2)
        left = _hang(host, strategies)
    profile = StrategyProfile(setting=Setting.GLOBAL, strategies=strategies)
    if left or is_nash_equilibrium(profile, host).verdict is not Verdict.EQUILIBRIUM:
        raise AssertionError("internal error: two-terminal profile is not an equilibrium")
    return profile.with_setting(setting)


def _k2_instance(setting: Setting) -> tuple[HostGraph, StrategyProfile]:
    host = HostGraph(
        graph=TemporalGraph(("0", "1"), (TimeEdge("0", "1", 1),)),
        terminals=("0", "1"),
    )
    profile = StrategyProfile(
        setting=setting, strategies={"0": frozenset({TimeEdge("0", "1", 1)})}
    )
    return host, profile


def hypercube_equilibrium(d: int) -> tuple[HostGraph, StrategyProfile]:
    """d-fold product of the single-edge two-terminal instance.

    Yields 2^d nodes (ids are bit strings), all terminals, and a local
    equilibrium buying d * 2^(d-1) time edges: the realized graph is the
    d-dimensional hypercube with dimension i bought at label i+1.

    Raises:
        PreconditionFailed: d < 1.
    """
    if d < 1:
        raise PreconditionFailed(f"need d >= 1, got {d}")
    base_host, base_profile = host, profile = _k2_instance(Setting.LOCAL)
    for _ in range(1, d):
        host, profile = graph_product(host, profile, base_host, base_profile)
        # Factor ids never hold the separator, so dropping it joins them.
        mapping = {node: node.replace(PRODUCT_SEPARATOR, "") for node in host.nodes}
        host, profile = relabel_instance(host, profile, mapping)
    return host, profile


@dataclass(frozen=True, order=True)
class DenseCycleParams:
    """Coordinates of a dense-cycle node: bag, pair index, and parity."""

    x: int
    bag: int
    pair: int
    primed: bool

    def __post_init__(self) -> None:
        if self.x < 2 or self.x % 2:
            raise PreconditionFailed(f"x must be even and >= 2, got {self.x}")
        if not 0 <= self.bag < 2 * self.x:
            raise PreconditionFailed(f"bag {self.bag} out of range")
        if not 0 <= self.pair < self.x // 2:
            raise PreconditionFailed(f"pair {self.pair} out of range")

    def node_id(self) -> NodeId:
        kind = "w" if self.primed else "v"
        return f"{kind}{self.bag:02d}.{self.pair:02d}"

    @classmethod
    def parse(cls, x: int, node_id: NodeId) -> "DenseCycleParams":
        kind, rest = node_id[0], node_id[1:]
        bag, pair = rest.split(".")
        return cls(x=x, bag=int(bag), pair=int(pair), primed=kind == "w")


@dataclass(frozen=True)
class DenseCycleInstance:
    host: HostGraph
    profile: StrategyProfile
    cycle_graph: TemporalGraph
    connected_graph: TemporalGraph


def _dense_cycle_graphs(x: int) -> tuple[list[NodeId], list[TimeEdge], list[list[TimeEdge]]]:
    """Node ids, cross-bag cycle edges, and per-bag filler paths."""
    bags = 2 * x
    half = x // 2

    def v(i: int, j: int) -> NodeId:
        return DenseCycleParams(x, i % bags, j, primed=False).node_id()

    def w(i: int, j: int) -> NodeId:
        return DenseCycleParams(x, i % bags, j, primed=True).node_id()

    nodes = [v(i, j) for i in range(bags) for j in range(half)]
    nodes += [w(i, j) for i in range(bags) for j in range(half)]
    cycle_edges: list[TimeEdge] = []
    for i in range(bags):
        for j in range(half):
            for k in range(half):
                cycle_edges.append(
                    TimeEdge(v(i, j), w(i + 1, k), (2 * (k - j)) % x + 1)
                )
                cycle_edges.append(
                    TimeEdge(w(i, j), v(i + 1, k), (2 * (k - j) + 1) % x + 1)
                )
    bag_paths: list[list[TimeEdge]] = []
    for i in range(bags):
        path = []
        for j in range(half):
            path.append(TimeEdge(v(i, j), w(i, j), x + 1))
            if j < half - 1:
                path.append(TimeEdge(w(i, j), v(i, j + 1), x + 1))
        bag_paths.append(path)
    return nodes, cycle_edges, bag_paths


def dense_cycle_instance(x: int) -> DenseCycleInstance:
    """Dense-cycle host, equilibrium profile, and both underlying graphs.

    The cycle graph G has 2x^2 nodes in 2x bags and x^3 cross-bag edges whose
    labels encode pair offsets; G' adds a label-(x+1) path inside every bag
    (2x(x-1) edges). The host completes G' with label x+2 and makes every
    node a terminal. In the (global) profile each plain node buys its unique
    forward path into the opposite bag and the first primed node of each bag
    buys the filler path of the opposite bag, so the realized graph is
    exactly G'.

    Raises:
        PreconditionFailed: x odd or < 2.
    """
    if x < 2 or x % 2:
        raise PreconditionFailed(f"x must be even and >= 2, got {x}")
    bags = 2 * x
    half = x // 2
    nodes, cycle_edges, bag_paths = _dense_cycle_graphs(x)
    cycle_graph = TemporalGraph(nodes, cycle_edges)
    filler = [e for path in bag_paths for e in path]
    connected_graph = TemporalGraph(nodes, [*cycle_edges, *filler])
    known_pairs = {e.pair for e in cycle_edges} | {e.pair for e in filler}
    host_edges = [*cycle_edges, *filler]
    for a, b in itertools.combinations(sorted(nodes), 2):
        if (a, b) not in known_pairs:
            host_edges.append(TimeEdge(a, b, x + 2))
    host = HostGraph(graph=TemporalGraph(nodes, host_edges), terminals=nodes)
    # Each plain node's forward path takes the one edge per label at its end.
    step = {(end, e.label): e for e in cycle_edges for end in e.pair}
    if len(step) < 2 * len(cycle_edges):
        raise PreconditionFailed("a cycle node has two edges with one label")
    strategies: dict[NodeId, frozenset[TimeEdge]] = {}
    for i in range(bags):
        for j in range(half):
            at = plain = DenseCycleParams(x, i, j, primed=False).node_id()
            path = []
            for label in range(1, x + 1):
                path.append(step[at, label])
                at = path[-1].other(at)
            strategies[plain] = frozenset(path)
        first_primed = DenseCycleParams(x, i, 0, primed=True).node_id()
        strategies[first_primed] = frozenset(bag_paths[(i + x) % bags])
    profile = StrategyProfile(setting=Setting.GLOBAL, strategies=strategies)
    return DenseCycleInstance(
        host=host,
        profile=profile,
        cycle_graph=cycle_graph,
        connected_graph=connected_graph,
    )


@dataclass(frozen=True)
class DenseCycleChecks:
    """Enumerated structural facts about the dense-cycle graphs."""

    x: int
    node_count: int
    cycle_edge_count: int
    connected_edge_count: int
    incident_pattern_ok: bool
    unique_opposite_path_ok: bool
    unique_beyond_path_ok: bool
    partition_ok: bool
    connected_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.incident_pattern_ok
            and self.unique_opposite_path_ok
            and self.unique_beyond_path_ok
            and self.partition_ok
            and self.connected_ok
        )


def _increasing_paths(
    adjacency: Mapping[NodeId, list[TimeEdge]], start: NodeId
) -> Iterator[tuple[NodeId, tuple[TimeEdge, ...]]]:
    """All simple paths with strictly increasing labels, yielded per prefix,
    depth-first. Each stack frame holds the rest of its node's edges."""
    stack = [(iter(adjacency[start]), start, frozenset({start}), 0, ())]
    while stack:
        edges, at, seen, last, path = stack[-1]
        for e in edges:
            nxt = e.other(at)
            if e.label > last and nxt not in seen:
                grown = (*path, e)
                yield nxt, grown
                stack.append((iter(adjacency[nxt]), nxt, seen | {nxt}, e.label, grown))
                break
        else:
            stack.pop()


def dense_cycle_lemma_checks(x: int) -> DenseCycleChecks:
    """Verify the dense-cycle structure claims by direct enumeration.

    Checks, on the cycle graph G: every node has exactly one incident edge
    per label 1..x, plain nodes crossing forward on odd labels and backward
    on even ones (primed nodes mirrored); every node has exactly one temporal
    path ending in the opposite bag and exactly one ending in the bag after
    the opposite one; the plain nodes' opposite-bag paths partition the edges
    of G. Within G all temporal paths strictly increase, because a label
    repeat would have to reuse the unique incident edge of that label.
    Finally checks that G' is temporally connected.
    """
    instance = dense_cycle_instance(x)
    graph = instance.cycle_graph
    bags = 2 * x

    def coords(node: NodeId) -> DenseCycleParams:
        return DenseCycleParams.parse(x, node)

    incident: dict[NodeId, list[TimeEdge]] = {n: [] for n in graph.nodes}
    for e in graph.time_edges():
        incident[e.u].append(e)
        incident[e.v].append(e)
    for n in incident:
        incident[n].sort()

    pattern_ok = True
    for node in graph.nodes:
        here = coords(node)
        by_label: dict[int, list[TimeEdge]] = {}
        for e in incident[node]:
            by_label.setdefault(e.label, []).append(e)
        if sorted(by_label) != list(range(1, x + 1)) or any(
            len(v) != 1 for v in by_label.values()
        ):
            pattern_ok = False
            break
        for label, (e,) in by_label.items():
            there = coords(e.other(node))
            forward = there.bag == (here.bag + 1) % bags
            backward = there.bag == (here.bag - 1) % bags
            label_odd = label % 2 == 1
            # plain nodes cross forward on odd labels; primed nodes on even
            expect_forward = label_odd != here.primed
            if not (forward if expect_forward else backward):
                pattern_ok = False
                break
        if not pattern_ok:
            break

    opposite_ok = True
    beyond_ok = True
    partition: list[frozenset[TimeEdge]] = []
    for node in graph.nodes:
        here = coords(node)
        opposite_bag = (here.bag + x) % bags
        beyond_bag = (here.bag + x + 1) % bags
        to_opposite = []
        to_beyond = []
        for end, path in _increasing_paths(incident, node):
            end_bag = coords(end).bag
            if end_bag == opposite_bag:
                to_opposite.append(path)
            elif end_bag == beyond_bag:
                to_beyond.append(path)
        if len(to_opposite) != 1:
            opposite_ok = False
        if len(to_beyond) != 1:
            beyond_ok = False
        if not here.primed and to_opposite:
            partition.append(frozenset(to_opposite[0]))

    all_edges = frozenset(graph.time_edges())
    covered: set[TimeEdge] = set()
    partition_ok = True
    for part in partition:
        if part & covered:
            partition_ok = False
            break
        covered |= part
    partition_ok = partition_ok and covered == all_edges

    connected_ok = is_terminal_spanner(instance.connected_graph, graph.nodes)

    return DenseCycleChecks(
        x=x,
        node_count=graph.node_count,
        cycle_edge_count=graph.time_edge_count,
        connected_edge_count=instance.connected_graph.time_edge_count,
        incident_pattern_ok=pattern_ok,
        unique_opposite_path_ok=opposite_ok,
        unique_beyond_path_ok=beyond_ok,
        partition_ok=partition_ok,
        connected_ok=connected_ok,
    )


def lifetime2_tree_ne(host: HostGraph) -> StrategyProfile:
    """Spanning-tree equilibrium for hosts whose lifetime is at most 2.

    With ``root`` the first terminal: if the label-2 edges connect every
    node, each node of root's earliest-arrival tree over the label-2 group
    (:func:`core.propagate_arrivals`) buys the label-2 edge of the pair that
    reached it; otherwise every pair leaving root's label-2 component
    carries label 1 (the host is complete), and a label-1 double star
    works: outsiders buy their edge to ``root``, the rest of root's
    component buys its edge to one outside hub.

    Either tree is an equilibrium in both settings. Its edges share one
    label, so every node reaches every other along the tree. Every buyer
    owns one incident edge, and dropping it cuts the buyer off from
    ``root``. A buyer pays (0 unreached, 1 edge), so only the empty strategy
    is cheaper, and it loses a terminal; non-buyers already pay (0, 0).
    The tree shape and the equilibrium are still checked.

    Raises:
        PreconditionFailed: host lifetime exceeds 2.
    """
    if host.lifetime > 2:
        raise PreconditionFailed("construction applies to lifetime <= 2 hosts")
    root = host.terminals[0]
    label2 = dict(host.graph.label_groups()).get(2, ())
    arrival, tree = propagate_arrivals(((2, label2),), root)
    if len(arrival) == host.node_count:
        strategies = {v: {TimeEdge(a, b, 2)} for v, (a, b) in tree.items()}
    else:
        outside = sorted(set(host.nodes) - arrival.keys())
        strategies = {v: {TimeEdge(v, root, 1)} for v in outside}
        for u in tree:
            strategies[u] = {TimeEdge(u, outside[0], 1)}
    profile = StrategyProfile(setting=Setting.GLOBAL, strategies=strategies)
    graph = realized_graph(profile, host)
    if (
        graph.time_edge_count != host.node_count - 1
        or len(connected_components(host.nodes, list(graph.pairs()))) != 1
        or is_nash_equilibrium(profile, host).verdict is not Verdict.EQUILIBRIUM
    ):
        raise AssertionError(
            "internal error: lifetime-2 tree is not a spanning-tree equilibrium"
        )
    return profile


def random_host(
    n: int,
    k: int,
    seed: int,
    max_label: int | None = None,
    extra_label_prob: float = 0.0,
) -> HostGraph:
    """Seeded random complete host with uniform labels, then normalized.

    ``max_label`` (at least 1) defaults to n; ``extra_label_prob`` (in [0, 1))
    is the chance of each additional label on a pair (geometric). Terminals
    are a seeded sample. Bad parameters raise :class:`PreconditionFailed`.
    """
    if n < 1 or not 1 <= k <= n:
        raise PreconditionFailed(f"bad size parameters n={n}, k={k}")
    if max_label is not None and max_label < 1:
        raise PreconditionFailed(f"max_label must be at least 1, got {max_label}")
    if not 0 <= extra_label_prob < 1:  # from 1 on, the label loop never stops
        raise PreconditionFailed(f"extra_label_prob {extra_label_prob} is not in [0, 1)")
    rng = random.Random(seed)
    width = len(str(n - 1)) if n > 1 else 1
    nodes = tuple(f"n{i:0{width}d}" for i in range(n))
    cap = max_label if max_label is not None else n
    # Zero-padded ids sort by index, so the pairs come out canonical and sorted.
    by_pair: dict[tuple[NodeId, NodeId], tuple[int, ...]] = {}
    for pair in itertools.combinations(nodes, 2):
        labels = {rng.randint(1, cap)}
        while rng.random() < extra_label_prob:
            labels.add(rng.randint(1, cap))
        by_pair[pair] = tuple(sorted(labels))
    terminals = rng.sample(nodes, k)
    return validate_and_normalize_host(TemporalGraph._from_labels(nodes, by_pair), terminals)
