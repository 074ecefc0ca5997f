"""Strategies, costs, improving-response search, and equilibrium verification.

Agents are the nodes of a host graph. Each agent buys a set of host time
edges; the union forms the realized temporal graph. An agent's cost is the
pair (terminals it cannot reach, edges it buys), compared lexicographically:
reaching terminals always dominates saving edges.

Two solution concepts are supported. A greedy equilibrium (GE) admits no
improving single-edge add or remove; a Nash equilibrium (NE) admits no
improving replacement strategy at all, so every NE is a GE. Swap moves are
never considered by the greedy search; the exact NE search subsumes them.

Every check reads one index of a profile's realized graph: its label groups,
the terminal bits, the bought edges, those that two or more agents buy and,
once asked for, the reach masks that price every agent, the removal
masks (:func:`core.removal_masks`) of the greedy remove check and the static
bridges (:func:`core.static_bridges`) of the Nash check's one-edge buyers.
Like a validation, it is memoized on the profile outside the fields, per host
object, so equality and pickling ignore it and copies build their own; a move
updates its parent's bought and shared edges by the one edge and regroups,
unless it only changes who buys a still-bought edge.
An edge of the realized graph is not the others' exactly when ``v`` alone
buys it, so the groups without ``own - shared`` are the others', in order.

Exactness of the NE search rests on two facts. First, on a complete host an
agent missing a terminal always has an improving response (direct edges to
terminals), so only agents that currently reach everything need a subset
search, and for those only strictly smaller strategies can win, capping the
search at |S_v| - 1 edges. Second, any inclusion-minimal strategy achieving a
reachability goal can be ordered so that every edge strictly improves the
earliest-arrival map of the prefix before it (an edge that never improves the
map is redundant, contradicting minimality), so depth-first search over
arrival-improving extensions visits a witness whenever one exists.

The last edge of a candidate strategy needs no full propagation. Let O be
the other agents' edges, C the chosen prefix and G' = O + C, and let
(a, b, L) improve the arrival map of G': ``a`` is reached by time L, ``b``
only later or never. Call a walk's position (node w, time t) covered when G'
reaches w by time t. A step over an edge of G' from a covered position ends
covered. So does a step over an edge of C from anywhere, because each chosen
edge improved the map when it was chosen, so G' reaches both of its ends by
its label; and so does a step from ``b`` back to ``a``. A walk from ``v`` in
G' + (a, b, L) therefore leaves the covered positions only by crossing to
``b`` at time L, and until it is covered again it uses edges of O only. The
terminals reached are thus those G' reaches plus those ``b`` reaches in O
leaving at L or later: ``reached_before | mask[L][b]``. The mask depends on
neither the prefix nor the last edge, so one backward sweep over O
(:func:`core.label_reach_masks`) serves a whole search.

The same fact lets an inner state grow its arrival map from its parent's
instead of propagating from scratch. Adding (a, b, L) sets ``b`` to L; from
there only positions that became earlier can lead anywhere new, and only
over edges of O: a chosen edge, this one included, has both ends reached by
its label, and arrivals only fall. So a walk in label order from ``b``,
relaxing the O-edges of each improved node (a small heap of (time, node)),
yields exactly the map of G' + (a, b, L) and settles each improved node once.

Each state also carries the candidates that improve its map A, as a bitmask
over candidate indices. A candidate (a, b, L) improves A exactly when one,
and only one, of its ends has A <= L. Let ``since[x][t]`` be the bits of the
candidates at ``x`` labelled t or later; the improving set is then the XOR,
over the reached nodes x, of ``since[x][A[x]]``, since a candidate's bit
survives exactly when one of its ends contributes it. The root's set comes
from one scan of the candidates; the walk above updates a parent's set by
swapping each settled node's old entry for its new one. Every arrival is 0
or a label of O or of a candidate, so one table per search serves every
state. The search pops the lowest set bit, which keeps the canonical
candidate order, and one lookup orients the popped edge: exactly one end is
reached by L, so ``b`` is the far end when ``a`` is reached by L, and ``a``
otherwise.

The candidates are every host edge the setting lets ``v`` buy, O's own
edges included, since those never improve a state's map. The map is closed
under O: the start map is a fixed point over O, and the walk above relaxes
O from every node it improves. So an edge of O has both ends or neither end
reached by its label, and the XOR cancels its bit.

In the local setting every candidate touches ``v``, which gives the union
lemma: a strategy S reaches the terminals O reaches from ``v`` plus, for
each (v, b, L) in S, ``masks[L][b]``. A walk in O + S to a terminal either
uses no edge of S, or its part after its last edge of S is a walk over O
that leaves ``b`` at L or later, or leaves ``v`` itself, which O reaches at
time 0. So a pass r can win only if at most r of these masks, ORed with
the start's terminals, cover ``need``: a maximum-coverage question over
integers, decided by branch and bound on its own stack. A mask that another
contains is dropped (so is every later label into the same far node, as
``masks[L][b]`` only shrinks as L grows), and a node is pruned when its
cover plus its r' largest marginal gains falls short, r' being the masks
still to choose. The search skips every pass whose check fails and walks
from the first, r*, that succeeds. The witness stays the plain search's.
A witness of a pass is a cover for it, so every pass the check fails, the
plain walk fails too. Take an inclusion-minimal cover T of ``need(r*)``. As
``need`` never falls as r grows, a T of fewer than r* masks would have
passed an earlier check, so T has r* edges; it is an inclusion-minimal
strategy that wins, so the plain walk of pass r* finds a witness, and the
same walk returns the same first one. The check makes no propagation. Each
of its nodes counts one unit of the budget and of ``states_examined``, so
a budget can still leave a local search inexact.

The greedy check tests a single add with the same lookup (O is then the
whole realized graph G and C is empty). A remove of an edge that another
agent also buys leaves G as it is; any other remove loses the terminals of
``v``'s reach mask that G without the edge misses, which the index reads
from :func:`core.removal_masks`. So ``v``'s arrival map is propagated only
for the add scan, when ``v`` misses a terminal.

The one-edge rule: a Nash check settles a buyer ``v`` of one edge ``e``
without a search. ``v`` reaches every terminal by then and pays (0, 1), so
only the empty strategy is cheaper; it wins (the search's answer after 1
state, else none after 0) exactly when ``v`` loses no terminal without
``e``, as when another agent buys ``e`` too. If ``e``'s pair is a static
bridge carrying one label, ``v`` keeps exactly its reach mask on its own
side. The bridge lemma: a temporal walk that crosses a bridge must come
back over it at a label no earlier, so cutting out that excursion keeps the
walk temporal. One depth-first pass finds a profile's bridges in O(n + m);
any other loss is read from the removal masks.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from types import MappingProxyType

from .core import (
    HostGraph,
    LabelGroups,
    NodeId,
    TemporalGraph,
    TimeEdge,
    group_by_label,
    label_reach_masks,
    propagate_arrivals,
    reach_masks,
    removal_masks,
    static_bridges,
    terminal_bits,
)
from .errors import (
    InvalidPurchase,
    NotOwned,
    NotSimple,
    SettingMismatch,
    UnknownNode,
)

_INF = float("inf")


class Setting(str, Enum):
    """Edge-buying restriction: local agents buy incident edges only."""

    LOCAL = "local"
    GLOBAL = "global"


class EquilibriumKind(str, Enum):
    """Which solution concept a verified profile satisfies."""

    NASH = "ne"
    GREEDY = "ge"


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy set per agent, under a fixed setting.

    Empty strategies are dropped during normalization, so profiles that differ
    only by explicit-versus-implicit empty sets compare equal. Agents without
    an entry buy nothing.
    """

    setting: Setting
    strategies: Mapping[NodeId, frozenset[TimeEdge]]
    _valid_for = None  # not a field: the host ``validate`` last passed against
    _index = None  # not a field: (host, _RealizedIndex) of the last index build

    def __post_init__(self) -> None:
        cleaned = {
            agent: frozenset(edges)
            for agent, edges in sorted(self.strategies.items())
            if edges
        }
        object.__setattr__(self, "strategies", MappingProxyType(cleaned))

    def __reduce__(self):
        # Mapping proxies cannot be pickled; rebuild from a plain dict.
        return (self.__class__, (self.setting, dict(self.strategies)))

    @classmethod
    def empty(cls, setting: Setting) -> "StrategyProfile":
        return cls(setting=setting, strategies={})

    @property
    def buyers(self) -> tuple[NodeId, ...]:
        """Agents with at least one purchase, canonical order."""
        return tuple(self.strategies)

    def strategy(self, agent: NodeId) -> frozenset[TimeEdge]:
        return self.strategies.get(agent, frozenset())

    def with_strategy(self, agent: NodeId, edges: Iterable[TimeEdge]) -> "StrategyProfile":
        updated = dict(self.strategies)
        new_set = frozenset(edges)
        if new_set:
            updated[agent] = new_set
        else:
            updated.pop(agent, None)
        return StrategyProfile(setting=self.setting, strategies=updated)

    def with_setting(self, setting: Setting) -> "StrategyProfile":
        return StrategyProfile(setting=setting, strategies=dict(self.strategies))

    def bought_edges(self) -> frozenset[TimeEdge]:
        """Union of all strategies (duplicate purchases merge)."""
        union: set[TimeEdge] = set()
        for edges in self.strategies.values():
            union |= edges
        return frozenset(union)

    def total_purchases(self) -> int:
        """Sum of strategy sizes; counts duplicate purchases twice."""
        return sum(len(edges) for edges in self.strategies.values())

    def relabel(self, mapping: Mapping[NodeId, NodeId]) -> "StrategyProfile":
        """Rename agents and endpoints through ``mapping``, which must be total
        and injective on them, as :meth:`TemporalGraph.relabel_nodes` checks."""
        ends = (x for edge in self.bought_edges() for x in (edge.u, edge.v))
        TemporalGraph((*self.strategies, *ends)).relabel_nodes(mapping)
        return StrategyProfile(
            setting=self.setting,
            strategies={
                mapping[agent]: frozenset(
                    TimeEdge(mapping[e.u], mapping[e.v], e.label) for e in edges
                )
                for agent, edges in self.strategies.items()
            },
        )

    def validate(self, host: HostGraph) -> None:
        """Check agent membership, host membership, and locality.

        A pass is remembered outside the fields (equality, hashing and
        pickling ignore it), so the same immutable host is not checked twice.

        Raises:
            UnknownNode: an agent is not a host node.
            InvalidPurchase: a bought time edge is absent from the host, or a
                local agent buys a non-incident edge.
        """
        if self._valid_for is host:
            return
        for agent, edges in self.strategies.items():
            if agent not in host.graph:
                raise UnknownNode(f"agent {agent!r} is not a node of the host")
            for edge in edges:
                self._check_purchase(agent, edge, host)
        object.__setattr__(self, "_valid_for", host)

    def _check_purchase(self, agent: NodeId, edge: TimeEdge, host: HostGraph) -> None:
        if not host.has_time_edge(edge):
            raise InvalidPurchase(f"{edge} is not offered by the host")
        if self.setting is Setting.LOCAL and not edge.touches(agent):
            raise InvalidPurchase(
                f"local agent {agent!r} cannot buy non-incident edge {edge}"
            )


@dataclass(frozen=True, order=True)
class CostBreakdown:
    """Lexicographic agent cost: unreached terminals first, then edges.

    Field order matters: dataclass ordering compares (unreached, edges),
    which is the game's cost order. ``numeric`` reproduces the scalar form
    |S_v| + C * unreached; for C > |Λ_H| the two orders coincide.
    """

    unreached_terminals: int
    edges_bought: int

    @property
    def total(self) -> tuple[int, int]:
        return (self.unreached_terminals, self.edges_bought)

    def numeric(self, c: int) -> int:
        return self.edges_bought + c * self.unreached_terminals


@dataclass(frozen=True)
class Certificate:
    """A named size bound evaluated against the realized edge count."""

    value: int
    bound: float
    holds: bool


class Verdict(str, Enum):
    EQUILIBRIUM = "equilibrium"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DeviationWitness:
    """An agent together with a strategy that strictly improves its cost."""

    agent: NodeId
    strategy: frozenset[TimeEdge]


@dataclass(frozen=True)
class VerificationReport:
    verdict: Verdict
    witness: DeviationWitness | None = None
    certificates: Mapping[str, Certificate] = field(default_factory=dict)
    states_examined: int = 0
    # For an inconclusive verdict, the agents whose search ran out of budget,
    # in node order; empty otherwise.
    exhausted: tuple[NodeId, ...] = ()

    @property
    def is_equilibrium(self) -> bool:
        return self.verdict is Verdict.EQUILIBRIUM


@dataclass(frozen=True)
class SearchOutcome:
    """Result of an improving-response search.

    ``response`` is None when no improving strategy was found; ``exact`` tells
    whether that none is a proof (search space fully covered) or only a
    budget-limited heuristic answer. A found response is always valid.

    ``states_examined``, the unit a ``budget`` caps, counts the candidate
    sets the walk examines in the global setting. In the local setting it
    counts the coverage check's branch-and-bound nodes over every pass plus
    the walk's states in the one pass that walk runs (module docstring).
    """

    response: frozenset[TimeEdge] | None
    exact: bool
    states_examined: int


@dataclass(frozen=True)
class GreedyMove:
    """A single-edge strategy change (action is "add" or "remove")."""

    action: str
    edge: TimeEdge
    new_strategy: frozenset[TimeEdge]


@dataclass(frozen=True)
class DynamicsResult:
    profile: StrategyProfile
    converged: bool
    rounds: int
    report: VerificationReport | None


def realized_graph(s: StrategyProfile, host: HostGraph) -> TemporalGraph:
    """Union of all bought time edges over the host's node set."""
    s.validate(host)
    return TemporalGraph(host.nodes, s.bought_edges())


def _require_node(host: HostGraph, v: NodeId) -> None:
    if v not in host.graph:
        raise UnknownNode(f"{v!r} is not a node of the host")


@dataclass(frozen=True)
class _RealizedIndex:
    """One profile's realized graph, read by every check in this module."""

    groups: LabelGroups
    bits: dict[NodeId, int]
    full: int
    bought: frozenset[TimeEdge]
    shared: frozenset[TimeEdge]  # edges that two or more agents buy

    @classmethod
    def build(
        cls, host: HostGraph, bought: Collection[TimeEdge], shared=frozenset()
    ) -> _RealizedIndex:
        bits = terminal_bits(host.nodes, host.terminals)
        groups = group_by_label(bought)
        return cls(groups, bits, sum(bits.values()), frozenset(bought), frozenset(shared))

    @functools.cached_property
    def masks(self) -> dict[NodeId, int]:
        return reach_masks(self.groups, self.bits)

    @functools.cached_property
    def without(self) -> Callable[[TimeEdge], dict[NodeId, int]]:
        return removal_masks(self.groups, self.bits)

    @functools.cached_property
    def bridges(self) -> tuple[dict[NodeId, int], dict]:
        return static_bridges(self.groups, self.bits)

    def lost(self, v: NodeId, edge: TimeEdge, bridged: bool = False) -> int:
        """Bits of the terminals ``v`` stops reaching once it drops its
        purchase of ``edge``: none when another agent also buys it. With
        ``bridged``, a bridge is read off :attr:`bridges` (module docstring)."""
        if edge in self.shared:
            return 0
        span = self.bridges[1].get((edge.u, edge.v)) if bridged else None
        if span is None:
            return self.masks[v] & ~self.without(edge)[v]
        lo, hi, below = span
        return self.masks[v] & (~below if lo <= self.bridges[0][v] < hi else below)

    def moved(self, s: StrategyProfile, edge: TimeEdge) -> _RealizedIndex:
        """The index of ``s``, a profile that differs from this index's only in
        who buys ``edge``; this index is left unchanged (module docstring)."""
        buyers = sum(edge in own for own in s.strategies.values())
        shared = self.shared | {edge} if buyers > 1 else self.shared - {edge}
        if (edge in self.bought) == (buyers > 0):
            # Only who buys a still-bought edge changed: the graph is the same,
            # so a shallow copy keeps the groups and the cached masks.
            moved = copy.copy(self)
            object.__setattr__(moved, "shared", shared)
            return moved
        bought = self.bought | {edge} if buyers else self.bought - {edge}
        return _RealizedIndex(group_by_label(bought), self.bits, self.full, bought, shared)


def _remember(s: StrategyProfile, host: HostGraph, index: _RealizedIndex) -> None:
    """Memoize ``index`` as ``s``'s, with ``s`` proved valid on ``host``."""
    object.__setattr__(s, "_valid_for", host)
    object.__setattr__(s, "_index", (host, index))


def _realized_index(s: StrategyProfile, host: HostGraph) -> _RealizedIndex:
    """The index of ``s`` on ``host``, built and ``s`` validated once per
    host object (module docstring)."""
    memo = s._index
    if memo is not None and memo[0] is host:
        return memo[1]
    s.validate(host)
    bought: set[TimeEdge] = set()
    shared: set[TimeEdge] = set()
    for edges in s.strategies.values():
        shared |= bought & edges
        bought |= edges
    index = _RealizedIndex.build(host, bought, shared)
    _remember(s, host, index)
    return index


def _others_groups(index: _RealizedIndex, own: frozenset[TimeEdge]) -> LabelGroups:
    """The realized groups without the pairs that only ``own``'s agent
    buys, which are the other agents' groups; a group holding none of them
    is passed through as it is, and an emptied group is dropped."""
    mine: dict[int, set[tuple[NodeId, NodeId]]] = {}
    for edge in own - index.shared:
        mine.setdefault(edge.label, set()).add((edge.u, edge.v))
    groups = []
    for label, pairs in index.groups:
        drop = mine.get(label)
        if drop:
            pairs = tuple(pair for pair in pairs if pair not in drop)
            if not pairs:
                continue
        groups.append((label, pairs))
    return tuple(groups)


def _reached_bits(arrival: Iterable[NodeId], bits: Mapping[NodeId, int]) -> int:
    reached = 0
    for node in arrival:
        reached |= bits[node]
    return reached


def agent_cost(v: NodeId, s: StrategyProfile, host: HostGraph) -> CostBreakdown:
    """Cost of agent ``v`` under profile ``s``, priced by the reach masks of
    the profile's index (its own reachability counts)."""
    _require_node(host, v)
    unreached = host.terminal_count - _realized_index(s, host).masks[v].bit_count()
    return CostBreakdown(unreached_terminals=unreached, edges_bought=len(s.strategy(v)))


def social_cost(s: StrategyProfile, host: HostGraph) -> CostBreakdown:
    """Sum of all agent breakdowns.

    Edges bought by two agents count twice here; at any equilibrium strategies
    are disjoint, so the edge component then equals the realized edge count.
    """
    k = host.terminal_count
    masks = _realized_index(s, host).masks
    unreached_total = sum(k - mask.bit_count() for mask in masks.values())
    return CostBreakdown(
        unreached_terminals=unreached_total, edges_bought=s.total_purchases()
    )


def _setting_candidates(host: HostGraph, v: NodeId, setting: Setting) -> Sequence[TimeEdge]:
    """Host time edges the agent may buy, canonical order."""
    if setting is Setting.GLOBAL:
        return host.sorted_time_edges
    return [edge for edge in host.sorted_time_edges if edge.touches(v)]


def _adjacency(groups: LabelGroups) -> dict[NodeId, list[tuple[int, NodeId]]]:
    """node -> [(label, neighbour)] over the grouped pairs, in label order."""
    adjacency: dict[NodeId, list[tuple[int, NodeId]]] = {}
    for label, pairs in groups:
        for u, v in pairs:
            adjacency.setdefault(u, []).append((label, v))
            adjacency.setdefault(v, []).append((label, u))
    return adjacency


def _since_table(
    nodes: Iterable[NodeId], candidates: list[TimeEdge], times: Iterable[int]
) -> dict[NodeId, dict[int, int]]:
    """``since[x][t]``: the bits of the candidates at ``x`` labelled ``t`` or
    later, for every node ``x`` and every ``t`` in ``times``."""
    at: dict[NodeId, list[tuple[int, int]]] = {}
    for i, edge in enumerate(candidates):
        for x in (edge.u, edge.v):
            at.setdefault(x, []).append((edge.label, 1 << i))
    times = sorted(times, reverse=True)
    zero = dict.fromkeys(times, 0)
    since = dict.fromkeys(nodes, zero)
    for x, row in at.items():
        row.sort(reverse=True)
        since[x] = table = {}
        mask = j = 0
        for t in times:
            while j < len(row) and row[j][0] >= t:
                mask |= row[j][1]
                j += 1
            table[t] = mask
    return since


def _grow_frame(
    arrival: dict[NodeId, int],
    improving: int,
    reached: int,
    far: NodeId,
    label: int,
    adjacency: dict,
    since: dict[NodeId, dict[int, int]],
    bits: Mapping[NodeId, int],
) -> tuple[dict[NodeId, int], int, int]:
    """A frame's arrival map, improving set and reached terminals once an
    improving edge newly reaches ``far`` at ``label``; ``adjacency`` holds
    only the other agents' edges (module docstring)."""
    grown = dict(arrival)
    grown[far] = label
    heap = [(label, far)]
    while heap:
        t, x = heappop(heap)
        if t > grown[x]:
            continue
        # ``x`` settles here, once, at its new arrival ``t``.
        row = since[x]
        old = arrival.get(x)
        if old is None:
            reached |= bits[x]
            improving ^= row[t]
        else:
            improving ^= row[old] ^ row[t]
        for lab, y in adjacency.get(x, ()):
            if lab >= t and grown.get(y, _INF) > lab:
                grown[y] = lab
                heappush(heap, (lab, y))
    return grown, improving, reached


def _covers(
    gains: list[int], r: int, need: int, examined: int, budget: int | None
) -> tuple[bool, int]:
    """Whether at most ``r`` of ``gains`` OR to ``need`` or more bits, and
    ``examined`` plus the branch-and-bound nodes popped; the search stops with
    False once that total passes ``budget``. A node is pruned when its cover
    plus its ``left`` largest marginal gains falls short of ``need``."""
    stack = [(0, 0, r)]
    while stack:
        covered, first, left = stack.pop()
        examined += 1
        if budget is not None and examined > budget:
            return False, examined
        have = covered.bit_count()
        if have >= need:
            return True, examined
        if not left:
            continue
        marginal = sorted(
            ((gain & ~covered).bit_count(), j)
            for j, gain in enumerate(gains[first:], first)
        )
        if have + sum(m for m, _ in marginal[-left:]) >= need:
            # The largest marginal gain is popped first.
            stack.extend(
                (covered | gains[j], j + 1, left - 1) for m, j in marginal if m
            )
    return False, examined


def find_improving_response(
    v: NodeId,
    s: StrategyProfile,
    host: HostGraph,
    budget: int | None = None,
) -> SearchOutcome:
    """Search for a strategy that strictly lowers ``v``'s cost.

    The search runs iterative deepening over response size r = 0..r_max and
    at each size explores only extension edges that strictly improve the
    current earliest-arrival map from ``v`` (see module docstring for why
    this is complete for inclusion-minimal witnesses). The returned
    response, if any, is the first witness of minimum size in canonical
    order. The depth-first walk keeps its own stack, so its depth does not
    depend on Python's recursion limit; each frame carries its improving
    extensions as a bitmask, and the last edge of each candidate is tested
    by one lookup in masks built once per search (module docstring). In the
    local setting a coverage check over the same masks skips every size
    that cannot win, so the walk runs only from the first size that can.

    ``r_max`` is |S_v| - 1 when v already reaches every terminal and the
    terminal count otherwise (direct edges always fit in that size), so a
    none-result is exact unless ``budget``, the cap on ``states_examined``
    (:class:`SearchOutcome`), ran out; exhausting it can only downgrade a
    none-result to inexact, never flip a verdict.
    """
    _require_node(host, v)
    index = _realized_index(s, host)
    own = s.strategy(v)
    e0 = len(own)
    k = host.terminal_count
    current = CostBreakdown(k - index.masks[v].bit_count(), e0)
    current_unreached = current.unreached_terminals
    r_max = e0 - 1 if current_unreached == 0 else k
    if r_max < 0:
        return SearchOutcome(response=None, exact=True, states_examined=0)
    others = _others_groups(index, own)
    bits = index.bits
    start_arrival, _ = propagate_arrivals(others, v)
    start_reached = _reached_bits(start_arrival, bits)
    if CostBreakdown(k - start_reached.bit_count(), 0) < current:
        return SearchOutcome(response=frozenset(), exact=True, states_examined=1)
    if r_max == 0:
        return SearchOutcome(response=None, exact=True, states_examined=0)

    # The other agents' edges never improve a frame's map (module docstring).
    candidates = _setting_candidates(host, v, s.setting)
    masks = label_reach_masks(others, bits, {edge.label for edge in candidates})
    # The root's improving set: one end reached by the label, the other not.
    start_improving = 0
    for i, edge in enumerate(candidates):
        label = edge.label
        if (start_arrival.get(edge.u, _INF) <= label) != (
            start_arrival.get(edge.v, _INF) <= label
        ):
            start_improving |= 1 << i
    since = None
    gains = None
    if s.setting is Setting.LOCAL:
        # The union lemma: an own edge (v, b, L) adds ``masks[L][b]`` to what
        # the others' edges reach. Equal gains merge and a gain that another
        # contains is dropped; the largest come first.
        gains = []
        for gain in sorted(
            {masks[edge.label][edge.other(v)] & ~start_reached for edge in candidates},
            key=int.bit_count,
            reverse=True,
        ):
            if gain and all(gain & kept != gain for kept in gains):
                gains.append(gain)
    examined = 0
    for r in range(1, r_max + 1):
        # (unreached, r) < current exactly when at least ``need`` terminals
        # are reached.
        need = k - current_unreached + (r >= e0)
        if gains is not None:
            # A pass that no r own edges can win is skipped (module docstring).
            covered, examined = _covers(
                gains, r, need - start_reached.bit_count(), examined, budget
            )
            if budget is not None and examined > budget:
                return SearchOutcome(
                    response=None, exact=False, states_examined=examined
                )
            if not covered:
                continue
        if r >= 2 and since is None:
            # Read only by inner states; the adjacency is over O only.
            adjacency = _adjacency(others)
            since = _since_table(host.nodes, candidates, (0, *masks))
        # States are sets of candidate indices, keyed as bitmasks.
        visited: set[int] = set()
        # Frames: (chosen edges, their key, their arrival map, its improving
        # candidates, those not yet tried, its reached terminals).
        stack = [((), 0, start_arrival, start_improving, start_improving, start_reached)]
        while stack:
            chosen, key, arrival, improving, rest, reached = stack.pop()
            last = len(chosen) == r - 1
            while rest:
                # Lowest index first: the canonical candidate order.
                bit = rest & -rest
                rest ^= bit
                state = key | bit
                if state in visited:
                    continue
                visited.add(state)
                examined += 1
                if budget is not None and examined > budget:
                    return SearchOutcome(
                        response=None, exact=False, states_examined=examined
                    )
                edge = candidates[bit.bit_length() - 1]
                label = edge.label
                # Exactly one end is reached by ``label``; the other is far.
                far = edge.v if arrival.get(edge.u, _INF) <= label else edge.u
                if last:
                    if (reached | masks[label][far]).bit_count() >= need:
                        return SearchOutcome(
                            response=frozenset((*chosen, edge)),
                            exact=True,
                            states_examined=examined,
                        )
                else:
                    stack.append((chosen, key, arrival, improving, rest, reached))
                    arrival, improving, reached = _grow_frame(
                        arrival, improving, reached, far, label, adjacency, since, bits
                    )
                    stack.append(
                        ((*chosen, edge), state, arrival, improving, improving, reached)
                    )
                    break
    return SearchOutcome(response=None, exact=True, states_examined=examined)


def _assert_improving(
    witness: DeviationWitness, s: StrategyProfile, host: HostGraph
) -> None:
    # Report invariant: a refutation witness must strictly improve its agent.
    # The new profile is validated and indexed afresh.
    v = witness.agent
    before = agent_cost(v, s, host)
    after = agent_cost(v, s.with_strategy(v, witness.strategy), host)
    if not after < before:
        raise AssertionError(
            f"internal error: witness for {witness.agent!r} does not improve "
            f"({before.total} -> {after.total})"
        )


def is_nash_equilibrium(
    s: StrategyProfile, host: HostGraph, budget: int | None = None
) -> VerificationReport:
    """Exact NE verification (subject to ``budget``).

    Agents missing a terminal are refuted immediately with a direct-edge add.
    Of the others, agents that buy nothing already pay the least cost (0, 0)
    and are skipped, and buyers of one edge are settled by the one-edge rule
    (module docstring), which reports what their search would. Only buyers
    of two or more edges run the exact improving-response search over
    responses of at most |S_v| - 1 edges. The verdict is inconclusive only
    if some agent's search hit the budget and no other agent was refuted
    outright; its report then names those agents.
    """
    index = _realized_index(s, host)
    bits, full, masks = index.bits, index.full, index.masks
    examined_total = 0
    exhausted: list[NodeId] = []
    for v in host.nodes:
        if masks[v] != full:
            # Add a direct edge to the first terminal that v misses.
            target = next(t for t in host.terminals if not masks[v] & bits[t])
            edge = TimeEdge(v, target, host.min_label(v, target))
            witness = DeviationWitness(agent=v, strategy=s.strategy(v) | {edge})
            _assert_improving(witness, s, host)
            return VerificationReport(
                verdict=Verdict.REFUTED,
                witness=witness,
                states_examined=examined_total,
            )
        own = s.strategies.get(v)
        if own is None:
            continue
        if len(own) > 1:
            outcome = find_improving_response(v, s, host, budget=budget)
        elif index.lost(v, *own, bridged=True):
            continue  # the one-edge rule (module docstring)
        else:
            outcome = SearchOutcome(response=frozenset(), exact=True, states_examined=1)
        examined_total += outcome.states_examined
        if outcome.response is not None:
            witness = DeviationWitness(agent=v, strategy=outcome.response)
            _assert_improving(witness, s, host)
            return VerificationReport(
                verdict=Verdict.REFUTED,
                witness=witness,
                states_examined=examined_total,
            )
        if not outcome.exact:
            exhausted.append(v)
    if exhausted:
        return VerificationReport(
            verdict=Verdict.INCONCLUSIVE,
            states_examined=examined_total,
            exhausted=tuple(exhausted),
        )
    return VerificationReport(
        verdict=Verdict.EQUILIBRIUM,
        certificates=equilibrium_certificates(s, host, kind=EquilibriumKind.NASH),
        states_examined=examined_total,
    )


def direct_terminal_profile(host: HostGraph, setting: Setting) -> StrategyProfile:
    """Every node buys a cheapest direct edge to every terminal but itself.

    The realized graph is a terminal spanner, so this is a convenient valid
    starting point for dynamics in either setting (all purchases incident).
    """
    strategies: dict[NodeId, frozenset[TimeEdge]] = {}
    for v in host.nodes:
        bought = frozenset(
            TimeEdge(v, t, host.min_label(v, t)) for t in host.terminals if t != v
        )
        if bought:
            strategies[v] = bought
    return StrategyProfile(setting=setting, strategies=strategies)


def greedy_improving_response(
    v: NodeId, s: StrategyProfile, host: HostGraph
) -> GreedyMove | None:
    """First improving single-edge add or remove, adds scanned first.

    An add must newly reach at least one terminal; a remove must lose none.
    Those conditions are exactly strict lexicographic cost improvement for
    single-edge changes. Swaps are intentionally not considered.

    Adds are scanned only when ``v`` misses a terminal: one propagation over
    the realized graph gives ``v``'s arrival map, and each candidate is
    tested by one lookup in per-label reach masks. An own edge is removable
    when the index's removal masks lose no terminal of ``v`` without it
    (module docstring).
    """
    _require_node(host, v)
    index = _realized_index(s, host)
    own = s.strategy(v)
    reached = index.masks[v]
    if reached != index.full:
        arrival, _ = propagate_arrivals(index.groups, v)
        candidates = _setting_candidates(host, v, s.setting)
        masks = label_reach_masks(
            index.groups, index.bits, {edge.label for edge in candidates}
        )
        for edge in candidates:
            # Only an edge that improves the map can reach anything new.
            au = arrival.get(edge.u, _INF)
            av = arrival.get(edge.v, _INF)
            if au <= edge.label < av:
                far = edge.v
            elif av <= edge.label < au:
                far = edge.u
            else:
                continue
            if masks[edge.label][far] & ~reached:
                return GreedyMove(action="add", edge=edge, new_strategy=own | {edge})
    for edge in sorted(own):
        if not index.lost(v, edge):
            return GreedyMove(action="remove", edge=edge, new_strategy=own - {edge})
    return None


def is_greedy_equilibrium(s: StrategyProfile, host: HostGraph) -> VerificationReport:
    """GE verification: no agent has an improving single-edge add or remove.

    One backward sweep over the profile's index gives every agent's reached
    terminals. An agent that buys nothing and reaches every terminal has no
    add and no remove, so it is skipped; every other agent gets one
    :func:`greedy_improving_response` check, which reads the same memoized
    index.
    """
    index = _realized_index(s, host)
    for v in host.nodes:
        if index.masks[v] == index.full and v not in s.strategies:
            continue
        move = greedy_improving_response(v, s, host)
        if move is not None:
            witness = DeviationWitness(agent=v, strategy=move.new_strategy)
            _assert_improving(witness, s, host)
            return VerificationReport(verdict=Verdict.REFUTED, witness=witness)
    return VerificationReport(
        verdict=Verdict.EQUILIBRIUM,
        certificates=equilibrium_certificates(s, host, kind=EquilibriumKind.GREEDY),
    )


def greedy_dynamics(
    s0: StrategyProfile, host: HostGraph, max_rounds: int = 100
) -> DynamicsResult:
    """Round-robin greedy dynamics until a silent round or ``max_rounds``.

    On convergence the final profile is re-verified by is_greedy_equilibrium
    and the report attached. Non-convergence is reported, not raised;
    ``max_rounds=0`` runs no round and reports exactly that. A move updates
    its parent's bought and shared edges by the one edge and regroups, only
    an added edge is validated, and the final check reuses that index.

    Raises:
        ValueError: ``max_rounds`` is negative.
    """
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be nonnegative, got {max_rounds}")
    current = s0
    current.validate(host)
    for round_index in range(1, max_rounds + 1):
        moved = False
        for v in host.nodes:
            move = greedy_improving_response(v, current, host)
            if move is not None:
                parent = _realized_index(current, host)
                current = current.with_strategy(v, move.new_strategy)
                if move.action == "add":
                    current._check_purchase(v, move.edge, host)
                _remember(current, host, parent.moved(current, move.edge))
                moved = True
        if not moved:
            report = is_greedy_equilibrium(current, host)
            if not report.is_equilibrium:
                raise AssertionError("internal error: silent round is not a GE")
            return DynamicsResult(
                profile=current, converged=True, rounds=round_index, report=report
            )
    return DynamicsResult(
        profile=current, converged=False, rounds=max_rounds, report=None
    )


def necessary_terminals(
    e: TimeEdge, buyer: NodeId, s: StrategyProfile, host: HostGraph
) -> frozenset[NodeId]:
    """Terminals the buyer reaches with ``e`` in its strategy but not without.

    Removal acts on the buyer's strategy and the realized graph is re-formed,
    so an edge that another agent also buys is never necessary. Otherwise
    the answer is what the greedy remove check reads: the buyer's terminals
    that the index's removal masks without ``e`` miss.
    """
    _require_node(host, buyer)
    index = _realized_index(s, host)
    if e not in s.strategy(buyer):
        raise NotOwned(f"{e} is not bought by {buyer!r}")
    lost = index.lost(buyer, e)
    return frozenset(t for t in host.terminals if lost & index.bits[t])


@dataclass(frozen=True)
class ForbiddenStructure:
    """Witness of the structure no local equilibrium can contain.

    Two distinct agents u1, u2 adjacent to a common node z each keep two
    distinct edges, one necessary for terminal x and one for terminal y, all
    labelled no earlier than their edge to z. Around an equilibrium either
    agent could reroute through z, so a correct profile never produces this.
    """

    z: NodeId
    u1: NodeId
    u2: NodeId
    x: NodeId
    y: NodeId
    e1x: TimeEdge
    e1y: TimeEdge
    e2x: TimeEdge
    e2y: TimeEdge


def find_forbidden_structure(
    s: StrategyProfile, host: HostGraph
) -> ForbiddenStructure | None:
    """Exhaustive scan for the forbidden local-equilibrium structure.

    Requires a local profile whose realized graph is simple. On correct
    inputs this returns None.

    Raises:
        SettingMismatch: profile is not local.
        NotSimple: realized graph carries two labels on some pair.
    """
    if s.setting is not Setting.LOCAL:
        raise SettingMismatch("forbidden-structure scan applies to local profiles")
    graph = realized_graph(s, host)
    if not graph.is_simple:
        raise NotSimple("realized graph must carry one label per pair")

    @functools.cache
    def necessary(edge: TimeEdge, buyer: NodeId) -> frozenset[NodeId]:
        return necessary_terminals(edge, buyer, s, host)

    def kept_edges(u: NodeId, z: NodeId, threshold: int) -> list[TimeEdge]:
        # Edges u buys, other than {z, u}, labelled no earlier than {z, u}.
        pair = (min(z, u), max(z, u))
        return [
            e
            for e in sorted(s.strategy(u))
            if e.pair != pair and e.label >= threshold
        ]

    terminal_pairs = list(itertools.combinations(host.terminals, 2))
    for z in graph.nodes:
        neighbors = [u for u in graph.nodes if u != z and graph.labels(z, u)]
        for u1, u2 in itertools.combinations(neighbors, 2):
            kept1 = kept_edges(u1, z, graph.labels(z, u1)[0])
            kept2 = kept_edges(u2, z, graph.labels(z, u2)[0])
            # Fewer than two kept edges on either side leave no permutation.
            for (x, y), (e1x, e1y), (e2x, e2y) in itertools.product(
                terminal_pairs,
                itertools.permutations(kept1, 2),
                itertools.permutations(kept2, 2),
            ):
                if (
                    x in necessary(e1x, u1)
                    and y in necessary(e1y, u1)
                    and e2x not in (e1x, e1y)
                    and x in necessary(e2x, u2)
                    and e2y not in (e1x, e1y)
                    and y in necessary(e2y, u2)
                ):
                    return ForbiddenStructure(
                        z=z, u1=u1, u2=u2, x=x, y=y,
                        e1x=e1x, e1y=e1y, e2x=e2x, e2y=e2y,
                    )
    return None


def equilibrium_certificates(
    s: StrategyProfile, host: HostGraph, kind: EquilibriumKind = EquilibriumKind.NASH
) -> dict[str, Certificate]:
    """Size bounds the realized graph of a verified equilibrium must satisfy.

    - lifetime_density: at most lifetime * (n - 1) edges, any setting and
      kind (a label class of size n would close a droppable monochromatic
      cycle).
    - local_ge_density (local profiles): strictly fewer than sqrt(6k)*n + n
      edges; denser local graphs are never greedy-stable.
    - global_ne_size (global profiles, NE only): at most k * (n - 1) edges.
      Global greedy equilibria can be denser, so the bound is not attached
      for kind "ge".
    """
    m = len(_realized_index(s, host).bought)
    n = host.node_count
    k = host.terminal_count
    lifetime = host.lifetime
    certificates: dict[str, Certificate] = {
        "lifetime_density": Certificate(
            value=m, bound=float(lifetime * (n - 1)), holds=m <= lifetime * (n - 1)
        )
    }
    if s.setting is Setting.LOCAL:
        bound = math.sqrt(6 * k) * n + n
        certificates["local_ge_density"] = Certificate(value=m, bound=bound, holds=m < bound)
    if s.setting is Setting.GLOBAL and kind is EquilibriumKind.NASH:
        certificates["global_ne_size"] = Certificate(
            value=m, bound=float(k * (n - 1)), holds=m <= k * (n - 1)
        )
    return certificates
