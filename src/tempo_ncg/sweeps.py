"""Ownership sweeps: who buys each edge of a fixed realized graph.

Given a host and a target realized graph, a sweep enumerates every way of
assigning each time edge to one buying agent (either endpoint in the local
setting, any node in the global one) and verifies each assignment exactly.
A sound pre-filter shrinks the space first: an owner that could drop its edge
without losing a terminal always improves by doing so, so only assignments
giving every edge to a node that needs it can be equilibria. Needing is a
property of the target graph alone, so the filter is per-edge and the
surviving space is a cartesian product.

Every surviving assignment realizes the same spanning target and gives each
edge exactly one owner, chosen among that edge's needers, so the other
agents' edges are exactly the target minus the agent's own set ``S``. An
agent's best response therefore depends on ``(agent, S)`` alone. Two kinds
of buyer need no search at all:

- An agent that buys nothing already pays the least possible cost (0, 0),
  because the target spans.
- The owner of exactly one edge, which it needs, has no improving response
  by the one-edge rule (``game`` module docstring): a search would return
  none, exactly, after 0 states.

A sweep searches each ``(agent, S)`` pair with two or more edges in ``S``
once, however many assignments share it. One index of the target, with no
edge bought twice, serves every assignment, and none is validated on its
own: the sweep checks the target's edges against the host, and each owner
is an end of its edge (local) or a host node (global). One serial walk
fixes the owner of one edge with two or more choices per level, decides an
agent at the last such edge it may own (at the root if none) and cuts every
assignment below an unstable set: backtracking with forward checking
(Haralick and Elliott, Artificial Intelligence 14, 1980), in product order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    HostGraph,
    NodeId,
    TemporalGraph,
    TimeEdge,
    edge_needers,
    is_terminal_spanner,
)
from .errors import InvalidPurchase, PreconditionFailed, SearchTooLarge
from .game import (
    DeviationWitness,
    Setting,
    StrategyProfile,
    _assert_improving,
    _RealizedIndex,
    _remember,
    find_improving_response,
)
from .spanner_opt import terminal_spanners


@dataclass(frozen=True)
class SweepResult:
    """Outcome of an ownership sweep.

    ``total_assignments`` counts the raw space, ``survivors`` how many passed
    the drop pre-filter and were verified exactly, ``equilibria`` the ones
    that held up.
    """

    total_assignments: int
    survivors: int
    equilibria: tuple[StrategyProfile, ...]

    @property
    def equilibrium_count(self) -> int:
        return len(self.equilibria)


def _profile_from_owners(
    setting: Setting, edges: tuple[TimeEdge, ...], owners: list[NodeId]
) -> StrategyProfile:
    strategies: dict[NodeId, set[TimeEdge]] = {}
    for owner, edge in zip(owners, edges):
        strategies.setdefault(owner, set()).add(edge)
    return StrategyProfile(setting=setting, strategies=strategies)


def _verify_walk(
    host: HostGraph,
    setting: Setting,
    edges: tuple[TimeEdge, ...],
    choices: list[tuple[NodeId, ...]],
) -> list[StrategyProfile]:
    """The equilibria among the assignments of the owner ``choices``, in the
    order of their product (module docstring). Edges not yet branched on hold
    their first choice, so the profile probed at a node is its first leaf."""
    index = _RealizedIndex.build(host, edges)
    owners = [choice[0] for choice in choices]
    branch = [i for i, choice in enumerate(choices) if len(choice) > 1]
    may_own: dict[NodeId, list[int]] = {}
    for i, choice in enumerate(choices):
        for agent in choice:
            may_own.setdefault(agent, []).append(i)
    # due[depth]: the agents whose own sets the first ``depth`` branches fix.
    level = {agent: depth for depth, i in enumerate(branch, 1) for agent in choices[i]}
    due: list[list[tuple[NodeId, list[int]]]] = [[] for _ in range(len(branch) + 1)]
    for agent, mine in may_own.items():
        if len(mine) > 1:
            due[level.get(agent, 0)].append((agent, mine))
    stable: dict[tuple, bool] = {}  # keyed (agent, *indices of its own set)
    found = []
    probe = None
    stack: list[int] = []  # per fixed branch, the index of its owner choice
    while True:
        for agent, mine in due[len(stack)]:
            if owners.count(agent) < 2:
                continue
            key = (agent, *[i for i in mine if owners[i] == agent])
            if key not in stable:
                if probe is None:
                    probe = _profile_from_owners(setting, edges, owners)
                    _remember(probe, host, index)
                response = find_improving_response(agent, probe, host).response
                if response is not None:
                    _assert_improving(DeviationWitness(agent, response), probe, host)
                stable[key] = response is None
            if not stable[key]:
                break
        else:
            if len(stack) < len(branch):
                stack.append(0)  # its first child: ``owners`` is unchanged
                continue
            if probe is None:
                probe = _profile_from_owners(setting, edges, owners)
                _remember(probe, host, index)
            found.append(probe)
        # The next node in product order; exhausted branches reset.
        while stack:
            i = branch[len(stack) - 1]
            stack[-1] += 1
            if stack[-1] < len(choices[i]):
                owners[i] = choices[i][stack[-1]]
                probe = None
                break
            owners[i] = choices[i][0]
            stack.pop()
        else:
            return found


def sweep_ownership(
    host: HostGraph,
    target: TemporalGraph,
    mode: Setting,
    budget: int | None = None,
    workers: int = 1,
) -> SweepResult:
    """Enumerate and exactly verify all ownerships of ``target``'s edges.

    Equilibria come in product order from one serial walk (module
    docstring). ``workers`` is ignored, kept for callers that still pass it.

    Raises:
        PreconditionFailed: the target's nodes are not the host's, as they
            are for every realized graph.
        InvalidPurchase: the target uses an edge the host does not offer.
        SearchTooLarge: survivors exceed ``budget``.
    """
    if target.nodes != host.nodes:
        raise PreconditionFailed("the target's nodes must be the host's nodes")
    edges = tuple(target.time_edges())
    for edge in edges:
        if not host.has_time_edge(edge):
            raise InvalidPurchase(f"target edge {edge} is not offered by the host")
    total = (2 if mode is Setting.LOCAL else host.node_count) ** len(edges)
    if not is_terminal_spanner(target, host.terminals):
        # Some node misses a terminal whoever owns the edges; nothing survives.
        return SweepResult(total_assignments=total, survivors=0, equilibria=())
    needers = edge_needers(target, host.terminals)
    choices = [
        tuple(filter(needers[e].__contains__, e.pair if mode is Setting.LOCAL else host.nodes))
        for e in edges
    ]
    survivors = math.prod(map(len, choices))
    if survivors == 0:
        return SweepResult(total_assignments=total, survivors=0, equilibria=())
    if budget is not None and survivors > budget:
        raise SearchTooLarge(f"{survivors} surviving assignments exceed {budget}")
    return SweepResult(total, survivors, tuple(_verify_walk(host, mode, edges, choices)))


def find_nash_by_search(
    host: HostGraph,
    setting: Setting,
    max_subsets: int = 200_000,
) -> StrategyProfile | None:
    """First equilibrium found by exhausting realized graphs and ownerships.

    Sweeps the ownerships of each spanner from
    :func:`~tempo_ncg.spanner_opt.terminal_spanners` (ascending size from
    n - 1). Intended for small hosts (oracle duty, product-construction
    inputs); refuses larger spaces.

    Raises:
        SearchTooLarge: the next spanner lies past rank ``max_subsets`` of
            the subset enumeration.
    """
    for spanner in terminal_spanners(host, max_subsets):
        result = sweep_ownership(host, spanner, setting)
        if result.equilibria:
            return result.equilibria[0]
    return None
