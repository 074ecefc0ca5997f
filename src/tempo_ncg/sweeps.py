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
edge exactly one owner, so the other agents' edges are exactly the target
minus the agent's own set ``S``. An agent's best response therefore depends
on ``(agent, S)`` alone, and a sweep searches each such pair once, however
many assignments share it. Agents that buy nothing need no search: the
target spans, so they already pay the least possible cost (0, 0). One index
of the target, with no edge bought twice, serves every assignment, and none
is validated on its own: the sweep checks the target's edges against the
host, and each owner is an end of its edge (local) or a host node (global).
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterable
from concurrent.futures import Future, ProcessPoolExecutor
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
    setting: Setting, edges: tuple[TimeEdge, ...], owners: tuple[NodeId, ...]
) -> StrategyProfile:
    strategies: dict[NodeId, set[TimeEdge]] = {}
    for owner, edge in zip(owners, edges):
        strategies.setdefault(owner, set()).add(edge)
    return StrategyProfile(setting=setting, strategies=strategies)


def _verify_chunk(
    host: HostGraph,
    setting: Setting,
    edges: tuple[TimeEdge, ...],
    owner_tuples: Iterable[tuple[NodeId, ...]],
) -> list[StrategyProfile]:
    """The equilibria among ``owner_tuples``, in order.

    ``edges`` reach every terminal from every host node, so an assignment
    is an equilibrium exactly when no buyer has an improving response
    (module docstring). Every assignment shares one index of ``edges``.
    """
    index = _RealizedIndex.build(host, edges)
    stable: dict[tuple[NodeId, frozenset[TimeEdge]], bool] = {}
    found = []
    for owners in owner_tuples:
        profile = _profile_from_owners(setting, edges, owners)
        _remember(profile, host, index)
        for agent, own in profile.strategies.items():
            key = (agent, own)
            if key not in stable:
                response = find_improving_response(agent, profile, host).response
                if response is not None:
                    witness = DeviationWitness(agent=agent, strategy=response)
                    _assert_improving(witness, profile, host)
                stable[key] = response is None
            if not stable[key]:
                break
        else:
            found.append(profile)
    return found


def sweep_ownership(
    host: HostGraph,
    target: TemporalGraph,
    mode: Setting,
    budget: int | None = None,
    workers: int = 1,
) -> SweepResult:
    """Enumerate and exactly verify all ownerships of ``target``'s edges.

    Results are deterministic and canonical regardless of ``workers``; chunks
    are merged in enumeration order. With one worker the surviving
    assignments are streamed, so memory does not grow with their number.
    With more, they are cut lazily into about four chunks per process
    started, and at most two chunks per process are held unmerged (about
    half the survivors); at most one process per chunk and per CPU is
    started, however large ``workers`` is.

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
    total = 1
    for edge in edges:
        total *= 2 if mode is Setting.LOCAL else host.node_count
    if not is_terminal_spanner(target, host.terminals):
        # Some node misses a terminal whoever owns the edges; nothing survives.
        return SweepResult(total_assignments=total, survivors=0, equilibria=())
    needers = edge_needers(target, host.terminals)
    choices: list[tuple[NodeId, ...]] = []
    for edge in edges:
        allowed = edge.pair if mode is Setting.LOCAL else host.nodes
        choices.append(tuple(v for v in allowed if v in needers[edge]))
    survivors = 1
    for choice in choices:
        survivors *= len(choice)
    if survivors == 0:
        return SweepResult(total_assignments=total, survivors=0, equilibria=())
    if budget is not None and survivors > budget:
        raise SearchTooLarge(f"{survivors} surviving assignments exceed {budget}")
    assignments = itertools.product(*choices)
    if workers <= 1 or survivors < 4:
        equilibria = tuple(_verify_chunk(host, mode, edges, assignments))
    else:
        # A fork-started pool starts every worker at once: cap them by the
        # CPUs, then cut about four chunks per process and cap by the chunks.
        # Chunks are cut as they are submitted, and at most two per process
        # are held unmerged: the oldest is merged before the next is cut.
        processes = min(workers, os.cpu_count() or 1)
        chunk_size = max(1, survivors // (processes * 4))
        chunks = iter(lambda: list(itertools.islice(assignments, chunk_size)), [])
        found: list[StrategyProfile] = []
        pending: list[Future] = []
        with ProcessPoolExecutor(min(processes, -(-survivors // chunk_size))) as pool:
            for chunk in chunks:
                pending.append(pool.submit(_verify_chunk, host, mode, edges, chunk))
                if len(pending) == 2 * processes:
                    found.extend(pending.pop(0).result())
            for future in pending:
                found.extend(future.result())
        equilibria = tuple(found)
    return SweepResult(
        total_assignments=total, survivors=survivors, equilibria=equilibria
    )


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
