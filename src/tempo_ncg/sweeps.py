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
is an end of its edge (local) or a host node (global).

Each check cuts its assignments as a slice of the lazy product of the
per-edge owner choices, so no process lists the survivors: a serial sweep
checks one slice over all of them, and worker processes get slice bounds.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
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
    choices: list[tuple[NodeId, ...]],
    start: int,
    size: int,
) -> list[StrategyProfile]:
    """The equilibria among assignments ``start`` to ``start + size`` of the
    lazy product of the per-edge owner ``choices``, in order.

    ``edges`` reach every terminal from every host node, so an assignment
    is an equilibrium exactly when no buyer has an improving response.
    Owners of one edge are stable, and each owner of two or more edges is
    searched once per own set (module docstring). The slice shares one
    index of ``edges``.
    """
    index = _RealizedIndex.build(host, edges)
    stable: dict[tuple[NodeId, frozenset[TimeEdge]], bool] = {}
    found = []
    for owners in itertools.islice(itertools.product(*choices), start, start + size):
        profile = _profile_from_owners(setting, edges, owners)
        _remember(profile, host, index)
        for agent, own in profile.strategies.items():
            if len(own) == 1:
                continue
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

    Results are deterministic and canonical regardless of ``workers``. One
    worker, one CPU or fewer than four survivors make one slice (module
    docstring); more processes, at most one per CPU and per slice, check
    about four slices each, merged in enumeration order.

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
    choices: list[tuple[NodeId, ...]] = []
    for edge in edges:
        allowed = edge.pair if mode is Setting.LOCAL else host.nodes
        choices.append(tuple(v for v in allowed if v in needers[edge]))
    survivors = math.prod(map(len, choices))
    if survivors == 0:
        return SweepResult(total_assignments=total, survivors=0, equilibria=())
    if budget is not None and survivors > budget:
        raise SearchTooLarge(f"{survivors} surviving assignments exceed {budget}")
    # A fork-started pool starts every worker at once: cap them by the CPUs
    # and by the slices.
    processes = min(workers, os.cpu_count() or 1)
    if processes <= 1 or survivors < 4:
        equilibria = tuple(_verify_chunk(host, mode, edges, choices, 0, survivors))
    else:
        size = max(1, survivors // (processes * 4))
        starts = range(0, survivors, size)
        verify = functools.partial(_verify_chunk, host, mode, edges, choices)
        sizes = [min(size, survivors - start) for start in starts]
        with ProcessPoolExecutor(min(processes, len(starts))) as pool:
            found = pool.map(verify, starts, sizes)
            equilibria = tuple(itertools.chain.from_iterable(found))
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
