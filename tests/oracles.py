"""Reference implementations used to cross-check the library.

Everything here trades speed for obviousness: arrivals come from literal
enumeration of simple temporal paths, deviations from full subset
enumeration over the candidate edge pool. These deliberately avoid the
production code paths (the label-sweep propagation, the DFS deviation
search) so that agreement between the two is meaningful.
"""

import itertools
import math

from tempo_ncg import Setting, TemporalGraph


def brute_force_arrivals(graph, source):
    """Earliest arrival per node via every simple temporal path.

    Splicing a cycle out of a temporal walk keeps the label sequence
    nondecreasing, so simple paths suffice for earliest arrival.
    """
    incident = {node: [] for node in graph.nodes}
    for edge in graph.time_edges():
        incident[edge.u].append(edge)
        incident[edge.v].append(edge)
    best = {source: 0}
    stack = [(source, 0, frozenset({source}))]
    while stack:
        at, time, seen = stack.pop()
        for edge in incident[at]:
            if edge.label < time:
                continue
            nxt = edge.other(at)
            if nxt in seen:
                continue
            best[nxt] = min(edge.label, best.get(nxt, math.inf))
            stack.append((nxt, edge.label, seen | {nxt}))
    return best


def oracle_reach(graph, source):
    return frozenset(brute_force_arrivals(graph, source))


def oracle_is_spanner(graph, terminals):
    want = set(terminals)
    return all(want <= oracle_reach(graph, v) for v in graph.nodes)


def oracle_prune_to_minimal(graph, terminals):
    """Drop the canonically first removable edge, then rescan from the start."""
    current = graph
    while True:
        for edge in sorted(current.time_edges()):
            smaller = current.without_time_edge(edge)
            if oracle_is_spanner(smaller, terminals):
                current = smaller
                break
        else:
            return current


def oracle_edge_needers(target, host):
    """Per target edge, the nodes that miss a terminal once it is removed."""
    want = set(host.terminals)
    return {
        edge: tuple(
            v
            for v in host.nodes
            if not want <= oracle_reach(target.without_time_edge(edge), v)
        )
        for edge in sorted(target.time_edges())
    }


def _static_reach(edges, source):
    seen = {source}
    stack = [source]
    while stack:
        at = stack.pop()
        for edge in edges:
            if edge.touches(at) and edge.other(at) not in seen:
                seen.add(edge.other(at))
                stack.append(edge.other(at))
    return seen


def oracle_mono_label_tree(host):
    """First label class that connects every node, with its greedy tree.

    Connectivity comes from graph search, not union-find: the tree keeps each
    edge of the class, in canonical order, whose endpoints the edges kept so
    far do not already join. None when no label class connects the nodes.
    """
    for label in sorted({e.label for e in host.time_edges()}):
        edges = sorted(e for e in host.time_edges() if e.label == label)
        if _static_reach(edges, host.nodes[0]) != set(host.nodes):
            continue
        kept = []
        for edge in edges:
            if edge.v not in _static_reach(kept, edge.u):
                kept.append(edge)
        return TemporalGraph(host.nodes, kept)
    return None


def realized(profile, host):
    union = set()
    for edges in profile.strategies.values():
        union |= edges
    return TemporalGraph(host.nodes, union)


def oracle_cost(v, profile, host):
    """(unreached terminals, edges bought), the lexicographic game cost."""
    arrivals = brute_force_arrivals(realized(profile, host), v)
    unreached = sum(1 for t in host.terminals if t not in arrivals)
    return (unreached, len(profile.strategy(v)))


def candidate_pool(host, v, setting):
    edges = sorted(host.time_edges())
    if setting is Setting.LOCAL:
        edges = [e for e in edges if e.touches(v)]
    return edges


def oracle_improving_response(v, profile, host):
    """Cheapest strictly improving strategy for v, by full enumeration."""
    pool = candidate_pool(host, v, profile.setting)
    best = None
    best_cost = oracle_cost(v, profile, host)
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            trial = profile.with_strategy(v, frozenset(combo))
            cost = oracle_cost(v, trial, host)
            if cost < best_cost:
                best, best_cost = frozenset(combo), cost
    return best


def oracle_is_ne(profile, host):
    return all(
        oracle_improving_response(v, profile, host) is None for v in host.nodes
    )


def oracle_is_ge(profile, host):
    """True iff no single-edge add or remove improves any agent."""
    for v in host.nodes:
        own = profile.strategy(v)
        base = oracle_cost(v, profile, host)
        trials = [
            own | {e}
            for e in candidate_pool(host, v, profile.setting)
            if e not in own
        ]
        trials += [own - {e} for e in own]
        for new in trials:
            if oracle_cost(v, profile.with_strategy(v, new), host) < base:
                return False
    return True


def naive_min_spanner(host):
    """Smallest terminal-spanner edge count by plain subset enumeration."""
    pool = sorted(host.time_edges())
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            if oracle_is_spanner(TemporalGraph(host.nodes, combo), host.terminals):
                return size, combo
    raise AssertionError("a complete host always spans")
