"""Reference implementations used to cross-check the library.

Everything here trades speed for obviousness: arrivals come from literal
enumeration of simple temporal paths, deviations from full subset
enumeration over the candidate edge pool. These deliberately avoid the
production code paths (the label-sweep propagation, the DFS deviation
search) so that agreement between the two is meaningful.

Thirteen references are earlier versions of a library routine, kept so a
faster or flatter rewrite can be checked against them exactly: the
restart-loop prune, the one-sweep-per-edge prune, the plain subset loop of
the spanner search, the recursive deviation search and the per-edge greedy
loop (these four do use the library's reach kernel), the ownership sweep that
verifies every assignment in full, the product loop of the ownership sweep
that searches each owner once per own set and the Nash check that searches
every buyer (both with the library's deviation search), the nested-loop
forbidden-structure scan, the recursive increasing-path walk of the
dense-cycle checks, the instance writer that hands the canonical dict to
``json.dumps``, the instance parser that reads the edge object one key at a
time and the random host built from one checked time edge per label.

``call_under_a_low_recursion_limit`` is no reference: it runs a library call
where a search that recurses once per step would fail.
"""

import itertools
import json
import math
import random
import sys

from tempo_ncg import (
    CostBreakdown,
    DeviationWitness,
    EquilibriumKind,
    ForbiddenStructure,
    GreedyMove,
    HostGraph,
    IncompleteHost,
    InstanceFile,
    NodeId,
    SearchOutcome,
    SearchTooLarge,
    Setting,
    StrategyProfile,
    SweepResult,
    TemporalGraph,
    TimeEdge,
    UnknownNode,
    Verdict,
    VerificationReport,
    edge_needers,
    equilibrium_certificates,
    find_improving_response,
    instance_to_dict,
    is_nash_equilibrium,
    is_terminal_spanner,
    necessary_terminals,
    realized_graph,
    validate_and_normalize_host,
)
from tempo_ncg.core import (
    group_by_label,
    propagate_arrivals,
    spans_terminals,
    terminal_bits,
)
from tempo_ncg.game import _RealizedIndex, _assert_improving, _realized_index, _remember
from tempo_ncg.instance_io import PAIR_SEPARATOR, SCHEMA_VERSION, _check_fields


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


def oracle_single_pass_prune(graph, terminals):
    """One pass over the canonical edge order: drop an edge when the graph
    pruned so far still spans without it (one full backward sweep per edge).
    The input must be a spanner."""
    by_label = {label: list(pairs) for label, pairs in graph.label_groups()}
    bits = terminal_bits(graph.nodes, terminals)
    for edge in graph.time_edges():
        by_label[edge.label].remove(edge.pair)
        if not spans_terminals(by_label.items(), bits):
            by_label[edge.label].append(edge.pair)  # order inside a label is moot
    return TemporalGraph(
        graph.nodes,
        (TimeEdge(u, v, label) for label, pairs in by_label.items() for u, v in pairs),
    )


def oracle_terminal_spanners(host, max_subsets):
    """Plain enumeration of the terminal spanners: every time-edge subset by
    ascending size from n - 1, in ``combinations`` order, one full sweep
    each; raises once more than ``max_subsets`` subsets are tested."""
    pool = host.sorted_time_edges
    bits = terminal_bits(host.nodes, host.terminals)
    tested = 0
    for size in range(host.node_count - 1, len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            tested += 1
            if tested > max_subsets:
                raise SearchTooLarge(f"subset enumeration exceeded {max_subsets} sets")
            if spans_terminals(group_by_label(combo), bits):
                yield TemporalGraph(host.nodes, combo)


def take_spanners(spanners, count=None):
    """The first ``count`` spanners of a budgeted search (every one when
    None), followed by "refused" if it raised ``SearchTooLarge`` first."""
    taken = []
    try:
        for graph in itertools.islice(spanners, count):
            taken.append(graph)
    except SearchTooLarge:
        taken.append("refused")
    return taken


def oracle_is_minimal_spanner(graph, terminals):
    """(True, None), or (False, e) with e the canonically first edge whose
    removal leaves a spanner. The input must be a spanner."""
    for edge in sorted(graph.time_edges()):
        if oracle_is_spanner(graph.without_time_edge(edge), terminals):
            return False, edge
    return True, None


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


def oracle_increasing_paths(adjacency, start):
    """``constructions._increasing_paths`` as first written: one recursive
    call per path edge, yielding each prefix before its extensions."""

    def walk(at, seen, last, acc):
        for e in adjacency[at]:
            if e.label <= last:
                continue
            nxt = e.other(at)
            if nxt in seen:
                continue
            yield nxt, (*acc, e)
            yield from walk(nxt, seen | {nxt}, e.label, (*acc, e))

    yield from walk(start, frozenset({start}), 0, ())


def _lowest_recursion_limit():
    """The smallest recursion limit the interpreter accepts at this depth."""
    saved = sys.getrecursionlimit()
    limit = 1
    while True:
        try:
            sys.setrecursionlimit(limit)
        except RecursionError:
            limit += 1
            continue
        sys.setrecursionlimit(saved)
        return limit


def call_under_a_low_recursion_limit(fn, *args):
    """``fn(*args)`` with only eight frames to spare above the caller's."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(_lowest_recursion_limit() + 8)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(saved)


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


def oracle_other_edges(s, v):
    """Every edge bought by an agent other than ``v``."""
    others = set()
    for agent, edges in s.strategies.items():
        if agent != v:
            others |= edges
    return others


def oracle_find_improving_response(v, s, host, budget=None):
    """The deviation search as first written: recursive, one full propagation
    per examined state, states keyed by frozensets of time edges.

    Same contract as ``find_improving_response`` (search order, state count,
    budget rule, canonical-first minimum-size witness), kept as the reference
    for the library's faster search.
    """
    s.validate(host)
    own = s.strategy(v)
    e0 = len(own)
    others = oracle_other_edges(s, v)
    groups = group_by_label(others)
    k = host.terminal_count

    def unreached_with(extra):
        arrival, _ = propagate_arrivals(group_by_label(others.union(extra)), v)
        return sum(1 for t in host.terminals if t not in arrival)

    def improves(arrival, edge):
        au = arrival.get(edge.u, math.inf)
        av = arrival.get(edge.v, math.inf)
        return (au <= edge.label < av) or (av <= edge.label < au)

    current_unreached = unreached_with(own)
    current = CostBreakdown(current_unreached, e0)
    r_max = e0 - 1 if current_unreached == 0 else k
    if r_max < 0:
        return SearchOutcome(response=None, exact=True, states_examined=0)

    candidates = sorted(
        e
        for e in host.time_edges()
        if e not in others and (s.setting is Setting.GLOBAL or e.touches(v))
    )
    examined = 0
    exhausted = False
    if CostBreakdown(unreached_with(()), 0) < current:
        return SearchOutcome(response=frozenset(), exact=True, states_examined=1)

    for r in range(1, r_max + 1):
        visited = set()

        def dfs(chosen, arrival):
            nonlocal examined, exhausted
            for edge in candidates:
                if exhausted:
                    return None
                if edge in chosen or not improves(arrival, edge):
                    continue
                state = frozenset((*chosen, edge))
                if state in visited:
                    continue
                visited.add(state)
                examined += 1
                if budget is not None and examined > budget:
                    exhausted = True
                    return None
                extended = (*chosen, edge)
                new_arrival, _ = propagate_arrivals(
                    group_by_label(others.union(extended)), v
                )
                if len(extended) == r:
                    unreached = sum(1 for t in host.terminals if t not in new_arrival)
                    if CostBreakdown(unreached, r) < current:
                        return state
                else:
                    found = dfs(extended, new_arrival)
                    if found is not None:
                        return found
            return None

        start_arrival, _ = propagate_arrivals(groups, v)
        found = dfs((), start_arrival)
        if found is not None:
            return SearchOutcome(response=found, exact=True, states_examined=examined)
        if exhausted:
            return SearchOutcome(response=None, exact=False, states_examined=examined)
    return SearchOutcome(response=None, exact=True, states_examined=examined)


def assert_matches_the_unbudgeted_oracle(got, want, budget):
    """Check a local-setting search outcome ``got`` against ``want``, the
    oracle's outcome without a budget.

    A local search decides each pass by a coverage check and counts its
    units, not the oracle's states, so only answers are compared: without a
    budget the same response, exactly; with one, a found response is the
    oracle's and an exact none means the oracle finds none.
    """
    if budget is None:
        assert (got.response, got.exact) == (want.response, True)
    elif got.response is not None:
        assert got.response == want.response
    elif got.exact:
        assert want.response is None


def oracle_sweep_ownership(host, target, mode, budget=None):
    """The ownership sweep as first written: a full ``is_nash_equilibrium``
    for every assignment that survives the needer pre-filter, with no memo.
    Same contract as ``sweep_ownership``."""
    edges = sorted(target.time_edges())
    total = (2 if mode is Setting.LOCAL else host.node_count) ** len(edges)
    if not is_terminal_spanner(target, host.terminals):
        return SweepResult(total_assignments=total, survivors=0, equilibria=())
    needers = edge_needers(target, host.terminals)
    choices = [
        [v for v in (e.pair if mode is Setting.LOCAL else host.nodes) if v in needers[e]]
        for e in edges
    ]
    survivors = math.prod(len(choice) for choice in choices)
    if budget is not None and survivors > budget:
        raise SearchTooLarge(f"{survivors} surviving assignments exceed {budget}")
    equilibria = []
    for owners in itertools.product(*choices):
        strategies = {}
        for owner, e in zip(owners, edges):
            strategies.setdefault(owner, set()).add(e)
        profile = StrategyProfile(mode, strategies)
        if is_nash_equilibrium(profile, host).verdict is Verdict.EQUILIBRIUM:
            equilibria.append(profile)
    return SweepResult(
        total_assignments=total, survivors=survivors, equilibria=tuple(equilibria)
    )


def oracle_sweep_product(host, target, mode, budget=None):
    """The ownership sweep as a product loop: every assignment that survives
    the needer pre-filter is built as a profile, in the order of the lazy
    product of the per-edge owner choices, and each owner of two or more
    edges is searched once per own set. All profiles share one index of the
    target. Same contract as ``sweep_ownership``."""
    edges = tuple(target.time_edges())
    total = (2 if mode is Setting.LOCAL else host.node_count) ** len(edges)
    if not is_terminal_spanner(target, host.terminals):
        return SweepResult(total_assignments=total, survivors=0, equilibria=())
    needers = edge_needers(target, host.terminals)
    choices = [
        [v for v in (e.pair if mode is Setting.LOCAL else host.nodes) if v in needers[e]]
        for e in edges
    ]
    survivors = math.prod(len(choice) for choice in choices)
    if survivors == 0:
        return SweepResult(total_assignments=total, survivors=0, equilibria=())
    if budget is not None and survivors > budget:
        raise SearchTooLarge(f"{survivors} surviving assignments exceed {budget}")
    index = _RealizedIndex.build(host, edges)
    stable = {}
    equilibria = []
    for owners in itertools.product(*choices):
        strategies = {}
        for owner, e in zip(owners, edges):
            strategies.setdefault(owner, set()).add(e)
        profile = StrategyProfile(mode, strategies)
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
            equilibria.append(profile)
    return SweepResult(
        total_assignments=total, survivors=survivors, equilibria=tuple(equilibria)
    )


def oracle_is_nash_equilibrium(s, host, budget=None):
    """The Nash check as first written: one ``find_improving_response`` per
    buyer, one-edge buyers included. Same contract as
    ``is_nash_equilibrium``."""
    index = _realized_index(s, host)
    bits, full, masks = index.bits, index.full, index.masks
    examined_total = 0
    exhausted = []
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
        if v not in s.strategies:
            continue
        outcome = find_improving_response(v, s, host, budget=budget)
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


def oracle_greedy_improving_response(v, s, host):
    """The greedy check as first written: one full propagation per candidate
    add and per own edge removed. Same contract as
    ``greedy_improving_response``: adds first in canonical order, only when
    ``v`` misses a terminal, then removes in canonical order."""
    s.validate(host)
    own = s.strategy(v)
    realized = s.bought_edges()
    others = oracle_other_edges(s, v)

    def unreached_with(edges):
        arrival, _ = propagate_arrivals(group_by_label(edges), v)
        return sum(1 for t in host.terminals if t not in arrival)

    current_unreached = unreached_with(realized)
    if current_unreached > 0:
        for edge in candidate_pool(host, v, s.setting):
            if edge in realized:
                continue
            if unreached_with(realized | {edge}) < current_unreached:
                return GreedyMove(action="add", edge=edge, new_strategy=own | {edge})
    ordered = sorted(own)
    for edge in ordered:
        remaining = tuple(e for e in ordered if e != edge)
        if unreached_with(others.union(remaining)) == current_unreached:
            return GreedyMove(action="remove", edge=edge, new_strategy=own - {edge})
    return None


def oracle_greedy_witness(s, host):
    """(agent, new strategy) of the first agent with a greedy move, or None."""
    for v in host.nodes:
        move = oracle_greedy_improving_response(v, s, host)
        if move is not None:
            return v, move.new_strategy
    return None


def oracle_greedy_dynamics(s0, host, max_rounds):
    """(final profile, converged, rounds) of round-robin greedy dynamics."""
    current = s0
    for round_index in range(1, max_rounds + 1):
        moved = False
        for v in host.nodes:
            move = oracle_greedy_improving_response(v, current, host)
            if move is not None:
                current = current.with_strategy(v, move.new_strategy)
                moved = True
        if not moved:
            return current, True, round_index
    return current, False, max_rounds


def oracle_find_forbidden_structure(s, host, necessary_fn=None):
    """The forbidden-structure scan as first written: eight nested loops.
    Same contract and visiting order as ``find_forbidden_structure`` on a
    local profile with a simple realized graph."""
    graph = realized_graph(s, host)
    if necessary_fn is None:
        def necessary_fn(edge, buyer):
            return necessary_terminals(edge, buyer, s, host)

    def necessary(edge, buyer):
        return frozenset(necessary_fn(edge, buyer))

    def kept_edges(u, z, threshold):
        pair = (min(z, u), max(z, u))
        return [
            e for e in sorted(s.strategy(u)) if e.pair != pair and e.label >= threshold
        ]

    terminals = host.terminals
    nodes = graph.nodes
    for z in nodes:
        neighbors = [u for u in nodes if u != z and graph.labels(z, u)]
        for i, u1 in enumerate(neighbors):
            for u2 in neighbors[i + 1 :]:
                kept1 = kept_edges(u1, z, graph.labels(z, u1)[0])
                kept2 = kept_edges(u2, z, graph.labels(z, u2)[0])
                if len(kept1) < 2 or len(kept2) < 2:
                    continue
                for xi, x in enumerate(terminals):
                    for y in terminals[xi + 1 :]:
                        for e1x in kept1:
                            if x not in necessary(e1x, u1):
                                continue
                            for e1y in kept1:
                                if e1y == e1x or y not in necessary(e1y, u1):
                                    continue
                                for e2x in kept2:
                                    if e2x in (e1x, e1y) or x not in necessary(e2x, u2):
                                        continue
                                    for e2y in kept2:
                                        if e2y in (e1x, e1y, e2x):
                                            continue
                                        if y not in necessary(e2y, u2):
                                            continue
                                        return ForbiddenStructure(
                                            z=z, u1=u1, u2=u2, x=x, y=y,
                                            e1x=e1x, e1y=e1y, e2x=e2x, e2y=e2y,
                                        )
    return None


def oracle_dumps_instance(instance):
    """The instance text as the JSON encoder writes the canonical dict."""
    return json.dumps(instance_to_dict(instance), indent=2, ensure_ascii=False) + "\n"


def oracle_instance_from_dict(data: dict) -> InstanceFile:
    """Parse and validate the canonical dict form.

    Raises:
        ValueError: unknown schema version, malformed keys or types, bad ids.
        IncompleteHost: a node pair has no labels and no default applies.
    """
    # JSON true and 1.0 both compare equal to the int 1, so the type is checked.
    version = data.get("v") if isinstance(data, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"expected schema version {SCHEMA_VERSION}")
    host_data = data.get("host")
    if not isinstance(host_data, dict):
        raise ValueError("instance needs a host object")
    name, source = data.get("name"), data.get("source")
    default_label = host_data.get("default_label")
    _check_fields(name, source, default_label)  # before the default fills pairs
    nodes = host_data.get("nodes")
    terminals = host_data.get("terminals")
    if not isinstance(nodes, list) or not isinstance(terminals, list):
        raise ValueError("host needs node and terminal lists")
    if not all(isinstance(node, str) for node in nodes + terminals):
        raise ValueError("node and terminal ids must be strings")
    node_set = set(nodes)
    listed: dict[tuple[NodeId, NodeId], tuple[int, ...]] = {}
    raw_edges = host_data.get("edges", {})
    if not isinstance(raw_edges, dict):
        raise ValueError("host edges must map 'u|v' keys to label lists")
    for key, labels in raw_edges.items():
        parts = key.split(PAIR_SEPARATOR)
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"edge key {key!r} is not of the form 'u|v'")
        u, v = parts
        if u >= v:
            raise ValueError(f"edge key {key!r} must order its nodes u < v")
        if u not in node_set or v not in node_set:
            raise ValueError(f"edge key {key!r} uses a node outside the node list")
        if not isinstance(labels, list) or not labels:
            raise ValueError(f"edge {key!r} needs a nonempty label list")
        for label in labels:
            if type(label) is not int or label < 1:
                TimeEdge(u, v, label)  # raises the time edge's own error
        listed[u, v] = tuple(labels) if len(labels) == 1 else tuple(sorted(set(labels)))
    sorted_nodes = tuple(sorted(node_set))
    if len(listed) < len(sorted_nodes) * (len(sorted_nodes) - 1) // 2:
        for i, u in enumerate(sorted_nodes):
            for v in sorted_nodes[i + 1 :]:
                if (u, v) in listed:
                    continue
                if default_label is None:
                    raise IncompleteHost(
                        f"pair ({u!r}, {v!r}) has no labels and no default_label is set"
                    )
                listed[(u, v)] = (default_label,)
    if "" in node_set:
        raise UnknownNode("node ids must be nonempty strings, got ''")
    if list(listed) != sorted(listed):
        listed = dict(sorted(listed.items()))
    graph = TemporalGraph._from_labels(sorted_nodes, listed)
    host = HostGraph(graph=graph, terminals=tuple(terminals))
    profile = None
    profile_data = data.get("profile")
    if profile_data is not None:
        if not isinstance(profile_data, dict):
            raise ValueError("profile must be an object")
        setting = Setting(profile_data.get("setting"))
        raw_strategies = profile_data.get("strategies", {})
        if not isinstance(raw_strategies, dict):
            raise ValueError("profile strategies must map agents to edge lists")
        strategies: dict[NodeId, frozenset[TimeEdge]] = {}
        for agent, triples in raw_strategies.items():
            if not isinstance(triples, list):
                raise ValueError(f"strategy of {agent!r} is not a list of edges")
            bought = set()
            for triple in triples:
                if not isinstance(triple, list) or len(triple) != 3:
                    raise ValueError(f"strategy edge {triple!r} is not [u, v, label]")
                u, v, label = triple
                if not isinstance(u, str) or not isinstance(v, str):
                    raise ValueError(f"strategy edge {triple!r} needs string endpoints")
                bought.add(TimeEdge(u, v, label))
            strategies[agent] = frozenset(bought)
        profile = StrategyProfile(setting=setting, strategies=strategies)
    return InstanceFile(
        name=name,
        host=host,
        profile=profile,
        source=source,
        default_label=default_label,
    )


def oracle_random_host(n, k, seed, max_label=None, extra_label_prob=0.0):
    """``random_host`` as one checked ``TimeEdge`` per label, regrouped by the
    checked ``TemporalGraph`` constructor (same seeded draws, same order)."""
    rng = random.Random(seed)
    width = len(str(n - 1)) if n > 1 else 1
    nodes = [f"n{i:0{width}d}" for i in range(n)]
    cap = max_label if max_label is not None else n
    edges = []
    for a, b in itertools.combinations(nodes, 2):
        labels = {rng.randint(1, cap)}
        while rng.random() < extra_label_prob:
            labels.add(rng.randint(1, cap))
        edges.extend(TimeEdge(a, b, label) for label in labels)
    terminals = rng.sample(nodes, k)
    return validate_and_normalize_host(TemporalGraph(nodes, edges), terminals)
