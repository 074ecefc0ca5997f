"""Answer checks and the output digest.

Every job's answer is checked outside the timed region, with a check that
does not reuse the code under test where that is cheap: temporal reachability
here is a plain relaxation to a fixed point over an edge list, independent of
``core.propagate_arrivals``. Each answer is also reduced to a canonical record
(verdict, witness, optimum, sweep counts); the records are hashed into one
digest per pass, and the records of the seed-independent jobs into a digest
pinned below.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations, product

import tempo_ncg as tn
from tempo_ncg import Setting, Verdict

# Digest of the seed-independent jobs' records, per workload. A change of
# verdict, witness, optimum or sweep count on those jobs shows as a mismatch.
PINNED_DIGESTS = {
    "nash-verify": "d62e7fa06fe784b80fe0f759c4e7ce9df8c7e97428ece035b031c1d16ad02fe2",
    "optimum-poa": "0cc8bf202c81b3bf3d8b17d2dd68ddca7461aa7434e1768d0b89f68b75157988",
    "sweep-dynamics": "a5b3cbb140b2787f0df8b2ecdfaa5dafc07e898d7b87bc5ebfa2e9be5424dbe8",
}

# Sweep counts pinned by the acceptance tests: (total, survivors or None,
# equilibria).
FIXTURE_SWEEPS = {
    "sweep-fig4-global": (1024, None, 0),
    "sweep-fig5-left-local": (32, None, 0),
    "sweep-fig5-right-global": (6**8, 768, 0),
}


def _unreached(edges, source, terminals) -> int:
    """Terminals that ``source`` does not reach along non-decreasing labels."""
    arrival = {source: 0}
    changed = True
    while changed:
        changed = False
        for e in edges:
            for a, b in ((e.u, e.v), (e.v, e.u)):
                at = arrival.get(a)
                if at is not None and at <= e.label < arrival.get(b, float("inf")):
                    arrival[b] = e.label
                    changed = True
    return sum(1 for t in terminals if t not in arrival)


def reaches_all(edges, source, terminals) -> bool:
    return _unreached(edges, source, terminals) == 0


def independent_survivors(host, target, mode: Setting) -> int:
    """Ownerships of the ``target`` edges that survive the drop pre-filter,
    counted without ``sweeps``: the product over edges of their needers."""
    survivors = 1
    for edge in sorted(target):
        rest = [e for e in target if e != edge]
        allowed = edge.pair if mode is Setting.LOCAL else host.nodes
        needers = [v for v in allowed if not reaches_all(rest, v, host.terminals)]
        survivors *= len(needers)
    return survivors


def _is_spanner(edges, host) -> bool:
    return all(reaches_all(edges, v, host.terminals) for v in host.nodes)


def _has_greedy_move(profile, host) -> bool:
    """Whether some agent misses a terminal (a direct edge then improves it)
    or can drop one of its edges without losing a terminal."""
    for v in host.nodes:
        own = profile.strategy(v)
        others = {e for a, es in profile.strategies.items() if a != v for e in es}
        if not reaches_all(others | own, v, host.terminals):
            return True
        if any(reaches_all(others | (own - {e}), v, host.terminals) for e in own):
            return True
    return False


def improving_agent(strategies, host, mode: Setting):
    """An agent that a strictly cheaper strategy exists for, or None.

    Brute force over the agent's allowed edges, for small hosts. Cost is
    lexicographic: unreached terminals, then edges bought. Adding edges never
    loses a terminal, so buying every allowed edge gives the fewest unreached
    terminals; if that ties the current count, a cheaper strategy is a
    smaller edge set that reaches as many.
    """
    terminals = host.terminals
    for v in host.nodes:
        own = strategies.get(v, frozenset())
        others = {e for a, es in strategies.items() if a != v for e in es}
        allowed = [e for e in host.time_edges()
                   if e not in others and (mode is Setting.GLOBAL or e.touches(v))]
        now = _unreached(others | own, v, terminals)
        if _unreached(others.union(allowed), v, terminals) < now:
            return v
        for size in range(len(own)):
            if any(_unreached(others.union(c), v, terminals) <= now
                   for c in combinations(allowed, size)):
                return v
    return None


_EXISTS: dict[tuple[str, Setting], bool] = {}


def equilibrium_exists(host, mode: Setting) -> bool:
    """Whether some equilibrium's realized graph reaches every terminal from
    every node: the outcome ``find_nash_by_search`` must report, by brute
    force for small hosts. In an equilibrium each edge has one owner, and
    that owner loses a terminal without it; only such owners are tried."""
    pool = sorted(host.time_edges())
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            if not _is_spanner(combo, host):
                continue
            owners = []
            for edge in combo:
                rest = [e for e in combo if e != edge]
                allowed = edge.pair if mode is Setting.LOCAL else host.nodes
                owners.append([v for v in allowed
                               if not reaches_all(rest, v, host.terminals)])
            for assignment in product(*owners):
                strategies: dict = {}
                for edge, owner in zip(combo, assignment):
                    strategies[owner] = strategies.get(owner, frozenset()) | {edge}
                if improving_agent(strategies, host, mode) is None:
                    return True
    return False


def _triples(edges) -> list:
    return [[e.u, e.v, e.label] for e in sorted(edges)]


def _strategies(profile) -> dict:
    return {a: _triples(es) for a, es in profile.strategies.items()}


def _witness_problem(witness, profile, host) -> str | None:
    before = tn.agent_cost(witness.agent, profile, host)
    after = tn.agent_cost(
        witness.agent, profile.with_strategy(witness.agent, witness.strategy), host)
    return None if after < before else f"witness does not improve {witness.agent}"


def _report(report, job, inst):
    """Record and problem for a ``VerificationReport``."""
    record = {"verdict": report.verdict.value, "witness": None}
    if report.verdict.value != job.expect:
        return record, f"verdict {report.verdict.value}, expected {job.expect}"
    if report.verdict is Verdict.REFUTED:
        record["witness"] = [report.witness.agent, _triples(report.witness.strategy)]
        return record, _witness_problem(report.witness, inst.profile, inst.host)
    realized = inst.profile.bought_edges()
    if not _is_spanner(realized, inst.host):
        return record, "an equilibrium leaves a terminal unreached"
    return record, None


def check(job, inst, result) -> tuple[dict, int, str | None]:
    """``(record, states_examined, problem)`` for one job's answer.

    ``problem`` is None when the answer is what the job list expects and
    passes the independent checks.
    """
    host = inst.host
    if isinstance(result, tn.SearchTooLarge):
        record = {"refused": True}
        if job.expect != "refused":
            return record, 0, f"unexpected refusal: {result}"
        if job.kind == "sweep" and job.args["survivors"] <= job.args["budget"]:
            return record, 0, "sweep refused within its survivor budget"
        return record, 0, None
    if job.kind in ("verify-ne", "verify-ge"):
        record, problem = _report(result, job, inst)
        return record, result.states_examined, problem
    if job.kind == "deviation":
        record = {"response": None if result.response is None
                  else _triples(result.response), "exact": result.exact}
        found = "no-deviation" if result.exact else "budget-exhausted"
        if result.response is not None:
            problem = _witness_problem(
                tn.DeviationWitness(job.args["agent"], result.response), inst.profile, host)
            return record, result.states_examined, problem or "unexpected deviation"
        problem = None if found == job.expect else f"{found}, expected {job.expect}"
        return record, result.states_examined, problem
    if job.kind == "optimum":
        return _optimum(job, host, result)
    if job.kind == "poa":
        record, report = result
        if record is None:
            return {"verdict": report.verdict.value}, report.states_examined, \
                f"profile failed verification ({report.verdict.value})"
        row = record.as_row()
        problem = None
        if record.ratio != record.equilibrium_edges / record.optimum_edges:
            problem = "ratio is not equilibrium edges over optimum"
        elif not record.optimum_lower_bound <= record.optimum_edges:
            problem = "optimum bracket has lower > upper"
        elif record.optimum_exact and record.optimum_edges > record.equilibrium_edges:
            problem = "exact optimum exceeds an equilibrium's edge count"
        return row, report.states_examined, problem
    if job.kind == "prune-chain":
        pruned, ge, report = result
        edges = list(pruned.time_edges())
        record = {"pruned": _triples(edges), "owners": _strategies(ge),
                  "verdict": report.verdict.value}
        if not _is_spanner(edges, host):
            return record, 0, "pruned graph is not a terminal spanner"
        if any(_is_spanner([f for f in edges if f != e], host) for e in edges):
            return record, 0, "pruned graph is not inclusion-minimal"
        if ge.bought_edges() != frozenset(edges):
            return record, 0, "greedy profile does not buy the pruned graph"
        problem = None if report.is_equilibrium else "greedy profile is refuted"
        return record, report.states_examined, problem
    if job.kind == "sweep":
        return _sweep(job, inst, result)
    if job.kind == "dynamics":
        final = result.profile
        record = {"converged": result.converged, "rounds": result.rounds,
                  "strategies": _strategies(final)}
        if not result.converged:
            if not _has_greedy_move(final, host):
                return record, 0, "dynamics stopped at a profile with no improving move"
            return record, 0, None
        if not result.report.is_equilibrium or _has_greedy_move(final, host):
            return record, 0, "dynamics converged to a profile with an improving move"
        return record, result.report.states_examined, None
    if job.kind == "search":
        return _search(job, host, result)
    raise ValueError(f"unknown job kind {job.kind!r}")


def _optimum(job, host, result):
    n = host.node_count
    if isinstance(result, tuple):
        upper, exact, lower = result
        record = {"exact": exact, "upper": upper, "lower": lower}
        if job.expect != "refused":
            return record, 0, "exact search refused unexpectedly"
        if exact or not lower <= upper or lower != n - 1 or upper > host.time_edge_count:
            return record, 0, f"bad optimum bracket [{lower}, {upper}]"
        return record, 0, None
    edges = list(result.time_edges())
    record = {"exact": True, "size": len(edges), "edges": _triples(edges)}
    if job.expect != "exact":
        return record, 0, "exact search ran where a refusal was expected"
    if not all(host.has_time_edge(e) for e in edges):
        return record, 0, "optimum uses an edge the host does not offer"
    if len(edges) < n - 1 or not _is_spanner(edges, host):
        return record, 0, "exact optimum is not a terminal spanner of >= n-1 edges"
    return record, 0, None


def _sweep(job, inst, result):
    host, mode = inst.host, Setting(job.args["mode"])
    target = inst.profile.bought_edges()
    record = {"total": result.total_assignments, "survivors": result.survivors,
              "equilibria": [_strategies(p) for p in result.equilibria]}
    if job.expect != "done":
        return record, 0, "sweep ran where a refusal was expected"
    pinned = FIXTURE_SWEEPS.get(job.name)
    if pinned is not None:
        total, survivors, count = pinned
        if (result.total_assignments, result.equilibrium_count) != (total, count) or (
                survivors is not None and result.survivors != survivors):
            return record, 0, "fixture sweep counts differ from the pinned ones"
    base = 2 if mode is Setting.LOCAL else host.node_count
    if result.total_assignments != base ** len(target):
        return record, 0, "wrong assignment count"
    if result.survivors != independent_survivors(host, target, mode):
        return record, 0, "wrong survivor count"
    for p in result.equilibria:
        if p.bought_edges() != target or p.total_purchases() != len(target):
            return record, 0, "a swept equilibrium does not own the target once"
        if mode is Setting.LOCAL and any(
                not e.touches(a) for a, es in p.strategies.items() for e in es):
            return record, 0, "a local equilibrium buys a non-incident edge"
    if job.seeded and mode is Setting.LOCAL and inst.profile not in result.equilibria:
        return record, 0, "the construction's own equilibrium was not found"
    return record, 0, None


def _search(job, host, result):
    """A found profile must be an equilibrium by brute force; a none-result
    must agree with the brute-force existence check. That check depends only
    on the job's instance, so it runs once per job."""
    mode = Setting(job.args["setting"])
    record = {"found": None if result is None else _strategies(result)}
    key = (job.text, mode)
    if key not in _EXISTS:
        _EXISTS[key] = equilibrium_exists(host, mode)
    if result is None:
        return record, 0, "no equilibrium found, but one exists" if _EXISTS[key] else None
    if not _EXISTS[key]:
        return record, 0, "found a profile where no equilibrium exists"
    if not _is_spanner(result.bought_edges(), host):
        return record, 0, "searched equilibrium leaves a terminal unreached"
    if mode is Setting.LOCAL and any(
            not e.touches(a) for a, es in result.strategies.items() for e in es):
        return record, 0, "a local equilibrium buys a non-incident edge"
    agent = improving_agent(dict(result.strategies), host, mode)
    if agent is not None:
        return record, 0, f"searched profile is not an equilibrium: {agent} can improve"
    return record, 0, None


def digest(records) -> str:
    """SHA-256 over the canonical JSON of ``[(job name, record), ...]``."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
