"""Seeded job lists for the three benchmark workloads.

A job is one library call on an instance held as canonical instance JSON
text. Building a job list is the benchmark's set-up: it runs the
``constructions`` layer and serialises every instance, so that a timed job
starts from text the way a CLI invocation starts from a file.

The seed only chooses inputs. Jobs marked ``seeded=False`` (hypercubes,
dense cycles, fixtures) are the same for every seed; their answers are pinned
in ``answers.PINNED_DIGESTS``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import tempo_ncg as tn
from tempo_ncg import Setting

from answers import independent_survivors

# Deviation-search budget for the dense-cycle agent v00.00. The unbudgeted
# search needs 723,542 states, so this budget is always exhausted.
DENSE_V_BUDGET = 20_000
# Survivor budget for global sweeps of two-terminal equilibria.
GLOBAL_SWEEP_BUDGET = 100
# Round limit for greedy dynamics.
DYNAMICS_ROUNDS = 30
# The exact optimum search's default candidate-edge budget.
MAX_CANDIDATE_EDGES = tn.SpannerSearchConfig().max_candidate_edges
# Hosts drawn at most for a fallback job before the last draw is kept.
REFUSAL_DRAWS = 50
# One-label-tree optimum jobs; the group that holds p50 of optimum-poa.
MONO_JOBS = 240
# Prune-fallback jobs at n=10; the group that holds p90 of optimum-poa.
FALLBACK_N10_JOBS = 48


@dataclass(frozen=True)
class Job:
    """One timed call.

    ``kind`` names the library entry point (see ``call``), ``text`` is the
    instance JSON and ``args`` the call's extra arguments. ``expect`` is the
    outcome the job list predicts before the call: a verdict,
    ``no-deviation`` or ``budget-exhausted`` for a deviation search, ``exact``
    or ``refused`` for an optimum, ``refused`` or ``done`` for a sweep,
    ``stopped`` for dynamics (converged, or a certified stop at the limit).
    ``refused`` means the library raises ``SearchTooLarge`` and, for an
    optimum, ``compute_optimum`` then brackets it.
    """

    name: str
    kind: str
    text: str
    expect: str
    seeded: bool
    args: dict = field(default_factory=dict)


def _text(name: str, host, profile=None) -> str:
    return tn.dumps_instance(tn.InstanceFile(name=name, host=host, profile=profile))


def _mono_label_connected(host) -> bool:
    """Whether one label class alone connects every node (union-find)."""
    for label in {e.label for e in host.time_edges()}:
        parent = {v: v for v in host.nodes}

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        parts = len(parent)
        for e in host.time_edges():
            if e.label == label:
                ru, rv = find(e.u), find(e.v)
                if ru != rv:
                    parent[ru] = rv
                    parts -= 1
        if parts == 1:
            return True
    return False


def _optimum_expect(host) -> str:
    # The exact search settles a host at once when one label class connects
    # it, and otherwise refuses when the candidate pool exceeds its budget.
    if _mono_label_connected(host):
        return "exact"
    return "exact" if host.time_edge_count <= MAX_CANDIDATE_EDGES else "refused"


class Builder:
    """Seeded input generator for one job list.

    ``refusals`` records every random host on which ``two_terminal_ne``
    raised ``PreconditionFailed``; such a host is reported and replaced by
    the next draw, so a refusal of the construction at set-up shows in the
    output instead of stopping the run.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.rng = random.Random(f"{workload}:{seed}")
        self.refusals: list[str] = []

    def host(self, n: int, k: int, **kwargs):
        return tn.random_host(n, k, self.rng.randrange(2**31), **kwargs)

    def refusal_host(self, n: int, k: int):
        """The first drawn host that the exact optimum search refuses, so
        that every job of a fallback group does the same kind of work."""
        for _ in range(REFUSAL_DRAWS - 1):
            host = self.host(n, k)
            if _optimum_expect(host) == "refused":
                return host
        return self.host(n, k)

    def two_terminal(self, n: int, setting: Setting, **kwargs):
        while True:
            host_seed = self.rng.randrange(2**31)
            host = tn.random_host(n, 2, host_seed, **kwargs)
            try:
                return host, tn.two_terminal_ne(host, setting)
            except tn.PreconditionFailed as exc:
                self.refusals.append(
                    f"two_terminal_ne(random_host({n}, 2, {host_seed}, "
                    f"{', '.join(f'{k}={v}' for k, v in kwargs.items())}), "
                    f"{setting.value}): {exc}")


def nash_verify_jobs(b: Builder) -> list[Job]:
    jobs: list[Job] = []
    for d in (5, 4):
        host, profile = tn.hypercube_equilibrium(d)
        jobs.append(Job(f"ne-hypercube-d{d}", "verify-ne",
                        _text(f"hypercube-d{d}", host, profile), "equilibrium", False))
    dense = tn.dense_cycle_instance(4)
    dense_text = _text("dense-cycle-x4", dense.host, dense.profile)
    jobs.append(Job("dev-dense4-w00.00", "deviation", dense_text, "no-deviation", False,
                    {"agent": "w00.00"}))
    jobs.append(Job("dev-dense4-v00.00-budget", "deviation", dense_text,
                    "budget-exhausted", False,
                    {"agent": "v00.00", "budget": DENSE_V_BUDGET}))
    # Agent 00001 also buys the edge 00000 bought towards it: 00000 may drop
    # its copy, and the exact search of agent 00000 finds that witness.
    host, profile = tn.hypercube_equilibrium(5)
    dup = next(e for e in profile.strategy("00000") if e.touches("00001"))
    redundant = profile.with_strategy("00001", profile.strategy("00001") | {dup})
    jobs.append(Job("ne-hypercube-d5-redundant", "verify-ne",
                    _text("hypercube-d5-redundant", host, redundant), "refuted", False))
    # With two or more terminals, both ends of a terminal pair buy the direct
    # edge between them, so the direct profile is always refuted.
    for i in range(4):
        n = 6 + 2 * i
        host = b.host(n, 2 + i % 2)
        setting = Setting.LOCAL if i % 2 else Setting.GLOBAL
        profile = tn.direct_terminal_profile(host, setting)
        jobs.append(Job(f"ne-direct-n{n}-{i}", "verify-ne",
                        _text(f"direct-{i}", host, profile), "refuted", True))
    # The latency percentiles fall inside this group of 100 similar jobs.
    for i in range(100):
        n = 8 + i % 17
        setting = Setting.LOCAL if i % 2 else Setting.GLOBAL
        host, profile = b.two_terminal(n, setting, extra_label_prob=0.3)
        jobs.append(Job(f"ne-two-terminal-n{n}-{i}", "verify-ne",
                        _text(f"two-terminal-{i}", host, profile), "equilibrium", True))
    return jobs


def optimum_poa_jobs(b: Builder) -> list[Job]:
    jobs: list[Job] = []

    def optimum(name, host, seeded=True):
        jobs.append(Job(name, "optimum", _text(name, host), _optimum_expect(host), seeded))

    # Cheap group holding the median, of nearly equal cost: with two labels
    # one label class or its complement connects the host, so the one-label
    # tree settles every one. More jobs cost more than this group than less,
    # so it is large enough that the median lies well inside it.
    for i in range(MONO_JOBS):
        n = 12 + i % 3
        optimum(f"opt-mono-n{n}-{i}", b.host(n, 3, max_label=2))
    for i in range(12):
        n = 5 if i < 8 else 6
        optimum(f"opt-small-n{n}-{i}", b.host(n, 2 + i % 3))
    for n in range(7, 14):
        optimum(f"opt-fallback-n{n}", b.refusal_host(n, 2 + n % 4))
    # The large fallbacks dominate a pass, so their hosts are fixed: a seed
    # then changes only the small jobs. random_host(20, 4, 7) is the ROADMAP
    # L3 case (bracket [19, 27]).
    for n in range(14, 21):
        optimum(f"opt-fallback-n{n}", tn.random_host(n, 4, 7), seeded=False)
    # Group holding p90: the prune fallback at n=10 costs about the same on
    # every host. The group is large, so that a few seeded jobs crossing it
    # move p90 by a small step.
    for i in range(FALLBACK_N10_JOBS):
        optimum(f"opt-fallback-n10-{i}", b.refusal_host(10, 3))
    for d in (3, 4):
        host, profile = tn.hypercube_equilibrium(d)
        jobs.append(Job(f"poa-hypercube-d{d}", "poa",
                        _text(f"hypercube-d{d}", host, profile), "equilibrium", False))
    host3, profile3 = tn.hypercube_equilibrium(3)
    host, profile = tn.scale_with_nonterminals(host3, profile3, 3)
    jobs.append(Job("poa-scaled-hypercube-d3", "poa",
                    _text("scaled-hypercube-d3", host, profile), "equilibrium", False))
    for i in range(12):
        n = 5 + i % 4
        host, profile = b.two_terminal(n, Setting.GLOBAL)
        jobs.append(Job(f"poa-two-terminal-n{n}-{i}", "poa",
                        _text(f"two-terminal-{i}", host, profile), "equilibrium", True))
    for i in range(12):
        n = 6 + i % 4
        jobs.append(Job(f"chain-n{n}-{i}", "prune-chain",
                        _text(f"chain-{i}", b.host(n, 2 + i % 3, max_label=3)),
                        "equilibrium", True))
    return jobs


def sweep_dynamics_jobs(b: Builder) -> list[Job]:
    jobs: list[Job] = []
    for name in tn.FIXTURE_BUILDERS:
        inst = tn.get_fixture(name)
        text = tn.dumps_instance(inst)
        expect = "refuted" if name == "fig4" else "equilibrium"
        jobs.append(Job(f"ne-{name}", "verify-ne", text, expect, False))
        for mode in Setting:
            jobs.append(Job(f"sweep-{name}-{mode.value}", "sweep", text, "done", False,
                            {"mode": mode.value}))
    dense = tn.dense_cycle_instance(6)
    jobs.append(Job("ge-dense6", "verify-ge",
                    _text("dense-cycle-x6", dense.host, dense.profile), "equilibrium",
                    False))
    # Both percentiles fall inside this group of similar local sweeps: fewer
    # than a tenth of the jobs ever cost more than its largest ones.
    for i in range(140):
        n = 7 + i % 3
        host, profile = b.two_terminal(n, Setting.LOCAL, extra_label_prob=0.3)
        jobs.append(Job(f"sweep-local-n{n}-{i}", "sweep",
                        _text(f"sweep-local-{i}", host, profile), "done", True,
                        {"mode": "local"}))
    for i in range(8):
        n = 5 + i % 3
        host, profile = b.two_terminal(n, Setting.GLOBAL, extra_label_prob=0.3)
        survivors = independent_survivors(host, profile.bought_edges(), Setting.GLOBAL)
        expect = "refused" if survivors > GLOBAL_SWEEP_BUDGET else "done"
        jobs.append(Job(f"sweep-global-n{n}-{i}", "sweep",
                        _text(f"sweep-global-{i}", host, profile), expect, True,
                        {"mode": "global", "budget": GLOBAL_SWEEP_BUDGET,
                         "survivors": survivors}))
    # Greedy dynamics may cycle; a run that stops at the round limit is a
    # valid answer when its last profile still has an improving move.
    for i in range(24):
        n = 8 + i % 6
        setting = Setting.LOCAL if i % 2 else Setting.GLOBAL
        jobs.append(Job(f"dyn-n{n}-{i}", "dynamics", _text(f"dyn-{i}", b.host(n, 2 + i % 2)),
                        "stopped", True,
                        {"setting": setting.value, "max_rounds": DYNAMICS_ROUNDS}))
    for i in range(12):
        n = 4 + i % 2
        setting = Setting.LOCAL if i % 2 else Setting.GLOBAL
        jobs.append(Job(f"search-n{n}-{i}", "search",
                        _text(f"search-{i}", b.host(n, 1 + i % n, max_label=2)),
                        "done", True, {"setting": setting.value}))
    return jobs


BUILDERS = {
    "nash-verify": nash_verify_jobs,
    "optimum-poa": optimum_poa_jobs,
    "sweep-dynamics": sweep_dynamics_jobs,
}


def build(workload: str, seed: int) -> tuple[list[Job], list[str]]:
    """The workload's job list for ``seed`` and the construction refusals met."""
    builder = Builder(workload, seed)
    return BUILDERS[workload](builder), builder.refusals


def call(job: Job):
    """Parse the job's instance and make the call the matching CLI command
    makes. Returns ``(instance, result)``; a refusal is returned as the
    ``SearchTooLarge`` it raised. This is the timed part of a job."""
    inst = tn.loads_instance(job.text)
    host, profile, args = inst.host, inst.profile, job.args
    if job.kind == "verify-ne":
        return inst, tn.is_nash_equilibrium(profile, host, budget=args.get("budget"))
    if job.kind == "verify-ge":
        return inst, tn.is_greedy_equilibrium(profile, host)
    if job.kind == "deviation":
        return inst, tn.find_improving_response(
            args["agent"], profile, host, budget=args.get("budget"))
    if job.kind == "optimum":
        try:
            return inst, tn.min_terminal_spanner(host)
        except tn.SearchTooLarge:
            return inst, tn.compute_optimum(host)
    if job.kind == "poa":
        return inst, tn.build_poa_record(inst.name, host, profile)
    if job.kind == "prune-chain":
        pruned = tn.prune_to_minimal(host.graph, host.terminals)
        ge = tn.ge_from_minimal_spanner(pruned, host)
        return inst, (pruned, ge, tn.is_greedy_equilibrium(ge, host))
    if job.kind == "sweep":
        target = tn.realized_graph(profile, host)
        try:
            return inst, tn.sweep_ownership(
                host, target, Setting(args["mode"]), budget=args.get("budget"), workers=1)
        except tn.SearchTooLarge as exc:
            return inst, exc
    if job.kind == "dynamics":
        start = profile or tn.direct_terminal_profile(host, Setting(args["setting"]))
        return inst, tn.greedy_dynamics(start, host, max_rounds=args["max_rounds"])
    if job.kind == "search":
        return inst, tn.find_nash_by_search(host, Setting(args["setting"]))
    raise ValueError(f"unknown job kind {job.kind!r}")
