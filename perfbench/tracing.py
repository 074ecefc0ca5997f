"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function in every ``tempo_ncg``
module namespace that binds it (``propagate_arrivals`` is imported into
``game``, ``sweeps``, ``spanner_opt`` and ``constructions``, for example) and
each traced method on its class. While ``active`` is true a call records one
span: id, name, start, end, parent span, job id and a small outcome value.
Spans stay in memory; ``layer_metrics`` turns one pass's spans into the
per-layer metrics and ``write`` saves them as JSON lines.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from statistics import median

from tempo_ncg import SearchTooLarge


def _edges_in(args, kwargs, result):
    # Base-group edges plus extra edges handed to the kernel.
    groups = args[0] if args else kwargs["groups"]
    extra = args[2] if len(args) > 2 else kwargs.get("extra", ())
    return sum(len(edges) for _, edges in groups) + len(extra)


def _search(args, kwargs, result):
    return (result.states_examined, result.exact)


def _sweep(args, kwargs, result):
    return (result.total_assignments, result.survivors, result.equilibrium_count)


# (module, attribute path, outcome extractor or None)
TARGETS = [
    ("core", "propagate_arrivals", _edges_in),
    ("core", "TemporalGraph.__init__", None),
    ("core", "TemporalGraph.label_groups", None),
    ("core", "is_terminal_spanner", None),
    ("game", "find_improving_response", _search),
    ("game", "is_nash_equilibrium", None),
    ("game", "StrategyProfile.validate", None),
    ("game", "realized_graph", None),
    ("game", "agent_cost", None),
    ("game", "greedy_improving_response", None),
    ("game", "is_greedy_equilibrium", None),
    ("game", "greedy_dynamics", lambda a, k, r: r.rounds),
    ("sweeps", "sweep_ownership", _sweep),
    ("sweeps", "edge_needers", None),
    ("sweeps", "find_nash_by_search", None),
    ("spanner_opt", "min_terminal_spanner", None),
    ("spanner_opt", "mono_label_spanning_tree", lambda a, k, r: r is not None),
    ("spanner_opt", "prune_to_minimal", None),
    ("spanner_opt", "ge_from_minimal_spanner", None),
    ("poa", "compute_optimum", lambda a, k, r: r[1]),
    ("poa", "build_poa_record", None),
    ("instance_io", "loads_instance",
     lambda a, k, r: len((a[0] if a else k["text"]).encode("utf-8"))),
]
# Every public function of ``constructions`` is traced too; it runs at set-up.
CONSTRUCTIONS = "constructions"

REFUSED = "refused"


class Tracer:
    """Records spans while ``active``; ``job`` names the job they belong to."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self.job: str | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, outcome):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            stack = tracer._stack
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                stack.pop()
                info = REFUSED if isinstance(exc, SearchTooLarge) else "error"
                tracer.spans.append((span_id, name, start, end, parent, tracer.job, info))
                raise
            end = clock()
            stack.pop()
            info = None if outcome is None else outcome(args, kwargs, result)
            tracer.spans.append((span_id, name, start, end, parent, tracer.job, info))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        package = [m for n, m in list(sys.modules.items())
                   if n == "tempo_ncg" or n.startswith("tempo_ncg.")]
        targets = list(TARGETS)
        cons = importlib.import_module(f"tempo_ncg.{CONSTRUCTIONS}")
        for attr, value in vars(cons).items():
            if (callable(value) and not isinstance(value, type) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == cons.__name__):
                targets.append((CONSTRUCTIONS, attr, None))
        for module_name, path, outcome in targets:
            module = importlib.import_module(f"tempo_ncg.{module_name}")
            name = f"{module_name}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                self._patch(owner, attr, self._wrap(name, original, outcome))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, outcome)
            for namespace in package:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, attr, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def write(spans: list[tuple], path) -> None:
    keys = ("id", "name", "start", "end", "parent", "job", "info")
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")


def _has_ancestor(span_id, parents, names, wanted) -> bool:
    parent = parents[span_id]
    while parent is not None:
        if wanted(names[parent]):
            return True
        parent = parents[parent]
    return False


def constructions_time(spans: list[tuple]) -> float:
    """Time inside outermost ``constructions`` calls."""
    parents = {s[0]: s[4] for s in spans}
    names = {s[0]: s[1] for s in spans}
    is_cons = lambda name: name.startswith(CONSTRUCTIONS + ".")  # noqa: E731
    return sum(s[3] - s[2] for s in spans
               if is_cons(s[1]) and not _has_ancestor(s[0], parents, names, is_cons))


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one pass's spans, as listed in README.md."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    infos: dict[str, list] = defaultdict(list)
    parents, names = {}, {}
    for span_id, name, start, end, parent, _job, info in spans:
        calls[name] += 1
        total[name] += end - start
        if parent is not None:
            child[parent] += end - start
        if info is not None:
            infos[name].append(info)
        parents[span_id] = parent
        names[span_id] = name
    self_time: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, *_ in spans:
        self_time[name] += end - start - child[span_id]

    def ratio(a, b):
        return a / b if b else 0.0

    kernel = "core.propagate_arrivals"
    search = "game.find_improving_response"
    searches = [i for i in infos[search] if i not in (REFUSED, "error")]
    states = sum(i[0] for i in searches)
    in_search = sum(
        1 for s in spans
        if s[1] == kernel and _has_ancestor(s[0], parents, names, lambda n: n == search))
    sweeps = [i for i in infos["sweeps.sweep_ownership"] if isinstance(i, tuple)]
    mono = infos["spanner_opt.mono_label_spanning_tree"]
    optima = [i for i in infos["poa.compute_optimum"] if isinstance(i, bool)]
    m = {
        "core.propagate_arrivals.calls": calls[kernel],
        "core.propagate_arrivals.time_s": total[kernel],
        "core.propagate_arrivals.edges_in": sum(infos[kernel]),
        "core.TemporalGraph.builds": calls["core.TemporalGraph.__init__"],
        "core.TemporalGraph.build_s": total["core.TemporalGraph.__init__"],
        "core.label_groups.time_s": total["core.TemporalGraph.label_groups"],
        "core.is_terminal_spanner.calls": calls["core.is_terminal_spanner"],
        "core.is_terminal_spanner.self_s": self_time["core.is_terminal_spanner"],
        "game.find_improving_response.calls": calls[search],
        "game.find_improving_response.self_s": self_time[search],
        "game.find_improving_response.states": states,
        "game.find_improving_response.exhausted": sum(1 for i in searches if not i[1]),
        "game.find_improving_response.kernel_calls_per_state": ratio(in_search, states),
    }
    for name in ("is_nash_equilibrium", "StrategyProfile.validate", "realized_graph",
                 "agent_cost", "greedy_improving_response", "is_greedy_equilibrium"):
        m[f"game.{name}.calls"] = calls[f"game.{name}"]
        m[f"game.{name}.time_s"] = total[f"game.{name}"]
    m["game.greedy_dynamics.rounds"] = sum(
        i for i in infos["game.greedy_dynamics"] if isinstance(i, int))
    m.update({
        "sweeps.sweep_ownership.calls": calls["sweeps.sweep_ownership"],
        "sweeps.sweep_ownership.self_s": self_time["sweeps.sweep_ownership"],
        "sweeps.edge_needers.time_s": total["sweeps.edge_needers"],
        "sweeps.survivor_frac": ratio(sum(i[1] for i in sweeps), sum(i[0] for i in sweeps)),
        "sweeps.equilibrium_frac": ratio(sum(i[2] for i in sweeps),
                                         sum(i[1] for i in sweeps)),
        "sweeps.refusals": infos["sweeps.sweep_ownership"].count(REFUSED),
        "sweeps.find_nash_by_search.self_s": self_time["sweeps.find_nash_by_search"],
        "spanner_opt.min_terminal_spanner.calls": calls["spanner_opt.min_terminal_spanner"],
        "spanner_opt.min_terminal_spanner.self_s":
            self_time["spanner_opt.min_terminal_spanner"],
        "spanner_opt.min_terminal_spanner.refusals":
            infos["spanner_opt.min_terminal_spanner"].count(REFUSED),
        "spanner_opt.mono_label_spanning_tree.hit_frac":
            ratio(sum(1 for i in mono if i is True), len(mono)),
        "spanner_opt.prune_to_minimal.self_s": self_time["spanner_opt.prune_to_minimal"],
        "spanner_opt.ge_from_minimal_spanner.self_s":
            self_time["spanner_opt.ge_from_minimal_spanner"],
        "poa.compute_optimum.calls": calls["poa.compute_optimum"],
        "poa.compute_optimum.self_s": self_time["poa.compute_optimum"],
        "poa.compute_optimum.exact_frac": ratio(sum(optima), len(optima)),
        "poa.build_poa_record.self_s": self_time["poa.build_poa_record"],
        "instance_io.loads_instance.calls": calls["instance_io.loads_instance"],
        "instance_io.loads_instance.time_s": total["instance_io.loads_instance"],
        "instance_io.loads_instance.bytes": sum(infos["instance_io.loads_instance"]),
    })
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(p[key] for p in passes) for key in passes[0]}
