"""Command line front end.

Subcommands: ``gen`` (instance families), ``verify`` (equilibrium check),
``sweep`` (ownership enumeration), ``dynamics`` (greedy best-response),
``optimum`` (minimum terminal spanner), ``poa`` (ratio table). Exit codes
follow one contract everywhere: 0 verified/holds, 1 refuted (witness on
stdout), 2 inconclusive or usage error.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import NoReturn

import click

from .constructions import (
    dense_cycle_instance,
    extend_with_nonterminal,
    extend_with_terminal,
    graph_product,
    hypercube_equilibrium,
    random_host,
    scale_with_nonterminals,
    two_terminal_ne,
)
from .errors import SearchTooLarge, TemporalGameError
from .fixtures import FIXTURE_BUILDERS, get_fixture
from .game import (
    EquilibriumKind,
    Setting,
    StrategyProfile,
    Verdict,
    VerificationReport,
    direct_terminal_profile,
    greedy_dynamics,
    is_greedy_equilibrium,
    is_nash_equilibrium,
    realized_graph,
)
from .instance_io import InstanceFile, dumps_instance, load_instance
from .poa import build_poa_record, optimum_bounds, records_to_csv, records_to_json
from .spanner_opt import SpannerSearchConfig, min_terminal_spanner
from .sweeps import sweep_ownership


def _fail_usage(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _load_or_die(path: str) -> InstanceFile:
    try:
        return load_instance(path)
    except (OSError, ValueError, TemporalGameError) as exc:
        _fail_usage(f"cannot load {path}: {exc}")


def _require_profile(instance: InstanceFile) -> StrategyProfile:
    if instance.profile is None:
        _fail_usage(f"instance {instance.name!r} carries no profile")
    return instance.profile


def _dense_cycle(o: dict) -> tuple:
    built = dense_cycle_instance(o["x"])
    return (f"dense-cycle-x{o['x']}", built.host, built.profile,
            "generated: dense cycle family")


def _two_terminal(o: dict) -> tuple:
    host = random_host(o["n"], 2, o["seed"], max_label=o["max_label"],
                       extra_label_prob=o["extra_label_prob"])
    return (f"two-terminal-n{o['n']}-s{o['seed']}", host,
            two_terminal_ne(host, Setting(o["setting"])),
            "generated: equilibrium on a seeded random host")


# family -> (options it requires, builder of (name, host, profile, source)).
# A builder gets the options, then the instances its file options name.
_FILE_OPTIONS = ("instance", "left", "right")
_GENERATORS = {
    "dense-cycle": (("x",), _dense_cycle),
    "hypercube": (("d",), lambda o: (
        f"hypercube-d{o['d']}", *hypercube_equilibrium(o["d"]),
        "generated: iterated product of single-edge instances")),
    "two-terminal": (("n",), _two_terminal),
    "scale": (("instance", "c"), lambda o, b: (
        f"{b.name}-scale-c{o['c']}", *scale_with_nonterminals(b.host, b.profile, o["c"]),
        f"generated: {b.name} with {o['c'] - 1} satellites per node")),
    "product": (("left", "right"), lambda o, a, b: (
        f"{a.name}-x-{b.name}", *graph_product(a.host, a.profile, b.host, b.profile),
        f"generated: product of {a.name} and {b.name}")),
    "extend-terminal": (("instance",), lambda o, b: (
        f"{b.name}-ext-t", *extend_with_terminal(b.host, b.profile),
        f"generated: {b.name} plus one terminal")),
    "extend-nonterminal": (("instance",), lambda o, b: (
        f"{b.name}-ext-n", *extend_with_nonterminal(b.host, b.profile),
        f"generated: {b.name} plus one non-terminal")),
}
FAMILIES = tuple(_GENERATORS) + tuple(FIXTURE_BUILDERS)


def _strategy_triples(edges) -> list[list[object]]:
    return [[e.u, e.v, e.label] for e in sorted(edges)]


def _report_dict(report: VerificationReport) -> dict:
    data: dict = {
        "verdict": report.verdict.value,
        "states_examined": report.states_examined,
    }
    if report.exhausted:
        data["exhausted"] = list(report.exhausted)
    if report.witness is not None:
        data["witness"] = {
            "agent": report.witness.agent,
            "strategy": _strategy_triples(report.witness.strategy),
        }
    if report.certificates:
        data["certificates"] = {
            name: {"value": c.value, "bound": c.bound, "holds": c.holds}
            for name, c in sorted(report.certificates.items())
        }
    return data


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=not text.endswith("\n"))
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail_usage(f"cannot write {out}: {exc}")


@click.group()
def main() -> None:
    """Temporal network creation game toolkit."""


@main.command()
@click.argument("family", type=click.Choice(FAMILIES))
@click.option("--x", type=int, help="dense-cycle size parameter (even, >= 2)")
@click.option("--d", type=int, help="hypercube dimension (>= 1)")
@click.option("--c", type=int, help="scale factor (>= 1)")
@click.option("--n", type=int, help="two-terminal node count (>= 2)")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--max-label", type=int, help="random host label cap")
@click.option(
    "--extra-label-prob", type=float, default=0.0, show_default=True,
    help="chance of extra labels per pair in random hosts",
)
@click.option(
    "--setting", type=click.Choice([s.value for s in Setting]),
    default=Setting.GLOBAL.value, show_default=True,
    help="setting for the two-terminal construction",
)
@click.option("--instance", type=click.Path(exists=True),
              help="input instance for scale / extend families")
@click.option("--left", type=click.Path(exists=True), help="product left factor")
@click.option("--right", type=click.Path(exists=True), help="product right factor")
@click.option("--name", help="override the generated instance name")
@click.option("--out", type=click.Path(), help="write here instead of stdout")
def gen(family, name, out, **options) -> None:
    """Generate an instance (host + profile) from a named family."""
    try:
        if family in FIXTURE_BUILDERS:
            instance = get_fixture(family)
        else:
            required, build = _GENERATORS[family]
            if any(options[key] is None for key in required):
                _fail_usage(f"{family} needs " + " and ".join(f"--{k}" for k in required))
            bases = [_load_or_die(options[k]) for k in required if k in _FILE_OPTIONS]
            for base in bases:
                _require_profile(base)
            instance = InstanceFile(*build(options, *bases))
    except (TemporalGameError, ValueError) as exc:
        _fail_usage(str(exc))
    if name:
        instance = replace(instance, name=name)
    _emit(dumps_instance(instance), out)


_EXIT_BY_VERDICT = {
    Verdict.EQUILIBRIUM: 0,
    Verdict.REFUTED: 1,
    Verdict.INCONCLUSIVE: 2,
}


@main.command()
@click.argument("instance", type=click.Path(exists=True))
@click.option("--kind", type=click.Choice([k.value for k in EquilibriumKind]),
              default=EquilibriumKind.NASH.value, show_default=True)
@click.option("--budget", type=int, help="deviation-search state budget (ne only)")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def verify(instance, kind, budget, fmt) -> None:
    """Verify the instance's profile; exit 0/1/2 = holds/refuted/inconclusive."""
    nash = EquilibriumKind(kind) is EquilibriumKind.NASH
    if budget is not None and budget < 1:
        _fail_usage("search budgets must be positive")
    if budget is not None and not nash:
        _fail_usage("--budget applies to --kind ne only")
    inst = _load_or_die(instance)
    profile = _require_profile(inst)
    if nash:
        report = is_nash_equilibrium(profile, inst.host, budget=budget)
    else:
        report = is_greedy_equilibrium(profile, inst.host)
    data = _report_dict(report)
    if fmt == "json":
        click.echo(json.dumps(data, indent=2))
    else:
        witness = data.get("witness", {})
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("verdict", "witness_agent", "witness_strategy", "states_examined"))
        writer.writerow((data["verdict"], witness.get("agent", ""),
                         json.dumps(witness.get("strategy", [])), data["states_examined"]))
        if report.exhausted:
            click.echo(f"budget ran out for: {', '.join(report.exhausted)}", err=True)
    sys.exit(_EXIT_BY_VERDICT[report.verdict])


@main.command()
@click.argument("instance", type=click.Path(exists=True))
@click.option("--mode", type=click.Choice([s.value for s in Setting]), required=True)
@click.option("--expected", type=int, help="expected equilibrium count")
@click.option("--budget", type=int, help="cap on surviving assignments")
def sweep(instance, mode, expected, budget) -> None:
    """Enumerate ownerships of the profile's realized graph and verify each."""
    if budget is not None and budget < 1:
        _fail_usage("search budgets must be positive")
    inst = _load_or_die(instance)
    profile = _require_profile(inst)
    target = realized_graph(profile, inst.host)
    try:
        result = sweep_ownership(inst.host, target, Setting(mode), budget=budget)
    except SearchTooLarge as exc:
        _fail_usage(str(exc))
    click.echo(json.dumps({
        "total_assignments": result.total_assignments,
        "survivors": result.survivors,
        "equilibria_found": result.equilibrium_count,
        "equilibria": [
            {agent: _strategy_triples(bought) for agent, bought in p.strategies.items()}
            for p in result.equilibria
        ],
    }, indent=2))
    if expected is not None and result.equilibrium_count != expected:
        sys.exit(1)


@main.command()
@click.argument("instance", type=click.Path(exists=True))
@click.option("--max-rounds", type=int, default=100, show_default=True)
@click.option(
    "--setting", type=click.Choice([s.value for s in Setting]),
    default=Setting.GLOBAL.value, show_default=True,
    help="setting for the default start when the instance has no profile",
)
def dynamics(instance, max_rounds, setting) -> None:
    """Run round-robin greedy dynamics from the instance profile.

    Without a profile, starts from everyone buying direct terminal edges.
    """
    if max_rounds < 0:
        _fail_usage("--max-rounds must be nonnegative")
    inst = _load_or_die(instance)
    start = inst.profile or direct_terminal_profile(inst.host, Setting(setting))
    result = greedy_dynamics(start, inst.host, max_rounds=max_rounds)
    click.echo(json.dumps({
        "converged": result.converged,
        "rounds": result.rounds,
        "strategies": {
            agent: _strategy_triples(bought)
            for agent, bought in result.profile.strategies.items()
        },
        "report": _report_dict(result.report) if result.report else None,
    }, indent=2))
    if not result.converged:
        sys.exit(2)


@main.command()
@click.argument("instance", type=click.Path(exists=True))
@click.option("--max-edges", type=int, show_default=True,
              default=SpannerSearchConfig().max_candidate_edges)
@click.option("--max-subsets", type=int, show_default=True,
              default=SpannerSearchConfig().max_subsets)
def optimum(instance, max_edges, max_subsets) -> None:
    """Exact minimum terminal spanner, or bracketed bounds (exit 2)."""
    inst = _load_or_die(instance)
    try:
        config = SpannerSearchConfig(max_candidate_edges=max_edges,
                                     max_subsets=max_subsets)
    except ValueError as exc:
        _fail_usage(str(exc))
    try:
        spanner = min_terminal_spanner(inst.host, config)
    except SearchTooLarge:
        upper, lower = optimum_bounds(inst.host)
        click.echo(json.dumps({
            "exact": False, "lower_bound": lower, "upper_bound": upper,
        }, indent=2))
        sys.exit(2)
    click.echo(json.dumps({
        "exact": True,
        "size": spanner.time_edge_count,
        "edges": _strategy_triples(spanner.time_edges()),
    }, indent=2))


@main.command()
@click.argument("instances", type=click.Path(exists=True), nargs=-1, required=True)
@click.option("--kind", type=click.Choice([k.value for k in EquilibriumKind]),
              default=EquilibriumKind.NASH.value, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--out", type=click.Path(), help="write here instead of stdout")
def poa(instances, kind, fmt, out) -> None:
    """Equilibrium-size versus optimum table for verified instances."""
    records = []
    for path in instances:
        inst = _load_or_die(path)
        profile = _require_profile(inst)
        record, report = build_poa_record(
            inst.name, inst.host, profile, EquilibriumKind(kind)
        )
        if record is None:
            click.echo(
                f"warning: {inst.name} failed {kind} verification "
                f"({report.verdict.value}); skipped", err=True,
            )
            continue
        records.append(record)
    if not records:
        _fail_usage("no instance produced a record")
    text = records_to_csv(records) if fmt == "csv" else records_to_json(records)
    _emit(text, out)


if __name__ == "__main__":
    main()
