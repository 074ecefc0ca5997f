"""Price-of-anarchy records: equilibrium size against the social optimum.

At any verified equilibrium the social cost is (0, realized edge count), so
the interesting ratio is realized edges over the minimum terminal spanner
size. Optima are exact whenever the search succeeds; otherwise the record
carries an upper bound flagged as inexact, the size of the host pruned to an
inclusion-minimal spanner, together with the universal n - 1 lower bound,
never a silent guess.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterable
from dataclasses import dataclass

from .core import HostGraph
from .errors import SearchTooLarge
from .game import (
    EquilibriumKind,
    Setting,
    StrategyProfile,
    VerificationReport,
    is_greedy_equilibrium,
    is_nash_equilibrium,
    realized_graph,
)
from .spanner_opt import min_terminal_spanner, prune_to_minimal

CSV_COLUMNS = (
    "name",
    "n",
    "k",
    "lifetime",
    "kind",
    "setting",
    "equilibrium_edges",
    "optimum_edges",
    "optimum_exact",
    "optimum_lower_bound",
    "ratio",
)


@dataclass(frozen=True)
class PoARecord:
    """One experiment row; ``optimum_exact`` distinguishes proven optima from
    upper bounds (the lower bound column then brackets the truth)."""

    name: str
    nodes: int
    terminals: int
    lifetime: int
    kind: EquilibriumKind
    setting: Setting
    equilibrium_edges: int
    optimum_edges: int
    optimum_exact: bool
    optimum_lower_bound: int
    ratio: float

    def as_row(self) -> dict[str, object]:
        values = (
            self.name, self.nodes, self.terminals, self.lifetime, self.kind.value,
            self.setting.value, self.equilibrium_edges, self.optimum_edges,
            self.optimum_exact, self.optimum_lower_bound, self.ratio,
        )
        return dict(zip(CSV_COLUMNS, values, strict=True))


def compute_optimum(host: HostGraph) -> tuple[int, bool, int]:
    """(optimum or best upper bound, exact flag, lower bound); the bounds
    come from :func:`optimum_bounds` when the exact search refuses."""
    try:
        exact = min_terminal_spanner(host).time_edge_count
    except SearchTooLarge:
        upper, lower = optimum_bounds(host)
        return upper, False, lower
    return exact, True, exact


def optimum_bounds(host: HostGraph) -> tuple[int, int]:
    """(upper, lower) optimum bounds without the exact search: the size of
    the host pruned to an inclusion-minimal spanner, and n - 1."""
    upper = prune_to_minimal(host.graph, host.terminals).time_edge_count
    return upper, max(host.node_count - 1, 0)


def build_poa_record(
    name: str,
    host: HostGraph,
    profile: StrategyProfile,
    kind: EquilibriumKind = EquilibriumKind.NASH,
) -> tuple[PoARecord | None, VerificationReport]:
    """Verify the profile, then measure it against the optimum.

    Returns ``(None, report)`` when verification does not confirm the claimed
    equilibrium kind; callers skip the record and surface the report.
    """
    if kind is EquilibriumKind.NASH:
        report = is_nash_equilibrium(profile, host)
    else:
        report = is_greedy_equilibrium(profile, host)
    if not report.is_equilibrium:
        return None, report
    equilibrium_edges = realized_graph(profile, host).time_edge_count
    optimum, exact, lower = compute_optimum(host)
    record = PoARecord(
        name=name,
        nodes=host.node_count,
        terminals=host.terminal_count,
        lifetime=host.lifetime,
        kind=kind,
        setting=profile.setting,
        equilibrium_edges=equilibrium_edges,
        optimum_edges=optimum,
        optimum_exact=exact,
        optimum_lower_bound=lower,
        # Only n = 1 has optimum 0, and its equilibrium is empty too.
        ratio=equilibrium_edges / optimum if optimum else 1.0,
    )
    return record, report


def records_to_csv(records: Iterable[PoARecord]) -> str:
    """Fixed-column CSV, rows sorted by instance name."""
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for record in sorted(records, key=lambda r: r.name):
        writer.writerow(record.as_row())
    return out.getvalue()


def records_to_json(records: Iterable[PoARecord]) -> str:
    rows = [r.as_row() for r in sorted(records, key=lambda r: r.name)]
    return json.dumps(rows, indent=2) + "\n"
