"""Temporal network creation games on k-terminal host graphs.

Agents (graph nodes) buy time-labelled edges of a complete temporal host so
that every agent temporally reaches every terminal, preferring fewer
purchases. The package provides the temporal reachability core, exact Nash
and greedy equilibrium verification in local and global edge-buying settings,
equilibrium-generating constructions, minimum terminal spanner optimization,
and an experiment harness (instance files, ownership sweeps, price-of-anarchy
tables) behind the ``tempo-ncg`` CLI.
"""

from types import ModuleType as _ModuleType

from .core import (
    ArrivalMap,
    HostGraph,
    NodeId,
    TemporalGraph,
    TimeEdge,
    connected_components,
    earliest_arrivals,
    edge_needers,
    is_minimal_terminal_spanner,
    is_terminal_spanner,
    propagate_arrivals,
    reach_set,
    validate_and_normalize_host,
)
from .errors import (
    IncompleteHost,
    InvalidPurchase,
    NoTerminals,
    NotASpanner,
    NotMinimal,
    NotOwned,
    NotSimple,
    PreconditionFailed,
    SearchTooLarge,
    SettingMismatch,
    TemporalGameError,
    UnknownNode,
)
from .game import (
    Certificate,
    CostBreakdown,
    DeviationWitness,
    DynamicsResult,
    EquilibriumKind,
    ForbiddenStructure,
    GreedyMove,
    SearchOutcome,
    Setting,
    StrategyProfile,
    VerificationReport,
    Verdict,
    agent_cost,
    direct_terminal_profile,
    equilibrium_certificates,
    find_forbidden_structure,
    find_improving_response,
    greedy_dynamics,
    greedy_improving_response,
    is_greedy_equilibrium,
    is_nash_equilibrium,
    necessary_terminals,
    realized_graph,
    social_cost,
)
from .constructions import (
    DenseCycleChecks,
    DenseCycleInstance,
    DenseCycleParams,
    ProductNodeId,
    dense_cycle_instance,
    dense_cycle_lemma_checks,
    extend_with_nonterminal,
    extend_with_terminal,
    graph_product,
    hypercube_equilibrium,
    lifetime2_tree_ne,
    random_host,
    relabel_instance,
    scale_with_nonterminals,
    two_terminal_ne,
)
from .spanner_opt import (
    SpannerSearchConfig,
    ge_from_minimal_spanner,
    min_terminal_spanner,
    mono_label_spanning_tree,
    prune_to_minimal,
)
from .instance_io import (
    InstanceFile,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    loads_instance,
    save_instance,
)
from .fixtures import (
    FIXTURE_BUILDERS,
    fig4_instance,
    fig5_left_instance,
    fig5_right_instance,
    get_fixture,
)
from .sweeps import SweepResult, find_nash_by_search, sweep_ownership
from .poa import (
    CSV_COLUMNS,
    PoARecord,
    build_poa_record,
    compute_optimum,
    records_to_csv,
    records_to_json,
)

__version__ = "0.1.0"

# The imports above also bind each submodule here; those are not exported.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
