"""Ownership sweeps over fixed realized graphs."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tempo_ncg
import tempo_ncg.core
import tempo_ncg.game
import tempo_ncg.sweeps
from oracles import oracle_sweep_product
from tempo_ncg import (
    HostGraph,
    InvalidPurchase,
    PreconditionFailed,
    SearchTooLarge,
    Setting,
    StrategyProfile,
    TemporalGraph,
    TimeEdge,
    Verdict,
    edge_needers,
    find_improving_response,
    find_nash_by_search,
    hypercube_equilibrium,
    is_nash_equilibrium,
    random_host,
    realized_graph,
    scale_with_nonterminals,
    sweep_ownership,
    two_terminal_ne,
)
from tempo_ncg.fixtures import fig4_instance, fig5_left_instance, fig5_right_instance


def edge(u, v, label):
    return TimeEdge(u, v, label)


def all_ones_host(names):
    nodes = tuple(names)
    edges = [
        edge(u, v, 1) for i, u in enumerate(nodes) for v in nodes[i + 1 :]
    ]
    return HostGraph(graph=TemporalGraph(nodes, edges), terminals=nodes)


def star_target(host, center):
    leaves = [v for v in host.nodes if v != center]
    return TemporalGraph(host.nodes, tuple(edge(center, v, 1) for v in leaves))


# -- needer pre-filter ------------------------------------------------------


def test_edge_needers_on_forced_ownership_graph():
    inst = fig4_instance()
    target = realized_graph(inst.profile, inst.host)
    needers = edge_needers(target, inst.host.terminals)
    # Every edge here has a unique node that loses a terminal without it,
    # which is what pins the ownership down to a single assignment.
    assert needers == {
        edge("v1", "v2", 5): ("v3",),
        edge("v1", "v4", 2): ("v1",),
        edge("v2", "v3", 4): ("v3",),
        edge("v2", "v4", 2): ("v2",),
        edge("v3", "v4", 3): ("v3",),
    }


def test_edge_needers_all_nodes_need_a_star_edge():
    host = all_ones_host(["a", "b", "c", "v"])
    target = star_target(host, "v")
    needers = edge_needers(target, host.terminals)
    # Removing any spoke cuts that leaf off from everyone, so every node
    # loses a terminal, not just the endpoints.
    for losing in needers.values():
        assert losing == host.nodes


# -- fixture sweeps ---------------------------------------------------------


def test_sweep_forced_graph_global():
    inst = fig4_instance()
    target = realized_graph(inst.profile, inst.host)
    result = sweep_ownership(inst.host, target, Setting.GLOBAL)
    assert result.total_assignments == 4**5 == 1024
    assert result.survivors == 1
    assert result.equilibria == ()
    assert result.equilibrium_count == 0


def test_sweep_forced_graph_local_prefilter_empty():
    # (v1,v2)@5 is only needed by v3, which is not an endpoint, so no local
    # assignment survives the filter at all.
    inst = fig4_instance()
    target = realized_graph(inst.profile, inst.host)
    result = sweep_ownership(inst.host, target, Setting.LOCAL)
    assert result.total_assignments == 2**5 == 32
    assert result.survivors == 0
    assert result.equilibria == ()


def test_sweep_global_fixture_graph_has_no_local_ownership():
    inst = fig5_left_instance()
    target = realized_graph(inst.profile, inst.host)
    result = sweep_ownership(inst.host, target, Setting.LOCAL)
    assert result.total_assignments == 32
    assert result.survivors == 0
    assert result.equilibria == ()


def test_sweep_local_fixture_graph_has_no_global_ownership():
    inst = fig5_right_instance()
    target = realized_graph(inst.profile, inst.host)
    result = sweep_ownership(inst.host, target, Setting.GLOBAL)
    assert result.total_assignments == 6**8
    assert result.survivors == 768
    assert result.equilibria == ()


def test_sweep_searches_each_agent_and_own_set_once(monkeypatch):
    inst = fig5_right_instance()
    target = realized_graph(inst.profile, inst.host)
    searched = []

    def recording(v, s, host):
        searched.append((v, s.strategy(v)))
        return find_improving_response(v, s, host)

    monkeypatch.setattr(tempo_ncg.sweeps, "find_improving_response", recording)
    result = sweep_ownership(inst.host, target, Setting.GLOBAL)
    assert result.survivors == 768
    assert result.equilibria == ()
    # One search per (agent, own set) of two or more edges met before an
    # earlier buyer of the same assignment failed. Verifying every survivor
    # in full would make 1,104 searches, and searching one-edge owners too 47.
    assert len(searched) == len(set(searched)) == 42
    assert all(len(own) >= 2 for _, own in searched)
    needers = edge_needers(target, inst.host.terminals)
    keys = set()
    for owners in itertools.product(*needers.values()):
        for agent in set(owners):
            keys.add(
                (agent, frozenset(e for e, o in zip(needers, owners) if o == agent))
            )
    assert set(searched) <= keys


def test_one_edge_owners_are_settled_without_a_search(monkeypatch):
    # Every owner of this local two-terminal equilibrium buys one edge, and
    # so does every owner of the one other survivor, which hands the pair
    # edge to its other end: the sweep verifies both and searches no agent.
    host = random_host(7, 2, 3)
    profile = two_terminal_ne(host, Setting.LOCAL)
    assert all(len(own) == 1 for own in profile.strategies.values() if own)
    searched = []

    def recording(v, s, host):
        searched.append(v)
        return find_improving_response(v, s, host)

    monkeypatch.setattr(tempo_ncg.sweeps, "find_improving_response", recording)
    result = sweep_ownership(host, realized_graph(profile, host), Setting.LOCAL)
    assert searched == []
    assert result.survivors == result.equilibrium_count == 2
    assert profile in result.equilibria


def test_sweep_indexes_its_target_once(monkeypatch):
    inst = fig5_right_instance()
    target = realized_graph(inst.profile, inst.host)
    grouped = []
    real_group = tempo_ncg.game.group_by_label
    monkeypatch.setattr(
        tempo_ncg.game,
        "group_by_label",
        lambda edges: grouped.append(frozenset(edges)) or real_group(edges),
    )
    validated = []
    real_validate = StrategyProfile.validate
    monkeypatch.setattr(
        StrategyProfile,
        "validate",
        lambda s, host: validated.append(s) or real_validate(s, host),
    )
    result = sweep_ownership(inst.host, target, Setting.GLOBAL)
    assert result.survivors == 768
    edges = frozenset(target.time_edges())
    # All 768 assignments share one index of the target. The other builds
    # and every validation belong to the refutation witnesses, which are
    # priced afresh and never realize the target.
    assert grouped.count(edges) == 1
    assert len(grouped) - 1 == len(validated) > 0
    assert all(profile.bought_edges() != edges for profile in validated)


def record_calls(monkeypatch, function):
    """Wrap ``function`` in every ``tempo_ncg`` module that binds it; the
    returned list gains one entry per call."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "tempo_ncg" or name.startswith("tempo_ncg."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, recording)
    return calls


def test_a_tree_target_is_filtered_by_the_bridge_lemma_alone(monkeypatch):
    host = random_host(7, 2, 3)
    target = realized_graph(two_terminal_ne(host, Setting.LOCAL), host)
    assert len(list(target.time_edges())) == host.node_count - 1  # a spanning tree
    needers = record_calls(monkeypatch, tempo_ncg.core.edge_needers)
    removals = record_calls(monkeypatch, tempo_ncg.core.removal_masks)
    spanner_checks = record_calls(monkeypatch, tempo_ncg.core.is_terminal_spanner)
    result = sweep_ownership(host, target, Setting.LOCAL)
    assert result.survivors == result.equilibrium_count == 2
    assert needers == removals == spanner_checks == []


@pytest.mark.parametrize("mode", list(Setting))
def test_a_target_without_bridges_takes_its_needers_from_one_call(monkeypatch, mode):
    inst = fig5_right_instance()
    target = realized_graph(inst.profile, inst.host)
    needers = record_calls(monkeypatch, tempo_ncg.core.edge_needers)
    spanner_checks = record_calls(monkeypatch, tempo_ncg.core.is_terminal_spanner)
    result = sweep_ownership(inst.host, target, mode)
    assert result.survivors > 0
    assert len(needers) == 1
    assert spanner_checks == []


# -- short circuits and errors ----------------------------------------------


def test_sweep_non_spanner_target_short_circuits():
    inst = fig4_instance()
    target = realized_graph(inst.profile, inst.host).without_time_edge(
        edge("v3", "v4", 3)
    )
    result = sweep_ownership(inst.host, target, Setting.GLOBAL)
    assert result.total_assignments == 4**4
    assert result.survivors == 0
    assert result.equilibria == ()


def test_sweep_rejects_a_target_on_other_nodes():
    inst = fig4_instance()
    target = realized_graph(inst.profile, inst.host)
    fewer = TemporalGraph(inst.host.nodes[1:], ())
    more = TemporalGraph((*inst.host.nodes, "extra"), target.time_edges())
    for wrong in (fewer, more):
        with pytest.raises(PreconditionFailed):
            sweep_ownership(inst.host, wrong, Setting.GLOBAL)


def test_sweep_rejects_edge_the_host_does_not_offer():
    inst = fig4_instance()
    target = TemporalGraph(inst.host.nodes, (edge("v1", "v2", 9),))
    with pytest.raises(InvalidPurchase):
        sweep_ownership(inst.host, target, Setting.GLOBAL)


def test_sweep_budget_bounds_survivors():
    inst = fig5_right_instance()
    target = realized_graph(inst.profile, inst.host)
    with pytest.raises(SearchTooLarge):
        sweep_ownership(inst.host, target, Setting.GLOBAL, budget=767)
    result = sweep_ownership(inst.host, target, Setting.GLOBAL, budget=768)
    assert result.survivors == 768


# -- equilibria found by sweeps ---------------------------------------------


def test_sweep_star_local_every_assignment_is_an_equilibrium():
    host = all_ones_host(["a", "b", "c", "v"])
    target = star_target(host, "v")
    result = sweep_ownership(host, target, Setting.LOCAL)
    assert result.total_assignments == 8
    assert result.survivors == 8
    assert result.equilibrium_count == 8
    for profile in result.equilibria:
        assert profile.setting is Setting.LOCAL
        assert set(realized_graph(profile, host).time_edges()) == set(
            target.time_edges()
        )
        assert is_nash_equilibrium(profile, host).verdict is Verdict.EQUILIBRIUM


def sweep_cases():
    """(host, target, mode) triples whose sweeps have 13 survivor counts, from
    8 to 300: local stars on 4 to 7 nodes and global two-terminal equilibria."""
    cases = []
    for n in (4, 5, 6, 7):
        host = all_ones_host([f"n{i}" for i in range(n)])
        cases.append((host, star_target(host, "n0"), Setting.LOCAL))
    for n, seed in ((5, 5), (5, 9), (6, 2), (7, 0), (7, 2), (7, 3), (7, 7), (7, 9),
                    (7, 10)):
        host = random_host(n, 2, seed)
        cases.append((host, realized_graph(two_terminal_ne(host), host), Setting.GLOBAL))
    return cases


def test_the_walk_matches_the_product_loop_on_every_sweep_case():
    counts = set()
    for host, target, mode in sweep_cases():
        result = sweep_ownership(host, target, mode)
        assert result == oracle_sweep_product(host, target, mode)
        counts.add(result.survivors)
    assert len(counts) == 13


def scaled_c5_sweep():
    """The realized graph of the one-edge two-terminal equilibrium scaled
    with c = 5, and its host: 8,192 global survivors."""
    host, profile = scale_with_nonterminals(*hypercube_equilibrium(1), 5)
    return host, realized_graph(profile, host)


def test_the_walk_matches_the_product_loop_at_scale():
    host, target = scaled_c5_sweep()
    result = sweep_ownership(host, target, Setting.GLOBAL)
    assert (result.survivors, result.equilibrium_count) == (8192, 512)
    assert result == oracle_sweep_product(host, target, Setting.GLOBAL)


def test_the_walk_prunes_the_assignments_of_an_unstable_own_set(monkeypatch):
    host, target = scaled_c5_sweep()
    built = []
    real = tempo_ncg.sweeps._profile_from_owners
    monkeypatch.setattr(
        tempo_ncg.sweeps,
        "_profile_from_owners",
        lambda *args: built.append(args) or real(*args),
    )
    result = sweep_ownership(host, target, Setting.GLOBAL)
    assert result.survivors == 8192
    # One profile per equilibrium and one per probe that decides a new own
    # set, against one per survivor for the product loop.
    assert result.equilibrium_count <= len(built) < result.survivors // 10


def test_importing_the_package_starts_no_process_machinery():
    # Sweeps run serially, so a fresh import loads no process pool.
    src = str(Path(tempo_ncg.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tempo_ncg; print(*sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "tempo_ncg.sweeps" in loaded
    assert "multiprocessing" not in loaded
    assert "concurrent.futures" not in loaded


# -- whole-space search ------------------------------------------------------


def test_find_nash_by_search_small_host():
    host = all_ones_host(["a", "b", "c"])
    profile = find_nash_by_search(host, Setting.LOCAL)
    assert profile is not None
    assert is_nash_equilibrium(profile, host).verdict is Verdict.EQUILIBRIUM
    assert len(set(realized_graph(profile, host).time_edges())) == 2


def test_find_nash_by_search_two_nodes_both_settings():
    host = all_ones_host(["a", "b"])
    for setting in (Setting.LOCAL, Setting.GLOBAL):
        profile = find_nash_by_search(host, setting)
        assert profile is not None
        assert profile.total_purchases() == 1
        assert is_nash_equilibrium(profile, host).verdict is Verdict.EQUILIBRIUM


def test_find_nash_by_search_refuses_oversized_space():
    host = all_ones_host(["a", "b", "c"])
    with pytest.raises(SearchTooLarge):
        find_nash_by_search(host, Setting.LOCAL, max_subsets=0)
