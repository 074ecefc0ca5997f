"""Price-of-anarchy records, optimum fallbacks, and table serialization."""

import csv
import io
import json

from tempo_ncg import (
    EquilibriumKind,
    PoARecord,
    Setting,
    StrategyProfile,
    TemporalGraph,
    build_poa_record,
    compute_optimum,
    dense_cycle_instance,
    hypercube_equilibrium,
    random_host,
    records_to_csv,
    records_to_json,
    scale_with_nonterminals,
    validate_and_normalize_host,
)
from tempo_ncg.fixtures import fig4_instance


def test_scaled_hypercube_record():
    host3, s3 = hypercube_equilibrium(3)
    big_host, big_s = scale_with_nonterminals(host3, s3, 3)
    record, report = build_poa_record("scaled-hypercube", big_host, big_s)
    assert report.is_equilibrium
    assert record is not None
    assert (record.nodes, record.terminals) == (24, 8)
    assert record.equilibrium_edges == 52
    # The top label class spans all 24 nodes, so the optimum is the n - 1
    # tree and the search proves it without enumeration.
    assert record.optimum_edges == 23
    assert record.optimum_exact
    assert record.optimum_lower_bound == 23
    assert record.ratio == 52 / 23
    assert record.setting is Setting.LOCAL
    assert record.kind is EquilibriumKind.NASH


def test_dense_cycle_record():
    inst = dense_cycle_instance(2)
    record, report = build_poa_record("dense-2", inst.host, inst.profile)
    assert report.is_equilibrium
    assert record.equilibrium_edges == 12
    assert record.optimum_edges == 7
    assert record.optimum_exact
    assert record.ratio == 12 / 7


def test_single_pair_record_has_unit_ratio():
    host1, s1 = hypercube_equilibrium(1)
    record, _ = build_poa_record("pair", host1, s1)
    assert record.equilibrium_edges == record.optimum_edges == 1
    assert record.ratio == 1.0


def test_single_node_record_has_unit_ratio():
    host = validate_and_normalize_host(TemporalGraph(["z"]), ["z"])
    record, report = build_poa_record("single", host, StrategyProfile.empty(Setting.GLOBAL))
    assert report.is_equilibrium
    assert record.equilibrium_edges == record.optimum_edges == 0
    assert record.optimum_exact
    assert record.ratio == 1.0


def test_record_skipped_when_profile_is_not_an_equilibrium():
    inst = fig4_instance()
    record, report = build_poa_record(inst.name, inst.host, inst.profile)
    assert record is None
    assert not report.is_equilibrium
    assert report.witness is not None


def test_greedy_kind_uses_greedy_verification():
    inst = dense_cycle_instance(2)
    record, report = build_poa_record(
        "dense-2", inst.host, inst.profile, kind=EquilibriumKind.GREEDY
    )
    assert report.is_equilibrium
    assert record.kind is EquilibriumKind.GREEDY
    assert record.as_row()["kind"] == "ge"


def test_compute_optimum_exact_path():
    inst = dense_cycle_instance(2)
    optimum, exact, lower = compute_optimum(inst.host)
    assert (optimum, exact, lower) == (7, True, 7)


def test_compute_optimum_falls_back_to_pruning():
    # 21 single-label pairs: over the default pool of 20 edges, and no label
    # class spans, so the exact search refuses and the host is pruned.
    host = random_host(7, 2, 0)
    assert host.time_edge_count == 21
    optimum, exact, lower = compute_optimum(host)
    assert (optimum, exact, lower) == (7, False, 6)
    # Pruning yields an inclusion-minimal spanner, an upper bound only.
    assert lower <= optimum <= host.time_edge_count


def test_compute_optimum_prunes_a_large_host():
    # 325 single-label pairs: no label class spans and the exact search
    # refuses the pool, so the host is pruned, to one edge above n - 1.
    host = random_host(26, 2, 0)
    assert host.time_edge_count == 325
    assert compute_optimum(host) == (26, False, 25)


def test_csv_columns_and_name_order():
    host1, s1 = hypercube_equilibrium(1)
    inst = dense_cycle_instance(2)
    rec_b, _ = build_poa_record("b-pair", host1, s1)
    rec_a, _ = build_poa_record("a-dense", inst.host, inst.profile)
    text = records_to_csv([rec_b, rec_a])
    rows = list(csv.DictReader(io.StringIO(text)))
    assert text.splitlines()[0] == (
        "name,n,k,lifetime,kind,setting,equilibrium_edges,"
        "optimum_edges,optimum_exact,optimum_lower_bound,ratio"
    )
    assert [r["name"] for r in rows] == ["a-dense", "b-pair"]
    assert rows[0]["ratio"] == repr(12 / 7)
    assert rows[0]["kind"] == "ne"
    assert rows[0]["setting"] == "global"
    assert rows[1]["optimum_exact"] == "True"


def test_json_rows_mirror_csv():
    host1, s1 = hypercube_equilibrium(1)
    record, _ = build_poa_record("pair", host1, s1)
    rows = json.loads(records_to_json([record]))
    assert rows == [
        {
            "name": "pair",
            "n": 2,
            "k": 2,
            "lifetime": 1,
            "kind": "ne",
            "setting": "local",
            "equilibrium_edges": 1,
            "optimum_edges": 1,
            "optimum_exact": True,
            "optimum_lower_bound": 1,
            "ratio": 1.0,
        }
    ]


def test_record_row_round_trips_through_dataclass():
    record = PoARecord(
        name="x",
        nodes=3,
        terminals=2,
        lifetime=2,
        kind=EquilibriumKind.NASH,
        setting=Setting.GLOBAL,
        equilibrium_edges=4,
        optimum_edges=2,
        optimum_exact=False,
        optimum_lower_bound=2,
        ratio=2.0,
    )
    row = record.as_row()
    assert row["n"] == 3 and row["k"] == 2
    assert row["optimum_exact"] is False
