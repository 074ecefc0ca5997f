import json

import pytest

from tempo_ncg import (
    IncompleteHost,
    InstanceFile,
    InvalidPurchase,
    Setting,
    StrategyProfile,
    TemporalGraph,
    TimeEdge,
    dense_cycle_instance,
    dumps_instance,
    hypercube_equilibrium,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    loads_instance,
    save_instance,
    validate_and_normalize_host,
)
from tempo_ncg.fixtures import FIXTURE_BUILDERS, get_fixture


GOLDEN = """\
{
  "v": 1,
  "name": "pair",
  "host": {
    "nodes": [
      "a",
      "b"
    ],
    "terminals": [
      "a",
      "b"
    ],
    "edges": {
      "a|b": [
        1,
        2
      ]
    }
  },
  "profile": {
    "setting": "global",
    "strategies": {
      "a": [
        [
          "a",
          "b",
          1
        ]
      ]
    }
  }
}
"""


def pair_instance():
    host = validate_and_normalize_host(
        TemporalGraph(["a", "b"], [TimeEdge("a", "b", 1), TimeEdge("a", "b", 2)]),
        ["a", "b"],
    )
    profile = StrategyProfile(
        setting=Setting.GLOBAL, strategies={"a": frozenset({TimeEdge("a", "b", 1)})}
    )
    return InstanceFile(name="pair", host=host, profile=profile)


def test_golden_bytes():
    assert dumps_instance(pair_instance()) == GOLDEN
    assert dumps_instance(loads_instance(GOLDEN)) == GOLDEN


@pytest.mark.parametrize("name", sorted(FIXTURE_BUILDERS))
def test_fixture_round_trips(name):
    inst = get_fixture(name)
    back = loads_instance(dumps_instance(inst))
    assert back.host.graph == inst.host.graph
    assert back.host.terminals == inst.host.terminals
    assert back.profile == inst.profile
    assert back.name == inst.name
    # A second emit is byte-identical: parse and emit are mutual inverses.
    assert dumps_instance(back) == dumps_instance(inst)


def test_generated_instances_round_trip():
    host, s = hypercube_equilibrium(2)
    inst = InstanceFile(name="square", host=host, profile=s)
    back = loads_instance(dumps_instance(inst))
    assert back.profile == s
    assert back.host.graph == host.graph

    dense = dense_cycle_instance(2)
    inst = InstanceFile(name="dense", host=dense.host, profile=dense.profile)
    assert loads_instance(dumps_instance(inst)).profile == dense.profile


def test_canonical_key_order():
    data = json.loads(dumps_instance(pair_instance()))
    assert list(data) == ["v", "name", "host", "profile"]
    assert list(data["host"]) == ["nodes", "terminals", "edges"]
    assert list(data["profile"]) == ["setting", "strategies"]


def test_default_label_shorthand_collapses_edges():
    inst = get_fixture("fig5-right")
    data = instance_to_dict(inst)
    assert data["host"]["default_label"] == 3
    # Only pairs that differ from the default are spelled out.
    assert len(data["host"]["edges"]) < 15
    rebuilt = instance_from_dict(data)
    assert rebuilt.host.graph == inst.host.graph


def test_rejects_unknown_schema_version():
    data = instance_to_dict(pair_instance())
    data["v"] = 2
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_rejects_misordered_edge_key():
    data = instance_to_dict(pair_instance())
    data["host"]["edges"] = {"b|a": [1]}
    with pytest.raises(ValueError):
        instance_from_dict(data)
    data["host"]["edges"] = {"ab": [1]}
    with pytest.raises(ValueError):
        instance_from_dict(data)
    data["host"]["edges"] = {"a|z": [1]}
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_rejects_reserved_separator_in_node_id():
    host = validate_and_normalize_host(
        TemporalGraph(["a|b", "c"], [TimeEdge("a|b", "c", 1)]), ["c"]
    )
    with pytest.raises(ValueError):
        InstanceFile(name="bad", host=host)


def test_rejects_incomplete_host_without_default():
    data = instance_to_dict(pair_instance())
    data["host"]["nodes"].append("c")
    with pytest.raises(IncompleteHost):
        instance_from_dict(data)
    data["host"]["default_label"] = 9
    rebuilt = instance_from_dict(data)
    assert rebuilt.host.labels("a", "c") == (9,)


def test_rejects_bad_profile_payloads():
    data = instance_to_dict(pair_instance())
    data["profile"]["setting"] = "sideways"
    with pytest.raises(ValueError):
        instance_from_dict(data)
    data["profile"]["setting"] = "global"
    data["profile"]["strategies"] = {"a": [["a", "b"]]}
    with pytest.raises(ValueError):
        instance_from_dict(data)
    data["profile"]["strategies"] = {"a": [["a", "b", 7]]}
    with pytest.raises(InvalidPurchase):
        instance_from_dict(data)


@pytest.mark.parametrize(
    "path, value",
    [
        (("profile", "strategies", "v1"), [[1, "v4", 2]]),
        (("host", "terminals", 0), ["x"]),
        (("host", "nodes", 0), ["y"]),
        (("profile", "strategies", "v1"), 5),
    ],
    ids=["strategy-endpoint", "terminal", "node", "strategy-value"],
)
def test_rejects_values_of_the_wrong_type(path, value):
    data = instance_to_dict(get_fixture("fig4"))
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_rejects_empty_name_and_label_lists():
    with pytest.raises(ValueError):
        InstanceFile(name="", host=pair_instance().host)
    data = instance_to_dict(pair_instance())
    data["host"]["edges"]["a|b"] = []
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_save_and_load_files(tmp_path):
    inst = get_fixture("fig4")
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.host.graph == inst.host.graph
    assert back.profile == inst.profile
