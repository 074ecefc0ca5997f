import dataclasses
import json

import pytest

import tempo_ncg.instance_io
from oracles import oracle_instance_from_dict
from tempo_ncg import (
    IncompleteHost,
    InstanceFile,
    InvalidPurchase,
    Setting,
    TemporalGameError,
    StrategyProfile,
    TemporalGraph,
    TimeEdge,
    UnknownNode,
    dense_cycle_instance,
    dumps_instance,
    hypercube_equilibrium,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    loads_instance,
    random_host,
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


def test_shuffled_edge_keys_parse_to_the_canonical_graph_and_bytes():
    inst = InstanceFile(name="random", host=random_host(7, 3, seed=2))
    text = dumps_instance(inst)
    data = json.loads(text)
    edges = list(data["host"]["edges"].items())
    data["host"]["edges"] = dict(edges[1::2] + edges[::-2])
    parsed = instance_from_dict(data)
    assert list(parsed.host.graph.pairs()) == list(inst.host.graph.pairs())
    assert parsed.host.graph == inst.host.graph
    assert dumps_instance(parsed) == text


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


def test_rejects_non_string_keys_of_a_dict_built_in_code():
    # JSON text only has string keys, but instance_from_dict takes any dict.
    data = instance_to_dict(pair_instance())
    data["host"]["edges"] = {1: [1]}
    with pytest.raises(ValueError, match="edge key 1 "):
        instance_from_dict(data)
    data = instance_to_dict(pair_instance())
    data["profile"]["strategies"] = {"a": [["a", "b", 1]], 1: [["a", "b", 2]]}
    with pytest.raises(ValueError, match="strategy agent 1 "):
        instance_from_dict(data)


def test_rejects_empty_name_and_label_lists():
    with pytest.raises(ValueError):
        InstanceFile(name="", host=pair_instance().host)
    data = instance_to_dict(pair_instance())
    data["host"]["edges"]["a|b"] = []
    with pytest.raises(ValueError):
        instance_from_dict(data)


def test_rejects_json_nested_too_deeply():
    # The decoder recurses per bracket; its RecursionError is an input error.
    with pytest.raises(ValueError, match="nests too deeply"):
        loads_instance("[" * 200_000 + "]" * 200_000)


def test_save_and_load_files(tmp_path):
    inst = get_fixture("fig4")
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.host.graph == inst.host.graph
    assert back.profile == inst.profile


def test_rejects_boolean_default_label():
    # JSON true is a Python bool, which counts as the int 1. Accepted, it was
    # emitted with "edges": {}, and that file could not be read back.
    data = instance_to_dict(pair_instance())
    data["host"]["edges"] = {"a|b": [1]}
    data["host"]["default_label"] = True
    with pytest.raises(ValueError, match="default_label"):
        instance_from_dict(data)


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
def test_rejects_boolean_schema_version(version):
    data = instance_to_dict(pair_instance())
    data["v"] = version
    with pytest.raises(ValueError, match="schema version"):
        instance_from_dict(data)


@pytest.mark.parametrize(
    "field, value",
    [("name", 5), ("source", 7), ("default_label", 0), ("default_label", True),
     ("default_label", 2.0)],
)
def test_construction_rejects_what_the_parser_rejects(field, value):
    # Each was accepted here once, and dumps_instance wrote a file that
    # loads_instance refused.
    inst = get_fixture("fig4")
    with pytest.raises(ValueError) as built:
        dataclasses.replace(inst, **{field: value})
    data = instance_to_dict(inst)
    (data["host"] if field == "default_label" else data)[field] = value
    with pytest.raises(ValueError) as parsed:
        instance_from_dict(data)
    assert str(built.value) == str(parsed.value)


def test_rejects_non_string_source():
    data = instance_to_dict(pair_instance())
    data["source"] = 7
    with pytest.raises(ValueError, match="source"):
        instance_from_dict(data)


def test_rejects_empty_node_id_covered_by_the_default_label():
    data = instance_to_dict(pair_instance())
    data["host"]["nodes"].append("")
    data["host"]["default_label"] = 1
    with pytest.raises(UnknownNode):
        instance_from_dict(data)


_BAD_VALUES = [None, True, False, 0, -1, 7, 1.5, "", "x", "a|b", [], [1], ["x"], {}]


def _substitutions(node, path=()):
    """Every (path, value) single substitution of a JSON tree: each leaf and
    each container is replaced by each bad value, and each object key is
    renamed to a bad key."""
    for value in _BAD_VALUES:
        yield path, value
    if isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in list(children):
            yield from _substitutions(child, path + (key,))
            if isinstance(node, dict):
                for bad_key in ("", "x", "v1|", "v4|v1", "v1|v1", "v1|v2|v3"):
                    yield path + ((key, bad_key),), None


def _substituted(data, path, value):
    data = json.loads(json.dumps(data))
    if not path:
        return value
    target = data
    for key in path[:-1]:
        target = target[key]
    last = path[-1]
    if isinstance(last, tuple):
        old, new = last
        target[new] = target.pop(old)
    else:
        target[last] = value
    return data


def _assert_parses_as_the_oracle(data):
    """The parser raises the per-key oracle's exception class and message,
    or returns the oracle's instance, pair order and bytes."""
    try:
        want = oracle_instance_from_dict(data)
    except (ValueError, TemporalGameError) as exc:
        with pytest.raises(type(exc)) as got:
            instance_from_dict(data)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return None
    inst = instance_from_dict(data)
    assert inst == want
    assert list(inst.host.graph._labels) == list(want.host.graph._labels)
    assert dumps_instance(inst) == dumps_instance(want)
    return inst


@pytest.mark.parametrize("name", ["fig4", "fig5-right"])
def test_single_substitutions_raise_only_input_errors(name):
    # Every malformed variant ends in ValueError or TemporalGameError (the
    # CLI's exit 2), never in another exception, and in the per-key oracle's
    # own error; valid ones parse as the oracle does and still round-trip.
    # fig4 lists every pair, so its valid variants take the whole-map path;
    # fig5-right carries the default_label shorthand, read key by key.
    data = instance_to_dict(get_fixture(name))
    data["source"] = "fixture"
    count = 0
    for path, value in _substitutions(data):
        variant = _substituted(data, path, value)
        count += 1
        inst = _assert_parses_as_the_oracle(variant)
        if inst is not None:
            assert loads_instance(dumps_instance(inst)) == inst
    assert count > 500


def _listed_host(nodes, edges):
    return {"v": 1, "name": "x", "host": {"nodes": nodes, "terminals": nodes[:1], "edges": edges}}


@pytest.mark.parametrize(
    "data",
    [
        # Keys that join the sorted node ids in canonical order, but split
        # into more or fewer than two nonempty ids.
        _listed_host(["a|b", "c"], {"a|b|c": [1]}),
        _listed_host(["", "a"], {"|a": [1]}),
        _listed_host(["", "a", "b"], {"|a": [1], "|b": [1], "a|b": [1]}),
        # Canonical keys with one label that is not a positive int.
        _listed_host(["a", "b", "c"], {"a|b": [1], "a|c": [True], "b|c": [2]}),
        _listed_host(["a", "b", "c"], {"a|b": [1, False], "a|c": [1], "b|c": [2]}),
        _listed_host(["a", "b"], {"a|b": [1.0]}),
        _listed_host(["a", "b"], {"a|b": [0]}),
        _listed_host(["a", "b"], {"a|b": [[1]]}),
        _listed_host(["a", "b"], {"a|b": (1,)}),
    ],
    ids=[
        "separator-in-id", "empty-id-pair", "empty-id", "true-label", "false-label",
        "float-label", "zero-label", "nested-label", "tuple-labels",
    ],
)
def test_canonical_looking_files_fail_as_the_oracle_does(data):
    with pytest.raises((ValueError, TemporalGameError)):
        instance_from_dict(data)
    _assert_parses_as_the_oracle(data)


def test_written_files_skip_the_per_key_loop(monkeypatch):
    # dumps_instance lists every pair in canonical order when no default
    # label is set, so the whole-map checks accept its output.
    instances = [
        InstanceFile(name="random", host=random_host(n, 3, seed, max_label=2))
        for n in (12, 13, 14)
        for seed in range(3)
    ]
    host, profile = hypercube_equilibrium(5)
    instances.append(InstanceFile(name="hypercube", host=host, profile=profile))
    calls = []
    real = tempo_ncg.instance_io._pairs_by_key

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tempo_ncg.instance_io, "_pairs_by_key", counted)
    for inst in instances:
        text = dumps_instance(inst)
        parsed = loads_instance(text)
        assert parsed == inst
        assert dumps_instance(parsed) == text
    assert calls == []

    # Shuffled keys and the default_label shorthand take the loop.
    inst = instances[0]
    text = dumps_instance(inst)
    data = json.loads(text)
    data["host"]["edges"] = dict(reversed(data["host"]["edges"].items()))
    assert dumps_instance(instance_from_dict(data)) == text
    assert len(calls) == 1
    short = dataclasses.replace(inst, default_label=1)
    text = dumps_instance(short)
    assert len(json.loads(text)["host"]["edges"]) < 66
    assert dumps_instance(loads_instance(text)) == text
    assert len(calls) == 2
