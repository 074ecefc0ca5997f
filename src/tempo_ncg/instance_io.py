"""JSON instance files: a host graph, an optional profile, and metadata.

The on-disk format is UTF-8 JSON with canonical key order, so emitted files
are bit-stable golden files. Edges are keyed "u|v" with u < v and carry
sorted label arrays; ``default_label`` is shorthand for every unlisted pair,
which keeps nearly-uniform hosts hand-editable. Parsing rejects incomplete
hosts (a pair with no labels and no default), unknown schema versions, and
node ids containing the reserved "|" separator. parse and emit are mutually
inverse on canonical files.

A file that lists every node pair in canonical order, as the writer does
when no default label is set, is checked over the whole edge object at
once: one comparison of its keys with the joined canonical pairs, then
set, ``all`` and ``min`` calls over the label lists. The only per-pair
Python left builds label tuples, and only for a pair with several labels.
Any other file is read one key at a time, validating each label as it is
read, filling unlisted pairs with the default and sorting the pairs only
when they are listed out of order. The whole-map checks raise nothing: a
file that fails one goes to the loop, so every error keeps the type,
message and precedence of the first bad key or label. Either way the host
graph is built from the checked pairs by the trusted
``TemporalGraph._from_labels``.

Emit writes the canonical text directly, in one pass over the graph's pair
map and the sorted strategies: the exact bytes ``json.dumps`` writes with
``indent=2`` and ``ensure_ascii=False`` for the canonical dict. With
``indent`` set, ``json.dumps`` never uses its C encoder and walks the dict
one value at a time in Python, so it was most of the cost of writing an
instance. The writer calls the same string escaper and int formatter, and
formats each distinct label list once. It is the only writer of the format:
:func:`instance_to_dict`, the public dict form, parses its text back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations
from pathlib import Path

from .core import HostGraph, NodeId, TemporalGraph, TimeEdge
from .errors import IncompleteHost, UnknownNode
from .game import Setting, StrategyProfile

SCHEMA_VERSION = 1
PAIR_SEPARATOR = "|"

# The string escaper and int formatter json.dumps calls with ensure_ascii=False.
_encode = json.encoder.encode_basestring
_int = int.__repr__


@dataclass(frozen=True)
class InstanceFile:
    """A named host, an optional strategy profile, and provenance metadata."""

    name: str
    host: HostGraph
    profile: StrategyProfile | None = None
    source: str | None = None
    default_label: int | None = None

    def __post_init__(self) -> None:
        _check_fields(self.name, self.source, self.default_label)
        for node in self.host.nodes:
            if PAIR_SEPARATOR in node:
                raise ValueError(
                    f"node id {node!r} contains the reserved separator "
                    f"{PAIR_SEPARATOR!r}"
                )
        if self.profile is not None:
            self.profile.validate(self.host)


def _check_fields(name: object, source: object, default_label: object) -> None:
    """The checks an instance's name, source and default label pass both when
    parsed and when constructed, so every instance writes a readable file."""
    if not isinstance(name, str) or not name:
        raise ValueError("instance needs a nonempty string name")
    if source is not None and not isinstance(source, str):
        raise ValueError(f"source must be a string, got {source!r}")
    if default_label is not None and (type(default_label) is not int or default_label < 1):
        raise ValueError(f"default_label must be a positive int, got {default_label!r}")


def instance_to_dict(instance: InstanceFile) -> dict:
    """Canonical dict form of an instance (stable key order throughout)."""
    return json.loads(dumps_instance(instance))


def instance_from_dict(data: dict) -> InstanceFile:
    """Parse and validate the canonical dict form.

    Raises:
        ValueError: unknown schema version, malformed keys or types, bad ids.
        IncompleteHost: a node pair has no labels and no default applies.
    """
    # JSON true and 1.0 both compare equal to the int 1, so the type is checked.
    version = data.get("v") if isinstance(data, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"expected schema version {SCHEMA_VERSION}")
    host_data = data.get("host")
    if not isinstance(host_data, dict):
        raise ValueError("instance needs a host object")
    name, source = data.get("name"), data.get("source")
    default_label = host_data.get("default_label")
    _check_fields(name, source, default_label)  # before the default fills pairs
    nodes = host_data.get("nodes")
    terminals = host_data.get("terminals")
    if not isinstance(nodes, list) or not isinstance(terminals, list):
        raise ValueError("host needs node and terminal lists")
    if not all(isinstance(node, str) for node in nodes + terminals):
        raise ValueError("node and terminal ids must be strings")
    node_set = set(nodes)
    raw_edges = host_data.get("edges", {})
    if not isinstance(raw_edges, dict):
        raise ValueError("host edges must map 'u|v' keys to label lists")
    sorted_nodes = tuple(sorted(node_set))
    listed = _whole_map(raw_edges, sorted_nodes)
    if listed is None:
        listed = _pairs_by_key(raw_edges, node_set, sorted_nodes, default_label)
    graph = TemporalGraph._from_labels(sorted_nodes, listed)
    host = HostGraph(graph=graph, terminals=tuple(terminals))
    profile = None
    profile_data = data.get("profile")
    if profile_data is not None:
        if not isinstance(profile_data, dict):
            raise ValueError("profile must be an object")
        setting = Setting(profile_data.get("setting"))
        raw_strategies = profile_data.get("strategies", {})
        if not isinstance(raw_strategies, dict):
            raise ValueError("profile strategies must map agents to edge lists")
        strategies: dict[NodeId, frozenset[TimeEdge]] = {}
        for agent, triples in raw_strategies.items():
            if not isinstance(agent, str):
                raise ValueError(f"strategy agent {agent!r} is not a string id")
            if not isinstance(triples, list):
                raise ValueError(f"strategy of {agent!r} is not a list of edges")
            bought = set()
            for triple in triples:
                if not isinstance(triple, list) or len(triple) != 3:
                    raise ValueError(f"strategy edge {triple!r} is not [u, v, label]")
                u, v, label = triple
                if not isinstance(u, str) or not isinstance(v, str):
                    raise ValueError(f"strategy edge {triple!r} needs string endpoints")
                bought.add(TimeEdge(u, v, label))
            strategies[agent] = frozenset(bought)
        profile = StrategyProfile(setting=setting, strategies=strategies)
    return InstanceFile(
        name=name,
        host=host,
        profile=profile,
        source=source,
        default_label=default_label,
    )


def _whole_map(
    raw_edges: dict, sorted_nodes: tuple[NodeId, ...]
) -> dict[tuple[NodeId, NodeId], tuple[int, ...]] | None:
    """The pair map of an edge object that lists every node pair in canonical
    order with valid labels, checked over the whole map at once; None for
    any other edge object, which :func:`_pairs_by_key` then reads."""
    # An empty id or one holding the separator could still join to
    # canonical-looking keys, which the per-key split rejects.
    if "" in sorted_nodes or PAIR_SEPARATOR in "".join(sorted_nodes):
        return None
    pairs = list(combinations(sorted_nodes, 2))
    if list(raw_edges) != list(map(PAIR_SEPARATOR.join, pairs)):
        return None
    values = list(raw_edges.values())
    if set(map(type, values)) != {list} or not all(values):
        return None
    flat = list(chain.from_iterable(values))
    # type() is exact, so a bool label (an int subclass) goes to the loop.
    if set(map(type, flat)) != {int} or min(flat) < 1:
        return None
    if len(flat) == len(values):
        return dict(zip(pairs, map(tuple, values)))
    return {
        pair: tuple(labels) if len(labels) == 1 else tuple(sorted(set(labels)))
        for pair, labels in zip(pairs, values)
    }


def _pairs_by_key(
    raw_edges: dict,
    node_set: set[NodeId],
    sorted_nodes: tuple[NodeId, ...],
    default_label: int | None,
) -> dict[tuple[NodeId, NodeId], tuple[int, ...]]:
    """The pair map of any edge object, read one key at a time, with the
    default label filling the unlisted pairs; raises on the first bad key,
    label or missing pair."""
    listed: dict[tuple[NodeId, NodeId], tuple[int, ...]] = {}
    for key, labels in raw_edges.items():
        parts = key.split(PAIR_SEPARATOR) if isinstance(key, str) else ()
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"edge key {key!r} is not of the form 'u|v'")
        u, v = parts
        if u >= v:
            raise ValueError(f"edge key {key!r} must order its nodes u < v")
        if u not in node_set or v not in node_set:
            raise ValueError(f"edge key {key!r} uses a node outside the node list")
        if not isinstance(labels, list) or not labels:
            raise ValueError(f"edge {key!r} needs a nonempty label list")
        for label in labels:
            if type(label) is not int or label < 1:
                TimeEdge(u, v, label)  # raises the time edge's own error
        listed[u, v] = tuple(labels) if len(labels) == 1 else tuple(sorted(set(labels)))
    if len(listed) < len(sorted_nodes) * (len(sorted_nodes) - 1) // 2:
        for i, u in enumerate(sorted_nodes):
            for v in sorted_nodes[i + 1 :]:
                if (u, v) in listed:
                    continue
                if default_label is None:
                    raise IncompleteHost(
                        f"pair ({u!r}, {v!r}) has no labels and no default_label is set"
                    )
                listed[(u, v)] = (default_label,)
    if "" in node_set:
        raise UnknownNode("node ids must be nonempty strings, got ''")
    if list(listed) != sorted(listed):
        listed = dict(sorted(listed.items()))
    return listed


def _block(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Encoded ``items`` as a JSON array (an object with ``brackets="{}"``)
    nested ``depth`` levels deep, laid out as ``json.dumps(indent=2)`` does."""
    if not items:
        return brackets
    pad = "\n" + "  " * depth
    return f"{brackets[0]}{pad}  {(',' + pad + '  ').join(items)}{pad}{brackets[1]}"


def dumps_instance(instance: InstanceFile) -> str:
    """The canonical text of an instance and a newline: the bytes of
    ``json.dumps(data, indent=2, ensure_ascii=False)`` for its canonical dict
    ``data``, written straight from the instance."""
    host = instance.host
    by_pair = host.graph._labels
    default = (instance.default_label,)
    arrays = {labels: _block([*map(_int, labels)], 3) for labels in set(by_pair.values())}
    edges = [
        f"{_encode(f'{u}{PAIR_SEPARATOR}{v}')}: {arrays[labels]}"
        for (u, v), labels in by_pair.items()
        if labels != default
    ]
    host_items = [
        f'"nodes": {_block([*map(_encode, host.nodes)], 2)}',
        f'"terminals": {_block([*map(_encode, host.terminals)], 2)}',
        f'"edges": {_block(edges, 2, "{}")}',
    ]
    if instance.default_label is not None:
        host_items.append(f'"default_label": {_int(instance.default_label)}')
    items = [f'"v": {_int(SCHEMA_VERSION)}', f'"name": {_encode(instance.name)}']
    if instance.source is not None:
        items.append(f'"source": {_encode(instance.source)}')
    items.append(f'"host": {_block(host_items, 1, "{}")}')
    profile = instance.profile
    if profile is not None:
        strategies = []
        for agent, bought in profile.strategies.items():
            triples = [
                _block([_encode(e.u), _encode(e.v), _int(e.label)], 4) for e in sorted(bought)
            ]
            strategies.append(f"{_encode(agent)}: {_block(triples, 3)}")
        profile_items = [
            f'"setting": {_encode(profile.setting.value)}',
            f'"strategies": {_block(strategies, 2, "{}")}',
        ]
        items.append(f'"profile": {_block(profile_items, 1, "{}")}')
    return _block(items, 0, "{}") + "\n"


def loads_instance(text: str) -> InstanceFile:
    try:
        data = json.loads(text)
    except RecursionError:  # the decoder recurses once per open bracket
        raise ValueError("instance JSON nests too deeply") from None
    return instance_from_dict(data)


def save_instance(instance: InstanceFile, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(instance), encoding="utf-8")


def load_instance(path: str | Path) -> InstanceFile:
    return loads_instance(Path(path).read_text(encoding="utf-8"))
