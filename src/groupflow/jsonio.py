"""JSON readers and writers for the file formats the CLI speaks.

Graphs: ``{"vertices": ["1", ...], "edges": [["1", "2"], ...]}`` (plain
edge-list text is also accepted on input).  Rotations list each vertex's
neighbours in cyclic order.  Witnesses mirror the MinorWitness fields.
Flows store the group spec, the graph, and one direction per edge with
elements written as generator words joined by ``*`` (``1`` = identity).
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ParseError, _clip
from .flows import GroupFlow, LeakVerdict
from .graphs import Graph, MinorWitness, Vertex, edge_key, graph_from, vkey
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, _check_size, group_from_cayley, standard_group
from .planar import RotationSystem


# the least limit Python's int <-> text conversions may be set to refuse beyond
_MAX_INT_DIGITS = 640


def _int(text: str) -> int:
    """int(text), or a ParseError for an integer of more than
    _MAX_INT_DIGITS characters."""
    if len(text) > _MAX_INT_DIGITS:
        raise ParseError(f"integer of {len(text)} characters, above the limit of {_MAX_INT_DIGITS}")
    return int(text)


def loads(text: str) -> Any:
    """json.loads, refusing over-long integers and too deep nesting as a ParseError."""
    try:
        return json.loads(text, parse_int=_int)
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None


def _vertex_token(raw: Any) -> Vertex:
    """An int, or a str: read as an int only when it is that int's canonical
    spelling, so "01", "-0" and non-ASCII digits stay strings and no two
    labels merge; no other value is a label."""
    if isinstance(raw, str):
        if raw.removeprefix("-").isdecimal() and str(n := _int(raw)) == raw:
            return n
        return raw
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise ParseError(f"vertex label must be a string or an integer, got {type(raw).__name__}")


def vertex_str(v: Vertex) -> str:
    return str(v)


# -- graphs -------------------------------------------------------------------


def graph_to_json(G: Graph) -> dict:
    return {
        "vertices": [vertex_str(v) for v in G.vertices],
        "edges": [[vertex_str(u), vertex_str(v)] for u, v in G.sorted_edges()],
    }


def graph_from_json(data: Any) -> Graph:
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ParseError("graph JSON needs 'vertices' and 'edges'")
    if not isinstance(data["vertices"], list) or not isinstance(data["edges"], list):
        raise ParseError("graph JSON 'vertices' and 'edges' must be lists")
    vertices = [_vertex_token(v) for v in data["vertices"]]
    edges = []
    for e in data["edges"]:
        if not isinstance(e, list) or len(e) != 2:
            raise ParseError(f"edge {e!r} must be a list of two endpoints")
        edges.append((_vertex_token(e[0]), _vertex_token(e[1])))
    return graph_from(vertices, edges)


def graph_from_text(text: str) -> Graph:
    """Parse a graph file: JSON if it starts with '{' or '[', else an edge
    list with one 'u v' pair per line."""
    stripped = text.strip()
    if stripped.startswith(("{", "[")):
        return graph_from_json(loads(text))
    vertices: set[Vertex] = set()
    edges = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) == 1:
            vertices.add(_vertex_token(parts[0]))
            continue
        if len(parts) != 2:
            raise ParseError(f"edge line {line!r} needs exactly two vertices")
        u, v = _vertex_token(parts[0]), _vertex_token(parts[1])
        vertices.update((u, v))
        edges.append((u, v))
    return graph_from(vertices, edges)


# -- rotations ----------------------------------------------------------------


def rotation_to_json(R: RotationSystem) -> dict:
    return {
        "rotation": {
            vertex_str(v): [vertex_str(u) for u in R.rotation[v]]
            for v in R.graph.vertices
        }
    }


def extra_planar_to_text(embeddings: dict[tuple[Vertex, Vertex], RotationSystem]) -> str:
    """``dumps`` of {"extra_planar": true, "embeddings": [{"pair": [u, v],
    **rotation_to_json(R)}, ...]}, one entry per pair in the given order,
    written directly: each vertex name and each distinct (vertex, rotation)
    entry is encoded once, and every embedding that shares an entry reuses
    its text."""
    if not embeddings:
        return '{\n  "embeddings": [],\n  "extra_planar": true\n}\n'
    vertices = next(iter(embeddings.values())).graph.vertices
    name = {v: json.dumps(vertex_str(v)) for v in vertices}
    by_name = sorted(vertices, key=vertex_str)   # sort_keys order of the rotation keys
    entries: dict[tuple[Vertex, tuple[Vertex, ...]], str] = {}

    def entry(v: Vertex, order: tuple[Vertex, ...]) -> str:
        text = entries.get((v, order))
        if text is None:
            members = ",\n          ".join(name[u] for u in order)
            text = (f'        {name[v]}: [\n          {members}\n        ]' if order
                    else f'        {name[v]}: []')
            entries[(v, order)] = text
        return text

    blocks = []
    for (u, v), R in embeddings.items():
        rotation = R.rotation
        body = ",\n".join([entry(x, rotation[x]) for x in by_name])
        blocks.append(f'    {{\n      "pair": [\n        {name[u]},\n        {name[v]}\n      ],\n'
                      f'      "rotation": {{\n{body}\n      }}\n    }}')
    return ('{\n  "embeddings": [\n' + ",\n".join(blocks)
            + '\n  ],\n  "extra_planar": true\n}\n')


def rotation_from_json(data: Any, G: Graph) -> RotationSystem:
    raw = data.get("rotation") if isinstance(data, dict) else None
    if not isinstance(raw, dict) or not all(isinstance(order, list) for order in raw.values()):
        raise ParseError("rotation JSON needs a 'rotation' object of neighbour lists")
    rotation = {
        _vertex_token(v): tuple(_vertex_token(u) for u in order)
        for v, order in raw.items()
    }
    for v in rotation:
        if v not in G.adjacency:
            raise ParseError(f"rotation names vertex {_clip(str(v))!r}, which the graph lacks")
    return RotationSystem(G, rotation)


# -- minor witnesses ------------------------------------------------------------


def witness_to_json(w: MinorWitness) -> dict:
    return {
        "model": graph_to_json(w.model),
        "branch_sets": {
            vertex_str(x): sorted((vertex_str(u) for u in bset))
            for x, bset in sorted(w.branch_sets.items(), key=lambda kv: vkey(kv[0]))
        },
        "forest_edges": [
            [vertex_str(u), vertex_str(v)]
            for u, v in sorted(w.forest_edges, key=lambda e: (vkey(e[0]), vkey(e[1])))
        ],
    }


def witness_from_json(data: Any) -> MinorWitness:
    if not isinstance(data, dict) or "model" not in data or "branch_sets" not in data:
        raise ParseError("witness JSON needs 'model' and 'branch_sets'")
    model = graph_from_json(data["model"])
    raw_sets = data["branch_sets"]
    if not isinstance(raw_sets, dict) or not all(isinstance(m, list) for m in raw_sets.values()):
        raise ParseError("witness JSON 'branch_sets' must map each model vertex to a list")
    raw_forest = data.get("forest_edges", [])
    if not isinstance(raw_forest, list) or not all(
            isinstance(e, list) and len(e) == 2 for e in raw_forest):
        raise ParseError("witness JSON 'forest_edges' must be a list of [u, v] pairs")
    branch_sets = {
        _vertex_token(x): frozenset(_vertex_token(u) for u in members)
        for x, members in raw_sets.items()
    }
    forest = frozenset(edge_key(_vertex_token(u), _vertex_token(v)) for u, v in raw_forest)
    return MinorWitness(model, branch_sets, forest)


# -- flows ----------------------------------------------------------------------


def flow_to_json(f: GroupFlow) -> dict:
    out: dict[str, Any] = {}
    if f.group.spec is not None:
        out["group"] = f.group.spec
    else:
        out["group_table"] = {
            "names": list(f.group.names),
            "table": f.group.table.tolist(),
        }
    out["graph"] = graph_to_json(f.graph)
    values = []
    for (u, v) in f.graph.sorted_edges():
        g = f.value(u, v)
        if g != f.group.identity:
            values.append([vertex_str(u), vertex_str(v), f.group.name(g)])
    out["values"] = values
    return out


def flow_from_json(data: Any, max_order: int = DEFAULT_MAX_ORDER) -> GroupFlow:
    if not isinstance(data, dict) or "graph" not in data or "values" not in data:
        raise ParseError("flow JSON needs 'graph' and 'values'")
    if "group" in data:
        group = standard_group(str(data["group"]), max_order)
    elif "group_table" in data:
        spec = data["group_table"]
        if (not isinstance(spec, dict) or not isinstance(spec.get("table"), list)
                or not isinstance(spec.get("names"), list)):
            raise ParseError("flow JSON 'group_table' needs 'table' and 'names' lists")
        _check_size(len(spec["names"]), max_order)
        group = group_from_cayley(spec["table"], [str(nm) for nm in spec["names"]])
    else:
        raise ParseError("flow JSON needs 'group' or 'group_table'")
    graph = graph_from_json(data["graph"])
    if not isinstance(data["values"], list):
        raise ParseError("flow JSON 'values' must be a list")
    one_direction = {}
    for entry in data["values"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ParseError(f"flow value {entry!r} must be [u, v, word]")
        u, v = _vertex_token(entry[0]), _vertex_token(entry[1])
        one_direction[(u, v)] = group.parse_word(str(entry[2]))
    return GroupFlow.skew(graph, group, one_direction)


# -- verdicts ---------------------------------------------------------------------


def leak_verdict_to_json(verdict: LeakVerdict, group: FiniteGroup) -> dict:
    out: dict[str, Any] = {"kind": verdict.kind}
    if verdict.vertex is not None:
        out["vertex"] = vertex_str(verdict.vertex)
    if verdict.value is not None:
        out["value"] = group.name(verdict.value)
    if verdict.vertices is not None:
        out["vertices"] = [vertex_str(v) for v in verdict.vertices]
    return out


def dumps(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
