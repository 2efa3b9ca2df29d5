"""File formats: graphs, rotations, witnesses, flows round-trip exactly."""

from __future__ import annotations

import json
import random

import pytest

from groupflow import jsonio
from groupflow.errors import ParseError
from groupflow.flows import detect_leak, example_flow_k33, example_flow_k5
from groupflow.graphs import find_minor, graph_from, named_graph, verify_minor
from groupflow.planar import euler_planar_check
from groupflow.planar import test_planarity as planarity_certificate

from helpers import random_graph


def test_graph_roundtrip():
    g = named_graph("petersen")
    assert jsonio.graph_from_json(jsonio.graph_to_json(g)) == g


def test_graph_string_vertices():
    g = graph_from(["a", "b", 3], [("a", "b"), ("b", 3)])
    back = jsonio.graph_from_json(jsonio.graph_to_json(g))
    assert back == g


def test_graph_edge_list_text():
    text = "1 2\n2 3\n3 1\n4\n"
    g = jsonio.graph_from_text(text)
    assert g.n == 4 and g.m == 3


def test_integer_labels():
    """One leading minus makes an integer label; a label that only looks
    like one is a string; an integer past 640 digits is a ParseError."""
    g = jsonio.graph_from_text("-1 --5\n-1 -\n")
    assert set(g.vertices) == {-1, "--5", "-"}
    assert jsonio.graph_from_text('{"vertices": [7, "-8"], "edges": [[7, "-8"]]}').edges == {(-8, 7)}
    for text in ("1 " + "9" * 641, '{"vertices": [' + "9" * 641 + '], "edges": []}'):
        with pytest.raises(ParseError, match="above the limit of 640"):
            jsonio.graph_from_text(text)
    assert jsonio.graph_from_text("1 " + "9" * 640).m == 1


def test_only_canonical_digit_strings_are_integers():
    """A digit string is an integer label only when it is that integer's
    canonical spelling: "01" and "1" name two vertices, "-0" is not 0, and
    non-ASCII digits stay strings."""
    g = jsonio.graph_from_text("01 2\n1 3\n")
    assert set(g.vertices) == {"01", 1, 2, 3} and g.m == 2
    assert set(g.neighbors("01")) == {2} and set(g.neighbors(1)) == {3}
    g = jsonio.graph_from_text("-0 0\n")
    assert set(g.vertices) == {"-0", 0} and g.m == 1
    g = jsonio.graph_from_text("\u0661 1\n-12 12\n")
    assert set(g.vertices) == {"\u0661", 1, -12, 12}
    g = jsonio.graph_from_text('{"vertices": ["007", 7, "-3"], "edges": [["007", "7"]]}')
    assert set(g.vertices) == {"007", 7, -3} and g.m == 1


@pytest.mark.parametrize("text", [
    '{"vertices": [1, true, 2.5], "edges": [[2.5, 1]]}',
    '{"vertices": [1, true], "edges": []}',
    '{"vertices": [1, 2.5], "edges": []}',
    '{"vertices": [1, 2], "edges": [[1, null]]}',
    '{"vertices": [1, [2]], "edges": []}',
    '{"vertices": [1, {"a": 2}], "edges": []}',
])
def test_vertex_labels_are_strings_or_integers(text):
    """A JSON vertex label that is neither a string nor an integer (a bool
    is not one) is refused, not coerced to another label."""
    with pytest.raises(ParseError, match="must be a string or an integer"):
        jsonio.graph_from_text(text)


def test_graph_json_errors():
    with pytest.raises(ParseError):
        jsonio.graph_from_json({"vertices": ["1"]})
    with pytest.raises(ParseError):
        jsonio.graph_from_json({"vertices": ["1", "2"], "edges": [["1"]]})


def test_rotation_roundtrip():
    g = named_graph("complete:4")
    R = planarity_certificate(g)
    data = jsonio.rotation_to_json(R)
    back = jsonio.rotation_from_json(data, g)
    assert back == R
    assert euler_planar_check(back)


def test_witness_roundtrip():
    pet = named_graph("petersen")
    w = find_minor(pet, named_graph("complete:5"))
    data = jsonio.witness_to_json(w)
    back = jsonio.witness_from_json(data)
    assert verify_minor(pet, back)
    assert back.branch_sets == w.branch_sets


@pytest.mark.parametrize("branch_sets, forest_edges", [
    ([["1"]], []),                      # branch_sets not an object
    ({"1": 5}, []),                     # a branch set not a list
    ({"1": ["1"]}, [5]),                # a forest edge not a list
    ({"1": ["1"]}, [["1"]]),            # a forest edge with one endpoint
    ({"1": ["1"]}, 5),                  # forest_edges not a list
])
def test_witness_json_bad_shapes_are_parse_errors(branch_sets, forest_edges):
    data = {"model": {"vertices": ["1"], "edges": []},
            "branch_sets": branch_sets, "forest_edges": forest_edges}
    with pytest.raises(ParseError):
        jsonio.witness_from_json(data)


def test_flow_roundtrip_k33():
    _, f = example_flow_k33()
    data = jsonio.flow_to_json(f)
    back = jsonio.flow_from_json(data)
    assert back == f
    assert detect_leak(back).kind == "LeaksAt"


def test_flow_roundtrip_k5():
    _, f = example_flow_k5()
    back = jsonio.flow_from_json(json.loads(jsonio.dumps(jsonio.flow_to_json(f))))
    assert back == f


def test_product_group_witness_flow_roundtrip():
    """Element names of a product group contain '*' themselves."""
    from groupflow.groupleak import build_delta, is_leakproof_group, witness_flow_from_kernel
    from groupflow.groups import standard_group

    G = standard_group("product:es:2,cyclic:2")
    D = build_delta(G)
    verdict = is_leakproof_group(G, delta=D)
    assert not verdict.leakproof
    _, f = witness_flow_from_kernel(D, verdict.witness)
    assert any("*" in f.group.name(g) for g in f.values.values())
    back = jsonio.flow_from_json(json.loads(jsonio.dumps(jsonio.flow_to_json(f))))
    assert back == f
    leak = detect_leak(back)
    assert leak.kind == "LeaksAt"
    assert leak.value == verdict.witness


def test_flow_inline_table():
    """The flow read back equals the one written, also when an element that
    is not the identity is named 1."""
    from groupflow.flows import GroupFlow
    from groupflow.groups import group_from_cayley

    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    for table, names in (([[0, 1], [1, 0]], ["1", "t"]), (z4, ["0", "1", "2", "3"])):
        group = group_from_cayley(table, names)
        g = named_graph("path:2")
        f = GroupFlow.skew(g, group, {(1, 2): 1})
        data = jsonio.flow_to_json(f)
        assert "group_table" in data
        back = jsonio.flow_from_json(data)
        assert back.value(1, 2) == back.group.index_of(names[1])
        assert back == f


def test_random_graph_roundtrips():
    rng = random.Random(6)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert jsonio.graph_from_json(jsonio.graph_to_json(g)) == g
