"""Graph-core: named graphs, connectivity toolkit, contraction, minors."""

from __future__ import annotations

import itertools
import random
import zlib

import pytest

from groupflow.errors import HostTooLarge, ParseError
from groupflow.graphs import (
    MinorWitness,
    add_edge,
    components,
    find_minor,
    graph_from,
    named_graph,
    spanning_forest,
    verify_minor,
)

from helpers import (
    NotForest,
    NotSpanning,
    all_labeled_graphs,
    compose_minor_witnesses,
    contract,
    contract_edge,
    find_minor_unpruned,
    is_forest,
    minor_oracle,
    random_graph,
)


# -- add_edge --------------------------------------------------------------------


def test_add_edge_adjacency_matches_rebuilt_graph():
    """add_edge's graph has the adjacency graph_from builds from scratch,
    also when G's adjacency was built first, for int, str and mixed labels,
    isolated endpoints and edges already present."""
    rng = random.Random(17)
    labelings = (lambda i: i, lambda i: f"v{i}", lambda i: i if i % 2 else str(9 - i))
    isolated = present = 0
    for trial in range(240):
        vs = [labelings[trial % 3](i) for i in range(rng.randint(2, 10))]
        edges = [e for e in itertools.combinations(vs, 2) if rng.random() < 0.3]
        G = graph_from(vs, edges)
        G.adjacency                     # built first, as extra_planar builds it
        for u, v in itertools.combinations(vs, 2):
            H = add_edge(G, u, v)
            assert list(H.adjacency.items()) == list(graph_from(vs, [*edges, (u, v)]).adjacency.items())
            isolated += not (G.degree(u) and G.degree(v))
            present += G.has_edge(u, v)
    assert isolated >= 100 and present >= 100


# -- named graphs ----------------------------------------------------------------


def test_complete_5():
    g = named_graph("complete:5")
    assert g.n == 5 and g.m == 10


def test_complete_bipartite_33():
    g = named_graph("complete_bipartite:3,3")
    assert g.m == 9
    for u in (1, 2, 3):
        assert g.neighbors(u) == (4, 5, 6)


def test_k33minus_edge_count():
    assert named_graph("k33minus").m == 8
    assert named_graph("k5minus").m == 9


def test_petersen_shape():
    g = named_graph("petersen")
    assert g.n == 10 and g.m == 15
    assert all(g.degree(v) == 3 for v in g.vertices)


def test_named_graph_errors():
    for bad in ("complete:x", "octahedron", "cycle:2", "path:0"):
        with pytest.raises(ParseError):
            named_graph(bad)


def test_no_loops():
    with pytest.raises(ParseError):
        graph_from([1, 2], [(1, 1)])


# -- connectivity ------------------------------------------------------------------


def test_cycle4_connectivity():
    g = named_graph("cycle:4")
    assert components(g) == [(1, 2, 3, 4)]


def test_two_triangles():
    g = graph_from(range(1, 7), [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert len(components(g)) == 2
    forest = spanning_forest(g)
    assert forest.m == 4
    assert is_forest(forest)


# -- contraction --------------------------------------------------------------------


def test_contract_edgeless_forest_is_identity():
    g = named_graph("petersen")
    h = graph_from(g.vertices, [])
    contracted, quotient = contract(g, h)
    assert contracted == g
    assert all(quotient[v] == v for v in g.vertices)


def test_contract_triangle_edge():
    tri = named_graph("cycle:3")
    contracted, quotient = contract_edge(tri, (1, 2))
    assert contracted.vertices == (1, 3)
    assert contracted.edges == frozenset({(1, 3)})
    assert quotient[2] == 1


def test_contract_k33_edge():
    k33 = named_graph("complete_bipartite:3,3")
    contracted, quotient = contract_edge(k33, (1, 4))
    assert contracted.n == 5
    merged = quotient[1]
    assert merged == quotient[4]
    others = [v for v in contracted.vertices if v != merged]
    for v in others:
        assert contracted.has_edge(merged, v)
    cycle_edges = {e for e in contracted.edges if merged not in e}
    assert cycle_edges == {(2, 5), (2, 6), (3, 5), (3, 6)}


def test_contract_rejects_bad_forest():
    g = named_graph("complete:4")
    with pytest.raises(NotSpanning):
        contract(g, graph_from([1, 2], [(1, 2)]))
    with pytest.raises(NotForest):
        contract(g, graph_from(g.vertices, [(1, 2), (2, 3), (1, 3)]))


# -- minors -------------------------------------------------------------------------


def test_identity_witness():
    k5 = named_graph("complete:5")
    w = find_minor(k5, k5)
    assert w is not None
    assert all(len(b) == 1 for b in w.branch_sets.values())
    assert verify_minor(k5, w)


def test_petersen_k5_minor():
    pet = named_graph("petersen")
    w = find_minor(pet, named_graph("complete:5"))
    assert w is not None and verify_minor(pet, w)
    assert sorted(len(b) for b in w.branch_sets.values()) == [2, 2, 2, 2, 2]


def test_k4_has_no_k33_minor():
    assert find_minor(named_graph("complete:4"), named_graph("complete_bipartite:3,3")) is None


def test_host_too_large():
    big = graph_from(range(1, 20), [(i, i + 1) for i in range(1, 19)])
    with pytest.raises(HostTooLarge):
        find_minor(big, named_graph("complete:5"))


def test_verify_minor_rejects_overlap():
    k4 = named_graph("complete:4")
    tri = named_graph("complete:3")
    w = MinorWitness(tri, {1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({4})},
                     frozenset({(1, 2), (2, 3)}))
    assert not verify_minor(k4, w)


def test_verify_minor_rejects_missing_connection():
    g = named_graph("path:4")
    tri = named_graph("complete:3")
    w = MinorWitness(tri, {1: frozenset({1}), 2: frozenset({2}), 3: frozenset({4})},
                     frozenset())
    assert not verify_minor(g, w)  # vertices 2 and 4 are not adjacent


def test_verify_minor_rejects_disconnected_branch_set():
    g = named_graph("path:4")
    single = named_graph("complete:1")
    w = MinorWitness(single, {1: frozenset({1, 3})}, frozenset())
    assert not verify_minor(g, w)


@pytest.mark.parametrize("model_name", [
    "complete:5", "complete_bipartite:3,3", "k5minus", "k33minus",
    "complete:4", "cycle:4",
])
def test_find_minor_vs_bruteforce_oracle(model_name):
    model = named_graph(model_name)
    rng = random.Random(zlib.crc32(model_name.encode()) & 0xFFFF)
    checked = 0
    for _ in range(40):
        n = rng.randint(4, 7)
        g = random_graph(rng, n, rng.uniform(0.3, 0.9))
        w = find_minor(g, model)
        have = minor_oracle(g, model)
        assert (w is not None) == have, (model_name, g)
        if w is not None:
            assert verify_minor(g, w)
        checked += 1
    assert checked == 40


def _wheel(n: int):
    """The hub 0 joined to every vertex of the cycle 1..n (n + 1 vertices)."""
    return graph_from(range(n + 1), [(0, i) for i in range(1, n + 1)]
                      + [(i, i % n + 1) for i in range(1, n + 1)])


def _relabelled(rng: random.Random, g, label):
    """g with its vertices sent to ``label(i)`` for a random permutation i of
    0..n-1, so that label order and structure are unrelated."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    to = {v: label(i) for v, i in zip(g.vertices, perm)}
    return graph_from(to.values(), [(to[u], to[v]) for u, v in g.edges])


def _oracle_hosts(rng: random.Random) -> list:
    """Every labeled graph on up to 5 vertices, random 6-8 vertex graphs,
    string-labelled and mixed int/str-labelled ones, graphs with isolated
    vertices and graphs with two components."""
    hosts = [g for n in range(1, 6) for g in all_labeled_graphs(n)]
    hosts += [random_graph(rng, rng.randint(6, 8), rng.uniform(0.3, 0.9)) for _ in range(200)]
    for label in (lambda i: f"v{i}", lambda i: i if i % 2 else f"w{i}"):
        hosts += [_relabelled(rng, random_graph(rng, rng.randint(5, 7), rng.uniform(0.4, 0.9)),
                              label) for _ in range(20)]
    for _ in range(15):
        g = random_graph(rng, rng.randint(5, 7), rng.uniform(0.5, 0.9))
        hosts.append(graph_from(list(g.vertices) + [8, 9][:rng.randint(1, 2)], g.edges))
        a = random_graph(rng, rng.randint(3, 5), rng.uniform(0.5, 1.0))
        b = random_graph(rng, rng.randint(3, 4), rng.uniform(0.5, 1.0))
        hosts.append(graph_from(list(a.vertices) + [10 + v for v in b.vertices],
                                list(a.edges) + [(10 + u, 10 + v) for u, v in b.edges]))
    return hosts


@pytest.mark.parametrize("model_name", ["complete:5", "complete_bipartite:3,3", "k5minus",
                                        "k33minus", "complete:4", "cycle:5", "path:3"])
def test_find_minor_matches_unpruned_oracle(model_name):
    """The bitset search with its cut returns the very witness (branch sets
    and forest) that the frozenset search without it finds first, or None
    with it; the wheels W5-W8 have no K3,3 minus an edge."""
    model = named_graph(model_name)
    hosts = _oracle_hosts(random.Random(61))
    assert any(isinstance(v, str) for g in hosts for v in g.vertices)
    if model_name == "k33minus":
        hosts += [_wheel(n) for n in range(5, 9)]
    found = 0
    for g in hosts:
        w = find_minor(g, model)
        assert w == find_minor_unpruned(g, model), (model_name, g.vertices, g.sorted_edges())
        found += w is not None
    assert 0 < found < len(hosts)


def test_minor_transitivity_by_composition():
    """Nested witnesses compose into a witness the checker accepts."""
    rng = random.Random(17)
    k4 = named_graph("complete:4")
    tri = named_graph("complete:3")
    done = 0
    attempts = 0
    while done < 12 and attempts < 400:
        attempts += 1
        g = random_graph(rng, rng.randint(5, 8), rng.uniform(0.4, 0.8))
        outer = None
        try:
            outer = find_minor(g, k4)
        except HostTooLarge:
            continue
        if outer is None:
            continue
        inner = find_minor(k4, tri)
        composed = compose_minor_witnesses(g, outer, inner)
        assert verify_minor(g, composed)
        done += 1
    assert done == 12
