"""Planarity: faces, Euler criterion, certified dichotomy, extra-planarity."""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter

import networkx as nx
import pytest

from groupflow import jsonio, planar
from groupflow.errors import InternalInvariantError, NotPlanarEmbedding, ParseError
from groupflow.graphs import (
    add_edge,
    components,
    find_minor,
    graph_from,
    named_graph,
    verify_minor,
)
from groupflow.planar import (
    RotationSystem,
    euler_planar_check,
    extra_planar,
    faces,
)
from groupflow.planar import test_planarity as planarity_certificate

from helpers import (
    all_labeled_graphs,
    bridge_oracle,
    count_planarity_tests,
    euler_check_per_component,
    extra_planar_by_lr,
    face_orbits_by_next_neighbor,
    kuratowski_by_lr,
    lr_tested_pairs_match_lr,
    next_neighbor,
    nx_is_planar,
    random_graph,
    splices_checked_by_full_oracle,
    walk_bridge_check,
)


def embed(G):
    R = planarity_certificate(G)
    assert isinstance(R, RotationSystem)
    return R


# -- faces -----------------------------------------------------------------------


def test_single_edge_one_walk():
    g = graph_from([1, 2], [(1, 2)])
    walks = faces(RotationSystem(g, {1: (2,), 2: (1,)}))
    assert walks == [(1, 2, 1)]


def test_triangle_two_walks():
    tri = named_graph("cycle:3")
    walks = faces(embed(tri))
    assert sorted(len(w) - 1 for w in walks) == [3, 3]


def test_k4_planar_rotation_four_faces():
    walks = faces(embed(named_graph("complete:4")))
    assert len(walks) == 4
    assert all(len(w) == 4 and w[0] == w[-1] for w in walks)


def test_faces_cover_each_dart_once():
    rng = random.Random(4)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), rng.uniform(0.2, 0.8))
        rotation = {}
        for v in g.vertices:
            order = list(g.neighbors(v))
            rng.shuffle(order)
            rotation[v] = tuple(order)
        R = RotationSystem(g, rotation)
        walks = faces(R)
        darts = [d for w in walks for d in zip(w, w[1:])]
        assert len(darts) == 2 * g.m
        assert len(set(darts)) == len(darts)
        for w in walks:
            assert w[0] == w[-1]
            for i in range(len(w) - 2):
                assert w[i + 2] == next_neighbor(R, w[i + 1], w[i])


def test_faces_successor_is_bijection():
    g = named_graph("petersen")
    rotation = {v: g.neighbors(v) for v in g.vertices}
    R = RotationSystem(g, rotation)
    succ = {}
    for u, v in itertools.chain(g.edges, ((b, a) for a, b in g.edges)):
        succ[(u, v)] = (v, next_neighbor(R, v, u))
    assert len(set(succ.values())) == len(succ)


def test_rotation_must_match_neighbors():
    g = named_graph("cycle:3")
    with pytest.raises(ParseError):
        RotationSystem(g, {1: (2,), 2: (1, 3), 3: (1, 2)})


# -- Euler criterion --------------------------------------------------------------


def test_triangle_euler_true():
    assert euler_planar_check(embed(named_graph("cycle:3")))


def test_k5_no_rotation_attains_euler():
    k5 = named_graph("complete:5")
    neigh = {v: [u for u in k5.vertices if u != v] for v in k5.vertices}
    attained = False
    for combo in itertools.product(
        *[[ (neigh[v][0],) + p for p in itertools.permutations(neigh[v][1:]) ]
          for v in k5.vertices]
    ):
        R = RotationSystem(k5, dict(zip(k5.vertices, combo)))
        if euler_planar_check(R):
            attained = True
            break
    assert not attained


def test_disconnected_euler_per_component():
    g = graph_from(range(1, 7), [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert euler_planar_check(embed(g))


def test_orbits_are_walked_once_and_leave_equality_alone(monkeypatch):
    """R.orbits is _face_orbits(R) as tuples, walked on the first read
    only, however often faces and euler_planar_check read it; two rotation
    systems with the same rotation compare equal whether or not one has
    walked its faces."""
    g = graph_from(range(1, 7), [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    rotation = embed(g).rotation
    walked = []
    walk = planar._face_orbits
    monkeypatch.setattr(planar, "_face_orbits", lambda R: walked.append(R) or walk(R))
    R, S = RotationSystem(g, rotation), RotationSystem(g, rotation)
    assert R == S and walked == []
    assert faces(R) == faces(R) and len(faces(R)) == 4
    assert euler_planar_check(R) and euler_planar_check(R)
    assert [id(T) for T in walked] == [id(R)]
    assert R.orbits == tuple(map(tuple, walk(S))) and "orbits" not in vars(S)
    assert R == S and S == R


def test_orbits_cannot_be_changed_by_a_reader():
    """R.orbits is a tuple of tuples: appending a face, changing a dart or
    rebinding the attribute raises, and R's face count stays."""
    g = graph_from(range(1, 4), [(1, 2), (2, 3), (1, 3)])
    R = embed(g)
    with pytest.raises(AttributeError):
        R.orbits.append(())
    with pytest.raises(TypeError):
        R.orbits[0][0] = (3, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        R.orbits = ()
    assert len(R.orbits) == len(faces(R)) == 2 and euler_planar_check(R)


def test_face_orbits_and_euler_match_former_routines():
    """_face_orbits equals the sorted-dart next_neighbor walk orbit for
    orbit, and euler_planar_check the per-component count, on seeded random
    rotation systems (disconnected graphs, isolated vertices, non-planar
    rotations) and on LR embeddings."""
    rng = random.Random(7)
    seen = Counter()
    for trial in range(900):
        parts = [random_graph(rng, rng.randint(1, 5), rng.uniform(0.2, 1.0))
                 for _ in range(rng.randint(1, 3))]
        g = graph_from(
            [10 * i + v for i, h in enumerate(parts) for v in h.vertices],
            [(10 * i + u, 10 * i + v) for i, h in enumerate(parts) for u, v in h.edges])
        R = planarity_certificate(g)
        if trial % 3 or not isinstance(R, RotationSystem):
            rotation = {}
            for v in g.vertices:
                order = list(g.neighbors(v))
                rng.shuffle(order)
                rotation[v] = tuple(order)
            R = RotationSystem(g, rotation)
        assert planar._face_orbits(R) == face_orbits_by_next_neighbor(R)
        verdict = euler_planar_check(R)
        assert verdict == euler_check_per_component(R)
        with_edges = [c for c in components(g) if len(c) > 1]
        seen[verdict, len(with_edges) > 1, len(with_edges) < len(components(g))] += 1
    # both verdicts on graphs with several edged components, and with isolated vertices
    for verdict in (True, False):
        assert seen[verdict, True, False] + seen[verdict, True, True] >= 20
        assert seen[verdict, False, True] + seen[verdict, True, True] >= 20


# -- certified dichotomy ------------------------------------------------------------


def test_k4_embedding():
    R = embed(named_graph("complete:4"))
    assert len(faces(R)) == 4


def test_k5_witness():
    k5 = named_graph("complete:5")
    w = planarity_certificate(k5)
    assert not isinstance(w, RotationSystem)
    assert w.model.n == 5
    assert verify_minor(k5, w)


def test_petersen_witness():
    pet = named_graph("petersen")
    w = planarity_certificate(pet)
    assert w.model.n in (5, 6)
    assert verify_minor(pet, w)


def test_dichotomy_exhaustive_5_vertices():
    """Certificate soundness + branch agreement on all 1024 labeled graphs."""
    k5 = named_graph("complete:5")
    k33 = named_graph("complete_bipartite:3,3")
    for g in all_labeled_graphs(5):
        result = planarity_certificate(g)
        if isinstance(result, RotationSystem):
            assert euler_planar_check(result)
            assert find_minor(g, k5) is None and find_minor(g, k33) is None
        else:
            assert verify_minor(g, result)
            assert find_minor(g, k5) is not None or find_minor(g, k33) is not None


def test_dichotomy_sampled_6_vertices():
    rng = random.Random(23)
    k5 = named_graph("complete:5")
    k33 = named_graph("complete_bipartite:3,3")
    for _ in range(120):
        g = random_graph(rng, 6, rng.uniform(0.3, 0.95))
        result = planarity_certificate(g)
        if isinstance(result, RotationSystem):
            assert euler_planar_check(result)
            assert find_minor(g, k5) is None and find_minor(g, k33) is None
        else:
            assert verify_minor(g, result)


def _subdivided(G, start):
    """G with every edge split by a new vertex, labelled from ``start`` on."""
    edges = []
    for i, (u, v) in enumerate(G.sorted_edges()):
        edges += [(u, start + i), (start + i, v)]
    return graph_from(list(G.vertices) + list(range(start, start + G.m)), edges)


def _adjacency(G):
    return {v: set(G.neighbors(v)) for v in G.vertices}


def test_kuratowski_witness_matches_lr_oracle(monkeypatch):
    """The reduced deletion tests find the witness of one LR test per edge,
    with fewer LR calls, some edges deleted by the pendant rule alone."""
    graphs = [named_graph(name) for name in
              ("complete:5", "complete_bipartite:3,3", "complete:6", "petersen")]
    graphs.append(_subdivided(named_graph("complete_bipartite:3,3"), 7))
    rng = random.Random(83)
    sampled = 0
    while sampled < 300:
        g = random_graph(rng, rng.randint(5, 14), rng.uniform(0.3, 0.9))
        if not nx_is_planar(_adjacency(g)):
            graphs.append(g)
            sampled += 1
    lr_calls = Counter()
    oracle = nx.check_planarity
    lr = planar.lr_planarity
    decider = planar._reduced_is_planar
    monkeypatch.setattr(nx, "check_planarity",
                        lambda *a, **k: lr_calls.update(["oracle"]) or oracle(*a, **k))
    monkeypatch.setattr(planar, "lr_planarity",
                        lambda *a, **k: lr_calls.update(["reduced"]) or lr(*a, **k))
    monkeypatch.setattr(planar, "_reduced_is_planar",
                        lambda adj: lr_calls.update(["decider"]) or decider(adj))
    for g in graphs:
        want = kuratowski_by_lr(g)
        got = planar._kuratowski_witness(g)
        assert got == want, g
        assert verify_minor(g, got)
    assert lr_calls["reduced"] > 0
    assert lr_calls["oracle"] == sum(g.m for g in graphs)
    assert lr_calls["reduced"] < lr_calls["oracle"] / 2
    assert lr_calls["decider"] < lr_calls["oracle"]   # the rest were pendant edges


def _deciding_rule(adj):
    H = planar._reduce(adj)
    n, m = len(H), sum(map(len, H.values())) // 2
    if n <= 5:
        return "K5" if m == 10 else "at most 5 vertices"
    return "m > 3n - 6" if m > 3 * n - 6 else "LR"


def test_reduced_planarity_decider_matches_lr():
    """Each question the deletion loop asks of a non-planar graph, and
    plain seeded graphs, get the LR test's answer from the reduction; every
    rule decides some of them."""
    rng = random.Random(97)
    decided = Counter()
    for _ in range(400):
        adj = _adjacency(random_graph(rng, rng.randint(3, 12), rng.uniform(0.1, 0.9)))
        assert planar._reduced_is_planar(adj) == nx_is_planar(adj)
        decided[_deciding_rule(adj)] += 1
    while sum(decided.values()) < 2400:
        g = random_graph(rng, rng.randint(5, 12), rng.uniform(0.4, 0.9))
        adj = _adjacency(g)
        if nx_is_planar(adj):
            continue
        for u, v in g.sorted_edges():
            adj[u].remove(v)
            adj[v].remove(u)
            planar_now = nx_is_planar(adj)
            if not (adj[u] and adj[v]):
                assert not planar_now
                decided["pendant"] += 1
            else:
                assert planar._reduced_is_planar(adj) == planar_now
                decided[_deciding_rule(adj)] += 1
            if planar_now:
                adj[u].add(v)
                adj[v].add(u)
    assert set(decided) == {"pendant", "at most 5 vertices", "K5", "m > 3n - 6", "LR"}
    assert min(decided.values()) >= 20, decided


def test_reduce_keeps_min_degree_three():
    rng = random.Random(101)
    for _ in range(200):
        H = planar._reduce(_adjacency(random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.7))))
        assert all(len(ns) >= 3 and all(v in H[w] for w in ns) for v, ns in H.items())
    assert planar._reduce(_adjacency(_subdivided(named_graph("complete:5"), 6))) == \
        _adjacency(named_graph("complete:5"))


# -- walk bridge check -------------------------------------------------------------


def test_path3_both_edges_returned():
    p3 = named_graph("path:3")
    R = embed(p3)
    walks = faces(R)
    assert len(walks) == 1
    assert walk_bridge_check(R, walks[0]) == [(1, 2), (2, 3)]


def test_triangle_no_doubled_edges():
    R = embed(named_graph("cycle:3"))
    for w in faces(R):
        assert walk_bridge_check(R, w) == []


def test_pendant_edge_detected():
    g = graph_from([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3), (3, 4)])
    R = embed(g)
    doubled = set()
    for w in faces(R):
        doubled.update(walk_bridge_check(R, w))
    assert doubled == {(3, 4)}


def test_walk_bridge_check_needs_planar_embedding():
    k5 = named_graph("complete:5")
    rotation = {v: tuple(u for u in k5.vertices if u != v) for v in k5.vertices}
    R = RotationSystem(k5, rotation)
    walk = faces(R)[0]
    with pytest.raises(NotPlanarEmbedding):
        walk_bridge_check(R, walk)


def test_doubled_edges_are_bridges_randomized():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(3, 8), 0.35)
        result = planarity_certificate(g)
        if not isinstance(result, RotationSystem):
            continue
        expected = bridge_oracle(g)
        for w in faces(result):
            for e in walk_bridge_check(result, w):
                assert e in expected


# -- extra-planarity ------------------------------------------------------------------


def test_k4_extra_planar():
    verdict = extra_planar(named_graph("complete:4"))
    assert verdict.extra_planar
    assert len(verdict.embeddings) == 6   # all pairs already adjacent


def test_k5minus_not_extra_planar():
    g = named_graph("k5minus")
    verdict = extra_planar(g)
    assert not verdict.extra_planar
    assert verdict.pair == (1, 2)         # the removed edge
    assert verify_minor(add_edge(g, *verdict.pair), verdict.witness)


def test_path4_extra_planar():
    assert extra_planar(named_graph("path:4")).extra_planar


def test_extra_planar_singleton_and_empty():
    assert extra_planar(graph_from([1], [])).extra_planar
    assert extra_planar(graph_from([1, 2, 3], [])).extra_planar


def test_extra_kuratowski_sampled_6_vertices():
    """extra-planar iff no k5minus and no k33minus minor (sampled here;
    the exhaustive sweep lives in the acceptance suite)."""
    rng = random.Random(41)
    k5m = named_graph("k5minus")
    k33m = named_graph("k33minus")
    for _ in range(150):
        g = random_graph(rng, 6, rng.uniform(0.3, 0.95))
        verdict = extra_planar(g)
        minor_free = find_minor(g, k5m) is None and find_minor(g, k33m) is None
        assert verdict.extra_planar == minor_free


def _assert_matches_lr_oracle(g):
    verdict = extra_planar(g)
    expected = extra_planar_by_lr(g)
    assert verdict.extra_planar == expected.extra_planar
    assert verdict.pair == expected.pair
    if not verdict.extra_planar:
        assert jsonio.witness_to_json(verdict.witness) == jsonio.witness_to_json(expected.witness)
        return
    assert verdict.embeddings.keys() == expected.embeddings.keys()
    for (u, v), R in verdict.embeddings.items():
        assert R.graph == add_edge(g, u, v)
        assert euler_planar_check(R)


def test_extra_planar_matches_lr_oracle_exhaustive_5_vertices():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            _assert_matches_lr_oracle(g)


def test_extra_planar_matches_lr_oracle_sampled_6_to_10_vertices():
    rng = random.Random(59)
    disconnected = isolated = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(6, 10), rng.uniform(0.05, 0.5))
        disconnected += len(components(g)) > 1
        isolated += any(g.degree(v) == 0 for v in g.vertices)
        _assert_matches_lr_oracle(g)
    assert disconnected >= 50 and isolated >= 20


def test_extra_planar_tests_only_pairs_without_shared_face(monkeypatch):
    """A tree's embedding has one face, so pairs inside a tree are spliced;
    pairs across trees or at an isolated vertex are spliced at any corner
    of each endpoint, so the forest needs its base test alone."""
    calls = count_planarity_tests(monkeypatch)
    g = graph_from(range(1, 10), [(1, 2), (2, 3), (2, 4), (5, 6), (6, 7)])
    verdict = extra_planar(g)
    assert verdict.extra_planar and len(verdict.embeddings) == 36
    comp = {v: i for i, c in enumerate(components(g)) for v in c}
    apart = [(u, v) for u, v in verdict.embeddings if comp[u] != comp[v]]
    assert len(apart) == 27
    assert calls == [g.adjacency]
    for u, v in apart:
        R = verdict.embeddings[(u, v)]
        assert R.graph == add_edge(g, u, v) and euler_planar_check(R)
    assert verdict.embeddings[(8, 9)].rotation[8] == (9,)


def test_extra_planar_pool_places_pair_the_base_embedding_does_not(monkeypatch):
    """(3, 5), (4, 6) and (5, 6) share no face of the base embedding.  The
    first two get their own test; (5, 6) shares a face of a pooled
    embedding of G, one that an LR test of G plus an earlier pair gave."""
    g = graph_from(range(1, 7), [(1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5)])
    base_faces = [{w for _, w in orbit} for orbit in planar._face_orbits(embed(g))]
    for u, v in [(3, 5), (4, 6), (5, 6)]:
        assert not any(u in f and v in f for f in base_faces)
    calls = count_planarity_tests(monkeypatch)
    verdict = extra_planar(g)
    assert verdict.extra_planar
    assert calls == [g.adjacency, add_edge(g, 3, 5).adjacency, add_edge(g, 4, 6).adjacency]
    _assert_matches_lr_oracle(g)


def test_splices_match_full_check_oracle_sampled_7_to_12_vertices(monkeypatch):
    """Sparse graphs with isolated vertices and several components, so that
    both splice kinds and isolated endpoints occur.  A spliced graph's
    adjacency is left unbuilt, and once built equals add_edge's.  Every
    certificate is also rebuilt and Euler-checked in full."""
    spliced = splices_checked_by_full_oracle(monkeypatch)
    rng = random.Random(67)
    isolated = several = 0
    for _ in range(120):
        g = random_graph(rng, rng.randint(7, 12), rng.uniform(0.05, 0.3))
        isolated += any(g.degree(v) == 0 for v in g.vertices)
        several += len([c for c in components(g) if len(c) > 1]) > 1
        start = len(spliced)
        verdict = extra_planar(g)
        if verdict.extra_planar:
            embeddings = [verdict.embeddings[pair] for pair in spliced[start:]]
            assert not any("adjacency" in R.graph.__dict__ for R in embeddings), g
        for (u, v), R in (verdict.embeddings or {}).items():
            assert R.graph.adjacency == add_edge(g, u, v).adjacency, (g, u, v)
            rebuilt = RotationSystem(R.graph, R.rotation)
            assert R.graph == add_edge(g, u, v)
            assert rebuilt.rotation == R.rotation and euler_planar_check(rebuilt), (g, u, v)
    assert isolated >= 30 and several >= 30 and len(spliced) > 3_000


def _one_face_too_many(monkeypatch):
    """Each pool entry passes its own Euler check, then counts one face more."""
    class Miscounted(planar._PoolEntry):
        def __init__(self, *args):
            super().__init__(*args)
            self.orbits = self.orbits + ((),)
    monkeypatch.setattr(planar, "_PoolEntry", Miscounted)


def _corners_on_different_faces(monkeypatch):
    def wrong(at_u, at_v):
        f = next(iter(at_u))
        return at_u[f], next(x for g, x in at_v.items() if g != f)
    monkeypatch.setattr(planar, "_splice_corners", wrong)


_SPLICE_1_3_FAILS = r"splice: embedding of G plus \(1, 3\) failed the Euler check"


def test_extra_planar_splice_failing_euler_check_names_stage_and_pair(monkeypatch):
    """path:4's base embedding passes its full check; with its pool entry
    counting one face too many, the first spliced pair, (1, 3), fails the
    exact face count of its splice."""
    _one_face_too_many(monkeypatch)
    with pytest.raises(InternalInvariantError, match=_SPLICE_1_3_FAILS):
        extra_planar(named_graph("path:4"))


def test_extra_planar_splice_at_corners_on_two_faces_fails_euler_check(monkeypatch):
    """cycle:4 has two faces; joining 1 and 3 across them gives a torus."""
    _corners_on_different_faces(monkeypatch)
    with pytest.raises(InternalInvariantError, match=_SPLICE_1_3_FAILS):
        extra_planar(named_graph("cycle:4"))


@pytest.mark.parametrize("graph", [
    # (1, 3) joins the components {1, 2} and {3, 4}, merging their faces
    graph_from([1, 2, 3, 4], [(1, 2), (3, 4)]),
    # (1, 3) joins {1, 2} and the isolated 3, which has no face to merge
    graph_from([1, 2, 3], [(1, 2)]),
])
def test_extra_planar_cross_component_splice_failing_euler_check(monkeypatch, graph):
    _one_face_too_many(monkeypatch)
    with pytest.raises(InternalInvariantError, match=_SPLICE_1_3_FAILS):
        extra_planar(graph)


def test_extra_planar_splice_validates_the_new_rotations(monkeypatch):
    """The path 2-1-4-3 has one face, so (1, 3) is spliced into its base
    pool entry.  With that entry's rotation at 1 missing the neighbour that
    its corner does not name, the spliced rotation at 1 is not a cyclic
    order of 1's neighbours in G plus (1, 3)."""
    class MissingNeighbour(planar._PoolEntry):
        def __init__(self, R, *args):
            super().__init__(R, *args)
            rotation = dict(R.rotation)
            rotation[1] = tuple(self.corners[1].values())
            faulty = object.__new__(RotationSystem)     # skips __post_init__'s check
            object.__setattr__(faulty, "graph", R.graph)
            object.__setattr__(faulty, "rotation", rotation)
            self.R = faulty
    monkeypatch.setattr(planar, "_PoolEntry", MissingNeighbour)
    with pytest.raises(InternalInvariantError, match=r"splice: rotation at 1 in G plus \(1, 3\)"):
        extra_planar(graph_from([1, 2, 3, 4], [(1, 2), (1, 4), (3, 4)]))


def _pool_entries(monkeypatch) -> list:
    """Every pool entry extra_planar makes, in order."""
    entries = []

    class Recorded(planar._PoolEntry):
        def __init__(self, *args):
            super().__init__(*args)
            entries.append(self)
    monkeypatch.setattr(planar, "_PoolEntry", Recorded)
    return entries


def test_extra_planar_checks_each_pooled_embedding_in_full(monkeypatch):
    """Each embedding that joins the pool is Euler-checked in full by its
    pool entry, and one that fails names the pool and the pair whose LR
    embedding it was cut from."""
    g = graph_from(range(1, 7), [(1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5)])
    entries = _pool_entries(monkeypatch)
    walked = []
    walk = planar._face_orbits
    monkeypatch.setattr(planar, "_face_orbits", lambda R: walked.append(R) or walk(R))
    assert extra_planar(g).extra_planar
    # the base, then one per LR-tested pair: (3, 5) and (4, 6)
    assert [entry.R.graph for entry in entries] == [g, g, g]
    assert [id(R) for R in walked] == [id(entry.R) for entry in entries]
    for entry in entries:
        assert euler_planar_check(entry.R)
        assert len(entry.orbits) == len(faces(entry.R))

    lr = planar.lr_planarity

    def flipped_at_1_for_3_5(adj, embed=False):
        rotation = lr(adj, embed)
        if embed and 5 in adj[3]:
            rotation[1] = rotation[1][::-1]     # 1 is no endpoint of (3, 5)
        return rotation
    monkeypatch.setattr(planar, "lr_planarity", flipped_at_1_for_3_5)
    with pytest.raises(InternalInvariantError,
                       match=r"pool: embedding of G plus \(3, 5\) without that edge failed"):
        extra_planar(g)


def test_extra_planar_walks_each_checked_embedding_once(monkeypatch):
    """Faces are walked only by the pool entries, once each, and no full
    Euler check runs."""
    entries = _pool_entries(monkeypatch)
    walked = []
    walk = planar._face_orbits
    monkeypatch.setattr(planar, "_face_orbits", lambda R: walked.append(R) or walk(R))
    monkeypatch.setattr(planar, "euler_planar_check", None)
    rng = random.Random(71)
    graphs = [graph_from(range(1, 7), [(1, 2), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5)]),
              graph_from(range(1, 10), [(1, 2), (2, 3), (2, 4), (5, 6), (6, 7)]),
              named_graph("cycle:4"), named_graph("petersen")]
    graphs += [random_graph(rng, rng.randint(7, 10), rng.uniform(0.15, 0.35)) for _ in range(6)]
    misses = 0
    for g in graphs:
        walked.clear()
        entries.clear()
        extra_planar(g)
        assert [id(R) for R in walked] == [id(entry.R) for entry in entries], g
        misses += max(len(entries) - 1, 0)      # the LR-tested pairs
    assert misses >= 3


def test_pool_entry_checks_its_own_faces(monkeypatch):
    """A pool entry walks a freshly built embedding once and refuses one
    whose face count misses V - E + F = 2k; the error names the pair it
    came from."""
    c4 = named_graph("cycle:4")
    rotation = embed(c4).rotation
    walked = []
    walk = planar._face_orbits
    monkeypatch.setattr(planar, "_face_orbits", lambda R: walked.append(R) or walk(R))
    R = RotationSystem(c4, rotation)
    assert len(planar._PoolEntry(R, 4, 1).orbits) == 2 and [id(S) for S in walked] == [id(R)]
    k4 = named_graph("complete:4")
    torus = RotationSystem(k4, {v: tuple(u for u in k4.vertices if u != v) for v in k4.vertices})
    for S, k in ((torus, 1), (R, 2)):
        with pytest.raises(InternalInvariantError,
                           match=r"^extra_planar pool: embedding of G failed the Euler check$"):
            planar._PoolEntry(S, 4, k)
    with pytest.raises(InternalInvariantError, match=r"G plus \(1, 3\) without that edge failed"):
        planar._PoolEntry(R, 4, 2, (1, 3))
    assert [id(S) for S in walked] == [id(R), id(torus)]


def test_splices_match_full_check_oracle_up_to_6_vertices(sweep_up_to_6_vertices):
    spliced, _, _ = sweep_up_to_6_vertices
    assert spliced > 100_000


def test_lr_tested_pairs_keep_lr_rotation_up_to_6_vertices(sweep_up_to_6_vertices):
    _, tested, _ = sweep_up_to_6_vertices
    assert tested > 10_000


def test_lr_tested_pairs_keep_lr_rotation_sampled_7_to_12_vertices(monkeypatch):
    rng = random.Random(67)
    graphs = [random_graph(rng, rng.randint(7, 12), rng.uniform(0.05, 0.3)) for _ in range(120)]
    assert lr_tested_pairs_match_lr(monkeypatch, graphs)[0] > 50
