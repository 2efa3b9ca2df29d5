"""The left-right planarity routine against networkx's LR test."""

from __future__ import annotations

import random

from groupflow._lr import lr_planarity
from groupflow.graphs import components, graph_from
from groupflow.planar import RotationSystem, euler_planar_check

from helpers import all_labeled_graphs, nx_is_planar, random_graph


def _check(G, adj=None) -> bool:
    """Both modes on ``adj`` (G's own adjacency by default) agree with
    networkx; an embedding passes the Euler check."""
    adj = G.adjacency if adj is None else adj
    planar = nx_is_planar(G)
    assert lr_planarity(adj) is planar, G.sorted_edges()
    rotation = lr_planarity(adj, embed=True)
    assert (rotation is not None) is planar, G.sorted_edges()
    if planar:
        assert euler_planar_check(RotationSystem(G, rotation)), G.sorted_edges()
    return planar


def test_lr_matches_networkx_on_every_graph_up_to_6_vertices():
    verdicts = [_check(G) for n in range(1, 7) for G in all_labeled_graphs(n)]
    assert len(verdicts) == 1 + 2 + 8 + 64 + 1024 + 32768
    assert 0 < verdicts.count(False) < len(verdicts)


def _labelled(G, style: str):
    if style == "int":
        return G
    name = {v: f"v{v}" if style == "str" or v % 2 else v for v in G.vertices}
    return graph_from(name.values(), [(name[u], name[v]) for u, v in G.edges])


def test_lr_matches_networkx_on_seeded_7_to_40_vertices():
    """Sparse and dense graphs, many disconnected or with isolated
    vertices, labelled by ints, strings or a mix of both."""
    rng = random.Random(131)
    seen = {"planar": 0, "non-planar": 0, "disconnected": 0, "isolated": 0}
    for i in range(600):
        n = rng.randint(7, 40)
        p = rng.uniform(1.0, 4.0) / n
        G = _labelled(random_graph(rng, n, p), ("int", "str", "mixed")[i % 3])
        seen["planar" if _check(G) else "non-planar"] += 1
        seen["disconnected"] += len(components(G)) > 1
        seen["isolated"] += any(G.degree(v) == 0 for v in G.vertices)
    assert min(seen.values()) >= 60, seen


def test_lr_takes_the_adjacency_in_any_order():
    """Vertices and neighbour lists shuffled: the verdict stays networkx's,
    and an embedding still passes the Euler check."""
    rng = random.Random(137)
    for _ in range(200):
        G = random_graph(rng, rng.randint(6, 14), rng.uniform(0.15, 0.5))
        _check(G, {v: rng.sample(G.adjacency[v], G.degree(v)) for v in rng.sample(G.vertices, G.n)})


def test_lr_long_cycle_and_path_need_no_recursion():
    n = 20000
    for edges in ([(i, i + 1) for i in range(n - 1)], [(i, (i + 1) % n) for i in range(n)]):
        G = graph_from(range(n), edges)
        assert lr_planarity(G.adjacency) is True
        assert euler_planar_check(RotationSystem(G, lr_planarity(G.adjacency, embed=True)))
