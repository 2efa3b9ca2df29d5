"""Seeded input generator.

Writes the graph JSON files one workload reads, plus ``inputs.json``: the
op list every pass runs (group specs or graph files), the reference verdict
of each op, and the input properties that later claims cite.
The same seed gives byte-identical inputs.

Reference verdicts come from networkx, not from groupflow:

* sparse graphs (a tree plus at most two chords) are extra-planar by
  construction: a tree plus three edges has cycle rank 3, below the 4 of
  a K3,3 subdivision and the 6 of a K5 subdivision;
* every other planarity or extra-planarity verdict is one call (or one
  call per vertex pair) of ``networkx.check_planarity``.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import networkx as nx

# spec -> group order; alt:7 (order 2520) is left out, one decision costs ~26 s
GROUP_SPECS = {
    "group-pgroups": {"es:2": 32, "centprod:quaternion,dihedral:4": 32,
                      "product:es:2,cyclic:2": 64, "product:quaternion,quaternion": 64,
                      "es:3": 128},
    "group-perm": {"dihedral:6": 12, "product:sym:3,sym:3": 36, "sym:4": 24, "alt:5": 60,
                   "sym:5": 120, "alt:6": 360, "sym:6": 720},
}
GRAPH_WORKLOADS = ("extra-planar", "planar-witness")
WORKLOADS = tuple(GROUP_SPECS) + GRAPH_WORKLOADS

# extra-planar: SPARSE_PER_N sparse graphs for each n in SPARSE_N, then
# DENSE_PER_N graphs that are not extra-planar for each n in DENSE_N.
# Fixed counts per n keep the cost mix, and so the percentiles, the same
# across seeds: p50 falls inside the n = 9 sparse cluster, p95 inside n = 16.
SPARSE_N = range(8, 17)
SPARSE_PER_N = 14
DENSE_N = range(6, 11)
DENSE_PER_N = 16
DENSE_P = 0.5

# planar-witness: for each n, PW_PER_N planar and PW_PER_N non-planar G(n, p)
# graphs; `minor --model k33minus` runs on those with n <= MINOR_MAX_N.
PW_N = range(7, 13)
PW_PER_N = 17
MINOR_MAX_N = 8


def _relabel(rng: random.Random, n: int, edges) -> tuple[list[str], list[list[str]]]:
    """Random vertex labels 1..n, so structure and label order are unrelated."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    verts = [str(i) for i in range(1, n + 1)]
    es = sorted(sorted((labels[u], labels[v])) for u, v in edges)
    return verts, [[str(u), str(v)] for u, v in es]


def _sparse(rng: random.Random, n: int, chords: int) -> list[tuple[int, int]]:
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < n - 1 + chords:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return sorted(edges)


def _gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _nx(n: int, edges) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(range(n))
    H.add_edges_from(edges)
    return H


def _is_planar(H: nx.Graph) -> bool:
    return nx.check_planarity(H)[0]


def _is_extra_planar(H: nx.Graph) -> bool:
    if not _is_planar(H):
        return False
    for u, v in nx.non_edges(H):
        H.add_edge(u, v)
        ok = _is_planar(H)
        H.remove_edge(u, v)
        if not ok:
            return False
    return True


def _pw_p(n: int) -> float:
    """Edge probability that makes about half of G(n, p) non-planar."""
    return 2.9 / (n - 1) + 0.05


def _stats(values) -> dict:
    values = sorted(values)
    return {"min": values[0], "mean": round(sum(values) / len(values), 2), "max": values[-1]}


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of one workload into ``work`` and return the manifest."""
    rng = random.Random(f"{workload}:{seed}")
    work.mkdir(parents=True, exist_ok=True)
    if workload in GROUP_SPECS:
        # a fixed order: the seed does not change a group workload, so runs
        # with different seeds differ only by the machine's own noise
        specs = list(GROUP_SPECS[workload])
        ops = [{"id": i, "kind": "group", "spec": s, "order": GROUP_SPECS[workload][s]}
               for i, s in enumerate(specs)]
        props = {"group_orders": GROUP_SPECS[workload]}
        return _manifest(workload, seed, ops, props, work)

    ops: list[dict] = []
    graphs: list[dict] = []

    def add_graph(n, edges, planar, extra):
        name = f"g{len(graphs):03d}"
        verts, es = _relabel(rng, n, edges)
        (work / f"{name}.json").write_text(json.dumps({"vertices": verts, "edges": es}))
        graphs.append({"name": name, "n": n, "m": len(es), "pairs": n * (n - 1) // 2 - len(es),
                       "planar": planar, "extra_planar": extra})

    if workload == "extra-planar":
        for n in SPARSE_N:
            for k in range(SPARSE_PER_N):
                add_graph(n, _sparse(rng, n, k % 3), True, True)
        for n in DENSE_N:
            for _ in range(DENSE_PER_N):
                while True:
                    edges = _gnp(rng, n, DENSE_P)
                    H = _nx(n, edges)
                    if not _is_extra_planar(H):
                        break
                add_graph(n, edges, _is_planar(H), False)
        for g in graphs:
            ops.append({"kind": "cli", "cmd": "extra-planar", "graph": g["name"],
                        "expect": g["extra_planar"]})
    elif workload == "planar-witness":
        for n in PW_N:
            want = {True: PW_PER_N, False: PW_PER_N}
            while any(want.values()):
                edges = _gnp(rng, n, _pw_p(n))
                H = _nx(n, edges)
                planar = _is_planar(H)
                if want[planar]:
                    want[planar] -= 1
                    add_graph(n, edges, planar, _is_extra_planar(H))
        for g in graphs:
            name = g["name"]
            ops.append({"kind": "cli", "cmd": "planar", "graph": name, "expect": g["planar"]})
            if not g["planar"]:
                ops.append({"kind": "cli", "cmd": "leak-witness", "graph": name, "expect": True})
                ops.append({"kind": "cli", "cmd": "check-flow", "graph": name, "expect": True})
            if g["n"] <= MINOR_MAX_N:
                ops.append({"kind": "cli", "cmd": "minor", "graph": name, "expect": None})
    else:
        raise ValueError(f"unknown workload {workload!r}")

    for i, op in enumerate(ops):
        op["id"] = i
    props = {
        "graphs": len(graphs),
        "vertex_count_histogram": dict(sorted(Counter(g["n"] for g in graphs).items())),
        "edges_per_graph": _stats([g["m"] for g in graphs]),
        "non_adjacent_pairs_per_graph": _stats([g["pairs"] for g in graphs]),
        "share_planar": round(sum(g["planar"] for g in graphs) / len(graphs), 4),
        "share_extra_planar": round(sum(g["extra_planar"] for g in graphs) / len(graphs), 4),
        "ops_by_command": dict(sorted(Counter(op["cmd"] for op in ops).items())),
    }
    return _manifest(workload, seed, ops, props, work, graphs)


def _manifest(workload, seed, ops, props, work: Path, graphs=None) -> dict:
    manifest = {"workload": workload, "seed": seed, "ops": ops, "properties": props,
                "graphs": graphs or []}
    (work / "inputs.json").write_text(json.dumps(manifest, indent=1))
    return manifest
