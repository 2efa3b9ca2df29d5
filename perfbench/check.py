"""Verdict and certificate checks, run after the passes and outside every
timed region.  Each function returns None when the op's output is right,
else a one-line reason, which makes the op count as failed.

Certificates are re-checked with the library's own checkers, fed from the
emitted JSON: rotations through ``rotation_from_json`` and
``euler_planar_check``, minor witnesses through ``verify_minor`` (after
checking that the model is the named graph), flows through ``detect_leak``.
A group decision's witness flow is re-checked in the worker instead, see
``worker._group_outputs``.
Verdicts are compared with references that do not come from groupflow:
networkx for planarity (see gen.py), published and recorded group verdicts,
and an exhaustive branch-set search for the K3,3-minus-an-edge minor.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import networkx as nx

from groupflow import flows, graphs, groups, jsonio, planar

# Published leak-proofness verdicts.
PUBLISHED = {"es:2": False, "es:3": False, "centprod:quaternion,dihedral:4": False,
             "sym:6": False, "sym:4": True, "sym:5": True, "alt:6": True}

# spec -> (leak-proof, witness name, invariant factors of the glued group),
# as the code this benchmark was added at returns them.
REFERENCE = {
    "es:2": (False, "z", [2] * 5),
    "centprod:quaternion,dihedral:4": (False, "(1,r2)", [2] * 5),
    "product:es:2,cyclic:2": (False, "(z,1)", [2] * 6),
    "product:quaternion,quaternion": (True, None, [2, 2, 2, 2, 4, 4]),
    "es:3": (False, "z", [2] * 7),
    "dihedral:6": (True, None, [2, 2, 2, 6]),
    "product:sym:3,sym:3": (True, None, [2, 2, 2, 2, 6, 6]),
    "sym:4": (True, None, [2, 2, 6, 6, 12, 12]),
    "alt:5": (True, None, [6] * 4 + [30] * 6),
    "sym:5": (True, None, [2] * 6 + [6] * 4 + [30, 30] + [60] * 4),
    "alt:6": (True, None, [2] * 9 + [10] * 16 + [30] * 4 + [60] * 16),
    "sym:6": (False, "(3 4)(5 6)", [2] * 10 + [10] * 16 + [30] * 20),
}

KURATOWSKI = (nx.complete_graph(5), nx.complete_bipartite_graph(3, 3))
K33_MINUS = nx.complete_bipartite_graph(3, 3)
K33_MINUS.remove_edge(0, 3)


def _model_is(witness: graphs.MinorWitness, *candidates: nx.Graph) -> bool:
    H = nx.Graph()
    H.add_nodes_from(witness.model.vertices)
    H.add_edges_from(witness.model.edges)
    return any(nx.is_isomorphic(H, M) for M in candidates)


def _kuratowski_ok(G: graphs.Graph, data) -> str | None:
    W = jsonio.witness_from_json(data)
    if not _model_is(W, *KURATOWSKI):
        return "witness model is neither K5 nor K3,3"
    if not graphs.verify_minor(G, W):
        return "minor witness fails verify_minor"
    return None


def _rotation_ok(G: graphs.Graph, data) -> str | None:
    if not planar.euler_planar_check(jsonio.rotation_from_json(data, G)):
        return "rotation fails the Euler check"
    return None


def _plus(G: graphs.Graph, pair) -> graphs.Graph:
    u, v = (int(x) for x in pair)          # gen.py labels vertices 1..n
    return G if G.has_edge(u, v) else graphs.add_edge(G, u, v)


def has_k33_minus_minor(G: graphs.Graph) -> bool:
    """Exhaustive: six disjoint connected branch sets whose quotient has a
    3+3 split with at least 8 of the 9 cross pairs adjacent.  Exponential;
    meant for graphs with at most 8 vertices."""
    vs = list(G.vertices)
    adj = {v: set(G.neighbors(v)) for v in vs}

    def connected(block: set) -> bool:
        start = next(iter(block))
        seen, todo = {start}, [start]
        while todo:
            for y in adj[todo.pop()] & block - seen:
                seen.add(y)
                todo.append(y)
        return seen == block

    def realises(blocks: list[set]) -> bool:
        if not all(connected(b) for b in blocks):
            return False
        touch = [[any(adj[x] & b for x in a) for b in blocks] for a in blocks]
        for others in itertools.combinations(range(1, 6), 2):
            side = (0,) + others
            rest = [j for j in range(6) if j not in side]
            if sum(touch[a][b] for a in side for b in rest) >= 8:
                return True
        return False

    def assign(i: int, blocks: list[set]) -> bool:
        if len(blocks) + len(vs) - i < 6:
            return False
        if i == len(vs):
            return realises(blocks)
        v = vs[i]
        if assign(i + 1, blocks):                    # v in no branch set
            return True
        for b in blocks:
            b.add(v)
            found = assign(i + 1, blocks)
            b.discard(v)
            if found:
                return True
        if len(blocks) < 6:
            blocks.append({v})
            found = assign(i + 1, blocks)
            blocks.pop()
            return found
        return False

    return assign(0, [])


def check_group_op(op: dict, out: dict) -> str | None:
    spec = op["spec"]
    leakproof, witness, factors = REFERENCE[spec]
    if out["order"] != op["order"]:
        return f"order {out['order']}, expected {op['order']}"
    if out["leakproof"] != leakproof or PUBLISHED.get(spec, leakproof) != leakproof:
        return f"leak-proof = {out['leakproof']}, expected {leakproof}"
    if out["witness"] != witness:
        return f"witness {out['witness']}, expected {witness}"
    if out["factors"] != factors:
        return f"invariant factors {out['factors']}, expected {factors}"
    if leakproof:
        return None
    G = groups.standard_group(spec)
    if G.order & (G.order - 1) == 0:           # 2-group: the designated central involution
        z = groups.designated_central_involution(G)
        if z is not None and G.name(z) != witness:
            return f"witness {witness} is not the central involution {G.name(z)}"
    if out["flow_check"] != [flows.LeakVerdict.LEAKS_AT, witness]:
        return f"witness flow re-check by detect_leak gives {out['flow_check']}"
    return None


def check_cli_op(op: dict, exit_code: int, work: Path, out_dir: Path) -> str | None:
    G = jsonio.graph_from_json(json.loads((work / f"{op['graph']}.json").read_text()))
    cmd = op["cmd"]
    if cmd == "minor":
        expected = has_k33_minus_minor(G)
    else:
        expected = op["expect"]
    want_exit = {"check-flow": 1}.get(cmd, 0 if expected else 1)
    if exit_code != want_exit:
        return f"{cmd}: exit {exit_code}, expected {want_exit}"
    out = json.loads((out_dir / f"{op['id']}.json").read_text())
    if cmd == "extra-planar":
        if not expected:
            return _kuratowski_ok(_plus(G, out["pair"]), out["witness"])
        pairs = {tuple(e["pair"]) for e in out["embeddings"]}
        want = {(str(u), str(v)) for u, v in itertools.combinations(G.vertices, 2)}
        if pairs != want:
            return "extra-planar: embeddings do not cover every vertex pair"
        for entry in out["embeddings"]:
            reason = _rotation_ok(_plus(G, entry["pair"]), entry)
            if reason:
                return f"pair {entry['pair']}: {reason}"
        return None
    if cmd == "planar":
        return _rotation_ok(G, out) if expected else _kuratowski_ok(G, out["witness"])
    if cmd == "minor":
        if not expected:
            return None
        W = jsonio.witness_from_json(out["witness"])
        if not _model_is(W, K33_MINUS):
            return "minor: witness model is not K3,3 minus an edge"
        return None if graphs.verify_minor(G, W) else "minor: witness fails verify_minor"
    flow_file = out_dir / f"{op['id'] - (cmd == 'check-flow')}.json"
    flow = jsonio.flow_from_json(json.loads(flow_file.read_text()))
    verdict = flows.detect_leak(flow)
    if verdict.kind != flows.LeakVerdict.LEAKS_AT or verdict.value == flow.group.identity:
        return f"{cmd}: flow re-check gives {verdict.kind}"
    if cmd == "leak-witness":
        if flow.graph != G:
            return "leak-witness: flow lives on another graph"
        return None
    if (out.get("kind"), out.get("vertex"), out.get("value")) != (
            verdict.kind, str(verdict.vertex), flow.group.name(verdict.value)):
        return f"check-flow: verdict {out} differs from detect_leak"
    return None
