"""Group-valued flows on graphs.

A flow assigns a group element to each ordered vertex pair, skew-symmetric
(f(u,v) = f(v,u)^-1) and identity off the edge set.  This module covers
validation, tractability, excess and leak detection, the flows carried by
the complete-bipartite and complete-graph examples, leak synthesis for
non-planar graphs, the face-walk conjugation transform, and a tree solver
that generates conserving flows.  Tractability (the values entering each
vertex commute) and every vertex's excess come from one pass over the
support.

Leak synthesis lifts the K5 or K3,3 example flow through a minor witness:
each model value goes on one host edge, and the tree solver's leaf-first
solve makes every branch-set vertex but its root conserve.  The lift is
tractable because the values entering a branch set are products of the
commuting values entering its model vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import (
    BridgeEdge,
    EdgeMissing,
    GraphIsPlanar,
    InternalInvariantError,
    InvalidFlow,
    NotPlanarEmbedding,
    NotSubgraph,
    NotTractable,
)
from .graphs import (
    Graph,
    MinorWitness,
    Vertex,
    components,
    edge_key,
    graph_from,
    named_graph,
    remove_edge,
    vkey,
)
from .groups import FiniteGroup, conjugacy_class_id, es_group
from .planar import RotationSystem, euler_planar_check, test_planarity


class GroupFlow:
    """A map from ordered vertex pairs to group elements; unset pairs are
    the identity.  Instances may violate the flow axioms; ``validate_flow``
    reports the first violation."""

    def __init__(self, graph: Graph, group: FiniteGroup,
                 values: Mapping[tuple[Vertex, Vertex], int]):
        self.graph = graph
        self.group = group
        self.values = {
            (u, v): int(g) for (u, v), g in values.items() if int(g) != group.identity
        }

    @classmethod
    def skew(cls, graph: Graph, group: FiniteGroup,
             one_direction: Mapping[tuple[Vertex, Vertex], int]) -> "GroupFlow":
        """Build a flow from one value per pair, filling in inverses."""
        values: dict[tuple[Vertex, Vertex], int] = {}
        for (u, v), g in one_direction.items():
            g = int(g)
            rev = values.get((v, u))
            if rev is not None and rev != group.inv(g):
                raise InvalidFlow(f"conflicting values given for ({u},{v}) and ({v},{u})")
            values[(u, v)] = g
            values.setdefault((v, u), group.inv(g))
        return cls(graph, group, values)

    def value(self, u: Vertex, v: Vertex) -> int:
        return self.values.get((u, v), self.group.identity)

    def support_pairs(self) -> list[tuple[Vertex, Vertex]]:
        return sorted(self.values, key=lambda p: (vkey(p[0]), vkey(p[1])))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupFlow):
            return NotImplemented
        # groups are equal by names and table; equal names give tables of one shape
        return (self.graph == other.graph and self.values == other.values
                and self.group.names == other.group.names
                and bool((self.group.table == other.group.table).all()))

    def __repr__(self) -> str:
        return f"GroupFlow(n={self.graph.n}, support={len(self.values)}, group={self.group.spec})"


@dataclass(frozen=True)
class FlowViolation:
    kind: str                      # "skew" | "support"
    pair: tuple[Vertex, Vertex]

    def __str__(self) -> str:
        return f"{self.kind} violation at pair {self.pair}"


def validate_flow(f: GroupFlow) -> Optional[FlowViolation]:
    """None if both flow axioms hold, else the first violating pair."""
    for (u, v) in f.support_pairs():
        if not f.graph.has_edge(u, v):
            return FlowViolation("support", (u, v))
        if f.value(v, u) != f.group.inv(f.value(u, v)):
            return FlowViolation("skew", (u, v))
    return None


def _require_valid(f: GroupFlow) -> None:
    violation = validate_flow(f)
    if violation is not None:
        raise InvalidFlow(str(violation))


def _excesses(f: GroupFlow) -> tuple[Optional[dict[Vertex, int]], Optional[Vertex]]:
    """(excess of every vertex, None), or (None, v) for the first vertex v
    whose incoming values do not commute pairwise, from one pass over the
    support; pairs off the edge set are ignored."""
    group = f.group
    incoming: dict[Vertex, list[int]] = {}
    for (u, v), g in f.values.items():
        if f.graph.has_edge(u, v):
            incoming.setdefault(v, []).append(g)
    exc = {}
    for v in f.graph.vertices:
        vals = incoming.get(v, [])
        for i, a in enumerate(vals):
            if not all(group.commutes(a, b) for b in vals[i + 1:]):
                return None, v
        exc[v] = group.prod(vals)
    return exc, None


def is_tractable(f: GroupFlow) -> tuple[bool, Optional[Vertex]]:
    """True iff the values entering each vertex commute pairwise (then the
    subgroup they generate is abelian); on failure, the witness vertex."""
    bad = _excesses(f)[1]
    return bad is None, bad


def excess(f: GroupFlow, v: Vertex) -> int:
    """Product of the values flowing into v.  Requires tractability, which
    makes the product independent of the multiplication order."""
    return excess_map(f)[v]


def excess_map(f: GroupFlow) -> dict[Vertex, int]:
    exc, bad = _excesses(f)
    if exc is None:
        raise NotTractable(bad)
    return exc


@dataclass(frozen=True)
class LeakVerdict:
    kind: str                                 # one of the four names below
    vertex: Optional[Vertex] = None
    value: Optional[int] = None
    vertices: Optional[tuple[Vertex, ...]] = None

    NOT_TRACTABLE = "NotTractable"
    CONSERVING = "ConservingEverywhere"
    LEAKS_AT = "LeaksAt"
    MULTIPLE = "MultipleNonConserving"


def detect_leak(f: GroupFlow) -> LeakVerdict:
    """Classify a valid flow: tractable + conserving everywhere, leaking at
    exactly one vertex, or failing at several."""
    _require_valid(f)
    exc, bad = _excesses(f)
    if exc is None:
        return LeakVerdict(LeakVerdict.NOT_TRACTABLE, vertex=bad)
    off = [v for v in f.graph.vertices if exc[v] != f.group.identity]
    if not off:
        return LeakVerdict(LeakVerdict.CONSERVING)
    if len(off) == 1:
        v = off[0]
        return LeakVerdict(LeakVerdict.LEAKS_AT, vertex=v, value=exc[v])
    return LeakVerdict(LeakVerdict.MULTIPLE, vertices=tuple(off))


def detect_binary_leak(f: GroupFlow, u: Vertex, v: Vertex) -> Optional[int]:
    """e(u)*e(v) when f is tractable and conserving away from {u, v};
    None otherwise.  A binary leak is present exactly when the returned
    value is not the identity."""
    if u == v:
        raise InvalidFlow("binary leak needs two distinct vertices")
    vertex_set = set(f.graph.vertices)
    if u not in vertex_set or v not in vertex_set:
        raise InvalidFlow(f"({u!r}, {v!r}) are not both vertices of the graph")
    _require_valid(f)
    exc, _ = _excesses(f)
    if exc is None:
        return None
    for w in f.graph.vertices:
        if w not in (u, v) and exc[w] != f.group.identity:
            return None
    return f.group.mul(exc[u], exc[v])


def round_flow(f: GroupFlow, R: RotationSystem, v: Vertex) -> int:
    """Conjugacy class id of the rotation-ordered product of incoming values.

    Starting at a different neighbour cyclically permutes the factors, so
    the class does not depend on the starting point; an isolated vertex
    gives the identity's class.
    """
    if R.graph != f.graph:
        raise InvalidFlow("rotation system is for a different graph")
    order = R.rotation[v]
    product = f.group.prod(f.value(u, v) for u in order)
    return conjugacy_class_id(f.group, product)


# -- the worked examples -----------------------------------------------------------


_K33_WORDS = {
    (1, 4): "x1", (1, 5): "x2", (1, 6): "x1*x2",
    (2, 4): "x4", (2, 5): "x3", (2, 6): "x4*x3",
    (3, 4): "x1*x4", (3, 5): "x2*x3", (3, 6): "x1*x4*x2*x3",
}

_K5_WORDS = {
    (1, 2): "x1", (1, 3): "x2", (1, 4): "x3", (1, 5): "x1*x2*x3",
    (2, 3): "x6", (2, 4): "x5", (2, 5): "x1*x6*x5",
    (3, 4): "x4", (3, 5): "x2*x6*x4",
    (4, 5): "x3*x5*x4",
}


def example_flow_k33() -> tuple[Graph, GroupFlow]:
    """The leaking es:2 flow on the complete bipartite graph K3,3."""
    graph = named_graph("complete_bipartite:3,3")
    group = es_group(2)
    values = {pair: group.parse_word(word) for pair, word in _K33_WORDS.items()}
    return graph, GroupFlow.skew(graph, group, values)


def example_flow_k5() -> tuple[Graph, GroupFlow]:
    """The leaking es:3 flow on the complete graph K5."""
    graph = named_graph("complete:5")
    group = es_group(3)
    values = {pair: group.parse_word(word) for pair, word in _K5_WORDS.items()}
    return graph, GroupFlow.skew(graph, group, values)


def example_flow_k33_minus() -> tuple[Graph, GroupFlow]:
    """The K3,3 example with the edge {3,6} removed: a binary leak at 3 and 6."""
    graph, flow = example_flow_k33()
    host = remove_edge(graph, 3, 6)
    values = {p: g for p, g in flow.values.items() if set(p) != {3, 6}}
    return host, GroupFlow(host, flow.group, values)


# -- leak synthesis ------------------------------------------------------------------


def synthesize_leaking_flow(G: Graph) -> GroupFlow:
    """Build a leaking flow on a non-planar graph by lifting the example
    flow on its Kuratowski model through the minor witness.

    Each model edge xy puts the model's values on the least host edge
    joining branch sets x and y; each branch-set tree of the witness forest
    is then solved leaf-first toward its least vertex, so every other
    vertex conserves.  The values entering a branch set are products of
    the commuting values entering its model vertex, so the lift is
    tractable and leaks, with the model's value, at the root of the
    leaking vertex's branch set; detect_leak re-certifies it.
    """
    result = test_planarity(G)
    if isinstance(result, RotationSystem):
        raise GraphIsPlanar("planar graphs admit no leaking flow")
    witness: MinorWitness = result
    if witness.model.n == 5:
        _, model_flow = example_flow_k5()
    else:
        _, model_flow = example_flow_k33()
    owner = {v: x for x, bset in witness.branch_sets.items() for v in bset}
    values: dict[tuple[Vertex, Vertex], int] = {}
    placed = set()
    for u, v in G.sorted_edges():
        x, y = owner.get(u), owner.get(v)
        if x is None or y is None or x == y or edge_key(x, y) in placed:
            continue
        placed.add(edge_key(x, y))
        values[(u, v)] = model_flow.value(x, y)
        values[(v, u)] = model_flow.value(y, x)
    roots = [min(bset, key=vkey) for bset in witness.branch_sets.values()]
    _solve_forest(G, graph_from(G.vertices, witness.forest_edges), roots, values,
                  model_flow.group)
    flow = GroupFlow(G, model_flow.group, values)
    verdict = detect_leak(flow)
    if verdict.kind != LeakVerdict.LEAKS_AT or verdict.value == flow.group.identity:
        raise InternalInvariantError("synthesized flow does not leak")
    return flow


# -- the conjugation transform -------------------------------------------------------


def conjugate_along_walk(f: GroupFlow, R: RotationSystem,
                         edge: tuple[Vertex, Vertex]) -> GroupFlow:
    """Zero out a non-bridge edge while preserving every round-flow class.

    With gamma = f(v,w) and b the indicator of directed edges on the face
    walk starting (v,w), the new flow is
    (s,t) -> gamma^b(t,s) * f(s,t) * gamma^-b(s,t).

    In a planar embedding an edge is a bridge exactly when one face walk
    passes it in both directions (Mohar & Thomassen, Graphs on Surfaces,
    2001), so the walk that starts at (v,w) also decides BridgeEdge.  That
    walk and R's Euler check read the face orbits R walks once and keeps.
    """
    v, w = edge
    if R.graph != f.graph:
        raise InvalidFlow("rotation system is for a different graph")
    if not euler_planar_check(R):
        raise NotPlanarEmbedding("rotation system fails the Euler criterion")
    if not f.graph.has_edge(v, w):
        raise EdgeMissing(edge)
    walk_darts = next(set(orbit) for orbit in R.orbits if (v, w) in orbit)
    if (w, v) in walk_darts:
        raise BridgeEdge(edge)
    group = f.group
    gamma = f.value(v, w)
    values: dict[tuple[Vertex, Vertex], int] = {}
    for a, b in f.graph.edges:
        for u, x in ((a, b), (b, a)):
            g = f.value(u, x)
            if (x, u) in walk_darts:
                g = group.mul(gamma, g)
            if (u, x) in walk_darts:
                g = group.mul(g, group.inv(gamma))
            values[(u, x)] = g
    result = GroupFlow(f.graph, group, values)
    if result.value(v, w) != group.identity:
        raise InternalInvariantError("conjugation did not zero the chosen edge")
    return result


# -- conserving-flow generator -------------------------------------------------------


def solve_tree_flow(G: Graph, T: Graph, root: Vertex,
                    boundary: Mapping[tuple[Vertex, Vertex], int],
                    group: FiniteGroup) -> tuple[Optional[GroupFlow], Optional[Vertex]]:
    """Complete boundary values on non-tree edges to a flow conserving at
    every vertex except possibly the root.

    Processing vertices leaf-to-root, each tree-edge value toward the
    parent is chosen to cancel the child's incident product (ascending
    neighbour order, parent last).  Returns (flow, None) when the result is
    tractable, else (None, failing vertex).
    """
    if set(T.vertices) != set(G.vertices) or not T.edges <= G.edges:
        raise NotSubgraph("T must be a spanning subgraph of G")
    if T.m != T.n - 1 or len(components(T)) != 1:
        raise NotSubgraph("T must be a spanning tree")
    if root not in set(G.vertices):
        raise InvalidFlow(f"root {root!r} is not a vertex")
    for u, v in boundary:
        if edge_key(u, v) in T.edges or not G.has_edge(u, v):
            raise InvalidFlow(f"boundary pair ({u},{v}) is not a non-tree edge")
    values = GroupFlow.skew(G, group, boundary).values
    _solve_forest(G, T, [root], values, group)
    flow = GroupFlow(G, group, values)
    ok, bad = is_tractable(flow)
    if not ok:
        return None, bad
    return flow, None


def _solve_forest(G: Graph, forest: Graph, roots, values: dict[tuple[Vertex, Vertex], int],
                  group: FiniteGroup) -> None:
    """Complete ``values`` on the trees of ``forest`` that hold ``roots``,
    one root per tree: vertices are taken leaf-to-root (deepest first, ties
    by label), and each child's edge to its parent gets the value that
    cancels the product of the child's other incoming values in G
    (ascending neighbour order)."""
    parent: dict[Vertex, Optional[Vertex]] = {r: None for r in roots}
    depth = {r: 0 for r in roots}
    order = list(roots)
    for x in order:                 # breadth-first; order grows as it is read
        for y in forest.neighbors(x):
            if y not in parent:
                parent[y] = x
                depth[y] = depth[x] + 1
                order.append(y)
    for v in sorted(order, key=lambda v: (-depth[v], vkey(v))):
        p = parent[v]
        if p is None:
            continue
        prod = group.identity
        for u in G.neighbors(v):
            if u != p:
                prod = group.mul(prod, values.get((u, v), group.identity))
        values[(p, v)] = group.inv(prod)
        values[(v, p)] = prod
