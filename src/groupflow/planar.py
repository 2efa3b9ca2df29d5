"""Certified planarity and extra-planarity.

An embedding is a rotation system (cyclic neighbour order per vertex)
accepted exactly when every connected component satisfies Euler's formula
V - E + F = 2, faces being the orbits of the next-edge successor map, which
``_face_orbits`` alone walks in full, once per rotation system, for
``RotationSystem.orbits``.  On a connected graph every rotation system gives
V - E + F = 2 - 2g <= 2 for the genus g of its surface, so one face count
over all components decides the per-component check.
``test_planarity`` always returns one of two independently checkable
certificates: such a rotation system, or a K5/K3,3 minor witness.

``extra_planar`` keeps a pool of embeddings of G: the base one, LR's
embedding of G, then, for each pair that no pooled embedding places, the
LR embedding of G + uv with uv taken out again.  Every embedding it gives a
non-adjacent pair u, v is a splice into a pool entry.  A pair in one
component whose endpoints both have a corner on one face of a pooled
embedding gets its new edge spliced into that face: v goes into u's
rotation right after the dart that enters u along the face, and u into v's
rotation likewise, which adds one edge and one face.  A pair whose
endpoints lie in different components is spliced at any corner of each (an
isolated endpoint gets the rotation of the other alone); the two faces
merge into one, so V - E + F stays 2 on the joined component.  Only a pair
that no pooled embedding places is run through the LR planarity test
(Brandes, "The Left-Right Planarity Test", 2009; see ``_lr``): its edge is
taken out of LR's rotation of G + uv, which joins the pool, and is spliced
back in at the two corners it held, which gives LR's rotation again.

Each pool entry walks its embedding's faces once, when it is made, and
checks V - E + F = 2k for G; that is the only full face count
``extra_planar`` makes.  A spliced embedding is then checked exactly where
the splice changed it: its two new rotations, at u and v, are validated
against G's neighbours plus the new one, and its face count is the pool
entry's, less the faces through the darts whose successor changed (read
off the corner: two at an endpoint with edges, one at an isolated one),
plus the new orbits through those darts, which include (u, v) and (v, u);
each is walked by jumping along the entry's faces from one changed dart to
the next.  That count must give V - E + F = 2k for G + uv, as in the full
check.  A splice so costs the degrees of u and v, one copy of the pooled
rotation dict and one union of G's edge set with uv; G + uv's adjacency is
built only if something reads it.

A non-planar graph's witness comes from deleting edges, in sorted order,
while the graph stays non-planar.  Each "still non-planar without e?"
question is decided on a reduction that keeps planarity both ways: a
pendant edge is deleted untested, vertices of degree <= 1 are deleted,
and a vertex of degree 2 is suppressed into an edge between its
neighbours (or deleted when they are already adjacent).  A reduced graph
on at most 5 vertices is non-planar only if it is K5; one with more than
3n - 6 edges is non-planar by Euler's formula; only the rest go to the LR
test, which then only decides and builds no embedding.  Every answer is
the one an LR test of the whole graph would give, so the witness does not
depend on the reduction.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from ._lr import lr_planarity
from .errors import InternalInvariantError, ParseError, _clip
from .graphs import (
    Graph,
    MinorWitness,
    Vertex,
    add_edge,
    components,
    edge_key,
    graph_from,
    named_graph,
    verify_minor,
    vkey,
)


@dataclass(frozen=True)
class RotationSystem:
    """A cyclic ordering of the neighbours of every vertex; never changed
    after construction, so ``orbits`` walks its faces once and keeps them."""

    graph: Graph
    rotation: dict[Vertex, tuple[Vertex, ...]]

    def __post_init__(self):
        rot = {}
        for v in self.graph.vertices:
            order = tuple(self.rotation.get(v, ()))
            members = set(order)
            if members != set(self.graph.neighbors(v)) or len(order) != len(members):
                raise ParseError(f"rotation at {_clip(repr(v))} is not a cyclic order of "
                                 "its neighbours")
            rot[v] = _canonical_rotation(order)
        object.__setattr__(self, "rotation", rot)

    @cached_property
    def orbits(self) -> tuple[tuple[tuple[Vertex, Vertex], ...], ...]:
        """Every face orbit once, as ``_face_orbits`` walks them; tuples, so
        that no reader can change the faces R counts later."""
        return tuple(map(tuple, _face_orbits(self)))


def _canonical_rotation(order: tuple[Vertex, ...]) -> tuple[Vertex, ...]:
    if not order:
        return order
    i = order.index(min(order, key=vkey))
    return order[i:] + order[:i]


def _face_orbits(R: RotationSystem) -> list[list[tuple[Vertex, Vertex]]]:
    """Every face orbit once: the cycles of the dart successor map
    (a, v) -> (v, b), where b follows a in v's rotation.  Each orbit starts
    at the first dart (u, w), in vertex order and then neighbour order, that
    no earlier orbit covers."""
    succ: dict[tuple[Vertex, Vertex], tuple[Vertex, Vertex]] = {}
    for v, order in R.rotation.items():
        for a, b in zip(order, order[1:] + order[:1]):
            succ[(a, v)] = (v, b)
    orbits = []
    for start in ((u, w) for u in R.graph.vertices for w in R.graph.neighbors(u)):
        if start in succ:
            orbit = [start]
            while (cur := succ.pop(orbit[-1])) != start:
                orbit.append(cur)
            orbits.append(orbit)
    return orbits


def faces(R: RotationSystem) -> list[tuple[Vertex, ...]]:
    """Decompose the directed edges into boundary walks.

    The successor map (u, v) -> (v, rotation(v)(u)) is a bijection on the
    directed edges; its cycles are the returned walks, each a closed vertex
    tuple (x0, ..., xn) with xn = x0 and x_{i+2} = rotation(x_{i+1})(x_i).
    Every directed edge occurs in exactly one walk, so the walk lengths n
    add up to 2|E|.
    """
    return [tuple(d[0] for d in orbit) + (orbit[0][0],) for orbit in R.orbits]


def euler_planar_check(R: RotationSystem) -> bool:
    """True iff every component with at least one edge has V - E + F = 2.

    A rotation system embeds each connected component C in an orientable
    surface of some genus g >= 0 with the face orbits as faces, so
    V_C - E_C + F_C = 2 - 2g <= 2 (Mohar & Thomassen, "Graphs on Surfaces",
    2001).  Summed over the k components that have an edge (an isolated
    vertex has no edge and no face), V - E + F reaches 2k exactly when every
    term is 2, so one face count over all components decides the check
    (``_euler_holds``).  It reads ``R.orbits``, so R is walked only once.
    """
    return _euler_holds(len(R.orbits), R.graph.m, *_edge_spans(components(R.graph)))


def _edge_spans(comps: list[tuple[Vertex, ...]]) -> tuple[int, int]:
    """V and k of the Euler check, from a graph's ``components``: how many
    vertices have an edge, and how many components have one."""
    sizes = [len(members) for members in comps if len(members) > 1]
    return sum(sizes), len(sizes)


def _euler_holds(faces: int, m: int, n: int, k: int) -> bool:
    """V - E + F = 2k for ``faces`` faces, ``m`` edges, and the ``n``
    vertices of the ``k`` components that have an edge (see
    ``euler_planar_check``)."""
    return n - m + faces == 2 * k


# -- planarity dichotomy ---------------------------------------------------------


def _reduce(adj: dict[Vertex, set[Vertex]]) -> dict[Vertex, set[Vertex]]:
    """A copy of the adjacency ``adj`` with every vertex of degree <= 2
    reduced away, which keeps planarity in both directions.

    A vertex of degree <= 1 is deleted: it can be drawn next to its
    neighbour in any embedding.  A vertex x of degree 2 with neighbours
    a, b is suppressed (its path becomes the edge ab), which gives a
    homeomorphic graph; if ab is already an edge, x is deleted instead,
    since it can be drawn back beside that edge.  What is left has minimum
    degree 3, or no vertex at all.
    """
    adj = {v: set(ns) for v, ns in adj.items()}
    stack = [v for v, ns in adj.items() if len(ns) <= 2]
    while stack:
        x = stack.pop()
        if x not in adj or len(adj[x]) > 2:
            continue
        ns = adj.pop(x)
        for y in ns:
            adj[y].discard(x)
        if len(ns) == 2:
            a, b = ns
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                continue
        stack.extend(ns)
    return adj


def _reduced_is_planar(adj: dict[Vertex, set[Vertex]]) -> bool:
    """Planarity of the graph with adjacency ``adj``, decided on its
    reduction: with at most 5 vertices only K5 is non-planar, more than
    3n - 6 edges break Euler's bound, and anything else gets the LR test
    without its embedding phases."""
    H = _reduce(adj)
    n = len(H)
    m = sum(len(ns) for ns in H.values()) // 2
    if n <= 5:
        return m < 10
    if m > 3 * n - 6:
        return False
    return lr_planarity(H)


def _kuratowski_witness(G: Graph) -> MinorWitness:
    """Extract a verified K5 or K3,3 minor from a non-planar graph.

    Delete removable edges, in sorted order, until the graph is
    edge-minimal non-planar; what is left (ignoring isolated vertices) is a
    subdivision of K5 or K3,3.  An edge at a vertex of degree 1 is deleted
    without a test, since a pendant edge never decides planarity.  Every
    other deletion is decided on the ``_reduce``d graph, which is planar
    exactly when the unreduced one is, so each test has the verdict a full
    LR test of the current edge set would give and the witness is the same.
    """
    adj = {v: set(ns) for v, ns in G.adjacency.items()}
    for u, v in G.sorted_edges():
        adj[u].remove(v)
        adj[v].remove(u)
        if adj[u] and adj[v] and _reduced_is_planar(adj):
            adj[u].add(v)
            adj[v].add(u)
    return _subdivision_witness(G, {edge_key(u, v) for u in adj for v in adj[u]})


def _subdivision_witness(G: Graph, edges: set[tuple[Vertex, Vertex]]) -> MinorWitness:
    """The K5 or K3,3 minor of G given by ``edges``, a subdivision of K5 or
    K3,3: its degree->=3 vertices become the branch vertices and every
    chain's interior is folded into one endpoint's branch set."""
    core = graph_from({v for e in edges for v in e}, edges)
    branch = [v for v in core.vertices if core.degree(v) >= 3]
    degs = sorted(core.degree(v) for v in branch)
    if degs == [4] * 5:
        model = named_graph("complete:5")
    elif degs == [3] * 6:
        model = named_graph("complete_bipartite:3,3")
    else:
        raise InternalInvariantError(f"unexpected subdivision degrees {degs}")
    branch_set: dict[Vertex, set[Vertex]] = {b: {b} for b in branch}
    forest: set[tuple[Vertex, Vertex]] = set()
    model_edges: set[tuple[Vertex, Vertex]] = set()
    seen_darts: set[tuple[Vertex, Vertex]] = set()
    for b in branch:
        for w in core.neighbors(b):
            if (b, w) in seen_darts:
                continue
            chain = [b, w]
            while core.degree(chain[-1]) == 2:
                nxt = next(x for x in core.neighbors(chain[-1]) if x != chain[-2])
                chain.append(nxt)
            seen_darts.add((b, w))
            seen_darts.add((chain[-1], chain[-2]))
            other = chain[-1]
            model_edges.add(edge_key(b, other))
            interior = chain[1:-1]
            owner = b if vkey(b) < vkey(other) else other
            if owner is other:
                interior = interior[::-1]
                path = [other] + interior
            else:
                path = [b] + interior
            branch_set[owner].update(interior)
            forest.update(edge_key(x, y) for x, y in zip(path, path[1:]))
    if model.n == 5:
        label_of = dict(zip(sorted(branch, key=vkey), range(1, 6)))
    else:
        side_a = [branch[0]]
        side_b = []
        for v in branch[1:]:
            if edge_key(v, branch[0]) in model_edges:
                side_b.append(v)
            else:
                side_a.append(v)
        side_a, side_b = sorted(side_a, key=vkey), sorted(side_b, key=vkey)
        if vkey(side_b[0]) < vkey(side_a[0]):
            side_a, side_b = side_b, side_a
        label_of = {v: i + 1 for i, v in enumerate(side_a)}
        label_of.update({v: i + 4 for i, v in enumerate(side_b)})
    witness = MinorWitness(
        model,
        {label_of[b]: frozenset(branch_set[b]) for b in branch},
        frozenset(forest),
    )
    if not verify_minor(G, witness):
        raise InternalInvariantError("extracted minor witness failed verification")
    return witness


PlanarityResult = Union[RotationSystem, MinorWitness]


def test_planarity(G: Graph) -> PlanarityResult:
    """Certified dichotomy: an Euler-checked rotation system, or a verified
    K5/K3,3 minor witness.  Exactly one of the two is returned."""
    rotation = lr_planarity(G.adjacency, embed=True)
    if rotation is None:
        return _kuratowski_witness(G)
    R = RotationSystem(G, rotation)
    if not euler_planar_check(R):
        raise InternalInvariantError("embedding failed the Euler check")
    return R


# -- extra-planarity --------------------------------------------------------------


@dataclass(frozen=True)
class ExtraPlanarVerdict:
    """Either every single-edge addition stays planar (with one embedding per
    vertex pair), or a failing pair together with its Kuratowski witness
    against the augmented graph."""

    extra_planar: bool
    embeddings: Optional[dict[tuple[Vertex, Vertex], RotationSystem]] = None
    pair: Optional[tuple[Vertex, Vertex]] = None
    witness: Optional[MinorWitness] = None


def extra_planar(G: Graph) -> ExtraPlanarVerdict:
    """Check that G plus any single edge is planar.

    G is embedded once, by the LR test.  Pairs that are already adjacent
    reuse that embedding.  A pair in two components is spliced into the
    base embedding at any corner of each endpoint.  A non-adjacent pair in
    one component is spliced into the first pooled embedding that has a
    corner of each endpoint on a common face (its lowest-indexed such face,
    see ``_face_orbits``).  A pair that no pooled embedding places is
    tested afresh: its LR embedding, with the pair's edge taken out, joins
    the pool, and the pair is spliced into it at the corners the edge held.
    Each pool entry checks its embedding in full, and each spliced rotation
    system has its two new rotations validated and its faces counted
    exactly from its pool entry's (see ``_splice``).  No failing pair is
    ever spliced, so the first failing pair (in canonical order) and its
    witness are those of the per-pair test.
    """
    pairs = list(itertools.combinations(G.vertices, 2))
    rotation = lr_planarity(G.adjacency, embed=True)
    if rotation is None:
        # the witness lives inside G, hence also inside G plus the extra edge
        return ExtraPlanarVerdict(False, pair=pairs[0], witness=_kuratowski_witness(G))
    comps = components(G)
    component = {v: i for i, members in enumerate(comps) for v in members}
    n, k = _edge_spans(comps)
    pool = [_PoolEntry(RotationSystem(G, rotation), n, k)]
    base = pool[0].R
    embeddings: dict[tuple[Vertex, Vertex], RotationSystem] = {}
    for pair in pairs:
        # pairs run in vertex order, so each is in the edge_key order of G.edges
        if pair in G.edges:
            embeddings[pair] = base
            continue
        u, v = pair
        if component[u] != component[v]:
            # any corner of each endpoint: after its first neighbour, if any;
            # an isolated endpoint joins V, and two components become one
            at = (next(iter(base.rotation[u]), None), next(iter(base.rotation[v]), None))
            isolated = (at[0] is None) + (at[1] is None)
            embeddings[pair] = _splice(G, pool[0], pair, at, n + isolated, k - 1 + isolated)
            continue
        for entry in pool:
            at = _splice_corners(entry.corners[u], entry.corners[v])
            if at is not None:
                break
        else:
            H = add_edge(G, u, v)
            rotation = lr_planarity(H.adjacency, embed=True)
            if rotation is None:
                return ExtraPlanarVerdict(False, pair=pair, witness=_kuratowski_witness(H))
            # take uv out, noting the neighbour before the other endpoint at
            # each end: u and v both have an edge in G, so each has one
            corners = []
            for w, other in ((u, v), (v, u)):
                order = rotation[w]
                i = order.index(other)
                corners.append(order[i - 1])
                rotation[w] = order[:i] + order[i + 1:]
            at = tuple(corners)
            entry = _PoolEntry(RotationSystem(G, rotation), n, k, pair)
            pool.append(entry)
        embeddings[pair] = _splice(G, entry, pair, at, n, k)
    return ExtraPlanarVerdict(True, embeddings=embeddings)


class _PoolEntry:
    """An embedding R of G with what a splice into it reads: its face
    orbits, each dart's place (face index, position on the face), and each
    vertex's first corner per face (face index -> the vertex the face enters
    it from).  The orbits are R's own (a fresh R walks them here), and R
    is refused unless they give V - E + F = 2k for G's ``n`` vertices with
    an edge and ``k`` components with an edge: R's full Euler check.  The
    error names the ``pair`` whose LR embedding R was cut from, if any."""

    def __init__(self, R: RotationSystem, n: int, k: int,
                 pair: Optional[tuple[Vertex, Vertex]] = None):
        self.R = R
        self.orbits = R.orbits
        if not _euler_holds(len(self.orbits), R.graph.m, n, k):
            cut = "" if pair is None else f" plus {_clip(repr(pair))} without that edge"
            raise InternalInvariantError(
                f"extra_planar pool: embedding of G{cut} failed the Euler check")
        self.place: dict[tuple[Vertex, Vertex], tuple[int, int]] = {}
        self.corners: dict[Vertex, dict[int, Vertex]] = {v: {} for v in R.graph.vertices}
        for f, orbit in enumerate(self.orbits):
            for i, d in enumerate(orbit):
                self.place[d] = (f, i)
                self.corners[d[1]].setdefault(f, d[0])


def _splice_corners(at_u: dict[int, Vertex],
                    at_v: dict[int, Vertex]) -> Optional[tuple[Vertex, Vertex]]:
    """The in-neighbours of the corners at u and at v that the new edge uv
    joins, given each endpoint's first corner per face (see ``_PoolEntry``);
    None when u and v share no face."""
    for f, x in at_u.items():
        if f in at_v:
            return x, at_v[f]
    return None


def _splice(G: Graph, entry: _PoolEntry, pair: tuple[Vertex, Vertex],
            at: tuple[Optional[Vertex], Optional[Vertex]], n: int, k: int) -> RotationSystem:
    """The embedding R = ``entry.R`` of G with the edge uv = ``pair`` added
    at the corners ``at`` (None for an endpoint without edges, whose
    rotation becomes the other endpoint alone), checked exactly where the
    splice changed it.

    Only the rotations at u and v are new: each must be a cyclic order of
    its neighbours in G plus the other endpoint, and is canonicalised; every
    other rotation is R's, already checked.  Putting the other endpoint
    after x in w's rotation changes the successors of two darts only: (x, w)
    now leads to the new dart, and the new dart (other, w) takes x's old
    successor (at an isolated w, its own reverse).  The faces of G + uv are
    R's, less those through a changed dart, plus the new orbits through
    one, each walked by jumping along R's faces between changed darts.
    With ``n`` and ``k`` the vertices with an edge and the components with
    an edge of G + uv, the face count must satisfy Euler's V - E + F = 2k
    (see ``euler_planar_check``): a splice inside a component splits one
    face, and one across components merges the faces at its two corners.
    A splice so costs the degrees of u and v, one copy of R's rotation dict
    and one edge-set union; the spliced graph's adjacency is built if read.
    """
    R = entry.R
    rotation = dict(R.rotation)
    succ: dict[tuple[Vertex, Vertex], tuple[Vertex, Vertex]] = {}   # of the changed darts
    cuts: dict[int, list[int]] = {}     # R's face -> positions of its changed darts
    for w, other, x in ((pair[0], pair[1], at[0]), (pair[1], pair[0], at[1])):
        order = R.rotation[w]
        i = 0 if x is None else order.index(x) + 1
        order = order[:i] + (other,) + order[i:]
        succ[(other, w)] = (w, order[(i + 1) % len(order)])
        if x is not None:
            succ[(x, w)] = (w, other)
            f, j = entry.place[(x, w)]
            cuts.setdefault(f, []).append(j)
        expected = {other, *G.adjacency[w]}
        if len(order) != len(expected) or set(order) != expected:
            raise InternalInvariantError(
                f"extra_planar splice: rotation at {_clip(repr(w))} in G plus "
                f"{_clip(repr(pair))} is not a cyclic order of its neighbours")
        # R's rotation at w starts at its least vertex, so the new one starts there or at other
        rotation[w] = order if vkey(order[0]) < vkey(other) else order[i:] + order[:i]
    for positions in cuts.values():
        positions.sort()

    new_orbits = 0
    unseen = set(succ)
    while unseen:
        start = d = unseen.pop()
        new_orbits += 1
        while True:
            d = succ[d]
            if d not in succ:       # along R's face to its next changed dart
                f, i = entry.place[d]
                positions = cuts[f]
                d = entry.orbits[f][positions[bisect_left(positions, i) % len(positions)]]
            if d == start:
                break
            unseen.remove(d)
    faces = len(entry.orbits) - len(cuts) + new_orbits
    if not _euler_holds(faces, G.m + 1, n, k):
        raise InternalInvariantError(
            f"extra_planar splice: embedding of G plus {_clip(repr(pair))} failed the Euler check")
    # built without __post_init__, which would re-validate every rotation
    spliced = object.__new__(RotationSystem)
    object.__setattr__(spliced, "graph", Graph(G.vertices, G.edges | {pair}))
    object.__setattr__(spliced, "rotation", rotation)
    return spliced
