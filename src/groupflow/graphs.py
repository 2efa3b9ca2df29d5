"""Simple undirected graphs with connectivity tools and minor search.

Vertices are opaque ordered tokens (ints or strings); canonical outputs
sort by token.  Minor containment is decided exactly, on hosts of at most
``DEFAULT_HOST_BOUND`` vertices, by a branch-and-bound over connected
branch sets held as vertex bitsets, and every positive answer is packaged
as a :class:`MinorWitness` that ``verify_minor`` can check independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

from .errors import HostTooLarge, InternalInvariantError, ParseError

Vertex = Union[int, str]

DEFAULT_HOST_BOUND = 16


def vkey(v: Vertex):
    """Total order over mixed int/str vertex tokens."""
    return (0, v, "") if isinstance(v, int) else (1, 0, str(v))


def edge_key(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
    if u == v:
        raise ParseError(f"loop at vertex {u!r}")
    return (u, v) if vkey(u) < vkey(v) else (v, u)


@dataclass(frozen=True)
class Graph:
    vertices: tuple[Vertex, ...]
    edges: frozenset[tuple[Vertex, Vertex]]

    @cached_property
    def adjacency(self) -> dict[Vertex, tuple[Vertex, ...]]:
        adj: dict[Vertex, list[Vertex]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns, key=vkey)) for v, ns in adj.items()}

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        return self.adjacency[v]

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u != v and edge_key(u, v) in self.edges

    def sorted_edges(self) -> list[tuple[Vertex, Vertex]]:
        return sorted(self.edges, key=lambda e: (vkey(e[0]), vkey(e[1])))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def graph_from(vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]) -> Graph:
    vs = tuple(sorted(set(vertices), key=vkey))
    vset = set(vs)
    es = set()
    for u, v in edges:
        if u not in vset or v not in vset:
            raise ParseError(f"edge ({u!r}, {v!r}) has an endpoint outside the vertex set")
        es.add(edge_key(u, v))
    return Graph(vs, frozenset(es))


def add_edge(G: Graph, u: Vertex, v: Vertex) -> Graph:
    return Graph(G.vertices, G.edges | {edge_key(u, v)})


def remove_edge(G: Graph, u: Vertex, v: Vertex) -> Graph:
    return Graph(G.vertices, G.edges - {edge_key(u, v)})


def induced_subgraph(G: Graph, vertices: Iterable[Vertex]) -> Graph:
    vs = set(vertices)
    return graph_from(vs, (e for e in G.edges if e[0] in vs and e[1] in vs))


def named_graph(name: str) -> Graph:
    """Canonical graphs on vertex labels 1..n.

    ``k5minus``/``k33minus`` drop the edge between the two lowest-labelled
    adjacent vertices (any choice gives an isomorphic graph).
    """
    name = name.strip().lower()
    if name.startswith("complete_bipartite:"):
        parts = name.split(":", 1)[1].split(",")
        if len(parts) != 2 or not all(p.isdecimal() for p in parts):
            raise ParseError(f"bad graph name {name!r}")
        a, b = int(parts[0]), int(parts[1])
        left = list(range(1, a + 1))
        right = list(range(a + 1, a + b + 1))
        return graph_from(left + right, [(u, v) for u in left for v in right])
    if name.startswith("complete:"):
        n = _named_int(name)
        return graph_from(range(1, n + 1), itertools.combinations(range(1, n + 1), 2))
    if name.startswith("path:"):
        n = _named_int(name)
        return graph_from(range(1, n + 1), [(i, i + 1) for i in range(1, n)])
    if name.startswith("cycle:"):
        n = _named_int(name)
        if n < 3:
            raise ParseError("cycle:n needs n >= 3")
        return graph_from(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])
    if name == "petersen":
        outer = [(i, i % 5 + 1) for i in range(1, 6)]
        spokes = [(i, i + 5) for i in range(1, 6)]
        inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
        return graph_from(range(1, 11), outer + spokes + inner)
    if name == "k5minus":
        g = named_graph("complete:5")
        return remove_edge(g, *g.sorted_edges()[0])
    if name == "k33minus":
        g = named_graph("complete_bipartite:3,3")
        return remove_edge(g, *g.sorted_edges()[0])
    raise ParseError(f"unknown graph name {name!r}")


def _named_int(name: str) -> int:
    arg = name.split(":", 1)[1]
    if not arg.isdecimal() or int(arg) < 1:
        raise ParseError(f"bad graph name {name!r}")
    return int(arg)


# -- connectivity ---------------------------------------------------------------


def components(G: Graph) -> list[tuple[Vertex, ...]]:
    """Connectivity partition, each class sorted, classes sorted by first member."""
    seen: set[Vertex] = set()
    out = []
    for start in G.vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for y in G.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        out.append(tuple(sorted(comp, key=vkey)))
    out.sort(key=lambda c: vkey(c[0]))
    return out


def spanning_forest(G: Graph) -> Graph:
    """A maximal acyclic subgraph spanning all vertices (BFS trees)."""
    seen: set[Vertex] = set()
    tree_edges = []
    for root in G.vertices:
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            x = queue.pop(0)
            for y in G.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    tree_edges.append(edge_key(x, y))
                    queue.append(y)
    return graph_from(G.vertices, tree_edges)


# -- minors ---------------------------------------------------------------------


@dataclass(frozen=True)
class MinorWitness:
    """Certificate that ``model`` is a minor of some host graph.

    ``branch_sets`` maps each model vertex to a connected set of host
    vertices; ``forest_edges`` are host edges inside branch sets forming a
    spanning tree of each.
    """

    model: Graph
    branch_sets: Mapping[Vertex, frozenset[Vertex]]
    forest_edges: frozenset[tuple[Vertex, Vertex]]


def verify_minor(G: Graph, witness: MinorWitness) -> bool:
    """Check every MinorWitness invariant against the host graph G."""
    model = witness.model
    sets = witness.branch_sets
    if set(sets.keys()) != set(model.vertices):
        return False
    host_vertices = set(G.vertices)
    used: set[Vertex] = set()
    for x, bset in sets.items():
        if not bset or not bset <= host_vertices:
            return False
        if used & bset:
            return False
        used |= bset
    for u, v in witness.forest_edges:
        if edge_key(u, v) not in G.edges:
            return False
        owner_u = next((x for x, b in sets.items() if u in b), None)
        owner_v = next((x for x, b in sets.items() if v in b), None)
        if owner_u is None or owner_u != owner_v:
            return False
    for x, bset in sets.items():
        inner = [e for e in witness.forest_edges if e[0] in bset]
        if len(inner) != len(bset) - 1:
            return False
        sub = graph_from(bset, inner)
        if len(components(sub)) != 1:
            return False
    for a, b in model.edges:
        if not _sets_adjacent(G, sets[a], sets[b]):
            return False
    return True


def _sets_adjacent(G: Graph, A: frozenset[Vertex], B: frozenset[Vertex]) -> bool:
    for u in A:
        for w in G.neighbors(u):
            if w in B:
                return True
    return False


def _connected_masks(adj: list[int], nbrs: list[list[int]], allowed: int, max_size: int):
    """Every connected subset S of the vertex bitset ``allowed`` with at most
    ``max_size`` vertices, each once, as the bitset pair (S, N(S)), where
    N(S) is the union of the neighbourhoods ``adj`` of S's vertices and
    ``nbrs[v]`` lists v's neighbours in ascending bit order.

    Min-seed growth: the subsets whose least vertex is s come right after
    {s}, seeds ascending.  A subset grows by each of its frontier vertices
    in turn, depth first; the child's frontier is the rest of the parent's,
    then the new vertex's neighbours, ascending, that lie in ``avail``: the
    allowed vertices that are not below the seed, not in the subset, not on
    the frontier and not passed over earlier at this subset.  A child's
    ``avail`` is its parent's less the new vertex's neighbours.  The growth
    runs on an explicit stack of (S, N(S), frontier, avail, |S|) entries;
    the entry on top is the next subset's parent, its frontier starting at
    the vertex that subset adds.
    """
    rest = allowed
    while rest:
        seed = rest & -rest
        rest ^= seed
        s = seed.bit_length() - 1
        yield seed, adj[s]
        frontier = [w for w in nbrs[s] if rest >> w & 1]
        stack = [(seed, adj[s], frontier, rest & ~adj[s], 1)] if frontier and max_size > 1 else []
        while stack:
            S, N, frontier, avail, size = stack.pop()
            v = frontier[0]
            tail = frontier[1:]
            if tail:
                stack.append((S, N, tail, avail, size))
            S, N = S | 1 << v, N | adj[v]
            yield S, N
            if size + 1 < max_size:
                grown = tail + [w for w in nbrs[v] if avail >> w & 1]
                if grown:
                    stack.append((S, N, grown, avail & ~adj[v], size + 1))


def find_minor(G: Graph, M: Graph, host_bound: int = DEFAULT_HOST_BOUND) -> Optional[MinorWitness]:
    """Exact minor search: a witness if M is a minor of G, else None.

    Branch-and-bound over the model vertices in a fixed order; each is
    assigned a connected branch set disjoint from the earlier ones that
    touches the branch sets of its already-assigned model neighbours.  Host
    vertex ``G.vertices[i]`` is bit i, so bits follow ``vkey`` order; the
    free vertices, each branch set and its neighbourhood are ints, and "S
    touches T" is ``N(S) & T``.  Branch sets come from ``_connected_masks``,
    one generator on an explicit stack, in min-seed order.

    One cut skips branch sets that cannot succeed.  Once x's set is placed,
    every assigned model vertex z, x included, needs at least as many free
    neighbours of its branch set as z has model neighbours still to assign:
    each of those needs its own disjoint branch set touching z's.  For x
    this is the count of its own later neighbours; for an earlier z it
    catches an x whose set takes what z's later neighbours need.  No branch
    that could succeed is skipped, so the search finds the same first
    witness as without the cut.  Deterministic, so repeated runs return the
    same witness.
    """
    if G.n > host_bound:
        raise HostTooLarge(G.n, host_bound)
    if M.n > G.n or M.m > G.m:
        return None
    model_order = sorted(M.vertices, key=lambda x: (-M.degree(x), vkey(x)))
    level_of = {x: i for i, x in enumerate(model_order)}
    index = {v: i for i, v in enumerate(G.vertices)}
    nbrs = [[index[w] for w in G.neighbors(v)] for v in G.vertices]
    adj = [sum(1 << w for w in ns) for ns in nbrs]
    # per level: the levels of x's model neighbours assigned before it, and
    # (level j, count) for each assigned model vertex, x included, that has
    # count > 0 model neighbours still to assign after this level
    plan = []
    for level, x in enumerate(model_order):
        placed = [level_of[y] for y in M.neighbors(x) if level_of[y] < level]
        watch = []
        for j in range(level + 1):
            after = sum(level_of[y] > level for y in M.neighbors(model_order[j]))
            if after:
                watch.append((j, after))
        plan.append((placed, watch))
    sets = [0] * M.n        # branch set of the model vertex at each level
    touch = [0] * M.n       # its neighbourhood

    def backtrack(level: int, free: int) -> bool:
        if level == M.n:
            return True
        placed, watch = plan[level]
        budget = free.bit_count() - (M.n - level - 1)
        if budget < 1:
            return False
        for S, N in _connected_masks(adj, nbrs, free, budget):
            rest = free ^ S
            sets[level], touch[level] = S, N
            for j in placed:
                if not N & sets[j]:
                    break
            else:
                for j, after in watch:
                    if (touch[j] & rest).bit_count() < after:
                        break
                else:
                    if backtrack(level + 1, rest):
                        return True
        return False

    if not backtrack(0, (1 << G.n) - 1):
        return None
    assigned = {x: frozenset(v for i, v in enumerate(G.vertices) if S >> i & 1)
                for x, S in zip(model_order, sets)}
    forest = []
    for bset in assigned.values():
        sub = induced_subgraph(G, bset)
        forest.extend(spanning_forest(sub).edges)
    witness = MinorWitness(M, assigned, frozenset(forest))
    if not verify_minor(G, witness):
        raise InternalInvariantError("find_minor: the branch-set witness failed verify_minor")
    return witness
