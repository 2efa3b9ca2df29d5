"""Shared test helpers: independent oracles and instance generators.

Everything here deliberately avoids the library's own search code paths:
the minor oracle enumerates connected-set families directly, the bridge
oracle deletes edges and recounts components, and the abelian-subgroup
oracle walks the subgroup lattice.  The chain presentation (chain_delta,
with its tags and chain_witness_flow's greedy solve) is build_delta's and
witness_flow_from_kernel's former construction on the maximal abelian
subgroups; the commuting-pair presentation on all of G, with one modulus,
checks the theorem behind build_delta, and every_pair_form its central
reduction.  The pairwise relation rows are the chain presentation's former
construction, the unscaled presentation with
its order rows is the chain presentation's former, unscaled form,
the unpruned chain tags are its former tag set, with a chain for
every cyclic subgroup that two maximal abelian subgroups share, the
element-major chain tags are the order in which it absorbed its
chain rows before it took them pair by pair, the numpy greedy loop on G's
whole table with orders_modulo is abelian_basis' former construction, the
per-pair planarity loop is extra_planar's former construction, the
whole-system build and full Euler
check of every spliced embedding is extra_planar's former splice, and the
exhaustive associativity loop is the group constructor's former check, the
per-edge LR deletion loop is the Kuratowski extraction's former
construction, the two-dart chain walk with its side split and swap is
_subdivision_witness' former fold, and the unpruned backtracking over the recursive frozenset
enumerator ``_connected_subsets`` is find_minor's former search, the
sorted-dart face walk and per-component Euler count are the planar
module's former face routines, the neighbour scan is the former
tractability and excess check, the two-form solve is
chain_witness_flow's former solve, and the row-and-column
diagonalisation with its divisor-chain merge is
HowellForm.invariant_factors' former elimination, the dense-row
elimination is HowellForm's former row storage (it takes and returns
sparse vectors, converting them through dense_row) and its coefficient
tracking is HowellForm's former solve, the edge-by-edge
uncontraction chain is synthesize_leaking_flow's former construction, the
single-root leaf-first loop is solve_tree_flow's former solve, networkx's
check_planarity is the planar module's former LR test, the recursive
Bron-Kerbosch is _maximal_cliques' former search, the sorted-key search is
the permutation-group table's former lookup, the payload dict passed to
dumps is the extra-planar JSON's former writer, and the entry-by-entry
dihedral loop, the quaternion dictionary, the int64 gather of the direct
product, the coset dictionary of the central product, the separate
parity and cycle-name walks of a permutation and the EsElement bit law are
the group builders' former constructions, each kept here as its oracle.
The edge contractions and uncontract_flow that the uncontraction
chain runs, the subgroup closure behind the subgroup lattice, the
centralizer behind the self-centralizer check of the maximal abelian
subgroups, the rotation step next_neighbor and the face-walk bridge check
were library functions that only these oracles and the tests called.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass

import networkx as nx
import numpy as np

from groupflow import planar
from groupflow._lr import lr_planarity
from groupflow.errors import (
    EdgeMissing,
    GraphIsPlanar,
    GroupFlowError,
    InternalInvariantError,
    NotAbelian,
    NotInKernel,
    NotPlanarEmbedding,
    NotSubgraph,
    NotTractable,
    ParseError,
    _clip,
)
from groupflow.flows import (
    GroupFlow,
    LeakVerdict,
    _excesses,
    detect_leak,
    example_flow_k5,
    example_flow_k33,
    is_tractable,
)
from groupflow.graphs import (
    Graph,
    MinorWitness,
    _sets_adjacent,
    add_edge,
    components,
    edge_key,
    graph_from,
    induced_subgraph,
    named_graph,
    spanning_forest,
    verify_minor,
    vkey,
)
from groupflow.groups import (
    AbelianBasis,
    FiniteGroup,
    Subgroup,
    _bits,
    _right_closure,
    abelian_basis,
    designated_central_involution,
    discrete_log,
    maximal_abelian_subgroups,
)
from groupflow.howell import HowellForm, _egcd, _prime_powers, _unit_scale, invariant_factors
from groupflow.jsonio import dumps, rotation_to_json, vertex_str
from groupflow.planar import (
    ExtraPlanarVerdict,
    RotationSystem,
    _face_orbits,
    _subdivision_witness,
    euler_planar_check,
    extra_planar,
    test_planarity,
)


# -- graph generators ---------------------------------------------------------


def all_labeled_graphs(n: int):
    """Every labeled graph on vertices 1..n."""
    vertices = list(range(1, n + 1))
    pairs = list(itertools.combinations(vertices, 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield graph_from(vertices, edges)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    vertices = list(range(1, n + 1))
    edges = [e for e in itertools.combinations(vertices, 2) if rng.random() < p]
    return graph_from(vertices, edges)


def relabelled(rng: random.Random, g: Graph, label) -> Graph:
    """g with its vertices sent to ``label(i)`` for a random permutation i of
    0..n-1, so that label order and structure are unrelated."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    to = {v: label(i) for v, i in zip(g.vertices, perm)}
    return graph_from(to.values(), [(to[u], to[v]) for u, v in g.edges])


def random_connected_planar_graph(rng: random.Random, n: int, extra: int) -> Graph:
    """Random tree plus up to `extra` chords that keep the graph planar."""
    vertices = list(range(1, n + 1))
    edges = []
    for v in vertices[1:]:
        edges.append((rng.randint(1, v - 1), v))
    G = graph_from(vertices, edges)
    candidates = [e for e in itertools.combinations(vertices, 2)
                  if edge_key(*e) not in G.edges]
    rng.shuffle(candidates)
    added = 0
    for u, v in candidates:
        if added == extra:
            break
        candidate = add_edge(G, u, v)
        if isinstance(test_planarity(candidate), RotationSystem):
            G = candidate
            added += 1
    return G


def random_planar_graph_with_trees(rng: random.Random, n: int) -> Graph:
    """A planar graph on 1..n with one to three components, each a random
    planar core with a random tree hung off it: pendant bridges, cycle
    edges, and now and then an isolated vertex."""
    cuts = sorted(rng.sample(range(2, n + 1), rng.randint(0, 2)))
    edges = []
    for first, last in zip([1] + cuts, cuts + [n + 1]):
        core = rng.randint(1, last - first)
        H = random_connected_planar_graph(rng, core, 2 * core)
        edges += [(u + first - 1, v + first - 1) for u, v in H.edges]
        edges += [(rng.randrange(first, v), v) for v in range(first + core, last)]
    return graph_from(range(1, n + 1), edges)


def random_spanning_tree(rng: random.Random, G: Graph) -> Graph:
    """Uniform-ish spanning tree by randomized growth (G must be connected)."""
    start = rng.choice(G.vertices)
    seen = {start}
    edges = []
    frontier = [(start, w) for w in G.neighbors(start)]
    while frontier:
        i = rng.randrange(len(frontier))
        u, v = frontier.pop(i)
        if v in seen:
            continue
        seen.add(v)
        edges.append((u, v))
        frontier.extend((v, w) for w in G.neighbors(v) if w not in seen)
    return graph_from(G.vertices, edges)


# -- independent oracles --------------------------------------------------------


def is_forest(G: Graph) -> bool:
    return G.m == G.n - len(components(G))


def bridge_oracle(G: Graph) -> frozenset:
    """An edge is a bridge iff deleting it increases the component count."""
    base = len(components(G))
    out = set()
    for e in G.edges:
        H = Graph(G.vertices, G.edges - {e})
        if len(components(H)) > base:
            out.add(e)
    return frozenset(out)


def _connected_sets(G: Graph):
    vertices = list(G.vertices)
    for r in range(1, len(vertices) + 1):
        for sub in itertools.combinations(vertices, r):
            if len(components(induced_subgraph(G, sub))) == 1:
                yield frozenset(sub)


def minor_oracle(G: Graph, M: Graph) -> bool:
    """Brute-force minor test: search for pairwise-disjoint connected branch
    sets covering every model edge, assigning model vertices one at a time."""
    if M.n > G.n or M.m > G.m:
        return False
    candidate_sets = list(_connected_sets(G))
    model_order = sorted(M.vertices, key=lambda x: (-M.degree(x), vkey(x)))
    assigned: dict = {}

    def feasible(level: int, used: frozenset) -> bool:
        if level == len(model_order):
            return True
        x = model_order[level]
        required = [y for y in M.neighbors(x) if y in assigned]
        remaining = len(model_order) - level - 1
        for bset in candidate_sets:
            if bset & used or len(used) + len(bset) + remaining > G.n:
                continue
            if all(_adjacent(G, bset, assigned[y]) for y in required):
                assigned[x] = bset
                if feasible(level + 1, used | bset):
                    return True
                del assigned[x]
        return False

    return feasible(0, frozenset())


def _adjacent(G: Graph, A: frozenset, B: frozenset) -> bool:
    return any(w in B for u in A for w in G.neighbors(u))


def centralizer(G: FiniteGroup, elements) -> Subgroup:
    """All g commuting with every element of the given set: the
    self-centralizer oracle of the maximal abelian subgroups."""
    mask = np.ones(G.order, dtype=bool)
    for s in elements:
        mask &= G.table[:, s] == G.table[s, :]
    return Subgroup(G, tuple(int(i) for i in np.nonzero(mask)[0]))


def closure(G: FiniteGroup, gens) -> Subgroup:
    """The subgroup generated by gens."""
    reached = np.zeros(G.order, dtype=bool)
    reached[G.identity] = True
    _right_closure(G.table, reached, [int(g) for g in gens])
    return Subgroup(G, tuple(np.nonzero(reached)[0].tolist()))


def abelian_subgroup_lattice(G: FiniteGroup) -> set:
    """All abelian subgroups, by closure walks from singletons upward."""
    found: set[tuple[int, ...]] = set()
    frontier = []
    for g in G.elements():
        sub = closure(G, [g])
        if sub.is_abelian and sub.members not in found:
            found.add(sub.members)
            frontier.append(sub)
    while frontier:
        sub = frontier.pop()
        for g in G.elements():
            if g in sub:
                continue
            bigger = closure(G, list(sub.members) + [g])
            if bigger.is_abelian and bigger.members not in found:
                found.add(bigger.members)
                frontier.append(Subgroup(G, bigger.members))
    return found


def maximal_abelian_oracle(G: FiniteGroup) -> set:
    """Maximal elements of the abelian subgroup lattice."""
    subs = abelian_subgroup_lattice(G)
    out = set()
    for members in subs:
        mset = set(members)
        if not any(mset < set(other) for other in subs):
            out.add(members)
    return out


def maximal_cliques_by_recursion(neigh: list, n: int) -> list:
    """Bron-Kerbosch with pivoting on bitset adjacency, one Python call per
    clique member; returns clique bitsets in discovery order."""
    out = []

    def bits(x: int):
        while x:
            b = x & -x
            yield b.bit_length() - 1
            x ^= b

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot = max(bits(p | x), key=lambda u: (p & neigh[u]).bit_count())
        candidates = p & ~neigh[pivot]
        for v in bits(candidates):
            bit = 1 << v
            expand(r | bit, p & neigh[v], x & neigh[v])
            p &= ~bit
            x |= bit

    expand(0, (1 << n) - 1, 0)
    return out


def perm_table_by_searchsorted(n: int, even_only: bool) -> np.ndarray:
    """The Cayley table of sym:n (alt:n when even_only), each composed
    permutation located by a binary search over the sorted base-n keys."""
    perms = [p for p in itertools.permutations(range(n))
             if not (even_only and perm_parity(p) != 0)]
    P = np.array(perms, dtype=np.int64)
    powers = np.array([n ** (n - 1 - k) for k in range(n)], dtype=np.int64)
    keys = P @ powers
    sorted_idx = np.argsort(keys)
    sorted_keys = keys[sorted_idx]
    m = len(perms)
    table = np.zeros((m, m), dtype=np.int32)
    for a in range(m):
        ck = P[a][P] @ powers
        table[a] = sorted_idx[np.searchsorted(sorted_keys, ck)]
    return table


def perm_parity(perm) -> int:
    seen = set()
    parity = 0
    for start in range(len(perm)):
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def perm_cycle_name(perm) -> str:
    seen: set = set()
    parts = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        x = perm[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = perm[x]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "1"


def perm_names_by_cycle_walk(n: int, even_only: bool) -> list:
    """The element names of sym:n (alt:n when even_only), in table order."""
    return [perm_cycle_name(p) for p in itertools.permutations(range(n))
            if not (even_only and perm_parity(p) != 0)]


def dihedral_by_loop(n: int) -> FiniteGroup:
    """Dihedral group with n rotations (order 2n); r^n = s^2 = 1, srs = r^-1."""
    order = 2 * n
    table = np.zeros((order, order), dtype=np.int32)
    for i1, j1, i2, j2 in itertools.product(range(n), (0, 1), range(n), (0, 1)):
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        j = j1 ^ j2
        table[i1 + n * j1, i2 + n * j2] = i + n * j
    names = []
    for j in (0, 1):
        for i in range(n):
            word = []
            if i == 1:
                word.append("r")
            elif i > 1:
                word.append(f"r{i}")
            if j:
                word.append("s")
            names.append("*".join(word) if word else "1")
    return FiniteGroup(table, names, spec=f"dihedral:{n}")


def quaternion_by_dictionary() -> FiniteGroup:
    # elements (sign, axis) with axis in 1,i,j,k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mul_axis = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }

    def split(nm):
        return (-1, nm[1:]) if nm.startswith("-") else (1, nm)

    def join(sign, axis):
        nm = axis if sign == 1 else "-" + axis
        return names.index(nm)

    table = np.zeros((8, 8), dtype=np.int32)
    for a, b in itertools.product(range(8), repeat=2):
        s1, x1 = split(names[a])
        s2, x2 = split(names[b])
        s3, x3 = mul_axis[(x1, x2)]
        table[a, b] = join(s1 * s2 * s3, x3)
    return FiniteGroup(table, names, spec="quaternion")


def direct_product_by_int64(A: FiniteGroup, B: FiniteGroup, spec) -> FiniteGroup:
    """A x B with (a, b) at index a * |B| + b, its table gathered through
    int64 intermediates."""
    nb = B.order
    ia, ib = divmod(np.arange(A.order * nb), nb)
    table = A.table[np.ix_(ia, ia)].astype(np.int64) * nb + B.table[np.ix_(ib, ib)]
    names = [f"({A.names[a]},{B.names[b]})" for a in range(A.order) for b in range(nb)]
    return FiniteGroup(table, names, spec=spec)


def central_product_by_cosets(A: FiniteGroup, B: FiniteGroup, spec: str) -> FiniteGroup:
    """A x B modulo (za, zb), each coset named by its least member."""
    za = designated_central_involution(A)
    zb = designated_central_involution(B)
    order = A.order * B.order // 2
    prod = direct_product_by_int64(A, B, spec=None)
    zz = za * B.order + zb
    rep = {}
    reps = []
    for x in range(prod.order):
        if x in rep:
            continue
        y = prod.mul(x, zz)
        r = min(x, y)
        rep[x] = r
        rep[y] = r
        reps.append(r)
    reps.sort()
    pos = {r: i for i, r in enumerate(reps)}
    table = np.zeros((order, order), dtype=np.int32)
    for i, x in enumerate(reps):
        row = prod.table[x, reps]
        table[i] = [pos[rep[int(y)]] for y in row]
    names = [prod.names[r] for r in reps]
    return FiniteGroup(table, names, spec=spec)


@dataclass(frozen=True)
class EsElement:
    """Element of es:n as bits: eps for the central z, u and v as bitmasks."""

    eps: int
    u: int
    v: int

    def mul(self, other: "EsElement") -> "EsElement":
        eps = self.eps ^ other.eps ^ ((self.v & other.u).bit_count() & 1)
        return EsElement(eps, self.u ^ other.u, self.v ^ other.v)


def es_decode(n: int, idx: int) -> EsElement:
    mask = (1 << n) - 1
    return EsElement(idx & 1, (idx >> 1) & mask, (idx >> (n + 1)) & mask)


def es_by_element_law(n: int):
    """The table and names of es:n from EsElement.mul, element by element."""
    order = 1 << (2 * n + 1)
    elements = [es_decode(n, i) for i in range(order)]
    table = [[(c.eps | c.u << 1 | c.v << (n + 1)) for c in (a.mul(b) for b in elements)]
             for a in elements]
    names = []
    for e in elements:
        parts = ["z"] if e.eps else []
        parts += [f"x{i + 1}" for i in range(n) if (e.u >> i) & 1]
        parts += [f"x{n + i + 1}" for i in range(n) if (e.v >> i) & 1]
        names.append("*".join(parts) if parts else "1")
    return np.array(table), names


def extra_planar_text_by_payload(embeddings: dict) -> str:
    """The extra-planar CLI's JSON for a positive verdict: the payload dict,
    pairs in canonical order, written by ``dumps``."""
    payload = {
        "extra_planar": True,
        "embeddings": [
            {"pair": [vertex_str(u), vertex_str(v)], **rotation_to_json(R)}
            for (u, v), R in sorted(embeddings.items(),
                                    key=lambda kv: (vkey(kv[0][0]), vkey(kv[0][1])))
        ],
    }
    return dumps(payload)


def associative_by_exhaustion(T) -> bool:
    """(a g) b == a (g b) for every triple of a square table, one g at a time."""
    T = np.asarray(T)
    return all(np.array_equal(T[T[:, g], :], T[:, T[g, :]]) for g in range(len(T)))


def light_mismatch_by_full_arrays(T, e: int):
    """The (a, g, b) that Light's test on whole order-squared arrays reports
    for table T with identity e: the first row-major mismatch of
    (a g) b against a (g b) for the first greedy generator g that has one;
    None when every generator passes."""
    T = np.asarray(T)
    reached = np.zeros(len(T), dtype=bool)
    reached[e] = True
    gens: list = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        _right_closure(T, reached, gens)
    for g in gens:
        lhs, rhs = T[T[:, g], :], T[:, T[g, :]]
        if not np.array_equal(lhs, rhs):
            a, b = np.argwhere(lhs != rhs)[0]
            return int(a), g, int(b)
    return None


def dense_row(row: dict, ncols: int) -> np.ndarray:
    """The dense int64 vector of a sparse row {column: value}."""
    out = np.zeros(ncols, dtype=np.int64)
    out[list(row)] = list(row.values())
    return out


def _group_label(G: FiniteGroup) -> str:
    return "a table group" if G.spec is None else _clip(G.spec)


@dataclass(frozen=True)
class ChainDelta:
    """build_delta's former presentation of Delta, glued from the maximal
    abelian subgroups of G: one block of coordinates per subgroup basis,
    column c of order d_c, and chain rows identifying the discrete logs of
    each cyclic subgroup's least-index generator g in the subgroups
    i_1 < i_2 < ... that contain it, as dlog_(i_k)(g) - dlog_(i_(k+1))(g).
    Coordinates are scaled by psi(e_c) = (m / d_c) e_c, so there are no
    order rows.  ``home[g]`` is the first subgroup containing g, and
    ``pair_rows`` tags each chain row ((i, j), g), sorted by (j, i) and then
    by g, the order in which ``canonical`` absorbs them."""

    group: FiniteGroup
    subgroups: tuple
    bases: tuple
    offsets: tuple
    home: tuple
    orders: tuple
    modulus: int
    canonical: HowellForm
    pair_rows: tuple

    @property
    def ncols(self) -> int:
        return len(self.orders)

    def embed(self, gamma: int, subgroup_index=None) -> dict:
        """gamma's scaled coordinate vector {column: a_c * m / d_c}, read from
        its discrete log a in one subgroup (by default the first that
        contains it)."""
        i = self.home[gamma] if subgroup_index is None else subgroup_index
        offset, m, basis = self.offsets[i], self.modulus, self.bases[i]
        return {offset + t: a * (m // d)
                for t, (a, d) in enumerate(zip(discrete_log(basis, gamma), basis.orders)) if a}

    def relation_row(self, tag) -> dict:
        """embed(g, i) - embed(g, j) for the tag ((i, j), g)."""
        (i, j), g = tag
        m = self.modulus
        row = self.embed(g, i)          # blocks i and j are disjoint
        row.update((col, m - a) for col, a in self.embed(g, j).items())
        return row

    def relation_rows(self):
        for tag in self.pair_rows:
            yield self.relation_row(tag), tag

    def invariant_factors(self) -> list:
        m, orders = self.modulus, self.orders
        rows = [{c: a // (m // orders[c]) for c, a in q.items()}
                for q in self.canonical.pivot_rows()]
        order = math.prod(orders) * self.canonical.quotient_order() // m ** self.ncols
        return invariant_factors(orders, rows, order)


def chain_tags(G: FiniteGroup, subgroups, containing) -> list:
    """Tags ((i_k, i_(k+1)), g) for the least-index generator g of each
    cyclic subgroup over the subgroups that contain g (``containing[g]``),
    less the chains the lattice already has, stably sorted by pair (j, i).
    g's chain is skipped when g lies in the subgroup generated by the
    elements h of I_g, the intersection of the subgroups containing g, that
    lie outside <g> and generate an earlier cyclic subgroup."""
    member_bits = [sum(1 << h for h in H.members) for H in subgroups]
    seen = {1 << G.identity}            # the cyclic subgroups taken so far, as bitsets
    taken = 0                           # their generators, <g>'s included (~cyclic drops them)
    tags = []
    for g, chain in enumerate(containing):
        if len(chain) < 2:              # no chain, and g lies in no I_h with a chain
            continue
        powers = [g]
        while powers[-1] != G.identity:
            powers.append(G.mul(powers[-1], g))
        cyclic = sum(1 << x for x in powers)
        if cyclic in seen:
            continue
        seen.add(cyclic)
        taken |= sum(1 << x for k, x in enumerate(powers, 1) if math.gcd(k, len(powers)) == 1)
        inside = functools.reduce(operator.and_, (member_bits[i] for i in chain))
        if _generated(G.table, G.identity, inside & taken & ~cyclic, g):
            continue
        tags.extend(((a, b), g) for a, b in zip(chain, chain[1:]))
    tags.sort(key=lambda tag: (tag[0][1], tag[0][0]))
    return tags


def _generated(T: np.ndarray, identity: int, gens: int, g: int) -> bool:
    """Whether g lies in the subgroup generated by the elements of the
    bitset ``gens``, which commute: the subgroup grows by one coset of
    itself at a time, h^t times it, for each generator h not yet in it."""
    reached = np.zeros(len(T), dtype=bool)
    reached[identity] = True
    members = np.array([identity])          # the identity first, so coset[0] is h^t
    for h in _bits(gens):
        if reached[h]:
            continue
        cosets = [T[h, members]]
        while not reached[cosets[-1][0]]:
            reached[cosets[-1]] = True
            cosets.append(T[h, cosets[-1]])
        if reached[g]:
            return True
        members = np.concatenate([members] + cosets[:-1])
    return False


def chain_delta(G: FiniteGroup) -> ChainDelta:
    """build_delta's former construction: the chain presentation of Delta."""
    subgroups = maximal_abelian_subgroups(G)
    containing = [[] for _ in G.elements()]
    for i, H in enumerate(subgroups):
        for h in H.members:
            containing[h].append(i)
    for g, chain in enumerate(containing):
        if not chain:
            raise InternalInvariantError(
                f"build_delta: element {_clip(G.name(g))} of {_group_label(G)} lies in no "
                "maximal abelian subgroup")
    bases = tuple(abelian_basis(H) for H in subgroups)
    offsets = tuple(itertools.accumulate((len(basis.gens) for basis in bases), initial=0))
    orders = tuple(d for basis in bases for d in basis.orders)
    modulus = math.lcm(*orders) if orders else 1
    D = ChainDelta(
        group=G,
        subgroups=subgroups,
        bases=bases,
        offsets=offsets,
        home=tuple(chain[0] for chain in containing),
        orders=orders,
        modulus=modulus,
        canonical=HowellForm(offsets[-1], modulus),
        pair_rows=tuple(chain_tags(G, subgroups, containing)),
    )
    for row, _tag in D.relation_rows():
        D.canonical.add_row(row)
    return D


def chain_witness_flow(D: ChainDelta, gamma: int):
    """witness_flow_from_kernel's former flow: on a graph over the maximal
    abelian subgroups, vertex i + 1 for subgroup i, with one edge per
    subgroup pair that carries a value.  A solution of the chain rows
    expressing gamma's vector (``_greedy_solve``) is folded, pair by pair,
    into one group element per subgroup pair; the flow leaks gamma at
    gamma's home subgroup, which detect_leak re-certifies."""
    G = D.group
    if gamma == G.identity:
        raise NotInKernel("the identity is not a leak witness")
    target = D.embed(gamma)
    if not D.canonical.contains(target):
        raise NotInKernel("phi(gamma) is nonzero")
    coeffs, tags = _greedy_solve(D, gamma, target)
    acc = {}
    for k in sorted(coeffs):
        pair, g = tags[k]
        acc[pair] = G.mul(acc.get(pair, G.identity), G.power(g, coeffs[k]))
    values = {}
    for (i, j), a in acc.items():
        if a != G.identity:
            # coordinate block i receives +a, block j receives -a
            values[(j + 1, i + 1)] = a
            values[(i + 1, j + 1)] = G.inv(a)
    graph = graph_from(range(1, len(D.subgroups) + 1), values)
    flow = GroupFlow(graph, G, values)
    verdict = detect_leak(flow)
    if (verdict.kind != LeakVerdict.LEAKS_AT or verdict.vertex != D.home[gamma] + 1
            or verdict.value != gamma):
        raise InternalInvariantError(
            f"witness_flow_from_kernel: the flow for {_clip(G.name(gamma))} in "
            f"{_group_label(G)} failed re-certification")
    return graph, flow


def _greedy_solve(D: ChainDelta, gamma: int, target: dict):
    """Coefficients {row: c} of the target over the chain rows of the
    smallest prefix family of subgroups (gamma's first, then by decreasing
    overlap with it) that expresses it, and the rows' tags.  A row is built
    when absorbed, labelled by its place; ``left``, congruent to the target
    modulo the rows so far, is reduced after each step that adds rows, and
    once it is zero the target's labels give the coefficients."""
    igamma = D.home[gamma]
    Hg = D.subgroups[igamma]._member_set
    rest = [i for i in range(len(D.subgroups)) if i != igamma]
    rest.sort(key=lambda i: (-len(D.subgroups[i]._member_set & Hg), i))
    rank = {i: r for r, i in enumerate([igamma] + rest)}
    steps = [[] for _ in rank]
    for (i, j), run in itertools.groupby(D.pair_rows, key=operator.itemgetter(0)):
        a, b = sorted((rank[i], rank[j]))
        steps[b].append((a, list(run)))
    n = D.ncols
    form = HowellForm(n, D.modulus, labels=len(D.pair_rows))
    tags = []
    left = target
    for step in steps:
        if not step:
            continue
        step.sort(key=operator.itemgetter(0))
        for _rank, run in step:
            for tag in run:
                row = D.relation_row(tag)
                row[n + len(tags)] = 1
                form.add_row(row)
                tags.append(tag)
        left = {j: a for j, a in form.reduce(left).items() if j < n}
        if not left:
            return form.solve(target), tags
    G = D.group
    raise InternalInvariantError(
        f"witness_flow_from_kernel: the relation rows of {_group_label(G)} do not express "
        f"{_clip(G.name(gamma))}, a kernel member")


def phi_fibres(G: FiniteGroup, image) -> list:
    """The fibres of image, a map from G's elements to hashable values, as
    sorted lists of elements, sorted."""
    fibres = {}
    for g in G.elements():
        fibres.setdefault(image(g), []).append(g)
    return sorted(fibres.values())


def commuting_pair_fibres(G: FiniteGroup) -> list:
    """The phi-fibres of Delta presented on all of G at once, with one
    modulus: one column e_g per element, modulo the exponent m of G, and the
    row e_(gh) - e_g - e_h for every commuting pair g <= h.  Delta has
    exponent dividing m, since m[g] = [g^m] = [1] = 0, so these rows over
    Z/m present it, and g maps to the reduction of e_g.  No p-parts, cyclic
    columns or reductions of the rows are used."""
    m = int(np.lcm.reduce(G.element_orders()))
    form = HowellForm(G.order, m)
    for g, h in itertools.combinations_with_replacement(G.elements(), 2):
        if G.commutes(g, h):
            row = {}
            for x, a in ((G.mul(g, h), 1), (g, -1), (h, -1)):
                row[x] = row.get(x, 0) + a
            form.add_row(row)
    return phi_fibres(G, lambda g: tuple(sorted(form.reduce({g: 1}).items())))


def every_pair_form(D) -> HowellForm:
    """The Howell form of D's power rows and of R(g, y) for every column
    generator g and every p-element y in C(g) outside <g>, p the prime of
    g's order: build_delta's rows without the central reduction."""
    G = D.group
    orders = G.element_orders()
    form = HowellForm(D.ncols, D.modulus)
    for g, d in zip(D.generators, D.orders):
        (p, _k), = _prime_powers(d)
        cyclic = {G.power(g, k) for k in range(d)}
        if d > p:
            form.add_row(D.relation_row((g, G.power(g, p - 1))))
        for y in G.elements():
            if (y not in cyclic and G.commutes(g, y)
                    and [q for q, _ in _prime_powers(int(orders[y]))] == [p]):
                form.add_row(D.relation_row((g, y)))
    return form


def column_orders(D) -> list:
    """The order d_c of each coordinate column of D: its basis generator's."""
    return [d for basis in D.bases for d in basis.orders]


def psi(D, row: dict) -> dict:
    """The scaled image of an unscaled vector: entry c times m / d_c, mod m."""
    m, orders = D.modulus, column_orders(D)
    return {c: a * (m // orders[c]) % m for c, a in row.items() if a * (m // orders[c]) % m}


class UnscaledDelta(ChainDelta):
    """The chain presentation in its former, unscaled coordinates.
    ``embed`` gives the discrete logs themselves; ``relation_rows`` gives the
    order row {c: d_c mod m} of each column (tag None; empty when d_c is
    m) before the chain rows; ``canonical`` is the Howell form of all of
    them, and the invariant factors are its own."""

    def embed(self, gamma: int, subgroup_index=None) -> dict:
        i = self.home[gamma] if subgroup_index is None else subgroup_index
        offset = self.offsets[i]
        return {offset + t: a for t, a in enumerate(discrete_log(self.bases[i], gamma)) if a}

    def relation_rows(self):
        m = self.modulus
        for col, d in enumerate(column_orders(self)):
            yield ({col: d % m} if d % m else {}), None
        yield from super().relation_rows()

    def invariant_factors(self) -> list:
        return form_invariant_factors(self.canonical)


def unscaled_delta(D) -> UnscaledDelta:
    """D's glued group presented as the chain presentation was before it
    scaled its coordinates and pruned its chains: the same subgroups and
    bases, the unpruned chain tags, and a Howell form of the order rows and
    the unscaled chain rows."""
    fields = {f.name: getattr(D, f.name) for f in dataclasses.fields(D)}
    U = UnscaledDelta(**{**fields, "canonical": HowellForm(D.ncols, D.modulus),
                         "pair_rows": tuple(unpruned_chain_tags(D.group, D.subgroups))})
    for row, _tag in U.relation_rows():
        U.canonical.add_row(row)
    return U


def pairwise_relation_rows(D) -> list:
    """Relation rows of D's glued group built pair by pair, in D's own
    coordinates: D's order rows (an UnscaledDelta has them, a ChainDelta
    has none), then embed(g, i) - embed(g, j) for each
    basis generator g of every nontrivial intersection of two maximal
    abelian subgroups i < j.  Returns sparse (row, tag) pairs tagged like
    ``D.relation_rows``."""
    rows = [(row, tag) for row, tag in D.relation_rows() if tag is None]
    for i, j in itertools.combinations(range(len(D.subgroups)), 2):
        inter = Subgroup(D.group, tuple(set(D.subgroups[i].members) & set(D.subgroups[j].members)))
        if inter.order <= 1:
            continue
        for g in abelian_basis(inter).gens:
            row = dense_row(D.embed(g, i), D.ncols) - dense_row(D.embed(g, j), D.ncols)
            rows.append((dict(enumerate(row.tolist())), ((i, j), g)))
    return rows


def unpruned_chain_tags(G: FiniteGroup, subgroups) -> list:
    """The chain tags ((i_k, i_{k+1}), g) of the least-index generator g of
    every cyclic subgroup, over the subgroups i_1 < i_2 < ... that contain
    g, sorted by pair (j, i): ``groupleak._chain_tags`` before it skipped
    the chains the lattice already has."""
    containing = [[] for _ in G.elements()]
    for i, H in enumerate(subgroups):
        for h in H.members:
            containing[h].append(i)
    seen = {frozenset([G.identity])}
    tags = []
    for g in G.elements():
        powers = [g]
        while powers[-1] != G.identity:
            powers.append(G.mul(powers[-1], g))
        cyclic = frozenset(powers)
        if cyclic in seen:
            continue
        seen.add(cyclic)
        chain = containing[g]
        tags.extend(((a, b), g) for a, b in zip(chain, chain[1:]))
    tags.sort(key=lambda tag: (tag[0][1], tag[0][0]))
    return tags


def chain_tags_element_major(D) -> list:
    """D's chain tags in element order, each generator's whole chain before
    the next generator's: the order in which the chain presentation
    absorbed them before it took them pair by pair."""
    return sorted(D.pair_rows, key=lambda tag: (tag[1], tag[0]))


def orders_modulo(T: np.ndarray, members: np.ndarray, in_K: np.ndarray) -> np.ndarray:
    """Order of each member modulo a subgroup K given as a mask: the least
    k >= 1 with h^k in K, by one table lookup per power of each member whose
    order is still unknown."""
    f = np.zeros(members.size, dtype=np.int64)
    todo = np.arange(members.size)
    cur, k = members, 1
    while todo.size:
        hit = in_K[cur]
        f[todo[hit]] = k
        todo, cur = todo[~hit], cur[~hit]
        cur, k = T[cur, members[todo]], k + 1
    return f


def abelian_basis_by_numpy(H: Subgroup) -> AbelianBasis:
    """abelian_basis' former loop: the same greedy rule and checks, run on
    G's whole table with numpy arrays indexed by G's elements."""
    if not H.is_abelian:
        raise NotAbelian(f"subgroup of order {H.order} is not abelian")
    G = H.parent
    T = G.table
    members = np.array(H.members)
    elems = np.array([G.identity])
    pos = np.full(G.order, -1)
    pos[G.identity] = 0
    gens, orders = [], []
    f = G.element_orders()[members]
    while elems.size < members.size:
        i = int(np.argmax(f))
        x, fx = int(members[i]), int(f[i])
        a = [int(aj) for aj in np.unravel_index(pos[G.power(x, fx)], orders[::-1])]
        if any(aj % fx for aj in a):
            raise InternalInvariantError(
                f"abelian basis: x^{fx} has exponents {a} not divisible by {fx}")
        for g, aj in zip(gens[::-1], a):
            x = G.mul(x, G.power(g, -(aj // fx)))
        powers = np.array([G.power(x, t) for t in range(fx)])
        elems = T[powers[:, None], elems[None, :]].ravel()
        rows = np.arange(elems.size)
        pos[elems] = rows
        if (pos[elems] != rows).any():
            raise InternalInvariantError("basis enumeration is not injective")
        gens.append(x)
        orders.append(fx)
        f = orders_modulo(T, members, pos >= 0)
    if elems.size != members.size or (pos[members] < 0).any():
        raise InternalInvariantError("basis does not enumerate the subgroup")
    digits = np.indices(orders[::-1]).reshape(len(orders), elems.size)
    dlog = dict(zip(elems.tolist(), map(tuple, digits.T.tolist())))
    return AbelianBasis(tuple(gens[::-1]), tuple(orders[::-1]), dlog)


def extra_planar_by_lr(G: Graph) -> ExtraPlanarVerdict:
    """Extra-planarity with one full planarity test of G + uv for every
    non-adjacent pair, in canonical pair order."""
    vs = G.vertices
    pairs = [(vs[i], vs[j]) for i in range(len(vs)) for j in range(i + 1, len(vs))]
    base = test_planarity(G)
    if isinstance(base, MinorWitness):
        return ExtraPlanarVerdict(False, pair=pairs[0], witness=base)
    embeddings = {}
    for pair in pairs:
        if G.has_edge(*pair):
            embeddings[pair] = base
            continue
        result = test_planarity(add_edge(G, *pair))
        if isinstance(result, MinorWitness):
            return ExtraPlanarVerdict(False, pair=pair, witness=result)
        embeddings[pair] = result
    return ExtraPlanarVerdict(True, embeddings=embeddings)


def splice_by_full_check(H: Graph, R: RotationSystem, pair, at) -> RotationSystem:
    """extra_planar's former splice: the embedding R of G with the edge
    uv = ``pair`` of H added at the corners ``at`` (None for an endpoint
    without edges), built as a whole RotationSystem and Euler-checked in
    full."""
    rotation = dict(R.rotation)
    for w, other, x in ((pair[0], pair[1], at[0]), (pair[1], pair[0], at[1])):
        order = R.rotation[w]
        i = 0 if x is None else order.index(x) + 1
        rotation[w] = order[:i] + (other,) + order[i:]
    spliced = RotationSystem(H, rotation)
    if not euler_planar_check(spliced):
        raise InternalInvariantError(
            f"extra_planar splice: embedding of G plus {pair!r} failed the Euler check")
    return spliced


def count_planarity_tests(monkeypatch) -> list:
    """The adjacency of each graph that the LR test embeds, in call order."""
    calls = []
    original = planar.lr_planarity

    def counted(adj, embed=False):
        if embed:
            calls.append(adj)
        return original(adj, embed)
    monkeypatch.setattr(planar, "lr_planarity", counted)
    return calls


def splices_checked_by_full_oracle(monkeypatch) -> list:
    """Make every splice also run ``splice_by_full_check`` on the same pool
    embedding and corners, and assert the same rotation system.  The
    oracle's is built by ``RotationSystem(H, rotation)`` and passes a full
    ``euler_planar_check``, so an equal certificate rebuilds to itself and
    passes too.  Returns the list of spliced pairs."""
    spliced = []
    original = planar._splice

    def checked(G, entry, pair, at, n, k):
        R = original(G, entry, pair, at, n, k)
        assert R == splice_by_full_check(add_edge(G, *pair), entry.R, pair, at), (G, pair, at)
        spliced.append(pair)
        return R
    monkeypatch.setattr(planar, "_splice", checked)
    return spliced


def lr_tested_pairs_match_lr(monkeypatch, graphs) -> tuple[int, list[bool]]:
    """On each extra-planar graph G, every pair uv whose G + uv extra_planar
    sends to the LR test gets exactly the rotation system
    RotationSystem(H, lr_planarity(H.adjacency, embed=True)) of H = G + uv.
    Returns how many such pairs the graphs had, and each graph's
    extra-planar verdict in order."""
    calls = count_planarity_tests(monkeypatch)
    tested, verdicts = 0, []
    for g in graphs:
        calls.clear()
        verdict = extra_planar(g)
        verdicts.append(verdict.extra_planar)
        if not verdict.extra_planar:
            continue
        assert calls[0] == g.adjacency
        for adj in calls[1:]:
            pair = next(edge_key(u, v) for u in adj for v in adj[u] if not g.has_edge(u, v))
            H = add_edge(g, *pair)
            assert adj == H.adjacency
            expected = RotationSystem(H, lr_planarity(H.adjacency, embed=True))
            assert verdict.embeddings[pair] == expected, (g, pair)
        tested += len(calls) - 1
    return tested, verdicts


def nx_is_planar(G) -> bool:
    """networkx's LR planarity verdict for a Graph (its edges added in
    sorted order) or an adjacency mapping."""
    if isinstance(G, Graph):
        H = nx.Graph()
        H.add_nodes_from(G.vertices)
        H.add_edges_from(G.sorted_edges())
    else:
        H = nx.Graph(G)
    return nx.check_planarity(H, counterexample=False)[0]


def kuratowski_by_lr(G: Graph) -> MinorWitness:
    """The Kuratowski witness of a non-planar G with one full LR test of the
    current edge set per edge, deleting each edge (in sorted order) whose
    removal leaves the graph non-planar."""
    edges = set(G.edges)
    for e in G.sorted_edges():
        trial = Graph(G.vertices, frozenset(edges - {e}))
        if not nx_is_planar(trial):
            edges.remove(e)
    return _subdivision_witness(G, edges)


def former_subdivision_witness(G: Graph, edges: set) -> MinorWitness:
    """_subdivision_witness' former fold: every chain is walked from a branch
    vertex with both of its end darts marked, its interior goes to the
    endpoint lower by ``vkey``, and K3,3's sides are split by adjacency to
    the first branch vertex, sorted, and swapped if the second starts lower."""
    core = graph_from({v for e in edges for v in e}, edges)
    branch = [v for v in core.vertices if core.degree(v) >= 3]
    degs = sorted(core.degree(v) for v in branch)
    if degs == [4] * 5:
        model = named_graph("complete:5")
    elif degs == [3] * 6:
        model = named_graph("complete_bipartite:3,3")
    else:
        raise InternalInvariantError(f"unexpected subdivision degrees {degs}")
    branch_set = {b: {b} for b in branch}
    forest, model_edges, seen_darts = set(), set(), set()
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


def _connected_subsets(G: Graph, allowed: frozenset, max_size: int):
    """All connected subsets of `allowed` with at most max_size vertices,
    each yielded once (min-seed growth, one recursive generator per level)."""
    order = sorted(allowed, key=vkey)
    pos = {v: i for i, v in enumerate(order)}

    def grow(current: frozenset, frontier: list, banned: frozenset):
        yield current
        if len(current) == max_size:
            return
        local_banned = banned
        for i, v in enumerate(frontier):
            new_frontier = frontier[i + 1:] + [
                w for w in G.neighbors(v)
                if w in allowed and w not in current and w not in local_banned
                and w not in frontier
            ]
            yield from grow(current | {v}, new_frontier, local_banned)
            local_banned = local_banned | {v}

    for seed in order:
        later = frozenset(v for v in allowed if pos[v] > pos[seed])
        frontier = [w for w in G.neighbors(seed) if w in later]
        banned = frozenset(v for v in allowed if pos[v] < pos[seed])
        yield from grow(frozenset([seed]), frontier, banned)


def find_minor_unpruned(G: Graph, M: Graph):
    """find_minor's backtracking on frozensets, with neither of its cuts on
    the free neighbours of branch sets: a witness if M is a minor of G,
    else None."""
    if M.n > G.n or M.m > G.m:
        return None
    model_order = sorted(M.vertices, key=lambda x: (-M.degree(x), vkey(x)))
    assigned: dict = {}

    def backtrack(level: int, free: frozenset) -> bool:
        if level == len(model_order):
            return True
        x = model_order[level]
        required = [y for y in M.neighbors(x) if y in assigned]
        budget = len(free) - (len(model_order) - level - 1)
        if budget < 1:
            return False
        for bset in _connected_subsets(G, free, budget):
            if all(_sets_adjacent(G, bset, assigned[y]) for y in required):
                assigned[x] = bset
                if backtrack(level + 1, free - bset):
                    return True
                del assigned[x]
        return False

    if not backtrack(0, frozenset(G.vertices)):
        return None
    forest = []
    for bset in assigned.values():
        forest.extend(spanning_forest(induced_subgraph(G, bset)).edges)
    return MinorWitness(M, dict(assigned), frozenset(forest))


def next_neighbor(R: RotationSystem, v, u):
    """The neighbour that follows u in v's rotation."""
    order = R.rotation[v]
    return order[(order.index(u) + 1) % len(order)]


def walk_bridge_check(R: RotationSystem, walk: tuple) -> list:
    """Edges traversed in both directions within a single face walk, a
    closed vertex tuple as ``faces`` returns it.

    In a planar embedding these are exactly bridges; that containment is
    asserted before returning.
    """
    if not euler_planar_check(R):
        raise NotPlanarEmbedding("rotation system fails the Euler criterion")
    darts = list(zip(walk, walk[1:]))
    dart_set = set(darts)
    if not any(set(orbit) == dart_set for orbit in _face_orbits(R)):
        raise ParseError("walk is not a face of this rotation system")
    found = sorted(
        {edge_key(u, v) for (u, v) in darts if (v, u) in dart_set},
        key=lambda e: (vkey(e[0]), vkey(e[1])),
    )
    graph_bridges = bridge_oracle(R.graph)
    for e in found:
        if e not in graph_bridges:
            raise InternalInvariantError(f"doubled walk edge {e} is not a bridge")
    return found


def face_orbits_by_next_neighbor(R: RotationSystem) -> list:
    """Face orbits started at the darts in sorted order, each walked one
    ``next_neighbor`` step at a time, skipping darts already covered."""
    darts = sorted({d for u, v in R.graph.edges for d in ((u, v), (v, u))},
                   key=lambda d: (vkey(d[0]), vkey(d[1])))
    covered: set = set()
    orbits = []
    for start in darts:
        if start in covered:
            continue
        orbit = [start]
        while True:
            u, v = orbit[-1]
            nxt = (v, next_neighbor(R, v, u))
            if nxt == start:
                break
            orbit.append(nxt)
        covered.update(orbit)
        orbits.append(orbit)
    return orbits


def euler_check_per_component(R: RotationSystem) -> bool:
    """V - E + F = 2 checked separately on every component with an edge,
    each face counted in the component of its first dart."""
    G = R.graph
    comp = {}
    counts = []                         # [V, E, F] per component
    for i, members in enumerate(components(G)):
        comp.update(dict.fromkeys(members, i))
        counts.append([len(members), sum(G.degree(x) for x in members) // 2, 0])
    for orbit in face_orbits_by_next_neighbor(R):
        counts[comp[orbit[0][0]]][2] += 1
    return all(n - m + f == 2 for n, m, f in counts if m)


def excesses_by_neighbor_scan(f: GroupFlow):
    """(excess map, None), or (None, v) for the first vertex v whose
    incoming values do not commute; every vertex's values are read from its
    neighbours, and tractability is scanned before any excess."""
    group = f.group
    for v in f.graph.vertices:
        vals = [f.value(u, v) for u in f.graph.neighbors(v)]
        vals = [g for g in vals if g != group.identity]
        if not all(group.commutes(a, b) for a, b in itertools.combinations(vals, 2)):
            return None, v
    return {v: group.prod(f.value(u, v) for u in f.graph.neighbors(v))
            for v in f.graph.vertices}, None


def witness_values_two_forms(D, gamma: int) -> dict:
    """The values of witness_flow_from_kernel(D, gamma), solved with two
    forms: an untracked one grows subgroup by subgroup (gamma's own first,
    then by decreasing overlap with it) until it contains gamma's vector,
    and a dense coefficient-tracking one replays the same rows to solve for
    it, without label columns.  Order rows (an UnscaledDelta's, which come
    first) join with their column's subgroup."""
    G = D.group
    target = D.embed(gamma)
    igamma = D.home[gamma]
    overlap = D.subgroups[igamma]._member_set
    rest = sorted((i for i in range(len(D.subgroups)) if i != igamma),
                  key=lambda i: (-len(D.subgroups[i]._member_set & overlap), i))
    order_rows, chain_rows = {}, {}
    for col, (row, tag) in enumerate(D.relation_rows()):
        if tag is None:
            order_rows.setdefault(bisect.bisect_right(D.offsets, col) - 1, []).append((row, None))
        else:
            chain_rows.setdefault(tag[0], []).append((row, tag))
    untracked = HowellForm(D.ncols, D.modulus)
    registry = []
    chosen = []
    for i in [igamma] + rest:
        added = list(order_rows.get(i, []))
        for j in chosen:
            added += chain_rows.get((min(i, j), max(i, j)), [])
        for row, tag in added:
            untracked.add_row(row)
            registry.append((row, tag))
        chosen.append(i)
        if untracked.contains(target):
            break
    tracked = DenseHowellForm(D.ncols, D.modulus, track=True)
    for row, _tag in registry:
        tracked.add_row(row)
    coeffs = dense_row(tracked.tracked_solve(target), len(registry))
    acc = {}
    for c, (_row, tag) in zip(coeffs, registry):
        if tag is None or c % D.modulus == 0:
            continue
        pair, g = tag
        acc[pair] = G.mul(acc.get(pair, G.identity), G.power(g, int(c)))
    values = {}
    for (i, j), a in acc.items():
        values[(j + 1, i + 1)] = a
        values[(i + 1, j + 1)] = G.inv(a)
    return {p: g for p, g in values.items() if g != G.identity}


def _pivot(A: np.ndarray, m: int) -> tuple[int, int]:
    """Position of the nonzero entry with the least gcd with m; ties go to
    the first in row-major order."""
    score = np.where(A != 0, np.gcd(A, m), m + 1)
    i, j = np.unravel_index(int(np.argmin(score)), A.shape)
    return int(i), int(j)


def _diagonalize_mod(A: np.ndarray, m: int) -> list[int]:
    """Diagonal entries of a row+column reduction of A over Z/m."""
    diags: list[int] = []
    A = A % m
    while A.size and A.any():
        i0, j0 = _pivot(A, m)
        A[[0, i0], :] = A[[i0, 0], :]
        A[:, [0, j0]] = A[:, [j0, 0]]
        while True:
            for i in range(1, A.shape[0]):
                b = int(A[i, 0])
                if b == 0:
                    continue
                a = int(A[0, 0])
                if b % a == 0:
                    A[i] = (A[i] - (b // a) * A[0]) % m
                else:
                    # determinant-one transform: [[s, t], [-b0, a0]] with
                    # s*a + t*b = g, a0 = a//g, b0 = b//g
                    g, s, t = _egcd(a, b)
                    old = A[0].copy()
                    A[0] = (s * old + t * A[i]) % m
                    A[i] = ((a // g) * A[i] - (b // g) * old) % m
            for j in range(1, A.shape[1]):
                b = int(A[0, j])
                if b == 0:
                    continue
                a = int(A[0, 0])
                if b % a == 0:
                    A[:, j] = (A[:, j] - (b // a) * A[:, 0]) % m
                else:
                    g, s, t = _egcd(a, b)
                    old = A[:, 0].copy()
                    A[:, 0] = (s * old + t * A[:, j]) % m
                    A[:, j] = ((a // g) * A[:, j] - (b // g) * old) % m
            if not A[1:, 0].any() and not A[0, 1:].any():
                break
        diags.append(int(A[0, 0]))
        A = A[1:, 1:]
    return [d for d in diags if d % m != 0]


def _divisor_chain(factors: list[int]) -> list[int]:
    """Normalize a multiset of cyclic orders into the invariant-factor chain."""
    factors = [f for f in factors if f > 1]
    changed = True
    while changed:
        changed = False
        factors.sort()
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                a, b = factors[i], factors[j]
                if b % a != 0:
                    g = math.gcd(a, b)
                    factors[i], factors[j] = g, a * b // g
                    changed = True
        factors = [f for f in factors if f > 1]
    factors.sort()
    return factors


def form_invariant_factors(form: HowellForm) -> list:
    """Invariant factors of (Z/m)^ncols / rowspace, trivial ones dropped,
    by the library's prime-power orders; label columns are cut off."""
    rows = [{c: a for c, a in r.items() if c < form.ncols} for r in form.pivot_rows()]
    return invariant_factors([form.m] * form.ncols, rows, form.quotient_order())


def invariant_factors_by_diagonalization(form: HowellForm) -> list:
    """form_invariant_factors(form) by diagonalising its pivot matrix and
    merging the diagonal into a divisor chain."""
    if form.m == 1:
        return []
    diags = _diagonalize_mod(form.pivot_matrix()[:, : form.ncols] % form.m, form.m)
    factors = [form.m] * (form.ncols - len(diags))
    factors += [math.gcd(d, form.m) for d in diags]
    return _divisor_chain([f for f in factors if f > 1])


class DenseHowellForm(HowellForm):
    """HowellForm with dense numpy rows of width ncols + labels: every
    elimination step is a full-width array operation, and the walk visits
    every pivot column in order.  Same algorithm and label contract, so the
    same pivot rows and reductions, label parts included; ``contains``,
    ``solve`` and the invariant factors are read from them by the
    library's own code.  Vectors go in and come out sparse, as the
    library's do, and are converted only there.  With track=True every
    pivot also carries a separate coefficient vector over the input rows,
    the form's former way to solve, kept in ``tracked_solve`` as the oracle
    of the label columns.  A stored coefficient vector keeps the length
    n_input had when it was stored; _pad extends it."""

    def __init__(self, ncols: int, modulus: int, *, labels: int = 0, track: bool = False):
        super().__init__(ncols, modulus, labels=labels)
        self.track = track
        self.n_input = 0
        self._coeffs = []

    def _dense(self, v) -> np.ndarray:
        """The dense residue vector of a sparse {column: value}."""
        width = self.ncols + self.labels
        if v and (min(v) < 0 or max(v) >= width):
            raise ValueError("column out of range")
        return dense_row(v, width) % self.m

    def add_row(self, row) -> None:
        vec = self._dense(row)
        coeff = None
        if self.track:
            coeff = np.zeros(self.n_input + 1, dtype=np.int64)
            coeff[self.n_input] = 1
        self.n_input += 1
        if self.m == 1:
            return
        self._absorb(vec, coeff)

    def _absorb(self, vec, coeff) -> None:
        n = self.ncols
        queue = [(vec, coeff)]
        while queue:
            v, c = queue.pop()
            nz = np.nonzero(v[:n])[0]
            while nz.size:
                j = int(nz[0])
                pivot_idx = self._pivot_at.get(j)
                if pivot_idx is None:
                    u, g = _unit_scale(int(v[j]), self.m)
                    v = (v * u) % self.m
                    if c is not None:
                        c = (c * u) % self.m
                    self._pivot_at[j] = len(self._rows)
                    self._rows.append(v)
                    self._coeffs.append(c)
                    ann = (v * (self.m // g)) % self.m
                    if ann.any():
                        queue.append((ann, None if c is None else (c * (self.m // g)) % self.m))
                    break
                r = self._rows[pivot_idx]
                cr = self._coeffs[pivot_idx]
                p = int(r[j])
                a = int(v[j])
                if a % p == 0:
                    q = a // p
                    v = (v - q * r) % self.m
                    if c is not None:
                        c = (c - q * _pad(cr, c.size)) % self.m
                else:
                    g, s, t = _egcd(p, a)
                    new = (s * r + t * v) % self.m
                    new_c = None
                    if c is not None:
                        new_c = (s * _pad(cr, c.size) + t * c) % self.m
                    old = (r - (p // g) * new) % self.m
                    old_c = None
                    if c is not None:
                        old_c = (_pad(cr, c.size) - (p // g) * new_c) % self.m
                    v = (v - (a // g) * new) % self.m
                    if c is not None:
                        c = (c - (a // g) * new_c) % self.m
                    self._rows[pivot_idx] = new
                    self._coeffs[pivot_idx] = new_c
                    if old.any():
                        queue.append((old, old_c))
                    ann = (new * (self.m // g)) % self.m
                    if ann.any():
                        queue.append((ann, None if new_c is None else (new_c * (self.m // g)) % self.m))
                nz = np.nonzero(v[:n])[0]

    def _walk(self, v, combo):
        vec = self._dense(v)
        for j in sorted(self._pivot_at):
            if vec[j]:
                idx = self._pivot_at[j]
                r = self._rows[idx]
                q = int(vec[j]) // int(r[j])
                if q:
                    vec = (vec - q * r) % self.m
                    if combo is not None:
                        combo = (combo + q * _pad(self._coeffs[idx], combo.size)) % self.m
        return vec, combo

    def reduce(self, v) -> dict:
        return _sparse(self._walk(v, None)[0])

    def tracked_solve(self, v):
        """{input row: c} with sum(c * row) = v mod m, or None when v is
        outside the span, from the tracked coefficients alone."""
        if not self.track:
            raise ValueError("tracked_solve needs a coefficient-tracking form")
        vec, combo = self._walk(v, np.zeros(self.n_input, dtype=np.int64))
        return None if vec[: self.ncols].any() else _sparse(combo)

    def pivot_matrix(self) -> np.ndarray:
        cols = sorted(self._pivot_at)
        if not cols:
            return np.zeros((0, self.ncols + self.labels), dtype=np.int64)
        return np.stack([self._rows[self._pivot_at[j]] for j in cols])

    def quotient_order(self) -> int:
        order = self.m ** (self.ncols - len(self._pivot_at))
        for j, idx in self._pivot_at.items():
            order *= int(self._rows[idx][j])
        return order

    def pivot_rows(self) -> list:
        return [_sparse(self._rows[self._pivot_at[j]]) for j in sorted(self._pivot_at)]


def _sparse(x: np.ndarray) -> dict:
    """{index: value} of the nonzero entries of a dense vector."""
    return {int(i): int(x[i]) for i in np.flatnonzero(x)}


def _pad(c, size: int) -> np.ndarray:
    if c is None:
        return np.zeros(size, dtype=np.int64)
    if c.size == size:
        return c
    out = np.zeros(size, dtype=np.int64)
    out[: c.size] = c
    return out


class NotSpanning(GroupFlowError):
    pass


class NotForest(GroupFlowError):
    pass


def contract(G: Graph, H: Graph):
    """Contract a spanning forest H inside G.

    Each connected component of H becomes a single vertex, labelled by its
    minimal member; the returned map sends every vertex of G to its class.
    """
    if set(H.vertices) != set(G.vertices):
        raise NotSpanning("H must span the vertices of G")
    if not H.edges <= G.edges:
        raise NotSpanning("H must be a subgraph of G")
    if not is_forest(H):
        raise NotForest("H has a cycle")
    quotient = {}
    for comp in components(H):
        for v in comp:
            quotient[v] = comp[0]
    edges = {edge_key(quotient[u], quotient[v]) for u, v in G.edges
             if quotient[u] != quotient[v]}
    return graph_from(set(quotient.values()), edges), quotient


def contract_edge(G: Graph, e):
    """Contract a single edge of G (forest = that edge plus isolated vertices)."""
    return contract(G, graph_from(G.vertices, [edge_key(*e)]))


def uncontract_flow(G: Graph, e, f: GroupFlow) -> GroupFlow:
    """Pull a tractable flow on G/e back to G.

    With e = {a, b}, X = N(a) minus e and Y = N(b) minus (e union X), the
    values into the contracted vertex are split among a and b, and the new
    edge value g(a,b) = prod over u in X of g(u,a) restores conservation at
    a while moving the excess of the contracted vertex to b.  The excesses
    of the result are checked against those of f.
    """
    a, b = e
    if not G.has_edge(a, b):
        raise EdgeMissing(e)
    contracted, quotient = contract_edge(G, (a, b))
    if f.graph != contracted:
        raise NotSubgraph("flow is not on the contraction of G along e")
    before, bad = _excesses(f)
    if before is None:
        raise NotTractable(bad)
    group = f.group
    merged = quotient[a]
    X = [u for u in G.neighbors(a) if u not in (a, b)]
    Y = [v for v in G.neighbors(b) if v not in (a, b) and v not in X]
    values = {(u, v): g for (u, v), g in f.values.items() if merged not in (u, v)}
    for u in X:
        g = f.value(u, merged)
        values[(u, a)] = g
        values[(a, u)] = group.inv(g)
    for v in Y:
        g = f.value(merged, v)
        values[(b, v)] = g
        values[(v, b)] = group.inv(g)
    gab = group.prod(values.get((u, a), group.identity) for u in X)
    values[(a, b)] = gab
    values[(b, a)] = group.inv(gab)
    result = GroupFlow(G, group, values)
    after, bad = _excesses(result)
    if after is None:
        raise InternalInvariantError(f"uncontracted flow lost tractability at {bad}")
    if after[a] != group.identity:
        raise InternalInvariantError("uncontraction left a non-conserving split vertex")
    if after[b] != before[merged]:
        raise InternalInvariantError("uncontraction did not transfer the excess")
    for v in G.vertices:
        if v not in (a, b) and after[v] != before[v]:
            raise InternalInvariantError(f"uncontraction changed the excess at {v}")
    return result


def synthesize_by_uncontraction(G: Graph) -> GroupFlow:
    """synthesize_leaking_flow's former construction: move the model flow
    onto the contraction of the witness forest, contract the forest again
    edge by edge (leaf-first) to check the two contractions agree, then
    undo each edge contraction with uncontract_flow."""
    result = test_planarity(G)
    if isinstance(result, RotationSystem):
        raise GraphIsPlanar("planar graphs admit no leaking flow")
    witness = result
    _, model_flow = example_flow_k5() if witness.model.n == 5 else example_flow_k33()
    contracted, quotient = contract(G, graph_from(G.vertices, witness.forest_edges))
    embed = {x: quotient[next(iter(witness.branch_sets[x]))] for x in witness.model.vertices}
    flow = _relabel_flow(model_flow, embed, contracted)
    chain = []  # (graph before, edge contracted) pairs, applied in order
    current = G
    for u, v in _leaf_first_order(witness.forest_edges):
        image = (_image_vertex(chain, u), _image_vertex(chain, v))
        chain.append((current, image))
        current, _ = contract_edge(current, image)
    assert current == contracted, "edge-by-edge contraction disagrees with the forest contraction"
    for before, e in reversed(chain):
        flow = uncontract_flow(before, e, flow)
    return flow


def _relabel_flow(f: GroupFlow, mapping, target: Graph) -> GroupFlow:
    """Transport a flow along an injective vertex map into a supergraph of
    the image."""
    values = {(mapping[u], mapping[v]): g for (u, v), g in f.values.items()}
    for (u, v) in values:
        assert target.has_edge(u, v), f"image pair ({u},{v}) is not an edge of the target"
    return GroupFlow(target, f.group, values)


def _image_vertex(chain, v):
    """Follow the min-label merges recorded so far."""
    for _, (a, b) in chain:
        if v == a or v == b:
            v = a if vkey(a) < vkey(b) else b
    return v


def _leaf_first_order(forest_edges) -> list:
    """Order forest edges so each one, at its turn, has a leaf endpoint."""
    remaining = set(forest_edges)
    order = []
    while remaining:
        degree = {}
        for u, v in remaining:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        leaf_edges = sorted(
            (e for e in remaining if degree[e[0]] == 1 or degree[e[1]] == 1),
            key=lambda e: (vkey(e[0]), vkey(e[1])),
        )
        order.append(leaf_edges[0])
        remaining.remove(leaf_edges[0])
    return order


def tree_flow_by_leaf_first_loop(G: Graph, T: Graph, root, boundary, group: FiniteGroup):
    """solve_tree_flow's former leaf-first loop on a valid spanning tree and
    boundary: (flow, None) when tractable, else (None, failing vertex)."""
    values = {}
    for (u, v), g in boundary.items():
        values[(u, v)] = int(g)
        values.setdefault((v, u), group.inv(int(g)))
    parent = {root: None}
    depth = {root: 0}
    order = [root]
    queue = [root]
    while queue:
        x = queue.pop(0)
        for y in T.neighbors(x):
            if y not in parent:
                parent[y] = x
                depth[y] = depth[x] + 1
                order.append(y)
                queue.append(y)
    for v in sorted(order, key=lambda v: (-depth[v], vkey(v))):
        if v == root:
            continue
        p = parent[v]
        prod = group.identity
        for u in G.neighbors(v):
            if u == p:
                continue
            prod = group.mul(prod, values.get((u, v), group.identity))
        values[(p, v)] = group.inv(prod)
        values[(v, p)] = prod
    flow = GroupFlow(G, group, values)
    ok, bad = is_tractable(flow)
    return (flow, None) if ok else (None, bad)


# -- flow helpers -----------------------------------------------------------------


def random_flow(rng: random.Random, G: Graph, group: FiniteGroup) -> GroupFlow:
    values = {e: rng.randrange(group.order) for e in G.sorted_edges()}
    return GroupFlow.skew(G, group, values)


def two_root_tree_flow(rng: random.Random, G: Graph, T: Graph, group: FiniteGroup,
                       root, free_vertex, boundary):
    """Like solve_tree_flow, but conservation is not enforced at one extra
    vertex, whose parent edge gets a random value instead."""
    from groupflow.flows import GroupFlow, is_tractable

    assert is_forest(T) and len(components(T)) == 1
    values = {}
    for (u, v), g in boundary.items():
        values[(u, v)] = g
        values[(v, u)] = group.inv(g)
    parent = {root: None}
    depth = {root: 0}
    order = [root]
    queue = [root]
    while queue:
        x = queue.pop(0)
        for y in T.neighbors(x):
            if y not in parent:
                parent[y] = x
                depth[y] = depth[x] + 1
                order.append(y)
                queue.append(y)
    for v in sorted(order, key=lambda v: (-depth[v], vkey(v))):
        if v == root:
            continue
        p = parent[v]
        if v == free_vertex:
            g = rng.randrange(group.order)
            values[(p, v)] = g
            values[(v, p)] = group.inv(g)
            continue
        prod = group.identity
        for u in G.neighbors(v):
            if u == p:
                continue
            prod = group.mul(prod, values.get((u, v), group.identity))
        values[(p, v)] = group.inv(prod)
        values[(v, p)] = prod
    flow = GroupFlow(G, group, values)
    ok, _ = is_tractable(flow)
    return flow if ok else None


def compose_minor_witnesses(G: Graph, outer, inner):
    """Compose: inner certifies I <= H, outer certifies H <= G; the result
    certifies I <= G.  Used to test minor-relation transitivity."""
    from groupflow.graphs import MinorWitness

    branch_sets = {}
    forest = set()
    for x, inner_set in inner.branch_sets.items():
        combined = set()
        for y in inner_set:
            combined |= outer.branch_sets[y]
            forest |= {e for e in outer.forest_edges if e[0] in outer.branch_sets[y]}
        # connect the outer branch sets along inner's forest edges
        for (y1, y2) in inner.forest_edges:
            if y1 in inner_set and y2 in inner_set:
                link = _host_edge_between(G, outer.branch_sets[y1], outer.branch_sets[y2])
                forest.add(link)
        branch_sets[x] = frozenset(combined)
    return MinorWitness(inner.model, branch_sets, frozenset(forest))


def _host_edge_between(G: Graph, A: frozenset, B: frozenset):
    for u in sorted(A, key=vkey):
        for w in G.neighbors(u):
            if w in B:
                return edge_key(u, w)
    raise AssertionError("no host edge between adjacent branch sets")
