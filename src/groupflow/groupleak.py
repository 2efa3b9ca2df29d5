"""Deciding leak-proofness of a finite group.

Delta is the abelian group on the symbols [g], g in G, with [gh] = [g] + [h]
whenever gh = hg, and phi(gamma) = [gamma].  G is leak-proof exactly when no
gamma != 1 has phi(gamma) = 0, and binary leak-proof exactly when phi is
injective; a kernel element is turned back into an explicit leaking flow.

Theorem.  Let Delta_p be the same construction on the p-elements of G alone,
for a prime p.  Then Delta is the direct sum of the Delta_p, and [g] is the
sum of [g_p] over the p-parts g_p of g.  Proof: each g_p is a power of g,
and commuting g, h have (gh)_p = g_p h_p with g_p and h_p commuting, so
pi_p: [g] -> [g_p] is well defined from Delta onto Delta_p.  The map iota_p
sending [x] in Delta_p to [x] in Delta has pi_p iota_p = id, so it is
injective, and its image is p-torsion, as p^a [x] = [x^(p^a)] = 0.  The
images span Delta, since [g] = sum_p [g_p]: they are its primary parts.

Presentation.  A p-element x != 1 is g^k for the least-index generator g of
<x> and a k prime to d = ord(g), and [x] = k[g], as the powers of g commute.
So there is one column per cyclic p-subgroup, for every prime p.
Coordinates live in (Z/m)^n, m the exponent of G, scaled as psi(e_c) =
(m / d_c) e_c, so column c has order d_c with no order row (d_c [g] =
[g^d_c] = 0): x has the coordinate k m / d, and an element's vector is the
sum of its p-parts'.  With R(x, y) = [xy] - [x] - [y] for commuting
p-elements, Z_p the central p-elements and C(g) the centralizer of g, the
Howell form ``canonical`` holds three kinds of rows:

- a power row R(g, g^(p-1)) = [g^p] - p[g] for each column with d > p;
- R(s, x) for s in a generating set of Z_p and every p-element x;
- R(g, y) for one column generator g per coset gZ_p outside Z_p, and one y
  per coset yZ_p in C(g) that does not meet <g>.

They span every R(x, y), so Delta_p is its columns modulo them:

(a) R(g, y) for every column generator g and p-element y in C(g) give every
R(x, y): with x = g^k, R(g, g^(j-1) y) reads [g^j y] = [g] + [g^(j-1) y], so
by induction [g^k y] = k[g] + [y] = [x] + [y].  For g^(j-1) y in <g> that
row is [g^j] = [g] + [g^(j-1)], which the coordinates give when g^j and
g^(j-1) generate <g>, and the power rows, [g^(p^a)] = p^a [g], when one
does not.  So the y in <g> need no row.

(b) Given the central rows, R(gz, y) <=> R(g, y) <=> R(g, yz) for z in Z_p.
R(s, x) for all x gives R(z, x) for every z in Z_p, by induction on z as a
word in the generating set: [s z' x] = [s] + [z' x] = [s] + [z'] + [x] and
[s z'] = [s] + [z'].  Then [gz] = [g] + [z] and [gzy] = [gy] + [z], so
R(gz, y) and R(g, yz) both read [gy] + [z] = [g] + [y] + [z], which is
R(g, y).  So one g per coset gZ_p and one y per coset yZ_p suffice, a coset
meeting <g> needs no row by (a), and a central g needs no row of its own.

Rows.  The entries of a row R(x, y) in one column are added up.  One
stable sort orders the rows by their columns from the last one down,
highest first, then by their values scaled to a leading gcd(a, m), so
repeated rows and unit multiples fall side by side and only the first
pair's is kept.  The highest-last-column order keeps the pivot rows short
(es:4's take a sixth of the time they take in ascending order); reduction
against the saturated form is canonical in any order.  ``pair_rows`` keeps
only the rows that changed ``canonical``: any other lies in the span of
the rows before it, so each prefix spans what it spanned with every row,
and the witness solves over fewer rows.  Vectors are sparse {column:
value} dicts without zeros, and phi is the sorted tuple of the canonical
form's nonzero (column, value) pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalInvariantError, NotInKernel, TooLarge, _clip
from .flows import GroupFlow, LeakVerdict, detect_leak
from .graphs import Graph, graph_from
from .groups import DEFAULT_MAX_ORDER, FiniteGroup, _power_all, _right_closure, _row_blocks
from .howell import HowellForm, _prime_powers, _unit_scale, invariant_factors

__all__ = [
    "DeltaPresentation",
    "build_delta",
    "phi",
    "is_leakproof_group",
    "is_binary_leakproof_group",
    "witness_flow_from_kernel",
    "LeakproofVerdict",
    "InjectivityVerdict",
]


@dataclass(frozen=True)
class DeltaPresentation:
    """Presentation of Delta (see the module docstring).

    Column c stands for the cyclic p-subgroup <generators[c]>, of order
    ``orders[c]``, and ``coordinates[g]`` is element g's scaled vector as
    (column, value) pairs.
    ``pair_rows`` tags by its pair (x, y), for R(x, y), each relation row
    that changed ``canonical``, in the order in which it absorbed them.
    The rows are not stored; ``relation_row`` builds one from its tag, and
    ``canonical`` is the Howell form of their span modulo ``modulus``.
    """

    group: FiniteGroup
    generators: tuple[int, ...]
    orders: tuple[int, ...]
    coordinates: tuple[tuple[tuple[int, int], ...], ...]
    modulus: int
    canonical: HowellForm
    pair_rows: tuple[tuple[int, int], ...]

    @property
    def ncols(self) -> int:
        return len(self.orders)

    def embed(self, gamma: int) -> dict[int, int]:
        """gamma's scaled coordinate vector {column: k * m / d_c}, one entry
        per p-part of gamma other than 1; every value lies in 1 .. m - 1."""
        return dict(self.coordinates[gamma])

    def relation_row(self, tag: tuple[int, int]) -> dict[int, int]:
        """R(x, y) for the tag (x, y), sparse as {column: value mod m}:
        embed(xy) - embed(x) - embed(y)."""
        x, y = tag
        row = self.embed(self.group.mul(x, y))
        for c, a in self.coordinates[x] + self.coordinates[y]:
            row[c] = row.get(c, 0) - a
        return {c: a % self.modulus for c, a in row.items() if a % self.modulus}

    def invariant_factors(self) -> list[int]:
        """Delta's invariant factors.  Each pivot row of ``canonical``,
        divided by m / d_c at column c, is back in unscaled coordinates,
        where these rows and the order rows span Delta's relations.  Delta
        is im psi, of order prod(d_c), modulo the span of the scaled rows,
        of order m^n / canonical.quotient_order()."""
        m, orders = self.modulus, self.orders
        rows = [{c: a // (m // orders[c]) for c, a in q.items()}
                for q in self.canonical.pivot_rows()]
        order = math.prod(orders) * self.canonical.quotient_order() // m ** self.ncols
        return invariant_factors(orders, rows, order)


def _cyclic_columns(G: FiniteGroup, m: int) -> tuple[list[int], list[int], list[int]]:
    """column[x] and value[x] = k m / d for each p-element x = g^k != 1, g
    the generator of column[x] and d its order (-1 and 0 for the other
    elements), and the column generators: the least-index generator of each
    cyclic p-subgroup, in index order."""
    orders = G.element_orders().tolist()
    prime = {d: pp[0][0] for d in set(orders) if len(pp := _prime_powers(d)) == 1}
    column, value, generators = [-1] * G.order, [0] * G.order, []
    for x, d in enumerate(orders):
        if column[x] >= 0 or d not in prime:
            continue
        y = x
        for k in range(1, d):
            if k % prime[d]:
                column[y], value[y] = len(generators), k * (m // d)
            y = G.mul(y, x)
        generators.append(x)
    return column, value, generators


def _relation_pairs(G: FiniteGroup, column: np.ndarray, generators: list[int],
                    orders: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (x, y) of the three kinds of rows in the module docstring,
    as arrays xs and ys: the power rows in column order, then for each
    prime in turn its central rows, s-major with the ys ascending, and its
    coset rows: one column generator g per coset gZ_p, in column order,
    with the least y of each coset yZ_p, by the cosets' least members.
    The coset rows take their gs a block at a time, as many as
    ``_row_blocks`` gives for two int32 gathers of a row each."""
    T, n = G.table, G.order
    gens, d = np.array(generators, dtype=np.int32), np.array(orders, dtype=np.int32)
    prime_of = {q: _prime_powers(q)[0][0] for q in set(orders)}
    primes = np.array([prime_of[q] for q in orders], dtype=np.int32)
    # central exactly when it commutes with each generator of G
    S = G.generators
    central = (T[np.ix_(gens, S)] == T[np.ix_(S, gens)].T).all(axis=1)
    power = d > primes
    xs, ys = [gens[power]], [gens[power]]       # the power rows R(g, g^(p-1))
    for p in np.unique(primes[power]).tolist():
        at = primes[power] == p
        ys[0][at] = _power_all(T, xs[0][at], p - 1)
    element_prime = np.append(primes, 0)[column]          # 0 off the p-elements
    for p in np.unique(primes).tolist():
        members = np.flatnonzero(element_prime == p).astype(np.int32)
        in_centre = np.zeros(n, dtype=bool)
        in_centre[G.identity] = True
        spanning: list[int] = []
        here = primes == p
        for s in gens[central & here].tolist():
            if not in_centre[s]:
                spanning.append(s)
                _right_closure(T, in_centre, spanning)
        xs.append(np.repeat(np.array(spanning, dtype=np.int32), len(members)))
        ys.append(np.tile(members, len(spanning)))
        if central[here].all():
            continue
        outside = gens[here & ~central]
        coset = np.arange(n)                    # the least member of each coset of Z_p
        for z in np.flatnonzero(in_centre):
            np.minimum(coset, T[:, z], out=coset)
        reps = outside[np.sort(np.unique(coset[outside], return_index=True)[1])]
        for rows in _row_blocks(len(reps), 2 * n):
            g = reps[rows]
            # the cosets that meet <g>: those of g, g^2, ... up to the first repeat
            meets = np.zeros((len(g), n), dtype=bool)
            at, y = np.arange(len(g)), g
            while not meets[at, coset[y]].all():
                meets[at, coset[y]] = True
                y = T[y, g]
            r, j = np.nonzero(T[np.ix_(g, members)] == T[np.ix_(members, g)].T)
            # the least y per (g, coset) is the first of its key, as j ascends per g
            keys, first = np.unique(r * n + coset[members[j]], return_index=True)
            first = first[~meets.ravel()[keys]]
            xs.append(g[r[first]])
            ys.append(members[j[first]])
    return np.concatenate(xs), np.concatenate(ys)


def _sorted_rows(G: FiniteGroup, m: int, column: np.ndarray, value: np.ndarray,
                 xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows R(x, y) of the pairs, as columns and values (-1 and 0 pad a
    row to three entries, in front), without zero rows, and sorted with the
    highest last column first, then the highest middle and first columns,
    then by the values scaled to a leading gcd(a, m); with their xs and ys.
    Of rows that are unit multiples of each other, only the first pair's is
    kept."""
    xy = G.table[xs, ys]
    c = [column[xy], column[xs], column[ys]]
    v = [value[xy], -value[xs], -value[ys]]
    # entries in one column add up in the first of them; the rest, and zeros, become (-1, 0)
    same01, same02, same12 = c[0] == c[1], c[0] == c[2], c[1] == c[2]
    v = [(v[0] + same01 * v[1] + same02 * v[2]) % m,
         np.where(same01, 0, (v[1] + same12 * v[2]) % m),
         np.where(same02 | same12, 0, v[2] % m)]
    c = [np.where(a == 0, -1, col) for a, col in zip(v, c)]
    for i, j in ((0, 1), (1, 2), (0, 1)):       # sort the three entries by column
        swap = c[i] > c[j]
        c[i], c[j] = np.where(swap, c[j], c[i]), np.where(swap, c[i], c[j])
        v[i], v[j] = np.where(swap, v[j], v[i]), np.where(swap, v[i], v[j])
    live = c[2] >= 0
    c, v, xs, ys = [a[live] for a in c], [a[live] for a in v], xs[live], ys[live]
    lead = np.where(c[0] >= 0, v[0], np.where(c[1] >= 0, v[1], v[2]))
    unit = np.zeros(m, dtype=np.int64)
    for a in np.unique(lead).tolist():
        unit[a] = _unit_scale(a, m)[0]
    keys = [a * unit[lead] % m for a in v[::-1]] + [-a for a in c]
    order = np.lexsort(keys)                     # stable: the first pair of a row leads it
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for key in keys:                            # a row starts where any key changes
        first[1:] |= np.diff(key[order]) != 0
    first = order[first]
    return np.stack(c, axis=1)[first], np.stack(v, axis=1)[first], xs[first], ys[first]


def build_delta(G: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER) -> DeltaPresentation:
    """Assemble the presentation of Delta on the cyclic p-subgroups of G."""
    if G.order > max_order:
        raise TooLarge(G.order, max_order)
    m = int(np.lcm.reduce(G.element_orders()))
    column, value, generators = _cyclic_columns(G, m)
    orders = tuple(int(G.element_orders()[g]) for g in generators)
    # gamma ** u is gamma's p-part for u = 1 mod q and u = 0 mod m / q
    parts = np.array([_power_all(G.table, np.arange(G.order), m // q * pow(m // q, -1, q))
                      for q in (p ** a for p, a in _prime_powers(m))]).reshape(-1, G.order)
    coordinates = tuple(tuple((column[x], value[x]) for x in xs if column[x] >= 0)
                        for xs in parts.T.tolist())
    column, value = np.array(column, dtype=np.int32), np.array(value, dtype=np.int32)
    cols, vals, xs, ys = _sorted_rows(G, m, column, value,
                                      *_relation_pairs(G, column, generators, orders))
    canonical = HowellForm(len(generators), m)
    changed = [canonical.add_row({c: a for c, a in zip(row_cols, row_vals) if a})
               for row_cols, row_vals in zip(cols.tolist(), vals.tolist())]
    return DeltaPresentation(
        group=G,
        generators=tuple(generators),
        orders=orders,
        coordinates=coordinates,
        modulus=m,
        canonical=canonical,
        pair_rows=tuple(itertools.compress(zip(xs.tolist(), ys.tolist()), changed)),
    )


def phi(D: DeltaPresentation, gamma: int) -> tuple[tuple[int, int], ...]:
    """gamma's image: the sorted nonzero (column, value) pairs of the
    canonical form of its coordinates, () exactly when gamma maps to zero."""
    return tuple(sorted(D.canonical.reduce(D.embed(gamma)).items()))


@dataclass(frozen=True)
class LeakproofVerdict:
    leakproof: bool
    witness: Optional[int] = None          # some gamma != 1 with phi(gamma) = 0


@dataclass(frozen=True)
class InjectivityVerdict:
    injective: bool
    collision: Optional[tuple[int, int]] = None


def is_leakproof_group(G: FiniteGroup, delta: Optional[DeltaPresentation] = None) -> LeakproofVerdict:
    """LeakProof when phi has trivial kernel fiber; else the first
    nonidentity element mapping to zero."""
    D = delta or build_delta(G)
    witness = next((g for g in G.elements() if g != G.identity and not phi(D, g)), None)
    return LeakproofVerdict(witness is None, witness)


def is_binary_leakproof_group(G: FiniteGroup,
                              delta: Optional[DeltaPresentation] = None) -> InjectivityVerdict:
    """Injective phi (all normal forms pairwise distinct) or a colliding pair."""
    D = delta or build_delta(G)
    first: dict[tuple[tuple[int, int], ...], int] = {}
    for gamma in G.elements():
        if (seen := first.setdefault(phi(D, gamma), gamma)) != gamma:
            return InjectivityVerdict(False, collision=(seen, gamma))
    return InjectivityVerdict(True)


def _group_label(G: FiniteGroup) -> str:
    """How an internal-invariant error names G: its spec, or "a table group"."""
    return "a table group" if G.spec is None else _clip(G.spec)


def witness_flow_from_kernel(source: "FiniteGroup | DeltaPresentation",
                             gamma: int) -> tuple[Graph, GroupFlow]:
    """Turn a kernel element into a leaking flow on a bipartite graph:
    vertex c + 1 stands for column c, vertex ncols + 1 + k for relation
    row k, and the flow leaks gamma at vertex 0.

    The rows of the shortest prefix of pair_rows that expresses gamma's
    vector are absorbed into a form with row k labelled k; ``left``,
    congruent to the vector modulo the rows so far, is reduced after each
    row, and once it is zero the vector's labels give sum_k c_k R(x_k, y_k)
    = embed(gamma).  Row k's vertex sends (x_k y_k)^(c_k), x_k^(-c_k) and
    y_k^(-c_k) to the vertices of their columns.  Its own values lie in the
    abelian <x_k, y_k> and multiply to 1, and a column vertex receives
    powers of its generator only, which sum to gamma's coordinate there:
    gamma's p-part in its own column, and 1 elsewhere.  Each column of
    gamma sends that p-part on to vertex 0, whose excess is gamma.
    detect_leak re-certifies the flow before it is returned.
    """
    D = source if isinstance(source, DeltaPresentation) else build_delta(source)
    G = D.group
    if gamma == G.identity:
        raise NotInKernel("the identity is not a leak witness")
    target = D.embed(gamma)
    if not D.canonical.contains(target):
        raise NotInKernel("phi(gamma) is nonzero")
    n, m = D.ncols, D.modulus
    form, left = HowellForm(n, m, labels=len(D.pair_rows)), target
    for k, tag in enumerate(D.pair_rows):
        form.add_row({**D.relation_row(tag), n + k: 1})
        left = {c: a for c, a in form.reduce(left).items() if c < n}
        if not left:
            break
    else:
        raise InternalInvariantError(
            f"witness_flow_from_kernel: the relation rows of {_group_label(G)} do not express "
            f"{_clip(G.name(gamma))}, a kernel member")
    values: dict[tuple[int, int], int] = {}

    def send(u: int, v: int, a: int) -> None:
        if a != G.identity:
            values[(u, v)], values[(v, u)] = a, G.inv(a)

    for c, a in target.items():
        send(c + 1, 0, G.power(D.generators[c], a // (m // D.orders[c])))
    for k, coeff in form.solve(target).items():
        x, y = D.pair_rows[k]
        sent: dict[int, int] = {}
        for h, e in ((G.mul(x, y), coeff), (x, -coeff), (y, -coeff)):
            for c, _a in D.coordinates[h]:      # h's column; the identity has none
                sent[c] = G.mul(sent.get(c, G.identity), G.power(h, e))
        for c, a in sent.items():
            send(n + 1 + k, c + 1, a)
    graph = graph_from({v for pair in values for v in pair}, values)
    flow = GroupFlow(graph, G, values)
    verdict = detect_leak(flow)
    if verdict.kind != LeakVerdict.LEAKS_AT or verdict.vertex != 0 or verdict.value != gamma:
        raise InternalInvariantError(
            f"witness_flow_from_kernel: the flow for {_clip(G.name(gamma))} in "
            f"{_group_label(G)} failed re-certification")
    return graph, flow
