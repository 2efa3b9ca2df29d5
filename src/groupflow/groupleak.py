"""Deciding leak-proofness of a finite group.

The abelian group Delta built here glues the maximal abelian subgroups of
G: one block of coordinates per subgroup basis, column c of order d_c, and
chain rows identifying the discrete logs of each cyclic subgroup's
generator g in the subgroups i_1 < i_2 < ... that contain it, as
dlog_{i_k}(g) - dlog_{i_{k+1}}(g).  They span the lattice of gluing every
pair along its intersection: the chain telescopes, and h = g^k gives k
times g's row.  So Delta is the sum of the Z/d_c modulo the chain rows.

A chain the lattice already has is left out.  Taking the cyclic
subgroups in order of their least-index generator, g's chain is skipped
when g is generated by elements h_t of I_g, the intersection of the
subgroups that contain g, each outside <g> and generating an earlier
cyclic subgroup.  For i and j containing g, g = prod h_t^(a_t) gives
dlog_i(g) - dlog_j(g) = sum a_t (dlog_i(h_t) - dlog_j(h_t)), and each
term telescopes along h_t's own chain, which passes through i and j (or
lies in the lattice by the same argument, if h_t's chain was skipped).
So the lattice, Delta, phi and its fibres do not change; es:3 needs 1,016
chain rows instead of 1,506 (see ``_chain_tags``).

Every vector lives in (Z/m)^n, m the lcm of the d_c, in scaled
coordinates: psi(e_c) = (m / d_c) e_c.  The kernel of psi is spanned by
the order rows d_c e_c, so a vector lies in the chain rows' span plus the
order rows exactly when its psi-image lies in the span of the scaled chain
rows.  The Howell form therefore holds the scaled chain rows alone, with
no order rows, and every vector it takes is scaled: entry c is a multiple
of m / d_c.  An element maps to the canonical form of its scaled
coordinate vector, read from its discrete log in its home, the first
subgroup that contains it, which ``build_delta`` records.  Every vector is
sparse, {column: value} without zeros, the one format ``embed`` builds and
the Howell form takes and returns, and phi is the sorted tuple of the
canonical form's nonzero (column, value) pairs.  The group is leak-proof
exactly when no nonidentity element maps to zero, and binary leak-proof
exactly when the map is injective.  Any kernel element is turned back
into an explicit leaking flow on a graph over the subgroups, with one
edge per subgroup pair the flow uses.

The chain rows reach the Howell form sorted by pair (j, i), the larger
index first: the form glues one subgroup at a time to those before it,
with all rows of a pair together, and a row of pair (i, j) meets only
pivot rows over the blocks up to j.  Absorbing them element by element,
each generator's chain at a time, takes two to three times the
elimination passes.  The lattice is the same in any order, and reduction
against a saturated Howell form is canonical, so phi, the verdicts and the
witnesses do not depend on it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import InternalInvariantError, NotInKernel, TooLarge, _clip
from .flows import GroupFlow, LeakVerdict, detect_leak
from .graphs import Graph, graph_from
from .groups import (
    DEFAULT_MAX_ORDER,
    AbelianBasis,
    FiniteGroup,
    Subgroup,
    _bits,
    abelian_basis,
    discrete_log,
    maximal_abelian_subgroups,
)
from .howell import HowellForm, invariant_factors

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
    """Presentation of the glued abelian group Delta.

    Global coordinates are the concatenated subgroup bases, scaled by psi
    (see the module docstring); column c has order ``orders[c]``, and
    ``home[g]`` is the first subgroup containing element g.  ``pair_rows``
    tags each chain row ((i, j), g): psi(dlog_i(g) - dlog_j(g)) for
    subgroups i < j consecutive among those containing g, for each g whose
    chain the lattice needs (see ``_chain_tags``), sorted by (j, i)
    and then by g, the order in which ``canonical`` absorbs them.  The rows
    are not stored; ``relation_row`` builds one from its tag, and
    ``canonical`` is the Howell form of their span modulo ``modulus``.
    There are no order rows: psi maps them to zero.
    """

    group: FiniteGroup
    subgroups: tuple[Subgroup, ...]
    bases: tuple[AbelianBasis, ...]
    offsets: tuple[int, ...]
    home: tuple[int, ...]
    orders: tuple[int, ...]
    modulus: int
    canonical: HowellForm
    pair_rows: tuple[tuple[tuple[int, int], int], ...]  # ((i, j), generator element)

    @property
    def ncols(self) -> int:
        return len(self.orders)

    def embed(self, gamma: int, subgroup_index: Optional[int] = None) -> dict[int, int]:
        """gamma's scaled coordinate vector {column: a_c * m / d_c}, read from
        its discrete log a in one subgroup (by default the first that
        contains it); every value lies in 1 .. m - 1."""
        i = self.home[gamma] if subgroup_index is None else subgroup_index
        offset, m, basis = self.offsets[i], self.modulus, self.bases[i]
        return {offset + t: a * (m // d)
                for t, (a, d) in enumerate(zip(discrete_log(basis, gamma), basis.orders)) if a}

    def relation_row(self, tag: tuple[tuple[int, int], int]) -> dict[int, int]:
        """The relation row of a pair_rows tag ((i, j), g), sparse as
        {column: value mod m}: embed(g, i) - embed(g, j)."""
        (i, j), g = tag
        m = self.modulus
        row = self.embed(g, i)          # blocks i and j are disjoint
        row.update((col, m - a) for col, a in self.embed(g, j).items())
        return row

    def relation_rows(self) -> Iterator[tuple[dict[int, int], tuple[tuple[int, int], int]]]:
        """Every relation row with its tag, in pair_rows order."""
        for tag in self.pair_rows:
            yield self.relation_row(tag), tag

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


def _chain_tags(G: FiniteGroup, subgroups: tuple[Subgroup, ...],
                containing: list[list[int]]) -> list[tuple[tuple[int, int], int]]:
    """Tags ((i_k, i_{k+1}), g) for the least-index generator g of each
    cyclic subgroup, over the subgroups i_1 < i_2 < ... that contain g
    (``containing[g]``), less the chains the lattice already has; stably
    sorted by pair (j, i), the larger index first, so that the Howell form
    absorbs them pair by pair (see the module docstring).

    The cyclic subgroups are taken in order of their least-index generator.
    g's chain is skipped when g lies in the subgroup generated by the
    elements h of I_g, the intersection of the subgroups containing g, that
    lie outside <g> and generate an earlier cyclic subgroup.  That is
    sound: the rows so far give dlog_i(h) - dlog_j(h) for every such h and
    all i, j that contain it (h = h'^k for the least-index generator h' of
    <h>, whose chain telescopes; by induction, a skipped h' has it too).
    Each h lies in every subgroup that contains g, and dlog_i is a
    homomorphism on subgroup i, so g = prod h_t^(a_t) gives
    dlog_i(g) - dlog_j(g) = sum a_t (dlog_i(h_t) - dlog_j(h_t)) in scaled
    coordinates.  The lattice, and with it Delta, phi and its kernel, do
    not change."""
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


def _group_label(G: FiniteGroup) -> str:
    """How an internal-invariant error names G: its spec, or "a table group"."""
    return "a table group" if G.spec is None else _clip(G.spec)


def build_delta(G: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER) -> DeltaPresentation:
    """Assemble the glued-abelian-group presentation for G."""
    if G.order > max_order:
        raise TooLarge(G.order, max_order)
    subgroups = maximal_abelian_subgroups(G)
    containing: list[list[int]] = [[] for _ in G.elements()]
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
    D = DeltaPresentation(
        group=G,
        subgroups=subgroups,
        bases=bases,
        offsets=offsets,
        home=tuple(chain[0] for chain in containing),
        orders=orders,
        modulus=modulus,
        canonical=HowellForm(offsets[-1], modulus),
        pair_rows=tuple(_chain_tags(G, subgroups, containing)),
    )
    for row, _tag in D.relation_rows():
        D.canonical.add_row(row)
    return D


def phi(D: DeltaPresentation, gamma: int) -> tuple[tuple[int, int], ...]:
    """gamma's image: the sorted nonzero (column, value) pairs of the
    canonical form of its coordinates, () exactly when gamma maps to zero;
    independent of which containing subgroup supplies the discrete log."""
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
    for gamma in G.elements():
        if gamma == G.identity:
            continue
        if not phi(D, gamma):
            return LeakproofVerdict(False, witness=gamma)
    return LeakproofVerdict(True)


def is_binary_leakproof_group(G: FiniteGroup,
                              delta: Optional[DeltaPresentation] = None) -> InjectivityVerdict:
    """Injective phi (all normal forms pairwise distinct) or a colliding pair."""
    D = delta or build_delta(G)
    seen: dict[tuple[tuple[int, int], ...], int] = {}
    for gamma in G.elements():
        key = phi(D, gamma)
        if key in seen:
            return InjectivityVerdict(False, collision=(seen[key], gamma))
        seen[key] = gamma
    return InjectivityVerdict(True)


def witness_flow_from_kernel(source: "FiniteGroup | DeltaPresentation",
                             gamma: int) -> tuple[Graph, GroupFlow]:
    """Turn a kernel element into a leaking flow on a graph over the
    maximal abelian subgroups: vertex i + 1 stands for subgroup i, with one
    edge per subgroup pair that carries a value.

    A solution of the relation system expressing gamma's vector is folded,
    pair by pair, into one group element per subgroup pair; the resulting
    flow has excess gamma at gamma's subgroup and identity elsewhere, which
    detect_leak re-certifies before returning.  Any graph carrying a
    leaking flow certifies the group, so no other edge is needed.
    """
    D = source if isinstance(source, DeltaPresentation) else build_delta(source)
    G = D.group
    if gamma == G.identity:
        raise NotInKernel("the identity is not a leak witness")
    target = D.embed(gamma)
    if not D.canonical.contains(target):
        raise NotInKernel("phi(gamma) is nonzero")
    coeffs, tags = _greedy_solve(D, gamma, target)
    acc: dict[tuple[int, int], int] = {}
    for k in sorted(coeffs):
        pair, g = tags[k]
        acc[pair] = G.mul(acc.get(pair, G.identity), G.power(g, coeffs[k]))
    values: dict[tuple[int, int], int] = {}
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


def _greedy_solve(D: DeltaPresentation, gamma: int, target: dict[int, int]):
    """Coefficients {row: c} of the target over the relation rows of the
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
    steps: list[list[tuple[int, list]]] = [[] for _ in rank]
    for (i, j), run in itertools.groupby(D.pair_rows, key=operator.itemgetter(0)):
        a, b = sorted((rank[i], rank[j]))
        steps[b].append((a, list(run)))
    n = D.ncols
    form = HowellForm(n, D.modulus, labels=len(D.pair_rows))
    tags: list[tuple[tuple[int, int], int]] = []
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
