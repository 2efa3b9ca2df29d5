"""Deciding leak-proofness of a finite group.

The abelian group built here glues the maximal abelian subgroups of G: one
block of coordinates per subgroup basis, and chain rows identifying the
discrete logs of each cyclic subgroup's generator g in the subgroups
i_1 < i_2 < ... that contain it, as dlog_{i_k}(g) - dlog_{i_{k+1}}(g).
They span the lattice of gluing every pair along its intersection: the
chain telescopes, and h = g^k gives k times g's row.  An element maps to
the canonical form of its coordinate vector.  Every vector here is sparse,
{column: value} without zeros, the one format ``embed`` builds and the
Howell form takes and returns, and phi is the sorted tuple of the
canonical form's nonzero (column, value) pairs.  The group is leak-proof
exactly when no nonidentity element maps to zero, and binary leak-proof
exactly when the map is injective.  Any kernel element is turned back
into an explicit leaking flow on a graph over the subgroups, with one edge
per subgroup pair the flow uses.

The chain rows reach the Howell form sorted by pair (j, i), the larger
index first: the form glues one subgroup at a time to those before it,
with all rows of a pair together, and a row of pair (i, j) meets only
pivot rows over the blocks up to j.  Absorbing them element by element,
each generator's chain at a time, takes two to three times the
elimination passes (es:3 74,852 against 22,795, sym:6 36,226 against
17,231).  The lattice is the same in any order, and reduction against a
saturated Howell form is canonical, so phi, the verdicts and the
witnesses do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InternalInvariantError, NotInKernel, TooLarge
from .flows import GroupFlow, LeakVerdict, detect_leak
from .graphs import Graph, graph_from
from .groups import (
    DEFAULT_MAX_ORDER,
    AbelianBasis,
    FiniteGroup,
    Subgroup,
    abelian_basis,
    discrete_log,
    maximal_abelian_subgroups,
)
from .howell import HowellForm

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
    """Presentation of the glued abelian group.

    Global coordinates are the concatenated subgroup bases.  ``pair_rows``
    tags each chain row ((i, j), g): dlog_i(g) - dlog_j(g) for subgroups
    i < j consecutive among those containing g, sorted by (j, i) and then
    by g, the order in which ``canonical`` absorbs them (see the module
    docstring).  The rows are not stored; ``relation_rows`` rebuilds them,
    and ``canonical`` is the Howell form of their span modulo ``modulus``.
    """

    group: FiniteGroup
    subgroups: tuple[Subgroup, ...]
    bases: tuple[AbelianBasis, ...]
    offsets: tuple[int, ...]
    generator_index: tuple[tuple[int, int], ...]
    modulus: int
    canonical: HowellForm
    pair_rows: tuple[tuple[tuple[int, int], int], ...]  # ((i, j), generator element)

    @property
    def ncols(self) -> int:
        return len(self.generator_index)

    def containing_index(self, gamma: int) -> int:
        """Index of the first maximal abelian subgroup containing gamma."""
        for i, H in enumerate(self.subgroups):
            if gamma in H:
                return i
        raise InternalInvariantError("element outside every maximal abelian subgroup")

    def embed(self, gamma: int, subgroup_index: Optional[int] = None) -> dict[int, int]:
        """gamma's coordinate vector {column: value}, read from its discrete
        log in one subgroup (by default the first that contains it)."""
        i = self.containing_index(gamma) if subgroup_index is None else subgroup_index
        offset = self.offsets[i]
        return {offset + t: a for t, a in enumerate(discrete_log(self.bases[i], gamma)) if a}

    def relation_rows(self) -> Iterator[tuple[dict[int, int], Optional[tuple[tuple[int, int], int]]]]:
        """Every relation row, sparse as {column: value mod m}, with its tag:
        the order row of each column (tag None; empty when the order is m),
        then embed(g, i) - embed(g, j) for each pair_rows tag ((i, j), g)."""
        m = self.modulus
        for col, (i, k) in enumerate(self.generator_index):
            order = self.bases[i].orders[k] % m
            yield ({col: order} if order else {}), None
        for tag in self.pair_rows:
            (i, j), g = tag
            row = self.embed(g, i)      # blocks i and j are disjoint
            row.update((col, m - a) for col, a in self.embed(g, j).items())
            yield row, tag

    def invariant_factors(self) -> list[int]:
        return self.canonical.invariant_factors()


def _chain_tags(G: FiniteGroup, subgroups: tuple[Subgroup, ...]) -> list[tuple[tuple[int, int], int]]:
    """Tags ((i_k, i_{k+1}), g) for the least-index generator g of each
    cyclic subgroup, over the subgroups i_1 < i_2 < ... that contain g;
    stably sorted by pair (j, i), the larger index first, so that the
    Howell form absorbs them pair by pair (see the module docstring)."""
    containing: list[list[int]] = [[] for _ in G.elements()]
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


def build_delta(G: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER) -> DeltaPresentation:
    """Assemble the glued-abelian-group presentation for G."""
    if G.order > max_order:
        raise TooLarge(G.order, max_order)
    subgroups = maximal_abelian_subgroups(G)
    bases = tuple(abelian_basis(H) for H in subgroups)
    offsets = [0]
    generator_index: list[tuple[int, int]] = []
    for i, basis in enumerate(bases):
        generator_index.extend((i, k) for k in range(len(basis.gens)))
        offsets.append(offsets[-1] + len(basis.gens))
    all_orders = [d for basis in bases for d in basis.orders]
    modulus = math.lcm(*all_orders) if all_orders else 1
    D = DeltaPresentation(
        group=G,
        subgroups=subgroups,
        bases=bases,
        offsets=tuple(offsets),
        generator_index=tuple(generator_index),
        modulus=modulus,
        canonical=HowellForm(offsets[-1], modulus),
        pair_rows=tuple(_chain_tags(G, subgroups)),
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
    delta: Optional[DeltaPresentation] = None


@dataclass(frozen=True)
class InjectivityVerdict:
    injective: bool
    collision: Optional[tuple[int, int]] = None
    delta: Optional[DeltaPresentation] = None


def is_leakproof_group(G: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER,
                       delta: Optional[DeltaPresentation] = None) -> LeakproofVerdict:
    """LeakProof when phi has trivial kernel fiber; else the first
    nonidentity element mapping to zero."""
    D = delta or build_delta(G, max_order)
    for gamma in G.elements():
        if gamma == G.identity:
            continue
        if not phi(D, gamma):
            return LeakproofVerdict(False, witness=gamma, delta=D)
    return LeakproofVerdict(True, delta=D)


def is_binary_leakproof_group(G: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER,
                              delta: Optional[DeltaPresentation] = None) -> InjectivityVerdict:
    """Injective phi (all normal forms pairwise distinct) or a colliding pair."""
    D = delta or build_delta(G, max_order)
    seen: dict[tuple[tuple[int, int], ...], int] = {}
    for gamma in G.elements():
        key = phi(D, gamma)
        if key in seen:
            return InjectivityVerdict(False, collision=(seen[key], gamma), delta=D)
        seen[key] = gamma
    return InjectivityVerdict(True, delta=D)


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
        if tags[k] is None:
            continue
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
    if (verdict.kind != LeakVerdict.LEAKS_AT or verdict.vertex != D.containing_index(gamma) + 1
            or verdict.value != gamma):
        raise InternalInvariantError("kernel witness flow failed re-certification")
    return graph, flow


def _greedy_solve(D: DeltaPresentation, gamma: int, target: dict[int, int]):
    """Coefficients {row: c} of the target over the relation rows of the
    smallest prefix family of subgroups (gamma's first, then by decreasing
    overlap with it) that expresses it, and the rows' tags."""
    igamma = D.containing_index(gamma)
    Hg = D.subgroups[igamma]
    rest = [i for i in range(len(D.subgroups)) if i != igamma]
    rest.sort(key=lambda i: (-len(D.subgroups[i]._member_set & Hg._member_set), i))
    # order rows keyed by their subgroup i, chain rows by their pair (i, j)
    rows_of: dict = {}
    for col, (row, tag) in enumerate(D.relation_rows()):
        key = D.generator_index[col][0] if tag is None else tag[0]
        rows_of.setdefault(key, []).append((row, tag))
    tracked = HowellForm(D.ncols, D.modulus, track=True)
    tags: list[Optional[tuple[tuple[int, int], int]]] = []
    chosen: list[int] = []
    for i in [igamma] + rest:
        for key in [i] + [(min(i, j), max(i, j)) for j in chosen]:
            for row, tag in rows_of.get(key, []):
                tracked.add_row(row)
                tags.append(tag)
        chosen.append(i)
        if tracked.contains(target):
            return tracked.solve(target), tags
    raise InternalInvariantError("full family does not express a certified member")
