"""Finite groups given by dense multiplication tables.

Elements are indices 0..order-1.  The module provides validated table
construction, a spec mini-language for the standard families (cyclic,
dihedral, quaternion, symmetric, alternating, the 2-group family ``es:n``
used by the flow examples, direct and central products, and tables read
from files), and conjugacy class identifiers.  One reader (``_plan``) reads
a spec left to right, term by term: each term but a product ends at its
comma, and every order is checked before any table is built.
Its maximal abelian subgroups and abelian bases with discrete logarithms
feed no decision: only the chain oracle in tests/helpers.py reads them,
and perfbench/spans.py traces them by name.

Element orders come from vectorised table lookups over many elements at
once, and an abelian subgroup's basis from one greedy loop over the
subgroup itself (``abelian_basis``).
"""

from __future__ import annotations

import itertools
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    CentreMismatch,
    DuplicateName,
    InternalInvariantError,
    NoIdentity,
    NoInverse,
    NotAbelian,
    NotAssociative,
    NotMember,
    ParseError,
    TooLarge,
    _clip,
)
from .howell import _prime_powers

DEFAULT_MAX_ORDER = 5040
MAX_TABLE_BYTES = 1 << 30       # the largest array a group builder may allocate
# the bytes of int32 rows each pass over a table takes at a time (_row_blocks)
_ASSOCIATIVITY_BLOCK_BYTES = 1 << 20


def _row_blocks(n: int, width: int):
    """Slices covering range(n) in order, each as many int32 rows of width
    entries as fit in _ASSOCIATIVITY_BLOCK_BYTES, and at least one row."""
    rows = max(1, _ASSOCIATIVITY_BLOCK_BYTES // (4 * width))
    return (slice(start, min(start + rows, n)) for start in range(0, n, rows))


def _square_table(table) -> np.ndarray:
    """table as a square int32 array with entries in range(order); a
    ParseError (NoIdentity when empty) says what it is not.  A bool, float
    or string entry is refused, not read as 0, 1, its integer part or its
    digits."""
    try:
        arr = np.asarray(table, dtype=np.int32)
    except OverflowError:
        raise ParseError("table entries out of range") from None
    except (TypeError, ValueError):
        raise ParseError("multiplication table must be a square array of integers") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParseError("multiplication table must be square")
    n = arr.shape[0]
    if n == 0:
        raise NoIdentity("empty table")
    types = ({table.dtype.type} if isinstance(table, np.ndarray)
             else set(map(type, itertools.chain.from_iterable(table))))
    if not all(issubclass(t, (int, np.integer)) and t is not bool for t in types):
        raise ParseError("table entries must be integers")
    # int64 or uint64 entries, in an array or a list, wrap in the cast to int32
    wide = any(issubclass(t, np.integer) and np.dtype(t).itemsize > 4 for t in types)
    checked = np.asarray(table) if wide else arr
    if checked.min() < 0 or checked.max() >= n:
        raise ParseError("table entries out of range")
    return arr


class FiniteGroup:
    """A finite group on element indices 0..order-1.

    The multiplication table is the single source of truth.  Every table,
    built-in or read from a file, is checked at construction time for a
    two-sided identity, two-sided inverses and associativity (Light's test
    on a generating set).  Element orders and commutativity are computed
    then too, so instances are immutable after construction and safe to
    share.

    ``generators`` is a hint for Light's test: element indices that a
    builder knows to generate the group, tried before the greedy choice
    (see ``_generating_set``).  It is never trusted: any element it leaves
    unreached is still added as a generator, so a wrong or empty hint can
    change only the cost of the check, never whether a table passes.
    Once built, ``generators`` is the tuple of generators Light's test ran
    on, which generate the group.
    """

    def __init__(self, table: np.ndarray, names: Sequence[str], spec: Optional[str] = None,
                 *, generators: Sequence[int] = ()):
        table = _square_table(table)
        n = table.shape[0]
        if len(names) != n:
            raise ParseError("need exactly one name per element")
        self.names = tuple(str(nm) for nm in names)
        if len(set(self.names)) != n:
            seen = set()
            for nm in self.names:
                if nm in seen:
                    raise DuplicateName(nm)
                seen.add(nm)
        self.order = n
        self.table = table
        self.table.setflags(write=False)
        self.spec = spec
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self.generators = tuple(self._check_associativity(generators))
        self._name_index = {nm: i for i, nm in enumerate(self.names)}
        self._orders = _element_orders(table, self.identity)
        # G is abelian exactly when the generators Light's test used commute
        self.is_abelian = all(table[g, h] == table[h, g]
                              for g, h in itertools.combinations(self.generators, 2))

    # -- construction checks ------------------------------------------------

    def _find_identity(self) -> int:
        n = self.order
        idx = np.arange(n)
        for e in range(n):
            if np.array_equal(self.table[e], idx) and np.array_equal(self.table[:, e], idx):
                return e
        raise NoIdentity("no two-sided identity element")

    def _find_inverses(self) -> np.ndarray:
        """Two-sided inverses, a block of rows at a time; NoInverse names
        the first element that has none."""
        T, e = self.table, self.identity
        inv = np.empty(self.order, dtype=np.int32)
        for block in _row_blocks(self.order, self.order):
            two_sided = (T[block] == e) & (T[:, block] == e).T
            missing = ~two_sided.any(axis=1)
            if missing.any():
                raise NoInverse(self.names[block.start + int(np.argmax(missing))])
            inv[block] = np.argmax(two_sided, axis=1)
        inv.setflags(write=False)
        return inv

    def _check_associativity(self, hint: Sequence[int] = ()) -> list[int]:
        """Light's test: (a g) b = a (g b) for all a, b and each generator g.

        The g that pass contain the identity and are closed under products,
        so when they generate the table the whole table is associative.
        Rows are compared a block (``_row_blocks``) at a time, so the test
        holds two such blocks, not two copies of the table.
        Returns the generators, those of ``_generating_set(hint)``.
        """
        T = self.table
        gens = self._generating_set(hint)
        for g in gens:
            for rows in _row_blocks(self.order, self.order):
                block = T[rows]
                lhs = T[block[:, g], :]          # (a g) b for the block's rows a
                rhs = block[:, T[g, :]]          # a (g b)
                if not np.array_equal(lhs, rhs):
                    a, b = np.argwhere(lhs != rhs)[0]
                    raise NotAssociative(self.names[rows.start + a], self.names[g],
                                         self.names[b])
        return gens

    def _generating_set(self, hint: Sequence[int] = ()) -> list[int]:
        """Generators that reach every element from the identity by right
        products: first the distinct elements of hint other than the
        identity, in hint order and closed in one pass, then greedily the
        least element not yet reached.  The hint is not trusted to generate
        anything, since the greedy rule completes the set whatever it
        holds; an element it names that the others reach stays, at the cost
        of one more Light pass.  An entry that is not an element index (a
        bool, a float, a negative or too large int) raises ValueError."""
        for h in hint:
            if (isinstance(h, bool) or not isinstance(h, (int, np.integer))
                    or not 0 <= h < self.order):
                raise ValueError(f"generator hint {h!r} is not an element index "
                                 f"below {self.order}")
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        gens = [h for h in dict.fromkeys(map(int, hint)) if h != self.identity]
        if gens:
            _right_closure(self.table, reached, gens)
        while not reached.all():
            gens.append(int(np.argmin(reached)))
            _right_closure(self.table, reached, gens)
        return gens

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        result = self.identity
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def prod(self, elements: Iterable[int]) -> int:
        result = self.identity
        for g in elements:
            result = self.mul(result, g)
        return result

    def commutes(self, a: int, b: int) -> bool:
        return self.table[a, b] == self.table[b, a]

    def elements(self) -> range:
        return range(self.order)

    def name(self, a: int) -> str:
        return self.names[a]

    def index_of(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise ParseError(f"unknown element name {_clip(name)!r}") from None

    def parse_word(self, word: str) -> int:
        """Parse products written as names joined by '*'; '1' is the identity
        unless an element is named '1'.  A whole word that is an element name
        is that element, so names that contain '*' themselves, such as
        "(x1*x2,1)", read back."""
        word = word.strip()
        if word in self._name_index:
            return self._name_index[word]
        result = self.identity
        for token in word.split("*"):
            token = token.strip()
            if token != "1" or token in self._name_index:
                result = self.mul(result, self.index_of(token))
        return result

    def element_orders(self) -> np.ndarray:
        return self._orders

    def center(self) -> tuple[int, ...]:
        everything = (1 << self.order) - 1
        return tuple(a for a, bits in enumerate(_commuting_bitsets(self))
                     if bits | 1 << a == everything)

    def __repr__(self) -> str:
        label = self.spec or "group"
        return f"FiniteGroup({label}, order={self.order})"


def conjugacy_class_id(G: FiniteGroup, g: int) -> int:
    """Canonical identifier of g's conjugacy class: the minimal member index."""
    return int(G.table[G.table[:, g], G.inverse].min())      # min over h of h g h^-1


# -- subgroups ----------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent`` given by its sorted member indices."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(int(m) for m in self.members)))

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, g: int) -> bool:
        return g in self._member_set

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @property
    def is_abelian(self) -> bool:
        return _abelian_table(self) is not None


def _abelian_table(H: Subgroup) -> Optional[np.ndarray]:
    """H's own multiplication table, or None when H is not abelian.  Member
    H.members[i] is label i, and entry [i, j] is the label of their
    product.  For all of G it is G's table, read with G's cached
    commutativity flag; otherwise one gather T[np.ix_(M, M)], checked for
    symmetry and relabelled (a product outside H gets the label |H|, out of
    range)."""
    G = H.parent
    if H.order == G.order:
        return G.table if G.is_abelian else None
    members = np.array(H.members)
    table = G.table[np.ix_(members, members)]
    if not np.array_equal(table, table.T):
        return None
    label = np.full(G.order, H.order, dtype=G.table.dtype)
    label[members] = np.arange(H.order)
    return label[table]


def _right_closure(T: np.ndarray, reached: np.ndarray, gens: list[int]) -> None:
    """Mark in ``reached`` every product x g_1 ... g_k of a reached x with
    generators from gens; one table lookup per frontier step."""
    frontier = np.nonzero(reached)[0]
    while frontier.size:
        new = np.zeros_like(reached)
        new[T[np.ix_(frontier, gens)].ravel()] = True
        new &= ~reached
        reached |= new
        frontier = np.nonzero(new)[0]


def _element_orders(T: np.ndarray, identity: int) -> np.ndarray:
    """Order of every element, read-only.  By Lagrange each order divides
    n = |T|, so for p^a exactly dividing n, x^(n / p^a) has the p-part of
    x's order as its order: that p-part is p^b for the least b with
    (x^(n / p^a))^(p^b) = 1.  Each power is taken for all elements at once
    by square-and-multiply, O(log n) table gathers per prime."""
    n = len(T)
    orders = np.ones(n, dtype=np.int64)
    for p, a in _prime_powers(n):
        y = _power_all(T, np.arange(n), n // p ** a)
        live = y != identity
        while live.any():
            orders[live] *= p
            y = _power_all(T, y, p)
            live = y != identity
    orders.setflags(write=False)
    return orders


def _power_all(T: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """x[i] ** k for every i and k >= 1, by square-and-multiply over the
    table."""
    result = None
    while True:
        if k & 1:
            result = x if result is None else T[result, x]
        k >>= 1
        if not k:
            return result
        x = T[x, x]


def _commuting_bitsets(G: FiniteGroup) -> list[int]:
    """Each element a's neighbours in the commuting graph as an int bitset,
    bit b set when ab = ba and b != a: one np.packbits of T == T.T, a block
    of rows (``_row_blocks``) at a time."""
    T = G.table
    masks = []
    for rows in _row_blocks(G.order, G.order):
        block = T[rows] == T[:, rows].T
        own = np.arange(len(block))
        block[own, rows.start + own] = False
        packed = np.packbits(block, axis=1, bitorder="little")
        masks.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return masks


def _maximal_cliques(neigh: list[int], n: int) -> list[int]:
    """Bron-Kerbosch with pivoting on bitset adjacency; returns clique bitsets.

    The search runs on an explicit stack of frames [r, p, x, candidates],
    so its depth is bounded by memory and not by the recursion limit.  A
    frame's candidates are P minus the pivot's neighbours, fixed when the
    frame is first reached, and are expanded lowest vertex first.
    """
    out: list[int] = []
    stack: list[list] = [[0, (1 << n) - 1, 0, None]]
    while stack:
        frame = stack[-1]
        r, p, x, candidates = frame
        if candidates is None:
            if p == 0 and x == 0:
                out.append(r)
                stack.pop()
                continue
            # the first vertex of P | X with the most neighbours in P
            pivot, most, rest = 0, -1, p | x
            while rest:
                bit = rest & -rest
                u = bit.bit_length() - 1
                if (count := (p & neigh[u]).bit_count()) > most:
                    pivot, most = u, count
                rest ^= bit
            candidates = p & ~neigh[pivot]
        if candidates == 0:
            stack.pop()
            continue
        bit = candidates & -candidates
        v = bit.bit_length() - 1
        frame[:] = [r, p & ~bit, x | bit, candidates ^ bit]
        stack.append([r | bit, p & neigh[v], x & neigh[v], None])
    return out


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def maximal_abelian_subgroups(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """All subgroups H with H abelian and H = centralizer(G, H).

    These are exactly the maximal cliques of the commuting graph: a maximal
    set of pairwise-commuting elements is automatically closed under
    products and inverses, hence a subgroup.  Elements with the same closed
    neighbourhood in that graph (the same centralizer) commute with each
    other and lie in the same maximal cliques, so the search runs on these
    centralizer classes, one vertex per class, and each clique of classes
    expands to the union of its classes (es:3 has 64 classes for 128
    elements, alt:7 807 for 2,520).  The result is sorted by members.
    """
    if G.is_abelian:
        return (Subgroup(G, tuple(range(G.order))),)
    neigh = _commuting_bitsets(G)
    by_neighbourhood: dict[int, list[int]] = {}
    for a, bits in enumerate(neigh):
        by_neighbourhood.setdefault(bits | 1 << a, []).append(a)
    classes = list(by_neighbourhood.values())
    class_of = [0] * G.order
    for c, members in enumerate(classes):
        for a in members:
            class_of[a] = c
    class_neigh = []
    for c, members in enumerate(classes):
        bits = 0
        for b in _bits(neigh[members[0]]):
            bits |= 1 << class_of[b]
        class_neigh.append(bits & ~(1 << c))
    subs = [Subgroup(G, tuple(a for c in _bits(clique) for a in classes[c]))
            for clique in _maximal_cliques(class_neigh, len(classes))]
    subs.sort(key=lambda s: s.members)
    return tuple(subs)


# -- abelian invariant-factor bases --------------------------------------------


@dataclass(frozen=True)
class AbelianBasis:
    """Invariant-factor basis of an abelian subgroup H.

    The map (a_1..a_k) -> prod gens_i^(a_i) is an isomorphism from
    Z/d_1 + ... + Z/d_k onto H, where ``orders`` = (d_1, ..., d_k) and
    d_1 | d_2 | ... | d_k.  ``dlog`` is its inverse: each member of H to
    its exponent vector, 0 <= a_i < d_i.  ``abelian_basis`` builds the
    table and checks that it is a bijection onto H.
    """

    gens: tuple[int, ...]
    orders: tuple[int, ...]
    dlog: dict[int, tuple[int, ...]] = field(compare=False, repr=False)


def abelian_basis(H: Subgroup) -> AbelianBasis:
    """Invariant-factor basis d_1 | d_2 | ... | d_k of an abelian subgroup.

    One greedy loop grows K = <g_1, ..., g_i> as a direct sum, with the
    discrete-log table of K alongside.  Each step takes the least x in H
    whose order f in H/K is largest, so f is the exponent of H/K.  Let
    e_j be the order of g_j; it is the exponent of H/K_j, where
    K_j = <g_1, ..., g_(j-1)>, and f | e_j since H/K is a quotient of
    H/K_j.  Write x^f = prod g_j^(a_j) by the table.  Then f divides every
    a_j: in H/K_j the images of g_j, ..., g_i still form a direct sum with
    g_j of order e_j, and x^(e_j) = 1 there, so raising x^f to the power
    e_j/f gives e_j | a_j e_j/f.  Hence x' = x prod g_j^(-a_j/f) has
    x'^f = 1 and order f, meets K trivially, and K + <x'> is direct.  The
    orders found satisfy e_(j+1) | e_j; the basis is returned reversed.
    This holds for any finite abelian group, so there is no split by
    primes.  The checks raise InternalInvariantError, naming what failed.

    The loop runs on H's own table (``_abelian_table``, which also decides
    that H is abelian), read one entry at a time through a memoryview: its
    work follows |H|, not |G|, and its memory is that int32 table.
    """
    table = _abelian_table(H)
    if table is None:
        raise NotAbelian(f"subgroup of order {H.order} is not abelian")
    G = H.parent
    T = memoryview(table)
    n, e = H.order, H.members.index(G.identity)
    element_orders = G.element_orders()[list(H.members)]
    # K in enumeration order: entry r is prod g_j^(a_j) for the digits a_j of r
    # in the mixed radix (e_i, ..., e_1), the newest generator's digit first
    elems = [e]
    pos = [-1] * n                               # label -> place in elems, -1 outside K
    pos[e] = 0
    gens: list[int] = []
    orders: list[int] = []
    while len(elems) < n:
        if not gens:                             # K = 1: orders in H/K are G's
            x = int(np.argmax(element_orders))
            fx = int(element_orders[x])
        else:                                    # orders in H/K are at most e_i
            fx = 1
            for h in range(n):
                k, cur = 1, h
                while pos[cur] < 0:
                    k += 1
                    cur = T[cur, h]
                if k > fx:
                    x, fx = h, k
                    if k == orders[-1]:
                        break
        y = x
        for _ in range(fx - 1):
            y = T[y, x]
        r, a = pos[y], []                        # a_1, ..., a_(i-1): oldest digit first
        for d in orders:
            r, aj = divmod(r, d)
            a.append(aj)
        if any(aj % fx for aj in a):
            raise InternalInvariantError(
                f"abelian basis: x^{fx} has exponents {a[::-1]} not divisible by {fx}")
        place = 1                                # the place value of g_j's digit
        for d, aj in zip(orders, a):
            x = T[x, elems[-(aj // fx) % d * place]]
            place *= d
        # K + <x> enumerated as x^t k, t-major: t is the new leading digit
        block = elems
        for _ in range(fx - 1):
            block = [T[x, k] for k in block]
            for k in block:
                if pos[k] >= 0:
                    raise InternalInvariantError("basis enumeration is not injective")
                pos[k] = len(elems)
                elems.append(k)
        gens.append(x)
        orders.append(fx)
    if len(elems) != n or min(pos) < 0:
        raise InternalInvariantError("basis does not enumerate the subgroup")
    members = H.members
    dlog = dict(zip((members[k] for k in elems), itertools.product(*map(range, orders[::-1]))))
    return AbelianBasis(tuple(members[x] for x in gens[::-1]), tuple(orders[::-1]), dlog)


def discrete_log(B: AbelianBasis, g: int) -> tuple[int, ...]:
    """Exponent vector (a_i) with prod gens_i^(a_i) = g, 0 <= a_i < d_i."""
    try:
        return B.dlog[int(g)]
    except KeyError:
        raise NotMember(f"element {g} is not in the subgroup") from None


# -- the 2-group family es:n ---------------------------------------------------


def _es_name(n: int, idx: int) -> str:
    """Element idx of es:n as a word: bit 0 of idx is z and bit k is x_k."""
    parts = ["z"] * (idx & 1) + [f"x{k}" for k in range(1, 2 * n + 1) if idx >> k & 1]
    return "*".join(parts) if parts else "1"


def es_group(n: int) -> FiniteGroup:
    """The group of order 2^(2n+1) on triples (eps, u, v) with the law
    (e1,u1,v1)(e2,u2,v2) = (e1+e2+<v1,u2>, u1+u2, v1+v2) over GF(2)."""
    return standard_group(f"es:{n}")


def _es_group_impl(n: int, spec: str) -> FiniteGroup:
    """Element idx has the bits eps + 2u + 2^(n+1) v, so a product XORs the
    indices and adds <v1, u2> to eps.  The table is filled a block of rows
    (``_row_blocks``) at a time.  x_1 ... x_2n (indices 1 << k) generate
    the group, z = x_1 x_(n+1) x_1 x_(n+1) included, and are the hint for
    Light's test."""
    idx = np.arange(1 << (2 * n + 1), dtype=np.int32)
    u, v = (idx >> 1) & ((1 << n) - 1), idx >> (n + 1)
    parity = np.array([bin(x).count("1") & 1 for x in range(1 << n)], dtype=np.int32)
    table = np.empty((idx.size, idx.size), dtype=np.int32)
    for rows in _row_blocks(idx.size, idx.size):
        table[rows] = parity[v[rows, None] & u]
        table[rows] ^= idx[rows, None] ^ idx
    return FiniteGroup(table, [_es_name(n, i) for i in range(idx.size)], spec=spec,
                       generators=[1 << k for k in range(1, 2 * n + 1)])


# -- standard families ---------------------------------------------------------


def _cyclic(n: int, spec: str) -> FiniteGroup:
    idx = np.arange(n, dtype=np.int32)
    table = idx[:, None] + idx[None, :]
    table %= n
    names = ["1"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    return FiniteGroup(table, names, spec=spec)


def _dihedral(n: int, spec: str) -> FiniteGroup:
    """Dihedral group with n rotations (order 2n); r^n = s^2 = 1, srs = r^-1.
    Element i + n*j is r^i s^j, and r^i1 s^j1 r^i2 s^j2 = r^(i1 +- i2) s^(j1 ^ j2),
    with - when j1 = 1.  The table is filled in place as table[j1, i1, j2, i2]."""
    i = np.arange(n, dtype=np.int32)
    table = np.empty((2, n, 2, n), dtype=np.int32)
    np.add(i[:, None, None], i, out=table[0])
    np.subtract(i[:, None, None], i, out=table[1])
    table %= n
    table[0, :, 1] += n
    table[1, :, 0] += n
    rotations = ["1", "r"] + [f"r{k}" for k in range(2, n)]
    names = rotations[:n] + [f"{r}*s" if k else "s" for k, r in enumerate(rotations[:n])]
    return FiniteGroup(table.reshape(2 * n, 2 * n), names, spec=spec)


def _quaternion() -> FiniteGroup:
    """Element 2a + s is (-1)^s times unit a of (1, i, j, k).  Units multiply
    by the XOR of their indices; negative[a, b] is 1 when that product of
    units a and b carries a minus sign."""
    negative = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    idx = np.arange(8)[:, None]
    a, s = idx >> 1, idx & 1
    table = 2 * (a ^ a.T) + (s ^ s.T ^ negative[a, a.T])
    names = [sign + unit for unit in "1ijk" for sign in ("", "-")]
    return FiniteGroup(table, names, spec="quaternion")


def _cycle_name_and_parity(perm: tuple[int, ...]) -> tuple[str, int]:
    """The cycle notation of a permutation of 0..n-1 (points from 1) and its
    parity, from one walk over its cycles."""
    seen = [False] * len(perm)
    parts, parity = [], 0
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            continue
        cycle, x = [], start
        while not seen[x]:
            seen[x] = True
            cycle.append(str(x + 1))
            x = perm[x]
        parts.append("(" + " ".join(cycle) + ")")
        parity ^= (len(cycle) - 1) & 1
    return "".join(parts) or "1", parity


def _perm_generators(n: int, even_only: bool) -> list[tuple[int, ...]]:
    """Two permutations of 0..n-1 that generate sym:n, or alt:n when
    even_only: (1 2) and (1 2 ... n); or (1 2 3) with (1 2 ... n) for odd n
    and (2 3 ... n) for even n (Coxeter & Moser); an empty list for the
    trivial groups sym:1, alt:1 and alt:2."""
    if n < (3 if even_only else 2):
        return []
    short = (1, 2, 0) if even_only else (1, 0)               # (1 2 3) or (1 2)
    first = 1 if even_only and n % 2 == 0 else 0
    return [short + tuple(range(len(short), n)),
            (*range(first), *range(first + 1, n), first)]    # (first+1 first+2 ... n)


def _perm_group(n: int, even_only: bool, spec: str) -> FiniteGroup:
    """sym:n, or alt:n when even_only, on the permutations of 0..n-1 in
    lexicographic order, so the identity is element 0 and (p_a o p_b)(x) =
    p_a[p_b[x]] is entry [a, b].

    The table is filled by a walk over the Cayley graph of two generators g
    (``_perm_generators``): the lexicographic base-n keys ascend, so one
    np.searchsorted over them finds L_g[x], the index of g o p_x, for every
    x at once.  Row 0 is the identity's, and each row a the walk reaches
    gives the row of g o p_a as L_g[row a], level by level, a block of rows
    (``_row_blocks``) at a time, so the table is the only array of order ** 2
    entries.  The same generators are FiniteGroup's hint for Light's test."""
    perms, names = [], []
    for p in itertools.permutations(range(n)):
        name, parity = _cycle_name_and_parity(p)
        if even_only and parity:
            continue
        perms.append(p)
        names.append(name)
    P = np.array(perms, dtype=np.int64)
    powers = np.array([n ** (n - 1 - k) for k in range(n)], dtype=np.int64)
    keys = P @ powers
    m = len(perms)
    left = [np.searchsorted(keys, np.asarray(g)[P] @ powers).astype(np.int32)   # g o p_x
            for g in _perm_generators(n, even_only)]
    table = np.empty((m, m), dtype=np.int32)
    table[0] = np.arange(m)
    reached = np.zeros(m, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int32)
    while frontier.size:
        level = []
        for L in left:
            child = L[frontier]
            new = ~reached[child]
            parent, child = frontier[new], child[new]
            reached[child] = True
            for block in _row_blocks(child.size, m):
                table[child[block]] = L[table[parent[block]]]
            level.append(child)
        frontier = np.concatenate([frontier[:0], *level])
    if not reached.all():
        raise InternalInvariantError(f"table build: the generators of {_clip(spec)} reach "
                                     f"{int(reached.sum())} of its {m} permutations")
    return FiniteGroup(table, names, spec=spec, generators=[int(L[0]) for L in left])


def _direct_product(A: FiniteGroup, B: FiniteGroup, spec: Optional[str]) -> FiniteGroup:
    na, nb = A.order, B.order
    # (a1, b1)(a2, b2) = (a1 a2, b1 b2), element (a, b) at index a * nb + b:
    # A's table spread over the blocks, scaled in place, then B's added in
    # place, so the int32 table is the only array of order ** 2 entries
    table = np.empty((na, nb, na, nb), dtype=np.int32)
    table[...] = A.table[:, None, :, None]
    table *= nb
    table += B.table[None, :, None, :]
    table = table.reshape(na * nb, na * nb)
    return FiniteGroup(table, _product_names(A, B), spec=spec)


def _product_names(A: FiniteGroup, B: FiniteGroup) -> list[str]:
    """The names of A x B's elements, (a, b) at index a * |B| + b."""
    return [f"({a},{b})" for a in A.names for b in B.names]


def designated_central_involution(G: FiniteGroup) -> Optional[int]:
    """The unique central element of order 2, if there is exactly one."""
    orders = G.element_orders()
    candidates = [z for z in G.center() if orders[z] == 2]
    return candidates[0] if len(candidates) == 1 else None


def _central_product(A: FiniteGroup, B: FiniteGroup, spec: str) -> FiniteGroup:
    """A x B modulo (za, zb), the factors' central involutions: the least
    member of each coset {x, x (za, zb)}, in A x B's order and with its
    names, (a, b) being a * |B| + b.  Products are gathered from A's and B's
    tables a block of rows (``_row_blocks``) at a time."""
    za = designated_central_involution(A)
    zb = designated_central_involution(B)
    if za is None or zb is None:
        raise CentreMismatch("central product needs a unique central involution in each factor")
    nb = B.order
    x = np.arange(A.order * nb, dtype=np.int32)
    rep = np.minimum(x, (A.table[:, za, None] * nb + B.table[:, zb]).ravel())
    coset = (np.cumsum(rep == x, dtype=np.int32) - 1)[rep]      # x -> its coset's index
    reps = x[rep == x]
    ra, rb = np.divmod(reps, nb)
    table = np.empty((ra.size, ra.size), dtype=np.int32)
    for rows in _row_blocks(ra.size, ra.size):
        prod = A.table[np.ix_(ra[rows], ra)]
        prod *= nb
        prod += B.table[np.ix_(rb[rows], rb)]
        table[rows] = coset[prod]
    names = _product_names(A, B)
    return FiniteGroup(table, [names[r] for r in reps.tolist()], spec=spec)


def group_from_cayley(table, names, spec: Optional[str] = None) -> FiniteGroup:
    """Validate a raw multiplication table.  As for every table, identity,
    inverses, associativity (Light's test on a generating set) and name
    uniqueness are checked; violations name the culprit."""
    return FiniteGroup(table, names, spec=spec)


def _parse_cayley_file(path: str, max_order: int,
                       order_only: bool = False) -> FiniteGroup | int:
    """A cayley: file: the order n, a line of n names, then n rows of n
    entries, with blank lines anywhere.  The order meets _check_size before
    any other line is read, and with order_only it is all that is read and
    returned; np.loadtxt reads the rows into the int32 table a block
    (``_row_blocks``) at a time, so no entry becomes a Python int."""
    if not path:
        raise ParseError("cayley:<path> needs a file path")
    try:
        with open(path) as f:
            lines = (ln for ln in f if not ln.isspace())
            order_line = next(lines, "").strip()
            if not order_line:
                raise ParseError(f"empty cayley file {_clip(path)}")
            if not (order_line.isascii() and order_line.isdecimal()):
                raise ParseError("cayley file: first line must be the order")
            # an order of at most 18 digits is named in full when it is refused
            n = int(order_line) if len(order_line) <= 18 else _bounded_int(order_line, max_order)
            _check_size(n, max_order)
            if order_only:
                return n
            names_line = next(lines, None)
            if names_line is None:
                raise ParseError("cayley file: truncated")
            names = names_line.split()
            if len(names) != n:
                raise ParseError(f"cayley file: expected {n} names, got {len(names)}")
            table = np.empty((n, n), dtype=np.int32)
            for rows in _row_blocks(n, n):
                block = list(itertools.islice(lines, rows.stop - rows.start))
                if len(block) < rows.stop - rows.start:
                    raise ParseError("cayley file: truncated")
                # reshape refuses rows of a wrong width, which ndmin=2 passes; numpy
                # 1.23 to 1.26 only warn when they read a float into an int column
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", DeprecationWarning)
                        table[rows] = np.loadtxt(
                            block, dtype=np.int32, comments=None, ndmin=2).reshape(len(block), n)
                except (ValueError, DeprecationWarning):
                    tokens = [ln.split() for ln in block]
                    if any(len(row) != n for row in tokens):
                        raise ParseError("cayley file: row width mismatch") from None
                    if all(re.fullmatch(r"[+-]?[0-9]+", t) for row in tokens for t in row):
                        raise ParseError("table entries out of range") from None   # beyond int32
                    raise ParseError("cayley file: table entries must be integers") from None
    except (OSError, UnicodeDecodeError) as exc:   # an OSError's text repeats the path
        reason = getattr(exc, "strerror", None) or exc
        raise ParseError(f"cannot read cayley file {_clip(path)}: {reason}") from None
    return group_from_cayley(table, names, spec=f"cayley:{path}")


# head -> the builder of the family head:n, given n and the text of its term
_FAMILIES = {
    "cyclic": lambda n, spec: _cyclic(n, spec),
    "dihedral": lambda n, spec: _dihedral(n, spec),
    "sym": lambda n, spec: _perm_group(n, False, spec),
    "alt": lambda n, spec: _perm_group(n, True, spec),
    "es": lambda n, spec: _es_group_impl(n, spec),
}


def _family_order(head: str, rest: str, max_order: int) -> tuple[int, int]:
    """n, written in ASCII digits, and the order of the group head:n, with
    head one of cyclic, dihedral, sym, alt and es.  An order past max_order
    is not always computed: every family has order at least n, so an n with
    more digits than max_order is refused unread, n! is multiplied out only
    while it stays within the bound, and 2^(2n+1) is compared by its bit
    length; each raises TooLarge naming the order in a few characters."""
    if not (rest.isascii() and rest.isdecimal()):
        raise ParseError(f"{head}:<n> needs a positive integer, got {_clip(head + ':' + rest)!r}")
    n = _bounded_int(rest, max_order)
    if n < 1:
        raise ParseError(f"{head}:<n> needs n >= 1")
    if head == "es":
        if 2 * n + 1 >= max_order.bit_length():
            raise TooLarge(f"2^{2 * n + 1}", max_order)
        return n, 1 << (2 * n + 1)
    if head in ("sym", "alt"):
        limit = max_order * (2 if head == "alt" else 1)
        order, k = 1, 1
        while k < n and order <= limit:
            k += 1
            order *= k
        if k < n:
            raise TooLarge(f"{n}!" + ("/2" if head == "alt" else ""), max_order)
        if head == "alt" and n >= 2:
            order //= 2
        return n, order
    return n, 2 * n if head == "dihedral" else n


def _bounded_int(digits: str, max_order: int) -> int:
    """The integer written by the decimal digits; TooLarge, without reading
    them, when they are more than max_order has."""
    digits = digits.lstrip("0")
    if len(digits) > len(str(max_order)):
        raise TooLarge(f"above 10^{len(digits) - 1}", max_order)
    return int(digits or "0")


def _check_size(order: int, max_order: int) -> None:
    """TooLarge, before anything is allocated, when order is above max_order
    or its int32 table, every builder's largest array, is above MAX_TABLE_BYTES."""
    if order > max_order:
        raise TooLarge(order, max_order)
    nbytes = 4 * order * order
    if nbytes > MAX_TABLE_BYTES:
        raise TooLarge(order, max_order, f"order {order} needs a {nbytes}-byte array, above "
                                         f"the table-memory bound of {MAX_TABLE_BYTES} bytes")


def _plan(spec: str, i: int, max_order: int) -> tuple[int, Callable[[], FiniteGroup], int]:
    """Read the term that starts at spec[i]: the order of the group it names,
    a function that builds it, and the index just past it.  product: and
    centprod: read two specs joined by a comma; every other term, a cayley:
    path included, ends at the next comma.  Every order, a cayley: file's
    from its first line, meets _check_size before anything is built; a
    factor its product repeats is built once."""
    comma = spec.find(",", i)
    term = spec[i:] if comma < 0 else spec[i:comma]
    head, colon, rest = term.partition(":")
    if colon and head in ("product", "centprod"):
        a = i + len(head) + 1
        order_a, build_a, mid = _plan(spec, a, max_order)
        if spec[mid:mid + 1] != ",":
            raise ParseError(f"cannot split product arguments {_clip(spec[a:])!r}")
        order_b, build_b, end = _plan(spec, mid + 1, max_order)
        term, same = spec[i:end], spec[a:mid] == spec[mid + 1:end]
        order = order_a * order_b // (2 if head == "centprod" else 1)
        join = _direct_product if head == "product" else _central_product

        def build() -> FiniteGroup:
            A = build_a()
            return join(A, A if same else build_b(), term)
    elif not term:
        raise ParseError("empty group spec")
    elif head == "cayley":
        order = _parse_cayley_file(rest, max_order, order_only=True)
        build = lambda: _parse_cayley_file(rest, max_order)
    elif term == "quaternion":
        order, build = 8, _quaternion
    elif head in _FAMILIES:
        n, order = _family_order(head, rest, max_order)
        build = lambda: _FAMILIES[head](n, term)
    else:
        raise ParseError("quaternion takes no arguments" if head == "quaternion"
                         else f"unknown group spec {_clip(term)!r}")
    _check_size(order, max_order)
    return order, build, i + len(term)


_MAX_PRODUCTS = 64


def standard_group(spec: str, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Build a group from the group-spec mini-language.

    Grammar: ``cyclic:<n> | dihedral:<n> | quaternion | sym:<n> | alt:<n> |
    es:<n> | product:<spec>,<spec> | centprod:<spec>,<spec> | cayley:<path>``,
    with n in ASCII digits.  ``_plan`` reads the spec left to right: every
    term but product: and centprod: ends at the next comma, a cayley: path
    too, and text left after the whole spec is refused.  Every order is
    checked before any build.  Spaces are dropped, except inside a cayley:
    path, which is trimmed.  Each group, factors included, records the text
    of its term as its ``spec``.
    """
    spec = re.sub(r"(cayley:) *([^,]*?) *(?=,|$)| ", r"\1\2", spec.strip())
    if spec.count("product:") + spec.count("centprod:") > _MAX_PRODUCTS:
        # each nested term is a few Python frames deep when planned and built
        raise ParseError(f"group spec has more than {_MAX_PRODUCTS} product: or centprod: terms")
    _, build, end = _plan(spec, 0, max_order)
    if end < len(spec):
        raise ParseError(f"unexpected {_clip(spec[end:])!r} after the group spec "
                         f"{_clip(spec[:end])!r}")
    return build()
