"""Row-space canonical forms over Z/m.

The engine behind the group-leak decision: an incremental Howell-style
echelon form of an integer row lattice modulo m.  Pivot values divide m,
pivot rows have zeros left of their pivot, and for every pivot the
annihilator multiple of its row is re-inserted, which saturates the span
so that reduction against the pivots yields a canonical coset
representative (Howell, "Spans in the module (Z_m)^s", 1986; Storjohann &
Mulders, "Fast algorithms for linear algebra modulo N", ESA 1998).
Saturation also makes the quotient's order the product of the pivot values
times m per pivot-free column.  Membership, solving over the rows added
(through label columns, see ``HowellForm``), and the invariant factors of
a quotient, read from the orders of its reductions modulo each prime power
of m, all use this one form and its one elimination path.

Rows are stored sparse, as dicts {column: value} of Python ints without
zeros.  The group-leak decision's relation rows have at most three
nonzeros among hundreds of columns, and its pivot rows stay short, so an
elimination step costs the nonzeros of the two rows it combines rather
than the width of the matrix.  Every vector goes in and comes out in that
one format: rows and queries are {column: value} dicts, ``reduce`` returns
one and ``solve`` returns {input row: coefficient}, so no dense vector is
built per relation row or per query.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping, Optional, Sequence

import numpy as np


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _unit_scale(a: int, m: int) -> tuple[int, int]:
    """A unit u mod m with (u * a) % m == gcd(a, m)."""
    a %= m
    g = math.gcd(a, m)
    b = a // g
    mg = m // g
    u = pow(b, -1, mg)
    while math.gcd(u, m) != 1:
        u += mg
    return u % m, g


class HowellForm:
    """Canonical form of the row space of integer vectors modulo m.

    Rows are added incrementally.  Each pivot row is stored sparse, as a
    dict {column: value} of Python ints with the zeros dropped, so a step
    of the elimination touches only the nonzero entries of the two rows it
    combines; the leading column of a row is its least key.  Rows and query
    vectors go in as {column: value}, their values read modulo m; results
    come out the same way, without zeros.

    Columns ``ncols .. ncols + labels - 1`` are labels: they ride along in
    every step but never hold a pivot.  A row added with a 1 in label
    column ``ncols + k`` records that it is input row k, and reducing an
    unlabelled vector leaves in its labels minus the combination of input
    rows it took away.
    """

    def __init__(self, ncols: int, modulus: int, *, labels: int = 0):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.ncols = ncols
        self.labels = labels
        self.m = modulus
        self._pivot_at: dict[int, int] = {}       # column -> index into _rows
        self._rows: list[dict[int, int]] = []

    # -- construction ---------------------------------------------------------

    def _vector(self, row: Mapping[int, int]) -> dict[int, int]:
        """row as {column: value mod m} with the zeros dropped; a ValueError
        for a column outside the coordinates and labels."""
        m, width = self.m, self.ncols + self.labels
        vec = {}
        for j, a in row.items():
            if not 0 <= j < width:
                raise ValueError(f"column {j} out of range")
            a = int(a) % m
            if a:
                vec[j] = a
        return vec

    def add_row(self, row: Mapping[int, int]) -> None:
        """Absorb a row {column: value}; values are taken modulo m, so zeros
        and negative values may appear."""
        vec = self._vector(row)
        if self.m > 1:
            self._absorb(vec)

    def _absorb(self, vec: dict[int, int]) -> None:
        # stops at the first label column: a row without coordinates is dropped
        m, n = self.m, self.ncols
        queue = [vec]
        while queue:
            v = queue.pop()
            while v:
                j = min(v)
                if j >= n:
                    break
                pivot_idx = self._pivot_at.get(j)
                if pivot_idx is None:
                    u, g = _unit_scale(v[j], m)
                    v = _scale(v, u, m)
                    self._pivot_at[j] = len(self._rows)
                    self._rows.append(v)
                    ann = _scale(v, m // g, m)
                    if ann:
                        queue.append(ann)
                    break
                r = self._rows[pivot_idx]
                p = r[j]
                a = v[j]
                if a % p == 0:
                    _add_multiple(v, -(a // p), r, m)
                else:
                    g, s, t = _egcd(p, a)
                    new = _scale(r, s, m)
                    _add_multiple(new, t, v, m)
                    old = dict(r)
                    _add_multiple(old, -(p // g), new, m)
                    _add_multiple(v, -(a // g), new, m)
                    self._rows[pivot_idx] = new
                    if old:
                        queue.append(old)
                    ann = _scale(new, m // g, m)
                    if ann:
                        queue.append(ann)

    # -- queries ---------------------------------------------------------------

    def reduce(self, v: Mapping[int, int]) -> dict[int, int]:
        """Canonical representative of v modulo the row space, as
        {column: value}; its coordinates are empty exactly when v is in the
        span.  The pivots are visited in column order, only where the
        reduced vector is nonzero: a pivot row is zero left of its pivot, so
        a step adds nonzeros only to the right of the column it clears."""
        vec = self._vector(v)
        heap = sorted(vec)              # a sorted list is a heap
        while heap:
            j = heapq.heappop(heap)
            idx = self._pivot_at.get(j)
            if idx is None or j not in vec:
                continue
            r = self._rows[idx]
            q = vec[j] // r[j]
            if q:
                for k in r:
                    if k not in vec:
                        heapq.heappush(heap, k)
                _add_multiple(vec, -q, r, self.m)
        return vec

    def contains(self, v: Mapping[int, int]) -> bool:
        return all(j >= self.ncols for j in self.reduce(v))

    def solve(self, v: Mapping[int, int]) -> Optional[dict[int, int]]:
        """Coefficients {input row k: c} with sum(c * row_k) = v mod m over
        the labelled rows, or None when the unlabelled v is outside the
        span: the label part of v's reduction, negated."""
        if not self.labels:
            raise ValueError("solve needs a form with label columns")
        n, m = self.ncols, self.m
        combo = {}
        for j, a in self.reduce(v).items():
            if j < n:
                return None
            combo[j - n] = m - a
        return combo

    def pivot_rows(self) -> list[dict[int, int]]:
        """Copies of the pivot rows as {column: value}, in pivot-column
        order; they span the same lattice as the rows added."""
        return [dict(self._rows[self._pivot_at[j]]) for j in sorted(self._pivot_at)]

    def pivot_matrix(self) -> np.ndarray:
        rows = self.pivot_rows()
        out = np.zeros((len(rows), self.ncols + self.labels), dtype=np.int64)
        for i, row in enumerate(rows):
            out[i, list(row)] = list(row.values())
        return out

    def quotient_order(self) -> int:
        """|(Z/m)^ncols / rowspace|: the form is saturated, so the span has
        prod(m / d) elements over the pivot values d."""
        order = self.m ** (self.ncols - len(self._pivot_at))
        for j, idx in self._pivot_at.items():
            order *= self._rows[idx][j]
        return order


def invariant_factors(orders: Sequence[int], rows: Sequence[Mapping[int, int]],
                      order: int) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of Q = (Z/o_0 + ... + Z/o_(n-1)) /
    span(rows) for the column orders o_c, with trivial factors dropped;
    ``order`` is |Q|.

    For each prime power p^j dividing the orders' lcm, Q / p^jQ has order
    p^s_j with s_j = sum(min(e_i, j)) over the cyclic factors Z/p^e_i of
    Q's p-part.  So s_j - s_(j-1) factors have e_i >= j, and multiplying
    that many of the last entries by p, level after level, builds the
    sorted divisor chain.  At the top level p^k, with p^k exactly dividing
    the lcm, Q / p^kQ is Q's whole p-part, so s_k is the exponent of p in
    |Q|.  Each lower level takes a form; see ``_level_exponent``.
    """
    n = len(orders)
    factors = [1] * n
    top = dict(_prime_powers(order))
    for p, k in _prime_powers(math.lcm(*orders)):
        live = {c: t for t, c in enumerate(c for c, o in enumerate(orders) if o % p == 0)}
        restricted = [{live[c]: a for c, a in r.items() if c in live} for r in rows] if k > 1 else []
        prev = 0
        for j in range(1, k + 1):
            s = top.get(p, 0) if j == k else _level_exponent(p, j, orders, live, restricted)
            for i in range(n - s + prev, n):
                factors[i] *= p
            prev = s
    return [f for f in factors if f > 1]


def _level_exponent(p: int, j: int, orders: Sequence[int], live: dict[int, int],
                    rows: list[dict[int, int]]) -> int:
    """s with |Q / p^jQ| = p^s.  Q / p^jQ is (Z/p^j)^n modulo the rows and
    the order rows gcd(o_c, p^j) e_c.  A column whose order p does not
    divide is killed by its unit order row, so the level keeps only the
    ``live`` columns, renumbered, that p divides (``rows`` are restricted
    to them), and absorbs their order rows before the rows: the other way
    round, each order row meets every pivot row that reaches its column."""
    q = p ** j
    level = HowellForm(len(live), q)
    for c, t in live.items():
        if orders[c] % q:
            level.add_row({t: math.gcd(orders[c], q)})
    for r in rows:
        level.add_row(r)
    # the order is p^s exactly, and a float log misses s by far less than 1/2
    return round(math.log(level.quotient_order(), p))


def _prime_powers(m: int) -> list[tuple[int, int]]:
    """(p, k) for every prime p with p^k exactly dividing m."""
    out, p = [], 2
    while m > 1:
        k = 0
        while m % p == 0:
            m, k = m // p, k + 1
        if k:
            out.append((p, k))
        p += 1
    return out


def _scale(x: dict[int, int], s: int, m: int) -> dict[int, int]:
    """s * x mod m, zeros dropped."""
    out = {}
    for k, a in x.items():
        b = a * s % m
        if b:
            out[k] = b
    return out


def _add_multiple(x: dict[int, int], s: int, y: dict[int, int], m: int) -> None:
    """x += s * y mod m in place, zeros dropped."""
    for k, b in y.items():
        a = (x.get(k, 0) + s * b) % m
        if a:
            x[k] = a
        else:
            x.pop(k, None)
