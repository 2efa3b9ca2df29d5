"""Row-space canonical forms over Z/m.

The engine behind the group-leak decision: an incremental Howell-style
echelon form of an integer row lattice modulo m.  Pivot values divide m,
pivot rows have zeros left of their pivot, and for every pivot the
annihilator multiple of its row is re-inserted, which saturates the span
so that reduction against the pivots yields a canonical coset
representative (Howell, "Spans in the module (Z_m)^s", 1986; Storjohann &
Mulders, "Fast algorithms for linear algebra modulo N", ESA 1998).
Saturation also makes the quotient's order the product of the pivot values
times m per pivot-free column.  Membership, solving for coefficients over
the original rows, and the quotient's invariant factors, read from the
orders of its reductions modulo each prime power of m, all use this one
form.

Rows are stored sparse, as dicts {column: value} of Python ints without
zeros.  The relation rows of a glued group have a handful of nonzeros
among hundreds of columns, and so do the pivot rows, so an elimination
step costs the nonzeros of the two rows it combines rather than the width
of the matrix.  Every vector goes in and comes out in that one format:
rows and queries are {column: value} dicts, ``reduce`` returns one and
``solve`` returns {input row: coefficient}, so no dense vector is built
per relation row or per query.  The form is canonical whatever order its
rows come in, but the work is not.  The group-leak decision feeds its rows
sorted by the later of the two subgroup blocks they join (pair order,
see ``groupleak``): every pivot row then lies within the blocks glued so
far, and a new row meets no pivot beyond them.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping, Optional

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
    combines; the leading column of a row is its least key.  With
    ``track=True`` every pivot carries its expression as a combination of
    the original input rows, stored the same way as {input row: value},
    enabling ``solve``.  Rows and query vectors go in as {column: value},
    their values read modulo m; results come out the same way, without
    zeros.
    """

    def __init__(self, ncols: int, modulus: int, track: bool = False):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.ncols = ncols
        self.m = modulus
        self.track = track
        self.n_input = 0
        self._pivot_at: dict[int, int] = {}       # column -> index into _rows
        self._rows: list[dict[int, int]] = []
        self._coeffs: list[Optional[dict[int, int]]] = []

    # -- construction ---------------------------------------------------------

    def _vector(self, row: Mapping[int, int]) -> dict[int, int]:
        """row as {column: value mod m} with the zeros dropped; a ValueError
        for a column outside range(ncols)."""
        m = self.m
        vec = {}
        for j, a in row.items():
            if not 0 <= j < self.ncols:
                raise ValueError(f"column {j} out of range")
            a = int(a) % m
            if a:
                vec[j] = a
        return vec

    def add_row(self, row: Mapping[int, int]) -> None:
        """Absorb a row {column: value}; values are taken modulo m, so zeros
        and negative values may appear."""
        vec = self._vector(row)
        coeff = {self.n_input: 1} if self.track else None
        self.n_input += 1
        if self.m == 1:
            return
        self._absorb(vec, coeff)

    def _absorb(self, vec: dict[int, int], coeff: Optional[dict[int, int]]) -> None:
        m = self.m
        queue = [(vec, coeff)]
        while queue:
            v, c = queue.pop()
            while v:
                j = min(v)
                pivot_idx = self._pivot_at.get(j)
                if pivot_idx is None:
                    u, g = _unit_scale(v[j], m)
                    v = _scale(v, u, m)
                    if c is not None:
                        c = _scale(c, u, m)
                    self._pivot_at[j] = len(self._rows)
                    self._rows.append(v)
                    self._coeffs.append(c)
                    ann = _scale(v, m // g, m)
                    if ann:
                        queue.append((ann, None if c is None else _scale(c, m // g, m)))
                    break
                r = self._rows[pivot_idx]
                cr = self._coeffs[pivot_idx]
                p = r[j]
                a = v[j]
                if a % p == 0:
                    q = a // p
                    _add_multiple(v, -q, r, m)
                    if c is not None:
                        _add_multiple(c, -q, cr, m)
                else:
                    g, s, t = _egcd(p, a)
                    new = _scale(r, s, m)
                    _add_multiple(new, t, v, m)
                    old = dict(r)
                    _add_multiple(old, -(p // g), new, m)
                    _add_multiple(v, -(a // g), new, m)
                    new_c = old_c = None
                    if c is not None:
                        new_c = _scale(cr, s, m)
                        _add_multiple(new_c, t, c, m)
                        old_c = dict(cr)
                        _add_multiple(old_c, -(p // g), new_c, m)
                        _add_multiple(c, -(a // g), new_c, m)
                    self._rows[pivot_idx] = new
                    self._coeffs[pivot_idx] = new_c
                    if old:
                        queue.append((old, old_c))
                    ann = _scale(new, m // g, m)
                    if ann:
                        queue.append((ann, None if new_c is None else _scale(new_c, m // g, m)))

    # -- queries ---------------------------------------------------------------

    def _walk(self, v: Mapping[int, int], combo: Optional[dict[int, int]]
              ) -> tuple[dict[int, int], Optional[dict[int, int]]]:
        """Reduce v against the pivots in column order, visiting only the
        columns where the reduced vector is nonzero: a pivot row is zero
        left of its pivot, so a step adds nonzeros only to the right of the
        column it clears.  When combo is given, each multiple of a pivot
        row taken from v is added to it as input-row coefficients, so that
        v = result + sum(combo_i * row_i) mod m."""
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
                if combo is not None:
                    _add_multiple(combo, q, self._coeffs[idx], self.m)
        return vec, combo

    def reduce(self, v: Mapping[int, int]) -> dict[int, int]:
        """Canonical representative of v modulo the row space, as
        {column: value}; empty exactly when v is in the span."""
        return self._walk(v, None)[0]

    def contains(self, v: Mapping[int, int]) -> bool:
        return not self._walk(v, None)[0]

    def solve(self, v: Mapping[int, int]) -> Optional[dict[int, int]]:
        """Coefficients {input row: c} with sum(c * row) = v mod m, or None
        when v is outside the span.  Needs track=True."""
        if not self.track:
            raise ValueError("solve needs a coefficient-tracking form")
        vec, combo = self._walk(v, {})
        return None if vec else combo

    def pivot_matrix(self) -> np.ndarray:
        cols = sorted(self._pivot_at)
        out = np.zeros((len(cols), self.ncols), dtype=np.int64)
        for i, j in enumerate(cols):
            row = self._rows[self._pivot_at[j]]
            out[i, list(row)] = list(row.values())
        return out

    def _quotient_order(self) -> int:
        """|(Z/m)^ncols / rowspace|: the form is saturated, so the span has
        prod(m / d) elements over the pivot values d."""
        order = self.m ** (self.ncols - len(self._pivot_at))
        for j, idx in self._pivot_at.items():
            order *= self._rows[idx][j]
        return order

    def invariant_factors(self) -> list[int]:
        """Invariant factors d_1 | d_2 | ... of Q = (Z/m)^ncols / rowspace,
        with trivial factors dropped.

        For each prime power p^j dividing m, Q / p^jQ is (Z/p^j)^ncols
        modulo the pivot rows, of order p^s_j with s_j = sum(min(e_i, j))
        over the cyclic factors Z/p^e_i of Q's p-part.  So s_j - s_(j-1)
        factors have e_i >= j, and multiplying that many of the last
        entries by p, level after level, builds the sorted divisor chain.
        """
        factors = [1] * self.ncols
        rows = [self._rows[self._pivot_at[j]] for j in sorted(self._pivot_at)]
        for p, k in _prime_powers(self.m):
            prev = 0
            for j in range(1, k + 1):
                level = HowellForm(self.ncols, p ** j)
                for r in rows:
                    level.add_row(r)
                # the order is p^s exactly, and a float log misses s by far less than 1/2
                s = round(math.log(level._quotient_order(), p))
                for i in range(self.ncols - s + prev, self.ncols):
                    factors[i] *= p
                prev = s
        return [f for f in factors if f > 1]


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
