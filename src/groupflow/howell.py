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
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

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

    Rows are added incrementally.  With ``track=True`` every pivot carries
    its expression as a combination of the original input rows, enabling
    ``solve``.
    """

    def __init__(self, ncols: int, modulus: int, track: bool = False):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.ncols = ncols
        self.m = modulus
        self.track = track
        self.n_input = 0
        self._pivot_at: dict[int, int] = {}       # column -> index into _rows
        self._rows: list[np.ndarray] = []
        # each keeps the length n_input had when it was stored; _pad extends it
        self._coeffs: list[np.ndarray] = []

    # -- construction ---------------------------------------------------------

    def add_row(self, row: Sequence[int]) -> None:
        vec = np.asarray(row, dtype=np.int64) % self.m
        if vec.shape != (self.ncols,):
            raise ValueError("row width mismatch")
        coeff = None
        if self.track:
            coeff = np.zeros(self.n_input + 1, dtype=np.int64)
            coeff[self.n_input] = 1
        self.n_input += 1
        if self.m == 1:
            return
        self._absorb(vec, coeff)

    def _absorb(self, vec: np.ndarray, coeff: Optional[np.ndarray]) -> None:
        queue = [(vec, coeff)]
        while queue:
            v, c = queue.pop()
            nz = np.nonzero(v)[0]
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
                nz = np.nonzero(v)[0]

    # -- queries ---------------------------------------------------------------

    def _walk(self, v: Sequence[int],
              combo: Optional[np.ndarray]) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Reduce v against the pivots in column order.  When combo is given,
        each multiple of a pivot row taken from v is added to it as input-row
        coefficients, so that v = result + sum(combo_i * row_i) mod m."""
        vec = np.asarray(v, dtype=np.int64) % self.m
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

    def reduce(self, v: Sequence[int]) -> np.ndarray:
        """Canonical representative of v modulo the row space."""
        return self._walk(v, None)[0]

    def contains(self, v: Sequence[int]) -> bool:
        return not self.reduce(v).any()

    def solve(self, v: Sequence[int]) -> Optional[np.ndarray]:
        """Coefficients c over the input rows with sum(c_i * row_i) = v mod m,
        or None when v is outside the span.  Needs track=True."""
        if not self.track:
            raise ValueError("solve needs a coefficient-tracking form")
        vec, combo = self._walk(v, np.zeros(self.n_input, dtype=np.int64))
        return None if vec.any() else combo

    def pivot_matrix(self) -> np.ndarray:
        cols = sorted(self._pivot_at)
        if not cols:
            return np.zeros((0, self.ncols), dtype=np.int64)
        return np.stack([self._rows[self._pivot_at[j]] for j in cols])

    def _quotient_order(self) -> int:
        """|(Z/m)^ncols / rowspace|: the form is saturated, so the span has
        prod(m / d) elements over the pivot values d."""
        order = self.m ** (self.ncols - len(self._pivot_at))
        for j, idx in self._pivot_at.items():
            order *= int(self._rows[idx][j])
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
        rows = self.pivot_matrix()
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


def _pad(c: Optional[np.ndarray], size: int) -> np.ndarray:
    if c is None:
        return np.zeros(size, dtype=np.int64)
    if c.size == size:
        return c
    out = np.zeros(size, dtype=np.int64)
    out[: c.size] = c
    return out


def lattice_normal_form(rows: Sequence[Sequence[int]], modulus: int,
                        ncols: Optional[int] = None) -> HowellForm:
    """Canonical row-space form over Z/modulus with membership and solve."""
    rows = [list(r) for r in rows]
    if ncols is None:
        if not rows:
            raise ValueError("need ncols when no rows are given")
        ncols = len(rows[0])
    form = HowellForm(ncols, modulus, track=True)
    for r in rows:
        form.add_row(r)
    return form
