"""Matrices over the exact rings, with two independent exact determinants.

Over a cyclotomic ring the determinant is computed by fraction-free
(Bareiss) elimination: denominators are cleared up front, every
intermediate entry is then a minor of an integer-coefficient matrix over
Z[zeta_M], and each step divides exactly by the previous pivot.  Over
Z/m, and as a cross-check oracle everywhere, a division-free expansion
over column subsets is used (exponential, fine at the small sizes where
it is applied).  Over Z/m the expansion runs on the residues as plain
ints, one minor per column subset in a list indexed by the subset's mask,
each reduced mod m; over a cyclotomic ring it runs on the ring elements,
as the oracle for Bareiss.

Elements of Z[zeta_M] are integer vectors of length phi(M) on the power
basis, and multiplying by x is the phi(M) x phi(M) integer matrix
``_mult_rows(x)`` whose column j is x * zeta^j.  Dividing by the previous
pivot q is multiplying by its adjugate adj (the product of its nontrivial
Galois conjugates) and dividing exactly by the integer norm n0 = adj * q.
Step k folds adj into the two multipliers, so entry (i, j) becomes

    (adj * p_k) * a_ij + (-adj * m_ik) * a_kj,  then divided by n0,

and with ``top`` and ``low`` the multiplication matrices of the two
bracketed factors (``top`` once per step, ``low`` once per row), every
output coefficient is one dot product of a row of ``top | low`` with
``a_ij | a_kj``, summed in C.  An entry costs 2 * phi(M)^2 integer
multiplications and no polynomial reduction; building ``low`` adds
O(phi(M)^2) per row, and the next adjugate O(phi(M)^3) per step.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from .exactring import CycloElem, CycloRing, ModRing


class RingMatrix:
    """Rectangular matrix with entries from one ring, row-major."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows: int, cols: int, entries: Sequence):
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match the shape")
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, ring, rows: Sequence[Sequence]) -> "RingMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat = []
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
            flat.extend(row)
        return cls(ring, nrows, ncols, flat)

    def at(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other):
        if isinstance(other, RingMatrix):
            return (self.ring == other.ring and self.rows == other.rows
                    and self.cols == other.cols and self.entries == other.entries)
        return NotImplemented

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols} over {self.ring!r})"

    def to_json(self):
        """Nested lists: Z/m entries as ints, cyclotomic entries as coefficient strings."""
        if isinstance(self.ring, ModRing):
            return [[e.value for e in self.row(i)] for i in range(self.rows)]
        return [[e.coeff_strings() for e in self.row(i)] for i in range(self.rows)]


def determinant(mat: RingMatrix):
    """Exact determinant: Bareiss over a cyclotomic ring, expansion over Z/m."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    if isinstance(mat.ring, ModRing):
        return determinant_expansion(mat)
    if isinstance(mat.ring, CycloRing):
        return _det_cyclo(mat)
    raise TypeError(f"unsupported ring {mat.ring!r}")


def determinant_expansion(mat: RingMatrix):
    """Division-free determinant by memoized expansion over column subsets."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    ring = mat.ring
    if n == 0:
        return ring.one
    rows = [mat.row(i) for i in range(n)]
    if isinstance(ring, ModRing):
        return ring.element(_expansion_mod([[e.value for e in row] for row in rows],
                                           ring.modulus))
    memo = {}

    def minor(mask: int):
        if mask == (1 << n) - 1:
            return ring.one
        cached = memo.get(mask)
        if cached is not None:
            return cached
        r = bin(mask).count("1")
        acc = ring.zero
        sign = 1
        for j in range(n):
            if mask & (1 << j):
                continue
            term = rows[r][j] * minor(mask | (1 << j))
            acc = acc + term if sign > 0 else acc - term
            sign = -sign
        memo[mask] = acc
        return acc

    return minor(0)


def _expansion_mod(rows: list[list[int]], m: int) -> int:
    """The same expansion on residues as ints, bottom-up over a mask-indexed list.

    minors[mask] is the minor of rows popcount(mask).. on the columns outside
    mask, reduced mod m; a mask only reads larger masks, so descending order
    fills the list.
    """
    n = len(rows)
    full = (1 << n) - 1
    minors = [0] * (full + 1)
    minors[full] = 1
    by_bit = [{1 << j: c for j, c in enumerate(row)} for row in rows]
    for mask in range(full - 1, -1, -1):
        row = by_bit[mask.bit_count()]
        free = full ^ mask
        acc = 0
        negate = False
        while free:
            low = free & -free
            term = row[low] * minors[mask | low]
            acc = acc - term if negate else acc + term
            negate = not negate
            free ^= low
        minors[mask] = acc % m
    return minors[0]


# -- Bareiss elimination over Z[zeta_M], denominators cleared ----------


def _det_cyclo(mat: RingMatrix) -> CycloElem:
    ring: CycloRing = mat.ring
    n = mat.rows
    if n == 0:
        return ring.one
    p = ring.prime
    shift = max(e.exp for e in mat.entries)
    if ring.degree == 1:
        rows = [[mat.at(i, j).nums[0] * p ** (shift - mat.at(i, j).exp) for j in range(n)]
                for i in range(n)]
        det = _bareiss_int(rows)
        return CycloElem(ring, (det,), n * shift)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = mat.at(i, j)
            s = p ** (shift - e.exp)
            row.append([c * s for c in e.nums])
        rows.append(row)
    det_vec = _bareiss_vec(rows, ring)
    return CycloElem(ring, det_vec, n * shift)


def _bareiss_int(m: list[list[int]]) -> int:
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        rowk = m[k]
        for i in range(k + 1, n):
            rowi = m[i]
            mik = rowi[k]
            for j in range(k + 1, n):
                rowi[j] = (pk * rowi[j] - mik * rowk[j]) // prev
            rowi[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]


def _mult_rows(x: list[int], ring: CycloRing) -> list[tuple[int, ...]]:
    """Rows of the integer matrix of multiplication by x mod Phi_M.

    Column j is x * zeta^j: the previous column shifted up one power, with
    the overflow coefficient folded back through the monic modulus tail.
    """
    tail = ring._mod_tail
    col = list(x)
    cols = [col]
    for _ in range(ring.degree - 1):
        c = col[-1]
        col = [0] + col[:-1]
        if c:
            for j, mj in tail:
                col[j] -= mj * c
        cols.append(col)
    return list(zip(*cols))


def _vec_mul(a: list[int], b: list[int], ring: CycloRing) -> list[int]:
    return [sum(map(mul, row, b)) for row in _mult_rows(a, ring)]


def _vec_conjugate(vec: list[int], t: int, ring: CycloRing) -> list[int]:
    M = ring.conductor
    out = [0] * M
    for i, c in enumerate(vec):
        if c:
            out[(i * t) % M] += c
    return ring.reduce_vector(out)


def _vec_adjugate_norm(vec: list[int], ring: CycloRing) -> tuple[list[int], int]:
    """Product of the nontrivial conjugates of vec, and the integer norm."""
    M = ring.conductor
    adj = [1] + [0] * (ring.degree - 1)
    for t in range(2, M):
        if math.gcd(t, M) == 1:
            adj = _vec_mul(adj, _vec_conjugate(vec, t, ring), ring)
    full = _vec_mul(adj, vec, ring)
    if any(full[1:]):
        raise ArithmeticError("norm left the scalar subring; arithmetic bug")
    return adj, full[0]


def _bareiss_vec(m: list[list[list[int]]], ring: CycloRing) -> list[int]:
    n = len(m)
    sign = 1
    prev_adj = [1] + [0] * (ring.degree - 1)
    prev_n0 = 1
    for k in range(n - 1):
        if not any(m[k][k]):
            for r in range(k + 1, n):
                if any(m[r][k]):
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return [0] * ring.degree
        pk = m[k][k]
        rowk = m[k]
        # (pk * a_ij - m_ik * a_kj) * adj / n0, with adj * prev pivot = n0 in Z
        top = _mult_rows(_vec_mul(prev_adj, pk, ring), ring)
        for i in range(k + 1, n):
            rowi = m[i]
            low = _mult_rows(_vec_mul(prev_adj, [-c for c in rowi[k]], ring), ring)
            both = [t + u for t, u in zip(top, low)]
            for j in range(k + 1, n):
                vec = [sum(map(mul, row, rowi[j] + rowk[j])) for row in both]
                if prev_n0 != 1:  # c % n0 and c // n0 for each c, mapped in C
                    if any(map(prev_n0.__rmod__, vec)):
                        raise ArithmeticError("Bareiss division was not exact")
                    vec = list(map(prev_n0.__rfloordiv__, vec))
                rowi[j] = vec
            rowi[k] = [0] * ring.degree
        prev_adj, prev_n0 = _vec_adjugate_norm(pk, ring)
        if prev_n0 == 0:
            raise ArithmeticError("zero pivot slipped through")
    last = m[n - 1][n - 1]
    return [-c for c in last] if sign < 0 else list(last)
