"""Matrices over the exact rings, with independent exact determinants.

Over Z[zeta_M] of degree phi = phi(M) > 1, the determinant is computed
modulo one prime q that splits Phi_M into linear factors, and lifted:

* Bound.  With denominators cleared, the entries a_ij are integer vectors
  on the power basis.  Lift them to polynomials of degree < phi in Z[x];
  the lifted determinant D has degree at most n(phi - 1).  Two bounds on
  ||D||_1 hold.  By Leibniz, ||D||_1 <= perm(||a_ij||_1) <= P =
  prod_i sum_j ||a_ij||_1, the permanent being at most the product of its
  row sums.  On the unit circle |a_ij(x)| <= ||a_ij||_1, so Hadamard's
  inequality gives |D(x)| <= H = sqrt(prod_i sum_j ||a_ij||_1^2) at every
  x = e^(i theta).  By Parseval ||D||_2^2 is the mean of |D|^2 over the
  circle, so ||D||_2 <= H, and by Cauchy-Schwarz over the n(phi - 1) + 1
  coefficients ||D||_1 <= sqrt(n(phi - 1) + 1) * H.  Phi_M divides
  x^M - 1, so reducing D mod Phi_M sends each x^k to zeta^(k mod M), whose
  power-basis coefficients are at most C_M = max_{0 <= j < M}
  ||zeta^j||_inf.  Every coefficient of det is therefore at most
  B = C_M * min(P, ceil(sqrt((n(phi - 1) + 1) * H^2))) in absolute value
  (``_coefficient_bound``).  On the 27 x 27 transform matrices over
  Z[zeta_18] of ``verify criterion-oracle --p 3 --r 2``, P runs up to
  2^166 and the second term up to 2^106, so q has 129 bits, not up to 193.
* CRT.  Take q = 1 (mod M) with q > 2B and phi roots r_i of Phi_M mod q,
  the powers h^k (k a unit mod M) of one h of order M.  Evaluation
  f -> (f(r_i))_i is a ring homomorphism Z/q[x] -> (Z/q)^phi that kills
  Phi_M, and on the power basis its matrix is the Vandermonde matrix
  V = (r_i^k).  When V is invertible over Z/q it is therefore a ring
  isomorphism Z/q[x]/(Phi_M) -> (Z/q)^phi, and since a determinant commutes
  with ring homomorphisms, det(a_ij) mod q = V^(-1) (det(a_ij(r_i)) mod q)_i:
  one Gaussian elimination over Z/q per root, recombined through V^(-1).
  The phi eliminations run in lockstep, one step of each at a time, and a
  step inverts the product of its pivots once: each pivot's inverse is
  read off the prefix products (Montgomery's simultaneous inversion).
  Lifting each coefficient to (-q/2, q/2] recovers it exactly, as
  q/2 > B.
* Primality of q is not needed.  The argument above holds over Z/q for
  any q once three things are checked: each r_i is a root of Phi_M mod q
  (a failure raises ArithmeticError), V^(-1) comes from Gauss-Jordan on
  unit pivots only, and each per-root elimination divides only by unit
  pivots (swapping rows; a column that is zero from the pivot down makes
  that determinant 0).  A step's pivot product is a non-unit exactly when
  one of its pivots is (a prime factor of q divides a product only when
  it divides a factor), so inverting the product checks every pivot.
  Over a field every nonzero residue is a unit, so a nonzero pivot that
  is not a unit shows q composite: that q is dropped and the next
  candidate is taken.  Candidates pass the Miller-Rabin test
  of ``exactring._probable_prime`` (a proof below 3.3 * 10^24, a filter
  above), so this essentially never happens.  The modulus, roots and
  V^(-1) are cached per (M, bit size of 2B rounded up to 32 bits).

Integer matrices (degree 1) take fraction-free Bareiss on ints that skips
zero multipliers:

* Bareiss step k sends a_ij (i, j > k) to (p_k a_ij - a_ik a_kj) / p_(k-1),
  with p_k the k-th pivot and p_(-1) = 1.  By Sylvester's identity every
  entry so made is a minor of the input, so an integer.
* When a_ik = 0 the step is the rescale a_ij -> p_k a_ij / p_(k-1), and
  Sylvester's identity makes p_k a_ij / p_(k-1) an integer for such an
  untouched row.  The row is not rewritten.  Over consecutive skipped
  steps the rescales telescope, so a row whose last update divided by d
  holds stored entries x whose Bareiss entries are x * prev / d, prev the
  current previous pivot: its pending scale.  The row keeps d.
* The pending scale is folded into the row's next update: with lead its
  stored entry in the pivot column,
  (p_k (x prev / d) - (lead prev / d) y) / prev = (p_k x - lead y) / d,
  the Bareiss entry, so the division is exact.  A row becoming the pivot
  row is rescaled by prev / d first, and so is the last entry at the end;
  both give Bareiss entries, so both divisions are exact.
* A stored entry is 0 exactly when its Bareiss entry is, so pivots and row
  swaps are those of dense Bareiss, with the same determinant and sign.
  On the spike's transform matrices most multipliers are 0: for Z/125,
  585 of 7,750 row updates have a nonzero one.

The split-prime kernel's oracle, dense fraction-free Bareiss over
Z[zeta_M], lives beside the tests that read it (``tests/bareiss_oracle.py``).

Over Z/m, and as a cross-check oracle everywhere, a division-free
expansion over column subsets is used (exponential, fine at the small
sizes where it is applied).  One bottom-up loop serves both rings: one
minor per column subset, in a list indexed by the subset's mask.  Over
Z/m the minors are the residues as plain ints, each reduced mod m; over
a cyclotomic ring they are the ring elements.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .exactring import (CycloElem, CycloRing, ModRing, _is_prime, _probable_prime,
                        cyclotomic_polynomial, units_mod)
from .report import _Value


class RingMatrix(_Value):
    """Rectangular matrix with entries from one ring, row-major."""

    __slots__ = _fields = ("ring", "rows", "cols", "entries")

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

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols} over {self.ring!r})"

    def to_json(self):
        """Nested lists: Z/m entries as ints, cyclotomic entries as coefficient strings."""
        if isinstance(self.ring, ModRing):
            return [list(self.row(i)) for i in range(self.rows)]
        return [[e.coeff_strings() for e in self.row(i)] for i in range(self.rows)]


def determinant(mat: RingMatrix):
    """Exact determinant: modulo a split prime over Z[zeta_M], expansion over Z/m."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    if isinstance(mat.ring, ModRing):
        return determinant_expansion(mat)
    if isinstance(mat.ring, CycloRing):
        return _det_cyclo(mat)
    raise TypeError(f"unsupported ring {mat.ring!r}")


def determinant_expansion(mat: RingMatrix):
    """Division-free determinant by expansion over column subsets, bottom-up.

    minors[mask] is the minor of rows popcount(mask).. on the columns outside
    mask; a mask only reads larger masks, so descending order fills the list.
    """
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    ring = mat.ring
    m = ring.modulus if isinstance(ring, ModRing) else None
    full = (1 << n) - 1
    minors = [0] * (full + 1)
    minors[full] = ring.one
    by_bit = [{1 << j: c for j, c in enumerate(mat.row(i))} for i in range(n)]
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
        minors[mask] = acc if m is None else acc % m
    return minors[0]


# -- determinants over Z[zeta_M], denominators cleared -------------------


def _det_cyclo(mat: RingMatrix) -> CycloElem:
    ring: CycloRing = mat.ring
    n = mat.rows
    if n == 0:
        return ring.one
    p = ring.prime
    shift = max(e.exp for e in mat.entries)
    scaled = {}  # one integer vector per distinct entry
    for e in mat.entries:
        key = (e.nums, e.exp)
        if key not in scaled:
            s = p ** (shift - e.exp)
            scaled[key] = tuple(c * s for c in e.nums)
    if ring.degree == 1:
        rows = [[scaled[e.nums, e.exp][0] for e in mat.row(i)] for i in range(n)]
        return CycloElem(ring, (_bareiss_int(rows),), n * shift)
    rows = [[scaled[e.nums, e.exp] for e in mat.row(i)] for i in range(n)]
    return CycloElem(ring, _det_modular(rows, ring), n * shift)


class _NotAField(Exception):
    """A nonzero pivot that is not a unit: the modulus is composite."""


class _Split:
    """q, powers[i][k] = r_i^k mod q for the phi roots r_i of Phi_M, and V^(-1) mod q."""

    __slots__ = ("modulus", "powers", "inverse")

    def __init__(self, modulus: int, powers: tuple[tuple[int, ...], ...],
                 inverse: tuple[tuple[int, ...], ...]):
        self.modulus = modulus
        self.powers = powers
        self.inverse = inverse


def _coefficient_bound(rows: list[list[tuple[int, ...]]], ring: CycloRing) -> int:
    """B >= |c| for every coefficient c of det: the smaller of two bounds (module docstring)."""
    height = max(abs(c) for support in ring.zeta_supports() for _, c in support)
    norms = [[sum(map(abs, a)) for a in row] for row in rows]
    permanent = math.prod(map(sum, norms))
    squared = (len(rows) * (ring.degree - 1) + 1) * math.prod(
        sum(x * x for x in row) for row in norms)
    root = math.isqrt(squared)
    return height * min(permanent, root + (root * root < squared))


def _det_modular(rows: list[list[tuple[int, ...]]], ring: CycloRing) -> list[int]:
    """det over Z[zeta_M] of integer coefficient vectors, modulo one split q > 2B."""
    M = ring.conductor
    bound = _coefficient_bound(rows, ring)
    bits = 32 * max(1, -(-(2 * bound).bit_length() // 32))
    floor = 1 << bits
    while True:
        split = _split(M, floor)
        if split.modulus <= 2 * bound:
            raise ArithmeticError(f"modulus {split.modulus} does not exceed twice "
                                  f"the coefficient bound {bound}")
        try:
            return _det_by_embeddings(rows, split)
        except _NotAField:
            floor = split.modulus


def _det_by_embeddings(rows: list[list[tuple[int, ...]]], split: _Split) -> list[int]:
    """Balanced coefficients of det mod q: the eliminations per root in lockstep, then V^(-1)."""
    q = split.modulus
    values: dict[tuple[int, ...], list[int]] = {}
    evaluated = []
    for row in rows:
        out = []
        for a in row:
            v = values.get(a)
            if v is None:
                v = values[a] = [sum(map(mul, a, pw)) % q for pw in split.powers]
            out.append(v)
        evaluated.append(out)
    dets = _dets_mod([[[v[i] for v in row] for row in evaluated]
                      for i in range(len(split.powers))], q)
    half = q // 2
    coeffs = [sum(map(mul, row, dets)) % q for row in split.inverse]
    return [c - q if c > half else c for c in coeffs]


def _dets_mod(mats: list[list[list[int]]], q: int) -> list[int]:
    """Determinants mod q of n x n matrices, eliminated in lockstep on unit pivots.

    The matrices are consumed.  Step k finds each live matrix's pivot in
    column k (swapping rows); a matrix whose column is zero from row k down
    drops out with determinant 0.  One inversion serves the step: the
    product of the pivots is inverted and each pivot's inverse is read off
    the prefix products (Montgomery).  The product is a unit exactly when
    every pivot is, so a non-unit pivot raises _NotAField.  Only the
    multiplier and the pivot row are reduced mod q, so an entry grows by
    less than q^2 per step and stays below n * q^2 + q.
    """
    n = len(mats[0])
    dets = [1] * len(mats)
    live = range(len(mats))
    for k in range(n):
        pivots = []
        kept = []
        for i in live:
            rows = mats[i]
            for r in range(k, n):
                pivot = rows[r][k] % q
                if pivot:
                    break
            else:
                dets[i] = 0
                continue
            if r != k:
                rows[k], rows[r] = rows[r], rows[k]
                dets[i] = -dets[i]
            kept.append(i)
            pivots.append(pivot)
        live = kept
        if not live:
            break
        prefix = list(accumulate(pivots, lambda a, b: a * b % q))
        try:
            inv = pow(prefix[-1], -1, q)
        except ValueError:
            raise _NotAField(q) from None
        inverses = [0] * len(pivots)
        for j in range(len(pivots) - 1, 0, -1):
            inverses[j] = inv * prefix[j - 1] % q
            inv = inv * pivots[j] % q
        inverses[0] = inv
        for i, pivot, inv in zip(live, pivots, inverses):
            rows = mats[i]
            dets[i] = dets[i] * pivot % q
            tail = [x * inv % q for x in rows[k][k + 1:]]
            for row in rows[k + 1:]:
                f = row[k] % q
                if f:
                    row[k + 1:] = [x - f * y for x, y in zip(row[k + 1:], tail)]
    return [d % q for d in dets]


def _candidates(conductor: int, floor: int) -> Iterator[int]:
    """Probable primes q = 1 (mod conductor) with q > floor, ascending."""
    q = floor + 1 + (-floor) % conductor
    while True:
        if _probable_prime(q):
            yield q
        q += conductor


def _root_of_order(q: int, conductor: int) -> int | None:
    """h with h^M = 1 and h^(M/l) - 1 a unit mod q for each prime l | M.

    Such an h has order M modulo every prime factor of q, so it is a root of
    Phi_M mod q and so is h^k for every k prime to M.  None when a base shows
    q composite: g^(q-1) != 1, or a proper factor of q turns up.
    """
    cofactors = [conductor // l for l in range(2, conductor + 1)
                 if conductor % l == 0 and _is_prime(l)]
    for g in range(2, q):
        h = pow(g, (q - 1) // conductor, q)
        if pow(h, conductor, q) != 1:
            return None
        gcds = [math.gcd(pow(h, c, q) - 1, q) for c in cofactors]
        if all(d == 1 for d in gcds):
            return h
        if any(1 < d < q for d in gcds):
            return None
    return None


def _inverse_mod(rows: Sequence[Sequence[int]], q: int) -> tuple[tuple[int, ...], ...] | None:
    """Inverse mod q by Gauss-Jordan on unit pivots; None when a column has none."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for k in range(n):
        for r in range(k, n):
            if math.gcd(aug[r][k], q) == 1:
                break
        else:
            return None
        inv = pow(aug[r][k], -1, q)
        pivot = [x * inv % q for x in aug[r]]
        aug[r] = aug[k]
        aug[k] = pivot
        for i in range(n):
            f = aug[i][k]
            if i != k and f:
                aug[i] = [(x - f * y) % q for x, y in zip(aug[i], pivot)]
    return tuple(tuple(row[n:]) for row in aug)


@lru_cache(maxsize=None)
def _split(conductor: int, floor: int) -> _Split:
    """The first candidate q > floor with phi checked roots of Phi_M and V^(-1) mod q."""
    phi_m = cyclotomic_polynomial(conductor)
    units = units_mod(conductor)
    for q in _candidates(conductor, floor):
        h = _root_of_order(q, conductor)
        if h is None:
            continue
        roots = [pow(h, k, q) for k in units]
        for r in roots:
            if phi_m.evaluate(r, q):
                raise ArithmeticError(f"{r} is not a root of Phi_{conductor} mod {q}")
        powers = tuple(tuple(pow(r, k, q) for k in range(phi_m.degree)) for r in roots)
        inverse = _inverse_mod(powers, q)
        if inverse is not None:
            return _Split(q, powers, inverse)


# -- fraction-free Bareiss: on ints, and over Z[zeta_M] as a test oracle --


def _bareiss_int(m: list[list[int]]) -> int:
    """Fraction-free Bareiss on an integer matrix that skips zero multipliers.

    Rows are consumed.  A row whose entry in the pivot column is 0 is not
    rewritten; it records the divisor of its last update instead, and its
    pending scale is folded into its next update (module docstring).
    """
    n = len(m)
    since = [1] * n  # Bareiss row i = stored row i * prev / since[i]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    since[k], since[r] = since[r], since[k]
                    sign = -sign
                    break
            else:
                return 0
        rowk = m[k]
        if since[k] != prev:
            rowk[k:] = [x * prev // since[k] for x in rowk[k:]]
        pk = rowk[k]
        tail = rowk[k + 1:]
        for i in range(k + 1, n):
            rowi = m[i]
            lead = rowi[k]
            if lead:
                div = since[i]
                rowi[k + 1:] = [(pk * x - lead * y) // div for x, y in zip(rowi[k + 1:], tail)]
                since[i] = pk
        prev = pk
    return sign * (m[n - 1][n - 1] * prev // since[n - 1])
