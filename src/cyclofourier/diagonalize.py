"""Decision procedures over Z/m: when is a group algebra a product of copies of Z/m?

The algebra of Z/n over Z/m splits as (Z/m)^n exactly when n is a unit
mod m and the n-th cyclotomic polynomial has a root there; the splitting
is realized by evaluation at the powers of the root, a Vandermonde
matrix.  An idempotent count gives an independent obstruction oracle for
the negative verdicts.
"""

from __future__ import annotations

import itertools
import math

from .exactring import ModRing, _convolve, cyclotomic_polynomial
from .matrix import RingMatrix, determinant
from .report import DEFAULT_BUDGET, BudgetExceeded, _Frozen

REASON_NOT_INVERTIBLE = "n-not-invertible"
REASON_NO_ROOT = "no-cyclotomic-root"


class DiagVerdict(_Frozen):
    __slots__ = ("decision", "witness", "reason")

    def __init__(self, decision: bool, witness: int | None = None, reason: str | None = None):
        object.__setattr__(self, "decision", decision)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "reason", reason)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.decision, self.witness, self.reason) == \
                   (other.decision, other.witness, other.reason)
        return NotImplemented

    def __hash__(self):
        return hash((self.decision, self.witness, self.reason))

    def __repr__(self):
        return (f"DiagVerdict(decision={self.decision!r}, witness={self.witness!r}, "
                f"reason={self.reason!r})")

    def to_json(self) -> dict:
        if self.decision:
            return {"decision": True, "witness": self.witness}
        return {"decision": False, "reason": self.reason}


def _require_cyclotomic_budget(n: int, limit: int) -> None:
    """BudgetExceeded when 5 n^2, a bound on the steps of cyclotomic_polynomial(n), exceeds limit.

    Each Phi_d, d | n, writes the d + 1 coefficients of X^d - 1 and divides
    them by Phi_e for the proper divisors e of d, at most (d + 1)(phi(e) + 1)
    steps each; as sum_(e | d, e < d) (phi(e) + 1) = d - phi(d) + tau(d) - 1
    <= 2d - 2, Phi_d takes at most (d + 1)(2d - 1) <= 3 d^2 steps, and all of
    them at most 3 sum_(d | n) d^2 < 3 (pi^2 / 6) n^2 < 5 n^2.
    """
    if 5 * n * n > limit:
        raise BudgetExceeded(f"building Phi_{n} ({5 * n * n} steps) exceeds the budget {limit}")


def decide_diag_cyclic(n: int, m: int, limit: int = DEFAULT_BUDGET) -> DiagVerdict:
    """Does the algebra of Z/n over Z/m split completely?

    True iff n is invertible mod m and the n-th cyclotomic polynomial has
    a root mod m; the root search is exhaustive over Z/m.  BudgetExceeded
    is raised before Phi_n is built when its 5 n^2 steps exceed ``limit``,
    and before the search when m * phi(n) does.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if math.gcd(n, m) != 1:
        return DiagVerdict(False, None, REASON_NOT_INVERTIBLE)
    _require_cyclotomic_budget(n, limit)
    poly = cyclotomic_polynomial(n)
    if m * max(poly.degree, 1) > limit:
        raise BudgetExceeded(f"root search over Z/{m} exceeds the budget")
    for xi in range(m):
        if poly.evaluate(xi, mod=m) == 0:
            return DiagVerdict(True, xi, None)
    return DiagVerdict(False, None, REASON_NO_ROOT)


class SplitVerificationError(RuntimeError):
    """An assertion of the verified splitting failed (an arithmetic bug)."""


class VandermondeSplit(_Frozen):
    __slots__ = ("matrix", "points", "det")

    def __init__(self, matrix: RingMatrix, points: tuple[int, ...], det: int):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "det", det)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.matrix, self.points, self.det) == \
                   (other.matrix, other.points, other.det)
        return NotImplemented

    def __hash__(self):
        return hash((self.matrix, self.points, self.det))

    def __repr__(self):
        return (f"VandermondeSplit(matrix={self.matrix!r}, points={self.points!r}, "
                f"det={self.det!r})")


def vandermonde_iso(n: int, m: int, xi: int, limit: int = DEFAULT_BUDGET) -> VandermondeSplit:
    """The evaluation matrix (xi^(i j)) realizing the splitting, fully verified.

    Checks: the determinant is a unit mod m; xi^i - xi^j is a unit for
    i != j; and X^n - 1 factors exactly as the product of (X - xi^i).
    The determinant is the expansion over all 2^n column subsets, so n * 2^n
    above ``limit`` raises BudgetExceeded before anything is built.
    """
    # the first test keeps a huge n from building the int n * 2^n
    if n >= limit.bit_length() or n << n > limit:
        raise BudgetExceeded(f"determinant expansion of size {n} ({n} * 2^{n} steps) "
                             f"exceeds the budget {limit}")
    powers = tuple(pow(xi, i, m) for i in range(n))
    entries = [pow(xi, i * j, m) for i in range(n) for j in range(n)]
    mat = RingMatrix(ModRing(m), n, n, entries)
    det = determinant(mat)
    if math.gcd(det, m) != 1:
        raise SplitVerificationError(f"Vandermonde determinant {det} not a unit mod {m}")
    for i in range(n):
        for j in range(i + 1, n):
            if math.gcd((powers[i] - powers[j]) % m, m) != 1:
                raise SplitVerificationError(
                    f"xi^{i} - xi^{j} is not a unit mod {m}")
    # exact factorization X^n - 1 = prod (X - xi^i) mod m
    prod = [1]
    for a in powers:
        prod = [c % m for c in _convolve(prod, [-a, 1])]
    expected = [0] * (n + 1)
    expected[0] = (-1) % m
    expected[n] = 1 % m
    if prod != expected:
        raise SplitVerificationError("X^n - 1 did not factor into the linear terms")
    return VandermondeSplit(mat, powers, det)


def idempotents_mod(m: int) -> list[int]:
    return [x for x in range(m) if x * x % m == x]


def complete_idempotent_set(idems: list[int], m: int) -> tuple[int, ...]:
    """Refine the given idempotents of Z/m into a complete orthogonal set.

    The atoms are, for each subset S, the product of the members of S and
    of the complements 1 - x over x outside S; the nonzero atoms are
    pairwise orthogonal, sum to 1, and every input is the sum of the
    atoms of the subsets containing it (all three facts are asserted).
    """
    for x in idems:
        if (x * x - x) % m:
            raise ValueError(f"{x} is not idempotent mod {m}")
    k = len(idems)
    atoms: list[tuple[int, int]] = []  # (subset mask, value)
    for mask in range(1 << k):
        value = 1
        for i, x in enumerate(idems):
            value = value * (x if mask & (1 << i) else (1 - x)) % m
        if value:
            atoms.append((mask, value))
    for a, (_, va) in enumerate(atoms):
        for _, vb in atoms[a + 1:]:
            if va * vb % m:
                raise ArithmeticError("atoms are not orthogonal; arithmetic bug")
    if sum(v for _, v in atoms) % m != 1 % m:
        raise ArithmeticError("atoms do not sum to 1; arithmetic bug")
    for i, x in enumerate(idems):
        recon = sum(v for mask, v in atoms if mask & (1 << i)) % m
        if recon != x % m:
            raise ArithmeticError("input is not a sum of atoms; arithmetic bug")
    return tuple(sorted(v for _, v in atoms))


def count_idempotents_group_algebra(m: int, n: int, limit: int = DEFAULT_BUDGET) -> int:
    """Brute-force count of solutions of x * x = x in the algebra of Z/n over Z/m."""
    if m ** n > limit:
        raise BudgetExceeded(f"{m}^{n} candidates exceed the budget {limit}")
    count = 0
    for vec in itertools.product(range(m), repeat=n):
        ok = True
        for w in range(n):
            s = 0
            for u in range(n):
                s += vec[u] * vec[(w - u) % n]
            if s % m != vec[w]:
                ok = False
                break
        if ok:
            count += 1
    return count
