"""Characters of (Z/p^r)^x and Gauss sums, in exact cyclotomic arithmetic.

A character is stored by its exponents on a fixed generating set of the
unit group, with values in a cyclotomic ring whose conductor is a common
multiple of the generator orders.  Gauss sums are evaluated exactly by
accumulating root-of-unity exponents and reducing once.

One norm per character decides whether its twisted sums are units.  For p
not dividing u, t -> u^-1 t gives G(chi, eps_u) = chi(u^-1) G(chi, eps_1)
(Ireland and Rosen, ch. 8), whose norm is N(zeta^k) N(G(chi, eps_1)) =
+-N(G(chi, eps_1)): a twisted sum equal to its expected value is a unit
exactly when the base sum G(chi, eps_1) is.  ``check_gauss_identities`` and
``gauss_table_rows`` check that equality on each coprime row, and a row
where it holds takes the unit flag of the base sum.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from functools import lru_cache

from .exactring import CycloElem, CycloRing, euler_phi, get_ring, is_unit, units_mod
from .report import DEFAULT_BUDGET, BudgetExceeded, VerifyReport


def _standard_conductor(p: int, r: int) -> int:
    """p^r * (p - 1) for odd p, max(p^r, 4) for p = 2."""
    return max(2 ** r, 4) if p == 2 else p ** r * (p - 1)


def standard_ring(p: int, r: int) -> CycloRing:
    """Smallest-conductor ring holding all character and root-of-unity values mod p^r."""
    return get_ring(_standard_conductor(p, r), p)


class UnitGroupStructure:
    """Generators, with orders, of (Z/p^r)^x, a full discrete-log table, and the units in order."""

    __slots__ = ("prime", "power", "modulus", "generators", "dlog", "units")

    def __init__(self, prime: int, power: int, generators: Sequence[tuple[int, int]]):
        self.prime = prime
        self.power = power
        self.modulus = prime ** power
        self.generators = tuple(generators)
        self.dlog = self._build_dlog()
        self.units = tuple(units_mod(self.modulus))

    def _build_dlog(self) -> dict[int, tuple[int, ...]]:
        N = self.modulus
        table: dict[int, tuple[int, ...]] = {}
        ranges = [range(order) for _, order in self.generators]
        for exps in itertools.product(*ranges):
            t = 1
            for (g, _), k in zip(self.generators, exps):
                t = t * pow(g, k, N) % N
            if t in table:
                raise ArithmeticError("generators do not generate freely")
            table[t] = exps
        expected = euler_phi(N) if N > 1 else 1
        if len(table) != expected:
            raise ArithmeticError("generators fail to generate the unit group")
        return table

    def __repr__(self):
        return f"UnitGroupStructure(mod {self.modulus}, generators={self.generators})"


def _multiplicative_order(t: int, N: int) -> int:
    k = 1
    acc = t % N
    while acc != 1:
        acc = acc * t % N
        k += 1
        if k > N:
            raise ArithmeticError("order computation ran away")
    return k


@lru_cache(maxsize=None)
def unit_group_generators(p: int, r: int) -> UnitGroupStructure:
    """Generators of (Z/p^r)^x found by brute-force order search, then verified."""
    if r < 1 or p ** r < 2:
        raise ValueError("need p^r >= 2")
    N = p ** r
    if p == 2:
        if r == 1:
            gens: list[tuple[int, int]] = []
        elif r == 2:
            gens = [(3, 2)]
        else:
            gens = [(N - 1, 2), (5, 2 ** (r - 2))]
    else:
        target = euler_phi(N)
        for g in range(2, N):
            if math.gcd(g, p) == 1 and _multiplicative_order(g, N) == target:
                gens = [(g, target)]
                break
        else:
            raise ArithmeticError("no primitive root found")
    return UnitGroupStructure(p, r, gens)


class Character:
    """Multiplicative character of (Z/p^r)^x with cyclotomic values."""

    __slots__ = ("structure", "exponents", "ring", "_row")

    def __init__(self, structure: UnitGroupStructure, exponents: Sequence[int],
                 ring: CycloRing):
        if len(exponents) != len(structure.generators):
            raise ValueError("one exponent per generator required")
        M = ring.conductor
        for (_, order), k in zip(structure.generators, exponents):
            if M % order:
                raise ValueError(
                    f"conductor {M} does not contain roots of unity of order {order}")
            if not 0 <= k < order:
                raise ValueError("exponent out of range")
        self.structure = structure
        self.exponents = tuple(exponents)
        self.ring = ring
        self._row: tuple[int, ...] | None = None

    @property
    def modulus(self) -> int:
        return self.structure.modulus

    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def value_exponent(self, t: int) -> int:
        """e with chi(t) = zeta^e in the value ring."""
        N = self.modulus
        t %= N
        if math.gcd(t, self.structure.prime) != 1:
            raise ValueError(f"{t} is not a unit mod {N}")
        digits = self.structure.dlog[t if N > 1 else 1]
        M = self.ring.conductor
        e = 0
        for (_, order), k, d in zip(self.structure.generators, self.exponents, digits):
            e += (M // order) * k * d
        return e % M

    def value_row(self) -> tuple[int, ...]:
        """value_exponent(t) for each t in structure.units, in that order; built once."""
        if self._row is None:
            self._row = tuple(map(self.value_exponent, self.structure.units))
        return self._row

    def eval(self, t: int) -> CycloElem:
        return self.ring.zeta(self.value_exponent(t))

    def __eq__(self, other):
        if isinstance(other, Character):
            return (self.modulus, self.structure.generators, self.exponents, self.ring) == \
                   (other.modulus, other.structure.generators, other.exponents, other.ring)
        return NotImplemented

    def __hash__(self):
        return hash((self.modulus, self.structure.generators, self.exponents,
                     self.ring.conductor))

    def label(self) -> str:
        return "chi(" + ",".join(map(str, self.exponents)) + f") mod {self.modulus}"

    def __repr__(self):
        return f"Character({self.label()})"


def enumerate_characters(p: int, r: int, ring: CycloRing) -> list[Character]:
    """All euler_phi(p^r) characters, by exponent tuples in product order."""
    structure = unit_group_generators(p, r)
    ranges = [range(order) for _, order in structure.generators]
    return [Character(structure, exps, ring) for exps in itertools.product(*ranges)]


def is_primitive(chi: Character) -> bool:
    """Primitive iff the character does not factor through a smaller level.

    At level 1 only the trivial character is imprimitive; at level r >= 2
    the test is chi(1 + p^(r-1)) != 1.
    """
    p = chi.structure.prime
    r = chi.structure.power
    if r == 1:
        return not chi.is_trivial()
    return chi.value_exponent(1 + p ** (r - 1)) != 0


def _gauss_sum_over(chi: Character, units: Sequence[int], N: int, u: int) -> CycloElem:
    """Sum over t in units of chi(t) * zeta_N^(u t), units a prefix of chi.structure.units."""
    ring = chi.ring
    M = ring.conductor
    if M % N:
        raise ValueError(f"conductor {M} does not contain the {N}-th roots of unity")
    scale = M // N
    return ring.zeta_sum([v + u * t * scale for t, v in zip(units, chi.value_row())])


def gauss_sum(chi: Character, u: int) -> CycloElem:
    """G_N(chi, eps_u) = sum over units t of chi(t) * zeta_N^(u t)."""
    return _gauss_sum_over(chi, chi.structure.units, chi.modulus, u)


def _gauss_sum_lower(chi: Character, u_prime: int) -> CycloElem:
    """G at level p^(r-1) of the characters induced by an imprimitive chi and eps_(p u').

    The units t < p^(r-1) are also units mod p^r and the first entries of
    chi's value row; chi factors through the reduction, so chi at the lift
    is the induced character.
    """
    N_low = chi.modulus // chi.structure.prime
    return _gauss_sum_over(chi, units_mod(N_low), N_low, u_prime)


def _level_sums(p: int, r: int) -> Iterator[tuple[Character, list[CycloElem]]]:
    """Each character mod N = p^r, with its N sums G(chi, eps_u) for u = 0 .. N - 1."""
    for chi in enumerate_characters(p, r, standard_ring(p, r)):
        yield chi, [gauss_sum(chi, u) for u in range(p ** r)]


def _require_gauss_budget(p: int, max_r: int, limit: int) -> None:
    """BudgetExceeded unless the Gauss sums of levels 1..max_r have at most limit terms.

    Level r has N phi(N) sums G(chi, eps_u), one per character and shift
    u mod N = p^r, of phi(N) terms each.  The levels are counted up to the
    first one past the limit, so a huge p or max_r costs nothing.
    """
    terms = 0
    for r in range(1, max_r + 1):
        N = p ** r
        terms += N * (N - N // p) ** 2
        if terms > limit:
            raise BudgetExceeded(f"Gauss sums of p = {p} up to level {max_r}: {terms} terms "
                                 f"by level {r} exceed the bound {limit}")


def check_gauss_identities(p: int, r: int) -> VerifyReport:
    """Exhaustive Gauss-sum identity check at level N = p^r.

    For every character chi and every u in [0, N): primitive chi with u
    coprime gives a unit satisfying G(chi, eps_u) = chi(u)^(-1) G(chi, eps);
    primitive chi with gcd(u, N) > 1 gives 0; imprimitive chi with
    injective eps_u gives 0; imprimitive chi with p | u reduces to level
    p^(r-1) with a factor p (direct evaluation at level 1).  The unit test
    takes one norm per primitive chi, by the argument of the module docstring.
    """
    ring = standard_ring(p, r)
    N = p ** r
    report = VerifyReport("verify-gauss", {"p": p, "r": r, "conductor": ring.conductor})
    for chi, sums in _level_sums(p, r):
        label = chi.label()
        primitive = is_primitive(chi)
        base = sums[1]
        base_unit = primitive and is_unit(base)
        for u, value in enumerate(sums):
            if primitive and u % p:
                subject = "unit and twist relation"
                ok = value == chi.eval(pow(u, -1, N)) * base and base_unit
            elif primitive:
                subject, ok = "vanishes (non-coprime shift)", not value
            elif r == 1:
                # only the trivial character is imprimitive at level 1
                subject = "level-1 direct value"
                ok = value == (ring.from_int(p - 1) if u % p == 0 else -ring.one)
            elif u % p:
                subject, ok = "vanishes (injective shift)", not value
            else:
                subject = "reduces to the lower level"
                ok = value == ring.from_int(p) * _gauss_sum_lower(chi, u // p)
            report.add(f"N{N}-{label}-u{u}", f"{label}, u={u}: {subject}", ok,
                       {"sum": value.coeff_strings()})
    return report


def gauss_table_rows(p: int, max_r: int, limit: int = DEFAULT_BUDGET) -> Iterator[tuple]:
    """(N, chi, u, G(chi, eps_u), whether it is a unit) for N = p^r, r = 1 .. max_r.

    A coprime row whose sum is the twist chi(u^-1) G(chi, eps_1) takes the
    unit flag of its base sum, by the argument of the module docstring; every
    other row (p | u, or a twist that fails) takes ``is_unit`` of its own
    value, decided once per distinct value of the level: ``is_unit`` depends
    on the value alone, and at p = 3, r = 5 the 13,122 such rows hold 161
    distinct values, 10,933 rows of them zero.  BudgetExceeded is raised
    before any sum when the levels have more than ``limit`` terms.
    """
    _require_gauss_budget(p, max_r, limit)
    for r in range(1, max_r + 1):
        N = p ** r
        flags: dict[tuple, bool] = {}  # (nums, exp) of a value in this level's ring -> is_unit
        for chi, sums in _level_sums(p, r):
            base = sums[1]
            base_unit = is_unit(base)
            for u, value in enumerate(sums):
                twisted = u % p and value == chi.eval(pow(u, -1, N)) * base
                key = value.nums, value.exp
                if not twisted and key not in flags:
                    flags[key] = is_unit(value)
                yield N, chi, u, value, base_unit if twisted else flags[key]
