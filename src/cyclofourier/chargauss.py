"""Characters of (Z/p^r)^x and Gauss sums, in exact cyclotomic arithmetic.

A character is stored by its exponents on a fixed generating set of the
unit group, with values in a cyclotomic ring whose conductor is a common
multiple of the generator orders.  Gauss sums are evaluated exactly by
accumulating root-of-unity exponents and reducing once.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

from .exactring import (CycloElem, CycloRing, euler_phi, get_ring, is_unit)
from .report import VerifyReport


def standard_ring(p: int, r: int) -> CycloRing:
    """Smallest-conductor ring holding all character and root-of-unity values mod p^r.

    Conductor p^r * (p - 1) for odd p, max(p^r, 4) for p = 2.
    """
    if p == 2:
        return get_ring(max(2 ** r, 4), 2)
    return get_ring(p ** r * (p - 1), p)


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


def units_mod(N: int) -> list[int]:
    return [t for t in range(1, N + 1) if math.gcd(t, N) == 1] if N > 1 else [1]


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
            return (self.modulus, self.exponents, self.ring) == \
                   (other.modulus, other.exponents, other.ring)
        return NotImplemented

    def __hash__(self):
        return hash((self.modulus, self.exponents, self.ring.conductor))

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


def gauss_sum(chi: Character, u: int | None = None,
              tau: Sequence[CycloElem] | None = None) -> CycloElem:
    """G_N(chi, tau) = sum over units t of chi(t) * tau(t).

    Either ``u`` selects the additive character t -> zeta_N^(u t), or
    ``tau`` gives explicit root-of-unity values indexed by Z/N.
    """
    ring = chi.ring
    N = chi.modulus
    M = ring.conductor
    if (u is None) == (tau is None):
        raise ValueError("give exactly one of u or tau")
    if tau is not None:
        if len(tau) != N:
            raise ValueError("tau must have one value per residue mod N")
        acc = ring.zero
        for t in units_mod(N):
            acc = acc + chi.eval(t) * tau[t % N]
        return acc
    if M % N:
        raise ValueError(f"conductor {M} does not contain the {N}-th roots of unity")
    scale = M // N
    return ring.zeta_sum([v + u * t * scale for t, v in zip(chi.structure.units, chi.value_row())])


def _gauss_sum_lower(chi: Character, u_prime: int) -> CycloElem:
    """G at level p^(r-1) of the characters induced by an imprimitive chi and eps_(p u')."""
    p = chi.structure.prime
    r = chi.structure.power
    N_low = p ** (r - 1)
    ring = chi.ring
    M = ring.conductor
    if M % N_low:
        raise ValueError("conductor too small for the reduced level")
    scale = M // N_low
    # The units t < p^(r-1) are also units mod p^r and the first entries of
    # chi's value row; chi factors through the reduction, so chi at the lift
    # is the induced character.
    return ring.zeta_sum([v + u_prime * t * scale
                          for t, v in zip(units_mod(N_low), chi.value_row())])


def check_gauss_identities(p: int, r: int, ring: CycloRing | None = None) -> VerifyReport:
    """Exhaustive Gauss-sum identity check at level N = p^r.

    For every character chi and every u in [0, N): primitive chi with u
    coprime gives a unit satisfying G(chi, eps_u) = chi(u)^(-1) G(chi, eps);
    primitive chi with gcd(u, N) > 1 gives 0; imprimitive chi with
    injective eps_u gives 0; imprimitive chi with p | u reduces to level
    p^(r-1) with a factor p (direct evaluation at level 1).

    The unit test takes one norm per primitive chi, of G(chi, eps), not one
    per twisted sum.  This decides the same verdicts: if G(chi, eps_u) equals
    the expected chi(u^-1) G(chi, eps), its norm is N(zeta^k) N(G(chi, eps))
    = +-N(G(chi, eps)), so it is a unit exactly when G(chi, eps) is; if it
    differs from the expected value, the check fails either way.
    """
    if ring is None:
        ring = standard_ring(p, r)
    N = p ** r
    report = VerifyReport("verify-gauss", {"p": p, "r": r, "conductor": ring.conductor})
    characters = enumerate_characters(p, r, ring)
    for chi in characters:
        primitive = is_primitive(chi)
        base = gauss_sum(chi, u=1)
        base_unit = primitive and is_unit(base)
        for u in range(N):
            value = gauss_sum(chi, u=u)
            ident = f"N{N}-{chi.label()}-u{u}"
            subject_prefix = f"{chi.label()}, u={u}"
            if primitive:
                if math.gcd(u, N) == 1:
                    inv_u = pow(u, -1, N)
                    expected = chi.eval(inv_u) * base
                    ok = value == expected and base_unit
                    report.add(ident, subject_prefix + ": unit and twist relation",
                               ok, {"sum": value.coeff_strings()})
                else:
                    report.add(ident, subject_prefix + ": vanishes (non-coprime shift)",
                               not value, {"sum": value.coeff_strings()})
            else:
                if r == 1:
                    # only the trivial character is imprimitive at level 1
                    expected = ring.from_int(p - 1) if u % p == 0 else -ring.one
                    report.add(ident, subject_prefix + ": level-1 direct value",
                               value == expected, {"sum": value.coeff_strings()})
                elif u % p:
                    report.add(ident, subject_prefix + ": vanishes (injective shift)",
                               not value, {"sum": value.coeff_strings()})
                else:
                    lower = _gauss_sum_lower(chi, u // p)
                    ok = value == ring.from_int(p) * lower
                    report.add(ident, subject_prefix + ": reduces to the lower level",
                               ok, {"sum": value.coeff_strings()})
    return report
