"""Finite abelian p-groups, their duals, and the Q/Z-valued pairing.

A group is a direct sum of cyclic p-power factors, recorded by the
non-increasing list of exponents.  The dual group is represented with
the same invariant factors; the pairing of v with l is
sum_i v_i * l_i / p^(e_i) taken mod 1.  Element order is lexicographic
on coordinates throughout, so every matrix indexed by group elements is
reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from typing import Iterable, Iterator, Sequence

from .report import DEFAULT_BUDGET, BudgetExceeded


@dataclass(frozen=True, slots=True)
class FinAbGroup:
    """Direct sum of Z/p^(e_i) with e_1 >= e_2 >= ... >= 1."""

    prime: int
    exponents: tuple[int, ...]
    # p^e_i per factor, derived from the exponents
    factor_orders: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.prime < 2:
            raise ValueError("prime must be >= 2")
        exps = tuple(self.exponents)
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be >= 1")
        if list(exps) != sorted(exps, reverse=True):
            raise ValueError("exponents must be non-increasing")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "factor_orders", tuple(self.prime ** e for e in exps))

    @property
    def order(self) -> int:
        return self.prime ** sum(self.exponents)

    @property
    def exponent_value(self) -> int:
        """The exponent of the group: p^(largest factor exponent)."""
        return self.prime ** (self.exponents[0] if self.exponents else 0)

    def notation(self) -> str:
        if not self.exponents:
            return "1"
        return "+".join(str(self.prime ** e) for e in self.exponents)

    def to_json(self) -> dict:
        return {"p": self.prime, "exponents": list(self.exponents)}


@dataclass(frozen=True, slots=True)
class GroupElem:
    group: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(self.coords)
        orders = self.group.factor_orders
        if len(coords) != len(orders):
            raise ValueError("coordinate count mismatch")
        if any(not 0 <= c < n for c, n in zip(coords, orders)):
            raise ValueError("coordinate out of range")
        object.__setattr__(self, "coords", coords)

    def _same_group(self, other):
        if self.group != other.group:
            raise ValueError("elements of different groups")

    def __add__(self, other: "GroupElem") -> "GroupElem":
        self._same_group(other)
        orders = self.group.factor_orders
        return GroupElem(self.group, tuple((a + b) % n for a, b, n in
                                           zip(self.coords, other.coords, orders)))

    def __sub__(self, other: "GroupElem") -> "GroupElem":
        self._same_group(other)
        orders = self.group.factor_orders
        return GroupElem(self.group, tuple((a - b) % n for a, b, n in
                                           zip(self.coords, other.coords, orders)))

    def __neg__(self) -> "GroupElem":
        orders = self.group.factor_orders
        return GroupElem(self.group, tuple((-a) % n for a, n in zip(self.coords, orders)))

    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True, slots=True)
class DualElem:
    """A functional on the group, with the same coordinate shape."""

    group: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(self.coords)
        orders = self.group.factor_orders
        if len(coords) != len(orders):
            raise ValueError("coordinate count mismatch")
        if any(not 0 <= c < n for c, n in zip(coords, orders)):
            raise ValueError("coordinate out of range")
        object.__setattr__(self, "coords", coords)

    def is_zero(self) -> bool:
        return not any(self.coords)


class PadicCircle:
    """An element a/p^s of the p-power torsion of Q/Z, normalized."""

    __slots__ = ("prime", "numerator", "level")

    def __init__(self, prime: int, numerator: int, level: int):
        if level < 0:
            raise ValueError("level must be >= 0")
        numerator %= prime ** level
        while level > 0 and numerator % prime == 0:
            numerator //= prime
            level -= 1
        if numerator == 0:
            level = 0
        self.prime = prime
        self.numerator = numerator
        self.level = level

    @classmethod
    def zero(cls, prime: int) -> "PadicCircle":
        return cls(prime, 0, 0)

    def __add__(self, other: "PadicCircle") -> "PadicCircle":
        if not isinstance(other, PadicCircle):
            return NotImplemented
        if other.prime != self.prime:
            raise ValueError("mixed primes")
        p = self.prime
        s = max(self.level, other.level)
        num = (self.numerator * p ** (s - self.level)
               + other.numerator * p ** (s - other.level))
        return PadicCircle(p, num, s)

    def __neg__(self) -> "PadicCircle":
        return PadicCircle(self.prime, -self.numerator, self.level)

    def __sub__(self, other: "PadicCircle") -> "PadicCircle":
        return self + (-other)

    def __eq__(self, other):
        if isinstance(other, PadicCircle):
            return (self.prime, self.numerator, self.level) == \
                   (other.prime, other.numerator, other.level)
        return NotImplemented

    def __hash__(self):
        return hash((self.prime, self.numerator, self.level))

    def is_zero(self) -> bool:
        return self.numerator == 0

    def key(self) -> tuple[int, int]:
        return (self.level, self.numerator)

    def __str__(self):
        if self.numerator == 0:
            return "0"
        return f"{self.numerator}/{self.prime}^{self.level}"

    def __repr__(self):
        return f"PadicCircle({self})"


def circle_points(p: int, level: int) -> tuple[PadicCircle, ...]:
    """All p^level points of level <= level, ordered by (level, numerator)."""
    points = [PadicCircle.zero(p)]
    for s in range(1, level + 1):
        for a in range(1, p ** s):
            if a % p:
                points.append(PadicCircle(p, a, s))
    return tuple(points)


# -- element enumeration and the pairing --------------------------------


@lru_cache(maxsize=None)
def elements(group: FinAbGroup) -> tuple[GroupElem, ...]:
    """All elements in lexicographic coordinate order."""
    ranges = [range(n) for n in group.factor_orders]
    return tuple(GroupElem(group, coords) for coords in itertools.product(*ranges))


@lru_cache(maxsize=None)
def dual_elements(group: FinAbGroup) -> tuple[DualElem, ...]:
    ranges = [range(n) for n in group.factor_orders]
    return tuple(DualElem(group, coords) for coords in itertools.product(*ranges))


def element_index(group: FinAbGroup, coords: Sequence[int]) -> int:
    """Position of the coordinates in the lexicographic enumeration."""
    idx = 0
    for c, n in zip(coords, group.factor_orders):
        idx = idx * n + c
    return idx


@lru_cache(maxsize=None)
def pairing_numerators(group: FinAbGroup) -> tuple[tuple[int, ...], ...]:
    """table[i][j] = t with <v_i, l_j> = t / p^(e_1); shape |V| x |V|, symmetric.

    Built factor by factor in the lexicographic order, by rows: the rows of
    the elements with coordinates on the first k factors (the others 0) are
    extended along g_k by row(v + a g_k) = row(v) + a row(g_k) mod p^(e_1),
    where row(g_k)[j] = l_k * p^(e_1 - e_k) for the k-th coordinate l_k of
    l_j.  One vector addition per element: O(|V|^2) in all.
    """
    orders = group.factor_orders
    if not orders:
        return ((0,),)
    mod = orders[0]
    size = group.order
    rows = [[0] * size]
    before = 1
    for n_k in orders:
        after = size // (before * n_k)
        weight = mod // n_k
        step = [c * weight for c in range(n_k) for _ in range(after)] * before
        grown = []
        for row in rows:
            grown.append(row)
            for _ in range(n_k - 1):
                row = [(x + y) % mod for x, y in zip(row, step)]
                grown.append(row)
        rows = grown
        before *= n_k
    return tuple(map(tuple, rows))


def pairing(v: GroupElem, l: DualElem) -> PadicCircle:
    """The Q/Z-valued pairing <v, l> = sum v_i l_i / p^(e_i) mod 1."""
    if v.group != l.group:
        raise ValueError("pairing requires matching group shapes")
    group = v.group
    p = group.prime
    if not group.exponents:
        return PadicCircle.zero(p)
    e1 = group.exponents[0]
    mod = p ** e1
    t = sum(a * b * p ** (e1 - e) for a, b, e in
            zip(v.coords, l.coords, group.exponents)) % mod
    return PadicCircle(p, t, e1)


# -- homomorphisms -------------------------------------------------------


class GroupHom:
    """Homomorphism given by an integer matrix on the cyclic generators.

    Row i, column j sends the j-th source generator to a[i][j] times the
    i-th target generator.  Well-definedness forces a[i][j] to vanish mod
    p^(max(f_i - e_j, 0)); entries are stored reduced mod p^(f_i).
    """

    __slots__ = ("source", "target", "matrix", "_moduli")

    def __init__(self, source: FinAbGroup, target: FinAbGroup,
                 matrix: Sequence[Sequence[int]]):
        if source.prime != target.prime:
            raise ValueError("source and target must share the prime")
        p = source.prime
        src = source.exponents
        tgt = target.exponents
        if len(matrix) != len(tgt):
            raise ValueError("matrix row count must match target rank")
        rows = []
        for i, row in enumerate(matrix):
            if len(row) != len(src):
                raise ValueError("matrix column count must match source rank")
            mod_i = p ** tgt[i]
            reduced = []
            for j, a in enumerate(row):
                a %= mod_i
                need = max(tgt[i] - src[j], 0)
                if a % p ** need:
                    raise ValueError(
                        f"entry ({i},{j})={a} does not give a well-defined map")
                reduced.append(a)
            rows.append(tuple(reduced))
        self.source = source
        self.target = target
        self.matrix = tuple(rows)
        self._moduli = target.factor_orders

    @classmethod
    def _trusted(cls, source: FinAbGroup, target: FinAbGroup,
                 rows: tuple[tuple[int, ...], ...]) -> "GroupHom":
        """A hom from rows already reduced and well-defined by construction."""
        hom = cls.__new__(cls)
        hom.source = source
        hom.target = target
        hom.matrix = rows
        hom._moduli = target.factor_orders
        return hom

    def _apply_coords(self, coords: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(map(mul, row, coords)) % mod
                     for row, mod in zip(self.matrix, self._moduli))

    def apply(self, v: GroupElem) -> GroupElem:
        if v.group != self.source:
            raise ValueError("element not in the source group")
        return GroupElem(self.target, self._apply_coords(v.coords))

    def apply_dual(self, l: DualElem) -> DualElem:
        """Apply the same linear formula to dual coordinates."""
        if l.group != self.source:
            raise ValueError("functional not over the source shape")
        return DualElem(self.target, self._apply_coords(l.coords))

    def __eq__(self, other):
        if isinstance(other, GroupHom):
            return (self.source, self.target, self.matrix) == \
                   (other.source, other.target, other.matrix)
        return NotImplemented

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return f"GroupHom({self.source.notation()} -> {self.target.notation()}, {self.matrix})"


def identity_hom(group: FinAbGroup) -> GroupHom:
    n = len(group.exponents)
    return GroupHom(group, group,
                    [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def zero_hom(source: FinAbGroup, target: FinAbGroup) -> GroupHom:
    return GroupHom(source, target,
                    [[0] * len(source.exponents) for _ in target.exponents])


def compose(g: GroupHom, f: GroupHom) -> GroupHom:
    """The composite g o f."""
    if f.target != g.source:
        raise ValueError("homomorphisms are not composable")
    rows = []
    for i in range(len(g.target.exponents)):
        row = []
        for j in range(len(f.source.exponents)):
            row.append(sum(g.matrix[i][k] * f.matrix[k][j]
                           for k in range(len(f.target.exponents))))
        rows.append(row)
    return GroupHom(f.source, g.target, rows)


def dual_hom(f: GroupHom) -> GroupHom:
    """The adjoint map on duals: <f(v), l> = <v, dual_hom(f)(l)> for all v, l."""
    p = f.source.prime
    src = f.source.exponents
    tgt = f.target.exponents
    rows = []
    for j in range(len(src)):
        row = []
        for i in range(len(tgt)):
            a = f.matrix[i][j]
            if src[j] >= tgt[i]:
                b = a * p ** (src[j] - tgt[i])
            else:
                step = p ** (tgt[i] - src[j])
                if a % step:
                    raise ArithmeticError("well-definedness violated; construction bug")
                b = a // step
            row.append(b % p ** src[j])
        rows.append(tuple(row))
    return GroupHom._trusted(f.target, f.source, tuple(rows))


def hom_count(source: FinAbGroup, target: FinAbGroup) -> int:
    p = source.prime
    count = 1
    for fi in target.exponents:
        for ej in source.exponents:
            count *= p ** min(ej, fi)
    return count


def _require_hom_budget(pairs: Iterable[tuple[FinAbGroup, FinAbGroup]], limit: int) -> int:
    """The largest hom_count of the (source, target) pairs; BudgetExceeded above limit."""
    source, target = max(pairs, key=lambda pair: hom_count(*pair))
    total = hom_count(source, target)
    if total > limit:
        raise BudgetExceeded(
            f"{total} homomorphisms {source.notation()} -> {target.notation()} "
            f"exceed the bound {limit}")
    return total


def enumerate_homs(source: FinAbGroup, target: FinAbGroup,
                   limit: int = DEFAULT_BUDGET) -> Iterator[GroupHom]:
    """All homomorphisms, one matrix entry choice at a time, deterministic order."""
    total = _require_hom_budget([(source, target)], limit)
    p = source.prime
    src = source.exponents
    tgt = target.exponents
    choice_sets = []
    for fi in tgt:
        for ej in src:
            step = p ** max(fi - ej, 0)
            choice_sets.append(range(0, p ** fi, step))
    ncols = len(src)
    seen = 0
    for flat in itertools.product(*choice_sets):
        rows = tuple(flat[i * ncols : (i + 1) * ncols] for i in range(len(tgt)))
        seen += 1
        yield GroupHom._trusted(source, target, rows)
    if seen != total:
        raise ArithmeticError("homomorphism count mismatch; enumeration bug")


def _partitions(n: int, maxpart: int | None = None) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    cap = min(n, maxpart) if maxpart else n
    for first in range(cap, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def enumerate_groups(p: int, max_order: int) -> list[FinAbGroup]:
    """All p-groups of order <= max_order, sorted by order then by partition."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    groups = []
    size = 0
    while p ** size <= max_order:
        for part in _partitions(size):
            groups.append(FinAbGroup(p, part))
        size += 1
    return groups
