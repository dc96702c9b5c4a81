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
from collections.abc import Iterator, Sequence
from functools import lru_cache
from operator import mul

from .exactring import _strip_p
from .report import DEFAULT_BUDGET, BudgetExceeded, _Frozen


class FinAbGroup(_Frozen):
    """Direct sum of Z/p^(e_i) with e_1 >= e_2 >= ... >= 1."""

    # factor_orders, p^e_i per factor, is derived from the exponents and
    # takes no part in eq, hash or repr
    __slots__ = ("prime", "exponents", "factor_orders")

    def __init__(self, prime: int, exponents: tuple[int, ...]):
        if prime < 2:
            raise ValueError("prime must be >= 2")
        exps = tuple(exponents)
        if any(e < 1 for e in exps):
            raise ValueError("exponents must be >= 1")
        if list(exps) != sorted(exps, reverse=True):
            raise ValueError("exponents must be non-increasing")
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "factor_orders", tuple(prime ** e for e in exps))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.prime, self.exponents) == (other.prime, other.exponents)
        return NotImplemented

    def __hash__(self):
        return hash((self.prime, self.exponents))

    def __repr__(self):
        return f"FinAbGroup(prime={self.prime!r}, exponents={self.exponents!r})"

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


class _Coords(_Frozen):
    """One coordinate per cyclic factor, each in 0..p^(e_i) - 1."""

    __slots__ = ("group", "coords")

    def __init__(self, group: FinAbGroup, coords: tuple[int, ...]):
        coords = tuple(coords)
        orders = group.factor_orders
        if len(coords) != len(orders):
            raise ValueError("coordinate count mismatch")
        if any(not 0 <= c < n for c, n in zip(coords, orders)):
            raise ValueError("coordinate out of range")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        # the exact class: an element never equals a functional
        if other.__class__ is self.__class__:
            return (self.group, self.coords) == (other.group, other.coords)
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self.coords))

    def __repr__(self):
        return f"{self.__class__.__name__}(group={self.group!r}, coords={self.coords!r})"

    def is_zero(self) -> bool:
        return not any(self.coords)


class GroupElem(_Coords):
    """An element of the group; never equal to a DualElem with the same coordinates."""

    __slots__ = ()

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


class DualElem(_Coords):
    """A functional on the group, with the same coordinate shape."""

    __slots__ = ()


class PadicCircle:
    """An element a/p^s of the p-power torsion of Q/Z, normalized."""

    __slots__ = ("prime", "numerator", "level")

    def __init__(self, prime: int, numerator: int, level: int):
        if level < 0:
            raise ValueError("level must be >= 0")
        # 0 < numerator < p^level leaves k < level
        numerator, k = _strip_p(numerator % prime ** level, prime)
        self.prime = prime
        self.numerator = numerator
        self.level = level - k if numerator else 0

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


def _enumerate(kind: type, group: FinAbGroup) -> tuple:
    ranges = [range(n) for n in group.factor_orders]
    return tuple(kind(group, coords) for coords in itertools.product(*ranges))


@lru_cache(maxsize=None)
def elements(group: FinAbGroup) -> tuple[GroupElem, ...]:
    """All elements in lexicographic coordinate order."""
    return _enumerate(GroupElem, group)


@lru_cache(maxsize=None)
def dual_elements(group: FinAbGroup) -> tuple[DualElem, ...]:
    """All functionals, in the same order as ``elements``."""
    return _enumerate(DualElem, group)


def element_index(group: FinAbGroup, coords: Sequence[int]) -> int:
    """Position of the coordinates in the lexicographic enumeration."""
    idx = 0
    for c, n in zip(coords, group.factor_orders):
        idx = idx * n + c
    return idx


def _generator_indices(group: FinAbGroup) -> list[int]:
    """Element indices of the unit coordinate vectors, one per cyclic factor."""
    rank = len(group.exponents)
    return [element_index(group, tuple(int(i == k) for i in range(rank)))
            for k in range(rank)]


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


@lru_cache(maxsize=None)
def _dual_plan(p: int, src: tuple[int, ...],
               tgt: tuple[int, ...]) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """Per row j of the dual, (i, multiplier, divisor, modulus) for each entry.

    Entry (j, i) of the dual is a * p^(e_j - f_i) when e_j >= f_i, else
    a / p^(f_i - e_j), reduced mod p^(e_j), for a the entry (i, j) of f.
    """
    return tuple(tuple((i, p ** max(e - fi, 0), p ** max(fi - e, 0), p ** e)
                       for i, fi in enumerate(tgt))
                 for e in src)


def dual_hom(f: GroupHom) -> GroupHom:
    """The adjoint map on duals: <f(v), l> = <v, dual_hom(f)(l)> for all v, l.

    Reads the multiplier, divisor and modulus of each entry from
    ``_dual_plan``, cached on the exponent tuples of the two groups.
    """
    m = f.matrix
    rows = []
    for j, plan in enumerate(_dual_plan(f.source.prime, f.source.exponents,
                                        f.target.exponents)):
        row = []
        for i, mult, div, mod in plan:
            a = m[i][j]
            if a % div:
                raise ArithmeticError("well-definedness violated; construction bug")
            row.append(a // div * mult % mod)
        rows.append(tuple(row))
    return GroupHom._trusted(f.target, f.source, tuple(rows))


def hom_count(source: FinAbGroup, target: FinAbGroup) -> int:
    p = source.prime
    count = 1
    for fi in target.exponents:
        for ej in source.exponents:
            count *= p ** min(ej, fi)
    return count


def _require_hom_budget(source: FinAbGroup, target: FinAbGroup, limit: int) -> int:
    """hom_count(source, target); BudgetExceeded above limit."""
    total = hom_count(source, target)
    if total > limit:
        raise BudgetExceeded(
            f"{total} homomorphisms {source.notation()} -> {target.notation()} "
            f"exceed the bound {limit}")
    return total


def _require_sweep_hom_budget(p: int, max_order: int, limit: int) -> None:
    """BudgetExceeded when a pair of p-groups of order <= max_order has more than limit homs.

    hom_count(V, W) is p to the sum of min(e_j, f_i), and min(e, f) <= e f,
    so that sum is at most (sum e_j)(sum f_i) <= s^2 for the largest order
    p^s; only (Z/p)^s to itself reaches it.  So that one pair is checked,
    and no group is listed; once s^2 passes the bit length of limit, p^(s^2)
    exceeds it without being counted.
    """
    s = _top_exponent(p, max_order)
    if s * s > limit.bit_length():
        raise BudgetExceeded(f"{p}^{s * s} homomorphisms (Z/{p})^{s} -> (Z/{p})^{s} "
                             f"exceed the bound {limit}")
    elementary = FinAbGroup(p, (1,) * s)
    _require_hom_budget(elementary, elementary, limit)


def hom_entry_choices(source: FinAbGroup, target: FinAbGroup) -> tuple[range, ...]:
    """The admissible values of each matrix entry (i, j), in row-major order.

    Entry (i, j) runs over the multiples of p^(max(f_i - e_j, 0)) below
    p^(f_i); ``enumerate_homs`` yields the product of these ranges in order.
    """
    p = source.prime
    return tuple(range(0, p ** fi, p ** max(fi - ej, 0))
                 for fi in target.exponents for ej in source.exponents)


def enumerate_homs(source: FinAbGroup, target: FinAbGroup,
                   limit: int = DEFAULT_BUDGET) -> Iterator[GroupHom]:
    """All homomorphisms, one matrix entry choice at a time, deterministic order."""
    total = _require_hom_budget(source, target, limit)
    ncols = len(source.exponents)
    rows = [slice(i * ncols, (i + 1) * ncols) for i in range(len(target.exponents))]
    seen = 0
    for flat in itertools.product(*hom_entry_choices(source, target)):
        seen += 1
        yield GroupHom._trusted(source, target, tuple([flat[r] for r in rows]))
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


def _top_exponent(p: int, max_order: int) -> int:
    """The largest s with p^s <= max_order: enumerate_groups lists the orders p^0 .. p^s."""
    s = 0
    while p ** (s + 1) <= max_order:
        s += 1
    return s


def enumerate_groups(p: int, max_order: int) -> list[FinAbGroup]:
    """All p-groups of order <= max_order, sorted by order then by partition."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    return [FinAbGroup(p, part) for size in range(_top_exponent(p, max_order) + 1)
            for part in _partitions(size)]
