"""Invertibility criterion, determinant oracle, naturality, and sweeps.

A circle function assigns values in a cyclotomic ring K to points of the
p-power torsion of Q/Z, for the prime p that K inverts; it parameterizes a
linear map from the group algebra to functions on the dual, with matrix
entry fn(<v,l>) in K.  The closed-form "spike" function (2 at the points
1/p^s, 1 elsewhere, over K = Z[1/p]) makes every such matrix invertible;
a three-condition criterion decides invertibility for arbitrary table
functions, and a brute-force determinant provides the independent verdict.

The map is natural in V.  ``naturality_sweep`` enumerates every hom
f: V -> W and proves its square from the bilinear adjoint identity
<f v, l> = <v, f_dual l> on generator pairs.  Pairing with a unit vector
or a unit functional reads one coordinate, so on the pair (g_j, h_i) the
identity ties entry (i, j) of f to entry (j, i) of f_dual alone: the
adjoint entry each value of f[i][j] demands is read once per group pair
from the two pairing tables, O(sum over (i, j) of p^e_j + p^f_i) reads,
and each hom then costs one ``dual_hom`` call and one tuple comparison.
The entrywise ``naturality_check`` decides any hom that fails it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping

from .chargauss import _standard_conductor, enumerate_characters, is_primitive, standard_ring
from .exactring import (CycloElem, CycloRing, euler_phi, get_ring, is_unit, lift_conductor,
                        units_mod)
from .finab import (FinAbGroup, GroupHom, PadicCircle, _generator_indices,
                    _require_sweep_hom_budget, _top_exponent, circle_points, dual_elements,
                    dual_hom, elements, enumerate_groups, enumerate_homs,
                    hom_entry_choices, pairing, pairing_numerators)
from .groupalgebra import transform_matrix
from .matrix import determinant
from .report import DEFAULT_BUDGET, BudgetExceeded, VerifyReport, _Value


class CircleFunction:
    """A function from the p-power torsion circle into a cyclotomic ring.

    The function owns its ring, and the ring its prime: the function is
    defined on the p-power torsion for p = ``ring.prime``.  The spike takes
    integer values, so its ring is Z[1/p] = ``get_ring(1, p)``, and it has no
    ``values``; a table keeps the ring of its values.  ``check_defined`` is
    the one guard: ValueError at another prime or beyond a table's level.
    """

    __slots__ = ("level", "values", "ring")

    def __init__(self, level: int | None, values: Mapping[PadicCircle, CycloElem] | None,
                 ring: CycloRing):
        self.level = level
        self.values = values
        self.ring = ring

    @property
    def prime(self) -> int:
        return self.ring.prime

    @classmethod
    def spike(cls, p: int) -> "CircleFunction":
        """Value 2 at every point 1/p^s with s >= 1, value 1 elsewhere; total."""
        return cls(None, None, get_ring(1, p))

    @classmethod
    def table(cls, level: int, values: Mapping[PadicCircle, CycloElem],
              ring: CycloRing) -> "CircleFunction":
        """Explicit values in ``ring`` on all points of level <= level, for the ring's prime."""
        if set(values.keys()) != set(circle_points(ring.prime, level)):
            raise ValueError("table must cover exactly the points up to the level, "
                             "for the prime of its ring")
        if any(v.ring != ring for v in values.values()):
            raise ValueError("table value from the wrong ring")
        return cls(level, dict(values), ring)

    def check_defined(self, prime: int, level: int) -> None:
        """Raise ValueError unless the function is defined at every point a/prime^level."""
        if prime != self.prime:
            raise ValueError(f"circle function over p={self.prime} asked about p={prime}")
        if self.level is not None and level > self.level:
            raise ValueError(f"circle function not defined beyond level {self.level}, "
                             f"asked about level {level}")

    def value_at(self, x: PadicCircle) -> CycloElem:
        self.check_defined(x.prime, x.level)
        if self.values is None:
            return self.ring.from_int(2 if x.numerator == 1 else 1)
        return self.values[x]

    def label(self) -> str:
        if self.values is None:
            return f"spike(p={self.prime})"
        return f"table(p={self.prime}, level={self.level})"

    def __repr__(self):
        return f"CircleFunction({self.label()})"


class CriterionReport(_Value):
    """Outcome of the three-condition invertibility criterion."""

    __slots__ = _fields = ("condition1", "witness1", "condition2", "witness2", "condition3")
    __hash__ = None

    def __init__(self, condition1: bool, witness1: CycloElem, condition2: bool,
                 witness2: CycloElem,
                 condition3: list[tuple[int, tuple[int, ...], CycloElem, bool]] | None = None):
        self.condition1 = condition1
        self.witness1 = witness1
        self.condition2 = condition2
        self.witness2 = witness2
        self.condition3 = [] if condition3 is None else condition3

    @property
    def overall(self) -> bool:
        return (self.condition1 and self.condition2
                and all(ok for _, _, _, ok in self.condition3))


def invertibility_criterion(fn: CircleFunction, levels: int) -> CriterionReport:
    """Decide invertibility of the parameterized map on all groups killed by p^levels.

    Three conditions, each a unit test: the value at 0; the sum of the
    level-one increments; and, for every level r <= levels and every
    primitive character chi mod p^r, the chi^(-1)-twisted increment sum.
    The sums live in the smallest ring holding fn's values and the
    characters mod p^levels; a value from a smaller ring is lifted into it.
    """
    p = fn.prime
    fn.check_defined(p, levels)
    ring = get_ring(math.lcm(fn.ring.conductor, _standard_conductor(p, levels)), p)

    def value(t: int, r: int) -> CycloElem:
        x = fn.value_at(PadicCircle(p, t, r))
        return x if x.ring == ring else lift_conductor(x, ring.conductor)

    zero_value = value(0, 0)
    c1 = is_unit(zero_value)
    s2 = ring.zero
    for j in range(1, p):
        s2 = s2 + (value(j, 1) - zero_value)
    c2 = is_unit(s2)
    entries = []
    for r in range(1, levels + 1):
        N = p ** r
        for chi in enumerate_characters(p, r, ring):
            if not is_primitive(chi):
                continue
            s = ring.zero
            for t in units_mod(N):
                diff = value(t, r) - zero_value
                if diff:
                    s = s + chi.eval(pow(t, -1, N)) * diff
            entries.append((r, chi.exponents, s, is_unit(s)))
    return CriterionReport(c1, zero_value, c2, s2, entries)


def matrix_is_invertible(group: FinAbGroup, fn: CircleFunction) -> bool:
    """Brute-force verdict: the determinant of the transform matrix is a unit."""
    return is_unit(determinant(transform_matrix(group, fn)))


# -- criterion versus determinant, on seeded random tables ---------------


def random_table_function(p: int, r: int, rng) -> CircleFunction:
    """A table over ``standard_ring(p, r)``, drawn from the pool {0, 1, 2, zeta, zeta - 1, p}.

    ``rng`` is a ``random.Random``; only its ``randrange`` is called.
    """
    ring = standard_ring(p, r)
    pool = [ring.zero, ring.one, ring.from_int(2), ring.zeta(1),
            ring.zeta(1) - ring.one, ring.from_int(p)]
    values = {point: pool[rng.randrange(len(pool))] for point in circle_points(p, r)}
    return CircleFunction.table(r, values, ring)


def criterion_vs_determinant(p: int, r: int, samples: int, seed: int,
                             extra_groups: int = 2, limit: int = DEFAULT_BUDGET) -> VerifyReport:
    """Per sample: criterion verdict must equal the determinant verdict on Z/p^r.

    ``extra_groups`` additional groups of exponent p^r (order at most
    p^(r+1)) are drawn per sample as confirmation of the same verdict.  A
    sample computes one determinant verdict per distinct group: a group
    drawn again, or equal to Z/p^r, reuses the verdict it already has.
    BudgetExceeded is raised up front when n^3 * phi(M)^2, for the largest
    group order n = p^top a sample can draw, exceeds ``limit``.  It is
    checked from integers alone, before any ring is built: n is not built
    when 3 top reaches the bit length of ``limit`` (then n^3 >= 2^(3 top)
    exceeds it), and ``euler_phi(M)`` runs only once n^3 fits, its trial
    division then taking at most sqrt(M) < n steps.  The loop is charged
    first: BudgetExceeded when samples * (1 + extra_groups) determinant
    verdicts exceed ``limit``.
    """
    if samples * (1 + extra_groups) > limit:
        raise BudgetExceeded(f"{samples} samples x (1 + {extra_groups}) determinant verdicts "
                             f"exceed the bound {limit}")
    top = r + 1 if extra_groups else r
    if 3 * top >= limit.bit_length():  # n^3 >= 2^(3 top) > limit
        raise BudgetExceeded(f"{p}^{top} x {p}^{top} determinants exceed the bound {limit}")
    n = p ** top
    conductor = _standard_conductor(p, r)
    if n ** 3 > limit or n ** 3 * euler_phi(conductor) ** 2 > limit:
        raise BudgetExceeded(f"{n}x{n} determinants over Z[zeta_{conductor}] "
                             f"exceed the bound {limit}")
    import random  # only this command draws: a cold CLI start does not load it

    rng = random.Random(seed)
    decision_group = FinAbGroup(p, (r,))
    pool = [g for g in enumerate_groups(p, p ** (r + 1))
            if g.exponents and g.exponents[0] == r]
    report = VerifyReport("verify-criterion-oracle",
                          {"p": p, "r": r, "samples": samples, "seed": seed,
                           "extra_groups": extra_groups})
    for i in range(samples):
        fn = random_table_function(p, r, rng)
        v_criterion = invertibility_criterion(fn, r).overall
        v_det = matrix_is_invertible(decision_group, fn)
        ok = v_criterion == v_det
        decided = {decision_group: v_det}
        extras = {}
        for _ in range(extra_groups):
            g = pool[rng.randrange(len(pool))]
            if g not in decided:
                decided[g] = matrix_is_invertible(g, fn)
            extras[g.notation()] = decided[g]
            ok = ok and (decided[g] == v_criterion)
        report.add(f"sample-{i}", f"p={p}, r={r}, sample {i}", ok,
                   {"criterion": v_criterion, "determinant": v_det,
                    "extra": extras})
    return report


# -- naturality -----------------------------------------------------------


def naturality_check(f: GroupHom, fn: CircleFunction) -> bool:
    """Entrywise check that the transform commutes with the homomorphism.

    For every v in the source and l over the target's dual, the value at
    <f(v), l> must equal the value at <v, f_dual(l)>.  ValueError unless fn
    is defined on both groups, checked up front: a hom may pair to 0 alone.
    """
    V, W = f.source, f.target
    for g in (V, W):
        fn.check_defined(g.prime, g.exponents[0] if g.exponents else 0)
    fs = dual_hom(f)
    for v in elements(V):
        w = f.apply(v)
        for l in dual_elements(W):
            lhs = fn.value_at(pairing(w, l))
            rhs = fn.value_at(pairing(v, fs.apply_dual(l)))
            if lhs != rhs:
                return False
    return True


def _adjoint_entries(V: FinAbGroup, W: FinAbGroup) -> list[list[int | None]]:
    """Per entry (i, j) of a hom V -> W, in the order of ``hom_entry_choices``,
    the adjoint entry b = f_dual[j][i] that each admissible a = f[i][j] demands.

    b solves <g_j, b h_j>_V = <a g_i, h_i>_W, where g and h are the unit
    vectors and unit functionals, which share their element indices
    (``_generator_indices``); a g_i sits at a times the index of g_i.  None
    where no b does.  Pairings a / p^e1(W) and b / p^e1(V) agree exactly
    when a * p^e1(V) == b * p^e1(W).
    """
    table_v, table_w = pairing_numerators(V), pairing_numerators(W)
    den_v, den_w = V.exponent_value, W.exponent_value
    gens_v, gens_w = _generator_indices(V), _generator_indices(W)
    # per source factor j: the cross-multiplied pairing <g_j, b h_j>_V -> b
    solve = [{table_v[g][b * g] * den_w: b for b in range(n)}
             for g, n in zip(gens_v, V.factor_orders)]
    return [[sol.get(table_w[a * h][h] * den_v) for a in choice]
            for (h, sol), choice in zip(itertools.product(gens_w, solve),
                                        hom_entry_choices(V, W))]


def _naturality_pair(V: FinAbGroup, W: FinAbGroup, fn: CircleFunction,
                     limit: int) -> tuple[bool, int, dict | None]:
    """Every hom V -> W, its adjoint compared with the entries the pairings demand.

    ``enumerate_homs`` yields the product of ``hom_entry_choices`` in order,
    so the product of ``_adjoint_entries`` walks in step with it.  fn is
    evaluated only when an adjoint differs: the caller checks that fn is
    defined on V and W.
    """
    expected = itertools.product(*_adjoint_entries(V, W))
    count = 0
    for f, want in zip(enumerate_homs(V, W, limit=limit), expected, strict=True):
        count += 1
        # the adjoint's columns, i = 0, 1, ..., list its entries (j, i) in f's order
        holds = sum(zip(*dual_hom(f).matrix), ()) == want
        if not holds and not naturality_check(f, fn):
            return False, count, {"hom": [list(r) for r in f.matrix],
                                  "source": V.notation(), "target": W.notation()}
    return True, count, None


def naturality_sweep(p: int, max_order: int, fn: CircleFunction | None = None,
                     limit: int = DEFAULT_BUDGET) -> VerifyReport:
    """Naturality squares for every homomorphism between groups up to the bound.

    Each hom f: V -> W from ``enumerate_homs`` (at most ``limit`` per pair,
    else BudgetExceeded) is checked through <f g_j, h_i>_W = <g_j, f_dual h_i>_V
    on the source generators g_j and the target's dual generators h_i.  Both
    sides are bilinear in (v, l), as f and ``dual_hom(f)`` are homomorphisms,
    so the identity then holds for all v and l, and fn(<f v, l>) =
    fn(<v, f_dual l>) for every circle function fn.  Pairing with a unit
    vector or a unit functional reads one coordinate, so the left side
    depends on f[i][j] alone and the right side on f_dual[j][i] alone: the
    identity holds exactly when f_dual, reduced, carries the entries that
    the two pairing tables demand.  These are read once per pair, in
    O(sum over (i, j) of p^e_j + p^f_i) table reads, and each hom then costs
    one ``dual_hom`` call and one tuple comparison.  A hom whose adjoint
    differs is decided by the entrywise ``naturality_check`` with fn, so
    verdicts stay exact even for a faulty ``dual_hom``; the first hom it
    rejects is the witness.  ValueError unless fn is defined on every group
    up to ``max_order``, checked before the budget: each square holds
    without evaluating fn.  The pair with the most homs is checked against
    ``limit`` before any pair is enumerated.
    """
    fn = fn if fn is not None else CircleFunction.spike(p)
    fn.check_defined(p, _top_exponent(p, max_order))
    _require_sweep_hom_budget(p, max_order, limit)
    groups = enumerate_groups(p, max_order)
    report = VerifyReport("verify-naturality",
                          {"p": p, "max_order": max_order, "alpha": fn.label()})
    for V in groups:
        for W in groups:
            ok, count, witness = _naturality_pair(V, W, fn, limit)
            payload = {"homs": count}
            if witness is not None:
                payload["failure"] = witness
            report.add(f"natural-{V.notation()}-to-{W.notation()}",
                       f"{V.notation()} -> {W.notation()}", ok, payload)
    return report


# -- the full sweep --------------------------------------------------------


def natural_iso_sweep(p: int, max_order: int, hom_order_bound: int | None = None,
                      dump_matrix: bool = False, limit: int = DEFAULT_BUDGET) -> VerifyReport:
    """The spike's determinant-unit check for every group, plus naturality up to a sub-bound.

    The spike's values are integers, so its matrices live over Z[1/p].
    ``limit`` bounds each unit of brute-force work.  BudgetExceeded is raised
    before any matrix is built when n^3, for the largest group order n,
    exceeds it, or when the naturality part would enumerate more than
    ``limit`` homs for some group pair, as in ``naturality_sweep``.
    """
    fn = CircleFunction.spike(p)
    n = p ** _top_exponent(p, max_order)  # the largest group order
    if n ** 3 > limit:
        raise BudgetExceeded(f"{n}x{n} determinants over Z[1/{p}] exceed the bound {limit}")
    if hom_order_bound:
        _require_sweep_hom_budget(p, min(hom_order_bound, max_order), limit)
    groups = enumerate_groups(p, max_order)
    report = VerifyReport("verify-iso",
                          {"p": p, "max_order": max_order, "alpha": fn.label(),
                           "hom_order_bound": hom_order_bound,
                           "conductor": fn.ring.conductor})
    for group in groups:
        mat = transform_matrix(group, fn)
        det = determinant(mat)
        payload: dict = {"determinant": det.coeff_strings()}
        if dump_matrix:
            payload["matrix"] = mat.to_json()
        report.add(f"iso-{group.notation()}", f"V={group.notation()}", is_unit(det), payload)
    if hom_order_bound:
        sub = naturality_sweep(p, min(hom_order_bound, max_order), fn, limit=limit)
        report.extend(sub.checks)
    return report
