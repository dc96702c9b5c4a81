"""Invertibility criterion, determinant oracle, naturality, and sweeps.

A circle function assigns ring values to points of the p-power torsion of
Q/Z; it parameterizes a linear map from the group algebra to functions on
the dual, with matrix entry fn(<v,l>).  The closed-form "spike" function
(2 at the points 1/p^s, 1 elsewhere) makes every such matrix invertible;
a three-condition criterion decides invertibility for arbitrary table
functions, and a brute-force determinant provides the independent verdict.

The map is natural in V.  ``naturality_sweep`` enumerates every hom
f: V -> W and proves its square from the bilinear adjoint identity
<f v, l> = <v, f_dual l> on generator pairs, with the entrywise
``naturality_check`` as fallback: O(|Hom| * rank(V) * rank(W)) per pair.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Mapping

from .chargauss import enumerate_characters, is_primitive, standard_ring, units_mod
from .exactring import CycloElem, CycloRing, get_ring, is_unit
from .finab import (FinAbGroup, GroupHom, PadicCircle, _require_hom_budget, circle_points,
                    dual_elements, dual_hom, element_index, elements, enumerate_groups,
                    enumerate_homs, identity_hom, pairing, pairing_numerators)
from .groupalgebra import transform_matrix
from .matrix import determinant
from .report import DEFAULT_BUDGET, BudgetExceeded, VerifyReport


class CircleFunction:
    """A function from the p-power torsion circle into a cyclotomic ring."""

    __slots__ = ("kind", "prime", "level", "values", "ring")

    def __init__(self, kind: str, prime: int, level: int | None,
                 values: Mapping[PadicCircle, CycloElem] | None,
                 ring: CycloRing | None):
        self.kind = kind
        self.prime = prime
        self.level = level
        self.values = values
        self.ring = ring

    @classmethod
    def spike(cls, p: int) -> "CircleFunction":
        """Value 2 at every point 1/p^s with s >= 1, value 1 elsewhere; total."""
        return cls("spike", p, None, None, None)

    @classmethod
    def table(cls, p: int, level: int,
              values: Mapping[PadicCircle, CycloElem],
              ring: CycloRing) -> "CircleFunction":
        """Explicit values on all points of level <= level."""
        points = circle_points(p, level)
        if set(values.keys()) != set(points):
            raise ValueError("table must cover exactly the points up to the level")
        for v in values.values():
            if v.ring != ring:
                raise ValueError("table value from the wrong ring")
        return cls("table", p, level, dict(values), ring)

    def covers_level(self, level: int) -> bool:
        return self.level is None or level <= self.level

    def value_at(self, x: PadicCircle, ring: CycloRing) -> CycloElem:
        if x.prime != self.prime:
            raise ValueError("point from the wrong prime")
        if self.kind == "spike":
            return ring.from_int(2 if x.numerator == 1 else 1)
        if x.level > self.level:
            raise ValueError(f"point {x} beyond table level {self.level}")
        if ring != self.ring:
            raise ValueError("table values live in a different ring")
        return self.values[x]

    def label(self) -> str:
        if self.kind == "spike":
            return f"spike(p={self.prime})"
        return f"table(p={self.prime}, level={self.level})"

    def __repr__(self):
        return f"CircleFunction({self.label()})"


def spike_ring(p: int) -> CycloRing:
    """The spike function takes integer values, so conductor 1 suffices."""
    return get_ring(1, p)


@dataclass(slots=True)
class CriterionReport:
    """Outcome of the three-condition invertibility criterion."""

    condition1: bool
    witness1: CycloElem
    condition2: bool
    witness2: CycloElem
    condition3: list[tuple[int, tuple[int, ...], CycloElem, bool]] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return (self.condition1 and self.condition2
                and all(ok for _, _, _, ok in self.condition3))

    def to_json(self) -> dict:
        return {
            "condition1": {"pass": self.condition1,
                           "witness": self.witness1.coeff_strings()},
            "condition2": {"pass": self.condition2,
                           "witness": self.witness2.coeff_strings()},
            "condition3": [
                {"level": r, "character": list(exps),
                 "witness": value.coeff_strings(), "pass": ok}
                for r, exps, value, ok in self.condition3
            ],
            "overall": self.overall,
        }


def invertibility_criterion(fn: CircleFunction, p: int, levels: int,
                            ring: CycloRing | None = None) -> CriterionReport:
    """Decide invertibility of the parameterized map on all groups killed by p^levels.

    Three conditions, each a unit test: the value at 0; the sum of the
    level-one increments; and, for every level r <= levels and every
    primitive character chi mod p^r, the chi^(-1)-twisted increment sum.
    """
    if not fn.covers_level(levels):
        raise ValueError("circle function not defined up to the requested level")
    if ring is None:
        ring = fn.ring if fn.kind == "table" else standard_ring(p, levels)
    zero_value = fn.value_at(PadicCircle.zero(p), ring)
    c1 = is_unit(zero_value)
    s2 = ring.zero
    for j in range(1, p):
        s2 = s2 + (fn.value_at(PadicCircle(p, j, 1), ring) - zero_value)
    c2 = is_unit(s2)
    entries = []
    for r in range(1, levels + 1):
        N = p ** r
        for chi in enumerate_characters(p, r, ring):
            if not is_primitive(chi):
                continue
            s = ring.zero
            for t in units_mod(N):
                diff = fn.value_at(PadicCircle(p, t, r), ring) - zero_value
                if diff:
                    s = s + chi.eval(pow(t, -1, N)) * diff
            entries.append((r, chi.exponents, s, is_unit(s)))
    return CriterionReport(c1, zero_value, c2, s2, entries)


def transform_determinant(group: FinAbGroup, fn: CircleFunction,
                          ring: CycloRing) -> CycloElem:
    return determinant(transform_matrix(group, fn, ring))


def matrix_is_invertible(group: FinAbGroup, fn: CircleFunction,
                         ring: CycloRing) -> bool:
    """Brute-force verdict: the determinant of the transform matrix is a unit."""
    return is_unit(transform_determinant(group, fn, ring))


# -- criterion versus determinant, on seeded random tables ---------------


def random_table_function(p: int, r: int, rng: random.Random,
                          ring: CycloRing | None = None) -> CircleFunction:
    """A table drawn from the fixed pool {0, 1, 2, zeta, zeta - 1, p}."""
    if ring is None:
        ring = standard_ring(p, r)
    pool = [ring.zero, ring.one, ring.from_int(2), ring.zeta(1),
            ring.zeta(1) - ring.one, ring.from_int(p)]
    values = {point: pool[rng.randrange(len(pool))] for point in circle_points(p, r)}
    return CircleFunction.table(p, r, values, ring)


def criterion_vs_determinant(p: int, r: int, samples: int, seed: int,
                             extra_groups: int = 2, limit: int = DEFAULT_BUDGET) -> VerifyReport:
    """Per sample: criterion verdict must equal the determinant verdict on Z/p^r.

    ``extra_groups`` additional groups of exponent p^r (order at most
    p^(r+1)) are drawn per sample as confirmation of the same verdict.  A
    sample computes one determinant verdict per distinct group: a group
    drawn again, or equal to Z/p^r, reuses the verdict it already has.
    BudgetExceeded is raised up front when n^3 * phi(M)^2, for the largest
    group order n a sample can draw, exceeds ``limit``.
    """
    rng = random.Random(seed)
    ring = standard_ring(p, r)
    n = p ** (r + 1) if extra_groups else p ** r
    if n ** 3 * ring.degree ** 2 > limit:
        raise BudgetExceeded(f"{n}x{n} determinants over Z[zeta_{ring.conductor}] "
                             f"exceed the bound {limit}")
    decision_group = FinAbGroup(p, (r,))
    pool = [g for g in enumerate_groups(p, p ** (r + 1))
            if g.exponents and g.exponents[0] == r]
    report = VerifyReport("verify-criterion-oracle",
                          {"p": p, "r": r, "samples": samples, "seed": seed,
                           "extra_groups": extra_groups})
    for i in range(samples):
        fn = random_table_function(p, r, rng, ring)
        v_criterion = invertibility_criterion(fn, p, r, ring).overall
        v_det = matrix_is_invertible(decision_group, fn, ring)
        ok = v_criterion == v_det
        decided = {decision_group: v_det}
        extras = {}
        for _ in range(extra_groups):
            g = pool[rng.randrange(len(pool))]
            if g not in decided:
                decided[g] = matrix_is_invertible(g, fn, ring)
            extras[g.notation()] = decided[g]
            ok = ok and (decided[g] == v_criterion)
        report.add(f"sample-{i}", f"p={p}, r={r}, sample {i}", ok,
                   {"criterion": v_criterion, "determinant": v_det,
                    "extra": extras})
    return report


# -- naturality -----------------------------------------------------------


def _require_defined(fn: CircleFunction, ring: CycloRing, *groups: FinAbGroup) -> None:
    """Raise ValueError unless fn has values in ring on every pairing of the groups."""
    for g in groups:
        e1 = g.exponents[0] if g.exponents else 0
        if not fn.covers_level(e1):
            raise ValueError("circle function not defined at the group's level")
        fn.value_at(PadicCircle.zero(g.prime), ring)  # a wrong prime or ring raises


def naturality_check(f: GroupHom, fn: CircleFunction, ring: CycloRing) -> bool:
    """Entrywise check that the transform commutes with the homomorphism.

    For every v in the source and l over the target's dual, the value at
    <f(v), l> must equal the value at <v, f_dual(l)>.
    """
    V, W = f.source, f.target
    _require_defined(fn, ring, V, W)
    fs = dual_hom(f)
    for v in elements(V):
        w = f.apply(v)
        for l in dual_elements(W):
            lhs = fn.value_at(pairing(w, l), ring)
            rhs = fn.value_at(pairing(v, fs.apply_dual(l)), ring)
            if lhs != rhs:
                return False
    return True


def _naturality_pair(V: FinAbGroup, W: FinAbGroup, fn: CircleFunction,
                     ring: CycloRing, limit: int) -> tuple[bool, int, dict | None]:
    """Every hom V -> W, checked on generator pairs.

    Pairings a / p^e1(W) and b / p^e1(V) agree exactly when a * p^e1(V) == b * p^e1(W).
    """
    _require_defined(fn, ring, V, W)
    table_v, table_w = pairing_numerators(V), pairing_numerators(W)
    den_v, den_w = V.exponent_value, W.exponent_value
    locate_v = cache(partial(element_index, V))  # columns repeat across homs
    locate_w = cache(partial(element_index, W))
    # Column j of a hom's matrix is the image of the j-th generator.
    gens_v = [locate_v(col) for col in zip(*identity_hom(V).matrix)]
    gens_w = [locate_w(col) for col in zip(*identity_hom(W).matrix)]
    count = 0
    for f in enumerate_homs(V, W, limit=limit):
        count += 1
        images = [locate_w(col) for col in zip(*f.matrix)]
        dual_images = [locate_v(col) for col in zip(*dual_hom(f).matrix)]
        holds = all(table_w[images[j]][h] * den_v == table_v[g][dual_images[k]] * den_w
                    for j, g in enumerate(gens_v) for k, h in enumerate(gens_w))
        if not holds and not naturality_check(f, fn, ring):
            return False, count, {"hom": [list(r) for r in f.matrix],
                                  "source": V.notation(), "target": W.notation()}
    return True, count, None


def naturality_sweep(p: int, max_order: int, fn: CircleFunction | None = None,
                     ring: CycloRing | None = None,
                     limit: int = DEFAULT_BUDGET) -> VerifyReport:
    """Naturality squares for every homomorphism between groups up to the bound.

    Each hom f: V -> W from ``enumerate_homs`` (at most ``limit`` per pair,
    else BudgetExceeded) is checked through <f g_j, h_k>_W = <g_j, f_dual h_k>_V
    on the source generators g_j and the target's dual generators h_k.  Both
    sides are bilinear in (v, l), as f and ``dual_hom(f)`` are homomorphisms,
    so the identity then holds for all v and l, and fn(<f v, l>) =
    fn(<v, f_dual l>) for every circle function fn.  A hom that fails on a
    generator pair is decided by the entrywise ``naturality_check`` with fn,
    so verdicts stay exact even for a faulty ``dual_hom``; the first hom it
    rejects is the witness.  Cost per pair: O(|Hom(V, W)| * rank(V) * rank(W))
    pairing lookups instead of O(|Hom(V, W)| * |V| * |W|).  The pair with the
    most homs is checked against ``limit`` before any pair is enumerated.
    """
    fn = fn if fn is not None else CircleFunction.spike(p)
    if ring is None:
        ring = fn.ring if fn.kind == "table" else spike_ring(p)
    groups = enumerate_groups(p, max_order)
    _require_hom_budget(itertools.product(groups, repeat=2), limit)
    report = VerifyReport("verify-naturality",
                          {"p": p, "max_order": max_order, "alpha": fn.label()})
    for V in groups:
        for W in groups:
            ok, count, witness = _naturality_pair(V, W, fn, ring, limit)
            payload = {"homs": count}
            if witness is not None:
                payload["failure"] = witness
            report.add(f"natural-{V.notation()}-to-{W.notation()}",
                       f"{V.notation()} -> {W.notation()}", ok, payload)
    return report


# -- the full sweep --------------------------------------------------------


def natural_iso_sweep(p: int, max_order: int, hom_order_bound: int | None = None,
                      fn: CircleFunction | None = None,
                      ring: CycloRing | None = None,
                      dump_matrix: bool = False, limit: int = DEFAULT_BUDGET) -> VerifyReport:
    """Determinant-unit check for every group, plus naturality up to a sub-bound.

    ``limit`` bounds each unit of brute-force work.  BudgetExceeded is raised
    before any matrix is built when n^3 * phi(M), for the largest group order
    n and the conductor M of the entries' ring (phi = 1 for the integer spike
    values), exceeds it, or when the naturality part would enumerate more
    than ``limit`` homs for some group pair, as in ``naturality_sweep``.
    """
    fn = fn if fn is not None else CircleFunction.spike(p)
    if ring is None:
        ring = fn.ring if fn.kind == "table" else spike_ring(p)
    groups = enumerate_groups(p, max_order)
    n = max(g.order for g in groups)
    if n ** 3 * ring.degree > limit:
        raise BudgetExceeded(f"{n}x{n} determinants over Z[zeta_{ring.conductor}] "
                             f"exceed the bound {limit}")
    if hom_order_bound:
        _require_hom_budget(itertools.product(
            enumerate_groups(p, min(hom_order_bound, max_order)), repeat=2), limit)
    report = VerifyReport("verify-iso",
                          {"p": p, "max_order": max_order, "alpha": fn.label(),
                           "hom_order_bound": hom_order_bound,
                           "conductor": ring.conductor})
    for group in groups:
        mat = transform_matrix(group, fn, ring)
        det = determinant(mat)
        payload: dict = {"determinant": det.coeff_strings()}
        if dump_matrix:
            payload["matrix"] = mat.to_json()
        report.add(f"iso-{group.notation()}", f"V={group.notation()}", is_unit(det), payload)
    if hom_order_bound:
        sub = naturality_sweep(p, min(hom_order_bound, max_order), fn, ring, limit=limit)
        report.extend(sub.checks)
    return report
