"""Group algebras k[V], function algebras on the dual, and Fourier inversion.

Elements of k[V] are coefficient vectors indexed by the lexicographic
element order; functions on the dual are value vectors indexed the same
way.  The evaluation map sends a basis element [v] to the function
l -> zeta^<v,l>; its inverse is synthesis from the Fourier transform
f^(v) = |V|^(-1) sum_l f(l) zeta^(-<v,l>).

Both directions run through one kernel, ``_transform``.  The zeta_M
exponents of the pairing are tabulated once per (group, ring) and cached;
the table is symmetric, so one row serves evaluation (sign +1) and
synthesis (sign -1, with |V|^(-1) folded into the denominator exponent).
Each nonzero input contributes only its nonzero power-basis terms (zero
inputs are skipped before their slots are scanned), accumulated in
exponent space Z[X]/(X^M - 1) and reduced mod Phi_M once per output:
O(|V|^2 * nnz) for nnz nonzero input terms, plus |V| reductions.

Fourier inversion is proven per group, not run as |V| round trips each
way (each of which would end in a dense |V| x |V| synthesis, O(|V|^3) per
group).  With T the exponent table and s = sum of the group's exponents
(|V| = p^s), ``fourier_inversion_report`` checks:

1. Kernel columns, from one packed input per direction: with B = 2H + 1,
   where H = max_u ||zeta^u||_inf in the power basis (H = 1 when M is a
   prime power), evaluate_at_characters(sum_v B^v [v]) at l equals
   sum_v B^v zeta^T[v][l], and fourier_transform(sum_j B^j delta_j) at l
   equals p^(-s) sum_j B^j zeta^(-T[j][l]).  The expected values are summed
   from the sparse power-basis supports of the zeta^u, not by the kernel.
2. Bilinearity: T[0][.] = 0, T is symmetric, and
   T[v + g_k][l] = T[v][l] + T[g_k][l] (mod M) for every generator g_k.
3. Orthogonality: sum_l zeta^T[u][l] = |V| [u = 0] for every u, summed in
   exponent space and reduced once per u.
4. One multi-term round trip each way on the fixed input
   [0] + 2[g_1] + 3[g_2] + ... (delta functions likewise).

The kernel is a sum over input terms, so it is Z[zeta]-linear.  Step 1 is
therefore the check on every single-term input, read off in base B (a
Kronecker substitution): write K for a transform, E for its value from the
table, e_v for the v-th single-term input and x_B = sum_v B^v e_v.  On e_v
the kernel reduces one monomial mod Phi_M (and divides by p^s when it
synthesizes), so p^s K(e_v) and p^s E(e_v) have integer coefficients of
absolute value at most H (s = 0 when it evaluates).  If K(x_B) = E(x_B),
then sum_v B^v d_v = 0 with d_v = p^s (K(e_v) - E(e_v)), whose coefficients
are at most 2H = B - 1 in absolute value.  Were some d_v nonzero, let v0 be
the largest such v and k a slot with d_v0[k] != 0; then
|B^v0 d_v0[k]| >= B^v0 > (B - 1) sum_(v<v0) B^v >= |sum_(v<v0) B^v d_v[k]|,
a contradiction.  So K(e_v) = E(e_v) for every v, and step 1 determines
both maps: E[l][v] = zeta^T[v][l], F[v][l] = p^(-s) zeta^(-T[l][v]).
By steps 2 and 3, (F E)[w][v] = p^(-s) sum_l zeta^(T[v][l] - T[w][l]) =
p^(-s) sum_l zeta^T[v-w][l] = [v = w], and E F = I the same way through
the rows of the symmetric table.

Step 4 is the only check, at run time, that the kernel is Z[zeta]-linear on
inputs that are not scalars.  The packed inputs of step 1 are integer
scalars, so step 1 reads each input's power-basis slot 0 only, and steps 2
and 3 do not run the kernel: a kernel that ignored each term's slot k would
pass steps 1-3 on every group, and be wrong on each group of exponent above
2.  The round trips of step 4 transform the output of the other transform,
whose terms fill every slot, so they reject it.  Step 4 uses a sparse
input, O(|V|^2 * rank) per group; a dense input would cost
O(|V|^2 * phi(M)), so the seeded dense-input oracle of the test suite
(test_transforms_match_pairing_oracle) remains the dense guard.  Step 1
costs O(|V|^2 * (1 + nnz)) additions of |V| log2(B)-bit integers plus |V|
reductions per direction, with nnz the largest support of a zeta^u (at
most p - 1 when M = p^e); step 2 costs O(|V|^2 * rank) and step 3
O(|V|^2) plus |V| reductions.

When any step fails, the group is decided by ``_inversion_by_round_trips``
(every basis vector, both ways), so verdicts and the first failing
``basis_index`` / ``dual_index`` are exactly those of the full sweep.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul, neg, sub
from typing import Sequence

from .chargauss import enumerate_characters, units_mod
from .exactring import CycloElem, CycloRing, _strip_p, is_unit
from .finab import (FinAbGroup, GroupElem, PadicCircle, _generator_indices, element_index,
                    elements, pairing_numerators)
from .matrix import RingMatrix
from .report import DEFAULT_BUDGET, BudgetExceeded, VerifyReport


def _check_conductor(group: FinAbGroup, ring: CycloRing) -> None:
    if group.prime != ring.prime:
        raise ValueError("group prime differs from the ring's inverted prime")
    e1 = group.exponents[0] if group.exponents else 0
    if _strip_p(ring.conductor, group.prime)[1] < e1:
        raise ValueError(
            f"conductor {ring.conductor} lacks the p^{e1}-th roots of unity")


@lru_cache(maxsize=None)
def _zeta_exponent_table(group: FinAbGroup, ring: CycloRing) -> tuple[tuple[int, ...], ...]:
    """exps[v][l]: the zeta_M exponent of <v_i, l_j>; built once per (group, ring)."""
    _check_conductor(group, ring)
    M = ring.conductor
    scale = M // group.exponent_value
    return tuple(tuple(t * scale % M for t in row) for row in pairing_numerators(group))


class _GroupIndexed:
    """One ring value per group element, in the lexicographic element order.

    The body of AlgElem and FunElem: a subclass names the values' field (the
    shared slot under another name), gives its error messages and its product.
    Values of different subclasses never compare equal.
    """

    __slots__ = ("group", "ring", "_items")
    _errors: tuple[str, str, str]  # wrong count, wrong ring, different algebras

    def __init__(self, group: FinAbGroup, ring: CycloRing, items: Sequence[CycloElem]):
        if len(items) != group.order:
            raise ValueError(self._errors[0])
        for c in items:
            if c.ring is not ring and c.ring != ring:
                raise ValueError(self._errors[1])
        self.group = group
        self.ring = ring
        self._items = tuple(items)

    def _same_algebra(self, other):
        if type(other) is not type(self) or self.group != other.group or self.ring != other.ring:
            raise ValueError(self._errors[2])

    def __add__(self, other):
        self._same_algebra(other)
        return type(self)(self.group, self.ring, list(map(add, self._items, other._items)))

    def __sub__(self, other):
        self._same_algebra(other)
        return type(self)(self.group, self.ring, list(map(sub, self._items, other._items)))

    def __neg__(self):
        return type(self)(self.group, self.ring, list(map(neg, self._items)))

    def __eq__(self, other):
        if type(other) is type(self):
            return (self.group, self.ring, self._items) == (other.group, other.ring, other._items)
        return NotImplemented

    def __hash__(self):
        return hash((self.group, self._items))

    def __repr__(self):
        return f"{type(self).__name__}({self.group.notation()}, {[str(c) for c in self._items]})"


class AlgElem(_GroupIndexed):
    """Element of k[V]: one ring coefficient per group element."""

    __slots__ = ()
    coeffs = _GroupIndexed._items
    _errors = ("one coefficient per group element required", "coefficient from the wrong ring",
               "elements of different group algebras")

    def __mul__(self, other: "AlgElem") -> "AlgElem":
        return convolve(self, other)


class FunElem(_GroupIndexed):
    """Element of the function algebra on the dual: one value per functional."""

    __slots__ = ()
    values = _GroupIndexed._items
    _errors = ("one value per dual element required", "value from the wrong ring",
               "functions over different duals")

    def __mul__(self, other: "FunElem") -> "FunElem":
        self._same_algebra(other)
        return FunElem(self.group, self.ring, list(map(mul, self.values, other.values)))


def basis_element(group: FinAbGroup, ring: CycloRing, v: GroupElem) -> AlgElem:
    coeffs = [ring.zero] * group.order
    coeffs[element_index(group, v.coords)] = ring.one
    return AlgElem(group, ring, coeffs)


def algebra_one(group: FinAbGroup, ring: CycloRing) -> AlgElem:
    """The unit [0] of k[V]."""
    coeffs = [ring.zero] * group.order
    coeffs[0] = ring.one
    return AlgElem(group, ring, coeffs)


def convolve(x: AlgElem, y: AlgElem) -> AlgElem:
    """(x * y)(w) = sum over u + v = w of x(u) y(v)."""
    x._same_algebra(y)
    group = x.group
    ring = x.ring
    els = elements(group)
    out = [ring.zero] * group.order
    for i, u in enumerate(els):
        cu = x.coeffs[i]
        if not cu:
            continue
        for j, v in enumerate(els):
            cv = y.coeffs[j]
            if cv:
                k = element_index(group, (u + v).coords)
                out[k] = out[k] + cu * cv
    return AlgElem(group, ring, out)


# -- the evaluation map, its matrix, and Fourier inversion --------------


def character_table(group: FinAbGroup, ring: CycloRing) -> RingMatrix:
    """|V| x |V| matrix: row l, column v, entry zeta^<v,l> (the character table)."""
    exps = _zeta_exponent_table(group, ring)
    n = group.order
    entries = []
    for l in range(n):
        for v in range(n):
            entries.append(ring.zeta(exps[v][l]))
    return RingMatrix(ring, n, n, entries)


def _transform(group: FinAbGroup, ring: CycloRing, items: Sequence[CycloElem],
               sign: int, extra_exp: int) -> list[CycloElem]:
    """out[j] = p^(-extra_exp) sum_i items[i] zeta^(sign <i, j>), reduced once per output."""
    M = ring.conductor
    p = ring.prime
    exps = _zeta_exponent_table(group, ring)
    nonzero = [(i, c) for i, c in enumerate(items) if any(c.nums)]
    shift = max((c.exp for _, c in nonzero), default=0)
    terms = []  # (input index, power-basis slot, scaled coefficient)
    for i, c in nonzero:
        s = p ** (shift - c.exp)
        terms.extend((i, k, n * s) for k, n in enumerate(c.nums) if n)
    out = []
    for row in exps:
        acc = [0] * M
        for i, k, n in terms:
            acc[(sign * row[i] + k) % M] += n
        out.append(CycloElem(ring, ring.reduce_vector(acc), shift + extra_exp))
    return out


def evaluate_at_characters(x: AlgElem) -> FunElem:
    """The algebra map k[V] -> k^(dual): [v] goes to l -> zeta^<v,l>."""
    return FunElem(x.group, x.ring, _transform(x.group, x.ring, x.coeffs, 1, 0))


def fourier_transform(f: FunElem) -> tuple[CycloElem, ...]:
    """f^(v) = |V|^(-1) sum_l f(l) zeta^(-<v,l>), indexed by group elements."""
    # |V| = p^s is invertible in Z[1/p]: it only raises the denominator exponent
    return tuple(_transform(f.group, f.ring, f.values, -1, sum(f.group.exponents)))


def fourier_inverse(f: FunElem) -> AlgElem:
    """Synthesis sum_v f^(v) [v]; inverse of evaluate_at_characters."""
    return AlgElem(f.group, f.ring, fourier_transform(f))


def transform_matrix(group: FinAbGroup, fn, ring: CycloRing) -> RingMatrix:
    """Matrix of the map parameterized by a circle function: entry fn(<v,l>).

    ``fn`` exposes value_at(point, ring) and covers_level(level); rows are
    indexed by dual elements, columns by group elements.  fn is evaluated
    once per residue t mod p^(e_1), at the point t / p^(e_1), and each row is
    built by indexing those values with a row of ``pairing_numerators``,
    which is symmetric: row l lists the numerators of <v, l> over v.
    """
    p = group.prime
    e1 = group.exponents[0] if group.exponents else 0
    if not fn.covers_level(e1):
        raise ValueError(f"circle function not defined at level {e1}")
    values = [fn.value_at(PadicCircle(p, t, e1), ring) for t in range(p ** e1)]
    entries = []
    for row in pairing_numerators(group):
        entries.extend(map(values.__getitem__, row))
    n = group.order
    return RingMatrix(ring, n, n, entries)


# -- unit tests in group and monoid algebras ----------------------------


def is_unit_group_algebra(x: AlgElem) -> bool:
    """Invertibility via characters: every evaluation must be a unit."""
    return all(is_unit(value) for value in evaluate_at_characters(x).values)


def convolution_matrix(x: AlgElem) -> RingMatrix:
    """Matrix of y -> x * y on the element basis (the independent unit oracle)."""
    group = x.group
    els = elements(group)
    n = group.order
    entries = [None] * (n * n)
    for w in range(n):
        for u in range(n):
            entries[u * n + w] = x.coeffs[element_index(group, (els[u] - els[w]).coords)]
    return RingMatrix(x.ring, n, n, entries)


def monoid_multiplication_matrix(coeffs: Sequence[CycloElem], N: int) -> RingMatrix:
    """Matrix of y -> x y in the algebra of the multiplicative monoid Z/N."""
    if len(coeffs) != N:
        raise ValueError("one coefficient per residue required")
    ring = coeffs[0].ring
    cols = [[ring.zero] * N for _ in range(N)]
    for s in range(N):
        cs = coeffs[s]
        if cs:
            for t in range(N):
                w = s * t % N
                cols[t][w] = cols[t][w] + cs
    entries = []
    for w in range(N):
        for t in range(N):
            entries.append(cols[t][w])
    return RingMatrix(ring, N, N, entries)


def is_unit_monoid_algebra(coeffs: Sequence[CycloElem], p: int, r: int) -> bool:
    """Unit test in the algebra of the multiplicative monoid Z/p^r.

    The kernel of (augmentation, restriction-to-units) is nilpotent, so x
    is a unit iff the coefficient sum is a unit and the restriction to the
    unit group is a unit there (checked through all its characters).
    """
    N = p ** r
    if len(coeffs) != N:
        raise ValueError("one coefficient per residue mod p^r required")
    ring = coeffs[0].ring
    augmentation = ring.zero
    for c in coeffs:
        augmentation = augmentation + c
    if not is_unit(augmentation):
        return False
    for chi in enumerate_characters(p, r, ring):
        s = ring.zero
        for t in units_mod(N):
            s = s + coeffs[t % N] * chi.eval(t)
        if not is_unit(s):
            return False
    return True


# -- inversion sweep -----------------------------------------------------


def fourier_inversion_report(p: int, max_order: int, limit: int = DEFAULT_BUDGET) -> VerifyReport:
    """Both composites of evaluation and synthesis are the identity, per group.

    Each group is proven by the four steps of the module docstring, in
    O(|V|^2 * (rank + nnz)) plus O(|V|) reductions mod Phi_M; a group on
    which any step fails is decided by the per-basis-vector round trips of
    ``_inversion_by_round_trips``, which supply the verdicts and the first
    failing index.  BudgetExceeded is raised before any arithmetic when sum
    over groups of |V|^2 * M exceeds ``limit``; that estimate charges a
    length-M sum to every (input, output) pair, more than the proof does.
    Its term for Z/p^s alone, p^(3s) for the largest order p^s, is checked
    first, before any group is listed.
    """
    from .finab import _top_exponent, enumerate_groups

    s = _top_exponent(p, max_order)
    if p ** (3 * s) > limit:
        raise BudgetExceeded(f"Fourier sweep of p = {p} up to order {max_order}: "
                             f"Z/{p}^{s} alone has |V|^2 * M = {p ** (3 * s)}, "
                             f"over the bound {limit}")
    groups = enumerate_groups(p, max_order)
    cost = sum(g.order ** 2 * g.exponent_value for g in groups)
    if cost > limit:
        raise BudgetExceeded(f"Fourier sweep of p = {p} up to order {max_order}: "
                             f"sum of |V|^2 * M is {cost}, over the bound {limit}")
    report = VerifyReport("verify-fourier", {"p": p, "max_order": max_order})
    for group in groups:
        ring = standard_fourier_ring(group)
        if _inversion_proven(group, ring):
            left = right = (True, None)
        else:
            left, right = _inversion_by_round_trips(group, ring)
        name = group.notation()
        report.add(f"fourier-{name}-synthesis-after-evaluation", f"V={name}", *left)
        report.add(f"fourier-{name}-evaluation-after-synthesis", f"V={name}", *right)
    return report


def _inversion_proven(group: FinAbGroup, ring: CycloRing) -> bool:
    """Steps 1-4 of the module docstring; False leaves the verdict to the round trips."""
    exps = _zeta_exponent_table(group, ring)
    return (_kernel_columns_match(group, ring, exps)
            and _table_is_bilinear(group, exps, ring.conductor)
            and _rows_are_orthogonal(ring, exps)
            and _fixed_round_trips_hold(group, ring))


def _kernel_columns_match(group: FinAbGroup, ring: CycloRing, exps) -> bool:
    """Step 1: each transform once, on one packed input, against the table.

    Evaluation runs on sum_v B^v [v] and synthesis on sum_j B^j delta_j, with
    B = 2H + 1 for H the largest |coefficient| of any zeta^u.  Output l must
    be sum_v B^v zeta^T[v][l], or p^(-s) sum_j B^j zeta^(-T[j][l]), built from
    the sparse power-basis supports of the zeta^u.  By the base-B argument of
    the module docstring this holds iff both transforms match the table on
    every single-term input.
    """
    M = ring.conductor
    supports = [[(k, c) for k, c in enumerate(ring.zeta(u).nums) if c] for u in range(M)]
    base = 2 * max(abs(c) for support in supports for _, c in support) + 1
    weights = [base ** v for v in range(group.order)]
    packed = [ring.from_int(w) for w in weights]
    columns = list(zip(*exps))
    if evaluate_at_characters(AlgElem(group, ring, packed)).values != tuple(
            _packed_sum(ring, weights, supports, col, 0) for col in columns):
        return False
    conjugates = [supports[-u % M] for u in range(M)]
    s = sum(group.exponents)
    return fourier_transform(FunElem(group, ring, packed)) == tuple(
        _packed_sum(ring, weights, conjugates, col, s) for col in columns)


def _packed_sum(ring: CycloRing, weights, supports, column, exp: int) -> CycloElem:
    """p^(-exp) sum_v weights[v] zeta^column[v], summed support by support (no reduction)."""
    acc = [0] * ring.degree
    for w, u in zip(weights, column):
        for k, c in supports[u]:
            acc[k] += w * c
    return CycloElem(ring, acc, exp)


def _table_is_bilinear(group: FinAbGroup, exps, M: int) -> bool:
    """Step 2: zero row, symmetry, and additivity along each generator, mod M."""
    if any(exps[0]) or any(col != row for col, row in zip(zip(*exps), exps)):
        return False
    els = elements(group)
    for g in _generator_indices(group):
        step = els[g]
        row_g = exps[g]
        for v, x in enumerate(els):
            row_w = exps[element_index(group, (x + step).coords)]
            if any((a + b - c) % M for a, b, c in zip(exps[v], row_g, row_w)):
                return False
    return True


def _rows_are_orthogonal(ring: CycloRing, exps) -> bool:
    """Step 3: sum_l zeta^T[u][l] = |V| [u = 0], counted by exponent, reduced once per row."""
    return all(ring.zeta_sum(row) == (ring.from_int(len(row)) if u == 0 else ring.zero)
               for u, row in enumerate(exps))


def _fixed_round_trips_hold(group: FinAbGroup, ring: CycloRing) -> bool:
    """Step 4: both composites on [0] + 2[g_1] + 3[g_2] + ... (g_k the k-th generator)."""
    coeffs = [ring.zero] * group.order
    coeffs[0] = ring.one
    for k, idx in enumerate(_generator_indices(group)):
        coeffs[idx] = ring.from_int(k + 2)
    x = AlgElem(group, ring, coeffs)
    f = FunElem(group, ring, coeffs)
    return (fourier_inverse(evaluate_at_characters(x)) == x
            and evaluate_at_characters(fourier_inverse(f)) == f)


def _inversion_by_round_trips(group: FinAbGroup, ring: CycloRing):
    """Both composites on every basis vector: ((ok, witness) left, (ok, witness) right)."""
    left = (True, None)
    for i, v in enumerate(elements(group)):
        x = basis_element(group, ring, v)
        if fourier_inverse(evaluate_at_characters(x)) != x:
            left = (False, {"basis_index": i})
            break
    right = (True, None)
    for j in range(group.order):
        values = [ring.zero] * group.order
        values[j] = ring.one
        delta = FunElem(group, ring, values)
        if evaluate_at_characters(fourier_inverse(delta)) != delta:
            right = (False, {"dual_index": j})
            break
    return left, right


def standard_fourier_ring(group: FinAbGroup) -> CycloRing:
    """Smallest ring for Fourier work over the group: conductor = exponent."""
    from .exactring import get_ring

    return get_ring(max(group.exponent_value, 1), group.prime)
