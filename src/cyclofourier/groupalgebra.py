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
   from the sparse power-basis supports of the zeta^u, not by the kernel:
   the weights are added into one bucket per exponent u, and each bucket is
   spread over the support of zeta^u.
2. Bilinearity: every entry lies in [0, M), T[0][.] = 0, T is symmetric,
   and T[v + g_k][l] = T[v][l] + T[g_k][l] (mod M) for every generator g_k,
   one big-int operation per (v, k) on packed rows (below).
3. Orthogonality: sum_l zeta^T[u][l] = |V| [u = 0] for every u, added into
   one bucket per exponent and spread over the supports, as in step 1.
4. One round trip each way on the single non-scalar term zeta [g_1], and
   on zeta delta_(g_1) (zeta [0] for the trivial group).

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

Step 2 packs row v into one integer P[v] = sum_l T[v][l] 2^(b l), with b
bits per slot and 2^b >= 2M, and checks (v, k) by one
divmod(P[v] + P[g_k] - P[w], M) for w = v + g_k: it passes iff the
remainder is 0 and every slot of the quotient is 0 or 1.  This is exact.
The digits d_l = T[v][l] + T[g_k][l] - T[w][l] lie in [-(M - 1), 2M - 2],
so d_l = 0 (mod M) iff d_l = M q_l with q_l in {0, 1}, and then the
quotient is sum_l q_l 2^(b l) with remainder 0.  Conversely, if the
remainder is 0 and the quotient is sum_l q_l 2^(b l) with q_l in {0, 1},
then sum_l (d_l - M q_l) 2^(b l) = 0 with every |d_l - M q_l| < 2M <= 2^b;
and a digit sum sum_l c_l 2^(b l) = 0 with every |c_l| < 2^b forces every
c_l = 0, since the lowest nonzero c_l0 would have to be a multiple of 2^b.
The index w comes from mixed-radix arithmetic on the index v: adding g_k
adds the k-th stride (the product of the factor orders after k) within
each block of n_k strides, wrapping at the block's end.

Step 4 is the only check, at run time, that the kernel is Z[zeta]-linear on
inputs that are not scalars.  The packed inputs of step 1 are integer
scalars, so step 1 reads each input's power-basis slot 0 only, and steps 2
and 3 do not run the kernel: a kernel that ignored each term's slot k would
pass steps 1-3 on every group, and be wrong on each group of exponent above
2 (there phi(M) >= 2, so zeta is not a scalar).  Step 4 still rejects both
kernel mutants of the test suite:
- a kernel that keeps only its first nonzero input, on every group of
  order above 1: the second leg of the left round trip has a nonzero input
  at every l, and from zeta at l = 0 alone it synthesizes p^(-s) zeta at
  every v, not zeta [g_1]; the right round trip likewise;
- a kernel that ignores the slot, in either direction or both, on every
  group of exponent above 2.  It agrees with E and F on scalar inputs (step
  1), and its second leg sees its input only through the coefficient sums,
  so it returns F(y) (or E(y)) for a scalar vector y.  Were F(y) = zeta [g_1],
  then y = E F y = E(zeta [g_1]), whose value at l = 0 is zeta, not a
  scalar; the right round trip likewise, with p^(-s) zeta at v = 0.
The input is zeta [g_1], not [g_1], so that the first leg also runs on a
value that is not a scalar: a kernel that ignored the slot of a lone
nonzero input only would pass steps 1-3 and a round trip on [g_1].
The seeded dense-input oracle of the test suite
(test_transforms_match_pairing_oracle) remains the dense guard.

Cost per group, with n = |V|, r its rank and c the most power-basis terms
of any zeta^u (c <= p - 1 when M = p^e), in terms that the steps touch:
step 1 has, per direction, n^2 kernel terms and n^2 bucket additions of
integers of n log2(B) bits, n M c support terms and n reductions; step 2
has n^2 entry and symmetry checks each and r n divmods of n-slot integers
(r n^2 slots); step 3 n^2 bucket additions and n M c support terms; step
4, per direction, n + n^2 c terms and 2n reductions.  Reducing mod Phi_M
costs at most M c when M = p^e, so the whole proof touches at most
n (n (r + 2c + 7) + 9 M c + 2) terms (``_proof_terms``).

When any step fails, the group is decided by ``_inversion_by_round_trips``
(every basis vector, both ways), so verdicts and the first failing
``basis_index`` / ``dual_index`` are exactly those of the full sweep.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from functools import lru_cache
from operator import add, mul, neg, sub

from .exactring import CycloElem, CycloRing, _strip_p, get_ring, is_unit
from .finab import (FinAbGroup, GroupElem, PadicCircle, _generator_indices, _top_exponent,
                    element_index, elements, enumerate_groups, pairing_numerators)
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
    # t < p^(e_1), so t * scale < M: no reduction
    return tuple(tuple(map(scale.__mul__, row)) for row in pairing_numerators(group))


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


def _pairing_matrix(group: FinAbGroup, ring: CycloRing,
                    values: Sequence[CycloElem]) -> RingMatrix:
    """|V| x |V| matrix: row l, column v, entry values[t] where <v,l> = t / p^(e_1).

    Each row indexes ``values`` with a row of ``pairing_numerators``, which
    is symmetric: row l lists the numerators of <v, l> over v.
    """
    entries = []
    for row in pairing_numerators(group):
        entries.extend(map(values.__getitem__, row))
    n = group.order
    return RingMatrix(ring, n, n, entries)


def character_table(group: FinAbGroup, ring: CycloRing) -> RingMatrix:
    """|V| x |V| matrix: row l, column v, entry zeta^<v,l> (the character table)."""
    _check_conductor(group, ring)
    N = group.exponent_value
    scale = ring.conductor // N  # t < N, so t * scale < M: no reduction
    return _pairing_matrix(group, ring, [ring.zeta(t * scale) for t in range(N)])


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


def transform_matrix(group: FinAbGroup, fn) -> RingMatrix:
    """Matrix of the map parameterized by a circle function: entry fn(<v,l>), over fn.ring.

    ``fn`` exposes its ``ring`` and value_at(point), which raises ValueError
    at a point of another prime or beyond fn's level.  fn is evaluated once
    per residue t mod p^(e_1), at the point t / p^(e_1), and the matrix is
    built from those values by ``_pairing_matrix``, as the character table is.
    """
    p = group.prime
    e1 = group.exponents[0] if group.exponents else 0
    values = [fn.value_at(PadicCircle(p, t, e1)) for t in range(p ** e1)]
    return _pairing_matrix(group, fn.ring, values)


# -- unit tests in group algebras ---------------------------------------


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


# -- inversion sweep -----------------------------------------------------


def fourier_inversion_report(p: int, max_order: int, limit: int = DEFAULT_BUDGET) -> VerifyReport:
    """Both composites of evaluation and synthesis are the identity, per group.

    Each group is proven by the four steps of the module docstring; a group
    on which any step fails is decided by the per-basis-vector round trips
    of ``_inversion_by_round_trips``, which supply the verdicts and the first
    failing index.  BudgetExceeded is raised before any arithmetic when the
    sum over groups of ``_proof_terms``, an upper bound on the terms the
    proof touches, exceeds ``limit``.  Its term for Z/p^s alone, p^s the
    largest order, is checked first, before any group is listed.
    """
    s = _top_exponent(p, max_order)
    top = _proof_terms(FinAbGroup(p, (s,) if s else ()))
    if top > limit:
        raise BudgetExceeded(f"Fourier sweep of p = {p} up to order {max_order}: "
                             f"Z/{p}^{s} alone has {top} proof terms, over the bound {limit}")
    groups = enumerate_groups(p, max_order)
    cost = sum(map(_proof_terms, groups))
    if cost > limit:
        raise BudgetExceeded(f"Fourier sweep of p = {p} up to order {max_order}: "
                             f"its proof terms sum to {cost}, over the bound {limit}")
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


def _proof_terms(group: FinAbGroup) -> int:
    """n (n (r + 2c + 7) + 9 M c + 2), c = p - 1: the cost line of the module docstring."""
    n = group.order
    c = group.prime - 1
    return n * (n * (len(group.exponents) + 2 * c + 7) + 9 * group.exponent_value * c + 2)


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
    supports = ring.zeta_supports()
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
    """p^(-exp) sum_v weights[v] zeta^column[v], bucketed by exponent (no reduction).

    The weights are added into one bucket per exponent u, and each bucket is
    spread over the power-basis support of zeta^u.
    """
    buckets = [0] * ring.conductor
    for w, u in zip(weights, column):
        buckets[u] += w
    acc = [0] * ring.degree
    for support, total in zip(supports, buckets):
        if total:
            for k, c in support:
                acc[k] += total * c
    return CycloElem(ring, acc, exp)


# array type codes by item size in bytes: the slots of a packed row
_ARRAY_CODES = {array(code).itemsize: code for code in "BHIQ"}


def _table_is_bilinear(group: FinAbGroup, exps, M: int) -> bool:
    """Step 2: entries in [0, M), zero row, symmetry, and additivity along each generator.

    Additivity is one divmod per (v, k) on rows packed into b-bit slots,
    2^b >= 2M; the module docstring proves it exact.
    """
    if (any(exps[0]) or any(min(row) < 0 or max(row) >= M for row in exps)
            or any(col != row for col, row in zip(zip(*exps), exps))):
        return False
    code = _ARRAY_CODES[min(size for size in _ARRAY_CODES if 256 ** size >= 2 * M)]
    packed = [int.from_bytes(array(code, row).tobytes(), sys.byteorder) for row in exps]
    ones = int.from_bytes(array(code, [1] * len(exps)).tobytes(), sys.byteorder)
    for shift in _generator_shifts(group):
        row_g = packed[shift[0]]
        for row_v, w in zip(packed, shift):
            quotient, remainder = divmod(row_v + row_g - packed[w], M)
            if remainder or quotient | ones != ones:
                return False
    return True


def _generator_shifts(group: FinAbGroup) -> list[list[int]]:
    """shifts[k][v]: the index of v + g_k, by mixed-radix arithmetic on the index v."""
    n = group.order
    shifts = []
    block = n
    for size in group.factor_orders:
        stride = block // size
        shift = []
        for start in range(0, n, block):
            shift.extend(range(start + stride, start + block))
            shift.extend(range(start, start + stride))
        shifts.append(shift)
        block = stride
    return shifts


def _rows_are_orthogonal(ring: CycloRing, exps) -> bool:
    """Step 3: sum_l zeta^T[u][l] = |V| [u = 0], counted by exponent, spread once per row.

    The entries lie in [0, M), as step 2 checked before this step runs.
    """
    supports = ring.zeta_supports()
    ones = [1] * len(exps)
    return all(_packed_sum(ring, ones, supports, row, 0)
               == (ring.from_int(len(row)) if u == 0 else ring.zero)
               for u, row in enumerate(exps))


def _fixed_round_trips_hold(group: FinAbGroup, ring: CycloRing) -> bool:
    """Step 4: both composites on zeta [g_1] and zeta delta_(g_1) (g_1 = 0 when V = 0)."""
    coeffs = [ring.zero] * group.order
    coeffs[(_generator_indices(group) or [0])[0]] = ring.zeta(1)
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
    return get_ring(max(group.exponent_value, 1), group.prime)
