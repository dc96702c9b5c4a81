"""Convolution, the evaluation map and its matrix, Fourier inversion, unit tests."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclofourier import (AlgElem, CycloElem, FinAbGroup, FunElem, GroupElem,
                          basis_element, circle_points, convolution_matrix, convolve, determinant,
                          dual_elements, element_index, elements, enumerate_groups,
                          evaluate_at_characters, fourier_inverse, fourier_transform,
                          fourier_inversion_report, get_ring, is_unit,
                          is_unit_group_algebra, lift_conductor, pairing,
                          standard_fourier_ring, standard_ring, transform_matrix)
from cyclofourier import groupalgebra
from cyclofourier.finab import _generator_indices, pairing_numerators
from cyclofourier.isoverify import CircleFunction, random_table_function
from cyclofourier.report import BudgetExceeded


def G(p, *exps):
    return FinAbGroup(p, tuple(exps))


def zp(n, e, p):
    """n / p^e in Z[1/p], the conductor-1 ring."""
    return CycloElem(get_ring(1, p), (n,), e)


def rand_alg(rng, group, ring, span=3):
    coeffs = [ring.element([zp(rng.randint(-span, span), rng.randint(0, 1), ring.prime)
                            for _ in range(ring.degree)])
              for _ in range(group.order)]
    return AlgElem(group, ring, coeffs)


def test_convolution_unit_and_basis_products():
    g = G(2, 2)
    ring = get_ring(4, 2)
    one = basis_element(g, ring, elements(g)[0])
    rng = random.Random(401)
    for _ in range(10):
        x = rand_alg(rng, g, ring)
        assert convolve(one, x) == x
        assert convolve(x, one) == x
    for v in elements(g):
        for w in elements(g):
            prod = convolve(basis_element(g, ring, v), basis_element(g, ring, w))
            assert prod == basis_element(g, ring, v + w)


def test_convolution_square_example():
    g = G(2, 1)
    ring = get_ring(2, 2)
    x = AlgElem(g, ring, [ring.one, ring.one])  # [0] + [1]
    sq = convolve(x, x)
    two = ring.from_int(2)
    assert sq == AlgElem(g, ring, [two, two])


def test_convolution_commutative_random():
    rng = random.Random(402)
    for g, M in ((G(2, 1, 1), 2), (G(3, 1), 3), (G(2, 2), 4)):
        ring = get_ring(M, g.prime)
        for _ in range(10):
            x, y = rand_alg(rng, g, ring), rand_alg(rng, g, ring)
            assert convolve(x, y) == convolve(y, x)


def test_fourier_transform_examples():
    g = G(2, 1, 1)
    ring = get_ring(2, 2)
    ones = FunElem(g, ring, [ring.one] * 4)
    hat = fourier_transform(ones)
    assert hat[0] == ring.one
    assert all(not hat[v] for v in range(1, 4))
    # transform of the image of a basis vector is the indicator of that vector
    for i, v in enumerate(elements(g)):
        f = evaluate_at_characters(basis_element(g, ring, v))
        hat = fourier_transform(f)
        assert all((hat[j] == ring.one) == (j == i) for j in range(4))
        assert all(hat[j] == ring.zero for j in range(4) if j != i)
    # trivial group: the transform is the value itself
    triv = G(2)
    ring1 = get_ring(1, 2)
    c = ring1.from_int(7)
    assert fourier_transform(FunElem(triv, ring1, [c])) == (c,)


def test_fourier_inversion_on_basis_and_random():
    g = G(2, 2)
    ring = get_ring(4, 2)
    for v in elements(g):
        x = basis_element(g, ring, v)
        assert fourier_inverse(evaluate_at_characters(x)) == x
    rng = random.Random(403)
    g22 = G(2, 1, 1)
    ring2 = get_ring(2, 2)
    for _ in range(20):
        values = [ring2.element([zp(rng.randint(-4, 4), rng.randint(0, 2), 2)])
                  for _ in range(4)]
        f = FunElem(g22, ring2, values)
        assert evaluate_at_characters(fourier_inverse(f)) == f
    zero_fun = FunElem(g, ring, [ring.zero] * 4)
    assert fourier_inverse(zero_fun) == AlgElem(g, ring, [ring.zero] * 4)


def test_algebra_and_function_elements_share_one_body_but_never_compare_equal():
    g = G(3, 1)
    ring = get_ring(3, 3)
    items = [ring.from_int(2), ring.zeta(1), ring.zero]
    x, f = AlgElem(g, ring, items), FunElem(g, ring, items)
    assert x.coeffs == f.values == tuple(items)
    assert x != f and f != x and len({x, f}) == 2
    assert (x + x - x, -(-f)) == (x, f)
    assert (repr(x), repr(f)) == ("AlgElem(3, ['[2, 0]', '[0, 1]', '[0, 0]'])",
                                  "FunElem(3, ['[2, 0]', '[0, 1]', '[0, 0]'])")
    assert (f * f).values == tuple(a * a for a in items)
    assert x * x == convolve(x, x) != AlgElem(g, ring, [a * a for a in items])
    for make, count, wrong in (
            (AlgElem, "one coefficient per group element", "coefficient from the wrong ring"),
            (FunElem, "one value per dual element", "value from the wrong ring")):
        with pytest.raises(ValueError, match=count):
            make(g, ring, items[:2])
        with pytest.raises(ValueError, match=wrong):
            make(g, ring, [get_ring(9, 3).one] * 3)
    with pytest.raises(ValueError, match="different group algebras"):
        x + AlgElem(G(3, 1), get_ring(9, 3), [get_ring(9, 3).one] * 3)
    with pytest.raises(ValueError, match="different duals"):
        f - x


def test_fourier_requires_enough_roots():
    g = G(2, 2)
    with pytest.raises(ValueError):
        fourier_transform(FunElem(g, get_ring(2, 2), [get_ring(2, 2).zero] * 4))
    # Z/3 over Z[1/2][zeta_6]: the conductor has the cube roots, the ring inverts 2, not 3
    g3, ring = G(3, 1), get_ring(6, 2)
    with pytest.raises(ValueError, match="prime"):
        evaluate_at_characters(AlgElem(g3, ring, [ring.one] * 3))
    with pytest.raises(ValueError, match="prime"):
        fourier_transform(FunElem(g3, ring, [ring.one] * 3))


def test_evaluation_is_an_algebra_morphism():
    rng = random.Random(404)
    for g in (G(2, 1), G(2, 2), G(2, 1, 1), G(3, 1), G(2, 2, 1)):
        ring = standard_fourier_ring(g)
        for _ in range(8):
            x, y = rand_alg(rng, g, ring), rand_alg(rng, g, ring)
            lhs = evaluate_at_characters(convolve(x, y))
            rhs = evaluate_at_characters(x) * evaluate_at_characters(y)
            assert lhs == rhs


def _root_table(group, ring):
    """The circle function t / p^s -> zeta_M^(M t / p^s) up to the group's exponent."""
    level = group.exponents[0] if group.exponents else 0
    return CircleFunction.table(level, {point: _oracle_root(ring, point)
                                        for point in circle_points(group.prime, level)}, ring)


def _entrywise_transform(group, fn):
    return [fn.value_at(pairing(v, l)) for l in dual_elements(group)
            for v in elements(group)]


def test_transform_matrix_matches_the_entrywise_pairing():
    for p, max_order in ((2, 64), (3, 81), (5, 25)):
        fn = CircleFunction.spike(p)
        for g in enumerate_groups(p, max_order):
            assert transform_matrix(g, fn).entries == tuple(
                _entrywise_transform(g, fn)), g
            # the root table zeta^<v,l>: the matrix of the evaluation map
            roots = _root_table(g, standard_fourier_ring(g))
            assert transform_matrix(g, roots).entries == tuple(
                _entrywise_transform(g, roots)), g
    for p, r, max_order in ((2, 3, 32), (3, 2, 27), (5, 1, 25)):
        for seed in range(3):
            fn = random_table_function(p, r, random.Random(seed))
            for g in enumerate_groups(p, max_order):
                if g.exponents and g.exponents[0] > r:
                    continue
                assert transform_matrix(g, fn).entries == tuple(
                    _entrywise_transform(g, fn)), g


def test_is_unit_group_algebra_examples_and_oracle():
    g = G(2, 2)
    ring = get_ring(4, 2)
    assert is_unit_group_algebra(basis_element(g, ring, elements(g)[0]))
    v = GroupElem(g, (1,))
    diff = basis_element(g, ring, GroupElem(g, (0,))) - basis_element(g, ring, v)
    assert not is_unit_group_algebra(diff)  # the trivial character gives 0
    rng = random.Random(405)
    for g in (G(2, 1), G(2, 2), G(2, 1, 1), G(3, 1), G(3, 2)):
        ring = standard_fourier_ring(g)
        for _ in range(25):
            x = rand_alg(rng, g, ring, span=2)
            oracle = is_unit(determinant(convolution_matrix(x)))
            assert is_unit_group_algebra(x) == oracle


def test_convolution_matrix_shapes():
    g = G(2, 1, 1)
    ring = get_ring(2, 2)
    one = basis_element(g, ring, elements(g)[0])
    eye = convolution_matrix(one)
    assert all(eye.at(i, j) == (ring.one if i == j else ring.zero)
               for i in range(4) for j in range(4))
    v = GroupElem(g, (1, 0))
    perm = convolution_matrix(basis_element(g, ring, v))
    for j, w in enumerate(elements(g)):
        i = element_index(g, (w + v).coords)
        assert perm.at(i, j) == ring.one


def test_fourier_inversion_report_small():
    report = fourier_inversion_report(3, 9)
    assert report.failed == 0
    assert len(report.checks) == 2 * len(enumerate_groups(3, 9))


# -- differential test against a sum built from the pairing alone --------


def _oracle_root(ring, point, sign=1):
    """zeta^(sign * M * point) for a point of the p-power circle."""
    return ring.zeta(sign * point.numerator * (ring.conductor // point.prime ** point.level))


def _oracle_evaluate(x):
    ring = x.ring
    values = []
    for l in dual_elements(x.group):
        acc = ring.zero
        for v, c in zip(elements(x.group), x.coeffs):
            acc = acc + c * _oracle_root(ring, pairing(v, l))
        values.append(acc)
    return tuple(values)


def _oracle_transform(f):
    ring = f.ring
    inv_order = lift_conductor(zp(1, sum(f.group.exponents), ring.prime), ring.conductor)
    out = []
    for v in elements(f.group):
        acc = ring.zero
        for l, c in zip(dual_elements(f.group), f.values):
            acc = acc + c * _oracle_root(ring, pairing(v, l), -1)
        out.append(acc * inv_order)
    return tuple(out)


def _differential_inputs(rng, group, ring):
    """Dense (every slot nonzero), zero, and single-term coefficient lists."""
    p, n, deg = ring.prime, group.order, ring.degree

    def dense():
        return ring.element([zp(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(0, 2), p)
                             for _ in range(deg)])

    def single():
        slots = [0] * deg
        slots[rng.randrange(deg)] = zp(rng.choice((-2, -1, 1, 2)), rng.randint(0, 2), p)
        return ring.element(slots)

    yield [dense() for _ in range(n)]
    yield [ring.zero] * n
    one_input = rng.randrange(n)
    yield [single() if i == one_input else ring.zero for i in range(n)]
    yield [single() for _ in range(n)]


def test_transforms_match_pairing_oracle():
    rng = random.Random(407)
    cases = [(g, standard_fourier_ring(g))
             for p, bound in ((2, 32), (3, 27), (5, 25))
             for g in enumerate_groups(p, bound)]
    # conductors larger than the group exponent: zeta_M^(M/p^e1) is the root used
    cases += [(G(2, 2), get_ring(8, 2)), (G(2, 2), get_ring(12, 2)),
              (G(2, 1, 1), get_ring(8, 2)), (G(3, 1), get_ring(6, 3)),
              (G(3, 1, 1), get_ring(9, 3))]
    # standard_ring(3, 2) has conductor 18: exponent 9 is scaled by 2, exponent 3 by 6
    ring18 = standard_ring(3, 2)
    assert ring18.conductor == 18
    cases += [(g, ring18) for g in (G(3, 2), G(3, 1, 1), G(3, 2, 1))]
    for g, ring in cases:
        for coeffs in _differential_inputs(rng, g, ring):
            x = AlgElem(g, ring, coeffs)
            assert evaluate_at_characters(x).values == _oracle_evaluate(x), g
            f = FunElem(g, ring, coeffs)
            assert fourier_transform(f) == _oracle_transform(f), g


# -- the inversion proof against the per-basis-vector round trips --------


def _round_trip_report(monkeypatch, p, bound):
    """The report with every group decided by the round trips on every basis vector."""
    with monkeypatch.context() as m:
        m.setattr(groupalgebra, "_inversion_proven", lambda group, ring: False)
        return fourier_inversion_report(p, bound)


def _forbid_the_fallback(monkeypatch):
    """Fail the test on any group whose proof fails, the one way into the fallback.

    Step 4 runs the same round-trip function as the fallback, so the
    fallback is told apart by the proof's verdict, not by that function.
    """
    real = groupalgebra._inversion_proven

    def proven(group, ring):
        if not real(group, ring):
            raise AssertionError(f"round trips run on {group.notation()}")
        return True

    monkeypatch.setattr(groupalgebra, "_inversion_proven", proven)


def _step_four_holds(group, ring):
    """Step 4 as the proof runs it: both round trips on zeta at g_1 (at 0 when V = 0)."""
    g_1 = (_generator_indices(group) or [0])[:1]
    return all(ok for ok, _ in groupalgebra._round_trips(group, ring, ring.zeta(1), g_1))


@pytest.mark.parametrize("p, bound", [(2, 64), (3, 81), (5, 125)])
def test_inversion_proof_matches_round_trips_byte_for_byte(monkeypatch, p, bound):
    # a correct run never reaches the fallback
    with monkeypatch.context() as m:
        _forbid_the_fallback(m)
        proven = fourier_inversion_report(p, bound)
    assert proven.failed == 0
    assert proven.to_json() == _round_trip_report(monkeypatch, p, bound).to_json()


def _perturb_one_entry(monkeypatch, where):
    """Patch the numerator table: entry where(|V|) of every nontrivial group gets +1."""
    @functools.cache
    def perturbed(group):
        table = [list(row) for row in pairing_numerators(group)]
        if group.order > 1:
            i, j = where(group.order)
            table[i][j] = (table[i][j] + 1) % group.exponent_value
        return tuple(map(tuple, table))

    monkeypatch.setattr(groupalgebra, "pairing_numerators", perturbed)


def _drop_the_sign(monkeypatch):
    """Patch synthesis to use zeta^(+<v,l>)."""
    def dropped(f):
        return tuple(groupalgebra._transform(f.group, f.ring, f.values, 1,
                                             sum(f.group.exponents)))

    monkeypatch.setattr(groupalgebra, "fourier_transform", dropped)


def _keep_the_first_term(monkeypatch):
    """Patch the kernel to drop every nonzero input after the first one."""
    real = groupalgebra._transform

    def first_only(group, ring, items, sign, extra_exp):
        first = next((i for i, c in enumerate(items) if c), None)
        kept = [c if i == first else ring.zero for i, c in enumerate(items)]
        return real(group, ring, kept, sign, extra_exp)

    monkeypatch.setattr(groupalgebra, "_transform", first_only)


def _ignore_the_slot(monkeypatch, signs=(1, -1)):
    """Patch the kernel to put each term at zeta^(sign <i, j>), whatever its slot k.

    Only the directions whose sign is in ``signs`` are patched.
    """
    real = groupalgebra._transform

    def slotless(group, ring, items, sign, extra_exp):
        if sign in signs:
            items = [CycloElem(ring, [sum(c.nums)] + [0] * (ring.degree - 1), c.exp)
                     for c in items]
        return real(group, ring, items, sign, extra_exp)

    monkeypatch.setattr(groupalgebra, "_transform", slotless)


@pytest.mark.parametrize("defect", ["diagonal", "off-diagonal", "zero row", "sign",
                                    "first term only"])
def test_faulty_table_or_transform_gives_the_round_trip_verdicts(monkeypatch, defect):
    if defect == "sign":
        _drop_the_sign(monkeypatch)
    elif defect == "first term only":
        _keep_the_first_term(monkeypatch)
    else:
        where = {"diagonal": lambda n: (n - 1, n - 1),
                 "off-diagonal": lambda n: (1, n - 1),
                 "zero row": lambda n: (0, n // 2)}[defect]
        _perturb_one_entry(monkeypatch, where)
    for p, bound in ((2, 16), (3, 27)):
        proven = fourier_inversion_report(p, bound)
        oracle = _round_trip_report(monkeypatch, p, bound)
        assert proven.to_json() == oracle.to_json()
        failing = {c.subject for c in proven.checks if not c.passed}
        if defect == "sign":
            # zeta^-1 = zeta exactly when the exponent is at most 2
            expected = {f"V={g.notation()}" for g in enumerate_groups(p, bound)
                        if g.exponent_value > 2}
        else:
            expected = {f"V={g.notation()}" for g in enumerate_groups(p, bound)
                        if g.order > 1}
        assert failing == expected


def _two_loop_round_trips(group, ring):
    """The fallback as two loops over the basis vectors: ((ok, witness) left, right)."""
    left = (True, None)
    for i in range(group.order):
        coeffs = [ring.zero] * group.order
        coeffs[i] = ring.one
        x = AlgElem(group, ring, coeffs)
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


@pytest.mark.parametrize("defect", ["slot", "first term only", "sign", "diagonal",
                                    "off-diagonal"])
def test_shared_round_trips_match_the_two_loop_oracle(monkeypatch, defect):
    if defect == "slot":
        _ignore_the_slot(monkeypatch)
    elif defect == "first term only":
        _keep_the_first_term(monkeypatch)
    elif defect == "sign":
        _drop_the_sign(monkeypatch)
    else:
        _perturb_one_entry(monkeypatch, {"diagonal": lambda n: (n - 1, n - 1),
                                         "off-diagonal": lambda n: (1, n - 1)}[defect])
    failing = set()
    for g in enumerate_groups(2, 16) + enumerate_groups(3, 27):
        ring = standard_fourier_ring(g)
        verdicts = groupalgebra._round_trips(g, ring, ring.one, range(g.order))
        assert verdicts == _two_loop_round_trips(g, ring), g
        failing.update(side for side, (ok, _) in enumerate(verdicts) if not ok)
    assert failing == {0, 1}  # each fault fails both directions somewhere


def _table_from(group, form, M):
    els = [x.coords for x in elements(group)]
    return tuple(tuple(form(v, l) % M for l in els) for v in els)


def _rows_are_orthogonal(ring, table, N):
    """The orthogonality sums sum_l zeta_N^T[u][l] = |V| [u = 0], each by ring.zeta_sum."""
    step = ring.conductor // N
    return all(ring.zeta_sum(t * step for t in row)
               == (ring.from_int(len(row)) if u == 0 else ring.zero)
               for u, row in enumerate(table))


def test_each_proof_step_rejects_its_own_defect(monkeypatch):
    g = G(3, 1, 1)
    ring = get_ring(3, 3)
    pairing_form = lambda v, l: v[0] * l[0] + v[1] * l[1]  # noqa: E731
    table = pairing_numerators(g)
    assert table == _table_from(g, pairing_form, 3)
    assert groupalgebra._kernel_columns_match(g, ring, table)
    assert groupalgebra._table_is_bilinear(g, table, 3)
    assert groupalgebra._rows_are_nondegenerate(table)
    # Step 2, per generator: symmetric, yet additive along generator 1 - k only
    # (x -> x^2 is not additive mod 3).
    for k in (0, 1):
        twisted = _table_from(g, lambda v, l: pairing_form(v, l) + v[k] ** 2 * l[k] ** 2, 3)
        assert not groupalgebra._table_is_bilinear(g, twisted, 3)
    # Step 2, symmetry: <v, sigma l> with sigma(a, b) = (a + b, b) is additive in v
    # and its rows are orthogonal and nondegenerate, but it is not symmetric;
    # step 1 reads its expected columns from the rows, which only symmetry allows.
    skewed = _table_from(g, lambda v, l: pairing_form(v, (l[0] + l[1], l[1])), 3)
    assert _rows_are_orthogonal(ring, skewed, 3)
    assert groupalgebra._rows_are_nondegenerate(skewed)
    assert not groupalgebra._table_is_bilinear(g, skewed, 3)
    # Step 3: degenerate forms are bilinear and symmetric, but a row u != 0 is
    # zero, so that row is not orthogonal to row 0.
    z9 = G(3, 2)
    ring9 = get_ring(9, 3)
    for form in (lambda v, l: 0, lambda v, l: 3 * v[0] * l[0]):
        degenerate = _table_from(z9, form, 9)
        assert groupalgebra._table_is_bilinear(z9, degenerate, 9)
        assert not _rows_are_orthogonal(ring9, degenerate, 9)
        assert not groupalgebra._rows_are_nondegenerate(degenerate)
    # Steps 1 and 4: a kernel that keeps only its first nonzero input is right on
    # every single-term input, which is all the per-input check of step 1 looks
    # at; the packed input of step 1 has |V| terms, and so has the second leg of
    # each round trip of step 4, so both reject it.
    with monkeypatch.context() as m:
        _keep_the_first_term(m)
        assert _single_term_columns_match(g, ring, table)
        assert not groupalgebra._kernel_columns_match(g, ring, table)
        assert not _step_four_holds(g, ring)
    assert _step_four_holds(g, ring)
    # Step 4 alone: a kernel that ignores each term's power-basis slot is right on
    # the integer-scalar packed inputs of step 1, and steps 2 and 3 do not run it;
    # the round trips of step 4 transform non-scalar values and reject it.
    with monkeypatch.context() as m:
        _ignore_the_slot(m)
        assert not _step_four_holds(g, ring)
        for group in enumerate_groups(3, 27):
            exps = pairing_numerators(group)
            assert groupalgebra._kernel_columns_match(group, standard_fourier_ring(group), exps)
            assert groupalgebra._table_is_bilinear(group, exps, group.exponent_value)
            assert groupalgebra._rows_are_nondegenerate(exps)
        assert fourier_inversion_report(3, 27).failed == 12  # of 14, by the round trips
    # Step 1: a synthesis without the sign no longer matches the table's columns.
    z4 = G(2, 2)
    ring4 = get_ring(4, 2)
    _drop_the_sign(monkeypatch)
    assert not groupalgebra._kernel_columns_match(z4, ring4, pairing_numerators(z4))


def _random_symmetric_form(rng, group):
    """The table of sum_ij A_ij v_i l_j p^(e_1 - min(e_i, e_j)) mod N, A random symmetric."""
    exps, p, N = group.exponents, group.prime, group.exponent_value
    r = len(exps)
    A = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            A[i][j] = A[j][i] = rng.randrange(N) * p ** (exps[0] - min(exps[i], exps[j]))
    return _table_from(group, lambda v, l: sum(A[i][j] * v[i] * l[j]
                                               for i in range(r) for j in range(r)), N)


def test_nondegenerate_rows_of_a_bilinear_table_are_its_orthogonal_rows():
    # The lemma of the module docstring: once step 2 holds, step 3's scan for a
    # zero row u != 0 accepts exactly the tables whose orthogonality sums,
    # summed by ring.zeta_sum, are |V| [u = 0].
    rng = random.Random(409)
    outcomes = {True: 0, False: 0}
    for p, bound in ((2, 64), (3, 81), (5, 25)):
        for g in enumerate_groups(p, bound):
            ring = standard_fourier_ring(g)
            for _ in range(5):
                table = _random_symmetric_form(rng, g)
                assert groupalgebra._table_is_bilinear(g, table, g.exponent_value), g
                accepted = groupalgebra._rows_are_nondegenerate(table)
                assert _rows_are_orthogonal(ring, table, g.exponent_value) == accepted, table
                outcomes[accepted] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_step_four_rejects_a_kernel_that_ignores_the_slot_only_in_synthesis(monkeypatch):
    # Synthesis reads only the coefficient sum of each input; evaluation is right.
    # Step 1's inputs are integer scalars, so it passes; step 4 synthesizes the
    # non-scalar values zeta^(1 + <g_1, l>) and rejects it wherever zeta is not a
    # scalar, i.e. on every group of exponent above 2.
    with monkeypatch.context() as m:
        _ignore_the_slot(m, signs=(-1,))
        for g in _SMALL_GROUPS:
            ring = standard_fourier_ring(g)
            assert groupalgebra._kernel_columns_match(g, ring, pairing_numerators(g)), g
            assert _step_four_holds(g, ring) == (g.exponent_value <= 2), g


def test_step_four_rejects_a_kernel_that_ignores_the_slot_of_a_lone_input(monkeypatch):
    # A kernel right on every input with two or more nonzero terms, and on lone
    # scalars: step 1's packed inputs and a round trip on [g_1] would both pass
    # it, so step 4 transforms zeta [g_1], which it gets wrong when zeta is not a
    # scalar.
    real = groupalgebra._transform

    def lone_slotless(group, ring, items, sign, extra_exp):
        if sum(1 for c in items if c) == 1:
            items = [CycloElem(ring, [sum(c.nums)] + [0] * (ring.degree - 1), c.exp)
                     for c in items]
        return real(group, ring, items, sign, extra_exp)

    monkeypatch.setattr(groupalgebra, "_transform", lone_slotless)
    for g in _SMALL_GROUPS:
        ring = standard_fourier_ring(g)
        assert groupalgebra._kernel_columns_match(g, ring, pairing_numerators(g)), g
        assert _step_four_holds(g, ring) == (g.exponent_value <= 2), g


def test_fourier_proof_at_order_243(monkeypatch):
    # The 19 groups of order up to 3^5, at exactly their estimate: the sum of
    # n (n (r + 2c + 7) + 9 M c + 2) is 8,156,719, under the default budget.
    _forbid_the_fallback(monkeypatch)
    report = fourier_inversion_report(3, 243, limit=8_156_719)
    assert report.failed == 0
    assert len(report.checks) == 2 * 19
    with pytest.raises(BudgetExceeded, match="sum to 8156719, over the bound 8156718"):
        fourier_inversion_report(3, 243, limit=8_156_718)


# -- step 1 on one packed input against the check of every single-term input --


def _single_term_columns_match(group, ring, table):
    """Both transforms of every single-term input, against the numerator table."""
    M = ring.conductor
    N = group.exponent_value
    n = group.order
    # zeta_N^t and p^(-s) zeta_N^(-t), indexed by t
    zetas = [ring.zeta(t * (M // N)) for t in range(N)]
    inv_order = lift_conductor(zp(1, sum(group.exponents), ring.prime), M)
    scaled = [ring.zeta(-t * (M // N)) * inv_order for t in range(N)]
    for v, x in enumerate(elements(group)):
        got = evaluate_at_characters(basis_element(group, ring, x)).values
        if got != tuple(zetas[t] for t in table[v]):
            return False
    for j in range(n):
        delta = [ring.zero] * n
        delta[j] = ring.one
        if groupalgebra.fourier_transform(FunElem(group, ring, delta)) != tuple(
                scaled[t] for t in table[j]):
            return False
    return True


def _step_one_verdicts(group, ring, table):
    return (groupalgebra._kernel_columns_match(group, ring, table),
            _single_term_columns_match(group, ring, table))


_SMALL_GROUPS = [g for p, bound in ((2, 32), (3, 27), (5, 25)) for g in enumerate_groups(p, bound)]


def test_packed_step_one_accepts_what_the_single_term_check_accepts():
    cases = [(g, standard_fourier_ring(g)) for g in _SMALL_GROUPS]
    # Phi_105 has a coefficient -2, so zeta_105^u reaches 2 and the base is 5.
    ring105 = get_ring(105, 3)
    assert max(abs(c) for u in range(105) for c in ring105.zeta(u).nums) == 2
    cases += [(G(3, 1), ring105), (G(3, 1, 1), ring105)]
    for g, ring in cases:
        assert _step_one_verdicts(g, ring, pairing_numerators(g)) == (True, True), g


def _kernel_reads(monkeypatch, table):
    """Patch the numerator table the kernel reads; step 1's expected values do not read it."""
    monkeypatch.setattr(groupalgebra, "pairing_numerators", lambda group: table)


def _tables_one_entry_off(exps, M):
    """Every table that differs from exps in exactly one entry."""
    for i, j in itertools.product(range(len(exps)), repeat=2):
        for offset in range(1, M):
            table = [list(row) for row in exps]
            table[i][j] = (table[i][j] + offset) % M
            yield tuple(map(tuple, table))


def _tables_with_one_row_swap(exps):
    """Every table that swaps two different entries of the row one output reads.

    Output l sums over the inputs in the order of row l, so the swap leaves the
    unweighted sum of output l unchanged (a column of exps, by symmetry).
    """
    for l, row in enumerate(exps):
        for a, b in itertools.combinations(range(len(row)), 2):
            if row[a] != row[b]:
                table = [list(r) for r in exps]
                table[l][a], table[l][b] = row[b], row[a]
                yield tuple(map(tuple, table))


@pytest.mark.parametrize("p, exponents", [(2, (2,)), (2, (1, 1)), (3, (1, 1))],
                         ids=["4", "2+2", "3+3"])
def test_packed_step_one_rejects_a_kernel_reading_another_table(monkeypatch, p, exponents):
    g = FinAbGroup(p, exponents)
    ring = standard_fourier_ring(g)
    exps = pairing_numerators(g)
    tables = list(_tables_one_entry_off(exps, g.exponent_value))
    swaps = list(_tables_with_one_row_swap(exps))
    assert len(tables) == g.order ** 2 * (g.exponent_value - 1) and swaps
    for table in tables + swaps:
        with monkeypatch.context() as m:
            _kernel_reads(m, table)
            assert _step_one_verdicts(g, ring, exps) == (False, False), table


def _kernel_reading_zeta_exponents(exps):
    """The kernel of _transform with input i of output j at zeta_M^(sign exps[j][i])."""
    def kernel(group, ring, items, sign, extra_exp):
        M = ring.conductor
        shift = max(c.exp for c in items)
        out = []
        for row in exps:
            acc = [0] * M
            for c, u in zip(items, row):
                for k, n in enumerate(c.nums):
                    acc[(sign * u + k) % M] += n * ring.prime ** (shift - c.exp)
            out.append(CycloElem(ring, ring.reduce_vector(acc), shift + extra_exp))
        return out

    return kernel


def test_packed_step_one_with_base_five(monkeypatch):
    # Over Z[zeta_105] the base is 5.  A kernel that puts one entry of the
    # table of Z/3 at any other zeta_105 power, or swaps two entries of a row,
    # is still caught.
    g = G(3, 1)
    ring = get_ring(105, 3)
    table = pairing_numerators(g)
    exps = tuple(tuple(35 * t for t in row) for row in table)
    with monkeypatch.context() as m:
        m.setattr(groupalgebra, "_transform", _kernel_reading_zeta_exponents(exps))
        assert _step_one_verdicts(g, ring, table) == (True, True)
    for faulty in (*_tables_one_entry_off(exps, 105), *_tables_with_one_row_swap(exps)):
        with monkeypatch.context() as m:
            m.setattr(groupalgebra, "_transform", _kernel_reading_zeta_exponents(faulty))
            assert _step_one_verdicts(g, ring, table) == (False, False), faulty


def test_packed_step_one_rejects_a_synthesis_without_the_sign(monkeypatch):
    _drop_the_sign(monkeypatch)
    for g in _SMALL_GROUPS:
        ring = standard_fourier_ring(g)
        # zeta^-1 = zeta exactly when the exponent is at most 2
        expected = g.exponent_value <= 2
        verdicts = _step_one_verdicts(g, ring, pairing_numerators(g))
        assert verdicts == (expected, expected), g


# -- step 2 on packed rows against the per-entry check ----------------------


def _additivity_sums(group, exps):
    """Every a + b - c = T[v][l] + T[g_k][l] - T[v + g_k][l], over (v, k, l)."""
    els = elements(group)
    return {a + b - c for g in _generator_indices(group) for v, x in enumerate(els)
            for a, b, c in zip(exps[v], exps[g], exps[element_index(group, (x + els[g]).coords)])}


def _per_entry_is_bilinear(group, exps, M):
    """Zero row, symmetry, and (a + b - c) % M == 0 entry by entry along each generator."""
    if any(exps[0]) or any(col != row for col, row in zip(zip(*exps), exps)):
        return False
    return not any(d % M for d in _additivity_sums(group, exps))


_STEP_TWO_GROUPS = [g for p, bound in ((2, 64), (3, 81), (5, 25), (7, 49))
                    for g in enumerate_groups(p, bound)]


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_packed_step_two_agrees_with_the_per_entry_check(data):
    # A multiple of the pairing, scaled into Z/M (the zero form when k = 0), with
    # a few symmetric entries overwritten, often by 0 or M - 1; p = 2 reaches
    # M = 128, where 8-bit slots are just wide enough (2^8 = 2M).
    group = data.draw(st.sampled_from(_STEP_TWO_GROUPS))
    scale = data.draw(st.integers(1, 4))
    M = group.exponent_value * scale
    k = data.draw(st.integers(0, M - 1))
    table = [[k * t * scale % M for t in row] for row in pairing_numerators(group)]
    n = group.order
    entry = st.one_of(st.just(0), st.just(M - 1), st.integers(0, M - 1))
    for v, l, value in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                    st.integers(0, n - 1), entry), max_size=3)):
        table[v][l] = table[l][v] = value
    table = tuple(map(tuple, table))
    assert groupalgebra._table_is_bilinear(group, table, M) == _per_entry_is_bilinear(
        group, table, M)


def _overwrite(table, v, l, value):
    rows = [list(row) for row in table]
    rows[v][l] = rows[l][v] = value
    return tuple(map(tuple, rows))


def test_packed_step_two_on_edge_sums_and_out_of_range_entries():
    z9 = G(3, 2)  # g_1 = 1, so row 2 is row 1 + row 1
    table = pairing_numerators(z9)
    zero = ((0,) * 9,) * 9
    cases = [(table, {0, 9}),  # a + b wraps past M
             (_overwrite(zero, 2, 5, 8), {-8}),  # 0 + 0 - 8 = -(M - 1)
             (_overwrite(zero, 1, 5, 8), {16})]  # 8 + 8 - 0 = 2M - 2
    for exps, edges in cases:
        assert edges <= _additivity_sums(z9, exps)
        assert groupalgebra._table_is_bilinear(z9, exps, 9) == _per_entry_is_bilinear(
            z9, exps, 9) == (exps is table)
    # An entry of M for 0, or of -1 for M - 1, is the same residue: the per-entry
    # check accepts it, the packed check rejects it.
    assert table[3][3] == 0 and table[1][8] == 8
    for exps in (_overwrite(table, 3, 3, 9), _overwrite(table, 1, 8, -1)):
        assert _per_entry_is_bilinear(z9, exps, 9)
        assert not groupalgebra._table_is_bilinear(z9, exps, 9)
    # Slots need 2^b >= 2M, not only M: along g_1 = 1 in Z/4 with M = 256, row
    # 1 + row 1 - row 2 of this table has the digits (0, 256, -1, 256), which
    # 8-bit slots would read as 256^4 = M * 256^3 and pass.
    z4 = G(2, 2)
    carried = ((0, 0, 0, 0), (0, 128, 0, 128), (0, 0, 1, 0), (0, 128, 0, 128))
    assert -1 in _additivity_sums(z4, carried)
    assert not _per_entry_is_bilinear(z4, carried, 256)
    assert not groupalgebra._table_is_bilinear(z4, carried, 256)


def test_generator_shifts_follow_the_group_law():
    for g in _SMALL_GROUPS:
        els = elements(g)
        gens = _generator_indices(g)
        shifts = groupalgebra._generator_shifts(g)
        assert len(shifts) == len(gens), g
        for shift, k in zip(shifts, gens):
            assert shift == [element_index(g, (x + els[k]).coords) for x in els], g
