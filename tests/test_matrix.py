"""Determinant tests: Bareiss elimination against the expansion oracle and sympy."""

import random

import pytest
import sympy

from cyclofourier import (FinAbGroup, LocalizedInt, ModRing, RingMatrix, determinant,
                          determinant_expansion, get_ring, norm, random_table_function,
                          standard_ring, transform_matrix)
from cyclofourier.matrix import _bareiss_int


def _int_matrix(ring, rows):
    return RingMatrix.from_rows(ring, [[ring.from_int(v) for v in row] for row in rows])


def test_identity_and_small_examples():
    for ring in (get_ring(4, 2), get_ring(1, 3)):
        eye = _int_matrix(ring, [[1, 0], [0, 1]])
        assert determinant(eye) == ring.one
        m = _int_matrix(ring, [[1, 1], [1, 2]])
        assert determinant(m) == ring.one
    mring = ModRing(7)
    m = RingMatrix.from_rows(mring, [[mring.element(1), mring.element(1)],
                                     [mring.element(1), mring.element(2)]])
    assert determinant(m) == mring.one


def test_bareiss_matches_expansion_and_sympy_on_integers():
    rng = random.Random(201)
    ring = get_ring(1, 2)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        mat = _int_matrix(ring, rows)
        ours = determinant(mat)
        oracle = determinant_expansion(mat)
        assert ours == oracle
        assert ours.as_scalar().as_fraction() == sympy.Matrix(rows).det()


def test_bareiss_matches_expansion_over_cyclotomic_entries():
    rng = random.Random(202)
    for M, p in ((4, 2), (6, 3), (9, 3)):
        ring = get_ring(M, p)
        for _ in range(10):
            n = rng.randint(2, 4)
            entries = [ring.element([LocalizedInt(rng.randint(-3, 3), rng.randint(0, 1), p)
                                     for _ in range(ring.degree)])
                       for _ in range(n * n)]
            mat = RingMatrix(ring, n, n, entries)
            assert determinant(mat) == determinant_expansion(mat)


# Transform matrices of the criterion oracle: (prime, exponents, level r) with the
# ring standard_ring(p, r), of conductor 18, 18, 20 and 8.
_TRANSFORM_CASES = [(3, (2,), 2), (3, (1, 1), 2), (5, (1,), 1), (2, (3,), 3)]


def _random_cyclo_matrix(ring, n, rng):
    p = ring.prime
    return [[ring.element([LocalizedInt(rng.randint(-4, 4), rng.randint(0, 2), p)
                           for _ in range(ring.degree)]) for _ in range(n)]
            for _ in range(n)]


def test_bareiss_matches_expansion_on_transform_and_random_matrices():
    rng = random.Random(204)
    for p, exps, r in _TRANSFORM_CASES:
        ring = standard_ring(p, r)
        for seed in range(4):
            fn = random_table_function(p, r, random.Random(seed), ring)
            mat = transform_matrix(FinAbGroup(p, exps), fn, ring)
            assert determinant(mat) == determinant_expansion(mat)
    for M, p in ((18, 3), (20, 5), (8, 2), (7, 7)):
        ring = get_ring(M, p)
        for n in (3, 5, 7):
            rows = _random_cyclo_matrix(ring, n, rng)
            dense = RingMatrix.from_rows(ring, rows)
            assert determinant(dense) == determinant_expansion(dense)
            # Zero a_10 and a_11: after step 0 the (1, 1) entry is
            # a_00 * a_11 - a_10 * a_01 = 0, so step 1 must swap rows.
            rows[1][0] = rows[1][1] = ring.zero
            swapped = RingMatrix.from_rows(ring, rows)
            det = determinant(swapped)
            assert det and det == determinant_expansion(swapped)
            # A repeated row makes the matrix singular.
            rows[n - 1] = list(rows[0])
            singular = RingMatrix.from_rows(ring, rows)
            assert not determinant(singular)
            assert not determinant_expansion(singular)


def _regular_representation(mat):
    """The (n * phi)-square integer matrix of mat acting on Z^phi, denominators cleared.

    Block (i, j) has column c equal to the coefficients of a_ij * zeta^c, so its
    determinant is p^(n * phi * shift) times the norm of det(mat).
    """
    ring, n, phi = mat.ring, mat.rows, mat.ring.degree
    products = [[[e * ring.zeta(c) for c in range(phi)] for e in mat.row(i)]
                for i in range(n)]
    shift = max(x.exp for row in products for block in row for x in block)
    big = []
    for i in range(n):
        for a in range(phi):
            big.append([block[c].nums[a] * ring.prime ** (shift - block[c].exp)
                        for block in products[i] for c in range(phi)])
    return big, n * phi * shift


# Seed 1729 draws a singular transform for each group, the other seed a unit one.
@pytest.mark.parametrize("p, exps, r, seeds", [(2, (3, 1), 3, (1729, 1782)),
                                               (5, (1, 1), 1, (1729, 1752)),
                                               (3, (2, 1), 2, (1729, 1771))])
def test_norm_of_bareiss_determinant_matches_integer_regular_representation(p, exps, r,
                                                                             seeds):
    ring = standard_ring(p, r)
    verdicts = []
    for seed in seeds:
        fn = random_table_function(p, r, random.Random(seed), ring)
        mat = transform_matrix(FinAbGroup(p, exps), fn, ring)
        big, scale = _regular_representation(mat)
        expected = _bareiss_int(big)
        det_norm = norm(determinant(mat))
        assert det_norm.as_fraction() * ring.prime ** scale == expected
        verdicts.append(det_norm.is_unit())
    assert verdicts == [False, True]


def test_denominators_are_cleared_exactly():
    ring = get_ring(4, 2)
    half = LocalizedInt(1, 1, 2)
    mat = RingMatrix.from_rows(ring, [
        [ring.scalar(half), ring.one],
        [ring.one, ring.scalar(half)],
    ])
    det = determinant(mat)
    assert det.as_scalar().as_fraction() == sympy.Rational(1, 4) - 1


def test_singular_matrices():
    ring = get_ring(4, 2)
    mat = _int_matrix(ring, [[1, 2], [2, 4]])
    assert not determinant(mat)
    mat = _int_matrix(ring, [[0, 0], [1, 1]])
    assert not determinant(mat)


def test_mod_ring_determinant_matches_integer_det():
    rng = random.Random(203)
    for m in (5, 6, 7, 12):
        ring = ModRing(m)
        for _ in range(15):
            n = rng.randint(1, 4)
            rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
            mat = RingMatrix.from_rows(ring, [[ring.element(v) for v in row]
                                              for row in rows])
            expected = int(sympy.Matrix(rows).det()) % m
            assert determinant(mat).value == expected


def test_expansion_over_z_mod_m_matches_bareiss_on_the_lift_and_sympy():
    rng = random.Random(204)
    cases = []
    for m in (2, 12, 593, 1001):
        for n in range(1, 8):
            rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
            cases.append((m, rows))
            zero_row = [row[:] for row in rows]
            zero_row[rng.randrange(n)] = [0] * n
            cases.append((m, zero_row))
            if n > 1:
                repeated = [row[:] for row in rows]
                i, j = rng.sample(range(n), 2)
                repeated[j] = repeated[i][:]
                cases.append((m, repeated))
            cases.append((m, [[0] * n for _ in range(n)]))
    for m, rows in cases:
        ring = ModRing(m)
        mat = RingMatrix.from_rows(ring, [[ring.element(v) for v in row] for row in rows])
        det = determinant_expansion(mat).value
        assert det == _bareiss_int([row[:] for row in rows]) % m, (m, rows)
        assert det == int(sympy.Matrix(rows).det()) % m, (m, rows)


def test_shape_checks():
    ring = get_ring(4, 2)
    with pytest.raises(ValueError):
        determinant(RingMatrix(ring, 2, 3, [ring.one] * 6))
    with pytest.raises(ValueError):
        RingMatrix(ring, 2, 2, [ring.one] * 3)


def test_matrix_json_shapes():
    ring = get_ring(4, 2)
    mat = _int_matrix(ring, [[1, 0], [0, 1]])
    assert mat.to_json() == [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]
    mring = ModRing(5)
    mmat = RingMatrix.from_rows(mring, [[mring.element(3), mring.element(9)]])
    assert mmat.to_json() == [[3, 4]]
