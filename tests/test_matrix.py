"""Determinant tests: the split-prime kernel and Bareiss against the expansion oracle and sympy."""

import random
from itertools import chain

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclofourier import (CircleFunction, FinAbGroup, LocalizedInt, ModRing, RingMatrix,
                          determinant, determinant_expansion, enumerate_groups, get_ring,
                          matrix, norm, random_table_function, spike_ring, standard_ring,
                          transform_matrix)
from cyclofourier.cli import main
from cyclofourier.matrix import (_NotAField, _bareiss_int, _bareiss_vec, _det_by_embeddings,
                                 _det_modular)


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
    # the expansion on 0x0 and 1x1 matrices, over both kinds of ring
    for ring, x in ((mring, mring.element(5)), (get_ring(9, 3), get_ring(9, 3).zeta(4) - 2)):
        assert determinant_expansion(RingMatrix(ring, 0, 0, [])) == ring.one
        assert determinant_expansion(RingMatrix(ring, 1, 1, [x])) == x


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


def _seeded_integer_matrices(rng):
    """Sparse and dense integer matrices, with zero columns, repeated rows and row swaps."""
    for n in range(1, 9):
        for density in (0.2, 0.5, 1):
            rows = [[rng.randint(-6, 6) if rng.random() < density else 0 for _ in range(n)]
                    for _ in range(n)]
            yield rows
            zero_col = [row[:] for row in rows]
            j = rng.randrange(n)
            for row in zero_col:
                row[j] = 0
            yield zero_col
            if n > 1:
                repeated = [row[:] for row in rows]
                i, j = rng.sample(range(n), 2)
                repeated[j] = repeated[i][:]
                yield repeated
                # a_00 = a_10 = a_11 = 0: step 0 swaps row 0 with a later row,
                # and row 1, left untouched by step 0, is swapped at step 1.
                swapped = [row[:] for row in rows]
                swapped[0][0] = 0
                swapped[1][0] = swapped[1][1] = 0
                yield swapped
        # permutation-like: one nonzero per row and column, so nearly every
        # multiplier is zero and rows carry their pending scale to the end
        perm = rng.sample(range(n), n)
        yield [[rng.choice((-3, -2, 2, 3)) if j == perm[i] else 0 for j in range(n)]
               for i in range(n)]


def test_bareiss_int_matches_sympy_and_expansion_on_sparse_and_dense_matrices():
    ring = get_ring(1, 2)
    count = 0
    for rows in _seeded_integer_matrices(random.Random(206)):
        det = _bareiss_int([row[:] for row in rows])
        assert det == sympy.Matrix(rows).det(), rows
        assert ring.from_int(det) == determinant_expansion(_int_matrix(ring, rows)), rows
        count += 1
    assert count == 98


def test_bareiss_int_skips_zero_multipliers_on_large_sparse_matrices():
    # Lower-bidiagonal plus a few entries: most rows keep a pending scale
    # over many steps before their multiplier becomes nonzero.
    rng = random.Random(207)
    for n in (12, 20, 30):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice((-5, -3, 2, 3, 7))
            if i:
                rows[i][i - 1] = rng.randint(-4, 4)
        for _ in range(n):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.randint(-9, 9)
        for mat in (rows, rows[::-1], [list(col) for col in zip(*rows)]):
            assert _bareiss_int([row[:] for row in mat]) == sympy.Matrix(mat).det()


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_bareiss_int_property(data):
    n = data.draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(1 << 40), 1 << 40))
    rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
    det = _bareiss_int([row[:] for row in rows])
    assert det == sympy.Matrix(rows).det()
    ring = get_ring(1, 3)
    assert ring.from_int(det) == determinant_expansion(_int_matrix(ring, rows))


@pytest.mark.parametrize("p, max_order", [(2, 64), (3, 81), (5, 25)])
def test_bareiss_int_matches_dense_bareiss_on_every_spike_transform(p, max_order):
    ring = spike_ring(p)
    fn = CircleFunction.spike(p)
    for group in enumerate_groups(p, max_order):
        mat = transform_matrix(group, fn, ring)
        rows = [[e.nums[0] for e in mat.row(i)] for i in range(mat.rows)]
        det = _bareiss_int([row[:] for row in rows])
        assert [det] == _bareiss_vec([[[c] for c in row] for row in rows], ring), group
        assert determinant(mat) == ring.from_int(det)


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


# (conductor, inverted prime) of the rings the split-prime kernel is checked over
_KERNEL_RINGS = [(3, 3), (4, 2), (5, 5), (7, 7), (8, 2), (9, 3), (12, 3), (18, 3), (20, 5)]


@pytest.fixture
def fresh_splits():
    matrix._split.cache_clear()
    yield
    matrix._split.cache_clear()


def _cleared_rows(mat):
    """Integer coefficient vectors of the entries, the shared denominator p^shift cleared."""
    p = mat.ring.prime
    shift = max(e.exp for e in mat.entries)
    return [[tuple(c * p ** (shift - e.exp) for c in e.nums) for e in mat.row(i)]
            for i in range(mat.rows)]


def _kernel_matches_bareiss(mat):
    rows = _cleared_rows(mat)
    assert _det_modular(rows, mat.ring) == _bareiss_vec([[list(a) for a in row] for row in rows],
                                                       mat.ring)


def _kernel_matches_oracles(mat):
    _kernel_matches_bareiss(mat)
    det = determinant(mat)
    assert det == determinant_expansion(mat)
    return det


def test_split_prime_kernel_matches_bareiss_and_expansion():
    rng = random.Random(205)
    for M, p in _KERNEL_RINGS:
        ring = get_ring(M, p)
        for n in (1, 2, 3, 4, 5):
            # entries carry denominators p^0 .. p^2
            rows = _random_cyclo_matrix(ring, n, rng)
            det = _kernel_matches_oracles(RingMatrix.from_rows(ring, rows))
            if n == 1:
                assert det == rows[0][0]
            zero_row = [list(row) for row in rows]
            zero_row[rng.randrange(n)] = [ring.zero] * n
            assert not _kernel_matches_oracles(RingMatrix.from_rows(ring, zero_row))
            if n > 1:
                # one row a multiple of another: singular
                i, j = rng.sample(range(n), 2)
                rows[j] = [ring.zeta(1) * x for x in rows[i]]
                assert not _kernel_matches_oracles(RingMatrix.from_rows(ring, rows))


def test_split_prime_kernel_matches_bareiss_on_transform_matrices():
    for p, exps, r in _TRANSFORM_CASES + [(3, (2, 1), 2), (5, (1, 1), 1), (2, (3, 1), 3)]:
        ring = standard_ring(p, r)
        for seed in range(6):
            fn = random_table_function(p, r, random.Random(seed), ring)
            _kernel_matches_bareiss(transform_matrix(FinAbGroup(p, exps), fn, ring))


def test_a_row_swap_under_one_embedding_only(monkeypatch, fresh_splits):
    # 17 = 1 (mod 8) splits Phi_8 = x^4 + 1, and zeta - 2 vanishes under zeta -> 2
    # alone, so only that elimination swaps rows.  The coefficient bound is
    # 1 * (3 + 1) * (1 + 1) = 8, and 17 > 2 * 8, so the lift is still exact.
    real = matrix._candidates
    monkeypatch.setattr(matrix, "_candidates", lambda M, floor: chain([17], real(M, floor)))
    ring = get_ring(8, 2)
    z = ring.zeta(1)
    mat = RingMatrix.from_rows(ring, [[z - 2, ring.one], [ring.one, ring.one]])
    split = matrix._split(8, 1 << 32)
    roots = [powers[1] for powers in split.powers]
    assert split.modulus == 17 and [(r - 2) % 17 == 0 for r in roots].count(True) == 1
    assert determinant(mat) == z - 3 == determinant_expansion(mat)


# Q = 67993 * 271969, both factors 1 (mod 8).  The root search finds an h of
# order 8 modulo each factor, so Q gets checked roots of Phi_8 and an inverse
# Vandermonde matrix, and only the non-unit pivot 67993 shows it composite.
_COMPOSITE = 67993 * 271969


def test_a_composite_candidate_is_rejected(monkeypatch, fresh_splits):
    real = matrix._candidates
    monkeypatch.setattr(matrix, "_candidates", lambda M, floor: chain(
        [_COMPOSITE] if floor < _COMPOSITE else [], real(M, floor)))
    ring = get_ring(8, 2)
    mat = RingMatrix.from_rows(ring, [[ring.from_int(67993), ring.one],
                                      [ring.one, ring.zeta(1)]])
    composite = matrix._split(8, 1 << 32)
    assert composite.modulus == _COMPOSITE and not matrix._probable_prime(_COMPOSITE)
    with pytest.raises(_NotAField):
        _det_by_embeddings(_cleared_rows(mat), composite)
    assert determinant(mat) == ring.zeta(1) * 67993 - 1 == determinant_expansion(mat)
    assert matrix._split(8, _COMPOSITE).modulus > _COMPOSITE


def test_a_claimed_root_that_is_not_a_root_is_an_internal_error(monkeypatch, fresh_splits,
                                                                capsys):
    monkeypatch.setattr(matrix, "_root_of_order", lambda q, conductor: 1)
    ring = get_ring(8, 2)
    with pytest.raises(ArithmeticError, match="not a root of Phi_8"):
        determinant(RingMatrix.from_rows(ring, [[ring.zeta(1)]]))
    argv = ["verify", "criterion-oracle", "--p", "2", "--r", "2", "--samples", "1"]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith("internal error: ")


_COEFF = st.one_of(st.integers(-3, 3), st.integers(-(1 << 70), 1 << 70))


@settings(max_examples=80, deadline=None, database=None)
@given(st.data())
def test_split_prime_kernel_property(data):
    M, p = data.draw(st.sampled_from(_KERNEL_RINGS))
    ring = get_ring(M, p)
    n = data.draw(st.integers(1, 4))
    entries = [ring.element([LocalizedInt(data.draw(_COEFF), data.draw(st.integers(0, 2)), p)
                             for _ in range(ring.degree)])
               for _ in range(n * n)]
    _kernel_matches_oracles(RingMatrix(ring, n, n, entries))


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
