"""Ring-layer tests: localized integers, cyclotomic quotients, Z/m.

Oracles: fractions.Fraction for the scalar ring, sympy's cyclotomic_poly
for the cyclotomic polynomials, and a Fraction Gaussian-elimination
determinant of the multiplication matrix as an independent unit test.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclofourier import (CycloElem, CycloRing, IntPolynomial, LocalizedInt, ModRing,
                          NotAUnitError, cyclotomic_polynomial, euler_phi, galois_conjugate,
                          get_ring, inverse, is_unit, lift_conductor, norm)

CONDUCTORS = [1, 3, 4, 5, 6, 8, 9, 12, 16, 18, 27]


def rand_localized(rng, p):
    return LocalizedInt(rng.randint(-40, 40), rng.randint(0, 3), p)


def rand_elem(rng, ring, span=9):
    return ring.element([LocalizedInt(rng.randint(-span, span), rng.randint(0, 2),
                                      ring.prime)
                         for _ in range(ring.degree)])


# -- LocalizedInt --------------------------------------------------------


def test_localized_matches_fraction_arithmetic():
    rng = random.Random(101)
    for p in (2, 3, 5):
        for _ in range(300):
            a, b = rand_localized(rng, p), rand_localized(rng, p)
            assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
            assert (a - b).as_fraction() == a.as_fraction() - b.as_fraction()
            assert (a * b).as_fraction() == a.as_fraction() * b.as_fraction()
            assert (-a).as_fraction() == -a.as_fraction()


def test_localized_normalization_invariant():
    rng = random.Random(102)
    for _ in range(200):
        x = rand_localized(rng, 3)
        assert x.denom_exp == 0 or x.numerator % 3 != 0
        if x.numerator == 0:
            assert x.denom_exp == 0


def test_localized_equality_agrees_with_q():
    assert LocalizedInt(6, 1, 2) == LocalizedInt(3, 0, 2)
    assert LocalizedInt(4, 2, 2) == 1
    assert LocalizedInt(1, 1, 2) != LocalizedInt(1, 2, 2)
    with pytest.raises(ValueError):
        LocalizedInt(1, 0, 2) + LocalizedInt(1, 0, 3)


def test_localized_units_are_signed_p_powers():
    rng = random.Random(103)
    for p in (2, 3, 5):
        for _ in range(300):
            x = rand_localized(rng, p)
            frac = x.as_fraction()
            expected = frac != 0 and _is_p_power(abs(frac.numerator), p) \
                and _is_p_power(frac.denominator, p)
            assert is_unit_scalar(x) == expected


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def is_unit_scalar(x):
    return x.is_unit()


def test_localized_inverse_and_exact_div():
    rng = random.Random(104)
    for _ in range(200):
        x = rand_localized(rng, 2)
        if x.is_unit():
            assert (x * x.inverse()).as_fraction() == 1
        y = rand_localized(rng, 2)
        if y and (x.as_fraction() / y.as_fraction()).denominator & (
                (x.as_fraction() / y.as_fraction()).denominator - 1) == 0:
            # denominator a power of 2: the quotient stays in Z[1/2]
            q = x.exact_div(y)
            assert q.as_fraction() == x.as_fraction() / y.as_fraction()
    with pytest.raises(NotAUnitError):
        LocalizedInt(3, 0, 2).inverse()
    with pytest.raises(ValueError):
        LocalizedInt(1, 0, 2).exact_div(LocalizedInt(3, 0, 2))


# -- cyclotomic polynomials ----------------------------------------------


def test_cyclotomic_base_cases():
    assert cyclotomic_polynomial(1).coeffs == (-1, 1)
    assert cyclotomic_polynomial(2).coeffs == (1, 1)
    assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
    assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)


def test_cyclotomic_against_sympy():
    x = sympy.symbols("x")
    for n in range(1, 40):
        ours = cyclotomic_polynomial(n).coeffs
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]


def test_cyclotomic_product_identity_and_degree():
    for n in range(1, 21):
        product = IntPolynomial([1])
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_polynomial(d)
        assert product.coeffs == tuple([-1] + [0] * (n - 1) + [1])
        brute_phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert cyclotomic_polynomial(n).degree == brute_phi == euler_phi(n)


def test_polynomial_pretty():
    assert cyclotomic_polynomial(1).pretty() == "X - 1"
    assert cyclotomic_polynomial(12).pretty() == "X^4 - X^2 + 1"
    assert IntPolynomial([]).pretty() == "0"
    assert IntPolynomial([-2]).pretty() == "-2"


# -- CycloElem arithmetic -------------------------------------------------


def test_ring_axioms_on_random_triples():
    rng = random.Random(105)
    for M in CONDUCTORS:
        p = 2 if M % 2 else 3
        ring = get_ring(M, p)
        one = ring.one
        for _ in range(25):
            x, y, z = (rand_elem(rng, ring, 5) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z
            assert x * one == x
            assert x + ring.zero == x
            assert x - x == ring.zero


# (conductor, inverted prime) of the rings the ring axioms are checked over
_AXIOM_RINGS = [(1, 2), (1, 3), (3, 2), (3, 3), (4, 2), (4, 3), (8, 2), (9, 3), (12, 2),
                (12, 3), (18, 2), (18, 3)]


@st.composite
def _ring_and_elements(draw, count=3):
    M, p = draw(st.sampled_from(_AXIOM_RINGS))
    ring = get_ring(M, p)
    coeff = st.one_of(st.integers(-3, 3), st.integers(-(1 << 60), 1 << 60))

    def element():
        return ring.element([LocalizedInt(draw(coeff), draw(st.integers(0, 3)), p)
                             for _ in range(ring.degree)])

    return ring, [element() for _ in range(count)]


@settings(max_examples=120, deadline=None, database=None)
@given(_ring_and_elements())
def test_ring_axioms_property(ring_and_elements):
    ring, (x, y, z) = ring_and_elements
    zero, one = ring.zero, ring.one
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x + zero == x and x * one == x and one * x == x
    assert x * zero == zero and not x * zero
    assert x - x == zero and not x - x
    assert x - y == -(y - x)


@settings(max_examples=120, deadline=None, database=None)
@given(_ring_and_elements(count=1), st.integers(1, 3))
def test_equal_values_with_different_denominators_keep_the_eq_hash_contract(ring_and_elements,
                                                                             k):
    # x with its shared denominator raised by k, and x * p^k / p^k
    ring, (x,) = ring_and_elements
    p = ring.prime
    raised = CycloElem(ring, [c * p ** k for c in x.nums], x.exp + k)
    scaled = x * ring.from_int(p ** k) * ring.scalar(LocalizedInt(1, k, p))
    for y in (raised, scaled, CycloRing(ring.conductor, p).element(list(x.coeffs))):
        assert y == x and x == y
        assert hash(y) == hash(x)
        assert {x: "x"}[y] == "x"


@settings(max_examples=120, deadline=None, database=None)
@given(st.sampled_from([1, 4, 9, 12, 18, 105]), st.data())
def test_zeta_sum_equals_the_ring_sum_of_zeta_powers(M, data):
    # negative exponents, exponents >= M, repeats, and the empty list
    exponents = data.draw(st.lists(st.integers(-3 * M, 3 * M), max_size=3 * M))
    ring = get_ring(M, 3)
    expected = ring.zero
    for e in exponents:
        expected = expected + ring.zeta(e)
    assert ring.zeta_sum(exponents) == expected


def test_zeta_power_examples():
    ring = get_ring(4, 2)
    assert ring.zeta(2) == ring.from_int(-1)
    assert ring.zeta(0) == ring.one
    ring3 = get_ring(3, 3)
    assert ring3.zeta(1) + ring3.zeta(2) == ring3.from_int(-1)


def test_multiplication_reduces_mod_modulus():
    ring = get_ring(4, 2)
    z = ring.zeta(1)
    assert z * ring.zeta(3) == ring.one  # zeta^4 = 1
    assert (z - ring.one) + ring.one == z


def test_mismatched_rings_rejected():
    a = get_ring(4, 2).one
    b = get_ring(8, 2).one
    with pytest.raises(ValueError):
        a + b


def test_rings_built_directly_interoperate_with_interned_rings():
    interned = get_ring(8, 2)
    direct = CycloRing(8, 2)
    assert direct is not interned and direct == interned
    x = direct.zeta(1) + interned.zeta(2)
    assert x == interned.zeta(1) + direct.zeta(2)
    assert direct.zeta(3) * interned.zeta(5) == interned.one == direct.one
    assert hash(direct.one) == hash(interned.one)
    assert is_unit(interned.zeta(1) - direct.one)  # norm 2, inverted in the ring
    with pytest.raises(ValueError):
        CycloRing(4, 2).one + interned.one


def test_lift_conductor():
    r2, r4 = get_ring(2, 2), get_ring(4, 2)
    assert lift_conductor(r2.one, 4) == r4.one
    minus_one = r2.zeta(1)
    assert lift_conductor(minus_one, 4) == r4.from_int(-1) == r4.zeta(1) * r4.zeta(1)
    rng = random.Random(106)
    small, big = get_ring(6, 3), 12
    for _ in range(50):
        x, y = rand_elem(rng, small), rand_elem(rng, small)
        assert lift_conductor(x * y, big) == lift_conductor(x, big) * lift_conductor(y, big)
        assert lift_conductor(x + y, big) == lift_conductor(x, big) + lift_conductor(y, big)
    with pytest.raises(ValueError):
        lift_conductor(small.one, 8)


def test_galois_conjugation():
    ring = get_ring(4, 2)
    z = ring.zeta(1)
    assert galois_conjugate(z, 1) == z
    assert galois_conjugate(z, 3) == -z  # zeta^3 = -zeta at conductor 4
    rng = random.Random(107)
    ring = get_ring(9, 3)
    units = [t for t in range(1, 9) if math.gcd(t, 9) == 1]
    for _ in range(40):
        x, y = rand_elem(rng, ring), rand_elem(rng, ring)
        t, s = rng.choice(units), rng.choice(units)
        assert galois_conjugate(x * y, t) == galois_conjugate(x, t) * galois_conjugate(y, t)
        assert galois_conjugate(x + y, t) == galois_conjugate(x, t) + galois_conjugate(y, t)
        assert galois_conjugate(galois_conjugate(x, s), t) == galois_conjugate(x, t * s % 9)
    with pytest.raises(ValueError):
        galois_conjugate(ring.one, 3)


def test_norm_examples_and_multiplicativity():
    r4 = get_ring(4, 2)
    assert norm(r4.one) == 1
    assert norm(r4.zeta(1) - r4.one) == 2
    r3 = get_ring(3, 3)
    assert norm(r3.zeta(1) - r3.zeta(2)) == 3
    rng = random.Random(108)
    for M in (3, 4, 5, 8, 12):
        ring = get_ring(M, 2)
        for _ in range(20):
            x, y = rand_elem(rng, ring, 4), rand_elem(rng, ring, 4)
            assert norm(x * y) == norm(x) * norm(y)


def test_is_unit_examples():
    r4 = get_ring(4, 2)
    assert is_unit(r4.one)
    assert is_unit(r4.zeta(1) - r4.one)  # norm 2, p = 2
    r3 = get_ring(3, 2)  # p = 2 inverted, conductor 3
    assert not is_unit(r3.zeta(1) - r3.one)  # norm 3 is not a 2-power


def _multiplication_matrix_fractions(x):
    """Columns are x * zeta^j on the power basis, as Fractions (oracle)."""
    ring = x.ring
    cols = []
    for j in range(ring.degree):
        col = (x * ring.zeta(j)).coeffs
        cols.append([c.as_fraction() for c in col])
    return [[cols[j][i] for j in range(ring.degree)] for i in range(ring.degree)]


def _fraction_det(rows):
    n = len(rows)
    rows = [row[:] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        inv = Fraction(1) / rows[k][k]
        for r in range(k + 1, n):
            factor = rows[r][k] * inv
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[k])]
    return det


def test_is_unit_against_multiplication_matrix_oracle():
    rng = random.Random(109)
    for M in (3, 4, 6, 8, 9, 12):
        for p in (2, 3):
            ring = get_ring(M, p)
            for _ in range(15):
                x = rand_elem(rng, ring, 3)
                det = _fraction_det(_multiplication_matrix_fractions(x))
                expected = det != 0 and _is_p_power(abs(det.numerator), p) \
                    and _is_p_power(det.denominator, p)
                assert is_unit(x) == expected
                if x:
                    assert abs(det) == abs(norm(x).as_fraction())


def test_root_of_cyclotomic_minus_one_is_unit():
    # d-th primitive roots alpha with d invertible give alpha - 1 invertible
    cases = [(2, 2, 4), (3, 3, 9), (4, 2, 4), (6, 2, 6), (8, 2, 8), (9, 3, 9)]
    for d, p, M in cases:
        ring = get_ring(M, p)
        alpha = ring.zeta(M // d)
        assert cyclotomic_polynomial(d).degree == euler_phi(d)
        assert is_unit(alpha - ring.one), (d, p, M)


def test_inverse_examples_and_roundtrip():
    r4 = get_ring(4, 2)
    assert inverse(r4.one) == r4.one
    assert inverse(r4.zeta(1)) == r4.zeta(3)
    half = LocalizedInt(-1, 1, 2)
    assert inverse(r4.zeta(1) - r4.one) == r4.element([half, half])
    rng = random.Random(110)
    for M in (3, 4, 8, 12):
        ring = get_ring(M, 2)
        found = 0
        for _ in range(200):
            x = rand_elem(rng, ring, 3)
            if x and is_unit(x):
                assert x * inverse(x) == ring.one
                found += 1
            if found >= 8:
                break
        assert found > 0
    with pytest.raises(NotAUnitError):
        inverse(get_ring(3, 2).zeta(1) - get_ring(3, 2).one)


def test_coeff_view_and_serialization():
    ring = get_ring(4, 2)
    x = ring.element([LocalizedInt(3, 1, 2), LocalizedInt(1, 0, 2)])
    assert x.coeff_strings() == ["3/2^1", "1"]
    assert [c.as_fraction() for c in x.coeffs] == [Fraction(3, 2), Fraction(1)]


def test_coeff_strings_match_the_localized_coefficients():
    rng = random.Random(107)
    for M in CONDUCTORS:
        for p in (2, 3, 5):
            ring = get_ring(M, p)
            for _ in range(20):
                # p-divisible, zero and negative numerators over denominators p^0 .. p^3
                x = ring.element([LocalizedInt(rng.choice((0, 1, -1)) * rng.randint(0, 9)
                                               * p ** rng.randint(0, 3), rng.randint(0, 3), p)
                                  for _ in range(ring.degree)])
                assert x.coeff_strings() == [str(c) for c in x.coeffs]
                half = ring.scalar(LocalizedInt(1, rng.randint(0, 2), p))
                y = ring.zeta(rng.randrange(M)) * half
                assert y.coeff_strings() == [str(c) for c in y.coeffs]
    ring = get_ring(9, 3)
    x = CycloElem(ring, [0, 9, -3, 2, 27, -81], 2)
    assert x.coeff_strings() == ["0", "1", "-1/3^1", "2/3^2", "3", "-9"]


def test_conductor_one_ring_is_the_scalar_ring():
    ring = get_ring(1, 5)
    assert ring.degree == 1
    assert ring.zeta(7) == ring.one
    x = ring.from_int(10)
    assert norm(x) == 10
    assert not is_unit(x)
    assert is_unit(ring.from_int(25))


def test_mod_elem_eq_hash_contract():
    ring = ModRing(7)
    x = ring.element(5)
    assert x == 5 and 5 in {x} and x in {5}
    assert x != 12 and x != -2  # only the canonical residue equals an int
    assert ring.element(12) == x and {ring.element(12): "a"}[x] == "a"
    assert ModRing(11).element(5) != x
    for m in (2, 7, 12):
        mring = ModRing(m)
        for v in range(-15, 15):
            y = mring.element(v)
            for n in range(-15, 15):
                if y == n:
                    assert hash(y) == hash(n)
