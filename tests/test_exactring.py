"""Ring-layer tests: Z[1/p] (conductor 1), cyclotomic quotients, Z/m, primality.

Oracles: fractions.Fraction for the scalar ring, sympy's cyclotomic_poly
for the cyclotomic polynomials, a Fraction Gaussian-elimination
determinant of the multiplication matrix as an independent unit test,
and sympy.isprime for the primality test.
"""

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclofourier import (CycloElem, CycloRing, IntPolynomial, ModRing,
                          NotAUnitError, cyclotomic_polynomial, euler_phi, galois_conjugate,
                          get_ring, inverse, is_unit, lift_conductor, norm)
from cyclofourier.exactring import _is_prime, _probable_prime

CONDUCTORS = [1, 3, 4, 5, 6, 8, 9, 12, 16, 18, 27]


def zp(n, e, p):
    """n / p^e in Z[1/p], the conductor-1 ring."""
    return CycloElem(get_ring(1, p), (n,), e)


def frac(x):
    """A value of Z[1/p] as a Fraction."""
    return Fraction(x.nums[0], x.ring.prime ** x.exp)


def coefficient_fractions(x):
    """The power-basis coefficients of x as Fractions."""
    return [Fraction(n, x.ring.prime ** x.exp) for n in x.nums]


def fraction_string(value, p):
    """The str of a value of Z[1/p] in lowest terms, from a Fraction: "n" or "n/p^e"."""
    den = value.denominator
    e = next(e for e in range(den.bit_length()) if p ** e == den)
    return f"{value.numerator}/{p}^{e}" if e else str(value.numerator)


def rand_localized(rng, p):
    return zp(rng.randint(-40, 40), rng.randint(0, 3), p)


def rand_elem(rng, ring, span=9):
    return ring.element([zp(rng.randint(-span, span), rng.randint(0, 2), ring.prime)
                         for _ in range(ring.degree)])


# -- Z[1/p]: the conductor-1 ring ------------------------------------------


def test_localized_matches_fraction_arithmetic():
    rng = random.Random(101)
    for p in (2, 3, 5):
        for _ in range(300):
            a, b = rand_localized(rng, p), rand_localized(rng, p)
            assert frac(a + b) == frac(a) + frac(b)
            assert frac(a - b) == frac(a) - frac(b)
            assert frac(a * b) == frac(a) * frac(b)
            assert frac(-a) == -frac(a)


def test_localized_normalization_invariant():
    rng = random.Random(102)
    for _ in range(200):
        x = rand_localized(rng, 3)
        assert x.exp == 0 or x.nums[0] % 3 != 0
        if x.nums[0] == 0:
            assert x.exp == 0


def test_localized_equality_agrees_with_q():
    assert zp(6, 1, 2) == zp(3, 0, 2)
    assert zp(4, 2, 2) == zp(1, 0, 2) == get_ring(1, 2).one
    assert zp(1, 1, 2) != zp(1, 2, 2)
    with pytest.raises(ValueError):
        zp(1, 0, 2) + zp(1, 0, 3)


def test_localized_units_are_signed_p_powers():
    rng = random.Random(103)
    for p in (2, 3, 5):
        for _ in range(300):
            x = rand_localized(rng, p)
            value = frac(x)
            expected = value != 0 and _is_p_power(abs(value.numerator), p) \
                and _is_p_power(value.denominator, p)
            assert is_unit(x) == expected


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_localized_inverse_and_exact_div():
    # division in Z[1/2] by a unit is multiplication by its inverse
    rng = random.Random(104)
    for _ in range(200):
        x = rand_localized(rng, 2)
        if is_unit(x):
            assert frac(x * inverse(x)) == 1
        y = rand_localized(rng, 2)
        if is_unit(y):
            assert frac(x * inverse(y)) == frac(x) / frac(y)
    with pytest.raises(NotAUnitError):
        inverse(zp(3, 0, 2))


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
        return ring.element([zp(draw(coeff), draw(st.integers(0, 3)), p)
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
    scaled = x * ring.from_int(p ** k) * lift_conductor(zp(1, k, p), ring.conductor)
    rebuilt = CycloRing(ring.conductor, p).element([zp(c, x.exp, p) for c in x.nums])
    for y in (raised, scaled, rebuilt):
        assert y == x and x == y
        assert hash(y) == hash(x)
        assert {x: "x"}[y] == "x"


def test_a_negative_denominator_exponent_is_folded_into_the_numerators():
    # 1 / 2^-1 is 2, and (3 + zeta) / 2^-2 is 4 * (3 + zeta)
    z2 = get_ring(1, 2)
    two = CycloElem(z2, (1,), -1)
    assert (two.nums, two.exp) == ((2,), 0) and str(two) == "[2]"
    assert two == z2.from_int(2) and hash(two) == hash(z2.from_int(2))
    assert len({two, z2.from_int(2)}) == 1
    ring = get_ring(4, 2)
    x = CycloElem(ring, (3, 1), -2)
    assert x == 4 * (3 + ring.zeta(1)) and hash(x) == hash(4 * (3 + ring.zeta(1)))


def test_localized_ints_over_different_primes_are_unequal_but_hashable_together():
    two, three = zp(5, 0, 2), zp(5, 0, 3)
    assert two != three and not three == two
    assert len({two, three}) == 2 and {two: "two"}.get(three) is None
    assert zp(1, 1, 2) != zp(1, 1, 3)
    for mixed in (lambda: two + three, lambda: two * three, lambda: two - three):
        with pytest.raises(ValueError, match="different rings"):
            mixed()


def test_coeff_strings_is_a_new_list_of_the_coefficient_strings():
    from cyclofourier.exactring import _SHARED_INT_BOUND as K
    ring = get_ring(9, 3)
    ints = [-K - 1, -K, K, K + 1, 10 ** 40, -9]
    fractions = [zp(n, 2, 3) for n in ints[:-1]] + [zp(9, 2, 3)]
    for x in (ring.element(ints), ring.element(fractions)):
        expected = [fraction_string(c, 3) for c in coefficient_fractions(x)]
        first = x.coeff_strings()
        assert first == expected
        first.clear()
        second = x.coeff_strings()
        assert second is not first and second == expected
    assert ring.element(fractions).coeff_strings()[:2] == [f"{-K - 1}/3^2", f"{-K}/3^2"]
    assert ring.element(fractions).coeff_strings()[-1] == "1"


def test_equal_small_coefficients_share_one_string():
    ring = get_ring(9, 3)
    a = ring.element([42, -42, 42, 7, -42, 0]).coeff_strings()
    b = ring.element([0, 42, 0, 0, 0, -42]).coeff_strings()
    assert a[0] is a[2] is b[1] and a[1] is a[4] is b[5]


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
    assert norm(r4.one) == zp(1, 0, 2)
    assert norm(r4.zeta(1) - r4.one) == zp(2, 0, 2)
    r3 = get_ring(3, 3)
    assert norm(r3.zeta(1) - r3.zeta(2)) == zp(3, 0, 3)
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
        cols.append(coefficient_fractions(x * ring.zeta(j)))
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
                    assert abs(det) == abs(frac(norm(x)))


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
    half = zp(-1, 1, 2)
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
    x = ring.element([zp(3, 1, 2), zp(1, 0, 2)])
    assert x.coeff_strings() == ["3/2^1", "1"]
    assert coefficient_fractions(x) == [Fraction(3, 2), Fraction(1)]


def test_coeff_strings_match_the_localized_coefficients():
    rng = random.Random(107)
    for M in CONDUCTORS:
        for p in (2, 3, 5):
            ring = get_ring(M, p)
            for _ in range(20):
                # p-divisible, zero and negative numerators over denominators p^0 .. p^3
                x = ring.element([zp(rng.choice((0, 1, -1)) * rng.randint(0, 9)
                                     * p ** rng.randint(0, 3), rng.randint(0, 3), p)
                                  for _ in range(ring.degree)])
                assert x.coeff_strings() == [fraction_string(c, p)
                                             for c in coefficient_fractions(x)]
                half = lift_conductor(zp(1, rng.randint(0, 2), p), M)
                y = ring.zeta(rng.randrange(M)) * half
                assert y.coeff_strings() == [fraction_string(c, p)
                                             for c in coefficient_fractions(y)]
    ring = get_ring(9, 3)
    x = CycloElem(ring, [0, 9, -3, 2, 27, -81], 2)
    assert x.coeff_strings() == ["0", "1", "-1/3^1", "2/3^2", "3", "-9"]


def test_conductor_one_ring_is_the_scalar_ring():
    ring = get_ring(1, 5)
    assert ring.degree == 1
    assert ring.zeta(7) == ring.one
    x = ring.from_int(10)
    assert norm(x) == x == zp(10, 0, 5)
    assert not is_unit(x)
    assert is_unit(ring.from_int(25))


def test_norm_and_scalars_land_in_the_conductor_one_ring():
    rng = random.Random(111)
    for M, p in ((1, 2), (4, 2), (9, 3), (12, 5)):
        ring = get_ring(M, p)
        for _ in range(10):
            x = rand_elem(rng, ring, 4)
            assert norm(x).ring is get_ring(1, p)
            assert lift_conductor(norm(x), M) == math.prod(
                (galois_conjugate(x, t) for t in range(1, M + 1) if math.gcd(t, M) == 1),
                start=ring.one)
        scalar = ring.element([zp(-6, 2, p)] + [0] * (ring.degree - 1))
        assert scalar.as_scalar() == zp(-6, 2, p) and scalar.as_scalar().ring is get_ring(1, p)


def test_element_takes_ints_and_values_of_z_one_over_p_only():
    ring = get_ring(4, 3)
    assert ring.element([zp(1, 1, 3), 2]) == ring.element([1, 6]) * inverse(ring.from_int(3))
    for bad in (zp(1, 1, 2),  # a value of Z[1/2] in a ring over Z[1/3]
                get_ring(2, 3).one,  # conductor 2 > 1
                ring.zeta(1),
                Fraction(1, 3),
                1.0):
        with pytest.raises(ValueError, match="is not a value of"):
            ring.element([bad, 0])


def test_mod_ring_elements_are_the_int_residues():
    ring = ModRing(7)
    assert ring.element(12) == 5 and type(ring.element(-2)) is int
    assert (ring.zero, ring.one) == (0, 1) and type(ring.one) is int
    assert ModRing(7) == ring and hash(ModRing(7)) == hash(ring) and ModRing(11) != ring


# The smallest strong pseudoprime to the 13 bases 2..41 (Sorenson and Webster 2017),
# and the smallest one to the 12 bases 2..37, which base 41 exposes.
_PSI_13 = 3_317_044_064_679_887_385_961_981
_PSI_12 = 318_665_857_834_031_151_167_461


def _chernick_carmichael(ks):
    """(6k + 1)(12k + 1)(18k + 1) with all three factors prime: Carmichael numbers."""
    for k in ks:
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(map(sympy.isprime, factors)):
            yield math.prod(factors)


def test_is_prime_agrees_with_sympy():
    assert [n for n in range(10 ** 5) if _is_prime(n)] == list(sympy.primerange(10 ** 5))
    assert _is_prime(2 ** 61 - 1) and not _is_prime(2 ** 61 + 1)
    small = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657]
    large = list(_chernick_carmichael(range(10 ** 7, 10 ** 7 + 600)))
    assert len(large) >= 3 and max(large) < _PSI_13
    for n in small + list(_chernick_carmichael(range(1, 300))) + large + [_PSI_12]:
        assert not _is_prime(n) and not sympy.isprime(n), n
    assert _is_prime(_PSI_13 - 2) == sympy.isprime(_PSI_13 - 2)


def test_is_prime_refuses_past_the_proof_bound():
    assert _probable_prime(_PSI_13) and not sympy.isprime(_PSI_13)
    for n in (_PSI_13, _PSI_13 + 2, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="proven only below"):
            _is_prime(n)
