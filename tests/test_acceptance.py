"""Acceptance suite: exactness-based criteria, each with a wall-clock budget.

Every check below is exact (integer or localized-integer equality); there
is no floating point anywhere.  Each test prints one pass/fail line; run
with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import itertools
import random
import time

from cyclofourier import (AlgElem, CycloElem, IntPolynomial, check_gauss_identities,
                          complete_idempotent_set, count_idempotents_group_algebra,
                          convolution_matrix, criterion_vs_determinant,
                          cyclotomic_polynomial, decide_diag_cyclic, determinant,
                          fourier_inversion_report, get_ring, idempotents_mod,
                          is_unit, is_unit_group_algebra, natural_iso_sweep, norm,
                          standard_fourier_ring, vandermonde_iso, FinAbGroup)


def zp(n, e, p):
    """n / p^e in Z[1/p], the conductor-1 ring."""
    return CycloElem(get_ring(1, p), (n,), e)


def _report_line(number, label, passed, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {label} ({elapsed:.1f}s, budget {budget}s)")


def test_acceptance_1_fourier_inversion():
    budget = 60.0
    start = time.perf_counter()
    ok = True
    for p, bound in ((2, 64), (3, 81), (5, 125)):
        report = fourier_inversion_report(p, bound)
        ok = ok and report.failed == 0
    elapsed = time.perf_counter() - start
    _report_line(1, "Fourier inversion, both composites on every basis vector",
                 ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_acceptance_2_natural_isomorphism_sweep():
    budget = 120.0
    start = time.perf_counter()
    ok = True
    for p, bound, natural in ((2, 64, 16), (3, 81, 27), (5, 125, None)):
        report = natural_iso_sweep(p, bound, hom_order_bound=natural)
        ok = ok and report.failed == 0
    elapsed = time.perf_counter() - start
    _report_line(2, "transform determinants are units; naturality squares commute",
                 ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_acceptance_3_criterion_equals_determinant_oracle():
    budget = 60.0
    start = time.perf_counter()
    ok = True
    for p, r in ((2, 1), (2, 2), (3, 1), (3, 2)):
        report = criterion_vs_determinant(p, r, samples=100, seed=20_000 + 10 * p + r)
        ok = ok and report.failed == 0
    elapsed = time.perf_counter() - start
    _report_line(3, "criterion verdict equals determinant verdict on 100 seeded tables",
                 ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_acceptance_4_gauss_identities():
    budget = 60.0
    start = time.perf_counter()
    ok = True
    for p, r in ((3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)):
        report = check_gauss_identities(p, r)
        ok = ok and report.failed == 0
    elapsed = time.perf_counter() - start
    _report_line(4, "Gauss-sum identities for N in {3,4,5,8,9,16,25,27}",
                 ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_acceptance_5_diagonalizability():
    budget = 30.0
    start = time.perf_counter()
    ok = True
    for n, m in ((4, 5), (2, 3), (3, 7), (6, 7)):
        verdict = decide_diag_cyclic(n, m)
        ok = ok and verdict.decision
        split = vandermonde_iso(n, m, verdict.witness)
        ok = ok and len(split.points) == n
    for n, m in ((4, 7), (3, 4), (2, 6)):
        ok = ok and not decide_diag_cyclic(n, m).decision
    ok = ok and count_idempotents_group_algebra(5, 4) == 16
    ok = ok and count_idempotents_group_algebra(7, 4) == 8
    elapsed = time.perf_counter() - start
    _report_line(5, "diagonalizability verdicts with verified splittings",
                 ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_acceptance_6_idempotent_standardization():
    budget = 30.0
    start = time.perf_counter()
    ok = True
    for m in range(2, 31):
        idems = idempotents_mod(m)
        for size in range(len(idems) + 1):
            for subset in itertools.combinations(idems, size):
                atoms = complete_idempotent_set(list(subset), m)
                if sum(atoms) % m != 1 % m:
                    ok = False
                for a, b in itertools.combinations(atoms, 2):
                    if a * b % m:
                        ok = False
    elapsed = time.perf_counter() - start
    _report_line(6, "idempotent refinement for every subset, every m <= 30",
                 ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget


def test_acceptance_7_ring_layer_soundness():
    budget = 30.0
    start = time.perf_counter()
    ok = True
    # cyclotomic product identity up to 64
    for n in range(1, 65):
        product = IntPolynomial([1])
        for d in range(1, n + 1):
            if n % d == 0:
                product = product * cyclotomic_polynomial(d)
        if product.coeffs != tuple([-1] + [0] * (n - 1) + [1]):
            ok = False
    # norm multiplicativity on random pairs
    rng = random.Random(77)
    for M, p in ((4, 2), (8, 2), (6, 3), (9, 3), (12, 2)):
        ring = get_ring(M, p)
        for _ in range(40):
            x = ring.element([zp(rng.randint(-5, 5), rng.randint(0, 1), p)
                              for _ in range(ring.degree)])
            y = ring.element([zp(rng.randint(-5, 5), rng.randint(0, 1), p)
                              for _ in range(ring.degree)])
            if norm(x * y) != norm(x) * norm(y):
                ok = False
    # unit test vs convolution-determinant oracle, >= 100 samples per group
    for exps, p in (((1,), 2), ((2,), 2), ((1, 1), 2), ((1,), 3), ((2,), 3)):
        group = FinAbGroup(p, exps)
        ring = standard_fourier_ring(group)
        for _ in range(100):
            coeffs = [ring.element([zp(rng.randint(-2, 2), 0, p)
                                    for _ in range(ring.degree)])
                      for _ in range(group.order)]
            x = AlgElem(group, ring, coeffs)
            if is_unit_group_algebra(x) != is_unit(determinant(convolution_matrix(x))):
                ok = False
    elapsed = time.perf_counter() - start
    _report_line(7, "cyclotomic product identity; norm multiplicativity; unit oracles",
                 ok and elapsed < budget, elapsed, budget)
    assert ok
    assert elapsed < budget
