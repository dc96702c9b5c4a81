"""Decision procedure over Z/m, Vandermonde splitting, idempotent machinery."""

import itertools
import random

import pytest

from cyclofourier import (BudgetExceeded, SplitVerificationError,
                          complete_idempotent_set, count_idempotents_group_algebra,
                          decide_diag_cyclic, idempotents_mod, vandermonde_iso)


def test_decide_cyclic_positive_cases():
    v = decide_diag_cyclic(4, 5)
    assert v.decision and v.witness == 2
    v = decide_diag_cyclic(2, 3)
    assert v.decision and v.witness == 2
    v = decide_diag_cyclic(3, 7)
    assert v.decision and v.witness == 2
    v = decide_diag_cyclic(6, 7)
    assert v.decision and v.witness == 3
    v = decide_diag_cyclic(1, 11)
    assert v.decision and v.witness == 1


def test_decide_cyclic_negative_cases():
    v = decide_diag_cyclic(4, 7)
    assert not v.decision and v.reason == "no-cyclotomic-root"
    v = decide_diag_cyclic(3, 4)
    assert not v.decision and v.reason == "no-cyclotomic-root"
    v = decide_diag_cyclic(2, 6)
    assert not v.decision and v.reason == "n-not-invertible"
    assert v.to_json() == {"decision": False, "reason": "n-not-invertible"}


def test_vandermonde_examples():
    split = vandermonde_iso(4, 5, 2)
    assert split.points == (1, 2, 4, 3)
    assert split.matrix.to_json()[1] == [1, 2, 4, 3]
    split = vandermonde_iso(2, 3, 2)
    assert split.matrix.to_json() == [[1, 1], [1, 2]]
    assert split.det == 1
    split = vandermonde_iso(1, 12, 1)
    assert split.matrix.to_json() == [[1]]


def test_vandermonde_follows_every_positive_verdict():
    for n in range(1, 9):
        for m in range(2, 26):
            verdict = decide_diag_cyclic(n, m)
            if verdict.decision:
                split = vandermonde_iso(n, m, verdict.witness)
                assert len(split.points) == n


def test_vandermonde_rejects_a_non_root():
    with pytest.raises(SplitVerificationError):
        vandermonde_iso(4, 5, 1)  # 1 is not a root of X^2 + 1 mod 5


def test_evaluation_is_a_morphism_under_the_splitting():
    # evaluating polynomials mod X^n - 1 at the root powers is multiplicative
    rng = random.Random(501)
    n, m, xi = 4, 5, 2
    points = [pow(xi, i, m) for i in range(n)]

    def poly_eval(coeffs, x):
        return sum(c * pow(x, k, m) for k, c in enumerate(coeffs)) % m

    def cyclic_mul(a, b):
        out = [0] * n
        for i, c in enumerate(a):
            for j, d in enumerate(b):
                out[(i + j) % n] = (out[(i + j) % n] + c * d) % m
        return out

    for _ in range(50):
        f = [rng.randrange(m) for _ in range(n)]
        g = [rng.randrange(m) for _ in range(n)]
        fg = cyclic_mul(f, g)
        for x in points:
            assert poly_eval(fg, x) == poly_eval(f, x) * poly_eval(g, x) % m


def test_complete_idempotent_set_examples():
    assert complete_idempotent_set([], 7) == (1,)
    assert complete_idempotent_set([0, 1], 7) == (1,)
    assert complete_idempotent_set([3], 6) == (3, 4)
    with pytest.raises(ValueError):
        complete_idempotent_set([2], 6)


def test_complete_idempotent_set_exhaustive_small():
    for m in range(2, 19):
        idems = idempotents_mod(m)
        for size in range(len(idems) + 1):
            for subset in itertools.combinations(idems, size):
                atoms = complete_idempotent_set(list(subset), m)
                assert sum(atoms) % m == 1 % m
                for a, b in itertools.combinations(atoms, 2):
                    assert a * b % m == 0


def test_idempotent_counts():
    assert count_idempotents_group_algebra(7, 1) == 2
    assert count_idempotents_group_algebra(5, 4) == 16
    assert count_idempotents_group_algebra(7, 4) == 8
    with pytest.raises(BudgetExceeded):
        count_idempotents_group_algebra(10, 9)


def test_verdict_matches_idempotent_count_oracle():
    # diagonalizable iff the idempotent count reaches (#idempotents of Z/m)^n
    cases = [(n, m) for n in range(1, 5) for m in range(2, 12) if m ** n <= 10 ** 5]
    seen_true = seen_false = 0
    for n, m in cases:
        verdict = decide_diag_cyclic(n, m).decision
        expected = len(idempotents_mod(m)) ** n
        actual = count_idempotents_group_algebra(m, n)
        assert verdict == (actual == expected), (n, m, actual, expected)
        seen_true += verdict
        seen_false += not verdict
    assert seen_true and seen_false
