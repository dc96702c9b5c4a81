"""Unit-group structure, character evaluation, primitivity, Gauss sums."""

import math

import pytest

from cyclofourier import (Character, UnitGroupStructure, chargauss, check_gauss_identities,
                          enumerate_characters, euler_phi, gauss_sum, get_ring, is_primitive,
                          is_unit, standard_ring, unit_group_generators, units_mod)


def test_unit_group_generators():
    s = unit_group_generators(3, 2)
    assert s.generators == ((2, 6),)
    s = unit_group_generators(2, 2)
    assert s.generators == ((3, 2),)
    s = unit_group_generators(2, 3)
    assert s.generators == ((7, 2), (5, 2))
    assert unit_group_generators(2, 1).generators == ()
    # the discrete-log table covers the whole unit group
    for p, r in ((2, 4), (3, 3), (5, 2)):
        s = unit_group_generators(p, r)
        assert set(s.dlog) == set(units_mod(p ** r))


def test_standard_ring_policy():
    assert standard_ring(2, 1).conductor == 4
    assert standard_ring(2, 3).conductor == 8
    assert standard_ring(3, 2).conductor == 18
    assert standard_ring(5, 1).conductor == 20


def test_enumerate_characters_counts():
    assert len(enumerate_characters(2, 1, standard_ring(2, 1))) == 1
    assert len(enumerate_characters(3, 1, standard_ring(3, 1))) == 2
    assert len(enumerate_characters(2, 3, standard_ring(2, 3))) == 4
    for p, r in ((2, 4), (3, 2), (5, 2)):
        chars = enumerate_characters(p, r, standard_ring(p, r))
        assert len(chars) == euler_phi(p ** r)
        assert len(set(chars)) == len(chars)


def test_characters_on_other_generators_are_distinct():
    # chi(2) = zeta^5 on the generator 2 of (Z/5)^x, but -zeta^5 on the generator 3
    ring = standard_ring(5, 1)
    on_2 = Character(UnitGroupStructure(5, 1, [(2, 4)]), (1,), ring)
    on_3 = Character(UnitGroupStructure(5, 1, [(3, 4)]), (1,), ring)
    assert (on_2.eval(2), on_3.eval(2)) == (ring.zeta(5), -ring.zeta(5))
    assert on_2 != on_3 and hash(on_2) != hash(on_3)
    # equal enumerations still give equal, equal-hashing characters
    for p, r in ((2, 3), (3, 2), (5, 1)):
        first, second = (enumerate_characters(p, r, standard_ring(p, r)) for _ in range(2))
        assert first == second and list(map(hash, first)) == list(map(hash, second))


def test_conductor_too_small_rejected():
    with pytest.raises(ValueError):
        enumerate_characters(3, 2, get_ring(3, 3))  # needs 6th roots of unity


def test_char_eval_basics_and_multiplicativity():
    ring = standard_ring(3, 1)
    trivial, quad = enumerate_characters(3, 1, ring)
    assert trivial.is_trivial()
    assert quad.eval(2) == ring.from_int(-1)
    for chi in (trivial, quad):
        assert chi.eval(1) == ring.one
    with pytest.raises(ValueError):
        quad.eval(3)
    for p, r in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        N = p ** r
        ring = standard_ring(p, r)
        for chi in enumerate_characters(p, r, ring):
            for s in units_mod(N):
                for t in units_mod(N):
                    assert chi.eval(s * t) == chi.eval(s) * chi.eval(t)


def test_primitivity_rule_against_factorization_oracle():
    ring = standard_ring(3, 1)
    trivial, quad = enumerate_characters(3, 1, ring)
    assert not is_primitive(trivial)
    assert is_primitive(quad)
    for p, r in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3)):
        N = p ** r
        low = p ** (r - 1)
        ring = standard_ring(p, r)
        primitive_count = 0
        for chi in enumerate_characters(p, r, ring):
            # oracle: chi factors through the lower level iff its value depends
            # only on the residue mod p^(r-1)
            factors = all(chi.eval(s) == chi.eval(t)
                          for s in units_mod(N) for t in units_mod(N)
                          if (s - t) % low == 0)
            assert is_primitive(chi) == (not factors)
            primitive_count += is_primitive(chi)
        assert primitive_count == euler_phi(N) - euler_phi(low)


def test_gauss_sum_trivial_character_level_one():
    for p in (2, 3, 5):
        ring = standard_ring(p, 1)
        trivial = enumerate_characters(p, 1, ring)[0]
        assert gauss_sum(trivial, u=0) == ring.from_int(p - 1)
        for u in range(1, p):
            assert gauss_sum(trivial, u=u) == -ring.one


def test_gauss_sum_quadratic_mod_three():
    ring = standard_ring(3, 1)  # conductor 6: zeta_3 = zeta^2
    quad = enumerate_characters(3, 1, ring)[1]
    value = gauss_sum(quad, u=1)
    assert value == ring.zeta(2) - ring.zeta(4)
    assert is_unit(value)


def _gauss_sum_from_table(chi, tau):
    """sum over units t of chi(t) * tau[t], one ring product per term."""
    ring = chi.ring
    acc = ring.zero
    for t in units_mod(chi.modulus):
        acc = acc + chi.eval(t) * tau[t % chi.modulus]
    return acc


def test_gauss_sum_explicit_tau_table():
    ring = standard_ring(3, 1)
    quad = enumerate_characters(3, 1, ring)[1]
    tau = [ring.zeta(2 * t) for t in range(3)]  # the canonical additive character
    assert _gauss_sum_from_table(quad, tau) == gauss_sum(quad, u=1)
    # the value-row path against chi.eval times explicit additive characters
    for p, max_r in ((2, 5), (3, 3), (5, 2)):
        for r in range(1, max_r + 1):
            N = p ** r
            ring = standard_ring(p, r)
            scale = ring.conductor // N
            for chi in enumerate_characters(p, r, ring):
                for u in range(N):
                    tau = [ring.zeta(u * t * scale) for t in range(N)]
                    assert gauss_sum(chi, u=u) == _gauss_sum_from_table(chi, tau), (chi, u)


def test_character_sum_vanishes_for_nontrivial():
    for p, r in ((2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
        ring = standard_ring(p, r)
        for chi in enumerate_characters(p, r, ring):
            total = gauss_sum(chi, u=0)  # sum of chi over the units
            if chi.is_trivial():
                assert total == ring.from_int(euler_phi(p ** r))
            else:
                assert not total


def test_gauss_identity_reports_small_levels():
    for p, r in ((3, 1), (2, 2), (3, 2), (2, 3)):
        report = check_gauss_identities(p, r)
        assert report.failed == 0, report.failures()
        assert len(report.checks) == euler_phi(p ** r) * p ** r


def test_primitive_gauss_sums_are_units_with_twist():
    # unit-ness and the twist relation, directly at N = 9
    ring = standard_ring(3, 2)
    for chi in enumerate_characters(3, 2, ring):
        if not is_primitive(chi):
            continue
        base = gauss_sum(chi, u=1)
        assert is_unit(base)
        for u in units_mod(9):
            expected = chi.eval(pow(u, -1, 9)) * base
            assert gauss_sum(chi, u=u) == expected
        for u in (0, 3, 6):
            assert not gauss_sum(chi, u=u)


def _unit_twist_oracle(p, r):
    """(id, pass, witness) of each primitive coprime check, with a norm per twisted sum."""
    N = p ** r
    ring = standard_ring(p, r)
    out = []
    for chi in enumerate_characters(p, r, ring):
        if not is_primitive(chi):
            continue
        base = gauss_sum(chi, u=1)
        for u in units_mod(N):
            value = gauss_sum(chi, u=u)
            ok = is_unit(value) and value == chi.eval(pow(u, -1, N)) * base
            out.append((f"N{N}-{chi.label()}-u{u}", ok, {"sum": value.coeff_strings()}))
    return out


def _unit_twist_checks(report):
    return [(c.id, c.passed, c.witness) for c in report.checks
            if c.subject.endswith(": unit and twist relation")]


@pytest.mark.parametrize("p, r", [(2, r) for r in range(1, 6)]
                         + [(3, r) for r in range(1, 4)] + [(5, 1), (5, 2)])
def test_one_norm_per_character_matches_a_norm_per_twisted_sum(p, r):
    oracle = _unit_twist_oracle(p, r)
    assert _unit_twist_checks(check_gauss_identities(p, r)) == oracle
    assert all(ok for _, ok, _ in oracle) and (len(oracle) > 0) == (p ** r > 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lower_level_sum_matches_a_ring_sum_over_the_lower_units(p):
    # G(chi, eps_u') at level p^(r-1) = sum over its units t of chi(t) zeta^(u' t M/p^(r-1))
    for r in range(1, 4):
        ring = standard_ring(p, r)
        N_low = p ** (r - 1)
        scale = ring.conductor // N_low
        for chi in enumerate_characters(p, r, ring):
            if is_primitive(chi):
                continue
            for u_prime in range(N_low):
                expected = ring.zero
                for t in units_mod(N_low):
                    expected = expected + chi.eval(t) * ring.zeta(u_prime * t * scale)
                assert chargauss._gauss_sum_lower(chi, u_prime) == expected, (chi, u_prime)


def test_unit_flag_of_the_base_sum_is_consulted(monkeypatch):
    monkeypatch.setattr(chargauss, "is_unit", lambda x: False)
    for p, r in ((2, 3), (3, 2), (5, 1)):
        report = check_gauss_identities(p, r)
        twists = _unit_twist_checks(report)
        assert twists and not any(ok for _, ok, _ in twists)
        assert report.failed == len(twists)


@pytest.mark.parametrize("p, max_r", [(2, 3), (3, 3), (5, 2)])
def test_gauss_table_decides_each_distinct_value_once(monkeypatch, p, max_r):
    decided = []
    real_unit = chargauss.is_unit

    def counting_unit(x):
        decided.append(x)
        return real_unit(x)

    monkeypatch.setattr(chargauss, "is_unit", counting_unit)
    rows = list(chargauss.gauss_table_rows(p, max_r))
    monkeypatch.undo()
    # the oracle takes one norm per row
    assert all(flag == is_unit(value) for _, _, _, value, flag in rows)
    # one decision per character's base sum, and one per distinct value of the
    # rows with p | u at each level (the twisted rows take their base's flag)
    multiples = {(N, value.nums, value.exp) for N, _, u, value, _ in rows if u % p == 0}
    characters = sum(euler_phi(p ** r) for r in range(1, max_r + 1))
    assert len(decided) == characters + len(multiples)
