"""Group, dual, pairing, and homomorphism tests."""

import itertools
import random

import pytest

from cyclofourier import (BudgetExceeded, DualElem, FinAbGroup, GroupElem, GroupHom,
                          PadicCircle, dual_elements, dual_hom, element_index,
                          elements, enumerate_groups, enumerate_homs, hom_count,
                          pairing, pairing_numerators)
from cyclofourier.finab import _require_sweep_hom_budget, _top_exponent, hom_entry_choices


def G(p, *exps):
    return FinAbGroup(p, tuple(exps))


def test_group_validation_and_basics():
    g = G(2, 2, 1)
    assert g.order == 8
    assert g.exponent_value == 4
    assert g.notation() == "4+2"
    assert G(3).notation() == "1"
    assert g.factor_orders == (4, 2)
    # Equal groups built separately: equal, same hash, one dict key, same repr.
    h = FinAbGroup(2, [2, 1])
    assert h == g and hash(h) == hash(g) and {g: 1}[h] == 1
    assert h.factor_orders == g.factor_orders and h.factor_orders is not g.factor_orders
    assert repr(g) == "FinAbGroup(prime=2, exponents=(2, 1))"
    assert G(2, 2) != g and G(3, 2, 1) != g
    with pytest.raises(ValueError):
        G(2, 1, 2)  # not sorted
    with pytest.raises(ValueError):
        G(2, 0)


def test_elements_lexicographic():
    g = G(2, 1, 1)
    assert [e.coords for e in elements(g)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [e.coords for e in elements(G(5))] == [()]
    for grp in (G(2, 2), G(3, 1, 1), G(2, 3, 1)):
        assert len(elements(grp)) == grp.order
        for i, e in enumerate(elements(grp)):
            assert element_index(grp, e.coords) == i


def test_element_arithmetic_bounds():
    g = G(2, 2)
    a = GroupElem(g, (3,))
    b = GroupElem(g, (2,))
    assert (a + b).coords == (1,)
    assert (a - b).coords == (1,)
    assert (-a).coords == (1,)
    with pytest.raises(ValueError):
        GroupElem(g, (4,))
    with pytest.raises(ValueError):
        a + GroupElem(G(2, 1), (1,))


def test_dual_elements_share_the_coordinate_check_but_never_equal_elements():
    for grp in (G(2, 2), G(3, 1, 1), G(2, 3, 1)):
        els, duals = elements(grp), dual_elements(grp)
        assert [l.coords for l in duals] == [v.coords for v in els]
        assert all(v != l and l != v for v, l in zip(els, duals))
        assert len(set(els) | set(duals)) == 2 * grp.order
    for kind in (GroupElem, DualElem):
        for coords, message in (((4,), "out of range"), ((0, 0), "count mismatch")):
            with pytest.raises(ValueError, match=message):
                kind(G(2, 2), coords)
    assert not hasattr(DualElem(G(2, 2), (1,)), "__add__")


def test_circle_normalization():
    x = PadicCircle(2, 2, 2)  # 2/4 = 1/2
    assert (x.numerator, x.level) == (1, 1)
    assert PadicCircle(2, 4, 2).is_zero()
    assert PadicCircle(3, 0, 5) == PadicCircle.zero(3)
    assert str(PadicCircle(2, 3, 3)) == "3/2^3"
    assert str(PadicCircle.zero(2)) == "0"


def test_circle_group_laws_exhaustive():
    p, level = 2, 3
    pts = [PadicCircle(p, a, level) for a in range(p ** level)]
    zero = PadicCircle.zero(p)
    for x in pts:
        assert x + zero == x
        assert x + (-x) == zero
        for y in pts:
            assert x + y == y + x
            for z in pts:
                assert (x + y) + z == x + (y + z)
    # normalized form determines the value
    assert PadicCircle(2, 1, 1) == PadicCircle(2, 2, 2)


def test_pairing_examples():
    g4 = G(2, 2)
    v = GroupElem(g4, (1,))
    l = DualElem(g4, (1,))
    assert pairing(v, l) == PadicCircle(2, 1, 2)
    assert pairing(GroupElem(g4, (0,)), l).is_zero()
    g22 = G(2, 1, 1)
    assert pairing(GroupElem(g22, (1, 1)), DualElem(g22, (1, 1))).is_zero()
    with pytest.raises(ValueError):
        pairing(v, DualElem(g22, (0, 0)))


def test_pairing_biadditive_exhaustive():
    for grp in (G(2, 2, 1), G(2, 1, 1), G(3, 1, 1), G(2, 4)):
        if grp.order > 16:
            continue
        els = elements(grp)
        duals = dual_elements(grp)
        for v, w in itertools.product(els, repeat=2):
            for l in duals:
                assert pairing(v + w, l) == pairing(v, l) + pairing(w, l)
        for v in els:
            for i, l in enumerate(duals):
                for m in duals:
                    summed = DualElem(grp, tuple((a + b) % n for a, b, n in
                                                 zip(l.coords, m.coords,
                                                     grp.factor_orders)))
                    assert pairing(v, summed) == pairing(v, l) + pairing(v, m)


def test_pairing_nondegenerate_up_to_64():
    for p in (2, 3, 5):
        for grp in enumerate_groups(p, 64):
            els = elements(grp)
            duals = dual_elements(grp)
            for v in els:
                if not v.is_zero():
                    assert any(not pairing(v, l).is_zero() for l in duals)
            for l in duals:
                if not l.is_zero():
                    assert any(not pairing(v, l).is_zero() for v in els)


def test_pairing_numerators_match_the_per_entry_formula():
    # table[i][j] = sum_k v_k * l_k * p^(e_1 - e_k) mod p^(e_1), entry by entry
    for p, max_order in ((2, 64), (3, 81), (5, 125)):
        for grp in enumerate_groups(p, max_order):
            els = [e.coords for e in elements(grp)]
            if not grp.exponents:
                assert pairing_numerators(grp) == ((0,),)
                continue
            e1 = grp.exponents[0]
            weights = [p ** (e1 - e) for e in grp.exponents]
            expected = tuple(tuple(sum(a * b * w for a, b, w in zip(v, l, weights)) % p ** e1
                                   for l in els) for v in els)
            assert pairing_numerators(grp) == expected, grp


def test_double_dual_is_a_bijection():
    # match each v against the unique functional on the dual it induces
    for p in (2, 3, 5):
        for grp in enumerate_groups(p, 64):
            table = pairing_numerators(grp)
            n = grp.order
            rows = [tuple(table[v][l] for l in range(n)) for v in range(n)]
            cols = [tuple(table[v][l] for v in range(n)) for l in range(n)]
            for v in range(n):
                matches = [w for w in range(n) if rows[v] == cols[w]]
                assert matches == [v]


def test_dual_hom_examples():
    g2, g4 = G(2, 1), G(2, 2)
    f = GroupHom(g2, g4, [[2]])
    fs = dual_hom(f)
    assert fs.source == g4 and fs.target == g2
    assert fs.matrix == ((1,),)
    ident = GroupHom(G(2, 2, 1), G(2, 2, 1), [[1, 0], [0, 1]])
    assert dual_hom(ident) == ident


def test_dual_hom_pairing_identity_small():
    rng = random.Random(301)
    groups = [G(2, 1), G(2, 2), G(2, 1, 1), G(2, 3), G(2, 2, 1), G(3, 1), G(3, 2)]
    for V in groups:
        for W in groups:
            if V.prime != W.prime:
                continue
            for f in enumerate_homs(V, W):
                fs = dual_hom(f)
                for v in elements(V):
                    for l in dual_elements(W):
                        assert pairing(f.apply(v), l) == pairing(v, fs.apply_dual(l))


def test_dual_hom_pairing_identity_exhaustive_up_to_16():
    # same identity, all homs between all groups of order <= 16, on index tables
    for p in (2, 3):
        groups = enumerate_groups(p, 16)
        tables = {g: pairing_numerators(g) for g in groups}
        levels = {g: (g.exponents[0] if g.exponents else 0) for g in groups}
        for V in groups:
            for W in groups:
                emax = max(levels[V], levels[W])
                mod = p ** emax
                sv = p ** (emax - levels[V])
                sw = p ** (emax - levels[W])
                nv = [[t * sv % mod for t in row] for row in tables[V]]
                nw = [[t * sw % mod for t in row] for row in tables[W]]
                els_v = elements(V)
                dual_w = dual_elements(W)
                for f in enumerate_homs(V, W):
                    fv = [element_index(W, f._apply_coords(v.coords)) for v in els_v]
                    fs = dual_hom(f)
                    fsl = [element_index(V, fs._apply_coords(l.coords)) for l in dual_w]
                    for v in range(V.order):
                        row_w = nw[fv[v]]
                        row_v = nv[v]
                        assert all(row_w[l] == row_v[fsl[l]] for l in range(W.order))


def compose(g, f):
    """The composite g o f, by the matrix product of the two homs."""
    inner = range(len(f.target.exponents))
    return GroupHom(f.source, g.target,
                    [[sum(row[k] * f.matrix[k][j] for k in inner)
                      for j in range(len(f.source.exponents))] for row in g.matrix])


def test_dual_hom_contravariant_on_composites():
    rng = random.Random(302)
    groups = [G(2, 1), G(2, 2), G(2, 1, 1), G(2, 2, 1)]
    for _ in range(40):
        A, B, C = (rng.choice(groups) for _ in range(3))
        homs_ab = list(enumerate_homs(A, B))
        homs_bc = list(enumerate_homs(B, C))
        f = rng.choice(homs_ab)
        g = rng.choice(homs_bc)
        assert dual_hom(compose(g, f)) == compose(dual_hom(f), dual_hom(g))


def test_hom_validation():
    with pytest.raises(ValueError):
        GroupHom(G(2, 1), G(2, 2), [[1]])  # 2*1 != 0 mod 4
    f = GroupHom(G(2, 1), G(2, 2), [[2]])
    assert f.apply(GroupElem(G(2, 1), (1,))).coords == (2,)
    z = GroupHom(G(2, 2), G(2, 1, 1), [[0], [0]])
    assert all(z.apply(v).is_zero() for v in elements(G(2, 2)))


def test_trusted_homs_equal_validated_homs():
    # enumerate_homs and dual_hom skip GroupHom's validation; every hom they
    # build must equal the validated hom on the same matrix.
    for p, bound in ((2, 16), (3, 27)):
        groups = enumerate_groups(p, bound)
        for V in groups:
            for W in groups:
                for f in enumerate_homs(V, W):
                    checked = GroupHom(V, W, f.matrix)
                    assert f == checked and f._moduli == checked._moduli
                    fs = dual_hom(f)
                    checked = GroupHom(W, V, fs.matrix)
                    assert fs == checked and fs._moduli == checked._moduli
                    assert all(type(row) is tuple for row in fs.matrix)


def test_enumerate_groups():
    got = [g.exponents for g in enumerate_groups(2, 4)]
    assert got == [(), (1,), (2,), (1, 1)]
    assert [g.exponents for g in enumerate_groups(3, 1)] == [()]
    assert len(enumerate_groups(2, 8)) == 7
    orders = [g.order for g in enumerate_groups(2, 8)]
    assert orders == sorted(orders)


def test_enumerate_homs_counts():
    assert len(list(enumerate_homs(G(2, 1), G(2, 1)))) == 2
    assert len(list(enumerate_homs(G(2), G(2, 2, 1)))) == 1
    assert len(list(enumerate_homs(G(2, 2), G(2, 1)))) == 2
    V, W = G(2, 2, 1), G(2, 1, 1)
    homs = list(enumerate_homs(V, W))
    assert len(homs) == hom_count(V, W) == 2 ** 4
    assert len(set(homs)) == len(homs)


def test_enumerate_homs_walks_the_product_of_the_entry_choices():
    # The naturality sweep zips this product with enumerate_homs: the order must agree.
    for p, bound in ((2, 8), (3, 9)):
        groups = enumerate_groups(p, bound)
        for V in groups:
            for W in groups:
                flat = [sum(f.matrix, ()) for f in enumerate_homs(V, W)]
                assert list(itertools.product(*hom_entry_choices(V, W))) == flat


def test_dual_hom_rejects_an_ill_defined_hom():
    # Z/2 -> Z/4 must send the generator into 2Z/4; the unchecked entry 1 does not.
    f = GroupHom._trusted(G(2, 1), G(2, 2), ((1,),))
    with pytest.raises(ArithmeticError, match="well-definedness"):
        dual_hom(f)


def test_enumerate_homs_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_homs(G(2, 1, 1, 1, 1), G(2, 1, 1, 1, 1), limit=100))


def test_sweep_hom_budget_is_the_largest_pair_without_listing_groups():
    # among the groups of order <= p^s, (Z/p)^s to itself has the most homs, p^(s^2)
    for p, max_order in ((2, 1), (2, 16), (2, 40), (3, 27), (3, 100), (5, 25)):
        groups = enumerate_groups(p, max_order)
        s = _top_exponent(p, max_order)
        assert max(g.order for g in groups) == p ** s <= max_order < p ** (s + 1)
        most = max(hom_count(V, W) for V in groups for W in groups)
        assert most == p ** (s * s)
        _require_sweep_hom_budget(p, max_order, most)
        with pytest.raises(BudgetExceeded, match=f"exceed the bound {most - 1}$"):
            _require_sweep_hom_budget(p, max_order, most - 1)
