"""Circle functions, the three-condition criterion, determinant oracle, naturality."""

import hashlib
import random

import pytest

from cyclofourier import (CircleFunction, FinAbGroup, GroupHom, PadicCircle,
                          circle_points, criterion_vs_determinant,
                          dual_hom, enumerate_groups, enumerate_homs, get_ring,
                          invertibility_criterion, is_unit, isoverify,
                          matrix_is_invertible, natural_iso_sweep, naturality_check,
                          naturality_sweep, pairing_numerators, random_table_function,
                          standard_ring, transform_matrix)
from cyclofourier.cli import main
from cyclofourier.matrix import RingMatrix, determinant


def G(p, *exps):
    return FinAbGroup(p, tuple(exps))


def test_spike_values():
    fn = CircleFunction.spike(2)
    ring = fn.ring
    assert ring == get_ring(1, 2) and fn.prime == 2
    assert fn.value_at(PadicCircle.zero(2)) == ring.one
    assert fn.value_at(PadicCircle(2, 1, 2)) == ring.from_int(2)
    fn3 = CircleFunction.spike(3)
    ring3 = fn3.ring
    assert fn3.value_at(PadicCircle(3, 2, 1)) == ring3.one
    assert fn3.value_at(PadicCircle(3, 1, 5)) == ring3.from_int(2)


def test_table_function_validation():
    ring = standard_ring(2, 1)
    points = circle_points(2, 1)
    table = CircleFunction.table(1, {pt: ring.one for pt in points}, ring)
    assert table.value_at(points[0]) == ring.one
    assert table.prime == 2 and table.ring == ring
    with pytest.raises(ValueError):
        table.value_at(PadicCircle(2, 1, 2))  # beyond the level
    with pytest.raises(ValueError):
        table.value_at(PadicCircle(3, 1, 1))  # another prime
    with pytest.raises(ValueError):
        CircleFunction.table(1, {points[0]: ring.one}, ring)  # not total
    with pytest.raises(ValueError):
        CircleFunction.table(1, {pt: get_ring(8, 2).one for pt in points}, ring)  # wrong ring
    ring3 = get_ring(4, 3)  # inverts 3, not 2: the 2-torsion points are not its circle
    with pytest.raises(ValueError):
        CircleFunction.table(1, {pt: ring3.one for pt in points}, ring3)


def test_criterion_spike_all_witnesses_one():
    for p in (2, 3, 5):
        report = invertibility_criterion(CircleFunction.spike(p), 3)
        ring = standard_ring(p, 3)
        assert report.overall
        assert report.condition1 and report.witness1 == ring.one
        assert report.condition2 and report.witness2 == ring.one
        assert report.condition3  # primitive characters exist for every p at level >= 2
        for _, _, value, ok in report.condition3:
            assert ok and value == ring.one


def test_criterion_constant_function_fails_condition_two():
    p = 3
    ring = standard_ring(p, 1)
    ones = {pt: ring.one for pt in circle_points(p, 1)}
    fn = CircleFunction.table(1, ones, ring)
    report = invertibility_criterion(fn, 1)
    assert report.condition1
    assert not report.condition2
    assert not report.overall


def test_criterion_value_p_at_zero_passes_condition_one():
    p = 2
    ring = standard_ring(p, 1)
    values = {pt: (ring.from_int(p) if pt.is_zero() else ring.zero)
              for pt in circle_points(p, 1)}
    fn = CircleFunction.table(1, values, ring)
    report = invertibility_criterion(fn, 1)
    assert report.condition1  # p is invertible in Z[1/p]


def test_criterion_of_root_table_and_zero_table():
    # the canonical root-of-unity table gives an invertible transform ...
    p, r = 2, 2
    ring = standard_ring(p, r)
    M = ring.conductor
    values = {}
    for pt in circle_points(p, r):
        values[pt] = ring.zeta(pt.numerator * (M // p ** pt.level) % M)
    fn = CircleFunction.table(r, values, ring)
    assert invertibility_criterion(fn, r).overall
    assert matrix_is_invertible(G(p, r), fn)
    # ... and the zero table gives nothing
    zero_fn = CircleFunction.table(r, {pt: ring.zero for pt in circle_points(p, r)},
                                   ring)
    assert not invertibility_criterion(zero_fn, r).overall
    assert not matrix_is_invertible(G(p, r), zero_fn)


def test_matrix_is_invertible_examples():
    fn = CircleFunction.spike(2)
    ring = fn.ring
    assert matrix_is_invertible(G(2), fn)
    two_by_two = transform_matrix(G(2, 1), fn)
    assert [[e.nums[0] for e in two_by_two.row(i)] for i in range(2)] == [[1, 1], [1, 2]]
    assert determinant(two_by_two) == ring.one
    assert matrix_is_invertible(G(2, 2), fn)


def test_transform_level_guard():
    p, r = 2, 1
    fn = random_table_function(p, r, random.Random(1))
    with pytest.raises(ValueError):
        transform_matrix(G(2, 2), fn)  # exponent 4 beyond table level 1


def test_functions_undefined_on_a_group_are_refused_up_front():
    # The naturality fast path never evaluates fn, and a zero hom pairs to 0
    # alone, so only the up-front check refuses these.
    level_one = random_table_function(2, 1, random.Random(1))
    cases = [(CircleFunction.spike(3), G(2, 1)),  # another prime
             (level_one, G(2, 2))]  # exponent 4 beyond table level 1
    for fn, group in cases:
        with pytest.raises(ValueError):
            naturality_sweep(2, 4, fn)
        with pytest.raises(ValueError):
            naturality_check(GroupHom(group, group, [[0]]), fn)
        with pytest.raises(ValueError):
            transform_matrix(group, fn)


def test_criterion_vs_determinant_small_runs():
    report = criterion_vs_determinant(2, 2, samples=30, seed=5, extra_groups=2)
    assert report.failed == 0, [c for c in report.checks if not c.passed]
    report = criterion_vs_determinant(3, 2, samples=6, seed=6, extra_groups=2)
    assert report.failed == 0, [c for c in report.checks if not c.passed]
    # byte-identical reports for identical seeds
    again = criterion_vs_determinant(3, 2, samples=6, seed=6, extra_groups=2)
    assert report.to_json() == again.to_json()


def test_criterion_oracle_report_bytes_and_one_verdict_per_distinct_group(tmp_path,
                                                                         monkeypatch):
    calls = []
    real = isoverify.matrix_is_invertible

    def counting(group, fn):
        calls.append(group)
        return real(group, fn)

    monkeypatch.setattr(isoverify, "matrix_is_invertible", counting)
    target = tmp_path / "report.json"
    argv = ["verify", "criterion-oracle", "--p", "3", "--r", "2", "--samples", "40",
            "--seed", "1729", "--output", str(target)]
    assert main(argv) == 0
    # The SHA-256 of this report as stored for the benchmark's criterion workload.
    assert hashlib.sha256(target.read_bytes()).hexdigest() == (
        "f459941c78cdf0c21b66ce17316bdf8f188db2cdb22b6ca776fa9e943d122b0a")
    # Z/9 once per sample, plus each distinct extra group a sample draws.
    assert len(calls) == 71


def test_condition_two_matches_level_one_transform_verdict():
    # level-1 imprimitive twist: the hat-sum over units and the increment sum
    # have the same unit verdict (they differ by a unit factor)
    rng = random.Random(407)
    for p in (2, 3, 5):
        ring = standard_ring(p, 1)
        M = ring.conductor
        for _ in range(25):
            fn = random_table_function(p, 1, rng)
            report = invertibility_criterion(fn, 1)
            alpha = {t: fn.value_at(PadicCircle(p, t, 1)) for t in range(p)}
            hat_sum = ring.zero
            for t in range(1, p):
                acc = ring.zero
                for x in range(p):
                    acc = acc + alpha[x] * ring.zeta((-x * t * (M // p)) % M)
                hat_sum = hat_sum + acc
            assert is_unit(hat_sum) == report.condition2


def test_naturality_examples():
    fn = CircleFunction.spike(2)
    V = G(2, 2)
    assert naturality_check(GroupHom(V, V, [[1]]), fn)
    assert naturality_check(GroupHom(V, G(2, 1, 1), [[0], [0]]), fn)
    homs = list(enumerate_homs(G(2, 2), G(2, 1, 1)))
    assert len(homs) == 4
    for f in homs:
        assert naturality_check(f, fn)


def test_naturality_sweep_small():
    report = naturality_sweep(3, 9)
    assert report.failed == 0
    assert all(c.witness["homs"] >= 1 for c in report.checks)


def _oracle_pair(V, W, fn):
    """(pass, homs, witness) from the entrywise check on each hom in turn."""
    count = 0
    for f in enumerate_homs(V, W):
        count += 1
        if not naturality_check(f, fn):
            return False, count, {"hom": [list(r) for r in f.matrix],
                                  "source": V.notation(), "target": W.notation()}
    return True, count, None


def _sweep_results(p, max_order, fn):
    report = naturality_sweep(p, max_order, fn)
    return [(c.passed, c.witness["homs"], c.witness.get("failure")) for c in report.checks]


def _oracle_results(p, max_order, fn):
    groups = enumerate_groups(p, max_order)
    return [_oracle_pair(V, W, fn) for V in groups for W in groups]


# every group pair up to these orders; r is the largest exponent among them
DIFFERENTIAL = ((2, 8, 3), (3, 9, 2))


def _naturality_functions(p, r):
    """The spike, a seeded random table and a constant table."""
    ring = standard_ring(p, r)
    constant = {x: ring.from_int(3) for x in circle_points(p, r)}
    return [("spike", CircleFunction.spike(p)),
            ("random", random_table_function(p, r, random.Random(50 + p))),
            ("constant", CircleFunction.table(r, constant, ring))]


def test_naturality_sweep_matches_entrywise_oracle(monkeypatch):
    # With the real adjoint the generator identity always holds: no fallback.
    def no_fallback(f, fn):
        raise AssertionError(f"generator identity failed for a correct adjoint: {f}")

    monkeypatch.setattr(isoverify, "naturality_check", no_fallback)
    for p, max_order, r in DIFFERENTIAL:
        for _, fn in _naturality_functions(p, r):
            got = _sweep_results(p, max_order, fn)
            assert got == _oracle_results(p, max_order, fn)
            assert all(ok for ok, _, _ in got)


def _faulty_dual_hom(entry, unreduced=False):
    """dual_hom with one entry, (0, 0) or (-1, -1), moved off the adjoint.

    The entry moves by the smallest well-defined step, or, if unreduced, by
    the modulus of its row, left unreduced: the same map, stored wrongly.
    """
    def faulty(f):
        fs = dual_hom(f)
        if not (fs.matrix and fs.matrix[0]):
            return fs
        rows = [list(row) for row in fs.matrix]
        p, e, fi = f.source.prime, fs.target.exponents[entry], fs.source.exponents[entry]
        if unreduced:
            rows[entry][entry] += p ** e
            return GroupHom._trusted(fs.source, fs.target, tuple(map(tuple, rows)))
        rows[entry][entry] += p ** max(e - fi, 0)
        return GroupHom(fs.source, fs.target, rows)
    return faulty


def test_naturality_sweep_matches_oracle_under_a_faulty_dual_hom(monkeypatch):
    # A moved adjoint entry breaks the generator identity for every hom between
    # nontrivial groups, so each verdict there comes from the entrywise fallback.
    faults = {"last": _faulty_dual_hom(-1), "first": _faulty_dual_hom(0),
              "unreduced": _faulty_dual_hom(0, unreduced=True)}
    for fault, faulty in faults.items():
        monkeypatch.setattr(isoverify, "dual_hom", faulty)
        for p, max_order, r in DIFFERENTIAL:
            groups = enumerate_groups(p, max_order)
            nontrivial = [bool(V.exponents and W.exponents) for V in groups for W in groups]
            for name, fn in _naturality_functions(p, r):
                got = _sweep_results(p, max_order, fn)
                assert got == _oracle_results(p, max_order, fn), (fault, name, p)
                failing = [not ok for ok, _, _ in got]
                if name == "constant" or fault == "unreduced":
                    assert not any(failing)  # the fallback's pass branch
                elif fault == "first":
                    # pinned, so that this case cannot pass without a failing pair
                    assert sum(failing) == {2: 36, 3: 9}[p]
                elif name == "spike":
                    assert failing == nontrivial
                else:
                    assert any(failing)


def test_sweep_examples():
    report = natural_iso_sweep(2, 4)
    iso_checks = [c for c in report.checks if c.id.startswith("iso-")]
    assert len(iso_checks) == 4
    assert report.failed == 0
    report = natural_iso_sweep(3, 27)
    iso_checks = [c for c in report.checks if c.id.startswith("iso-")]
    assert len(iso_checks) == 7  # partitions of 0..3
    assert report.failed == 0
    report = natural_iso_sweep(2, 1)
    assert len(report.checks) == 1


def test_determinant_invariant_under_reindexing():
    # same group, elements enumerated in a shuffled order: the matrix picks up
    # a simultaneous row and column permutation, so the determinant is unchanged
    rng = random.Random(408)
    p, r = 2, 2
    ring = standard_ring(p, r)
    for _ in range(5):
        fn = random_table_function(p, r, rng)
        for group in (G(2, 2), G(2, 2, 1)):
            base = determinant(transform_matrix(group, fn))
            n = group.order
            perm = list(range(n))
            rng.shuffle(perm)
            table = pairing_numerators(group)
            e1 = group.exponents[0]
            entries = []
            for l in range(n):
                for v in range(n):
                    t = table[perm[v]][perm[l]]
                    entries.append(fn.value_at(PadicCircle(p, t, e1)))
            shuffled = RingMatrix(ring, n, n, entries)
            assert determinant(shuffled) == base


def test_criterion_level_guard():
    p = 2
    fn = random_table_function(p, 1, random.Random(2))
    with pytest.raises(ValueError):
        invertibility_criterion(fn, 2)
