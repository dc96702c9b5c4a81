"""Value types keep Python's eq/hash contract, and the frozen ones stay frozen."""

import pytest

from cyclofourier import (AlgElem, CheckEntry, CriterionReport, DiagVerdict, DualElem,
                          FinAbGroup, FunElem, GroupElem, GroupHom, IntPolynomial, ModRing,
                          RingMatrix, VandermondeSplit, VerifyReport, get_ring)
from cyclofourier.report import _Frozen, _Value


def _group():
    return FinAbGroup(3, [2, 1])


def _frozen_pairs():
    """Two equal values of each frozen class, built separately, and a field of it."""
    yield _group(), _group(), "prime"
    yield GroupElem(_group(), [4, 1]), GroupElem(_group(), (4, 1)), "coords"
    yield DualElem(_group(), [4, 1]), DualElem(_group(), (4, 1)), "group"
    yield (CheckEntry("a", "subject", True, ("1", "2")),
           CheckEntry("a", "subject", True, ("1", "2")), "passed")
    yield DiagVerdict(True, 3), DiagVerdict(True, 3, None), "witness"

    def split():
        return VandermondeSplit(RingMatrix(ModRing(5), 1, 1, [1]), (1,), 1)

    yield split(), split(), "det"


def _unfrozen_pairs():
    """Two equal values of each hashable class that is immutable by convention only."""
    ring = get_ring(9, 3)
    c3 = FinAbGroup(3, (1,))

    def items():
        return [ring.one, ring.zero, ring.zeta(1)]

    yield IntPolynomial([1, -2, 0, 1]), IntPolynomial((1, -2, 0, 1, 0))
    yield ModRing(5), ModRing(5)
    yield RingMatrix(ring, 1, 2, [ring.one, ring.zeta(2)]), \
        RingMatrix.from_rows(get_ring(9, 3), [[ring.one, ring.zeta(2)]])
    yield AlgElem(c3, ring, items()), AlgElem(FinAbGroup(3, [1]), ring, items())
    yield FunElem(c3, ring, items()), FunElem(FinAbGroup(3, [1]), ring, items())
    yield GroupHom(_group(), c3, [[1, 0]]), GroupHom(_group(), c3, [[4, 3]])


def _mutable_pairs():
    ring = get_ring(3, 3)

    def report():
        r = VerifyReport("verify-demo", {"p": 3})
        r.add("a", "subject", True)
        return r

    def criterion():
        return CriterionReport(True, ring.one, False, ring.zero, [(1, (1,), ring.one, True)])

    yield report(), report()
    yield criterion(), criterion()


FROZEN = list(_frozen_pairs())
FROZEN_IDS = [type(a).__name__ for a, _, _ in FROZEN]
HASHABLE = [(a, b) for a, b, _ in FROZEN] + list(_unfrozen_pairs())


@pytest.mark.parametrize("a, b", HASHABLE, ids=[type(a).__name__ for a, _ in HASHABLE])
def test_equal_values_hash_equal_and_share_a_dict_key(a, b):
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and {a: 1}[b] == 1
    assert repr(a) == repr(b)


@pytest.mark.parametrize("a, b, field", FROZEN, ids=FROZEN_IDS)
def test_frozen_value_types_refuse_assignment(a, b, field):
    before = getattr(a, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.undeclared = 1  # no __dict__ either
    assert getattr(a, field) is before and a == b and hash(a) == hash(b)


@pytest.mark.parametrize("a, b", list(_mutable_pairs()),
                         ids=["VerifyReport", "CriterionReport"])
def test_report_builders_are_mutable_and_unhashable(a, b):
    assert a is not b and a == b and repr(a) == repr(b)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    if isinstance(a, VerifyReport):
        a.add("b", "another", False)
    else:
        a.condition3.append((2, (1,), a.witness1, False))
    assert a != b


def test_default_lists_are_never_shared():
    ring = get_ring(2, 2)
    r1, r2 = VerifyReport("c", {}), VerifyReport("c", {})
    r1.add("a", "s", True)
    assert r2.checks == []
    c1, c2 = (CriterionReport(True, ring.one, True, ring.one) for _ in range(2))
    c1.condition3.append((1, (0,), ring.one, True))
    assert c2.condition3 == [] and c2.overall and c1 != c2


def test_elements_never_equal_functionals():
    g = _group()
    v, l = GroupElem(g, (1, 2)), DualElem(g, (1, 2))
    assert v != l and l != v and not v == l and not l == v
    assert len({v, l}) == 2
    assert v != (g, (1, 2)) and v != FinAbGroup(3, (2, 1))


def test_equality_ignores_the_derived_factor_orders_and_tracks_every_field():
    g = _group()
    assert g.factor_orders == (9, 3)
    assert g != FinAbGroup(3, (2, 2)) and g != FinAbGroup(2, (2, 1))
    assert GroupElem(g, (1, 2)) != GroupElem(g, (1, 1))
    assert GroupElem(g, (1, 2)) != GroupElem(FinAbGroup(3, (3, 1)), (1, 2))
    assert CheckEntry("a", "s", True) != CheckEntry("a", "s", False)
    assert DiagVerdict(False, None, "x") != DiagVerdict(False, None, "y")
    assert RingMatrix(ModRing(5), 1, 1, [1]) != RingMatrix(ModRing(7), 1, 1, [1])
    assert GroupHom(g, g, [[1, 0], [0, 1]]) != GroupHom(g, g, [[1, 0], [0, 2]])
    ring = get_ring(3, 3)
    c3 = FinAbGroup(3, (1,))
    assert AlgElem(c3, ring, [ring.one] * 3) != FunElem(c3, ring, [ring.one] * 3)


def test_keyword_construction_and_defaults():
    assert FinAbGroup(prime=2, exponents=(1,)) == FinAbGroup(2, (1,))
    assert GroupElem(group=_group(), coords=(0, 0)).is_zero()
    entry = CheckEntry(id="a", subject="s", passed=False)
    assert entry.witness is None
    verdict = DiagVerdict(decision=False)
    assert (verdict.witness, verdict.reason) == (None, None)
    with pytest.raises(ValueError, match="prime must be >= 2"):
        FinAbGroup(1, ())


def test_reprs_keep_the_field_equals_value_form():
    # the strings a dataclass printed for the same values
    assert repr(FinAbGroup(3, (2, 1))) == "FinAbGroup(prime=3, exponents=(2, 1))"
    assert repr(FinAbGroup(2, ())) == "FinAbGroup(prime=2, exponents=())"
    assert repr(GroupElem(_group(), (1, 2))) == \
        "GroupElem(group=FinAbGroup(prime=3, exponents=(2, 1)), coords=(1, 2))"
    assert repr(DualElem(_group(), (0, 1))) == \
        "DualElem(group=FinAbGroup(prime=3, exponents=(2, 1)), coords=(0, 1))"
    assert repr(DiagVerdict(True, 3)) == "DiagVerdict(decision=True, witness=3, reason=None)"
    assert repr(DiagVerdict(False, None, "no-cyclotomic-root")) == \
        "DiagVerdict(decision=False, witness=None, reason='no-cyclotomic-root')"
    assert repr(CheckEntry("a", "s", True)) == \
        "CheckEntry(id='a', subject='s', passed=True, witness=None)"
    assert repr(CheckEntry("id", "subj", False, {"x": [1, "b"]})) == \
        "CheckEntry(id='id', subject='subj', passed=False, witness={'x': [1, 'b']})"
    report = VerifyReport("verify", {"p": 2})
    report.add("a", "b", True)
    assert repr(report) == ("VerifyReport(command='verify', params={'p': 2}, checks=["
                            "CheckEntry(id='a', subject='b', passed=True, witness=None)])")
    ring = get_ring(3, 3)
    assert repr(CriterionReport(True, ring.one, False, ring.zero)) == (
        "CriterionReport(condition1=True, witness1=CycloElem(M=3, [1, 0]), condition2=False, "
        "witness2=CycloElem(M=3, [0, 0]), condition3=[])")
    # classes with a repr of their own keep it
    assert repr(IntPolynomial([1, -2, 0, 1])) == "IntPolynomial(X^3 - 2X + 1)"
    assert repr(IntPolynomial([])) == "IntPolynomial(0)"
    assert repr(ModRing(5)) == "ModRing(5)"
    assert repr(RingMatrix(ModRing(5), 1, 2, [1, 2])) == "RingMatrix(1x2 over ModRing(5))"
    ring = get_ring(9, 3)
    assert repr(RingMatrix(ring, 1, 1, [ring.one])) == \
        "RingMatrix(1x1 over CycloRing(conductor=9, prime=3))"
    items = [ring.one, ring.zero, ring.zeta(1)]
    strings = "['[1, 0, 0, 0, 0, 0]', '[0, 0, 0, 0, 0, 0]', '[0, 1, 0, 0, 0, 0]']"
    assert repr(AlgElem(FinAbGroup(3, (1,)), ring, items)) == f"AlgElem(3, {strings})"
    assert repr(FunElem(FinAbGroup(3, (1,)), ring, items)) == f"FunElem(3, {strings})"
    assert repr(GroupHom(_group(), FinAbGroup(3, (1,)), [[1, 0]])) == \
        "GroupHom(9+3 -> 3, ((1, 0),))"
    assert repr(GroupHom(_group(), _group(), [[1, 0], [0, 1]])) == \
        "GroupHom(9+3 -> 9+3, ((1, 0), (0, 1)))"


def _value_leaves():
    """The classes whose values exist: the _Value subclasses with no subclass of their own."""
    leaves, todo = [], [_Value]
    while todo:
        cls = todo.pop()
        subs = cls.__subclasses__()
        todo.extend(subs)
        if not subs:
            leaves.append(cls)
    return leaves


def test_every_value_class_declares_its_fields_as_slots():
    assert "_fields" not in vars(_Value) and "_fields" not in vars(_Frozen)
    leaves = _value_leaves()
    assert {cls.__name__ for cls in leaves} == {
        "FinAbGroup", "GroupElem", "DualElem", "CheckEntry", "DiagVerdict", "VandermondeSplit",
        "VerifyReport", "CriterionReport", "IntPolynomial", "ModRing", "RingMatrix", "AlgElem",
        "FunElem", "GroupHom"}
    for cls in leaves:
        slots = {name for base in cls.__mro__ for name in vars(base).get("__slots__", ())}
        assert cls._fields and set(cls._fields) <= slots, cls
