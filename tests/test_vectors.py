import copy
import pickle
from fractions import Fraction

import pytest

from padicgroup.certificates import BadPrimeRecord, CheckOutcome, certify_free, divisibility_witness
from padicgroup.config import DEFAULT
from padicgroup.group import MembershipVerdict, membership, purify
from padicgroup.vectors import FinVec, GroupElement, element


def test_group_element_keeps_a_fraction_and_converts_the_rest():
    q = Fraction(3, 7)
    assert GroupElement(q, FinVec()).x0 is q
    assert type(GroupElement(3, FinVec()).x0) is Fraction
    assert GroupElement(True, FinVec()).x0 == 1 and type(GroupElement(True, FinVec()).x0) is Fraction


def test_zero_entries_are_dropped():
    v = FinVec({1: 0, 2: Fraction(3), 5: Fraction(0)})
    assert v.support == (2,)
    assert v[1] == 0 and v[2] == 3 and v[7] == 0


def test_support_and_max_support():
    v = FinVec({3: 1, 7: -2})
    assert v.support == (3, 7)
    assert v.max_support == 7
    assert FinVec.zero().max_support == 0
    assert FinVec.zero().is_zero


def test_vector_arithmetic():
    a = FinVec({1: 1, 2: 2})
    b = FinVec({2: -2, 3: 5})
    assert (a + b) == FinVec({1: 1, 3: 5})
    assert (a - b) == FinVec({1: 1, 2: 4, 3: -5})
    assert -a == FinVec({1: -1, 2: -2})
    assert a.scale(Fraction(1, 2)) == FinVec({1: Fraction(1, 2), 2: 1})
    assert a.scale(0).is_zero


def test_inner_product():
    a = FinVec({1: 2, 2: 3})
    b = FinVec({2: Fraction(1, 3), 9: 100})
    assert a.inner(b) == 1
    assert a.inner(FinVec.zero()) == 0
    assert a.inner(b) == b.inner(a)


def test_truncate():
    v = FinVec({1: 1, 4: 2, 9: 3})
    assert v.truncate(4) == FinVec({1: 1, 4: 2})
    assert v.truncate(0).is_zero
    assert v.truncate(9) == v


def test_reduce():
    v = FinVec({1: Fraction(1, 3), 2: -1})
    r = v.reduce(2)
    assert r == FinVec({1: 1, 2: 1})
    r = v.reduce(5, 2)
    # 1/3 mod 25: 3*17 = 51 = 1, so 17; -1 mod 25 = 24
    assert r == FinVec({1: 17, 2: 24})


def test_denominator_lcm():
    assert FinVec({1: Fraction(1, 6), 3: Fraction(5, 4)}).denominator_lcm() == 12
    assert FinVec.zero().denominator_lcm() == 1


def test_vector_json_round_trip():
    v = FinVec({1: Fraction(-1, 2), 10: 3})
    data = v.to_json()
    assert data == {"1": "-1/2", "10": "3"}
    assert FinVec.from_json(data) == v
    assert FinVec.from_json({}) == FinVec.zero()


def test_vector_json_rejects_bad_input():
    with pytest.raises(ValueError):
        FinVec.from_json({"0": "1"})
    with pytest.raises(ValueError):
        FinVec.from_json({"2": "0"})
    with pytest.raises(ValueError):
        FinVec.from_json({"x": "1"})
    with pytest.raises(ValueError):
        FinVec.from_json({"1": "2/4"})


@pytest.mark.parametrize("key", ["01", "00", "", "+1", " 1", "1 ", "\u0663", "\uff11", "\u00b2"])
def test_vector_json_rejects_non_canonical_positions(key):
    # "01" would otherwise overwrite position 1 silently
    with pytest.raises(ValueError):
        FinVec.from_json({key: "1"})
    with pytest.raises(ValueError):
        FinVec.from_json({"1": "1/2", key: "1"})


def test_vectors_hashable():
    assert len({FinVec({1: 1}), FinVec({1: Fraction(2, 2)}), FinVec({2: 1})}) == 2


def test_vector_hash_is_the_hash_of_its_items_every_time():
    v = FinVec({7: Fraction(-1, 3), 2: 5})
    w = FinVec([(2, Fraction(10, 2)), (7, Fraction(-1, 3)), (9, 0)])
    assert hash(v) == hash(tuple(v.items())) == hash(((2, 5), (7, Fraction(-1, 3))))
    assert v == w and hash(v) == hash(w) == hash(v)
    assert hash(FinVec.zero()) == hash(())


def test_element_arithmetic_and_helpers():
    e = element(Fraction(1, 2), {1: 1, 2: Fraction(1, 3)})
    f = element(1, {2: Fraction(2, 3)})
    assert (e + f).x0 == Fraction(3, 2)
    assert (e + f).x == FinVec({1: 1, 2: 1})
    assert (e - e).is_zero
    assert (-e).x0 == Fraction(-1, 2)
    assert e.scale(6) == element(3, {1: 6, 2: 2})
    assert e.max_support == 2
    assert e.denominator_lcm() == 6
    assert GroupElement.zero().is_zero


def test_element_json_round_trip():
    e = element(Fraction(-5, 3), {2: Fraction(7, 2)})
    data = e.to_json()
    assert data == {"x0": "-5/3", "x": {"2": "7/2"}}
    assert GroupElement.from_json(data) == e


def test_element_json_requires_exact_keys():
    with pytest.raises(ValueError):
        GroupElement.from_json({"x0": "1"})
    with pytest.raises(ValueError):
        GroupElement.from_json({"x0": "1", "x": {}, "extra": 1})


def test_record_fields_are_frozen():
    verdict = MembershipVerdict(False, 3)
    for name in ("member", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(verdict, name, True)
    with pytest.raises(AttributeError):
        del verdict.reason
    assert verdict.member is False and verdict.reason is None


def test_record_equality_needs_the_class_and_the_hash_is_the_field_tuple():
    class Twin(MembershipVerdict):  # the same fields in another class
        __slots__ = ()

    fields = (False, 3, FinVec({1: 2}), "reason", (2, 3))
    verdict = MembershipVerdict(*fields)
    assert verdict == MembershipVerdict(*fields) and hash(verdict) == hash(fields)
    assert verdict != MembershipVerdict(False, 5, *fields[2:])
    assert verdict != Twin(*fields) and Twin(*fields) != verdict
    assert hash(element(1, {2: 3})) == hash((Fraction(1), FinVec({2: 3})))


def test_record_repr_is_in_dataclass_format():
    assert repr(MembershipVerdict(True, checked_primes=(2,))) == (
        "MembershipVerdict(member=True, failing_prime=None, failing_residue=None, "
        "reason=None, checked_primes=(2,))")


def test_record_replace_runs_init_again():
    small = DEFAULT.replace(prime_cap=100)
    assert (small.prime_cap, small.residue_cap, DEFAULT.prime_cap) == (100, DEFAULT.residue_cap, 1_000_000)
    with pytest.raises(ValueError, match="prime_cap"):
        DEFAULT.replace(prime_cap=0)
    with pytest.raises(TypeError):
        DEFAULT.replace(no_such_cap=1)
    moved = element(1, {2: 3}).replace(x0=2, x={1: 1})
    assert moved == element(2, {1: 1}) and type(moved.x0) is Fraction and type(moved.x) is FinVec


def test_records_without_a_vector_copy_and_pickle_as_before():
    for record in (DEFAULT.replace(scan_cap=7), CheckOutcome(False, "no"),
                   BadPrimeRecord(2, (0,), ((Fraction(3, 2),),), 0, 1), MembershipVerdict(True)):
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record)


def test_vectors_and_the_records_holding_them_copy_and_pickle():
    # FinVec rebuilds through __init__ as a record does, so every result type round-trips
    gens = [element(-1, {1: -1})]
    verdict = membership(element(Fraction(1, 5), {1: Fraction(1, 5)}))
    assert verdict.failing_residue is not None
    results = (FinVec({1: 2}), FinVec(), element(Fraction(1, 2), {3: Fraction(-1, 4)}), verdict,
               purify(gens, bound=42), certify_free(gens), divisibility_witness(gens[0], 17))
    for result in results:
        for clone in (copy.copy(result), copy.deepcopy(result), pickle.loads(pickle.dumps(result))):
            assert clone == result and type(clone) is type(result)
            assert clone.to_json() == result.to_json() and hash(clone) == hash(result)
