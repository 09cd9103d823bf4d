import functools
import hashlib
import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padicgroup import bookkeeping, certificates, construction, group, linalg
from padicgroup.arith import primes_up_to, valuation
from padicgroup.bookkeeping import FINGERPRINT
from padicgroup.certificates import (
    BadPrimeRecord,
    DivisibilityWitness,
    FreenessCertificate,
    certify_free,
    check_printable,
    common_axis_multiple,
    divisibility_witness,
    verify_certificate,
    verify_witness,
)
from padicgroup.config import DEFAULT
from padicgroup.construction import build_context, condition_block
from padicgroup.errors import (
    CapacityExceededError,
    NoQuotientContentError,
    NotInGroupError,
    SpanMeetsAxisError,
    WrongPrimeError,
)
from padicgroup.group import is_member
from padicgroup.vectors import FinVec, element
from test_construction import FixedTarget

F = Fraction


def test_witness_frozen_p2():
    e = element(-1, {1: -1})
    w = divisibility_witness(e, 2)
    assert (w.p, w.a_int, w.d) == (2, 1, 1)
    assert w.z == element(F(-1, 2), {1: F(-1, 2)})
    assert w.bezout == (1, 0)
    assert verify_witness(e, w)


def test_witness_across_class_primes():
    # all five small primes in the class of -e1; two of them need a shifted
    # residue target
    e = element(-1, {1: -1})
    targets = {2: 1, 3: 1, 7: 1, 17: 2, 31: 3}
    for p, a in targets.items():
        w = divisibility_witness(e, p)
        assert w.a_int == a
        assert w.z.x0 == F(-a, p)
        assert verify_witness(e, w)
        assert is_member(w.z)
        # p*z - d*e lands on the integer axis
        shifted = w.z.scale(p) - e.scale(w.d)
        assert shifted.x.is_zero and shifted.x0.denominator == 1


def test_witness_of_witness():
    # the witness itself divides again at another class prime, now with a
    # nontrivial cleared denominator and bezout pair
    z = divisibility_witness(element(-1, {1: -1}), 2).z
    w = divisibility_witness(z, 3)
    assert (w.p, w.a_int, w.d) == (3, 1, 2)
    assert w.z == element(F(-1, 3), {1: F(-1, 3)})
    assert w.bezout == (2, -1)
    assert w.bezout[0] * w.d + w.bezout[1] * w.p == 1
    assert verify_witness(z, w)


def test_witness_rejects_tampering():
    e = element(-1, {1: -1})
    w = divisibility_witness(e, 2)
    bent = DivisibilityWitness(
        p=w.p, a_int=w.a_int, d=w.d,
        z=element(w.z.x0 + F(1, 2), dict(w.z.x.items())),
        bezout=w.bezout,
    )
    out = verify_witness(e, bent)
    assert not out
    assert "not in the group" in out.reason
    wrong_pair = DivisibilityWitness(p=w.p, a_int=w.a_int, d=w.d, z=w.z, bezout=(1, 1))
    assert not verify_witness(e, wrong_pair)
    assert not verify_witness(element(-2, {1: -2}), w)


def test_witness_fingerprint_checked():
    e = element(-1, {1: -1})
    data = divisibility_witness(e, 2).to_json()
    data["fingerprint"] = "v1:0000000000000000"
    out = verify_witness(e, DivisibilityWitness.from_json(data))
    assert not out
    assert "fingerprint" in out.reason


def test_witness_json_round_trip():
    w = divisibility_witness(element(-1, {1: -1}), 17)
    data = w.to_json()
    assert set(data) == {"p", "a_int", "d", "z", "bezout", "fingerprint"}
    assert data["fingerprint"] == FINGERPRINT
    assert DivisibilityWitness.from_json(data) == w
    with pytest.raises(ValueError):
        DivisibilityWitness.from_json({k: v for k, v in data.items() if k != "d"})
    with pytest.raises(ValueError):
        DivisibilityWitness.from_json({**data, "note": 1})


def test_witness_error_gates():
    with pytest.raises(NotInGroupError):
        divisibility_witness(element(F(1, 2), {}), 2)
    with pytest.raises(NoQuotientContentError):
        divisibility_witness(element(3, {}), 2)
    with pytest.raises(WrongPrimeError):
        # 2 divides the cleared denominator
        divisibility_witness(element(F(-1, 2), {1: F(-1, 2)}), 2)
    with pytest.raises(WrongPrimeError):
        # 5 sits in the class of -e1-e2, not -e1
        divisibility_witness(element(-1, {1: -1}), 5)


def test_witness_primes_past_the_cap_are_refused_before_any_work(monkeypatch):
    e = element(-1, {1: -1})
    small = DEFAULT.replace(prime_cap=100)
    wit = divisibility_witness(e, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("work done before the cap check")

    for name in ("is_member", "is_prime", "build_context"):
        monkeypatch.setattr(certificates, name, refuse)
    with pytest.raises(CapacityExceededError) as info:
        divisibility_witness(e, 10000019, small)
    assert (info.value.required, info.value.cap) == (10000019, 100)
    with pytest.raises(CapacityExceededError) as info:
        verify_witness(e, wit.replace(p=2 ** 61 - 1))
    assert (info.value.required, info.value.cap) == (2 ** 61 - 1, DEFAULT.prime_cap)



def test_cold_witness_paths_compute_the_class_vector_once(monkeypatch):
    # the class vector comes from the context, which the witness needs anyway
    e = element(-1, {1: -1})
    calls = []
    intvec_at = bookkeeping.intvec_at
    monkeypatch.setattr(bookkeeping, "intvec_at", lambda *args: calls.append(args) or intvec_at(*args))
    build_context.cache_clear()
    wit = divisibility_witness(e, 31)
    assert len(calls) == 1
    build_context.cache_clear()
    assert verify_witness(e, wit)
    assert len(calls) == 2

def test_certificate_frozen_single_vector():
    gens = [element(0, {1: 2})]
    cert = certify_free(gens)
    assert cert.lam == FinVec.zero()
    assert (cert.index, cert.k, cert.D) == (1, 1, 1)
    assert [r.p for r in cert.bad] == [2]
    rec = cert.bad[0]
    assert (rec.selected, rec.m, rec.r) == ((0,), 0, 0)
    assert rec.z_rows == ((F(1),),)
    assert list(cert.basis) == [element(0, {1: 1})]
    assert verify_certificate(gens, cert)


def test_certificate_frozen_fractional_functional():
    # x0 = (1/2) x1 on the generator, so the functional has denominator 2 and
    # prime 2 needs a perturbation record
    gens = [element(1, {1: 2})]
    cert = certify_free(gens)
    assert cert.lam == FinVec({1: F(1, 2)})
    assert (cert.index, cert.k, cert.D) == (22, 1, 2)
    assert [r.p for r in cert.bad] == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    by_p = {r.p: r for r in cert.bad}
    assert by_p[2].r == 1
    assert all(r.m == 0 for r in cert.bad)
    assert all(by_p[p].r == 0 for p in (3, 5, 7, 11, 13, 17, 19, 23))
    assert list(cert.basis) == [element(1, {1: 2})]
    assert verify_certificate(gens, cert)
    assert cert.good_params == {"k": 1, "index": 22, "denominator_primes": [2]}


def test_certificate_rank_two():
    gens = [element(0, {1: 1}), element(0, {2: 1})]
    cert = certify_free(gens)
    assert (cert.index, cert.k, cert.D) == (1, 2, 1)
    assert [r.p for r in cert.bad] == [2]
    assert len(cert.basis) == 2
    assert verify_certificate(gens, cert)


def test_certificate_empty_generators():
    cert = certify_free([])
    assert cert.D == 1 and cert.basis == ()
    assert verify_certificate([], cert)


def test_certificate_rejects_tampering():
    gens = [element(1, {1: 2})]
    cert = certify_free(gens)
    doubled = FreenessCertificate(
        lam=cert.lam, index=cert.index, k=cert.k, bad=cert.bad,
        D=cert.D * 2, basis=cert.basis,
    )
    assert not verify_certificate(gens, doubled)
    scaled = FreenessCertificate(
        lam=cert.lam, index=cert.index, k=cert.k, bad=cert.bad,
        D=cert.D, basis=tuple(b.scale(2) for b in cert.basis),
    )
    assert not verify_certificate(gens, scaled)
    wrong_gens = [element(1, {1: 2}), element(0, {2: 1})]
    assert not verify_certificate(wrong_gens, cert)


def test_certificate_rejects_unsaturated_basis():
    # the generator alone spans the right lattice directions but is divisible
    # by 2, 3 and 7 inside the group
    gens = [element(-1, {1: -1})]
    cert = certify_free(gens)
    assert cert.D == 42
    assert verify_certificate(gens, cert)
    out = verify_certificate(gens, cert.replace(basis=tuple(gens)))
    assert not out
    assert out.reason == "basis is not saturated at prime 2"


def test_certificate_rejects_basis_missing_integer_points():
    # D = 1 probes no prime, so the integer point e1 must be checked directly
    gens = [element(0, {1: 2})]
    cert = certify_free(gens)
    assert cert.D == 1
    out = verify_certificate(gens, cert.replace(basis=tuple(gens)))
    assert not out
    assert "integer point" in out.reason


def test_certificate_rejects_singular_translate_matrix():
    # lambda = -1 cancels the first translate at p = 2, so selecting it instead
    # of the second one stores the singular 1x1 matrix [0]
    gens = [element(-1, {1: 1})]
    cert = certify_free(gens)
    rec = cert.bad[0]
    assert rec.p == 2 and rec.selected == (1,)
    bent = rec.replace(selected=(0,), z_rows=((Fraction(0),),))
    out = verify_certificate(gens, cert.replace(bad=(bent,) + cert.bad[1:]))
    assert not out
    assert out.reason == "matrix for prime 2 is singular"


@pytest.mark.parametrize("field,value,reason", [
    ("m", 1, "record for prime 2 claims m = 1, recomputed 0"),
    ("r", 0, "record for prime 2 claims r = 0, recomputed 1"),
    ("z_rows", ((F(5, 2),),), "stored matrix for prime 2 does not match the translates"),
    # Z must be 1 x 1: a longer or empty row, no row, a second row
    ("z_rows", ((F(3, 2), F(0)),), "stored matrix for prime 2 does not match the translates"),
    ("z_rows", ((),), "stored matrix for prime 2 does not match the translates"),
    ("z_rows", (), "stored matrix for prime 2 does not match the translates"),
    ("z_rows", ((F(3, 2),), (F(3, 2),)), "stored matrix for prime 2 does not match the translates"),
])
def test_certificate_rejects_altered_record(field, value, reason):
    gens = [element(1, {1: 2})]
    cert = certify_free(gens)
    rec = cert.bad[0]
    assert (rec.p, rec.selected, rec.z_rows, rec.m, rec.r) == (2, (0,), ((F(3, 2),),), 0, 1)
    bent = rec.replace(**{field: value})
    out = verify_certificate(gens, cert.replace(bad=(bent,) + cert.bad[1:]))
    assert not out
    assert out.reason == reason


def test_certificate_rejects_basis_beyond_generator_span():
    # (1, 0) is an integer point and so a member, but it lies outside the span
    # of e1; the rank comparison refuses it
    gens = [element(0, {1: 1})]
    cert = certify_free(gens)
    assert cert.D == 1 and verify_certificate(gens, cert)
    out = verify_certificate(gens, cert.replace(basis=(element(0, {1: 1}), element(1, {}))))
    assert not out
    assert out.reason == "basis span differs from generator span"


def test_certificate_refuses_huge_index_before_enumerating():
    gens = [element(1, {1: 2})]
    cert = certify_free(gens)
    out = verify_certificate(gens, cert.replace(index=10**12))
    assert not out
    assert out.reason == "certificate-incomplete: bad primes reach 1000000000001"


def test_certificate_lambda_past_the_height_cap_is_refused_before_factoring(monkeypatch):
    # trial division of 10^50 + 1 would not finish; certify refuses the same
    # lambda through qvec_index
    gens = [element(1, {1: 2})]
    cert = certify_free(gens)
    huge = 10 ** 50 + 1
    data = {**cert.to_json(), "lambda": {"1": f"1/{huge}"}}
    factored = []
    monkeypatch.setattr(certificates, "prime_factors", lambda *args: factored.append(args))
    with pytest.raises(CapacityExceededError) as info:
        FreenessCertificate.from_json(data)
    assert (str(info.value), info.value.required, info.value.cap) == (
        "rational height passed the cap of 100000", huge, 100000)
    out = verify_certificate(gens, cert.replace(lam=FinVec({1: Fraction(1, huge)})))
    assert (out.ok, out.reason) == (False, "rational height passed the cap of 100000")
    assert factored == []


def test_certificate_rejects_non_positive_index():
    gens = [element(1, {1: 2})]
    cert = certify_free(gens)
    for index in (0, -3):
        out = verify_certificate(gens, cert.replace(index=index))
        assert not out
        assert out.reason == f"index {index} must be >= 1"


@pytest.mark.parametrize("good_params", [
    {"k": 99, "index": -5, "denominator_primes": "junk"},
    {"k": 1, "index": 22, "denominator_primes": []},
    {"k": True, "index": 22, "denominator_primes": [2]},
    {"k": 1, "index": 22.0, "denominator_primes": [2]},
    {"k": 1, "index": 22},
    [],
])
def test_certificate_from_json_checks_good_params(good_params):
    data = certify_free([element(1, {1: 2})]).to_json()
    assert data["good_params"] == {"k": 1, "index": 22, "denominator_primes": [2]}
    with pytest.raises(ValueError, match="good_params"):
        FreenessCertificate.from_json({**data, "good_params": good_params})


def test_certificate_json_round_trip():
    cert = certify_free([element(1, {1: 2})])
    data = cert.to_json()
    assert set(data) == {
        "lambda", "index", "k", "good_params", "bad_primes", "D", "basis",
        "fingerprint",
    }
    assert FreenessCertificate.from_json(data) == cert
    with pytest.raises(ValueError):
        FreenessCertificate.from_json({k: v for k, v in data.items() if k != "D"})
    rec = data["bad_primes"][0]
    assert set(rec) == {"p", "selected", "Z", "m", "r"}
    assert BadPrimeRecord.from_json(rec) == cert.bad[0]


def _malformed(data: dict, path: tuple, value) -> dict:
    out = dict(data)
    if len(path) == 1:
        out[path[0]] = value
    else:
        rec = dict(out[path[0]][0])
        rec[path[1]] = value
        out[path[0]] = [rec] + out[path[0]][1:]
    return out


@pytest.mark.parametrize("path,value", [
    (("D",), "2"), (("D",), 2.0), (("D",), True), (("k",), 1.5), (("index",), None),
    (("basis",), {}), (("bad_primes",), "[]"), (("fingerprint",), 1),
    (("bad_primes", "p"), 7.9), (("bad_primes", "m"), False), (("bad_primes", "selected"), [0.0]),
    (("bad_primes", "Z"), ["12"]), (("bad_primes", "selected"), 0),
])
def test_certificate_from_json_is_strict(path, value):
    data = certify_free([element(1, {1: 2})]).to_json()
    with pytest.raises(ValueError):
        FreenessCertificate.from_json(_malformed(data, path, value))


@pytest.mark.parametrize("field,value", [
    ("p", 7.9), ("p", "2"), ("d", True), ("a_int", 1.0), ("bezout", [1]), ("bezout", 1),
    ("bezout", [1, "0"]), ("fingerprint", None),
])
def test_witness_from_json_is_strict(field, value):
    data = divisibility_witness(element(-1, {1: -1}), 2).to_json()
    with pytest.raises(ValueError):
        DivisibilityWitness.from_json({**data, field: value})


@pytest.mark.parametrize("data", [5, [], "p", None])
def test_artifacts_must_be_json_objects(data):
    for cls in (DivisibilityWitness, FreenessCertificate, BadPrimeRecord):
        with pytest.raises(ValueError):
            cls.from_json(data)


def test_certify_detects_axis_overlap():
    with pytest.raises(SpanMeetsAxisError) as info:
        certify_free([element(1, {1: 1}), element(0, {1: 1})])
    assert info.value.witness == element(1, {})
    with pytest.raises(SpanMeetsAxisError) as info:
        certify_free([element(1, {})])
    assert info.value.witness == element(1, {})


def test_certify_gates_membership():
    with pytest.raises(NotInGroupError):
        certify_free([element(F(1, 2), {})])


def test_common_axis_multiple():
    assert common_axis_multiple(element(2, {}), element(3, {})) == element(6, {})
    assert common_axis_multiple(element(4, {}), element(-6, {})) == element(12, {})
    assert common_axis_multiple(element(-5, {}), element(-5, {})) == element(5, {})
    with pytest.raises(ValueError):
        common_axis_multiple(element(0, {}), element(2, {}))
    with pytest.raises(ValueError):
        common_axis_multiple(element(1, {1: 1}), element(2, {}))


def _oracle_exponent(z, p):
    """max(0, -min v_p(Z^-1)) from the exact rational inverse, None when singular."""
    inv = linalg.invert(z)
    return None if inv is None else max(0, -min(valuation(v, p) for row in inv for v in row))


def _identity(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def _integer_exponent(z, p, extra=1):
    # M = d*Z with d the lcm of Z's denominators, times an extra factor
    d = math.lcm(*(v.denominator for row in z for v in row)) * extra
    square = [[int(v * d) for v in row] for row in z]
    k = len(z)
    selected, m = certificates._record(p, d, square, list(range(k)), _identity(k))
    assert selected == tuple(range(k))
    return m


@st.composite
def _rational_square(draw):
    """k x k rational matrices, k <= 5, whose entries carry a power of p and
    a denominator mixing a power of p with a part coprime to p; about one in
    four is singular."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    k = draw(st.integers(1, 5))
    coprime = st.integers(1, 12).filter(lambda c: c % p)
    entry = st.builds(lambda n, b, a, c: F(n * p ** b, p ** a * c),
                      st.integers(-30, 30), st.integers(0, 2), st.integers(0, 3), coprime)
    z = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    if draw(st.integers(0, 3)) == 0:
        coeffs = draw(st.lists(st.sampled_from([F(-1), F(0), F(1, p), F(2, 3)]), min_size=k, max_size=k))
        z[-1] = [sum(c * row[j] for c, row in zip(coeffs, z[:-1])) for j in range(k)]
    return p, z, draw(st.sampled_from([1, 1, p, p * p]))


@settings(max_examples=400, deadline=None)
@given(_rational_square())
def test_inverse_exponent_matches_the_fraction_inverse(case):
    p, z, extra = case
    # an extra factor of d raises v_p(d) without changing Z = M/d
    assert _integer_exponent(z, p, extra) == _oracle_exponent(z, p)


@pytest.mark.parametrize("z,p,extra,m", [
    # e > v_p(d): M = diag(1, 8) at d = 2, so e = 3 and m = 2
    ([[F(1, 2), F(0)], [F(0), F(4)]], 2, 1, 2),
    # v_p(d) > e after elimination: M = 2*unipotent at d = 4, v = 3 > v_p(d) = 2 > e = 1
    ([[F(1, 2), F(1, 2), F(0)], [F(0), F(1, 2), F(0)], [F(0), F(0), F(1, 2)]], 2, 2, 0),
    # v_p(d) > e without elimination: M = [[1, 3], [0, 1]] at d = 9 is unimodular
    ([[F(1, 9), F(1, 3)], [F(0), F(1, 9)]], 3, 1, 0),
    ([[F(2, 5), F(4, 5)], [F(1, 5), F(2, 5)]], 5, 1, None),
])
def test_inverse_exponent_hand_cases(z, p, extra, m):
    assert _oracle_exponent(z, p) == m
    assert _integer_exponent(z, p, extra) == m


def _reference_record(p, lam_den, d, rows, selected=None):
    """The record by two eliminations: the selection and det M from the
    transpose of the rows, then m from the adjugate block of [M | I]."""
    k = len(rows[0])
    if selected is None:
        _, selected, det = linalg.bareiss(list(zip(*rows)), len(rows))
    else:
        det = linalg.bareiss([rows[i] for i in selected], k)[2]
    chosen = [rows[i] for i in selected]
    m = None
    if det:
        mat, _, _ = linalg.bareiss([row + [int(i == j) for j in range(k)] for i, row in enumerate(chosen)], k)
        least = min(valuation(a, p) for row in mat for a in row[k:] if a)
        m = max(0, valuation(det, p) - least - valuation(d, p))
    z_rows = tuple(tuple(F(a, d) for a in row) for row in chosen)
    return BadPrimeRecord(p, tuple(selected), z_rows, m, valuation(lam_den, p))


def _as_record(p, record):
    """The BadPrimeRecord of an integer record (selected, M, d, m, r), Z = M/d."""
    selected, rows, d, m, r = record
    return BadPrimeRecord(p, selected, tuple(tuple(F(a, d) for a in row) for row in rows), m, r)


def _translate_rows(p, k, lam):
    """d, the lcm of lambda's first k denominators, and the integer rows
    d*(phi_j + lambda) on 1..k, read from the full-width block."""
    d = math.lcm(*(lam[i].denominator for i in range(1, k + 1)))
    return d, [[int(d * (phi[i] + lam[i])) for i in range(1, k + 1)]
               for phi in condition_block(build_context(p), k).vectors]


@st.composite
def _translate_case(draw):
    """A functional of support k <= 4, a prime p <= 47, and a selection:
    certify's (None), a random ordered k-subset of the k+1 rows, or a
    stored selection holding one row twice (singular)."""
    k = draw(st.integers(1, 4))
    entry = st.builds(F, st.integers(-9, 9), st.integers(1, 12))
    head = draw(st.lists(entry, min_size=k - 1, max_size=k - 1))
    lam = FinVec({i: v for i, v in enumerate(head + [draw(entry.filter(bool))], start=1) if v})
    p = draw(st.sampled_from(primes_up_to(47)))
    kind = draw(st.sampled_from(["certify", "permuted", "singular"]))
    selected = None
    if kind == "permuted":
        selected = draw(st.permutations(range(k + 1)))[:k]
    elif kind == "singular" and k > 1:
        selected = draw(st.permutations([0] + list(range(k - 1))))
    return lam, k, p, selected


@settings(max_examples=300, deadline=None)
@given(_translate_case())
def test_record_matches_the_two_elimination_reference(case):
    # the kernel on the full-width rows, and the record loop on the window 1..k
    lam, k, p, selected = case
    d, rows = _translate_rows(p, k, lam)
    expected = _reference_record(p, lam.denominator_lcm(), d, rows, selected)
    assert certificates._record(p, d, rows, selected, _identity(k)) == (expected.selected, expected.m)
    assert _as_record(p, next(certificates._records(lam, k, [(p, selected)], DEFAULT))) == expected


def _fraction_record_check(cert):
    """The record check as a Fraction comparison, the oracle of
    verify_certificate's integer one: the reason for the first record whose
    stored Z differs as Fraction tuples from the two-elimination reference,
    or that is singular or claims another m or r; None when all pass."""
    for rec in cert.bad:
        d, rows = _translate_rows(rec.p, cert.k, cert.lam)
        expected = _reference_record(rec.p, cert.lam.denominator_lcm(), d, rows, rec.selected)
        if rec.z_rows != expected.z_rows:
            return f"stored matrix for prime {rec.p} does not match the translates"
        if expected.m is None:
            return f"matrix for prime {rec.p} is singular"
        if rec.m != expected.m:
            return f"record for prime {rec.p} claims m = {rec.m}, recomputed {expected.m}"
        if rec.r != expected.r:
            return f"record for prime {rec.p} claims r = {rec.r}, recomputed {expected.r}"
    return None


# k = 1 with d = 2 and d = 4, the D = 30 pair (k = 2) and the k = 3 triple of CI
TAMPER_GENS = [
    (element(1, {1: 2}),),
    (element(-5, {1: 4}),),
    (element(-1, {1: 2}), element(-1, {2: 1})),
    (element(2, {1: 1}), element(-1, {2: 1}), element(1, {3: 1})),
]
_certified = functools.cache(certify_free)


@st.composite
def _tampered_certificate(draw):
    """A certificate of TAMPER_GENS with one stored Z bent: one entry's
    numerator moved by 1, its denominator replaced, or an int put in its
    place (an equal one when the record has an integral entry); a row one
    entry longer or shorter; a row missing or one extra."""
    gens = draw(st.sampled_from(TAMPER_GENS))
    cert = _certified(gens)
    i = draw(st.integers(0, len(cert.bad) - 1))
    rows = [list(row) for row in cert.bad[i].z_rows]
    kind = draw(st.sampled_from(["numerator", "denominator", "int", "long row", "short row",
                                 "missing row", "extra row"]))
    cells = [(r, c) for r, row in enumerate(rows) for c in range(len(row))]
    integral = [(r, c) for r, c in cells if rows[r][c].denominator == 1]
    r, c = draw(st.sampled_from(integral if kind == "int" and integral else cells))
    z = rows[r][c]
    if kind == "numerator":
        rows[r][c] = F(z.numerator + draw(st.sampled_from([-1, 1])), z.denominator)
    elif kind == "denominator":
        rows[r][c] = F(z.numerator, draw(st.integers(1, 12).filter(lambda q: q != z.denominator)))
    elif kind == "int":
        rows[r][c] = math.floor(z)
    elif kind == "long row":
        rows[r].insert(c, draw(st.builds(F, st.integers(-9, 9), st.integers(1, 4))))
    elif kind == "short row":
        del rows[r][c]
    elif kind == "missing row":
        del rows[r]
    else:
        rows.insert(r, list(rows[draw(st.integers(0, len(rows) - 1))]))
    bent = cert.bad[i].replace(z_rows=tuple(tuple(row) for row in rows))
    return gens, cert.replace(bad=cert.bad[:i] + (bent,) + cert.bad[i + 1:])


@settings(max_examples=200, deadline=None)
@given(_tampered_certificate())
def test_tampered_records_get_the_verdict_of_the_fraction_comparison(case):
    gens, cert = case
    reason = _fraction_record_check(cert)
    # the rest of the certificate is untouched, so a record check that
    # passes leaves the verdict of the certificate as built: ok
    expected = (reason is None, reason)
    out = verify_certificate(gens, cert)
    assert (out.ok, out.reason) == expected
    out = verify_certificate(gens, FreenessCertificate.from_json(cert.to_json()))
    assert (out.ok, out.reason) == expected


def test_an_int_equal_to_a_stored_entry_passes():
    # at p = 2 the D = 30 record holds Z = ((1/2, -1), (9/2, 0)); entries compare by value
    gens = TAMPER_GENS[2]
    cert = _certified(gens)
    assert cert.bad[0].z_rows == ((F(1, 2), F(-1)), (F(9, 2), F(0)))
    bent = cert.bad[0].replace(z_rows=((F(1, 2), -1), (F(9, 2), 0)))
    assert verify_certificate(list(gens), cert.replace(bad=(bent,) + cert.bad[1:]))


def test_records_below_the_pivot_ignore_a_wrong_target(monkeypatch):
    # a record reads the block on 1..k, so at a prime whose pivot lies past k
    # it stays the same under any target; at pivot <= k the block moves
    lam = {k: FinVec({i: F(-i, 7) for i in range(1, k + 1)}) for k in range(1, 6)}
    ctxs = {}
    monkeypatch.setattr(certificates, "build_context", lambda p, config=DEFAULT: ctxs[p])
    below = 0
    for p in primes_up_to(3000):
        ctx = build_context(p)
        wrong = [t for t in range(1, min(p, 5)) if t != ctx.target][:3]
        for k in range(1, 6):
            ctxs[p] = ctx
            right = next(certificates._records(lam[k], k, [(p, None)], DEFAULT))
            for t in wrong:
                ctxs[p] = FixedTarget(ctx.p, ctx.vec, ctx.width, t)
                if ctx.pivot > k:
                    below += 1
                    assert next(certificates._records(lam[k], k, [(p, None)], DEFAULT)) == right, (p, k, t)
                else:
                    assert condition_block(ctxs[p], k, k) != condition_block(ctx, k, k), (p, k, t)
    assert below > 1600


def test_certify_computes_the_target_only_where_a_record_window_holds_the_pivot(monkeypatch):
    calls = []
    target = construction._target
    monkeypatch.setattr(construction, "_target", lambda p, vec: calls.append(p) or target(p, vec))
    for index, lam in [(379, ("-5/4",)), (57, ("-1", "-2")), (40, ("1", "1"))]:
        for cache in (build_context, condition_block, group._conditions):
            cache.cache_clear()
        calls.clear()
        lam = [F(v) for v in lam]
        d = math.lcm(*(v.denominator for v in lam))
        cert = certify_free([element(v * d, {i: d}) for i, v in enumerate(lam, start=1)])
        assert cert.index == index
        holding = [rec.p for rec in cert.bad if build_context(rec.p).pivot <= cert.k]
        assert sorted(calls) == holding and len(holding) < len(cert.bad), index


def test_certificate_records_with_positive_m_round_trip():
    gens = [element(-1, {1: 2}), element(-1, {2: 1})]
    cert = certify_free(gens)
    assert cert.D == 30
    assert [(rec.p, rec.m, rec.r) for rec in cert.bad] == [
        (2, 0, 1), (3, 1, 0), (5, 1, 0), (7, 0, 0), (11, 0, 0), (13, 0, 0), (17, 0, 0), (19, 0, 0)]
    assert verify_certificate(gens, FreenessCertificate.from_json(cert.to_json()))
    bent = cert.bad[1].replace(m=0)
    out = verify_certificate(gens, cert.replace(bad=(cert.bad[0], bent) + cert.bad[2:]))
    assert out.reason == "record for prime 3 claims m = 0, recomputed 1"


# (index, lambda) of the certify functionals of bench/inputs.py: 26 of support 1, 14 of support 2
GOLDEN_FUNCTIONALS = [
    (2, ("-1",)), (7, ("1",)), (11, ("-2",)), (16, ("-1/2",)), (22, ("1/2",)), (29, ("2",)),
    (37, ("-3",)), (46, ("-3/2",)), (56, ("-2/3",)), (67, ("-1/3",)), (79, ("1/3",)),
    (92, ("2/3",)), (106, ("3",)), (121, ("3/2",)), (137, ("-4",)), (154, ("-4/3",)),
    (172, ("-3/4",)), (191, ("-1/4",)), (211, ("1/4",)), (232, ("3/4",)), (254, ("4",)),
    (277, ("4/3",)), (301, ("-5",)), (326, ("-5/2",)), (352, ("-5/3",)), (379, ("-5/4",)),
    (3, ("-1", "-1")), (6, ("0", "-1")), (10, ("1", "-1")), (15, ("-2", "-1")),
    (21, ("-1/2", "-1")), (23, ("-1", "1")), (28, ("1/2", "-1")), (31, ("0", "1")),
    (36, ("2", "-1")), (40, ("1", "1")), (45, ("-3", "-1")), (50, ("-2", "1")),
    (55, ("-3/2", "-1")), (57, ("-1", "-2")),
]


def test_certificates_of_enumerated_functionals_are_frozen():
    # generators d*e_i with x0 = lambda_i*d, d the lcm of lambda's denominators
    certs = []
    for index, lam in GOLDEN_FUNCTIONALS:
        lam = [F(v) for v in lam]
        d = math.lcm(*(v.denominator for v in lam))
        cert = certify_free([element(v * d, {i: d}) for i, v in enumerate(lam, start=1)])
        assert cert.index == index
        certs.append(cert.to_json())
    digest = hashlib.sha256(json.dumps(certs, sort_keys=True).encode()).hexdigest()
    assert digest == "80dd3ad057f148f6dbc5919a91253c4efea17a798b6bc0180af120a3a20d3cca"


def test_certificates_past_the_digit_limit_are_refused_before_formatting():
    limit = sys.get_int_max_str_digits()
    cert = certify_free([element(1, {1: 2})])
    check_printable(cert.replace(D=10 ** limit - 1))  # limit digits: printable
    assert len(json.dumps(cert.replace(D=10 ** limit - 1).to_json())) > limit
    for bent in (cert.replace(D=10 ** limit), cert.replace(D=-(10 ** limit)),
                 cert.replace(basis=(element(Fraction(1, 10 ** limit), {1: 2}),)),
                 cert.replace(bad=cert.bad[:1] + (cert.bad[1].replace(z_rows=((Fraction(10 ** limit, 3),),)),))):
        with pytest.raises(CapacityExceededError) as info:
            check_printable(bent)
        assert (info.value.required, info.value.cap) == (limit + 1, limit)
    with pytest.raises(CapacityExceededError) as info:
        check_printable(cert.replace(D=7 * 10 ** (2 * limit)))
    assert info.value.required == 2 * limit + 1
