import hashlib
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from math import gcd, log

import pytest
from hypothesis import given, settings, strategies as st

from padicgroup import bookkeeping
from padicgroup.arith import primes_up_to
from padicgroup.bookkeeping import (
    FINGERPRINT,
    decode_seq,
    encode_seq,
    enum_qvec,
    enum_rat,
    fingerprint,
    intvec_at,
    intvec_index,
    pair,
    pair0,
    partition_members,
    partition_vector,
    qvec_index,
    rat_code0,
    unpair,
    unpair0,
)
from padicgroup.errors import CapacityExceededError, EnumerationRangeError, NotPrimeError
from padicgroup.vectors import FinVec


def test_pair_is_a_bijection_on_an_initial_segment():
    seen = {}
    for i in range(1, 101):
        for j in range(1, 101):
            n = pair(i, j)
            assert n not in seen
            seen[n] = (i, j)
            assert unpair(n) == (i, j)
    # anti-diagonal order fills an initial segment
    assert sorted(seen)[: 100 * 101 // 2] == list(range(1, 100 * 101 // 2 + 1))


def test_pair_small_values():
    assert pair(1, 1) == 1
    assert pair(1, 2) == 2
    assert pair(2, 1) == 3
    assert pair(1, 3) == 4


def test_pair0_round_trip():
    for z in range(10_000):
        x, y = unpair0(z)
        assert pair0(x, y) == z


def test_pair_rejects_nonpositive():
    with pytest.raises(EnumerationRangeError):
        pair(0, 1)
    with pytest.raises(EnumerationRangeError):
        unpair(0)


def brute_rationals(max_height: int) -> list[Fraction]:
    """All rationals of height <= max_height ordered by (height, num, den)."""
    out = []
    for h in range(max_height + 1):
        block = []
        for num in range(-h, h + 1):
            for den in range(1, h + 1):
                q = Fraction(num, den)
                if max(abs(q.numerator), q.denominator) == h:
                    block.append((q.numerator, q.denominator, q))
        out.extend(q for _, _, q in sorted(set(block)))
    return out


def test_rational_enumeration_prefix():
    expected = [
        Fraction(-1),
        Fraction(0),
        Fraction(1),
        Fraction(-2),
        Fraction(-1, 2),
        Fraction(1, 2),
        Fraction(2),
        Fraction(-3),
    ]
    assert [enum_rat(n) for n in range(1, 9)] == expected


def test_rational_enumeration_matches_bruteforce():
    # brute list for height <= 40 must be a prefix of the enumeration
    brute = brute_rationals(40)
    assert [enum_rat(n) for n in range(1, len(brute) + 1)] == brute
    assert all(rat_code0(q) == n - 1 for n, q in enumerate(brute, start=1))


def test_rational_block_is_linear_in_height(monkeypatch):
    calls = 0

    def counting_gcd(a, b):
        nonlocal calls
        calls += 1
        return gcd(a, b)

    monkeypatch.setattr(bookkeeping, "gcd", counting_gcd)
    bookkeeping._rat_block.cache_clear()  # a cached block would make no gcd call at all
    block = bookkeeping._rat_block(300)
    assert calls < 300  # one coprimality test per d < h
    assert len(block) == 4 * 80  # 4 * phi(300)


def test_rational_enumeration_rejects_zero():
    with pytest.raises(EnumerationRangeError):
        enum_rat(0)


def test_seq_codec_round_trip():
    assert encode_seq([]) == 0
    assert decode_seq(0) == []
    for code in range(2000):
        assert encode_seq(decode_seq(code)) == code
    for seq in ([0], [1, 2, 3], [5, 0, 0, 1], [0] * 6):
        assert decode_seq(encode_seq(seq)) == seq


def test_qvec_frozen_indices():
    table = {
        1: FinVec.zero(),
        2: FinVec({1: -1}),
        3: FinVec({1: -1, 2: -1}),
        6: FinVec({2: -1}),
        7: FinVec({1: 1}),
        11: FinVec({1: -2}),
        16: FinVec({1: Fraction(-1, 2)}),
        22: FinVec({1: Fraction(1, 2)}),
        24: FinVec({3: -1}),
    }
    for n, v in table.items():
        assert enum_qvec(n) == v, n
        assert qvec_index(v) == n, v


def test_qvec_index_inverts_enum():
    for v in {enum_qvec(n) for n in range(1, 400)}:
        assert enum_qvec(qvec_index(v)) == v


def test_qvec_enumeration_reaches_small_vectors():
    # every vector supported on [1,3] with entries of height <= 2 shows up
    entries = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
               Fraction(1, 2), Fraction(-1, 2)]
    want = set()
    for a in entries:
        for b in entries:
            for c in entries:
                want.add(FinVec({1: a, 2: b, 3: c}))
    seen = {enum_qvec(n) for n in range(1, 200_000)}
    missing = want - seen
    assert not missing, sorted(missing, key=str)[:3]


def test_intvec_round_trip():
    for i in range(1, 300):
        v = intvec_at(i)
        assert intvec_index(v) == i
        assert not v.is_zero
        assert all(q.denominator == 1 for _, q in v.items())


def test_intvec_distinct_on_prefix():
    vecs = [intvec_at(i) for i in range(1, 300)]
    assert len(set(vecs)) == len(vecs)


def test_intvec_first_entries():
    assert intvec_at(1) == FinVec({1: -1})
    assert intvec_at(2) == FinVec({1: -1, 2: -1})


def test_intvec_scan_cap():
    with pytest.raises(CapacityExceededError):
        intvec_index(FinVec({9: 1000}), scan_cap=10_000)


def test_intvec_code_stops_once_past_the_cap():
    # the capped code is the full one up to the cap, and past the cap with it
    cap = 1000
    for v in [intvec_at(i) for i in range(1, 400)] + [FinVec({3: 40}), FinVec({1: 5, 6: -1})]:
        full = bookkeeping._encode_vec(v, bookkeeping.int_code0)
        capped = bookkeeping._encode_vec(v, bookkeeping.int_code0, cap)
        assert capped == full if full <= cap else capped > cap
    # the full codes would square about 63 and 10^12 times: neither is built
    for v in (FinVec({64: 1}), FinVec({10 ** 12: 1})):
        with pytest.raises(CapacityExceededError) as info:
            intvec_index(v, scan_cap=cap)
        assert (info.value.required, info.value.cap) == (cap + 1, cap)


def test_intvec_scan_cap_refuses_before_decoding(monkeypatch):
    def refuse(code):
        raise AssertionError("decoded a code past the cap")

    monkeypatch.setattr(bookkeeping, "_intvec_decode", refuse)
    cap = 1000
    for lookup in (lambda: intvec_index(FinVec({1: 10 ** 9}), scan_cap=cap),
                   lambda: intvec_at(cap + 1, scan_cap=cap)):
        with pytest.raises(CapacityExceededError) as info:
            lookup()
        assert (info.value.required, info.value.cap) == (cap + 1, cap)
        assert str(info.value) == f"integer-vector scan passed the cap of {cap} codes"


def test_lookups_at_large_arguments_retain_no_memory():
    last = bookkeeping._rat_count(bookkeeping.RAT_HEIGHT_CAP + 1, {})
    enum_rat.cache_clear()  # a cached answer would retain nothing vacuously
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert intvec_at(800_000) == FinVec({1: 627, 2: 7, 3: -1, 4: -1})
        assert enum_rat(last) == Fraction(100_000, 99_999)
        assert rat_code0(Fraction(1, 99_991)) == 12_156_362_803
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained - before < 1000
    assert peak - before < 8_000_000  # at most the units of one height, a list of 10^5 ints


def test_intvec_index_rejects_nonintegral():
    with pytest.raises(ValueError):
        intvec_index(FinVec({1: Fraction(1, 2)}))
    with pytest.raises(EnumerationRangeError):
        intvec_index(FinVec.zero())


def test_partition_vector_frozen():
    minus_e1 = FinVec({1: -1})
    minus_e12 = FinVec({1: -1, 2: -1})
    minus_e123 = FinVec({1: -1, 2: -1, 3: -1})
    assert partition_vector(2) == minus_e1
    assert partition_vector(3) == minus_e1
    assert partition_vector(7) == minus_e1
    assert partition_vector(17) == minus_e1
    assert partition_vector(31) == minus_e1
    assert partition_vector(5) == minus_e12
    assert partition_vector(11) == minus_e12
    assert partition_vector(13) == minus_e123
    assert partition_vector(19) == minus_e12


def test_partition_vector_requires_prime():
    with pytest.raises(NotPrimeError):
        partition_vector(6)


def test_partition_members_agree_with_partition_vector():
    v = FinVec({1: -1})
    members = partition_members(v, 5)
    assert members == [2, 3, 7, 17, 31]
    for p in members:
        assert partition_vector(p) == v
    assert partition_members(FinVec({1: -1, 2: -1}), 2) == [5, 11]


def test_partition_members_prime_cap():
    with pytest.raises(CapacityExceededError):
        partition_members(FinVec({1: -1}), 50, prime_cap=1000)


@pytest.mark.parametrize("cap", [100, 1000, 10_000])
def test_partition_members_return_every_class_prime_below_the_cap(cap):
    by_vec: dict[FinVec, list[int]] = {}
    for p in primes_up_to(cap):
        by_vec.setdefault(partition_vector(p), []).append(p)
    for v, primes in by_vec.items():
        assert partition_members(v, len(primes), prime_cap=cap) == primes
        with pytest.raises(CapacityExceededError):
            partition_members(v, len(primes) + 1, prime_cap=cap)


def test_partition_members_refuse_before_sieving():
    # the first member of the class of 2e1 has prime index 78, and 78 ln 78
    # passes the cap, so the refusal reports that bound instead of the prime
    with pytest.raises(CapacityExceededError) as info:
        partition_members(FinVec({1: 2}), 1, prime_cap=100)
    assert (info.value.required, info.value.cap) == (int(78 * log(78)) + 1, 100) == (340, 100)


def test_partition_classes_are_disjoint_by_construction():
    # primes 2..100 land in classes given by unpair of their index; classes
    # for distinct vectors never share a prime
    by_vec: dict[FinVec, list[int]] = {}
    for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
        by_vec.setdefault(partition_vector(p), []).append(p)
    seen: set[int] = set()
    for primes in by_vec.values():
        assert not (seen & set(primes))
        seen.update(primes)


def test_fingerprint_frozen():
    assert fingerprint() == FINGERPRINT == "v1:353ca906f3bca6fa"


def test_fingerprint_is_the_hash_of_the_conventions():
    # FINGERPRINT is a literal; editing CONVENTIONS without it must fail here
    digest = hashlib.sha256(bookkeeping.CONVENTIONS.encode()).hexdigest()
    assert FINGERPRINT == "v1:" + digest[:16]


def test_intvec_rank_counts_the_codes_of_nonzero_vectors():
    count = 0
    for c in range(1, 10_001):
        count += not bookkeeping._intvec_decode(c).is_zero
        assert bookkeeping._iv_rank(c, c) == count, c


def test_intvec_scan_cap_refuses_before_decoding_a_sequence(monkeypatch):
    def refuse(code):
        raise AssertionError("decoded a code past the cap")

    monkeypatch.setattr(bookkeeping, "decode_seq", refuse)
    cap = 1000
    for lookup in (lambda: intvec_index(FinVec({1: 10 ** 9}), scan_cap=cap),
                   lambda: intvec_at(cap + 1, scan_cap=cap)):
        with pytest.raises(CapacityExceededError) as info:
            lookup()
        assert (info.value.required, info.value.cap) == (cap + 1, cap)


# The former process-wide tables, kept here as oracles for the counting lookups.

def old_rat_block(h: int) -> list[Fraction]:
    if h == 1:
        return [Fraction(-1), Fraction(0), Fraction(1)]
    units = [d for d in range(1, h) if gcd(d, h) == 1]
    return ([Fraction(-h, d) for d in units] + [Fraction(-n, h) for n in reversed(units)]
            + [Fraction(n, h) for n in units] + [Fraction(h, d) for d in units])


@cache
def old_rat_table() -> list[Fraction]:
    """The rationals of 0-based code below 200,000, block by block."""
    table, h = [], 0
    while len(table) < 200_000:
        h += 1
        table += old_rat_block(h)
    return table[:200_000]


@cache
def old_iv_codes() -> list[int]:
    """The old scan: codes below 200,000 whose sequence is nonempty and does
    not end in 1, the code of the i-th nonzero vector at position i - 1."""
    return [c for c in range(1, 200_000) if (seq := decode_seq(c - 1)) and seq[-1] != 1]


def test_the_least_code_of_rank_i_is_at_most_2i():
    # changing a final entry 1 (the integer 0) to 0 maps the zero codes
    # injectively below, so at most i of the codes up to the i-th are zero
    codes = old_iv_codes()
    assert len(codes) >= 100_000
    assert all(c <= 2 * i for i, c in enumerate(codes[:100_000], start=1))


def test_class_vectors_never_vanish_mod_their_primes():
    # build_context takes the pivot of every prime without a default: the
    # n-th prime p gets the vector of rank i <= n < p, whose entries have
    # 0 < |v| < sqrt(i) + 1 <= p
    primes = primes_up_to(200_000)
    assert len(primes) == 17_984
    for n, p in enumerate(primes, start=1):
        i, _ = unpair(n)
        entries = [v for _, v in partition_vector(p).items()]
        assert entries and all(0 < abs(v) < p and (abs(v) - 1) ** 2 < i for v in entries), p


def test_rational_count_matches_the_old_table():
    table, h, memo = old_rat_table(), 1, {}
    while (below := bookkeeping._rat_count(h, memo)) < len(table):
        assert max(abs(table[below].numerator), table[below].denominator) == h
        assert below == 0 or max(abs(table[below - 1].numerator), table[below - 1].denominator) == h - 1
        h += 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 199_999))
def test_rational_lookups_match_the_old_table(c):
    q = old_rat_table()[c]
    assert enum_rat(c + 1) == q
    assert rat_code0(q) == c


@settings(max_examples=100, deadline=None)
@given(st.integers(-bookkeeping.RAT_HEIGHT_CAP, bookkeeping.RAT_HEIGHT_CAP),
       st.integers(1, bookkeeping.RAT_HEIGHT_CAP))
def test_rat_code0_and_enum_rat_round_trip(num, den):
    q = Fraction(num, den)
    c = rat_code0(q)
    assert enum_rat(c + 1) == q
    h = max(abs(q.numerator), q.denominator)
    assert bookkeeping._rat_count(h, {}) <= c < bookkeeping._rat_count(h + 1, {})


def test_rational_height_cap_refuses_before_counting(monkeypatch):
    cap = bookkeeping.RAT_HEIGHT_CAP
    last = bookkeeping._rat_count(cap + 1, {})
    assert enum_rat(last) == Fraction(cap, cap - 1)
    with pytest.raises(CapacityExceededError) as info:
        enum_rat(last + 1)
    assert (info.value.required, info.value.cap) == (cap + 1, cap)
    assert str(info.value) == f"rational height passed the cap of {cap}"

    def refuse(h, memo):
        raise AssertionError("counted past the height cap")

    monkeypatch.setattr(bookkeeping, "_rat_count", refuse)
    for q in (Fraction(1, 1_000_003), Fraction(10 ** 20), Fraction(-cap - 1, 2)):
        with pytest.raises(CapacityExceededError) as info:
            rat_code0(q)
        assert (info.value.required, info.value.cap) == (max(abs(q.numerator), q.denominator), cap)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 199_999))
def test_intvec_lookups_match_the_old_scan(c):
    codes = old_iv_codes()
    i = bisect_right(codes, c)
    assert bookkeeping._iv_rank(c, c) == i
    if i:
        v = bookkeeping._intvec_decode(codes[i - 1])
        assert intvec_at(i) == v
        assert intvec_index(v) == i
