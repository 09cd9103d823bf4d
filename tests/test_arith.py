import math
from fractions import Fraction

import pytest

from padicgroup.arith import (
    format_rational,
    is_prime,
    nth_prime,
    parse_rational,
    prime_factors,
    prime_index,
    primes_up_to,
    reduce_mod,
    valuation,
)
from padicgroup.errors import CapacityExceededError, NotPAdicIntegerError, NotPrimeError


def test_parse_rational_round_trip():
    for text in ["0", "1", "-1", "7", "-3/4", "22/7", "-1/1000000007"]:
        q = parse_rational(text)
        assert format_rational(q) == text


def test_parse_rational_rejects_garbage():
    for text in ["", "1/0", "2/4", "-2/-4", "1.5", "3 / 4", "+5", "a/b", "1/ 2",
                 "1\n", "007", "-0", "2/1", "-0/1", "3/01"]:
        with pytest.raises(ValueError):
            parse_rational(text)


def test_format_rational_integers_have_no_slash():
    assert format_rational(Fraction(10, 5)) == "2"
    assert format_rational(-7) == "-7"
    assert format_rational(True) == "1"


def test_is_prime_small_table():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_agrees_with_trial_division():
    for n in range(2, 2000):
        brute = all(n % d for d in range(2, int(math.isqrt(n)) + 1))
        assert is_prime(n) == brute


def test_valuation_by_direct_division():
    assert valuation(0, 2) == math.inf
    assert valuation(40, 2) == 3
    assert valuation(40, 5) == 1
    assert valuation(Fraction(9, 8), 2) == -3
    assert valuation(Fraction(9, 8), 3) == 2
    assert valuation(Fraction(-7, 3), 7) == 1
    assert valuation(Fraction(1, 4), 2) == -2
    assert valuation(Fraction(1, 4), 3) == 0
    with pytest.raises(NotPrimeError):
        valuation(6, 4)


def test_valuation_is_additive():
    a, b = Fraction(18, 5), Fraction(-50, 27)
    for p in (2, 3, 5):
        assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


def test_reduce_mod_examples():
    # 1/3 mod 5: 3*2 = 6 = 1 mod 5, so 1/3 = 2
    assert reduce_mod(Fraction(1, 3), 5) == 2
    # -1 mod 7
    assert reduce_mod(-1, 7) == 6
    # 1/3 mod 2^3: inverse of 3 mod 8 is 3, so value 3
    assert reduce_mod(Fraction(1, 3), 2, 3) == 3
    with pytest.raises(NotPAdicIntegerError):
        reduce_mod(Fraction(1, 2), 2)


def test_reduce_mod_is_ring_homomorphism():
    vals = [Fraction(1, 3), Fraction(7, 5), Fraction(-2, 9), 4]
    for p, m in ((2, 1), (2, 3), (7, 2)):
        for a in vals:
            for b in vals:
                ra, rb = reduce_mod(a, p, m), reduce_mod(b, p, m)
                assert reduce_mod(a + b, p, m) == (ra + rb) % p**m
                assert reduce_mod(a * b, p, m) == (ra * rb) % p**m


def test_residue_validation():
    # the modulus must be a positive power of a prime
    with pytest.raises(ValueError):
        reduce_mod(0, 2, 0)
    with pytest.raises(NotPrimeError):
        reduce_mod(1, 6, 1)


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(2) == [2]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(97) == [97]


def test_prime_factors_within_a_cap():
    assert prime_factors(360, cap=5) == [2, 3, 5]
    assert prime_factors(2 * 97, cap=97) == [2, 97]
    assert prime_factors(1, cap=1) == []


@pytest.mark.parametrize("n, cap, detail", [
    (1009, 1000, "prime 1009"),                  # a prime past the cap
    (1009 * 1013, 1000, "factor 1022117"),       # two primes past it: division stops at the cap
    (2 * 1009, 1000, "prime 1009"),              # 2 divides out; the prime cofactor is refused
    (2 ** 61 - 1, 10 ** 4, "factor 2305843009213693951"),
])
def test_prime_factors_refuses_a_cofactor_past_the_cap(n, cap, detail):
    with pytest.raises(CapacityExceededError, match=f"^{detail} exceeds the prime cap$") as info:
        prime_factors(n, cap=cap)
    assert (info.value.required, info.value.cap) == (int(detail.split()[1]), cap)


def test_primes_up_to_matches_sieve_of_eratosthenes():
    limit = 500
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(math.isqrt(limit)) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    expected = [i for i, f in enumerate(flags) if f]
    assert primes_up_to(limit) == expected
    assert primes_up_to(1) == []


def test_nth_prime_and_index_are_inverse():
    assert nth_prime(1) == 2
    assert nth_prime(25) == 97
    assert nth_prime(100) == 541
    for n in range(1, 120):
        assert prime_index(nth_prime(n)) == n
    with pytest.raises(ValueError):
        nth_prime(0)
    with pytest.raises(NotPrimeError):
        prime_index(9)
