"""Exact rational and modular arithmetic primitives.

Rationals are plain ``fractions.Fraction`` values, which are always stored
in reduced form with a positive denominator.  The helpers here add the
canonical string form, p-adic valuations, residue reduction, and a small
prime toolkit (deterministic trial division plus a growing sieve).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from fractions import Fraction

from .errors import CapacityExceededError, NotPAdicIntegerError, NotPrimeError

Rational = Fraction

# no leading zeros, no "-0", and a denominator only when it is at least 2
_RATIONAL_RE = re.compile(r"0|-?[1-9][0-9]*(/([2-9]|[1-9][0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """Parse the canonical ``n`` / ``n/d`` form; reject anything non-canonical."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"malformed rational literal: {text!r}")
    num_s, _, den_s = text.partition("/")
    num, den = int(num_s), int(den_s or 1)
    if math.gcd(abs(num), den) != 1:
        raise ValueError(f"rational not in reduced form: {text!r}")
    return Fraction(num, den)


def format_rational(q: Fraction | int) -> str:
    """Canonical string form: sign on the numerator, denominator omitted when 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def is_prime(n: int) -> bool:
    """Deterministic trial division."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def valuation(q: Fraction | int, p: int) -> int | float:
    """p-adic valuation of q; ``math.inf`` for q = 0."""
    _require_prime(p)
    q = Fraction(q)
    if q == 0:
        return math.inf
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def int_valuation(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer n (p is not checked for primality)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def reduce_mod(q: Fraction | int, p: int, m: int = 1) -> int:
    """Representative in [0, p^m) of a p-integral rational mod p^m, via a
    modular inverse of the denominator."""
    _require_prime(p)
    if m < 1:
        raise ValueError(f"modulus exponent must be >= 1, got {m}")
    q = Fraction(q)
    if q != 0 and valuation(q, p) < 0:
        raise NotPAdicIntegerError(f"{format_rational(q)} has a negative {p}-adic valuation")
    mod = p**m
    return q.numerator * pow(q.denominator, -1, mod) % mod


def prime_factors(n: int, cap: int | None = None) -> list[int]:
    """Distinct prime factors of |n| in increasing order, by trial division.

    With a cap, division stops once the divisor passes it, and a cofactor
    left above the cap (all its prime factors are) is refused.
    """
    n = abs(n)
    out = []
    f = 2
    while f * f <= n and (cap is None or f <= cap):
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if cap is not None and n > cap:
        # the cofactor is known prime when the loop ended on f * f > n
        what = "prime" if f * f > n else "factor"
        raise CapacityExceededError(f"{what} {n} exceeds the prime cap", required=n, cap=cap)
    if n > 1:
        out.append(n)
    return out


# Growing prime sieve shared by the enumeration helpers.  The memo only
# caches pure results, so concurrent readers see behaviour as if it were
# absent; growth happens under a lock.
_sieve_lock = threading.Lock()
_PRIMES: list[int] = [2, 3, 5, 7, 11, 13]
_SIEVE_LIMIT = 14


def _extend_sieve(limit: int) -> None:
    global _PRIMES, _SIEVE_LIMIT
    with _sieve_lock:
        if limit <= _SIEVE_LIMIT:
            return
        limit = max(limit, 2 * _SIEVE_LIMIT)
        flags = bytearray([1]) * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for f in range(2, math.isqrt(limit) + 1):
            if flags[f]:
                flags[f * f :: f] = bytearray(len(range(f * f, limit + 1, f)))
        _PRIMES = [i for i, fl in enumerate(flags) if fl]
        _SIEVE_LIMIT = limit


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit > _SIEVE_LIMIT:
        _extend_sieve(limit)
    primes = _PRIMES
    return primes[: bisect_left(primes, limit + 1)]


def nth_prime(n: int) -> int:
    """The n-th prime, 1-based."""
    if n < 1:
        raise ValueError(f"prime index must be >= 1, got {n}")
    while len(_PRIMES) < n:
        # overshoot estimate of p_n, then grow geometrically if short
        est = 100 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 10
        _extend_sieve(max(est, 2 * _SIEVE_LIMIT))
    return _PRIMES[n - 1]


def check_nth_prime_cap(n: int, cap: int) -> None:
    """Refuse the n-th prime before sieving: p_n > n ln n for every n >= 1
    (Rosser), so n ln n >= cap proves p_n > cap."""
    bound = n * Fraction(math.log(n))  # exact product, so no float overflow at large n
    if bound >= cap:
        raise CapacityExceededError(f"the prime of index {n} exceeds the prime cap",
                                    required=math.floor(bound) + 1, cap=cap)


def prime_index(p: int) -> int:
    """1-based rank of p among the primes."""
    _require_prime(p)
    if p > _SIEVE_LIMIT:
        _extend_sieve(p)
    return bisect_left(_PRIMES, p) + 1
