"""Frozen enumeration conventions.

Every artifact this package produces depends on the bookkeeping fixed
here: the pairing bijection, the orderings of rationals and integers, the
coding of finite sequences, the enumerations of rational and integer
vectors, and the assignment of a nonzero integer vector to every prime.
The rules are spelled out in ``CONVENTIONS`` and hashed into a fingerprint
that is embedded in every persisted artifact; two artifacts interoperate
only when their fingerprints agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, isqrt

from .arith import check_nth_prime_cap, nth_prime, prime_index
from .errors import CapacityExceededError, EnumerationRangeError
from .vectors import FinVec

CONVENTIONS = """\
bookkeeping conventions, version 1

pairing         pair(i, j) = (i+j-2)(i+j-1)/2 + i on positive integers,
                walking anti-diagonals; pair0(x, y) = pair(x+1, y+1) - 1 is
                the zero-based form.
rationals       reduced fractions ordered by the key (h, numerator,
                denominator) with height h = max(|numerator|, denominator);
                enum_rat is 1-based, its 0-based form shifts by one.
integers        the same height order restricted to integers:
                -1, 0, 1, -2, 2, -3, 3, ...
sequences       finite sequences of nonnegative integers coded by s() = 0
                and s(x::rest) = pair0(x, s(rest)) + 1.
rational vecs   index i decodes i-1 to a sequence, maps entries through the
                0-based rational order onto components 1..n; a trailing zero
                component marks a non-canonical code and yields the zero
                vector.  The index of a vector encodes its canonical
                (trailing-zero-free) component list.
integer vecs    the same decoding with the 0-based integer order, skipping
                codes that yield the zero vector; the enumeration is
                1-based and bijective onto nonzero vectors.
prime classes   the n-th prime is assigned the integer vector at index i
                where (i, j) = unpair(n); each class is infinite.
hyperplanes     solution sets of <m, [x]> = a over (Z/p)^l enumerated by
                writing n-1 in base p onto the non-pivot coordinates in
                increasing position order (lowest digit at the smallest
                position) and solving for the pivot, the largest position
                in the support of [x]; when [x] = 0 all coordinates are
                free.  Representatives are lifted to {0..p-1}.
blocks          block k (k >= 1) holds k+1 vectors taken from the stream
                that repeats the hyperplane enumeration round-robin; block
                k consumes stream items (k-1)(k+2)/2 + 1 .. k(k+3)/2.  The
                j-th vector of a block (1 <= j <= k) is perturbed by
                p^(s+1) at position j, where s is minimal with
                p^(s+1) > k(p-1); vector 0 is left alone.
context         for a prime p with assigned vector x: l = 1 + max(p,
                max support(x)); an index i is relevant when i < p-1 and p
                divides no component denominator of the i-th rational
                vector; a = 0 when [x] = 0 and otherwise the smallest
                nonzero residue distinct from <[-v_i], [x]> for every
                relevant i.
"""

# "v1:" and the first 16 hex digits of sha256(CONVENTIONS), written out so
# that importing the package needs no hashlib; a test recomputes it
FINGERPRINT = "v1:353ca906f3bca6fa"


def fingerprint() -> str:
    """Identifier of the frozen conventions above."""
    return FINGERPRINT


# ---------------------------------------------------------------------------
# pairing

def pair(i: int, j: int) -> int:
    """Anti-diagonal pairing bijection on positive integers."""
    if i < 1 or j < 1:
        raise EnumerationRangeError(f"pair needs positive arguments, got ({i}, {j})")
    return (i + j - 2) * (i + j - 1) // 2 + i


def unpair(n: int) -> tuple[int, int]:
    if n < 1:
        raise EnumerationRangeError(f"unpair needs a positive argument, got {n}")
    x, y = unpair0(n - 1)
    return x + 1, y + 1


def pair0(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + x


def unpair0(z: int) -> tuple[int, int]:
    t = (isqrt(8 * z + 1) - 1) // 2
    x = z - t * (t + 1) // 2
    return x, t - x


def _heads(bound: int) -> int:
    """Number of heads x of the sequences coded below bound >= 1: those with
    pair0(x, 0) + 1 < bound, that is x(x+3)/2 <= bound - 2."""
    return (isqrt(8 * bound - 7) - 3) // 2 + 1


# ---------------------------------------------------------------------------
# scalar enumerations

RAT_HEIGHT_CAP = 100_000  # largest rational height a lookup may reach


@lru_cache(maxsize=256)
def _rat_block(h: int) -> list[Fraction]:
    """All reduced fractions of height h, ordered by (numerator, denominator):
    -h/d, then n/h for |n| < h, then h/d, with d and |n| coprime to h."""
    if h == 1:
        return [Fraction(-1), Fraction(0), Fraction(1)]
    units = [d for d in range(1, h) if gcd(d, h) == 1]  # d = h and n = 0 share the factor h
    return ([Fraction(-h, d) for d in units] + [Fraction(-n, h) for n in reversed(units)]
            + [Fraction(n, h) for n in units] + [Fraction(h, d) for d in units])


def _totient_sum(n: int, memo: dict) -> int:
    """phi(1) + ... + phi(n).  Its values at n // d over d = 1..n add up to
    n(n+1)/2, and n // d takes O(sqrt n) values; memo keeps those seen."""
    if n in memo:
        return memo[n]
    total, d = n * (n + 1) // 2, 2
    while d <= n:
        last = n // (n // d)
        total -= (last - d + 1) * _totient_sum(n // d, memo)
        d = last + 1
    memo[n] = total
    return total


def _rat_count(h: int, memo: dict) -> int:
    """Number of rationals of height below h: 3 of height 1, 4 phi(k) of height k >= 2."""
    return max(4 * _totient_sum(h - 1, memo) - 1, 0)


@lru_cache(maxsize=1 << 12)
def enum_rat(n: int) -> Fraction:
    """The n-th rational (1-based) in the height order."""
    if n < 1:
        raise EnumerationRangeError(f"rational index must be >= 1, got {n}")
    memo: dict = {}
    # about 12 h^2 / pi^2 rationals have height <= h; up to the cap h is off by <= 2
    h = max(1, min(isqrt(n * 100_000 // 121_585), RAT_HEIGHT_CAP))
    while _rat_count(h, memo) >= n:
        h -= 1
    while _rat_count(h + 1, memo) < n:
        if h == RAT_HEIGHT_CAP:
            raise CapacityExceededError(f"rational height passed the cap of {h}", required=h + 1, cap=h)
        h += 1
    if h == 1:
        return Fraction(n - 2)
    units = [t for t in range(1, h) if gcd(t, h) == 1]
    segment, i = divmod(n - 1 - _rat_count(h, memo), len(units))
    t = units[-1 - i if segment == 1 else i]  # the numerators -t/h run downwards
    return (Fraction(-h, t), Fraction(-t, h), Fraction(t, h), Fraction(h, t))[segment]


def check_rat_height(q: Fraction | int) -> tuple[int, int, int]:
    """(numerator, denominator, height) of q, refused past RAT_HEIGHT_CAP."""
    n, d = q.numerator, q.denominator
    h = max(abs(n), d)
    if h > RAT_HEIGHT_CAP:
        raise CapacityExceededError(
            f"rational height passed the cap of {RAT_HEIGHT_CAP}", required=h, cap=RAT_HEIGHT_CAP)
    return n, d, h


def rat_code0(q: Fraction | int) -> int:
    """0-based position of q in the height order (inverse of enum_rat, shifted)."""
    n, d, h = check_rat_height(q)
    if h == 1:
        return n + 1
    units = [t for t in range(1, h) if gcd(t, h) == 1]
    segment = (0 if n < 0 else 3) if d < h else (1 if n < 0 else 2)
    i = units.index(d if d < h else abs(n))
    return _rat_count(h, {}) + segment * len(units) + (len(units) - 1 - i if segment == 1 else i)


def int_at0(c: int) -> int:
    """0-based integer enum in height order: -1, 0, 1, -2, 2, -3, 3, ..."""
    if c < 0:
        raise EnumerationRangeError(f"integer code must be >= 0, got {c}")
    if c < 3:
        return c - 1
    h = 2 + (c - 3) // 2
    return -h if (c - 3) % 2 == 0 else h


def int_code0(v: int) -> int:
    v = int(v)
    if -1 <= v <= 1:
        return v + 1
    return 3 + 2 * (abs(v) - 2) + (0 if v < 0 else 1)


# ---------------------------------------------------------------------------
# sequence coding

def decode_seq(code: int) -> list[int]:
    """Finite sequence of nonnegative integers coded by ``code`` >= 0."""
    if code < 0:
        raise EnumerationRangeError(f"sequence code must be >= 0, got {code}")
    out = []
    while code:
        x, code = unpair0(code - 1)
        out.append(x)
    return out


def encode_seq(seq: list[int]) -> int:
    code = 0
    for x in reversed(seq):
        code = pair0(x, code) + 1
    return code


# ---------------------------------------------------------------------------
# vector enumerations

def _decode_vec(code: int, scalar) -> FinVec:
    """Vector at 1-based ``code``: components 1..n are ``scalar`` of the
    decoded sequence; a trailing zero component yields the zero vector."""
    vals = [scalar(c) for c in decode_seq(code - 1)]
    if vals and vals[-1] == 0:
        return FinVec()
    return FinVec(enumerate(vals, start=1))


def _encode_vec(v: FinVec, scalar_code, cap: float = inf) -> int:
    """1-based code of v's canonical (trailing-zero-free) component list, or of a tail
    of it once that passes the cap, as each step maps c to pair0(x, c) + 1 > c."""
    code = 0
    for i in range(v.max_support, 0, -1):
        code = pair0(scalar_code(v[i]), code) + 1
        if code > cap:
            break
    return code + 1


def enum_qvec(i: int) -> FinVec:
    """The i-th finitely supported rational vector (1-based, surjective)."""
    if i < 1:
        raise EnumerationRangeError(f"vector index must be >= 1, got {i}")
    return _decode_vec(i, lambda c: enum_rat(c + 1))


def qvec_index(v: FinVec) -> int:
    """Smallest index whose decode equals v (encodes the canonical component list)."""
    return _encode_vec(v, rat_code0)


def _intvec_decode(code: int) -> FinVec:
    return _decode_vec(code, int_at0)


DEFAULT_SCAN_CAP = 1_000_000


def _iv_rank(c: int, cap: int) -> int:
    """Number of codes in 1..c of nonzero integer vectors, refused past the cap.
    Code z + 1 is zero when z = 0 or the sequence coded by z ends in 1: z = 3,
    or z = pair0(x, r) + 1 with r ending in 1, where r(r+1)/2 <= pair0(x, r)."""
    if c > cap:
        raise CapacityExceededError(
            f"integer-vector scan passed the cap of {cap} codes", required=cap + 1, cap=cap)
    ends, zero, r = [False], int(c > 3), 1  # ends[r]: the sequence coded by r ends in 1
    while r * (r + 1) // 2 + 1 < c:
        x, rest = unpair0(r - 1)
        ends.append(ends[rest] if rest else x == 1)
        if ends[r]:  # the heads x with pair0(x, r) + 1 < c, i.e. (x+r)(x+r+3)/2 <= c + r - 2
            zero += _heads(c + r) - r
        r += 1
    return c - 1 - zero


def intvec_at(i: int, scan_cap: int = DEFAULT_SCAN_CAP) -> FinVec:
    """The i-th nonzero finitely supported integer vector (1-based)."""
    if i < 1:
        raise EnumerationRangeError(f"vector index must be >= 1, got {i}")
    # the least code of rank i: ranks grow by one per code at most, so c never passes it
    c = i
    while missing := i - _iv_rank(c, scan_cap):
        c += missing
    return _intvec_decode(c)


def intvec_index(v: FinVec, scan_cap: int = DEFAULT_SCAN_CAP) -> int:
    """Position of a nonzero integer vector in the enumeration."""
    if v.is_zero:
        raise EnumerationRangeError("the zero vector is not enumerated")
    for _, val in v.items():
        if Fraction(val).denominator != 1:
            raise ValueError(f"not an integer vector: {v!r}")
    # a canonical code of a nonzero vector decodes nonzero, so it counts itself
    return _iv_rank(_encode_vec(v, int_code0, scan_cap), scan_cap)


# ---------------------------------------------------------------------------
# prime partition

def partition_vector(p: int, scan_cap: int = DEFAULT_SCAN_CAP) -> FinVec:
    """The nonzero integer vector whose class contains the prime p; prime_index
    refuses a p that is not prime."""
    i, _ = unpair(prime_index(p))
    return intvec_at(i, scan_cap)


def partition_members(
    v: FinVec, count: int, prime_cap: int = 1_000_000, scan_cap: int = DEFAULT_SCAN_CAP
) -> list[int]:
    """The first ``count`` primes whose class vector is v, ascending."""
    if count < 0:
        raise EnumerationRangeError(f"count must be >= 0, got {count}")
    i = intvec_index(v, scan_cap)
    out = []
    for j in range(1, count + 1):
        n = pair(i, j)
        check_nth_prime_cap(n, prime_cap)
        p = nth_prime(n)
        if p > prime_cap:
            raise CapacityExceededError(
                f"partition member {p} exceeds the prime cap {prime_cap}",
                required=p,
                cap=prime_cap,
            )
        out.append(p)
    return out
