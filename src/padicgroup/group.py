"""Membership, purification, and span tests for the divisibility-constrained group.

The group lives inside pairs (x0, x) of a rational and a finitely supported
rational vector.  An element belongs iff for every prime p the value
x0 + <phi, x> is p-integral for all condition vectors phi attached to p.
That is an infinite family, but the value only depends on phi through its
residue r on the support window of x modulo a power of p, so membership
reduces to the finite residue sets produced by the construction module.
Membership and saturation read l_r(y) = y0 + <r, y.x> through a few integer
congruences that span its values on them.

Purification computes the pure closure of a finitely generated subgroup:
all group elements some positive multiple of which falls in the rational
span of the generators.  With a certified denominator bound the result is
exact; without one the search is capped and flagged.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import linalg
from .arith import prime_factors, primes_up_to
from .bookkeeping import FINGERPRINT
from .config import DEFAULT, Config
from .construction import CACHE_SIZE, build_context, first_failing_residue, layer_conditions
from .errors import CapacityExceededError, NotInGroupError
from .vectors import FinVec, GroupElement, Record


class MembershipVerdict(Record):
    _fields = __slots__ = ("member", "failing_prime", "failing_residue", "reason", "checked_primes")

    def __init__(self, member: bool, failing_prime: int | None = None, failing_residue: FinVec | None = None,
                 reason: str | None = None, checked_primes: tuple[int, ...] = ()):
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "failing_prime", failing_prime)
        object.__setattr__(self, "failing_residue", failing_residue)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "checked_primes", checked_primes)

    def __bool__(self) -> bool:
        return self.member

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "failing_prime": self.failing_prime,
            "failing_residue": None if self.failing_residue is None else self.failing_residue.to_json(),
            "reason": self.reason,
            "checked_primes": list(self.checked_primes),
            "fingerprint": FINGERPRINT,
        }


@lru_cache(maxsize=CACHE_SIZE)
def _conditions(p: int, w: int, m: int, config: Config):
    """The layer conditions of the residues mod p^m on the window [1, w],
    cached per (p, w, m, config).  Their values and f(r) = den * l_r(row /
    den) are integer combinations of each other (layer_conditions), so they
    decide the p-integrality of every f(r) / p^e, e = v_p(den), at m = max(1,
    e - v_p(g)), g the gcd of the x numerators, and the F_p span of those
    values at m = 1 + e - min(e, v_p(g)).  At m = 1 every x numerator has
    valuation at least e - 1 (e for the span), so p e_piv holds for every
    row.  An empty window has the zero residue only and needs no context."""
    if w == 0:
        return ((1, 0, 0, 0, 0),)
    return layer_conditions(build_context(p, config), w, m)


def membership(e: GroupElement, config: Config = DEFAULT) -> MembershipVerdict:
    """Decide membership, reporting the first violated (prime, residue) pair.

    Only primes dividing some component denominator can fail: condition
    vectors are integral, so they keep p-integral inputs p-integral.  A
    member passes every layer condition, with no residue enumerated.  On a
    failure the first failing residue in scan order is reported, named from
    the first failing condition by construction.first_failing_residue at
    every modulus exponent, so no residue cap applies.  The cleared x part
    is kept sparse, so the work follows its support and not its largest
    index.  Trial division stops at config.prime_cap: a denominator with a
    prime factor past it is refused before any condition is checked.
    """
    den, y0, x, g = e.cleared()
    primes = prime_factors(den, config.prime_cap)
    w = e.x.max_support
    at = x.get  # index 0 stands for an absent term and reads 0
    rest = den
    for p in primes:
        scale, m, rest = p, 1, rest // p  # scale = p^e, e = v_p(den), and m = max(1, e - v_p(g))
        while not rest % p:
            m += g % scale != 0
            scale, rest = scale * p, rest // p
        for c0, j, cj, piv, cp in _conditions(p, w, m, config):
            if (c0 * y0 + cj * at(j, 0) + cp * at(piv, 0)) % scale:
                break
        else:
            continue
        r = first_failing_residue(p, w, (c0, j, cj, piv, cp), y0, x, scale, config)
        if e.x.is_zero:
            reason = f"leading coordinate {e.x0} is not {p}-integral; axis elements must be integers"
        else:
            num = y0 + sum(v * at(i, 0) for i, v in r.items())
            reason = f"x0 + <r, x> = {Fraction(num, den)} is not {p}-integral"
        return MembershipVerdict(False, p, r, reason, tuple(primes))
    return MembershipVerdict(True, None, None, None, tuple(primes))


def is_member(e: GroupElement, config: Config = DEFAULT) -> bool:
    return membership(e, config).member


def in_integer_axis(e: GroupElement) -> bool:
    """True iff e = (n, 0) for an integer n."""
    return e.x.is_zero and e.x0.denominator == 1


def element_row(e: GroupElement, k: int) -> list[Fraction]:
    """Flatten to [x0, x_1, ..., x_k]; requires support(x) within 1..k."""
    if e.x.max_support > k:
        raise ValueError(f"support {e.x.max_support} exceeds row width {k}")
    return [e.x0] + [e.x[i] for i in range(1, k + 1)]


def row_element(row: list, den: int = 1) -> GroupElement:  # (row[0], row[1:]) / den
    return GroupElement(Fraction(row[0], den), FinVec({i: Fraction(v, den) for i, v in enumerate(row[1:], 1) if v}))


def spans_disjoint(gens1, gens2) -> bool:
    """True iff the rational spans intersect only in zero."""
    gens1, gens2 = list(gens1), list(gens2)
    k = max([0] + [g.x.max_support for g in gens1 + gens2])
    rows1 = [element_row(g, k) for g in gens1]
    rows2 = [element_row(g, k) for g in gens2]
    r1 = linalg.rank(rows1, k + 1)
    r2 = linalg.rank(rows2, k + 1)
    return r1 + r2 == linalg.rank(rows1 + rows2, k + 1)


class PurifyResult(Record):
    _fields = __slots__ = ("basis", "status", "probed", "bound")

    def __init__(self, basis: tuple[GroupElement, ...],
                 status: str,              # "complete" | "possibly-incomplete"
                 probed: tuple[int, ...],  # primes at which saturation was attempted
                 bound: int | None):
        super().__init__(basis, status, probed, bound)

    def to_json(self) -> dict:
        return {
            "basis": [e.to_json() for e in self.basis],
            "status": self.status,
            "probed": list(self.probed),
            "bound": self.bound,
            "fingerprint": FINGERPRINT,
        }


def saturation_kernel(lat: linalg.RatLattice, p: int, config: Config = DEFAULT) -> list[list[int]]:
    """Coefficients c over F_p with (1/p) sum c_i b_i a group element, as a kernel basis.

    The rows b_i of ``lat`` must lie in the group.  A combination
    (1/p) sum c_i b_i can then fail membership only at p, and it is a
    member iff sum c_i l_r(b_i) = 0 mod p for every window residue r of
    the family, where l_r(y) = y0 + <r, y.x> is p-integral.  The layer
    conditions of _conditions span the same values over Z, so the members
    form the kernel of one condition-by-row matrix over F_p, and
    EchelonModP, a reduced form, returns the same basis as for the residue
    matrix.  The loop stops as soon as that matrix has full column rank.
    """
    g, scale, m, rest = gcd(*(v for row in lat.rows for v in row[1:])), 1, 1, lat.den
    while not rest % p:  # scale = p^e, e = v_p(den), and m = 1 + e - min(e, v_p(g))
        scale, rest = scale * p, rest // p
        m += g % scale != 0
    echelon = linalg.EchelonModP(p, lat.dim)
    for c0, j, cj, piv, cp in _conditions(p, lat.ncols - 1, m, config):
        values = []
        for row in lat.rows:
            num = c0 * row[0] + cj * row[j] + cp * row[piv]
            if num % scale:
                raise NotInGroupError(f"lattice row {row} / {lat.den} is not a group element at {p}")
            values.append(num // scale)
        if echelon.insert(values) and echelon.rank == lat.dim:
            return []
    return echelon.kernel()


def purify(gens, bound: int | None = None, config: Config = DEFAULT) -> PurifyResult:
    """Pure closure of the subgroup generated by gens, as a lattice basis.

    Starts from the generators together with all integer points of their
    rational span (integer vectors are always members), then saturates at
    each candidate prime p: each round adjoins (1/p) sum c_i b_i for a
    basis c of saturation_kernel, in integers (RatLattice.adjoin), until
    that kernel is trivial.  The fixpoint G meet L[1/p] is unique and its
    Hermite basis canonical.
    With a certified bound D the candidate primes are exactly the divisors
    of D and the fixpoint is the full pure closure; otherwise primes up to
    the configured cap are probed and the result is marked
    possibly-incomplete.  A factor of D past the prime cap is refused before
    any round; trial division stops at the cap.
    """
    if bound is not None and bound < 1:
        raise ValueError("bound must be a positive integer")
    gens = list(gens)
    for idx, g in enumerate(gens):
        if not is_member(g, config):
            raise NotInGroupError(f"generator {idx} is not a group element: {g!r}")
    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        return PurifyResult((), "complete", (), bound)
    k = max(g.x.max_support for g in nonzero)
    ncols = k + 1
    gen_rows = [element_row(g, k) for g in nonzero]
    int_rows = linalg.integer_span_points(gen_rows, ncols)
    if k == 0:
        # span lies on the axis; its members are exactly the integer points
        return PurifyResult(tuple(map(row_element, int_rows)), "complete", (), bound)
    lat = linalg.RatLattice.from_rows(gen_rows + int_rows, ncols)

    if bound is not None:
        primes = prime_factors(bound, config.prime_cap)
        status = "complete"
    else:
        primes = sorted(set(primes_up_to(config.purify_prime_cap)) | set(prime_factors(lat.den)))
        status = "possibly-incomplete"

    for p in primes:
        for _ in range(config.purify_round_cap):
            kernel = saturation_kernel(lat, p, config)
            if not kernel:
                break
            lat = lat.adjoin(kernel, p)
        else:
            raise CapacityExceededError(
                f"saturation at prime {p} did not stabilize",
                required=config.purify_round_cap + 1, cap=config.purify_round_cap,
            )
    return PurifyResult(tuple(row_element(row, lat.den) for row in lat.rows), status, tuple(primes), bound)
