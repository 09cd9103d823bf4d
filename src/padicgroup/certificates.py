"""Divisibility witnesses and freeness certificates, with independent verifiers.

Two kinds of portable evidence are produced here:

* A divisibility witness for a nonzero coset modulo the integer axis: an
  explicit z with p*z congruent to the cleared element modulo the axis,
  plus Bezout data turning that into divisibility of the original element.
* A freeness certificate for a finite-rank subgroup whose span misses the
  integer axis: a functional lambda reproducing x0 from the vector part, a
  finite bad-prime set with nonsingular translate matrices bounding all
  denominators by an explicit D, and a basis of the pure closure.

Verifiers recheck every claim from scratch and return a reason on failure
instead of raising, so tampered artifacts are diagnosed, not crashed on.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from . import linalg
from .arith import format_rational, int_valuation, is_prime, parse_rational, prime_factors, primes_up_to
from .bookkeeping import FINGERPRINT, check_rat_height, enum_qvec, partition_members, qvec_index
from .config import DEFAULT, Config, check_prime_cap
from .construction import build_context, condition_block
from .errors import (
    CapacityExceededError,
    NoQuotientContentError,
    NotInGroupError,
    SpanMeetsAxisError,
    WrongPrimeError,
)
from .group import element_row, in_integer_axis, is_member, purify, saturation_kernel
from .vectors import FinVec, GroupElement, Record


class CheckOutcome(Record):
    _fields = __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str | None = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "reason", reason)

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {"ok": self.ok, "reason": self.reason, "fingerprint": FINGERPRINT}


def _json_object(data, kind: str, required: set) -> None:
    if not isinstance(data, dict) or set(data) != required:
        raise ValueError(f"{kind} must be a JSON object with exactly the keys {sorted(required)}")


def _json_int(value, name: str) -> int:
    # bool is an int subclass; floats and numeric strings are not integers
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_list(value, name: str, length: int | None = None) -> list:
    if not isinstance(value, list) or length not in (None, len(value)):
        raise ValueError(f"{name} must be a JSON array" + ("" if length is None else f" of length {length}"))
    return value


def _json_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a JSON string, got {value!r}")
    return value


class DivisibilityWitness(Record):
    _fields = __slots__ = ("p", "a_int", "d", "z", "bezout", "fingerprint")

    def __init__(self, p: int, a_int: int, d: int, z: GroupElement,
                 bezout: tuple[int, int],  # (a, b) with a*d + b*p = 1
                 fingerprint: str = FINGERPRINT):
        super().__init__(p, a_int, d, z, bezout, fingerprint)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "a_int": self.a_int,
            "d": self.d,
            "z": self.z.to_json(),
            "bezout": list(self.bezout),
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DivisibilityWitness":
        _json_object(data, "witness", {"p", "a_int", "d", "z", "bezout", "fingerprint"})
        return cls(
            p=_json_int(data["p"], "p"),
            a_int=_json_int(data["a_int"], "a_int"),
            d=_json_int(data["d"], "d"),
            z=GroupElement.from_json(data["z"]),
            bezout=tuple(_json_int(v, "bezout") for v in _json_list(data["bezout"], "bezout", 2)),
            fingerprint=_json_str(data["fingerprint"], "fingerprint"),
        )


def divisibility_witness(e: GroupElement, p: int, config: Config = DEFAULT) -> DivisibilityWitness:
    """Witness that p divides the coset of e modulo the integer axis.

    Requires p in the partition class of the cleared vector part d*x and
    p coprime to the cleared denominator d.  The witness z satisfies
    p*z - d*e in the axis; the Bezout pair (a, b) with a*d + b*p = 1 then
    gives eta = a*z + b*e with e - p*eta in the axis.  A prime past
    config.prime_cap is refused before any work.
    """
    check_prime_cap(p, config)
    if not is_member(e, config):
        raise NotInGroupError(f"element is not in the group: {e!r}")
    if e.x.is_zero:
        raise NoQuotientContentError("element lies on the integer axis; its coset is zero")
    d = e.denominator_lcm()
    cleared = e.scale(d)
    ctx = build_context(p, config)  # refuses a non-prime before d % p divides by it
    if d % p == 0:
        raise WrongPrimeError(f"prime {p} divides the cleared denominator {d}")
    if ctx.vec != cleared.x:
        raise WrongPrimeError(
            f"prime {p} lies in the partition class of {ctx.vec!r}, not of {cleared.x!r}"
        )
    a_int = ctx.target
    z = GroupElement(Fraction(-a_int, p), cleared.x.scale(Fraction(1, p)))
    if not is_member(z, config):  # pragma: no cover - construction guarantees this
        raise RuntimeError(f"witness candidate unexpectedly outside the group: {z!r}")
    a = pow(d, -1, p)
    b = (1 - a * d) // p
    return DivisibilityWitness(p=p, a_int=a_int, d=d, z=z, bezout=(a, b))


def witness_primes(e: GroupElement, n: int, config: Config = DEFAULT) -> list[int]:
    """The first n primes of the partition class of the cleared vector part
    of e (off the axis) that do not divide its cleared denominator d."""
    d = e.denominator_lcm()
    cleared_x = e.scale(d).x
    fetch = n
    primes: list[int] = []
    while len(primes) < n:
        fetch += n
        candidates = partition_members(cleared_x, fetch, config.prime_cap, config.scan_cap)
        primes = [p for p in candidates if d % p != 0][:n]
    return primes


def verify_witness(e: GroupElement, wit: DivisibilityWitness, config: Config = DEFAULT) -> CheckOutcome:
    """Recheck a divisibility witness, trusting none of its fields.  A prime
    past config.prime_cap is refused (raised, not reported) before any work."""
    check_prime_cap(wit.p, config)
    if wit.fingerprint != FINGERPRINT:
        return CheckOutcome(False, f"fingerprint {wit.fingerprint!r} does not match {FINGERPRINT!r}")
    if not is_prime(wit.p):
        return CheckOutcome(False, f"{wit.p} is not prime")
    if not is_member(e, config):
        return CheckOutcome(False, "element is not in the group")
    if e.x.is_zero:
        return CheckOutcome(False, "element lies on the integer axis")
    if wit.d != e.denominator_lcm():
        return CheckOutcome(False, f"d = {wit.d} is not the cleared denominator {e.denominator_lcm()}")
    if wit.d % wit.p == 0:
        return CheckOutcome(False, f"prime {wit.p} divides d = {wit.d}")
    cleared = e.scale(wit.d)
    ctx = build_context(wit.p, config)
    if ctx.vec != cleared.x:
        return CheckOutcome(False, f"prime {wit.p} is not in the partition class of the cleared vector")
    if wit.a_int % wit.p != ctx.target:
        return CheckOutcome(False, f"a_int = {wit.a_int} does not represent the context constant {ctx.target}")
    shift = wit.z.scale(wit.p) - cleared
    if not in_integer_axis(shift):
        return CheckOutcome(False, "p*z - d*e does not lie on the integer axis")
    if not is_member(wit.z, config):
        return CheckOutcome(False, "z is not in the group")
    a, b = wit.bezout
    if a * wit.d + b * wit.p != 1:
        return CheckOutcome(False, f"bezout pair {wit.bezout} does not satisfy a*d + b*p = 1")
    return CheckOutcome(True)


class BadPrimeRecord(Record):
    _fields = __slots__ = ("p", "selected", "z_rows", "m", "r")

    def __init__(self, p: int,
                 selected: tuple[int, ...],                 # indices into the k+1 translates
                 z_rows: tuple[tuple[Fraction, ...], ...],  # the selected truncations, row-major
                 m: int, r: int):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "z_rows", z_rows)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "r", r)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "selected": list(self.selected),
            "Z": [[format_rational(v) for v in row] for row in self.z_rows],
            "m": self.m,
            "r": self.r,
        }

    @classmethod
    def from_json(cls, data: dict) -> "BadPrimeRecord":
        _json_object(data, "bad-prime record", {"p", "selected", "Z", "m", "r"})
        return cls(
            p=_json_int(data["p"], "p"),
            selected=tuple(_json_int(i, "selected") for i in _json_list(data["selected"], "selected")),
            z_rows=tuple(tuple(parse_rational(v) for v in _json_list(row, "Z row"))
                         for row in _json_list(data["Z"], "Z")),
            m=_json_int(data["m"], "m"),
            r=_json_int(data["r"], "r"),
        )


class FreenessCertificate(Record):
    _fields = __slots__ = ("lam", "index", "k", "bad", "D", "basis", "fingerprint")

    def __init__(self, lam: FinVec, index: int, k: int, bad: tuple[BadPrimeRecord, ...], D: int,
                 basis: tuple[GroupElement, ...], fingerprint: str = FINGERPRINT):
        super().__init__(lam, index, k, bad, D, basis, fingerprint)

    @property
    def good_params(self) -> dict:
        return {
            "k": self.k,
            "index": self.index,
            "denominator_primes": _denominator_primes(self.lam),
        }

    def to_json(self) -> dict:
        return {
            "lambda": self.lam.to_json(),
            "index": self.index,
            "k": self.k,
            "good_params": self.good_params,
            "bad_primes": [rec.to_json() for rec in self.bad],
            "D": self.D,
            "basis": [e.to_json() for e in self.basis],
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_json(cls, data: dict) -> "FreenessCertificate":
        _json_object(data, "certificate",
                     {"lambda", "index", "k", "good_params", "bad_primes", "D", "basis", "fingerprint"})
        cert = cls(
            lam=FinVec.from_json(data["lambda"]),
            index=_json_int(data["index"], "index"),
            k=_json_int(data["k"], "k"),
            bad=tuple(BadPrimeRecord.from_json(rec) for rec in _json_list(data["bad_primes"], "bad_primes")),
            D=_json_int(data["D"], "D"),
            basis=tuple(GroupElement.from_json(e) for e in _json_list(data["basis"], "basis")),
            fingerprint=_json_str(data["fingerprint"], "fingerprint"),
        )
        # compared as JSON text, so true or 1.0 does not pass for 1
        if json.dumps(data["good_params"], sort_keys=True) != json.dumps(cert.good_params, sort_keys=True):
            raise ValueError("good_params do not match the values derived from k, index and lambda")
        return cert


def _solve_lambda(gens: list[GroupElement], k: int) -> FinVec:
    """Find lambda with x0 = <lambda, x> on every generator, or raise.

    Free coordinates are set to zero, keeping the support and hence the
    enumeration index small.  Inconsistency produces a nonzero element of
    the span lying on the integer axis, which is packaged as the witness.
    """
    rows = [[g.x[i] for i in range(1, k + 1)] for g in gens]
    rhs = [g.x0 for g in gens]
    t, u = linalg.solve_right(rows, rhs, k)
    if t is None:
        # sum u_i g_i = (c0, 0) with c0 != 0; scale to a positive integer axis element
        n = abs(sum(ui * g.x0 for ui, g in zip(u, gens)).numerator)
        witness = GroupElement(Fraction(n), FinVec.zero())
        raise SpanMeetsAxisError(
            f"span contains the nonzero axis element ({n}, 0)", witness=witness
        )
    return FinVec({i: v for i, v in enumerate(t, start=1) if v != 0})


def _denominator_primes(lam: FinVec) -> list[int]:
    """Primes of lambda's denominators, after refusing, as qvec_index does, an entry past the height cap."""
    for _, v in lam.items():
        check_rat_height(v)
    return prime_factors(lam.denominator_lcm())


def _bad_primes(lam: FinVec, index: int, k: int, config: Config) -> list[int]:
    """Primes that are not good for (k, index, lambda): p < k, or p - 1 <= index,
    or p divides a denominator of lambda."""
    den_primes = set(_denominator_primes(lam))
    cutoff = max(k - 1, index + 1)
    worst = max([cutoff] + list(den_primes))
    if worst > config.bad_prime_cap:
        raise CapacityExceededError(
            f"certificate-incomplete: bad primes reach {worst}",
            required=worst, cap=config.bad_prime_cap,
        )
    return sorted(set(primes_up_to(cutoff)) | den_primes)


def _record(p: int, d: int, rows: list[list[int]], selected, ident: list[list[int]]):
    """(selected, m) of bad prime p for the integer translate rows d*(phi_j + lambda).

    One Bareiss elimination of [A^T | I_k] serves it all, A the selected rows
    in the given order, or all k+1 rows when selected is None, and ident the
    k x k identity rows.  Its pivot columns then select the first k rows
    independent of the rows before them (always possible: consecutive
    differences are strictly diagonally dominant).  det is det M of the
    selected rows, and the right block is +-det * (M^T)^-1 = +-adj(M)^T.
    Z = M/d has Z^-1 = d * adj(M) / det, so m = max(0, -min v_p(Z^-1)) is
    v_p(det) minus the least valuation of a nonzero adjugate entry, minus
    v_p(d), floored at 0; that least valuation is at least 0, so m = 0 when
    v_p(det) <= v_p(d).  m is None for a singular M.  No Fraction is built:
    the record stays integer until certify_free formats Z (see _records).
    """
    k = len(ident)
    chosen = rows if selected is None else [rows[i] for i in selected]
    mat, pivots, det = linalg.bareiss([[*col, *e] for col, e in zip(zip(*chosen), ident)], len(chosen))
    if selected is None:
        if len(pivots) < k:
            raise RuntimeError("translate truncations are rank-deficient; construction invariant violated")
        selected = pivots
    m = None
    if det:
        v, vd = int_valuation(det, p), int_valuation(d, p)
        m = 0 if v <= vd else max(0, v - min(int_valuation(a, p) for row in mat for a in row[-k:] if a) - vd)
    return tuple(selected), m


def _records(lam: FinVec, k: int, picks, config: Config):
    """The record (selected, M, d, m, r) of each (p, selected) pair of picks,
    in order (selected None: certify's choice), lazily, so a verifier checks
    a stored record before its recomputation.  M, the selected rows d*(phi_j
    + lambda) on the window 1..k (see condition_block) for d the lcm of
    lambda's first k denominators, stays integer until certify_free formats
    Z = M/d.  A Fraction is in lowest terms with a positive denominator, so a
    stored z equals a/d exactly when z.numerator * d == a * z.denominator.
    r = max(0, -min v_p(lambda)) is v_p(lam_den), lam_den the lcm of the
    denominators of lambda; d, the shift, lam_den and I_k are computed once.
    """
    d, (shift,) = linalg._clear([[lam[i] for i in range(1, k + 1)]])
    shift = list(enumerate(shift, start=1))  # (i, d*lambda_i), read by every row
    lam_den = lam.denominator_lcm()
    ident = linalg.identity(k)
    for p, selected in picks:
        block = condition_block(build_context(p, config), k, k)
        rows = [[d * phi[i] + s for i, s in shift] for phi in block.vectors]
        selected, m = _record(p, d, rows, selected, ident)
        yield selected, [rows[i] for i in selected], d, m, int_valuation(lam_den, p)


def certify_free(gens, config: Config = DEFAULT) -> FreenessCertificate:
    """Produce a freeness certificate for the subgroup generated by gens.

    Applicable only when the rational span misses the integer axis; a
    nonzero axis element in the span aborts with SpanMeetsAxisError
    carrying that element.  The certificate bounds every denominator
    occurring in the pure closure by D, and its basis is the pure closure
    computed with that certified bound.
    """
    gens = list(gens)
    for idx, g in enumerate(gens):
        if not is_member(g, config):
            raise NotInGroupError(f"generator {idx} is not a group element: {g!r}")
    k = max([1] + [g.x.max_support for g in gens])
    lam = _solve_lambda(gens, k)
    index = qvec_index(lam, config.bad_prime_cap)  # past the cap, _bad_primes refuses it
    primes = _bad_primes(lam, index, k, config)
    bad = [BadPrimeRecord(p, selected, tuple(tuple(Fraction(a, d) for a in row) for row in rows), m, r)
           for p, (selected, rows, d, m, r) in zip(primes, _records(lam, k, ((p, None) for p in primes), config))]
    D = math.prod(rec.p ** (rec.m + rec.r) for rec in bad)
    basis = purify(gens, bound=D, config=config).basis
    return FreenessCertificate(lam=lam, index=index, k=k, bad=tuple(bad), D=D, basis=basis)


def _integers(obj):
    """The integers of a record's JSON form, with both parts of each rational."""
    if isinstance(obj, int):
        yield obj
    elif isinstance(obj, Fraction):
        yield from (obj.numerator, obj.denominator)
    elif isinstance(obj, Record):
        yield from _integers(obj._values(obj))
    elif isinstance(obj, FinVec):
        yield from _integers(obj.items())
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _integers(item)


def check_printable(cert: FreenessCertificate) -> None:
    """Refuse, before formatting it, a certificate holding an integer of more decimal
    digits than the interpreter converts to a string (0: no limit)."""
    limit = sys.get_int_max_str_digits()
    n = max(map(abs, _integers(cert)))
    if limit and n >= 10 ** limit:
        digits = int(math.log10(n)) + 1  # the float may round across a power of ten
        digits += (n >= 10 ** digits) - (n < 10 ** (digits - 1))
        raise CapacityExceededError(f"certificate holds an integer of {digits} digits, past the limit "
                                    "for integer string conversion", required=digits, cap=limit)


def verify_certificate(gens, cert: FreenessCertificate, config: Config = DEFAULT) -> CheckOutcome:
    """Recheck every certificate invariant independently of certify_free."""
    gens = list(gens)
    if cert.fingerprint != FINGERPRINT:
        return CheckOutcome(False, f"fingerprint {cert.fingerprint!r} does not match {FINGERPRINT!r}")
    for idx, g in enumerate(gens):
        if not is_member(g, config):
            return CheckOutcome(False, f"generator {idx} is not in the group")
    k = max([1] + [g.x.max_support for g in gens])
    if cert.k != k:
        return CheckOutcome(False, f"k = {cert.k} but the generators need {k}")
    if cert.index < 1:
        return CheckOutcome(False, f"index {cert.index} must be >= 1")
    # the capacity check bounds the index before enum_qvec walks up to it
    try:
        expected_bad = _bad_primes(cert.lam, cert.index, k, config)
    except CapacityExceededError as exc:
        return CheckOutcome(False, str(exc))
    if enum_qvec(cert.index) != cert.lam:
        return CheckOutcome(False, f"index {cert.index} does not enumerate the stored lambda")
    for idx, g in enumerate(gens):
        if g.x0 != cert.lam.inner(g.x):
            return CheckOutcome(False, f"generator {idx} violates x0 = <lambda, x>")
    if [rec.p for rec in cert.bad] != expected_bad:
        return CheckOutcome(False, f"bad primes {[rec.p for rec in cert.bad]} differ from {expected_bad}")
    recomputed = _records(cert.lam, k, ((rec.p, rec.selected) for rec in cert.bad), config)
    for rec in cert.bad:
        if len(rec.selected) != k or len(set(rec.selected)) != k:
            return CheckOutcome(False, f"record for prime {rec.p} does not select k distinct rows")
        if any(not 0 <= i <= k for i in rec.selected):
            return CheckOutcome(False, f"record for prime {rec.p} selects out-of-range rows")
        _, rows, d, m, r = next(recomputed)
        if [len(zs) for zs in rec.z_rows] != [k] * k or any(  # Z = rows/d, see _records
                z.numerator * d != a * z.denominator for zs, row in zip(rec.z_rows, rows) for z, a in zip(zs, row)):
            return CheckOutcome(False, f"stored matrix for prime {rec.p} does not match the translates")
        if m is None:
            return CheckOutcome(False, f"matrix for prime {rec.p} is singular")
        if rec.m != m:
            return CheckOutcome(False, f"record for prime {rec.p} claims m = {rec.m}, recomputed {m}")
        if rec.r != r:
            return CheckOutcome(False, f"record for prime {rec.p} claims r = {rec.r}, recomputed {r}")
    if cert.D != math.prod(rec.p ** (rec.m + rec.r) for rec in cert.bad):
        return CheckOutcome(False, f"D = {cert.D} is not the product of the recorded prime powers")
    for label, elems in (("basis", cert.basis), ("generator", gens)):
        for idx, e in enumerate(elems):
            if e.x.max_support > k:
                return CheckOutcome(False, f"{label} {idx} exceeds the working dimension {k}")
            if cert.D % e.denominator_lcm():  # D is a multiple of every denominator
                return CheckOutcome(False, f"{label} {idx} has a denominator not dividing D = {cert.D}")
    for idx, e in enumerate(cert.basis):
        if not is_member(e, config):
            return CheckOutcome(False, f"basis element {idx} is not in the group")
    basis_rows = [element_row(e, k) for e in cert.basis]
    gen_rows = [element_row(g, k) for g in gens]
    if basis_rows:
        lattice = linalg.RatLattice.from_rows(basis_rows, k + 1)
        if lattice.dim != len(cert.basis):
            return CheckOutcome(False, "basis rows are linearly dependent")
        for idx, row in enumerate(gen_rows):
            if not lattice.contains(row):
                return CheckOutcome(False, f"generator {idx} is not an integer combination of the basis")
        points = linalg.integer_span_points(gen_rows, k + 1)
        if not all(lattice.contains(row) for row in points):
            return CheckOutcome(False, "basis misses an integer point of the generator span")
        # with the integer points inside, denominators dividing D and saturation
        # at every prime of D, the basis spans exactly purify(gens, bound=D)
        for q in prime_factors(cert.D):
            if saturation_kernel(lattice, q, config):
                return CheckOutcome(False, f"basis is not saturated at prime {q}")
        # the generators lie in the lattice; their span has dimension len(points)
        if len(points) != lattice.dim:
            return CheckOutcome(False, "basis span differs from generator span")
    elif any(not g.is_zero for g in gens):
        return CheckOutcome(False, "empty basis cannot generate nonzero generators")
    return CheckOutcome(True)


def common_axis_multiple(e1: GroupElement, e2: GroupElement) -> GroupElement:
    """Shared nonzero multiple of two nonzero integer-axis elements."""
    for e in (e1, e2):
        if not in_integer_axis(e) or e.is_zero:
            raise ValueError(f"not a nonzero integer-axis element: {e!r}")
    n = math.lcm(abs(e1.x0.numerator), abs(e2.x0.numerator))
    return GroupElement(Fraction(n), FinVec.zero())
