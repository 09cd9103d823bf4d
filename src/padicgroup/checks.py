"""Named invariant suites, runnable from the CLI as `check <name>`.

Each check re-derives one of the load-bearing facts behind the library
from scratch and reports pass/fail with counterexample data instead of
raising.  The registry keys are part of the CLI contract.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction

from . import linalg
from .arith import reduce_mod, valuation
from .bookkeeping import FINGERPRINT, enum_qvec
from .config import DEFAULT, Config
from .construction import (
    _hyperplane_points,
    build_context,
    condition_block,
    level_contains,
    level_count,
)
from .certificates import certify_free, divisibility_witness, verify_witness, witness_primes
from .group import in_integer_axis, is_member, spans_disjoint
from .vectors import FinVec, GroupElement, Record, element


class CheckReport(Record):
    _fields = __slots__ = ("name", "passed", "details")

    def __init__(self, name: str, passed: bool, details: dict):
        super().__init__(name, passed, details)

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {**self._asdict(), "fingerprint": FINGERPRINT}


def _spanning_scan(ctx, k: int, shift: FinVec | None, cap: int) -> int | None:
    """Rows scanned before truncations to k of (shift +) level elements span
    (Z/p)^k, or None if the cap was hit first (which would refute the
    spanning property for all practical purposes)."""
    echelon = linalg.EchelonModP(ctx.p, k)
    rows = _hyperplane_points(ctx, ctx.width, range(min(level_count(ctx), cap)))
    for n, v in enumerate(rows, start=1):  # v is level_at(ctx, n)
        if shift is not None:
            v = v + shift
        echelon.insert([int(v[i] % ctx.p) for i in range(1, k + 1)])
        if echelon.rank == k:
            return n
    return None


def check_level_props(p: int, kmax: int = 4, config: Config = DEFAULT) -> CheckReport:
    """Truncations of the level set span, with and without relevant translates."""
    ctx = build_context(p, config)
    details: dict = {"p": p, "kmax": kmax, "scans": {}, "translate_scans": {}}
    cap = config.residue_cap
    for k in range(1, min(ctx.width, kmax) + 1):
        used = _spanning_scan(ctx, k, None, cap)
        details["scans"][str(k)] = used
        if used is None:
            details["counterexample"] = {"k": k, "translate": None}
            return CheckReport("m-props", False, details)
        for i in ctx.relevant:
            shift = enum_qvec(i).reduce(p)
            used = _spanning_scan(ctx, k, shift, cap)
            details["translate_scans"][f"{k},{i}"] = used
            if used is None:
                details["counterexample"] = {"k": k, "translate": i}
                return CheckReport("m-props", False, details)
    return CheckReport("m-props", True, details)


def _random_rational_vec(rng: random.Random, k: int) -> FinVec:
    entries = {}
    for i in range(1, k + 1):
        if rng.random() < 0.7:
            entries[i] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return FinVec({i: v for i, v in entries.items() if v != 0})


def check_block_props(p: int, kmax: int = 6, samples: int = 20, seed: int = 0,
                      config: Config = DEFAULT) -> CheckReport:
    """Block vectors reduce into the level set, have nonsingular difference
    matrices, and their truncated translates by random rational vectors span."""
    ctx = build_context(p, config)
    rng = random.Random(seed)
    details: dict = {"p": p, "kmax": kmax, "samples": samples, "dets": {}}
    forbidden = {reduce_mod(-enum_qvec(i).inner(ctx.vec), p) for i in ctx.relevant}
    if ctx.target == 0 or ctx.target in forbidden:
        details["counterexample"] = {"target": ctx.target, "forbidden": sorted(forbidden)}
        return CheckReport("phi-props", False, details)
    for k in range(1, kmax + 1):
        block = condition_block(ctx, k)
        for j, vec in enumerate(block.vectors):
            if not level_contains(ctx, vec.reduce(p)):
                details["counterexample"] = {"k": k, "vector": j, "kind": "reduction"}
                return CheckReport("phi-props", False, details)
        diffs = [[vec[i] - block.vectors[0][i] for i in range(1, k + 1)]
                 for vec in block.vectors[1:]]
        d = linalg.det(diffs)
        details["dets"][str(k)] = str(d)
        if d == 0:
            details["counterexample"] = {"k": k, "kind": "difference-det"}
            return CheckReport("phi-props", False, details)
        for _ in range(samples):
            lam = _random_rational_vec(rng, k)
            rows = [[(vec + lam)[i] for i in range(1, k + 1)] for vec in block.vectors]
            if linalg.rank(rows, k) != k:
                details["counterexample"] = {"k": k, "lambda": lam.to_json(), "kind": "translate-rank"}
                return CheckReport("phi-props", False, details)
    return CheckReport("phi-props", True, details)


def _random_integer_element(rng: random.Random, max_support: int = 5,
                            bound: int = 1000) -> GroupElement:
    support = rng.sample(range(1, 9), rng.randint(0, max_support))
    entries = {i: rng.randint(-bound, bound) for i in support}
    return element(rng.randint(-bound, bound), {i: v for i, v in entries.items() if v != 0})


def check_integer_inclusion(samples: int = 100, seed: int = 0,
                            config: Config = DEFAULT) -> CheckReport:
    """Random integer elements are members; spot-checked against explicit
    condition vectors, not just the (vacuous) denominator criterion."""
    rng = random.Random(seed)
    details: dict = {"samples": samples, "explicit_checks": 0}
    for t in range(samples):
        e = _random_integer_element(rng)
        if not is_member(e, config):
            details["counterexample"] = e.to_json()
            return CheckReport("int-inclusion", False, details)
        if t < 5:
            for p in (2, 3):
                ctx = build_context(p, config)
                for k in (1, 2):
                    for vec in condition_block(ctx, k).vectors:
                        if valuation(e.x0 + vec.inner(e.x), p) < 0:
                            details["counterexample"] = {"element": e.to_json(), "p": p, "k": k}
                            return CheckReport("int-inclusion", False, details)
                        details["explicit_checks"] += 1
    return CheckReport("int-inclusion", True, details)


def check_axis_purity(samples: int = 100, seed: int = 0,
                      config: Config = DEFAULT) -> CheckReport:
    """The integer axis is pure: group elements with a multiple on the axis
    lie on the axis, and fractional axis points are not members at all."""
    rng = random.Random(seed)
    details: dict = {"samples": samples, "fractional_rejected": 0, "members_probed": 0}
    members = [
        element(0),
        element(Fraction(-1, 2), {1: Fraction(-1, 2)}),
        element(Fraction(-1, 6), {1: Fraction(-1, 6)}),
    ]
    for _ in range(samples):
        n = rng.choice((2, 3, 5))
        a = rng.randint(-1000, 1000)
        if a % n == 0:
            a += 1
        if is_member(element(Fraction(a, n)), config):
            details["counterexample"] = {"x0": f"{a}/{n}"}
            return CheckReport("L-purity", False, details)
        details["fractional_rejected"] += 1
        g = rng.choice(members) + _random_integer_element(rng, max_support=3, bound=20)
        details["members_probed"] += 1
        if not is_member(g, config):
            details["counterexample"] = {"element": g.to_json(), "kind": "pool-not-member"}
            return CheckReport("L-purity", False, details)
        if in_integer_axis(g.scale(n)) and not in_integer_axis(g):
            details["counterexample"] = {"element": g.to_json(), "n": n}
            return CheckReport("L-purity", False, details)
    return CheckReport("L-purity", True, details)


def check_divisibility(target: GroupElement | None = None, n: int = 3,
                       config: Config = DEFAULT) -> CheckReport:
    """The coset of a non-axis element is divisible by the first n primes of
    its partition class (skipping primes dividing the cleared denominator)."""
    e = element(1, {1: 2}) if target is None else target
    details: dict = {"element": e.to_json(), "requested": n, "primes": []}
    if e.x.is_zero:
        details["counterexample"] = {"kind": "axis-element"}
        return CheckReport("div-infinitude", False, details)
    primes = witness_primes(e, n, config)
    details["primes"] = primes
    if len(primes) < n:
        details["counterexample"] = {"kind": "not-enough-primes"}
        return CheckReport("div-infinitude", False, details)
    for p in primes:
        wit = divisibility_witness(e, p, config)
        out = verify_witness(e, wit, config)
        if not out.ok:
            details["counterexample"] = {"p": p, "reason": out.reason}
            return CheckReport("div-infinitude", False, details)
    return CheckReport("div-infinitude", True, details)


def _lambda_pool(support: tuple[int, ...], index_limit: int = 25) -> list[FinVec]:
    """Functionals from the enumeration prefix with the given support.

    Keeping the enumeration index small keeps the certificate's bad-prime
    set small, which is what makes certify_free affordable here.
    """
    allowed = set(support)
    return [enum_qvec(i) for i in range(1, index_limit + 1)
            if set(enum_qvec(i).support) <= allowed]


def _random_functional_gens(rng: random.Random, support: tuple[int, int],
                            pool: list[FinVec]) -> list[GroupElement]:
    lo, hi = support
    lam = rng.choice(pool)
    scale = 2 if lam.denominator_lcm() > 1 else 1
    gens = []
    for _ in range(rng.randint(1, 2)):
        x = FinVec({i: scale * rng.randint(-3, 3) for i in (lo, hi)})
        if x.is_zero:
            x = FinVec.single(lo, scale)
        gens.append(GroupElement(lam.inner(x), x))
    return gens


def check_purification_disjoint(pairs: int = 5, seed: int = 0,
                                config: Config = DEFAULT) -> CheckReport:
    """Purifying two subgroups with disjoint spans keeps the spans disjoint."""
    rng = random.Random(seed)
    details: dict = {"pairs": pairs, "bounds": []}
    pool1 = _lambda_pool((1, 2))
    # functionals on high coordinates sit deep in the enumeration and would
    # drag in large bad primes, so the far side uses the zero functional
    pool2 = [FinVec.zero()]
    for _ in range(pairs):
        gens1 = _random_functional_gens(rng, (1, 2), pool1)
        gens2 = _random_functional_gens(rng, (3, 4), pool2)
        if not spans_disjoint(gens1, gens2):  # pragma: no cover - disjoint by support
            details["counterexample"] = {"kind": "sampler", "gens1": [g.to_json() for g in gens1]}
            return CheckReport("purification-disjoint", False, details)
        cert1 = certify_free(gens1, config)
        cert2 = certify_free(gens2, config)
        details["bounds"].append([cert1.D, cert2.D])
        if not spans_disjoint(cert1.basis, cert2.basis):
            details["counterexample"] = {
                "gens1": [g.to_json() for g in gens1],
                "gens2": [g.to_json() for g in gens2],
                "basis1": [b.to_json() for b in cert1.basis],
                "basis2": [b.to_json() for b in cert2.basis],
            }
            return CheckReport("purification-disjoint", False, details)
    return CheckReport("purification-disjoint", True, details)


CHECKS = {
    "m-props": check_level_props,
    "phi-props": check_block_props,
    "int-inclusion": check_integer_inclusion,
    "L-purity": check_axis_purity,
    "div-infinitude": check_divisibility,
    "purification-disjoint": check_purification_disjoint,
}


def run_check(name: str, config: Config = DEFAULT, **params) -> CheckReport:
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; available: {sorted(CHECKS)}")
    # bind first, so a TypeError raised inside the check is not taken for bad parameters
    try:
        inspect.signature(CHECKS[name]).bind(config=config, **params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for check {name!r}: {exc}") from None
    return CHECKS[name](config=config, **params)
