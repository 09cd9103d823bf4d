"""End to end acceptance suite.

One test per shipped guarantee.  Every test prints a single summary line
(run pytest with -rA to collect them) and asserts an exact property plus a
wall-clock budget.  All arithmetic is exact rational or integer; there are
no tolerances anywhere.
"""

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from padicgroup.arith import prime_factors, valuation
from padicgroup.bookkeeping import intvec_index, partition_members
from padicgroup.certificates import (
    certify_free,
    common_axis_multiple,
    divisibility_witness,
    verify_certificate,
    verify_witness,
)
from padicgroup.checks import (
    check_axis_purity,
    check_block_props,
    check_integer_inclusion,
    check_level_props,
    _lambda_pool,
)
from padicgroup.construction import build_context, condition_block, visible_block_limit
from padicgroup.errors import SpanMeetsAxisError
from padicgroup.group import is_member, membership
from padicgroup.linalg import rank
from padicgroup.vectors import FinVec, GroupElement, element

SEED = 20260814


@contextlib.contextmanager
def criterion(n: int, label: str, budget: float | None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} {label}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    shown = f"{dt:.2f}s" if budget is None else f"{dt:.2f}s of {budget:.0f}s"
    ok = budget is None or dt < budget
    print(f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'} ({shown})")
    assert ok, f"wall-clock budget exceeded: {dt:.2f}s"


def test_acceptance_1_level_set_spanning():
    with criterion(1, "level-set spanning and residue-target suite", 60.0):
        for p in (2, 3, 5, 7):
            report = check_level_props(p, kmax=4)
            assert report.passed, report.to_json()
            width = build_context(p).width
            ks = {int(k) for k in report.details["scans"]}
            assert ks == set(range(1, min(width, 4) + 1))
            for key in report.details["translate_scans"]:
                k, i = map(int, key.split(","))
                assert i in build_context(p).relevant and k in ks


def test_acceptance_2_block_family():
    with criterion(2, "perturbed block family suite", 60.0):
        for p in (2, 3, 5):
            report = check_block_props(p, kmax=6, samples=20)
            assert report.passed, report.to_json()
            dets = report.details["dets"]
            assert set(dets) == {str(k) for k in range(1, 7)}
            assert all(Fraction(v) != 0 for v in dets.values())


def brute_member(e: GroupElement) -> bool:
    """Membership by explicit generation of the defining family.

    Generates blocks covering every visible index plus one full cycle
    through the level set, reduces them on the support window, and checks
    the divisibility condition on each reduced vector directly.
    """
    for p in sorted(prime_factors(e.denominator_lcm())):
        # two family vectors congruent mod p^m pair identically with x up to
        # a p-integer, so this window modulus is exact
        m = max(1, -min([0] + [valuation(v, p) for _, v in e.x.items()]))
        ctx = build_context(p)
        w = e.x.max_support
        count = ctx.p ** (ctx.width - 1) if any(v % p for _, v in ctx.vec.items()) else ctx.p ** ctx.width
        k = visible_block_limit(p, m)
        consumed = 0
        while consumed < count:
            k += 1
            consumed += k + 1
        modulus = p ** m
        for kk in range(1, k + 1):
            for v in condition_block(ctx, kk).vectors:
                reduced = FinVec({i: val % modulus for i, val in v.items()
                                  if i <= w and val % modulus})
                total = e.x0 + reduced.inner(e.x)
                if total.denominator % p == 0:
                    return False
    return True


def test_acceptance_3_membership_cross_validation():
    with criterion(3, "membership vs explicit-family oracle (200 samples)", 120.0):
        rng = random.Random(SEED)
        agreements = 0
        members_seen = 0
        rejections_seen = 0
        strata = [(p, m, size) for p in (2, 3) for m in (0, 1, 2)
                  for size in (0, 1, 2, 3)]
        i = 0
        while agreements < 200:
            p, m, size = strata[i % len(strata)]
            i += 1
            den = p ** m
            x0 = Fraction(rng.randrange(-2 * den, 2 * den + 1), den)
            coords = rng.sample([1, 2, 3], size)
            entries = {}
            for c in coords:
                num = rng.randrange(-2 * den, 2 * den + 1)
                entries[c] = Fraction(num, p ** rng.randrange(0, m + 1))
            e = element(x0, entries)
            got = membership(e).member
            want = brute_member(e)
            assert got == want, e
            agreements += 1
            members_seen += got
            rejections_seen += not got
        assert members_seen and rejections_seen  # both verdicts exercised


def test_acceptance_4_integer_inclusion_and_axis():
    with criterion(4, "integer inclusion and axis purity (3 x 100)", 30.0):
        inclusion = check_integer_inclusion(samples=100, seed=SEED)
        assert inclusion.passed and inclusion.details["samples"] == 100
        purity = check_axis_purity(samples=100, seed=SEED)
        assert purity.passed
        assert purity.details["fractional_rejected"] == 100
        assert purity.details["members_probed"] == 100


def test_acceptance_5_divisibility_witnesses():
    with criterion(5, "divisibility witnesses at class primes", 120.0):
        rng = random.Random(SEED)
        chosen = []
        while len(chosen) < 10:
            entries = {c: rng.randrange(-2, 3) for c in (1, 2)}
            vec = FinVec(entries)
            if vec.is_zero or intvec_index(vec) > 12:
                continue
            chosen.append(element(rng.randrange(-3, 4), entries))
        bezout_deep = 0
        for e in chosen:
            primes = partition_members(e.x, 3)
            witnesses = []
            for p in primes:
                w = divisibility_witness(e, p)
                assert verify_witness(e, w), (e, p)
                assert w.d == 1
                witnesses.append(w)
            if bezout_deep < 5:
                # push one witness through a second division; its cleared
                # denominator is now the first prime, forcing the Bezout path
                z = witnesses[0].z
                p2 = primes[1]
                w2 = divisibility_witness(z, p2)
                assert w2.d == witnesses[0].p > 1
                assert w2.bezout[0] * w2.d + w2.bezout[1] * w2.p == 1
                assert verify_witness(z, w2), (z, p2)
                bezout_deep += 1
        assert bezout_deep == 5


def _random_free_gens(rng: random.Random):
    """Generator sets whose span misses the axis by construction."""
    k = rng.randrange(1, 4)
    pool = _lambda_pool(tuple(range(1, k + 1)))
    lam = rng.choice(pool)
    scale = 2 if lam.denominator_lcm() > 1 else 1
    while True:
        rows = [FinVec({c: scale * rng.randrange(-2, 3) for c in range(1, k + 1)})
                for _ in range(k)]
        mat = [[Fraction(r[c]) for c in range(1, k + 1)] for r in rows]
        if rank(mat, k) == k:
            break
    gens = [element(lam.inner(r), dict(r.items())) for r in rows]
    if rng.random() < 0.5:
        extra = rng.choice(gens)
        gens.append(extra.scale(rng.randrange(1, 3)))
    return gens, k


def test_acceptance_6_freeness_certificates():
    with criterion(6, "freeness certificates on random spans", 300.0):
        rng = random.Random(SEED)
        for _ in range(20):
            gens, k = _random_free_gens(rng)
            cert = certify_free(gens)
            assert cert.k == k
            assert verify_certificate(gens, cert), cert.to_json()
            hits = 0
            for _ in range(1000):
                coeffs = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                          for _ in gens]
                combo = GroupElement.zero()
                for c, g in zip(coeffs, gens):
                    combo = combo + g.scale(c)
                if is_member(combo):
                    hits += 1
                    assert cert.D % combo.denominator_lcm() == 0, (combo, cert.D)
                    assert cert.D % combo.x0.denominator == 0
            assert hits  # integer coefficient draws always land in the group


def test_acceptance_7_axis_meeting_gate():
    with criterion(7, "axis-overlap gate and common multiple", 10.0):
        rng = random.Random(SEED)
        for _ in range(10):
            axis1 = element(rng.choice([-3, -2, -1, 1, 2, 3]), {})
            axis2 = element(rng.choice([-3, -2, -1, 1, 2, 3]), {})
            gens1 = [axis1, element(rng.randrange(-2, 3), {1: 1})]
            gens2 = [axis2, element(rng.randrange(-2, 3), {2: 1})]
            witnesses = []
            for gens in (gens1, gens2):
                try:
                    certify_free(gens)
                    raise AssertionError("axis overlap went undetected")
                except SpanMeetsAxisError as err:
                    assert err.witness.x.is_zero and err.witness.x0 != 0
                    witnesses.append(err.witness)
            shared = common_axis_multiple(*witnesses)
            assert shared.x.is_zero and shared.x0 > 0
            assert shared.x0 % witnesses[0].x0 == 0
            assert shared.x0 % witnesses[1].x0 == 0


REGRESSION_COMMANDS = [
    ["ctx", "2"],
    ["ctx", "7"],
    ["member", '{"x0": "5", "x": {}}'],
    ["member", '{"x0": "1/2", "x": {}}'],
    ["member", '{"x0": "-5/6", "x": {"1": "-5/6"}}'],
    ["witness", '{"x0": "-1", "x": {"1": "-1"}}', "--prime", "17"],
    ["witness", '{"x0": "-1", "x": {"1": "-1"}}'],
    ["certify", '[{"x0": "1", "x": {"1": "2"}}]'],
    ["certify", '[{"x0": "1", "x": {}}]'],
    ["purify", '[{"x0": "-1", "x": {"1": "-1"}}]'],
    ["purify", '[{"x0": "0", "x": {"1": "2"}}]', "--bound", "2"],
    ["enum", "rat", "--from", "1", "--to", "12"],
    ["enum", "lambda", "--from", "1", "--to", "8"],
    ["enum", "intvec", "--from", "1", "--to", "8"],
    ["enum", "partition", "--from", "1", "--to", "6"],
    ["check", "m-props", "--p", "3", "--kmax", "2"],
    ["check", "div-infinitude", "--n", "2"],
    ["--version"],
]


def run_regression() -> str:
    chunks = []
    for cmd in REGRESSION_COMMANDS:
        proc = subprocess.run(
            [sys.executable, "-m", "padicgroup", *cmd],
            capture_output=True, text=True,
        )
        chunks.append(f"$ {' '.join(cmd)} [exit {proc.returncode}]\n{proc.stdout}")
    return "".join(chunks)


def test_acceptance_8_deterministic_cli():
    with criterion(8, "CLI regression byte-identical across runs", None):
        first = run_regression()
        second = run_regression()
        assert first == second
        fingerprints = {
            json.loads(line)["fingerprint"]
            for line in first.splitlines()
            if line.startswith("{") and "fingerprint" in json.loads(line)
        }
        assert fingerprints == {"v1:353ca906f3bca6fa"}
