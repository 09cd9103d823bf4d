"""Seeded workload inputs and the pinned known-answer tables they are built from.

Everything here is stdlib only: inputs are generated without importing
padicgroup, so the program under test only ever receives them as JSON and
its memo caches start cold.  Each workload is stratified: a fixed schedule
of cost classes (window, primes, dimension, functional, class prime) is
repeated, and the seed only chooses coefficients, integer parts and, where
no cache state depends on it, the order.
That keeps the work per batch nearly the same for every seed while the
inputs differ.  Where the answer does not depend on the values (a certified
pure closure, a witness), two seeds can give the same outputs.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

# Witness elements z_p = (-a/p, v/p) for the primes p <= 23: v is the class
# vector of p and a the context target of p.  z_p is the divisibility witness
# of (0, v) at p, so it is a group element; the self-test rechecks each entry
# with divisibility_witness and verify_witness.
WITNESS_TABLE = {
    2: (1, (-1,)),
    3: (1, (-1,)),
    5: (1, (-1, -1)),
    7: (1, (-1,)),
    11: (2, (-1, -1)),
    13: (2, (-1, -1, -1)),
    17: (2, (-1,)),
    19: (2, (-1, -1)),
    23: (2, (-1, -1, -1)),
}

# Functionals lambda = enum_qvec(index) that are canonical (qvec_index maps
# them back to the same index), with support exactly k: index <= 400 for
# k = 1 and index <= 60 for k = 2.
FUNCTIONALS = {
    1: [(2, ("-1",)), (7, ("1",)), (11, ("-2",)), (16, ("-1/2",)), (22, ("1/2",)),
        (29, ("2",)), (37, ("-3",)), (46, ("-3/2",)), (56, ("-2/3",)), (67, ("-1/3",)),
        (79, ("1/3",)), (92, ("2/3",)), (106, ("3",)), (121, ("3/2",)), (137, ("-4",)),
        (154, ("-4/3",)), (172, ("-3/4",)), (191, ("-1/4",)), (211, ("1/4",)),
        (232, ("3/4",)), (254, ("4",)), (277, ("4/3",)), (301, ("-5",)),
        (326, ("-5/2",)), (352, ("-5/3",)), (379, ("-5/4",))],
    2: [(3, ("-1", "-1")), (6, ("0", "-1")), (10, ("1", "-1")), (15, ("-2", "-1")),
        (21, ("-1/2", "-1")), (23, ("-1", "1")), (28, ("1/2", "-1")), (31, ("0", "1")),
        (36, ("2", "-1")), (40, ("1", "1")), (45, ("-3", "-1")), (50, ("-2", "1")),
        (55, ("-3/2", "-1")), (57, ("-1", "-2"))],
}

# The first class prime of every class vector of support <= 2 among
# intvec_at(1..29), as partition_members reports it.  One prime per class
# vector keeps a certify pass near one second, so a run gets many passes.
CLASS_PRIMES = [
    ((-1,), (2,)), ((-1, -1), (5,)), ((0, -1), (29,)), ((1,), (47,)), ((1, -1), (107,)),
    ((-2,), (151,)), ((-2, -1), (317,)), ((2,), (397,)), ((2, -1), (769,)),
    ((-3,), (883,)), ((-1, 1), (1019,)), ((-3, -1), (1607,)), ((3,), (1783,)),
    ((0, 1), (1987,)), ((3, -1), (2791,)), ((-4,), (3037,)),
]

# The acceptance-8 CLI transcript commands and their exit codes.
CLI_COMMANDS = [
    (["ctx", "2"], 0),
    (["ctx", "7"], 0),
    (["member", '{"x0": "5", "x": {}}'], 0),
    (["member", '{"x0": "1/2", "x": {}}'], 1),
    (["member", '{"x0": "-5/6", "x": {"1": "-5/6"}}'], 0),
    (["witness", '{"x0": "-1", "x": {"1": "-1"}}', "--prime", "17"], 0),
    (["witness", '{"x0": "-1", "x": {"1": "-1"}}'], 0),
    (["certify", '[{"x0": "1", "x": {"1": "2"}}]'], 0),
    (["certify", '[{"x0": "1", "x": {}}]'], 1),
    (["purify", '[{"x0": "-1", "x": {"1": "-1"}}]'], 0),
    (["purify", '[{"x0": "0", "x": {"1": "2"}}]', "--bound", "2"], 0),
    (["enum", "rat", "--from", "1", "--to", "12"], 0),
    (["enum", "lambda", "--from", "1", "--to", "8"], 0),
    (["enum", "intvec", "--from", "1", "--to", "8"], 0),
    (["enum", "partition", "--from", "1", "--to", "6"], 0),
    (["check", "m-props", "--p", "3", "--kmax", "2"], 0),
    (["check", "div-infinitude", "--n", "2"], 0),
    (["--version"], 0),
]

# purify: dimension -> purify_prime_cap; generator denominators stay within the cap
PURIFY_CAPS = {2: 13, 3: 7, 4: 5}

# Ops per pass at scale 1: whole cycles of each schedule and 1-5 s of work.
# Short passes give each op many tries at the machine's fast periods; each
# batch still leaves at least ten ops beyond a p70 or higher tail.
BATCH = {"member": 830, "purify": 60, "certify": 56, "cli": 36}


def fmt(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def element_json(x0, x: dict) -> dict:
    return {"x0": fmt(x0), "x": {str(i): fmt(v) for i, v in sorted(x.items()) if v != 0}}


def _witness(p: int) -> tuple[Fraction, dict]:
    a, v = WITNESS_TABLE[p]
    return Fraction(-a, p), {i: Fraction(c, p) for i, c in enumerate(v, start=1)}


def _member_value(rng: random.Random, w: int, primes) -> tuple[Fraction, dict]:
    """Integer point of window exactly w plus a nonzero multiple of each z_p.

    The coefficient of z_p is in 1..p-1, so p stays in the denominator and
    membership scans p^(w-1) residues at each p.
    """
    x0 = Fraction(rng.randint(-9, 9))
    x = {i: Fraction(rng.randint(-5, 5)) for i in range(1, w)}
    x[w] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    for p in primes:
        c = rng.randint(1, p - 1)
        z0, zx = _witness(p)
        x0 += c * z0
        for i, v in zx.items():
            x[i] = x.get(i, 0) + c * v
    return x0, x


def member_ops(rng: random.Random, n: int) -> list[dict]:
    """Membership decisions with windows 1..3 and witness primes <= 23.

    One cycle walks every set of one or two witness primes whose class
    vectors fit the window, three members and two non-members each (60%
    members).  A non-member adds (c/q, 0) with q not dividing c: the group
    meets the axis in Z, so it fails, and it fails exactly at q.
    """
    strata = []
    for w in (1, 2, 3):
        fit = [p for p, (_, v) in WITNESS_TABLE.items() if len(v) <= w]
        for size in (1, 2):
            for primes in itertools.combinations(fit, size):
                strata += [(w, primes, None)] * 3
                strata += [(w, primes, "non")] * 2
    qs = itertools.cycle(WITNESS_TABLE)
    ops = []
    for w, primes, kind in itertools.islice(itertools.cycle(strata), n):
        x0, x = _member_value(rng, w, primes)
        expect = {"member": True, "failing_prime": None}
        if kind == "non":
            q = next(qs)
            x0 += Fraction(rng.choice([c for c in range(1, 3 * q) if c % q]), q)
            expect = {"member": False, "failing_prime": q}
        ops.append({"element": element_json(x0, x), "expect": expect})
    rng.shuffle(ops)
    return ops


def purify_ops(rng: random.Random, n: int) -> list[dict]:
    """Unbounded purify of d generators spanning Q^d, d in 2..4.

    Generators are integer points plus c*z_p for one witness prime p <= the
    cap of the dimension, c coprime to p.  The primes follow a fixed cycle,
    so the starting lattice Z^d + sum Z z_p, and with it the saturation
    work, depends on the op's position only; the seed changes the values.
    """
    ops = []
    for j in range(n):
        d = 2 + j % 3
        k = d - 1
        fit = [p for p, (_, v) in WITNESS_TABLE.items() if len(v) <= k and p <= PURIFY_CAPS[d]]
        primes = [fit[(j // 3 + g) % len(fit)] for g in range(d)]
        while True:
            gens = []
            for p in primes:
                c = rng.randint(1, p - 1)
                z0, zx = _witness(p)
                x0 = rng.randint(-4, 4) + c * z0
                x = {i: rng.randint(-3, 3) + c * zx.get(i, 0) for i in range(1, k + 1)}
                gens.append((x0, x))
            rows = [[x0] + [x[i] for i in range(1, k + 1)] for x0, x in gens]
            if _rank(rows) == d:
                break
        ops.append({"gens": [element_json(x0, x) for x0, x in gens],
                    "cap": PURIFY_CAPS[d], "rank": d})
    rng.shuffle(ops)
    return ops


def _rank(rows: list[list[Fraction]]) -> int:
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def certify_ops(rng: random.Random, n: int) -> list[dict]:
    """certify_free + verify_certificate and divisibility_witness +
    verify_witness round trips.

    One cycle certifies every pinned functional once (k generators x with
    x0 = <lambda, x>, integer because x is a multiple of the denominators of
    lambda) and witnesses every pinned (class vector, class prime) pair
    once, so each class prime is a distinct, cold context.  The order is
    fixed (certify and witness ops alternate, in table order): it decides
    which op pays for building the contexts it shares with earlier ops.
    """
    certify = [("certify", k, idx, lam) for k in (1, 2) for idx, lam in FUNCTIONALS[k]]
    witness = [("witness", v, p) for v, primes in CLASS_PRIMES for p in primes]
    cycle = [op for pair in itertools.zip_longest(certify, witness) for op in pair if op]
    ops = []
    for item in itertools.islice(itertools.cycle(cycle), n):
        if item[0] == "witness":
            _, v, p = item
            x0 = rng.randint(-20, 20)
            ops.append({"op": "witness", "p": p,
                        "element": element_json(x0, dict(enumerate(v, start=1))),
                        "expect_z_x": {str(i): fmt(Fraction(c, p)) for i, c in enumerate(v, start=1) if c}})
            continue
        _, k, idx, lam = item
        lam = [Fraction(s) for s in lam]
        den = math.lcm(*(q.denominator for q in lam))
        while True:
            xs = [[den * rng.randint(-3, 3) for _ in range(k)] for _ in range(k)]
            if _rank(xs) == k:
                break
        gens = [element_json(sum(l * v for l, v in zip(lam, x)), dict(enumerate(x, start=1)))
                for x in xs]
        ops.append({"op": "certify", "gens": gens, "k": k, "index": idx,
                    "lambda": {str(i): fmt(q) for i, q in enumerate(lam, start=1) if q}})
    return ops


def cli_ops(rng: random.Random, n: int) -> list[dict]:
    """The acceptance-8 commands, each repeated, in a seeded order."""
    ops = [{"argv": argv, "exit": code}
           for argv, code in itertools.islice(itertools.cycle(CLI_COMMANDS), n)]
    rng.shuffle(ops)
    return ops


GENERATORS = {"member": member_ops, "purify": purify_ops,
              "certify": certify_ops, "cli": cli_ops}


def make_inputs(workload: str, seed: int, scale: float = 1.0) -> list[dict]:
    n = max(3, round(BATCH[workload] * scale))
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), n)
