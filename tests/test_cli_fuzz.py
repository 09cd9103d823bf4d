"""A fuzz of cli.main in process: well-formed argv with drawn JSON payloads
and integers.  Every run exits 0, 1, 2 or 3, prints exactly one JSON
document (JSON lines for enum) and nothing on stderr, raises nothing, and
ends within the deadline.

Every input drawn is bounded by a cap.  So positions stay at most 6, since
no cap bounds the working dimension yet, and --prime-cap stays at most its
default: a larger cap is the caller's choice to spend more.
"""

import contextlib
import functools
import io
import json
import resource
from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from padicgroup.bookkeeping import FINGERPRINT
from padicgroup.certificates import certify_free, divisibility_witness, witness_primes
from padicgroup.cli import main
from padicgroup.vectors import element

SMALL = st.integers(-5, 40)
FRACTION = st.one_of(
    SMALL.map(str),
    st.fractions(min_value=-30, max_value=30, max_denominator=40).map(str),
    st.builds(lambda n, d: str(Fraction(n, d)), st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40)),
)
RATIONAL = st.one_of(
    FRACTION,
    st.sampled_from(["1/0", "0/5", "2/4", "-0", "01", "1.5", "+1", "1e3", "", "x", "\u0663"]),
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(-2, 2),
)
POSITION = st.one_of(st.integers(1, 6).map(str), st.sampled_from(["0", "-1", "01", "1.0", "", "a", "\u0663"]))
JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
ELEMENT = st.one_of(
    # integral, hence members; canonical; then anything in the element's shape
    st.fixed_dictionaries({"x0": SMALL.map(str), "x": st.dictionaries(st.integers(1, 3).map(str),
                                                                      SMALL.filter(bool).map(str), max_size=2)}),
    st.fixed_dictionaries({"x0": FRACTION, "x": st.dictionaries(st.integers(1, 6).map(str), FRACTION, max_size=3)}),
    st.fixed_dictionaries({"x0": RATIONAL, "x": st.dictionaries(POSITION, RATIONAL, max_size=3)}),
    JUNK,
)
GENS = st.one_of(st.lists(ELEMENT, max_size=3), JUNK)
LEAF = st.one_of(RATIONAL, st.integers(-3, 10 ** 6), JUNK)

# (gens, element) whose certificate and witnesses are mutated into payloads
REAL = [
    ([element(1, {1: 2})], element(-1, {1: -1})),
    ([element(-1, {1: 2}), element(-1, {2: 1})], element(0, {1: 1, 2: -1})),
    ([element(2, {1: 1}), element(-1, {2: 1}), element(1, {3: 1})], element(3, {1: 2})),
]


@functools.cache
def _real(i):
    gens, e = REAL[i]
    gens_json = [g.to_json() for g in gens]
    wit = divisibility_witness(e, witness_primes(e, 1)[0])
    return gens_json, certify_free(gens).to_json(), e.to_json(), wit.to_json()


@st.composite
def _mutated(draw, doc):
    """doc with at most one node replaced or deleted, at a drawn path."""
    doc = json.loads(json.dumps(doc))
    node = doc
    while draw(st.integers(0, 3)):
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = draw(st.sampled_from(keys))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
        elif draw(st.booleans()):
            del node[key]
            break
        else:
            node[key] = draw(LEAF)
            break
    return doc


def _text(payload):
    """Inline JSON, or a malformed text that names no file."""
    return st.one_of(payload.map(json.dumps), st.sampled_from(["", "{", "[1,", "nan", '{"x0": "1"', "]"]))


@st.composite
def _argv(draw):
    real = draw(st.integers(0, len(REAL) - 1))
    gens_json, cert_json, e_json, wit_json = _real(real)
    gens = _text(st.one_of(GENS, st.just(gens_json), _mutated(gens_json)))
    elem = _text(st.one_of(ELEMENT, st.just(e_json), _mutated(e_json)))
    integer = st.one_of(st.integers(-3, 2000), st.sampled_from([999_983, 10 ** 6 + 3, 2 ** 61 - 1, 10 ** 30]))
    command = draw(st.sampled_from(["ctx", "member", "witness", "verify-witness", "certify",
                                    "verify-cert", "purify", "enum"]))
    if command == "ctx":
        argv = ["ctx", str(draw(integer))]
    elif command in ("member", "certify"):
        argv = [command, draw(elem if command == "member" else gens)]
    elif command == "witness":
        argv = ["witness", draw(elem)] + draw(st.sampled_from([[], ["--prime", str(draw(integer))]]))
    elif command == "verify-witness":
        witness = st.one_of(st.just(wit_json), _mutated(wit_json), st.fixed_dictionaries({
            "p": integer, "a_int": SMALL, "d": st.integers(-2, 5), "z": ELEMENT,
            "bezout": st.lists(SMALL, min_size=2, max_size=2), "fingerprint": st.just(FINGERPRINT)}))
        argv = ["verify-witness", draw(elem), draw(_text(witness))]
    elif command == "verify-cert":
        argv = ["verify-cert", draw(gens), draw(_text(st.one_of(st.just(cert_json), _mutated(cert_json), JUNK)))]
    elif command == "purify":
        bound = st.one_of(st.integers(-2, 10 ** 12), st.just(2 ** 61 - 1))
        argv = ["purify", draw(gens)] + draw(st.sampled_from([[], ["--bound", str(draw(bound))]]))
    else:
        start = draw(st.one_of(st.integers(-2, 10 ** 6), st.sampled_from([10 ** 12, 10 ** 40])))
        argv = ["enum", draw(st.sampled_from(["rat", "lambda", "intvec", "partition"])),
                "--from", str(start), "--to", str(start + draw(st.integers(-1, 4)))]
    options = []
    for flag, values in (("--prime-cap", st.integers(-1, 10 ** 6)), ("--residue-cap", st.integers(-1, 10 ** 6)),
                         ("--witness-prime-count", st.integers(-1, 6))):
        if draw(st.integers(0, 4)) == 0:
            options += [flag, str(draw(values))]
    return options + argv


@contextlib.contextmanager
def _address_space_limit(extra):
    """Cap this process's address space at its present size plus extra bytes."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    with open("/proc/self/statm") as fh:
        size = int(fh.read().split()[0]) * resource.getpagesize()
    limit = size + extra if hard == resource.RLIM_INFINITY else min(size + extra, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@settings(max_examples=200, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_cli_answers_every_well_formed_command_with_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with _address_space_limit(1 << 30), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code, out.getvalue())
    assert err.getvalue() == "", argv
    lines = out.getvalue().splitlines()
    assert out.getvalue().endswith("\n") and ("enum" in argv or len(lines) == 1), (argv, out.getvalue())
    docs = [json.loads(line) for line in lines]
    assert all(isinstance(doc, dict) for doc in docs), argv
