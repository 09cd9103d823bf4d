"""Batch command-line front end with JSON input and output.

Every subcommand reads elements or generator sets as inline JSON or file
paths, prints exactly one JSON document (the enum subcommand prints JSON
lines), and exits 0 for affirmative results, 1 for negative ones with a
structured reason, 2 for usage problems, 3 when a capacity cap was hit,
and 141 (128 + SIGPIPE) when the reader closed stdout early.
The handlers that need the certificates or checks module import it
themselves, so the other commands never load it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .arith import check_nth_prime_cap, format_rational, nth_prime
from .bookkeeping import (
    FINGERPRINT,
    enum_qvec,
    enum_rat,
    intvec_at,
    partition_vector,
)
from .config import Config, check_prime_cap, load_config
from .construction import build_context
from .errors import (
    CapacityExceededError,
    EnumerationRangeError,
    NoQuotientContentError,
    NotInGroupError,
    SpanMeetsAxisError,
    WrongPrimeError,
)
from .group import membership, purify
from .vectors import GroupElement


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_json_arg(arg: str):
    """Accept inline JSON or a path to a JSON file."""
    try:
        return json.loads(arg)
    except json.JSONDecodeError as inline_err:
        if os.path.exists(arg):
            with open(arg, encoding="utf-8") as fh:
                return json.load(fh)
        raise inline_err


def _load_element(arg: str) -> GroupElement:
    return GroupElement.from_json(_load_json_arg(arg))


def _load_gens(arg: str) -> list[GroupElement]:
    data = _load_json_arg(arg)
    if not isinstance(data, list):
        raise ValueError("generator sets must be JSON arrays of elements")
    return [GroupElement.from_json(item) for item in data]


def _cmd_ctx(args, config: Config) -> int:
    ctx = build_context(args.p, config)
    _emit(ctx.to_json())
    return 0


def _cmd_member(args, config: Config) -> int:
    verdict = membership(_load_element(args.element), config)
    _emit(verdict.to_json())
    return 0 if verdict.member else 1


def _cmd_witness(args, config: Config) -> int:
    from .certificates import divisibility_witness, witness_primes

    e = _load_element(args.element)
    if args.prime is not None:
        wit = divisibility_witness(e, args.prime, config)
        _emit(wit.to_json())
        return 0
    # no prime given: witness at the first configured class primes
    if e.x.is_zero:
        raise NoQuotientContentError("element lies on the integer axis; its coset is zero")
    primes = witness_primes(e, config.witness_prime_count, config)
    witnesses = [divisibility_witness(e, p, config) for p in primes]
    _emit({
        "primes": primes,
        "witnesses": [w.to_json() for w in witnesses],
        "fingerprint": FINGERPRINT,
    })
    return 0


def _cmd_certify(args, config: Config) -> int:
    from .certificates import certify_free, check_printable

    gens = _load_gens(args.gens)
    try:
        cert = certify_free(gens, config)
    except SpanMeetsAxisError as exc:
        _emit({
            "status": "not-applicable",
            "reason": str(exc),
            "axis_witness": exc.witness.to_json(),
            "fingerprint": FINGERPRINT,
        })
        return 1
    check_printable(cert)
    _emit(cert.to_json())
    return 0


def _cmd_verify_cert(args, config: Config) -> int:
    from .certificates import FreenessCertificate, verify_certificate

    gens = _load_gens(args.gens)
    cert = FreenessCertificate.from_json(_load_json_arg(args.cert))
    out = verify_certificate(gens, cert, config)
    _emit(out.to_json())
    return 0 if out.ok else 1


def _cmd_verify_witness(args, config: Config) -> int:
    from .certificates import DivisibilityWitness, verify_witness

    e = _load_element(args.element)
    wit = DivisibilityWitness.from_json(_load_json_arg(args.witness))
    out = verify_witness(e, wit, config)
    _emit(out.to_json())
    return 0 if out.ok else 1


def _cmd_purify(args, config: Config) -> int:
    result = purify(_load_gens(args.gens), bound=args.bound, config=config)
    _emit(result.to_json())
    return 0


def _enum_value(kind: str, n: int, config: Config):
    if kind == "rat":
        return format_rational(enum_rat(n))
    if kind == "lambda":
        return enum_qvec(n).to_json()
    if kind == "intvec":
        return intvec_at(n, config.scan_cap).to_json()
    check_nth_prime_cap(n, config.prime_cap)
    p = nth_prime(n)
    check_prime_cap(p, config)
    return {"p": p, "vector": partition_vector(p, config.scan_cap).to_json()}


def _cmd_enum(args, config: Config) -> int:
    if args.start < 1 or args.stop < args.start:
        raise EnumerationRangeError(f"invalid range {args.start}..{args.stop}")
    _emit({"enum": args.kind, "from": args.start, "to": args.stop, "fingerprint": FINGERPRINT})
    for n in range(args.start, args.stop + 1):
        _emit({"n": n, "value": _enum_value(args.kind, n, config)})
    return 0


def _cmd_check(args, config: Config) -> int:
    from .checks import run_check

    params = {}
    for key in ("p", "kmax", "samples", "seed", "n", "pairs"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.element is not None:
        params["target"] = _load_element(args.element)
    report = run_check(args.name, config=config, **params)
    _emit(report.to_json())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicgroup",
        description="Exact constructions in a group of p-adically constrained rational sequences.",
    )
    parser.add_argument(
        "--version", action="version",
        version=json.dumps({"fingerprint": FINGERPRINT, "version": __version__}, sort_keys=True),
    )
    parser.add_argument("--config", help="JSON config file with cap overrides")
    parser.add_argument("--prime-cap", type=int, dest="prime_cap")
    parser.add_argument("--residue-cap", type=int, dest="residue_cap")
    parser.add_argument("--witness-prime-count", type=int, dest="witness_prime_count")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ctx = sub.add_parser("ctx", help="print the construction context of a prime")
    p_ctx.add_argument("p", type=int)
    p_ctx.set_defaults(func=_cmd_ctx)

    p_member = sub.add_parser("member", help="decide membership of an element")
    p_member.add_argument("element", help="inline JSON or a file path")
    p_member.set_defaults(func=_cmd_member)

    p_wit = sub.add_parser("witness", help="divisibility witness for a non-axis element")
    p_wit.add_argument("element")
    p_wit.add_argument("--prime", type=int)
    p_wit.set_defaults(func=_cmd_witness)

    p_vwit = sub.add_parser("verify-witness", help="recheck a divisibility witness")
    p_vwit.add_argument("element")
    p_vwit.add_argument("witness")
    p_vwit.set_defaults(func=_cmd_verify_witness)

    p_cert = sub.add_parser("certify", help="freeness certificate for a generator set")
    p_cert.add_argument("gens")
    p_cert.set_defaults(func=_cmd_certify)

    p_vcert = sub.add_parser("verify-cert", help="recheck a freeness certificate")
    p_vcert.add_argument("gens")
    p_vcert.add_argument("cert")
    p_vcert.set_defaults(func=_cmd_verify_cert)

    p_pur = sub.add_parser("purify", help="pure closure of a generator set")
    p_pur.add_argument("gens")
    p_pur.add_argument("--bound", type=int)
    p_pur.set_defaults(func=_cmd_purify)

    p_enum = sub.add_parser("enum", help="dump an enumeration range as JSON lines")
    p_enum.add_argument("kind", choices=("rat", "lambda", "intvec", "partition"))
    p_enum.add_argument("--from", dest="start", type=int, required=True)
    p_enum.add_argument("--to", dest="stop", type=int, required=True)
    p_enum.set_defaults(func=_cmd_enum)

    p_check = sub.add_parser("check", help="run a named invariant suite")
    p_check.add_argument("name")
    p_check.add_argument("--p", type=int)
    p_check.add_argument("--kmax", type=int)
    p_check.add_argument("--samples", type=int)
    p_check.add_argument("--seed", type=int)
    p_check.add_argument("--n", type=int)
    p_check.add_argument("--pairs", type=int)
    p_check.add_argument("--element", help="element for div-infinitude, inline JSON or path")
    p_check.set_defaults(func=_cmd_check)

    return parser


# exception class -> (error tag, exit code), in match order: the first class
# the exception is an instance of wins, so the ValueError subclasses (including
# json.JSONDecodeError) come before ValueError itself
_ERRORS = {
    CapacityExceededError: ("capacity-exceeded", 3),
    json.JSONDecodeError: ("malformed-json", 2),
    NotInGroupError: ("not-in-group", 1),
    WrongPrimeError: ("wrong-prime", 1),
    NoQuotientContentError: ("no-quotient-content", 1),
    ValueError: ("usage", 2),
    OSError: ("usage", 2),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        # devnull keeps the flush at exit from failing again; 141 = 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _run(args) -> int:
    try:
        config = load_config(
            args.config,
            prime_cap=args.prime_cap,
            residue_cap=args.residue_cap,
            witness_prime_count=args.witness_prime_count,
        )
        return args.func(args, config)
    except BrokenPipeError:
        raise  # an OSError, but no usage problem: main ends quietly
    except tuple(_ERRORS) as exc:
        tag, code = next(row for cls, row in _ERRORS.items() if isinstance(exc, cls))
        out = {"error": tag, "detail": str(exc), "fingerprint": FINGERPRINT}
        if isinstance(exc, json.JSONDecodeError):
            out["detail"] = f"{exc.msg} at line {exc.lineno} column {exc.colno}"
        elif isinstance(exc, CapacityExceededError):
            out.update(required=exc.required, cap=exc.cap)
        _emit(out)
        return code
