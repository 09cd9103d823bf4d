"""Exact arithmetic in a countable group of p-adically constrained sequences.

The group consists of pairs (x0, x) of a rational number and a finitely
supported rational vector subject to one integrality condition per prime
and condition vector; see the construction and group modules.  Everything
is exact: no floating point, no truncated p-adic approximations.
"""

__version__ = "0.1.0"

from .arith import Rational, format_rational, is_prime, parse_rational, valuation
from .bookkeeping import (
    FINGERPRINT,
    enum_qvec,
    enum_rat,
    fingerprint,
    intvec_at,
    intvec_index,
    partition_members,
    partition_vector,
    qvec_index,
)
from .config import DEFAULT, Config, load_config
from .construction import (
    ConditionBlock,
    PrimeContext,
    build_context,
    condition_block,
    level_at,
    level_contains,
    level_count,
    window_residues,
)
from .errors import (
    CapacityExceededError,
    EnumerationRangeError,
    FingerprintMismatchError,
    NoQuotientContentError,
    NotInGroupError,
    NotPAdicIntegerError,
    NotPrimeError,
    PadicGroupError,
    SpanMeetsAxisError,
    WrongPrimeError,
)
from .group import (
    MembershipVerdict,
    PurifyResult,
    in_integer_axis,
    is_member,
    membership,
    purify,
    spans_disjoint,
)
from .vectors import FinVec, GroupElement, element

# certificates and checks load on first access to one of these names (PEP
# 562), so the commands that need neither never compile them
_LAZY = {
    **dict.fromkeys(("BadPrimeRecord", "CheckOutcome", "DivisibilityWitness",
                     "FreenessCertificate", "certify_free", "common_axis_multiple",
                     "divisibility_witness", "verify_certificate", "verify_witness",
                     "certificates"), "certificates"),
    **dict.fromkeys(("CHECKS", "CheckReport", "run_check", "checks"), "checks"),
}


def __getattr__(name: str):
    modname = _LAZY.get(name)
    if modname is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{modname}", __name__)
    value = module if name == modname else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})

__all__ = [
    "BadPrimeRecord",
    "CHECKS",
    "CapacityExceededError",
    "CheckOutcome",
    "CheckReport",
    "ConditionBlock",
    "Config",
    "DEFAULT",
    "DivisibilityWitness",
    "EnumerationRangeError",
    "FINGERPRINT",
    "FinVec",
    "FingerprintMismatchError",
    "FreenessCertificate",
    "GroupElement",
    "MembershipVerdict",
    "NoQuotientContentError",
    "NotInGroupError",
    "NotPAdicIntegerError",
    "NotPrimeError",
    "PadicGroupError",
    "PrimeContext",
    "PurifyResult",
    "Rational",
    "SpanMeetsAxisError",
    "WrongPrimeError",
    "build_context",
    "certify_free",
    "common_axis_multiple",
    "condition_block",
    "divisibility_witness",
    "element",
    "enum_qvec",
    "enum_rat",
    "fingerprint",
    "format_rational",
    "in_integer_axis",
    "intvec_at",
    "intvec_index",
    "is_member",
    "is_prime",
    "level_at",
    "level_contains",
    "level_count",
    "load_config",
    "membership",
    "parse_rational",
    "partition_members",
    "partition_vector",
    "purify",
    "qvec_index",
    "run_check",
    "spans_disjoint",
    "valuation",
    "verify_certificate",
    "verify_witness",
    "window_residues",
]
