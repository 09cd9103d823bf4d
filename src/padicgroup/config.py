"""Runtime limits and identity for reproducible runs.

All potentially unbounded searches in the library are capped by a Config.
The defaults are generous for the bundled examples; raise them explicitly
for heavier inputs.  Artifacts embed the convention fingerprint so that
outputs from incompatible builds are never mixed.
"""

from __future__ import annotations

import json

from .bookkeeping import FINGERPRINT
from .errors import CapacityExceededError, FingerprintMismatchError
from .vectors import Record


class Config(Record):
    _fields = __slots__ = ("prime_cap", "residue_cap", "witness_prime_count", "bad_prime_cap",
                           "scan_cap", "purify_prime_cap", "purify_round_cap", "fingerprint")

    def __init__(self, prime_cap: int = 1_000_000,   # largest prime any search may touch
                 residue_cap: int = 1_000_000,     # largest residue set any check may expand
                 witness_prime_count: int = 3,     # divisor primes reported per witness query
                 bad_prime_cap: int = 10_000,      # refuse certificates needing primes past this
                 scan_cap: int = 1_000_000,        # largest integer-vector code a lookup may reach; lookups count and keep nothing
                 purify_prime_cap: int = 32,       # largest prime probed when no bound is given
                 purify_round_cap: int = 64,       # kernel rounds per prime
                 fingerprint: str = FINGERPRINT):
        super().__init__(prime_cap, residue_cap, witness_prime_count, bad_prime_cap,
                         scan_cap, purify_prime_cap, purify_round_cap, fingerprint)
        for name, value in zip(self._fields[:-1], self._values(self)):  # every field but the fingerprint
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.fingerprint != FINGERPRINT:
            raise FingerprintMismatchError(
                f"config fingerprint {self.fingerprint!r} does not match this build's {FINGERPRINT!r}"
            )

    def to_json(self) -> dict:
        return self._asdict()

    @classmethod
    def from_json(cls, data: dict) -> "Config":
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


DEFAULT = Config()


def check_prime_cap(p: int, config: Config) -> None:
    """Refuse a prime past config.prime_cap, before any work is spent on it."""
    if p > config.prime_cap:
        raise CapacityExceededError(
            f"prime {p} exceeds the prime cap", required=p, cap=config.prime_cap)


def load_config(path: str | None, **overrides) -> Config:
    """Read a JSON config file, then apply keyword overrides on top."""
    base = DEFAULT
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        base = Config.from_json(data)
    live = {k: v for k, v in overrides.items() if v is not None}
    return base.replace(**live) if live else base
