"""Runtime limits and identity for reproducible runs.

All potentially unbounded searches in the library are capped by a Config.
The defaults are generous for the bundled examples; raise them explicitly
for heavier inputs.  Artifacts embed the convention fingerprint so that
outputs from incompatible builds are never mixed.
"""

from __future__ import annotations

import dataclasses
import json

from .bookkeeping import FINGERPRINT
from .errors import CapacityExceededError, FingerprintMismatchError


@dataclasses.dataclass(frozen=True)
class Config:
    prime_cap: int = 1_000_000       # largest prime any search may touch
    residue_cap: int = 1_000_000     # largest residue set any check may expand
    witness_prime_count: int = 3     # divisor primes reported per witness query
    bad_prime_cap: int = 10_000      # refuse certificates needing primes past this
    scan_cap: int = 1_000_000        # largest integer-vector code a lookup may reach; lookups count and keep nothing
    purify_prime_cap: int = 32       # largest prime probed when no bound is given
    purify_round_cap: int = 64       # kernel rounds per prime
    fingerprint: str = FINGERPRINT

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if field.type == "int":
                value = getattr(self, field.name)
                if type(value) is not int or value < 1:
                    raise ValueError(f"{field.name} must be a positive integer")
        if self.fingerprint != FINGERPRINT:
            raise FingerprintMismatchError(
                f"config fingerprint {self.fingerprint!r} does not match this build's {FINGERPRINT!r}"
            )

    def replace(self, **kwargs) -> "Config":
        return dataclasses.replace(self, **kwargs)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "Config":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
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
