"""Finitely supported vectors and group elements.

A ``FinVec`` maps positive integer positions to nonzero exact scalars
(``int`` or ``Fraction``); zero entries are never stored.  A
``GroupElement`` is a pair (x0, x) of a rational scalar and such a vector,
the ambient shape for every element of the group under study.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter

from .arith import format_rational, parse_rational
from .errors import NotPAdicIntegerError


class Record:
    """Base of the frozen records, which behave as frozen dataclasses do.  A
    subclass names its fields in ``_fields``, its ``__slots__`` too, and sets
    them in ``__init__``, which ``replace`` runs again on the changed copy."""

    __slots__ = ("_hash",)
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._values = staticmethod(attrgetter(*cls._fields))  # a tuple: every record has two fields or more

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        # computed once, as the fields never change: the contexts and the
        # config are hashed on every context, block and condition cache lookup
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._values(self)))
            return self._hash

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({body})"

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values(self)))

    def replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __reduce__(self):  # copy and pickle rebuild through __init__, as assignment is refused
        return type(self), self._values(self)


class FinVec:
    """Immutable sparse vector over exact scalars, indexed from 1."""

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries=()):
        items = entries.items() if hasattr(entries, "items") else entries
        store = {}
        for idx, val in items:
            if not isinstance(idx, int) or idx < 1:
                raise ValueError(f"vector positions must be integers >= 1, got {idx!r}")
            if not isinstance(val, (int, Fraction)):
                raise ValueError(f"vector entries must be exact scalars, got {val!r}")
            if val != 0:
                store[idx] = val
        object.__setattr__(self, "_entries", store)

    def __setattr__(self, name, value):
        raise AttributeError("FinVec is immutable")

    def __reduce__(self):  # copy and pickle rebuild through __init__, as assignment is refused
        return FinVec, (self._entries,)

    @classmethod
    def zero(cls) -> "FinVec":
        return cls()

    @classmethod
    def single(cls, idx: int, val) -> "FinVec":
        return cls([(idx, val)])

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._entries))

    @property
    def max_support(self) -> int:
        return max(self._entries, default=0)

    @property
    def is_zero(self) -> bool:
        return not self._entries

    def items(self):
        return [(i, self._entries[i]) for i in sorted(self._entries)]

    def __getitem__(self, idx: int):
        return self._entries.get(idx, 0)

    def __iter__(self):
        return iter(sorted(self._entries))

    def __len__(self):
        return len(self._entries)

    def __add__(self, other: "FinVec") -> "FinVec":
        merged = dict(self._entries)
        for i, v in other._entries.items():
            merged[i] = merged.get(i, 0) + v
        return FinVec(merged)

    def __sub__(self, other: "FinVec") -> "FinVec":
        return self + (-other)

    def __neg__(self) -> "FinVec":
        return FinVec({i: -v for i, v in self._entries.items()})

    def scale(self, c) -> "FinVec":
        if c == 0:
            return FinVec()
        return FinVec({i: c * v for i, v in self._entries.items()})

    def inner(self, other: "FinVec"):
        """Exact inner product; always a finite sum."""
        small, big = self._entries, other._entries
        if len(big) < len(small):
            small, big = big, small
        total = 0
        for i, v in small.items():
            w = big.get(i)
            if w is not None:
                total += v * w
        return total

    def truncate(self, k: int) -> "FinVec":
        """Drop every entry at a position greater than k."""
        if k < 0:
            raise ValueError(f"truncation length must be >= 0, got {k}")
        return FinVec({i: v for i, v in self._entries.items() if i <= k})

    def reduce(self, p: int, m: int = 1) -> "FinVec":
        """Componentwise reduction mod p^m; zero residues drop from the support."""
        mod = p**m
        out = {}
        for i, v in self._entries.items():
            q = Fraction(v)
            if q.denominator % p == 0:
                raise NotPAdicIntegerError(
                    f"entry at position {i} has a negative {p}-adic valuation", index=i
                )
            out[i] = q.numerator * pow(q.denominator, -1, mod) % mod
        return FinVec(out)

    def denominator_lcm(self) -> int:
        return lcm(1, *(v.denominator for v in self._entries.values()))

    def to_json(self) -> dict:
        return {str(i): format_rational(v) for i, v in self.items()}

    @classmethod
    def from_json(cls, data: dict) -> "FinVec":
        if not isinstance(data, dict):
            raise ValueError(f"vector JSON must be an object, got {type(data).__name__}")
        entries = {}
        for key, text in data.items():
            # canonical only, so that no two keys name the same position
            if not (isinstance(key, str) and key.isascii() and key.isdigit() and key[0] != "0"):
                raise ValueError(f"vector position must be a canonical decimal string >= 1, got {key!r}")
            val = parse_rational(text)
            if val == 0:
                raise ValueError(f"zero entries may not be serialized (position {key})")
            entries[int(key)] = val
        return cls(entries)

    def __eq__(self, other):
        if not isinstance(other, FinVec):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        # immutable, so the hash is computed once; contexts keyed on a FinVec
        # hash it on every cache lookup
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(tuple(self.items())))
            return self._hash

    def __repr__(self):
        body = ", ".join(f"{i}: {format_rational(v)}" for i, v in self.items())
        return f"FinVec({{{body}}})"


class GroupElement(Record):
    """A candidate element (x0, x) of Q x Q^(N)."""

    _fields = __slots__ = ("x0", "x")

    def __init__(self, x0: Fraction, x: FinVec):
        object.__setattr__(self, "x0", x0 if type(x0) is Fraction else Fraction(x0))
        object.__setattr__(self, "x", x if isinstance(x, FinVec) else FinVec(x))

    @classmethod
    def zero(cls) -> "GroupElement":
        return cls(Fraction(0), FinVec())

    @property
    def is_zero(self) -> bool:
        return self.x0 == 0 and self.x.is_zero

    @property
    def max_support(self) -> int:
        return self.x.max_support

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.x0 + other.x0, self.x + other.x)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.x0 - other.x0, self.x - other.x)

    def __neg__(self) -> "GroupElement":
        return GroupElement(-self.x0, -self.x)

    def scale(self, c) -> "GroupElement":
        return GroupElement(c * self.x0, self.x.scale(c))

    def denominator_lcm(self) -> int:
        return lcm(self.x0.denominator, self.x.denominator_lcm())

    def cleared(self) -> tuple[int, int, dict[int, int], int]:
        """(den, den * x0, den * x by position, its gcd or 0), den the least common denominator."""
        den, terms = self.x0.denominator, []
        for i, v in self.x._entries.items():
            d = v.denominator
            terms.append((i, v.numerator, d))
            if den % d:
                den = lcm(den, d)
        x = {}
        for i, n, d in terms:
            x[i] = n * (den // d)
        return den, self.x0.numerator * (den // self.x0.denominator), x, gcd(*x.values())

    def to_json(self) -> dict:
        return {"x0": format_rational(self.x0), "x": self.x.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "GroupElement":
        if not isinstance(data, dict) or set(data) != {"x0", "x"}:
            raise ValueError('element JSON must be an object with exactly the keys "x0" and "x"')
        return cls(parse_rational(data["x0"]), FinVec.from_json(data["x"]))

    def __repr__(self):
        return f"GroupElement({format_rational(self.x0)}, {self.x!r})"


def element(x0, entries=()) -> GroupElement:
    """Convenience constructor from loose scalars."""
    vec = entries if isinstance(entries, FinVec) else FinVec(dict(entries))
    return GroupElement(Fraction(x0), vec)
