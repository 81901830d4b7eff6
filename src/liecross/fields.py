"""Exact scalar arithmetic over the two supported ground fields.

A FieldSpec names either the rationals or a prime field GF(p); a Scalar is an
immutable element of one of them.  All arithmetic is exact: rationals are kept
in lowest terms with a positive denominator, prime-field elements as residues
in [0, p).  Equality is structural and hash-consistent, so scalars (and
anything built from them) can be deduplicated with dicts and sets.

Prime-field scalars are shared instances: FieldSpec.prime(p) returns one
field object per p, and each prime field keeps one Scalar per residue (for
the first 2^16 residues used), which its arithmetic, coercions, zero() and
one() hand out instead of building new objects.  Field checks therefore test
identity first and fall back to structural equality, so a FieldSpec built
directly still works (with its own residue table) and still mixes with the
shared one.

This module alone knows how a field stores its values.  Bulk arithmetic
elsewhere (matrix products, bracket and action expansions) goes through two
private conversions of each FieldSpec:

* field._lift(s) turns a Scalar into the plain number Python computes on:
  its residue int over GF(p), a Fraction over QQ;
* field._lower(v) turns a sum of products of lifted numbers (an int or a
  Fraction) back into a Scalar: the shared scalar of v mod p over GF(p), a
  new Scalar in lowest terms over QQ.

Lifted numbers of one field are equal exactly when their scalars are, so
tuples of them can key dicts.

Serialization: rationals render as "a/b", with "/b" omitted when b = 1;
prime-field elements render as their decimal residue.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import attrgetter
from fractions import Fraction
from math import gcd

from .errors import FieldMismatchError

RATIONAL = "rational"
PRIME = "prime"

_SCALAR_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


def same_field(a: "FieldSpec", b: "FieldSpec") -> bool:
    """Field equality with the identity test of shared fields first."""
    return a is b or a == b


# Miller-Rabin on the first twelve primes is exact below 3.18e23; moduli are
# capped well inside that at 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MODULUS_LIMIT = 1 << 64


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality, exact for every n below 3.18e23."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ground field description: kind is "rational" or "prime" (with p)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == RATIONAL:
            if self.p is not None:
                raise ValueError("rational field takes no modulus")
        elif self.kind == PRIME:
            if self.p is not None and self.p >= _MODULUS_LIMIT:
                raise ValueError(f"prime modulus must be below 2^64, got {self.p}")
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"prime field needs a prime modulus, got {self.p}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")
        # Not dataclass fields, so equality, hashing and repr ignore them.
        if self.kind == PRIME:
            residues, p = _Residues(self), self.p
            lift = attrgetter("num")
            lower = lambda v: residues[v % p]
        else:
            residues = None
            lift = Scalar.as_fraction
            lower = lambda v: Scalar(self, v.numerator, v.denominator)
        object.__setattr__(self, "_residues", residues)
        object.__setattr__(self, "_lift", lift)
        object.__setattr__(self, "_lower", lower)

    def __reduce__(self):
        return _shared_field, (self.kind, self.p)

    @classmethod
    def rational(cls) -> "FieldSpec":
        return _shared_field(RATIONAL, None)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return _shared_field(PRIME, p)

    @property
    def is_prime_field(self) -> bool:
        return self.kind == PRIME

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, string literal or Scalar into this field."""
        if isinstance(value, int):
            if self._residues is not None:
                return self._residues[value % self.p]
            return Scalar(self, value, 1)
        if isinstance(value, Scalar):
            if not same_field(value.field, self):
                raise FieldMismatchError(f"scalar from {value.field} used in {self}")
            return value
        if isinstance(value, str):
            return self.parse_scalar(value)
        if isinstance(value, Fraction):
            if self.kind == PRIME:
                return self.scalar(value.numerator) / self.scalar(value.denominator)
            return Scalar(self, value.numerator, value.denominator)
        raise TypeError(f"cannot coerce {value!r} to a scalar")

    def parse_scalar(self, text: str) -> "Scalar":
        """Parse a canonical literal: "a/b" or "a" (rational), "k" (prime)."""
        m = _SCALAR_RE.match(text.strip())
        if m is None:
            raise ValueError(f"bad scalar literal {text!r}")
        num, den = int(m.group(1)), int(m.group(2) or 1)
        if self.kind == PRIME:
            if den != 1 or num < 0 or num >= self.p:
                raise ValueError(
                    f"bad residue literal {text!r} for GF({self.p}): "
                    f"expected an integer in [0, {self.p})")
            return self._residues[num]
        return Scalar(self, num, den)

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def elements(self):
        """All field elements; only available for prime fields."""
        if self.kind != PRIME:
            raise ValueError("cannot enumerate an infinite field")
        return (self._residues[k] for k in range(self.p))

    def __str__(self):
        return "QQ" if self.kind == RATIONAL else f"GF({self.p})"


_shared_fields: dict[tuple[str, int | None], FieldSpec] = {}


def _shared_field(kind: str, p: int | None) -> FieldSpec:
    """The one shared FieldSpec of this kind and modulus."""
    field = _shared_fields.get((kind, p))
    if field is None:
        field = _shared_fields.setdefault((kind, p), FieldSpec(kind, p))
    return field


# Residue tables stop growing here, so a huge prime cannot fill memory with
# shared scalars; residues past the cap get fresh (equal) scalars instead.
_RESIDUE_TABLE_MAX = 1 << 16


class _Residues(dict):
    """One shared Scalar per residue of a prime field, made on first use.

    Keys are residues in [0, p).  A race between threads can at worst build
    two equal scalars for one residue, which is harmless.
    """

    def __init__(self, field: FieldSpec):
        super().__init__()
        self.field = field

    def __missing__(self, residue: int) -> "Scalar":
        scalar = Scalar(self.field, residue, 1)
        if len(self) < _RESIDUE_TABLE_MAX:
            self[residue] = scalar
        return scalar


@dataclass(frozen=True)
class Scalar:
    """An exact field element; construction canonicalizes.

    Rational: num/den in lowest terms, den > 0.  Prime: num the residue
    mod p, den fixed at 1.  Structural equality and hashing follow from the
    canonical form.
    """

    field: FieldSpec
    num: int
    den: int = 1

    def __post_init__(self):
        if self.field.kind == PRIME:
            if self.den != 1:
                raise ValueError("prime-field scalars have no denominator")
            object.__setattr__(self, "num", self.num % self.field.p)
        else:
            if self.den == 0:
                raise ZeroDivisionError("scalar with zero denominator")
            num, den = self.num, self.den
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            if g > 1:
                num, den = num // g, den // g
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", den)

    def _check(self, other: "Scalar"):
        # Shared scalars of one field pass on two identity tests.
        if other.__class__ is Scalar and other.field is self.field:
            return
        if not isinstance(other, Scalar):
            raise TypeError(f"expected a Scalar, got {other!r}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"cannot combine {self.field} and {other.field} scalars")

    def __add__(self, other):
        self._check(other)
        field = self.field
        if field._residues is not None:
            return field._residues[(self.num + other.num) % field.p]
        return Scalar(field, self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __sub__(self, other):
        self._check(other)
        field = self.field
        if field._residues is not None:
            return field._residues[(self.num - other.num) % field.p]
        return Scalar(field, self.num * other.den - other.num * self.den,
                      self.den * other.den)

    def __mul__(self, other):
        self._check(other)
        field = self.field
        if field._residues is not None:
            return field._residues[self.num * other.num % field.p]
        return Scalar(field, self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        self._check(other)
        if not other:
            raise ZeroDivisionError(f"division by zero in {self.field}")
        field = self.field
        if field._residues is not None:
            return field._residues[self.num * pow(other.num, -1, field.p) % field.p]
        return Scalar(field, self.num * other.den, self.den * other.num)

    def __neg__(self):
        field = self.field
        if field._residues is not None:
            return field._residues[-self.num % field.p]
        return Scalar(field, -self.num, self.den)

    def __bool__(self):
        return self.num != 0

    def __str__(self):
        if self.den == 1:
            return str(self.num)
        return f"{self.num}/{self.den}"

    def __repr__(self):
        return f"Scalar({self.field}, {self})"

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)
