"""Exact arithmetic in Q and in real quadratic fields Q(sqrt(d)).

A value is stored as p + q*sqrt(d) with p, q rational and d a square-free
non-negative integer.  Rational values carry d = 0.  No floating point is
used anywhere; comparisons are decided by exact sign computations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Union

from .errors import DomainError

_TRIAL_LIMIT = 10 ** 6

Rationalish = Union[int, Fraction]

_FRACTION_ZERO = Fraction(0)


@lru_cache
def _squarefree_part(d: int) -> tuple[int, int]:
    """Write d = s*s*f with f square-free.  Trial division only."""
    s, f, m = 1, 1, d
    p = 2
    while p <= _TRIAL_LIMIT and p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    if m > 1:
        if p * p <= m:
            raise DomainError(
                "cannot normalize radicand %d: cofactor %d has prime factors above %d"
                % (d, m, _TRIAL_LIMIT)
            )
        f *= m  # trial division passed sqrt(m), so the cofactor is prime
    return s, f


def _difference_sign(p1, q1, p2, q2, d: int) -> int:
    """Exact sign of (p1 - p2) + (q1 - q2)*sqrt(d) for rationals given as
    int or Fraction, decided on their numerators and denominators.

    Scaled by the positive denominators, the differences are integers a
    and b; a*a is compared with b*b*d only when a and b have opposite
    signs.  No field value or Fraction is built."""
    n1, m1 = p1.numerator, p1.denominator
    n2, m2 = p2.numerator, p2.denominator
    a = n1 * m2 - n2 * m1
    sa = (a > 0) - (a < 0)
    if not d:
        return sa
    r1, s1 = q1.numerator, q1.denominator
    r2, s2 = q2.numerator, q2.denominator
    b = r1 * s2 - r2 * s1
    sb = (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    # a/(m1*m2) against b*sqrt(d)/(s1*s2), both sides times m1*m2*s1*s2
    aa = a * s1 * s2
    bb = b * m1 * m2
    aa, bb = aa * aa, bb * bb * d
    if aa == bb:
        return 0  # unreachable for square-free d >= 2, kept for safety
    return sa if aa > bb else sb


@dataclass(frozen=True)
class FieldValue:
    """p + q*sqrt(d), canonicalized so that q == 0 implies d == 0."""

    p: Fraction
    q: Fraction = _FRACTION_ZERO
    d: int = 0

    def __post_init__(self):
        p, q, d = self.p, self.q, self.d
        if not isinstance(p, Fraction):
            p = Fraction(p)
        if not isinstance(q, Fraction):
            q = Fraction(q)
        if not isinstance(d, int) or d < 0:
            raise DomainError("radicand must be a non-negative integer, got %r" % (d,))
        if not q:
            d = 0
        elif not d:
            q = _FRACTION_ZERO
        else:
            s, f = _squarefree_part(d)
            if f == 1:
                p, q, d = p + q * s, _FRACTION_ZERO, 0
            elif s != 1:
                q, d = q * s, f
        if p is not self.p:
            object.__setattr__(self, "p", p)
        if q is not self.q:
            object.__setattr__(self, "q", q)
        if d is not self.d:
            object.__setattr__(self, "d", d)

    # -- predicates ------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.q

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        return _difference_sign(self.p, self.q, 0, 0, self.d)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "FieldValue":
        if isinstance(other, FieldValue):
            return other
        if isinstance(other, (int, Fraction)):
            return FieldValue(Fraction(other))
        return NotImplemented

    def _join_radicand(self, other: "FieldValue") -> int:
        if self.d and other.d and self.d != other.d:
            raise DomainError(
                "incompatible radicands %d and %d" % (self.d, other.d)
            )
        return self.d or other.d

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join_radicand(other)
        return FieldValue(self.p + other.p, self.q + other.q, d)

    __radd__ = __add__

    def __neg__(self):
        return FieldValue(-self.p, -self.q, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join_radicand(other)
        return FieldValue(self.p - other.p, self.q - other.q, d)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._join_radicand(other)
        return FieldValue(
            self.p * other.p + self.q * other.q * d,
            self.p * other.q + self.q * other.p,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DomainError("division by zero")
        d = self._join_radicand(other)
        denom = other.p * other.p - other.q * other.q * d
        num = self * FieldValue(other.p, -other.q, d)
        return FieldValue(num.p / denom, num.q / denom, d)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FieldValue):
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.q and self.p == other
        return NotImplemented

    def __hash__(self):
        return hash(self.p) if self.d == 0 else hash((self.p, self.q, self.d))

    def _compare(self, other):
        """Sign of self - other, or None for an operand of another type."""
        if isinstance(other, FieldValue):
            d = self._join_radicand(other)
            return _difference_sign(self.p, self.q, other.p, other.q, d)
        if isinstance(other, (int, Fraction)):
            return _difference_sign(self.p, self.q, other, 0, self.d)
        return None

    def __lt__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._compare(other)
        return NotImplemented if s is None else s >= 0

    # -- rendering -------------------------------------------------------

    def __str__(self):
        if self.q == 0:
            return str(self.p)
        root = "%s*sqrt(%d)" % (abs(self.q), self.d)
        if self.p == 0:
            return root if self.q > 0 else "-" + root
        op = "+" if self.q > 0 else "-"
        return "%s %s %s" % (self.p, op, root)

    def __repr__(self):
        return "FieldValue(%r)" % str(self)

    def decimal(self, digits: int = 20) -> str:
        """Decimal approximation truncated toward zero, exact-integer based."""
        if digits < 1:
            raise DomainError("digits must be positive")
        neg = self.sign() < 0
        v = -self if neg else self
        scale = 10 ** digits
        n = _floor_scaled(v, scale)
        whole, frac = divmod(n, scale)
        out = "%d.%0*d" % (whole, digits, frac)
        return "-" + out if neg else out


def _floor_scaled(v: FieldValue, scale: int) -> int:
    """floor(v * scale) for v >= 0, computed with integer arithmetic."""
    a_frac = v.p * scale
    b_frac = v.q * scale
    denom = a_frac.denominator * b_frac.denominator // gcd(
        a_frac.denominator, b_frac.denominator
    )
    a = a_frac.numerator * (denom // a_frac.denominator)
    b = b_frac.numerator * (denom // b_frac.denominator)
    if b == 0:
        s = 0
    elif b > 0:
        s = isqrt(b * b * v.d)
    else:
        t = b * b * v.d
        r = isqrt(t)
        s = -r if r * r == t else -r - 1
    return (a + s) // denom


ZERO = FieldValue(Fraction(0))
ONE = FieldValue(Fraction(1))


def make_rational(num: int, den: int = 1) -> FieldValue:
    """num/den as an exact value."""
    if den == 0:
        raise DomainError("zero denominator")
    return FieldValue(Fraction(num, den))


def make_quadratic(p: Rationalish, q: Rationalish, d: int) -> FieldValue:
    """p + q*sqrt(d); d is reduced to its square-free part."""
    return FieldValue(Fraction(p), Fraction(q), d)


def compare(x: FieldValue, y: FieldValue) -> int:
    """-1, 0 or 1 according to the exact sign of x - y."""
    s = x._compare(y)
    if s is None:
        raise TypeError("cannot compare %r with %r" % (x, y))
    return s


_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*?)?(?:sqrt\((\d+)\))?$")


def parse_value(text: str) -> FieldValue:
    """Parse 'p/q' or 'p/q + r/s*sqrt(D)'.  Decimals are rejected."""
    s = text.replace(" ", "")
    if not s:
        raise DomainError("empty value")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise DomainError("cannot parse value %r" % text)
    total = FieldValue(Fraction(0))
    for term in terms:
        m = _TERM.match(term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise DomainError("cannot parse term %r in %r" % (term, text))
        try:
            coef = Fraction(m.group(2)) if m.group(2) is not None else Fraction(1)
        except ZeroDivisionError:
            raise DomainError("zero denominator in %r" % text) from None
        if m.group(1) == "-":
            coef = -coef
        if m.group(3) is None:
            part = FieldValue(coef)
        else:
            part = make_quadratic(0, coef, int(m.group(3)))
        total = total + part
    return total


def value_from_json(obj) -> FieldValue:
    """Accept either the string grammar or {"p": .., "q": .., "d": ..}."""
    if isinstance(obj, str):
        return parse_value(obj)
    if isinstance(obj, dict):
        for key in ("p", "q", "d"):
            if isinstance(obj.get(key), float):
                raise DomainError("refusing float %r for %r" % (obj[key], key))
        try:
            p = Fraction(obj["p"])
            q = Fraction(obj.get("q", 0))
            d = int(obj.get("d", 0))
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise DomainError("malformed value object %r" % (obj,)) from exc
        return FieldValue(p, q, d)
    raise DomainError("cannot read value from %r" % (obj,))


def value_to_json(v: FieldValue) -> str:
    return str(v)
