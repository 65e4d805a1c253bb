"""Exact arithmetic in Q and in real quadratic fields Q(sqrt(d)).

A value is stored as (a + b*sqrt(d))/n with integers a, b and n > 0 in
lowest terms and d a square-free non-negative integer; rational values
carry b = d = 0.  The rational parts p = a/n and q = b/n are read back as
Fractions.  No floating point is used anywhere: coefficients must be int or
Fraction, and comparisons are decided by one exact integer sign test.

``FieldValue`` is immutable and slotted.  Only its public constructor
validates; arithmetic results skip that, and every value goes once through
the one normaliser ``__post_init__``.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Union

from .errors import DomainError

_TRIAL_LIMIT = 10 ** 6

Rationalish = Union[int, Fraction]


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


def _sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and square-free d:
    a*a is compared with b*b*d only when a and b have opposite signs."""
    if b >= 0:
        if a >= 0:
            return 1 if a or b else 0
        return 1 if b * b * d > a * a else -1
    if a <= 0:
        return -1
    return 1 if a * a > b * b * d else -1


def _integers(a, b, n) -> tuple[int, int, int]:
    """(a + b*sqrt(d))/n with int or Fraction coefficients, rewritten over
    one integer denominator.  Anything else, floats included, is refused."""
    for c in (a, b, n):
        if not isinstance(c, (int, Fraction)):
            raise DomainError("coefficients must be int or Fraction, got %r" % (c,))
    p, q = Fraction(a) / n, Fraction(b) / n
    m = p.denominator * q.denominator
    return p.numerator * q.denominator, q.numerator * p.denominator, m


class FieldValue:
    """(a + b*sqrt(d))/n in lowest terms: n > 0, gcd(a, b, n) == 1, d
    square-free, and b == 0 exactly when d == 0.  The coefficients may be
    given as int or Fraction; they are stored as integers."""

    __slots__ = ("a", "b", "d", "n")

    def __init__(self, a: Rationalish, b: Rationalish = 0, d: int = 0, n: Rationalish = 1):
        if not n:
            raise DomainError("zero denominator")
        if type(a) is not int or type(b) is not int or type(n) is not int:
            a, b, n = _integers(a, b, n)
        if not isinstance(d, int) or d < 0:
            raise DomainError("radicand must be a non-negative integer, got %r" % (d,))
        if not b or not d:
            b = d = 0
        else:
            s, f = _squarefree_part(d)
            if f == 1:
                a, b, d = a + b * s, 0, 0
            elif s != 1:
                b, d = b * s, f
        _make(a, b, d, n, self)

    def __post_init__(self):
        """The one normaliser, run once on every value: n > 0, no common
        factor, and d == 0 when b == 0."""
        a, b, n = self.a, self.b, self.n
        if n < 0:
            a, b, n = -a, -b, -n
        g = gcd(a, b, n)
        if g != 1:
            a, b, n = a // g, b // g, n // g
        if n is not self.n:  # n changes whenever a or b does
            _set_a(self, a)
            _set_b(self, b)
            _set_n(self, n)
        if not b and self.d:
            _set_d(self, 0)

    def __setattr__(self, name, value):
        raise FrozenInstanceError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise FrozenInstanceError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return FieldValue, (self.a, self.b, self.d, self.n)

    @property
    def p(self) -> Fraction:
        """The rational part a/n."""
        return Fraction(self.a, self.n)

    @property
    def q(self) -> Fraction:
        """The coefficient b/n of sqrt(d)."""
        return Fraction(self.b, self.n)

    # -- predicates ------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.b

    def is_zero(self) -> bool:
        return not self.a and not self.b

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        return _sign(self.a, self.b, self.d)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "FieldValue":
        if isinstance(other, FieldValue):
            return other
        if isinstance(other, (int, Fraction)):  # already in lowest terms
            return _make(other.numerator, 0, 0, other.denominator)
        return NotImplemented

    def _join_radicand(self, other: "FieldValue") -> int:
        if self.d == other.d:
            return self.d
        if self.d and other.d:
            raise DomainError(
                "incompatible radicands %d and %d" % (self.d, other.d)
            )
        return self.d or other.d

    def __add__(self, other):
        if type(other) is not FieldValue:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d = self.d if self.d == other.d else self._join_radicand(other)
        n, m = self.n, other.n
        return _make(self.a * m + other.a * n, self.b * m + other.b * n, d, n * m)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.a, -self.b, self.d, self.n)

    def __sub__(self, other):
        if type(other) is not FieldValue:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d = self.d if self.d == other.d else self._join_radicand(other)
        n, m = self.n, other.n
        return _make(self.a * m - other.a * n, self.b * m - other.b * n, d, n * m)

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
        a, b, c, e = self.a, self.b, other.a, other.b
        return _make(a * c + b * e * d, a * e + b * c, d, self.n * other.n)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DomainError("division by zero")
        d = self._join_radicand(other)
        # x/y = x * conj(y) * m / (n * (c*c - e*e*d)) for y = (c + e*sqrt(d))/m
        a, b, c, e, m = self.a, self.b, other.a, other.b, other.n
        return _make(
            (a * c - b * e * d) * m, (b * c - a * e) * m, d, self.n * (c * c - e * e * d)
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FieldValue):
            return (self.a == other.a and self.b == other.b and self.n == other.n
                    and self.d == other.d)
        if isinstance(other, (int, Fraction)):
            return (not self.b and self.a == other.numerator
                    and self.n == other.denominator)
        return NotImplemented

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.d, self.n))
        return hash(self.a) if self.n == 1 else hash(Fraction(self.a, self.n))

    def _compare(self, other):
        """Sign of self - other, or None for an operand of another type."""
        if isinstance(other, FieldValue):
            d = self.d if self.d == other.d else self._join_radicand(other)
            n, m = self.n, other.n
            if n == m:
                return _sign(self.a - other.a, self.b - other.b, d)
            return _sign(self.a * m - other.a * n, self.b * m - other.b * n, d)
        if isinstance(other, (int, Fraction)):
            m = other.denominator
            return _sign(self.a * m - other.numerator * self.n, self.b * m, self.d)
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
        a, b, n = self.a, self.b, self.n
        if not b:
            return _ratio(a, n)
        root = "%s*sqrt(%d)" % (_ratio(abs(b), n), self.d)
        if not a:
            return root if b > 0 else "-" + root
        return "%s %s %s" % (_ratio(a, n), "+" if b > 0 else "-", root)

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


_set_a, _set_b, _set_d, _set_n = (vars(FieldValue)[f].__set__ for f in FieldValue.__slots__)


def _make(a: int, b: int, d: int, n: int, v=None) -> FieldValue:
    """Store integers into v, by default a new value, and normalise them:
    arithmetic results, whose operands are already normal, come here
    without the constructor's checks."""
    v = object.__new__(FieldValue) if v is None else v
    _set_a(v, a)
    _set_b(v, b)
    _set_d(v, d)
    _set_n(v, n)
    v.__post_init__()
    return v


def _ratio(x: int, n: int) -> str:
    """x/n in lowest terms, rendered as Fraction renders it."""
    g = gcd(x, n)
    x, n = x // g, n // g
    return str(x) if n == 1 else "%d/%d" % (x, n)


def _floor_scaled(v: FieldValue, scale: int) -> int:
    """floor(v * scale) for v >= 0, computed with integer arithmetic.  A
    non-zero b comes with a square-free d > 1, so b*sqrt(d) is irrational."""
    b = v.b * scale
    r = isqrt(b * b * v.d)
    return (v.a * scale + (r if b >= 0 else -r - 1)) // v.n


ZERO = FieldValue(0)


def make_rational(num: int, den: int = 1) -> FieldValue:
    """num/den as an exact value."""
    return FieldValue(num, 0, 0, den)


def make_quadratic(p: Rationalish, q: Rationalish, d: int) -> FieldValue:
    """p + q*sqrt(d); d is reduced to its square-free part."""
    return FieldValue(p, q, d)


def compare(x: FieldValue, y: FieldValue) -> int:
    """-1, 0 or 1 according to the exact sign of x - y."""
    s = x._compare(y)
    if s is None:
        raise TypeError("cannot compare %r with %r" % (x, y))
    return s


# a '*' only joins a coefficient to sqrt(...): "3*" is no term
_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)(?:\*(?=sqrt))?)?(?:sqrt\((\d+)\))?$")


def parse_value(text: str) -> FieldValue:
    """Parse 'p/q' or 'p/q + r/s*sqrt(D)', summing terms as integers.  Decimals are rejected."""
    s = text.replace(" ", "")
    if not s:
        raise DomainError("empty value")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise DomainError("cannot parse value %r" % text)
    p, m, q, n, d = 0, 1, 0, 1, 0
    for term in terms:
        match = _TERM.match(term)
        if not match or (match.group(2) is None and match.group(3) is None):
            raise DomainError("cannot parse term %r in %r" % (term, text))
        sign, coef, radicand = match.groups()
        num, _, den = (coef or "1").partition("/")
        num, den, r = int(sign + num), int(den or 1), int(radicand or 1)
        if not den:
            raise DomainError("zero denominator in %r" % text)
        root, r = _squarefree_part(r) if num and r > 1 else (1, r)
        if not num or not r:  # a zero term, or sqrt(0)
            continue
        if r == 1:
            p, m = p * den + num * root * m, m * den
        elif q and r != d:  # a radical part that cancelled leaves no radicand
            raise DomainError("incompatible radicands %d and %d" % (d, r))
        else:
            q, n, d = q * den + num * root * n, n * den, r
    return _make(p * n, q * m, d, m * n)


_RATIO = re.compile(r"[+-]?\d+(?:/\d+)?")


def value_from_json(obj) -> FieldValue:
    """Accept either the string grammar or {"p": .., "q": .., "d": ..} with
    integers, p and q also as strings of integers or integer ratios."""
    if isinstance(obj, str):
        return parse_value(obj)
    if isinstance(obj, dict):
        for key in ("p", "q", "d"):
            v = obj.get(key)
            if isinstance(v, (float, bool)):
                raise DomainError("refusing %s %r for %r" % (type(v).__name__, v, key))
            if isinstance(v, str) and key != "d" and not _RATIO.fullmatch(v):
                raise DomainError("refusing %r for %r: not an integer or integer ratio" % (v, key))
        try:
            p = Fraction(obj["p"])
            q = Fraction(obj.get("q", 0))
            d = int(obj.get("d", 0))
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            raise DomainError("malformed value object %r" % (obj,)) from exc
        return FieldValue(p, q, d)
    raise DomainError("cannot read value from %r" % (obj,))

