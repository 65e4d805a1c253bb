"""Exact arithmetic: canonicalization, ordering, parsing, rendering."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from ietbwt.errors import DomainError
from ietbwt.exact import (
    FieldValue,
    _text,
    compare,
    make_quadratic,
    make_rational,
    parse_value,
    value_from_json,
)

SQRT5 = make_quadratic(0, 1, 5)


def _interval_sign(p: Fraction, q: Fraction, d: int) -> int:
    """Sign of p + q*sqrt(d) via integer interval bounds on sqrt(d), made
    finer (from 256 fractional bits up) until they decide it.

    Independent of FieldValue.sign, which compares p*p against q*q*d.
    """
    c = lcm(p.denominator, q.denominator)
    a = p.numerator * (c // p.denominator)
    b = q.numerator * (c // q.denominator)
    if b == 0 or d == 0:
        return (a > 0) - (a < 0)
    r0 = isqrt(d)
    if r0 * r0 == d:
        x = a + b * r0
        return (x > 0) - (x < 0)
    k = 256
    while k <= 1 << 16:
        a2 = a << k
        r = isqrt((b * b * d) << (2 * k))
        if b > 0:
            lo, hi = a2 + r, a2 + r + 1
        else:
            lo, hi = a2 - r - 1, a2 - r
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        k *= 2
    raise AssertionError("interval bound too coarse for %s + %s*sqrt(%d)" % (p, q, d))


class TestCanonicalization:
    def test_rational_reduction(self):
        assert make_rational(2, 4) == make_rational(1, 2)
        assert make_rational(-3, -6) == make_rational(1, 2)
        assert make_rational(3, -6).p == Fraction(-1, 2)

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            make_rational(1, 0)

    def test_square_radicand_collapses(self):
        assert make_quadratic(0, 1, 4) == make_rational(2)
        assert make_quadratic(0, 1, 9) == make_rational(3)
        assert make_quadratic(0, 1, 1) == make_rational(1)
        assert make_quadratic(0, 1, 0) == make_rational(0)

    def test_square_part_extracted(self):
        assert make_quadratic(0, 1, 12) == make_quadratic(0, 2, 3)
        assert make_quadratic(0, 1, 8) == make_quadratic(0, 2, 2)
        assert make_quadratic(0, 1, 45) == make_quadratic(0, 3, 5)
        assert make_quadratic(0, 1, 50) == make_quadratic(0, 5, 2)

    def test_zero_coefficient_drops_radicand(self):
        v = make_quadratic(Fraction(1, 2), 0, 7)
        assert v.is_rational() and v.d == 0

    def test_example_value(self):
        v = make_quadratic(Fraction(3, 4), Fraction(-1, 4), 5)
        assert (v.p, v.q, v.d) == (Fraction(3, 4), Fraction(-1, 4), 5)

    def test_negative_radicand_rejected(self):
        with pytest.raises(DomainError):
            make_quadratic(0, 1, -5)

    def test_huge_prime_radicand_rejected(self):
        with pytest.raises(DomainError):
            make_quadratic(0, 1, 2305843009213693951)

    def test_prime_radicand_above_trial_limit(self):
        assert make_quadratic(0, 1, 1000003).d == 1000003
        with pytest.raises(DomainError):
            make_quadratic(0, 1, 1000003 * 1000033)


class TestArithmetic:
    def test_sqrt5_squared(self):
        assert SQRT5 * SQRT5 == make_rational(5)

    def test_length_sum(self):
        b = make_quadratic(Fraction(-1, 4), Fraction(1, 4), 5)
        c = make_quadratic(Fraction(3, 4), Fraction(-1, 4), 5)
        assert b + c == make_rational(1, 2)

    def test_reciprocal(self):
        one_plus = make_rational(1) + SQRT5
        assert make_rational(1) / one_plus == make_quadratic(
            Fraction(-1, 4), Fraction(1, 4), 5
        )

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            SQRT5 / make_rational(0)

    def test_incompatible_radicands(self):
        with pytest.raises(DomainError):
            SQRT5 + make_quadratic(0, 1, 2)
        with pytest.raises(DomainError):
            SQRT5 * make_quadratic(0, 1, 3)

    def test_int_coercion(self):
        assert SQRT5 * 2 == make_quadratic(0, 2, 5)
        assert 1 + make_rational(1, 2) == make_rational(3, 2)
        assert 1 - make_rational(1, 2) == make_rational(1, 2)
        assert 5 / SQRT5 == SQRT5

    def test_equality_and_hash_agree_with_int_and_fraction(self):
        half = make_rational(1, 2)
        assert make_rational(1) == 1 and 1 == make_rational(1)
        assert half == Fraction(1, 2) and Fraction(1, 2) == half
        assert make_rational(1) != 2 and SQRT5 != 2 and half != "1/2"
        assert hash(make_rational(1)) == hash(1)
        assert hash(half) == hash(Fraction(1, 2))
        assert hash(SQRT5) == hash(make_quadratic(0, 1, 5))
        assert {make_rational(3): "x"}[3] == "x"
        assert len({make_rational(2), 2, Fraction(4, 2), SQRT5}) == 2

    def test_round_trip_ops(self):
        rng = random.Random(11)
        for _ in range(200):
            d = rng.choice([0, 2, 3, 5])
            x = make_quadratic(
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                d,
            )
            y = make_quadratic(
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                d,
            )
            assert (x + y) - y == x
            if not y.is_zero():
                assert (x * y) / y == x


class TestOrdering:
    def test_example_compare(self):
        lhs = make_quadratic(Fraction(3, 2), Fraction(-1, 2), 5)
        assert compare(lhs, make_rational(1, 3)) == 1

    def test_sign_cases(self):
        assert make_rational(0).sign() == 0
        assert SQRT5.sign() == 1
        assert (-SQRT5).sign() == -1
        assert (make_rational(2) - SQRT5).sign() == -1
        assert (make_rational(3) - SQRT5).sign() == 1
        assert (SQRT5 - make_rational(2)).sign() == 1

    def test_operators(self):
        assert make_rational(1, 3) < SQRT5
        assert SQRT5 <= SQRT5
        assert SQRT5 > make_rational(2)
        assert make_rational(9, 4) >= make_rational(2)
        assert sorted([make_rational(3), SQRT5, make_rational(1)]) == [
            make_rational(1),
            SQRT5,
            make_rational(3),
        ]

    def test_randomized_against_interval_oracle(self):
        rng = random.Random(2026)
        pool = [0, 1, 2, 3, 4, 5, 7, 10]
        for _ in range(400):
            d = rng.choice(pool)
            p1 = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            q1 = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            p2 = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            q2 = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
            x = make_quadratic(p1, q1, d)
            y = make_quadratic(p2, q2, d)
            expect = _interval_sign(p1 - p2, q1 - q2, d)
            assert compare(x, y) == expect, (p1, q1, p2, q2, d)

    def test_every_order_method_against_interval_oracle(self):
        rng = random.Random(808)
        checked = {"equal": 0, "q only": 0, "near": 0, "rational": 0, "zero": 0}
        for _ in range(1500):
            d = rng.choice(ORACLE_RADICANDS)
            scale = rng.choice((10, 10 ** 6, 10 ** 30))
            p1, q1 = _rand_fraction(rng, scale), _rand_fraction(rng, scale)
            kind = rng.choice(("random", "equal", "q only", "near", "rational", "zero"))
            if kind == "zero":
                p1, q1 = rng.choice(((Fraction(0), Fraction(0)), (p1, q1)))
                p2, q2 = rng.choice(((Fraction(0), Fraction(0)), (p1, q1)))
            elif kind == "equal":
                p2, q2 = p1, q1
            elif kind == "q only":
                p2, q2 = p1, q1 + rng.choice((-1, 1)) * Fraction(1, scale)
            elif kind == "near":
                # (p1 - p2) + (q1 - q2)*sqrt(d) within about 1/m of zero
                m = rng.randint(1, scale)
                b = rng.randint(-scale, scale)
                a = -isqrt(b * b * d) if b > 0 else isqrt(b * b * d)
                a += rng.choice((-1, 0, 1))
                p2 = p1 - Fraction(a, m)
                q2 = q1 - Fraction(b, m)
            elif kind == "rational":
                p2, q2 = _rand_fraction(rng, scale), Fraction(0)
                if rng.random() < 0.5:
                    q1 = Fraction(0)
            else:
                p2, q2 = _rand_fraction(rng, scale), _rand_fraction(rng, scale)
            x = make_quadratic(p1, q1, d)
            y = make_quadratic(p2, q2, d)
            expect = _interval_sign(p1 - p2, q1 - q2, d)
            _check_order(x, y, expect)
            assert x.sign() == _interval_sign(p1, q1, d)
            if q2 == 0:
                # y as a plain int or Fraction, on either side
                for raw in (p2, int(p2)) if p2.denominator == 1 else (p2,):
                    _check_order(x, raw, expect)
                    assert compare(x, raw) == expect
            if q1 == 0 and q2 == 0:
                _check_order(p1, y, expect)
            if kind in checked and (kind != "zero" or x.is_zero() or y.is_zero()):
                checked[kind] += 1
        assert min(checked.values()) >= 100, checked

    def test_unsupported_operands(self):
        for bad in (0.5, None, "1", [1]):
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(SQRT5, op)(bad) is NotImplemented
        with pytest.raises(TypeError, match="'<' not supported"):
            SQRT5 < 0.5
        with pytest.raises(TypeError, match="'<=' not supported"):
            SQRT5 <= None
        with pytest.raises(TypeError, match="'<' not supported .* 'float' and"):
            0.5 < SQRT5
        with pytest.raises(TypeError, match="'>=' not supported"):
            SQRT5 >= "1"
        assert (SQRT5 == 0.5) is False and (make_rational(1, 2) == 0.5) is False
        assert SQRT5 != 0.5 and make_rational(1) != 1.0

    def test_mixed_radicands_in_order(self):
        sqrt2 = make_quadratic(0, 1, 2)
        for check in (
            lambda: SQRT5 < sqrt2,
            lambda: SQRT5 <= sqrt2,
            lambda: SQRT5 > sqrt2,
            lambda: SQRT5 >= sqrt2,
            lambda: compare(SQRT5, sqrt2),
            lambda: SQRT5 - sqrt2,
        ):
            with pytest.raises(DomainError, match="incompatible radicands"):
                check()
        assert SQRT5 != sqrt2
        assert make_rational(3) > SQRT5 > make_rational(2) > sqrt2


ORACLE_RADICANDS = (2, 3, 5, 6, 7, 10)


def _rand_fraction(rng: random.Random, scale: int) -> Fraction:
    return Fraction(rng.randint(-scale, scale), rng.randint(1, scale))


def _check_order(x, y, expect: int) -> None:
    """Every comparison of x with y, either way round, agrees with expect,
    the exact sign of x - y."""
    case = (x, y, expect)
    assert (x < y) == (expect < 0), case
    assert (x <= y) == (expect <= 0), case
    assert (x > y) == (expect > 0), case
    assert (x >= y) == (expect >= 0), case
    assert (x == y) == (expect == 0), case
    assert (x != y) == (expect != 0), case
    assert (y < x) == (expect > 0), case
    assert (y <= x) == (expect >= 0), case
    assert (y > x) == (expect < 0), case
    assert (y >= x) == (expect <= 0), case
    assert (y == x) == (expect == 0), case
    if isinstance(x, FieldValue) and isinstance(y, FieldValue):
        assert compare(x, y) == expect == -compare(y, x), case
        assert (x - y).sign() == expect, case


class TestFloatsRejected:
    @pytest.mark.parametrize("build", [
        lambda: FieldValue(0.1),
        lambda: FieldValue(1, 0.5, 5),
        lambda: FieldValue(1, 0, 0, 2.0),
        lambda: FieldValue(Fraction(1, 3), 1.5, 2),
        lambda: make_quadratic(0.5, 1, 5),
        lambda: make_quadratic(1, 0.5, 5),
        lambda: make_rational(0.5),
        lambda: make_rational(1, 2.0),
        lambda: FieldValue("1/2"),
    ])
    def test_non_exact_coefficient(self, build):
        with pytest.raises(DomainError, match="coefficients must be int or Fraction"):
            build()

    def test_float_radicand(self):
        with pytest.raises(DomainError, match="radicand"):
            FieldValue(1, 1, 5.0)


def _squarefree(d: int) -> tuple[int, int]:
    """d = s*s*f with f square-free, by trial division over small d."""
    s = 1
    for k in range(2, isqrt(d) + 1):
        while d % (k * k) == 0:
            d //= k * k
            s *= k
    return s, d


def _ref(p, q, d: int) -> tuple[Fraction, Fraction, int]:
    """The reference form of p + q*sqrt(d): a Fraction pair and a
    square-free radicand, with q == 0 exactly when d == 0."""
    p, q = Fraction(p), Fraction(q)
    if q and d:
        s, d = _squarefree(d)
        p, q, d = (p + q * s, Fraction(0), 0) if d == 1 else (p, q * s, d)
    return (p, q, d) if q and d else (p, Fraction(0), 0)


def _ref_join(x, y) -> int:
    return x[2] or y[2]


def _ref_add(x, y, sign=1):
    return _ref(x[0] + sign * y[0], x[1] + sign * y[1], _ref_join(x, y))


def _ref_mul(x, y):
    d = _ref_join(x, y)
    return _ref(x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0], d)


def _ref_div(x, y):
    d = _ref_join(x, y)
    den = y[0] * y[0] - y[1] * y[1] * d
    return _ref((x[0] * y[0] - x[1] * y[1] * d) / den, (x[1] * y[0] - x[0] * y[1]) / den, d)


def _ref_str(x) -> str:
    p, q, d = x
    if not q:
        return str(p)
    root = "%s*sqrt(%d)" % (abs(q), d)
    if not p:
        return root if q > 0 else "-" + root
    return "%s %s %s" % (p, "+" if q > 0 else "-", root)


def _ref_decimal(x, digits: int) -> str:
    """Truncated decimal: the largest m with p*10^k - m + q*10^k*sqrt(d) >= 0,
    found near a rational estimate of sqrt(d) and decided by the interval
    oracle."""
    p, q, d = x
    neg = _interval_sign(p, q, d) < 0
    if neg:
        p, q = -p, -q
    scale = 10 ** digits
    p, q = p * scale, q * scale
    bits = 64 + abs(q.numerator).bit_length()
    root = Fraction(isqrt(d << (2 * bits)), 1 << bits)
    guess = (p + q * root).__floor__()
    m = max(m for m in range(guess - 2, guess + 3) if _interval_sign(p - m, q, d) >= 0)
    whole, frac = divmod(m, scale)
    out = "%d.%0*d" % (whole, digits, frac)
    return "-" + out if neg else out


def _check_against_ref(v: FieldValue, ref) -> None:
    p, q, d = ref
    case = (v, ref)
    assert all(type(c) is int for c in (v.a, v.b, v.d, v.n)), case
    assert v.n > 0 and gcd(v.a, v.b, v.n) == 1 and (v.b == 0) == (v.d == 0), case
    assert (v.p, v.q, v.d) == (p, q, d), case
    assert v == FieldValue(p, q, d) and hash(v) == hash(FieldValue(p, q, d)), case
    assert str(v) == _ref_str(ref), case
    assert v.is_rational() == (q == 0) and v.is_zero() == (p == q == 0), case
    if q == 0:
        assert v == p and p == v and hash(v) == hash(p), case
    assert v.decimal(12) == _ref_decimal(ref, 12), case


REF_RADICANDS = (0, 2, 3, 5, 8, 12, 18, 45, 50, 4, 9)


def _ref_coefficient(rng: random.Random):
    kind = rng.choice(("zero", "small", "int", "huge"))
    if kind == "zero":
        return 0
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "small":
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 30))


class TestFractionPairOracle:
    def test_every_operation_against_fraction_pairs(self):
        rng = random.Random(4242)
        seen = {"zero": 0, "huge": 0, "square": 0, "not square-free": 0}
        for _ in range(500):
            d = rng.choice(REF_RADICANDS)
            raw = [(_ref_coefficient(rng), _ref_coefficient(rng)) for _ in range(2)]
            x, y = (FieldValue(p, q, d) for p, q in raw)
            rx, ry = (_ref(p, q, d) for p, q in raw)
            _check_against_ref(x, rx)
            _check_against_ref(-x, _ref(-rx[0], -rx[1], rx[2]))
            _check_against_ref(x + y, _ref_add(rx, ry))
            _check_against_ref(x - y, _ref_add(rx, ry, -1))
            _check_against_ref(x * y, _ref_mul(rx, ry))
            if not y.is_zero():
                _check_against_ref(x / y, _ref_div(rx, ry))
            else:
                with pytest.raises(DomainError, match="division by zero"):
                    x / y
            # a plain int or Fraction on either side
            r = rng.choice((rng.randint(-7, 7), Fraction(rng.randint(-50, 50), rng.randint(1, 9))))
            rr = _ref(r, 0, 0)
            _check_against_ref(x + r, _ref_add(rx, rr))
            _check_against_ref(r + x, _ref_add(rr, rx))
            _check_against_ref(x - r, _ref_add(rx, rr, -1))
            _check_against_ref(r - x, _ref_add(rr, rx, -1))
            _check_against_ref(x * r, _ref_mul(rx, rr))
            _check_against_ref(r * x, _ref_mul(rr, rx))
            if r:
                _check_against_ref(x / r, _ref_div(rx, rr))
            if not x.is_zero():
                _check_against_ref(r / x, _ref_div(rr, rx))
            seen["zero"] += x.is_zero() or y.is_zero()
            seen["huge"] += any(abs(Fraction(c).numerator) > 10 ** 20 for c in raw[0])
            seen["square"] += d in (4, 9)
            seen["not square-free"] += d in (8, 12, 18, 45, 50)
        assert min(seen.values()) >= 40, seen


class TestParsing:
    def test_rational_strings(self):
        assert parse_value("3/4") == make_rational(3, 4)
        assert parse_value("2") == make_rational(2)
        assert parse_value("-7/3") == make_rational(-7, 3)

    def test_quadratic_strings(self):
        assert parse_value("3/4 - 1/4*sqrt(5)") == make_quadratic(
            Fraction(3, 4), Fraction(-1, 4), 5
        )
        assert parse_value("-1/4 + 1/4*sqrt(5)") == make_quadratic(
            Fraction(-1, 4), Fraction(1, 4), 5
        )
        assert parse_value("sqrt(5)") == SQRT5
        assert parse_value("-sqrt(5)") == -SQRT5
        assert parse_value("2*sqrt(5)") == make_quadratic(0, 2, 5)

    def test_square_radicand_in_string(self):
        assert parse_value("1/2 + sqrt(4)") == make_rational(5, 2)

    def test_rejections(self):
        for bad in ["", "0.5", "1//2", "x", "sqrt(", "1+", "--2", "sqrt(2)+sqrt(3)"]:
            with pytest.raises(DomainError):
                parse_value(bad)

    def test_zero_denominator_rejected(self):
        for bad in ["1/0", "2 + 1/0*sqrt(5)"]:
            with pytest.raises(DomainError):
                parse_value(bad)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(100):
            d = rng.choice([0, 2, 3, 5, 7])
            v = make_quadratic(
                Fraction(rng.randint(-40, 40), rng.randint(1, 20)),
                Fraction(rng.randint(-40, 40), rng.randint(1, 20)),
                d,
            )
            assert parse_value(str(v)) == v

    def test_terms_sum_as_field_values(self):
        """Seeded strings of rational and radical terms parse to the sum of
        their terms added as FieldValues, a square factor of a radicand
        moving into the coefficient, and each sum reads back from its own
        rendering."""
        rng = random.Random(11)
        for _ in range(300):
            d = rng.choice([2, 3, 5, 7])
            terms, total = [], make_rational(0)
            for _ in range(rng.randint(1, 4)):
                num, den = rng.randint(-30, 30), rng.randint(1, 12)
                if rng.random() < 0.5:
                    root = rng.choice([1, 2])
                    terms.append("%d/%d*sqrt(%d)" % (num, den, d * root * root))
                    total = total + make_quadratic(0, Fraction(num * root, den), d)
                else:
                    terms.append("%d/%d" % (num, den))
                    total = total + make_rational(num, den)
            text = " + ".join(terms).replace("+ -", "- ")
            assert parse_value(text) == total, text
            assert parse_value(str(total)) == total

    def test_json_forms(self):
        assert value_from_json("3/4 - 1/4*sqrt(5)") == make_quadratic(
            Fraction(3, 4), Fraction(-1, 4), 5
        )
        assert value_from_json({"p": "3/4", "q": "-1/4", "d": 5}) == make_quadratic(
            Fraction(3, 4), Fraction(-1, 4), 5
        )
        assert value_from_json({"p": "1/6"}) == make_rational(1, 6)
        assert value_from_json({"p": 2, "q": 0}) == make_rational(2)
        with pytest.raises(DomainError):
            value_from_json({"p": 0.5})
        with pytest.raises(DomainError):
            value_from_json({"q": "1/2", "d": 5})
        with pytest.raises(DomainError):
            value_from_json(3.5)

    @pytest.mark.parametrize("obj", [
        {"p": True}, {"p": 1, "q": False, "d": 5}, {"p": 1, "q": 1, "d": True},
        {"p": "0.5"}, {"p": "1", "q": "1e1", "d": 5}, {"p": "1/2.5"}, {"p": ""},
        {"p": "1/3 "}, {"p": "sqrt(5)"},
    ])
    def test_json_object_refuses_bools_and_non_ratio_strings(self, obj):
        with pytest.raises(DomainError, match="refusing"):
            value_from_json(obj)

    def test_json_object_keeps_integer_ratio_strings(self):
        want = make_quadratic(-3, Fraction(1, 2), 5)
        assert value_from_json({"p": "-3", "q": "+1/2", "d": "5"}) == want


class TestRendering:
    def test_decimal_rational(self):
        assert make_rational(1, 6).decimal(20) == "0.16666666666666666666"
        assert make_rational(1, 4).decimal(4) == "0.2500"
        assert make_rational(-1, 6).decimal(2) == "-0.16"

    def test_decimal_quadratic(self):
        assert SQRT5.decimal(20) == "2.23606797749978969640"
        golden = make_quadratic(Fraction(-1, 2), Fraction(1, 2), 5)
        assert golden.decimal(10) == "0.6180339887"

    def test_str_forms(self):
        assert str(make_rational(3, 4)) == "3/4"
        assert str(make_quadratic(Fraction(3, 4), Fraction(-1, 4), 5)) == (
            "3/4 - 1/4*sqrt(5)"
        )
        assert str(SQRT5) == "1*sqrt(5)"
        assert str(-SQRT5) == "-1*sqrt(5)"
        assert str(make_rational(0)) == "0"

    def test_pair_text_matches_str(self):
        """_text renders integers that need not be in lowest terms as str
        renders the value they make: unreduced, negative, zero and rational
        pairs, also a zero b over a radicand."""
        assert _text(-12, 6, 5, 18) == "-2/3 + 1/3*sqrt(5)"
        assert _text(0, -9, 2, 6) == "-3/2*sqrt(2)"
        assert _text(6, 0, 5, 4) == "3/2" and _text(0, 0, 5, 7) == "0"
        rng = random.Random(26)
        cases = [(rng.randint(-40, 40) * g, rng.randint(-40, 40) * g * bool(d), d,
                  rng.randint(1, 12) * g) for d in (0, 2, 5) for g in (1, 2, 6) for _ in range(40)]
        for a, b, d, n in cases + [(0, 0, 0, 1), (0, 0, 5, 3), (10, 0, 5, 5), (-7, 7, 5, 7)]:
            v = FieldValue(a, b, d, n)
            assert _text(a, b, d, n) == str(v) == _fraction_str(v), (a, b, d, n)


def _fraction_str(v: FieldValue) -> str:
    """The rendering read from the Fraction parts p and q: the oracle for
    str(v), which renders from the integers."""
    p, q = v.p, v.q
    if q == 0:
        return str(p)
    root = "%s*sqrt(%d)" % (abs(q), v.d)
    if p == 0:
        return root if q > 0 else "-" + root
    op = "+" if q > 0 else "-"
    return "%s %s %s" % (p, op, root)


CONTRACT_VALUES = (
    make_rational(0),
    make_rational(-7),
    make_rational(-3, 4),
    make_rational(10 ** 30 + 1, 3),
    make_quadratic(Fraction(1, 2), -3, 5),
    make_quadratic(0, Fraction(2, 7), 2),
)


class TestValueContract:
    @pytest.mark.parametrize("field", ["a", "b", "d", "n"])
    def test_fields_cannot_be_assigned_or_deleted(self, field):
        v = make_quadratic(Fraction(1, 2), -3, 5)
        with pytest.raises(AttributeError):
            setattr(v, field, 1)
        with pytest.raises(AttributeError):
            delattr(v, field)
        assert (v.a, v.b, v.d, v.n) == (1, -6, 5, 2)

    @pytest.mark.parametrize("v", CONTRACT_VALUES, ids=str)
    def test_copy_and_pickle_round_trip(self, v):
        copies = [copy.copy(v), copy.deepcopy(v)]
        copies += [pickle.loads(pickle.dumps(v, proto))
                   for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for w in copies:
            assert type(w) is FieldValue
            assert (w.a, w.b, w.d, w.n) == (v.a, v.b, v.d, v.n)
            assert w == v and hash(w) == hash(v)

    def test_rational_hash_is_the_number_hash(self):
        for q in (0, 1, -7, 10 ** 30, Fraction(3, 4), Fraction(-22, 7), Fraction(10 ** 20 + 1, 3)):
            assert hash(FieldValue(q)) == hash(q)
            assert hash(make_quadratic(q, 0, 5)) == hash(q)

    def test_str_matches_fraction_rendering(self):
        rng = random.Random(2718)
        seen = Counter()

        def part():
            kind = rng.choice(("zero", "int", "ratio"))
            seen[kind] += 1
            if kind == "zero":
                return 0
            if kind == "int":
                return rng.randint(-9, 9)
            return Fraction(rng.randint(-99, 99), rng.randint(2, 40))

        for d in (0, 2, 3, 5):
            for _ in range(150):
                x, y = FieldValue(part(), part(), d), FieldValue(part(), part(), d)
                for v in (x, y, -x, x + y, x - y, x * y) + ((x / y,) if not y.is_zero() else ()):
                    assert str(v) == _fraction_str(v), (v.a, v.b, v.d, v.n)
                    seen["negative"] += v.a < 0 or v.b < 0
                    seen["non-unit"] += v.n > 1 and abs(v.b) > 1
                    seen["zero part"] += (v.a == 0) != (v.b == 0)
        assert min(seen.values()) >= 100, seen
