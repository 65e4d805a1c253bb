"""Property test: field arithmetic and order in one Q(sqrt(d)) against an
oracle on Fraction pairs (p, q) standing for p + q*sqrt(d)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ietbwt.exact import FieldValue  # noqa: E402


def _sign(p: Fraction, q: Fraction, d: int) -> int:
    """Sign of p + q*sqrt(d): that of p + q unless p and q have opposite
    signs, when the larger of p*p and q*q*d decides."""
    if p * q >= 0:
        return (p + q > 0) - (p + q < 0)
    return ((p > 0) - (p < 0)) if p * p > q * q * d else ((q > 0) - (q < 0))


def _pair(v: FieldValue) -> tuple[Fraction, Fraction]:
    return v.p, v.q


coefficient = st.integers(-60, 60)


@hypothesis.settings(max_examples=400, derandomize=True, deadline=None)
@hypothesis.given(st.sampled_from((2, 3, 5)), coefficient, coefficient,
                  coefficient, coefficient, st.integers(1, 36))
def test_field_operations_agree_with_fraction_pairs(d, a1, b1, a2, b2, n):
    """x and y are built over one denominator n, so after reduction they
    often share it and the comparison takes its equal-denominator path."""
    x, y = FieldValue(a1, b1, d, n), FieldValue(a2, b2, d, n)
    p1, q1, p2, q2 = (Fraction(c, n) for c in (a1, b1, a2, b2))
    assert _pair(x + y) == (p1 + p2, q1 + q2)
    assert _pair(x - y) == (p1 - p2, q1 - q2)
    assert _pair(x * y) == (p1 * p2 + q1 * q2 * d, p1 * q2 + q1 * p2)
    if p2 or q2:
        den = p2 * p2 - q2 * q2 * d
        assert _pair(x / y) == ((p1 * p2 - q1 * q2 * d) / den, (q1 * p2 - p1 * q2) / den)
    s = _sign(p1 - p2, q1 - q2, d)
    assert x._compare(y) == s
    assert (x < y, x <= y, x > y, x >= y, x == y) == (s < 0, s <= 0, s > 0, s >= 0, s == 0)
