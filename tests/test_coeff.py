import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from oligoperm.coeff import (
    MAX_POWER_SIZE,
    RATIONAL,
    Scalar,
    falling_factorial,
    one,
    parse_scalar,
    ratfunc_field,
    zero,
)
from oligoperm.errors import DivisionByZero, FieldMismatch, PoleAtPoint

QT = ratfunc_field("t")
F5A = ratfunc_field("a", 5)


def q(n, d=1):
    return Scalar.from_fraction(RATIONAL, Fraction(n, d))


def t():
    return Scalar.variable(QT)


def test_rational_add():
    assert q(1, 2) + q(1, 3) == q(5, 6)


def test_poly_product_canonical():
    x = t()
    assert (x * (x - 1)).render() == "t^2 - t"


def test_cancellation_to_canonical_form():
    x = t()
    assert (x * x - x) / x == x - 1


def test_denominators_monic():
    x = t()
    s = one(QT) / (2 * x - 2)
    # denominator is normalized to be monic; the 1/2 moves to the numerator
    assert s.render() == "(1/2)/(t - 1)"
    assert s * (x - 1) == Scalar.from_fraction(QT, Fraction(1, 2))


def test_evaluate_substitution():
    x = t()
    assert (x * (x - 1)).evaluate(5) == q(20)
    assert x.evaluate(0) == q(0)


def test_evaluate_pole():
    x = t()
    with pytest.raises(PoleAtPoint):
        (one(QT) / (x - 3)).evaluate(3)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        q(1) / q(0)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        q(1) + t()


def test_char_p_arithmetic():
    a = Scalar.variable(F5A)
    assert (a + 4) + one(F5A) == a
    assert ((a + 1) ** 5).render() == "a^5 + 1"


def test_parse_round_trip():
    for text in ["5/6", "t^2 - t", "(t^2 - t + 1)/t", "-3", "t - 2"]:
        s = parse_scalar(QT, text)
        assert parse_scalar(QT, s.render()) == s


@pytest.mark.parametrize("field, text", [
    (QT, "(t+1)^10"), (RATIONAL, "2^64"), (QT, "2^64"), (QT, "t^0"),
    (F5A, f"(a+1)^{MAX_POWER_SIZE}"), (QT, "((t+1)/(t-1))^128"),
    (QT, "(t+1)^128*(t+1)^64"), (QT, "t - 1"), (QT, "(t+1)^128/(t-1)^128"),
    (QT, "(t+1)^0"), (QT, "(t+1)^1"), (QT, "(t+1)^2"), (QT, "(t+1)^255"),
    (QT, "(t+1)^256"), (RATIONAL, str(2**256 - 1)), (QT, str(2**256 - 1)),
])
def test_power_within_size_limit_parses(field, text):
    assert not parse_scalar(field, text).is_zero()


@pytest.mark.parametrize("field", [QT, F5A])
@pytest.mark.parametrize("n", [0, 1, 2, 255, 256])
def test_power_of_binomial_has_binomial_coefficients(field, n):
    base = Scalar.variable(field) + 1
    expected = Scalar.make(field, [comb(n, k) for k in range(n + 1)], [1])
    assert base ** n == expected


@pytest.mark.parametrize("field, text", [
    (QT, "(t+1)^300"), (QT, "((t+1)^64)^64"), (RATIONAL, "2^100000000"),
    (QT, "2^100000000"), (RATIONAL, "0^100000000"),
    (F5A, f"(a+1)^{MAX_POWER_SIZE + 1}"), (RATIONAL, "(3/2)^200"),
    (RATIONAL, "9" * 400), (QT, "9" * 400), (RATIONAL, str(2**256)),
])
def test_power_above_size_limit_is_refused(field, text):
    with pytest.raises(ValueError, match="size limit"):
        parse_scalar(field, text)


@pytest.mark.parametrize("field, text", [
    (QT, "(t+1)^256*(t+1)^256*(t+1)^256*(t+1)^256"),
    (QT, "(t+1)^200+(t+1)^100"), (QT, "(t+1)^200-(t+1)^100"),
    (QT, "(t+1)^256/(t-1)^256"), (RATIONAL, "2^200*2^100"),
])
def test_operands_above_size_limit_are_refused_before_computing(field, text):
    # unbounded, the four-factor product takes seconds; refused, the time
    # is the two allowed powers computed before the first '*'
    started = time.monotonic()
    with pytest.raises(ValueError, match="size limit"):
        parse_scalar(field, text)
    assert time.monotonic() - started < 2.0


def test_falling_factorial():
    x = t()
    assert falling_factorial(QT, x, 3) == x * (x - 1) * (x - 2)
    assert falling_factorial(QT, x, 0) == one(QT)


scalars_q = st.builds(
    lambda n, d: Scalar.from_fraction(RATIONAL, Fraction(n, d)),
    st.integers(-50, 50),
    st.integers(1, 12),
)


def _ratfunc(coeffs_num, coeffs_den):
    num = coeffs_num
    den = coeffs_den if any(coeffs_den) else [1]
    return Scalar.make(QT, [Fraction(c) for c in num], [Fraction(c) for c in den])


scalars_qt = st.builds(
    _ratfunc,
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
)


@given(scalars_qt, scalars_qt, scalars_qt)
def test_field_axioms_qt(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inv() == one(QT)


@given(scalars_q, scalars_q)
def test_rational_sub_inverse(x, y):
    assert (x + y) - y == x


@given(scalars_qt, scalars_qt, st.integers(-6, 6))
def test_evaluate_is_ring_hom(x, y, n):
    try:
        ex, ey = x.evaluate(n), y.evaluate(n)
    except PoleAtPoint:
        return
    assert (x * y).evaluate(n) == ex * ey
    assert (x + y).evaluate(n) == ex + ey


@given(scalars_qt, st.integers(-5, 8))
def test_power_matches_repeated_product_qt(x, n):
    if n < 0 and x.is_zero():
        return
    base = x if n >= 0 else x.inv()
    acc = one(QT)
    for _ in range(abs(n)):
        acc = acc * base
    assert x ** n == acc


@given(scalars_q, st.integers(-5, 8))
def test_power_matches_repeated_product_q(x, n):
    if n < 0 and x.is_zero():
        return
    assert x ** n == q(x.as_fraction() ** n)
