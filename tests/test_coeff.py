import operator
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from oligoperm import coeff
from oligoperm.coeff import (
    MAX_CHAR,
    MAX_POWER_SIZE,
    RATIONAL,
    Scalar,
    _size,
    falling_factorial,
    is_field_char,
    one,
    parse_scalar,
    ratfunc_field,
    zero,
)
from oligoperm.errors import DivisionByZero, FieldMismatch, PoleAtPoint

QT = ratfunc_field("t")
F5A = ratfunc_field("a", 5)
F7 = ratfunc_field("t", 7)


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
    # two ratfunc_field calls give equal but distinct fields, which combine
    other = ratfunc_field("t")
    assert other is not QT and other == QT
    assert Scalar.variable(other) + t() == t() * 2


def test_field_characteristics():
    """A characteristic is a prime at most MAX_CHAR (the Mersenne prime
    2**31 - 1); the test agrees with a sieve below 1000, and a larger
    prime is refused at once, before any trial division."""
    sieve = set(range(2, 1000))
    for p in range(2, 32):
        sieve -= set(range(p * p, 1000, p))
    assert {p for p in range(-5, 1000) if is_field_char(p)} == sieve
    assert MAX_CHAR == 2**31 - 1 and is_field_char(MAX_CHAR)
    started = time.monotonic()
    for char in (4, 2**31 + 11, 10**18 + 3, 10**18 + 1):
        with pytest.raises(ValueError, match=f"at most {MAX_CHAR}"):
            ratfunc_field("t", char)
    assert time.monotonic() - started < 0.5
    assert ratfunc_field("t", MAX_CHAR).char == MAX_CHAR


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


def horner_in_scalars(x, point):
    """x at a rational point by Horner's rule in Scalar arithmetic over Q,
    numerator and denominator each, then one division."""
    def at(coeffs):
        acc = zero(RATIONAL)
        for c in reversed(coeffs):
            acc = acc * point + c
        return acc

    den = at(x.den)
    if den.is_zero():
        raise PoleAtPoint(f"denominator vanishes at {point}")
    return at(x.num) / den


@given(scalars_qt, st.one_of(
    st.integers(-6, 8),
    st.fractions(min_value=-6, max_value=8, max_denominator=7)))
def test_evaluate_matches_horner_in_scalars(x, point):
    """``evaluate`` runs Horner's rule over Z; it gives the value of Horner's
    rule in Scalar arithmetic, at ints and at non-integer rationals, given as
    Fractions or as Scalars over Q, and raises at the same poles."""
    p = q(point)
    try:
        want = horner_in_scalars(x, p)
    except PoleAtPoint:
        for at in (point, p):
            with pytest.raises(PoleAtPoint):
                x.evaluate(at)
        return
    assert x.evaluate(point) == x.evaluate(p) == want
    assert x.evaluate(point).field is RATIONAL


def test_evaluate_at_poles_and_reduces_once():
    x = t()
    f = (x * x - 2) / (3 * x + 1)
    assert f.evaluate(Fraction(1, 2)) == q(-7, 10)
    assert f.evaluate(q(-1, 3) + q(1, 1)) == horner_in_scalars(f, q(2, 3))
    with pytest.raises(PoleAtPoint):
        f.evaluate(Fraction(-1, 3))
    with pytest.raises(PoleAtPoint):
        (one(QT) / (x * x - 4)).evaluate(-2)
    # the quotient is reduced: 0 over a nonzero denominator, 2/4 to 1/2
    assert (x - 2).evaluate(2) == zero(RATIONAL)
    assert ((x + 1) / (x * x)).evaluate(2) == q(3, 4)
    assert (x / (x + 2)).evaluate(2) == q(1, 2)


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


def test_is_constant():
    for field in (QT, F7):
        x = Scalar.variable(field)
        for value in (zero(field), one(field), one(field) / 3, -one(field)):
            assert value.is_constant()
        for value in (x, one(field) / x, (x * x + 1) / (x + 2), x ** 7 - x):
            assert not value.is_constant()
    assert q(5, 3).is_constant() and zero(RATIONAL).is_constant()


def test_constants_are_interned():
    for field in (RATIONAL, QT, F7):
        assert one(field) is one(field) and zero(field) is zero(field)
        assert zero(field).is_zero()
        assert one(field) == Scalar.from_int(field, 1)
        assert zero(field) == Scalar.from_int(field, 0)


def test_unit_operand_returns_the_other_without_a_gcd(monkeypatch):
    """A product with the field's one, as a Scalar or the int 1, on either
    side, is the other operand and runs no gcd, polynomial or integer.  The
    field check still comes first: a one of another field is refused."""
    other_field = {RATIONAL: QT, QT: F7, F7: RATIONAL}
    values = {}
    for field in other_field:
        values[field] = [zero(field), one(field), one(field) * 3 / 5]
        if field is not RATIONAL:
            x = Scalar.variable(field)
            values[field] += [x, (x * x + 1) / (x - 2)]
    gcds = []
    for name in ("_p_gcd", "gcd"):
        original = getattr(coeff, name)
        monkeypatch.setattr(coeff, name, lambda *args, original=original: (
            gcds.append(args), original(*args))[1])
    for field, xs in values.items():
        unit = one(field)
        for x in xs:
            for product in (x * unit, unit * x, x * 1, 1 * x):
                assert product == x, (field, x)
        assert gcds == [], field
        foreign = one(other_field[field])
        for x in xs:
            with pytest.raises(FieldMismatch):
                x * foreign
            with pytest.raises(FieldMismatch):
                foreign * x


# Reports print scalars, so these strings are pinned byte for byte, quirks
# included: a lone monomial denominator keeps its parentheses, and a negative
# or fractional numerator over a polynomial is wrapped too.
RENDER_PINS = [
    (RATIONAL, "1/9", "1/9"),
    (RATIONAL, "-12/16", "-3/4"),
    (RATIONAL, "0", "0"),
    (RATIONAL, "2^70", "1180591620717411303424"),
    (QT, "2/t", "2/(t)"),
    (QT, "-t/2", "-1/2*t"),
    (QT, "0", "0"),
    (QT, "-7/3", "-7/3"),
    (QT, "1/(2*t - 2)", "(1/2)/(t - 1)"),
    (QT, "(t^2 - 1)/(2*t + 2)", "1/2*t - 1/2"),
    (QT, "(3*t + 1)/(6*t^2 - 4)", "(1/2*t + 1/6)/(t^2 - 2/3)"),
    (QT, "-(t + 1)/(t - 1)", "(-t - 1)/(t - 1)"),
    (QT, "t^3/3 - t/6 + 5/4", "1/3*t^3 - 1/6*t + 5/4"),
    (QT, "(t - 1)^2/(t + 1)^3", "(t^2 - 2*t + 1)/(t^3 + 3*t^2 + 3*t + 1)"),
    (QT, "-1/(t^2 + t)", "(-1)/(t^2 + t)"),
    (QT, "(4*t^2 - 6)/(10*t)", "(2/5*t^2 - 3/5)/(t)"),
    (QT, "t - t^2", "-t^2 + t"),
    (F7, "t^7", "t^7"),
    (F7, "(t + 1)^7", "t^7 + 1"),
    (F7, "1/(3*t + 3)", "5/(t + 1)"),
    (F7, "6*t - 1", "6*t + 6"),
    (F7, "-t", "6*t"),
    (F7, "t/3", "5*t"),
    (F7, "(2*t^2 + 1)/(4*t)", "(4*t^2 + 2)/(t)"),
    (F7, "1/3", "5"),
    (F5A, "(a + 1)^5", "a^5 + 1"),
    (F5A, "(a^2 + 4)/(2*a + 2)", "3*a + 2"),
]


@pytest.mark.parametrize("field, text, rendered", RENDER_PINS)
def test_render_pinned(field, text, rendered):
    value = parse_scalar(field, text)
    assert value.render() == rendered
    assert parse_scalar(field, rendered) == value


# Differential tests: random expression trees evaluated here and by an
# outside implementation (sympy's polynomial arithmetic and cancel over Q and
# GF(7), fractions.Fraction over Q) must agree on the value, on the canonical
# form and on where division by zero occurs.

OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv, "^": operator.pow}


def expressions(variable=True):
    leaf = st.integers(-9, 9).map(lambda k: ("int", k))
    if variable:
        leaf = leaf | st.just(("var",))
    return st.recursive(leaf, lambda sub: (
        st.tuples(st.sampled_from("+-*/"), sub, sub)
        | st.tuples(st.just("^"), sub, st.integers(-2, 3))), max_leaves=6)


def evaluate_tree(tree, leaf, ops):
    """The value of tree, or None when it divides by zero anywhere."""
    if tree[0] in ("int", "var"):
        return leaf(tree)
    lhs = evaluate_tree(tree[1], leaf, ops)
    rhs = tree[2] if tree[0] == "^" else evaluate_tree(tree[2], leaf, ops)
    if lhs is None or rhs is None:
        return None
    return ops[tree[0]](lhs, rhs)


def guarded(op):
    def apply(x, y):
        try:
            return op(x, y)
        except ZeroDivisionError:
            return None
    return apply


def ours(field, tree):
    def leaf(tree):
        if tree[0] == "var":
            return Scalar.variable(field)
        return Scalar.from_int(field, tree[1])

    return evaluate_tree(tree, leaf, {op: guarded(f) for op, f in OPS.items()})


def fraction_value(tree):
    return evaluate_tree(tree, lambda tree: Fraction(tree[1]),
                         {op: guarded(f) for op, f in OPS.items()})


def oracle(sympy, domain, tree):
    """sympy's canonical form of tree, a numerator and a monic denominator
    Poly, or None when tree divides by zero anywhere."""
    t = sympy.Symbol("t")

    def leaf(tree):
        value = t if tree[0] == "var" else tree[1]
        return sympy.Poly(value, t, domain=domain), sympy.Poly(1, t, domain=domain)

    def power(x, n):
        num, den = x if n >= 0 else x[::-1]
        return None if den.is_zero else (num ** abs(n), den ** abs(n))

    ops = {
        "+": lambda x, y: (x[0] * y[1] + y[0] * x[1], x[1] * y[1]),
        "-": lambda x, y: (x[0] * y[1] - y[0] * x[1], x[1] * y[1]),
        "*": lambda x, y: (x[0] * y[0], x[1] * y[1]),
        "/": lambda x, y: None if y[0].is_zero else (x[0] * y[1], x[1] * y[0]),
        "^": power,
    }
    pair = evaluate_tree(tree, leaf, ops)
    if pair is None:
        return None
    # an explicit gcd: sympy.cancel on a pair of GF(p) Polys can leave a
    # common factor, e.g. (2t + 4, (t + 2)^2) over GF(7)
    gcd = pair[0].gcd(pair[1])
    num, den = pair[0].quo(gcd), pair[1].quo(gcd)
    return num.quo_ground(den.LC()), den.monic()


def rendered_parts(text):
    """The numerator and denominator texts of a rendered scalar."""
    if "/(" not in text:
        return text, "1"
    num, den = text.rsplit("/(", 1)
    if num.startswith("("):
        num = num[1:-1]
    return num, den[:-1]


def monic_form_size(field, num, den):
    """The size measure read off sympy's numerator and monic denominator:
    the degree over F_p(t); over Q(t) the larger of the degree and the bit
    lengths of the coefficients' numerators and denominators."""
    coeffs = [c for poly in (num, den) if not poly.is_zero
              for c in poly.all_coeffs()]
    size = max(len(poly.all_coeffs()) if not poly.is_zero else 0
               for poly in (num, den)) - 1
    if field.char == 0:
        for c in coeffs:
            size = max(size, abs(int(c.p)).bit_length(), int(c.q).bit_length())
    return size


@pytest.mark.parametrize("field", [QT, F7], ids=["Q(t)", "F7(t)"])
@settings(max_examples=150, deadline=None)
@given(tree=expressions())
def test_matches_sympy_cancel(field, tree):
    sympy = pytest.importorskip("sympy")
    domain = sympy.GF(field.char) if field.char else sympy.QQ
    t = sympy.Symbol("t")
    value, want = ours(field, tree), oracle(sympy, domain, tree)
    assert (value is None) == (want is None)
    assume(value is not None)
    num, den = want
    text = value.render()
    for part, poly in zip(rendered_parts(text), want):
        assert sympy.Poly(sympy.sympify(part.replace("^", "**")), t,
                          domain=domain) == poly
    sympy_text = f"({num.as_expr()})/({den.as_expr()})".replace("**", "^")
    assert parse_scalar(field, sympy_text).render() == text
    assert _size(value) == monic_form_size(field, num, den)
    if field.char == 0:
        for point in range(-3, 4):
            if den.eval(point) == 0:
                with pytest.raises(PoleAtPoint):
                    value.evaluate(point)
            else:
                expected = num.eval(point) / den.eval(point)
                assert value.evaluate(point) == q(int(expected.p), int(expected.q))


@pytest.mark.parametrize("field", [QT, F7], ids=["Q(t)", "F7(t)"])
@settings(max_examples=60, deadline=None)
@given(trees=st.lists(expressions(), min_size=3, max_size=3))
def test_field_axioms_on_expressions(field, trees):
    values = [ours(field, tree) for tree in trees]
    assume(None not in values)
    x, y, z = values
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x - x == zero(field) and x + zero(field) == x and x * one(field) == x
    if not x.is_zero():
        assert x * x.inv() == one(field) and (y / x) * x == y


@settings(max_examples=200, deadline=None)
@given(tree=expressions(variable=False))
def test_rational_matches_fraction(tree):
    value, want = ours(RATIONAL, tree), fraction_value(tree)
    assert (value is None) == (want is None)
    assume(value is not None)
    assert value.as_fraction() == want and value.render() == str(want)
    assert value == Scalar.from_fraction(RATIONAL, want)
    assert _size(value) == max(abs(want.numerator).bit_length(),
                               want.denominator.bit_length())


# Rendering, size and evaluation computed with fractions.Fraction, an
# independent reference for the package's own, which computes in Scalars.

def reference_monic(value):
    if value.field.char:
        return value.num, value.den
    lead = value.den[-1]
    return (tuple(Fraction(c, lead) for c in value.num),
            tuple(Fraction(c, lead) for c in value.den))


def reference_poly_render(field, coeffs):
    if not coeffs:
        return "0"
    var = field.var
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            mon = str(c)
        else:
            head = f"{var}^{i}" if i > 1 else var
            if c == 1:
                mon = head
            elif field.char == 0 and c == -1:
                mon = f"-{head}"
            else:
                mon = f"{c}*{head}"
        parts.append(mon)
    out = parts[0]
    for mon in parts[1:]:
        out += f" - {mon[1:]}" if mon.startswith("-") else f" + {mon}"
    return out


def reference_render(value):
    if value.field.kind == "rational":
        return str(Fraction(value.num, value.den))
    num_coeffs, den_coeffs = reference_monic(value)
    num = reference_poly_render(value.field, num_coeffs)
    if len(den_coeffs) == 1:
        return num
    if len(value.num) > 1 or "/" in num or num.startswith("-"):
        num = f"({num})"
    return f"{num}/({reference_poly_render(value.field, den_coeffs)})"


def reference_size(value):
    if value.field.kind == "rational":
        return max(abs(value.num).bit_length(), value.den.bit_length())
    num, den = reference_monic(value)
    size = max(len(num), len(den)) - 1
    if value.field.char == 0:
        for c in num + den:
            size = max(size, abs(c.numerator).bit_length(),
                       c.denominator.bit_length())
    return size


def reference_evaluate(value, point):
    """The value at a rational point as a Fraction, or PoleAtPoint."""
    def horner(coeffs):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * point + c
        return acc

    point = Fraction(point)
    den = horner(value.den)
    if den == 0:
        raise PoleAtPoint(f"denominator vanishes at {point}")
    return horner(value.num) / den


RENDER_FIELDS = {"Q": RATIONAL, "Q(t)": QT,
                 **{f"F{p}(t)": ratfunc_field("t", p) for p in (2, 3, 7, MAX_CHAR)}}

# small, unit and zero coefficients, and a few past a machine word either sign
render_ints = st.one_of(st.integers(-3, 3), st.sampled_from(
    [2**31 - 1, 2**31, -(2**40) - 5, 3**45, -(10**30) + 7]))
render_points = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def render_cases(draw, field):
    """A scalar of the field and rational points, some of them roots of a
    factor (q t - p) the denominator may take on, so that they are poles
    unless the numerator cancels it."""
    points = draw(st.lists(render_points, min_size=1, max_size=3))
    if field.kind == "rational":
        den = draw(render_ints.filter(bool))
        return Scalar.make(field, draw(render_ints), den), points
    coeff = (render_ints if field.char else
             st.one_of(render_ints, st.builds(Fraction, render_ints,
                                              st.integers(1, 6))))
    num = draw(st.lists(coeff, max_size=4))
    den = draw(st.lists(coeff, min_size=1, max_size=3))
    if draw(st.booleans()):
        root = points[0]
        den = coeff_product(den, [-root.numerator, root.denominator])
    try:
        return Scalar.make(field, num, den), points
    except DivisionByZero:
        assume(False)


def coeff_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("field", list(RENDER_FIELDS.values()),
                         ids=list(RENDER_FIELDS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_render_size_and_evaluate_match_fraction_reference(field, data):
    value, points = data.draw(render_cases(field))
    assert value.render() == reference_render(value)
    assert _size(value) == reference_size(value)
    assert (-value).render() == reference_render(-value)
    if field.kind == "rational" or field.char:
        return
    for point in points:
        try:
            want = reference_evaluate(value, point)
        except PoleAtPoint as pole:
            for arg in (point, Scalar.from_fraction(RATIONAL, point)):
                with pytest.raises(PoleAtPoint) as got:
                    value.evaluate(arg)
                assert str(got.value) == str(pole)
            continue
        got = value.evaluate(point)
        assert got.field == RATIONAL and got.as_fraction() == want
        assert value.evaluate(Scalar.from_fraction(RATIONAL, point)) == got
        if point.denominator == 1:
            assert value.evaluate(point.numerator) == got


@pytest.mark.parametrize("field", [QT, F7], ids=["Q(t)", "F7(t)"])
def test_render_fixed_forms(field):
    """Unit, negative and non-monic leading coefficients, as printed."""
    x = Scalar.variable(field)
    if field.char:
        cases = {x * x - x: "t^2 + 6*t", (3 * x + 1) / (2 * x - 1):
                 "(5*t + 4)/(t + 3)", -x: "6*t"}
    else:
        cases = {x * x - x: "t^2 - t", (3 * x + 1) / (2 * x - 1):
                 "(3/2*t + 1/2)/(t - 1/2)", -x: "-t", -x / 2: "-1/2*t",
                 one(field) / (-3 * x * x + 1): "(-1/3)/(t^2 - 1/3)"}
    for value, text in cases.items():
        assert value.render() == reference_render(value) == text


def test_fractions_only_behind_as_fraction():
    """Importing the package and its CLI loads none of ``fractions`` and the
    ``decimal`` and ``numbers`` modules it pulls in; ``as_fraction`` still
    returns a ``fractions.Fraction`` of the same value."""
    src = str(Path(coeff.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import oligoperm, oligoperm.cli; "
            "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"
    for value, want in [(q(-7, 3), Fraction(-7, 3)), (q(0), Fraction(0)),
                        (Scalar.from_fraction(QT, Fraction(5, 4)), Fraction(5, 4))]:
        got = value.as_fraction()
        assert type(got) is Fraction and got == want
