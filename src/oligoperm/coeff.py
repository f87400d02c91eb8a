"""Exact coefficient arithmetic.

Three coefficient fields are supported: the rationals, rational functions in
one variable over the rationals, and rational functions in one variable over a
prime field.  A scalar is a fraction in lowest terms over a ring of integers,
so equality of scalars is structural equality and is decidable everywhere
downstream.  Over Q it is two coprime ints, the denominator positive.  Over
Q(t) it is two integer polynomials coprime in Z[t] (no common factor, not even
a constant one), the denominator's leading coefficient positive.  Over F_p(t)
it is two coprime polynomials with coefficients in 0..p-1, the denominator
monic.  ``render`` and the size measure read a Q(t) scalar in its
monic-denominator form over Q, the form reports print.

Sums and products cancel across their operands before they multiply
(Henrici's method, as in ``fractions.Fraction``), so a gcd of polynomials runs
only when both have positive degree; against a constant it costs integer gcds
at most.  A product with the field's one as an operand is the other operand
and runs no gcd at all (``Scalar.__mul__``): orbit indicators, pullbacks and
running products of fiber measures make most of the products over Q(t).
Polynomials are dense coefficient tuples, low degree first, with no trailing
zeros.  Degrees in this package stay small (a few dozen at most), so nothing
sparse is needed.

``Field`` and ``Scalar`` are immutable named tuples.  Every checker builds,
hashes and compares scalars by the thousand, and a named tuple hashes and
compares in C.  The hash is that of the field tuple, so set and dict orders
and the reports depend on the fields alone.  ``Scalar`` defines every
arithmetic operator with an int on either side, so tuple repetition and
concatenation are never reached.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import NamedTuple

from .errors import DivisionByZero, FieldMismatch, PoleAtPoint


class Field(NamedTuple):
    """A coefficient field tag.

    kind is "rational" or "ratfunc".  For "ratfunc", ``char`` is 0 (rational
    base coefficients) or a prime p, and ``var`` names the variable.
    """

    kind: str
    char: int = 0
    var: str = ""

    def render(self):
        if self.kind == "rational":
            return "Q"
        base = "Q" if self.char == 0 else f"F{self.char}"
        return f"{base}({self.var})"


RATIONAL = Field("rational")


# The largest characteristic a field may have.  Primality is trial division
# up to the square root, so this caps the test at 46,340 divisions.
MAX_CHAR = 2**31 - 1


def is_field_char(p):
    """Whether p is a prime at most MAX_CHAR."""
    return 2 <= p <= MAX_CHAR and all(p % q for q in range(2, isqrt(p) + 1))


def ratfunc_field(var, char=0):
    if char and not is_field_char(char):
        raise ValueError(f"characteristic must be a prime at most {MAX_CHAR}, "
                         f"got {char}")
    return Field("ratfunc", char, var)


# Polynomials over Z (char 0) or F_p (char p).  Over both rings the product of
# two nonzero polynomials has a nonzero leading coefficient.

def _p_trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _p_add(char, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = [x + y for x, y in zip(a, b)]
    if char:
        out = [x % char for x in out]
    return _p_trim(out + list(a[len(b):]))


def _p_neg(char, a):
    return tuple(-x % char for x in a) if char else tuple(-x for x in a)


def _p_mul(char, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(x % char for x in out) if char else tuple(out)


def _p_divmod(char, a, b):
    """Quotient and remainder of a by b over F_p.  Over Z each step must
    divide exactly: b divides a, or a was multiplied by a power of b's
    leading coefficient (a pseudo-remainder)."""
    n = len(b)
    rem = list(a)
    quo = [0] * max(len(a) - n + 1, 0)
    inv = pow(b[-1], -1, char) if char else 0
    for shift in range(len(a) - n, -1, -1):
        lead = rem[shift + n - 1]
        c = quo[shift] = lead * inv % char if char else lead // b[-1]
        for i, y in enumerate(b):
            rem[shift + i] -= c * y
    rem = rem[:n - 1]
    return tuple(quo), _p_trim([x % char for x in rem] if char else rem)


def _p_primitive(a):
    g = gcd(*a)
    return a if g == 1 else tuple(x // g for x in a)


def _p_gcd(char, a, b):
    """The gcd of two nonzero polynomials: monic over F_p, with a positive
    leading coefficient over Z."""
    if len(a) == 1 or len(b) == 1:
        return (1,) if char else (gcd(*a, *b),)
    if char:
        while b:
            a, b = b, _p_divmod(char, a, b)[1]
        return _p_divmod(char, a, (a[-1],))[0]
    content = gcd(*a, *b)
    a, b = sorted((_p_primitive(a), _p_primitive(b)), key=len, reverse=True)
    while b:  # primitive remainder sequence
        r = _p_divmod(0, [x * b[-1] ** (len(a) - len(b) + 1) for x in a], b)[1]
        a, b = b, _p_primitive(r) if r else ()
    content = content if a[-1] > 0 else -content
    return tuple(content * x for x in a)


def _p_cancel(char, a, b):
    """a and b divided by their gcd."""
    g = _p_gcd(char, a, b)
    if g == (1,):
        return a, b
    return _p_divmod(char, a, g)[0], _p_divmod(char, b, g)[0]


def _p_eval_homogeneous(a, p, q):
    """q^n a(p/q) for the int polynomial a of degree n, by Horner's rule
    over Z: sum a_i p^i q^(n-i)."""
    acc, q_power = 0, 1
    for c in reversed(a):
        acc = acc * p + c * q_power
        q_power *= q
    return acc


class Scalar(NamedTuple):
    """An element of one of the supported fields, in canonical form."""

    field: Field
    num: object
    den: object

    # Construction

    @staticmethod
    def from_int(field, n):
        if field.kind == "rational":
            return Scalar(field, n, 1)
        if field.char:
            n %= field.char
        return Scalar(field, (n,) if n else (), (1,))

    @staticmethod
    def from_fraction(field, q):
        """The image of a rational q: an int or ``fractions.Fraction`` read
        through numerator/denominator, or a Scalar over Q through num/den."""
        n, d = ((q.num, q.den) if isinstance(q, Scalar)
                else (q.numerator, q.denominator))
        if field.kind == "rational":
            return Scalar(field, n, d)
        char = field.char
        if char:
            if d % char == 0:
                raise DivisionByZero(f"{q} has no image in characteristic {char}")
            return Scalar.from_int(field, n * pow(d, -1, char))
        return Scalar(field, (n,) if n else (), (d,))

    @staticmethod
    def variable(field):
        if field.kind != "ratfunc":
            raise FieldMismatch("only rational function fields have a variable")
        return Scalar(field, (0, 1), (1,))

    @staticmethod
    def make(field, num, den):
        """Normalize a raw numerator/denominator pair into a Scalar: two ints
        over Q; over Q(t) int or Fraction coefficient lists, over F_p(t) int
        ones, low degree first."""
        if field.kind == "rational":
            if den == 0:
                raise DivisionByZero("zero denominator")
            g = gcd(num, den)
            g = -g if den < 0 else g
            return Scalar(field, num // g, den // g)
        char = field.char
        if char:
            num = _p_trim([c % char for c in num])
            den = _p_trim([c % char for c in den])
        else:
            scale = lcm(*(c.denominator for c in (*num, *den)))
            num = _p_trim([c.numerator * (scale // c.denominator) for c in num])
            den = _p_trim([c.numerator * (scale // c.denominator) for c in den])
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return zero(field)
        return Scalar._normal(field, *_p_cancel(char, num, den))

    @staticmethod
    def _normal(field, num, den):
        """The Scalar num/den of coprime num and den, divided by the unit
        that makes the denominator monic over F_p, its leading coefficient
        positive over Z."""
        char = field.char
        unit = (den[-1] if char else -1 if den[-1] < 0 else 1,)
        if unit != (1,):
            num, den = _p_divmod(char, num, unit)[0], _p_divmod(char, den, unit)[0]
        return Scalar(field, num, den)

    # Predicates

    def is_zero(self):
        return not self.num

    def is_constant(self):
        """Whether the value is free of the variable (always so over Q)."""
        return self.field.kind == "rational" or (len(self.num) <= 1
                                                 and len(self.den) == 1)

    # Arithmetic

    def _check(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(self.field, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(f"{self.field.render()} vs {other.field.render()}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        field = self.field
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if field.kind == "rational":
            g = gcd(d1, d2)
            if g == 1:
                return Scalar(field, n1 * d2 + n2 * d1, d1 * d2)
            s = d1 // g
            t = n1 * (d2 // g) + n2 * s
            g2 = gcd(t, g)
            return Scalar(field, t // g2, s * (d2 // g2))
        char = field.char
        g = _p_gcd(char, d1, d2)
        if g == (1,):
            return Scalar(field, _p_add(char, _p_mul(char, n1, d2),
                                        _p_mul(char, n2, d1)),
                          _p_mul(char, d1, d2))
        s, d2 = _p_divmod(char, d1, g)[0], _p_divmod(char, d2, g)[0]
        t = _p_add(char, _p_mul(char, n1, d2), _p_mul(char, n2, s))
        if not t:
            return zero(field)
        t, g = _p_cancel(char, t, g)
        return Scalar(field, t, _p_mul(char, _p_mul(char, s, d2), g))

    __radd__ = __add__

    def __neg__(self):
        if self.field.kind == "rational":
            return Scalar(self.field, -self.num, self.den)
        return Scalar(self.field, _p_neg(self.field.char, self.num), self.den)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The cross-cancelled product.  When either operand is the field's
        one (a fraction with num == den), it is the other operand, with no
        gcd.  That test follows ``_check``, so an int is coerced first and a
        one of another field raises ``FieldMismatch``."""
        other = self._check(other)
        if other is NotImplemented:
            return other
        field = self.field
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if n2 == d2:
            return self
        if n1 == d1:
            return other
        if field.kind == "rational":
            g1, g2 = gcd(n1, d2), gcd(n2, d1)
            return Scalar(field, (n1 // g1) * (n2 // g2),
                          (d1 // g2) * (d2 // g1))
        if not n1 or not n2:
            return zero(field)
        char = field.char
        n1, d2 = _p_cancel(char, n1, d2)
        n2, d1 = _p_cancel(char, n2, d1)
        return Scalar(field, _p_mul(char, n1, n2), _p_mul(char, d1, d2))

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.field.kind == "rational":
            sign = -1 if self.num < 0 else 1
            return Scalar(self.field, sign * self.den, sign * self.num)
        return Scalar._normal(self.field, self.den, self.num)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        if self.field.kind == "rational":
            return Scalar(self.field, self.num ** n, self.den ** n)
        # powers of a coprime pair stay coprime, and of a normalized den
        # normalized, so the result is canonical without a gcd; square and
        # multiply
        char = self.field.char
        num = den = (1,)
        base_num, base_den = self.num, self.den
        while n:
            if n & 1:
                num = _p_mul(char, num, base_num)
                den = _p_mul(char, den, base_den)
            n >>= 1
            if n:
                base_num = _p_mul(char, base_num, base_num)
                base_den = _p_mul(char, base_den, base_den)
        return Scalar(self.field, num, den)

    # Specialization

    def evaluate(self, point):
        """Substitute a rational number (an int, a Fraction or a Scalar over
        Q) for the variable of a Q(var) scalar.  The coefficients are ints,
        so at p/q Horner's rule runs over Z on the homogenized numerator and
        denominator, sum c_i p^i q^(n-i) for a polynomial of degree n, and
        the quotient is reduced once by ``Scalar.make``."""
        if self.field.kind != "ratfunc" or self.field.char != 0:
            raise FieldMismatch("evaluate applies to rational function fields over Q")
        point = Scalar.from_fraction(RATIONAL, point)
        p, q = point.num, point.den
        num = _p_eval_homogeneous(self.num, p, q)
        den = _p_eval_homogeneous(self.den, p, q)
        if den == 0:
            raise PoleAtPoint(f"denominator vanishes at {point}")
        # a(p/q) is its homogenized value over q^deg(a)
        shift = len(self.den) - len(self.num)
        if shift > 0:
            num *= q ** shift
        else:
            den *= q ** -shift
        return Scalar.make(RATIONAL, num, den)

    def as_fraction(self):
        """Return the value as a ``fractions.Fraction`` when it is a constant
        over Q.  The package loads ``fractions`` here and nowhere else."""
        from fractions import Fraction
        if self.field.kind == "rational":
            return Fraction(self.num, self.den)
        if self.field.char == 0 and self.is_constant():
            return Fraction(self.num[0], self.den[0]) if self.num else Fraction(0)
        raise FieldMismatch(f"{self.render()} is not a rational constant")

    # Rendering

    def _monic(self):
        """Numerator and denominator coefficients with the denominator monic:
        over Q(t) as Scalars over Q, over F_p(t) the stored ints."""
        if self.field.char:
            return self.num, self.den
        lead = self.den[-1]
        return (tuple(Scalar.make(RATIONAL, c, lead) for c in self.num),
                tuple(Scalar.make(RATIONAL, c, lead) for c in self.den))

    def render(self):
        if self.field.kind == "rational":
            return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"
        num_coeffs, den_coeffs = self._monic()
        num = _poly_render(self.field, num_coeffs)
        if len(den_coeffs) == 1:
            return num
        if len(self.num) > 1 or "/" in num or num.startswith("-"):
            num = f"({num})"
        return f"{num}/({_poly_render(self.field, den_coeffs)})"

    def __str__(self):
        return self.render()


# The zero and one of each field, built once: arithmetic asks for them often.
_CONSTANTS = {}


def _constants(field):
    pair = _CONSTANTS.get(field)
    if pair is None:
        pair = _CONSTANTS[field] = (Scalar.from_int(field, 0),
                                    Scalar.from_int(field, 1))
    return pair


def zero(field):
    return _constants(field)[0]


def one(field):
    return _constants(field)[1]


def _poly_render(field, coeffs):
    """A polynomial from ``_monic``'s coefficients, read through their text
    (a Scalar over Q and an int in 0..p-1 print alike)."""
    if not coeffs:
        return "0"
    var = field.var
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = str(coeffs[i])
        if c == "0":
            continue
        if i == 0:
            mon = c
        else:
            head = f"{var}^{i}" if i > 1 else var
            mon = head if c == "1" else f"-{head}" if c == "-1" else f"{c}*{head}"
        parts.append(mon)
    out = parts[0]
    for mon in parts[1:]:
        out += f" - {mon[1:]}" if mon.startswith("-") else f" + {mon}"
    return out


# Scalar expression parser.  Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | atom ('^' int)?
#   atom   := integer | variable | '(' expr ')'
#
# A power is refused before it is computed when its result would exceed
# MAX_POWER_SIZE, measured as exponent times the base's size (at least 1).
# A sum, difference, product or quotient is refused likewise when its two
# operands' sizes add up to more than MAX_POWER_SIZE: that sum bounds the
# size of the result.  An integer literal is refused when its own size
# exceeds MAX_POWER_SIZE.

MAX_POWER_SIZE = 256


def _size(value):
    """Bit length over Q; degree over F_p(t); over Q(t), the larger of the
    degree and the bit length of the base coefficients."""
    if value.field.kind == "rational":
        return max(abs(value.num).bit_length(), value.den.bit_length())
    num, den = value._monic()
    size = max(len(num), len(den)) - 1
    if value.field.char == 0:
        size = max(size, *map(_size, num + den))
    return size


def parse_scalar(field, text):
    tokens = _tokenize(text)
    value, pos = _parse_expr(field, tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing input in scalar expression: {text!r}")
    return value


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("var", text[i:j]))
            i = j
        elif ch in "+-*/^()":
            tokens.append((ch, ch))
            i += 1
        else:
            raise ValueError(f"bad character {ch!r} in scalar expression")
    return tokens


def _check_operand_sizes(op, lhs, rhs):
    if _size(lhs) + _size(rhs) > MAX_POWER_SIZE:
        raise ValueError(f"{op!r} of these operands would exceed the scalar "
                         f"size limit {MAX_POWER_SIZE}")


def _parse_expr(field, tokens, pos):
    value, pos = _parse_term(field, tokens, pos)
    while pos < len(tokens) and tokens[pos][0] in "+-":
        op = tokens[pos][0]
        rhs, pos = _parse_term(field, tokens, pos + 1)
        _check_operand_sizes(op, value, rhs)
        value = value + rhs if op == "+" else value - rhs
    return value, pos


def _parse_term(field, tokens, pos):
    value, pos = _parse_factor(field, tokens, pos)
    while pos < len(tokens) and tokens[pos][0] in "*/":
        op = tokens[pos][0]
        rhs, pos = _parse_factor(field, tokens, pos + 1)
        _check_operand_sizes(op, value, rhs)
        value = value * rhs if op == "*" else value / rhs
    return value, pos


def _parse_factor(field, tokens, pos):
    if pos < len(tokens) and tokens[pos][0] == "-":
        value, pos = _parse_factor(field, tokens, pos + 1)
        return -value, pos
    value, pos = _parse_atom(field, tokens, pos)
    if pos < len(tokens) and tokens[pos][0] == "^":
        if pos + 1 >= len(tokens) or tokens[pos + 1][0] != "int":
            raise ValueError("exponent must be an integer literal")
        n = tokens[pos + 1][1]
        if max(1, _size(value)) * n > MAX_POWER_SIZE:
            raise ValueError(f"power ^{n} would exceed the scalar size limit "
                             f"{MAX_POWER_SIZE}")
        value = value ** n
        pos += 2
    return value, pos


def _parse_atom(field, tokens, pos):
    if pos >= len(tokens):
        raise ValueError("unexpected end of scalar expression")
    kind, payload = tokens[pos]
    if kind == "int":
        value = Scalar.from_int(field, payload)
        if _size(value) > MAX_POWER_SIZE:
            raise ValueError(f"integer literal of size {_size(value)} exceeds "
                             f"the scalar size limit {MAX_POWER_SIZE}")
        return value, pos + 1
    if kind == "var":
        if field.kind != "ratfunc" or payload != field.var:
            raise ValueError(f"unknown variable {payload!r} for field {field.render()}")
        return Scalar.variable(field), pos + 1
    if kind == "(":
        value, pos = _parse_expr(field, tokens, pos + 1)
        if pos >= len(tokens) or tokens[pos][0] != ")":
            raise ValueError("unbalanced parenthesis in scalar expression")
        return value, pos + 1
    raise ValueError(f"unexpected token {payload!r} in scalar expression")


def falling_factorial(field, base, n):
    """base * (base - 1) * ... * (base - n + 1), an n-fold product."""
    acc = one(field)
    for k in range(n):
        acc = acc * (base - k)
    return acc
