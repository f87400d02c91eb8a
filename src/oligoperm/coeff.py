"""Exact coefficient arithmetic.

Three coefficient fields are supported: the rationals, rational functions in
one variable over the rationals, and rational functions in one variable over a
prime field.  Every scalar is kept in a canonical form (fully reduced
fractions, positive integer denominators, monic polynomial denominators), so
equality of scalars is structural equality and is decidable everywhere
downstream.

Polynomials are dense coefficient tuples, low degree first.  Degrees in this
package stay small (a few dozen at most), so nothing sparse is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, FieldMismatch, PoleAtPoint


@dataclass(frozen=True)
class Field:
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


def ratfunc_field(var, char=0):
    if char:
        if char < 2 or any(char % q == 0 for q in range(2, int(char**0.5) + 1)):
            raise ValueError(f"characteristic must be prime, got {char}")
    return Field("ratfunc", char, var)


# Base coefficient helpers.  Base coefficients are Fraction (char 0) or plain
# ints reduced mod p (char p).

def _b_norm(char, x):
    if char:
        return x % char
    return x if isinstance(x, Fraction) else Fraction(x)


def _b_add(char, x, y):
    return (x + y) % char if char else x + y


def _b_sub(char, x, y):
    return (x - y) % char if char else x - y


def _b_mul(char, x, y):
    return (x * y) % char if char else x * y


def _b_inv(char, x):
    if char:
        return pow(x, char - 2, char)
    return 1 / x


# Dense polynomial helpers.  A polynomial is a tuple of base coefficients with
# no trailing zeros; the zero polynomial is ().

def _p_trim(coeffs):
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


def _p_add(char, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else _b_norm(char, 0)
        y = b[i] if i < len(b) else _b_norm(char, 0)
        out.append(_b_add(char, x, y))
    return _p_trim(out)


def _p_neg(char, a):
    return tuple(_b_sub(char, _b_norm(char, 0), x) for x in a)


def _p_mul(char, a, b):
    if not a or not b:
        return ()
    out = [_b_norm(char, 0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = _b_add(char, out[i + j], _b_mul(char, x, y))
    return _p_trim(out)


def _p_divmod(char, a, b):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    a = list(a)
    q = [_b_norm(char, 0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = _b_inv(char, b[-1])
    while len(a) >= len(b):
        if not a[-1]:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = _b_mul(char, a[-1], inv_lead)
        q[shift] = c
        for i, y in enumerate(b):
            a[shift + i] = _b_sub(char, a[shift + i], _b_mul(char, c, y))
        a.pop()
    return _p_trim(q), _p_trim(a)


def _p_gcd(char, a, b):
    while b:
        _, r = _p_divmod(char, a, b)
        a, b = b, r
    if not a:
        return ()
    inv_lead = _b_inv(char, a[-1])
    return tuple(_b_mul(char, x, inv_lead) for x in a)


def _p_const(char, x):
    x = _b_norm(char, x)
    return (x,) if x else ()


def _p_eval(char, a, point):
    acc = _b_norm(char, 0)
    for c in reversed(a):
        acc = _b_add(char, _b_mul(char, acc, point), c)
    return acc


@dataclass(frozen=True)
class Scalar:
    """An element of one of the supported fields, in canonical form."""

    field: Field
    num: object
    den: object

    # Construction

    @staticmethod
    def from_int(field, n):
        return Scalar.from_fraction(field, Fraction(n))

    @staticmethod
    def from_fraction(field, q):
        q = Fraction(q)
        if field.kind == "rational":
            return Scalar(field, q.numerator, q.denominator)
        char = field.char
        if char:
            if q.denominator % char == 0:
                raise DivisionByZero(f"{q} has no image in characteristic {char}")
            n = (q.numerator * _b_inv(char, q.denominator % char)) % char
            return Scalar(field, _p_const(char, n), _p_const(char, 1))
        return Scalar(field, _p_const(0, q), _p_const(0, 1))

    @staticmethod
    def variable(field):
        if field.kind != "ratfunc":
            raise FieldMismatch("only rational function fields have a variable")
        zero = _b_norm(field.char, 0)
        one = _b_norm(field.char, 1)
        return Scalar(field, (zero, one), (one,))

    @staticmethod
    def make(field, num, den):
        """Normalize a raw numerator/denominator pair into a Scalar."""
        if field.kind == "rational":
            if den == 0:
                raise DivisionByZero("zero denominator")
            q = Fraction(num, den)
            return Scalar(field, q.numerator, q.denominator)
        char = field.char
        num = _p_trim(tuple(_b_norm(char, c) for c in num))
        den = _p_trim(tuple(_b_norm(char, c) for c in den))
        if not den:
            raise DivisionByZero("zero denominator")
        if not num:
            return Scalar(field, (), _p_const(char, 1))
        g = _p_gcd(char, num, den)
        if len(g) > 1 or (g and g[0] != _b_norm(char, 1)):
            num, _ = _p_divmod(char, num, g)
            den, _ = _p_divmod(char, den, g)
        inv_lead = _b_inv(char, den[-1])
        num = tuple(_b_mul(char, c, inv_lead) for c in num)
        den = tuple(_b_mul(char, c, inv_lead) for c in den)
        return Scalar(field, num, den)

    # Predicates

    def is_zero(self):
        if self.field.kind == "rational":
            return self.num == 0
        return not self.num

    def is_one(self):
        return self == one(self.field)

    # Arithmetic

    def _check(self, other):
        if isinstance(other, int):
            other = Scalar.from_int(self.field, other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch(f"{self.field.render()} vs {other.field.render()}")
        return other

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        if self.field.kind == "rational":
            return Scalar.make(self.field, self.num * other.den + other.num * self.den,
                               self.den * other.den)
        char = self.field.char
        num = _p_add(char, _p_mul(char, self.num, other.den),
                     _p_mul(char, other.num, self.den))
        return Scalar.make(self.field, num, _p_mul(char, self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        if self.field.kind == "rational":
            return Scalar(self.field, -self.num, self.den)
        return Scalar.make(self.field, _p_neg(self.field.char, self.num), self.den)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return other
        if self.field.kind == "rational":
            return Scalar.make(self.field, self.num * other.num, self.den * other.den)
        char = self.field.char
        return Scalar.make(self.field, _p_mul(char, self.num, other.num),
                           _p_mul(char, self.den, other.den))

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return Scalar.make(self.field, self.den, self.num)

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
        # powers of a coprime pair stay coprime, and of a monic den monic,
        # so the result is canonical without a gcd; square and multiply
        char = self.field.char
        num = den = _p_const(char, 1)
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
        """Substitute a rational number for the variable of a Q(var) scalar."""
        if self.field.kind != "ratfunc" or self.field.char != 0:
            raise FieldMismatch("evaluate applies to rational function fields over Q")
        point = Fraction(point)
        den = _p_eval(0, self.den, point)
        if den == 0:
            raise PoleAtPoint(f"denominator vanishes at {point}")
        return Scalar.from_fraction(RATIONAL, _p_eval(0, self.num, point) / den)

    def as_fraction(self):
        """Return the value as a Fraction when it is a constant over Q."""
        if self.field.kind == "rational":
            return Fraction(self.num, self.den)
        if self.field.char == 0 and len(self.num) <= 1 and self.den == _p_const(0, 1):
            return self.num[0] if self.num else Fraction(0)
        raise FieldMismatch(f"{self.render()} is not a rational constant")

    # Rendering

    def render(self):
        if self.field.kind == "rational":
            return str(Fraction(self.num, self.den))
        num = _poly_render(self.field, self.num)
        if self.den == _p_const(self.field.char, 1):
            return num
        den = _poly_render(self.field, self.den)
        if len(self.num) > 1 or "/" in num or num.startswith("-"):
            num = f"({num})"
        if len(self.den) > 1:
            den = f"({den})"
        return f"{num}/{den}"

    def __str__(self):
        return self.render()


def zero(field):
    return Scalar.from_int(field, 0)


def one(field):
    return Scalar.from_int(field, 1)


def _coeff_render(char, c):
    return str(c if char else Fraction(c))


def _poly_render(field, coeffs):
    if not coeffs:
        return "0"
    var = field.var
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            mon = _coeff_render(field.char, c)
        else:
            head = f"{var}^{i}" if i > 1 else var
            if c == _b_norm(field.char, 1):
                mon = head
            elif field.char == 0 and c == Fraction(-1):
                mon = f"-{head}"
            else:
                mon = f"{_coeff_render(field.char, c)}*{head}"
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
    size = max(len(value.num), len(value.den)) - 1
    if value.field.char == 0:
        for c in value.num + value.den:
            size = max(size, abs(c.numerator).bit_length(),
                       c.denominator.bit_length())
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
