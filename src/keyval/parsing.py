"""Text syntax for polynomials and base-field elements.

Grammar (explicit multiplication only):

    expr   := "-"? term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" nat)?
    atom   := nat | var | "(" expr ")"

Division is accepted wherever the divisor contains no x, which covers both
rational literals ("1/2") and base-field fractions ("(y^2+1)/(2*y)").
Parentheses may nest at most MAX_NESTING deep.  A power may have degree at
most MAX_DEGREE in x or in y, and the exponent times the largest bit length
of a numerator or denominator in its base may be at most MAX_BITS.  A power of
a base with several terms is also refused when its dense result, estimated as
(degree + 1) coefficients of exponent * (bit length + log2 terms) bits, would
exceed MAX_BITS.
"""

from __future__ import annotations

import re

from .basefield import BaseFieldConfig, KElem, YPoly
from .errors import ParseError
from .polynomials import Poly

MAX_NESTING = 100
#: A power whose degree in x or y would exceed this is refused before it is taken.
MAX_DEGREE = 10**6
#: A power whose exponent times the bit length of its base's largest numerator
#: or denominator would exceed this is refused before it is taken, and so is a
#: power of a base with several terms whose dense result is estimated larger.
MAX_BITS = 10**7

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("unexpected character %r" % text[pos], pos)
            break
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", int(num), m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        else:
            tokens.append(("op", op, m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, cfg: BaseFieldConfig):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.cfg = cfg

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.next()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, at)

    def parse(self) -> Poly:
        value = self.expr()
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("trailing input", at)
        return value

    def expr(self) -> Poly:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            value = -self.term()
        else:
            value = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                value = value + rhs if val == "+" else value - rhs
            else:
                return value

    def term(self) -> Poly:
        value = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                if val == "*":
                    value = value * rhs
                else:
                    if rhs.degree > 0:
                        raise ParseError("cannot divide by a polynomial in x", at)
                    if not rhs:
                        raise ParseError("division by zero", at)
                    inv = KElem.one() / rhs.coeff(0)
                    value = value * inv
            else:
                return value

    def factor(self) -> Poly:
        value = self.atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, exp, at = self.next()
            if kind != "num":
                raise ParseError("exponent must be a natural number", at)
            ypolys = [q for c in value.coeffs for q in (c.num, c.den)]
            d = max([value.degree, 0] + [q.degree for q in ypolys])
            degree = exp * d
            if degree > MAX_DEGREE:
                raise ParseError(
                    "power of degree %d exceeds the cap %d" % (degree, MAX_DEGREE), at)
            size = max([0] + [n.bit_length() for q in ypolys for r in q.coeffs
                              for n in (r.numerator, r.denominator)])
            bits = exp * size
            if bits > MAX_BITS:
                raise ParseError(
                    "power with %d-bit coefficients exceeds the cap %d" % (bits, MAX_BITS), at)
            # A base with several terms has a dense result: degree + 1
            # coefficients of up to exp * (size + log2 terms) bits each, by the
            # multinomial theorem.  Its terms are those of the polynomial the
            # power raises with the most: the base in x, or a numerator or
            # denominator in y.  None has more than d + 1, so they are counted
            # only when that many could exceed the cap.
            if (degree + 1) * exp * (size + d.bit_length()) > MAX_BITS:
                terms = max(sum(map(bool, q.coeffs)) for q in [value] + ypolys)
                total = (degree + 1) * exp * (size + (terms - 1).bit_length())
                if terms > 1 and total > MAX_BITS:
                    raise ParseError("power with an estimated %d-bit result exceeds the cap %d"
                                     % (total, MAX_BITS), at)
            value = value**exp
        return value

    def atom(self) -> Poly:
        kind, val, at = self.next()
        if kind == "num":
            return Poly.const(KElem.const(val))
        if kind == "name":
            if val == "x":
                return Poly.x()
            if self.cfg.p is None and val == "y":
                return Poly.const(KElem.gen())
            raise ParseError("unknown variable %r" % val, at)
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("parentheses nested deeper than %d" % MAX_NESTING, at)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ParseError("expected a number, variable, or parenthesis", at)


def parse_poly(text: str, cfg: BaseFieldConfig) -> Poly:
    return _Parser(text, cfg).parse()


def parse_kelem(text: str, cfg: BaseFieldConfig) -> KElem:
    p = _Parser(text, cfg).parse()
    if p.degree > 0:
        raise ParseError("expected a base-field element without x")
    return p.coeff(0)


def _power_text(var: str, k: int) -> str:
    return var if k == 1 else "%s^%d" % (var, k)


def _rational_term(r, powers: list) -> tuple:
    """(negative, text) of the rational r times the product of powers."""
    mag = abs(r)
    if not powers:
        return r < 0, str(mag)
    return r < 0, "*".join(powers if mag == 1 else [str(mag)] + powers)


def _dense_text(coeffs, var: str, term) -> str:
    """The signed sum of term(c, [var^k]) over nonzero coefficients, highest k first."""
    out = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        neg, text = term(c, [_power_text(var, k)] if k else [])
        if not out:
            out.append("-" + text if neg else text)
        else:
            out.append(" - " + text if neg else " + " + text)
    return "".join(out) if out else "0"


def ypoly_text(p: YPoly, var: str = "y") -> str:
    return _dense_text(p.coeffs, var, _rational_term)


def kelem_text(a: KElem) -> str:
    if a.den.degree <= 0:
        return ypoly_text(a.num)
    return "(%s)/(%s)" % (ypoly_text(a.num), ypoly_text(a.den))


def poly_text(f: Poly) -> str:
    def term(c: KElem, xpow: list) -> tuple:
        if c.is_constant():
            return _rational_term(c.as_fraction(), xpow)
        if c.den.degree <= 0 and sum(1 for v in c.num.coeffs if v != 0) == 1:
            # single-monomial coefficient r*y^d: carry the sign, skip parens
            d = c.num.order()
            return _rational_term(c.num.coeffs[d], [_power_text("y", d)] + xpow)
        return False, "*".join(["(%s)" % kelem_text(c)] + xpow)

    return _dense_text(f.coeffs, "x", term)


def series_text(s) -> str:
    body = ypoly_text(YPoly(s.coeffs))
    return "%s + O(y^%d)" % (body, s.precision)
