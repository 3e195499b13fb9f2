"""Text syntax for polynomials and base-field elements.

Grammar (explicit multiplication only):

    expr   := "-"? term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" nat)?
    atom   := nat | var | "(" expr ")"

Division is accepted wherever the divisor contains no x, which covers both
rational literals ("1/2") and base-field fractions ("(y^2+1)/(2*y)").
Parentheses may nest at most MAX_NESTING deep.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .basefield import BaseFieldConfig, KElem, YPoly
from .errors import ParseError
from .polynomials import Poly

MAX_NESTING = 100

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
                    if rhs.is_zero():
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
            value = value**exp
        return value

    def atom(self) -> Poly:
        kind, val, at = self.next()
        if kind == "num":
            return Poly.const(KElem.const(Fraction(val)))
        if kind == "name":
            if val == "x":
                return Poly.x()
            if self.cfg.kind == "function_field" and val == "y":
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
