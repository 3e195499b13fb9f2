"""Text syntax for polynomials and base-field elements.

Grammar (explicit multiplication only):

    expr   := "-"? term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := atom ("^" nat)?
    atom   := nat | var | "(" expr ")"

Division is accepted wherever the divisor contains no x, which covers both
rational literals ("1/2") and base-field fractions ("(y^2+1)/(2*y)").
"""

from __future__ import annotations

import re
from fractions import Fraction

from .basefield import BaseFieldConfig, KElem, YPoly
from .errors import ParseError
from .polynomials import Poly

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
    def __init__(self, text, cfg: BaseFieldConfig, var="x"):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var = var
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
                        raise ParseError("cannot divide by a polynomial in %s" % self.var, at)
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
            if val == self.var:
                return Poly.x()
            if self.cfg.kind == "function_field" and val == self.cfg.variable:
                return Poly.const(KElem.gen())
            raise ParseError("unknown variable %r" % val, at)
        if kind == "op" and val == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError("expected a number, variable, or parenthesis", at)


def parse_poly(text: str, cfg: BaseFieldConfig, var: str = "x") -> Poly:
    return _Parser(text, cfg, var).parse()


def parse_kelem(text: str, cfg: BaseFieldConfig) -> KElem:
    p = _Parser(text, cfg).parse()
    if p.degree > 0:
        raise ParseError("expected a base-field element without x")
    return p.coeff(0)


def _join_signed(pieces) -> str:
    out = []
    for neg, text in pieces:
        if not out:
            out.append("-" + text if neg else text)
        else:
            out.append(" - " + text if neg else " + " + text)
    return "".join(out) if out else "0"


def ypoly_text(p: YPoly, var: str = "y") -> str:
    pieces = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        neg, mag = c < 0, abs(c)
        if k == 0:
            pieces.append((neg, str(mag)))
            continue
        vpow = var if k == 1 else "%s^%d" % (var, k)
        pieces.append((neg, vpow if mag == 1 else "%s*%s" % (mag, vpow)))
    return _join_signed(pieces)


def kelem_text(a: KElem, cfg: BaseFieldConfig) -> str:
    var = cfg.variable
    if a.den.degree <= 0:
        return ypoly_text(a.num, var)
    return "(%s)/(%s)" % (ypoly_text(a.num, var), ypoly_text(a.den, var))


def poly_text(f: Poly, cfg: BaseFieldConfig, var: str = "x") -> str:
    pieces = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeff(k)
        if c.is_zero():
            continue
        if k == 0:
            xpow = None
        else:
            xpow = var if k == 1 else "%s^%d" % (var, k)
        if c.is_constant():
            fr = c.as_fraction()
            neg, mag = fr < 0, abs(fr)
            if xpow is None:
                pieces.append((neg, str(mag)))
            elif mag == 1:
                pieces.append((neg, xpow))
            else:
                pieces.append((neg, "%s*%s" % (mag, xpow)))
        elif c.den.degree <= 0 and sum(1 for v in c.num.coeffs if v != 0) == 1:
            # single-monomial coefficient r*y^d: carry the sign, skip parens
            d = c.num.order()
            r = c.num.coeffs[d]
            neg, mag = r < 0, abs(r)
            vpow = cfg.variable if d == 1 else "%s^%d" % (cfg.variable, d)
            factors = [] if mag == 1 else [str(mag)]
            factors.append(vpow)
            if xpow is not None:
                factors.append(xpow)
            pieces.append((neg, "*".join(factors)))
        else:
            body = "(%s)" % kelem_text(c, cfg)
            pieces.append((False, body if xpow is None else "%s*%s" % (body, xpow)))
    return _join_signed(pieces)


def series_text(s, var: str = "y") -> str:
    body = ypoly_text(YPoly(s.coeffs), var)
    return "%s + O(%s^%d)" % (body, var, s.precision)
