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
exceed MAX_BITS, or for a base of t monomials in both x and y when its e-th
power, estimated as min(C(t + e - 1, e), (e deg_x + 1)(e deg_y + 1)) monomials
of e (bit length + log2 t) bits, would.  The budget reads the base's
coefficients in x in lowest terms, as KElem stores them.  An integer literal
may have as many digits as int() converts, and ``parse_rational``, the reader
of rational flags and basis betas, refuses an exponent beyond MAX_EXPONENT.

While parsing, a value is a pair (terms, den): a sparse map {(i, j): q} from
the monomial x^i y^j to its nonzero exact rational q, an int when integral,
over one denominator den in y.  den is ``_Y_ONE`` until a non-constant
y-polynomial is divided by, and then has positive degree.  Sums merge maps
over the lcm of their denominators, copy a monomial new to the sum (negated
in a difference), and drop the monomials that cancel.  A product by a single
monomial q x^i y^j, division by a constant included, multiplies each
coefficient of the other map by q and shifts its keys, and a power of a single
monomial over ``_Y_ONE`` is taken at once after the degree and bit caps.
Every other product of maps clears both operands to integer numerators and
builds one Fraction per output monomial (Johnson, "Sparse polynomial
arithmetic", SIGSAM Bull. 8, 1974); a square takes each cross product once.
The Poly of KElems is built once at the end, with one KElem per coefficient
in x.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .basefield import _Y_ONE, BaseFieldConfig, KElem, YPoly, power
from .errors import ParseError
from .polynomials import Poly

MAX_NESTING = 100
#: A power whose degree in x or y would exceed this is refused before it is taken.
MAX_DEGREE = 10**6
#: A power whose exponent times the bit length of its base's largest numerator
#: or denominator would exceed this is refused before it is taken, and so is a
#: power of a base with several terms whose dense result is estimated larger.
MAX_BITS = 10**7
#: Rational text whose decimal exponent exceeds this in absolute value is
#: refused before Fraction computes 10**exponent in full.
MAX_EXPONENT = 4000

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-*/^()])|(\S))")
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def parse_rational(text: str | int | Fraction | float) -> Fraction:
    """The exact rational that text writes, as Fraction reads it: 3, -3/2, 1.5, 2.5e-3.

    An exponent beyond MAX_EXPONENT raises ParseError; any other fault
    raises what Fraction raises.  A number that is not text is returned as
    Fraction(text), and a bool raises TypeError.
    """
    if not isinstance(text, str):
        if isinstance(text, bool):
            raise TypeError("a bool is not a rational: %r" % text)
        return Fraction(text)
    m = _EXPONENT.search(text)
    if m is not None:
        digits = m[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            try:
                Fraction(text[: m.start(1)] + "0")
            except ValueError:
                pass  # so text is malformed too, and Fraction refuses it at once
            else:
                raise ParseError("a rational's exponent may be at most %d in absolute value"
                                 % MAX_EXPONENT)
    return Fraction(text)


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        num, name, op, ch = m.groups()
        if num is not None:
            try:
                value = int(num)
            except ValueError:  # more digits than int() converts
                raise ParseError("integer literal of %d digits exceeds the limit of %d digits"
                                 % (len(num), sys.get_int_max_str_digits()), m.start(1)) from None
            tokens.append(("num", value, m.start(1)))
        elif name is not None:
            tokens.append(("name", name, m.start(2)))
        elif op is not None:
            tokens.append(("op", op, m.start(3)))
        else:
            raise ParseError("unexpected character %r" % ch, m.start(4))
    tokens.append(("end", None, len(text)))
    return tokens


def _rational(n: int, d: int):
    """n/d as an int when d divides n, else as a Fraction."""
    return n // d if n % d == 0 else Fraction(n, d)


def _cleared(terms: dict) -> tuple:
    """(d, [(monomial, d * q)]): the coefficients as integers over their lcm d."""
    d = math.lcm(*[q.denominator for q in terms.values()])
    return d, [(m, q.numerator * (d // q.denominator)) for m, q in terms.items()]


def _mul(a: dict, b: dict) -> dict:
    """The product of two monomial maps.  A product by one monomial q x^i y^j
    scales the other map by q and shifts its keys; any other is computed on
    integer numerators, and a square takes each cross product once and
    doubles it."""
    if len(a) == 1 or len(b) == 1:
        if len(a) != 1:
            a, b = b, a
        (((i, j), q),) = a.items()
        out = {}
        for (k, m), r in b.items():
            r *= q
            out[i + k, j + m] = r.numerator if r.denominator == 1 else r
        return out
    square = a is b
    da, a = _cleared(a)
    db, b = (da, a) if square else _cleared(b)
    out = {}
    get = out.get
    for at, ((i, j), p) in enumerate(a):
        rest = b
        if square:
            key = (i + i, j + j)
            out[key] = get(key, 0) + p * p
            p, rest = p + p, b[at + 1:]
        for (k, m), q in rest:
            key = (i + k, j + m)
            out[key] = get(key, 0) + p * q
    d = da * db
    return {key: _rational(n, d) for key, n in out.items() if n}


def _ymap(p: YPoly) -> dict:
    """The monomial map of a polynomial in y."""
    return {(0, j): q for j, q in enumerate(p.coeffs) if q}


def _rows(terms: dict) -> dict:
    """The nonzero coefficients in x of a monomial map, as {i: YPoly}."""
    rows = {}
    for (i, j), q in terms.items():
        row = rows.setdefault(i, [])
        row.extend([0] * (j + 1 - len(row)))
        row[j] = q
    return {i: YPoly._make(row) for i, row in rows.items()}


def _merge(a: tuple, b: tuple, op: str) -> tuple:
    """a + b or a - b for op "+" or "-".  a's map is updated in place."""
    (ta, da), (tb, db) = a, b
    if da != db:
        g = da.gcd(db)
        ca, cb = db.divmod(g)[0], da.divmod(g)[0]
        ta, tb, da = _mul(ta, _ymap(ca)), _mul(tb, _ymap(cb)), da * ca
    for key, q in tb.items():
        r = ta.get(key)
        if r is None:
            ta[key] = q if op == "+" else -q
            continue
        r = r + q if op == "+" else r - q
        if r:
            ta[key] = r.numerator if r.denominator == 1 else r
        else:
            del ta[key]
    return ta, da


def _product(a: tuple, b: tuple) -> tuple:
    (ta, da), (tb, db) = a, b
    den = db if da is _Y_ONE else da if db is _Y_ONE else da * db
    return _mul(ta, tb), den


def _reciprocal(value: tuple, at: int) -> tuple:
    """1/value for a divisor without x; at is the position of the "/"."""
    terms, den = value
    if any(i for i, _ in terms):
        raise ParseError("cannot divide by a polynomial in x", at)
    if not terms:
        raise ParseError("division by zero", at)
    if len(terms) > 1 or (0, 0) not in terms:
        return _ymap(den), _rows(terms)[0]
    c = terms[0, 0]
    inverse = {(0, 0): _rational(c.denominator, c.numerator)}
    return (inverse if den is _Y_ONE else _mul(_ymap(den), inverse)), _Y_ONE


def _lowest_terms(value: tuple) -> tuple:
    """({i: (numerator, denominator)}, value): the nonzero coefficients in x in
    lowest terms, as KElem keeps them, and the value over the lcm of their
    denominators, so that a power is taken of its reduced base."""
    terms, den = value
    rows = _rows(terms)
    if den is _Y_ONE:
        return {i: (c, _Y_ONE) for i, c in rows.items()}, value
    elems = {i: KElem(c, den) for i, c in rows.items()}
    value = {}, _Y_ONE
    for i, e in elems.items():
        value = _merge(value, ({(i, j): q for j, q in enumerate(e.num.coeffs) if q}, e.den), "+")
    return {i: (e.num, e.den) for i, e in elems.items()}, value


def _power(value: tuple, n: int) -> tuple:
    terms, den = value
    if not n:
        return {(0, 0): 1}, _Y_ONE
    if den is not _Y_ONE:
        den = den**n
    if len(terms) == 1:
        # (q x^i y^j)^n = q^n x^(in) y^(jn), without the repeated squaring
        (((i, j), q),) = terms.items()
        return {(i * n, j * n): q**n}, den
    return power(terms, n, _mul), den


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
        terms, den = self.expr()
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("trailing input", at)
        rows = _rows(terms)
        coeffs = [Poly._zero] * (max(rows, default=-1) + 1)
        for i, c in rows.items():
            coeffs[i] = KElem(c, den)
        return Poly._make(coeffs)

    def expr(self) -> tuple:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            value = _merge(({}, _Y_ONE), self.term(), "-")
        else:
            value = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                value = _merge(value, self.term(), val)
            else:
                return value

    def term(self) -> tuple:
        value = self.factor()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                value = _product(value, rhs if val == "*" else _reciprocal(rhs, at))
            else:
                return value

    def factor(self) -> tuple:
        value = self.atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, exp, at = self.next()
            if kind != "num":
                raise ParseError("exponent must be a natural number", at)
            if len(value[0]) == 1 and value[1] is _Y_ONE:
                # one monomial q x^i y^j, in lowest terms as it stands: the
                # dense estimate below is 0, so only the two caps can refuse it
                (((i, j), q),) = value[0].items()
                coeffs, ypolys = {}, []
                d = max(i, j)
                size = max(q.numerator.bit_length(), q.denominator.bit_length())
            else:
                coeffs, value = _lowest_terms(value)
                ypolys = [q for pair in coeffs.values() for q in pair]
                d = max([0, *coeffs] + [q.degree for q in ypolys])
                size = max([0] + [n.bit_length() for q in ypolys for r in q.coeffs
                                  for n in (r.numerator, r.denominator)])
            degree = exp * d
            if degree > MAX_DEGREE:
                raise ParseError(
                    "power of degree %d exceeds the cap %d" % (degree, MAX_DEGREE), at)
            bits = exp * size
            if bits > MAX_BITS:
                raise ParseError(
                    "power with %d-bit coefficients exceeds the cap %d" % (bits, MAX_BITS), at)
            # A base with several terms has a dense result: degree + 1
            # coefficients of up to exp * (size + log2 terms) bits each, by the
            # multinomial theorem.  Its terms are those of the polynomial the
            # power raises with the most: the base in x, or a numerator or
            # denominator in y.
            total = 0
            terms = max([len(coeffs)] + [sum(map(bool, q.coeffs)) for q in ypolys])
            if terms > 1:
                total = (degree + 1) * exp * (size + (terms - 1).bit_length())
            # a base of t > 1 monomials has terms > 1 and d >= 1, so a dense
            # estimate of at most MAX_BITS leaves exp <= 3162 here, and the
            # binomial is cheap
            t = len(value[0])
            dx, dy = map(max, zip(*value[0])) if t > 1 else (0, 0)  # the degrees in x and y
            if total <= MAX_BITS and dx and dy:
                count = min(math.comb(t + exp - 1, exp), (exp * dx + 1) * (exp * dy + 1))
                total = count * exp * (size + (t - 1).bit_length())
            if total > MAX_BITS:
                raise ParseError("power with an estimated %d-bit result exceeds the cap %d"
                                 % (total, MAX_BITS), at)
            value = _power(value, exp)
        return value

    def atom(self) -> tuple:
        kind, val, at = self.next()
        if kind == "num":
            return ({(0, 0): val} if val else {}), _Y_ONE
        if kind == "name":
            if val == "x":
                return {(1, 0): 1}, _Y_ONE
            if self.cfg.p is None and val == "y":
                return {(0, 1): 1}, _Y_ONE
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


def ypoly_text(p: YPoly) -> str:
    return _dense_text(p.coeffs, "y", _rational_term)


def kelem_text(a: KElem) -> str:
    if a.den.degree <= 0:
        return ypoly_text(a.num)
    return "(%s)/(%s)" % (ypoly_text(a.num), ypoly_text(a.den))


def poly_text(f: Poly) -> str:
    def term(c: KElem, xpow: list) -> tuple:
        if c.den.degree <= 0 and sum(1 for v in c.num.coeffs if v != 0) == 1:
            # one monomial r*y^d (a constant when d = 0): carry the sign, skip parens
            d = c.num.order()
            return _rational_term(c.num.coeffs[d], ([_power_text("y", d)] if d else []) + xpow)
        return False, "*".join(["(%s)" % kelem_text(c)] + xpow)

    return _dense_text(f.coeffs, "x", term)


def series_text(s) -> str:
    body = ypoly_text(YPoly(s.coeffs))
    return "%s + O(y^%d)" % (body, s.precision)
