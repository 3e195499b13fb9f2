"""Differential tests against sympy: YPoly arithmetic, division and gcd over Q,
and the parser over Q(y) and Q with v_3."""

import random
from fractions import Fraction

import pytest

from keyval.basefield import BaseFieldConfig, YPoly
from keyval.parsing import parse_poly

sympy = pytest.importorskip("sympy")

X, Y = sympy.symbols("x y")


def _random_ypoly(rng, max_degree):
    return YPoly(
        Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        for _ in range(rng.randint(0, max_degree) + 1)
    )


def _to_sympy(f):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in map(Fraction, f.coeffs)]
    return sympy.Poly(list(reversed(coeffs)) or [0], Y, domain=sympy.QQ)


def _from_sympy(g):
    return YPoly(Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs()))


def _pairs(count, seed=2008):
    """Seeded pairs (a, b) with b nonzero; every third pair shares a factor."""
    rng = random.Random(seed)
    for n in range(count):
        a, b = _random_ypoly(rng, 6), _random_ypoly(rng, 4)
        if n % 3 == 0:
            common = _random_ypoly(rng, 2)
            a, b = a * common, b * common
        if not b:
            b = YPoly.one()
        yield a, b


def test_divmod_and_gcd_agree_with_sympy():
    for a, b in _pairs(300):
        q, r = a.divmod(b)
        sq, sr = sympy.div(_to_sympy(a), _to_sympy(b))
        assert (q, r) == (_from_sympy(sq), _from_sympy(sr)), (a, b)
        assert a.gcd(b) == _from_sympy(sympy.gcd(_to_sympy(a), _to_sympy(b)).monic()), (a, b)


def _sparse_ypoly(rng, max_degree):
    """Half the coefficients zero; ints and Fractions, as the parser makes them."""
    def coefficient():
        if rng.random() < 0.5:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    return YPoly(coefficient() for _ in range(rng.randint(0, max_degree) + 1))


def _sparse_pairs(count, seed=2009):
    """Seeded sparse pairs, with one-term and zero polynomials among them."""
    rng = random.Random(seed)
    special = [YPoly.zero(), YPoly.one(), YPoly.gen(), YPoly((0, 0, 0, Fraction(-7, 3))),
               YPoly((Fraction(5, 2),))]
    for n in range(count):
        a, b = _sparse_ypoly(rng, 8), _sparse_ypoly(rng, 8)
        if n % 4 == 0:
            b = special[(n // 4) % len(special)]
        yield a, b


def test_sparse_arithmetic_agrees_with_sympy():
    for a, b in _sparse_pairs(300):
        sa, sb = _to_sympy(a), _to_sympy(b)
        assert a + b == _from_sympy(sa + sb), (a, b)
        assert a - b == _from_sympy(sa - sb), (a, b)
        assert a * b == _from_sympy(sa * sb), (a, b)
        assert b * a == a * b, (a, b)
        for n in range(6):
            assert b**n == _from_sympy(sb**n), (b, n)


def test_long_powers_agree_with_sympy():
    """Exponents around powers of two: the longest runs of squarings, and one more product."""
    for _, b in _sparse_pairs(40, seed=2010):
        sb = _to_sympy(b)
        for n in (8, 9, 16, 17, 31, 32, 33):
            assert b**n == _from_sympy(sb**n), (b, n)


def _random_text(rng, names, depth):
    """A seeded random expression over the parser's grammar.

    Sums and differences, products, quotients by nonzero constants and by
    nonzero polynomials in y, powers up to 4 and parenthesised nesting.
    """

    def atom(depth, names):
        r = rng.random()
        if depth and r < 0.3:
            return "(%s)" % expr(depth - 1, names)
        if r < 0.6 or not names:
            return str(rng.randint(0, 12))
        return rng.choice(names)

    def factor(depth, names):
        text = atom(depth, names)
        return text + "^%d" % rng.randint(0, 4) if rng.random() < 0.25 else text

    def divisor(depth):
        while True:
            text = factor(depth, [n for n in names if n == "y"])
            if sympy.sympify(text.replace("^", "**"), locals={"y": Y}) != 0:
                return text

    def term(depth, names):
        text = factor(depth, names)
        for _ in range(rng.randint(0, 2)):
            text += "*" + factor(depth, names) if rng.random() < 0.6 else "/" + divisor(depth)
        return text

    def expr(depth, names):
        text = ("-" if rng.random() < 0.2 else "") + term(depth, names)
        for _ in range(rng.randint(0, 2)):
            text += rng.choice([" + ", " - "]) + term(depth, names)
        return text

    return expr(depth, names)


@pytest.mark.parametrize("base, names, count", [
    (BaseFieldConfig.function_field(), ["x", "y"], 100),
    (BaseFieldConfig.p_adic(3), ["x"], 60),
], ids=["function_field", "p_adic"])
def test_parse_agrees_with_sympy(base, names, count):
    rng = random.Random(2011)
    for _ in range(count):
        text = _random_text(rng, names, 2)
        f = parse_poly(text, base)
        expected = sympy.cancel(sympy.sympify(text.replace("^", "**"), locals={"x": X, "y": Y}))
        num, den = sympy.fraction(expected)
        coeffs = sympy.Poly(num, X).all_coeffs()[::-1] if expected != 0 else []
        assert len(f.coeffs) == len(coeffs), text
        for c, e in zip(f.coeffs, coeffs):
            value = _to_sympy(c.num).as_expr() / _to_sympy(c.den).as_expr()
            assert sympy.cancel(value - e / den) == 0, text
