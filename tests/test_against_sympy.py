"""Differential test: YPoly division and gcd over Q against sympy."""

import random
from fractions import Fraction

import pytest

from keyval.basefield import YPoly

sympy = pytest.importorskip("sympy")

Y = sympy.Symbol("y")


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
