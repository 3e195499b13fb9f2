"""Differential tests: YPoly arithmetic, division and gcd over Q against sympy."""

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
