import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyval.basefield import BaseFieldConfig, KElem, YPoly
from keyval.errors import DivisorZeroError, NotAlgebraicError
from keyval.keybasis import WeightedBasis
from keyval.polynomials import Poly, poly_divmod, poly_reduce
from keyval.parsing import parse_poly

F = Fraction
FF = BaseFieldConfig.function_field()
P3 = BaseFieldConfig.p_adic(3)


def p(text):
    return parse_poly(text, FF)


def test_poly_normalization():
    assert Poly([KElem.one(), KElem.zero()]) == Poly.one()
    assert Poly.zero().degree == float("-inf")


def test_poly_arithmetic():
    x = Poly.x()
    assert (x + Poly.one()) * (x - Poly.one()) == p("x^2 - 1")
    assert x**5 == p("x^5")
    assert x**0 == Poly.one()


def test_divmod_long_division_step():
    q, r = poly_divmod(p("x^3"), p("x^2 - y"))
    assert q == p("x")
    assert r == p("y*x")


def test_divmod_degree_shortfall():
    q, r = poly_divmod(p("x^2 - y"), p("x"))
    assert q == p("x")
    assert r == p("-y")


def test_divmod_constant_by_x():
    q, r = poly_divmod(p("7"), p("x"))
    assert q.is_zero()
    assert r == p("7")


def test_divmod_by_zero():
    with pytest.raises(DivisorZeroError):
        poly_divmod(p("x"), Poly.zero())


def test_divmod_nonmonic_round_trip():
    rng = random.Random(13)
    for _ in range(60):
        f = Poly(
            [KElem.const(F(rng.randint(-4, 4))) for _ in range(rng.randint(0, 7))]
        )
        g = Poly(
            [KElem.const(F(rng.randint(-4, 4))) for _ in range(rng.randint(1, 4))]
        )
        if g.is_zero():
            continue
        q, r = poly_divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_reduce_conic():
    minimal = p("x^2 - y^2 - y^3")
    assert poly_reduce(p("x^3"), minimal) == p("(y^2 + y^3)*x")
    assert poly_reduce(p("x"), minimal) == p("x")
    assert poly_reduce(p("x^2 - y^2 - y^3"), minimal).is_zero()


def test_extension_config_rejects_nonmonic():
    with pytest.raises(NotAlgebraicError):
        WeightedBasis(FF, [(p("x"), 1)], p("2*x^2 - y"))
    with pytest.raises(NotAlgebraicError):
        WeightedBasis(FF, [(p("x"), 1)], p("7"))


def test_monic_check():
    assert p("x^2 - y").is_monic()
    assert not p("2*x").is_monic()
    assert not Poly.zero().is_monic()


def test_coefficients_may_be_fractions():
    f = p("((y + 1)/(y^2))*x + 1/2")
    assert f.coeff(1) == KElem(YPoly((1, 1)), YPoly((0, 0, 1)))
    assert f.coeff(0).as_fraction() == F(1, 2)


rationals = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
ff_elems = st.builds(
    lambda num, den: KElem(YPoly(num), YPoly(den) if any(den) else YPoly.one()),
    st.lists(rationals, max_size=3), st.lists(rationals, max_size=2),
)
p3_elems = st.builds(
    lambda n, k, d: KElem.const(F(n) * F(3) ** k / d),
    st.integers(-5, 5), st.integers(-2, 2), st.integers(1, 4),
)


@st.composite
def poly_pairs(draw, elems):
    """(f, g) with g nonzero; about half of the divisors monic."""
    f = Poly(draw(st.lists(elems, max_size=6)))
    body = draw(st.lists(elems, max_size=3))
    lead = draw(st.one_of(st.just(KElem.one()), elems.filter(lambda c: not c.is_zero())))
    return f, Poly(body + [lead])


def _exact(p):
    return all(type(v) in (int, Fraction) for c in p.coeffs for v in c.num.coeffs + c.den.coeffs)


@pytest.mark.parametrize("elems", [ff_elems, p3_elems], ids=["function_field", "p_adic"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_divmod_property(elems, data):
    f, g = data.draw(poly_pairs(elems))
    q, r = poly_divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree
    assert _exact(q) and _exact(r)
