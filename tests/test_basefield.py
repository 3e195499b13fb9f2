import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyval import basefield
from keyval.basefield import (
    _Y_ONE,
    MAX_P,
    BaseFieldConfig,
    DensePoly,
    KElem,
    YPoly,
    base_valuation,
    power,
)
from keyval.errors import DivisorZeroError, KeyvalError
from keyval.polynomials import Poly
from keyval.rewrite import _multiply
from keyval.values import INF

from conftest import alarm

F = Fraction
FF = BaseFieldConfig.function_field()
P3 = BaseFieldConfig.p_adic(3)


def test_config_rejects_composite_p():
    with pytest.raises(KeyvalError):
        BaseFieldConfig.p_adic(9)
    with pytest.raises(KeyvalError):
        BaseFieldConfig.p_adic(1)


def test_config_rejects_large_p_at_once():
    start = time.perf_counter()
    with pytest.raises(KeyvalError, match=r"p must be below 2\^31, got 2305843009213693951"):
        BaseFieldConfig.p_adic(2**61 - 1)
    with pytest.raises(KeyvalError, match=r"p must be below 2\^31"):
        BaseFieldConfig.p_adic(MAX_P)
    assert time.perf_counter() - start < 1
    primes = (2, 3, 5, 7, MAX_P - 1)  # 2^31 - 1 is prime
    assert [BaseFieldConfig.p_adic(p).p for p in primes] == list(primes)


def test_ypoly_normalizes_trailing_zeros():
    assert YPoly((1, 2, 0, 0)) == YPoly((1, 2))
    assert not YPoly((0, 0))


class QyPoly(DensePoly):
    """Polynomials whose coefficients are YPolys, as in a determinant over Q[y]."""

    __slots__ = ()
    _zero, _one = YPoly.zero(), YPoly.one()


def test_polynomials_are_falsy_exactly_when_zero():
    assert not YPoly.zero() and not Poly.zero()
    assert YPoly.gen() and YPoly.const(F(1, 2)) and Poly.x() and Poly.one()
    y = YPoly.gen()
    assert QyPoly((y, YPoly.zero())).coeffs == (y,)
    assert not (QyPoly((y,)) - QyPoly((y,)))
    # a Bareiss pivot search must skip the zero entries and only those
    assert [i for i, e in enumerate([YPoly.zero(), y]) if e] == [1]


@pytest.mark.parametrize(
    "product",
    [lambda: 2 * KElem.gen(), lambda: F(1, 2) * KElem.gen(), lambda: YPoly.gen() * KElem.gen()],
    ids=["int", "fraction", "ypoly"],
)
def test_reflected_product_by_a_kelem_is_a_type_error(product):
    with pytest.raises(TypeError):
        product()


def test_ypoly_arithmetic():
    y = YPoly.gen()
    assert y * (y + YPoly.one()) == YPoly((0, 1, 1))
    assert (y + YPoly.one()) - y == YPoly.one()
    assert y * 0 == YPoly.zero()


def test_powers():
    y = YPoly.gen()
    assert (y + YPoly.one()) ** 3 == YPoly((1, 3, 3, 1))
    assert YPoly((0, 0, F(-2, 3))) ** 3 == YPoly((0,) * 6 + (F(-8, 27),))
    assert y**0 == YPoly.one() and YPoly.zero() ** 0 == YPoly.one()
    assert YPoly.zero() ** 5 == YPoly.zero()
    # a one-term coefficient in K with a denominator stays reduced and monic
    c = KElem(YPoly((0, 2)), YPoly((1, 0, 1)))
    x = Poly((Poly._zero, c))
    assert x**3 == x * x * x
    assert (x**3).leading.den == YPoly((1, 0, 1)) ** 3


def test_power_matches_repeated_products():
    ypoly = YPoly((1, F(-2, 3), 5))
    poly = Poly((KElem.gen(), KElem.const(F(-1, 2))))
    terms = {(1, 0): KElem.gen(), (0, 2): KElem.const(-3)}  # a rewrite term map
    for x, mul in [(ypoly, operator.mul), (poly, operator.mul), (terms, _multiply)]:
        expected = x
        for n in range(1, 65):
            assert power(x, n, mul) == expected, (x, n)
            expected = mul(expected, x)


def test_power_takes_one_squaring_per_bit_and_one_product_per_set_bit():
    calls = {}

    def mul(a, b):
        calls["square" if a is b else "other"] += 1
        return a * b

    x = YPoly((1, 1))
    for n in range(1, 65):
        calls.update(square=0, other=0)
        assert power(x, n, mul) == x**n
        assert calls == {"square": n.bit_length() - 1, "other": bin(n).count("1") - 1}, n


def test_constant_denominators_are_the_one_denominator():
    for a in [KElem.one() / KElem.const(2), KElem(YPoly((0, 2)), YPoly((0, 4))),
              KElem(YPoly((0, 1)), YPoly((0, 1))), KElem.gen() ** 0,
              KElem(YPoly((1, 1)), YPoly((1, 2))) ** 0]:
        assert a.den is _Y_ONE, a
    assert (KElem.one() / KElem.const(2)).num == YPoly((F(1, 2),))


def test_gcd_of_monic_integer_inputs_keeps_ints():
    y = YPoly.gen()
    one = YPoly.one()
    for a, b, g in [(y * y - one, y - one, y - one), (y * y, y, y), (y + one, YPoly.zero(), y + one),
                    (y * y + one, y, one)]:
        assert a.gcd(b) == g
        assert all(type(c) is int for c in a.gcd(b).coeffs), (a, b)
    assert YPoly((2, 2)).gcd(YPoly.zero()).coeffs == (1, 1)  # scaled: the leading 2 is not 1


def test_negative_power_is_refused():
    for p in (YPoly.gen(), YPoly((1, 1)), YPoly.zero(), Poly.x()):
        with pytest.raises(ValueError, match="negative exponent -1"):
            p**-1


def test_ypoly_divmod_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        f = YPoly([F(rng.randint(-5, 5)) for _ in range(rng.randint(0, 6))])
        g = YPoly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))])
        if not g:
            continue
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_ypoly_divmod_by_zero():
    with pytest.raises(DivisorZeroError):
        YPoly.one().divmod(YPoly.zero())


def test_ypoly_order():
    assert YPoly((0, 0, 1, 1)).order() == 2
    assert YPoly.zero().order() is None


def test_kelem_reduces_to_lowest_terms():
    y = YPoly.gen()
    a = KElem(y * y, y * (y + YPoly.one()))
    assert a.num == y
    assert a.den == y + YPoly.one()


def test_kelem_monic_denominator():
    a = KElem(YPoly.one(), YPoly((0, 2)))
    assert a.den.leading == 1
    assert a.num == YPoly.const(F(1, 2))


def test_kelem_zero_denominator():
    with pytest.raises(DivisorZeroError):
        KElem(YPoly.one(), YPoly.zero())
    with pytest.raises(DivisorZeroError):
        KElem.one() / KElem.zero()


def test_kelem_field_axioms_sample():
    rng = random.Random(11)

    def rand():
        num = YPoly([F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])
        den = YPoly([F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])
        if not den:
            den = YPoly.one()
        return KElem(num, den)

    for _ in range(30):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a - a == KElem.zero()
        if a:
            assert a / a == KElem.one()


def test_kelem_truth_value():
    y = KElem.gen()
    assert not KElem.zero() and not (y - y)
    assert KElem.one() and y and KElem.const(F(-1, 3))


def test_kelem_mul_div_examples():
    y = KElem.gen()
    one = KElem.one()
    assert y * (y + one) == KElem(YPoly((0, 1, 1)))
    assert (y * y) / (y * y * y) == one / y


def test_padic_constant_arithmetic():
    a = KElem.const(F(1, 2)) + KElem.const(F(1, 3))
    assert a == KElem.const(F(5, 6))


def test_padic_valuation_refuses_non_constants():
    for non_constant in (KElem.gen(), KElem.one() / KElem.gen()):
        with pytest.raises(KeyvalError, match="^element is not a constant$"):
            base_valuation(non_constant, P3)


def test_reprs():
    assert repr(FF) == "BaseFieldConfig.function_field()"
    assert repr(P3) == "BaseFieldConfig.p_adic(3)"
    assert repr(YPoly((0, F(1, 2)))) == "YPoly((0, Fraction(1, 2)))"
    assert repr(KElem.one() / KElem.gen()) == "KElem(YPoly((1,)), YPoly((0, 1)))"


def test_base_valuation_function_field():
    y = KElem.gen()
    assert base_valuation(y * y + y * y * y, FF) == 2
    assert base_valuation((KElem.one() + y) / (y * y), FF) == -2
    assert base_valuation(KElem.zero(), FF) is INF


def test_base_valuation_padic():
    assert base_valuation(KElem.const(F(18, 5)), P3) == 2
    assert base_valuation(KElem.const(F(1, 3)), P3) == -1
    assert base_valuation(KElem.zero(), P3) is INF


def test_valuation_axioms_property():
    rng = random.Random(5)
    elems = []
    for _ in range(20):
        num = YPoly([F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))])
        den = YPoly([F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
        if not den:
            den = YPoly.one()
        elems.append(KElem(num, den))
    # constants u * 3^a / (w * 3^b) with units u, w prime to 3
    units = [u for u in range(-8, 9) if u % 3]
    constants = [KElem.const(F(rng.choice(units) * 3 ** rng.randint(0, 3),
                               rng.choice(units) * 3 ** rng.randint(0, 3))) for _ in range(20)]
    for base, elems in ((FF, elems), (P3, constants)):
        for a in elems:
            for b in elems:
                va, vb = base_valuation(a, base), base_valuation(b, base)
                assert base_valuation(a * b, base) == va + vb
                assert base_valuation(a + b, base) >= min(va, vb)


# Exact rationals as the code meets them: ints, Fractions, or a mix of both.
rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


def ypolys(min_size=0, max_size=6):
    return st.lists(rationals, min_size=min_size, max_size=max_size).map(YPoly)


@st.composite
def ypoly_divisors(draw):
    """A nonzero divisor; about half of them monic."""
    body = draw(st.lists(rationals, max_size=3))
    lead = draw(st.one_of(st.just(1), rationals.filter(lambda c: c != 0)))
    return YPoly(body + [lead])


def _exact(coeffs):
    return all(type(c) in (int, Fraction) for c in coeffs)


@settings(max_examples=300, deadline=None)
@given(ypolys(), ypoly_divisors())
def test_ypoly_divmod_property(f, g):
    q, r = f.divmod(g)
    assert q * g + r == f
    assert r.degree < g.degree
    # float coefficients would mean the leading coefficient was inverted inexactly
    assert _exact(q.coeffs) and _exact(r.coeffs)


def kelems(base):
    """Elements of K: fractions of small YPolys over Q(y), constants over Q_3."""
    if base.p is not None:
        return st.builds(
            lambda n, k, d: KElem.const(F(n) * F(3) ** k / d),
            st.integers(-5, 5), st.integers(-2, 2), st.integers(1, 4),
        )
    return st.builds(
        lambda num, den: KElem(num, den or YPoly.one()),
        ypolys(max_size=3), ypolys(max_size=3),
    )


@pytest.mark.parametrize("base", [FF, P3], ids=["function_field", "p_adic"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kelem_field_axioms_property(base, data):
    a, b, c = (data.draw(kelems(base)) for _ in range(3))
    zero, one = KElem.zero(), KElem.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a
    assert a + (-a) == zero and a - b == a + (-b)
    if b:
        assert (a / b) * b == a
        assert b * (one / b) == one
    # reduced form: monic denominator, coprime to the numerator
    assert a.den.leading == 1
    assert a.num.gcd(a.den) == YPoly.one() or not a


# Over constant, non-monic and non-constant denominators, or none at all.
fractions_in_y = st.one_of(st.builds(KElem, ypolys(max_size=3)),
                           st.builds(KElem, ypolys(max_size=3), ypoly_divisors()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fractions_in_y, fractions_in_y, st.integers(0, 3))
def test_constant_denominator_is_the_one_denominator_property(a, b, n):
    # weight() and KElem's own fast paths tell a constant denominator by identity
    results = [a, b, a + b, a - b, a * b, -a, a**n] + ([a / b] if b else [])
    for c in results:
        assert (c.den is _Y_ONE) == (c.den.degree == 0), c


def _euclid_gcd(a, b):
    """The monic gcd by Euclid's algorithm alone."""
    while b:
        a, b = b, a.divmod(b)[1]
    return a * (F(1) / a.leading) if a else a


monomials = st.builds(lambda k, c: YPoly([0] * k + [c]), st.integers(0, 6), rationals.filter(bool))


@settings(max_examples=300, deadline=None)
@given(st.one_of(monomials, ypolys()), st.one_of(monomials, ypolys()))
def test_gcd_matches_euclid(a, b):
    g = a.gcd(b)
    assert g == _euclid_gcd(a, b)
    # an integral coefficient of the gcd is stored as an int
    assert all(type(c) is int or c.denominator != 1 for c in g.coeffs)


def test_gcd_with_a_monomial_divides_nothing(monkeypatch):
    calls = []
    divide = basefield.monic_divide

    def counting(f, U, sub):
        calls.append(U)
        return divide(f, U, sub)

    monkeypatch.setattr(basefield, "monic_divide", counting)
    a = YPoly((1, 1)) ** 600
    y400 = YPoly([0] * 400 + [1])
    for m in (y400, YPoly([0] * 400 + [F(3, 2)])):
        assert a.gcd(m) == YPoly.one() == m.gcd(a)
    with alarm(1, "reducing (1 + y)^600 / y^400"):
        assert KElem(a, y400).den == y400
    assert calls == []
