import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyval.basefield import MAX_P, BaseFieldConfig, KElem, YPoly, base_valuation
from keyval.errors import DivisorZeroError, KeyvalError
from keyval.values import INF

F = Fraction
FF = BaseFieldConfig.function_field()
P3 = BaseFieldConfig.p_adic(3)


def test_config_rejects_bad_kind():
    with pytest.raises(KeyvalError):
        BaseFieldConfig("padic")


def test_config_rejects_p_for_function_field():
    with pytest.raises(KeyvalError):
        BaseFieldConfig("function_field", p=5)


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
    assert YPoly((0, 0)).is_zero()


def test_ypoly_arithmetic():
    y = YPoly.gen()
    assert y * (y + YPoly.one()) == YPoly((0, 1, 1))
    assert (y + YPoly.one()) - y == YPoly.one()
    assert y * 0 == YPoly.zero()


def test_ypoly_divmod_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        f = YPoly([F(rng.randint(-5, 5)) for _ in range(rng.randint(0, 6))])
        g = YPoly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))])
        if g.is_zero():
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
        if den.is_zero():
            den = YPoly.one()
        return KElem(num, den)

    for _ in range(30):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a - a == KElem.zero()
        if not a.is_zero():
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
    assert a.as_fraction() == F(5, 6)


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
        if den.is_zero():
            den = YPoly.one()
        elems.append(KElem(num, den))
    for a in elems:
        for b in elems:
            va, vb = base_valuation(a, FF), base_valuation(b, FF)
            assert base_valuation(a * b, FF) == va + vb
            assert base_valuation(a + b, FF) >= min(va, vb)


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
    if base.kind == "p_adic":
        return st.builds(
            lambda n, k, d: KElem.const(F(n) * F(3) ** k / d),
            st.integers(-5, 5), st.integers(-2, 2), st.integers(1, 4),
        )
    return st.builds(
        lambda num, den: KElem(num, den if not den.is_zero() else YPoly.one()),
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
    if not b.is_zero():
        assert (a / b) * b == a
        assert b * (one / b) == one
    # reduced form: monic denominator, coprime to the numerator
    assert a.den.leading == 1
    assert a.num.gcd(a.den) == YPoly.one() or a.is_zero()
