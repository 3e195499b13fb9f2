from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyval.basefield import YPoly
from keyval.errors import BadConstantTermError
from keyval.series import Series, series_div_unit, series_sqrt

F = Fraction


# Reference kernels: the schoolbook product and the quadratic division
# recurrence, straight on Fractions.


def reference_mul(a: Series, b: Series) -> Series:
    p = min(a.precision + b.known_order(), b.precision + a.known_order())
    out = [F(0)] * p
    for i, x in enumerate(a.coeffs):
        if x == 0 or i >= p:
            continue
        for j, z in enumerate(b.coeffs):
            if i + j >= p:
                break
            if z != 0:
                out[i + j] += x * z
    return Series(out, p)


def reference_div_unit(num: Series, den: Series) -> Series:
    p = min(num.precision, den.precision)
    inv0 = 1 / den.coeffs[0]
    out = []
    for n in range(p):
        acc = num.coeffs[n]
        for i in range(1, n + 1):
            if i < len(den.coeffs) and den.coeffs[i] != 0:
                acc -= den.coeffs[i] * out[n - i]
        out.append(acc * inv0)
    return Series(out, p)


coefficients = st.one_of(
    st.just(F(0)),
    st.integers(-(10**30), 10**30).map(F),
    st.fractions(max_denominator=10**12),
)


@st.composite
def series(draw, unit=False):
    """Series with leading zeros, mixed signs and denominators, any precision.

    A unit series has a nonzero constant term other than 1 and -1.
    """
    precision = draw(st.integers(1 if unit else 0, 40))
    if unit:
        coeffs = [draw(coefficients.filter(lambda c: c not in (0, 1, -1)))]
    elif draw(st.booleans()):
        return Series.zero(precision)
    else:
        coeffs = [F(0)] * draw(st.integers(0, 5))
    return Series(coeffs + draw(st.lists(coefficients, max_size=40)), precision)


@settings(max_examples=200, deadline=None)
@given(series(), series())
def test_mul_matches_reference(a, b):
    prod = a * b
    assert prod == reference_mul(a, b)
    assert all(type(c) is F for c in prod.coeffs)


@settings(max_examples=200, deadline=None)
@given(series(), series(unit=True))
def test_div_unit_matches_reference(num, den):
    assert series_div_unit(num, den) == reference_div_unit(num, den)


def test_mul_extremal_coefficients():
    # equal-sign coefficients of the largest size for their bit length make
    # the product coefficients as large as the packing width allows
    for bits in range(1, 20):
        top = 2**bits - 1
        for n in (1, 2, 3, 5, 8):
            for sign in (1, -1):
                a = Series([top] * n, n)
                b = Series([sign * top] * n, 2 * n)
                assert a * b == reference_mul(a, b)
                assert b * b == reference_mul(b, b)


def test_mul_and_div_match_reference_at_oracle_sizes():
    # -y*sqrt(1+y) has denominators up to 2**(2n), as in the oracle
    for n in (1, 2, 17, 129):
        phi = series_sqrt(Series((1, 1), n)) * Series((0, -1), n)
        den = Series((3,) + phi.coeffs[1:], n)
        assert phi * den == reference_mul(phi, den)
        assert series_div_unit(phi, den) == reference_div_unit(phi, den)


def test_construction_pads_and_truncates():
    s = Series((1, 2), 4)
    assert s.coeffs == (F(1), F(2), F(0), F(0))
    t = Series((1, 2, 3, 4), 2)
    assert t.coeffs == (F(1), F(2))


def test_add_keeps_min_precision():
    a = Series((1, 1, 1), 3)
    b = Series((1, 1), 2)
    assert (a + b).precision == 2


def test_mul_precision_gains_order():
    # the factor of known order 2 pushes the other factor's window up by 2
    a = Series((0, 0, 1), 7)
    b = Series((1, 1, 1, 1, 1), 5)
    prod = a * b
    assert prod.precision == 7
    assert prod.coeffs[2:] == (F(1), F(1), F(1), F(1), F(1))


def test_mul_scalar():
    assert (Series((1, 2), 2) * 3).coeffs == (F(3), F(6))


def test_shift_negative_requires_order():
    s = Series((0, 0, 5, 7), 4)
    out = s.shift(-2)
    assert out.coeffs == (F(5), F(7))
    assert out.precision == 2


def test_series_ord():
    assert Series((0, 0, 0, 1, 0, -1), 8).known_order() == 3
    # nothing nonzero is stored: the order is only known to be >= precision
    assert Series.zero(4).known_order() == 4
    assert Series((0, 0, 0, 5), 3).known_order() == 3


def test_series_ord_from_evaluation():
    s = Series((0, 0, F(-1, 2), F(1, 8)), 4)
    assert s.known_order() == 2


def test_div_unit():
    num = Series((1,), 6)
    den = Series((1, 1), 6)
    q = series_div_unit(num, den)
    # geometric series 1/(1+y)
    assert q.coeffs == (F(1), F(-1), F(1), F(-1), F(1), F(-1))
    assert (q * den).coeffs[:6] == (F(1),) + (F(0),) * 5


def test_div_nonunit_rejected():
    with pytest.raises(BadConstantTermError):
        series_div_unit(Series((1,), 3), Series((0, 1), 3))


def test_sqrt_one_plus_y():
    s = series_sqrt(Series((1, 1), 4))
    assert s.coeffs == (F(1), F(1, 2), F(-1, 8), F(1, 16))


def test_sqrt_one():
    assert series_sqrt(Series((1,), 5)).coeffs == (F(1),) + (F(0),) * 4


def test_sqrt_substituted_argument():
    s = series_sqrt(Series((1, 0, 1), 6))
    assert s.coeffs[:5] == (F(1), F(0), F(1, 2), F(0), F(-1, 8))
    sq = s * s
    assert sq.coeffs[:3] == (F(1), F(0), F(1))


def test_sqrt_squares_back():
    arg = Series((1, 3, -2, 5, 1), 5)
    s = series_sqrt(arg)
    assert (s * s).coeffs == arg.coeffs


def test_sqrt_requires_unit_one():
    with pytest.raises(BadConstantTermError):
        series_sqrt(Series((4, 1), 3))


def test_from_ypoly():
    s = Series.from_ypoly(YPoly((1, 0, 2)), 5)
    assert s.coeffs == (F(1), F(0), F(2), F(0), F(0))
