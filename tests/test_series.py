import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyval import series as series_module
from keyval.errors import BadConstantTermError
from keyval.oracle import conic_parametrization
from keyval.series import Series, series_div_unit, series_horner

from series_refs import conic_branch_series, reference_horner, reference_mul, series_sqrt

F = Fraction


# The reference division: the quadratic recurrence, straight on Fractions.


def reference_div_unit(num: Series, den: Series) -> Series:
    p = min(num.precision, den.precision)
    num_coeffs, den_coeffs = num.coeffs, den.coeffs
    inv0 = 1 / den_coeffs[0]
    out = []
    for n in range(p):
        acc = num_coeffs[n]
        for i in range(1, n + 1):
            if i < len(den_coeffs) and den_coeffs[i] != 0:
                acc -= den_coeffs[i] * out[n - i]
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


def assert_canonical(s: Series):
    """The stored form is unique: positive den, no common content, precision numerators."""
    assert s.den > 0
    assert math.gcd(s.den, *s.nums) == 1
    assert len(s.nums) == s.precision
    coeffs = s.coeffs
    assert type(coeffs) is tuple and len(coeffs) == s.precision
    assert all(type(c) is F for c in coeffs)
    assert s == Series(coeffs, s.precision)


@settings(max_examples=200, deadline=None)
@given(series(), series())
def test_mul_matches_reference(a, b):
    prod = a * b
    assert prod == reference_mul(a, b)
    assert_canonical(prod)
    p = min(a.precision + b.known_order(), b.precision + a.known_order())
    assert prod.precision == p == len(prod.nums)


@settings(max_examples=200, deadline=None)
@given(series(), series(unit=True))
def test_div_unit_matches_reference(num, den):
    quo = series_div_unit(num, den)
    assert quo == reference_div_unit(num, den)
    assert_canonical(quo)
    assert quo.precision == min(num.precision, den.precision) == len(quo.nums)


integer_rows = st.lists(
    st.lists(st.one_of(st.just(0), st.integers(-(10**30), 10**30)), max_size=45), max_size=5
)


@settings(max_examples=200, deadline=None)
@given(integer_rows, st.one_of(series(), st.integers(0, 40).map(Series.zero)))
def test_horner_matches_reference(rows, phi):
    value = series_horner(rows, phi)
    assert value == reference_horner(rows, phi)
    assert_canonical(value)


def test_horner_extremal_coefficients():
    for bits in range(1, 20):
        top = 2**bits - 1
        for n in (1, 2, 3, 5, 8):
            for sign in (1, -1):
                phi = Series([sign * top] * n, n)
                for degree in (1, 2, 4):
                    rows = [[top] * n] * (degree + 1)
                    assert series_horner(rows, phi) == reference_horner(rows, phi)


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


@st.composite
def packable(draw):
    """(digits, width): digits strictly inside +-half for a width of 1 to 40 bytes."""
    width = draw(st.integers(1, 40))
    half = 1 << (8 * width - 1)
    edge = st.sampled_from([1 - half, -1, 0, 1, half - 1])
    digit = st.one_of(edge, st.integers(1 - half, half - 1))
    return draw(st.lists(digit, max_size=60)), width


@settings(max_examples=300, deadline=None, derandomize=True)
@given(packable())
def test_unpack_reads_what_pack_writes(case):
    xs, width = case
    packed = series_module._pack(xs, width)
    assert packed == sum(x << (8 * width * i) for i, x in enumerate(xs))
    assert series_module._unpack(packed, width, len(xs)) == xs


@pytest.mark.parametrize("width", [1, 2, 5, 40])
def test_pack_refuses_a_digit_out_of_range(width):
    half = 1 << (8 * width - 1)
    assert series_module._pack([0, -half, 0], width) == -half << (8 * width)
    for digit in (half, -half - 1):
        with pytest.raises(OverflowError):
            series_module._pack([0, digit, 0], width)


def test_reflected_product_is_a_type_error():
    with pytest.raises(TypeError):
        F(1, 2) * Series((1, 2), 2)
    with pytest.raises(TypeError):
        2 * Series((1, 2), 2)


@pytest.mark.parametrize(
    "a, b",
    [
        (Series((3,), 5), Series((1, F(1, 2), -2, 0, 7), 5)),
        (Series((0, 1, F(-1, 3)), 6), Series((F(5, 2),), 4)),
        (Series.zero(5), Series((1, 2, 3), 5)),
        (Series((-2,), 40), Series((1, 1), 3)),  # longer than the other factor
    ],
)
def test_product_by_constant_packs_nothing(monkeypatch, a, b):
    monkeypatch.setattr(series_module, "_pack", lambda xs, bits: pytest.fail("packed %r" % xs))
    assert a * b == reference_mul(a, b)
    assert b * a == reference_mul(b, a)


@pytest.mark.parametrize("k", [0, 1, 3, 6, 11, 12])
@pytest.mark.parametrize("precision", [1, 5, 12])
def test_div_unit_inverts_above_the_numerator_order(monkeypatch, k, precision):
    # num = y**k * a, so num / den needs 1 / den only to precision - k
    num = Series([0] * k + [F(1, 3), -2, 5, F(7, 4)] * 3, 12)
    den = Series((3, 1, F(-1, 2), 4), precision)
    inverse, lengths = series_module._inverse_ints, []

    def recording(b, n):
        lengths.append(n)
        return inverse(b, n)

    monkeypatch.setattr(series_module, "_inverse_ints", recording)
    assert series_div_unit(num, den) == reference_div_unit(num, den)
    assert lengths == [precision - min(k, precision)]


@pytest.mark.parametrize("precision", [0, 1, 5])
@pytest.mark.parametrize(
    "num",
    [
        Series((F(1, 3), -2, 5, F(7, 4), 1), 5),
        Series((0, 0, 3, -1), 5),
        Series((0,) * 5 + (2,), 6),  # known order at least the precision
        Series.zero(5),
    ],
)
def test_div_unit_by_negative_constant_term(num, precision):
    # the quotient's denominator stays positive whatever the sign of den's constant term
    num, den = num.cut(precision), Series((-2, 1, F(-1, 3), 4, -1), precision + 1)
    quo = series_div_unit(num, den)
    assert quo.den > 0
    assert quo == reference_div_unit(num, den)


def test_mul_and_div_match_reference_at_oracle_sizes():
    # -y*sqrt(1+y) has denominators up to 2**(2n), as in the oracle
    for n in (1, 2, 3, 17, 129, 256, 257):
        phi = conic_branch_series(n)
        den = Series((3,) + phi.coeffs[1:], n)
        assert phi * den == reference_mul(phi, den)
        assert series_div_unit(phi, den) == reference_div_unit(phi, den)


def test_construction_pads_and_truncates():
    s = Series((1, 2), 4)
    assert s.coeffs == (F(1), F(2), F(0), F(0))
    t = Series((1, 2, 3, 4), 2)
    assert t.coeffs == (F(1), F(2))


@settings(max_examples=200, deadline=None)
@given(series(), st.integers(0, 50))
def test_cut_and_negation_match_coefficients(s, n):
    cut = s.cut(n)
    assert cut.coeffs == (s.coeffs + (F(0),) * n)[:n]
    assert_canonical(cut)
    neg = -s
    assert neg.coeffs == tuple(-c for c in s.coeffs)
    assert_canonical(neg)
    assert s + neg == Series.zero(s.precision)


def test_cut_truncates_and_pads_in_lowest_terms():
    s = Series((1, F(1, 2)), 2)  # (2 + y) / 2
    assert (s.nums, s.den) == ([2, 1], 2)
    low = s.cut(1)
    assert (low.nums, low.den) == ([1], 1)
    high = s.cut(4)
    assert (high.nums, high.den) == ([2, 1, 0, 0], 2)
    assert high.precision == 4
    assert s.cut(0) == Series.zero(0)


@pytest.mark.parametrize("precision", [-1, -3])
def test_negative_precision_rejected(precision):
    # a slice [:precision] would silently drop coefficients from the end
    message = "^precision must be at least 0, got %d$" % precision
    with pytest.raises(ValueError, match=message):
        Series((1, 2, 3, 4), precision)
    with pytest.raises(ValueError, match=message):
        Series((1, 2, 3, 4), 4).cut(precision)
    with pytest.raises(ValueError, match=message):
        conic_parametrization().series_at(precision)
    assert Series((1, 2, 3, 4), 0) == Series((1, 2, 3, 4), 4).cut(0) == Series.zero(0)


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


def test_shift_negative_requires_order():
    s = Series((0, 0, 5, 7), 4)
    out = s.shift(-2)
    assert out.coeffs == (F(5), F(7))
    assert out.precision == 2


@pytest.mark.parametrize(
    "coeffs, k, message",
    [
        # past the known order: would drop the nonzero y coefficient
        ((0, 5), -2, "known order 1, got k=-2"),
        # a positive k: would drop the constant term instead of shifting up
        ((0, 5, 7), 1, "known order 1, got k=1"),
    ],
)
def test_shift_outside_known_order_rejected(coeffs, k, message):
    with pytest.raises(ValueError, match="^shift needs 0 <= -k <= the %s$" % message):
        Series(coeffs, len(coeffs)).shift(k)


def test_repr_shows_coefficients_and_precision():
    assert repr(Series((0, F(1, 2)), 3)) == (
        "Series([Fraction(0, 1), Fraction(1, 2), Fraction(0, 1)], precision=3)"
    )


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


def test_div_by_precision_zero_rejected():
    # a denominator known to precision 0 has no known unit constant term
    with pytest.raises(BadConstantTermError, match="^denominator is not a unit$"):
        series_div_unit(Series((1,), 2), Series((1,), 0))


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
