from fractions import Fraction

import pytest

from keyval.basefield import BaseFieldConfig, KElem, YPoly
from keyval.errors import ParseError
from keyval.izumi import CorpusConfig, random_corpus_poly
from keyval.parsing import (
    MAX_NESTING,
    kelem_text,
    parse_kelem,
    parse_poly,
    poly_text,
    series_text,
    ypoly_text,
)
from keyval.polynomials import Poly
from keyval.series import Series

F = Fraction
FF = BaseFieldConfig.function_field()
P3 = BaseFieldConfig.p_adic(3)


def test_parse_basic():
    assert parse_poly("x", FF) == Poly.x()
    assert parse_poly("x^2 - y", FF).coeff(0) == -KElem.gen()
    assert parse_poly("0", FF).is_zero()
    assert parse_poly("-x + 1", FF) == parse_poly("1 - x", FF)


def test_parse_rational_coefficients():
    f = parse_poly("1/2 + 3*x/4", FF)
    assert f.coeff(0).as_fraction() == F(1, 2)
    assert f.coeff(1).as_fraction() == F(3, 4)


def test_parse_field_fractions():
    a = parse_kelem("(y^2 + 1)/(2*y)", FF)
    assert a == KElem(YPoly((1, 0, 1)), YPoly((0, 2)))


def test_parse_precedence_and_parens():
    assert parse_poly("(x + 1)^2", FF) == parse_poly("x^2 + 2*x + 1", FF)
    assert parse_poly("2*x^3", FF) == parse_poly("2*(x^3)", FF)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_poly("x +", FF)
    assert exc.value.position is not None
    with pytest.raises(ParseError):
        parse_poly("x ? y", FF)
    with pytest.raises(ParseError):
        parse_poly("x / (x + 1)", FF)
    with pytest.raises(ParseError):
        parse_poly("1/0", FF)
    with pytest.raises(ParseError):
        parse_poly("x^(2)", FF)
    with pytest.raises(ParseError):
        parse_poly("z + 1", FF)


def test_parse_nesting_cap():
    assert parse_poly("(" * 100 + "x" + ")" * 100, FF) == Poly.x()
    with pytest.raises(ParseError, match="nested deeper than %d" % MAX_NESTING):
        parse_poly("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), FF)


def test_parse_kelem_rejects_x():
    with pytest.raises(ParseError):
        parse_kelem("x + y", FF)


def test_padic_parse_rejects_y():
    with pytest.raises(ParseError):
        parse_poly("y*x", P3)
    assert parse_poly("9*x + 1/3", P3).coeff(0).as_fraction() == F(1, 3)


def test_print_examples():
    assert poly_text(parse_poly("x^2 - y", FF)) == "x^2 - y"
    assert poly_text(Poly.zero()) == "0"
    assert ypoly_text(YPoly((-1, 0, F(1, 2)))) == "1/2*y^2 - 1"
    assert kelem_text(KElem(YPoly((1,)), YPoly((0, 1)))) == "(1)/(y)"



# One case per printer branch: the rational term at x^0, x and x^k with
# magnitude 1 and otherwise; the single monomial r*y^d with and without an
# x-power; and the parenthesised general coefficient.
@pytest.mark.parametrize(
    "coeffs, var, text",
    [
        ((), "y", "0"),
        ((1,), "y", "1"),
        ((-1,), "y", "-1"),
        ((F(-3, 2),), "y", "-3/2"),
        ((0, 1), "y", "y"),
        ((0, -1), "y", "-y"),
        ((0, F(2, 3)), "y", "2/3*y"),
        ((0, -5), "y", "-5*y"),
        ((0, 0, 1), "y", "y^2"),
        ((0, 0, -1), "y", "-y^2"),
        ((0, 0, 7), "y", "7*y^2"),
        ((F(1, 3), -1, 0, -2), "y", "-2*y^3 - y + 1/3"),
        ((1, 0, -1), "t", "-t^2 + 1"),
    ],
)
def test_ypoly_text_branches(coeffs, var, text):
    assert ypoly_text(YPoly(coeffs), var) == text


@pytest.mark.parametrize(
    "source, base, text",
    [
        ("0", FF, "0"),
        ("1", FF, "1"),
        ("-1", FF, "-1"),
        ("3/2", FF, "3/2"),
        ("-3/2", FF, "-3/2"),
        ("x", FF, "x"),
        ("-x", FF, "-x"),
        ("2/3*x", FF, "2/3*x"),
        ("-2/3*x", FF, "-2/3*x"),
        ("x^3", FF, "x^3"),
        ("-x^3", FF, "-x^3"),
        ("-5*x^3", FF, "-5*x^3"),
        ("y", FF, "y"),
        ("-y", FF, "-y"),
        ("3*y^2", FF, "3*y^2"),
        ("-y*x", FF, "-y*x"),
        ("2*y*x", FF, "2*y*x"),
        ("y*x^2", FF, "y*x^2"),
        ("-1/2*y^2*x", FF, "-1/2*y^2*x"),
        ("y^3*x^4", FF, "y^3*x^4"),
        ("y^2-1", FF, "(y^2 - 1)"),
        ("-(y+1)*x", FF, "(-y - 1)*x"),
        ("1/y", FF, "((1)/(y))"),
        ("((y+1)/(y^2))*x^2", FF, "((y + 1)/(y^2))*x^2"),
        ("x^2 - y + 1/2", FF, "x^2 + (-y + 1/2)"),
        ("(y+1)/(2*y) + x", FF, "x + ((1/2*y + 1/2)/(y))"),
        ("27*x^3 - x + 1/3", P3, "27*x^3 - x + 1/3"),
        ("-x^2 - 1/9", P3, "-x^2 - 1/9"),
    ],
)
def test_poly_text_branches(source, base, text):
    assert poly_text(parse_poly(source, base)) == text

def test_series_text():
    assert series_text(Series((0, -1, F(-1, 2)), 3)) == "-1/2*y^2 - y + O(y^3)"


def test_round_trip_random_polys():
    corpus = CorpusConfig(seed=31, samples=150, max_degree=6, positive_only=False)
    for j in range(corpus.samples):
        f = random_corpus_poly(FF, corpus, j)
        assert parse_poly(poly_text(f), FF) == f


def test_round_trip_fixture_keys(b2):
    for step in b2.steps:
        assert parse_poly(poly_text(step.U), FF) == step.U
