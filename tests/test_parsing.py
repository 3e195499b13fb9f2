import hashlib
import io
import json
import math
import random
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyval import cli
from keyval.basefield import _Y_ONE, BaseFieldConfig, KElem, YPoly
from keyval.errors import ParseError
from keyval.izumi import CorpusConfig, random_corpus_poly
from keyval.parsing import (
    MAX_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_NESTING,
    _mul,
    _Parser,
    kelem_text,
    parse_kelem,
    parse_poly,
    parse_rational,
    poly_text,
    series_text,
    ypoly_text,
)
from keyval.polynomials import Poly
from keyval.series import Series

import cli_cases
from conftest import alarm
from seed_texts import VALID_TEXTS
from series_refs import conic_branch_series

F = Fraction
FF = BaseFieldConfig.function_field()
P3 = BaseFieldConfig.p_adic(3)


def test_parse_basic():
    assert parse_poly("x", FF) == Poly.x()
    assert parse_poly("x^2 - y", FF).coeff(0) == -KElem.gen()
    assert not parse_poly("0", FF)
    assert parse_poly("-x + 1", FF) == parse_poly("1 - x", FF)


def test_parse_rational_coefficients():
    f = parse_poly("1/2 + 3*x/4", FF)
    assert f.coeff(0) == KElem.const(F(1, 2))
    assert f.coeff(1) == KElem.const(F(3, 4))


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
    with pytest.raises(ParseError, match=r"^unexpected character '\?' \(at position 2\)$"):
        parse_poly("x ? y", FF)
    with pytest.raises(ParseError, match=r"^unexpected character '#' \(at position 3\)$"):
        parse_poly("x  # 1", FF)
    with pytest.raises(ParseError, match=r"^unexpected character '\$' \(at position 2\)$"):
        parse_poly("x\t$", FF)
    with pytest.raises(
        ParseError, match=r"^expected a number, variable, or parenthesis \(at position 3\)$"
    ):
        parse_poly("   ", FF)
    with pytest.raises(ParseError):
        parse_poly("x / (x + 1)", FF)
    with pytest.raises(ParseError):
        parse_poly("1/0", FF)
    with pytest.raises(ParseError):
        parse_poly("x^(2)", FF)
    with pytest.raises(ParseError):
        parse_poly("z + 1", FF)
    with pytest.raises(ParseError, match=r"^expected '\)' \(at position 6\)$"):
        parse_poly("x + (y", FF)
    with pytest.raises(ParseError, match=r"^trailing input \(at position 2\)$"):
        parse_poly("x y", FF)


def test_parse_nesting_cap():
    assert parse_poly("(" * 100 + "x" + ")" * 100, FF) == Poly.x()
    with pytest.raises(ParseError, match="nested deeper than %d" % MAX_NESTING):
        parse_poly("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), FF)


def test_parse_degree_cap():
    # at the cap a power is still taken, as one term
    assert parse_poly("x^1000000", FF).degree == MAX_DEGREE
    assert parse_poly("((x^100)^100)^100", FF).degree == MAX_DEGREE
    assert parse_poly("y^1000000", FF).coeff(0).num.degree == MAX_DEGREE
    # above it the power is refused before any coefficient list is built
    for text, degree, at in [
        ("x^1000001", 10**6 + 1, 2),
        ("x^1000000000", 10**9, 2),
        ("(x^1000)^1001", 1001000, 9),
        ("(2*x + y)^1000001", 10**6 + 1, 10),
        ("y^1000001", 10**6 + 1, 2),
        ("(1/y)^1000001", 10**6 + 1, 6),
        ("(x/(1+y^3))^400000", 1200000, 12),
        # one monomial in both x and y is capped by its larger degree
        ("(x^3*y^5)^200001", 1000005, 10),
        ("(2/3*x^5*y^4)^200001", 1000005, 14),
    ]:
        message = r"^power of degree %d exceeds the cap %d \(at position %d\)$" % (
            degree, MAX_DEGREE, at)
        with pytest.raises(ParseError, match=message):
            parse_poly(text, FF)
    with pytest.raises(ParseError, match="exceeds the cap"):
        parse_kelem("y^1000000000", FF)


def test_parse_bit_cap():
    # at the cap a power of a constant is still taken
    assert parse_kelem("1^10000000", FF) == KElem.one()
    assert parse_kelem("2^1000000", FF) == KElem.const(2**1000000)
    assert parse_poly("(x/2)^1000", P3).leading == KElem.const(F(1, 2**1000))
    assert parse_poly("(3/4*x*y^2)^1000", FF).leading.num.coeffs[2000] == F(3, 4)**1000
    # above it the power is refused before it is taken: exponent times the
    # largest bit length of a numerator or denominator in the base
    for text, bits, at in [
        ("3^100000000", 2 * 10**8, 2),
        ("2^10000000000", 2 * 10**10, 2),
        ("(2^1000000)^1000", 1000001000, 12),
        ("1^10000001", 10**7 + 1, 2),
        ("(3/7)^3333334", 10000002, 6),
        ("(x + 1/1024)^1000000", 11 * 10**6, 13),
        ("(y/2048)^1000000", 12 * 10**6, 9),
        # a rational monomial in both x and y, by its larger numerator or denominator
        ("(3/1048576*x*y^2)^500000", 21 * 500000, 18),
        ("(-1048577/3*x^2*y)^476191", 21 * 476191, 19),
    ]:
        message = r"^power with %d-bit coefficients exceeds the cap %d \(at position %d\)$" % (
            bits, MAX_BITS, at)
        with pytest.raises(ParseError, match=message):
            parse_poly(text, FF)
    with pytest.raises(ParseError, match="exceeds the cap %d" % MAX_BITS):
        parse_kelem("9^5000000", P3)


def test_power_budget_of_a_dense_result():
    # one-term powers and small dense ones are taken
    assert parse_poly("(x+1)^1000", FF).coeff(500) == KElem.const(math.comb(1000, 500))
    assert parse_kelem("(1+y)^20", FF).num.coeffs[10] == math.comb(20, 10)
    # above the cap a power of several terms is refused before it is taken:
    # (degree + 1) * exponent * (bit length + log2 terms)
    for text, total, at in [
        ("(x+1)^1000000", (10**6 + 1) * 10**6 * 2, 6),
        ("(1+y)^1000000", (10**6 + 1) * 10**6 * 2, 6),
        ("(x + y + 1)^3000", 3001 * 3000 * 2, 12),
        ("(1/(1+y))^100000", 100001 * 100000 * 2, 10),
        ("(3*x^2 + 7)^2000", 4001 * 2000 * 4, 12),
    ]:
        message = r"^power with an estimated %d-bit result exceeds the cap %d \(at position %d\)$"
        with pytest.raises(ParseError, match=message % (total, MAX_BITS, at)):
            parse_poly(text, FF)


def test_power_budget_counts_monomials_in_x_and_y():
    # a base with several monomials in both x and y is budgeted by
    # min(C(t + e - 1, e), (e * deg_x + 1) * (e * deg_y + 1)) monomials of
    # e * (bit length + log2 t) bits: here C(190, 2) * 188 * 3
    message = r"^power with an estimated 10126620-bit result exceeds the cap %d \(at position 8\)$"
    with pytest.raises(ParseError, match=message % MAX_BITS):
        parse_poly("(x+y+1)^188", FF)
    # the same count at a sparse base: C(4, 2) * 2 * 3 = 36 bits
    f = parse_poly("(x^1000 + y^1000 + 1)^2", FF)
    assert f.coeff(1000).num == YPoly([2] + [0] * 999 + [2])


def test_integral_rationals_are_stored_as_ints():
    (c,) = parse_poly("4/2*x", FF).coeff(1).num.coeffs
    assert (c, type(c)) == (2, int)
    num = parse_kelem("(2*y + 4)/2", FF).num.coeffs
    assert num == (2, 1) and [type(r) for r in num] == [int, int]
    assert parse_kelem("1/2", FF).num.coeffs == (F(1, 2),)
    # a sum of Fractions that is integral is stored as the int it equals
    (c,) = parse_kelem("1/2*y + 1/2*y", FF).num.coeffs[1:]
    assert (c, type(c)) == (1, int)
    # so is a product by one monomial that is integral
    for text, i, j in [("(1/2*y)*(2*x)", 1, 1), ("2/3*x*3/2", 1, 0), ("(3/2)*(2/3*x*y^2)", 1, 2),
                       ("(1/4*x + 1/2*y)*4*y", 1, 1)]:
        c = parse_poly(text, FF).coeff(i).num.coeffs[j]
        assert (c, type(c)) == (1, int), text


def test_integer_literal_over_the_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    assert parse_poly("9" * limit + "*x", FF).leading == KElem.const(10**limit - 1)
    with pytest.raises(
        ParseError,
        match=r"^integer literal of %d digits exceeds the limit of %d digits \(at position 4\)$"
        % (limit + 1, limit),
    ):
        parse_poly("x + " + "9" * (limit + 1), FF)


@pytest.mark.parametrize(
    "text, value",
    [("3", 3), ("-3/2", F(-3, 2)), ("0.1", F(1, 10)), (" 1.5 ", F(3, 2)), ("2.5E-3", F(1, 400)),
     ("1e300", 10**300), ("1e4000", 10**MAX_EXPONENT), ("-1e-0_4_000", F(-1, 10**MAX_EXPONENT)),
     ("1e0000000000004000", 10**4000)],
)
def test_parse_rational_reads_exactly_up_to_the_exponent_cap(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize(
    "text", ["1e4001", "1.5e-4001", ".5E+10000000", "1e4_001 ", "1e" + "9" * 5000])
def test_parse_rational_refuses_an_exponent_over_the_cap(text):
    start = time.perf_counter()
    message = "^a rational's exponent may be at most 4000 in absolute value$"
    with pytest.raises(ParseError, match=message):
        parse_rational(text)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text", ["abc", "x1e5000", "1/2e5000", "1_e5000", "1e5000 x", "1/0"])
def test_parse_rational_faults_below_the_cap_raise_as_fraction_does(text):
    # malformed text fails Fraction's pattern before any power of 10 is taken
    with pytest.raises((ValueError, ZeroDivisionError)) as exc:
        Fraction(text)
    with pytest.raises(type(exc.value), match="^%s$" % re.escape(str(exc.value))):
        parse_rational(text)


def test_integer_literals_parse_to_ints():
    for text, cfg in [("x^2 - y + 3", FF), ("(2*x + 7)^3 - 5*y^2*x", FF), ("x^2 - 3*x - 3", P3),
                      ("(9*x^2 - 3)^2 + 27", P3)]:
        for c in parse_poly(text, cfg).coeffs:
            assert all(type(r) is int for r in c.num.coeffs), (text, c)
            assert c.den is _Y_ONE, (text, c)


def _conic_key(k):
    """x - phi_<k for the branch phi = -y*sqrt(1+y), one monomial per term of phi."""
    return "%s + x" % ypoly_text(-YPoly(conic_branch_series(k).coeffs))


def _kelems_built(monkeypatch, build):
    """The result of build() and the number of KElems it constructed."""
    count = [0]
    init = KElem.__init__

    def counting(self, *args):
        count[0] += 1
        init(self, *args)

    with monkeypatch.context() as m:
        m.setattr(KElem, "__init__", counting)
        return build(), count[0]


def test_one_kelem_per_coefficient_in_x(monkeypatch):
    # the parser builds the Poly of KElems once, at the end; integral
    # coefficients are ints and constant denominators are the shared one
    key = _conic_key(127)
    keys = [parse_poly(_conic_key(k), FF) for k in (40, 50, 37)]
    product = "*".join("(%s)" % _conic_key(k) for k in (40, 50, 37))
    phi = Poly.const(KElem(YPoly(conic_branch_series(127).coeffs)))
    for text, expected in [(key, Poly.x() - phi), (product, keys[0] * keys[1] * keys[2])]:
        f, built = _kelems_built(monkeypatch, lambda: parse_poly(text, FF))
        assert f == expected
        assert built == len(f.coeffs)
        for c in f.coeffs:
            assert not [r for r in c.num.coeffs if type(r) is F and r.denominator == 1]
            assert c.den is _Y_ONE


ORACLE_TEXTS_DIGEST = "243a02dd72204da75dbe8ca01ebb0dc54112e196708e4913dc12140a3da82cf9"


def test_oracle_style_parses_are_pinned():
    # texts shaped like `keyval oracle --poly` requests on the conic, long
    # sums of one-term products: keys, products of two or three keys, and
    # keys over y^s
    rng = random.Random(7)
    texts = []
    for _ in range(120):
        order = rng.randint(3, 60)
        kind = rng.choice(["key", "product", "scaled"])
        if kind == "key":
            texts.append(_conic_key(order))
        elif kind == "product":
            cuts = sorted(rng.sample(range(1, order), rng.choice((1, 2))))
            orders = [b - a for a, b in zip([0] + cuts, cuts + [order])]
            texts.append("*".join("(%s)" % _conic_key(k) for k in orders))
        else:
            texts.append("(%s)/y^%d" % (_conic_key(order), rng.randint(1, 3)))
    text = "\n".join(poly_text(parse_poly(t, FF)) for t in texts)
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_TEXTS_DIGEST


def test_sum_over_distinct_denominators_takes_their_lcm():
    text = " + ".join("x^%d/(1+y)^%d" % (k % 3, k) for k in range(40))
    _, den = _Parser(text, FF).expr()
    assert den == YPoly((1, 1))**39
    f = parse_poly(text, FF)
    for i, c in enumerate(f.coeffs):
        expected = KElem.zero()
        for k in range(i, 40, 3):
            expected = expected + KElem(YPoly.one(), YPoly((1, 1))**k)
        assert c == expected
    assert [c.den.degree for c in f.coeffs] == [39, 37, 38]


def test_square_equals_the_general_product():
    # a map times itself takes each cross product once; a copy of it goes
    # through every pair
    a = {(0, 0): F(-1, 2), (0, 3): 7, (1, 1): F(5, 6), (2, 0): -3, (4, 2): F(1, 9)}
    square = _mul(a, a)
    assert square == _mul(a, dict(a))
    assert square[0, 0] == F(1, 4) and square[8, 4] == F(1, 81)
    assert all(type(q) is int for q in square.values() if F(q).denominator == 1)


def test_parse_kelem_rejects_x():
    with pytest.raises(ParseError):
        parse_kelem("x + y", FF)


def test_padic_parse_rejects_y():
    with pytest.raises(ParseError):
        parse_poly("y*x", P3)
    assert parse_poly("9*x + 1/3", P3).coeff(0) == KElem.const(F(1, 3))


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
    ],
)
def test_ypoly_text_branches(coeffs, var, text):
    assert ypoly_text(YPoly(coeffs)) == text
    # var is the one variable a printed coefficient may name
    assert set(filter(str.isalpha, text)) <= {var}


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


def test_power_with_a_y_denominator_parses_within_the_alarm():
    # each x-coefficient y^k/(1+y)^100 is reduced by a gcd with a monomial
    with alarm(1, "parsing ((x - y)/(1 + y))^100"):
        f = parse_poly("((x - y)/(1 + y))^100", FF)
    y, den = YPoly.gen(), YPoly((1, 1)) ** 100
    assert f.degree == 100
    assert f.coeffs[100] == KElem(YPoly.one(), den)
    assert f.coeffs[1] == KElem(y**99 * -100, den)
    assert f.coeffs[0] == KElem(y**100, den)


_CHARS = "xyz0123456789+-*/^(). "


@st.composite
def mutated_texts(draw):
    """A valid text with one to three characters inserted, deleted or swapped."""
    text = draw(st.sampled_from(VALID_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "swap"]))
        if kind == "insert":
            text = text[:at] + draw(st.sampled_from(_CHARS)) + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + 1:]
        elif at + 1 < len(text):
            text = text[:at] + text[at + 1] + text[at] + text[at + 2:]
    return text


@pytest.fixture(scope="module")
def b1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "b1.json"
    path.write_text(json.dumps(cli_cases.BASES["b1"]))
    return str(path)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(text=mutated_texts())
def test_mutated_texts_parse_or_fail_cleanly(b1_file, text):
    # a text either parses or raises ParseError, and the CLI exits 0, or 2
    # with nothing on stdout, within the alarm
    with alarm(10, repr(text)):
        try:
            assert isinstance(parse_poly(text, FF), Poly)
        except ParseError:
            pass
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(["expand", "--basis", b1_file, "--level", "2", "--poly=" + text])
    assert code in (0, 2), text
    if code == 2:
        assert out.getvalue() == "", text
