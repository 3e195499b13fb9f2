import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyval import (
    AdicExpansion,
    BaseFieldConfig,
    WeightedBasis,
    adic_expand,
    expansion_eval,
    initial_form,
    truncated_keys_from_series,
    validate_basis,
    weight,
)
from keyval.errors import (
    InsufficientPrecisionError,
    KeyvalError,
    LevelOutOfRangeError,
    NonPositiveError,
    NonzeroConstantTermError,
    ParseError,
    ZeroInputError,
)
from keyval import keybasis
from keyval.basefield import KElem, YPoly, ring_sub
from keyval.keybasis import _digits, expansion_weight, recurrence_coefficients
from keyval.parsing import parse_kelem, parse_poly
from keyval.polynomials import Poly
from keyval.series import Series
from keyval.values import INF
from keyval.izumi import CorpusConfig, random_corpus_poly

from conftest import alarm

F = Fraction
FF = BaseFieldConfig.function_field()


def p(text):
    return parse_poly(text, FF)


def k(text):
    return parse_kelem(text, FF)


# b2's first two steps, then a faulty third key or weight: the fault is found
# after step 1's recurrence is built
B2_HEAD = [("x", "1/2"), ("x^2 - y", "5/4")]


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([], "a weighted basis needs at least one key"),
        ([("x^2 - y", "1")], "the first key polynomial must be x"),
        (B2_HEAD + [("2*(x^2 - y)^2 + 2*x*y^2", "11/4")], "key polynomials must be monic in x"),
        (B2_HEAD + [("1", "11/4")], "key polynomials must have degree >= 1"),
        (B2_HEAD + [("(x^2 - y)^2 + x*y^2", "0")], "key weights must be positive"),
    ],
    ids=["no-key", "x-first", "monic", "degree", "positive"],
)
def test_construction_refusals(pairs, message):
    with pytest.raises(KeyvalError) as info:
        WeightedBasis(FF, [(p(t), F(b)) for t, b in pairs])
    assert type(info.value) is KeyvalError
    assert str(info.value) == message


def test_string_betas_are_read_as_rationals():
    start = time.perf_counter()
    with pytest.raises(ParseError):
        WeightedBasis(FF, [(Poly.x(), "1e3000000")])
    assert time.perf_counter() - start < 1
    for beta, exact in [("3/2", F(3, 2)), ("1.5", F(3, 2)), (F(1, 2), F(1, 2))]:
        assert WeightedBasis(FF, [(Poly.x(), beta)]).beta(1) == exact


def test_validate_b1_b2(b1, b2):
    assert not validate_basis(b1)
    assert not validate_basis(b2)


def test_validate_homogeneity_violation():
    bad = WeightedBasis(FF, [(p("x"), F(1)), (p("x^2 - y"), F(3))])
    report = validate_basis(bad)
    assert report
    assert any(v.condition == "c" and v.step == 1 for v in report)


def test_validate_growth_violation():
    bad = WeightedBasis(FF, [(p("x"), F(1, 2)), (p("x^2 - y"), F(1))])
    report = validate_basis(bad)
    assert any(v.condition == "e" for v in report)


def test_expand_example(b1):
    E = adic_expand(p("x^3 + y*x"), 2, b1)
    assert E.terms == {(1, 1): k("1"), (1, 0): k("2*y")}


def test_expand_power_example(b1):
    E = adic_expand(p("x^4"), 2, b1)
    assert E.terms == {(0, 2): k("1"), (0, 1): k("2*y"), (0, 0): k("y^2")}


def test_expand_constant(b1, b2):
    assert adic_expand(p("y + 3"), 2, b1).terms == {(0, 0): k("y + 3")}
    assert adic_expand(p("5"), 3, b2).terms == {(0, 0, 0): k("5")}


def test_expand_level_bounds(b1):
    with pytest.raises(LevelOutOfRangeError):
        adic_expand(p("x"), 3, b1)
    with pytest.raises(LevelOutOfRangeError):
        adic_expand(p("x"), 0, b1)


def test_expand_respects_exponent_bounds(b1, b2, q3):
    corpus = CorpusConfig(seed=3, samples=40, max_degree=7, positive_only=False)
    for basis in (b1, b2, q3):
        for j in range(corpus.samples):
            f = random_corpus_poly(basis.base, corpus, j)
            E = adic_expand(f, basis.alpha, basis)
            for a in E.terms:
                for lvl, e in enumerate(a[:-1], start=1):
                    assert e < basis.m(lvl)


def test_expansion_eval_round_trip(b1, b2, q3):
    corpus = CorpusConfig(seed=4, samples=40, max_degree=7, positive_only=False)
    for basis in (b1, b2, q3):
        for i in range(1, basis.alpha + 1):
            for j in range(corpus.samples):
                f = random_corpus_poly(basis.base, corpus, j)
                assert expansion_eval(adic_expand(f, i, basis), basis) == f


def test_expansion_eval_examples(b1):
    E = AdicExpansion(2, {(1, 1): k("1"), (1, 0): k("2*y")})
    assert expansion_eval(E, b1) == p("x^3 + y*x")
    assert not expansion_eval(AdicExpansion(2, {}), b1)
    assert expansion_eval(AdicExpansion(1, {(0,): k("y")}), b1) == p("y")


def test_weight_examples(b1):
    f = p("x^3 + y*x")
    assert weight(f, 1, b1) == F(3, 2)
    assert weight(f, 2, b1) == F(3, 2)
    assert weight(p("y^2 + y^3"), 1, b1) == 2
    assert weight(p("y^2 + y^3"), 2, b1) == 2
    assert weight(Poly.zero(), 2, b1) is INF


def test_weight_chain_nondecreasing(b1, b2):
    corpus = CorpusConfig(seed=9, samples=60, max_degree=6, positive_only=False)
    for basis in (b1, b2):
        for j in range(corpus.samples):
            f = random_corpus_poly(FF, corpus, j)
            ws = [weight(f, i, basis) for i in range(1, basis.alpha + 1)]
            assert all(a <= b for a, b in zip(ws, ws[1:]))


def test_weight_chain_strict_at_next_key(b1, b2):
    for basis in (b1, b2):
        for i in range(1, basis.alpha):
            U = basis.key(i + 1)
            assert weight(U, i, basis) < weight(U, i + 1, basis)
            assert weight(U, i, basis) == basis.m(i) * basis.beta(i)
            assert weight(U, i + 1, basis) == basis.beta(i + 1)


def test_initial_form_examples(b1):
    E = initial_form(p("x^3 + y*x"), 2, b1)
    assert E.terms == {(1, 0): k("2*y")}
    E = initial_form(p("x^2 - y"), 1, b1)
    assert E.terms == {(2,): k("1"), (0,): k("-y")}
    # weights of x^4's 2-adic terms are 3, 5/2, 2; the constant term wins
    E = initial_form(p("x^4"), 2, b1)
    assert E.terms == {(0, 0): k("y^2")}
    E = initial_form(p("x^2"), 1, b1)
    assert E.terms == {(2,): k("1")}


def test_initial_form_zero_rejected(b1):
    with pytest.raises(ZeroInputError):
        initial_form(Poly.zero(), 1, b1)


def test_expansion_weight_formal(b1):
    assert expansion_weight(AdicExpansion(1, {(3,): k("1"), (1,): k("y")}), b1) == F(3, 2)
    assert expansion_weight(AdicExpansion(2, {}), b1) is INF
    assert expansion_weight(AdicExpansion(2, {(0, 1): k("1")}), b1) == F(3, 2)


def test_index_data_b1(b1):
    data = b1.steps
    assert [(e.n, e.m // e.n) for e in data[:1]] == [(2, 1)]
    assert data[0].m == data[0].n
    assert data[0].phi == F(1, 2)


def test_index_data_b2(b2):
    data = b2.steps
    assert [e.n for e in data[:2]] == [2, 2]
    assert [e.m // e.n for e in data[:2]] == [1, 1]
    assert all(e.m == e.n for e in data[:2])
    gens = [e.phi for e in data]
    assert gens[0] == F(1, 2) and gens[1] == F(1, 4)


def test_index_data_b3(b3):
    data = b3.steps
    assert data[0].n == 1
    assert data[0].m // data[0].n == 2
    assert data[0].m != data[0].n


def test_value_group_chain_is_built_with_the_basis(b2):
    assert [(s.phi, s.n) for s in b2.steps] == [(F(1, 2), 2), (F(1, 4), 2), (F(1, 4), 1)]
    coprime = WeightedBasis(FF, [(p("x"), F(2, 3)), (p("x^3 - y^2"), F(5, 2))])
    assert [(s.phi, s.n) for s in coprime.steps] == [(F(1, 3), 3), (F(1, 6), 2)]


def _value_groups_by_fraction_gcd(betas):
    """Phi_i and n_i as gcds of Fractions, N and the weights in units of 1/N."""
    phis, ns, phi = [], [], F(1)
    for b in betas:
        nxt = F(gcd(phi.numerator * b.denominator, b.numerator * phi.denominator),
                phi.denominator * b.denominator)
        ns.append((phi / nxt).numerator)
        phis.append(nxt)
        phi = nxt
    N = phi.denominator
    return phis, ns, N, tuple((b * N).numerator for b in betas)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.builds(F, st.integers(1, 60), st.integers(1, 60)), min_size=1, max_size=5))
def test_value_groups_match_the_fraction_gcd_chain(betas):
    # every key may be x: construction checks no weighted-basis condition
    basis = WeightedBasis(FF, [(Poly.x(), b) for b in betas])
    phis, ns, N, units = _value_groups_by_fraction_gcd(betas)
    assert [s.phi for s in basis.steps] == phis
    assert [s.n for s in basis.steps] == ns
    assert basis.N == N
    assert basis.beta_units == units


def test_index_power_violation():
    basis = WeightedBasis(FF, [(p("x"), F(1, 3)), (p("x^2 - y"), F(2))])
    assert [(v.step, v.condition, v.message) for v in validate_basis(basis)
            if v.condition == "index"] == [(1, "index", "m_1 = 2 is not divisible by n_1 = 3")]


def test_non_additivity_counterexample(b3):
    f, g = p("x - y"), p("x + y")
    assert weight(f * g, 2, b3) == 3
    assert weight(f, 2, b3) + weight(g, 2, b3) == 2


def test_additivity_when_index_matches(b1, b2, q3):
    corpus = CorpusConfig(seed=17, samples=30, max_degree=4, positive_only=False)
    for basis in (b1, b2, q3):
        polys = [random_corpus_poly(basis.base, corpus, j) for j in range(corpus.samples)]
        for f, g in zip(polys[::2], polys[1::2]):
            for i in range(1, basis.alpha + 1):
                assert weight(f * g, i, basis) == weight(f, i, basis) + weight(g, i, basis)


@pytest.mark.parametrize("name, ext", [("b1", "x^2 - y - y^2"), ("b2", "x^4 - y^3")])
def test_recurrence_coefficients_ignore_ext(request, name, ext):
    # the key recurrence holds in K[x]; modulo an ext of its degree the top key
    # would reduce to a polynomial of lower degree
    basis = request.getfixturevalue(name)
    steps = [(s.U, s.beta) for s in basis.steps]
    with_ext = WeightedBasis(basis.base, steps, parse_poly(ext, basis.base))
    for i in range(1, basis.alpha):
        assert recurrence_coefficients(with_ext, i) == recurrence_coefficients(basis, i)


def test_truncation_fewer_nonzero_coefficients_than_depth():
    phi = Series((0, 1, 1), 8)  # y + y^2
    basis = truncated_keys_from_series(phi, 3)
    assert [s.U for s in basis.steps] == [p("x"), p("x - y")]
    assert [s.beta for s in basis.steps] == [F(1), F(2)]
    assert basis.base == FF


def test_truncation_single_key():
    phi = Series((0, 0, 0, 1), 8)  # y^3
    basis = truncated_keys_from_series(phi, 2)
    assert [s.U for s in basis.steps] == [p("x")]
    assert [s.beta for s in basis.steps] == [F(3)]


def test_truncation_takes_minimal_by_keyword_only():
    with pytest.raises(TypeError):
        truncated_keys_from_series(Series((0, 1), 8), 3, FF)


def test_truncation_rejects_bad_input():
    with pytest.raises(NonzeroConstantTermError):
        truncated_keys_from_series(Series((1, 1), 8), 2)
    with pytest.raises(InsufficientPrecisionError):
        truncated_keys_from_series(Series((0, 1), 3), 4)
    with pytest.raises(InsufficientPrecisionError):
        truncated_keys_from_series(Series.zero(8), 3)


@pytest.mark.parametrize("depth", [0, -1])
def test_truncation_rejects_depth_below_one(depth):
    # checked first, so a nonzero series is not reported as vanishing
    for phi in (Series((0, 1), 5), Series((1, 1), 8), Series.zero(8)):
        with pytest.raises(NonPositiveError, match="^depth must be at least 1, got %d$" % depth):
            truncated_keys_from_series(phi, depth)


@st.composite
def roots_and_depths(draw):
    """A series with zero constant term and many zero coefficients, and a depth
    below its precision."""
    depth = draw(st.integers(1, 12))
    precision = draw(st.integers(depth + 1, 40))
    nums = draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=precision - 1,
                         max_size=precision - 1))
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 7]), min_size=precision - 1,
                         max_size=precision - 1))
    coeffs = [0] + [F(n, d) for n, d in zip(nums, dens)]
    coeffs[draw(st.integers(1, precision - 1))] = F(draw(st.integers(1, 9)), 1)
    return Series(coeffs, precision), depth


@settings(max_examples=100, deadline=None, derandomize=True)
@given(roots_and_depths())
def test_truncation_keys_are_truncations_of_the_root(case):
    phi, depth = case
    steps = truncated_keys_from_series(phi, depth).steps

    def tail_order(U):
        # U = x - t for a polynomial t in y; the order of phi - t
        assert U.degree == 1 and U.coeff(1) == KElem.one()
        c = U.coeff(0)
        assert c.den == YPoly.one()
        return (phi + Series(c.num.coeffs, phi.precision)).known_order()

    weights = [s.beta for s in steps]
    assert weights == [tail_order(s.U) for s in steps]
    assert weights == sorted(set(weights))
    for a, b in zip(steps, steps[1:]):
        assert sum(map(bool, (b.U - a.U).coeff(0).num.coeffs)) == 1
    assert len(steps) == min(depth, sum(map(bool, phi.coeffs)))


def test_algebraic_reduction_in_expand():
    basis = WeightedBasis(FF, [(p("x"), F(1))], p("x^2 - y^2 - y^3"))
    E = adic_expand(p("x^3"), 1, basis)
    assert E.terms == {(1,): k("y^2 + y^3")}


def test_expansion_eval_level_above_alpha(b1):
    with pytest.raises(LevelOutOfRangeError) as exc:
        expansion_eval(AdicExpansion(b1.alpha + 1, {}), b1)
    assert str(exc.value) == "expansion level exceeds basis length"


def test_construction_requires_monic_keys():
    with pytest.raises(KeyvalError) as exc:
        WeightedBasis(FF, [(p("x"), F(1)), (p("2*x^2"), F(2))])
    assert (exc.type, str(exc.value)) == (KeyvalError, "key polynomials must be monic in x")


@pytest.fixture(scope="module")
def b1_ext(b1):
    return WeightedBasis(FF, [(s.U, s.beta) for s in b1.steps], p("x^2 - y - y^2"))


@pytest.mark.parametrize("name", ["b1", "b2", "q3", "b1_ext"])
def test_weight_is_the_weight_of_the_expansion(request, name):
    basis = request.getfixturevalue(name)
    corpus = CorpusConfig(seed=11, samples=60, max_degree=8, positive_only=False)
    for j in range(corpus.samples):
        f = random_corpus_poly(basis.base, corpus, j)
        for i in range(1, basis.alpha + 1):
            assert weight(f, i, basis) == expansion_weight(adic_expand(f, i, basis), basis), (j, i)


def test_digits_rebuild_f(b2):
    corpus = CorpusConfig(seed=12, samples=40, max_degree=9, positive_only=False)
    for n in range(corpus.samples):
        f = random_corpus_poly(FF, corpus, n)
        for i in range(2, b2.alpha + 1):
            U = b2.key(i)
            digits = list(_digits(f.coeffs, U.coeffs, ring_sub))
            exponents = [e for e, _ in digits]
            assert exponents == sorted(set(exponents))
            # each digit is a nonzero list without trailing zeros, below deg U
            assert all(r and r[-1] and len(r) - 1 < U.degree for _, r in digits)
            total = Poly.zero()
            for e, r in digits:
                total = total + Poly(r) * U**e
            assert total == f
    U2 = b2.key(2).coeffs
    assert list(_digits(Poly.zero().coeffs, U2, ring_sub)) == []
    assert list(_digits(p("x + y").coeffs, U2, ring_sub)) == [(0, p("x + y").coeffs)]


def test_weight_of_one_polynomial_at_two_effective_levels(b2):
    # deg 4 = deg U_3: level 3 stays at 3, level 2 at 2, and the weights differ
    for f in (b2.key(3), p("(x^2 - y)^2 + x*y^2 + y^3")):
        assert (weight(f, 3, b2), weight(f, 2, b2)) == (F(11, 4), F(5, 2))
        assert (weight(f, 3, b2), weight(f, 3, b2), weight(f, 2, b2)) == (
            F(11, 4), F(11, 4), F(5, 2))
    # below deg U_3 both maps are taken at level 2, and below deg U_2 at level 1
    f = p("x^3 + y*x")
    assert [weight(f, i, b2) for i in (3, 2, 1, 3)] == [F(3, 2), F(3, 2), F(3, 2), F(3, 2)]
    f = p("x + y")
    assert [weight(f, i, b2) for i in (3, 1)] == [F(1, 2), F(1, 2)]


def test_weight_of_equal_polynomials_in_distinct_objects(b1):
    f, g, h = p("x^2 - y"), p("x^2 - y"), p("x^2 - y + y^2")
    assert f == g and f is not g
    assert [weight(q, i, b1) for q, i in [(f, 2), (g, 2), (h, 2), (g, 1), (f, 2), (h, 1)]] == [
        F(3, 2), F(3, 2), F(3, 2), F(1), F(3, 2), F(1)]
    assert weight(p("x^2"), 2, b1) == 1


def test_weight_calls_alternating_between_bases(b1, b2):
    f = p("x^2 - y + y^2*x")
    # level 2 of b1 and of b2 share U_2 = x^2 - y but not its weight
    assert [weight(f, 2, b) for b in (b1, b2, b1, b2)] == [F(3, 2), F(5, 4), F(3, 2), F(5, 4)]


def test_weight_divides_coefficient_lists(monkeypatch, b1):
    calls = []
    divide = keybasis.monic_divide

    def counting(f, U, sub):
        if sub is keybasis._sub_product:  # a division of Q[y] lists
            calls.append(U)
        return divide(f, U, sub)

    monkeypatch.setattr(keybasis, "monic_divide", counting)
    monkeypatch.setattr(keybasis, "poly_divmod", None)  # no division over K[x]
    # U_2 = x^2 - y is stored once as its Q[y] lists, lowest first
    assert b1.key_lists[1] == [(0, -1), (), (1,)]
    # x^4 + y*x + y^2 by U_2: two divisions, and none once the quotient is
    # below deg U_2
    assert weight(p("x^4 + y*x + y^2"), 2, b1) == F(3, 2)
    assert calls == [b1.key_lists[1]] * 2
    calls.clear()
    assert weight(p("x + y"), 2, b1) == F(1, 2)
    assert calls == []


def test_weight_clears_a_y_denominator(monkeypatch, b2):
    f = p("(x + y)^40/(1 + y)")
    expected = [expansion_weight(adic_expand(f, i, b2), b2) for i in (1, 2, 3)]
    monkeypatch.setattr(keybasis, "ring_sub", None)  # no division over K
    assert [weight(f, i, b2) for i in (1, 2, 3)] == expected


@pytest.mark.parametrize("text", ["1/y", "1/(1 + y)", "y/(1 + y)"])
def test_padic_weight_refuses_a_y_denominator(text):
    # the weight clears y-denominators by their lcm d(y), whose value is read
    # by the base's own rule, so over Q_3 a coefficient 1/y gives no value
    x = Poly.x()
    f = x * Poly.const(parse_kelem(text, FF))
    basis = WeightedBasis(BaseFieldConfig.p_adic(3), [(x, 1)])
    with alarm(1, "the weight of %s * x over Q_3" % text):
        with pytest.raises(KeyvalError, match="^element is not a constant$"):
            weight(f, 1, basis)
    with pytest.raises(KeyvalError, match="^element is not a constant$"):
        expansion_weight(adic_expand(f, 1, basis), basis)
