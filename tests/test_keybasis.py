from fractions import Fraction

import pytest

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
    NonzeroConstantTermError,
    ZeroInputError,
)
from keyval.keybasis import expansion_weight
from keyval.parsing import parse_kelem, parse_poly
from keyval.polynomials import Poly
from keyval.series import Series
from keyval.values import INF
from keyval.izumi import CorpusConfig, random_corpus_poly

F = Fraction
FF = BaseFieldConfig.function_field()


def p(text):
    return parse_poly(text, FF)


def k(text):
    return parse_kelem(text, FF)


def test_construction_requires_x_first():
    with pytest.raises(KeyvalError):
        WeightedBasis(FF, [(p("x^2 - y"), F(1))])


def test_construction_requires_monic_and_positive():
    with pytest.raises(KeyvalError):
        WeightedBasis(FF, [(p("2*x"), F(1))])
    with pytest.raises(KeyvalError):
        WeightedBasis(FF, [(p("x"), F(0))])
    with pytest.raises(KeyvalError):
        WeightedBasis(FF, [])


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
    assert expansion_eval(AdicExpansion(2, {}), b1).is_zero()
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


def test_index_power_violation():
    basis = WeightedBasis(FF, [(p("x"), F(1, 3)), (p("x^2 - y"), F(2))])
    assert [(v.step, v.condition, v.message) for v in validate_basis(basis)
            if v.condition == "index"] == [(1, "index", "m_1 = 2 is not divisible by n_1 = 3")]


def test_non_additivity_counterexample(b3):
    f, g = p("x - y"), p("x + y")
    assert weight(f * g, 2, b3) == 3
    assert weight(f, 2, b3) + weight(g, 2, b3) == 2


def test_additivity_when_index_matches(b1, b2):
    corpus = CorpusConfig(seed=17, samples=30, max_degree=4, positive_only=False)
    for basis in (b1, b2):
        polys = [random_corpus_poly(FF, corpus, j) for j in range(corpus.samples)]
        for f, g in zip(polys[::2], polys[1::2]):
            for i in range(1, basis.alpha + 1):
                assert weight(f * g, i, basis) == weight(f, i, basis) + weight(g, i, basis)


def test_truncation_exact_root():
    phi = Series((0, 1, 1), 8)  # y + y^2
    result = truncated_keys_from_series(phi, 3, FF)
    betas = [s.beta for s in result.basis.steps]
    keys = [s.U for s in result.basis.steps]
    assert keys == [p("x"), p("x - y")]
    assert betas == [F(1), F(2)]
    assert result.exact_root is not None
    assert result.exact_root == p("x - y - y^2")


def test_truncation_single_key():
    phi = Series((0, 0, 0, 1), 8)  # y^3
    result = truncated_keys_from_series(phi, 2, FF)
    assert [s.U for s in result.basis.steps] == [p("x")]
    assert [s.beta for s in result.basis.steps] == [F(3)]
    assert result.exact_root == p("x - y^3")


def test_truncation_rejects_bad_input():
    with pytest.raises(NonzeroConstantTermError):
        truncated_keys_from_series(Series((1, 1), 8), 2, FF)
    with pytest.raises(InsufficientPrecisionError):
        truncated_keys_from_series(Series((0, 1), 3), 4, FF)
    with pytest.raises(InsufficientPrecisionError):
        truncated_keys_from_series(Series.zero(8), 3, FF)


def test_algebraic_reduction_in_expand():
    basis = WeightedBasis(FF, [(p("x"), F(1))], p("x^2 - y^2 - y^3"))
    E = adic_expand(p("x^3"), 1, basis)
    assert E.terms == {(1,): k("y^2 + y^3")}
