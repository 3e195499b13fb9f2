from fractions import Fraction

import pytest

from keyval import (
    BaseFieldConfig,
    CorpusConfig,
    GaussValuation,
    WeightedBasis,
    bracket_ratio,
    chain_bound,
    empirical_izumi,
    extension_bound,
    gauss_value,
    izumi_step_constant,
    key_power_weight,
    ord_comparison_bound,
)
from keyval.errors import (
    LevelOutOfRangeError,
    NonPositiveError,
    NormalizationViolationError,
    UnboundedRatioError,
)
from keyval.izumi import canonical_witnesses, random_corpus_poly, weight_map
from keyval.parsing import parse_poly
from keyval.polynomials import Poly
from keyval.values import INF

F = Fraction
FF = BaseFieldConfig.function_field()
P3 = BaseFieldConfig.p_adic(3)


def p(text):
    return parse_poly(text, FF)


def test_gauss_value_examples():
    assert gauss_value(p("x^3 + y*x"), GaussValuation(FF, F(1, 2))) == F(3, 2)
    assert gauss_value(p("x + y"), GaussValuation(FF, F(2))) == 1
    f = parse_poly("9*x^2 + 3*x + 27", P3)
    assert gauss_value(f, GaussValuation(P3, F(1))) == 2
    assert gauss_value(Poly.zero(), GaussValuation(FF, F(1))) is INF


def test_gauss_weight_must_be_positive():
    with pytest.raises(NonPositiveError):
        GaussValuation(FF, F(0))


def test_key_power_weight_examples(b1, b2):
    assert key_power_weight(b1, 2, 1, 1) == 1
    assert key_power_weight(b2, 3, 1, 1) == 2
    assert key_power_weight(b2, 3, 2, 2) == 5


def test_key_power_weight_bounds(b1):
    with pytest.raises(LevelOutOfRangeError):
        key_power_weight(b1, 2, 1, 2)
    with pytest.raises(NonPositiveError):
        key_power_weight(b1, 2, 0, 1)


@pytest.mark.parametrize("upper, lower", [(3, 1), (2, 0), (2, 2), (1, 1), (5, 4)])
def test_levels_checked_first(b1, upper, lower):
    # a bad level is reported before a bad power and before any key is read
    with pytest.raises(LevelOutOfRangeError, match="need 1 <= j < i\\+1 <= alpha"):
        key_power_weight(b1, upper, 0, lower)
    with pytest.raises(LevelOutOfRangeError, match="need 1 <= j < i\\+1 <= alpha"):
        izumi_step_constant(b1, upper, lower)


def test_step_constants(b1, b2):
    assert izumi_step_constant(b1, 2, 1) == F(3, 2)
    assert izumi_step_constant(b2, 3, 1) == F(11, 8)
    assert izumi_step_constant(b2, 3, 2) == F(11, 10)
    assert izumi_step_constant(b2, 2, 1) == F(5, 4)


def test_bracket_ratio():
    assert bracket_ratio(F(3, 2), F(1, 2)) == 3
    assert bracket_ratio(F(1, 2), F(3, 2)) == 1
    assert bracket_ratio(F(2), F(2)) == 1
    with pytest.raises(NonPositiveError):
        bracket_ratio(F(0), F(1))


def test_ord_comparison_bound():
    assert ord_comparison_bound(F(3, 2), F(1, 2), F(1)) == 3
    assert ord_comparison_bound(F(1, 2), F(3, 2), F(1)) == 1
    assert ord_comparison_bound(F(1), F(1), F(5, 2)) == F(5, 2)


def test_ord_comparison_bound_tight_at_x():
    hi = GaussValuation(FF, F(3, 2))
    lo = GaussValuation(FF, F(1, 2))
    c = ord_comparison_bound(hi.beta, lo.beta, F(1))
    f = p("x")
    assert gauss_value(f, hi) == c * gauss_value(f, lo)


def test_chain_bound():
    assert chain_bound(F(3, 2), F(2)) == 3
    assert chain_bound(F(1), F(7, 3)) == F(7, 3)
    assert chain_bound(F(11, 10), F(5, 4)) == F(11, 8)


def test_chain_reproduces_step_constant(b2):
    assert izumi_step_constant(b2, 3, 1) == chain_bound(
        izumi_step_constant(b2, 3, 2), izumi_step_constant(b2, 2, 1)
    )


def test_extension_bound_default(b1):
    assert extension_bound(b1, F(1), F(1)) == F(3, 2)


def test_extension_bound_normalized_rejects_fractional(b1):
    with pytest.raises(NormalizationViolationError):
        extension_bound(b1, F(1), F(1), normalized=True)


def test_extension_bound_normalized():
    basis = WeightedBasis(
        FF, [(p("x"), F(1)), (p("x - y"), F(2)), (p("x - y - y^2/2"), F(3))]
    )
    assert extension_bound(basis, F(1), F(1), normalized=True) == 3


def test_corpus_is_deterministic():
    corpus = CorpusConfig(seed=42, samples=10)
    a = [random_corpus_poly(FF, corpus, j) for j in range(10)]
    b = [random_corpus_poly(FF, corpus, j) for j in range(10)]
    assert a == b
    other = [
        random_corpus_poly(FF, CorpusConfig(seed=43, samples=10), j) for j in range(10)
    ]
    assert a != other


def test_corpus_padic_samples():
    corpus = CorpusConfig(seed=5, samples=12)
    for j in range(12):
        f = random_corpus_poly(P3, corpus, j)
        assert 1 <= f.degree <= corpus.max_degree
        for c in f.coeffs:
            assert c.is_zero() or c.is_constant()


def test_empirical_b1(b1):
    c = izumi_step_constant(b1, 2, 1)
    report = empirical_izumi(
        weight_map(b1, 2),
        weight_map(b1, 1),
        FF,
        CorpusConfig(seed=42, samples=200),
        theoretical=c,
        witnesses=canonical_witnesses(b1),
    )
    assert report.sup_found == F(3, 2)
    assert report.witness == b1.key(2)


def test_empirical_identity_map(b1):
    report = empirical_izumi(
        weight_map(b1, 1), weight_map(b1, 1), FF, CorpusConfig(seed=1, samples=50)
    )
    assert report.sup_found == 1


def test_empirical_b2_adjacent(b2):
    report = empirical_izumi(
        weight_map(b2, 3),
        weight_map(b2, 2),
        FF,
        CorpusConfig(seed=42, samples=200),
        theoretical=izumi_step_constant(b2, 3, 2),
        witnesses=canonical_witnesses(b2),
    )
    assert report.sup_found == F(11, 10)
    assert report.witness == b2.key(3)


def test_empirical_unbounded_detection(b1):
    # a numerator map that is positive where the denominator map vanishes
    report_input = [p("x + 1")]
    with pytest.raises(UnboundedRatioError):
        empirical_izumi(
            lambda f: F(1),
            lambda f: F(0),
            FF,
            CorpusConfig(seed=2, samples=1),
            witnesses=report_input,
        )


def test_canonical_witnesses(b2):
    ws = canonical_witnesses(b2)
    assert b2.key(3) in ws
    assert b2.key(1) ** 2 in ws
    assert len(ws) == 6
