import hashlib
from fractions import Fraction

import pytest

from keyval import (
    BaseFieldConfig,
    CorpusConfig,
    WeightedBasis,
    empirical_izumi,
    extension_bound,
    gauss_value,
    izumi_step_constant,
    key_power_weight,
    validate_basis,
    weight,
)
from keyval.basefield import _Y_ONE, KElem
from keyval.errors import (
    ConsistencyFailureError,
    EmptyEffectiveCorpusError,
    KeyvalError,
    LevelOutOfRangeError,
    NonPositiveError,
    ParseError,
    UnboundedRatioError,
)
from keyval.izumi import canonical_witnesses, random_corpus_poly, weight_map
from keyval.parsing import parse_poly, poly_text
from keyval.polynomials import Poly
from keyval.values import INF

from conftest import alarm

F = Fraction
FF = BaseFieldConfig.function_field()
P3 = BaseFieldConfig.p_adic(3)


def p(text):
    return parse_poly(text, FF)


def test_gauss_value_examples():
    assert gauss_value(p("x^3 + y*x"), FF, F(1, 2)) == F(3, 2)
    assert gauss_value(p("x + y"), FF, F(2)) == 1
    f = parse_poly("9*x^2 + 3*x + 27", P3)
    assert gauss_value(f, P3, F(1)) == 2
    assert gauss_value(Poly.zero(), FF, F(1)) is INF


def test_gauss_weight_must_be_positive():
    with pytest.raises(NonPositiveError):
        gauss_value(p("x"), FF, F(0))


def test_key_power_weight_examples(b1, b2):
    assert key_power_weight(b1, 2, 1, 1) == 1
    assert key_power_weight(b2, 3, 1, 1) == 2
    assert key_power_weight(b2, 3, 2, 2) == 5


def test_key_power_weight_detects_inconsistent_basis():
    # closed form m_1 * beta_1 = 2, but x^2 - y has level-1 weight ord(y) = 1
    basis = WeightedBasis(FF, [(p("x"), F(1)), (p("x^2 - y"), F(3, 2))])
    with pytest.raises(ConsistencyFailureError, match="closed form 2 != division-based weight 1"):
        key_power_weight(basis, 2, 1, 1)


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


@pytest.mark.parametrize("base", [FF, P3], ids=["Q(y)", "Q_3"])
@pytest.mark.parametrize(
    "beta, beta_prime, c_base, expected",
    [(F(3, 2), F(1, 2), F(1), 3), (F(1, 2), F(3, 2), F(1), 1), (F(2), F(2), F(1), 1),
     (F(1), F(1), F(5, 2), F(5, 2))],
    ids=["above", "below", "equal", "c-base"],
)
def test_extension_bound_on_one_key_basis(base, beta, beta_prime, c_base, expected):
    # the Gauss-pair bound c * max(1, beta/beta'): the ratio of the two Gauss
    # valuations is beta/beta' at x and 1 at the uniformizer t of the base
    x, t = parse_poly("x", base), parse_poly("3" if base.p else "y", base)
    bound = extension_bound(WeightedBasis(base, [(x, beta)]), beta_prime, c_base)
    assert bound == expected == c_base * max(1, beta / beta_prime)
    at_x, at_t = (gauss_value(f, base, beta) / gauss_value(f, base, beta_prime) for f in (x, t))
    assert (at_x, at_t) == (beta / beta_prime, 1)
    if beta >= beta_prime:
        assert bound == c_base * at_x


@pytest.mark.parametrize("name", ["b1", "b2", "b3", "q3", "q3b2", "ram"])
def test_chain_reproduces_step_constant(request, name):
    # K(i, j) telescopes, and K(i, j) beta_j deg U_i = beta_i deg U_j on the basis's steps
    basis = request.getfixturevalue(name)
    steps = basis.steps
    for i in range(2, basis.alpha + 1):
        for j in range(1, i):
            K = izumi_step_constant(basis, i, j)
            assert K * steps[j - 1].beta * steps[i - 1].U.degree == (
                steps[i - 1].beta * steps[j - 1].U.degree
            )
            for k in range(1, j):
                assert izumi_step_constant(basis, i, k) == K * izumi_step_constant(basis, j, k)


def test_extension_bound_default(b1):
    assert extension_bound(b1, F(1), F(1)) == F(3, 2)


def test_extension_bound_reads_text_as_the_cli_does(b1, b3):
    # an exponent over the cap is refused before 10 is raised to it
    with alarm(1, "extension_bound with the exponent 10^7"):
        with pytest.raises(ParseError):
            extension_bound(b1, "1e10000000", 1)
    assert extension_bound(b1, "3/2", "1") == extension_bound(b1, F(3, 2), F(1)) == F(3, 2)
    assert extension_bound(b3, "1/4", "3/2") == 4 * F(3, 2) * F(3, 2)


def test_gauss_value_reads_text():
    x = Poly.x()
    assert gauss_value(x, FF, "1/2") == gauss_value(x, FF, F(1, 2)) == F(1, 2)
    assert gauss_value(parse_poly("9*x + 1/3", P3), P3, "3/2") == -1
    with alarm(1, "gauss_value with the exponent 10^7"):
        with pytest.raises(ParseError):
            gauss_value(x, FF, "1e10000000")


def test_padic_values_refuse_a_y_at_once():
    # v_p of a coefficient with a y is refused as base_valuation refuses it;
    # the alarm is there because v_p's loop never ends on a 0 entry
    x, y = Poly.x(), Poly.const(KElem.gen())
    with alarm(1, "the Gauss value of x + y over Q_3"):
        with pytest.raises(KeyvalError, match="^element is not a constant$"):
            gauss_value(x + y, P3, 1)
    basis = WeightedBasis(P3, [(x, 1), (x**2 - y, 3)])
    with alarm(1, "the weight of x^3 on a Q_3 basis with the key x^2 - y"):
        with pytest.raises(KeyvalError, match="^element is not a constant$"):
            weight(x**3, 2, basis)


def integral_weight_bound(basis, c_base):
    """The paper's bound c * beta_alpha / deg U_alpha for integer weights and mu'(x) >= 1."""
    assert all(step.beta.denominator == 1 and step.beta >= 1 for step in basis.steps)
    top = basis.steps[-1]
    return c_base * top.beta / top.U.degree


def test_extension_bound_normalized():
    basis = WeightedBasis(
        FF, [(p("x"), F(1)), (p("x - y"), F(2)), (p("x - y - y^2/2"), F(3))]
    )
    assert extension_bound(basis, F(1), F(1)) == integral_weight_bound(basis, F(1)) == 3


def integer_weight_basis():
    return WeightedBasis(FF, [(p("x"), F(2)), (p("x^2 - y^4"), F(5))])


@pytest.mark.parametrize("mu_prime_x, default", [(F(1), F(5, 2)), (F(3), F(5, 4))])
def test_extension_bound_normalized_drops_a_factor_at_most_one(mu_prime_x, default):
    # beta_i positive integers and mu'(x) >= 1 make max(1/beta_1, 1/mu'(x)) <= 1,
    # so the integral-weight formula is valid but may be weaker than the bound
    basis = integer_weight_basis()
    assert validate_basis(basis) == []
    bound = extension_bound(basis, mu_prime_x, F(1))
    assert bound == default <= integral_weight_bound(basis, F(1)) == F(5, 2)


@pytest.mark.parametrize("mu_prime_x", [F(1), F(3, 2), F(3)])
def test_extension_bound_normalized_at_least_default(b3, mu_prime_x):
    for basis in (b3, integer_weight_basis()):
        assert integral_weight_bound(basis, F(1)) >= extension_bound(basis, mu_prime_x, F(1))


def test_corpus_is_deterministic():
    corpus = CorpusConfig(seed=42, samples=10)
    a = [random_corpus_poly(FF, corpus, j) for j in range(10)]
    b = [random_corpus_poly(FF, corpus, j) for j in range(10)]
    assert a == b
    other = [
        random_corpus_poly(FF, CorpusConfig(seed=43, samples=10), j) for j in range(10)
    ]
    assert a != other


def test_corpus_samples_are_pinned():
    # the seeded draws, in their order, define the corpus of every search
    corpus = CorpusConfig(seed=0, samples=5)
    assert [poly_text(random_corpus_poly(FF, corpus, j)) for j in range(5)] == [
        "-2*y*x^4 + 3*y*x^3 - y^2*x^2 - y", "-y^3*x^2 + y^2", "3*y*x", "-2*x^2 - x + 2*y^2",
        "y^3*x^2 + x - 3*y^2"]
    assert [poly_text(random_corpus_poly(P3, corpus, j)) for j in range(5)] == [
        "-27*x^4 - x^3 + 9*x^2 - 6*x - 27", "-27*x^2 + 2*x + 18", "-9*x", "27*x^2 - 9*x - 54",
        "-2*x^2 - 6"]


# sha256 of the poly_text of samples 0-499 at seed 12345, joined by newlines, keyed
# by (p, positive_only, max_degree); p None is Q(y)
CORPUS_DIGESTS = {
    (None, True, 1): "350f5d47b705767a6b28d98154034193d5615d9495cdf5a1ee136901d3c0898a",
    (None, True, 4): "a5c83798ede76c37ed0ab58c3a7e95d448d164d953c38c2d06d230db37fa748f",
    (None, True, 8): "0374b1cb9d23bf00ccb15f31828ad7960fbb6845c1aa586dd1e90150290e7256",
    (None, False, 1): "c6889116dee882c1ee68acf4c2af82710b450e287f8f048775f09d76ec925d82",
    (None, False, 4): "344617d06d550d63aca705fd561d5e93164841cd8dba0a40aca130afd817a844",
    (None, False, 8): "9634768dd940feddfc2a781ce5ce85fbb339393e3eca8ff2ec2e521f8d57c0d7",
    (2, True, 1): "1bc8a87d0e34c305162fb2a6b353bacbab7c8161a0a335085fc1261b9b649e3f",
    (2, True, 4): "e1dd84143e68e710368747313de1fbdc4234561ce851c5e299b5abe5f92378e3",
    (2, True, 8): "4d7dd71219dd3df6d73fa1cb5255dc10b13d1a4566e82d9301eaf98382e49381",
    (2, False, 1): "d98e9b8280ceee681de8ba26bb252b14e3c2ee7e7daa4d0eed5d4922f72f6449",
    (2, False, 4): "80f70b32e030f966fe2a2ef2f58d7212fa0ad91bb0c05d48e1b1afe26f2ec1c1",
    (2, False, 8): "d4e69dbc720f9bb07cf3d52572706960823ab1caba4e0df24eff36a12a75c3b2",
    (3, True, 1): "438254e959703aa0e4be0321b30ae139e332e9d78caf785eab314fde082655f8",
    (3, True, 4): "b36e9480da970d3db7f6ced63a3c14223edd9ec66539987a738434fe0014818a",
    (3, True, 8): "26996403e2d84522dfc9e8e00c84e51f3d4e53cba3d4a3b05f1eeaf08b82943b",
    (3, False, 1): "088b971fe3b521e96a7d7ed1d36ef910f3ec25510d11a13fc8a58e06db6b009e",
    (3, False, 4): "f83af3fc727166a9fb02466ba2fbc02574e88f3165e165e092b4d797504b8019",
    (3, False, 8): "11e875b34b1295ca40013dd24c9bb2845081f669a8b011c33e7375d8f1d1d4ad",
    (101, True, 1): "f08f49386ec9e8d314a35a3d1c0e263ce3023259336c4d75921ef9285607bcd7",
    (101, True, 4): "b67964174be990488464fc4586a7fccd0fb77442443c60b6300d8b9b79fc5220",
    (101, True, 8): "c34eeffe178947cd0ddaf06bdd672b66b8c25c32a6b6cec6b22c8fc5c0d25fb7",
    (101, False, 1): "062c2a1164f90cd14804e6665a10207e1fb020dc89c09a5c988849f7ac6ab940",
    (101, False, 4): "ea4b3d215b239a69ba5ca6223ee5575d30e1d259493f87a595a03e3498508bf0",
    (101, False, 8): "3af9be91bf344ca511e0110ac08f47f335b6485ecaa682da5ef75bfc69e0228e",
}


@pytest.mark.parametrize("p, positive_only, max_degree", list(CORPUS_DIGESTS))
def test_corpus_stream_is_pinned(p, positive_only, max_degree):
    base = BaseFieldConfig(p)
    corpus = CorpusConfig(seed=12345, samples=500, max_degree=max_degree,
                          positive_only=positive_only)
    text = "\n".join(poly_text(random_corpus_poly(base, corpus, j)) for j in range(500))
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_DIGESTS[p, positive_only, max_degree]


def test_corpus_padic_samples():
    corpus = CorpusConfig(seed=5, samples=12)
    for j in range(12):
        f = random_corpus_poly(P3, corpus, j)
        assert 1 <= f.degree <= corpus.max_degree
        for c in f.coeffs:
            assert len(c.num.coeffs) <= 1
            # an integer coefficient is an int, over the one denominator
            assert all(type(r) is int for r in c.num.coeffs) and c.den is _Y_ONE


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


def test_empirical_skips_zero_witness_and_zero_denominator():
    x = Poly.x()  # a witness on which both maps vanish

    def value(f):
        return F(0) if f is x else F(1)

    report = empirical_izumi(
        value, value, FF, CorpusConfig(seed=0, samples=3), witnesses=[Poly.zero(), x]
    )
    assert (report.sup_found, report.samples, report.skipped) == (1, 3, 2)


def test_empirical_infinite_numerator():
    with pytest.raises(UnboundedRatioError, match="infinite numerator"):
        empirical_izumi(lambda f: INF, lambda f: F(1), FF, CorpusConfig(seed=0, samples=1))


def test_empirical_all_skipped():
    with pytest.raises(EmptyEffectiveCorpusError):
        empirical_izumi(lambda f: F(0), lambda f: F(0), FF, CorpusConfig(seed=0, samples=2))


def test_empirical_sup_above_theoretical():
    with pytest.raises(ConsistencyFailureError, match="sup 2 exceeds theoretical constant 1"):
        empirical_izumi(
            lambda f: F(2), lambda f: F(1), FF, CorpusConfig(seed=0, samples=1), theoretical=F(1)
        )


def test_empirical_izumi_evaluates_each_sample_before_the_next(monkeypatch):
    import keyval.izumi

    log = []

    def logged_sample(base, corpus, j):
        log.append("generate %d" % j)
        return Poly.x()

    def logged_value(f):
        log.append("evaluate")
        return F(1)

    monkeypatch.setattr(keyval.izumi, "random_corpus_poly", logged_sample)
    empirical_izumi(logged_value, lambda f: F(1), FF, CorpusConfig(seed=0, samples=3))
    assert log == ["generate 0", "evaluate", "generate 1", "evaluate", "generate 2", "evaluate"]


def test_canonical_witnesses(b2):
    ws = canonical_witnesses(b2)
    assert b2.key(3) in ws
    assert b2.key(1) ** 2 in ws
    assert len(ws) == 6


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda b: extension_bound(b, F(0), F(1)),
         NonPositiveError, "bound inputs must be positive"),
        (lambda b: CorpusConfig(seed=1, samples=0),
         NonPositiveError, "need at least one sample"),
        (lambda b: CorpusConfig(seed=1, max_degree=0),
         NonPositiveError, "need a maximum degree of at least 1"),
        (lambda b: extension_bound(b, F(1), F(0)),
         NonPositiveError, "bound inputs must be positive"),
        # a bool is not a rational, wherever a rational is read
        (lambda b: WeightedBasis(FF, [(Poly.x(), True)]),
         TypeError, "a bool is not a rational: True"),
        (lambda b: extension_bound(b, True, 1),
         TypeError, "a bool is not a rational: True"),
        (lambda b: extension_bound(b, 1, False),
         TypeError, "a bool is not a rational: False"),
        (lambda b: gauss_value(Poly.x(), FF, True),
         TypeError, "a bool is not a rational: True"),
    ],
    ids=["mu-prime-zero", "no-samples", "no-degree", "c-base-zero",
         "bool-basis-weight", "bool-mu-prime", "bool-c-base", "bool-gauss-beta"],
)
def test_bounds_reject_bad_inputs(b1, call, error, message):
    with pytest.raises(error) as exc:
        call(b1)
    assert (exc.type, str(exc.value)) == (error, message)
