"""Gauss valuations, exact Izumi step constants, comparison bounds, and a
seeded empirical sup-search with witnesses."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .basefield import BaseFieldConfig, KElem, YPoly
from .errors import (
    ConsistencyFailureError,
    EmptyEffectiveCorpusError,
    LevelOutOfRangeError,
    NonPositiveError,
    UnboundedRatioError,
)
from .keybasis import WeightedBasis, weight
from .parsing import parse_rational
from .polynomials import Poly
from .values import INF, Value


def gauss_value(f: Poly, base: BaseFieldConfig, beta: Fraction | str) -> Value:
    """ord_{nu,beta}(f) = min nu(c_k) + k beta, the weight of the one-key basis (x, beta)."""
    beta = parse_rational(beta)
    if beta <= 0:
        raise NonPositiveError("Gauss weight must be positive")
    return weight(f, 1, WeightedBasis(base, [(Poly.x(), beta)]))


def _check_steps(basis: WeightedBasis, j: int, i: int):
    """Refuse levels outside 1 <= j < i+1 <= alpha, or degree steps m_j..m_i not all defined."""
    if not (1 <= j <= i < basis.alpha):
        raise LevelOutOfRangeError(
            "need 1 <= lower < upper <= %d, the basis length; got upper %d, lower %d"
            % (basis.alpha, i + 1, j)
        )
    if any(basis.m(k) is None for k in range(j, i + 1)):
        raise LevelOutOfRangeError("degree steps m_%d..m_%d are not all defined" % (j, i))


def _skewness(basis: WeightedBasis, i: int) -> Fraction:
    """alpha_i = beta_i / deg U_i, the skewness of the level-i chain (Favre-Jonsson)."""
    return basis.beta(i) / basis.key(i).degree


def key_power_weight(basis: WeightedBasis, i_plus_1: int, ell: int, j: int) -> Value:
    """Weight of U_{i+1}^ell at level j: the closed form, cross-checked.

    Computes ell * deg U_{i+1} * beta_j / deg U_j and verifies it against
    the division-based weight; disagreement signals a basis violating the
    weighted-basis conditions.
    """
    _check_steps(basis, j, i_plus_1 - 1)
    if ell < 1:
        raise NonPositiveError("power must be >= 1")
    formula = ell * basis.key(i_plus_1).degree * _skewness(basis, j)
    direct = weight(basis.key(i_plus_1) ** ell, j, basis)
    if direct != formula:
        raise ConsistencyFailureError(
            "closed form %s != division-based weight %s" % (formula, direct)
        )
    return formula


def izumi_step_constant(basis: WeightedBasis, i_plus_1: int, j: int) -> Fraction:
    """Exact constant comparing the level-(i+1) and level-j weight maps: alpha_{i+1} / alpha_j."""
    _check_steps(basis, j, i_plus_1 - 1)
    return _skewness(basis, i_plus_1) / _skewness(basis, j)


def extension_bound(
    basis: WeightedBasis, mu_prime_x: Fraction | str, c_base: Fraction | str
) -> Fraction:
    """Upper bound for comparing the basis valuation with another extension.

    c_base * alpha_top / min(beta_1, mu'(x)): the top skewness over that of
    the Gauss point where the two valuations part.  mu'(x) and c_base are
    rationals or their text, read as ``parse_rational`` reads them.  On a
    one-key basis (x, beta) against mu'(x) = beta' it is the Gauss-pair
    bound c_base * max(1, beta/beta'), which x attains for beta >= beta' and
    c_base = 1.
    """
    mu_prime_x = parse_rational(mu_prime_x)
    c_base = parse_rational(c_base)
    if mu_prime_x <= 0 or c_base <= 0:
        raise NonPositiveError("bound inputs must be positive")
    return c_base * _skewness(basis, basis.alpha) / min(_skewness(basis, 1), mu_prime_x)


@dataclass(frozen=True)
class CorpusConfig:
    seed: int
    samples: int = 1000
    max_degree: int = 4
    positive_only: bool = True

    def __post_init__(self):
        if self.samples < 1:
            raise NonPositiveError("need at least one sample")
        if self.max_degree < 1:
            raise NonPositiveError("need a maximum degree of at least 1")


_UNITS = (1, 2, 3, -1, -2, -3)
#: the Q(y) sample coefficients unit * y^v, built once; no KElem changes after it is built
_Y_TERMS = {(u, v): KElem(YPoly._make([0] * v + [u])) for u in _UNITS for v in range(4)}


def random_corpus_poly(cfg: BaseFieldConfig, corpus: CorpusConfig, index: int) -> Poly:
    """Deterministic sample ``index`` of the corpus (seed xor index).

    The degree is uniform in 1..max_degree.  Each coefficient below the top
    one is zero with probability 0.3; any other is unit * t^v, with t = y and
    the unit in +-{1, 2, 3} over Q(y), or t = p and the unit in +-(1..p-1)
    over Q_p.  The valuation v is uniform in 0..3, and in 1..3 for the
    constant term when ``positive_only`` is set.  Coefficients are shared,
    immutable K-elements.
    """
    # randint(1, n), randint(lo, 3), randrange(1, p) and choice(seq) are drawn as
    # 1 + below(n), lo + below(4 - lo), 1 + below(p - 1) and seq[below(len(seq))],
    # where below(n) is Random._randbelow spelled out: k = n.bit_length() bits
    # from getrandbits, redrawn while >= n.  The same draws, fewer call layers;
    # the corpus digests in tests/test_izumi.py check this on every Python in CI.
    rng = random.Random(corpus.seed ^ index)
    bits, rand = rng.getrandbits, rng.random

    def below(n):
        k = n.bit_length()
        r = bits(k)
        while r >= n:
            r = bits(k)
        return r

    p = cfg.p
    deg = 1 + below(corpus.max_degree)
    coeffs = []
    for k in range(deg + 1):
        if k < deg and rand() < 0.3:
            coeffs.append(Poly._zero)
            continue
        unit = _UNITS[below(6)]  # drawn over Q_p too, where it is then replaced
        if p is not None:
            unit = (1 + below(p - 1)) * (1, -1)[below(2)]
        lo = 1 if (k == 0 and corpus.positive_only) else 0
        v = lo + below(4 - lo)
        if p is None:
            coeffs.append(_Y_TERMS[unit, v])
        else:
            coeffs.append(KElem(YPoly._make([unit * p**v])))
    return Poly._make(coeffs)


@dataclass
class IzumiReport:
    sup_found: Fraction
    witness: Poly
    samples: int
    skipped: int
    seed: int
    theoretical: Fraction | None = None


def empirical_izumi(
    val_num,
    val_den,
    base: BaseFieldConfig,
    corpus: CorpusConfig,
    theoretical: Fraction | None = None,
    witnesses=(),
) -> IzumiReport:
    """Seeded sup-search for the ratio val_num(f) / val_den(f).

    The ``witnesses`` given, such as the canonical ones, are evaluated
    before the random corpus; none are by default.  Samples where the
    denominator value is zero or infinite are skipped unless the numerator
    value is positive, which signals an unbounded ratio.
    """
    # a/b > best_num/best_den is tested as num * best_den > best_num * den, with
    # a/b = num/den over den > 0, so that no Fraction is built per sample
    best_num = best_den = best_witness = None
    skipped = 0
    samples = (random_corpus_poly(base, corpus, j) for j in range(corpus.samples))
    for f in chain(witnesses, samples):
        if not f:
            skipped += 1
            continue
        a = val_num(f)
        b = val_den(f)
        if b is INF or not b:
            if a is not INF and a > 0 and b == 0:
                raise UnboundedRatioError(
                    "sample has zero denominator value but positive numerator value"
                )
            skipped += 1
            continue
        if a is INF:
            raise UnboundedRatioError("sample has infinite numerator value")
        num = a.numerator * b.denominator
        den = a.denominator * b.numerator
        if den < 0:  # a library map may take negative values
            num, den = -num, -den
        if best_den is None or num * best_den > best_num * den:
            best_num, best_den, best_witness = num, den, f
    if best_den is None:
        raise EmptyEffectiveCorpusError("every sample was skipped")
    best = Fraction(best_num, best_den)
    report = IzumiReport(
        sup_found=best,
        witness=best_witness,
        samples=corpus.samples,
        skipped=skipped,
        seed=corpus.seed,
        theoretical=theoretical,
    )
    if theoretical is not None and best > theoretical:
        raise ConsistencyFailureError(
            "empirical sup %s exceeds theoretical constant %s" % (best, theoretical)
        )
    return report


def weight_map(basis: WeightedBasis, i: int):
    """The level-i weight map as a callable on polynomials."""
    basis._check_level(i)
    return lambda f: weight(f, i, basis)


def canonical_witnesses(basis: WeightedBasis):
    """The keys and their squares, the tight cases of the step constants."""
    out = []
    for step in basis.steps:
        for e in (1, 2):
            out.append(step.U**e)
    return out
