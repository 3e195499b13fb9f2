"""Gauss valuations, exact Izumi step constants, comparison bounds, and a
seeded empirical sup-search with witnesses."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .basefield import FUNCTION_FIELD, BaseFieldConfig, KElem, YPoly
from .errors import (
    ConsistencyFailureError,
    EmptyEffectiveCorpusError,
    LevelOutOfRangeError,
    NonPositiveError,
    NormalizationViolationError,
    UnboundedRatioError,
)
from .keybasis import WeightedBasis, weight
from .polynomials import Poly
from .values import Value, is_finite


@dataclass(frozen=True)
class GaussValuation:
    """ord_{nu,beta}: the monomial valuation giving x the weight beta."""

    base: BaseFieldConfig
    beta: Fraction

    def __post_init__(self):
        if self.beta <= 0:
            raise NonPositiveError("Gauss weight must be positive")


def gauss_value(f: Poly, g: GaussValuation) -> Value:
    """min nu(c_k) + k beta: the level-1 weight of the one-key basis (x, beta)."""
    return weight(f, 1, WeightedBasis(g.base, [(Poly.x(), g.beta)]))


def _step_product(basis: WeightedBasis, j: int, i: int) -> int:
    """m_j * ... * m_i, for levels 1 <= j < i+1 <= alpha."""
    if not (1 <= j <= i < basis.alpha):
        raise LevelOutOfRangeError("need 1 <= j < i+1 <= alpha")
    ms = [basis.m(k) for k in range(j, i + 1)]
    if any(m is None for m in ms):
        raise LevelOutOfRangeError("degree steps m_%d..m_%d are not all defined" % (j, i))
    return prod(ms)


def key_power_weight(basis: WeightedBasis, i_plus_1: int, ell: int, j: int) -> Value:
    """Weight of U_{i+1}^ell at level j: the closed form, cross-checked.

    Computes (m_j * ... * m_i) * ell * beta_j and verifies it against the
    division-based weight; disagreement signals a basis violating the
    weighted-basis conditions.
    """
    steps = _step_product(basis, j, i_plus_1 - 1)
    if ell < 1:
        raise NonPositiveError("power must be >= 1")
    formula = steps * ell * basis.beta(j)
    direct = weight(basis.key(i_plus_1) ** ell, j, basis)
    if direct != formula:
        raise ConsistencyFailureError(
            "closed form %s != division-based weight %s" % (formula, direct)
        )
    return formula


def izumi_step_constant(basis: WeightedBasis, i_plus_1: int, j: int) -> Fraction:
    """Exact constant comparing the level-(i+1) and level-j weight maps."""
    steps = _step_product(basis, j, i_plus_1 - 1)
    return basis.beta(i_plus_1) / (steps * basis.beta(j))


def bracket_ratio(beta: Fraction, beta_prime: Fraction) -> Fraction:
    """beta/beta' when beta > beta', else 1."""
    if beta <= 0 or beta_prime <= 0:
        raise NonPositiveError("bracket ratio needs positive arguments")
    return beta / beta_prime if beta > beta_prime else Fraction(1)


def ord_comparison_bound(beta: Fraction, beta_prime: Fraction, c_base: Fraction) -> Fraction:
    """Upper bound comparing two Gauss valuations over the same base pair."""
    if c_base <= 0:
        raise NonPositiveError("base constant must be positive")
    return bracket_ratio(beta, beta_prime) * c_base


def chain_bound(c1: Fraction, c2: Fraction) -> Fraction:
    """Compose two comparison constants through an intermediate valuation."""
    if c1 <= 0 or c2 <= 0:
        raise NonPositiveError("comparison constants must be positive")
    return c1 * c2


def extension_bound(
    basis: WeightedBasis,
    mu_prime_x: Fraction,
    c_base: Fraction,
    normalized: bool = False,
) -> Fraction:
    """Upper bound for comparing the basis valuation with another extension.

    Default: max(1/beta_1, 1/mu'(x)) * c_base * beta_alpha / deg U_alpha.
    With integer-normalized value groups the max factor is >= 1 and drops.
    """
    mu_prime_x = Fraction(mu_prime_x)
    c_base = Fraction(c_base)
    if mu_prime_x <= 0 or c_base <= 0:
        raise NonPositiveError("bound inputs must be positive")
    top = basis.steps[-1]
    last = top.beta / top.U.degree
    if normalized:
        if mu_prime_x < 1:
            raise NormalizationViolationError("mu'(x) must be >= 1 when normalized")
        for step in basis.steps:
            if step.beta.denominator != 1 or step.beta < 1:
                raise NormalizationViolationError(
                    "weight %s is not a positive integer" % step.beta
                )
        return c_base * last
    return max(1 / basis.beta(1), 1 / mu_prime_x) * c_base * last


@dataclass(frozen=True)
class CorpusConfig:
    seed: int
    samples: int = 1000
    max_degree: int = 4
    max_coeff_valuation: int = 3
    positive_only: bool = True

    def __post_init__(self):
        if self.samples < 1:
            raise NonPositiveError("need at least one sample")


def random_corpus_poly(cfg: BaseFieldConfig, corpus: CorpusConfig, index: int) -> Poly:
    """Deterministic sample ``index`` of the corpus (seed xor index)."""
    rng = random.Random(corpus.seed ^ index)
    deg = rng.randint(1, corpus.max_degree)
    coeffs = []
    for k in range(deg + 1):
        if k < deg and rng.random() < 0.3:
            coeffs.append(KElem.zero())
            continue
        unit = rng.choice([1, 2, 3, -1, -2, -3])
        if cfg.kind != FUNCTION_FIELD:
            unit = rng.randrange(1, cfg.p) * rng.choice([1, -1])
        lo = 1 if (k == 0 and corpus.positive_only) else 0
        v = rng.randint(lo, max(lo, corpus.max_coeff_valuation))
        if cfg.kind == FUNCTION_FIELD:
            coeffs.append(KElem(YPoly.const(unit).shift(v)))
        else:
            coeffs.append(KElem.const(Fraction(unit * cfg.p**v)))
    return Poly(coeffs)


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

    Canonical witnesses are always evaluated in addition to the random
    corpus.  Samples where the denominator value is zero or infinite are
    skipped unless the numerator value is positive, which signals an
    unbounded ratio.
    """
    best = None
    best_witness = None
    skipped = 0
    candidates = list(witnesses)
    candidates.extend(
        random_corpus_poly(base, corpus, j) for j in range(corpus.samples)
    )
    for f in candidates:
        if f.is_zero():
            skipped += 1
            continue
        a = val_num(f)
        b = val_den(f)
        if not is_finite(b) or b == 0:
            if is_finite(a) and a > 0 and b == 0:
                raise UnboundedRatioError(
                    "sample has zero denominator value but positive numerator value"
                )
            skipped += 1
            continue
        if not is_finite(a):
            raise UnboundedRatioError("sample has infinite numerator value")
        ratio = a / b
        if best is None or ratio > best:
            best = ratio
            best_witness = f
    if best is None:
        raise EmptyEffectiveCorpusError("every sample was skipped")
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


def canonical_witnesses(basis: WeightedBasis, max_power: int = 2):
    """The keys and their small powers, the tight cases of the step constants."""
    out = []
    for step in basis.steps:
        for e in range(1, max_power + 1):
            out.append(step.U**e)
    return out
