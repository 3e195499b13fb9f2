"""Weighted bases of K[x]: validation, adic expansions, and weight maps.

A weighted basis is an ordered sequence of monic key polynomials U_1, ...,
U_alpha with positive rational weights.  Every polynomial has a unique
expansion in products of the keys where the exponent of U_j stays below the
degree step m_j for all but the top level; the weight maps take minima of
coefficient valuations plus weighted exponents over that expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .basefield import BaseFieldConfig, KElem, YPoly, base_valuation
from .errors import (
    InsufficientPrecisionError,
    KeyvalError,
    LevelOutOfRangeError,
    NonzeroConstantTermError,
    NotAlgebraicError,
    ZeroInputError,
)
from .polynomials import Poly, poly_divmod, poly_reduce
from .series import Series
from .values import INF, Value


@dataclass
class AdicExpansion:
    """Finite term map: exponent vector of length ``level`` -> coefficient in K.

    Only :func:`adic_expand` output respects the bounds a_j < m_j below the
    top level; the rewriting algorithms' intermediate expansions may not.
    """

    level: int
    terms: dict


@dataclass
class KeyStep:
    U: Poly
    beta: Fraction
    #: degree step deg U_{i+1} / deg U_i; None for the last step or when the
    #: degrees do not divide (reported by validate_basis).
    m: int | None = None
    #: positive generator of the value group Phi_i = <1, beta_1, ..., beta_i>.
    phi: Fraction | None = None
    #: index n_i = [Phi_i : Phi_{i-1}].
    n: int | None = None
    #: cached i-adic expansion of U_{i+1}, used by the rewriting algorithms.
    next_expansion: AdicExpansion | None = None


class WeightedBasis:
    """An ordered sequence of key steps over a configured base field.

    ``minimal`` is the monic minimal polynomial of an algebraic-type
    extension, or None for the transcendental type.  Construction enforces
    the structural requirements (first key is x, all keys monic, weights
    finite and positive); the mathematical conditions of a weighted basis are
    checked by :func:`validate_basis`, which reports violations instead of
    raising.
    """

    def __init__(self, base: BaseFieldConfig, steps, minimal: Poly | None = None):
        if minimal is not None and (minimal.degree < 1 or not minimal.is_monic()):
            raise NotAlgebraicError("minimal polynomial must be monic of degree >= 1")
        pairs = [(U, Fraction(beta)) for U, beta in steps]
        if not pairs:
            raise KeyvalError("a weighted basis needs at least one key")
        if pairs[0][0] != Poly.x():
            raise KeyvalError("the first key polynomial must be x")
        for U, beta in pairs:
            if not U.is_monic():
                raise KeyvalError("key polynomials must be monic in x")
            if beta <= 0:
                raise KeyvalError("key weights must be positive")
        self.base = base
        self.minimal = minimal
        self.steps = [KeyStep(U, beta) for U, beta in pairs]
        phi = Fraction(1)  # nu(K) = Z for both base fields
        for step in self.steps:
            b = step.beta
            step.phi = Fraction(
                gcd(phi.numerator * b.denominator, b.numerator * phi.denominator),
                phi.denominator * b.denominator,
            )
            step.n = (phi / step.phi).numerator
            phi = step.phi
        for i in range(len(self.steps) - 1):
            d0 = self.steps[i].U.degree
            d1 = self.steps[i + 1].U.degree
            if d1 % d0 == 0:
                self.steps[i].m = d1 // d0
            self.steps[i].next_expansion = adic_expand(self.steps[i + 1].U, i + 1, self)

    @property
    def alpha(self) -> int:
        return len(self.steps)

    def key(self, i: int) -> Poly:
        return self.steps[i - 1].U

    def beta(self, i: int) -> Fraction:
        return self.steps[i - 1].beta

    def m(self, i: int) -> int | None:
        return self.steps[i - 1].m

    def nu(self, c: KElem) -> Value:
        return base_valuation(c, self.base)

    def term_weight(self, exponents, c: KElem) -> Value:
        w = self.nu(c)
        for a, step in zip(exponents, self.steps):
            if a:
                w = w + a * step.beta
        return w

    def _check_level(self, i: int):
        if not 1 <= i <= self.alpha:
            raise LevelOutOfRangeError("level %d not in 1..%d" % (i, self.alpha))


def adic_expand(f: Poly, i: int, basis: WeightedBasis) -> AdicExpansion:
    """The i-adic expansion of f, by successive Euclidean division."""
    basis._check_level(i)
    if basis.minimal is not None and f.degree >= basis.minimal.degree:
        f = poly_reduce(f, basis.minimal)
    return AdicExpansion(i, _expand(f, i, basis))


def _expand(f: Poly, level: int, basis: WeightedBasis) -> dict:
    if f.is_zero():
        return {}
    if level == 1:
        # U_1 = x, so the 1-adic expansion is the monomial expansion
        return {(k,): c for k, c in enumerate(f.coeffs) if not c.is_zero()}
    U = basis.key(level)
    remainders = []
    g = f
    while not g.is_zero():
        g, r = poly_divmod(g, U)
        remainders.append(r)
    out = {}
    for j, r in enumerate(remainders):
        if r.is_zero():
            continue
        for a, c in _expand(r, level - 1, basis).items():
            out[a + (j,)] = c
    return out


def expansion_eval(E: AdicExpansion, basis: WeightedBasis) -> Poly:
    """Substitute the keys back into an expansion; exact inverse of expand."""
    if E.level > basis.alpha:
        raise LevelOutOfRangeError("expansion level exceeds basis length")
    total = Poly.zero()
    for a, c in E.terms.items():
        term = Poly.const(c)
        for j, e in enumerate(a):
            if e:
                term = term * basis.key(j + 1) ** e
        total = total + term
    return total


def expansion_weight(E: AdicExpansion, basis: WeightedBasis) -> Value:
    """Gauss weight: min of nu(c) + sum a_j beta_j, Infinity when empty."""
    if E.level > basis.alpha:
        raise LevelOutOfRangeError("expansion level exceeds basis length")
    w = INF
    for a, c in E.terms.items():
        t = basis.term_weight(a, c)
        if t < w:
            w = t
    return w


def weight(f: Poly, i: int, basis: WeightedBasis) -> Value:
    """The i-th weight map: min of nu(c) + sum a_j beta_j over the expansion."""
    if f.is_zero():
        return INF
    return expansion_weight(adic_expand(f, i, basis), basis)


def initial_form(f: Poly, i: int, basis: WeightedBasis) -> AdicExpansion:
    """The sub-expansion of the terms attaining the i-th weight of f."""
    if f.is_zero():
        raise ZeroInputError("the zero polynomial has no initial form")
    E = adic_expand(f, i, basis)
    w = expansion_weight(E, basis)
    return AdicExpansion(i, {a: c for a, c in E.terms.items() if basis.term_weight(a, c) == w})


@dataclass
class Violation:
    step: int
    condition: str
    message: str


def _recurrence_coefficients(basis: WeightedBasis, i: int):
    """Group the cached expansion of U_{i+1} by the exponent of U_i.

    Returns {j: expansion terms of f_{i,j} at level i-1}, excluding the
    leading monomial U_i^{m_i}.
    """
    step = basis.steps[i - 1]
    lead = (0,) * (i - 1) + (step.m,)
    groups = {}
    for a, c in step.next_expansion.terms.items():
        if a == lead:
            continue
        groups.setdefault(a[-1], {})[a[:-1]] = c
    return groups


def validate_basis(basis: WeightedBasis) -> list:
    """Check the weighted-basis conditions; returns every Violation found."""
    out = []
    for i in range(1, basis.alpha):
        step = basis.steps[i - 1]
        nxt = basis.steps[i]
        if step.m is None:
            out.append(Violation(i, "a", "deg U_%d is not a multiple of deg U_%d" % (i + 1, i)))
            continue
        if step.m % step.n != 0:
            out.append(Violation(
                i, "index", "m_%d = %d is not divisible by n_%d = %d" % (i, step.m, i, step.n)
            ))
        groups = _recurrence_coefficients(basis, i)
        target = step.m * step.beta
        for j, terms in groups.items():
            w = expansion_weight(AdicExpansion(i - 1, terms), basis)
            if w + j * step.beta != target:
                out.append(Violation(
                    i,
                    "c",
                    "weight of recurrence coefficient at U_%d^%d is %s, expected %s"
                    % (i, j, w, target - j * step.beta),
                ))
        if nxt.beta <= target:
            out.append(Violation(i, "e", "beta_%d = %s is not > m_%d*beta_%d = %s"
                                 % (i + 1, nxt.beta, i, i, target)))
        for j in groups:
            if j % step.n != 0:
                out.append(Violation(
                    i,
                    "shape",
                    "nonzero recurrence coefficient at exponent %d not divisible by n_%d = %d"
                    % (j, i, step.n),
                ))
    if basis.minimal is not None:
        for i, step in enumerate(basis.steps, start=1):
            if step.U.degree > basis.minimal.degree:
                out.append(Violation(i, "deg", "deg U_%d exceeds the extension degree" % i))
    return out


@dataclass
class TruncationResult:
    basis: WeightedBasis
    exact_root: Poly | None


def truncated_keys_from_series(
    phi: Series,
    depth: int,
    base: BaseFieldConfig,
    minimal: Poly | None = None,
) -> TruncationResult:
    """Key truncations x - (phi below order d) for a series root phi.

    Emits a key at every order where the truncation changes, with weight the
    order of the remaining tail; stops after ``depth`` keys, or earlier with
    the exact root when the tail vanishes to the stored precision.
    """
    if phi.coeffs and phi.coeffs[0] != 0:
        raise NonzeroConstantTermError("series root must have zero constant term")
    if phi.precision <= depth:
        raise InsufficientPrecisionError(
            "series precision %d does not exceed depth %d" % (phi.precision, depth)
        )
    x = Poly.x()
    trunc = Poly.zero()  # constant-in-x polynomial holding the truncation
    tail = list(phi.coeffs)
    steps = []
    exact_root = None
    while len(steps) < depth:
        o = next((k for k, c in enumerate(tail) if c != 0), None)
        if o is None:
            exact_root = x - trunc
            break
        steps.append((x - trunc, Fraction(o)))
        trunc = trunc + Poly.const(KElem(YPoly.const(tail[o]).shift(o)))
        tail[o] = Fraction(0)
    if not steps:
        raise InsufficientPrecisionError("series vanishes to stored precision")
    return TruncationResult(WeightedBasis(base, steps, minimal), exact_root)
