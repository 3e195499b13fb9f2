"""Weighted bases of K[x]: validation, adic expansions, and weight maps.

A weighted basis is an ordered sequence of monic key polynomials U_1, ...,
U_alpha with positive rational weights.  Every polynomial has a unique
expansion in products of the keys where the exponent of U_j stays below the
degree step m_j for all but the top level; the weight maps take minima of
coefficient valuations plus weighted exponents over that expansion.

Both routes take the digits of a polynomial from one generator, which
divides coefficient lists by a monic key with
:func:`~keyval.basefield.monic_divide`.  Expansions divide lists of elements
of K.  The weight maps need only the minimum, and divide plain Q[y]
coefficient lists: each key's lists, lowest first, are built once, and
division by a monic key never leaves Q[y].  Keys with y-denominators have no
such lists, and their bases take the weight of the full expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .basefield import _Y_ONE, BaseFieldConfig, KElem, YPoly, base_order, monic_divide, ring_sub
from .errors import (
    InsufficientPrecisionError,
    KeyvalError,
    LevelOutOfRangeError,
    NonPositiveError,
    NonzeroConstantTermError,
    NotAlgebraicError,
    ZeroInputError,
)
from .parsing import parse_rational
from .polynomials import Poly, _cleared, poly_divmod
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
    #: positive generator 1/L_i of the value group Phi_i = <1, beta_1, ..., beta_i>,
    #: where L_i is the lcm of the denominators of beta_1, ..., beta_i.
    phi: Fraction
    #: index n_i = [Phi_i : Phi_{i-1}] = L_i / L_{i-1}.
    n: int
    #: degree step deg U_{i+1} / deg U_i; None for the last step or when the
    #: degrees do not divide (reported by validate_basis).
    m: int | None = None
    #: cached i-adic expansion of U_{i+1} in K[x], for rewriting and validation.
    next_expansion: AdicExpansion | None = None


class WeightedBasis:
    """An ordered sequence of key steps over a configured base field.

    ``minimal`` is the monic minimal polynomial of an algebraic-type
    extension, or None for the transcendental type.  Construction enforces
    the structural requirements (first key is x, all keys monic of degree
    >= 1, weights finite and positive); the mathematical conditions of a
    weighted basis are checked by :func:`validate_basis`, which reports
    violations instead of raising.
    """

    def __init__(self, base: BaseFieldConfig, steps, minimal: Poly | None = None):
        if minimal is not None and (minimal.degree < 1 or not minimal.is_monic()):
            raise NotAlgebraicError("minimal polynomial must be monic of degree >= 1")
        pairs = [(U, parse_rational(beta)) for U, beta in steps]
        if not pairs:
            raise KeyvalError("a weighted basis needs at least one key")
        if pairs[0][0] != Poly.x():
            raise KeyvalError("the first key polynomial must be x")
        self.base = base
        self.minimal = minimal
        self.steps = []
        # nu(K) = Z for both base fields, so Phi_i = (1/L)Z for L the lcm of the
        # denominators of beta_1, ..., beta_i
        L = 1
        for U, beta in pairs:
            if not U.is_monic():
                raise KeyvalError("key polynomials must be monic in x")
            if U.degree < 1:
                raise KeyvalError("key polynomials must have degree >= 1")
            if beta <= 0:
                raise KeyvalError("key weights must be positive")
            if self.steps:  # U is the next key of the last step
                i, last = len(self.steps), self.steps[-1]
                if U.degree % last.U.degree == 0:
                    last.m = U.degree // last.U.degree
                last.next_expansion = AdicExpansion(i, _expand(U.coeffs, i, self))
            L_prev, L = L, lcm(L, beta.denominator)
            self.steps.append(KeyStep(U, beta, Fraction(1, L), L // L_prev))
        # Phi_alpha = (1/N)Z holds every weight, so weights are computed as
        # int counts of 1/N; beta_units[i] is beta_{i+1} * N.
        self.N = L
        self.beta_units = tuple(s.beta.numerator * (L // s.beta.denominator) for s in self.steps)
        #: each key's coefficients as Q[y] lists, lowest first, for :func:`weight`;
        #: None when a key has y-denominators
        lists = [[c.num.coeffs for c in s.U.coeffs] for s in self.steps]
        self.key_lists = None if any(c.den.degree for U, _ in pairs for c in U.coeffs) else lists
        #: (f, effective level, weight) of the last weight() call, f by identity;
        #: one tuple, so that a reader never sees parts of two entries
        self._last_weight = (None, 0, None)

    @property
    def alpha(self) -> int:
        return len(self.steps)

    def key(self, i: int) -> Poly:
        return self.steps[i - 1].U

    def beta(self, i: int) -> Fraction:
        return self.steps[i - 1].beta

    def m(self, i: int) -> int | None:
        return self.steps[i - 1].m

    def term_weight(self, exponents, c: KElem) -> int:
        """N times the weight nu(c) + sum a_j beta_j of the term c*U^a, c nonzero."""
        return base_order(c, self.base) * self.N + sum(map(mul, exponents, self.beta_units))

    def _check_level(self, i: int):
        if not 1 <= i <= self.alpha:
            raise LevelOutOfRangeError("level %d not in 1..%d" % (i, self.alpha))


def adic_expand(f: Poly, i: int, basis: WeightedBasis) -> AdicExpansion:
    """The i-adic expansion of f modulo the minimal polynomial, by division."""
    basis._check_level(i)
    return AdicExpansion(i, _expand(_reduced(f, basis).coeffs, i, basis))


def _reduced(f: Poly, basis: WeightedBasis) -> Poly:
    """f modulo the basis's minimal polynomial, or f itself when there is none."""
    if basis.minimal is not None and f.degree >= basis.minimal.degree:
        f = poly_divmod(f, basis.minimal)[1]
    return f


def _digits(f: list, U: list, sub):
    """The nonzero digits (j, r_j) of the trimmed list f = sum r_j U^j, each r_j trimmed.

    U and ``sub`` are as for :func:`~keyval.basefield.monic_divide`.
    """
    j = 0
    while len(f) >= len(U):
        f, r = monic_divide(f, U, sub)
        while r and not r[-1]:
            r.pop()
        if r:
            yield j, r
        j += 1
    if f:
        yield j, f


def _expand(f: list, level: int, basis: WeightedBasis) -> dict:
    """The terms of the level-adic expansion of the coefficient list f over K."""
    if level == 1:
        # U_1 = x, so the 1-adic expansion is the monomial expansion
        return {(k,): c for k, c in enumerate(f) if c}
    out = {}
    for j, r in _digits(f, basis.key(level).coeffs, ring_sub):
        for a, c in _expand(r, level - 1, basis).items():
            out[a + (j,)] = c
    return out


def _sub_product(r, c, b) -> list:
    """The Q[y] list r - c*b, without trailing zeros."""
    out = list(r) + [0] * (len(c) + len(b) - 1 - len(r))
    for t, e in enumerate(b):
        if e:
            for i, a in enumerate(c, t):
                if a:
                    out[i] -= a * e
    while out and not out[-1]:
        out.pop()
    return out


def _units(f: list, level: int, basis: WeightedBasis) -> int:
    """N times the level weight of the nonzero coefficient lists f: the least digit term."""
    b = basis.beta_units[level - 1]
    if level > 1:
        U = basis.key_lists[level - 1]
        return min(_units(r, level - 1, basis) + j * b for j, r in _digits(f, U, _sub_product))
    order, N = basis.base.order, basis.N
    return min(order(c) * N + k * b for k, c in enumerate(f) if c)


def _by_top_key(terms: dict) -> dict:
    """Split expansion terms by the exponent j of the top key: {j: lower terms}."""
    groups = {}
    for a, c in terms.items():
        groups.setdefault(a[-1], {})[a[:-1]] = c
    return groups


def expansion_eval(E: AdicExpansion, basis: WeightedBasis) -> Poly:
    """Substitute the keys back by Horner's rule in each key; exact inverse of expand."""
    if E.level > basis.alpha:
        raise LevelOutOfRangeError("expansion level exceeds basis length")
    return _eval(E.terms, E.level, basis)


def _eval(terms: dict, level: int, basis: WeightedBasis) -> Poly:
    if level == 0:
        return Poly.const(terms.get((), KElem.zero()))
    U = basis.key(level)
    parts = _by_top_key(terms)
    total = Poly.zero()
    for j in range(max(parts, default=-1), -1, -1):
        total = total * U + _eval(parts.get(j, {}), level - 1, basis)
    return total


def expansion_weight(E: AdicExpansion, basis: WeightedBasis) -> Value:
    """Gauss weight: min of nu(c) + sum a_j beta_j, Infinity when empty."""
    if E.level > basis.alpha:
        raise LevelOutOfRangeError("expansion level exceeds basis length")
    k = min((basis.term_weight(a, c) for a, c in E.terms.items() if c), default=None)
    return INF if k is None else Fraction(k, basis.N)


def weight(f: Poly, i: int, basis: WeightedBasis) -> Value:
    """The i-th weight map: min of nu(c) + sum a_j beta_j over the expansion.

    Below deg U_i the i-adic expansion is the (i-1)-adic one with exponent 0,
    so the weight is taken at the effective level, the highest j <= i with
    deg U_j <= deg f, as the least term over the U_j-adic digits.  The digits
    come from monic division of f's Q[y] coefficient lists by the keys'
    lists, with no arithmetic in K; f's y-denominators are cleared first by
    their lcm d(y), whose order is subtracted again.  A basis whose keys have
    y-denominators takes the weight of the full expansion instead.  The last
    result is kept, so that two maps of one sample that share an effective
    level share one computation.
    """
    basis._check_level(i)
    g = _reduced(f, basis)
    if not g:
        return INF
    while i > 1 and len(g.coeffs) < len(basis.steps[i - 1].U.coeffs):
        i -= 1
    last_f, last_i, w = basis._last_weight
    if last_f is not f or last_i != i:
        if basis.key_lists is None:
            w = expansion_weight(AdicExpansion(i, _expand(g.coeffs, i, basis)), basis)
        else:
            if any(c.den is not _Y_ONE for c in g.coeffs):
                # the weight is homogeneous, so a constant clearing factor adds nothing
                lists, d = _cleared(g)
                shift = basis.base.order(d.coeffs)
            else:
                lists, shift = [c.num.coeffs for c in g.coeffs], 0
            w = Fraction(_units(lists, i, basis) - shift * basis.N, basis.N)
        basis._last_weight = (f, i, w)
    return w


def initial_form(f: Poly, i: int, basis: WeightedBasis) -> AdicExpansion:
    """The sub-expansion of the terms attaining the i-th weight of f."""
    E = adic_expand(f, i, basis)
    units = {a: basis.term_weight(a, c) for a, c in E.terms.items()}
    if not units:  # f is zero, or zero modulo the minimal polynomial
        raise ZeroInputError("the zero polynomial has no initial form")
    k = min(units.values())
    return AdicExpansion(i, {a: c for a, c in E.terms.items() if units[a] == k})


@dataclass
class Violation:
    step: int
    condition: str
    message: str


def recurrence_coefficients(basis: WeightedBasis, i: int):
    """The f_{i,j} of U_{i+1} = U_i^{m_i} + sum_j f_{i,j} U_i^j, as {j: level i-1 terms}."""
    groups = _by_top_key(basis.steps[i - 1].next_expansion.terms)
    groups.pop(basis.m(i), None)  # U_{i+1} is monic of degree m_i deg U_i: this is U_i^{m_i}
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
        groups = recurrence_coefficients(basis, i)
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


def truncated_keys_from_series(
    phi: Series, depth: int, *, minimal: Poly | None = None
) -> WeightedBasis:
    """Key truncations x - phi_{<o} over Q(y) for a series root phi.

    Key i is x - phi_{<o_i} with weight o_i, for the orders o_1 < o_2 < ... of
    phi's nonzero coefficients, up to ``depth`` keys; a phi with fewer nonzero
    coefficients gives fewer keys.
    """
    if depth < 1:
        raise NonPositiveError("depth must be at least 1, got %d" % depth)
    coeffs = phi.coeffs
    if coeffs and coeffs[0] != 0:
        raise NonzeroConstantTermError("series root must have zero constant term")
    if phi.precision <= depth:
        raise InsufficientPrecisionError(
            "series precision %d does not exceed depth %d" % (phi.precision, depth)
        )
    orders = [k for k, c in enumerate(coeffs) if c][:depth]
    if not orders:
        raise InsufficientPrecisionError("series vanishes to stored precision")
    x = Poly.x()
    # x - phi_{<o}, with the int 0 in zero slots as sums store them
    steps = [(x - Poly.const(KElem(YPoly([c or 0 for c in coeffs[:o]]))), Fraction(o))
             for o in orders]
    return WeightedBasis(BaseFieldConfig.function_field(), steps, minimal)
