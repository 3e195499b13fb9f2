"""Independent valuation oracle via truncated power-series parametrization.

For an algebraic-type extension with a series root phi(y) of the defining
polynomial, the value of f is the order of vanishing of f(phi(y), y).  The
oracle lifts phi by Newton iteration from a short branch segment, keeping
the approximant between requests, and grows the precision until the order
becomes visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .basefield import FUNCTION_FIELD, BaseFieldConfig, KElem, YPoly
from .errors import InsufficientPrecisionError, KeyvalError
from .polynomials import Poly
from .series import InsufficientPrecision, Series, series_div_unit, series_ord, series_sqrt


@dataclass(frozen=True)
class PrecisionPolicy:
    """Oracle precisions: start at initial, multiply by growth, stop at maximum."""

    initial: int = 16
    growth: int = 2
    maximum: int = 512

    def __post_init__(self):
        if self.initial < 1 or self.growth < 2 or self.maximum < self.initial:
            raise ValueError(
                "precision policy needs initial >= 1, growth >= 2 and max >= initial,"
                " got initial=%d, growth=%d, max=%d" % (self.initial, self.growth, self.maximum)
            )


@dataclass(frozen=True)
class PrecisionExhausted:
    """The value is only known to be >= bound; the element is likely zero in L."""

    bound: Fraction


def _coeff_as_ypoly(c) -> YPoly:
    if c.den.degree > 0:
        raise KeyvalError("clear denominators before series evaluation")
    return c.num * (Fraction(1) / c.den.coeffs[0])


def _poly_series_eval(f: Poly, phi: Series, precision: int) -> tuple[Series, Fraction]:
    """Evaluate f(phi(y), y) to the given precision, clearing K-denominators.

    Returns (series, shift): series is d(y) * f(phi(y), y) for the common
    denominator d of f's coefficients, and shift = ord(d), so the order of f
    at phi is ord(series) - shift.
    """
    den = YPoly.one()
    for c in f.coeffs:
        if c.den.degree > 0:
            g = den.gcd(c.den)
            den = den * c.den.divmod(g)[0] if g.degree > 0 else den * c.den
    shift = den.order() if not den.is_zero() else 0
    total = Series.zero(precision)
    for c in reversed(f.coeffs):
        cleared = _coeff_as_ypoly(c * KElem(den))
        total = total * phi + Series.from_ypoly(cleared, precision)
    return total, Fraction(shift)


class Parametrization:
    """A series root of the defining polynomial, refined on demand.

    The branch segment pins down which root is meant.  One polynomial
    approximant of the root is kept with the precision it has been verified
    to; a request beyond that precision lifts the approximant by Newton
    iteration rather than starting again from the branch.  Construction
    checks that the defining polynomial vanishes on the branch to the
    initial precision.
    """

    def __init__(
        self,
        defining: Poly,
        branch: YPoly,
        policy: PrecisionPolicy | None = None,
        base: BaseFieldConfig | None = None,
    ):
        if base is None:
            base = BaseFieldConfig.function_field()
        if base.kind != FUNCTION_FIELD:
            raise KeyvalError("the oracle supports function-field bases only")
        self.base = base
        self.defining = defining
        self.branch = branch
        self.policy = policy or PrecisionPolicy()
        self._derivative = _derivative(defining)
        self._approx = branch  # agrees with the root below y**self._verified
        self._verified = 0
        self._work = 1  # working precision of the last Newton step
        self._dorder = 0  # ord P'(approx), once visible
        # refining to the initial precision doubles as the construction check
        # that the branch really is a root of the defining polynomial
        self.series_at(self.policy.initial)

    def series_at(self, precision: int) -> Series:
        if precision > self._verified:
            self._lift(precision)
        return Series.from_ypoly(self._approx, precision)

    def _lift(self, precision: int) -> None:
        """Newton-lift the approximant until it is verified to precision.

        Each step is validated by the order of the residual.  A residual of
        order r only pins the root down to order r - ord(P'), so the lift
        stops once the residual vanishes to precision + ord(P').  The working
        precision doubles per step up to precision + 2 ord(P'): the extra
        ord(P') verified beyond the request lets the next doubling of the
        request finish in one Newton step.
        """
        approx, work, do = self._approx, self._work, self._dorder
        last_order = -1
        while True:
            work = max(work, min(2 * work, precision + 2 * do))
            phi = Series.from_ypoly(approx, work)
            dres, _ = _poly_series_eval(self._derivative, phi, work)
            do = dres.known_order()
            if do > precision:
                raise InsufficientPrecisionError("derivative vanishes on the branch")
            if do >= work:
                continue  # the derivative's order is not visible yet
            res, _ = _poly_series_eval(self.defining, phi, work)
            ro = res.known_order()
            if ro >= precision + do:
                self._approx, self._verified = approx, ro - do
                self._work, self._dorder = work, do
                return
            if ro >= work:
                continue  # no residual visible yet, so nothing to correct
            if ro < do or ro <= last_order:
                raise InsufficientPrecisionError("Newton refinement stalled; bad branch?")
            last_order = ro
            correction = series_div_unit(res.shift(-do), dres.shift(-do))
            approx = approx - YPoly(correction.coeffs)


def _derivative(f: Poly) -> Poly:
    return Poly([c * k for k, c in enumerate(f.coeffs)][1:])


def oracle_valuation(f: Poly, par: Parametrization):
    """ord_y of f evaluated on the parametrization, growing precision as needed.

    Returns a Value, or PrecisionExhausted when the order stays invisible at
    the maximum precision (f is then likely a multiple of the defining
    polynomial, i.e. zero in L).
    """
    policy = par.policy
    p = policy.initial
    while True:
        phi = par.series_at(p)
        s, shift = _poly_series_eval(f, phi, p)
        o = series_ord(s)
        if not isinstance(o, InsufficientPrecision):
            return o - shift
        if p >= policy.maximum:
            return PrecisionExhausted(Fraction(o.bound) - shift)
        p = min(p * policy.growth, policy.maximum)


def conic_defining() -> Poly:
    """x^2 - y^2 - y^3, the double-branch conic-like curve."""
    c0 = KElem(-(YPoly.gen() * YPoly.gen()) - YPoly.gen() * YPoly.gen() * YPoly.gen())
    return Poly([c0, KElem.zero(), KElem.one()])


def conic_parametrization(policy: PrecisionPolicy | None = None) -> Parametrization:
    """The branch x = -y*sqrt(1+y) of the conic-like curve."""
    return Parametrization(
        conic_defining(),
        YPoly((0, -1)),
        policy=policy or PrecisionPolicy(initial=16, growth=2, maximum=512),
    )


def conic_branch_series(precision: int) -> Series:
    """-y*sqrt(1+y) directly from the square-root expansion."""
    return series_sqrt(Series.from_ypoly(YPoly((1, 1)), precision)) * -1 * _y(precision)


def _y(precision: int) -> Series:
    return Series.from_ypoly(YPoly.gen(), precision)
