"""Independent valuation oracle via truncated power-series parametrization.

For an algebraic-type extension with a series root phi(y) of the defining
polynomial, the value of f is the order of vanishing of f(phi(y), y).  The
oracle lifts phi by Newton iteration from a short branch segment and grows
the precision until the order becomes visible.  ``series_horner`` evaluates
the integer rows in Z[y] that ``polynomials._cleared`` makes of each polynomial
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .basefield import KElem, YPoly
from .errors import InsufficientPrecisionError
from .polynomials import Poly, _cleared
from .series import Series, series_div_unit, series_horner
from .values import INF

#: A policy may grow the precision to at most this; a request that exhausts
#: 1024 already takes several seconds.
MAX_PRECISION = 1024


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
        if self.maximum > MAX_PRECISION:
            raise ValueError("precision policy max %d exceeds the cap %d"
                             % (self.maximum, MAX_PRECISION))


@dataclass(frozen=True)
class PrecisionExhausted:
    """The value is only known to be >= bound; the element is likely zero in L."""

    bound: Fraction


class Parametrization:
    """A series root in Q[[y]] of a defining polynomial over Q(y), refined on demand.

    The branch segment pins down which root is meant.  One polynomial
    approximant of the root, integer numerators over one denominator, is kept
    with the precision it has been verified to; a request beyond that
    precision lifts the approximant by Newton iteration rather than starting
    again from the branch.  Construction checks that the defining polynomial
    vanishes on the branch to the initial precision.
    """

    def __init__(
        self,
        defining: Poly,
        branch: YPoly,
        policy: PrecisionPolicy | None = None,
    ):
        self.defining = defining
        self.branch = branch
        self.policy = policy or PrecisionPolicy()
        # P and P' share one scale D * d(y), so the Newton correction is exactly P/P'
        self._rows = _cleared(defining)[0]
        self._derivative = [[k * a for a in row] for k, row in enumerate(self._rows)][1:]
        # agrees with the root below y**self._verified
        self._approx = Series(branch.coeffs, len(branch.coeffs))
        self._verified = 0
        self._work = 1  # working precision of the last Newton step
        self._dorder = 0  # ord P'(approx), once visible
        # refining to the initial precision doubles as the construction check
        # that the branch really is a root of the defining polynomial
        self.series_at(self.policy.initial)

    def series_at(self, precision: int) -> Series:
        if precision > self._verified:
            self._lift(precision)
        return self._approx.cut(precision)

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
            phi = approx.cut(work)
            dres = series_horner(self._derivative, phi)
            do = dres.known_order()
            if do > precision:
                raise InsufficientPrecisionError("derivative vanishes on the branch")
            if do >= work:
                continue  # the derivative's order is not visible yet
            res = series_horner(self._rows, phi)
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
            approx = phi + -correction.cut(work)


def oracle_valuation(f: Poly, par: Parametrization):
    """ord_y of f evaluated on the parametrization, growing precision as needed.

    Returns a Value, or PrecisionExhausted when the order stays invisible at
    the maximum precision (f is then likely a multiple of the defining
    polynomial, i.e. zero in L).
    """
    if not f:
        return INF
    policy = par.policy
    p = policy.initial
    rows, d = _cleared(f)
    shift = d.order()
    while True:
        s = series_horner(rows, par.series_at(p))
        o = s.known_order()
        if o < s.precision:
            return Fraction(o - shift)
        if p >= policy.maximum:
            return PrecisionExhausted(Fraction(o - shift))
        p = min(p * policy.growth, policy.maximum)


def conic_defining() -> Poly:
    """x^2 - y^2 - y^3, the double-branch conic-like curve."""
    c0 = KElem(-(YPoly.gen() * YPoly.gen()) - YPoly.gen() * YPoly.gen() * YPoly.gen())
    return Poly([c0, KElem.zero(), KElem.one()])


def conic_parametrization(policy: PrecisionPolicy | None = None) -> Parametrization:
    """The branch x = -y*sqrt(1+y) of the conic-like curve."""
    return Parametrization(conic_defining(), YPoly((0, -1)), policy=policy)
