"""Univariate polynomials in x over K, with Euclidean division.

Coefficients are :class:`~keyval.basefield.KElem`.  The representation is
dense; key-polynomial degrees stay small at desk scale.  ``_cleared`` turns a
polynomial into integer rows in Z[y] for the oracle and the weight maps.
"""

from __future__ import annotations

import math

from .basefield import DensePoly, KElem, YPoly


class Poly(DensePoly):
    """Dense polynomial in x over K."""

    __slots__ = ()
    _zero, _one = KElem.zero(), KElem.one()
    _unit = _one

    @classmethod
    def x(cls):
        return cls((cls._zero, cls._one))

    # rebound here so that Poly's product can be wrapped without YPoly's
    __mul__ = __rmul__ = DensePoly.__mul__


def poly_divmod(f: Poly, g: Poly):
    """Quotient and remainder of f by the nonzero polynomial g."""
    return f.divmod(g)


def _cleared(f: Poly) -> tuple[list[list[int]], YPoly]:
    """f's coefficients as integer rows in Z[y], one per power of x, and d(y).

    The rows are scaled by the K-denominator lcm d(y) and by a constant D that
    clears Q to Z; at phi they give D d(y) f(phi(y), y), of order ord(d) above f's,
    and over Q(y) their weight is ord(d) above f's.
    """
    d = YPoly.one()
    for c in f.coeffs:
        if c.den.degree > 0:
            d = d * c.den.divmod(d.gcd(c.den))[0]  # lcm(d, c.den), as gcd is monic
    polys = [c.num * (d.divmod(c.den)[0] if c.den.degree > 0 else d) for c in f.coeffs]
    D = math.lcm(*[x.denominator for q in polys for x in q.coeffs])
    return [[x.numerator * (D // x.denominator) for x in q.coeffs] for q in polys], d
