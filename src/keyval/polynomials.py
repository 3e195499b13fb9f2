"""Univariate polynomials in x over K, with Euclidean division.

Coefficients are :class:`~keyval.basefield.KElem`.  The representation is
dense; key-polynomial degrees stay small at desk scale.
"""

from __future__ import annotations

from .basefield import DensePoly, KElem


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
