"""Univariate polynomials in x over K, with Euclidean division.

Coefficients are :class:`~keyval.basefield.KElem`.  The representation is
dense; key-polynomial degrees stay small at desk scale.
"""

from __future__ import annotations

from .basefield import DensePoly, KElem
from .errors import NotAlgebraicError


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


class ExtensionConfig:
    """Transcendental extension, or algebraic with a monic minimal polynomial."""

    __slots__ = ("minimal",)

    def __init__(self, minimal: Poly | None = None):
        if minimal is not None:
            if minimal.degree < 1 or not minimal.is_monic():
                raise NotAlgebraicError("minimal polynomial must be monic of degree >= 1")
        self.minimal = minimal

    @classmethod
    def transcendental(cls):
        return cls(None)

    @classmethod
    def algebraic(cls, minimal: Poly):
        return cls(minimal)

    @property
    def is_algebraic(self):
        return self.minimal is not None

    @property
    def bound(self):
        """Degree N of the minimal polynomial; None for transcendental type."""
        return self.minimal.degree if self.minimal is not None else None

    def __eq__(self, other):
        return isinstance(other, ExtensionConfig) and self.minimal == other.minimal


def poly_divmod(f: Poly, g: Poly):
    """Quotient and remainder of f by the nonzero polynomial g."""
    return f.divmod(g)


def poly_reduce(f: Poly, ext: ExtensionConfig) -> Poly:
    """The representative of f modulo the minimal polynomial, degree < N."""
    if not ext.is_algebraic:
        raise NotAlgebraicError("reduction requires an algebraic extension")
    return poly_divmod(f, ext.minimal)[1]
