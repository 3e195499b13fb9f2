"""Exact rational values extended with +infinity.

All values handled by the package live in the rationals, extended by a single
point at infinity that absorbs addition and dominates every finite value.
:func:`list_order` reads the order at 0 of a coefficient list.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from typing import Union


@total_ordering
class _Infinity:
    """The value +infinity.  A singleton; compare and add with Fractions."""

    __slots__ = ()

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("keyval-infinity")

    def __repr__(self):
        return "inf"


INF = _Infinity()

#: A value: an exact rational, or +infinity (the value of 0).
Value = Union[Fraction, _Infinity]


def list_order(coeffs):
    """Index of the lowest nonzero entry of a coefficient list; None when all are zero."""
    for i, c in enumerate(coeffs):
        if c:
            return i
    return None
