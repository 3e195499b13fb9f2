"""Closed-form series that the series and oracle tests compare against."""

from fractions import Fraction

from keyval.errors import BadConstantTermError
from keyval.series import Series


def series_sqrt(s: Series) -> Series:
    """Square root of a series with constant term 1, to the same precision."""
    coeffs = s.coeffs
    if not coeffs or coeffs[0] != 1:
        raise BadConstantTermError("square root requires constant term 1")
    out = [Fraction(1)]
    for n in range(1, s.precision):
        acc = coeffs[n]
        for i in range(1, n):
            acc -= out[i] * out[n - i]
        out.append(acc / 2)
    return Series(out, s.precision)


def conic_branch_series(precision: int, sign: int = -1) -> Series:
    """sign*y*sqrt(1+y), a branch of x^2 - y^2 - y^3, from the square-root expansion."""
    return series_sqrt(Series((1, 1), precision)) * Series((0, sign), precision)
