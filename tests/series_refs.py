"""Reference series that the series and oracle tests compare against.

None of them runs the packed kernels: products are schoolbook sums of
Fraction coefficient products, and the conic branch is a closed form.
"""

from fractions import Fraction

from keyval.errors import BadConstantTermError
from keyval.series import Series


def reference_mul(a: Series, b: Series) -> Series:
    """The schoolbook product, to the precision the kernel's product has."""
    p = min(a.precision + b.known_order(), b.precision + a.known_order())
    out = [Fraction(0)] * p
    b_coeffs = b.coeffs
    for i, x in enumerate(a.coeffs):
        if x == 0 or i >= p:
            continue
        for j, z in enumerate(b_coeffs):
            if i + j >= p:
                break
            if z != 0:
                out[i + j] += x * z
    return Series(out, p)


def reference_horner(rows, phi: Series) -> Series:
    """The polynomial with these coefficient rows evaluated at phi, by schoolbook products."""
    total = Series.zero(phi.precision)
    for row in reversed(rows):
        total = reference_mul(total, phi) + Series(row, phi.precision)
    return total


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
    root = series_sqrt(Series((1, 1), precision))
    return Series((0,) + tuple(sign * c for c in root.coeffs), precision)
