"""Truncated power series over Q with explicit precision tracking.

A series stores coefficients for powers 0 .. P-1 of the function-field
variable and represents an element known modulo O(y^P).  Arithmetic
propagates the precision: sums keep the smaller precision, and products
shift it by the known order of the other factor.

Products and quotients run on integers: each operand is cleared to integer
numerators over one common denominator, the numerators are packed into one
big integer per operand (Kronecker substitution), and a single big-integer
product yields every coefficient.  Division inverts the denominator by
Newton iteration on those integers.  Coefficients become Fractions again
only at the end.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .basefield import YPoly
from .errors import BadConstantTermError


class Series:
    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs, precision):
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(coeffs) < precision:
            coeffs += [Fraction(0)] * (precision - len(coeffs))
        else:
            del coeffs[precision:]
        self.coeffs = tuple(coeffs)
        self.precision = precision

    @classmethod
    def zero(cls, precision):
        return cls((), precision)

    @classmethod
    def from_ypoly(cls, p: YPoly, precision):
        return cls(p.coeffs, precision)

    def known_order(self):
        """Index of the first nonzero stored coefficient, or the precision."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return self.precision

    def __add__(self, other):
        p = min(self.precision, other.precision)
        # skipping zero terms matters: Horner steps add short polynomials
        return Series(
            [a + b if a and b else a or b for a, b in zip(self.coeffs[:p], other.coeffs[:p])],
            p,
        )

    def __mul__(self, other):
        p = min(
            self.precision + other.known_order(),
            other.precision + self.known_order(),
        )
        a, da = _clear(self.coeffs[:p])
        b, db = _clear(other.coeffs[:p])
        return Series(_fractions(_mul_ints(a, b, p), da * db), p)

    __rmul__ = __mul__

    def shift(self, k):
        """Divide by variable**-k, for 0 <= -k <= the known order."""
        assert k <= 0 and self.known_order() >= -k
        return Series(self.coeffs[-k:], self.precision + k)

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.coeffs == other.coeffs
            and self.precision == other.precision
        )

    def __repr__(self):
        return "Series(%r, precision=%d)" % (list(self.coeffs), self.precision)


def series_div_unit(num: Series, den: Series) -> Series:
    """num / den for a unit denominator (nonzero constant term)."""
    if den.coeffs[0] == 0:
        raise BadConstantTermError("denominator is not a unit")
    p = min(num.precision, den.precision)
    a, da = _clear(num.coeffs[:p])
    b, db = _clear(den.coeffs[: max(p, 1)])
    # num/den = (a/da) / (b/db) = a * (g/c) * db / da
    g, c = _inverse_ints(b, p)
    return Series(_fractions(_mul_ints(a, g, p), da * c, db), p)


# ------------------------------------------------------------ integer kernels


def _clear(coeffs):
    """Integer numerators over one common denominator: (numerators, den)."""
    den = math.lcm(*[c.denominator for c in coeffs])
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


_ZERO = Fraction(0)


def _fractions(nums, den, scale=1):
    """The Fractions n * scale / den for the integers n in nums."""
    return [Fraction(n * scale, den) if n else _ZERO for n in nums]


def _mul_ints(a, b, n):
    """The first n coefficients of the product of integer coefficient lists.

    Each list is packed into one integer with a digit width that holds any
    signed product coefficient, the two integers are multiplied once, and
    the low n signed digits are read back.
    """
    a, b = a[:n], b[:n]
    ma = max(map(abs, a), default=0)
    mb = max(map(abs, b), default=0)
    if not ma or not mb:
        return [0] * n
    # |coefficient| <= min(len) * ma * mb < 2**(bits - 1)
    bits = ma.bit_length() + mb.bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8  # whole bytes, so to_bytes can cut the digits apart
    # adding half to each of the low n digits makes them all nonnegative,
    # and the higher digits fall away modulo 2**(8 * width * n)
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    low = (_pack(a, 8 * width) * _pack(b, 8 * width) + offset) & ((1 << (8 * width * n)) - 1)
    data = low.to_bytes(width * n, "little")
    return [
        int.from_bytes(data[i : i + width], "little") - half
        for i in range(0, width * n, width)
    ]


def _pack(xs, bits):
    """sum(x * 2**(bits * i)) for the signed integers xs.

    Neighbours are combined pairwise, so each round halves the list and
    the total work stays near-linear in the packed size.
    """
    while len(xs) > 1:
        if len(xs) % 2:
            xs = xs + [0]
        xs = [lo + (hi << bits) for lo, hi in zip(xs[::2], xs[1::2])]
        bits *= 2
    return xs[0] if xs else 0


def _inverse_ints(b, n):
    """(g, c) with g / c = 1 / b modulo y**n, for integers b with b[0] != 0.

    Newton iteration doubles the number of correct coefficients per step:
    if g / c = 1 / b modulo y**m and b * g = c + y**m * h modulo y**(2m),
    then 1 / b = (c * g - y**m * g * h) / c**2 modulo y**(2m).  Each step
    divides out the content, so c stays the least common denominator.
    """
    g, c, m = [1], b[0], 1
    while m < n:
        m2 = min(2 * m, n)
        h = _mul_ints(b, g, m2)[m:]
        g = [c * x for x in g] + [-x for x in _mul_ints(g, h, m2 - m)]
        c *= c
        r = math.gcd(c, *g)
        if r > 1:
            g = [x // r for x in g]
            c //= r
        m = m2
    return g, c
