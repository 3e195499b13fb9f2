"""Truncated power series over Q with explicit precision tracking.

A series stores coefficients for powers 0 .. P-1 of the function-field
variable and represents an element known modulo O(y^P).  Arithmetic
propagates the precision: sums keep the smaller precision, and products
shift it by the known order of the other factor.

The coefficients are stored as integer numerators over one denominator:
``nums`` holds one integer per known coefficient, so the precision is
``len(nums)``; ``den`` is positive, and ``gcd(den, *nums) == 1``, so equal
series have equal fields.  No operation builds Fractions; ``coeffs`` does,
for readers of single coefficients.

The kernels work on packed integers (Kronecker substitution): a list of
signed integers becomes one big integer with one digit per coefficient, so
a single big-integer product yields every coefficient of a product.
``_pack(xs, width)`` writes each digit plus half the digit base into width
bytes, and ``_unpack(x, width, n)`` reads that layout back; a digit outside
[-half, half) raises OverflowError instead of corrupting its neighbour.  A
product packs each operand once, and a product by a constant packs nothing:
it scales the other operand's numerators.  ``series_div_unit`` divides
only above the numerator's known order k, to precision p - k, and puts k
zeros in front: it inverts the denominator by Newton iteration to p - k and
multiplies the numerator by that inverse once.  ``series_horner`` evaluates
the integer rows in Z[y] of ``polynomials._cleared`` at a series by Horner's
rule on ``Series`` products.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BadConstantTermError
from .values import list_order


_ZERO = Fraction(0)


def _check_precision(precision):
    # a negative precision would slice coefficients off the end
    if precision < 0:
        raise ValueError("precision must be at least 0, got %d" % precision)


class Series:
    """A series modulo y**precision, its precision the number of stored numerators."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs, precision):
        """The series with these int or Fraction coefficients, modulo y**precision."""
        _check_precision(precision)
        coeffs = list(coeffs)[:precision]
        # the least common denominator of reduced fractions leaves no content
        den = math.lcm(*[c.denominator for c in coeffs])
        nums = [c.numerator * (den // c.denominator) for c in coeffs]
        self.nums = nums + [0] * (precision - len(nums))
        self.den = den

    @classmethod
    def _make(cls, nums, den):
        """The series nums / den modulo y**len(nums), for a positive den."""
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
        s = cls.__new__(cls)
        s.nums, s.den = nums, den
        return s

    @classmethod
    def zero(cls, precision):
        return cls((), precision)

    @property
    def precision(self):
        return len(self.nums)

    @property
    def coeffs(self):
        """The precision coefficients as Fractions, lowest first."""
        den = self.den
        return tuple(Fraction(n, den) if n else _ZERO for n in self.nums)

    def known_order(self):
        """Index of the first nonzero stored coefficient, or the precision."""
        o = list_order(self.nums)
        return self.precision if o is None else o

    def __add__(self, other):
        # the sum keeps the smaller precision: zip stops at the shorter nums
        da, db = self.den, other.den
        den = da // math.gcd(da, db) * db
        sa, sb = den // da, den // db
        return Series._make([x * sa + z * sb for x, z in zip(self.nums, other.nums)], den)

    def __neg__(self):
        return Series._make([-x for x in self.nums], self.den)

    def __mul__(self, other):
        # a product with a number, either way round, is a TypeError
        if not isinstance(other, Series):
            return NotImplemented
        p = min(self.precision + other.known_order(), other.precision + self.known_order())
        return Series._make(_mul_ints(self.nums, other.nums, p), self.den * other.den)

    __rmul__ = __mul__

    def cut(self, precision):
        """The stored coefficients as a polynomial, modulo y**precision.

        A higher precision pads with zeros, a lower one truncates.
        """
        _check_precision(precision)
        nums = self.nums[:precision]
        return Series._make(nums + [0] * (precision - len(nums)), self.den)

    def shift(self, k):
        """Divide by variable**-k, for 0 <= -k <= the known order."""
        o = self.known_order()
        if not -o <= k <= 0:
            raise ValueError("shift needs 0 <= -k <= the known order %d, got k=%d" % (o, k))
        return Series._make(self.nums[-k:], self.den)

    def __eq__(self, other):
        return isinstance(other, Series) and self.den == other.den and self.nums == other.nums

    def __repr__(self):
        return "Series(%r, precision=%d)" % (list(self.coeffs), self.precision)


def series_div_unit(num: Series, den: Series) -> Series:
    """num / den for a unit denominator (nonzero constant term)."""
    if not den.nums or den.nums[0] == 0:
        raise BadConstantTermError("denominator is not a unit")
    p = min(num.precision, den.precision)
    # num = y**k * a for num's known order k, so num / den = y**k * (a / den)
    k = min(num.known_order(), p)
    q = p - k
    a, b = num.nums[k:p], den.nums
    g, c = _inverse_ints(b, q)
    nums = [0] * k + _mul_ints(a, g, q)
    # num / den = (a / da) * (db / b)
    db = den.den
    if db != 1:
        nums = [x * db for x in nums]
    return Series._make(nums, num.den * c)


def series_horner(rows: list[list[int]], phi: Series) -> Series:
    """The polynomial with these integer coefficient rows evaluated at phi, at phi's precision.

    Each Horner step is one ``Series`` product, so whatever counts calls of
    ``Series.__mul__`` counts the products of an evaluation too.
    """
    p = phi.precision
    if not rows:
        return Series.zero(p)
    total = Series(rows[-1], p)
    for row in reversed(rows[:-1]):
        # the product keeps at least precision p, as total and phi have it
        prod = total * phi
        nums, den = prod.nums[:p], prod.den
        for i, c in enumerate(row[:p]):
            nums[i] += c * den
        total = Series._make(nums, den)
    return total


# ------------------------------------------------------------ integer kernels
#
# A list of n signed integers is packed as n digits of width bytes, each
# x in -half <= x < half for half = 2**(8 * width - 1).  _pack joins the
# bytes of each x + half and subtracts _offset, half in every digit; _unpack
# adds _offset back, masks the low n digits and cuts them apart.  to_bytes
# raises OverflowError on a digit out of range.


def _offset(width, n):
    """Half the digit base in each of n digits of width bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(xs, width):
    """sum(x * 256**(width * i)) for the signed digits xs of width bytes."""
    half = 1 << (8 * width - 1)
    data = b"".join([(x + half).to_bytes(width, "little") for x in xs])
    return int.from_bytes(data, "little") - _offset(width, len(xs))


def _unpack(x, width, n):
    """The low n signed digits of width bytes of the packed integer x."""
    mask = (1 << (8 * width * n)) - 1
    data = ((x + _offset(width, n)) & mask).to_bytes(width * n, "little")
    half = 1 << (8 * width - 1)
    cuts = range(0, width * n, width)
    return [int.from_bytes(data[i : i + width], "little") - half for i in cuts]


def _mul_ints(a, b, n):
    """The first n coefficients of the product of integer coefficient lists.

    Each list is packed into one integer with a digit width that holds any
    signed product coefficient, the two integers are multiplied once, and
    the low n signed digits are read back.  A product by a constant is a
    product by its coefficient.
    """
    a, b = a[:n], b[:n]
    if not any(b[1:]):
        a, b = b, a
    if not any(a[1:]):
        c = a[0] if a else 0
        return [c * x for x in b] + [0] * (n - len(b))
    ma = max(map(abs, a))
    mb = max(map(abs, b))
    # |coefficient| <= min(len) * ma * mb < 2**(bits - 1)
    bits = ma.bit_length() + mb.bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8
    return _unpack(_pack(a, width) * _pack(b, width), width, n)


def _inverse_ints(b, n):
    """(g, c) with g / c = 1 / b modulo y**n and c > 0, for integers b with b[0] != 0.

    Newton iteration doubles the number of correct coefficients per step:
    if g / c = 1 / b modulo y**m and b * g = c + y**m * h modulo y**(2m),
    then 1 / b = (c * g - y**m * g * h) / c**2 modulo y**(2m).  Each step
    divides out the content, so c stays the least common denominator.
    """
    g, c, m = [1 if b[0] > 0 else -1], abs(b[0]), 1
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
