"""The valued coefficient field (K, nu).

Two configurations are supported: rational functions in one variable
(default ``y``) over Q with the order-of-vanishing-at-0 valuation, and Q
itself with a p-adic valuation.  Elements of both are represented by
:class:`KElem`, a reduced fraction of polynomials in the function-field
variable; p-adic elements are the constant fractions.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partial

from .errors import DivisorZeroError, KeyvalError
from .values import INF, Value, list_order

#: p-adic bases need p below this bound, so that the trial-division primality
#: test stays under 25k steps.
MAX_P = 2**31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def power(x, n: int, mul):
    """x**n for n >= 1 under the product ``mul``, reading n from its top bit down:
    floor(log2 n) squarings and popcount(n) - 1 products by x (Knuth, TAOCP 2, 4.6.3)."""
    out = x
    for bit in bin(n)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


class BaseFieldConfig:
    """Which valued field (K, nu) the computation runs over.

    ``p=None`` is Q(y) with ord_y; a prime ``p`` is Q with v_p.  ``order``
    is nu on the nonzero Q[y] coefficient list of a polynomial in y.
    """

    __slots__ = ("p", "order")

    def __init__(self, p=None):
        if p is not None:
            if p >= MAX_P:
                raise KeyvalError("p must be below 2^31, got %r" % (p,))
            if not _is_prime(p):
                raise KeyvalError("p must be prime, got %r" % (p,))
        self.p = p
        self.order = list_order if p is None else partial(padic_order, p)

    @classmethod
    def function_field(cls):
        return cls()

    @classmethod
    def p_adic(cls, p):
        return cls(p)

    def __eq__(self, other):
        return isinstance(other, BaseFieldConfig) and self.p == other.p

    def __repr__(self):
        if self.p is None:
            return "BaseFieldConfig.function_field()"
        return "BaseFieldConfig.p_adic(%d)" % self.p


def ring_sub(r, c, b):
    """r - c*b by the coefficient ring's own operators."""
    return r - c * b


def split_key(U):
    """The monic divisor list U as (deg U, [(j, U_j) for the nonzero U_j below the top])."""
    return len(U) - 1, [(j, b) for j, b in enumerate(U[:-1]) if b]


def monic_divide(f, key, sub):
    """Untrimmed quotient and remainder lists of f by a monic U, lowest first.

    ``key`` is U as :func:`split_key` splits it.  U's leading entry is one,
    so division never leaves the coefficient ring (Knuth, TAOCP 2, 4.6.1);
    ``sub(r, c, b)`` is r - c*b on the entries, and a zero entry is falsy.
    Entry k + deg U is never touched after step k, so one list ends as the
    remainder below deg U and the quotient above.
    """
    dv, lower = key
    rem = list(f)
    for k in range(len(rem) - 1 - dv, -1, -1):
        c = rem[k + dv]
        if c:
            for j, b in lower:
                rem[k + j] = sub(rem[k + j], c, b)
    return rem[dv:], rem[:dv]


class DensePoly:
    """Dense univariate polynomial: a tuple of coefficients, lowest first.

    A subclass names its coefficient ring's ``_zero`` and ``_one``, and
    ``_unit``, the one that leading coefficients are inverted against.  The
    inversion must stay exact, so over Q ``_unit`` is ``Fraction(1)`` while
    ``_one`` stays the int 1.  A coefficient or a polynomial is zero exactly when
    it is falsy.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def _make(cls, coeffs):
        # trusted constructor: coeffs is a list of ring elements
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        p = cls.__new__(cls)
        p.coeffs = tuple(coeffs)
        return p

    @classmethod
    def zero(cls):
        return cls._make([])

    @classmethod
    def one(cls):
        return cls._make([cls._one])

    @classmethod
    def const(cls, c):
        return cls((c,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def leading(self):
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.leading == self._one

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self._zero

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            if c:
                o = out[i]
                # a zero slot takes the term as it is: 0 + c is a full addition
                out[i] = o + c if o else c
        return self._make(out)

    def __neg__(self):
        return self._make([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def _scale(self, s):
        """The product by the coefficient s."""
        return self._make([c * s if c else c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, DensePoly):
            return self._scale(other)
        if not self.coeffs or not other.coeffs:
            return self._make([])
        # a product by a constant is a product by its coefficient
        if len(other.coeffs) == 1:
            return self._scale(other.coeffs[0])
        if len(self.coeffs) == 1:
            return other._scale(self.coeffs[0])
        terms = [(j, b) for j, b in enumerate(other.coeffs) if b]
        out = [self._zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in terms:
                t = a * b
                o = out[i + j]
                out[i + j] = o + t if o else t
        return self._make(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative exponent %d" % n)
        if not n:
            return self.one()
        terms = [(k, c) for k, c in enumerate(self.coeffs) if c]
        if len(terms) == 1:
            # (c t^k)^n = c^n t^(kn), without the repeated squaring
            k, c = terms[0]
            return self._make([self._zero] * (k * n) + [c**n])
        return power(self, n, operator.mul)

    def divmod(self, other):
        """Quotient and remainder by the nonzero polynomial other."""
        if not other:
            raise DivisorZeroError("division by the zero polynomial")
        if other.is_monic():
            q, r = monic_divide(self.coeffs, split_key(other.coeffs), ring_sub)
            return self._make(q), self._make(r)
        # other / lead leaves the same remainder and lead times the quotient
        inv = self._unit / other.leading
        q, r = monic_divide(self.coeffs, split_key(other._scale(inv).coeffs), ring_sub)
        return self._make(q)._scale(inv), self._make(r)

    def __eq__(self, other):
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.coeffs)


_F1 = Fraction(1)


class YPoly(DensePoly):
    """Dense univariate polynomial over Q (the function-field variable)."""

    __slots__ = ()
    _zero, _one, _unit = 0, 1, _F1

    def __init__(self, coeffs):
        # exact rationals: ints are kept as ints, everything else becomes a
        # Fraction (mixed int/Fraction arithmetic stays exact in Python)
        super().__init__(
            c if type(c) is int or type(c) is Fraction else Fraction(c) for c in coeffs
        )

    @classmethod
    def gen(cls):
        return cls((0, 1))

    def _scale(self, s):
        # a rational with denominator 1 is stored as the int it equals
        out = [c * s if c else c for c in self.coeffs]
        return self._make([
            c.numerator if type(c) is Fraction and c.denominator == 1 else c for c in out
        ])

    def order(self):
        """Index of the lowest nonzero coefficient; None for the zero poly."""
        return list_order(self.coeffs)

    def gcd(self, other):
        a, b = self, other
        # with a monomial c*y^k on one side the gcd is y^min(k, ord other)
        for m, o in ((a, b), (b, a)):
            if m and not any(m.coeffs[:-1]):
                k = min(m.degree, o.order()) if o else m.degree
                return self._make([0] * k + [1])
        while b:
            a, b = b, a.divmod(b)[1]
        return a._scale(_F1 / a.leading) if a else a


_ONE_COEFFS = (1,)
_Y_ZERO = YPoly(())
_Y_ONE = YPoly((1,))


class KElem:
    """An element of K: a reduced fraction of two YPolys, monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None or den.coeffs == _ONE_COEFFS:
            self.num = num
            self.den = _Y_ONE
            return
        if not den:
            raise DivisorZeroError("zero denominator")
        if not num:
            num, den = _Y_ZERO, _Y_ONE
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading
            if lead != 1:
                inv = _F1 / lead
                num = num * inv
                den = den * inv
            if not den.degree:
                den = _Y_ONE
        self.num = num
        self.den = den

    @classmethod
    def zero(cls):
        return cls(YPoly.zero())

    @classmethod
    def one(cls):
        return cls(YPoly.one())

    @classmethod
    def const(cls, c):
        return cls(YPoly.const(c))

    @classmethod
    def gen(cls):
        return cls(YPoly.gen())

    def __bool__(self):
        return bool(self.num.coeffs)

    def __add__(self, other):
        if self.den is other.den is _Y_ONE:
            return KElem(self.num + other.num)
        return KElem(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        if self.den is other.den is _Y_ONE:
            return KElem(self.num - other.num)
        return KElem(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return KElem(-self.num, self.den)

    def __mul__(self, other):
        if self.den is other.den is _Y_ONE:
            return KElem(self.num * other.num)
        return KElem(self.num * other.num, self.den * other.den)

    def __pow__(self, n: int):
        # powers of a coprime pair with a monic denominator are such a pair
        out = KElem(self.num**n)
        if n and self.den is not _Y_ONE:
            out.den = self.den**n
        return out

    def __truediv__(self, other):
        if not other:
            raise DivisorZeroError("division by zero in K")
        return KElem(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return isinstance(other, KElem) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "KElem(%r, %r)" % (self.num, self.den)


def base_order(a: KElem, cfg: BaseFieldConfig) -> int:
    """nu(a) of the nonzero a as an int: nu of its numerator less nu of its denominator."""
    return cfg.order(a.num.coeffs) - cfg.order(a.den.coeffs)


def padic_order(p: int, coeffs) -> int:
    """v_p of the one entry, an int or a Fraction, of the nonzero constant list coeffs."""
    if len(coeffs) > 1:
        raise KeyvalError("element is not a constant")
    n, d = coeffs[0].numerator, coeffs[0].denominator
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def base_valuation(a: KElem, cfg: BaseFieldConfig) -> Value:
    """nu(a): order at the variable for function fields, v_p for p-adic."""
    if not a:
        return INF
    return Fraction(base_order(a, cfg))
