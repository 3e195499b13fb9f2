"""The valued coefficient field (K, nu).

Two configurations are supported: rational functions in one variable
(default ``y``) over Q with the order-of-vanishing-at-0 valuation, and Q
itself with a p-adic valuation.  Elements of both are represented by
:class:`KElem`, a reduced fraction of polynomials in the function-field
variable; p-adic elements are the constant fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DivisorZeroError, KeyvalError
from .values import INF, Value

NEG_INF = float("-inf")
FUNCTION_FIELD = "function_field"
P_ADIC = "p_adic"
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


class BaseFieldConfig:
    """Which valued field (K, nu) the computation runs over."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in (FUNCTION_FIELD, P_ADIC):
            raise KeyvalError("unknown base field kind: %r" % (kind,))
        if kind == P_ADIC:
            if p is not None and p >= MAX_P:
                raise KeyvalError("p must be below 2^31, got %r" % (p,))
            if p is None or not _is_prime(p):
                raise KeyvalError("p must be prime, got %r" % (p,))
        elif p is not None:
            raise KeyvalError("the function field takes no p, got %r" % (p,))
        self.kind = kind
        self.p = p

    @classmethod
    def function_field(cls):
        return cls(FUNCTION_FIELD)

    @classmethod
    def p_adic(cls, p):
        return cls(P_ADIC, p=p)

    def __eq__(self, other):
        return (
            isinstance(other, BaseFieldConfig)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __repr__(self):
        if self.kind == P_ADIC:
            return "BaseFieldConfig.p_adic(%d)" % self.p
        return "BaseFieldConfig.function_field()"


class DensePoly:
    """Dense univariate polynomial: a tuple of coefficients, lowest first.

    A subclass names its coefficient ring's ``_zero`` and ``_one``, and
    ``_unit``, the one that leading coefficients are inverted against.  The
    inversion must stay exact, so over Q ``_unit`` is ``Fraction(1)`` while
    ``_one`` stays the int 1.  A coefficient is zero exactly when it is falsy.
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
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

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
            out[i] += c
        return self._make(out)

    def __neg__(self):
        return self._make([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, DensePoly):
            return self._make([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return self._make([])
        out = [self._zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return self._make(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def divmod(self, other):
        """Quotient and remainder by the nonzero polynomial other."""
        if other.is_zero():
            raise DivisorZeroError("division by the zero polynomial")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        if dd < dv:
            return self.zero(), self._make(rem)
        monic = other.is_monic()
        inv = None if monic else self._unit / other.leading
        # the leading entry rem[k + dv] is never read again after iteration k,
        # so the subtraction loop stops short of it
        lower = [(j, b) for j, b in enumerate(other.coeffs[:-1]) if b]
        quo = [self._zero] * (dd - dv + 1)
        for k in range(dd - dv, -1, -1):
            c = rem[k + dv] if monic else rem[k + dv] * inv
            if c:
                quo[k] = c
                for j, b in lower:
                    rem[k + j] -= c * b
        return self._make(quo), self._make(rem[:dv])

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

    def order(self):
        """Index of the lowest nonzero coefficient; None for the zero poly."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return None

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * (_F1 / a.leading)

    def shift(self, k):
        """Multiply by variable**k."""
        if self.is_zero():
            return self
        return self._make(list((0,) * k + self.coeffs))


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
        if den.is_zero():
            raise DivisorZeroError("zero denominator")
        if num.is_zero():
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

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num.coeffs)

    def is_constant(self):
        return self.num.degree <= 0 and self.den.degree <= 0

    def as_fraction(self) -> Fraction:
        if not self.is_constant():
            raise KeyvalError("element is not a constant")
        if self.is_zero():
            return Fraction(0)
        return Fraction(self.num.coeffs[0]) / self.den.coeffs[0]

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
        if isinstance(other, (int, Fraction)):
            return KElem(self.num * other, self.den)
        if self.den is other.den is _Y_ONE:
            return KElem(self.num * other.num)
        return KElem(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.is_zero():
            raise DivisorZeroError("division by zero in K")
        return KElem(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        return isinstance(other, KElem) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return "KElem(%r, %r)" % (self.num, self.den)


def _padic_val(r: Fraction, p: int) -> Value:
    if r == 0:
        return INF
    v = 0
    n = r.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = r.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return Fraction(v)


def base_valuation(a: KElem, cfg: BaseFieldConfig) -> Value:
    """nu(a): order at the variable for function fields, v_p for p-adic."""
    if a.is_zero():
        return INF
    if cfg.kind == FUNCTION_FIELD:
        return Fraction(a.num.order() - a.den.order())
    return _padic_val(a.as_fraction(), cfg.p)
