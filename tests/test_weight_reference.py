"""Weights computed in units of 1/N against a Fraction reference.

Phi_alpha = (1/N)Z holds every weight, so keybasis computes weights as int
counts of 1/N.  The reference here takes the same minimum over the adic
expansion in Fractions, with its own valuation of the coefficients.
"""

import random
from fractions import Fraction as F

import pytest

from keyval import INF, KElem, YPoly
from keyval import io as kio
from keyval.keybasis import adic_expand, expansion_weight, initial_form, weight
from keyval.polynomials import Poly

SAMPLES = 300


def _nu(c, base):
    if base.p is None:
        def order(q):
            return next(k for k, a in enumerate(q.coeffs) if a)
        return F(order(c.num) - order(c.den))
    r, v = F(c.num.coeffs[0]) / c.den.coeffs[0], 0
    while r.numerator % base.p == 0:
        r, v = r / base.p, v + 1
    while r.denominator % base.p == 0:
        r, v = r * base.p, v - 1
    return F(v)


def _term_weights(f, i, basis):
    E = adic_expand(f, i, basis)
    return E, {
        a: _nu(c, basis.base) + sum(e * s.beta for e, s in zip(a, basis.steps))
        for a, c in E.terms.items()
    }


def _random_coeff(rng, base):
    unit = F(rng.choice([1, 2, -1, -3, 5]), rng.choice([1, 1, 2, 7]))
    v = rng.randint(-2, 3)
    if base.p is not None:
        return KElem.const(unit * F(base.p) ** v)
    c = KElem(YPoly.const(unit))
    for _ in range(abs(v)):
        c = c * KElem.gen() if v > 0 else c / KElem.gen()
    if rng.random() < 0.2:
        c = c / KElem(YPoly((1, 1)))  # a unit with a nontrivial denominator
    return c


def _random_poly(rng, base):
    deg = rng.randint(-1, 7)
    return Poly([
        _random_coeff(rng, base) if k == deg or rng.random() < 0.6 else KElem.zero()
        for k in range(deg + 1)
    ])


@pytest.fixture(scope="module")
def decimal(tmp_path_factory):
    path = tmp_path_factory.mktemp("decimal") / "decimal.json"
    path.write_text(
        '{"base": "function_field", "steps": '
        '[{"U": "x", "beta": 0.4}, {"U": "x^5 - y^2", "beta": 2.1}]}'
    )
    return kio.load_basis(str(path))


# every basis but decimal is one of tests/cli_cases.BASES
@pytest.mark.parametrize(
    "name, N",
    [("b1", 2), ("b2", 4), ("q3", 2), ("coprime", 6), ("decimal", 10), ("ydenom", 1),
     ("halves", 1), ("b1_ext", 2), ("ram", 2), ("q3b2", 4)],
)
def test_integer_weights_match_fraction_reference(request, name, N):
    basis = request.getfixturevalue(name)
    assert basis.N == N
    assert basis.beta_units == tuple(s.beta * N for s in basis.steps)
    rng = random.Random(name)
    for n in range(SAMPLES):
        f = _random_poly(rng, basis.base)
        if n % 3 == 2:
            # a multiple of a key, whose weight turns on cancellation in the digits
            f = f * basis.key(rng.randint(1, basis.alpha))
        for i in range(1, basis.alpha + 1):
            E, weights = _term_weights(f, i, basis)
            ref = min(weights.values(), default=INF)
            w = weight(f, i, basis)
            assert w is INF if ref is INF else (type(w) is F and w == ref)
            assert expansion_weight(E, basis) == ref
            if ref is INF:
                continue
            initial = {a: c for a, c in E.terms.items() if weights[a] == ref}
            assert initial_form(f, i, basis).terms == initial
