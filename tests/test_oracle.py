from fractions import Fraction

import pytest

from keyval import (
    BaseFieldConfig,
    Parametrization,
    PrecisionExhausted,
    PrecisionPolicy,
    conic_parametrization,
    oracle_valuation,
    truncated_keys_from_series,
    weight,
)
from keyval import oracle
from keyval.basefield import YPoly
from keyval.errors import InsufficientPrecisionError, KeyvalError
from keyval.oracle import conic_branch_series, conic_defining
from keyval.parsing import parse_poly
from keyval.series import Series, series_div_unit

F = Fraction
FF = BaseFieldConfig.function_field()


def p(text):
    return parse_poly(text, FF)


@pytest.fixture(scope="module")
def par():
    return conic_parametrization()


def test_branch_series_closed_form():
    s = conic_branch_series(4)
    assert s.coeffs == (F(0), F(-1), F(-1, 2), F(1, 8))


def test_newton_matches_closed_form(par):
    for prec in (6, 8, 16, 33):
        assert par.series_at(prec) == conic_branch_series(prec)


def test_precision_soundness(par):
    # a finite order is never revised by recomputation at doubled precision
    for text in ("x + y", "x", "x^2 - y^2", "x + y + y^2/2"):
        f = p(text)
        v = oracle_valuation(f, par)
        par2 = conic_parametrization(PrecisionPolicy(initial=64, growth=2, maximum=512))
        assert oracle_valuation(f, par2) == v


def test_conic_values(par):
    assert oracle_valuation(p("x + y"), par) == 2
    assert oracle_valuation(p("x"), par) == 1
    assert oracle_valuation(p("y"), par) == 1


def test_defining_polynomial_vanishes(par):
    out = oracle_valuation(conic_defining(), par)
    assert isinstance(out, PrecisionExhausted)
    assert out.bound >= 512


def test_multiple_of_defining_vanishes(par):
    f = conic_defining() * p("x + 3")
    assert isinstance(oracle_valuation(f, par), PrecisionExhausted)


def test_oracle_with_fractional_coefficients(par):
    f = p("(1/(y^2))*x + 1")
    assert oracle_valuation(f, par) == -1


def test_lift_matches_closed_form_to_512(par):
    closed = conic_branch_series(512)
    for prec in range(1, 513):
        assert par.series_at(prec) == Series(closed.coeffs, prec)


def test_fresh_lift_to_every_small_precision():
    # each initial precision gives its own working-precision schedule
    for prec in range(1, 70):
        par = conic_parametrization(PrecisionPolicy(initial=prec))
        assert par.series_at(prec) == conic_branch_series(prec)


def test_lift_in_non_monotone_order():
    par = conic_parametrization()
    for prec in (64, 16, 33, 6, 128):
        assert par.series_at(prec) == conic_branch_series(prec)


def test_other_branch_converges():
    # the segment y pins down the second root, y*sqrt(1+y)
    par = Parametrization(conic_defining(), YPoly((0, 1)), PrecisionPolicy(initial=8))
    assert par.series_at(4).coeffs == (F(0), F(1), F(1, 2), F(-1, 8))
    assert par.series_at(100) == -conic_branch_series(100)


def _newton_steps(monkeypatch, build):
    """The result of build() and the unit divisions (Newton steps) it made."""
    calls = []

    def counting(num, den):
        calls.append(num.precision)
        return series_div_unit(num, den)

    with monkeypatch.context() as m:
        m.setattr(oracle, "series_div_unit", counting)
        return build(), len(calls)


def test_denominator_in_constant_term_converges_quadratically(monkeypatch):
    # P's constant term has a denominator its other coefficients lack; P and
    # P' must share one, or each Newton correction is off by a unit and the
    # lift converges only linearly
    branch = YPoly((0, -1))
    fraction = Parametrization(p("x^2 - y^2/(1+y)"), branch)
    cleared = Parametrization(p("(1+y)*x^2 - y^2"), branch)
    series, steps = _newton_steps(monkeypatch, lambda: fraction.series_at(128))
    expected, cleared_steps = _newton_steps(monkeypatch, lambda: cleared.series_at(128))
    assert steps <= cleared_steps
    assert series == expected
    _, steps = _newton_steps(
        monkeypatch,
        lambda: Parametrization(p("x^2 - y^2/(1+y)"), branch, PrecisionPolicy(initial=256)),
    )
    assert steps <= 10


def test_parametrizations_share_no_state():
    # lifting one parametrization neither serves nor disturbs another
    minus = conic_parametrization()
    plus = Parametrization(conic_defining(), YPoly((0, 1)), PrecisionPolicy(initial=16))
    for prec in (40, 16, 100, 64, 130):
        assert minus.series_at(prec) == conic_branch_series(prec)
        assert plus.series_at(prec) == -conic_branch_series(prec)


def test_branch_without_series_root_rejected():
    # x^2 - y has no power-series root; Newton stalls at the double point
    no_root = p("x^2 - y")
    with pytest.raises(InsufficientPrecisionError):
        Parametrization(no_root, YPoly(()), PrecisionPolicy(initial=8))


def test_nonzero_branch_without_series_root_rejected():
    # from the segment y, Newton's residual order falls instead of rising
    with pytest.raises(InsufficientPrecisionError, match="stalled"):
        Parametrization(p("x^2 - y"), YPoly((0, 1)), PrecisionPolicy(initial=8))


@pytest.mark.parametrize(
    "initial, growth, maximum",
    [(0, 2, 512), (-1, 2, 512), (16, 1, 512), (16, 0, 512), (16, 2, 15)],
)
def test_degenerate_policy_rejected(initial, growth, maximum):
    with pytest.raises(ValueError, match="precision policy needs"):
        PrecisionPolicy(initial=initial, growth=growth, maximum=maximum)


def test_smallest_policy_accepted():
    par = conic_parametrization(PrecisionPolicy(initial=1, growth=2, maximum=1))
    assert par.series_at(1) == conic_branch_series(1)
    assert oracle_valuation(p("1 + x"), par) == 0
    assert oracle_valuation(p("x"), par) == PrecisionExhausted(F(1))


def test_padic_base_rejected():
    with pytest.raises(KeyvalError):
        Parametrization(
            conic_defining(), YPoly((0, -1)), base=BaseFieldConfig.p_adic(3)
        )


def test_truncation_keys_match_example(par):
    phi = par.series_at(6)
    result = truncated_keys_from_series(
        phi, 4, FF, conic_defining()
    )
    keys = [s.U for s in result.basis.steps]
    assert keys == [
        p("x"),
        p("x + y"),
        p("x + y + y^2/2"),
        p("x + y + y^2/2 - y^3/8"),
    ]
    assert [s.beta for s in result.basis.steps] == [F(1), F(2), F(3), F(4)]


def test_truncation_weights_dominated_by_oracle(par):
    phi = par.series_at(8)
    result = truncated_keys_from_series(
        phi, 5, FF, conic_defining()
    )
    basis = result.basis
    for text in ("x + y", "x - y", "x + y^3", "y^2*x + y"):
        f = p(text)
        mu = oracle_valuation(f, par)
        ws = [weight(f, i, basis) for i in range(1, basis.alpha + 1)]
        assert all(a <= b for a, b in zip(ws, ws[1:]))
        assert all(w <= mu for w in ws)
