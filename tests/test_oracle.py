import fractions
import sys
from fractions import Fraction

import pytest

from keyval import (
    INF,
    BaseFieldConfig,
    Parametrization,
    Poly,
    PrecisionExhausted,
    PrecisionPolicy,
    conic_parametrization,
    oracle_valuation,
    truncated_keys_from_series,
    weight,
)
from keyval import basefield, oracle, polynomials
from keyval import series as series_module
from keyval import io as kio
from keyval.basefield import KElem, YPoly
from keyval.errors import InsufficientPrecisionError, KeyvalError
from keyval.oracle import conic_defining
from keyval.parsing import parse_poly
from keyval.series import Series, series_div_unit, series_horner

from series_refs import conic_branch_series, reference_horner, series_sqrt

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


def test_zero_is_infinite_without_lifting():
    par = conic_parametrization()
    verified = par._verified
    assert oracle_valuation(Poly.zero(), par) is INF
    assert par._verified == verified


def test_multiple_of_defining_vanishes(par):
    f = conic_defining() * p("x + 3")
    assert isinstance(oracle_valuation(f, par), PrecisionExhausted)


def test_oracle_with_fractional_coefficients(par):
    f = p("(1/(y^2))*x + 1")
    assert oracle_valuation(f, par) == -1


def _key_text(phi, k):
    """Text of x - (phi below order k), one signed monomial per nonzero coefficient."""
    text = "x"
    for m, c in enumerate(phi.coeffs[:k]):
        if c:
            text += (" + " if c < 0 else " - ") + "%s*y^%d" % (abs(c), m)
    return text


def test_long_keys_parse_and_evaluate(par):
    # keys as the benchmark sends them: long sums of Fraction monomials
    phi = conic_branch_series(150)
    for k in (40, 60, 150):
        direct = Poly.x() - Poly.const(KElem(YPoly(phi.coeffs[:k])))
        assert p(_key_text(phi, k)) == direct
    key40, key60 = p(_key_text(phi, 40)), p(_key_text(phi, 60))
    assert oracle_valuation(key40, par) == 40
    assert oracle_valuation(key40 * key60, par) == 100


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
    assert par.series_at(100) == conic_branch_series(100, sign=1)


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


def test_newton_trajectory_pinned(monkeypatch):
    # the unit divisions of each Newton step, construction included
    par, steps = _newton_steps(monkeypatch, conic_parametrization)
    assert steps == 4
    series, steps = _newton_steps(monkeypatch, lambda: par.series_at(512))
    assert steps == 5 and series == conic_branch_series(512)

    def stepped():
        fresh = conic_parametrization()
        return [fresh.series_at(prec) for prec in (40, 16, 100, 64, 130, 512)]

    series, steps = _newton_steps(monkeypatch, stepped)
    assert steps == 11 and series[-1] == conic_branch_series(512)
    f = p("(x^2 - y^2 - y^3)*(x + 1)")
    value, steps = _newton_steps(monkeypatch,
                                 lambda: oracle_valuation(f, conic_parametrization()))
    assert steps == 9 and value == PrecisionExhausted(F(512))


def quarter_conic():
    """x^2 - y^2/4 - y^3/4, whose branch -y/2*sqrt(1+y) has Fraction coefficients."""
    return Parametrization(p("x^2 - y^2/4 - y^3/4"), YPoly((0, F(-1, 2))))


def test_lift_builds_no_fractions_or_ypolys():
    # P is cleared to integer rows once, at construction, and the root stays
    # integer numerators over one denominator: the lift calls nothing in
    # basefield or fractions, not even a Fraction's numerator or denominator
    calls = []

    def watch(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in (basefield.__file__, fractions.__file__):
            calls.append(code.co_name)

    for par in (conic_parametrization(), quarter_conic()):
        sys.setprofile(watch)
        try:
            par.series_at(512)
        finally:
            sys.setprofile(None)
    assert calls == []


@pytest.mark.parametrize(
    "text, d, shift",
    [
        ("x^2/3 - (2/5)*y*x + y^3/7 + 1/2", "1", 0),
        ("x/y + y", "y", 1),
        ("x^2/(1+y) + (y/3)*x - 1/2", "1 + y", 0),
        ("x/(3*y^2) + 1/(y + y^2) - y/4", "y^2 + y^3", 2),
        ("x + y + y^2/2 - y^3/8 + 1/16*y^4", "1", 0),  # a conic key
    ],
)
def test_cleared_rows_are_integer_multiples(text, d, shift):
    f = p(text)
    rows, d_y = polynomials._cleared(f)
    assert d_y.order() == shift
    assert all(type(a) is int for row in rows for a in row)
    # the rows are one nonzero rational multiple of the coefficients of d(y) * f
    cleared = p(d) * f
    assert all(c.den == YPoly.one() for c in cleared.coeffs)
    expected = [list(c.num.coeffs) for c in cleared.coeffs]
    assert [len(row) for row in rows] == [len(row) for row in expected]
    scale = next(F(a, b) for row, ref in zip(rows, expected) for a, b in zip(row, ref) if b)
    assert scale != 0
    assert rows == [[scale * b for b in ref] for ref in expected]


def test_horner_matches_reference_on_oracle_rows():
    # the oracle's own rows: P, P', conic keys, and rows longer than the precision
    conic, quarter = conic_parametrization(), quarter_conic()
    phi = conic_branch_series(64)
    steps = truncated_keys_from_series(phi, 40).steps
    assert [s.beta for s in steps] == list(range(1, 41))  # keys of order 1..40
    keys = [s.U for s in steps]
    conic_polys = keys + [p("(x^2 - y^2 - y^3)*(x + 1)"), keys[-1] * p("1/y^3")]
    conic_rows = [conic._rows, conic._derivative] + [polynomials._cleared(f)[0] for f in conic_polys]
    long_rows = [[(-1) ** i * (i + 1) for i in range(300)], [], list(range(260))]
    cases = [(conic, conic_rows), (quarter, [quarter._rows, quarter._derivative])]
    for par, row_lists in cases:
        for prec in (16, 64, 256):
            phi = par.series_at(prec)
            for rows in row_lists + [[], long_rows]:
                assert series_horner(rows, phi) == reference_horner(rows, phi)


def _work(monkeypatch, build):
    """The result of build(), and the products, packings and Newton steps it made."""
    counts = {"products": 0, "packs": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    with monkeypatch.context() as m:
        m.setattr(Series, "__mul__", counting("products", Series.__mul__))
        m.setattr(series_module, "_pack", counting("packs", series_module._pack))
        result, steps = _newton_steps(monkeypatch, build)
    return result, (counts["products"], counts["packs"], steps)


def test_lift_work_pinned(monkeypatch):
    # every product of the lift and the valuation goes through Series.__mul__
    # and every Newton step through series_div_unit, where a tracer sees them;
    # constant products and the first inverse step pack nothing
    _, work = _work(monkeypatch, lambda: conic_parametrization().series_at(256))
    assert work == (33, 140, 8)
    f = p("(x^2 - y^2 - y^3)*(x + 1)")
    policy = PrecisionPolicy(initial=16, growth=2, maximum=256)
    value, work = _work(monkeypatch, lambda: oracle_valuation(f, conic_parametrization(policy)))
    assert value == PrecisionExhausted(F(256)) and work == (57, 154, 8)


def test_parametrizations_share_no_state():
    # lifting one parametrization neither serves nor disturbs another
    minus = conic_parametrization()
    plus = Parametrization(conic_defining(), YPoly((0, 1)), PrecisionPolicy(initial=16))
    for prec in (40, 16, 100, 64, 130):
        assert minus.series_at(prec) == conic_branch_series(prec)
        assert plus.series_at(prec) == conic_branch_series(prec, sign=1)


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


def test_policy_max_capped():
    assert PrecisionPolicy(maximum=oracle.MAX_PRECISION).maximum == 1024
    with pytest.raises(ValueError, match="max 1025 exceeds the cap 1024"):
        PrecisionPolicy(maximum=oracle.MAX_PRECISION + 1)


def test_smallest_policy_accepted():
    par = conic_parametrization(PrecisionPolicy(initial=1, growth=2, maximum=1))
    assert par.series_at(1) == conic_branch_series(1)
    assert oracle_valuation(p("1 + x"), par) == 0
    assert oracle_valuation(p("x"), par) == PrecisionExhausted(F(1))


def test_padic_base_rejected():
    doc = {"defining": "x^2 - 3", "branch": "1", "base": {"p_adic": 3}}
    with pytest.raises(KeyvalError, match="^the oracle supports function-field bases only$"):
        kio.parametrization_from_json(doc)


def test_truncation_keys_match_example(par):
    phi = par.series_at(6)
    basis = truncated_keys_from_series(phi, 4, minimal=conic_defining())
    keys = [s.U for s in basis.steps]
    assert keys == [
        p("x"),
        p("x + y"),
        p("x + y + y^2/2"),
        p("x + y + y^2/2 - y^3/8"),
    ]
    assert [s.beta for s in basis.steps] == [F(1), F(2), F(3), F(4)]


def test_truncation_weights_dominated_by_oracle(par):
    phi = par.series_at(8)
    basis = truncated_keys_from_series(phi, 5, minimal=conic_defining())
    for text in ("x + y", "x - y", "x + y^3", "y^2*x + y"):
        f = p(text)
        mu = oracle_valuation(f, par)
        ws = [weight(f, i, basis) for i in range(1, basis.alpha + 1)]
        assert all(a <= b for a, b in zip(ws, ws[1:]))
        assert all(w <= mu for w in ws)


def test_branch_with_unit_derivative():
    # x = sqrt(1 + y): P' = 2x is a unit on the branch, so ord P'(phi) = 0
    par = Parametrization(p("x^2 - 1 - y"), YPoly((1,)))
    for prec in range(1, 129):
        assert par.series_at(prec) == series_sqrt(Series((1, 1), prec))
    assert oracle_valuation(p("x - 1"), par) == 1
    assert oracle_valuation(p("x - 1 - y/2"), par) == 2
    assert oracle_valuation(p("x + 1"), par) == 0
