from fractions import Fraction

import pytest

from keyval import (
    AdicExpansion,
    adic_expand,
    expansion_eval,
    expansion_weight,
    lower_expansion,
    raise_expansion,
    weight,
)
from keyval.basefield import BaseFieldConfig
from keyval.errors import FuelExhaustedError, KeyvalError, LevelOutOfRangeError
from keyval.izumi import CorpusConfig, random_corpus_poly
from keyval.parsing import parse_kelem, parse_poly
from keyval.values import INF

F = Fraction
FF = BaseFieldConfig.function_field()


def p(text):
    return parse_poly(text, FF)


def k(text):
    return parse_kelem(text, FF)


def test_expansion_weight_examples(b1):
    E = AdicExpansion(1, {(3,): k("1"), (1,): k("y")})
    assert expansion_weight(E, b1) == F(3, 2)
    assert expansion_weight(AdicExpansion(2, {}), b1) is INF
    assert expansion_weight(AdicExpansion(2, {(0, 1): k("1")}), b1) == F(3, 2)
    # rewrite intermediates exceed the bound a_1 < m_1 = 2
    assert expansion_weight(AdicExpansion(2, {(3, 1): k("y")}), b1) == F(4)


def test_expansion_weight_level_check(b1):
    with pytest.raises(LevelOutOfRangeError):
        expansion_weight(AdicExpansion(3, {}), b1)


def test_raise_power_example(b1):
    E = adic_expand(p("x^4"), 1, b1)
    out, trace = raise_expansion(E, b1)
    assert out.terms == {(0, 2): k("1"), (0, 1): k("2*y"), (0, 0): k("y^2")}
    assert trace.weights == [F(2), F(2), F(2)]


def test_raise_constant_is_identity(b1):
    E = adic_expand(p("y^3"), 1, b1)
    out, trace = raise_expansion(E, b1)
    assert out.terms == {(0, 0): k("y^3")}
    assert trace.weights == [F(3)]


def test_raise_no_rewrite_needed(b1):
    E = adic_expand(p("x"), 1, b1)
    out, trace = raise_expansion(E, b1)
    assert out.terms == {(1, 0): k("1")}
    assert trace.weights == [F(1, 2)]


def test_raise_at_top_level_rejected(b1):
    with pytest.raises(LevelOutOfRangeError,
                       match=r"^need 1 <= level < 2, the basis length; got level 2$"):
        raise_expansion(adic_expand(p("x"), 2, b1), b1)


def test_lower_example(b1):
    E = AdicExpansion(2, {(1, 1): k("1"), (1, 0): k("2*y")})
    out, trace = lower_expansion(E, b1)
    assert out.terms == {(3,): k("1"), (1,): k("y")}
    assert trace.weights == [F(3, 2), F(3, 2)]


def test_lower_level_bounds(b1):
    with pytest.raises(LevelOutOfRangeError,
                       match=r"^need 2 <= level <= 2, the basis length; got level 1$"):
        lower_expansion(adic_expand(p("x"), 1, b1), b1)


def test_round_trip_small(b1, b2, q3):
    corpus = CorpusConfig(seed=23, samples=40, max_degree=6, positive_only=False)
    for basis in (b1, b2, q3):
        for j in range(corpus.samples):
            f = random_corpus_poly(basis.base, corpus, j)
            for i in range(1, basis.alpha):
                low = adic_expand(f, i, basis)
                high = adic_expand(f, i + 1, basis)
                up, _ = raise_expansion(low, basis)
                assert up == high
                down, _ = lower_expansion(high, basis)
                assert down == low


def test_traces_monotone_and_land_on_weight(b1, b2, q3):
    corpus = CorpusConfig(seed=29, samples=30, max_degree=6, positive_only=False)
    for basis in (b1, b2, q3):
        for j in range(corpus.samples):
            f = random_corpus_poly(basis.base, corpus, j)
            for i in range(1, basis.alpha):
                _, tr_up = raise_expansion(adic_expand(f, i, basis), basis)
                _, tr_dn = lower_expansion(adic_expand(f, i + 1, basis), basis)
                for tr, lvl in ((tr_up, i + 1), (tr_dn, i)):
                    ws = tr.weights
                    assert all(a <= b for a, b in zip(ws, ws[1:]))
                    assert ws[-1] == weight(f, lvl, basis)
                    assert all(expansion_eval(E, basis) == f for E, _ in tr.entries)


def test_rewrite_preserves_polynomial(b2):
    f = p("x^7 - y*x^3 + y^2")
    up, _ = raise_expansion(adic_expand(f, 2, b2), b2)
    assert expansion_eval(up, b2) == f
    down, _ = lower_expansion(adic_expand(f, 3, b2), b2)
    assert expansion_eval(down, b2) == f


def test_rewrite_rejects_undivided_degree_step(undivided):
    # deg U_3 / deg U_2 = 3/2, so m_2 is undefined and U_2 has no bound
    with pytest.raises(KeyvalError, match="step 2 has no integral degree ratio"):
        raise_expansion(adic_expand(p("x^5"), 2, undivided), undivided)
    zero, _ = raise_expansion(AdicExpansion(2, {}), undivided)
    assert zero == AdicExpansion(3, {})


def test_fuel_exhaustion(b1, monkeypatch):
    monkeypatch.setattr("keyval.rewrite._default_fuel", lambda terms, basis: 0)
    E = adic_expand(p("x^9"), 1, b1)
    with pytest.raises(FuelExhaustedError):
        raise_expansion(E, b1)


def test_lower_trace_entries_pinned(b2):
    # x^9 at level 3 has a U_3 term, so lowering substitutes the top key, then
    # makes one bounded pass on U_1 before the closing entry.
    E = adic_expand(p("x^9"), 3, b2)
    out, trace = lower_expansion(E, b2)
    substituted = {
        (0, 0, 0): k("-6*y^5"), (0, 1, 0): k("-10*y^4"), (0, 2, 0): k("-6*y^3"),
        (0, 3, 0): k("-2*y^2"), (1, 0, 0): k("-y^5 + y^4"), (1, 1, 0): k("-y^4 + 4*y^3"),
        (1, 2, 0): k("6*y^2"), (1, 3, 0): k("4*y"), (1, 4, 0): k("1"),
        (2, 0, 0): k("6*y^4"), (2, 1, 0): k("4*y^3"), (2, 2, 0): k("2*y^2"),
        (3, 0, 0): k("y^4"),
    }
    reduced = {
        (1, 0, 0): k("y^4"), (1, 1, 0): k("4*y^3"), (1, 2, 0): k("6*y^2"),
        (1, 3, 0): k("4*y"), (1, 4, 0): k("1"),
    }
    assert [(s.level, s.terms, w) for s, w in trace.entries] == [
        (3, substituted, F(9, 2)),
        (3, reduced, F(9, 2)),
        (3, reduced, F(9, 2)),
    ]
    assert out == AdicExpansion(2, {a[:-1]: c for a, c in reduced.items()})
