"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  All comparisons are
exact (rational arithmetic); there are no tolerances.
"""

import json
from contextlib import contextmanager
from fractions import Fraction

import pytest

from keyval import io as kio
from keyval import (
    BaseFieldConfig,
    CorpusConfig,
    WeightedBasis,
    adic_expand,
    empirical_izumi,
    extension_bound,
    gauss_value,
    izumi_step_constant,
    key_power_weight,
    lower_expansion,
    oracle_valuation,
    raise_expansion,
    truncated_keys_from_series,
    validate_basis,
    weight,
)
from keyval.izumi import canonical_witnesses, random_corpus_poly, weight_map
from keyval.keybasis import expansion_weight
from keyval.oracle import conic_defining, conic_parametrization
from keyval.parsing import parse_poly, poly_text

F = Fraction
FF = BaseFieldConfig.function_field()
#: the bases beyond b1, b2 and b3: fixture name -> the base field it names
OTHER_BASES = {"q3": "Q_3", "q3b2": "Q_3", "ram": "Q(y)"}


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL" % (n, label))
        raise
    print("criterion %d (%s): PASS" % (n, label))


def corpus_polys(seed, count, max_degree=4, positive_only=True, base=FF):
    cfg = CorpusConfig(
        seed=seed, samples=count, max_degree=max_degree, positive_only=positive_only
    )
    return [random_corpus_poly(base, cfg, j) for j in range(count)]


def other_basis(request, name):
    """The fixture basis ``name`` and the label "name over K" for its criterion lines."""
    return request.getfixturevalue(name), "%s over %s" % (name, OTHER_BASES[name])


def key_power_weight_cases(basis):
    """Criterion 2 on every (i+1, j) and ell <= 5; returns the number of cases."""
    cases = 0
    for i_plus_1 in range(2, basis.alpha + 1):
        for j in range(1, i_plus_1):
            for ell in range(1, 6):
                formula = key_power_weight(basis, i_plus_1, ell, j)
                assert formula == weight(basis.key(i_plus_1) ** ell, j, basis)
                cases += 1
    return cases


def check_step_constant(basis, upper, lower, samples):
    """Criterion 3: the sup over the corpus and the keys reaches the step constant."""
    c = izumi_step_constant(basis, upper, lower)
    report = empirical_izumi(
        weight_map(basis, upper),
        weight_map(basis, lower),
        basis.base,
        CorpusConfig(seed=42, samples=samples),
        theoretical=c,
        witnesses=canonical_witnesses(basis),
    )
    assert report.sup_found <= c
    U = basis.key(upper)
    assert weight(U, upper, basis) == c * weight(U, lower, basis)
    assert report.sup_found == c


def check_round_trips(basis, polys):
    """Criterion 4: raise and lower invert each other, with monotone traces."""
    for f in polys:
        exps = [adic_expand(f, i, basis) for i in range(1, basis.alpha + 1)]
        wts = [expansion_weight(E, basis) for E in exps]
        for i in range(1, basis.alpha):
            up, tr_up = raise_expansion(exps[i - 1], basis)
            down, tr_dn = lower_expansion(exps[i], basis)
            assert up == exps[i] and down == exps[i - 1]
            for tr, lvl in ((tr_up, i + 1), (tr_dn, i)):
                ws = tr.weights
                assert all(a <= b for a, b in zip(ws, ws[1:]))
                assert ws[-1] == wts[lvl - 1]


def check_additivity(basis, polys):
    """Criterion 5: every weight map of the basis is additive on the pairs of polys."""
    for f, g in zip(polys[::2], polys[1::2]):
        for i in range(1, basis.alpha + 1):
            assert weight(f * g, i, basis) == weight(f, i, basis) + weight(g, i, basis)


def test_01_conic_reproduction():
    with criterion(1, "conic example reproduction"):
        par = conic_parametrization()
        assert oracle_valuation(parse_poly("x + y", FF), par) == 2
        phi = par.series_at(14)
        basis = truncated_keys_from_series(phi, 12, minimal=conic_defining())
        assert basis.alpha == 12
        for i, step in enumerate(basis.steps, start=1):
            assert step.beta == i
            assert oracle_valuation(step.U, par) == i


def test_01_arc_valuation_has_no_izumi_constant():
    with criterion(1, "the arc valuation has no Izumi constant"):
        # the conic's keys are a valid basis at every depth, and K(d, 1) = d is
        # attained by U_d: the finite key sequence and the constant need divisorial mu
        par = conic_parametrization()
        basis = truncated_keys_from_series(par.series_at(14), 12, minimal=conic_defining())
        assert validate_basis(basis) == []
        for d in range(2, 13):
            assert izumi_step_constant(basis, d, 1) == d
            U = basis.key(d)
            assert weight(U, d, basis) / weight(U, 1, basis) == d


def test_02_key_power_weight_formula(b2):
    with criterion(2, "closed-form key power weights"):
        assert key_power_weight_cases(b2) == 15


@pytest.mark.parametrize("name, cases", [("q3", 5), ("q3b2", 15), ("ram", 5)])
def test_02_key_power_weight_formula_over(request, name, cases):
    basis, label = other_basis(request, name)
    with criterion(2, "closed-form key power weights, " + label):
        assert key_power_weight_cases(basis) == cases


def test_03_step_constant_sup_search(b1, b2):
    with criterion(3, "step constants bound the empirical sup"):
        for basis, upper, lower in ((b1, 2, 1), (b2, 3, 1)):
            check_step_constant(basis, upper, lower, 10**4)


@pytest.mark.parametrize("name", OTHER_BASES)
def test_03_step_constant_sup_search_over(request, name):
    basis, label = other_basis(request, name)
    with criterion(3, "step constants bound the empirical sup, " + label):
        for upper in range(2, basis.alpha + 1):
            for lower in range(1, upper):
                check_step_constant(basis, upper, lower, 3000)


def test_04_rewrite_round_trips(b1, b2):
    with criterion(4, "rewriting round trips with monotone traces"):
        polys = corpus_polys(seed=101, count=10**3, max_degree=8, positive_only=False)
        for basis in (b1, b2):
            check_round_trips(basis, polys)


@pytest.mark.parametrize("name", OTHER_BASES)
def test_04_rewrite_round_trips_over(request, name):
    basis, label = other_basis(request, name)
    with criterion(4, "rewriting round trips with monotone traces, " + label):
        polys = corpus_polys(seed=101, count=500, max_degree=8, positive_only=False,
                             base=basis.base)
        check_round_trips(basis, polys)


def test_05_weight_additivity(b1, b2, b3):
    with criterion(5, "weight maps are additive where m_i = n_i, sufficient but not necessary"):
        polys = corpus_polys(seed=202, count=2 * 10**3, positive_only=False)
        for basis in (b1, b2):
            check_additivity(basis, polys)
        f, g = parse_poly("x - y", FF), parse_poly("x + y", FF)
        # b3 = (x, 1), (x^2 - y^2, 3) has m_1 = 2 > n_1 = 1 and is not additive
        assert weight(f * g, 2, b3) == 3
        assert weight(f, 2, b3) + weight(g, 2, b3) == 2
        # (x, 1), (x^2 + y^2, 3) has m_1 = 2 > n_1 = 1 too, and is
        e = WeightedBasis(FF, [(parse_poly("x", FF), 1), (parse_poly("x^2 + y^2", FF), 3)])
        check_additivity(e, [f, g])
        assert weight(f * g, 2, e) == 2


@pytest.mark.parametrize("name", OTHER_BASES)
def test_05_weight_additivity_over(request, name):
    basis, label = other_basis(request, name)
    with criterion(5, "weight maps are additive, " + label):
        polys = corpus_polys(seed=202, count=2 * 10**3, positive_only=False, base=basis.base)
        check_additivity(basis, polys)


def check_gauss_comparison(base):
    """ord_{3/2} <= K * ord_{1/2} on signed corpus samples, with equality at x."""
    hi, lo = F(3, 2), F(1, 2)
    x = parse_poly("x", base)
    K = extension_bound(WeightedBasis(base, [(x, hi)]), lo, 1)
    assert K == 3
    for f in corpus_polys(seed=303, count=10**3, positive_only=False, base=base):
        assert gauss_value(f, base, hi) <= K * gauss_value(f, base, lo)
    assert gauss_value(x, base, hi) == K * gauss_value(x, base, lo)


def test_06_gauss_comparison():
    with criterion(6, "Gauss valuation comparison bound"):
        check_gauss_comparison(FF)


def test_06_gauss_comparison_over_q3():
    with criterion(6, "Gauss valuation comparison bound, over Q_3"):
        check_gauss_comparison(BaseFieldConfig.p_adic(3))


def test_07_extension_bounds(b1):
    with criterion(7, "extension comparison bounds dominate"):
        bound = extension_bound(b1, F(1), F(1))
        assert bound == F(3, 2)
        lo = F(1)
        for f in corpus_polys(seed=404, count=10**3):
            assert weight(f, 2, b1) <= bound * gauss_value(f, FF, lo)
        par = conic_parametrization()
        basis = truncated_keys_from_series(par.series_at(5), 3, minimal=conic_defining())
        conic_bound = extension_bound(basis, F(1), F(1))
        assert conic_bound == 3
        checked = 0
        for f in corpus_polys(seed=505, count=10**3):
            denom = gauss_value(f, FF, lo)
            if denom <= 0:
                continue
            mu = oracle_valuation(f, par)
            assert mu <= conic_bound * denom
            checked += 1
        assert checked > 0


def test_07_extension_bound_on_basis_pairs(b1, b2, ram):
    with criterion(7, "extension bound on pairs of bases, attained at a Gauss wedge"):
        c = WeightedBasis(FF, [(parse_poly("x", FF), F(1)), (parse_poly("x - y", FF), F(3, 2))])
        bases = {"b1": b1, "b2": b2, "ram": ram, "c": c}
        assert all(validate_basis(basis) == [] for basis in bases.values())
        x, y = parse_poly("x", FF), parse_poly("y", FF)
        polys = corpus_polys(seed=36, count=300, max_degree=7, positive_only=False)
        strict = {}
        for a, A in bases.items():
            for b, B in bases.items():
                if a == b:
                    continue
                bound = extension_bound(A, weight(x, B.alpha, B), 1)
                K = max(weight(f, A.alpha, A) / weight(f, B.alpha, B)
                        for f in [s.U for s in A.steps + B.steps] + [y])
                assert bound >= K
                if bound != K:
                    strict[a, b] = (bound, K)
                for f in polys:
                    assert weight(f, A.alpha, A) <= bound * weight(f, B.alpha, B)
        # the bound is attained on 10 of the 12 pairs; these two part below a Gauss point
        assert strict == {("b1", "b2"): (F(3, 2), F(6, 5)), ("b2", "b1"): (F(11, 8), F(11, 10))}


def chained_constant(basis):
    """Criterion 8: the (3, 1) constant, checked against the chained (3, 2) and (2, 1)."""
    direct = izumi_step_constant(basis, 3, 1)
    chained = izumi_step_constant(basis, 3, 2) * izumi_step_constant(basis, 2, 1)
    assert direct == chained
    return direct


def test_08_chain_identity(b2):
    with criterion(8, "chained step constants compose exactly"):
        assert chained_constant(b2) == F(11, 8)


def test_08_chain_identity_over_q3b2(q3b2):
    with criterion(8, "chained step constants compose exactly, q3b2 over Q_3"):
        assert chained_constant(q3b2) == F(11, 8)


def test_09_infrastructure(b1, b2):
    with criterion(9, "round trips and reproducibility"):
        polys = corpus_polys(seed=606, count=10**3, max_degree=6, positive_only=False)
        for f in polys:
            assert parse_poly(poly_text(f), FF) == f
        for basis in (b1, b2):
            doc = json.dumps(kio.basis_to_json(basis), sort_keys=True)
            again = kio.basis_from_json(json.loads(doc))
            assert json.dumps(kio.basis_to_json(again), sort_keys=True) == doc
            for f in polys[:50]:
                E = adic_expand(f, basis.alpha, basis)
                edoc = kio.expansion_to_json(E)
                assert kio.expansion_from_json(json.loads(json.dumps(edoc)), FF) == E

        def search_bytes():
            report = empirical_izumi(
                weight_map(b1, 2),
                weight_map(b1, 1),
                FF,
                CorpusConfig(seed=42, samples=300),
                witnesses=canonical_witnesses(b1),
            )
            return json.dumps(kio.report_to_json(report), sort_keys=True).encode()

        assert search_bytes() == search_bytes()
