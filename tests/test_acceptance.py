"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  All comparisons are
exact (rational arithmetic); there are no tolerances.
"""

import json
from contextlib import contextmanager
from fractions import Fraction

from keyval import io as kio
from keyval import (
    BaseFieldConfig,
    CorpusConfig,
    GaussValuation,
    adic_expand,
    chain_bound,
    empirical_izumi,
    extension_bound,
    gauss_value,
    izumi_step_constant,
    key_power_weight,
    lower_expansion,
    oracle_valuation,
    raise_expansion,
    truncated_keys_from_series,
    weight,
)
from keyval.izumi import canonical_witnesses, random_corpus_poly, weight_map
from keyval.oracle import conic_defining, conic_parametrization
from keyval.parsing import parse_poly, poly_text

F = Fraction
FF = BaseFieldConfig.function_field()


@contextmanager
def criterion(n, label):
    try:
        yield
    except BaseException:
        print("criterion %d (%s): FAIL" % (n, label))
        raise
    print("criterion %d (%s): PASS" % (n, label))


def corpus_polys(seed, count, max_degree=4, positive_only=True):
    cfg = CorpusConfig(
        seed=seed, samples=count, max_degree=max_degree, positive_only=positive_only
    )
    return [random_corpus_poly(FF, cfg, j) for j in range(count)]


def test_01_conic_reproduction():
    with criterion(1, "conic example reproduction"):
        par = conic_parametrization()
        assert oracle_valuation(parse_poly("x + y", FF), par) == 2
        phi = par.series_at(14)
        result = truncated_keys_from_series(
            phi, 12, FF, conic_defining()
        )
        assert result.basis.alpha == 12
        for i, step in enumerate(result.basis.steps, start=1):
            assert step.beta == i
            assert oracle_valuation(step.U, par) == i


def test_02_key_power_weight_formula(b2):
    with criterion(2, "closed-form key power weights"):
        cases = 0
        for i_plus_1 in (2, 3):
            for j in range(1, i_plus_1):
                for ell in range(1, 6):
                    formula = key_power_weight(b2, i_plus_1, ell, j)
                    direct = weight(b2.key(i_plus_1) ** ell, j, b2)
                    assert formula == direct
                    cases += 2
        assert cases == 30


def test_03_step_constant_sup_search(b1, b2):
    with criterion(3, "step constants bound the empirical sup"):
        for basis, upper, lower in ((b1, 2, 1), (b2, 3, 1)):
            c = izumi_step_constant(basis, upper, lower)
            report = empirical_izumi(
                weight_map(basis, upper),
                weight_map(basis, lower),
                FF,
                CorpusConfig(seed=42, samples=10**4),
                theoretical=c,
                witnesses=canonical_witnesses(basis),
            )
            assert report.sup_found <= c
            U = basis.key(upper)
            assert weight(U, upper, basis) == c * weight(U, lower, basis)
            assert report.sup_found == c


def test_04_rewrite_round_trips(b1, b2):
    with criterion(4, "rewriting round trips with monotone traces"):
        from keyval.keybasis import expansion_weight

        polys = corpus_polys(seed=101, count=10**3, max_degree=8, positive_only=False)
        for basis in (b1, b2):
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


def test_05_weight_additivity(b1, b2, b3):
    with criterion(5, "weight maps are additive iff the index condition holds"):
        polys = corpus_polys(seed=202, count=2 * 10**3, positive_only=False)
        pairs = list(zip(polys[::2], polys[1::2]))
        for basis in (b1, b2):
            for f, g in pairs:
                for i in range(1, basis.alpha + 1):
                    assert weight(f * g, i, basis) == weight(f, i, basis) + weight(
                        g, i, basis
                    )
        f, g = parse_poly("x - y", FF), parse_poly("x + y", FF)
        assert weight(f * g, 2, b3) == 3
        assert weight(f, 2, b3) + weight(g, 2, b3) == 2


def test_06_gauss_comparison():
    with criterion(6, "Gauss valuation comparison bound"):
        hi = GaussValuation(FF, F(3, 2))
        lo = GaussValuation(FF, F(1, 2))
        for f in corpus_polys(seed=303, count=10**3, positive_only=False):
            assert gauss_value(f, hi) <= 3 * gauss_value(f, lo)
        x = parse_poly("x", FF)
        assert gauss_value(x, hi) == 3 * gauss_value(x, lo)


def test_07_extension_bounds(b1):
    with criterion(7, "extension comparison bounds dominate"):
        bound = extension_bound(b1, F(1), F(1))
        assert bound == F(3, 2)
        lo = GaussValuation(FF, F(1))
        for f in corpus_polys(seed=404, count=10**3):
            assert weight(f, 2, b1) <= bound * gauss_value(f, lo)
        par = conic_parametrization()
        result = truncated_keys_from_series(
            par.series_at(5), 3, FF, conic_defining()
        )
        nbound = extension_bound(result.basis, F(1), F(1), normalized=True)
        assert nbound == 3
        checked = 0
        for f in corpus_polys(seed=505, count=10**3):
            denom = gauss_value(f, lo)
            if denom <= 0:
                continue
            mu = oracle_valuation(f, par)
            assert mu <= nbound * denom
            checked += 1
        assert checked > 0


def test_08_chain_identity(b2):
    with criterion(8, "chained step constants compose exactly"):
        direct = izumi_step_constant(b2, 3, 1)
        chained = chain_bound(
            izumi_step_constant(b2, 3, 2), izumi_step_constant(b2, 2, 1)
        )
        assert direct == chained == F(11, 8)


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
