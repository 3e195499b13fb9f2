import json
from fractions import Fraction

import pytest

from keyval import io as kio
from keyval.basefield import BaseFieldConfig
from keyval.izumi import CorpusConfig, canonical_witnesses, empirical_izumi, random_corpus_poly, weight_map
from keyval.keybasis import adic_expand
from keyval.oracle import PrecisionPolicy, conic_parametrization
from keyval.rewrite import raise_expansion
from keyval.parsing import parse_poly

F = Fraction
FF = BaseFieldConfig.function_field()


def test_base_round_trip():
    for base in (FF, BaseFieldConfig.p_adic(5)):
        assert kio.base_from_json(kio.base_to_json(base)) == base
    with pytest.raises(ValueError):
        kio.base_from_json({"what": 1})


def test_integer_fields_accept_strings():
    assert kio.base_from_json({"p_adic": "3"}) == BaseFieldConfig.p_adic(3)
    doc = {"defining": "x^2 - y^2 - y^3", "branch": "-y", "policy": {"initial": "8", "max": 64}}
    assert kio.parametrization_from_json(doc).policy == PrecisionPolicy(initial=8, growth=2, maximum=64)


def test_basis_round_trip(b1, b2, b3):
    for basis in (b1, b2, b3):
        doc = kio.basis_to_json(basis)
        again = kio.basis_from_json(json.loads(json.dumps(doc)))
        assert [s.U for s in again.steps] == [s.U for s in basis.steps]
        assert [s.beta for s in again.steps] == [s.beta for s in basis.steps]
        assert again.base == basis.base


def test_basis_file_round_trip(tmp_path, b2):
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(kio.basis_to_json(b2)))
    again = kio.load_basis(path)
    assert [s.U for s in again.steps] == [s.U for s in b2.steps]


def test_decimal_beta_is_read_exactly(tmp_path):
    path = tmp_path / "basis.json"
    path.write_text('{"base": "function_field", "steps": [{"U": "x", "beta": 0.1}]}')
    assert kio.load_basis(path).beta(1) == F(1, 10)


def test_expansion_round_trip(b2):
    f = parse_poly("x^5 - y*x^2 + y^3", FF)
    for i in (1, 2, 3):
        E = adic_expand(f, i, b2)
        doc = kio.expansion_to_json(E)
        assert kio.expansion_from_json(json.loads(json.dumps(doc)), FF) == E


@pytest.mark.parametrize(
    "doc, message",
    [
        ({}, "has no 'level' key"),
        ({"level": 0, "terms": {"": "1"}}, "level must be an integer of at least 1"),
        ({"level": 2, "terms": {"1": "1"}}, "is not of length 2"),
        ({"level": 1, "terms": {"1,0": "1"}}, "is not of length 1"),
        ({"level": 2, "terms": {"1,-1": "1"}}, "has a negative exponent"),
    ],
)
def test_malformed_expansion_refused(doc, message):
    with pytest.raises(ValueError, match=message):
        kio.expansion_from_json(doc, FF)


def test_parametrization_round_trip(tmp_path):
    par = conic_parametrization(PrecisionPolicy(initial=8, growth=2, maximum=64))
    doc = kio.parametrization_to_json(par)
    path = tmp_path / "par.json"
    path.write_text(json.dumps(doc))
    again = kio.load_parametrization(path)
    assert again.defining == par.defining
    assert again.branch == par.branch
    assert again.policy == par.policy


def test_trace_serialization(b1):
    E = adic_expand(parse_poly("x^4", FF), 1, b1)
    _, trace = raise_expansion(E, b1)
    doc = kio.trace_to_json(trace)
    assert [entry["weight"] for entry in doc] == ["2", "2", "2"]


def test_report_serialization_deterministic(b1):
    def run():
        report = empirical_izumi(
            weight_map(b1, 2),
            weight_map(b1, 1),
            FF,
            CorpusConfig(seed=42, samples=100),
            witnesses=canonical_witnesses(b1),
        )
        return json.dumps(kio.report_to_json(report), sort_keys=True)

    assert run() == run()


def test_ext_round_trips():
    from keyval.keybasis import WeightedBasis
    from keyval.oracle import conic_defining
    basis = WeightedBasis(
        FF,
        [(parse_poly("x", FF), F(1))],
        conic_defining(),
    )
    doc = kio.basis_to_json(basis)
    assert "ext" in doc
    again = kio.basis_from_json(doc)
    assert again.minimal == basis.minimal
