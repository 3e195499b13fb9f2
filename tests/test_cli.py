import json

import pytest

from keyval import io as kio
from keyval.cli import main


@pytest.fixture()
def b1_path(tmp_path, b1):
    path = tmp_path / "b1.json"
    path.write_text(json.dumps(kio.basis_to_json(b1)))
    return str(path)


@pytest.fixture()
def b2_path(tmp_path, b2):
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(kio.basis_to_json(b2)))
    return str(path)


@pytest.fixture()
def b3_path(tmp_path, b3):
    path = tmp_path / "b3.json"
    path.write_text(json.dumps(kio.basis_to_json(b3)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys, b1_path):
    code, out, _ = run(capsys, "validate", "--basis", b1_path, "--json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "violations": []}


def test_validate_reports_violation(capsys, tmp_path):
    doc = {
        "base": "function_field",
        "steps": [{"U": "x", "beta": "1"}, {"U": "x^2 - y", "beta": "3"}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", "--basis", str(path), "--json")
    assert code == 1
    parsed = json.loads(out)
    assert not parsed["ok"]
    assert parsed["violations"][0]["condition"] == "c"


def test_expand(capsys, b1_path):
    code, out, _ = run(
        capsys, "expand", "--basis", b1_path, "--poly", "x^3 + y*x", "--level", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["terms"] == {"1,0": "2*y", "1,1": "1"}


def test_weight_and_initial(capsys, b1_path):
    code, out, _ = run(
        capsys, "weight", "--basis", b1_path, "--poly", "x^3 + y*x", "--level", "2", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"weight": "3/2"}
    code, out, _ = run(
        capsys, "initial", "--basis", b1_path, "--poly", "x^3 + y*x", "--level", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["terms"] == {"1,0": "2*y"}


def test_raise_with_trace(capsys, b1_path):
    code, out, _ = run(
        capsys,
        "raise", "--basis", b1_path, "--poly", "x^4", "--level", "1", "--trace", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == {"0,0": "y^2", "0,1": "2*y", "0,2": "1"}
    assert [e["weight"] for e in doc["trace"]] == ["2", "2", "2"]


def test_lower(capsys, b1_path):
    code, out, _ = run(
        capsys, "lower", "--basis", b1_path, "--poly", "x^3 + y*x", "--level", "2", "--json"
    )
    assert code == 0
    assert json.loads(out)["terms"] == {"1": "y", "3": "1"}


def test_lower_trace_json_pinned(capsys, b2_path):
    code, out, _ = run(
        capsys, "lower", "--basis", b2_path, "--poly", "x^9", "--level", "3", "--trace", "--json"
    )
    assert code == 0
    reduced = '{"1,0,0": "y^4", "1,1,0": "4*y^3", "1,2,0": "6*y^2", "1,3,0": "4*y", "1,4,0": "1"}'
    assert out == (
        '{"level": 2, "terms": {"1,0": "y^4", "1,1": "4*y^3", "1,2": "6*y^2", "1,3": "4*y", '
        '"1,4": "1"}, "trace": [{"terms": {"0,0,0": "-6*y^5", "0,1,0": "-10*y^4", '
        '"0,2,0": "-6*y^3", "0,3,0": "-2*y^2", "1,0,0": "-y^5 + y^4", "1,1,0": "-y^4 + 4*y^3", '
        '"1,2,0": "6*y^2", "1,3,0": "4*y", "1,4,0": "1", "2,0,0": "6*y^4", "2,1,0": "4*y^3", '
        '"2,2,0": "2*y^2", "3,0,0": "y^4"}, "weight": "9/2"}, '
        '{"terms": %s, "weight": "9/2"}, {"terms": %s, "weight": "9/2"}]}\n' % (reduced, reduced)
    )


def test_groups(capsys, b2_path):
    code, out, _ = run(capsys, "groups", "--basis", b2_path, "--json")
    assert code == 0
    steps = json.loads(out)["steps"]
    assert [s["n"] for s in steps[:2]] == [2, 2]
    assert steps[0]["condition_holds"] is True


def test_gauss(capsys):
    code, out, _ = run(capsys, "gauss", "--beta", "1/2", "--poly", "x^3 + y*x", "--json")
    assert code == 0
    assert json.loads(out) == {"value": "3/2"}


def test_izumi_exact_and_bound(capsys, b2_path, b1_path):
    code, out, _ = run(
        capsys, "izumi-exact", "--basis", b2_path, "--upper", "3", "--lower", "1", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"constant": "11/8"}
    code, out, _ = run(
        capsys, "izumi-bound", "--basis", b1_path, "--mu-prime-x", "1", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"bound": "3/2"}


def test_izumi_bound_normalized_error(capsys, b1_path):
    code, _, err = run(
        capsys, "izumi-bound", "--basis", b1_path, "--mu-prime-x", "1", "--normalized"
    )
    assert code == 1
    assert "error" in err


def test_izumi_search_reproducible(capsys, b1_path):
    args = (
        "izumi-search", "--basis", b1_path, "--upper", "2", "--lower", "1",
        "--seed", "42", "--samples", "100", "--json",
    )
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["sup_found"] == "3/2"
    assert doc["witness"] == "x^2 - y"


def test_oracle(capsys, tmp_path):
    par_doc = {
        "defining": "x^2 - y^2 - y^3",
        "branch": "-y",
        "policy": {"initial": 8, "growth": 2, "max": 64},
    }
    path = tmp_path / "par.json"
    path.write_text(json.dumps(par_doc))
    code, out, _ = run(capsys, "oracle", "--param", str(path), "--poly", "x + y", "--json")
    assert code == 0
    assert json.loads(out) == {"value": "2"}
    code, out, _ = run(
        capsys, "oracle", "--param", str(path), "--poly", "x^2 - y^2 - y^3", "--json"
    )
    assert code == 1
    assert json.loads(out)["value"].startswith(">=")


def test_example_conic(capsys):
    code, out, _ = run(capsys, "example-conic", "--depth", "4", "--json")
    assert code == 0
    steps = json.loads(out)["steps"]
    assert [s["beta"] for s in steps] == ["1", "2", "3", "4"]
    assert [s["oracle"] for s in steps] == ["1", "2", "3", "4"]


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_example_conic_rejects_depth_below_one(capsys, depth):
    code, out, err = run(capsys, "example-conic", "--depth", depth)
    assert code == 2
    assert out == ""
    assert "--depth must be at least 1" in err


@pytest.mark.parametrize(
    "policy",
    [
        {"initial": 8, "growth": 1, "max": 64},
        {"initial": 0, "growth": 2, "max": 64},
        {"initial": 16, "growth": 2, "max": 8},
    ],
)
def test_oracle_rejects_degenerate_policy(capsys, tmp_path, policy):
    par_doc = {"defining": "x^2 - y^2 - y^3", "branch": "-y", "policy": policy}
    path = tmp_path / "par.json"
    path.write_text(json.dumps(par_doc))
    code, out, err = run(capsys, "oracle", "--param", str(path), "--poly", "x + y")
    assert code == 2
    assert out == ""
    assert err.startswith("input error: precision policy needs")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"base": "function_field"}, "basis has no 'steps' key"),
        ({"base": "function_field", "steps": [{"U": "x"}]}, "basis step has no 'beta' key"),
        ([{"U": "x", "beta": "1"}], "basis must be a JSON object"),
        ({"base": "function_field", "steps": {"U": "x"}}, "basis key 'steps' has the wrong type"),
        ({"base": "function_field", "steps": [{"U": 1, "beta": "1"}]},
         "basis step key 'U' has the wrong type"),
        ({"base": "function_field", "steps": [{"U": "x", "beta": "1"}], "ext": 5},
         "basis key 'ext' has the wrong type"),
        ({"base": "function_field", "steps": [{"U": "x", "beta": float("inf")}]},
         "basis step key 'beta' is not finite"),
        ({"base": {"p_adic": [3]}, "steps": [{"U": "x", "beta": "1"}]},
         "bad base field descriptor: {'p_adic': [3]}"),
        ({"base": {"p_adic": 3.7}, "steps": [{"U": "x", "beta": "1"}]},
         "bad base field descriptor: {'p_adic': 3.7}"),
        ({"base": 5, "steps": [{"U": "x", "beta": "1"}]}, "bad base field descriptor: 5"),
        ({"base": "bogus", "steps": [{"U": "x", "beta": "1"}]},
         "bad base field descriptor: 'bogus'"),
    ],
)
def test_malformed_basis_file_is_input_error(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--basis", str(path))
    assert code == 2
    assert out == ""
    assert err == "input error: %s\n" % message


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"defining": "x^2 - y^2 - y^3"}, "parametrization has no 'branch' key"),
        (["x^2 - y^2 - y^3", "-y"], "parametrization must be a JSON object"),
        ({"defining": "x^2 - y^2 - y^3", "branch": "-y", "policy": [8, 2, 64]},
         "parametrization policy must be a JSON object"),
        ({"defining": "x^2 - y^2 - y^3", "branch": "-y", "policy": {"initial": [8]}},
         "parametrization policy key 'initial' has the wrong type"),
        ({"defining": "x^2 - y^2 - y^3", "branch": "-y", "policy": {"initial": 8.9}},
         "parametrization policy key 'initial' has the wrong type"),
        ({"defining": "x^2 - y^2 - y^3", "branch": "-y", "policy": {"growth": True}},
         "parametrization policy key 'growth' has the wrong type"),
    ],
)
def test_malformed_parametrization_file_is_input_error(capsys, tmp_path, doc, message):
    path = tmp_path / "par.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "oracle", "--param", str(path), "--poly", "x + y")
    assert code == 2
    assert out == ""
    assert err == "input error: %s\n" % message


def test_rewrite_on_undivided_degree_step(capsys, tmp_path):
    doc = {
        "base": "function_field",
        "steps": [
            {"U": "x", "beta": "1/2"},
            {"U": "x^2 - y", "beta": "3/2"},
            {"U": "x^3 - y^2", "beta": "5"},
        ],
    }
    path = tmp_path / "undivided.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "raise", "--basis", str(path), "--poly", "x^5", "--level", "2")
    assert code == 1
    assert out == ""
    assert err == "error: step 2 has no integral degree ratio\n"


def test_stdin_poly(capsys, b1_path, monkeypatch):
    import io as stdlib_io

    monkeypatch.setattr("sys.stdin", stdlib_io.StringIO("x^3 + y*x"))
    code, out, _ = run(
        capsys, "weight", "--basis", b1_path, "--poly", "-", "--level", "1", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"weight": "3/2"}


def test_parse_error_exit_code(capsys, b1_path):
    code, _, err = run(
        capsys, "weight", "--basis", b1_path, "--poly", "x +", "--level", "1"
    )
    assert code == 2
    assert "parse error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "validate", "--basis", "/nonexistent.json")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_math_error_exit_code(capsys, b1_path):
    code, _, err = run(
        capsys, "izumi-exact", "--basis", b1_path, "--upper", "1", "--lower", "1"
    )
    assert code == 1
