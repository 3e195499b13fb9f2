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


def test_index_not_dividing_degree_step(capsys, tmp_path):
    path = tmp_path / "index.json"
    path.write_text(json.dumps({
        "base": "function_field",
        "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^3", "beta": "2"}],
    }))
    message = "m_1 = 3 is not divisible by n_1 = 2"
    assert run(capsys, "validate", "--basis", str(path)) == (
        1, "step 1 condition (index): %s\n" % message, "")
    assert run(capsys, "groups", "--basis", str(path)) == (1, "", "error: %s\n" % message)


def test_deep_nesting_is_parse_error(capsys):
    poly = "(" * 1000 + "x" + ")" * 1000
    code, out, err = run(capsys, "gauss", "--beta", "1", "--poly", poly)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


def test_gauss(capsys):
    code, out, _ = run(capsys, "gauss", "--beta", "1/2", "--poly", "x^3 + y*x", "--json")
    assert code == 0
    assert json.loads(out) == {"value": "3/2"}


@pytest.mark.parametrize(
    "base, message",
    [
        ("5", "bad base field descriptor: 5"),
        ('"bogus"', 'bad base field descriptor: "bogus"'),
        ('{"p_adic": 9}', "p must be prime, got 9"),
        ('{"p_adic": 2305843009213693951}', "p must be below 2^31, got 2305843009213693951"),
    ],
)
def test_gauss_bad_base_is_input_error(capsys, base, message):
    code, out, err = run(capsys, "gauss", "--base", base, "--beta", "1", "--poly", "x")
    assert code == 2
    assert out == ""
    assert err == "input error: %s\n" % message


@pytest.mark.parametrize(
    "argv",
    [
        ["gauss", "--beta", "1/0", "--poly", "x"],
        ["izumi-bound", "--basis", "{b1}", "--mu-prime-x", "1/0"],
        ["izumi-bound", "--basis", "{b1}", "--mu-prime-x", "1", "--c-base", "1/0"],
    ],
    ids=["beta", "mu-prime-x", "c-base"],
)
def test_zero_denominator_flag_is_input_error(capsys, b1_path, argv):
    code, out, err = run(capsys, *[a.format(b1=b1_path) for a in argv])
    assert code == 2
    assert out == ""
    # argparse prints the usage, then one line naming the flag
    assert err.startswith("usage: keyval %s " % argv[0])
    assert err.endswith(
        "\nkeyval %s: error: argument %s: not a rational with nonzero denominator: '1/0'\n"
        % (argv[0], argv[argv.index("1/0") - 1])
    )


def test_decimal_beta_is_read_exactly(capsys, tmp_path, b1_path):
    decimal = tmp_path / "decimal.json"
    decimal.write_text(
        '{"base": "function_field", "steps": [{"U": "x", "beta": 0.5}, '
        '{"U": "x^2 - y", "beta": 1.5}]}'
    )
    argv = ["izumi-exact", "--upper", "2", "--lower", "1", "--basis"]
    assert run(capsys, *argv, str(decimal)) == run(capsys, *argv, b1_path) == (0, "3/2\n", "")


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
        pytest.param({"base": {"p_adic": [3]}, "steps": [{"U": "x", "beta": "1"}]},
                     'bad base field descriptor: {"p_adic": [3]}', id="doc7-p_adic-list"),
        pytest.param({"base": {"p_adic": 3.7}, "steps": [{"U": "x", "beta": "1"}]},
                     'bad base field descriptor: {"p_adic": "37/10"}', id="doc8-p_adic-decimal"),
        ({"base": 5, "steps": [{"U": "x", "beta": "1"}]}, "bad base field descriptor: 5"),
        ({"base": "bogus", "steps": [{"U": "x", "beta": "1"}]},
         'bad base field descriptor: "bogus"'),
        ({"base": "function_field", "steps": [{"U": "x", "beta": True}]},
         "basis step key 'beta' has the wrong type"),
        ({"base": {"p_adic": 9}, "steps": [{"U": "x", "beta": "1"}]},
         "p must be prime, got 9"),
        ({"base": "function_field",
          "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2", "beta": "1/0"}]},
         "basis step 2 key 'beta' has a zero denominator"),
        ({"base": {"p_adic": 2305843009213693951}, "steps": [{"U": "x", "beta": "1"}]},
         "p must be below 2^31, got 2305843009213693951"),
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


_PINNED = [
    pytest.param(
        ["validate", "--basis", "{b1}"], 0, "valid\n", '{"ok": true, "violations": []}\n',
        id="validate",
    ),
    pytest.param(
        ["validate", "--basis", "{violating}"], 1,
        "step 1 condition (c): weight of recurrence coefficient at U_1^0 is 1, expected 2\n",
        '{"ok": false, "violations": [{"condition": "c", "message": "weight of recurrence '
        'coefficient at U_1^0 is 1, expected 2", "step": 1}]}\n',
        id="validate-violation",
    ),
    pytest.param(
        ["expand", "--basis", "{b1}", "--poly", "x^3 + y*x", "--level", "2"], 0,
        "1,0 -> 2*y\n1,1 -> 1\n", '{"level": 2, "terms": {"1,0": "2*y", "1,1": "1"}}\n',
        id="expand",
    ),
    pytest.param(
        ["raise", "--basis", "{b1}", "--poly", "x^4", "--level", "1", "--trace"], 0,
        "0,0 -> y^2\n0,1 -> 2*y\n0,2 -> 1\ntrace weights: 2 2 2\n",
        '{"level": 2, "terms": {"0,0": "y^2", "0,1": "2*y", "0,2": "1"}, "trace": '
        '[{"terms": {"4,0": "1"}, "weight": "2"}, {"terms": {"0,0": "y^2", "0,1": "2*y", '
        '"0,2": "1"}, "weight": "2"}, {"terms": {"0,0": "y^2", "0,1": "2*y", "0,2": "1"}, '
        '"weight": "2"}]}\n',
        id="raise",
    ),
    pytest.param(
        ["lower", "--basis", "{b1}", "--poly", "x^3 + y*x", "--level", "2", "--trace"], 0,
        "1 -> y\n3 -> 1\ntrace weights: 3/2 3/2\n",
        '{"level": 1, "terms": {"1": "y", "3": "1"}, "trace": [{"terms": {"1,0": "y", '
        '"3,0": "1"}, "weight": "3/2"}, {"terms": {"1,0": "y", "3,0": "1"}, '
        '"weight": "3/2"}]}\n',
        id="lower",
    ),
    pytest.param(
        ["weight", "--basis", "{b1}", "--poly", "x^3 + y*x", "--level", "2"], 0,
        "3/2\n", '{"weight": "3/2"}\n',
        id="weight",
    ),
    pytest.param(
        ["initial", "--basis", "{b1}", "--poly", "x^3 + y*x", "--level", "2"], 0,
        "1,0 -> 2*y\n", '{"level": 2, "terms": {"1,0": "2*y"}}\n',
        id="initial",
    ),
    pytest.param(
        ["groups", "--basis", "{b2}"], 0,
        "i=1  Phi generated by 1/2  n=2  p=1  m=n holds: True\n"
        "i=2  Phi generated by 1/4  n=2  p=1  m=n holds: True\n"
        "i=3  Phi generated by 1/4  n=1  p=None  m=n holds: None\n",
        '{"steps": [{"condition_holds": true, "i": 1, "n": 2, "p": 1, "phi": "1/2"}, '
        '{"condition_holds": true, "i": 2, "n": 2, "p": 1, "phi": "1/4"}, '
        '{"condition_holds": null, "i": 3, "n": 1, "p": null, "phi": "1/4"}]}\n',
        id="groups",
    ),
    pytest.param(
        ["gauss", "--beta", "1/2", "--poly", "x^3 + y*x"], 0,
        "3/2\n", '{"value": "3/2"}\n',
        id="gauss",
    ),
    pytest.param(
        ["izumi-exact", "--basis", "{b2}", "--upper", "3", "--lower", "1"], 0,
        "11/8\n", '{"constant": "11/8"}\n',
        id="izumi-exact",
    ),
    pytest.param(
        ["izumi-bound", "--basis", "{b1}", "--mu-prime-x", "1"], 0,
        "3/2\n", '{"bound": "3/2"}\n',
        id="izumi-bound",
    ),
    pytest.param(
        ["izumi-search", "--basis", "{b1}", "--upper", "2", "--lower", "1", "--samples", "20"],
        0,
        "sup 3/2 at x^2 - y (theoretical 3/2, 20 samples, 0 skipped)\n",
        '{"samples": 20, "seed": 42, "skipped": 0, "sup_found": "3/2", '
        '"theoretical": "3/2", "witness": "x^2 - y"}\n',
        id="izumi-search",
    ),
    pytest.param(
        ["oracle", "--param", "{par}", "--poly", "x + y"], 0,
        "2\n", '{"value": "2"}\n',
        id="oracle",
    ),
    pytest.param(
        ["oracle", "--param", "{par}", "--poly", "x^2 - y^2 - y^3"], 1,
        ">= 64\n", '{"value": ">= 64"}\n',
        id="oracle-exhausted",
    ),
    pytest.param(
        ["example-conic", "--depth", "3"], 0,
        "i=1  U=x  beta=1  oracle=1\ni=2  U=x + y  beta=2  oracle=2\n"
        "i=3  U=x + (1/2*y^2 + y)  beta=3  oracle=3\n",
        '{"steps": [{"U": "x", "beta": "1", "i": 1, "oracle": "1"}, '
        '{"U": "x + y", "beta": "2", "i": 2, "oracle": "2"}, '
        '{"U": "x + (1/2*y^2 + y)", "beta": "3", "i": 3, "oracle": "3"}]}\n',
        id="example-conic",
    ),
    # Error exits print nothing to stdout, in either mode.
    pytest.param(["no-such-command"], 2, "", "", id="usage-error"),
    pytest.param(["weight", "--basis", "{b1}", "--poly", "x +", "--level", "1"], 2, "", "",
                 id="parse-error"),
    pytest.param(["validate", "--basis", "{b1}.missing"], 2, "", "", id="input-error"),
    pytest.param(["izumi-exact", "--basis", "{b1}", "--upper", "1", "--lower", "1"], 1, "", "",
                 id="math-error"),
]


@pytest.fixture()
def cli_paths(tmp_path, b1_path, b2_path):
    violating = tmp_path / "violating.json"
    violating.write_text(json.dumps({
        "base": "function_field",
        "steps": [{"U": "x", "beta": "1"}, {"U": "x^2 - y", "beta": "3"}],
    }))
    par = tmp_path / "par.json"
    par.write_text(json.dumps({
        "defining": "x^2 - y^2 - y^3",
        "branch": "-y",
        "policy": {"initial": 8, "growth": 2, "max": 64},
    }))
    return {"b1": b1_path, "b2": b2_path, "violating": str(violating), "par": str(par)}


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv, code, text, doc", _PINNED)
def test_cli_output_pinned(capsys, cli_paths, argv, code, text, doc, json_mode):
    argv = [a.format(**cli_paths) for a in argv] + (["--json"] if json_mode else [])
    assert run(capsys, *argv)[:2] == (code, doc if json_mode else text)



@pytest.mark.parametrize(
    "command, text, doc",
    [
        ("groups",
         "i=1  Phi generated by 1/3  n=3  p=1  m=n holds: True\n"
         "i=2  Phi generated by 1/6  n=2  p=None  m=n holds: None\n",
         '{"steps": [{"condition_holds": true, "i": 1, "n": 3, "p": 1, "phi": "1/3"}, '
         '{"condition_holds": null, "i": 2, "n": 2, "p": null, "phi": "1/6"}]}\n'),
        ("validate", "valid\n", '{"ok": true, "violations": []}\n'),
    ],
)
@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
def test_value_group_chain_pinned(capsys, tmp_path, command, text, doc, json_mode):
    # coprime denominators: Phi_1 = <2/3> = <1/3>, Phi_2 = <1/3, 5/2> = <1/6>
    path = tmp_path / "coprime.json"
    path.write_text(json.dumps({
        "base": "function_field",
        "steps": [{"U": "x", "beta": "2/3"}, {"U": "x^3 - y^2", "beta": "5/2"}],
    }))
    argv = [command, "--basis", str(path)] + (["--json"] if json_mode else [])
    assert run(capsys, *argv)[:2] == (0, doc if json_mode else text)
