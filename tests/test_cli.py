import argparse
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import keyval
from keyval import cli
from keyval.cli import MAX_SAMPLES, main
from keyval.oracle import MAX_PRECISION, PrecisionPolicy

import cli_cases
from conftest import alarm
from seed_texts import VALID_TEXTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def case_paths(tmp_path_factory):
    return cli_cases.write_files(tmp_path_factory.mktemp("cases"))


def replay(capsys, paths, case, json_mode):
    """(code, stdout, stderr) of case in-process, and the pinned triple.

    A case whose stderr is not pinned (None) has its stderr read as None.
    """
    argv, *pinned = cli_cases.runs(case, paths)[json_mode]
    code, out, err = run(capsys, *argv)
    return (code, out, None if pinned[2] is None else err), tuple(pinned)


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case", cli_cases.CASES, ids=lambda case: case.id)
def test_cli_output_pinned(capsys, case_paths, case, json_mode):
    got, pinned = replay(capsys, case_paths, case, json_mode)
    assert got == pinned


def test_every_subcommand_and_exit_code_has_a_case():
    # the console script is checked on the table's cases only, so a new
    # subcommand needs a case there
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) <= {case.argv[0] for case in cli_cases.CASES}
    assert {case.code for case in cli_cases.CASES if case.err is not None} == {0, 1, 2}


def test_parser_is_built_once_and_reused(capsys, case_paths):
    cli.build_parser.cache_clear()
    cases = {case.id: case for case in cli_cases.CASES}
    for name, json_mode in [("usage-error", False), ("parse-error", False), ("weight", False),
                            ("raise", True), ("groups", False)]:
        got, pinned = replay(capsys, case_paths, cases[name], json_mode)
        assert got == pinned
    assert cli.build_parser.cache_info().misses == 1


def test_parse_error_exit_code(capsys, case_paths):
    code, _, err = run(
        capsys, "weight", "--basis", case_paths["{b1}"], "--poly", "x +", "--level", "1"
    )
    assert code == 2
    assert "parse error" in err


def test_deep_nesting_is_parse_error(capsys):
    poly = "(" * 1000 + "x" + ")" * 1000
    code, out, err = run(capsys, "gauss", "--beta", "1", "--poly", poly)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


def test_power_over_the_degree_cap_is_parse_error(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "gauss", "--beta", "1", "--poly", "x^1000000000")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (
        2, "", "parse error: power of degree 1000000000 exceeds the cap 1000000 (at position 2)\n")


def test_power_over_the_bit_cap_is_parse_error(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "gauss", "--beta", "1", "--poly", "3^100000000")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (
        2, "", "parse error: power with 200000000-bit coefficients exceeds the cap 10000000 "
        "(at position 2)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["gauss", "--beta", "1/0", "--poly", "x"],
        ["izumi-bound", "--basis", "{b1}", "--mu-prime-x", "1/0"],
        ["izumi-bound", "--basis", "{b1}", "--mu-prime-x", "1", "--c-base", "1/0"],
    ],
    ids=["beta", "mu-prime-x", "c-base"],
)
def test_zero_denominator_flag_is_input_error(capsys, case_paths, argv):
    code, out, err = run(capsys, *[a.format(b1=case_paths["{b1}"]) for a in argv])
    assert code == 2
    assert out == ""
    # argparse prints the usage, then one line naming the flag
    assert err.startswith("usage: keyval %s " % argv[0])
    assert err.endswith(
        "\nkeyval %s: error: argument %s: not a rational with nonzero denominator: '1/0'\n"
        % (argv[0], argv[argv.index("1/0") - 1])
    )


_EXPONENT_CAP = "a rational's exponent may be at most 4000 in absolute value"


@pytest.mark.parametrize(
    "argv, err",
    [
        (["gauss", "--beta", "1e10000000", "--poly", "x"],
         "keyval gauss: error: argument --beta: %s\n" % _EXPONENT_CAP),
        (["izumi-bound", "--basis", "{b1}", "--mu-prime-x", "1e-10000000"],
         "keyval izumi-bound: error: argument --mu-prime-x: %s\n" % _EXPONENT_CAP),
        (["validate", "--basis", "{string_beta}"], "parse error: %s\n" % _EXPONENT_CAP),
        (["validate", "--basis", "{ignored_number}"], "parse error: %s\n" % _EXPONENT_CAP),
    ],
    ids=["beta", "mu-prime-x", "string-beta", "ignored-number"],
)
def test_rational_exponent_over_the_cap_fails_fast(capsys, tmp_path, case_paths, argv, err):
    # Fraction alone spends seconds on 10**10000000, so a missing cap fails the clock
    string_beta = tmp_path / "string_beta.json"
    string_beta.write_text(
        '{"base": "function_field", "steps": [{"U": "x", "beta": "1e10000000"}]}')
    ignored_number = tmp_path / "ignored_number.json"
    ignored_number.write_text(
        '{"base": "function_field", "steps": [{"U": "x", "beta": 1}], "note": 1e10000000}')
    paths = {"b1": case_paths["{b1}"], "string_beta": string_beta, "ignored_number": ignored_number}
    start = time.perf_counter()
    code, out, got = run(capsys, *[a.format(**paths) for a in argv])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert got.endswith(err)


@pytest.mark.parametrize("text", ["1e300", "0.1", "1.5", "3/2", "1e-4000"])
def test_rational_flags_are_read_exactly(capsys, text):
    assert run(capsys, "gauss", "--beta", text, "--poly", "x") == (0, "%s\n" % Fraction(text), "")


def test_izumi_bound_normalized_error(capsys, case_paths):
    # the extension bound is never above the integral-weight formula, so no flag selects it
    code, out, err = run(
        capsys, "izumi-bound", "--basis", case_paths["{b1}"], "--mu-prime-x", "1", "--normalized"
    )
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --normalized" in err


# stdout of izumi-search --samples 400 on the benchmark's five level pairs,
# recorded before weights were computed from the U-adic digits; %d is the seed
IZUMI_SEARCH_STDOUT = {
    ("b1", 2, 1): (
        "sup 3/2 at x^2 - y (theoretical 3/2, 400 samples, 0 skipped)\n",
        '{"samples": 400, "seed": %d, "skipped": 0, "sup_found": "3/2", '
        '"theoretical": "3/2", "witness": "x^2 - y"}\n',
    ),
    ("b2", 2, 1): (
        "sup 5/4 at x^2 - y (theoretical 5/4, 400 samples, 0 skipped)\n",
        '{"samples": 400, "seed": %d, "skipped": 0, "sup_found": "5/4", '
        '"theoretical": "5/4", "witness": "x^2 - y"}\n',
    ),
    ("b2", 3, 1): (
        "sup 11/8 at x^4 - 2*y*x^2 + y^2*x + y^2 (theoretical 11/8, 400 samples, 0 skipped)\n",
        '{"samples": 400, "seed": %d, "skipped": 0, "sup_found": "11/8", '
        '"theoretical": "11/8", "witness": "x^4 - 2*y*x^2 + y^2*x + y^2"}\n',
    ),
    ("b2", 3, 2): (
        "sup 11/10 at x^4 - 2*y*x^2 + y^2*x + y^2 (theoretical 11/10, 400 samples, 0 skipped)\n",
        '{"samples": 400, "seed": %d, "skipped": 0, "sup_found": "11/10", '
        '"theoretical": "11/10", "witness": "x^4 - 2*y*x^2 + y^2*x + y^2"}\n',
    ),
    ("q3", 2, 1): (
        "sup 3/2 at x^2 - 3 (theoretical 3/2, 400 samples, 0 skipped)\n",
        '{"samples": 400, "seed": %d, "skipped": 0, "sup_found": "3/2", '
        '"theoretical": "3/2", "witness": "x^2 - 3"}\n',
    ),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("combo", sorted(IZUMI_SEARCH_STDOUT), ids=str)
def test_izumi_search_stdout_is_byte_identical(capsys, case_paths, combo, seed):
    basis, upper, lower = combo
    argv = ("izumi-search", "--basis", case_paths["{%s}" % basis], "--upper", str(upper),
            "--lower", str(lower), "--seed", str(seed), "--samples", "400")
    text, as_json = IZUMI_SEARCH_STDOUT[combo]
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--json") == (0, as_json % seed, "")


@pytest.mark.parametrize(
    "policy",
    [
        {"initial": 8, "growth": 1, "max": 64},
        {"initial": 0, "growth": 2, "max": 64},
        {"initial": 16, "growth": 2, "max": 8},
    ],
)
def test_oracle_rejects_degenerate_policy(capsys, tmp_path, policy):
    path = _write(tmp_path, {"defining": "x^2 - y^2 - y^3", "branch": "-y", "policy": policy})
    code, out, err = run(capsys, "oracle", "--param", path, "--poly", "x + y")
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
    code, out, err = run(capsys, "validate", "--basis", _write(tmp_path, doc))
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
    code, out, err = run(capsys, "oracle", "--param", _write(tmp_path, doc), "--poly", "x + y")
    assert code == 2
    assert out == ""
    assert err == "input error: %s\n" % message


def test_stdin_poly(capsys, case_paths, monkeypatch):
    import io as stdlib_io

    monkeypatch.setattr("sys.stdin", stdlib_io.StringIO("x^3 + y*x"))
    code, out, _ = run(
        capsys, "weight", "--basis", case_paths["{b1}"], "--poly", "-", "--level", "1", "--json"
    )
    assert code == 0
    assert json.loads(out) == {"weight": "3/2"}


@pytest.mark.parametrize(
    "command, message",
    [
        (["izumi-search", "--basis", "{b1}", "--upper", "2", "--lower", "1",
          "--samples", str(MAX_SAMPLES + 1)],
         "--samples %d exceeds the cap %d" % (MAX_SAMPLES + 1, MAX_SAMPLES)),
        (["izumi-search", "--basis", "{b1}", "--upper", "2", "--lower", "1", "--samples", "0"],
         "--samples must be at least 1, got 0"),
        (["izumi-search", "--basis", "{b1}", "--upper", "2", "--lower", "1", "--samples", "-5"],
         "--samples must be at least 1, got -5"),
        (["example-conic", "--depth", str(PrecisionPolicy.maximum - 1)],
         "--depth 511 exceeds the cap 510"),
        (["oracle", "--param", "{par}", "--poly", "x"],
         "precision policy max %d exceeds the cap %d" % (MAX_PRECISION + 1, MAX_PRECISION)),
    ],
    ids=["samples", "samples-zero", "samples-negative", "depth", "policy-max"],
)
def test_over_budget_input_fails_fast(capsys, tmp_path, case_paths, command, message):
    par = _write(tmp_path, {"defining": "x^2 - y^2 - y^3", "branch": "-y",
                            "policy": {"max": MAX_PRECISION + 1}})
    argv = [a.format(b1=case_paths["{b1}"], par=par) for a in command]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "input error: %s\n" % message)


def test_dense_power_over_the_budget_fails_fast(capsys, case_paths):
    with alarm(5, "refusing (x+1)^1000000"):
        code, out, err = run(capsys, "weight", "--basis", case_paths["{onekey}"], "--level", "1",
                             "--poly", "(x+1)^1000000")
    assert (code, out) == (2, "")
    assert err == ("parse error: power with an estimated 2000002000000-bit result exceeds "
                   "the cap 10000000 (at position 6)\n")


def test_power_in_x_and_y_over_the_budget_fails_fast(capsys, case_paths):
    with alarm(5, "refusing (x+y+1)^2000"):
        code, out, err = run(capsys, "weight", "--basis", case_paths["{onekey}"], "--level", "1",
                             "--poly", "(x+y+1)^2000")
    assert (code, out) == (2, "")
    assert err == ("parse error: power with an estimated 12018006000-bit result exceeds "
                   "the cap 10000000 (at position 8)\n")


def test_runtime_imports_only_the_standard_library():
    # site hooks may preload third-party modules, so only modules that
    # importing keyval adds are checked
    script = (
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import keyval\n"
        "for m in pkgutil.iter_modules(keyval.__path__):\n"
        "    importlib.import_module('keyval.' + m.name)\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(added - set(sys.stdlib_module_names) - {'keyval'}))\n"
    )
    src = str(Path(keyval.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from keyval import *", namespace)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
    assert all(hasattr(keyval, name) for name in keyval.__all__)
    assert set(keyval.__all__) <= set(namespace)


# Parametrization files for the fuzz below: defining polynomials from the
# parser's seed texts, constants and 0 among them, two with a series root on
# some branch, and small policies, some of them degenerate.
_DEFINING = VALID_TEXTS + ["0", "1", "-3/4", "y", "x^2 - y^2 - y^3", "x^2 - 1 - y"]
_BRANCHES = ["0", "1", "-1", "y", "-y", "2 + y", "y^2", "1/2*y"]
_POLYS = VALID_TEXTS + ["0", "x", "x + y", "x^2 - y^2 - y^3"]


@st.composite
def parametrization_docs(draw):
    initial = draw(st.integers(0, 16))
    policy = {"initial": initial, "growth": draw(st.integers(1, 6)),
              "max": draw(st.integers(max(initial - 1, 0), 64))}
    return {"defining": draw(st.sampled_from(_DEFINING)),
            "branch": draw(st.sampled_from(_BRANCHES)), "policy": policy}


@pytest.fixture(scope="module")
def par_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "par.json"


@settings(max_examples=600, deadline=None, derandomize=True)
@given(doc=parametrization_docs(), poly=st.sampled_from(_POLYS), as_json=st.booleans())
def test_oracle_on_generated_parametrizations_fails_cleanly(par_file, doc, poly, as_json):
    # every call exits 0, 1 or 2 within the alarm, prints no traceback, and
    # prints nothing on stdout when it fails
    par_file.write_text(json.dumps(doc))
    argv = ["oracle", "--param", str(par_file), "--poly=" + poly] + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    with alarm(10, "%r on %r" % (argv, doc)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (doc, poly)
    assert "Traceback" not in err.getvalue(), (doc, poly)
    if out.getvalue():
        # a value, or with exit 1 the bound that an exhausted precision reached
        assert (code == 0 or ">=" in out.getvalue()) and err.getvalue() == "", (doc, poly)
    else:
        assert code and err.getvalue().startswith(("error: ", "input error: ")), (doc, poly)


# Basis files and argv for the fuzz below.  The basis files hold either one
# of the fixture bases or steps built from the parser's seed texts and real
# keys, with betas of every JSON type, good and bad base descriptors and an
# optional ext; some are malformed documents.  The argv runs every
# subcommand with valid and invalid flag values, leaves out a required flag
# now and then, and names the generated basis file, a parametrization of
# the conic or a missing file wherever a file is read.
_KEYS = VALID_TEXTS + ["x", "x - y", "x^2 - y", "x^2 - 3", "x^2 - y^2", "(x^2 - y)^2 + x*y^2",
                       "0", "1"]
_BETAS = ["1/2", "3/2", "5/4", "11/4", "3", "0", "-1", "1/0", "x", "", 1, 3, 0, -2, 0.5, 1e300,
          float("inf"), float("nan"), True, None, [1], {"beta": 1}]
_BASE_DOCS = ["function_field", {"p_adic": 3}, {"p_adic": "2"}, {"p_adic": 4}, {"p_adic": True},
              {"p_adic": 2**31 + 11}, "p_adic", 7, None]
_FIXTURE_BASES = [
    ("function_field", [("x", "1/2"), ("x^2 - y", "3/2")]),
    ("function_field", [("x", "1/2"), ("x^2 - y", "5/4"), ("(x^2 - y)^2 + x*y^2", "11/4")]),
    ("function_field", [("x", "1"), ("x^2 - y^2", "3")]),
    ({"p_adic": 3}, [("x", "1/2"), ("x^2 - 3", "3/2")]),
]
_EXTS = ["x^2 - y^2 - y^3", "x^2 - y - y^2", "x^4 - y^3", "x^2 - 3", "x", "0", 5]
_MALFORMED_BASES = [[], "steps", {"steps": []}, {"base": "function_field", "steps": {}},
                    {"base": "function_field", "steps": [["x", 1]]},
                    {"base": "function_field", "steps": [{"U": 1, "beta": 1}]}]


@st.composite
def basis_docs(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(_MALFORMED_BASES))
    if draw(st.booleans()):
        base, pairs = draw(st.sampled_from(_FIXTURE_BASES))
    else:
        base = draw(st.sampled_from(_BASE_DOCS))
        pairs = draw(st.lists(st.tuples(st.sampled_from(_KEYS), st.sampled_from(_BETAS)),
                              max_size=4))
    doc = {"base": base, "steps": [{"U": U, "beta": beta} for U, beta in pairs]}
    if draw(st.booleans()):
        doc["ext"] = draw(st.sampled_from(_EXTS))
    return doc


_BASIS = st.sampled_from(["@basis", "@basis", "@basis", "@missing"])
_LEVEL = st.sampled_from([str(level) for level in range(-1, 10)] + ["x"])
_RATIONAL = st.sampled_from(["2", "-1", "0", "3/2", "0.5", "1/0", "x"])
_POLY = st.sampled_from(_POLYS)
_POLY_FLAGS = [("--basis", _BASIS, True), ("--poly", _POLY, True), ("--level", _LEVEL, True)]
_PAIR_FLAGS = [("--basis", _BASIS, True), ("--upper", _LEVEL, True), ("--lower", _LEVEL, True)]
# subcommand -> [(flag, values or None for a switch, required)]
_COMMANDS = {
    "validate": [("--basis", _BASIS, True)],
    "expand": _POLY_FLAGS,
    "raise": _POLY_FLAGS + [("--trace", None, False)],
    "lower": _POLY_FLAGS + [("--trace", None, False)],
    "weight": _POLY_FLAGS,
    "initial": _POLY_FLAGS,
    "groups": [("--basis", _BASIS, True)],
    "gauss": [("--beta", _RATIONAL, True), ("--poly", _POLY, True),
              ("--base", st.sampled_from(['"function_field"', '{"p_adic": 3}',
                                          '{"p_adic": 4}', "p_adic"]), False)],
    "izumi-exact": _PAIR_FLAGS,
    "izumi-bound": [("--basis", _BASIS, True), ("--mu-prime-x", _RATIONAL, True),
                    ("--c-base", _RATIONAL, False)],
    "izumi-search": _PAIR_FLAGS + [
        ("--seed", st.integers(0, 3).map(str), False),
        ("--samples", st.one_of(st.integers(1, 30), st.sampled_from([0, -5, 10**7])).map(str),
         False)],
    "oracle": [("--param", st.sampled_from(["@param", "@basis", "@missing"]), True),
               ("--poly", _POLY, True)],
    "example-conic": [("--depth", st.sampled_from(["0", "1", "4", "511"]), False)],
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command]
    for flag, values, required in _COMMANDS[command] + [("--json", None, False)]:
        if not (draw(st.integers(0, 9)) > 0 if required else draw(st.booleans())):
            continue
        if values is None:
            argv.append(flag)
        else:
            value = draw(values)
            argv += [flag + "=" + value] if draw(st.booleans()) else [flag, value]
    if draw(st.integers(0, 19)) == 0:
        argv.append("--help")
    return argv


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    param = root / "param.json"
    param.write_text(json.dumps({"defining": "x^2 - y^2 - y^3", "branch": "-y",
                                 "policy": {"initial": 8, "growth": 2, "max": 64}}))
    return {"@basis": root / "basis.json", "@param": param, "@missing": root / "missing.json"}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(argv=cli_argvs(), doc=basis_docs())
def test_cli_on_generated_argv_and_bases_fails_cleanly(cli_files, argv, doc):
    # every call exits 0, 1 or 2 within the alarm and prints no traceback;
    # only a result prints on stdout, and a failure starts stderr with its kind
    cli_files["@basis"].write_text(json.dumps(doc))
    for name, path in cli_files.items():
        argv = [arg.replace(name, str(path)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with alarm(10, "%r on %r" % (argv, doc)), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, doc)
    assert "Traceback" not in err, (argv, doc)
    if out:
        # a result: with exit 1 the violations validate found or an oracle bound
        assert code == 0 or (code == 1 and (argv[0] == "validate" or ">=" in out)), (argv, doc)
        assert err == "", (argv, doc)
    else:
        assert code and err.startswith(("error: ", "input error: ", "parse error: ", "usage: ")), (
            argv, doc)
