"""Pinned CLI cases: argv, exit code, the exact stdout in both output modes and stderr.

Each case runs twice, once as written and once with ``--json`` appended; its
stderr is the same in both modes, and empty unless given.  An argument, or
the stderr, naming ``{b1}``, ``{par}`` and so on names a file of ``FILES``;
other braces, as in ``--base '{"p_adic": 3}'``, are kept.  Two runners replay
the table through the one reader ``runs``: ``test_cli_output_pinned`` in
``tests/test_cli.py`` calls ``keyval.cli.main`` in-process, and
``tests/replay_cli.py`` runs the installed ``keyval`` console script.  A new
CLI check is one more case here, with its exit code, the stdout of both
modes and its stderr.

A stderr of None is not compared.  Only argparse's own refusals have one:
their usage text wraps to the terminal width, and argparse's wording of its
errors differs between Python versions.

Standard library only, as is ``perfbench/inputs.py``, which ``BASES`` reads:
the replay runs before the test extras are installed.
"""

import json
import os
import sys
from collections import namedtuple

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import inputs  # noqa: E402

Case = namedtuple("Case", "id argv code text doc err", defaults=("",))

# One document per named basis.  b1, b2 and q3 are the benchmark's own
# documents in perfbench/inputs.py, read and never copied; tests/conftest.py
# serves every entry as a session fixture of the same name.
BASES = {
    **inputs.BASES,
    # b2 with y replaced by 3, over Q_3
    "q3b2": {"base": {"p_adic": 3},
             "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - 3", "beta": "5/4"},
                       {"U": "(x^2 - 3)^2 + 9*x", "beta": "11/4"}]},
    # a ramified basis over Q(y): beta_1 = 3/2 has denominator 2
    "ram": {"base": "function_field",
            "steps": [{"U": "x", "beta": "3/2"}, {"U": "x^2 - y^3", "beta": "4"}]},
    # m_1 = 2 against n_1 = 1: weight maps that are not additive
    "b3": {"base": "function_field",
           "steps": [{"U": "x", "beta": "1"}, {"U": "x^2 - y^2", "beta": "3"}]},
    # condition (c) fails: the recurrence coefficient y has weight 1, not 2 * 1
    "violating": {"base": "function_field",
                  "steps": [{"U": "x", "beta": "1"}, {"U": "x^2 - y", "beta": "3"}]},
    # weights with coprime denominators: Phi_2 = (1/6)Z, the lcm of 3 and 2
    "coprime": {"base": "function_field",
                "steps": [{"U": "x", "beta": "2/3"}, {"U": "x^3 - y^2", "beta": "5/2"}]},
    # a key with a y-denominator: weights take the full expansion (key_lists is None)
    "ydenom": {"base": "function_field",
               "steps": [{"U": "x", "beta": "1"}, {"U": "x - y/(1 + y)", "beta": "3"}]},
    # integer weights, and Fraction entries in the keys' Q[y] lists
    "halves": {"base": "function_field",
               "steps": [{"U": "x", "beta": "1"}, {"U": "x - y", "beta": "2"},
                         {"U": "x - y - y^2/2", "beta": "3"}]},
    # deg U_3 = 3 is not a multiple of deg U_2 = 2, so m_2 is undefined
    "undivided": {"base": "function_field",
                  "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - y", "beta": "3/2"},
                            {"U": "x^3 - y^2", "beta": "5"}]},
    # b1 modulo x^2 - y - y^2: polynomials are reduced before they are divided
    "b1_ext": dict(inputs.BASES["b1"], ext="x^2 - y - y^2"),
}

# The files a case may name, by placeholder: every basis, and the documents
# that only the CLI reads.
FILES = {
    **BASES,
    "onekey": {"base": "function_field", "steps": [{"U": "x", "beta": "3/2"}]},
    # polynomials are reduced modulo ext first; U_2 = U_1^2 - y holds in K[x],
    # where reduced modulo ext it would read y^2
    "ext": {"base": "function_field", "ext": "x^2 - y - y^2",
            "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - y", "beta": "2"}]},
    # the same keys with beta_2 = 1, which fails condition (e)
    "ext_e": {"base": "function_field", "ext": "x^2 - y - y^2",
              "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - y", "beta": "1"}]},
    # bases that validate refuses: m_1 = 3 against n_1 = 2; deg U_3 = 3 against
    # deg U_2 = 2; deg U_2 = 4 against an extension of degree 2; an f_{1,1} term
    # in U_2 = x^2 + y*x - y, where n_1 = [<1/2> : <1>] = 2
    "index": {"base": "function_field",
              "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^3", "beta": "2"}]},
    "cond_a": {"base": "function_field",
               "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - y", "beta": "3/2"},
                         {"U": "x^3", "beta": "5"}]},
    "cond_deg": {"base": "function_field", "ext": "x^2 - y",
                 "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^4 - y^2", "beta": "5"}]},
    "shape": {"base": "function_field",
              "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 + y*x - y", "beta": "3/2"}]},
    # constant keys, last and in the middle
    "const_last": {"base": "function_field",
                   "steps": [{"U": "x", "beta": "1"}, {"U": "1", "beta": "2"}]},
    "const_middle": {"base": "function_field",
                     "steps": [{"U": "x", "beta": "1"}, {"U": "1", "beta": "2"},
                               {"U": "x", "beta": "3"}]},
    # b1 with JSON numbers for beta, read exactly
    "decimal": {"base": "function_field",
                "steps": [{"U": "x", "beta": 0.5}, {"U": "x^2 - y", "beta": 1.5}]},
    # the conic's branch with a small precision cap, and README's conic.json,
    # whose policy is the default
    "par": {"defining": "x^2 - y^2 - y^3", "branch": "-y",
            "policy": {"initial": 8, "growth": 2, "max": 64}},
    "conic": {"defining": "x^2 - y^2 - y^3", "branch": "-y",
              "policy": {"initial": 16, "growth": 2, "max": 512}},
    # parametrizations the oracle refuses
    "rational_branch": {"defining": "x^2 - y^2 - y^3", "branch": "1/y"},
    "defining_0": {"defining": "0", "branch": "-y"},
    "defining_y": {"defining": "y", "branch": "-y"},
    "p_adic_par": {"defining": "x^2 - 3", "branch": "1", "base": {"p_adic": 3}},
    "p_adic_par_y": {"defining": "x^2 - y", "branch": "1", "base": {"p_adic": 3}},
    "p_adic_par_policy": {"defining": "x^2 - 3", "branch": "1", "base": {"p_adic": 3},
                          "policy": {"initial": 0}},
}

# x - phi_<24, the conic's truncation key at depth 24
CONIC_KEY = (
    "-6116566755/2199023255552*y^23 + 1641030105/549755813888*y^22 "
    "- 883631595/274877906944*y^21 + 119409675/34359738368*y^20 "
    "- 64822395/17179869184*y^19 + 17678835/4294967296*y^18 - 9694845/2147483648*y^17 "
    "+ 334305/67108864*y^16 - 185725/33554432*y^15 + 52003/8388608*y^14 "
    "- 29393/4194304*y^13 + 4199/524288*y^12 - 2431/262144*y^11 + 715/65536*y^10 "
    "- 429/32768*y^9 + 33/2048*y^8 - 21/1024*y^7 + 7/256*y^6 - 5/128*y^5 + 1/16*y^4 "
    "- 1/8*y^3 + 1/2*y^2 + y + x"
)

CASES = [
    # README's command lines on b1 and b2
    Case("validate", ["validate", "--basis", "{b1}"], 0,
         "valid\n", '{"ok": true, "violations": []}\n'),
    Case("validate-violation", ["validate", "--basis", "{violating}"], 1,
         "step 1 condition (c): weight of recurrence coefficient at U_1^0 is 1, expected 2\n",
         '{"ok": false, "violations": [{"condition": "c", "message": "weight of recurrence '
         'coefficient at U_1^0 is 1, expected 2", "step": 1}]}\n'),
    Case("validate-index", ["validate", "--basis", "{index}"], 1,
         "step 1 condition (index): m_1 = 3 is not divisible by n_1 = 2\n",
         '{"ok": false, "violations": [{"condition": "index", "message": "m_1 = 3 is not '
         'divisible by n_1 = 2", "step": 1}]}\n'),
    Case("validate-a", ["validate", "--basis", "{cond_a}"], 1,
         "step 2 condition (a): deg U_3 is not a multiple of deg U_2\n",
         '{"ok": false, "violations": [{"condition": "a", "message": "deg U_3 is not a multiple '
         'of deg U_2", "step": 2}]}\n'),
    Case("validate-deg", ["validate", "--basis", "{cond_deg}"], 1,
         "step 2 condition (deg): deg U_2 exceeds the extension degree\n",
         '{"ok": false, "violations": [{"condition": "deg", "message": "deg U_2 exceeds the '
         'extension degree", "step": 2}]}\n'),
    # one coefficient fails both (c) and (shape)
    Case("validate-shape", ["validate", "--basis", "{shape}"], 1,
         "step 1 condition (c): weight of recurrence coefficient at U_1^1 is 1, expected 1/2\n"
         "step 1 condition (shape): nonzero recurrence coefficient at exponent 1 not divisible "
         "by n_1 = 2\n",
         '{"ok": false, "violations": [{"condition": "c", "message": "weight of recurrence '
         'coefficient at U_1^1 is 1, expected 1/2", "step": 1}, {"condition": "shape", '
         '"message": "nonzero recurrence coefficient at exponent 1 not divisible by n_1 = 2", '
         '"step": 1}]}\n'),
    # a key of the extension's degree: valid at beta_2 = 2, condition (e) fails at 1
    Case("validate-ext", ["validate", "--basis", "{ext}"], 0,
         "valid\n", '{"ok": true, "violations": []}\n'),
    Case("validate-ext-e", ["validate", "--basis", "{ext_e}"], 1,
         "step 1 condition (e): beta_2 = 1 is not > m_1*beta_1 = 1\n",
         '{"ok": false, "violations": [{"condition": "e", "message": "beta_2 = 1 is not > '
         'm_1*beta_1 = 1", "step": 1}]}\n'),
    Case("validate-coprime", ["validate", "--basis", "{coprime}"], 0,
         "valid\n", '{"ok": true, "violations": []}\n'),
    # a constant key is refused before any condition is checked
    Case("validate-constant-last", ["validate", "--basis", "{const_last}"], 1, "", "",
         "error: key polynomials must have degree >= 1\n"),
    Case("validate-constant-middle", ["validate", "--basis", "{const_middle}"], 1, "", "",
         "error: key polynomials must have degree >= 1\n"),
    Case("expand", ["expand", "--basis", "{b1}", "--poly", "x^3 + y*x", "--level", "2"], 0,
         "1,0 -> 2*y\n1,1 -> 1\n", '{"level": 2, "terms": {"1,0": "2*y", "1,1": "1"}}\n'),
    Case("raise", ["raise", "--basis", "{b1}", "--poly", "x^4", "--level", "1", "--trace"], 0,
         "0,0 -> y^2\n0,1 -> 2*y\n0,2 -> 1\ntrace weights: 2 2 2\n",
         '{"level": 2, "terms": {"0,0": "y^2", "0,1": "2*y", "0,2": "1"}, "trace": '
         '[{"terms": {"4,0": "1"}, "weight": "2"}, {"terms": {"0,0": "y^2", "0,1": "2*y", '
         '"0,2": "1"}, "weight": "2"}, {"terms": {"0,0": "y^2", "0,1": "2*y", "0,2": "1"}, '
         '"weight": "2"}]}\n'),
    # raise needs a level below the basis length, lower one of at least 2
    Case("raise-top-level", ["raise", "--basis", "{b1}", "--poly", "x", "--level", "2"], 1,
         "", "", "error: need 1 <= level < 2, the basis length; got level 2\n"),
    Case("lower-level-1", ["lower", "--basis", "{b1}", "--poly", "x^3", "--level", "1"], 1,
         "", "", "error: need 2 <= level <= 2, the basis length; got level 1\n"),
    # raising to level 3 needs m_2, which deg U_3 = 3 against deg U_2 = 2 leaves undefined
    Case("raise-undivided",
         ["raise", "--basis", "{undivided}", "--poly", "x^5", "--level", "2"], 1, "", "",
         "error: step 2 has no integral degree ratio\n"),
    Case("lower", ["lower", "--basis", "{b1}", "--poly", "x^3 + y*x", "--level", "2", "--trace"],
         0, "1 -> y\n3 -> 1\ntrace weights: 3/2 3/2\n",
         '{"level": 1, "terms": {"1": "y", "3": "1"}, "trace": [{"terms": {"1,0": "y", '
         '"3,0": "1"}, "weight": "3/2"}, {"terms": {"1,0": "y", "3,0": "1"}, '
         '"weight": "3/2"}]}\n'),
    # lower without --trace prints the same expansion and no trace
    Case("lower-untraced", ["lower", "--basis", "{b1}", "--poly", "x^3 + y*x", "--level", "2"],
         0, "1 -> y\n3 -> 1\n", '{"level": 1, "terms": {"1": "y", "3": "1"}}\n'),
    # a three-level trace whose first entry is the substituted top key
    Case("lower-b2-trace",
         ["lower", "--basis", "{b2}", "--poly", "x^9", "--level", "3", "--trace"], 0,
         "1,0 -> y^4\n1,1 -> 4*y^3\n1,2 -> 6*y^2\n1,3 -> 4*y\n1,4 -> 1\n"
         "trace weights: 9/2 9/2 9/2\n",
         '{"level": 2, "terms": {"1,0": "y^4", "1,1": "4*y^3", "1,2": "6*y^2", "1,3": "4*y", '
         '"1,4": "1"}, "trace": [{"terms": {"0,0,0": "-6*y^5", "0,1,0": "-10*y^4", '
         '"0,2,0": "-6*y^3", "0,3,0": "-2*y^2", "1,0,0": "-y^5 + y^4", "1,1,0": "-y^4 + 4*y^3", '
         '"1,2,0": "6*y^2", "1,3,0": "4*y", "1,4,0": "1", "2,0,0": "6*y^4", "2,1,0": "4*y^3", '
         '"2,2,0": "2*y^2", "3,0,0": "y^4"}, "weight": "9/2"}, {"terms": {"1,0,0": "y^4", '
         '"1,1,0": "4*y^3", "1,2,0": "6*y^2", "1,3,0": "4*y", "1,4,0": "1"}, "weight": "9/2"}, '
         '{"terms": {"1,0,0": "y^4", "1,1,0": "4*y^3", "1,2,0": "6*y^2", "1,3,0": "4*y", '
         '"1,4,0": "1"}, "weight": "9/2"}]}\n'),
    Case("weight", ["weight", "--basis", "{b1}", "--poly", "x^3 + y*x", "--level", "2"], 0,
         "3/2\n", '{"weight": "3/2"}\n'),
    # the zero polynomial has weight inf; the level is checked first
    Case("weight-zero", ["weight", "--basis", "{b1}", "--poly", "0", "--level", "1"], 0,
         "inf\n", '{"weight": "inf"}\n'),
    Case("weight-zero-level-9", ["weight", "--basis", "{b1}", "--poly", "0", "--level", "9"],
         1, "", "", "error: level 9 not in 1..2\n"),
    Case("weight-zero-level-0", ["weight", "--basis", "{b1}", "--poly", "0", "--level", "0"],
         1, "", "", "error: level 0 not in 1..2\n"),
    Case("initial", ["initial", "--basis", "{b1}", "--poly", "x^3 + y*x", "--level", "2"], 0,
         "1,0 -> 2*y\n", '{"level": 2, "terms": {"1,0": "2*y"}}\n'),
    # ext itself reduces to zero modulo ext
    Case("initial-ext-zero",
         ["initial", "--basis", "{ext}", "--poly", "x^2-y-y^2", "--level", "2"], 1, "", "",
         "error: the zero polynomial has no initial form\n"),
    # a y-denominator: parsing reduces it by Euclid's gcd, and weight (0) clears it
    Case("weight-y-denominator",
         ["weight", "--basis", "{b1}", "--poly", "(x + y + 1)^2/(1 + y)", "--level", "2"], 0,
         "0\n", '{"weight": "0"}\n'),
    Case("expand-y-denominator",
         ["expand", "--basis", "{b1}", "--poly", "(x + y + 1)^2/(1 + y)", "--level", "2"], 0,
         "0,0 -> (y^2 + 3*y + 1)/(y + 1)\n0,1 -> (1)/(y + 1)\n1,0 -> 2\n",
         '{"level": 2, "terms": {"0,0": "(y^2 + 3*y + 1)/(y + 1)", "0,1": "(1)/(y + 1)", '
         '"1,0": "2"}}\n'),
    Case("groups", ["groups", "--basis", "{b2}"], 0,
         "i=1  Phi generated by 1/2  n=2  p=1  m=n holds: True\n"
         "i=2  Phi generated by 1/4  n=2  p=1  m=n holds: True\n"
         "i=3  Phi generated by 1/4  n=1  p=None  m=n holds: None\n",
         '{"steps": [{"condition_holds": true, "i": 1, "n": 2, "p": 1, "phi": "1/2"}, '
         '{"condition_holds": true, "i": 2, "n": 2, "p": 1, "phi": "1/4"}, '
         '{"condition_holds": null, "i": 3, "n": 1, "p": null, "phi": "1/4"}]}\n'),
    # Phi_1 = <2/3> = <1/3>, Phi_2 = <1/3, 5/2> = <1/6>
    Case("groups-coprime", ["groups", "--basis", "{coprime}"], 0,
         "i=1  Phi generated by 1/3  n=3  p=1  m=n holds: True\n"
         "i=2  Phi generated by 1/6  n=2  p=None  m=n holds: None\n",
         '{"steps": [{"condition_holds": true, "i": 1, "n": 3, "p": 1, "phi": "1/3"}, '
         '{"condition_holds": null, "i": 2, "n": 2, "p": null, "phi": "1/6"}]}\n'),
    # groups needs the degree steps that validate reports as violated
    Case("groups-index", ["groups", "--basis", "{index}"], 1, "", "",
         "error: m_1 = 3 is not divisible by n_1 = 2\n"),
    Case("gauss", ["gauss", "--beta", "1/2", "--poly", "x^3 + y*x"], 0,
         "3/2\n", '{"value": "3/2"}\n'),
    # over Q_3 the Gauss value reads v_3: min(2 + 3/2, -1) = -1
    Case("gauss-p-adic",
         ["gauss", "--base", '{"p_adic": 3}', "--beta", "3/2", "--poly", "9*x + 1/3"], 0,
         "-1\n", '{"value": "-1"}\n'),
    # the polynomial is parsed before the weight is checked, as in every command
    Case("gauss-zero-beta", ["gauss", "--beta", "0", "--poly", "x"], 1, "", "",
         "error: Gauss weight must be positive\n"),
    Case("gauss-zero-beta-parse-error", ["gauss", "--beta", "0", "--poly", "x +"], 2, "", "",
         "parse error: expected a number, variable, or parenthesis (at position 3)\n"),
    # argparse refuses a rational's exponent past the cap before any arithmetic
    Case("gauss-exponent-cap", ["gauss", "--beta", "1e1000000000", "--poly", "x"], 2, "", "",
         None),
    # base field descriptors that are not a field: input errors
    Case("gauss-base-number", ["gauss", "--base", "5", "--beta", "1", "--poly", "x"], 2, "", "",
         "input error: bad base field descriptor: 5\n"),
    Case("gauss-base-string", ["gauss", "--base", '"bogus"', "--beta", "1", "--poly", "x"],
         2, "", "", 'input error: bad base field descriptor: "bogus"\n'),
    Case("gauss-base-composite",
         ["gauss", "--base", '{"p_adic": 9}', "--beta", "1", "--poly", "x"], 2, "", "",
         "input error: p must be prime, got 9\n"),
    Case("gauss-base-large",
         ["gauss", "--base", '{"p_adic": 2305843009213693951}', "--beta", "1", "--poly", "x"],
         2, "", "", "input error: p must be below 2^31, got 2305843009213693951\n"),
    # the paper's constant 11/8 on b2, and the extension bound 3/2 on b1
    Case("izumi-exact", ["izumi-exact", "--basis", "{b2}", "--upper", "3", "--lower", "1"], 0,
         "11/8\n", '{"constant": "11/8"}\n'),
    # betas given as JSON numbers 0.5 and 1.5 are read exactly: b1's constant 3/2
    Case("izumi-exact-decimal",
         ["izumi-exact", "--basis", "{decimal}", "--upper", "2", "--lower", "1"], 0,
         "3/2\n", '{"constant": "3/2"}\n'),
    Case("izumi-exact-undivided",
         ["izumi-exact", "--basis", "{undivided}", "--upper", "3", "--lower", "1"], 1, "", "",
         "error: degree steps m_1..m_2 are not all defined\n"),
    Case("izumi-bound", ["izumi-bound", "--basis", "{b1}", "--mu-prime-x", "1"], 0,
         "3/2\n", '{"bound": "3/2"}\n'),
    # the one-key basis (x, 3/2) against mu'(x) = 1/2: the Gauss-pair bound max(1, 3) = 3
    Case("izumi-bound-one-key", ["izumi-bound", "--basis", "{onekey}", "--mu-prime-x", "1/2"],
         0, "3\n", '{"bound": "3"}\n'),
    # izumi-bound has no --normalized flag: argparse refuses it
    Case("izumi-bound-normalized",
         ["izumi-bound", "--basis", "{onekey}", "--mu-prime-x", "1", "--normalized"], 2, "", "",
         None),
    # a seeded sup-search is byte-identical from run to run; the default seed is 42
    Case("izumi-search",
         ["izumi-search", "--basis", "{b1}", "--upper", "2", "--lower", "1", "--samples", "20"],
         0, "sup 3/2 at x^2 - y (theoretical 3/2, 20 samples, 0 skipped)\n",
         '{"samples": 20, "seed": 42, "skipped": 0, "sup_found": "3/2", '
         '"theoretical": "3/2", "witness": "x^2 - y"}\n'),
    Case("izumi-search-2000",
         ["izumi-search", "--basis", "{b1}", "--upper", "2", "--lower", "1", "--seed", "42",
          "--samples", "2000"],
         0, "sup 3/2 at x^2 - y (theoretical 3/2, 2000 samples, 0 skipped)\n",
         '{"samples": 2000, "seed": 42, "skipped": 0, "sup_found": "3/2", '
         '"theoretical": "3/2", "witness": "x^2 - y"}\n'),
    # q3: weights and initial forms read v_3
    Case("weight-q3",
         ["weight", "--basis", "{q3}", "--poly", "9*x^2 + 3*x + 1/3", "--level", "2"], 0,
         "-1\n", '{"weight": "-1"}\n'),
    Case("initial-q3",
         ["initial", "--basis", "{q3}", "--poly", "x^4 - 6*x^2 + 9/2*x", "--level", "2"], 0,
         "0,0 -> -9\n", '{"level": 2, "terms": {"0,0": "-9"}}\n'),
    Case("oracle", ["oracle", "--param", "{par}", "--poly", "x + y"], 0,
         "2\n", '{"value": "2"}\n'),
    # the defining polynomial vanishes on the branch: exit 1 with the bound reached
    Case("oracle-exhausted", ["oracle", "--param", "{par}", "--poly", "x^2 - y^2 - y^3"], 1,
         ">= 64\n", '{"value": ">= 64"}\n'),
    # README's conic: the oracle values its key x - phi_<24 at 24
    Case("oracle-conic-key", ["oracle", "--param", "{conic}", "--poly", CONIC_KEY], 0,
         "24\n", '{"value": "24"}\n'),
    Case("oracle-zero", ["oracle", "--param", "{conic}", "--poly", "0"], 0,
         "inf\n", '{"value": "inf"}\n'),
    Case("oracle-rational-branch", ["oracle", "--param", "{rational_branch}", "--poly", "x"],
         1, "", "", "error: branch segment must be polynomial\n"),
    # a defining polynomial of degree < 1 in x has a derivative that vanishes
    Case("oracle-defining-0", ["oracle", "--param", "{defining_0}", "--poly", "x + y"],
         1, "", "", "error: derivative vanishes on the branch\n"),
    Case("oracle-defining-y", ["oracle", "--param", "{defining_y}", "--poly", "x + y"],
         1, "", "", "error: derivative vanishes on the branch\n"),
    # a p-adic parametrization is refused, after its parse and policy errors
    Case("oracle-p-adic", ["oracle", "--param", "{p_adic_par}", "--poly", "x"], 1, "", "",
         "error: the oracle supports function-field bases only\n"),
    Case("oracle-p-adic-parse-error", ["oracle", "--param", "{p_adic_par_y}", "--poly", "x"],
         2, "", "", "parse error: unknown variable 'y' (at position 6)\n"),
    Case("oracle-p-adic-policy-error",
         ["oracle", "--param", "{p_adic_par_policy}", "--poly", "x"], 2, "", "",
         "input error: precision policy needs initial >= 1, growth >= 2 and max >= initial, "
         "got initial=0, growth=2, max=512\n"),
    # the conic's truncation keys: beta_i = i, confirmed by the oracle
    Case("example-conic", ["example-conic", "--depth", "4"], 0,
         "i=1  U=x  beta=1  oracle=1\ni=2  U=x + y  beta=2  oracle=2\n"
         "i=3  U=x + (1/2*y^2 + y)  beta=3  oracle=3\n"
         "i=4  U=x + (-1/8*y^3 + 1/2*y^2 + y)  beta=4  oracle=4\n",
         '{"steps": [{"U": "x", "beta": "1", "i": 1, "oracle": "1"}, '
         '{"U": "x + y", "beta": "2", "i": 2, "oracle": "2"}, '
         '{"U": "x + (1/2*y^2 + y)", "beta": "3", "i": 3, "oracle": "3"}, '
         '{"U": "x + (-1/8*y^3 + 1/2*y^2 + y)", "beta": "4", "i": 4, "oracle": "4"}]}\n'),
    Case("example-conic-depth-0", ["example-conic", "--depth", "0"], 2, "", "",
         "input error: --depth must be at least 1, got 0\n"),
    Case("example-conic-depth-negative", ["example-conic", "--depth", "-3"], 2, "", "",
         "input error: --depth must be at least 1, got -3\n"),
    # Error exits print nothing to stdout, in either mode; past argparse, the
    # refusal is one line on stderr.
    Case("usage-error", ["no-such-command"], 2, "", "", None),
    Case("parse-error", ["weight", "--basis", "{b1}", "--poly", "x +", "--level", "1"], 2, "", "",
         "parse error: expected a number, variable, or parenthesis (at position 3)\n"),
    Case("input-error", ["validate", "--basis", "{b1}.missing"], 2, "", "",
         "input error: [Errno 2] No such file or directory: '{b1}.missing'\n"),
    Case("math-error", ["izumi-exact", "--basis", "{b1}", "--upper", "1", "--lower", "1"],
         1, "", "",
         "error: need 1 <= lower < upper <= 2, the basis length; got upper 1, lower 1\n"),
]

# K's denominator routes: expand, weight and initial at level 2, raise from
# level 1 and lower from level 2, on ydenom and on ext, for three polynomials.
# In the library, expansion_eval of each level-2 expansion gives back f
# (modulo ext), and lower_expansion of the raise output is the level-1
# expansion.  Raise prints what expand prints at level 2, so a row states
# those bytes once: (basis, f, weight, level 2, initial form, level 1).
_DENOMINATOR_ROWS = [
    # ydenom, x^2 - y: digits of orders 1, 1, 0 give min(1, 1 + 3, 6) = 1
    ("ydenom", "x^2 - y", ("1\n", '{"weight": "1"}\n'),
     ("0,0 -> (-y^3 - y^2 - y)/(y^2 + 2*y + 1)\n0,1 -> (2*y)/(y + 1)\n0,2 -> 1\n",
      '{"level": 2, "terms": {"0,0": "(-y^3 - y^2 - y)/(y^2 + 2*y + 1)", '
      '"0,1": "(2*y)/(y + 1)", "0,2": "1"}}\n'),
     ("0,0 -> (-y^3 - y^2 - y)/(y^2 + 2*y + 1)\n",
      '{"level": 2, "terms": {"0,0": "(-y^3 - y^2 - y)/(y^2 + 2*y + 1)"}}\n'),
     ("0 -> -y\n2 -> 1\n", '{"level": 1, "terms": {"0": "-y", "2": "1"}}\n')),
    # ydenom, x^3 + y*x: digits of orders 2, 1, 1, 0 give min(2, 1 + 3, 1 + 6, 9) = 2
    ("ydenom", "x^3 + y*x", ("2\n", '{"weight": "2"}\n'),
     ("0,0 -> (y^4 + 3*y^3 + y^2)/(y^3 + 3*y^2 + 3*y + 1)\n"
      "0,1 -> (y^3 + 5*y^2 + y)/(y^2 + 2*y + 1)\n0,2 -> (3*y)/(y + 1)\n0,3 -> 1\n",
      '{"level": 2, "terms": {"0,0": "(y^4 + 3*y^3 + y^2)/(y^3 + 3*y^2 + 3*y + 1)", '
      '"0,1": "(y^3 + 5*y^2 + y)/(y^2 + 2*y + 1)", "0,2": "(3*y)/(y + 1)", "0,3": "1"}}\n'),
     ("0,0 -> (y^4 + 3*y^3 + y^2)/(y^3 + 3*y^2 + 3*y + 1)\n",
      '{"level": 2, "terms": {"0,0": "(y^4 + 3*y^3 + y^2)/(y^3 + 3*y^2 + 3*y + 1)"}}\n'),
     ("1 -> y\n3 -> 1\n", '{"level": 1, "terms": {"1": "y", "3": "1"}}\n')),
    # ydenom, a y-denominator in f too: orders 2, 1, 0 give min(2, 1 + 3, 6) = 2
    ("ydenom", "(x + y)^2/(1 + y)", ("2\n", '{"weight": "2"}\n'),
     ("0,0 -> (y^4 + 4*y^3 + 4*y^2)/(y^3 + 3*y^2 + 3*y + 1)\n"
      "0,1 -> (2*y^2 + 4*y)/(y^2 + 2*y + 1)\n0,2 -> (1)/(y + 1)\n",
      '{"level": 2, "terms": {"0,0": "(y^4 + 4*y^3 + 4*y^2)/(y^3 + 3*y^2 + 3*y + 1)", '
      '"0,1": "(2*y^2 + 4*y)/(y^2 + 2*y + 1)", "0,2": "(1)/(y + 1)"}}\n'),
     ("0,0 -> (y^4 + 4*y^3 + 4*y^2)/(y^3 + 3*y^2 + 3*y + 1)\n",
      '{"level": 2, "terms": {"0,0": "(y^4 + 4*y^3 + 4*y^2)/(y^3 + 3*y^2 + 3*y + 1)"}}\n'),
     ("0 -> (y^2)/(y + 1)\n1 -> (2*y)/(y + 1)\n2 -> (1)/(y + 1)\n",
      '{"level": 1, "terms": {"0": "(y^2)/(y + 1)", "1": "(2*y)/(y + 1)", '
      '"2": "(1)/(y + 1)"}}\n')),
    # ext: x^2 - y reduces to y^2, of weight 2
    ("ext", "x^2 - y", ("2\n", '{"weight": "2"}\n'),
     ("0,0 -> y^2\n", '{"level": 2, "terms": {"0,0": "y^2"}}\n'),
     ("0,0 -> y^2\n", '{"level": 2, "terms": {"0,0": "y^2"}}\n'),
     ("0 -> y^2\n", '{"level": 1, "terms": {"0": "y^2"}}\n')),
    # ext: x^3 + y*x reduces to (y^2 + 2*y)*x, of weight 1 + 1/2
    ("ext", "x^3 + y*x", ("3/2\n", '{"weight": "3/2"}\n'),
     ("1,0 -> y^2 + 2*y\n", '{"level": 2, "terms": {"1,0": "y^2 + 2*y"}}\n'),
     ("1,0 -> y^2 + 2*y\n", '{"level": 2, "terms": {"1,0": "y^2 + 2*y"}}\n'),
     ("1 -> y^2 + 2*y\n", '{"level": 1, "terms": {"1": "y^2 + 2*y"}}\n')),
    # ext: a y-denominator in f: min(1, 1 + 1/2) = 1
    ("ext", "(x + y)^2/(1 + y)", ("1\n", '{"weight": "1"}\n'),
     ("0,0 -> (2*y^2 + y)/(y + 1)\n1,0 -> (2*y)/(y + 1)\n",
      '{"level": 2, "terms": {"0,0": "(2*y^2 + y)/(y + 1)", "1,0": "(2*y)/(y + 1)"}}\n'),
     ("0,0 -> (2*y^2 + y)/(y + 1)\n", '{"level": 2, "terms": {"0,0": "(2*y^2 + y)/(y + 1)"}}\n'),
     ("0 -> (2*y^2 + y)/(y + 1)\n1 -> (2*y)/(y + 1)\n",
      '{"level": 1, "terms": {"0": "(2*y^2 + y)/(y + 1)", "1": "(2*y)/(y + 1)"}}\n')),
]
for n, (basis, poly, weight, level2, initial, level1) in enumerate(_DENOMINATOR_ROWS):
    for command, level, out in [("expand", 2, level2), ("weight", 2, weight),
                                ("initial", 2, initial), ("raise", 1, level2),
                                ("lower", 2, level1)]:
        argv = [command, "--basis", "{%s}" % basis, "--poly", poly, "--level", str(level)]
        CASES.append(Case("%s-%s-%d" % (command, basis, n % 3 + 1), argv, 0, *out))


def write_files(directory):
    """Write every file of FILES into directory; returns placeholder -> path."""
    paths = {}
    for name, doc in FILES.items():
        paths["{%s}" % name] = path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return paths


def runs(case, paths):
    """(argv, exit code, stdout, stderr) of case in text mode and in --json mode."""

    def placed(text):
        for placeholder, path in paths.items():
            text = text.replace(placeholder, path)
        return text

    argv = [placed(arg) for arg in case.argv]
    err = None if case.err is None else placed(case.err)
    return [(argv, case.code, case.text, err), (argv + ["--json"], case.code, case.doc, err)]
