"""Pinned CLI cases: argv, exit code and the exact stdout in both output modes.

Each case runs twice, once as written and once with ``--json`` appended.  An
argument naming ``{b1}``, ``{par}`` and so on is a file of ``FILES``; other
braces, as in ``--base '{"p_adic": 3}'``, are kept.  Two runners replay the
table through the one reader ``runs``: ``test_cli_output_pinned`` in
``tests/test_cli.py`` calls ``keyval.cli.main`` in-process, and
``tests/replay_cli.py`` runs the installed ``keyval`` console script and
``python -m keyval.cli``.  A new CLI check is one more case here, with its
exit code and the stdout of both modes.

Standard library only: the replay runs before the test extras are installed.
"""

import json
import os
from collections import namedtuple

Case = namedtuple("Case", "id argv code text doc")

# The files a case may name, by placeholder.
FILES = {
    # README's basis b1 and the three-key basis b2 of tests/conftest.py
    "b1": {"base": "function_field",
           "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - y", "beta": "3/2"}]},
    "b2": {"base": "function_field",
           "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - y", "beta": "5/4"},
                     {"U": "(x^2 - y)^2 + x*y^2", "beta": "11/4"}]},
    # condition (c) fails: the recurrence coefficient y has weight 1, not 2 * 1
    "violating": {"base": "function_field",
                  "steps": [{"U": "x", "beta": "1"}, {"U": "x^2 - y", "beta": "3"}]},
    # weights with coprime denominators: Phi_2 = (1/6)Z, the lcm of 3 and 2
    "coprime": {"base": "function_field",
                "steps": [{"U": "x", "beta": "2/3"}, {"U": "x^3 - y^2", "beta": "5/2"}]},
    "onekey": {"base": "function_field", "steps": [{"U": "x", "beta": "3/2"}]},
    # README's basis q3 over Q_3
    "q3": {"base": {"p_adic": 3},
           "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - 3", "beta": "3/2"}]},
    # a key with a y-denominator: weights take the full expansion (key_lists is None)
    "ydenom": {"base": "function_field",
               "steps": [{"U": "x", "beta": "1"}, {"U": "x - y/(1 + y)", "beta": "3"}]},
    # polynomials are reduced modulo ext first; U_2 = U_1^2 - y holds in K[x]
    "ext": {"base": "function_field", "ext": "x^2 - y - y^2",
            "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - y", "beta": "2"}]},
    # the conic's branch with a small precision cap, and README's conic.json
    "par": {"defining": "x^2 - y^2 - y^3", "branch": "-y",
            "policy": {"initial": 8, "growth": 2, "max": 64}},
    "conic": {"defining": "x^2 - y^2 - y^3", "branch": "-y",
              "policy": {"initial": 16, "growth": 2, "max": 512}},
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
    Case("expand", ["expand", "--basis", "{b1}", "--poly", "x^3 + y*x", "--level", "2"], 0,
         "1,0 -> 2*y\n1,1 -> 1\n", '{"level": 2, "terms": {"1,0": "2*y", "1,1": "1"}}\n'),
    Case("raise", ["raise", "--basis", "{b1}", "--poly", "x^4", "--level", "1", "--trace"], 0,
         "0,0 -> y^2\n0,1 -> 2*y\n0,2 -> 1\ntrace weights: 2 2 2\n",
         '{"level": 2, "terms": {"0,0": "y^2", "0,1": "2*y", "0,2": "1"}, "trace": '
         '[{"terms": {"4,0": "1"}, "weight": "2"}, {"terms": {"0,0": "y^2", "0,1": "2*y", '
         '"0,2": "1"}, "weight": "2"}, {"terms": {"0,0": "y^2", "0,1": "2*y", "0,2": "1"}, '
         '"weight": "2"}]}\n'),
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
    Case("initial", ["initial", "--basis", "{b1}", "--poly", "x^3 + y*x", "--level", "2"], 0,
         "1,0 -> 2*y\n", '{"level": 2, "terms": {"1,0": "2*y"}}\n'),
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
    Case("gauss", ["gauss", "--beta", "1/2", "--poly", "x^3 + y*x"], 0,
         "3/2\n", '{"value": "3/2"}\n'),
    # over Q_3 the Gauss value reads v_3: min(2 + 3/2, -1) = -1
    Case("gauss-p-adic",
         ["gauss", "--base", '{"p_adic": 3}', "--beta", "3/2", "--poly", "9*x + 1/3"], 0,
         "-1\n", '{"value": "-1"}\n'),
    # the paper's constant 11/8 on b2, and the extension bound 3/2 on b1
    Case("izumi-exact", ["izumi-exact", "--basis", "{b2}", "--upper", "3", "--lower", "1"], 0,
         "11/8\n", '{"constant": "11/8"}\n'),
    Case("izumi-bound", ["izumi-bound", "--basis", "{b1}", "--mu-prime-x", "1"], 0,
         "3/2\n", '{"bound": "3/2"}\n'),
    # the one-key basis (x, 3/2) against mu'(x) = 1/2: the Gauss-pair bound max(1, 3) = 3
    Case("izumi-bound-one-key", ["izumi-bound", "--basis", "{onekey}", "--mu-prime-x", "1/2"],
         0, "3\n", '{"bound": "3"}\n'),
    # izumi-bound has no --normalized flag: argparse refuses it
    Case("izumi-bound-normalized",
         ["izumi-bound", "--basis", "{onekey}", "--mu-prime-x", "1", "--normalized"], 2, "", ""),
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
    # the conic's truncation keys: beta_i = i, confirmed by the oracle
    Case("example-conic", ["example-conic", "--depth", "4"], 0,
         "i=1  U=x  beta=1  oracle=1\ni=2  U=x + y  beta=2  oracle=2\n"
         "i=3  U=x + (1/2*y^2 + y)  beta=3  oracle=3\n"
         "i=4  U=x + (-1/8*y^3 + 1/2*y^2 + y)  beta=4  oracle=4\n",
         '{"steps": [{"U": "x", "beta": "1", "i": 1, "oracle": "1"}, '
         '{"U": "x + y", "beta": "2", "i": 2, "oracle": "2"}, '
         '{"U": "x + (1/2*y^2 + y)", "beta": "3", "i": 3, "oracle": "3"}, '
         '{"U": "x + (-1/8*y^3 + 1/2*y^2 + y)", "beta": "4", "i": 4, "oracle": "4"}]}\n'),
    # Error exits print nothing to stdout, in either mode.
    Case("usage-error", ["no-such-command"], 2, "", ""),
    Case("parse-error", ["weight", "--basis", "{b1}", "--poly", "x +", "--level", "1"], 2, "", ""),
    Case("input-error", ["validate", "--basis", "{b1}.missing"], 2, "", ""),
    Case("math-error", ["izumi-exact", "--basis", "{b1}", "--upper", "1", "--lower", "1"],
         1, "", ""),
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
    """(argv, exit code, stdout) of case in text mode and in --json mode."""
    argv = []
    for arg in case.argv:
        for placeholder, path in paths.items():
            arg = arg.replace(placeholder, path)
        argv.append(arg)
    return [(argv, case.code, case.text), (argv + ["--json"], case.code, case.doc)]
