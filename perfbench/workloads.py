"""The four request workloads: seeded request blocks, execution and checks.

A run executes whole blocks.  Every block of a workload has the same request
mix; the seed only picks the concrete polynomials, orders, depths, levels and
search seeds, so runs with different seeds do comparable work.  keyval is always reached
through module attributes (``kcli.main``, ``keybasis.adic_expand``, ...), so
the wrappers installed by tracing.py see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from fractions import Fraction

import keyval.cli as kcli
from keyval import io as kio
from keyval import keybasis, rewrite
from keyval.parsing import parse_poly

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_CLI = os.path.join(HERE, "expected_cli.json")

# Exact step constants beta_{i+1} / (m_j ... m_i beta_j), worked by hand from
# the fixture bases; (basis, upper, lower) -> constant.
IZUMI_CONSTANTS = {
    ("b1", 2, 1): Fraction(3, 2),
    ("b2", 2, 1): Fraction(5, 4),
    ("b2", 3, 1): Fraction(11, 8),
    ("b2", 3, 2): Fraction(11, 10),
    ("q3", 2, 1): Fraction(3, 2),
}


class Request:
    """One request: ``argv`` for a CLI call or ``poly`` for a library call."""

    __slots__ = ("kind", "argv", "poly", "expect")

    def __init__(self, kind, argv=None, poly=None, expect=None):
        self.kind = kind
        self.argv = argv
        self.poly = poly
        self.expect = expect


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kcli.main(argv)
    return code, out.getvalue()


def with_paths(argv, paths):
    """argv with "{name}" placeholders replaced by fixture paths."""
    return [a.format(**paths) if a.startswith("{") else a for a in argv]


class CliWorkload:
    """A workload whose requests are in-process CLI calls."""

    # What a fresh interpreter imports, and which fixtures it loads, in set-up.
    setup_imports = "import keyval.cli"
    setup_bases = tuple(inputs.BASES)
    setup_params = ()

    def setup(self, paths):
        self.paths = paths

    def execute(self, req):
        return call_cli(with_paths(req.argv, self.paths))


# --------------------------------------------------------------- conic-oracle

# Precision classes of one block: (count, lowest order, highest order).  The
# order of a request is the order of vanishing it needs to see, so a class
# [lo, hi] reaches the precision doubling just above hi.  Each block adds one
# request that reaches precision 256, and those alternate between a multiple
# of the defining polynomial (even blocks), which exhausts the cap, and an
# order in CONIC_DEEP (odd blocks).  With 10 example-conic requests the p50
# rank falls inside the 60 shallow requests and the p90 rank inside the 10
# requests that reach precision 64.
CONIC_CLASSES = [(60, 1, 15), (15, 16, 31), (10, 32, 63), (3, 64, 127)]
CONIC_DEEP = (128, 255)
CONIC_KINDS = ("key", "product", "scaled")
CONIC_EXAMPLES = 10
CONIC_EXAMPLE_DEPTH = (4, 14)


class ConicOracle(CliWorkload):
    name = "conic-oracle"
    setup_bases = ()
    setup_params = ("conic",)

    def block(self, seed, index):
        rng = inputs.rng_for(seed, self.name, index)
        reqs = []
        for cls, (count, lo, hi) in enumerate(CONIC_CLASSES):
            for j, order in enumerate(inputs.stratified(rng, lo, hi, count)):
                kind = CONIC_KINDS[(index + cls + j) % len(CONIC_KINDS)]
                text, value = inputs.conic_request(rng, kind, order)
                reqs.append(self._oracle(text, str(value), rng.random() < 0.5))
        if index % 2 == 0:
            reqs.append(self._oracle(inputs.conic_multiple(rng), ">= %d" % inputs.CONIC_CAP,
                                     rng.random() < 0.5, code=1))
        else:
            kind = CONIC_KINDS[(index // 2) % len(CONIC_KINDS)]
            text, value = inputs.conic_request(rng, kind, rng.randint(*CONIC_DEEP))
            reqs.append(self._oracle(text, str(value), rng.random() < 0.5))
        for depth in inputs.stratified(rng, *CONIC_EXAMPLE_DEPTH, CONIC_EXAMPLES):
            reqs.append(Request("example-conic", ["example-conic", "--depth", str(depth), "--json"],
                                expect=depth))
        rng.shuffle(reqs)
        return reqs

    def _oracle(self, text, value, as_json, code=0):
        argv = ["oracle", "--param", "{conic}", "--poly=" + text] + (["--json"] if as_json else [])
        return Request("oracle", argv, expect=(code, value, as_json))

    def check(self, req, result):
        code, out = result
        if req.kind == "example-conic":
            rows = json.loads(out)["steps"] if code == 0 else []
            want = [str(i) for i in range(1, req.expect + 1)]
            return ([r["beta"] for r in rows] == want and [r["oracle"] for r in rows] == want
                    and [r["i"] for r in rows] == list(range(1, req.expect + 1)))
        want_code, value, as_json = req.expect
        got = json.loads(out)["value"] if as_json else out.rstrip("\n")
        return code == want_code and got == value


# --------------------------------------------------------------- izumi-search

# Each block searches every level pair IZUMI_PER_PAIR times, with sample
# counts spread over IZUMI_SAMPLES so that the p50 rank falls inside a
# continuum, and IZUMI_LARGE_PAIR IZUMI_LARGE_COUNT times with IZUMI_LARGE
# samples.  The large searches are a quarter of all requests and all alike, so
# the p90 rank falls inside one homogeneous group.  Sample counts depend on
# the block index only; the seed picks the search seeds.
IZUMI_PER_PAIR = 3
IZUMI_SAMPLES = (300, 900)
IZUMI_LARGE = 5000
IZUMI_LARGE_COUNT = 5
IZUMI_LARGE_PAIR = ("b2", 3, 2)


class IzumiSearch(CliWorkload):
    name = "izumi-search"

    def block(self, seed, index):
        rng = inputs.rng_for(seed, self.name, index)
        reqs = []
        for combo in sorted(IZUMI_CONSTANTS):
            counts = inputs.rng_for(0, self.name, index, *combo)
            for n in inputs.stratified(counts, *IZUMI_SAMPLES, IZUMI_PER_PAIR):
                reqs.append(self._search(rng, combo, n))
        for _ in range(IZUMI_LARGE_COUNT):
            reqs.append(self._search(rng, IZUMI_LARGE_PAIR, IZUMI_LARGE))
        rng.shuffle(reqs)
        return reqs

    def _search(self, rng, combo, samples):
        basis, upper, lower = combo
        s = rng.randrange(10**6)
        argv = ["izumi-search", "--basis", "{%s}" % basis, "--upper", str(upper),
                "--lower", str(lower), "--seed", str(s), "--samples", str(samples), "--json"]
        return Request("izumi-search", argv, expect=(IZUMI_CONSTANTS[combo], samples, s))

    def check(self, req, result):
        code, out = result
        if code != 0:
            return False
        doc = json.loads(out)
        const, samples, s = req.expect
        return (Fraction(doc["sup_found"]) == const and Fraction(doc["theoretical"]) == const
                and doc["samples"] == samples and doc["seed"] == s)


# ----------------------------------------------------------- rewrite-roundtrip

REWRITE_PER_BASIS = 10
REWRITE_MAX_DEGREE = 8


def nu(c, base):
    """Valuation of a coefficient, computed from its numerator and denominator."""
    if base[0] == "y":
        def order(p):
            return next(i for i, a in enumerate(p.coeffs) if a != 0)
        return Fraction(order(c.num) - order(c.den))
    r = Fraction(c.num.coeffs[0]) / c.den.coeffs[0]
    p, v = base[1], 0
    n, d = r.numerator, r.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return Fraction(v)


def gauss_weight(terms, betas, base):
    """min over terms of nu(c) + sum a_j beta_j; None for the empty expansion."""
    ws = [nu(c, base) + sum(a * b for a, b in zip(e, betas)) for e, c in terms.items()]
    return min(ws) if ws else None


class RewriteRoundtrip:
    name = "rewrite-roundtrip"
    setup_imports = "import keyval, keyval.io"
    setup_bases = tuple(inputs.BASES)
    setup_params = ()

    def setup(self, paths):
        self.bases = {b: kio.load_basis(paths[b]) for b in self.setup_bases}
        self.betas = {b: [s.beta for s in basis.steps] for b, basis in self.bases.items()}

    def block(self, seed, index):
        rng = inputs.rng_for(seed, self.name, index)
        reqs = []
        for b in self.setup_bases:
            # degrees spread evenly, so every block costs about the same
            for degree in inputs.stratified(rng, 1, REWRITE_MAX_DEGREE, REWRITE_PER_BASIS):
                coeffs = inputs.corpus_coeffs(rng, inputs.BASE_OF[b], degree)
                text = inputs.xpoly_text(coeffs, inputs.BASE_OF[b])
                reqs.append(Request(b, poly=parse_poly(text, self.bases[b].base)))
        rng.shuffle(reqs)
        return reqs

    def execute(self, req):
        basis, f = self.bases[req.kind], req.poly
        levels = range(1, basis.alpha + 1)
        exps = [keybasis.adic_expand(f, i, basis) for i in levels]
        ups = [rewrite.raise_expansion(E, basis) for E in exps[:-1]]
        downs = [rewrite.lower_expansion(E, basis) for E in exps[1:]]
        evals = [keybasis.expansion_eval(E, basis) for E in exps]
        same = all(g == f for g in evals)
        return exps, ups, downs, same

    def check(self, req, result):
        exps, ups, downs, same = result
        if not same:
            return False
        base, betas = inputs.BASE_OF[req.kind], self.betas[req.kind]
        for i, ((up, up_trace), (down, down_trace)) in enumerate(zip(ups, downs)):
            if up != exps[i + 1] or down != exps[i]:
                return False
            for trace, target in ((up_trace, exps[i + 1]), (down_trace, exps[i])):
                ws = trace.weights
                if any(a > b for a, b in zip(ws, ws[1:])):
                    return False
                if ws[-1] != gauss_weight(target.terms, betas, base):
                    return False
        return True


# ---------------------------------------------------------------- cli-requests

# Command mix of one block (20 requests); 2 of 20 are malformed and exit 2.
CLI_MIX = [("validate", 1), ("groups", 1), ("expand", 3), ("weight", 3), ("initial", 2),
           ("raise", 2), ("lower", 2), ("gauss", 2), ("izumi-exact", 1), ("izumi-bound", 1),
           ("malformed", 2)]
CLI_POOL_SEED = 0
CLI_POOL_PER_KIND = 60
CLI_MAX_DEGREE = 5


def _malformed(rng, text):
    broken = rng.choice([
        lambda t: t.replace("x", "x^^", 1),
        lambda t: t + " +",
        lambda t: "(" + t,
        lambda t: t.replace("x", "z", 1),
        lambda t: t.replace("*", "**", 1) if "*" in t else t + " * * x",
        lambda t: t + " # 1",
    ])
    return broken(text)


def cli_pool():
    """The fixed request pool: kind -> list of argv; outputs are recorded for all of it."""
    rng = inputs.rng_for(CLI_POOL_SEED, "cli-pool")
    pool = {}
    for kind, _ in CLI_MIX:
        entries = []
        for _ in range(CLI_POOL_PER_KIND):
            b = rng.choice(sorted(inputs.BASES))
            basis = "{%s}" % b
            alpha = len(inputs.BASES[b]["steps"])
            poly = inputs.corpus_poly(rng, inputs.BASE_OF[b], CLI_MAX_DEGREE)
            if kind in ("validate", "groups"):
                argv = [kind, "--basis", basis]
            elif kind in ("expand", "weight", "initial"):
                argv = [kind, "--basis", basis, "--poly=" + poly, "--level",
                        str(rng.randint(1, alpha))]
            elif kind == "raise":
                argv = [kind, "--basis", basis, "--poly=" + poly, "--level",
                        str(rng.randint(1, alpha - 1)), "--trace"]
            elif kind == "lower":
                argv = [kind, "--basis", basis, "--poly=" + poly, "--level",
                        str(rng.randint(2, alpha)), "--trace"]
            elif kind == "gauss":
                poly = inputs.corpus_poly(rng, ("y", None), CLI_MAX_DEGREE)
                argv = [kind, "--beta", rng.choice(["1/3", "1/2", "1", "3/2", "2"]), "--poly=" + poly]
            elif kind == "izumi-exact":
                _, upper, lower = rng.choice([c for c in sorted(IZUMI_CONSTANTS) if c[0] == b])
                argv = [kind, "--basis", basis, "--upper", str(upper), "--lower", str(lower)]
            elif kind == "izumi-bound":
                argv = [kind, "--basis", basis, "--mu-prime-x",
                        rng.choice(["1/4", "1/2", "1", "3/2", "2"]), "--c-base",
                        rng.choice(["1", "2", "3/2"])]
            else:
                argv = ["expand", "--basis", basis, "--poly=" + _malformed(rng, poly),
                        "--level", "1"]
            if rng.random() < 0.5:
                argv.append("--json")
            entries.append(argv)
        pool[kind] = entries
    return pool


def argv_key(argv):
    return "\x1f".join(argv)


class CliRequests(CliWorkload):
    name = "cli-requests"

    def setup(self, paths):
        super().setup(paths)
        self.pool = cli_pool()
        with open(EXPECTED_CLI) as fh:
            self.expected = json.load(fh)

    def block(self, seed, index):
        rng = inputs.rng_for(seed, self.name, index)
        reqs = []
        for kind, count in CLI_MIX:
            for argv in rng.sample(self.pool[kind], count):
                reqs.append(Request(kind, argv, expect=self.expected[argv_key(argv)]))
        rng.shuffle(reqs)
        return reqs

    def check(self, req, result):
        return list(result) == req.expect


WORKLOADS = {w.name: w for w in (ConicOracle, IzumiSearch, RewriteRoundtrip, CliRequests)}
