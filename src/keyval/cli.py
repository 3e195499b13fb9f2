"""Command-line front end.

Exit codes: 0 success, 1 mathematical violation, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import io as kio
from .errors import IndexPowerViolationError, KeyvalError, ParseError
from .izumi import (
    CorpusConfig,
    GaussValuation,
    canonical_witnesses,
    empirical_izumi,
    extension_bound,
    gauss_value,
    izumi_step_constant,
    weight_map,
)
from .keybasis import (
    adic_expand,
    initial_form,
    truncated_keys_from_series,
    validate_basis,
    weight,
)
from .oracle import (
    PrecisionExhausted,
    conic_defining,
    conic_parametrization,
    oracle_valuation,
)
from .parsing import parse_poly, poly_text
from .rewrite import lower_expansion, raise_expansion
from .values import format_value


def _read_poly(args, base):
    text = sys.stdin.read() if args.poly == "-" else args.poly
    return parse_poly(text, base)


def _rational(text):
    """argparse type: an exact rational such as 3, 3/2 or 1.5."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational with nonzero denominator: %r" % text)


def _value_text(v):
    """A value, or the lower bound an exhausted oracle run reached."""
    if isinstance(v, PrecisionExhausted):
        return ">= %s" % v.bound
    return format_value(v)


def _value(key, v):
    """A one-value result; exit 1 when the value is only a lower bound."""
    text = _value_text(v)
    return {key: text}, text, 1 if isinstance(v, PrecisionExhausted) else 0


def _cmd_validate(args):
    basis = kio.load_basis(args.basis)
    violations = validate_basis(basis)
    doc = {
        "ok": not violations,
        "violations": [
            {"step": v.step, "condition": v.condition, "message": v.message}
            for v in violations
        ],
    }
    human = "\n".join(
        "step %d condition (%s): %s" % (v.step, v.condition, v.message)
        for v in violations
    ) or "valid"
    return doc, human, 1 if violations else 0


def _cmd_expansion(args, expansion, rewrite):
    """expand, initial, raise and lower: an expansion of the polynomial.

    ``expansion`` maps (f, level, basis) to an expansion; ``rewrite``, when
    not None, moves that expansion to the adjacent level and yields a trace.
    """
    basis = kio.load_basis(args.basis)
    E = expansion(_read_poly(args, basis.base), args.level, basis)
    if rewrite is not None:
        E, trace = rewrite(E, basis)
    doc = kio.expansion_to_json(E)
    lines = ["%s -> %s" % (k, v) for k, v in sorted(doc["terms"].items())]
    if rewrite is not None and args.trace:
        doc["trace"] = kio.trace_to_json(trace)
        lines.append("trace weights: " + " ".join(format_value(w) for w in trace.weights))
    return doc, "\n".join(lines) or "0", 0


def _cmd_weight(args):
    basis = kio.load_basis(args.basis)
    return _value("weight", weight(_read_poly(args, basis.base), args.level, basis))


def _cmd_groups(args):
    basis = kio.load_basis(args.basis)
    for v in validate_basis(basis):
        if v.condition == "index":
            raise IndexPowerViolationError(v.message)
    rows = [
        {
            "i": i,
            "phi": format_value(s.phi),
            "n": s.n,
            "p": None if s.m is None else s.m // s.n,
            "condition_holds": None if s.m is None else s.m == s.n,
        }
        for i, s in enumerate(basis.steps, start=1)
    ]
    human = "\n".join(
        "i=%(i)d  Phi generated by %(phi)s  n=%(n)d  p=%(p)s  m=n holds: %(condition_holds)s" % r
        for r in rows
    )
    return {"steps": rows}, human, 0


def _cmd_gauss(args):
    base = kio.base_from_json(json.loads(args.base) if args.base else "function_field")
    g = GaussValuation(base, args.beta)
    return _value("value", gauss_value(_read_poly(args, base), g))


def _cmd_izumi_exact(args):
    basis = kio.load_basis(args.basis)
    return _value("constant", izumi_step_constant(basis, args.upper, args.lower))


def _cmd_izumi_bound(args):
    basis = kio.load_basis(args.basis)
    return _value("bound", extension_bound(basis, args.mu_prime_x, args.c_base, args.normalized))


def _cmd_izumi_search(args):
    basis = kio.load_basis(args.basis)
    corpus = CorpusConfig(seed=args.seed, samples=args.samples)
    theoretical = izumi_step_constant(basis, args.upper, args.lower)
    report = empirical_izumi(
        weight_map(basis, args.upper),
        weight_map(basis, args.lower),
        basis.base,
        corpus,
        theoretical=theoretical,
        witnesses=canonical_witnesses(basis),
    )
    doc = kio.report_to_json(report)
    human = "sup %s at %s (theoretical %s, %d samples, %d skipped)" % (
        doc["sup_found"],
        doc["witness"],
        doc.get("theoretical"),
        report.samples,
        report.skipped,
    )
    return doc, human, 0


def _cmd_oracle(args):
    par = kio.load_parametrization(args.param)
    return _value("value", oracle_valuation(_read_poly(args, par.base), par))


def _cmd_example_conic(args):
    if args.depth < 1:
        raise ValueError("--depth must be at least 1, got %d" % args.depth)
    par = conic_parametrization()
    phi = par.series_at(args.depth + 2)
    result = truncated_keys_from_series(phi, args.depth, par.base, conic_defining())
    rows = []
    for i, step in enumerate(result.basis.steps, start=1):
        rows.append(
            {
                "i": i,
                "U": poly_text(step.U),
                "beta": format_value(step.beta),
                "oracle": _value_text(oracle_valuation(step.U, par)),
            }
        )
    doc = {"steps": rows}
    human = "\n".join(
        "i=%(i)d  U=%(U)s  beta=%(beta)s  oracle=%(oracle)s" % r for r in rows
    )
    return doc, human, 0


def build_parser():
    top = argparse.ArgumentParser(prog="keyval", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, run, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    def with_basis_poly(p):
        p.add_argument("--basis", required=True, help="basis JSON file")
        p.add_argument("--poly", required=True, help="polynomial text, or - for stdin")
        p.add_argument("--level", type=int, required=True)

    p = add("validate", _cmd_validate, "check the weighted-basis conditions")
    p.add_argument("--basis", required=True)

    p = add("expand", lambda a: _cmd_expansion(a, adic_expand, None),
            "adic expansion of a polynomial")
    with_basis_poly(p)

    p = add("raise", lambda a: _cmd_expansion(a, adic_expand, raise_expansion),
            "rewrite an expansion one level up")
    with_basis_poly(p)
    p.add_argument("--trace", action="store_true")

    p = add("lower", lambda a: _cmd_expansion(a, adic_expand, lower_expansion),
            "rewrite an expansion one level down")
    with_basis_poly(p)
    p.add_argument("--trace", action="store_true")

    p = add("weight", _cmd_weight, "weight map value")
    with_basis_poly(p)

    p = add("initial", lambda a: _cmd_expansion(a, initial_form, None),
            "initial form at a level")
    with_basis_poly(p)

    p = add("groups", _cmd_groups, "value-group chain and indices")
    p.add_argument("--basis", required=True)

    p = add("gauss", _cmd_gauss, "Gauss valuation of a polynomial")
    p.add_argument("--beta", type=_rational, required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--base", help='base field JSON, e.g. \'"function_field"\'')

    p = add("izumi-exact", _cmd_izumi_exact, "exact step constant between two levels")
    p.add_argument("--basis", required=True)
    p.add_argument("--upper", type=int, required=True)
    p.add_argument("--lower", type=int, required=True)

    p = add("izumi-bound", _cmd_izumi_bound, "upper bound for an extension pair")
    p.add_argument("--basis", required=True)
    p.add_argument("--mu-prime-x", type=_rational, required=True)
    p.add_argument("--c-base", type=_rational, default="1")
    p.add_argument("--normalized", action="store_true")

    p = add("izumi-search", _cmd_izumi_search, "seeded empirical sup-search")
    p.add_argument("--basis", required=True)
    p.add_argument("--upper", type=int, required=True)
    p.add_argument("--lower", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=10000)

    p = add("oracle", _cmd_oracle, "series-parametrization valuation")
    p.add_argument("--param", required=True, help="parametrization JSON file")
    p.add_argument("--poly", required=True)

    p = add("example-conic", _cmd_example_conic, "truncation keys of the conic-like branch")
    p.add_argument("--depth", type=int, default=12)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        doc, text, code = args.run(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except KeyvalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError, ZeroDivisionError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(doc, sort_keys=True) if args.json else text)
    return code


if __name__ == "__main__":
    sys.exit(main())
