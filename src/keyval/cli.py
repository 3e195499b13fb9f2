"""Command-line front end.

Exit codes: 0 success, 1 mathematical violation, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import io as kio
from .errors import KeyvalError, ParseError
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
    index_data,
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
from .polynomials import ExtensionConfig
from .rewrite import lower_expansion, raise_expansion
from .values import format_value


def _read_poly(args, base):
    text = sys.stdin.read() if args.poly == "-" else args.poly
    return parse_poly(text, base)


def _emit(args, doc, human):
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        print(human)


def _value_text(v):
    """A value, or the lower bound an exhausted oracle run reached."""
    if isinstance(v, PrecisionExhausted):
        return ">= %s" % v.bound
    return format_value(v)


def _emit_value(args, key, v):
    text = _value_text(v)
    _emit(args, {key: text}, text)


def _cmd_validate(args):
    basis = kio.load_basis(args.basis)
    report = validate_basis(basis)
    doc = {
        "ok": report.ok,
        "violations": [
            {"step": v.step, "condition": v.condition, "message": v.message}
            for v in report.violations
        ],
    }
    human = "valid" if report.ok else "\n".join(
        "step %d condition (%s): %s" % (v.step, v.condition, v.message)
        for v in report.violations
    )
    _emit(args, doc, human)
    return 0 if report.ok else 1


def _cmd_expansion(args, expansion, rewrite):
    """expand, initial, raise and lower: print an expansion of the polynomial.

    ``expansion`` maps (f, level, basis) to an expansion; ``rewrite``, when
    not None, moves that expansion to the adjacent level and yields a trace.
    """
    basis = kio.load_basis(args.basis)
    E = expansion(_read_poly(args, basis.base), args.level, basis)
    if rewrite is not None:
        E, trace = rewrite(E, basis)
    doc = kio.expansion_to_json(E, basis.base)
    lines = ["%s -> %s" % (k, v) for k, v in sorted(doc["terms"].items())]
    if rewrite is not None and args.trace:
        doc["trace"] = kio.trace_to_json(trace, basis.base)
        lines.append("trace weights: " + " ".join(format_value(w) for w in trace.weights))
    _emit(args, doc, "\n".join(lines) or "0")
    return 0


def _cmd_weight(args):
    basis = kio.load_basis(args.basis)
    _emit_value(args, "weight", weight(_read_poly(args, basis.base), args.level, basis))
    return 0


def _cmd_groups(args):
    basis = kio.load_basis(args.basis)
    data = index_data(basis)
    doc = {
        "steps": [
            {
                "i": e.i,
                "phi": format_value(e.phi.generator),
                "n": e.n,
                "p": e.p,
                "condition_holds": e.condition_holds,
            }
            for e in data.entries
        ]
    }
    human = "\n".join(
        "i=%d  Phi generated by %s  n=%d  p=%s  m=n holds: %s"
        % (e.i, format_value(e.phi.generator), e.n, e.p, e.condition_holds)
        for e in data.entries
    )
    _emit(args, doc, human)
    return 0


def _cmd_gauss(args):
    base = kio.base_from_json(json.loads(args.base) if args.base else "function_field")
    g = GaussValuation(base, Fraction(args.beta))
    _emit_value(args, "value", gauss_value(_read_poly(args, base), g))
    return 0


def _cmd_izumi_exact(args):
    basis = kio.load_basis(args.basis)
    _emit_value(args, "constant", izumi_step_constant(basis, args.upper, args.lower))
    return 0


def _cmd_izumi_bound(args):
    basis = kio.load_basis(args.basis)
    b = extension_bound(
        basis, Fraction(args.mu_prime_x), Fraction(args.c_base), args.normalized
    )
    _emit_value(args, "bound", b)
    return 0


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
    doc = kio.report_to_json(report, basis.base)
    human = "sup %s at %s (theoretical %s, %d samples, %d skipped)" % (
        doc["sup_found"],
        doc["witness"],
        doc.get("theoretical"),
        report.samples,
        report.skipped,
    )
    _emit(args, doc, human)
    return 0


def _cmd_oracle(args):
    par = kio.load_parametrization(args.param)
    v = oracle_valuation(_read_poly(args, par.base), par)
    _emit_value(args, "value", v)
    return 1 if isinstance(v, PrecisionExhausted) else 0


def _cmd_example_conic(args):
    if args.depth < 1:
        raise ValueError("--depth must be at least 1, got %d" % args.depth)
    par = conic_parametrization()
    base = par.base
    phi = par.series_at(args.depth + 2)
    result = truncated_keys_from_series(
        phi, args.depth, base, ExtensionConfig.algebraic(conic_defining())
    )
    rows = []
    for i, step in enumerate(result.basis.steps, start=1):
        rows.append(
            {
                "i": i,
                "U": poly_text(step.U, base),
                "beta": format_value(step.beta),
                "oracle": _value_text(oracle_valuation(step.U, par)),
            }
        )
    doc = {"steps": rows}
    human = "\n".join(
        "i=%(i)d  U=%(U)s  beta=%(beta)s  oracle=%(oracle)s" % r for r in rows
    )
    _emit(args, doc, human)
    return 0


def build_parser():
    top = argparse.ArgumentParser(prog="keyval", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        return p

    def with_basis_poly(p):
        p.add_argument("--basis", required=True, help="basis JSON file")
        p.add_argument("--poly", required=True, help="polynomial text, or - for stdin")
        p.add_argument("--level", type=int, required=True)

    p = add("validate", help="check the weighted-basis conditions")
    p.add_argument("--basis", required=True)

    p = add("expand", help="adic expansion of a polynomial")
    with_basis_poly(p)

    p = add("raise", help="rewrite an expansion one level up")
    with_basis_poly(p)
    p.add_argument("--trace", action="store_true")

    p = add("lower", help="rewrite an expansion one level down")
    with_basis_poly(p)
    p.add_argument("--trace", action="store_true")

    p = add("weight", help="weight map value")
    with_basis_poly(p)

    p = add("initial", help="initial form at a level")
    with_basis_poly(p)

    p = add("groups", help="value-group chain and indices")
    p.add_argument("--basis", required=True)

    p = add("gauss", help="Gauss valuation of a polynomial")
    p.add_argument("--beta", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--base", help='base field JSON, e.g. \'"function_field"\'')

    p = add("izumi-exact", help="exact step constant between two levels")
    p.add_argument("--basis", required=True)
    p.add_argument("--upper", type=int, required=True)
    p.add_argument("--lower", type=int, required=True)

    p = add("izumi-bound", help="upper bound for an extension pair")
    p.add_argument("--basis", required=True)
    p.add_argument("--mu-prime-x", required=True)
    p.add_argument("--c-base", default="1")
    p.add_argument("--normalized", action="store_true")

    p = add("izumi-search", help="seeded empirical sup-search")
    p.add_argument("--basis", required=True)
    p.add_argument("--upper", type=int, required=True)
    p.add_argument("--lower", type=int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=10000)

    p = add("oracle", help="series-parametrization valuation")
    p.add_argument("--param", required=True, help="parametrization JSON file")
    p.add_argument("--poly", required=True)

    p = add("example-conic", help="truncation keys of the conic-like branch")
    p.add_argument("--depth", type=int, default=12)

    return top


_HANDLERS = {
    "validate": _cmd_validate,
    "expand": lambda a: _cmd_expansion(a, adic_expand, None),
    "raise": lambda a: _cmd_expansion(a, adic_expand, raise_expansion),
    "lower": lambda a: _cmd_expansion(a, adic_expand, lower_expansion),
    "weight": _cmd_weight,
    "initial": lambda a: _cmd_expansion(a, initial_form, None),
    "groups": _cmd_groups,
    "gauss": _cmd_gauss,
    "izumi-exact": _cmd_izumi_exact,
    "izumi-bound": _cmd_izumi_bound,
    "izumi-search": _cmd_izumi_search,
    "oracle": _cmd_oracle,
    "example-conic": _cmd_example_conic,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _HANDLERS[args.command](args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except KeyvalError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
