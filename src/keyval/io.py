"""JSON schemas for bases, parametrizations, expansions, traces, and reports."""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .basefield import BaseFieldConfig
from .errors import KeyvalError
from .izumi import IzumiReport
from .keybasis import AdicExpansion, WeightedBasis
from .oracle import Parametrization, PrecisionPolicy
from .parsing import kelem_text, parse_kelem, parse_poly, poly_text, ypoly_text
from .rewrite import RewriteTrace


def base_to_json(base: BaseFieldConfig):
    if base.p is None:
        return "function_field"
    return {"p_adic": base.p}


def _is_integer(value) -> bool:
    """A JSON integer (not a bool), or a string for int() to read."""
    return isinstance(value, (int, str)) and not isinstance(value, bool)


def base_from_json(doc) -> BaseFieldConfig:
    if doc == "function_field":
        return BaseFieldConfig.function_field()
    if isinstance(doc, dict) and _is_integer(doc.get("p_adic")):
        try:
            return BaseFieldConfig.p_adic(int(doc["p_adic"]))
        except KeyvalError as exc:  # a composite p is malformed input too
            raise ValueError(str(exc)) from exc
    raise ValueError("bad base field descriptor: %s" % json.dumps(doc, default=str))


def basis_to_json(basis: WeightedBasis) -> dict:
    doc = {
        "base": base_to_json(basis.base),
        "steps": [
            {"U": poly_text(s.U), "beta": str(s.beta)}
            for s in basis.steps
        ],
    }
    if basis.minimal is not None:
        doc["ext"] = poly_text(basis.minimal)
    return doc


def _fields(doc, what: str, **types) -> list:
    """The values of a JSON object's required keys, in the order given.

    Raises ValueError when doc is not an object, lacks a key, or holds a
    value that is not of the key's type.
    """
    if not isinstance(doc, dict):
        raise ValueError("%s must be a JSON object" % what)
    values = []
    for key, kind in types.items():
        if key not in doc:
            raise ValueError("%s has no %r key" % (what, key))
        if not isinstance(doc[key], kind):
            raise ValueError("%s key %r has the wrong type" % (what, key))
        values.append(doc[key])
    return values


def basis_from_json(doc: dict) -> WeightedBasis:
    base_doc, steps_doc = _fields(doc, "basis", base=object, steps=list)
    base = base_from_json(base_doc)
    ext_text = doc.get("ext", "")
    if not isinstance(ext_text, str):
        raise ValueError("basis key 'ext' has the wrong type")
    minimal = parse_poly(ext_text, base) if ext_text else None
    steps = []
    for i, s in enumerate(steps_doc, start=1):
        U, beta = _fields(s, "basis step", U=str, beta=(str, int, float, Fraction))
        if isinstance(beta, bool):
            raise ValueError("basis step key 'beta' has the wrong type")
        if isinstance(beta, float) and not math.isfinite(beta):
            raise ValueError("basis step key 'beta' is not finite")
        try:
            beta = Fraction(beta)
        except ZeroDivisionError:
            raise ValueError("basis step %d key 'beta' has a zero denominator" % i) from None
        steps.append((parse_poly(U, base), beta))
    return WeightedBasis(base, steps, minimal)


def load_basis(path) -> WeightedBasis:
    """Read a basis file; decimal numbers such as 0.1 are read exactly."""
    with open(path) as fh:
        return basis_from_json(json.load(fh, parse_float=Fraction))


def parametrization_to_json(par: Parametrization) -> dict:
    return {
        "defining": poly_text(par.defining),
        "branch": ypoly_text(par.branch),
        "policy": {
            "initial": par.policy.initial,
            "growth": par.policy.growth,
            "max": par.policy.maximum,
        },
    }


def _policy_int(pol: dict, key: str, default: int) -> int:
    value = pol.get(key, default)
    if not _is_integer(value):
        raise ValueError("parametrization policy key %r has the wrong type" % key)
    return int(value)


def parametrization_from_json(doc: dict) -> Parametrization:
    defining_text, branch_text = _fields(doc, "parametrization", defining=str, branch=str)
    base = base_from_json(doc.get("base", "function_field"))
    defining = parse_poly(defining_text, base)
    branch = parse_kelem(branch_text, base)
    if branch.den.degree > 0:
        raise KeyvalError("branch segment must be polynomial")
    pol = doc.get("policy", {})
    if not isinstance(pol, dict):
        raise ValueError("parametrization policy must be a JSON object")
    policy = PrecisionPolicy(
        initial=_policy_int(pol, "initial", PrecisionPolicy.initial),
        growth=_policy_int(pol, "growth", PrecisionPolicy.growth),
        maximum=_policy_int(pol, "max", PrecisionPolicy.maximum),
    )
    if base.p is not None:
        raise KeyvalError("the oracle supports function-field bases only")
    return Parametrization(defining, branch.num, policy=policy)


def load_parametrization(path) -> Parametrization:
    with open(path) as fh:
        return parametrization_from_json(json.load(fh))


def _terms_to_json(terms: dict) -> dict:
    """Comma-joined exponent vectors -> coefficient text, in sorted order."""
    return {
        ",".join(str(e) for e in a): kelem_text(c)
        for a, c in sorted(terms.items())
    }


def expansion_to_json(E: AdicExpansion) -> dict:
    return {"level": E.level, "terms": _terms_to_json(E.terms)}


def expansion_from_json(doc: dict, base: BaseFieldConfig) -> AdicExpansion:
    level, terms_doc = _fields(doc, "expansion", level=int, terms=dict)
    if isinstance(level, bool) or level < 1:
        raise ValueError("expansion level must be an integer of at least 1")
    terms = {}
    for key, text in terms_doc.items():
        a = tuple(int(e) for e in key.split(","))
        if len(a) != level:
            raise ValueError("expansion exponent vector %r is not of length %d" % (key, level))
        if min(a) < 0:
            raise ValueError("expansion exponent vector %r has a negative exponent" % key)
        if not isinstance(text, str):
            raise ValueError("expansion coefficient of exponent vector %r is not a string" % key)
        terms[a] = parse_kelem(text, base)
    return AdicExpansion(level, terms)


def trace_to_json(trace: RewriteTrace) -> list:
    return [
        {"terms": _terms_to_json(E.terms), "weight": str(w)}
        for E, w in trace.entries
    ]


def report_to_json(report: IzumiReport) -> dict:
    doc = {
        "sup_found": str(report.sup_found),
        "witness": poly_text(report.witness),
        "samples": report.samples,
        "skipped": report.skipped,
        "seed": report.seed,
    }
    if report.theoretical is not None:
        doc["theoretical"] = str(report.theoretical)
    return doc
