"""Traced run: wrappers around each layer's public entry points.

The wrappers are installed from the benchmark's side.  Every binding of a
wrapped function is replaced: the attribute on the defining module, every
by-name import of it in other keyval modules (``cli`` imports ``adic_expand``,
``oracle`` imports ``series_div_unit``, ...), and every alias in a class body
(``__rmul__ = __mul__``).  Outputs are unchanged; only counts and times are
recorded.

Each timed call is a span.  A metric's busy time counts only its outermost
active span, so recursion is not counted twice.  A layer's self time is the
span durations minus the durations of the spans nested directly inside them.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
METRICS = [
    ("oracle.valuations", "count"), ("oracle.valuation_s", "s"),
    ("oracle.refine_calls", "count"), ("oracle.refine_s", "s"),
    ("oracle.newton_steps", "count"), ("oracle.precision_rounds", "count"),
    ("oracle.resolved_per_round", "ratio"), ("oracle.refine_cache_hit_ratio", "ratio"),
    ("oracle.exhausted", "count"),
    ("series.mul_calls", "count"), ("series.mul_s", "s"), ("series.mul_coeff_pairs", "count"),
    ("series.div_calls", "count"), ("series.div_s", "s"),
    ("keybasis.expand_calls", "count"), ("keybasis.expand_s", "s"),
    ("keybasis.weight_calls", "count"), ("keybasis.weight_s", "s"),
    ("keybasis.eval_s", "s"), ("keybasis.truncate_s", "s"),
    ("keybasis.basis_builds", "count"), ("keybasis.basis_build_s", "s"),
    ("polynomials.divmod_calls", "count"), ("polynomials.divmod_s", "s"),
    ("polynomials.mul_calls", "count"), ("polynomials.mul_s", "s"),
    ("basefield.kelem_ops", "count"), ("basefield.gcd_calls", "count"), ("basefield.gcd_s", "s"),
    ("rewrite.raise_calls", "count"), ("rewrite.raise_s", "s"),
    ("rewrite.lower_calls", "count"), ("rewrite.lower_s", "s"),
    ("rewrite.trace_entries", "count"),
    ("izumi.searches", "count"), ("izumi.search_s", "s"), ("izumi.corpus_s", "s"),
    ("izumi.samples", "count"),
    ("cli.requests", "count"), ("cli.self_s", "s"),
    ("parsing.parse_calls", "count"), ("parsing.parse_s", "s"), ("parsing.text_s", "s"),
    ("io.load_calls", "count"), ("io.load_s", "s"), ("io.to_json_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# Counts that depend only on the inputs, never on CPU speed: equal seeds and
# equal block counts give equal values.
EXACT_COUNTS = [name for name, unit in METRICS if unit == "count"]


def mul_coeff_pairs(la, lb, p):
    """Coefficient pairs (i, j) with i < la, j < lb and i + j < p."""
    n = min(la, p)
    full = max(0, min(n, p - lb + 1))  # rows i where all lb partners fit below p
    return full * lb + sum(p - i for i in range(full, n))


class Tracer:
    def __init__(self):
        self.count = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self._depth = Counter()
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------ wrappers

    def _span(self, layer, metric, fn, enter=None, leave=None):
        """Wrap fn as a span; enter(args) runs first, leave(token, args, result) after."""
        count, busy, self_time = self.count, self.busy, self.self_time
        depth, stack = self._depth, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[metric] += 1
            d = depth[metric]
            depth[metric] = d + 1
            child = [0.0]
            stack.append(child)
            token = enter(args) if enter else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[metric] = d
                if d == 0:
                    busy[metric] += dt
                self_time[layer] += dt - child[0]
                if stack:
                    stack[-1][0] += dt
            if leave:
                leave(token, args, result)
            return result

        return wrapper

    def _counter(self, metric, fn):
        count = self.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ patching

    def _patch_function(self, module, name, wrap):
        original = getattr(module, name)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "keyval" or mod_name.startswith("keyval.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, cls, name, wrap):
        original = cls.__dict__[name]
        wrapper = wrap(original)
        for attr, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, attr, wrapper)
                self._undo.append((cls, attr, original))

    def install(self):
        from keyval import (basefield, cli, io, izumi, keybasis, oracle, parsing, polynomials,
                            rewrite, series)

        def span(layer, metric, enter=None, leave=None):
            return lambda fn: self._span(layer, metric, fn, enter, leave)

        # oracle: precision rounds are refinements requested by a valuation;
        # Newton steps are unit divisions made inside a refinement; a
        # refinement that multiplies no series was served from the cache.
        def valuation_left(token, args, result):
            if isinstance(result, oracle.PrecisionExhausted):
                self.count["oracle.exhausted_n"] += 1

        def refine_entered(args):
            if self._depth["oracle.valuation"]:
                self.count["oracle.precision_rounds"] += 1
            return self.count["series.mul"]

        def refine_left(muls_before, args, result):
            if self.count["series.mul"] == muls_before:
                self.count["oracle.refine_hits"] += 1

        def div_entered(args):
            if self._depth["oracle.refine"]:
                self.count["oracle.newton_steps"] += 1

        def mul_left(token, args, result):
            a, b = args
            if isinstance(b, series.Series):
                pairs = mul_coeff_pairs(len(a.coeffs), len(b.coeffs), result.precision)
            else:
                pairs = len(a.coeffs)
            self.count["series.mul_coeff_pairs"] += pairs

        def rewrite_left(token, args, result):
            self.count["rewrite.trace_entries"] += len(result[1].entries)

        self._patch_function(oracle, "oracle_valuation", span("oracle", "oracle.valuation", leave=valuation_left))
        self._patch_method(oracle.Parametrization, "series_at", span("oracle", "oracle.refine", refine_entered, refine_left))
        self._patch_method(series.Series, "__mul__", span("series", "series.mul", leave=mul_left))
        self._patch_function(series, "series_div_unit", span("series", "series.div", div_entered))
        self._patch_function(keybasis, "adic_expand", span("keybasis", "keybasis.expand"))
        self._patch_function(keybasis, "weight", span("keybasis", "keybasis.weight"))
        self._patch_function(keybasis, "expansion_eval", span("keybasis", "keybasis.eval"))
        self._patch_function(keybasis, "truncated_keys_from_series", span("keybasis", "keybasis.truncate"))
        self._patch_method(keybasis.WeightedBasis, "__init__", span("keybasis", "keybasis.basis_build"))
        self._patch_function(polynomials, "poly_divmod", span("polynomials", "polynomials.divmod"))
        self._patch_method(polynomials.Poly, "__mul__", span("polynomials", "polynomials.mul"))
        for op in ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__"):
            self._patch_method(basefield.KElem, op, lambda fn: self._counter("basefield.kelem_ops", fn))
        self._patch_method(basefield.YPoly, "gcd", span("basefield", "basefield.gcd"))
        self._patch_function(rewrite, "raise_expansion", span("rewrite", "rewrite.raise", leave=rewrite_left))
        self._patch_function(rewrite, "lower_expansion", span("rewrite", "rewrite.lower", leave=rewrite_left))
        self._patch_function(izumi, "empirical_izumi", span("izumi", "izumi.search"))
        self._patch_function(izumi, "random_corpus_poly", span("izumi", "izumi.corpus"))
        self._patch_function(cli, "main", span("cli", "cli.main"))
        for name in ("parse_poly", "parse_kelem"):
            self._patch_function(parsing, name, span("parsing", "parsing.parse"))
        for name in ("poly_text", "kelem_text", "ypoly_text", "series_text"):
            self._patch_function(parsing, name, span("parsing", "parsing.text"))
        for name in ("load_basis", "load_parametrization"):
            self._patch_function(io, name, span("io", "io.load"))
        for name in ("expansion_to_json", "trace_to_json", "report_to_json", "basis_to_json",
                     "parametrization_to_json"):
            self._patch_function(io, name, span("io", "io.to_json"))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------- results

    def metrics(self, overhead_ratio):
        c, busy = self.count, self.busy
        refine = c["oracle.refine"]
        rounds = c["oracle.precision_rounds"]
        values = {
            "oracle.valuations": c["oracle.valuation"],
            "oracle.valuation_s": busy["oracle.valuation"],
            "oracle.refine_calls": refine,
            "oracle.refine_s": busy["oracle.refine"],
            "oracle.newton_steps": c["oracle.newton_steps"],
            "oracle.precision_rounds": rounds,
            "oracle.resolved_per_round":
                (c["oracle.valuation"] - c["oracle.exhausted_n"]) / rounds if rounds else 0.0,
            "oracle.refine_cache_hit_ratio": c["oracle.refine_hits"] / refine if refine else 0.0,
            "oracle.exhausted": c["oracle.exhausted_n"],
            "series.mul_calls": c["series.mul"],
            "series.mul_s": busy["series.mul"],
            "series.mul_coeff_pairs": c["series.mul_coeff_pairs"],
            "series.div_calls": c["series.div"],
            "series.div_s": busy["series.div"],
            "keybasis.expand_calls": c["keybasis.expand"],
            "keybasis.expand_s": busy["keybasis.expand"],
            "keybasis.weight_calls": c["keybasis.weight"],
            "keybasis.weight_s": busy["keybasis.weight"],
            "keybasis.eval_s": busy["keybasis.eval"],
            "keybasis.truncate_s": busy["keybasis.truncate"],
            "keybasis.basis_builds": c["keybasis.basis_build"],
            "keybasis.basis_build_s": busy["keybasis.basis_build"],
            "polynomials.divmod_calls": c["polynomials.divmod"],
            "polynomials.divmod_s": busy["polynomials.divmod"],
            "polynomials.mul_calls": c["polynomials.mul"],
            "polynomials.mul_s": busy["polynomials.mul"],
            "basefield.kelem_ops": c["basefield.kelem_ops"],
            "basefield.gcd_calls": c["basefield.gcd"],
            "basefield.gcd_s": busy["basefield.gcd"],
            "rewrite.raise_calls": c["rewrite.raise"],
            "rewrite.raise_s": busy["rewrite.raise"],
            "rewrite.lower_calls": c["rewrite.lower"],
            "rewrite.lower_s": busy["rewrite.lower"],
            "rewrite.trace_entries": c["rewrite.trace_entries"],
            "izumi.searches": c["izumi.search"],
            "izumi.search_s": busy["izumi.search"],
            "izumi.corpus_s": busy["izumi.corpus"],
            "izumi.samples": c["izumi.corpus"],
            "cli.requests": c["cli.main"],
            "cli.self_s": self.self_time["cli"],
            "parsing.parse_calls": c["parsing.parse"],
            "parsing.parse_s": busy["parsing.parse"],
            "parsing.text_s": busy["parsing.text"],
            "io.load_calls": c["io.load"],
            "io.load_s": busy["io.load"],
            "io.to_json_s": busy["io.to_json"],
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
