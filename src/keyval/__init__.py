"""Exact-arithmetic workbench for weighted key-polynomial bases of K[x].

Validates weighted bases, computes adic expansions and weight maps, runs the
level-shifting rewriting algorithms with weight traces, computes exact Izumi
step constants and comparison bounds, and cross-checks everything against an
independent truncated-power-series valuation oracle.
"""

from .basefield import BaseFieldConfig, KElem, YPoly, base_valuation
from .izumi import (
    CorpusConfig,
    GaussValuation,
    IzumiReport,
    bracket_ratio,
    chain_bound,
    empirical_izumi,
    extension_bound,
    gauss_value,
    izumi_step_constant,
    key_power_weight,
    ord_comparison_bound,
)
from .keybasis import (
    AdicExpansion,
    KeyStep,
    TruncationResult,
    WeightedBasis,
    adic_expand,
    expansion_eval,
    expansion_weight,
    initial_form,
    truncated_keys_from_series,
    validate_basis,
    weight,
)
from .oracle import (
    Parametrization,
    PrecisionExhausted,
    PrecisionPolicy,
    conic_parametrization,
    oracle_valuation,
)
from .parsing import parse_kelem, parse_poly, poly_text
from .polynomials import Poly, poly_divmod, poly_reduce
from .rewrite import RewriteTrace, lower_expansion, raise_expansion
from .series import Series, series_sqrt
from .values import INF, Value, format_value, parse_value

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
