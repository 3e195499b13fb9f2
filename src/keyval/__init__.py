"""Exact-arithmetic workbench for weighted key-polynomial bases of K[x].

Validates weighted bases, computes adic expansions and weight maps, runs the
level-shifting rewriting algorithms with weight traces, computes exact Izumi
step constants and comparison bounds, and cross-checks everything against an
independent truncated-power-series valuation oracle.
"""

from types import ModuleType as _ModuleType

from .basefield import BaseFieldConfig, KElem, YPoly, base_valuation
from .izumi import (
    CorpusConfig,
    IzumiReport,
    empirical_izumi,
    extension_bound,
    gauss_value,
    izumi_step_constant,
    key_power_weight,
)
from .keybasis import (
    AdicExpansion,
    KeyStep,
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
from .polynomials import Poly, poly_divmod
from .rewrite import RewriteTrace, lower_expansion, raise_expansion
from .series import Series
from .values import INF, Value

# the submodules bound by the imports above are not part of the star-import
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
