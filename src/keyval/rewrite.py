"""Substitution algorithms converting between adjacent adic levels.

Raising replaces powers U_i^{m_i} using the key recurrence until every
exponent respects its bound at level i+1; lowering substitutes the recurrence
for U_{i+1} and restores the bounds at level i.  Both record a trace of
intermediate expansions with their Gauss weights; the weight sequence is
nondecreasing and ends at the division-based weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .basefield import KElem, power
from .errors import FuelExhaustedError, KeyvalError, LevelOutOfRangeError
from .keybasis import AdicExpansion, WeightedBasis, expansion_weight


@dataclass
class RewriteTrace:
    entries: list = field(default_factory=list)

    @property
    def weights(self):
        return [w for _, w in self.entries]

    def record(self, terms, level, basis):
        E = AdicExpansion(level, dict(terms))
        self.entries.append((E, expansion_weight(E, basis)))


def _combine(into: dict, exponents, coeff):
    prev = into.get(exponents)
    if prev is None:
        into[exponents] = coeff
    else:
        s = prev + coeff
        if not s:
            del into[exponents]
        else:
            into[exponents] = s


def _multiply(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _combine(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def _pad(a, width):
    return a + (0,) * (width - len(a))


def _key_power_replacement(basis: WeightedBasis, j: int, width: int) -> dict:
    """U_j^{m_j} as an expansion at vector width: U_{j+1} - sum_k f_{jk} U_j^k."""
    step = basis.steps[j - 1]
    out = {_pad(a, width): -c for a, c in step.next_expansion.terms.items() if a[-1] < step.m}
    out[_pad((0,) * j + (1,), width)] = KElem.one()  # U_{j+1}
    return out


def _default_fuel(terms: dict, basis: WeightedBasis) -> int:
    deg = 1
    for a in terms:
        d = sum(e * basis.key(k + 1).degree for k, e in enumerate(a))
        deg = max(deg, d)
    mmax = max((s.m for s in basis.steps if s.m), default=1)
    return 10 * deg * basis.alpha * mmax


def _substitute(terms: dict, pos: int, m: int, repl: dict) -> dict:
    """Replace every power U^m at exponent index ``pos`` by ``repl``.

    Each exponent e at ``pos`` splits as q*m + r; the term keeps U^r and is
    multiplied by repl^q.  Terms with e < m pass through unchanged.
    """
    powers = {}
    out = {}
    for a, c in terms.items():
        if a[pos] < m:
            _combine(out, a, c)
            continue
        q, r = divmod(a[pos], m)
        stub = list(a)
        stub[pos] = r
        hit = powers.get(q)
        if hit is None:
            hit = powers[q] = power(repl, q, _multiply)
        for eb, cb in hit.items():
            _combine(out, tuple(x + y for x, y in zip(stub, eb)), c * cb)
    return out


def _reduce_bounded(terms, basis, width, top, trace, rewrote):
    """Rewrite passes: smallest violating index first, all occurrences at once.

    Exponents at 1-based positions 1..top are bounded by their m's; positions
    above ``top`` are free.  At most ``_default_fuel`` passes run.  The trace
    gets the starting terms and every pass; when ``rewrote`` or some pass ran,
    the canonical result closes it.
    """
    fuel = _default_fuel(terms, basis)
    trace.record(terms, width, basis)
    passes = 0
    while True:
        j = None
        for k in range(1, top + 1):
            m = basis.m(k)
            if m is None and terms:  # the zero expansion needs no bound
                raise KeyvalError("step %d has no integral degree ratio" % k)
            if any(a[k - 1] >= m for a in terms):
                j = k
                break
        if j is None:
            if rewrote or passes:
                trace.record(terms, width, basis)
            return terms
        if passes >= fuel:
            raise FuelExhaustedError("rewriting exceeded %d passes" % fuel)
        repl = _key_power_replacement(basis, j, width)
        terms = _substitute(terms, j - 1, basis.m(j), repl)
        passes += 1
        trace.record(terms, width, basis)


def raise_expansion(E: AdicExpansion, basis: WeightedBasis):
    """Convert an i-adic expansion to the (i+1)-adic expansion by rewriting."""
    i = E.level
    if i >= basis.alpha:
        raise LevelOutOfRangeError("cannot raise past the last level")
    width = i + 1
    terms = {a + (0,): c for a, c in E.terms.items()}
    trace = RewriteTrace()
    terms = _reduce_bounded(terms, basis, width, i, trace, False)
    return AdicExpansion(width, terms), trace


def lower_expansion(E: AdicExpansion, basis: WeightedBasis):
    """Convert an (i+1)-adic expansion to the i-adic expansion by rewriting."""
    lvl = E.level
    if lvl < 2 or lvl > basis.alpha:
        raise LevelOutOfRangeError("lowering needs a level between 2 and alpha")
    i = lvl - 1
    trace = RewriteTrace()
    rewrote = any(a[-1] for a in E.terms)
    # substitute the recurrence for every occurrence of the top key first;
    # recording the input expansion would break trace monotonicity.
    sub = {_pad(a, lvl): c for a, c in basis.steps[i - 1].next_expansion.terms.items()}
    terms = _substitute(E.terms, lvl - 1, 1, sub)
    terms = _reduce_bounded(terms, basis, lvl, i - 1, trace, rewrote)
    assert all(a[-1] == 0 for a in terms)
    return AdicExpansion(i, {a[:-1]: c for a, c in terms.items()}), trace
