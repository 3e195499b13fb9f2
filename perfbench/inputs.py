"""Seeded input generators and fixture files owned by the benchmark.

Everything here is built from the benchmark's own arithmetic and RNG; keyval
only ever sees the polynomial text and JSON files produced below.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# Fixture bases: b1 and b2 as in tests/conftest.py, and a p-adic basis over Q_3.
BASES = {
    "b1": {"base": "function_field",
           "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - y", "beta": "3/2"}]},
    "b2": {"base": "function_field",
           "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - y", "beta": "5/4"},
                     {"U": "(x^2 - y)^2 + x*y^2", "beta": "11/4"}]},
    "q3": {"base": {"p_adic": 3},
           "steps": [{"U": "x", "beta": "1/2"}, {"U": "x^2 - 3", "beta": "3/2"}]},
}
# Basis name -> base field: ("y", None) for Q(y) with ord at 0, ("p", p) for Q with v_p.
BASE_OF = {"b1": ("y", None), "b2": ("y", None), "q3": ("p", 3)}

CONIC_CAP = 256
CONIC_DEFINING = "x^2 - y^2 - y^3"
CONIC_PARAM = {
    "defining": CONIC_DEFINING,
    "branch": "-y",
    "policy": {"initial": 16, "growth": 2, "max": CONIC_CAP},
}


def write_fixtures(directory):
    """Write the basis and parametrization files; returns name -> path."""
    os.makedirs(directory, exist_ok=True)
    docs = dict(BASES, conic=CONIC_PARAM)
    paths = {}
    for name, doc in docs.items():
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        paths[name] = path
    return paths


# ---------------------------------------------------------------- text output

def _frac(c):
    return str(c) if c.denominator != 1 else str(c.numerator)


def ypoly_terms(coeffs):
    """Signed monomials [(negative, text)] of sum coeffs[m] * y^m."""
    out = []
    for m, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(Fraction(c))
        if m == 0:
            body = _frac(mag)
        else:
            vp = "y" if m == 1 else "y^%d" % m
            body = vp if mag == 1 else "%s*%s" % (_frac(mag), vp)
        out.append((c < 0, body))
    return out


def join_terms(terms):
    if not terms:
        return "0"
    text = ("-" if terms[0][0] else "") + terms[0][1]
    for neg, body in terms[1:]:
        text += (" - " if neg else " + ") + body
    return text


def xpoly_text(coeffs, base):
    """Text of sum c_k x^k where c_k = (unit, v) or None.

    A coefficient (unit, v) is unit * y^v over Q(y) and unit * p^v over Q_p.
    """
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c is None:
            continue
        unit, v = c
        factors = []
        if base[0] == "y":
            if abs(unit) != 1 or (v == 0 and k == 0):
                factors.append(str(abs(unit)))
            if v:
                factors.append("y" if v == 1 else "y^%d" % v)
        else:
            mag = abs(unit) * base[1] ** v
            if mag != 1 or k == 0:
                factors.append(str(mag))
        if k:
            factors.append("x" if k == 1 else "x^%d" % k)
        terms.append((unit < 0, "*".join(factors)))
    return join_terms(terms)


# ------------------------------------------------------------ random corpus

def corpus_coeffs(rng, base, degree):
    """A random polynomial of the given degree, shaped like keyval's CorpusConfig samples.

    Each non-leading term is zero with probability 0.3; nonzero terms are
    +-1..3 * y^v (v <= 3) over Q(y) and +-(1..p-1) * p^v (v <= 3) over Q_p.
    """
    coeffs = []
    for k in range(degree + 1):
        if k < degree and rng.random() < 0.3:
            coeffs.append(None)
            continue
        if base[0] == "y":
            unit = rng.choice([1, 2, 3, -1, -2, -3])
        else:
            unit = rng.randrange(1, base[1]) * rng.choice([1, -1])
        coeffs.append((unit, rng.randint(0, 3)))
    return coeffs


def corpus_poly(rng, base, max_degree):
    """Text of a corpus polynomial with a degree drawn from [1, max_degree]."""
    return xpoly_text(corpus_coeffs(rng, base, rng.randint(1, max_degree)), base)


# ----------------------------------------------------- conic-branch keys

def _binom_half(n):
    r = Fraction(1)
    for i in range(n):
        r = r * (Fraction(1, 2) - i) / (i + 1)
    return r


def conic_branch(order):
    """Coefficients of -y*sqrt(1+y) = -sum binom(1/2, n) y^(n+1), below ``order``."""
    return [Fraction(0)] + [-_binom_half(n) for n in range(order - 1)]


_PHI = conic_branch(2 * CONIC_CAP)


def conic_key(k):
    """x - phi_<k, the truncation key whose value on the branch is exactly k.

    Every coefficient binom(1/2, n) is nonzero, so the tail phi - phi_<k
    starts at y^k.
    """
    if not 1 <= k < len(_PHI):
        raise ValueError("key order %d out of range" % k)
    terms = [(not neg, body) for neg, body in ypoly_terms(_PHI[:k])]
    return join_terms([(False, "x")] + terms)


def conic_request(rng, kind, order):
    """(poly text, expected value) for a polynomial whose cleared order is ``order``.

    ``order`` is the order of vanishing of the polynomial with y-denominators
    cleared, which sets the precision the oracle must reach.  Kinds: "key"
    (value order), "product" of two or three keys (value the sum of their
    orders), "scaled" key divided by y^s (value order - s).
    """
    if kind == "key" or order < 3:
        return conic_key(order), order
    if kind == "product":
        parts = 3 if order >= 6 and rng.random() < 0.3 else 2
        cuts = sorted(rng.sample(range(1, order), parts - 1))
        ks = [b - a for a, b in zip([0] + cuts, cuts + [order])]
        return "*".join("(%s)" % conic_key(k) for k in ks), order
    if kind == "scaled":
        s = rng.randint(1, min(3, order - 1))
        return "(%s)/y^%d" % (conic_key(order), s), order - s
    raise ValueError("unknown conic request kind %r" % kind)


def conic_multiple(rng):
    """A multiple of the defining polynomial: zero in L, so the oracle exhausts its cap.

    The cofactor has degree 1, so every such request costs about the same.
    """
    cofactor = xpoly_text(corpus_coeffs(rng, ("y", None), 1), ("y", None))
    return "(%s)*(%s)" % (CONIC_DEFINING, cofactor)


def stratified(rng, lo, hi, n):
    """n integers spread evenly over [lo, hi], with a random offset, shuffled."""
    width = (hi - lo + 1) / n
    u = rng.random()
    out = [lo + int((i + u) * width) for i in range(n)]
    rng.shuffle(out)
    return out


def rng_for(seed, *labels):
    """An RNG for one named stream of one seed, independent of the others."""
    return random.Random("%d/%s" % (seed, "/".join(str(x) for x in labels)))
