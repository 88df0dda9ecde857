"""Exact rational arithmetic helpers.

Rat is fractions.Fraction; it exposes .numerator/.denominator and
interoperates with Python ints, which is all the rest of the package
relies on.
"""

import math
from fractions import Fraction as Rat

R0 = Rat(0)
R1 = Rat(1)

# Rational surrogate slightly above ln 4 = 1.38629436...; used wherever an
# exact comparison against the ln 4 bound is wanted.
LN4_UPPER = Rat(1386295, 1000000)

_HARMONIC = [R0]


def harmonic(n):
    """H(n) = 1 + 1/2 + ... + 1/n as an exact rational; H(0) = 0."""
    if n < 0:
        raise ValueError("harmonic number of negative index")
    while len(_HARMONIC) <= n:
        k = len(_HARMONIC)
        _HARMONIC.append(_HARMONIC[-1] + Rat(1, k))
    return _HARMONIC[n]


def lcm_denominators(values):
    """lcm of the denominators of an iterable of ints and Rats (>= 1)."""
    n = 1
    for v in values:
        n = math.lcm(n, v.denominator)
    return n


def exact_div(n, d):
    """n / d for integers where d divides n; raises on a nonzero remainder,
    so an integer scale that is too coarse fails loudly."""
    q, r = divmod(n, d)
    if r:
        raise AssertionError("%d / %d leaves remainder %d" % (n, d, r))
    return q


def scaled(q, scale):
    """The rational q (an int or Rat) times `scale` as an exact integer."""
    return exact_div(q.numerator * scale, q.denominator)


def rat_to_json(q):
    q = Rat(q)
    return {
        "num": int(q.numerator),
        "den": int(q.denominator),
        "decimal": float(q.numerator) / float(q.denominator),
    }

