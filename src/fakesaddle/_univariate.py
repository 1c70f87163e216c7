"""Internal helpers for univariate polynomials given as coefficient lists.

A polynomial c0 + c1*t + ... + cn*t^n is the list [c0, c1, ..., cn].
Coefficients are Fractions in exact mode or floats in float mode.  The
positivity check scales them to coprime integers before counting roots
by Sturm sequences in integer arithmetic; every finite float is an
exact binary rational, so the check is exact in both modes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, sqrt


def trim(coeffs):
    """Drop trailing zero coefficients; the zero polynomial is []."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def degree(coeffs):
    c = trim(coeffs)
    return len(c) - 1 if c else -1


def ev(coeffs, t):
    """Horner evaluation; exact when coeffs and t are rational."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def deriv(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:]


def add(a, b):
    n = max(len(a), len(b))
    return trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                 for k in range(n)])


def sub_(a, b):
    return add(a, [-c for c in b])


def scale(a, s):
    return trim([s * c for c in a])


def mul(a, b):
    a, b = trim(a), trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def negate_var(a):
    """Coefficients of p(-t)."""
    return trim([(-c if k % 2 else c) for k, c in enumerate(a)])


def eq(a, b):
    return trim(a) == trim(b)


def _sign(v):
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def _sign_at(coeffs, t, positive_end):
    """Sign of the polynomial at the rational t; None means the infinite
    end.  With t = a/b, b > 0, the sign is that of b^n p(a/b), summed
    without division: exact, and in integers for integer coefficients."""
    c = trim(coeffs)
    if not c:
        return 0
    if t is None:
        if positive_end or (len(c) - 1) % 2 == 0:
            return _sign(c[-1])
        return -_sign(c[-1])
    a, b = t.as_integer_ratio()
    acc, b_pow = c[-1], 1
    for ck in reversed(c[:-1]):
        b_pow *= b
        acc = acc * a + ck * b_pow
    return _sign(acc)


def _primitive(coeffs):
    """The positive multiple of ``coeffs`` (rationals, floats included)
    with coprime integer coefficients, trimmed."""
    ratios = [x.as_integer_ratio() for x in coeffs]
    den = lcm(*(d for _n, d in ratios))
    c = trim([n * (den // d) for n, d in ratios])
    g = gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _positive_prem(a, b):
    """A positive multiple of the remainder of a by b, in integers: the
    pseudo-remainder, with |lc(b)| in place of lc(b) as each step's
    factor and the sign of lc(b) moved onto the subtracted term."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    scale, sign = abs(lb), (1 if lb > 0 else -1)
    while len(r) > db:
        lead = sign * r.pop()
        k = len(r) - db
        r = [scale * x for x in r]
        for i, cb in enumerate(b[:-1]):
            r[k + i] -= lead * cb
    return trim(r)


def sturm_chain(coeffs):
    """A Sturm sequence of ``coeffs``: each member a positive multiple of
    the classical one, as a primitive integer polynomial."""
    chain = [_primitive(coeffs)]
    d = deriv(chain[0])
    if trim(d):
        chain.append(_primitive(d))
        while True:
            r = _positive_prem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(_primitive([-c for c in r]))
    return chain


def _sign_variations(values):
    v, prev = 0, 0
    for s in values:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            v += 1
        prev = s
    return v


def count_real_roots(coeffs, lo=None, hi=None):
    """Number of distinct real roots in (lo, hi]; None means -inf / +inf.

    Exact for rational and float coefficients and endpoints.  Endpoints
    must not be roots when finite (callers check f(lo), f(hi) separately).
    """
    chain = sturm_chain(coeffs)
    if len(chain) == 1 and degree(chain[0]) <= 0:
        return 0
    return (_sign_variations([_sign_at(p, lo, False) for p in chain])
            - _sign_variations([_sign_at(p, hi, True) for p in chain]))


def positive_on_interval(coeffs, lo, hi):
    """True when the polynomial is strictly positive on [lo, hi].

    None means -inf / +inf.  Coefficients and finite endpoints are taken
    as exact rationals (a float is an exact binary rational), so the
    decision is exact for float coefficients too: positive at both ends
    and no root between them, by a Sturm count in integers.
    """
    c = _primitive(coeffs)
    if _sign_at(c, lo, False) <= 0 or _sign_at(c, hi, True) <= 0:
        return False
    return count_real_roots(c, lo, hi) == 0


def sqrt_fraction(value):
    """Exact square root of a nonnegative Fraction, or None."""
    fr = Fraction(value)
    if fr < 0:
        return None
    rn, rd = isqrt(fr.numerator), isqrt(fr.denominator)
    if rn * rn == fr.numerator and rd * rd == fr.denominator:
        return Fraction(rn, rd)
    return None


def split_roots(half, disc):
    """The real roots half -+ sqrt(disc)/2 of a quadratic with
    discriminant ``disc``, a double root once: exact where disc is the
    square of a rational, float otherwise."""
    if disc < 0:
        return ()
    if disc == 0:
        return (half,)
    s = sqrt_fraction(disc) if not isinstance(disc, float) else None
    root = s if s is not None else sqrt(float(disc))
    return half - root / 2, half + root / 2
