"""Internal helpers for univariate polynomials given as coefficient lists.

A polynomial c0 + c1*t + ... + cn*t^n is the list [c0, c1, ..., cn].
Coefficients are Fractions in exact mode or floats in float mode.  The
positivity check converts them to Fractions before counting roots by
Sturm sequences; every finite float is an exact binary rational, so the
check is exact in both modes.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


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


def divmod_poly(a, b):
    """Polynomial division a = q*b + r over the coefficient field."""
    a, b = trim(a), trim(b)
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    q = [0] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(r) > db:
        k = len(r) - 1 - db
        f = r.pop() / lb  # the leading term cancels by construction
        q[k] = f
        for i, cb in enumerate(b[:-1]):
            r[k + i] -= f * cb
    return trim(q), trim(r)


def _sign(v):
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def _sign_at(coeffs, t, positive_end):
    """Sign of the polynomial at t; None means the infinite end."""
    if t is not None:
        return _sign(ev(coeffs, t))
    c = trim(coeffs)
    if not c:
        return 0
    if positive_end or (len(c) - 1) % 2 == 0:
        return _sign(c[-1])
    return -_sign(c[-1])


def sturm_chain(coeffs):
    chain = [trim(coeffs)]
    d = deriv(chain[0])
    if trim(d):
        chain.append(trim(d))
        while True:
            _, r = divmod_poly(chain[-2], chain[-1])
            r = trim(r)
            if not r:
                break
            chain.append([-c for c in r])
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

    Exact for Fraction coefficients.  Endpoints must not be roots when
    finite (callers check f(lo), f(hi) separately).
    """
    chain = sturm_chain(coeffs)
    if len(chain) == 1 and degree(chain[0]) <= 0:
        return 0
    return (_sign_variations([_sign_at(p, lo, False) for p in chain])
            - _sign_variations([_sign_at(p, hi, True) for p in chain]))


def positive_on_interval(coeffs, lo, hi):
    """True when the polynomial is strictly positive on [lo, hi].

    None means -inf / +inf.  Coefficients and finite endpoints are taken
    as exact Fractions (a float is an exact binary rational), so the
    decision is exact for float coefficients too.  Past the endpoint
    signs, degree 2 is decided by its vertex and higher degrees by a
    Sturm count.
    """
    c = trim(Fraction(x) for x in coeffs)
    lo, hi = (None if t is None else Fraction(t) for t in (lo, hi))
    if _sign_at(c, lo, False) <= 0 or _sign_at(c, hi, True) <= 0:
        return False
    if len(c) < 3:
        return True  # constant or monotone
    if len(c) == 3:
        c0, c1, c2 = c
        if c2 < 0:
            return True  # concave: the minimum sits at an endpoint
        v = -c1 / (2 * c2)
        inside = (lo is None or lo < v) and (hi is None or v < hi)
        return not inside or c1 * c1 < 4 * c0 * c2
    return count_real_roots(c, lo, hi) == 0


def series_div(num, den, order):
    """Power-series coefficients of num/den up to t^order; den[0] != 0."""
    if not den or den[0] == 0:
        raise ZeroDivisionError("series division needs den(0) != 0")
    out = []
    acc = list(num) + [0] * max(0, order + 1 - len(num))
    for k in range(order + 1):
        s = acc[k] / den[0]
        out.append(s)
        for i in range(1, min(len(den), order + 1 - k)):
            acc[k + i] -= s * den[i]
    return out


def sqrt_fraction(value):
    """Exact square root of a nonnegative Fraction, or None."""
    fr = Fraction(value)
    if fr < 0:
        return None
    rn, rd = isqrt(fr.numerator), isqrt(fr.denominator)
    if rn * rn == fr.numerator and rd * rd == fr.denominator:
        return Fraction(rn, rd)
    return None
