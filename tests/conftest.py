"""Shared helpers: seeded random normal-form generators and counters of
quadrature, right-hand-side and chart-stage evaluations.

Coefficients are small exact rationals so that f1(x, 0) stays positive
on [-1, 1] by construction and every identity can be checked exactly.
"""

import random
from fractions import Fraction

import pytest

from fakesaddle import asymptotics
from fakesaddle.normalform import NormalFormField
from fakesaddle.polyfield import PlanarField, Poly2


def frac(rng, lo=-8, hi=8, den=16):
    return Fraction(rng.randint(lo, hi), den)


def random_invariant_triple(rng, d_positive=False):
    """Random exact (a, b, c); optionally constrained to d > 0."""
    while True:
        a = Fraction(rng.randint(-24, 24), 16)
        b = Fraction(rng.randint(-24, 24), 16)
        c = Fraction(rng.randint(-24, 12), 16)
        d = 4 * (1 - c) - (a - b) ** 2
        if not d_positive or d > Fraction(1, 25):
            return a, b, c


def random_normal_form(rng, d_positive=False):
    """Random polynomial member with f1(x,0) > 0 on [-1, 1].

    f1 and f2 have constant term 1 and x-profile coefficients bounded by
    1/4 in absolute value (at most three of them), so the profile cannot
    vanish on the unit interval.
    """
    a, b, c = random_invariant_triple(rng, d_positive=d_positive)
    x, y = Poly2.gens()
    f1 = Poly2.const(1)
    for k in (1, 2, 3):
        f1 = f1 + x ** k * Fraction(rng.randint(-4, 4), 16)
    f1 = f1 + x * y * frac(rng) + y ** 2 * frac(rng)
    f2 = Poly2.const(1) + x * frac(rng) + y * frac(rng)
    g1 = Poly2.const(c)
    for k in (1, 2):
        g1 = g1 + x ** k * frac(rng)
    g1 = g1 + y * frac(rng) + x * y * frac(rng)
    g2 = Poly2.const(b) + Poly2.from_univariate([0, frac(rng), frac(rng)],
                                                var=1)
    return NormalFormField(f1, f2, g1, g2, a)


@pytest.fixture
def rng():
    return random.Random(20260808)


@pytest.fixture
def count_evals(monkeypatch):
    """Count integrand evaluations through quadrature functions of
    ``fakesaddle.asymptotics``.

    ``count_evals(*names)`` patches each named function and returns one
    shared list; every evaluation adds one to its last entry, so a test
    appends 0 before each call it measures.
    """
    def install(*names):
        evals = []
        for name in names:
            quad = getattr(asymptotics, name)

            def counting_quad(f, *args, _quad=quad, **kw):
                def counted(x):
                    evals[-1] += 1
                    return f(x)
                return _quad(counted, *args, **kw)

            monkeypatch.setattr(asymptotics, name, counting_quad)
        return evals
    return install


@pytest.fixture
def count_calls(monkeypatch):
    """Count calls of the compiled functions that ``PlanarField`` methods
    return: ``as_rhs``, one per field evaluation, ``as_chart_slope``, one
    per stage of a turn's legs, over theta or over log|theta - theta_f|,
    ``as_chart``, one per stage of a turn past a fold, and
    ``as_x_dir_slope``, one per stage of a transit's outer leg.  The two
    slopes close over their leg, so each call of the method, with the
    leg's arguments, returns a counted closure of its own.

    ``count_calls(*names)`` patches each named method and returns one
    shared list; every call adds one to its last entry, so a test appends
    0 before each call it measures.
    """
    def install(*names):
        calls = []
        for name in names:
            def counting(self, *bound, _compile=getattr(PlanarField, name)):
                f = _compile(self, *bound)

                def counted(*args):
                    calls[-1] += 1
                    return f(*args)
                return counted

            monkeypatch.setattr(PlanarField, name, counting)
        return calls
    return install
