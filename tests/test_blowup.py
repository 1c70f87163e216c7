import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import fakesaddle

from conftest import random_normal_form
from fakesaddle import _univariate as u1
from fakesaddle.blowup import (BlowupChart, ChartKind, NotDivisible,
                               Rational1, UnsupportedChart, blow_up,
                               closed_r12_plus, closed_r21_minus,
                               divisor_report, linear_part, saddle_data)
from fakesaddle.casebook import build_example6, build_xn, build_z, \
    printed_z_blowup
from fakesaddle.normalform import NotHyperbolicFakeSaddle, invariants
from fakesaddle.polyfield import PlanarField, Poly2

U, V = Poly2.gens()
F = Fraction


class TestBlowUp:
    def test_degenerate_quartic_swapped_chart(self):
        res = blow_up(build_xn(4), BlowupChart(ChartKind.X_DIR_SWAPPED, 1))
        assert res.field.p == (-(U + 1) ** 2 + U ** 3 * V ** 2) * U
        assert res.field.q == (U + 1) ** 2 * V
        assert res.u_factor == -(U + 1) ** 2 + U ** 3 * V ** 2
        assert res.v_factor == (U + 1) ** 2

    def test_quartic_family_chart(self):
        alpha, beta = Fraction(3, 2), Fraction(5)
        res = blow_up(build_z(alpha, beta),
                      BlowupChart(ChartKind.X_DIR_SWAPPED, 2))
        printed = printed_z_blowup(alpha, beta)
        assert res.field.p == printed.p
        assert res.field.q == printed.q

    def test_radial_field(self):
        res = blow_up(PlanarField(U, V), BlowupChart(ChartKind.X_DIR, 0))
        assert res.field.p == U
        assert res.field.q == Poly2.zero()

    @pytest.mark.parametrize("field, chart, component", [
        # (1, 0) is not singular at the centre: vdot = -v/u
        (PlanarField(Poly2.const(1), Poly2.zero()),
         BlowupChart(ChartKind.X_DIR, 1), "q"),
        # the radial field blows up to (u, 0), which u^2 does not divide
        (PlanarField(U, V), BlowupChart(ChartKind.X_DIR, 2), "p"),
    ])
    def test_inexact_division_is_not_divisible(self, field, chart, component):
        with pytest.raises(NotDivisible) as err:
            blow_up(field, chart)
        assert err.value.component == component

    def test_unsupported_chart(self):
        with pytest.raises(UnsupportedChart):
            blow_up(PlanarField(U, V), BlowupChart("weighted", 1))

    def test_charts_compose_no_polynomials(self, monkeypatch, rng):
        # each chart maps terms in closed form: no Poly2.eval, no product
        fields = [random_normal_form(rng).field() for _ in range(5)]
        fields.append(build_z(1.0, 1.0))

        def forbidden(*_args):
            raise AssertionError("blow_up composed polynomials")

        for name in ("eval", "__mul__", "__rmul__"):
            monkeypatch.setattr(Poly2, name, forbidden)
        for field in fields:
            for kind in ChartKind:
                try:
                    blow_up(field, BlowupChart(kind, 1))
                except NotDivisible:
                    pass


class TestDivisorReport:
    def test_no_real_roots_when_d_positive(self):
        rep = divisor_report(build_example6(Fraction(1), Fraction(-1),
                                            Fraction(-1)))
        assert rep.roots == ()
        assert rep.discriminant == -4
        assert rep.origin_data == (1, -2)

    def test_double_root_at_origin_for_semi_hyperbolic(self):
        rep = divisor_report(build_example6(Fraction(0), Fraction(0),
                                            Fraction(1)))
        assert len(rep.roots) == 1
        assert rep.roots[0].location == 0.0
        assert rep.roots[0].multiplicity == 2

    def test_fully_degenerate_double_point(self):
        rep = divisor_report(build_example6(Fraction(2), Fraction(0),
                                            Fraction(0)))
        (root,) = rep.roots
        assert root.location == -1.0
        assert root.multiplicity == 2
        assert not root.nonzero_eigenvalue
        assert rep.q_on_divisor == (-1, -2, -1)
        assert rep.origin_data == (1, -1)

    def test_origin_unit_radial_coefficient(self, rng):
        for _ in range(30):
            nf = random_normal_form(rng)
            assert divisor_report(nf).origin_data[0] == 1

    def test_discriminant_is_minus_d(self, rng):
        for _ in range(50):
            nf = random_normal_form(rng)
            assert divisor_report(nf).discriminant == -invariants(nf).d

    def test_identity_checks_survive_optimize(self):
        # python -O strips assert statements; these checks must still raise
        script = textwrap.dedent("""
            import dataclasses, sys
            from fakesaddle import blowup, casebook
            from fakesaddle.polyfield import Poly2

            if not sys.flags.optimize:
                sys.exit("not optimized")
            real_blow_up, real_invariants = blowup.blow_up, blowup.invariants
            V = Poly2.gens()[1]

            def q0_off(field, chart):  # Q(0, v) gains a v term
                res = real_blow_up(field, chart)
                return dataclasses.replace(res, v_factor=res.v_factor + V)

            def d_off(nf):
                inv = real_invariants(nf)
                return dataclasses.replace(inv, d=inv.d + 1)

            def no_v_factor(field, chart):
                return dataclasses.replace(real_blow_up(field, chart),
                                           v_factor=None)

            for mod, name, patch, run in [
                    (blowup, "blow_up", q0_off, lambda: blowup.divisor_report(
                        casebook.build_example6(1, -1, -1))),
                    (blowup, "blow_up", q0_off, lambda: blowup.divisor_report(
                        casebook.build_example6(1.0, -1.0, -1.0))),
                    (blowup, "invariants", d_off, lambda: blowup.divisor_report(
                        casebook.build_example6(1, -1, -1))),
                    (blowup, "invariants", d_off, lambda: blowup.divisor_report(
                        casebook.build_example6(1.0, -1.0, -1.0))),
                    (casebook, "blow_up", no_v_factor, casebook.run_x3_script)]:
                real = getattr(mod, name)
                setattr(mod, name, patch)
                try:
                    run()
                except AssertionError as exc:
                    print(exc)
                else:
                    sys.exit(f"no error with {name} patched")
                finally:
                    setattr(mod, name, real)
        """)
        src = os.path.dirname(os.path.dirname(fakesaddle.__file__))
        out = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert [line.split(" fails")[0] for line in lines[:4]] == \
            ["Q(0, v) = -v^2 + (b-a) v + c - 1"] * 2 \
            + ["discriminant of Q(0, v) = -d"] * 2
        assert "not divisible by v" in lines[4]


def value(r, t):
    """The rational function ``r`` (a ``Rational1``) at ``t``."""
    return u1.ev(list(r.num), t) / u1.ev(list(r.den), t)


class TestSaddleData:
    def test_hyperbolicity_ratios(self, rng):
        for _ in range(20):
            nf = random_normal_form(rng, d_positive=True)
            sd = saddle_data(nf)
            c = invariants(nf).c
            assert sd.lambda_plus == 1 - c
            assert sd.lambda_minus == 1 / (1 - c)
            assert sd.lambda_plus * sd.lambda_minus == 1

    def test_restriction_values_at_origin(self, rng):
        # the two transported quotients start at -1/ratio on each side
        for _ in range(15):
            nf = random_normal_form(rng, d_positive=True)
            sd = saddle_data(nf)
            lam_m = sd.lambda_minus
            assert value(sd.r21_minus, 0.0) == pytest.approx(-float(lam_m))
            assert value(sd.r12_plus, 0.0) == pytest.approx(
                -1.0 / float(sd.lambda_plus))

    def test_symmetric_case_constant_quotient(self):
        nf = build_example6(Fraction(0), Fraction(0), Fraction(0))
        sd = saddle_data(nf)
        # r12_plus is identically -1: numerator + denominator = 0
        total = [a + b for a, b in zip(sd.r12_plus_closed.num,
                                       sd.r12_plus_closed.den)]
        assert all(v == 0 for v in total)
        assert sd.r12_plus.equals(sd.r12_plus_closed)

    def test_pure_quadratic_fiber_quotient(self):
        c = Fraction(1, 2)
        nf = build_example6(Fraction(0), Fraction(0), c)
        sd = saddle_data(nf)
        # g1/f1 - 1 with constant g1 = c and f1 = 1 is the constant c - 1
        assert sd.r21_plus.equals(Rational1((c - 1,), (Fraction(1),)))

    def test_closed_forms_match_generic_pullback(self, rng):
        for _ in range(200):
            nf = random_normal_form(rng, d_positive=True)
            a, b, c = (invariants(nf).a, invariants(nf).b, invariants(nf).c)
            sd = saddle_data(nf)
            assert sd.r21_minus.equals(closed_r21_minus(a, b, c))
            assert sd.r12_plus.equals(closed_r12_plus(a, b, c))
            assert sd.r12_minus.equals(sd.r12_minus_closed)
            assert sd.r21_plus.equals(sd.r21_plus_closed)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NotHyperbolicFakeSaddle):
            saddle_data(build_example6(Fraction(0), Fraction(0), Fraction(2)))

    def test_float_mode_ratios_toleranced(self):
        from fakesaddle.casebook import build_z_normalform
        nf = build_z_normalform(1.0, 1.0)  # irrational rescale: float mode
        sd = saddle_data(nf)
        assert abs(sd.lambda_plus * sd.lambda_minus - 1.0) < 1e-14
        a, b, c = (float(v) for v in (invariants(nf).a, invariants(nf).b,
                                      invariants(nf).c))
        closed = closed_r12_plus(a, b, c)
        for t in (0.0, 0.25, 0.7):
            assert value(sd.r12_plus, t) == pytest.approx(value(closed, t),
                                                          rel=1e-12)


class TestRational1Equals:
    def test_equal_tuples(self):
        r = Rational1((F(1), F(-2, 3)), (F(3), F(0), 1))
        assert r.equals(Rational1(r.num, r.den))

    def test_equal_rationals_that_differ_as_tuples(self):
        # num and den scaled by 2, and a trailing zero in num: the same
        # rational function through the cross product
        r = Rational1((F(1), F(-2, 3)), (F(3), F(5)))
        scaled = Rational1(tuple(2 * c for c in r.num) + (F(0),),
                           tuple(2 * c for c in r.den))
        assert scaled.num != r.num
        assert r.equals(scaled) and scaled.equals(r)
        assert Rational1((0.5, 1.5), (1.0,)).equals(Rational1((1.0, 3.0),
                                                              (2.0,)))

    def test_unequal_rationals(self):
        r = Rational1((F(1), F(-2, 3)), (F(3), F(5)))
        assert not r.equals(Rational1(r.num, (F(3), F(4))))
        assert not r.equals(Rational1((F(1), F(2, 3)), r.den))
        assert not r.equals(Rational1((F(2), F(-4, 3)), r.den))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_coefficient_takes_the_cross_product(self, bad):
        # equal tuples, but NaN * 1.0 is no number and inf * 0.0 is NaN:
        # the cross product's answer, as without the shortcut
        r = Rational1((bad,), (0.0, 1.0))
        assert not r.equals(Rational1(r.num, r.den))


class TestLinearPart:
    def test_exact_jacobian(self):
        field = PlanarField(U ** 2 - V, U * V)
        lp = linear_part(field, (Fraction(1), Fraction(2)))
        assert lp == ((2, -1), (2, 1))
