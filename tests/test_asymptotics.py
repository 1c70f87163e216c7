import math
import random
from fractions import Fraction

import pytest

from conftest import random_invariant_triple, random_normal_form
from fakesaddle import _univariate as u1
from fakesaddle import asymptotics as asy
from fakesaddle.casebook import build_example6, build_z_normalform
from fakesaddle.normalform import (NormalFormField, invariants,
                                   validate_and_build)
from fakesaddle.polyfield import AffineMap2, PlanarField, Poly2, pullback_affine

X, Y = Poly2.gens()
SECTIONS = asy.SectionPair(-1.0, 1.0)


def y1_normal_form():
    p = (X ** 2 + Y ** 2 - X ** 3 - 4 * X * Y ** 2 + 6 * X ** 2 * Y ** 2
         - 4 * X ** 3 * Y ** 2 + X ** 4 * Y ** 2)
    return validate_and_build(PlanarField(p, X ** 2 * Y))


class TestQuadrature:
    def test_polynomial_integral_exact(self):
        val, err = asy.adaptive_quad(lambda x: x * x, 0.0, 3.0)
        assert val == pytest.approx(9.0, abs=1e-12)

    def test_oriented_interval(self):
        val, _ = asy.adaptive_quad(lambda x: x * x, 3.0, 0.0)
        assert val == pytest.approx(-9.0, abs=1e-12)

    def test_budget_exhaustion(self):
        with pytest.raises(asy.QuadratureNonConvergent):
            asy.adaptive_quad(lambda x: math.sin(1e4 * x), 0.0, 1.0,
                              abs_tol=1e-30, max_evals=64)


class TestSectionPair:
    def test_ordering_enforced(self):
        with pytest.raises(asy.SectionInvalid):
            asy.SectionPair(1.0, -1.0)

    def test_vanishing_profile_rejected(self):
        nf = NormalFormField(Poly2.const(1) - X, Poly2.const(1),
                             Poly2.zero(), Poly2.zero(), 0)
        with pytest.raises(asy.SectionInvalid):
            asy.validate_sections(nf, asy.SectionPair(-1.0, 2.0))
        asy.validate_sections(nf, asy.SectionPair(-1.0, 0.5))


class TestFloatModePositivity:
    """Float coefficients are decided exactly, like rational ones.

    Each profile dips below zero strictly between two nodes of a
    256-cell grid on [-1, 1], or only far out on the line.
    """

    def test_dip_between_grid_nodes(self):
        dip = [(1 / 512) ** 2 - 1e-8, -2 / 512, 1.0]  # roots 1/512 +- 1e-4
        assert not u1.positive_on_interval(dip, -1.0, 1.0)
        assert u1.positive_on_interval(dip, 0.01, 1.0)

    def test_float_profile_dip_rejected_by_sections(self):
        # f1(x,0) = 1 - 512 x + (1 - 1e-4) 65536 x^2 < 0 near x = 1/256
        f1 = Poly2.const(1.0) - X * 512.0 + X ** 2 * (65536.0 * (1 - 1e-4))
        nf = NormalFormField(f1, Poly2.const(1.0), Poly2.zero(),
                             Poly2.zero(), 0.0)
        assert nf.is_float
        with pytest.raises(asy.SectionInvalid):
            asy.validate_sections(nf, SECTIONS)

    def test_float_profile_poles_far_out_rejected_at_infinity(self):
        nf = NormalFormField(Poly2.const(1.0) - X ** 2 * 1e-10,
                             Poly2.const(1.0), Poly2.const(0.5),
                             Poly2.zero(), 0.0)
        with pytest.raises(asy.SectionInvalid):
            asy.pv_integral_sym_infinite(nf)


class TestPvIntegral:
    def test_odd_integrand_on_symmetric_sections(self):
        nf = build_example6(Fraction(1), Fraction(-1), Fraction(-1))
        assert asy.pv_integral(nf, SECTIONS) == pytest.approx(0.0, abs=1e-12)

    def test_pure_logarithmic_part(self):
        # g1 = c * f1 makes the regularized integrand vanish identically
        c = Fraction(-3, 4)
        f1 = Poly2.const(1) + X * Fraction(1, 4)
        nf = NormalFormField(f1, Poly2.const(1), f1 * c, Poly2.zero(), 0)
        val = asy.pv_integral(nf, asy.SectionPair(-0.5, 2.0))
        assert val == pytest.approx(float(c) * math.log(4.0), abs=1e-12)

    def test_resolved_quartic_profile(self):
        # integrand u/(u (1-u)) gives log|(1-alpha)/(1-omega)|
        nf = y1_normal_form()
        val = asy.pv_integral(nf, asy.SectionPair(-1.0, 0.5))
        assert val == pytest.approx(math.log(4.0), abs=1e-10)


class TestEpsOracle:
    def test_odd_integrand(self):
        nf = build_example6(Fraction(1), Fraction(-1), Fraction(-1))
        assert asy.pv_integral_eps_oracle(nf, SECTIONS) == pytest.approx(
            0.0, abs=1e-12)

    def test_resolved_quartic_value(self):
        nf = y1_normal_form()
        val = asy.pv_integral_eps_oracle(nf, asy.SectionPair(-1.0, 0.5))
        assert val == pytest.approx(math.log(4.0), abs=1e-12)

    def test_evaluation_budget(self, monkeypatch):
        # adaptive Simpson in x rather than log|x| needs about 10^5 here
        evals = []
        quad = asy.adaptive_quad

        def counting_quad(f, *args, **kw):
            def counted(x):
                evals[-1] += 1
                return f(x)
            return quad(counted, *args, **kw)

        monkeypatch.setattr(asy, "adaptive_quad", counting_quad)
        rng = random.Random(303)
        forms = [build_example6(Fraction(1), Fraction(-1), Fraction(-1))]
        forms += [random_normal_form(rng) for _ in range(10)]
        for nf in forms:
            evals.append(0)
            asy.pv_integral_eps_oracle(nf, SECTIONS)
            assert 0 < evals[-1] < 20_000

    def test_agreement_with_regularized_path(self, rng):
        for _ in range(15):
            nf = random_normal_form(rng)
            a = asy.pv_integral(nf, SECTIONS)
            b = asy.pv_integral_eps_oracle(nf, SECTIONS)
            assert abs(a - b) < 1e-8


class TestSymmetricInfinite:
    def test_rescaled_family_closed_form(self):
        for alpha, beta in ((1.0, 1.0), (-2.0, 0.5), (0.5, 2.0)):
            nf = build_z_normalform(alpha, beta)
            want = math.pi * alpha / (beta * math.sqrt(3.0))
            assert asy.pv_integral_sym_infinite(nf) == pytest.approx(
                want, abs=1e-8)

    def test_reversible_case_vanishes(self):
        nf = build_z_normalform(0.0, 1.0)
        assert asy.pv_integral_sym_infinite(nf) == pytest.approx(0.0, abs=1e-9)

    def test_growing_profile_rejected(self):
        g1 = Poly2.const(Fraction(1, 2)) + X ** 2
        nf = NormalFormField(Poly2.const(1) + X * 0, Poly2.const(1), g1,
                             Poly2.zero(), 0)
        with pytest.raises(asy.TailNotIntegrable):
            asy.pv_integral_sym_infinite(nf)

    def test_vanishing_profile_rejected(self):
        nf = NormalFormField(Poly2.const(1) - X ** 2 * Fraction(1, 4),
                             Poly2.const(1), Poly2.const(Fraction(1, 2)),
                             Poly2.zero(), 0)
        with pytest.raises(asy.SectionInvalid):
            asy.pv_integral_sym_infinite(nf)


class TestGamma0:
    def test_quadratic_homogeneous(self):
        inv = invariants(build_example6(Fraction(1), Fraction(-1),
                                        Fraction(-1)))
        assert asy.gamma0(inv) == pytest.approx(-math.pi, abs=1e-14)

    def test_vanishes_when_a_b_zero(self):
        inv = invariants(build_example6(Fraction(0), Fraction(0),
                                        Fraction(1, 2)))
        assert asy.gamma0(inv) == 0.0

    def test_rescaled_family(self):
        for beta in (0.5, 1.0, 2.0):
            inv = invariants(build_z_normalform(1.0, beta))
            want = -math.pi / math.sqrt(4.0 * beta - 1.0)
            assert asy.gamma0(inv) == pytest.approx(want, abs=1e-12)

    def test_requires_positive_d(self):
        with pytest.raises(asy.NotHyperbolicFakeSaddle):
            asy.gamma0(invariants(build_example6(Fraction(0), Fraction(0),
                                                 Fraction(2))))


class TestArctanSum:
    def test_symmetric_point(self):
        assert asy.arctan_sum(0.0, 0.0, 0.0) == pytest.approx(-math.pi,
                                                              abs=1e-15)

    def test_reference_points(self):
        for a, b, c in ((1.0, -1.0, -1.0), (0.3, -0.7, 0.2)):
            assert asy.arctan_sum(a, b, c) == pytest.approx(-math.pi,
                                                            abs=1e-12)

    def test_constancy_on_samples(self, rng):
        for _ in range(50):
            a, b, c = (float(v) for v in
                       random_invariant_triple(rng, d_positive=True))
            assert abs(asy.arctan_sum(a, b, c) + math.pi) < 1e-10


class TestGammaPm:
    def test_rescaled_family_infinite_sections(self):
        for alpha, beta in ((1.0, 1.0), (-1.0, 1.0), (1.0, 2.0)):
            nf = build_z_normalform(alpha, beta)
            gp, gm = asy.gamma_pm(nf, None)
            pv = math.pi * alpha / (beta * math.sqrt(3.0))
            g0 = math.pi / math.sqrt(4.0 * beta - 1.0)
            assert gp == pytest.approx(pv - g0, abs=1e-8)
            assert gm == pytest.approx(pv + g0, abs=1e-8)

    def test_quadratic_homogeneous(self):
        nf = build_example6(Fraction(1), Fraction(-1), Fraction(-1))
        gp, gm = asy.gamma_pm(nf, SECTIONS)
        assert gp == pytest.approx(-math.pi, abs=1e-10)
        assert gm == pytest.approx(math.pi, abs=1e-10)

    def test_symmetric_invariants_coincide(self):
        nf = y1_normal_form()
        gp, gm = asy.gamma_pm(nf, asy.SectionPair(-1.0, 0.5))
        assert gp == pytest.approx(math.log(4.0), abs=1e-10)
        assert gm == pytest.approx(math.log(4.0), abs=1e-10)

    def test_mirror_swaps_components(self, rng):
        flip = AffineMap2.scaling(1, -1)
        for _ in range(15):
            nf = random_normal_form(rng, d_positive=True)
            mirrored = validate_and_build(pullback_affine(nf.field(), flip))
            gp, gm = asy.gamma_pm(nf, SECTIONS)
            mp, mm = asy.gamma_pm(mirrored, SECTIONS)
            assert mp == pytest.approx(gm, abs=1e-9)
            assert mm == pytest.approx(gp, abs=1e-9)


class TestDelta00:
    def test_quadratic_homogeneous(self):
        nf = build_example6(Fraction(1), Fraction(-1), Fraction(-1))
        val = asy.delta00_via_L(nf, SECTIONS)
        assert val == pytest.approx(math.exp(-math.pi), rel=1e-8)

    def test_resolved_quartic(self):
        val = asy.delta00_via_L(y1_normal_form(), asy.SectionPair(-1.0, 0.5))
        assert val == pytest.approx(4.0, rel=1e-8)

    def test_trivial_symmetric_case(self):
        nf = build_example6(Fraction(0), Fraction(0), Fraction(0))
        nf = NormalFormField(nf.f1, nf.f2, Poly2.zero(), nf.g2, 0)
        assert asy.delta00_via_L(nf, SECTIONS) == pytest.approx(1.0, rel=1e-10)

    def test_matches_closed_form_on_randoms(self, rng):
        for _ in range(10):
            nf = random_normal_form(rng, d_positive=True)
            gp, _ = asy.gamma_pm(nf, SECTIONS)
            via_l = asy.delta00_via_L(nf, SECTIONS)
            assert via_l == pytest.approx(math.exp(gp), rel=1e-7)


class TestAnalyticFastPath:
    def test_log_l1_plus_closed_vs_quadrature(self, rng):
        for _ in range(25):
            nf = random_normal_form(rng, d_positive=True)
            inv = invariants(nf)
            a, b, c = (float(inv.a), float(inv.b), float(inv.c))
            ls = asy.log_l_integrals(nf, SECTIONS)
            assert ls["log_L1_plus"] == pytest.approx(
                asy.log_l1_plus_closed(1.0, a, b, c), abs=1e-9)
            assert ls["log_L2_minus"] == pytest.approx(
                asy.log_l2_minus_closed(1.0, a, b, c), abs=1e-9)

    def test_log_part_at_unit_argument(self, rng):
        # the non-arctan part of log L1_plus(1) collapses to
        # -c/(2(1-c)) log(1-c), independent of a and b
        for _ in range(25):
            a, b, c = (float(v) for v in
                       random_invariant_triple(rng, d_positive=True))
            d = 4.0 * (1.0 - c) - (a - b) ** 2
            sd = math.sqrt(d)
            pref = -((a + b) * c - 2.0 * b) / ((1.0 - c) * sd)
            beta_part = pref * (
                math.atan((2.0 * (1.0 - c) + b - a
                           + 2.0 * (a - b + c - 2.0)) / sd)
                - math.atan((2.0 * (1.0 - c) + b - a) / sd))
            alpha_part = asy.log_l1_plus_closed(1.0, a, b, c) - beta_part
            want = -c / (2.0 * (1.0 - c)) * math.log(1.0 - c)
            assert alpha_part == pytest.approx(want, abs=1e-12)


class TestTransitionReport:
    def test_report_consistency(self):
        nf = build_example6(Fraction(1), Fraction(-1), Fraction(-1))
        rep = asy.transition_report(nf, SECTIONS)
        assert rep.gamma_plus == pytest.approx(rep.pv + rep.gamma0, abs=1e-14)
        assert rep.gamma_minus == pytest.approx(rep.pv - rep.gamma0, abs=1e-14)
        assert rep.delta00_closed == pytest.approx(math.exp(rep.gamma_plus))
        assert rep.delta00_via_L == pytest.approx(rep.delta00_closed, rel=1e-7)
        assert all(e >= 0 for e in rep.quadrature_error_estimates)

    def test_infinite_sections_skip_l_route(self):
        rep = asy.transition_report(build_z_normalform(1.0, 1.0), None)
        assert rep.delta00_via_L is None
        data = rep.to_json()
        assert data["delta00_via_L"] is None
