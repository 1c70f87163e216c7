import math
import random
import statistics
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


class TestGK15:
    def test_exact_on_monomials(self):
        for k in range(21):
            val, _ = asy.gk15_quad(lambda x: x ** k, -1.0, 2.0)
            want = (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            assert val == pytest.approx(want, rel=1e-14)

    def test_oriented_interval(self):
        def f(x):
            return 1.0 / (1.0 + x * x)

        fwd, fwd_err = asy.gk15_quad(f, -0.5, 3.0)
        back, back_err = asy.gk15_quad(f, 3.0, -0.5)
        assert fwd == pytest.approx(math.atan(3.0) + math.atan(0.5),
                                    abs=1e-14)
        assert back == pytest.approx(-fwd, abs=1e-15)
        assert back_err == pytest.approx(fwd_err, rel=1e-12)

    def test_budget_exhaustion(self):
        with pytest.raises(asy.QuadratureNonConvergent):
            asy.gk15_quad(lambda x: math.sin(1e4 * x), 0.0, 1.0,
                          max_evals=64)

    def test_non_finite_integrand_fails_at_once(self, count_evals):
        evals = count_evals("gk15_quad")
        evals.append(0)
        with pytest.raises(asy.QuadratureNonConvergent):
            asy.gk15_quad(lambda x: 1e308 * (1.0 + x * x), 0.0, 1.0)
        assert evals[-1] == 15

    def test_error_bars_cover_the_divisor_side_integrals(self):
        # |quadrature - closed form| within the reported estimate for
        # log L2_minus(1) and log L1_plus(1)
        rng = random.Random(606)
        for _ in range(500):
            a, b, c = random_invariant_triple(rng, d_positive=True)
            ls = asy.log_l_integrals(build_example6(a, b, c), SECTIONS)
            fa, fb, fc = float(a), float(b), float(c)
            for key, err, closed in (
                    ("log_L2_minus", ls["errors"][2],
                     asy.log_l2_minus_closed(1.0, fa, fb, fc)),
                    ("log_L1_plus", ls["errors"][3],
                     asy.log_l1_plus_closed(1.0, fa, fb, fc))):
                assert abs(ls[key] - closed) <= err + 1e-13, (a, b, c, key)

    def test_simpson_false_convergence_case(self):
        # adaptive Simpson reported an error of 2.9e-11 here while its
        # log L2_minus(1) was 8.0e-6 off the closed form
        nf = build_example6(Fraction(5, 4), Fraction(0), Fraction(-3, 4))
        ls = asy.log_l_integrals(nf, asy.SectionPair(-0.5, 0.5625))
        assert ls["log_L2_minus"] == pytest.approx(
            asy.log_l2_minus_closed(1.0, 1.25, 0.0, -0.75), abs=1e-12)
        assert ls["log_L1_plus"] == pytest.approx(
            asy.log_l1_plus_closed(1.0, 1.25, 0.0, -0.75), abs=1e-12)


class TestEvaluationBudget:
    """Integrand evaluations of both rules together per call."""

    def test_transition_report(self, count_evals, rng):
        evals = count_evals("gk15_quad", "adaptive_quad")
        for _ in range(50):
            evals.append(0)
            asy.transition_report(random_normal_form(rng, d_positive=True),
                                  SECTIONS)
        assert statistics.median(evals) <= 400
        assert max(evals) <= 1000

    def test_gamma_at_infinity(self, count_evals):
        evals = count_evals("gk15_quad", "adaptive_quad")
        evals.append(0)
        asy.gamma_pm(build_z_normalform(1, 1), None)
        assert evals[-1] <= 1000


class TestQuadrature:
    """Adaptive Simpson, the epsilon oracle's rule."""

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


class TestQuadraticPositivity:
    @staticmethod
    def sturm_positive(coeffs, lo, hi):
        """The Sturm decision, which still serves degrees above 2."""
        c = [Fraction(x) for x in coeffs]
        if u1._sign_at(c, lo, False) <= 0 or u1._sign_at(c, hi, True) <= 0:
            return False
        return u1.count_real_roots(c, lo, hi) == 0

    def test_matches_sturm_on_random_quadratics(self):
        rng = random.Random(707)

        def rational():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

        for _ in range(4000):
            coeffs = [rational() for _ in range(3)]
            ends = sorted({rational(), rational()})
            lo = None if rng.random() < 0.25 else ends[0]
            hi = None if rng.random() < 0.25 else ends[-1]
            if lo is not None and hi is not None and lo == hi:
                continue
            assert (u1.positive_on_interval(coeffs, lo, hi)
                    == self.sturm_positive(coeffs, lo, hi)), (coeffs, lo, hi)


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

    def test_evaluation_budget(self, count_evals):
        # adaptive Simpson in x rather than log|x| needs about 10^5 here
        evals = count_evals("adaptive_quad")
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
                want, abs=1e-12)

    def test_reversible_case_vanishes(self):
        nf = build_z_normalform(0.0, 1.0)
        assert asy.pv_integral_sym_infinite(nf) == pytest.approx(0.0,
                                                                 abs=1e-12)

    def test_arctangent_profile_closed_form(self):
        # g1/(x f1) = (1/2)/(x (1 + x^2)) + 3/(1 + x^2): PV = 0 + 3 pi
        nf = NormalFormField(Poly2.const(1) + X ** 2, Poly2.const(1),
                             Poly2.const(Fraction(1, 2)) + X * 3,
                             Poly2.zero(), 0)
        assert asy.pv_integral_sym_infinite(nf) == pytest.approx(
            3 * math.pi, abs=1e-12)

    def test_evaluation_budget(self, count_evals):
        evals = count_evals("gk15_quad")
        for alpha, beta in ((1, 1), (-2, Fraction(1, 2)), (Fraction(1, 2), 2)):
            evals.append(0)
            asy.pv_integral_sym_infinite(build_z_normalform(alpha, beta))
            assert 0 < evals[-1] <= 500

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
            assert gp == pytest.approx(pv - g0, abs=1e-12)
            assert gm == pytest.approx(pv + g0, abs=1e-12)

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
