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


def log_l1_plus_closed(u, a, b, c):
    """log L1_plus(u) in closed form, a log plus arctan terms, where d > 0
    keeps the denominator quadratic definite."""
    d = 4.0 * (1.0 - c) - (a - b) ** 2
    if d <= 0:
        raise asy.NotHyperbolicFakeSaddle(f"d = {d} is not positive")
    sd = math.sqrt(d)
    quad_val = (1.0 - c + (a - b + 2.0 * c - 2.0) * u
                + (-a + b - c + 2.0) * u * u)
    alpha_part = c / (2.0 * (1.0 - c)) * math.log(quad_val / (1.0 - c))
    pref = -((a + b) * c - 2.0 * b) / ((1.0 - c) * sd)
    beta_part = pref * (
        math.atan((2.0 * (1.0 - c) + b - a + 2.0 * (a - b + c - 2.0) * u) / sd)
        - math.atan((2.0 * (1.0 - c) + b - a) / sd))
    return alpha_part + beta_part


def log_l2_minus_closed(u, a, b, c):
    """log L2_minus(u) in closed form: the mirror of log L1_plus."""
    return log_l1_plus_closed(u, -a, -b, c)


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

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(asy, "QUAD_MAX_EVALS", 64)
        with pytest.raises(asy.QuadratureNonConvergent):
            asy.gk15_quad(lambda x: math.sin(1e4 * x), 0.0, 1.0)

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
                     log_l2_minus_closed(1.0, fa, fb, fc)),
                    ("log_L1_plus", ls["errors"][3],
                     log_l1_plus_closed(1.0, fa, fb, fc))):
                assert abs(ls[key] - closed) <= err + 1e-13, (a, b, c, key)

    def test_simpson_false_convergence_case(self):
        # adaptive Simpson reported an error of 2.9e-11 here while its
        # log L2_minus(1) was 8.0e-6 off the closed form
        nf = build_example6(Fraction(5, 4), Fraction(0), Fraction(-3, 4))
        ls = asy.log_l_integrals(nf, asy.SectionPair(-0.5, 0.5625))
        assert ls["log_L2_minus"] == pytest.approx(
            log_l2_minus_closed(1.0, 1.25, 0.0, -0.75), abs=1e-12)
        assert ls["log_L1_plus"] == pytest.approx(
            log_l1_plus_closed(1.0, 1.25, 0.0, -0.75), abs=1e-12)


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

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(asy, "QUAD_MAX_EVALS", 64)
        with pytest.raises(asy.QuadratureNonConvergent):
            asy.adaptive_quad(lambda x: math.sin(1e4 * x), 0.0, 1.0,
                              abs_tol=1e-30)


class TestSectionPair:
    def test_ordering_enforced(self):
        with pytest.raises(asy.SectionInvalid):
            asy.SectionPair(1.0, -1.0)

    @pytest.mark.parametrize("alpha, omega", [
        (-math.inf, 1.0), (-1.0, math.inf), (-math.inf, math.inf),
        (math.nan, 1.0), (-1.0, math.nan)])
    def test_sections_must_be_finite(self, alpha, omega):
        # an infinite section passed alpha < 0 < omega: pv_integral and
        # gamma_pm raised a bare OverflowError from the Sturm count, and
        # transition_slope's left leg ran out of steps at x = -inf
        with pytest.raises(asy.SectionInvalid, match="-inf < alpha"):
            asy.SectionPair(alpha, omega)

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


# -- the Fraction Sturm decision, as a test-only reference -------------------
#
# positive_on_interval once decided on Fractions: the vertex for degree 2,
# a Sturm count with field division for higher degrees, and endpoint
# signs by Horner.  The integer decision must agree with it everywhere.


def ref_ev(c, t):
    acc = 0
    for ck in reversed(c):
        acc = acc * t + ck
    return acc


def ref_sign_at(c, t, positive_end):
    if t is not None:
        v = ref_ev(c, t)
        return (v > 0) - (v < 0)
    if not c:
        return 0
    sign = (c[-1] > 0) - (c[-1] < 0)
    return sign if positive_end or (len(c) - 1) % 2 == 0 else -sign


def ref_sturm_count(c, lo, hi):
    chain = [c]
    d = u1.trim(u1.deriv(c))
    if d:
        chain.append(d)
        while True:
            r, b = list(chain[-2]), chain[-1]
            while len(r) >= len(b):
                f = r.pop() / b[-1]
                for i, cb in enumerate(b[:-1]):
                    r[len(r) - len(b) + 1 + i] -= f * cb
            r = u1.trim(r)
            if not r:
                break
            chain.append([-x for x in r])
    if len(chain) == 1 and len(c) <= 1:
        return 0
    return (u1._sign_variations([ref_sign_at(p, lo, False) for p in chain])
            - u1._sign_variations([ref_sign_at(p, hi, True) for p in chain]))


def ref_positive_on_interval(coeffs, lo, hi):
    c = u1.trim(Fraction(x) for x in coeffs)
    lo, hi = (None if t is None else Fraction(t) for t in (lo, hi))
    if ref_sign_at(c, lo, False) <= 0 or ref_sign_at(c, hi, True) <= 0:
        return False
    if len(c) < 3:
        return True
    if len(c) == 3:
        c0, c1, c2 = c
        if c2 < 0:
            return True
        v = -c1 / (2 * c2)
        inside = (lo is None or lo < v) and (hi is None or v < hi)
        return not inside or c1 * c1 < 4 * c0 * c2
    return ref_sturm_count(c, lo, hi) == 0


class TestIntegerPositivity:
    """The integer Sturm decision against the Fraction one, on products
    of linear factors whose roots sit on, near, inside or outside the
    interval, double roots and near-double pairs included, and on sparse
    polynomials, whose chains skip degrees."""

    @staticmethod
    def cases(rng):
        for _ in range(3000):
            lo = Fraction(rng.randint(-16, 8), 16)
            hi = lo + Fraction(rng.randint(1, 24), 16)
            tiny = Fraction(1, 2 ** rng.choice((12, 30, 52, 70)))
            pool = [lo, hi, lo + tiny, lo - tiny, hi + tiny, hi - tiny,
                    (lo + hi) / 2, lo - 1, hi + Fraction(3, 7),
                    lo + (hi - lo) * Fraction(rng.randint(1, 15), 16)]
            roots = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            if roots and rng.random() < 0.4:
                roots.append(roots[0])  # a double root
            coeffs = [Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 5))]
            for r in roots:
                coeffs = u1.mul(coeffs, [-r, 1])
            if rng.random() < 0.3:  # no real root, or a near-double pair
                m = rng.choice(pool)
                coeffs = u1.mul(coeffs, [m * m + rng.choice((0, tiny, 1)),
                                         -2 * m, 1])
            if rng.random() < 0.2:  # sparse, so the chain skips degrees
                coeffs = [Fraction(rng.randint(-8, 8), 4) for _ in range(2)]
                coeffs += [0] * rng.randint(1, 4) + [rng.choice((-1, 1))]
            if rng.random() < 0.4:
                coeffs = [float(c) for c in coeffs]
            ends = [float(lo), float(hi)] if rng.random() < 0.3 else [lo, hi]
            if rng.random() < 0.2:
                ends[rng.randrange(2)] = None
            yield coeffs, ends[0], ends[1]

    def test_matches_fraction_decision(self):
        rng = random.Random(808)
        decided = set()
        for coeffs, lo, hi in self.cases(rng):
            want = ref_positive_on_interval(coeffs, lo, hi)
            assert u1.positive_on_interval(coeffs, lo, hi) == want, \
                (coeffs, lo, hi)
            decided.add((want, isinstance(coeffs[0], float)))
        assert len(decided) == 4

    def test_root_counts_match_fraction_count(self):
        rng = random.Random(809)
        for coeffs, lo, hi in self.cases(rng):
            c = u1.trim(Fraction(x) for x in coeffs)
            ends = [None if t is None else Fraction(t) for t in (lo, hi)]
            if any(t is not None and ref_ev(c, t) == 0 for t in ends):
                continue  # the count needs endpoints that are not roots
            assert u1.count_real_roots(coeffs, lo, hi) == \
                ref_sturm_count(c, *ends), (coeffs, lo, hi)


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

    @pytest.mark.parametrize("alpha", [1e306, 2.5e307, 5e307])
    def test_huge_profile_closed_form(self, alpha):
        # the far integrand of m/d exceeds 1e308 near u = 0 from alpha of
        # about 2e307: integrated as m/2^k, the sum stays finite
        want = math.pi * alpha / math.sqrt(3.0)
        assert asy.pv_integral_sym_infinite(
            build_z_normalform(alpha, 1.0)) == pytest.approx(want, rel=1e-12)

    def test_principal_value_past_the_float_range(self):
        # pi*1e308/sqrt(3) is 1.8e308: named, not a non-finite panel
        with pytest.raises(ValueError, match="principal value .* overflows"):
            asy.pv_integral_sym_infinite(build_z_normalform(1e308, 1.0))

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
        val = asy.transition_report(nf, SECTIONS).delta00_via_L
        assert val == pytest.approx(math.exp(-math.pi), rel=1e-8)

    def test_resolved_quartic(self):
        val = asy.transition_report(y1_normal_form(),
                                    asy.SectionPair(-1.0, 0.5)).delta00_via_L
        assert val == pytest.approx(4.0, rel=1e-8)

    def test_trivial_symmetric_case(self):
        nf = build_example6(Fraction(0), Fraction(0), Fraction(0))
        nf = NormalFormField(nf.f1, nf.f2, Poly2.zero(), nf.g2, 0)
        val = asy.transition_report(nf, SECTIONS).delta00_via_L
        assert val == pytest.approx(1.0, rel=1e-10)

    def test_matches_closed_form_on_randoms(self, rng):
        for _ in range(10):
            nf = random_normal_form(rng, d_positive=True)
            gp, _ = asy.gamma_pm(nf, SECTIONS)
            via_l = asy.transition_report(nf, SECTIONS).delta00_via_L
            assert via_l == pytest.approx(math.exp(gp), rel=1e-7)


class TestAnalyticFastPath:
    def test_log_l1_plus_closed_vs_quadrature(self, rng):
        for _ in range(25):
            nf = random_normal_form(rng, d_positive=True)
            inv = invariants(nf)
            a, b, c = (float(inv.a), float(inv.b), float(inv.c))
            ls = asy.log_l_integrals(nf, SECTIONS)
            assert ls["log_L1_plus"] == pytest.approx(
                log_l1_plus_closed(1.0, a, b, c), abs=1e-9)
            assert ls["log_L2_minus"] == pytest.approx(
                log_l2_minus_closed(1.0, a, b, c), abs=1e-9)

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
            alpha_part = log_l1_plus_closed(1.0, a, b, c) - beta_part
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
