import json
import math
import random
import re
from fractions import Fraction

import pytest

from conftest import random_normal_form
from fakesaddle.blowup import BlowupChart, ChartKind, NotDivisible, blow_up
from fakesaddle.casebook import (build_example6, build_xn, build_z,
                                 build_z_normalform, printed_z_blowup)
from fakesaddle.normalform import invariants
from fakesaddle.polyfield import (AffineMap2, PlanarField, Poly2, SingularMap,
                                  _horner_expr, _literals, fiber_directions,
                                  newton_weights, pullback_affine)

X, Y = Poly2.gens()


class TestEval:
    def test_direct_expansion(self):
        p = X ** 2 + X * Y
        assert p.eval(2, 3) == 10

    def test_zero_polynomial(self):
        assert Poly2.zero().eval(Fraction(7, 3), -2) == 0

    def test_at_polynomials_is_a_polynomial(self):
        # the zero and the constant polynomials compose to Poly2s too
        px, py = X + Y * Fraction(1, 2), Y * 0.5
        assert Poly2.zero().eval(px, py) == Poly2.zero()
        assert Poly2.const(Fraction(2, 3)).eval(px, py) == Poly2.const(
            Fraction(2, 3))
        assert (X * Y + 1).eval(px, Y) == X * Y + Y * Y * Fraction(1, 2) + 1

    def test_root_of_perfect_square(self):
        assert ((X + Y) ** 2).eval(1, -1) == 0

    def test_exact_on_rationals(self):
        p = X * Fraction(1, 3) + Y ** 2 * Fraction(2, 7)
        v = p.eval(Fraction(1, 2), Fraction(3, 5))
        assert v == Fraction(1, 6) + Fraction(2, 7) * Fraction(9, 25)

    def test_degree_sentinel(self):
        assert Poly2.zero().degree == float("-inf")
        assert (X ** 2 * Y).degree == 3

    def test_float_mode_drops_underflowing_fraction(self):
        tiny = Fraction(1, 10 ** 400)  # nonzero, but float(tiny) == 0.0
        want = Poly2({(1, 0): 1.0})
        built = Poly2({(0, 0): tiny, (1, 0): 1.0})
        summed = Poly2.const(tiny) + want  # arithmetic path
        for p in (built, summed):
            assert p == want
            assert p.terms == {(1, 0): 1.0}

    def test_compiled_matches_exact(self):
        rng = random.Random(7)
        p, q = (sum((X ** i * Y ** j * Fraction(rng.randint(-9, 9), 4)
                     for i in range(4) for j in range(3)), Poly2.zero())
                for _ in range(2))
        fn = PlanarField(p, q).as_rhs()
        for _ in range(25):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            assert fn(x, y) == pytest.approx(
                (float(p.eval(x, y)), float(q.eval(x, y))), abs=1e-12)


class TestSubstitute:
    """Pullbacks through the blow-up charts, against hand computations."""

    def test_blowup_of_degenerate_quartic(self):
        # (x + y)^2 d/dx + y^4 d/dy pulled back through (x, y) = (v, u v),
        # then divided by the divisor v once
        field = PlanarField((X + Y) ** 2, Y ** 4)
        u, v = Poly2.gens()
        res = blow_up(field, BlowupChart(ChartKind.X_DIR_SWAPPED, 1)).field
        assert res.p == (-(u + 1) ** 2 + u ** 3 * v ** 2) * u
        assert res.q == (u + 1) ** 2 * v

    def test_radial_field_is_blowup_invariant(self):
        # hand chain rule: u = x, v = y/x gives udot = u, vdot = 0
        out = blow_up(PlanarField(X, Y), BlowupChart(ChartKind.X_DIR, 0)).field
        assert out.p == X and out.q == Poly2.zero()

    def test_inexact_division_is_not_divisible(self):
        # constant horizontal field: vdot = -v/u is not polynomial
        with pytest.raises(NotDivisible) as err:
            blow_up(PlanarField(Poly2.const(1), Poly2.zero()),
                    BlowupChart(ChartKind.X_DIR, 0))
        assert err.value.component == "q"
        assert err.value.remainder == -Y


class TestDivideExact:
    def test_quartic_family_blowup_quotient(self):
        alpha, beta = Fraction(2), Fraction(3)
        p = beta * X ** 2 * Y + alpha * X * Y ** 2 - beta * Y ** 3 - X ** 4
        q = 4 * beta * X * Y ** 2 + alpha * Y ** 3 + 2 * X ** 5
        u, v = Poly2.gens()
        out = blow_up(PlanarField(p, q),
                      BlowupChart(ChartKind.X_DIR_SWAPPED, 2)).field
        assert out.p == 3 * beta * u ** 2 + beta * u ** 4 + u * v + 2 * v ** 2
        assert out.q == (beta * u + alpha * u ** 2 - beta * u ** 3 - v) * v


class TestNewtonWeights:
    """(a, b, d) of the principal part, read off the Newton diagram's
    points (i - 1, j) of p's terms x^i y^j and (i, j - 1) of q's."""

    def test_quartic_family(self):
        # two compact edges, (1, 1) from (-1, 3) to (1, 1) and (1, 2) on
        # to (3, 0): the steeper one wins, with p = r^4 P and q = r^5 Q
        assert newton_weights(build_z(1, 1)) == (1, 2, 3)
        assert newton_weights(build_z(Fraction(-1, 3), 2)) == (1, 2, 3)
        # only the support counts: float coefficients, same weights
        assert newton_weights(build_z(0.5, 0.3)) == (1, 2, 3)

    def test_homogeneous_quadratic(self):
        nf = build_example6(Fraction(1), Fraction(-1), Fraction(-1))
        assert newton_weights(nf.field()) == (1, 1, 1)

    def test_linear_focus(self):
        quarter = Fraction(1, 4)
        assert newton_weights(PlanarField(X * quarter - Y,
                                          X + Y * quarter)) == (1, 1, 0)

    def test_cusp_and_its_mirror(self):
        # x' = y, y' = -x^3: y = r^2 s, x^3 = r^3 c^3; the mirror swaps
        assert newton_weights(PlanarField(Y, -X ** 3)) == (1, 2, 1)
        assert newton_weights(PlanarField(-Y ** 3, X)) == (2, 1, 1)

    def test_no_compact_edge(self):
        # a single point, a vertical or a horizontal pair: plain polar
        assert newton_weights(PlanarField(X, Y)) == (1, 1, 0)
        assert newton_weights(PlanarField(X + X * Y, Poly2.zero())) == \
            (1, 1, 0)
        assert newton_weights(PlanarField(X * X, X ** 3 * Y)) == (1, 1, 1)
        assert newton_weights(PlanarField(Poly2.zero(), Poly2.zero())) == \
            (1, 1, 0)

    def test_hull_edges(self):
        # (-1, 2), (0, 1) and (1, 0) lie on one edge of normal (1, 1);
        # with (1, -1) in place of (1, 0), (0, 1) lies above the one edge
        # from (-1, 2), of normal (3, 2)
        assert newton_weights(PlanarField(Y * Y + X * Y, X * Y)) == (1, 1, 1)
        assert newton_weights(PlanarField(Y * Y + X * Y, X)) == (3, 2, 1)
        # edges of normals (2, 1), (-1, 3) to (0, 1), and (1, 2), on to
        # (2, 0), are equally steep: the leftmost one wins
        assert newton_weights(PlanarField(Y ** 3 + X * Y, X * X * Y)) == \
            (2, 1, 1)


class TestFiberDirections:
    """The axis directions at which theta' of the weighted polar chart
    vanishes at r = 0, read off the principal part's support: pi/2 and
    3 pi/2 without a pure-y term in p's, 0 and pi without a pure-x term
    in q's."""

    @pytest.mark.parametrize("alpha, beta", [
        (1, 1), (-1, 1), (0, 1), (Fraction(-1, 3), 2), (0.5, 0.3)])
    def test_quartic_family(self, alpha, beta):
        # p's principal part beta x^2 y - x^4: theta' = c^2 (2 beta s^2 +
        # 2 c^4 + 2 c^2 s) at r = 0 vanishes on x = 0
        assert fiber_directions(build_z(alpha, beta)) == (0.5 * math.pi,
                                                          1.5 * math.pi)

    def test_transposed_quartic(self):
        # mirrored in the diagonal, under weights (2, 1): q's principal
        # part has no pure-x term, and the fibers lie on y = 0
        z = build_z(1, 1)
        mirror = PlanarField(z.q.transpose(), z.p.transpose())
        assert newton_weights(mirror) == (2, 1, 3)
        assert fiber_directions(mirror) == (0.0, math.pi)

    def test_linear_focus(self):
        # x' = x/10 - y, y' = x + y/10: theta' = 1 at r = 0, no fiber
        tenth = Fraction(1, 10)
        assert fiber_directions(PlanarField(X * tenth - Y,
                                            X + Y * tenth)) == ()

    def test_homogeneous_quadratic(self):
        # the normal form's singular fiber is y = 0
        nf = build_example6(Fraction(1), Fraction(-1), Fraction(-1))
        assert fiber_directions(nf.field()) == (0.0, math.pi)

    def test_cusp(self):
        # x' = y, y' = -x^3 under weights (1, 2): both pure terms
        assert fiber_directions(PlanarField(Y, -X ** 3)) == ()


class TestXDirSlope:
    """The outer transit legs' slope sign Qt/Pt of v = log(y/y0) over
    s = sign log|x|, checked against the exact layer's X_DIR blow-up and
    against |x| (q/y)/p of ``as_rhs``."""

    def test_slope_is_the_blow_up_chart(self):
        # sign Qt/Pt, with Pt and Qt the exact layer's u_factor and
        # u_factor + v_factor, evaluated in Fractions at the float x and w
        # that the slope computes from (s, v): within 1e-13 of it, relative
        # to it or to the bound on its rounding that the absolute sums of
        # Pt's and Qt's terms give
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def exact(poly, x, w):
            return sum((Fraction(c) * x ** i * w ** j
                        for (i, j), c in poly.terms.items()), Fraction(0))

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.integers(0, 2 ** 32 - 1), st.floats(-27.0, 0.0),
                          st.floats(-230.0, 0.0), st.sampled_from([-1.0, 1.0]),
                          st.sampled_from([-1e-8, 1e-8]))
        def check(seed, log_ax, v, sign, y0):
            field = random_normal_form(random.Random(seed),
                                       d_positive=True).field()
            res = blow_up(field, BlowupChart(ChartKind.X_DIR, 1))
            pt, qt = res.u_factor, res.u_factor + res.v_factor
            # |x| = exp(log_ax) on either leg; then the slope's own two
            # lines, in floats
            s = sign * log_ax
            x = sign * math.exp(sign * s)
            w = y0 * math.exp(v) / x
            fx, fw = Fraction(x), Fraction(w)
            pt_x, qt_x = exact(pt, fx, fw), exact(qt, fx, fw)
            abs_pt, abs_qt = (exact(Poly2({k: abs(c) for k, c in
                                           f.terms.items()}), abs(fx), abs(fw))
                              for f in (pt, qt))
            # the orbits run rightward: Pt > 0, not lost in rounding
            hypothesis.assume(pt_x > Fraction(1, 10 ** 6) * abs_pt)
            ref = sign * qt_x / pt_x
            got = field.as_x_dir_slope(y0, sign)(s, v)
            assert abs(Fraction(got) - ref) <= Fraction(1e-13) * max(
                abs(ref), abs_qt * abs_pt / (pt_x * pt_x))

        check()

    def test_slope_agrees_with_the_field(self):
        # at the x and y the slope reads off (s, v), on both legs, where
        # |x| >= k|y| up to rounding: within 1e-13 of |x| (q/y)/p, relative
        # to it or, where the terms of p or q cancel, to the bound on its
        # rounding that their absolute sums give
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(st.integers(0, 2 ** 32 - 1), st.floats(-12.0, 0.0),
                          st.floats(-100.0, 0.0), st.sampled_from([-1.0, 1.0]),
                          st.sampled_from([-1.0, 1.0]))
        def check(seed, log_ax, log_ratio, sy, sign):
            nf = random_normal_form(random.Random(seed), d_positive=True)
            a = float(invariants(nf).a)
            k = 1.0 if a * a < 4 else abs(a) + 1.0
            field = nf.field()
            ay = 10.0 ** (log_ax + log_ratio) / k
            y0 = sy * 1e-8
            s, v = sign * log_ax * math.log(10.0), math.log(ay / 1e-8)
            x, y = sign * math.exp(sign * s), y0 * math.exp(v)
            p, q = field.as_rhs()(x, y)
            abs_p, abs_q = (
                float(Poly2({key: abs(c) for key, c in f.terms.items()})(
                    abs(x), abs(y))) for f in (field.p, field.q))
            # the orbits run rightward: p > 0, not lost in rounding
            hypothesis.assume(p > 1e-6 * abs_p)
            scale = abs(x) * (abs_q / abs(y)) / p * (abs_p / p)
            ref = abs(x) * (q / y) / p
            got = field.as_x_dir_slope(y0, sign)(s, v)
            assert abs(got - ref) <= 1e-13 * max(abs(ref), scale)

        check()

    @pytest.mark.parametrize("p, q", [
        (X * X, X * X + X * Y),  # y does not divide q
        (X * X + X, X * Y),  # p has a term of degree 1
        (X * X, Y + X * Y),  # q has a term of degree 1
    ], ids=["q", "p degree", "q degree"])
    def test_refuses_fields_off_the_chart(self, p, q):
        with pytest.raises(ValueError, match="X_DIR slope needs"):
            PlanarField(p, q).as_x_dir_slope(1e-3, 1.0)

    def test_no_slope_where_pt_is_not_positive(self):
        # p = -x^2 runs the orbit leftward: no graph over log|x|
        slope = PlanarField(-X * X, X * Y).as_x_dir_slope(1e-3, 1.0)
        assert slope(0.0, 0.0) == math.inf
        assert PlanarField(X * X, X * Y).as_x_dir_slope(1e-3, 1.0)(
            0.0, 0.0) == 1.0


class TestPullbackAffine:
    def test_rescaled_quartic_blowup_at_exact_parameter(self):
        # beta = 1/6 makes both scale factors rational, so the conjugated
        # field must match the hand computation exactly
        alpha, beta = Fraction(1), Fraction(1, 6)
        u, v = Poly2.gens()
        y_mu = PlanarField(
            3 * beta * u ** 2 + beta * u ** 4 + u * v + 2 * v ** 2,
            (beta * u + alpha * u ** 2 - beta * u ** 3 - v) * v)
        # 1/(3 beta) = 2 and 1/sqrt(6 beta) = 1 are both rational here
        out = pullback_affine(y_mu, AffineMap2.scaling(2, 1))
        b2 = beta * beta
        f1 = Poly2.const(1) + X ** 2 * (1 / (27 * b2))
        g1 = (Poly2.const(Fraction(1, 3)) + X * (alpha / (9 * b2))
              - X ** 2 * (1 / (27 * b2)))
        want_p = X ** 2 * f1 + X * Y + Y ** 2
        want_q = (X * g1 - Y) * Y
        assert out.p == want_p
        assert out.q == want_q
        assert not out.is_float

    def test_identity_map(self):
        field = PlanarField(X ** 2, X * Y + Y ** 3)
        out = pullback_affine(field, AffineMap2.scaling(1, 1))
        assert out.p == field.p and out.q == field.q

    def test_homogeneity_under_scaling(self):
        out = pullback_affine(PlanarField(X ** 2, Poly2.zero()),
                              AffineMap2.scaling(2, 2))
        assert out.p == 2 * X ** 2

    def test_roundtrip_inverse(self):
        rng = random.Random(3)
        field = PlanarField(X ** 2 + 3 * X * Y, Y ** 2 - X)
        for _ in range(20):
            while True:
                m = AffineMap2(frac(rng), frac(rng), frac(rng), frac(rng),
                               frac(rng), frac(rng))
                if m.det != 0:
                    break
            back = pullback_affine(pullback_affine(field, m), m.inverse())
            assert back.p == field.p and back.q == field.q

    def test_irrational_scale_switches_to_float_mode(self):
        out = pullback_affine(PlanarField(X ** 2, Y ** 2),
                              AffineMap2.scaling(2 ** 0.5, 1))
        assert out.is_float

    def test_zero_field(self):
        for amap in (AffineMap2.scaling(2, 3), AffineMap2.translation(-1, 0),
                     AffineMap2.scaling(2 ** 0.5, 1)):
            out = pullback_affine(PlanarField(Poly2.zero(), Poly2.zero()),
                                  amap)
            assert out.p.is_zero and out.q.is_zero

    def test_singular_map_rejected(self):
        with pytest.raises(SingularMap):
            pullback_affine(PlanarField(X, Y), AffineMap2(1, 1, 1, 1))


def frac(rng):
    return Fraction(rng.randint(-6, 6), 4)


def as_float(poly):
    return Poly2({k: float(c) for k, c in poly.terms.items()})


def random_poly(rng):
    """Up to six terms of degree at most 4, exact or float."""
    exact = rng.random() < 0.5
    terms = {}
    for _ in range(rng.randint(0, 6)):
        i = rng.randint(0, 4)
        j = rng.randint(0, 4 - i)
        terms[(i, j)] = (Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                         if exact else rng.uniform(-3.0, 3.0))
    return Poly2(terms)


class TestSerialization:
    def test_exact_roundtrip(self):
        p = X ** 2 * Fraction(3, 7) - Y * Fraction(1, 2) + Poly2.const(5)
        data = json.loads(json.dumps(p.to_json()))
        assert Poly2.from_json(data) == p
        assert data["terms"][0][2] == "5/1"

    def test_float_mode_roundtrip(self):
        p = X * 1.25 + Y ** 2 * 0.5
        data = p.to_json()
        assert data["mode"] == "float"
        assert Poly2.from_json(data) == p

    def test_field_roundtrip(self):
        field = PlanarField((X + Y) ** 2, Y ** 4)
        back = PlanarField.from_json(json.loads(json.dumps(field.to_json())))
        assert back.p == field.p and back.q == field.q

    @pytest.mark.parametrize("extra", [{"denom": {"terms": [[1, 0, "1/1"]]}},
                                       {"denom": {"terms": []}},
                                       {"r": {"terms": []}}])
    def test_field_has_no_other_keys(self, extra):
        data = {**PlanarField(X, Y).to_json(), **extra}
        with pytest.raises(ValueError, match='exactly the keys "p" and "q"'):
            PlanarField.from_json(data)

    def test_field_has_no_third_component(self):
        with pytest.raises(TypeError):
            PlanarField(X ** 2, X * Y, X)

    def test_explicit_exact_mode(self):
        data = {"terms": [[1, 0, "1/2"]], "mode": "exact"}
        assert Poly2.from_json(data) == X * Fraction(1, 2)

    @pytest.mark.parametrize("data", [{"terms": [], "denom": []},
                                      {"0,1": 1}])
    def test_unknown_key(self, data):
        # {"0,1": 1} was read as the zero polynomial
        with pytest.raises(ValueError, match='key "terms"'):
            Poly2.from_json(data)

    @pytest.mark.parametrize("data", [{}, {"mode": "float"}, [[1, 0, 1]]])
    def test_terms_required(self, data):
        with pytest.raises(ValueError, match='key "terms"'):
            Poly2.from_json(data)

    @pytest.mark.parametrize("mode", ["rational", "Float", None, 1])
    def test_mode_float_or_exact(self, mode):
        # any mode but "float" was read as exact
        with pytest.raises(ValueError, match='"mode"'):
            Poly2.from_json({"terms": [[1, 0, 1]], "mode": mode})

    @pytest.mark.parametrize("term", [[1, 0], [1, 0, 1, 2], "101", 1,
                                      {"i": 1, "j": 0, "c": 1}])
    def test_term_is_a_three_item_list(self, term):
        with pytest.raises(ValueError, match=r"\[i, j, coeff\]"):
            Poly2.from_json({"terms": [term]})

    def test_terms_is_a_list(self):
        with pytest.raises(ValueError, match='"terms" must be a list'):
            Poly2.from_json({"terms": {"1,0": 1}})

    @pytest.mark.parametrize("i, j", [(0.5, 0), (0, True), (False, 1),
                                      (-1, 0), ("1", 0), (1.0, 0)])
    def test_exponents_non_negative_ints(self, i, j):
        # int() read 0.5 as 0 and True as 1
        with pytest.raises(ValueError, match="non-negative int exponents"):
            Poly2.from_json({"terms": [[i, j, "1/1"]]})

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("coeff", [True, False, None, [1], {"n": 1}])
    def test_coefficient_is_a_number_or_string(self, mode, coeff):
        # Fraction(True) and float(True) read true as 1
        with pytest.raises(ValueError, match=r"coefficient of term \(1, 0\)"):
            Poly2.from_json({"terms": [[1, 0, coeff]], "mode": mode})

    def test_no_term_twice(self):
        # the second term overwrote the first
        with pytest.raises(ValueError, match=r"\(1, 0\) appears twice"):
            Poly2.from_json({"terms": [[1, 0, "1/1"], [1, 0, "2/1"]]})


class TestFloatCompilation:
    # an exact coefficient beyond float range raised OverflowError from
    # float() in every compiler
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                     Fraction(10) ** 400,
                                     -Fraction(10) ** 400],
                             ids=["inf", "-inf", "nan", "1e400", "-1e400"])
    def test_non_finite_coefficient_is_rejected(self, bad):
        # named by the field's own term, x^2 in p or x^2 y in q, where the
        # X_DIR slope named its blow-up chart's, x^0 y^0 or x^1 y^0
        poly = Poly2({(2, 0): bad})
        for field, term in ((PlanarField(poly, X * Y), r"x\^2 y\^0 in p"),
                            (PlanarField(X * Y, poly * Y), r"x\^2 y\^1 in q")):
            for compiled in (field.as_rhs, field.as_chart,
                             lambda: field.as_chart_slope(1.0, 0.0, 0),
                             lambda: field.as_x_dir_slope(1.0, 1.0)):
                with pytest.raises(ValueError, match=rf"coefficient of {term} "
                                   r"is -?(inf|nan) as a float; only "
                                   "finite coefficients compile"):
                    compiled()


# -- the composition before trusted arithmetic, as a test-only reference ------
#
# Every step below goes through the validating public constructor and adds
# the composed terms one Poly2 at a time, as the library once did; the
# library's trusted arithmetic must give the same term maps bit for bit.


def ref_add(a, b):
    out = dict(a.terms)
    for k, c in b.terms.items():
        out[k] = out.get(k, 0) + c
    return Poly2(out)


def ref_neg(a):
    return Poly2({k: -c for k, c in a.terms.items()})


def ref_mul(a, b):
    out = {}
    for (i1, j1), c1 in a.terms.items():
        for (i2, j2), c2 in b.terms.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return Poly2(out)


def ref_subs(p, px, py):
    powx, powy = {0: Poly2.const(1)}, {0: Poly2.const(1)}

    def power(cache, base, n):
        if n not in cache:
            cache[n] = ref_mul(power(cache, base, n - 1), base)
        return cache[n]

    out = Poly2.zero()
    for (i, j), c in p.terms.items():
        term = ref_mul(ref_mul(power(powx, px, i), power(powy, py, j)),
                       Poly2.const(c))
        out = ref_add(out, term)
    return out


def ref_diff(p, var):
    if var == 0:
        return Poly2({(i - 1, j): i * c for (i, j), c in p.terms.items() if i})
    return Poly2({(i, j - 1): j * c for (i, j), c in p.terms.items() if j})


def ref_divide(num, divisor, component):
    """num / divisor, a single term; NotDivisible as the library raises it."""
    ((di, dj), dc), = divisor.terms.items()
    rem = {(i, j): c for (i, j), c in num.terms.items() if i < di or j < dj}
    if rem:
        raise NotDivisible(component, Poly2(rem))
    return Poly2({(i - di, j - dj): c / dc for (i, j), c in num.terms.items()})


def ref_factor(num, divisor):
    """The term map of num / divisor, or None where it is not polynomial."""
    try:
        return ref_divide(num, divisor, "").terms
    except NotDivisible:
        return None


def ref_substitute(field, sub_x, sub_y):
    """The chain-rule pullback under (x, y) = (sub_x, sub_y): adj(J) times
    the composed field, divided by det J, which must be a single term."""
    j11, j12 = ref_diff(sub_x, 0), ref_diff(sub_x, 1)
    j21, j22 = ref_diff(sub_y, 0), ref_diff(sub_y, 1)
    det = ref_add(ref_mul(j11, j22), ref_neg(ref_mul(j12, j21)))
    p_sub = ref_subs(field.p, sub_x, sub_y)
    q_sub = ref_subs(field.q, sub_x, sub_y)
    num_u = ref_add(ref_mul(j22, p_sub), ref_neg(ref_mul(j12, q_sub)))
    num_v = ref_add(ref_mul(j11, q_sub), ref_neg(ref_mul(j21, p_sub)))
    return PlanarField(ref_divide(num_u, det, "p"),
                       ref_divide(num_v, det, "q"))


# Each chart as (x, y) in the chart coordinates (u, v), written X and Y
# here, with its divisor
CHART_MAPS = {
    ChartKind.X_DIR: (X, X * Y, X),
    ChartKind.X_DIR_SWAPPED: (Y, X * Y, Y),
    ChartKind.PI_PLUS: (X * (1 - Y), X * Y, X),
    ChartKind.PI_MINUS: (-X * (1 - Y), X * Y, X),
}


def ref_blow_up(field, chart):
    """(p, q) term maps of ref_substitute plus exact division by the
    divisor**divide_power, or the NotDivisible (component, remainder)."""
    sub_x, sub_y, divisor = CHART_MAPS[chart.kind]
    ((di, dj), _c), = divisor.terms.items()
    n = chart.divide_power
    try:
        out = ref_substitute(field, sub_x, sub_y)
        if n:
            d = Poly2({(n * di, n * dj): 1})
            out = PlanarField(ref_divide(out.p, d, "p"),
                              ref_divide(out.q, d, "q"))
    except NotDivisible as exc:
        return exc.component, exc.remainder.terms
    return out.p.terms, out.q.terms


def ref_pullback_affine(field, amap):
    inv = amap.inverse()
    sx, sy = amap.as_polys()
    p_sub, q_sub = ref_subs(field.p, sx, sy), ref_subs(field.q, sx, sy)

    def combine(m1, m2):
        return ref_add(ref_mul(p_sub, Poly2.const(m1)),
                       ref_mul(q_sub, Poly2.const(m2))).terms

    return combine(inv.m11, inv.m12), combine(inv.m21, inv.m22)


class TestReferenceComposition:
    @pytest.mark.parametrize("kind", list(ChartKind))
    def test_blowup_charts_match_reference(self, kind):
        # normal forms, their float copies and random fields that are
        # exact, float or one of each, singular at the origin or not
        rng = random.Random(5)
        fields = []
        for _ in range(40):
            field = random_normal_form(rng).field()
            fields += [field,
                       PlanarField(as_float(field.p), as_float(field.q))]
        for _ in range(80):
            p, q = random_poly(rng), random_poly(rng)
            low = rng.choice((0, 1, 2))
            fields.append(PlanarField(
                Poly2({k: c for k, c in p.terms.items() if sum(k) >= low}),
                Poly2({k: c for k, c in q.terms.items() if sum(k) >= low})))
        outcomes = set()
        factored = set()
        for field in fields:
            for power in (0, 1, 2):
                chart = BlowupChart(kind, power)
                want = ref_blow_up(field, chart)
                try:
                    res = blow_up(field, chart)
                except NotDivisible as exc:
                    got = exc.component, exc.remainder.terms
                else:
                    got = res.field.p.terms, res.field.q.terms
                    # the factors p/u and q/v, or None where not exact
                    factors = tuple(f and f.terms
                                    for f in (res.u_factor, res.v_factor))
                    assert factors == (ref_factor(res.field.p, X),
                                       ref_factor(res.field.q, Y)), \
                        (field, chart)
                    factored.add(tuple(f is not None for f in factors))
                assert got == want, (field, chart)
                outcomes.add(got[0] if isinstance(got[0], str) else "ok")
        # in X_DIR_SWAPPED, v' = P fails only where u' has failed first
        assert outcomes == ({"ok", "p"} if kind is ChartKind.X_DIR_SWAPPED
                            else {"ok", "p", "q"})
        # the divisor is invariant, so only the other factor can be None
        assert factored == ({(True, True), (False, True)}
                            if kind is ChartKind.X_DIR_SWAPPED
                            else {(True, True), (True, False)})

    @pytest.mark.parametrize("alpha, beta", [
        (Fraction(1), Fraction(1)), (Fraction(-2), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(5, 3)),
    ])
    def test_irrational_scaling_matches_reference(self, alpha, beta):
        # the z-chain rescaling: 1/sqrt(6 beta) is irrational here
        stage = blow_up(build_z(alpha, beta),
                        BlowupChart(ChartKind.X_DIR_SWAPPED, 2)).field
        scale = AffineMap2.scaling(1 / (3 * beta), 1 / math.sqrt(6 * beta))
        out = pullback_affine(stage, scale)
        assert out.is_float
        assert (out.p.terms, out.q.terms) == ref_pullback_affine(stage, scale)

    def test_mixed_mode_affine_maps_match_reference(self):
        # exact fields under maps mixing exact and float entries, where
        # exact and float terms land on the same monomials
        rng = random.Random(9)
        for _ in range(40):
            field = random_normal_form(rng).field()
            entries = [frac(rng) or Fraction(1) for _ in range(6)]
            for k in rng.sample(range(6), 2):
                entries[k] = float(entries[k]) + rng.uniform(-1e-3, 1e-3)
            amap = AffineMap2(*entries)
            if amap.det == 0:
                continue
            out = pullback_affine(field, amap)
            assert (out.p.terms, out.q.terms) == ref_pullback_affine(field,
                                                                     amap)

    def test_exact_terms_after_a_float_term_match_reference(self):
        # px is float and py exact, so the terms x^0 y^j compose exactly
        # and the others in float; shuffled term order puts exact terms
        # after float ones onto the same monomials
        rng = random.Random(13)
        px = X * 0.1 + Y * (1 / 3)
        py = Y * Fraction(1, 3) + Fraction(2, 7)
        for _ in range(100):
            keys = [(i, j) for i in range(3) for j in range(4)]
            rng.shuffle(keys)
            p = Poly2({k: Fraction(rng.randint(-9, 9), rng.choice((3, 7, 11)))
                       for k in keys[:6]})
            assert p.eval(px, py).terms == ref_subs(p, px, py).terms


# -- properties of Poly2 arithmetic -------------------------------------------


def assert_clean(poly):
    """The public constructor's invariants, held by every Poly2."""
    assert poly == Poly2(dict(poly.terms))
    assert all(c != 0 for c in poly.terms.values())
    assert len({type(c) for c in poly.terms.values()}) <= 1
    assert {type(c) for c in poly.terms.values()} <= {Fraction, float}
    assert all(type(i) is int and type(j) is int and i >= 0 and j >= 0
               for i, j in poly.terms)


def poly_strategies():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exact = st.fractions(min_value=-8, max_value=8, max_denominator=12)
    floats = st.floats(min_value=-8, max_value=8, allow_nan=False,
                       allow_subnormal=False)

    def polys(coeff):
        return st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                               coeff, max_size=5).map(Poly2)

    return hypothesis, st, polys(exact) | polys(floats)


class TestPoly2Properties:
    def test_arithmetic_results_are_clean(self):
        hypothesis, st, poly = poly_strategies()

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(poly, poly, poly, st.integers(0, 3))
        def check(a, b, c, n):
            for r in (a + b, a - b, -a, a * b, a ** n, a.eval(b, c),
                      a.transpose(), a.diff_x(), a.diff_y()):
                assert_clean(r)

        check()

    def test_json_roundtrips(self):
        hypothesis, st, poly = poly_strategies()

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(poly, poly)
        def check(p, q):
            assert Poly2.from_json(json.loads(json.dumps(p.to_json()))) == p
            field = PlanarField(p, q)
            back = PlanarField.from_json(json.loads(json.dumps(field.to_json())))
            assert back == field

        check()


# -- dense Horner, as a test-only reference -----------------------------------
#
# The float kernels were once compiled as Horner over the full (i, j) grid of
# each polynomial, zeros included.  The sparse kernels must agree with it bit
# for bit, signed zeros included.


def dense_horner_expr(poly):
    if poly.is_zero:
        return "0.0"
    imax = max(i for i, _ in poly.terms)
    jmax = max(j for _, j in poly.terms)
    grid = [[0.0] * (imax + 1) for _ in range(jmax + 1)]
    for (i, j), c in poly.terms.items():
        grid[j][i] = float(c)

    def row(cs):
        expr = repr(cs[-1])
        for c in reversed(cs[:-1]):
            expr = f"({c!r}+x*{expr})"
        return expr

    expr = row(grid[jmax])
    for j in range(jmax - 1, -1, -1):
        expr = f"({row(grid[j])}+y*{expr})"
    return expr


def dense_fn(poly):
    ns = {}
    exec(f"def _f(x, y):\n    return {dense_horner_expr(poly)}\n", ns)
    return ns["_f"]


def reference_fields():
    """Seeded normal forms, the z-family lattice and the casebook fields."""
    rng = random.Random(11)
    fields = [random_normal_form(rng).field() for _ in range(200)]
    fields += [build_z(k / 16, m / 16)
               for k in range(-16, 17, 2) for m in range(5, 33)]
    fields += [build_xn(3), build_xn(4), printed_z_blowup(1.0, 1.0),
               build_z(1, Fraction(1, 5)), build_z(1, Fraction(3, 10))]
    fields += [build_example6(*abc).field() for abc in
               [(1, -1, -1), (Fraction(5, 2), Fraction(5, 2), Fraction(1, 2)),
                (0, 0, 2)]]
    fields += [build_z_normalform(a, b).field() for a, b in
               [(1, 1), (-1, 1), (0, 1), (1, Fraction(1, 6)),
                (1, Fraction(1, 5))]]
    return fields


def reference_points():
    rng = random.Random(12)
    special = (0.0, -0.0, 1e-300, -1e-300, 1e-8, 1e150, -1e150)
    points = [(x, y) for x in special for y in special]
    return points + [(rng.uniform(-3, 3), rng.uniform(-3, 3))
                     for _ in range(30)]


class TestHornerReference:
    def test_kernels_equal_dense_horner(self):
        points = reference_points()
        for field in reference_fields():
            rhs = field.as_rhs()
            ref_p, ref_q = dense_fn(field.p), dense_fn(field.q)
            for x, y in points:
                want = (ref_p(x, y), ref_q(x, y))
                assert repr(rhs(x, y)) == repr(want), (field, x, y)

    def test_z11_source_is_sparse(self):
        z = build_z(1.0, 1.0)
        for literals in _literals(z):
            src = _horner_expr(literals)
            assert "*0.0" not in src
            assert len(re.findall(r"(?<![\d.])0\.0\+", src)) == 1, src
