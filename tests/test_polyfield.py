import json
import math
import random
import re
from fractions import Fraction

import pytest

from conftest import random_normal_form
from fakesaddle.blowup import BlowupChart, ChartKind, blow_up
from fakesaddle.casebook import (build_example6, build_xn, build_z,
                                 build_z_normalform, printed_z_blowup)
from fakesaddle.polyfield import (AffineMap2, NotDivisible, PlanarField,
                                  Poly2, SingularMap, _horner_expr,
                                  divide_exact, pullback_affine, substitute)

X, Y = Poly2.gens()


class TestEval:
    def test_direct_expansion(self):
        p = X ** 2 + X * Y
        assert p.eval(2, 3) == 10

    def test_zero_polynomial(self):
        assert Poly2.zero().eval(Fraction(7, 3), -2) == 0

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
    def test_blowup_of_degenerate_quartic(self):
        # (x + y)^2 d/dx + y^4 d/dy pulled back through (x, y) = (v, u v),
        # then divided by the divisor v once
        field = PlanarField((X + Y) ** 2, Y ** 4)
        u, v = Poly2.gens()
        res = divide_exact(substitute(field, v, u * v), v, 1)
        assert res.p == (-(u + 1) ** 2 + u ** 3 * v ** 2) * u
        assert res.q == (u + 1) ** 2 * v

    def test_identity_substitution(self):
        field = PlanarField(X ** 2 + Y, X * Y)
        out = substitute(field, X, Y)
        assert out.p == field.p and out.q == field.q

    def test_radial_field_is_blowup_invariant(self):
        # hand chain rule: u = x, v = y/x gives udot = u, vdot = 0
        out = substitute(PlanarField(X, Y), X, X * Y)
        assert out.p == X and out.q == Poly2.zero()

    def test_nonmonomial_jacobian_rejected(self):
        with pytest.raises(ValueError, match="not a single term"):
            substitute(PlanarField(X, Y), X, X * Y + Y ** 2)

    def test_inexact_division_is_not_divisible(self):
        # constant horizontal field: vdot = -v/u is not polynomial
        with pytest.raises(NotDivisible) as err:
            substitute(PlanarField(Poly2.const(1), Poly2.zero()), X, X * Y)
        assert err.value.component == "q"
        assert err.value.remainder == -Y


class TestDivideExact:
    def test_monomial_division(self):
        field = PlanarField(X ** 2 * Y, X ** 2)
        out = divide_exact(field, X, 2)
        assert out.p == Y and out.q == Poly2.const(1)

    def test_quartic_family_blowup_quotient(self):
        alpha, beta = Fraction(2), Fraction(3)
        p = beta * X ** 2 * Y + alpha * X * Y ** 2 - beta * Y ** 3 - X ** 4
        q = 4 * beta * X * Y ** 2 + alpha * Y ** 3 + 2 * X ** 5
        u, v = Poly2.gens()
        pulled = substitute(PlanarField(p, q), v, u * v)
        out = divide_exact(pulled, v, 2)
        assert out.p == 3 * beta * u ** 2 + beta * u ** 4 + u * v + 2 * v ** 2
        assert out.q == (beta * u + alpha * u ** 2 - beta * u ** 3 - v) * v

    def test_float_unit_divisor_switches_to_float_mode(self):
        out = (X * Fraction(1, 3)).divide_exact(Poly2({(1, 0): 1.0}))
        assert out.terms == {(0, 0): 1 / 3}
        assert type(out.terms[(0, 0)]) is float

    def test_not_divisible_reports_component(self):
        with pytest.raises(NotDivisible) as err:
            divide_exact(PlanarField(X, Poly2.zero()), Y, 1)
        assert err.value.component == "p"
        assert err.value.remainder == X

    def test_roundtrip_random_products(self):
        rng = random.Random(11)
        for _ in range(40):
            f = sum((X ** rng.randint(0, 2) * Y ** rng.randint(0, 2)
                     * Fraction(rng.randint(-6, 6), 3) for _ in range(4)),
                    Poly2.zero())
            d = X ** rng.randint(0, 2) * Y ** rng.randint(0, 2) * Fraction(
                rng.choice((-1, 1)) * rng.randint(1, 4), 2)
            k = rng.randint(0, 3)
            prod = f * d ** k
            assert prod.divide_exact(d ** k) == f


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

    def test_singular_map_rejected(self):
        with pytest.raises(SingularMap):
            pullback_affine(PlanarField(X, Y), AffineMap2(1, 1, 1, 1))


def frac(rng):
    return Fraction(rng.randint(-6, 6), 4)


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


class TestFloatCompilation:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_coefficient_is_rejected(self, bad):
        poly = Poly2({(1, 0): bad})
        for field in (PlanarField(poly, X), PlanarField(X, poly)):
            with pytest.raises(ValueError, match="finite"):
                field.as_rhs()


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


def ref_substitute(field, sub_x, sub_y):
    """(p, q) term maps of the chain-rule pullback; None if not polynomial."""
    j11, j12 = ref_diff(sub_x, 0), ref_diff(sub_x, 1)
    j21, j22 = ref_diff(sub_y, 0), ref_diff(sub_y, 1)
    det = ref_add(ref_mul(j11, j22), ref_neg(ref_mul(j12, j21)))
    p_sub = ref_subs(field.p, sub_x, sub_y)
    q_sub = ref_subs(field.q, sub_x, sub_y)
    num_u = ref_add(ref_mul(j22, p_sub), ref_neg(ref_mul(j12, q_sub)))
    num_v = ref_add(ref_mul(j11, q_sub), ref_neg(ref_mul(j21, p_sub)))
    ((di, dj), dc), = det.terms.items()
    quotients = []
    for num in (num_u, num_v):
        if any(i < di or j < dj for i, j in num.terms):
            return None
        quotients.append(Poly2({(i - di, j - dj): c / dc
                                for (i, j), c in num.terms.items()}).terms)
    return quotients[0], quotients[1]


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
        rng = random.Random(5)
        sub_x, sub_y, _divisor = BlowupChart(kind).substitution()
        for _ in range(200):
            field = random_normal_form(rng).field()
            out = substitute(field, sub_x, sub_y)
            assert (out.p.terms, out.q.terms) == ref_substitute(field, sub_x,
                                                                sub_y)

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
            assert p.subs(px, py).terms == ref_subs(p, px, py).terms


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
            for r in (a + b, a - b, -a, a * b, a ** n, a.subs(b, c),
                      a.transpose(), a.diff_x(), a.diff_y()):
                assert_clean(r)

        check()

    def test_exact_division_roundtrip_and_remainder(self):
        hypothesis, st, poly = poly_strategies()

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(poly, poly, st.integers(0, 2), st.integers(0, 2),
                          st.sampled_from([1, Fraction(-3, 2), 0.5]))
        def check(a, b, di, dj, dc):
            monomial = Poly2({(di, dj): dc})
            q = (a * monomial).divide_exact(monomial)
            assert_clean(q)
            if not (a.is_float or monomial.is_float):
                assert q == a
            if len(b.terms) > 1:
                with pytest.raises(ValueError, match="not a single term"):
                    (a * b).divide_exact(b)
            try:
                assert_clean((a + X ** 4).divide_exact(Y))
            except NotDivisible as exc:
                assert_clean(exc.remainder)

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
        for poly in (z.p, z.q):
            src = _horner_expr(poly)
            assert "*0.0" not in src
            assert len(re.findall(r"(?<![\d.])0\.0\+", src)) == 1, src
