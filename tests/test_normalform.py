import copy
import dataclasses
import json
import pickle
from fractions import Fraction

import pytest

from conftest import random_invariant_triple, random_normal_form
from fakesaddle.blowup import divisor_report
from fakesaddle.normalform import (Invariants, NormalFormField,
                                   NotInNormalForm, Verdict, classify,
                                   invariants, validate_and_build)
from fakesaddle.polyfield import AffineMap2, PlanarField, Poly2, pullback_affine

# example6, (a, b, c) = (1, -1, -1), as NormalFormField.to_json writes it
EX6_JSON = {"f1": {"terms": [[0, 0, "1/1"]]}, "f2": {"terms": [[0, 0, "1/1"]]},
            "g1": {"terms": [[0, 0, "-1/1"]]},
            "g2": {"terms": [[0, 0, "-1/1"]]}, "a": "1/1"}

X, Y = Poly2.gens()


class TestValidateAndBuild:
    def test_quadratic_homogeneous_field(self):
        # (x^2 + y^2 + xy) d/dx - (x + y) y d/dy
        field = PlanarField(X ** 2 + Y ** 2 + X * Y, -(X + Y) * Y)
        nf = validate_and_build(field)
        assert nf.a == 1
        assert nf.f1 == Poly2.const(1)
        assert nf.f2 == Poly2.const(1)
        assert nf.g1 == Poly2.const(-1)
        assert nf.g2 == Poly2.const(-1)
        inv = invariants(nf)
        assert (inv.b, inv.c) == (-1, -1)

    def test_missing_y_squared_term(self):
        with pytest.raises(NotInNormalForm, match="f2"):
            validate_and_build(PlanarField(X ** 2, Poly2.zero()))

    def test_rescaled_quartic_family_member(self):
        # beta = 1/6: f1 = 1 + (4/3) x^2, g1 = 1/3 + 4 alpha x - (4/3) x^2
        alpha = Fraction(2)
        f1 = Poly2.const(1) + X ** 2 * Fraction(4, 3)
        g1 = (Poly2.const(Fraction(1, 3)) + X * 4 * alpha
              - X ** 2 * Fraction(4, 3))
        p = X ** 2 * f1 + X * Y + Y ** 2
        q = (X * g1 - Y) * Y
        nf = validate_and_build(PlanarField(p, q))
        assert nf.a == 1
        assert nf.f1 == f1
        assert nf.g1 == g1
        inv = invariants(nf)
        assert (inv.a, inv.b, inv.c) == (1, -1, Fraction(1, 3))

    def test_q_not_divisible_by_y(self):
        with pytest.raises(NotInNormalForm, match="divisible"):
            validate_and_build(PlanarField(X ** 2 + Y ** 2, X))

    def test_linear_term_rejected(self):
        with pytest.raises(NotInNormalForm, match="below quadratic"):
            validate_and_build(PlanarField(X ** 2 + Y ** 2 + X, Poly2.zero()))

    def test_constant_in_q_over_y_rejected(self):
        # q = y alone would need g2 with a constant term stolen from x*g1
        with pytest.raises(NotInNormalForm, match="x\\*g1"):
            validate_and_build(PlanarField(X ** 2 + Y ** 2, Y))

    def test_roundtrip_is_identity(self, rng):
        for _ in range(60):
            nf = random_normal_form(rng)
            back = validate_and_build(nf.field())
            assert back.f1 == nf.f1
            assert back.f2 == nf.f2
            assert back.g1 == nf.g1
            assert back.g2 == nf.g2
            assert back.a == nf.a

    def test_mixed_xy_powers_split(self):
        # x y^2 belongs to f2 (as x), x^3 y to f1 (as x y)
        p = X ** 2 + X * Y ** 2 + X ** 3 * Y + Y ** 2
        nf = validate_and_build(PlanarField(p, Poly2.zero() + X * Y))
        assert nf.f1 == Poly2.const(1) + X * Y
        assert nf.f2 == Poly2.const(1) + X


class TestInvariants:
    def test_quadratic_homogeneous_values(self):
        nf = NormalFormField(Poly2.const(1), Poly2.const(1),
                             Poly2.const(-1), Poly2.const(-1), 1)
        inv = invariants(nf)
        assert inv.d == 4

    def test_rescaled_family_d(self):
        from fakesaddle.casebook import build_z_normalform
        for beta in (Fraction(1, 6), Fraction(1, 2), Fraction(2)):
            nf = build_z_normalform(Fraction(1), beta)
            d = invariants(nf).d
            expected = Fraction(2, 3) * (4 - 1 / beta)
            if isinstance(d, Fraction):
                assert d == expected
            else:
                assert abs(d - float(expected)) < 1e-12

    def test_symmetric_case(self):
        nf = NormalFormField(Poly2.const(1), Poly2.const(1),
                             Poly2.zero(), Poly2.zero(), 0)
        assert invariants(nf).d == 4


class TestClassify:
    def test_hyperbolic(self):
        cls = classify(Invariants(Fraction(1), Fraction(-1), Fraction(-1),
                                  Fraction(4)))
        assert cls.verdict is Verdict.HYPERBOLIC_FAKE_SADDLE
        assert cls.ratio == 2

    def test_boundary_indeterminate(self):
        inv = Invariants(Fraction(2), Fraction(0), Fraction(0), Fraction(0))
        assert classify(inv).verdict is Verdict.BOUNDARY_INDETERMINATE

    def test_two_extra_singularities(self):
        inv = Invariants(Fraction(0), Fraction(0), Fraction(2), Fraction(-4))
        cls = classify(inv)
        assert cls.verdict is Verdict.NOT_FAKE_SADDLE
        assert cls.extra_count == 2
        assert sorted(cls.extra_locations) == [-1.0, 1.0]

    def test_semi_hyperbolic(self):
        inv = Invariants(Fraction(0), Fraction(0), Fraction(1), Fraction(0))
        assert classify(inv).verdict is Verdict.SEMI_HYPERBOLIC_FAKE_SADDLE

    def test_double_point_off_origin(self):
        # d = 0 without c = 1, a = b and without a^2 - b^2 = 4
        a, b = Fraction(1), Fraction(-1)
        c = 1 - (a - b) ** 2 / 4
        inv = Invariants(a, b, c, Fraction(0))
        cls = classify(inv)
        assert cls.verdict is Verdict.NOT_FAKE_SADDLE
        assert cls.extra_count == 1
        assert cls.extra_locations == (-1.0,)

    def test_float_near_zero_warns(self):
        cls = classify(Invariants(0.0, 0.0, 1.0, 1e-14))
        assert "BoundaryNearZero" in cls.warnings

    def test_agreement_with_divisor_roots(self, rng):
        from fakesaddle.casebook import build_example6
        for _ in range(100):
            a, b, c = random_invariant_triple(rng)
            cls = classify(invariants(build_example6(a, b, c)))
            rep = divisor_report(build_example6(a, b, c))
            nonzero_roots = [r for r in rep.roots if r.location != 0.0]
            if cls.verdict is Verdict.NOT_FAKE_SADDLE:
                assert cls.extra_count == len(nonzero_roots)
            assert rep.discriminant == -invariants(build_example6(a, b, c)).d


class TestSymmetry:
    def test_reflection_flips_a_and_b(self, rng):
        flip = AffineMap2.scaling(1, -1)
        for _ in range(40):
            nf = random_normal_form(rng)
            mirrored = validate_and_build(pullback_affine(nf.field(), flip))
            inv, minv = invariants(nf), invariants(mirrored)
            assert (minv.a, minv.b, minv.c) == (-inv.a, -inv.b, inv.c)
            assert minv.d == inv.d
            assert classify(minv).verdict is classify(inv).verdict


class TestSerialization:
    def test_roundtrip(self, rng):
        nf = random_normal_form(rng)
        data = json.loads(json.dumps(nf.to_json()))
        back = NormalFormField.from_json(data)
        assert back.f1 == nf.f1 and back.g2 == nf.g2 and back.a == nf.a

    @pytest.mark.parametrize("extra", ["denom", "p"])
    def test_no_other_keys(self, extra):
        # {"denom": 5} was ignored
        with pytest.raises(ValueError, match=rf"exactly the keys .*'{extra}'"):
            NormalFormField.from_json({**EX6_JSON, extra: 5})

    def test_every_key_required(self):
        data = {k: v for k, v in EX6_JSON.items() if k != "g2"}
        with pytest.raises(ValueError, match="exactly the keys"):
            NormalFormField.from_json(data)

    @pytest.mark.parametrize("a", [True, False, None, [1]])
    def test_a_is_a_number_or_string(self, a):
        # "a": true was read as 1
        with pytest.raises(ValueError, match='"a" must be a number'):
            NormalFormField.from_json({**EX6_JSON, "a": a})

    @pytest.mark.parametrize("key", ["f1", "f2", "g1", "g2"])
    def test_bad_polynomial_names_its_key(self, key):
        with pytest.raises(ValueError, match=rf'^"{key}": the coefficient'):
            NormalFormField.from_json({**EX6_JSON,
                                       key: {"terms": [[0, 0, True]]}})

    def test_classification_json(self):
        cls = classify(Invariants(Fraction(0), Fraction(0), Fraction(2),
                                  Fraction(-4)))
        data = cls.to_json()
        assert data["verdict"] == "NotFakeSaddle"
        assert data["extra_divisor_singularities"]["count"] == 2


class TestFieldCache:
    """field(), as_rhs(), as_chart(), as_chart_slope() and as_x_dir_slope()
    build once; the caches are invisible to equality, hashing, replace,
    copies and pickles."""

    def test_built_once(self, rng):
        nf = random_normal_form(rng)
        field = nf.field()
        assert nf.field() is field
        assert field.as_rhs() is field.as_rhs()
        assert field.as_chart() is field.as_chart()
        assert field.as_chart_slope(1.0, 0.0, 0).__code__ is \
            field.as_chart_slope(-1.0, 0.5, 1).__code__
        assert field.as_x_dir_slope(1e-8, 1.0).__code__ is \
            field.as_x_dir_slope(-1e-6, -1.0).__code__

    def test_replace_builds_from_the_new_members(self, rng):
        nf = random_normal_form(rng)
        nf.field().as_rhs()
        moved = dataclasses.replace(nf, a=nf.a + 1)
        assert moved.field() == NormalFormField(
            nf.f1, nf.f2, nf.g1, nf.g2, nf.a + 1).field()
        assert moved.field() != nf.field()

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))])
    def test_clones_equal_with_or_without_cache(self, rng, clone):
        for cached in (False, True):
            nf = random_normal_form(rng)
            if cached:
                nf.field().as_rhs()
                nf.field().as_chart()
                nf.field().as_x_dir_slope(1e-8, 1.0)
            twin = clone(nf)
            assert twin == nf and hash(twin) == hash(nf)
            assert twin.field() == nf.field()
            field = clone(nf.field())
            assert field == nf.field() and hash(field) == hash(nf.field())
            assert (field.as_rhs()(0.25, -0.5)
                    == nf.field().as_rhs()(0.25, -0.5))
            assert (field.as_chart()(-0.5, 2.0)
                    == nf.field().as_chart()(-0.5, 2.0))
            assert (field.as_x_dir_slope(1e-8, 1.0)(-1.0, 0.5)
                    == nf.field().as_x_dir_slope(1e-8, 1.0)(-1.0, 0.5))
