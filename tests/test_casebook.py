import json
from fractions import Fraction

import pytest

from fakesaddle import asymptotics as asy, casebook, flow
from fakesaddle.normalform import Verdict, classify, invariants, \
    validate_and_build


class TestBuilders:
    def test_degenerate_family_shape(self):
        field = casebook.build_xn(4)
        inv = invariants(validate_and_build(field))
        assert (inv.a, inv.b, inv.c) == (2, 0, 0)
        inv3 = invariants(validate_and_build(casebook.build_xn(3)))
        assert (inv3.a, inv3.b, inv3.c) == (2, 0, 0)

    def test_degree_floor(self):
        with pytest.raises(ValueError):
            casebook.build_xn(2)

    def test_quadratic_homogeneous_variants(self):
        nf = casebook.build_example6(Fraction(0), Fraction(0), Fraction(2))
        cls = classify(invariants(nf))
        assert cls.verdict is Verdict.NOT_FAKE_SADDLE
        assert sorted(cls.extra_locations) == [-1.0, 1.0]
        nf0 = casebook.build_example6(Fraction(0), Fraction(0), Fraction(0))
        assert invariants(nf0).d == 4

    def test_first_integral_only_for_reference_values(self):
        with pytest.raises(ValueError):
            casebook.example6_first_integral(a=2)

    def test_exact_square_rescue(self):
        nf = casebook.build_z_normalform(Fraction(1), Fraction(1, 6))
        assert not nf.is_float
        nf_f = casebook.build_z_normalform(1.0, 1.0)
        assert nf_f.is_float


class TestCases:
    def test_x4_chain_passes(self):
        res = casebook.run_x4_chain()
        assert res.passed, [c.name for c in res.checks if not c.passed]

    def test_x3_script_passes(self):
        res = casebook.run_x3_script()
        assert res.passed, [c.name for c in res.checks if not c.passed]
        by_name = {c.name: c for c in res.checks}
        assert by_name["exactly_one_zero_eigenvalue"].passed
        assert by_name["stage1_degenerate_point_linear_part"].passed

    def test_example6_passes(self):
        res = casebook.run_example6_case()
        assert res.passed, [c.name for c in res.checks if not c.passed]

    def test_z_chain_single_run(self):
        res = casebook.run_z_chain(1, 1, with_probe=False)
        assert res.passed, [c.name for c in res.checks if not c.passed]

    def test_z_gamma_grid(self):
        # closed form for the exponents across a parameter grid
        for alpha in (-1, Fraction(1, 2), 2):
            for beta in (Fraction(3, 10), Fraction(1, 2), 1):
                nf = casebook.build_z_normalform(alpha, beta)
                gp, gm = asy.gamma_pm(nf, None)
                gpc, gmc = casebook.z_gamma_closed(alpha, beta)
                assert gp == pytest.approx(gpc, abs=1e-12)
                assert gm == pytest.approx(gmc, abs=1e-12)

    def test_unknown_case_id(self):
        with pytest.raises(KeyError):
            casebook.run_case("nope")

    def test_case_result_json(self, tmp_path):
        res = casebook.run_x3_script()
        payload = res.to_json()
        assert payload["case_id"] == "x3-script"
        assert all("passed" in c for c in payload["checks"])
        out = tmp_path / "cases.json"
        casebook.dump_results([res], out)
        assert json.loads(out.read_text())[0]["passed"] is True

    def test_every_check_reports_both_values(self):
        res = casebook.run_x4_chain()
        for check in res.checks:
            assert check.computed is not None
            assert check.expected is not None


class TestDriftAlongTransit:
    def test_failure_names_the_last_step_tried(self, monkeypatch):
        # from y0 = 0.3 the steps are 0.01, 0.0025 and 0.000625; the
        # message named 0.00015625, a step never tried
        tried = []
        integrate = flow.integrate

        def recording(*args, cfg, **kw):
            tried.append(cfg.max_step)
            return integrate(*args, cfg=cfg, **kw)

        def fails(*_args, **_kw):
            raise flow.BranchTrackingFailed("every jump is ambiguous")

        monkeypatch.setattr(flow, "integrate", recording)
        monkeypatch.setattr(flow, "conservation_check", fails)
        nf = casebook.build_example6(Fraction(1), Fraction(-1), Fraction(-1))
        with pytest.raises(flow.BranchTrackingFailed,
                           match=r"down to step 0\.000625$"):
            casebook._drift_along_transit(
                nf.field(), casebook.example6_first_integral(), 0.3)
        assert tried == [0.01, 0.0025, 0.000625]
