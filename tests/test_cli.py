import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from fakesaddle import asymptotics, cli, flow
from fakesaddle.casebook import build_example6


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_exit(capsys, expected, *argv):
    """Run the CLI; assert the exit code and a one-line stderr message."""
    code, _, err = run_cli(capsys, *argv)
    assert code == expected
    assert len(err.splitlines()) == 1
    return err


@pytest.mark.parametrize("argv", [
    ("gamma", "--case", "z-family", "--alpha-param", "nan", "--beta", "1",
     "--infinite"),
    ("gamma", "--case", "z-family", "--beta", "inf", "--infinite"),
    ("gamma", "--case", "example6", "--alpha", "-1", "--omega", "inf"),
    ("transit", "--case", "y1", "--alpha", "-1", "--omega", "0.5",
     "--offsets", "1e-2", "nan"),
    ("return", "--case", "z-family", "--offsets", "inf"),
    ("portrait", "--case", "x4", "--window", "0", "1", "0", "nan"),
])
def test_non_finite_float_is_a_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "invalid finite value" in err


@pytest.mark.parametrize("argv", [
    ("transit", "--case", "y1", "--alpha", "-1", "--omega", "0.5",
     "--offsets"),
    ("return", "--case", "z-family", "--offsets"),
])
def test_offsets_without_values_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "--offsets: expected at least one argument" in err
    assert out == ""


@pytest.mark.parametrize("argv, plain", [
    (("gamma", "--case", "example6", "--alpha", "-2.5E-1", "--omega", "1"),
     ("--alpha", "-0.25")),
    (("classify", "--case", "example6", "--a", "-1/2"), ("--a", "-0.5")),
    (("return", "--case", "z-family", "--alpha-param", "-5e-1", "--beta",
      "1"), ("--alpha-param", "-0.5")),
    (("portrait", "--case", "x4", "--orbits", "1", "--window", "-1e0", "1",
      "-1", "1"), ("--window", "-1")),
])
def test_negative_number_in_any_form_is_a_value(capsys, tmp_path, argv,
                                                plain):
    # argparse itself reads only -1 and -0.5 as negative numbers, and took
    # -2.5E-1, -1/2, -5e-1 and -1e0 for options: "expected one argument"
    option, value = plain
    at = argv.index(option) + 1
    out = {}
    for name, args in (("written", argv),
                       ("plain", argv[:at] + (value,) + argv[at + 1:])):
        if args[0] == "portrait":
            args += ("--out", str(tmp_path / name))
        code, out[name], err = run_cli(capsys, *args)
        assert code == 0, err
    if argv[0] == "portrait":
        assert (tmp_path / "written" / "summary.json").read_text() == \
            (tmp_path / "plain" / "summary.json").read_text()
    else:
        assert out["written"] == out["plain"]


def test_cli_loads_only_the_standard_library():
    # the package is stdlib-only: without site-packages (-S), importing
    # the CLI loads no top-level module outside the standard library
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys, fakesaddle.cli\n"
             "print(*sorted({m.partition('.')[0] for m in sys.modules}))")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"fakesaddle", "__main__"}


def readme_cli_lines():
    """The ``fakesaddle ...`` lines of the README's CLI block, as argv."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()
            if line.startswith("fakesaddle ")]


def test_readme_cli_block_runs(capsys, tmp_path):
    # each documented command line exits 0, in-process; field.json is the
    # degenerate quartic and the portrait goes to a scratch directory
    from fakesaddle.casebook import build_xn
    field = tmp_path / "field.json"
    field.write_text(json.dumps(build_xn(4).to_json()))
    paths = {"field.json": str(field), "out/": str(tmp_path / "out")}
    lines = readme_cli_lines()
    assert len(lines) == 9
    codes = {}
    for line in lines:
        argv = [paths.get(arg, arg) for arg in line[1:]]
        codes[shlex.join(line)] = cli.main(argv)
    capsys.readouterr()
    assert codes == dict.fromkeys(codes, 0)
    assert len(list((tmp_path / "out").glob("orbit_*.csv"))) == 16


class TestClassify:
    def test_quadratic_homogeneous(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--case", "example6",
                               "--a", "1", "--b", "-1", "--c", "-1",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["classification"]["verdict"] == "HyperbolicFakeSaddle"
        assert data["classification"]["ratio"] == 2.0
        assert data["invariants"]["d"] == "4/1"

    def test_file_input(self, capsys, tmp_path):
        from fakesaddle.casebook import build_xn
        path = tmp_path / "field.json"
        path.write_text(json.dumps(build_xn(4).to_json()))
        code, out, _ = run_cli(capsys, "classify", "--file", str(path),
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["classification"]["verdict"] == \
            "BoundaryIndeterminate"

    def test_not_normal_form_exit_code(self, capsys):
        bad = json.dumps({"p": {"terms": [[2, 0, "1/1"], [0, 2, "1/1"]]},
                          "q": {"terms": [[1, 0, "1/1"]]}})
        code, _, err = run_cli(capsys, "classify", "--json", bad)
        assert code == 3
        assert "normal form" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "classify")
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"p": 1}',
        '{"p": {"terms": [[1, 0, "1/0"]]}, "q": {"terms": []}}',
        "[1]",
        "5",
        '{"p": {"terms": [[2, 0, "1/1"]]}, "q": {"terms": [[1, 1, "1/1"]]},'
        ' "denom": {"terms": [[1, 0, "1/1"]]}}',
    ])
    def test_malformed_json_is_a_parse_error(self, capsys, text):
        err = assert_exit(capsys, 2, "classify", "--json", text)
        assert err.startswith("cannot parse input")

    def test_polynomial_without_terms_is_a_parse_error(self, capsys):
        # read as the zero field: return integrated it for about 2 s and
        # exited 6 with "no stop condition met in 1000000 steps"
        err = assert_exit(capsys, 2, "return", "--json",
                          '{"p": {"0,1": 1}, "q": {"1,0": -1}}')
        assert err.startswith("cannot parse input")
        assert 'key "terms"' in err

    @pytest.mark.parametrize("change, named", [
        # exited 0 with a = 1/1
        ({"a": True, "denom": 5}, "'denom'"),
        ({"a": True}, '"a"'),
        ({"f1": {"terms": [[0, 0, True]]}}, '"f1"'),
        ({"g2": {"terms": [[0, 0, "-1/1"]], "mode": "float", "x": 1}},
         '"g2"'),
    ])
    def test_malformed_normal_form_names_its_key(self, capsys, change,
                                                 named):
        doc = {**build_example6(1, -1, -1).to_json(), **change}
        err = assert_exit(capsys, 2, "classify", "--json", json.dumps(doc))
        assert err.startswith("cannot parse input")
        assert named in err

    @pytest.mark.parametrize("argv", [
        ("--case", "xn", "--n", "2"),
        ("--case", "xn", "--n", "0"),  # ran x4 and exited 0
        ("--case", "z-family", "--beta", "-1"),
        ("--case", "z-family", "--beta", "1e-300"),  # beta**2 underflows
    ])
    def test_out_of_range_case_parameter(self, capsys, argv):
        err = assert_exit(capsys, 2, "classify", *argv)
        assert err.startswith("invalid argument")

    def test_zero_denominator_argument_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--case", "example6",
                               "--a", "1/0")
        assert code == 2
        assert "argument --a: invalid fraction value" in err

    def test_random_json_ends_in_a_documented_exit(self, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def mostly(good, bad):
            return st.integers(0, 9).flatmap(lambda k: bad if k == 0 else good)

        coeff = (st.integers(-4, 4) | st.fractions(max_denominator=16).map(str)
                 | st.floats(allow_nan=False, allow_infinity=False))
        junk = (st.none() | st.booleans() | st.sampled_from(["1/0", "x", ""])
                | st.lists(st.integers(-1, 4), max_size=4))
        exponent = mostly(st.integers(0, 4), st.just(-1))  # small exponents
        term = mostly(st.tuples(exponent, exponent,
                                mostly(coeff, junk)).map(list), junk)
        poly = mostly(st.fixed_dictionaries(
            {"terms": st.lists(term, max_size=5)},
            optional={"mode": st.sampled_from(["float", "exact"])}), junk)
        field = st.fixed_dictionaries({"p": poly, "q": poly},
                                      optional={"denom": poly})
        normal_form = st.fixed_dictionaries(
            {"f1": poly, "f2": poly, "g1": poly, "g2": poly,
             "a": mostly(coeff, junk)})

        empty = {"terms": []}

        @hypothesis.settings(max_examples=200, deadline=None, database=None)
        @hypothesis.given(mostly(field | normal_form, junk))
        @hypothesis.example({"p": empty, "q": empty, "denom": empty})
        @hypothesis.example({"f1": empty, "f2": empty, "g1": empty,
                             "g2": empty, "a": 1.3407807929942597e+154})
        def check(doc):
            code, _, _ = run_cli(capsys, "classify", "--json", json.dumps(doc))
            assert code in (0, 2, 3)

        check()

    def test_json_roundtrip_bit_for_bit(self, capsys):
        args = ("classify", "--case", "example6", "--format", "json")
        code, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert code == 0
        assert out1 == out2
        parsed = json.loads(out1)
        assert json.dumps(parsed, indent=2, sort_keys=True) + "\n" == out1


@pytest.mark.parametrize("command", ["return", "portrait"])
def test_overflowing_coefficient_is_an_invalid_argument(capsys, tmp_path,
                                                        command):
    # 4 beta overflows to inf in the quartic family's coefficients
    out_dir = tmp_path / "p"
    err = assert_exit(capsys, 2, command, "--case", "z-family",
                      "--alpha-param", "0", "--beta", "1e308",
                      *(("--out", str(out_dir)) if command == "portrait"
                        else ()))
    assert err.startswith("invalid argument")
    assert "finite" in err
    assert not out_dir.exists()


class TestGamma:
    def test_infinite_sections(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--case", "z-family",
                               "--alpha-param", "1", "--beta", "1",
                               "--infinite", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["gamma_plus"] == pytest.approx(0.0, abs=1e-12)
        assert data["gamma_minus"] == pytest.approx(
            2 * math.pi / math.sqrt(3), abs=1e-12)

    def test_infinite_sections_constant_profile(self, capsys):
        # g1(x,0)/f1(x,0) is constant: the principal value is exactly 0
        code, out, _ = run_cli(capsys, "gamma", "--case", "example6",
                               "--infinite", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pv"] == 0.0
        assert data["gamma_plus"] == -data["gamma_minus"] == data["gamma0"]

    def test_infinite_sections_underflowed_profile_exit(self, capsys,
                                                        count_evals):
        # float f1 = 1 + 1e-300 x^2, g1 = 1/2 + 1e300 x: f1(x) f1(-x) loses
        # its x^4 term to underflow, so the folded integrand tends to a
        # nonzero constant at infinity; rejected before any quadrature
        nf = {"f1": {"mode": "float", "terms": [[0, 0, 1.0], [2, 0, 1e-300]]},
              "f2": {"mode": "float", "terms": [[0, 0, 1.0]]},
              "g1": {"mode": "float", "terms": [[0, 0, 0.5], [1, 0, 1e300]]},
              "g2": {"terms": []}, "a": 0.0}
        evals = count_evals("gk15_quad")
        evals.append(0)
        err = assert_exit(capsys, 5, "gamma", "--json", json.dumps(nf),
                          "--infinite")
        assert err.startswith("invalid sections")
        assert "not integrable" in err
        assert evals == [0]

    def test_quadratic_homogeneous_sections(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--case", "example6",
                               "--alpha", "-1", "--omega", "1",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pv"] == pytest.approx(0.0, abs=1e-10)
        assert abs(data["gamma0"]) == pytest.approx(math.pi, abs=1e-10)

    def test_asymmetric_sections_log_term(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--case", "example6",
                               "--alpha", "-1", "--omega", "2",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pv"] == pytest.approx(-math.log(2.0), abs=1e-10)

    def test_finite_sections_delta00_underflows_to_zero(self, capsys):
        # delta00 via L is exp(gamma_plus) with gamma_plus near -1573: 0.0
        code, out, _ = run_cli(capsys, "gamma", "--case", "example6",
                               "--a", "-48.01", "--b", "-50", "--c", "0",
                               "--alpha", "-1", "--omega", "1")
        assert code == 0
        assert "delta00 (via L)   = 0\n" in out
        assert "infinite" not in out

    @pytest.mark.parametrize("argv", [
        # gamma_plus near +1573 with finite sections
        ("--case", "example6", "--a", "48.01", "--b", "50", "--c", "0",
         "--alpha", "-1", "--omega", "1"),
        # gamma_plus near 1.8e200 with sections at infinity
        ("--case", "z-family", "--alpha-param", "1e200", "--beta", "1",
         "--infinite"),
    ])
    def test_delta00_overflows_to_inf(self, capsys, argv):
        # exp(gamma_plus) past the float range is +inf, as it is 0.0 below
        code, out, _ = run_cli(capsys, "gamma", *argv)
        assert code == 0
        assert "delta00 (closed)  = inf\n" in out
        code, out, _ = run_cli(capsys, "gamma", *argv, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["delta00_closed"] == math.inf
        assert math.isfinite(data["gamma_plus"])

    def test_infinite_sections_overflowing_principal_value(self, capsys):
        err = assert_exit(capsys, 2, "gamma", "--case", "z-family",
                          "--alpha-param", "1e308", "--beta", "1",
                          "--infinite")
        assert err.startswith("invalid argument: the principal value")
        assert "overflows" in err

    def test_infinite_sections_overflowing_profile(self, capsys,
                                                   count_evals):
        # g1 = 1/2 + 1e308 x against f1 = 1 + 10 x^2: the x^3 coefficient
        # of the folded numerator m is infinite; rejected before any
        # quadrature
        nf = {"f1": {"mode": "float", "terms": [[0, 0, 1.0], [2, 0, 10.0]]},
              "f2": {"mode": "float", "terms": [[0, 0, 1.0]]},
              "g1": {"mode": "float", "terms": [[0, 0, 0.5], [1, 0, 1e308]]},
              "g2": {"terms": []}, "a": 0.0}
        evals = count_evals("gk15_quad")
        evals.append(0)
        err = assert_exit(capsys, 2, "gamma", "--json", json.dumps(nf),
                          "--infinite")
        assert "the folded profile m/d overflows" in err
        assert evals == [0]

    def test_not_hyperbolic_exit(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--case", "example6",
                               "--a", "0", "--b", "0", "--c", "2",
                               "--alpha", "-1", "--omega", "1")
        assert code == 4

    def test_missing_sections_exit(self, capsys):
        code, _, err = run_cli(capsys, "gamma", "--case", "example6")
        assert code == 5

    def test_nonconvergent_principal_value_exit(self, capsys, monkeypatch):
        # a quadrature that exhausts its evaluation budget
        def fail(*_args, **_kw):
            raise asymptotics.QuadratureNonConvergent("budget exhausted")
        monkeypatch.setattr(asymptotics, "pv_integral_sym_infinite", fail)
        err = assert_exit(capsys, 5, "gamma", "--case", "z-family",
                          "--infinite")
        assert err.startswith("principal value did not converge")


class TestTransit:
    def test_resolved_quartic_slope(self, capsys):
        code, out, _ = run_cli(capsys, "transit", "--case", "y1",
                               "--alpha", "-1", "--omega", "0.5",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["slope"]["value"] == pytest.approx(4.0, rel=0.01)
        assert data["closed_form"] == pytest.approx(4.0, abs=1e-8)
        assert data["relative_deviation"] < 0.01

    def test_increasing_offsets_rejected(self, capsys):
        err = assert_exit(capsys, 2, "transit", "--case", "y1",
                          "--alpha", "-1", "--omega", "0.5",
                          "--offsets", "1e-3", "1e-2")
        assert err.startswith("invalid argument")

    @pytest.mark.parametrize("exc", [flow.StepUnderflow,
                                     flow.MaxStepsExceeded])
    def test_integrator_failure_is_no_transit(self, capsys, monkeypatch, exc):
        def fail(*_args, **_kw):
            raise exc("integrator gave up")
        monkeypatch.setattr(flow, "transition_slope", fail)
        err = assert_exit(capsys, 6, "transit", "--case", "y1",
                          "--alpha", "-1", "--omega", "0.5")
        assert err.startswith("no transit")

    def test_internal_error_has_its_own_exit(self, capsys, monkeypatch):
        # a bug is no failed reproduction check: exit 70 (sysexits'
        # EX_SOFTWARE) with the traceback on stderr, where Python's 1 was
        # the code of failed checks
        def fail(*_args, **_kw):
            raise RuntimeError("an identity broke")
        monkeypatch.setattr(flow, "transition_slope", fail)
        code, _, err = run_cli(capsys, "transit", "--case", "y1",
                               "--alpha", "-1", "--omega", "0.5")
        assert code == cli.EXIT_INTERNAL == 70
        assert err.startswith("Traceback (most recent call last):")
        assert err.splitlines()[-1] == "RuntimeError: an identity broke"

    def test_leg_that_cannot_go_on_is_no_transit(self, capsys):
        # p <= 0 on the left leg from a valid start: the step underflows
        nf = {"f1": {"terms": [[0, 0, "1"]]},
              "f2": {"terms": [[0, 0, "1"], [0, 1, "-10"]]},
              "g1": {"terms": [[0, 0, "-1"]]},
              "g2": {"terms": [[0, 0, "-1"]]}, "a": "1"}
        err = assert_exit(capsys, 6, "transit", "--json", json.dumps(nf),
                          "--alpha", "-1", "--omega", "1",
                          "--offsets", "0.2", "0.1", "0.05")
        assert err.startswith("no transit") and "left leg" in err


    def test_fallback_that_leaves_its_window_is_no_transit(self, capsys):
        # gamma_plus is about 1573: near x = 0, where u = x/y creeps past
        # 1, y grows until it leaves |y| < min(-alpha, omega)/(2k), with k
        # = |a| + 1.  From offset 1e-2 the arclength fallback left its
        # window at x = -3, not through x = omega
        err = assert_exit(capsys, 6, "transit", "--case", "example6",
                          "--a", "48.01", "--b", "50", "--c", "0",
                          "--alpha", "-1", "--omega", "1")
        assert err.startswith("no transit: orbit from (-1.0, 1e-08) reaches "
                              "|y| = 0.0102")
        assert err.rstrip().endswith("near x = 0")

    # exp(gamma) past the float range: g1 = -1 - 600 x puts gamma near
    # -1200 on either side, and g1 = -1 + 800 x with alpha = -0.01 puts
    # gamma_plus at 800.25
    @pytest.mark.parametrize("g1_x, argv, closed", [
        ("-600", ("--alpha", "-1", "--omega", "1"), 0.0),
        ("800", ("--alpha", "-0.01", "--omega", "1", "--side", "+"),
         math.inf),
    ])
    def test_closed_form_out_of_float_range(self, capsys, g1_x, argv,
                                            closed):
        nf = {"f1": {"terms": [[0, 0, "1"]]}, "f2": {"terms": [[0, 0, "1"]]},
              "g1": {"terms": [[0, 0, "-1"], [1, 0, g1_x]]},
              "g2": {"terms": [[0, 0, "-1"]]}, "a": "1"}
        code, out, err = run_cli(capsys, "transit", "--json", json.dumps(nf),
                                 *argv, "--format", "json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["closed_form"] == closed
        assert data["relative_deviation"] is None
        code, out, _ = run_cli(capsys, "transit", "--json", json.dumps(nf),
                               *argv)
        assert code == 0
        assert out.endswith("relative deviation = n/a\n")

    @pytest.mark.parametrize("offset", ["2", "0.25", "1e-151", "1e-300"])
    def test_start_out_of_range(self, capsys, offset):
        # above min(-alpha, omega)/2 the start lies past the handover: the
        # graph over x read 2.0 as a slope 73% off.  Below 1e-150, p and q
        # of order y^2 underflow in the blow-up chart
        err = assert_exit(capsys, 2, "transit", "--case", "y1",
                          "--alpha", "-1", "--omega", "0.5",
                          "--offsets", offset)
        assert err.startswith("invalid argument: offsets")
        assert "must lie in [1e-150, min(-alpha, omega)/(2k))" in err


class TestReturn:
    def test_center(self, capsys):
        code, out, _ = run_cli(capsys, "return", "--case", "z-family",
                               "--alpha-param", "0", "--beta", "1",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["slope"]["value"] == pytest.approx(1.0, abs=1e-3)
        assert data["closed_form"] == pytest.approx(1.0)

    def test_not_monodromic_exit(self, capsys):
        code, _, err = run_cli(capsys, "return", "--case", "z-family",
                               "--alpha-param", "1", "--beta", "0.2")
        assert code == 6

    @pytest.mark.parametrize("argv", [
        ("--offsets", "0"),
        ("--offsets", "1000", "0.1"),
        ("--offsets", "1e-3", "1e-2"),
    ])
    def test_invalid_argument_exit(self, capsys, argv):
        err = assert_exit(capsys, 2, "return", "--case", "z-family", *argv)
        assert err.startswith("invalid argument")

    def test_coefficient_beyond_float_range(self, capsys):
        # read as "integer division result too large for a float"
        doc = {"p": {"terms": [[1, 0, "1e400"], [0, 3, "-1"]]},
               "q": {"terms": [[3, 0, "1"], [0, 1, "1"]]}}
        err = assert_exit(capsys, 2, "return", "--json", json.dumps(doc))
        assert err.startswith("invalid argument: coefficient of x^1 y^0 in "
                              "p is inf as a float; only finite "
                              "coefficients compile")

    @pytest.mark.parametrize("section_x", ["1e-13", "1e-20", "1e-50",
                                           "1e-140"])
    def test_section_scale_below_the_depth_floor(self, capsys, section_x):
        # the starts at depths section_x and 1e-4 section_x: the deeper
        # lies below chart radius 1e-8, refused before any orbit is driven,
        # naming the cause.  Winding the cartesian state ground 10^6 steps
        # (7-8 s) into exit 6 from 1e-50 to 1e-140
        err = assert_exit(capsys, 2, "return", "--case", "z-family",
                          "--offsets", section_x,
                          repr(float(section_x) * 1e-4))
        assert err.startswith("invalid argument: offsets")
        assert "depth floor" in err

    @pytest.mark.parametrize("section_x", ["1e-160", "1e-150"])
    def test_section_scale_whose_tolerances_underflow(self, capsys,
                                                       section_x):
        # the tolerance and stall radius once tied to r0^2 were subnormal
        # or zero here: still refused before any orbit is driven, now by
        # the depth floor, in one line under the same prefix
        err = assert_exit(capsys, 2, "return", "--case", "z-family",
                          "--offsets", section_x,
                          repr(float(section_x) * 1e-4))
        assert err.startswith("invalid argument: offsets")
        assert "depth floor" in err

    # x' = x/10 - y, y' = x + y/10: a linear focus, return slope
    # exp(2 pi/10), under weights (1, 1)
    LINEAR_FOCUS = json.dumps({
        "p": {"terms": [[1, 0, "1/10"], [0, 1, "-1/1"]]},
        "q": {"terms": [[1, 0, "1/1"], [0, 1, "1/10"]]}})

    @pytest.mark.parametrize("argv", [(), ("--offsets", "1e-4", "1e-6")])
    def test_linear_focus(self, capsys, argv):
        # the default starts are y0 = r0^b at chart radii 1e-4 and 1e-6;
        # as 1e-8 and 1e-12, made for b = 2, they lay below the depth
        # floor here, and every field with a linear part exited 2
        code, out, _ = run_cli(capsys, "return", "--json", self.LINEAR_FOCUS,
                               "--format", "json", *argv)
        assert code == 0
        data = json.loads(out)
        assert data["slope"]["offsets_used"] == [1e-4, 1e-6]
        assert data["slope"]["value"] == pytest.approx(
            math.exp(math.pi / 5), rel=1e-14)

    def test_field_without_terms_has_no_return(self, capsys):
        # every point is at rest: it ground through 10^6 steps (1.8 s)
        # before it exited 6
        err = assert_exit(capsys, 6, "return", "--json",
                          '{"p": {"terms": []}, "q": {"terms": []}}')
        assert err.startswith("no return: the field has no terms")

    def test_fake_saddle_has_no_return(self, capsys):
        # example6's orbit from the ray leaves the guard box; the default
        # starts, refused under its weights (1, 1), exited 2
        err = assert_exit(capsys, 6, "return", "--case", "example6")
        assert err.startswith("no return")

    def test_strong_focus_near_the_threshold(self, capsys):
        # z(0.5, 0.3) expands 422-fold per turn; it exited 6, no return
        code, out, _ = run_cli(capsys, "return", "--case", "z-family",
                               "--alpha-param", "0.5", "--beta", "0.3",
                               "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["slope"]["value"] == pytest.approx(data["closed_form"],
                                                       rel=5e-6)


class TestToleranceOverride:
    def test_env_var_changes_config(self, monkeypatch):
        monkeypatch.setenv("FSL_TOL", "1e-6")
        assert cli._tolerances() == (1e-6, 1e-6)
        cfg = cli._integrator_cfg()
        assert cfg.rel_tol == 1e-6
        monkeypatch.delenv("FSL_TOL")
        # unset, the library's own defaults, not copies of them
        assert cli._tolerances()[0] == asymptotics.QUAD_ABS_TOL
        assert cli._integrator_cfg() == flow.IntegratorConfig()

    def test_env_var_sets_gamma_quadrature_tolerance(self, capsys,
                                                     monkeypatch):
        argv = ("gamma", "--case", "y1", "--alpha", "-1", "--omega", "0.5",
                "--format", "json")
        _, out, _ = run_cli(capsys, *argv)
        fine = json.loads(out)["quadrature_error_estimates"]
        monkeypatch.setenv("FSL_TOL", "1e-4")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        coarse = json.loads(out)["quadrature_error_estimates"]
        assert max(fine) < 1e-9
        assert 1e-9 < max(coarse) < 1e-4

    @pytest.mark.parametrize("value", ["abc", "0", "-1e-6", "nan", "inf"])
    def test_bad_value_exit(self, capsys, monkeypatch, value):
        monkeypatch.setenv("FSL_TOL", value)
        err = assert_exit(capsys, 2, "reproduce", "x3-script")
        assert "FSL_TOL" in err


class TestReproduce:
    def test_single_case(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "x3-script")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_case(self, capsys):
        code, _, err = run_cli(capsys, "reproduce", "unknown-id")
        assert code == 2

    def test_missing_argument(self, capsys):
        code, _, err = run_cli(capsys, "reproduce")
        assert code == 2

    def test_out_path_that_cannot_be_written(self, capsys, tmp_path):
        # a regular file where the directory should be: NotADirectoryError
        # ended in a traceback, exit 1
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / "x.json"
        err = assert_exit(capsys, 2, "reproduce", "example6", "--out",
                          str(out))
        assert err.startswith(f"cannot write output {out}")


class TestPortrait:
    def test_orbit_bundle(self, capsys, tmp_path):
        out_dir = tmp_path / "p1"
        code, out, _ = run_cli(capsys, "portrait", "--case", "x4",
                               "--window", "-1", "1", "-1", "1",
                               "--orbits", "4", "--out", str(out_dir))
        assert code == 0
        csvs = sorted(out_dir.glob("orbit_*.csv"))
        assert len(csvs) >= 4
        header = csvs[0].read_text().splitlines()[0]
        assert header == "t_or_x,x,y,step_error"
        assert (out_dir / "portrait.gp").exists()
        assert (out_dir / "summary.json").exists()

    def test_empty_bundle(self, capsys, tmp_path):
        out_dir = tmp_path / "p0"
        code, _, _ = run_cli(capsys, "portrait", "--case", "x4",
                             "--orbits", "0", "--out", str(out_dir))
        assert code == 0
        assert not list(out_dir.glob("orbit_*.csv"))
        assert (out_dir / "portrait.gp").exists()

    def test_negative_orbit_count(self, capsys, tmp_path):
        out_dir = tmp_path / "p4"
        assert_exit(capsys, 2, "portrait", "--case", "x4",
                    "--orbits", "-3", "--out", str(out_dir))
        assert not out_dir.exists()

    def test_out_path_that_cannot_be_written(self, capsys, tmp_path):
        # a regular file where the directory should be: NotADirectoryError
        # ended in a traceback, exit 1
        (tmp_path / "f").write_text("")
        out = tmp_path / "f" / "sub"
        err = assert_exit(capsys, 2, "portrait", "--case", "x4", "--orbits",
                          "1", "--out", str(out))
        assert err.startswith(f"cannot write output {out}")

    def test_bad_window(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "portrait", "--case", "x4",
                               "--window", "1", "-1", "-1", "1",
                               "--out", str(tmp_path / "p2"))
        assert code == 5

    def test_window_whose_width_overflows(self, capsys, tmp_path):
        # x1 - x0 = inf put the seeds at (inf, inf): exit 2 from the
        # stop, after the output directory was made
        out_dir = tmp_path / "p5"
        err = assert_exit(capsys, 5, "portrait", "--case", "x4", "--window",
                          "-1e308", "1e308", "-1e308", "1e308",
                          "--out", str(out_dir))
        assert err.startswith("bad window")
        assert not out_dir.exists()

    def test_orbits_keep_the_first_integral(self, capsys, tmp_path):
        # each orbit ends on the edge of the window widened by 1e-6, where
        # its stop re-runs the crossing step; the worst drift reads 4.7e-9
        # (7.9e-7 where the stop lay on the step's Hermite cubic)
        out_dir = tmp_path / "p6"
        code, _, _ = run_cli(capsys, "portrait", "--case", "example6",
                             "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["orbits"]) == 16
        for orbit in summary["orbits"]:
            assert orbit["first_integral_drift"] <= 5e-8, orbit
            last = (out_dir / orbit["file"]).read_text().splitlines()[-1]
            _s, x, y, _e = map(float, last.split(","))
            assert 1.0 + 1e-6 in (abs(x), abs(y)), orbit

    def test_first_integral_summary(self, capsys, tmp_path):
        out_dir = tmp_path / "p3"
        code, _, _ = run_cli(capsys, "portrait", "--case", "example6",
                             "--orbits", "2", "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        drifts = [o.get("first_integral_drift") for o in summary["orbits"]]
        assert any(d is not None for d in drifts)
