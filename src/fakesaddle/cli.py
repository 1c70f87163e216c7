"""Command-line front end.

Subcommands: classify, gamma, transit, return, reproduce, portrait.

Exit codes are fixed so CI harnesses can assert failure modes:
    0  success (any classifier verdict counts as success)
    1  reproduce ran but at least one check failed
    2  parse error, unknown case id or invalid argument, also an --out
       path that cannot be written
    3  input not in normal form
    4  not a hyperbolic fake saddle
    5  invalid sections or window; principal value did not converge
    6  no transit / no return
   70  internal error, with its traceback (sysexits' EX_SOFTWARE)

The environment variable FSL_TOL overrides the default quadrature
absolute tolerance (for finite sections) and integrator relative
tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import traceback
from fractions import Fraction
from pathlib import Path

from . import asymptotics, casebook, flow
from .normalform import NormalFormField, NotHyperbolicFakeSaddle, \
    NotInNormalForm, classify, invariants, validate_and_build
from .polyfield import PlanarField

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_PARSE = 2
EXIT_NOT_NORMAL_FORM = 3
EXIT_NOT_HYPERBOLIC = 4
EXIT_BAD_SECTIONS = 5
EXIT_NO_TRANSIT = 6
EXIT_INTERNAL = 70


def _tolerances():
    """FSL_TOL as the quadrature's abs_tol and the integrator's rel_tol,
    else the library's QUAD_ABS_TOL and None for the config's defaults."""
    tol = os.environ.get("FSL_TOL")
    if tol is None:
        return asymptotics.QUAD_ABS_TOL, None
    try:
        val = float(tol)
    except ValueError:
        val = math.nan
    if not 0.0 < val < math.inf:
        raise ValueError(f"FSL_TOL must be positive and finite, got {tol!r}")
    return val, val


def _integrator_cfg() -> flow.IntegratorConfig:
    _, rel = _tolerances()
    return flow.IntegratorConfig() if rel is None else \
        flow.IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2)


class _InputError(Exception):
    def __init__(self, code, msg):
        self.code = code
        super().__init__(msg)


# The exit code and stderr prefix for each failure that ends a command;
# an exception takes the entry of its nearest listed class.
_FAILURES = {
    NotInNormalForm: (EXIT_NOT_NORMAL_FORM, "not in normal form"),
    NotHyperbolicFakeSaddle: (EXIT_NOT_HYPERBOLIC,
                              "not a hyperbolic fake saddle"),
    asymptotics.SectionInvalid: (EXIT_BAD_SECTIONS, "invalid sections"),
    asymptotics.TailNotIntegrable: (EXIT_BAD_SECTIONS, "invalid sections"),
    asymptotics.QuadratureNonConvergent: (EXIT_BAD_SECTIONS,
                                          "principal value did not converge"),
    flow.TransitDoesNotExist: (EXIT_NO_TRANSIT, "no transit"),
    flow.StepUnderflow: (EXIT_NO_TRANSIT, "no transit"),
    flow.MaxStepsExceeded: (EXIT_NO_TRANSIT, "no transit"),
    flow.NoReturn: (EXIT_NO_TRANSIT, "no return"),
    ValueError: (EXIT_PARSE, "invalid argument"),
    OverflowError: (EXIT_PARSE, "invalid argument"),
}


@contextlib.contextmanager
def _writing(path):
    """An OSError of writing the output at ``path`` as an invalid argument
    naming the path."""
    try:
        yield
    except OSError as exc:
        raise _InputError(EXIT_PARSE, f"cannot write output {path}: "
                                      f"{exc.strerror or exc}") from None


def _load_json_input(text: str):
    data = json.loads(text)
    if "f1" in data:
        return None, NormalFormField.from_json(data)
    field = PlanarField.from_json(data)
    return field, None


def _resolve_input(args):
    """Return (field, nf) where nf is a NormalFormField when available."""
    sources = [s for s in ("case", "file", "json") if getattr(args, s, None)]
    if len(sources) != 1:
        raise _InputError(EXIT_PARSE,
                          "exactly one of --case / --file / --json is required")
    if args.case:
        return _resolve_case(args)
    try:
        text = Path(args.file).read_text() if args.file else args.json
        field, nf = _load_json_input(text)
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            ArithmeticError) as exc:
        raise _InputError(EXIT_PARSE, f"cannot parse input: {exc}") from None
    if nf is not None:
        return nf.field(), nf
    return field, None


def _resolve_case(args):
    case = args.case
    if case in ("example6", "figure3"):
        a = Fraction(args.a if args.a is not None else 1)
        b = Fraction(args.b if args.b is not None else -1)
        c = Fraction(args.c if args.c is not None else -1)
        nf = casebook.build_example6(a, b, c)
        return nf.field(), nf
    if case in ("x3", "x4", "xn"):
        n = {"x3": 3, "x4": 4}.get(case, 4 if args.n is None else args.n)
        return casebook.build_xn(int(n)), None
    if case == "y1":
        field = casebook.printed_y1()
        return field, validate_and_build(field)
    if case == "z-family":
        field = casebook.build_z(args.alpha_param, args.beta)
        nf = casebook.build_z_normalform(args.alpha_param, args.beta)
        return field, nf
    raise _InputError(EXIT_PARSE, f"unknown case id {case!r}")


def _need_nf(field, nf):
    if nf is not None:
        return nf
    return validate_and_build(field)


def _emit(args, payload: dict, human_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# -- subcommands ----------------------------------------------------------------


def cmd_classify(args) -> int:
    field, nf = _resolve_input(args)
    inv = invariants(_need_nf(field, nf))
    cls = classify(inv)
    payload = {"invariants": inv.to_json(), "classification": cls.to_json()}
    a, b, c, d = (float(inv.a), float(inv.b), float(inv.c), float(inv.d))
    lines = [f"invariants: a={a:.12g} b={b:.12g} c={c:.12g} d={d:.12g}",
             f"verdict: {cls.verdict.value}"]
    if cls.ratio is not None:
        lines.append(f"hyperbolicity ratio: {float(cls.ratio):.12g}")
    if cls.extra_count is not None:
        lines.append(f"extra divisor singularities: {cls.extra_count} "
                     f"at {list(cls.extra_locations)}")
    _emit(args, payload, lines)
    return EXIT_OK


def _sections_from(args):
    if getattr(args, "infinite", False):
        return None
    if args.alpha is None or args.omega is None:
        raise _InputError(EXIT_BAD_SECTIONS,
                          "need --alpha and --omega (or --infinite)")
    return asymptotics.SectionPair(float(args.alpha), float(args.omega))


def cmd_gamma(args) -> int:
    field, nf = _resolve_input(args)
    nf = _need_nf(field, nf)
    report = asymptotics.transition_report(nf, _sections_from(args),
                                           _tolerances()[0])
    lines = [f"PV                = {report.pv:.12g}",
             f"gamma0            = {report.gamma0:.12g}",
             f"gamma_plus        = {report.gamma_plus:.12g}",
             f"gamma_minus       = {report.gamma_minus:.12g}",
             f"delta00 (closed)  = {report.delta00_closed:.12g}",
             f"delta00 (via L)   = "
             + (f"{report.delta00_via_L:.12g}"
                if report.delta00_via_L is not None
                else "n/a (infinite sections)")]
    _emit(args, report.to_json(), lines)
    return EXIT_OK


def _offsets_from(args):
    if args.offsets:
        return tuple(float(o) for o in args.offsets)
    return None


def cmd_transit(args) -> int:
    field, nf = _resolve_input(args)
    nf = _need_nf(field, nf)
    sections = _sections_from(args)
    if sections is None:
        raise _InputError(EXIT_BAD_SECTIONS,
                          "transit needs finite --alpha/--omega")
    est = flow.transition_slope(nf, sections, args.side,
                                offsets=_offsets_from(args),
                                cfg=_integrator_cfg())
    payload = {"slope": est.to_json()}
    lines = [f"measured slope    = {est.value:.10g}  "
             f"(residual {est.residual:.3g})"]
    try:
        g = asymptotics.gamma_pm(nf, sections)
        # 0.0 or inf past the float range, where no deviation is relative
        closed = asymptotics._exp(g[0] if args.side == "+" else g[1])
        dev = (abs(est.value - closed) / closed if 0.0 < closed < math.inf
               else None)
        payload["closed_form"] = closed
        payload["relative_deviation"] = dev
        lines.append(f"closed-form slope = {closed:.10g}")
        lines.append("relative deviation = "
                     + ("n/a" if dev is None else f"{dev:.3g}"))
    except NotHyperbolicFakeSaddle:
        lines.append("closed-form slope = n/a (d <= 0)")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_return(args) -> int:
    field, _nf = _resolve_input(args)
    est = flow.return_slope(field, offsets=_offsets_from(args),
                            cfg=_integrator_cfg())
    payload = {"slope": est.to_json()}
    lines = [f"measured return slope = {est.value:.10g}  "
             f"(residual {est.residual:.3g})"]
    if args.case == "z-family" and args.beta > 0.25:
        closed = casebook.z_return_slope_closed(args.alpha_param, args.beta)
        payload["closed_form"] = closed
        lines.append(f"closed-form slope     = {closed:.10g}")
        lines.append(f"relative deviation    = "
                     f"{abs(est.value - closed) / closed:.3g}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    if args.all:
        case_ids = sorted(casebook.CASES)
    elif not args.case_id:
        raise _InputError(EXIT_PARSE, "reproduce needs a case id or --all")
    elif args.case_id in casebook.CASES:
        case_ids = [args.case_id]
    else:
        raise _InputError(EXIT_PARSE, f"unknown case id {args.case_id!r}; "
                                      f"known: {sorted(casebook.CASES)}")
    results = [casebook.run_case(cid, cfg=_integrator_cfg())
               for cid in case_ids]
    all_pass = all(r.passed for r in results)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in results], indent=2))
    else:
        for r in results:
            print(f"case {r.case_id}: {'PASS' if r.passed else 'FAIL'}")
            for line in r.summary_lines():
                print(line)
    if args.out:
        with _writing(args.out):
            casebook.dump_results(results, args.out)
    return EXIT_OK if all_pass else EXIT_CHECKS_FAILED


def _portrait_seeds(window, n):
    x0, x1, y0, y1 = window
    seeds = []
    for k in range(n):
        t = (k + 0.5) / n
        if k % 2 == 0:
            seeds.append((x0 + 1e-3 * (x1 - x0), y0 + t * (y1 - y0)))
        else:
            seeds.append((x0 + t * (x1 - x0), y0 + 1e-3 * (y1 - y0)))
    return seeds


def cmd_portrait(args) -> int:
    field, nf = _resolve_input(args)
    x0, x1, y0, y1 = args.window
    if not (0.0 < x1 - x0 < math.inf and 0.0 < y1 - y0 < math.inf):
        raise _InputError(EXIT_BAD_SECTIONS, f"bad window {args.window}")
    if args.orbits < 0:
        raise ValueError(f"--orbits must be non-negative, got {args.orbits}")
    field.as_rhs()  # a field that cannot be compiled leaves no directory
    outdir = Path(args.out or f"portrait_{args.case or 'field'}")
    with _writing(outdir):
        count = _write_portrait(args, field, outdir)
    print(f"wrote {count} orbit files to {outdir}")
    return EXIT_OK


def _write_portrait(args, field, outdir) -> int:
    """Write ``portrait``'s orbit CSVs, gnuplot script and summary into
    ``outdir``: the number of orbit files."""
    x0, x1, y0, y1 = args.window
    outdir.mkdir(parents=True, exist_ok=True)
    margin = 1e-6
    stop = flow.Stop.window_exit(x0 - margin, x1 + margin,
                                 y0 - margin, y1 + margin)
    cfg = flow.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12,
                                max_steps=200_000, max_step=0.05)
    summary = {"case": args.case, "window": list(args.window), "orbits": []}
    names = []
    for k, seed in enumerate(_portrait_seeds((x0, x1, y0, y1), args.orbits)):
        for direction, tag in ((False, "fwd"), (True, "bwd")):
            try:
                traj = flow.integrate(field, seed, stop, cfg=cfg,
                                      param="arclength", backward=direction)
            except (flow.MaxStepsExceeded, flow.StepUnderflow):
                continue
            name = f"orbit_{k:02d}_{tag}.csv"
            traj.to_csv(outdir / name)
            names.append(name)
            entry = {"file": name, "seed": list(seed), "samples":
                     len(traj.samples)}
            if args.case in ("example6", "figure3"):
                try:
                    entry["first_integral_drift"] = flow.conservation_check(
                        casebook.example6_first_integral(), traj,
                        branch_quantum=2.0 * math.pi)
                except flow.BranchTrackingFailed:
                    entry["first_integral_drift"] = None
            summary["orbits"].append(entry)
    plots = ", \\\n  ".join(f"'{n}' using 2:3 with lines notitle"
                            for n in names)
    script = ("set size ratio -1\nset xlabel 'x'\nset ylabel 'y'\n"
              + (f"plot \\\n  {plots}\n" if names else "# no orbits requested\n"))
    (outdir / "portrait.gp").write_text(script)
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2))
    return len(names)


# -- parser ----------------------------------------------------------------------


def fraction(text: str) -> Fraction:
    """argparse type for a rational; argparse reports only ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def finite(text: str) -> float:
    """argparse type for a float that is neither nan nor infinite."""
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"{text!r} is not finite")
    return val


def _add_input_args(p):
    p.add_argument("--case", help="built-in case id (example6, x3, x4, xn, "
                                  "y1, z-family, figure3)")
    p.add_argument("--file", help="path to a field/normal-form JSON file")
    p.add_argument("--json", help="inline field/normal-form JSON")
    p.add_argument("--a", type=fraction, help="example6: xy coefficient")
    p.add_argument("--b", type=fraction, help="example6: g2(0)")
    p.add_argument("--c", type=fraction, help="example6: g1(0,0)")
    p.add_argument("--n", type=int, help="xn: degree of the y-component")
    p.add_argument("--alpha-param", dest="alpha_param", type=finite,
                   default=1.0, help="z-family: alpha parameter")
    p.add_argument("--beta", type=finite, default=1.0,
                   help="z-family: beta parameter")
    p.add_argument("--format", choices=("json", "human"), default="human")


def _add_section_args(p):
    p.add_argument("--alpha", type=finite, help="left section {x = alpha < 0}")
    p.add_argument("--omega", type=finite,
                   help="right section {x = omega > 0}")
    p.add_argument("--infinite", action="store_true",
                   help="symmetric sections at infinity")


def _add_offsets_arg(p, depth, default, use):
    p.add_argument("--offsets", nargs="+", type=finite,
                   help=f"absolute start depths {depth}, strictly decreasing "
                        f"(default {default}): {use}")


# A negative float or fraction as written on the command line, -2.5E-1,
# -.5 or -1/2, digit groups split by "_" as float() and Fraction() allow
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"^-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})"
    rf"(?:[eE][-+]?{_DIGITS})?|{_DIGITS}/{_DIGITS})$")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and so each subcommand's (``add_subparsers``
    makes them of the same class), that reads every negative float or
    fraction as a value: argparse's own pattern takes only forms like -1
    and -0.5, and read -2.5E-1 or -1/2 as an unknown option."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="fakesaddle",
        description="Classify fake-saddle singularities of planar vector "
                    "fields and compute/measure their transition-map slopes.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="invariants and verdict")
    _add_input_args(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("gamma", help="closed-form transition exponents")
    _add_input_args(p)
    _add_section_args(p)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("transit", help="measured transition slope")
    _add_input_args(p)
    _add_section_args(p)
    p.add_argument("--side", choices=("+", "-"), default="+")
    _add_offsets_arg(p, "|y0|", " ".join(map(str, flow.DEFAULT_OFFSETS)),
                     "each pair takes one Richardson step in depth with the "
                     "exponent min(1, 1/(1 - c)), and the two deepest give "
                     "the slope; one start gives its own")
    p.set_defaults(fn=cmd_transit)

    p = sub.add_parser("return", help="measured Poincare return slope")
    _add_input_args(p)
    _add_offsets_arg(p, "y0 on the ray {x = 0, y > 0}", "r0^b, b the "
                     f"Newton weight of y, at chart radii r0 = "
                     f"{' '.join(map(str, flow.DEFAULT_RETURN_RADII))}",
                     "the deepest gives the slope")
    p.set_defaults(fn=cmd_return)

    p = sub.add_parser("reproduce", help="run the casebook regressions")
    p.add_argument("case_id", nargs="?", help="case id, or use --all")
    p.add_argument("--all", action="store_true")
    p.add_argument("--out", help="write CaseResult JSON to this path")
    p.add_argument("--format", choices=("json", "human"), default="human")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("portrait", help="export phase-portrait orbit data")
    _add_input_args(p)
    p.add_argument("--window", nargs=4, type=finite,
                   default=(-1.0, 1.0, -1.0, 1.0),
                   metavar=("X0", "X1", "Y0", "Y1"))
    p.add_argument("--orbits", type=int, default=8)
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn=cmd_portrait)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except tuple(_FAILURES) as exc:
        code, prefix = next(_FAILURES[t] for t in type(exc).__mro__
                            if t in _FAILURES)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    except Exception:  # a bug, not a reproduction check that failed
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
