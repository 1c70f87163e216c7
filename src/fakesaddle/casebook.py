"""Builders and scripted reproduction runs for the reference examples.

Each case pins known closed-form values and printed blow-up polynomials
as regression baselines: exact checks run at zero tolerance in rational
mode, measured quantities at the stated tolerances.  Cases are
independent and deterministic, so the whole book may run concurrently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from typing import Dict, List

from . import asymptotics, flow
from ._univariate import sqrt_fraction
from .blowup import BlowupChart, ChartKind, blow_up, linear_part
from .normalform import (NormalFormField, Verdict, classify, invariants,
                         validate_and_build)
from .polyfield import (AffineMap2, PlanarField, Poly2, _coerce, coeff_json,
                        pullback_affine)

SQRT3 = math.sqrt(3.0)


@dataclass
class CaseCheck:
    name: str
    computed: object
    expected: object
    tol: float | None  # None = exact equality
    passed: bool
    note: str = ""

    def to_json(self) -> dict:
        def enc(v):
            if isinstance(v, (Poly2, PlanarField)):
                return repr(v)
            if isinstance(v, Fraction):
                return coeff_json(v)
            if isinstance(v, (tuple, list)):
                return [enc(x) for x in v]
            if hasattr(v, "value") and not isinstance(v, (int, float, str,
                                                          bool)):
                return v.value  # enum verdicts
            return v
        return {"name": self.name, "computed": enc(self.computed),
                "expected": enc(self.expected), "tol": self.tol,
                "passed": self.passed, "note": self.note}


@dataclass
class CaseResult:
    case_id: str
    inputs: Dict[str, object]
    checks: List[CaseCheck] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def exact(self, name, computed, expected, note=""):
        self.checks.append(CaseCheck(name, computed, expected, None,
                                     computed == expected, note))

    def close(self, name, computed, expected, tol, relative=False, note=""):
        c, e = float(computed), float(expected)
        err = abs(c - e) / max(abs(e), 1e-300) if relative else abs(c - e)
        self.checks.append(CaseCheck(name, c, e, tol, err <= tol, note))

    def holds(self, name, condition, note=""):
        self.checks.append(CaseCheck(name, bool(condition), True, None,
                                     bool(condition), note))

    def to_json(self) -> dict:
        return {"case_id": self.case_id,
                "inputs": {k: str(v) for k, v in self.inputs.items()},
                "passed": self.passed,
                "checks": [c.to_json() for c in self.checks]}

    def summary_lines(self) -> List[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(f"  [{status}] {self.case_id}/{c.name}: "
                       f"computed={c.computed} expected={c.expected}"
                       + (f" tol={c.tol}" if c.tol is not None else ""))
        return out


def _bar_covers(res: CaseResult, name: str, est: flow.SlopeEstimate,
                expected: float) -> None:
    """The check that the error bar of the measured slope ``name`` covers
    its deviation from the closed form."""
    dev = abs(est.value - expected)
    res.holds(f"{name}_bar_covers", est.residual >= dev,
              note=f"residual {est.residual:.3g} >= deviation {dev:.3g}")


# -- builders -------------------------------------------------------------------


def build_xn(n: int) -> PlanarField:
    """The degenerate family (x+y)^2 d/dx + y^n d/dy, n >= 3."""
    if n < 3:
        raise ValueError("n must be at least 3")
    x, y = Poly2.gens()
    return PlanarField((x + y) ** 2, y ** n)


def build_example6(a, b, c) -> NormalFormField:
    """Homogeneous quadratic normal form: f1 = f2 = 1, g1 = c, g2 = b."""
    one = Poly2.const(1)
    return NormalFormField(one, one, Poly2.const(c), Poly2.const(b), a)


def example6_first_integral():
    """First integral of the (1, -1, -1) quadratic field.

    H = log(y^2 (2x^2 + 2xy + y^2)) - 2 arctan((x+y)/x); the arctan
    branch jumps by 2*pi across x = 0 (track with branch_quantum=2*pi).
    """
    def h_fn(x, y):
        quad = 2.0 * x * x + 2.0 * x * y + y * y
        if x == 0.0:
            ang = math.copysign(math.pi / 2.0, x + y)
        else:
            ang = math.atan((x + y) / x)
        return math.log(y * y * quad) - 2.0 * ang

    return h_fn


def build_z(alpha, beta) -> PlanarField:
    """The quartic-quintic degenerate family around a monodromic origin."""
    x, y = Poly2.gens()
    p = beta * x ** 2 * y + alpha * x * y ** 2 - beta * y ** 3 - x ** 4
    q = 4 * beta * x * y ** 2 + alpha * y ** 3 + 2 * x ** 5
    return PlanarField(p, q)


def printed_z_blowup(alpha, beta) -> PlanarField:
    """The blow-up of build_z in the (v, u v) chart, written out."""
    u, v = Poly2.gens()
    p = 3 * beta * u ** 2 + beta * u ** 4 + u * v + 2 * v ** 2
    q = (beta * u + alpha * u ** 2 - beta * u ** 3 - v) * v
    return PlanarField(p, q)


def printed_y1() -> PlanarField:
    """The first blow-up of build_xn(4) with (-1, 0) moved to the origin,
    written out."""
    u, v = Poly2.gens()
    p = (u ** 2 + v ** 2 - u ** 3 - 4 * u * v ** 2 + 6 * u ** 2 * v ** 2
         - 4 * u ** 3 * v ** 2 + u ** 4 * v ** 2)
    return PlanarField(p, u ** 2 * v)


def _polys_close(pa, pb):
    keys = set(pa.terms) | set(pb.terms)
    return all(abs(float(pa.coeff(i, j)) - float(pb.coeff(i, j))) <= 1e-12
               for (i, j) in keys)


def _agrees(res, name, computed, expected, note=""):
    """An exact check, or in float mode, where any of the values is a
    float or a float-mode polynomial, agreement to 1e-12: a close check
    for a number, a check with ``note`` that holds coefficientwise for a
    polynomial or a tuple of polynomials and numbers."""
    values = ((*computed, *expected) if isinstance(computed, tuple)
              else (computed, expected))
    if not any(v.is_float if isinstance(v, Poly2) else isinstance(v, float)
               for v in values):
        res.exact(name, computed, expected)
    elif not isinstance(computed, (Poly2, tuple)):
        res.close(name, computed, expected, 1e-12)
    else:
        pairs = (zip(computed, expected) if isinstance(computed, tuple)
                 else [(computed, expected)])
        # Poly2() + v: a number as a constant polynomial
        res.holds(name, all(_polys_close(Poly2() + a, Poly2() + b)
                            for a, b in pairs), note=note)


def _inv_sqrt_6beta(beta):
    """1/sqrt(6*beta), exact when 6*beta is a rational square."""
    if not isinstance(beta, float):
        root = sqrt_fraction(6 * Fraction(beta))
        if root is not None:
            return 1 / root
    return 1.0 / math.sqrt(6.0 * float(beta))


def build_z_normalform(alpha, beta) -> NormalFormField:
    """Rescaled blow-up of build_z as a normal-form member.

    f1 = 1 + x^2/(27 b^2), f2 = 1, g1 = 1/3 + a x/(9 b^2) - x^2/(27 b^2),
    g2 = -1/sqrt(6 b), a = 1/sqrt(6 b), c = 1/3.  Exact when sqrt(6 beta)
    is rational, float mode otherwise.
    """
    if not (float(beta) > 0):
        raise ValueError("beta must be positive")
    s = _inv_sqrt_6beta(beta)
    num = float if isinstance(s, float) else Fraction
    alpha, beta, third = num(alpha), num(beta), num(1) / 3
    x, _y = Poly2.gens()
    b2 = beta * beta
    if not b2:
        raise ValueError(f"beta = {beta} is too small: beta**2 "
                         "underflows to 0")
    f1 = 1 + x * x * (1 / (27 * b2))
    g1 = Poly2.const(third) + x * (alpha / (9 * b2)) - x * x * (1 / (27 * b2))
    return NormalFormField(f1, Poly2.const(1), g1, Poly2.const(-s), s)


def z_gamma_closed(alpha, beta):
    """(gamma_plus, gamma_minus) = pi (alpha/(beta sqrt 3) -+ 1/sqrt(4 beta - 1))."""
    alpha, beta = float(alpha), float(beta)
    pv = math.pi * alpha / (beta * SQRT3)
    g0 = -math.pi / math.sqrt(4.0 * beta - 1.0)
    return pv + g0, pv - g0


def z_return_slope_closed(alpha, beta):
    return math.exp(2.0 * math.pi * float(alpha) / (float(beta) * SQRT3))


# -- cases ----------------------------------------------------------------------


def run_x4_chain(cfg: flow.IntegratorConfig | None = None) -> CaseResult:
    """Resolution chain of the n = 4 member and its transition slopes."""
    res = CaseResult("x4-chain", {"n": 4})
    u, v = Poly2.gens()

    x4 = build_xn(4)
    nf_raw = validate_and_build(x4)
    inv_raw = invariants(nf_raw)
    res.exact("raw_invariants", (inv_raw.a, inv_raw.b, inv_raw.c),
              (Fraction(2), Fraction(0), Fraction(0)))
    res.exact("raw_classification", classify(inv_raw).verdict,
              Verdict.BOUNDARY_INDETERMINATE,
              note="on the degenerate stratum d=0, a^2-b^2=4")

    stage1 = blow_up(x4, BlowupChart(ChartKind.X_DIR_SWAPPED, 1))
    y0_printed_p = (-(u + 1) ** 2 + u ** 3 * v ** 2) * u
    y0_printed_q = (u + 1) ** 2 * v
    res.exact("blowup_p", stage1.field.p, y0_printed_p)
    res.exact("blowup_q", stage1.field.q, y0_printed_q)

    y1 = pullback_affine(stage1.field, AffineMap2.translation(-1, 0))
    y1_printed = printed_y1()
    res.exact("translated_p", y1.p, y1_printed.p)
    res.exact("translated_q", y1.q, y1_printed.q)

    nf1 = validate_and_build(y1)
    inv1 = invariants(nf1)
    res.exact("translated_invariants", (inv1.a, inv1.b, inv1.c, inv1.d),
              (Fraction(0), Fraction(0), Fraction(0), Fraction(4)))
    res.exact("translated_classification", classify(inv1).verdict,
              Verdict.HYPERBOLIC_FAKE_SADDLE)

    sections = asymptotics.SectionPair(-1.0, 0.5)
    slope_formula = math.exp(asymptotics.gamma_pm(nf1, sections)[0])
    res.close("slope_formula", slope_formula, 4.0, 1e-8,
              note="log-derivative integral gives |(1-alpha)/(1-omega)|")
    est = flow.transition_slope(nf1, sections, "+", cfg=cfg)
    res.close("slope_measured", est.value, 4.0, 2e-8, relative=True)
    _bar_covers(res, "slope_measured", est, 4.0)
    # the depth exponent kappa of that Richardson step against the decay
    # of the slopes from starts a decade apart, (s0 - s1)/(s1 - s2) =
    # 10^kappa up to higher orders (0.99965; the - side reads the same)
    s0, s1, s2 = flow.transition_slope(nf1, sections, "+",
                                       offsets=(1e-4, 1e-5, 1e-6),
                                       cfg=cfg).per_offset
    d0, d1 = s0 - s1, s1 - s2
    res.close("depth_exponent", math.log10(d0 / d1) if d0 * d1 > 0
              else math.nan, min(1, 1 / (1 - inv1.c)), 1e-2,
              note="kappa = min(1, 1/(1 - c)) of the invariants, c = 0")

    # transit past the original origin: one contracting and one expanding side
    side = {}
    for sign in (+1.0, -1.0):
        traj = flow.integrate(x4, (-1.0, sign * 0.05),
                              flow.Stop.x_reaches(1.0), cfg=cfg,
                              param="arclength")
        xe, ye = traj.end
        side[sign] = ye / (sign * 0.05)
        res.holds(f"transit_exists_{'pos' if sign > 0 else 'neg'}",
                  xe == 1.0 and sign * ye > 0)
    res.holds("one_side_contracts_one_expands",
              (side[1.0] - 1.0) * (side[-1.0] - 1.0) < 0,
              note=f"slopes {side[1.0]:.4f} (y>0), {side[-1.0]:.4f} (y<0)")
    return res


def run_x3_script() -> CaseResult:
    """Scripted resolution of the n = 3 member down to its saddle-node.

    The second blow-up stage still has zero linear part, so the script
    runs one more quadratic chart; the saddle-node then sits at (0, 1)
    on the last divisor with spectrum {0, 2} and weak direction (2, 3),
    transverse to the divisor.  Conclusion: the origin of the n = 3
    member is not a fake saddle.
    """
    res = CaseResult("x3-script", {"n": 3})
    x3 = build_xn(3)
    stage1 = blow_up(x3, BlowupChart(ChartKind.X_DIR_SWAPPED, 1))
    u, v = Poly2.gens()
    res.exact("stage1_p", stage1.field.p, u * (u ** 2 * v - (1 + u) ** 2))
    res.exact("stage1_q", stage1.field.q, (1 + u) ** 2 * v)

    lp = linear_part(stage1.field, (Fraction(-1), Fraction(0)))
    res.exact("stage1_degenerate_point_linear_part", lp,
              ((Fraction(0), Fraction(-1)), (Fraction(0), Fraction(0))),
              note="nilpotent at (u, v) = (-1, 0)")

    shifted = pullback_affine(stage1.field, AffineMap2.translation(-1, 0))
    stage2 = blow_up(shifted, BlowupChart(ChartKind.X_DIR, 0))
    lp2 = linear_part(stage2.field, (Fraction(0), Fraction(0)))
    res.exact("stage2_origin_linear_part", lp2,
              ((Fraction(0),) * 2, (Fraction(0),) * 2),
              note="still fully degenerate; a third chart is needed")

    stage3 = blow_up(stage2.field, BlowupChart(ChartKind.X_DIR, 1))
    if stage3.v_factor is None:
        raise AssertionError("stage-3 field is not tangent to its divisor: "
                             "Q is not divisible by v")
    onset = stage3.v_factor.restrict_x0()
    res.exact("stage3_divisor_roots", tuple(onset), (Fraction(-2), Fraction(2)),
              note="singular points at m = 0 and m = 1 on the divisor")

    a_mat = linear_part(stage3.field, (Fraction(0), Fraction(1)))
    res.exact("saddle_node_linear_part", a_mat,
              ((Fraction(0), Fraction(0)), (Fraction(-3), Fraction(2))))
    trace = a_mat[0][0] + a_mat[1][1]
    det = a_mat[0][0] * a_mat[1][1] - a_mat[0][1] * a_mat[1][0]
    res.holds("exactly_one_zero_eigenvalue", det == 0 and trace != 0,
              note=f"spectrum {{0, {trace}}}")
    # kernel of [[0,0],[-3,2]] is spanned by (2, 3): weak direction
    res.holds("weak_direction_transverse_to_divisor",
              a_mat[1][0] != 0,
              note="weak eigendirection (2, 3) has nonzero divisor component")
    res.exact("companion_saddle_linear_part",
              linear_part(stage3.field, (Fraction(0), Fraction(0))),
              ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-2))))

    # the same script applied to n = 4 meets a fake saddle instead
    x4 = build_xn(4)
    s1 = blow_up(x4, BlowupChart(ChartKind.X_DIR_SWAPPED, 1))
    y1 = pullback_affine(s1.field, AffineMap2.translation(-1, 0))
    res.exact("n4_contrast_no_saddle_node",
              classify(invariants(validate_and_build(y1))).verdict,
              Verdict.HYPERBOLIC_FAKE_SADDLE)
    return res


def run_example6_case(cfg: flow.IntegratorConfig | None = None) -> CaseResult:
    """The (1, -1, -1) quadratic field: exponents, slopes, first integral."""
    res = CaseResult("example6", {"a": 1, "b": -1, "c": -1})
    nf = build_example6(Fraction(1), Fraction(-1), Fraction(-1))
    inv = invariants(nf)
    res.exact("invariants_d", inv.d, Fraction(4))
    cls = classify(inv)
    res.exact("classification", cls.verdict, Verdict.HYPERBOLIC_FAKE_SADDLE)
    res.exact("hyperbolicity_ratio", cls.ratio, Fraction(2))

    sections = asymptotics.SectionPair(-1.0, 1.0)
    report = asymptotics.transition_report(nf, sections)
    res.close("pv", report.pv, 0.0, 1e-10,
              note="odd integrand on symmetric sections")
    res.close("gamma_plus", report.gamma_plus, -math.pi, 1e-10)
    res.close("gamma_minus", report.gamma_minus, math.pi, 1e-10)
    res.close("delta00_via_L", report.delta00_via_L, math.exp(-math.pi),
              1e-7, relative=True)

    h_fn = example6_first_integral()
    for side, expected in (("+", math.exp(-math.pi)), ("-", math.exp(math.pi))):
        est = flow.transition_slope(nf, sections, side, cfg=cfg)
        name = f"slope_measured_{'pos' if side == '+' else 'neg'}"
        res.close(name, est.value, expected, 2e-8, relative=True)
        _bar_covers(res, name, est, expected)
    res.holds("contractive_for_positive_y", report.gamma_plus < 0,
              note="measured slopes support gamma_plus = -pi on y > 0")

    fld = nf.field()
    for y0 in (0.3, 0.05):
        drift = _drift_along_transit(fld, h_fn, y0, cfg)
        res.close(f"first_integral_drift_y0_{y0}", drift, 0.0, 1e-6)

    probe = flow.monodromy_probe(fld, box=2.0)
    res.exact("monodromy_probe", probe, flow.ProbeVerdict.TRANSIT,
              note="two hyperbolic sectors, orbits sweep past")
    return res


def _drift_along_transit(fld, h_fn, y0, cfg=None):
    """Drift of the first integral along the graph orbit from (-1, y0) to
    x = 1 in steps of at most min(0.01, y0/4); BranchTrackingFailed
    propagates."""
    traj = flow.integrate(fld, (-1.0, y0), flow.Stop.x_reaches(1.0),
                          cfg=replace(cfg or flow.IntegratorConfig(),
                                      max_step=min(0.01, y0 / 4.0)),
                          param="graph")
    return flow.conservation_check(h_fn, traj, branch_quantum=2.0 * math.pi)


def run_z_chain(alpha, beta, cfg: flow.IntegratorConfig | None = None,
                with_probe: bool = True, with_return: bool = True) -> CaseResult:
    """Blow-up, rescaling, exponents and return map of the quartic family."""
    res = CaseResult("z-chain", {"alpha": alpha, "beta": beta})
    alpha_q, beta_q = _coerce(alpha), _coerce(beta)

    z = build_z(alpha_q, beta_q)
    stage = blow_up(z, BlowupChart(ChartKind.X_DIR_SWAPPED, 2))
    printed = printed_z_blowup(alpha_q, beta_q)
    for name, got, want in (("blowup_p", stage.field.p, printed.p),
                            ("blowup_q", stage.field.q, printed.q)):
        _agrees(res, name, got, want, "float parameters, tol 1e-12")

    s = _inv_sqrt_6beta(beta_q)
    scale = AffineMap2.scaling(
        (Fraction(1) if not isinstance(s, float) else 1.0) / (3 * beta_q), s)
    x_mu = pullback_affine(stage.field, scale)
    nf_direct = build_z_normalform(alpha_q, beta_q)
    nf_chain = validate_and_build(x_mu)
    _agrees(res, "rescaled_matches_direct",
            (nf_chain.f1, nf_chain.f2, nf_chain.g1, nf_chain.g2, nf_chain.a),
            (nf_direct.f1, nf_direct.f2, nf_direct.g1, nf_direct.g2,
             nf_direct.a),
            "float mode (irrational rescale), tol 1e-12")

    inv = invariants(nf_direct)
    # a float beta_q rounds as 2.0 / 3.0 * (4.0 - 1.0 / beta_q): Fraction
    # times float is float(Fraction(2, 3)) times it
    _agrees(res, "d_closed_form", inv.d, Fraction(2, 3) * (4 - 1 / beta_q))

    monodromic = float(beta_q) > 0.25
    res.exact("classifier_monodromy",
              classify(inv).verdict is Verdict.HYPERBOLIC_FAKE_SADDLE,
              monodromic)
    zf = build_z(float(alpha_q), float(beta_q))  # probed and returned alike
    if with_probe:
        probe = flow.monodromy_probe(zf, box=10.0, ring_radius=1e-8)
        res.exact("probe_monodromy",
                  probe is flow.ProbeVerdict.MONODROMIC, monodromic)

    if monodromic:
        gp, gm = asymptotics.gamma_pm(nf_direct, None)
        gp_c, gm_c = z_gamma_closed(alpha_q, beta_q)
        res.close("gamma_plus_infinite", gp, gp_c, 1e-12)
        res.close("gamma_minus_infinite", gm, gm_c, 1e-12)

    if monodromic and with_return:
        est = flow.return_slope(zf, cfg=cfg)
        expected = z_return_slope_closed(alpha_q, beta_q)
        if alpha_q == 0:
            res.close("center_return_slope", est.value, 1.0, 1.5e-7,
                      note="reversible field, every return closes")
            _bar_covers(res, "center_return_slope", est, 1.0)
        else:
            res.close("return_slope", est.value, expected, 5e-8, relative=True)
            _bar_covers(res, "return_slope", est, expected)
            res.close("composition_of_transitions", est.value,
                      math.exp(gp + gm), 5e-8, relative=True,
                      note="return map = product of the two one-sided passes")
    return res


def run_z_composite(cfg: flow.IntegratorConfig | None = None) -> CaseResult:
    """Registry entry: one full chain plus the monodromy flip and center."""
    res = CaseResult("z-chain", {"alpha": 1, "beta": 1})
    for sub in (run_z_chain(1, 1, cfg=cfg),
                run_z_chain(-1, 1, cfg=cfg, with_probe=False),
                run_z_chain(0, 1, cfg=cfg, with_probe=False),
                run_z_chain(1, Fraction(1, 6), cfg=cfg, with_probe=False),
                run_z_chain(1, Fraction(1, 5), cfg=cfg),
                run_z_chain(1, Fraction(3, 10), cfg=cfg, with_return=False)):
        tag = f"a{sub.inputs['alpha']}_b{sub.inputs['beta']}"
        for check in sub.checks:
            check.name = f"{tag}/{check.name}"
            res.checks.append(check)
    return res


CASES = {
    "x4-chain": run_x4_chain,
    "x3-script": lambda cfg: run_x3_script(),  # exact algebra, no integrator
    "example6": run_example6_case,
    "z-chain": run_z_composite,
}


def run_case(case_id: str, cfg: flow.IntegratorConfig | None = None) -> CaseResult:
    if case_id not in CASES:
        raise KeyError(f"unknown case id {case_id!r}; known: {sorted(CASES)}")
    return CASES[case_id](cfg=cfg)


def dump_results(results: List[CaseResult], path) -> None:
    with open(path, "w") as fh:
        json.dump([r.to_json() for r in results], fh, indent=2)
