"""Seeded inputs, items and correctness gates of the four benchmark workloads.

An item is one generated input put through the public calls of its
workload.  Items call the library only through the ``calls`` table (see
spans.py), so the same item code runs traced and untraced.  Every item
fills an Outcome: gates that did not hold, the deviation of each measured
quantity from its reference, and whether each measured slope's reported
residual bounds its deviation from the closed form.

The library arrives as a namespace of freshly imported modules (``lib``)
instead of module-level imports, because the benchmark re-imports the
package for every set-up it times.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

# Gate tolerances.  Each is the bound the library already states for the
# same comparison in its tests or casebook.
DELTA00_REL_TOL = 1e-7   # acceptance criterion 4, casebook example6
PV_ABS_TOL = 1e-8        # acceptance criterion 3
SLOPE_REL_TOL = 0.04     # loosest casebook transition-slope tolerance
GAMMA_ABS_TOL = 1e-8     # casebook z-chain gamma at infinity
RETURN_REL_TOL = 0.02    # casebook z-chain return slope
FLOAT_RESCALE_TOL = 1e-12  # casebook z-chain, irrational rescale

TRANSIT_Y0 = 1e-4


@dataclass
class Outcome:
    """What one item produced, as seen by its gates.

    ``algebra_failures`` are zero-tolerance checks of the exact layers;
    ``failures`` are numeric gates that did not hold and exceptions
    raised.  Either kind fails the item.
    """

    failures: List[str] = field(default_factory=list)
    algebra_failures: List[str] = field(default_factory=list)
    deviations: List[float] = field(default_factory=list)
    bars: List[bool] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures or self.algebra_failures)


# -- gates -----------------------------------------------------------------------


def check_exact(out: Outcome, name: str, holds: bool) -> None:
    if not holds:
        out.algebra_failures.append(name)


def check_close(out: Outcome, name: str, measured: float, reference: float,
                tol: float, relative: bool, record: bool = True) -> float:
    """Gate |measured - reference| (divided by |reference| when relative)."""
    dev = abs(measured - reference)
    if relative:
        dev /= abs(reference)
    if not math.isfinite(dev):
        dev = math.inf
    if not dev <= tol:
        out.failures.append(f"{name}: {measured!r} vs {reference!r} "
                            f"(deviation {dev:.3g} > {tol:g})")
    if record:
        out.deviations.append(dev)
    return dev


def check_slope(out: Outcome, name: str, value: float, residual: float,
                closed: float, tol: float) -> None:
    """Relative slope gate plus the error-bar coverage record."""
    check_close(out, name, value, closed, tol, relative=True)
    out.bars.append(residual >= abs(value - closed))


def transit_gate(out: Outcome, slopes, y0: float, y_end: float) -> None:
    """slopes: (side, value, residual, closed) for each measured side;
    y_end: where the orbit from y0 met the far section."""
    for side, value, residual, closed in slopes:
        check_slope(out, f"transition_slope{side}", value, residual, closed,
                    SLOPE_REL_TOL)
    if not y_end * y0 > 0:  # y = 0 is invariant: no orbit may cross it
        out.failures.append(f"integrate: orbit from y0={y0!r} ended at "
                            f"y={y_end!r}, across the invariant line y = 0")


def z_gate(out: Outcome, monodromic: bool, gamma, gamma_closed,
           slope_value: float, slope_residual: float,
           slope_closed: float) -> None:
    if not monodromic:
        out.failures.append("monodromy_probe: not MONODROMIC")
    for name, g, g_c in zip(("gamma_plus", "gamma_minus"), gamma, gamma_closed):
        check_close(out, name, g, g_c, GAMMA_ABS_TOL, relative=False,
                    record=False)
    check_slope(out, "return_slope", slope_value, slope_residual,
                slope_closed, RETURN_REL_TOL)


# -- seeded inputs -----------------------------------------------------------------
#
# Members follow the distribution of the test suite's random_normal_form:
# f1 and f2 have constant term 1 and at most three x-profile coefficients
# of size at most 1/4, so f1(x, 0) > 0 on [-1, 1] by construction.  The
# draw order matches it too.  Members are never filtered on their outcome.


def _frac(rng, lo=-8, hi=8, den=16):
    return Fraction(rng.randint(lo, hi), den)


def _invariant_triple(rng, d_positive):
    while True:
        a = Fraction(rng.randint(-24, 24), 16)
        b = Fraction(rng.randint(-24, 24), 16)
        c = Fraction(rng.randint(-24, 12), 16)
        d = 4 * (1 - c) - (a - b) ** 2
        if not d_positive or d > Fraction(1, 25):
            return a, b, c


def normal_form_member(lib, rng, d_positive):
    Poly2 = lib.polyfield.Poly2
    a, b, c = _invariant_triple(rng, d_positive)
    x, y = Poly2.gens()
    f1 = Poly2.const(1)
    for k in (1, 2, 3):
        f1 = f1 + x ** k * Fraction(rng.randint(-4, 4), 16)
    f1 = f1 + x * y * _frac(rng) + y ** 2 * _frac(rng)
    f2 = Poly2.const(1) + x * _frac(rng) + y * _frac(rng)
    g1 = Poly2.const(c)
    for k in (1, 2):
        g1 = g1 + x ** k * _frac(rng)
    g1 = g1 + y * _frac(rng) + x * y * _frac(rng)
    g2 = Poly2.const(b) + Poly2.from_univariate([0, _frac(rng), _frac(rng)],
                                                var=1)
    return lib.normalform.NormalFormField(f1, f2, g1, g2, a)


def section_pair(lib, rng):
    """Finite sections inside [-1, 1], each at least 1/4 from the fiber."""
    return lib.asymptotics.SectionPair(-rng.randint(4, 16) / 16,
                                       rng.randint(4, 16) / 16)


def z_parameters(rng, count) -> List[Tuple[Fraction, Fraction]]:
    """``count`` rational (alpha, beta), beta in (1/4, 2], alpha in [-1, 1].

    Both ranges of the 1/16 grid are cut into ``count`` strata, and beta
    stratum i is paired with alpha stratum 5 i mod count, a fixed lattice
    over the parameter square; the seed picks the point inside each cell.
    Items cost 0.5-2 s and the pool is small, so a seeded pairing would
    make the cost of a pass vary with the seed.  Ordered by beta.
    """
    def strata(lo, hi):
        n = hi - lo + 1
        return [rng.randint(lo + n * s // count, lo + n * (s + 1) // count - 1)
                for s in range(count)]

    betas = strata(5, 32)
    alphas = strata(-16, 16)
    return [(Fraction(alphas[5 * i % count], 16), Fraction(k, 16))
            for i, k in enumerate(betas)]


def _example6(lib):
    return lib.casebook.build_example6(Fraction(1), Fraction(-1), Fraction(-1))


def _unit_sections(lib):
    return lib.asymptotics.SectionPair(-1.0, 1.0)


# -- items ---------------------------------------------------------------------------


def closed_sweep_item(lib, calls, inp, out: Outcome) -> None:
    nf, sections = inp
    fld = calls["normalform.field"](nf)
    back = calls["polyfield.json_roundtrip"](fld)
    check_exact(out, "field JSON round trip", back == fld)
    nf2 = calls["normalform.validate_and_build"](back)
    check_exact(out, "validate_and_build round trip", nf2 == nf)
    inv = calls["normalform.invariants"](nf2)
    verdict = calls["normalform.classify"](inv).verdict
    check_exact(out, "verdict hyperbolic",
                verdict is lib.normalform.Verdict.HYPERBOLIC_FAKE_SADDLE)
    report = calls["blowup.divisor_report"](nf2)
    check_exact(out, "divisor discriminant == -d", report.discriminant == -inv.d)
    sd = calls["blowup.saddle_data"](nf2)
    bu = lib.blowup
    check_exact(out, "r21_minus closed form",
                sd.r21_minus.equals(bu.closed_r21_minus(inv.a, inv.b, inv.c)))
    check_exact(out, "r12_plus closed form",
                sd.r12_plus.equals(bu.closed_r12_plus(inv.a, inv.b, inv.c)))
    check_exact(out, "r12_minus closed form",
                sd.r12_minus.equals(sd.r12_minus_closed))
    check_exact(out, "r21_plus closed form",
                sd.r21_plus.equals(sd.r21_plus_closed))
    tr = calls["asymptotics.transition_report"](nf2, sections)
    check_close(out, "delta00_via_L", tr.delta00_via_L, tr.delta00_closed,
                DELTA00_REL_TOL, relative=True)


def pv_oracle_item(lib, calls, inp, out: Outcome) -> None:
    nf, sections = inp
    pv = calls["asymptotics.pv_integral"](nf, sections)
    oracle = calls["asymptotics.pv_integral_eps_oracle"](nf, sections)
    check_close(out, "pv vs oracle", pv, oracle, PV_ABS_TOL, relative=False)


def transit_item(lib, calls, inp, out: Outcome) -> None:
    nf, sections, y0 = inp
    inv = calls["normalform.invariants"](nf)
    verdict = calls["normalform.classify"](inv).verdict
    check_exact(out, "verdict hyperbolic",
                verdict is lib.normalform.Verdict.HYPERBOLIC_FAKE_SADDLE)
    gammas = calls["asymptotics.gamma_pm"](nf, sections)
    slopes = []
    for side, gamma in zip("+-", gammas):
        est = calls["flow.transition_slope"](nf, sections, side)
        slopes.append((side, est.value, est.residual, math.exp(gamma)))
    fld = calls["normalform.field"](nf)
    traj = calls["flow.integrate"](fld, (sections.alpha, y0),
                                   lib.flow.Stop.x_reaches(sections.omega),
                                   param="graph")
    transit_gate(out, slopes, y0, traj.end[1])


def _normal_forms_agree(cb, chain, direct) -> bool:
    """The comparison casebook.run_z_chain makes: exact, or within its
    float tolerance when the rescale is irrational."""
    pairs = ((chain.f1, direct.f1), (chain.f2, direct.f2),
             (chain.g1, direct.g1), (chain.g2, direct.g2))
    if not (chain.is_float or direct.is_float):
        return all(p == q for p, q in pairs) and chain.a == direct.a
    return (all(cb._polys_close(p, q) for p, q in pairs)
            and abs(float(chain.a) - float(direct.a)) < FLOAT_RESCALE_TOL)


def z_family_item(lib, calls, inp, out: Outcome) -> None:
    """The calls of casebook.run_z_chain on one monodromic (alpha, beta)."""
    alpha, beta = inp
    bu, cb = lib.blowup, lib.casebook
    z = calls["casebook.build_z"](alpha, beta)
    stage = calls["blowup.blow_up"](
        z, bu.BlowupChart(bu.ChartKind.X_DIR_SWAPPED, 2))
    s = cb._inv_sqrt_6beta(beta)
    one = Fraction(1) if isinstance(s, Fraction) else 1.0
    x_mu = calls["polyfield.pullback_affine"](
        stage.field, lib.polyfield.AffineMap2.scaling(one / (3 * beta), s))
    nf_chain = calls["normalform.validate_and_build"](x_mu)
    verdict = calls["normalform.classify"](
        calls["normalform.invariants"](nf_chain)).verdict
    check_exact(out, "verdict hyperbolic (beta > 1/4)",
                verdict is lib.normalform.Verdict.HYPERBOLIC_FAKE_SADDLE)
    nf_direct = calls["casebook.build_z_normalform"](alpha, beta)
    check_exact(out, "rescaled chain matches direct normal form",
                _normal_forms_agree(cb, nf_chain, nf_direct))
    gamma = calls["asymptotics.gamma_pm_infinite"](nf_direct)
    zf = calls["casebook.build_z"](float(alpha), float(beta))
    probe = calls["flow.monodromy_probe"](zf, box=10.0, ring_radius=1e-8)
    est = calls["flow.return_slope"](zf)
    z_gate(out, probe is lib.flow.ProbeVerdict.MONODROMIC, gamma,
           cb.z_gamma_closed(alpha, beta), est.value, est.residual,
           cb.z_return_slope_closed(alpha, beta))


# -- registry ------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pool_size: int
    # Comparisons an item pools into the accuracy figure; an item that
    # raises or is stopped counts each missing one as an infinite deviation.
    comparisons: int
    # Reference-speed seconds after which an item is stopped and fails, or
    # None.  Only transit has shown members on which the library grinds.
    deadline_s: Optional[float]
    generate: Callable[[object, random.Random, int], list]
    item: Callable[[object, dict, object, Outcome], None]
    reference: Callable[[object], object]  # casebook input the gates must pass


WORKLOADS = {w.name: w for w in (
    Workload(
        "closed-sweep",
        "parameter sweep through the exact layers: Fraction blow-up algebra, "
        "classification and the regularized transition quadrature; flow idle",
        192, 1, None,
        lambda lib, rng, n: [(normal_form_member(lib, rng, True),
                              section_pair(lib, rng)) for _ in range(n)],
        closed_sweep_item,
        lambda lib: (_example6(lib), _unit_sections(lib))),
    Workload(
        "pv-oracle",
        "same quadrature layer used differently: adaptive Simpson on the "
        "1/x-singular raw integrand of the epsilon oracle, d unfiltered",
        128, 1, None,
        lambda lib, rng, n: [(normal_form_member(lib, rng, False),
                              section_pair(lib, rng)) for _ in range(n)],
        pv_oracle_item,
        lambda lib: (_example6(lib), _unit_sections(lib))),
    Workload(
        "transit",
        "1-D graph-over-x RK5(4) integration with arclength fallback and "
        "slope extrapolation, checked against exp(gamma_pm); algebra idle",
        256, 2, 0.25,
        lambda lib, rng, n: [(normal_form_member(lib, rng, True),
                              section_pair(lib, rng),
                              rng.choice((TRANSIT_Y0, -TRANSIT_Y0)))
                             for _ in range(n)],
        transit_item,
        lambda lib: (_example6(lib), _unit_sections(lib), TRANSIT_Y0)),
    Workload(
        "z-family",
        "2-D time-parametrized RK5(4) with winding, event bisection and "
        "rebasing: monodromy probe and return map of the quartic family",
        14, 1, None,
        lambda lib, rng, n: z_parameters(rng, n),
        z_family_item,
        lambda lib: (Fraction(1), Fraction(1))),
)}
