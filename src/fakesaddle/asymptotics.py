"""Closed-form transition-map asymptotics across the singular fiber.

For a hyperbolic fake saddle the transition map between the sections
{x = alpha} and {x = omega} is linear to leading order,
Pi(y) = exp(gamma_pm) * y + o(y), with

    gamma_pm = PV int_alpha^omega g1(x,0) / (x f1(x,0)) dx
               +- pi (2 b - c (a + b)) / sqrt(d).

The principal value is computed through its convergent regularization

    PV = c log|omega/alpha| + int (g1/f1 - c) dx / x,

whose integrand is a plain rational function here: with exact
coefficients (g1 - c f1)(x, 0) vanishes at 0 and the x is divided out
symbolically, so no principal-value tricks are needed inside the
quadrature engine.  This integrand, the divisor-side L-integrands and
the folded integrand of sections at infinity (whose half-line [1, inf)
x = 1/u maps onto [0, 1]) are all analytic on bounded ranges and are
integrated by adaptive Gauss-Kronrod G7K15 (``gk15_quad``), which
converges geometrically on them; each interval is integrated once, and
nothing is truncated or extrapolated.

An independent brute-force epsilon-limit oracle and a second route to
the leading coefficient through the directional saddles' L-integrals
cross-validate every value.  The oracle keeps the raw integrand
g1/(x f1) and integrates it in s = log|x| (x = +-e^s), where it tends to
+-c near the origin; its epsilon sequence is covered by telescoping
shells, each integrated once, with adaptive Simpson (``adaptive_quad``),
so that it differs from the main route in its rule as well as in its
integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import _univariate as u1
from .normalform import (Invariants, NormalFormField,
                         NotHyperbolicFakeSaddle, invariants)

QUAD_ABS_TOL = 1e-10
QUAD_MAX_EVALS = 10 ** 6
ORACLE_ABS_TOL = 1e-12  # per piece of the epsilon oracle


class SectionInvalid(Exception):
    """Sections out of order or f1(x,0) not positive between them."""


class QuadratureNonConvergent(Exception):
    """Adaptive quadrature exhausted its evaluation budget."""


class IntegrandSingularOnPath(Exception):
    """An L-integrand denominator vanishes on the integration range."""


class TailNotIntegrable(Exception):
    """Symmetric principal value at infinity does not exist."""


@dataclass(frozen=True)
class SectionPair:
    """Transverse sections {x = alpha} and {x = omega}, finite, alpha < 0
    < omega."""

    alpha: float
    omega: float

    def __post_init__(self):
        if not (-math.inf < self.alpha < 0 < self.omega < math.inf):
            raise SectionInvalid(
                f"need -inf < alpha < 0 < omega < inf, got ({self.alpha}, "
                f"{self.omega})")


@dataclass(frozen=True)
class TransitionReport:
    """Every intermediate of the transition computation, for audit."""

    pv: float
    gamma0: float
    gamma_plus: float
    gamma_minus: float
    delta00_closed: float
    delta00_via_L: float | None
    quadrature_error_estimates: Tuple[float, ...]

    def to_json(self) -> dict:
        return {"pv": self.pv, "gamma0": self.gamma0,
                "gamma_plus": self.gamma_plus, "gamma_minus": self.gamma_minus,
                "delta00_closed": self.delta00_closed,
                "delta00_via_L": self.delta00_via_L,
                "quadrature_error_estimates":
                    list(self.quadrature_error_estimates)}


# -- quadrature engine ---------------------------------------------------------


# QUADPACK qk15 (Piessens et al., 1983): the Kronrod nodes in (0, 1) from
# the outside in, their weights, and the 7-point Gauss weights of the odd
# nodes; the centre node 0 carries _WGK0 and _WG0.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_WG = (0.0, 0.129484966168869693270611432679082,
       0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0)
_WGK0 = 0.209482141084727828012999174891714
_WG0 = 0.417959183673469387755102040816327
_GK15 = tuple(zip(_XGK, _WGK, _WG))


def gk15_quad(f: Callable[[float], float], a: float, b: float,
              abs_tol: float = QUAD_ABS_TOL) -> Tuple[float, float]:
    """Adaptive Gauss-Kronrod G7K15 integral of f over the oriented [a, b].

    A panel is accepted when |K15 - G7| is within its tolerance (or at
    bisection depth 54); otherwise it is halved and each half gets half
    the tolerance.  Returns (value, error estimate), the estimate being
    the sum of the accepted panels' |K15 - G7|.  Raises
    QuadratureNonConvergent past the module's cap ``QUAD_MAX_EVALS`` on
    evaluations, or at once on a non-finite panel, which no bisection
    can mend.
    """
    if a == b:
        return 0.0, 0.0
    stack = [(a, b, abs_tol, 0)]
    total = 0.0
    err_total = 0.0
    evals = 0
    while stack:
        a0, b0, tol, depth = stack.pop()
        evals += 15
        if evals > QUAD_MAX_EVALS:
            raise QuadratureNonConvergent(
                f"more than {QUAD_MAX_EVALS} evaluations on [{a}, {b}]")
        mid = 0.5 * (a0 + b0)
        half = 0.5 * (b0 - a0)
        fc = f(mid)
        kronrod = _WGK0 * fc
        gauss = _WG0 * fc
        for x, wk, wg in _GK15:
            dx = half * x
            pair = f(mid - dx) + f(mid + dx)
            kronrod += wk * pair
            gauss += wg * pair
        err = abs(half * (kronrod - gauss))
        if not math.isfinite(err):
            raise QuadratureNonConvergent(
                f"non-finite integrand on [{a0}, {b0}]")
        if err <= tol or depth >= 54:
            total += half * kronrod
            err_total += err
        else:
            stack.append((a0, mid, tol / 2.0, depth + 1))
            stack.append((mid, b0, tol / 2.0, depth + 1))
    return total, err_total


def adaptive_quad(f: Callable[[float], float], a: float, b: float,
                  abs_tol: float = QUAD_ABS_TOL) -> Tuple[float, float]:
    """Adaptive Simpson integral of f over the oriented interval [a, b].

    Nested interval-doubling refinement with Richardson correction;
    returns (value, error estimate).  Raises QuadratureNonConvergent
    past the module's cap ``QUAD_MAX_EVALS`` on evaluations.  This is the
    independent rule of the epsilon oracle; every other integral goes
    through ``gk15_quad``.
    """
    if a == b:
        return 0.0, 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    evals = 3
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    stack = [(a, b, fa, fm, fb, whole, abs_tol, 0)]
    total = 0.0
    err_total = 0.0
    while stack:
        a0, b0, fa0, fm0, fb0, s0, tol, depth = stack.pop()
        m0 = 0.5 * (a0 + b0)
        lm, rm = 0.5 * (a0 + m0), 0.5 * (m0 + b0)
        flm, frm = f(lm), f(rm)
        evals += 2
        if evals > QUAD_MAX_EVALS:
            raise QuadratureNonConvergent(
                f"more than {QUAD_MAX_EVALS} evaluations on [{a}, {b}]")
        sl = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        sr = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
        delta = sl + sr - s0
        if abs(delta) <= 15.0 * tol or depth >= 54:
            total += sl + sr + delta / 15.0
            err_total += abs(delta) / 15.0
        else:
            stack.append((a0, m0, fa0, flm, fm0, sl, tol / 2.0, depth + 1))
            stack.append((m0, b0, fm0, frm, fb0, sr, tol / 2.0, depth + 1))
    return total, err_total


def _ratio_fn(num: Sequence, den: Sequence) -> Callable[[float], float]:
    nc = tuple(float(c) for c in reversed(list(num))) or (0.0,)
    dc = tuple(float(c) for c in reversed(list(den)))

    def f(t: float) -> float:
        n = 0.0
        for c in nc:
            n = n * t + c
        d = 0.0
        for c in dc:
            d = d * t + c
        return n / d

    return f


# -- section checks and the regularized integrand ------------------------------


def _f1_g1_profiles(nf: NormalFormField):
    f1x = nf.f1.restrict_y0()
    g1x = nf.g1.restrict_y0()
    if not f1x:
        raise SectionInvalid("f1(x, 0) is identically zero")
    if not g1x:
        g1x = [Fraction(0)] if not nf.is_float else [0.0]
    return f1x, g1x


def validate_sections(nf: NormalFormField, sections: SectionPair) -> None:
    """Check f1(x,0) > 0 on [alpha, omega] by exact Sturm root counting,
    for rational and float coefficients alike."""
    f1x, _ = _f1_g1_profiles(nf)
    if not u1.positive_on_interval(f1x, sections.alpha, sections.omega):
        raise SectionInvalid(
            f"f1(x,0) is not positive on [{sections.alpha}, {sections.omega}]")


def _regularized_integrand(nf: NormalFormField):
    """(g1/f1 - c)/x as the rational function m(x)/f1(x,0) plus c.

    m is (g1 - c f1)(x, 0) with its exactly-zero constant term divided
    out, so the integrand has no singularity at 0 at all.
    """
    f1x, g1x = _f1_g1_profiles(nf)
    c = g1x[0]
    n = u1.sub_(list(g1x), u1.scale(list(f1x), c))
    if n and n[0] != 0:
        if abs(float(n[0])) > 1e-12:
            raise SectionInvalid("g1 - c*f1 does not vanish at the origin")
        n[0] = 0
    m = n[1:] if n else []
    return _ratio_fn(m, f1x), c


def pv_integral(nf: NormalFormField, sections: SectionPair) -> float:
    """Principal value of int g1(x,0) / (x f1(x,0)) dx over the sections."""
    validate_sections(nf, sections)
    value, _err = _pv_integral_with_err(_regularized_integrand(nf), sections,
                                        QUAD_ABS_TOL)
    return value


def _pv_integral_with_err(regularized, sections, abs_tol):
    """(PV, error estimate) from ``_regularized_integrand``; unchecked."""
    h, c = regularized
    val, err = gk15_quad(h, sections.alpha, sections.omega, abs_tol)
    return float(c) * math.log(sections.omega / -sections.alpha) + val, err


def richardson_step(values: Sequence[float],
                    ratios: Sequence[float]) -> List[float]:
    """One Richardson step on each pair of consecutive values,
    (q v_(i+1) - v_i)/(q - 1), where q is the pair's ratio of the
    remainders of v_i and v_(i+1)."""
    return [(q * v1 - v0) / (q - 1.0)
            for v0, v1, q in zip(values, values[1:], ratios)]


def _richardson(values: Sequence[float], ratio: float) -> float:
    """The corner of the Richardson table for values at geometrically
    shrinking steps: its column m is ``richardson_step`` of column m - 1
    with the ratio ratio^m for every pair."""
    column = list(values)
    for m in range(1, len(column)):
        column = richardson_step(column, [ratio ** m] * (len(column) - 1))
    return column[0]


def pv_integral_eps_oracle(nf: NormalFormField,
                           sections: SectionPair) -> float:
    """Brute-force symmetric-epsilon limit of the raw integrand.

    Integrates the raw g1 / (x f1), with no regularization, on
    [alpha, -eps] and [eps, omega] for eps = base * 10^-k, k = 0..4, and
    extrapolates the limit (Richardson in log eps).  Each side is
    integrated in s = log|x|, where the integrand raw(+-e^s) e^s tends to
    the constant +-c instead of blowing up like 1/x; and each piece is
    integrated once: the outer ranges for the first eps, then only the
    shells [log eps_k, log eps_(k-1)] on each side, added to a running
    sum.  Serves as the independence oracle for pv_integral.
    """
    validate_sections(nf, sections)
    f1x, g1x = _f1_g1_profiles(nf)
    raw = _ratio_fn(g1x, [0] + list(f1x))  # g1(x,0) / (x f1(x,0))

    def f_right(s: float) -> float:
        x = math.exp(s)
        return raw(x) * x

    def f_left(s: float) -> float:  # int_alpha^-eps raw dx, x = -e^s
        x = math.exp(s)
        return raw(-x) * x

    def pieces(lo: float, hi_right: float, hi_left: float) -> float:
        return (adaptive_quad(f_right, lo, hi_right, ORACLE_ABS_TOL)[0]
                + adaptive_quad(f_left, lo, hi_left, ORACLE_ABS_TOL)[0])

    base = min(1e-2, min(-sections.alpha, sections.omega) / 4.0)
    logs = [math.log(base * 10.0 ** (-k)) for k in range(5)]
    total = pieces(logs[0], math.log(sections.omega),
                   math.log(-sections.alpha))
    vals = [total]
    for lo, hi in zip(logs[1:], logs):
        total += pieces(lo, hi, hi)
        vals.append(total)
    return _richardson(vals, 10.0)


def pv_integral_sym_infinite(nf: NormalFormField) -> float:
    """Symmetric principal value over the whole line, sections at infinity.

    Requires the profile g1(x,0)/f1(x,0) to be a degree-matched rational
    function (bounded at infinity) with f1 positive on the line.  The
    integral is folded to [0, inf), where the integrand is the even
    rational function E = [G(x) - G(-x)]/x = m/d with d = f1(x) f1(-x);
    deg g1 <= deg f1 makes E decay like x^-gap, gap = deg d - deg m >= 2.
    [0, 1] is integrated as it is and [1, inf) through x = 1/u (QUADPACK's
    qagi map), where E(1/u)/u^2 = u^(gap-2) m*(u)/d*(u) with the reversed
    polynomials m*, d*, and d*(0) > 0: two bounded G7K15 integrals, with
    no truncation.  Raises TailNotIntegrable when gap < 2, which only the
    underflow of float coefficients can bring about, and ValueError when
    a coefficient of m or d, or the principal value, overflows.
    """
    f1x, g1x = _f1_g1_profiles(nf)
    if u1.degree(list(g1x)) > u1.degree(list(f1x)):
        raise TailNotIntegrable(
            "g1(x,0)/f1(x,0) grows at infinity; no symmetric principal value")
    if not u1.positive_on_interval(f1x, None, None):
        raise SectionInvalid("f1(x,0) is not positive on the real line")

    f_neg = u1.negate_var(list(f1x))
    g_neg = u1.negate_var(list(g1x))
    big_n = u1.sub_(u1.mul(list(g1x), f_neg), u1.mul(g_neg, list(f1x)))
    big_n = [c if k % 2 == 1 else 0 * c for k, c in enumerate(big_n)]  # odd part
    m = u1.trim(big_n[1:])
    if not m:
        return 0.0  # an even profile, a constant one for instance
    d = u1.mul(list(f1x), f_neg)
    if not all(map(math.isfinite, m + d)):
        raise ValueError("the folded profile m/d overflows: a coefficient "
                         "of m or d = f1(x) f1(-x) is not finite")
    gap = len(d) - len(m)
    if gap < 2:
        raise TailNotIntegrable(
            f"the folded integrand is of order x^{-gap} at infinity, "
            "not integrable (float coefficients underflowed)")
    # both integrals are linear in m: integrate m/2^k, with k putting m's
    # coefficients below 1 (k = 0 where they are), at the tolerance scaled
    # alike, and scale the sum back.  Above the subnormal range a power of
    # two changes no float of the quadrature, so only a principal value
    # past the float range overflows
    k = max(0, math.frexp(max(abs(float(c)) for c in m))[1])
    m = [math.ldexp(float(c), -k) for c in m]
    tol = math.ldexp(1e-11, -k)
    near = gk15_quad(_ratio_fn(m, d), 0.0, 1.0, tol)[0]
    far = gk15_quad(_ratio_fn([0] * (gap - 2) + m[::-1], d[::-1]),
                    0.0, 1.0, tol)[0]
    try:
        return math.ldexp(near + far, k)
    except OverflowError:
        raise ValueError(f"the principal value {near + far} * 2^{k} "
                         "overflows") from None


# -- the asymmetry term and the two leading-coefficient routes ----------------


def _sqrt_d(inv: Invariants) -> float:
    d = float(inv.d)
    if d <= 0:
        raise NotHyperbolicFakeSaddle(f"d = {d} is not positive")
    return math.sqrt(d)


def gamma0(inv: Invariants) -> float:
    """Asymmetry term pi (2b - c(a+b)) / sqrt(d); the two transition
    exponents are PV +- gamma0."""
    sd = _sqrt_d(inv)
    a, b, c = float(inv.a), float(inv.b), float(inv.c)
    return math.pi * (2.0 * b - c * (a + b)) / sd


def arctan_sum(a: float, b: float, c: float) -> float:
    """Four-term arctan combination behind the gamma0 closed form.

    Identically -pi on the region d > 0, which is what makes gamma0
    elementary; evaluated literally so that constancy can be tested.
    """
    d = 4.0 * (1.0 - c) - (a - b) ** 2
    if d <= 0:
        raise NotHyperbolicFakeSaddle(f"d = {d} is not positive")
    sd = math.sqrt(d)
    return (math.atan((b - a - 2.0) / sd)
            - math.atan((b - a + 2.0 - 2.0 * c) / sd)
            + math.atan((-b + a - 2.0) / sd)
            - math.atan((-b + a + 2.0 - 2.0 * c) / sd))


def gamma_pm(nf: NormalFormField,
             sections: SectionPair | None) -> Tuple[float, float]:
    """(gamma_plus, gamma_minus) = (PV + gamma0, PV - gamma0).

    ``sections=None`` means symmetric sections at infinity.
    """
    inv = invariants(nf)
    g0 = gamma0(inv)
    if sections is None:
        pv = pv_integral_sym_infinite(nf)
    else:
        pv = pv_integral(nf, sections)
    return pv + g0, pv - g0


def _closed_l_integrands(a, b, c):
    """Rational integrands of the divisor-side L-integrals.

    log L2_minus(u) integrates num_m / ((1-c) den_m) and log L1_plus(u)
    integrates num_p / ((1-c) den_p); both denominators have negative
    discriminant -d, hence no real roots when d > 0.
    """
    num_m = [-(a * c - c * c - b + c), c * (a - b - c + 2)]
    den_m = [1 - c, -a + b + 2 * c - 2, a - b - c + 2]
    num_p = [-(a * c + c * c - b - c), c * (a - b + c - 2)]
    den_p = [c - 1, -a + b - 2 * c + 2, a - b + c - 2]
    return num_m, den_m, num_p, den_p


def log_l_integrals(nf: NormalFormField,
                    sections: SectionPair) -> Dict[str, float]:
    """The four log L values entering the composed leading coefficient.

    log L2_plus(omega) and log L1_minus(-alpha) integrate the fiber
    profile (g1/f1 - c)/x; log L2_minus(1) and log L1_plus(1) integrate
    the divisor-side closed-form rational integrands.  Denominators are
    checked for roots on the path by exact isolation and reported, never
    silently regularized.
    """
    inv = invariants(nf)
    _sqrt_d(inv)  # requires d > 0
    validate_sections(nf, sections)
    return _log_l_integrals(inv, _regularized_integrand(nf)[0], sections,
                            QUAD_ABS_TOL)


def _log_l_integrals(inv: Invariants, h: Callable[[float], float],
                     sections: SectionPair, abs_tol: float) -> Dict[str, float]:
    """``log_l_integrals`` for checked d > 0 and sections; h is the
    regularized fiber integrand."""
    num_m, den_m, num_p, den_p = _closed_l_integrands(inv.a, inv.b, inv.c)
    for name, den, sign in (("L2_minus", den_m, 1), ("L1_plus", den_p, -1)):
        if not u1.positive_on_interval(u1.scale(den, sign), 0, 1):
            raise IntegrandSingularOnPath(
                f"denominator of the {name} integrand vanishes on (0, 1]")
    lam = 1 - inv.c
    psi_m = _ratio_fn(num_m, u1.scale(den_m, lam))
    psi_p = _ratio_fn(num_p, u1.scale(den_p, lam))

    l2p, e1 = gk15_quad(h, 0.0, sections.omega, abs_tol)
    l1m, e2 = gk15_quad(h, 0.0, sections.alpha, abs_tol)
    l2m, e3 = gk15_quad(psi_m, 0.0, 1.0, abs_tol)
    l1p, e4 = gk15_quad(psi_p, 0.0, 1.0, abs_tol)
    return {"log_L2_plus": l2p, "log_L1_minus": l1m,
            "log_L2_minus": l2m, "log_L1_plus": l1p,
            "errors": (e1, e2, e3, e4)}


def _delta00_from_l(inv: Invariants, sections: SectionPair,
                    ls: Dict[str, float]) -> float:
    """The leading transition coefficient from a ``log_l_integrals``
    result, composing the two directional saddle maps: with lam = 1 - c,

        delta00 = (-alpha)^(lam-1) L2+(omega) / (omega^(lam-1) L1-(-alpha))
                  * (L2-(1) / L1+(1))^lam,

    the section-parametrization derivatives having been folded in.  It
    must agree with exp(gamma_plus) from the closed form.
    """
    lam = float(1 - inv.c)
    log_delta = ((lam - 1.0) * (math.log(-sections.alpha) - math.log(sections.omega))
                 + ls["log_L2_plus"] - ls["log_L1_minus"]
                 + lam * (ls["log_L2_minus"] - ls["log_L1_plus"]))
    return _exp(log_delta)


def _exp(v: float) -> float:
    """exp(v), +inf where it overflows as it is 0.0 where it underflows."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def transition_report(nf: NormalFormField, sections: SectionPair | None,
                      abs_tol: float = QUAD_ABS_TOL) -> TransitionReport:
    """Full transition computation with both leading-coefficient routes.

    ``abs_tol`` is the quadrature tolerance for finite sections; sections
    at infinity use the fixed tolerances of ``pv_integral_sym_infinite``.
    """
    inv = invariants(nf)
    g0 = gamma0(inv)  # requires d > 0
    if sections is None:
        pv = pv_integral_sym_infinite(nf)
        errors: Tuple[float, ...] = ()
        via_l = None
    else:
        validate_sections(nf, sections)
        regularized = _regularized_integrand(nf)
        pv, pv_err = _pv_integral_with_err(regularized, sections, abs_tol)
        ls = _log_l_integrals(inv, regularized[0], sections, abs_tol)
        via_l = _delta00_from_l(inv, sections, ls)
        errors = (pv_err,) + tuple(ls["errors"])
    gp, gm = pv + g0, pv - g0
    return TransitionReport(pv=pv, gamma0=g0, gamma_plus=gp, gamma_minus=gm,
                            delta00_closed=_exp(gp), delta00_via_L=via_l,
                            quadrature_error_estimates=errors)
