"""Quadratic blow-up charts, exceptional-divisor reports and saddle data.

The chart catalog is deliberately closed: the four charts below are the
only ones with exactness guarantees here, and anything else raises
UnsupportedChart.  Each chart writes the old coordinates (x, y) in the
new pair (u, v):

    X_DIR          (x, y) = (u, u v),        divisor u = 0
    X_DIR_SWAPPED  (x, y) = (v, u v),        divisor v = 0
    PI_PLUS        (x, y) = (u (1-v), u v),  divisor u = 0
    PI_MINUS       (x, y) = (-u (1-v), u v), divisor u = 0

Blowing up means pulling the field back and then dividing exactly by
divisor**divide_power.  Both steps have a closed form on the term maps
(Dumortier, Llibre & Artes, Qualitative Theory of Planar Differential
Systems, 2006, ch. 3): a term c x^i y^j becomes c u^(i+j) v^j,
c u^j v^(i+j), or, in the pi charts, c (+-1)^i u^(i+j) times the
binomial expansion of v^j (1-v)^i.  The chain rule is then Poly2's own
arithmetic, sums and monomial shifts, and division by a power of the
divisor is a shift of exponents (``Poly2.shift``)."""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Tuple

from . import _univariate as u1
from .normalform import (NormalFormField, NotHyperbolicFakeSaddle, Verdict,
                         classify, invariants)
from .polyfield import PlanarField, Poly2


class UnsupportedChart(Exception):
    """Chart outside the closed catalog."""


class NotDivisible(Exception):
    """Exact division by a power of u or v failed; carries the remainder."""

    def __init__(self, component: str, remainder: Poly2):
        self.component = component
        self.remainder = remainder
        super().__init__(
            f"component {component!r} is not divisible; remainder {remainder}"
        )


class ChartKind(enum.Enum):
    X_DIR = "x_dir"
    X_DIR_SWAPPED = "x_dir_swapped"
    PI_PLUS = "pi_plus"
    PI_MINUS = "pi_minus"


@dataclass(frozen=True)
class BlowupChart:
    kind: ChartKind
    divide_power: int = 1


@dataclass(frozen=True)
class BlowupResult:
    """Blown-up field plus the attempted u d/du, v d/dv factorization.

    ``u_factor`` is field.p / u when that division is exact (the new
    first coordinate axis, i.e. the strict-transform fiber direction, is
    invariant), else None; likewise ``v_factor`` for field.q / v (the
    exceptional divisor).  A missing factor flags a fiber or divisor the
    field is not tangent to, which doubles as an input sanity check.
    """

    field: PlanarField
    chart: BlowupChart
    u_factor: Poly2 | None
    v_factor: Poly2 | None


# -- the charts on term maps --------------------------------------------------
#
# Each chart pulls p and q back term by term (``_pull``); the chain rule
# adj(J) (P, Q) / det J is then Poly2 arithmetic, its sums taken in the
# order written, as float coefficients round per sum.  The tests hold
# every chart to that chain rule (tests/test_polyfield.py, ref_substitute).

# Sign of the Jacobian determinant, +-u or +-v, of each chart
_DET_SIGN = {ChartKind.X_DIR: 1, ChartKind.X_DIR_SWAPPED: -1,
             ChartKind.PI_PLUS: 1, ChartKind.PI_MINUS: -1}


@functools.cache
def _expansion(i: int, sign: int) -> Tuple[int, ...]:
    """Coefficients of v^k, k = 0..i, in (sign (1-v))^i."""
    return tuple(sign ** i * (-1) ** k * math.comb(i, k) for k in range(i + 1))


def _pull(p: Poly2, kind: ChartKind) -> Poly2:
    """p(x(u, v), y(u, v)) in the chart ``kind``."""
    if kind is ChartKind.X_DIR:
        return Poly2._clean({(i + j, j): c for (i, j), c in p.terms.items()})
    if kind is ChartKind.X_DIR_SWAPPED:
        return Poly2._clean({(j, i + j): c for (i, j), c in p.terms.items()})
    sign = 1 if kind is ChartKind.PI_PLUS else -1
    out: dict = {}
    for (i, j), c in p.terms.items():
        for k, b in enumerate(_expansion(i, sign)):
            key = (i + j, j + k)
            v = c if b == 1 else -c if b == -1 else b * c
            out[key] = out[key] + v if key in out else v
    return Poly2._trusted(out)


def _chain_rule(kind: ChartKind, p: Poly2, q: Poly2) -> Tuple[Poly2, Poly2]:
    """(u', v') of the pulled-back field as ``blow_up`` writes it, with the
    component it divides, v' or in X_DIR_SWAPPED u', still undivided."""
    P, Q = _pull(p, kind), _pull(q, kind)
    if kind is ChartKind.X_DIR:  # (P, (Q - vP)/u)
        return P, Q - P.shift(0, 1)
    if kind is ChartKind.X_DIR_SWAPPED:  # ((Q - uP)/v, P)
        return -P.shift(1, 0) + Q, P
    if kind is ChartKind.PI_PLUS:  # (P + Q, (Q - vQ - vP)/u)
        return P + Q, (Q - Q.shift(0, 1)) - P.shift(0, 1)
    # PI_MINUS: (Q - P, (Q - vQ + vP)/u)
    return -P + Q, (Q - Q.shift(0, 1)) + P.shift(0, 1)


def _divided(poly: Poly2, axis: int, power: int, name: str,
             sign: int = 1) -> Poly2:
    """poly divided by u**power (axis 0) or v**power (axis 1); where that
    is not exact, NotDivisible names the remainder of sign * poly."""
    rem = {k: c for k, c in poly.terms.items() if k[axis] < power}
    if rem:
        rem = Poly2._trusted(rem)
        raise NotDivisible(name, rem if sign > 0 else -rem)
    return poly.shift(-power, 0) if axis == 0 else poly.shift(0, -power)


def blow_up(field: PlanarField, chart: BlowupChart) -> BlowupResult:
    """Pull back through the chart and divide by divisor**divide_power.

    The pullback (u', v') is, with P and Q the pulled-back p and q,

        X_DIR          (P, (Q - vP)/u)
        X_DIR_SWAPPED  ((Q - uP)/v, P)
        PI_PLUS        (P + Q, (Q - v(P + Q))/u)
        PI_MINUS       (Q - P, (Q + v(P - Q))/u)

    Raises NotDivisible, naming the component and its remainder, when
    either division is not exact: the field is not singular at the chart
    centre, or divide_power is too high.  The remainder of the first
    division is that of the chain rule's numerator, det J (u', v').  The
    same shift of exponents divides the result's p by u and q by v into
    ``u_factor`` and ``v_factor``, each None where it is not exact.
    """
    kind = chart.kind
    if kind not in _DET_SIGN:
        raise UnsupportedChart(str(kind))
    axis = 1 if kind is ChartKind.X_DIR_SWAPPED else 0
    comps = list(_chain_rule(kind, field.p, field.q))
    comps[1 - axis] = _divided(comps[1 - axis], axis, 1, "pq"[1 - axis],
                               _DET_SIGN[kind])
    power = chart.divide_power
    if power < 0:
        raise ValueError("power must be nonnegative")
    if power:
        comps = [_divided(c, axis, power, name)
                 for c, name in zip(comps, "pq")]
    p, q = comps
    return BlowupResult(PlanarField(p, q), chart,
                        p.shift(-1, 0) if all(i for i, _j in p.terms) else None,
                        q.shift(0, -1) if all(j for _i, j in q.terms) else None)


@dataclass(frozen=True)
class DivisorRoot:
    location: float
    multiplicity: int
    nonzero_eigenvalue: bool


@dataclass(frozen=True)
class DivisorReport:
    """Singularity data on the exceptional divisor of the X_DIR chart."""

    q_on_divisor: tuple  # coefficient list of Q(0, v)
    roots: Tuple[DivisorRoot, ...]
    origin_data: tuple  # (P(0,0), Q(0,0))
    discriminant: object


def divisor_report(nf: NormalFormField) -> DivisorReport:
    """Blow up in the X_DIR chart, restrict to u = 0, classify the roots.

    For the normal-form family Q(0, v) = -v^2 + (b-a) v + c - 1 exactly
    and its discriminant equals -d; both identities are checked here, in
    float mode to 1e-9, and a failure raises AssertionError.
    """
    inv = invariants(nf)
    res = blow_up(nf.field(), BlowupChart(ChartKind.X_DIR, 1))
    if res.u_factor is None or res.v_factor is None:
        raise NotDivisible("blowup", Poly2.zero())
    p_fac, q_fac = res.u_factor, res.v_factor
    q0 = q_fac.restrict_x0()  # Q(0, v) as a polynomial in v
    expected = [inv.c - 1, inv.b - inv.a, -1]
    exact = not nf.is_float

    def agree(x, y):
        return x == y if exact else abs(float(x) - float(y)) < 1e-9

    if not all(map(agree, q0, expected)):  # Q(0, v) has degree 2 exactly
        raise AssertionError(f"Q(0, v) = -v^2 + (b-a) v + c - 1 fails: "
                             f"coefficients {q0}, expected {expected}")
    disc = q0[1] * q0[1] - 4 * q0[2] * q0[0]
    if not agree(disc, -inv.d):
        raise AssertionError(f"discriminant of Q(0, v) = -d fails: "
                             f"discriminant {disc}, d = {inv.d}")

    p00 = p_fac.coeff(0, 0)
    q00 = q0[0]

    def nonzero_eigenvalue(v0):
        # eigenvalues at (0, v0): P(0, v0) along u, v0 * dQ/dv(0, v0) along v
        return (u1.ev(p_fac.restrict_x0(), v0) != 0
                or v0 * u1.ev(u1.deriv(list(q0)), v0) != 0)

    vs = u1.split_roots((inv.b - inv.a) / 2, disc)
    # multiplicities add up to 2: two simple roots or one double root
    roots = [DivisorRoot(float(v0), 2 // len(vs), nonzero_eigenvalue(v0))
             for v0 in vs]
    return DivisorReport(tuple(q0), tuple(roots), (p00, q00), disc)


@dataclass(frozen=True)
class Rational1:
    """Univariate rational function num/den as coefficient lists."""

    num: tuple
    den: tuple

    def equals(self, other: "Rational1") -> bool:
        """Equality as rational functions: True at once for equal
        coefficient tuples, else cross-multiplied, exact.  A NaN or
        infinite float coefficient skips the shortcut, whose tuple ==
        would let a NaN equal itself, and gets the cross product's
        answer: a NaN times a nonzero coefficient equals nothing."""
        if (self.num == other.num and self.den == other.den
                and all(math.isfinite(c) for c in self.num + self.den
                        if isinstance(c, float))):
            return True
        return u1.eq(u1.mul(list(self.num), list(other.den)),
                     u1.mul(list(other.num), list(self.den)))


@dataclass(frozen=True)
class SaddleData:
    """Axis restrictions of the two directional saddles behind a fake saddle.

    The pi_plus / pi_minus pullbacks P u d/du + Q v d/dv give hyperbolic
    saddles with ratios lambda_plus = 1 - c and lambda_minus = 1/(1-c).
    The four restriction quotients r12/r21 drive the transition-map
    coefficient; each comes in a generic (pullback) and a closed-form
    variant that must agree exactly.
    """

    lambda_plus: object
    lambda_minus: object
    r12_minus: Rational1
    r21_minus: Rational1
    r12_plus: Rational1
    r21_plus: Rational1
    r12_minus_closed: Rational1
    r21_minus_closed: Rational1
    r12_plus_closed: Rational1
    r21_plus_closed: Rational1


def closed_r21_minus(a, b, c) -> Rational1:
    """Divisor restriction P2-/P1- as a rational function of (a, b, c)."""
    return Rational1((-1, a - c + 2, -a + b + c - 2),
                     (1 - c, -a + b + 2 * c - 2, a - b - c + 2))


def closed_r12_plus(a, b, c) -> Rational1:
    """Divisor restriction P1+/P2+ as a rational function of (a, b, c)."""
    return Rational1((1, a + c - 2, -a + b - c + 2),
                     (c - 1, -a + b - 2 * c + 2, a - b + c - 2))


def saddle_data(nf: NormalFormField) -> SaddleData:
    """Directional saddle data for a hyperbolic fake saddle (d > 0)."""
    inv = invariants(nf)
    cls = classify(inv)
    if cls.verdict is not Verdict.HYPERBOLIC_FAKE_SADDLE:
        raise NotHyperbolicFakeSaddle(
            f"verdict {cls.verdict.value}; saddle data needs d > 0")

    fld = nf.field()
    plus = blow_up(fld, BlowupChart(ChartKind.PI_PLUS, 1))
    minus = blow_up(fld, BlowupChart(ChartKind.PI_MINUS, 1))
    if plus.u_factor is None or plus.v_factor is None \
            or minus.u_factor is None or minus.v_factor is None:
        raise NotDivisible("pi-chart factorization", Poly2.zero())
    # saddle fields x' = P1 x, y' = P2 y: (P1, P2) is (u_factor, v_factor)
    # of the plus chart, and (v_factor, u_factor) of the minus chart with
    # u and v swapped, so that its x-axis is v = 0 and its y-axis u = 0
    p1p, p2p = plus.u_factor, plus.v_factor
    p1m, p2m = minus.v_factor, minus.u_factor

    lam_plus = -p2p.coeff(0, 0) / p1p.coeff(0, 0)
    lam_minus = -p2m.coeff(0, 0) / p1m.coeff(0, 0)

    # r12 = P1/P2 on the y-axis, r21 = P2/P1 on the x-axis
    r12_m = Rational1(tuple(p1m.restrict_y0()), tuple(p2m.restrict_y0()))
    r21_m = Rational1(tuple(p2m.restrict_x0()), tuple(p1m.restrict_x0()))
    r12_p = Rational1(tuple(p1p.restrict_x0()), tuple(p2p.restrict_x0()))
    r21_p = Rational1(tuple(p2p.restrict_y0()), tuple(p1p.restrict_y0()))

    a, b, c = inv.a, inv.b, inv.c
    f1x = nf.f1.restrict_y0()
    g1x = nf.g1.restrict_y0()
    f1_neg = u1.negate_var(f1x)
    g1_neg = u1.negate_var(g1x)
    r12_m_closed = Rational1(tuple(u1.sub_(g1_neg, f1_neg)), tuple(f1_neg))
    r21_p_closed = Rational1(tuple(u1.sub_(g1x, f1x)), tuple(f1x))

    return SaddleData(
        lambda_plus=lam_plus,
        lambda_minus=lam_minus,
        r12_minus=r12_m,
        r21_minus=r21_m,
        r12_plus=r12_p,
        r21_plus=r21_p,
        r12_minus_closed=r12_m_closed,
        r21_minus_closed=closed_r21_minus(a, b, c),
        r12_plus_closed=closed_r12_plus(a, b, c),
        r21_plus_closed=r21_p_closed,
    )


def linear_part(field: PlanarField, point) -> Tuple[Tuple[object, object], ...]:
    """Exact 2x2 Jacobian of the field at a point."""
    x0, y0 = point
    return ((field.p.diff_x().eval(x0, y0), field.p.diff_y().eval(x0, y0)),
            (field.q.diff_x().eval(x0, y0), field.q.diff_y().eval(x0, y0)))
