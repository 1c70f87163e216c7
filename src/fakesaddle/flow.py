"""Numerical integration of planar fields and empirical slope measurement.

The integrator is an explicit embedded Runge-Kutta 5(4) pair
(Dormand-Prince coefficients) with FSAL, proportional step control,
cubic Hermite dense output and event location by bisection on the dense
output.  The state is 1-D (y as a graph over x) or 2-D (time and
arclength parametrizations), and the step is unrolled for each.  Only
integrate() keeps a trajectory; the slope and probe drivers keep just
each orbit's endpoint.

On top of the integrator sit the measured counterparts of the
closed-form transition theory: transition-map slopes across a fake
saddle, Poincare return-map slopes around a monodromic point, a
first-integral drift check and a monodromy probe.

Everything is deterministic for a fixed configuration and free of
shared mutable state, so parameter sweeps can run concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple

from .normalform import NormalFormField, classify, invariants
from .polyfield import PlanarField

TWO_PI = 2.0 * math.pi


class StepUnderflow(Exception):
    """Step size collapsed below floating resolution (near-singular passage)."""


class MaxStepsExceeded(Exception):
    """Integration exceeded the configured step budget."""


class TransitDoesNotExist(Exception):
    """No transit orbit connects the two sections."""


class ExtrapolationUnstable(Exception):
    """Slope extrapolation residual exceeds the requested tolerance."""


class NoReturn(Exception):
    """Orbit left the guard box or stalled; no Poincare return."""


class BranchTrackingFailed(Exception):
    """First-integral branch unwinding became ambiguous."""


class _SwitchParametrization(Exception):
    """Internal: graph-over-x denominator guard tripped."""


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    min_denominator: float = 1e-8  # relative to x^2 + y^2
    max_step: float | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class Trajectory:
    """Adaptive-step solution samples (s, x, y, step_error) plus events."""

    samples: List[Tuple[float, float, float, float]]
    events: List[Tuple[str, Tuple[float, float, float]]]
    parametrization: str  # time | graph-over-x | arclength

    @property
    def end(self) -> Tuple[float, float]:
        _, x, y, _ = self.samples[-1]
        return x, y

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t_or_x,x,y,step_error\n")
            for s, x, y, e in self.samples:
                fh.write(f"{s!r},{x!r},{y!r},{e!r}\n")

    def to_json(self) -> dict:
        return {"parametrization": self.parametrization,
                "samples": [list(s) for s in self.samples],
                "events": [[k, list(loc)] for k, loc in self.events]}


@dataclass(frozen=True)
class SlopeEstimate:
    """Extrapolated slope with its full per-offset audit trail."""

    value: float
    offsets_used: Tuple[float, ...]
    per_offset: Tuple[float, ...]
    residual: float
    exponent: float | None = None

    def to_json(self) -> dict:
        return {"value": self.value, "offsets_used": list(self.offsets_used),
                "per_offset": list(self.per_offset), "residual": self.residual,
                "exponent": self.exponent}


DEFAULT_OFFSETS = (1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5, 1e-4)


# -- Dormand-Prince 5(4) pair --------------------------------------------------

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# embedded error coefficients (5th order weights minus 4th order weights)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _compile_step(n: int):
    """Unrolled DP5(4) step for n-D state, generated from the tableau.

    ``step(f, t, y, h, k1) -> (y5, err, k7)``.  Each stage sum is spelled
    out in the tableau's left-to-right order, starting from zero as the
    builtin ``sum`` does; only zero-coefficient terms are left out and
    ``1.0*h`` is written ``h``.  For finite stage values the step is
    therefore bit for bit the plain tableau formula.
    """
    comps = range(n)

    def unpack(name):
        return "".join(f"{name}_{i}, " for i in comps)

    def combo(coeffs, i):
        return "h*(0.0" + "".join(f" + {a!r}*k{m + 1}_{i}"
                                  for m, a in enumerate(coeffs) if a) + ")"

    def state(coeffs):
        return "(" + "".join(f"y_{i} + {combo(coeffs, i)}, "
                             for i in comps) + ")"

    def time(c):
        return "t + h" if c == 1.0 else f"t + {c!r}*h"

    lines = ["def _step(f, t, y, h, k1):",
             f"    {unpack('y')}= y",
             f"    {unpack('k1')}= k1"]
    for s in range(1, 6):
        lines.append(f"    {unpack(f'k{s + 1}')}= "
                     f"f({time(_C[s])}, {state(_A[s])})")
    err = "(" + "".join(f"{combo(_E, i)}, " for i in comps) + ")"
    lines += [f"    y5 = {state(_A[6])}",
              f"    k7 = f({time(_C[6])}, y5)",
              f"    {unpack('k7')}= k7",
              f"    return y5, {err}, k7"]
    ns: dict = {}
    exec("\n".join(lines) + "\n", ns)  # noqa: S102 - codegen over the tableau
    return ns["_step"]


# the state is 1-D (graph over x) or 2-D (time and arclength)
_STEPS = {n: _compile_step(n) for n in (1, 2)}


def _hermite(y0, f0, y1, f1, h, theta):
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + theta
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return tuple(h00 * y0[i] + h10 * h * f0[i] + h01 * y1[i] + h11 * h * f1[i]
                 for i in range(len(y0)))


@dataclass(frozen=True)
class _Event:
    name: str
    fn: Callable[[float, Tuple[float, ...]], float]
    direction: int = 0  # +1 upward crossing, -1 downward, 0 any
    terminal: bool = True


@dataclass
class _DriveResult:
    trajectory: Trajectory | None  # None unless the drive kept samples
    status: str  # "t_end" | "event:<name>" | "winding"
    t: float
    y: Tuple[float, ...]
    err_accum: float
    theta: float = 0.0


def _angle_increment(p, q):
    cross = p[0] * q[1] - p[1] * q[0]
    dot = p[0] * q[0] + p[1] * q[1]
    if cross == 0.0 and dot == 0.0:
        return 0.0
    return math.atan2(cross, dot)


def _drive(f, t0, y0, cfg: IntegratorConfig, *, t_end=None, events=(),
           winding_target=None, parametrization="time",
           autonomous=False, keep_samples=False) -> _DriveResult:
    """Adaptive driver; stops at t_end, a terminal event, or a winding target.

    The result carries a Trajectory of every accepted step only when
    ``keep_samples`` is set.  ``autonomous=True`` lets the driver rebase
    the time origin when the accumulated time dwarfs the step size
    (degenerate loops crawl through near-singular passes for
    astronomically long times); the reported times stay absolute but may
    saturate float resolution.
    """
    t = t0
    t_offset = 0.0
    y = tuple(float(v) for v in y0)
    step = _STEPS[len(y)]
    k1 = f(t, y)
    fn_norm = max(abs(v) for v in k1) + 1e-300
    y_norm = max(abs(v) for v in y) + 1e-6
    h = 1e-2 * y_norm / fn_norm
    if t_end is not None:
        h = min(h, abs(t_end - t))
    if cfg.max_step:
        h = min(h, cfg.max_step)

    def as_xy(tt, yy):
        return (yy[0], yy[1]) if len(yy) > 1 else (tt, yy[0])

    samples = [(t, *as_xy(t, y), 0.0)] if keep_samples else None
    ev_records: List[Tuple[str, Tuple[float, float, float]]] = []
    theta = 0.0
    err_accum = 0.0
    g_prev = [e.fn(t, y) for e in events]

    def finish(status, t_stop, y_stop, err_total, theta_stop):
        traj = (Trajectory(samples, ev_records, parametrization)
                if keep_samples else None)
        return _DriveResult(traj, status, t_stop, y_stop, err_total,
                            theta_stop)

    for _n in range(cfg.max_steps):
        if t_end is not None and t + h >= t_end:
            h = t_end - t
            if h <= 0.0:
                return finish("t_end", t_offset + t, y, err_accum, theta)
        if t + h == t:
            raise StepUnderflow(f"step size {h} cannot advance t={t}")
        y5, err, k7 = step(f, t, y, h, k1)
        if any(math.isnan(v) or math.isinf(v) for v in y5):
            h *= 0.5
            continue
        norm = 0.0
        for i in range(len(y)):
            sc = cfg.abs_tol + cfg.rel_tol * max(abs(y[i]), abs(y5[i]))
            ratio = min(abs(err[i]) / sc, 1e120)
            norm += ratio * ratio
        norm = math.sqrt(norm / len(y))
        if norm > 1.0:
            h *= max(0.2, 0.9 * norm ** -0.2)
            continue
        if winding_target is not None:
            dtheta = _angle_increment(y, y5)
            if abs(dtheta) > 0.6 and t + 0.25 * h != t:
                h *= 0.5
                continue

        # accepted
        t1 = t + h
        err_abs = max(abs(v) for v in err)
        hit = None
        for idx, ev in enumerate(events):
            g1 = ev.fn(t1, y5)
            g0 = g_prev[idx]
            if ((ev.direction >= 0 and g0 < 0.0 <= g1)
                    or (ev.direction <= 0 and g0 > 0.0 >= g1)):
                lo, hi = 0.0, 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    ym = _hermite(y, k1, y5, k7, h, mid)
                    gm = ev.fn(t + mid * h, ym)
                    if (g0 < 0.0) == (gm < 0.0):
                        lo = mid
                    else:
                        hi = mid
                    if (hi - lo) * abs(h) < 1e-12:
                        break
                tau = 0.5 * (lo + hi)
                y_ev = _hermite(y, k1, y5, k7, h, tau)
                t_ev = t_offset + t + tau * h
                xe, ye = as_xy(t + tau * h, y_ev)
                ev_records.append((ev.name, (t_ev, xe, ye)))
                if ev.terminal and hit is None:
                    hit = (ev, t_ev, y_ev)
            g_prev[idx] = g1
        if hit is not None:
            ev, t_ev, y_ev = hit
            if keep_samples:
                samples.append((t_ev, *as_xy(t_ev - t_offset, y_ev), err_abs))
            if winding_target is not None:
                theta += _angle_increment(y, y_ev)
            return finish(f"event:{ev.name}", t_ev, y_ev, err_accum + err_abs,
                          theta)

        if winding_target is not None:
            dtheta = _angle_increment(y, y5)
            if abs(theta + dtheta) >= winding_target:
                lo, hi = 0.0, 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    ym = _hermite(y, k1, y5, k7, h, mid)
                    if abs(theta + _angle_increment(y, ym)) >= winding_target:
                        hi = mid
                    else:
                        lo = mid
                    if (hi - lo) * abs(h) < 1e-12:
                        break
                tau = hi
                y_ev = _hermite(y, k1, y5, k7, h, tau)
                t_ev = t_offset + t + tau * h
                theta += _angle_increment(y, y_ev)
                xe, ye = as_xy(t + tau * h, y_ev)
                if keep_samples:
                    samples.append((t_ev, xe, ye, err_abs))
                ev_records.append(("winding", (t_ev, xe, ye)))
                return finish("winding", t_ev, y_ev, err_accum + err_abs,
                              theta)
            theta += dtheta

        if keep_samples:
            samples.append((t_offset + t1, *as_xy(t1, y5), err_abs))
        err_accum += err_abs
        t, y, k1 = t1, y5, k7
        if t_end is not None and t >= t_end:
            return finish("t_end", t_offset + t, y, err_accum, theta)
        if autonomous and abs(t) > 1e13 * h:
            t_offset += t
            t = 0.0
        h *= min(5.0, max(0.2, 0.9 * norm ** -0.2 if norm > 0 else 5.0))
        if cfg.max_step:
            h = min(h, cfg.max_step)
    raise MaxStepsExceeded(f"no stop condition met in {cfg.max_steps} steps")


# -- public integration --------------------------------------------------------


class Stop:
    """Stop condition for integrate()."""

    def __init__(self, kind: str, **kw):
        self.kind = kind
        self.kw = kw

    @classmethod
    def x_reaches(cls, value: float) -> "Stop":
        return cls("x", value=value)

    @classmethod
    def y_reaches(cls, value: float) -> "Stop":
        return cls("y", value=value)

    @classmethod
    def time_reaches(cls, value: float) -> "Stop":
        return cls("time", value=value)

    @classmethod
    def section(cls, axis: str, value: float, direction: int) -> "Stop":
        return cls("section", axis=axis, value=value, direction=direction)

    @classmethod
    def window_exit(cls, x0: float, x1: float, y0: float, y1: float) -> "Stop":
        return cls("window", x0=x0, x1=x1, y0=y0, y1=y1)


def integrate(field: PlanarField, start: Tuple[float, float], stop: Stop,
              cfg: IntegratorConfig | None = None, param: str = "time",
              backward: bool = False) -> Trajectory:
    """Integrate a planar field from ``start`` until the stop condition.

    ``param`` selects the independent variable: "time", "arclength"
    (unit-speed, robust near degenerate points), or "graph" (y as a
    graph over x; only with an x-reaches stop, whose position relative
    to the start fixes the direction).  ``backward`` reverses the flow
    in time/arclength mode.
    """
    cfg = cfg or IntegratorConfig()
    rhs_xy = field.as_rhs()
    sgn = -1.0 if backward else 1.0

    if param == "graph":
        if stop.kind != "x":
            raise ValueError("graph parametrization needs Stop.x_reaches")
        x0, y0 = start
        x_target = stop.kw["value"]
        flip = -1.0 if x_target < x0 else 1.0

        def rhs(x, state):
            p, q = rhs_xy(flip * x, state[0])
            return (flip * q / p,)

        res = _drive(rhs, flip * x0, (y0,), cfg, t_end=flip * x_target,
                     parametrization="graph-over-x", keep_samples=True)
        if flip < 0:  # report true x in samples
            res.trajectory.samples = [(-s, -s, y, e)
                                      for s, _x, y, e in res.trajectory.samples]
        return res.trajectory

    if param == "time":
        def rhs(_t, state):
            p, q = rhs_xy(state[0], state[1])
            return (sgn * p, sgn * q)
    elif param == "arclength":
        def rhs(_t, state):
            p, q = rhs_xy(state[0], state[1])
            v = math.hypot(p, q)
            if v < 1e-300:
                raise StepUnderflow("vector field vanishes on the path")
            return (sgn * p / v, sgn * q / v)
    else:
        raise ValueError(f"unknown parametrization {param!r}")

    events: List[_Event] = []
    t_end = None
    if stop.kind == "x":
        events.append(_Event("x_reaches", lambda _t, s, v=stop.kw["value"]: s[0] - v))
    elif stop.kind == "y":
        events.append(_Event("y_reaches", lambda _t, s, v=stop.kw["value"]: s[1] - v))
    elif stop.kind == "time":
        t_end = stop.kw["value"]
    elif stop.kind == "section":
        idx = 0 if stop.kw["axis"] == "x" else 1
        events.append(_Event("section_crossing",
                             lambda _t, s, i=idx, v=stop.kw["value"]: s[i] - v,
                             direction=stop.kw["direction"]))
    elif stop.kind == "window":
        kw = stop.kw

        def outside(_t, s):
            return max(s[0] - kw["x1"], kw["x0"] - s[0],
                       s[1] - kw["y1"], kw["y0"] - s[1])

        events.append(_Event("window_exit", outside, direction=+1))
    else:
        raise ValueError(f"unknown stop kind {stop.kind!r}")

    res = _drive(rhs, 0.0, start, cfg, t_end=t_end, events=events,
                 parametrization=param, autonomous=t_end is None,
                 keep_samples=True)
    return res.trajectory


# -- slope extrapolation -------------------------------------------------------


def _extrapolate(offsets: Sequence[float], slopes: Sequence[float]):
    """Fit slope_i = S + C * offset_i^e with free exponent e.

    Three-point log-differences on the smallest offsets; exponents
    outside (0, 2] fall back to the smallest-offset slope with a widened
    residual.  Returns (value, exponent, residual).
    """
    n = len(slopes)
    if n == 0:
        raise ValueError("no slopes measured")
    if n == 1:
        return slopes[0], None, abs(slopes[0]) * 1e-3
    scale = max(1.0, abs(slopes[-1]))
    if max(slopes) - min(slopes) < 1e-9 * scale:
        return sum(slopes) / n, None, max(slopes) - min(slopes) + 1e-15
    if n == 2:
        return slopes[-1], None, abs(slopes[-1] - slopes[-2])

    def triple(i):
        y1, y2, y3 = offsets[i], offsets[i + 1], offsets[i + 2]
        s1, s2, s3 = slopes[i], slopes[i + 1], slopes[i + 2]
        d1, d2 = s1 - s2, s2 - s3
        if d1 == 0.0 or d2 == 0.0 or d1 * d2 < 0.0:
            return None
        rho1, rho2 = y1 / y2, y2 / y3
        if abs(rho1 / rho2 - 1.0) > 0.02:
            return None
        e = math.log(d1 / d2) / math.log(rho1)
        if not (0.0 < e <= 2.0):
            return None
        s_fit = s3 - d2 / (rho2 ** e - 1.0)
        return s_fit, e

    last = triple(n - 3)
    if last is None:
        return slopes[-1], None, abs(slopes[-1] - slopes[-2])
    s_fit, e = last
    if n >= 4:
        prev = triple(n - 4)
        resid = abs(s_fit - prev[0]) if prev is not None \
            else abs(slopes[-1] - slopes[-2]) / 4.0
    else:
        resid = abs(slopes[-1] - slopes[-2]) / 4.0
    return s_fit, e, max(resid, 5e-16 * scale)


# -- transition slope ----------------------------------------------------------


def _transit_endpoint(rhs_xy, alpha, omega, y0, cfg) -> Tuple[float, float]:
    """y at {x = omega} for the orbit through (alpha, y0); (value, err)."""
    min_den = cfg.min_denominator

    def rhs_graph(x, state):
        y = state[0]
        p, q = rhs_xy(x, y)
        if p <= min_den * (x * x + y * y):
            raise _SwitchParametrization
        return (q / p,)

    try:
        res = _drive(rhs_graph, alpha, (y0,), cfg, t_end=omega,
                     parametrization="graph-over-x")
        return res.y[0], res.err_accum
    except _SwitchParametrization:
        pass

    # fold or sign change in the graph denominator: go by arclength
    def rhs_arc(_t, s):
        p, q = rhs_xy(s[0], s[1])
        v = math.hypot(p, q)
        if v < 1e-300:
            raise StepUnderflow("orbit hit a singular point")
        return (p / v, q / v)

    span = omega - alpha
    y_cap = 50.0 * max(abs(y0), 1.0)
    events = [
        _Event("arrive", lambda _t, s: s[0] - omega, direction=+1),
        _Event("escape_y", lambda _t, s: abs(s[1]) - y_cap, direction=+1),
        _Event("escape_back", lambda _t, s: (alpha - span) - s[0], direction=+1),
    ]
    res = _drive(rhs_arc, 0.0, (alpha, y0), cfg, t_end=None, events=events,
                 parametrization="arclength")
    if res.status != "event:arrive":
        raise TransitDoesNotExist(f"orbit from ({alpha}, {y0}) ended with "
                                  f"{res.status}")
    return res.y[1], res.err_accum


def transition_slope(nf: NormalFormField, sections, side: str,
                     offsets: Sequence[float] | None = None,
                     cfg: IntegratorConfig | None = None,
                     max_residual: float | None = None) -> SlopeEstimate:
    """Measured transition-map slope on one side of the singular fiber.

    Integrates dy/dx in graph parametrization while the denominator is
    safely positive (switching to arclength otherwise), measures
    Pi(y0)/y0 at each offset and extrapolates against the unknown
    remainder exponent.
    """
    cfg = cfg or IntegratorConfig()
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    cls = classify(invariants(nf))
    if not cls.is_fake_saddle:
        raise TransitDoesNotExist(f"classification is {cls.verdict.value}")
    offsets = list(offsets if offsets is not None else DEFAULT_OFFSETS)
    if any(o <= 0 for o in offsets) or any(offsets[i] <= offsets[i + 1]
                                           for i in range(len(offsets) - 1)):
        raise ValueError("offsets must be positive and strictly decreasing")
    sign = 1.0 if side == "+" else -1.0
    rhs_xy = nf.field().as_rhs()
    alpha, omega = sections.alpha, sections.omega

    used, slopes = [], []
    for y0 in offsets:
        y_end, err = _transit_endpoint(rhs_xy, alpha, omega, sign * y0, cfg)
        if used and err > 0.1 * abs(y_end):
            break  # integration noise would dominate smaller offsets
        used.append(y0)
        slopes.append(y_end / (sign * y0))
    value, exponent, residual = _extrapolate(used, slopes)
    if max_residual is not None and residual > max_residual:
        raise ExtrapolationUnstable(f"residual {residual} > {max_residual}")
    return SlopeEstimate(value, tuple(used), tuple(slopes), residual, exponent)


# -- return map ----------------------------------------------------------------


def _wind(rhs_xy, start, box: float, r_stall: float, cfg) -> _DriveResult:
    """Drive the orbit from ``start`` until it winds once around the origin.

    Stops with status "winding", or "event:box_exit" when the orbit leaves
    the box max(|x|, |y|) <= box, or "event:stall" when it falls inside
    radius ``r_stall``.  Integrated in time: degenerate loops have
    cusp-like corners where the speed nearly vanishes, which stay
    polynomially smooth in time but are unresolvable in arclength.
    """

    def rhs_time(_t, s):
        return rhs_xy(s[0], s[1])

    events = [
        _Event("box_exit", lambda _t, s: max(abs(s[0]), abs(s[1])) - box,
               direction=+1),
        _Event("stall", lambda _t, s: r_stall - math.hypot(s[0], s[1]),
               direction=+1),
    ]
    return _drive(rhs_time, 0.0, start, cfg, events=events,
                  winding_target=TWO_PI, autonomous=True)


def _loop_once(rhs_xy, start, box: float, cfg) -> Tuple[float, float]:
    """Radius of the first return to the starting ray (full winding)."""
    r0 = math.hypot(*start)
    try:
        # degenerate passes dip like a power of the offset
        res = _wind(rhs_xy, start, box, 1e-8 * r0 * r0, cfg)
    except (MaxStepsExceeded, StepUnderflow) as exc:
        raise NoReturn(str(exc)) from None
    if res.status != "winding":
        raise NoReturn(f"orbit from {start} ended with {res.status}")
    return math.hypot(res.y[0], res.y[1]), res.err_accum


def return_slope(field: PlanarField, section_scale: float = 1.0,
                 offsets: Sequence[float] | None = None,
                 cfg: IntegratorConfig | None = None,
                 box: float = 4.0, ray: str = "+y") -> SlopeEstimate:
    """Measured Poincare return-map slope around a monodromic origin.

    The section is a ray from the origin; the default "+y" ray
    {x = 0, y > 0} is the one on which the return map is the plain
    composition of the two fiber transitions (the derivative of the
    first-return map at a degenerate singular point depends on the
    section ray; measuring on "+x" conjugates it by a power map).
    Returns are detected by a full 2*pi winding of the continuous angle,
    which lands back on the starting ray; crossing direction matching is
    automatic because every ray crossing advances the winding the same
    way.  The caller asserts monodromy; NoReturn (guard-box exit or
    stall at the origin) signals that it fails.
    """
    cfg = cfg or IntegratorConfig()
    offsets = list(offsets if offsets is not None else DEFAULT_OFFSETS[:4])
    if ray not in ("+y", "+x"):
        raise ValueError("ray must be '+y' or '+x'")
    rhs_xy = field.as_rhs()
    used, slopes = [], []
    for o in offsets:
        r0 = section_scale * o
        start = (0.0, r0) if ray == "+y" else (r0, 0.0)
        # deep passes shrink below the offset scale; keep error control
        # relative there by tying the absolute tolerance to the offset
        run_cfg = replace(cfg, abs_tol=min(cfg.abs_tol, cfg.rel_tol * r0 * r0))
        x_ret, err = _loop_once(rhs_xy, start, box, run_cfg)
        if used and err > 0.1 * abs(x_ret):
            break
        used.append(o)
        slopes.append(x_ret / r0)
    value, exponent, residual = _extrapolate(used, slopes)
    return SlopeEstimate(value, tuple(used), tuple(slopes), residual, exponent)


# -- first integral drift ------------------------------------------------------


def conservation_check(field: PlanarField, first_integral, traj: Trajectory,
                       branch_quantum: float | None = None) -> float:
    """Max |H(sample) - H(start)| along a trajectory.

    ``branch_quantum``, when given, is the jump of H across its branch
    cut (e.g. 2*pi for an arctan term); jumps are unwound by shifting
    whole quanta, and leftover jumps above a quarter quantum raise
    BranchTrackingFailed.
    """
    del field  # the field only defines the orbit; H is checked on samples
    values = []
    for _s, x, y, _e in traj.samples:
        values.append(first_integral(x, y))
    adjusted = [values[0]]
    offset = 0.0
    for prev, cur in zip(values, values[1:]):
        dv = cur - prev
        if branch_quantum is not None and abs(dv) > branch_quantum / 2.0:
            k = round(dv / branch_quantum)
            if abs(dv - k * branch_quantum) > branch_quantum / 4.0:
                raise BranchTrackingFailed(
                    f"jump {dv} is not a whole number of quanta")
            offset -= k * branch_quantum
        adjusted.append(cur + offset)
    base = adjusted[0]
    return max(abs(v - base) for v in adjusted)


# -- monodromy probe -----------------------------------------------------------


class ProbeVerdict(enum.Enum):
    MONODROMIC = "monodromic"
    TRANSIT = "transit"
    UNDECIDED = "undecided"


def monodromy_probe(field: PlanarField, box: float = 2.0,
                    cfg: IntegratorConfig | None = None,
                    ring_radius: float | None = None,
                    n_rays: int = 12) -> ProbeVerdict:
    """Launch a ring of orbits around the origin and watch them wind.

    Monodromic when every orbit winds past a full turn inside the guard
    box; transit when any orbit leaves the box (it swept past along the
    fiber directions); undecided otherwise.
    """
    cfg = cfg or IntegratorConfig(rel_tol=1e-9, abs_tol=1e-13,
                                  max_steps=300_000)
    r0 = ring_radius if ring_radius is not None else 1e-9 * box
    rhs_xy = field.as_rhs()
    run_cfg = replace(cfg, abs_tol=min(cfg.abs_tol, cfg.rel_tol * r0))

    outcomes = []
    # degenerate passes dip like a power of the start radius; the stall
    # threshold must sit far below that to flag only true convergence
    r_stop = 1e-8 * r0 ** 1.5
    for k in range(n_rays):
        ang = TWO_PI * (k + 0.5) / n_rays
        start = (r0 * math.cos(ang), r0 * math.sin(ang))
        try:
            status = _wind(rhs_xy, start, box, r_stop, run_cfg).status
        except (MaxStepsExceeded, StepUnderflow):
            status = "stalled"
        if status == "winding":
            outcomes.append("wound")
        elif status == "event:box_exit":
            outcomes.append("exit")
        else:
            outcomes.append("stalled")
    if all(o == "wound" for o in outcomes):
        return ProbeVerdict.MONODROMIC
    if any(o == "exit" for o in outcomes):
        return ProbeVerdict.TRANSIT
    return ProbeVerdict.UNDECIDED
