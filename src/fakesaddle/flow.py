"""Numerical integration of planar fields and empirical slope measurement.

The integrator is an explicit embedded Runge-Kutta 5(4) pair
(Dormand-Prince coefficients) with FSAL, proportional step control,
cubic Hermite dense output and event location by bisection on the dense
output.  The field arrives compiled as sparse Horner source
(``PlanarField.as_rhs``) that writes only its nonzero coefficients, with
values bit for bit those of dense Horner.  Each state kind has one
generated drive loop (``_compile_loop``), unrolled from the tableau and a
template of the kind's stage slope.  It calls that compiled
``(x, y) -> (p, q)`` function directly and keeps the stages, the error
norm and the step control in local scalars:

- "xy": 2-D state (x, y) under time, or under arclength or backward
  time through a two-argument wrapper of the field;
- "wind": the xy state of a winding drive, whose loop itself tests the
  0.6-rad turn limit, the guard box, the stall radius and the full turn;
- "graph": 1-D state y as a graph over x, with slope q/p, where a stage
  at which p folds below ``_MIN_DENOMINATOR*(x^2 + y^2)`` gives way to
  arclength (the transit slopes); integrate()'s graph drive is
  unguarded and gives way only where p = 0.

integrate() and the arclength fallback keep their events and samples in
one Python function, ``accept``, that the loop calls on each accepted
step.  Every event is terminal: the first that fires ends the drive.

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
import sys
import textwrap
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple

from .normalform import NormalFormField, classify, invariants
from .polyfield import PlanarField

TWO_PI = 2.0 * math.pi

# The transit graph gives way to arclength where p <= this*(x^2 + y^2)
_MIN_DENOMINATOR = 1e-8


class StepUnderflow(Exception):
    """Step size collapsed below floating resolution (near-singular passage)."""


class MaxStepsExceeded(Exception):
    """Integration exceeded the configured step budget."""


class TransitDoesNotExist(Exception):
    """No transit orbit connects the two sections."""


class NoReturn(Exception):
    """Orbit left the guard box or stalled; no Poincare return."""


class BranchTrackingFailed(Exception):
    """First-integral branch unwinding became ambiguous."""


class _SwitchParametrization(Exception):
    """Internal: the graph-over-x drive gave way at the point (x, y) of its
    args, where the denominator guard tripped or p = 0."""


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    max_step: float | None = None

    def __post_init__(self):
        if not all(0.0 < tol < math.inf
                   for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError(f"tolerances must be positive and finite, got "
                             f"rel_tol={self.rel_tol}, abs_tol={self.abs_tol}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got "
                             f"{self.max_steps}")
        if self.max_step is not None and not 0.0 < self.max_step < math.inf:
            raise ValueError(f"max_step must be None or positive and finite, "
                             f"got {self.max_step}")


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


# Stage slope of each state kind, as source: how the loop turns a stage
# point into its slope with the field ``f(x, y) -> (p, q)`` (compiled by
# ``PlanarField.as_rhs``, or a wrapper of it).  ``{x}`` is the independent
# variable, ``{y0}``/``{y1}`` the state and ``{k0}``/``{k1}`` the slope's
# names; a template may use x, y, p and q as scratch names.
_KINDS = {
    # 2-D state (x, y) under time or arclength
    "xy": (2, "{k0}, {k1} = f({y0}, {y1})"),
    # 2-D state (x, y) under time, winding around the origin: _WIND_STEP
    "wind": (2, "{k0}, {k1} = f({y0}, {y1})"),
    # 1-D state y as a graph over x: dy/dx = q/p.  The graph gives way at
    # (x, y) where p folds below g*(x^2 + y^2), which a NaN g never does,
    # and where p = 0 leaves no slope at all
    "graph": (1, "x = {x}\n"
                 "y = {y0}\n"
                 "p, q = f(x, y)\n"
                 "if p <= g*(x*x + y*y):\n"
                 "    raise _SwitchParametrization(x, y)\n"
                 "try:\n"
                 "    {k0} = q/p\n"
                 "except ZeroDivisionError:\n"
                 "    raise _SwitchParametrization(x, y) from None"),
}


# The error norm's term of component i: the squared scaled error r_i of
# min(|e|/(abs_tol + rel_tol*max(|y|, |y5|)), 1e120).  The comparisons of
# the builtins are written out (max keeps its first argument unless the
# second is greater, min unless the second is smaller), so NaNs come out
# as the builtins let them through.
_SCALED_ERROR = """\
a_{i} = abs({e})
m = abs(y_{i})
m5_{i} = abs(y5_{i})
r_{i} = a_{i}/(abs_tol + rel_tol*(m5_{i} if m5_{i} > m else m))
if r_{i} > 1e120:
    r_{i} = 1e120"""

# The "wind" loop's tests of a step that passed the error test: a turn
# from y to y5 (as _angle_increment) above 0.6 rad halves the step; the
# upward crossings of max(|x|, |y|) - box (on _SCALED_ERROR's m5_i) and
# r_stall - |(x, y)|, then the full turn, each from its value at the
# step's start, return the stop.
_WIND_STEP = """\
cross = y_0*y5_1 - y_1*y5_0
dot = y_0*y5_0 + y_1*y5_1
turn = 0.0 if cross == 0.0 and dot == 0.0 else atan2(cross, dot)
if abs(turn) > 0.6 and t + 0.25*h != t:
    h *= 0.5
    continue
g = (m5_1 if m5_1 > m5_0 else m5_0) - box
if box_exit < 0.0 <= g:
    return 'box_exit', box_exit, {step}
box_exit = g
g = r_stall - hypot(y5_0, y5_1)
if stall < 0.0 <= g:
    return 'stall', stall, {step}
stall = g
if abs(theta + turn) >= {two_pi!r}:
    return 'winding', theta, {step}
theta += turn"""


def _compile_loop(kind: str):
    """The DP5(4) drive of one state kind, generated from the tableau.

    ``drive(f, abs_tol, rel_tol, t, state, max_step, max_steps, *rest)``
    runs the adaptive loop on local scalars from ``state`` at ``t``; ``f``
    is the field of the kind's stage template and ``max_step`` inf for no
    cap.  ``rest`` is ``g, t_end, autonomous, accept`` (graph guard, end or
    None, whether time may be rebased, hook or None), or for "wind" ``box,
    r_stall, box_exit, stall`` (the stops and their values at the start).
    The first step is 1e-2 (|state| + 1e-6)/(|slope| + 1e-300) in the max
    norm, at most the span to ``t_end`` and ``max_step``.  Each of at most
    ``max_steps`` attempts

    - clamps h to end at ``t_end``, returning there when nothing is left,
      and raises StepUnderflow when t + h == t;
    - takes the step (six stages, then the slope k7 of the 5th-order state
      y5), and halves h when y5 is not finite;
    - rejects the step unless the RMS of the scaled errors
      (``_SCALED_ERROR``) is at most 1, so also for a NaN norm, scaling h
      by max(0.2, 0.9 norm^-0.2);
    - calls ``accept(t_offset, t, h, y, k1, y5, k7, err_abs)``, with tuples
      and the largest |error|, if given: ``(status, t, state)`` ends the
      drive.  "wind" runs ``_WIND_STEP`` instead;
    - advances, returns at ``t_end``, moves the time origin of an
      autonomous drive (every "wind" drive) into ``t_offset`` once
      |t| > 1e13 h, and scales h by min(5, 0.9 norm^-0.2), 5 for a zero
      norm, capped at ``max_step``.

    It returns ``(status, t_offset + t, state, err_accum)``, with the sum
    of the accepted steps' largest errors, or raises MaxStepsExceeded.
    Stage sums run in the tableau's order from zero, as ``sum`` does,
    without zero terms and with ``h`` for ``1.0*h``, and ``min``/``max``
    are conditional expressions that keep the same operand first: every
    float is bit for bit that of the plain tableau loop, NaNs included.
    """
    n, stage = _KINDS[kind]
    wind = kind == "wind"
    comps = range(n)

    def names(name):
        return "".join(f"{name}_{i}, " for i in comps)

    def tup(name):
        return f"({names(name)})"

    def combo(coeffs, i):
        return "h*(0.0" + "".join(f" + {a!r}*k{m + 1}_{i}"
                                  for m, a in enumerate(coeffs) if a) + ")"

    def slope(s, x, ys):
        return stage.format(x=x, **{f"y{i}": ys[i] for i in comps},
                            **{f"k{i}": f"k{s}_{i}" for i in comps})

    def time(c):
        return "t + h" if c == 1.0 else f"t + {c!r}*h"

    stages = [slope(s + 1, time(_C[s]),
                    [f"y_{i} + {combo(_A[s], i)}" for i in comps])
              for s in range(1, 6)]
    stages += [f"y5_{i} = y_{i} + {combo(_A[6], i)}" for i in comps]
    stages.append(slope(7, time(_C[6]), [f"y5_{i}" for i in comps]))
    err_abs = "a_0"
    for i in comps[1:]:
        err_abs = f"(a_{i} if a_{i} > {err_abs} else {err_abs})"
    # no leading 0.0 + as in a sum from zero: a square is never -0.0
    norm_sum = " + ".join(f"r_{i}*r_{i}" for i in comps)
    step = (f"t_offset, t, h, {tup('y')}, {tup('k1')}, {tup('y5')}, "
            f"{tup('k7')}, err_accum + err_abs")
    end = f"return 't_end', t_offset + t, {tup('y')}, err_accum"
    if wind:
        params, clamp, at_end = "box, r_stall, box_exit, stall", [], []
        on_accept = [_WIND_STEP.format(step=step, two_pi=TWO_PI)]
    else:
        params = "g, t_end, autonomous, accept"
        clamp = ["if t_end is not None and t + h >= t_end:",
                 "    h = t_end - t",
                 "    if h <= 0.0:",
                 f"        {end}"]
        on_accept = [
            "if accept is not None:",
            f"    stop = accept(t_offset, t, h, {tup('y')}, {tup('k1')}, "
            f"{tup('y5')}, {tup('k7')}, err_abs)",
            "    if stop is not None:",
            "        return (*stop, err_accum + err_abs)"]
        at_end = ["if t_end is not None and t >= t_end:", f"    {end}"]
    attempt = "\n".join([
        *clamp,
        "if t + h == t:",
        "    raise StepUnderflow(f'step size {h} cannot advance t={t}')",
        *stages,
        "if not (" + " and ".join(f"isfinite(y5_{i})" for i in comps) + "):",
        "    h *= 0.5",
        "    continue",
        *(_SCALED_ERROR.format(i=i, e=combo(_E, i)) for i in comps),
        f"norm = sqrt(({norm_sum})/{n})",
        "if not norm <= 1.0:",
        "    fac = 0.9*norm**-0.2",
        "    h *= fac if fac > 0.2 else 0.2",
        "    continue",
        f"err_abs = {err_abs}",
        *on_accept,
        "err_accum += err_abs",
        "t += h",
        *(f"y_{i} = y5_{i}\nk1_{i} = k7_{i}" for i in comps),
        *at_end,
        "if " + ("" if wind else "autonomous and ") + "abs(t) > 1e13*h:",
        "    t_offset += t",
        "    t = 0.0",
        # an accepted norm is at most 1, so the factor is at least 0.9 and
        # of min(5, max(0.2, factor)) only the upper clamp can bind
        "fac = 0.9*norm**-0.2 if norm > 0 else 5.0",
        "h *= fac if fac < 5.0 else 5.0",
        "if max_step < h:",
        "    h = max_step",
    ])
    src = "\n".join([
        "def drive(f, abs_tol, rel_tol, t, state, max_step, max_steps, "
        f"{params}):",
        f"    {names('y')}= state",
        textwrap.indent(slope(1, "t", [f"y_{i}" for i in comps]), "    "),
        f"    h = 1e-2*(max(map(abs, state)) + 1e-6)/"
        f"(max(map(abs, {tup('k1')})) + 1e-300)",
        *([] if wind else ["    if t_end is not None:",
                           "        h = min(h, abs(t_end - t))"]),
        "    h = min(h, max_step)",
        "    t_offset = 0.0",
        "    err_accum = 0.0",
        *(["    theta = 0.0"] if wind else []),
        "    for _ in range(max_steps):",
        textwrap.indent(attempt, "        "),
        "    raise MaxStepsExceeded("
        "f'no stop condition met in {max_steps} steps')",
    ]) + "\n"
    ns: dict = {"isfinite": math.isfinite, "sqrt": math.sqrt,
                "atan2": math.atan2, "hypot": math.hypot,
                "StepUnderflow": StepUnderflow,
                "MaxStepsExceeded": MaxStepsExceeded,
                "_SwitchParametrization": _SwitchParametrization}
    # codegen over the tableau, under a name of its own in tracebacks and
    # profiles
    code = compile(src, f"<fakesaddle.flow loop {kind}>", "exec")
    exec(code, ns)  # noqa: S102
    return ns["drive"]


_LOOPS = {kind: _compile_loop(kind) for kind in _KINDS}


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
    """The drive ends where ``fn(t, state)`` crosses 0."""
    name: str
    fn: Callable[[float, Tuple[float, ...]], float]
    direction: int = 0  # +1 upward crossing, -1 downward, 0 any


@dataclass
class _DriveResult:
    trajectory: Trajectory | None  # None unless the drive kept samples
    status: str  # "t_end" | "event:<name>" | "winding"
    t: float
    y: Tuple[float, ...]
    err_accum: float


def _angle_increment(p, q):
    cross = p[0] * q[1] - p[1] * q[0]
    dot = p[0] * q[0] + p[1] * q[1]
    if cross == 0.0 and dot == 0.0:
        return 0.0
    return math.atan2(cross, dot)


def _bisect(before, h):
    """The bracket (lo, hi) of a stop in a step of size ``h``, as fractions
    of the step, where ``before(tau)`` says the stop lies beyond tau:
    halved 80 times, or until it spans less than 1e-12 in time."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if before(mid):
            lo = mid
        else:
            hi = mid
        if (hi - lo) * abs(h) < 1e-12:
            break
    return lo, hi


def _locate(fn, g0, t, h, y, k1, y5, k7):
    """(tau, state) where the event ``fn(t, state)``, ``g0`` at the step's
    start, crosses: mid-bracket of ``_bisect`` on the step's ``_hermite``."""
    lo, hi = _bisect(lambda tau: (g0 < 0.0) == (
        fn(t + tau * h, _hermite(y, k1, y5, k7, h, tau)) < 0.0), h)
    tau = 0.5 * (lo + hi)
    return tau, _hermite(y, k1, y5, k7, h, tau)


def _drive(kind, f, t0, y0, cfg: IntegratorConfig, *, guard=math.nan,
           t_end=None, events=(), parametrization="time", autonomous=False,
           keep_samples=False) -> _DriveResult:
    """Adaptive drive of the "xy" or "graph" kind: stops at t_end or
    where the first event crosses zero, located by ``_locate``.

    The kind's loop (``_compile_loop``) takes every step of the field
    ``f(x, y) -> (p, q)``; ``guard`` is the graph's fold threshold, which
    the NaN default never trips.  ``accept`` keeps the events and, with
    ``keep_samples``, a Trajectory.  ``autonomous=True`` lets the loop
    rebase the time origin for degenerate loops, which crawl through
    near-singular passes for astronomically long times; reported times
    stay absolute but may saturate float resolution.
    """
    y = tuple(float(v) for v in y0)

    def as_xy(tt, yy):
        return (yy[0], yy[1]) if len(yy) > 1 else (tt, yy[0])

    samples = [(t0, *as_xy(t0, y), 0.0)] if keep_samples else None
    ev_records: List[Tuple[str, Tuple[float, float, float]]] = []
    g_prev = [e.fn(t0, y) for e in events]

    def accept(t_offset, t, h, y, k1, y5, k7, err_abs):
        # the events and sample of one step, as _compile_loop says.  No
        # closure here: it would make cells of the locals on every call
        t1 = t + h
        for idx, ev in enumerate(events):
            g1 = ev.fn(t1, y5)
            g0 = g_prev[idx]
            if ((ev.direction >= 0 and g0 < 0.0 <= g1)
                    or (ev.direction <= 0 and g0 > 0.0 >= g1)):
                tau, y_ev = _locate(ev.fn, g0, t, h, y, k1, y5, k7)
                t_ev = t_offset + t + tau * h
                xe, ye = as_xy(t + tau * h, y_ev)
                if keep_samples:
                    samples.append((t_ev, xe, ye, err_abs))
                ev_records.append((ev.name, (t_ev, xe, ye)))
                return f"event:{ev.name}", t_ev, y_ev
            g_prev[idx] = g1
        if keep_samples:
            samples.append((t_offset + t1, *as_xy(t1, y5), err_abs))
        return None

    status, t, y, err_accum = _LOOPS[kind](
        f, cfg.abs_tol, cfg.rel_tol, t0, y, cfg.max_step or math.inf,
        cfg.max_steps, guard, t_end, autonomous,
        accept if keep_samples or events else None)
    traj = (Trajectory(samples, ev_records, parametrization)
            if keep_samples else None)
    return _DriveResult(traj, status, t, y, err_accum)


def _unit_speed(rhs_xy, sign=1.0):
    """``sign`` times the field ``rhs_xy`` scaled to unit speed: the field
    of an arclength drive, which StepUnderflow ends where it vanishes."""
    def f(x, y):
        p, q = rhs_xy(x, y)
        v = math.hypot(p, q)
        if v < 1e-300:
            raise StepUnderflow("vector field vanishes on the path")
        return sign * p / v, sign * q / v
    return f


# -- public integration --------------------------------------------------------


@dataclass(frozen=True)
class Stop:
    """Stop condition for integrate(), made by a constructor below: the
    drive ends where one of ``events`` fires or after ``span``; the graph
    takes only x_reaches, whose value is ``x_target``."""

    events: Tuple[_Event, ...] = ()
    span: float | None = None
    x_target: float | None = None

    @classmethod
    def x_reaches(cls, value: float) -> "Stop":
        value = _finite("value", value)
        return cls((_Event("x_reaches", lambda _t, s: s[0] - value),),
                   x_target=value)

    @classmethod
    def y_reaches(cls, value: float) -> "Stop":
        value = _finite("value", value)
        return cls((_Event("y_reaches", lambda _t, s: s[1] - value),))

    @classmethod
    def time_reaches(cls, value: float) -> "Stop":
        """Stop after ``value`` units of time (or arclength); forward or
        backward, the span is positive and finite."""
        if not 0.0 < value < math.inf:
            raise ValueError(f"time span must be positive and finite, "
                             f"got {value}")
        return cls(span=value)

    @classmethod
    def section(cls, axis: str, value: float, direction: int) -> "Stop":
        """Stop where the ``axis`` coordinate crosses the finite ``value``:
        upward for direction +1, downward for -1, either way for 0."""
        if axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        if direction not in (-1, 0, 1):
            raise ValueError(f"direction must be -1, 0 or 1, got {direction!r}")
        value = _finite("value", value)
        i = "xy".index(axis)
        return cls((_Event("section_crossing", lambda _t, s: s[i] - value,
                           direction),))

    @classmethod
    def window_exit(cls, x0: float, x1: float, y0: float, y1: float) -> "Stop":
        """Stop where the orbit leaves the finite, non-empty window
        [x0, x1] x [y0, y1]."""
        if not all(map(math.isfinite, (x0, x1, y0, y1))) \
                or not (x0 < x1 and y0 < y1):
            raise ValueError(f"window must be finite with x0 < x1 and "
                             f"y0 < y1, got {(x0, x1, y0, y1)}")

        def outside(_t, s):
            return max(s[0] - x1, x0 - s[0], s[1] - y1, y0 - s[1])

        return cls((_Event("window_exit", outside, direction=+1),))


def _finite(name, value):
    """``value``, which a stop that can fire needs to be finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def integrate(field: PlanarField, start: Tuple[float, float], stop: Stop,
              cfg: IntegratorConfig | None = None, param: str = "time",
              backward: bool = False) -> Trajectory:
    """Integrate a planar field from ``start`` until the stop condition.

    ``param`` selects the independent variable: "time", "arclength"
    (unit-speed, robust near degenerate points), or "graph" (y as a
    graph over x; only with an x-reaches stop, whose position relative
    to the start fixes the direction).  ``backward`` reverses the flow
    in time/arclength mode.  The graph raises TransitDoesNotExist, naming
    the point, where p = 0 at the start or at a stage point of a step.
    """
    cfg = cfg or IntegratorConfig()
    rhs_xy = field.as_rhs()

    if param == "graph":
        if stop.x_target is None:
            raise ValueError("graph parametrization needs Stop.x_reaches")
        x0, y0 = start
        x_target = stop.x_target
        flip = -1.0 if x_target < x0 else 1.0
        f = rhs_xy
        if flip < 0:  # drive -x forward: dy/d(-x) = -q/p at x
            def f(x, y):
                p, q = rhs_xy(-x, y)
                return p, -q

        # unguarded: the graph drive gives way only where p = 0
        try:
            res = _drive("graph", f, flip * x0, (y0,), cfg,
                         t_end=flip * x_target,
                         parametrization="graph-over-x", keep_samples=True)
        except _SwitchParametrization as fold:
            x, y = fold.args
            raise TransitDoesNotExist(
                f"p = 0 at ({flip * x}, {y}): the graph over x has no "
                f"slope q/p there") from None
        if flip < 0:  # report true x in samples
            res.trajectory.samples = [(-s, -s, y, e)
                                      for s, _x, y, e in res.trajectory.samples]
        return res.trajectory

    if param == "time":
        f = rhs_xy
        if backward:
            def f(x, y):
                p, q = rhs_xy(x, y)
                return -p, -q
    elif param == "arclength":
        f = _unit_speed(rhs_xy, -1.0 if backward else 1.0)
    else:
        raise ValueError(f"unknown parametrization {param!r}")

    res = _drive("xy", f, 0.0, start, cfg, t_end=stop.span,
                 events=stop.events, parametrization=param,
                 autonomous=stop.span is None, keep_samples=True)
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


def _checked_offsets(offsets, default) -> List[float]:
    """The offsets to measure at, ``default`` when None.

    The extrapolation runs toward the last offset, so they must be
    positive, finite and strictly decreasing.
    """
    offsets = list(offsets if offsets is not None else default)
    if not (all(0.0 < o < math.inf for o in offsets)
            and all(a > b for a, b in zip(offsets, offsets[1:]))):
        raise ValueError("offsets must be positive, finite and strictly "
                         f"decreasing, got {offsets}")
    return offsets


def _measured_slope(offsets, measure) -> SlopeEstimate:
    """The slope end/start extrapolated over the offsets, where
    ``measure(offset)`` drives one orbit from ``start`` to ``end`` with
    accumulated step error ``err`` and returns (start, end, err)."""
    used, slopes = [], []
    for o in offsets:
        start, end, err = measure(o)
        if used and err > 0.1 * abs(end):
            break  # integration noise would dominate smaller offsets
        used.append(o)
        slopes.append(end / start)
    value, exponent, residual = _extrapolate(used, slopes)
    return SlopeEstimate(value, tuple(used), tuple(slopes), residual, exponent)


# -- transition slope ----------------------------------------------------------


def _transit_endpoint(rhs_xy, alpha, omega, y0, cfg) -> Tuple[float, float]:
    """y at {x = omega} for the orbit through (alpha, y0); (value, err)."""
    try:
        res = _drive("graph", rhs_xy, alpha, (y0,), cfg,
                     guard=_MIN_DENOMINATOR, t_end=omega,
                     parametrization="graph-over-x")
        return res.y[0], res.err_accum
    except _SwitchParametrization:
        pass

    # fold or sign change in the graph denominator: go by arclength
    span = omega - alpha
    y_cap = 50.0 * max(abs(y0), 1.0)
    events = [
        _Event("arrive", lambda _t, s: s[0] - omega, direction=+1),
        _Event("escape_y", lambda _t, s: abs(s[1]) - y_cap, direction=+1),
        _Event("escape_back", lambda _t, s: (alpha - span) - s[0], direction=+1),
    ]
    res = _drive("xy", _unit_speed(rhs_xy), 0.0, (alpha, y0), cfg,
                 events=events, parametrization="arclength")
    if res.status != "event:arrive":
        raise TransitDoesNotExist(f"orbit from ({alpha}, {y0}) ended with "
                                  f"{res.status}")
    return res.y[1], res.err_accum


def transition_slope(nf: NormalFormField, sections, side: str,
                     offsets: Sequence[float] | None = None,
                     cfg: IntegratorConfig | None = None) -> SlopeEstimate:
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
    offsets = _checked_offsets(offsets, DEFAULT_OFFSETS)
    sign = 1.0 if side == "+" else -1.0
    rhs_xy = nf.field().as_rhs()
    alpha, omega = sections.alpha, sections.omega

    def measure(y0):
        y_end, err = _transit_endpoint(rhs_xy, alpha, omega, sign * y0, cfg)
        return sign * y0, y_end, err
    return _measured_slope(offsets, measure)


# -- return map ----------------------------------------------------------------


def _wind(rhs_xy, start, box: float, r_stall: float, cfg) -> _DriveResult:
    """Drive the orbit from ``start`` until it winds once around the origin.

    Stops with status "winding", or "event:box_exit" when the orbit leaves
    the box max(|x|, |y|) <= box, or "event:stall" when it falls inside
    radius ``r_stall``.  Integrated in time: degenerate loops have
    cusp-like corners where the speed nearly vanishes, which stay
    polynomially smooth in time but are unresolvable in arclength.  The
    box guards only a start strictly inside it, so any other start, or a
    box that is not finite, raises ValueError.  The "wind" loop tests each
    step, and the stop is located on its step's Hermite interpolant.
    """
    if not max(abs(start[0]), abs(start[1])) < box < math.inf:
        raise ValueError(f"start {start} must lie strictly inside a finite, "
                         f"positive guard box, got box={box}")
    events = {"box_exit": lambda _t, s: max(abs(s[0]), abs(s[1])) - box,
              "stall": lambda _t, s: r_stall - math.hypot(s[0], s[1])}
    stop, before, t_offset, t, h, y, k1, y5, k7, err_accum = _LOOPS["wind"](
        rhs_xy, cfg.abs_tol, cfg.rel_tol, 0.0, start,
        cfg.max_step or math.inf, cfg.max_steps, box, r_stall,
        *(fn(0.0, start) for fn in events.values()))
    if stop == "winding":
        _lo, tau = _bisect(lambda tau: not abs(before + _angle_increment(
            y, _hermite(y, k1, y5, k7, h, tau))) >= TWO_PI, h)
        y_stop = _hermite(y, k1, y5, k7, h, tau)
    else:
        tau, y_stop = _locate(events[stop], before, t, h, y, k1, y5, k7)
        stop = f"event:{stop}"
    return _DriveResult(None, stop, t_offset + t + tau * h, y_stop, err_accum)


def return_slope(field: PlanarField, section_scale: float = 1.0,
                 offsets: Sequence[float] | None = None,
                 cfg: IntegratorConfig | None = None,
                 box: float = 4.0) -> SlopeEstimate:
    """Measured Poincare return-map slope around a monodromic origin.

    The section is the ray {x = 0, y > 0}, on which the return map is the
    plain composition of the two fiber transitions, and the orbits start
    on it at ``section_scale`` times each offset, strictly inside the
    guard box max(|x|, |y|) < ``box``.  Returns are detected by a full
    2*pi winding of the continuous angle, which lands back on the
    starting ray; crossing direction matching is automatic because every
    ray crossing advances the winding the same way.  The caller asserts
    monodromy; NoReturn (guard-box exit or stall at the origin) signals
    that it fails.
    """
    cfg = cfg or IntegratorConfig()
    offsets = _checked_offsets(offsets, DEFAULT_OFFSETS[:4])
    if not 0.0 < section_scale < math.inf:
        raise ValueError(f"section_scale must be positive and finite, "
                         f"got {section_scale}")
    r0 = section_scale * offsets[-1]  # the deepest start
    if min(cfg.rel_tol * r0 * r0, 1e-8 * r0 * r0) < sys.float_info.min:
        raise ValueError(f"section_scale {section_scale} is too small: "
                         f"rel_tol*r0^2 or 1e-8*r0^2 underflows at r0 = {r0}")
    rhs_xy = field.as_rhs()

    def measure(o):
        # one orbit from the ray at radius r0 to its first return there
        r0 = section_scale * o
        start = (0.0, r0)
        # deep passes shrink below the offset scale; keep error control
        # relative there by tying the absolute tolerance to the offset
        run_cfg = replace(cfg, abs_tol=min(cfg.abs_tol, cfg.rel_tol * r0 * r0))
        try:
            # degenerate passes dip like a power of the offset
            res = _wind(rhs_xy, start, box, 1e-8 * r0 * r0, run_cfg)
        except (MaxStepsExceeded, StepUnderflow) as exc:
            raise NoReturn(str(exc)) from None
        if res.status != "winding":
            raise NoReturn(f"orbit from {start} ended with {res.status}")
        return r0, math.hypot(res.y[0], res.y[1]), res.err_accum
    return _measured_slope(offsets, measure)


# -- first integral drift ------------------------------------------------------


def conservation_check(first_integral, traj: Trajectory,
                       branch_quantum: float | None = None) -> float:
    """Max |H(sample) - H(start)| along a trajectory.

    ``branch_quantum``, when given, is the jump of H across its branch
    cut (e.g. 2*pi for an arctan term); jumps are unwound by shifting
    whole quanta, and leftover jumps above a quarter quantum raise
    BranchTrackingFailed.
    """
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
                    ring_radius: float | None = None) -> ProbeVerdict:
    """Launch a ring of 12 orbits around the origin and watch them wind.

    Monodromic when every orbit winds past a full turn inside the guard
    box max(|x|, |y|) < ``box``; transit at the first orbit that leaves
    the box (it swept past along the fiber directions); undecided
    otherwise.  The ring radius, ``1e-9*box`` by default, must be positive
    and less than the finite box.
    """
    cfg = cfg or IntegratorConfig(rel_tol=1e-9, abs_tol=1e-13,
                                  max_steps=300_000)
    r0 = ring_radius if ring_radius is not None else 1e-9 * box
    if not 0.0 < r0 < box < math.inf:
        raise ValueError(f"need 0 < ring radius < box < inf, got ring "
                         f"radius {r0} and box {box}")
    rhs_xy = field.as_rhs()
    run_cfg = replace(cfg, abs_tol=min(cfg.abs_tol, cfg.rel_tol * r0))

    wound = 0
    # degenerate passes dip like a power of the start radius; the stall
    # threshold must sit far below that to flag only true convergence
    r_stop = 1e-8 * r0 ** 1.5
    for k in range(12):
        ang = TWO_PI * (k + 0.5) / 12
        start = (r0 * math.cos(ang), r0 * math.sin(ang))
        try:
            status = _wind(rhs_xy, start, box, r_stop, run_cfg).status
        except (MaxStepsExceeded, StepUnderflow):
            continue
        if status == "event:box_exit":
            return ProbeVerdict.TRANSIT  # one exit decides
        wound += status == "winding"
    return ProbeVerdict.MONODROMIC if wound == 12 else ProbeVerdict.UNDECIDED
