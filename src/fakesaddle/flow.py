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

- "xy": 2-D state under time, or, through a two-argument wrapper of the
  field, arclength, backward time or the weighted polar chart;
- "graph": 1-D state y as a graph over x, with slope q/p, of an orbit
  that runs rightward: a stage at which p falls to
  ``_MIN_DENOMINATOR*(x^2 + y^2)`` or below, where the orbit folds over
  x, ends it.  The transit slopes then go on by arclength, and
  integrate() raises TransitDoesNotExist.

The xy drives of integrate() and of the arclength fallback each stop at
one event, a ``Stop``; the fallback also ends, with TransitDoesNotExist,
at a step that turns back across an equilibrium.  One Python function,
``accept``, that the loop calls on each accepted step, tests it and
keeps the samples.

On top of the integrator sit the measured counterparts of the
closed-form transition theory: transition-map slopes across a fake
saddle, Poincare return-map slopes around a monodromic point, a
first-integral drift check and a monodromy probe.  The return slopes
and the probe run in the weighted polar chart of the field's Newton
diagram (``_weighted_polar``), where a turn is theta moving by 2*pi.

Everything is deterministic for a fixed configuration and free of
shared mutable state, so parameter sweeps can run concurrently.
"""

from __future__ import annotations

import enum
import math
import textwrap
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .normalform import NormalFormField, classify, invariants
from .polyfield import PlanarField, newton_weights

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
    """Orbit left the guard box or fell onto the origin: no return."""


class BranchTrackingFailed(Exception):
    """First-integral branch unwinding became ambiguous."""


class _SwitchParametrization(Exception):
    """Internal: the graph-over-x drive gave way at the point (x, y) of its
    args, where p fell to _MIN_DENOMINATOR*(x^2 + y^2) or below."""


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
    """Adaptive-step solution samples (s, x, y, step_error)."""

    samples: List[Tuple[float, float, float, float]]
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
    # 2-D state (x, y) under time or arclength, or (rho, theta) of a chart
    "xy": (2, "{k0}, {k1} = f({y0}, {y1})"),
    # 1-D state y as a graph over x: dy/dx = q/p.  The graph gives way at
    # (x, y) where p falls to _MIN_DENOMINATOR*(x^2 + y^2), p = 0 included
    "graph": (1, "x = {x}\n"
                 "y = {y0}\n"
                 "p, q = f(x, y)\n"
                 f"if p <= {_MIN_DENOMINATOR!r}*(x*x + y*y):\n"
                 "    raise _SwitchParametrization(x, y)\n"
                 "{k0} = q/p"),
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

def _compile_loop(kind: str):
    """The DP5(4) drive of one state kind, generated from the tableau.

    ``drive(f, abs_tol, rel_tol, t, state, max_step, max_steps, *rest)``
    runs the adaptive loop on local scalars from ``state`` at ``t``; ``f``
    is the field of the kind's stage template and ``max_step`` inf for no
    cap, and ``t_end``, ``autonomous`` and ``accept`` are the end or
    None, whether time may be rebased, and the hook or None.
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
      and the largest |error|, if given: a state it returns ends the drive
      there;
    - advances, returns at ``t_end``, moves the time origin of an
      autonomous drive into ``t_offset`` once
      |t| > 1e13 h, and scales h by min(5, 0.9 norm^-0.2), 5 for a zero
      norm, capped at ``max_step``.

    It returns ``(state, err_accum)``, with the sum of the accepted steps'
    largest errors, or raises MaxStepsExceeded.
    Stage sums run in the tableau's order from zero, as ``sum`` does,
    without zero terms and with ``h`` for ``1.0*h``, and ``min``/``max``
    are conditional expressions that keep the same operand first: every
    float is bit for bit that of the plain tableau loop, NaNs included.
    """
    n, stage = _KINDS[kind]
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
    end = f"return {tup('y')}, err_accum"
    attempt = "\n".join([
        "if t_end is not None and t + h >= t_end:",
        "    h = t_end - t",
        "    if h <= 0.0:",
        f"        {end}",
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
        "if accept is not None:",
        f"    y_stop = accept(t_offset, t, h, {tup('y')}, {tup('k1')}, "
        f"{tup('y5')}, {tup('k7')}, err_abs)",
        "    if y_stop is not None:",
        "        return y_stop, err_accum + err_abs",
        "err_accum += err_abs",
        "t += h",
        *(f"y_{i} = y5_{i}\nk1_{i} = k7_{i}" for i in comps),
        "if t_end is not None and t >= t_end:",
        f"    {end}",
        "if autonomous and abs(t) > 1e13*h:",
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
        "t_end, autonomous, accept):",
        f"    {names('y')}= state",
        textwrap.indent(slope(1, "t", [f"y_{i}" for i in comps]), "    "),
        f"    h = 1e-2*(max(map(abs, state)) + 1e-6)/"
        f"(max(map(abs, {tup('k1')})) + 1e-300)",
        "    if t_end is not None:",
        "        h = min(h, abs(t_end - t))",
        "    h = min(h, max_step)",
        "    t_offset = 0.0",
        "    err_accum = 0.0",
        "    for _ in range(max_steps):",
        textwrap.indent(attempt, "        "),
        "    raise MaxStepsExceeded("
        "f'no stop condition met in {max_steps} steps')",
    ]) + "\n"
    ns: dict = {"isfinite": math.isfinite, "sqrt": math.sqrt,
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


def _locate(fn, g0, t, h, y, k1, y5, k7):
    """(tau, state) where the event ``fn(t, state)``, ``g0`` at the step's
    start, crosses: the mid-bracket on the step's ``_hermite``, with the
    bracket, as fractions of the step, halved 80 times or until it spans
    less than 1e-12 in time."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (g0 < 0.0) == (fn(t + mid * h,
                             _hermite(y, k1, y5, k7, h, mid)) < 0.0):
            lo = mid
        else:
            hi = mid
        if (hi - lo) * abs(h) < 1e-12:
            break
    tau = 0.5 * (lo + hi)
    return tau, _hermite(y, k1, y5, k7, h, tau)


def _drive(kind, f, t0, y0, cfg: IntegratorConfig, *, t_end=None,
           stop: Stop | None = None, parametrization="time",
           autonomous=False, keep_samples=False, turn_back=False):
    """Adaptive drive of the "xy" or "graph" kind to t_end, or to where
    the ``stop`` crosses zero, located by ``_locate``.  Returns (state,
    accumulated error, Trajectory or None).

    The kind's loop (``_compile_loop``) takes every step of the field
    ``f(x, y) -> (p, q)``.  ``accept`` tests the stop and, with
    ``keep_samples``, keeps a Trajectory.  With ``turn_back``, a step
    whose end slope points against its start slope raises
    TransitDoesNotExist naming its end: on a unit-speed field, where the
    slope is the orbit's direction, that marks a step across an
    equilibrium, which the orbit would otherwise cross back and forth
    until the step budget runs out.  ``autonomous=True`` lets the
    loop rebase the time origin for degenerate loops, which crawl through
    near-singular passes for astronomically long times; reported times
    stay absolute but may saturate float resolution.
    """
    y = tuple(float(v) for v in y0)

    def as_xy(tt, yy):
        return (yy[0], yy[1]) if len(yy) > 1 else (tt, yy[0])

    samples = [(t0, *as_xy(t0, y), 0.0)] if keep_samples else None
    g0 = stop.fn(t0, y) if stop is not None else None

    def accept(t_offset, t, h, y, k1, y5, k7, err_abs):
        # the stop and sample of one step, as _compile_loop says.  No
        # closure here: it would make cells of the locals on every call
        nonlocal g0
        t1 = t + h
        if turn_back and k1[0] * k7[0] + k1[1] * k7[1] < 0.0:
            raise TransitDoesNotExist(
                f"the orbit turns back at ({y5[0]}, {y5[1]}): it runs into "
                f"an equilibrium there")
        if stop is not None:
            g1 = stop.fn(t1, y5)
            if ((stop.direction >= 0 and g0 < 0.0 <= g1)
                    or (stop.direction <= 0 and g0 > 0.0 >= g1)):
                tau, y_stop = _locate(stop.fn, g0, t, h, y, k1, y5, k7)
                if keep_samples:
                    samples.append((t_offset + t + tau * h,
                                    *as_xy(t + tau * h, y_stop), err_abs))
                return y_stop
            g0 = g1
        if keep_samples:
            samples.append((t_offset + t1, *as_xy(t1, y5), err_abs))
        return None

    y, err_accum = _LOOPS[kind](
        f, cfg.abs_tol, cfg.rel_tol, t0, y, cfg.max_step or math.inf,
        cfg.max_steps, t_end, autonomous,
        accept if keep_samples or stop is not None else None)
    return (y, err_accum,
            Trajectory(samples, parametrization) if keep_samples else None)


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
    """The event that ends a drive, made by a constructor below: the
    drive ends where ``fn(t, state)`` crosses 0, upward for ``direction``
    +1, downward for -1, either way for 0.  The graph takes only
    x_reaches, whose value is ``x_target``."""

    name: str
    fn: Callable[[float, Tuple[float, ...]], float]
    direction: int = 0
    x_target: float | None = None

    @classmethod
    def x_reaches(cls, value: float) -> "Stop":
        value = _finite("value", value)
        return cls("x_reaches", lambda _t, s: s[0] - value, x_target=value)

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
        return cls("section_crossing", lambda _t, s: s[i] - value, direction)

    @classmethod
    def window_exit(cls, x0: float, x1: float, y0: float, y1: float) -> "Stop":
        """Stop where the orbit leaves the finite, non-empty window
        [x0, x1] x [y0, y1]: where the largest signed distance past one of
        its sides crosses 0 upward, so only from a start strictly inside."""
        if not all(map(math.isfinite, (x0, x1, y0, y1))) \
                or not (x0 < x1 and y0 < y1):
            raise ValueError(f"window must be finite with x0 < x1 and "
                             f"y0 < y1, got {(x0, x1, y0, y1)}")

        def outside(_t, s):
            return max(s[0] - x1, x0 - s[0], s[1] - y1, y0 - s[1])

        return cls("window_exit", outside, +1)


def _finite(name, value):
    """``value``, which a stop that can fire needs to be finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def integrate(field: PlanarField, start: Tuple[float, float], stop: Stop,
              cfg: IntegratorConfig | None = None, param: str = "time",
              backward: bool = False) -> Trajectory:
    """Integrate a planar field from ``start`` until the stop's event.

    ``param`` selects the independent variable: "time", "arclength"
    (unit-speed, robust near degenerate points), or "graph" (y as a
    graph over x; only with an x-reaches stop, whose position relative
    to the start fixes the direction).  ``backward`` reverses the flow
    in time/arclength mode.  The graph follows an orbit that runs
    rightward, whichever way it is traced: where p falls to
    ``_MIN_DENOMINATOR*(x^2 + y^2)`` or below, at the start or at a stage
    point of a step, the orbit folds over x, and the graph raises
    TransitDoesNotExist naming the point.  A window_exit stop raises
    ValueError unless its window strictly contains the start.
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

        try:
            _y, _err, traj = _drive("graph", f, flip * x0, (y0,), cfg,
                                    t_end=flip * x_target,
                                    parametrization="graph-over-x",
                                    keep_samples=True)
        except _SwitchParametrization as fold:
            x, y = fold.args
            raise TransitDoesNotExist(
                f"the graph over x folds at ({flip * x}, {y}): p <= "
                f"{_MIN_DENOMINATOR}*(x^2 + y^2) there") from None
        if flip < 0:  # report true x in samples
            traj.samples = [(-s, -s, y, e) for s, _x, y, e in traj.samples]
        return traj

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

    if stop.name == "window_exit" and not stop.fn(0.0, start) < 0.0:
        raise ValueError(f"start {start} must lie strictly inside the "
                         f"window of the stop")
    _y, _err, traj = _drive("xy", f, 0.0, start, cfg, stop=stop,
                            parametrization=param, autonomous=True,
                            keep_samples=True)
    return traj


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
        (y_end,), err, _ = _drive("graph", rhs_xy, alpha, (y0,), cfg,
                                  t_end=omega)
        return y_end, err
    except _SwitchParametrization:
        pass

    # the graph folds: go by arclength until the orbit leaves a window,
    # which a transit leaves through x = omega, the side it ends nearest,
    # or runs into an equilibrium
    y_cap = 50.0 * max(abs(y0), 1.0)
    window = Stop.window_exit(alpha - (omega - alpha), omega, -y_cap, y_cap)
    (x, y), err, _ = _drive("xy", _unit_speed(rhs_xy), 0.0, (alpha, y0), cfg,
                            stop=window, turn_back=True)
    if window.fn(0.0, (x, y)) != x - omega:
        raise TransitDoesNotExist(f"orbit from ({alpha}, {y0}) left its "
                                  f"window at ({x}, {y}), not through "
                                  f"x = {omega}")
    return y, err


def transition_slope(nf: NormalFormField, sections, side: str,
                     offsets: Sequence[float] | None = None,
                     cfg: IntegratorConfig | None = None) -> SlopeEstimate:
    """Measured transition-map slope on one side of the singular fiber.

    Integrates dy/dx in graph parametrization while the denominator is
    safely positive (switching to arclength otherwise), measures
    Pi(y0)/y0 at each offset and extrapolates against the unknown
    remainder exponent.  Raises TransitDoesNotExist when the arclength
    orbit leaves its window elsewhere than through x = omega, or runs
    into an equilibrium.
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


# -- return map in the weighted polar chart ------------------------------------

# The least chart radius a return may start from: below it the error
# control no longer sees the r-terms that carry the orbit past the fake
# saddles (z(-1, 2) 6e-7 off from r = 1e-8, 1e-4 from 1e-10; z(1, 1) 28%
# off from 1e-12)
_DEPTH_FLOOR = 1e-8
# A chart orbit from rho0 = log r0 < 0 down at 4 rho0 - _RHO_DROP falls
# onto the origin; past a fake saddle z(1, 1) dips from the ray to ~r0^3
_RHO_DROP = 8.0 * math.log(10.0)
# return_slope's guard box max(|x|, |y|) < 4 around the origin
_RETURN_BOX = 4.0


def _weighted_polar(field: PlanarField):
    """(a, b, f): the field over (rho, theta) in the chart x = r^a c,
    y = r^b s, rho = log r, c = cos(theta), s = sin(theta), of the Newton
    weights (a, b, d) (``newton_weights``).  With p = r^(d+a) P, q =
    r^(d+b) Q and dt = (a c^2 + b s^2) dtau/r^d, rho' = c P + s Q and
    theta' = a c Q - b s P, from one ``field.as_rhs()`` call.  A stage
    whose theta is infinite, whose powers of r overflow or whose
    r^(d+a) or r^(d+b) is 0 has slope (inf, inf): the loop halves h."""
    a, b, d = newton_weights(field)
    rhs = field.as_rhs()
    exp, cos, sin, inf = math.exp, math.cos, math.sin, math.inf

    def f(rho, theta):
        try:
            c, s = cos(theta), sin(theta)
            r = exp(rho)
            ra, rb, rd = r ** a, r ** b, r ** d
            p, q = rhs(ra * c, rb * s)
            big_p, big_q = p / (rd * ra), q / (rd * rb)
        except (ValueError, OverflowError, ZeroDivisionError):
            return inf, inf
        return c * big_p + s * big_q, a * c * big_q - b * s * big_p
    return a, b, f


def _chart_point(a: int, b: int, x: float, y: float):
    """(rho, theta) of (x, y), both nonzero, under weights (a, b): rho
    solves (x/r^a)^2 + (y/r^b)^2 = 1, bisected from where one term is 1
    to where both are at most 1/4."""
    lx, ly = math.log(abs(x)), math.log(abs(y))
    lo = max(lx / a, ly / b)
    hi = lo + math.log(2.0) / min(a, b)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if math.exp(2 * (lx - a * mid)) + math.exp(2 * (ly - b * mid)) > 1:
            lo = mid
        else:
            hi = mid
    return lo, math.atan2(y * math.exp(-b * lo), x * math.exp(-a * lo))


def _turn(chart, rho0: float, theta0: float, box: float, cfg):
    """(status, rho, accumulated error) of the chart orbit from (rho0,
    theta0) where the first of three stops crosses, as one upward
    ``Stop`` on the largest: "turn" at |theta - theta0| = 2*pi,
    "box_exit" at max(|x|, |y|) = ``box`` and "floor" at rho =
    min(4 rho0, rho0) - ``_RHO_DROP``.  A start not strictly inside the
    box raises ValueError."""
    a, b, f = chart
    log_box, floor = math.log(box), min(4.0 * rho0, rho0) - _RHO_DROP

    def parts(state):
        rho, theta = state
        c, s = abs(math.cos(theta)), abs(math.sin(theta))
        return (abs(theta - theta0) - TWO_PI,
                max(a * rho + math.log(c) if c else -math.inf,
                    b * rho + math.log(s) if s else -math.inf) - log_box,
                floor - rho)

    stop = Stop("turn", lambda _t, state: max(parts(state)), +1)
    if not stop.fn(0.0, (rho0, theta0)) < 0.0:
        raise ValueError(f"start rho={rho0}, theta={theta0} must lie strictly "
                         f"inside the guard box max(|x|, |y|) < {box}")
    state, err, _ = _drive("xy", f, 0.0, (rho0, theta0), cfg, stop=stop,
                           autonomous=True)
    g = parts(state)
    return ("turn", "box_exit", "floor")[g.index(max(g))], state[0], err


def return_slope(field: PlanarField, section_scale: float = 1e-8,
                 offsets: Sequence[float] | None = None,
                 cfg: IntegratorConfig | None = None) -> SlopeEstimate:
    """Measured Poincare return-map slope around a monodromic origin.

    The section is the ray {x = 0, y > 0}, on which the return map is the
    plain composition of the two fiber transitions.  Orbits start on it
    at y0 = ``section_scale`` times each offset (1 and 1e-4 by default),
    strictly inside the guard box max(|x|, |y|) < 4, and run in the
    weighted polar chart (``_weighted_polar``) until theta has moved
    through 2*pi: the slope is exp(b (rho1 - rho0)).  A start below chart
    radius 1e-8 (y0 = 1e-16 under weights (1, 2)) is a ValueError before
    any orbit runs.  The value is the deepest start's; the residual is
    the starts' spread plus 10 times the slope error its accumulated step
    error implies.  The caller asserts monodromy; NoReturn (guard-box
    exit, a fall onto the origin) signals that it fails.
    """
    cfg = cfg or IntegratorConfig()
    offsets = _checked_offsets(offsets, (1.0, 1e-4))
    if not 0.0 < section_scale < math.inf:
        raise ValueError(f"section_scale must be positive and finite, "
                         f"got {section_scale}")
    chart = _weighted_polar(field)
    b = chart[1]
    if not (section_scale * offsets[-1]) ** (1.0 / b) >= _DEPTH_FLOOR:
        raise ValueError(f"section_scale {section_scale} is too small: the "
                         f"deepest start lies below the depth floor, chart "
                         f"radius {_DEPTH_FLOOR}, where returns go wrong")
    slopes = []
    for o in offsets:
        y0 = section_scale * o
        rho0 = math.log(y0) / b
        try:
            status, rho, err = _turn(chart, rho0, math.pi / 2.0, _RETURN_BOX,
                                     cfg)
        except (MaxStepsExceeded, StepUnderflow) as exc:
            raise NoReturn(str(exc)) from None
        if status != "turn":
            raise NoReturn(f"orbit from (0, {y0}) ended with {status}")
        slopes.append(math.exp(b * (rho - rho0)))
    value = slopes[-1]
    return SlopeEstimate(value, tuple(offsets), tuple(slopes),
                         max(slopes) - min(slopes) + 10.0 * b * value * err)


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


# monodromy_probe's integrator, looser than the default and with a
# smaller step budget per orbit: every verdict on both benchmark pools and
# every casebook and test field holds from rel_tol 1e-9 to 1e-5
_PROBE_CFG = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, max_steps=300_000)


def monodromy_probe(field: PlanarField, box: float = 2.0,
                    ring_radius: float | None = None) -> ProbeVerdict:
    """Launch a ring of 12 orbits around the origin and watch them turn.

    The ring is the circle of radius ``ring_radius``, ``1e-9*box`` by
    default, which must be positive and less than the finite box; its
    orbits run in the weighted polar chart (``_weighted_polar``).  A ring
    at that chart radius would start between the fake saddles, from
    where a strongly expanding focus such as z(1, 0.3) leaves the box of
    10 within one turn.  Monodromic when every orbit turns through 2*pi
    inside the guard box max(|x|, |y|) < ``box``; transit at the first
    orbit that leaves the box (it swept past along the fiber
    directions); undecided otherwise, also where an orbit falls onto the
    origin or runs out of ``_PROBE_CFG``'s steps.
    """
    r0 = ring_radius if ring_radius is not None else 1e-9 * box
    if not 0.0 < r0 < box < math.inf:
        raise ValueError(f"need 0 < ring radius < box < inf, got ring "
                         f"radius {r0} and box {box}")
    chart = _weighted_polar(field)
    wound = 0
    for k in range(12):
        ang = TWO_PI * (k + 0.5) / 12
        rho, theta = _chart_point(chart[0], chart[1], r0 * math.cos(ang),
                                  r0 * math.sin(ang))
        try:
            status, _rho, _err = _turn(chart, rho, theta, box, _PROBE_CFG)
        except (MaxStepsExceeded, StepUnderflow):
            continue
        if status == "box_exit":
            return ProbeVerdict.TRANSIT  # one exit decides
        wound += status == "turn"
    return ProbeVerdict.MONODROMIC if wound == 12 else ProbeVerdict.UNDECIDED
