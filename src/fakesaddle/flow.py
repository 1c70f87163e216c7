"""Numerical integration of planar fields and empirical slope measurement.

The integrator is an explicit embedded Runge-Kutta 5(4) pair
(Dormand-Prince coefficients) with FSAL, Gustafsson's predictive step
control (Hairer & Wanner, Solving ODEs II, IV.8), cubic Hermite dense
output and event location by bisection on the dense output.  Fields
arrive compiled as sparse Horner source (``PlanarField.as_rhs``), bit
for bit dense Horner.  Each state kind has one drive loop
(``_compile_loop``), generated from the tableau and the kind's stage
template, that calls its field directly and keeps the stages, the error
norm and the step control in local scalars:

- "xy": 2-D state under arclength, either way, or a chart clock, of
  ``(x, y) -> (p, q)`` or a wrapper of it: integrate()'s arclength and
  the weighted polar chart;
- "graph": 1-D state as a graph over the independent variable, of a
  field that returns the slope: integrate()'s y over x, which raises
  TransitDoesNotExist where p falls to ``_MIN_DENOMINATOR*(x^2 + y^2)``
  or below, and all three legs of a transit, v = log(y/y0) over log|x|
  and over u = x/|y|.

Every drive runs on a bounded clock, arclength, x or a chart variable,
that no stop reads.  A drive ends at t_end or at one event, a ``Stop``
on the state, that ``accept``, the function the loop calls on each
accepted step, tests with the samples;
the transit legs pass their own, which ends a leg at a step's end, and
so does a turn of the chart (``_turn``), which tests its stop's sign by
comparisons and takes logs only near a crossing.

On top sit the measured counterparts of the closed-form transition
theory: transition and Poincare return slopes, a first-integral drift
check and a monodromy probe.  Each slope is read off deep orbits in a
chart, with no fit: the transit in v = log(y/y0) (``_transit``), the
return and the probe in the weighted polar chart of the field's Newton
diagram (``_weighted_polar``), where a turn is theta moving by 2*pi.  A
stage of that chart is one field call, with the powers of r as products
(``_compile_chart``), not float ``**``.

Everything is deterministic for a fixed configuration and free of
shared mutable state, so parameter sweeps can run concurrently.
"""

from __future__ import annotations

import enum
import functools
import math
import textwrap
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .asymptotics import NotHyperbolicFakeSaddle
from .normalform import NormalFormField, Verdict, classify, invariants
from .polyfield import PlanarField, newton_weights

TWO_PI = 2.0 * math.pi

# integrate()'s graph over x folds where p <= this*(x^2 + y^2)
_MIN_DENOMINATOR = 1e-8


class _DriveFailure(Exception):
    """A drive that cannot go on: ``t`` and ``state`` are where the drive
    loop stood, None when raised outside it."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t, self.state = t, state


class StepUnderflow(_DriveFailure):
    """Step size collapsed below floating resolution (near-singular passage)."""


class MaxStepsExceeded(_DriveFailure):
    """Integration exceeded the configured step budget."""


class TransitDoesNotExist(Exception):
    """No transit orbit connects the two sections."""


class NoReturn(Exception):
    """Orbit left the guard box or fell onto the origin: no return."""


class BranchTrackingFailed(Exception):
    """First-integral branch unwinding became ambiguous."""


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
        if (not isinstance(self.max_steps, int)
                or isinstance(self.max_steps, bool) or self.max_steps < 1):
            raise ValueError(f"max_steps must be an int of at least 1, got "
                             f"{self.max_steps!r}")
        if self.max_step is not None and not 0.0 < self.max_step < math.inf:
            raise ValueError(f"max_step must be None or positive and finite, "
                             f"got {self.max_step}")


@dataclass
class Trajectory:
    """Adaptive-step solution samples (s, x, y, step_error): s is the
    arclength, or x on the graph."""

    samples: List[Tuple[float, float, float, float]]

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
    """A measured slope: the deepest start's, with the slope from each
    start offset and the residual of ``_deepest``.  ``exponent`` is None:
    no remainder exponent is fitted."""

    value: float
    offsets_used: Tuple[float, ...]
    per_offset: Tuple[float, ...]
    residual: float
    exponent: float | None = None

    def to_json(self) -> dict:
        return {"value": self.value, "offsets_used": list(self.offsets_used),
                "per_offset": list(self.per_offset), "residual": self.residual,
                "exponent": self.exponent}


# transition_slope's and return_slope's start depths |y0|, strictly
# decreasing: the deepest gives the value, and their spread is part of
# its residual
DEFAULT_OFFSETS = (1e-8, 1e-9, 1e-10)
DEFAULT_RETURN_OFFSETS = (1e-8, 1e-12)


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


# Stage slope of each state kind, as source: ``{x}`` is the independent
# variable, ``{y0}``/``{y1}`` the state and ``{k0}``/``{k1}`` the slope
_KINDS = {
    # 2-D state: f(x, y) -> (p, q) of the state alone, the clock not read
    "xy": (2, "{k0}, {k1} = f({y0}, {y1})"),
    # 1-D state as a graph over the independent variable: f(x, y) -> dy/dx
    "graph": (1, "{k0} = f({x}, {y0})"),
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

    ``drive(f, abs_tol, rel_tol, t, state, max_step, max_steps, t_end,
    accept)`` runs from ``state`` at ``t``, ``max_step`` inf for no cap
    and ``t_end`` and ``accept`` None when unused.  The first step is 1e-2
    (|state| + 1e-6)/(|slope| + 1e-300) in the max norm, at most the span
    to ``t_end`` and ``max_step``.  Each of at most ``max_steps`` attempts

    - clamps h to end at ``t_end``, returning there when nothing is left,
      and raises StepUnderflow, with t and the state, when t + h == t;
    - takes the step (six stages, then the slope k7 of the 5th-order state
      y5), and halves h when y5 is not finite;
    - rejects the step unless the RMS of the scaled errors
      (``_SCALED_ERROR``) is at most 1, so also for a NaN norm, scaling h
      by max(0.2, 0.9 norm^-0.2);
    - calls ``accept(t, h, y, k1, y5, k7, err_abs)``, with tuples and the
      largest |error|, if given: a state it returns ends the drive there;
    - advances, returns at ``t_end``, and scales h by min(5, fac), capped
      at ``max_step``: fac is 5 for a zero norm, 0.9 norm^-0.2 on the
      drive's first accepted step, and otherwise Gustafsson's predictive
      factor, as RADAU5 has it, min(0.9 norm^-0.2, max(0.2, 0.9
      (h/h_prev) (err_prev/norm^2)^0.2)), of the previous accepted step
      h_prev and err_prev = max(its norm, 1e-2), and norm^2 = norm*norm,
      never 0 for a norm > 0.  It foresees a step size that shrinks by a
      steady ratio, where the proportional factor alone never goes below
      0.9 and each step waits for a rejection.

    It returns ``(state, err_accum)``, with the sum of the accepted steps'
    largest errors, or raises MaxStepsExceeded, with t and the state of
    the last attempt.  Stage sums run in the tableau's order from zero, as
    ``sum`` does, without zero terms and with ``h`` for ``1.0*h``, and
    ``min``/``max`` are conditional expressions that keep the same operand
    first: every float is bit for bit that of the plain tableau loop, NaNs
    included.
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

    def clock(c):
        return "t + h" if c == 1.0 else f"t + {c!r}*h"

    stages = [slope(s + 1, clock(_C[s]),
                    [f"y_{i} + {combo(_A[s], i)}" for i in comps])
              for s in range(1, 6)]
    stages += [f"y5_{i} = y_{i} + {combo(_A[6], i)}" for i in comps]
    stages.append(slope(7, clock(_C[6]), [f"y5_{i}" for i in comps]))
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
        "    raise StepUnderflow(f'step size {h} cannot advance t={t}', t, "
        f"{tup('y')})",
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
        f"    y_stop = accept(t, h, {tup('y')}, {tup('k1')}, "
        f"{tup('y5')}, {tup('k7')}, err_abs)",
        "    if y_stop is not None:",
        "        return y_stop, err_accum + err_abs",
        "err_accum += err_abs",
        "t += h",
        *(f"y_{i} = y5_{i}\nk1_{i} = k7_{i}" for i in comps),
        "if t_end is not None and t >= t_end:",
        f"    {end}",
        # Gustafsson's predictive factor, at least 0.2, caps the
        # proportional one, at least 0.9 for an accepted norm, so of
        # min(5, max(0.2, factor)) only the upper clamp can bind
        "if norm > 0:",
        "    fac = 0.9*norm**-0.2",
        "    if err_prev:",
        "        pred = 0.9*(h/h_prev)*(err_prev/(norm*norm))**0.2",
        "        pred = pred if pred > 0.2 else 0.2",
        "        fac = pred if pred < fac else fac",
        "else:",
        "    fac = 5.0",
        "h_prev = h",
        "err_prev = 1e-2 if 1e-2 > norm else norm",
        "h *= fac if fac < 5.0 else 5.0",
        "if max_step < h:",
        "    h = max_step",
    ])
    src = "\n".join([
        "def drive(f, abs_tol, rel_tol, t, state, max_step, max_steps, "
        "t_end, accept):",
        f"    {names('y')}= state",
        textwrap.indent(slope(1, "t", [f"y_{i}" for i in comps]), "    "),
        f"    h = 1e-2*(max(map(abs, state)) + 1e-6)/"
        f"(max(map(abs, {tup('k1')})) + 1e-300)",
        "    if t_end is not None:",
        "        h = min(h, abs(t_end - t))",
        "    h = min(h, max_step)",
        "    err_accum = 0.0",
        # the last accepted step and max(its norm, 1e-2), 0.0 before one
        "    h_prev = err_prev = 0.0",
        "    for _ in range(max_steps):",
        textwrap.indent(attempt, "        "),
        "    raise MaxStepsExceeded("
        f"f'no stop condition met in {{max_steps}} steps', t, {tup('y')})",
    ]) + "\n"
    ns: dict = {"isfinite": math.isfinite, "sqrt": math.sqrt,
                "StepUnderflow": StepUnderflow,
                "MaxStepsExceeded": MaxStepsExceeded}
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


def _locate(fn, g0, h, y, k1, y5, k7):
    """(tau, state) where the event ``fn(state)``, ``g0`` at the step's
    start, crosses: the mid-bracket on the step's ``_hermite``, with the
    bracket, as fractions of the step, halved 80 times or until it spans
    less than 1e-12 of the clock."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (g0 < 0.0) == (fn(_hermite(y, k1, y5, k7, h, mid)) < 0.0):
            lo = mid
        else:
            hi = mid
        if (hi - lo) * abs(h) < 1e-12:
            break
    tau = 0.5 * (lo + hi)
    return tau, _hermite(y, k1, y5, k7, h, tau)


def _drive(kind, f, t0, y0, cfg: IntegratorConfig, *, t_end=None,
           stop: Stop | None = None):
    """The kind's loop (``_compile_loop``) on the field ``f`` to t_end, or
    to where the ``stop`` crosses zero, located by ``_locate`` and
    sampled at t + tau h: (state, accumulated error, Trajectory)."""
    y = tuple(float(v) for v in y0)

    def as_xy(tt, yy):
        return (yy[0], yy[1]) if len(yy) > 1 else (tt, yy[0])

    samples = [(t0, *as_xy(t0, y), 0.0)]
    g0 = stop.fn(y) if stop is not None else None

    def accept(t, h, y, k1, y5, k7, err_abs):
        # the stop and sample of one step, as _compile_loop says.  No
        # closure here: it would make cells of the locals on every call
        nonlocal g0
        if stop is not None:
            g1 = stop.fn(y5)
            if ((stop.direction >= 0 and g0 < 0.0 <= g1)
                    or (stop.direction <= 0 and g0 > 0.0 >= g1)):
                tau, y_stop = _locate(stop.fn, g0, h, y, k1, y5, k7)
                samples.append((t + tau * h, *as_xy(t + tau * h, y_stop),
                                err_abs))
                return y_stop
            g0 = g1
        samples.append((t + h, *as_xy(t + h, y5), err_abs))
        return None

    y, err_accum = _LOOPS[kind](
        f, cfg.abs_tol, cfg.rel_tol, t0, y, cfg.max_step or math.inf,
        cfg.max_steps, t_end, accept)
    return y, err_accum, Trajectory(samples)


# -- public integration --------------------------------------------------------


@dataclass(frozen=True)
class Stop:
    """The event that ends a drive, made by a constructor below: the
    drive ends where ``fn(state)`` crosses 0, upward for ``direction``
    +1, downward for -1, either way for 0.  The graph takes only
    x_reaches, whose value is ``x_target``."""

    name: str
    fn: Callable[[Tuple[float, ...]], float]
    direction: int = 0
    x_target: float | None = None

    @classmethod
    def x_reaches(cls, value: float) -> "Stop":
        value = _finite("value", value)
        return cls("x_reaches", lambda s: s[0] - value, x_target=value)

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
        return cls("section_crossing", lambda s: s[i] - value, direction)

    @classmethod
    def window_exit(cls, x0: float, x1: float, y0: float, y1: float) -> "Stop":
        """Stop where the orbit leaves the finite, non-empty window
        [x0, x1] x [y0, y1]: where the largest signed distance past one of
        its sides crosses 0 upward, so only from a start strictly inside."""
        if not all(map(math.isfinite, (x0, x1, y0, y1))) \
                or not (x0 < x1 and y0 < y1):
            raise ValueError(f"window must be finite with x0 < x1 and "
                             f"y0 < y1, got {(x0, x1, y0, y1)}")

        def outside(s):
            return max(s[0] - x1, x0 - s[0], s[1] - y1, y0 - s[1])

        return cls("window_exit", outside, +1)


def _finite(name, value):
    """``value``, which a stop that can fire needs to be finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def integrate(field: PlanarField, start: Tuple[float, float], stop: Stop,
              cfg: IntegratorConfig | None = None, *, param: str,
              backward: bool = False) -> Trajectory:
    """Integrate a planar field from ``start`` until the stop's event.

    ``param`` selects the independent variable, which the first column
    of the samples reads: "arclength" (unit speed, robust near
    degenerate points) or "graph" (y over x, only to an x-reaches stop,
    either way); any other, "time" among them, is a ValueError.
    ``backward`` reverses the arclength; with "graph" it is a
    ValueError.  The graph follows an orbit that runs rightward: where p
    falls to ``_MIN_DENOMINATOR*(x^2 + y^2)`` or below, at the start or a
    stage point, the orbit folds over x, and the graph raises
    TransitDoesNotExist naming the point.  A window_exit stop raises
    ValueError unless its window strictly contains the start.
    """
    if param not in ("arclength", "graph"):
        raise ValueError(f"param must be 'arclength' or 'graph', got "
                         f"{param!r}")
    cfg = cfg or IntegratorConfig()
    rhs_xy = field.as_rhs()

    if param == "graph":
        if stop.x_target is None:
            raise ValueError("graph parametrization needs Stop.x_reaches")
        if backward:
            raise ValueError("graph parametrization runs toward the stop's "
                             "x; it has no backward direction")
        x0, y0 = start
        x_target = stop.x_target
        flip = -1.0 if x_target < x0 else 1.0

        def f(x, y):  # dy/d(flip x) = flip q/p at flip x
            p, q = rhs_xy(flip * x, y)
            if p <= _MIN_DENOMINATOR * (x * x + y * y):
                raise TransitDoesNotExist(
                    f"the graph over x folds at ({flip * x}, {y}): p <= "
                    f"{_MIN_DENOMINATOR}*(x^2 + y^2) there")
            return flip * q / p

        _y, _err, traj = _drive("graph", f, flip * x0, (y0,), cfg,
                                t_end=flip * x_target)
        if flip < 0:  # report true x in samples
            traj.samples = [(-s, -s, y, e) for s, _x, y, e in traj.samples]
        return traj

    sign = -1.0 if backward else 1.0

    def f(x, y):  # unit speed; StepUnderflow where the field vanishes
        p, q = rhs_xy(x, y)
        v = math.hypot(p, q)
        if v < 1e-300:
            raise StepUnderflow("vector field vanishes on the path")
        return sign * p / v, sign * q / v

    if stop.name == "window_exit" and not stop.fn(start) < 0.0:
        raise ValueError(f"start {start} must lie strictly inside the "
                         f"window of the stop")
    return _drive("xy", f, 0.0, start, cfg, stop=stop)[2]


# -- measured slopes -----------------------------------------------------------


def _checked_offsets(offsets, default) -> List[float]:
    """The start offsets, ``default`` when None: at least one, positive,
    finite and strictly decreasing, so that the last start is the
    deepest."""
    offsets = list(offsets if offsets is not None else default)
    if not (offsets and all(0.0 < o < math.inf for o in offsets)
            and all(a > b for a, b in zip(offsets, offsets[1:]))):
        raise ValueError("offsets must be non-empty, positive, finite and "
                         f"strictly decreasing, got {offsets}")
    return offsets


def _deepest(offsets, measure) -> SlopeEstimate:
    """The slopes exp(l) of the starts, (l, step error in l) =
    ``measure(offset)``: the deepest start's value, with the starts'
    spread plus 10 times the slope error of its step error."""
    measured = [measure(o) for o in offsets]
    slopes = [math.exp(log_slope) for log_slope, _err in measured]
    return SlopeEstimate(slopes[-1], tuple(offsets), tuple(slopes),
                         max(slopes) - min(slopes)
                         + 10.0 * slopes[-1] * measured[-1][1])


# -- transition slope ----------------------------------------------------------

# The least |y0| of a transit start and |x|, |y| of its orbit near x = 0:
# p and q, of order y^2 there, are normal floats down to |y| = 1.5e-154
_TRANSIT_FLOOR = 1e-150


def _outer(rhs, y0, sign):
    """The slope dv/ds = |x| (q/y)/p of v = log(y/y0) over s = -log(-x)
    (``sign`` -1) or s = log(x) (``sign`` +1).  A stage that overflows,
    divides by 0 or meets p <= 0 has slope inf: the loop halves h."""
    def f(s, v):
        try:
            ax = math.exp(sign * s)
            y = y0 * math.exp(v)
            p, q = rhs(sign * ax, y)
            if p > 0.0:
                return ax * (q / y) / p
        except ArithmeticError:
            pass
        return math.inf
    return f


def _transit(rhs, alpha, omega, y0, k, cfg) -> Tuple[float, float]:
    """(log(y1/y0), accumulated step error) of the orbit from (alpha, y0)
    to (omega, y1), in v = log(y/y0) on three graph legs: over s =
    -log(-x) in steps of at most 1, to the end of the first accepted step
    past |x| = k|y|; over u = x/|y| to u = k; and over s = log(x), from
    x = k|y| on.  Near x = 0 the divisor of the blow-up has no singular
    point for d > 0, so u increases along the orbit: dv/du = w/u' with
    v' = w = q/(y|y|) and u' = p/y^2 - u w, that is sy q/(p - sy u q) for
    the sign sy of y, and inf where u' <= 0 or a stage fails, so the loop
    halves h.  A leg that underflows its step or runs out of steps raises
    TransitDoesNotExist naming the leg and the point (x, y)."""
    tol, steps = (cfg.abs_tol, cfg.rel_tol), cfg.max_steps
    cap = min(cfg.max_step or 1.0, 1.0)
    ay0, sy = abs(y0), math.copysign(1.0, y0)
    y_cap = min(-alpha, omega) / (2.0 * k)
    lk, s_floor = math.log(k * ay0), -math.log(_TRANSIT_FLOOR)
    v_lo, v_hi = math.log(_TRANSIT_FLOOR / ay0), math.log(y_cap / ay0)

    def dv_du(u, v):
        try:
            ay = ay0 * math.exp(v)
            p, q = rhs(u * ay, sy * ay)
            sq = sy * q
            du = p - u * sq
            if du > 0.0:
                return sq / du
        except ArithmeticError:
            pass
        return math.inf

    def left_end(t, h, _y, _k1, y5, _k7, _e):
        s = t + h
        return (s, y5[0]) if s + y5[0] + lk >= 0.0 or s > s_floor else None

    def leaves(_t, _h, _y, _k1, y5, _k7, _e):
        return None if v_lo < y5[0] < v_hi else y5

    def leg(name, x_of, f, t, v, max_step, t_end, accept):
        try:
            return _LOOPS["graph"](f, *tol, t, (v,), max_step, steps, t_end,
                                   accept)
        except (StepUnderflow, MaxStepsExceeded) as exc:
            y = y0 * math.exp(exc.state[0])
            raise TransitDoesNotExist(
                f"orbit from ({alpha}, {y0}) stops on the {name} leg at "
                f"({x_of(exc.t, abs(y))}, {y}): {exc}") from None

    # a left leg that ends at the floor, |x| < 1e-150, has k|y| < |x| there
    (s, v), err = leg("left", lambda s, _ay: -math.exp(-s),
                      _outer(rhs, y0, -1.0), -math.log(-alpha), 0.0, cap,
                      None, left_end)
    if v > v_lo:
        (v,), e = leg("middle", lambda u, ay: u * ay, dv_du,
                      -math.exp(-s - v) / ay0, v, cfg.max_step or math.inf,
                      k, leaves)
        err += e
    if v >= v_hi:
        raise TransitDoesNotExist(f"orbit from ({alpha}, {y0}) reaches "
                                  f"|y| = {y_cap} near x = 0")
    if not v > v_lo:
        raise ValueError(f"orbit from ({alpha}, {y0}) falls below the depth "
                         f"floor |y| = {_TRANSIT_FLOOR}")
    (v,), e = leg("right", lambda s, _ay: math.exp(s), _outer(rhs, y0, 1.0),
                  lk + v, v, cap, math.log(omega), None)
    return v, err + e


def transition_slope(nf: NormalFormField, sections, side: str,
                     offsets: Sequence[float] | None = None,
                     cfg: IntegratorConfig | None = None) -> SlopeEstimate:
    """Measured slope y1/y0 of the transition map on one side of the
    fiber, from orbits through (alpha, y0) to (omega, y1), y0 = +-offset.

    y = 0 is invariant, so each orbit runs in v = log(y/y0) (``_transit``)
    and no slope changes sign; ``_deepest`` makes the estimate.  With k = 1
    for a^2 < 4 and |a| + 1 otherwise, the orbit runs over log|x| where
    |x| > k|y|, and in between over u = x/|y|, which increases along it
    since d > 0.  Starts need 1e-150 <= |y0| < min(-alpha, omega)/(2k), or
    ValueError.  An orbit that reaches that bound on |y| near x = 0 raises
    TransitDoesNotExist, one that falls below 1e-150 ValueError.  A leg
    whose step underflows, where x or u turns back, or that runs out of
    ``cfg.max_steps`` raises TransitDoesNotExist naming the start, the
    leg and the point (x, y).  Without d > 0, NotHyperbolicFakeSaddle.
    """
    cfg = cfg or IntegratorConfig()
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    inv = invariants(nf)
    cls = classify(inv)
    if not cls.is_fake_saddle:
        raise TransitDoesNotExist(f"classification is {cls.verdict.value}")
    if cls.verdict is not Verdict.HYPERBOLIC_FAKE_SADDLE:
        raise NotHyperbolicFakeSaddle(
            f"{cls.verdict.value}: the slope exp(gamma) needs d > 0")
    alpha, omega = sections.alpha, sections.omega
    k = 1.0 if inv.a * inv.a < 4 else abs(float(inv.a)) + 1.0
    offsets = _checked_offsets(offsets, DEFAULT_OFFSETS)
    if not (_TRANSIT_FLOOR <= offsets[-1]
            and 2.0 * k * offsets[0] < min(-alpha, omega)):
        raise ValueError(f"offsets {offsets} must lie in [{_TRANSIT_FLOOR}, "
                         f"min(-alpha, omega)/(2k)) with k = {k}")
    sign = 1.0 if side == "+" else -1.0
    rhs = nf.field().as_rhs()
    return _deepest(offsets, lambda o: _transit(rhs, alpha, omega, sign * o,
                                                k, cfg))


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


@functools.lru_cache(maxsize=None)
def _compile_chart(a: int, b: int, d: int):
    """``make(rhs)``: the chart field of ``_weighted_polar`` for the
    weights (a, b, d), generated with each power r^e of r = exp(rho) as
    products, r^2e = r^e r^e and r^(e+1) = r^e r, for e >= 1, and as
    exp(e*rho) for e <= 0, so that no float ``**`` runs in a stage."""
    powers: dict = {1: "r1"}
    lines = ["r1 = exp(rho)"]

    def power(e):
        if e not in powers:
            if e < 1:
                lines.append(f"r_{-e} = exp({e}*rho)")
                powers[e] = f"r_{-e}"
            else:
                left, right = ((power(e // 2),) * 2 if e % 2 == 0
                               else (power(e - 1), "r1"))
                lines.append(f"r{e} = {left}*{right}")
                powers[e] = f"r{e}"
        return powers[e]

    lines += [f"p, q = rhs({power(a)}*c, {power(b)}*s)",
              f"big_p, big_q = p/{power(d + a)}, q/{power(d + b)}"]
    src = "\n".join([
        "def make(rhs):",
        "    def f(rho, theta):",
        "        try:",
        "            c, s = cos(theta), sin(theta)",
        textwrap.indent("\n".join(lines), "            "),
        "        except (ValueError, OverflowError, ZeroDivisionError):",
        "            return inf, inf",
        f"        return c*big_p + s*big_q, {a}*c*big_q - {b}*s*big_p",
        "    return f",
    ]) + "\n"
    ns: dict = {"exp": math.exp, "cos": math.cos, "sin": math.sin,
                "inf": math.inf}
    exec(compile(src, f"<fakesaddle.flow chart {a} {b} {d}>", "exec"),
         ns)  # noqa: S102
    return ns["make"]


def _weighted_polar(field: PlanarField):
    """(a, b, f): the field over (rho, theta) in the chart x = r^a c,
    y = r^b s, rho = log r, c = cos(theta), s = sin(theta), of the Newton
    weights (a, b, d) (``newton_weights``).  With p = r^(d+a) P, q =
    r^(d+b) Q and dt = (a c^2 + b s^2) dtau/r^d, rho' = c P + s Q and
    theta' = a c Q - b s P, from one ``field.as_rhs()`` call and the
    powers of r as products (``_compile_chart``).  A stage whose theta is
    infinite, whose r = exp(rho) overflows or whose r^(d+a) or r^(d+b) is
    0 has slope (inf, inf); one where a product of powers of r overflows
    has a non-finite slope: the loop halves h on either."""
    a, b, d = newton_weights(field)
    return a, b, _compile_chart(a, b, d)(field.as_rhs())


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
    theta0) where the first of three stops crosses, as one upward stop
    on the largest: "turn" at |theta - theta0| = 2*pi, "box_exit" at
    max(|x|, |y|) = ``box`` and "floor" at rho = min(4 rho0, rho0) -
    ``_RHO_DROP``.  A start not strictly inside the box raises
    ValueError.

    The "xy" loop runs with an ``accept`` of its own.  Before a crossing
    the stop is negative, so a step crosses where it is not: ``accept``
    first compares |theta - theta0| < 2*pi, rho > floor and a rho, b rho
    < log(box), which make it negative exactly (log|cos|, log|sin| <= 0),
    and takes the logs of the full stop only where one of them fails.  A
    crossing is located on the full stop by ``_locate``."""
    a, b, f = chart
    log_box, floor = math.log(box), min(4.0 * rho0, rho0) - _RHO_DROP

    def parts(state):
        rho, theta = state
        c, s = abs(math.cos(theta)), abs(math.sin(theta))
        return (abs(theta - theta0) - TWO_PI,
                max(a * rho + math.log(c) if c else -math.inf,
                    b * rho + math.log(s) if s else -math.inf) - log_box,
                floor - rho)

    def stop(state):
        return max(parts(state))

    def accept(_t, h, y, k1, y5, k7, _err_abs):
        rho, theta = y5
        if ((abs(theta - theta0) < TWO_PI and rho > floor
                and a * rho < log_box and b * rho < log_box)
                or stop(y5) < 0.0):
            return None
        # the stop at the step's start is negative: any g0 < 0 will do
        return _locate(stop, -1.0, h, y, k1, y5, k7)[1]

    if not stop((rho0, theta0)) < 0.0:
        raise ValueError(f"start rho={rho0}, theta={theta0} must lie strictly "
                         f"inside the guard box max(|x|, |y|) < {box}")
    state, err = _LOOPS["xy"](f, cfg.abs_tol, cfg.rel_tol, 0.0, (rho0, theta0),
                              cfg.max_step or math.inf, cfg.max_steps, None,
                              accept)
    g = parts(state)
    return ("turn", "box_exit", "floor")[g.index(max(g))], state[0], err


def return_slope(field: PlanarField, offsets: Sequence[float] | None = None,
                 cfg: IntegratorConfig | None = None) -> SlopeEstimate:
    """Measured Poincare return-map slope around a monodromic origin.

    The section is the ray {x = 0, y > 0}, on which the return map is the
    plain composition of the two fiber transitions.  Orbits start on it
    at the depths y0 = ``offsets`` (``DEFAULT_RETURN_OFFSETS`` when None),
    strictly inside the guard box max(|x|, |y|) < 4, and run in the
    weighted polar chart (``_weighted_polar``) until theta has moved
    through 2*pi: the slope is exp(b (rho1 - rho0)), and ``_deepest``
    makes the estimate.  A start below chart radius 1e-8 (y0 = 1e-16
    under weights (1, 2)) is a ValueError before any orbit runs.  The
    caller asserts monodromy; NoReturn (guard-box exit, a fall onto the
    origin) signals that it fails.
    """
    cfg = cfg or IntegratorConfig()
    offsets = _checked_offsets(offsets, DEFAULT_RETURN_OFFSETS)
    chart = _weighted_polar(field)
    b = chart[1]
    if not offsets[-1] ** (1.0 / b) >= _DEPTH_FLOOR:
        raise ValueError(f"offsets {offsets}: the deepest start lies below "
                         f"the depth floor, chart radius {_DEPTH_FLOOR}, "
                         f"where returns go wrong")

    def measure(y0):
        rho0 = math.log(y0) / b
        try:
            status, rho, err = _turn(chart, rho0, math.pi / 2.0, _RETURN_BOX,
                                     cfg)
        except (MaxStepsExceeded, StepUnderflow) as exc:
            raise NoReturn(str(exc)) from None
        if status != "turn":
            raise NoReturn(f"orbit from (0, {y0}) ended with {status}")
        return b * (rho - rho0), b * err
    return _deepest(offsets, measure)


# -- first integral drift ------------------------------------------------------


def conservation_check(first_integral, traj: Trajectory,
                       branch_quantum: float | None = None) -> float:
    """Max |H(sample) - H(start)| along a trajectory.

    ``branch_quantum``, when given, is the jump of H across its branch
    cut (e.g. 2*pi for an arctan term); jumps are unwound by shifting
    whole quanta, and leftover jumps above a quarter quantum raise
    BranchTrackingFailed.
    """
    values = [first_integral(x, y) for _s, x, y, _e in traj.samples]
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
    return max(abs(v - adjusted[0]) for v in adjusted)


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
