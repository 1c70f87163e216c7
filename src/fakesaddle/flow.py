"""Numerical integration of planar fields and empirical slope measurement.

The integrator is an explicit embedded Runge-Kutta 5(4) pair
(Dormand-Prince coefficients) with FSAL and Gustafsson's predictive
step control (Hairer & Wanner, Solving ODEs II, IV.8), and no dense
output: a drive ends at a step's end or on a graph over the coordinate
it stops on (Henon, Physica D 5, 1982).  Fields arrive compiled from
their exact terms: as sparse Horner source in ``PlanarField.as_rhs``, bit
for bit dense Horner, and ``as_x_dir_slope`` (X_DIR blow-up, the
transits' outer legs), and in ``as_chart`` (weighted polar) as Horner in
r over sums of monomials in cos and sin, each monomial computed once.
Each state dimension has one drive loop (``_compile_loop``), generated
from the tableau, that calls its field directly, keeps the stages, the
error norm and the step control in local scalars, and knows nothing of
its caller:

- "xy": 2-D state of a field ``(t, x, y) -> (p, q)``: integrate()'s
  unit-speed wrapper under arclength, its stops' re-runs (``_cross``),
  and a turn's (rho, theta) in the weighted polar chart past a fold
  (``_turn``), whose ``accept`` tests the turn's stop on every step and
  lands on theta0 +- 2*pi as a stop's section;
- "graph": 1-D state as a graph over the independent variable, of a
  field that returns the slope: integrate()'s y over x, which raises
  TransitDoesNotExist where p falls to ``_MIN_DENOMINATOR*(x^2 + y^2)``
  or below; all three legs of a transit, v = log(y/y0) over log|x|
  and over u = x/|y|, which test v's step error against a fixed multiple
  of rel_tol and start from the step 1e-2 (|v| + 1)/|v'|, where integrate()
  and the turns start from 1e-2 (|state| + 1e-6)/|slope|; and a turn's
  legs, rho over phi = sigma theta, sigma = +-1 its orientation, or over
  log|phi - phi_f| near a fiber direction phi_f, on the chart's slope
  closed over its leg (``PlanarField.as_chart_slope``): every turn that
  does not fold ends on them.

Every drive runs on a bounded clock, arclength, x, a chart variable,
theta or log|theta - theta_f|, that no stop reads.  A drive ends at
t_end or on the section of a ``Stop`` that ``accept``, called on each
accepted step, sees a step cross, on that step re-run as the graph over
the crossed coordinate; the transit legs and the turns pass their own,
which end a drive at a step's end, save that past a fold the chart's
lands on theta0 +- 2*pi as a stop does.  A drive calls ``accept`` only where
the new state's first entry is not in the band (lo, hi), which is empty
unless the caller passes one: a turn's legs pass a band of rho inside
which the turn's stop is negative, so their ``accept``, which takes
logs, runs only outside it; the transit's middle leg passes v between
its depth floor and its cap on |y|, outside which its ``accept`` ends
the leg.

On top sit the measured counterparts of the closed-form transition
theory: transition and Poincare return slopes, a first-integral drift
check and a monodromy probe.  Each slope is read off deep orbits in a
chart, with no fit: the transit in v = log(y/y0) (``_transit``), the
return and the probe in the weighted polar chart of the field's Newton
diagram (``_weighted_polar``), where a turn is theta moving by 2*pi.  A
stage of that chart is one call of the field's chart, compiled once per
field as polynomials in (r, cos theta, sin theta) from its exact terms
(``PlanarField.as_chart``): no division by powers of r, no float ``**``.
Around a monodromic point theta moves one way only, so a turn runs as
the graph of rho over theta and ends exactly at theta0 +- 2*pi: on the
graph, or, past a fold, in the chart, which then ends the turn.  Near
each fiber direction theta_f, where theta' vanishes at r = 0
(``fiber_directions``) and rho behaves like a multiple of log|theta -
theta_f|, the graph runs over that log.

Everything is deterministic for a fixed configuration and free of
shared mutable state, so parameter sweeps can run concurrently.
"""

from __future__ import annotations

import enum
import math
import textwrap
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .asymptotics import richardson_step
from .normalform import (NormalFormField, NotHyperbolicFakeSaddle, Verdict,
                         classify, invariants)
from .polyfield import PlanarField, fiber_directions, newton_weights

TWO_PI = 2.0 * math.pi

# integrate()'s graph over x folds where p <= this*(x^2 + y^2)
_MIN_DENOMINATOR = 1e-8


class _DriveFailure(Exception):
    """A drive that cannot go on: the loop's ``t``, ``state`` and
    accumulated ``err``, t and state None when raised outside."""

    def __init__(self, message, t=None, state=None, err=0.0):
        super().__init__(message)
        self.t, self.state, self.err = t, state, err


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
        # a bool is an int to Python, and True passed each range check
        if not all(not isinstance(tol, bool) and 0.0 < tol < math.inf
                   for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError(f"tolerances must be positive and finite "
                             f"numbers, got rel_tol={self.rel_tol!r}, "
                             f"abs_tol={self.abs_tol!r}")
        if (not isinstance(self.max_steps, int)
                or isinstance(self.max_steps, bool) or self.max_steps < 1):
            raise ValueError(f"max_steps must be an int of at least 1, got "
                             f"{self.max_steps!r}")
        if self.max_step is not None and (
                isinstance(self.max_step, bool)
                or not 0.0 < self.max_step < math.inf):
            raise ValueError(f"max_step must be None or a positive and finite "
                             f"number, got {self.max_step!r}")


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
    """A measured slope, with the slope from each start offset and the
    residual of ``_deepest``.  ``exponent`` is the depth exponent kappa
    of the Richardson step that made the value, or None where the value
    is the deepest start's own slope (returns, a single start)."""

    value: float
    offsets_used: Tuple[float, ...]
    per_offset: Tuple[float, ...]
    residual: float
    exponent: float | None = None

    def to_json(self) -> dict:
        return {"value": self.value, "offsets_used": list(self.offsets_used),
                "per_offset": list(self.per_offset), "residual": self.residual,
                "exponent": self.exponent}


# transition_slope's start depths |y0|, and return_slope's chart radii
# r0 of the starts y0 = r0^b, strictly decreasing: the deepest (a
# transit's two deepest, extrapolated in depth) give the value, and
# their spread is part of its residual
DEFAULT_OFFSETS = (1e-8, 1e-9, 1e-10)
DEFAULT_RETURN_RADII = (1e-4, 1e-6)


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


# The error norm's term of component i, the scaled error r_i =
# |e|/(abs_tol + rel_tol*max(|y|, |y5|)), max written as the builtin's
# comparison, NaNs included.  Not capped: a norm above 4.5^5 (about 1845),
# inf included, is rejected with h scaled by the floor factor 0.2.
_SCALED_ERROR = """\
a_{i} = abs({e})
m = abs(y_{i})
m5_{i} = abs(y5_{i})
r_{i} = a_{i}/(abs_tol + rel_tol*(m5_{i} if m5_{i} > m else m))"""

def _compile_loop(kind: str, n: int):
    """The DP5(4) drive of an ``n``-D state, generated from the tableau
    and labelled by its ``kind``, "xy" for n = 2 and "graph" for n = 1.

    ``drive(f, abs_tol, rel_tol, t, state, max_step, max_steps, t_end,
    accept, lo=inf, hi=-inf, scale=1e-6)`` runs from ``state`` at ``t`` on
    the slope ``f(t, *state)``, a tuple for n = 2, ``max_step`` inf for
    no cap and ``t_end`` and ``accept`` None when unused.  The first step
    is 1e-2 (|state| + ``scale``)/(|slope| + 1e-300) in the max norm, at
    most the span to ``t_end`` and ``max_step``.  Each try of a step, at
    most ``max_steps`` of them,

    - clamps h to end at ``t_end``, returning there when nothing is left,
      and raises StepUnderflow, with t, the state and the accumulated
      error, when t + h == t;
    - takes the step (six stages, then the slope k7 of the 5th-order state
      y5, the next step's k1), and halves h when y5 is not finite;
    - rejects the step unless the RMS of the scaled errors, not capped
      (``_SCALED_ERROR``), is at most 1, so also for a NaN norm, scaling
      h by max(0.2, 0.9 norm^-0.2);
    - calls ``accept(t, h, y, y5, err_abs)``, with tuples and the largest
      |error|, if given and y5's first entry is not in the band (lo, hi),
      empty by default: a state it returns ends the drive there;
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
    first: every step and state is bit for bit that of the plain tableau
    loop, NaNs included, also where that loop caps a scaled error.
    """
    comps = range(n)

    def names(name):
        return "".join(f"{name}_{i}, " for i in comps)

    def tup(name):
        return f"({names(name)})"

    def combo(coeffs, i):
        return "h*(0.0" + "".join(f" + {a!r}*k{m + 1}_{i}"
                                  for m, a in enumerate(coeffs) if a) + ")"

    def slope(s, x, ys):
        return (", ".join(f"k{s}_{i}" for i in comps)
                + f" = f({x}, {', '.join(ys)})")

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
        f"{tup('y')}, err_accum)",
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
        "if accept is not None and not (lo < y5_0 < hi):",
        f"    y_stop = accept(t, h, {tup('y')}, {tup('y5')}, err_abs)",
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
        "t_end, accept, lo=inf, hi=-inf, scale=1e-6):",
        f"    {names('y')}= state",
        textwrap.indent(slope(1, "t", [f"y_{i}" for i in comps]), "    "),
        f"    h = 1e-2*(max(map(abs, state)) + scale)/"
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
    ns: dict = {"isfinite": math.isfinite, "sqrt": math.sqrt, "inf": math.inf,
                "StepUnderflow": StepUnderflow,
                "MaxStepsExceeded": MaxStepsExceeded}
    # codegen over the tableau, under a name of its own in tracebacks and
    # profiles
    code = compile(src, f"<fakesaddle.flow loop {kind}>", "exec")
    exec(code, ns)  # noqa: S102
    return ns["drive"]


_LOOPS = {"xy": _compile_loop("xy", 2), "graph": _compile_loop("graph", 1)}


def _drive(kind, f, t0, y0, cfg: IntegratorConfig, *, t_end=None, sides=()):
    """The kind's loop (``_compile_loop``), "xy" or "graph", on the field
    ``f`` to t_end, or, "xy" only, to the first of a ``Stop``'s ``sides``
    crossed, by linear fraction, in the first step that crosses one,
    which ``_cross`` re-runs: (state, accumulated error, Trajectory)."""
    y = tuple(float(v) for v in y0)

    def as_xy(tt, yy):
        return (yy[0], yy[1]) if len(yy) > 1 else (tt, yy[0])

    samples = [(t0, *as_xy(t0, y), 0.0)]

    def accept(t, h, y, y5, err_abs):
        # the stop and sample of one step, as _compile_loop says.  No
        # closure here: it would make cells of the locals on every call
        first = None
        for i, value, direction in sides:
            if ((direction >= 0 and y[i] < value <= y5[i])
                    or (direction <= 0 and y[i] > value >= y5[i])):
                crossed = ((value - y[i]) / (y5[i] - y[i]), i, value)
                first = crossed if first is None else min(first, crossed)
        if first is None:
            samples.append((t + h, *as_xy(t + h, y5), err_abs))
            return None
        t_stop, y_stop, err = _cross(f, t, h, y, y5, *first[1:], cfg)
        samples.append((t_stop, *y_stop, err))
        return y_stop

    y, err_accum = _LOOPS[kind](
        f, cfg.abs_tol, cfg.rel_tol, t0, y, cfg.max_step or math.inf,
        cfg.max_steps, t_end, accept)
    return y, err_accum, Trajectory(samples)


def _cross(f, t, h, y, y5, i, value, cfg: IntegratorConfig):
    """(clock, state, error) where the step from ``y`` at t to ``y5`` at
    t + h crosses x_i = ``value``: the step re-run as the graph over c =
    d x_i of (x_o, clock), of slope (f_o, 1)/(d f_i), to c = d value, from
    ``y`` with d = sigma, the crossing's sign, or, where sigma f_i <= 0
    at ``y``, back from ``y5`` with d = -sigma.  Where sigma f_i <= 0 the
    slope is inf, so a re-run that turns back raises StepUnderflow."""
    sigma = 1.0 if y5[i] > y[i] else -1.0
    d, t0, start = ((sigma, t, y) if sigma * f(t, *y)[i] > 0.0
                    else (-sigma, t + h, y5))

    def slope(c, u, s):
        v = f(s, *((d * c, u) if i == 0 else (u, d * c)))
        if sigma * v[i] > 0.0:
            return v[1 - i] / (d * v[i]), 1.0 / (d * v[i])
        return math.inf, math.inf

    (u, s), err = _LOOPS["xy"](
        slope, cfg.abs_tol, cfg.rel_tol, d * start[i], (start[1 - i], t0),
        cfg.max_step or math.inf, cfg.max_steps, d * value, None)
    return s, ((value, u) if i == 0 else (u, value)), err


# -- public integration --------------------------------------------------------


@dataclass(frozen=True)
class Stop:
    """The sections that end a drive, made by a constructor below: the
    ``sides`` (axis, value, direction), where coordinate axis, 0 for x, 1
    for y, reaches the finite value upward for direction +1, downward for
    -1, either way for 0.  The graph takes only x_reaches, of value
    ``x_target``."""

    name: str
    sides: Tuple[Tuple[int, float, int], ...]

    def __post_init__(self):
        if not all(math.isfinite(value) for _i, value, _d in self.sides):
            raise ValueError(f"the values of a stop must be finite, got "
                             f"{self.sides}")

    @property
    def x_target(self) -> float | None:
        return self.sides[0][1] if self.name == "x_reaches" else None

    @classmethod
    def x_reaches(cls, value: float) -> "Stop":
        return cls("x_reaches", ((0, value, 0),))

    @classmethod
    def section(cls, axis: str, value: float, direction: int) -> "Stop":
        """Stop where the ``axis`` coordinate crosses the finite ``value``:
        upward for direction +1, downward for -1, either way for 0."""
        if axis not in ("x", "y"):
            raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
        if isinstance(direction, bool) or direction not in (-1, 0, 1):
            raise ValueError(f"direction must be -1, 0 or 1, got {direction!r}")
        return cls("section_crossing", (("xy".index(axis), value, direction),))

    @classmethod
    def window_exit(cls, x0: float, x1: float, y0: float, y1: float) -> "Stop":
        """Stop where the orbit leaves the finite, non-empty window
        [x0, x1] x [y0, y1]: where it reaches a side on the way out, so
        only from a start strictly inside."""
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"window must have x0 < x1 and y0 < y1, got "
                             f"{(x0, x1, y0, y1)}")
        return cls("window_exit",
                   ((0, x1, +1), (0, x0, -1), (1, y1, +1), (1, y0, -1)))


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
    TransitDoesNotExist naming the point.  Under arclength the last
    sample lies on the stop's section (``_cross``).  A start that is not
    finite raises ValueError, and so does a window_exit stop unless its
    window strictly contains the start.
    """
    if param not in ("arclength", "graph"):
        raise ValueError(f"param must be 'arclength' or 'graph', got "
                         f"{param!r}")
    if not all(math.isfinite(v) for v in start):
        raise ValueError(f"start must be finite, got {start}")
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

    def f(_s, x, y):  # unit speed; StepUnderflow where the field vanishes
        p, q = rhs_xy(x, y)
        v = math.hypot(p, q)
        if v < 1e-300:
            raise StepUnderflow("vector field vanishes on the path")
        return sign * p / v, sign * q / v

    if stop.name == "window_exit" and not all(
            d * (start[i] - v) < 0.0 for i, v, d in stop.sides):
        raise ValueError(f"start {start} must lie strictly inside the "
                         f"window of the stop")
    return _drive("xy", f, 0.0, start, cfg, sides=stop.sides)[2]


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


def _deepest(offsets, measure, exponent=None) -> SlopeEstimate:
    """The slopes s_i = exp(l) of the starts o_i, (l, step error in l) =
    ``measure(o_i)``, made into one estimate whose residual is a spread
    plus 10 times the deepest slope times its step error.

    Without ``exponent``, or from one start, the value is the deepest
    start's slope and the spread that of the slopes.  With the exponent
    kappa of a remainder of order o^kappa, each pair of consecutive
    starts takes one ``richardson_step``, R_i = (q s_i - s_(i-1))/(q - 1)
    with q = (o_(i-1)/o_i)^kappa: the deepest pair's R is the value, and
    the spread is that of every R_i and the deepest slope."""
    measured = [measure(o) for o in offsets]
    slopes = [math.exp(log_slope) for log_slope, _err in measured]
    spanned = slopes
    if exponent is not None and len(slopes) > 1:
        spanned = richardson_step(slopes, [(o0 / o1) ** exponent for o0, o1
                                           in zip(offsets, offsets[1:])])
        value = spanned[-1]
        spanned.append(slopes[-1])
    else:
        value, exponent = slopes[-1], None
    return SlopeEstimate(value, tuple(offsets), tuple(slopes),
                         max(spanned) - min(spanned)
                         + 10.0 * slopes[-1] * measured[-1][1], exponent)


# -- transition slope ----------------------------------------------------------

# The least |y0| of a transit start and |x|, |y| of its orbit near x = 0:
# p and q, of order y^2 there, are normal floats down to |y| = 1.5e-154
_TRANSIT_FLOOR = 1e-150
# A transit leg's bound on the step error of v = log(y/y0), in units of
# rel_tol: the factor 1 + |v| of a test against rel_tol (1 + |v|),
# averaged over the accepted leg steps of the benchmark's seed-1 transit
# pool (8.06), so the same budget, spent evenly along the orbit
_LOG_TOL = 8.0
# The longest step on a log clock, log|x| or log|phi - phi_f|, a factor
# e^2: a longer step can cross the bend where the orbit passes a fiber
# with an error estimate far below its error (z(1, 1) read 1.1e-6 off at
# rel_tol 8.32e-10), or be guessed at 1e292 where v' vanishes at a start
_LOG_STEP = 2.0


def _transit(field, alpha, omega, y0, k, cfg) -> Tuple[float, float]:
    """(log(y1/y0), accumulated step error) of the orbit from (alpha, y0) to
    (omega, y1), in v = log(y/y0) on three graph legs: over s = -log(-x) to
    the end of the first accepted step past |x| = k|y|; over u = x/|y| to
    u = k, or to the end of the first step whose v leaves the band (v_lo,
    v_hi) of 1e-150 < |y| < ``y_cap``; and over s = log(x), from x = k|y|
    on, the outer legs on the X_DIR slope (``PlanarField.as_x_dir_slope``)
    in steps of at most ``_LOG_STEP``.  Near x = 0 the divisor of the
    blow-up has no singular point for d > 0, so u increases along the
    orbit: dv/du = w/u' with v' = w = q/(y|y|) and u' = p/y^2 - u w, that
    is sy q/(p - sy u q) for the sign sy of y, and inf where u' <= 0 or a
    stage fails, so the loop halves h.  That leg stays on ``as_rhs``: in
    u, terms of different degree share no Horner rows.  A leg that
    underflows its step or runs out of steps raises TransitDoesNotExist
    naming the leg and its (x, y).

    v is a logarithm: its absolute error is y's relative error, and its
    natural scale is 1 wherever it lies.  So every leg tests v's step
    error against the fixed ``_LOG_TOL`` rel_tol of ``cfg``, with no part
    in |v|, and reads no ``cfg.abs_tol``; and each leg's first step is
    1e-2 (|v| + 1)/|v'|, at most the leg's span and step cap."""
    tol, steps = (_LOG_TOL * cfg.rel_tol, 0.0), cfg.max_steps
    cap = min(cfg.max_step or math.inf, _LOG_STEP)
    rhs, outer = field.as_rhs(), field.as_x_dir_slope
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

    def left_end(t, h, _y, y5, _e):
        s = t + h
        return (s, y5[0]) if s + y5[0] + lk >= 0.0 or s > s_floor else None

    def leg(name, x_of, f, t, v, max_step, t_end, accept, **band):
        try:
            return _LOOPS["graph"](f, *tol, t, (v,), max_step, steps, t_end,
                                   accept, scale=1.0, **band)
        except (StepUnderflow, MaxStepsExceeded) as exc:
            y = y0 * math.exp(exc.state[0])
            raise TransitDoesNotExist(
                f"orbit from ({alpha}, {y0}) stops on the {name} leg at "
                f"({x_of(exc.t, abs(y))}, {y}): {exc}") from None

    # a left leg that ends at the floor, |x| < 1e-150, has k|y| < |x| there
    (s, v), err = leg("left", lambda s, _ay: -math.exp(-s),
                      outer(y0, -1.0), -math.log(-alpha), 0.0, cap,
                      None, left_end)
    if v > v_lo:
        (v,), e = leg("middle", lambda u, ay: u * ay, dv_du,
                      -math.exp(-s - v) / ay0, v, cfg.max_step or math.inf,
                      k, lambda _t, _h, _y, y5, _e: y5, lo=v_lo, hi=v_hi)
        err += e
    if v >= v_hi:
        raise TransitDoesNotExist(f"orbit from ({alpha}, {y0}) reaches "
                                  f"|y| = {y_cap} near x = 0")
    if not v > v_lo:
        raise ValueError(f"orbit from ({alpha}, {y0}) falls below the depth "
                         f"floor |y| = {_TRANSIT_FLOOR}")
    (v,), e = leg("right", lambda s, _ay: math.exp(s), outer(y0, 1.0),
                  lk + v, v, cap, math.log(omega), None)
    return v, err + e


def transition_slope(nf: NormalFormField, sections, side: str,
                     offsets: Sequence[float] | None = None,
                     cfg: IntegratorConfig | None = None) -> SlopeEstimate:
    """Measured slope y1/y0 of the transition map on one side of the
    fiber, from orbits through (alpha, y0) to (omega, y1), y0 = +-offset.

    y = 0 is invariant, so each orbit runs in v = log(y/y0) (``_transit``)
    and no slope changes sign.  A start at depth |y0| misses the slope
    exp(gamma) by a remainder of order |y0|^kappa, kappa = min(1, 1/(1 -
    c)), the ratio lambda_minus of the directional saddles, found here
    from the invariants: ``_deepest`` takes one Richardson step with it
    on each pair of consecutive starts, reports the two deepest starts'
    as the value, and spans every step and the deepest start's slope
    with the residual; one start gives its own slope.  With k = 1 for a^2
    < 4 and |a| + 1 otherwise, the orbit runs over log|x| where |x| >
    k|y|, and in between over u = x/|y|, which increases along it since d
    > 0: over log|x| on the slope +-Qt/Pt of the X_DIR blow-up chart, in
    steps of at most 2, and over u on ``as_rhs``.  v's absolute error is
    y's relative error, and its scale is 1: every leg tests v's step error
    against the fixed 8 rel_tol of ``cfg``, with no part in |v|, reads no
    abs_tol, and starts from the step 1e-2 (|v| + 1)/|v'|.  Starts need
    1e-150 <= |y0| < min(-alpha, omega)/(2k), or ValueError.  An orbit
    that reaches that bound on |y| near x = 0 raises TransitDoesNotExist,
    one that falls below 1e-150 ValueError.  A leg whose step underflows,
    where x or u turns back, or that runs out of ``cfg.max_steps`` raises
    TransitDoesNotExist naming the start, the leg and the point (x, y).
    Without d > 0, NotHyperbolicFakeSaddle.
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
    field = nf.field()
    return _deepest(offsets, lambda o: _transit(field, alpha, omega, sign * o,
                                                k, cfg),
                    float(min(1, 1 / (1 - inv.c))))


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
# The half-width in phi of a turn's leg across a fiber direction, over
# the start's chart radius r0, about the r at which the orbit crosses the
# fiber.  Within about r0 of it the slope over log|phi - phi_f| falls off
# like |phi - phi_f|/r0, a tail that a log leg resolves step by step and
# a leg over phi crosses in a step or two.  r0 is held to [1e-10, 1]:
# the leg spans over 500 units in the last place of |phi| < 4*pi, and the
# log legs beside it keep their sides of the midpoints
_FIBER_SPAN = 1e-2


def _weighted_polar(field: PlanarField):
    """(a, b, f, g, fibers): the field f over (rho, theta) in the chart
    x = r^a c, y = r^b s, rho = log r, c = cos(theta), s = sin(theta), of
    the Newton weights (a, b, d) (``newton_weights``), g, which closes the
    slope of rho over phi = sigma theta or over log|phi - phi_f| over its
    leg, g(sigma, phi_f, e) (``PlanarField.as_chart_slope``), and the fiber
    directions (``fiber_directions``).  With p = r^(d+a) P, q =
    r^(d+b) Q and dt = (a c^2 + b s^2) dtau/r^d, rho' = c P + s Q and
    theta' = a c Q - b s P, P and Q compiled from the field's terms once
    per field (``PlanarField.as_chart``).  A stage whose theta is
    infinite or whose exp(rho) overflows has slope (inf, inf), one where a
    product overflows a non-finite slope: the loop halves h on either.
    Where r underflows to 0 a stage has the principal part's slope."""
    a, b, _d = newton_weights(field)
    return (a, b, field.as_chart(), field.as_chart_slope,
            fiber_directions(field))


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


def _legs(fibers, sigma, phi0, span):
    """The legs that carry rho over phi = sigma theta from phi0 to phi1 =
    phi0 + 2 pi, each (phi_f, e, lo, hi) over [lo, hi]: e = 0 over phi
    itself, e = 1 over t = log(phi - phi_f) and e = -1 over t = -log(phi_f
    - phi).  Without fibers one leg runs over phi.  Otherwise each fiber
    direction phi_f has a leg over phi across [phi_f - span, phi_f +
    span], one over log away from it up to the midpoint with the next,
    phi_n, and one over log toward phi_n from there, each clipped to
    [phi0, phi1]."""
    phi1 = phi0 + TWO_PI
    if not fibers:
        return [(0.0, 0, phi0, phi1)]
    tops = sorted((sigma * f) % TWO_PI for f in fibers)
    n0 = math.floor(phi0 / TWO_PI) - 1
    marks = [f + TWO_PI * n for n in range(n0, n0 + 5) for f in tops]
    legs = []
    for f, f_next in zip(marks, marks[1:]):
        mid = 0.5 * (f + f_next)
        for phi_f, e, lo, hi in ((f, 0, f - span, f + span),
                                 (f, 1, f + span, mid),
                                 (f_next, -1, mid, f_next - span)):
            lo, hi = max(lo, phi0), min(hi, phi1)
            if lo < hi:
                legs.append((phi_f, e, lo, hi))
    return legs


def _turn(chart, rho0: float, theta0: float, box: float, cfg):
    """(status, rho, accumulated error) of the chart orbit from (rho0,
    theta0) to the first of three stops: "turn" at |theta - theta0| =
    2*pi, "box_exit" at max(|x|, |y|) = ``box`` and "floor" at rho =
    min(4 rho0, rho0) - ``_RHO_DROP``.  A start not strictly inside the
    box raises ValueError.

    The orbit runs as the graph of rho over phi = sigma theta, sigma =
    +-1 the sign of theta' at the start, on the "graph" loop, in the legs
    of ``_legs``, each on the chart's slope closed over its leg (sigma,
    phi_f, e): over log|theta - theta_f| near each fiber direction
    theta_f, where rho behaves like a multiple of that log, in steps of
    at most ``_LOG_STEP``, and over theta (e = 0) across it, within
    ``_FIBER_SPAN`` r0, r0 = exp(rho0) held to [1e-10, 1].  A turn ends
    exactly at sigma theta0 + 2*pi.  A box exit or a floor ends at the
    end of the first step where the stop is not negative, its status the
    largest part.  The legs pass the band floor < rho < rho_hi, rho_hi
    the largest float with m rho_hi < log(box) for m = max(a, b) if
    log(box) > 0 and min(a, b) otherwise: as m x rounds monotonely, a
    rho in it makes a rho, b rho < log(box), so the stop is negative
    (log|cos|, log|sin| <= 0), and ``exits``, called only outside it,
    takes the logs.  Where theta turns back, a fold, the leg's step
    underflows, and the 2-D chart ends the turn from there, on the "xy"
    loop with ``cfg.max_steps``, as every leg has: ``passes``, called on
    every step, ends it at the end of a step where the stop is not
    negative, or in the step in which theta passes theta0 +- 2*pi exactly
    there, the step re-run as the graph over theta (``_cross``).  The
    turn's error sums its legs', the folding leg's up to the fold and the
    chart's."""
    a, b, f, slope, fibers = chart
    log_box, floor = math.log(box), min(4.0 * rho0, rho0) - _RHO_DROP
    m = max(a, b) if log_box > 0.0 else min(a, b)
    rho_hi = log_box / m
    while not m * rho_hi < log_box:
        rho_hi = math.nextafter(rho_hi, -math.inf)
    max_step = cfg.max_step or math.inf
    span = _FIBER_SPAN * math.exp(min(max(rho0, math.log(1e-10)), 0.0))

    def parts(state):
        rho, theta = state
        c, s = abs(math.cos(theta)), abs(math.sin(theta))
        return (abs(theta - theta0) - TWO_PI,
                max(a * rho + math.log(c) if c else -math.inf,
                    b * rho + math.log(s) if s else -math.inf) - log_box,
                floor - rho)

    def status(end, err):
        g = parts(end)
        return ("turn", "box_exit", "floor")[g.index(max(g))], end[0], err

    def chart_f(_t, rho, theta):
        return f(rho, theta)

    def passes(t, h, y, y5, _err_abs):
        # the point where theta passes theta0 +- 2 pi, or the end of a
        # step where the stop is not negative
        if abs(y5[1] - theta0) >= TWO_PI:
            turned = theta0 + (TWO_PI if y5[1] > theta0 else -TWO_PI)
            return _cross(chart_f, t, h, y, y5, 1, turned, cfg)[1]
        return y5 if max(parts(y5)) >= 0.0 else None

    if not max(parts((rho0, theta0))) < 0.0:
        raise ValueError(f"start rho={rho0}, theta={theta0} must lie strictly "
                         f"inside the guard box max(|x|, |y|) < {box}")
    sigma = 1.0 if slope(1.0, 0.0, 0)(theta0, rho0) < math.inf else -1.0
    rho, err = rho0, 0.0
    for phi_f, e, lo, hi in _legs(fibers, sigma, sigma * theta0, span):
        t0, t1 = ((e * math.log(e * (phi - phi_f)) for phi in (lo, hi))
                  if e else (lo, hi))

        def theta_at(t, phi_f=phi_f, e=e):
            return sigma * (phi_f + e * math.exp(e * t) if e else t)

        def exits(t, h, _y, y5, _err_abs, theta_at=theta_at):
            end = (y5[0], theta_at(t + h))
            return end if max(parts(end)) >= 0.0 else None

        try:
            end, err_leg = _LOOPS["graph"](
                slope(sigma, phi_f, e), cfg.abs_tol, cfg.rel_tol, t0, (rho,),
                min(max_step, _LOG_STEP) if e else max_step, cfg.max_steps,
                t1, exits, lo=floor, hi=rho_hi)
        except StepUnderflow as exc:  # theta turns back: the chart ends it
            err += exc.err
            end, err_leg = _LOOPS["xy"](
                chart_f, cfg.abs_tol, cfg.rel_tol, 0.0,
                (exc.state[0], theta_at(exc.t)), max_step, cfg.max_steps,
                None, passes)
        err += err_leg
        if len(end) == 2:
            return status(end, err)
        rho = end[0]
    return "turn", rho, err


def return_slope(field: PlanarField, offsets: Sequence[float] | None = None,
                 cfg: IntegratorConfig | None = None) -> SlopeEstimate:
    """Measured Poincare return-map slope around a monodromic origin.

    The section is the ray {x = 0, y > 0}, on which the return map is the
    plain composition of the two fiber transitions.  Orbits start on it
    at the depths y0 = ``offsets``, by default r0^b at the chart radii r0
    of ``DEFAULT_RETURN_RADII`` (1e-8 and 1e-12 under weights (1, 2)),
    strictly inside the guard box max(|x|, |y|) < 4, and run in the
    weighted polar chart (``_weighted_polar``) until theta has moved
    through 2*pi (``_turn``): as the graph of rho over theta, over
    log|theta - theta_f| on either side of each fiber direction theta_f,
    where the orbit passes a fake saddle, and in the chart only past a
    fold.  The slope is exp(b (rho1 - rho0)), and ``_deepest`` makes the
    estimate, the deepest start's slope, with no extrapolation in depth.
    A start below chart radius 1e-8 (y0 = 1e-16 under weights (1, 2)) is
    a ValueError before any orbit runs.  The caller asserts monodromy;
    NoReturn (guard-box exit, a fall onto the origin, a field with no
    terms, refused before any orbit runs) signals that it fails.
    """
    cfg = cfg or IntegratorConfig()
    if field.p.is_zero and field.q.is_zero:
        raise NoReturn("the field has no terms: every point is at rest")
    chart = _weighted_polar(field)
    b = chart[1]
    offsets = _checked_offsets(offsets,
                               [r0 ** b for r0 in DEFAULT_RETURN_RADII])
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
    cut (e.g. 2*pi for an arctan term), positive and finite or
    ValueError; jumps are unwound by shifting whole quanta, and leftover
    jumps above a quarter quantum raise BranchTrackingFailed.
    """
    if branch_quantum is not None and not 0.0 < branch_quantum < math.inf:
        raise ValueError(f"branch_quantum must be positive and finite, got "
                         f"{branch_quantum!r}")
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
# smaller step budget per orbit.  Every verdict on the benchmark's z pools
# for seeds 1-5, the casebook and the test fields holds from rel_tol 1e-9
# to 3e-3; at 5e-3 z(1, 0.3) reads TRANSIT.  1e-5 sits 500x below that edge
_PROBE_CFG = IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8, max_steps=300_000)


def monodromy_probe(field: PlanarField, box: float = 2.0,
                    ring_radius: float | None = None) -> ProbeVerdict:
    """Launch a ring of 12 orbits around the origin and watch them turn.

    The ring is the cartesian circle of radius ``ring_radius``,
    ``1e-9*box`` by default, which must be positive and less than the
    finite box; each start is mapped into the weighted polar chart
    (``_weighted_polar``, ``_chart_point``), where its orbit runs as the
    graph of rho over theta, over log|theta - theta_f| near each fiber
    direction theta_f, and in the chart past a fold (``_turn``).  Under
    unequal weights the ring lands on the fiber directions: for Newton
    weights (1, 2) and the ring radius 1e-8, all 12 starts lie within
    1.9e-4 rad of the fiber directions +-pi/2, six on each, at chart
    radii 5.1e-5 to 9.8e-5, on z(1, 1), z(0, 5/4) and z(-1, 5/16) alike,
    so the 12 orbits cover 2 directions.  A ring at chart radius 1e-8
    would start between the fake saddles, from where a strongly
    expanding focus such as z(1, 0.3) leaves the box of 10 within one
    turn.  Monodromic when every orbit turns through 2*pi
    inside the guard box max(|x|, |y|) < ``box``; transit at the first
    orbit that leaves the box (it swept past along the fiber
    directions); undecided otherwise, also where an orbit falls onto the
    origin or runs out of ``_PROBE_CFG``'s steps, and for a field with no
    terms, before any orbit runs.

    The orbits run at rel_tol 1e-5 (``_PROBE_CFG``).  The verdict is
    topological, so the tolerance sets only its cost: every verdict of the
    test fields, benchmark pools and casebook holds up to 3e-3, and the
    first flips at 5e-3, 500x above the probe's tolerance.
    """
    r0 = ring_radius if ring_radius is not None else 1e-9 * box
    if not 0.0 < r0 < box < math.inf:
        raise ValueError(f"need 0 < ring radius < box < inf, got ring "
                         f"radius {r0} and box {box}")
    if field.p.is_zero and field.q.is_zero:
        return ProbeVerdict.UNDECIDED  # every point is at rest
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
