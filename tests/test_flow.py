import dataclasses
import importlib.util
import math
import random
import re
import sys
import statistics
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from fakesaddle import asymptotics as asy, flow, normalform, polyfield
from fakesaddle.blowup import saddle_data
from fakesaddle.casebook import (build_example6, build_xn, build_z,
                                 example6_first_integral, printed_y1,
                                 z_gamma_closed, z_return_slope_closed)
from fakesaddle.normalform import NormalFormField, validate_and_build
from fakesaddle.polyfield import PlanarField, Poly2, newton_weights

from conftest import random_normal_form

X, Y = Poly2.gens()
SECTIONS = asy.SectionPair(-1.0, 1.0)
EX6 = build_example6(Fraction(1), Fraction(-1), Fraction(-1))
# an expanding focus: r' = r, theta' = 1, weights (1, 1), no fibers
FOCUS = PlanarField(X - Y, X + Y)


def y1_normal_form():
    return validate_and_build(printed_y1())


class TestIntegrate:
    def test_radial_field_exponential(self):
        traj = flow.integrate(PlanarField(X, Y), (1.0, 1.0),
                              flow.Stop.x_reaches(math.e), param="arclength")
        xe, ye = traj.end
        assert xe == pytest.approx(math.e, abs=1e-9)
        assert ye == pytest.approx(math.e, abs=1e-9)

    def test_quadratic_homogeneous_transit(self):
        traj = flow.integrate(EX6.field(), (-1.0, 0.3),
                              flow.Stop.x_reaches(1.0), param="graph")
        xe, ye = traj.end
        assert xe == pytest.approx(1.0, abs=1e-12)
        assert ye > 0

    def test_degenerate_quartic_transit_exists(self):
        traj = flow.integrate(build_xn(4), (-1.0, 0.05),
                              flow.Stop.x_reaches(1.0), param="arclength")
        xe, ye = traj.end
        assert xe == pytest.approx(1.0, abs=1e-9)
        assert ye > 0

    def test_arclength_stop(self):
        # the radial orbit from (1, 2) is the ray y = 2x: it meets x = e
        # at arclength sqrt(5) (e - 1), which the crossing step re-run
        # over x reads 2.2e-16 off (6.6e-14 on the step's cubic Hermite
        # interpolant)
        traj = flow.integrate(PlanarField(X, Y), (1.0, 2.0),
                              flow.Stop.x_reaches(math.e), param="arclength")
        s_stop, xe, ye, _err = traj.samples[-1]
        assert s_stop == pytest.approx(math.sqrt(5) * (math.e - 1), rel=1e-12)
        assert xe == math.e
        assert ye == pytest.approx(2 * math.e, rel=1e-12)

    def test_rotation_stops_on_the_circle(self):
        # the unit rotation from (1, 0) meets {x = 0} upward at (0, -1):
        # 4.5e-12 off the circle, where its steps end 5e-12 off (2.3e-8 on
        # the step's cubic Hermite interpolant)
        traj = flow.integrate(PlanarField(-Y, X), (1.0, 0.0),
                              flow.Stop.section("x", 0.0, +1),
                              param="arclength")
        _s, xe, ye, _err = traj.samples[-1]
        assert xe == 0.0
        assert abs(math.hypot(xe, ye) - 1.0) <= 1e-10

    def test_sections_near_an_extremum(self):
        # sections within 5.5e-5 of x = -1, where the rotation turns: the
        # step that crosses one starts while x still falls, so its re-run
        # runs back from the step's end; 3.7e-11 off the circle at most
        # (1.7e-8 on the Hermite interpolant).  Which crossing the stop
        # takes is another matter: some steps cross such a section twice
        rotation = PlanarField(-Y, X)
        for k in range(1, 400):
            value = -1.0 + k * 1.37e-7
            traj = flow.integrate(rotation, (1.0, 0.0),
                                  flow.Stop.section("x", value, +1),
                                  param="arclength")
            _s, xe, ye, _err = traj.samples[-1]
            assert xe == value
            assert abs(math.hypot(xe, ye) - 1.0) <= 1e-10, k

    def test_window_exit_through_a_corner(self):
        # the step that leaves through the corner crosses y = 0.9 first,
        # by linear fraction, and x = 1 after it: the stop ends on y = 0.9
        traj = flow.integrate(PlanarField(Poly2.const(1), Poly2.const(1)),
                              (0.0, 0.0),
                              flow.Stop.window_exit(-1.0, 1.0, -1.0, 0.9),
                              flow.IntegratorConfig(max_step=10.0),
                              param="arclength")
        s_stop, xe, ye, _err = traj.samples[-1]
        assert ye == 0.9
        assert xe == pytest.approx(0.9, abs=1e-15)
        assert s_stop == pytest.approx(0.9 * math.sqrt(2), rel=1e-15)

    def test_samples_monotone_and_csv(self, tmp_path):
        traj = flow.integrate(PlanarField(X, Y), (1.0, 1.0),
                              flow.Stop.x_reaches(math.exp(0.5)),
                              param="arclength")
        ts = [s[0] for s in traj.samples]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        out = tmp_path / "traj.csv"
        traj.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t_or_x,x,y,step_error"

    def test_max_steps_exceeded(self):
        cfg = flow.IntegratorConfig(max_steps=50)
        with pytest.raises(flow.MaxStepsExceeded):
            # the unit circle never reaches the far section
            flow.integrate(PlanarField(-Y, X), (1.0, 0.0),
                           flow.Stop.x_reaches(2.0), cfg=cfg,
                           param="arclength")

    @pytest.mark.parametrize("start, target", [((0.0, 1.0), 1.0),
                                               ((0.0, 1.0), -1.0)])
    def test_graph_from_a_vertical_start(self, start, target):
        # p = x vanishes at the start: no graph over x, in either direction
        with pytest.raises(flow.TransitDoesNotExist, match=r"\(0\.0, 1\.0\)"):
            flow.integrate(PlanarField(X, Y), start,
                           flow.Stop.x_reaches(target), param="graph")

    def test_graph_meets_p_zero_at_a_stage_point(self):
        # p = q = 1 - x: slope 1, but the last step's stages at x = 1 meet
        # p = 0, where 0/0 is no slope
        with pytest.raises(flow.TransitDoesNotExist,
                           match=r"folds at \(1\.0, "):
            flow.integrate(PlanarField(1 - X, 1 - X), (0.0, 0.0),
                           flow.Stop.x_reaches(1.0), param="graph")

    @pytest.mark.parametrize("y0, fold, count", [
        (1e-3, r"\(-4\.29516539\d*e-05, 2\.14784566\d*e-05\)", 714),
        (0.3, r"\(-0\.86567181\d*, 0\.43283603\d*\)", 564),
    ], ids=["1e-3", "0.3"])
    def test_graph_stops_at_a_fold(self, count_calls, y0, fold, count):
        # |a| > 2 folds the orbit over x before it reaches x = 1: an
        # unguarded graph ground 10^6 steps from y0 = 1e-3 and lost its
        # step size from 0.3; the guard names the fold at once
        count_rhs = count_calls("as_rhs")
        nf = build_example6(Fraction(5, 2), Fraction(5, 2), Fraction(1, 2))
        count_rhs.append(0)
        start = time.perf_counter()
        with pytest.raises(flow.TransitDoesNotExist,
                           match=r"the graph over x folds at " + fold):
            flow.integrate(nf.field(), (-1.0, y0), flow.Stop.x_reaches(1.0),
                           param="graph")
        assert time.perf_counter() - start < 0.1
        assert count_rhs == [count]

    @pytest.mark.parametrize("start, target", [((-1.0, 0.5), -0.5),
                                               ((-0.5, 0.5), -1.0)])
    def test_graph_of_a_leftward_orbit(self, start, target):
        # p < 0 at the start: the orbit runs leftward, which the graph of
        # a rightward orbit, traced either way, does not follow
        with pytest.raises(flow.TransitDoesNotExist,
                           match=re.escape(f"folds at {start}")):
            flow.integrate(build_z(1.0, 1.0), start,
                           flow.Stop.x_reaches(target), param="graph")

    @pytest.mark.parametrize("target", [1.0, -2.0])
    def test_graph_has_no_backward_direction(self, count_calls, target):
        # the graph runs toward the stop's x either way; backward was
        # ignored, and from (-1, 0.3) on example6 gave the forward samples
        count_rhs = count_calls("as_rhs")
        count_rhs.append(0)
        with pytest.raises(ValueError, match="no backward direction"):
            flow.integrate(EX6.field(), (-1.0, 0.3),
                           flow.Stop.x_reaches(target), param="graph",
                           backward=True)
        assert count_rhs == [0]

    @pytest.mark.parametrize("start", [(2.0, 2.0), (1.0, 0.5)])
    def test_window_stop_needs_a_start_inside(self, count_calls, start):
        # outside the window, or on its edge, the exit event never
        # crosses upward: the drive ground 10^6 steps
        count_rhs = count_calls("as_rhs")
        count_rhs.append(0)
        with pytest.raises(ValueError, match="strictly inside the window"):
            flow.integrate(EX6.field(), start,
                           flow.Stop.window_exit(-1.0, 1.0, -1.0, 1.0),
                           param="arclength")
        assert count_rhs == [0]

    def test_y_section_stop(self):
        traj = flow.integrate(PlanarField(Poly2.const(1), Poly2.const(1)),
                              (0.0, 0.0), flow.Stop.section("y", 0.5, 0),
                              param="arclength")
        s_stop, _xe, ye, _err = traj.samples[-1]
        assert ye == 0.5
        assert s_stop == pytest.approx(0.5 * math.sqrt(2), abs=1e-10)

    def test_time_is_no_parametrization(self, count_calls):
        # every caller traces orbits on a bounded clock, arclength or x
        count_rhs = count_calls("as_rhs")
        count_rhs.append(0)
        with pytest.raises(ValueError, match="got 'time'"):
            flow.integrate(EX6.field(), (-1.0, 0.3),
                           flow.Stop.x_reaches(1.0), param="time")
        with pytest.raises(TypeError, match="param"):
            flow.integrate(EX6.field(), (-1.0, 0.3),
                           flow.Stop.x_reaches(1.0))
        assert count_rhs == [0]


def tableau_step(f, t, y, h, k1):
    """The plain n-D Dormand-Prince step, read off the tableau; the
    reference the unrolled library steps must match bit for bit."""
    k = [k1]
    n = len(y)
    for s in range(1, 7):
        a = flow._A[s]
        ys = tuple(y[i] + h * sum(a[m] * k[m][i] for m in range(s))
                   for i in range(n))
        k.append(f(t + flow._C[s] * h, ys))
    y5 = tuple(y[i] + h * sum(flow._A[6][m] * k[m][i] for m in range(6))
               for i in range(n))
    err = tuple(h * sum(flow._E[m] * k[m][i] for m in range(7))
                for i in range(n))
    return y5, err, k[6]


def loop_norm(y, y5, err, abs_tol, rel_tol):
    """The error-norm sum and largest |error| of a step, as a loop over
    the components with the builtins; the reference for the drives'."""
    norm = 0.0
    for yi, y5i, ei in zip(y, y5, err):
        sc = abs_tol + rel_tol * max(abs(yi), abs(y5i))
        ratio = min(abs(ei) / sc, 1e120)
        norm += ratio * ratio
    return norm, max(map(abs, err))


def reference_rhs(kind, f):
    """The slope of each state kind as an ``f(t, state)`` function."""
    if kind == "xy":
        return lambda t, s: tuple(f(t, s[0], s[1]))
    return lambda x, s: (f(x, s[0]),)


def clocked(rhs):
    """The field ``rhs(x, y)`` as the "xy" kind takes it, ``f(t, x, y)``."""
    return lambda _t, x, y: rhs(x, y)


def graph_of(rhs):
    """The slope q/p of the field ``rhs``: y as a graph over x."""
    def slope(x, y):
        p, q = rhs(x, y)
        return q / p
    return slope


def reference_drive(rhs, t0, y0, cfg, *, t_end=None, sides=(), seen=None):
    """The adaptive drive as a plain loop over ``tableau_step`` and
    ``loop_norm`` with the builtins' min and max; the reference the
    generated drive loops must match bit for bit.  ``rhs(t, state)`` is
    the slope of ``reference_rhs``, ``sides`` those of a ``flow.Stop``;
    ``seen`` counts the branches taken.  Returns (status, t, state,
    accumulated error, Trajectory)."""
    seen = Counter() if seen is None else seen
    t = t0
    y = tuple(float(v) for v in y0)
    n = len(y)
    max_step = cfg.max_step
    k1 = rhs(t, y)
    fn_norm = max(abs(v) for v in k1) + 1e-300
    y_norm = max(abs(v) for v in y) + 1e-6
    h = 1e-2 * y_norm / fn_norm
    if t_end is not None:
        h = min(h, abs(t_end - t))
    if max_step:
        h = min(h, max_step)

    def as_xy(tt, yy):
        return (yy[0], yy[1]) if len(yy) > 1 else (tt, yy[0])

    samples = [(t, *as_xy(t, y), 0.0)]
    err_accum = 0.0
    h_prev = err_prev = None  # the last accepted step, max(its norm, 1e-2)

    def finish(status, t_stop, y_stop, err_total):
        seen[status] += 1
        return status, t_stop, y_stop, err_total, flow.Trajectory(samples)

    for _n in range(cfg.max_steps):
        seen["attempt"] += 1
        if t_end is not None and t + h >= t_end:
            seen["t_end clamp"] += 1
            h = t_end - t
            if h <= 0.0:
                return finish("t_end", t, y, err_accum)
        if t + h == t:
            raise flow.StepUnderflow(f"step size {h} cannot advance t={t}")
        y5, err, k7 = tableau_step(rhs, t, y, h, k1)
        if not all(map(math.isfinite, y5)):
            seen["non-finite halving"] += 1
            h *= 0.5
            continue
        norm, err_abs = loop_norm(y, y5, err, cfg.abs_tol, cfg.rel_tol)
        norm = math.sqrt(norm / n)
        if not norm <= 1.0:
            seen["rejected"] += 1
            h *= max(0.2, 0.9 * norm ** -0.2)
            continue

        # accepted
        t1 = t + h
        crossed = []
        for i, value, direction in sides:
            g0, g1 = y[i] - value, y5[i] - value
            if ((direction >= 0 and g0 < 0.0 <= g1)
                    or (direction <= 0 and g0 > 0.0 >= g1)):
                seen[f"side direction {direction}"] += 1
                crossed.append((g0 / (g0 - g1), i, value))
        if crossed:
            # the side crossed first, by linear fraction of the step
            _frac, i, value = min(crossed)
            t_ev, y_ev, err_ev = reference_cross(rhs, t, h, y, y5, i, value,
                                                 cfg, seen)
            samples.append((t_ev, *y_ev, err_ev))
            return finish("event", t_ev, y_ev, err_accum + err_abs)

        samples.append((t1, *as_xy(t1, y5), err_abs))
        err_accum += err_abs
        t, y, k1 = t1, y5, k7
        if t_end is not None and t >= t_end:
            return finish("t_end", t, y, err_accum)
        fac = 0.9 * norm ** -0.2 if norm > 0 else 5.0
        if norm > 0 and h_prev is not None:
            seen["predictive"] += 1
            fac = min(fac, max(0.2, 0.9 * (h / h_prev)
                               * (err_prev / (norm * norm)) ** 0.2))
        h_prev, err_prev = h, max(norm, 1e-2)
        h *= min(5.0, max(0.2, fac))
        if max_step and max_step < h:
            seen["max_step cap"] += 1
            h = max_step
    raise flow.MaxStepsExceeded(
        f"no stop condition met in {cfg.max_steps} steps")


def reference_cross(rhs, t, h, y, y5, i, value, cfg, seen):
    """(clock, state, error) of the step from y to y5 re-run by
    ``reference_drive`` as the graph over c = d x_i of the other
    coordinate and the clock, to x_i = value: forward from y where the
    orbit moves toward value there, back from y5 otherwise."""
    o = 1 - i
    sigma = 1.0 if y5[i] > y[i] else -1.0
    back = not sigma * rhs(t, y)[i] > 0.0
    seen["run back" if back else "run forward"] += 1
    d = -sigma if back else sigma
    t0, start = (t + h, y5) if back else (t, y)

    def slope(c, state):
        u, s = state
        v = rhs(s, (d * c, u) if i == 0 else (u, d * c))
        if sigma * v[i] > 0.0:
            return v[o] / (d * v[i]), 1.0 / (d * v[i])
        return math.inf, math.inf

    _status, _t, (u, s), err, _traj = reference_drive(
        slope, d * start[i], (start[o], t0), cfg, t_end=d * value, seen=seen)
    return s, ((value, u) if i == 0 else (u, value)), err


def outcome(run):
    """repr of what ``run()`` returns, or the type and args it raises."""
    try:
        return repr(run())
    except Exception as exc:  # every exception is part of the outcome
        return f"raises {type(exc).__name__}{exc.args!r}"


def assert_drive_matches(kind, field, t0, y0, cfg, seen=None, **kw):
    """Drive ``field()`` both ways and require the same outcome; returns it.

    ``field`` makes a fresh field of the kind for each drive, so a field
    that counts its calls sees the same sequence in both.  A drive
    returns (state, error, Trajectory).
    """
    got = outcome(lambda: flow._drive(kind, field(), t0, y0, cfg, **kw))

    def shape(_status, _t, y, err, traj):
        return y, err, traj
    want = outcome(lambda: shape(*reference_drive(
        reference_rhs(kind, field()), t0, y0, cfg, seen=seen, **kw)))
    assert got == want
    return got


def field_then(rhs, values):
    """A field factory: call number i (from 1) of each field it makes
    returns ``values[i]`` where given, and ``rhs(x, y)`` otherwise."""
    def make():
        calls = []

        def f(*args):
            calls.append(args)
            return values.get(len(calls)) or rhs(*args)
        f.calls = calls
        return f
    return make


class TestStep:
    """The steps of the generated drive loops, bit for bit against
    ``tableau_step`` and ``loop_norm`` through the reference drive."""

    RHS_XY = staticmethod(PlanarField(X ** 3 - 2 * X * Y + Fraction(1, 3),
                                      Y ** 2 - X * Y ** 3 + 5 * X).as_rhs())

    def check_drives(self, kind, seed, count):
        """Seeded short drives (start, span, tolerances) of RHS_XY, or of
        its slope q/p for the graph; returns the branch counts."""
        n = {"xy": 2, "graph": 1}[kind]
        field = clocked(self.RHS_XY) if kind == "xy" else graph_of(self.RHS_XY)
        rng = random.Random(seed)
        seen = Counter()
        for _ in range(count):
            t0 = rng.uniform(-2.0, 2.0)
            y0 = tuple(rng.uniform(-1.5, 1.5) for _ in range(n))
            cfg = flow.IntegratorConfig(
                abs_tol=10 ** rng.uniform(-14.0, -4.0),
                rel_tol=10 ** rng.uniform(-12.0, -3.0), max_steps=60)
            assert_drive_matches(kind, lambda: field, t0, y0, cfg, seen,
                                 t_end=t0 + rng.uniform(0.01, 0.5))
        return seen

    @pytest.mark.parametrize("n", [1, 2])
    def test_unrolled_step_equals_tableau_formula(self, n):
        # n = 1 is the graph kind, of the slope q/p; n = 2 the xy kind
        seen = self.check_drives(*(("graph", 1, 400) if n == 1
                                   else ("xy", 2, 200)))
        assert seen["attempt"] >= 3000 and seen["rejected"] >= 100
        assert seen["predictive"] >= 1000

    def test_band_only_filters(self):
        # a drive with the band (lo, hi) calls accept only where y5 leaves
        # it: the same state, error, stages and accept calls as a drive
        # without a band whose accept skips the band itself.  The bands
        # are random, the empty band and the whole line among them
        slope = graph_of(self.RHS_XY)
        rng = random.Random(41)
        seen = Counter()
        for _ in range(300):
            t0 = rng.uniform(-2.0, 2.0)
            y0 = (rng.uniform(-1.5, 1.5),)
            cfg = flow.IntegratorConfig(
                abs_tol=10 ** rng.uniform(-14.0, -4.0),
                rel_tol=10 ** rng.uniform(-12.0, -3.0), max_steps=60)
            t_end = t0 + rng.uniform(0.01, 0.5)
            t_stop = rng.uniform(t0, t_end + 0.1)
            lo, hi = rng.choice([
                (math.inf, -math.inf), (-math.inf, math.inf),
                sorted(rng.uniform(-2.0, 2.0) for _ in range(2)),
                (y0[0] - rng.uniform(0.0, 0.1), y0[0] + rng.uniform(0.0, 0.1)),
                (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))])

            def run(banded):
                stages, calls = [0], []

                def f(x, y):
                    stages[0] += 1
                    return slope(x, y)

                def accept(t, h, y, y5, err):
                    calls.append((t, h, y, y5, err))
                    return y5 if t + h >= t_stop else None

                def filtered(t, h, y, y5, err):
                    if lo < y5[0] < hi:
                        seen["filtered"] += 1
                        return None
                    return accept(t, h, y, y5, err)

                band = {"lo": lo, "hi": hi} if banded else {}
                got = outcome(lambda: flow._LOOPS["graph"](
                    f, cfg.abs_tol, cfg.rel_tol, t0, y0, math.inf,
                    cfg.max_steps, t_end, accept if banded else filtered,
                    **band))
                return got, stages[0], calls

            banded = run(True)
            assert banded == run(False)
            seen["stopped early"] += len(banded[2]) > 0 and \
                banded[2][-1][0] + banded[2][-1][1] >= t_stop
        assert seen["filtered"] >= 1000 and seen["stopped early"] >= 50

    @pytest.mark.parametrize("k7", [(math.nan, 1.0), (1.0, math.nan),
                                    (math.inf, 1.0), (1.0, -math.inf),
                                    (1e130, 1.0), (1e300, -1e-300),
                                    (-0.0, 0.0)])
    def test_norm_of_non_finite_error_is_the_loops(self, k7):
        # a finite y5 whose slope k7 (call 7: k1 and six stages) is huge,
        # infinite or NaN: the drives keep the NaNs of the builtins' loop,
        # a NaN norm rejects the step as a norm above 1 does, a norm past
        # the builtins' cap of 1e120 on each scaled error, which the drives
        # do not have, scales h by the same floor 0.2, and every step after
        # it matches
        seen = Counter()
        assert_drive_matches("xy", field_then(clocked(self.RHS_XY), {7: k7}),
                             0.0, (0.3, -0.2),
                             flow.IntegratorConfig(max_steps=200), seen=seen,
                             t_end=0.5)
        assert seen["attempt"] >= 1  # the first step met k7

    def test_graph_guard_includes_equality(self):
        # integrate()'s graph gives way where p = g*(x^2 + y^2) exactly,
        # traced either way
        g = Fraction(flow._MIN_DENOMINATOR)
        field = PlanarField(g * (X * X + Y * Y), Poly2.const(g))
        for target in (2.0, -2.0):
            with pytest.raises(flow.TransitDoesNotExist,
                               match=re.escape("folds at (1.0, 0.0)")):
                flow.integrate(field, (1.0, 0.0),
                               flow.Stop.x_reaches(target), param="graph")

    @pytest.mark.parametrize("kind", ["xy", "graph"])
    def test_non_finite_state_returns_none_after_its_slope(self, kind):
        # stages 2-7 of the first step overflow y5: the step is retried at
        # half size, after the slope k7 of the non-finite y5 is evaluated
        n = {"xy": 2, "graph": 1}[kind]
        bad = (1.0, 1.7e308) if kind == "xy" else 1.7e308
        big = {i: bad for i in range(2, 8)}
        field = field_then(lambda *_: (1.0, 1.0) if kind == "xy" else 1.0,
                           big)
        seen = Counter()
        assert_drive_matches(kind, field, 0.0, (0.5,) * n,
                             flow.IntegratorConfig(), seen=seen, t_end=1.0)
        assert seen["non-finite halving"] == 1
        f = field()
        flow._drive(kind, f, 0.0, (0.5,) * n, flow.IntegratorConfig(),
                    t_end=1.0)
        assert not math.isfinite(f.calls[6][-1])  # k7 at the overflowed y5

    def test_endpoint_drive_matches_trajectory_end(self):
        # a graph drive of the unguarded slope q/p follows the same steps
        # as integrate()'s
        traj = flow.integrate(EX6.field(), (-1.0, 0.3),
                              flow.Stop.x_reaches(1.0), param="graph")
        (y_end,), _err, _ = flow._drive(
            "graph", graph_of(EX6.field().as_rhs()), -1.0, (0.3,),
            flow.IntegratorConfig(), t_end=1.0)
        assert y_end == traj.end[1]


ROTATION = clocked(PlanarField(-Y, X).as_rhs())


def section(i, value, direction):
    """The sides of a stop on the one section x_i = value."""
    return ((i, value, direction),)


# Named drives through every branch of the drive loop: (name, kind,
# field factory, t0, y0, config, drive options, the branches of the
# reference that the drive must take, how the drive ends: "(" for a
# result, by repr)
DRIVES = [
    ("graph to t_end", "graph", lambda: graph_of(EX6.field().as_rhs()), -1.0,
     (0.3,), flow.IntegratorConfig(),
     dict(t_end=1.0),
     {"t_end clamp", "t_end", "rejected", "predictive"}, "("),
    # transition_slope's left outer leg, v = log(y/y0) over s = -log(-x),
    # of the a = b = 5/2 member on the X_DIR slope, from x = -1 to -e^-6
    # in steps of at most 2
    ("outer leg over s", "graph",
     lambda: build_example6(Fraction(5, 2), Fraction(5, 2),
                            Fraction(1, 2)).field().as_x_dir_slope(1e-3, -1.0),
     0.0, (0.0,), flow.IntegratorConfig(max_step=flow._LOG_STEP),
     dict(t_end=6.0), {"t_end clamp", "t_end"}, "("),
    ("graph p = 0", "graph",
     lambda: graph_of(lambda x, y: (0.0 if x > 0.5 else 1.0, y)), 0.0,
     (0.2,), flow.IntegratorConfig(), dict(t_end=1.0), set(),
     "raises ZeroDivisionError"),
    ("graph of zero span", "graph", lambda: graph_of(EX6.field().as_rhs()), 0.5,
     (0.3,), flow.IntegratorConfig(), dict(t_end=0.5),
     {"t_end clamp", "t_end"}, "("),
    # 0.1 + 0.2 is t_end, but t_end - 0.1 is not 0.2: the clamp moves h
    ("t_end met by rounding", "xy",
     lambda: lambda _t, x, y: (1e-3 * y, -1e-3 * x), 0.1, (1.0, 0.0),
     flow.IntegratorConfig(max_step=0.2),
     dict(t_end=0.1 + 0.2), {"t_end clamp", "t_end"},
     "("),
    ("xy to t_end with max_step", "xy", lambda: clocked(EX6.field().as_rhs()),
     0.0, (-1.0, 0.3), flow.IntegratorConfig(max_step=0.01),
     dict(t_end=2.0), {"max_step cap", "t_end"}, "("),
    *((f"event of direction {sides[0][2]}", "xy", lambda: ROTATION, 0.0,
       (1.0, 0.0), flow.IntegratorConfig(rel_tol=1e-8), dict(sides=sides),
       {f"side direction {sides[0][2]}", "event", "run forward"}, "(")
      for sides in (section(0, 0.0, -1), section(1, 0.5, 0),
                    section(0, 0.0, +1))),
    # x falls at the start of the step that crosses this section near the
    # extremum x = -1: the re-run runs back from the step's end
    ("event near an extremum", "xy", lambda: ROTATION, 0.0, (1.0, 0.0),
     flow.IntegratorConfig(), dict(sides=section(0, -1.0 + 1.37e-7, +1)),
     {"side direction 1", "event", "run back"}, "("),
    # the step that leaves the window crosses its top and its right side
    ("window corner", "xy", lambda: lambda _t, x, y: (1.0, 1.0), 0.0,
     (0.0, 0.0), flow.IntegratorConfig(max_step=10.0),
     dict(sides=flow.Stop.window_exit(-1.0, 1.0, -1.0, 0.9).sides),
     {"side direction 1", "event", "run forward"}, "("),
    # return_slope's drive: the weighted polar chart of z(1, 1) from the
    # ray {x = 0, y > 0} at y = 1e-8 through one turn of theta, to either
    # of the two sides theta = pi/2 +- 2 pi
    ("weighted polar turn", "xy",
     lambda: clocked(flow._weighted_polar(build_z(1.0, 1.0))[2]), 0.0,
     (math.log(1e-8) / 2, math.pi / 2), flow.IntegratorConfig(),
     dict(sides=((1, math.pi / 2 + flow.TWO_PI, +1),
                 (1, math.pi / 2 - flow.TWO_PI, -1))),
     {"side direction 1", "rejected", "predictive"}, "("),
    ("non-finite y5", "xy",
     field_then(ROTATION, {3: (1.0, 1.7e308), 4: (1.0, 1.7e308)}), 0.0,
     (1.0, 0.0), flow.IntegratorConfig(),
     dict(t_end=1.0), {"non-finite halving", "t_end"},
     "("),
    ("step underflow", "xy", lambda: ROTATION, 1e20, (1.0, 0.0),
     flow.IntegratorConfig(), dict(sides=section(0, 0.0, 1)), set(),
     "raises StepUnderflow"),
    ("max steps", "xy", lambda: ROTATION, 0.0, (1.0, 0.0),
     flow.IntegratorConfig(max_steps=30),
     dict(sides=section(0, 5.0, +1)),
     set(), "raises MaxStepsExceeded"),
]


class TestDrive:
    """The generated drive loops against ``reference_drive``: the same
    result and Trajectory, by repr, or the same exception."""

    @pytest.mark.parametrize("name, kind, field, t0, y0, cfg, kw, "
                             "branches, ending", DRIVES,
                             ids=[d[0] for d in DRIVES])
    def test_drive_equals_reference(self, name, kind, field, t0, y0, cfg,
                                    kw, branches, ending):
        seen = Counter()
        got = assert_drive_matches(kind, field, t0, y0, cfg, seen, **kw)
        assert branches <= set(seen)
        assert got.startswith(ending)

    def test_re_run_that_turns_back_underflows(self):
        # a step taken to cross x = 0.99 from (0.95, -0.2), on a circle
        # that reaches x = 0.9708 at most: past it the re-run's stages
        # have slope inf, and it halves its step until t + h == t
        with pytest.raises(flow.StepUnderflow,
                           match=r"cannot advance t=0\.97082"):
            flow._cross(ROTATION, 0.0, 1.0, (0.95, -0.2), (1.0, 0.0), 0, 0.99,
                        flow.IntegratorConfig())

    def test_seeded_drives_equal_reference(self):
        # random polynomial fields, starts, tolerances, step caps, stops
        rng = random.Random(9)
        seen = Counter()
        for _ in range(60):
            coeff = [rng.uniform(-2.0, 2.0) for _ in range(6)]
            p = coeff[0] - Y + coeff[1] * X * X + coeff[2] * X * Y
            q = X + coeff[3] * Y + coeff[4] * X * X * Y + coeff[5] * Y ** 3
            rhs = PlanarField(p, q).as_rhs()
            cfg = flow.IntegratorConfig(
                abs_tol=10 ** rng.uniform(-12.0, -6.0),
                rel_tol=10 ** rng.uniform(-10.0, -4.0), max_steps=300,
                max_step=rng.choice((None, 0.05, 0.2)))
            start = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if rng.random() < 0.5:
                rng.choice((1e-8, math.nan))  # once chose the guard; kept
                assert_drive_matches(
                    "graph", lambda: graph_of(rhs), start[0], start[1:],
                    cfg, seen, t_end=start[0] + rng.uniform(0.1, 1.0))
            else:
                t_end = rng.choice((None, rng.uniform(0.5, 3.0)))
                sides = section(0, rng.uniform(-1.0, 1.0),
                                rng.choice((-1, 0, 1)))
                rng.random()  # once chose a non-terminal event; kept draw
                rng.choice((None, flow.TWO_PI))  # once chose winding; kept
                rng.random()  # once chose whether to keep samples; kept
                assert_drive_matches("xy", lambda: clocked(rhs), 0.0, start,
                                     cfg, seen, t_end=t_end, sides=sides)
        assert seen["attempt"] >= 3000


def cubic_field(p, dp, h):
    """The "xy" field whose x runs along the cubic p(tau) of derivative
    dp(tau) over the clock t = h (tau - tau0) from t = 0: tau from 0 up
    to 1 for h > 0, from 1 down to 0 for h < 0; y stays 0."""
    tau0 = 0.0 if h > 0 else 1.0
    return tau0, lambda t, _x, _y: (dp(tau0 + t / h) / h, 0.0)


class TestLocate:
    """Stops on orbits whose x runs along cubics with known roots: the
    crossing step, re-run over x, ends on the root."""

    # (root r, the cubic's other factor (tau^2 + u tau + v) as (u, v)),
    # which has no zero in [0, 1]
    CUBICS = [(0.3, (0.0, 1.0)), (1 / 3, (-3.0, 2.25)), (0.7, (1.0, 0.1)),
              (0.05, (-2.5, 1.6)), (0.95, (0.0, 0.01)), (0.5, (-1.0, 0.3))]

    @pytest.mark.parametrize("root, uv", CUBICS)
    @pytest.mark.parametrize("h", [1.0, 2.0 ** -20, -2.0 ** -7])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_root_of_a_cubic(self, root, uv, h, sign):
        # sign -1 turns the upward crossing into a downward one, and so
        # does h < 0, which runs the cubic backward.  The stop reads x = 0
        # exactly, at the root's clock to within the re-run's error: 0.75
        # of that error at most
        u, v = uv

        def p(x):
            return sign * (x - root) * (x * x + u * x + v)

        def dp(x):
            return sign * ((x * x + u * x + v) + (x - root) * (2 * x + u))

        tau0, field = cubic_field(p, dp, h)
        (xe, ye), _err, traj = flow._drive(
            "xy", field, 0.0, (p(tau0), 0.0), flow.IntegratorConfig(),
            sides=section(0, 0.0, 0))
        assert (xe, ye) == (0.0, 0.0) == traj.samples[-1][1:3]
        t_stop, _x, _y, err = traj.samples[-1]
        assert abs(t_stop - h * (root - tau0)) <= err

    def test_zero_at_the_step_end(self):
        # a section through a step's end counts as crossed in that step:
        # from there on the orbit starts on it, and the downward stop
        # fired a whole turn later
        cfg = flow.IntegratorConfig()
        _y, _err, steps = flow._drive("xy", ROTATION, 0.0, (1.0, 0.0), cfg,
                                      t_end=2.0)
        t3, x3, y3, _e = steps.samples[3]
        traj = flow._drive("xy", ROTATION, 0.0, (1.0, 0.0), cfg,
                           sides=section(0, x3, -1))[2]
        assert traj.samples[:3] == steps.samples[:3]
        t_stop, xe, ye, err = traj.samples[3]
        assert len(traj.samples) == 4 and xe == x3
        assert abs(t_stop - t3) <= err and abs(ye - y3) <= err


def integrate_row(n, case, start, stop, param, backward, count, named=None):
    """A row of ``TestRhsCounts.test_integrate`` under the id of its
    place ``n`` in the table, which the time rows once shared, and of the
    count ``named`` it was first pinned at, when that was not ``count``."""
    return pytest.param(case, start, stop, param, backward, count,
                        id=f"{case}-start{n}-stop{n}-{param}-{backward}-"
                           f"{named or count}")


class TestRhsCounts:
    """Right-hand-side evaluations of the measured maps, pinned.

    The count fixes the whole sequence of accepted and rejected steps, so
    a kernel or drive-loop change that moves any step shows here first.
    """

    # the turns of the chart count its stages (``as_chart``): each was one
    # field call until the chart was compiled from the field's terms.  A
    # turn's legs count the stages of the slope of rho over theta and
    # over log|theta - theta_f| near a fiber direction
    # (``as_chart_slope``), and the chart's only past a fold

    def test_monodromy_probe(self, count_calls):
        # 159384 by winding the cartesian state, 13780 with the chart
        # stage as a field call, 13782 with the turns in the chart, 9282
        # as one graph over theta, 7710 in legs at the probe's rel_tol
        # 1e-6, 5556 before the chart bound its monomials once
        count_slope = count_calls("as_chart_slope")
        count_chart = count_calls("as_chart")
        count_slope.append(0)
        count_chart.append(0)
        flow.monodromy_probe(build_z(1.0, 1.0), box=10.0, ring_radius=1e-8)
        assert count_slope == [5550]
        assert count_chart == [0]

    def test_return_slope(self, count_calls):
        # 44428 by winding the cartesian state from four offsets; 14456
        # chart stages, and 14 of the slope over theta for the step in
        # which theta passes, before each turn ran as legs over log|theta
        # - theta_f| from the start
        count_slope = count_calls("as_chart_slope")
        count_chart = count_calls("as_chart")
        count_slope.append(0)
        count_chart.append(0)
        flow.return_slope(build_z(1.0, 1.0))
        assert count_chart == [0]
        assert count_slope == [5440]

    # below the monodromy threshold beta = 1/4 the first orbit leaves the
    # box, or, contracting, falls through the rho floor onto the origin,
    # each past a fold in the chart.  Every stage counts; the chart alone
    # took 2689 and 6325 before the legs, and the legs 2369 and 6934
    # before the chart bound its monomials once (the ids keep the counts
    # first pinned)
    @pytest.mark.parametrize("alpha, beta, status, count", [
        (1.0, 0.2, "box_exit", 2381),
        (-1.0, 0.1, "floor", 6916),
    ], ids=["1.0-0.2-box_exit-2641", "-1.0-0.1-floor-6223"])
    def test_return_slope_without_return(self, count_calls, alpha, beta,
                                         status, count):
        count_stages = count_calls("as_chart", "as_chart_slope")
        count_stages.append(0)
        with pytest.raises(flow.NoReturn, match=status):
            flow.return_slope(build_z(alpha, beta))
        assert count_stages == [count]

    def test_monodromy_probe_stops_at_first_exit(self, count_calls):
        # the first of the 12 orbits leaves the box and decides TRANSIT:
        # its own stages, 271 in the chart, where the whole ring took
        # 4056, 566 as one graph over theta, and 387 in legs at the
        # probe's rel_tol 1e-6
        count_slope = count_calls("as_chart_slope")
        count_chart = count_calls("as_chart")
        count_slope.append(0)
        count_chart.append(0)
        verdict = flow.monodromy_probe(EX6.field(), box=2.0)
        assert verdict is flow.ProbeVerdict.TRANSIT
        assert count_slope == [351]
        assert count_chart == [0]

    def test_transition_slope_both_sides(self, count_calls):
        # 6293 and 5387 over y in the graph from five shallow offsets,
        # 3057 and 2949 with the middle leg in the chart state (u, v),
        # 2241 and 2073 with v's error tested against abs_tol + rel_tol |v|,
        # 2181 and 2055 against rel_tol (1 + |v|) and with the loop's first
        # step 1e-2 (|v| + 1e-6)/|v'|, 2127 and 2031 with the outer legs on
        # as_rhs in steps of at most 1
        count_rhs = count_calls("as_rhs", "as_x_dir_slope")
        for side in "+-":
            count_rhs.append(0)
            flow.transition_slope(EX6, SECTIONS, side)
        assert count_rhs == [2025, 1983]

    def test_transition_slope_fold_member(self, count_calls):
        # |a| > 2: the graph over x of a shallow orbit folds, and the
        # arclength fallback took 13797 and 12779; the deep legs hand over
        # at |x| = (|a| + 1)|y|, where p > 0, and the middle leg in the
        # chart state (u, v) took 3909 and 4215; 3051 and 3291 with v's
        # error tested against abs_tol + rel_tol |v|, 3003 and 3279 against
        # rel_tol (1 + |v|) and with the loop's first step 1e-2 (|v| +
        # 1e-6)/|v'|, 3027 and 3555 with the outer legs on as_rhs in
        # steps of at most 1
        count_rhs = count_calls("as_rhs", "as_x_dir_slope")
        nf = build_example6(Fraction(5, 2), Fraction(5, 2), Fraction(1, 2))
        for side in "+-":
            count_rhs.append(0)
            flow.transition_slope(nf, SECTIONS, side)
        assert count_rhs == [2703, 3045]


    # integrate() in each parametrization, with stops of each kind: the
    # accepted-step path with its stop and samples.  An arclength stop
    # re-runs its crossing step over the crossed coordinate: one field
    # call to choose where from, then one or two steps of seven
    @pytest.mark.parametrize("case, start, stop, param, backward, count", [
        integrate_row(4, "example6", (-1.0, 0.3), ("x", 1.0), "arclength",
                      False, 747, named=739),
        integrate_row(5, "example6", (-1.0, 0.3), ("section", 1),
                      "arclength", False, 351, named=337),
        integrate_row(6, "example6", (-1.0, 0.3), ("x", 1.0), "graph", False,
                      787, named=781),
        integrate_row(7, "example6", (1.0, 0.3), ("x", -1.0), "graph", False,
                      301),
        integrate_row(11, "example6", (1.0, 0.3), ("section", -1),
                      "arclength", True, 177, named=181),
        integrate_row(12, "z", (0.0, 0.1), ("section", 1), "arclength",
                      False, 1521, named=1573),
        integrate_row(13, "z", (0.0, 0.5), ("window", 2.0), "arclength",
                      False, 735, named=721),
        integrate_row(14, "example6", (-1.0, 0.1), ("x", 1.0), "graph",
                      False, 961),
        integrate_row(15, "example6", (1.0, 0.1), ("x", -1.0), "graph",
                      False, 457, named=445),
        integrate_row(18, "z", (0.0, 0.5), ("y", -0.2), "arclength", False,
                      579, named=565),
        integrate_row(21, "example6", (-1.0, 0.3), ("window", 2.0),
                      "arclength", False, 849, named=841),
        integrate_row(22, "example6", (1.0, 0.3), ("x", -1.0), "arclength",
                      True, 297, named=295),
        integrate_row(23, "example6", (-1.0, 0.3), ("window", 2.0),
                      "arclength", True, 135, named=127),
    ])
    def test_integrate(self, count_calls, case, start, stop, param, backward,
                       count):
        count_rhs = count_calls("as_rhs")
        field = EX6.field() if case == "example6" else build_z(1.0, 1.0)
        kind, value = stop
        stop = {"x": flow.Stop.x_reaches,
                "y": lambda v: flow.Stop.section("y", v, 0),
                "section": lambda d: flow.Stop.section("x", 0.0, d),
                "window": lambda r: flow.Stop.window_exit(-r, r, -r, r)}[kind]
        count_rhs.append(0)
        flow.integrate(field, start, stop(value), param=param,
                       backward=backward)
        assert count_rhs == [count]


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"rel_tol": math.nan}, {"abs_tol": math.nan},
        {"rel_tol": math.inf}, {"abs_tol": math.inf},
        {"rel_tol": 0.0}, {"abs_tol": -1e-12},
        {"max_steps": 0}, {"max_steps": -5},
        # range() of the drive took neither: 1.5 raised TypeError there,
        # True ran one attempt
        {"max_steps": 1.5}, {"max_steps": 1e6}, {"max_steps": True},
        {"max_steps": "100"},
        {"max_step": -1.0}, {"max_step": 0.0},
        {"max_step": math.nan}, {"max_step": math.inf},
        # a bool is no number here, as for max_steps: True was taken as 1
        {"rel_tol": True}, {"abs_tol": True}, {"max_step": True},
    ])
    def test_bad_integrator_config(self, kw):
        with pytest.raises(ValueError):
            flow.IntegratorConfig(**kw)

    def test_good_integrator_config(self):
        cfg = flow.IntegratorConfig(rel_tol=1e-6, abs_tol=1e-300,
                                    max_steps=1, max_step=1e-3)
        assert cfg.max_steps == 1 and cfg.max_step == 1e-3

    # an empty list raised IndexError at the deepest start, offsets[-1]
    @pytest.mark.parametrize("measure", [
        lambda offsets: flow.transition_slope(EX6, SECTIONS, "+", offsets),
        lambda offsets: flow.return_slope(build_z(1.0, 1.0), offsets),
    ], ids=["transition_slope", "return_slope"])
    @pytest.mark.parametrize("offsets", [[], ()])
    def test_empty_offsets(self, count_calls, measure, offsets):
        count_rhs = count_calls("as_rhs")
        count_rhs.append(0)
        with pytest.raises(ValueError, match="offsets must"):
            measure(offsets)
        assert count_rhs == [0]

    @pytest.mark.parametrize("axis, direction", [
        ("z", 1), ("X", 0), ("", -1), ("x", 2), ("y", -2), ("x", 0.5),
        # a bool is no direction: True was taken as +1, False as 0
        ("x", True), ("y", False),
    ])
    def test_bad_section_stop(self, axis, direction):
        with pytest.raises(ValueError):
            flow.Stop.section(axis, 0.0, direction)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_bad_stop_value(self, value):
        for make in (flow.Stop.x_reaches,
                     lambda v: flow.Stop.section("x", v, 0)):
            with pytest.raises(ValueError):
                make(value)

    @pytest.mark.parametrize("start, stop, param", [
        ((math.nan, 0.3), flow.Stop.x_reaches(1.0), "graph"),
        ((-1.0, math.inf), flow.Stop.x_reaches(1.0), "graph"),
        ((-1.0, math.inf), flow.Stop.section("x", 0.0, 0), "arclength"),
        ((-1.0, math.nan), flow.Stop.section("y", 0.0, 0), "arclength"),
        ((-math.inf, 0.3), flow.Stop.section("x", 0.0, 0), "arclength"),
    ])
    def test_non_finite_start(self, count_calls, start, stop, param):
        # each ground through 10^6 tries (4-5 s) into MaxStepsExceeded
        count_rhs = count_calls("as_rhs")
        count_rhs.append(0)
        with pytest.raises(ValueError, match="start must be finite"):
            flow.integrate(build_z(1.0, 1.0), start, stop, param=param)
        assert count_rhs == [0]

    @pytest.mark.parametrize("window", [
        (1.0, -1.0, -1.0, 1.0), (-1.0, 1.0, 1.0, -1.0), (0.0, 0.0, -1.0, 1.0),
        (-1.0, 1.0, 0.5, 0.5), (math.nan, 1.0, -1.0, 1.0),
        (-1.0, math.inf, -1.0, 1.0), (-1.0, 1.0, -math.inf, 1.0),
        (-1.0, 1.0, -1.0, math.nan),
    ])
    def test_bad_window_stop(self, window):
        with pytest.raises(ValueError):
            flow.Stop.window_exit(*window)

    @pytest.mark.parametrize("measure, kw", [
        ("monodromy_probe", {"box": math.nan}),
        ("monodromy_probe", {"box": -1.0}),
        ("monodromy_probe", {"box": math.inf}),
        ("monodromy_probe", {"ring_radius": math.nan}),
        ("monodromy_probe", {"ring_radius": 0.0}),
        ("monodromy_probe", {"ring_radius": -1e-8}),
        ("monodromy_probe", {"box": 10.0, "ring_radius": 10.0}),
        # return_slope's box is max(|x|, |y|) < 4: starts on its edge and
        # beyond it
        ("return_slope", {"offsets": (400.0, 400.0 * 1e-4)}),
        ("return_slope", {"offsets": (10.0, 1.0)}),
        ("return_slope", {"offsets": (1e300, 1e300 * 1e-4)}),
        ("return_slope", {"offsets": (4.0,)}),
        ("return_slope", {"offsets": (1000.0, 1000.0 * 1e-4)}),
    ])
    def test_guard_box_that_cannot_fire(self, measure, kw):
        # the box_exit event fires only on the way out of a finite box, so
        # a start that is not strictly inside one would run unguarded
        message = "ring radius" if measure == "monodromy_probe" else "guard box"
        with pytest.raises(ValueError, match=message):
            getattr(flow, measure)(build_z(1.0, 1.0), **kw)

    # of the starts y0 = section_scale and 1e-4 section_scale, the deeper
    # lies below the chart radius 1e-8, y0 = 1e-16 under z's weights
    # (1, 2): refused before any RHS evaluation.  From y0 = 1e-20 the chart reads 1.1e-4 off on z(-1, 2),
    # from 1e-24 28% on z(1, 1).  Winding the cartesian state ground 10^6
    # steps (7-8 s) into NoReturn from section_scale 1e-50 to 1e-140, and
    # refused 1e-145 and below for tolerances that underflow
    @pytest.mark.parametrize("section_scale", [
        9.999e-13, 1e-16, 1e-20, 1e-50, 1e-140])
    def test_return_slope_below_the_depth_floor(self, count_calls,
                                                section_scale):
        count_rhs = count_calls("as_rhs")
        count_rhs.append(0)
        with pytest.raises(ValueError,
                           match=r"offsets .* below the depth floor"):
            flow.return_slope(build_z(1.0, 1.0),
                              (section_scale, section_scale * 1e-4))
        assert count_rhs == [0]

    # scales at which the absolute tolerance rel_tol*r0^2 or the stall
    # radius 1e-8*r0^2 of the deepest start r0 was zero or subnormal when
    # the tolerance followed the start: both, then only the stall radius,
    # then only the tolerance.  Whatever the configured tolerance, they
    # stay refused before any RHS evaluation, now by the depth floor
    @pytest.mark.parametrize("section_scale, rel_tol", [
        (1e-160, 1e-10), (1e-150, 1e-10), (1e-147, 1e-6), (1e-145, 1e-12),
    ])
    def test_return_slope_tolerance_underflow(self, count_calls,
                                              section_scale, rel_tol):
        count_rhs = count_calls("as_rhs")
        count_rhs.append(0)
        with pytest.raises(ValueError,
                           match=r"offsets .* below the depth floor"):
            flow.return_slope(build_z(1.0, 1.0),
                              (section_scale, section_scale * 1e-4),
                              cfg=flow.IntegratorConfig(rel_tol=rel_tol))
        assert count_rhs == [0]

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("direction", [-1, 0, 1])
    def test_good_section_stop(self, axis, direction):
        # one side, (axis index, value, direction); only x_reaches has an
        # x_target, which the graph needs
        stop = flow.Stop.section(axis, 0.5, direction)
        assert stop.sides == (("xy".index(axis), 0.5, direction),)
        assert stop.x_target is None
        assert flow.Stop.x_reaches(0.5).x_target == 0.5


class TestSectionDirection:
    # the unit rotation x' = -y, y' = x crosses {x = 0} downward at (0, 1)
    # and upward at (0, -1); each start meets the wrong-direction crossing
    # first, a quarter turn before the one the stop asks for
    @pytest.mark.parametrize("start, direction, y_stop", [
        ((1.0, 0.0), +1, -1.0),
        ((-1.0, 0.0), -1, 1.0),
    ])
    def test_crossing_in_other_direction_is_ignored(self, start, direction,
                                                    y_stop):
        # the drive on the rotation itself, whose clock is the angle
        _y, _err, traj = flow._drive("xy", ROTATION, 0.0, start,
                                     flow.IntegratorConfig(),
                                     sides=section(0, 0.0, direction))
        t_end, xe, ye, _err = traj.samples[-1]
        assert t_end == pytest.approx(1.5 * math.pi, rel=1e-8)
        assert xe == 0.0
        assert ye == pytest.approx(y_stop, abs=1e-9)


def chart_transit(nf, alpha, omega, y0, k, cfg=flow.IntegratorConfig()):
    """log(y1/y0) of ``flow._transit``'s orbit with the middle leg as the
    2-D state (u, v) of the chart u = x/|y|, v = log(y/y0), on the "xy"
    loop over dtau = |y| dt: u' = p/y^2 - u w, v' = w = q/(y|y|), to the
    end of the first accepted step past u = k; the right leg starts at
    x = u|y| there.  The outer legs run on the X_DIR slope in steps of at
    most ``_LOG_STEP``, test v's error against the fixed ``_LOG_TOL``
    rel_tol and start from 1e-2 (|v| + 1)/|v'|, as in ``_transit``; the
    chart runs at ``cfg``'s tolerances from the loop's first step, since u
    is no logarithm."""
    field = nf.field()
    rhs = field.as_rhs()
    tol, steps = (flow._LOG_TOL * cfg.rel_tol, 0.0), cfg.max_steps
    cap = min(cfg.max_step or math.inf, flow._LOG_STEP)
    ay0, sy = abs(y0), math.copysign(1.0, y0)
    lk = math.log(k * ay0)

    def chart(_t, u, v):
        try:
            ay = ay0 * math.exp(v)
            p, q = rhs(u * ay, sy * ay)
            w = q / (sy * ay * ay)
            return p / (ay * ay) - u * w, w
        except ArithmeticError:
            return math.inf, math.inf

    def left(t, h, _y, y5, _e):
        s = t + h
        return (s, y5[0]) if s + y5[0] + lk >= 0.0 else None

    def middle(_t, _h, _y, y5, _e):
        return y5 if y5[0] >= k else None

    (s, v), _err = flow._LOOPS["graph"](
        field.as_x_dir_slope(y0, -1.0), *tol, -math.log(-alpha), (0.0,), cap,
        steps, None, left, scale=1.0)
    (u, v), _err = flow._LOOPS["xy"](
        chart, cfg.abs_tol, cfg.rel_tol, 0.0, (-math.exp(-s - v) / ay0, v),
        cfg.max_step or math.inf, steps, None, middle)
    (v,), _err = flow._LOOPS["graph"](
        field.as_x_dir_slope(y0, 1.0), *tol, math.log(u * ay0 * math.exp(v)),
        (v,), cap, steps, math.log(omega), None, scale=1.0)
    return v


class TestTransitionSlope:
    # each bound is at least 9 times the deviation of the estimate, the
    # Richardson step on the two deepest starts: 3.0e-10 (y1), 5.8e-10
    # on both sides (example6), 2.5e-9 (a = b = 5/2)
    def test_resolved_quartic_both_sides(self):
        # closed form gives the same slope on both sides here
        for side in "+-":
            est = flow.transition_slope(y1_normal_form(),
                                        asy.SectionPair(-1.0, 0.5), side)
            assert est.value == pytest.approx(4.0, rel=1e-8)
            assert abs(est.value - 4.0) <= est.residual < 1e-5

    def test_quadratic_homogeneous_both_sides(self):
        plus = flow.transition_slope(EX6, SECTIONS, "+")
        minus = flow.transition_slope(EX6, SECTIONS, "-")
        assert plus.value == pytest.approx(math.exp(-math.pi), rel=1e-8)
        assert minus.value == pytest.approx(math.exp(math.pi), rel=1e-8)

    @pytest.mark.parametrize("abc, k", [
        ((1, -1, -1), 1.0),
        ((Fraction(5, 2), Fraction(5, 2), Fraction(1, 2)), 3.5),
    ], ids=["example6", "a=b=5/2"])
    @pytest.mark.parametrize("side", "+-")
    def test_middle_leg_agrees_with_the_chart_state(self, abc, k, side):
        # the graph of v over u against the 2-D chart state (u, v): the
        # two differ by their step errors, 8.2e-12 at most at rel_tol
        # 1e-12 (5.7e-10 at the default 1e-10, against a bound of 1e-9)
        nf = build_example6(*map(Fraction, abc))
        cfg = flow.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
        est = flow.transition_slope(nf, SECTIONS, side, cfg=cfg)
        sign = 1.0 if side == "+" else -1.0
        for offset, slope in zip(flow.DEFAULT_OFFSETS, est.per_offset):
            ref = math.exp(chart_transit(nf, -1.0, 1.0, sign * offset, k,
                                         cfg))
            assert slope == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("cfg, point, reason", [
        # p <= 0 on the left leg: halving ran h down to 2.1e-17 at x = -0.71
        (flow.IntegratorConfig(), r"-0\.71\d*, 0\.33\d*", "cannot advance"),
        # three attempts from the first step 1e-2 (|v| + 1)/|v'| reach x =
        # -0.947; from 1e-2 (|v| + 1e-6)/|v'| they ended next to the start
        (flow.IntegratorConfig(max_steps=3), r"-0\.94\d*, 0\.21\d*",
         "in 3 steps"),
    ], ids=["step_underflow", "max_steps"])
    def test_failed_leg_is_no_transit(self, cfg, point, reason):
        # starts below min(-alpha, omega)/(2k) = 0.5 are valid; the loop's
        # StepUnderflow and MaxStepsExceeded leaked out of transition_slope
        nf = NormalFormField(Poly2.const(1), 1 - 10 * Y, Poly2.const(-1),
                             Poly2.const(-1), 1)
        with pytest.raises(flow.TransitDoesNotExist,
                           match=rf"orbit from \(-1.0, 0.2\) stops on the "
                                 rf"left leg at \({point}\): .*{reason}"):
            flow.transition_slope(nf, SECTIONS, "+",
                                  offsets=(0.2, 0.1, 0.05), cfg=cfg)

    @pytest.mark.parametrize("side", "+-")
    def test_left_leg_starts_on_the_log_scale(self, monkeypatch, side):
        # every left leg starts at v = 0, where the loop's first step 1e-2
        # (|v| + 1e-6)/|v'| took about 1e-8 in s and grew by 5 a step for
        # some 9 accepted steps; the leg's 1e-2 (|v| + 1)/|v'| reads v on
        # its own scale, 1
        drive, left_steps = flow._LOOPS["graph"], []

        def recording(f, abs_tol, rel_tol, t, state, max_step, max_steps,
                      t_end, accept, **kw):
            if state == (0.0,):
                steps = []
                left_steps.append(steps)

                def seen(t, h, y, y5, err_abs, accept=accept):
                    steps.append(h)
                    return accept(t, h, y, y5, err_abs)
                accept = seen
            return drive(f, abs_tol, rel_tol, t, state, max_step, max_steps,
                         t_end, accept, **kw)

        monkeypatch.setitem(flow._LOOPS, "graph", recording)
        flow.transition_slope(EX6, SECTIONS, side)
        assert len(left_steps) == len(flow.DEFAULT_OFFSETS)
        assert all(steps[0] >= 1e-3 for steps in left_steps)

    @pytest.mark.parametrize("side", "+-")
    def test_outer_steps_are_capped(self, side):
        # member 209 of the benchmark's seed-1 transit pool: g1(-1, 0) = 0
        # makes v' vanish at the start, so the first step guessed from it
        # is about 1e292 in s.  Without a cap the sides read 99.8% and 87%
        # off; in steps of at most _LOG_STEP 4.2e-9 and 1.3e-9
        n = Fraction(1, 16)
        nf = NormalFormField(
            1 - 4 * n * Y ** 2 - n * X - 5 * n * X * Y
            - 2 * n * X ** 2 - 2 * n * X ** 3,
            1 - 7 * n * X,
            -3 * n - 8 * n * Y - 4 * n * X * Y
            + 3 * n * X ** 2,
            20 * n - 8 * n * Y - 6 * n * Y ** 2, 15 * n)
        sections = asy.SectionPair(-1.0, 0.6875)
        assert nf.g1(-1, 0) == 0
        closed = math.exp(asy.gamma_pm(nf, sections)["+-".index(side)])
        est = flow.transition_slope(nf, sections, side)
        assert est.value == pytest.approx(closed, rel=1e-7)

    def test_flat_symmetric_case(self):
        # g1 = g2 = 0 freezes y along orbits: slope exactly 1
        nf = NormalFormField(Poly2.const(1), Poly2.const(1), Poly2.zero(),
                             Poly2.zero(), 0)
        for side in "+-":
            est = flow.transition_slope(nf, SECTIONS, side,
                                        offsets=(1e-2, 1e-3, 1e-4))
            assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_fake_saddle(self):
        nf = build_example6(Fraction(0), Fraction(0), Fraction(2))
        with pytest.raises(flow.TransitDoesNotExist):
            flow.transition_slope(nf, SECTIONS, "+")

    def test_halving_offsets_within_residual(self):
        base = flow.transition_slope(EX6, SECTIONS, "+")
        halved = flow.transition_slope(
            EX6, SECTIONS, "+", offsets=tuple(o / 2 for o in
                                              flow.DEFAULT_OFFSETS))
        change = abs(base.value - halved.value)
        assert change <= base.residual + halved.residual + 1e-12

    def test_offsets_must_decrease(self):
        with pytest.raises(ValueError):
            flow.transition_slope(EX6, SECTIONS, "+", offsets=(1e-3, 1e-2))

    def test_side_with_denominator_fold(self):
        # |a| > 2 makes the graph denominator of a shallow orbit vanish on
        # the path, where the arclength fallback was held to 2%.  The
        # remainder decays about like y0: 6.5e-6, 6.5e-7 and 6.7e-8 off
        # from the three default starts, 2.5e-9 after the Richardson step
        nf = build_example6(Fraction(5, 2), Fraction(5, 2), Fraction(1, 2))
        gp, _ = asy.gamma_pm(nf, SECTIONS)
        est = flow.transition_slope(nf, SECTIONS, "+")
        assert est.value == pytest.approx(math.exp(gp), rel=5e-8)
        assert est.residual >= abs(est.value - math.exp(gp))

    def test_no_slope_is_negative(self, rng):
        # y = 0 is invariant and each orbit runs in log|y|: every start's
        # slope is positive, where the graphs over x of the shallow offsets
        # crossed y = 0 on 8 of these 80 sides
        for _ in range(40):
            nf = random_normal_form(rng, d_positive=True)
            for side in "+-":
                est = flow.transition_slope(nf, SECTIONS, side)
                assert min(est.per_offset) > 0.0

    # starts above min(-alpha, omega)/(2k), k = 1 here, or below 1e-150,
    # where p and q of order y^2 underflow: refused before any orbit runs
    @pytest.mark.parametrize("offsets", [(2.0,), (0.25, 1e-3), (1e-3, 1e-151),
                                         (1e-300,)])
    def test_starts_out_of_range(self, count_calls, offsets):
        count_rhs = count_calls("as_rhs")
        count_rhs.append(0)
        with pytest.raises(ValueError, match="must lie in"):
            flow.transition_slope(y1_normal_form(),
                                  asy.SectionPair(-1.0, 0.5), "+",
                                  offsets=offsets)
        assert count_rhs == [0]

    def test_orbit_below_the_depth_floor(self):
        # y falls like |x|^c toward x = 0 and meets |x| = |y| near
        # y0^(1/(1 - c)): for c = 19/20 the start 1e-8 stays above 1e-150
        # and 1e-9 falls below it; c = 9/10 reaches about 1e-100 from 1e-10
        # and reads 5.5e-10 off
        for c, deep in ((Fraction(9, 10), False), (Fraction(19, 20), True)):
            nf = build_example6(Fraction(0), Fraction(0), c)
            if deep:
                with pytest.raises(ValueError,
                                   match=r"depth floor \|y\| = 1e-150"):
                    flow.transition_slope(nf, SECTIONS, "+")
            else:
                est = flow.transition_slope(nf, SECTIONS, "+")
                gp, _ = asy.gamma_pm(nf, SECTIONS)
                assert est.value == pytest.approx(math.exp(gp), rel=1e-7)

    def test_semi_hyperbolic_has_no_slope(self):
        # c = 1, a = b: exp(gamma) needs d > 0; the graphs over x of the
        # shallow offsets crossed y = 0 and read -1
        nf = build_example6(Fraction(1), Fraction(1), Fraction(1))
        with pytest.raises(asy.NotHyperbolicFakeSaddle, match="d > 0"):
            flow.transition_slope(nf, SECTIONS, "+")

    @pytest.mark.parametrize("members, alpha, omega, rel", [
        ((Poly2({(0, 0): 1, (1, 0): Fraction(-1, 8), (1, 1): Fraction(-3, 8),
                 (2, 0): Fraction(1, 8), (3, 0): Fraction(-1, 4)}),
          Poly2({(0, 0): 1, (0, 1): Fraction(7, 16), (1, 0): Fraction(-3, 8)}),
          Poly2({(0, 0): Fraction(-1, 8), (0, 1): Fraction(1, 16),
                 (1, 0): Fraction(-1, 8), (1, 1): Fraction(-7, 16),
                 (2, 0): Fraction(3, 8)}),
          Poly2({(0, 0): Fraction(-15, 16), (0, 2): Fraction(1, 8)}),
          Fraction(15, 16)), -0.25, 0.9375, 2e-7),
        ((Poly2({(0, 0): 1, (0, 2): Fraction(-1, 4), (1, 0): Fraction(-1, 16),
                 (1, 1): Fraction(5, 16)}),
          Poly2({(0, 0): 1, (0, 1): Fraction(3, 16), (1, 0): Fraction(-1, 2)}),
          Poly2({(0, 0): -1, (1, 0): Fraction(-5, 16),
                 (1, 1): Fraction(-1, 8), (2, 0): Fraction(-1, 2)}),
          Poly2({(0, 0): Fraction(-5, 4), (0, 1): Fraction(1, 4),
                 (0, 2): Fraction(7, 16)}),
          Fraction(21, 16)), -0.4375, 0.875, 1e-3),
    ])
    def test_slope_past_an_equilibrium(self, members, alpha, omega, rel):
        # from offset 1e-2 the graph folded and the arclength orbit ran
        # into an equilibrium, TransitDoesNotExist; the deep orbits pass
        # below it and read 2.1e-8 and 4.4e-7 off, inside their bars (the
        # second's deepest start 5.0e-4, before the Richardson step)
        nf = NormalFormField(*members)
        sections = asy.SectionPair(alpha, omega)
        est = flow.transition_slope(nf, sections, "-")
        closed = math.exp(asy.gamma_pm(nf, sections)[1])
        assert est.value == pytest.approx(closed, rel=rel)
        assert est.residual >= abs(est.value - closed)


    def test_depth_exponent_is_the_directional_saddles_ratio(self,
                                                             monkeypatch):
        # the exponent kappa of the depth remainder, from the invariants,
        # is min(1, lambda_minus) of the exact layer's saddle data, and
        # the three default starts measure it: (s8 - s9)/(s9 - s10) =
        # 10^kappa.  On the first 128 members of the seed-1 transit pool
        # the median |difference| is 0.002, and 228 of 255 sides lie
        # within 0.05; 3 ratios are not positive
        workloads = bench_workloads(monkeypatch)
        lib = SimpleNamespace(polyfield=polyfield, normalform=normalform,
                              asymptotics=asy)
        pool = workloads.WORKLOADS["transit"].generate(lib, random.Random(1),
                                                       128)
        errors, sides = [], 0
        for nf, sections, _y0 in pool:
            kappa = float(min(1, saddle_data(nf).lambda_minus))
            for side in "+-":
                try:
                    est = flow.transition_slope(nf, sections, side)
                except flow.TransitDoesNotExist:
                    continue
                sides += 1
                assert est.exponent == kappa
                s8, s9, s10 = est.per_offset
                if (s8 - s9) * (s9 - s10) > 0.0:
                    errors.append(abs(math.log10((s8 - s9) / (s9 - s10))
                                      - kappa))
        assert sides >= 250
        assert statistics.median(errors) <= 0.01
        assert sum(e <= 0.05 for e in errors) >= 0.8 * sides

    # c = -1, so kappa = 1/2, and g1 = -1 + x/2 makes the member not
    # homogeneous: its transition map has a depth remainder
    KAPPA_HALF = NormalFormField(Poly2.const(1), Poly2.const(1),
                                 Poly2.const(-1) + X * Fraction(1, 2),
                                 Poly2.const(-1), 1)

    @pytest.mark.parametrize("side", "+-")
    def test_extrapolation_with_kappa_below_one(self, side):
        # the deepest start reads 6.6e-6 (+) and 3.2e-5 (-) off; the
        # Richardson step with q = 10^(1/2) reads 1.5e-9 and 2.4e-8 off
        nf = self.KAPPA_HALF
        closed = math.exp(asy.gamma_pm(nf, SECTIONS)["+-".index(side)])
        est = flow.transition_slope(nf, SECTIONS, side)
        assert est.exponent == 0.5
        deepest = abs(est.per_offset[-1] - closed)
        assert deepest >= 1e-7 * closed
        assert abs(est.value - closed) * 100.0 <= deepest
        assert abs(est.value - closed) <= est.residual

    @pytest.mark.parametrize("nf", [EX6, KAPPA_HALF],
                             ids=["example6", "kappa=1/2"])
    @pytest.mark.parametrize("side", "+-")
    def test_legs_do_not_read_abs_tol(self, nf, side):
        # each leg tests the error of v = log(y/y0) against the fixed 8
        # rel_tol, whatever cfg.abs_tol is
        assert flow.transition_slope(
            nf, SECTIONS, side, cfg=flow.IntegratorConfig(abs_tol=1e-30)) \
            == flow.transition_slope(nf, SECTIONS, side)

    def test_one_start_is_not_extrapolated(self):
        est = flow.transition_slope(EX6, SECTIONS, "+", offsets=(1e-9,))
        assert est.exponent is None
        assert est.value == est.per_offset[0]

    def test_two_starts_take_one_richardson_step(self):
        # c = 1/2: kappa = 1, so q = 10 for starts a decade apart.  The
        # remainder of 6.5e-7 from 1e-9 falls to 4.5e-9
        nf = build_example6(Fraction(5, 2), Fraction(5, 2), Fraction(1, 2))
        closed = math.exp(asy.gamma_pm(nf, SECTIONS)[0])
        est = flow.transition_slope(nf, SECTIONS, "+", offsets=(1e-8, 1e-9))
        s8, s9 = est.per_offset
        assert est.exponent == 1.0
        assert est.value == pytest.approx((10.0 * s9 - s8) / 9.0, rel=1e-15)
        assert est.value == pytest.approx(closed, rel=1e-8)
        assert abs(s9 - closed) > 100.0 * abs(est.value - closed)


class TestDeepest:
    """``_deepest``: the deepest start's slope, or one Richardson step in
    depth per pair of consecutive starts."""

    @staticmethod
    def measure(slope, kappa, err=0.0):
        return lambda o: (math.log(slope * (1.0 + o ** kappa)), err)

    def test_without_exponent_the_deepest_slope(self):
        offsets = (1e-2, 1e-3, 1e-4)
        est = flow._deepest(offsets, self.measure(2.0, 1.0, 1e-9))
        slopes = [2.0 * (1.0 + o) for o in offsets]
        assert est.exponent is None
        assert est.value == est.per_offset[-1]
        assert est.residual == (max(est.per_offset) - min(est.per_offset)
                                + 10.0 * est.per_offset[-1] * 1e-9)
        assert est.per_offset == pytest.approx(slopes, rel=1e-15)

    @pytest.mark.parametrize("kappa", [0.5, 0.75, 1.0])
    def test_exact_remainder_is_removed(self, kappa):
        # s = S (1 + o^kappa): every R_i is S, and the spread is that of
        # the deepest slope from S
        offsets = (1e-2, 1e-3, 1e-4)
        est = flow._deepest(offsets, self.measure(2.0, kappa), kappa)
        assert est.exponent == kappa
        assert est.value == pytest.approx(2.0, rel=1e-12)
        assert est.residual == pytest.approx(2.0 * 1e-4 ** kappa, rel=1e-9)

    def test_one_start_with_exponent(self):
        est = flow._deepest((1e-3,), self.measure(2.0, 1.0, 1e-9), 1.0)
        assert est.exponent is None
        assert est.value == est.per_offset[0]
        assert est.residual == 10.0 * est.value * 1e-9


def chart_return(field, cfg=flow.IntegratorConfig()):
    """``flow.return_slope`` from its default starts with each turn in
    the 2-D chart state (rho, theta) on the "xy" loop up to the step in
    which theta passes theta0 +- 2 pi, and that step re-run from its
    start on the graph of rho over theta, as returns ran before their
    legs over log|theta - theta_f|.  The step's error counts twice."""
    _a, b, f, slope, *_ = flow._weighted_polar(field)
    theta0 = math.pi / 2.0

    def passes(_t, _h, y, y5, _err):
        if abs(y5[1] - theta0) >= flow.TWO_PI:
            return (*y, 1.0 if y5[1] > theta0 else -1.0)
        return None

    def measure(y0):
        rho0 = math.log(y0) / b
        (rho, theta, sigma), err = flow._LOOPS["xy"](
            clocked(f), cfg.abs_tol, cfg.rel_tol, 0.0, (rho0, theta0),
            math.inf, cfg.max_steps, None, passes)
        (rho,), err_graph = flow._LOOPS["graph"](
            slope(sigma, 0.0, 0), cfg.abs_tol, cfg.rel_tol, sigma * theta,
            (rho,), math.inf, cfg.max_steps, sigma * theta0 + flow.TWO_PI,
            None)
        return b * (rho - rho0), b * (err + err_graph)
    return flow._deepest([r0 ** b for r0 in flow.DEFAULT_RETURN_RADII],
                         measure)


def transposed(field):
    """The field mirrored in the diagonal, (q(y, x), p(y, x))."""
    return PlanarField(field.q.transpose(), field.p.transpose())


class TestReturnSlope:
    # each bound is at least 10 times the deviation of the returns:
    # 1.1e-9 (centre, absolute), 3.0e-9, 8.8e-9, 3.4e-7 and 4.6e-5
    # (relative); in the chart the first three read 1.3e-8, 4.3e-9 and
    # 5.3e-9
    def test_center(self):
        est = flow.return_slope(build_z(0.0, 1.0))
        assert est.value == pytest.approx(1.0, abs=2e-7)

    def test_expanding_return(self):
        est = flow.return_slope(build_z(1.0, 1.0))
        assert est.value == pytest.approx(z_return_slope_closed(1.0, 1.0),
                                          rel=1e-7)

    def test_contracting_return(self):
        est = flow.return_slope(build_z(-1.0, 1.0))
        assert est.value == pytest.approx(z_return_slope_closed(-1.0, 1.0),
                                          rel=1e-7)
        # returns are not extrapolated in depth: the deepest start's slope
        assert est.exponent is None and est.value == est.per_offset[-1]

    def test_strong_focus_near_the_threshold(self):
        # beta = 0.3 expands 422-fold per turn: winding the cartesian state
        # left the guard box from (0, 1e-2), NoReturn
        est = flow.return_slope(build_z(0.5, 0.3))
        closed = z_return_slope_closed(0.5, 0.3)
        assert est.value == pytest.approx(closed, rel=5e-6)
        assert est.residual >= abs(est.value - closed)

    def test_strongest_focus_of_the_pools(self):
        # beta = 0.3 at alpha = 1 expands 1.8e5-fold per turn
        est = flow.return_slope(build_z(1.0, 0.3))
        closed = z_return_slope_closed(1.0, 0.3)
        assert est.value == pytest.approx(closed, rel=5e-4)
        assert est.residual >= abs(est.value - closed)

    def test_no_return_outside_monodromy_region(self):
        with pytest.raises(flow.NoReturn):
            flow.return_slope(build_z(1.0, 0.2))

    @pytest.mark.parametrize("field", [build_z(1.0, 1.0), build_z(1.0, 0.2),
                                       EX6.field()],
                             ids=["z(1,1)", "z(1,0.2)", "example6"])
    def test_turns_locate_no_stop(self, monkeypatch, field):
        # a turn ends on the graph of rho over theta, a box exit or a
        # floor at a step's end; only a turn that folds and then passes
        # theta0 +- 2 pi in the chart re-runs a step as a stop does, and
        # no orbit of these maps makes one
        def located(*_args):
            raise AssertionError("a turn located its stop")

        monkeypatch.setattr(flow, "_cross", located)
        flow.monodromy_probe(field, box=10.0, ring_radius=1e-8)
        try:
            flow.return_slope(field)
        except flow.NoReturn:
            pass

    def test_legs_agree_with_the_chart(self, monkeypatch):
        # the seed-1 benchmark pool, the casebook's returns and the
        # transposed quartic, whose fibers lie a quarter turn from the
        # start: each start's slope within 4.4e-7 of the chart's (z(-1,
        # 5/16), which contracts 1.1e5-fold a turn, 2.7e-7 and -1.8e-7
        # off from its deeper start), and the values within the sum of
        # the residuals, about 1e-5 and 5e-5 of the slope
        fields = z_pool(monkeypatch, 1) + [
            make(build_z(alpha, 1.0)) for make in (lambda z: z, transposed)
            for alpha in (1.0, -1.0, 0.0)]
        for field in fields:
            legs, chart = flow.return_slope(field), chart_return(field)
            assert abs(legs.value - chart.value) <= \
                legs.residual + chart.residual
            for s_legs, s_chart in zip(legs.per_offset, chart.per_offset):
                assert s_legs == pytest.approx(s_chart, rel=2e-6)

    def test_field_without_terms_is_refused(self, count_calls):
        # every point is at rest, so every stage's slope was 0/0: the
        # return ground through 10^6 steps (1.8 s) into NoReturn
        field = PlanarField(Poly2.zero(), Poly2.zero())
        count_stages = count_calls("as_chart", "as_chart_slope")
        count_stages.append(0)
        with pytest.raises(flow.NoReturn, match="no terms"):
            flow.return_slope(field)
        assert flow.monodromy_probe(field) is flow.ProbeVerdict.UNDECIDED
        assert count_stages == [0]

    @staticmethod
    def fold_legs(monkeypatch, every, err, graph=flow._LOOPS["graph"]):
        """Make every ``every``-th leg of the turns (only they run on the
        graph loop here) raise StepUnderflow at its start with the
        accumulated error ``err``, as where theta turns back; the others
        run on ``graph``, the unpatched loop."""
        legs = []

        def folds(f, abs_tol, rel_tol, t, state, *args, **kw):
            legs.append(t)
            if len(legs) % every == 0:
                raise flow.StepUnderflow("theta turns back", t, state, err)
            return graph(f, abs_tol, rel_tol, t, state, *args, **kw)

        monkeypatch.setitem(flow._LOOPS, "graph", folds)

    def test_chart_ends_a_turn_that_folds(self, monkeypatch, count_calls):
        # every leg's step underflows at its start: each turn runs in the
        # chart from its start and lands on theta0 + 2 pi there, 4.3e-9
        # off with a bar of 4.5e-5 (relative).  When legs ran again from
        # the chart's step in which theta passed, they folded too: NoReturn
        count_chart = count_calls("as_chart")
        count_chart.append(0)
        self.fold_legs(monkeypatch, 1, 0.0)
        est = flow.return_slope(build_z(1.0, 1.0))
        closed = z_return_slope_closed(1.0, 1.0)
        assert est.value == pytest.approx(closed, rel=5e-8)
        assert est.residual >= abs(est.value - closed)
        assert count_chart[0] > 1000

    @pytest.mark.parametrize("every", [2, 3])
    @pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (-1.0, 1.0),
                                             (0.5, 0.625)])
    def test_chart_ends_a_turn_mid_way(self, monkeypatch, every, alpha,
                                       beta):
        # the first legs run, then one folds and the chart ends the turn:
        # at most 2.3e-8 off (relative), within the bar.  The error of the
        # folding leg up to the fold counts: 10 b = 20 times it, under
        # weights (1, 2), widens the bar
        field = build_z(alpha, beta)
        closed = z_return_slope_closed(alpha, beta)
        ests = []
        for err in (1e-12, 1e-3):
            self.fold_legs(monkeypatch, every, err)
            ests.append(flow.return_slope(field))
        est, wide = ests
        assert est.value == pytest.approx(closed, rel=5e-8)
        assert est.residual >= abs(est.value - closed)
        assert wide.value == est.value
        assert wide.residual - est.residual == pytest.approx(
            20.0 * est.value * (1e-3 - 1e-12), rel=1e-9)

    @pytest.mark.parametrize("section_scale", [1e-10])
    def test_deep_starts_reject_steps_of_nan_error(self, section_scale):
        # starts at y0 = 1e-10 and 1e-14, above the depth floor, where
        # winding the cartesian state met steps of NaN error norm; the
        # chart read 6.3e-9 off, the legs 2.6e-9
        est = flow.return_slope(build_z(1.0, 1.0),
                                (section_scale, section_scale * 1e-4))
        assert est.value == pytest.approx(z_return_slope_closed(1.0, 1.0),
                                          rel=1e-7)

    def test_composition_of_half_returns(self):
        # one half-loop per fiber side: slopes multiply to the full return
        z = build_z(1.0, 1.0)
        gp, gm = z_gamma_closed(1.0, 1.0)
        y0 = 1e-3
        first = flow.integrate(z, (0.0, y0),
                               flow.Stop.section("x", 0.0, +1),
                               param="arclength")
        _, y_half = first.end
        assert abs(y_half) / y0 == pytest.approx(math.exp(gm), rel=0.02)
        est = flow.return_slope(z)
        assert est.value == pytest.approx(math.exp(gp) * math.exp(gm),
                                          rel=1e-7)


class TestReversibility:
    def test_reversible_center_orbit_symmetry(self):
        # mirror symmetry in x: the first y=0 half-crossing lands at -x0
        z = build_z(0.0, 1.0)
        x0 = 1e-2
        traj = flow.integrate(z, (x0, 0.0), flow.Stop.section("y", 0.0, -1),
                              param="arclength")
        xe, _ = traj.end
        assert xe == pytest.approx(-x0, rel=1e-6)

    def test_reversible_orbit_is_a_symmetric_point_set(self):
        # the time-reversal (x, y, t) -> (-x, y, -t) maps the orbit
        # through (x0, 0) onto itself, so the sampled arc must coincide
        # with its own x-mirror as a point set
        z = build_z(0.0, 1.0)
        x0 = 1e-2
        # arclength sampling with a small step cap keeps the polyline
        # chord error below the comparison scale
        cfg = flow.IntegratorConfig(max_step=5e-5)
        traj = flow.integrate(z, (x0, 0.0), flow.Stop.section("y", 0.0, -1),
                              param="arclength", cfg=cfg)
        pts = [(x, y) for _s, x, y, _e in traj.samples]
        scale = max(math.hypot(x, y) for x, y in pts)

        def dist_to_polyline(p):
            best = float("inf")
            px, py = p
            for (ax, ay), (bx, by) in zip(pts, pts[1:]):
                vx, vy = bx - ax, by - ay
                denom = vx * vx + vy * vy
                t = 0.0 if denom == 0 else max(
                    0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / denom))
                dx, dy = px - (ax + t * vx), py - (ay + t * vy)
                best = min(best, math.hypot(dx, dy))
            return best

        step = max(1, len(pts) // 20)
        for x, y in pts[::step]:
            assert dist_to_polyline((-x, y)) < 1e-5 * scale


class TestConservation:
    def test_first_integral_drift_small(self):
        h_fn = example6_first_integral()
        cfg = flow.IntegratorConfig(max_step=0.01)
        traj = flow.integrate(EX6.field(), (-1.0, 0.5),
                              flow.Stop.x_reaches(1.0), cfg=cfg,
                              param="graph")
        drift = flow.conservation_check(h_fn, traj,
                                        branch_quantum=2.0 * math.pi)
        assert drift < 1e-6

    def test_drift_shrinks_with_tolerance(self):
        h_fn = example6_first_integral()
        drifts = []
        for rel in (1e-5, 1e-10):
            cfg = flow.IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2,
                                        max_step=0.01)
            traj = flow.integrate(EX6.field(), (-1.0, 0.5),
                                  flow.Stop.x_reaches(1.0), cfg=cfg,
                                  param="graph")
            drifts.append(flow.conservation_check(
                h_fn, traj, branch_quantum=2.0 * math.pi))
        assert drifts[1] < drifts[0]

    def test_linear_first_integral_exact(self):
        field = PlanarField(Poly2.const(1), Poly2.zero())
        traj = flow.integrate(field, (0.0, 0.7), flow.Stop.x_reaches(1.0),
                              param="arclength")
        drift = flow.conservation_check(lambda x, y: y, traj)
        assert drift < 1e-12

    @pytest.mark.parametrize("quantum", [0.0, -1.0, -2.0 * math.pi,
                                         math.nan, math.inf, -math.inf])
    def test_quantum_must_be_positive_and_finite(self, quantum):
        # unchecked, 0 divides by zero, a negative quantum reports every
        # jump as a failed unwinding, and nan and inf are ignored
        traj = flow.Trajectory(samples=[(0.0, 0.0, 1.0, 0.0),
                                        (1.0, 1.0, 2.0, 0.0)])
        with pytest.raises(ValueError, match="branch_quantum"):
            flow.conservation_check(lambda x, y: x * 2.0 * math.pi, traj,
                                    branch_quantum=quantum)

    def test_ambiguous_jump_raises(self):
        traj = flow.Trajectory(samples=[(0.0, 0.0, 1.0, 0.0),
                                        (1.0, 1.0, 2.0, 0.0)])
        with pytest.raises(flow.BranchTrackingFailed):
            # jump of 1.2 pi is nowhere near a whole quantum
            flow.conservation_check(lambda x, y: x * 1.2 * math.pi,
                                    traj, branch_quantum=2.0 * math.pi)


# (rho, theta, slope) of a chart stage of z(0, 1.25): "inf" for (inf,
# inf), "non-finite" for a slope with an infinite or NaN part, "finite"
# for a finite one
STAGE_GUARD_ROWS = [
    (800.0, 0.3, "inf"),       # exp(rho) overflows
    (0.0, math.inf, "inf"), (0.0, -math.inf, "inf"),  # cos and sin of inf
    # r^2, the highest power of r in P and Q, overflows to inf from rho
    # of about 354.9, without raising
    (400.0, 0.3, "non-finite"),
    # finite, as no power of r is divided out: p and q at x = r c, y =
    # r^2 s overflowed at rho = 150, 200 and 240 (NaN slopes); r^(d+b) =
    # r^5 at rho = -150 and r at rho = -1e4 underflowed to 0 (inf slopes)
    (150.0, 0.3, "finite"), (200.0, 0.3, "finite"), (240.0, 0.3, "finite"),
    (-150.0, 0.3, "finite"), (-1e4, 0.3, "finite"),
]

# Fields of the Newton weights (a, b, d) named: the chart's powers of r
# run from 0 up, and a constant term in p or q gives r^0 = 1
CHART_FIELDS = [
    ((1, 2, 3), build_z(0.5, 1.5)),
    ((2, 1, 0), PlanarField(Y ** 2 + X * X * Y - 3 * X ** 4,
                            Y + X ** 3 * Y - X * Y * Y)),
    ((4, 1, -1), PlanarField(Y ** 3, 1 + X * X * Y * Y)),
    ((1, 1, -1), PlanarField(1 + X ** 3, X * Y * Y + Y ** 3)),
    ((1, 2, 3), build_z(-1.0, 0.3125)), ((1, 2, 3), build_z(0.8125, 2.0)),
]


def random_chart_fields(seed, weights, count):
    """``count`` seeded fields whose Newton weights (a, b) are ``weights``:
    p and q each of one to five terms x^i y^j, i, j <= 5, coefficient 1,
    -1 or a small rational, drawn until ``newton_weights`` reads them."""
    rng = random.Random(seed)
    fields = []
    while len(fields) < count:
        p, q = (Poly2({(rng.randint(0, 5), rng.randint(0, 5)): rng.choice(
            [1, -1, Fraction(rng.randint(-9, 9), rng.randint(1, 7))])
            for _ in range(rng.randint(1, 5))}) for _ in range(2))
        if newton_weights(PlanarField(p, q))[:2] == weights:
            fields.append(PlanarField(p, q))
    return fields


RANDOM_CHART_FIELDS = [field for seed, weights in enumerate([(1, 1), (1, 2),
                                                             (2, 3)])
                       for field in random_chart_fields(seed, weights, 8)]
ALL_CHART_FIELDS = [*(f for _w, f in CHART_FIELDS), *RANDOM_CHART_FIELDS]
ALL_CHART_IDS = [*(f"weights{n}" for n in range(len(CHART_FIELDS))),
                 *(f"random{n}" for n in range(len(RANDOM_CHART_FIELDS)))]


def exact_chart(field, rho, theta):
    """(P, Q, rho', theta') in exact arithmetic at the floats c =
    cos(theta), s = sin(theta), r = exp(rho) and the float coefficients,
    and the same sums over the terms' absolute values, which scale the
    rounding of each."""
    a, b, d = newton_weights(field)
    r, c, s = (Fraction(v) for v in (math.exp(rho), math.cos(theta),
                                     math.sin(theta)))

    def chart_poly(poly, shift, size=lambda v: v):
        return sum((size(Fraction(float(k)) * r ** (a * i + b * j - shift)
                         * c ** i * s ** j)
                    for (i, j), k in poly.terms.items()), Fraction(0))

    big_p, big_q = chart_poly(field.p, d + a), chart_poly(field.q, d + b)
    size_p = chart_poly(field.p, d + a, abs)
    size_q = chart_poly(field.q, d + b, abs)
    return ((big_p, big_q, c * big_p + s * big_q,
             a * c * big_q - b * s * big_p),
            (size_p, size_q, abs(c) * size_p + abs(s) * size_q,
             a * abs(c) * size_q + b * abs(s) * size_p))


def divided_chart(field, rho, theta):
    """The chart stage the long way, p/r^(d+a) and q/r^(d+b) at x = r^a c,
    y = r^b s, with the sums of the terms' absolute values, which bound
    the rounding of each component."""
    a, b, d = newton_weights(field)
    r, c, s = math.exp(rho), math.cos(theta), math.sin(theta)
    p, q = field.as_rhs()(r ** a * c, r ** b * s)
    big_p, big_q = p / r ** (d + a), q / r ** (d + b)

    def size(poly, shift):
        return sum(abs(float(k)) * r ** (a * i + b * j - shift)
                   * abs(c) ** i * abs(s) ** j
                   for (i, j), k in poly.terms.items())

    size_p, size_q = size(field.p, d + a), size(field.q, d + b)
    return ((c * big_p + s * big_q, a * c * big_q - b * s * big_p),
            (abs(c) * size_p + abs(s) * size_q,
             a * abs(c) * size_q + b * abs(s) * size_p))


def principal_chart(field, theta):
    """The chart stage at r = 0 from the terms of p and q whose power of r
    is 0, the principal part."""
    a, b, d = newton_weights(field)
    c, s = math.cos(theta), math.sin(theta)

    def part(poly, shift):
        return math.fsum(float(k) * c ** i * s ** j
                         for (i, j), k in poly.terms.items()
                         if a * i + b * j == shift)

    big_p, big_q = part(field.p, d + a), part(field.q, d + b)
    return c * big_p + s * big_q, a * c * big_q - b * s * big_p


class TestWeightedPolarChart:
    @pytest.mark.parametrize("rho, theta, slope", STAGE_GUARD_ROWS,
                             ids=[f"{rho}-{theta}"
                                  for rho, theta, _ in STAGE_GUARD_ROWS])
    def test_stage_guard(self, rho, theta, slope):
        # a stage the chart cannot evaluate has a non-finite slope, (inf,
        # inf) where it raises, so that the drive loop halves the step;
        # unguarded, z(0, 1.25) raised ZeroDivisionError and "math domain
        # error" from its return slope
        _a, _b, f, *_ = flow._weighted_polar(build_z(0.0, 1.25))
        got = f(rho, theta)
        if slope == "inf":
            assert got == (math.inf, math.inf)
        else:
            assert all(map(math.isfinite, got)) == (slope == "finite")

    @pytest.mark.parametrize("weights, field", CHART_FIELDS,
                             ids=[f"weights{n}"
                                  for n in range(len(CHART_FIELDS))])
    def test_chart_powers(self, weights, field):
        # the chart compiled from the terms is p/r^(d+a) and q/r^(d+b),
        # each to 1e-13 of the sum of its terms' absolute values
        assert newton_weights(field) == weights
        rng = random.Random(23)
        _a, _b, f, *_ = flow._weighted_polar(field)
        for _ in range(200):
            rho, theta = rng.uniform(-20.0, 1.0), rng.uniform(-7.0, 7.0)
            want, size = divided_chart(field, rho, theta)
            for g, w, m in zip(f(rho, theta), want, size):
                assert abs(g - w) <= 1e-13 * m, (rho, theta)

    @pytest.mark.parametrize("field", [f for _w, f in CHART_FIELDS],
                             ids=[f"weights{n}"
                                  for n in range(len(CHART_FIELDS))])
    def test_stage_on_the_divisor_is_the_principal_part(self, field):
        # at rho = -1e4, r = 0: p/r^(d+a) divided by zero, and the stage
        # was (inf, inf)
        _a, _b, f, *_ = flow._weighted_polar(field)
        for theta in (0.3, 1.9, -2.5):
            got = f(-1e4, theta)
            assert got == pytest.approx(principal_chart(field, theta),
                                        rel=1e-13, abs=1e-15)

    def test_random_fields_have_constants_and_empty_rows(self):
        # RANDOM_CHART_FIELDS holds a constant term (the row of c^0 s^0)
        # and a P or Q with an empty row: a power of r below its top one
        # with no terms
        a_b_d = [newton_weights(f) for f in RANDOM_CHART_FIELDS]
        assert any((0, 0) in poly.terms for f in RANDOM_CHART_FIELDS
                   for poly in (f.p, f.q))
        powers = [{a * i + b * j - d - shift for i, j in poly.terms}
                  for f, (a, b, d) in zip(RANDOM_CHART_FIELDS, a_b_d)
                  for poly, shift in ((f.p, a), (f.q, b)) if poly.terms]
        assert any(len(e) <= max(e) for e in powers)

    @pytest.mark.parametrize("field", ALL_CHART_FIELDS, ids=ALL_CHART_IDS)
    def test_chart_is_exact_to_a_few_roundings(self, field):
        # P and Q from the chart's codegen, and the chart's rho' and
        # theta', each within 16 units of roundoff 2^-53 of the exact
        # value at the same float c, s and r, relative to the sum of the
        # terms' absolute values (4.9 at most on these fields)
        ns = {}
        exec("def pq(r, c, s):\n"
             + "\n".join(polyfield._chart_stage(field, *newton_weights(field)))
             + "\n    return big_p, big_q\n", ns)
        rng = random.Random(37)
        for rho in [-1e4, *(rng.uniform(-20.0, 1.0) for _ in range(40))]:
            theta = rng.uniform(-7.0, 7.0)
            got = (*ns["pq"](math.exp(rho), math.cos(theta), math.sin(theta)),
                   *field.as_chart()(rho, theta))
            for g, want, size in zip(got, *exact_chart(field, rho, theta)):
                assert abs(Fraction(g) - want) <= 16 * 2.0 ** -53 * size, \
                    (rho, theta)

    @pytest.mark.parametrize("field", ALL_CHART_FIELDS, ids=ALL_CHART_IDS)
    def test_slope_of_rho_over_theta(self, field):
        # drho/dphi over phi = sigma theta is rho'/(sigma theta') from the
        # chart's own stage, bit for bit, where sigma theta' > 0, and inf
        # where not or where the stage fails
        f, g = field.as_chart(), field.as_chart_slope
        rng = random.Random(29)
        for _ in range(200):
            rho, theta = rng.uniform(-20.0, 1.0), rng.uniform(-7.0, 7.0)
            rho_dot, theta_dot = f(rho, theta)
            for sigma in (1.0, -1.0):
                den = sigma * theta_dot
                want = rho_dot / den if den > 0.0 else math.inf
                assert g(sigma, 0.0, 0)(sigma * theta, rho) == want, \
                    (rho, theta)
        assert g(1.0, 0.0, 0)(math.inf, -1.0) == \
            g(-1.0, 0.0, 0)(0.3, 1e4) == math.inf

    @pytest.mark.parametrize("field", [*ALL_CHART_FIELDS, build_xn(3)],
                             ids=[*ALL_CHART_IDS, "xn3"])
    def test_slope_of_rho_over_a_log_clock(self, field):
        # on the clock t of phi = phi_f + e u, u = exp(e t), e = +-1, the
        # slope is u rho'/(sigma theta') from the chart's own stage at
        # theta = sigma phi, bit for bit, where sigma theta' > 0, and inf
        # where not or where a stage fails
        f, g = field.as_chart(), field.as_chart_slope
        rng = random.Random(31)
        phis = [*polyfield.fiber_directions(field), 0.0, 1.0, -2.5]
        for _ in range(200):
            rho = rng.uniform(-20.0, 1.0)
            for sigma in (1.0, -1.0):
                for e in (1, -1):
                    phi_f = rng.choice(phis)
                    t = e * rng.uniform(-28.0, 1.5)
                    u = math.exp(e * t)
                    rho_dot, theta_dot = f(rho, sigma * (phi_f + e * u))
                    den = sigma * theta_dot
                    want = u * rho_dot / den if den > 0.0 else math.inf
                    assert g(sigma, phi_f, e)(t, rho) == want, \
                        (rho, sigma, phi_f, e, t)
        assert g(1.0, 0.0, 1)(1e4, -1.0) == \
            g(-1.0, 0.5, -1)(0.3, 1e4) == math.inf

    def test_guarded_stages_halve_the_step(self):
        # in the chart 37 stages of this return had a non-finite slope,
        # 22 of them (inf, inf), and it read 6.8e-9 off; on its legs no
        # stage has, and it reads 7.7e-10 off
        est = flow.return_slope(build_z(0.0, 1.25))
        assert est.value == pytest.approx(1.0, abs=2e-7)

    def test_chart_field(self):
        # z: p = r^4 P, q = r^5 Q under x = r c, y = r^2 s, and rho' =
        # c P + s Q, theta' = c Q - 2 s P at r = e^rho
        alpha, beta = 0.5, 1.5
        a, b, f, *_ = flow._weighted_polar(build_z(alpha, beta))
        assert (a, b) == (1, 2)
        rho, theta = -0.7, 2.1
        r, c, s = math.exp(rho), math.cos(theta), math.sin(theta)
        big_p = beta * c * c * s - c ** 4 + r * alpha * c * s * s \
            - r * r * beta * s ** 3
        big_q = 4 * beta * c * s * s + 2 * c ** 5 + r * alpha * s ** 3
        got = f(rho, theta)
        assert got[0] == pytest.approx(c * big_p + s * big_q, rel=1e-13)
        assert got[1] == pytest.approx(c * big_q - 2 * s * big_p, rel=1e-13)

    @pytest.mark.parametrize("a, b", [(1, 2), (1, 1), (2, 1), (2, 3)])
    @pytest.mark.parametrize("x, y", [(9.66e-9, 2.57e-9), (-3.0, 0.5),
                                      (0.25, -1e-12)])
    def test_chart_point(self, a, b, x, y):
        rho, theta = flow._chart_point(a, b, x, y)
        r = math.exp(rho)
        assert r ** a * math.cos(theta) == pytest.approx(x, rel=1e-12)
        assert r ** b * math.sin(theta) == pytest.approx(y, rel=1e-12)


class TestLegs:
    """``flow._legs``: a turn's legs from phi0 to phi1 = phi0 + 2 pi."""

    @pytest.mark.parametrize("fibers", [
        (), (0.5 * math.pi, 1.5 * math.pi), (0.0, math.pi),
        (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)])
    @pytest.mark.parametrize("sigma", [1.0, -1.0])
    @pytest.mark.parametrize("theta0", [math.pi / 2.0, 0.3, -2.9, math.pi,
                                        -math.pi / 2.0 + 1e-7])
    def test_legs_run_end_to_end(self, fibers, sigma, theta0):
        # each leg starts where the last ended; one across each fiber
        # direction within span of [phi0, phi1], at most 2 span wide, and
        # each log leg on one side of its fiber, within a half gap of it.
        # The last start lies inside the leg across -pi/2
        span = 1e-6
        phi0 = sigma * theta0
        phi1 = phi0 + flow.TWO_PI
        legs = flow._legs(fibers, sigma, phi0, span)
        assert (legs[0][2], legs[-1][3]) == (phi0, phi1)
        assert all(a[3] == b[2] for a, b in zip(legs, legs[1:]))
        tops = [(sigma * f) % flow.TWO_PI for f in fibers]
        crossed = [f + flow.TWO_PI * n for f in tops for n in range(-2, 3)
                   if phi0 - span < f + flow.TWO_PI * n < phi1 + span]
        across = [leg for leg in legs if leg[1] == 0]
        if not fibers:
            assert legs == [(0.0, 0, phi0, phi1)]
            return
        assert sorted(phi_f for phi_f, *_ in across) == sorted(crossed)
        half_gap = math.pi / len(fibers)
        for phi_f, e, lo, hi in legs:
            assert lo < hi
            assert min(abs(phi_f - f - flow.TWO_PI * n) for f in tops
                       for n in range(-2, 3)) < 1e-12
            if e:
                assert 0.0 < e * (lo - phi_f) and 0.0 < e * (hi - phi_f)
                assert max(abs(lo - phi_f), abs(hi - phi_f)) \
                    <= half_gap + 1e-12
            else:
                assert lo >= phi_f - span and hi <= phi_f + span


def full_stop_turn(chart, rho0, theta0, box, cfg):
    """``flow._turn`` on the "xy" loop with the largest of its three parts
    taken on every step's end, to the first where it is not negative."""
    a, b, f, *_ = chart
    log_box, floor = math.log(box), min(4.0 * rho0, rho0) - flow._RHO_DROP

    def parts(state):
        rho, theta = state
        c, s = abs(math.cos(theta)), abs(math.sin(theta))
        return (abs(theta - theta0) - flow.TWO_PI,
                max(a * rho + math.log(c) if c else -math.inf,
                    b * rho + math.log(s) if s else -math.inf) - log_box,
                floor - rho)

    def accept(_t, _h, _y, y5, _err):
        return y5 if max(parts(y5)) >= 0.0 else None

    state, err = flow._LOOPS["xy"](clocked(f), cfg.abs_tol, cfg.rel_tol, 0.0,
                                   (rho0, theta0), cfg.max_step or math.inf,
                                   cfg.max_steps, None, accept)
    g = parts(state)
    return ("turn", "box_exit", "floor")[g.index(max(g))], state[0], err


def ring_starts(field, r0):
    """The chart points of the 12 orbits of ``monodromy_probe``'s ring of
    radius ``r0``."""
    a, b, *_ = flow._weighted_polar(field)
    return [flow._chart_point(a, b, r0 * math.cos(ang), r0 * math.sin(ang))
            for ang in (flow.TWO_PI * (k + 0.5) / 12 for k in range(12))]


def probe_start(field, box):
    """The chart point of the first orbit of ``monodromy_probe``'s ring
    at its default radius, 1e-9*box."""
    return ring_starts(field, 1e-9 * box)[0]


def bench_workloads(monkeypatch):
    """The benchmark's ``perfbench/workloads.py``, which makes its pools."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / \
        "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def z_pool(monkeypatch, seed):
    """The z-family benchmark's pool of 14 fields for ``seed``."""
    workloads = bench_workloads(monkeypatch)
    return [build_z(float(a), float(b))
            for a, b in workloads.z_parameters(random.Random(seed), 14)]


def assert_turn_matches(got, want, status):
    """``got`` of ``flow._turn`` ends with ``status``, as ``want`` of
    ``full_stop_turn`` does."""
    assert (got[0], want[0]) == (status, status)


class TestSignOnlyStop:
    """``_turn`` tests the sign of its stop with comparisons and takes
    the logs only where its guard fails: each status is that of the full
    stop taken on every step."""

    @pytest.mark.parametrize("alpha, beta, y0, status", [
        (1.0, 1.0, 1e-8, "turn"), (1.0, 1.0, 1e-12, "turn"),
        (0.5, 0.3, 1e-8, "turn"), (0.5, 0.3, 1e-12, "turn"),
        (1.0, 0.2, 1e-8, "box_exit"),
        (-1.0, 0.1, 1e-8, "floor"),
    ])
    def test_returns(self, alpha, beta, y0, status):
        chart = flow._weighted_polar(build_z(alpha, beta))
        start = (math.log(y0) / chart[1], math.pi / 2.0)
        cfg = flow.IntegratorConfig()
        got = flow._turn(chart, *start, flow._RETURN_BOX, cfg)
        assert_turn_matches(
            got, full_stop_turn(chart, *start, flow._RETURN_BOX, cfg), status)

    @pytest.mark.parametrize("field, box, status", [
        (EX6.field(), 2.0, "box_exit"),
        (build_z(1.0, 1.0), 10.0, "turn"),
    ])
    def test_probe_orbits(self, field, box, status):
        chart = flow._weighted_polar(field)
        start = probe_start(field, box)
        got = flow._turn(chart, *start, box, flow._PROBE_CFG)
        assert_turn_matches(
            got, full_stop_turn(chart, *start, box, flow._PROBE_CFG), status)

    def test_band_edges(self, monkeypatch):
        # the band a turn's legs pass is floor < rho < rho_hi, rho_hi the
        # largest float with m rho_hi < log(box), m = max(a, b) if
        # log(box) > 0 and min(a, b) otherwise, over weights (a, b) with m
        # in {1, 2, 3}; log(box)/m alone misses it for m = 3
        class Band(Exception):
            pass

        def record(*_args, lo, hi):
            raise Band(lo, hi)

        monkeypatch.setitem(flow._LOOPS, "graph", record)
        rng = random.Random(7)
        weights_13 = PlanarField(X ** 3 - Y, X ** 5)
        for field in (FOCUS, build_z(1.0, 1.0), weights_13):
            chart = flow._weighted_polar(field)
            a, b = chart[:2]
            for log_box in [0.0] + [rng.uniform(-4, 4) for _ in range(200)]:
                box = math.exp(log_box)
                rho0, theta0 = ring_starts(field, 1e-3 * min(box, 1.0))[0]
                with pytest.raises(Band) as band:
                    flow._turn(chart, rho0, theta0, box, flow._PROBE_CFG)
                lo, hi = band.value.args
                m = max(a, b) if math.log(box) > 0.0 else min(a, b)
                assert lo == min(4.0 * rho0, rho0) - flow._RHO_DROP
                assert m * hi < math.log(box)
                assert not m * math.nextafter(hi, math.inf) < math.log(box)

    def test_band_only_filters(self, monkeypatch):
        # each turn of the probe fields' rings, of an expanding focus's
        # ring that leaves the box on a leg without a fold and of the
        # seed-1 z pool's returns ends bit for bit the same with its legs'
        # band and with the empty band, where ``exits`` decides on every
        # step
        drive, calls = flow._LOOPS["graph"], Counter()

        def counting(banded):
            def run(*args, lo=math.inf, hi=-math.inf, **kw):
                *args, accept = args

                def counted(*step):
                    calls[banded] += 1
                    return accept(*step)
                band = {"lo": lo, "hi": hi} if banded else {}
                return drive(*args, counted, **band, **kw)
            return run

        def turns(banded):
            monkeypatch.setitem(flow._LOOPS, "graph", counting(banded))
            ends = []
            for field, box, r0, _verdict in PROBE_FIELDS:
                chart = flow._weighted_polar(field)
                ends += [outcome(lambda: flow._turn(chart, *start, box,
                                                    flow._PROBE_CFG))
                         for start in ring_starts(field, r0)]
            chart = flow._weighted_polar(FOCUS)
            exits = [flow._turn(chart, *start, 2.0, flow._PROBE_CFG)
                     for start in ring_starts(FOCUS, 0.1)]
            assert {end[0] for end in exits} == {"box_exit"}
            ends += exits
            for field in z_pool(monkeypatch, 1):
                chart = flow._weighted_polar(field)
                ends += [outcome(lambda: flow._turn(
                    chart, math.log(r0 ** chart[1]) / chart[1],
                    math.pi / 2.0, flow._RETURN_BOX, flow.IntegratorConfig()))
                    for r0 in flow.DEFAULT_RETURN_RADII]
            return ends

        assert turns(True) == turns(False)
        # the band spares exits most of its calls
        assert calls[True] < calls[False] / 10

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_pools_stay_monodromic(self, monkeypatch, seed):
        # the z-family benchmark's pool of 14 (alpha, beta) per seed
        verdicts = [flow.monodromy_probe(field, box=10.0, ring_radius=1e-8)
                    for field in z_pool(monkeypatch, seed)]
        assert verdicts == [flow.ProbeVerdict.MONODROMIC] * 14


# monodromy_probe's fields, boxes and ring radii beside the benchmark
# pools, with their verdicts: z(alpha, beta) is monodromic for beta > 1/4
PROBE_FIELDS = [
    (EX6.field(), 2.0, 2e-9, flow.ProbeVerdict.TRANSIT),
    (build_z(1.0, 0.1), 10.0, 1e-8, flow.ProbeVerdict.TRANSIT),
    (build_z(1.0, 0.2), 10.0, 1e-8, flow.ProbeVerdict.TRANSIT),
    (build_z(-0.5, 0.1), 10.0, 1e-8, flow.ProbeVerdict.UNDECIDED),
    (build_z(1.0, 0.3), 10.0, 1e-8, flow.ProbeVerdict.MONODROMIC),
    (build_z(1.0, 0.5), 10.0, 1e-8, flow.ProbeVerdict.MONODROMIC),
    (build_z(1.0, 1.0), 10.0, 1e-8, flow.ProbeVerdict.MONODROMIC),
    (build_z(0.0, 1.0), 10.0, 1e-8, flow.ProbeVerdict.MONODROMIC),
    (build_z(-1.0, 1.0), 10.0, 1e-8, flow.ProbeVerdict.MONODROMIC),
]
PROBE_IDS = ["example6", "z(1,0.1)", "z(1,0.2)", "z(-0.5,0.1)", "z(1,0.3)",
             "z(1,0.5)", "z(1,1)", "z(0,1)", "z(-1,1)"]


class TestGraphTurn:
    """A turn runs as legs of the graph of rho over theta and hands over
    once, to the chart, which ends it, where theta turns back: its status
    is the chart turn's (``full_stop_turn``) on every orbit of the ring."""

    @staticmethod
    def hand_overs(count_chart, field, box, r0):
        """The chart stages of the turns of the ring, after asserting that
        each ends with the chart turn's status."""
        chart = flow._weighted_polar(field)
        stages = 0
        for start in ring_starts(field, r0):
            def status(turn):
                count_chart.append(0)
                try:
                    return turn(chart, *start, box, flow._PROBE_CFG)[0]
                except (flow.MaxStepsExceeded, flow.StepUnderflow) as exc:
                    return type(exc).__name__
            got = status(flow._turn)
            stages += count_chart[-1]
            assert got == status(full_stop_turn), start
        return stages

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_pools(self, monkeypatch, count_calls, seed):
        # no orbit of either pool meets a fold: no chart stage
        count_chart = count_calls("as_chart")
        for field in z_pool(monkeypatch, seed):
            assert self.hand_overs(count_chart, field, 10.0, 1e-8) == 0

    @pytest.mark.parametrize("field, box, r0, _verdict", PROBE_FIELDS,
                             ids=PROBE_IDS)
    def test_probe_fields(self, count_calls, field, box, r0, _verdict):
        self.hand_overs(count_calls("as_chart"), field, box, r0)

    def test_hand_over_past_a_fold(self, monkeypatch, count_calls):
        # orbits of z(1, 0.2) turn back in theta: without the chart past
        # the fold, their steps underflow and the probe reads undecided
        count_chart = count_calls("as_chart")
        count_chart.append(0)
        field = build_z(1.0, 0.2)
        verdict = flow.monodromy_probe(field, box=10.0, ring_radius=1e-8)
        assert verdict is flow.ProbeVerdict.TRANSIT
        assert count_chart[0] > 0

        def no_chart(*_args):
            raise flow.StepUnderflow("no hand-over")

        monkeypatch.setitem(flow._LOOPS, "xy", no_chart)
        verdict = flow.monodromy_probe(field, box=10.0, ring_radius=1e-8)
        assert verdict is flow.ProbeVerdict.UNDECIDED

    # the probe runs at rel_tol 1e-5; every verdict holds up to 3e-3, and
    # at 5e-3 z(1, 0.3) turns TRANSIT
    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4,
                                         1e-3, 2e-3, 3e-3])
    def test_verdicts_across_tolerances(self, monkeypatch, rel_tol):
        fields = PROBE_FIELDS + [(f, 10.0, 1e-8, flow.ProbeVerdict.MONODROMIC)
                   for seed in (1, 2) for f in z_pool(monkeypatch, seed)]
        monkeypatch.setattr(flow, "_PROBE_CFG", dataclasses.replace(
            flow._PROBE_CFG, rel_tol=rel_tol))
        for field, box, r0, verdict in fields:
            assert flow.monodromy_probe(field, box=box,
                                        ring_radius=r0) is verdict


class TestMonodromyProbe:
    def test_monodromic_above_threshold(self):
        v = flow.monodromy_probe(build_z(1.0, 0.5), box=10.0,
                                 ring_radius=1e-8)
        assert v is flow.ProbeVerdict.MONODROMIC

    def test_not_monodromic_below_threshold(self):
        v = flow.monodromy_probe(build_z(1.0, 0.1), box=10.0,
                                 ring_radius=1e-8)
        assert v is not flow.ProbeVerdict.MONODROMIC

    def test_fake_saddle_is_transit(self):
        v = flow.monodromy_probe(EX6.field(), box=2.0)
        assert v is flow.ProbeVerdict.TRANSIT

    @pytest.mark.parametrize("alpha, beta", [(1, 1), (0, Fraction(5, 4)),
                                             (-1, Fraction(5, 16))])
    def test_cartesian_ring_lands_on_the_fibers(self, monkeypatch, alpha,
                                                beta):
        # under weights (1, 2) the ring of radius 1e-8 starts its 12 orbits
        # within 1.9e-4 rad of the fiber directions +-pi/2, six on each,
        # at chart radii 5.1e-5 to 9.8e-5: they cover 2 directions
        field = build_z(alpha, beta)
        starts = []

        def turn(_chart, rho, theta, _box, _cfg):
            starts.append((rho, theta))
            return "turn", rho, 0.0

        monkeypatch.setattr(flow, "_turn", turn)
        verdict = flow.monodromy_probe(field, box=10.0, ring_radius=1e-8)
        assert verdict is flow.ProbeVerdict.MONODROMIC
        assert newton_weights(field)[:2] == (1, 2)
        assert polyfield.fiber_directions(field) == (math.pi / 2,
                                                     3 * math.pi / 2)
        assert Counter(math.copysign(1.0, theta) for _rho, theta in starts) \
            == {1.0: 6, -1.0: 6}
        assert max(abs(abs(theta) - math.pi / 2)
                   for _rho, theta in starts) < 1.9e-4
        radii = [math.exp(rho) for rho, _theta in starts]
        assert 5.0e-5 < min(radii) < 5.1e-5 and 9.8e-5 < max(radii) < 9.9e-5

    def test_contracting_below_threshold_is_not_monodromic(self):
        # orbits fall onto the origin, where steps of NaN error norm, once
        # accepted, jumped the state and "wound" 12 of 12 orbits
        v = flow.monodromy_probe(build_z(-0.5, 0.1), box=10.0,
                                 ring_radius=1e-8)
        assert v is not flow.ProbeVerdict.MONODROMIC

    def test_shrinking_steps_are_predicted(self):
        # near the fake saddles the orbit dives and each step needs about
        # 0.78 of the last: the proportional factor alone, never below
        # 0.9 after an accepted step, had 70 of 237 attempts rejected;
        # the predictive factor has 12 of 181.  The chart turn, which a
        # turn runs past a fold, on the "xy" loop, which calls accept on
        # every accepted step, to where theta passes theta0 + 2 pi
        tally = Counter()
        a, b, f, *_ = flow._weighted_polar(build_z(0.5, 0.625))
        ang = math.pi / 12
        start = flow._chart_point(a, b, 1e-8 * math.cos(ang),
                                  1e-8 * math.sin(ang))

        def counted_f(_t, rho, theta):
            tally["rhs"] += 1
            return f(rho, theta)

        def accept(_t, _h, _y, y5, _err):
            tally["accepted"] += 1
            return y5 if abs(y5[1] - start[1]) >= flow.TWO_PI else None

        cfg = flow._PROBE_CFG
        flow._LOOPS["xy"](counted_f, cfg.abs_tol, cfg.rel_tol, 0.0, start,
                          math.inf, cfg.max_steps, None, accept)
        attempts = (tally["rhs"] - 1) // 6  # FSAL: six calls an attempt
        assert tally["accepted"] >= 100
        assert attempts - tally["accepted"] <= 20


class TestSlopeEstimateJson:
    def test_fields_exported(self):
        est = flow.transition_slope(y1_normal_form(),
                                    asy.SectionPair(-1.0, 0.5), "+",
                                    offsets=(1e-2, 10 ** -2.5, 1e-3))
        data = est.to_json()
        assert set(data) == {"value", "offsets_used", "per_offset",
                             "residual", "exponent"}
        assert len(data["per_offset"]) == len(data["offsets_used"])


class TestGeneratedCode:
    def test_compiled_functions_carry_their_own_filenames(self):
        # profiles and tracebacks tell the loops and the fields apart
        assert set(flow._LOOPS) == {"xy", "graph"}
        for kind, loop in flow._LOOPS.items():
            assert loop.__code__.co_filename == \
                f"<fakesaddle.flow loop {kind}>"
        # each field under a label of its own, the same on every compile
        labels = [f.__code__.co_filename for f in (
            PlanarField(X * Y, X - Y).as_rhs(),
            PlanarField(X * Y, X - Y).as_rhs(),
            PlanarField(X * Y, X + Y).as_rhs(),
            PlanarField(X + Y, X).as_rhs(), PlanarField(X + Y, X).as_rhs(),
            PlanarField(X - Y, X).as_rhs())]
        assert all(re.fullmatch(r"<fakesaddle\.polyfield field \w+>", label)
                   for label in labels), labels
        assert labels[0] == labels[1] and labels[3] == labels[4]
        assert len({labels[0], labels[2], labels[3], labels[5]}) == 4
        # the chart too, compiled once per field: a probe and a return of
        # one field share it.  The slope of rho over theta and over
        # log|theta - theta_f| comes from the same compile, under the same
        # label and a name of its own, one closure per leg over one code
        z = build_z(1.0, 1.0)
        assert flow._weighted_polar(z)[2:4] == (z.as_chart(),
                                                z.as_chart_slope)
        assert z.as_chart_slope(1.0, 0.0, 0).__code__ is \
            z.as_chart_slope(-1.0, 0.5, -1).__code__
        chart = z.as_chart().__code__
        slope = z.as_chart_slope(1.0, 0.0, 0).__code__
        assert re.fullmatch(r"<fakesaddle\.polyfield chart \w+>",
                            chart.co_filename)
        assert slope.co_filename == chart.co_filename
        assert (chart.co_name, slope.co_name) == ("_chart", "_slope")
        assert build_z(1.0, 0.5).as_chart_slope(1.0, 0.0, 0).__code__ \
            .co_filename != slope.co_filename
