import importlib.util
import math
import random
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from fakesaddle import asymptotics as asy, flow
from fakesaddle.casebook import (build_example6, build_xn, build_z,
                                 example6_first_integral, printed_y1,
                                 z_gamma_closed, z_return_slope_closed)
from fakesaddle.normalform import NormalFormField, validate_and_build
from fakesaddle.polyfield import PlanarField, Poly2

from conftest import random_normal_form

X, Y = Poly2.gens()
SECTIONS = asy.SectionPair(-1.0, 1.0)
EX6 = build_example6(Fraction(1), Fraction(-1), Fraction(-1))


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
        # at arclength sqrt(5) (e - 1), located on the step's cubic
        # Hermite interpolant
        traj = flow.integrate(PlanarField(X, Y), (1.0, 2.0),
                              flow.Stop.x_reaches(math.e), param="arclength")
        s_stop, xe, ye, _err = traj.samples[-1]
        assert s_stop == pytest.approx(math.sqrt(5) * (math.e - 1), rel=1e-8)
        assert xe == pytest.approx(math.e, rel=1e-9)
        assert ye == pytest.approx(2 * math.e, rel=1e-9)

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
    def test_graph_stops_at_a_fold(self, count_rhs, y0, fold, count):
        # |a| > 2 folds the orbit over x before it reaches x = 1: an
        # unguarded graph ground 10^6 steps from y0 = 1e-3 and lost its
        # step size from 0.3; the guard names the fold at once
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
    def test_graph_has_no_backward_direction(self, count_rhs, target):
        # the graph runs toward the stop's x either way; backward was
        # ignored, and from (-1, 0.3) on example6 gave the forward samples
        count_rhs.append(0)
        with pytest.raises(ValueError, match="no backward direction"):
            flow.integrate(EX6.field(), (-1.0, 0.3),
                           flow.Stop.x_reaches(target), param="graph",
                           backward=True)
        assert count_rhs == [0]

    @pytest.mark.parametrize("start", [(2.0, 2.0), (1.0, 0.5)])
    def test_window_stop_needs_a_start_inside(self, count_rhs, start):
        # outside the window, or on its edge, the exit event never
        # crosses upward: the drive ground 10^6 steps
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
        assert ye == pytest.approx(0.5, abs=1e-10)
        assert s_stop == pytest.approx(0.5 * math.sqrt(2), abs=1e-10)

    def test_time_is_no_parametrization(self, count_rhs):
        # every caller traces orbits on a bounded clock, arclength or x
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
        return lambda _t, s: tuple(f(s[0], s[1]))
    return lambda x, s: (f(x, s[0]),)


def graph_of(rhs):
    """The slope q/p of the field ``rhs``: y as a graph over x."""
    def slope(x, y):
        p, q = rhs(x, y)
        return q / p
    return slope


def reference_drive(rhs, t0, y0, cfg, *, t_end=None, events=(), seen=None):
    """The adaptive drive as a plain loop over ``tableau_step`` and
    ``loop_norm`` with the builtins' min and max; the reference the
    generated drive loops must match bit for bit.  ``rhs(t, state)`` is
    the slope of ``reference_rhs``; ``seen`` counts the branches taken.
    Returns (status, t, state, accumulated error, Trajectory)."""
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
    g_prev = [e.fn(y) for e in events]

    def finish(status, t_stop, y_stop, err_total):
        seen[status.split(":")[0]] += 1
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
        hit = None
        for idx, ev in enumerate(events):
            g1 = ev.fn(y5)
            g0 = g_prev[idx]
            if ((ev.direction >= 0 and g0 < 0.0 <= g1)
                    or (ev.direction <= 0 and g0 > 0.0 >= g1)):
                seen[f"event direction {ev.direction}"] += 1
                lo, hi = 0.0, 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    ym = flow._hermite(y, k1, y5, k7, h, mid)
                    gm = ev.fn(ym)
                    if (g0 < 0.0) == (gm < 0.0):
                        lo = mid
                    else:
                        hi = mid
                    if (hi - lo) * abs(h) < 1e-12:
                        break
                tau = 0.5 * (lo + hi)
                y_ev = flow._hermite(y, k1, y5, k7, h, tau)
                t_ev = t + tau * h
                if hit is None:
                    hit = (ev, t_ev, y_ev)
            g_prev[idx] = g1
        if hit is not None:
            ev, t_ev, y_ev = hit
            samples.append((t_ev, *as_xy(t_ev, y_ev), err_abs))
            return finish(f"event:{ev.name}", t_ev, y_ev, err_accum + err_abs)

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


def outcome(run):
    """repr of what ``run()`` returns, or the type and args it raises."""
    try:
        return repr(run())
    except Exception as exc:  # every exception is part of the outcome
        return f"raises {type(exc).__name__}{exc.args!r}"


def assert_drive_matches(kind, field, t0, y0, cfg, seen=None, **kw):
    """Drive ``field()`` both ways and require the same outcome; returns it.

    ``field`` makes a fresh ``f(x, y) -> (p, q)`` for each drive, so a
    field that counts its calls sees the same sequence in both.  A drive
    returns (state, error, Trajectory), its ``stop`` the one event of the
    reference.
    """
    got = outcome(lambda: flow._drive(kind, field(), t0, y0, cfg, **kw))
    kw = dict(kw)
    stop = kw.pop("stop", None)
    kw["events"] = [] if stop is None else [stop]

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

        def f(x, y):
            calls.append((x, y))
            return values.get(len(calls)) or rhs(x, y)
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
        n = flow._KINDS[kind][0]
        field = self.RHS_XY if kind == "xy" else graph_of(self.RHS_XY)
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

    @pytest.mark.parametrize("k7", [(math.nan, 1.0), (1.0, math.nan),
                                    (math.inf, 1.0), (1.0, -math.inf),
                                    (1e130, 1.0), (1e300, -1e-300),
                                    (-0.0, 0.0)])
    def test_norm_of_non_finite_error_is_the_loops(self, k7):
        # a finite y5 whose slope k7 (call 7: k1 and six stages) is huge,
        # infinite or NaN: the norm and the largest error keep the NaNs
        # and the 1e120 cap of the builtins' loop, a NaN norm rejects the
        # step as a norm above 1 does, and every step after it matches
        seen = Counter()
        assert_drive_matches("xy", field_then(self.RHS_XY, {7: k7}), 0.0,
                             (0.3, -0.2), flow.IntegratorConfig(max_steps=200),
                             seen=seen, t_end=0.5)
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
        n = flow._KINDS[kind][0]
        bad = (1.0, 1.7e308) if kind == "xy" else 1.7e308
        big = {i: bad for i in range(2, 8)}
        field = field_then(lambda x, y: (1.0, 1.0) if kind == "xy" else 1.0,
                           big)
        seen = Counter()
        assert_drive_matches(kind, field, 0.0, (0.5,) * n,
                             flow.IntegratorConfig(), seen=seen, t_end=1.0)
        assert seen["non-finite halving"] == 1
        f = field()
        flow._drive(kind, f, 0.0, (0.5,) * n, flow.IntegratorConfig(),
                    t_end=1.0)
        assert not math.isfinite(f.calls[6][1])  # k7 at the overflowed y5

    def test_endpoint_drive_matches_trajectory_end(self):
        # a graph drive of the unguarded slope q/p follows the same steps
        # as integrate()'s
        traj = flow.integrate(EX6.field(), (-1.0, 0.3),
                              flow.Stop.x_reaches(1.0), param="graph")
        (y_end,), _err, _ = flow._drive(
            "graph", graph_of(EX6.field().as_rhs()), -1.0, (0.3,),
            flow.IntegratorConfig(), t_end=1.0)
        assert y_end == traj.end[1]


ROTATION = PlanarField(-Y, X).as_rhs()


def crossing(name, i, value, direction):
    return flow.Stop(name, lambda s: s[i] - value, direction)


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
    # of the a = b = 5/2 member, from x = -1 to -e^-6 in steps of at most 1
    ("outer leg over s", "graph",
     lambda: flow._outer(build_example6(Fraction(5, 2), Fraction(5, 2),
                                        Fraction(1, 2)).field().as_rhs(),
                         1e-3, -1.0),
     0.0, (0.0,), flow.IntegratorConfig(max_step=1.0), dict(t_end=6.0),
     {"t_end clamp", "t_end"}, "("),
    ("graph p = 0", "graph",
     lambda: graph_of(lambda x, y: (0.0 if x > 0.5 else 1.0, y)), 0.0,
     (0.2,), flow.IntegratorConfig(), dict(t_end=1.0), set(),
     "raises ZeroDivisionError"),
    ("graph of zero span", "graph", lambda: graph_of(EX6.field().as_rhs()), 0.5,
     (0.3,), flow.IntegratorConfig(), dict(t_end=0.5),
     {"t_end clamp", "t_end"}, "("),
    # 0.1 + 0.2 is t_end, but t_end - 0.1 is not 0.2: the clamp moves h
    ("t_end met by rounding", "xy",
     lambda: lambda x, y: (1e-3 * y, -1e-3 * x), 0.1, (1.0, 0.0),
     flow.IntegratorConfig(max_step=0.2),
     dict(t_end=0.1 + 0.2), {"t_end clamp", "t_end"},
     "("),
    ("xy to t_end with max_step", "xy", lambda: EX6.field().as_rhs(), 0.0,
     (-1.0, 0.3), flow.IntegratorConfig(max_step=0.01),
     dict(t_end=2.0), {"max_step cap", "t_end"}, "("),
    *((f"event of direction {ev.direction}", "xy", lambda: ROTATION, 0.0,
       (1.0, 0.0), flow.IntegratorConfig(rel_tol=1e-8),
       dict(stop=ev),
       {f"event direction {ev.direction}", "event"}, "(")
      for ev in (crossing("down", 0, 0.0, -1), crossing("either", 1, 0.5, 0),
                 crossing("up", 0, 0.0, +1))),
    # return_slope's drive: the weighted polar chart of z(1, 1) from the
    # ray {x = 0, y > 0} at y = 1e-8 through one turn of theta
    ("weighted polar turn", "xy",
     lambda: flow._weighted_polar(build_z(1.0, 1.0))[2], 0.0,
     (math.log(1e-8) / 2, math.pi / 2), flow.IntegratorConfig(),
     dict(stop=flow.Stop("turn", lambda s: abs(s[1] - math.pi / 2)
                         - flow.TWO_PI, +1)),
     {"event direction 1", "rejected", "predictive"}, "("),
    ("non-finite y5", "xy",
     field_then(ROTATION, {3: (1.0, 1.7e308), 4: (1.0, 1.7e308)}), 0.0,
     (1.0, 0.0), flow.IntegratorConfig(),
     dict(t_end=1.0), {"non-finite halving", "t_end"},
     "("),
    ("step underflow", "xy", lambda: ROTATION, 1e20, (1.0, 0.0),
     flow.IntegratorConfig(), dict(stop=crossing("up", 0, 0.0, 1)), set(),
     "raises StepUnderflow"),
    ("max steps", "xy", lambda: ROTATION, 0.0, (1.0, 0.0),
     flow.IntegratorConfig(max_steps=30),
     dict(stop=crossing("never", 0, 5.0, +1)),
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

    def test_seeded_drives_equal_reference(self):
        # random polynomial fields, starts, tolerances, step caps, stops
        rng = random.Random(9)
        seen = Counter()
        for _ in range(60):
            coeff = [rng.uniform(-2.0, 2.0) for _ in range(6)]
            p = coeff[0] - Y + coeff[1] * X * X + coeff[2] * X * Y
            q = X + coeff[3] * Y + coeff[4] * X * X * Y + coeff[5] * Y ** 3
            field = PlanarField(p, q).as_rhs()
            cfg = flow.IntegratorConfig(
                abs_tol=10 ** rng.uniform(-12.0, -6.0),
                rel_tol=10 ** rng.uniform(-10.0, -4.0), max_steps=300,
                max_step=rng.choice((None, 0.05, 0.2)))
            start = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if rng.random() < 0.5:
                rng.choice((1e-8, math.nan))  # once chose the guard; kept
                assert_drive_matches(
                    "graph", lambda: graph_of(field), start[0], start[1:],
                    cfg, seen, t_end=start[0] + rng.uniform(0.1, 1.0))
            else:
                t_end = rng.choice((None, rng.uniform(0.5, 3.0)))
                event = crossing("x", 0, rng.uniform(-1.0, 1.0),
                                 rng.choice((-1, 0, 1)))
                rng.random()  # once chose a non-terminal event; kept draw
                rng.choice((None, flow.TWO_PI))  # once chose winding; kept
                rng.random()  # once chose whether to keep samples; kept
                assert_drive_matches("xy", lambda: field, 0.0, start, cfg,
                                     seen, t_end=t_end, stop=event)
        assert seen["attempt"] >= 3000


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

    def test_monodromy_probe(self, count_rhs):
        # 159384 by winding the cartesian state
        count_rhs.append(0)
        flow.monodromy_probe(build_z(1.0, 1.0), box=10.0, ring_radius=1e-8)
        assert count_rhs == [13780]

    def test_return_slope(self, count_rhs):
        # 44428 by winding the cartesian state from four offsets
        count_rhs.append(0)
        flow.return_slope(build_z(1.0, 1.0))
        assert count_rhs == [14456]

    # below the monodromy threshold beta = 1/4 the first orbit leaves the
    # box, or, contracting, falls through the rho floor onto the origin
    # (the ids keep the counts first pinned)
    @pytest.mark.parametrize("alpha, beta, status, count", [
        (1.0, 0.2, "box_exit", 2689),
        (-1.0, 0.1, "floor", 6325),
    ], ids=["1.0-0.2-box_exit-2641", "-1.0-0.1-floor-6223"])
    def test_return_slope_without_return(self, count_rhs, alpha, beta,
                                         status, count):
        count_rhs.append(0)
        with pytest.raises(flow.NoReturn, match=status):
            flow.return_slope(build_z(alpha, beta))
        assert count_rhs == [count]

    def test_monodromy_probe_stops_at_first_exit(self, count_rhs):
        # the first of the 12 orbits leaves the box and decides TRANSIT:
        # its own evaluations, where the whole ring takes 4056
        count_rhs.append(0)
        verdict = flow.monodromy_probe(EX6.field(), box=2.0)
        assert verdict is flow.ProbeVerdict.TRANSIT
        assert count_rhs == [271]

    def test_transition_slope_both_sides(self, count_rhs):
        # 6293 and 5387 over y in the graph from five shallow offsets,
        # 3057 and 2949 with the middle leg in the chart state (u, v)
        for side in "+-":
            count_rhs.append(0)
            flow.transition_slope(EX6, SECTIONS, side)
        assert count_rhs == [2241, 2073]

    def test_transition_slope_fold_member(self, count_rhs):
        # |a| > 2: the graph over x of a shallow orbit folds, and the
        # arclength fallback took 13797 and 12779; the deep legs hand over
        # at |x| = (|a| + 1)|y|, where p > 0, and the middle leg in the
        # chart state (u, v) took 3909 and 4215
        nf = build_example6(Fraction(5, 2), Fraction(5, 2), Fraction(1, 2))
        for side in "+-":
            count_rhs.append(0)
            flow.transition_slope(nf, SECTIONS, side)
        assert count_rhs == [3051, 3291]


    # integrate() in each parametrization, with stops of each kind: the
    # accepted-step path with its stop and samples
    @pytest.mark.parametrize("case, start, stop, param, backward, count", [
        integrate_row(4, "example6", (-1.0, 0.3), ("x", 1.0), "arclength",
                      False, 739),
        integrate_row(5, "example6", (-1.0, 0.3), ("section", 1),
                      "arclength", False, 343, named=337),
        integrate_row(6, "example6", (-1.0, 0.3), ("x", 1.0), "graph", False,
                      787, named=781),
        integrate_row(7, "example6", (1.0, 0.3), ("x", -1.0), "graph", False,
                      301),
        integrate_row(11, "example6", (1.0, 0.3), ("section", -1),
                      "arclength", True, 169, named=181),
        integrate_row(12, "z", (0.0, 0.1), ("section", 1), "arclength",
                      False, 1513, named=1573),
        integrate_row(13, "z", (0.0, 0.5), ("window", 2.0), "arclength",
                      False, 721),
        integrate_row(14, "example6", (-1.0, 0.1), ("x", 1.0), "graph",
                      False, 961),
        integrate_row(15, "example6", (1.0, 0.1), ("x", -1.0), "graph",
                      False, 457, named=445),
        integrate_row(18, "z", (0.0, 0.5), ("y", -0.2), "arclength", False,
                      565),
        integrate_row(21, "example6", (-1.0, 0.3), ("window", 2.0),
                      "arclength", False, 841),
        integrate_row(22, "example6", (1.0, 0.3), ("x", -1.0), "arclength",
                      True, 283, named=295),
        integrate_row(23, "example6", (-1.0, 0.3), ("window", 2.0),
                      "arclength", True, 127),
    ])
    def test_integrate(self, count_rhs, case, start, stop, param, backward,
                       count):
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
    def test_empty_offsets(self, count_rhs, measure, offsets):
        count_rhs.append(0)
        with pytest.raises(ValueError, match="offsets must"):
            measure(offsets)
        assert count_rhs == [0]

    @pytest.mark.parametrize("axis, direction", [
        ("z", 1), ("X", 0), ("", -1), ("x", 2), ("y", -2), ("x", 0.5),
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
    def test_return_slope_below_the_depth_floor(self, count_rhs,
                                                section_scale):
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
    def test_return_slope_tolerance_underflow(self, count_rhs,
                                              section_scale, rel_tol):
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
        stop = flow.Stop.section(axis, 0.5, direction)
        assert stop.direction == direction and stop.x_target is None
        # zero on the section and the signed distance off it
        i = "xy".index(axis)
        for value in (0.25, 0.5, 2.0):
            point = [-3.0, 7.0]
            point[i] = value
            assert stop.fn(tuple(point)) == value - 0.5


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
                                     stop=flow.Stop.section("x", 0.0,
                                                            direction))
        t_end, xe, ye, _err = traj.samples[-1]
        assert t_end == pytest.approx(1.5 * math.pi, rel=1e-8)
        assert xe == pytest.approx(0.0, abs=1e-8)
        assert ye == pytest.approx(y_stop, abs=1e-8)


def chart_transit(nf, alpha, omega, y0, k, cfg=flow.IntegratorConfig()):
    """log(y1/y0) of ``flow._transit``'s orbit with the middle leg as the
    2-D state (u, v) of the chart u = x/|y|, v = log(y/y0), on the "xy"
    loop over dtau = |y| dt: u' = p/y^2 - u w, v' = w = q/(y|y|), to the
    end of the first accepted step past u = k; the right leg starts at
    x = u|y| there."""
    rhs = nf.field().as_rhs()
    tol, steps = (cfg.abs_tol, cfg.rel_tol), cfg.max_steps
    cap = min(cfg.max_step or 1.0, 1.0)
    ay0, sy = abs(y0), math.copysign(1.0, y0)
    lk = math.log(k * ay0)

    def chart(u, v):
        try:
            ay = ay0 * math.exp(v)
            p, q = rhs(u * ay, sy * ay)
            w = q / (sy * ay * ay)
            return p / (ay * ay) - u * w, w
        except ArithmeticError:
            return math.inf, math.inf

    def left(t, h, _y, _k1, y5, _k7, _e):
        s = t + h
        return (s, y5[0]) if s + y5[0] + lk >= 0.0 else None

    def middle(_t, _h, _y, _k1, y5, _k7, _e):
        return y5 if y5[0] >= k else None

    (s, v), _err = flow._LOOPS["graph"](
        flow._outer(rhs, y0, -1.0), *tol, -math.log(-alpha), (0.0,), cap,
        steps, None, left)
    (u, v), _err = flow._LOOPS["xy"](
        chart, *tol, 0.0, (-math.exp(-s - v) / ay0, v),
        cfg.max_step or math.inf, steps, None, middle)
    (v,), _err = flow._LOOPS["graph"](
        flow._outer(rhs, y0, 1.0), *tol, math.log(u * ay0 * math.exp(v)),
        (v,), cap, steps, math.log(omega), None)
    return v


class TestTransitionSlope:
    # each bound is at least 10 times the deviation of the deepest start:
    # 7.2e-10 (y1), 6.7e-10 and 4.7e-10 (example6), 7.1e-8 (a = b = 5/2)
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
        # two differ by their step errors, 5.3e-10 at most
        nf = build_example6(*map(Fraction, abc))
        est = flow.transition_slope(nf, SECTIONS, side)
        sign = 1.0 if side == "+" else -1.0
        for offset, slope in zip(flow.DEFAULT_OFFSETS, est.per_offset):
            ref = math.exp(chart_transit(nf, -1.0, 1.0, sign * offset, k))
            assert slope == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("cfg, point, reason", [
        # p <= 0 on the left leg: halving ran h down to 2.1e-17 at x = -0.71
        (flow.IntegratorConfig(), r"-0\.71\d*, 0\.33\d*", "cannot advance"),
        # three attempts end next to the start
        (flow.IntegratorConfig(max_steps=3), r"-0\.99\d*, 0\.20\d*",
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
        # remainder decays about like y0: 6.5e-6, 6.5e-7 and 7.1e-8 off
        # from the three default starts
        nf = build_example6(Fraction(5, 2), Fraction(5, 2), Fraction(1, 2))
        gp, _ = asy.gamma_pm(nf, SECTIONS)
        est = flow.transition_slope(nf, SECTIONS, "+")
        assert est.value == pytest.approx(math.exp(gp), rel=1e-6)
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
    def test_starts_out_of_range(self, count_rhs, offsets):
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
        # and reads 6.4e-9 off
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
        # below it and read 1.8e-8 and 5.0e-4 off, inside their bars
        nf = NormalFormField(*members)
        sections = asy.SectionPair(alpha, omega)
        est = flow.transition_slope(nf, sections, "-")
        closed = math.exp(asy.gamma_pm(nf, sections)[1])
        assert est.value == pytest.approx(closed, rel=rel)
        assert est.residual >= abs(est.value - closed)


class TestReturnSlope:
    # each bound is at least 10 times the deviation of the weighted polar
    # chart: 1.4e-7 (centre, absolute), 2.5e-9, 2.5e-9, 4.9e-7 (relative)
    def test_center(self):
        est = flow.return_slope(build_z(0.0, 1.0))
        assert est.value == pytest.approx(1.0, abs=2e-6)

    def test_expanding_return(self):
        est = flow.return_slope(build_z(1.0, 1.0))
        assert est.value == pytest.approx(z_return_slope_closed(1.0, 1.0),
                                          rel=1e-7)

    def test_contracting_return(self):
        est = flow.return_slope(build_z(-1.0, 1.0))
        assert est.value == pytest.approx(z_return_slope_closed(-1.0, 1.0),
                                          rel=1e-7)

    def test_strong_focus_near_the_threshold(self):
        # beta = 0.3 expands 422-fold per turn: winding the cartesian state
        # left the guard box from (0, 1e-2), NoReturn
        est = flow.return_slope(build_z(0.5, 0.3))
        closed = z_return_slope_closed(0.5, 0.3)
        assert est.value == pytest.approx(closed, rel=5e-6)
        assert est.residual >= abs(est.value - closed)

    def test_no_return_outside_monodromy_region(self):
        with pytest.raises(flow.NoReturn):
            flow.return_slope(build_z(1.0, 0.2))

    @pytest.mark.parametrize("section_scale", [1e-10])
    def test_deep_starts_reject_steps_of_nan_error(self, section_scale):
        # starts at y0 = 1e-10 and 1e-14, above the depth floor, where
        # winding the cartesian state met steps of NaN error norm; the
        # chart reads 6.3e-9 off
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

    def test_ambiguous_jump_raises(self):
        traj = flow.Trajectory(samples=[(0.0, 0.0, 1.0, 0.0),
                                        (1.0, 1.0, 2.0, 0.0)])
        with pytest.raises(flow.BranchTrackingFailed):
            # jump of 1.2 pi is nowhere near a whole quantum
            flow.conservation_check(lambda x, y: x * 1.2 * math.pi,
                                    traj, branch_quantum=2.0 * math.pi)


STAGE_GUARD_ROWS = [
    (800.0, 0.3, True),        # exp(rho) overflows
    (-150.0, 0.3, True),       # r^(d+b) = r^5 underflows to 0, r^4 does not
    (-1e4, 0.3, True),         # r itself underflows to 0
    (0.0, math.inf, True), (0.0, -math.inf, True),  # cos and sin of inf
    # products of powers of r overflow to inf without raising
    (150.0, 0.3, False), (200.0, 0.3, False), (240.0, 0.3, False),
]


class TestWeightedPolarChart:
    @pytest.mark.parametrize("rho, theta, raises", STAGE_GUARD_ROWS,
                             ids=[f"{rho}-{theta}"
                                  for rho, theta, _ in STAGE_GUARD_ROWS])
    def test_stage_guard(self, rho, theta, raises):
        # a stage the chart cannot evaluate has a non-finite slope, (inf,
        # inf) where it raises, so that the drive loop halves the step;
        # unguarded, z(0, 1.25) raised ZeroDivisionError and "math domain
        # error" from its return slope
        _a, _b, f = flow._weighted_polar(build_z(0.0, 1.25))
        slope = f(rho, theta)
        assert not any(map(math.isfinite, slope))
        if raises:
            assert slope == (math.inf, math.inf)

    @pytest.mark.parametrize("weights, want", [
        ((1, 2, 3), (1, 2, 4, 5)),
        ((2, 1, 0), (2, 1, 2, 1)),
        # a constant term in p or q: r^0 = exp(0*rho) = 1
        ((4, 1, -1), (4, 1, 3, 0)),    # p = y^3, q = 1 + x^2 y^2
        ((1, 1, -1), (1, 1, 0, 0)),    # p = 1 + x^3, q = x y^2 + y^3
    ])
    def test_chart_powers(self, weights, want):
        # the generated chart hands the field r^a c and r^b s and divides
        # p by r^(d+a) and q by r^(d+b), each power within a few ulps
        seen = []

        def rhs(x, y):
            seen.append((x, y))
            return 1.0, 1.0

        a, b, d = weights
        rho, theta = -0.7, 0.0
        rho_dot, theta_dot = flow._compile_chart(a, b, d)(rhs)(rho, theta)
        r = math.exp(rho)
        assert seen == [(pytest.approx(r ** want[0], rel=1e-15), 0.0)]
        assert rho_dot == pytest.approx(r ** -want[2], rel=1e-15)
        assert theta_dot == pytest.approx(a * r ** -want[3], rel=1e-15)
        _rho_dot, theta_dot = flow._compile_chart(a, b, d)(rhs)(
            rho, math.pi / 2)
        assert seen[1][1] == pytest.approx(r ** want[1], rel=1e-15)
        assert theta_dot == pytest.approx(-b * r ** -want[2], rel=1e-15)

    def test_guarded_stages_halve_the_step(self):
        # 27 stages of this return meet the guard
        est = flow.return_slope(build_z(0.0, 1.25))
        assert est.value == pytest.approx(1.0, abs=2e-6)

    def test_chart_field(self):
        # z: p = r^4 P, q = r^5 Q under x = r c, y = r^2 s, and rho' =
        # c P + s Q, theta' = c Q - 2 s P at r = e^rho
        alpha, beta = 0.5, 1.5
        a, b, f = flow._weighted_polar(build_z(alpha, beta))
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


def full_stop_turn(chart, rho0, theta0, box, cfg):
    """``flow._turn`` as a ``Stop`` on the largest of its three parts,
    through ``flow._drive``: the stop value taken on every step."""
    a, b, f = chart
    log_box, floor = math.log(box), min(4.0 * rho0, rho0) - flow._RHO_DROP

    def parts(state):
        rho, theta = state
        c, s = abs(math.cos(theta)), abs(math.sin(theta))
        return (abs(theta - theta0) - flow.TWO_PI,
                max(a * rho + math.log(c) if c else -math.inf,
                    b * rho + math.log(s) if s else -math.inf) - log_box,
                floor - rho)

    stop = flow.Stop("turn", lambda state: max(parts(state)), +1)
    state, err, _ = flow._drive("xy", f, 0.0, (rho0, theta0), cfg, stop=stop)
    g = parts(state)
    return ("turn", "box_exit", "floor")[g.index(max(g))], state[0], err


def probe_start(field, box):
    """The chart point of the first orbit of ``monodromy_probe``'s ring
    at its default radius, 1e-9*box."""
    a, b, _f = flow._weighted_polar(field)
    ang, r0 = flow.TWO_PI * 0.5 / 12, 1e-9 * box
    return flow._chart_point(a, b, r0 * math.cos(ang), r0 * math.sin(ang))


class TestSignOnlyStop:
    """``_turn`` tests the sign of its stop with comparisons and takes
    the logs only near a crossing: every (status, rho, error) is bit for
    bit that of the full stop taken on every step."""

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
        assert got[0] == status
        assert got == full_stop_turn(chart, *start, flow._RETURN_BOX, cfg)

    @pytest.mark.parametrize("field, box, status", [
        (EX6.field(), 2.0, "box_exit"),
        (build_z(1.0, 1.0), 10.0, "turn"),
    ])
    def test_probe_orbits(self, field, box, status):
        chart = flow._weighted_polar(field)
        start = probe_start(field, box)
        got = flow._turn(chart, *start, box, flow._PROBE_CFG)
        assert got[0] == status
        assert got == full_stop_turn(chart, *start, box, flow._PROBE_CFG)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_benchmark_pools_stay_monodromic(self, monkeypatch, seed):
        # the z-family benchmark's pool of 14 (alpha, beta) per seed
        path = Path(__file__).resolve().parent.parent / "perfbench" / \
            "workloads.py"
        spec = importlib.util.spec_from_file_location("_z_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        pool = workloads.z_parameters(random.Random(seed), 14)
        verdicts = [flow.monodromy_probe(build_z(float(a), float(b)),
                                         box=10.0, ring_radius=1e-8)
                    for a, b in pool]
        assert verdicts == [flow.ProbeVerdict.MONODROMIC] * 14


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

    def test_contracting_below_threshold_is_not_monodromic(self):
        # orbits fall onto the origin, where steps of NaN error norm, once
        # accepted, jumped the state and "wound" 12 of 12 orbits
        v = flow.monodromy_probe(build_z(-0.5, 0.1), box=10.0,
                                 ring_radius=1e-8)
        assert v is not flow.ProbeVerdict.MONODROMIC

    def test_shrinking_steps_are_predicted(self, monkeypatch):
        # near the fake saddles the orbit dives and each step needs about
        # 0.78 of the last: the proportional factor alone, never below
        # 0.9 after an accepted step, had 70 of 237 attempts rejected;
        # the predictive factor has 12 of 181
        loop, tally = flow._LOOPS["xy"], Counter()

        def counted_loop(f, *args):
            *args, accept = args

            def counted_f(x, y):
                tally["rhs"] += 1
                return f(x, y)

            def counted_accept(*step):
                tally["accepted"] += 1
                return accept(*step)
            return loop(counted_f, *args, counted_accept)

        monkeypatch.setitem(flow._LOOPS, "xy", counted_loop)
        chart = flow._weighted_polar(build_z(0.5, 0.625))
        ang = math.pi / 12
        start = flow._chart_point(chart[0], chart[1], 1e-8 * math.cos(ang),
                                  1e-8 * math.sin(ang))
        status, _rho, _err = flow._turn(chart, *start, 10.0, flow._PROBE_CFG)
        assert status == "turn"
        attempts = (tally["rhs"] - 1) // 6  # FSAL: six calls an attempt
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
