import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from fakesaddle import asymptotics as asy, flow
from fakesaddle.casebook import (build_example6, build_xn, build_z,
                                 example6_first_integral, printed_y1,
                                 z_gamma_closed, z_return_slope_closed)
from fakesaddle.normalform import NormalFormField, validate_and_build
from fakesaddle.polyfield import PlanarField, Poly2

X, Y = Poly2.gens()
SECTIONS = asy.SectionPair(-1.0, 1.0)
EX6 = build_example6(Fraction(1), Fraction(-1), Fraction(-1))


def y1_normal_form():
    return validate_and_build(printed_y1())


class TestIntegrate:
    def test_radial_field_exponential(self):
        traj = flow.integrate(PlanarField(X, Y), (1.0, 1.0),
                              flow.Stop.x_reaches(math.e))
        xe, ye = traj.end
        assert xe == pytest.approx(math.e, abs=1e-9)
        assert ye == pytest.approx(math.e, abs=1e-9)
        assert traj.events[0][0] == "x_reaches"

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

    def test_time_stop(self):
        traj = flow.integrate(PlanarField(X, Y), (1.0, 2.0),
                              flow.Stop.time_reaches(1.0))
        xe, ye = traj.end
        assert xe == pytest.approx(math.e, rel=1e-9)
        assert ye == pytest.approx(2 * math.e, rel=1e-9)

    def test_samples_monotone_and_csv(self, tmp_path):
        traj = flow.integrate(PlanarField(X, Y), (1.0, 1.0),
                              flow.Stop.time_reaches(0.5))
        ts = [s[0] for s in traj.samples]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        out = tmp_path / "traj.csv"
        traj.to_csv(out)
        header = out.read_text().splitlines()[0]
        assert header == "t_or_x,x,y,step_error"

    def test_max_steps_exceeded(self):
        cfg = flow.IntegratorConfig(max_steps=50)
        with pytest.raises(flow.MaxStepsExceeded):
            # x decays to 0 and never reaches the far section
            flow.integrate(PlanarField(-X, Poly2.zero()), (1.0, 0.0),
                           flow.Stop.x_reaches(2.0), cfg=cfg)

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
                           match=r"p = 0 at \(1\.0, "):
            flow.integrate(PlanarField(1 - X, 1 - X), (0.0, 0.0),
                           flow.Stop.x_reaches(1.0), param="graph")

    def test_nan_error_norm_is_a_rejection(self):
        # backward in time the orbit falls onto the origin, where a step's
        # error norm comes out NaN: accepted, it ended the drive in a
        # window exit at (nan, inf); rejected, the steps run out
        with pytest.raises(flow.MaxStepsExceeded):
            flow.integrate(build_z(1.0, 1.0), (0.0, 0.1),
                           flow.Stop.window_exit(-0.5, 0.5, -0.5, 0.5),
                           flow.IntegratorConfig(max_steps=50_000),
                           backward=True)

    def test_y_stop_and_json_export(self):
        traj = flow.integrate(PlanarField(Poly2.const(0) + X * 0 + 1,
                                          Poly2.const(1)),
                              (0.0, 0.0), flow.Stop.y_reaches(0.5))
        xe, ye = traj.end
        assert ye == pytest.approx(0.5, abs=1e-10)
        data = traj.to_json()
        assert data["parametrization"] == "time"
        assert data["events"][0][0] == "y_reaches"


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


def reference_rhs(kind, f, g):
    """The slope of each state kind as an ``f(t, state)`` function."""
    if kind == "xy":
        return lambda _t, s: tuple(f(s[0], s[1]))

    def graph(x, s):
        y = s[0]
        p, q = f(x, y)
        if p <= g * (x * x + y * y):
            raise flow._SwitchParametrization(x, y)
        try:
            return (q / p,)
        except ZeroDivisionError:
            raise flow._SwitchParametrization(x, y) from None
    return graph


def reference_drive(rhs, t0, y0, cfg, *, t_end=None, events=(),
                    winding_target=None, parametrization="time",
                    autonomous=False, keep_samples=False, seen=None):
    """The adaptive drive as a plain loop over ``tableau_step`` and
    ``loop_norm`` with the builtins' min and max; the reference the
    generated drive loops must match bit for bit.  ``rhs(t, state)`` is
    the slope of ``reference_rhs``; ``seen`` counts the branches taken."""
    seen = Counter() if seen is None else seen
    t = t0
    t_offset = 0.0
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

    samples = [(t, *as_xy(t, y), 0.0)] if keep_samples else None
    ev_records = []
    theta = 0.0
    err_accum = 0.0
    g_prev = [e.fn(t, y) for e in events]

    def finish(status, t_stop, y_stop, err_total):
        seen[status.split(":")[0]] += 1
        traj = (flow.Trajectory(samples, ev_records, parametrization)
                if keep_samples else None)
        return flow._DriveResult(traj, status, t_stop, y_stop, err_total)

    for _n in range(cfg.max_steps):
        seen["attempt"] += 1
        if t_end is not None and t + h >= t_end:
            seen["t_end clamp"] += 1
            h = t_end - t
            if h <= 0.0:
                return finish("t_end", t_offset + t, y, err_accum)
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
        if winding_target is not None:
            dtheta = flow._angle_increment(y, y5)
            if abs(dtheta) > 0.6 and t + 0.25 * h != t:
                seen["winding rejection"] += 1
                h *= 0.5
                continue

        # accepted
        t1 = t + h
        hit = None
        for idx, ev in enumerate(events):
            g1 = ev.fn(t1, y5)
            g0 = g_prev[idx]
            if ((ev.direction >= 0 and g0 < 0.0 <= g1)
                    or (ev.direction <= 0 and g0 > 0.0 >= g1)):
                seen[f"event direction {ev.direction}"] += 1
                lo, hi = 0.0, 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    ym = flow._hermite(y, k1, y5, k7, h, mid)
                    gm = ev.fn(t + mid * h, ym)
                    if (g0 < 0.0) == (gm < 0.0):
                        lo = mid
                    else:
                        hi = mid
                    if (hi - lo) * abs(h) < 1e-12:
                        break
                tau = 0.5 * (lo + hi)
                y_ev = flow._hermite(y, k1, y5, k7, h, tau)
                t_ev = t_offset + t + tau * h
                xe, ye = as_xy(t + tau * h, y_ev)
                ev_records.append((ev.name, (t_ev, xe, ye)))
                if hit is None:
                    hit = (ev, t_ev, y_ev)
            g_prev[idx] = g1
        if hit is not None:
            ev, t_ev, y_ev = hit
            if keep_samples:
                samples.append((t_ev, *as_xy(t_ev - t_offset, y_ev), err_abs))
            return finish(f"event:{ev.name}", t_ev, y_ev, err_accum + err_abs)

        if winding_target is not None:
            if abs(theta + dtheta) >= winding_target:
                lo, hi = 0.0, 1.0
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    ym = flow._hermite(y, k1, y5, k7, h, mid)
                    if abs(theta + flow._angle_increment(y, ym)) \
                            >= winding_target:
                        hi = mid
                    else:
                        lo = mid
                    if (hi - lo) * abs(h) < 1e-12:
                        break
                tau = hi
                y_ev = flow._hermite(y, k1, y5, k7, h, tau)
                t_ev = t_offset + t + tau * h
                xe, ye = as_xy(t + tau * h, y_ev)
                if keep_samples:
                    samples.append((t_ev, xe, ye, err_abs))
                ev_records.append(("winding", (t_ev, xe, ye)))
                return finish("winding", t_ev, y_ev, err_accum + err_abs)
            theta += dtheta

        if keep_samples:
            samples.append((t_offset + t1, *as_xy(t1, y5), err_abs))
        err_accum += err_abs
        t, y, k1 = t1, y5, k7
        if t_end is not None and t >= t_end:
            return finish("t_end", t_offset + t, y, err_accum)
        if autonomous and abs(t) > 1e13 * h:
            seen["rebase"] += 1
            t_offset += t
            t = 0.0
        h *= min(5.0, max(0.2, 0.9 * norm ** -0.2 if norm > 0 else 5.0))
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


def wind_events(box, r_stall):
    """The guard box and stall radius of ``flow._wind`` as the events of
    ``reference_drive``."""
    return [flow._Event("box_exit",
                        lambda _t, s: max(abs(s[0]), abs(s[1])) - box, +1),
            flow._Event("stall",
                        lambda _t, s: r_stall - math.hypot(s[0], s[1]), +1)]


def assert_drive_matches(kind, field, t0, y0, cfg, guard=math.nan,
                         seen=None, **kw):
    """Drive ``field()`` both ways and require the same outcome; returns it.

    ``field`` makes a fresh ``f(x, y) -> (p, q)`` for each drive, so a
    field that counts its calls sees the same sequence in both.  The
    "wind" kind is ``flow._wind`` from t0 = 0 with the ``box`` and
    ``r_stall`` of ``kw``, and the reference winds once under its events.
    """
    if kind == "wind":
        got = outcome(lambda: flow._wind(field(), y0, kw["box"],
                                         kw["r_stall"], cfg))
        kind, kw = "xy", dict(events=wind_events(**kw),
                              winding_target=flow.TWO_PI, autonomous=True)
    else:
        got = outcome(lambda: flow._drive(kind, field(), t0, y0, cfg,
                                          guard=guard, **kw))
    want = outcome(lambda: reference_drive(
        reference_rhs(kind, field(), guard), t0, y0, cfg, seen=seen, **kw))
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
    GUARD = flow._MIN_DENOMINATOR

    def check_drives(self, kind, g, seed, count):
        """Seeded short drives (start, span, tolerances); returns the
        branch counts and how many drives gave way to the graph guard."""
        n = flow._KINDS[kind][0]
        rng = random.Random(seed)
        seen = Counter()
        guarded = 0
        for _ in range(count):
            t0 = rng.uniform(-2.0, 2.0)
            y0 = tuple(rng.uniform(-1.5, 1.5) for _ in range(n))
            cfg = flow.IntegratorConfig(
                abs_tol=10 ** rng.uniform(-14.0, -4.0),
                rel_tol=10 ** rng.uniform(-12.0, -3.0), max_steps=60)
            got = assert_drive_matches(
                kind, lambda: self.RHS_XY, t0, y0, cfg, g, seen,
                t_end=t0 + rng.uniform(0.01, 0.5))
            guarded += got.startswith("raises _SwitchParametrization")
        return seen, guarded

    @pytest.mark.parametrize("n", [1, 2])
    def test_unrolled_step_equals_tableau_formula(self, n):
        # n = 1 is the graph kind under the transit guard: p = x^3 - 2xy
        # + 1/3 changes sign in the sampled box, so many drives meet the
        # fold; n = 2 is the xy kind, which has no guard
        if n == 1:
            seen, guarded = self.check_drives("graph", self.GUARD, 1, 400)
            assert guarded >= 200
        else:
            seen, guarded = self.check_drives("xy", self.GUARD, 2, 200)
            assert guarded == 0
        assert seen["attempt"] >= 3000 and seen["rejected"] >= 100

    def test_unguarded_graph_kernel_never_switches(self):
        # a NaN guard is integrate()'s graph drive: away from p = 0 it
        # never gives way
        seen, guarded = self.check_drives("graph", math.nan, 1, 150)
        assert guarded == 0 and seen["attempt"] >= 3000

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
                             seen=seen, t_end=0.5, keep_samples=True)
        assert seen["attempt"] >= 1  # the first step met k7

    def test_graph_guard_includes_equality(self):
        # p = g*(x^2 + y^2) exactly gives way, at the start and at a stage
        g = self.GUARD
        cfg = flow.IntegratorConfig()

        def on_guard():
            return lambda x, y: (g * (x * x + y * y), g)
        at_start = assert_drive_matches("graph", on_guard, 1.0, (0.0,), cfg,
                                        g, t_end=2.0)
        assert at_start == "raises _SwitchParametrization(1.0, 0.0)"
        at_stage = assert_drive_matches(
            "graph",
            lambda: lambda x, y: (g * (x * x + y * y) if x > 1.0 else 1.0,
                                  0.5),
            0.5, (0.0,), cfg, g, t_end=2.0)
        assert at_stage.startswith("raises _SwitchParametrization")
        # unguarded, the slope is q/p there
        assert assert_drive_matches("graph", on_guard, 1.0, (0.0,), cfg,
                                    t_end=2.0).startswith("_DriveResult")

    @pytest.mark.parametrize("kind", ["xy", "graph"])
    def test_non_finite_state_returns_none_after_its_slope(self, kind):
        # stages 2-7 of the first step overflow y5: the step is retried at
        # half size, after the slope k7 of the non-finite y5 is evaluated
        n = flow._KINDS[kind][0]
        big = {i: (1.0, 1.7e308) for i in range(2, 8)}
        field = field_then(lambda x, y: (1.0, 1.0), big)
        seen = Counter()
        assert_drive_matches(kind, field, 0.0, (0.5,) * n,
                             flow.IntegratorConfig(), seen=seen, t_end=1.0)
        assert seen["non-finite halving"] == 1
        f = field()
        flow._drive(kind, f, 0.0, (0.5,) * n, flow.IntegratorConfig(),
                    t_end=1.0)
        assert not math.isfinite(f.calls[6][1])  # k7 at the overflowed y5

    def test_endpoint_drive_matches_trajectory_end(self):
        # the sample-free transit drive follows the same steps as integrate()
        traj = flow.integrate(EX6.field(), (-1.0, 0.3),
                              flow.Stop.x_reaches(1.0), param="graph")
        y_end, _err = flow._transit_endpoint(EX6.field().as_rhs(), -1.0, 1.0,
                                             0.3, flow.IntegratorConfig())
        assert y_end == traj.end[1]


ROTATION = PlanarField(-Y, X).as_rhs()


def crossing(name, i, value, direction):
    return flow._Event(name, lambda _t, s: s[i] - value, direction)


# Named drives through every branch of the drive loop: (name, kind,
# field factory, t0, y0, config, guard, drive options, the branches of
# the reference that the drive must take, how the drive ends)
DRIVES = [
    ("graph to t_end", "graph", lambda: EX6.field().as_rhs(), -1.0, (0.3,),
     flow.IntegratorConfig(), 1e-8,
     dict(t_end=1.0, parametrization="graph-over-x", keep_samples=True),
     {"t_end clamp", "t_end", "rejected"}, "_DriveResult"),
    ("graph fold gives way", "graph",
     lambda: build_example6(Fraction(5, 2), Fraction(5, 2),
                            Fraction(1, 2)).field().as_rhs(),
     -1.0, (1e-3,), flow.IntegratorConfig(), 1e-8, dict(t_end=1.0), set(),
     "raises _SwitchParametrization"),
    ("graph p = 0, NaN guard", "graph",
     lambda: lambda x, y: (0.0 if x > 0.5 else 1.0, y), 0.0, (0.2,),
     flow.IntegratorConfig(), math.nan, dict(t_end=1.0), set(),
     "raises _SwitchParametrization"),
    ("graph of zero span", "graph", lambda: EX6.field().as_rhs(), 0.5,
     (0.3,), flow.IntegratorConfig(), 1e-8, dict(t_end=0.5, keep_samples=True),
     {"t_end clamp", "t_end"}, "_DriveResult"),
    # 0.1 + 0.2 is t_end, but t_end - 0.1 is not 0.2: the clamp moves h
    ("t_end met by rounding", "xy",
     lambda: lambda x, y: (1e-3 * y, -1e-3 * x), 0.1, (1.0, 0.0),
     flow.IntegratorConfig(max_step=0.2), math.nan,
     dict(t_end=0.1 + 0.2, keep_samples=True), {"t_end clamp", "t_end"},
     "_DriveResult"),
    ("xy to t_end with max_step", "xy", lambda: EX6.field().as_rhs(), 0.0,
     (-1.0, 0.3), flow.IntegratorConfig(max_step=0.01), math.nan,
     dict(t_end=2.0, keep_samples=True), {"max_step cap", "t_end"},
     "_DriveResult"),
    *((f"event of direction {ev.direction}", "xy", lambda: ROTATION, 0.0,
       (1.0, 0.0), flow.IntegratorConfig(rel_tol=1e-8), math.nan,
       dict(events=[ev], keep_samples=True),
       {f"event direction {ev.direction}", "event"}, "_DriveResult")
      for ev in (crossing("down", 0, 0.0, -1), crossing("either", 1, 0.5, 0),
                 crossing("up", 0, 0.0, +1))),
    ("winding", "wind", lambda: ROTATION, 0.0, (0.0, 2.0),
     flow.IntegratorConfig(rel_tol=1e-3, abs_tol=1e-6), math.nan,
     dict(box=5.0, r_stall=0.0), {"winding rejection", "winding"},
     "_DriveResult"),
    # an orbit of monodromy_probe's ring: its degenerate passes crawl
    ("rebased winding", "wind", lambda: build_z(1.0, 1.0).as_rhs(), 0.0,
     (1e-8 * math.cos(math.pi / 12), 1e-8 * math.sin(math.pi / 12)),
     flow.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-17), math.nan,
     dict(box=10.0, r_stall=1e-20), {"rebase", "winding"}, "_DriveResult"),
    # the step from (0.9, 0.9) crosses into the stall radius and out of
    # the box: the box, tested first, ends the drive
    ("box exit and stall in one step", "wind",
     lambda: lambda x, y: (0.6, -1.0), 0.0, (0.9, 0.9),
     flow.IntegratorConfig(), math.nan,
     dict(box=1.0, r_stall=1.25), {"event"},
     "_DriveResult(trajectory=None, status='event:box_exit'"),
    ("rebased event", "xy", lambda: ROTATION, 1e12, (1.0, 0.0),
     flow.IntegratorConfig(), math.nan,
     dict(events=[crossing("up", 0, 0.0, +1)], autonomous=True,
          keep_samples=True),
     {"rebase", "event"}, "_DriveResult"),
    ("non-finite y5", "xy",
     field_then(ROTATION, {3: (1.0, 1.7e308), 4: (1.0, 1.7e308)}), 0.0,
     (1.0, 0.0), flow.IntegratorConfig(), math.nan,
     dict(t_end=1.0, keep_samples=True), {"non-finite halving", "t_end"},
     "_DriveResult"),
    ("step underflow", "xy", lambda: ROTATION, 1e20, (1.0, 0.0),
     flow.IntegratorConfig(), math.nan,
     dict(events=[crossing("up", 0, 0.0, 1)]), set(), "raises StepUnderflow"),
    ("max steps", "xy", lambda: ROTATION, 0.0, (1.0, 0.0),
     flow.IntegratorConfig(max_steps=30), math.nan,
     dict(events=[crossing("never", 0, 5.0, +1)], keep_samples=True),
     set(), "raises MaxStepsExceeded"),
]


class TestDrive:
    """The generated drive loops against ``reference_drive``: the same
    _DriveResult and Trajectory, by repr, or the same exception."""

    @pytest.mark.parametrize("name, kind, field, t0, y0, cfg, guard, kw, "
                             "branches, ending", DRIVES,
                             ids=[d[0] for d in DRIVES])
    def test_drive_equals_reference(self, name, kind, field, t0, y0, cfg,
                                    guard, kw, branches, ending):
        seen = Counter()
        got = assert_drive_matches(kind, field, t0, y0, cfg, guard, seen,
                                   **kw)
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
                assert_drive_matches(
                    "graph", lambda: field, start[0], start[1:], cfg,
                    rng.choice((1e-8, math.nan)), seen,
                    t_end=start[0] + rng.uniform(0.1, 1.0),
                    parametrization="graph-over-x", keep_samples=True)
            else:
                t_end = rng.choice((None, rng.uniform(0.5, 3.0)))
                event = crossing("x", 0, rng.uniform(-1.0, 1.0),
                                 rng.choice((-1, 0, 1)))
                rng.random()  # once chose a non-terminal event; kept draw
                rng.choice((None, flow.TWO_PI))  # once chose winding; kept
                assert_drive_matches(
                    "xy", lambda: field, 0.0, start, cfg, math.nan, seen,
                    t_end=t_end, events=[event], autonomous=True,
                    keep_samples=rng.random() < 0.5)
        assert seen["attempt"] >= 3000

    def test_wind_from_the_origin_to_a_box_met_at_a_step_end(self):
        # from (-0.0, 0.0) the first step's turn has cross 0.0 and dot
        # -0.0: no turn, where atan2 would give pi.  The constant field's
        # steps have no error, so a box through the end of the fourth one
        # makes box_exit exactly 0 there, and 0 counts as out
        def field():
            return lambda x, y: (1.0, -1.0)
        cfg = flow.IntegratorConfig()
        steps = reference_drive(reference_rhs("xy", field(), math.nan), 0.0,
                                (-0.0, 0.0), cfg, t_end=1.0,
                                keep_samples=True).trajectory.samples
        got = assert_drive_matches("wind", field, 0.0, (-0.0, 0.0), cfg,
                                   box=steps[4][1], r_stall=0.0)
        assert "status='event:box_exit'" in got

    def test_seeded_winds_equal_reference(self):
        # flow._wind's generated loop against the reference under the box
        # and stall events and a full turn: quartic fields z(alpha, beta),
        # whose degenerate passes crawl, and random foci, with guard boxes,
        # stall radii, tolerances and step caps drawn around each start
        rng = random.Random(13)
        seen, endings = Counter(), Counter()
        for _ in range(40):
            if rng.random() < 0.5:
                field = build_z(rng.uniform(-1.0, 1.0),
                                rng.uniform(0.05, 2.0)).as_rhs()
                r0 = 10 ** rng.uniform(-8.0, -2.0)
            else:
                c = [rng.uniform(-0.5, 0.5) for _ in range(5)]
                field = PlanarField(
                    c[0] * X - Y + c[1] * X * X + c[2] * X * Y,
                    X + c[0] * Y + c[3] * X * X * Y + c[4] * Y ** 3).as_rhs()
                r0 = rng.uniform(0.05, 0.5)
            ang = rng.uniform(0.0, flow.TWO_PI)
            start = (r0 * math.cos(ang), r0 * math.sin(ang))
            box = r0 * 10 ** rng.uniform(0.1, 2.0)
            r_stall = rng.choice((0.0, r0 * 10 ** rng.uniform(-6.0, -0.5)))
            rel_tol = 10 ** rng.uniform(-10.0, -3.0)
            cfg = flow.IntegratorConfig(
                rel_tol=rel_tol,
                abs_tol=rel_tol * r0 * r0 if rng.random() < 0.5 else 1e-12,
                max_steps=3000, max_step=rng.choice((None, None, 0.5)))
            got = assert_drive_matches("wind", lambda: field, 0.0, start, cfg,
                                       seen=seen, box=box, r_stall=r_stall)
            status = re.search(r"status='([^']+)'", got)
            endings[status.group(1) if status else got.split("(")[0]] += 1
        assert {"winding", "event:box_exit", "event:stall"} <= set(endings)
        assert seen["winding rejection"] >= 10 and seen["rebase"] >= 5


class TestRhsCounts:
    """Right-hand-side evaluations of the measured maps, pinned.

    The count fixes the whole sequence of accepted and rejected steps, so
    a kernel or drive-loop change that moves any step shows here first.
    """

    def test_monodromy_probe(self, count_rhs):
        count_rhs.append(0)
        flow.monodromy_probe(build_z(1.0, 1.0), box=10.0, ring_radius=1e-8)
        assert count_rhs == [159384]

    def test_return_slope(self, count_rhs):
        count_rhs.append(0)
        flow.return_slope(build_z(1.0, 1.0))
        assert count_rhs == [44428]

    # below the monodromy threshold beta = 1/4 the first orbit leaves the
    # box, or, contracting, falls inside the stall radius
    @pytest.mark.parametrize("alpha, beta, status, count", [
        (1.0, 0.2, "event:box_exit", 2335),
        (-1.0, 0.1, "event:stall", 15049),
    ])
    def test_return_slope_without_return(self, count_rhs, alpha, beta,
                                         status, count):
        count_rhs.append(0)
        with pytest.raises(flow.NoReturn, match=status):
            flow.return_slope(build_z(alpha, beta))
        assert count_rhs == [count]

    def test_monodromy_probe_stops_at_first_exit(self, count_rhs):
        # the first of the 12 orbits leaves the box and decides TRANSIT:
        # its own evaluations, where the whole ring took 38130
        count_rhs.append(0)
        verdict = flow.monodromy_probe(EX6.field(), box=2.0)
        assert verdict is flow.ProbeVerdict.TRANSIT
        assert count_rhs == [3025]

    def test_transition_slope_both_sides(self, count_rhs):
        for side in "+-":
            count_rhs.append(0)
            flow.transition_slope(EX6, SECTIONS, side)
        assert count_rhs == [6293, 5387]

    def test_transition_slope_arclength_fallback(self, count_rhs):
        # |a| > 2 folds the graph denominator on the path: the count also
        # pins the stage at which the fused guard gives up the graph drive
        nf = build_example6(Fraction(5, 2), Fraction(5, 2), Fraction(1, 2))
        for side in "+-":
            count_rhs.append(0)
            flow.transition_slope(nf, SECTIONS, side)
        assert count_rhs == [13797, 12779]


    # integrate() in each parametrization, with event stops of each kind
    # and a time stop: the accepted-step path with events and samples
    @pytest.mark.parametrize("case, start, stop, param, backward, count", [
        ("example6", (-1.0, 0.3), ("x", 1.0), "time", False, 1171),
        ("example6", (-1.0, 0.3), ("time", 1.0), "time", False, 175),
        ("example6", (1.0, 0.3), ("x", -1.0), "time", True, 463),
        ("example6", (1.0, 0.3), ("time", 1.0), "time", True, 223),
        ("example6", (-1.0, 0.3), ("x", 1.0), "arclength", False, 739),
        ("example6", (-1.0, 0.3), ("time", 1.0), "arclength", False, 289),
        ("example6", (-1.0, 0.3), ("x", 1.0), "graph", False, 781),
        ("example6", (1.0, 0.3), ("x", -1.0), "graph", False, 301),
        ("z", (0.0, 0.1), ("section", 1), "time", False, 2587),
        ("z", (0.0, 0.5), ("time", 5.0), "time", False, 517),
        ("z", (0.0, 0.1), ("section", -1), "time", True, 3541),
        ("z", (0.0, 0.5), ("time", 5.0), "time", True, 331),
        ("z", (0.0, 0.1), ("section", 1), "arclength", False, 1573),
        ("z", (0.0, 0.5), ("time", 5.0), "arclength", False, 829),
        ("z", (-1.0, 0.5), ("x", -0.5), "graph", False, 193),
        ("z", (-0.5, 0.5), ("x", -1.0), "graph", False, 439),
        ("z", (0.0, 0.5), ("y", -0.2), "time", False, 853),
        ("z", (0.0, 0.5), ("y", -0.2), "time", True, 2275),
        ("z", (0.0, 0.5), ("y", -0.2), "arclength", False, 565),
        ("example6", (-1.0, 0.3), ("window", 2.0), "time", False, 1339),
        ("example6", (-1.0, 0.3), ("window", 2.0), "time", True, 199),
        ("example6", (-1.0, 0.3), ("window", 2.0), "arclength", False, 841),
    ])
    def test_integrate(self, count_rhs, case, start, stop, param, backward,
                       count):
        field = EX6.field() if case == "example6" else build_z(1.0, 1.0)
        kind, value = stop
        stop = {"x": flow.Stop.x_reaches,
                "y": flow.Stop.y_reaches,
                "time": flow.Stop.time_reaches,
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

    @pytest.mark.parametrize("value", [-1.0, 0.0, -0.0, math.nan, math.inf])
    def test_bad_time_stop(self, value):
        with pytest.raises(ValueError):
            flow.Stop.time_reaches(value)

    @pytest.mark.parametrize("axis, direction", [
        ("z", 1), ("X", 0), ("", -1), ("x", 2), ("y", -2), ("x", 0.5),
    ])
    def test_bad_section_stop(self, axis, direction):
        with pytest.raises(ValueError):
            flow.Stop.section(axis, 0.0, direction)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_bad_stop_value(self, value):
        for make in (flow.Stop.x_reaches, flow.Stop.y_reaches,
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
        ("return_slope", {"box": -1.0}),
        ("return_slope", {"box": math.nan}),
        ("return_slope", {"box": 1e-9}),
        ("return_slope", {"box": math.inf}),
        ("return_slope", {"section_scale": 1000.0}),
    ])
    def test_guard_box_that_cannot_fire(self, measure, kw):
        # the box_exit event fires only on the way out of a finite box, so
        # a start that is not strictly inside one would run unguarded
        message = "ring radius" if measure == "monodromy_probe" else "guard box"
        with pytest.raises(ValueError, match=message):
            getattr(flow, measure)(build_z(1.0, 1.0), **kw)

    # the absolute tolerance rel_tol*r0^2 or the stall radius 1e-8*r0^2
    # of the deepest start r0 would be zero or subnormal: both, then only
    # the stall radius, then only the tolerance
    @pytest.mark.parametrize("section_scale, rel_tol", [
        (1e-160, 1e-10), (1e-150, 1e-10), (1e-147, 1e-6), (1e-145, 1e-12),
    ])
    def test_return_slope_tolerance_underflow(self, section_scale, rel_tol):
        with pytest.raises(ValueError, match="section_scale .* underflows"):
            flow.return_slope(build_z(1.0, 1.0), section_scale,
                              cfg=flow.IntegratorConfig(rel_tol=rel_tol))

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("direction", [-1, 0, 1])
    def test_good_section_stop(self, axis, direction):
        stop = flow.Stop.section(axis, 0.5, direction)
        (event,) = stop.events
        assert event.direction == direction and stop.span is None
        # zero on the section and the signed distance off it
        i = "xy".index(axis)
        for value in (0.25, 0.5, 2.0):
            point = [-3.0, 7.0]
            point[i] = value
            assert event.fn(0.0, tuple(point)) == value - 0.5


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
        traj = flow.integrate(PlanarField(-Y, X), start,
                              flow.Stop.section("x", 0.0, direction))
        assert [name for name, _loc in traj.events] == ["section_crossing"]
        t_end, xe, ye, _err = traj.samples[-1]
        assert t_end == pytest.approx(1.5 * math.pi, rel=1e-8)
        assert xe == pytest.approx(0.0, abs=1e-8)
        assert ye == pytest.approx(y_stop, abs=1e-8)


class TestTransitionSlope:
    def test_resolved_quartic_both_sides(self):
        # closed form gives the same slope on both sides here
        for side in "+-":
            est = flow.transition_slope(y1_normal_form(),
                                        asy.SectionPair(-1.0, 0.5), side)
            assert est.value == pytest.approx(4.0, rel=0.01)
            assert est.residual < 0.01

    def test_quadratic_homogeneous_both_sides(self):
        plus = flow.transition_slope(EX6, SECTIONS, "+")
        minus = flow.transition_slope(EX6, SECTIONS, "-")
        assert plus.value == pytest.approx(math.exp(-math.pi), rel=0.01)
        assert minus.value == pytest.approx(math.exp(math.pi), rel=0.01)

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
        # |a| > 2 makes the graph denominator vanish on the path; the
        # arclength fallback must still deliver the closed-form slope
        # (slowly, the remainder decays like the offset to the power ~0.9)
        nf = build_example6(Fraction(5, 2), Fraction(5, 2), Fraction(1, 2))
        gp, _ = asy.gamma_pm(nf, SECTIONS)
        offsets = tuple(10 ** (-2 - k / 2) for k in range(7))
        est = flow.transition_slope(nf, SECTIONS, "+", offsets=offsets)
        assert est.value == pytest.approx(math.exp(gp), rel=0.02)


class TestReturnSlope:
    def test_center(self):
        est = flow.return_slope(build_z(0.0, 1.0))
        assert est.value == pytest.approx(1.0, abs=1e-3)

    def test_expanding_return(self):
        est = flow.return_slope(build_z(1.0, 1.0))
        assert est.value == pytest.approx(z_return_slope_closed(1.0, 1.0),
                                          rel=0.02)

    def test_contracting_return(self):
        est = flow.return_slope(build_z(-1.0, 1.0))
        assert est.value == pytest.approx(z_return_slope_closed(-1.0, 1.0),
                                          rel=0.02)

    def test_no_return_outside_monodromy_region(self):
        with pytest.raises(flow.NoReturn):
            flow.return_slope(build_z(1.0, 0.2))

    @pytest.mark.parametrize("section_scale", [1e-10, 1e-20])
    def test_deep_starts_reject_steps_of_nan_error(self, section_scale):
        # from r0 = 1e-12 and below, a step's k7 overflows and its error
        # norm is NaN; accepted, the orbit left the box at (inf, nan)
        est = flow.return_slope(build_z(1.0, 1.0),
                                section_scale=section_scale)
        assert est.value == pytest.approx(z_return_slope_closed(1.0, 1.0),
                                          rel=1e-6)

    def test_composition_of_half_returns(self):
        # one half-loop per fiber side: slopes multiply to the full return
        z = build_z(1.0, 1.0)
        gp, gm = z_gamma_closed(1.0, 1.0)
        y0 = 1e-3
        first = flow.integrate(z, (0.0, y0),
                               flow.Stop.section("x", 0.0, +1),
                               param="time")
        _, y_half = first.end
        assert abs(y_half) / y0 == pytest.approx(math.exp(gm), rel=0.02)
        est = flow.return_slope(z)
        assert est.value == pytest.approx(math.exp(gp) * math.exp(gm),
                                          rel=0.03)


class TestReversibility:
    def test_reversible_center_orbit_symmetry(self):
        # mirror symmetry in x: the first y=0 half-crossing lands at -x0
        z = build_z(0.0, 1.0)
        x0 = 1e-2
        traj = flow.integrate(z, (x0, 0.0), flow.Stop.section("y", 0.0, -1),
                              param="time")
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
        traj = flow.integrate(field, (0.0, 0.7), flow.Stop.x_reaches(1.0))
        drift = flow.conservation_check(lambda x, y: y, traj)
        assert drift < 1e-12

    def test_ambiguous_jump_raises(self):
        traj = flow.Trajectory(samples=[(0.0, 0.0, 1.0, 0.0),
                                        (1.0, 1.0, 2.0, 0.0)],
                               events=[], parametrization="time")
        with pytest.raises(flow.BranchTrackingFailed):
            # jump of 1.2 pi is nowhere near a whole quantum
            flow.conservation_check(lambda x, y: x * 1.2 * math.pi,
                                    traj, branch_quantum=2.0 * math.pi)


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
        assert set(flow._LOOPS) == {"xy", "wind", "graph"}
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
