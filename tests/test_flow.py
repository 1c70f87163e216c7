import math
import random
from fractions import Fraction

import pytest

from fakesaddle import asymptotics as asy, flow
from fakesaddle.casebook import (build_example6, build_xn, build_z,
                                 example6_first_integral, z_gamma_closed,
                                 z_return_slope_closed)
from fakesaddle.normalform import NormalFormField, validate_and_build
from fakesaddle.polyfield import PlanarField, Poly2

X, Y = Poly2.gens()
SECTIONS = asy.SectionPair(-1.0, 1.0)
EX6 = build_example6(Fraction(1), Fraction(-1), Fraction(-1))


def y1_normal_form():
    p = (X ** 2 + Y ** 2 - X ** 3 - 4 * X * Y ** 2 + 6 * X ** 2 * Y ** 2
         - 4 * X ** 3 * Y ** 2 + X ** 4 * Y ** 2)
    return validate_and_build(PlanarField(p, X ** 2 * Y))


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


class TestStep:
    RHS_XY = PlanarField(X ** 3 - 2 * X * Y + Fraction(1, 3),
                         Y ** 2 - X * Y ** 3 + 5 * X).as_rhs()

    @staticmethod
    def rhs_1d(t, s):
        return (TestStep.RHS_XY(t, s[0])[0],)

    @staticmethod
    def rhs_2d(t, s):
        p, q = TestStep.RHS_XY(s[0], s[1])
        return (p + t * q, q - t)

    @pytest.mark.parametrize("n", [1, 2])
    def test_unrolled_step_equals_tableau_formula(self, n):
        f = self.rhs_1d if n == 1 else self.rhs_2d
        step = flow._STEPS[n]
        rng = random.Random(n)
        for _ in range(3000):
            t = rng.uniform(-2.0, 2.0)
            y = tuple(rng.uniform(-1.5, 1.5) for _ in range(n))
            h = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-6.0, -1.0)
            k1 = f(t, y)
            assert step(f, t, y, h, k1) == tableau_step(f, t, y, h, k1)

    def test_endpoint_drive_matches_trajectory_end(self):
        # the sample-free transit drive follows the same steps as integrate()
        traj = flow.integrate(EX6.field(), (-1.0, 0.3),
                              flow.Stop.x_reaches(1.0), param="graph")
        y_end, _err = flow._transit_endpoint(EX6.field().as_rhs(), -1.0, 1.0,
                                             0.3, flow.IntegratorConfig())
        assert y_end == traj.end[1]


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
        drift = flow.conservation_check(EX6.field(), h_fn, traj,
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
                EX6.field(), h_fn, traj, branch_quantum=2.0 * math.pi))
        assert drifts[1] < drifts[0]

    def test_linear_first_integral_exact(self):
        field = PlanarField(Poly2.const(1), Poly2.zero())
        traj = flow.integrate(field, (0.0, 0.7), flow.Stop.x_reaches(1.0))
        drift = flow.conservation_check(field, lambda x, y: y, traj)
        assert drift < 1e-12

    def test_ambiguous_jump_raises(self):
        traj = flow.Trajectory(samples=[(0.0, 0.0, 1.0, 0.0),
                                        (1.0, 1.0, 2.0, 0.0)],
                               events=[], parametrization="time")
        with pytest.raises(flow.BranchTrackingFailed):
            # jump of 1.2 pi is nowhere near a whole quantum
            flow.conservation_check(None, lambda x, y: x * 1.2 * math.pi,
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


class TestSlopeEstimateJson:
    def test_fields_exported(self):
        est = flow.transition_slope(y1_normal_form(),
                                    asy.SectionPair(-1.0, 0.5), "+",
                                    offsets=(1e-2, 10 ** -2.5, 1e-3))
        data = est.to_json()
        assert set(data) == {"value", "offsets_used", "per_offset",
                             "residual", "exponent"}
        assert len(data["per_offset"]) == len(data["offsets_used"])
