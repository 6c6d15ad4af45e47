"""Forward tracing on rows: angle measurement, refraction, intersections,
traced paths and lost rays."""

import math

import numpy as np
import pytest

from goatfocus.analysis import check_unique_intersection
from goatfocus.goatsolve import residuals, tof_of_path
from goatfocus.medium import Constant, Ellipse, Medium, Point2, SampledC1
from goatfocus.raytrace import (
    LOST_CAUSES,
    MIN_SEGMENT,
    intersect_next,
    next_direction,
    refract,
    sin_incidence,
    trace_rows,
)

from cases import (
    MM,
    oscillating_medium,
    random_endpoints,
    random_medium,
    setting3_medium,
)

SIN45 = math.sin(math.pi / 4)


def angle_oracle(p_prev, p, tan_alpha):
    """Signed sine of the segment/normal angle by explicit vector construction:
    arccos of the normalized dot product with the downward normal, signed by
    the tangential component."""
    seg = np.array([p.x - p_prev.x, p.z - p_prev.z])
    seg = seg / np.linalg.norm(seg)
    norm = np.array([-tan_alpha, 1.0]) / math.hypot(tan_alpha, 1.0)
    tang = np.array([1.0, tan_alpha]) / math.hypot(tan_alpha, 1.0)
    theta = math.acos(np.clip(np.dot(seg, norm), -1.0, 1.0))
    return math.copysign(math.sin(theta), np.dot(seg, tang))


def trace(medium, p0, x1, z_stop):
    """One ray from p0 through the first crossing x1 down to z = z_stop."""
    ends = np.array([[p0.x], [p0.z], [np.nan], [z_stop]])
    xs, x_end, tof, lost = trace_rows(medium, ends, np.array([float(x1)]))
    return xs[:, 0], float(x_end[0]), float(tof[0]), int(lost[0])


def crossing_points(medium, p0, xs, x_end, z_stop):
    return ([p0] + [Point2(x, b._eval(x)) for x, b in zip(xs, medium.boundaries)]
            + [Point2(x_end, z_stop)])


class TestSinIncidence:
    def test_normal_incidence_flat(self):
        assert sin_incidence(0.0, 30 * MM, 0.0)[0] == 0.0

    def test_45_degrees_flat(self):
        got, _ = sin_incidence(30 * MM, 30 * MM, 0.0)
        assert got == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_against_vector_angle_oracle(self, rng):
        n = 200
        x_prev = rng.uniform(-1, 1, n) * MM
        x, z = rng.uniform(-20, 20, n) * MM, rng.uniform(5, 40, n) * MM
        tan_alpha = rng.uniform(-1.5, 1.5, n)
        got, _ = sin_incidence(x - x_prev, z, tan_alpha)
        for i in range(n):
            assert got[i] == pytest.approx(angle_oracle(
                Point2(x_prev[i], 0.0), Point2(x[i], z[i]), tan_alpha[i]),
                abs=1e-12)

    def test_specific_tilted_case(self):
        p_prev, p, tan_alpha = Point2(0, 0), Point2(10 * MM, 30 * MM), 0.2
        assert sin_incidence(p.x, p.z, tan_alpha)[0] == pytest.approx(
            angle_oracle(p_prev, p, tan_alpha), abs=1e-12)

    def test_degenerate_segment(self):
        assert sin_incidence(0.0, 1e-13, 0.0)[1] < MIN_SEGMENT
        # A launch 1e-13 m above its first crossing runs a degenerate
        # segment: the ray is lost, not raised.
        dom = (-40 * MM, 40 * MM)
        med = Medium((1480.0, 1540.0), (Constant(30 * MM, dom),), dom)
        xs, x_end, tof, lost = trace(med, Point2(0.0, 30 * MM - 1e-13), 0.0,
                                     60 * MM)
        assert LOST_CAUSES[lost - 1] == "no_intersection"
        assert np.isnan(xs).all() and math.isnan(x_end) and math.isnan(tof)


class TestRefract:
    def test_slow_to_fast(self):
        s, reflected = refract(0.5, 1480.0, 1540.0)
        assert s == pytest.approx(0.5202702702702703, abs=1e-16)
        assert not reflected

    def test_normal_incidence(self):
        assert refract(0.0, 1480.0, 2200.0)[0] == 0.0

    def test_total_reflection(self):
        s, reflected = refract(SIN45, 1480.0, 2200.0)
        assert reflected
        assert s == pytest.approx(1.0512, abs=1e-4)

    def test_grazing_counts_as_reflection(self):
        _, reflected = refract(np.array([1.0 - 1e-13, 1.0 - 1e-11]),
                               1000.0, 1000.0)
        assert reflected.tolist() == [True, False]


class TestNextDirection:
    def test_straight_down(self):
        assert next_direction(0.0, 0.0) == (0.0, 1.0)

    def test_30_degrees_flat(self):
        dx, dz = next_direction(0.0, 0.5)
        assert dx == pytest.approx(0.5, abs=1e-15)
        assert dz == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
        dx_neg, _ = next_direction(0.0, -0.5)
        assert dx_neg == pytest.approx(-0.5, abs=1e-15)

    def test_round_trip_angle_measurement(self, rng):
        # The produced directions are unit vectors, and re-measuring their
        # sines against the boundary normals returns the input.
        tan_alpha = rng.uniform(-1.5, 1.5, 200)
        s = rng.uniform(-0.99, 0.99, 200)
        dx, dz = next_direction(tan_alpha, s)
        assert np.allclose(np.hypot(dx, dz), 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(sin_incidence(dx, dz, tan_alpha)[0], s, rtol=0.0,
                           atol=1e-12)

    def test_specific_case(self):
        d = next_direction(0.3, 0.2)
        assert sin_incidence(*d, 0.3)[0] == pytest.approx(0.2, abs=1e-12)


class TestIntersectNext:
    def test_flat_crossings_match_the_flat_formula(self, rng):
        # Constant is Linear at slope 0; its crossing must still be at
        # t = (d - oz) / dz, for rays from negative x and horizontal rays.
        dom = (-40 * MM, 40 * MM)
        d = 30 * MM
        med = Medium((1500.0, 1600.0), (Constant(d, dom),), dom)
        n = 300
        ox = rng.uniform(-40 * MM, 40 * MM, n)
        oz = rng.uniform(0.0, 29 * MM, n)
        a = rng.uniform(-math.pi, math.pi, n)
        dx, dz = np.sin(a), np.cos(a)
        k = np.arange(n)
        dx[k % 10 == 0], dz[k % 10 == 0] = (-1.0) ** (k[k % 10 == 0] // 10), 0.0
        x, z = intersect_next(med, 0, ox, oz, dx, dz)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(np.abs(dz) >= 1e-300, (d - oz) / dz, -1.0)
        want_x = ox + t * dx
        hit = (t > 0.0) & (-40 * MM - 1e-12 <= want_x) & (want_x <= 40 * MM + 1e-12)
        assert (x[hit].tobytes(), z[hit].tobytes()) == \
            (want_x[hit].tobytes(), (oz + t * dz)[hit].tobytes())
        assert np.isnan(x[~hit]).all() and np.isnan(z[~hit]).all()
        assert 50 < hit.sum() < 250

    def test_vertical_onto_flat(self):
        med = Medium((1500.0, 1500.0), (Constant(30 * MM, (-40 * MM, 40 * MM)),),
                     (-40 * MM, 40 * MM))
        x, z = intersect_next(med, 0, np.zeros(1), np.zeros(1), np.zeros(1),
                              np.ones(1))
        assert (x[0], z[0]) == (0.0, 30 * MM)

    def test_diagonal_onto_flat(self):
        med = Medium((1500.0, 1500.0), (Constant(30 * MM, (-40 * MM, 40 * MM)),),
                     (-40 * MM, 40 * MM))
        x, z = intersect_next(med, 0, np.zeros(1), np.zeros(1),
                              np.full(1, SIN45), np.full(1, SIN45))
        assert x[0] == pytest.approx(30 * MM, abs=1e-15)
        assert z[0] == pytest.approx(30 * MM, abs=1e-15)

    def test_onto_ellipse_satisfies_both_equations(self):
        dom = (0.0, 36.45 * MM)
        curve = Ellipse(50 * MM, 35 * MM, Point2(18.225 * MM, 0.0), +1, dom)
        med = Medium((1540.0, 1540.0), (curve,), dom)
        d = (0.3, math.sqrt(1 - 0.09))
        x, z = intersect_next(med, 0, np.full(1, 10 * MM), np.zeros(1),
                              np.full(1, d[0]), np.full(1, d[1]))
        x, z = x[0], z[0]
        # On the ray:
        t = (z - 0.0) / d[1]
        assert abs(10 * MM + t * d[0] - x) <= 1e-10
        # On the ellipse:
        xt = (x - curve.center.x) / curve.a
        zt = (z - curve.center.z) / curve.b
        assert abs(math.hypot(xt, zt) - 1.0) * curve.b <= 1e-10

    def test_ray_clipping_a_crest_finds_the_first_crossing(self):
        # A level ray 0.03 mm below the oscillating interface's shallowest
        # crests (22.00 mm deep, at x = 11.25 mm and every 15 mm on) dips
        # under each one, crossing twice inside one spline piece, 0.4 mm
        # apart; the first crossing is the near side of the first crest.
        med = oscillating_medium()
        curve = med.boundaries[0]
        ox, oz = np.full(1, 9.25 * MM), np.full(1, 22.03 * MM)
        x, z = intersect_next(med, 0, ox, oz, np.ones(1), np.zeros(1))
        assert 11.0 * MM < x[0] < 11.25 * MM and z[0] == oz[0]
        assert abs(curve._eval(x[0]) - z[0]) <= 1e-15
        t, n = curve._crossings(ox, oz, np.ones(1), np.zeros(1), np.inf)
        assert n.tolist() == [8] and ox[0] + t[0] == x[0]

    def test_z_stop_line(self):
        med = Medium((1500.0, 1500.0), (Constant(30 * MM, (-40 * MM, 40 * MM)),),
                     (-40 * MM, 40 * MM))
        x, z = intersect_next(med, 1, np.zeros(1), np.full(1, 30 * MM),
                              np.full(1, 0.6), np.full(1, 0.8),
                              z_stop=np.full(1, 70 * MM))
        assert z[0] == pytest.approx(70 * MM, abs=1e-15)
        assert x[0] == pytest.approx(30 * MM, abs=1e-12)

    def test_exits_domain(self):
        med = Medium((1500.0, 1500.0), (Constant(30 * MM, (-5 * MM, 5 * MM)),),
                     (-5 * MM, 5 * MM))
        x, z = intersect_next(med, 0, np.zeros(1), np.zeros(1),
                              np.full(1, SIN45), np.full(1, SIN45))
        assert np.isnan(x[0]) and np.isnan(z[0])


class TestPropagate:
    def test_homogeneous_is_collinear(self):
        dom = (-40 * MM, 40 * MM)
        med = Medium((1540.0, 1540.0), (Constant(30 * MM, dom),), dom)
        xs, x_end, _, _ = trace(med, Point2(0, 0), 5 * MM, 60 * MM)
        p1, pend = Point2(xs[0], 30 * MM), Point2(x_end, 60 * MM)
        # Terminal collinear with launch point and first crossing.
        cross = abs(p1.x * pend.z - pend.x * p1.z)
        assert cross / math.hypot(pend.x, pend.z) <= 1e-12

    def test_bends_away_from_normal_into_faster_layer(self):
        dom = (-80 * MM, 80 * MM)
        med = Medium((1480.0, 1540.0), (Constant(30 * MM, dom),), dom)
        _, x_end, _, _ = trace(med, Point2(0, 0), 10 * MM, 60 * MM)
        straight_x = 20 * MM  # straight-line extrapolation to z = 60 mm
        assert x_end > straight_x

    def test_annulus_crossings_satisfy_snell(self):
        med = setting3_medium()
        p0 = Point2(10 * MM, 2 * MM)
        xs, x_end, _, lost = trace(med, p0, 14 * MM, 70 * MM)
        assert lost == 0 and xs.shape == (2,)  # two interfaces
        # Both crossings of the curved stack, the second one found along
        # the refracted ray.
        F = residuals(med, p0, Point2(x_end, 70 * MM), xs)
        assert np.max(np.abs(F)) <= 1e-12

    def test_total_reflection_is_a_lost_ray(self):
        dom = (-200 * MM, 200 * MM)
        med = Medium((1480.0, 2200.0), (Constant(30 * MM, dom),), dom)
        xs, x_end, tof, lost = trace(med, Point2(0, 0), 31 * MM, 60 * MM)
        assert LOST_CAUSES[lost - 1] == "total_reflection"
        assert np.isnan(xs).all() and math.isnan(x_end) and math.isnan(tof)

    def test_launch_outside_the_domain_is_a_lost_ray(self):
        dom = (-20 * MM, 20 * MM)
        med = Medium((1480.0, 1540.0), (Constant(30 * MM, dom),), dom)
        ends = np.array([[0.0] * 3, [0.0] * 3, [np.nan] * 3, [60 * MM] * 3])
        _, _, _, lost = trace_rows(med, ends, np.array([-21 * MM, 5 * MM, 21 * MM]))
        assert [LOST_CAUSES[c - 1] if c else None for c in lost] == \
            ["no_intersection", None, "no_intersection"]

    def test_tof_total_is_sum(self):
        med = setting3_medium()
        p0 = Point2(12 * MM, 2 * MM)
        xs, x_end, tof, _ = trace(med, p0, 15 * MM, 70 * MM)
        pts = crossing_points(med, p0, xs, x_end, 70 * MM)
        assert tof == pytest.approx(tof_of_path(med, pts), rel=1e-15)

    def test_recrossing_detection(self):
        # A strongly refracting sine boundary: the transmitted segment can
        # cut back through the interface it just left.
        dom = (0.0, 60 * MM)
        xk = np.linspace(dom[0], dom[1], 121)
        zk = 30 * MM + 8 * MM * np.sin(2 * np.pi * xk / (15 * MM))
        med = Medium((1480.0, 2600.0), (SampledC1(xk, zk, dom),), dom)

        def unique(med, p0, x1, z_stop):
            xs, x_end, _, _ = trace(med, p0, x1, z_stop)
            pts = crossing_points(med, p0, xs, x_end, z_stop)
            return [check_unique_intersection(med, n, a, b).satisfied
                    for n, (a, b) in enumerate(zip(pts[1:], pts[2:]), start=1)]

        assert unique(med, Point2(2 * MM, 2 * MM), 25 * MM, 55 * MM) == [False]
        # A benign geometry reports nothing.
        assert unique(setting3_medium(), Point2(12 * MM, 2 * MM), 15 * MM,
                      70 * MM) == [True, True]


class TestPropagateProperties:
    def test_snell_residual_on_random_media(self, rng):
        for _ in range(20):
            med = random_medium(rng)
            p0, pN = random_endpoints(rng, med)
            lo, hi = med.domain
            x1 = rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))
            xs, x_end, _, lost = trace(med, p0, x1, pN.z)
            if lost:
                continue
            F = residuals(med, p0, Point2(x_end, pN.z), xs)
            assert np.max(np.abs(F)) <= 1e-12

    def test_reversibility(self, rng):
        # Mirror the stack and trace back from the terminal point: the
        # crossings must reproduce in reverse order.
        for _ in range(10):
            med = random_medium(rng, n_layers=3)
            p0, pN = random_endpoints(rng, med)
            lo, hi = med.domain
            x1 = float(rng.uniform(lo + 0.35 * (hi - lo), hi - 0.35 * (hi - lo)))
            xs, x_end, tof, lost = trace(med, p0, x1, pN.z)
            if lost:
                continue
            z_ref = pN.z + p0.z
            back_xs, back_end, back_tof, _ = trace(
                med.flipped(z_ref), Point2(x_end, p0.z), xs[-1], pN.z)
            assert np.max(np.abs(xs - back_xs[::-1])) <= 1e-9
            assert abs(back_end - p0.x) <= 1e-9
            assert back_tof == pytest.approx(tof, rel=1e-12)

    def test_common_speed_scaling_leaves_path_unchanged(self, rng):
        med = random_medium(rng, n_layers=3)
        p0, pN = random_endpoints(rng, med)
        lo, hi = med.domain
        x1 = float(0.5 * (lo + hi))
        xs, x_end, tof, _ = trace(med, p0, x1, pN.z)
        xs2, x_end2, tof2, _ = trace(med.scaled_speeds(2.0), p0, x1, pN.z)
        assert np.max(np.abs(xs - xs2)) <= 1e-12 and abs(x_end - x_end2) <= 1e-12
        assert tof2 == pytest.approx(tof / 2.0, rel=1e-15)
