"""Forward propagation: angle measurement, refraction, intersections, paths."""

import math

import numpy as np
import pytest

from goatfocus.errors import (
    DegenerateSegmentError,
    NoIntersectionError,
    TotalReflectionError,
)
from goatfocus.medium import Constant, Ellipse, Medium, Point2
from goatfocus.raytrace import (
    RaySegmentState,
    intersect_next,
    next_direction,
    propagate,
    refract,
    sin_incidence,
)

from cases import (
    MM,
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


class TestSinIncidence:
    def test_normal_incidence_flat(self):
        assert sin_incidence(Point2(0, 0), Point2(0, 30 * MM), 0.0) == 0.0

    def test_45_degrees_flat(self):
        got = sin_incidence(Point2(0, 0), Point2(30 * MM, 30 * MM), 0.0)
        assert got == pytest.approx(0.7071067811865476, abs=1e-15)

    def test_against_vector_angle_oracle(self, rng):
        for _ in range(200):
            p_prev = Point2(rng.uniform(-1, 1) * MM, 0.0)
            p = Point2(rng.uniform(-20, 20) * MM, rng.uniform(5, 40) * MM)
            tan_alpha = rng.uniform(-1.5, 1.5)
            got = sin_incidence(p_prev, p, tan_alpha)
            assert got == pytest.approx(angle_oracle(p_prev, p, tan_alpha),
                                        abs=1e-12)

    def test_specific_tilted_case(self):
        p_prev, p, tan_alpha = Point2(0, 0), Point2(10 * MM, 30 * MM), 0.2
        assert sin_incidence(p_prev, p, tan_alpha) == pytest.approx(
            angle_oracle(p_prev, p, tan_alpha), abs=1e-12)

    def test_degenerate_segment(self):
        with pytest.raises(DegenerateSegmentError):
            sin_incidence(Point2(0, 0), Point2(0, 1e-13), 0.0)


class TestRefract:
    def test_slow_to_fast(self):
        assert refract(0.5, 1480.0, 1540.0) == pytest.approx(
            0.5202702702702703, abs=1e-16)

    def test_normal_incidence(self):
        assert refract(0.0, 1480.0, 2200.0) == 0.0

    def test_total_reflection(self):
        with pytest.raises(TotalReflectionError) as exc:
            refract(SIN45, 1480.0, 2200.0)
        assert exc.value.ratio == pytest.approx(1.0512, abs=1e-4)

    def test_grazing_counts_as_reflection(self):
        with pytest.raises(TotalReflectionError):
            refract(1.0 - 1e-13, 1000.0, 1000.0)


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
        # Re-measuring the sine of the produced direction against the
        # boundary normal must return the input.
        for _ in range(200):
            tan_alpha = rng.uniform(-1.5, 1.5)
            s = rng.uniform(-0.99, 0.99)
            d = next_direction(tan_alpha, s)
            assert math.hypot(*d) == pytest.approx(1.0, abs=1e-12)
            p = Point2(d[0], d[1])
            assert sin_incidence(Point2(0, 0), p, tan_alpha) == pytest.approx(
                s, abs=1e-12)

    def test_specific_case(self):
        d = next_direction(0.3, 0.2)
        assert sin_incidence(Point2(0, 0), Point2(*d), 0.3) == pytest.approx(
            0.2, abs=1e-12)


class TestIntersectNext:
    def test_flat_crossings_match_the_flat_formula(self, rng):
        # Constant is Linear at slope 0; its crossing must still be at
        # t = (d - oz) / dz, for rays from negative x and horizontal rays.
        dom = (-40 * MM, 40 * MM)
        d = 30 * MM
        med = Medium((1500.0, 1600.0), (Constant(d, dom),), dom)
        hits = 0
        for k in range(300):
            o = Point2(rng.uniform(-40 * MM, 40 * MM), rng.uniform(0.0, 29 * MM))
            a = rng.uniform(-math.pi, math.pi)
            state = RaySegmentState(o, (math.sin(a), math.cos(a)) if k % 10
                                    else ((-1.0) ** (k // 10), 0.0), 1)
            dx, dz = state.direction
            t = (d - o.z) / dz if abs(dz) >= 1e-300 else -1.0
            x = o.x + t * dx
            if t > 0.0 and -40 * MM - 1e-12 <= x <= 40 * MM + 1e-12:
                p = intersect_next(state, med)
                assert (p.x, p.z) == (x, o.z + t * dz)
                hits += 1
            else:
                with pytest.raises(NoIntersectionError):
                    intersect_next(state, med)
        assert 50 < hits < 250

    def test_vertical_onto_flat(self):
        med = Medium((1500.0, 1500.0), (Constant(30 * MM, (-40 * MM, 40 * MM)),),
                     (-40 * MM, 40 * MM))
        p = intersect_next(RaySegmentState(Point2(0, 0), (0, 1), 1), med)
        assert (p.x, p.z) == (0.0, 30 * MM)

    def test_diagonal_onto_flat(self):
        med = Medium((1500.0, 1500.0), (Constant(30 * MM, (-40 * MM, 40 * MM)),),
                     (-40 * MM, 40 * MM))
        p = intersect_next(RaySegmentState(Point2(0, 0), (SIN45, SIN45), 1), med)
        assert p.x == pytest.approx(30 * MM, abs=1e-15)
        assert p.z == pytest.approx(30 * MM, abs=1e-15)

    def test_onto_ellipse_satisfies_both_equations(self):
        dom = (0.0, 36.45 * MM)
        curve = Ellipse(50 * MM, 35 * MM, Point2(18.225 * MM, 0.0), +1, dom)
        med = Medium((1540.0, 1540.0), (curve,), dom)
        d = (0.3, math.sqrt(1 - 0.09))
        state = RaySegmentState(Point2(10 * MM, 0.0), d, 1)
        p = intersect_next(state, med)
        # On the ray:
        t = (p.z - 0.0) / d[1]
        assert abs(10 * MM + t * d[0] - p.x) <= 1e-10
        # On the ellipse:
        xt = (p.x - curve.center.x) / curve.a
        zt = (p.z - curve.center.z) / curve.b
        assert abs(math.hypot(xt, zt) - 1.0) * curve.b <= 1e-10

    def test_z_stop_line(self):
        med = Medium((1500.0, 1500.0), (Constant(30 * MM, (-40 * MM, 40 * MM)),),
                     (-40 * MM, 40 * MM))
        state = RaySegmentState(Point2(0, 30 * MM), (0.6, 0.8), 2)
        p = intersect_next(state, med, z_stop=70 * MM)
        assert p.z == pytest.approx(70 * MM, abs=1e-15)
        assert p.x == pytest.approx(30 * MM, abs=1e-12)

    def test_exits_domain(self):
        med = Medium((1500.0, 1500.0), (Constant(30 * MM, (-5 * MM, 5 * MM)),),
                     (-5 * MM, 5 * MM))
        state = RaySegmentState(Point2(0, 0), (SIN45, SIN45), 1)
        with pytest.raises(NoIntersectionError):
            intersect_next(state, med)


class TestPropagate:
    def test_homogeneous_is_collinear(self):
        dom = (-40 * MM, 40 * MM)
        med = Medium((1540.0, 1540.0), (Constant(30 * MM, dom),), dom)
        path = propagate(med, Point2(0, 0), 5 * MM, 60 * MM)
        p1, pend = path.points[1], path.points[-1]
        # Terminal collinear with launch point and first crossing.
        cross = abs(p1.x * pend.z - pend.x * p1.z)
        assert cross / math.hypot(pend.x, pend.z) <= 1e-12

    def test_bends_away_from_normal_into_faster_layer(self):
        dom = (-80 * MM, 80 * MM)
        med = Medium((1480.0, 1540.0), (Constant(30 * MM, dom),), dom)
        path = propagate(med, Point2(0, 0), 10 * MM, 60 * MM)
        straight_x = 20 * MM  # straight-line extrapolation to z = 60 mm
        assert path.points[-1].x > straight_x

    def test_annulus_crossings_satisfy_snell(self):
        med = setting3_medium()
        path = propagate(med, Point2(10 * MM, 2 * MM), 14 * MM, 70 * MM)
        assert len(path.points) == 4  # launch, two interfaces, terminal
        c = med.speeds
        for n in range(2):
            resid = abs(c[n + 1] * math.sin(path.incidence_angles[n])
                        - c[n] * math.sin(path.refraction_angles[n]))
            assert resid <= 1e-12 * max(c)

    def test_total_reflection_carries_boundary_index(self):
        dom = (-200 * MM, 200 * MM)
        med = Medium((1480.0, 2200.0), (Constant(30 * MM, dom),), dom)
        with pytest.raises(TotalReflectionError) as exc:
            propagate(med, Point2(0, 0), 31 * MM, 60 * MM)
        assert exc.value.boundary_index == 1

    def test_tof_total_is_sum(self):
        med = setting3_medium()
        path = propagate(med, Point2(12 * MM, 2 * MM), 15 * MM, 70 * MM)
        assert path.tof_total == sum(path.tof_per_layer)
        assert len(path.points) == len(path.incidence_angles) + 2

    def test_recrossing_detection(self):
        # A strongly refracting sine boundary: the transmitted segment can
        # cut back through the interface it just left.
        dom = (0.0, 60 * MM)
        xk = np.linspace(dom[0], dom[1], 121)
        zk = 30 * MM + 8 * MM * np.sin(2 * np.pi * xk / (15 * MM))
        from goatfocus.medium import SampledC1
        med = Medium((1480.0, 2600.0), (SampledC1(xk, zk, dom),), dom)
        p0 = Point2(2 * MM, 2 * MM)
        path = propagate(med, p0, 25 * MM, 55 * MM, check_unique=True)
        assert path.recrossed_boundaries == (1,)
        # A benign geometry reports nothing.
        clean = propagate(setting3_medium(), Point2(12 * MM, 2 * MM), 15 * MM,
                          70 * MM, check_unique=True)
        assert clean.recrossed_boundaries == ()


class TestPropagateProperties:
    def test_snell_residual_on_random_media(self, rng):
        for _ in range(20):
            med = random_medium(rng)
            p0, pN = random_endpoints(rng, med)
            lo, hi = med.domain
            x1 = rng.uniform(lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo))
            try:
                path = propagate(med, p0, float(x1), pN.z)
            except (TotalReflectionError, NoIntersectionError):
                continue
            c = med.speeds
            for n in range(len(path.incidence_angles)):
                resid = abs(c[n + 1] * math.sin(path.incidence_angles[n])
                            - c[n] * math.sin(path.refraction_angles[n]))
                assert resid <= 1e-12 * max(c)

    def test_reversibility(self, rng):
        # Mirror the stack and propagate back from the terminal point: the
        # crossings must reproduce in reverse order.
        for _ in range(10):
            med = random_medium(rng, n_layers=3)
            p0, pN = random_endpoints(rng, med)
            lo, hi = med.domain
            x1 = float(rng.uniform(lo + 0.35 * (hi - lo), hi - 0.35 * (hi - lo)))
            try:
                path = propagate(med, p0, x1, pN.z)
            except (TotalReflectionError, NoIntersectionError):
                continue
            z_ref = path.points[-1].z + p0.z
            flipped = med.flipped(z_ref)
            term = path.points[-1]
            back = propagate(flipped, Point2(term.x, z_ref - term.z),
                             path.points[-2].x, z_ref - p0.z)
            fwd = list(path.points)
            rev = [Point2(q.x, z_ref - q.z) for q in back.points][::-1]
            for a, b in zip(fwd, rev):
                assert a.dist(b) <= 1e-9
            assert back.tof_total == pytest.approx(path.tof_total, rel=1e-12)

    def test_common_speed_scaling_leaves_path_unchanged(self, rng):
        med = random_medium(rng, n_layers=3)
        p0, pN = random_endpoints(rng, med)
        lo, hi = med.domain
        x1 = float(0.5 * (lo + hi))
        path = propagate(med, p0, x1, pN.z)
        path2 = propagate(med.scaled_speeds(2.0), p0, x1, pN.z)
        for a, b in zip(path.points, path2.points):
            assert a.dist(b) <= 1e-12
        assert path2.tof_total == pytest.approx(path.tof_total / 2.0, rel=1e-15)
