"""Boundary curves, medium validation, and the slope finite-difference oracle."""

import numpy as np
import pytest

from goatfocus.errors import DomainError, SingularSlopeError
from goatfocus.medium import (
    Constant,
    Ellipse,
    Linear,
    Medium,
    Point2,
    SampledC1,
    boundary_curvature,
    boundary_eval,
    boundary_slope,
    validate_medium,
)

from cases import MM, oscillating_medium, setting2_medium, setting3_medium


def central_diff(curve, x, h):
    return (curve._eval(x + h) - curve._eval(x - h)) / (2 * h)


def all_curve_kinds():
    dom = (0.0, 60 * MM)
    xk = np.linspace(dom[0], dom[1], 61)
    zk = 30 * MM + 5 * MM * np.sin(2 * np.pi * xk / (40 * MM))
    return [
        Constant(30 * MM, dom),
        Linear(0.4, 10 * MM, dom),
        Ellipse(80 * MM, 50 * MM, Point2(30 * MM, 0.0), +1, dom),
        Ellipse(80 * MM, 50 * MM, Point2(30 * MM, 90 * MM), -1, dom),
        SampledC1(xk, zk, dom),
    ]


class TestBoundaryEval:
    def test_constant(self):
        assert boundary_eval(Constant(30 * MM, (0, 60 * MM)), 7 * MM) == 30 * MM

    def test_ellipse_apex(self):
        curve = Ellipse(70 * MM, 50 * MM, Point2(0.0, 0.0), +1, (-60 * MM, 60 * MM))
        assert boundary_eval(curve, 0.0) == pytest.approx(50 * MM, abs=1e-15)

    def test_linear(self):
        assert boundary_eval(Linear(0.5, 10 * MM, (0, 60 * MM)), 20 * MM) == \
            pytest.approx(20 * MM, abs=1e-18)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            boundary_eval(Constant(30 * MM, (0, 60 * MM)), 61 * MM)


class TestConstantIsLinear:
    def test_slope_zero_subclass_with_its_own_transforms(self):
        dom = (-5 * MM, 40 * MM)
        c = Constant(30 * MM, dom)
        assert isinstance(c, Linear) and (c.k, c.d, c.domain) == (0.0, 30 * MM, dom)
        assert not {"_eval", "_slope", "_curvature"} & set(vars(Constant))
        assert c.translated(2 * MM) == Constant(30 * MM, (dom[0] + 2 * MM,
                                                          dom[1] + 2 * MM))
        assert c.flipped(50 * MM) == Constant(50 * MM - 30 * MM, dom)

    def test_evaluates_as_the_flat_formula(self, rng):
        c = Constant(30 * MM, (-40 * MM, 40 * MM))
        x = np.concatenate((rng.uniform(-40 * MM, 40 * MM, 200), [0.0, -0.0]))
        assert c._eval(x).tobytes() == np.full_like(x, 30 * MM).tobytes()
        assert c._slope(x).tobytes() == np.zeros_like(x).tobytes()
        assert c._curvature(x).tobytes() == np.zeros_like(x).tobytes()
        assert c._eval(-3 * MM) == 30 * MM and c._slope(-3 * MM) == 0.0


class TestBoundarySlope:
    def test_ellipse_apex_is_flat(self):
        curve = Ellipse(70 * MM, 50 * MM, Point2(0.0, 0.0), +1, (-60 * MM, 60 * MM))
        assert boundary_slope(curve, 0.0) == 0.0

    def test_linear(self):
        assert boundary_slope(Linear(0.5, 10 * MM, (0, 60 * MM)), 13 * MM) == 0.5

    def test_sampled_matches_finite_difference(self, rng):
        dom = (0.0, 60 * MM)
        xk = np.linspace(dom[0], dom[1], 81)
        zk = 30 * MM + 6 * MM * np.sin(2 * np.pi * xk / (37 * MM))
        curve = SampledC1(xk, zk, dom)
        h = 1e-6 * (dom[1] - dom[0])
        for x in rng.uniform(dom[0] + 2 * h, dom[1] - 2 * h, size=100):
            fd = central_diff(curve, x, h)
            assert boundary_slope(curve, x) == pytest.approx(fd, rel=1e-6)

    def test_singular_ellipse_edge(self):
        curve = Ellipse(10 * MM, 5 * MM, Point2(0.0, 0.0), +1, (-20 * MM, 20 * MM))
        with pytest.raises(SingularSlopeError):
            boundary_slope(curve, 10 * MM)

    def test_all_kinds_match_finite_difference(self, rng):
        for curve in all_curve_kinds():
            lo, hi = curve.domain
            h = 1e-6 * (hi - lo)
            for x in rng.uniform(lo + 2 * h, hi - 2 * h, size=100):
                fd = central_diff(curve, x, h)
                got = boundary_slope(curve, x)
                assert got == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_curvature_matches_finite_difference(self, rng):
        for curve in all_curve_kinds():
            lo, hi = curve.domain
            h = 2e-5 * (hi - lo)
            for x in rng.uniform(lo + 2 * h, hi - 2 * h, size=30):
                fd = (curve._slope(x + h) - curve._slope(x - h)) / (2 * h)
                got = boundary_curvature(curve, x)
                assert got == pytest.approx(fd, rel=2e-5, abs=1e-7)


class TestSampledC1:
    def test_reproduces_samples_exactly(self):
        xk = np.linspace(0.0, 50 * MM, 41)
        zk = 20 * MM + 3 * MM * np.cos(xk / (7 * MM))
        curve = SampledC1(xk, zk)
        assert np.max(np.abs(curve._eval(xk) - zk)) < 1e-15

    def test_c1_at_knots(self):
        # One-sided derivatives from the polynomial pieces on either side of
        # every interior knot must agree.
        xk = np.linspace(0.0, 50 * MM, 41)
        zk = 20 * MM + 3 * MM * np.cos(xk / (7 * MM))
        curve = SampledC1(xk, zk)
        for i, x in enumerate(xk[1:-1], start=1):
            left = np.polyval(np.polyder(curve._coef[:, i - 1]), x - xk[i - 1])
            right = np.polyval(np.polyder(curve._coef[:, i]), 0.0)
            assert abs(left - right) <= 1e-10 * max(1.0, abs(left))

    def test_requires_increasing_samples(self):
        with pytest.raises(ValueError):
            SampledC1([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0])

    @pytest.mark.parametrize("transform", ["none", "translated", "flipped"])
    def test_matches_scipy_natural_spline(self, transform):
        # Value, slope and curvature agree with scipy's natural CubicSpline
        # on the oscillating knots, inside them and up to 1 % of the span
        # outside them (where both extend the end pieces).
        interpolate = pytest.importorskip("scipy.interpolate")
        curve = oscillating_medium().boundaries[0]
        if transform == "translated":
            curve = curve.translated(7 * MM)
        elif transform == "flipped":
            curve = curve.flipped(70 * MM)
        xk, zk = curve.x_samples, curve.z_samples
        ref = interpolate.CubicSpline(xk, zk, bc_type="natural")
        pad = 0.01 * (xk[-1] - xk[0])
        x = np.linspace(xk[0] - pad, xk[-1] + pad, 4001)
        for k, got in enumerate((curve._eval(x), curve._slope(x),
                                 curve._curvature(x))):
            want = ref(x, k)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_scalar_input_returns_float(self):
        curve = oscillating_medium().boundaries[0]
        for f in (curve._eval, curve._slope, curve._curvature):
            assert type(f(13 * MM)) is float


class TestEllipseIdentity:
    def test_implicit_equation(self, rng):
        curve = Ellipse(70 * MM, 50 * MM, Point2(10 * MM, 5 * MM), +1,
                        (-50 * MM, 60 * MM))
        for x in rng.uniform(-50 * MM, 60 * MM, size=200):
            z = boundary_eval(curve, x)
            xt = (x - curve.center.x) / curve.a
            zt = (z - curve.center.z) / curve.b
            assert abs(xt * xt + zt * zt - 1.0) <= 1e-12

    def test_slope_identity_against_implicit_derivative(self, rng):
        # Differentiating the implicit equation gives b' = -(b^2/a^2) x~/z~.
        curve = Ellipse(70 * MM, 50 * MM, Point2(0.0, 0.0), +1, (-60 * MM, 60 * MM))
        for x in rng.uniform(-55 * MM, 55 * MM, size=50):
            z = boundary_eval(curve, x)
            expected = -(curve.b**2 / curve.a**2) * x / z
            assert boundary_slope(curve, x) == pytest.approx(expected, rel=1e-12)


class TestValidateMedium:
    def test_valid_two_layer(self):
        med = Medium((1480.0, 1540.0), (Constant(30 * MM, (0, 40 * MM)),),
                     (0, 40 * MM))
        assert validate_medium(med).ok

    def test_inverted_ordering(self):
        dom = (0, 40 * MM)
        med = Medium((1480.0, 1540.0, 1600.0),
                     (Constant(30 * MM, dom), Constant(20 * MM, dom)), dom)
        rep = validate_medium(med)
        assert not rep.ok
        assert any("boundary 2" in v for v in rep.violations)

    def test_ellipse_domain_violation(self):
        dom = (-80 * MM, 80 * MM)
        med = Medium((1480.0, 1540.0),
                     (Ellipse(70 * MM, 50 * MM, Point2(0, 0), +1, dom),), dom)
        rep = validate_medium(med)
        assert not rep.ok
        assert any("singular" in v for v in rep.violations)

    def test_boundary_touching_array_plane_rejected(self):
        dom = (-60 * MM, 60 * MM)
        med = Medium((1480.0, 1540.0),
                     (Ellipse(50 * MM, 35 * MM, Point2(0, 0), +1, dom),), dom)
        rep = validate_medium(med)
        assert not rep.ok

    def test_nonpositive_speed(self):
        med = Medium((0.0, 1540.0), (Constant(30 * MM, (0, 40 * MM)),), (0, 40 * MM))
        assert not validate_medium(med).ok

    def test_first_boundary_at_or_above_array_plane_rejected(self):
        for depth in (0.0, -1 * MM):
            med = Medium((1480.0, 1540.0), (Constant(depth, (0, 40 * MM)),),
                         (0, 40 * MM))
            rep = validate_medium(med)
            assert not rep.ok
            assert any("array plane" in v for v in rep.violations)

    def test_setting_fixture_media_are_valid(self):
        assert validate_medium(setting2_medium()).ok


class TestMediumHelpers:
    def test_flip_roundtrip_geometry(self):
        med = setting2_medium()
        z_ref = 80 * MM
        flipped = med.flipped(z_ref)
        x = 12 * MM
        assert flipped.boundaries[0]._eval(x) == pytest.approx(
            z_ref - med.boundaries[0]._eval(x), abs=1e-18)
        assert flipped.speeds == med.speeds[::-1]

    def test_translation_moves_curves(self):
        med = setting2_medium()
        dx = 5 * MM
        moved = med.translated(dx)
        assert moved.boundaries[0]._eval(20 * MM + dx) == pytest.approx(
            med.boundaries[0]._eval(20 * MM), abs=1e-18)

    def test_layer_of(self):
        med = Medium((1480.0, 1540.0), (Constant(30 * MM, (0, 40 * MM)),),
                     (0, 40 * MM))
        assert med.layer_of(Point2(5 * MM, 10 * MM)) == 1
        assert med.layer_of(Point2(5 * MM, 31 * MM)) == 2
        assert med.layer_of(Point2(5 * MM, 30 * MM)) == 1


class TestCrossings:
    """Each boundary kind's line crossings against a sampling of the line
    every 2.4 um: the same count, and the first crossing inside the first
    sampled step that changes sign."""

    STEP = 2.4e-6

    @staticmethod
    def sampled(curve, ox, oz, ux, uz, t_end):
        m = int(np.ceil(t_end * np.hypot(ux, uz) / TestCrossings.STEP))
        t = np.linspace(0.0, t_end, m + 1)
        g = curve._eval(ox + t * ux) - (oz + t * uz)
        flips = np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:]))
        return flips.size, (t[flips[0]] if flips.size else np.nan), t[1]

    @staticmethod
    def curves():
        ellipses = setting3_medium().boundaries + setting2_medium().boundaries
        return [oscillating_medium().boundaries[0], all_curve_kinds()[-1],
                *ellipses, setting2_medium().flipped(80 * MM).boundaries[0]]

    @staticmethod
    def ray_end(curve, ox, oz, ux, uz):
        """Where a downward ray leaves the region the curve can reach: the
        domain of a spline, the bounding box of an ellipse."""
        if isinstance(curve, Ellipse):
            c = curve.center
            (lo, hi), z_hi = (c.x - curve.a, c.x + curve.a), c.z + curve.b
        else:
            (lo, hi), z_hi = curve.domain, np.max(curve.z_samples) + MM
        x_end = (hi - ox) / ux if ux > 0 else (lo - ox) / ux if ux < 0 else np.inf
        return min(x_end, (z_hi - oz) / uz)

    @pytest.mark.parametrize("kind", ["chords", "rays"])
    def test_count_and_first_crossing_match_a_sampled_line(self, rng, kind):
        multiple = 0
        for curve in self.curves():
            lo, hi = curve.domain
            n = 60
            ox, oz = rng.uniform(lo, hi, n), rng.uniform(0.0, 5 * MM, n)
            if kind == "chords":
                ux = rng.uniform(lo, hi, n) - ox
                uz = rng.uniform(10 * MM, 80 * MM, n) - oz
                t_hi, t_end = 1.0, np.ones(n)
            else:
                a = rng.uniform(-1.2, 1.2, n)
                ux, uz = np.sin(a), np.cos(a)
                t_hi = np.inf
                t_end = [self.ray_end(curve, *line) for line in zip(ox, oz, ux, uz)]
            t, count = curve._crossings(ox, oz, ux, uz, t_hi)
            for i in range(n):
                want, t_ref, dt = self.sampled(curve, ox[i], oz[i], ux[i], uz[i],
                                               t_end[i])
                assert count[i] == want
                if want:
                    assert t_ref <= t[i] <= t_ref + dt
                else:
                    assert np.isnan(t[i])
            multiple += np.sum(count > 1)
        assert multiple > 0
