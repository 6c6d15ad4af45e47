"""Condition checkers, stationarity equivalence, level sets, Fermat oracle."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from goatfocus import analysis
from goatfocus.analysis import (
    _golden_min,
    bracket_scan,
    check_no_total_reflection,
    check_unique_intersection,
    fermat_oracle,
    oval_identity_residual,
    slope_condition_residual,
    tof_gradient,
    tof_level_set,
    tof_two_segment,
    uniqueness_scan,
    _level_slope,
)
from goatfocus.errors import DegenerateDenominatorError
from goatfocus.goatsolve import (
    hmfa_tof,
    initial_guess_straight,
    solve,
    tof_of_path,
)
from goatfocus.medium import Constant, Medium, Point2
from goatfocus.scenario import load

from cases import (
    MM,
    TABLE2_FOCUS,
    TABLE2_SOURCES,
    homogeneous_medium,
    oscillating_medium,
    proxon_medium,
    random_endpoints,
    random_medium,
    setting1_medium,
    setting2_medium,
    setting3_medium,
    table2_setting1_medium,
    total_reflection_medium,
    TOTAL_REFLECTION_FOCUS,
    TOTAL_REFLECTION_SOURCE,
)

SIN45 = math.sin(math.pi / 4)


def flat_two_layer(c1=1480.0, c2=1540.0, depth=30 * MM, dom=(-80 * MM, 80 * MM)):
    return Medium((c1, c2), (Constant(depth, dom),), dom)


class TestNoTotalReflection:
    def test_normal_incidence_margin_one(self):
        med = flat_two_layer()
        pts = [Point2(0, 0), Point2(0, 30 * MM), Point2(0, 60 * MM)]
        (rep,) = check_no_total_reflection(med, pts)
        assert rep.satisfied
        assert rep.margin == pytest.approx(1.0, abs=1e-15)

    def test_45_degree_violation(self):
        med = flat_two_layer(1480.0, 2200.0)
        pts = [Point2(0, 0), Point2(30 * MM, 30 * MM), Point2(60 * MM, 60 * MM)]
        (rep,) = check_no_total_reflection(med, pts)
        assert not rep.satisfied
        assert 1.0 - rep.margin == pytest.approx(1.0512, abs=1e-4)
        assert rep.witness is not None

    def test_never_fires_on_converged_solutions(self):
        for med in (setting1_medium(), setting2_medium(), setting3_medium(),
                    table2_setting1_medium()):
            for p0 in TABLE2_SOURCES:
                sol = solve(med, p0, TABLE2_FOCUS)
                for rep in check_no_total_reflection(med, sol.path.points):
                    assert rep.satisfied


class TestUniqueIntersection:
    def test_flat_boundary_always_unique(self):
        med = flat_two_layer()
        rep = check_unique_intersection(
            med, 1, Point2(0, 30 * MM), Point2(20 * MM, 60 * MM))
        assert rep.satisfied

    def test_vertical_ray_unique(self):
        med = oscillating_medium()
        pn = Point2(6 * MM, med.boundaries[0]._eval(6 * MM))
        rep = check_unique_intersection(med, 1, pn, Point2(6 * MM, 60 * MM))
        assert rep.satisfied

    def test_grazing_ray_recrosses_oscillating_boundary(self):
        med = oscillating_medium()
        b = med.boundaries[0]
        x_n = 6 * MM
        pn = Point2(x_n, b._eval(x_n))
        k = 0.1
        p_next = Point2(25 * MM, pn.z + k * (25 * MM - x_n))
        rep = check_unique_intersection(med, 1, pn, p_next)
        assert not rep.satisfied
        assert rep.witness is not None
        # Verify by explicit second-root search: the ray/boundary gap changes
        # sign strictly inside the interval, so a second crossing exists.
        def gap(x):
            return b._eval(x) - (pn.z + k * (x - x_n))
        a, c = x_n + 0.1 * MM, 25 * MM
        xs = np.linspace(a, c, 4001)
        gaps = np.array([gap(x) for x in xs])
        flip = np.nonzero(np.sign(gaps[:-1]) * np.sign(gaps[1:]) < 0)[0]
        assert flip.size >= 1
        lo, hi = xs[flip[0]], xs[flip[0] + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if gap(lo) * gap(mid) <= 0:
                hi = mid
            else:
                lo = mid
        x_second = 0.5 * (lo + hi)
        assert abs(gap(x_second)) < 1e-9


class TestTofGradient:
    def test_zero_at_converged_solutions(self):
        for med in (setting2_medium(), setting3_medium()):
            sol = solve(med, TABLE2_SOURCES[0], TABLE2_FOCUS)
            g = tof_gradient(med, TABLE2_SOURCES[0], TABLE2_FOCUS,
                             np.array(sol.xs))
            assert np.max(np.abs(g)) <= 1e-9

    def test_matches_finite_differences(self, rng):
        checked = 0
        while checked < 50:
            med = random_medium(rng)
            p0, pN = random_endpoints(rng, med)
            try:
                xs = initial_guess_straight(med, p0, pN)
            except Exception:
                continue
            xs = xs + rng.uniform(-1.5 * MM, 1.5 * MM, size=xs.size)
            h = 1e-6 * med.width

            def chain_tof(v):
                pts = [p0] + [Point2(float(x), float(med.boundaries[i]._eval(x)))
                              for i, x in enumerate(v)] + [pN]
                return tof_of_path(med, pts)

            fd = np.empty(xs.size)
            for j in range(xs.size):
                up, dn = xs.copy(), xs.copy()
                up[j] += h
                dn[j] -= h
                fd[j] = (chain_tof(up) - chain_tof(dn)) / (2 * h)
            grad = tof_gradient(med, p0, pN, xs)
            scale = max(np.max(np.abs(fd)), 1e-12)
            assert np.max(np.abs(grad - fd)) <= 1e-6 * scale
            checked += 1

    def test_homogeneous_chord_gradient_vanishes(self):
        med = homogeneous_medium()
        p0, pN = Point2(-5 * MM, 0), Point2(9 * MM, 38 * MM)
        xs = initial_guess_straight(med, p0, pN)
        assert np.max(np.abs(tof_gradient(med, p0, pN, xs))) <= 1e-15


class TestSlopeCondition:
    def test_zero_at_converged_solution(self):
        med = setting2_medium()
        sol = solve(med, TABLE2_SOURCES[1], TABLE2_FOCUS)
        pts = sol.path.points
        r = slope_condition_residual(med, 1, pts[0], pts[1], pts[2])
        assert abs(r) <= 1e-9

    def test_nonzero_off_solution(self):
        med = setting2_medium()
        sol = solve(med, TABLE2_SOURCES[1], TABLE2_FOCUS)
        pts = sol.path.points
        x_off = pts[1].x + 1 * MM
        p_off = Point2(x_off, med.boundaries[0]._eval(x_off))
        r = slope_condition_residual(med, 1, pts[0], p_off, pts[2])
        assert abs(r) > 1e-6

    def test_symmetric_vertical_case(self):
        # Orthogonal crossing of a flat interface: both lateral offsets are
        # zero, so the condition reduces to the tangent being horizontal.
        med = flat_two_layer()
        r = slope_condition_residual(med, 1, Point2(0, 0), Point2(0, 30 * MM),
                                     Point2(0, 60 * MM))
        assert r == 0.0

    def test_degenerate_denominator_raises(self):
        # Equal speeds and mirror-symmetric segments zero the denominator.
        med = flat_two_layer(1540.0, 1540.0)
        with pytest.raises(DegenerateDenominatorError):
            slope_condition_residual(med, 1, Point2(-10 * MM, 0),
                                     Point2(0, 30 * MM), Point2(10 * MM, 60 * MM))


class TestThreeWayEquivalence:
    def test_snell_gradient_slope_agree_at_solutions(self):
        media = [setting1_medium(), setting2_medium(), setting3_medium(),
                 table2_setting1_medium()]
        for med in media:
            for p0 in TABLE2_SOURCES:
                sol = solve(med, p0, TABLE2_FOCUS)
                assert sol.residual_norm <= 1e-12
                g = tof_gradient(med, p0, TABLE2_FOCUS, np.array(sol.xs))
                assert np.max(np.abs(g)) <= 1e-9
                pts = sol.path.points
                for n in range(1, med.num_layers):
                    r = slope_condition_residual(med, n, pts[n - 1], pts[n],
                                                 pts[n + 1])
                    assert abs(r) <= 1e-9


class TestUniquenessScan:
    def test_flat_two_layer_unique(self):
        med = flat_two_layer()
        rep = uniqueness_scan(med, Point2(0, 0), Point2(20 * MM, 60 * MM))
        assert rep.satisfied
        assert rep.margin == 1.0

    def test_homogeneous_unique(self):
        med = homogeneous_medium()
        rep = uniqueness_scan(med, Point2(-5 * MM, 0), Point2(5 * MM, 35 * MM))
        assert rep.satisfied

    def test_oscillating_boundary_multiple(self):
        med = oscillating_medium()
        rep = uniqueness_scan(med, Point2(20 * MM, 5 * MM),
                              Point2(40 * MM, 55 * MM))
        assert not rep.satisfied
        assert rep.margin > 1
        assert len(rep.witness) == int(rep.margin)

    def test_requires_two_layers(self):
        with pytest.raises(ValueError):
            uniqueness_scan(setting3_medium(), TABLE2_SOURCES[0], TABLE2_FOCUS)


class TestBracketScan:
    def test_settings_have_brackets(self):
        for med in (setting1_medium(), setting3_medium()):
            rep = bracket_scan(med, TABLE2_SOURCES[0], TABLE2_FOCUS)
            assert rep.satisfied

    def test_total_reflection_fixture_reports_skips(self):
        rep = bracket_scan(total_reflection_medium(), TOTAL_REFLECTION_SOURCE,
                           TOTAL_REFLECTION_FOCUS)
        assert not rep.satisfied
        assert rep.witness["skipped"].get("total_reflection", 0) > 0


class TestLevelSet:
    def test_oval_identity(self):
        med = flat_two_layer()
        p0, p2 = Point2(0, 0), Point2(10 * MM, 60 * MM)
        curve = tof_level_set(med, p0, p2, Point2(3 * MM, 28 * MM))
        resid = oval_identity_residual(med, p0, p2, curve)
        assert len(curve.points) > 100
        assert np.max(np.abs(resid)) <= 1e-8

    def test_constant_tof_along_curve(self):
        med = flat_two_layer()
        p0, p2 = Point2(0, 0), Point2(10 * MM, 60 * MM)
        curve = tof_level_set(med, p0, p2, Point2(3 * MM, 28 * MM))
        tofs = np.array([tof_two_segment(med, p0, p2, p) for p in curve.points])
        assert np.max(np.abs(tofs - curve.tof_value)) <= 1e-9 * curve.tof_value

    def test_equal_speeds_give_ellipse(self):
        med = flat_two_layer(1540.0, 1540.0)
        p0, p2 = Point2(0, 0), Point2(10 * MM, 60 * MM)
        curve = tof_level_set(med, p0, p2, Point2(2 * MM, 25 * MM))
        sums = np.array([p.dist(p0) + p.dist(p2) for p in curve.points])
        ref = curve.seed.dist(p0) + curve.seed.dist(p2)
        assert np.max(np.abs(sums - ref)) <= 1e-9

    def test_tangency_at_two_layer_solution(self):
        for med in (flat_two_layer(), setting2_medium()):
            if med.num_layers != 2:
                continue
            if med.domain[0] == 0.0:
                p0, pN = TABLE2_SOURCES[0], TABLE2_FOCUS
            else:
                p0, pN = Point2(0, 0), Point2(20 * MM, 60 * MM)
            sol = solve(med, p0, pN)
            p1 = sol.path.points[1]
            level = _level_slope(med.speeds[0], med.speeds[1], p0, pN, p1.x, p1.z)
            assert abs(level - med.boundaries[0]._slope(p1.x)) <= 1e-8

    def test_each_rk4_substep_evaluates_the_slope_four_times(self,
                                                            monkeypatch):
        # README's example at 64 steps: the stage that sizes a sub-step is
        # also its first RK4 stage.
        scn = load("setting1")
        calls = []

        def counting(*args):
            calls.append(args)
            return _level_slope(*args)

        monkeypatch.setattr(analysis, "_level_slope", counting)
        curve = tof_level_set(scn.medium, scn.sources[0], scn.foci[0],
                              Point2(18 * MM, 30 * MM), arc_steps=64)
        assert len(curve.points) == 35
        assert len(calls) == 1859

    def test_seed_at_an_endpoint_raises(self):
        med = flat_two_layer()
        p0, p2 = Point2(0, 0), Point2(10 * MM, 60 * MM)
        with pytest.raises(DegenerateDenominatorError, match="endpoint"):
            tof_level_set(med, p0, p2, Point2(0, 0.5e-6))


class TestFermatOracle:
    def test_homogeneous_matches_straight_line(self):
        med = homogeneous_medium()
        p0, pN = Point2(-5 * MM, 0), Point2(8 * MM, 33 * MM)
        res = fermat_oracle(med, p0, pN, grid=4096, refine_iters=20)
        assert res.tof == pytest.approx(hmfa_tof(p0, pN, 1540.0), rel=1e-10)

    def test_fermat_beats_straight_path(self):
        med = flat_two_layer()
        p0, pN = Point2(0, 0), Point2(20 * MM, 60 * MM)
        res = fermat_oracle(med, p0, pN, grid=1024, refine_iters=30)
        chord = initial_guess_straight(med, p0, pN)
        pts = [p0, Point2(float(chord[0]), 30 * MM), pN]
        assert res.tof < tof_of_path(med, pts)

    def test_agreement_with_solver_on_settings(self):
        for med in (setting1_medium(), setting2_medium(), setting3_medium()):
            p0, pN = TABLE2_SOURCES[2], TABLE2_FOCUS
            sol = solve(med, p0, pN)
            res = fermat_oracle(med, p0, pN, grid=4096, refine_iters=60)
            assert abs(sol.tof - res.tof) <= 1e-9 * sol.tof

    def test_monotone_in_grid(self):
        med = setting2_medium()
        p0, pN = TABLE2_SOURCES[0], TABLE2_FOCUS
        tofs = [fermat_oracle(med, p0, pN, grid=g, refine_iters=0).tof
                for g in (256, 1024, 4096)]
        assert tofs[1] <= tofs[0] + 1e-12
        assert tofs[2] <= tofs[1] + 1e-12

    def test_slow_layer_crossing_matches_solver(self):
        med = flat_two_layer()
        p0, pN = Point2(0, 0), Point2(20 * MM, 60 * MM)
        sol = solve(med, p0, pN)
        assert 0 < sol.xs[0] < 10 * MM
        res = fermat_oracle(med, p0, pN, grid=4096, refine_iters=60)
        assert abs(sol.tof - res.tof) <= 1e-9 * sol.tof
        assert abs(sol.xs[0] - res.xs[0]) <= 1e-7

    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            fermat_oracle(homogeneous_medium(), Point2(0, 0),
                          Point2(0, 30 * MM), grid=32)

    def test_reported_bound_is_positive_and_conservative(self):
        med = setting1_medium()
        p0, pN = TABLE2_SOURCES[1], TABLE2_FOCUS
        res = fermat_oracle(med, p0, pN, grid=1024, refine_iters=40)
        sol = solve(med, p0, pN)
        assert res.bound > 0
        assert abs(sol.tof - res.tof) <= res.bound


def _reference_dp(medium, p0, pN, grid):
    """The chunked dynamic program the blocked one replaced."""
    lo, hi = medium.domain
    c = medium.speeds
    xg = np.linspace(lo, hi, grid)
    zs = [np.asarray(b._eval(xg), dtype=float) for b in medium.boundaries]
    K = len(zs)
    cost = np.hypot(xg - p0.x, zs[0] - p0.z) / c[0]
    back = []
    chunk = max(1, int(4e6 // grid))
    for i in range(1, K):
        new_cost = np.empty(grid)
        arg = np.empty(grid, dtype=np.int64)
        for s in range(0, grid, chunk):
            e = min(s + chunk, grid)
            d = np.hypot(xg[s:e, None] - xg[None, :],
                         zs[i][s:e, None] - zs[i - 1][None, :]) / c[i]
            tot = d + cost[None, :]
            arg[s:e] = np.argmin(tot, axis=1)
            new_cost[s:e] = tot[np.arange(e - s), arg[s:e]]
        cost = new_cost
        back.append(arg)
    final = cost + np.hypot(pN.x - xg, pN.z - zs[-1]) / c[K]
    j = int(np.argmin(final))
    idx = [j]
    for arg in reversed(back):
        idx.append(int(arg[idx[-1]]))
    idx.reverse()
    return [float(xg[i]) for i in idx]


def _reference_oracle(medium, p0, pN, grid, refine_iters):
    """The Fermat oracle as it was before blocked DP and cached segments:
    every refinement trial rebuilds the whole chain.  Valid for a focus
    below the last interface."""
    lo, hi = medium.domain
    c = medium.speeds
    bounds = medium.boundaries
    xs = _reference_dp(medium, p0, pN, grid)
    spacing = (hi - lo) / (grid - 1)
    K = len(xs)

    def chain_tof(xvec):
        X = [p0.x] + list(xvec) + [pN.x]
        Z = [p0.z] + [bounds[i]._eval(xvec[i]) for i in range(K)] + [pN.z]
        return sum(math.hypot(X[i + 1] - X[i], Z[i + 1] - Z[i]) / c[i]
                   for i in range(K + 1))

    for _ in range(refine_iters):
        for i in range(K):
            a = max(lo, xs[i] - 2 * spacing)
            b = min(hi, xs[i] + 2 * spacing)

            def f(x, i=i):
                trial = xs.copy()
                trial[i] = x
                return chain_tof(trial)

            xs[i] = _golden_min(f, a, b)
    tof = chain_tof(xs)
    curv = 0.0
    for i in range(K):
        hh = max(spacing * 1e-3, 1e-9)
        up, dn = xs.copy(), xs.copy()
        up[i] += hh
        dn[i] -= hh
        curv = max(curv, abs(chain_tof(up) + chain_tof(dn) - 2 * tof) / hh**2)
    return tof, tuple(xs), spacing**2 * curv


def _oracle_cases():
    rng = np.random.default_rng(16)
    cases = [(setting3_medium(), TABLE2_SOURCES[0], TABLE2_FOCUS),
             (oscillating_medium(), Point2(10 * MM, 5 * MM),
              Point2(45 * MM, 50 * MM)),
             (proxon_medium(), Point2(-3 * MM, 0.0), Point2(4 * MM, 25 * MM))]
    for n_layers in (3, 4):
        med = random_medium(rng, n_layers=n_layers)
        cases.append((med, *random_endpoints(rng, med)))
    return cases


class TestFermatOracleBlocks:
    GRID = 512  # 512 = 73 * 7 + 1: the last block of 7 rows holds one

    def test_bit_identical_to_reference_at_any_worker_count(self):
        switch = sys.getswitchinterval()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_DP_BLOCK", 7 * self.GRID)
            try:
                sys.setswitchinterval(1e-6)
                for med, p0, pN in _oracle_cases():
                    want = _reference_oracle(med, p0, pN, self.GRID, 60)
                    for workers in (1, 2, 3):
                        res = fermat_oracle(med, p0, pN, grid=self.GRID,
                                            refine_iters=60, workers=workers)
                        assert (res.tof, res.xs, res.bound) == want
            finally:
                sys.setswitchinterval(switch)

    def test_memory_bounded_at_full_grid(self):
        # The chunked DP held about 150 MB of (rows, grid) temporaries here.
        med = setting3_medium()
        tracemalloc.start()
        try:
            fermat_oracle(med, TABLE2_SOURCES[0], TABLE2_FOCUS, grid=4096,
                          refine_iters=1, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_first_layer_focus_is_the_straight_ray(self):
        med = setting3_medium()
        p0, pN = Point2(20 * MM, 0.0), Point2(18 * MM, 20 * MM)
        res = fermat_oracle(med, p0, pN, grid=256)
        assert res.tof == p0.dist(pN) / med.speeds[0]
        assert res.xs == ()
        assert res.bound == 0.0

    def test_middle_layer_focus_crosses_only_the_interfaces_above(self):
        med = setting3_medium()
        p0, pN = Point2(20 * MM, 0.0), Point2(18 * MM, 35.5 * MM)
        assert med.layer_of(pN) == 2
        res = fermat_oracle(med, p0, pN, grid=256)
        assert len(res.xs) == 1
        assert res == fermat_oracle(med.truncated(2), p0, pN, grid=256)
        sol = solve(med, p0, pN)
        assert abs(sol.tof - res.tof) <= max(res.bound, 1e-9 * sol.tof)
