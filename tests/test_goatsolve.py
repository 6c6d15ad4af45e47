"""Reduced-system residuals, analytic Jacobian vs finite differences, the
Newton and shooting solvers, and straight-ray baselines."""

import math

import numpy as np
import pytest

from goatfocus.errors import (
    DegenerateSegmentError,
    NoBracketError,
    NoIntersectionError,
    NonConvergenceError,
    TotalReflectionError,
)
from goatfocus import goatsolve
from goatfocus.medium import Constant, Medium, Point2
from goatfocus.goatsolve import (
    GoatSolution,
    SolverOptions,
    _chord_rows,
    _ends,
    hmfa_tof,
    initial_guess_straight,
    residual_jacobian,
    residuals,
    solve,
    solve_newton,
    solve_rows,
    solve_shooting,
    tof_of_path,
)
from goatfocus.raytrace import LOST_CAUSES
from goatfocus.scenario import load

from cases import (
    MM,
    TABLE2_FOCUS,
    TABLE2_SOURCES,
    homogeneous_medium,
    random_endpoints,
    random_medium,
    setting2_medium,
    setting3_medium,
    table2_setting1_medium,
    total_reflection_medium,
    TOTAL_REFLECTION_FOCUS,
    TOTAL_REFLECTION_SOURCE,
)


def flat_two_layer(c1=1480.0, c2=1540.0, depth=30 * MM, dom=(-80 * MM, 80 * MM)):
    return Medium((c1, c2), (Constant(depth, dom),), dom)


def fd_residuals(medium, p0, pN, xs, h):
    xs = np.asarray(xs, dtype=float)
    K = xs.size
    J = np.zeros((K, K))
    for j in range(K):
        xp, xm = xs.copy(), xs.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (residuals(medium, p0, pN, xp)
                   - residuals(medium, p0, pN, xm)) / (2 * h)
    return J


class TestResiduals:
    def test_homogeneous_chord_is_exact(self):
        med = homogeneous_medium()
        p0, pN = Point2(-5 * MM, 0.0), Point2(8 * MM, 40 * MM)
        xs = initial_guess_straight(med, p0, pN)
        assert np.max(np.abs(residuals(med, p0, pN, xs))) <= 1e-14

    def test_sign_at_straight_guess(self):
        # Slow layer above fast: at the chord crossing the transmitted-side
        # term underweights, leaving a positive residual -- the crossing must
        # move toward the source to shorten the slow segment.
        med = flat_two_layer()
        p0, pN = Point2(0, 0), Point2(20 * MM, 60 * MM)
        xs = initial_guess_straight(med, p0, pN)
        F = residuals(med, p0, pN, xs)
        assert F[0] > 0

    def test_converged_solution_has_tiny_residuals(self):
        med = flat_two_layer()
        sol = solve_newton(med, Point2(0, 0), Point2(20 * MM, 60 * MM))
        assert np.max(np.abs(residuals(med, Point2(0, 0), Point2(20 * MM, 60 * MM),
                                       np.array(sol.xs)))) <= 1e-12

    def test_degenerate_segment(self):
        med = flat_two_layer()
        with pytest.raises(DegenerateSegmentError):
            residuals(med, Point2(0, 30 * MM - 1e-15), Point2(0, 60 * MM), [0.0])


class TestResidualJacobian:
    def test_matches_finite_differences_random(self, rng):
        checked = 0
        while checked < 50:
            med = random_medium(rng)
            p0, pN = random_endpoints(rng, med)
            try:
                xs = initial_guess_straight(med, p0, pN)
            except Exception:
                continue
            xs = xs + rng.uniform(-1 * MM, 1 * MM, size=xs.size)
            h = 1e-7 * med.width
            try:
                fd = fd_residuals(med, p0, pN, xs, h)
            except Exception:
                continue
            sub, diag, sup = residual_jacobian(med, p0, pN, xs)
            K = xs.size
            J = np.diag(diag)
            if K > 1:
                J += np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
            scale = np.max(np.abs(fd))
            assert np.max(np.abs(J - fd)) <= 1e-6 * scale
            checked += 1

    def test_two_layer_scalar_derivative(self, rng):
        med = flat_two_layer()
        p0, pN = Point2(0, 0), Point2(20 * MM, 60 * MM)
        xs = np.array([7 * MM])
        h = 1e-7 * med.width
        fd = fd_residuals(med, p0, pN, xs, h)
        _, diag, _ = residual_jacobian(med, p0, pN, xs)
        assert diag.shape == (1,)
        assert diag[0] == pytest.approx(fd[0, 0], rel=1e-6)

    def test_diagonal_dominance_on_flat_stacks(self, rng):
        # The residual is a speed-scaled travel-time gradient, so convexity
        # of the travel time makes the diagonal positive and (weakly)
        # dominant on flat-boundary stacks; rows coupled to the fixed
        # endpoints are strictly dominant.
        for _ in range(20):
            med = random_medium(rng, kinds=("constant",))
            p0, pN = random_endpoints(rng, med)
            xs = initial_guess_straight(med, p0, pN)
            sub, diag, sup = residual_jacobian(med, p0, pN, xs)
            assert np.all(diag > 0)
            K = xs.size
            for i in range(K):
                off = (abs(sub[i]) if i > 0 else 0.0) + \
                      (abs(sup[i]) if i < K - 1 else 0.0)
                assert diag[i] >= off * (1.0 - 1e-12)
                if i in (0, K - 1):
                    assert diag[i] > off


class TestInitialGuess:
    def test_vertical_chord(self):
        med = flat_two_layer()
        xs = initial_guess_straight(med, Point2(0, 0), Point2(0, 60 * MM))
        assert xs[0] == 0.0

    def test_linear_interpolation(self):
        med = flat_two_layer()
        xs = initial_guess_straight(med, Point2(0, 0), Point2(20 * MM, 60 * MM))
        assert xs[0] == pytest.approx(10 * MM, abs=1e-15)

    def test_ellipse_crossing_on_chord_and_curve(self):
        med = setting2_medium()
        p0, pN = TABLE2_SOURCES[0], TABLE2_FOCUS
        xs = initial_guess_straight(med, p0, pN)
        x1 = xs[0]
        curve = med.boundaries[0]
        z1 = curve._eval(x1)
        # On the chord:
        t = (x1 - p0.x) / (pN.x - p0.x)
        assert abs(p0.z + t * (pN.z - p0.z) - z1) <= 1e-12
        # On the ellipse:
        xt = (x1 - curve.center.x) / curve.a
        zt = (z1 - curve.center.z) / curve.b
        assert abs(xt**2 + zt**2 - 1.0) <= 1e-12

    def test_chord_crossing_three_times_has_no_start(self):
        # The default oscillating chord crosses the interface three times:
        # it gives Newton no straight-ray start, so the shooting stage
        # solves the row, to the same time of flight as the Newton root
        # that the chord's middle crossing used to reach.
        scn = load("oscillating")
        med, p0, pN = scn.medium, scn.sources[0], scn.foci[0]
        ends = _ends(p0, pN)
        _, n = med.boundaries[0]._crossings(ends[0], ends[1], ends[2] - ends[0],
                                            ends[3] - ends[1], 1.0)
        assert n.tolist() == [3]
        assert np.isnan(_chord_rows(med, ends)).all()
        with pytest.raises(NoIntersectionError, match="exactly once"):
            initial_guess_straight(med, p0, pN)
        sol = solve(med, p0, pN)
        assert sol.method == "hybrid" and sol.tof == 3.545096815617285e-05

    def test_curved_chords_hold_little_memory(self):
        # A full block of oscillating chords is searched in chunks of rows,
        # so the (row, spline piece) pairs stay small.
        import tracemalloc
        med = load("oscillating").medium
        lo, hi = med.domain
        rng = np.random.default_rng(5)
        n = 16384
        ends = np.array([rng.uniform(lo, hi, n), np.zeros(n),
                         rng.uniform(lo, hi, n), rng.uniform(40 * MM, 60 * MM, n)])
        tracemalloc.start()
        try:
            xs = _chord_rows(med, ends)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < np.isnan(xs).sum() < n // 4
        assert peak <= 8e6


class TestSolveNewton:
    def test_homogeneous_converges_immediately(self):
        med = homogeneous_medium()
        p0, pN = Point2(-4 * MM, 0), Point2(6 * MM, 35 * MM)
        sol = solve_newton(med, p0, pN)
        assert sol.iterations <= 1
        chord = initial_guess_straight(med, p0, pN)
        assert abs(sol.xs[0] - chord[0]) <= 1e-12

    def test_slow_layer_shifts_crossing_toward_source(self):
        med = flat_two_layer()
        sol = solve_newton(med, Point2(0, 0), Point2(20 * MM, 60 * MM))
        assert 0.0 < sol.xs[0] < 10 * MM

    @pytest.mark.parametrize("source", TABLE2_SOURCES)
    def test_table2_setting1_converges_fast(self, source):
        med = table2_setting1_medium()
        sol = solve_newton(med, source, TABLE2_FOCUS)
        assert sol.iterations <= 10
        shot = solve_shooting(med, source, TABLE2_FOCUS)
        assert sol.tof == pytest.approx(shot.tof, rel=1e-12)

    @pytest.mark.parametrize("source", TABLE2_SOURCES)
    def test_table2_setting2_converges_fast(self, source):
        med = setting3_medium()
        sol = solve_newton(med, source, TABLE2_FOCUS)
        assert sol.iterations <= 10
        shot = solve_shooting(med, source, TABLE2_FOCUS)
        assert sol.tof == pytest.approx(shot.tof, rel=1e-12)
        assert max(abs(a - b) for a, b in zip(sol.xs, shot.xs)) <= 1e-9

    def test_nonconvergence_carries_best_iterate(self):
        med = total_reflection_medium()
        with pytest.raises(NonConvergenceError) as exc:
            solve_newton(med, TOTAL_REFLECTION_SOURCE, TOTAL_REFLECTION_FOCUS)
        assert exc.value.best_xs is not None


class TestSolveShooting:
    def test_homogeneous_returns_chord_crossing(self):
        med = homogeneous_medium()
        p0, pN = Point2(-4 * MM, 0), Point2(6 * MM, 35 * MM)
        sol = solve_shooting(med, p0, pN)
        chord = initial_guess_straight(med, p0, pN)
        assert abs(sol.xs[0] - chord[0]) <= 1e-9
        assert abs(sol.path.points[-1].x - pN.x) <= 1e-12

    def test_agrees_with_newton_on_settings(self, rng):
        for med in (setting2_medium(), setting3_medium()):
            p0, pN = TABLE2_SOURCES[1], TABLE2_FOCUS
            newton = solve_newton(med, p0, pN)
            shot = solve_shooting(med, p0, pN)
            assert shot.tof == pytest.approx(newton.tof, rel=1e-12)
            assert max(abs(a - b) for a, b in zip(newton.xs, shot.xs)) <= 1e-9

    def test_all_candidates_reflected_raises_no_bracket(self):
        med = total_reflection_medium()
        with pytest.raises(NoBracketError) as exc:
            solve_shooting(med, TOTAL_REFLECTION_SOURCE, TOTAL_REFLECTION_FOCUS)
        causes = exc.value.causes
        assert causes.get("total_reflection", 0) > 0
        assert sum(causes.values()) == causes.get("total_reflection")

    def test_multiple_roots_flagged_and_min_tof_returned(self):
        # A gently oscillating interface admits three distinct crossings;
        # shooting must flag the multiplicity and pick the first arrival.
        from goatfocus.medium import SampledC1
        from goatfocus.analysis import fermat_oracle
        dom = (0.0, 60 * MM)
        xk = np.linspace(dom[0], dom[1], 241)
        zk = 30 * MM + 4 * MM * np.sin(2 * np.pi * xk / (12 * MM))
        med = Medium((1480.0, 1600.0), (SampledC1(xk, zk, dom),), dom)
        p0, pN = Point2(10 * MM, 5 * MM), Point2(50 * MM, 50 * MM)
        shot = solve_shooting(med, p0, pN)
        assert shot.multiple_roots
        oracle = fermat_oracle(med, p0, pN, grid=4096, refine_iters=60)
        assert shot.tof == pytest.approx(oracle.tof, rel=1e-12)


class TestShootingLostRays:
    """A ray lost while refining one bracket gives that bracket up (or
    skips the secant polish) instead of aborting the whole solve."""

    @staticmethod
    def lose_rays(monkeypatch, lost):
        """Mark the launches x1 for which ``lost(x1, launched)`` holds lost
        to total reflection in every trace the shooting stage makes;
        ``launched`` lists the launches before x1.  Returns the list of
        (x1, not marked) pairs."""
        import goatfocus.goatsolve as goatsolve
        real = goatsolve.trace_rows
        calls = []

        def trace_rows(medium, ends, x1):
            xs, x_end, tof, codes = real(medium, ends, x1)
            for i, x in enumerate(x1):
                marked = lost(x, [c[0] for c in calls])
                if marked:
                    xs[:, i] = x_end[i] = tof[i] = np.nan
                    codes[i] = 1 + LOST_CAUSES.index("total_reflection")
                calls.append((x, not marked))
            return xs, x_end, tof, codes

        monkeypatch.setattr(goatsolve, "trace_rows", trace_rows)
        return calls

    @staticmethod
    def three_root_case():
        from goatfocus.goatsolve import _brackets, _ends, _scan_rows
        from goatfocus.medium import SampledC1
        dom = (0.0, 60 * MM)
        xk = np.linspace(dom[0], dom[1], 241)
        zk = 30 * MM + 4 * MM * np.sin(2 * np.pi * xk / (12 * MM))
        med = Medium((1480.0, 1600.0), (SampledC1(xk, zk, dom),), dom)
        p0, pN = Point2(10 * MM, 5 * MM), Point2(50 * MM, 50 * MM)
        cand, miss, _ = _scan_rows(med, _ends(p0, pN))
        _, ia, ib = _brackets(miss)
        assert len(ia) == 3 and np.all(ia != ib)
        return med, p0, pN, list(zip(cand[ia], cand[ib]))

    def test_lost_retry_abandons_only_its_bracket(self, monkeypatch):
        med, p0, pN, brackets = self.three_root_case()
        expect = solve_shooting(med, p0, pN)
        # Lose every ray launched strictly inside the second bracket: its
        # midpoint and the retry point after it are both lost.
        xa, xb = brackets[1]
        calls = self.lose_rays(monkeypatch, lambda x, _: xa < x < xb)
        got = solve_shooting(med, p0, pN)
        assert sum(not ok for _, ok in calls) == 2
        assert (got.tof, got.xs, got.multiple_roots) == \
            (expect.tof, expect.xs, True)

    def test_lost_secant_start_keeps_other_brackets(self, monkeypatch):
        med, p0, pN, brackets = self.three_root_case()
        expect = solve_shooting(med, p0, pN)
        # The secant polish starts 1e-12 m beyond the last bisection point;
        # lose that ray in the second bracket only.
        xa, xb = brackets[1]
        calls = self.lose_rays(
            monkeypatch, lambda x, launched: xa < x < xb
            and any(x == y + 1e-12 for y in launched))
        got = solve_shooting(med, p0, pN)
        assert sum(not ok for _, ok in calls) == 1
        assert (got.tof, got.xs, got.multiple_roots) == \
            (expect.tof, expect.xs, True)


class TestSolveHybrid:
    def test_prefers_newton(self):
        med = setting2_medium()
        sol = solve(med, TABLE2_SOURCES[0], TABLE2_FOCUS)
        assert sol.method == "newton"

    def test_total_reflection_surfaces_as_physics_error(self):
        med = total_reflection_medium()
        with pytest.raises(TotalReflectionError):
            solve(med, TOTAL_REFLECTION_SOURCE, TOTAL_REFLECTION_FOCUS)

    def test_focus_in_first_layer_is_straight(self):
        med = flat_two_layer()
        p0, pN = Point2(0, 0), Point2(5 * MM, 20 * MM)
        sol = solve(med, p0, pN)
        assert sol.xs == ()
        assert sol.tof == pytest.approx(p0.dist(pN) / 1480.0, rel=1e-15)

    def test_focus_in_middle_layer_truncates(self):
        med = setting3_medium()
        pN = Point2(18 * MM, 35.6 * MM)  # inside the annulus layer
        sol = solve(med, Point2(16 * MM, 2 * MM), pN)
        assert len(sol.xs) == 1
        assert sol.path.points[-1] == pN

    def test_middle_layer_focus_agrees_across_solvers(self):
        # A focus inside the annulus layer lies above the second interface,
        # so every solver must work on the stack down to the focus's layer.
        scn = load("setting3")
        p0, pN = scn.sources[0], Point2(18 * MM, 35.77 * MM)
        assert scn.medium.layer_of(pN) == 2
        tofs = [f(scn.medium, p0, pN).tof
                for f in (solve, solve_newton, solve_shooting)]
        assert tofs[1] == pytest.approx(tofs[0], rel=1e-15, abs=0)
        assert tofs[2] == pytest.approx(tofs[0], rel=1e-15, abs=0)

    def test_endpoints_reproduced(self):
        med = setting3_medium()
        sol = solve(med, TABLE2_SOURCES[2], TABLE2_FOCUS)
        assert sol.path.points[0].dist(TABLE2_SOURCES[2]) <= 1e-12
        assert sol.path.points[-1].dist(TABLE2_FOCUS) <= 1e-12
        assert sol.residual_norm <= 1e-12


class TestSolveIsOneRow:
    # solve runs one row of solve_rows, the chain the batch runs on blocks
    # of rows, so the two agree bit for bit in both stages.
    @pytest.mark.parametrize("name, focus_mm, method", [
        ("setting3", None, "newton"),
        ("oscillating", (38.0, 48.0), "hybrid"),
        ("oscillating", (41.0, 55.0), "hybrid"),
    ])
    def test_matches_one_row_of_solve_rows(self, name, focus_mm, method):
        scn = load(name)
        p0 = scn.sources[0]
        pN = (scn.foci[0] if focus_mm is None
              else Point2(focus_mm[0] * MM, focus_mm[1] * MM))
        sol = solve(scn.medium, p0, pN, scn.solver)
        sub = scn.medium.truncated(scn.medium.layer_of(pN))
        xs, tof, iterations, rejected, shot, _ = solve_rows(
            sub, _ends(p0, pN), scn.solver)
        assert sol.method == method
        assert rejected[0] == (method == "hybrid")
        assert (shot is None) == (method == "newton")
        assert sol.xs == tuple(xs[:, 0].tolist())
        assert sol.tof == tof[0]
        assert sol.iterations == iterations[0]

    @pytest.mark.parametrize("name, focus_mm, calls", [
        ("setting3", None, 1),
        ("oscillating", (38.0, 48.0), 3),
        ("oscillating", (41.0, 55.0), 3),
    ])
    def test_each_crossing_set_is_verified_once(self, monkeypatch, name,
                                                focus_mm, calls):
        # A Newton row is verified once and built from that record; a hybrid
        # row adds the polish and the crossings it keeps.
        scn = load(name)
        pN = (scn.foci[0] if focus_mm is None
              else Point2(focus_mm[0] * MM, focus_mm[1] * MM))
        real, seen = goatsolve._verify_rows, []

        def counting(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(goatsolve, "_verify_rows", counting)
        solve(scn.medium, scn.sources[0], pN, scn.solver)
        assert len(seen) == calls

    def test_total_reflection_default_pair_raises(self):
        scn = load("total_reflection")
        with pytest.raises(TotalReflectionError):
            solve(scn.medium, scn.sources[0], scn.foci[0], scn.solver)


class TestFiveEquationGroups:
    def test_verified_at_every_converged_solution(self, rng):
        # Re-derive all five equation groups from the crossings alone.
        media = [setting2_medium(), setting3_medium(), table2_setting1_medium()]
        pairs = [(s, TABLE2_FOCUS) for s in TABLE2_SOURCES]
        for med in media:
            for p0, pN in pairs:
                sol = solve(med, p0, pN)
                c = med.speeds
                pts = sol.path.points
                for n, b in enumerate(med.boundaries):
                    pn = pts[n + 1]
                    assert pn.z == pytest.approx(b._eval(pn.x), abs=1e-12)
                    tau = b._slope(pn.x)
                    assert math.tan(sol.path.tangent_angles[n]) == \
                        pytest.approx(tau, abs=1e-12)
                    T = math.sqrt(1 + tau * tau)
                    seg_in = (pts[n + 1].x - pts[n].x, pts[n + 1].z - pts[n].z)
                    seg_out = (pts[n + 2].x - pts[n + 1].x,
                               pts[n + 2].z - pts[n + 1].z)
                    s_in = (seg_in[0] + tau * seg_in[1]) / (T * math.hypot(*seg_in))
                    s_out = (seg_out[0] + tau * seg_out[1]) / (T * math.hypot(*seg_out))
                    assert math.sin(sol.path.incidence_angles[n]) == \
                        pytest.approx(s_in, abs=1e-12)
                    assert math.sin(sol.path.refraction_angles[n]) == \
                        pytest.approx(s_out, abs=1e-12)
                    assert abs(c[n + 1] * s_in - c[n] * s_out) <= 1e-12 * max(c)


class TestInvariances:
    def test_reciprocity(self, rng):
        for _ in range(10):
            med = random_medium(rng)
            p0, pN = random_endpoints(rng, med)
            try:
                fwd = solve(med, p0, pN)
            except Exception:
                continue
            z_ref = p0.z + pN.z
            back = solve(med.flipped(z_ref), Point2(pN.x, z_ref - pN.z),
                         Point2(p0.x, z_ref - p0.z))
            assert back.tof == pytest.approx(fwd.tof, rel=1e-12)

    def test_lateral_translation(self, rng):
        for _ in range(10):
            med = random_medium(rng)
            p0, pN = random_endpoints(rng, med)
            try:
                base = solve(med, p0, pN)
            except Exception:
                continue
            dx = 7 * MM
            moved = solve(med.translated(dx), Point2(p0.x + dx, p0.z),
                          Point2(pN.x + dx, pN.z))
            assert moved.tof == pytest.approx(base.tof, rel=1e-12)

    def test_speed_scaling(self, rng):
        for _ in range(10):
            med = random_medium(rng)
            p0, pN = random_endpoints(rng, med)
            try:
                base = solve(med, p0, pN)
            except Exception:
                continue
            for lam in (0.5, 2.0):
                scaled = solve(med.scaled_speeds(lam), p0, pN)
                assert scaled.tof == pytest.approx(base.tof / lam, rel=1e-12)
                assert max(abs(a - b) for a, b in zip(scaled.xs, base.xs)) <= 1e-12


class TestFlatChords:
    def test_match_the_flat_formula_bit_for_bit(self, rng):
        # Constant is Linear at slope 0; its chords must still be
        # t = (d - z0) / (zN - z0), with negative x, horizontal chords
        # (zN = z0, also on an interface) and vertical ones.
        dom = (-60 * MM, 40 * MM)
        med = Medium((1480.0, 1540.0, 1600.0),
                     (Constant(10 * MM, dom), Constant(25 * MM, dom)), dom)
        n = 400
        x0, xN = rng.uniform(-60 * MM, 40 * MM, n), rng.uniform(-80 * MM, 60 * MM, n)
        z0, zN = rng.uniform(0.0, 5 * MM, n), rng.uniform(0.0, 40 * MM, n)
        zN[::7] = z0[::7]
        z0[::13] = zN[::13] = 10 * MM
        xN[::11] = x0[::11]
        got = _chord_rows(med, np.array([x0, z0, xN, zN]))
        lo, hi = dom
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, b in enumerate(med.boundaries):
                t = (b.d - z0) / (zN - z0)
                x = x0 + t * (xN - x0)
                want = np.where((0.0 < t) & (t < 1.0) & (lo - 1e-12 <= x)
                                & (x <= hi + 1e-12), x, np.nan)
                assert got[i].tobytes() == want.tobytes()
        assert np.nanmin(got) < 0.0 and np.isnan(got).any()
        assert np.isnan(got[:, zN == z0]).all()


class TestTofOfPath:
    def test_homogeneous_vertical(self):
        med = Medium((1540.0, 1540.0), (Constant(30 * MM, (-1, 1)),), (-1, 1))
        pts = [Point2(0, 0), Point2(0, 30 * MM), Point2(0, 60 * MM)]
        assert tof_of_path(med, pts) == pytest.approx(3.896103896103896e-05,
                                                      rel=1e-15)

    def test_two_speeds_vertical(self):
        # Direct arithmetic: 0.03/1480 + 0.03/1540.
        med = Medium((1480.0, 1540.0), (Constant(30 * MM, (-1, 1)),), (-1, 1))
        pts = [Point2(0, 0), Point2(0, 30 * MM), Point2(0, 60 * MM)]
        expected = 0.03 / 1480.0 + 0.03 / 1540.0
        assert expected == pytest.approx(3.975078975078975e-05, rel=1e-15)
        assert tof_of_path(med, pts) == pytest.approx(expected, rel=1e-15)

    def test_interior_permutation_changes_tof(self, rng):
        dom = (-50 * MM, 50 * MM)
        med = Medium((1400.0, 1500.0, 1600.0, 1700.0),
                     (Constant(10 * MM, dom), Constant(20 * MM, dom),
                      Constant(30 * MM, dom)), dom)
        pts = [Point2(0, 0), Point2(3 * MM, 10 * MM), Point2(5 * MM, 20 * MM),
               Point2(9 * MM, 30 * MM), Point2(12 * MM, 50 * MM)]
        base = tof_of_path(med, pts)
        swapped = [pts[0], pts[2], pts[1], pts[3], pts[4]]
        assert tof_of_path(med, swapped) != base


class TestHmfaTof:
    def test_vertical(self):
        assert hmfa_tof(Point2(0, 0), Point2(0, 60 * MM), 1540.0) == \
            pytest.approx(3.896103896103896e-05, rel=1e-15)

    def test_3_4_5_triangle(self):
        assert hmfa_tof(Point2(30 * MM, 0), Point2(0, 40 * MM), 1540.0) == \
            pytest.approx(0.05 / 1540.0, rel=1e-15)

    def test_differs_from_refracted_tof_in_layered_media(self):
        med = table2_setting1_medium()
        p0, pN = TABLE2_SOURCES[0], TABLE2_FOCUS
        goat = solve(med, p0, pN).tof
        hmfa = hmfa_tof(p0, pN, 1540.0)
        assert goat != hmfa


class TestTransmitDelaysHelpers:
    def test_solution_is_frozen_dataclass(self):
        med = homogeneous_medium()
        sol = solve(med, Point2(0, 0), Point2(0, 30 * MM))
        assert isinstance(sol, GoatSolution)
        with pytest.raises(Exception):
            sol.tof = 0.0

    def test_solver_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(tol_residual=0.0)
