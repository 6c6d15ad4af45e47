"""Acceptance suite: ten numbered criteria, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Criteria 1-3 share one solved-case cache; criterion
9 synthesizes and beamforms the full slow-slab imaging scenario.
"""

import time

import numpy as np
import pytest

from goatfocus.analysis import (
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
from goatfocus.cli import main as cli_main
from goatfocus.errors import GoatFocusError, RoiError
from goatfocus.focusing import build_delay_table, linear_array
from goatfocus.goatsolve import (
    initial_guess_straight,
    residual_jacobian,
    residuals,
    solve,
    solve_newton,
    solve_shooting,
    tof_of_path,
)
from goatfocus.imaging import (
    ImageGrid,
    Pulse,
    beam_profile,
    das_beamform,
    peak_position,
    synthesize_channels,
)
from goatfocus.medium import Constant, Medium, Point2

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


def report(number, name, passed, started, detail=""):
    state = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{name}]: {state} "
          f"[{time.perf_counter() - started:.1f} s]{extra}")
    assert passed, f"criterion {number} ({name}) failed{extra}"


@pytest.fixture(scope="module")
def fixture_solutions():
    """Converged solutions on the named setting geometries."""
    out = []
    for med in (setting1_medium(), setting2_medium(), setting3_medium(),
                table2_setting1_medium()):
        for p0 in TABLE2_SOURCES:
            out.append((med, p0, TABLE2_FOCUS, solve(med, p0, TABLE2_FOCUS)))
    return out


@pytest.fixture(scope="module")
def random_solutions():
    """Twenty randomized 2-4 layer media with converged solutions."""
    rng = np.random.default_rng(6021023)
    out = []
    while len(out) < 20:
        med = random_medium(rng)
        p0, pN = random_endpoints(rng, med)
        try:
            sol = solve(med, p0, pN)
        except GoatFocusError:
            continue
        out.append((med, p0, pN, sol))
    return out


class TestAcceptance:
    def test_criterion_1_oracle_equivalence(self, fixture_solutions,
                                            random_solutions):
        t0 = time.perf_counter()
        worst = 0.0
        cases = [c for c in fixture_solutions
                 if c[0].boundaries[0].__class__.__name__ != "Linear"]
        for med, p0, pN, sol in cases + list(random_solutions):
            res = fermat_oracle(med, p0, pN, grid=4096, refine_iters=60)
            worst = max(worst, abs(sol.tof - res.tof) / sol.tof)
        report(1, "oracle equivalence", worst <= 1e-9, t0,
               f"worst relative difference {worst:.2e} over "
               f"{len(cases) + len(random_solutions)} cases")

    def test_criterion_2_two_solver_agreement(self):
        t0 = time.perf_counter()
        worst_rel = 0.0
        worst_iters = 0
        for med in (table2_setting1_medium(), setting3_medium()):
            for p0 in TABLE2_SOURCES:
                newton = solve_newton(med, p0, TABLE2_FOCUS)
                shot = solve_shooting(med, p0, TABLE2_FOCUS)
                worst_rel = max(worst_rel,
                                abs(newton.tof - shot.tof) / newton.tof)
                worst_iters = max(worst_iters, newton.iterations)
        report(2, "two-solver agreement",
               worst_rel <= 1e-12 and worst_iters <= 10, t0,
               f"worst ToF difference {worst_rel:.2e} rel, "
               f"max Newton iterations {worst_iters}")

    def test_criterion_3_three_way_equivalence(self, fixture_solutions,
                                               random_solutions):
        t0 = time.perf_counter()
        worst_snell = worst_grad = worst_slope = 0.0
        for med, p0, pN, sol in list(fixture_solutions) + list(random_solutions):
            worst_snell = max(worst_snell, sol.residual_norm)
            grad = tof_gradient(med, p0, pN, np.array(sol.xs))
            worst_grad = max(worst_grad, float(np.max(np.abs(grad))))
            pts = sol.path.points
            for n in range(1, med.num_layers):
                r = slope_condition_residual(med, n, pts[n - 1], pts[n],
                                             pts[n + 1])
                worst_slope = max(worst_slope, abs(r))
        ok = worst_snell <= 1e-12 and worst_grad <= 1e-9 and worst_slope <= 1e-9
        report(3, "Snell/stationarity/slope equivalence", ok, t0,
               f"snell {worst_snell:.1e}, grad {worst_grad:.1e} s/m, "
               f"slope {worst_slope:.1e}")

    def test_criterion_4_homogeneous_degeneration(self, tmp_path, capsys):
        t0 = time.perf_counter()
        med = homogeneous_medium()
        # Path collinearity.
        p0, pN = Point2(-6 * MM, 0.0), Point2(7 * MM, 33 * MM)
        sol = solve(med, p0, pN)
        worst_dev = 0.0
        chord = np.array([pN.x - p0.x, pN.z - p0.z])
        chord /= np.linalg.norm(chord)
        for q in sol.path.points:
            v = np.array([q.x - p0.x, q.z - p0.z])
            worst_dev = max(worst_dev, abs(v[0] * chord[1] - v[1] * chord[0]))
        # Delay tables.
        arr = linear_array(32, 0.6 * MM)
        foci = [Point2(0.0, 25 * MM), Point2(4 * MM, 30 * MM)]
        dt = 0.0
        for kind in ("transmit", "receive"):
            tg = build_delay_table(arr, foci, med, "goat", kind)
            th = build_delay_table(arr, foci, None, "hmfa", kind)
            dt = max(dt, float(np.max(np.abs(tg.delays - th.delays))))
        # Byte-identical images via the CLI.
        prefix = str(tmp_path / "bf")
        assert cli_main(["beamform", "--scenario", "homogeneous",
                         "--engine", "goat", "--out", prefix]) == 0
        assert cli_main(["beamform", "--scenario", "homogeneous",
                         "--engine", "hmfa", "--out", prefix]) == 0
        capsys.readouterr()
        identical = ((tmp_path / "bf_goat.pgm").read_bytes()
                     == (tmp_path / "bf_hmfa.pgm").read_bytes())
        ok = worst_dev <= 1e-12 and dt <= 1e-15 and identical
        report(4, "homogeneous degeneration", ok, t0,
               f"deviation {worst_dev:.1e} m, delay diff {dt:.1e} s, "
               f"images identical {identical}")

    def test_criterion_5_invariance_suite(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42177)
        worst_rec = worst_tr = worst_tof = 0.0
        worst_xs = 0.0
        count = 0
        while count < 50:
            med = random_medium(rng)
            p0, pN = random_endpoints(rng, med)
            try:
                base = solve(med, p0, pN)
            except GoatFocusError:
                continue
            count += 1
            z_ref = p0.z + pN.z
            back = solve(med.flipped(z_ref), Point2(pN.x, z_ref - pN.z),
                         Point2(p0.x, z_ref - p0.z))
            worst_rec = max(worst_rec, abs(back.tof - base.tof) / base.tof)
            dx = 7 * MM
            moved = solve(med.translated(dx), Point2(p0.x + dx, p0.z),
                          Point2(pN.x + dx, pN.z))
            worst_tr = max(worst_tr, abs(moved.tof - base.tof) / base.tof)
            for lam in (0.5, 2.0):
                scaled = solve(med.scaled_speeds(lam), p0, pN)
                worst_tof = max(worst_tof,
                                abs(scaled.tof - base.tof / lam) / (base.tof / lam))
                worst_xs = max(worst_xs, max(abs(a - b) for a, b in
                                             zip(scaled.xs, base.xs)))
        ok = (worst_rec <= 1e-12 and worst_tr <= 1e-12
              and worst_tof <= 1e-12 and worst_xs <= 1e-12)
        report(5, "invariance suite", ok, t0,
               f"reciprocity {worst_rec:.1e}, translation {worst_tr:.1e}, "
               f"scaling tof {worst_tof:.1e} / xs {worst_xs:.1e} m, "
               f"{count} cases")

    def test_criterion_6_level_sets(self):
        t0 = time.perf_counter()
        med = setting1_medium()
        p0, p2 = TABLE2_SOURCES[0], TABLE2_FOCUS
        curve = tof_level_set(med, p0, p2, Point2(12 * MM, 30 * MM))
        oval = float(np.max(np.abs(oval_identity_residual(med, p0, p2, curve))))
        tofs = np.array([tof_two_segment(med, p0, p2, q) for q in curve.points])
        tof_dev = float(np.max(np.abs(tofs - curve.tof_value))) / curve.tof_value
        # Equal speeds degenerate to an ellipse.
        hom = Medium((1540.0, 1540.0), med.boundaries, med.domain)
        ec = tof_level_set(hom, p0, p2, Point2(12 * MM, 30 * MM))
        sums = np.array([q.dist(p0) + q.dist(p2) for q in ec.points])
        focal = float(np.max(np.abs(sums - (ec.seed.dist(p0) + ec.seed.dist(p2)))))
        # Tangency at the two-layer solution.
        worst_tan = 0.0
        for med2 in (setting1_medium(), setting2_medium()):
            sol = solve(med2, p0, p2)
            q = sol.path.points[1]
            level = _level_slope(med2.speeds[0], med2.speeds[1], p0, p2, q.x, q.z)
            worst_tan = max(worst_tan,
                            abs(level - med2.boundaries[0]._slope(q.x)))
        ok = (oval <= 1e-8 and tof_dev <= 1e-9 and focal <= 1e-9
              and worst_tan <= 1e-8)
        report(6, "level-set properties", ok, t0,
               f"oval {oval:.1e} m, tof {tof_dev:.1e} rel, focal {focal:.1e} m, "
               f"tangency {worst_tan:.1e}")

    def test_criterion_7_condition_checkers(self):
        t0 = time.perf_counter()
        # Constructed total-reflection case violates the transmitted-sine
        # bound on the straight 45-degree path with the documented margin.
        med_tr = total_reflection_medium()
        chord = initial_guess_straight(med_tr, TOTAL_REFLECTION_SOURCE,
                                       TOTAL_REFLECTION_FOCUS)
        pts = [TOTAL_REFLECTION_SOURCE,
               Point2(float(chord[0]), med_tr.boundaries[0].d),
               TOTAL_REFLECTION_FOCUS]
        (rep_a1,) = check_no_total_reflection(med_tr, pts)
        tr_ok = (not rep_a1.satisfied
                 and 1.0 - rep_a1.margin == pytest.approx(1.0512, abs=1e-4))
        scan = bracket_scan(med_tr, TOTAL_REFLECTION_SOURCE,
                            TOTAL_REFLECTION_FOCUS)
        tr_ok = tr_ok and not scan.satisfied \
            and scan.witness["skipped"].get("total_reflection", 0) > 0
        # Oscillating boundary: re-crossing ray and non-unique scan.
        med_os = oscillating_medium()
        b = med_os.boundaries[0]
        pn = Point2(6 * MM, b._eval(6 * MM))
        rep_a2 = check_unique_intersection(
            med_os, 1, pn, Point2(25 * MM, pn.z + 0.1 * (25 * MM - 6 * MM)))
        os_ok = not rep_a2.satisfied and rep_a2.witness is not None
        scan_os = uniqueness_scan(med_os, Point2(20 * MM, 5 * MM),
                                  Point2(40 * MM, 55 * MM))
        os_ok = os_ok and not scan_os.satisfied and len(scan_os.witness) > 1
        # Every named setting passes every check.
        all_ok = True
        for med in (setting1_medium(), setting2_medium(), setting3_medium(),
                    table2_setting1_medium()):
            for p0 in TABLE2_SOURCES:
                sol = solve(med, p0, TABLE2_FOCUS)
                all_ok &= bracket_scan(med, p0, TABLE2_FOCUS).satisfied
                all_ok &= all(r.satisfied for r in
                              check_no_total_reflection(med, sol.path.points))
                qs = sol.path.points
                for n in range(1, med.num_layers):
                    all_ok &= check_unique_intersection(
                        med, n, qs[n], qs[n + 1]).satisfied
                if med.num_layers == 2:
                    all_ok &= uniqueness_scan(med, p0, TABLE2_FOCUS).satisfied
        report(7, "condition checkers", tr_ok and os_ok and all_ok, t0,
               f"total-reflection margin {rep_a1.margin:+.4f}, "
               f"oscillating roots {int(scan_os.margin)}")

    def test_criterion_8_finite_difference_checks(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(90125)
        worst_j = worst_g = 0.0
        count = 0
        while count < 50:
            med = random_medium(rng)
            p0, pN = random_endpoints(rng, med)
            try:
                xs = initial_guess_straight(med, p0, pN)
            except GoatFocusError:
                continue
            xs = xs + rng.uniform(-1 * MM, 1 * MM, size=xs.size)
            h = 1e-7 * med.width
            K = xs.size
            fd = np.zeros((K, K))
            try:
                for j in range(K):
                    up, dn = xs.copy(), xs.copy()
                    up[j] += h
                    dn[j] -= h
                    fd[:, j] = (residuals(med, p0, pN, up)
                                - residuals(med, p0, pN, dn)) / (2 * h)
            except GoatFocusError:
                continue
            sub, diag, sup = residual_jacobian(med, p0, pN, xs)
            J = np.diag(diag)
            if K > 1:
                J += np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
            worst_j = max(worst_j,
                          float(np.max(np.abs(J - fd)) / np.max(np.abs(fd))))
            hg = 1e-6 * med.width

            def chain(v):
                pts = [p0] + [Point2(float(x), float(med.boundaries[i]._eval(x)))
                              for i, x in enumerate(v)] + [pN]
                return tof_of_path(med, pts)

            fdg = np.zeros(K)
            for j in range(K):
                up, dn = xs.copy(), xs.copy()
                up[j] += hg
                dn[j] -= hg
                fdg[j] = (chain(up) - chain(dn)) / (2 * hg)
            grad = tof_gradient(med, p0, pN, xs)
            worst_g = max(worst_g,
                          float(np.max(np.abs(grad - fdg)) / np.max(np.abs(fdg))))
            count += 1
        ok = worst_j <= 1e-6 and worst_g <= 1e-6
        report(8, "finite-difference checks", ok, t0,
               f"jacobian {worst_j:.1e}, gradient {worst_g:.1e}, {count} cases")

    def test_criterion_9_imaging_reproduction(self):
        t0 = time.perf_counter()
        med = proxon_medium()
        gt_med = Medium((1540.0, 1540.0), (Constant(9 * MM, med.domain),),
                        med.domain)
        arr = linear_array(64, 0.15 * MM)
        pulse = Pulse(5e6, 0.6)
        fs = 1e8
        pattern = [(0.0, 10), (2.5, 15), (2.5, 20), (5.0, 25), (5.0, 30),
                   (7.5, 35), (10.0, 40)]
        scat = [(Point2(x * MM, z * MM), 1.0) for x, z in pattern]
        grid = ImageGrid.from_extent(-15 * MM, 15 * MM, 2 * MM, 47 * MM,
                                     0.1 * MM)
        ch_p = synthesize_channels(med, arr, scat, pulse, fs, 75e-6)
        ch_g = synthesize_channels(gt_med, arr, scat, pulse, fs, 75e-6)
        img_goat = das_beamform(ch_p, med, arr, grid, "goat")
        img_hmfa = das_beamform(ch_p, None, arr, grid, "hmfa")
        img_gt = das_beamform(ch_g, None, arr, grid, "hmfa")
        ok = True
        details = []
        for p, _ in scat:
            roi = (p.x - 3 * MM, p.x + 3 * MM, p.z - 2 * MM, p.z + 2 * MM)
            try:
                fg = beam_profile(img_goat, roi)
                fh = beam_profile(img_hmfa, roi)
                ft = beam_profile(img_gt, roi)
            except RoiError as exc:
                ok = False
                details.append(f"target {p}: {exc}")
                continue
            dz = peak_position(img_hmfa, roi).z - p.z
            target_ok = (fg.fwhm < fh.fwhm
                         and fg.fwhm <= 1.2 * ft.fwhm
                         and abs(fg.peak_to_background_db
                                 - ft.peak_to_background_db) <= 1.0
                         and dz >= 0.3 * MM)
            if not target_ok:
                details.append(
                    f"target ({p.x / MM:.1f},{p.z / MM:.1f}) fwhm "
                    f"g/h/t {fg.fwhm / MM:.3f}/{fh.fwhm / MM:.3f}/"
                    f"{ft.fwhm / MM:.3f} dz {dz / MM:+.2f}")
            ok &= target_ok
        report(9, "imaging qualitative reproduction", ok, t0,
               "; ".join(details) if details else
               f"{len(scat)} wire targets, all orderings hold")

    def test_criterion_10_delay_error_shape(self):
        t0 = time.perf_counter()
        med = setting1_medium()
        arr = linear_array(64, 0.5 * MM, center_x=18.225 * MM)
        focus = Point2(18.225 * MM, 70 * MM)
        center = int(np.argmin(np.abs(arr.xs - focus.x)))
        goat = build_delay_table(arr, [focus], med, "goat", "receive",
                                 transmit_element=center)
        hmfa = build_delay_table(arr, [focus], None, "hmfa", "receive",
                                 transmit_element=center)
        diff = np.abs(goat.delays[:, 0] - hmfa.delays[:, 0])
        dist = np.abs(arr.xs - focus.x)
        order = np.argsort(dist, kind="stable")
        d = diff[order]
        smooth = np.convolve(d, np.ones(3) / 3.0, mode="valid")
        monotone = bool(np.all(np.diff(smooth) >= -1e-15))
        growth = d[-1] - d[0]
        report(10, "delay-error lateral growth", monotone and growth > 0, t0,
               f"span {d[0] * 1e9:.2f} -> {d[-1] * 1e9:.2f} ns")
