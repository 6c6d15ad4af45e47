"""Batch ToF engine must agree with the scalar solver to solver precision."""

import tracemalloc

import numpy as np
import pytest

from goatfocus import batch, goatsolve
from goatfocus.batch import tof_batch, tof_maps
from goatfocus.goatsolve import hmfa_tof, solve, solve_rows
from goatfocus.medium import Point2
from goatfocus.scenario import load

from cases import (
    MM,
    homogeneous_medium,
    proxon_medium,
    setting3_medium,
    total_reflection_medium,
)


class TestBatchFlatTwoLayer:
    def test_matches_scalar_solver(self, rng):
        med = proxon_medium()
        src = Point2(-8 * MM, 0.0)
        tx = rng.uniform(-14 * MM, 14 * MM, size=200)
        tz = rng.uniform(9.2 * MM, 45 * MM, size=200)
        got = tof_batch(med, src, tx, tz)
        for i in range(tx.size):
            ref = solve(med, src, Point2(tx[i], tz[i])).tof
            assert abs(got[i] - ref) <= 1e-15 * ref

    def test_targets_above_interface_are_straight(self):
        med = proxon_medium()
        src = Point2(0.0, 0.0)
        got = tof_batch(med, src, np.array([3 * MM]), np.array([5 * MM]))
        assert got[0] == pytest.approx(
            hmfa_tof(src, Point2(3 * MM, 5 * MM), 1393.5), rel=1e-15)

    def test_target_on_interface_is_continuous(self):
        med = proxon_medium()
        src = Point2(2 * MM, 0.0)
        x = np.array([5 * MM, 5 * MM, 5 * MM])
        z = np.array([9 * MM - 1e-9, 9 * MM, 9 * MM + 1e-9])
        t = tof_batch(med, src, x, z)
        assert abs(t[2] - t[0]) <= 1e-11


class TestBatchHomogeneous:
    def test_equals_straight_line_exactly(self, rng):
        med = homogeneous_medium()
        src = Point2(1 * MM, 0.0)
        tx = rng.uniform(-10 * MM, 10 * MM, size=50)
        tz = rng.uniform(1 * MM, 34 * MM, size=50)
        got = tof_batch(med, src, tx, tz)
        expect = np.hypot(tx - src.x, tz - src.z) / 1540.0
        assert np.array_equal(got, expect)


class TestBatchGeneralFallback:
    def test_curved_medium_matches_scalar(self, rng):
        med = setting3_medium()
        src = Point2(10 * MM, 1 * MM)
        tx = rng.uniform(8 * MM, 28 * MM, size=6)
        tz = rng.uniform(50 * MM, 70 * MM, size=6)
        got = tof_batch(med, src, tx, tz)
        for i in range(tx.size):
            ref = solve(med, src, Point2(tx[i], tz[i])).tof
            assert got[i] == pytest.approx(ref, rel=1e-15)


class TestShootingStage:
    def test_full_block_holds_the_misses_only(self):
        # A full block of total-reflection rows from (0, 0), every one
        # rejected by the row Newton: the stage's scan holds the (rows, 64)
        # terminal misses, never a (K, rows x 64) array of crossings; K is
        # 1 here, so such an array would double the misses.
        med = total_reflection_medium()
        rows = batch._BLOCK_ROWS
        rng = np.random.default_rng(0)
        ends = np.zeros((4, rows))
        ends[2] = rng.uniform(55 * MM, 65 * MM, rows)
        ends[3] = rng.uniform(50 * MM, 70 * MM, rows)
        tracemalloc.start()
        try:
            _, tof, _, rejected, _, _ = solve_rows(med, ends)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        misses = rows * goatsolve._SHOOTING_CANDIDATES * 8
        assert rejected.all() and np.isnan(tof).all()
        assert misses <= peak < 2 * misses


class TestTofMaps:
    def test_shape_and_values(self, rng):
        med = proxon_medium()
        sources = [Point2(x, 0.0) for x in (-5 * MM, 0.0, 5 * MM)]
        gx, gz = np.meshgrid(np.linspace(-10 * MM, 10 * MM, 21),
                             np.linspace(10 * MM, 40 * MM, 31), indexing="xy")
        maps = tof_maps(med, sources, gx, gz)
        assert maps.shape == (3, 31, 21)
        single = tof_batch(med, sources[1], gx, gz)
        assert np.array_equal(maps[1], single)

    def test_thread_count_does_not_change_output(self, rng):
        med = proxon_medium()
        sources = [Point2(x, 0.0) for x in np.linspace(-6 * MM, 6 * MM, 8)]
        gx, gz = np.meshgrid(np.linspace(-8 * MM, 8 * MM, 16),
                             np.linspace(10 * MM, 30 * MM, 16), indexing="xy")
        serial = tof_maps(med, sources, gx, gz)
        threaded = tof_maps(med, sources, gx, gz, workers=4)
        assert np.array_equal(serial, threaded)

    def test_scatterer_map_is_one_row_call_per_layer(self, monkeypatch):
        # The CLI's (element, scatterer) map on proxon: 64 sources, seven
        # targets below the interface, one block of rows for all of them.
        scn = load("proxon")
        sx = np.array([p.x for p, _ in scn.imaging.scatterers])
        sz = np.array([p.z for p, _ in scn.imaging.scatterers])
        calls = []
        real = batch.solve_rows

        def counting(medium, ends, opts):
            calls.append((medium.num_layers, ends.shape[1]))
            return real(medium, ends, opts)

        monkeypatch.setattr(batch, "solve_rows", counting)
        tofs = tof_maps(scn.medium, scn.array.element_positions, sx, sz,
                        scn.solver, workers=2)
        assert calls == [(2, 64 * 7)]
        assert np.all(np.isfinite(tofs))
