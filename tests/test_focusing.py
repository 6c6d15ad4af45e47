"""Delay formulas, delay tables, and their qualitative layered-media shape."""

import numpy as np
import pytest

from goatfocus import focusing
from goatfocus.errors import NoTransmittedPathError
from goatfocus.focusing import (
    HMFA_REFERENCE_SPEED,
    ElementArray,
    build_delay_table,
    element_focus_tofs,
    linear_array,
    receive_delays,
    transmit_delays,
    write_delay_csv,
)
from goatfocus.imaging import ChannelDataSet, ImageGrid, das_beamform
from goatfocus.medium import Point2
from goatfocus.scenario import load

from cases import (
    MM,
    homogeneous_medium,
    proxon_medium,
    setting1_medium,
    total_reflection_medium,
)

US = 1e-6


class TestTransmitDelays:
    def test_direct_formula(self):
        got = transmit_delays([10 * US, 12 * US, 11 * US])
        assert np.allclose(got, [2 * US, 0.0, 1 * US], atol=1e-18)

    def test_all_equal_gives_zeros(self):
        assert np.all(transmit_delays([7 * US] * 5) == 0.0)

    def test_permutation_equivariance(self, rng):
        tofs = rng.uniform(5 * US, 50 * US, size=16)
        perm = rng.permutation(16)
        assert np.array_equal(transmit_delays(tofs)[perm],
                              transmit_delays(tofs[perm]))

    def test_invariant_under_constant_shift(self, rng):
        tofs = rng.uniform(5 * US, 50 * US, size=16)
        assert np.allclose(transmit_delays(tofs + 3 * US), transmit_delays(tofs),
                           atol=1e-18)

    def test_latest_element_gets_zero(self, rng):
        tofs = rng.uniform(5 * US, 50 * US, size=16)
        d = transmit_delays(tofs)
        assert d[np.argmax(tofs)] == 0.0
        assert np.all(d >= 0.0)


class TestReceiveDelays:
    def test_direct_formula(self):
        got = receive_delays([10 * US, 12 * US], 5 * US)
        assert np.allclose(got, [15 * US, 17 * US], atol=1e-18)

    def test_zero_transmit_is_identity(self):
        tofs = np.array([10 * US, 12 * US])
        assert np.array_equal(receive_delays(tofs, 0.0), tofs)

    def test_shift_property(self, rng):
        tofs = rng.uniform(5 * US, 50 * US, size=8)
        a, b = 2 * US, 3 * US
        assert np.allclose(receive_delays(tofs, a + b),
                           receive_delays(tofs, a) + b, atol=1e-18)


class TestBuildDelayTable:
    def test_homogeneous_goat_equals_hmfa(self):
        # Both engines solve the same closed-form straight rays, so
        # through one speed their tables agree bit for bit.
        scn = load("homogeneous")
        foci = [Point2(x * MM, z * MM) for x in np.linspace(-8, 8, 17)
                for z in np.linspace(21, 35, 8)]
        for kind, tx in (("transmit", None), ("receive", 3)):
            goat = build_delay_table(scn.array, foci, scn.medium, "goat",
                                     kind, transmit_element=tx)
            hmfa = build_delay_table(scn.array, foci, None, "hmfa", kind,
                                     transmit_element=tx)
            assert goat.delays.shape == (32, 17 * 8)
            assert np.array_equal(goat.delays, hmfa.delays)

    def test_hmfa_solves_each_element_through_one_speed(self, monkeypatch):
        seen = []
        real = focusing.tof_batch

        def recording(medium, src, tx, tz, opts):
            seen.append((medium, src))
            return real(medium, src, tx, tz, opts)

        monkeypatch.setattr(focusing, "tof_batch", recording)
        arr = linear_array(8, 0.5 * MM)
        foci = (Point2(x * MM, 20 * MM) for x in (-2, 0, 3))  # a generator
        tofs = element_focus_tofs(arr, foci, proxon_medium(), "hmfa")
        assert tofs.shape == (8, 3)
        assert [src for _, src in seen] == list(arr.element_positions)
        for medium, _ in seen:
            assert medium.speeds == (HMFA_REFERENCE_SPEED,)
            assert medium.boundaries == ()

    @pytest.mark.parametrize("engine, message", [
        ("straight", "unknown engine 'straight'"),
        ("goat", "the goat engine requires a medium"),
    ])
    @pytest.mark.parametrize("entry", ["build_delay_table", "das_beamform"])
    def test_entry_points_reject_bad_engine(self, entry, engine, message):
        arr = linear_array(4, 0.5 * MM)
        with pytest.raises(ValueError, match=message):
            if entry == "build_delay_table":
                build_delay_table(arr, [Point2(0.0, 20 * MM)], None, engine,
                                  "transmit")
            else:
                channels = ChannelDataSet(np.zeros((4, 4, 16)), 4e7)
                grid = ImageGrid(np.array([0.0, 1 * MM]),
                                 np.linspace(10, 25, 16) * MM)
                das_beamform(channels, None, arr, grid, engine)

    def test_layered_delay_difference_grows_laterally(self):
        # Centered focus below a slower surface layer: the refraction
        # correction grows with lateral element offset.
        med = setting1_medium()
        arr = linear_array(32, 0.8 * MM, center_x=18.225 * MM)
        focus = Point2(18.225 * MM, 70 * MM)
        goat = build_delay_table(arr, [focus], med, "goat", "receive",
                                 transmit_element=16)
        hmfa = build_delay_table(arr, [focus], None, "hmfa", "receive",
                                 transmit_element=16)
        diff = np.abs(goat.delays[:, 0] - hmfa.delays[:, 0])
        offs = np.abs(arr.xs - focus.x)
        order = np.argsort(offs)
        assert np.all(np.diff(diff[order]) > -1e-12)
        assert diff[order][-1] > diff[order][0]

    def test_transmit_table_has_one_zero_per_focus(self):
        med = proxon_medium()
        arr = linear_array(16, 0.5 * MM)
        foci = [Point2(2 * MM, 25 * MM), Point2(-3 * MM, 18 * MM)]
        table = build_delay_table(arr, foci, med, "goat", "transmit")
        for k in range(len(foci)):
            col = table.delays[:, k]
            assert np.min(col) == 0.0
            assert np.count_nonzero(col <= 1e-15) >= 1
            assert np.all(col >= 0.0)

    def test_receive_delays_positive(self):
        med = proxon_medium()
        arr = linear_array(8, 0.5 * MM)
        table = build_delay_table(arr, [Point2(0.0, 20 * MM)], med, "goat",
                                  "receive", transmit_element=0)
        assert np.all(table.delays > 0.0)

    def test_axis_symmetric_focus_gives_symmetric_delays(self):
        # Array and medium symmetric about x = 0, focus on the axis: delays
        # must pair up to the mirror-image element.
        med = proxon_medium()
        arr = linear_array(64, 0.15 * MM)
        table = build_delay_table(arr, [Point2(0.0, 30 * MM)], med, "goat",
                                  "transmit")
        col = table.delays[:, 0]
        assert np.max(np.abs(col - col[::-1])) <= 1e-12

    def test_correction_profile_symmetric_on_axis(self):
        # The refraction correction (goat minus straight-ray receive delays)
        # for an on-axis focus is a laterally symmetric profile.
        med = proxon_medium()
        arr = linear_array(64, 0.15 * MM)
        focus = [Point2(0.0, 30 * MM)]
        goat = build_delay_table(arr, focus, med, "goat", "receive")
        hmfa = build_delay_table(arr, focus, None, "hmfa", "receive")
        diff = goat.delays[:, 0] - hmfa.delays[:, 0]
        assert np.max(np.abs(diff - diff[::-1])) <= 1e-12
        # Smooth: second differences stay tiny against the profile span.
        span = np.max(diff) - np.min(diff)
        assert np.max(np.abs(np.diff(diff, 2))) <= 0.05 * span

    def test_empty_focus_list(self):
        med = proxon_medium()
        arr = linear_array(8, 0.5 * MM)
        table = build_delay_table(arr, [], med, "goat", "transmit")
        assert table.delays.shape == (8, 0)
        assert table.failures == ()


def reference_table(tofs, kind, transmit_element):
    """Delays and failures of a per-focus loop over the ToF matrix."""
    failures = [(int(m), int(k), "no refracted path")
                for m, k in zip(*np.nonzero(~np.isfinite(tofs)))]
    delays = np.full_like(tofs, np.nan)
    for k in range(tofs.shape[1]):
        col = tofs[:, k]
        good = np.isfinite(col)
        if not np.any(good):
            continue
        if kind == "transmit":
            delays[good, k] = np.max(col[good]) - col[good]
            continue
        t_tx = 0.0 if transmit_element is None else col[transmit_element]
        if not np.isfinite(t_tx):
            failures.append((transmit_element, k, "transmit tof failed"))
            continue
        delays[good, k] = col[good] + t_tx
    return delays, tuple(failures)


KINDS = [("transmit", None), ("receive", None), ("receive", 0),
         ("receive", 2)]


class TestDelayTableFailures:
    # Columns: all finite, partly NaN, all NaN, the transmit element's ToF
    # NaN (element 2), and elements 0 and 2 NaN.
    TOFS = np.array([[20.0, 21.0, np.nan, 22.0, np.nan],
                     [21.0, np.nan, np.nan, 23.5, 24.0],
                     [22.5, 20.0, np.nan, np.nan, np.nan],
                     [23.0, 22.0, np.nan, 21.0, 25.0]]) * US

    @pytest.mark.parametrize("kind, tx", KINDS)
    def test_matches_per_focus_loop(self, monkeypatch, kind, tx):
        monkeypatch.setattr(focusing, "element_focus_tofs",
                            lambda *args: self.TOFS.copy())
        foci = [Point2(float(k) * MM, 30 * MM) for k in range(5)]
        table = build_delay_table(linear_array(4, MM), foci, proxon_medium(),
                                  "goat", kind, transmit_element=tx)
        delays, failures = reference_table(self.TOFS, kind, tx)
        assert table.delays.tobytes() == delays.tobytes()
        assert table.failures == failures
        lost = [k for m, k, why in failures if why == "transmit tof failed"]
        assert lost == {0: [4], 2: [3, 4]}.get(tx, [])

    @pytest.mark.parametrize("kind, tx", KINDS)
    def test_partly_reachable_medium_matches_per_focus_loop(self, kind, tx):
        # Near the critical angle the elements far from a focus lose it
        # first: a column reached by every element, three partly reached
        # ones (elements 3; 2 and 3; 1 to 3) and one reached by none.
        med = total_reflection_medium()
        arr = linear_array(4, MM, 30 * MM)
        foci = [Point2(x * MM, 33 * MM) for x in (40, 54, 54.5, 55, 58)]
        tofs = element_focus_tofs(arr, foci, med, "goat")
        assert np.array_equal(np.isnan(tofs).sum(axis=0), [0, 1, 2, 3, 4])
        table = build_delay_table(arr, foci, med, "goat", kind,
                                  transmit_element=tx)
        delays, failures = reference_table(tofs, kind, tx)
        assert table.delays.tobytes() == delays.tobytes()
        assert table.failures == failures

    def test_no_reachable_focus_raises(self):
        arr = linear_array(4, MM, 30 * MM)
        with pytest.raises(NoTransmittedPathError,
                           match="every \\(element, focus\\) solve failed"):
            build_delay_table(arr, [Point2(400 * MM, 31 * MM)],
                              total_reflection_medium(), "goat", "transmit")


class TestDelayCsv:
    def test_round_trip_decimal_format(self, tmp_path):
        med = homogeneous_medium()
        arr = linear_array(4, 0.5 * MM)
        table = build_delay_table(arr, [Point2(1 * MM, 20 * MM)], med, "goat",
                                  "receive")
        out = tmp_path / "delays.csv"
        write_delay_csv(table, out, provenance="tool test")
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "kind,engine"
        assert lines[2] == "receive,goat"
        assert lines[3] == "focus_x_m,focus_z_m,element_index,delay_s"
        cell = lines[4].split(",")[3]
        assert float(cell) == table.delays[0, 0]


class TestElementArray:
    def test_rejects_single_element(self):
        with pytest.raises(ValueError):
            ElementArray((Point2(0, 0),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ElementArray((Point2(0, 0), Point2(0, 0)))

    def test_linear_array_centering(self):
        arr = linear_array(5, 1 * MM, center_x=2 * MM)
        assert arr.xs[2] == pytest.approx(2 * MM, abs=1e-18)
        assert np.allclose(np.diff(arr.xs), 1 * MM)
