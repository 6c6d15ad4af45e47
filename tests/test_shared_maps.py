"""The flat-medium ToF table behind both engines' maps.

``imaging._shared_tof_maps`` solves one table, from x = 0 in a medium of one
speed and from the middle of the lateral domain otherwise, and every
element's map is a contiguous view of it.  Its maps must match the
per-element :func:`tof_maps` to rounding, NaN for NaN; every case it does
not serve must reach :func:`tof_maps` with the caller's sources and grid
unchanged.  The hmfa engine's maps are the table of a one-speed medium.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goatfocus import imaging
from goatfocus.batch import tof_maps
from goatfocus.focusing import linear_array
from goatfocus.goatsolve import SolverOptions
from goatfocus.imaging import (ChannelDataSet, ImageGrid, _shared_tof_maps,
                               das_beamform)
from goatfocus.medium import Constant, Linear, Medium, Point2

from cases import MM, homogeneous_medium, proxon_medium

REL = 1e-12
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


def direct_maps(medium, sources, grid):
    gx, gz = np.meshgrid(grid.x, grid.z, indexing="xy")
    return tof_maps(medium, sources, gx, gz)


def stacked(got, grid):
    """The x-major maps of ``_shared_tof_maps`` as one (M, nz, nx) array."""
    _, maps = got
    return np.stack([m.reshape(grid.x.size, grid.z.size).T for m in maps])


def assert_views_of_table(got, tx):
    table, maps = got
    assert table.shape == tx.shape
    for m in maps:
        assert m.ndim == 1 and np.shares_memory(m, table)


def assert_maps_match(got, want):
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    ok = ~nan
    assert np.all(np.abs(got[ok] - want[ok]) <= REL * want[ok])


def record_calls(mp):
    """Route imaging.tof_maps through a recorder; returns its list of
    (sources, tx, tz, workers), one per call."""
    seen = []

    def recording(medium, sources, tx, tz, opts=SolverOptions(), workers=1):
        seen.append((list(sources), np.array(tx), np.array(tz), workers))
        return tof_maps(medium, sources, tx, tz, opts, workers=workers)

    mp.setattr(imaging, "tof_maps", recording)
    return seen


@pytest.fixture
def calls(monkeypatch):
    return record_calls(monkeypatch)


def proxon_rows():
    # proxon's array and lateral grid, a few rows in each layer.
    grid = ImageGrid.from_extent(-15 * MM, 15 * MM, 2 * MM, 47 * MM, 0.1 * MM)
    return ImageGrid(grid.x, grid.z[::40])


def _grid(x_lo=-5 * MM, x_hi=5 * MM):
    """Columns 0.5 mm apart, nine rows from 4 to 20 mm."""
    x = ImageGrid.from_extent(x_lo, x_hi, 0.0, 0.0, 0.5 * MM).x
    return ImageGrid(x, np.linspace(4 * MM, 20 * MM, 9))


class TestTable:
    def test_proxon_matches_direct_maps(self, calls):
        arr = linear_array(64, 0.15 * MM)
        grid = proxon_rows()
        got = _shared_tof_maps(proxon_medium(), arr.element_positions, grid)
        [(sources, tx, _, _)] = calls
        assert sources == [Point2(0.0, 0.0)]
        assert 4 * tx.shape[0] <= 64 * grid.x.size
        assert_views_of_table(got, tx)
        assert_maps_match(stacked(got, grid),
                          direct_maps(proxon_medium(), arr.element_positions,
                                      grid))

    def test_few_repeated_offsets_match_direct_maps(self, calls):
        # A pitch that is no multiple of the spacing: few offsets repeat,
        # and each element's offsets are a class of their own.
        arr = linear_array(16, 0.37 * MM)
        got = _shared_tof_maps(proxon_medium(), arr.element_positions,
                               _grid())
        [(sources, tx, _, _)] = calls
        assert sources == [Point2(0.0, 0.0)]
        assert_views_of_table(got, tx)
        assert_maps_match(stacked(got, _grid()),
                          direct_maps(proxon_medium(), arr.element_positions,
                                      _grid()))

    @SETTINGS
    @given(n_iface=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
           n_el=st.integers(8, 12), pitch_cells=st.integers(1, 3),
           nx=st.integers(30, 40))
    def test_random_flat_media_match_direct_maps(self, n_iface, seed, n_el,
                                                 pitch_cells, nx):
        # Pitch a multiple of the pixel spacing, so the offsets repeat and
        # the table is used; an off-centre domain, so its middle is not 0.
        rng = np.random.default_rng(seed)
        spacing = rng.uniform(0.05, 0.3) * MM
        arr = linear_array(n_el, pitch_cells * spacing,
                           center_x=rng.uniform(-1, 1) * MM)
        grid = ImageGrid((np.arange(nx) - 0.5 * (nx - 1)) * spacing,
                         np.linspace(1 * MM, 40 * MM, 14))
        reach = max(abs(grid.x[0] - arr.xs[-1]), abs(grid.x[-1] - arr.xs[0]))
        reach += 2 * spacing
        dom = (-reach - rng.uniform(0, 5) * MM, reach + rng.uniform(0, 5) * MM)
        depths = np.sort(rng.choice(np.arange(2, 30), n_iface,
                                    replace=False)) * MM
        speeds = rng.uniform(1300.0, 1700.0, n_iface + 1)
        med = Medium(speeds, [Constant(d, dom) for d in depths], dom)
        with pytest.MonkeyPatch.context() as mp:
            seen = record_calls(mp)
            got = _shared_tof_maps(med, arr.element_positions, grid)
        [(sources, tx, _, _)] = seen
        assert sources == [Point2(0.5 * sum(dom), 0.0)]
        assert_views_of_table(got, tx)
        assert_maps_match(stacked(got, grid),
                          direct_maps(med, arr.element_positions, grid))

    @pytest.mark.parametrize("medium, sources, grid", [
        # An off-centre domain that holds every pixel and element but not
        # every offset: a one-speed table needs neither its middle nor it.
        pytest.param(homogeneous_medium(dom=(-8 * MM, 30 * MM)),
                     linear_array(16, 0.5 * MM).element_positions,
                     _grid(), id="one-speed"),
        # Found by a seeded search over random pitch/spacing layouts: this
        # element's offsets, one pixel spacing apart, rounded to keys in two
        # classes when each offset was keyed on its own.
        pytest.param(proxon_medium(), [Point2(-0.0035744112799467936, 0.0)],
                     ImageGrid(-0.0021496630954781696
                               + np.arange(34) * 0.00014848173532943051,
                               _grid().z), id="offsets-not-one-run"),
        pytest.param(proxon_medium(),
                     linear_array(16, 0.5 * MM).element_positions,
                     ImageGrid(_grid().x[::-1], _grid().z),
                     id="descending-columns"),
    ])
    def test_case_matches_direct_maps(self, calls, medium, sources, grid):
        got = _shared_tof_maps(medium, sources, grid)
        [(seen, tx, _, _)] = calls
        assert seen == [Point2(0.0, 0.0)]
        assert_views_of_table(got, tx)
        assert_maps_match(stacked(got, grid),
                          direct_maps(medium, sources, grid))

    def test_independent_of_workers(self):
        arr = linear_array(64, 0.15 * MM)
        grid = proxon_rows()
        one = _shared_tof_maps(proxon_medium(), arr.element_positions, grid,
                               workers=1)
        two = _shared_tof_maps(proxon_medium(), arr.element_positions, grid,
                               workers=2)
        assert one[0].tobytes() == two[0].tobytes()
        assert stacked(one, grid).tobytes() == stacked(two, grid).tobytes()


def _fallbacks():
    arr = linear_array(16, 0.5 * MM)
    dom = (-20 * MM, 20 * MM)
    narrow = (-8 * MM, 8 * MM)  # holds every pixel and element, not x_c + offset
    staggered = [Point2(p.x, 0.1 * MM * (i % 2))
                 for i, p in enumerate(arr.element_positions)]
    cases = {
        "tilted-interface": (Medium((1400.0, 1540.0),
                                    (Linear(0.05, 9 * MM, dom),), dom),
                             arr.element_positions, _grid()),
        "sources-at-two-depths": (proxon_medium(), staggered, _grid()),
        "translated-target-outside-the-domain": (
            Medium((1400.0, 1540.0), (Constant(9 * MM, narrow),), narrow),
            arr.element_positions, _grid()),
        # Offsets within +-8 mm of the middle, but a pixel or an element
        # past the domain's edge.
        "pixel-outside-the-domain": (
            proxon_medium(),
            linear_array(16, 0.5 * MM, center_x=-16 * MM).element_positions,
            _grid(-21 * MM, -13 * MM)),
        "source-outside-the-domain": (
            proxon_medium(),
            linear_array(16, 0.5 * MM, center_x=17.5 * MM).element_positions,
            _grid(14 * MM, 19 * MM)),
        # One extra column at 0.13 mm: keys from each element's first
        # offset would put the columns after it 0.37 mm off.
        "uneven-columns": (
            proxon_medium(), arr.element_positions,
            ImageGrid(np.sort(np.append(_grid().x, 0.13 * MM)), _grid().z)),
        "one-pixel-column": (proxon_medium(), arr.element_positions,
                             ImageGrid(np.array([1 * MM]), _grid().z)),
        # Zero spacing between the first two columns would key offsets
        # in units of zero.
        "coinciding-columns": (proxon_medium(), arr.element_positions,
                               ImageGrid(np.array([0, 0, 1, 2]) * MM,
                                         _grid().z)),
    }
    return [pytest.param(*case, id=name) for name, case in cases.items()]


@pytest.mark.parametrize("medium, sources, grid", _fallbacks())
def test_fallback_solves_every_map(calls, medium, sources, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _shared_tof_maps(medium, sources, grid, workers=2)
    gx, gz = np.meshgrid(grid.x, grid.z, indexing="ij")
    [(seen_sources, tx, tz, workers)] = calls
    assert seen_sources == list(sources)
    assert np.array_equal(tx, gx) and np.array_equal(tz, gz)
    assert workers == 2
    base, maps = got
    for m, row in zip(maps, base):
        assert np.shares_memory(m, row)
    assert (stacked(got, grid).tobytes()
            == direct_maps(medium, sources, grid).tobytes())


class TestHmfa:
    """hmfa's maps are views of one closed-form table."""

    CHANNELS = ChannelDataSet(np.zeros((64, 64, 64), dtype=np.float32), 4e7)

    @classmethod
    def beamform(cls, grid, workers=1):
        return das_beamform(cls.CHANNELS, None, linear_array(64, 0.15 * MM),
                            grid, "hmfa", scale="linear", workers=workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_maps_are_views_of_one_table(self, monkeypatch, workers):
        tables, sums = [], []
        real_tof_maps, real_das_sum = imaging.tof_maps, imaging._das_sum

        def recording(medium, sources, tx, tz, opts=SolverOptions(),
                      workers=1):
            tables.append((list(sources),
                           real_tof_maps(medium, sources, tx, tz, opts,
                                         workers=workers)))
            return tables[-1][1]

        def summing(channels, idx_maps, workers=1):
            sums.append([m.copy() for m in idx_maps])
            assert all(np.shares_memory(m, tables[0][1]) for m in idx_maps)
            return real_das_sum(channels, idx_maps, workers)

        monkeypatch.setattr(imaging, "tof_maps", recording)
        monkeypatch.setattr(imaging, "_das_sum", summing)
        grid = proxon_rows()
        self.beamform(grid, workers)
        [(sources, _)] = tables
        assert sources == [Point2(0.0, 0.0)]
        [maps] = sums
        got = np.stack([m.reshape(grid.x.size, grid.z.size).T
                        for m in maps]) / 4e7
        xs = linear_array(64, 0.15 * MM).xs
        want = np.hypot(grid.x[None, None, :] - xs[:, None, None],
                        grid.z[None, :, None]) / 1540.0
        assert_maps_match(got, want)

    def test_peak_memory(self):
        # Every 10th row of proxon's grid.  A stack of per-element maps
        # peaked at 8.0 MB here (78.3 MB on the full grid); the table's
        # views peak at 2.1 MB (14.9 MB).
        full = ImageGrid.from_extent(-15 * MM, 15 * MM, 2 * MM, 47 * MM,
                                     0.1 * MM)
        grid = ImageGrid(full.x, full.z[::10])
        tracemalloc.start()
        try:
            self.beamform(grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
