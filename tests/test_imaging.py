"""Channel synthesis, envelope extraction, DAS beamforming, beam profiles."""

import math
import os
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from goatfocus import imaging
from goatfocus.batch import tof_maps
from goatfocus.errors import ChannelFileError, RoiError
from goatfocus.focusing import linear_array
from goatfocus.goatsolve import SolverOptions
from goatfocus.imaging import (
    ChannelDataSet,
    Image,
    ImageGrid,
    Pulse,
    _das_sum,
    beam_profile,
    das_beamform,
    envelope,
    peak_position,
    quantize_db_image,
    read_channels,
    stream_channels,
    synthesize_channels,
    write_channels,
    write_p5,
)
from goatfocus.medium import Constant, Linear, Medium, Point2
from goatfocus.scenario import load

from cases import (
    CENTER_X,
    MM,
    homogeneous_medium,
    proxon_medium,
    setting2_medium,
)

US = 1e-6
FS = 100e6
PULSE = Pulse(5e6, 0.6)


def small_homog_setup():
    med = homogeneous_medium()
    arr = linear_array(8, 1.0 * MM)
    scat = [(Point2(0.0, 25 * MM), 1.0)]
    return med, arr, scat


def masked_synthesis(tofs, amps, pulse, fs, nt, t0):
    """The per-pair loop ``synthesize_channels`` replaced, kept as the
    reference for its indexed adds."""
    M = tofs.shape[0]
    samples = np.zeros((M, M, nt))
    win = int(math.ceil(pulse.support * fs))
    for k, amp in enumerate(amps):
        for i in range(M):
            ti = tofs[i, k]
            if not np.isfinite(ti):
                continue
            for j in range(M):
                tj = tofs[j, k]
                if not np.isfinite(tj):
                    continue
                tau = ti + tj
                center = (tau - t0) * fs
                a = max(0, int(math.ceil(center)) - win)
                b = min(nt, int(math.floor(center)) + win + 1)
                if a >= b:
                    continue
                tt = t0 + np.arange(a, b) / fs - tau
                samples[i, j, a:b] += amp * pulse(tt)
    return samples


def masked_das_sum(channels, idx_maps):
    """The masked gather ``_das_sum`` replaced, on float64 samples as the
    old ``read_channels`` returned them; kept as the reference."""
    samples = channels.samples.astype(float)
    M, nt = channels.n_elements, channels.n_samples
    base = -channels.t0 * channels.sample_rate
    acc = np.zeros(idx_maps.shape[1])
    if np.array_equal(samples, samples.swapaxes(0, 1)):
        pairs = [(i, j, 1.0 if i == j else 2.0)
                 for i in range(M) for j in range(i, M)]
    else:
        pairs = [(i, j, 1.0) for i in range(M) for j in range(M)]
    for i, j, weight in pairs:
        t = idx_maps[i] + idx_maps[j] + base
        i0 = np.floor(t).astype(np.int64)
        valid = (i0 >= 0) & (i0 < nt - 1)
        i0c = np.where(valid, i0, 0)
        w = t - i0
        tr = samples[i, j]
        vals = tr[i0c] * (1.0 - w) + tr[i0c + 1] * w
        np.add(acc, np.where(valid, vals, 0.0) * weight, out=acc)
    return acc


class TestPulse:
    def test_envelope_peak_at_zero(self):
        t = np.linspace(-1 * US, 1 * US, 2001)
        y = PULSE(t)
        assert abs(t[np.argmax(np.abs(y))]) <= 1e-8

    def test_support_bounds_amplitude(self):
        s = PULSE.support
        assert abs(PULSE(s)) <= 1e-7
        assert s < 1 * US

    def test_minus_6db_bandwidth(self):
        # The spectrum magnitude at f0*(1 +/- bw/2) must sit at -6 dB.
        fs = 400e6
        t = (np.arange(16384) - 8192) / fs
        y = PULSE(t)
        spec = np.abs(np.fft.rfft(y))
        freq = np.fft.rfftfreq(t.size, 1 / fs)
        peak = np.max(spec)
        for edge in (5e6 * (1 - 0.3), 5e6 * (1 + 0.3)):
            val = np.interp(edge, freq, spec) / peak
            assert 20 * math.log10(val) == pytest.approx(-6.0, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Pulse(-1.0, 0.6)
        with pytest.raises(ValueError):
            Pulse(5e6, 2.5)


class TestSynthesizeChannels:
    def test_on_axis_peak_at_round_trip_time(self):
        med, arr, scat = small_homog_setup()
        ch = synthesize_channels(med, arr, scat, PULSE, FS, 60 * US)
        m = 3  # element near the axis
        trace = ch.samples[m, m]
        tof = (Point2(arr.xs[m], 0.0).dist(scat[0][0])) / 1540.0
        peak_idx = np.argmax(envelope(trace))
        assert abs(peak_idx / FS - 2 * tof) <= 1.0 / FS

    def test_reciprocity_bit_identical(self):
        med, arr, scat = small_homog_setup()
        ch = synthesize_channels(med, arr, scat, PULSE, FS, 60 * US)
        assert np.array_equal(ch.samples, ch.samples.swapaxes(0, 1))

    def test_slow_layer_delays_arrivals(self):
        # A 9 mm slower slab shifts the on-axis round trip by
        # 2 * 9 mm * (1/1393.5 - 1/1540) relative to the homogeneous case.
        arr = linear_array(4, 0.5 * MM)
        scat = [(Point2(0.0, 25 * MM), 1.0)]
        hom = homogeneous_medium(dom=(-20 * MM, 20 * MM))
        ch_h = synthesize_channels(hom, arr, scat, PULSE, FS, 70 * US)
        ch_p = synthesize_channels(proxon_medium(), arr, scat, PULSE, FS, 70 * US)
        shift_expected = 2 * 9 * MM * (1 / 1393.5 - 1 / 1540.0)
        for m in range(4):
            ph = np.argmax(envelope(ch_h.samples[m, m]))
            pp = np.argmax(envelope(ch_p.samples[m, m]))
            assert (pp - ph) / FS == pytest.approx(shift_expected, abs=2.5 / FS)

    def test_additive_in_scatterers(self):
        med, arr, _ = small_homog_setup()
        s1 = [(Point2(-2 * MM, 22 * MM), 1.0)]
        s2 = [(Point2(3 * MM, 28 * MM), 0.7)]
        both = synthesize_channels(med, arr, s1 + s2, PULSE, FS, 60 * US)
        a = synthesize_channels(med, arr, s1, PULSE, FS, 60 * US)
        b = synthesize_channels(med, arr, s2, PULSE, FS, 60 * US)
        assert np.array_equal(both.samples, a.samples + b.samples)

    @pytest.mark.parametrize("t0", [0.0, 1.5 * US])
    def test_matches_per_pair_loop(self, t0, monkeypatch):
        # Hand-made ToFs: scatterer 0 sits so close that its windows are
        # clipped at sample 0, scatterer 2 is the deepest and its windows
        # run past the last sample, the windows of 1, 2 and 3 overlap in
        # every trace, and element 2 has no path to scatterer 1.
        M = 6
        spread = np.linspace(0.0, 0.05 * US, M)
        tofs = np.column_stack([t0 / 2 + 0.2 * US + spread,
                                t0 / 2 + 9.5 * US + spread,
                                t0 / 2 + 10.0015 * US + spread,
                                t0 / 2 + 9.8 * US + spread])
        tofs[2, 1] = np.nan
        amps = [1.0, 0.7, -0.4, 1.3]
        duration = 2.0 * np.nanmax(tofs) + PULSE.support - t0
        nt = int(round(duration * FS))
        win = int(math.ceil(PULSE.support * FS))
        center = (2.0 * tofs - t0) * FS  # diagonal pairs
        assert np.nanmin(np.ceil(center)) - win < 0
        assert np.nanmax(np.floor(center)) + win + 1 > nt
        assert np.nanmax(np.ptp(center[:, 1:], axis=1)) < 2 * win
        arr = linear_array(M, 1.0 * MM)
        scat = [(Point2(0.0, (k + 1) * MM), a) for k, a in enumerate(amps)]
        # The float64 sums, rounded once to the float32 the set holds.
        want = masked_synthesis(tofs, amps, PULSE, FS, nt, t0).astype(
            np.float32)
        # Default blocks, one buffer reused for each, then blocks of 4 (the
        # second one short).
        for tx_rows in (imaging._SYNTH_TX_ROWS, 4):
            monkeypatch.setattr(imaging, "_SYNTH_TX_ROWS", tx_rows)
            ch = synthesize_channels(homogeneous_medium(), arr, scat, PULSE,
                                     FS, duration, t0, tofs=tofs)
            assert ch.samples.shape == want.shape
            assert np.array_equal(ch.samples, want)
            assert ch.omitted == ((2, 1, "no refracted path"),)

    def test_independent_of_block_size(self, monkeypatch):
        # Blocks of 1, 3 (the last one short) and 8 of 8 transmits through
        # a refracting medium.
        arr = linear_array(8, 1.0 * MM)
        scat = [(Point2(x * MM, z * MM), a) for x, z, a in
                ((0.0, 12.0, 1.0), (-2.0, 20.0, 0.6), (3.0, 25.0, -0.8))]
        ref = synthesize_channels(proxon_medium(), arr, scat, PULSE, FS,
                                  60 * US)
        for tx_rows in (1, 3, 8):
            monkeypatch.setattr(imaging, "_SYNTH_TX_ROWS", tx_rows)
            ch = synthesize_channels(proxon_medium(), arr, scat, PULSE, FS,
                                     60 * US)
            assert np.array_equal(ch.samples, ref.samples)

    @pytest.mark.parametrize("medium, array, scatterers, omitted", [
        pytest.param(proxon_medium(), linear_array(8, 1.0 * MM),
                     [(Point2(-2 * MM, 12 * MM), 1.0),
                      (Point2(3 * MM, 25 * MM), -0.8)], set(), id="proxon"),
        pytest.param(setting2_medium(), linear_array(8, 2.0 * MM, CENTER_X),
                     [(Point2(10 * MM, 72 * MM), 1.0),
                      (Point2(25 * MM, 80 * MM), 0.6)], set(), id="ellipse"),
        # Element 0 (x = 0) reaches neither scatterer: the domain starts
        # at 28 mm, so every crossing it may use is past the critical angle.
        pytest.param(Medium((1480.0, 2200.0),
                            (Constant(30 * MM, (28 * MM, 50 * MM)),),
                            (28 * MM, 50 * MM)),
                     linear_array(8, 4.0 * MM, 14 * MM),
                     [(Point2(40 * MM, 32 * MM), 1.0),
                      (Point2(33 * MM, 31 * MM), 0.7)], {(0, 0), (0, 1)},
                     id="omitted"),
    ])
    def test_reciprocal_bit_for_bit(self, medium, array, scatterers, omitted):
        # A cold beamform sums the stream's pairs folded, with no check:
        # each sample adds tof(tx, k) + tof(rx, k) over the same scatterers
        # either way, and IEEE addition commutes.
        ch = synthesize_channels(medium, array, scatterers, PULSE, FS,
                                 120 * US)
        assert {(m, k) for m, k, _ in ch.omitted} == omitted
        assert np.any(ch.samples != 0.0)
        assert np.array_equal(ch.samples, ch.samples.swapaxes(0, 1))
        assert ch.symmetric

    def test_memory_bounded_on_proxon(self):
        # The whole float64 cube alone was twice the float32 output here.
        scn = load("proxon")
        fs, cut = scn.imaging.sample_rate, scn.pulse.support
        sx = np.array([p.x for p, _ in scn.imaging.scatterers])
        sz = np.array([p.z for p, _ in scn.imaging.scatterers])
        tofs = tof_maps(scn.medium, scn.array.element_positions, sx, sz)
        t0 = math.floor((2.0 * np.min(tofs) - 2 * cut) * fs) / fs
        duration = 2.0 * np.max(tofs) + 2 * cut - t0 + 16 / fs
        M, nt = len(scn.array), int(round(duration * fs))
        assert (M, nt) == (64, 4563)
        tracemalloc.start()
        try:
            ch = synthesize_channels(scn.medium, scn.array,
                                     scn.imaging.scatterers, scn.pulse, fs,
                                     duration, t0, tofs=tofs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out = M * M * nt * 4  # 74.8 MB
        # The float64 block buffer and one float32 block: 7.0 MB.
        buffers = imaging._SYNTH_TX_ROWS * M * nt * (8 + 4)
        # The per-scatterer index and pulse temporaries, about 1.5 MB at
        # 2 transmits x 64 receivers x 153 window samples.
        slack = 4e6
        assert peak < out + buffers + slack
        assert ch.samples.dtype == np.float32

    def test_duration_must_cover_round_trip(self):
        med, arr, scat = small_homog_setup()
        with pytest.raises(ValueError):
            synthesize_channels(med, arr, scat, PULSE, FS, 10 * US)

    def test_sample_rate_validation(self):
        med, arr, scat = small_homog_setup()
        with pytest.raises(ValueError):
            synthesize_channels(med, arr, scat, PULSE, 12e6, 60 * US)


class TestEnvelope:
    def test_cosine_burst_interior_is_flat(self):
        fs = 100e6
        n = 4096
        t = np.arange(n) / fs
        trace = np.zeros(n)
        burst = slice(n // 4, 3 * n // 4)
        trace[burst] = np.cos(2 * np.pi * 5e6 * t[burst])
        env = envelope(trace)
        interior = env[n // 4 + n // 8: 3 * n // 4 - n // 8]
        assert np.max(np.abs(interior - 1.0)) <= 0.05

    def test_zero_trace(self):
        assert np.all(envelope(np.zeros(64)) == 0.0)

    def test_gaussian_pulse_peak_preserved(self):
        fs = 100e6
        t = (np.arange(2048) - 700) / fs
        env = envelope(PULSE(t))
        assert abs(int(np.argmax(env)) - 700) <= 1

    def test_too_short(self):
        with pytest.raises(ValueError):
            envelope(np.zeros(8))

    @pytest.mark.parametrize("n", [1023, 1024])
    def test_matches_scipy_hilbert(self, rng, n):
        signal = pytest.importorskip("scipy.signal")
        traces = rng.standard_normal((5, n))
        for x in (traces[0], traces):
            want = np.abs(signal.hilbert(x, axis=-1))
            assert np.max(np.abs(envelope(x) - want)) <= 1e-12 * np.max(want)


class TestDasBeamform:
    def test_single_scatterer_peak_at_true_position(self):
        med, arr, scat = small_homog_setup()
        ch = synthesize_channels(med, arr, scat, PULSE, FS, 60 * US)
        grid = ImageGrid.from_extent(-6 * MM, 6 * MM, 20 * MM, 30 * MM, 0.1 * MM)
        img = das_beamform(ch, med, arr, grid, "goat")
        pk = peak_position(img, (-6 * MM, 6 * MM, 20 * MM, 30 * MM))
        wavelength = 1540.0 / 5e6
        assert pk.dist(scat[0][0]) <= wavelength / 2

    def test_peak_on_pixel_aligned_roi_edge(self):
        # The CLI's 5 mm ROI around proxon's (2.5, 15) mm scatterer: its
        # z_hi rounds to just below the 17.5 mm grid row, where the
        # maximum lies.
        grid = load("proxon").imaging.grid
        half = 2.5 * MM
        roi = (0.0, 2.5 * MM + half, 15 * MM - half, 15 * MM + half)
        iz = int(np.argmin(np.abs(grid.z - 17.5 * MM)))
        ix = int(np.argmin(np.abs(grid.x - 1 * MM)))
        assert grid.z[iz] > roi[3]
        intensity = np.full((grid.z.size, grid.x.size), -60.0)
        intensity[iz, ix] = 0.0
        intensity[iz - 1, ix] = -1.0
        pk = peak_position(Image(grid, intensity, "db"), roi)
        assert (pk.x, pk.z) == (grid.x[ix], grid.z[iz])

    def test_homogeneous_engines_identical(self):
        med, arr, scat = small_homog_setup()
        ch = synthesize_channels(med, arr, scat, PULSE, FS, 60 * US)
        grid = ImageGrid.from_extent(-5 * MM, 5 * MM, 20 * MM, 30 * MM, 0.2 * MM)
        img_g = das_beamform(ch, med, arr, grid, "goat")
        img_h = das_beamform(ch, None, arr, grid, "hmfa")
        assert np.max(np.abs(img_g.intensity - img_h.intensity)) <= 1e-12

    def test_linearity_pre_envelope(self):
        med, arr, _ = small_homog_setup()
        s1 = [(Point2(-2 * MM, 22 * MM), 1.0)]
        s2 = [(Point2(3 * MM, 27 * MM), 0.6)]
        grid = ImageGrid.from_extent(-5 * MM, 5 * MM, 20 * MM, 30 * MM, 0.25 * MM)
        both = das_beamform(
            synthesize_channels(med, arr, s1 + s2, PULSE, FS, 60 * US),
            med, arr, grid, "goat", scale="linear")
        a = das_beamform(synthesize_channels(med, arr, s1, PULSE, FS, 60 * US),
                         med, arr, grid, "goat", scale="linear")
        b = das_beamform(synthesize_channels(med, arr, s2, PULSE, FS, 60 * US),
                         med, arr, grid, "goat", scale="linear")
        scale = np.max(np.abs(both.intensity))
        assert np.max(np.abs(both.intensity - (a.intensity + b.intensity))) \
            <= 1e-10 * scale

    def test_matched_engine_aligns_contributions(self):
        # Beamforming with the same engine that synthesized the data must
        # gather each trace within one sample of its peak at the scatterer.
        med, arr, scat = small_homog_setup()
        ch = synthesize_channels(med, arr, scat, PULSE, FS, 60 * US)
        p = scat[0][0]
        for i in range(len(arr)):
            for j in range(len(arr)):
                ti = Point2(arr.xs[i], 0.0).dist(p) / 1540.0
                tj = Point2(arr.xs[j], 0.0).dist(p) / 1540.0
                idx = (ti + tj) * FS
                peak = np.argmax(envelope(ch.samples[i, j]))
                assert abs(idx - peak) <= 1.0

    @pytest.mark.parametrize("flat", [True, False],
                             ids=["table", "per-element"])
    def test_failed_delays_leave_pixels_absent(self, monkeypatch, flat):
        # ToFs to targets more than 1 mm right of the source and below
        # 20 mm fail, both from the table's middle source and from each
        # element; a pixel is absent when any element's delay failed.
        dom = (-20 * MM, 20 * MM)
        med = proxon_medium() if flat else Medium(
            (1393.5, 1540.0), (Linear(0.05, 9 * MM, dom),), dom)
        arr = linear_array(8, 0.5 * MM)
        ch = synthesize_channels(med, arr, [(Point2(0.0, 15 * MM), 1.0)],
                                 PULSE, FS, 40 * US)
        real = imaging.tof_maps

        def failing(medium, sources, tx, tz, opts=SolverOptions(), workers=1):
            out = real(medium, sources, tx, tz, opts, workers=workers)
            for src, o in zip(sources, out):
                o[(tx - src.x > 1 * MM) & (tz > 20 * MM)] = np.nan
            return out

        monkeypatch.setattr(imaging, "tof_maps", failing)
        grid = ImageGrid.from_extent(-4 * MM, 4 * MM, 12 * MM, 30 * MM,
                                     0.25 * MM)
        gx, gz = np.meshgrid(grid.x, grid.z, indexing="xy")
        absent = (gx - arr.xs.min() > 1 * MM) & (gz > 20 * MM)
        assert 0 < np.count_nonzero(absent) < absent.size
        lin = das_beamform(ch, med, arr, grid, "goat", scale="linear")
        assert np.array_equal(np.isnan(lin.intensity), absent)
        db = das_beamform(ch, med, arr, grid, "goat").intensity
        assert np.all(db[absent] == -60.0) and np.max(db[~absent]) == 0.0

    def test_db_image_normalization(self):
        med, arr, scat = small_homog_setup()
        ch = synthesize_channels(med, arr, scat, PULSE, FS, 60 * US)
        grid = ImageGrid.from_extent(-5 * MM, 5 * MM, 20 * MM, 30 * MM, 0.2 * MM)
        img = das_beamform(ch, med, arr, grid, "goat")
        assert img.scale == "db"
        assert np.max(img.intensity) == 0.0
        assert np.min(img.intensity) >= -60.0

    def test_das_sum_independent_of_workers(self, rng):
        # More workers than cores, uneven pixel slices, a non-symmetric
        # channel set and delays partly outside the traces; a short switch
        # interval interleaves the workers as often as possible.
        ch = ChannelDataSet(rng.standard_normal((4, 4, 200)), FS)
        idx = rng.uniform(-5.0, 110.0, (4, 1001))
        ref = _das_sum(ch, idx, workers=1)
        switch = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for n in (2, 5):
                assert np.array_equal(_das_sum(ch, idx, workers=n), ref)
        finally:
            sys.setswitchinterval(switch)

    def test_das_sum_opens_no_more_slices_than_pixels(self, rng, monkeypatch):
        ch = ChannelDataSet(rng.standard_normal((4, 4, 200)), FS)
        idx = rng.uniform(-5.0, 110.0, (4, 3))
        ref = _das_sum(ch, idx, workers=1)
        pools = []
        real = imaging.ThreadPoolExecutor

        def recording(max_workers):
            pools.append(max_workers)
            return real(max_workers)

        monkeypatch.setattr(imaging, "ThreadPoolExecutor", recording)
        assert np.array_equal(_das_sum(ch, idx, workers=8), ref)
        assert pools == [3]


class TestDasGather:
    """``_das_sum`` against the masked gather it replaced, bit for bit."""

    NT = 64

    def delays(self, rng, M):
        # Pixels where every element has the same one-way delay v, so that
        # every pair reads the trace at t = 2v: below 0, in [nt-2, nt-1),
        # exactly nt-1 and beyond nt; then random delays across the trace.
        nt = self.NT
        edge = np.array([-7.3, -1.0, -1e-9, 0.0, 1e-9, 0.5, nt - 2.0,
                         nt - 1.5, nt - 1.0 - 1e-9, nt - 1.0, nt - 1.0 + 1e-9,
                         nt - 0.5, nt, nt + 0.25, nt + 40.0]) / 2.0
        spread = rng.uniform(-4.0, (nt + 4.0) / 2.0, (M, 301))
        return np.hstack([np.tile(edge, (M, 1)), spread])

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_matches_masked_gather(self, rng, n_workers, dtype, symmetric):
        M = 5
        raw = rng.standard_normal((M, M, self.NT))
        if symmetric:
            raw = raw + raw.swapaxes(0, 1)
        ch = ChannelDataSet(raw.astype(dtype), FS)
        assert np.array_equal(ch.samples, ch.samples.swapaxes(0, 1)) \
            == symmetric
        idx = self.delays(rng, M)
        got = _das_sum(ch, idx, workers=n_workers)
        assert np.array_equal(got, masked_das_sum(ch, idx))
        # The edge pixels read zeros outside [0, nt - 1) and only there.
        assert np.all(got[[0, 1, 2, 9, 10, 11, 12, 13, 14]] == 0.0)
        assert np.all(got[[3, 4, 5, 6, 7, 8]] != 0.0)

    def test_matches_masked_gather_with_t0(self, rng):
        # A non-zero t0 shifts every delay by a non-integer base.
        ch = ChannelDataSet(rng.standard_normal((3, 3, self.NT))
                            .astype(np.float32), FS, t0=0.37 / FS)
        idx = self.delays(rng, 3)
        assert np.array_equal(_das_sum(ch, idx), masked_das_sum(ch, idx))

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_blocks_match_whole_set(self, rng, symmetric):
        # A stream's blocks of 1, 2 and 3 transmits (the last one short) on
        # one to three workers, against the whole set read as one block; a
        # short switch interval interleaves the slices and the reader.
        M = 5
        raw = rng.standard_normal((M, M, self.NT))
        if symmetric:
            raw = raw + raw.swapaxes(0, 1)
        ch = ChannelDataSet(raw.astype(np.float32), FS, t0=0.37 / FS)
        assert ch.symmetric == symmetric
        idx = self.delays(rng, M)
        want = _das_sum(ch, idx)
        assert np.array_equal(want, masked_das_sum(ch, idx))
        switch = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for rows in (1, 2, 3):
                for n_workers in (1, 2, 3):
                    blocks = ((s, ch.samples[s:s + rows])
                              for s in range(0, M, rows))
                    stream = SimpleNamespace(blocks=blocks, t0=ch.t0,
                                             symmetric=symmetric,
                                             sample_rate=FS)
                    got = _das_sum(stream, idx, workers=n_workers)
                    assert got.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(switch)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_list_of_views_matches_stacked_array(self, rng, n_workers):
        # Overlapping x-major views of one table, as the flat-medium ToF
        # table hands them over, against their stacked copy.
        M, nx, nz = 5, 7, 11
        raw = rng.standard_normal((M, M, self.NT))
        ch = ChannelDataSet((raw + raw.swapaxes(0, 1)).astype(np.float32), FS)
        table = rng.uniform(-4.0, (self.NT + 4.0) / 2.0, (nx + 2 * M, nz))
        views = [table[2 * m:2 * m + nx].reshape(-1) for m in range(M)]
        assert all(np.shares_memory(v, table) for v in views)
        got = _das_sum(ch, views, workers=n_workers)
        want = _das_sum(ch, np.stack(views), workers=n_workers)
        assert got.tobytes() == want.tobytes()


class TestBeamProfile:
    def test_gaussian_ridge_fwhm(self):
        # Synthetic dB image holding a Gaussian ridge of known width.
        sigma = 0.8 * MM
        grid = ImageGrid.from_extent(-8 * MM, 8 * MM, 0.0, 4 * MM, 0.05 * MM)
        gx, gz = np.meshgrid(grid.x, grid.z, indexing="xy")
        amp = np.exp(-gx**2 / (2 * sigma**2))
        db = 20 * np.log10(np.maximum(amp, 1e-6))
        img = Image(grid, np.maximum(db, -60.0), "db")
        prof = beam_profile(img, (-8 * MM, 8 * MM, 0.0, 4 * MM))
        assert prof.fwhm == pytest.approx(2.3548 * sigma, rel=0.02)

    def test_symmetric_profile(self):
        med, arr, scat = small_homog_setup()
        ch = synthesize_channels(med, arr, scat, PULSE, FS, 60 * US)
        grid = ImageGrid.from_extent(-4 * MM, 4 * MM, 22 * MM, 28 * MM, 0.1 * MM)
        img = das_beamform(ch, med, arr, grid, "goat")
        prof = beam_profile(img, (-4 * MM, 4 * MM, 22 * MM, 28 * MM))
        ipk = int(np.argmax(prof.values_db))
        center = prof.lateral_axis[ipk]
        assert abs(center - 0.0) <= 0.1 * MM + 1e-12

    def test_profile_without_peak_raises(self):
        grid = ImageGrid.from_extent(-5 * MM, 5 * MM, 0.0, 2 * MM, 0.1 * MM)
        flat = np.full((grid.z.size, grid.x.size), -3.0)
        with pytest.raises(RoiError):
            beam_profile(Image(grid, flat, "db"), (-5 * MM, 5 * MM, 0, 2 * MM))


class TestFileFormats:
    def test_channel_round_trip(self, tmp_path):
        med, arr, scat = small_homog_setup()
        ch = synthesize_channels(med, arr, scat, PULSE, FS, 60 * US)
        path = tmp_path / "channels.goatcd"
        write_channels(ch, path, provenance="test")
        back = read_channels(path)
        assert back.samples.shape == ch.samples.shape
        assert back.sample_rate == ch.sample_rate
        # float32 storage quantizes the samples
        assert np.max(np.abs(back.samples - ch.samples)) <= 1e-6
        with open(path, "rb") as fh:
            assert fh.read(8) == b"GOATCD1\n"

    def test_float64_and_float32_sets_write_same_bytes(self, rng, tmp_path):
        samples = rng.standard_normal((3, 3, 50))
        for name, s in (("f8", samples), ("f4", samples.astype(np.float32))):
            write_channels(ChannelDataSet(s, FS, 2e-6), tmp_path / name, "p")
        assert (tmp_path / "f8").read_bytes() == (tmp_path / "f4").read_bytes()

    def test_read_returns_stored_float32(self, rng, tmp_path):
        samples = rng.standard_normal((3, 3, 50))
        path = tmp_path / "ch.goatcd"
        write_channels(ChannelDataSet(samples, FS, 2e-6), path)
        back = read_channels(path)
        assert back.samples.dtype == np.float32
        assert np.array_equal(back.samples, samples.astype(np.float32))
        assert (back.sample_rate, back.t0) == (FS, 2e-6)

    def test_failed_write_leaves_no_file(self, rng, monkeypatch, tmp_path):
        # The second transmit's cast fails: the first is already on disk,
        # in the partial file, which the failure removes.
        real, casts = np.ascontiguousarray, []

        def cast(*args, **kwargs):
            casts.append(args)
            if len(casts) > 1:
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", cast)
        path = tmp_path / "ch.goatcd"
        with pytest.raises(OSError, match="disk full"):
            write_channels(ChannelDataSet(rng.standard_normal((3, 3, 50)), FS),
                           path)
        monkeypatch.undo()
        assert len(casts) == 2
        assert not path.exists()
        assert not (tmp_path / "ch.goatcd.part").exists()

    @pytest.mark.parametrize("edit, match", [
        (lambda raw: b"GOATCD2\n" + raw[8:], "bad magic"),
        (lambda raw: raw[:8] + b"{not json\n" + raw[raw.index(b"\n", 8):],
         "unreadable header"),
        (lambda raw: raw.replace(b'"n_tx": 3', b'"n_tx": -3'),
         "unreadable header"),
        (lambda raw: raw.replace(b'"<f4"', b'"<f8"'), "dtype '<f8'"),
        (lambda raw: raw[:-6], "1794 bytes of samples, the header gives "
                               "3 x 3 x 50 float32 samples"),
        (lambda raw: raw + b"\0" * 4, "1804 bytes"),
    ], ids=["magic", "json", "size", "dtype", "truncated", "trailing"])
    def test_bad_file_raises(self, tmp_path, edit, match):
        path = tmp_path / "ch.goatcd"
        write_channels(ChannelDataSet(np.zeros((3, 3, 50)), FS), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ChannelFileError, match=match) as exc:
            read_channels(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_read_write_byte_identical(self, tmp_path):
        med, arr, scat = small_homog_setup()
        ch = synthesize_channels(med, arr, scat, PULSE, FS, 60 * US, 1e-6)
        first, second = tmp_path / "a.goatcd", tmp_path / "b.goatcd"
        write_channels(ch, first, provenance="test")
        write_channels(read_channels(first), second, provenance="test")
        assert first.read_bytes() == second.read_bytes()

    def test_written_stream_matches_written_set(self, tmp_path):
        med, arr, scat = small_homog_setup()
        args = (med, arr, scat, PULSE, FS, 60 * US, 1e-6)
        write_channels(synthesize_channels(*args), tmp_path / "set.goatcd",
                       provenance="test")
        stream = stream_channels(*args).written_to(tmp_path / "s.goatcd",
                                                   "test")
        for _ in stream.blocks:
            assert not (tmp_path / "s.goatcd").exists()
        assert ((tmp_path / "s.goatcd").read_bytes()
                == (tmp_path / "set.goatcd").read_bytes())
        assert sorted(os.listdir(tmp_path)) == ["s.goatcd", "set.goatcd"]

    def test_stream_stopped_by_its_reader_leaves_no_file(self, tmp_path):
        # Maps for 5 of the 8 elements: the delay-and-sum fails on the first
        # block while the second is being written.
        med, arr, scat = small_homog_setup()
        stream = stream_channels(med, arr, scat, PULSE, FS, 60 * US)
        stream = stream.written_to(tmp_path / "ch.goatcd", "test")
        with pytest.raises(IndexError):
            _das_sum(stream, np.zeros((5, 10)), workers=2)
        assert os.listdir(tmp_path) == []

    def test_p5_layout(self, tmp_path):
        grid = ImageGrid.from_extent(0.0, 3 * MM, 0.0, 2 * MM, 1 * MM)
        db = np.full((grid.z.size, grid.x.size), -60.0)
        db[1, 2] = 0.0
        img = Image(grid, db, "db")
        path = tmp_path / "img.pgm"
        write_p5(img, path, provenance="test")
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n# test\n4 3\n255\n")
        pixels = np.frombuffer(raw[raw.index(b"255\n") + 4:], dtype=np.uint8)
        assert pixels.reshape(3, 4)[1, 2] == 255
        assert pixels.sum() == 255

    def test_quantization_range(self):
        grid = ImageGrid.from_extent(0.0, 1 * MM, 0.0, 1 * MM, 1 * MM)
        img = Image(grid, np.array([[-60.0, -30.0], [0.0, -75.0]]), "db")
        q = quantize_db_image(img)
        assert q[0, 0] == 0 and q[1, 0] == 255
        assert q[0, 1] == 128 or q[0, 1] == 127
        assert q[1, 1] == 0
