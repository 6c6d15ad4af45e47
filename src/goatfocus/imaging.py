"""Synthetic full-synthetic-aperture imaging harness.

Point-scatterer channel data is generated from two-point times of flight
through the layered medium (each element transmits alone, every element
receives), beamformed by delay-and-sum with either the straight-ray or the
refraction-corrected delay engine, and evaluated through lateral beam
profiles around the targets.  Everything is deterministic: fixed evaluation
order, no noise sources.

Channel data comes in blocks of ``_SYNTH_TX_ROWS`` transmits
(:func:`stream_channels`).  :func:`synthesize_channels` collects them into
one :class:`ChannelDataSet`; a cold command-line beamform instead solves its
ToF maps first, then synthesizes, writes and delay-and-sums one block at a
time (:meth:`ChannelStream.written_to`, :func:`das_beamform`), so it never
holds a whole set.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from queue import Queue
from threading import Event
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np
from numpy import fft

from .batch import tof_maps
from .errors import ChannelFileError, RoiError
from .focusing import ElementArray, engine_medium
from .goatsolve import SolverOptions
from .medium import Constant, Medium, Point2

DB_FLOOR = -60.0
MIN_ENVELOPE_SAMPLES = 16  # shortest trace :func:`envelope` accepts
_PULSE_SUPPORT_FLOOR = 1e-8  # envelope fraction treated as zero
# Transmits per synthesis block; sizes the float64 block buffer, the
# block's indexed-add temporaries and the float32 blocks a stream holds.
_SYNTH_TX_ROWS = 2
# Lateral offsets (pixel - element) within this fraction of the pixel
# spacing share a column of the flat-medium ToF table.
_OFFSET_TOL = 1e-9


@dataclass(frozen=True)
class Pulse:
    """Gaussian-modulated sinusoid; bandwidth is fractional at -6 dB."""

    center_frequency: float
    fractional_bandwidth: float = 0.6

    def __post_init__(self):
        if self.center_frequency <= 0:
            raise ValueError("center frequency must be positive")
        if not (0.0 < self.fractional_bandwidth < 2.0):
            raise ValueError("fractional bandwidth must be in (0, 2)")

    @property
    def _gauss_a(self) -> float:
        ref = 10.0 ** (-6.0 / 20.0)
        bwf = self.fractional_bandwidth * self.center_frequency
        return -((math.pi * bwf) ** 2) / (4.0 * math.log(ref))

    @property
    def min_sample_rate(self) -> float:
        """The rate (Hz) sampling must exceed: twice the upper band edge."""
        return 2.0 * self.center_frequency * (1.0 + self.fractional_bandwidth)

    @property
    def support(self) -> float:
        """Half-width outside which the envelope is below 1e-8 of peak."""
        return math.sqrt(math.log(1.0 / _PULSE_SUPPORT_FLOOR) / self._gauss_a)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-self._gauss_a * t * t) * np.cos(
            2.0 * math.pi * self.center_frequency * t)


@dataclass(frozen=True)
class ChannelDataSet:
    """Full-synthetic-aperture traces: samples[tx, rx, time].

    Synthesis and :func:`read_channels` both make float32 samples, the
    values the file stores, which :func:`_das_sum` upcasts exactly, one
    trace at a time.
    """

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0
    omitted: tuple[tuple[int, int, str], ...] = field(default=())
    provenance: str = ""  # the file header's, for a set read back

    @property
    def n_elements(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[2]

    @property
    def blocks(self):
        """The whole set as one (start, block) block, as :func:`_das_sum`
        reads a :class:`ChannelStream`."""
        yield 0, self.samples

    @property
    def symmetric(self) -> bool:
        """Whether samples[i, j] == samples[j, i] for every pair, compared one
        transmit at a time: comparing the whole set at once would allocate a
        boolean array of its size."""
        return all(np.array_equal(self.samples[i], self.samples[:, i])
                   for i in range(self.n_elements))


@dataclass(frozen=True)
class ChannelStream:
    """Synthesized channel data, read once, one block of transmits at a time.

    ``blocks`` yields (start, block) in transmit order, block being the
    float32 samples[start:start + len(block)] of the set ``shape``.  A
    synthesized set is reciprocal bit for bit: a sample adds tof(tx, k) +
    tof(rx, k) over the same scatterers in the same order either way, the
    live elements of a scatterer are the same set for both directions, and
    IEEE addition commutes.  So ``symmetric`` holds without a check.
    """

    blocks: Iterator[tuple[int, np.ndarray]]
    shape: tuple[int, int, int]
    sample_rate: float
    t0: float = 0.0
    omitted: tuple[tuple[int, int, str], ...] = field(default=())
    symmetric: ClassVar[bool] = True

    def written_to(self, path, provenance: str = "") -> ChannelStream:
        """This stream, each block appended to a channel file as it is read.

        The file holds the magic, one JSON header line, then the samples as
        raw little-endian float32 in (tx, rx, time) order.  It is written as
        ``path + ".part"`` and replaces ``path`` only after the last block,
        so a run that stops part-way leaves no partial file.
        """
        n_tx, n_rx, n_samples = map(int, self.shape)
        header = {"n_tx": n_tx, "n_rx": n_rx, "n_samples": n_samples,
                  "sample_rate_hz": self.sample_rate, "t0_s": self.t0,
                  "dtype": "<f4", "provenance": provenance}

        def blocks():
            part = f"{path}.part"
            try:
                with open(part, "wb") as fh:
                    fh.write(CHANNEL_MAGIC)
                    fh.write((json.dumps(header, sort_keys=True) + "\n").encode())
                    for start, block in self.blocks:
                        np.ascontiguousarray(block, dtype="<f4").tofile(fh)
                        yield start, block
                os.replace(part, path)
            finally:
                if os.path.exists(part):
                    os.remove(part)

        return replace(self, blocks=blocks())


@dataclass(frozen=True)
class ImageGrid:
    x: np.ndarray  # lateral pixel centers (m)
    z: np.ndarray  # depth pixel centers (m)

    @classmethod
    def from_extent(cls, x_lo, x_hi, z_lo, z_hi, spacing):
        nx = int(round((x_hi - x_lo) / spacing)) + 1
        nz = int(round((z_hi - z_lo) / spacing)) + 1
        return cls(x_lo + np.arange(nx) * spacing, z_lo + np.arange(nz) * spacing)


@dataclass(frozen=True)
class Image:
    grid: ImageGrid
    intensity: np.ndarray  # (nz, nx)
    scale: str  # "linear" | "db"


@dataclass(frozen=True)
class BeamProfile:
    lateral_axis: np.ndarray
    values_db: np.ndarray
    fwhm: float
    peak_to_background_db: float
    roi: tuple[float, float, float, float]  # x_lo, x_hi, z_lo, z_hi


def stream_channels(medium: Medium, array: ElementArray, scatterers,
                    pulse: Pulse, sample_rate: float, duration: float,
                    t0: float = 0.0,
                    opts: SolverOptions = SolverOptions(),
                    tofs=None) -> ChannelStream:
    """The channel data of :func:`synthesize_channels`, synthesized one block
    of ``_SYNTH_TX_ROWS`` transmits at a time as the stream's ``blocks`` are
    read, so no whole set is held.

    The arguments are checked, and the ToF map solved, before the first
    block.  Each block is summed in one reused float64 buffer, then stored
    as float32: each sample sums the scatterers in order, in float64 from
    0.0, and is rounded once.
    """
    scatterers = [(p, float(a)) for p, a in scatterers]
    if sample_rate <= pulse.min_sample_rate:
        raise ValueError("sample rate too low for the pulse bandwidth")
    M = len(array)
    nt = int(round(duration * sample_rate))
    if tofs is None:
        sx = np.array([p.x for p, _ in scatterers])
        sz = np.array([p.z for p, _ in scatterers])
        tofs = tof_maps(medium, array.element_positions, sx, sz, opts)  # (M, K)
    finite = np.isfinite(tofs)
    omitted = [(int(m), int(k), "no refracted path")
               for m, k in zip(*np.nonzero(~finite))]
    cut = pulse.support
    if finite.any():
        t_max = 2.0 * float(np.max(tofs[finite])) + cut
        if t0 + duration < t_max:
            raise ValueError(
                f"duration {duration:.3e} s does not cover the round trip "
                f"plus pulse support ({t_max - t0:.3e} s)")
    win = int(math.ceil(cut * sample_rate))
    steps = np.arange(-win, win + 1)
    live = [np.flatnonzero(finite[:, k]) for k in range(len(scatterers))]

    def blocks():
        # The (tx, rx) windows of a block of transmits, one scatterer at a
        # time: trace i, j covers samples ceil(c) - win ... floor(c) + win
        # of c = (tau - t0) * fs, clipped to the trace.  Windows of one
        # scatterer never share a sample, so one indexed add sums it.
        buf = np.empty((_SYNTH_TX_ROWS, M, nt))
        flat = buf.reshape(-1)  # a view: (tx - start, rx, time)
        for start in range(0, M, _SYNTH_TX_ROWS):
            rows = min(_SYNTH_TX_ROWS, M - start)
            buf[:rows] = 0.0
            for k, (_, amp) in enumerate(scatterers):
                rx = live[k]
                tx = rx[(start <= rx) & (rx < start + rows)]
                tau = (tofs[tx, k][:, None] + tofs[rx, k][None, :])[..., None]
                center = (tau - t0) * sample_rate
                n = np.ceil(center).astype(np.int64) + steps
                keep = (n >= 0) & (n < nt) & (
                    n <= np.floor(center).astype(np.int64) + win)
                trace = ((tx - start)[:, None] * M + rx[None, :])[..., None] * nt
                tt = (t0 + n / sample_rate - tau)[keep]
                flat[(trace + n)[keep]] += amp * pulse(tt)
            yield start, buf[:rows].astype(np.float32)

    return ChannelStream(blocks(), (M, M, nt), sample_rate, t0,
                         tuple(omitted))


def synthesize_channels(medium: Medium, array: ElementArray, scatterers,
                        pulse: Pulse, sample_rate: float, duration: float,
                        t0: float = 0.0,
                        opts: SolverOptions = SolverOptions(),
                        tofs=None) -> ChannelDataSet:
    """Noise-free channel data for unit point scatterers.

    trace(tx, rx, t) = sum_k amp_k * pulse(t - tof(tx -> k) - tof(k -> rx)),
    with both legs along refraction-corrected paths (the synthesis engine is
    always the layered-medium one; it is the ground-truth physics here).
    ``tofs`` takes the (element, scatterer) ToF map when the caller already
    has it.  Failed (element, scatterer) solves contribute nothing and are
    recorded in ``omitted``.  The blocks of :func:`stream_channels`,
    collected into one float32 set.
    """
    stream = stream_channels(medium, array, scatterers, pulse, sample_rate,
                             duration, t0, opts, tofs)
    samples = np.empty(stream.shape, dtype=np.float32)
    for start, block in stream.blocks:
        samples[start:start + len(block)] = block
    return ChannelDataSet(samples, sample_rate, t0, stream.omitted)


def envelope(trace) -> np.ndarray:
    """Magnitude of the discrete analytic signal along the last axis (Marple,
    IEEE TSP 1999): the spectrum keeps DC (and Nyquist for even lengths),
    doubles the positive frequencies and zeroes the negative ones.  Same
    shape as the input."""
    trace = np.asarray(trace, dtype=float)
    n = trace.shape[-1]
    if n < MIN_ENVELOPE_SAMPLES:
        raise ValueError("trace too short for envelope extraction")
    h = np.zeros(n)
    h[0] = 1.0
    h[1:(n + 1) // 2] = 2.0
    if n % 2 == 0:
        h[n // 2] = 1.0
    return np.abs(fft.ifft(fft.fft(trace, axis=-1) * h, axis=-1))


def _das_sum(channels, idx_maps, workers: int = 1) -> np.ndarray:
    """Delay-and-sum accumulation: for every pixel, gather each trace at the
    two-way delay with linear interpolation and sum over all pairs.

    ``channels`` is a :class:`ChannelDataSet` or a :class:`ChannelStream`:
    its ``blocks`` are read once, in transmit order.  ``idx_maps`` is
    any sequence of M equal-length 1-D maps (a 2-D array or a list of
    views); ``idx_maps[m]`` holds (one-way delay * sample_rate) per pixel
    for element m.  Symmetric channel sets are folded over unordered pairs
    (i, j >= i).  The samples may be float32, as :func:`read_channels`
    returns them; each pair's trace is upcast to float64, which is exact.
    The gather needs no mask: it reads two zero-padded copies of the trace,
    ``left = [0, tr[:-1], 0]`` and ``right = [0, tr[1:], 0]``, at
    ``k = floor(t) + 1`` clipped to the pads, so a delay outside
    [0, nt - 1) reads zeros.  The x2 weight of an off-diagonal pair is
    folded into its pads (doubling is exact for normal numbers).  The
    pixels are split into one contiguous slice for each of ``min(workers,
    pixels)`` threads.  Every slice sums its pairs transmit-major, whatever
    the blocks, so the result depends neither on the worker count nor on
    the block size.  The calling thread reads the blocks and hands each to
    every slice through a one-block queue, so a slice holds at most the
    block it sums and the next one, and a stream makes its next block
    while the slices sum.
    """
    base = -channels.t0 * channels.sample_rate
    symmetric = channels.symmetric
    npix = len(idx_maps[0])
    acc = np.zeros(npix)

    def run(px, queue):
        maps, out = [m[px] for m in idx_maps], acc[px]  # views, not copies
        t, f, g = np.empty((3, out.size))
        k = np.empty(out.size, dtype=np.int64)
        try:
            while (item := queue.get()) is not None:
                start, block = item
                M, nt = block.shape[1:]
                left, right = np.zeros((2, nt + 1))
                for i, row in enumerate(block, start):
                    for j in range(i if symmetric else 0, M):
                        weight = 2.0 if symmetric and j != i else 1.0
                        tr = row[j]
                        np.multiply(tr[:-1], weight, out=left[1:-1],
                                    dtype=float)
                        np.multiply(tr[1:], weight, out=right[1:-1],
                                    dtype=float)
                        np.add(maps[i], maps[j], out=t)
                        t += base
                        np.floor(t, out=f)
                        np.copyto(k, f, casting="unsafe")
                        k += 1
                        t -= f  # the interpolation weight w
                        np.take(left, k, out=f, mode="clip")
                        np.subtract(1.0, t, out=g)
                        f *= g
                        np.take(right, k, out=g, mode="clip")
                        g *= t
                        f += g
                        out += f
        except BaseException:
            failed.set()
            while queue.get() is not None:  # unblock the caller, then raise
                pass
            raise

    pool_size = max(1, min(workers, npix))
    bounds = np.linspace(0, npix, pool_size + 1).astype(int)
    # Each slice takes the blocks from a queue of its own, at its own pace,
    # so the slice that shares its processor with a stream's synthesis does
    # not hold the others back at every block.
    queues = [Queue(1) for _ in range(pool_size)]
    failed = Event()
    # Closing the blocks ends a stream that stops early (its file included).
    with closing(channels.blocks) as blocks, \
            ThreadPoolExecutor(pool_size) as pool:
        jobs = [pool.submit(run, slice(a, b), q)
                for a, b, q in zip(bounds, bounds[1:], queues)]
        try:
            for item in blocks:
                if failed.is_set():
                    break
                for q in queues:
                    q.put(item)
        finally:
            for q in queues:
                q.put(None)
        for job in jobs:
            job.result()
    return acc


def _shared_tof_maps(medium: Medium, sources, grid: ImageGrid,
                     opts: SolverOptions = SolverOptions(),
                     workers: int = 1):
    """ToF maps from every source to every pixel, as ``(base, maps)``.

    ``maps[m]`` is source m's map, 1-D with the pixels x-major (pixel
    (ix, iz) at ix * nz + iz), and a view of ``base``.  Through flat
    (:class:`Constant`) interfaces, the ToF from a source at (x_s, z_s) to
    a pixel (x, z) depends only on (x - x_s, z).  So when every source has
    the same z_s, one :func:`tof_maps` call solves a (distinct offsets, nz)
    table from x = 0 in a medium of one speed (rows in closed form), else
    from the domain's middle.  Source m's column j is keyed ``round(off[m,
    0] / unit) + j * step`` (``unit = _OFFSET_TOL * dx``, ``step = 1 /
    _OFFSET_TOL``); rows, one per key at its first offset, are ordered by
    (key modulo ``step``, key), so each map is ``table[a:a + nx]``, flat.
    Each map is solved alone, into a (len(sources), nx, nz) ``base``, if an
    interface is not flat, the sources do not share one z, nx = 1 or
    x[1] = x[0] (no ``unit``), an offset is over 2 ``unit`` from its row's
    (uneven columns), or, with more than one speed, a source, pixel or
    target is outside the domain.
    """
    sources = list(sources)
    lo, hi = medium.domain
    nx = grid.x.size
    if (nx > 1 and grid.x[1] != grid.x[0]
            and all(isinstance(b, Constant) for b in medium.boundaries)
            and len({p.z for p in sources}) == 1):
        xs = np.array([p.x for p in sources])
        off = grid.x[None, :] - xs[:, None]
        unit = _OFFSET_TOL * (grid.x[1] - grid.x[0])
        step = round(1.0 / _OFFSET_TOL)
        key = np.round(off[:, :1] / unit) + step * np.arange(nx)
        uniq, first, inv = np.unique(key, return_index=True,
                                     return_inverse=True)
        # uniq is sorted, so a stable sort on the class keeps key order in it.
        order = np.argsort(uniq % step, kind="stable")
        rows = np.argsort(order)[inv].reshape(off.shape)  # each column's row
        reps = off.flat[first[order]]
        one_speed = len(set(medium.speeds)) == 1
        x_s = 0.0 if one_speed else 0.5 * (lo + hi)
        lateral = np.concatenate((xs, grid.x, x_s + reps))
        if (np.all(np.abs(off - reps[rows]) <= 2.0 * abs(unit))
                and (one_speed or lo <= lateral.min() <= lateral.max() <= hi)):
            tx, tz = np.meshgrid(x_s + reps, grid.z, indexing="ij")
            table = tof_maps(medium, [Point2(x_s, sources[0].z)], tx, tz,
                             opts, workers=workers)[0]
            return table, [table[a:a + nx].reshape(-1) for a in rows[:, 0]]
    gx, gz = np.meshgrid(grid.x, grid.z, indexing="ij")
    base = tof_maps(medium, sources, gx, gz, opts, workers=workers)
    return base, base.reshape(len(sources), -1)


def das_beamform(channels: ChannelDataSet | ChannelStream,
                 medium: Medium | None,
                 array: ElementArray, grid: ImageGrid, engine: str,
                 scale: str = "db",
                 opts: SolverOptions = SolverOptions(),
                 workers: int = 1) -> Image:
    """Delay-and-sum image over the pixel grid.

    Per pixel, every (tx, rx) trace is sampled at the two-way delay under
    the chosen engine and summed (tx-major accumulation; bit-stable).  With
    ``scale="linear"`` the raw pre-envelope sums are returned; the default
    applies the per-column envelope and dB compression with the peak at
    exactly 0 dB and a -60 dB display floor.  Pixels whose delays failed are
    absent: NaN in linear scale, floor value in dB, excluded from the
    normalization.  Both engines' ToF maps come from :func:`_shared_tof_maps`,
    solved before the first block of ``channels`` is read, so a
    :class:`ChannelStream` synthesizes its blocks only once the maps are
    done.  ``workers`` threads share the ToF solves and the delay-and-sum;
    the image does not depend on their number.
    """
    nz, nx = grid.z.size, grid.x.size
    medium = engine_medium(engine, medium)
    base, maps = _shared_tof_maps(medium, array.element_positions, grid,
                                  opts, workers)
    # Scale and zero the base once; the maps are views of it.
    base *= channels.sample_rate
    absent = np.zeros(nx * nz, dtype=bool)
    for m in maps:
        absent |= ~np.isfinite(m)
    base[~np.isfinite(base)] = 0.0
    raw = _das_sum(channels, maps, workers).reshape(nx, nz)
    absent = absent.reshape(nx, nz).T
    if scale == "linear":
        out = raw.T.copy()
        out[absent] = np.nan
        return Image(grid, out, "linear")
    env = envelope(raw).T  # per lateral column, along depth
    env[absent] = np.nan
    peak = np.nanmax(env) if np.any(np.isfinite(env)) else 0.0
    if peak <= 0.0:
        db = np.full_like(env, DB_FLOOR)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            db = 20.0 * np.log10(env / peak)
        db = np.where(np.isfinite(db), np.maximum(db, DB_FLOOR), DB_FLOOR)
    return Image(grid, db, "db")


def _roi_selection(grid: ImageGrid, roi):
    """Masks of the grid columns and rows inside roi = (x_lo, x_hi, z_lo,
    z_hi), edges included."""
    x_lo, x_hi, z_lo, z_hi = roi
    eps = 1e-9  # absorb float jitter at pixel-aligned ROI edges
    return ((grid.x >= x_lo - eps) & (grid.x <= x_hi + eps),
            (grid.z >= z_lo - eps) & (grid.z <= z_hi + eps))


def beam_profile(image: Image, roi) -> BeamProfile:
    """Lateral beam profile: per-column maximum over the ROI depth range,
    normalized to a 0 dB peak; width at -6 dB by linear interpolation of the
    crossings; background level from the median of the outer quarter of the
    columns."""
    if image.scale != "db":
        raise ValueError("beam profiles are extracted from dB images")
    xsel, zsel = _roi_selection(image.grid, roi)
    if np.count_nonzero(xsel) < 8 or np.count_nonzero(zsel) < 2:
        raise RoiError("region of interest too small")
    sub = image.intensity[np.ix_(zsel, xsel)]
    lateral = image.grid.x[xsel]
    prof = np.max(sub, axis=0)
    prof = prof - np.max(prof)  # 0 dB peak
    n = prof.size
    outer = max(1, n // 8)
    background = float(np.median(np.concatenate([prof[:outer], prof[-outer:]])))
    if 0.0 < background + 6.0:
        raise RoiError(
            f"no peak 6 dB above the background ({background:.1f} dB)")
    ipk = int(np.argmax(prof))

    def crossing(direction):
        i = ipk
        while 0 <= i + direction < n and prof[i + direction] > -6.0:
            i += direction
        j = i + direction
        if j < 0 or j >= n:
            raise RoiError("-6 dB crossing not inside the region of interest")
        frac = (-6.0 - prof[i]) / (prof[j] - prof[i])
        return lateral[i] + frac * (lateral[j] - lateral[i])

    left = crossing(-1)
    right = crossing(+1)
    return BeamProfile(lateral, prof, float(right - left),
                       0.0 - background, tuple(roi))


def peak_position(image: Image, roi) -> Point2:
    """Pixel-grid position of the ROI's intensity maximum."""
    xsel, zsel = _roi_selection(image.grid, roi)
    sub = image.intensity[np.ix_(zsel, xsel)]
    iz, ix = np.unravel_index(int(np.argmax(sub)), sub.shape)
    return Point2(float(image.grid.x[xsel][ix]), float(image.grid.z[zsel][iz]))


# ---------------------------------------------------------------------------
# File formats

CHANNEL_MAGIC = b"GOATCD1\n"


def write_channels(channels: ChannelDataSet, path, provenance: str = ""):
    """The set in the channel file format of
    :meth:`ChannelStream.written_to`, its samples cast and written one
    transmit at a time; a write that fails part-way leaves no file."""
    stream = ChannelStream(enumerate(channels.samples), channels.samples.shape,
                           channels.sample_rate, channels.t0)
    for _ in stream.written_to(path, provenance).blocks:
        pass


def read_channels(path) -> ChannelDataSet:
    """The channel set of :func:`write_channels`' format, its samples the
    stored float32 values with no conversion (four bytes per sample), and
    its ``provenance`` the header's.

    Raises :class:`ChannelFileError` for a bad magic, an unreadable header,
    a dtype other than ``<f4`` or a sample count the header does not give.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(CHANNEL_MAGIC))
        if magic != CHANNEL_MAGIC:
            raise ChannelFileError(
                f"{path}: not a channel data file (bad magic {magic!r})")
        try:
            header = json.loads(fh.readline())
            shape = tuple(header[k] for k in ("n_tx", "n_rx", "n_samples"))
            rate, t0, dtype = (header[k] for k in
                               ("sample_rate_hz", "t0_s", "dtype"))
        except (ValueError, KeyError, TypeError) as exc:
            raise ChannelFileError(
                f"{path}: unreadable header ({exc!r})") from None
        if not all(type(v) is int and v >= 0 for v in shape) or not all(
                type(v) in (int, float) for v in (rate, t0)):
            raise ChannelFileError(f"{path}: unreadable header (sizes "
                                   f"{shape}, rate {rate!r}, t0 {t0!r})")
        if dtype != "<f4":
            raise ChannelFileError(f"{path}: dtype {dtype!r}, expected '<f4'")
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 4 * math.prod(shape):
            raise ChannelFileError(
                f"{path}: {size} bytes of samples, the header gives "
                f"{shape[0]} x {shape[1]} x {shape[2]} float32 samples")
        raw = np.fromfile(fh, dtype="<f4")
    return ChannelDataSet(raw.reshape(shape), rate, t0,
                          provenance=header.get("provenance"))


def quantize_db_image(image: Image) -> np.ndarray:
    """Map the [-60, 0] dB range linearly onto uint8 [0, 255]."""
    if image.scale != "db":
        raise ValueError("only dB images are exported")
    scaled = (image.intensity - DB_FLOOR) / (0.0 - DB_FLOOR) * 255.0
    return np.clip(np.rint(scaled), 0, 255).astype(np.uint8)


def write_p5(image: Image, path, provenance: str = ""):
    """8-bit binary graymap of a dB image, row-major with x fastest."""
    data = quantize_db_image(image)
    nz, nx = data.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n")
        if provenance:
            fh.write(f"# {provenance}\n".encode())
        fh.write(f"{nx} {nz}\n255\n".encode())
        fh.write(data.tobytes())


def write_image_metadata(image: Image, path, engine: str, provenance: str = ""):
    grid = image.grid
    meta = {
        "x_lo_m": float(grid.x[0]), "x_hi_m": float(grid.x[-1]),
        "z_lo_m": float(grid.z[0]), "z_hi_m": float(grid.z[-1]),
        "spacing_x_m": float(grid.x[1] - grid.x[0]) if grid.x.size > 1 else 0.0,
        "spacing_z_m": float(grid.z[1] - grid.z[0]) if grid.z.size > 1 else 0.0,
        "n_x": int(grid.x.size), "n_z": int(grid.z.size),
        "engine": engine, "scale": image.scale,
        "db_floor": DB_FLOOR, "provenance": provenance,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_profile_csv(profile: BeamProfile, path, provenance: str = ""):
    lines = []
    if provenance:
        lines.append(f"# {provenance}")
    lines.append(f"# fwhm_m={profile.fwhm!r}")
    lines.append(f"# peak_to_background_db={profile.peak_to_background_db!r}")
    lines.append(f"# roi_m={','.join(repr(float(v)) for v in profile.roi)}")
    lines.append("lateral_m,value_db")
    for x, v in zip(profile.lateral_axis, profile.values_db):
        lines.append(f"{float(x)!r},{float(v)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
