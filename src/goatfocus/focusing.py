"""Focusing delays: convert per-element times of flight into transmit and
receive delay tables over focus grids, for both the straight-ray (hmfa) and
refraction-corrected (goat) engines.

Transmit delays align emissions so all wavefronts arrive at the focus
simultaneously: the latest-arriving element fires first and gets delay zero.
Receive delays add the transmit travel time to each element's return time.
Per-pair solver failures are recorded and their slots left absent -- they
are never interpolated over.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .batch import tof_batch
from .errors import NoTransmittedPathError
from .goatsolve import SolverOptions
from .medium import Medium, Point2

HMFA_REFERENCE_SPEED = 1540.0


def engine_medium(engine: str, medium: Medium | None) -> Medium:
    """The medium ``engine`` solves times of flight through: ``medium`` for
    goat, one unbounded layer at :data:`HMFA_REFERENCE_SPEED` for hmfa."""
    if engine == "hmfa":
        return Medium((HMFA_REFERENCE_SPEED,), (), (-np.inf, np.inf))
    if engine != "goat":
        raise ValueError(f"unknown engine {engine!r}")
    if medium is None:
        raise ValueError("the goat engine requires a medium")
    return medium


@dataclass(frozen=True)
class ElementArray:
    """Transducer elements in the imaging plane, typically on z = 0."""

    element_positions: tuple[Point2, ...]

    def __post_init__(self):
        if len(self.element_positions) < 2:
            raise ValueError("need at least 2 elements")
        seen = set()
        for p in self.element_positions:
            key = (p.x, p.z)
            if key in seen:
                raise ValueError(f"duplicate element position {key}")
            seen.add(key)

    def __len__(self):
        return len(self.element_positions)

    @property
    def xs(self) -> np.ndarray:
        return np.array([p.x for p in self.element_positions])

    @property
    def zs(self) -> np.ndarray:
        return np.array([p.z for p in self.element_positions])


def linear_array(num_elements: int, pitch: float, center_x: float = 0.0,
                 z: float = 0.0) -> ElementArray:
    """Evenly pitched elements centered on ``center_x``."""
    offs = (np.arange(num_elements) - (num_elements - 1) / 2.0) * pitch
    return ElementArray(tuple(Point2(float(center_x + o), float(z))
                              for o in offs))


@dataclass(frozen=True)
class DelayTable:
    """Per-element delays for a set of focus points.

    ``delays[m, k]`` is element m's delay for focus k (seconds); NaN where
    the solve failed, with the cause listed in ``failures``.
    """

    kind: str  # "transmit" | "receive"
    engine: str  # "hmfa" | "goat"
    focus_points: tuple[Point2, ...]
    delays: np.ndarray
    failures: tuple[tuple[int, int, str], ...] = field(default=())


def transmit_delays(tofs) -> np.ndarray:
    """max(tof) - tof per element: zero for the latest arrival, all
    delays nonnegative."""
    t = np.asarray(tofs, dtype=float)
    if not np.all(np.isfinite(t)) or np.any(t <= 0):
        raise ValueError("times of flight must be finite and positive")
    return np.max(t) - t


def receive_delays(tofs, t_transmit: float) -> np.ndarray:
    """tof + t_transmit per element."""
    if t_transmit < 0:
        raise ValueError("transmit time must be nonnegative")
    return np.asarray(tofs, dtype=float) + t_transmit


def element_focus_tofs(array: ElementArray, foci, medium: Medium | None,
                       engine: str,
                       opts: SolverOptions = SolverOptions()) -> np.ndarray:
    """ToF matrix (element, focus) under the chosen engine; NaN on failure."""
    medium = engine_medium(engine, medium)
    foci = list(foci)
    fx = np.array([f.x for f in foci])
    fz = np.array([f.z for f in foci])
    return np.array([tof_batch(medium, e, fx, fz, opts)
                     for e in array.element_positions])


def build_delay_table(array: ElementArray, foci, medium: Medium | None,
                      engine: str, kind: str,
                      opts: SolverOptions = SolverOptions(),
                      transmit_element: int | None = None) -> DelayTable:
    """Delay table over (element, focus) pairs.

    ``kind="transmit"`` applies the latest-arrival alignment per focus.
    ``kind="receive"`` adds the transmit time: the time of flight from
    ``transmit_element`` (a full-synthetic-aperture single-element
    transmit), or zero when no transmit element is given.
    """
    if kind not in ("transmit", "receive"):
        raise ValueError(f"unknown delay kind {kind!r}")
    foci = tuple(foci)
    tofs = element_focus_tofs(array, foci, medium, engine, opts)
    failures = [(m, k, "no refracted path")
                for m, k in zip(*np.nonzero(~np.isfinite(tofs)))]
    if len(failures) == tofs.size and tofs.size:
        raise NoTransmittedPathError("every (element, focus) solve failed")
    if kind == "transmit":
        delays = np.fmax.reduce(tofs, axis=0) - tofs
    else:
        t_tx = 0.0 if transmit_element is None else tofs[transmit_element]
        lost = ~np.isfinite(t_tx) & np.any(np.isfinite(tofs), axis=0)
        failures += [(transmit_element, k, "transmit tof failed")
                     for k in np.flatnonzero(lost)]
        delays = tofs + t_tx
    return DelayTable(kind, engine, foci, delays,
                      tuple((int(m), int(k), why) for m, k, why in failures))


def write_delay_csv(table: DelayTable, path, provenance: str = ""):
    """CSV export: provenance comments, a kind/engine header pair, then one
    row per (focus, element) with the delay as shortest round-trip decimal
    (empty where the solve failed)."""
    lines = []
    if provenance:
        lines.append(f"# {provenance}")
    lines.append("kind,engine")
    lines.append(f"{table.kind},{table.engine}")
    lines.append("focus_x_m,focus_z_m,element_index,delay_s")
    for k, f in enumerate(table.focus_points):
        for m in range(table.delays.shape[0]):
            d = table.delays[m, k]
            cell = repr(float(d)) if np.isfinite(d) else ""
            lines.append(f"{f.x!r},{f.z!r},{m},{cell}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
