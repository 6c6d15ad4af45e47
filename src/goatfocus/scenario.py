"""Scenario documents: strict JSON schema, unit handling, fixture access.

A scenario bundles the medium, an optional element array, source/focus
lists, and optional pulse/imaging blocks.  The schema is strict: unknown
keys anywhere are rejected, and the ``units`` block must state the length
unit explicitly (millimeters or meters; everything is converted to SI on
load).  Frequencies and times are always hertz and seconds.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import __version__
from .errors import ScenarioError
from .focusing import ElementArray, linear_array
from .goatsolve import SolverOptions
from .imaging import MIN_ENVELOPE_SAMPLES, ImageGrid, Pulse
from .medium import (
    _DOMAIN_SLACK,
    Constant,
    Ellipse,
    Linear,
    Medium,
    Point2,
    SampledC1,
    validate_medium,
)

_LENGTH_SCALE = {"mm": 1e-3, "m": 1.0}


@dataclass(frozen=True)
class ImagingSpec:
    grid: ImageGrid
    sample_rate: float
    scatterers: tuple[tuple[Point2, float], ...]


@dataclass(frozen=True)
class Scenario:
    medium: Medium
    sources: tuple[Point2, ...]
    foci: tuple[Point2, ...]
    array: ElementArray | None
    pulse: Pulse | None
    imaging: ImagingSpec | None
    solver: SolverOptions
    length_scale: float
    sha256: str

    @property
    def provenance(self) -> str:
        return f"goatfocus {__version__} scenario={self.sha256[:12]}"


def _require_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ScenarioError(f"{where}: missing keys {sorted(missing)}")


def _number(v, where):
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ScenarioError(f"{where}: expected a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an int beyond the float range
        x = math.inf
    # json.loads reads NaN, Infinity and 1e400 as non-finite floats.
    if not math.isfinite(x):
        raise ScenarioError(f"{where}: expected a finite number, got {v!r}")
    return x


def _list(v, where) -> list:
    if not isinstance(v, list):
        raise ScenarioError(f"{where}: expected a list, got {v!r}")
    return v


def _count(v, where) -> int:
    if type(v) is not int or v < 0:  # a JSON bool is no count
        raise ScenarioError(f"{where}: expected an integer >= 0, got {v!r}")
    return v


def _point(v, scale, where) -> Point2:
    if not (isinstance(v, list) and len(v) == 2):
        raise ScenarioError(f"{where}: expected [x, z]")
    return Point2(_number(v[0], where) * scale, _number(v[1], where) * scale)


def require_first_layer(medium: Medium, p: Point2, where: str):
    """Raise :class:`ScenarioError` unless p lies in the first layer, above
    the first interface: the solvers send every ray down from such a
    source.  A point on the interface (within ``_DOMAIN_SLACK``, where
    :meth:`Medium.layer_of` counts it in the layer above) has no first
    segment, and is rejected too."""
    layer = medium.layer_of(p)
    if layer != 1:
        raise ScenarioError(f"{where}: ({p.x:.9g}, {p.z:.9g}) m lies in "
                            f"layer {layer}, below the first interface")
    if p.z >= medium.boundaries[0]._eval(p.x) - _DOMAIN_SLACK:
        raise ScenarioError(f"{where}: ({p.x:.9g}, {p.z:.9g}) m lies on "
                            "the first interface")


def _boundary(spec, scale, domain, where):
    _require_keys(spec, {"kind"}, {"depth", "slope", "intercept", "a", "b",
                                   "center", "sign", "x", "z"}, where)
    kind = spec["kind"]
    if kind == "constant":
        _require_keys(spec, {"kind", "depth"}, set(), where)
        return Constant(_number(spec["depth"], where) * scale, domain)
    if kind == "linear":
        _require_keys(spec, {"kind", "slope", "intercept"}, set(), where)
        return Linear(_number(spec["slope"], where),
                      _number(spec["intercept"], where) * scale, domain)
    if kind == "ellipse":
        _require_keys(spec, {"kind", "a", "b", "center", "sign"}, set(), where)
        sign = {"+": +1, "-": -1}.get(spec["sign"])
        if sign is None:
            raise ScenarioError(f"{where}: sign must be '+' or '-'")
        return Ellipse(_number(spec["a"], where) * scale,
                       _number(spec["b"], where) * scale,
                       _point(spec["center"], scale, where), sign, domain)
    if kind == "sampled":
        _require_keys(spec, {"kind", "x", "z"}, set(), where)
        try:
            return SampledC1(np.asarray(spec["x"], dtype=float) * scale,
                             np.asarray(spec["z"], dtype=float) * scale, domain)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown boundary kind {kind!r}")


def loads(text: str | bytes) -> Scenario:
    raw = text.encode() if isinstance(text, str) else text
    sha = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON: {exc}") from exc

    _require_keys(doc, {"units", "medium", "sources", "foci"},
                  {"array", "pulse", "imaging", "solver"}, "scenario")
    units = doc["units"]
    _require_keys(units, {"length"}, {"speed", "time"}, "units")
    if units.get("speed", "m/s") != "m/s" or units.get("time", "s") != "s":
        raise ScenarioError("units: only m/s speeds and second times are supported")
    scale = _LENGTH_SCALE.get(units["length"])
    if scale is None:
        raise ScenarioError(f"units: unknown length unit {units['length']!r}")

    med_spec = doc["medium"]
    _require_keys(med_spec, {"speeds", "domain", "boundaries"}, set(), "medium")
    dom_raw = med_spec["domain"]
    if not (isinstance(dom_raw, list) and len(dom_raw) == 2):
        raise ScenarioError("medium.domain: expected [x_lo, x_hi]")
    domain = (_number(dom_raw[0], "medium.domain") * scale,
              _number(dom_raw[1], "medium.domain") * scale)
    speeds = tuple(_number(c, "medium.speeds")
                   for c in _list(med_spec["speeds"], "medium.speeds"))
    boundaries = tuple(
        _boundary(b, scale, domain, f"medium.boundaries[{i}]")
        for i, b in enumerate(_list(med_spec["boundaries"],
                                    "medium.boundaries")))
    medium = Medium(speeds, boundaries, domain)
    report = validate_medium(medium)
    if not report.ok:
        raise ScenarioError("invalid medium: " + "; ".join(report.violations))

    sources = tuple(_point(p, scale, f"sources[{i}]")
                    for i, p in enumerate(_list(doc["sources"], "sources")))
    for i, p in enumerate(sources):
        require_first_layer(medium, p, f"sources[{i}]")
    foci = tuple(_point(p, scale, f"foci[{i}]")
                 for i, p in enumerate(_list(doc["foci"], "foci")))

    array = None
    if "array" in doc:
        spec = doc["array"]
        _require_keys(spec, {"num_elements", "pitch"}, {"center_x", "z"}, "array")
        n = spec["num_elements"]
        if not isinstance(n, int) or n < 2:
            raise ScenarioError("array.num_elements: need an integer >= 2")
        array = linear_array(n, _number(spec["pitch"], "array") * scale,
                             _number(spec.get("center_x", 0.0), "array") * scale,
                             _number(spec.get("z", 0.0), "array") * scale)
        for i, p in enumerate(array.element_positions):
            require_first_layer(medium, p, f"array element {i}")

    pulse = None
    if "pulse" in doc:
        spec = doc["pulse"]
        _require_keys(spec, {"center_frequency_hz"}, {"fractional_bandwidth"},
                      "pulse")
        try:
            pulse = Pulse(_number(spec["center_frequency_hz"], "pulse"),
                          _number(spec.get("fractional_bandwidth", 0.6), "pulse"))
        except ValueError as exc:
            raise ScenarioError(f"pulse: {exc}") from exc

    imaging = None
    if "imaging" in doc:
        spec = doc["imaging"]
        _require_keys(spec, {"grid", "sample_rate_hz", "scatterers"}, set(),
                      "imaging")
        g = spec["grid"]
        _require_keys(g, {"x", "z", "spacing"}, set(), "imaging.grid")
        ext = {a: [_number(v, f"imaging.grid.{a}") * scale
                   for v in _list(g[a], f"imaging.grid.{a}")] for a in "xz"}
        spacing = _number(g["spacing"], "imaging.grid.spacing") * scale
        if spacing <= 0:
            raise ScenarioError(f"imaging.grid.spacing: {g['spacing']!r} is not positive")
        for a in "xz":
            if len(ext[a]) != 2 or ext[a][1] < ext[a][0]:
                raise ScenarioError(f"imaging.grid.{a}: expected [lo, hi], lo <= hi, got {g[a]!r}")
        grid = ImageGrid.from_extent(*ext["x"], *ext["z"], spacing)
        if grid.z.size < MIN_ENVELOPE_SAMPLES:
            raise ScenarioError(f"imaging.grid.z: need {MIN_ENVELOPE_SAMPLES} depth rows, got {grid.z.size}")
        scatterers = []
        for i, s in enumerate(_list(spec["scatterers"], "imaging.scatterers")):
            if not (isinstance(s, list) and len(s) == 3):
                raise ScenarioError(f"imaging.scatterers[{i}]: expected [x, z, amp]")
            scatterers.append((_point(s[:2], scale, "scatterer"),
                               _number(s[2], "scatterer")))
        if not scatterers:
            raise ScenarioError("imaging.scatterers: need at least one scatterer")
        fs = _number(spec["sample_rate_hz"], "imaging.sample_rate_hz")
        floor = 0.0 if pulse is None else pulse.min_sample_rate
        if not fs > floor:
            raise ScenarioError(f"imaging.sample_rate_hz: {fs!r} Hz is not above {floor!r} Hz")
        imaging = ImagingSpec(grid, fs, tuple(scatterers))

    solver = SolverOptions()
    if "solver" in doc:
        spec = doc["solver"]
        fields = {"tol_residual": _number, "max_newton_iters": _count,
                  "max_backtracks": _count}
        _require_keys(spec, set(), fields, "solver")
        try:
            solver = SolverOptions(**{k: fields[k](v, f"solver.{k}")
                                      for k, v in spec.items()})
        except ValueError as exc:
            raise ScenarioError(f"solver: {exc}") from exc

    return Scenario(medium, sources, foci, array, pulse, imaging, solver,
                    scale, sha)


def load(path) -> Scenario:
    """Load a scenario from a file path or a shipped fixture name."""
    name = str(path)
    if "/" not in name and "\\" not in name and not name.endswith(".json"):
        res = resources.files("goatfocus").joinpath(f"fixtures/{name}.json")
        if res.is_file():
            return loads(res.read_bytes())
        raise ScenarioError(f"no such fixture: {name!r} "
                            f"(available: {', '.join(fixture_names())})")
    try:
        with open(path, "rb") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc


def fixture_names() -> list[str]:
    root = resources.files("goatfocus").joinpath("fixtures")
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))
