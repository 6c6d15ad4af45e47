"""Layered-medium description: boundary curves, the medium stack, validation.

A medium is an ordered stack of constant-speed layers separated by once
continuously differentiable boundary curves z = b(x) over a shared lateral
interval.  Depth z increases downward; the transducer plane sits at z = 0
above the first boundary.  All quantities are SI (meters, seconds, m/s).
A horizontal boundary (:class:`Constant`) is :class:`Linear` at slope 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularSlopeError

# Absolute slack (m) applied to domain membership checks so that root-finding
# output landing exactly on an interval endpoint is not rejected.
_DOMAIN_SLACK = 1e-12

_ORDERING_GRID = 1024


@dataclass(frozen=True)
class Point2:
    """A point in the imaging plane: lateral x and depth z, in meters."""

    x: float
    z: float

    def dist(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.z - other.z)


class BoundaryCurve:
    """Base class for boundary curves z = b(x) on a closed lateral domain.

    Subclasses implement ``_eval``, ``_slope`` and ``_curvature`` for scalar
    or ndarray ``x``; domain enforcement lives in the public helpers
    :func:`boundary_eval` and :func:`boundary_slope`.
    """

    domain: tuple[float, float]

    def contains(self, x) -> bool:
        lo, hi = self.domain
        return bool(np.all((np.asarray(x) >= lo - _DOMAIN_SLACK)
                           & (np.asarray(x) <= hi + _DOMAIN_SLACK)))

    def _eval(self, x):
        raise NotImplementedError

    def _slope(self, x):
        raise NotImplementedError

    def _curvature(self, x):
        """Second derivative b''(x), used by the analytic Jacobian."""
        raise NotImplementedError

    # Geometry transforms used by invariance tests and reversed traversal.
    def translated(self, dx: float) -> "BoundaryCurve":
        raise NotImplementedError

    def flipped(self, z_ref: float) -> "BoundaryCurve":
        """Mirror the curve across the horizontal line z = z_ref / 2."""
        raise NotImplementedError


@dataclass(frozen=True)
class Linear(BoundaryCurve):
    """Straight boundary z = k*x + d."""

    k: float
    d: float
    domain: tuple[float, float] = (0.0, 1.0)

    def _eval(self, x):
        return self.k * np.asarray(x, dtype=float) + self.d if np.ndim(x) else self.k * x + self.d

    def _slope(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.k) if np.ndim(x) else self.k

    def _curvature(self, x):
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0

    def translated(self, dx):
        lo, hi = self.domain
        return Linear(self.k, self.d - self.k * dx, (lo + dx, hi + dx))

    def flipped(self, z_ref):
        return Linear(-self.k, z_ref - self.d, self.domain)


@dataclass(frozen=True)
class Constant(Linear):
    """Horizontal boundary z = d."""

    k: float = field(default=0.0, init=False)

    def translated(self, dx):
        lo, hi = self.domain
        return Constant(self.d, (lo + dx, hi + dx))

    def flipped(self, z_ref):
        return Constant(z_ref - self.d, self.domain)


@dataclass(frozen=True)
class Ellipse(BoundaryCurve):
    """Upper or lower half of an axis-aligned ellipse.

    z = center.z + sign * b * sqrt(1 - ((x - center.x)/a)^2), with
    slope  -sign * b*(x - center.x)/a^2 / sqrt(1 - ((x - center.x)/a)^2).
    The curve is only usable where |x - center.x| < a; the medium validator
    enforces that the whole lateral domain satisfies this.
    """

    a: float
    b: float
    center: Point2 = Point2(0.0, 0.0)
    sign: int = +1
    domain: tuple[float, float] = (0.0, 1.0)

    def _root(self, x):
        xt = (np.asarray(x, dtype=float) - self.center.x) / self.a
        return xt, np.sqrt(np.maximum(1.0 - xt * xt, 0.0))

    def _eval(self, x):
        xt, root = self._root(x)
        out = self.center.z + self.sign * self.b * root
        return out if np.ndim(x) else float(out)

    def _slope(self, x):
        xt, root = self._root(x)
        if np.any(root <= 0.0):
            raise SingularSlopeError(
                f"ellipse slope unbounded at |x - {self.center.x}| >= a = {self.a}")
        out = -self.sign * (self.b / self.a) * xt / root
        return out if np.ndim(x) else float(out)

    def _curvature(self, x):
        xt, root = self._root(x)
        if np.any(root <= 0.0):
            raise SingularSlopeError(
                f"ellipse curvature unbounded at |x - {self.center.x}| >= a = {self.a}")
        out = -self.sign * (self.b / self.a**2) / root**3
        return out if np.ndim(x) else float(out)

    def translated(self, dx):
        lo, hi = self.domain
        return Ellipse(self.a, self.b, Point2(self.center.x + dx, self.center.z),
                       self.sign, (lo + dx, hi + dx))

    def flipped(self, z_ref):
        return Ellipse(self.a, self.b, Point2(self.center.x, z_ref - self.center.z),
                       -self.sign, self.domain)


class SampledC1(BoundaryCurve):
    """C1 boundary interpolating (x, z) samples with a natural cubic spline.

    The sample abscissae must be strictly increasing and span the domain.
    Natural end conditions (zero second derivative) avoid inventing end
    slopes the samples do not carry.  Outside the knots the end pieces
    extend as cubics.
    """

    def __init__(self, x_samples, z_samples, domain=None):
        x = np.asarray(x_samples, dtype=float)
        z = np.asarray(z_samples, dtype=float)
        if x.ndim != 1 or x.shape != z.shape or x.size < 4:
            raise ValueError("need matching 1-D sample arrays with at least 4 knots")
        if not np.all(np.diff(x) > 0):
            raise ValueError("sample x coordinates must be strictly increasing")
        self.x_samples = x
        self.z_samples = z
        self.domain = (float(x[0]), float(x[-1])) if domain is None else tuple(domain)
        self._coef = _natural_spline(x, z)

    def _piece(self, x):
        """Coefficients (c3, c2, c1, c0) of the piece holding each x, and
        x's offset from that piece's left knot."""
        x = np.asarray(x, dtype=float)
        # Counting interior knots at or left of x picks the piece, with the
        # end pieces extending past the outer knots.
        i = np.searchsorted(self.x_samples[1:-1], x, side="right")
        return self._coef[:, i], x - self.x_samples[i]

    def _eval(self, x):
        (c3, c2, c1, c0), t = self._piece(x)
        out = ((c3 * t + c2) * t + c1) * t + c0
        return out if np.ndim(x) else float(out)

    def _slope(self, x):
        (c3, c2, c1, _), t = self._piece(x)
        out = (3.0 * c3 * t + 2.0 * c2) * t + c1
        return out if np.ndim(x) else float(out)

    def _curvature(self, x):
        (c3, c2, _, _), t = self._piece(x)
        out = 6.0 * c3 * t + 2.0 * c2
        return out if np.ndim(x) else float(out)

    def translated(self, dx):
        lo, hi = self.domain
        return SampledC1(self.x_samples + dx, self.z_samples, (lo + dx, hi + dx))

    def flipped(self, z_ref):
        return SampledC1(self.x_samples, z_ref - self.z_samples, self.domain)


def _natural_spline(x, z) -> np.ndarray:
    """Piecewise cubic coefficients (4, knots - 1), highest power first, of
    the natural spline through (x, z); piece i is in powers of x - x[i].

    The knot second derivatives M solve h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i]
    + h[i] M[i+1] = 6 (d[i] - d[i-1]) with M = 0 at both ends (h: knot
    spacings, d: secant slopes), by one Thomas sweep.
    """
    h = np.diff(x)
    d = np.diff(z) / h
    diag = 2.0 * (h[:-1] + h[1:])
    rhs = 6.0 * np.diff(d)
    off = h[1:-1]
    for j in range(1, diag.size):
        w = off[j - 1] / diag[j - 1]
        diag[j] -= w * off[j - 1]
        rhs[j] -= w * rhs[j - 1]
    M = np.zeros_like(x)
    M[-2] = rhs[-1] / diag[-1]
    for j in range(diag.size - 2, -1, -1):
        M[j + 1] = (rhs[j] - off[j] * M[j + 2]) / diag[j]
    return np.array([np.diff(M) / (6.0 * h), 0.5 * M[:-1],
                     d - h * (2.0 * M[:-1] + M[1:]) / 6.0, z[:-1]])


def boundary_eval(curve: BoundaryCurve, x):
    """Evaluate z = b(x) with domain enforcement."""
    if not curve.contains(x):
        raise DomainError(f"x = {x} outside boundary domain {curve.domain}")
    return curve._eval(x)


def boundary_slope(curve: BoundaryCurve, x):
    """Evaluate b'(x) (the tangent slope tan(alpha)) with domain enforcement."""
    if not curve.contains(x):
        raise DomainError(f"x = {x} outside boundary domain {curve.domain}")
    return curve._slope(x)


def boundary_curvature(curve: BoundaryCurve, x):
    """Evaluate b''(x); zero for straight boundaries."""
    if not curve.contains(x):
        raise DomainError(f"x = {x} outside boundary domain {curve.domain}")
    return curve._curvature(x)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Medium:
    """An ordered stack of N >= 1 constant-speed layers over [x_lo, x_hi].

    ``speeds[i]`` is the sound speed of layer i+1 (between boundaries i and
    i+1; layer 1 sits above ``boundaries[0]``).  Immutable after creation;
    safe for concurrent read access.
    """

    speeds: tuple[float, ...]
    boundaries: tuple[BoundaryCurve, ...]
    domain: tuple[float, float]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __init__(self, speeds, boundaries, domain):
        object.__setattr__(self, "speeds", tuple(float(c) for c in speeds))
        object.__setattr__(self, "boundaries", tuple(boundaries))
        object.__setattr__(self, "domain", (float(domain[0]), float(domain[1])))
        object.__setattr__(self, "_cache", {})

    @property
    def num_layers(self) -> int:
        return len(self.speeds)

    @property
    def width(self) -> float:
        return self.domain[1] - self.domain[0]

    def min_gap(self) -> float:
        """Smallest vertical separation between consecutive interfaces
        (including the array plane z = 0 above the first), on a dense grid."""
        if "min_gap" not in self._cache:
            xg = np.linspace(self.domain[0], self.domain[1], _ORDERING_GRID)
            rows = [np.zeros_like(xg)] + [np.asarray(b._eval(xg), dtype=float)
                                          for b in self.boundaries]
            gaps = [np.min(rows[i + 1] - rows[i]) for i in range(len(rows) - 1)]
            self._cache["min_gap"] = float(min(gaps))
        return self._cache["min_gap"]

    def layer_of(self, p: Point2) -> int:
        """1-based index of the layer containing p (boundary points belong
        to the layer above)."""
        return int(self.layers_of(np.array([p.x]), np.array([p.z]))[0])

    def layers_of(self, x, z) -> np.ndarray:
        """:meth:`layer_of` for every point (x[i], z[i]) of two arrays."""
        layer = np.full(np.shape(x), self.num_layers)
        for i in reversed(range(len(self.boundaries))):
            layer[z <= self.boundaries[i]._eval(x) + _DOMAIN_SLACK] = i + 1
        return layer

    def truncated(self, num_layers: int) -> "Medium":
        """The sub-stack made of the first ``num_layers`` layers."""
        if num_layers == self.num_layers:
            return self
        return Medium(self.speeds[:num_layers], self.boundaries[:num_layers - 1],
                      self.domain)

    def translated(self, dx: float) -> "Medium":
        return Medium(self.speeds, tuple(b.translated(dx) for b in self.boundaries),
                      (self.domain[0] + dx, self.domain[1] + dx))

    def flipped(self, z_ref: float) -> "Medium":
        """The same stack traversed bottom-up: mirror every boundary across
        z_ref/2 and reverse layer order.  Used for reciprocity checks."""
        return Medium(self.speeds[::-1],
                      tuple(b.flipped(z_ref) for b in reversed(self.boundaries)),
                      self.domain)

    def scaled_speeds(self, lam: float) -> "Medium":
        return Medium(tuple(c * lam for c in self.speeds), self.boundaries, self.domain)


def validate_medium(medium: Medium) -> ValidationReport:
    """Check the layered-medium assumptions; findings are reported, not raised.

    Verifies: at least two layers, positive finite speeds, one boundary per
    interface, matching lateral domains, finite boundary values, strict
    depth ordering with positive separation on a dense grid, the first
    boundary strictly below the array plane z = 0, and ellipse boundaries
    staying clear of their singular lateral extent.
    """
    v: list[str] = []
    n = medium.num_layers
    if n < 2:
        v.append(f"need at least 2 layers, got {n}")
    for i, c in enumerate(medium.speeds):
        if not (c > 0 and math.isfinite(c)):
            v.append(f"layer {i + 1} speed {c} not a positive finite value")
    if len(medium.boundaries) != n - 1:
        v.append(f"expected {n - 1} boundaries for {n} layers, "
                 f"got {len(medium.boundaries)}")
    lo, hi = medium.domain
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        v.append(f"invalid lateral domain [{lo}, {hi}]")
        return ValidationReport(tuple(v))

    xg = np.linspace(lo, hi, _ORDERING_GRID)
    prev = np.zeros_like(xg)  # array plane z = 0
    for i, b in enumerate(medium.boundaries):
        blo, bhi = b.domain
        if blo > lo + _DOMAIN_SLACK or bhi < hi - _DOMAIN_SLACK:
            v.append(f"boundary {i + 1} domain [{blo}, {bhi}] does not cover "
                     f"the medium domain [{lo}, {hi}]")
            continue
        if isinstance(b, Ellipse):
            if max(abs(lo - b.center.x), abs(hi - b.center.x)) >= b.a:
                v.append(f"boundary {i + 1}: ellipse singular inside the domain "
                         f"(|x - {b.center.x}| reaches a = {b.a})")
                continue
        z = np.asarray(b._eval(xg), dtype=float)
        if not np.all(np.isfinite(z)):
            v.append(f"boundary {i + 1} evaluates to non-finite values")
            continue
        sep = np.min(z - prev)
        if sep <= 0:
            kind = "array plane z = 0" if i == 0 else f"boundary {i}"
            v.append(f"boundary {i + 1} not strictly below {kind} "
                     f"(min separation {sep:.3e} m)")
        prev = z
    return ValidationReport(tuple(v))
