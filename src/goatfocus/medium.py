"""Layered-medium description: boundary curves, the medium stack, validation.

A medium is an ordered stack of constant-speed layers separated by once
continuously differentiable boundary curves z = b(x) over a shared lateral
interval.  Depth z increases downward; the transducer plane sits at z = 0
above the first boundary.  All quantities are SI (meters, seconds, m/s).
A horizontal boundary (:class:`Constant`) is :class:`Linear` at slope 0.
Every boundary kind finds its own exact crossings with straight lines.
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

    def _checked(self, x):
        """``x``, or DomainError where it leaves the domain (with slack)."""
        lo, hi = self.domain
        if not np.all((np.asarray(x) >= lo - _DOMAIN_SLACK)
                      & (np.asarray(x) <= hi + _DOMAIN_SLACK)):
            raise DomainError(f"x = {x} outside boundary domain {self.domain}")
        return x

    def _eval(self, x):
        raise NotImplementedError

    def _slope(self, x):
        raise NotImplementedError

    def _curvature(self, x):
        """Second derivative b''(x), used by the analytic Jacobian."""
        raise NotImplementedError

    def _crossings(self, ox, oz, ux, uz, t_hi):
        """(t, n) per line (ox + t ux, oz + t uz): its first crossing with the
        curve for 0 < t < t_hi (NaN if none) and its number of crossings."""
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

    @np.errstate(divide="ignore", invalid="ignore")
    def _crossings(self, ox, oz, ux, uz, t_hi):
        denom = uz - self.k * ux
        t = (self.k * ox + self.d - oz) / denom
        hit = (np.abs(denom) >= 1e-300) & (0.0 < t) & (t < t_hi)
        return np.where(hit, t, np.nan), hit.astype(int)

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

    @np.errstate(divide="ignore", invalid="ignore")
    def _crossings(self, ox, oz, ux, uz, t_hi):
        # In ellipse units the ellipse is the unit circle, met by a line at the
        # roots of A t^2 + 2 B t + C; a root counts where it is on this half.
        p, q = (ox - self.center.x) / self.a, (oz - self.center.z) / self.b
        u, v = ux / self.a, uz / self.b
        roots = _root_pair(u * u + v * v, p * u + q * v, p * p + q * q - 1.0)
        ok = [(0.0 < r) & (r < t_hi) & (self.sign * (q + r * v) >= 0.0) for r in roots]
        return np.fmin(*np.where(ok, roots, np.nan)), np.sum(ok, axis=0)

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
        # Each piece's x-interval inside the domain, and its padded depth range.
        self._left, self._right = np.clip(
            [np.r_[-np.inf, x[1:-1]], np.r_[x[1:-1], np.inf]], *self.domain)
        w = self._right - self._left
        zs = self._eval(self._left + self._parts(np.arange(w.size), self._left, 1.0, 0.0,
                                                 0.0 * w, w))
        self._zlo, self._zhi = zs.min(0) - _DOMAIN_SLACK, zs.max(0) + _DOMAIN_SLACK

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

    @np.errstate(divide="ignore", invalid="ignore")
    def _crossings(self, ox, oz, ux, uz, t_hi):
        t_hi = np.broadcast_to(t_hi, np.shape(ox))
        if np.size(ox) > 2048:  # chunks of lines bound the (line, piece) pairs
            chunks = [self._crossings(*(w[r:r + 2048] for w in (ox, oz, ux, uz, t_hi)))
                      for r in range(0, np.size(ox), 2048)]
            return tuple(np.concatenate(w) for w in zip(*chunks))
        # Each line's stretch inside the curve's depth range, and one (line,
        # piece) pair per piece it spans there.
        ta, tb = _slab(oz, uz, np.min(self._zlo), np.max(self._zhi))
        ta, tb = np.fmax(ta, 0.0), np.fmin(tb, t_hi)
        knots = self.x_samples[1:-1]
        j0, j1 = (np.searchsorted(knots, f(ox + ta * ux, ox + tb * ux), side="right")
                  for f in (np.fmin, np.fmax))
        count = np.where(ta < tb, j1 - j0 + 1, 0)
        i = np.repeat(np.arange(np.size(ox)), count)
        j = j0[i] + np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
        # A pair's stretch on its piece inside the domain, kept where the line
        # there meets the piece's depth range, split into monotone parts.
        pa, pb = _slab(ox[i], ux[i], self._left[j], self._right[j])
        pa, pb = np.fmax(pa, ta[i]), np.fmin(pb, tb[i])
        z = oz[i] + [pa, pb] * uz[i]
        keep = (pa < pb) & (z.min(0) <= self._zhi[j]) & (z.max(0) >= self._zlo[j])
        i, j, pa, pb = i[keep], j[keep], pa[keep], pb[keep]
        e = self._parts(j, ox[i], ux[i], uz[i], pa, pb)
        # A part holds one crossing where its ends change sign (open at its
        # start); polish each line's first by Newton kept inside the part.
        g = self._eval(ox[i] + e * ux[i]) - (oz[i] + e * uz[i])
        change = ((g[:-1] < 0.0) & (g[1:] >= 0.0)) | ((g[:-1] > 0.0) & (g[1:] <= 0.0))
        n = np.bincount(i, change.sum(axis=0), np.size(ox)).astype(int)
        k = np.argmax(change, axis=0)
        p = np.flatnonzero(change.any(axis=0))
        p = p[np.lexsort((e[k[p], p], i[p]))]
        p = p[np.diff(i[p], prepend=-1) != 0]
        a, b, ga, gb, i = e[k[p], p], e[k[p] + 1, p], g[k[p], p], g[k[p] + 1, p], i[p]
        t, go = np.clip(a - ga * (b - a) / (gb - ga), a, b), np.ones(p.size, dtype=bool)
        (c3, c2, c1, c0), s0 = self._coef[:, j[p]], ox[i] - self.x_samples[j[p]]
        for _ in range(64):
            s = s0 + t * ux[i]
            gt = ((c3 * s + c2) * s + c1) * s + c0 - (oz[i] + t * uz[i])
            step = t - gt / (((3.0 * c3 * s + 2.0 * c2) * s + c1) * ux[i] - uz[i])
            right = (ga < 0.0) == (gt < 0.0)  # the crossing lies right of t
            a, b = np.where(right, t, a), np.where(right, b, t)
            new = np.where((a < step) & (step < b), step, 0.5 * (a + b))
            go &= (gt != 0.0) & (step != t) & (new != t)
            if not go.any():
                break
            t = np.where(go, new, t)
        first = np.full(np.size(ox), np.nan)
        first[i] = t
        return first, n

    @np.errstate(divide="ignore", invalid="ignore")
    def _parts(self, j, ox, ux, uz, ta, tb):
        """Ends (4, pairs) of the parts of [ta, tb] on which piece j minus
        the line (ox + t ux, oz + t uz) is monotone."""
        c3, c2, c1, _ = self._coef[:, j]
        s0 = ox - self.x_samples[j]
        turns = _root_pair(3.0 * c3 * ux, c2 * ux, c1 * ux - uz)
        return np.sort([ta, tb] + [np.fmin(np.fmax((s - s0) / ux, ta), tb)
                                   for s in turns], axis=0)

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


def _root_pair(A, B, C):
    """Both roots of A t^2 + 2 B t + C = 0 by the stable formula; NaN where
    complex, non-finite where missing (A = 0)."""
    w = -(B + np.copysign(np.sqrt(B * B - A * C), B))
    return w / A, C / w


def _slab(o, u, lo, hi):
    """The t-interval (ta, tb) on which lo <= o + t u <= hi, one per row;
    all t for a line with u = 0 inside the slab, empty (ta > tb) outside."""
    t1, t2 = (lo - o) / u, (hi - o) / u
    flat = np.where((lo <= o) & (o <= hi), np.inf, -np.inf)
    return (np.where(u == 0.0, -flat, np.fmin(t1, t2)),
            np.where(u == 0.0, flat, np.fmax(t1, t2)))


def boundary_eval(curve: BoundaryCurve, x):
    """Evaluate z = b(x) with domain enforcement."""
    return curve._eval(curve._checked(x))


def boundary_slope(curve: BoundaryCurve, x):
    """Evaluate b'(x) (the tangent slope tan(alpha)) with domain enforcement."""
    return curve._slope(curve._checked(x))


def boundary_curvature(curve: BoundaryCurve, x):
    """Evaluate b''(x); zero for straight boundaries."""
    return curve._curvature(curve._checked(x))


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

    def __init__(self, speeds, boundaries, domain):
        object.__setattr__(self, "speeds", tuple(float(c) for c in speeds))
        object.__setattr__(self, "boundaries", tuple(boundaries))
        object.__setattr__(self, "domain", (float(domain[0]), float(domain[1])))

    @property
    def num_layers(self) -> int:
        return len(self.speeds)

    @property
    def width(self) -> float:
        return self.domain[1] - self.domain[0]

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
