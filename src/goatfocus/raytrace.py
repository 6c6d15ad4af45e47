"""Forward ray propagation: refraction, boundary intersection, path assembly.

A ray launched from a point above the first boundary is propagated interface
by interface: measure the incidence angle against the local tangent, refract
the sine through the speed ratio, rotate the transmitted direction off the
inward normal, and intersect with the next boundary (or a horizontal stop
line).  This is the constructive machinery behind the shooting solver and
the existence checks; the angle sign convention is the signed tangential
component of the unit segment vector, so no side-of-normal case analysis is
needed anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSegmentError,
    NoIntersectionError,
    TotalReflectionError,
)
from .medium import Linear, Medium, Point2, boundary_eval, boundary_slope

# Segments shorter than this are degenerate (m).
MIN_SEGMENT = 1e-12

# |sin| beyond this counts as total reflection; grazing transmission makes
# the downstream intersection ill-conditioned.
_GRAZING_LIMIT = 1.0 - 1e-12

# Intersection root polish target on |b(x(t)) - z(t)| (m).
_INTERSECT_TOL = 1e-13


@dataclass(frozen=True)
class RaySegmentState:
    """A straight ray inside one layer: origin, unit direction, layer index."""

    origin: Point2
    direction: tuple[float, float]
    layer_index: int

    def __post_init__(self):
        dx, dz = self.direction
        norm = math.hypot(dx, dz)
        if abs(norm - 1.0) > 1e-9:
            object.__setattr__(self, "direction", (dx / norm, dz / norm))


@dataclass(frozen=True)
class RayPath:
    """A fully propagated ray: crossing points plus per-interface angles.

    ``points`` holds the launch point, one point per crossed boundary and
    the terminal point, so ``len(points) == len(incidence_angles) + 2``.
    Angles are signed (sign of the tangential component), in radians.
    """

    points: tuple[Point2, ...]
    incidence_angles: tuple[float, ...]
    refraction_angles: tuple[float, ...]
    tangent_angles: tuple[float, ...]
    tof_per_layer: tuple[float, ...]
    tof_total: float
    recrossed_boundaries: tuple[int, ...] = field(default=())


def sin_incidence(p_prev: Point2, p: Point2, tan_alpha: float) -> float:
    """Signed sine of the angle between segment p_prev->p and the boundary
    normal at p, for a boundary with tangent slope ``tan_alpha``.

    Equals the projection of the unit segment vector onto the unit tangent
    (1, tan_alpha)/sqrt(1 + tan_alpha^2); positive when the ray runs toward
    +x along the tangent.
    """
    dx = p.x - p_prev.x
    dz = p.z - p_prev.z
    seg = math.hypot(dx, dz)
    if seg < MIN_SEGMENT:
        raise DegenerateSegmentError(
            f"segment {p_prev} -> {p} shorter than {MIN_SEGMENT} m")
    s = (dx + dz * tan_alpha) / (math.sqrt(1.0 + tan_alpha * tan_alpha) * seg)
    # The exact expression is a cosine of an angle; clip float spill.
    return min(1.0, max(-1.0, s))


def refract(sin_theta_in: float, c_in: float, c_out: float) -> float:
    """Transmitted sine through an interface: sin' = (c_out/c_in) * sin.

    Raises TotalReflectionError when the transmitted sine leaves [-1, 1]
    (grazing transmission within 1e-12 of unity counts as reflected).
    """
    s = (c_out / c_in) * sin_theta_in
    if abs(s) > _GRAZING_LIMIT:
        raise TotalReflectionError(
            f"total reflection: |{c_out}/{c_in} * {sin_theta_in:.6g}| = "
            f"{abs(s):.6g} > 1", ratio=s)
    return s


def next_direction(tan_alpha: float,
                   sin_theta_out: float) -> tuple[float, float]:
    """Unit direction of the transmitted ray.

    Composes the transmitted sine along the unit tangent (tx, tz) with the
    matching cosine along the inward (transmission-side) unit normal; rays
    propagate downward, so the normal is (-tz, tx).
    """
    t_norm = math.sqrt(1.0 + tan_alpha * tan_alpha)
    tx, tz = 1.0 / t_norm, tan_alpha / t_norm
    cos_out = math.sqrt(max(0.0, 1.0 - sin_theta_out * sin_theta_out))
    return (sin_theta_out * tx - cos_out * tz,
            sin_theta_out * tz + cos_out * tx)


def _intersect_line(ox, oz, dx, dz, k, d):
    """Ray parameter of the crossing with z = k*x + d, or None."""
    denom = dz - k * dx
    if abs(denom) < 1e-300:
        return None
    t = (k * ox + d - oz) / denom
    return t if t > 0.0 else None


def intersect_next(state: RaySegmentState, medium: Medium,
                   z_stop: float | None = None) -> Point2:
    """First crossing of the ray with the next interface below it.

    With ``z_stop`` given, the target is the horizontal stop line z = z_stop
    (the virtual last interface used by the shooting solver; it extends
    beyond the lateral domain).  Otherwise the target is the medium boundary
    whose index equals ``state.layer_index`` and the crossing must occur
    inside the lateral domain.

    Straight boundaries are intersected in closed form.  Curved ones are
    bracketed by marching the ray parameter in steps of (smallest interface
    gap)/8 and polished by bisection plus a final secant step to
    |b(x(t)) - z(t)| <= 1e-13 m.
    """
    ox, oz = state.origin.x, state.origin.z
    dx, dz = state.direction

    if z_stop is not None:
        t = _intersect_line(ox, oz, dx, dz, 0.0, z_stop)
        if t is None:
            raise NoIntersectionError(
                f"ray from {state.origin} does not reach z = {z_stop}",
                boundary_index=state.layer_index)
        return Point2(ox + t * dx, oz + t * dz)

    bidx = state.layer_index  # boundary below layer `layer_index`
    curve = medium.boundaries[bidx - 1]
    lo, hi = medium.domain

    if isinstance(curve, Linear):
        t = _intersect_line(ox, oz, dx, dz, curve.k, curve.d)
    else:
        t = _march_curved(curve, ox, oz, dx, dz, lo, hi, medium.min_gap() / 8.0)
    if t is None:
        raise NoIntersectionError(
            f"ray from {state.origin} exits the domain before crossing "
            f"boundary {bidx}", boundary_index=bidx)
    p = Point2(ox + t * dx, oz + t * dz)
    if not (lo - 1e-12 <= p.x <= hi + 1e-12):
        raise NoIntersectionError(
            f"crossing of boundary {bidx} at x = {p.x:.6g} lies outside the "
            f"lateral domain [{lo}, {hi}]", boundary_index=bidx)
    return p


def _march_curved(curve, ox, oz, dx, dz, lo, hi, step):
    """Bracket-and-polish root of g(t) = b(x(t)) - z(t) for a curved boundary."""
    def g(t):
        return curve._eval(ox + t * dx) - (oz + t * dz)

    # Cap the march at the domain exit (or a generous travel bound for
    # near-vertical rays).
    if dx > 1e-15:
        t_exit = (hi - ox) / dx
    elif dx < -1e-15:
        t_exit = (lo - ox) / dx
    else:
        t_exit = (hi - lo) + abs(oz) + 1.0
    t_prev, g_prev = 0.0, g(0.0)
    if abs(g_prev) <= _INTERSECT_TOL:
        # Already on the boundary (tangential start): step off it first.
        t_prev += step * 1e-6
        g_prev = g(t_prev)
    t = t_prev
    while t < t_exit:
        t = min(t + step, t_exit)
        gt = g(t)
        if g_prev * gt <= 0.0:
            return _polish_root(g, t_prev, t)
        t_prev, g_prev = t, gt
        if t >= t_exit:
            break
    return None


def _polish_root(g, a, b):
    """Bisection to a tight bracket, then secant steps to the noise floor.

    The guaranteed result quality is |g| <= 1e-13 m; the secant polish
    normally lands far below that, which keeps thin layers (whose residuals
    amplify crossing errors) well conditioned.
    """
    ga, gb = g(a), g(b)
    for _ in range(200):
        m = 0.5 * (a + b)
        gm = g(m)
        if abs(gm) <= _INTERSECT_TOL or (b - a) < 1e-16 * max(1.0, abs(b)):
            break
        if ga * gm <= 0.0:
            b, gb = m, gm
        else:
            a, ga = m, gm
    t_cur, g_cur = m, gm
    t_prev, g_prev = (a, ga) if a != m else (b, gb)
    for _ in range(20):
        if g_cur == 0.0 or g_cur == g_prev:
            break
        t_next = t_cur - g_cur * (t_cur - t_prev) / (g_cur - g_prev)
        g_next = g(t_next)
        if abs(g_next) >= abs(g_cur):
            break
        t_prev, g_prev, t_cur, g_cur = t_cur, g_cur, t_next, g_next
    return t_cur


def _recrosses(curve, p_from: Point2, p_to: Point2, samples: int = 256) -> bool:
    """True if the segment p_from -> p_to crosses ``curve`` strictly between
    its endpoints (both endpoints may lie on interfaces)."""
    xs = np.linspace(p_from.x, p_to.x, samples + 2)[1:-1]
    if abs(p_to.x - p_from.x) < MIN_SEGMENT:
        return False  # vertical segment: z is a function of x, no re-entry
    zs = p_from.z + (xs - p_from.x) * (p_to.z - p_from.z) / (p_to.x - p_from.x)
    diff = np.asarray(curve._eval(xs), dtype=float) - zs
    return bool(np.any(diff <= 0.0) and np.any(diff >= 0.0))


def propagate(medium: Medium, p0: Point2, x1: float, z_stop: float,
              check_unique: bool = False) -> RayPath:
    """Propagate the ray that leaves ``p0`` through (x1, b1(x1)) down to the
    horizontal line z = z_stop, refracting at every interface.

    The crossing with the first boundary pins the whole path; each further
    interface applies sin_incidence -> refract -> next_direction ->
    intersect_next.  With ``check_unique`` the segments are additionally
    scanned for re-crossings of the interface just left, and offending
    interface indices are recorded on the returned path.

    Raises TotalReflectionError / NoIntersectionError with the interface
    index attached.
    """
    n_bound = medium.num_layers - 1
    b1 = medium.boundaries[0]
    p1 = Point2(x1, boundary_eval(b1, x1))
    if p1.z <= p0.z:
        raise NoIntersectionError(
            f"first crossing ({x1}, {p1.z}) not strictly below the launch "
            f"point {p0}", boundary_index=1)

    points = [p0, p1]
    inc, refr, tang, tofs = [], [], [], []
    recrossed: list[int] = []
    speeds = medium.speeds
    for n in range(1, n_bound + 1):
        pn = points[-1]
        tan_alpha = boundary_slope(medium.boundaries[n - 1], pn.x)
        s_in = sin_incidence(points[-2], pn, tan_alpha)
        try:
            s_out = refract(s_in, speeds[n - 1], speeds[n])
        except TotalReflectionError as exc:
            exc.boundary_index = n
            raise
        direction = next_direction(tan_alpha, s_out)
        state = RaySegmentState(pn, direction, n + 1)
        if n < n_bound:
            p_next = intersect_next(state, medium)
        else:
            p_next = intersect_next(state, medium, z_stop=z_stop)
        if check_unique and _recrosses(medium.boundaries[n - 1], pn, p_next):
            recrossed.append(n)
        points.append(p_next)
        inc.append(math.asin(s_in))
        refr.append(math.asin(s_out))
        tang.append(math.atan(tan_alpha))

    for i in range(len(points) - 1):
        seg = points[i].dist(points[i + 1])
        if seg < MIN_SEGMENT:
            raise DegenerateSegmentError(
                f"degenerate segment between {points[i]} and {points[i + 1]}")
        tofs.append(seg / speeds[i])

    return RayPath(tuple(points), tuple(inc), tuple(refr), tuple(tang),
                   tuple(tofs), sum(tofs), tuple(recrossed))
