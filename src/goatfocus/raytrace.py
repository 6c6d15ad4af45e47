"""Forward ray tracing on rows: refraction, boundary crossings, lost rays.

Each row launches one ray from its source through a chosen crossing x1 of
the first boundary and follows it interface by interface: measure the
incidence angle against the local tangent, refract the sine through the
speed ratio, rotate the transmitted direction off the inward normal, and
cross the next boundary or, after the last one, the horizontal stop line at
the row's focus depth.  This is the constructive machinery behind the
shooting stage and the bracket check; the angle sign convention is the
signed tangential component of the unit segment vector, so no
side-of-normal case analysis is needed anywhere.  A ray that is totally
reflected, misses a boundary inside the lateral domain or runs a degenerate
segment is lost: its row carries a cause code and NaN, and nothing raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .medium import _DOMAIN_SLACK, Linear, Medium, Point2

# Segments shorter than this are degenerate (m).
MIN_SEGMENT = 1e-12

# |sin| beyond this counts as total reflection; grazing transmission makes
# the downstream intersection ill-conditioned.
_GRAZING_LIMIT = 1.0 - 1e-12

# Why a ray is lost: :func:`trace_rows` reports cause i as code i + 1, and
# code 0 for a ray that arrives.
LOST_CAUSES = ("total_reflection", "no_intersection")
_REFLECTED, _MISSED = 1, 2


@dataclass(frozen=True)
class RayPath:
    """The path of a verified two-point solution, built by :mod:`goatsolve`.

    ``points`` holds the source, one point per crossed boundary and the
    focus, so ``len(points) == len(incidence_angles) + 2``.
    Angles are signed (sign of the tangential component), in radians.
    """

    points: tuple[Point2, ...]
    incidence_angles: tuple[float, ...]
    refraction_angles: tuple[float, ...]
    tangent_angles: tuple[float, ...]
    tof_per_layer: tuple[float, ...]
    tof_total: float


@np.errstate(divide="ignore", invalid="ignore")
def sin_incidence(dX, dZ, tau):
    """Signed sines of the angles between segments (dX, dZ) and the normals
    of interfaces of tangent slope ``tau``, with the segment lengths.

    A sine is the projection of the unit segment vector onto the unit
    tangent (1, tau)/sqrt(1 + tau^2), positive when the ray runs toward +x
    along the tangent; it is the cosine of an angle, clipped against float
    spill.
    """
    L = np.hypot(dX, dZ)
    s = (dX + dZ * tau) / (np.sqrt(1.0 + tau * tau) * L)
    return np.clip(s, -1.0, 1.0), L


def refract(sin_in, c_in, c_out):
    """Transmitted sines (c_out/c_in) * sin_in, and the mask of total
    reflection: a transmitted sine beyond [-1, 1] (grazing transmission
    within 1e-12 of unity counts as reflected)."""
    s = (c_out / c_in) * sin_in
    return s, np.abs(s) > _GRAZING_LIMIT


def next_direction(tau, sin_out):
    """Unit directions (ux, uz) of the transmitted rays.

    Composes the transmitted sine along the unit tangent (tx, tz) with the
    matching cosine along the inward (transmission-side) unit normal; rays
    propagate downward, so the normal is (-tz, tx).
    """
    T = np.sqrt(1.0 + tau * tau)
    tx, tz = 1.0 / T, tau / T
    cos_out = np.sqrt(np.maximum(0.0, 1.0 - sin_out * sin_out))
    return sin_out * tx - cos_out * tz, sin_out * tz + cos_out * tx


def intersect_next(medium: Medium, k: int, ox, oz, ux, uz, z_stop=None):
    """First crossings (x, z) of the rays from (ox, oz) along the unit
    directions (ux, uz) with boundary ``k`` (0-based) of ``medium``, or with
    the horizontal stop line z = z_stop where that is given; NaN where a
    ray misses.

    The boundary, or the stop line as a flat boundary, finds the crossings
    itself.  A boundary crossing must lie inside the lateral domain; the
    stop line extends beyond it.
    """
    curve = medium.boundaries[k] if z_stop is None else Linear(0.0, z_stop)
    t = curve._crossings(ox, oz, ux, uz, np.inf)[0]
    if z_stop is None:
        lo, hi = medium.domain
        x = ox + t * ux
        t[~((lo - 1e-12 <= x) & (x <= hi + 1e-12))] = np.nan
    return ox + t * ux, oz + t * uz


def trace_rows(medium: Medium, ends, x1):
    """Trace one ray per row from (ends[0], ends[1]) through the crossing
    (x1, b1(x1)) of the first boundary down to the horizontal stop line
    z = ends[3], refracting at every interface; ``ends`` is (4, rows) as in
    the row solver, ``x1`` (rows,).

    Returns (xs, x_end, tof, lost): crossings (K, rows), the terminal x and
    the time of flight (rows,), and each row's lost code (0, or 1 + the
    index of its cause in :data:`LOST_CAUSES`).  A lost row is NaN in the
    other outputs.  A launch outside the lateral domain or not strictly
    below the source is lost for no intersection, as are a missed crossing
    and a degenerate segment.
    """
    lo, hi = medium.domain
    c = medium.speeds
    K = len(medium.boundaries)
    X = np.full((K + 2, np.size(x1)), np.nan)
    Z = np.full_like(X, np.nan)
    X[0], Z[0], X[1] = ends[0], ends[1], x1
    Z[1] = medium.boundaries[0]._eval(X[1])
    lost = np.where((lo - _DOMAIN_SLACK <= X[1]) & (X[1] <= hi + _DOMAIN_SLACK)
                    & (Z[1] > Z[0]), 0, _MISSED).astype(np.int8)
    for n, curve in enumerate(medium.boundaries, start=1):
        r = np.flatnonzero(lost == 0)
        tau = curve._slope(X[n, r])
        s_in, L = sin_incidence(X[n, r] - X[n - 1, r], Z[n, r] - Z[n - 1, r], tau)
        s_out, reflected = refract(s_in, c[n - 1], c[n])
        lost[r[reflected]] = _REFLECTED
        lost[r[L < MIN_SEGMENT]] = _MISSED
        go = lost[r] == 0
        r = r[go]
        ux, uz = next_direction(tau[go], s_out[go])
        X[n + 1, r], Z[n + 1, r] = intersect_next(
            medium, n, X[n, r], Z[n, r], ux, uz, ends[3, r] if n == K else None)
        lost[r[np.isnan(X[n + 1, r])]] = _MISSED
    L = np.hypot(X[1:] - X[:-1], Z[1:] - Z[:-1])
    lost[(lost == 0) & np.any(L < MIN_SEGMENT, axis=0)] = _MISSED
    tof = L[0] / c[0]
    for i in range(1, K + 1):  # left to right, like a scalar sum
        tof = tof + L[i] / c[i]
    X[:, lost > 0] = np.nan
    tof[lost > 0] = np.nan
    return X[1:-1], X[-1], tof, lost
