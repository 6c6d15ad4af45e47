"""Existence/uniqueness condition checkers, travel-time stationarity tools,
constant-ToF level curves, and a dynamic-programming Fermat oracle.

Everything here except :func:`bracket_scan` is built on direct geometry
(segment lengths, boundary evaluations) rather than on the solver's residual
machinery, so these operations double as independent cross-checks on solver
output.  :func:`bracket_scan` is the shooting stage's own scan of launched
rays.  The Fermat oracle minimizes the travel-time sum by exhaustive search
plus coordinate refinement and never touches Snell's law.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateDenominatorError, DegenerateSegmentError
from .goatsolve import _brackets, _cause_counts, _ends, _scan_rows
from .medium import Medium, Point2, boundary_eval, boundary_slope
from .raytrace import MIN_SEGMENT

_UNIQUE_SAMPLES = 256
_SCAN_SAMPLES = 512  # uniqueness_scan's lateral samples
_DENOM_FLOOR = 1e-14  # normalized units; the equivalence theorem's proviso
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Elements per Fermat-oracle DP block: a worker's two float64 buffers of
# this many elements take 4 MB together.
_DP_BLOCK = 2**18


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one existence/uniqueness condition check."""

    condition: str  # no_total_reflection | unique_intersection |
    #                 uniqueness_scan | bracket_exists
    boundary_index: int
    satisfied: bool
    witness: object = None  # Point2, x-interval, or scan detail when violated
    margin: float = 0.0


@dataclass(frozen=True)
class LevelSetCurve:
    points: tuple[Point2, ...]
    tof_value: float
    seed: Point2


@dataclass(frozen=True)
class OracleResult:
    tof: float
    xs: tuple[float, ...]
    bound: float  # conservative accuracy estimate: grid spacing^2 * curvature


def check_no_total_reflection(medium: Medium, path_points) -> list[ConditionReport]:
    """Evaluate the transmitted-sine magnitude |c_out/c_in * sin| at every
    interface crossing of an explicit path; values above one mean the path
    cannot be realized by a transmitted ray there.

    ``margin`` is one minus the evaluated magnitude (negative when violated).
    """
    pts = list(path_points)
    reports = []
    c = medium.speeds
    for n, b in enumerate(medium.boundaries, start=1):
        p_prev, p = pts[n - 1], pts[n]
        dx, dz = p.x - p_prev.x, p.z - p_prev.z
        seg = math.hypot(dx, dz)
        if seg < MIN_SEGMENT:
            raise DegenerateSegmentError(f"degenerate segment at interface {n}")
        slope = boundary_slope(b, p.x)
        value = abs((c[n] / c[n - 1]) * (dx + slope * dz)
                    / (math.sqrt(1.0 + slope * slope) * seg))
        reports.append(ConditionReport(
            "no_total_reflection", n, value <= 1.0,
            witness=None if value <= 1.0 else p, margin=1.0 - value))
    return reports


def check_unique_intersection(medium: Medium, boundary_index: int,
                              pn: Point2, p_next: Point2) -> ConditionReport:
    """Does the straight segment ``pn`` -> ``p_next``, leaving interface
    ``boundary_index`` at ``pn``, stay clear of that interface?

    A vertical segment (lateral extent below ``MIN_SEGMENT``) can never
    re-intersect a boundary whose depth is a function of the lateral
    coordinate.  Otherwise, with k the segment's slope, the expression
    b(x) - b(x_n) - k (x - x_n) must keep one sign strictly between the two
    crossings; it is sampled at 256 interior points and a sign flip yields
    the offending lateral position as witness.
    """
    b = medium.boundaries[boundary_index - 1]
    dx = p_next.x - pn.x
    if abs(dx) < MIN_SEGMENT:
        return ConditionReport("unique_intersection", boundary_index, True)
    xs = np.linspace(pn.x, p_next.x, _UNIQUE_SAMPLES + 2)[1:-1]
    expr = np.asarray(b._eval(xs), dtype=float) - b._eval(pn.x) \
        - (p_next.z - pn.z) / dx * (xs - pn.x)
    signs = np.sign(expr)
    flip = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if flip.size == 0 and not np.any(signs == 0):
        margin = float(np.min(np.abs(expr)))
        return ConditionReport("unique_intersection", boundary_index, True,
                               margin=margin)
    idx = int(flip[0]) if flip.size else int(np.argmax(signs == 0))
    x_w = float(xs[idx])
    return ConditionReport("unique_intersection", boundary_index, False,
                           witness=Point2(x_w, float(b._eval(x_w))),
                           margin=0.0)


def _chain(medium: Medium, p0: Point2, pN: Point2, xs):
    xs = np.asarray(xs, dtype=float)
    X = np.concatenate(([p0.x], xs, [pN.x]))
    Z = np.empty_like(X)
    Z[0], Z[-1] = p0.z, pN.z
    for i, b in enumerate(medium.boundaries):
        Z[i + 1] = boundary_eval(b, xs[i])
    dX, dZ = np.diff(X), np.diff(Z)
    L = np.hypot(dX, dZ)
    if np.any(L < MIN_SEGMENT):
        raise DegenerateSegmentError("consecutive path points coincide")
    return X, Z, dX, dZ, L


def tof_gradient(medium: Medium, p0: Point2, pN: Point2, xs) -> np.ndarray:
    """Partial derivatives of the travel-time sum with respect to each
    interior crossing coordinate (s/m); zero at a refraction-consistent path."""
    X, Z, dX, dZ, L = _chain(medium, p0, pN, xs)
    c = np.asarray(medium.speeds)
    xs = np.asarray(xs, dtype=float)
    tau = np.array([boundary_slope(b, xs[i])
                    for i, b in enumerate(medium.boundaries)])
    return (dX[:-1] + tau * dZ[:-1]) / (c[:-1] * L[:-1]) \
        - (dX[1:] + tau * dZ[1:]) / (c[1:] * L[1:])


def _stationarity_terms(c_in, c_out, p0: Point2, x, z, p2: Point2):
    """(L_in, L_out, c_in * L_in, c_out * L_out, num, den) at an interface
    point (x, z) on the path p0 -> (x, z) -> p2: the segment lengths, their
    speed-weighted lengths, and the slope condition's numerator and
    denominator (a constant-ToF curve through the point has slope
    num / den)."""
    dx_in, db_in = x - p0.x, z - p0.z
    dx_out, db_out = p2.x - x, p2.z - z
    L_in = math.hypot(dx_in, db_in)
    L_out = math.hypot(dx_out, db_out)
    a_in, a_out = c_in * L_in, c_out * L_out
    return (L_in, L_out, a_in, a_out,
            a_in * dx_out - a_out * dx_in, a_out * db_in - a_in * db_out)


def slope_condition_residual(medium: Medium, boundary_index: int,
                             p_prev: Point2, p: Point2, p_next: Point2) -> float:
    """Residual of the stationarity slope condition at one interface point:
    the boundary slope minus the slope a constant-ToF curve through ``p``
    would need, given the neighboring path points.

    Raises DegenerateDenominatorError when the condition's denominator is
    smaller than 1e-14 in normalized units.
    """
    L_in, L_out, a_in, a_out, num, den = _stationarity_terms(
        medium.speeds[boundary_index - 1], medium.speeds[boundary_index],
        p_prev, p.x, p.z, p_next)
    if min(L_in, L_out) < MIN_SEGMENT:
        raise DegenerateSegmentError("degenerate segment at the interface point")
    scale = max(a_in, a_out) * max(L_in, L_out)
    if abs(den) <= _DENOM_FLOOR * scale:
        raise DegenerateDenominatorError(
            f"slope-condition denominator {den:.3e} below floor at interface "
            f"{boundary_index}")
    slope = boundary_slope(medium.boundaries[boundary_index - 1], p.x)
    return slope - num / den


def _cleared_slope_condition(medium: Medium, p0: Point2, p2: Point2, x):
    """Denominator-cleared form of the slope condition for a 2-layer medium:
    b'(x) * den - num.  Shares roots with the raw residual but has no poles,
    so sign counting over a scan is meaningful."""
    b = medium.boundaries[0]
    *_, num, den = _stationarity_terms(*medium.speeds, p0, x, b._eval(x), p2)
    return b._slope(x) * den - num


def uniqueness_scan(medium: Medium, p0: Point2, pN: Point2) -> ConditionReport:
    """Count solutions of the slope condition along the single interface of a
    2-layer medium by scanning for sign changes; exactly one means the
    two-point problem has a unique crossing.

    The scan uses the denominator-cleared form of the condition so that
    denominator zeros do not masquerade as extra roots.
    """
    if medium.num_layers != 2:
        raise ValueError("uniqueness scan is defined for 2-layer media only")
    lo, hi = medium.domain
    pad = 1e-9 * (hi - lo)
    xg = np.linspace(lo + pad, hi - pad, _SCAN_SAMPLES)
    vals = np.array([_cleared_slope_condition(medium, p0, pN, float(x))
                     for x in xg])
    signs = np.sign(vals)
    flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    witnesses = tuple(Point2(float(0.5 * (xg[i] + xg[i + 1])),
                             float(medium.boundaries[0]._eval(0.5 * (xg[i] + xg[i + 1]))))
                      for i in flips)
    count = len(witnesses)
    return ConditionReport("uniqueness_scan", 1, count == 1,
                           witness=witnesses if count != 1 else witnesses[0],
                           margin=float(count))


def bracket_scan(medium: Medium, p0: Point2, pN: Point2) -> ConditionReport:
    """Existence precheck: does the terminal miss of launched rays change
    sign across the first interface's domain?  The witness carries the
    bracketing interval (or the per-cause skip counts when rays never
    straddle the focus)."""
    cand, miss, causes = _scan_rows(medium, _ends(p0, pN))
    _, ia, ib = _brackets(miss)
    evaluated = int(np.sum(~np.isnan(miss)))
    if ia.size:
        return ConditionReport("bracket_exists", 1, True,
                               witness=(float(cand[ia[0]]), float(cand[ib[0]])),
                               margin=float(evaluated))
    return ConditionReport("bracket_exists", 1, False,
                           witness={"skipped": _cause_counts(causes[:, 0]),
                                    "evaluated": evaluated},
                           margin=float(evaluated))


# Constant-ToF curves are closed ovals; the dz/dx parameterization breaks
# where their tangent turns vertical.  Slopes beyond this magnitude are
# treated as the degenerate-denominator condition and terminate the branch
# (they would also wreck the fixed-step integration accuracy).
_LEVEL_SLOPE_MAX = 10.0


def _level_slope(c1, c2, p0, p2, x, z):
    L_in, L_out, _, _, num, den = _stationarity_terms(c1, c2, p0, x, z, p2)
    if min(L_in, L_out) < 1e-6:
        # Both terms of den shrink with the segment: the same condition.
        raise DegenerateDenominatorError(
            "level-set point within 1e-6 m of an endpoint")
    if abs(den) * _LEVEL_SLOPE_MAX <= abs(num) or den == 0.0:
        raise DegenerateDenominatorError("level-set tangent is (near) vertical")
    return num / den


def tof_two_segment(medium: Medium, p0: Point2, p2: Point2, p: Point2) -> float:
    """Travel time p0 -> p -> p2 with the two layer speeds of a 2-layer medium."""
    return p0.dist(p) / medium.speeds[0] + p.dist(p2) / medium.speeds[1]


def tof_level_set(medium2: Medium, p0: Point2, p2: Point2, seed: Point2,
                  arc_steps: int = 2048) -> LevelSetCurve:
    """Constant-travel-time curve through ``seed`` for a 2-layer medium.

    Integrates dz/dx of the iso-ToF condition with a fixed-step classical
    4th-order scheme in both lateral directions from the seed.  A branch
    stops at the domain edges, within 1e-6 m of either endpoint, or where
    the curve tangent turns vertical; it keeps the points of its completed
    steps.  A seed within 1e-6 m of an endpoint, or where the tangent is
    already vertical, leaves no curve to integrate in x and raises
    :class:`DegenerateDenominatorError`.
    """
    if medium2.num_layers != 2:
        raise ValueError("level sets require a 2-layer medium")
    if not (p0.z < seed.z < p2.z):
        raise ValueError("seed must lie strictly between the endpoints in depth")
    c1, c2 = medium2.speeds
    lo, hi = medium2.domain
    h = (hi - lo) / arc_steps
    tof_value = tof_two_segment(medium2, p0, p2, seed)
    slope = partial(_level_slope, c1, c2, p0, p2)
    slope(seed.x, seed.z)  # raises at an endpoint or a vertical tangent
    left, right = [], []
    for pts, step in ((left, -h), (right, h)):
        x, z = seed.x, seed.z
        # _level_slope raising ends the branch mid-step.
        with suppress(DegenerateDenominatorError):
            for _ in range(arc_steps):
                xn = x + step
                if not (lo <= xn <= hi):
                    break
                # Sub-divide the fixed output step where the curve steepens
                # (bounded vertical motion per sub-step), so accuracy holds
                # right up to the vertical-tangent cutoff.
                done = 0.0
                while abs(done) < abs(step) - 1e-30:
                    xd = x + done
                    k1 = slope(xd, z)
                    n = min(1024.0, math.ceil(4.0 * (1.0 + abs(k1))))
                    dt = math.copysign(min(abs(step) / n, abs(step) - abs(done)),
                                       step)
                    k2 = slope(xd + 0.5 * dt, z + 0.5 * dt * k1)
                    k3 = slope(xd + 0.5 * dt, z + 0.5 * dt * k2)
                    k4 = slope(xd + dt, z + dt * k3)
                    z = z + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
                    done += dt
                x = xn
                p = Point2(x, z)
                if p.dist(p0) < 1e-6 or p.dist(p2) < 1e-6:
                    break
                pts.append(p)
    points = tuple(left[::-1] + [seed] + right)
    return LevelSetCurve(points, tof_value, seed)


def oval_identity_residual(medium2: Medium, p0: Point2, p2: Point2,
                           curve: LevelSetCurve) -> np.ndarray:
    """Distance-combination residual per curve point: |P-P0| + (c1/c2)|P-P2|
    minus its value at the seed (meters).  Zero for an exact constant-ToF
    curve, which is a Cartesian oval with ratio c1/c2."""
    c1, c2 = medium2.speeds
    ratio = c1 / c2

    def combo(p):
        return p.dist(p0) + ratio * p.dist(p2)

    ref = combo(curve.seed)
    return np.array([combo(p) - ref for p in curve.points])


def _dp_min_chain(medium: Medium, p0: Point2, pN: Point2, grid: int,
                  workers: int = 1):
    """Dynamic program over per-interface lateral grids: minimal travel-time
    chain from p0 to pN, ties resolved toward the smallest grid index.

    Each interface step is cut into blocks of ``_DP_BLOCK // grid`` rows
    (at least one).  Rows are independent, so the blocks are dealt to
    ``workers`` threads, each of which fills two reused (rows, grid) buffers
    with the same elementwise operations, in the same order, as the one-shot
    ``hypot(dx, dz) / c + cost``: the result does not depend on the block
    size or the worker count, and the working memory is
    ``16 * _DP_BLOCK`` bytes per worker for any grid up to ``_DP_BLOCK``.
    """
    lo, hi = medium.domain
    c = medium.speeds
    xg = np.linspace(lo, hi, grid)
    zs = [np.asarray(b._eval(xg), dtype=float) for b in medium.boundaries]
    K = len(zs)
    cost = np.hypot(xg - p0.x, zs[0] - p0.z) / c[0]
    back: list[np.ndarray] = []
    rows = max(1, _DP_BLOCK // grid)
    starts = range(0, grid, rows)
    n = min(workers, len(starts))
    bufs = np.empty((n, 2, rows, grid))
    picks = np.arange(rows)

    def step(i, cost, new_cost, arg, w):
        # Worker w takes blocks w, w + n, w + 2n, ... of step i.
        for s in starts[w::n]:
            e = min(s + rows, grid)
            a, b = bufs[w, :, :e - s]
            np.subtract(xg[s:e, None], xg[None, :], out=a)
            np.subtract(zs[i][s:e, None], zs[i - 1][None, :], out=b)
            np.hypot(a, b, out=a)
            a /= c[i]
            a += cost
            np.argmin(a, axis=1, out=arg[s:e])
            new_cost[s:e] = a[picks[:e - s], arg[s:e]]

    with ThreadPoolExecutor(n) as pool:
        for i in range(1, K):
            new_cost = np.empty(grid)
            arg = np.empty(grid, dtype=np.int64)
            list(pool.map(partial(step, i, cost, new_cost, arg), range(n)))
            cost = new_cost
            back.append(arg)
    final = cost + np.hypot(pN.x - xg, pN.z - zs[-1]) / c[K]
    j = int(np.argmin(final))
    idx = [j]
    for arg in reversed(back):
        idx.append(int(arg[idx[-1]]))
    idx.reverse()
    return xg, [float(xg[i]) for i in idx], float(final[j])


def _golden_min(f, a, b, iters=90):
    """Golden-section minimization on [a, b]; returns the midpoint of the
    final bracket."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if b - a < 1e-17:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return 0.5 * (a + b)


def fermat_oracle(medium: Medium, p0: Point2, pN: Point2, grid: int = 4096,
                  refine_iters: int = 60, workers: int = 1) -> OracleResult:
    """Brute-force minimal travel time through the stack.

    The path crosses only the interfaces above the focus: the stack is
    truncated to the layers down to ``pN``'s, as the solver does, and a
    focus in the first layer gets the straight ray (``xs=()``, ``bound=0``).
    Discretizes every remaining interface into ``grid`` lateral samples,
    extracts the minimal-time chain by dynamic programming, then refines
    each crossing by cyclic golden-section line minimization within +/- 2
    grid cells (``refine_iters`` sweeps).  Pure minimization of the
    travel-time sum: independent of any refraction computation, which is
    what makes it an oracle for the two-point solvers.

    The dynamic program runs in row blocks of bounded size on ``workers``
    threads (see :func:`_dp_min_chain`), so its memory does not grow with
    ``grid`` squared and the result does not depend on ``workers``.  A
    refinement trial recomputes only the two segments its crossing
    touches and sums the cached segment times in path order.
    """
    if grid < 64:
        raise ValueError("grid must be at least 64")
    layer = medium.layer_of(pN)
    if layer == 1:
        return OracleResult(p0.dist(pN) / medium.speeds[0], (), 0.0)
    medium = medium.truncated(layer)
    lo, hi = medium.domain
    c = medium.speeds
    bounds = medium.boundaries
    xg, xs, _ = _dp_min_chain(medium, p0, pN, grid, workers)
    spacing = (hi - lo) / (grid - 1)
    K = len(xs)

    def leg(j, xa, za, xb, zb):  # travel time of segment j
        return math.hypot(xb - xa, zb - za) / c[j]

    def chain_tof(xvec):
        X = [p0.x] + list(xvec) + [pN.x]
        Z = [p0.z] + [bounds[i]._eval(xvec[i]) for i in range(K)] + [pN.z]
        return sum(leg(i, X[i], Z[i], X[i + 1], Z[i + 1])
                   for i in range(K + 1))

    # The path's vertices and segment times; crossing i is vertex i + 1.
    X = [p0.x] + xs + [pN.x]
    Z = [p0.z] + [bounds[i]._eval(xs[i]) for i in range(K)] + [pN.z]
    seg = [leg(j, X[j], Z[j], X[j + 1], Z[j + 1]) for j in range(K + 1)]
    for _ in range(refine_iters):
        for i in range(K):
            a = max(lo, X[i + 1] - 2 * spacing)
            b = min(hi, X[i + 1] + 2 * spacing)

            def f(x, i=i):
                z = bounds[i]._eval(x)
                return sum(seg[:i] + [leg(i, X[i], Z[i], x, z),
                                      leg(i + 1, x, z, X[i + 2], Z[i + 2])]
                           + seg[i + 2:])

            X[i + 1] = _golden_min(f, a, b)
            Z[i + 1] = bounds[i]._eval(X[i + 1])
            seg[i] = leg(i, X[i], Z[i], X[i + 1], Z[i + 1])
            seg[i + 1] = leg(i + 1, X[i + 1], Z[i + 1], X[i + 2], Z[i + 2])

    xs = X[1:-1]
    tof = chain_tof(xs)
    # Conservative accuracy estimate from per-coordinate curvature.
    curv = 0.0
    for i in range(K):
        hh = max(spacing * 1e-3, 1e-9)
        up, dn = xs.copy(), xs.copy()
        up[i] += hh
        dn[i] -= hh
        curv = max(curv, abs(chain_tof(up) + chain_tof(dn) - 2 * tof) / hh**2)
    return OracleResult(tof, tuple(xs), spacing**2 * curv)
