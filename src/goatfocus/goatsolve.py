"""Two-point ray solver for layered media, plus straight-ray baselines.

The unknowns of the boundary-crossing system are reduced by exact
substitution to the lateral crossing coordinates x_1..x_{N-1}: the interface
heights, tangent slopes and both angle sines are explicit functions of those
coordinates, so Snell's law at each interface becomes one residual per
interface that couples only neighboring crossings.  The resulting system has
a tridiagonal Jacobian and is solved by damped Newton from the straight-ray
guess, then by propagation-based shooting wherever Newton fails.  After
convergence the full variable set is reconstructed from the crossings alone
and every equation group is re-verified, once, and a solution is built from
the record of that check; nothing is trusted from solver state.

The Newton works on rows, one two-point problem each, with a Thomas sweep
per row, and so does the shooting stage for the rows it rejects: every
row's candidate rays are traced together and every bracket is refined
under masks.  :func:`solve_rows` is the one chain of the two stages: the
batch calls it on blocks of rows and :func:`solve` on one row.  The arrays
are interface-major: endpoints are (4, rows), crossings and residuals
(K, rows) for K interfaces, segments (K+1, rows), so each interface is one
contiguous vector however few interfaces there are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSegmentError,
    DomainError,
    NoBracketError,
    NoIntersectionError,
    NonConvergenceError,
    TotalReflectionError,
)
from .medium import _DOMAIN_SLACK, Medium, Point2
from .raytrace import LOST_CAUSES, MIN_SEGMENT, RayPath, trace_rows

_SHOOTING_CANDIDATES = 64
_SCAN_ROWS = 256  # rows per trace call of the scan, 64 rays each
_FP_TOL = 1e-13  # |terminal x - focus x| target for shooting (m)


@dataclass(frozen=True)
class SolverOptions:
    tol_residual: float = 1e-12
    max_newton_iters: int = 25
    max_backtracks: int = 8

    def __post_init__(self):
        if not self.tol_residual > 0:
            raise ValueError("tol_residual must be positive")


@dataclass(frozen=True)
class GoatSolution:
    """A solved two-point ray: crossings, reconstructed path, diagnostics."""

    xs: tuple[float, ...]
    path: RayPath
    tof: float
    iterations: int
    residual_norm: float
    method: str  # "newton", "shooting" or "hybrid"
    multiple_roots: bool = False


def _ends(p0: Point2, pN: Point2) -> np.ndarray:
    """One row of endpoints (x0, z0, xN, zN), shape (4, 1): the scalar API's
    only row."""
    return np.array([[p0.x], [p0.z], [pN.x], [pN.z]])


@np.errstate(divide="ignore", invalid="ignore")
def _chain(medium: Medium, ends, xs):
    """Chains (ends[0], ends[1]) -> crossings xs[:, r] -> (ends[2], ends[3]),
    one per row; ``ends`` is (4, rows), ``xs`` (K, rows).

    Returns (dX, dZ, L, tau, sin_in, sin_out, F): segment components and
    lengths (K+1, rows); slopes, sines and the Snell residuals
    F_n = (c_{n+1} sin_in - c_n sin_out) / max(c) (K, rows), +inf in the
    columns of rows with a degenerate segment.
    """
    X = np.concatenate((ends[0:1], xs, ends[2:3]))
    Z = np.empty_like(X)
    Z[0], Z[-1] = ends[1], ends[3]
    tau = np.empty_like(X[1:-1])
    for i, b in enumerate(medium.boundaries):
        Z[i + 1] = b._eval(xs[i])
        tau[i] = b._slope(xs[i])
    dX, dZ = X[1:] - X[:-1], Z[1:] - Z[:-1]
    L = np.hypot(dX, dZ)
    c = np.asarray(medium.speeds)[:, None]
    T = np.sqrt(1.0 + tau * tau)
    sin_in = (dX[:-1] + tau * dZ[:-1]) / (T * L[:-1])
    sin_out = (dX[1:] + tau * dZ[1:]) / (T * L[1:])
    F = (c[1:] * sin_in - c[:-1] * sin_out) / np.max(c)
    F[:, np.any(L < MIN_SEGMENT, axis=0)] = np.inf
    return dX, dZ, L, tau, sin_in, sin_out, F


def _jacobian(medium: Medium, xs, chain):
    """Analytic tridiagonal Jacobian of the residuals, row-wise: (sub, diag,
    sup), each (K, rows), with sub[i] = dF_i/dx_{i-1} (sub[0] = 0) and
    sup[i] = dF_i/dx_{i+1} (sup[-1] = 0).  Boundary second derivatives
    enter through the tangent-slope chain rule."""
    dX, dZ, L, tau = chain[:4]
    kap = np.array([b._curvature(xs[i]) for i, b in enumerate(medium.boundaries)])
    c = np.asarray(medium.speeds)[:, None]
    cmax = np.max(c)
    T = np.sqrt(1.0 + tau * tau)
    dT = tau * kap / T
    L_in, L_out = L[:-1], L[1:]
    A_in = dX[:-1] + tau * dZ[:-1]
    A_out = dX[1:] + tau * dZ[1:]
    # d sin_in / d x_i and d sin_out / d x_i.
    dsin_in = (1.0 + tau * tau + kap * dZ[:-1] - A_in * dT / T
               - A_in * (A_in / L_in) / L_in) / (T * L_in)
    dsin_out = (-(1.0 + tau * tau) + kap * dZ[1:] - A_out * dT / T
                - A_out * (-A_out / L_out) / L_out) / (T * L_out)
    diag = (c[1:] * dsin_in - c[:-1] * dsin_out) / cmax
    # Neighbours i-1, i couple through the segment between their crossings.
    t_up, t_dn = tau[:-1], tau[1:]
    dXm, dZm, Lm = dX[1:-1], dZ[1:-1], L[1:-1]
    sub = np.zeros_like(diag)
    sup = np.zeros_like(diag)
    dL = -(dXm + t_up * dZm) / Lm
    sub[1:] = c[2:] * ((-1.0 - t_dn * t_up - A_in[1:] * dL / Lm)
                       / (T[1:] * Lm)) / cmax
    dL = (dXm + t_dn * dZm) / Lm
    sup[:-1] = -c[:-2] * ((1.0 + t_up * t_dn - A_out[:-1] * dL / Lm)
                          / (T[:-1] * Lm)) / cmax
    return sub, diag, sup


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _newton_step(medium: Medium, xs, chain):
    """Newton correction -J^{-1} F of every row, (K, rows), by a Thomas
    sweep (no pivoting); a singular system leaves non-finite entries in its
    row."""
    sub, diag, sup = _jacobian(medium, xs, chain)
    x = -chain[-1]
    cp = np.empty_like(diag)
    cp[0] = sup[0] / diag[0]
    x[0] /= diag[0]
    for i in range(1, len(diag)):
        m = diag[i] - sub[i] * cp[i - 1]
        cp[i] = sup[i] / m
        x[i] = (x[i] - sub[i] * x[i - 1]) / m
    for i in range(len(diag) - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


def residuals(medium: Medium, p0: Point2, pN: Point2, xs) -> np.ndarray:
    """Snell residuals per interface, normalized to be dimensionless.

    F_n = (c_{n+1} sin(theta_n) - c_n sin(theta'_n)) / max(c), where both
    sines come from the segment/tangent projections at the reconstructed
    crossing points.
    """
    F = _chain(medium, _ends(p0, pN), np.reshape(xs, (-1, 1)))[-1][:, 0]
    if np.any(np.isinf(F)):
        raise DegenerateSegmentError("consecutive path points coincide")
    return F


def residual_jacobian(medium: Medium, p0: Point2, pN: Point2, xs):
    """Analytic tridiagonal Jacobian of :func:`residuals`.

    Returns (sub, diag, sup): sub[i] = dF_i/dx_{i-1} (sub[0] unused),
    diag[i] = dF_i/dx_i, sup[i] = dF_i/dx_{i+1} (sup[-1] unused).  Boundary
    second derivatives enter through the tangent-slope chain rule; straight
    boundaries contribute zero curvature.
    """
    xs = np.reshape(xs, (-1, 1)).astype(float)
    chain = _chain(medium, _ends(p0, pN), xs)
    if np.any(np.isinf(chain[-1])):
        raise DegenerateSegmentError("consecutive path points coincide")
    return tuple(a[:, 0] for a in _jacobian(medium, xs, chain))


def _chord_rows(medium: Medium, ends):
    """Crossings (K, rows) of each row's straight chord with every
    interface, ``ends`` being (4, rows); NaN where a chord does not cross an
    interface exactly once between its endpoints, or crosses it outside the
    lateral domain: such a row goes to the shooting stage."""
    x0, z0, xN, zN = ends
    lo, hi = medium.domain
    xs = np.empty((medium.num_layers - 1, ends.shape[1]))
    for i, curve in enumerate(medium.boundaries):
        t, n = curve._crossings(x0, z0, xN - x0, zN - z0, 1.0)
        x = x0 + t * (xN - x0)
        xs[i] = np.where((n == 1) & (lo - 1e-12 <= x) & (x <= hi + 1e-12), x, np.nan)
    return xs


def initial_guess_straight(medium: Medium, p0: Point2, pN: Point2) -> np.ndarray:
    """Crossings of the straight chord with every interface (refraction-free
    ray), used to start the Newton iteration."""
    xs = _chord_rows(medium, _ends(p0, pN))[:, 0]
    if np.any(np.isnan(xs)):
        i = int(np.argmax(np.isnan(xs)))
        raise NoIntersectionError(
            f"straight chord does not cross boundary {i + 1} exactly once "
            f"between the endpoints inside the lateral domain {medium.domain}",
            boundary_index=i + 1)
    return xs


def _newton_rows(medium: Medium, ends, xs, opts: SolverOptions):
    """Damped Newton on every row at once, from the crossings ``xs`` (K, rows)
    between ``ends`` (4, rows).

    Each row stops on its own: at the residual tolerance, or when halving
    its step ``max_backtracks`` times neither lowers the residual norm nor
    keeps the crossings inside the domain.  Accepted steps lower the norm,
    so the final crossings are the best iterate; rows starting from NaN (a
    missed chord) never move.  Returns (xs, iterations).
    """
    lo, hi = medium.domain[0] + 1e-12, medium.domain[1] - 1e-12
    xs = np.array(xs, dtype=float)
    chain = _chain(medium, ends, xs)  # the first step reuses it
    fn = np.max(np.abs(chain[-1]), axis=0)
    iterations = np.zeros(xs.shape[1], dtype=int)
    active = np.isfinite(fn)
    for it in range(opts.max_newton_iters):
        active &= fn > opts.tol_residual
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        x_r, e_r = xs[:, rows], ends[:, rows]
        chain = ([a[:, rows] for a in chain] if it == 0
                 else _chain(medium, e_r, x_r))
        delta = _newton_step(medium, x_r, chain)
        iterations[rows] += 1
        alpha = 1.0
        for _bt in range(opts.max_backtracks + 1):
            trial = x_r + alpha * delta
            inside = np.all((trial > lo) & (trial < hi), axis=0)
            fnt = np.full(rows.size, np.inf)
            if np.any(inside):
                F = _chain(medium, e_r[:, inside], trial[:, inside])[-1]
                fnt[inside] = np.max(np.abs(F), axis=0)
            better = fnt < fn[rows]
            xs[:, rows[better]], fn[rows[better]] = trial[:, better], fnt[better]
            keep = ~better
            rows, delta = rows[keep], delta[:, keep]
            if rows.size == 0:
                break
            x_r, e_r = x_r[:, keep], e_r[:, keep]
            alpha *= 0.5
        active[rows] = False
    return xs, iterations


def _verify_rows(medium: Medium, ends, xs, tol: float):
    """Rebuild every row's chain from its crossings alone and re-check it.

    ``ends`` is (4, rows) and ``xs`` (K, rows).  Returns the record (failed,
    L, tau, sin_in, sin_out, F, implied, tof), rows on the last axis, L to F
    as in :func:`_chain`: ``failed`` is a (4, rows) mask of failed checks,
    namely a crossing outside the lateral domain, a degenerate segment, an
    unresolved residual and total reflection (an implied transmitted sine
    c_{n+1}/c_n sin_in beyond 1 + 1e-9).  A residual is resolved at norm
    ``tol``, or when its Newton correction is below the spacing of every
    crossing: within ~1e-9 m of an interface one such spacing moves the
    residual by more than ``tol``.
    """
    chain = _chain(medium, ends, xs)
    c = np.asarray(medium.speeds)
    implied = (c[1:] / c[:-1])[:, None] * chain[4]
    rnorm = np.max(np.abs(chain[-1]), axis=0)
    unresolved = ~(rnorm <= tol)
    r = np.flatnonzero(unresolved & np.isfinite(rnorm))
    if r.size:
        step = _newton_step(medium, xs[:, r], [a[:, r] for a in chain])
        unresolved[r] = ~np.all(np.abs(step) <= np.spacing(np.abs(xs[:, r])), axis=0)
    lo, hi = medium.domain
    failed = np.stack((
        np.any((xs < lo - _DOMAIN_SLACK) | (xs > hi + _DOMAIN_SLACK), axis=0),
        np.any(chain[2] < MIN_SEGMENT, axis=0),
        unresolved,
        np.any(np.abs(implied) > 1.0 + 1e-9, axis=0)))
    tof = chain[2][0] / c[0]
    for i in range(1, len(c)):  # left to right, like a scalar sum
        tof = tof + chain[2][i] / c[i]
    return (failed, *chain[2:], implied, tof)


def _build(medium, p0, pN, xs, record, iterations, method, opts,
           multiple_roots=False) -> GoatSolution:
    """Package the one row of crossings ``xs`` (K, 1) from its
    :func:`_verify_rows` record: raise the first failed check, else
    reconstruct the path."""
    xs = xs[:, 0]
    failed, L, tau, sin_in, sin_out, F, implied, tof = (a[..., 0] for a in record)
    outside, degenerate, unresolved, reflected = failed
    rnorm = float(np.max(np.abs(F)))
    if outside:
        raise DomainError(f"crossings {xs} outside the domain {medium.domain}")
    if degenerate:
        raise DegenerateSegmentError("consecutive path points coincide")
    if unresolved:
        raise NonConvergenceError(
            f"re-verified residual {rnorm:.3e} after {iterations} iterations "
            f"exceeds tolerance {opts.tol_residual:.3e}", best_xs=xs,
            best_residual=rnorm, iterations=iterations)
    if reflected:
        i = int(np.argmax(np.abs(implied) > 1.0 + 1e-9))
        raise TotalReflectionError(
            f"reconstructed crossing {i + 1} implies |sin| = "
            f"{abs(implied[i]):.6g}", ratio=float(implied[i]),
            boundary_index=i + 1)
    X = (p0.x, *xs, pN.x)
    Z = (p0.z, *(b._eval(x) for b, x in zip(medium.boundaries, xs)), pN.z)
    points = tuple(Point2(float(x), float(z)) for x, z in zip(X, Z))
    path = RayPath(points, tuple(np.arcsin(np.clip(sin_in, -1.0, 1.0)).tolist()),
                   tuple(np.arcsin(np.clip(sin_out, -1.0, 1.0)).tolist()),
                   tuple(np.arctan(tau).tolist()),
                   tuple((L / np.asarray(medium.speeds)).tolist()), float(tof))
    return GoatSolution(tuple(xs.tolist()), path, path.tof_total,
                        iterations, rnorm, method, multiple_roots)


def _straight(medium: Medium, p0: Point2, pN: Point2,
              method: str) -> GoatSolution:
    """The single-layer ray to a focus inside the first layer."""
    seg = p0.dist(pN)
    if seg < MIN_SEGMENT:
        raise DegenerateSegmentError("source and focus coincide")
    tof = seg / medium.speeds[0]
    path = RayPath((p0, pN), (), (), (), (tof,), tof)
    return GoatSolution((), path, tof, 0, 0.0, method)


def solve_newton(medium: Medium, p0: Point2, pN: Point2,
                 opts: SolverOptions = SolverOptions()) -> GoatSolution:
    """Damped Newton on the reduced Snell residuals.

    Starts from the straight-ray crossings on the stack down to pN's layer;
    each step is halved while the residual norm fails to decrease or a
    crossing would leave the lateral domain.  Raises NonConvergenceError
    carrying the best iterate.  A focus inside the first layer gets the
    straight single-layer ray.
    """
    layer = medium.layer_of(pN)
    if layer == 1:
        return _straight(medium, p0, pN, "newton")
    medium = medium.truncated(layer)
    ends = _ends(p0, pN)
    xs = initial_guess_straight(medium, p0, pN)[:, None]
    xs, iterations = _newton_rows(medium, ends, xs, opts)
    record = _verify_rows(medium, ends, xs, opts.tol_residual)
    return _build(medium, p0, pN, xs, record, int(iterations[0]), "newton", opts)


def _scan_rows(medium: Medium, ends):
    """Terminal misses of rays launched through equispaced first crossings,
    every row of ``ends`` (4, rows) at once.

    Returns (cand, miss, causes): the candidate crossings, the misses
    x_terminal - xN (rows, candidates), NaN for a lost ray, and the count of
    lost rays of each row per cause of ``LOST_CAUSES`` (causes, rows).
    """
    lo, hi = medium.domain
    pad = 1e-9 * (hi - lo)
    cand = np.linspace(lo + pad, hi - pad, _SHOOTING_CANDIDATES)
    miss = np.empty((ends.shape[1], cand.size))
    lost = np.empty(miss.shape, dtype=np.int8)
    for r in range(0, ends.shape[1], _SCAN_ROWS):
        e = np.repeat(ends[:, r:r + _SCAN_ROWS], cand.size, axis=1)
        _, x_end, _, code = trace_rows(medium, e, np.tile(cand, e.shape[1] // cand.size))
        miss[r:r + _SCAN_ROWS] = (x_end - e[2]).reshape(-1, cand.size)
        lost[r:r + _SCAN_ROWS] = code.reshape(-1, cand.size)
    causes = np.array([np.sum(lost == i, axis=1) for i in range(1, len(LOST_CAUSES) + 1)])
    return cand, miss, causes


def _brackets(miss):
    """Every row's brackets of a root of the terminal miss, as (row, ia, ib)
    index arrays into ``miss`` in row and then candidate order.  A bracket
    is an exact zero (ib = ia) or a sign change between a candidate and the
    next one whose ray arrives."""
    rows = np.arange(miss.shape[0])
    row, ia = np.nonzero(miss == 0.0)
    found = [(row, ia, ia)]
    last = np.full(miss.shape[0], -1)  # each row's last arriving candidate
    for j in range(miss.shape[1]):
        arrived = ~np.isnan(miss[:, j])
        r = np.flatnonzero(arrived & (last >= 0)
                           & (miss[rows, last] * miss[:, j] < 0.0))
        found.append((r, last[r], np.full(r.size, j)))
        last[arrived] = j
    row, ia, ib = (np.concatenate(a) for a in zip(*found))
    order = np.lexsort((ia, row))
    return row[order], ia[order], ib[order]


def _shoot_rows(medium: Medium, ends):
    """Shooting on the first crossing, every row of ``ends`` (4, rows) at
    once: bracket the terminal miss among the scan candidates (skipping lost
    rays), refine all brackets together by bisection and a secant polish,
    and keep each row's minimal-ToF root (the first on ties) among roots
    more than 1e-9 m apart.

    Returns (xs, evals, multiple_roots, causes): the crossings (K, rows) of
    that root's ray, NaN for a row without a root; the rays evaluated per
    row; whether a row has several roots; the scan's lost-ray counts.
    """
    cand, miss, causes = _scan_rows(medium, ends)
    evals = np.sum(~np.isnan(miss), axis=1)
    row, ia, ib = _brackets(miss)
    xa, xb, fa, fb = cand[ia], cand[ib], miss[row, ia], miss[row, ib]
    del miss
    e = ends[:, row]

    def fp(i, x):
        """Terminal misses of the rays of brackets i launched through x."""
        return trace_rows(medium, e[:, i], x)[1] - e[2, i]

    sign = xa != xb  # the other brackets are exact zeros, roots as they are
    live = np.flatnonzero(sign)
    for _ in range(200):
        if not live.size:
            break
        xm = 0.5 * (xa[live] + xb[live])
        fm = fp(live, xm)
        lost = np.isnan(fm)
        # A lost midpoint shrinks its bracket toward the side closer to a
        # root; the bracket is given up (fa NaN) if that ray is lost too.
        s = live[lost]
        xa[s] = xa[s] + 0.25 * (xm[lost] - xa[s])
        fa[s] = fp(s, xa[s])
        i, xm, fm = live[~lost], xm[~lost], fm[~lost]
        np.add.at(evals, row[i], 1)
        done = (np.abs(fm) <= _FP_TOL) | (xb[i] - xa[i] < 1e-17)
        left = fa[i] * fm <= 0.0
        xb[i], fb[i] = (np.where(done | left, xm, xb[i]),
                        np.where(done | left, fm, fb[i]))
        xa[i], fa[i] = (np.where(done | ~left, xm, xa[i]),
                        np.where(done | ~left, fm, fa[i]))
        live = np.concatenate((s[~np.isnan(fa[s])], i[~done]))

    # Secant polish from the bracket ends; a converged bracket starts 1e-12 m
    # beyond its root and keeps the root if that ray is lost.
    sec = np.flatnonzero(sign & ~np.isnan(fa))
    x_prev, f_prev, x_cur, f_cur = xa[sec], fa[sec], xb[sec], fb[sec]
    k = np.flatnonzero(x_cur == x_prev)
    x_cur[k] = x_prev[k] + 1e-12
    f_cur[k] = fp(sec[k], x_cur[k])
    k = k[np.isnan(f_cur[k])]
    x_cur[k], f_cur[k] = x_prev[k], f_prev[k]
    go = np.ones(sec.size, dtype=bool)
    for _ in range(12):
        go &= (f_cur != f_prev) & (np.abs(f_cur) >= 1e-16)
        k = np.flatnonzero(go)
        if not k.size:
            break
        x_next = x_cur[k] - f_cur[k] * (x_cur[k] - x_prev[k]) / (f_cur[k] - f_prev[k])
        f_next = fp(sec[k], x_next)
        arrived = ~np.isnan(f_next)
        np.add.at(evals, row[sec[k[arrived]]], 1)
        better = arrived & (np.abs(f_next) < np.abs(f_cur[k]))
        go[k[~better]] = False
        k, x_next, f_next = k[better], x_next[better], f_next[better]
        x_prev[k], f_prev[k], x_cur[k], f_cur[k] = x_cur[k], f_cur[k], x_next, f_next
    xa[sec] = x_cur
    found = ~np.isnan(fa)
    row, root = row[found], xa[found]

    # Drop a root within 1e-9 m of the row's next smaller one: adjacent
    # brackets may converge on their shared end.
    order = np.lexsort((root, row))
    row, root = row[order], root[order]
    keep = np.diff(row, prepend=-1) != 0
    keep[1:] |= np.diff(root) > 1e-9
    row, root = row[keep], root[keep]
    xs_root, _, tof, _ = trace_rows(medium, ends[:, row], root)
    best = np.lexsort((tof, row))  # stable: ties keep the smaller root
    best = best[np.flatnonzero(np.diff(row[best], prepend=-1))]
    xs = np.full((medium.num_layers - 1, ends.shape[1]), np.nan)
    xs[:, row[best]] = xs_root[:, best]
    multiple = np.bincount(row, minlength=ends.shape[1]) > 1
    return xs, evals, multiple, causes


def _cause_counts(causes) -> dict:
    """One row's lost-ray counts of :func:`_scan_rows` by cause name,
    leaving out causes that lost no ray."""
    return {name: int(n) for name, n in zip(LOST_CAUSES, causes) if n}


def _no_bracket(causes) -> NoBracketError:
    causes = _cause_counts(causes)
    return NoBracketError(
        "terminal miss never changes sign across the scan "
        f"({_SHOOTING_CANDIDATES - sum(causes.values())} rays evaluated, "
        f"skipped: {causes})", causes=causes)


def solve_shooting(medium: Medium, p0: Point2, pN: Point2,
                   opts: SolverOptions = SolverOptions()) -> GoatSolution:
    """Shooting on the first crossing, the one-row case of
    :func:`_shoot_rows` on the stack down to pN's layer.

    Raises NoBracketError, with the scan's lost-ray causes, when no root is
    found; if several roots exist the minimal-ToF one is returned and
    flagged.  A focus inside the first layer gets the straight single-layer
    ray.
    """
    layer = medium.layer_of(pN)
    if layer == 1:
        return _straight(medium, p0, pN, "shooting")
    medium = medium.truncated(layer)
    ends = _ends(p0, pN)
    xs, evals, multiple, causes = _shoot_rows(medium, ends)
    if np.isnan(xs[0, 0]):
        raise _no_bracket(causes[:, 0])
    record = _verify_rows(medium, ends, xs, opts.tol_residual)
    return _build(medium, p0, pN, xs, record, int(evals[0]), "shooting", opts,
                  bool(multiple[0]))


def solve_rows(medium: Medium, ends, opts: SolverOptions = SolverOptions()):
    """The two stages of the solver on every row of ``ends`` = (x0, z0, xN,
    zN), shape (4, rows), each focus below the last interface: row Newton
    from the straight chords, then, for the rows it rejects,
    :func:`_shoot_rows` and a row Newton polish of the shot crossings.  Each
    set is verified once by :func:`_verify_rows`; a rejected row keeps the
    polished crossings if they pass every check, else the shot ones, which
    are verified only then.

    Returns (xs, tof, iterations, rejected, shot, record): the kept
    crossings (K, rows) and times of flight, NaN where a check fails; the
    Newton iterations, or for a rejected row the shot's ray evaluations
    plus, where the polish is kept, its Newton iterations; the mask of rows
    the Newton stage rejected; the :func:`_shoot_rows` result for those
    rows, or None if there are none; and the kept crossings' record.
    """
    xs, iterations = _newton_rows(medium, ends, _chord_rows(medium, ends), opts)
    record = _verify_rows(medium, ends, xs, opts.tol_residual)
    rejected = np.any(record[0], axis=0)
    shot = None
    r = np.flatnonzero(rejected)
    if r.size:
        e = ends[:, r]
        shot = _shoot_rows(medium, e)
        polished, polish_its = _newton_rows(medium, e, shot[0], opts)
        for a, b in zip(record, _verify_rows(medium, e, polished, opts.tol_residual)):
            a[..., r] = b
        ok_pol = ~np.any(record[0][:, r], axis=0)
        xs[:, r] = np.where(ok_pol, polished, shot[0])
        q = r[~ok_pol]  # the rows that keep their shot crossings
        if q.size:
            for a, b in zip(record, _verify_rows(medium, ends[:, q], xs[:, q],
                                                 opts.tol_residual)):
                a[..., q] = b
        iterations[r] = shot[1] + np.where(ok_pol, polish_its, 0)
    tof = np.where(np.any(record[0], axis=0), np.nan, record[-1])
    return xs, tof, iterations, rejected, shot, record


def solve(medium: Medium, p0: Point2, pN: Point2,
          opts: SolverOptions = SolverOptions()) -> GoatSolution:
    """One row of :func:`solve_rows` on the stack down to pN's layer.

    A row the Newton stage verifies is method "newton", else "hybrid".  A
    hybrid row raises its shot crossings' failed check when neither they
    nor their polish pass, and NoBracketError for a scan without a root, or
    TotalReflectionError if the scan's only lost rays are totally
    reflected.  A focus inside the first layer reduces to the straight
    single-layer ray.
    """
    layer = medium.layer_of(pN)
    if layer == 1:
        return _straight(medium, p0, pN, "newton")
    sub = medium.truncated(layer)
    xs, _, iterations, rejected, shot, record = solve_rows(sub, _ends(p0, pN), opts)
    if rejected[0] and np.isnan(shot[0][0, 0]):
        exc = _no_bracket(shot[3][:, 0])
        if list(exc.causes) == ["total_reflection"]:
            raise TotalReflectionError(
                "every launch candidate is totally reflected; no transmitted "
                "path reaches the focus", ratio=None) from exc
        raise exc
    return _build(sub, p0, pN, xs, record, int(iterations[0]),
                  "hybrid" if rejected[0] else "newton", opts,
                  bool(rejected[0] and shot[2][0]))


def tof_of_path(medium: Medium, points) -> float:
    """Time of flight along an explicit point chain: sum of segment length
    over layer speed, one segment per layer."""
    pts = list(points)
    if len(pts) != medium.num_layers + 1:
        raise ValueError(
            f"expected {medium.num_layers + 1} points, got {len(pts)}")
    segs = [a.dist(b) for a, b in zip(pts, pts[1:])]
    if min(segs) < MIN_SEGMENT:
        raise DegenerateSegmentError("consecutive path points coincide")
    return sum(seg / c for seg, c in zip(segs, medium.speeds))


def hmfa_tof(p0: Point2, pN: Point2, c: float) -> float:
    """Straight-line time of flight at a single assumed speed."""
    if not c > 0:
        raise ValueError("speed must be positive")
    return p0.dist(pN) / c
