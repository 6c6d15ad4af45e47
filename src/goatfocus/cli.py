"""Command-line front end.

Subcommands: solve (one two-point ray), delays (delay-table CSV), check
(existence/uniqueness condition report), levelset (constant-ToF curve CSV),
oracle (solver vs. brute-force minimal travel time), beamform (synthetic
imaging run).  Every command is deterministic: identical scenario and flags
produce byte-identical artifacts.

Exit codes: 0 success, 2 scenario/schema error or invalid flag value,
3 solver non-convergence, 4 physics error (total reflection, missed
intersection, no bracket, no transmitted path), 5 I/O error (including an
unreadable channel file or one that does not match the scenario).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, batch
from .analysis import (
    bracket_scan,
    check_no_total_reflection,
    check_unique_intersection,
    fermat_oracle,
    oval_identity_residual,
    tof_level_set,
    uniqueness_scan,
)
from .errors import (
    ChannelFileError,
    DegenerateDenominatorError,
    DegenerateSegmentError,
    GoatFocusError,
    NoBracketError,
    NoIntersectionError,
    NonConvergenceError,
    NoTransmittedPathError,
    RoiError,
    ScenarioError,
    TotalReflectionError,
)
from .focusing import build_delay_table, write_delay_csv
from .goatsolve import initial_guess_straight, solve
from .imaging import (
    beam_profile,
    das_beamform,
    read_channels,
    synthesize_channels,
    write_channels,
    write_image_metadata,
    write_p5,
    write_profile_csv,
)
from .medium import Point2
from .scenario import Scenario, fixture_names, load, require_first_layer

# Exit code of each error main() reports, tried in order.
_EXIT_CODES = {
    ScenarioError: 2,
    NonConvergenceError: 3,
    TotalReflectionError: 4, NoIntersectionError: 4, NoBracketError: 4,
    DegenerateSegmentError: 4, DegenerateDenominatorError: 4,
    NoTransmittedPathError: 4,
    RoiError: 2,
    OSError: 5, ChannelFileError: 5,
}


def _parse_xz(text: str, scn: Scenario, kind: str) -> Point2:
    """Parse 'x,z' (scenario length units); both must be finite."""
    try:
        x, z = (float(v) for v in text.split(","))
    except ValueError:
        raise ScenarioError(f"cannot parse {kind} {text!r}") from None
    if not (math.isfinite(x) and math.isfinite(z)):
        raise ScenarioError(f"{kind} {text!r}: coordinates must be finite")
    return Point2(x * scn.length_scale, z * scn.length_scale)


def _parse_point(text: str, scn: Scenario, kind: str) -> Point2:
    """Parse 'x,z' (scenario length units) or an element index."""
    if "," in text:
        return _parse_xz(text, scn, kind)
    try:
        idx = int(text)
    except ValueError:
        raise ScenarioError(f"cannot parse {kind} {text!r}") from None
    if scn.array is None:
        raise ScenarioError(f"{kind} given as element index but the scenario "
                            "has no array")
    if not (0 <= idx < len(scn.array)):
        raise ScenarioError(f"element index {idx} out of range")
    return scn.array.element_positions[idx]


def _pick_source(args, scn: Scenario) -> Point2:
    if args.source is not None:
        p = _parse_point(args.source, scn, "--source")
        require_first_layer(scn.medium, p, "--source")
        return p
    if not scn.sources:
        raise ScenarioError("scenario has no sources and --source not given")
    return scn.sources[0]


def _pick_focus(args, scn: Scenario) -> Point2:
    if args.focus is not None:
        return _parse_point(args.focus, scn, "--focus")
    if not scn.foci:
        raise ScenarioError("scenario has no foci and --focus not given")
    return scn.foci[0]


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_solve(args) -> int:
    scn = load(args.scenario)
    p0 = _pick_source(args, scn)
    pN = _pick_focus(args, scn)
    sol = solve(scn.medium, p0, pN, scn.solver)
    _emit({
        "source_m": [p0.x, p0.z],
        "focus_m": [pN.x, pN.z],
        "crossings_x_m": list(sol.xs),
        "crossings_z_m": [p.z for p in sol.path.points[1:-1]],
        "incidence_rad": list(sol.path.incidence_angles),
        "refraction_rad": list(sol.path.refraction_angles),
        "tangent_rad": list(sol.path.tangent_angles),
        "tof_per_layer_s": list(sol.path.tof_per_layer),
        "tof_s": sol.tof,
        "iterations": sol.iterations,
        "residual_norm": sol.residual_norm,
        "method": sol.method,
        "multiple_roots": sol.multiple_roots,
    })
    return 0


def cmd_delays(args) -> int:
    scn = load(args.scenario)
    if scn.array is None:
        raise ScenarioError("delay tables need an array block in the scenario")
    if args.tx is not None and not 0 <= args.tx < len(scn.array):
        raise ScenarioError(f"--tx {args.tx} is not an element index "
                            f"(0..{len(scn.array) - 1})")
    table = build_delay_table(scn.array, scn.foci, scn.medium, args.engine,
                              args.kind, scn.solver,
                              transmit_element=args.tx)
    write_delay_csv(table, args.out, provenance=scn.provenance)
    _emit({"out": args.out, "elements": len(scn.array),
           "foci": len(scn.foci), "failures": len(table.failures)})
    return 0


def _report(rep) -> dict:
    witness = rep.witness
    if isinstance(witness, Point2):
        witness = [witness.x, witness.z]
    elif isinstance(witness, tuple) and witness and isinstance(witness[0], Point2):
        witness = [[p.x, p.z] for p in witness]
    return {"condition": rep.condition, "boundary": rep.boundary_index,
            "satisfied": rep.satisfied, "margin": rep.margin,
            "witness": witness}


def cmd_check(args) -> int:
    scn = load(args.scenario)
    p0 = _pick_source(args, scn)
    pN = _pick_focus(args, scn)
    # The conditions of the stack down to the focus's layer, which solve
    # and oracle work in; a first-layer focus crosses no interface.
    med = scn.medium.truncated(scn.medium.layer_of(pN))
    groups = {}  # JSON key -> a report or a list of reports, in CSV order
    if med.num_layers > 1:
        groups["bracket"] = bracket_scan(med, p0, pN)

    try:
        chord = initial_guess_straight(med, p0, pN)
        chord_pts = [p0] + [Point2(float(x), float(b._eval(x)))
                            for x, b in zip(chord, med.boundaries)] + [pN]
    except GoatFocusError:
        chord_pts = None

    sol = None
    try:
        sol = solve(med, p0, pN, scn.solver)
    except GoatFocusError:
        pass

    pts = sol.path.points if sol is not None else chord_pts
    if pts is not None:
        groups["no_total_reflection"] = check_no_total_reflection(med, list(pts))
        groups["unique_intersection"] = [
            check_unique_intersection(med, n, pts[n], pts[n + 1])
            for n in range(1, med.num_layers)]
    if med.num_layers == 2:
        groups["uniqueness_scan"] = uniqueness_scan(med, p0, pN)
    out, reports = {}, []
    for key, group in groups.items():
        dicts = [_report(r) for r in (group if isinstance(group, list) else [group])]
        out[key] = dicts if isinstance(group, list) else dicts[0]
        reports += dicts
    out["solution_found"] = sol is not None
    out["all_satisfied"] = sol is not None and all(d["satisfied"] for d in reports)
    if args.out:
        rows = [f"# {scn.provenance}", "condition,boundary,satisfied,margin,witness"]
        for d in reports:
            # The witness is always quoted, its own quotes doubled (RFC 4180).
            wit = "" if d["witness"] is None else json.dumps(d["witness"])
            wit = wit.replace('"', '""')
            rows.append(f"{d['condition']},{d['boundary']},"
                        f"{str(d['satisfied']).lower()},{d['margin']!r},"
                        f"\"{wit}\"")
        with open(args.out, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    _emit(out)
    return 0


def cmd_levelset(args) -> int:
    scn = load(args.scenario)
    if scn.medium.num_layers != 2:
        raise ScenarioError("level sets are defined for 2-layer scenarios")
    p0 = _pick_source(args, scn)
    p2 = _pick_focus(args, scn)
    seed = _parse_xz(args.seed, scn, "--seed")
    lo, hi = scn.medium.domain
    if not (p0.z < seed.z < p2.z and lo <= seed.x <= hi):
        raise ScenarioError("--seed must lie in the lateral domain, strictly "
                            "between the source and focus depths")
    if args.steps < 1:
        raise ScenarioError("--steps must be at least 1")
    curve = tof_level_set(scn.medium, p0, p2, seed, arc_steps=args.steps)
    resid = oval_identity_residual(scn.medium, p0, p2, curve)
    lines = [f"# {scn.provenance}",
             f"# tof_s={curve.tof_value!r}",
             f"# seed_m={seed.x!r},{seed.z!r}",
             "x_m,z_m,oval_residual_m"]
    for p, r in zip(curve.points, resid):
        lines.append(f"{p.x!r},{p.z!r},{float(r)!r}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _emit({"out": args.out, "points": len(curve.points),
           "tof_s": curve.tof_value,
           "max_oval_residual_m": float(np.max(np.abs(resid)))})
    return 0


def cmd_oracle(args) -> int:
    scn = load(args.scenario)
    p0 = _pick_source(args, scn)
    pN = _pick_focus(args, scn)
    if args.grid < 64:
        raise ScenarioError("--grid must be at least 64")
    sol = solve(scn.medium, p0, pN, scn.solver)
    res = fermat_oracle(scn.medium, p0, pN, grid=args.grid, refine_iters=60,
                        workers=args.threads)
    diff = abs(sol.tof - res.tof)
    threshold = max(res.bound, 1e-9 * sol.tof)
    _emit({
        "tof_solver_s": sol.tof,
        "tof_oracle_s": res.tof,
        "difference_s": diff,
        "oracle_bound_s": res.bound,
        "threshold_s": threshold,
        "pass": bool(diff <= threshold),
        "grid": args.grid,
    })
    return 0 if diff <= threshold else 3


def cmd_beamform(args) -> int:
    scn = load(args.scenario)
    if scn.array is None or scn.pulse is None or scn.imaging is None:
        raise ScenarioError("beamforming needs array, pulse and imaging blocks")
    if not (math.isfinite(args.roi_size) and args.roi_size > 0):
        raise ScenarioError(f"--roi-size must be positive and finite, got "
                            f"{args.roi_size}")
    prefix = args.out
    ch_path = f"{prefix}_channels.goatcd"
    M, fs = len(scn.array), scn.imaging.sample_rate
    if os.path.exists(ch_path):
        channels = read_channels(ch_path)
        n_tx, n_rx, _ = channels.samples.shape
        if (n_tx, n_rx) != (M, M):
            raise ChannelFileError(
                f"{ch_path}: cached channels are {n_tx} transmits x {n_rx} "
                f"receivers, the scenario's array has {M} elements")
        if channels.sample_rate != fs:
            raise ChannelFileError(
                f"{ch_path}: cached sample rate {channels.sample_rate!r} Hz, "
                f"the scenario's is {fs!r} Hz")
        if channels.provenance != scn.provenance:
            raise ChannelFileError(
                f"{ch_path}: cached channels are from "
                f"{channels.provenance!r}, the scenario is {scn.provenance!r}")
    else:
        sx = np.array([p.x for p, _ in scn.imaging.scatterers])
        sz = np.array([p.z for p, _ in scn.imaging.scatterers])
        tofs = batch.tof_maps(scn.medium, scn.array.element_positions, sx, sz,
                              scn.solver, workers=args.threads)
        if not np.any(np.isfinite(tofs)):
            raise NoTransmittedPathError("no element reaches any scatterer")
        cut = scn.pulse.support
        t0 = max(0.0, math.floor((2.0 * float(np.nanmin(tofs)) - 2 * cut) * fs) / fs)
        duration = 2.0 * float(np.nanmax(tofs)) + 2 * cut - t0 + 16 / fs
        channels = synthesize_channels(scn.medium, scn.array,
                                       scn.imaging.scatterers, scn.pulse, fs,
                                       duration, t0, scn.solver, tofs=tofs,
                                       workers=args.threads)
        # The float32 samples are the values the file stores, so a cold
        # run and a run from its cache make byte-identical artifacts.
        write_channels(channels, ch_path, provenance=scn.provenance)
    img = das_beamform(channels, scn.medium, scn.array, scn.imaging.grid,
                       args.engine, opts=scn.solver, workers=args.threads)
    image_path = f"{prefix}_{args.engine}.pgm"
    write_p5(img, image_path, provenance=scn.provenance)
    write_image_metadata(img, f"{prefix}_{args.engine}.json", args.engine,
                         provenance=scn.provenance)
    half = 0.5 * args.roi_size * scn.length_scale
    grid = scn.imaging.grid
    profiles = []
    for k, (p, _) in enumerate(scn.imaging.scatterers):
        roi = (max(p.x - half, grid.x[0]), min(p.x + half, grid.x[-1]),
               max(p.z - half, grid.z[0]), min(p.z + half, grid.z[-1]))
        try:
            prof = beam_profile(img, roi)
        except RoiError as exc:
            profiles.append({"target_m": [p.x, p.z], "error": str(exc)})
            continue
        csv_path = f"{prefix}_{args.engine}_roi{k:02d}.csv"
        write_profile_csv(prof, csv_path, provenance=scn.provenance)
        profiles.append({"target_m": [p.x, p.z], "fwhm_m": prof.fwhm,
                         "peak_to_background_db": prof.peak_to_background_db,
                         "csv": csv_path})
    _emit({"image": image_path, "channels": ch_path, "engine": args.engine,
           "profiles": profiles})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goatfocus",
        description="Refraction-corrected focusing in known layered media.")
    parser.add_argument("--version", action="version",
                        version=f"goatfocus {__version__}")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="worker threads for ToF maps, channel synthesis, "
                             "delay-and-sum and the oracle's dynamic-program "
                             "blocks, at least 1 (results are independent of "
                             "this)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--scenario", required=True,
                       help="scenario JSON path or fixture name "
                            f"({', '.join(fixture_names())})")
        p.set_defaults(fn=fn)
        return p

    p = add("solve", cmd_solve, "solve one source-to-focus ray")
    p.add_argument("--source", help="element index or x,z (scenario units)")
    p.add_argument("--focus", help="x,z (scenario units)")

    p = add("delays", cmd_delays, "write a focusing delay table CSV")
    p.add_argument("--engine", choices=("hmfa", "goat"), required=True)
    p.add_argument("--kind", choices=("transmit", "receive"), default="receive")
    p.add_argument("--tx", type=int, default=None,
                   help="transmit element for receive delays")
    p.add_argument("--out", required=True)

    p = add("check", cmd_check, "existence/uniqueness condition report")
    p.add_argument("--source", help="element index or x,z (scenario units)")
    p.add_argument("--focus", help="x,z (scenario units)")
    p.add_argument("--out", default=None,
                   help="also write the condition reports as CSV")

    p = add("levelset", cmd_levelset, "write a constant-ToF curve CSV")
    p.add_argument("--source", help="element index or x,z (scenario units)")
    p.add_argument("--focus", help="x,z (scenario units)")
    p.add_argument("--seed", dest="seed", required=True,
                   help="curve seed x,z (scenario units)")
    p.add_argument("--steps", type=int, default=2048)
    p.add_argument("--out", required=True)

    p = add("oracle", cmd_oracle, "compare the solver against the brute-force "
                                  "minimal travel time")
    p.add_argument("--source", help="element index or x,z (scenario units)")
    p.add_argument("--focus", help="x,z (scenario units)")
    p.add_argument("--grid", type=int, default=4096)

    p = add("beamform", cmd_beamform, "synthesize channels and beamform")
    p.add_argument("--engine", choices=("hmfa", "goat"), required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--roi-size", type=float, default=4.0,
                   help="beam-profile ROI edge length (scenario units)")

    return parser


def main(argv=None) -> int:
    # argparse reads a value such as "-5,30" as an option, so each point
    # option is bound to the argument after it, as in "--focus=-5,30".
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--source", "--focus", "--seed"):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ScenarioError(f"--threads must be at least 1, got "
                                f"{args.threads}")
        return args.fn(args)
    except tuple(_EXIT_CODES) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, NonConvergenceError):
            report["iterations"] = exc.iterations
        json.dump(report, sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
