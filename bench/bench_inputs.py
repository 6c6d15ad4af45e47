"""Seeded inputs for the two benchmark workloads.

Everything the program sees is a scenario JSON document written here (or a
shipped fixture named by the workload) plus CLI arguments.  All randomness
comes from ``random.Random`` seeded by (seed, pass index), so one seed always
yields byte-identical scenario files and the same request sequence.

A *plan* holds a list of passes; a pass is the list of ``goatfocus.cli.main``
argument vectors that one timed ``wall_s`` sample runs.  The child process
runs passes until the measuring time is used up, so plans hold more passes
than a run normally needs.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

WORKLOADS = ("proxon-goat", "curved-goat")

MAX_PASSES = 40

# setting2 geometry: lateral domain [0, 36.45] mm, ellipse apex at x = 18.225.
_CX = 18.225
# The curved grid: 13 x 17 pixels at 0.25 mm centred on the interface apex
# (z = 50 mm), so rows on both sides of the interface are imaged.  The
# pixels 0.25 mm either side of the apex column, on the z = 50 mm row, sit
# 0.3 um below the curve.  A pass is kept short (a few seconds) so that a
# run holds several and reports their median.
_CURVED_GRID = {"x": [_CX - 1.5, _CX + 1.5], "z": [48.0, 52.0],
                "spacing": 0.25}
CURVED_ROI_MM = 2.0
SETTING3_FOCI = 6


def _units():
    return {"length": "mm", "speed": "m/s", "time": "s"}


def _dump(doc) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


def curved_scenario(seed: int, index: int) -> dict:
    """setting2's interface and speeds under a 16-element array; two unit
    scatterers jittered about the apex column, one above and one below the
    interface (2 mm apart, which keeps each out of the other's profile
    ROI)."""
    rng = random.Random(f"curved:{seed}:{index}")
    scatterers = [[round(_CX + rng.uniform(-0.25, 0.25), 4),
                   round(zc + rng.uniform(-0.25, 0.25), 4), 1.0]
                  for zc in (49.0, 51.0)]
    return {
        "units": _units(),
        "medium": {"speeds": [1480.0, 1540.0], "domain": [0.0, 36.45],
                   "boundaries": [{"kind": "ellipse", "a": 70.0, "b": 50.0,
                                   "center": [_CX, 0.0], "sign": "+"}]},
        "array": {"num_elements": 16, "pitch": 2.0, "center_x": _CX, "z": 0.0},
        "sources": [[_CX, 0.0]],
        "foci": [[_CX, 50.0]],
        "pulse": {"center_frequency_hz": 5e6, "fractional_bandwidth": 0.6},
        "imaging": {"grid": dict(_CURVED_GRID), "sample_rate_hz": 4e7,
                    "scatterers": scatterers},
    }


def setting3_scenario(seed: int, index: int) -> dict:
    """setting3 (tissue / 1 mm elliptic cover / tissue) with the cover's
    semi-axes jittered by up to 2 mm and SETTING3_FOCI foci scattered
    uniformly 0.5-30 mm below the cover's lower surface."""
    rng = random.Random(f"setting3:{seed}:{index}")
    a = round(50.0 + rng.uniform(-2.0, 2.0), 4)
    b = round(35.0 + rng.uniform(-2.0, 2.0), 4)
    foci = []
    for _ in range(SETTING3_FOCI):
        x = rng.uniform(1.0, 35.45)
        under = (b + 1.0) * math.sqrt(1.0 - ((x - _CX) / (a + 1.0)) ** 2)
        foci.append([round(x, 4), round(under + rng.uniform(0.5, 30.0), 4)])
    ellipse = {"kind": "ellipse", "center": [_CX, 0.0], "sign": "+"}
    return {
        "units": _units(),
        "medium": {"speeds": [1540.0, 2200.0, 1540.0], "domain": [0.0, 36.45],
                   "boundaries": [dict(ellipse, a=a, b=b),
                                  dict(ellipse, a=a + 1.0, b=b + 1.0)]},
        "array": {"num_elements": 64, "pitch": 0.5, "center_x": _CX, "z": 0.0},
        "sources": [[2.3, 5.0]],
        "foci": foci,
    }


def make_plan(workload: str, seed: int, workdir: Path) -> dict:
    """Write the scenario files of ``workload`` under ``workdir`` and return
    the plan: {"setup_scenario", "samples_per_map", "samples_per_table",
    "passes"}.  ``samples_per_map`` and ``samples_per_table`` are how many
    finite ToFs of every ToF map and of every delay table the gate checks
    against the oracle.  Each pass holds the
    requests of an untraced pass and of its traced twin, which writes to
    other files (a goat beamform twin needs its own cold channel cache).
    Paths are relative to ``workdir``, where the child process runs."""
    workdir = Path(workdir)
    samples = 0
    table_samples = 0
    if workload == "proxon-goat":
        setup = "proxon"
        samples = 16

        def requests(p, tag):
            return [["beamform", "--scenario", "proxon", "--engine", "goat",
                     "--out", f"goat{p:02d}{tag}"]]
    elif workload == "curved-goat":
        # Each pass images a curved medium, then builds setting3 delay tables
        # and answers an oracle request, so that focusing, analysis and the
        # three-layer Newton are measured too.  Delay tables alone gave run
        # medians too unsteady for a workload of their own.
        setup = "curved00.json"
        samples = 8
        table_samples = 3
        docs = [setting3_scenario(seed, p) for p in range(MAX_PASSES)]

        def requests(p, tag):
            doc = docs[p]
            rng = random.Random(f"setting3-requests:{seed}:{p}")
            n_el = doc["array"]["num_elements"]
            fx, fz = doc["foci"][rng.randrange(len(doc["foci"]))]
            name = f"s3v{p:02d}.json"
            return [
                ["beamform", "--scenario", f"curved{p:02d}.json",
                 "--engine", "goat", "--out", f"curved{p:02d}{tag}",
                 "--roi-size", str(CURVED_ROI_MM)],
                ["delays", "--scenario", name, "--engine", "goat",
                 "--kind", "transmit", "--out", f"s3v{p:02d}{tag}_tx.csv"],
                ["delays", "--scenario", name, "--engine", "goat",
                 "--kind", "receive", "--tx", str(rng.randrange(n_el)),
                 "--out", f"s3v{p:02d}{tag}_rx.csv"],
                ["oracle", "--scenario", name, "--source",
                 str(rng.randrange(n_el)), "--focus", f"{fx!r},{fz!r}"],
            ]

        for p, doc in enumerate(docs):
            (workdir / f"curved{p:02d}.json").write_bytes(
                _dump(curved_scenario(seed, p)))
            (workdir / f"s3v{p:02d}.json").write_bytes(_dump(doc))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    passes = [{"requests": requests(p, ""), "traced": requests(p, "t")}
              for p in range(MAX_PASSES)]
    return {"setup_scenario": setup, "samples_per_map": samples,
            "samples_per_table": table_samples, "passes": passes}
