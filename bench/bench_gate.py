"""Correctness gate: every operation of a run is checked after the run,
outside the timed region and outside the measured process.

An operation fails when the CLI exits non-zero, a beam profile reports an
error, an oracle request does not pass, a delay CSV disagrees with the ToFs
it was built from, a sampled ToF differs from the Fermat oracle by more than
the ``oracle`` command's threshold max(bound, 1e-9 * tof), or a ToF is NaN
where the oracle finds a path.  Of these, a finite value that disagrees with
its reference is a *wrong* output; the others are the program declining to
answer.  The gate reports both.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ORACLE_GRID = 4096
ORACLE_REFINE = 60


class Gate:
    def __init__(self, workdir: Path, seed: int, samples_per_table: int = 0):
        from goatfocus import analysis, medium, scenario
        self._analysis = analysis
        self._Point2 = medium.Point2
        self._scenario = scenario
        self.workdir = Path(workdir)
        self.seed = seed
        self.samples_per_table = samples_per_table
        self._scenarios: dict = {}
        self._references: dict = {}
        self.checked = 0
        self.nan_checked = 0

    def scenario(self, name: str):
        if name not in self._scenarios:
            path = self.workdir / name
            self._scenarios[name] = self._scenario.load(
                path if path.is_file() else name)
        return self._scenarios[name]

    def reference(self, medium, src, tgt):
        """(reference ToF, oracle bound, whether a refracted path exists)
        from the source (x, z) to the target (x, z), both in metres.  Targets
        in the first layer have the exact straight-ray time; deeper targets
        use the oracle on the layers above them, as the solver does."""
        # Keyed by the medium's repr, so that the passes of a run, whose
        # scenarios differ only in scatterers, share their oracle runs.
        key = (repr(medium), tuple(src), tuple(tgt))
        if key not in self._references:
            self._references[key] = self._reference(medium, src, tgt)
        return self._references[key]

    def _reference(self, medium, src, tgt):
        P = self._Point2
        p0, pN = P(*src), P(*tgt)
        layer = medium.layer_of(pN)
        if layer == 1:
            return p0.dist(pN) / medium.speeds[0], 0.0, True
        res = self._analysis.fermat_oracle(medium.truncated(layer), p0, pN,
                                           grid=ORACLE_GRID,
                                           refine_iters=ORACLE_REFINE)
        lo, hi = medium.domain
        edge = 2.0 * (hi - lo) / (ORACLE_GRID - 1)
        interior = all(lo + edge < x < hi - edge for x in res.xs)
        return res.tof, res.bound, interior

    def check_tof(self, medium, src, tgt, tof) -> str | None:
        """None if ``tof`` matches the oracle; otherwise the reason."""
        self.checked += 1
        ref, bound, _ = self.reference(medium, src, tgt)
        if abs(tof - ref) <= max(bound, 1e-9 * tof):
            return None
        return (f"ToF {tof!r} vs oracle {ref!r} (bound {bound:.3e}) "
                f"from {src} to {tgt}")

    def check_nan(self, medium, src, tgt) -> str | None:
        self.nan_checked += 1
        _, _, path = self.reference(medium, src, tgt)
        return f"NaN ToF where the oracle finds a path, {src} to {tgt}" if path else None

    def check_op(self, op: dict, captures: list) -> tuple[list, list]:
        """(failures, wrong outputs) of one operation."""
        argv = op["argv"]
        failures, wrong = [], []
        if op["rc"] != 0:
            failures.append(f"exit {op['rc']}: {op['stderr'].strip()[-300:]}")
        scn = self.scenario(argv[argv.index("--scenario") + 1])
        medium = scn.medium
        for rec in (r for r in captures if r["kind"] == "map"):
            for *src_tgt, tof in rec["samples"]:
                reason = self.check_tof(medium, src_tgt[:2], src_tgt[2:], tof)
                if reason:
                    wrong.append(reason)
            for s in rec["nans"]:
                reason = self.check_nan(medium, s[:2], s[2:])
                if reason:
                    failures.append(reason)
            unchecked = rec["nan_count"] - len(rec["nans"])
            if unchecked:
                failures.append(f"{unchecked} NaN ToFs beyond the checked cap")
        columns = [r for r in captures if r["kind"] == "column"]
        if op["rc"] == 0 and argv[0] == "beamform":
            goat = argv[argv.index("--engine") + 1] == "goat"
            if goat and not any(r["kind"] == "map" for r in captures):
                wrong.append("no ToF map captured; the image is unverified")
            out = json.loads(op["stdout"])
            if not (self.workdir / out["image"]).is_file():
                wrong.append(f"image {out['image']} not written")
            failures += [f"profile error at {p['target_m']}: {p['error']}"
                         for p in out["profiles"] if "error" in p]
        elif op["rc"] == 0 and argv[0] == "delays":
            self._check_table(argv, medium, columns, failures, wrong)
        elif argv[0] == "oracle" and op["rc"] in (0, 3) and op["stdout"]:
            # rc 3 with no output is a solver failure, counted above.
            out = json.loads(op["stdout"])
            if not (out["pass"] and out["difference_s"] <= out["threshold_s"]):
                wrong.append(f"oracle request failed: {out}")
        return failures, wrong

    def _check_table(self, argv, medium, columns, failures, wrong):
        """Oracle-check ``samples_per_table`` seeded (element, focus) ToFs
        and every NaN, then rebuild the written delays from the captured
        ToFs."""
        tofs = [c["tofs"] for c in columns]  # [element][focus]
        if not tofs:
            wrong.append("delay table built without any captured ToFs")
            return
        # Seeded by the scenario: the transmit and receive tables of one
        # scenario come from separate requests and are each checked at the
        # same pairs, so every oracle run (about 0.5 s) serves both.
        rng = random.Random(f"gate:{self.seed}:{argv[argv.index('--scenario') + 1]}")
        finite = [(m, k) for m, col in enumerate(tofs)
                  for k, v in enumerate(col) if v == v]
        for m, k in rng.sample(finite, min(self.samples_per_table, len(finite))):
            reason = self.check_tof(medium, columns[m]["source"],
                                    columns[m]["targets"][k], tofs[m][k])
            if reason:
                wrong.append(reason)
        for m, col in enumerate(tofs):
            for k, v in enumerate(col):
                if v != v:
                    reason = self.check_nan(medium, columns[m]["source"],
                                            columns[m]["targets"][k])
                    if reason:
                        failures.append(reason)
        path = self.workdir / argv[argv.index("--out") + 1]
        rows = [line.split(",") for line in path.read_text().splitlines()
                if line and not line.startswith("#")][3:]
        kind = argv[argv.index("--kind") + 1]
        tx = int(argv[argv.index("--tx") + 1]) if "--tx" in argv else None
        scale = max(v for col in tofs for v in col if v == v) if finite else 1.0
        for fx, fz, m, cell in rows:
            m = int(m)
            k = [tuple(t) for t in columns[m]["targets"]].index((float(fx), float(fz)))
            col = [tofs[e][k] for e in range(len(tofs))]
            good = [v for v in col if v == v]
            if kind == "transmit":
                expect = max(good) - col[m] if good else float("nan")
            else:
                expect = col[m] + (col[tx] if tx is not None else 0.0)
            if cell == "":
                if expect == expect:
                    wrong.append(f"empty delay cell for element {m}, focus {k}")
            elif not abs(float(cell) - expect) <= 1e-9 * scale:
                wrong.append(f"delay {cell} for element {m}, focus {k}; "
                             f"ToFs give {expect!r}")
