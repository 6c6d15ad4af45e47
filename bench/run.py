"""goatfocus benchmark: seeded, closed-loop CLI workloads (one client, one
request at a time), end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 bench/run.py --workload proxon-goat --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1   # each workload once

Every pass of a run goes in a fresh interpreter (bench_child.py), as a user
runs one command per process: it times ``import goatfocus.cli`` plus
``scenario.load`` (a ``setup_s`` sample), then the pass (a ``wall_s``
sample), and reports its peak RSS (a ``peak_rss_mb`` sample).  Passes run
while one more of the average length fits in ``--seconds``; interpreters
that only time the setup run before each pass and at the end until there
are SETUP_SAMPLES setup samples.  The correctness gate (bench_gate.py) then
checks every operation against ``analysis.fermat_oracle`` in this process,
untimed.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones of a traced run, which also runs every
pass untraced to measure the tracing overhead.  Per-layer metrics whose wrap
point never ran are reported as 0 and listed as absent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from bench_gate import Gate
from bench_inputs import WORKLOADS, make_plan

HERE = Path(__file__).resolve().parent
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 8  # fresh interpreters timed for setup_s, at least


class BenchError(Exception):
    pass


def _load_spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def _environment(root: Path) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            sha = ref
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "git_sha": sha, "threads": os.cpu_count()}


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int,
                 trace: bool, deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.deadline = deadline
        self.workdir = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.jobs = 0

    def child(self, job: dict) -> dict:
        self.jobs += 1
        job_path = self.workdir / f"job{self.jobs}.json"
        result_path = self.workdir / f"result{self.jobs}.json"
        job_path.write_text(json.dumps(job))
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget used up")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "bench_child.py"), str(job_path),
                 str(result_path)], cwd=self.workdir, env=self.env,
                capture_output=True, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{job['mode']} process exceeded the time budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{job['mode']} process exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        src = str(self.root / "src")
        if not result["goatfocus_file"].startswith(src + os.sep):
            raise BenchError(f"imported {result['goatfocus_file']}, not the "
                             f"checkout's {src}")
        return result

    def run(self) -> dict:
        t0 = time.perf_counter()
        self.workdir.mkdir(parents=True)
        try:
            res = self._run()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        res["run_s"] = time.perf_counter() - t0
        return res

    def _run(self) -> dict:
        plan = make_plan(self.workload, self.seed, self.workdir)
        base = {"seed": self.seed, "setup_scenario": plan["setup_scenario"],
                "samples_per_map": plan["samples_per_map"], "trace": False}
        untraced, traced, probes = [], [], []
        measured = 0.0
        for p, spec in enumerate(plan["passes"]):
            # Start a pass only if one more of the average length still fits.
            if untraced and measured * (1 + 1 / len(untraced)) > self.seconds:
                break
            # A setup-only interpreter goes before each pass, until there are
            # enough setup samples: the first warms the file cache for the
            # first pass, and the setup and pass samples of a run spread over
            # the same stretch of time.
            if len(untraced + traced + probes) < SETUP_SAMPLES:
                probes.append(self.child(dict(base, **{"pass": None})))
            res = self.child(dict(base, requests=spec["requests"], **{"pass": p}))
            untraced.append(res)
            measured += res["pass"]["wall"]
            if self.trace:
                twin = self.child(dict(
                    base, requests=spec["traced"], trace=True, **{"pass": p},
                    thread_speedup=p == 0 and self.workload == "proxon-goat"))
                traced.append(twin)
                measured += twin["pass"]["wall"]
        children = untraced + traced
        while len(children + probes) < SETUP_SAMPLES:
            probes.append(self.child(dict(base, **{"pass": None})))
        setups = [r["setup"] for r in children + probes]

        t_gate = time.perf_counter()
        gate = Gate(self.workdir, self.seed, plan["samples_per_table"])
        op_failures, op_wrong = [], []
        for res in children:
            for i, op in enumerate(res["pass"]["ops"]):
                captures = [c for c in res["captures"] if c["request"] == i]
                failures, wrong = gate.check_op(op, captures)
                op_failures.append(failures + wrong)
                op_wrong.append(wrong)
        gate_s = time.perf_counter() - t_gate

        walls = [r["pass"]["wall"] for r in untraced]
        samples = {"wall_s": walls,
                   "setup_s": [s["import_s"] + s["load_s"] for s in setups],
                   "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in untraced]}
        out = {
            "workload": self.workload, "seed": self.seed,
            "seconds": self.seconds, "trace": self.trace,
            "environment": _environment(self.root),
            "sizes": self._sizes(gate, plan, untraced[0]["captures"]),
            "tofs_oracle_checked": gate.checked,
            "nan_tofs_oracle_checked": gate.nan_checked,
            "samples": samples,
            "attempted": len(op_failures),
            "failed": sum(1 for f in op_failures if f),
            "correct": not any(op_wrong),
            "failures": [f for f in op_failures if f],
            "gate_s": gate_s,
        }
        if self.trace:
            out["layers"] = self._layers(traced, setups, walls)
            out["spans"] = [r["spans"] for r in traced]
            out["absent_wrap_points"] = traced[0]["absent_wrap_points"]
            out["thread_speedup"] = traced[0].get("thread_speedup")
        return out

    @staticmethod
    def _sizes(gate, plan, captures) -> dict:
        """Problem size of one pass: elements x pixels (or foci) of each
        scenario it uses, and the ToFs the program computed for it."""
        scenarios = {}
        for argv in plan["passes"][0]["requests"]:
            name = argv[argv.index("--scenario") + 1]
            scn, imaging = gate.scenario(name), gate.scenario(name).imaging
            scenarios[name] = {
                "elements": len(scn.array),
                "pixels": int(imaging.grid.x.size * imaging.grid.z.size)
                if imaging else 0,
                "scatterers": len(imaging.scatterers) if imaging else 0,
                "foci": len(scn.foci)}
        return {
            "scenarios": scenarios,
            "operations_per_pass": len(plan["passes"][0]["requests"]),
            "tofs_per_pass": sum(r.get("size", len(r.get("tofs", ())))
                                 for r in captures),
        }

    @staticmethod
    def _layers(traced, setups, walls) -> dict:
        layers = {}
        for name in traced[0]["layers"]:
            values = [p["layers"][name] for p in traced
                      if p["layers"][name] is not None]
            layers[name] = statistics.median(values) if values else None
        layers["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        layers["scenario.load_s"] = statistics.median(s["load_s"] for s in setups)
        layers["trace.overhead_s"] = (
            statistics.median(r["pass"]["wall"] for r in traced)
            - statistics.median(walls))
        speed = traced[0].get("thread_speedup") or {}
        layers["batch.thread_speedup"] = (
            speed["threads_1_s"] / speed["threads_default_s"] if speed else None)
        return layers


def _print_run(res: dict, spec: dict):
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"seconds {res['seconds']}  trace {int(res['trace'])}")
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    print("sizes " + json.dumps(res["sizes"], sort_keys=True))
    print(f"oracle checks: {res['tofs_oracle_checked']} ToFs, "
          f"{res['nan_tofs_oracle_checked']} NaN ToFs")
    for m in spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        q1, med, q3 = _quartiles(res["samples"][name])
        print(f"  {name:<12} {unit:<3} median {med:.6g}  q1 {q1:.6g}  "
              f"q3 {q3:.6g}  n {len(res['samples'][name])}")
    print(f"operations attempted {res['attempted']}  failed {res['failed']}  "
          f"wrong outputs {'none' if res['correct'] else 'yes'}  "
          f"(gate {res['gate_s']:.2f} s, untimed; run {res['run_s']:.1f} s)")
    for f in res["failures"][:5]:
        print(f"  failed: {len(f)} issue(s), first: {f[0]}")
    if res["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in units:
            value = res["layers"].get(name)
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {name:<36} {units[name]:<8} {shown}")
        share = res["layers"].get("batch.tof_maps_share")
        if share is not None:
            print(f"batch.tof_maps_s is {100 * share:.1f} % of the traced pass's wall")
        if res["absent_wrap_points"]:
            print("wrap points missing: " + ", ".join(res["absent_wrap_points"]))


def _result_json(res: dict, spec: dict) -> dict:
    metrics = {}
    if res["trace"]:
        for m in spec["per_layer"]:
            value = res["layers"].get(m["name"])
            metrics[m["name"]] = {"value": 0.0 if value is None else value,
                                  "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {
                "value": statistics.median(res["samples"][m["name"]]),
                "unit": m["unit"]}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def _save(root: Path, res: dict):
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}.json"
    (results / name).write_text(json.dumps(res))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "goatfocus" / "cli.py").is_file():
        print("bench: run from the repository root; src/goatfocus is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the gate imports goatfocus
    spec = _load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            res = Runner(root, workload, args.seed, seconds, bool(args.trace),
                         time.monotonic() + BUDGET_S).run()
            _save(root, res)
            _print_run(res, spec)
            print(json.dumps(_result_json(res, spec)))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
