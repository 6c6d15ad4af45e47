"""One benchmark process: a fresh interpreter that imports goatfocus and
runs at most one pass of requests through ``goatfocus.cli.main``, one at a
time, as a user running one command per process would.

Usage: python3 bench_child.py <job.json> <result.json>

Every job times ``import goatfocus.cli`` and ``scenario.load``.  A job with
``requests`` then runs them as one pass and records its wall time and the
process's peak RSS; with ``trace`` the layer wrappers are installed first.
The ToF arrays the program computes are sampled for the correctness gate,
which runs later in another process; the time spent sampling is measured
and left out of the pass time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

_NAN_CAP = 200  # NaN ToFs kept per array for the oracle; the rest counted


class Capture:
    """Wraps the ToF entry points and keeps, per request, a seeded sample of
    finite ToFs and the positions of NaN ToFs, with the source and target
    coordinates the gate needs."""

    POINTS = (("goatfocus.batch", "tof_maps"), ("goatfocus.imaging", "tof_maps"),
              ("goatfocus.focusing", "tof_batch"))

    def __init__(self, seed, samples_per_map: int, tracer=None):
        self.seed = seed  # a list of ints: the run's seed and the pass index
        self.samples_per_map = samples_per_map
        self.tracer = tracer
        self.records: list = []
        self.request = 0
        self.calls = 0
        self.seconds = 0.0
        self._restore = []

    def install(self):
        for module_name, attr in self.POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:  # the gate flags outputs it saw no ToFs for
                continue
            wrapper = self._wrap_maps if attr == "tof_maps" else self._wrap_batch
            setattr(module, attr, wrapper(fn))
            self._restore.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _timed(self, record):
        t0 = time.perf_counter()
        record()
        t1 = time.perf_counter()
        self.seconds += t1 - t0
        if self.tracer is not None and self.tracer.active:
            self.tracer.record("bench.capture", t0, t1)

    def _wrap_maps(self, fn):
        import numpy as np

        def tof_maps(medium, sources, tx, tz, *args, **kwargs):
            out = fn(medium, sources, tx, tz, *args, **kwargs)

            def record():
                src = [(p.x, p.z) for p in sources]
                tgt_x = np.asarray(tx, dtype=float).ravel()
                tgt_z = np.asarray(tz, dtype=float).ravel()
                flat = out.reshape(len(src), -1)
                rng = np.random.default_rng([*self.seed, self.request, self.calls])
                self.calls += 1
                picks = []
                for i in rng.integers(0, flat.size, 8 * self.samples_per_map):
                    m, k = divmod(int(i), flat.shape[1])
                    if np.isfinite(flat[m, k]):
                        picks.append((m, k))
                    if len(picks) == self.samples_per_map:
                        break
                nans = []
                n_nan = 0
                if not np.isfinite(flat.sum()):
                    bad = np.argwhere(~np.isfinite(flat))
                    n_nan = len(bad)
                    if n_nan > _NAN_CAP:
                        bad = bad[np.sort(rng.choice(n_nan, _NAN_CAP, replace=False))]
                    nans = [(int(m), int(k)) for m, k in bad]
                self.records.append({
                    "request": self.request, "kind": "map",
                    "size": int(flat.size), "nan_count": n_nan,
                    "samples": [[*src[m], tgt_x[k], tgt_z[k], float(flat[m, k])]
                                for m, k in picks],
                    "nans": [[*src[m], tgt_x[k], tgt_z[k]] for m, k in nans],
                })
            self._timed(record)
            return out
        return tof_maps

    def _wrap_batch(self, fn):
        def tof_batch(medium, src, tx, tz, *args, **kwargs):
            out = fn(medium, src, tx, tz, *args, **kwargs)

            def record():
                self.records.append({
                    "request": self.request, "kind": "column",
                    "source": [src.x, src.z],
                    "targets": [[float(x), float(z)] for x, z in zip(tx, tz)],
                    "tofs": [float(v) for v in out]})
            self._timed(record)
            return out
        return tof_batch


def _setup_sample(scenario: str) -> dict:
    t0 = time.perf_counter()
    import goatfocus.cli  # noqa: F401
    t1 = time.perf_counter()
    from goatfocus import scenario as scenario_mod
    scenario_mod.load(scenario)
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "load_s": t2 - t1}


def _run_request(argv, capture, tracer, index) -> dict:
    """One CLI request with its output captured; a crash is a failed
    operation, not a dead benchmark."""
    from goatfocus import cli
    capture.request = index
    capture.calls = 0
    out, err = io.StringIO(), io.StringIO()
    span = tracer.open("cli.main") if tracer is not None else None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:
        rc = "exception"
        err.write(traceback.format_exc())
    if span is not None:
        tracer.close(span)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _run_pass(requests, capture, tracer) -> dict:
    t0 = time.perf_counter()
    ops = [_run_request(argv, capture, tracer, i)
           for i, argv in enumerate(requests)]
    return {"wall": time.perf_counter() - t0 - capture.seconds, "ops": ops}


def _thread_speedup() -> dict:
    """tof_maps over the proxon grid for its first 8 elements, at one worker
    and at the CLI default (os.cpu_count())."""
    import numpy as np
    from goatfocus import batch, scenario
    set_workers = getattr(batch, "set_max_workers", None)
    tof_maps = getattr(batch, "tof_maps", None)
    if set_workers is None or tof_maps is None:
        return {}
    scn = scenario.load("proxon")
    gx, gz = np.meshgrid(scn.imaging.grid.x, scn.imaging.grid.z)
    sources = scn.array.element_positions[:8]
    times = {}
    for workers in (os.cpu_count(), 1):
        set_workers(workers)
        t0 = time.perf_counter()
        tof_maps(scn.medium, sources, gx, gz, scn.solver)
        times[workers] = time.perf_counter() - t0
    set_workers(os.cpu_count())
    return {"threads_default_s": times[os.cpu_count()],
            "threads_1_s": times[1], "elements": len(sources),
            "pixels": int(gx.size)}


def main(job_path, result_path) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    result = {"setup": _setup_sample(job["setup_scenario"])}
    import goatfocus
    result["goatfocus_file"] = goatfocus.__file__
    if job.get("requests"):
        from bench_trace import Tracer, layer_metrics
        tracer = Tracer() if job["trace"] else None
        capture = Capture([job["seed"], job["pass"]], job["samples_per_map"],
                          tracer)
        if tracer is not None:
            tracer.install()
        capture.install()  # outermost, so sampling is a span of its own
        result["pass"] = _run_pass(job["requests"], capture, tracer)
        capture.uninstall()
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["captures"] = capture.records
        if tracer is not None:
            tracer.uninstall()
            spans = tracer.export()
            result["spans"] = spans
            result["layers"] = layer_metrics(spans, tracer.counts,
                                             result["pass"]["wall"])
            result["absent_wrap_points"] = tracer.absent
        if job.get("thread_speedup"):
            result["thread_speedup"] = _thread_speedup()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
