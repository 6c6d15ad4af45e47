"""Spans recorded from outside the program, and the per-layer metrics made
from them.

The benchmark wraps public goatfocus functions where the callers look them
up (module attributes), so ``src/`` stays untouched.  Each call becomes a
span: name, thread id, start, end, parent span and a few attributes taken
from the arguments, the result or the raised exception.  Spans stay in
memory and are written out when the run ends.

``goatfocus.batch.tof_maps`` evaluates sources on a thread pool, so spans of
one layer can overlap in time on different threads.  Self time is therefore
computed per thread: a span's duration minus the part of it covered by its
children on the same thread.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from collections import Counter

import numpy as np

# (module, attribute, span name).  Where a name is imported into several
# modules, every lookup site that the CLI paths use is wrapped.
WRAP_POINTS = (
    ("goatfocus.batch", "tof_maps", "batch.tof_maps"),
    ("goatfocus.imaging", "tof_maps", "batch.tof_maps"),
    ("goatfocus.batch", "solve", "goatsolve.solve"),
    ("goatfocus.cli", "solve", "goatsolve.solve"),
    ("goatfocus.cli", "synthesize_channels", "imaging.synthesize_channels"),
    ("goatfocus.cli", "write_channels", "imaging.write_channels"),
    ("goatfocus.cli", "read_channels", "imaging.read_channels"),
    ("goatfocus.cli", "das_beamform", "imaging.das_beamform"),
    ("goatfocus.imaging", "envelope", "imaging.envelope"),
    ("goatfocus.cli", "beam_profile", "imaging.beam_profile"),
    ("goatfocus.cli", "build_delay_table", "focusing.build_delay_table"),
    ("goatfocus.cli", "fermat_oracle", "analysis.fermat_oracle"),
)
# Counted, not timed: shooting evaluates thousands of rays per solve.
COUNT_POINTS = (
    ("goatfocus.goatsolve", "propagate", "raytrace.propagate_calls"),
)

SOLVE_FAILURES = ("NonConvergenceError", "TotalReflectionError",
                  "NoIntersectionError", "NoBracketError",
                  "DegenerateSegmentError")


class Span:
    __slots__ = ("name", "tid", "start", "end", "parent", "attrs")

    def __init__(self, name, tid, start, end, parent=None, attrs=None):
        self.name = name
        self.tid = tid
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs or {}

    def as_dict(self, index: dict) -> dict:
        return {"name": self.name, "tid": self.tid, "start": self.start,
                "end": self.end, "attrs": self.attrs,
                "parent": index.get(id(self.parent))}


def _attrs(name, args, result, error):
    """Attributes recorded per span: what the layer did and how it ended."""
    if error is not None:
        return {"error": type(error).__name__}
    if name == "batch.tof_maps":
        size = int(result.size)
        return {"tofs": size,
                "nan_tofs": size - int(np.count_nonzero(np.isfinite(result)))}
    if name == "goatsolve.solve":
        return {"method": result.method, "iterations": result.iterations}
    if name in ("imaging.write_channels", "imaging.read_channels"):
        channels = args[0] if name == "imaging.write_channels" else result
        return {"channel_mb": channels.samples.size * 4 / 2 ** 20}
    if name == "focusing.build_delay_table":
        return {"failures": len(result.failures)}
    return {}


class Tracer:
    """Span recorder.  ``install`` wraps the wrap points and ``uninstall``
    puts the original functions back, so untraced passes run unwrapped."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._restore: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A pool thread works for whatever the main thread is inside of.
        return self._main_stack[-1] if self._main_stack else None

    @property
    def active(self) -> bool:
        return bool(self._restore)

    def record(self, name, start, end):
        """A finished span measured by the caller, under the current span."""
        self.spans.append(Span(name, threading.get_ident(), start, end,
                               self._parent(self._stack())))

    def open(self, name) -> Span:
        stack = self._stack()
        span = Span(name, threading.get_ident(), time.perf_counter(), None,
                    self._parent(stack))
        stack.append(span)
        return span

    def close(self, span: Span, attrs=None):
        span.end = time.perf_counter()
        if attrs:
            span.attrs = attrs
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, _attrs(name, args, None, exc))
                raise
            self.close(span, _attrs(name, args, result, None))
            return result
        return traced

    def counter(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every reachable wrap point; record missing ones as absent."""
        self.absent = []
        for points, make in ((WRAP_POINTS, self.wrap),
                             (COUNT_POINTS, self.counter)):
            for module_name, attr, name in points:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, make(fn, name))
                self._restore.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def export(self) -> list[dict]:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [s.as_dict(index) for s in self.spans]


def self_times(spans: list[dict]) -> list[float]:
    """Self time of every span (exported form): its duration minus the
    union of the intervals of its children on the same thread, clipped to
    the span.  Children on other threads do not reduce it: the parent's
    thread is blocked waiting for them, which is its own time."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        p = s["parent"]
        if p is not None and spans[p]["tid"] == s["tid"]:
            children.setdefault(p, []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s["start"]), min(hi, s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s["end"] - s["start"]) - covered)
    return out


def layer_metrics(spans: list[dict], counts: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass.  A metric whose wrap point never
    ran is None (reported as absent)."""
    own = self_times(spans)

    def of(name):
        return [(s, t) for s, t in zip(spans, own) if s["name"] == name]

    def total(name, self_time=False):
        items = of(name)
        if not items:
            return None
        return sum(t if self_time else s["end"] - s["start"] for s, t in items)

    def attr_sum(name, key):
        items = of(name)
        if not items:
            return None
        return sum(s["attrs"].get(key, 0) for s, _ in items)

    m = {}
    m["batch.tof_maps_s"] = total("batch.tof_maps")
    m["batch.tofs"] = attr_sum("batch.tof_maps", "tofs")
    m["batch.nan_tofs"] = attr_sum("batch.tof_maps", "nan_tofs")
    m["batch.tof_per_s"] = (m["batch.tofs"] / m["batch.tof_maps_s"]
                            if m["batch.tof_maps_s"] else None)
    m["batch.tof_maps_share"] = (m["batch.tof_maps_s"] / wall
                                 if m["batch.tof_maps_s"] is not None else None)

    solves = [s for s, _ in of("goatsolve.solve")]
    durations = [s["end"] - s["start"] for s in solves]
    m["goatsolve.solve_calls"] = len(solves)
    m["goatsolve.solve_s"] = sum(durations) if solves else None
    m["goatsolve.solve_p50_us"] = m["goatsolve.solve_p99_us"] = None
    if len(durations) > 1:
        m["goatsolve.solve_p50_us"] = statistics.median(durations) * 1e6
        m["goatsolve.solve_p99_us"] = statistics.quantiles(
            durations, n=100, method="inclusive")[98] * 1e6
    methods = Counter(s["attrs"].get("method") for s in solves)
    for method in ("newton", "shooting", "hybrid"):
        m[f"goatsolve.method.{method}"] = methods.get(method, 0)
    errors = Counter(s["attrs"]["error"] for s in solves if "error" in s["attrs"])
    for name in SOLVE_FAILURES:
        m[f"goatsolve.fail.{name}"] = errors.pop(name, 0)
    m["goatsolve.fail.other"] = sum(errors.values())
    newton_iters = [s["attrs"]["iterations"] for s in solves
                    if s["attrs"].get("method") == "newton"]
    m["goatsolve.newton_iters_mean"] = (sum(newton_iters) / len(newton_iters)
                                        if newton_iters else None)
    m["goatsolve.newton_first_try_frac"] = (len(newton_iters) / len(solves)
                                            if solves else None)
    m["raytrace.propagate_calls"] = counts.get("raytrace.propagate_calls", 0)

    m["focusing.build_delay_table_s"] = total("focusing.build_delay_table")
    m["focusing.failures"] = attr_sum("focusing.build_delay_table", "failures")
    m["analysis.fermat_oracle_s"] = total("analysis.fermat_oracle")
    m["analysis.oracle_calls"] = len(of("analysis.fermat_oracle"))

    m["imaging.synthesize_s"] = total("imaging.synthesize_channels")
    m["imaging.write_channels_s"] = total("imaging.write_channels")
    m["imaging.read_channels_s"] = total("imaging.read_channels")
    mb = [s["attrs"]["channel_mb"] for s in spans
          if s["name"] in ("imaging.write_channels", "imaging.read_channels")
          and "channel_mb" in s["attrs"]]
    m["imaging.channel_mb"] = max(mb) if mb else None
    m["imaging.das_self_s"] = total("imaging.das_beamform", self_time=True)
    m["imaging.envelope_s"] = total("imaging.envelope")
    m["imaging.profile_s"] = total("imaging.beam_profile")
    m["cli.unaccounted_s"] = total("cli.main", self_time=True)
    return m
