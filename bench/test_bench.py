"""Self-tests of the benchmark's own logic: self-time arithmetic, the
correctness gate, and seeded input generation."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import goatfocus.batch
from bench_child import Capture
from bench_gate import Gate
from bench_inputs import WORKLOADS, make_plan
from bench_trace import Tracer, self_times


def span(name, tid, start, end, parent=None):
    return {"name": name, "tid": tid, "start": start, "end": end,
            "parent": parent, "attrs": {}}


def test_self_time_nested_spans():
    spans = [
        span("cli.main", 1, 0.0, 10.0),
        span("imaging.das_beamform", 1, 1.0, 8.0, parent=0),
        span("batch.tof_maps", 1, 2.0, 5.0, parent=1),
        span("imaging.envelope", 1, 6.0, 7.0, parent=1),
        span("imaging.beam_profile", 1, 8.5, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 3.0, 3.0, 1.0, 0.5])


def test_self_time_overlapping_children_counted_once():
    spans = [span("a", 1, 0.0, 10.0), span("b", 1, 1.0, 6.0, parent=0),
             span("c", 1, 4.0, 12.0, parent=0)]
    # Children cover [1, 10] once clipped to the parent.
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_self_time_two_threads():
    # A pool worker's spans belong to the main thread's open span but do not
    # reduce its self time: the main thread is blocked for the whole span.
    spans = [
        span("batch.tof_maps", 1, 0.0, 10.0),
        span("goatsolve.solve", 2, 1.0, 9.0, parent=0),
        span("goatsolve.solve", 3, 2.0, 8.0, parent=0),
    ]
    own = self_times(spans)
    assert own == pytest.approx([10.0, 8.0, 6.0])
    assert sum(own[1:]) > own[0]  # summed busy time exceeds the wall


def test_tracer_links_pool_threads_to_the_main_span():
    tracer = Tracer()
    work = tracer.wrap(lambda x: x * 2, "leaf")
    outer = tracer.open("outer")
    with ThreadPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(work, range(4))) == [0, 2, 4, 6]
    tracer.close(outer)
    spans = tracer.export()
    root = next(i for i, s in enumerate(spans) if s["name"] == "outer")
    leaves = [s for s in spans if s["name"] == "leaf"]
    assert len(leaves) == 4
    assert all(s["parent"] == root for s in leaves)
    assert all(s["tid"] != threading.get_ident() for s in leaves)


@pytest.mark.parametrize("fault, failed, wrong", [
    (None, False, False),
    ("perturb", True, True),   # a finite ToF off by 1e-6 relative
    ("nan", True, False),      # NaN where the oracle finds a path
])
def test_gate_flags_faulty_tofs(tmp_path, fault, failed, wrong):
    from goatfocus.scenario import load
    scn = load("proxon")
    real = goatfocus.batch.tof_maps

    def faulty(*args, **kwargs):  # test-only fault injection
        out = real(*args, **kwargs)
        if fault == "perturb":
            out = out * (1.0 + 1e-6)
        elif fault == "nan":
            out = out.copy()
            out[...] = np.nan
        return out

    goatfocus.batch.tof_maps = faulty
    capture = Capture(seed=[3, 0], samples_per_map=3)
    capture.install()
    try:
        goatfocus.batch.tof_maps(scn.medium, scn.array.element_positions[:2],
                                 np.array([0.0, 0.004]),
                                 np.array([0.02, 0.035]), scn.solver)
    finally:
        capture.uninstall()
        goatfocus.batch.tof_maps = real
    (tmp_path / "p_goat.pgm").write_bytes(b"")
    op = {"argv": ["beamform", "--scenario", "proxon", "--engine", "goat",
                   "--out", "p"], "rc": 0, "stderr": "",
          "stdout": json.dumps({"image": "p_goat.pgm", "profiles": []})}
    failures, wrong_outputs = Gate(tmp_path, 3).check_op(op, capture.records)
    assert bool(failures or wrong_outputs) == failed
    assert bool(wrong_outputs) == wrong


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, second, other):
        d.mkdir()
    plan_a = make_plan(workload, 7, first)
    plan_b = make_plan(workload, 7, second)
    make_plan(workload, 8, other)
    assert plan_a == plan_b
    files = sorted(p.name for p in first.iterdir())
    assert files == sorted(p.name for p in second.iterdir())
    for name in files:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    if files:
        assert any((first / n).read_bytes() != (other / n).read_bytes()
                   for n in files)


def test_generated_scenarios_pass_the_strict_schema(tmp_path):
    from goatfocus.scenario import load
    make_plan("curved-goat", 11, tmp_path)
    for path in sorted(tmp_path.glob("*.json")):
        load(str(path))


def test_gate_counts_oracle_exit_without_output_as_failed(tmp_path):
    # cli.main returns 3 and prints nothing when the solver does not converge.
    op = {"argv": ["oracle", "--scenario", "proxon", "--source", "0",
                   "--focus", "0.0,30.0"], "rc": 3, "stdout": "",
          "stderr": "solver did not converge"}
    failures, wrong_outputs = Gate(tmp_path, 3).check_op(op, [])
    assert failures and not wrong_outputs


def test_gate_checks_several_pairs_per_delay_table(tmp_path):
    from goatfocus import focusing
    from goatfocus.scenario import load
    scn = load("proxon")
    capture = Capture(seed=[3, 0], samples_per_map=0)
    capture.install()
    try:
        fx, fz = np.array([0.0, 0.004]), np.array([0.02, 0.03])
        for el in scn.array.element_positions[:3]:
            focusing.tof_batch(scn.medium, el, fx, fz, scn.solver)
    finally:
        capture.uninstall()
    argv = ["delays", "--scenario", "proxon", "--engine", "goat",
            "--kind", "transmit", "--out", "d.csv"]
    (tmp_path / "d.csv").write_text("")  # no rows: only the sampled ToFs
    op = {"argv": argv, "rc": 0, "stdout": "", "stderr": ""}
    gate = Gate(tmp_path, 3, samples_per_table=4)
    assert gate.check_op(op, capture.records) == ([], [])
    assert gate.checked == 4
