"""Scenario schema strictness and end-to-end CLI behavior (exit codes,
artifact determinism)."""

import ast
import csv
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

import goatfocus
from goatfocus import cli
from goatfocus.cli import main
from goatfocus.errors import (
    ChannelFileError,
    DegenerateDenominatorError,
    DegenerateSegmentError,
    NoBracketError,
    NoIntersectionError,
    NonConvergenceError,
    NoTransmittedPathError,
    RoiError,
    ScenarioError,
    TotalReflectionError,
)
from goatfocus.imaging import (
    ChannelDataSet,
    read_channels,
    synthesize_channels,
    write_channels,
)
from goatfocus.scenario import fixture_names, load, loads


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


MINIMAL = {
    "units": {"length": "mm", "speed": "m/s", "time": "s"},
    "medium": {"speeds": [1480.0, 1540.0], "domain": [0.0, 40.0],
               "boundaries": [{"kind": "constant", "depth": 20.0}]},
    "sources": [[5.0, 2.0]],
    "foci": [[20.0, 35.0]],
}


def _imaging(**grid):
    """The homogeneous fixture's imaging block with its grid changed."""
    doc = json.loads(
        (files("goatfocus") / "fixtures" / "homogeneous.json").read_text())
    doc["imaging"]["grid"].update(grid)
    return doc["imaging"]


def _medium(**fields):
    """MINIMAL's medium block with fields replaced."""
    return dict(MINIMAL["medium"], **fields)


def _unreachable(tmp_path):
    """The total_reflection fixture under a 4-element array at x = 30 mm,
    with one focus and one scatterer at (400, 31) mm that no element
    reaches, written to a file."""
    doc = json.loads(
        (files("goatfocus") / "fixtures" / "total_reflection.json").read_text())
    doc.update(array={"num_elements": 4, "pitch": 1.0, "center_x": 30.0},
               foci=[[400.0, 31.0]],
               pulse={"center_frequency_hz": 5e6},
               imaging={"grid": {"x": [29.0, 31.0], "z": [31.0, 35.0],
                                 "spacing": 0.2},
                        "sample_rate_hz": 4e7,
                        "scatterers": [[400.0, 31.0, 1.0]]})
    path = tmp_path / "unreachable.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestScenarioSchema:
    def test_minimal_loads(self):
        scn = loads(json.dumps(MINIMAL))
        assert scn.medium.num_layers == 2
        assert scn.sources[0].x == pytest.approx(5e-3)

    def test_unknown_key_rejected(self):
        doc = dict(MINIMAL, extra=1)
        with pytest.raises(ScenarioError, match="unknown keys"):
            loads(json.dumps(doc))

    def test_nested_unknown_key_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["medium"]["boundaries"][0]["slope"] = 1.0
        with pytest.raises(ScenarioError):
            loads(json.dumps(doc))

    def test_missing_units_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        del doc["units"]
        with pytest.raises(ScenarioError, match="missing keys"):
            loads(json.dumps(doc))

    def test_unknown_length_unit_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["units"]["length"] = "furlong"
        with pytest.raises(ScenarioError):
            loads(json.dumps(doc))

    def test_meters_unit_supported(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["units"]["length"] = "m"
        doc["medium"]["domain"] = [0.0, 0.04]
        doc["medium"]["boundaries"][0]["depth"] = 0.02
        doc["sources"] = [[0.005, 0.002]]
        doc["foci"] = [[0.02, 0.035]]
        scn = loads(json.dumps(doc))
        assert scn.medium.boundaries[0].d == pytest.approx(0.02)

    def test_invalid_medium_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["medium"]["speeds"] = [1480.0]
        with pytest.raises(ScenarioError, match="invalid medium"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("key, value, where", [
        ("sources", [[5.0, 2.0], [5.0, 25.0]], "sources[1]"),
        ("array", {"num_elements": 4, "pitch": 0.5, "center_x": 20.0,
                   "z": 21.0}, "array element 0"),
    ])
    def test_point_below_first_interface_rejected(self, key, value, where):
        doc = dict(MINIMAL, **{key: value})
        with pytest.raises(ScenarioError,
                           match=re.escape(where) + r": .* in layer 2,"):
            loads(json.dumps(doc))

    @pytest.mark.parametrize("key, value, where", [
        ("sources", [[5.0, 2.0], [5.0, 20.0]], "sources[1]"),
        ("array", {"num_elements": 4, "pitch": 0.5, "center_x": 20.0,
                   "z": 20.0}, "array element 0"),
    ])
    def test_point_on_first_interface_rejected(self, key, value, where):
        # Medium.layer_of counts an interface point in the layer above, but
        # no ray can start there.
        doc = dict(MINIMAL, **{key: value})
        with pytest.raises(ScenarioError, match=re.escape(where)
                           + r": .* lies on the first interface$"):
            loads(json.dumps(doc))

    def test_fixture_names_available(self):
        names = fixture_names()
        for expected in ("setting1", "setting2", "setting3", "table2_setting1",
                         "proxon", "homogeneous", "total_reflection",
                         "oscillating"):
            assert expected in names

    def test_all_fixtures_load(self):
        for name in fixture_names():
            scn = load(name)
            assert scn.medium.num_layers >= 2


class TestCmdSolve:
    def test_setting1_converges(self, capsys):
        code, out, _ = run(capsys, "solve", "--scenario", "setting1",
                           "--source", "2.3,5", "--focus", "31.9,77.5")
        assert code == 0
        rep = json.loads(out)
        assert rep["iterations"] <= 10
        assert rep["residual_norm"] <= 1e-12
        assert rep["method"] == "newton"

    def test_homogeneous_straight_chord(self, capsys):
        code, out, _ = run(capsys, "solve", "--scenario", "homogeneous",
                           "--source", "0,0", "--focus", "4,30")
        assert code == 0
        rep = json.loads(out)
        # Crossing on the straight chord at the interface depth.
        assert rep["crossings_z_m"][0] == pytest.approx(20e-3, abs=1e-15)
        assert rep["crossings_x_m"][0] == pytest.approx(4e-3 * 20 / 30, abs=1e-12)

    def test_total_reflection_exit_code(self, capsys):
        code, _, err = run(capsys, "solve", "--scenario", "total_reflection")
        assert code == 4
        assert "TotalReflectionError" in err

    def test_source_by_element_index(self, capsys):
        code, out, _ = run(capsys, "solve", "--scenario", "proxon",
                           "--source", "0", "--focus", "0,30")
        assert code == 0
        rep = json.loads(out)
        assert rep["source_m"][1] == 0.0

    def test_negative_focus_coordinate(self, capsys):
        # proxon's array and grid span negative x; a value that starts with
        # "-" is the option's argument, not another option.
        argv = ("solve", "--scenario", "proxon", "--source", "0")
        code, out, _ = run(capsys, *argv, "--focus", "-5,30")
        assert code == 0
        assert (code, out) == run(capsys, *argv, "--focus=-5,30")[:2]

    @pytest.mark.parametrize("scenario, source, focus", [
        # Under setting3's 2200 m/s cover, where a straight chord at the
        # first layer's speed would pass for a ToF.
        ("setting3", "18,90", "18,1"),
        # Under proxon's interface, where "no bracket" is not the cause.
        ("proxon", "0,20", "0,30"),
    ])
    def test_source_below_first_interface_exit_2(self, capsys, scenario,
                                                 source, focus):
        code, out, err = run(capsys, "solve", "--scenario", scenario,
                             "--source", source, "--focus", focus)
        assert code == 2
        assert out == ""
        rep = json.loads(err)
        assert rep["error"] == "ScenarioError"
        assert rep["message"].startswith("--source: ")

    def test_source_on_first_interface_exit_2(self, capsys):
        code, out, err = run(capsys, "solve", "--scenario", "proxon",
                             "--source", "0,9", "--focus", "5,30")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ScenarioError",
            "message": "--source: (0, 0.009) m lies on the first interface"}
        # 0.1 nm above the interface is still a source.
        code, out, _ = run(capsys, "solve", "--scenario", "proxon",
                           "--source", "0,8.9999999", "--focus", "5,30")
        assert code == 0
        assert json.loads(out)["tof_s"] == pytest.approx(1.40176e-5, rel=1e-5)

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exit_2(self, capsys, threads):
        code, out, err = run(capsys, "--threads", threads, "solve",
                             "--scenario", "proxon", "--source", "0",
                             "--focus", "5,30")
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "ScenarioError",
            "message": f"--threads must be at least 1, got {threads}"}

    def test_unknown_fixture_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--scenario", "nonexistent")
        assert code == 2
        assert "ScenarioError" in err

    def test_blocked_geometry_total_reflection_exit_4(self, capsys, tmp_path):
        # Newton fails on this blocked geometry, and the shooting stage,
        # which always runs, finds every launch candidate totally reflected.
        doc = json.loads(json.dumps(MINIMAL))
        doc["medium"]["speeds"] = [1480.0, 2200.0]
        doc["medium"]["domain"] = [28.0, 50.0]
        doc["medium"]["boundaries"] = [{"kind": "constant", "depth": 30.0}]
        doc["sources"] = [[0.0, 0.0]]
        doc["foci"] = [[60.0, 60.0]]
        path = tmp_path / "blocked.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "--scenario", str(path))
        assert (code, out) == (4, "")
        assert json.loads(err)["error"] == "TotalReflectionError"

    def test_io_error_exit_5(self, capsys):
        code, _, err = run(capsys, "delays", "--scenario", "setting1",
                           "--engine", "hmfa",
                           "--out", "/nonexistent-dir/delays.csv")
        assert code == 5

    @pytest.mark.parametrize("exc, code, extra", [
        (ScenarioError("bad"), 2, {}),
        (NonConvergenceError("slow", iterations=7), 3, {"iterations": 7}),
        (TotalReflectionError("tir"), 4, {}),
        (NoIntersectionError("miss"), 4, {}),
        (NoBracketError("flat"), 4, {}),
        (DegenerateSegmentError("short"), 4, {}),
        (DegenerateDenominatorError("zero"), 4, {}),
        (RoiError("roi"), 2, {}),
        (FileNotFoundError(2, "gone"), 5, {}),
        (NoTransmittedPathError("none"), 4, {}),
        (ChannelFileError("bad cache"), 5, {}),
    ])
    def test_error_exit_codes(self, capsys, monkeypatch, exc, code, extra):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_solve", fail)
        got, out, err = run(capsys, "solve", "--scenario", "setting1")
        assert got == code
        assert out == ""
        assert err == json.dumps({"error": type(exc).__name__,
                                  "message": str(exc), **extra},
                                 sort_keys=True) + "\n"

    def test_global_seed_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "1", "solve", "--scenario", "setting1"])
        assert exc.value.code == 2

    def test_solve_output_deterministic(self, capsys):
        _, out1, _ = run(capsys, "solve", "--scenario", "setting2",
                         "--source", "4.6,5")
        _, out2, _ = run(capsys, "solve", "--scenario", "setting2",
                         "--source", "4.6,5")
        assert out1 == out2


class TestCmdDelays:
    def test_homogeneous_engines_agree(self, capsys, tmp_path):
        outs = {}
        for engine in ("goat", "hmfa"):
            path = tmp_path / f"{engine}.csv"
            code, _, _ = run(capsys, "delays", "--scenario", "homogeneous",
                             "--engine", engine, "--kind", "transmit",
                             "--out", str(path))
            assert code == 0
            outs[engine] = path.read_text().splitlines()
        assert len(outs["goat"]) == len(outs["hmfa"])
        compared = 0
        for lg, lh in zip(outs["goat"], outs["hmfa"]):
            if lg.startswith("#") or len(lg.split(",")) != 4 or "delay" in lg:
                continue
            *head_g, dg = lg.split(",")
            *head_h, dh = lh.split(",")
            assert head_g == head_h
            assert abs(float(dg) - float(dh)) <= 1e-15
            compared += 1
        assert compared == 32 * 2  # 32 elements, 2 foci

    @pytest.mark.parametrize("tx", ["64", "-1"])
    def test_transmit_element_out_of_range_exit_2(self, capsys, tmp_path, tx):
        out = tmp_path / "d.csv"
        code, _, err = run(capsys, "delays", "--scenario", "setting1",
                           "--engine", "goat", "--tx", tx, "--out", str(out))
        assert code == 2
        assert json.loads(err)["error"] == "ScenarioError"
        assert not out.exists()

    def test_every_solve_failed_exit_4(self, capsys, tmp_path):
        out = tmp_path / "d.csv"
        code, stdout, err = run(capsys, "delays", "--scenario",
                                _unreachable(tmp_path), "--engine", "goat",
                                "--out", str(out))
        assert (code, stdout) == (4, "")
        assert err == json.dumps({"error": "NoTransmittedPathError",
                                  "message": "every (element, focus) solve "
                                             "failed"}, sort_keys=True) + "\n"
        assert not out.exists()

    def test_provenance_header(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        code, _, _ = run(capsys, "delays", "--scenario", "setting1",
                         "--engine", "goat", "--out", str(path))
        assert code == 0
        first = path.read_text().splitlines()[0]
        assert first.startswith("# goatfocus") and "scenario=" in first

    def test_empty_foci_ok(self, capsys, tmp_path):
        doc = json.loads(json.dumps(MINIMAL))
        doc["foci"] = []
        doc["array"] = {"num_elements": 4, "pitch": 0.5, "center_x": 20.0}
        scn_path = tmp_path / "scn.json"
        scn_path.write_text(json.dumps(doc))
        out = tmp_path / "d.csv"
        code, _, _ = run(capsys, "delays", "--scenario", str(scn_path),
                         "--engine", "goat", "--out", str(out))
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        assert rows[-1] == "focus_x_m,focus_z_m,element_index,delay_s"


class TestCmdCheck:
    def test_setting1_all_satisfied(self, capsys):
        code, out, _ = run(capsys, "check", "--scenario", "setting1",
                           "--source", "2.3,5", "--focus", "31.9,77.5")
        assert code == 0
        rep = json.loads(out)
        assert rep["all_satisfied"] is True
        assert rep["bracket"]["satisfied"] is True

    def test_total_reflection_reports_violations(self, capsys):
        code, out, _ = run(capsys, "check", "--scenario", "total_reflection")
        assert code == 0
        rep = json.loads(out)
        assert rep["bracket"]["satisfied"] is False
        assert rep["bracket"]["witness"]["skipped"]["total_reflection"] > 0
        assert any(not r["satisfied"] for r in rep["no_total_reflection"])
        assert rep["all_satisfied"] is False

    @pytest.mark.parametrize("scenario,source,focus,layer", [
        ("setting1", "18,0", "18,10", 1),
        ("setting2", "18,0", "18,45", 1),
        ("setting3", "18,0", "18.225,35.5", 2),
    ])
    def test_focus_above_the_last_interface(self, capsys, scenario, source,
                                            focus, layer):
        # The conditions are judged on the stack down to the focus's
        # layer; a first-layer focus crosses no interface.
        code, out, err = run(capsys, "check", "--scenario", scenario,
                             "--source", source, "--focus", focus)
        assert (code, err) == (0, "")
        rep = json.loads(out)
        assert rep["solution_found"] is True
        assert len(rep["no_total_reflection"]) == layer - 1
        assert len(rep["unique_intersection"]) == layer - 1
        assert ("bracket" in rep) == (layer > 1)

    def test_oscillating_uniqueness(self, capsys):
        code, out, _ = run(capsys, "check", "--scenario", "oscillating")
        assert code == 0
        rep = json.loads(out)
        assert rep["uniqueness_scan"]["satisfied"] is False
        assert rep["uniqueness_scan"]["margin"] > 1

    @pytest.mark.parametrize("pair", [
        pytest.param(("setting1", "--source", "2.3,5", "--focus", "31.9,77.5"),
                     id="setting1"),
        # The bracket witness is a JSON object, so it holds quotes.
        pytest.param(("total_reflection",), id="total_reflection"),
    ])
    def test_csv_export(self, capsys, tmp_path, pair):
        out = tmp_path / "report.csv"
        code, stdout, _ = run(capsys, "check", "--scenario", *pair,
                              "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "condition,boundary,satisfied,margin,witness"
        assert any(l.startswith("uniqueness_scan,") for l in lines)
        rows = list(csv.reader(lines[1:]))
        assert all(len(r) == 5 for r in rows), rows
        (bracket,) = [r for r in rows if r[0] == "bracket_exists"]
        assert json.loads(bracket[4]) == json.loads(stdout)["bracket"]["witness"]


class TestCmdLevelset:
    def test_writes_curve(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code, summary, _ = run(capsys, "levelset", "--scenario", "setting1",
                               "--source", "2.3,5", "--focus", "31.9,77.5",
                               "--seed", "12,30", "--out", str(out))
        assert code == 0
        rep = json.loads(summary)
        assert rep["max_oval_residual_m"] <= 1e-8
        lines = out.read_text().splitlines()
        assert lines[3] == "x_m,z_m,oval_residual_m"
        assert len(lines) > 50

    def test_negative_seed_coordinate(self, capsys, tmp_path):
        code, _, _ = run(capsys, "levelset", "--scenario", "proxon",
                         "--source", "0", "--focus", "0,30", "--seed", "-2,12",
                         "--out", str(tmp_path / "c.csv"))
        assert code == 0

    def test_three_layers_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "levelset", "--scenario", "setting3",
                           "--seed", "12,30", "--out", str(tmp_path / "c.csv"))
        assert code == 2

    @pytest.mark.parametrize("seed", ["12,30", "10,25"])
    def test_vertical_tangent_at_seed_exits_4(self, capsys, tmp_path, seed):
        # With setting1's default source and focus the level curve through
        # these seeds is vertical there, so no curve in x leaves the seed.
        out = tmp_path / "c.csv"
        code, summary, err = run(capsys, "levelset", "--scenario",
                                 "setting1", "--seed", seed, "--out", str(out))
        assert code == 4
        assert summary == ""
        assert json.loads(err)["error"] == "DegenerateDenominatorError"
        assert not out.exists()

    @staticmethod
    def _flat(tmp_path):
        """A 1540 over 1450 m/s flat medium, source (0, 0) mm and focus
        (0, 40) mm, written to a file."""
        doc = dict(MINIMAL, medium=_medium(
            speeds=[1540.0, 1450.0], domain=[-30.0, 30.0]),
            sources=[[0.0, 0.0]], foci=[[0.0, 40.0]])
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_stage_near_an_endpoint_ends_the_branch(self, capsys, tmp_path):
        # A middle RK4 stage of this curve lands within 1e-6 m of the
        # source: the branch ends there, keeping its completed steps.
        out = tmp_path / "c.csv"
        code, summary, _ = run(capsys, "levelset", "--scenario",
                               self._flat(tmp_path), "--seed",
                               "3.054167220337458,10", "--steps", "256",
                               "--out", str(out))
        assert code == 0
        assert json.loads(summary)["points"] > 1
        assert len(out.read_text().splitlines()) > 5

    def test_seed_at_an_endpoint_exits_4(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code, summary, err = run(capsys, "levelset", "--scenario",
                                 self._flat(tmp_path), "--seed", "0,0.0005",
                                 "--out", str(out))
        assert code == 4
        assert summary == ""
        assert json.loads(err) == {
            "error": "DegenerateDenominatorError",
            "message": "level-set point within 1e-6 m of an endpoint"}
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        # setting1's source sits at z = 5 mm, so a seed at z = 1 mm is above
        # it and no constant-ToF curve between source and focus exists.
        ("--seed", "12,1"),
        ("--seed", "12,30", "--steps", "0"),
        ("--seed", "500,30"),  # setting1's lateral domain is 0-36.45 mm
    ])
    def test_bad_flag_values_exit_2(self, capsys, tmp_path, flags):
        code, out, err = run(capsys, "levelset", "--scenario", "setting1",
                             *flags, "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ScenarioError"
        assert not (tmp_path / "c.csv").exists()


class TestCmdOracle:
    def test_setting1_passes(self, capsys):
        code, out, _ = run(capsys, "oracle", "--scenario", "setting1",
                           "--source", "18.3,5", "--focus", "31.9,77.5",
                           "--grid", "1024")
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["difference_s"] <= rep["threshold_s"]

    @pytest.mark.parametrize("scenario, source, focus", [
        ("setting3", "20", "18,20"),
        ("proxon", "3", "1,5"),
    ])
    def test_first_layer_focus_passes(self, capsys, scenario, source, focus):
        # The oracle once forced the path through every interface, so a
        # focus above the last one failed against the solver's shallow ray.
        code, out, _ = run(capsys, "oracle", "--scenario", scenario,
                           "--source", source, "--focus", focus,
                           "--grid", "256")
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert rep["oracle_bound_s"] == 0.0

    def test_threads_reach_the_oracle(self, capsys, monkeypatch):
        real = cli.fermat_oracle
        seen = []

        def wrapper(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            seen.append(bound.arguments["workers"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "fermat_oracle", wrapper)
        code, _, _ = run(capsys, "--threads", "3", "oracle", "--scenario",
                         "setting1", "--grid", "256")
        assert code == 0
        assert seen == [3]

    def test_grid_below_minimum_exit_2(self, capsys):
        code, out, err = run(capsys, "oracle", "--scenario", "setting1",
                             "--grid", "10")
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ScenarioError"


class TestNonFiniteInput:
    """NaN and infinite coordinates are bad input (exit 2), not points the
    solver fails on."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(("solve", "--source", "0", "--focus", "nan,30"),
                     "--focus 'nan,30': coordinates must be finite",
                     id="solve-focus"),
        pytest.param(("solve", "--source", "nan,0", "--focus", "5,30"),
                     "--source 'nan,0': coordinates must be finite",
                     id="solve-source"),
        pytest.param(("oracle", "--source", "0", "--focus", "0,nan"),
                     "--focus '0,nan': coordinates must be finite",
                     id="oracle-focus"),
        pytest.param(("check", "--source", "0", "--focus", "nan,30"),
                     "--focus 'nan,30': coordinates must be finite",
                     id="check-focus"),
        pytest.param(("solve", "--source", "0", "--focus", "5,inf"),
                     "--focus '5,inf': coordinates must be finite",
                     id="solve-focus-inf"),
        pytest.param(("levelset", "--source", "0", "--focus", "0,30",
                      "--seed", "inf,5"),
                     "--seed 'inf,5': coordinates must be finite",
                     id="levelset-seed"),
    ])
    def test_flag_exit_2(self, capsys, tmp_path, argv, message):
        out_csv = tmp_path / "c.csv"
        extra = ("--out", str(out_csv)) if argv[0] == "levelset" else ()
        code, out, err = run(capsys, argv[0], "--scenario", "proxon",
                             *argv[1:], *extra)
        assert (code, out) == (2, "")
        assert err == json.dumps({"error": "ScenarioError",
                                  "message": message}, sort_keys=True) + "\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("foci", [[20.0, float("nan")]],
                     "foci[0]: expected a finite number, got nan",
                     id="nan-focus"),
        pytest.param("sources", [[float("inf"), 2.0]],
                     "sources[0]: expected a finite number, got inf",
                     id="infinite-source"),
        pytest.param("foci", [[20.0, 10**400]],
                     f"foci[0]: expected a finite number, got {10**400}",
                     id="integer-beyond-float-range"),
        pytest.param("imaging", _imaging(spacing=0),
                     "imaging.grid.spacing: 0 is not positive",
                     id="zero-spacing"),
        pytest.param("imaging", _imaging(spacing=-0.2),
                     "imaging.grid.spacing: -0.2 is not positive",
                     id="negative-spacing"),
        pytest.param("imaging", _imaging(x=[5, -5]),
                     "imaging.grid.x: expected [lo, hi], lo <= hi, got [5, -5]",
                     id="reversed-extent"),
        pytest.param("imaging", _imaging(spacing=50),
                     "imaging.grid.z: need 16 depth rows, got 1",
                     id="too-few-depth-rows"),
        pytest.param("sources", 5, "sources: expected a list, got 5",
                     id="number-sources"),
        pytest.param("foci", None, "foci: expected a list, got None",
                     id="null-foci"),
        pytest.param("medium", _medium(speeds=2.0),
                     "medium.speeds: expected a list, got 2.0",
                     id="number-speeds"),
        pytest.param("medium", _medium(boundaries=None),
                     "medium.boundaries: expected a list, got None",
                     id="null-boundaries"),
        pytest.param("imaging", dict(_imaging(), scatterers=5),
                     "imaging.scatterers: expected a list, got 5",
                     id="number-scatterers"),
        pytest.param("imaging", _imaging(x=5),
                     "imaging.grid.x: expected a list, got 5",
                     id="number-grid-x"),
        pytest.param("imaging", _imaging(z=None),
                     "imaging.grid.z: expected a list, got None",
                     id="null-grid-z"),
        pytest.param("solver", {"max_newton_iters": None},
                     "solver.max_newton_iters: expected an integer >= 0, "
                     "got None", id="null-newton-iters"),
        pytest.param("solver", {"max_newton_iters": 2.5},
                     "solver.max_newton_iters: expected an integer >= 0, "
                     "got 2.5", id="fractional-newton-iters"),
        pytest.param("solver", {"max_backtracks": -1},
                     "solver.max_backtracks: expected an integer >= 0, "
                     "got -1", id="negative-backtracks"),
        pytest.param("solver", {"tol_residual": None},
                     "solver.tol_residual: expected a number, got None",
                     id="null-tolerance"),
        pytest.param("imaging", dict(_imaging(), sample_rate_hz=-4e7),
                     "imaging.sample_rate_hz: -40000000.0 Hz is not above "
                     "0.0 Hz", id="negative-sample-rate"),
        # A field of None replaces several top-level blocks at once.
        pytest.param(None, {"pulse": {"center_frequency_hz": 5e6},
                            "imaging": dict(_imaging(), sample_rate_hz=1e6)},
                     "imaging.sample_rate_hz: 1000000.0 Hz is not above "
                     "16000000.0 Hz", id="sample-rate-below-pulse-band"),
        # The shooting stage always runs; the strict schema rejects the
        # retired switch rather than ignoring it.
        pytest.param("solver", {"bisection_fallback": True},
                     "solver: unknown keys ['bisection_fallback']",
                     id="retired-fallback"),
        # Without a scatterer a beamform would solve a ToF map and then find
        # that no element reaches any scatterer.
        pytest.param("imaging", dict(_imaging(), scatterers=[]),
                     "imaging.scatterers: need at least one scatterer",
                     id="empty-scatterers"),
    ])
    def test_scenario_document_exit_2(self, capsys, tmp_path, field, value,
                                      message):
        path = tmp_path / "doc.json"
        blocks = value if field is None else {field: value}
        path.write_text(json.dumps(dict(MINIMAL, **blocks)))
        code, out, err = run(capsys, "solve", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == json.dumps({"error": "ScenarioError",
                                  "message": message}, sort_keys=True) + "\n"


@pytest.fixture(scope="class")
def cold_homogeneous(tmp_path_factory):
    """The directory of a cold goat beamform of the homogeneous fixture
    (32 elements), prefix ``bf``."""
    path = tmp_path_factory.mktemp("cold")
    assert main(["beamform", "--scenario", "homogeneous", "--engine", "goat",
                 "--out", str(path / "bf")]) == 0
    return path


def _bad_cache(kind, cold, path):
    """Write a bad channel cache at ``path``; returns the scenario that
    reuses it and the end of the error message."""
    cache = (cold / "bf_channels.goatcd").read_bytes()
    if kind == "elements":
        path.write_bytes(cache)
        return "proxon", ("cached channels are 32 transmits x 32 receivers, "
                          "the scenario's array has 64 elements")
    if kind == "sample_rate":
        write_channels(ChannelDataSet(np.zeros((32, 32, 16)), 5e7), path)
        return "homogeneous", ("cached sample rate 50000000.0 Hz, the "
                               "scenario's is 100000000.0 Hz")
    if kind == "truncated":
        path.write_bytes(cache[:-1000])
        return "homogeneous", "the header gives 32 x 32 x"
    if kind == "scenario":
        # The same array and sample rate, the scatterer moved by 3 mm.
        doc = json.loads(
            (files("goatfocus") / "fixtures" / "homogeneous.json").read_text())
        doc["imaging"]["scatterers"][0][0] += 3.0
        moved = cold / "moved_scatterer.json"
        moved.write_text(json.dumps(doc))
        path.write_bytes(cache)
        return str(moved), (f"cached channels are from "
                            f"{load('homogeneous').provenance!r}, the "
                            f"scenario is {load(str(moved)).provenance!r}")
    path.write_bytes(b"P5\n# not channels\n")
    return "homogeneous", "not a channel data file (bad magic b'P5\\n# not')"


class TestCmdBeamform:
    def test_cached_run_matches_cold_run(self, capsys, tmp_path,
                                         cold_homogeneous):
        # A cold run images from the float32 samples it wrote; a run from
        # that cache reads them back and must write the same artifacts.
        (tmp_path / "bf_channels.goatcd").write_bytes(
            (cold_homogeneous / "bf_channels.goatcd").read_bytes())
        code, _, _ = run(capsys, "beamform", "--scenario", "homogeneous",
                         "--engine", "goat", "--out", str(tmp_path / "bf"))
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("bf_goat*"))
        assert names == sorted(p.name for p in
                               cold_homogeneous.glob("bf_goat*"))
        assert {"bf_goat.pgm", "bf_goat.json", "bf_goat_roi00.csv"} <= set(names)
        for name in names:
            assert ((tmp_path / name).read_bytes()
                    == (cold_homogeneous / name).read_bytes()), name

    @pytest.mark.parametrize("kind", ["elements", "sample_rate", "truncated",
                                      "magic", "scenario"])
    def test_bad_cache_exit_5(self, capsys, tmp_path, cold_homogeneous, kind):
        path = tmp_path / "bf_channels.goatcd"
        scenario, tail = _bad_cache(kind, cold_homogeneous, path)
        code, out, err = run(capsys, "beamform", "--scenario", scenario,
                             "--engine", "goat", "--out", str(tmp_path / "bf"))
        assert (code, out) == (5, "")
        report = json.loads(err)
        assert report["error"] == "ChannelFileError"
        assert report["message"].startswith(f"{path}: ")
        assert tail in report["message"]
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize("size", ["0", "-4", "nan", "inf"])
    def test_bad_roi_size_exit_2(self, capsys, tmp_path, size):
        # Rejected before any synthesis, so no channel cache is written.
        code, out, err = run(capsys, "beamform", "--scenario", "homogeneous",
                             "--engine", "goat", "--out", str(tmp_path / "bf"),
                             "--roi-size", size)
        assert (code, out) == (2, "")
        assert err == json.dumps({"error": "ScenarioError",
                                  "message": "--roi-size must be positive and "
                                             f"finite, got {float(size)}"},
                                 sort_keys=True) + "\n"
        assert list(tmp_path.glob("*_channels.goatcd")) == []

    def test_homogeneous_engines_byte_identical(self, capsys, tmp_path):
        prefix = str(tmp_path / "bf")
        for engine in ("goat", "hmfa"):
            code, _, _ = run(capsys, "beamform", "--scenario", "homogeneous",
                             "--engine", engine, "--out", prefix)
            assert code == 0
        img_g = (tmp_path / "bf_goat.pgm").read_bytes()
        img_h = (tmp_path / "bf_hmfa.pgm").read_bytes()
        assert img_g == img_h

    def test_cold_run_solves_scatterers_once(self, capsys, tmp_path,
                                              monkeypatch):
        import goatfocus.batch
        import goatfocus.imaging
        shapes = []
        real = goatfocus.batch.tof_maps

        def counting(medium, sources, tx, tz, *args, **kwargs):
            shapes.append(np.shape(tx))
            return real(medium, sources, tx, tz, *args, **kwargs)

        monkeypatch.setattr(goatfocus.batch, "tof_maps", counting)
        monkeypatch.setattr(goatfocus.imaging, "tof_maps", counting)
        code, _, _ = run(capsys, "beamform", "--scenario", "homogeneous",
                         "--engine", "hmfa", "--out", str(tmp_path / "bf"))
        assert code == 0
        # hmfa's ToF table is one call more; the scatterers are solved once.
        n_scatterers = len(load("homogeneous").imaging.scatterers)
        assert shapes.count((n_scatterers,)) == 1

    def test_no_reachable_scatterer_exit_4(self, capsys, tmp_path):
        prefix = tmp_path / "bf"
        code, out, err = run(capsys, "beamform", "--scenario",
                             _unreachable(tmp_path), "--engine", "goat",
                             "--out", str(prefix))
        assert (code, out) == (4, "")
        assert err == json.dumps({"error": "NoTransmittedPathError",
                                  "message": "no element reaches any "
                                             "scatterer"}, sort_keys=True) + "\n"
        assert list(tmp_path.glob("bf*")) == []

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        prefix = str(tmp_path / "bf")
        run(capsys, "beamform", "--scenario", "homogeneous",
            "--engine", "goat", "--out", prefix)
        first = (tmp_path / "bf_goat.pgm").read_bytes()
        ch_first = (tmp_path / "bf_channels.goatcd").read_bytes()
        run(capsys, "beamform", "--scenario", "homogeneous",
            "--engine", "goat", "--out", prefix)
        assert (tmp_path / "bf_goat.pgm").read_bytes() == first
        assert (tmp_path / "bf_channels.goatcd").read_bytes() == ch_first

    def test_image_independent_of_threads(self, capsys, tmp_path):
        # A refracting medium, so the goat delays come from the row Newton,
        # and two workers, so the delay-and-sum runs on two pixel slices.
        scn = json.loads((files("goatfocus") / "fixtures" /
                          "homogeneous.json").read_text())
        scn["medium"]["speeds"] = [1400.0, 1540.0]
        path = tmp_path / "slow_layer.json"
        path.write_text(json.dumps(scn))
        images = []
        for threads in ("1", "2"):
            prefix = str(tmp_path / f"t{threads}")
            code, _, _ = run(capsys, "--threads", threads, "beamform",
                             "--scenario", str(path), "--engine", "goat",
                             "--out", prefix)
            assert code == 0
            images.append((tmp_path / f"t{threads}_goat.pgm").read_bytes())
        assert images[0] == images[1]

    def test_threads_reach_every_pool(self, capsys, tmp_path, monkeypatch):
        # A dropped worker count runs serial with the same output, which no
        # byte comparison catches; record what each pool is given instead.
        import goatfocus.batch
        import goatfocus.imaging
        seen = []

        def record(module, name):
            real = getattr(module, name)
            sig = inspect.signature(real)

            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                seen.append((f"{module.__name__}.{name}",
                             bound.arguments["workers"]))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        record(goatfocus.batch, "tof_maps")
        record(goatfocus.imaging, "tof_maps")
        record(goatfocus.imaging, "_das_sum")
        code, _, _ = run(capsys, "--threads", "3", "beamform", "--scenario",
                         "homogeneous", "--engine", "goat",
                         "--out", str(tmp_path / "bf"))
        assert code == 0
        assert seen == [("goatfocus.batch.tof_maps", 3),
                        ("goatfocus.imaging.tof_maps", 3),
                        ("goatfocus.imaging._das_sum", 3)]

    def test_cold_run_holds_no_channel_set(self, capsys, tmp_path):
        # proxon's float32 channel set is 64 x 64 x 4563 samples, 74.8 MB.
        # A cold run synthesizes, writes and sums it one block at a time,
        # after its ToF maps, so the traced peak stays below the set.
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "--threads", "2", "beamform",
                             "--scenario", "proxon", "--engine", "goat",
                             "--out", str(tmp_path / "bf"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        cube = 64 * 64 * 4563 * 4
        assert os.path.getsize(tmp_path / "bf_channels.goatcd") > cube
        assert peak < cube

    def test_failed_stream_leaves_no_cache(self, capsys, tmp_path,
                                           monkeypatch):
        # A cold run that fails in its third block writes no channel file,
        # partial or whole, and the rerun writes the collected set's bytes.
        real = cli.stream_channels

        def failing(*args, **kwargs):
            stream = real(*args, **kwargs)

            def blocks():
                for n, block in enumerate(stream.blocks):
                    if n == 2:
                        raise OSError("no space left on device")
                    yield block

            return dataclasses.replace(stream, blocks=blocks())

        monkeypatch.setattr(cli, "stream_channels", failing)
        argv = ("beamform", "--scenario", "homogeneous", "--engine", "goat",
                "--out", str(tmp_path / "bf"))
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert json.loads(err)["error"] == "OSError"
        assert os.listdir(tmp_path) == []
        monkeypatch.setattr(cli, "stream_channels", real)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        cached = tmp_path / "bf_channels.goatcd"
        scn = load("homogeneous")
        back = read_channels(cached)
        fs = scn.imaging.sample_rate
        want = synthesize_channels(scn.medium, scn.array,
                                   scn.imaging.scatterers, scn.pulse, fs,
                                   back.n_samples / fs, back.t0, scn.solver)
        write_channels(want, tmp_path / "want.goatcd", scn.provenance)
        assert cached.read_bytes() == (tmp_path / "want.goatcd").read_bytes()

    def test_metadata_and_profiles_written(self, capsys, tmp_path):
        prefix = str(tmp_path / "bf")
        code, out, _ = run(capsys, "beamform", "--scenario", "homogeneous",
                           "--engine", "goat", "--out", prefix)
        assert code == 0
        rep = json.loads(out)
        meta = json.loads((tmp_path / "bf_goat.json").read_text())
        assert meta["engine"] == "goat"
        assert meta["scale"] == "db"
        assert rep["profiles"][0]["fwhm_m"] > 0


def test_cli_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(goatfocus.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, goatfocus.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_package_has_no_global_statements():
    # A function that rebinds module state changes every later caller in the
    # process; settings such as the worker count are passed as arguments.
    root = Path(goatfocus.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Global)]
    assert found == []
