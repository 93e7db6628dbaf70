"""Command-line interface, exercised through ``main(argv)``."""

import argparse
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import twmotor
from twmotor import cli, contact, dynamics, runner, sweep
from twmotor.config import (ConfigError, RunConfig, _parse_record,
                            phase_degrees_to_radians)

from test_stator import analytic_frequency


# a copper-dense stator of 1e200 Pa: finite, but its pencils overflow float64
ABSURD_MATERIAL = {"name": "x", "density": 8960.0, "youngs_modulus": 1e200}


def run_cli(*argv):
    return cli.main(list(argv))


def strict_json(path):
    """Parse an artifact, rejecting the non-standard NaN and Infinity."""
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestPhaseParsing:
    def test_minus_ninety(self):
        assert phase_degrees_to_radians("-90deg") == pytest.approx(-math.pi / 2)

    def test_bare_number(self):
        assert phase_degrees_to_radians("90") == pytest.approx(math.pi / 2)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            phase_degrees_to_radians("quarter-turn")


class TestEigen:
    def test_table_and_csv(self, tmp_path, capsys):
        assert run_cli("eigen", "--out-dir", str(tmp_path)) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "drive pair n=4" in out
        lines = (tmp_path / "eigenfrequencies.csv").read_text().splitlines()
        assert lines[0] == "mode,frequency_hz,nodal_diameters,drive_pair"
        rows = [line.split(",") for line in lines[1:]]
        # rigid ring translation/rotation appear as (near-)zero-frequency modes
        assert float(rows[0][1]) < 1.0
        drive = [r for r in rows if r[3] == "1"]
        assert len(drive) == 2
        assert float(drive[0][1]) == pytest.approx(41211.55, rel=1e-3)

    def test_coarse_mesh_is_config_error(self, tmp_path, capsys):
        code = run_cli("eigen", "--out-dir", str(tmp_path), "--n-elements", "16")
        assert code == cli.EXIT_CONFIG
        assert "too coarse" in capsys.readouterr().err

    def test_short_table_still_names_the_drive_pair(self, tmp_path, capsys):
        """``--modes`` sizes the table only: five rows end below the n = 4
        pair, so none is flagged, and the pair is still reported."""
        assert run_cli("eigen", "--out-dir", str(tmp_path), "--modes", "5") == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 7        # header, 5 rows, the pair
        assert not any(line.endswith("*") for line in out[1:6])
        assert out[-1] == "drive pair n=4 at 41211.6 Hz"
        rows = [line.split(",") for line in
                (tmp_path / "eigenfrequencies.csv").read_text().splitlines()[1:]]
        assert len(rows) == 5
        assert [r[3] for r in rows] == ["0"] * 5


class TestRun:
    def test_frictionless_run(self, tmp_path, capsys):
        code = run_cli("run", "--out-dir", str(tmp_path), "--cof", "0",
                       "--duration", "2e-3")
        assert code in (cli.EXIT_OK, cli.EXIT_NOT_SETTLED)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["reported_torque"] == 0.0
        assert summary["mean_speed"] == pytest.approx(0.0, abs=1e-12)

    def test_default_run_artifacts(self, tmp_path, capsys):
        assert run_cli("run", "--out-dir", str(tmp_path)) == cli.EXIT_OK
        csv_lines = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert len(csv_lines) == 502  # header + 5 ms at 10 us output pitch
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["settled"]
        assert summary["reported_torque"] > 0
        assert summary["mean_speed"] > 0

    def test_summary_is_strict_json(self, tmp_path, capsys):
        """Too short for an envelope torque, which is written as null."""
        run_cli("run", "--out-dir", str(tmp_path), "--duration", "6e-4")
        summary = strict_json(tmp_path / "summary.json")
        assert summary["reported_torque"] is None

    def test_standing_wave_has_no_ideal_speed(self, tmp_path, capsys):
        """Channels in phase drive a standing wave, whose no-slip speed is null."""
        run_cli("run", "--out-dir", str(tmp_path), "--phase", "0deg", "--duration", "1e-3")
        summary = strict_json(tmp_path / "summary.json")
        assert summary["ideal_speed"] is None
        assert math.isfinite(summary["mean_speed"])

    def test_summary_carries_the_energy_ledger(self, tmp_path):
        """dt, the step count and the ledger, each ``EnergyReport`` field a
        flat key, as the run computed them; the ledger closes on its own."""
        run_cli("run", "--out-dir", str(tmp_path), "--duration", "1e-3")
        summary = strict_json(tmp_path / "summary.json")
        series, _ = runner.run_motor(RunConfig().override(simulation={"duration": 1e-3}))
        ledger = {k if k.startswith("energy_") else f"energy_{k}": v
                  for k, v in vars(series.energy).items()}
        assert len(ledger) == 9
        assert {k: summary[k] for k in ledger} == ledger
        inputs = (summary["energy_drive_work"] + summary["energy_preload_work"]
                  + summary["energy_load_torque_work"])
        outputs = (summary["energy_change"] + summary["energy_modal_dissipation"]
                   + summary["energy_friction_dissipation"]
                   + summary["energy_axial_dissipation"])
        assert inputs - outputs == pytest.approx(summary["energy_residual"],
                                                 abs=1e-14 * inputs)
        assert summary["energy_residual_fraction"] == pytest.approx(
            abs(summary["energy_residual"]) / summary["energy_drive_work"], rel=1e-15)
        rows = len((tmp_path / "timeseries.csv").read_text().splitlines()) - 1
        assert summary["steps"] % (rows - 1) == 0
        assert summary["steps"] * summary["dt"] == pytest.approx(1e-3, rel=1e-12)

    def test_undriven_run_has_no_residual_fraction(self, tmp_path):
        """With no drive work there is nothing to relate the residual to: the
        fraction is null, and the residual itself is still written."""
        code = run_cli("run", "--out-dir", str(tmp_path), "--voltage", "0",
                       "--duration", "1e-3")
        assert code in (cli.EXIT_OK, cli.EXIT_NOT_SETTLED)
        summary = strict_json(tmp_path / "summary.json")
        assert summary["energy_drive_work"] == 0.0
        assert summary["energy_residual_fraction"] is None
        assert 0.0 < abs(summary["energy_residual"]) < 1e-4 * summary["energy_preload_work"]

    def test_too_short_run_refused_before_stepping(self, tmp_path, capsys, monkeypatch):
        """Below two settling windows a run is a config error naming the
        setting, raised before the step loop and with no artifact written."""
        def no_stepping(*args, **kwargs):
            raise AssertionError("the transient was stepped")

        monkeypatch.setattr(contact, "evaluate_contact", no_stepping)
        code = run_cli("run", "--out-dir", str(tmp_path), "--duration", "2e-4")
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: simulation.duration (--duration) 0.0002 s is shorter than two "
            "settling windows")
        assert not (tmp_path / "timeseries.csv").exists()
        assert not (tmp_path / "summary.json").exists()

    def test_diverged_run_exits_3_and_writes_nothing(self, tmp_path, capsys):
        """A run that goes non-finite names the first non-finite entry and
        the sample times, exits 3 and writes no artifact."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"contact": {"penalty_stiffness": 1e13}}))
        code = run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code == cli.EXIT_DIVERGED
        assert capsys.readouterr().err == (
            "error: simulation diverged: q_cos non-finite at t = 3e-05 s; "
            "last valid time 2e-05 s\n")
        assert not (tmp_path / "timeseries.csv").exists()
        assert not (tmp_path / "summary.json").exists()

    def test_phase_reversal_flips_rotation(self, tmp_path):
        fwd = tmp_path / "fwd"
        rev = tmp_path / "rev"
        run_cli("run", "--out-dir", str(fwd), "--duration", "2e-3")
        run_cli("run", "--out-dir", str(rev), "--duration", "2e-3",
                "--phase=-90deg")
        sf = json.loads((fwd / "summary.json").read_text())
        sr = json.loads((rev / "summary.json").read_text())
        assert sr["mean_speed"] == pytest.approx(-sf["mean_speed"], rel=1e-6)

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"contact": {"cof": -1}}')
        code = run_cli("run", "--config", str(bad), "--out-dir", str(tmp_path))
        assert code == cli.EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_config_file_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"simulation": {"duration": 2e-3}, "contact": {"cof": 0.0}}))
        code = run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path))
        assert code in (cli.EXIT_OK, cli.EXIT_NOT_SETTLED)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["reported_torque"] == 0.0


class TestSweep:
    def test_explicit_grid(self, tmp_path, capsys):
        code = run_cli("sweep", "--out-dir", str(tmp_path),
                       "--param", "cof", "--values", "0.1:0.3:0.1",
                       "--jobs", "3", "--duration", "2e-3", "--plot")
        assert code == cli.EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,torque,speed,t_ss,settled,ok,error"
        assert len(lines) == 4
        peak = json.loads((tmp_path / "peak.json").read_text())
        assert "torque" in peak
        assert (tmp_path / "sweep.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("flags, duration", [((), 7e-3), (("--duration", "2e-3"), 2e-3)])
    def test_duration_flag_outranks_the_preset(self, tmp_path, capsys, monkeypatch, flags,
                                               duration):
        """The Ultem preset runs 7 ms unless --duration says otherwise."""
        seen = []

        def recording(spec, jobs):
            seen.append(spec.base.simulation.duration)
            return sweep.SweepCurve(parameter=spec.parameter, rows=(sweep.SweepRow(
                param=0.0, torque=0.0, speed=0.0, t_ss=0.0, settled=False, ok=False,
                error="not run"),))
        monkeypatch.setattr(sweep, "run_sweep", recording)
        run_cli("sweep", "--out-dir", str(tmp_path), "--preset", "ultem_preload_g", *flags)
        assert seen == [duration]

    def test_peak_is_strict_json(self, tmp_path, capsys, monkeypatch):
        nan_peak = {"param": 0.4, "torque": float("nan"), "unimodal": True,
                    "boundary_maximum": False}
        monkeypatch.setattr(sweep, "find_peak", lambda curve: nan_peak)
        run_cli("sweep", "--out-dir", str(tmp_path), "--param", "cof",
                "--values", "0.3:0.5:0.1", "--duration", "6e-4")
        assert strict_json(tmp_path / "peak.json")["torque"] is None

    def test_failed_rows_still_written(self, tmp_path, capsys):
        """Rows too short for a settling verdict fail; the sweep does not abort."""
        code = run_cli("sweep", "--out-dir", str(tmp_path), "--param", "cof",
                       "--values", "0.3:0.5:0.1", "--duration", "4e-4")
        assert code == cli.EXIT_DIVERGED
        assert "every sweep row failed" in capsys.readouterr().err
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert all(line.endswith(
            ",0,0,simulation.duration (--duration) 0.0004 s is shorter than two "
            "settling windows of 0.00025 s; run at least 0.0005 s") for line in lines[1:])

    def test_batch_that_raises_fails_each_of_its_rows(self, tmp_path, capsys,
                                                      monkeypatch):
        """An error of the step loop itself fails every row of its batch with
        the message; the table is still written, and exit 3 says every row failed."""
        def raising(*args, **kwargs):
            raise RuntimeError("step loop failed")

        monkeypatch.setattr(dynamics, "simulate_batch", raising)
        code = run_cli("sweep", "--out-dir", str(tmp_path), "--param", "cof",
                       "--values", "0.3:0.5:0.1")
        assert code == cli.EXIT_DIVERGED
        assert capsys.readouterr().err.splitlines() == [
            "error: every sweep row failed; first: step loop failed"]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1:] == [f"{v:.17g},nan,nan,nan,0,0,step loop failed"
                             for v in (0.3, 0.4, 0.5)]
        assert not (tmp_path / "peak.json").exists()

    def test_peak_of_too_few_settled_rows_is_an_error_record(self, tmp_path, capsys,
                                                             monkeypatch):
        """Fewer than three settled rows give no peak: ``peak.json`` holds the
        reason, ``sweep.csv`` is written and the sweep exits as not settled."""
        def two_settled(spec, jobs):
            return sweep.SweepCurve(parameter=spec.parameter, rows=tuple(
                sweep.SweepRow(param=v, torque=0.1, speed=1.0, t_ss=1e-3, settled=v < 0.5)
                for v in spec.values))

        monkeypatch.setattr(sweep, "run_sweep", two_settled)
        code = run_cli("sweep", "--out-dir", str(tmp_path), "--param", "cof",
                       "--values", "0.3:0.5:0.1")
        assert code == cli.EXIT_NOT_SETTLED
        assert strict_json(tmp_path / "peak.json") == {
            "error": "need at least 3 settled rows of finite torque, have 2"}
        assert (tmp_path / "sweep.csv").exists()

    def test_missing_grid_args(self, tmp_path, capsys):
        code = run_cli("sweep", "--out-dir", str(tmp_path))
        assert code == cli.EXIT_CONFIG
        assert "preset" in capsys.readouterr().err

    def test_bad_grid_string(self, tmp_path, capsys):
        code = run_cli("sweep", "--out-dir", str(tmp_path),
                       "--param", "cof", "--values", "oops")
        assert code == cli.EXIT_CONFIG

    def test_non_finite_grid_refused(self, tmp_path, capsys):
        """An infinite bound would grow the grid without end."""
        for values in ("0:inf:0.1", "0:1:nan", "-inf:1:0.1"):
            code = run_cli("sweep", "--out-dir", str(tmp_path), "--param", "cof",
                           f"--values={values}")
            assert code == cli.EXIT_CONFIG
            assert "finite" in capsys.readouterr().err

    def test_grid_above_the_bound_refused(self, tmp_path, capsys, monkeypatch):
        """A grid of 1e9 values is refused at once, naming the flag, before
        the stator is built."""
        monkeypatch.setattr(sweep, "run_sweep", None)
        code = run_cli("sweep", "--out-dir", str(tmp_path), "--param", "cof",
                       "--values", "0:1:1e-9")
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "error: --values 0:1:1e-09 holds more than 4096 values"]
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_refused(self, tmp_path, capsys, monkeypatch, jobs):
        """Refused before the stator is built, with the flag named."""
        monkeypatch.setattr(sweep, "run_sweep", None)
        code = run_cli("sweep", "--out-dir", str(tmp_path), "--param", "cof",
                       "--values", "0.3:0.5:0.1", "--jobs", jobs)
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: --jobs must be >= 1, not {jobs}"]
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("flags", [("--param", "voltage"), ("--values", "1:3:1"),
                                       ("--param", "voltage", "--values", "1:3:1")],
                             ids=["param", "values", "both"])
    def test_preset_refuses_a_grid_of_flags(self, tmp_path, capsys, monkeypatch, flags):
        """A preset's grid is its own; a --param or --values beside it is
        refused before the stator is built, not dropped."""
        monkeypatch.setattr(sweep, "run_sweep", None)
        code = run_cli("sweep", "--out-dir", str(tmp_path), "--preset", "cof_sweep", *flags)
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "error: --preset sets its own grid; drop --param and --values"]
        assert not (tmp_path / "sweep.csv").exists()

    def test_grid_parser(self):
        assert cli._parse_grid("25:100:25") == (25.0, 50.0, 75.0, 100.0)
        with pytest.raises(ConfigError):
            cli._parse_grid("10:5:1")


class TestRoughness:
    def test_report(self, tmp_path, capsys):
        scan = tmp_path / "scan.csv"
        scan.write_text("0,1,0\n1,0,1\n0,1,0\n")
        out = tmp_path / "report.json"
        code = run_cli("roughness", str(scan), "--dx", "1", "--dy", "1",
                       "--out", str(out))
        assert code == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert report["samples"][0]["label"] == "scan.csv"
        assert report["mean_Sa"] > 0

    def test_report_is_strict_json(self, tmp_path, capsys):
        """A flat map's undefined moments, and numbers that overflow to
        infinity, are written as null."""
        flat = tmp_path / "flat.csv"
        flat.write_text("1,1,1\n1,1,1\n1,1,1\n")
        huge = tmp_path / "huge.csv"
        huge.write_text("1e200,-3e200,2e200\n-1e200,4e200,0\n2e200,0,-1e200\n")
        out = tmp_path / "report.json"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("roughness", str(flat), str(huge), "--dx", "1", "--dy", "1",
                           "--out", str(out))
        assert code == cli.EXIT_OK
        flat_entry, huge_entry = strict_json(out)["samples"]
        assert flat_entry["Sq"] == 0.0
        assert flat_entry["Ssk"] is None and flat_entry["Sku"] is None
        assert huge_entry["Sa"] > 0
        assert huge_entry["Sq"] is None

    def test_missing_file(self, tmp_path, capsys):
        code = run_cli("roughness", str(tmp_path / "nope.csv"),
                       "--dx", "1", "--dy", "1")
        assert code == cli.EXIT_IO
        assert "error" in capsys.readouterr().err

    def test_every_bad_map_named_and_no_report(self, tmp_path, capsys):
        """Maps are read one at a time; a failure still names every bad map
        and writes no report."""
        good = tmp_path / "good.csv"
        good.write_text("0,1,0\n1,0,1\n")
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("0,1,0\n1,0\n")
        missing = tmp_path / "nope.csv"
        out = tmp_path / "report.json"
        code = run_cli("roughness", str(good), str(missing), str(ragged), str(good),
                       "--dx", "1", "--dy", "1", "--out", str(out))
        assert code == cli.EXIT_IO
        err = capsys.readouterr().err
        assert f"error: {missing}:" in err
        assert f"error: {ragged}: {ragged}: ragged grid; row 2 has 2 cells" in err
        assert not out.exists()


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dx, dy, flag, value", [
        ("0", "1", "--dx", "0"), ("nan", "1", "--dx", "nan"),
        ("inf", "1", "--dx", "inf"), ("1", "-2", "--dy", "-2"),
    ], ids=["zero", "nan", "inf", "negative-dy"])
    def test_bad_pitch_refused_before_reading(self, tmp_path, capsys, dx, dy, flag, value):
        """A pitch that is not finite and positive is one config error,
        given before any map is read, whatever the maps hold."""
        scan = tmp_path / "scan.csv"
        scan.write_text("0,1,0\n1,0,1\n0,1,0\n")
        out = tmp_path / "report.json"
        code = run_cli("roughness", str(scan), str(scan), "--dx", dx, "--dy", dy,
                       "--out", str(out))
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: pixel pitch {flag} must be finite and > 0, not {value}"]
        assert not out.exists()


class TestValidate:
    def test_default_config_valid(self, capsys):
        assert run_cli("validate") == cli.EXIT_OK
        assert "valid" in capsys.readouterr().out

    @pytest.mark.parametrize("config, message", [
        ({"stator_material": "Unobtainium"},
         "unknown material 'Unobtainium'; catalog has: Aluminum, Copper, Epoxy, "
         "PZT-5H, Ultem 1000"),
        ({"stator_material": "PZT-5H"},
         "stator_material: 'PZT-5H' is of kind PiezoMaterial; need IsotropicMaterial"),
        ({"piezo_material": "Copper"},
         "piezo_material: 'Copper' is of kind IsotropicMaterial; need PiezoMaterial"),
        ({"stator_material": [1, 2]},
         "stator_material must be a catalog name or an object, not list"),
        ({"stator_material": {"name": "Cu2", "density": 8960, "youngs_modulus": 1.1e11,
                              "youngs_modulu": 1.0}},
         "unknown key(s) in stator_material: youngs_modulu"),
        ({"piezo_material": {"name": "PZT-X", "e31": -6.6, "elasticity": [1.0] * 36}},
         "unknown key(s) in piezo_material: elasticity"),
        ({"stator_material": {"name": "X", "density": 7800.0, "youngs_modulus": 1e11,
                              "poisson_ratio": 0.3}},
         "unknown key(s) in stator_material: poisson_ratio"),
        ({"stator_material": {"name": "X", "density": 7800.0}},
         "missing key(s) in stator_material: youngs_modulus"),
        ({"stator_material": {"name": "X", "density": "abc", "youngs_modulus": 1e11}},
         "stator_material.density must be a number, not 'abc'"),
        ({"stator_material": {"name": "X", "density": 7800.0, "youngs_modulus": None}},
         "stator_material.youngs_modulus must be a number, not None"),
        ({"stator_material": {"name": "X", "density": 0, "youngs_modulus": 1e11}},
         "stator_material.density must be > 0, not 0"),
        ({"stator_material": {"name": 3, "density": 7800, "youngs_modulus": 2e11}},
         "stator_material.name must be a string, not 3"),
    ], ids=["unknown-name", "piezo-as-stator", "isotropic-as-piezo", "array",
            "unknown-key", "removed-piezo-key", "removed-ring-key", "missing-key",
            "string-density", "null-field", "zero-density", "numeric-name"])
    def test_material_refused(self, tmp_path, capsys, config, message):
        """A material entry that is not a catalog name of its kind or a
        complete, well-typed object of its kind's fields is one config
        error naming the entry and the key, the same from every command."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for argv in (["validate"], ["run", "--out-dir", str(tmp_path)],
                     ["eigen", "--out-dir", str(tmp_path)]):
            assert run_cli(*argv, "--config", str(cfg)) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"error: {message}"]
            assert captured.out == ""
        assert not (tmp_path / "summary.json").exists()
        assert not (tmp_path / "eigenfrequencies.csv").exists()

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config {path}: No such file or directory"),
        ('{"contact": {"cof": 0.3,}}', "config {path} is not valid JSON: {json_error}"),
        ("[1, 2]", "config root must be a JSON object"),
        ('{"schema_version": 2}', "unsupported schema_version 2"),
    ], ids=["missing-file", "invalid-json", "list-root", "schema-version"])
    def test_config_file_refused(self, tmp_path, capsys, text, message):
        """A config file that cannot be read, is not JSON, is not an object
        or names another schema is a config error of its own."""
        cfg = tmp_path / "cfg.json"
        json_error = None
        if text is not None:
            cfg.write_text(text)
            try:
                json.loads(text)
            except json.JSONDecodeError as exc:
                json_error = exc
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: " + message.format(path=cfg, json_error=json_error)]

    def test_mode_count_does_not_decide(self, tmp_path, capsys):
        """The drive pair comes from its own pencil, whatever the table's
        size: five modes, below the n = 4 pair, and the default 13 modes,
        below an n = 9 pair, are both valid.  The n = 9 drive's 4.79 us
        period needs a sample interval finer than the default 10 us."""
        for config in ({"mesh": {"modes": 5}},
                       {"geometry": {"drive_nodal_diameters": 9},
                        "mesh": {"n_elements": 72},
                        "simulation": {"output_interval": 2e-6}}):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_OK
            assert capsys.readouterr().out == "configuration valid\n"

    def test_fast_drive_needs_a_finer_sample_interval(self, tmp_path, capsys):
        """At the default 10 us interval an n = 9 drive's 4.79 us period
        holds no envelope window of 2 samples: a config error naming the
        interval.  At 2 us the same motor is valid (above)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": {"drive_nodal_diameters": 9},
                                   "mesh": {"n_elements": 72}}))
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: simulation.output_interval 1e-05 s leaves fewer "
                               "than 2 samples in the drive period of 4.79")

    def test_high_order_drive_pair(self):
        """An n = 9 drive at the default 13 modes: its pair is the flexural
        ring's, within 1% of the analytic dispersion."""
        config = RunConfig().override(geometry={"drive_nodal_diameters": 9},
                                      mesh={"n_elements": 72})
        model = runner.build_stator(config)
        assert config.mesh.modes == 13
        assert model.pair.nodal_diameters == 9
        assert model.pair.frequency_hz == pytest.approx(
            analytic_frequency(config.geometry, config.stator_material, 9), rel=0.01)

    @pytest.mark.parametrize("config, start", [
        ({"simulation": {"duration": 2e-4}}, "simulation.duration (--duration)"),
        ({"simulation": {"dt": 1e-6}}, "simulation.dt 1e-06 s too coarse"),
        ({"contact": {"point_count": 8}}, "point_count=8 cannot resolve"),
    ], ids=["duration", "dt", "point_count"])
    def test_too_short_run(self, tmp_path, capsys, config, start):
        """Reported with the message ``run`` refuses the config with: a run
        too short for its verdict, a step too coarse, too few points."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == ""
        assert len(err) == 1 and err[0].startswith(f"error: {start}")
        assert run_cli("run", "--config", str(cfg),
                       "--out-dir", str(tmp_path)) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == err

    def test_coarse_mesh(self, tmp_path, capsys):
        """The mesh-density rule has one owner: ``validate`` reports the
        message ``run`` and ``eigen`` reject the config with."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mesh": {"n_elements": 16}}))
        message = "mesh.n_elements 16 too coarse for n=4 nodal diameters; need at least 32"
        for argv in (["validate"], ["run", "--out-dir", str(tmp_path)],
                     ["eigen", "--out-dir", str(tmp_path)]):
            assert run_cli(*argv, "--config", str(cfg)) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"error: {message}"]
            assert captured.out == ""

    @pytest.mark.parametrize("config, key", [
        ({"mesh": {"n_elements": 2 ** 20 + 1}}, "mesh.n_elements"),
        ({"mesh": {"modes": 0}}, "mesh.modes"),
        ({"mesh": {"modes": 129}}, "mesh.modes"),
        ({"simulation": {"duration": 1e4}}, "simulation.duration"),
        ({"simulation": {"duration": 1e8}}, "simulation.duration"),
        ({"simulation": {"duration": 1e300}}, "simulation.duration"),
        ({"simulation": {"dt": 1e-300}}, "simulation.dt"),
    ], ids=["n_elements", "modes-0", "modes-129", "duration-1e4", "duration-1e8",
            "duration-1e300", "dt-1e-300"])
    def test_count_too_large_refused(self, tmp_path, capsys, config, key):
        """A count the stator build or a run's buffers cannot hold, a table
        size outside 1..2N, or a step that puts more steps in a sample than
        the step loop's chunk holds, is one config error naming its key."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {key} ")

    def test_point_count_bound_in_every_motor_command(self, tmp_path, capsys,
                                                       monkeypatch):
        """A contact ring of 1e8 points, whose step buffers would need about
        190 GiB, is one config error naming its key, before a stator is built;
        the bound itself is accepted."""
        monkeypatch.setattr(runner, "build_stator", None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"contact": {"point_count": 10 ** 8}}))
        for argv in (["validate"], ["run", "--out-dir", str(tmp_path / "run")],
                     ["sweep", "--out-dir", str(tmp_path / "sweep"), "--preset", "cof_sweep"]):
            assert run_cli(*argv, "--config", str(cfg)) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "error: contact.point_count 100000000 exceeds its bound of 16384"]
            assert captured.out == ""
        monkeypatch.undo()
        cfg.write_text(json.dumps({"contact": {"point_count": 2 ** 14}}))
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_OK

    def test_run_refuses_the_sample_count_as_validate_does(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulation": {"duration": 1e300}}))
        errors = []
        for argv in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
            assert run_cli(*argv, "--config", str(cfg)) == cli.EXIT_CONFIG
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: simulation.duration (--duration) 1e+300 s")

    @pytest.mark.parametrize("section", [
        {"mean_radius": 0.015},
        {"mean_radius": 0.0125, "section_width": 0.005, "section_thickness": 0.0025},
    ], ids=["one-key", "three-keys"])
    def test_partial_geometry_section(self, tmp_path, capsys, section):
        """A geometry section replaces only the keys it names; the others keep
        the default motor's values, tooth height included."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": section}))
        expected = dataclasses.replace(RunConfig().geometry, **section)
        assert RunConfig.from_dict({"geometry": section}).geometry == expected
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_OK
        assert "valid" in capsys.readouterr().out
        short = ("--duration", "6e-4")
        assert run_cli("run", "--config", str(cfg), "--out-dir", str(tmp_path / "cfg"),
                       *short) in (cli.EXIT_OK, cli.EXIT_NOT_SETTLED)
        if expected == RunConfig().geometry:
            run_cli("run", "--out-dir", str(tmp_path / "default"), *short)
            assert (tmp_path / "cfg" / "timeseries.csv").read_bytes() \
                == (tmp_path / "default" / "timeseries.csv").read_bytes()
        else:
            assert (tmp_path / "cfg" / "summary.json").exists()


    def test_unresolvable_interface(self, tmp_path, capsys):
        """Too few contact points for the drive pair's waves: reported with
        the message ``run`` refuses the config with."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"contact": {"point_count": 12}}))
        message = "point_count=12 cannot resolve n=4 waves; need at least 16"
        for argv in (["validate"], ["run", "--out-dir", str(tmp_path)]):
            assert run_cli(*argv, "--config", str(cfg)) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"error: {message}"]
            assert captured.out == ""

    @pytest.mark.parametrize("config, key", [
        ({"stator_material": dict(ABSURD_MATERIAL, youngs_modulus=1e160)}, "youngs_modulus"),
        ({"stator_material": ABSURD_MATERIAL}, "youngs_modulus"),
        ({"stator_material": dict(ABSURD_MATERIAL, youngs_modulus=1e-300)},
         "youngs_modulus"),
        ({"stator_material": dict(ABSURD_MATERIAL, youngs_modulus=1.1e11, density=1e300)},
         "density"),
        ({"geometry": {"mean_radius": 1e300}}, "mean_radius"),
        ({"geometry": {"section_thickness": 1e-300}}, "section_thickness"),
        ({"drive": {"frequency": 1e-320}}, "drive.frequency"),
        ({"simulation": {"output_interval": 1e-320}}, "simulation.output_interval"),
        ({"simulation": {"dt": 1e-320}}, "simulation.dt"),
    ], ids=["modulus-1e160", "modulus-1e200", "modulus-1e-300", "density-1e300",
            "radius-1e300", "thickness-1e-300", "frequency", "output-interval", "dt"])
    def test_finite_input_beyond_float64_refused(self, tmp_path, capsys, config, key):
        """Finite inputs whose stator pencils or grid counts leave float64's
        range are one config error naming the key, with no warning."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and key in line

    def test_absurd_material_refused_by_every_motor_command(self, tmp_path, capsys,
                                                            monkeypatch):
        """A 1e200 Pa stator is the same config error from ``run``, ``eigen``
        and ``sweep``, and the sweep refuses it before any row is stepped."""
        def no_stepping(*args, **kwargs):
            raise AssertionError("a row was stepped")

        monkeypatch.setattr(dynamics, "simulate_batch", no_stepping)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stator_material": ABSURD_MATERIAL}))
        errors = []
        out = ["--out-dir", str(tmp_path / "out")]
        for argv in (["validate"], ["run", *out], ["eigen", *out],
                     ["sweep", *out, "--param", "cof", "--values", "0.3:0.5:0.1"]):
            assert run_cli(*argv, "--config", str(cfg)) == cli.EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert len(set(errors)) == 1
        assert errors[0].startswith("error: stator_material 'x' (density 8960 kg/m^3, "
                                    "youngs_modulus 1e+200 Pa)")
        assert not list((tmp_path / "out").rglob("*"))

    @pytest.mark.parametrize("config, message", [
        ({"contact": {"point_count": 128.0}},
         "contact.point_count must be an integer, not 128.0"),
        ({"geometry": {"drive_nodal_diameters": 4.0}},
         "geometry.drive_nodal_diameters must be an integer, not 4.0"),
        ({"mesh": {"modes": 13.0}}, "mesh.modes must be an integer, not 13.0"),
        ({"rotor": {"preload": "50"}}, "rotor.preload must be a number, not '50'"),
        ({"damping_ratio": True}, "damping_ratio must be a number, not True"),
    ], ids=["float-count", "float-diameters", "float-modes", "string-preload",
            "boolean-ratio"])
    def test_mistyped_value(self, tmp_path, capsys, config, message):
        """A value not of its field's type is a config error naming its key,
        from ``validate`` and from ``run``."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for argv in (["validate"], ["run", "--out-dir", str(tmp_path)]):
            assert run_cli(*argv, "--config", str(cfg)) == cli.EXIT_CONFIG
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        # integers are numbers, and null stands for a field's None
        RunConfig.from_dict({"rotor": {"preload": 60}, "drive": {"frequency": None}})


class TestNonFiniteNumbers:
    """A NaN or infinite number is a config error naming its key, whether it
    comes from the config file, an inline material entry or a flag."""

    @pytest.mark.parametrize("config, flags, key, value", [
        ('{"rotor": {"preload": NaN}}', ["validate"], "rotor.preload", "nan"),
        ('{"simulation": {"duration": Infinity}}', ["validate"],
         "simulation.duration", "inf"),
        ('{"stator_material": {"name": "X", "density": 7800.0,'
         ' "youngs_modulus": -Infinity}}', ["validate"],
         "stator_material.youngs_modulus", "-inf"),
        (None, ["run", "--cof", "nan", "--duration", "6e-4"], "contact.cof", "nan"),
    ], ids=["preload-file", "duration-file", "material-entry", "cof-flag"])
    def test_rejected_with_its_key(self, tmp_path, capsys, config, flags, key, value):
        argv = list(flags)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        if argv[0] == "run":
            argv += ["--out-dir", str(tmp_path)]
        assert run_cli(*argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            f"error: {key} must be a finite number, not {value}"]


class TestOverride:
    """``RunConfig.override``, which every flag and sweep row goes through,
    applies ``from_dict``'s rules to the config it is called on."""

    @pytest.mark.parametrize("sections, message", [
        ({"stator_material": {"density": 1000.0}},
         "missing key(s) in stator_material: name, youngs_modulus"),
        ({"contact": {"cf": 1}}, "unknown key(s) in contact: cf"),
        ({"rotor": {"preload_ramp": 1e-4}}, "unknown key(s) in rotor: preload_ramp"),
        ({"piezo_offset": 0.001}, "unknown key(s) in top level: piezo_offset"),
        ({"rotor": {"preload": "50"}}, "rotor.preload must be a number, not '50'"),
        ({"drive": None}, "section 'drive' must be an object"),
        ({"contact": {"cof": -0.1}}, "contact.cof must be >= 0"),
        ({"damping_ratio": 0}, "damping_ratio must be > 0"),
        ({"rotor": {"inertia": 0}}, "rotor.inertia must be > 0"),
        ({"rotor": {"mass": -0.01}}, "rotor.mass must be > 0"),
        ({"simulation": {"duration": 0}}, "simulation.duration must be > 0"),
        ({"simulation": {"output_interval": -1e-5}},
         "simulation.output_interval must be > 0"),
        ({"geometry": {"mean_radius": 0}}, "geometry.mean_radius must be > 0"),
        ({"geometry": {"section_width": -0.005}}, "geometry.section_width must be > 0"),
        ({"geometry": {"section_thickness": 0.0}},
         "geometry.section_thickness must be > 0"),
    ], ids=["partial-material", "unknown-key", "removed-preload-ramp",
            "removed-piezo-offset", "mistyped-value", "null-section",
            "section-range", "top-level-range", "rotor-inertia", "rotor-mass",
            "simulation-duration", "simulation-output-interval", "geometry-mean-radius",
            "geometry-section-width", "geometry-section-thickness"])
    def test_refused_as_from_dict_refuses(self, sections, message):
        for build in (RunConfig.from_dict, lambda data: RunConfig().override(**data)):
            with pytest.raises(ConfigError) as info:
                build(sections)
            assert str(info.value) == message

    def test_inline_material_and_sections_of_the_config(self):
        entry = {"name": "Brass", "density": 8500.0, "youngs_modulus": 1e11}
        config = RunConfig().override(contact={"cof": 0.3}, stator_material=entry)
        assert config == RunConfig.from_dict({"contact": {"cof": 0.3},
                                              "stator_material": entry})
        assert config.stator_material.name == "Brass"
        assert config.override(contact={"point_count": 64}).contact.cof == 0.3


DEFAULT = RunConfig()
# each config and material class, keyed to the record of it the default config holds
CONFIG_RECORDS = {type(record): record for record in (
    DEFAULT, DEFAULT.geometry, DEFAULT.mesh, DEFAULT.drive, DEFAULT.contact,
    DEFAULT.rotor, DEFAULT.simulation, DEFAULT.stator_material, DEFAULT.piezo_material)}


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in CONFIG_RECORDS for f in dataclasses.fields(cls)],
    ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_type_check_reads_each_annotation_as_declared(cls, name):
    """The parser reads a field's annotation without evaluating it; it
    must find there the kinds the evaluated annotation declares: an
    integer, a number, a string, any of them optional, or a record type,
    whose field it leaves to the record's own parser.  An annotation it
    cannot read, such as ``Optional[float]``, fails here instead of going
    unchecked."""
    hint = typing.get_type_hints(cls)[name]
    kinds = typing.get_args(hint) or (hint,)
    record = CONFIG_RECORDS[cls]

    def refusal(value):
        try:
            _parse_record({name: value}, record)
        except ConfigError as exc:
            return str(exc)
        return None

    if any(dataclasses.is_dataclass(kind) for kind in kinds):
        assert refusal(getattr(record, name)) is None
        if str in kinds:    # a material, refused as _resolve_material refuses it
            assert refusal(getattr(record, name).name) is None
            assert refusal(1.5) == f"{name} must be a catalog name or an object, not float"
        return
    if int in kinds:
        noun, accepted, refused = "an integer", [getattr(record, name)], ["1", True, 1.5]
    elif float in kinds:
        noun, accepted, refused = "a number", [1, 1.5], ["1", True]
        assert refusal(-math.inf) == f"{name} must be a finite number, not -inf"
    else:
        assert kinds == (str,)
        noun, accepted, refused = "a string", ["1"], [1, True, 1.5]
    (accepted if type(None) in kinds else refused).append(None)
    for value in accepted:
        assert refusal(value) is None
    for value in refused:
        assert refusal(value) == f"{name} must be {noun}, not {value!r}"


class TestFlagFields:
    """Each run flag sets one config field through ``FLAG_FIELDS``, in one
    ``RunConfig.override`` per command."""

    # dest: (command, flag text, section, field, value the field takes)
    SAMPLES = {
        "cof": ("run", "0.3", "contact", "cof", 0.3),
        "preload": ("run", "80", "rotor", "preload", 80.0),
        "voltage": ("run", "90", "drive", "voltage", 90.0),
        "phase": ("run", "-90deg", "drive", "phase_offset", -math.pi / 2),
        "frequency": ("run", "41000", "drive", "frequency", 41000.0),
        "duration": ("run", "2e-3", "simulation", "duration", 2e-3),
        "n_elements": ("eigen", "48", "mesh", "n_elements", 48),
        "modes": ("eigen", "9", "mesh", "modes", 9),
    }

    @pytest.mark.parametrize("dest", sorted(cli.FLAG_FIELDS))
    def test_each_flag_alone_sets_its_field(self, dest):
        command, text, section, name, value = self.SAMPLES[dest]
        flag = "--" + dest.replace("_", "-")
        config = cli._load(cli._build_parser().parse_args([command, f"{flag}={text}"]))
        assert config == RunConfig().override(**{section: {name: value}})
        assert config != RunConfig()

    def test_flags_share_one_override(self, monkeypatch):
        calls = []
        override = RunConfig.override

        def counting(config, **sections):
            calls.append(sections)
            return override(config, **sections)
        monkeypatch.setattr(RunConfig, "override", counting)
        argv = ["run", *(f"--{dest}={self.SAMPLES[dest][1]}"
                         for dest in cli.FLAG_FIELDS if self.SAMPLES[dest][0] == "run")]
        config = cli._load(cli._build_parser().parse_args(argv))
        assert len(calls) == 1
        assert config.drive.phase_offset == -math.pi / 2
        assert config.simulation.duration == 2e-3

    def test_param_choices_are_the_sweep_parameters(self):
        parser = cli._build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        param = next(a for a in commands.choices["sweep"]._actions if a.dest == "param")
        assert list(param.choices) == list(sweep.PARAMETERS)


class TestImports:
    """The commands load NumPy and the standard library alone, in a fresh
    interpreter: SciPy and ``numpy.ma`` are never imported, and the process
    pool only when a sweep asks for workers."""

    @staticmethod
    def python(code, *args, cwd, **env_vars):
        env = dict(os.environ, **env_vars)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_cli_import_loads_no_scipy_and_no_pool(self, tmp_path):
        """Nor the height-map reader, which only ``roughness`` loads."""
        proc = self.python(
            "import sys, twmotor.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
            " or m in ('concurrent.futures.process', 'twmotor.metrology')))", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_exported_names_resolve(self):
        """Every name in a module's ``__all__`` exists."""
        package = Path(twmotor.__file__).parent
        missing = []
        for info in pkgutil.iter_modules([str(package)]):
            module = importlib.import_module(f"twmotor.{info.name}")
            missing += [f"twmotor.{info.name}.{name}"
                        for name in getattr(module, "__all__", ())
                        if not hasattr(module, name)]
        assert missing == []

    def test_package_import_loads_no_submodule_and_no_numpy(self, tmp_path):
        proc = self.python(
            "import sys, twmotor\n"
            "print(twmotor.__version__, sorted(m for m in sys.modules\n"
            "      if m.startswith('twmotor.') or m.split('.')[0] == 'numpy'))", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"{twmotor.__version__} []"

    @pytest.mark.parametrize("argv", [
        ["validate"], ["eigen"], ["run", "--duration", "1.5e-3"],
    ], ids=["validate", "eigen", "run"])
    def test_commands_run_with_scipy_blocked(self, tmp_path, argv):
        """No function-level SciPy import hides behind a command."""
        proc = self.python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from twmotor import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))", *argv, cwd=tmp_path)
        assert proc.returncode == cli.EXIT_OK, proc.stderr

    @pytest.mark.parametrize("argv", [
        ["run", "--duration", "1.5e-3"],
        ["sweep", "--param", "cof", "--values", "0.3:0.5:0.1", "--duration", "1.5e-3",
         "--jobs", "1"],
    ], ids=["run", "sweep"])
    def test_motor_commands_load_no_numpy_ma(self, tmp_path, argv):
        """The torque envelope's median is not NumPy's, whose NaN check
        imports ``numpy.ma`` on first use, inside the command's time."""
        proc = self.python(
            "import sys\n"
            "from twmotor import cli\n"
            "code = cli.main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
            "sys.exit(code)", *argv, "--out-dir", str(tmp_path), cwd=tmp_path)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestNoLapack:
    """The motor path makes no LAPACK call: the stator's pencils are solved
    in closed form, and a first LAPACK call faults about 1.9 MB of library
    pages into the process."""

    @pytest.fixture
    def lapack_refused(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called on the motor path")
        for name in ("cholesky", "inv", "eigh", "eigvalsh", "solve", "svd", "det"):
            monkeypatch.setattr(np.linalg, name, refuse)

    def test_stator_transient_and_summary(self, lapack_refused):
        config = RunConfig().override(simulation={"duration": 5e-4})
        model = runner.build_stator(config)
        grid = runner.admit(config, model)
        series = dynamics.simulate(model, config.drive, config.contact, config.rotor,
                                   duration=5e-4)
        summary = runner.summarize(config, model, series, grid)
        assert summary["steps"] == (len(series) - 1) * grid[1]

    def test_eigen_command(self, lapack_refused, tmp_path, capsys):
        assert run_cli("eigen", "--out-dir", str(tmp_path)) == cli.EXIT_OK


class TestBlasThreads:
    """The drive pair and a transient carry the same bits whatever the
    OpenBLAS thread count, each in a fresh interpreter."""

    def test_stator_and_run_bits(self, tmp_path):
        code = (
            "import hashlib\n"
            "from twmotor import dynamics, runner\n"
            "from twmotor.config import RunConfig\n"
            "c = RunConfig()\n"
            "m = runner.build_stator(c)\n"
            "s = dynamics.simulate(m, c.drive, c.contact, c.rotor, duration=1.5e-3)\n"
            "print(m.pair.omega.hex(), m.pair.amp.hex())\n"
            "print(m.modes.frequencies_hz.tobytes().hex())\n"
            "cols = (s.time, s.surface_speed, s.surface_displacement, s.friction_probe,\n"
            "        s.torque, s.axial_force, s.wave_amplitude)\n"
            "print(len(s), hashlib.sha256(b''.join(a.tobytes() for a in cols)).hexdigest())\n"
        )
        runs = [TestImports.python(code, cwd=tmp_path, OPENBLAS_NUM_THREADS=threads)
                for threads in ("1", "2")]
        for proc in runs:
            assert proc.returncode == 0, proc.stderr
        assert runs[0].stdout == runs[1].stdout
