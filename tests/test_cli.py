"""Command-line interface, exercised through ``main(argv)``."""

import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import twmotor
from twmotor import cli, dynamics, runner, sweep
from twmotor.config import ConfigError, RunConfig, phase_degrees_to_radians


def run_cli(*argv):
    return cli.main(list(argv))


def strict_json(path):
    """Parse an artifact, rejecting the non-standard NaN and Infinity."""
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(path.read_text(), parse_constant=reject)


class TestPhaseParsing:
    def test_minus_ninety(self):
        import math
        assert phase_degrees_to_radians("-90deg") == pytest.approx(-math.pi / 2)

    def test_bare_number(self):
        import math
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

    def test_too_short_run_refused_before_stepping(self, tmp_path, capsys, monkeypatch):
        """Below two settling windows a run is a config error naming the
        setting, raised before the step loop and with no artifact written."""
        def no_stepping(*args, **kwargs):
            raise AssertionError("the transient was stepped")

        monkeypatch.setattr(dynamics, "simulate_batch", no_stepping)
        code = run_cli("run", "--out-dir", str(tmp_path), "--duration", "2e-4")
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "error: simulation.duration (--duration) 0.0002 s is shorter than two "
            "settling windows")
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

    def test_peak_is_strict_json(self, tmp_path, capsys, monkeypatch):
        nan_peak = sweep.PeakReport(param=0.4, torque=float("nan"),
                                    unimodal=True, boundary_maximum=False)
        monkeypatch.setattr(sweep, "find_peak", lambda curve: nan_peak)
        run_cli("sweep", "--out-dir", str(tmp_path), "--param", "cof",
                "--values", "0.3:0.5:0.1", "--duration", "6e-4")
        assert strict_json(tmp_path / "peak.json")["torque"] is None

    def test_failed_rows_still_written(self, tmp_path, capsys):
        """Rows too short to post-process fail; the sweep does not abort."""
        code = run_cli("sweep", "--out-dir", str(tmp_path), "--param", "cof",
                       "--values", "0.3:0.5:0.1", "--duration", "4e-4")
        assert code == cli.EXIT_DIVERGED
        assert "every sweep row failed" in capsys.readouterr().err
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert all(line.endswith(",0,0,series shorter than two windows")
                   for line in lines[1:])

    def test_missing_grid_args(self, tmp_path, capsys):
        code = run_cli("sweep", "--out-dir", str(tmp_path))
        assert code == cli.EXIT_CONFIG
        assert "preset" in capsys.readouterr().err

    def test_bad_grid_string(self, tmp_path, capsys):
        code = run_cli("sweep", "--out-dir", str(tmp_path),
                       "--param", "cof", "--values", "oops")
        assert code == cli.EXIT_CONFIG

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

    def test_unknown_material(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"stator_material": "Unobtainium"}')
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        out = capsys.readouterr().out
        assert "unknown material 'Unobtainium'" in out
        assert "catalog has: " in out

    @pytest.mark.parametrize("entry, message", [
        ({"stator_material": "PZT-5H"}, "stator material must be isotropic"),
        ({"piezo_material": "Copper"}, "piezo material must carry full matrix data"),
    ], ids=["stator", "piezo"])
    def test_wrong_kind_of_material(self, tmp_path, capsys, entry, message):
        """Rejected as every other subcommand rejects it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().out
        assert run_cli("eigen", "--config", str(cfg),
                       "--out-dir", str(tmp_path)) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ([1, 2], "material entry must be a catalog name or an object, not list"),
        ({"name": "Resin", "density": 1200.0, "poisson_ratio": None,
          "youngs_modulus": 3e9}, "material entry has a field of the wrong type"),
    ], ids=["array", "null-field"])
    def test_malformed_material_entry(self, tmp_path, capsys, entry, message):
        """A config error with one message line, not a traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stator_material": entry}))
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith(f"invalid: {message}")
        assert run_cli("run", "--config", str(cfg),
                       "--out-dir", str(tmp_path)) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")

    @pytest.mark.parametrize("field, value, message", [
        ("density", "abc", "could not convert string to float: 'abc'"),
        ("poisson_ratio", 0.7, "X: Poisson ratio must lie in (0, 0.5)"),
    ], ids=["unparsable", "out-of-range"])
    def test_invalid_material_value(self, tmp_path, capsys, field, value, message):
        """Listed as a problem naming the entry, like every other material error."""
        entry = {"name": "X", "density": 7800.0, "poisson_ratio": 0.3,
                 "youngs_modulus": 1e11, field: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stator_material": entry}))
        expected = f"material entry stator_material has an invalid value: {message}"
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [f"invalid: {expected}"]
        assert captured.err == ""
        for command in ("run", "eigen"):
            assert run_cli(command, "--config", str(cfg),
                           "--out-dir", str(tmp_path)) == cli.EXIT_CONFIG
            assert capsys.readouterr().err.splitlines() == [f"error: {expected}"]

    def test_unresolved_mode_pair(self, tmp_path, capsys):
        """Too few modes for the drive pair: rejected as ``eigen`` rejects it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mesh": {"modes": 5}}))
        message = "mode pair n=4 not resolved"
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().out
        assert run_cli("eigen", "--config", str(cfg),
                       "--out-dir", str(tmp_path)) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_too_short_run(self, tmp_path, capsys):
        """Reported with the message ``run`` refuses the config with."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulation": {"duration": 2e-4}}))
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("invalid: simulation.duration (--duration)")
        assert run_cli("run", "--config", str(cfg),
                       "--out-dir", str(tmp_path)) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"error: {out[0][9:]}"]

    def test_coarse_mesh(self, tmp_path, capsys):
        """The mesh-density rule has one owner: ``validate`` reports the
        message ``run`` and ``eigen`` reject the config with."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mesh": {"n_elements": 16}}))
        message = "n_elements=16 too coarse for n=4 nodal diameters; need at least 32"
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        assert capsys.readouterr().out.splitlines() == [f"invalid: {message}"]
        for command in ("run", "eigen"):
            assert run_cli(command, "--config", str(cfg),
                           "--out-dir", str(tmp_path)) == cli.EXIT_CONFIG
            assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

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
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        assert capsys.readouterr().out.splitlines() == [f"invalid: {message}"]
        assert run_cli("run", "--config", str(cfg),
                       "--out-dir", str(tmp_path)) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


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

    def test_asymmetric_piezo_elasticity(self, tmp_path, capsys):
        """A given lower triangle must mirror the upper one; it is not
        silently overwritten."""
        pzt = twmotor.lookup("PZT-5H")
        elasticity = pzt.elasticity.copy()
        elasticity[1, 0] = 5e10
        entry = {"name": "PZT-X", "density": pzt.density,
                 "elasticity": elasticity.ravel().tolist(),
                 "coupling": pzt.coupling.ravel().tolist(),
                 "relative_permittivity": pzt.relative_permittivity.ravel().tolist()}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"piezo_material": entry}))
        expected = ("material entry piezo_material has an invalid value: PZT-X: "
                    "elasticity (2,1) = 5e+10 differs from (1,2) = 8.02122e+10; "
                    "give a symmetric matrix or its upper triangle alone")
        assert run_cli("validate", "--config", str(cfg)) == cli.EXIT_CONFIG
        assert capsys.readouterr().out.splitlines() == [f"invalid: {expected}"]
        assert run_cli("run", "--config", str(cfg),
                       "--out-dir", str(tmp_path)) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [f"error: {expected}"]


class TestNonFiniteNumbers:
    """A NaN or infinite number is a config error naming its key, whether it
    comes from the config file, an inline material entry or a flag."""

    @pytest.mark.parametrize("config, flags, key, value", [
        ('{"rotor": {"preload": NaN}}', ["validate"], "rotor.preload", "nan"),
        ('{"simulation": {"duration": Infinity}}', ["validate"],
         "simulation.duration", "inf"),
        ('{"stator_material": {"name": "X", "density": 7800.0, "poisson_ratio": 0.3,'
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


class TestImports:
    """The commands load NumPy and the standard library alone, in a fresh
    interpreter: SciPy is never imported and the process pool only when a
    sweep asks for workers."""

    @staticmethod
    def python(code, *args, cwd, **env_vars):
        env = dict(os.environ, **env_vars)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_cli_import_loads_no_scipy_and_no_pool(self, tmp_path):
        proc = self.python(
            "import sys, twmotor.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
            " or m == 'concurrent.futures.process'))", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_exported_names_resolve(self):
        """Every name in a module's ``__all__``, and every name the package
        imports into itself, exists."""
        package = Path(twmotor.__file__).parent
        missing = []
        for info in pkgutil.iter_modules([str(package)]):
            module = importlib.import_module(f"twmotor.{info.name}")
            missing += [f"twmotor.{info.name}.{name}"
                        for name in getattr(module, "__all__", ())
                        if not hasattr(module, name)]
        for node in ast.walk(ast.parse((package / "__init__.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                missing += [f"twmotor.{alias.asname or alias.name}" for alias in node.names
                            if not hasattr(twmotor, alias.asname or alias.name)]
        assert missing == []

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
