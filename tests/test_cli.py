"""Command-line interface, exercised through ``main(argv)``."""

import json

import numpy as np
import pytest

from twmotor import cli, sweep
from twmotor.config import ConfigError, phase_degrees_to_radians


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
