"""Sweep harness: grids, presets, peak detection.

Real simulations only appear in the short end-to-end sweep; everything
else is exercised with synthetic curves.
"""

import csv

import numpy as np
import pytest

from twmotor.config import ConfigError, RunConfig
from twmotor.sweep import (
    PRESET_NAMES,
    SweepCurve,
    SweepRow,
    SweepSpec,
    find_peak,
    grams_to_newtons,
    make_preset,
    run_sweep,
)


def curve_from(params, torques, settled=None):
    settled = settled or [True] * len(params)
    rows = tuple(SweepRow(param=p, torque=q, speed=0.0, t_ss=1e-3, settled=s)
                 for p, q, s in zip(params, torques, settled))
    return SweepCurve(parameter="preload_N", rows=rows)


class TestGramsToNewtons:
    def test_kilogram(self):
        assert grams_to_newtons(1000.0) == pytest.approx(9.80665)

    def test_zero(self):
        assert grams_to_newtons(0.0) == 0.0

    def test_five_kilograms(self):
        assert grams_to_newtons(5000.0) == pytest.approx(49.03325)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            grams_to_newtons(-1.0)

    def test_linear(self):
        assert grams_to_newtons(300.0) == pytest.approx(3 * grams_to_newtons(100.0))


class TestSweepSpec:
    def test_too_few_values(self):
        with pytest.raises(ValueError, match="3"):
            SweepSpec("preload_N", (25.0, 50.0))

    def test_unordered_values(self):
        with pytest.raises(ValueError, match="ascending"):
            SweepSpec("preload_N", (25.0, 75.0, 50.0))

    def test_cof_domain(self):
        with pytest.raises(ValueError):
            SweepSpec("cof", (0.1, 0.5, 2.5))

    def test_negative_preload_domain(self):
        with pytest.raises(ValueError):
            SweepSpec("preload_N", (-10.0, 20.0, 30.0))

    def test_config_for_sets_parameter(self):
        spec = SweepSpec("cof", (0.1, 0.2, 0.3))
        assert spec.config_for(0.2).contact.cof == 0.2

    def test_config_for_preload_grams(self):
        spec = SweepSpec("preload_g", (100.0, 200.0, 300.0))
        cfg = spec.config_for(200.0)
        assert cfg.rotor.preload == pytest.approx(grams_to_newtons(200.0))


class TestPresets:
    def test_names(self):
        assert set(PRESET_NAMES) == {"usr30_preload", "usr60_preload",
                                     "ultem_preload_g", "cof_sweep"}

    def test_usr30_grid(self):
        spec = make_preset("usr30_preload")
        assert spec.values[0] == 25.0
        assert spec.values[-1] == 250.0
        np.testing.assert_allclose(np.diff(spec.values), 25.0)

    def test_usr60_grid(self):
        spec = make_preset("usr60_preload")
        assert len(spec.values) == 20
        assert spec.values[-1] == 500.0

    def test_ultem_grid_log_spaced(self):
        spec = make_preset("ultem_preload_g")
        assert len(spec.values) == 20
        assert spec.values[0] == pytest.approx(20.0)
        assert spec.values[-1] == pytest.approx(5000.0)
        ratios = np.diff(np.log(spec.values))
        np.testing.assert_allclose(ratios, ratios[0])
        assert spec.base.stator_material == "Ultem 1000"

    def test_cof_grid(self):
        spec = make_preset("cof_sweep")
        assert spec.values[0] == pytest.approx(0.05)
        assert spec.values[-1] == pytest.approx(0.60)
        assert len(spec.values) == 12

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            make_preset("usr90")


class TestFindPeak:
    def test_simple_interior_peak(self):
        pk = find_peak(curve_from([1.0, 2.0, 3.0], [0.1, 0.3, 0.2]))
        assert (pk.param, pk.torque) == (2.0, 0.3)
        assert pk.unimodal
        assert not pk.boundary_maximum

    def test_monotone_flags_boundary(self):
        pk = find_peak(curve_from([1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4]))
        assert pk.boundary_maximum
        assert pk.param == 4

    def test_two_humps_not_unimodal(self):
        pk = find_peak(curve_from([1, 2, 3, 4, 5], [0.1, 0.3, 0.2, 0.4, 0.1]))
        assert not pk.unimodal

    def test_rescaling_invariance(self):
        torques = [0.05, 0.21, 0.17, 0.08]
        a = find_peak(curve_from([1, 2, 3, 4], torques))
        b = find_peak(curve_from([1, 2, 3, 4], [37.0 * q for q in torques]))
        assert a.param == b.param
        assert a.unimodal == b.unimodal

    def test_unsettled_rows_excluded(self):
        pk = find_peak(curve_from([1, 2, 3, 4], [0.1, 9.9, 0.3, 0.2],
                                  settled=[True, False, True, True]))
        assert pk.param == 3

    def test_all_unsettled_rejected(self):
        with pytest.raises(ValueError, match="settled"):
            find_peak(curve_from([1, 2, 3], [0.1, 0.2, 0.3],
                                 settled=[False, False, False]))


@pytest.fixture(scope="module")
def short_base():
    return RunConfig().override(simulation={"duration": 2e-3})


@pytest.fixture(scope="module")
def small_curve(short_base):
    spec = SweepSpec("preload_N", (40.0, 80.0, 120.0), base=short_base)
    return spec, run_sweep(spec, jobs=3)


class TestRunSweep:
    """Short real sweeps; 2 ms transients keep these quick."""

    def test_rows_ordered_like_values(self, small_curve):
        spec, curve = small_curve
        assert tuple(r.param for r in curve.rows) == spec.values

    def test_rows_match_individual_runs(self, small_curve, short_base):
        """A sweep row equals the same value run on its own, bitwise."""
        from twmotor import runner
        spec, curve = small_curve
        _, summary = runner.run_motor(spec.config_for(80.0))
        row = curve.rows[1]
        assert row.torque == summary["reported_torque"]
        assert row.speed == summary["mean_speed"]

    def test_sweep_deterministic_across_job_counts(self, small_curve):
        spec, curve = small_curve
        again = run_sweep(spec, jobs=1)
        for a, b in zip(curve.rows, again.rows):
            assert a.torque == b.torque
            assert a.speed == b.speed

    def test_zero_cof_row_zero_torque(self, short_base):
        spec = SweepSpec("cof", (0.0, 0.2, 0.4), base=short_base)
        curve = run_sweep(spec, jobs=3)
        assert curve.rows[0].torque == 0.0

    def test_csv_export(self, small_curve, tmp_path):
        _, curve = small_curve
        path = tmp_path / "sweep.csv"
        curve.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "param,torque,speed,t_ss,settled,ok,error"
        assert len(lines) == 4

    def test_csv_quotes_error_text(self, tmp_path):
        rows = (SweepRow(param=1.0, torque=np.nan, speed=np.nan, t_ss=np.nan,
                         settled=False, ok=False, error="bad, worse"),)
        path = tmp_path / "sweep.csv"
        SweepCurve(parameter="cof", rows=rows).to_csv(path)
        with open(path, newline="") as fh:
            header, row = list(csv.reader(fh))
        assert dict(zip(header, row))["ok"] == "0"
        assert dict(zip(header, row))["error"] == "bad, worse"

    def test_row_errors_are_isolated(self):
        """A row whose step is too coarse fails alone; the rest still run."""
        base = RunConfig().override(simulation={"duration": 6e-4, "dt": 1e-7})
        curve = run_sweep(SweepSpec("frequency", (40e3, 41e3, 80e3), base=base))
        assert [r.ok for r in curve.rows] == [True, True, False]
        assert "too coarse" in curve.rows[2].error
        assert np.isfinite(curve.rows[0].speed)

    def test_post_processing_errors_fail_rows(self):
        base = RunConfig().override(simulation={"duration": 4e-4})
        curve = run_sweep(SweepSpec("cof", (0.3, 0.4, 0.5), base=base))
        assert not any(r.ok for r in curve.rows)
        assert all("shorter than two windows" in r.error for r in curve.rows)
