"""Sweep harness: grids, presets, peak detection.

Real simulations only appear in the short end-to-end sweep; everything
else is exercised with synthetic curves.
"""

import concurrent.futures
import csv
import math
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from twmotor import contact, dynamics, sweep
from twmotor.config import ConfigError, RunConfig
from twmotor.materials import lookup
from twmotor.sweep import (
    MAX_GRID_VALUES,
    PARAMETERS,
    PRESET_NAMES,
    SweepCurve,
    SweepRow,
    SweepSpec,
    find_peak,
    grams_to_newtons,
    inclusive_grid,
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
        """cof has one domain, ``ContactConfig``'s: any cof >= 0."""
        spec = SweepSpec("cof", (0.1, 0.5, 2.5))
        assert [spec.config_for(v) for v in spec.values] == [
            RunConfig().override(contact={"cof": v}) for v in (0.1, 0.5, 2.5)]

    @pytest.mark.parametrize("parameter, values, message", [
        ("preload_N", (-10.0, 20.0, 30.0), "preload must be >= 0"),
        ("preload_g", (-10.0, 20.0, 30.0), "mass in grams must be >= 0"),
        ("cof", (-0.1, 0.2, 0.3), "cof must be >= 0"),
        ("voltage", (-5.0, 20.0, 30.0), "voltage must be >= 0"),
        ("frequency", (0.0, 40e3, 41e3), "frequency must be > 0"),
    ], ids=["preload_N", "preload_g", "cof", "voltage", "frequency"])
    def test_value_domain(self, parameter, values, message):
        """The config types state each value's domain; the sweep asks them."""
        with pytest.raises(ValueError, match=message):
            SweepSpec(parameter, values)

    # parameter: (unit, grid, value, section, field, the field's SI value)
    SAMPLES = {
        "preload_N": ("N", (50.0, 100.0, 150.0), 100.0, "rotor", "preload", 100.0),
        "preload_g": ("g", (500.0, 1000.0, 1500.0), 1000.0, "rotor", "preload", 9.80665),
        "cof": ("-", (0.1, 0.3, 0.5), 0.3, "contact", "cof", 0.3),
        "voltage": ("V", (80.0, 90.0, 100.0), 90.0, "drive", "voltage", 90.0),
        "frequency": ("Hz", (40e3, 41e3, 42e3), 41e3, "drive", "frequency", 41e3),
    }

    @pytest.mark.parametrize("parameter", sorted(PARAMETERS))
    def test_config_for_sets_the_field_in_si_units(self, parameter):
        unit, grid, value, section, name, si = self.SAMPLES[parameter]
        assert PARAMETERS[parameter][0] == unit
        config = SweepSpec(parameter, grid).config_for(value)
        got = getattr(getattr(config, section), name)
        assert got == pytest.approx(si, rel=1e-15)
        assert config == RunConfig().override(**{section: {name: got}})
        assert config != RunConfig()

    def test_config_for_sets_parameter(self):
        spec = SweepSpec("cof", (0.1, 0.2, 0.3))
        assert spec.config_for(0.2).contact.cof == 0.2

    def test_config_for_preload_grams(self):
        spec = SweepSpec("preload_g", (100.0, 200.0, 300.0))
        cfg = spec.config_for(200.0)
        assert cfg.rotor.preload == pytest.approx(grams_to_newtons(200.0))


def loop_grid(start, stop, step):
    """The grid rule as ``--values`` once built it, one value at a time,
    stopped one value past ``MAX_GRID_VALUES``."""
    values = []
    v = start
    while v <= stop + 1e-9 * step and len(values) <= MAX_GRID_VALUES:
        values.append(round(v, 12))
        v = start + len(values) * step
    return tuple(values)


class TestInclusiveGrid:
    @given(start=st.floats(-1e6, 1e6), step=st.floats(1e-9, 1e6),
           count=st.integers(0, MAX_GRID_VALUES + 100),
           stretch=st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 1e-9, 1.0 - 1e-9]))
    @example(start=0.05, step=0.05, count=11, stretch=1.0)
    @example(start=-0.0, step=0.5, count=2, stretch=1.0)
    @example(start=0.0, step=1.0, count=MAX_GRID_VALUES - 1, stretch=1.0)
    @example(start=0.0, step=1.0, count=MAX_GRID_VALUES, stretch=1.0)
    def test_matches_the_value_by_value_loop(self, start, step, count, stretch):
        """Bit for bit the loop's values, -0.0 too, up to the bound; one value
        past it is refused, naming ``--values``."""
        stop = max(start, start + count * step * stretch)
        reference = loop_grid(start, stop, step)
        if len(reference) > MAX_GRID_VALUES:
            with pytest.raises(ConfigError, match=rf"^--values .* holds more than "
                                                  rf"{MAX_GRID_VALUES} values$"):
                inclusive_grid(start, stop, step)
        else:
            assert [v.hex() for v in inclusive_grid(start, stop, step)] \
                == [v.hex() for v in reference]

    def test_bound(self):
        """4,096 values are built; 4,097 are refused before any is built, and
        so is a grid of 1e9, at once."""
        assert MAX_GRID_VALUES == 4096
        assert inclusive_grid(1.0, 4096.0, 1.0) == tuple(float(v) for v in range(1, 4097))
        for start, stop, step in ((1.0, 4097.0, 1.0), (0.0, 1.0, 1e-9)):
            with pytest.raises(ConfigError, match="holds more than 4096 values"):
                inclusive_grid(start, stop, step)

    def test_refuses_empty_grids(self):
        for start, stop, step in ((10.0, 5.0, 1.0), (0.0, 1.0, 0.0), (0.0, 1.0, -1.0)):
            with pytest.raises(ConfigError, match="step > 0 and stop >= start"):
                inclusive_grid(start, stop, step)


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
        assert spec.base.stator_material == lookup("Ultem 1000")

    def test_ultem_rows_settle(self):
        """The first, middle and last rows of the Ultem preset settle within
        its duration, and so report a torque."""
        spec = make_preset("ultem_preload_g")
        values = spec.values[0], spec.values[len(spec.values) // 2], spec.values[-1]
        curve = run_sweep(SweepSpec(spec.parameter, values, spec.base))
        assert all(r.ok and r.settled and math.isfinite(r.torque) for r in curve.rows)

    def test_cof_grid(self):
        spec = make_preset("cof_sweep")
        assert spec.values[0] == pytest.approx(0.05)
        assert spec.values[-1] == pytest.approx(0.60)
        assert len(spec.values) == 12
        assert {0.15, 0.35, 0.6} <= set(spec.values)

    @pytest.mark.parametrize("name, start, stop, step", [
        ("usr30_preload", 25.0, 250.0, 25.0), ("usr60_preload", 25.0, 500.0, 25.0),
        ("cof_sweep", 0.05, 0.6, 0.05)])
    def test_linear_grids_are_the_values_grids(self, name, start, stop, step):
        """A linear preset steps the values ``--values start:stop:step`` does:
        cof 0.15, 0.35 and 0.6, not their np.arange neighbours."""
        assert make_preset(name).values == inclusive_grid(start, stop, step)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            make_preset("usr90")


class TestFindPeak:
    def test_simple_interior_peak(self):
        pk = find_peak(curve_from([1.0, 2.0, 3.0], [0.1, 0.3, 0.2]))
        assert (pk["param"], pk["torque"]) == (2.0, 0.3)
        assert pk["unimodal"]
        assert not pk["boundary_maximum"]

    def test_monotone_flags_boundary(self):
        pk = find_peak(curve_from([1, 2, 3, 4], [0.1, 0.2, 0.3, 0.4]))
        assert pk["boundary_maximum"]
        assert pk["param"] == 4

    def test_two_humps_not_unimodal(self):
        pk = find_peak(curve_from([1, 2, 3, 4, 5], [0.1, 0.3, 0.2, 0.4, 0.1]))
        assert not pk["unimodal"]

    def test_rescaling_invariance(self):
        torques = [0.05, 0.21, 0.17, 0.08]
        a = find_peak(curve_from([1, 2, 3, 4], torques))
        b = find_peak(curve_from([1, 2, 3, 4], [37.0 * q for q in torques]))
        assert a["param"] == b["param"]
        assert a["unimodal"] == b["unimodal"]

    def test_unsettled_rows_excluded(self):
        pk = find_peak(curve_from([1, 2, 3, 4], [0.1, 9.9, 0.3, 0.2],
                                  settled=[True, False, True, True]))
        assert pk["param"] == 3

    def test_non_finite_torque_excluded(self):
        """A settled row whose envelope torque is NaN (too few drive periods
        after settling) is not a peak; two finite rows are too few."""
        with pytest.raises(ValueError, match="3 settled rows of finite torque, have 2"):
            find_peak(curve_from([1000.0, 2000.0, 3000.0],
                                 [float("nan"), 9.4e-6, 9.6e-5]))
        pk = find_peak(curve_from([1, 2, 3, 4], [float("nan"), 0.1, 0.3, 0.2]))
        assert (pk["param"], pk["torque"], pk["boundary_maximum"]) == (3, 0.3, False)

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


@pytest.fixture
def pools(monkeypatch):
    """``ProcessPoolExecutor`` replaced by an in-process stand-in; each pool
    opened is recorded as (max_workers, tasks mapped)."""
    opened = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            opened.append((self.max_workers, len(tasks)))
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return opened


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

    def test_one_step_grid_per_run_and_row(self, short_base, monkeypatch):
        """``runner.admit``'s grid is the one the summary reads: one
        ``dynamics.step_grid`` call per run and one per sweep row."""
        from twmotor import dynamics, runner
        calls = []
        step_grid = dynamics.step_grid
        monkeypatch.setattr(dynamics, "step_grid",
                            lambda *args: calls.append(args) or step_grid(*args))
        _, summary = runner.run_motor(short_base)
        assert len(calls) == 1
        dt, steps_per_sample, count = step_grid(*calls[0])
        assert (summary["dt"], summary["steps"]) == (dt, (count - 1) * steps_per_sample)
        calls.clear()
        run_sweep(SweepSpec("preload_N", (40.0, 80.0, 120.0), base=short_base), jobs=1)
        assert len(calls) == 3

    def test_sweep_deterministic_across_job_counts(self, small_curve):
        spec, curve = small_curve
        again = run_sweep(spec, jobs=1)
        for a, b in zip(curve.rows, again.rows):
            assert a.torque == b.torque
            assert a.speed == b.speed

    def test_parts_bound_rows_times_points(self, short_base, monkeypatch):
        """A batch is split into contiguous parts of at most
        ``MAX_BATCH_POINTS`` rows x contact points.  A 4-row sweep run one
        row a part equals the unsplit sweep row for row, bitwise (a float's
        repr is exact, NaN included)."""
        spec = SweepSpec("preload_N", (40.0, 80.0, 120.0, 160.0), base=short_base)
        batches = []
        simulate_batch = dynamics.simulate_batch
        monkeypatch.setattr(dynamics, "simulate_batch", lambda stator, rows, **kw:
                            batches.append(len(rows)) or simulate_batch(stator, rows, **kw))
        whole = run_sweep(spec, jobs=1)
        monkeypatch.setattr(sweep, "MAX_BATCH_POINTS", short_base.contact.point_count)
        split = run_sweep(spec, jobs=1)
        assert batches == [4, 1, 1, 1, 1]
        assert repr(split.rows) == repr(whole.rows)

    @pytest.mark.parametrize("cpus, opened", [(2, [(2, 2)]), (1, [])])
    def test_jobs_capped_at_the_usable_cpus(self, small_curve, pools, monkeypatch, cpus,
                                            opened):
        """64 jobs on 2 usable CPUs split the batch into 2 parts on a pool of
        2 workers; on 1 CPU the rows run in this process.  The rows are the
        same bitwise."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        spec, curve = small_curve
        again = run_sweep(spec, jobs=64)
        assert pools == opened
        for a, b in zip(curve.rows, again.rows):
            assert (a.torque, a.speed) == (b.torque, b.speed)

    def test_cpu_count_where_there_is_no_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert sweep._usable_cpus() == 3

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
        """A row whose step is too coarse fails alone; the rest still run:
        2e-7 s is within 1/(100 f) at 40 and 41 kHz, not at 80 kHz."""
        base = RunConfig().override(simulation={"duration": 6e-4, "dt": 2e-7})
        curve = run_sweep(SweepSpec("frequency", (40e3, 41e3, 80e3), base=base))
        assert [r.ok for r in curve.rows] == [True, True, False]
        assert "too coarse" in curve.rows[2].error
        assert np.isfinite(curve.rows[0].speed)

    def test_post_processing_errors_fail_rows(self):
        """At k = 1e18 N/m every row diverges at its second sample, and
        ``runner.summarize`` raises that divergence for each row."""
        base = RunConfig().override(contact={"penalty_stiffness": 1e18},
                                    simulation={"duration": 6e-4})
        curve = run_sweep(SweepSpec("cof", (0.3, 0.4, 0.5), base=base))
        assert not any(r.ok for r in curve.rows)
        assert all(r.error.startswith("simulation diverged: q_cos non-finite at t = 1e-05 s")
                   for r in curve.rows)

    def test_too_short_sweep_steps_nothing(self, monkeypatch):
        """Each row is refused by ``dynamics.step_grid`` before any step."""
        def no_stepping(*args, **kwargs):
            raise AssertionError("the transient was stepped")

        monkeypatch.setattr(contact, "evaluate_contact", no_stepping)
        base = RunConfig().override(simulation={"duration": 4e-4})
        curve = run_sweep(SweepSpec("cof", (0.3, 0.4, 0.5), base=base))
        assert not any(r.ok for r in curve.rows)
        assert all(r.error.startswith("simulation.duration (--duration) 0.0004 s")
                   for r in curve.rows)
