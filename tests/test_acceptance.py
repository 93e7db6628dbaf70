"""End-to-end acceptance suite.

Each test prints exactly one ``ACCEPTANCE n <name>: PASS|FAIL`` line on
the real stdout (bypassing capture) so a suite run yields a nine-line
scoreboard alongside the pytest verdict.
"""

import contextlib
import math
import os
import sys

import numpy as np
import pytest

from twmotor import runner, sweep
from twmotor.config import RunConfig
from twmotor.contact import ContactConfig, contact_angles
from twmotor.metrology import HeightMap, areal_params, level_mean_plane
from twmotor.stator import StatorGeometry
from twmotor.wave import DriveConfig, steady_wave_response

from test_contact import evaluate_one
from test_metrology import brute_force_params
from test_stator import COPPER, analytic_frequency


@contextlib.contextmanager
def scoreboard(number, name):
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"ACCEPTANCE {number} {name}: FAIL\n")
        raise
    sys.__stdout__.write(f"ACCEPTANCE {number} {name}: PASS\n")


def test_1_eigen_dispersion(default_config, stator_model):
    with scoreboard(1, "eigen-dispersion"):
        geom = default_config.geometry
        modes = stator_model.modes
        for n in range(1, 7):
            fe = np.sort(modes.frequencies_hz[modes.labels == n])[:2]
            assert len(fe) == 2
            exact = analytic_frequency(geom, COPPER, n)
            assert fe[0] == pytest.approx(exact, rel=0.01)
            assert fe[1] - fe[0] <= 1e-3 * fe[1]  # degenerate within 0.1%


def test_2_traveling_wave_purity(stator_model):
    with scoreboard(2, "wave-purity"):
        f = stator_model.forcing_per_volt
        drive = DriveConfig(voltage=100.0)
        fwd = steady_wave_response(stator_model.pair, f * drive.voltage, drive,
                                   stator_model.damping_ratio)
        assert fwd.w_backward < 1e-9 * fwd.w_forward
        rev_drive = DriveConfig(voltage=100.0, phase_offset=-math.pi / 2)
        rev = steady_wave_response(stator_model.pair, f * drive.voltage, rev_drive,
                                   stator_model.damping_ratio)
        assert rev.w_forward == pytest.approx(fwd.w_backward, abs=1e-18)
        assert rev.w_backward == pytest.approx(fwd.w_forward, rel=1e-12)


def test_3_friction_cone_invariants(default_config):
    with scoreboard(3, "friction-cone"):
        geom = default_config.geometry
        cfg = ContactConfig()
        rng = np.random.default_rng(2026)
        evaluations = 0
        for _ in range(1000):
            amp = 10.0 ** rng.uniform(-7, -4)
            w = amp * rng.standard_normal(cfg.point_count)
            vt = rng.uniform(0.1, 3.0) * rng.standard_normal(cfg.point_count)
            z = rng.uniform(-2 * amp, 2 * amp)
            speed = rng.uniform(-200.0, 200.0)
            slip = geom.mean_radius * speed - vt
            normal, friction = evaluate_one(z - w, slip, cfg)[..., 0]
            assert np.all(normal >= 0.0)
            # tanh saturates to exactly 1.0 in double precision, so the
            # strict cone inequality is asserted away from saturation
            assert np.all(np.abs(friction) <= cfg.cof * normal)
            loaded = (np.abs(slip) < 18.0 * cfg.regularization_velocity) & (normal > 0)
            assert np.all(np.abs(friction[loaded]) < cfg.cof * normal[loaded])
            assert np.all(friction * slip <= 0.0)
            evaluations += cfg.point_count
        assert evaluations >= 100_000


def test_4_energy_bookkeeping(default_config, default_run):
    with scoreboard(4, "energy-balance"):
        series, summary = default_run
        energy = series.energy
        assert energy is not None
        assert abs(energy.residual_fraction) < 0.01
        fine = default_config.override(
            simulation={"dt": 1.0 / (800.0 * summary["drive_frequency"])})
        fine_series, _ = runner.run_motor(fine)
        assert abs(fine_series.energy.residual_fraction) \
            < abs(energy.residual_fraction)


def test_5_settling(default_config, default_run):
    with scoreboard(5, "settling"):
        series, summary = default_run
        assert summary["settled"]
        assert summary["t_ss"] < default_config.simulation.duration
        displacement = float(series.surface_displacement[-1])
        bound = summary["ideal_speed"] * default_config.geometry.mean_radius \
            * default_config.simulation.duration
        assert 0.0 < displacement < bound


def test_6_preload_trend():
    with scoreboard(6, "preload-trend"):
        spec = sweep.make_preset("usr30_preload")
        curve = sweep.run_sweep(spec, jobs=len(os.sched_getaffinity(0)))
        assert all(r.settled for r in curve.rows)
        peak = sweep.find_peak(curve)
        assert peak["unimodal"]
        assert not peak["boundary_maximum"]
        assert curve.rows[0].torque < 0.5 * peak["torque"]


def test_7_cof_trend():
    with scoreboard(7, "cof-trend"):
        spec = sweep.make_preset("cof_sweep")
        curve = sweep.run_sweep(spec, jobs=len(os.sched_getaffinity(0)))
        peak = sweep.find_peak(curve)
        assert peak["unimodal"]
        assert not peak["boundary_maximum"]
        assert 0.1 <= peak["param"] <= 0.45


def test_8_metrology_exactness():
    with scoreboard(8, "metrology"):
        rng = np.random.default_rng(25178)
        for _ in range(100):
            ny, nx = rng.integers(2, 16, size=2)
            z = rng.uniform(-8.0, 8.0, size=(ny, nx))
            dx, dy = rng.uniform(0.2, 3.0, size=2)
            hmap = level_mean_plane(HeightMap(z, dx=dx, dy=dy))
            got = areal_params(hmap).to_dict()
            want = brute_force_params(hmap.heights, dx, dy)
            for key, ref in want.items():
                assert got[key] == pytest.approx(ref, rel=1e-12, abs=1e-13)
            assert got["Sa"] <= got["Sq"] + 1e-15
            assert got["Sz"] == got["Sp"] + got["Sv"]

        def sa_error(n):
            amp = 2.0
            x = (np.arange(n) + 0.5) / n * 2 * np.pi * 3
            hmap = HeightMap(np.tile(amp * np.sin(x), (2, 1)), 1.0, 1.0,
                             leveled=True)
            p = areal_params(hmap)
            # Sq of a sinusoid is exact on any uniform integer-period grid
            assert p.sq == pytest.approx(amp / np.sqrt(2), rel=1e-12)
            assert p.sku == pytest.approx(1.5, rel=1e-3)
            return abs(p.sa - 2 * amp / np.pi)

        coarse, fine = sa_error(120), sa_error(240)
        assert fine < coarse / 3.0  # O(h^2): halving h quarters the error


def test_9_determinism(default_config, default_run):
    with scoreboard(9, "determinism"):
        first, _ = default_run
        second, _ = runner.run_motor(default_config)
        for name in ("time", "surface_speed", "surface_displacement",
                     "friction_probe", "torque", "axial_force",
                     "wave_amplitude"):
            assert np.array_equal(getattr(first, name), getattr(second, name))
        base = default_config.override(simulation={"duration": 2e-3})
        spec = sweep.SweepSpec("cof", (0.1, 0.2, 0.3), base=base)
        a = sweep.run_sweep(spec, jobs=3)
        b = sweep.run_sweep(spec, jobs=1)
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.torque, ra.speed, ra.t_ss) == (rb.torque, rb.speed, rb.t_ss)


class TestGeometrySanity:
    """Guard the configuration the criteria above depend on."""

    def test_default_geometry(self, default_config):
        geom = default_config.geometry
        assert isinstance(geom, StatorGeometry)
        assert geom.drive_nodal_diameters == 4

    def test_default_config_is_fresh(self, default_config):
        assert default_config == RunConfig()

    def test_contact_angles_cover_circle(self, default_config):
        ang = contact_angles(default_config.contact)
        assert ang[0] == 0.0
        assert ang[-1] < 2 * np.pi
