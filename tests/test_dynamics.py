"""Coupled transient integration and the post-processing operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twmotor import contact, runner
from twmotor.config import RunConfig
from twmotor.dynamics import (
    _CHUNK_STEPS,
    ENTRY_NAMES,
    SETTLE_TOLERANCE,
    SETTLE_WINDOW,
    SPIKE_FACTOR,
    MotorTimeSeries,
    _propagator,
    _step_map,
    RotorConfig,
    SimulationDiverged,
    detect_steady_state,
    envelope_average,
    mean_speed,
    settling_windows,
    simulate,
    simulate_batch,
    step_grid,
)


def short_cfg(**sections):
    base = {"simulation": {"duration": 1e-3}}
    base.update(sections)
    return RunConfig().override(**base)


def run_short(model, cfg):
    return simulate(model, cfg.drive, cfg.contact, cfg.rotor,
                    duration=cfg.simulation.duration,
                    output_interval=cfg.simulation.output_interval,
                    dt=cfg.simulation.dt)


def synthetic_series(t, signal, torque=None):
    """MotorTimeSeries with one chosen probe populated."""
    z = np.zeros_like(t)
    return MotorTimeSeries(
        time=t, surface_speed=z.copy(), surface_displacement=z.copy(),
        friction_probe=z.copy(),
        torque=z.copy() if torque is None else torque,
        axial_force=z.copy(), wave_amplitude=signal, radius=0.0125,
    )


class TestSimulate:
    def test_sample_grid(self, stator_model):
        cfg = short_cfg()
        series = run_short(stator_model, cfg)
        assert len(series.time) == 101
        np.testing.assert_allclose(np.diff(series.time), 1e-5, rtol=1e-9)

    def test_frictionless_rotor_never_spins(self, stator_model):
        cfg = short_cfg(contact={"cof": 0.0})
        series = run_short(stator_model, cfg)
        assert np.all(series.surface_speed == 0.0)
        assert np.all(series.torque == 0.0)

    def test_static_settle_under_preload(self, stator_model):
        """No drive: the axial force balances the preload; penetration
        matches the closed-form penalty deflection F_p / (M k_n)."""
        cfg = short_cfg(drive={"voltage": 0.0})
        series = run_short(stator_model, cfg)
        Fp = cfg.rotor.preload
        assert series.axial_force[-1] == pytest.approx(Fp, rel=0.01)
        depth = Fp / (cfg.contact.point_count * cfg.contact.penalty_stiffness)
        # the probe reports no wave, and the rotor does not spin
        assert series.wave_amplitude[-1] < 1e-12  # contact noise only
        assert abs(series.surface_speed[-1]) < 1e-12
        assert depth > 0.0

    def test_phase_mirror_symmetry(self, stator_model):
        fwd = run_short(stator_model, short_cfg())
        rev = run_short(stator_model,
                        short_cfg(drive={"phase_offset": -math.pi / 2}))
        scale_s = np.max(np.abs(fwd.surface_speed))
        scale_t = np.max(np.abs(fwd.torque))
        np.testing.assert_allclose(rev.surface_speed, -fwd.surface_speed,
                                   atol=1e-6 * scale_s)
        np.testing.assert_allclose(rev.torque, -fwd.torque,
                                   atol=1e-6 * scale_t)

    def test_forward_drive_moves_rotor_forward(self, stator_model):
        series = run_short(stator_model, short_cfg())
        assert series.surface_displacement[-1] > 0.0

    def test_matches_reference_values(self, stator_model):
        """The last sample of a 1 ms default run, as the inline step loop of
        the initial release computed it.  The batched kernel sums in another
        order, so the values agree to rounding, not bitwise."""
        series = run_short(stator_model, short_cfg())
        reference = {
            "surface_speed": 0.007401928392582319,
            "surface_displacement": 3.4406339472547915e-06,
            "torque": 0.12601768939943822,
            "axial_force": 50.40707575977529,
            "wave_amplitude": 7.1350601385908425e-06,
        }
        for name, value in reference.items():
            assert getattr(series, name)[-1] == pytest.approx(value, rel=1e-10), name
        assert series.energy.residual_fraction \
            == pytest.approx(1.8906681643080083e-05, rel=1e-6)

    def test_deterministic(self, stator_model):
        a = run_short(stator_model, short_cfg())
        b = run_short(stator_model, short_cfg())
        np.testing.assert_array_equal(a.surface_speed, b.surface_speed)
        np.testing.assert_array_equal(a.torque, b.torque)
        np.testing.assert_array_equal(a.axial_force, b.axial_force)

    def test_coarse_step_rejected(self, stator_model):
        cfg = short_cfg(simulation={"duration": 1e-3, "dt": 1e-6})
        with pytest.raises(ValueError, match="too coarse"):
            run_short(stator_model, cfg)

    def test_energy_balance_short_run(self, stator_model):
        cfg = short_cfg()
        series = run_short(stator_model, cfg)
        assert series.energy is not None
        assert abs(series.energy.residual_fraction) < 0.01

    def test_energy_balance_without_period_reduction(self, stator_model):
        """129 points share no period with n = 4 waves (g = 1): the step loop
        runs over all of them, and the ledger still closes."""
        cfg = short_cfg(contact={"point_count": 129})
        series = run_short(stator_model, cfg)
        assert not series.diverged
        assert abs(series.energy.residual_fraction) < 0.01

    def test_preload_ramp_reaches_full_load(self, stator_model):
        cfg = short_cfg(rotor={"preload": 80.0, "preload_ramp": 2e-4},
                        drive={"voltage": 0.0})
        series = run_short(stator_model, cfg)
        assert series.axial_force[-1] == pytest.approx(80.0, rel=0.01)
        # early in the ramp the contact force is still far below the target
        early = series.time < 5e-5
        assert np.max(series.axial_force[early]) < 60.0


SERIES_FIELDS = ("time", "surface_speed", "surface_displacement", "friction_probe",
                 "torque", "axial_force", "wave_amplitude")


def assert_same_run(a, b):
    """Bitwise equality of two runs: every probe, the flags and the ledger."""
    for name in SERIES_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.diverged, a.last_valid_time, a.energy) \
        == (b.diverged, b.last_valid_time, b.energy)


class TestSimulateBatch:
    """B runs advance in one step loop; a row's bits do not depend on B."""

    DURATION = 3e-4

    @staticmethod
    def rows(configs):
        return [(c.drive, c.contact, c.rotor) for c in configs]

    def solo(self, model, cfg):
        return simulate(model, cfg.drive, cfg.contact, cfg.rotor,
                        duration=self.DURATION)

    def test_row_of_batch_equals_solo_run(self, stator_model):
        # every per-row parameter differs somewhere; all share one step grid
        configs = [
            RunConfig().override(contact={"cof": 0.1}, rotor={"preload": 40.0}),
            RunConfig().override(contact={"cof": 0.4, "penalty_stiffness": 3e5},
                                 drive={"voltage": 200.0, "frequency": 41100.0},
                                 rotor={"preload": 200.0, "load_torque": 0.01}),
            RunConfig().override(drive={"phase_offset": -math.pi / 2},
                                 rotor={"preload_ramp": 1e-4, "mass": 0.02,
                                        "inertia": 1e-4, "axial_damping": 0.0}),
            # the ramp ends inside a chunk, not on a sample step
            RunConfig().override(rotor={"preload_ramp": 1.234e-4, "preload": 120.0}),
        ]
        batch = simulate_batch(stator_model, self.rows(configs),
                               duration=self.DURATION)
        assert len(batch) == 4
        for cfg, row in zip(configs, batch):
            assert not row.diverged
            assert_same_run(row, self.solo(stator_model, cfg))

    def test_diverging_row_is_flagged_and_isolated(self, stator_model):
        configs = [
            RunConfig().override(contact={"cof": 0.3}),
            RunConfig().override(contact={"penalty_stiffness": 1e13}),
            RunConfig().override(contact={"cof": 0.5}),
        ]
        batch = simulate_batch(stator_model, self.rows(configs),
                               duration=self.DURATION)
        bad = batch[1]
        assert bad.diverged
        assert bad.energy is None
        assert len(bad) < len(batch[0])
        assert np.all(np.isfinite(bad.torque))
        for i in (0, 2):
            assert_same_run(batch[i], self.solo(stator_model, configs[i]))
            assert batch[i].nonfinite_entry == ""
        # the report names the first non-finite entry and the sample that
        # found it, the one after the last valid sample; a sweep row's error
        # is this message
        assert bad.nonfinite_entry in ENTRY_NAMES
        assert bad.nonfinite_time == pytest.approx(bad.last_valid_time + 1e-5, rel=1e-12)
        with pytest.raises(SimulationDiverged) as raised:
            runner.summarize(configs[1], stator_model, bad)
        assert str(raised.value) == (
            f"simulation diverged: {bad.nonfinite_entry} non-finite at "
            f"t = {bad.nonfinite_time:g} s; last valid time {bad.last_valid_time:g} s")

    def test_rows_must_share_the_step_grid(self, stator_model):
        configs = [RunConfig(), RunConfig().override(drive={"frequency": 30000.0})]
        with pytest.raises(ValueError, match="step grid"):
            simulate_batch(stator_model, self.rows(configs), duration=self.DURATION)

    def test_simulate_runs_the_contact_module_law(self, stator_model, monkeypatch):
        """The hypothesis tests of contact.py cover the law the loop runs,
        called from ``contact`` once per evaluation.  A step is the law and
        two products, the kinematics and the step map, which also forms the
        reactions: no product runs per sample."""
        calls = {"evaluate_contact": 0, "matmul": 0}

        def counting(module, name):
            function = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        counting(contact, "evaluate_contact")
        counting(np, "matmul")
        cfg = RunConfig()
        self.solo(stator_model, cfg)
        _, steps_per_sample, n_samples = step_grid(stator_model, cfg.drive,
                                                   duration=self.DURATION)
        evaluations = (n_samples - 1) * steps_per_sample + 1
        assert calls == {"evaluate_contact": evaluations, "matmul": 2 * evaluations}

    def test_law_operands_are_contiguous_blocks(self, stator_model, monkeypatch):
        """At B > 1 each of the law's arguments is one C-contiguous block
        across the batch, over one period of the interface (M / g points).
        Its outputs are written straight into the step map's input: each row
        of them is contiguous and lies in the buffer the step map reads."""
        law, matmul = contact.evaluate_contact, np.matmul
        count = contact.ContactConfig().point_count
        points = count // math.gcd(stator_model.pair.nodal_diameters, count)
        outputs, contiguous, in_map_input = [], [], []

        def checking(load, slip_ratio, normal, traction):
            assert {b.shape for b in (load, slip_ratio, normal, traction)} == {(3, 1, points)}
            contiguous.append(load.flags.c_contiguous and slip_ratio.flags.c_contiguous
                        and all(row.flags.c_contiguous for row in (*normal, *traction)))
            outputs[:] = [normal, traction]
            return law(load, slip_ratio, normal, traction)

        def step_map_reading_the_outputs(a, b, *args, **kwargs):
            if a.shape[-1] == 16 + 2 * points:      # [state | r_prev | d | N | u]
                in_map_input.append(all(np.shares_memory(a, o) for o in outputs))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(contact, "evaluate_contact", checking)
        monkeypatch.setattr(np, "matmul", step_map_reading_the_outputs)
        configs = [RunConfig().override(contact={"cof": c}) for c in (0.3, 0.4, 0.5)]
        simulate_batch(stator_model, self.rows(configs), duration=2e-5)
        assert contiguous and all(contiguous)
        assert in_map_input and all(in_map_input)

    def test_twelve_rows_match_solo_runs(self, stator_model):
        configs = [RunConfig().override(contact={"cof": 0.05 + 0.04 * i},
                                        rotor={"preload": 30.0 + 15.0 * (i % 5)})
                   for i in range(12)]
        batch = simulate_batch(stator_model, self.rows(configs), duration=self.DURATION)
        for cfg, row in zip(configs, batch):
            assert not row.diverged
            assert_same_run(row, self.solo(stator_model, cfg))


class TestPropagator:
    """Every entry of the step map against the closed-form solutions of its
    decoupled systems: the damped modal oscillator, the rotor's axial motion
    with and without its damper, and its free spin.  The light rotors make
    the axial motion stiff, c_z h / m from about 4 to 85, far beyond the
    modal rate omega h of about 0.016 that shares their map."""

    @staticmethod
    def x_plus_expm1(x):
        """x + expm1(-x), free of cancellation: for x < 1 the sum over k >= 2
        of (-x)^k / k!; above, where the sum needs more terms, directly."""
        if x >= 1.0:
            return x + math.expm1(-x)
        total, term = 0.0, -x
        for k in range(2, 20):
            term *= -x / k
            total += term
        return total

    @pytest.mark.parametrize("c_z, mass", [
        (700.0, RotorConfig.mass), (0.0, RotorConfig.mass), (700.0, 1e-5), (700.0, 1e-6),
    ], ids=["700.0", "0.0", "700.0-1e-05", "700.0-1e-06"])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_matches_closed_forms(self, stator_model, c_z, mass, scale):
        omega, zeta = stator_model.pair.omega, stator_model.damping_ratio
        rotor = RotorConfig(axial_damping=c_z, mass=mass)
        mass, J = rotor.mass, rotor.inertia
        h = scale * step_grid(stator_model, RunConfig().drive)[0]
        prop = _propagator(np.array([1.0, 1.0, mass, J]),
                           np.array([2.0 * zeta * omega] * 2 + [c_z, 0.0]),
                           np.array([omega ** 2] * 2 + [0.0, 0.0]), h)
        assert prop.shape == (12, 8)

        expected = np.zeros((12, 8))      # [positions | rates | forces] -> state
        sigma, omega_d = zeta * omega, omega * math.sqrt(1.0 - zeta * zeta)
        decay, theta = math.exp(-sigma * h), omega_d * h
        sin_d = math.sin(theta) / omega_d
        e00 = decay * (math.cos(theta) + sigma * sin_d)
        e11 = decay * (math.cos(theta) - sigma * sin_d)
        one_minus_e00 = (-math.expm1(-sigma * h) + 2.0 * decay * math.sin(0.5 * theta) ** 2
                         - decay * sigma * sin_d)
        for pos in (0, 1):
            vel, force = 4 + pos, 8 + pos
            expected[pos, pos], expected[vel, pos] = e00, decay * sin_d
            expected[force, pos] = one_minus_e00 / omega ** 2
            expected[pos, vel], expected[vel, vel] = -omega ** 2 * decay * sin_d, e11
            expected[force, vel] = decay * sin_d

        z, phi, zd, om, fz, tz = 2, 3, 6, 7, 10, 11
        expected[z, z] = expected[phi, phi] = expected[om, om] = 1.0
        if c_z > 0:
            gamma = c_z / mass
            x = gamma * h
            expected[zd, z] = -math.expm1(-x) / gamma
            expected[fz, z] = self.x_plus_expm1(x) / (gamma * gamma * mass)
            expected[zd, zd] = math.exp(-x)
            expected[fz, zd] = -math.expm1(-x) / (gamma * mass)
        else:
            expected[zd, z], expected[fz, z] = h, 0.5 * h * h / mass
            expected[zd, zd], expected[fz, zd] = 1.0, h / mass
        expected[om, phi], expected[tz, phi], expected[tz, om] = h, 0.5 * h * h / J, h / J

        # abs=0: every entry the closed forms leave at zero is exactly zero
        assert prop == pytest.approx(expected, rel=1e-14, abs=0.0)

        # the step map [state | r_prev | d | N | u] -> [next state | r] reads
        # the forcing rows exactly: F = d + 1.5 r - 0.5 r_prev, r = [N | u] forces
        reaction = np.random.default_rng(5).standard_normal((2, 6, 4))
        forces = np.concatenate(list(reaction))
        step = _step_map(prop, reaction)
        assert step.shape == (28, 12)
        forcing = prop[8:12]
        assert np.array_equal(step[:8, :8], prop[:8])
        assert np.array_equal(step[8:12, :8], -0.5 * forcing)
        assert np.array_equal(step[12:16, :8], forcing)
        assert np.array_equal(step[16:, :8], forces @ (1.5 * forcing))
        assert np.array_equal(step[:, 8:], np.concatenate([np.zeros((16, 4)), forces]))


    def test_rows_are_independent_of_their_batch(self, stator_model):
        """Each row's map scales by its own norm: rows whose axial motion
        needs different scalings give bitwise their solo maps together."""
        omega, zeta = stator_model.pair.omega, stator_model.damping_ratio
        h = step_grid(stator_model, RunConfig().drive)[0]
        mass = np.array([[1.0, 1.0, m, RotorConfig.inertia] for m in (1e-2, 1e-5, 1e-6)])
        damping = np.array([2.0 * zeta * omega] * 2 + [700.0, 0.0])
        stiffness = np.array([omega ** 2] * 2 + [0.0, 0.0])
        batch = _propagator(mass, damping, stiffness, h)
        for row, solo_mass in zip(batch, mass):
            assert np.array_equal(row, _propagator(solo_mass, damping, stiffness, h))


class TestChunkEdges:
    """The step loop runs in chunks of at most one sample interval and at
    most ``_CHUNK_STEPS`` steps; the edge cases keep the values of the
    unchunked loop (the last sample of each run below, rel 1e-10) and
    bitwise batch independence."""

    CASES = {
        "one step per sample": (2e-5, 5e-8, {
            "surface_speed": 1.142574147396914e-05,
            "surface_displacement": 6.480037881568096e-11,
            "torque": 0.02223501635806511,
            "axial_force": 15.524152255320484,
            "wave_amplitude": 5.796833556581792e-07,
        }),
        "sample interval longer than a chunk": (3e-4, 1e-4, {
            "surface_speed": 0.001780180482638526,
            "surface_displacement": 2.113675405451309e-07,
            "torque": 0.1300656263648401,
            "axial_force": 53.70969168781357,
            "wave_amplitude": 4.903190956161858e-06,
        }),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_reference_values(self, stator_model, case):
        duration, interval, reference = self.CASES[case]
        cfg = RunConfig()
        _, steps_per_sample, _ = step_grid(stator_model, cfg.drive, duration, interval)
        assert steps_per_sample == 1 or steps_per_sample > _CHUNK_STEPS
        series = simulate(stator_model, cfg.drive, cfg.contact, cfg.rotor,
                          duration=duration, output_interval=interval)
        assert len(series) == round(duration / interval) + 1
        for name, value in reference.items():
            assert getattr(series, name)[-1] == pytest.approx(value, rel=1e-10), name
        assert series.energy.residual_fraction < 0.01

        other = RunConfig().override(contact={"cof": 0.35},
                                     rotor={"preload_ramp": 0.7 * duration})
        rows = [(c.drive, c.contact, c.rotor) for c in (other, cfg)]
        batch = simulate_batch(stator_model, rows, duration=duration,
                               output_interval=interval)
        assert_same_run(batch[1], series)


class TestTimeSeriesCsv:
    def test_round_trip_bit_identical(self, stator_model, tmp_path):
        series = run_short(stator_model, short_cfg())
        path = tmp_path / "ts.csv"
        series.to_csv(path)
        time, speed, _, _, torque, _, _ = np.loadtxt(path, delimiter=",", skiprows=1,
                                                     ndmin=2, unpack=True)
        np.testing.assert_array_equal(time, series.time)
        np.testing.assert_array_equal(torque, series.torque)
        np.testing.assert_array_equal(speed, series.surface_speed)

    def test_header(self, stator_model, tmp_path):
        series = run_short(stator_model, short_cfg())
        path = tmp_path / "ts.csv"
        series.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,s_speed,surf_disp,fric_probe,torque,fz,wave_amp"


class TestDetectSteadyState:
    def test_exponential_settle_time(self):
        tau = 3e-4
        t = np.arange(0, 5e-3, 1e-5)
        series = synthetic_series(t, 1.0 - np.exp(-t / tau))
        ss = detect_steady_state(series)
        assert ss.settled
        assert ss.t == pytest.approx(4 * tau, rel=0.25)

    def test_constant_series_settles_immediately(self):
        t = np.arange(0, 5e-3, 1e-5)
        series = synthetic_series(t, np.full_like(t, 2.0))
        ss = detect_steady_state(series)
        assert ss.settled
        assert ss.t == pytest.approx(2.5e-4, rel=1e-9)

    def test_growing_series_not_settled(self):
        t = np.arange(0, 5e-3, 1e-5)
        series = synthetic_series(t, 1.0 + 1e4 * t)
        ss = detect_steady_state(series)
        assert not ss.settled
        assert ss.t == pytest.approx(t[-1])

    def test_boundary_is_the_sample_time(self):
        """t_ss is the boundary sample's own time, so a mask time >= t_ss keeps
        that sample.  On the default step grid, 165 steps of h = 1e-5/165 s
        per sample, the series holds 475 * 165 * h for the sample at
        4.75 ms, one ulp below 475 times the sample interval."""
        h = 1e-5 / 165
        t = np.arange(501) * 165 * h     # the step index times h, as simulated
        window = np.arange(501) // 25
        series = synthetic_series(t, 2.0 ** np.minimum(window, 18))
        ss = detect_steady_state(series)
        assert ss.settled and ss.t == t[475]
        assert np.count_nonzero(t >= ss.t) == 501 - 475

    def test_rotor_speed_probe_selectable(self):
        t = np.arange(0, 5e-3, 1e-5)
        series = synthetic_series(t, 1.0 + 1e4 * t)  # growing wave probe
        ss = detect_steady_state(series, signal="surface_speed")
        assert ss.settled  # the (zero) rotor-speed probe is flat

    def test_unknown_signal_rejected(self):
        t = np.arange(0, 5e-3, 1e-5)
        series = synthetic_series(t, np.zeros_like(t))
        with pytest.raises(ValueError, match="signal"):
            detect_steady_state(series, signal="nope")

    @pytest.mark.parametrize("duration, interval, enough", [
        (4.9e-4, 1e-5, True), (4.8e-4, 1e-5, False), (5e-4, 2.5e-4, True),
        (2.4e-4, 1e-4, False), (1e-3, 3e-5, True)])
    def test_settling_windows_predict_the_verdict(self, duration, interval, enough):
        """A run's window count, known before it is stepped, says whether the
        verdict on its series can be reached: 50 samples at 10 us fill two
        windows of 25, so 0.49 ms is enough and 0.48 ms is not."""
        t = np.arange(round(duration / interval) + 1) * interval
        series = synthetic_series(t, np.full_like(t, 2.0))
        assert (settling_windows(duration, interval) >= 2) == enough
        if enough:
            assert detect_steady_state(series).settled
        else:
            with pytest.raises(ValueError, match="shorter than two windows"):
                detect_steady_state(series)


class TestEnvelopeAverage:
    F = 2000.0  # synthetic oscillation resolvable on the 0.01 ms grid

    def make(self, torque):
        t = np.arange(0, 5e-3, 1e-5)
        return t, synthetic_series(t, np.zeros_like(t), torque=torque)

    def test_pure_sine_amplitude(self):
        t, series = self.make(0.05 * np.sin(2 * math.pi * self.F * np.arange(0, 5e-3, 1e-5)))
        out = envelope_average(series, 0.0, period=1.0 / self.F)
        assert out == pytest.approx(0.05, rel=5e-3)

    def test_spikes_rejected(self):
        t = np.arange(0, 5e-3, 1e-5)
        torque = 0.05 * np.sin(2 * math.pi * self.F * t)
        torque[120] = 10.0
        torque[340] = -8.0
        _, series = self.make(torque)
        out = envelope_average(series, 0.0, period=1.0 / self.F)
        assert out == pytest.approx(0.05, rel=5e-3)

    def test_too_few_windows_rejected(self):
        _, series = self.make(np.zeros(500))
        with pytest.raises(ValueError, match="envelope points"):
            envelope_average(series, 4.8e-3, period=1.0 / self.F)

    def test_t_ss_outside_span_rejected(self):
        _, series = self.make(np.zeros(500))
        with pytest.raises(ValueError, match="outside"):
            envelope_average(series, 1.0, period=1.0 / self.F)


def loop_windows(x, wlen, reduce):
    """Each whole window of ``wlen`` points reduced in turn: the loop form."""
    return np.array([reduce(x[j * wlen:(j + 1) * wlen]) for j in range(len(x) // wlen)])


class TestWindowReductions:
    """The post-processing reductions against the per-window loops they
    replaced, on noisy settling series of many lengths and window sizes."""

    def noisy_series(self, seed, n, wlen):
        rng = np.random.default_rng(seed)
        t = np.arange(n) * (SETTLE_WINDOW / wlen)
        signal = 1.0 - np.exp(-t / rng.uniform(1e-4, 3e-3)) + rng.normal(0, 0.01, n)
        return t, synthetic_series(t, signal, torque=rng.normal(0.1, 0.02, n))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(120, 3000),
           wlen=st.integers(1, 59))
    def test_settling_matches_the_loop(self, seed, n, wlen):
        t, series = self.noisy_series(seed, n, wlen)
        means = loop_windows(series.wave_amplitude, wlen, np.mean)
        agree = [abs(b - a) <= SETTLE_TOLERANCE * max(abs(a), abs(b))
                 for a, b in zip(means, means[1:])]
        ss = detect_steady_state(series)
        assert ss.settled == any(agree)
        assert ss.t == (t[(agree.index(True) + 1) * wlen] if any(agree) else t[-1])

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(120, 3000),
           wlen=st.integers(1, 23))
    def test_envelope_matches_the_loop(self, seed, n, wlen):
        t, series = self.noisy_series(seed, n, wlen)
        envelope = loop_windows(series.torque, wlen, np.max)
        med = np.median(envelope)
        mad = max(np.median(np.abs(envelope - med)), 1e-12 * abs(med))
        expected = np.mean(envelope[np.abs(envelope - med) <= SPIKE_FACTOR * mad])
        assert envelope_average(series, 0.0, period=wlen * (t[1] - t[0])) == expected


class TestMeanSpeed:
    def test_tail_average(self):
        t = np.arange(0, 1e-3, 1e-5)
        series = synthetic_series(t, np.zeros_like(t))
        object.__setattr__(series, "surface_speed",
                           np.where(t < 5e-4, 0.0, 0.25))
        # radius 0.0125 -> 0.25 m/s surface speed = 20 rad/s
        assert mean_speed(series, 5e-4) == pytest.approx(20.0)


class TestRotorConfig:
    @pytest.mark.parametrize("bad", [
        {"inertia": 0.0},
        {"mass": -1.0},
        {"axial_damping": -1.0},
        {"preload": -5.0},
        {"preload_ramp": -1e-4},
    ])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            RotorConfig(**bad)
