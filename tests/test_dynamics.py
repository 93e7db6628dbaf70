"""Coupled transient integration and the post-processing operators."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twmotor import contact, dynamics, runner
from twmotor.config import RunConfig
from twmotor.dynamics import (
    _CHUNK_STEPS,
    ENTRY_NAMES,
    SETTLE_TOLERANCE,
    SETTLE_WINDOW,
    SPIKE_FACTOR,
    MotorTimeSeries,
    _step_map,
    RotorConfig,
    SimulationDiverged,
    detect_steady_state,
    envelope_average,
    mean_speed,
    simulate,
    simulate_batch,
    step_grid,
)


# The step map's layout for the 8-entry state [q_cos, q_sin, z, phi | rates]:
# its input [state | r_(j-1) | ... | r_(j-k+1) | d | N | u], k the reaction
# history's length, and its output, the input's first F0 entries
HISTORY = len(dynamics._HISTORY)
D0 = 8 + (HISTORY - 1) * 4     # where d starts
F0 = D0 + 4                    # where [N | u] starts: the map's output width


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

    @pytest.mark.parametrize("interval, per_period, steps, duration", [
        (5e-8, 200, 1, 2e-5), (1e-5, 200, 83, 1e-3), (1e-5, 400, 165, 1e-3)])
    def test_sample_times_are_whole_intervals(self, stator_model, interval, per_period,
                                              steps, duration):
        """Sample i lies at i x output_interval, bitwise, not at i s h, which
        carries the rounding of the step h."""
        cfg = RunConfig()
        dt = 1.0 / (per_period * cfg.drive.resolve_frequency(stator_model.pair))
        assert step_grid(stator_model, cfg.drive, 1e-3, interval, dt)[1] == steps
        series = simulate(stator_model, cfg.drive, cfg.contact, cfg.rotor,
                          duration=duration, output_interval=interval, dt=dt)
        assert len(series) == round(duration / interval) + 1
        for i, t in enumerate(series.time):
            assert t == i * interval

    def test_frictionless_rotor_never_spins(self, stator_model):
        cfg = short_cfg(contact={"cof": 0.0})
        series = run_short(stator_model, cfg)
        assert np.all(series.surface_speed == 0.0)
        assert np.all(series.torque == 0.0)

    def test_static_settle_under_preload(self, stator_model):
        """No drive: the axial force balances the preload; penetration
        matches the closed-form penalty deflection F_p / (M k_n).  So the
        preload does F_p^2 / (M k_n) of work, half of it stored in the
        interface springs and half spent in the axial damper.  The preload
        work carries the trapezoid rule's error on the 30 us axial
        transient (-1.2e-5 relative at 1 ms); the other two are near exact."""
        cfg = short_cfg(drive={"voltage": 0.0})
        series = run_short(stator_model, cfg)
        Fp = cfg.rotor.preload
        assert series.axial_force[-1] == pytest.approx(Fp, rel=0.01)
        depth = Fp / (cfg.contact.point_count * cfg.contact.penalty_stiffness)
        # the probe reports no wave, and the rotor does not spin
        assert series.wave_amplitude[-1] < 1e-12  # contact noise only
        assert abs(series.surface_speed[-1]) < 1e-12
        assert depth > 0.0
        energy, work = series.energy, Fp * depth
        assert work == 9.765625e-5
        assert energy.drive_work == 0.0
        assert energy.residual_fraction is None    # no drive work to relate it to
        assert energy.preload_work == pytest.approx(work, rel=1e-4)
        assert energy.axial_dissipation == pytest.approx(work / 2, rel=1e-8)
        assert energy.energy_change == pytest.approx(work / 2, rel=1e-8)

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
        """The last sample of a 1 ms default run, as the exponential Adams
        step map at 1/(100 f) computed it.  Values that differ by rounding
        only, from another summation order, pass."""
        series = run_short(stator_model, short_cfg())
        reference = {
            "surface_speed": 0.007401664607417986,
            "surface_displacement": 3.4404231919212683e-06,
            "torque": 0.12601863523586923,
            "axial_force": 50.40745409434769,
            "wave_amplitude": 7.135581351033335e-06,
        }
        for name, value in reference.items():
            assert getattr(series, name)[-1] == pytest.approx(value, rel=1e-10), name
        assert series.energy.residual_fraction \
            == pytest.approx(4.293254782137212e-07, rel=1e-6)

    # The midpoint scheme's errors at 1/(400 f) in a 1 ms default run, against
    # its own run at 1/(1600 f): W and the rotor speed at 1 ms
    OLD_W_ERROR = 6.35e-5
    OLD_SPEED_ERROR = 1.19e-6
    # its errors at 1/(400 f) on the sliding row, 200 N and cof 0.6 (README,
    # step error): W and the mean speed at 5 ms
    OLD_SLIDING_W_ERROR = 4.5e-4
    OLD_SLIDING_SPEED_ERROR = 6.0e-4

    def test_default_step_is_as_accurate_as_the_old_default(self, stator_model):
        """1 ms runs against ones at 1/(1600 f): on the default row W's error
        stays within the midpoint scheme's at its default 1/(400 f).  The
        speed's error scatters from step to step under either scheme, as
        sub-step slip reversals land (README); the midpoint scheme read 1.2e-6
        at 1/(400 f) and 1.3e-5 to 1.4e-5 at the next three steps, so it is
        held to that error or 1e-4, whichever is larger.  The sliding row,
        where the scatter is largest, is held to the midpoint scheme's errors
        there."""
        cfg = short_cfg()
        sliding = short_cfg(rotor={"preload": 200.0}, contact={"cof": 0.6})
        rows = [(c.drive, c.contact, c.rotor) for c in (cfg, sliding)]
        dt = 1.0 / (1600 * cfg.drive.resolve_frequency(stator_model.pair))
        runs = simulate_batch(stator_model, rows, duration=1e-3)
        references = simulate_batch(stator_model, rows, duration=1e-3, dt=dt)
        bounds = [(self.OLD_W_ERROR, max(self.OLD_SPEED_ERROR, 1e-4)),
                  (self.OLD_SLIDING_W_ERROR, self.OLD_SLIDING_SPEED_ERROR)]
        for run, reference, (w_bound, speed_bound) in zip(runs, references, bounds):
            w_error, speed_error = (
                abs(getattr(run, name)[-1] / getattr(reference, name)[-1] - 1.0)
                for name in ("wave_amplitude", "surface_speed"))
            assert w_error <= w_bound
            assert speed_error <= speed_bound

    def test_deterministic(self, stator_model):
        a = run_short(stator_model, short_cfg())
        b = run_short(stator_model, short_cfg())
        np.testing.assert_array_equal(a.surface_speed, b.surface_speed)
        np.testing.assert_array_equal(a.torque, b.torque)
        np.testing.assert_array_equal(a.axial_force, b.axial_force)

    def test_sample_count_bound(self, stator_model):
        """A row holds at most 2^22 samples; a longer run is refused by its
        duration before any buffer is allocated."""
        drive = RunConfig().drive
        assert step_grid(stator_model, drive, (2 ** 22 - 1) * 1e-5, 1e-5)[2] == 2 ** 22
        with pytest.raises(ValueError, match=r"^simulation\.duration \(--duration\)"):
            step_grid(stator_model, drive, 2 ** 22 * 1e-5, 1e-5)

    def test_tiny_step_refused(self, stator_model):
        """1e-300 s puts 1e295 steps in a sample, more than the 1024 a sample
        interval holds: one error naming ``simulation.dt``, not a run that
        never ends."""
        with pytest.raises(ValueError) as info:
            step_grid(stator_model, RunConfig().drive, 5e-3, 1e-5, 1e-300)
        assert str(info.value) == ("simulation.dt 1e-300 s is 1e+295 steps per sample of "
                                   "1e-05 s; a sample holds at most 1024")

    def test_coarse_step_rejected(self, stator_model):
        cfg = short_cfg(simulation={"duration": 1e-3, "dt": 1e-6})
        with pytest.raises(ValueError, match="too coarse"):
            run_short(stator_model, cfg)

    def test_energy_balance_short_run(self, stator_model):
        cfg = short_cfg()
        series = run_short(stator_model, cfg)
        assert series.energy is not None
        assert abs(series.energy.residual_fraction) < 0.01

    def test_energy_balance_at_other_phases(self, stator_model):
        """The ledger prices the forcing the map applies at any phase offset,
        not only at the default quadrature: 2 ms runs close to 1e-5."""
        cfg = short_cfg(simulation={"duration": 2e-3})
        rows = [(dataclasses.replace(cfg.drive, phase_offset=psi), cfg.contact, cfg.rotor)
                for psi in (0.0, 0.3, 1.0, math.pi)]
        for series in simulate_batch(stator_model, rows, duration=2e-3):
            assert series.divergence is None
            assert abs(series.energy.residual_fraction) < 1e-5

    def test_energy_balance_without_period_reduction(self, stator_model):
        """129 points share no period with n = 4 waves (g = 1): the step loop
        runs over all of them, and the ledger still closes."""
        cfg = short_cfg(contact={"point_count": 129})
        series = run_short(stator_model, cfg)
        assert series.divergence is None
        assert abs(series.energy.residual_fraction) < 0.01


SERIES_FIELDS = ("time", "surface_speed", "surface_displacement", "friction_probe",
                 "torque", "axial_force", "wave_amplitude")


def assert_same_run(a, b):
    """Bitwise equality of two runs: every probe, the flags and the ledger."""
    for name in SERIES_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (str(a.divergence), a.energy) == (str(b.divergence), b.energy)


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
                                 rotor={"mass": 0.02, "inertia": 1e-4,
                                        "axial_damping": 0.0}),
            RunConfig().override(rotor={"preload": 120.0}),
        ]
        batch = simulate_batch(stator_model, self.rows(configs),
                               duration=self.DURATION)
        assert len(batch) == 4
        for cfg, row in zip(configs, batch):
            assert row.divergence is None
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
        report = bad.divergence
        assert report is not None
        assert bad.energy is None
        assert len(bad) < len(batch[0])
        assert np.all(np.isfinite(bad.torque))
        for i in (0, 2):
            assert_same_run(batch[i], self.solo(stator_model, configs[i]))
            assert batch[i].divergence is None
        # the report names the first non-finite entry and the sample that
        # found it, the one after the last valid sample; a sweep row's error
        # is this message
        assert report.entry in ENTRY_NAMES
        assert report.last_valid_time == (bad.time[-1] if len(bad) else 0.0)
        assert report.time == pytest.approx(report.last_valid_time + 1e-5, rel=1e-12)
        with pytest.raises(SimulationDiverged) as raised:
            runner.summarize(configs[1], stator_model, bad,
                             dynamics._grid(stator_model, configs[1].drive, self.DURATION,
                                            1e-5, None))
        assert str(raised.value) == (
            f"simulation diverged: {report.entry} non-finite at "
            f"t = {report.time:g} s; last valid time {report.last_valid_time:g} s")
        assert str(pickle.loads(pickle.dumps(bad)).divergence) == str(report)

    def test_rows_must_share_the_step_grid(self, stator_model):
        configs = [RunConfig(), RunConfig().override(drive={"frequency": 30000.0})]
        with pytest.raises(ValueError, match="step grid"):
            simulate_batch(stator_model, self.rows(configs), duration=self.DURATION)

    def test_rows_must_share_the_point_count(self, stator_model):
        configs = [RunConfig(), RunConfig().override(contact={"point_count": 132})]
        with pytest.raises(ValueError, match="must share one point_count"):
            simulate_batch(stator_model, self.rows(configs), duration=self.DURATION)

    def test_simulate_runs_the_contact_module_law(self, stator_model, monkeypatch):
        """The hypothesis tests of contact.py cover the law the loop runs,
        called from ``contact`` once per evaluation.  A step is the law and
        two products, the kinematics and the step map, which also forms the
        reactions: no product runs per sample.  A batch of one makes them
        with ``dynamics._dot`` (``np.ndarray.dot``) on 1-D views, a batch of
        three with ``np.matmul``."""
        calls = {}

        def counting(module, name):
            function = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        counting(contact, "evaluate_contact")
        counting(dynamics, "_dot")
        counting(np, "matmul")
        steps_per_sample = step_grid(stator_model, RunConfig().drive)[1]
        evaluations = round(self.DURATION / 1e-5) * steps_per_sample + 1
        for rows, product, other in ((1, "_dot", "matmul"), (3, "matmul", "_dot")):
            calls.update(evaluate_contact=0, _dot=0, matmul=0)
            configs = [RunConfig().override(contact={"cof": 0.3 + 0.1 * i})
                       for i in range(rows)]
            simulate_batch(stator_model, self.rows(configs), duration=self.DURATION)
            assert calls == {"evaluate_contact": evaluations, product: 2 * evaluations,
                             other: 0}, rows

    def test_law_operands_are_contiguous_blocks(self, stator_model, monkeypatch):
        """At B > 1 each of the law's two operands is one C-contiguous
        (M / g, B) block over one period of the interface, and the law runs
        in place in the step map's input: the kinematics product writes
        [-k gap | slip / v] into the input's [N | u] block, the law's
        operands are that block's two halves, and the step map then reads
        the same memory.  A separate buffer for the law's arguments fails
        this."""
        law, matmul = contact.evaluate_contact, np.matmul
        count = contact.ContactConfig().point_count
        points = count // math.gcd(stator_model.pair.nodal_diameters, count)
        written, one_block, in_map_input = [], [], []

        def layout(a):
            return a.__array_interface__["data"][0], a.shape, a.strides

        def checking(normal, traction):
            block = written[-1][:, 0].T    # the kinematics product's output, entry-major
            one_block.append(
                all(a.shape == (points, 3) and a.flags.c_contiguous for a in (normal, traction))
                and block.flags.c_contiguous
                and layout(normal) == layout(block[:points])
                and layout(traction) == layout(block[points:]))
            return law(normal, traction)

        def recording(a, b, out):             # the loop passes its output positionally
            if b.shape[-1] == 2 * points:     # state -> [-k gap | slip / v]
                written.append(out)
            elif b.shape[-1] == F0:           # [state | r_(j-1) | ... | d | N | u] -> ...
                in_map_input.append(layout(a[..., F0:F0 + 2 * points]) == layout(written[-1]))
            return matmul(a, b, out)

        monkeypatch.setattr(contact, "evaluate_contact", checking)
        monkeypatch.setattr(np, "matmul", recording)
        configs = [RunConfig().override(contact={"cof": c}) for c in (0.3, 0.4, 0.5)]
        simulate_batch(stator_model, self.rows(configs), duration=2e-5)
        assert one_block and all(one_block)
        assert in_map_input and all(in_map_input)

    @pytest.mark.parametrize("rows", [2, 3, 5])
    @pytest.mark.parametrize("point_count", [66, 129])
    def test_solo_run_matches_its_row_where_blas_tails_differ(self, stator_model,
                                                               point_count, rows):
        """At 33 points per period (66, g = 2) and at 129 points (g = 1) the
        step map's input has 82 and 274 entries.  A row of a batch reads its
        products' vectors with stride B, a batch of one with stride 1, and
        the two matrix-vector kernels group a tail of fewer than 4 terms
        differently; the input is padded with zeros to a multiple of 4, so
        there is no tail.  Both also make one product over the
        [load | slip_ratio] columns of the same kinematics."""
        configs = [RunConfig().override(contact={"point_count": point_count,
                                                 "cof": 0.3 + 0.1 * i})
                   for i in range(rows)]
        batch = simulate_batch(stator_model, self.rows(configs), duration=self.DURATION)
        for cfg, row in zip(configs, batch):
            assert row.divergence is None
            assert_same_run(row, self.solo(stator_model, cfg))

    def test_twelve_rows_match_solo_runs(self, stator_model):
        configs = [RunConfig().override(contact={"cof": 0.05 + 0.04 * i},
                                        rotor={"preload": 30.0 + 15.0 * (i % 5)})
                   for i in range(12)]
        batch = simulate_batch(stator_model, self.rows(configs), duration=self.DURATION)
        for cfg, row in zip(configs, batch):
            assert row.divergence is None
            assert_same_run(row, self.solo(stator_model, cfg))


class TestPropagator:
    """Every entry of the step map's linear part against the closed-form
    solutions of its decoupled systems: the damped modal oscillator, the
    rotor's axial motion with and without its damper, and its free spin.
    The light rotors make the axial motion stiff, c_z h / m from about 8 to
    170, far beyond the modal rate omega h of about 0.03 that shares their
    map.  The drive and the reaction history against the closed-form
    responses to a harmonic force and to a polynomial one."""

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

    @staticmethod
    def build(diagonals, h, drive=np.zeros((4, 2)), omega=0.0, reaction=None):
        if reaction is None:
            reaction = np.random.default_rng(5).standard_normal((2, 6, 4))
        return _step_map(*diagonals, drive, omega, reaction, h)

    @staticmethod
    def diagonals(model, c_z=700.0, mass=RotorConfig.mass, inertia=RotorConfig.inertia):
        omega, zeta = model.pair.omega, model.damping_ratio
        return (np.array([1.0, 1.0, mass, inertia]),
                np.array([2.0 * zeta * omega] * 2 + [c_z, 0.0]),
                np.array([omega ** 2] * 2 + [0.0, 0.0]))

    @pytest.mark.parametrize("c_z, mass", [
        (700.0, RotorConfig.mass), (0.0, RotorConfig.mass), (700.0, 1e-5), (700.0, 1e-6),
    ], ids=["700.0", "0.0", "700.0-1e-05", "700.0-1e-06"])
    @pytest.mark.parametrize("scale", [1.0, 2.0])
    def test_matches_closed_forms(self, stator_model, c_z, mass, scale):
        omega, zeta = stator_model.pair.omega, stator_model.damping_ratio
        rotor = RotorConfig(axial_damping=c_z, mass=mass)
        mass, J = rotor.mass, rotor.inertia
        h = scale * step_grid(stator_model, RunConfig().drive)[0]
        reaction = np.random.default_rng(5).standard_normal((2, 6, 4))
        # a drive on both modes, which must leave the state block alone
        step = self.build(self.diagonals(stator_model, c_z, mass), h,
                          np.array([[-900.0, 0.0], [0.0, 900.0], [0, 0], [0, 0]]),
                          2.0 * math.pi * 41e3, reaction)
        assert step.shape == (F0 + 12, F0)

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

        # the state rows, and the rows of the loads d[2:], held over the step;
        # abs=0: every entry the closed forms leave at zero is exactly zero
        assert step[:8, :8] == pytest.approx(expected[:8], rel=1e-14, abs=0.0)
        assert step[D0 + 2:F0, :8] == pytest.approx(expected[10:], rel=1e-14, abs=0.0)
        assert not step[D0 + 2:F0, 8:D0].any()

        # [N | u] -> r_j and each r_(j-i) the map keeps -> itself, all exactly;
        # nothing else reaches the reactions
        r = np.zeros((F0 + 12, D0 - 8))
        r[F0:, :4] = np.concatenate(list(reaction))
        r[8:D0 - 4, 4:] = np.eye(D0 - 12)
        assert np.array_equal(step[:, 8:D0], r)

        # d -> d: [cos wt, sin wt] turns by wh, the held loads stay, exactly;
        # nothing else reaches d
        wh = 2.0 * math.pi * 41e3 * h
        turn = np.array([[math.cos(wh), math.sin(wh)], [-math.sin(wh), math.cos(wh)]])
        assert step[D0:D0 + 2, D0:D0 + 2] == pytest.approx(turn, rel=1e-14, abs=0.0)
        d = np.eye(F0 + 12, 4, -D0)
        d[D0:D0 + 2, :2] = step[D0:D0 + 2, D0:D0 + 2]
        assert np.array_equal(step[:, D0:], d)

    def test_rows_are_independent_of_their_batch(self, stator_model):
        """Each row's map scales by its own norm: rows whose axial motion
        needs different scalings give bitwise their solo maps together."""
        h = step_grid(stator_model, RunConfig().drive)[0]
        _, damping, stiffness = self.diagonals(stator_model)
        masses = np.array([[1.0, 1.0, m, RotorConfig.inertia] for m in (1e-2, 1e-5, 1e-6)])
        drive = np.array([[[f, 0.0], [0.0, -f], [0, 0], [0, 0]] for f in (-900.0, 1.0, 3e3)])
        omegas = np.array([2.5e5, 2.6e5, 3e5])
        reaction = np.random.default_rng(5).standard_normal((2, 3, 6, 4))
        batch = _step_map(masses, damping, stiffness, drive, omegas, reaction, h)
        for b in range(3):
            assert np.array_equal(batch[b], _step_map(masses[b], damping, stiffness, drive[b],
                                                      omegas[b], reaction[:, b], h))

    def test_drive_is_integrated_exactly(self, stator_model):
        """Contact-free, one mode under F cos(w t + psi) from rest, 400 steps
        of the map against the closed-form damped forced response."""
        omega_n, zeta = stator_model.pair.omega, stator_model.damping_ratio
        w, psi, force = 0.93 * omega_n, 0.7, -959.0
        h = step_grid(stator_model, RunConfig().drive)[0]
        drive = np.zeros((4, 2))
        drive[0] = force * math.cos(psi), -force * math.sin(psi)
        step = self.build(self.diagonals(stator_model), h, drive, w, np.zeros((2, 6, 4)))
        x = np.zeros(step.shape[0])       # at rest, with d = [cos w t_j, sin w t_j, 0, 0]
        x[D0] = 1.0
        for j in range(400):
            x[:F0] = x @ step

        # the steady response a e^(i w t) plus the free decay that starts at rest
        a = force * np.exp(1j * psi) / (omega_n ** 2 - w * w + 2j * zeta * omega_n * w)
        sigma, omega_d = zeta * omega_n, omega_n * math.sqrt(1.0 - zeta * zeta)
        c0 = -a.real
        s0 = (-(1j * w * a).real + sigma * c0) / omega_d
        end = h * 400
        free = np.exp(-sigma * end) * np.array(
            [c0 * math.cos(omega_d * end) + s0 * math.sin(omega_d * end),
             (s0 * omega_d - sigma * c0) * math.cos(omega_d * end)
             - (c0 * omega_d + sigma * s0) * math.sin(omega_d * end)])
        steady = np.array([(a * np.exp(1j * w * end)).real,
                           (1j * w * a * np.exp(1j * w * end)).real])
        exact = steady + free
        assert np.abs(x[[0, 4]] - exact).max() <= 1e-12 * abs(a) * w
        assert not x[[1, 2, 3, 5, 6, 7]].any()
        # the map's own phase, and the loads it holds at zero
        assert x[D0:D0 + 2] == pytest.approx([math.cos(w * end), math.sin(w * end)],
                                             rel=0.0, abs=1e-13)
        assert not x[D0 + 2:F0].any()

    def test_drive_phase_at_the_end_of_a_default_run(self, stator_model, monkeypatch):
        """The step loop writes d once, at t = 0, and the map advances it:
        the last step map input of a default run, the final state's, holds
        [cos w t, sin w t] of its n steps within 1e-11, and the held loads
        unchanged."""
        cfg = RunConfig()
        h, steps_per_sample, n_samples = step_grid(stator_model, cfg.drive)
        d = []
        dot = dynamics._dot

        def recording(a, b, out):
            if b.shape[-1] == F0:         # the step map
                d.append(a[D0:F0].copy())
            return dot(a, b, out)

        monkeypatch.setattr(dynamics, "_dot", recording)
        simulate(stator_model, cfg.drive, cfg.contact, cfg.rotor)
        steps = (n_samples - 1) * steps_per_sample
        assert len(d) == steps + 1 == 21001
        wt = 2.0 * math.pi * cfg.drive.resolve_frequency(stator_model.pair) * steps * h
        assert d[-1][:2] == pytest.approx([math.cos(wt), math.sin(wt)], rel=0.0, abs=1e-11)
        assert list(d[-1][2:]) == [-cfg.rotor.preload, -cfg.rotor.load_torque]

    @staticmethod
    def polynomial_response(mass, damping, stiffness, forcing):
        """Coefficients a of x = sum a_k t^k with mass x'' + damping x' +
        stiffness x = sum forcing_k t^k, x(0) = 0 on the rigid motions:
        t^k's coefficients, matched from the top, solve for a_k, a_(k+1) or
        a_(k+2), whichever term is the lowest present."""
        a = np.zeros(len(forcing) + 2)
        for k in range(len(forcing) - 1, -1, -1):
            rest = forcing[k] - mass * (k + 2) * (k + 1) * a[k + 2]
            if stiffness:
                a[k] = (rest - damping * (k + 1) * a[k + 1]) / stiffness
            elif damping:
                a[k + 1] = rest / (damping * (k + 1))
            else:
                a[k + 2] = forcing[k] / (mass * (k + 2) * (k + 1))
        return a

    def test_reaction_polynomial_is_integrated_exactly(self, stator_model):
        """Reactions on a polynomial of the scheme's degree, with a history
        on the same polynomial, from the state that the polynomial response
        holds at t = 0: 300 steps end on that response, which is a
        polynomial too, on the modes, the damped axial motion and the free
        spin."""
        h = step_grid(stator_model, RunConfig().drive)[0]
        diagonals = self.diagonals(stator_model)
        degree = len(dynamics._HISTORY[0]) - 1
        span = 300 * h
        # r(t) = sum_k p_k (t / span)^k on each coordinate
        p = np.random.default_rng(3).standard_normal((degree + 1, 4)) * [1e2, 1e2, 10.0, 1e-2]
        forcing = p / span ** np.arange(degree + 1)[:, None]
        coef = np.array([self.polynomial_response(*(d[i] for d in diagonals), forcing[:, i])
                         for i in range(4)]).T
        powers = np.arange(len(coef))

        def response(t):
            return np.concatenate([t ** powers @ coef, (powers[1:] * t ** powers[:-1]) @ coef[1:]])

        def force(t):
            return (t / span) ** np.arange(degree + 1) @ p

        reaction = np.stack([np.eye(4)[:2], np.eye(4)[2:]])   # [N | u] is r itself
        step = self.build(diagonals, h, reaction=reaction)
        x = np.zeros(step.shape[0])
        x[:8] = response(0.0)
        for i in range(1, HISTORY):       # r_(-i) in its slot
            x[4 + 4 * i:8 + 4 * i] = force(-i * h)
        for j in range(300):
            x[F0:F0 + 4] = force(j * h)
            x[:F0] = x @ step
        scale = np.abs([response(t) for t in np.linspace(0.0, span, 7)]).max(axis=0)
        assert np.all(np.abs(x[:8] - response(span)) <= 1e-12 * scale)


class TestChunkEdges:
    """The step loop runs in chunks of whole sample intervals, as many as
    fit in ``_CHUNK_ROW_STEPS`` steps x rows, at least one; a sample
    interval holds at most ``_CHUNK_STEPS`` steps, so one always fits.  The
    edge cases keep the values of the unchunked loop (the last sample of
    each run below, rel 1e-10) and bitwise batch independence, and no
    result depends on the chunk length."""

    CASES = {
        "one step per sample": (2e-5, 5e-8, {
            "surface_speed": 1.142583979825298e-05,
            "surface_displacement": 6.480248153766915e-11,
            "torque": 0.022235141902223594,
            "axial_force": 15.524133660622493,
            "wave_amplitude": 5.796851974884806e-07,
        }),
        # 1,237 steps per sample at the default step: more than _CHUNK_STEPS,
        # so the grid is refused
        "sample interval longer than a chunk": (6e-4, 3e-4, None),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_reference_values(self, stator_model, case):
        duration, interval, reference = self.CASES[case]
        cfg = RunConfig()
        if reference is None:
            with pytest.raises(ValueError, match=r"^simulation\.dt 2\.4265e-07 s is 1237 steps "
                                                 r"per sample of 0\.0003 s"):
                simulate(stator_model, cfg.drive, cfg.contact, cfg.rotor,
                         duration=duration, output_interval=interval)
            return
        assert step_grid(stator_model, cfg.drive, output_interval=interval)[1] == 1
        series = simulate(stator_model, cfg.drive, cfg.contact, cfg.rotor,
                          duration=duration, output_interval=interval)
        assert len(series) == round(duration / interval) + 1
        for name, value in reference.items():
            assert getattr(series, name)[-1] == pytest.approx(value, rel=1e-10), name
        assert series.energy.residual_fraction < 0.01

        other = RunConfig().override(contact={"cof": 0.35})
        rows = [(c.drive, c.contact, c.rotor) for c in (other, cfg)]
        batch = simulate_batch(stator_model, rows, duration=duration,
                               output_interval=interval)
        assert_same_run(batch[1], series)

    def test_longest_sample_interval(self, stator_model):
        """9.765625e-9 s puts exactly ``_CHUNK_STEPS`` = 1024 steps in the
        default 10 us interval, so each chunk is one interval: it steps, and a
        run alone is bitwise its row in a batch of three.  1e-5 / 1025 s puts
        1025 steps there and is refused."""
        configs = [RunConfig(),
                   RunConfig().override(contact={"cof": 0.35}),
                   RunConfig().override(rotor={"load_torque": 0.01})]
        rows = [(c.drive, c.contact, c.rotor) for c in configs]
        assert step_grid(stator_model, configs[0].drive, dt=9.765625e-9)[1] == _CHUNK_STEPS
        solo = simulate(stator_model, *rows[0], duration=1e-4, dt=9.765625e-9)
        batch = simulate_batch(stator_model, rows, duration=1e-4, dt=9.765625e-9)
        assert len(solo) == 11 and solo.energy is not None and solo.divergence is None
        assert abs(solo.energy.residual_fraction) < 0.01
        assert_same_run(solo, batch[0])
        refused = r"^simulation\.dt .* s is 1025 steps per sample"
        with pytest.raises(ValueError, match=refused):
            step_grid(stator_model, configs[0].drive, dt=1e-5 / 1025)
        with pytest.raises(ValueError, match=refused):
            simulate(stator_model, *rows[0], duration=1e-4, dt=1e-5 / 1025)

    @staticmethod
    def chunked(monkeypatch, intervals, steps_per_sample, rows):
        """Chunks of ``intervals`` sample intervals for a batch of ``rows``."""
        monkeypatch.setattr(dynamics, "_CHUNK_ROW_STEPS", intervals * steps_per_sample * rows)

    # 31 and 400 sample intervals: three per chunk leaves a shorter last chunk
    GRIDS = {"default": (3.1e-4, 1e-5), "one step per sample": (2e-5, 5e-8)}

    @pytest.mark.parametrize("grid", GRIDS)
    def test_results_do_not_depend_on_the_chunk_length(self, stator_model, monkeypatch,
                                                       grid):
        """A solo run and its row in a batch of three, with chunks of 1, 2
        and 3 sample intervals: the ledger sums each interval, then adds
        the sums in time order, so every series and ledger is bitwise one."""
        duration, interval = self.GRIDS[grid]
        configs = [RunConfig(),
                   RunConfig().override(contact={"cof": 0.35}),
                   RunConfig().override(rotor={"load_torque": 0.01})]
        rows = [(c.drive, c.contact, c.rotor) for c in configs]
        steps_per_sample = step_grid(stator_model, configs[0].drive,
                                     output_interval=interval)[1]
        runs = []
        for intervals in (1, 2, 3):
            self.chunked(monkeypatch, intervals, steps_per_sample, 1)
            solo = simulate(stator_model, *rows[0], duration=duration,
                            output_interval=interval)
            self.chunked(monkeypatch, intervals, steps_per_sample, 3)
            batch = simulate_batch(stator_model, rows, duration=duration,
                                   output_interval=interval)
            assert solo.energy is not None and solo.divergence is None
            runs.append([solo, *batch])
        for chunked in runs[1:]:
            for a, b in zip(runs[0], chunked):
                assert_same_run(a, b)
        assert_same_run(runs[0][0], runs[0][1])

    def test_divergence_found_anywhere_in_a_chunk(self, stator_model, monkeypatch):
        """At k = 1e18 N/m q_cos is non-finite at the second sample, t = 1e-5 s.
        With chunks of one interval that sample starts a chunk; with two or
        three it lies inside one.  The report and the truncation agree."""
        cfg = RunConfig().override(contact={"penalty_stiffness": 1e18})
        steps_per_sample = step_grid(stator_model, cfg.drive)[1]
        runs = []
        for intervals in (1, 2, 3):
            self.chunked(monkeypatch, intervals, steps_per_sample, 1)
            runs.append(simulate(stator_model, cfg.drive, cfg.contact, cfg.rotor,
                                 duration=3e-4))
        first = runs[0].divergence
        assert (first.entry, first.last_valid_time) == ("q_cos", 0.0)
        assert first.time == pytest.approx(1e-5, rel=1e-12)
        for run in runs:
            report = run.divergence
            assert (report.entry, report.time, report.last_valid_time) \
                == (first.entry, first.time, first.last_valid_time)
            assert len(run) == 1 and run.energy is None
            assert_same_run(run, runs[0])


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

    def test_rows_match_per_value_formatting(self, tmp_path):
        """Each value is written as ``f"{v:.17g}"`` writes it, signed zero,
        subnormals, the largest magnitudes and non-finite values included."""
        special = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 0.1])
        cols = [np.roll(special, k) for k in range(7)]
        series = MotorTimeSeries(*cols)
        path = tmp_path / "ts.csv"
        series.to_csv(path)
        rows = [",".join(f"{v:.17g}" for v in row) for row in zip(*cols)]
        assert path.read_bytes() == "\n".join(
            ["t,s_speed,surf_disp,fric_probe,torque,fz,wave_amp", *rows, ""]).encode()


class TestDetectSteadyState:
    def test_exponential_settle_time(self):
        tau = 3e-4
        t = np.arange(0, 5e-3, 1e-5)
        series = synthetic_series(t, 1.0 - np.exp(-t / tau))
        t_ss, settled = detect_steady_state(series)
        assert settled
        assert t_ss == pytest.approx(4 * tau, rel=0.25)

    def test_constant_series_settles_immediately(self):
        t = np.arange(0, 5e-3, 1e-5)
        series = synthetic_series(t, np.full_like(t, 2.0))
        t_ss, settled = detect_steady_state(series)
        assert settled
        assert t_ss == pytest.approx(2.5e-4, rel=1e-9)

    def test_growing_series_not_settled(self):
        t = np.arange(0, 5e-3, 1e-5)
        series = synthetic_series(t, 1.0 + 1e4 * t)
        t_ss, settled = detect_steady_state(series)
        assert not settled
        assert t_ss == pytest.approx(t[-1])

    def test_one_sample_refused(self):
        with pytest.raises(ValueError, match="^series too short$"):
            detect_steady_state(synthetic_series(np.zeros(1), np.ones(1)))

    def test_boundary_is_the_sample_time(self, stator_model):
        """t_ss is the boundary sample's own time, so a mask time >= t_ss keeps
        that sample.  The step loop writes sample i at i x output_interval,
        whatever the steps per sample (42 on the default grid), so the series
        holds 475 x 1e-5 s for the sample at 4.75 ms: one ulp above 19
        settling windows of 2.5e-4 s, which t_ss must not be."""
        cfg = short_cfg()
        series = run_short(stator_model, cfg)
        interval = cfg.simulation.output_interval
        assert step_grid(stator_model, cfg.drive, 1e-3, interval)[1] == 42
        assert np.array_equal(series.time, np.arange(len(series)) * interval)
        t = np.arange(501) * interval    # the sample index times the interval, as simulated
        window = np.arange(501) // 25
        series = synthetic_series(t, 2.0 ** np.minimum(window, 18))
        t_ss, settled = detect_steady_state(series)
        assert settled and t_ss == t[475]
        assert np.count_nonzero(t >= t_ss) == 501 - 475

    @pytest.mark.parametrize("duration, interval, enough", [
        (4.9e-4, 1e-5, True), (4.8e-4, 1e-5, False), (5e-4, 2.5e-4, True),
        (2.4e-4, 1e-4, False), (1e-3, 3e-5, True)])
    def test_settling_windows_predict_the_verdict(self, stator_model, duration, interval,
                                                  enough):
        """``step_grid`` refuses a run, before it is stepped, exactly when the
        verdict on its series cannot be reached: 50 samples at 10 us fill two
        windows of 25, so 0.49 ms is enough and 0.48 ms is not.  A 1 kHz
        drive's 1 ms period holds at least 2 samples at every interval here,
        so the envelope rule refuses none of them."""
        t = np.arange(round(duration / interval) + 1) * interval
        series = synthetic_series(t, np.full_like(t, 2.0))
        drive = RunConfig().override(drive={"frequency": 1e3}).drive
        if enough:
            assert step_grid(stator_model, drive, duration, interval)[2] == len(t)
            assert detect_steady_state(series)[1]
        else:
            with pytest.raises(ValueError, match="shorter than two settling windows"):
                step_grid(stator_model, drive, duration, interval)
            with pytest.raises(ValueError, match="shorter than two windows"):
                detect_steady_state(series)

    @pytest.mark.parametrize("interval, enough", [
        (1e-5, True), (1.6e-5, True), (1.7e-5, False), (1e-4, False), (3e-4, False)])
    def test_envelope_window_predicts_admission(self, stator_model, interval, enough):
        """``step_grid`` refuses a sample interval that leaves fewer than 2
        samples in the drive period, the window ``envelope_average`` takes:
        round(24.27 / 16) = 2 and round(24.27 / 17) = 1.  At 0.3 ms the
        default step puts 1,237 steps in a sample, more than the step loop
        admits, and that refusal comes first; 0.1 ms puts 413."""
        drive = RunConfig().drive
        period = 1.0 / drive.resolve_frequency(stator_model.pair)
        assert (dynamics._window_length(period, interval) >= 2) == enough
        if enough:
            step_grid(stator_model, drive, 5e-3, interval)
        else:
            with pytest.raises(ValueError) as info:
                step_grid(stator_model, drive, 5e-3, interval)
            assert str(info.value) == (
                "simulation.dt 2.4265e-07 s is 1237 steps per sample of 0.0003 s; "
                "a sample holds at most 1024" if interval == 3e-4 else
                f"simulation.output_interval {interval:g} s leaves fewer than 2 samples "
                f"in the drive period of {period:g} s, the torque envelope's window")


# mixed signs and magnitudes from 1e-12 to 1e3, and zeros of either sign
MEDIAN_VALUES = st.one_of(
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]), st.floats(1.0, 10.0), st.integers(-12, 2)),
    st.sampled_from([0.0, -0.0]))


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
        """Fewer than 5 envelope points give NaN, the summary's null torque."""
        _, series = self.make(np.zeros(500))
        assert math.isnan(envelope_average(series, 4.8e-3, period=1.0 / self.F))

    def test_t_ss_outside_span_rejected(self):
        _, series = self.make(np.zeros(500))
        with pytest.raises(ValueError, match="outside"):
            envelope_average(series, 1.0, period=1.0 / self.F)

    @settings(max_examples=300, deadline=None)
    @given(values=st.one_of(
        st.lists(MEDIAN_VALUES, min_size=1, max_size=300),
        st.lists(MEDIAN_VALUES, min_size=1, max_size=6).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=300))))
    @example(values=[-0.0])
    @example(values=[0.0, -0.0, 1.0, -0.0])
    def test_median_is_numpys_bit_for_bit(self, values):
        """The median the envelope's centre and spread are taken from is
        NumPy's, bit for bit, at odd and even lengths, with ties (drawn from
        a small pool) and zeros of either sign."""
        values = np.array(values)
        expected = np.median(values)
        median = dynamics._median(values)
        assert type(median) is type(expected)
        assert median.tobytes() == expected.tobytes()


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
        t_ss, settled = detect_steady_state(series)
        assert settled == any(agree)
        assert t_ss == (t[(agree.index(True) + 1) * wlen] if any(agree) else t[-1])

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

    @pytest.mark.parametrize("t_ss", [-1e-5, 1e-3])
    def test_t_ss_outside_span_rejected(self, t_ss):
        t = np.arange(0, 1e-3, 1e-5)
        with pytest.raises(ValueError, match="outside the series span"):
            mean_speed(synthetic_series(t, np.zeros_like(t)), t_ss)


class TestRotorConfig:
    @pytest.mark.parametrize("bad", [
        {"inertia": 0.0},
        {"mass": -1.0},
        {"axial_damping": -1.0},
        {"preload": -5.0},
    ])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            RotorConfig(**bad)
