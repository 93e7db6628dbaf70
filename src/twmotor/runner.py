"""Composes the module pipeline: config -> stator model -> transient -> summary."""

from __future__ import annotations

from . import dynamics, stator, wave
from .config import RunConfig
from .dynamics import MotorTimeSeries


def build_stator(config: RunConfig) -> stator.StatorModel:
    """Solve the ring modes: the ``eigen`` table and the drive mode pair."""
    geom = config.geometry
    modes, pair = stator.ring_modes(geom, config.stator_material,
                                    config.mesh.n_elements, config.mesh.modes)
    forcing = stator.piezo_modal_force(pair, geom, config.piezo_material, voltage=1.0)
    return stator.StatorModel(
        geometry=geom, modes=modes, pair=pair, forcing_per_volt=forcing,
        damping_ratio=config.damping_ratio,
    )


def admit(config: RunConfig, model: stator.StatorModel) -> tuple[float, int, int]:
    """The admission rule of a run on a built stator: its (step, steps per
    sample, sample count).

    ``run_motor``, each sweep row and ``twmotor validate`` ask it before
    any step.  Raises ValueError for what ``dynamics.step_grid`` refuses,
    then for too few contact points to resolve the drive pair's waves.
    """
    sim = config.simulation
    grid = dynamics.step_grid(model, config.drive, sim.duration, sim.output_interval,
                              sim.dt)
    config.contact.check_resolution(model.pair.nodal_diameters)
    return grid


def run_motor(config: RunConfig, model: stator.StatorModel | None = None
              ) -> tuple[MotorTimeSeries, dict]:
    """Full transient pipeline; raises SimulationDiverged on blow-up.

    A run that ``admit`` refuses (ValueError) is refused once the stator is
    built, before it is stepped.
    """
    if model is None:
        model = build_stator(config)
    grid = admit(config, model)
    sim = config.simulation
    series = dynamics.simulate(
        model, config.drive, config.contact, config.rotor,
        duration=sim.duration, output_interval=sim.output_interval, dt=sim.dt,
    )
    return series, summarize(config, model, series, grid)


def summarize(config: RunConfig, model: stator.StatorModel, series: MotorTimeSeries,
              grid: tuple[float, int, int]) -> dict:
    """Settling, envelope torque and mean speed of one transient.

    ``reported_torque`` is ``dynamics.envelope_average`` after ``t_ss``:
    the mean of per-window torque maxima, each window round(period /
    output interval) samples, which is 2 samples at the default 10 us
    interval against a 24.27 us drive period.  It is an upper envelope of
    point samples, not a mean torque; acceptance gates 6 and 7 read it.
    ``ideal_speed`` is ``wave.ideal_no_slip_speed`` of the contact-free
    steady wave at the drive voltage, None for a standing-wave share of 1%
    or more; it is not a bound, since contact changes the wave (README).
    Also the step ``dt`` and the number of ``steps`` taken, read from
    ``grid``, the (step, steps per sample, sample count) that ``admit``
    returned for the run, and the energy
    ledger as flat keys: ``energy_`` and each ``EnergyReport`` field, the
    field ``energy_change`` keeping its name.  Raises the series'
    ``divergence`` (SimulationDiverged) if it diverged.
    """
    if series.divergence is not None:
        raise series.divergence
    t_ss, settled = dynamics.detect_steady_state(series)
    f_drive = config.drive.resolve_frequency(model.pair)
    torque = dynamics.envelope_average(series, t_ss, period=1.0 / f_drive)
    speed = dynamics.mean_speed(series, t_ss)
    force = model.forcing_per_volt * config.drive.voltage
    free_wave = wave.steady_wave_response(model.pair, force, config.drive, model.damping_ratio)
    dt, steps_per_sample, _ = grid
    return {
        "t_ss": t_ss,
        "settled": settled,
        "reported_torque": torque,
        "mean_speed": speed,
        "mean_surface_speed": speed * model.geometry.mean_radius,
        "ideal_speed": wave.ideal_no_slip_speed(free_wave, model.geometry),
        "drive_frequency": f_drive,
        "wave_amplitude_final": float(series.wave_amplitude[-1]),
        "dt": dt,
        "steps": (len(series) - 1) * steps_per_sample,
        **{k if k.startswith("energy_") else f"energy_{k}": v
           for k, v in vars(series.energy).items()},
    }
