"""Composes the module pipeline: config -> stator model -> transient -> summary."""

from __future__ import annotations

import dataclasses
import math

from . import dynamics, materials, stator, wave
from .config import ConfigError, RunConfig
from .dynamics import MotorTimeSeries


def resolve_materials(config: RunConfig
                      ) -> tuple[materials.IsotropicMaterial, materials.PiezoMaterial]:
    """The stator and piezo materials of a config: catalog names or inline data.

    Raises ConfigError for an unknown name, an entry that is neither a name
    nor an object, a missing, wrongly typed or invalid field, or a material
    of the wrong kind.
    """
    def resolve(source, key):
        if isinstance(source, str):
            try:
                return materials.lookup(source)
            except KeyError as exc:
                raise ConfigError(exc.args[0]) from None
        if not isinstance(source, dict):
            raise ConfigError("material entry must be a catalog name or an object, "
                              f"not {type(source).__name__}")
        try:
            return materials.load_material(source)
        except KeyError as exc:
            raise ConfigError(f"material entry lacks {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ConfigError(f"material entry has a field of the wrong type: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"material entry {key} has an invalid value: {exc}") from None

    ring_mat = resolve(config.stator_material, "stator_material")
    piezo = resolve(config.piezo_material, "piezo_material")
    if not isinstance(ring_mat, materials.IsotropicMaterial):
        raise ConfigError("stator material must be isotropic")
    if not isinstance(piezo, materials.PiezoMaterial):
        raise ConfigError("piezo material must carry full matrix data")
    return ring_mat, piezo


def build_stator(config: RunConfig) -> stator.StatorModel:
    """Solve the ring modes and select the drive mode pair."""
    ring_mat, piezo = resolve_materials(config)
    geom = config.geometry
    try:
        modes = stator.ring_modes(geom, ring_mat, config.mesh.n_elements,
                                  config.mesh.modes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    pair = stator.select_mode_pair(modes, geom.drive_nodal_diameters)
    forcing = stator.piezo_modal_force(pair, geom, piezo, voltage=1.0,
                                       piezo_offset=config.piezo_offset)
    return stator.StatorModel(
        geometry=geom, modes=modes, pair=pair, forcing_per_volt=forcing,
        damping_ratio=config.damping_ratio,
    )


def ideal_speed(config: RunConfig, model: stator.StatorModel) -> float | None:
    """No-slip speed bound of the steady drive wave; None if not a pure wave."""
    force = model.forcing_per_volt * config.drive.voltage
    sol = wave.steady_wave_response(model.pair, force, config.drive, config.damping_ratio)
    try:
        return wave.ideal_no_slip_speed(sol, model.geometry)
    except ValueError:
        return None


def run_motor(config: RunConfig, model: stator.StatorModel | None = None
              ) -> tuple[MotorTimeSeries, dict]:
    """Full transient pipeline; raises SimulationDiverged on blow-up.

    A run that ``dynamics.step_grid`` refuses (ValueError) is refused once
    the stator is built, before it is stepped.
    """
    if model is None:
        model = build_stator(config)
    sim = config.simulation
    dynamics.step_grid(model, config.drive, sim.duration, sim.output_interval, sim.dt)
    series = dynamics.simulate(
        model, config.drive, config.contact, config.rotor,
        duration=sim.duration, output_interval=sim.output_interval, dt=sim.dt,
    )
    return series, summarize(config, model, series)


def summarize(config: RunConfig, model: stator.StatorModel,
              series: MotorTimeSeries) -> dict:
    """Settling, envelope torque and mean speed of one transient.

    ``reported_torque`` is ``dynamics.envelope_average`` after ``t_ss``:
    the mean of per-window torque maxima, each window round(period /
    output interval) samples, which is 2 samples at the default 10 us
    interval against a 24.27 us drive period.  It is an upper envelope of
    point samples, not a mean torque; acceptance gates 6 and 7 read it.
    Also the step ``dt`` and the number of ``steps`` taken, and the energy
    ledger as flat keys: ``energy_`` and each ``EnergyReport`` field, the
    field ``energy_change`` keeping its name.  Raises the series'
    ``divergence`` (SimulationDiverged) if it diverged.
    """
    if series.divergence is not None:
        raise series.divergence
    steady = dynamics.detect_steady_state(series)
    f_drive = config.drive.resolve_frequency(model.pair)
    try:
        torque = dynamics.envelope_average(series, steady.t, period=1.0 / f_drive)
    except ValueError:
        torque = math.nan
    speed = dynamics.mean_speed(series, steady.t)
    omega_ideal = ideal_speed(config, model)
    sim = config.simulation
    dt, steps_per_sample, _ = dynamics.step_grid(model, config.drive, sim.duration,
                                                 sim.output_interval, sim.dt)
    return {
        "t_ss": steady.t,
        "settled": steady.settled,
        "reported_torque": torque,
        "mean_speed": speed,
        "mean_surface_speed": speed * model.geometry.mean_radius,
        "ideal_speed": omega_ideal,
        "drive_frequency": f_drive,
        "wave_amplitude_final": float(series.wave_amplitude[-1]),
        "dt": dt,
        "steps": (len(series) - 1) * steps_per_sample,
        **{k if k.startswith("energy_") else f"energy_{k}": v
           for k, v in dataclasses.asdict(series.energy).items()},
    }
