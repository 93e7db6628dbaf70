"""Composes the module pipeline: config -> stator model -> transient -> summary."""

from __future__ import annotations

import math

from . import dynamics, materials, stator, wave
from .config import ConfigError, RunConfig
from .dynamics import MotorTimeSeries, SimulationDiverged


def resolve_materials(config: RunConfig
                      ) -> tuple[materials.IsotropicMaterial, materials.PiezoMaterial]:
    """The stator and piezo materials of a config: catalog names or inline data.

    Raises ConfigError for an unknown name or a material of the wrong kind.
    """
    def resolve(source):
        if isinstance(source, str):
            try:
                return materials.lookup(source)
            except KeyError as exc:
                raise ConfigError(exc.args[0]) from None
        try:
            return materials.load_material(source)
        except KeyError as exc:
            raise ConfigError(f"material entry lacks {exc.args[0]!r}") from None

    ring_mat = resolve(config.stator_material)
    piezo = resolve(config.piezo_material)
    if not isinstance(ring_mat, materials.IsotropicMaterial):
        raise ConfigError("stator material must be isotropic")
    if not isinstance(piezo, materials.PiezoMaterial):
        raise ConfigError("piezo material must carry full matrix data")
    return ring_mat, piezo


def build_stator(config: RunConfig) -> stator.StatorModel:
    """Assemble the ring model and select the drive mode pair."""
    ring_mat, piezo = resolve_materials(config)
    geom = config.geometry
    try:
        mesh = stator.build_ring_mesh(geom, config.mesh.n_elements)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    system = stator.assemble_system(mesh, ring_mat, geom)
    modes = stator.solve_eigen(system, config.mesh.modes, mesh)
    pair = stator.select_mode_pair(modes, geom.drive_nodal_diameters, system)
    forcing = stator.piezo_modal_force(pair, geom, piezo, voltage=1.0,
                                       piezo_offset=config.piezo_offset)
    return stator.StatorModel(
        geometry=geom, mesh=mesh, system=system, modes=modes, pair=pair,
        forcing_per_volt=forcing, damping_ratio=config.damping_ratio,
    )


def ideal_speed(config: RunConfig, model: stator.StatorModel) -> float | None:
    """No-slip speed bound of the steady drive wave; None if not a pure wave."""
    forcing = model.forcing_per_volt
    sol = wave.steady_wave_response(
        model.pair,
        forcing.f_cos * config.drive.voltage,
        forcing.f_sin * config.drive.voltage,
        config.drive, config.damping_ratio,
    )
    try:
        return wave.ideal_no_slip_speed(sol, model.geometry)
    except ValueError:
        return None


def run_motor(config: RunConfig, model: stator.StatorModel | None = None
              ) -> tuple[MotorTimeSeries, dict]:
    """Full transient pipeline; raises SimulationDiverged on blow-up."""
    if model is None:
        model = build_stator(config)
    sim = config.simulation
    series = dynamics.simulate(
        model, config.drive, config.contact, config.rotor,
        duration=sim.duration, output_interval=sim.output_interval, dt=sim.dt,
    )
    return series, summarize(config, model, series)


def summarize(config: RunConfig, model: stator.StatorModel,
              series: MotorTimeSeries) -> dict:
    """Settling, envelope torque and mean speed of one transient.

    Raises SimulationDiverged if the series diverged.
    """
    if series.diverged:
        raise SimulationDiverged(series.last_valid_time)
    steady = dynamics.detect_steady_state(series)
    f_drive = config.drive.resolve_frequency(model.pair)
    try:
        torque = dynamics.envelope_average(series, steady.t, period=1.0 / f_drive)
    except ValueError:
        torque = math.nan
    speed = dynamics.mean_speed(series, steady.t)
    omega_ideal = ideal_speed(config, model)
    return {
        "t_ss": steady.t,
        "settled": steady.settled,
        "reported_torque": torque,
        "mean_speed": speed,
        "mean_surface_speed": speed * model.geometry.mean_radius,
        "ideal_speed": omega_ideal,
        "drive_frequency": f_drive,
        "wave_amplitude_final": float(series.wave_amplitude[-1]),
    }
