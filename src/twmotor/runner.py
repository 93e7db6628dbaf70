"""Composes the module pipeline: config -> stator model -> transient -> summary."""

from __future__ import annotations

import math

from . import dynamics, materials, stator, wave
from .config import ConfigError, RunConfig
from .dynamics import MotorTimeSeries, SimulationDiverged


def build_stator(config: RunConfig) -> stator.StatorModel:
    """Assemble the ring model and select the drive mode pair."""
    lib = materials.builtin_library()
    try:
        ring_mat = lib[config.stator_material] if isinstance(config.stator_material, str) \
            else materials.load_material(config.stator_material)
        piezo = lib[config.piezo_material] if isinstance(config.piezo_material, str) \
            else materials.load_material(config.piezo_material)
    except KeyError as exc:
        raise ConfigError(f"unknown material: {exc.args[0]}") from exc
    if not isinstance(ring_mat, materials.IsotropicMaterial):
        raise ConfigError("stator material must be isotropic")
    if not isinstance(piezo, materials.PiezoMaterial):
        raise ConfigError("piezo material must carry full matrix data")

    geom = config.geometry
    try:
        mesh = stator.build_ring_mesh(geom, config.mesh.n_elements)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    system = stator.assemble_system(mesh, ring_mat, geom)
    modes = stator.solve_eigen(system, config.mesh.modes, mesh)
    n = geom.drive_nodal_diameters
    pair = stator.select_mode_pair(modes, n, system)
    neighbors = []
    if config.simulation.neighbor_pairs:
        for m in (n - 1, n + 1):
            if m >= 1:
                neighbors.append(stator.select_mode_pair(modes, m, system))
    forcing = stator.piezo_modal_force(
        pair, geom, piezo, stator.alternating_electrodes(n),
        voltage=1.0, piezo_offset=config.piezo_offset,
    )
    return stator.StatorModel(
        geometry=geom, mesh=mesh, system=system, modes=modes, pair=pair,
        neighbor_pairs=tuple(neighbors), forcing_per_volt=forcing,
        damping_ratio=config.damping_ratio,
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
