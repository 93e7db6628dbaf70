"""Coupled stator-rotor transient simulation and probe post-processing.

The stator is reduced to its drive mode pair (two modal oscillators with
mass-normalized coordinates); the rigid rotor carries an axial
translation and a spin DOF.  Per fixed step, the contact law of
``contact.py`` (``evaluate_contact`` on the gap and slip at every contact
point, then ``modal_reaction``) is evaluated at the step start
(explicit), while the linear modal and rotor dynamics are advanced with
their exact propagators: the electrode drive is sampled at the step
midpoint, and the contact reactions are extrapolated there from the last
two evaluations.  This keeps the integration robust against the stiff
penalty forces; accuracy is monitored by an energy-bookkeeping residual
accumulated alongside the states.

``simulate_batch`` runs B transients that share the stator and the step
grid in one step loop.  Each run is one row of (B, 1, K) arrays; its state
is [q_cos, q_sin, z, phi | q_cos', q_sin', z', omega].  A step is three
small matrix products per row around the law: the kinematics map from
the state to [gap | slip], the reactions, and a propagator that also
folds in the midpoint drive and the reaction extrapolation.  The loop
runs in chunks of up to one sample interval (and at most
``_CHUNK_STEPS`` steps): a chunk evaluates the drive and the preload
ramp at all its steps at once, and reduces the energy ledger's powers
from its history of states, gaps, slips and forces.  Every operation
acts on each row alone, so a row's results are bitwise the same
whatever batch it runs in.  ``simulate`` is the batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import contact
from .stator import StatorModel
from .wave import DriveConfig

__all__ = [
    "RotorConfig",
    "MotorTimeSeries",
    "EnergyReport",
    "SteadyState",
    "SimulationDiverged",
    "step_grid",
    "simulate",
    "simulate_batch",
    "detect_steady_state",
    "envelope_average",
    "mean_speed",
]

CSV_HEADER = "t,s_speed,surf_disp,fric_probe,torque,fz,wave_amp"

_CHUNK_STEPS = 1024   # most steps one chunk of the step loop holds


class SimulationDiverged(RuntimeError):
    """Raised by callers when a run produced non-finite states."""

    def __init__(self, last_valid_time: float):
        super().__init__(f"simulation diverged; last valid time {last_valid_time:g} s")
        self.last_valid_time = last_valid_time


@dataclass(frozen=True)
class RotorConfig:
    """Rigid rotor parameters and external loading."""

    inertia: float = 2e-4         # kg m^2
    mass: float = 0.01            # kg
    axial_damping: float = 700.0  # N s/m
    preload: float = 50.0         # N, pressing the rotor onto the stator
    load_torque: float = 0.0      # N m, opposing rotation
    preload_ramp: float = 0.0     # s; 0 = full preload from t=0

    def __post_init__(self):
        if self.inertia <= 0 or self.mass <= 0:
            raise ValueError("inertia and mass must be > 0")
        if self.axial_damping < 0:
            raise ValueError("axial_damping must be >= 0")
        if self.preload < 0:
            raise ValueError("preload must be >= 0")
        if self.preload_ramp < 0:
            raise ValueError("preload_ramp must be >= 0")


@dataclass(frozen=True)
class EnergyReport:
    """Work/energy ledger of one transient run.

    ``residual`` is input work minus (energy change + dissipation); the
    fraction is relative to the drive work.
    """

    drive_work: float
    preload_work: float
    load_torque_work: float
    modal_dissipation: float
    friction_dissipation: float
    axial_dissipation: float
    energy_change: float
    residual: float
    residual_fraction: float


@dataclass
class MotorTimeSeries:
    """Uniformly sampled transient probes.

    ``surface_speed`` and ``surface_displacement`` are rim quantities
    R*omega_r and R*phi; divide by ``radius`` to get the rotor spin rate.
    """

    time: np.ndarray = field(repr=False)
    surface_speed: np.ndarray = field(repr=False)
    surface_displacement: np.ndarray = field(repr=False)
    friction_probe: np.ndarray = field(repr=False)
    torque: np.ndarray = field(repr=False)
    axial_force: np.ndarray = field(repr=False)
    wave_amplitude: np.ndarray = field(repr=False)
    radius: float = 1.0
    diverged: bool = False
    last_valid_time: float = 0.0
    energy: EnergyReport | None = None

    def __len__(self):
        return len(self.time)

    @property
    def rotor_speed(self) -> np.ndarray:
        return self.surface_speed / self.radius

    def to_csv(self, path):
        cols = (self.time, self.surface_speed, self.surface_displacement,
                self.friction_probe, self.torque, self.axial_force,
                self.wave_amplitude)
        lines = [CSV_HEADER]
        for row in zip(*cols):
            lines.append(",".join(f"{v:.17g}" for v in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path, radius: float = 1.0) -> "MotorTimeSeries":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(time=data[:, 0], surface_speed=data[:, 1],
                   surface_displacement=data[:, 2], friction_probe=data[:, 3],
                   torque=data[:, 4], axial_force=data[:, 5],
                   wave_amplitude=data[:, 6], radius=radius,
                   last_valid_time=float(data[-1, 0]))


def _phase_matrices(omega, zeta, dt):
    """Exact one-step propagator of q'' + 2 zeta w q' + w^2 q = const."""
    A = np.array([[0.0, 1.0], [-omega * omega, -2.0 * zeta * omega]])
    E = scipy.linalg.expm(A * dt)
    P = np.linalg.solve(A, E - np.eye(2))
    return E, P


def step_grid(stator: StatorModel, drive: DriveConfig, duration: float = 5e-3,
              output_interval: float = 1e-5,
              dt: float | None = None) -> tuple[float, int, int]:
    """The step rule of ``simulate``: (step, steps per sample, sample count).

    The step defaults to 1/(400 f_drive) and is snapped to an integer
    divider of the output interval; steps above 1/(200 f_drive) are
    rejected as unstable.
    """
    f_drive = drive.resolve_frequency(stator.pair)
    dt_nominal = dt if dt is not None else 1.0 / (400.0 * f_drive)
    if dt_nominal > 1.0 / (200.0 * f_drive):
        raise ValueError(
            f"dt={dt_nominal:g} s too coarse; need <= {1.0 / (200.0 * f_drive):g} s "
            "(1/(200 f_drive))"
        )
    steps_per_sample = max(1, math.ceil(output_interval / dt_nominal))
    return (output_interval / steps_per_sample, steps_per_sample,
            int(round(duration / output_interval)) + 1)


def simulate(stator: StatorModel, drive: DriveConfig,
             contact_cfg: contact.ContactConfig, rotor_cfg: RotorConfig,
             duration: float = 5e-3, output_interval: float = 1e-5,
             dt: float | None = None) -> MotorTimeSeries:
    """Fixed-step transient of the coupled motor, sampled at the output interval.

    The step follows ``step_grid``.  Deterministic for fixed inputs.
    Divergence truncates the series and sets its flag instead of raising.
    This is ``simulate_batch`` with one row.
    """
    return simulate_batch(stator, [(drive, contact_cfg, rotor_cfg)], duration=duration,
                          output_interval=output_interval, dt=dt)[0]


def _propagator(stator: StatorModel, rotor_cfg: RotorConfig, h: float) -> np.ndarray:
    """Exact one-step map [state | d | r | r_prev] -> next state of one row.

    The state is [q_cos, q_sin, z, phi | q_cos', q_sin', z', omega].  The
    forcing, held constant over the step, is d + 1.5 r - 0.5 r_prev, each
    laid out as [modal forces on the cos and sin shapes, axial force,
    torque]: d is the drive at the step midpoint plus the external loads
    (minus the preload, minus the load torque), and the contact reactions
    r are extrapolated to the midpoint from this step's and the previous
    step's evaluations, which keeps the coupling second order.
    """
    m, n = 4, 8       # positions [q_cos, q_sin, z, phi]; the state
    prop = np.zeros((n + m, n))
    E, Pm = _phase_matrices(stator.pair.omega, stator.damping_ratio, h)
    for pos in (0, 1):                  # both shapes share the pair's oscillator
        vel, force = m + pos, n + pos
        prop[pos, pos], prop[vel, pos], prop[force, pos] = E[0, 0], E[0, 1], Pm[0, 1]
        prop[pos, vel], prop[vel, vel], prop[force, vel] = E[1, 0], E[1, 1], Pm[1, 1]

    z, phi, zd, om = 2, 3, 6, 7
    fz, tz = 10, 11
    mass, c_z, J = rotor_cfg.mass, rotor_cfg.axial_damping, rotor_cfg.inertia
    prop[z, z] = prop[phi, phi] = prop[om, om] = 1.0
    if c_z > 0:
        gamma = c_z / mass
        x = gamma * h
        k_g = -math.expm1(-x) / gamma
        prop[zd, z] = k_g
        prop[fz, z] = (x + math.expm1(-x)) / (gamma * gamma * mass)
        prop[zd, zd] = math.exp(-x)
        prop[fz, zd] = k_g / mass
    else:
        prop[zd, z] = h
        prop[fz, z] = 0.5 * h * h / mass
        prop[zd, zd] = 1.0
        prop[fz, zd] = h / mass
    prop[om, phi] = h
    prop[tz, phi] = 0.5 * h * h / J
    prop[tz, om] = h / J
    forcing = prop[n:]
    return np.vstack([prop, 1.5 * forcing, -0.5 * forcing])


def simulate_batch(stator: StatorModel, rows, duration: float = 5e-3,
                   output_interval: float = 1e-5,
                   dt: float | None = None) -> list[MotorTimeSeries]:
    """Advance several transients on one stator together, one row each.

    ``rows`` holds (DriveConfig, ContactConfig, RotorConfig) triples.  The
    rows must share the step grid (``step_grid``) and the contact point
    count.  Every array operation acts on each row alone, so a row's series
    is bitwise the same whatever else runs in its batch.  A row that goes
    non-finite is truncated at its last valid sample and flagged; the
    other rows carry on.
    """
    drives, contacts, rotors = zip(*rows)
    contacts[0].check_resolution(stator.pair.nodal_diameters)
    law = contact.ContactBatch.stack(contacts)
    grids = {step_grid(stator, d, duration, output_interval, dt) for d in drives}
    if len(grids) != 1:
        raise ValueError("batched rows must share one step grid")
    h, steps_per_sample, n_samples = grids.pop()
    n_steps = (n_samples - 1) * steps_per_sample

    geom = stator.geometry
    R = geom.mean_radius
    B = len(drives)
    m = 4             # [q_cos, q_sin, z, phi]
    n = 2 * m         # positions, then velocities, each laid out as above
    M = law.point_count

    # mode shapes at the contact angles: their reaction operator maps the
    # stacked forces [N | f] to [Q_cos, Q_sin, F_z, T]; its adjoint, with
    # the rotor's z and R omega added, maps the state to the law's inputs
    # [gap | slip] = [z - q . phi | R omega + (z_c / R) q' . phi']
    theta = contact.contact_angles(contacts[0])
    amp, ndia = stator.pair.amp, stator.pair.nodal_diameters
    cos_n, sin_n = np.cos(ndia * theta), np.sin(ndia * theta)
    reaction = contact.reaction_operator(
        np.vstack([amp * cos_n, amp * sin_n]),
        np.vstack([-amp * ndia * sin_n, amp * ndia * cos_n]), geom)
    kin = np.zeros((n, 2 * M))
    kin[:2, :M] = reaction[:M, :2].T
    kin[2, :M] = 1.0
    kin[m:m + 2, M:] = reaction[M:, :2].T
    kin[n - 1, M:] = R
    prop = np.stack([_propagator(stator, r, h) for r in rotors])

    def per_row(values):
        return np.array(values, dtype=float)

    f_drive = per_row([d.resolve_frequency(stator.pair) for d in drives])
    omega_d = (2.0 * math.pi * f_drive)[:, None, None]
    voltage = per_row([d.voltage for d in drives])[:, None, None]
    force_cos = stator.forcing_per_volt.f_cos * voltage
    force_sin = stator.forcing_per_volt.f_sin * voltage
    phase = per_row([d.phase_offset for d in drives])[:, None, None]
    preload = per_row([r.preload for r in rotors])[:, None]
    ramp = per_row([r.preload_ramp for r in rotors])[:, None]
    ramp_divisor = np.where(ramp > 0, ramp, 1.0)
    load_torque = per_row([r.load_torque for r in rotors])[:, None, None]
    offsets = np.array([[0.0], [0.5 * h]])      # step start and midpoint

    omega_n = stator.pair.omega
    damping = np.zeros((B, m, 1))               # dissipated power per squared rate
    damping[:, :2, 0] = 2.0 * stator.damping_ratio * omega_n
    damping[:, 2, 0] = per_row([r.axial_damping for r in rotors])
    stiffness = np.zeros((B, 1, n))             # twice the energy per squared state
    stiffness[:, 0, :2] = omega_n ** 2
    stiffness[:, 0, m:m + 2] = 1.0
    stiffness[:, 0, m + 2] = per_row([r.mass for r in rotors])
    stiffness[:, 0, n - 1] = per_row([r.inertia for r in rotors])

    def mech_energy(y, gap):
        pen = np.maximum(0.0, -gap)
        return 0.5 * (np.sum(stiffness * y * y, axis=-1)
                      + np.sum(law.penalty_stiffness * pen * pen, axis=-1))

    # A chunk holds the steps up to the next sample, at most _CHUNK_STEPS,
    # so its histories stay small whatever the output interval.  Row j of X
    # is step j's propagator input [state | d | r | r_prev]; G and F hold
    # the step's [gap | slip] and forces [N | f] for the energy ledger.
    # The views each step writes through are made once, not per step.
    chunk = min(steps_per_sample, _CHUNK_STEPS)
    X = np.zeros((B, chunk + 1, 1, n + 3 * m))
    G = np.empty((B, chunk, 1, 2 * M))
    F = np.empty((B, chunk, 1, 2 * M))
    step_views = [(X[:, j], X[:, j, :, :n], X[:, j, :, n + m:n + 2 * m],
                   G[:, j], G[:, j, :, :M], G[:, j, :, M:], F[:, j],
                   X[:, j + 1, :, :n], X[:, j + 1, :, n + 2 * m:])
                  for j in range(chunk)]
    out = np.zeros((B, n_samples, 7))
    alive = np.ones(B, dtype=bool)
    n_valid = np.zeros(B, dtype=int)
    sample = 0
    acc = [0.0, 0.0, 0.0]      # sums of the powers: input, damper, friction
    k = 0                      # index of the chunk's first step

    with np.errstate(over="ignore", invalid="ignore"):   # caught at the next sample
        while True:
            # T steps advance; the last chunk (T = 0) only evaluates the final state
            T = min(chunk, n_steps - k, steps_per_sample - k % steps_per_sample)
            count = max(T, 1)
            t = (k + np.arange(count)) * h
            wt = omega_d * (t + offsets)
            drive = np.zeros((B, m, 2, count))  # [start, midpoint] of each step
            drive[:, 0] = np.cos(wt) * force_cos
            drive[:, 1] = np.cos(wt + phase) * force_sin
            drive[:, 2] = -np.where(t < ramp, preload * t / ramp_divisor,
                                    preload)[:, None]
            drive[:, 3] = -load_torque
            X[:, :count, 0, n:n + m] = drive[:, :, 1].transpose(0, 2, 1)
            at_sample = k % steps_per_sample == 0

            for j in range(count):
                x, y, r, g, gap, slip, f, y_next, r_next = step_views[j]
                np.matmul(y, kin, out=g)
                state = contact.evaluate_contact(gap, slip, geom, law, out=f)
                contact.modal_reaction(state, reaction, out=r)
                if j == 0 and at_sample:
                    now = y[:, 0]
                    alive &= np.isfinite(now).all(axis=-1) & np.isfinite(r[:, 0]).all(axis=-1)
                    if not alive.any():
                        break
                    row = out[:, sample]
                    row[:, 0] = k * h
                    row[:, 1] = R * now[:, n - 1]
                    row[:, 2] = R * now[:, 3]
                    row[:, 3] = f[:, 0, M]
                    row[:, 4] = r[:, 0, 3]
                    row[:, 5] = r[:, 0, 2]
                    row[:, 6] = amp * np.hypot(now[:, 0], now[:, 1])
                    sample += 1
                    n_valid[alive] = sample
                if j == T:
                    break
                r_next[...] = r
                np.matmul(x, prop, out=y_next)
            if not alive.any():
                break

            # the ledger's powers at each evaluation, time along the last axis
            vel = X[:, :count, 0, m:n].transpose(0, 2, 1)
            p_in = np.multiply(drive[:, :, 0], vel, out=np.empty((B, m, count)))
            p_damp = np.multiply(damping, vel, out=np.empty((B, m, count)))
            p_damp *= vel
            p_fric = np.add.reduce(F[:, :count, 0, M:] * G[:, :count, 0, M:],
                                   axis=-1)[:, None]
            powers = (p_in, p_damp, p_fric)
            acc = [a + np.add.reduce(p, axis=-1) for a, p in zip(acc, powers)]
            if k == 0:
                first = [p[..., 0] for p in powers]
                energy_initial = mech_energy(X[:, 0, :, :n], G[:, 0, :, :M])
            if T == 0:
                energy_final = mech_energy(X[:, 0, :, :n], G[:, 0, :, :M])
                break
            X[:, 0] = X[:, T]
            k += T

    if alive.any():   # the loop ran to the end: trapezoidal work integrals
        w_in, w_out, w_fric = (h * (a - 0.5 * (p0 + p[..., -1]))
                               for a, p0, p in zip(acc, first, powers))
        energy_change = energy_final - energy_initial
    series = []
    for b in range(B):
        energy = None
        if alive[b]:
            energy = _energy_report(
                drive=float(np.sum(w_in[b, :2])), preload=float(w_in[b, 2]),
                load=float(w_in[b, 3]), modal=float(np.sum(w_out[b, :2])),
                friction=-float(w_fric[b, 0]), axial=float(w_out[b, 2]),
                energy_change=float(energy_change[b, 0]))
        cols = out[b, :n_valid[b]].T.copy()
        series.append(MotorTimeSeries(
            time=cols[0], surface_speed=cols[1], surface_displacement=cols[2],
            friction_probe=cols[3], torque=cols[4], axial_force=cols[5],
            wave_amplitude=cols[6], radius=R, diverged=not alive[b],
            last_valid_time=float(cols[0, -1]) if n_valid[b] else 0.0,
            energy=energy,
        ))
    return series


def _energy_report(drive, preload, load, modal, friction, axial,
                   energy_change) -> EnergyReport:
    residual = (drive + preload + load) - (energy_change + modal + friction + axial)
    return EnergyReport(
        drive_work=drive, preload_work=preload, load_torque_work=load,
        modal_dissipation=modal, friction_dissipation=friction,
        axial_dissipation=axial, energy_change=energy_change, residual=residual,
        residual_fraction=abs(residual) / max(abs(drive), 1e-300),
    )


@dataclass(frozen=True)
class SteadyState:
    """Settling verdict of a transient run."""

    t: float
    settled: bool


def detect_steady_state(series: MotorTimeSeries, window: float = 2.5e-4,
                        tolerance: float = 0.02,
                        signal: str = "wave_amplitude") -> SteadyState:
    """Earliest time where consecutive window means of a probe signal agree.

    Non-overlapping windows of the given length are compared pairwise; the
    first pair whose means differ by less than ``tolerance`` (relative)
    marks settling at the shared window boundary.  A series that never
    meets the tolerance returns its end time with ``settled=False``.

    The default probe is the flexural wave amplitude: the stator vibration
    envelope is what reaches a repeatable level once the drive and contact
    transients die out, and its settling time is insensitive to the rotor
    inertia.  Pass ``signal="surface_speed"`` to watch the rotor instead.
    """
    if len(series) < 2:
        raise ValueError("series too short")
    if signal not in ("wave_amplitude", "surface_speed", "torque", "axial_force"):
        raise ValueError(f"unknown steady-state signal {signal!r}")
    interval = series.time[1] - series.time[0]
    wlen = max(1, int(round(window / interval)))
    speed = getattr(series, signal)
    n_windows = len(speed) // wlen
    if n_windows < 2:
        raise ValueError("series shorter than two windows")
    means = np.array([np.mean(speed[j * wlen:(j + 1) * wlen])
                      for j in range(n_windows)])
    for j in range(n_windows - 1):
        m1, m2 = means[j], means[j + 1]
        denom = max(abs(m1), abs(m2))
        if abs(m2 - m1) <= tolerance * denom:
            return SteadyState(t=float(series.time[0] + (j + 1) * wlen * interval),
                               settled=True)
    return SteadyState(t=float(series.time[-1]), settled=False)


def envelope_average(series: MotorTimeSeries, t_ss: float, period: float,
                     spike_factor: float = 5.0) -> float:
    """Mean upper envelope of the oscillating torque after steady state.

    The upper envelope is the per-window maximum over consecutive windows
    of one drive period; envelope points farther than ``spike_factor``
    median-absolute-deviations from the envelope median are discarded
    before averaging.
    """
    if not series.time[0] <= t_ss <= series.time[-1]:
        raise ValueError(f"t_ss={t_ss:g} outside the series span")
    mask = series.time >= t_ss
    torque = series.torque[mask]
    interval = series.time[1] - series.time[0]
    wlen = max(1, int(round(period / interval)))
    n_windows = len(torque) // wlen
    envelope = np.array([np.max(torque[j * wlen:(j + 1) * wlen])
                         for j in range(n_windows)])
    if len(envelope) < 5:
        raise ValueError(
            f"only {len(envelope)} envelope points after t_ss; need at least 5"
        )
    med = np.median(envelope)
    mad = np.median(np.abs(envelope - med))
    mad = max(mad, 1e-12 * abs(med))
    keep = np.abs(envelope - med) <= spike_factor * mad
    return float(np.mean(envelope[keep]))


def mean_speed(series: MotorTimeSeries, t_ss: float) -> float:
    """Mean rotor spin rate (rad/s) after steady state."""
    if not series.time[0] <= t_ss <= series.time[-1]:
        raise ValueError(f"t_ss={t_ss:g} outside the series span")
    mask = series.time >= t_ss
    return float(np.mean(series.surface_speed[mask]) / series.radius)
