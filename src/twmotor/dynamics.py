"""Coupled stator-rotor transient simulation and probe post-processing.

The stator is reduced to its drive mode pair (two modal oscillators with
mass-normalized coordinates); the rigid rotor carries an axial
translation and a spin DOF.  Each run states its linear dynamics once:
between contact evaluations the positions x = [q_cos, q_sin, z, phi] obey
M x'' + C x' + K x = F with diagonal M, C and K.  Per fixed step, the
contact law of ``contact.py`` (``evaluate_contact`` at the contact
points, its reactions projected by ``interface_operator``) is evaluated
at the step start (explicit), while the linear system is advanced
exactly: its step map is the exponential of the system augmented by its
forcing, held
constant over the step (Van Loan 1978), computed by scaling and squaring
a Taylor polynomial (Al-Mohy & Higham 2009); the electrode drive is
sampled at the step midpoint, and the contact reactions are extrapolated
there from the last two evaluations.  This keeps the integration robust
against the stiff penalty forces; accuracy is monitored by an
energy-bookkeeping residual, weighted by the same K, M and C, accumulated
alongside the states.

``simulate_batch`` runs B transients that share the stator and the step
grid in one step loop.  Each run is one row of (B, 1, K) arrays; its state
is [q_cos, q_sin, z, phi | q_cos', q_sin', z', omega].  The contact law
runs over one period of the interface only: gap and slip repeat every
M / g contact points, g = gcd(n, M) (``contact.interface_period``), so the
loop evaluates the law at M / g points and scales the reactions, the
penalty energy and the friction power by g.  A step is five calls: the
kinematics product, which maps the state straight to the law's arguments
[-k gap, slip / v]; the law's three elementwise passes
(``evaluate_contact``), giving [N, u] with the friction force f = -mu u;
and the step map.  The reaction operator is ``contact.interface_operator``,
the drive pair sampled at the contact points, built once per call; the
kinematics is its transpose, since gap and slip are the work conjugates
of the normal and friction forces, and ``ContactBatch.fold`` puts each
row's k, v and mu into both, so the law's constants enter the step there
alone.  The reactions are linear in [N, u], so the reaction operator is
folded into the step map (``_step_map``): the map reads [N, u] itself,
adds their reactions to the forcing along with the midpoint drive and the
reaction extrapolation, and carries this step's reactions to the next as
r_prev: the one place they are formed, where the samples read them.  The
law's arguments are laid out (2, B, 1, M / g), so each is one contiguous
block whatever B is.

The loop runs in chunks of up to one sample interval (and at most
``_CHUNK_STEPS`` steps), step first in every buffer.  Row j of the step
map's input X is [state_j | r_(j-1) | d_j | N_j | u_j]: the law writes its
outputs into it, and the map writes [state_(j+1) | r_j] into row j + 1, so
the rows do not overlap and nothing is copied within a chunk.  No step
branches: a chunk that starts at a sample reads it from rows 0 and 1 after
its steps.  A chunk evaluates the drive and the preload ramp at all its
steps at once, and reduces the energy ledger's powers from its history of
states and of the law's arguments and outputs, applying -mu v to the
friction power once per chunk.  Every operation acts on each row alone,
so a row's results are bitwise the same whatever batch it runs in.
``simulate`` is the batch of one.  A row that goes non-finite names the first entry of ``ENTRY_NAMES``
found so, and the sample time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    "settling_windows",
    "simulate",
    "simulate_batch",
    "detect_steady_state",
    "envelope_average",
    "mean_speed",
]

CSV_HEADER = "t,s_speed,surf_disp,fric_probe,torque,fz,wave_amp"

_CHUNK_STEPS = 1024   # most steps one chunk of the step loop holds
_EXPM_TERMS = 20      # Taylor terms of a scaled matrix exponential

SETTLE_WINDOW = 2.5e-4    # s, length of the windows detect_steady_state compares
SETTLE_TOLERANCE = 0.02   # relative difference of window means that counts as settled
SPIKE_FACTOR = 5.0        # MADs from the median beyond which an envelope point is dropped


# the entries a sample checks for finiteness: the state, then the contact reactions
ENTRY_NAMES = ("q_cos", "q_sin", "z", "phi", "q_cos'", "q_sin'", "z'", "omega",
               "contact Q_cos", "contact Q_sin", "contact F_z", "contact torque")


class SimulationDiverged(RuntimeError):
    """Raised by callers when a run produced non-finite states.

    The message names ``entry``, the first of ``ENTRY_NAMES`` found
    non-finite, and the sample time that found it.
    """

    def __init__(self, last_valid_time: float, entry: str, time: float):
        super().__init__(f"simulation diverged: {entry} non-finite at t = {time:g} s; "
                         f"last valid time {last_valid_time:g} s")
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
    nonfinite_entry: str = ""             # of a diverged run: see SimulationDiverged
    nonfinite_time: float = math.nan
    energy: EnergyReport | None = None

    def __len__(self):
        return len(self.time)

    def to_csv(self, path):
        cols = (self.time, self.surface_speed, self.surface_displacement,
                self.friction_probe, self.torque, self.axial_force,
                self.wave_amplitude)
        lines = [CSV_HEADER]
        for row in zip(*cols):
            lines.append(",".join(f"{v:.17g}" for v in row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


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
            _sample_count(duration, output_interval))


def _sample_count(duration: float, output_interval: float) -> int:
    return int(round(duration / output_interval)) + 1


def _window_length(interval: float) -> int:
    """Samples per settling window at a sample interval."""
    return max(1, int(round(SETTLE_WINDOW / interval)))


def settling_windows(duration: float, output_interval: float) -> int:
    """How many settling windows a run's series holds.

    ``detect_steady_state`` needs two, so a shorter run can be turned down
    before it is stepped.
    """
    return _sample_count(duration, output_interval) // _window_length(output_interval)


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


def _propagator(mass, damping, stiffness, h: float) -> np.ndarray:
    """Exact one-step maps [state | F] -> next state, one per row.

    ``mass``, ``damping`` and ``stiffness`` are (..., 4) diagonals of
    M x'' + C x' + K x = F on the positions x = [q_cos, q_sin, z, phi];
    the state is [x | x'], and F, held constant over the step, is [modal
    forces on the cos and sin shapes, axial force, torque].  The map is
    the exponential (``_expm``) of the system augmented by its forcing,
    [[0, I, 0], [-K/M, -C/M, 1/M], [0, 0, 0]] h (Van Loan, IEEE Trans.
    Autom. Control 23 (1978) 395-404), its first 2 m rows transposed:
    shape (..., 12, 8), for row vectors.
    """
    m = mass.shape[-1]
    n = 2 * m
    i = np.arange(m)
    system = np.zeros(mass.shape[:-1] + (n + m, n + m))
    system[..., i, m + i] = 1.0
    system[..., m + i, i] = -stiffness / mass
    system[..., m + i, m + i] = -damping / mass
    system[..., m + i, n + i] = 1.0 / mass
    return np.swapaxes(_expm(system * h)[..., :n, :], -1, -2)


def _step_map(prop: np.ndarray, reaction: np.ndarray) -> np.ndarray:
    """The step map with the contact reactions folded in, one per row.

    ``prop`` is ``_propagator``'s (..., 12, 8) map, and ``reaction`` the
    (2, ..., P, 4) blocks that map the law's outputs [N, u] at P points to
    the reactions r of the normal and of the friction forces.  The forcing
    is F = d + 1.5 r - 0.5 r_prev: d is the midpoint drive plus the loads
    (minus the preload and the load torque), and r is extrapolated to the
    midpoint from this step's and the last, which keeps the coupling second
    order.  r, linear in [N, u], enters as ``reaction @ (1.5 forcing)`` and
    is carried to the next step as four more outputs, read there as r_prev.
    The result maps [state | r_prev | d | N | u] -> [next state | r], shape
    (..., 16 + 2P, 12).
    """
    n = prop.shape[-1]
    forcing = prop[..., n:, :]
    forces = np.concatenate(list(reaction), axis=-2)       # [N | u] -> r
    to_state = np.concatenate([prop[..., :n, :], -0.5 * forcing, forcing,
                               forces @ (1.5 * forcing)], axis=-2)
    to_r = np.zeros(to_state.shape[:-1] + (forces.shape[-1],))
    to_r[..., -forces.shape[-2]:, :] = forces
    return np.concatenate([to_state, to_r], axis=-1)


def _expm(a: np.ndarray) -> np.ndarray:
    """The exponential of each (n, n) matrix in ``a``, by scaling and squaring.

    Each matrix A is scaled by 2^-s, s being the least with
    ||(A 2^-s)^2||_1 <= 1; the Taylor polynomial of the scaled matrix is
    summed by Horner's rule and squared s times.  The scaling follows
    ||A^2||^(1/2), not ||A|| (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
    31 (2009) 970-989): a step's system is badly scaled, omega^2 h sitting
    below the diagonal, so ||A||_1 is about 4e3 where the spectral radius
    is omega h, about 0.016, and every needless squaring doubles the
    rounding error of the near-identity modal block.  s is chosen for each
    matrix alone, so each result is bitwise independent of its batch.
    """
    rho = np.sqrt(np.abs(a @ a).sum(axis=-2).max(axis=-1))
    s = np.ceil(np.log2(np.maximum(rho, 1.0))).astype(int)
    a = np.ldexp(a, -s[..., None, None])
    eye = np.eye(a.shape[-1])
    e = eye + a / (_EXPM_TERMS - 1)
    for k in range(_EXPM_TERMS - 2, 0, -1):
        e = eye + a @ e / k
    for i in range(s.max(initial=0)):
        square = s > i
        e[square] = e[square] @ e[square]
    return e


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

    # [G_N, G_f] of the drive pair at one period of the contact points maps
    # the forces N and f each to [Q_cos, Q_sin, F_z, T].  Folded with each
    # row's law constants, its transpose maps the state to the law's
    # arguments [-k gap, slip / v], and its friction block carries -mu.  The
    # reaction is scaled by the period count, so it gives the whole ring's.
    theta, periods = contact.interface_period(contacts[0], stator.pair.nodal_diameters)
    M = len(theta)
    kin, reaction = law.fold(contact.interface_operator(stator.pair, geom, theta))
    reaction *= periods

    def per_row(values):
        return np.array(values, dtype=float)

    f_drive = per_row([d.resolve_frequency(stator.pair) for d in drives])
    omega_d = (2.0 * math.pi * f_drive)[:, None, None]
    voltage = per_row([d.voltage for d in drives])[:, None, None]
    force = stator.forcing_per_volt * voltage
    phase = per_row([d.phase_offset for d in drives])[:, None, None]
    preload = per_row([r.preload for r in rotors])[:, None]
    ramp = per_row([r.preload_ramp for r in rotors])[:, None]
    ramp_divisor = np.where(ramp > 0, ramp, 1.0)
    load_torque = per_row([r.load_torque for r in rotors])[:, None, None]
    offsets = np.array([[0.0], [0.5 * h]])      # step start and midpoint

    # each row's linear dynamics M x'' + C x' + K x = F, as three diagonals
    # over [q_cos, q_sin, z, phi]: mass-normalized modes, the rotor's axial
    # damper and its free spin.  The step map and the ledger read only these:
    # twice the energy per squared state is [K | M], and the dissipated
    # power per squared rate is C.
    omega_n = stator.pair.omega
    mass = np.ones((B, m))
    mass[:, 2] = per_row([r.mass for r in rotors])
    mass[:, 3] = per_row([r.inertia for r in rotors])
    damping = np.zeros((B, m))
    damping[:, :2] = 2.0 * stator.damping_ratio * omega_n
    damping[:, 2] = per_row([r.axial_damping for r in rotors])
    stiffness = np.zeros((B, m))
    stiffness[:, :2] = omega_n ** 2
    step_map = _step_map(_propagator(mass, damping, stiffness, h), reaction)
    weights = np.concatenate([stiffness, mass], axis=-1)[:, None]
    damper = damping[:, :, None]
    compliance = (periods / law.stiffness)[:, None]
    friction_scale = (-periods * law.cof * law.regularization_velocity)[:, None, None]

    def mech_energy(y, normal):
        # a penalty spring at depth d stores k d^2 / 2 = N^2 / (2 k)
        return 0.5 * (np.sum(weights * y * y, axis=-1)
                      + compliance * np.sum(normal * normal, axis=-1))

    # A chunk holds the steps up to the next sample, at most _CHUNK_STEPS,
    # so its histories stay small whatever the output interval.  X[j] is
    # step j's step map input [state | r_prev | d | N | u] for every row:
    # the law writes [N, u] into it, and the map writes the next step's
    # [state | r_prev].  G[j] holds the step's law arguments
    # [-k gap, slip / v], kept with X for the energy ledger.  The views each
    # step uses are made once.
    chunk = min(steps_per_sample, _CHUNK_STEPS)
    d0, f0 = n + m, n + 2 * m     # where d and [N | u] start
    X = np.zeros((chunk + 1, B, 1, f0 + 2 * M))
    G = np.empty((chunk, 2, B, 1, M))
    step_views = [(X[j], X[j, ..., :n], G[j], G[j, 0], G[j, 1],
                   X[j, ..., f0:f0 + M], X[j, ..., f0 + M:], X[j + 1, ..., :d0])
                  for j in range(chunk)]
    out = np.zeros((B, n_samples, 7))
    alive = np.ones(B, dtype=bool)
    n_valid = np.zeros(B, dtype=int)
    first_nonfinite = [("", math.nan)] * B
    sample = 0
    acc = [0.0, 0.0, 0.0]      # sums of the powers: input, damper, friction
    k = 0                      # index of the chunk's first step

    with np.errstate(over="ignore", invalid="ignore"):   # caught at the next sample
        while True:
            # T steps advance; the last (T = 0) maps the final state for its reactions
            T = min(chunk, n_steps - k, steps_per_sample - k % steps_per_sample)
            count = max(T, 1)
            t = (k + np.arange(count)) * h
            wt = omega_d * (t + offsets)
            drive = np.zeros((B, m, 2, count))  # [start, midpoint] of each step
            drive[:, 0] = np.cos(wt) * force
            drive[:, 1] = np.cos(wt + phase) * force
            drive[:, 2] = -np.where(t < ramp, preload * t / ramp_divisor,
                                    preload)[:, None]
            drive[:, 3] = -load_torque
            X[:count, :, 0, d0:f0] = drive[:, :, 1].transpose(2, 0, 1)

            for x, y, g, load, slip_ratio, normal, traction, y_next in step_views[:count]:
                np.matmul(y, kin, out=g)
                contact.evaluate_contact(load, slip_ratio, normal, traction)
                np.matmul(x, step_map, out=y_next)

            if k % steps_per_sample == 0:
                # the chunk's first state, and the reactions the map formed from it
                now = X[0, :, 0, :n]
                total = X[1, :, 0, n:n + m]
                finite = np.isfinite(np.concatenate([now, total], axis=-1))
                for b in np.flatnonzero(alive & ~finite.all(axis=-1)):
                    first_nonfinite[b] = (ENTRY_NAMES[np.argmin(finite[b])], k * h)
                    alive[b] = False
                if not alive.any():
                    break
                row = out[:, sample]
                row[:, 0] = k * h
                row[:, 1] = R * now[:, n - 1]
                row[:, 2] = R * now[:, 3]
                row[:, 3] = -law.cof * X[0, :, 0, f0 + M]
                row[:, 4] = total[:, 3]
                row[:, 5] = total[:, 2]
                row[:, 6] = stator.pair.amp * np.hypot(now[:, 0], now[:, 1])
                sample += 1
                n_valid[alive] = sample

            # the ledger's powers at each evaluation, time along the last axis
            vel = X[:count, :, 0, m:n].transpose(1, 2, 0)
            p_in = np.multiply(drive[:, :, 0], vel, out=np.empty((B, m, count)))
            p_damp = np.multiply(damper, vel, out=np.empty((B, m, count)))
            p_damp *= vel
            # f s = (-mu u)(v s / v): the constants multiply the point sum
            p_fric = np.add.reduce(np.multiply(X[:count, :, 0, f0 + M:].transpose(1, 0, 2),
                                               G[:count, 1, :, 0].transpose(1, 0, 2),
                                               out=np.empty((B, count, M))),
                                   axis=-1)[:, None]
            p_fric *= friction_scale
            powers = (p_in, p_damp, p_fric)
            acc = [a + np.add.reduce(p, axis=-1) for a, p in zip(acc, powers)]
            if k == 0:
                first = [p[..., 0] for p in powers]
                energy_initial = mech_energy(X[0, ..., :n], X[0, ..., f0:f0 + M])
            if T == 0:
                energy_final = mech_energy(X[0, ..., :n], X[0, ..., f0:f0 + M])
                break
            X[0, ..., :d0] = X[T, ..., :d0]   # [state | r_prev]; d is refilled
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
            nonfinite_entry=first_nonfinite[b][0], nonfinite_time=first_nonfinite[b][1],
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


def detect_steady_state(series: MotorTimeSeries,
                        signal: str = "wave_amplitude") -> SteadyState:
    """Earliest time where consecutive window means of a probe signal agree.

    Non-overlapping windows of ``SETTLE_WINDOW`` seconds are compared
    pairwise; the first pair whose means differ by at most
    ``SETTLE_TOLERANCE`` (relative) marks settling at the shared window
    boundary: the time of the second window's first sample, as the series
    holds it, so a mask ``time >= t`` keeps that sample.  A series that
    never meets the tolerance returns its end time with ``settled=False``.

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
    wlen = _window_length(interval)
    probe = getattr(series, signal)
    n_windows = len(probe) // wlen
    if n_windows < 2:
        raise ValueError("series shorter than two windows")
    means = probe[:n_windows * wlen].reshape(n_windows, wlen).mean(axis=1)
    for j in range(n_windows - 1):
        m1, m2 = means[j], means[j + 1]
        denom = max(abs(m1), abs(m2))
        if abs(m2 - m1) <= SETTLE_TOLERANCE * denom:
            return SteadyState(t=float(series.time[(j + 1) * wlen]), settled=True)
    return SteadyState(t=float(series.time[-1]), settled=False)


def envelope_average(series: MotorTimeSeries, t_ss: float, period: float) -> float:
    """Mean upper envelope of the oscillating torque after steady state.

    The upper envelope is the per-window maximum over consecutive windows
    of one drive period; envelope points farther than ``SPIKE_FACTOR``
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
    envelope = torque[:n_windows * wlen].reshape(n_windows, wlen).max(axis=1)
    if len(envelope) < 5:
        raise ValueError(
            f"only {len(envelope)} envelope points after t_ss; need at least 5"
        )
    med = np.median(envelope)
    mad = np.median(np.abs(envelope - med))
    mad = max(mad, 1e-12 * abs(med))
    keep = np.abs(envelope - med) <= SPIKE_FACTOR * mad
    return float(np.mean(envelope[keep]))


def mean_speed(series: MotorTimeSeries, t_ss: float) -> float:
    """Mean rotor spin rate (rad/s) after steady state."""
    if not series.time[0] <= t_ss <= series.time[-1]:
        raise ValueError(f"t_ss={t_ss:g} outside the series span")
    mask = series.time >= t_ss
    return float(np.mean(series.surface_speed[mask]) / series.radius)
