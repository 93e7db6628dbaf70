"""Coupled stator-rotor transient simulation and probe post-processing.

The stator is reduced to its drive mode pair (two modal oscillators with
mass-normalized coordinates); the rigid rotor carries an axial
translation and a spin DOF.  Each run states its linear dynamics once:
between contact evaluations the positions x = [q_cos, q_sin, z, phi] obey
M x'' + C x' + K x = F with diagonal M, C and K, and a run's state is
[x | x'] = [q_cos, q_sin, z, phi | q_cos', q_sin', z', omega].  Per fixed
step, the contact law of ``contact.py`` is evaluated at the step start
(explicit), and the step map (``_step_map``) advances the linear system
exactly under the electrode drive, and under the contact reactions as
the cubic through their last four evaluations: an exponential
Adams-Bashforth scheme of fourth order.  This keeps the
integration robust against the stiff penalty forces; accuracy is
monitored by an energy-bookkeeping residual, weighted by the same K, M
and C, accumulated alongside the states.

``simulate_batch`` runs B transients that share the stator and the step
grid in one step loop, one row b each.  The contact law runs over one
period of the interface only: gap and slip repeat every M / g contact
points, g = gcd(n, M) (``contact.interface_period``), so the loop
evaluates the law at M / g points and scales the reactions and the
penalty energy by g.  A step is five calls: the kinematics product, which
maps the state straight to the law's arguments [-k gap | slip / v] and
writes them where the step map reads [N | u]; the law's three elementwise
passes (``evaluate_contact``), which turn them into [N | u] in place, the
friction force being f = -mu u; and the step map.  The kinematics is the transpose of the reaction operator
``contact.interface_operator``, the drive pair sampled at the contact
points, since gap and slip are the work conjugates of the normal and
friction forces; ``contact.fold`` puts each row's k, v and mu into both.
The reactions are linear in [N | u], so the step map reads [N | u]
itself and writes this step's reactions for the next steps to read: the
one place they are formed, where the samples read them too.  So a step
makes one matrix-vector product per row and matrix.

The step buffer is entry-major, the row index last, so each of the
law's two operands is one C-contiguous (M / g, B) block, and every
elementwise pass takes NumPy's contiguous fast path at any B.  Both
products run as ``np.matmul`` on (B, 1, K) views whose vectors have
stride B, which NumPy hands to the BLAS matrix-vector product, making no
copy.  A batch of one makes them with ``np.ndarray.dot`` on 1-D views of
the same buffers: the product ``np.dot`` reaches, bitwise, without its
Python-level dispatch.  At B = 1 a call's overhead is most of its cost,
so the products take their outputs positionally, and the loop binds
``contact.evaluate_contact`` once per call, so a step looks nothing up
and a test that patches the law still sees every call.

The loop runs in chunks of whole sample intervals, step first in its
buffer X: as many intervals as fit in ``_CHUNK_ROW_STEPS`` steps x rows, at
least one; ``_grid`` refuses more than ``_CHUNK_STEPS`` steps per interval,
so one always fits.  X[j], the step map's input at step j, is
[state_j | r_(j-1) | r_(j-2) | r_(j-3) | d_j | N_j | u_j] with one column
per row: the kinematics product writes the law's arguments into its
[N | u] block, the law overwrites them with its outputs, and the map
writes all the rest of X[j + 1], [state_(j+1) | r_j | r_(j-1) | r_(j-2) |
d_(j+1)], so nothing is copied within a chunk.  d = [cos wt, sin wt,
-preload, -load_torque] is written once per run, into X[0] at t = 0: the
map turns the drive's phase by wh and holds the loads, so a run's linear
state is the one block X[j, :f0], and a chunk carries X[0, :f0] =
X[T, :f0] to the next.  No step branches: after its steps a chunk copies
its samples into one buffer, the states at the steps 0, s, ... of X
(s steps per sample), their reactions one step later and the friction
force's u at the first contact point, and ends every row whose samples are
not all finite; the loop stops when no row is left.  A chunk reduces the
energy ledger's powers from its history of X.  Each power is a force
times a velocity, and each force is one the map applies.  One ``forcing`` matrix per row maps d to the forces on
[q_cos, q_sin, z, phi]: the step map reads its drive pair's columns, and
the ledger prices ``forcing @ d``, d read from X.  Friction is priced as
the rates times u @ reaction[1], the folded, period-scaled friction
reaction the map applies: by virtual work, g Sum f slip over the points.
The damper's power is C x'^2.  The ledger sums each sample interval's
powers, then adds the sums to its totals in time order, so no result
depends on how many intervals a chunk holds.  Every operation acts on
each row alone, so a row's results are bitwise the same whatever batch it
runs in (``simulate_batch`` states the two rules that keep them so).
``simulate`` is the batch of one.  After the loop, one pass per row forms
its series from the buffer, and its energy ledger or, for a row that went
non-finite, its ``divergence``: the row ends at its last finite sample,
and the report names the first entry of ``ENTRY_NAMES`` not finite at the
next one and that sample's time.

The post-processing reads a series: ``detect_steady_state`` gives the
settling verdict as the pair (t_ss, settled), and ``envelope_average`` and
``mean_speed`` the torque and speed after t_ss that ``runner.summarize``
reports.
"""

from __future__ import annotations

import math
from dataclasses import field

import numpy as np

from . import contact
from .record import Record
from .stator import StatorModel
from .wave import DriveConfig

__all__ = [
    "RotorConfig",
    "MotorTimeSeries",
    "EnergyReport",
    "SimulationDiverged",
    "step_grid",
    "simulate",
    "simulate_batch",
    "detect_steady_state",
    "envelope_average",
    "mean_speed",
]

CSV_HEADER = "t,s_speed,surf_disp,fric_probe,torque,fz,wave_amp"

_CHUNK_STEPS = 1024       # most steps per sample interval, so one interval fits a chunk
_CHUNK_ROW_STEPS = 512    # steps x rows a chunk fills with whole sample intervals
_EXPM_TERMS = 20          # Taylor terms of a scaled matrix exponential
# most samples a row holds, about 42 s at the default 10 us interval: its
# buffer of 13 entries per sample stays below 440 MB
_MAX_SAMPLES = 2 ** 22

# most rows x contact points one part of a batch steps: its step buffers grow
# with both, and 256 rows at the default 128 points peak at 55 MiB for a
# 0.5 ms run, in 5.8 ms a row against 6.1 at 512 rows (2-core x86-64 VM)
MAX_BATCH_POINTS = 2 ** 15

# A batch of one's products: the C method np.dot reaches, without its dispatcher
_dot = np.ndarray.dot

SETTLE_WINDOW = 2.5e-4    # s, length of the windows detect_steady_state compares
SETTLE_TOLERANCE = 0.02   # relative difference of window means that counts as settled
SPIKE_FACTOR = 5.0        # MADs from the median beyond which an envelope point is dropped


# the entries a sample checks for finiteness: the state, then the contact reactions
ENTRY_NAMES = ("q_cos", "q_sin", "z", "phi", "q_cos'", "q_sin'", "z'", "omega",
               "contact Q_cos", "contact Q_sin", "contact F_z", "contact torque")


class SimulationDiverged(RuntimeError):
    """A run that produced non-finite states, raised by callers.

    ``simulate_batch`` builds one after its step loop for each row that
    went non-finite and keeps it in that row's
    ``MotorTimeSeries.divergence``.  ``time`` is the time of the row's
    first sample that is not finite, ``entry`` the first of
    ``ENTRY_NAMES`` not finite there, and ``last_valid_time`` the time of
    the sample before it (0 when there is none).
    """

    def __init__(self, last_valid_time: float, entry: str, time: float):
        super().__init__(f"simulation diverged: {entry} non-finite at t = {time:g} s; "
                         f"last valid time {last_valid_time:g} s")
        self.last_valid_time = last_valid_time
        self.entry = entry
        self.time = time

    def __reduce__(self):   # the default would unpickle with the message alone
        return type(self), (self.last_valid_time, self.entry, self.time)


class RotorConfig(Record):
    """Rigid rotor parameters and external loading."""

    inertia: float = 2e-4         # kg m^2
    mass: float = 0.01            # kg
    axial_damping: float = 700.0  # N s/m
    preload: float = 50.0         # N, pressing the rotor onto the stator
    load_torque: float = 0.0      # N m, opposing rotation

    def __post_init__(self):
        for key in ("inertia", "mass"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be > 0")
        for key in ("axial_damping", "preload"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be >= 0")


class EnergyReport(Record):
    """Work/energy ledger of one transient run.

    ``residual`` is input work minus (energy change + dissipation); the
    fraction is relative to the drive work, and None when the drive does
    no work.
    """

    drive_work: float
    preload_work: float
    load_torque_work: float
    modal_dissipation: float
    friction_dissipation: float
    axial_dissipation: float
    energy_change: float
    residual: float
    residual_fraction: float | None


class MotorTimeSeries(Record):
    """Uniformly sampled transient probes.

    ``surface_speed`` and ``surface_displacement`` are rim quantities
    R*omega_r and R*phi; divide by ``radius`` to get the rotor spin rate.
    A run that went non-finite is truncated at its last finite sample and
    carries its ``divergence``; it has no energy ledger.
    """

    time: np.ndarray = field(repr=False)
    surface_speed: np.ndarray = field(repr=False)
    surface_displacement: np.ndarray = field(repr=False)
    friction_probe: np.ndarray = field(repr=False)
    torque: np.ndarray = field(repr=False)
    axial_force: np.ndarray = field(repr=False)
    wave_amplitude: np.ndarray = field(repr=False)
    radius: float = 1.0
    divergence: SimulationDiverged | None = None
    energy: EnergyReport | None = None

    def __len__(self):
        return len(self.time)

    def to_csv(self, path):
        cols = (self.time, self.surface_speed, self.surface_displacement,
                self.friction_probe, self.torque, self.axial_force,
                self.wave_amplitude)
        row = ",".join(["%.17g"] * len(cols))
        with open(path, "w") as fh:
            fh.write("\n".join([CSV_HEADER, *(row % v for v in zip(*cols))]) + "\n")


def step_grid(stator: StatorModel, drive: DriveConfig, duration: float = 5e-3,
              output_interval: float = 1e-5,
              dt: float | None = None) -> tuple[float, int, int]:
    """The grid of a run that can be judged: (step, steps per sample, sample count).

    ``runner.admit`` asks it before any step, and ``runner.summarize``
    reads the grid that ``admit`` returned.  It refuses a step too coarse for
    the step loop (``_grid``), a run whose series holds fewer than the
    two windows of ``SETTLE_WINDOW`` that ``detect_steady_state`` compares,
    and a sample interval that puts fewer than 2 samples, or no finite
    count of them, in the drive period, the window of ``envelope_average``.
    """
    grid = _grid(stator, drive, duration, output_interval, dt)
    if grid[2] // _window_length(SETTLE_WINDOW, output_interval) < 2:
        raise ValueError(
            f"simulation.duration (--duration) {duration:g} s is shorter than two "
            f"settling windows of {SETTLE_WINDOW:g} s; run at least "
            f"{2 * SETTLE_WINDOW:g} s")
    period = 1.0 / drive.resolve_frequency(stator.pair)
    _finite(period / output_interval, "drive.frequency")
    if _window_length(period, output_interval) < 2:
        raise ValueError(
            f"simulation.output_interval {output_interval:g} s leaves fewer than 2 "
            f"samples in the drive period of {period:g} s, the torque envelope's window")
    return grid


def _grid(stator: StatorModel, drive: DriveConfig, duration: float,
          output_interval: float, dt: float | None) -> tuple[float, int, int]:
    """The step loop's grid: ``step_grid`` without its length rule.

    Steps above 1/(100 f_drive) are rejected as too coarse, and the step
    defaults to that bound, snapped to an integer divider of the output
    interval.  A step or sample count that is not finite is refused, naming
    its key; so is a step that puts more than ``_CHUNK_STEPS`` steps in a
    sample interval, naming ``simulation.dt`` (a finer step needs a finer
    ``simulation.output_interval``), and a run of more than ``_MAX_SAMPLES``
    samples, naming ``simulation.duration``, before any buffer is allocated.
    On the default motor the bound guards accuracy, not stability: it
    steps without blowing up at 1/(20 f_drive), where its energy residual
    is 7e-4 (9e-8 at the bound), and at the bound the step map's errors
    stay below the midpoint scheme's at 1/(400 f_drive) (README, step
    error).  That does not hold where friction locks the wave.  In full
    stick, friction damps the drive pair at the rate
    lambda = mu P (z_c amp n / R)^2 / (2 v), P being the preload; the
    reactions are extrapolated, not implicit, and past some lambda h the
    stick zone chatters.  The default motor has lambda h = 0.14; at 50 V
    and 200 N it is 0.56, and that run exits 0, settled, with a wave of
    7.47 nm where h / 2 gives 4.63 nm.  Only the energy ledger shows it:
    its residual fraction reads 1.23.
    """
    bound = 1.0 / (100.0 * drive.resolve_frequency(stator.pair))
    dt_nominal = dt if dt is not None else bound
    if dt_nominal > bound:
        raise ValueError(f"simulation.dt {dt_nominal:g} s too coarse; need <= {bound:g} s "
                         "(1/(100 f_drive))")
    steps_per_sample = max(1, math.ceil(_finite(output_interval / dt_nominal, "simulation.dt")))
    if steps_per_sample > _CHUNK_STEPS:
        raise ValueError(f"simulation.dt {dt_nominal:g} s is {steps_per_sample:.4g} steps per "
                         f"sample of {output_interval:g} s; a sample holds at most {_CHUNK_STEPS}")
    n_samples = int(round(_finite(duration / output_interval, "simulation.output_interval"))) + 1
    if n_samples > _MAX_SAMPLES:
        raise ValueError(f"simulation.duration (--duration) {duration:g} s is {n_samples:.3g} "
                         f"samples of {output_interval:g} s; a run holds at most {_MAX_SAMPLES}")
    return output_interval / steps_per_sample, steps_per_sample, n_samples


def _finite(count: float, key: str) -> float:
    """A step or sample count of a grid; a ValueError naming ``key`` if it is
    not finite, as when a finite key is too small for float64's range."""
    if not math.isfinite(count):
        raise ValueError(f"{key} leaves a step or sample count beyond float64's range")
    return count


def _window_length(span: float, interval: float) -> int:
    """Samples per window of ``span`` seconds at a sample interval, at least 1."""
    return max(1, int(round(span / interval)))


def simulate(stator: StatorModel, drive: DriveConfig,
             contact_cfg: contact.ContactConfig, rotor_cfg: RotorConfig,
             duration: float = 5e-3, output_interval: float = 1e-5,
             dt: float | None = None) -> MotorTimeSeries:
    """Fixed-step transient of the coupled motor, sampled at the output interval.

    The step follows ``step_grid``'s step rule, at most ``_CHUNK_STEPS``
    steps per sample interval; any length and any contact point count are
    stepped, even those ``runner.admit`` refuses.
    Deterministic for fixed inputs.
    Divergence truncates the series and sets its ``divergence`` instead of
    raising.  This is ``simulate_batch`` with one row.
    """
    return simulate_batch(stator, [(drive, contact_cfg, rotor_cfg)], duration=duration,
                          output_interval=output_interval, dt=dt)[0]


# A step's reaction is the cubic through r_j, ..., r_(j-3) at the times 0,
# -h, -2h and -3h: p(s) = c_0 + s c_1 + s^2 c_2 / 2 + s^3 c_3 / 6 at s = t / h
# after the step start.  Row i gives r_(j-i)'s weight in each c_k.
_HISTORY = np.array([[1.0, 11.0 / 6.0, 2.0, 1.0], [0.0, -3.0, -5.0, -3.0],
                     [0.0, 1.5, 4.0, 3.0], [0.0, -1.0 / 3.0, -1.0, -1.0]])


def _step_map(mass, damping, stiffness, drive, omega, reaction, h: float) -> np.ndarray:
    """Exact one-step maps of the linear system under the drive and the
    contact reactions, one per row.

    ``mass``, ``damping`` and ``stiffness`` are (..., 4) diagonals of
    M x'' + C x' + K x = F on x = [q_cos, q_sin, z, phi].  F is ``drive``
    (..., 4, 2), the first two columns of ``simulate_batch``'s forcing,
    times [cos wt, sin wt], w being ``omega`` (...), plus the loads, held
    as the reaction is, and the reactions r, which ``reaction``'s
    (2, ..., P, 4) blocks form from the law's outputs [N, u] at P points.
    The map reads [state | r_(j-1) | r_(j-2) | r_(j-3) | d | N | u],
    d = [cos wt_j, sin wt_j, the held loads on z and phi], and writes
    [next state | r_j | r_(j-1) | r_(j-2) | next d]: shape
    (..., 24 + 2P, 24), for row vectors.  The next d turns [cos wt, sin wt]
    by wh and holds the loads, so the map advances everything it reads but
    [N | u].  It is the exponential (``_expm``) of the system augmented
    by three blocks (Van Loan, IEEE Trans. Autom. Control 23 (1978)
    395-404): the drive's oscillator, which integrates the drive exactly;
    the held reaction and loads; and the reaction's first three
    derivatives, so that r is integrated as the cubic ``_HISTORY`` draws
    through its last four values (Hochbruck & Ostermann, Acta Numer. 19
    (2010) 209-286).  That is exponential Adams-Bashforth of fourth order
    for smooth forcing; the law's kinks and sub-step slip reversals leave
    an O(h) scatter.  Both blocks are needed, and the fourth order (README):
    at 1/(200 f), a drive held at the midpoint leaves 2.7 times the energy
    residual of the midpoint scheme at 1/(400 f), and r held at its
    two-value extrapolation 3 times its error in W; at the 1/(100 f)
    default, the quadratic through three values leaves 7.2e-5 of residual,
    where the cubic leaves 9e-8.

    The coordinates share only the drive's oscillator, which none of them
    moves, so each coordinate's system [x, x', cos wt, sin wt, r, r', ...]
    is exponentiated alone, at its own scaling: the stiff damper of a
    light rotor's axial motion, c h / m in the hundreds, adds no squaring
    to the modal block.  The reaction's derivatives add none: their rates,
    entries of 1, raise ||A^2||_1 to no more than the threshold of 1.  The
    turn by wh is the oscillator's rows of the spin's exponential, whose
    system has neither stiffness nor damping: on the default motor it takes
    no squaring, and its entries lie within an ulp of cos wh and sin wh.
    """
    m = mass.shape[-1]
    n, k = 2 * m, len(_HISTORY)
    kept = (k - 1) * m        # the map's r_j, ..., r_(j-k+2), which the next steps read
    # each coordinate's own system, on [x, x', cos wt, sin wt, r, r', ...]
    size = 4 + k
    omega = np.asarray(omega)[..., None]
    system = np.zeros(mass.shape + (size, size))
    system[..., 0, 1] = 1.0
    system[..., 1, 0] = -stiffness / mass
    system[..., 1, 1] = -damping / mass
    system[..., 1, 2:4] = drive / mass[..., None]
    system[..., 3, 2] = omega
    system[..., 2, 3] = -omega
    system[..., 1, 4] = 1.0 / mass
    system *= h
    c = np.arange(4, size - 1)
    system[..., c, c + 1] = 1.0      # each polynomial entry is the previous one's rate
    own = np.zeros(system.shape[:-1], dtype=bool)
    own[..., 1] = stiffness == 0     # a rate without stiffness is a block of its own
    # scattered into one map from [state | cos wt, sin wt | r | r' | ...] to the state
    i = np.arange(m)[:, None]
    inputs = np.concatenate([i, m + i, np.full((m, 2), [n, n + 1]), n + 2 + i + m * np.arange(k)],
                            axis=-1)
    exp = _expm(system, own)
    e = np.zeros(mass.shape[:-1] + (n + 2 + k * m, n))
    e[..., inputs[:, :, None], np.concatenate([i, m + i], axis=-1)[:, None, :]] = \
        np.swapaxes(exp[..., :2, :], -1, -2)
    poly = _HISTORY @ e[..., n + 2:, :].reshape(e.shape[:-2] + (k, m * n))
    history = poly.reshape(poly.shape[:-1] + (m, n))      # r_(j-i) -> next state
    forces = np.concatenate(list(reaction), axis=-2)      # [N | u] -> r
    to_state = np.concatenate([e[..., :n, :], history[..., 1:, :, :].reshape(
                                   history.shape[:-3] + (kept, n)),
                               e[..., n:n + 2, :], e[..., n + 4:n + 6, :],
                               forces @ history[..., 0, :, :]], axis=-2)
    # -> [r_j | r_(j-1) | ... | d]: d's held loads map to themselves, and its
    # [cos wt, sin wt] turn by wh, the spin's copy of the oscillator's rows
    d = n + kept
    to_next = np.zeros(to_state.shape[:-1] + (kept + m,))
    to_next[..., -forces.shape[-2]:, :m] = forces
    to_next[..., n:n + kept - m, m:kept] = np.eye(kept - m)
    to_next[..., d:d + m, kept:] = np.eye(m)
    to_next[..., d:d + 2, kept:kept + 2] = np.swapaxes(exp[..., -1, 2:4, 2:4], -1, -2)
    return np.concatenate([to_state, to_next], axis=-1)


def _expm(a: np.ndarray, own: np.ndarray) -> np.ndarray:
    """The exponential of each (n, n) matrix in ``a``, by scaling and squaring.

    Each matrix A is scaled by 2^-s, s being the least with
    ||(A 2^-s)^2||_1 <= 1; the Taylor polynomial of the scaled matrix is
    summed by Horner's rule and squared s times.  The scaling follows
    ||A^2||^(1/2), not ||A|| (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
    31 (2009) 970-989): a mode's system is badly scaled, omega^2 h sitting
    below the diagonal, so ||A||_1 is about 2e4 where the spectral radius
    is omega h, about 0.06, and every needless squaring doubles the
    rounding error of the near-identity modal block.  s is chosen for each
    matrix alone, so each result is bitwise independent of its batch.

    The diagonal entries that ``own`` (same shape as ``a``'s diagonals)
    marks are diagonal blocks of their own, on no cycle through any other
    entry, so exp(A) holds exp(a_jj) there.  Each squaring would double
    their rounding error, about 2^s ulps in the end, so they are set to
    exp(2^(i - s) a_jj) after the Taylor sum and after each squaring, as
    Al-Mohy & Higham (sec. 2) do for triangular matrices.
    """
    rho = np.sqrt(np.abs(a @ a).sum(axis=-2).max(axis=-1))
    s = np.ceil(np.log2(np.maximum(rho, 1.0))).astype(int)
    a = np.ldexp(a, -s[..., None, None])
    diagonal, j = np.diagonal(a, axis1=-2, axis2=-1), np.arange(a.shape[-1])
    eye = np.eye(a.shape[-1])
    e = eye + a / (_EXPM_TERMS - 1)
    for k in range(_EXPM_TERMS - 2, 0, -1):
        e = eye + a @ e / k

    def own_diagonal(i):      # e is exp(A 2^(i - s)), or exp(A) once i >= s
        exact = np.exp(np.ldexp(diagonal, np.minimum(i, s)[..., None]))
        e[..., j, j] = np.where(own, exact, e[..., j, j])

    own_diagonal(0)
    for i in range(s.max(initial=0)):
        square = s > i
        e[square] = e[square] @ e[square]
        own_diagonal(i + 1)
    return e


def simulate_batch(stator: StatorModel, rows, duration: float = 5e-3,
                   output_interval: float = 1e-5,
                   dt: float | None = None) -> list[MotorTimeSeries]:
    """Advance several transients on one stator together, one row each.

    ``rows`` is a sequence of (DriveConfig, ContactConfig, RotorConfig)
    triples.  The rows must share the step grid (``step_grid``'s step rule;
    any length is stepped) and the contact point count.  A batch of more
    than ``MAX_BATCH_POINTS`` rows x contact points or ``_MAX_SAMPLES``
    rows x samples is stepped in contiguous parts of at most that many
    rows, one after another, so its step and sample buffers stay bounded.
    Every array operation acts on each row alone, so a row's series and
    ``EnergyReport`` are bitwise the same whatever else runs in its batch
    or part.  Three rules keep them so, since a row's entries have stride B
    in a batch and stride 1 alone, and a chunk's length depends on B:

    - the products' width is padded: the step map's input is padded with
      zero entries, which the map reads with zero rows, to a multiple of 4
      entries.  The BLAS matrix-vector kernels for the two strides group a
      tail of fewer than 4 terms differently, and padded there is no tail;
      the kinematics product sums 8 terms, and the ledger's ``forcing @ d``
      4.
    - the ledger reduces over contiguous copies: the energy's sums over a
      row's state and its points, and the friction reaction's sum over
      them, u @ reaction[1] on a contiguous copy of the row's u, run over
      a contiguous last axis, and so does that reaction's product with the
      rates.  NumPy sums a contiguous axis pairwise but a strided one in
      sequence, which differs already at 8 terms.
    - the ledger's two products over a chunk's evaluations span one more,
      whose results are dropped: NumPy makes a product of one evaluation
      with the matrix-vector kernel, which groups its sums otherwise than
      the matrix-matrix kernel, and a chunk of one step evaluates once.

    A row's d is [1, 0, -preload, -load_torque] at t = 0, and the step map
    advances it, turning the drive's phase by wh and holding the loads, so
    the loop evaluates no cos or sin; each row's turn is its own map's.  The
    map and the ledger read one (B, 4, 4) ``forcing``, the drive pair's rows
    from ``DriveConfig.forcing`` and identity rows for the held loads: the
    map its first two columns, and the ledger prices ``forcing @ d`` times
    the velocities, d read from X, and friction as the velocities times
    u @ reaction[1], the friction reaction the map applies.  The step loop
    only steps, records each sample's raw entries and sums the ledger's
    powers; a row whose sample is not finite ends there and the other rows
    carry on.  Each row's
    series, its ``EnergyReport`` or its ``divergence`` are formed once,
    after the loop.  A row that went non-finite is truncated at its last
    finite sample and has no ledger.
    """
    drives, contacts, rotors = zip(*rows)
    if len({c.point_count for c in contacts}) != 1:
        raise ValueError("batched interfaces must share one point_count")
    grids = {_grid(stator, d, duration, output_interval, dt) for d in drives}
    if len(grids) != 1:
        raise ValueError("batched rows must share one step grid")
    h, steps_per_sample, n_samples = grids.pop()
    # ContactConfig and _grid bound both counts, so a part holds a row at least
    size = min(MAX_BATCH_POINTS // contacts[0].point_count, _MAX_SAMPLES // n_samples)
    if len(rows) > size:
        return [series for i in range(0, len(rows), size) for series in simulate_batch(
            stator, rows[i:i + size], duration, output_interval, dt)]
    n_steps = (n_samples - 1) * steps_per_sample

    geom = stator.geometry
    R = geom.mean_radius
    B = len(drives)
    m = 4             # [q_cos, q_sin, z, phi]
    n = 2 * m         # positions, then velocities, each laid out as above

    def per_row(values):
        return np.array(values, dtype=float)

    # [G_N, G_f] of the drive pair at one period of the contact points maps
    # the forces N and f each to [Q_cos, Q_sin, F_z, T].  Folded with each
    # row's law constants, its transpose maps the state to the law's
    # arguments [-k gap, slip / v], and its friction block carries -mu.  The
    # reaction is scaled by the period count, so it gives the whole ring's.
    penalty = per_row([c.penalty_stiffness for c in contacts])
    regularization = per_row([c.regularization_velocity for c in contacts])
    cof = per_row([c.cof for c in contacts])
    theta, periods = contact.interface_period(contacts[0], stator.pair.nodal_diameters)
    M = len(theta)
    kin, reaction = contact.fold(contact.interface_operator(stator.pair, geom, theta),
                                 penalty, regularization, cof)
    reaction *= periods

    omega_d = 2.0 * math.pi * per_row([d.resolve_frequency(stator.pair) for d in drives])
    # the forces on [q_cos, q_sin, z, phi] per d = [cos wt, sin wt, held loads]:
    # the drive pair's rows, then identity rows for the loads
    forcing = np.zeros((B, m, m))
    forcing[:, :2, :2] = [d.forcing(stator.forcing_per_volt * d.voltage) for d in drives]
    forcing[:, 2, 2] = forcing[:, 3, 3] = 1.0

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
    # the map's input [state | r_(j-1) | ... | r_(j-k+1) | d | N | u], k the
    # history's length, is padded with zero entries, read by zero rows, to a
    # multiple of 4 entries, so a row's product sums the same groups at any B
    # (see the docstring)
    d0 = n + (len(_HISTORY) - 1) * m      # where d starts
    f0 = d0 + m                           # where [N | u] starts
    width = -(-(f0 + 2 * M) // 4) * 4
    step_map = np.pad(_step_map(mass, damping, stiffness, forcing[..., :2], omega_d, reaction, h),
                      ((0, 0), (0, width - f0 - 2 * M), (0, 0)))
    weights = np.concatenate([stiffness, mass], axis=-1)
    damper = damping[:, :, None]
    compliance = periods / penalty

    def mech_energy(x):
        # a penalty spring at depth d stores k d^2 / 2 = N^2 / (2 k); each
        # sum runs over a row's contiguous copy, as in a batch of one
        y, normal = x[:n].T.copy(), x[f0:f0 + M].T.copy()
        return 0.5 * (np.sum(weights * y * y, axis=-1)
                      + compliance * np.sum(normal * normal, axis=-1))

    # A chunk holds as many whole sample intervals as fit in _CHUNK_ROW_STEPS
    # steps x rows, at least one; _grid admits no interval longer than
    # _CHUNK_STEPS.  The buffer is entry-major, the row last: X[j] holds
    # step j's step map input [state | r_(j-1) | ... | d | N | u], one
    # column per row.  The kinematics product writes the law's arguments
    # [-k gap | slip / v] into its [N | u] block, the law turns them into
    # [N | u] in place, and the map writes the next step's [state | r_j | ... | d].
    # The products read and write (B, 1, K) views whose vectors have stride
    # B; a batch of one makes them on 1-D views.  The views each step uses
    # are made once.
    chunk = max(1, _CHUNK_ROW_STEPS // (B * steps_per_sample)) * steps_per_sample
    X = np.zeros((chunk + 1, width, B))
    # d at t = 0, which the map advances: the drive's phase and the held loads
    X[0, d0:f0] = [np.ones(B), np.zeros(B), [-r.preload for r in rotors],
                   [-r.load_torque for r in rotors]]
    if B == 1:
        product, kin, step_map = _dot, kin[0], step_map[0]
        XP = X[..., 0]
    else:
        product = np.matmul
        XP = np.swapaxes(X, 1, 2)[:, :, None]
    step_views = [(XP[j], XP[j, ..., :n], XP[j, ..., f0:f0 + 2 * M],
                   X[j, f0:f0 + M], X[j, f0 + M:f0 + 2 * M], XP[j + 1, ..., :f0])
                  for j in range(chunk)]
    law = contact.evaluate_contact
    # each sample's [state | the reactions the map formed from it | u at the
    # first contact point], one column per row
    samples = np.zeros((n_samples, n + m + 1, B))
    alive = np.ones(B, dtype=bool)   # the loop ends early only when no row is left
    sample = 0
    acc = np.zeros((B, n + 1))     # sums of the powers: input, damper, friction
    k = 0                      # index of the chunk's first step

    with np.errstate(over="ignore", invalid="ignore"):   # found at the chunk's samples
        while True:
            # T steps advance; the last (T = 0) maps the final state for its reactions
            T = min(chunk, n_steps - k)
            count = max(T, 1)
            for x, y, contact_block, normal, traction, y_next in step_views[:count]:
                product(y, kin, contact_block)
                law(normal, traction)
                product(x, step_map, y_next)

            # the chunk's samples, their reactions one step later; a row
            # ends at its first sample that is not finite
            now = X[:count:steps_per_sample]
            record = samples[sample:sample + len(now)]
            record[:, :n] = now[:, :n]
            record[:, n:n + m] = X[1:count + 1:steps_per_sample, n:n + m]
            record[:, -1] = now[:, f0 + M]
            alive &= np.isfinite(record[:, :n + m]).all(axis=(0, 1))
            if not alive.any():
                break
            sample += len(now)

            # the ledger's powers at each evaluation, per row [input on each
            # coordinate, forcing @ d times its rate | damper on each |
            # friction, the reaction of f = -mu u dotted with the rates],
            # time along the last axis.  Its two products span one row of X
            # more, dropped after: NumPy makes a product of one evaluation
            # with the matrix-vector kernel, which sums in another order
            span = X[:count + 1]
            vel = X[:count, m:n].T
            power = np.empty((B, n + 1, count))
            np.multiply((forcing @ span[:, d0:d0 + m].T)[..., :count], vel, out=power[:, :m])
            np.multiply(damper, vel, out=power[:, m:n])
            power[:, m:n] *= vel
            # u @ reaction[1] on each row's contiguous copy of its points, and
            # the dot product's sum over a contiguous axis, as in a batch of one
            friction = span[:, f0 + M:f0 + 2 * M].transpose(2, 0, 1).copy() @ reaction[1]
            friction = friction[:, :count] * vel.transpose(0, 2, 1)
            np.add.reduce(friction, axis=-1, out=power[:, n])
            # summed over each sample interval (the last pass's one evaluation
            # alone), then the sums added to the totals in time order
            sums = np.add.reduce(power.reshape(B, n + 1, -1, min(count, steps_per_sample)),
                                 axis=-1)
            acc = np.add.accumulate(np.concatenate([acc[..., None], sums], axis=-1),
                                    axis=-1)[..., -1]
            if k == 0:
                first = power[..., 0]
                energy_initial = mech_energy(X[0])
            if T == 0:
                energy_final = mech_energy(X[0])
                break
            X[0, :f0] = X[T, :f0]   # [state | r_(j-1) | ... | d]
            k += T

    if alive.any():   # the loop ran to the end: trapezoidal work integrals
        work = h * (acc - 0.5 * (first + power[..., -1]))
        energy_change = energy_final - energy_initial
    time = np.arange(n_samples) * output_interval
    series = []
    for b in range(B):
        valid, divergence, energy = n_samples, None, None
        if alive[b]:
            w, change = work[b], float(energy_change[b])
            w_drive, w_preload, w_load = float(np.sum(w[:2])), float(w[2]), float(w[3])
            modal, friction, axial = float(np.sum(w[m:m + 2])), -float(w[n]), float(w[m + 2])
            residual = (w_drive + w_preload + w_load) - (change + modal + friction + axial)
            energy = EnergyReport(w_drive, w_preload, w_load, modal, friction, axial,
                                  change, residual,
                                  abs(residual) / abs(w_drive) if w_drive else None)
        else:   # the first sample not finite, and its first entry not finite
            finite = np.isfinite(samples[:, :n + m, b])
            valid = int(np.argmin(finite.all(axis=1)))
            divergence = SimulationDiverged(float(time[max(valid - 1, 0)]),
                                            ENTRY_NAMES[np.argmin(finite[valid])],
                                            float(time[valid]))
        y = samples[:valid, :, b].T
        series.append(MotorTimeSeries(
            time=time[:valid].copy(), surface_speed=R * y[n - 1],
            surface_displacement=R * y[3], friction_probe=-cof[b] * y[-1],
            torque=y[n + 3].copy(), axial_force=y[n + 2].copy(),
            wave_amplitude=stator.pair.amp * np.hypot(y[0], y[1]), radius=R,
            divergence=divergence, energy=energy))
    return series


def detect_steady_state(series: MotorTimeSeries) -> tuple[float, bool]:
    """Settling verdict (t_ss, settled): where consecutive window means of
    the flexural wave amplitude first agree.

    Non-overlapping windows of ``SETTLE_WINDOW`` seconds are compared
    pairwise; the first pair whose means differ by at most
    ``SETTLE_TOLERANCE`` (relative) gives (t_ss, True), t_ss being the
    shared window boundary: the time of the second window's first sample,
    as the series holds it, so a mask ``time >= t_ss`` keeps that sample.
    A series that never meets the tolerance gives (its end time, False).

    The stator vibration envelope is what reaches a repeatable level once
    the drive and contact transients die out, and its settling time is
    insensitive to the rotor inertia.  The verdict is the stator's, not the
    rotor's: the same window test calls a slow spin-up settled long before
    it ends.
    """
    if len(series) < 2:
        raise ValueError("series too short")
    interval = series.time[1] - series.time[0]
    wlen = _window_length(SETTLE_WINDOW, interval)
    probe = series.wave_amplitude
    n_windows = len(probe) // wlen
    if n_windows < 2:
        raise ValueError("series shorter than two windows")
    means = probe[:n_windows * wlen].reshape(n_windows, wlen).mean(axis=1)
    for j in range(n_windows - 1):
        m1, m2 = means[j], means[j + 1]
        denom = max(abs(m1), abs(m2))
        if abs(m2 - m1) <= SETTLE_TOLERANCE * denom:
            return float(series.time[(j + 1) * wlen]), True
    return float(series.time[-1]), False


def envelope_average(series: MotorTimeSeries, t_ss: float, period: float) -> float:
    """Mean upper envelope of the oscillating torque after steady state.

    The upper envelope is the per-window maximum over consecutive windows
    of one drive period, round(period / interval) samples, at least 2 in a
    run ``step_grid`` admits; envelope points farther than ``SPIKE_FACTOR``
    median-absolute-deviations from the envelope median are discarded
    before averaging.  That trims the envelope rather than rejecting rare
    spikes: it drops 22 of the default run's 188 points, and up to 101 of
    213 on a ``cof_sweep`` row.  At the default 10 us
    interval a window is 2 samples of a 24.27 us period, so this is the
    mean of maxima of point samples, not a mean torque.  It is
    the summary's ``reported_torque``, which acceptance gates 6 and 7 read.
    Fewer than 5 envelope points after ``t_ss`` give NaN, the summary's
    null; a ``t_ss`` outside the series raises ValueError.
    """
    if not series.time[0] <= t_ss <= series.time[-1]:
        raise ValueError(f"t_ss={t_ss:g} outside the series span")
    mask = series.time >= t_ss
    torque = series.torque[mask]
    interval = series.time[1] - series.time[0]
    wlen = _window_length(period, interval)
    n_windows = len(torque) // wlen
    envelope = torque[:n_windows * wlen].reshape(n_windows, wlen).max(axis=1)
    if len(envelope) < 5:
        return math.nan
    med = _median(envelope)
    mad = _median(np.abs(envelope - med))
    mad = max(mad, 1e-12 * abs(med))
    keep = np.abs(envelope - med) <= SPIKE_FACTOR * mad
    return float(np.mean(envelope[keep]))


def _median(values: np.ndarray) -> float:
    """NumPy's median of a 1-D array of finite floats, bit for bit.

    It partitions at the indices NumPy's median does, the middle one or two
    and the last, so values that compare equal, 0.0 and -0.0, land alike,
    then sums the middle values and divides by their count, as NumPy's mean
    does (the sum starts at +0.0, so a median of -0.0 reads 0.0).  NumPy's
    median also checks the last value for a NaN, through ``numpy.ma``, which
    would import it in every motor command; the envelope holds none, since
    the step loop ends a run at its last finite sample.
    """
    half = len(values) // 2
    low = half - 1 + len(values) % 2     # the first of the middle one or two
    middle = np.partition(values, [*range(low, half + 1), -1])[low:half + 1]
    return np.add.reduce(middle) / len(middle)


def mean_speed(series: MotorTimeSeries, t_ss: float) -> float:
    """Mean rotor spin rate (rad/s) after steady state."""
    if not series.time[0] <= t_ss <= series.time[-1]:
        raise ValueError(f"t_ss={t_ss:g} outside the series span")
    mask = series.time >= t_ss
    return float(np.mean(series.surface_speed[mask]) / series.radius)
