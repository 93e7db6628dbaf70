"""Two-phase forced response and its traveling-wave decomposition.

``DriveConfig.forcing`` is the one statement of the channel convention:
channel A drives the cosine shape with F cos(omega t), channel B the sine
shape with F cos(omega t + psi).  The transient's step map and energy
ledger (``dynamics.simulate_batch``) and the steady response here read
that matrix.  Complex amplitudes use the exp(+i omega t) convention, so
[cos omega t, sin omega t] is the real part of (1, -i) exp(i omega t),
the forces' complex amplitudes are forcing @ (1, -i), and the modal
response is q = F / (omega_n^2 - omega^2 + 2 i zeta omega_n omega).

The standing pair decomposes into traveling components via
q_f = (q_A - i q_B)/2 and q_b = (q_A + i q_B)/2; the forward component
multiplies exp(i(n theta + omega t)) and carries the rotor in +theta.
The surface kinematics of a modal state is ``contact.interface_operator``.
"""

from __future__ import annotations

import math

import numpy as np

from .record import Record
from .stator import ModePair, StatorGeometry

__all__ = [
    "DriveConfig",
    "WaveSolution",
    "steady_wave_response",
    "ideal_no_slip_speed",
]


class DriveConfig(Record):
    """Two-phase electrical drive.

    ``frequency`` of None means "drive at the selected pair's natural
    frequency".  ``phase_offset`` is the temporal lead of channel B:
    V_B(t) = V cos(omega t + phase_offset).
    """

    voltage: float = 300.0
    frequency: float | None = None
    phase_offset: float = math.pi / 2

    def __post_init__(self):
        if self.voltage < 0:
            raise ValueError("voltage must be >= 0")
        if self.frequency is not None and self.frequency <= 0:
            raise ValueError("frequency must be > 0")

    def resolve_frequency(self, pair: ModePair) -> float:
        return self.frequency if self.frequency is not None else pair.frequency_hz

    def forcing(self, force: float) -> np.ndarray:
        """The 2x2 matrix that maps [cos wt, sin wt] to the forces on
        [q_cos, q_sin]: [[F, 0], [F cos psi, -F sin psi]], F being each
        channel's ``force`` amplitude onto its shape and psi the phase offset,
        so channel B's row is F cos(wt + psi)."""
        psi = self.phase_offset
        return np.array([[force, 0.0], [force * np.cos(psi), -force * np.sin(psi)]])


class WaveSolution(Record):
    """Steady response of the mode pair and its traveling decomposition.

    ``w_forward``/``w_backward`` are the deflection amplitudes of the
    traveling components at the contact surface.
    """

    q_cos: complex
    q_sin: complex
    omega: float
    shape_amp: float
    nodal_diameters: int

    @property
    def q_forward(self) -> complex:
        return (self.q_cos - 1j * self.q_sin) / 2.0

    @property
    def q_backward(self) -> complex:
        return (self.q_cos + 1j * self.q_sin) / 2.0

    @property
    def w_forward(self) -> float:
        return self.shape_amp * abs(self.q_forward)

    @property
    def w_backward(self) -> float:
        return self.shape_amp * abs(self.q_backward)


def steady_wave_response(pair: ModePair, force: float, drive: DriveConfig,
                         zeta: float) -> WaveSolution:
    """Steady two-phase modal response at the drive frequency.

    ``force`` is each channel's force amplitude (already scaled by voltage)
    onto its shape: channel A's on the cosine shape, equal to channel B's
    on the sine shape.
    """
    if zeta <= 0:
        raise ValueError("modal damping ratio must be > 0")
    omega = 2.0 * math.pi * drive.resolve_frequency(pair)
    wn = pair.omega
    H = 1.0 / (wn * wn - omega * omega + 2j * zeta * wn * omega)
    q_cos, q_sin = (complex(f) * H for f in drive.forcing(force) @ (1, -1j))
    return WaveSolution(q_cos=q_cos, q_sin=q_sin, omega=omega,
                        shape_amp=pair.amp, nodal_diameters=pair.nodal_diameters)


def ideal_no_slip_speed(wave: WaveSolution, geom: StatorGeometry) -> float | None:
    """Rotor speed at which the rim follows this wave's crest tangential velocity.

    Magnitude n*z_c*omega*W/R^2; sign is the drive direction (positive
    for a dominant forward wave).  It is None, the summary's
    ``ideal_speed`` of null, unless the wave is nearly pure: a minor
    component of 1% of the dominant one or more has no no-slip speed.
    It is the no-slip speed of the wave without contact, not a bound on
    the motor's: a light rotor near resonance outruns it.
    """
    wf, wb = wave.w_forward, wave.w_backward
    dominant = max(wf, wb)
    minor = min(wf, wb)
    if dominant == 0.0:
        return 0.0
    if minor / dominant >= 0.01:
        return None
    n = wave.nodal_diameters
    zc = geom.contact_offset
    R = geom.mean_radius
    sign = 1.0 if wf >= wb else -1.0
    return sign * n * zc * wave.omega * dominant / R**2
