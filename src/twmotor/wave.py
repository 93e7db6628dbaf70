"""Two-phase forced response and traveling-wave surface kinematics.

Complex amplitudes use the exp(+i omega t) convention, so a channel
driven as F*cos(omega t + psi) has complex force F*exp(i psi) and the
modal response is q = F / (omega_n^2 - omega^2 + 2 i zeta omega_n omega).

The standing pair decomposes into traveling components via
q_f = (q_A - i q_B)/2 and q_b = (q_A + i q_B)/2; the forward component
multiplies exp(i(n theta + omega t)) and carries the rotor in +theta.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .stator import ModePair, StatorGeometry

__all__ = [
    "DriveConfig",
    "WaveSolution",
    "steady_wave_response",
    "surface_state",
    "ideal_no_slip_speed",
]


@dataclass(frozen=True)
class DriveConfig:
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


@dataclass(frozen=True)
class WaveSolution:
    """Steady response of the mode pair and its traveling decomposition.

    Amplitudes are deflections at the contact surface:
    ``w_forward``/``w_backward`` are the traveling components and
    ``amplitude`` their crest sum.
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

    @property
    def amplitude(self) -> float:
        return self.w_forward + self.w_backward


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
    q_cos = force * H
    q_sin = force * cmath.exp(1j * drive.phase_offset) * H
    return WaveSolution(q_cos=q_cos, q_sin=q_sin, omega=omega,
                        shape_amp=pair.amp, nodal_diameters=pair.nodal_diameters)


def surface_state(wave: WaveSolution, geom: StatorGeometry, theta, t):
    """Contact-surface kinematics at angle(s) theta and time(s) t.

    Returns (w, w_dot, u_t, v_t): axial deflection/velocity and the
    tangential displacement/velocity of a surface point at offset
    z_c from the neutral plane (u_t = -z_c dw/dx, x = R theta).
    """
    theta = np.asarray(theta, dtype=float)
    t = np.asarray(t, dtype=float)
    n = wave.nodal_diameters
    a = wave.shape_amp
    zc = geom.contact_offset
    R = geom.mean_radius
    omega = wave.omega
    phase = np.exp(1j * omega * t)
    S = wave.q_forward * np.exp(1j * n * theta) + wave.q_backward * np.exp(-1j * n * theta)
    dS = 1j * n * (wave.q_forward * np.exp(1j * n * theta)
                   - wave.q_backward * np.exp(-1j * n * theta))
    w = a * np.real(S * phase)
    w_dot = -a * omega * np.imag(S * phase)
    u_t = -(zc / R) * a * np.real(dS * phase)
    v_t = (zc / R) * a * omega * np.imag(dS * phase)
    return w, w_dot, u_t, v_t


def ideal_no_slip_speed(wave: WaveSolution, geom: StatorGeometry) -> float:
    """Rotor speed bound when the rim follows the crest tangential velocity.

    Magnitude n*z_c*omega*W/R^2; sign is the drive direction (positive
    for a dominant forward wave).  Requires a nearly pure traveling wave.
    """
    wf, wb = wave.w_forward, wave.w_backward
    dominant = max(wf, wb)
    minor = min(wf, wb)
    if dominant == 0.0:
        return 0.0
    if minor / dominant >= 0.01:
        raise ValueError(
            f"standing-wave component too large (ratio {minor / dominant:.3g}) "
            "for a no-slip speed"
        )
    n = wave.nodal_diameters
    zc = geom.contact_offset
    R = geom.mean_radius
    sign = 1.0 if wf >= wb else -1.0
    return sign * n * zc * wave.omega * dominant / R**2
