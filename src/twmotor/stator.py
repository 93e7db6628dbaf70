"""Ring finite-element model of the annular stator.

The stator is reduced to a periodic Euler-Bernoulli beam on the unwrapped
mean circumference (length 2*pi*R).  Hermite elements carry one transverse
deflection and one slope DOF per node; the periodic wrap closes the ring.
This captures the n-nodal-diameter flexural mode family that forms the
traveling wave and admits an exact analytic dispersion check

    f_n = (1 / 2 pi) * (n / R)^2 * sqrt(EI / rho A).

The uniform mesh makes the ring rotationally periodic, so its FE
eigenproblem splits exactly into one 2x2 Hermitian pencil per
nodal-diameter count n = 0..N/2 (Thomas, "Dynamics of rotationally
periodic structures", Int. J. Numer. Methods Eng. 14 (1979) 81-102).
``ring_modes`` solves them as one batch, each reduced to a standard
Hermitian problem by the Cholesky factor of its mass block (Golub & Van
Loan, *Matrix Computations*, 4th ed., section 8.7).  That makes each
mode's label exact, each pair exactly degenerate and its amplitude a
closed form; the drive pair is read from its own pencil, so the size of
the mode table does not decide it.  Teeth are not meshed; they only
offset the contact surface from the neutral plane by ``contact_offset``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .materials import IsotropicMaterial, PiezoMaterial

__all__ = [
    "StatorGeometry",
    "ModeSet",
    "ModePair",
    "StatorModel",
    "ring_modes",
    "piezo_modal_force",
]


@dataclass(frozen=True)
class StatorGeometry:
    """Mean-line geometry of the stator ring.

    ``contact_offset`` (tooth-tip distance from the neutral plane) is
    derived as h/2 + tooth_height and is where the rotor touches.
    """

    mean_radius: float            # m
    section_width: float          # m
    section_thickness: float      # m
    tooth_height: float = 0.0     # m
    drive_nodal_diameters: int = 4

    def __post_init__(self):
        for key in ("mean_radius", "section_width", "section_thickness"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be > 0")
        if self.tooth_height < 0:
            raise ValueError("tooth_height must be >= 0")
        if self.drive_nodal_diameters < 1:
            raise ValueError("drive_nodal_diameters must be >= 1")

    @property
    def contact_offset(self) -> float:
        return self.section_thickness / 2.0 + self.tooth_height

    @property
    def circumference(self) -> float:
        return 2.0 * math.pi * self.mean_radius


def _element_matrices(EI, rhoA, l):
    k = EI / l**3 * np.array(
        [
            [12.0, 6 * l, -12.0, 6 * l],
            [6 * l, 4 * l * l, -6 * l, 2 * l * l],
            [-12.0, -6 * l, 12.0, -6 * l],
            [6 * l, 2 * l * l, -6 * l, 4 * l * l],
        ]
    )
    m = rhoA * l / 420.0 * np.array(
        [
            [156.0, 22 * l, 54.0, -13 * l],
            [22 * l, 4 * l * l, 13 * l, -3 * l * l],
            [54.0, 13 * l, 156.0, -22 * l],
            [-13 * l, -3 * l * l, -22 * l, 4 * l * l],
        ]
    )
    return k, m


@dataclass(frozen=True)
class ModeSet:
    """The k lowest ring modes, ascending in frequency, as ``eigen`` lists them.

    ``labels[i]`` is the nodal-diameter count of mode i.  A pair with n in
    1..N/2-1 appears twice in a row, once for its cosine and once for its
    sine shape.
    """

    frequencies_hz: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ModePair:
    """Degenerate flexural pair at one nodal-diameter count.

    Its mass-normalized shapes deflect as amp*cos(n theta) and
    amp*sin(n theta).
    """

    nodal_diameters: int
    omega: float                  # rad/s, shared natural frequency
    amp: float                    # m per unit modal coordinate

    @property
    def frequency_hz(self) -> float:
        return self.omega / (2.0 * math.pi)


def ring_modes(geom: StatorGeometry, mat: IsotropicMaterial, n_elements: int,
               k: int) -> tuple[ModeSet, ModePair]:
    """The k lowest modes of the uniform periodic ring of ``n_elements``, and
    its drive pair: the lower mode of pencil ``geom.drive_nodal_diameters``.

    Needs >= 8 elements per drive wavelength; k only sizes the table.  Wave
    n is the nodal field u_j = v t^j with t = exp(2 pi i n / N); with each
    element matrix split into 2x2 node blocks [[A, B], [B^T, D]], its pencil
    is K(n) = A + D + B t + B^T conj(t), and M(n) likewise.  Each eigenvalue
    of pencil n stands for c modes: c = 1 for n = 0 and N/2, and c = 2, a
    degenerate pair, otherwise.  With v^H M(n) v = 1, the mass-normalized
    deflection amplitude is |v_w| sqrt(c / N).
    """
    d = geom.drive_nodal_diameters
    if n_elements < 8 * d:
        raise ValueError(f"n_elements={n_elements} too coarse for n={d} nodal diameters; "
                         f"need at least {8 * d}")
    if not 1 <= k <= 2 * n_elements:
        raise ValueError(f"requested {k} modes from a {2 * n_elements}-DOF system")
    EI = mat.youngs_modulus * geom.section_width * geom.section_thickness**3 / 12.0
    rhoA = mat.density * geom.section_width * geom.section_thickness
    n = np.arange(n_elements // 2 + 1)
    t = np.exp(2j * math.pi * n / n_elements)[:, None, None]

    def pencil(e):
        return e[:2, :2] + e[2:, 2:] + e[:2, 2:] * t + e[2:, :2] * t.conj()

    K, M = map(pencil, _element_matrices(EI, rhoA, geom.circumference / n_elements))
    inv_l = np.linalg.inv(np.linalg.cholesky(M))
    inv_lh = inv_l.conj().swapaxes(1, 2)
    vals, vecs = np.linalg.eigh(inv_l @ K @ inv_lh)
    vecs = inv_lh @ vecs
    # scaled by ||K(n)|| ||v|| so the null rigid mode is judged fairly
    resid = (np.linalg.norm(K @ vecs - M @ vecs * vals[:, None, :], axis=1)
             / np.linalg.norm(K, 1, axis=(1, 2))[:, None]
             / np.linalg.norm(vecs, axis=1))
    if np.any(resid > 1e-6):
        bad = ", ".join(f"{r:.2e}" for r in resid[resid > 1e-6])
        raise RuntimeError(f"eigensolver did not converge; residual norms: {bad}")
    hz = np.sqrt(np.maximum(vals, 0.0)) / (2.0 * math.pi)
    count = np.where((n == 0) | (2 * n == n_elements), 1, 2)
    repeat = np.repeat(count, 2)
    keep = np.argsort(np.repeat(vals.ravel(), repeat), kind="stable")[:k]
    table = ModeSet(frequencies_hz=np.repeat(hz.ravel(), repeat)[keep],
                    labels=np.repeat(n, 2 * count)[keep])
    # d < N/2, so the drive pencil stands for c = 2 modes
    pair = ModePair(nodal_diameters=d, omega=float(2.0 * math.pi * hz[d, 0]),
                    amp=float(np.abs(vecs[d, 0, 0]) * np.sqrt(2 / n_elements)))
    return table, pair


def piezo_modal_force(pair: ModePair, geom: StatorGeometry, piezo: PiezoMaterial,
                      voltage: float) -> float:
    """Project the electrode-induced bending moments onto the mode pair.

    Channel A is the standard 2n-sector alternating-polarity pattern
    aligned with cos(n theta); channel B is the same pattern rotated a
    quarter wavelength, pi/(2n).  An energized sector applies a bending
    moment per unit length m_p = -e31 * V * z_p (z_p: piezo mid-plane
    offset from the neutral axis, half the section thickness); its
    virtual work against a shape's curvature gives the modal force.  Each
    of the 2n sectors adds 2/n to the integral over its own channel's
    shape, 4 in all, and the pattern is orthogonal to the other shape, so
    each channel drives only its own.
    So both channels carry one generalized force, which is returned (N):
    channel A's on the cosine shape, equal to channel B's on the sine shape.
    """
    n = pair.nodal_diameters
    R = geom.mean_radius
    m_p = -piezo.e31 * voltage * (geom.section_thickness / 2.0)
    # F_j = int s(theta) * m_p * b * phi_j''(x) * R dtheta, phi'' in x = R*theta
    return 4.0 * (-m_p * geom.section_width * pair.amp * (n / R) ** 2 * R)


@dataclass(frozen=True)
class StatorModel:
    """Everything the drive and transient stages need from the stator.

    The transient keeps the drive pair alone: only it is forced by the
    electrodes.  ``forcing_per_volt`` scales linearly with drive voltage.
    """

    geometry: StatorGeometry
    modes: ModeSet = field(repr=False)
    pair: ModePair
    forcing_per_volt: float     # N per volt on each shape of the pair
    damping_ratio: float

    @property
    def pairs(self) -> tuple[ModePair, ...]:
        """The drive pair as a one-tuple; ``perfbench``'s tracer reads it."""
        return (self.pair,)
