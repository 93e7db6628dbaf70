"""Ring finite-element model of the annular stator.

The stator is reduced to a periodic Euler-Bernoulli beam on the unwrapped
mean circumference (length 2*pi*R).  Hermite elements carry one transverse
deflection and one slope DOF per node; the periodic wrap closes the ring.
This captures the n-nodal-diameter flexural mode family that forms the
traveling wave and admits an exact analytic dispersion check

    f_n = (1 / 2 pi) * (n / R)^2 * sqrt(EI / rho A).

Teeth are not meshed; they only offset the contact surface from the
neutral plane by ``contact_offset``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .materials import IsotropicMaterial, PiezoMaterial

__all__ = [
    "StatorGeometry",
    "RingMesh",
    "SystemMatrices",
    "ModeSet",
    "ModePair",
    "ModalForcing",
    "StatorModel",
    "build_ring_mesh",
    "assemble_system",
    "solve_eigen",
    "select_mode_pair",
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
        if min(self.mean_radius, self.section_width, self.section_thickness) <= 0:
            raise ValueError("mean_radius, section_width, section_thickness must be > 0")
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


@dataclass(frozen=True)
class RingMesh:
    """Uniform periodic mesh on the unwrapped ring.

    Node k sits at angle 2*pi*k/N; element N wraps back to node 0.
    DOF layout: (w_0, w'_0, w_1, w'_1, ...) with w' = dw/dx, x = R*theta.
    """

    element_count: int
    radius: float
    angles: np.ndarray = field(repr=False)

    @property
    def dof_count(self) -> int:
        return 2 * self.element_count

    @property
    def element_length(self) -> float:
        return 2.0 * math.pi * self.radius / self.element_count


@dataclass(frozen=True)
class SystemMatrices:
    """Assembled stiffness and consistent mass of the free periodic ring."""

    stiffness: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)


def build_ring_mesh(geom: StatorGeometry, n_elements: int) -> RingMesh:
    """Uniform periodic mesh; needs >= 8 elements per drive wavelength."""
    minimum = 8 * geom.drive_nodal_diameters
    if n_elements < minimum:
        raise ValueError(
            f"n_elements={n_elements} too coarse for n={geom.drive_nodal_diameters} "
            f"nodal diameters; need at least {minimum}"
        )
    angles = 2.0 * math.pi * np.arange(n_elements) / n_elements
    angles.flags.writeable = False
    return RingMesh(element_count=n_elements, radius=geom.mean_radius, angles=angles)


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


def assemble_system(mesh: RingMesh, mat: IsotropicMaterial,
                    geom: StatorGeometry) -> SystemMatrices:
    """Assemble Hermite beam stiffness/consistent mass with periodic wrap."""
    EI = mat.youngs_modulus * geom.section_width * geom.section_thickness**3 / 12.0
    rhoA = mat.density * geom.section_width * geom.section_thickness
    N = mesh.element_count
    ke, me = _element_matrices(EI, rhoA, mesh.element_length)
    K = np.zeros((2 * N, 2 * N))
    M = np.zeros((2 * N, 2 * N))
    for e in range(N):
        nxt = (e + 1) % N
        dofs = np.array([2 * e, 2 * e + 1, 2 * nxt, 2 * nxt + 1])
        K[np.ix_(dofs, dofs)] += ke
        M[np.ix_(dofs, dofs)] += me
    return SystemMatrices(stiffness=K, mass=M)


@dataclass(frozen=True)
class ModeSet:
    """Mass-normalized generalized eigenpairs, ascending in frequency.

    ``labels[i]`` is the nodal-diameter count of mode i, found by discrete
    Fourier decomposition of the deflection components.
    """

    frequencies_hz: np.ndarray = field(repr=False)
    shapes: np.ndarray = field(repr=False)          # (dofs, k), columns
    labels: np.ndarray = field(repr=False)
    mesh: RingMesh = field(repr=False)

    def __len__(self):
        return len(self.frequencies_hz)


def solve_eigen(system: SystemMatrices, k: int, mesh: RingMesh) -> ModeSet:
    """Solve K phi = omega^2 M phi for the k lowest modes."""
    ndof = system.stiffness.shape[0]
    if k > ndof:
        raise ValueError(f"requested {k} modes from a {ndof}-DOF system")
    vals, vecs = scipy.linalg.eigh(system.stiffness, system.mass)
    vals = vals[:k]
    vecs = vecs[:, :k]
    resid = _eigen_residuals(system, vals, vecs)
    if np.any(resid > 1e-6):
        bad = ", ".join(f"{r:.2e}" for r in resid[resid > 1e-6])
        raise RuntimeError(f"eigensolver did not converge; residual norms: {bad}")
    freqs = np.sqrt(np.maximum(vals, 0.0)) / (2.0 * math.pi)
    labels = np.empty(k, dtype=int)
    for i in range(k):
        w = vecs[0::2, i]
        spec = np.abs(np.fft.rfft(w))
        labels[i] = int(np.argmax(spec))
    return ModeSet(frequencies_hz=freqs, shapes=vecs, labels=labels, mesh=mesh)


def _eigen_residuals(system, vals, vecs):
    # scaled by ||K|| ||phi|| so the near-null rigid mode is judged fairly
    K, M = system.stiffness, system.mass
    r = K @ vecs - M @ vecs * vals
    num = np.linalg.norm(r, axis=0)
    den = np.linalg.norm(K, 1) * np.linalg.norm(vecs, axis=0)
    return num / np.maximum(den, 1e-300)


@dataclass(frozen=True)
class ModePair:
    """Degenerate flexural pair at one nodal-diameter count.

    The shapes are rotated so the deflection components follow
    amp*cos(n theta) and amp*sin(n theta); both are mass-normalized and
    M-orthogonal.  ``amp`` is the deflection amplitude of either shape.
    """

    nodal_diameters: int
    omega: float                  # rad/s, shared natural frequency
    amp: float                    # m per unit modal coordinate
    shape_cos: np.ndarray = field(repr=False)
    shape_sin: np.ndarray = field(repr=False)

    @property
    def frequency_hz(self) -> float:
        return self.omega / (2.0 * math.pi)

    def deflection(self, theta, q_cos, q_sin):
        """Surface deflection at angle(s) theta for modal coordinates q."""
        n = self.nodal_diameters
        return self.amp * (q_cos * np.cos(n * theta) + q_sin * np.sin(n * theta))


def select_mode_pair(modes: ModeSet, n: int, system: SystemMatrices) -> ModePair:
    """Extract and cosine/sine-align the degenerate pair at nodal diameter n."""
    if n < 1:
        raise ValueError("n=0 is not a traveling-wave pair")
    idx = np.flatnonzero(modes.labels == n)
    if len(idx) < 2:
        raise ValueError(
            f"mode pair n={n} not resolved; increase the mode count or mesh density"
        )
    i, j = int(idx[0]), int(idx[1])
    fi, fj = modes.frequencies_hz[i], modes.frequencies_hz[j]
    if abs(fi - fj) > 1e-3 * max(fi, fj):
        raise ValueError(
            f"modes labeled n={n} are not degenerate ({fi:.1f} vs {fj:.1f} Hz); "
            "increase mesh density"
        )
    phi1 = modes.shapes[:, i]
    phi2 = modes.shapes[:, j]
    theta = modes.mesh.angles
    N = modes.mesh.element_count

    def coeff(phi):
        w = phi[0::2]
        return 2.0 / N * np.sum(w * np.exp(-1j * n * theta))

    c1, c2 = coeff(phi1), coeff(phi2)
    A = np.array([[c1.real, c2.real], [c1.imag, c2.imag]])
    ab_cos = np.linalg.solve(A, [1.0, 0.0])   # target coefficient 1 -> cos
    ab_sin = np.linalg.solve(A, [0.0, -1.0])  # target coefficient -i -> sin
    M = system.mass
    phi_cos = ab_cos[0] * phi1 + ab_cos[1] * phi2
    phi_cos = phi_cos / math.sqrt(phi_cos @ M @ phi_cos)
    phi_sin = ab_sin[0] * phi1 + ab_sin[1] * phi2
    phi_sin = phi_sin - (phi_sin @ M @ phi_cos) * phi_cos
    phi_sin = phi_sin / math.sqrt(phi_sin @ M @ phi_sin)
    amp = abs(coeff(phi_cos))
    if np.sum(phi_cos[0::2] * np.cos(n * theta)) < 0:
        phi_cos = -phi_cos
    if np.sum(phi_sin[0::2] * np.sin(n * theta)) < 0:
        phi_sin = -phi_sin
    omega = 2.0 * math.pi * 0.5 * (fi + fj)
    for arr in (phi_cos, phi_sin):
        arr.flags.writeable = False
    return ModePair(nodal_diameters=n, omega=omega, amp=amp,
                    shape_cos=phi_cos, shape_sin=phi_sin)


@dataclass(frozen=True)
class ModalForcing:
    """Generalized drive forces per volt on the cosine/sine mode pair."""

    f_cos: float            # channel A onto the cosine shape, N per volt
    f_sin: float            # channel B onto the sine shape, N per volt


def piezo_modal_force(pair: ModePair, geom: StatorGeometry, piezo: PiezoMaterial,
                      voltage: float, piezo_offset: float | None = None) -> ModalForcing:
    """Project the electrode-induced bending moments onto the mode pair.

    Channel A is the standard 2n-sector alternating-polarity pattern
    aligned with cos(n theta); channel B is the same pattern rotated a
    quarter wavelength, pi/(2n).  An energized sector applies a bending
    moment per unit length m_p = -e31 * V * z_p (z_p: piezo mid-plane
    offset from the neutral axis); its virtual work against a shape's
    curvature gives the modal force.  Each of the 2n sectors adds 2/n to
    the integral over its own channel's shape, 4 in all, and the pattern
    is orthogonal to the other shape, so each channel drives only its own.
    """
    if piezo_offset is None:
        piezo_offset = geom.section_thickness / 2.0
    n = pair.nodal_diameters
    R = geom.mean_radius
    m_p = -piezo.e31 * voltage * piezo_offset
    # F_j = int s(theta) * m_p * b * phi_j''(x) * R dtheta, phi'' in x = R*theta
    force = 4.0 * (-m_p * geom.section_width * pair.amp * (n / R) ** 2 * R)
    return ModalForcing(f_cos=force, f_sin=force)


@dataclass(frozen=True)
class StatorModel:
    """Everything the drive and transient stages need from the stator.

    The transient keeps the drive pair alone: only it is forced by the
    electrodes.  ``forcing_per_volt`` scales linearly with drive voltage.
    """

    geometry: StatorGeometry
    mesh: RingMesh
    system: SystemMatrices = field(repr=False)
    modes: ModeSet = field(repr=False)
    pair: ModePair
    forcing_per_volt: ModalForcing
    damping_ratio: float

    @property
    def pairs(self) -> tuple[ModePair, ...]:
        """The drive pair as a one-tuple; ``perfbench``'s tracer reads it."""
        return (self.pair,)
