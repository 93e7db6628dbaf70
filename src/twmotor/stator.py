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
``ring_modes`` writes each pencil's entries in closed form and takes its
two eigenvalues as the roots of its quadratic determinant, in real
arithmetic and without a linear-algebra library call.  That makes each
mode's label exact, each pair exactly degenerate and its amplitude a
closed form; the drive pair is read from its own pencil, so the size of
the mode table does not decide it.  Teeth are not meshed; they only
offset the contact surface from the neutral plane by ``contact_offset``.
"""

from __future__ import annotations

import math
from dataclasses import field

import numpy as np

from .materials import IsotropicMaterial, PiezoMaterial
from .record import Record

__all__ = [
    "StatorGeometry",
    "ModeSet",
    "ModePair",
    "StatorModel",
    "ring_modes",
    "piezo_modal_force",
]

# most elements a ring is solved with: every pencil n = 0..N/2 is formed, and
# at 2^20 elements that takes 0.26 s and 126 MB on a 2-core x86-64 VM
_MAX_ELEMENTS = 2 ** 20


class StatorGeometry(Record):
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


class ModeSet(Record):
    """The k lowest ring modes, ascending in frequency, as ``eigen`` lists them.

    ``labels[i]`` is the nodal-diameter count of mode i.  A pair with n in
    1..N/2-1 appears twice in a row, once for its cosine and once for its
    sine shape.
    """

    frequencies_hz: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)


class ModePair(Record):
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

    Needs >= 8 elements per drive wavelength and at most ``_MAX_ELEMENTS``,
    checked before any pencil is formed; k, 1..2N, only sizes the table.  Its
    domain is one rule, checked on the result: every root is finite and the
    drive pair's omega and amp are finite and > 0; any other stator, one
    whose pencils overflow or underflow float64, is a ValueError naming
    ``stator_material`` and the section.  Where the rule holds, each root's
    null-vector residual is far below 1e-8 (``tests/test_stator.py``).  Wave
    n is the nodal field u_j = v t^j with t = exp(i theta), theta = 2 pi n / N;
    with each Hermite element matrix split into 2x2 node blocks
    [[A, B], [B^T, D]], its pencil is K(n) = A + D + B t + B^T conj(t), and
    M(n) likewise.  With l = 2 pi R / N, c = cos theta, s = sin theta and
    1 - c taken as 2 sin^2(theta / 2), that is

        K(n) = EI / l^3 [[24 (1 - c), 12 i l s], [-12 i l s, 4 l^2 (2 + c)]]
        M(n) = rho A l / 420 [[312 + 108 c, -26 i l s], [26 i l s, l^2 (8 - 6 c)]]

    and det(K - lam M) = a lam^2 + b lam + c0 with c0 = 48 EI^2 (1 - c)^2 / l^4.
    With q = (-b + sqrt(b^2 - 4 a c0)) / 2 the roots are c0 / q and q / a,
    both >= 0.  Each eigenvalue of pencil n stands for m modes: m = 1 for
    n = 0 and N/2, and m = 2, a degenerate pair, otherwise.  With
    v^H M(n) v = 1, the mass-normalized deflection amplitude is
    |v_w| sqrt(m / N).
    """
    d = geom.drive_nodal_diameters
    if n_elements > _MAX_ELEMENTS:
        raise ValueError(f"mesh.n_elements {n_elements} exceeds its bound of {_MAX_ELEMENTS}")
    if n_elements < 8 * d:
        raise ValueError(f"mesh.n_elements {n_elements} too coarse for n={d} nodal "
                         f"diameters; need at least {8 * d}")
    if not 1 <= k <= 2 * n_elements:
        raise ValueError(f"mesh.modes requested {k} modes from a {2 * n_elements}-DOF system")
    # float64 scalars, so a power that overflows gives inf where a float's ** raises
    EI = mat.youngs_modulus * geom.section_width * np.float64(geom.section_thickness)**3 / 12.0
    rhoA = mat.density * geom.section_width * geom.section_thickness
    l = np.float64(geom.circumference) / n_elements
    n = np.arange(n_elements // 2 + 1)
    theta = 2.0 * math.pi * n / n_elements
    c, s = np.cos(theta), np.sin(theta)
    one_minus_c = 2.0 * np.sin(theta / 2.0) ** 2
    with np.errstate(all="ignore"):
        ek, em = EI / l**3, rhoA * l / 420.0
        # K(n) = [[k11, i kappa], [-i kappa, k22]] and M(n) = [[m11, i mu], [-i mu, m22]]
        k11, k22, kappa = ek * 24.0 * one_minus_c, ek * 4.0 * l * l * (2.0 + c), ek * 12.0 * l * s
        m11, m22, mu = em * (312.0 + 108.0 * c), em * l * l * (8.0 - 6.0 * c), -em * 26.0 * l * s
        # det(K - lam M) = a lam^2 + b lam + c0; c0 is k11 k22 - kappa^2 without its
        # cancellation at small theta, and q adds two terms >= 0
        a = m11 * m22 - mu**2
        b = -(k11 * m22 + k22 * m11 - 2.0 * kappa * mu)
        c0 = 48.0 * EI**2 * one_minus_c**2 / l**4
        q = (-b + np.sqrt(b * b - 4.0 * a * c0)) / 2.0
        vals = np.stack([c0 / q, q / a], axis=1)
        hz = np.sqrt(vals) / (2.0 * math.pi)
        # d < N/2, so the drive pencil stands for m = 2 modes; the null vector
        # of its lower root is [p, i r]
        p, r = k22[d] - vals[d, 0] * m22[d], kappa[d] - vals[d, 0] * mu[d]
        norm = m11[d] * p * p + m22[d] * r * r - 2.0 * mu[d] * p * r
        pair = ModePair(nodal_diameters=d, omega=float(2.0 * math.pi * hz[d, 0]),
                        amp=float(abs(p) * math.sqrt(2 / n_elements) / np.sqrt(norm)))
    if not (np.isfinite(hz).all() and 0 < pair.omega < math.inf and 0 < pair.amp < math.inf):
        raise ValueError(f"stator_material {mat.name!r} (density {mat.density:g} kg/m^3, "
                         f"youngs_modulus {mat.youngs_modulus:g} Pa) with {geom} has ring "
                         "modes beyond float64: roots not finite or a drive pair not > 0")
    count = np.where((n == 0) | (2 * n == n_elements), 1, 2)
    repeat = np.repeat(count, 2)
    keep = np.argsort(np.repeat(vals.ravel(), repeat), kind="stable")[:k]
    table = ModeSet(frequencies_hz=np.repeat(hz.ravel(), repeat)[keep],
                    labels=np.repeat(n, 2 * count)[keep])
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


class StatorModel(Record):
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
