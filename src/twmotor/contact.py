"""Penalty normal contact and regularized Coulomb friction at the rotor interface.

The interface is sampled at M uniform angles on the mean contact radius.
Normal forces follow a one-sided penalty law on the gap between the rigid
rotor plane and the wavy stator surface; tangential forces follow a
tanh-regularized Coulomb law of the local slip velocity, so the friction
cone |f| < mu*N holds strictly and friction always opposes slip
(Wallaschek, Smart Mater. Struct. 7 (1998) 369-381):

    N = k max(0, -gap),    f = -mu N tanh(slip / v)

Gap and slip are linear in the motion, and the generalized forces linear
in N and f, so the law's constants k, v and mu fold into those linear
maps.  ``interface_operator`` is the one sampling of the drive mode pair
at the interface: it gives the virtual-work projection [G_N, G_f] of the
forces onto the pair and the rotor at any angles, the step loop's contact
points or a quadrature over one wavelength.  Since gap and slip are the
work conjugates of N and f, the kinematics is its transpose, and so is
the surface's deflection and tangential motion.  ``fold`` returns both
per interface with the constants folded in: the kinematics maps a state
straight to the law's arguments [-k gap, slip / v], and the friction
block of the reaction carries -mu.
What is left of the law is three elementwise passes, ``evaluate_contact``:

    N = max(-k gap, 0),    u = N tanh(slip / v)

and the friction force is f = -mu u, which the folded reaction applies:
[N, u] times it gives the generalized contact forces.

With the drive pair alone on the stator and a rigid rotor, the contact
pattern has the ring's cyclic symmetry: ``interface_period`` gives the
M / g points of one period, g = gcd(n, M), which stand for the whole ring
once the reactions are scaled by g.

This module is the one implementation of the law, with one call form:
the transient step loop calls ``evaluate_contact`` once per step, writing
into the loop's buffers, and its step map applies the folded reaction.
The law is elementwise, and the loop passes B interfaces as (M, B)
blocks, one column per interface; ``fold`` takes one (B,) array per
constant, and a single interface is a batch of one.  The folded
kinematics is one (2P, 2M) matrix per row, and the loop stores the
arguments entry-major: one matrix-vector product per row writes that
row's column of the (2M, B) block [-k gap | slip / v], whose two halves
the law reads as two C-contiguous (M, B) blocks, and the law's outputs
are two such blocks too.
"""

from __future__ import annotations

import math

import numpy as np

from .record import Record
from .stator import ModePair, StatorGeometry

__all__ = [
    "ContactConfig",
    "contact_angles",
    "evaluate_contact",
    "fold",
    "interface_operator",
    "interface_period",
]

# most contact points an interface holds: the step loop's buffers grow with
# the points, and a 1 ms run of one row at 2^14 peaks at 112 MiB, against 32 MiB
# at the default 128, on a 2-core x86-64 VM
_MAX_POINTS = 2 ** 14


class ContactConfig(Record):
    """Interface discretization and constitutive parameters."""

    point_count: int = 128
    penalty_stiffness: float = 2e5        # N/m per point
    regularization_velocity: float = 1e-3  # m/s
    cof: float = 0.2

    def __post_init__(self):
        if self.point_count < 4:
            raise ValueError("point_count must be >= 4")
        if self.point_count > _MAX_POINTS:
            raise ValueError(f"point_count {self.point_count} exceeds its bound of "
                             f"{_MAX_POINTS}")
        if self.penalty_stiffness <= 0:
            raise ValueError("penalty_stiffness must be > 0")
        if self.regularization_velocity <= 0:
            raise ValueError("regularization_velocity must be > 0")
        if self.cof < 0:
            raise ValueError("cof must be >= 0")

    def check_resolution(self, nodal_diameters: int):
        minimum = 4 * nodal_diameters
        if self.point_count < minimum:
            raise ValueError(
                f"point_count={self.point_count} cannot resolve n={nodal_diameters} "
                f"waves; need at least {minimum}"
            )


def fold(operator: np.ndarray, stiffness: np.ndarray,
         regularization_velocity: np.ndarray, cof: np.ndarray
         ) -> tuple[np.ndarray, np.ndarray]:
    """B interfaces' kinematics and reaction operators, their constants folded in.

    ``operator`` is [G_N, G_f] of shape (2, M, P), from
    ``interface_operator``: it maps the forces N and f to the generalized
    forces on P coordinates x.  ``stiffness``, ``regularization_velocity``
    and ``cof`` are (B,) arrays of each interface's k, v and mu.  The state
    is [x | x'], and gap = G_N^T x and slip = G_f^T x' are the work
    conjugates of N and f.  Returns the kinematics, shape (B, 2P, 2M),
    and the reaction operator, shape (2, B, M, P), of every row b:

        kinematics[b] = [-k_b G_N^T ; 0 | 0 ; G_f^T / v_b],
                        state -> [-k gap | slip / v]
        reaction[0, b] = G_N,   reaction[1, b] = -mu_b G_f

    so each row's state (2P,) times its kinematics gives that row's
    arguments of ``evaluate_contact`` [load | slip_ratio], which the step
    loop writes as column b of a (2M, B) block, and its outputs [N, u], two
    (M, B) blocks, times the reaction give the generalized forces of N and
    of f = -mu u.  Each row's operators are its own, so the kinematics is
    one small matrix-vector product per row.
    """
    normal, friction = operator
    m, p = normal.shape
    rows = len(cof)
    kinematics = np.zeros((rows, 2 * p, 2 * m))
    kinematics[:, :p, :m] = -stiffness[:, None, None] * normal.T
    kinematics[:, p:, m:] = friction.T / regularization_velocity[:, None, None]
    reaction = np.empty((2, rows, m, p))
    reaction[0] = normal
    reaction[1] = -cof[:, None, None] * friction
    return kinematics, reaction


def contact_angles(cfg: ContactConfig) -> np.ndarray:
    """Uniform sampling angles of the contact points."""
    return 2.0 * np.pi * np.arange(cfg.point_count) / cfg.point_count


def interface_period(cfg: ContactConfig, nodal_diameters: int) -> tuple[np.ndarray, int]:
    """The contact angles of one period of the interface, and how many periods it holds.

    With the drive pair alone on the stator and a rigid rotor, gap and slip
    at a contact point depend on its angle theta only through n theta.  So
    with g = gcd(n, M) they repeat every M / g points, point i + M / g
    lying 2 pi n / g further round in n theta, and every period loads the
    pair and the rotor alike (the ring's cyclic symmetry, Thomas, Int. J.
    Numer. Methods Eng. 14 (1979) 81-102).  Returns the first M / g angles
    of ``contact_angles`` and g: sums over the whole ring, the reactions
    and the ledger's point sums, are g times the sums over these points.
    When g = 1 these are all M points.
    """
    periods = math.gcd(nodal_diameters, cfg.point_count)
    return contact_angles(cfg)[:cfg.point_count // periods], periods


# The law's ufuncs, bound once as ``dynamics._dot`` is, so a step looks none of
# them up; and the clamp's bound, a 0-d array, since a Python 0.0 costs a
# conversion per call
_maximum, _tanh, _multiply = np.maximum, np.tanh, np.multiply
_ZERO = np.zeros(())


def evaluate_contact(load, slip_ratio, normal, traction) -> None:
    """The law at every contact point, in the arguments ``fold`` gives.

    ``load`` is -k gap, the penalty force before the one-sided clamp, and
    ``slip_ratio`` is slip / v, each an (M, B) block with one column per
    interface sampled at ``contact_angles``, as the step loop passes them;
    for a rotor at height z spinning at omega over a surface with
    deflection w and tangential velocity v_t, gap = z - w and
    slip = R omega - v_t.  Writes the normal forces N = max(-k gap, 0),
    which is k max(0, -gap) for k > 0, into ``normal``, and
    u = N tanh(slip / v) into ``traction``: the friction force is -mu u,
    applied by the folded reaction operator.  Three elementwise passes
    with no temporary, through ufuncs bound at import; ``tanh`` and
    ``multiply`` take their outputs positionally, which parses cheaper
    than ``out=``, and ``np.maximum`` by keyword, since NumPy 2.4
    deprecates a third positional argument to it.  The inputs are not
    validated here, because the step loop calls this every step: arrays
    without one entry per contact point fail to broadcast into the
    outputs.
    """
    _maximum(load, _ZERO, out=normal)
    _tanh(slip_ratio, traction)
    _multiply(normal, traction, traction)


def interface_operator(pair: ModePair, geom: StatorGeometry, theta) -> np.ndarray:
    """The virtual-work projection of the interface forces, one block per half.

    The drive pair's shapes deflect as phi = amp [cos(n theta), sin(n theta)];
    ``theta`` holds the M angles where the forces act, the contact points of
    ``contact_angles`` or any other sampling of the surface.  The result
    [G_N, G_f] has shape (2, M, 4): G_N maps the normal forces, and G_f the
    friction forces, to the generalized forces on the two shapes, then the
    rotor's axial force and torque.  The normal traction loads the
    deflection; the tangential traction loads the slope through the
    tooth-tip offset:

        Q_j = sum_i [ -N_i phi_j(theta_i) + f_i z_c phi_j'(theta_i) / R ]
        F_z = sum_i N_i,    T = R sum_i f_i

    Read the other way, for modal coordinates q the surface deflects by
    w = -G_N[:, :2] q and moves tangentially by u_t = -G_f[:, :2] q.
    """
    theta = np.asarray(theta, dtype=float)
    n, amp = pair.nodal_diameters, pair.amp
    cos_n, sin_n = np.cos(n * theta), np.sin(n * theta)
    shapes = amp * np.stack([cos_n, sin_n], axis=-1)
    slopes = amp * n * np.stack([-sin_n, cos_n], axis=-1)
    operator = np.zeros((2, len(theta), 4))
    operator[0, :, :2] = -shapes
    operator[1, :, :2] = (geom.contact_offset / geom.mean_radius) * slopes
    operator[0, :, 2] = 1.0
    operator[1, :, 3] = geom.mean_radius
    return operator
