"""Penalty normal contact and regularized Coulomb friction at the rotor interface.

The interface is sampled at M uniform angles on the mean contact radius.
Normal forces follow a one-sided penalty law on the gap between the rigid
rotor plane and the wavy stator surface; tangential forces follow a
tanh-regularized Coulomb law of the local slip velocity, so the friction
cone |f| < mu*N holds strictly and friction always opposes slip.  The law
is defined on those two per-point quantities, gap and slip: the caller
forms them from the stator and rotor motion (the transient does so with
one kinematics product per step).

This module is the one implementation of the law, with one call form: the
transient step loop calls ``evaluate_contact`` and ``modal_reaction`` once
per step, both writing into the loop's buffers through ``out``.  Both take
B interfaces as (B, 1, M) rows, and a ``ContactBatch`` carries one
parameter row per interface; a single interface is a batch of one.  The
forces are stacked on a new leading axis, [N, f], and so are their
generalized forces [Q_N, Q_f].  So at any batch size the normal forces of
all interfaces form one contiguous block, and the friction forces another,
and each of the law's six elementwise passes runs over one block of
memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stator import StatorGeometry

__all__ = [
    "ContactConfig",
    "ContactBatch",
    "contact_angles",
    "evaluate_contact",
    "reaction_operator",
    "modal_reaction",
]


@dataclass(frozen=True)
class ContactConfig:
    """Interface discretization and constitutive parameters."""

    point_count: int = 128
    penalty_stiffness: float = 2e5        # N/m per point
    regularization_velocity: float = 1e-3  # m/s
    cof: float = 0.2

    def __post_init__(self):
        if self.point_count < 4:
            raise ValueError("point_count must be >= 4")
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


@dataclass(frozen=True)
class ContactBatch:
    """The parameters of B interfaces, one row each, for batched evaluation.

    The constitutive parameters are (B, 1, M) arrays, each row's value
    repeated at every point, so they match per-point arrays of shape
    (B, 1, M) without broadcasting (which costs more than the arithmetic
    at this size); ``point_count`` is shared.  The stiffness and the
    friction coefficient are kept negated, the signs the law multiplies
    by, and ``scratch`` is the law's working block of that shape.
    """

    point_count: int
    neg_stiffness: np.ndarray = field(repr=False)
    regularization_velocity: np.ndarray = field(repr=False)
    neg_cof: np.ndarray = field(repr=False)
    scratch: np.ndarray = field(repr=False)

    @classmethod
    def stack(cls, configs) -> "ContactBatch":
        configs = list(configs)
        counts = {c.point_count for c in configs}
        if len(counts) != 1:
            raise ValueError("batched interfaces must share one point_count")
        point_count = counts.pop()

        def column(values):
            values = np.array(values, dtype=float)
            return np.repeat(values.reshape(-1, 1, 1), point_count, axis=-1)

        return cls(point_count=point_count,
                   neg_stiffness=column([-c.penalty_stiffness for c in configs]),
                   regularization_velocity=column(
                       [c.regularization_velocity for c in configs]),
                   neg_cof=column([-c.cof for c in configs]),
                   scratch=np.empty((len(configs), 1, point_count)))


def contact_angles(cfg: ContactConfig) -> np.ndarray:
    """Uniform sampling angles of the contact points."""
    return 2.0 * np.pi * np.arange(cfg.point_count) / cfg.point_count


def evaluate_contact(gap, slip_velocity, law: ContactBatch, out=None) -> np.ndarray:
    """Evaluate the interface law at every contact point; return the forces [N, f].

    ``gap`` is the rotor plane's height above the stator surface, negative
    where they overlap, and ``slip_velocity`` is the rotor rim velocity
    minus the tangential surface velocity.  Both are (B, 1, M) arrays, one
    row per interface of ``law``, sampled at ``contact_angles``.  For a
    rotor at height z spinning at omega over a surface with deflection w and
    tangential velocity v_t, they are z - w and R*omega - v_t.  A single
    interface is the batch ``ContactBatch.stack([cfg])``.

    The forces, shape (2, B, 1, M), are written into ``out`` when it is
    given, else into a new array.  The law is six elementwise passes with
    no temporary: N = max(0, (-k) gap), which is k max(0, -gap) exactly for
    k > 0, and f = (-mu N) tanh(s / v).  The inputs are not validated here,
    because the step loop calls this every step: arrays without one entry
    per contact point fail to broadcast into the force buffer.
    """
    forces = np.empty((2,) + np.shape(gap)) if out is None else out
    normal, friction, scratch = forces[0], forces[1], law.scratch
    np.multiply(law.neg_stiffness, gap, out=normal)
    np.maximum(0.0, normal, out=normal)
    np.multiply(law.neg_cof, normal, out=scratch)
    np.divide(slip_velocity, law.regularization_velocity, out=friction)
    np.tanh(friction, out=friction)
    np.multiply(scratch, friction, out=friction)
    return forces


def reaction_operator(shape_w, shape_dtheta, geom: StatorGeometry) -> np.ndarray:
    """The virtual-work projection of the interface forces, one block per half.

    ``shape_w`` and ``shape_dtheta`` give each of J stator shapes'
    deflection and theta-derivative at the contact angles, one row per
    shape.  The result [G_N, G_f] has shape (2, M, J + 2): G_N maps the
    normal forces, and G_f the friction forces, to the generalized forces
    on the shapes, then the rotor's axial force and torque.  The normal
    traction loads the deflection; the tangential traction loads the slope
    through the tooth-tip offset:

        Q_j = sum_i [ -N_i phi_j(theta_i) + f_i z_c phi_j'(theta_i) / R ]
        F_z = sum_i N_i,    T = R sum_i f_i
    """
    shape_w = np.atleast_2d(np.asarray(shape_w, dtype=float))
    shape_dtheta = np.atleast_2d(np.asarray(shape_dtheta, dtype=float))
    j, m = shape_w.shape
    operator = np.zeros((2, m, j + 2))
    operator[0, :, :j] = -shape_w.T
    operator[1, :, :j] = (geom.contact_offset / geom.mean_radius) * shape_dtheta.T
    operator[0, :, j] = 1.0
    operator[1, :, j + 1] = geom.mean_radius
    return operator


def modal_reaction(forces: np.ndarray, operator: np.ndarray, out=None) -> np.ndarray:
    """Generalized forces of the normal and of the friction forces, [Q_N, Q_f].

    With ``operator`` = [G_N, G_f] from ``reaction_operator``, each half of
    the forces is multiplied by its own block: the result, shape
    (2, B, 1, J + 2), holds the generalized forces on the J shapes, then the
    axial force and torque, of the normal forces and of the friction
    forces.  Their sum over the first axis is the generalized contact
    force; the transient forms it inside its propagator product.

    The forces (2, B, 1, M) take the operator with a unit batch axis,
    ``operator[:, None]`` of shape (2, 1, M, J + 2): each half of each row
    is then one (1, M) @ (M, J + 2) product, so a row's result does not
    depend on the batch size.  The result is written into ``out`` when it
    is given.
    """
    if operator.ndim != forces.ndim:
        raise ValueError("operator needs a unit axis per batch axis of the forces")
    return np.matmul(forces, operator, out=out)
