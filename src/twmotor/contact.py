"""Penalty normal contact and regularized Coulomb friction at the rotor interface.

The interface is sampled at M uniform angles on the mean contact radius.
Normal forces follow a one-sided penalty law on the gap between the rigid
rotor plane and the wavy stator surface; tangential forces follow a
tanh-regularized Coulomb law of the local slip velocity, so the friction
cone |f| < mu*N holds strictly and friction always opposes slip.  The law
is defined on those two per-point quantities, gap and slip: the caller
forms them from the stator and rotor motion (the transient does so with
one kinematics product per step).

This module is the one implementation of the law: the transient step loop
calls ``evaluate_contact`` and ``modal_reaction`` once per step, both
writing into the loop's buffers through ``out``.  Both take any leading
batch axes in front of the contact-point axis, so B interfaces advance
together; a ``ContactBatch`` carries one parameter row per interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stator import StatorGeometry

__all__ = [
    "ContactConfig",
    "ContactBatch",
    "ContactState",
    "contact_angles",
    "evaluate_contact",
    "reaction_operator",
    "modal_reaction",
    "power_balance",
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
    at this size); ``point_count`` is shared.
    """

    point_count: int
    penalty_stiffness: np.ndarray = field(repr=False)
    regularization_velocity: np.ndarray = field(repr=False)
    cof: np.ndarray = field(repr=False)

    @classmethod
    def stack(cls, configs) -> "ContactBatch":
        configs = list(configs)
        counts = {c.point_count for c in configs}
        if len(counts) != 1:
            raise ValueError("batched interfaces must share one point_count")
        point_count = counts.pop()

        def column(name):
            values = np.array([getattr(c, name) for c in configs], dtype=float)
            return np.repeat(values.reshape(-1, 1, 1), point_count, axis=-1)

        return cls(point_count=point_count,
                   penalty_stiffness=column("penalty_stiffness"),
                   regularization_velocity=column("regularization_velocity"),
                   cof=column("cof"))


def contact_angles(cfg: ContactConfig) -> np.ndarray:
    """Uniform sampling angles of the contact points."""
    return 2.0 * np.pi * np.arange(cfg.point_count) / cfg.point_count


@dataclass(frozen=True)
class ContactState:
    """Per-point contact forces and their resultants on the rotor.

    Per-point arrays end in the contact-point axis (M); ``forces`` stacks
    the normal and friction forces along it as [N | f] (2M).  Resultants
    drop that axis, so a single interface gives scalars.
    """

    gap: np.ndarray = field(repr=False)            # m
    forces: np.ndarray = field(repr=False)         # N: normal (>= 0), then friction
    slip_velocity: np.ndarray = field(repr=False)  # m/s, rotor rim minus surface
    radius: float                                  # m, lever arm of the friction

    @property
    def normal_force(self) -> np.ndarray:
        """Normal force on the rotor, >= 0."""
        return self.forces[..., :self.gap.shape[-1]]

    @property
    def friction_force(self) -> np.ndarray:
        """Tangential force on the rotor."""
        return self.forces[..., self.gap.shape[-1]:]

    @property
    def axial_force(self):
        """Sum of the normal forces, N."""
        return np.sum(self.normal_force, axis=-1)

    @property
    def torque(self):
        """Friction torque about the spin axis, N*m."""
        return self.radius * np.sum(self.friction_force, axis=-1)

    @property
    def friction_power(self):
        """Sum f_i * s_i; non-positive (friction dissipates)."""
        return np.sum(self.friction_force * self.slip_velocity, axis=-1)


def evaluate_contact(gap, slip_velocity, geom: StatorGeometry,
                     cfg: ContactConfig | ContactBatch, out=None) -> ContactState:
    """Evaluate the interface law at every contact point.

    ``gap`` is the rotor plane's height above the stator surface, negative
    where they overlap, and ``slip_velocity`` is the rotor rim velocity
    minus the tangential surface velocity.  Both are sampled at
    ``contact_angles(cfg)``, with any leading batch axes.  For a rotor at
    height z spinning at omega over a surface with deflection w and
    tangential velocity v_t, they are z - w and R*omega - v_t.  ``cfg`` is
    a ``ContactConfig``, or a ``ContactBatch`` for arrays of shape
    (B, 1, M).

    The stacked forces [N | f] are written into ``out`` when it is given
    (shape: the leading axes, then 2M), else into a new array.  The inputs
    are not validated here, because the step loop calls this every step:
    arrays without one entry per contact point fail to broadcast into the
    force buffer.
    """
    m = cfg.point_count
    forces = np.empty(np.shape(gap)[:-1] + (2 * m,)) if out is None else out
    normal, friction = forces[..., :m], forces[..., m:]
    np.negative(gap, out=normal)
    np.maximum(0.0, normal, out=normal)
    np.multiply(cfg.penalty_stiffness, normal, out=normal)
    np.divide(slip_velocity, cfg.regularization_velocity, out=friction)
    np.tanh(friction, out=friction)
    np.multiply(-cfg.cof * normal, friction, out=friction)
    return ContactState(gap=gap, forces=forces, slip_velocity=slip_velocity,
                        radius=geom.mean_radius)


def reaction_operator(shape_w, shape_dtheta, geom: StatorGeometry) -> np.ndarray:
    """The virtual-work projection of the interface forces, as one matrix.

    ``shape_w`` and ``shape_dtheta`` give each of J stator shapes'
    deflection and theta-derivative at the contact angles, one row per
    shape.  The result G has shape (2M, J + 2) and maps the stacked forces
    [N | f] to the generalized forces on the shapes, then the rotor's
    axial force and torque.  The normal traction loads the deflection; the
    tangential traction loads the slope through the tooth-tip offset:

        Q_j = sum_i [ -N_i phi_j(theta_i) + f_i z_c phi_j'(theta_i) / R ]
        F_z = sum_i N_i,    T = R sum_i f_i
    """
    shape_w = np.atleast_2d(np.asarray(shape_w, dtype=float))
    shape_dtheta = np.atleast_2d(np.asarray(shape_dtheta, dtype=float))
    j, m = shape_w.shape
    operator = np.zeros((2 * m, j + 2))
    operator[:m, :j] = -shape_w.T
    operator[m:, :j] = (geom.contact_offset / geom.mean_radius) * shape_dtheta.T
    operator[:m, j] = 1.0
    operator[m:, j + 1] = geom.mean_radius
    return operator


def modal_reaction(state: ContactState, operator: np.ndarray, out=None) -> np.ndarray:
    """Generalized contact forces: ``state.forces @ operator``.

    With ``operator`` from ``reaction_operator``, the result holds the
    generalized forces on its J shapes, then the axial force and torque.
    For forces of shape (B, 1, 2M) the product is one small matrix product
    per row, so a row's result does not depend on the batch size.  The
    result is written into ``out`` when it is given.
    """
    return np.matmul(state.forces, operator, out=out)


def power_balance(state: ContactState, surface_wdot, surface_vt,
                  rotor_zdot, rotor_speed) -> dict:
    """Bookkeeping of contact power flow.

    The work rate on the rotor plus the work rate of the reactions on the
    stator surface equals the penalty-spring storage rate plus the
    friction dissipation Sum f_i s_i (<= 0); ``residual`` is the defect of
    that identity.
    """
    wdot = np.asarray(surface_wdot, dtype=float)
    vt = np.asarray(surface_vt, dtype=float)
    normal, friction = state.normal_force, state.friction_force
    p_rotor = state.axial_force * rotor_zdot + state.torque * rotor_speed
    p_stator = -np.sum(normal * wdot + friction * vt, axis=-1)
    p_penalty = np.sum(normal * (rotor_zdot - wdot), axis=-1)
    p_friction = state.friction_power
    return {
        "rotor": p_rotor,
        "stator": p_stator,
        "penalty": p_penalty,
        "friction": p_friction,
        "residual": p_rotor + p_stator - p_penalty - p_friction,
    }
