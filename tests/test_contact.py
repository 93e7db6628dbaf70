"""Penalty contact and regularized friction: invariants and bookkeeping.

The friction-cone and sign properties are exercised with randomized
surface states via hypothesis; the modal projections and rotor resultants
are checked against brute-force summation, the law against its direct
formula, and the folded operators against ``interface_operator`` in closed
form.  The law is called the way the step loop calls it: in the arguments
``fold`` gives, on (M, B) blocks with one column per interface, a single
interface being a batch of one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twmotor.contact import (
    ContactConfig,
    contact_angles,
    evaluate_contact,
    fold,
    interface_operator,
    interface_period,
)
from twmotor.stator import ModePair, StatorGeometry

GEOM = StatorGeometry(mean_radius=0.0125, section_width=0.005,
                      section_thickness=0.0025, tooth_height=0.001,
                      drive_nodal_diameters=4)
R = GEOM.mean_radius


def one_interface(*per_point):
    """Per-point arrays of one interface as the (M, 1) blocks of a batch of one."""
    return [np.reshape(a, (-1, 1)) for a in per_point]


def fold_rows(operator, configs):
    """``fold`` of one operator with each config's k, v and mu as a row."""
    def per_row(name):
        return np.array([getattr(c, name) for c in configs], dtype=float)
    return fold(operator, per_row("penalty_stiffness"), per_row("regularization_velocity"),
                per_row("cof"))


def identity_fold(configs):
    """The folded operators of B interfaces whose state is [gap | slip].

    With the identity for both blocks of the reaction operator, the folded
    kinematics maps [gap | slip] to the law's arguments [-k gap | slip / v],
    and the folded reaction maps the law's outputs [N, u] to the forces
    [N, -mu u]: every product has one non-zero term, so it is exact.
    """
    eye = np.eye(configs[0].point_count)
    return fold_rows(np.stack([eye, eye]), configs)


def kinematics_product(states, kinematics):
    """The law's arguments [-k gap | slip / v], a (2M, B) block, at the
    (2P, B) states of B interfaces, one column each: one matrix-vector
    product per row, on (B, 1, .) views whose vectors have stride B, as
    the step loop makes them."""
    arguments = np.empty((kinematics.shape[-1], states.shape[-1]))
    np.matmul(states.T[:, None], kinematics, out=arguments.T[:, None])
    return arguments


def law_outputs(arguments):
    """The law's outputs [N, u], shape (2, M, B), at the (2M, B) block
    [-k gap | slip / v] of the folded kinematics: the law runs in place on
    a copy of the block's two halves."""
    outputs = np.array(np.split(arguments, 2))
    evaluate_contact(*outputs)
    return outputs


def reactions(outputs, reaction):
    """The generalized forces of each half, shape (2, B, P), of the (M, B)
    blocks ``outputs``: each row's column times that row's (M, P) block of
    ``reaction`` (2, B, M, P), or of an operator with a unit batch axis,
    one matrix-vector product per row."""
    return np.matmul(np.swapaxes(outputs, -1, -2)[..., None, :], reaction)[..., 0, :]


def evaluate_rows(gap, slip, configs):
    """The forces [N, f], shape (2, M, B), of B interfaces at their (M, B)
    gaps and slips, through the step loop's folded form."""
    kinematics, reaction = identity_fold(configs)
    outputs = law_outputs(kinematics_product(np.concatenate([gap, slip]), kinematics))
    return np.swapaxes(reactions(outputs, reaction), -1, -2)


def evaluate_one(gap, slip, cfg):
    """The forces [N, f] of one interface, each of shape (M, 1)."""
    return evaluate_rows(*one_interface(gap, slip), [cfg])


def flexural_operator(theta):
    """The cos/sin(4 theta) pair's shapes and their theta-derivatives, written
    out as the independent reference, and the pair's interface operator with
    a unit batch axis."""
    shape_w = np.vstack([np.cos(4 * theta), np.sin(4 * theta)])
    shape_d = np.vstack([-4 * np.sin(4 * theta), 4 * np.cos(4 * theta)])
    operator = interface_operator(ModePair(4, 1.0, 1.0), GEOM, theta)
    return shape_w, shape_d, operator[:, None]


def power_balance(forces, slip, surface_wdot, surface_vt, rotor_zdot,
                  rotor_speed) -> dict:
    """Bookkeeping of contact power flow for one interface.

    The work rate on the rotor plus the work rate of the reactions on the
    stator surface equals the penalty-spring storage rate plus the
    friction dissipation Sum f_i s_i (<= 0); ``residual`` is the defect of
    that identity.
    """
    wdot = np.asarray(surface_wdot, dtype=float)
    vt = np.asarray(surface_vt, dtype=float)
    normal, friction = forces
    p_rotor = np.sum(normal) * rotor_zdot + R * np.sum(friction) * rotor_speed
    p_stator = -np.sum(normal * wdot + friction * vt)
    p_penalty = np.sum(normal * (rotor_zdot - wdot))
    p_friction = np.sum(friction * slip)
    return {
        "rotor": p_rotor,
        "stator": p_stator,
        "penalty": p_penalty,
        "friction": p_friction,
        "residual": p_rotor + p_stator - p_penalty - p_friction,
    }


def random_state(rng, cfg):
    """A physically plausible random contact evaluation."""
    m = cfg.point_count
    theta = contact_angles(cfg)
    amp = rng.uniform(0.0, 5e-6)
    phase = rng.uniform(0, 2 * math.pi)
    w = amp * np.cos(4 * theta - phase) + rng.normal(0, 1e-7, m)
    vt = rng.normal(0, 0.2, m)
    z = rng.uniform(-4e-6, 4e-6)
    speed = rng.normal(0, 20.0)
    return w, vt, z, speed


class TestConfig:
    def test_defaults_valid(self):
        cfg = ContactConfig()
        cfg.check_resolution(4)

    def test_resolution_precondition(self):
        with pytest.raises(ValueError):
            ContactConfig(point_count=12).check_resolution(4)

    @pytest.mark.parametrize("bad", [
        {"penalty_stiffness": 0.0},
        {"regularization_velocity": 0.0},
        {"cof": -0.1},
        {"point_count": 0},
    ])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            ContactConfig(**bad)

    def test_point_count_bounded(self):
        """2^14 points is the most an interface holds; one more is refused,
        and the lower bound keeps its message."""
        assert ContactConfig(point_count=2 ** 14).point_count == 2 ** 14
        with pytest.raises(ValueError, match="^point_count 16385 exceeds its bound of 16384$"):
            ContactConfig(point_count=2 ** 14 + 1)
        with pytest.raises(ValueError, match="^point_count must be >= 4$"):
            ContactConfig(point_count=3)

    def test_angles_uniform(self):
        cfg = ContactConfig(point_count=32)
        th = contact_angles(cfg)
        assert len(th) == 32
        np.testing.assert_allclose(np.diff(th), 2 * math.pi / 32)


class TestPointwiseInvariants:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_friction_cone_and_signs(self, seed):
        rng = np.random.default_rng(seed)
        cfg = ContactConfig()
        w, vt, z, speed = random_state(rng, cfg)
        gap, slip = z - w, R * speed - vt
        normal, friction = evaluate_one(gap, slip, cfg)[..., 0]
        assert np.all(normal >= 0.0)
        assert np.all(normal[gap > 0] == 0.0)
        # friction cone: strict inequality below tanh saturation, which
        # rounds to exactly 1.0 in double precision for |s|/v_reg >~ 19
        active = normal > 0
        assert np.all(np.abs(friction[active]) <= cfg.cof * normal[active])
        unsaturated = active & (np.abs(slip) < 18.0 * cfg.regularization_velocity)
        assert np.all(np.abs(friction[unsaturated]) < cfg.cof * normal[unsaturated])
        # friction opposes slip
        assert np.all(friction * slip <= 0.0)

    def test_separated_rotor_is_force_free(self):
        cfg = ContactConfig()
        m = cfg.point_count
        forces = evaluate_one(1e-3 - np.zeros(m), R * 5.0 - np.zeros(m), cfg)
        assert np.all(forces == 0.0)

    def test_normal_force_is_penalty_linear(self):
        cfg = ContactConfig()
        m = cfg.point_count
        depth = 2e-6
        normal, _ = evaluate_one(-depth - np.zeros(m), R * 0.0 - np.zeros(m), cfg)
        np.testing.assert_allclose(normal, cfg.penalty_stiffness * depth)

    def test_frictionless_has_zero_torque(self):
        cfg = ContactConfig(cof=0.0)
        m = cfg.point_count
        normal, friction = evaluate_one(-1e-6 - np.zeros(m),
                                        R * 10.0 - np.full(m, 0.3), cfg)
        assert R * np.sum(friction) == 0.0
        assert np.sum(normal) > 0.0


class TestModalReaction:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        cfg = ContactConfig()
        w, vt, z, speed = random_state(rng, cfg)
        forces = evaluate_one(z - w, R * speed - vt, cfg)
        shape_w, shape_d, operator = flexural_operator(contact_angles(cfg))
        q = reactions(forces, operator).sum(axis=0)[0]
        normal, friction = forces[..., 0]
        zc_R = GEOM.contact_offset / GEOM.mean_radius
        for j in range(2):
            brute = sum(-normal[i] * shape_w[j, i] + zc_R * friction[i] * shape_d[j, i]
                        for i in range(cfg.point_count))
            assert q[j] == pytest.approx(brute, rel=1e-12, abs=1e-12)
        # the two trailing entries are the rotor resultants: F_z and T
        assert q[2] == pytest.approx(sum(normal), rel=1e-12, abs=1e-12)
        assert q[3] == pytest.approx(R * sum(friction), rel=1e-12, abs=1e-15)

    def test_uniform_pressure_decouples_from_flexural_shapes(self):
        """A uniform normal-force ring does no virtual work on cos/sin(4t)."""
        cfg = ContactConfig()
        m = cfg.point_count
        forces = evaluate_one(-1e-6 - np.zeros(m), R * 0.0 - np.zeros(m), cfg)
        _, _, operator = flexural_operator(contact_angles(cfg))
        q = reactions(forces, operator).sum(axis=0)[0]
        np.testing.assert_allclose(q[:2], 0.0, atol=1e-9)


class TestFoldedOperators:
    """``fold`` against ``interface_operator``, row by row."""

    def test_each_row_carries_its_own_constants(self):
        configs = [ContactConfig(cof=0.1),
                   ContactConfig(cof=0.45, penalty_stiffness=3e5,
                                 regularization_velocity=2e-3),
                   ContactConfig(cof=0.0, penalty_stiffness=7e4,
                                 regularization_velocity=5e-4)]
        _, _, operator = flexural_operator(contact_angles(configs[0]))
        normal, friction = operator[:, 0]
        p = normal.shape[1]
        m = configs[0].point_count
        kinematics, reaction = fold_rows(operator[:, 0], configs)
        assert kinematics.shape == (3, 2 * p, 2 * m)
        assert reaction.shape == (2, 3, m, p)
        for b, cfg in enumerate(configs):
            # positions map to -k gap, velocities to slip / v
            assert np.array_equal(kinematics[b, :p, :m], -cfg.penalty_stiffness * normal.T)
            assert np.array_equal(kinematics[b, p:, m:],
                                  friction.T / cfg.regularization_velocity)
            assert not kinematics[b, p:, :m].any() and not kinematics[b, :p, m:].any()
            assert np.array_equal(reaction[0, b], normal)
            assert np.array_equal(reaction[1, b], -cfg.cof * friction)

    def test_kinematics_gives_gap_and_slip_of_the_motion(self):
        """The unfolded blocks are gap = z - q . phi and
        slip = R omega + (z_c / R) q' . phi'."""
        cfg = ContactConfig()
        theta = contact_angles(cfg)
        shape_w, shape_d, operator = flexural_operator(theta)
        kinematics, _ = fold_rows(operator[:, 0], [cfg])
        q, z, qdot, omega = np.array([3e-7, -2e-7]), 1e-7, np.array([0.2, 0.1]), 40.0
        state = np.concatenate([q, [z, 0.5], qdot, [0.0, omega]])
        load, slip_ratio = np.split(state @ kinematics[0], 2)
        gap = z - q @ shape_w
        slip = R * omega + GEOM.contact_offset / R * (qdot @ shape_d)
        np.testing.assert_allclose(load, -cfg.penalty_stiffness * gap, rtol=1e-12)
        np.testing.assert_allclose(slip_ratio, slip / cfg.regularization_velocity,
                                   rtol=1e-12)


class TestInterfacePeriod:
    """One period of the interface, M / g points with g = gcd(n, M), stands
    for the whole ring: its reactions, and the ledger's point sums, times g
    match the evaluation at all M points, for random rotor and wave states
    of three interfaces at once."""

    @pytest.mark.parametrize("n, count, periods", [
        (4, 128, 4), (4, 132, 4), (3, 128, 1), (6, 64, 2)])
    def test_matches_all_points(self, n, count, periods):
        rng = np.random.default_rng(100 * n + count)
        configs = [ContactConfig(point_count=count, cof=c, penalty_stiffness=k,
                                 regularization_velocity=v)
                   for c, k, v in ((0.1, 2e5, 1e-3), (0.3, 5e5, 2e-3), (0.5, 1e5, 5e-4))]
        pair = ModePair(n, 2 * math.pi * 4e4, 1.0)
        # [q_cos, q_sin, z, phi | their rates]: a wave of a few um, the
        # rotor near the crests, rates of the drive frequency and a spin
        q = rng.uniform(-5e-6, 5e-6, (3, 2))
        states = np.concatenate([q, rng.uniform(-4e-6, 4e-6, (3, 1)), np.zeros((3, 1)),
                                 2.5e5 * q[:, ::-1] * [1.0, -1.0],
                                 rng.normal(0.0, 0.05, (3, 1)), rng.normal(0.0, 20.0, (3, 1))],
                                axis=-1).T

        def evaluate(theta, scale):
            operator = interface_operator(pair, GEOM, theta)
            kinematics, reaction = fold_rows(operator, configs)
            arguments = kinematics_product(states, kinematics)
            outputs = law_outputs(arguments)
            slip_ratio = arguments[len(theta):]
            sums = [np.sum(outputs[0] ** 2, axis=0), np.sum(outputs[1] * slip_ratio, axis=0)]
            return reactions(outputs, scale * reaction), [scale * a for a in sums]

        theta, g = interface_period(configs[0], n)
        assert g == periods
        assert np.array_equal(theta, contact_angles(configs[0])[:count // g])
        full, full_sums = evaluate(contact_angles(configs[0]), 1)
        reduced, reduced_sums = evaluate(theta, g)
        assert np.any(full[0] != 0.0) and np.any(full[1] != 0.0)    # in contact, slipping
        for half in range(2):
            scale = np.max(np.abs(full[half]), axis=-1, keepdims=True)
            assert np.all(np.abs(reduced[half] - full[half]) <= 1e-13 * scale)
        for got, want in zip(reduced_sums, full_sums):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestLedgerFriction:
    """The step loop's ledger prices friction as the rates dotted with the
    reaction of f = -mu u that the step map applies, rates . (u @
    reaction[1]), the reaction scaled by the period count g.  The
    kinematics is the reaction operator's transpose, so by virtual work
    that is g Sum f slip over one period's points, slip being v times the
    kinematics' slip / v: checked for random states of one interface and
    of three."""

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_rates_times_reaction_is_the_point_power(self, seed, rows):
        rng = np.random.default_rng(seed)
        configs = [ContactConfig(cof=c, penalty_stiffness=k, regularization_velocity=v)
                   for c, k, v in ((0.2, 2e5, 1e-3), (0.45, 3e5, 2e-3),
                                   (0.1, 1e5, 5e-4))[:rows]]
        theta, periods = interface_period(configs[0], 4)
        assert periods == 4
        kinematics, reaction = fold_rows(
            interface_operator(ModePair(4, 2 * math.pi * 4e4, 1.0), GEOM, theta), configs)
        reaction *= periods
        # [q_cos, q_sin, z, phi | their rates]: a wave of a few um, the rotor
        # below the crests, rates of the drive frequency and a spin
        q = rng.uniform(-5e-6, 5e-6, (rows, 2))
        states = np.concatenate([q, rng.uniform(-4e-6, 0.0, (rows, 1)), np.zeros((rows, 1)),
                                 2.5e5 * q[:, ::-1] * [1.0, -1.0],
                                 rng.normal(0.0, 0.05, (rows, 1)),
                                 rng.normal(0.0, 20.0, (rows, 1))], axis=-1).T
        arguments = kinematics_product(states, kinematics)
        traction = law_outputs(arguments)[1]
        assert np.any(traction != 0.0)
        for b, cfg in enumerate(configs):
            ledger = states[4:, b] @ (traction[:, b] @ reaction[1, b])
            slip = cfg.regularization_velocity * arguments[len(theta):, b]
            point_power = periods * np.sum(-cfg.cof * traction[:, b] * slip)
            assert point_power < 0.0
            np.testing.assert_allclose(ledger, point_power, rtol=1e-13, atol=0.0)


class TestStepLoopForm:
    """The step loop calls the law on (M, B) blocks, in place in its own buffers."""

    def test_out_buffers_receive_the_same_forces(self):
        rng = np.random.default_rng(7)
        cfg = ContactConfig()
        w, vt, z, speed = random_state(rng, cfg)
        gap, slip = one_interface(z - w, R * speed - vt)
        kinematics, reaction = identity_fold([cfg])
        load, slip_ratio = np.split(kinematics_product(np.concatenate([gap, slip]),
                                                       kinematics), 2)
        outputs = np.array([load, slip_ratio])     # copies, which the law overwrites
        assert evaluate_contact(outputs[0], outputs[1]) is None
        forces = np.full((2, 1, 1, cfg.point_count), np.nan)
        np.matmul(np.swapaxes(outputs, -1, -2)[..., None, :], reaction, out=forces)
        assert np.array_equal(np.swapaxes(forces[:, :, 0], -1, -2),
                              evaluate_one(z - w, R * speed - vt, cfg))

    def test_batch_rows_match_single_interfaces(self):
        rng = np.random.default_rng(11)
        configs = [ContactConfig(cof=0.1),
                   ContactConfig(cof=0.45, penalty_stiffness=3e5,
                                 regularization_velocity=2e-3)]
        states = [random_state(rng, c) for c in configs]
        gap = np.stack([z - w for w, _, z, _ in states], axis=-1)
        slip = np.stack([R * speed - vt for _, vt, _, speed in states], axis=-1)
        batch = evaluate_rows(gap, slip, configs)
        assert batch.shape == (2, configs[0].point_count, 2)
        for b, cfg in enumerate(configs):
            assert np.array_equal(batch[..., b],
                                  evaluate_one(gap[:, b], slip[:, b], cfg)[..., 0])

    def test_batch_reactions_match_single_interfaces(self):
        """Forces in (M, B) blocks take the operator with a unit batch axis,
        one matrix-vector product per row; each row's reactions are then its
        interface's alone."""
        rng = np.random.default_rng(13)
        cfg = ContactConfig()
        _, _, operator = flexural_operator(contact_angles(cfg))
        states = [random_state(rng, cfg) for _ in range(2)]
        gap = np.stack([z - w for w, _, z, _ in states], axis=-1)
        slip = np.stack([R * speed - vt for _, vt, _, speed in states], axis=-1)
        halves = reactions(evaluate_rows(gap, slip, [cfg, cfg]), operator)
        for b in range(2):
            single = evaluate_one(gap[:, b], slip[:, b], cfg)
            assert np.array_equal(halves[:, b], reactions(single, operator)[:, 0])


def direct_law(gap, slip, cfg):
    """The law as written, N = k max(0, -gap) and f = -mu N tanh(s / v)."""
    normal = cfg.penalty_stiffness * np.maximum(0.0, -gap)
    return np.stack([normal, -cfg.cof * normal * np.tanh(slip / cfg.regularization_velocity)])


class TestThreePassLaw:
    """Through the folded operators, N = max(-k gap, 0) is k max(0, -gap)
    exactly for k > 0, and f = -mu (N tanh(s v^-1)) is the direct law to a
    few rounding errors: the slip is scaled by a rounded 1/v, and -mu
    multiplies N tanh rather than N.  Below the normal range rounding is
    absolute, a few of the smallest subnormal numbers."""

    RTOL = 8 * np.finfo(float).eps
    ATOL = 8 * np.finfo(float).smallest_subnormal

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           stiffness=st.floats(1e3, 1e9), velocity=st.floats(1e-5, 1e-1),
           cof=st.floats(0.0, 1.5), zeros=st.booleans())
    def test_matches_the_direct_law(self, seed, stiffness, velocity, cof, zeros):
        rng = np.random.default_rng(seed)
        cfg = ContactConfig(penalty_stiffness=stiffness,
                            regularization_velocity=velocity, cof=cof)
        gap = rng.normal(0.0, 3e-6, cfg.point_count)
        slip = rng.normal(0.0, 20 * velocity, cfg.point_count)
        if zeros:   # exact contact and exact stick, both signs of zero
            gap[::4], gap[1::4], slip[::3] = 0.0, -0.0, 0.0
        normal, friction = evaluate_one(gap, slip, cfg)[..., 0]
        direct = direct_law(gap, slip, cfg)
        assert np.array_equal(normal, direct[0])
        np.testing.assert_allclose(friction, direct[1], rtol=self.RTOL, atol=self.ATOL)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12))
    def test_batched_rows_match_the_direct_law(self, seed, rows):
        rng = np.random.default_rng(seed)
        configs = [ContactConfig(penalty_stiffness=rng.uniform(1e4, 1e7),
                                 regularization_velocity=rng.uniform(1e-4, 1e-2),
                                 cof=rng.uniform(0.0, 1.0)) for _ in range(rows)]
        gap = rng.normal(0.0, 3e-6, (rows, configs[0].point_count)).T
        slip = rng.normal(0.0, 0.05, (rows, configs[0].point_count)).T
        forces = evaluate_rows(gap, slip, configs)
        for b, cfg in enumerate(configs):
            direct = direct_law(gap[:, b], slip[:, b], cfg)
            assert np.array_equal(forces[0, :, b], direct[0])
            np.testing.assert_allclose(forces[1, :, b], direct[1],
                                       rtol=self.RTOL, atol=self.ATOL)
            assert np.array_equal(forces[..., b],
                                  evaluate_one(gap[:, b], slip[:, b], cfg)[..., 0])


class TestPowerBalance:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_identity_closes(self, seed):
        """Rotor + stator work = penalty storage + friction dissipation."""
        rng = np.random.default_rng(seed)
        cfg = ContactConfig()
        w, vt, z, speed = random_state(rng, cfg)
        wdot = rng.normal(0, 1.0, cfg.point_count)
        zdot = rng.normal(0, 0.01)
        slip = R * speed - vt
        book = power_balance(evaluate_one(z - w, slip, cfg)[..., 0], slip, wdot, vt, zdot,
                             speed)
        scale = max(abs(book["rotor"]), abs(book["stator"]),
                    abs(book["penalty"]), abs(book["friction"]), 1e-12)
        assert abs(book["residual"]) < 1e-9 * scale

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_friction_dissipates(self, seed):
        rng = np.random.default_rng(seed)
        cfg = ContactConfig()
        w, vt, z, speed = random_state(rng, cfg)
        slip = R * speed - vt
        book = power_balance(evaluate_one(z - w, slip, cfg)[..., 0], slip,
                             np.zeros(cfg.point_count), vt, 0.0, speed)
        assert book["friction"] <= 1e-15
