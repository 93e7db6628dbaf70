"""Forced two-phase response and traveling-wave kinematics."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twmotor.contact import interface_operator
from twmotor.stator import StatorGeometry
from twmotor.wave import (
    DriveConfig,
    WaveSolution,
    ideal_no_slip_speed,
    steady_wave_response,
)

GEOM = StatorGeometry(mean_radius=0.0125, section_width=0.005,
                      section_thickness=0.0025, tooth_height=0.001,
                      drive_nodal_diameters=4)


@pytest.fixture(scope="module")
def pair(stator_model):
    return stator_model.pair


@pytest.fixture(scope="module")
def balanced(stator_model):
    f = stator_model.forcing_per_volt
    drive = DriveConfig(voltage=100.0)
    return steady_wave_response(stator_model.pair, f * drive.voltage, drive,
                                stator_model.damping_ratio)


class TestSteadyResponse:
    def test_resonant_purity(self, balanced):
        """A balanced quadrature drive at resonance is a pure forward wave."""
        assert balanced.w_backward < 1e-9 * balanced.w_forward

    def test_phase_reversal_swaps_components(self, stator_model):
        f = stator_model.forcing_per_volt
        fwd = steady_wave_response(stator_model.pair, f * 100,
                                   DriveConfig(voltage=100, phase_offset=math.pi / 2),
                                   stator_model.damping_ratio)
        rev = steady_wave_response(stator_model.pair, f * 100,
                                   DriveConfig(voltage=100, phase_offset=-math.pi / 2),
                                   stator_model.damping_ratio)
        assert rev.w_backward == pytest.approx(fwd.w_forward, rel=1e-12)
        assert rev.w_forward == pytest.approx(fwd.w_backward, abs=1e-12 * fwd.w_forward)

    def test_zero_phase_is_standing(self, stator_model):
        f = stator_model.forcing_per_volt
        standing = steady_wave_response(stator_model.pair, f * 100,
                                        DriveConfig(voltage=100, phase_offset=0.0),
                                        stator_model.damping_ratio)
        assert standing.w_forward == pytest.approx(standing.w_backward, rel=1e-12)

    def test_resonant_amplitude_closed_form(self, stator_model, balanced):
        """|q| = F / (2 zeta omega_n^2) at resonance, per channel."""
        f = abs(stator_model.forcing_per_volt) * 100.0
        wn = stator_model.pair.omega
        expected = f / (2.0 * stator_model.damping_ratio * wn * wn)
        assert abs(balanced.q_cos) == pytest.approx(expected, rel=1e-12)

    def test_zero_damping_rejected(self, stator_model):
        with pytest.raises(ValueError):
            steady_wave_response(stator_model.pair, 1.0, DriveConfig(),
                                 zeta=0.0)

    def test_frequency_default_is_resonance(self, pair):
        assert DriveConfig().resolve_frequency(pair) == pair.frequency_hz
        assert DriveConfig(frequency=40e3).resolve_frequency(pair) == 40e3


class TestForcing:
    """``DriveConfig.forcing``, the one statement of the channel convention."""

    @given(psi=st.floats(-math.pi, math.pi), wt=st.floats(0.0, 2 * math.pi),
           force=st.floats(-1e4, 1e4))
    def test_channels(self, psi, wt, force):
        """Channel A drives the cosine shape with F cos wt, channel B the sine
        shape with F cos(wt + psi), within a few ulps of |F| (under 9 in
        500,000 random draws, most of it the rounding of wt + psi)."""
        got = DriveConfig(phase_offset=psi).forcing(force) @ [math.cos(wt), math.sin(wt)]
        want = [force * math.cos(wt), force * math.cos(wt + psi)]
        assert np.abs(got - want).max() <= 16 * np.spacing(abs(force))

    @pytest.mark.parametrize("psi", [math.pi / 2, -math.pi / 2, 0.0, 1.0])
    def test_steady_response_reads_it(self, stator_model, psi):
        """The contact-free response reads the forcing matrix and gives Python
        complex amplitudes, bit for bit those of channel B's complex force
        F exp(i psi) written out."""
        force = stator_model.forcing_per_volt * 300.0
        drive = DriveConfig(phase_offset=psi)
        sol = steady_wave_response(stator_model.pair, force, drive,
                                   stator_model.damping_ratio)
        omega, wn, zeta = sol.omega, stator_model.pair.omega, stator_model.damping_ratio
        H = 1.0 / (wn * wn - omega * omega + 2j * zeta * wn * omega)
        assert type(sol.q_cos) is complex and type(sol.q_sin) is complex
        assert sol.q_cos == force * H
        assert sol.q_sin == force * complex(math.cos(psi), math.sin(psi)) * H


class TestTravelingDecomposition:
    def test_forward_backward_partition(self):
        sol = WaveSolution(q_cos=1.0 + 0j, q_sin=-1j, omega=1.0,
                           shape_amp=2.0, nodal_diameters=4)
        assert sol.q_forward == pytest.approx((1.0 - 1j * -1j) / 2)
        assert sol.q_backward == pytest.approx((1.0 + 1j * -1j) / 2)


def surface(pair, sol, theta, t):
    """(w, w', u_t, v_t) of the driven surface at the angles and instant t,
    through the step loop's interface operator: the modal state
    q = Re(q_cos,sin e^(i omega t)), q' = -omega Im(...), times its columns."""
    normal, friction = interface_operator(pair, GEOM, theta)[:, :, :2]
    turned = np.array([sol.q_cos, sol.q_sin]) * np.exp(1j * sol.omega * t)
    q, qdot = turned.real, -sol.omega * turned.imag
    return -normal @ q, -normal @ qdot, -friction @ q, -friction @ qdot


class TestSurfaceState:
    def test_time_derivative_consistency(self, pair, balanced):
        """w_dot and v_t agree with finite differences of w and u_t."""
        theta = np.linspace(0, 2 * math.pi, 17)
        t0, dt = 1.3e-4, 1e-12
        w0, wdot, ut0, vt = surface(pair, balanced, theta, t0)
        wp, _, utp, _ = surface(pair, balanced, theta, t0 + dt)
        wm, _, utm, _ = surface(pair, balanced, theta, t0 - dt)
        np.testing.assert_allclose(wdot, (wp - wm) / (2 * dt), rtol=1e-6,
                                   atol=1e-6 * np.max(np.abs(wdot)))
        np.testing.assert_allclose(vt, (utp - utm) / (2 * dt), rtol=1e-6,
                                   atol=1e-6 * np.max(np.abs(vt)))

    def test_tangent_follows_slope(self, pair, balanced):
        """u_t = -(z_c/R) dw/dtheta at fixed time."""
        theta = np.linspace(0, 2 * math.pi, 4097)
        t0 = 7.7e-5
        w, _, ut, _ = surface(pair, balanced, theta, t0)
        dw = np.gradient(w, theta)
        expected = -(GEOM.contact_offset / GEOM.mean_radius) * dw
        # np.gradient is only first-order at the two endpoints
        np.testing.assert_allclose(ut[1:-1], expected[1:-1], rtol=1e-4,
                                   atol=1e-5 * np.max(np.abs(ut)))

    def test_crest_amplitude(self, pair, balanced):
        """A pure forward wave: the crest is the forward component's height."""
        theta = np.linspace(0, 2 * math.pi, 20001)
        w, *_ = surface(pair, balanced, theta, 0.0)
        amplitude = balanced.w_forward + balanced.w_backward
        assert np.max(np.abs(w)) == pytest.approx(amplitude, rel=1e-6)


class TestSurfaceKinematics:
    def test_balanced_drive_is_one_forward_wave(self, pair, balanced):
        """At any instant t the surface deflects as W cos(xi),
        xi = n theta + omega t + psi_f, and moves tangentially by
        u_t = -(z_c / R) dw/dtheta.  The crest's tangential velocity is the
        rim speed of the ideal no-slip rotor."""
        n, omega = pair.nodal_diameters, balanced.omega
        W, psi = balanced.w_forward, cmath.phase(balanced.q_forward)
        tangential = GEOM.contact_offset / GEOM.mean_radius * n * W

        theta = np.linspace(0.0, 2 * math.pi, 97)
        for t in (0.0, 3.1e-6, 1.3e-5, 7.7e-5):
            xi = n * theta + omega * t + psi
            expected = (W * np.cos(xi), -omega * W * np.sin(xi),
                        tangential * np.sin(xi), omega * tangential * np.cos(xi))
            for got, want, scale in zip(surface(pair, balanced, theta, t), expected,
                                        (W, omega * W, tangential, omega * tangential)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

        t = 4.2e-6
        crest = np.array([-(omega * t + psi) / n])
        w, _, _, v_t = surface(pair, balanced, crest, t)
        assert w[0] == pytest.approx(W, rel=1e-12)
        assert v_t[0] == pytest.approx(GEOM.mean_radius * ideal_no_slip_speed(balanced, GEOM),
                                       rel=1e-12)


class TestIdealSpeed:
    def test_magnitude(self, balanced):
        speed = ideal_no_slip_speed(balanced, GEOM)
        n, zc, R = 4, GEOM.contact_offset, GEOM.mean_radius
        expected = n * zc * balanced.omega * balanced.w_forward / R**2
        assert abs(speed) == pytest.approx(expected, rel=1e-12)

    def test_forward_wave_drives_positive(self, balanced):
        assert ideal_no_slip_speed(balanced, GEOM) > 0

    def test_reversed_drive_flips_sign(self, stator_model):
        f = stator_model.forcing_per_volt
        rev = steady_wave_response(stator_model.pair, f * 100,
                                   DriveConfig(voltage=100, phase_offset=-math.pi / 2),
                                   stator_model.damping_ratio)
        assert ideal_no_slip_speed(rev, GEOM) < 0

    def test_standing_wave_rejected(self, stator_model):
        """A standing-wave share of 1% or more has no no-slip speed: None,
        the summary's null ``ideal_speed``."""
        f = stator_model.forcing_per_volt
        standing = steady_wave_response(stator_model.pair, f * 100,
                                        DriveConfig(voltage=100, phase_offset=0.0),
                                        stator_model.damping_ratio)
        assert ideal_no_slip_speed(standing, GEOM) is None

    def test_zero_drive_is_zero_speed(self, pair):
        sol = WaveSolution(q_cos=0j, q_sin=0j, omega=pair.omega,
                           shape_amp=pair.amp, nodal_diameters=4)
        assert ideal_no_slip_speed(sol, GEOM) == 0.0
