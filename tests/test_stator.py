"""Ring FEM: assembly invariants, eigenfrequencies, mode-pair alignment
and piezo modal forcing."""

import math

import numpy as np
import pytest

from twmotor.materials import lookup
from twmotor.stator import (
    StatorGeometry,
    assemble_system,
    build_ring_mesh,
    piezo_modal_force,
    select_mode_pair,
    solve_eigen,
)

GEOM = StatorGeometry(mean_radius=0.0125, section_width=0.005,
                      section_thickness=0.0025, tooth_height=0.001,
                      drive_nodal_diameters=4)
COPPER = lookup("Copper")


def analytic_frequency(geom, mat, n):
    """Flexural ring dispersion f_n = (1/2pi)(n/R)^2 sqrt(EI/rhoA)."""
    EI = mat.youngs_modulus * geom.section_width * geom.section_thickness**3 / 12
    rhoA = mat.density * geom.section_width * geom.section_thickness
    return (n / geom.mean_radius) ** 2 * math.sqrt(EI / rhoA) / (2 * math.pi)


@pytest.fixture(scope="module")
def system64():
    mesh = build_ring_mesh(GEOM, 64)
    return mesh, assemble_system(mesh, COPPER, GEOM)


@pytest.fixture(scope="module")
def modes64(system64):
    mesh, system = system64
    return solve_eigen(system, 15, mesh)


class TestAssembly:
    def test_matrices_symmetric(self, system64):
        _, system = system64
        np.testing.assert_allclose(system.stiffness, system.stiffness.T,
                                   atol=1e-6)
        np.testing.assert_allclose(system.mass, system.mass.T, atol=1e-18)

    def test_stiffness_nullspace_is_uniform_translation(self, system64):
        mesh, system = system64
        u = np.zeros(mesh.dof_count)
        u[0::2] = 1.0  # rigid transverse translation of the closed ring
        residual = np.linalg.norm(system.stiffness @ u)
        assert residual < 1e-6 * np.linalg.norm(system.stiffness, 1)

    def test_stiffness_nullity_exactly_one(self, system64):
        _, system = system64
        vals = np.linalg.eigvalsh(system.stiffness)
        scale = abs(vals[-1])
        assert np.sum(np.abs(vals) < 1e-12 * scale) == 1

    def test_consistent_mass_totals(self, system64):
        mesh, system = system64
        rhoA = COPPER.density * GEOM.section_width * GEOM.section_thickness
        u = np.zeros(mesh.dof_count)
        u[0::2] = 1.0
        total = u @ system.mass @ u
        assert total == pytest.approx(rhoA * GEOM.circumference, rel=1e-12)

    def test_mesh_density_precondition(self):
        with pytest.raises(ValueError, match="too coarse"):
            build_ring_mesh(GEOM, 16)


class TestEigenfrequencies:
    def test_dispersion_relation(self, modes64):
        """FE frequencies track the analytic dispersion for n = 1..6."""
        for n in range(1, 7):
            fe = modes64.frequencies_hz[modes64.labels == n]
            assert len(fe) >= 2, f"pair n={n} missing"
            exact = analytic_frequency(GEOM, COPPER, n)
            assert fe[0] == pytest.approx(exact, rel=0.01)

    def test_degenerate_pairs_close(self, modes64):
        for n in range(1, 7):
            fe = np.sort(modes64.frequencies_hz[modes64.labels == n])[:2]
            assert fe[1] - fe[0] <= 1e-3 * fe[1]

    def test_rigid_mode_present(self, modes64):
        assert modes64.labels[0] == 0
        assert modes64.frequencies_hz[0] == pytest.approx(0.0, abs=1.0)

    def test_frequencies_ascending(self, modes64):
        diffs = np.diff(modes64.frequencies_hz)
        assert np.all(diffs >= -1e-9)

    def test_too_many_modes_rejected(self, system64):
        mesh, system = system64
        with pytest.raises(ValueError):
            solve_eigen(system, mesh.dof_count + 1, mesh)


@pytest.fixture(scope="module")
def pair(modes64, system64):
    _, system = system64
    return select_mode_pair(modes64, 4, system)


class TestModePair:

    def test_mass_normalized(self, pair, system64):
        _, system = system64
        M = system.mass
        assert pair.shape_cos @ M @ pair.shape_cos == pytest.approx(1.0)
        assert pair.shape_sin @ M @ pair.shape_sin == pytest.approx(1.0)

    def test_mass_orthogonal(self, pair, system64):
        _, system = system64
        cross = pair.shape_cos @ system.mass @ pair.shape_sin
        assert abs(cross) < 1e-10

    def test_fourier_alignment(self, pair, system64):
        """Deflection components follow amp*cos(4 theta) / amp*sin(4 theta)."""
        mesh, _ = system64
        theta = mesh.angles
        np.testing.assert_allclose(pair.shape_cos[0::2],
                                   pair.amp * np.cos(4 * theta),
                                   rtol=1e-6, atol=1e-9 * pair.amp)
        np.testing.assert_allclose(pair.shape_sin[0::2],
                                   pair.amp * np.sin(4 * theta),
                                   rtol=1e-6, atol=1e-9 * pair.amp)

    def test_deflection_helper(self, pair):
        theta = np.linspace(0, 2 * math.pi, 9)
        w = pair.deflection(theta, 1.0, 0.0)
        np.testing.assert_allclose(w, pair.amp * np.cos(4 * theta), atol=1e-12)

    def test_missing_pair_rejected(self, modes64, system64):
        _, system = system64
        with pytest.raises(ValueError, match="not resolved"):
            select_mode_pair(modes64, 11, system)


@pytest.fixture(scope="module")
def forcing(pair):
    return pair, piezo_modal_force(pair, GEOM, lookup("PZT-5H"), 1.0)


def quadrature_force(pair, channel, shape):
    """Modal force per volt of one electrode channel on one shape, by quadrature.

    The modal force is the virtual work of the layer bending moment
    against the shape curvature: integral of m_p * b * w'' over the
    energized arcs, with w = amp*shape(n theta) and x = R*theta.
    Channel "A" is 2n alternating sectors of width pi/n centred on
    j*pi/n; channel "B" is the same pattern turned by pi/(2n).  The
    midpoint rule keeps every node off the sector edges.
    """
    n, R, b = 4, GEOM.mean_radius, GEOM.section_width
    m_p = -lookup("PZT-5H").e31 * 1.0 * GEOM.section_thickness / 2.0
    cells = 200_000
    step = 2 * math.pi / cells
    theta = (np.arange(cells) + 0.5) * step
    shift = {"A": 0.0, "B": math.pi / (2 * n)}[channel]
    signs = np.zeros_like(theta)
    for j in range(2 * n):
        start = (j - 0.5) * math.pi / n + shift
        inside = ((theta - start) % (2 * math.pi)) < math.pi / n
        signs[inside] = 1 if j % 2 == 0 else -1
    curvature = -pair.amp * (n / R) ** 2 * shape(n * theta)
    return np.sum(m_p * b * signs * curvature * R) * step


class TestPiezoForcing:

    def test_channels_balanced(self, forcing):
        _, f = forcing
        assert f.f_cos == pytest.approx(f.f_sin, rel=1e-9)

    def test_cross_coupling_negligible(self, forcing):
        """Each channel does no work on the other channel's shape."""
        pair, f = forcing
        assert abs(quadrature_force(pair, "A", np.sin)) < 1e-12 * abs(f.f_cos)
        assert abs(quadrature_force(pair, "B", np.cos)) < 1e-12 * abs(f.f_sin)

    def test_forcing_scales_linearly_with_voltage(self, modes64, system64):
        _, system = system64
        pair = select_mode_pair(modes64, 4, system)
        f1 = piezo_modal_force(pair, GEOM, lookup("PZT-5H"), 1.0)
        f7 = piezo_modal_force(pair, GEOM, lookup("PZT-5H"), 7.0)
        assert f7.f_cos == pytest.approx(7.0 * f1.f_cos, rel=1e-12)

    def test_matches_quadrature_oracle(self, forcing):
        """Closed-form forcing vs numeric quadrature, on both channels."""
        pair, f = forcing
        assert f.f_cos == pytest.approx(quadrature_force(pair, "A", np.cos), rel=1e-8)
        assert f.f_sin == pytest.approx(quadrature_force(pair, "B", np.sin), rel=1e-8)
