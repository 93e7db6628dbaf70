"""Ring FEM: assembly invariants, eigenfrequencies against a dense
reference, the drive mode pair and piezo modal forcing."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twmotor.materials import IsotropicMaterial, lookup
from twmotor.stator import StatorGeometry, piezo_modal_force, ring_modes

GEOM = StatorGeometry(mean_radius=0.0125, section_width=0.005,
                      section_thickness=0.0025, tooth_height=0.001,
                      drive_nodal_diameters=4)
COPPER = lookup("Copper")


def analytic_frequency(geom, mat, n):
    """Flexural ring dispersion f_n = (1/2pi)(n/R)^2 sqrt(EI/rhoA)."""
    EI = mat.youngs_modulus * geom.section_width * geom.section_thickness**3 / 12
    rhoA = mat.density * geom.section_width * geom.section_thickness
    return (n / geom.mean_radius) ** 2 * math.sqrt(EI / rhoA) / (2 * math.pi)


def element_matrices(EI, rhoA, l):
    """The Hermite beam element's stiffness and consistent mass on the DOFs
    (w_a, w'_a, w_b, w'_b) of its two nodes."""
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


def null_vector_residuals(geom, mat, N, modes):
    """Each listed root's backward error as an eigenvalue of its pencil:
    ||(K - lam M) v|| / (||K||_1 ||v||), v being the null vector of the row
    of K - lam M whose vector is longer.

    The pencils are assembled from the element matrices of a ring with
    EI = rho A = 1, whose roots are omega^2 rho A / EI, so a ring whose own
    pencils sit near float64's limits is judged in range.
    """
    ke, me = element_matrices(1.0, 1.0, geom.circumference / N)
    t = np.exp(2j * np.pi * modes.labels / N)[:, None, None]
    K, M = (e[:2, :2] + e[2:, 2:] + e[:2, 2:] * t + e[2:, :2] * np.conj(t) for e in (ke, me))
    EI = mat.youngs_modulus * geom.section_width * geom.section_thickness**3 / 12
    rhoA = mat.density * geom.section_width * geom.section_thickness
    lam = (2 * np.pi * modes.frequencies_hz * math.sqrt(rhoA / EI)) ** 2
    P = K - lam[:, None, None] * M
    row1 = np.stack([-P[:, 0, 1], P[:, 0, 0]], axis=1)
    row2 = np.stack([P[:, 1, 1], -P[:, 1, 0]], axis=1)
    longer = np.linalg.norm(row1, axis=1) > np.linalg.norm(row2, axis=1)
    v = np.where(longer[:, None], row1, row2)
    return (np.linalg.norm(np.einsum("rij,rj->ri", P, v), axis=1)
            / np.abs(K).sum(axis=1).max(axis=1) / np.linalg.norm(v, axis=1))


def dense_system(geom, mat, N):
    """Reference: the element matrices assembled one by one into the dense
    (2N, 2N) stiffness and consistent mass of the periodic ring, with DOF
    layout (w_0, w'_0, w_1, w'_1, ...) and element N wrapping to node 0."""
    EI = mat.youngs_modulus * geom.section_width * geom.section_thickness**3 / 12.0
    rhoA = mat.density * geom.section_width * geom.section_thickness
    ke, me = element_matrices(EI, rhoA, geom.circumference / N)
    K = np.zeros((2 * N, 2 * N))
    M = np.zeros((2 * N, 2 * N))
    for e in range(N):
        nxt = (e + 1) % N
        dofs = np.array([2 * e, 2 * e + 1, 2 * nxt, 2 * nxt + 1])
        K[np.ix_(dofs, dofs)] += ke
        M[np.ix_(dofs, dofs)] += me
    return K, M


def dense_modes(K, M, element_length):
    """Reference: all generalized eigenpairs by Cholesky reduction, with
    M-orthonormal vectors, each labelled by the largest harmonic of its
    nodal deflections and slopes.  The slopes, scaled by the element length,
    label the modes whose nodes do not deflect: the second mode of the
    n = 0 and n = N/2 pencils."""
    inv_l = np.linalg.inv(np.linalg.cholesky(M))
    vals, vecs = np.linalg.eigh(inv_l @ K @ inv_l.T)
    vecs = inv_l.T @ vecs
    spectrum = (np.abs(np.fft.rfft(vecs[0::2], axis=0))
                + np.abs(np.fft.rfft(element_length * vecs[1::2], axis=0)))
    return vals, vecs, np.argmax(spectrum, axis=0)


@pytest.fixture(scope="module")
def system64():
    return dense_system(GEOM, COPPER, 64)


@pytest.fixture(scope="module")
def dense64(system64):
    return dense_modes(*system64, GEOM.circumference / 64)


@pytest.fixture(scope="module")
def ring64():
    """The 15-mode table and the n = 4 drive pair of the 64-element ring."""
    return ring_modes(GEOM, COPPER, 64, 15)


@pytest.fixture(scope="module")
def modes64(ring64):
    return ring64[0]


class TestAssembly:
    def test_matrices_symmetric(self, system64):
        K, M = system64
        np.testing.assert_allclose(K, K.T, atol=1e-6)
        np.testing.assert_allclose(M, M.T, atol=1e-18)

    def test_stiffness_nullspace_is_uniform_translation(self, system64):
        K, _ = system64
        u = np.zeros(len(K))
        u[0::2] = 1.0  # rigid transverse translation of the closed ring
        residual = np.linalg.norm(K @ u)
        assert residual < 1e-6 * np.linalg.norm(K, 1)

    def test_stiffness_nullity_exactly_one(self, system64):
        K, _ = system64
        vals = np.linalg.eigvalsh(K)
        scale = abs(vals[-1])
        assert np.sum(np.abs(vals) < 1e-12 * scale) == 1

    def test_consistent_mass_totals(self, system64):
        _, M = system64
        rhoA = COPPER.density * GEOM.section_width * GEOM.section_thickness
        u = np.zeros(len(M))
        u[0::2] = 1.0
        total = u @ M @ u
        assert total == pytest.approx(rhoA * GEOM.circumference, rel=1e-12)

    def test_mesh_density_precondition(self):
        with pytest.raises(ValueError, match="too coarse"):
            ring_modes(GEOM, COPPER, 16, 15)

    def test_overflowed_roots_refused(self):
        """A modulus whose pencils overflow float64 leaves NaN roots, which
        the domain rule refuses, naming the material, without a warning."""
        stiff = dataclasses.replace(COPPER, youngs_modulus=1e160)
        with warnings.catch_warnings(), pytest.raises(
                ValueError, match=r"^stator_material 'Copper' \(density 8960 kg/m\^3, "
                                  r"youngs_modulus 1e\+160 Pa\)"):
            warnings.simplefilter("error")
            ring_modes(GEOM, stiff, 64, 15)

    @settings(max_examples=300, deadline=None)
    @given(modulus=st.floats(0, 160), density=st.floats(-3, 8), radius=st.floats(-5, 2),
           width=st.floats(-3, 0), thickness=st.floats(-4, 0), n=st.integers(1, 11),
           data=st.data())
    def test_accepted_roots_are_eigenvalues(self, modulus, density, radius, width,
                                            thickness, n, data):
        """Over finite stators from 1 to 1e160 Pa (powers of ten drawn
        uniformly), ``ring_modes`` either builds, with each root's null-vector
        residual at most 1e-8, or refuses with its domain rule's ValueError,
        and warns of nothing.  ``ring_modes`` ran this check at run time
        while it took its roots from LAPACK; over 19,690 accepted stators
        of 20,000 drawn alike, the worst residual was 7.9e-12."""
        R = 10.0**radius
        geom = StatorGeometry(mean_radius=R, section_width=R * 10.0**width,
                              section_thickness=R * 10.0**thickness, drive_nodal_diameters=n)
        mat = IsotropicMaterial(name="x", density=10.0**density, youngs_modulus=10.0**modulus)
        N = 8 * n * data.draw(st.integers(1, 2000 // (8 * n)), label="wavelength elements / 8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                modes, pair = ring_modes(geom, mat, N, 2 * N)
            except ValueError as exc:
                assert str(exc).startswith("stator_material 'x' ")
                return
        assert 0 < pair.omega < math.inf and 0 < pair.amp < math.inf
        assert np.max(null_vector_residuals(geom, mat, N, modes)) <= 1e-8


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

    def test_rigid_mode_exactly_zero(self, modes64):
        """The n = 0 pencil's stiffness is singular in exact arithmetic and
        its blocks cancel exactly, so no rounding residue is left."""
        assert modes64.frequencies_hz[0] == 0.0

    def test_frequencies_ascending(self, modes64):
        diffs = np.diff(modes64.frequencies_hz)
        assert np.all(diffs >= -1e-9)

    def test_too_many_modes_rejected(self):
        with pytest.raises(ValueError, match="requested 129 modes from a 128-DOF system"):
            ring_modes(GEOM, COPPER, 64, 129)

    def test_nonpositive_mode_count_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match=f"requested {k} modes from a 128-DOF"):
                ring_modes(GEOM, COPPER, 64, k)

    def test_matches_dense_eigensolve(self, modes64, dense64):
        """Every mode of the full ring: non-rigid frequencies within rel
        1e-9 of the dense pencil's and the same nodal-diameter labels."""
        vals, _, labels = dense64
        modes, _ = ring_modes(GEOM, COPPER, 64, 128)
        dense_hz = np.sqrt(vals[1:]) / (2 * math.pi)
        np.testing.assert_allclose(modes.frequencies_hz[1:], dense_hz, rtol=1e-9, atol=0)
        np.testing.assert_array_equal(modes.labels, labels)
        np.testing.assert_array_equal(modes64.labels, labels[:15])


@pytest.fixture(scope="module")
def pair(ring64):
    return ring64[1]


class TestModePair:

    def test_amp_matches_dense_mode(self, pair, dense64):
        """The deflection amplitude of either dense M-normalized mode of the
        lowest n = 4 pair: any unit combination of the pair's cosine and
        sine shapes has it."""
        _, vecs, labels = dense64
        theta = 2 * math.pi * np.arange(64) / 64
        for i in np.flatnonzero(labels == 4)[:2]:
            w = vecs[0::2, i]
            amp = abs(2.0 / 64 * np.sum(w * np.exp(-4j * theta)))
            assert pair.amp == pytest.approx(amp, rel=1e-9)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_pair_is_first_mode_of_its_label(self, n, dense64):
        """The drive pair is the full table's first mode labelled n, bit for
        bit, with the amplitude of the dense solve's first such mode."""
        modes, pair = ring_modes(dataclasses.replace(GEOM, drive_nodal_diameters=n),
                                 COPPER, 64, 128)
        first = np.flatnonzero(modes.labels == n)[0]
        assert pair.nodal_diameters == n
        assert pair.omega == 2.0 * math.pi * modes.frequencies_hz[first]
        _, vecs, labels = dense64
        w = vecs[0::2, np.flatnonzero(labels == n)[0]]
        theta = 2 * math.pi * np.arange(64) / 64
        amp = abs(2.0 / 64 * np.sum(w * np.exp(-1j * n * theta)))
        assert pair.amp == pytest.approx(amp, rel=1e-9)

    def test_table_size_does_not_decide_the_pair(self, pair):
        """A table too short to list the n = 4 pair leaves the pair as it is."""
        modes, short = ring_modes(GEOM, COPPER, 64, 5)
        assert 4 not in modes.labels
        assert short == pair


def long_double_pair(geom, mat, N):
    """Reference: the drive pair's (omega, amp) from the pencil's closed form,
    evaluated in ``np.longdouble`` on the same float64 inputs."""
    f = np.longdouble
    n = geom.drive_nodal_diameters
    EI = f(mat.youngs_modulus) * f(geom.section_width) * f(geom.section_thickness) ** 3 / 12
    rhoA = f(mat.density) * f(geom.section_width) * f(geom.section_thickness)
    pi = 4 * np.arctan(f(1))
    l = 2 * pi * f(geom.mean_radius) / N
    theta = 2 * pi * n / N
    c, s, one_minus_c = np.cos(theta), np.sin(theta), 2 * np.sin(theta / 2) ** 2
    ek, em = EI / l**3, rhoA * l / 420
    k11, k22, kappa = ek * 24 * one_minus_c, ek * 4 * l * l * (2 + c), ek * 12 * l * s
    m11, m22, mu = em * (312 + 108 * c), em * l * l * (8 - 6 * c), -em * 26 * l * s
    a = m11 * m22 - mu**2
    b = -(k11 * m22 + k22 * m11 - 2 * kappa * mu)
    c0 = 48 * EI**2 * one_minus_c**2 / l**4
    lam = 2 * c0 / (-b + np.sqrt(b * b - 4 * a * c0))
    p, r = k22 - lam * m22, kappa - lam * mu
    norm = m11 * p * p + m22 * r * r - 2 * mu * p * r
    return np.sqrt(lam), abs(p) * np.sqrt(f(2) / N) / np.sqrt(norm)


class TestClosedFormAccuracy:

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble is no wider than float64 here")
    def test_drive_pair_matches_long_double(self):
        """On 300 seeded rings (n = 1..9, N = 8n..400, R and thickness
        varied) the drive pair's omega and amp are within 1e-14 of the long
        double closed form.  A pencil assembled from the element matrices,
        whose determinant cancels at small 2 pi n / N, misses omega by up to
        2e-8 on such rings."""
        rng = np.random.default_rng(30)
        worst = [0.0, 0.0]
        for _ in range(300):
            n = int(rng.integers(1, 10))
            N = int(rng.integers(8 * n, 401))
            geom = StatorGeometry(mean_radius=rng.uniform(0.005, 0.05), section_width=0.005,
                                  section_thickness=rng.uniform(0.0005, 0.005),
                                  drive_nodal_diameters=n)
            _, pair = ring_modes(geom, COPPER, N, 1)
            omega, amp = long_double_pair(geom, COPPER, N)
            worst[0] = max(worst[0], float(abs(pair.omega / omega - 1)))
            worst[1] = max(worst[1], float(abs(pair.amp / amp - 1)))
        assert worst[0] < 1e-14
        assert worst[1] < 1e-14


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
        """Each channel drives its own shape equally, so one scalar serves both."""
        pair, _ = forcing
        assert quadrature_force(pair, "A", np.cos) \
            == pytest.approx(quadrature_force(pair, "B", np.sin), rel=1e-9)

    def test_cross_coupling_negligible(self, forcing):
        """Each channel does no work on the other channel's shape."""
        pair, f = forcing
        assert abs(quadrature_force(pair, "A", np.sin)) < 1e-12 * abs(f)
        assert abs(quadrature_force(pair, "B", np.cos)) < 1e-12 * abs(f)

    def test_forcing_scales_linearly_with_voltage(self, pair):
        f1 = piezo_modal_force(pair, GEOM, lookup("PZT-5H"), 1.0)
        f7 = piezo_modal_force(pair, GEOM, lookup("PZT-5H"), 7.0)
        assert f7 == pytest.approx(7.0 * f1, rel=1e-12)

    def test_matches_quadrature_oracle(self, forcing):
        """Closed-form forcing vs numeric quadrature, on both channels."""
        pair, f = forcing
        assert f == pytest.approx(quadrature_force(pair, "A", np.cos), rel=1e-8)
        assert f == pytest.approx(quadrature_force(pair, "B", np.sin), rel=1e-8)
