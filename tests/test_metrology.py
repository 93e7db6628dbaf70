"""Areal roughness parameters: brute-force oracles, analytic surfaces,
invariants, and CSV loading."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twmotor.metrology import (
    HeightMap,
    areal_params,
    level_mean_plane,
    load_height_map,
    roughness_report,
)


def brute_force_params(z, dx, dy):
    """Reference evaluation with explicit double loops."""
    ny, nx = z.shape
    cell = dx * dy
    area = nx * ny * cell
    sa = sq = s3 = s4 = 0.0
    sp, sv = -np.inf, np.inf
    for i in range(ny):
        for j in range(nx):
            h = z[i, j]
            sa += abs(h) * cell
            sq += h * h * cell
            s3 += h**3 * cell
            s4 += h**4 * cell
            sp = max(sp, h)
            sv = min(sv, h)
    sa /= area
    sq = (sq / area) ** 0.5
    ssk = s3 / area / sq**3 if sq > 0 else None
    sku = s4 / area / sq**4 if sq > 0 else None
    return {"Sa": sa, "Sq": sq, "Sp": sp, "Sv": abs(sv),
            "Sz": sp + abs(sv), "Ssk": ssk, "Sku": sku}


def leveled(z, dx=1.0, dy=1.0):
    return level_mean_plane(HeightMap(heights=z, dx=dx, dy=dy))


class TestOracle:
    def test_small_fixed_map(self):
        rng = np.random.default_rng(7)
        z = rng.normal(0.0, 2.5, size=(6, 9))
        hmap = leveled(z, dx=0.8, dy=1.3)
        got = areal_params(hmap).to_dict()
        want = brute_force_params(hmap.heights, 0.8, 1.3)
        for key, ref in want.items():
            assert got[key] == pytest.approx(ref, rel=1e-12), key

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ny=st.integers(2, 12), nx=st.integers(2, 12))
    def test_random_maps_match_brute_force(self, seed, ny, nx):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-5.0, 5.0, size=(ny, nx))
        hmap = leveled(z, dx=0.5, dy=0.5)
        got = areal_params(hmap).to_dict()
        want = brute_force_params(hmap.heights, 0.5, 0.5)
        for key, ref in want.items():
            if ref is None:
                assert got[key] is None
            else:
                assert got[key] == pytest.approx(ref, rel=1e-12, abs=1e-13), key


@pytest.fixture(scope="module")
def sinusoid():
    amp = 3.0
    n = 4000  # integer periods so midpoint sums converge at O(h^2)
    x = (np.arange(n) + 0.5) / n * 2 * np.pi * 4
    z = np.tile(amp * np.sin(x), (3, 1))
    return amp, areal_params(HeightMap(heights=z, dx=1.0, dy=1.0,
                                       leveled=True))


class TestAnalyticSurfaces:
    """A zero-mean sinusoid has Sa = 2A/pi, Sq = A/sqrt(2), Sku = 1.5."""

    def test_sa(self, sinusoid):
        # |sin| is kinked at the zero crossings, so Sa converges a bit
        # slower than the smooth moments; 1e-5 covers the midpoint error.
        amp, p = sinusoid
        assert p.sa == pytest.approx(2 * amp / np.pi, rel=1e-5)

    def test_sq(self, sinusoid):
        amp, p = sinusoid
        assert p.sq == pytest.approx(amp / np.sqrt(2), rel=1e-6)

    def test_skewness_zero(self, sinusoid):
        _, p = sinusoid
        assert p.ssk == pytest.approx(0.0, abs=1e-6)

    def test_kurtosis(self, sinusoid):
        _, p = sinusoid
        assert p.sku == pytest.approx(1.5, rel=1e-6)

    def test_extremes(self, sinusoid):
        amp, p = sinusoid
        assert p.sp == pytest.approx(amp, rel=1e-5)
        assert p.sv == pytest.approx(amp, rel=1e-5)
        assert p.sz == pytest.approx(2 * amp, rel=1e-5)


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_sa_below_sq_and_sz_sum(self, seed):
        rng = np.random.default_rng(seed)
        p = areal_params(leveled(rng.normal(size=(8, 8))))
        assert p.sa <= p.sq + 1e-15
        assert p.sz == p.sp + p.sv

    def test_flat_surface_moments_undefined(self):
        p = areal_params(HeightMap(np.zeros((4, 4)), 1.0, 1.0, leveled=True))
        assert p.sa == 0.0 and p.sq == 0.0
        assert p.ssk is None and p.sku is None

    @pytest.mark.parametrize("z", [
        np.ones((3, 3)),
        2.5 - 0.4 * np.arange(5) + 1.3 * np.arange(4)[:, None],
    ], ids=["constant", "tilted plane"])
    def test_planar_map_levels_to_zero(self, z):
        """The fit's rounding residue is not reported as texture."""
        p = areal_params(leveled(z))
        assert (p.sa, p.sq, p.sp, p.sv, p.sz) == (0.0, 0.0, 0.0, 0.0, 0.0)
        assert p.ssk is None and p.sku is None

    def test_texture_far_below_the_offset_is_kept(self):
        rng = np.random.default_rng(5)
        noise = rng.normal(size=(6, 7))
        p = areal_params(leveled(1e3 + 1e-9 * noise))
        assert p.sq == pytest.approx(1e-9 * areal_params(leveled(noise)).sq, rel=1e-3)

    def test_leveling_removes_added_plane(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(10, 12))
        x, y = np.meshgrid(np.arange(12), np.arange(10))
        tilted = z + 4.0 + 0.3 * x - 0.7 * y
        a = areal_params(leveled(z))
        b = areal_params(leveled(tilted))
        assert b.sa == pytest.approx(a.sa, rel=1e-9)
        assert b.sq == pytest.approx(a.sq, rel=1e-9)

    def test_unleveled_map_rejected(self):
        with pytest.raises(ValueError, match="leveled"):
            areal_params(HeightMap(np.eye(3), 1.0, 1.0))

    def test_area_property(self):
        hmap = HeightMap(np.zeros((4, 5)), dx=2.0, dy=3.0)
        assert hmap.area == 4 * 5 * 2.0 * 3.0


def random_plane(rng, ny, nx):
    """Grid axes and a plane of random pitch, offset and tilt on them.

    The pitches stay within a factor 25 of each other: lstsq's own residual
    error grows with cond(G), and at a factor 300 it reaches 4e-12 max|z|.
    """
    dx, dy = rng.uniform(0.2, 5.0, size=2)
    x, y = np.arange(nx) * dx, np.arange(ny) * dy
    tilt_x, tilt_y = rng.uniform(-5.0, 5.0, size=2)
    plane = rng.uniform(-1e3, 1e3) + tilt_x * x + tilt_y * y[:, None]
    return x, y, plane


def design_matrix(x, y):
    X, Y = np.meshgrid(x, y)
    return np.column_stack([np.ones(X.size), X.ravel(), Y.ravel()])


grids = dict(seed=st.integers(0, 2**32 - 1), ny=st.integers(2, 40), nx=st.integers(2, 40))


class TestLevelingOracle:
    """The closed-form mean plane against a least-squares solve."""

    @settings(max_examples=60, deadline=None)
    @given(**grids)
    def test_residual_matches_lstsq(self, seed, ny, nx):
        rng = np.random.default_rng(seed)
        x, y, plane = random_plane(rng, ny, nx)
        z = plane + rng.uniform(0.01, 10.0) * rng.normal(size=(ny, nx))
        G = design_matrix(x, y)
        coeff, *_ = np.linalg.lstsq(G, z.ravel(), rcond=None)
        want = z - (G @ coeff).reshape(z.shape)
        got = leveled(z, x[1], y[1]).heights
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(z).max())

    @settings(max_examples=60, deadline=None)
    @given(**grids)
    def test_plane_levels_to_zero(self, seed, ny, nx):
        x, y, plane = random_plane(np.random.default_rng(seed), ny, nx)
        assert not leveled(plane, x[1], y[1]).heights.any()

    @settings(max_examples=60, deadline=None)
    @given(**grids)
    def test_rounding_bound_uses_cond_of_design(self, seed, ny, nx):
        """cond(G) in 8 eps cond(G) sqrt(N) max|z| is G's SVD condition number."""
        x, y, plane = random_plane(np.random.default_rng(seed), ny, nx)
        seen, cond = [], np.linalg.cond
        with mock.patch.object(np.linalg, "cond",
                               lambda a: seen.append(cond(a)) or seen[-1]):
            leveled(plane, x[1], y[1])
        s = np.linalg.svd(design_matrix(x, y), compute_uv=False)
        assert seen == [pytest.approx(s[0] / s[-1], rel=1e-9)]


class TestHeightMapValidation:
    def test_too_small(self):
        with pytest.raises(ValueError, match="2x2"):
            HeightMap(np.zeros((1, 5)), 1.0, 1.0)

    def test_bad_pitch(self):
        with pytest.raises(ValueError, match="pitch"):
            HeightMap(np.zeros((3, 3)), 0.0, 1.0)

    def test_nan_located(self):
        z = np.zeros((3, 4))
        z[1, 2] = np.nan
        with pytest.raises(ValueError, match="row 2, column 3"):
            HeightMap(z, 1.0, 1.0)

    def test_heights_read_only(self):
        hmap = HeightMap(np.zeros((3, 3)), 1.0, 1.0)
        with pytest.raises(ValueError):
            hmap.heights[0, 0] = 1.0

    def test_caller_array_stays_its_own(self):
        z = np.zeros((3, 3))
        hmap = HeightMap(z, 1.0, 1.0)
        assert z.flags.writeable
        assert not np.shares_memory(hmap.heights, z)


class TestLoadHeightMap:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("0.1,0.2,0.3\n-0.4,0.5,-0.6\n")
        hmap = load_height_map(path, dx=1.5, dy=2.5)
        np.testing.assert_array_equal(
            hmap.heights, [[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6]])
        assert (hmap.dx, hmap.dy) == (1.5, 2.5)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="row 2"):
            load_height_map(path, 1.0, 1.0)

    def test_non_numeric_located(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_height_map(path, 1.0, 1.0)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_height_map(path, 1.0, 1.0)

    @pytest.mark.parametrize("text", [
        "1,2\n\n3,-4\n\n",
        "1,2\r\n3,-4\r\n",
        "1,2\r3,-4\r",
        '"1", 2 \n 3 ,"-4"\n',
    ], ids=["blank lines", "crlf", "cr", "quotes and spaces"])
    def test_accepted_forms(self, tmp_path, text):
        path = tmp_path / "scan.csv"
        path.write_bytes(text.encode())
        np.testing.assert_array_equal(
            load_height_map(path, 1.0, 1.0).heights, [[1.0, 2.0], [3.0, -4.0]])

    @pytest.mark.parametrize("text, message", [
        ("1,2\n# note\n3,4\n", "non-numeric cell at row 2, column 1: '# note'"),
        ("1,2,\n3,4,\n", "non-numeric cell at row 1, column 3: ''"),
        ("1,2,3\n\n4,5\n", "ragged grid; row 3 has 2 cells, expected 3"),
        ("1,2\n3,4\n\n5,6\n7\n", "ragged grid; row 5 has 1 cells, expected 2"),
    ], ids=["comment line", "trailing comma", "ragged after blank",
            "short last row"])
    def test_rejected_grid_located(self, tmp_path, text, message):
        """Rows are the file's 1-based lines, blank ones included."""
        path = tmp_path / "scan.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_height_map(path, 1.0, 1.0)
        assert str(info.value) == f"{path}: {message}"

    def test_scan_agrees_with_the_loader(self, tmp_path):
        """``1_0`` is a number to float() but not to the loader, and the scan
        locates it rather than passing on the loader's 0-based row."""
        path = tmp_path / "scan.csv"
        path.write_text("1,2\n\n3,1_0\n")
        with pytest.raises(ValueError) as info:
            load_height_map(path, 1.0, 1.0)
        assert str(info.value) == f"{path}: non-numeric cell at row 3, column 2: '1_0'"


class TestRoughnessReport:
    def test_mean_sa_and_labels(self):
        rng = np.random.default_rng(11)
        maps = [HeightMap(rng.normal(size=(6, 6)), 1.0, 1.0) for _ in range(3)]
        report = roughness_report(maps, labels=["P180", "P240", "P320"])
        sas = [areal_params(level_mean_plane(m)).sa for m in maps]
        assert report["mean_Sa"] == pytest.approx(np.mean(sas), rel=1e-12)
        assert [e["label"] for e in report["samples"]] == ["P180", "P240", "P320"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            roughness_report([])

    def test_label_mismatch_rejected(self):
        maps = [HeightMap(np.eye(3), 1.0, 1.0)]
        with pytest.raises(ValueError, match="one-to-one"):
            roughness_report(maps, labels=["a", "b"])
