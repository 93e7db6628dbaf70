"""Material catalog and constitutive-data validation."""

import json

import numpy as np
import pytest

from twmotor.materials import (
    IsotropicMaterial,
    PiezoMaterial,
    builtin_library,
    load_material,
    lookup,
    validate_piezo,
)


class TestBuiltinLibrary:
    def test_expected_names(self):
        lib = builtin_library()
        for name in ("Copper", "Aluminum", "Ultem 1000", "Epoxy", "PZT-5H"):
            assert name in lib

    def test_copper_constants(self):
        cu = lookup("Copper")
        assert cu.density == 8960.0
        assert cu.youngs_modulus == 110e9
        assert cu.poisson_ratio == 0.35

    def test_ultem_constants(self):
        ultem = lookup("Ultem 1000")
        assert ultem.density == 1270.0
        assert ultem.youngs_modulus == 3.2e9
        assert ultem.poisson_ratio == 0.30

    def test_pzt5h_is_piezo(self):
        pzt = lookup("PZT-5H")
        assert isinstance(pzt, PiezoMaterial)
        assert pzt.density == 7500.0

    def test_lookup_unknown_name(self):
        with pytest.raises(KeyError):
            lookup("Unobtainium")


@pytest.fixture(scope="module")
def pzt():
    return lookup("PZT-5H")


class TestPzt5hMatrices:
    """Spot checks of the PZT-5H constitutive matrices."""

    def test_elasticity_symmetric(self, pzt):
        c = pzt.elasticity
        assert c.shape == (6, 6)
        np.testing.assert_array_equal(c, c.T)

    def test_elasticity_entries(self, pzt):
        c = pzt.elasticity
        assert c[2, 2] == pytest.approx(1.17436e11)
        assert c[1, 0] == pytest.approx(8.02122e10)
        assert c[0, 1] == c[1, 0]

    def test_coupling_entries(self, pzt):
        e = pzt.coupling
        assert e.shape == (3, 6)
        assert e[2, 2] == pytest.approx(23.2403)
        # thickness-poled layer: e31 = e32 < 0
        assert e[2, 0] == e[2, 1]
        assert e[2, 0] < 0

    def test_permittivity_diagonal_positive(self, pzt):
        eps = pzt.relative_permittivity
        assert eps.shape == (3, 3)
        assert np.all(np.diag(eps) > 0)

    def test_validates_clean(self, pzt):
        assert validate_piezo(pzt) == []


class TestValidation:
    def test_indefinite_elasticity_flagged(self):
        pzt = lookup("PZT-5H")
        bad_c = pzt.elasticity.copy()
        bad_c[0, 0] = -bad_c[0, 0]
        bad = PiezoMaterial(
            name="broken",
            density=pzt.density,
            elasticity=bad_c,
            coupling=pzt.coupling,
            relative_permittivity=pzt.relative_permittivity,
        )
        problems = validate_piezo(bad)
        assert problems
        assert any("definite" in p for p in problems)

    def test_isotropic_rejects_bad_poisson(self):
        with pytest.raises(ValueError):
            IsotropicMaterial("x", 1000.0, poisson_ratio=0.7,
                              youngs_modulus=1e9)

    def test_isotropic_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError):
            IsotropicMaterial("x", 1000.0, poisson_ratio=0.3,
                              youngs_modulus=0.0)


class TestLoadMaterial:
    def test_isotropic_from_json_file(self, tmp_path):
        path = tmp_path / "brass.json"
        path.write_text(json.dumps({
            "name": "Brass",
            "density": 8500.0,
            "poisson_ratio": 0.34,
            "youngs_modulus": 97e9,
        }))
        m = load_material(json.loads(path.read_text()))
        assert isinstance(m, IsotropicMaterial)
        assert m.name == "Brass"
        assert m.youngs_modulus == 97e9

    def test_piezo_round_trip(self):
        pzt = lookup("PZT-5H")
        data = {
            "name": pzt.name,
            "density": pzt.density,
            "elasticity": pzt.elasticity.ravel().tolist(),
            "coupling": pzt.coupling.ravel().tolist(),
            "relative_permittivity": pzt.relative_permittivity.ravel().tolist(),
        }
        again = load_material(data)
        np.testing.assert_array_equal(again.elasticity, pzt.elasticity)
        np.testing.assert_array_equal(again.coupling, pzt.coupling)

    def test_matrices_immutable(self):
        pzt = lookup("PZT-5H")
        with pytest.raises(ValueError):
            pzt.elasticity[0, 0] = 0.0
