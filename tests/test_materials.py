"""Material catalog: the values the ring model reads, and inline entries."""

import dataclasses
import json

import pytest

from twmotor import runner
from twmotor.config import RunConfig, load_config
from twmotor.materials import IsotropicMaterial, PiezoMaterial, builtin_library, lookup


class TestBuiltinLibrary:
    def test_expected_names(self):
        lib = builtin_library()
        for name in ("Copper", "Aluminum", "Ultem 1000", "Epoxy", "PZT-5H"):
            assert name in lib

    # The density and Young's modulus that ``stator.ring_modes`` reads.
    def test_copper_constants(self):
        assert lookup("Copper") == IsotropicMaterial("Copper", density=8960.0,
                                                     youngs_modulus=110e9)

    def test_ultem_constants(self):
        assert lookup("Ultem 1000") == IsotropicMaterial("Ultem 1000", density=1270.0,
                                                         youngs_modulus=3.2e9)

    def test_epoxy_constants(self):
        assert lookup("Epoxy") == IsotropicMaterial("Epoxy", density=3500.0,
                                                    youngs_modulus=0.7e9)

    def test_aluminum_constants(self):
        assert lookup("Aluminum") == IsotropicMaterial("Aluminum", density=2700.0,
                                                       youngs_modulus=70e9)

    def test_pzt5h_is_piezo(self):
        """The e31 that ``stator.piezo_modal_force`` reads."""
        assert lookup("PZT-5H") == PiezoMaterial("PZT-5H", e31=-6.62281)

    def test_default_forcing_per_volt(self):
        """The default motor's forcing per volt, to the bit, from Copper's
        ring modes and PZT-5H's e31."""
        assert runner.build_stator(RunConfig()).forcing_per_volt == -3.195711766877034

    def test_lookup_unknown_name(self):
        with pytest.raises(KeyError):
            lookup("Unobtainium")


class TestValidation:
    def test_isotropic_rejects_nonpositive_modulus(self):
        with pytest.raises(ValueError, match="youngs_modulus must be > 0, not 0"):
            IsotropicMaterial("x", 1000.0, youngs_modulus=0.0)


class TestLoadMaterial:
    """An inline entry in a config resolves to the material it describes."""

    def test_isotropic_from_json_file(self, tmp_path):
        path = tmp_path / "brass.json"
        path.write_text(json.dumps({"stator_material": {
            "name": "Brass",
            "density": 8500.0,
            "youngs_modulus": 97e9,
        }}))
        assert load_config(path).stator_material == IsotropicMaterial(
            "Brass", density=8500.0, youngs_modulus=97e9)

    def test_piezo_round_trip(self):
        """A catalog material's fields, given inline, are that material."""
        pzt = lookup("PZT-5H")
        config = RunConfig.from_dict({"piezo_material": dataclasses.asdict(pzt)})
        assert config.piezo_material == pzt
        assert config == RunConfig()
