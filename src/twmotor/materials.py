"""Material data for the motor model: the numbers the ring model reads.

The stator ring is an Euler-Bernoulli beam, so an isotropic material
carries its density and Young's modulus (``stator.ring_modes``).  The
electrodes bend the ring through the ceramic's piezoelectric stress
constant e31 alone, so a piezo material carries e31
(``stator.piezo_modal_force``).  A real ceramic's other constants do not
enter the model and are not kept.

All values are SI.
"""

from __future__ import annotations

from .record import Record

__all__ = [
    "IsotropicMaterial",
    "PiezoMaterial",
    "builtin_library",
    "lookup",
]


class IsotropicMaterial(Record):
    """Linear isotropic solid: the stator ring."""

    name: str
    density: float          # kg/m^3
    youngs_modulus: float   # Pa

    def __post_init__(self):
        for key in ("density", "youngs_modulus"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be > 0, not {getattr(self, key):g}")


class PiezoMaterial(Record):
    """Thickness-poled piezoceramic layer, by its stress constant e31."""

    name: str
    e31: float              # C/m^2


def builtin_library() -> dict[str, IsotropicMaterial | PiezoMaterial]:
    """Catalog of the stock motor materials, keyed by name."""
    mats: list[IsotropicMaterial | PiezoMaterial] = [
        IsotropicMaterial("Ultem 1000", density=1270.0, youngs_modulus=3.2e9),
        IsotropicMaterial("Epoxy", density=3500.0, youngs_modulus=0.7e9),
        PiezoMaterial("PZT-5H", e31=-6.62281),
        IsotropicMaterial("Copper", density=8960.0, youngs_modulus=110e9),
        IsotropicMaterial("Aluminum", density=2700.0, youngs_modulus=70e9),
    ]
    return {m.name: m for m in mats}


def lookup(name: str) -> IsotropicMaterial | PiezoMaterial:
    """Fetch a catalog material by name."""
    lib = builtin_library()
    try:
        return lib[name]
    except KeyError:
        known = ", ".join(sorted(lib))
        raise KeyError(f"unknown material {name!r}; catalog has: {known}") from None
