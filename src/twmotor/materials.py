"""Constitutive material data for the motor model.

Two material kinds are supported: plain isotropic solids (stator ring,
rotor) described by density / Poisson ratio / Young's modulus, and the
piezoceramic described by its full anisotropic matrix set (elasticity c_E
in Voigt order, piezoelectric coupling e, relative permittivity).

All values are SI.  Voigt component order is (11, 22, 33, 23, 13, 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "IsotropicMaterial",
    "PiezoMaterial",
    "builtin_library",
    "lookup",
    "validate_piezo",
    "load_material",
]

# Coupling-matrix sparsity for a z-poled, transversely isotropic ceramic
# (0-based indices): e15, e24, e31, e32, e33.
_COUPLING_PATTERN = ((0, 4), (1, 3), (2, 0), (2, 1), (2, 2))


@dataclass(frozen=True)
class IsotropicMaterial:
    """Linear isotropic solid."""

    name: str
    density: float          # kg/m^3
    poisson_ratio: float
    youngs_modulus: float   # Pa

    def __post_init__(self):
        if self.density <= 0:
            raise ValueError(f"{self.name}: density must be > 0")
        if self.youngs_modulus <= 0:
            raise ValueError(f"{self.name}: Young's modulus must be > 0")
        if not 0.0 < self.poisson_ratio < 0.5:
            raise ValueError(f"{self.name}: Poisson ratio must lie in (0, 0.5)")


@dataclass(frozen=True)
class PiezoMaterial:
    """Piezoceramic described by full matrix data.

    The elasticity matrix may be given with only its upper triangle
    populated; it is mirrored across the diagonal on construction.  A
    lower triangle that is given must equal the upper one's transpose.
    No isotropic scalar moduli exist for this kind of material.
    """

    name: str
    density: float                      # kg/m^3
    elasticity: np.ndarray = field(repr=False)       # 6x6, Pa
    coupling: np.ndarray = field(repr=False)         # 3x6, C/m^2
    relative_permittivity: np.ndarray = field(repr=False)  # 3x3

    def __post_init__(self):
        if self.density <= 0:
            raise ValueError(f"{self.name}: density must be > 0")
        c = np.asarray(self.elasticity, dtype=float)
        if c.shape != (6, 6):
            raise ValueError("elasticity must be 6x6")
        lower, upper = np.tril(c, -1), np.triu(c, 1).T
        if lower.any() and not np.array_equal(lower, upper):
            i, j = np.argwhere(lower != upper)[0]
            raise ValueError(
                f"{self.name}: elasticity ({i + 1},{j + 1}) = {c[i, j]:g} differs from "
                f"({j + 1},{i + 1}) = {c[j, i]:g}; give a symmetric matrix or its "
                "upper triangle alone")
        c = np.triu(c) + upper  # mirror the upper triangle
        e = np.asarray(self.coupling, dtype=float)
        if e.shape != (3, 6):
            raise ValueError("coupling must be 3x6")
        eps = np.asarray(self.relative_permittivity, dtype=float)
        if eps.shape != (3, 3):
            raise ValueError("relative_permittivity must be 3x3")
        for a in (c, e, eps):
            a.flags.writeable = False
        object.__setattr__(self, "elasticity", c)
        object.__setattr__(self, "coupling", e)
        object.__setattr__(self, "relative_permittivity", eps)

    @property
    def e31(self) -> float:
        return float(self.coupling[2, 0])


def validate_piezo(m: PiezoMaterial) -> list[str]:
    """Check the physical admissibility of a piezo material.

    Returns a list of violated-invariant messages; an empty list means the
    material is valid.  Violations are data, not exceptions.
    """
    report = []
    eigs = np.linalg.eigvalsh(m.elasticity)   # symmetric by construction
    if eigs[0] <= 0.0:
        report.append(
            f"elasticity not positive definite (smallest eigenvalue {eigs[0]:g} Pa)"
        )
    eps = np.asarray(m.relative_permittivity, dtype=float)
    off = eps - np.diag(np.diag(eps))
    if np.any(off != 0.0):
        i, j = np.argwhere(off != 0.0)[0]
        report.append(f"permittivity not diagonal (entry ({i + 1},{j + 1}) nonzero)")
    if np.any(np.diag(eps) <= 0.0):
        i = int(np.argmin(np.diag(eps)))
        report.append(f"permittivity entry ({i + 1},{i + 1}) not positive")
    e = np.asarray(m.coupling, dtype=float)
    for i in range(3):
        for j in range(6):
            if (i, j) not in _COUPLING_PATTERN and e[i, j] != 0.0:
                report.append(
                    f"coupling entry ({i + 1},{j + 1}) breaks the sparsity pattern"
                )
    if e[0, 4] != e[1, 3]:
        report.append("coupling (1,5) != (2,4) breaks transverse isotropy")
    if e[2, 0] != e[2, 1]:
        report.append("coupling (3,1) != (3,2) breaks transverse isotropy")
    return report


def _pzt5h() -> PiezoMaterial:
    elasticity = np.array(
        [
            [1.27205e11, 8.02122e10, 8.46702e10, 0.0, 0.0, 0.0],
            [0.0, 1.27205e11, 8.46702e10, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.17436e11, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 2.29885e10, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 2.29885e10, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 2.34742e10],
        ]
    )
    coupling = np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 17.0345, 0.0],
            [0.0, 0.0, 0.0, 17.0345, 0.0, 0.0],
            [-6.62281, -6.62281, 23.2403, 0.0, 0.0, 0.0],
        ]
    )
    permittivity = np.diag([1704.4, 1704.4, 1433.6])
    return PiezoMaterial(
        name="PZT-5H",
        density=7500.0,
        elasticity=elasticity,
        coupling=coupling,
        relative_permittivity=permittivity,
    )


def builtin_library() -> dict[str, IsotropicMaterial | PiezoMaterial]:
    """Catalog of the stock motor materials, keyed by name."""
    mats: list[IsotropicMaterial | PiezoMaterial] = [
        IsotropicMaterial("Ultem 1000", density=1270.0, poisson_ratio=0.30,
                          youngs_modulus=3.2e9),
        IsotropicMaterial("Epoxy", density=3500.0, poisson_ratio=0.33,
                          youngs_modulus=0.7e9),
        _pzt5h(),
        IsotropicMaterial("Copper", density=8960.0, poisson_ratio=0.35,
                          youngs_modulus=110e9),
        IsotropicMaterial("Aluminum", density=2700.0, poisson_ratio=0.33,
                          youngs_modulus=70e9),
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


def load_material(data) -> IsotropicMaterial | PiezoMaterial:
    """Build a material from an already-parsed mapping, such as a config entry.

    Isotropic entries carry ``poisson_ratio`` and ``youngs_modulus``; piezo
    entries carry ``elasticity`` (36 numbers row-major), ``coupling`` (18)
    and ``relative_permittivity`` (9).
    """
    name = data["name"]
    density = float(data["density"])
    if "elasticity" in data:
        return PiezoMaterial(
            name=name,
            density=density,
            elasticity=np.reshape(np.asarray(data["elasticity"], float), (6, 6)),
            coupling=np.reshape(np.asarray(data["coupling"], float), (3, 6)),
            relative_permittivity=np.reshape(
                np.asarray(data["relative_permittivity"], float), (3, 3)
            ),
        )
    return IsotropicMaterial(
        name=name,
        density=density,
        poisson_ratio=float(data["poisson_ratio"]),
        youngs_modulus=float(data["youngs_modulus"]),
    )
