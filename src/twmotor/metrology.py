"""Areal surface-roughness parameters from gridded height maps.

Height maps are rectangular grids in micrometers with a fixed pixel
pitch.  After mean-plane leveling, the standard areal texture parameters
(Sa, Sq, Ssk, Sku, Sp, Sv, Sz) are evaluated by midpoint-rule
discretization of the defining integrals; no filtration is applied.

Sz is implemented as Sp + Sv, i.e. max peak height plus max pit depth
(equivalently max - min of the leveled surface).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HeightMap",
    "ArealParams",
    "load_height_map",
    "level_mean_plane",
    "areal_params",
    "roughness_report",
]


@dataclass(frozen=True)
class HeightMap:
    """Gridded surface heights (um) on a uniform pixel pitch (um)."""

    heights: np.ndarray = field(repr=False)
    dx: float
    dy: float
    leveled: bool = False

    def __post_init__(self):
        z = np.asarray(self.heights, dtype=float)
        if z.ndim != 2 or z.shape[0] < 2 or z.shape[1] < 2:
            raise ValueError("height map must be a grid of at least 2x2 points")
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError("pixel pitch must be > 0")
        if not np.all(np.isfinite(z)):
            i, j = np.argwhere(~np.isfinite(z))[0]
            raise ValueError(f"non-finite height at row {i + 1}, column {j + 1}")
        z = z.copy()
        z.flags.writeable = False
        object.__setattr__(self, "heights", z)

    @property
    def area(self) -> float:
        """Evaluation area in um^2."""
        return self.heights.size * self.dx * self.dy


def load_height_map(path, dx: float, dy: float) -> HeightMap:
    """Read a rectangular numeric CSV grid of heights (um)."""
    rows = []
    with open(path, newline="") as fh:
        for r, record in enumerate(csv.reader(fh), start=1):
            if not record:
                continue
            values = []
            for c, cell in enumerate(record, start=1):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}"
                    ) from None
            if rows and len(values) != len(rows[0]):
                raise ValueError(
                    f"{path}: ragged grid; row {r} has {len(values)} cells, "
                    f"expected {len(rows[0])}"
                )
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: empty height map")
    return HeightMap(heights=np.array(rows), dx=dx, dy=dy)


def level_mean_plane(hmap: HeightMap) -> HeightMap:
    """Subtract the least-squares mean plane; removes offset and tilt.

    A residual within the rounding error of the fit is set to exactly
    zero, so a flat or planar map levels to a flat zero map (whose Ssk and
    Sku are undefined) instead of to rounding noise.  That error bound is
    8 eps cond(G) sqrt(N) max|z| for the N x 3 design matrix G; planar maps
    of random size, pitch, offset and tilt stay below an eighth of it.
    """
    z = hmap.heights
    ny, nx = z.shape
    x = np.arange(nx) * hmap.dx
    y = np.arange(ny) * hmap.dy
    X, Y = np.meshgrid(x, y)
    G = np.column_stack([np.ones(z.size), X.ravel(), Y.ravel()])
    coeff, _, _, singular = np.linalg.lstsq(G, z.ravel(), rcond=None)
    plane = (G @ coeff).reshape(z.shape)
    residual = z - plane
    rounding = (8.0 * np.finfo(float).eps * singular[0] / singular[-1]
                * math.sqrt(z.size) * max(z.max(), -z.min()))
    if max(residual.max(), -residual.min()) <= rounding:
        residual.fill(0.0)
    return HeightMap(heights=residual, dx=hmap.dx, dy=hmap.dy, leveled=True)


@dataclass(frozen=True)
class ArealParams:
    """The seven areal texture parameters of one evaluation area.

    Ssk and Sku are None when Sq is zero (flat surface).
    """

    sa: float
    sq: float
    sz: float
    sp: float
    sv: float
    ssk: float | None
    sku: float | None
    area_size: float

    def to_dict(self) -> dict:
        return {"Sa": self.sa, "Sq": self.sq, "Sz": self.sz, "Sp": self.sp,
                "Sv": self.sv, "Ssk": self.ssk, "Sku": self.sku,
                "area_size": self.area_size}


def areal_params(hmap: HeightMap) -> ArealParams:
    """Evaluate Sa, Sq, Ssk, Sku, Sp, Sv, Sz on a leveled map."""
    if not hmap.leveled:
        raise ValueError("height map must be leveled first (level_mean_plane)")
    z = hmap.heights
    cell = hmap.dx * hmap.dy
    area = hmap.area
    sa = float(np.sum(np.abs(z)) * cell / area)
    sq = float(np.sqrt(np.sum(z * z) * cell / area))
    sp = float(np.max(z))
    sv = float(abs(np.min(z)))
    if sq > 0.0:
        ssk = float(np.sum(z**3) * cell / area / sq**3)
        sku = float(np.sum(z**4) * cell / area / sq**4)
    else:
        ssk = None
        sku = None
    return ArealParams(sa=sa, sq=sq, sz=sp + sv, sp=sp, sv=sv,
                       ssk=ssk, sku=sku, area_size=area)


def roughness_report(samples, labels=None) -> dict:
    """Per-sample parameters and the across-sample mean Sa.

    ``samples`` are HeightMaps (leveled automatically when needed);
    optional ``labels`` annotate each sample (e.g. a sandpaper grit).
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    if labels is not None and len(labels) != len(samples):
        raise ValueError("labels must match samples one-to-one")
    entries = []
    for i, hmap in enumerate(samples):
        if not hmap.leveled:
            hmap = level_mean_plane(hmap)
        params = areal_params(hmap)
        entry = params.to_dict()
        if labels is not None:
            entry["label"] = labels[i]
        entries.append(entry)
    return {
        "samples": entries,
        "mean_Sa": float(np.mean([e["Sa"] for e in entries])),
    }
