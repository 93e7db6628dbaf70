"""Areal surface-roughness parameters from gridded height maps.

Height maps are rectangular grids in micrometers with a fixed pixel
pitch.  After mean-plane leveling, the standard areal texture parameters
(Sa, Sq, Ssk, Sku, Sp, Sv, Sz) are evaluated by midpoint-rule
discretization of the defining integrals; no filtration is applied.

Sz is implemented as Sp + Sv, i.e. max peak height plus max pit depth
(equivalently max - min of the leveled surface).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import field

import numpy as np

from .record import Record

__all__ = ["HeightMap", "ArealParams", "load_height_map", "level_mean_plane",
           "areal_params", "roughness_report"]

_CSV = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)


class _Fresh:
    """Heights this module has just made and never touches again: a map
    holds them as they are, not a copy."""

    __slots__ = ("heights",)

    def __init__(self, heights: np.ndarray):
        self.heights = heights


class HeightMap(Record):
    """Gridded surface heights (um) on a uniform pixel pitch (um).

    The map holds a read-only copy of the heights it is given, so the
    caller's array stays its own.  This module's loader and leveler hand
    over arrays they have just made wrapped in ``_Fresh``, and the map
    takes those as they are.
    """

    heights: np.ndarray = field(repr=False)
    dx: float
    dy: float
    leveled: bool = False

    def __post_init__(self):
        z = self.heights
        z = z.heights if isinstance(z, _Fresh) else np.array(z, dtype=float)
        if z.ndim != 2 or z.shape[0] < 2 or z.shape[1] < 2:
            raise ValueError("height map must be a grid of at least 2x2 points")
        if not (0 < self.dx < math.inf and 0 < self.dy < math.inf):
            raise ValueError("pixel pitch must be finite and > 0")
        if not np.all(np.isfinite(z)):
            i, j = np.argwhere(~np.isfinite(z))[0]
            raise ValueError(f"non-finite height at row {i + 1}, column {j + 1}")
        z.flags.writeable = False
        object.__setattr__(self, "heights", z)

    @property
    def area(self) -> float:
        """Evaluation area in um^2."""
        return self.heights.size * self.dx * self.dy


def load_height_map(path, dx: float, dy: float) -> HeightMap:
    """Read a rectangular CSV grid of heights (um); blank lines are skipped.

    A bad grid is named by its first non-numeric cell or ragged row.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data: checked below
            z = np.loadtxt(path, **_CSV)
    except ValueError as exc:
        raise ValueError(f"{path}: {_first_bad_line(path) or exc}") from None
    if z.size == 0:
        raise ValueError(f"{path}: empty height map")
    return HeightMap(heights=_Fresh(z), dx=dx, dy=dy)


def _first_bad_line(path) -> str | None:
    """Where a grid goes wrong, parsing each line alone as the loader does."""
    width = None
    with open(path) as fh:
        for r, line in enumerate(fh, start=1):
            if line == "\n":
                continue
            try:
                n = np.loadtxt([line], **_CSV).shape[1]
            except ValueError:
                cells = np.loadtxt([line], dtype=str, **_CSV)[0].tolist()
                for c, cell in enumerate(cells, start=1):
                    try:
                        np.loadtxt([line], usecols=c - 1, **_CSV)
                    except ValueError:
                        return f"non-numeric cell at row {r}, column {c}: {cell!r}"
                return None
            width = width or n
            if n != width:
                return f"ragged grid; row {r} has {n} cells, expected {width}"


def level_mean_plane(hmap: HeightMap) -> HeightMap:
    """Subtract the least-squares mean plane; removes offset and tilt.

    The centred basis {1, x - mean(x), y - mean(y)} is orthogonal on the
    grid, so the plane is z's projection on it.  A residual within the fit's
    rounding error, 8 eps cond(G) sqrt(N) max|z| for the N x 3 design matrix
    G = [1, x, y], is set to exactly zero, so a planar map levels to a flat
    zero map (Ssk and Sku undefined), not to noise; planar maps of random
    size, pitch, offset and tilt stay below an eighth of that bound.
    """
    z = hmap.heights
    ny, nx = z.shape
    x, y = np.arange(nx) * hmap.dx, np.arange(ny) * hmap.dy
    xc, yc = x - x.mean(), y - y.mean()
    residual = z - (z.mean() + (z.sum(axis=1) @ yc) / (nx * (yc @ yc)) * yc)[:, None]
    residual -= (z.sum(axis=0) @ xc) / (ny * (xc @ xc)) * xc
    # G = [1, xc, yc] T with T unit upper triangular: cond(G) = cond(diag(norms) T)
    norms = np.sqrt([[z.size], [ny * (xc @ xc)], [nx * (yc @ yc)]])
    cond = np.linalg.cond(norms * [[1, x.mean(), y.mean()], [0, 1, 0], [0, 0, 1]])
    rounding = (8.0 * np.finfo(float).eps * cond * math.sqrt(z.size)
                * max(z.max(), -z.min()))
    if max(residual.max(), -residual.min()) <= rounding:
        residual.fill(0.0)
    return HeightMap(heights=_Fresh(residual), dx=hmap.dx, dy=hmap.dy,
                     leveled=True)


class ArealParams(Record):
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
    z = hmap.heights.ravel()
    cell = hmap.dx * hmap.dy
    area = hmap.area
    z2 = np.abs(z)
    sa = float(z2.sum() * cell / area)
    z2 *= z2
    sq = float(np.sqrt(z2.sum() * cell / area))
    sp, sv = float(z.max()), float(abs(z.min()))
    ssk = sku = None
    if sq > 0.0:
        ssk = float(np.dot(z2, z) * cell / area / sq**3)
        sku = float(np.dot(z2, z2) * cell / area / sq**4)
    return ArealParams(sa=sa, sq=sq, sz=sp + sv, sp=sp, sv=sv,
                       ssk=ssk, sku=sku, area_size=area)


def roughness_report(samples, labels=None) -> dict:
    """Per-sample parameters and the across-sample mean Sa.

    ``samples`` is any iterable of HeightMaps (leveled when needed), read one
    at a time, so a generator of loaded maps holds one map at once; optional
    ``labels`` annotate each sample (e.g. a sandpaper grit).
    """
    entries = [areal_params(h if h.leveled else level_mean_plane(h)).to_dict()
               for h in samples]
    if not entries:
        raise ValueError("need at least one sample")
    if labels is not None and len(labels) != len(entries):
        raise ValueError("labels must match samples one-to-one")
    for entry, label in zip(entries, [] if labels is None else labels):
        entry["label"] = label
    return {"samples": entries, "mean_Sa": float(np.mean([e["Sa"] for e in entries]))}
