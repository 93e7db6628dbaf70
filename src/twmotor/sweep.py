"""Parametric sweeps over preload, COF, voltage and frequency.

A sweep runs the full transient pipeline once per parameter value.  No
sweep parameter changes the stator, so it is built once.  Rows that share
a step grid advance together as one lockstep batch
(``dynamics.simulate_batch``); a frequency sweep may split into several
batches, because the step follows the drive frequency.  With ``jobs > 1``
the batches are split into parts that run on a worker pool.  A row's
results do not depend on its batch, and rows come back in input order, so
a sweep is deterministic whatever the job count.  Named presets reproduce
the study grids used for the USR30/USR60 preload curves, the
gram-denominated plastic-stator sweep, and the COF scan.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, runner
from .config import ConfigError, RunConfig

__all__ = [
    "SweepSpec",
    "SweepRow",
    "SweepCurve",
    "PeakReport",
    "PARAMETER_UNITS",
    "PRESET_NAMES",
    "grams_to_newtons",
    "make_preset",
    "run_sweep",
    "find_peak",
]

STANDARD_GRAVITY = 9.80665  # m/s^2

# The sweepable parameters and their units.
PARAMETER_UNITS = {"preload_N": "N", "preload_g": "g", "cof": "-", "voltage": "V",
                   "frequency": "Hz"}
SWEEP_CSV_HEADER = "param,torque,speed,t_ss,settled,ok,error"


def grams_to_newtons(grams: float) -> float:
    """Convert a gram-denominated preload to newtons via standard gravity."""
    if grams < 0:
        raise ValueError("mass in grams must be >= 0")
    return grams * STANDARD_GRAVITY * 1e-3


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter, its grid, and the base configuration."""

    parameter: str
    values: tuple[float, ...]
    base: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self):
        if self.parameter not in PARAMETER_UNITS:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"choose from {', '.join(PARAMETER_UNITS)}"
            )
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 3:
            raise ValueError("a sweep needs at least 3 values")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep values must be strictly ascending")
        if self.parameter in ("preload_N", "preload_g") and vals[0] < 0:
            raise ValueError("preload must be >= 0")
        if self.parameter == "cof" and not (0 <= vals[0] and vals[-1] <= 2):
            raise ValueError("cof sweep must stay within [0, 2]")
        if self.parameter == "voltage" and vals[0] < 0:
            raise ValueError("voltage must be >= 0")
        if self.parameter == "frequency" and vals[0] <= 0:
            raise ValueError("frequency must be > 0")

    def config_for(self, value: float) -> RunConfig:
        if self.parameter == "preload_N":
            return self.base.override(rotor={"preload": value})
        if self.parameter == "preload_g":
            return self.base.override(rotor={"preload": grams_to_newtons(value)})
        if self.parameter == "cof":
            return self.base.override(contact={"cof": value})
        if self.parameter == "voltage":
            return self.base.override(drive={"voltage": value})
        return self.base.override(drive={"frequency": value})


@dataclass(frozen=True)
class SweepRow:
    param: float
    torque: float
    speed: float
    t_ss: float
    settled: bool
    ok: bool = True
    error: str = ""


@dataclass(frozen=True)
class SweepCurve:
    parameter: str
    rows: tuple[SweepRow, ...]

    def __len__(self):
        return len(self.rows)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SWEEP_CSV_HEADER.split(","))
            for r in self.rows:
                writer.writerow([f"{r.param:.17g}", f"{r.torque:.17g}", f"{r.speed:.17g}",
                                 f"{r.t_ss:.17g}", int(r.settled), int(r.ok), r.error])


def _failed_row(value: float, exc: Exception) -> SweepRow:
    return SweepRow(param=value, torque=math.nan, speed=math.nan, t_ss=math.nan,
                    settled=False, ok=False, error=str(exc))


def _run_batch(task) -> list[SweepRow]:
    """Run one batch of rows in lockstep, then post-process each row."""
    model, values, configs = task
    sim = configs[0].simulation
    try:
        series = dynamics.simulate_batch(
            model, [(c.drive, c.contact, c.rotor) for c in configs],
            duration=sim.duration, output_interval=sim.output_interval, dt=sim.dt)
    except Exception as exc:
        return [_failed_row(v, exc) for v in values]
    rows = []
    for value, config, run in zip(values, configs, series):
        try:
            summary = runner.summarize(config, model, run)
        except Exception as exc:
            rows.append(_failed_row(value, exc))
            continue
        rows.append(SweepRow(param=value, torque=summary["reported_torque"],
                             speed=summary["mean_speed"], t_ss=summary["t_ss"],
                             settled=summary["settled"]))
    return rows


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepCurve:
    """Run the pipeline over every grid value; rows keep the input order.

    Any error in a row's configuration, run or post-processing makes that
    row failed (ok=False, with the message) and the sweep continues.
    """
    model = runner.build_stator(spec.base)
    rows: list[SweepRow | None] = [None] * len(spec.values)
    configs: dict[int, RunConfig] = {}
    batches: dict[tuple, list[int]] = {}    # row indices by step grid
    for i, value in enumerate(spec.values):
        try:
            configs[i] = config = spec.config_for(value)
            sim = config.simulation
            grid = dynamics.step_grid(model, config.drive, sim.duration,
                                      sim.output_interval, sim.dt)
        except Exception as exc:
            rows[i] = _failed_row(value, exc)
            continue
        batches.setdefault(grid, []).append(i)

    parts = []   # each batch split into up to ``jobs`` contiguous parts
    for members in batches.values():
        k = min(max(jobs, 1), len(members))
        parts.extend(members[j * len(members) // k:(j + 1) * len(members) // k]
                     for j in range(k))
    tasks = [(model, [spec.values[i] for i in part], [configs[i] for i in part])
             for part in parts]
    if jobs <= 1 or len(tasks) <= 1:
        results = [_run_batch(t) for t in tasks]
    else:
        # imported here: loading the pool machinery costs every command start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_run_batch, tasks))
    for part, part_rows in zip(parts, results):
        for i, row in zip(part, part_rows):
            rows[i] = row
    return SweepCurve(parameter=spec.parameter, rows=tuple(rows))


PRESET_NAMES = ("usr30_preload", "usr60_preload", "ultem_preload_g", "cof_sweep")


def make_preset(name: str, base: RunConfig | None = None) -> SweepSpec:
    """Named study grids.

    ``usr30_preload``/``usr60_preload``: 25 N steps up to 250/500 N.
    ``ultem_preload_g``: 20 log-spaced points from 20 to 5000 g on an
    Ultem stator.  ``cof_sweep``: 0.05..0.6 in 0.05 steps.
    """
    base = base if base is not None else RunConfig()
    if name == "usr30_preload":
        return SweepSpec("preload_N", tuple(np.arange(25.0, 250.0 + 1e-9, 25.0)), base)
    if name == "usr60_preload":
        return SweepSpec("preload_N", tuple(np.arange(25.0, 500.0 + 1e-9, 25.0)), base)
    if name == "ultem_preload_g":
        vals = tuple(np.geomspace(20.0, 5000.0, 20))
        return SweepSpec("preload_g", vals,
                         base.override(stator_material="Ultem 1000"))
    if name == "cof_sweep":
        # Run the friction study at 200 N where the contact annulus is fully
        # closed: only there does the drag side of the wave trade against the
        # driving side and produce an interior friction optimum.
        return SweepSpec("cof", tuple(np.arange(0.05, 0.6 + 1e-9, 0.05)),
                         base.override(rotor={"preload": 200.0}))
    raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


@dataclass(frozen=True)
class PeakReport:
    param: float
    torque: float
    unimodal: bool
    boundary_maximum: bool


def _unimodal(values: np.ndarray) -> bool:
    d = np.diff(values)
    signs = [s for s in np.sign(d) if s != 0]
    transitions = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if transitions > 1:
        return False
    if transitions == 1:
        return signs[0] > 0  # must rise first, then fall
    return True  # monotone


def find_peak(curve: SweepCurve) -> PeakReport:
    """Locate the torque maximum and report the curve's modality.

    Only settled rows participate; fewer than 3 settled rows is an error.
    """
    rows = [r for r in curve.rows if r.settled and r.ok]
    if len(rows) < 3:
        raise ValueError(f"need at least 3 settled rows, have {len(rows)}")
    params = np.array([r.param for r in rows])
    torque = np.array([r.torque for r in rows])
    i = int(np.argmax(torque))
    return PeakReport(
        param=float(params[i]), torque=float(torque[i]),
        unimodal=bool(_unimodal(torque)),
        boundary_maximum=(i == 0 or i == len(rows) - 1),
    )
