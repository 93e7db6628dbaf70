"""Parametric sweeps over preload, COF, voltage and frequency.

A sweep runs the full transient pipeline once per parameter value.  No
sweep parameter changes the stator, so it is built once.  Rows that share
a step grid advance together as one lockstep batch
(``dynamics.simulate_batch``, which bounds its own buffers); a frequency
sweep may split into several batches, because the step follows the drive
frequency.  With ``jobs > 1`` a batch is split into contiguous parts, one a
worker, on a pool of at most one worker per usable CPU.  A row's results do
not depend on its batch or part, and rows come back in input order, so a
sweep is deterministic whatever the job count.
``find_peak`` returns the torque optimum as the record ``peak.json``
holds.  Named presets reproduce the study grids used for the USR30/USR60
preload curves, the gram-denominated plastic-stator sweep, and the COF
scan.  A linear grid, a preset's or one that ``--values`` spells, has one
rule, ``inclusive_grid``, which bounds its count before building it.
"""

from __future__ import annotations

import bisect
import csv
import math
import os
from dataclasses import field

import numpy as np

from . import dynamics, runner
from .config import ConfigError, RunConfig
from .record import Record

__all__ = [
    "SweepSpec",
    "SweepRow",
    "SweepCurve",
    "PARAMETERS",
    "PRESET_NAMES",
    "grams_to_newtons",
    "inclusive_grid",
    "make_preset",
    "run_sweep",
    "find_peak",
]

STANDARD_GRAVITY = 9.80665  # m/s^2
SWEEP_CSV_HEADER = "param,torque,speed,t_ss,settled,ok,error"
MAX_GRID_VALUES = 4096      # most values a sweep grid holds, 200 times the largest preset's 20


def grams_to_newtons(grams: float) -> float:
    """Convert a gram-denominated preload to newtons via standard gravity."""
    if grams < 0:
        raise ValueError("mass in grams must be >= 0")
    return grams * STANDARD_GRAVITY * 1e-3


# Each sweepable parameter: (unit, config section, field, conversion to the
# field's SI value).
PARAMETERS = {
    "preload_N": ("N", "rotor", "preload", float),
    "preload_g": ("g", "rotor", "preload", grams_to_newtons),
    "cof": ("-", "contact", "cof", float),
    "voltage": ("V", "drive", "voltage", float),
    "frequency": ("Hz", "drive", "frequency", float),
}


def inclusive_grid(start: float, stop: float, step: float) -> tuple[float, ...]:
    """start, start + step, ... through stop, each rounded to 12 decimals.

    Value i is kept while start + i step <= stop + 1e-9 step, so a stop that
    the steps reach only up to rounding is kept.  That rule is monotone in
    i, so the count is found by bisection over it, exactly and before any
    value is built; a grid of more than ``MAX_GRID_VALUES`` is refused,
    naming ``--values``, the flag that spells grids.
    """
    if not step > 0 or stop < start:
        raise ConfigError("grid needs step > 0 and stop >= start")
    count = bisect.bisect_right(range(MAX_GRID_VALUES + 1), stop + 1e-9 * step,
                                key=lambda i: start + i * step)
    if count > MAX_GRID_VALUES:
        raise ConfigError(f"--values {start:g}:{stop:g}:{step:g} holds more than "
                          f"{MAX_GRID_VALUES} values")
    # value 0 is start itself, so a start of -0.0 stays -0.0
    return tuple(round(start + i * step if i else start, 12) for i in range(count))


class SweepSpec(Record):
    """One swept parameter, its grid, and the base configuration."""

    parameter: str
    values: tuple[float, ...]
    base: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self):
        if self.parameter not in PARAMETERS:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}; "
                             f"choose from {', '.join(PARAMETERS)}")
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) < 3:
            raise ValueError("a sweep needs at least 3 values")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("sweep values must be strictly ascending")
        self.config_for(vals[0])    # the config types state the domains; the lowest decides

    def config_for(self, value: float) -> RunConfig:
        _, section, name, to_si = PARAMETERS[self.parameter]
        return self.base.override(**{section: {name: to_si(value)}})


class SweepRow(Record):
    """One value's results, a line of ``sweep.csv``."""

    param: float
    torque: float
    speed: float
    t_ss: float
    settled: bool
    ok: bool = True
    error: str = ""


class SweepCurve(Record):
    """A sweep's rows, in the order of its values."""

    parameter: str
    rows: tuple[SweepRow, ...]

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
    model, grid, values, configs = task
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
            summary = runner.summarize(config, model, run, grid)
        except Exception as exc:
            rows.append(_failed_row(value, exc))
            continue
        rows.append(SweepRow(param=value, torque=summary["reported_torque"],
                             speed=summary["mean_speed"], t_ss=summary["t_ss"],
                             settled=summary["settled"]))
    return rows


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepCurve:
    """Run the pipeline over every grid value; rows keep the input order.

    ``jobs`` worker processes run the rows, but never more than the CPUs
    this process may use.  ``dynamics.simulate_batch`` steps a lockstep
    batch in parts of bounded size, so a sweep's memory does not grow with
    its rows.

    Any error in a row's configuration, run or post-processing makes that
    row failed (ok=False, with the message) and the sweep continues.  A
    row that ``runner.admit`` refuses fails before any row is stepped.
    """
    model = runner.build_stator(spec.base)
    rows: list[SweepRow | None] = [None] * len(spec.values)
    configs: dict[int, RunConfig] = {}
    batches: dict[tuple, list[int]] = {}    # row indices by step grid
    for i, value in enumerate(spec.values):
        try:
            configs[i] = config = spec.config_for(value)
            grid = runner.admit(config, model)
        except Exception as exc:
            rows[i] = _failed_row(value, exc)
            continue
        batches.setdefault(grid, []).append(i)

    workers = max(1, min(jobs, _usable_cpus()))
    parts = []   # each batch split into contiguous parts, one a worker
    for grid, members in batches.items():
        k = min(workers, len(members))
        parts.extend((grid, members[j * len(members) // k:(j + 1) * len(members) // k])
                     for j in range(k))
    tasks = [(model, grid, [spec.values[i] for i in part], [configs[i] for i in part])
             for grid, part in parts]
    if workers == 1 or len(tasks) <= 1:
        results = [_run_batch(t) for t in tasks]
    else:
        # imported here: loading the pool machinery costs every command start-up
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = list(pool.map(_run_batch, tasks))
    for (_, part), part_rows in zip(parts, results):
        for i, row in zip(part, part_rows):
            rows[i] = row
    return SweepCurve(parameter=spec.parameter, rows=tuple(rows))


# Named study grids: name -> (parameter, grid, what the study fixes over the
# base config); a linear grid is the one ``--values`` spells with the same
# start, stop and step.  ``usr30_preload``/``usr60_preload``: 25 N steps up to
# 250/500 N.  ``ultem_preload_g``: 20 log-spaced points from 20 to 5000 g on
# an Ultem stator, run for 7 ms: the shortest whole millisecond in which all
# its rows settle (at 5 ms none does).  ``cof_sweep``: 0.05..0.6 in 0.05
# steps at 200 N, where the contact annulus is fully closed: only there does
# the drag side of the wave trade against the driving side and produce an
# interior friction optimum.
PRESETS = {
    "usr30_preload": ("preload_N", inclusive_grid(25.0, 250.0, 25.0), {}),
    "usr60_preload": ("preload_N", inclusive_grid(25.0, 500.0, 25.0), {}),
    "ultem_preload_g": ("preload_g", np.geomspace(20.0, 5000.0, 20),
                        {"stator_material": "Ultem 1000", "simulation": {"duration": 7e-3}}),
    "cof_sweep": ("cof", inclusive_grid(0.05, 0.6, 0.05), {"rotor": {"preload": 200.0}}),
}
PRESET_NAMES = tuple(PRESETS)


def make_preset(name: str, base: RunConfig | None = None) -> SweepSpec:
    """The study grid ``PRESETS`` names, on ``base`` (by default the defaults)."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    parameter, grid, fixed = PRESETS[name]
    base = base if base is not None else RunConfig()
    return SweepSpec(parameter, tuple(grid), base.override(**fixed))


def _unimodal(values: np.ndarray) -> bool:
    d = np.diff(values)
    signs = [s for s in np.sign(d) if s != 0]
    transitions = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if transitions > 1:
        return False
    if transitions == 1:
        return signs[0] > 0  # must rise first, then fall
    return True  # monotone


def find_peak(curve: SweepCurve) -> dict:
    """The torque maximum and the curve's modality, as ``peak.json`` holds them.

    The record is {"param", "torque", "unimodal", "boundary_maximum"}: the
    parameter value and torque of the maximum, whether the torques rise
    then fall (or are monotone), and whether the maximum is an end row.
    Only rows that are ok, settled and of finite torque participate; fewer
    than 3 such rows is an error.
    """
    rows = [r for r in curve.rows if r.ok and r.settled and math.isfinite(r.torque)]
    if len(rows) < 3:
        raise ValueError(
            f"need at least 3 settled rows of finite torque, have {len(rows)}")
    params = np.array([r.param for r in rows])
    torque = np.array([r.torque for r in rows])
    i = int(np.argmax(torque))
    return {"param": float(params[i]), "torque": float(torque[i]),
            "unimodal": bool(_unimodal(torque)),
            "boundary_maximum": i == 0 or i == len(rows) - 1}
