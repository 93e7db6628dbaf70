"""The three benchmark workloads: fixed inputs, seeded height maps, output checks.

Each workload is one thing a user does with the ``twmotor`` command line.
``command_argv`` gives the arguments of that command; ``check`` reads the
artifacts one operation left behind and counts how many of its unit
operations (a run, a sweep row or a height map) came out wrong.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("run_default", "sweep_cof", "roughness")

# Every operation runs pinned to one CPU (see speed.py), so sweeps run their
# rows one after another in the command's own process.
JOBS = 1

# A friction sweep at 200 N, where the preset ``cof_sweep`` has its interior
# optimum at cof 0.4: three rows around it, all with one step size.  Every
# row settles by 1.25 ms of simulated time.
COF_CONFIG = {"rotor": {"preload": 200.0}}
COF_GRID = "0.3:0.5:0.1"
COF_ROWS = 3
SWEEP_ROW_DURATION = "0.0015"

# Height maps of the roughness workload.
MAP_COUNT = 4
MAP_SIZE = 1024
MAP_PITCH = 1.25  # um, both axes

RESIDUAL_LIMIT = 0.01


def operations(workload: str) -> int:
    """Unit operations in one run of the workload's command."""
    return {"run_default": 1, "sweep_cof": COF_ROWS, "roughness": MAP_COUNT}[workload]


def make_inputs(workload: str, seed: int, input_dir: Path) -> dict:
    """Write the workload's input files; return what the checks need.

    Only ``roughness`` draws from the seed; the motor workloads are fixed
    configurations and ignore it.
    """
    input_dir.mkdir(parents=True, exist_ok=True)
    if workload == "sweep_cof":
        (input_dir / "cof200.json").write_text(json.dumps(COF_CONFIG) + "\n")
    if workload != "roughness":
        return {}
    rng = np.random.default_rng(seed)
    references = {}
    for i in range(MAP_COUNT):
        z = synthetic_height_map(rng, MAP_SIZE, MAP_SIZE, MAP_PITCH)
        name = f"map{i}.csv"
        write_height_csv(input_dir / name, z)
        references[name] = reference_params(z, MAP_PITCH, MAP_PITCH)
    return {"references": references}


def command_argv(workload: str, input_dir: Path, out_dir: Path) -> list[str]:
    """Arguments of the ``twmotor`` command a sweep or roughness workload runs.

    ``run_default`` calls the pipeline of ``twmotor run`` directly instead,
    because its energy ledger never reaches the command's artifacts.
    """
    sweep_common = ["--jobs", str(JOBS), "--plot", "--duration", SWEEP_ROW_DURATION,
                    "--out-dir", str(out_dir)]
    if workload == "sweep_cof":
        return ["sweep", "--config", str(input_dir / "cof200.json"),
                "--param", "cof", "--values", COF_GRID, *sweep_common]
    if workload == "roughness":
        maps = [str(input_dir / f"map{i}.csv") for i in range(MAP_COUNT)]
        return ["roughness", *maps, "--dx", str(MAP_PITCH), "--dy", str(MAP_PITCH),
                "--out", str(out_dir / "report.json")]
    raise ValueError(f"unknown workload {workload!r}")


# --- seeded height maps and their brute-force reference ---------------------

def synthetic_height_map(rng: np.random.Generator, ny: int, nx: int,
                         pitch: float) -> np.ndarray:
    """Offset + tilt + a sinusoid + Gaussian noise, in um."""
    y, x = np.mgrid[0:ny, 0:nx] * pitch
    offset = rng.uniform(-5.0, 5.0)
    tilt_x, tilt_y = rng.uniform(-2e-3, 2e-3, size=2)
    amp = rng.uniform(0.2, 1.0)
    wavelength = rng.uniform(40.0, 200.0)
    angle = rng.uniform(0.0, math.pi)
    k = 2.0 * math.pi / wavelength
    phase = k * (x * math.cos(angle) + y * math.sin(angle))
    noise = rng.normal(0.0, rng.uniform(0.02, 0.2), size=(ny, nx))
    return offset + tilt_x * x + tilt_y * y + amp * np.sin(phase) + noise


def write_height_csv(path: Path, z: np.ndarray) -> None:
    """CSV with shortest round-trip decimals, so the program reads ``z`` exactly."""
    with open(path, "w") as fh:
        fh.write("\n".join(",".join(map(repr, row)) for row in z.tolist()))
        fh.write("\n")


def reference_params(z: np.ndarray, dx: float, dy: float) -> dict:
    """Areal parameters straight from their definitions.

    The mean plane comes from the 3x3 normal equations instead of a
    least-squares solver, and every parameter is a plain mean over pixels.
    """
    ny, nx = z.shape
    y, x = np.mgrid[0:ny, 0:nx]
    x = x * dx
    y = y * dy
    basis = (np.ones_like(x), x, y)
    gram = np.array([[np.sum(a * b) for b in basis] for a in basis])
    rhs = np.array([np.sum(a * z) for a in basis])
    c = np.linalg.solve(gram, rhs)
    r = z - (c[0] + c[1] * x + c[2] * y)
    sq = math.sqrt(np.mean(r ** 2))
    sp = float(r.max())
    sv = float(-r.min())
    return {"Sa": float(np.mean(np.abs(r))), "Sq": sq, "Sp": sp, "Sv": sv,
            "Sz": sp + sv, "Ssk": float(np.mean(r ** 3)) / sq ** 3,
            "Sku": float(np.mean(r ** 4)) / sq ** 4, "area_size": z.size * dx * dy}


def params_match(got: dict, ref: dict) -> bool:
    """Every parameter within 1e-8 relative, or 1e-9 Sq absolute, of the reference."""
    scale = {"Ssk": 1.0, "Sku": 1.0, "area_size": ref["area_size"]}
    for key, want in ref.items():
        value = got.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return False
        if not math.isclose(value, want, rel_tol=1e-8,
                            abs_tol=1e-9 * scale.get(key, ref["Sq"])):
            return False
    return True


# --- output checks -----------------------------------------------------------

def _strict_json(path: Path):
    def reject(token):
        raise ValueError(f"non-finite number {token} in {path.name}")
    return json.loads(path.read_text(), parse_constant=reject)


def _finite_positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def check(workload: str, out_dir: Path, op_result: dict, inputs: dict) -> int:
    """Failed unit operations among ``operations(workload)``; 0 means all correct.

    A missing or unparsable artifact fails every operation of the command.
    """
    total = operations(workload)
    try:
        if workload == "run_default":
            return _check_run(out_dir, op_result)
        if workload == "sweep_cof":
            return _check_sweep(workload, out_dir)
        return _check_roughness(out_dir, inputs["references"])
    except (OSError, ValueError, KeyError, TypeError):
        return total


def _check_run(out_dir: Path, op_result: dict) -> int:
    summary = _strict_json(out_dir / "summary.json")
    series = np.loadtxt(out_dir / "timeseries.csv", delimiter=",", skiprows=1, ndmin=2)
    ok = (
        bool(np.all(np.isfinite(series))) and series.shape[1] == 7
        and _finite_positive(summary["reported_torque"])
        and _finite_positive(summary["mean_speed"])
        and _finite_positive(summary["ideal_speed"])
        and summary["mean_speed"] < summary["ideal_speed"]
        and 0 <= op_result["energy_residual_frac"] < RESIDUAL_LIMIT
    )
    return 0 if ok else 1


def _check_sweep(workload: str, out_dir: Path) -> int:
    """Rows must be settled with finite positive torque and speed.

    ``sweep.csv`` has no ``ok`` column, so a failed row shows up as NaN.
    """
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    if lines[0].split(",")[:5] != ["param", "torque", "speed", "t_ss", "settled"]:
        raise ValueError("unexpected sweep.csv header")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    expected = operations(workload)
    if len(rows) != expected:
        return expected
    failed = sum(
        1 for r in rows
        if not (r["settled"] == "1" and _finite_positive(float(r["torque"]))
                and _finite_positive(float(r["speed"])))
    )
    peak = _strict_json(out_dir / "peak.json")
    svg_ok = (out_dir / "sweep.svg").read_text().startswith("<svg")
    peak_ok = ("error" not in peak and peak["unimodal"] is True
               and peak["boundary_maximum"] is False and 0.35 <= peak["param"] <= 0.45)
    return failed if (svg_ok and peak_ok) else expected


def _check_roughness(out_dir: Path, references: dict) -> int:
    report = _strict_json(out_dir / "report.json")
    by_label = {s.get("label"): s for s in report["samples"]}
    failed = sum(1 for name, ref in references.items()
                 if not params_match(by_label.get(name, {}), ref))
    mean_sa = float(np.mean([ref["Sa"] for ref in references.values()]))
    if not math.isclose(report["mean_Sa"], mean_sa, rel_tol=1e-8):
        return len(references)
    return failed
