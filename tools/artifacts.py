"""Write every artifact the determinism contract covers under OUT_DIR.

    python3 tools/artifacts.py OUT_DIR

Each case runs ``twmotor`` in a fresh process against the source tree this
script sits in (its ``src/`` first on ``PYTHONPATH``), in a directory of
its own under OUT_DIR and with relative paths only, so no output names
OUT_DIR.  A case keeps its inputs, the files the command writes, and the
command's ``stdout``, ``stderr`` and ``exit`` code.  Two trees compare by
running the script from each and then ``diff -r`` on the two OUT_DIRs.
Only NumPy is needed besides the package, to write the seeded height maps.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"


def height_maps() -> dict[str, str]:
    """Two seeded 48 x 64 maps in um: white noise, and a sinusoid on a tilt."""
    rng = np.random.default_rng(27)
    y, x = np.mgrid[0:48, 0:64]
    maps = {"rough.csv": rng.normal(0.0, 0.3, (48, 64)),
            "tilted.csv": 0.01 * x - 0.02 * y + 0.5 * np.sin(2 * np.pi * x / 16)
            + rng.normal(0.0, 0.05, (48, 64))}
    return {name: "\n".join(",".join(f"{v:.17g}" for v in row) for row in z) + "\n"
            for name, z in maps.items()}


# case -> (command line, input files {name: text})
CASES = {
    "run": (["run"], {}),
    # channel B's forcing row at a phase whose cosine and sine are both nonzero;
    # 1 ms does not settle, so it exits 4
    "run_phase_60deg": (["run", "--phase", "60deg", "--duration", "1e-3"], {}),
    # 9.765625e-9 s puts exactly 1024 steps in a 10 us sample: the most a
    # sample interval may hold, one chunk each; 0.5 ms does not settle: exit 4
    "run_1024_steps_per_sample": (["run", "--config", "config.json", "--duration", "5e-4"],
                                  {"config.json": json.dumps(
                                      {"simulation": {"dt": 9.765625e-09}})}),
    # friction locks the wave and the default step chatters: it exits 0, settled,
    # and only the energy ledger's residual fraction (about 1.2) shows it
    "run_locked_50V_200N": (["run", "--voltage", "50", "--preload", "200"], {}),
    "sweep_cof": (["sweep", "--param", "cof", "--values", "0.3:0.5:0.1", "--plot"], {}),
    "sweep_preload_jobs2": (["sweep", "--param", "preload_N", "--values", "25:100:25",
                             "--jobs", "2", "--duration", "2e-3"], {}),
    # 41 steps per sample at 40.5 kHz, 42 at 41 and 41.5 kHz: two batches
    "sweep_frequency": (["sweep", "--param", "frequency", "--values", "40500:41500:500",
                         "--duration", "2e-3"], {}),
    "run_diverged": (["run", "--config", "config.json"],
                     {"config.json": json.dumps({"contact": {"penalty_stiffness": 1e13}})}),
    # no row settles in 0.5 ms, so there is no peak: exit 4
    "sweep_no_peak": (["sweep", "--param", "cof", "--values", "0.3:0.5:0.1",
                       "--duration", "5e-4"], {}),
    "sweep_cof_high": (["sweep", "--param", "cof", "--values", "1.5:2.5:0.5",
                        "--duration", "5e-4"], {}),
    # a preset's grid is its own; a --param or --values beside it is refused: exit 2
    "sweep_preset_with_param": (["sweep", "--preset", "cof_sweep", "--param", "voltage",
                                 "--values", "1:3:1", "--duration", "5e-4"], {}),
    "eigen": (["eigen"], {}),
    # a table of 5 modes ends below the n = 4 drive pair
    "eigen_few_modes": (["eigen", "--modes", "5"], {}),
    # small 2 pi n / N, where the pencils' last digits are hardest to get
    "eigen_fine_mesh": (["eigen", "--n-elements", "400", "--modes", "8"], {}),
    "validate_default": (["validate"], {}),
    # an n = 9 drive's 4.79 us period needs samples finer than the default 10 us
    "validate_n9": (["validate", "--config", "config.json"],
                    {"config.json": json.dumps({"geometry": {"drive_nodal_diameters": 9},
                                                "mesh": {"n_elements": 72},
                                                "simulation": {"output_interval": 2e-6}})}),
    "validate_n9_coarse_samples": (["validate", "--config", "config.json"],
                                   {"config.json": json.dumps(
                                       {"geometry": {"drive_nodal_diameters": 9},
                                        "mesh": {"n_elements": 72}})}),
    "validate_preload_ramp": (["validate", "--config", "config.json"],
                              {"config.json": json.dumps({"rotor": {"preload_ramp": 1e-4}})}),
    # finite moduli whose ring pencils overflow and underflow float64: exit 2
    "validate_modulus_1e200": (["validate", "--config", "config.json"],
                               {"config.json": json.dumps({"stator_material": {
                                   "name": "x", "density": 8960.0,
                                   "youngs_modulus": 1e200}})}),
    "validate_modulus_1e-300": (["validate", "--config", "config.json"],
                                {"config.json": json.dumps({"stator_material": {
                                    "name": "x", "density": 8960.0,
                                    "youngs_modulus": 1e-300}})}),
    # counts above the bounds a stator build and a run's sample buffer hold: exit 2
    "validate_n_elements_1048577": (["validate", "--config", "config.json"],
                                    {"config.json": json.dumps(
                                        {"mesh": {"n_elements": 2 ** 20 + 1}})}),
    "validate_duration_1e8": (["validate", "--config", "config.json"],
                              {"config.json": json.dumps({"simulation": {"duration": 1e8}})}),
    "validate_modes_0": (["validate", "--config", "config.json"],
                         {"config.json": json.dumps({"mesh": {"modes": 0}})}),
    # a contact ring of 1e8 points, above the 2^14 an interface holds: exit 2
    "validate_point_count_1e8": (["validate", "--config", "config.json"],
                                 {"config.json": json.dumps(
                                     {"contact": {"point_count": 10 ** 8}})}),
    # about 1e295 steps per sample, above the 1024 a sample interval holds: exit 2
    "validate_dt_1e-300": (["validate", "--config", "config.json"],
                           {"config.json": json.dumps({"simulation": {"dt": 1e-300}})}),
    "validate_missing_file": (["validate", "--config", "absent.json"], {}),
    "validate_invalid_json": (["validate", "--config", "config.json"],
                              {"config.json": '{"contact": {"cof": 0.3,}}'}),
    "validate_list_root": (["validate", "--config", "config.json"],
                           {"config.json": "[1, 2]"}),
    "validate_schema_version": (["validate", "--config", "config.json"],
                                {"config.json": json.dumps({"schema_version": 2})}),
    "roughness": (["roughness", "rough.csv", "tilted.csv", "--dx", "0.5", "--dy", "0.25",
                   "--out", "report.json"], height_maps()),
}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    out = Path(argv[0])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    for name, (command, inputs) in CASES.items():
        case = out / name
        case.mkdir(parents=True)
        for file, text in inputs.items():
            (case / file).write_text(text)
        done = subprocess.run([sys.executable, "-m", "twmotor.cli", *command], cwd=case,
                              env=env, capture_output=True, text=True)
        (case / "stdout").write_text(done.stdout)
        (case / "stderr").write_text(done.stderr)
        (case / "exit").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
