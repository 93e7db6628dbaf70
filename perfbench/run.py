"""twmotor benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is the workload's command
in a fresh process (op.py), run back to back, one at a time (a closed loop
with one client), until the next one would end after S seconds.  Before
them, a few processes stop just before the first pipeline call, to time
set-up.  Every operation's artifacts are checked.  All of them run pinned
to one CPU, which a speed probe (speed.py) samples meanwhile; the gated
times are at the probe's reference speed, and the raw ones are printed too.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` traced and untraced operations alternate; the traced
ones give the per-layer metrics and the untraced ones the tracing overhead.
The last line of standard output is the JSON result; the lines before it
print every metric with its unit, sample count and tail percentile, and
the environment.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import analysis
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "trace.wall_s": "s", "trace.overhead_frac": "fraction", "trace.spans": "count",
    **{f"wall.{layer}_s": "s" for layer in (*tracing.LAYERS, "unattributed")},
    "dynamics.simulate_s": "s", "dynamics.steps": "count", "dynamics.step_us": "us",
    "dynamics.post_s": "s", "dynamics.to_csv_s": "s",
    "dynamics.energy_residual_frac": "fraction",
    "contact.calls": "count", "contact.s": "s",
    "sweep.rows": "count", "sweep.busy_frac": "fraction", "sweep.dispatch_s": "s",
    "sweep.to_csv_s": "s",
    "runner.run_s": "s", "runner.run_s_n": "count", "runner.run_s_tail": "s",
    "runner.run_s_tail_pct": "percent", "runner.self_s": "s",
    "stator.build_s": "s", "stator.builds": "count",
    "wave.calls": "count", "wave.s": "s",
    "plotting.svg_s": "s",
    "metrology.maps": "count", "metrology.load_s": "s", "metrology.level_s": "s",
    "metrology.params_s": "s",
}

SETUP_PROBES = 5      # set-up-only processes per run, after one unmeasured warm-up
TIME_LIMIT_S = 170.0  # the whole run, inputs included, ends within this


def environment() -> dict:
    def package(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": package("numpy"),
        "scipy": package("scipy"),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "jobs": workloads.JOBS,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_op(workload: str, run_dir: Path, index: int, deadline: float,
           cpu: int, trace: bool = False, setup_only: bool = False) -> dict | None:
    """Run op.py once on ``cpu``; None if it failed or ran past the deadline."""
    out_dir = run_dir / f"op{index}"
    out_dir.mkdir()
    cmd = [sys.executable, str(HERE / "op.py"), workload, str(run_dir / "inputs"),
           str(out_dir), "--cpu", str(cpu)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(out_dir / "stderr.txt", "w") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            pass
        finally:
            # also reaps pool workers a crashed operation may have left behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    t_end = time.perf_counter()
    if proc.returncode != 0 or not (out_dir / "op.json").is_file():
        sys.stderr.write(f"operation {index} failed:\n{(out_dir / 'stderr.txt').read_text()}")
        return None
    result = json.loads((out_dir / "op.json").read_text())
    result["t_spawn"] = t_spawn
    result["setup_s"] = result["t_setup"] - t_spawn
    result["process_s"] = t_end - t_spawn
    if not setup_only:
        result["wall_s"] = result["t_done"] - result["t_setup"]
    result["out_dir"] = out_dir
    return result


def describe(name: str, values, unit: str) -> str:
    """Median, sample count and the tail percentile the sample supports."""
    line = f"{name:<22} {analysis.median(values):.6g} {unit}  median of n={len(values)}"
    tail = analysis.tail_percentile(values)
    if tail is None:
        return line + "; no tail percentile (needs n >= 11)"
    return line + f"; p{tail[0]:.3g} {tail[1]:.6g} {unit}"


def measure(args, run_dir: Path, inputs: dict, deadline: float) -> dict:
    """Set-up probes, then operations, with the CPU's speed sampled meanwhile."""
    cpu = speed.probe_cpu()
    with speed.SpeedProbe(cpu) as probe:
        m = run_ops(args, run_dir, inputs, deadline, cpu)
    for setup in m["setups"]:
        setup["scale"] = probe.scale(setup["t_spawn"], setup["t_setup"])
    for op in m["ops"]:
        op["scale"] = probe.scale(op["t_setup"], op["t_done"])
    m["probe_bursts"] = len(probe.samples)
    return m


def run_ops(args, run_dir: Path, inputs: dict, deadline: float, cpu: int) -> dict:
    """Set-up probes, then operations until the next would overrun ``seconds``."""
    index = 0
    setups = []
    for probe in range(SETUP_PROBES + 1):
        result = run_op(args.workload, run_dir, index, deadline, cpu, setup_only=True)
        index += 1
        if result is not None and probe > 0:
            setups.append(result)
    ops, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        result = run_op(args.workload, run_dir, index, deadline, cpu, trace=traced)
        index += 1
        attempted += workloads.operations(args.workload)
        if result is None:
            failed += workloads.operations(args.workload)
            break
        result["traced"] = traced
        failed += workloads.check(args.workload, result["out_dir"], result, inputs)
        ops.append(result)
        if not traced:
            setups.append(result)
        expected = analysis.median([op["process_s"] for op in ops])
        kinds = {op["traced"] for op in ops}
        if args.trace and len(kinds) < 2:
            continue
        now = time.perf_counter()
        if now - start + expected > args.seconds or now + expected > deadline:
            break
    return {"setups": setups, "ops": ops, "attempted": attempted, "failed": failed}


def end_to_end(m: dict) -> tuple[dict, dict]:
    """Samples of the gated metrics (times at reference speed), and the raw times."""
    ops = m["ops"]
    raw = {"setup_s": [s["setup_s"] for s in m["setups"]],
           "wall_s": [op["wall_s"] for op in ops], "cpu_s": [op["cpu_s"] for op in ops]}
    scales = {"setup_s": [s["scale"] for s in m["setups"]],
              "wall_s": [op["scale"] for op in ops], "cpu_s": [op["scale"] for op in ops]}
    gated = {name: [t * k for t, k in zip(raw[name], scales[name])] for name in raw}
    gated["peak_rss_mb"] = [op["peak_rss_mb"] for op in ops]
    return gated, raw


def per_layer(m: dict) -> tuple[dict, dict]:
    """Medians of the traced operations' layer metrics, and their samples.

    Times are at reference speed: each operation's spans are scaled by the
    speed the probe saw over the whole operation.
    """
    traced = [op for op in m["ops"] if op["traced"]]
    untraced = [op for op in m["ops"] if not op["traced"]]
    samples: dict[str, list[float]] = {"runner.run_s": []}
    for op in traced:
        spans = tracing.load_spans(op["out_dir"])
        metrics = analysis.layer_metrics(spans, op["pid"], op["wall_s"], workloads.JOBS)
        for name, value in metrics.items():
            if PER_LAYER.get(name) in ("s", "us"):
                value *= op["scale"]
            samples.setdefault(name, []).append(value)
        samples["runner.run_s"] += [t * op["scale"] for t in analysis.run_durations(spans)]
    runs = samples["runner.run_s"]
    out = {name: analysis.median(values) for name, values in samples.items() if values}
    untraced_wall = analysis.median([op["wall_s"] * op["scale"] for op in untraced])
    out["trace.overhead_frac"] = out["trace.wall_s"] / untraced_wall - 1.0
    tail = analysis.tail_percentile(runs) or (0.0, 0.0)
    out.update({"runner.run_s": analysis.median(runs) if runs else 0.0,
                "runner.run_s_n": len(runs),
                "runner.run_s_tail_pct": tail[0], "runner.run_s_tail": tail[1]})
    return out, samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "twmotor" / "__init__.py").is_file():
        print(f"error: no twmotor sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + TIME_LIMIT_S
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, run_dir / "inputs")
        m = measure(args, run_dir, inputs, deadline)
        if not m["ops"] or not m["setups"]:
            print("error: no operation completed", file=sys.stderr)
            return 1
        if args.trace and not any(op["traced"] for op in m["ops"]):
            print("error: no traced operation completed", file=sys.stderr)
            return 1
        env = environment()
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
              f"trace {args.trace}  operations {m['attempted']}")
        if args.trace:
            values, samples = per_layer(m)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in PER_LAYER.items()}
            for name, unit in PER_LAYER.items():
                print(f"{name:<30} {values[name]:.6g} {unit}")
            if samples["runner.run_s"]:
                print(describe("runner.run_s per call", samples["runner.run_s"], "s"))
        else:
            samples, raw = end_to_end(m)
            metrics = {name: {"value": analysis.median(samples[name]), "unit": unit}
                       for name, unit in END_TO_END.items()}
            for name, unit in END_TO_END.items():
                print(describe(name, samples[name], unit))
            for name, values in raw.items():
                print(describe(f"{name} (raw)", values, "s"))
            samples = {**samples, **{f"raw.{name}": v for name, v in raw.items()}}
            print(f"speed probe: {m['probe_bursts']} bursts on CPU {speed.probe_cpu()}, "
                  f"reference burst {speed.REFERENCE_BURST_S:g} s")
            if args.workload == "run_default":
                print(describe("energy_residual_frac",
                               [op["energy_residual_frac"] for op in m["ops"]], "fraction"))
        print(f"failed_frac            {m['failed'] / m['attempted']:.6g} "
              f"({m['failed']} of {m['attempted']} operations)")
        print("env " + json.dumps(env, sort_keys=True))
        result = {"correct": m["failed"] == 0, "attempted": m["attempted"],
                  "failed": m["failed"], "metrics": metrics}
        with open(WORK / "results.jsonl", "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "env": env, "samples": samples, **result}) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
