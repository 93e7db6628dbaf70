"""One operation of a workload, in a fresh process, the way a user's command runs.

    python3 perfbench/op.py WORKLOAD INPUT_DIR OUT_DIR [--cpu N] [--trace] [--setup-only]

Imports the package as the ``twmotor`` console script does, then runs the
workload's pipeline and leaves its artifacts in OUT_DIR.  It writes
OUT_DIR/op.json with clock stamps on the shared monotonic clock
(``t_setup`` just before the first pipeline call, ``t_done`` once every
artifact is written), the CPU seconds of this process and its pool
workers between the two, and the peak resident set of the largest of them.
``--cpu`` pins the process, and any worker it forks, to CPU N before it
imports anything; ``--setup-only`` stops at ``t_setup``; ``--trace``
records spans into OUT_DIR (see tracing.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("input_dir", type=Path)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from twmotor import cli, runner
    from twmotor.config import RunConfig

    import workloads

    if args.trace:
        from tracing import Tracer
        tracer = Tracer(args.out_dir)
        tracer.install()
    if args.workload == "run_default":
        config = RunConfig()
    else:
        argv = workloads.command_argv(args.workload, args.input_dir, args.out_dir)

    t_setup = time.perf_counter()
    cpu_setup = _cpu(resource.getrusage(resource.RUSAGE_SELF))
    result = {"pid": os.getpid(), "t_setup": t_setup}
    if not args.setup_only:
        if args.workload == "run_default":
            # what `twmotor run` does, keeping the energy ledger it drops
            series, summary = runner.run_motor(config)
            series.to_csv(args.out_dir / "timeseries.csv")
            text = json.dumps(summary, indent=2, sort_keys=True)
            (args.out_dir / "summary.json").write_text(text + "\n")
            print(text)
            result["energy_residual_frac"] = series.energy.residual_fraction
        else:
            result["exit_code"] = cli.main(argv)
        result["t_done"] = time.perf_counter()
        own = resource.getrusage(resource.RUSAGE_SELF)
        workers = resource.getrusage(resource.RUSAGE_CHILDREN)
        result["cpu_s"] = _cpu(own) - cpu_setup + _cpu(workers)
        result["peak_rss_mb"] = max(own.ru_maxrss, workers.ru_maxrss) / 1024.0
    if args.trace:
        tracer.flush()
    (args.out_dir / "op.json").write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
