"""Statistics and span arithmetic of the benchmark: pure functions on numbers and spans.

A span is a dict with ``id``, ``parent``, ``pid``, ``name``, ``layer``,
``t0`` and ``t1`` (seconds on the machine's monotonic clock, shared by all
processes), plus optional attributes such as ``steps``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import LAYERS

# The contact law proper; ``contact_angles`` is set-up geometry and not counted.
CONTACT_LAW = ("contact.evaluate_contact", "contact.modal_reaction",
               "contact.power_balance")
WAVE = ("wave.steady_wave_response", "wave.ideal_no_slip_speed", "wave.surface_state")
POST_PROCESSING = ("dynamics.detect_steady_state", "dynamics.envelope_average",
                   "dynamics.mean_speed")


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples above it.

    With n sorted samples that is the (n-10)-th smallest, at percentile
    100 (n-10)/n.  Fewer than 11 samples support no such percentile: None.
    """
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, float(sorted(values)[n - 11])


def _duration(span: dict) -> float:
    return span["t1"] - span["t0"]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def self_times(spans) -> dict[str, float]:
    """Span duration minus the part covered by its children in the same process.

    Children in other processes (pool workers) run concurrently and are
    not subtracted; see ``wall_breakdown`` for how they are accounted.
    """
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            children[parent["id"]].append(
                (max(s["t0"], parent["t0"]), min(s["t1"], parent["t1"])))
    return {s["id"]: _duration(s) - _covered(children[s["id"]]) for s in spans}


def pool_stats(sweep: dict, spans, jobs: int) -> dict:
    """Row count, busy fraction and dispatch time of one ``sweep.run_sweep`` span.

    The sweep's direct children are its rows' calls, in workers or in the
    sweep's own process.  ``busy_frac`` is their summed time over
    jobs x sweep wall; ``dispatch_s`` is the sweep wall minus the busiest
    process's summed time.
    """
    busy = defaultdict(float)
    rows = 0
    for s in spans:
        if s["parent"] == sweep["id"]:
            busy[s["pid"]] += _duration(s)
            rows += s["name"] == "runner.run_motor"
    wall = _duration(sweep)
    busiest = max(busy, key=busy.get) if busy else None
    return {
        "rows": rows,
        "busy_frac": sum(busy.values()) / (jobs * wall) if wall > 0 else 0.0,
        "dispatch_s": wall - (busy[busiest] if busiest is not None else 0.0),
        "busiest_pid": busiest,
        "busiest_s": busy[busiest] if busiest is not None else 0.0,
    }


def wall_breakdown(spans, owner_pid: int, wall: float, jobs: int) -> dict[str, float]:
    """Split one operation's wall time over the layers along its critical path.

    In the owning process every span contributes its self time.  A sweep's
    wait on its pool is split into the busiest worker's per-layer self
    times plus the rest (dispatch), which stays with ``sweep``.  What no
    top-level span covers is ``unattributed``.  The values sum to ``wall``.
    """
    st = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        if s["pid"] == owner_pid:
            out[s["layer"]] = out.get(s["layer"], 0.0) + st[s["id"]]
    for sweep in spans:
        if sweep["name"] != "sweep.run_sweep" or sweep["pid"] != owner_pid:
            continue
        pool = pool_stats(sweep, spans, jobs)
        worker = pool["busiest_pid"]
        if worker is None or worker == owner_pid:
            continue
        out["sweep"] -= pool["busiest_s"]
        for s in spans:
            if s["pid"] == worker:
                out[s["layer"]] = out.get(s["layer"], 0.0) + st[s["id"]]
    top = [(s["t0"], s["t1"]) for s in spans
           if s["pid"] == owner_pid and s["parent"] is None]
    out["unattributed"] = wall - _covered(top)
    return out


def layer_metrics(spans, owner_pid: int, wall: float, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation (times in s, counts exact)."""
    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum(_duration(s) for s in named(*names))

    st = self_times(spans)
    simulate = named("dynamics.simulate")
    steps = sum(s.get("steps", 0) for s in simulate)
    simulate_s = total("dynamics.simulate")
    residuals = [s["residual"] for s in simulate if s.get("residual") is not None]
    sweeps = [pool_stats(s, spans, jobs) for s in named("sweep.run_sweep")]
    out = {
        "trace.wall_s": wall,
        "trace.spans": len(spans),
        "dynamics.simulate_s": simulate_s,
        "dynamics.steps": steps,
        "dynamics.step_us": 1e6 * simulate_s / steps if steps else 0.0,
        "dynamics.post_s": total(*POST_PROCESSING),
        "dynamics.to_csv_s": total("dynamics.MotorTimeSeries.to_csv"),
        "dynamics.energy_residual_frac": max(residuals, default=0.0),
        "contact.calls": len(named(*CONTACT_LAW)),
        "contact.s": total(*CONTACT_LAW),
        "sweep.rows": sum(p["rows"] for p in sweeps),
        "sweep.busy_frac": median([p["busy_frac"] for p in sweeps]) if sweeps else 0.0,
        "sweep.dispatch_s": sum(p["dispatch_s"] for p in sweeps),
        "sweep.to_csv_s": total("sweep.SweepCurve.to_csv"),
        "runner.self_s": sum(st[s["id"]] for s in spans if s["layer"] == "runner"),
        "stator.build_s": total("runner.build_stator"),
        "stator.builds": len(named("runner.build_stator")),
        "wave.calls": len(named(*WAVE)),
        "wave.s": total(*WAVE),
        "plotting.svg_s": total("plotting.svg_line_chart"),
        "metrology.maps": len(named("metrology.load_height_map")),
        "metrology.load_s": total("metrology.load_height_map"),
        "metrology.level_s": total("metrology.level_mean_plane"),
        "metrology.params_s": total("metrology.areal_params"),
    }
    for layer, seconds in wall_breakdown(spans, owner_pid, wall, jobs).items():
        out[f"wall.{layer}_s"] = seconds
    return out


def run_durations(spans) -> list[float]:
    """Durations of every ``runner.run_motor`` call (one per run or sweep row)."""
    return [_duration(s) for s in spans if s["name"] == "runner.run_motor"]

