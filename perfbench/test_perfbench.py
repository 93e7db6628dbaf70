"""Tests of the benchmark's own helpers: statistics, span arithmetic, tracer, inputs, speed probe."""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import analysis
import run
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def span(sid, parent, pid, name, t0, t1, **attrs):
    layer = name.split(".")[0]
    return {"id": sid, "parent": parent, "pid": pid, "name": name, "layer": layer,
            "t0": t0, "t1": t1, **attrs}


class TestTailPercentile:
    def test_needs_eleven_samples(self):
        assert analysis.tail_percentile(list(range(10))) is None

    def test_eleven_samples_give_the_smallest(self):
        pct, value = analysis.tail_percentile([float(v) for v in range(11, 0, -1)])
        assert pct == pytest.approx(100.0 / 11)
        assert value == 1.0

    def test_hundred_samples_give_p90(self):
        values = list(np.random.default_rng(0).permutation(np.arange(1.0, 101.0)))
        pct, value = analysis.tail_percentile(values)
        assert pct == 90.0
        assert value == 90.0
        assert sum(v > value for v in values) == 10


class TestSelfTime:
    def test_overlapping_children_are_subtracted_once(self):
        spans = [span("1:1", None, 1, "cli.main", 0.0, 10.0),
                 span("1:2", "1:1", 1, "sweep.a", 1.0, 3.0),
                 span("1:3", "1:1", 1, "sweep.b", 2.0, 5.0),
                 span("1:4", "1:1", 1, "plotting.c", 6.0, 7.0)]
        st = analysis.self_times(spans)
        assert st["1:1"] == pytest.approx(10.0 - 4.0 - 1.0)
        assert st["1:3"] == pytest.approx(3.0)

    def test_children_in_other_processes_are_not_subtracted(self):
        spans = [span("1:1", None, 1, "sweep.run_sweep", 0.0, 10.0),
                 span("2:1", "1:1", 2, "runner.run_motor", 1.0, 9.0)]
        assert analysis.self_times(spans)["1:1"] == pytest.approx(10.0)


def sweep_spans():
    """A 3-row sweep on 2 workers inside cli.main, 0..12 s."""
    return [
        span("1:1", None, 1, "cli.main", 0.0, 12.0),
        span("1:2", "1:1", 1, "sweep.run_sweep", 1.0, 11.0),
        span("1:3", "1:1", 1, "plotting.svg_line_chart", 11.0, 11.5),
        span("2:1", "1:2", 2, "runner.run_motor", 1.5, 5.5),
        span("2:2", "2:1", 2, "dynamics.simulate", 1.6, 5.0, steps=1000),
        span("2:3", "1:2", 2, "runner.run_motor", 5.5, 10.5),
        span("2:4", "2:3", 2, "dynamics.simulate", 5.6, 10.0, steps=1000),
        span("3:1", "1:2", 3, "runner.run_motor", 2.0, 9.0),
        span("3:2", "3:1", 3, "dynamics.simulate", 2.1, 8.5, steps=1000),
    ]


class TestPoolStats:
    def test_busy_frac_and_dispatch(self):
        spans = sweep_spans()
        stats = analysis.pool_stats(spans[1], spans, jobs=2)
        assert stats["rows"] == 3
        assert stats["busy_frac"] == pytest.approx((4.0 + 5.0 + 7.0) / (2 * 10.0))
        assert stats["dispatch_s"] == pytest.approx(10.0 - 9.0)
        assert stats["busiest_pid"] == 2

    def test_rows_in_the_sweep_process(self):
        spans = [span("1:1", None, 1, "sweep.run_sweep", 0.0, 10.0),
                 span("1:2", "1:1", 1, "runner.run_motor", 0.5, 4.5),
                 span("1:3", "1:1", 1, "runner.run_motor", 4.5, 9.5)]
        stats = analysis.pool_stats(spans[0], spans, jobs=1)
        assert stats["rows"] == 2
        assert stats["busy_frac"] == pytest.approx(0.9)
        assert stats["dispatch_s"] == pytest.approx(1.0)


class TestWallBreakdown:
    def test_layers_and_remainder_sum_to_wall(self):
        spans = sweep_spans()
        out = analysis.wall_breakdown(spans, owner_pid=1, wall=12.5, jobs=2)
        assert out["unattributed"] == pytest.approx(0.5)
        assert out["sweep"] == pytest.approx(1.0)        # dispatch only
        assert out["dynamics"] == pytest.approx(3.4 + 4.4)  # busiest worker
        assert out["runner"] == pytest.approx(9.0 - 7.8)
        assert out["cli"] == pytest.approx(12.0 - 10.0 - 0.5)
        assert sum(out.values()) == pytest.approx(12.5)

    def test_layer_metrics(self):
        m = analysis.layer_metrics(sweep_spans(), owner_pid=1, wall=12.5, jobs=2)
        assert m["dynamics.steps"] == 3000
        assert m["dynamics.simulate_s"] == pytest.approx(3.4 + 4.4 + 6.4)
        assert m["dynamics.step_us"] == pytest.approx(1e6 * 14.2 / 3000)
        assert m["sweep.rows"] == 3
        assert m["contact.calls"] == 0
        assert m["plotting.svg_s"] == pytest.approx(0.5)
        assert m["wall.unattributed_s"] == pytest.approx(0.5)


class TestTracer:
    def test_nesting(self, tmp_path):
        tracer = tracing.Tracer(tmp_path)
        traced_inner = tracer._wrap(lambda: 1, "runner.inner", "runner")
        traced_outer = tracer._wrap(lambda: traced_inner() + 1, "sweep.outer", "sweep")
        assert traced_outer() == 2
        assert [s["name"] for s in tracer.spans] == ["runner.inner", "sweep.outer"]
        assert tracer.spans[0]["parent"] == tracer.spans[1]["id"]
        assert not list(tmp_path.iterdir())  # the owner flushes only when asked

    def test_forked_worker_flushes_each_row(self, tmp_path, monkeypatch):
        tracer = tracing.Tracer(tmp_path)
        row = tracer._wrap(lambda: None, "runner.run_motor", "runner")
        sweep = tracer._open("sweep.run_sweep", "sweep")  # open when the pool forks
        monkeypatch.setattr(tracing.os, "getpid", lambda: 999_999)
        row()
        assert [s["name"] for s in tracing.load_spans(tmp_path)] == ["runner.run_motor"]
        row()
        flushed = tracing.load_spans(tmp_path)
        assert len(flushed) == 2
        assert {s["pid"] for s in flushed} == {999_999}
        assert {s["parent"] for s in flushed} == {sweep["id"]}


class TestInputs:
    def test_same_seed_same_map(self):
        a = workloads.synthetic_height_map(np.random.default_rng(7), 8, 9, 1.25)
        b = workloads.synthetic_height_map(np.random.default_rng(7), 8, 9, 1.25)
        assert np.array_equal(a, b)

    def test_reference_matches_the_program(self, tmp_path):
        from twmotor import metrology

        z = workloads.synthetic_height_map(np.random.default_rng(3), 48, 64, 1.25)
        path = tmp_path / "map.csv"
        workloads.write_height_csv(path, z)
        hmap = metrology.load_height_map(path, dx=1.25, dy=1.25)
        assert np.array_equal(hmap.heights, z)
        got = metrology.areal_params(metrology.level_mean_plane(hmap)).to_dict()
        ref = workloads.reference_params(z, 1.25, 1.25)
        assert workloads.params_match(got, ref)
        assert not workloads.params_match({**got, "Sku": got["Sku"] * 1.001}, ref)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TestSpeedScale:
    def test_mean_speed_of_the_bursts_inside(self):
        ref = speed.REFERENCE_BURST_S
        samples = [(0.0, ref), (1.0, ref / 2), (2.0, ref * 2), (3.0, ref * 4)]
        assert speed.speed_scale(samples, 0.5, 2.5) == pytest.approx((2.0 + 0.5) / 2)
        assert speed.speed_scale(samples, 0.0, 3.0) == pytest.approx(
            (1.0 + 2.0 + 0.5 + 0.25) / 4)

    def test_nearest_burst_stands_in(self):
        ref = speed.REFERENCE_BURST_S
        samples = [(0.0, ref), (1.0, ref / 2)]
        assert speed.speed_scale(samples, 0.7, 0.8) == pytest.approx(2.0)

    def test_probe_samples_its_cpu(self):
        with speed.SpeedProbe(speed.probe_cpu()) as probe:
            deadline = time.perf_counter() + 5.0
            while len(probe.samples) < 2 and time.perf_counter() < deadline:
                time.sleep(0.01)
        count = len(probe.samples)
        assert count >= 2
        starts = [t for t, _ in probe.samples]
        assert starts == sorted(starts)
        assert all(d > 0 for _, d in probe.samples)
        time.sleep(0.05)
        assert len(probe.samples) == count  # stopped
