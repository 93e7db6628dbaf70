"""Spans around twmotor's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules, and
every public method of their classes, by a wrapper that records a span:
name, layer, pid, start, end and the span that was open when it started.
A function is replaced in every module that binds it, because callers look
it up there (``sweep`` calls ``runner.run_motor``; ``cli`` calls its own
``svg_line_chart``).  One wrapper serves all bindings of a function, so
pickling it by name for a process pool still works.

Pool workers are forked from the traced process and inherit the wrappers.
A worker's first span drops the spans it inherited, and takes the span open
at the fork as its parent.  Workers leave through ``os._exit``, which skips
``atexit``, so a worker appends its spans to ``spans-<pid>.jsonl`` each time
its outermost span (one sweep row) closes.  The traced process itself calls
``flush`` once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import time
from pathlib import Path

LAYERS = ("config", "materials", "stator", "wave", "contact", "dynamics",
          "runner", "sweep", "plotting", "metrology", "cli")


def _simulate_attrs(bound: dict, series) -> dict:
    """Step count and energy residual of one ``dynamics.simulate`` call.

    The steps per output sample repeat the step rule of ``simulate``: the
    nominal step 1/(400 f_drive), or ``dt``, snapped to a divider of the
    output interval.
    """
    stator, drive, dt = bound["stator"], bound["drive"], bound["dt"]
    f_drive = drive.resolve_frequency(stator.pairs[0])
    nominal = dt if dt is not None else 1.0 / (400.0 * f_drive)
    per_sample = max(1, math.ceil(bound["output_interval"] / nominal))
    energy = series.energy
    return {"steps": (len(series.time) - 1) * per_sample,
            "residual": energy.residual_fraction if energy is not None else None}


class Tracer:
    """Collects spans in memory; workers flush per row, the owner at the end."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.owner_pid = self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.fork_parent: str | None = None
        self.count = 0

    def install(self) -> None:
        modules = [importlib.import_module(f"twmotor.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("twmotor."):
                    if id(obj) not in wrappers:
                        layer = obj.__module__.rsplit(".", 1)[1]
                        wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
                    setattr(module, name, wrappers[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    layer = module.__name__.rsplit(".", 1)[1]
                    for mname, method in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(method):
                            setattr(obj, mname, self._wrap(
                                method, f"{layer}.{obj.__name__}.{mname}", layer))

    def _wrap(self, fn, name: str, layer: str):
        signature = inspect.signature(fn) if name == "dynamics.simulate" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["t1"] = time.perf_counter()
                span["error"] = True
                self._close(span)
                raise
            span["t1"] = time.perf_counter()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(_simulate_attrs(bound.arguments, result))
            self._close(span)
            return result

        return traced

    def _open(self, name: str, layer: str) -> dict:
        pid = os.getpid()
        if pid != self.pid:  # first span in a forked worker
            self.fork_parent = self.stack[-1]["id"] if self.stack else None
            self.pid, self.spans, self.stack = pid, [], []
        self.count += 1
        parent = self.stack[-1]["id"] if self.stack else self.fork_parent
        span = {"id": f"{pid}:{self.count}", "parent": parent, "pid": pid,
                "name": name, "layer": layer, "t0": time.perf_counter()}
        self.stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        self.stack.pop()
        self.spans.append(span)
        if not self.stack and self.pid != self.owner_pid:
            self.flush()

    def flush(self) -> None:
        """Append the spans held in memory to this process's file."""
        if not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in self.spans)
        self.spans = []


def load_spans(out_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        spans.extend(json.loads(line) for line in path.read_text().splitlines())
    return spans
