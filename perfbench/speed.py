"""The speed of the CPU the operations run on, sampled while they run.

On a VM whose host is shared with other tenants, a vCPU's speed depends on
what the neighbours do on the same physical core.  On the 2-vCPU reference
VM a fixed piece of work takes up to 1.7x longer from one second to the
next, sometimes for a minute at a time, and the two vCPUs change
independently.  So the operations and a probe are pinned to one CPU, and
every operation time is also given at a fixed reference speed.  The work a
CPU does in an interval is the integral of its speed, and the probe samples
that speed at even steps, so the time at reference speed is the measured
time times the mean of ``REFERENCE_BURST_S / burst`` over the bursts that
ran meanwhile.  That figure moves with the program and hardly with the
neighbours: on the reference VM, raw times of ``run_default`` vary as the
-1.04 power of that mean speed (correlation 0.99), and their spread across
operations drops from 13% to 1.3%.

``SpeedProbe`` is a thread of the benchmark process, pinned to that CPU.
Every ``INTERVAL_S`` it times one fixed burst of work: small NumPy ufuncs
and interpreter arithmetic, the mix of twmotor's step loop.  The burst
takes about 2% of the CPU from the operation it shares the CPU with.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time

import numpy as np

# About the burst's time on the reference VM while its neighbours are quiet.
REFERENCE_BURST_S = 0.0005
INTERVAL_S = 0.02

_X0 = np.linspace(-1.0, 1.0, 128)


def burst() -> float:
    """A fixed piece of work (about 0.5 ms on the reference VM)."""
    x = _X0
    acc = 0
    for i in range(150):
        x = np.sin(x) * 0.5 + _X0
        acc += i * i % 7
    return float(x[0]) + acc


def probe_cpu() -> int:
    """The CPU the probe and the operations share: the highest one usable."""
    return max(os.sched_getaffinity(0))


class SpeedProbe:
    """Times ``burst`` every ``INTERVAL_S`` on one CPU until stopped.

    ``samples`` holds (start, duration) pairs in start order, on the
    monotonic clock that all processes of the machine share.
    """

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while not self._stop.is_set():
            t0 = time.perf_counter()
            burst()
            self.samples.append((t0, time.perf_counter() - t0))
            self._stop.wait(INTERVAL_S)

    def scale(self, t0: float, t1: float) -> float:
        return speed_scale(self.samples, t0, t1)


def speed_scale(samples, t0: float, t1: float) -> float:
    """Mean speed, in reference units, of the bursts that started in [t0, t1].

    A burst's speed is ``REFERENCE_BURST_S`` over its duration.  With no
    burst in the interval, the burst that started nearest to its middle
    stands in.  Times multiplied by the result are at reference speed.
    """
    starts = [s for s, _ in samples]
    lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
    durations = [d for _, d in samples[lo:hi]]
    if not durations:
        mid = 0.5 * (t0 + t1)
        durations = [min(samples, key=lambda s: abs(s[0] - mid))[1]]
    return statistics.fmean(REFERENCE_BURST_S / d for d in durations)
