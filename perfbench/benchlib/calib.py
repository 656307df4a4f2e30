"""The guest's speed during a run, from a fixed calibration kernel.

The host slows this guest down in phases that last from seconds to
minutes, by up to half, and every timing the benchmark takes moves with
them. :class:`SpeedProbe` times a fixed piece of work in the client
between requests: a strided read over 32 MB, which depends on memory
bandwidth as the server's model reads do, and a few dilated
convolutions, which depend on the core as MiniRocket does. The kernel
belongs to the benchmark, so no change to the program moves it; only
the machine does.

Timings are divided by the slowdown measured next to them, which puts
them in milliseconds at the reference speed (:data:`REFERENCE_NS`).
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List, Sequence

import numpy as np

#: CPU time (ns) of one kernel run at the reference speed: its median
#: between requests on a 2-vCPU x86_64 KVM guest (Python 3.11, NumPy
#: 2.4). Each run starts cold there, as it does in every benchmark run.
REFERENCE_NS = 4_000_000

#: The client runs the kernel once this often during a timed window.
EVERY_S = 0.15

#: A timed auth is divided by the median slowdown of this many kernel
#: runs nearest to it, about one second of the window.
NEIGHBOURS = 5


class SpeedProbe:
    """The calibration kernel, on fixed inputs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._stream = rng.standard_normal(4_000_000)
        self._signal = rng.standard_normal(2000)
        self._taps = rng.standard_normal(9)

    def measure(self) -> int:
        """Run the kernel once; return its CPU time in ns."""
        t0 = time.thread_time_ns()
        total = float(self._stream[::2].sum())
        for dilation in (1, 2, 4, 8, 16, 32):
            taps = np.zeros(dilation * (len(self._taps) - 1) + 1)
            taps[::dilation] = self._taps
            total += float(np.convolve(self._signal, taps, mode="same").sum())
        elapsed = time.thread_time_ns() - t0
        if total != total:  # uses the result, so no step can be skipped
            raise FloatingPointError("calibration kernel produced NaN")
        return elapsed


def paired_slowdowns(calib_ns: Sequence[int], n: int) -> List[float]:
    """The slowdown of each of ``n`` timings that came with one kernel
    run each (the run just before a timed enrollment); 1.0 for all of
    them without any kernel run."""
    if not calib_ns:
        return [1.0] * n
    if len(calib_ns) != n:
        raise ValueError(f"{len(calib_ns)} kernel runs for {n} timings")
    return [v / REFERENCE_NS for v in calib_ns]


def run_slowdown(calib_ns: Sequence[int]) -> float:
    """The run's slowdown: median kernel time over the reference time.

    1.0 without any kernel run (a window with no successful request).
    """
    if not calib_ns:
        return 1.0
    return statistics.median(calib_ns) / REFERENCE_NS


def slowdowns(calib_ns: Sequence[int], calib_at: Sequence[int], n: int
              ) -> List[float]:
    """The slowdown next to each of ``n`` timed auths.

    Kernel run ``j`` came after ``calib_at[j]`` timed auths (sorted).
    Auth ``i`` gets the median over :data:`NEIGHBOURS` consecutive runs
    centred on the first run after it, moved inwards at either end of
    the window; with fewer runs than that, all of them.
    """
    if not calib_ns:
        return [1.0] * n
    k = min(NEIGHBOURS, len(calib_ns))
    out: List[float] = []
    for i in range(n):
        after = bisect.bisect_right(calib_at, i)
        lo = min(max(0, after - k // 2), len(calib_ns) - k)
        out.append(statistics.median(calib_ns[lo:lo + k]) / REFERENCE_NS)
    return out
