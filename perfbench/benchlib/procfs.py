"""Readings taken from ``/proc``, outside the process being measured.

- :class:`ThreadCpu` sums the on-CPU time of every thread of a process
  from ``/proc/<pid>/task/<tid>/schedstat``. The first field there is
  the scheduler's runtime in nanoseconds; with paravirtual steal
  accounting it excludes time the hypervisor took, which is why the
  benchmark gates on it rather than on wall time alone.
- :func:`peak_rss_mib` reads ``VmHWM`` from ``/proc/<pid>/status``.
- :class:`StealMeter` reads the machine-wide steal share from
  ``/proc/stat`` over an interval (a diagnostic, never gated).
"""

from __future__ import annotations

import os
import time
from typing import Dict, Mapping, Tuple


class ThreadCpu:
    """Per-thread CPU snapshots of one process.

    Thread ids are listed afresh on every snapshot, so threads the
    process starts mid-run (its engine pool spawns workers lazily) are
    picked up.
    """

    def __init__(self, pid: int) -> None:
        self._task_dir = f"/proc/{pid}/task"

    def snapshot(self) -> Dict[str, int]:
        """Runtime in ns of each live thread, keyed by thread id."""
        out: Dict[str, int] = {}
        for tid in os.listdir(self._task_dir):
            try:
                with open(f"{self._task_dir}/{tid}/schedstat", "rb") as handle:
                    data = handle.read()
            except (FileNotFoundError, ProcessLookupError):
                continue  # the thread exited after listdir
            if data:
                out[tid] = int(data.split(None, 1)[0])
        return out


def cpu_delta_ns(before: Mapping[str, int], after: Mapping[str, int]) -> int:
    """CPU the process used between two :meth:`ThreadCpu.snapshot` calls.

    A thread absent from ``before`` started in between, so all of its
    runtime belongs to the interval. A thread absent from ``after``
    exited in between; its last slice is lost rather than subtracted.
    """
    return sum(ns - before.get(tid, 0) for tid, ns in after.items())


#: :func:`settle` polls every ``IDLE_POLL_S`` seconds, calls the process
#: idle once it used under ``IDLE_SHARE`` of one core over a poll, and
#: gives up waiting after ``IDLE_LIMIT_S`` seconds.
IDLE_POLL_S = 0.02
IDLE_SHARE = 0.05
IDLE_LIMIT_S = 2.0


def settle(cpu: ThreadCpu, since: Mapping[str, int]) -> int:
    """Wait until the process is idle; return its CPU (ns) since ``since``.

    After training, BLAS worker threads keep spinning for a while; this
    charges that tail to the request that caused it instead of to the
    requests that follow.
    """
    last = dict(since)
    deadline = time.monotonic() + IDLE_LIMIT_S
    while time.monotonic() < deadline:
        time.sleep(IDLE_POLL_S)
        now = cpu.snapshot()
        busy = cpu_delta_ns(last, now)
        last = now
        if busy < IDLE_SHARE * IDLE_POLL_S * 1e9:
            break
    return cpu_delta_ns(since, last)


def peak_rss_mib(pid: int) -> float:
    """The process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def _cpu_times() -> Tuple[int, int]:
    """(steal, total) jiffies summed over all CPUs."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    values = [int(v) for v in fields[1:9]]  # user .. steal
    return values[7], sum(values)


class StealMeter:
    """Share of all CPU time the hypervisor stole over an interval."""

    def __init__(self) -> None:
        self._start = _cpu_times()

    def share(self) -> float:
        steal, total = _cpu_times()
        d_total = total - self._start[1]
        return (steal - self._start[0]) / d_total if d_total > 0 else 0.0
