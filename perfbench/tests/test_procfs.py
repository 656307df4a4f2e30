"""Per-request CPU from schedstat, including threads spawned mid-request."""

import os
import threading
import time

from benchlib.procfs import StealMeter, ThreadCpu, cpu_delta_ns, peak_rss_mib


def burn(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_delta_counts_new_threads_whole_and_drops_vanished_ones():
    before = {"1": 100, "2": 500}
    after = {"1": 160, "3": 40}  # 2 exited, 3 started in between
    assert cpu_delta_ns(before, after) == 60 + 40


def test_thread_spawned_mid_window_is_counted():
    cpu = ThreadCpu(os.getpid())
    release = threading.Event()
    busy = threading.Event()

    def worker():
        burn(0.05)
        busy.set()
        release.wait(timeout=10)

    try:
        before = cpu.snapshot()
        thread = threading.Thread(target=worker)
        thread.start()  # a lazily started pool worker, in effect
        assert busy.wait(timeout=10)
        after = cpu.snapshot()
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    new = set(after) - set(before)
    assert new, "the new thread was not listed"
    assert cpu_delta_ns(before, after) >= 40_000_000
    assert sum(after[t] for t in new) >= 40_000_000


def test_peak_rss_and_steal_read():
    assert peak_rss_mib(os.getpid()) > 1.0
    assert 0.0 <= StealMeter().share() <= 1.0
