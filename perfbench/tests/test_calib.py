"""Timings are divided by the slowdown measured next to them."""

import pytest

from benchlib import calib, report
from benchlib.runner import Samples

from test_metrics import phase

REF = calib.REFERENCE_NS


def test_each_auth_gets_the_median_of_the_runs_centred_next_to_it(monkeypatch):
    monkeypatch.setattr(calib, "NEIGHBOURS", 3)
    # Kernel runs after 0, 10, 20, 30 and 40 timed auths.
    calib_ns = [1 * REF, 2 * REF, 6 * REF, 3 * REF, 4 * REF]
    calib_at = [0, 10, 20, 30, 40]
    got = calib.slowdowns(calib_ns, calib_at, 45)
    # Auths 0-9 come before the run at 10: runs 0-2, moved inwards.
    assert got[0] == got[9] == 2.0
    # Auths 10-19 sit between the runs at 10 and 20: runs 1-3.
    assert got[10] == got[19] == 3.0
    # Auths 20-29: runs 2-4.
    assert got[25] == 4.0
    # Past the last run the slice stays at the end: runs 2-4.
    assert got[44] == 4.0


def test_fewer_runs_than_neighbours_use_them_all_and_none_means_unscaled():
    assert calib.slowdowns([REF, 3 * REF], [0, 5], 3) == [2.0, 2.0, 2.0]
    assert calib.slowdowns([], [], 2) == [1.0, 1.0]
    assert calib.run_slowdown([]) == 1.0
    assert calib.run_slowdown([REF, 2 * REF, 4 * REF]) == 2.0


def test_each_enrollment_gets_the_kernel_run_just_before_it():
    assert calib.paired_slowdowns([REF, 3 * REF], 2) == [1.0, 3.0]
    assert calib.paired_slowdowns([], 2) == [1.0, 1.0]
    with pytest.raises(ValueError):
        calib.paired_slowdowns([REF], 2)


def test_metrics_are_divided_by_the_measured_slowdown():
    samples = Samples(
        auth_lat_ns=[10_000_000, 12_000_000], auth_cpu_ns=[8_000_000, 8_000_000],
        auth_rids=["a1", "a2"], enroll_lat_ns=[1_000_000_000],
        enroll_cpu_ns=[1_600_000_000], enroll_rids=["e1"],
        calib_ns=[2 * REF], calib_at=[0], enroll_calib_ns=[4 * REF],
        attempted=3,
    )
    metrics = report.end_to_end(phase(samples))
    assert metrics["auth_p50_ms"]["value"] == pytest.approx(5.5)
    assert metrics["auth_cpu_p50_ms"]["value"] == pytest.approx(4.0)
    # The enrollment uses the kernel run just before it.
    assert metrics["enroll_p50_ms"]["value"] == pytest.approx(250.0)
    assert metrics["enroll_cpu_p50_ms"]["value"] == pytest.approx(400.0)
    # Memory and set-up time are reported as measured.
    assert metrics["server_rss_mib"]["value"] == 1000.0
    assert metrics["setup_s"]["value"] == 15.0


def test_kernel_takes_time_and_is_repeatable_work():
    probe = calib.SpeedProbe()
    assert all(probe.measure() > 0 for _ in range(3))
