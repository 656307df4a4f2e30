"""One BLAS thread per engine call (``repro.blas``).

``repro serve`` runs OpenBLAS on one thread: its engine pool is the
server's parallelism, and the helper threads a ridge fit wakes would
busy-wait beside it. These tests pin the thread control itself, that an
enrollment under one thread leaves every other thread idle, and that it
trains bit-identical records.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.blas import blas_threads, set_blas_threads
from repro.core import EnrollmentOptions, P2Auth
from repro.core.packing import pack_authenticator
from repro.errors import ConfigurationError

from .conftest import FEATURES, PIN

needs_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="no OpenBLAS build is loaded"
)

#: Long enough for an OpenBLAS helper's busy-wait (about 0.1 s) to end.
SPIN_S = 0.2


def _other_threads_cpu_ns():
    """CPU (ns) of every thread of this process but the calling one."""
    me = threading.get_native_id()
    out = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == me:
            continue
        try:
            with open(f"/proc/self/task/{tid}/schedstat", encoding="ascii") as f:
                out[tid] = int(f.read().split()[0])
        except FileNotFoundError:  # the thread exited meanwhile
            continue
    return out


def _enroll(study_data, negative_bank):
    auth = P2Auth(
        pin=PIN,
        options=EnrollmentOptions(num_features=FEATURES),
        salt=bytes(16),
    )
    trials = study_data.trials(0, PIN, "one_handed", 7)
    return auth.enroll(trials, negative_bank)


def test_thread_count_below_one_rejected():
    with pytest.raises(ConfigurationError, match=">= 1"):
        set_blas_threads(0)


@needs_openblas
def test_set_round_trips_and_returns_previous(restore_blas_threads):
    previous = restore_blas_threads
    assert set_blas_threads(1) == previous
    assert blas_threads() == 1
    assert set_blas_threads(previous) == 1
    assert blas_threads() == previous


@needs_openblas
@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="needs per-thread /proc"
)
def test_enrollment_leaves_other_threads_idle(
    study_data, negative_bank, restore_blas_threads
):
    set_blas_threads(1)
    time.sleep(SPIN_S)  # helpers woken before the switch stop spinning
    before = _other_threads_cpu_ns()
    _enroll(study_data, negative_bank)
    time.sleep(SPIN_S)
    after = _other_threads_cpu_ns()
    spent_ms = sum(ns - before.get(tid, 0) for tid, ns in after.items()) / 1e6
    # At the default thread count the helpers burn about 145 ms here.
    assert spent_ms < 10.0


@needs_openblas
def test_one_thread_trains_the_same_record(
    study_data, negative_bank, restore_blas_threads
):
    default = _enroll(study_data, negative_bank)
    set_blas_threads(1)
    single = _enroll(study_data, negative_bank)
    assert (
        pack_authenticator(single, "float64").record
        == pack_authenticator(default, "float64").record
    )
