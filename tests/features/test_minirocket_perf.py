"""Tier-1-safe performance smoke tests for MiniRocket.

The transform test uses the reference-loop budget recorded in
``BENCH_minirocket.json`` (committed by ``scripts/bench_transform.py``)
as a machine-independent yardstick: the production transform path must
finish the same smoke case well inside that budget, re-measured
locally, so a regression that reintroduces per-kernel Python looping
fails loudly while slow CI machines do not. It skips when the benchmark
file is missing.

The fit test scales itself the same way, against the same fit with its
bias quantiles taken by a per-kernel ``np.quantile`` loop.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from repro.features import minirocket as mr
from repro.features.minirocket import MiniRocket

from .conftest import flat_biases

_BENCH = Path(__file__).resolve().parents[2] / "BENCH_minirocket.json"


@pytest.mark.skipif(not _BENCH.exists(), reason="BENCH_minirocket.json missing")
def test_default_transform_beats_reference_budget():
    report = json.loads(_BENCH.read_text())
    case = next(c for c in report["cases"] if c["case"] == "smoke-1ch")

    rng = np.random.default_rng(42)
    x = rng.normal(size=(case["n_instances"], case["n_channels"], case["length"]))

    rocket = MiniRocket(num_features=840, seed=0).fit(x)
    rocket.transform(x)  # warm up (possible one-time C compile)

    # Budget: the *local* reference loop, so slow machines self-scale.
    start = time.perf_counter()
    rocket._transform_reference(x)
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    rocket.transform(x)
    default_s = time.perf_counter() - start

    # The recorded run showed the default path 5x+ faster than the
    # loop; 3x of the reference budget leaves huge headroom for timer
    # noise while still catching a fallback to per-kernel looping.
    assert default_s <= 3.0 * max(reference_s, case["transform"]["reference"]["best_s"])


def _best_fit_s(x, repeats=3):
    """Best wall time of ``repeats`` 9996-feature fits, and the last fit."""
    best = math.inf
    for _ in range(repeats):
        rocket = MiniRocket(num_features=9996, seed=0)
        start = time.perf_counter()
        rocket.fit(x)
        best = min(best, time.perf_counter() - start)
    return best, rocket


def test_fit_beats_a_per_kernel_quantile_loop(monkeypatch):
    # Full-waveform extractors are fitted on 4 x 480 windows, the shape
    # where the bias quantiles are most of a fit.
    x = np.random.default_rng(42).normal(size=(1, 4, 480))
    fit_s, rocket = _best_fit_s(x)

    def per_kernel(rows, q):
        return np.array([np.quantile(row, qk) for row, qk in zip(rows, q)])

    monkeypatch.setattr(mr, "_row_quantiles", per_kernel)
    loop_s, loop = _best_fit_s(x)

    np.testing.assert_array_equal(
        flat_biases(rocket._biases), flat_biases(loop._biases)
    )
    # Recorded on a 2-vCPU x86_64 guest: one sort per (channel,
    # dilation) 19.5 ms, the per-kernel loop 276 ms, and the 84x
    # quantile grid that fit used before about 420 ms; 5x catches a
    # return to either.
    assert 5.0 * fit_s <= loop_s
