"""Perf-regression smoke test for registry storage at scale.

Runs the same harness as ``scripts/bench_registry.py`` under
pytest-benchmark: packed record sizes per dtype, quantization parity on
the probe battery, cold loads, and Zipf thread-thrash through
``ModelRegistry`` over a ``ShardedPackedBackend``. The asserted floors
are deliberately far below the measured numbers (cold p99 well under
100 ms, thousands of gets/sec) so the test flags genuine regressions,
not CI noise — while the decision-parity flags must hold exactly at
any scale.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

from .conftest import run_once

_SCRIPT = (
    Path(__file__).resolve().parent.parent / "scripts" / "bench_registry.py"
)
_spec = importlib.util.spec_from_file_location("bench_registry", _SCRIPT)
bench_registry = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_registry)


def _is_smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "smoke"


def _params():
    if _is_smoke():
        return dict(users=200, features=840, size_features=840,
                    n_templates=2, n_loads=25, capacity=64, threads=4,
                    ops_per_thread=100, n_jobs=1)
    return dict(users=10_000, features=840, size_features=9996,
                n_templates=4, n_loads=100, capacity=256, threads=8,
                ops_per_thread=1000, n_jobs=None)


def test_registry_storage_scale(benchmark, report):
    result = run_once(benchmark, bench_registry.run, **_params())

    size = result["size"]
    thrash = result["thrash"]
    report(
        "registry — "
        f"packed f32 {size['packed']['float32']['record_bytes_per_user']} "
        f"B/user | cold p99 {result['cold_load']['p99_ms']:.2f} ms | "
        f"{thrash['gets_per_sec']:.0f} gets/s @ {thrash['n_users']} users "
        f"(hit rate {thrash['hit_rate']:.3f})"
    )

    # Parity is non-negotiable at any scale: float64 packing must be
    # bit-exact, and every quantized dtype must reproduce the battery's
    # accept/reject decisions.
    parity = result["parity"]["dtypes"]
    assert parity["float64"]["scores_bit_exact"]
    for dtype in ("float64", "float32", "float16"):
        assert parity[dtype]["decisions_match"], dtype
    # Documented score-tolerance bounds (docs/performance.md).
    assert parity["float32"]["max_abs_score_delta"] <= 1e-6
    assert parity["float16"]["max_abs_score_delta"] <= 1e-2

    # Each quantization step must actually shrink the record.
    packed = size["packed"]
    assert packed["float16"]["record_bytes_per_user"] < packed["float32"]["record_bytes_per_user"]
    assert packed["float32"]["record_bytes_per_user"] < packed["float64"]["record_bytes_per_user"]

    # Cold-load and throughput floors, kept loose against shared-runner
    # noise; the committed full-mode BENCH_registry.json holds the real
    # numbers (packed p99 in the low milliseconds, >1k gets/sec).
    assert result["cold_load"]["p99_ms"] <= 500.0
    assert thrash["gets_per_sec"] >= 50.0
    assert thrash["evictions"] > 0  # capacity < population: LRU engaged
    assert 0.0 < thrash["hit_rate"] < 1.0
