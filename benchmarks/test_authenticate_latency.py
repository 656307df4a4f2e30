"""Perf-regression smoke test for single-probe authentication.

Runs the same harness as ``scripts/bench_authenticate.py`` under
pytest-benchmark: warm ``auth.authenticate`` latency over repeated
calls, and the cold first call. The asserted floor is deliberately far
above the measured number (about 3 ms p50 in full mode on an idle
core) so the test flags genuine regressions, not CI noise — and the
parity flags must hold exactly at any scale.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

from .conftest import run_once

_SCRIPT = (
    Path(__file__).resolve().parent.parent / "scripts" / "bench_authenticate.py"
)
_spec = importlib.util.spec_from_file_location("bench_authenticate", _SCRIPT)
bench_authenticate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_authenticate)


def _is_smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "smoke"


def _params():
    if _is_smoke():
        return dict(num_features=840, single_repeats=30)
    return dict(num_features=9996, single_repeats=60)


def test_authenticate_hot_path(benchmark, report):
    result = run_once(benchmark, bench_authenticate.run, **_params())

    single = result["single"]
    report(
        "authenticate — "
        f"p50 {single['p50_ms']:.2f} ms | "
        f"p99 {single['p99_ms']:.2f} ms | "
        f"warmup {result['cold']['warmup_ms']:.1f} ms"
    )

    # Exactness is non-negotiable at any scale: every repeat, and the
    # cold and warmed first calls, must return the same decision.
    assert single["parity_ok"]
    assert result["cold"]["parity_ok"]

    # Latency floor, kept loose against shared-runner noise; the
    # committed full-mode BENCH_authenticate.json holds the real
    # number.
    assert single["p50_ms"] <= 25.0
