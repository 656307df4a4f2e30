"""Perf-regression smoke test for the preprocessing layer.

Runs the same harness as ``scripts/bench_pipeline.py`` under
pytest-benchmark: the pre-optimization reference path against the
banded/batched pipeline, and a SMOKE victim evaluation with the
feature cache off/cold/warm. The asserted floors are deliberately far
below the measured speedups (~18x preprocess, ~3x warm evaluation on
an idle core) so the test flags genuine regressions, not CI noise.
"""

from __future__ import annotations

import importlib.util
import os
from pathlib import Path

from .conftest import run_once

_SCRIPT = (
    Path(__file__).resolve().parent.parent / "scripts" / "bench_pipeline.py"
)
_spec = importlib.util.spec_from_file_location("bench_pipeline", _SCRIPT)
bench_pipeline = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pipeline)


def _is_smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SCALE", "default").lower() == "smoke"


def test_preprocess_paths(benchmark, report):
    n_trials, repeats = (8, 2) if _is_smoke() else (16, 3)
    result = run_once(benchmark, bench_pipeline.bench_preprocess, n_trials, repeats)

    per = result["per_trial_ms"]
    report(
        "Preprocessing per trial — "
        f"reference {per['reference_ms']:.2f} ms | "
        f"banded {per['banded_ms']:.2f} ms | "
        f"batched {per['batched_ms']:.2f} ms | "
        f"speedup {result['speedup_batched']:.1f}x"
    )
    assert result["speedup_banded"] >= 2.5
    assert result["speedup_batched"] >= 2.5


def test_evaluate_user_cache(benchmark, report):
    result = run_once(benchmark, bench_pipeline.bench_evaluate, 1)

    paths = result["paths"]
    report(
        "evaluate_user — "
        f"unshared {paths['unshared']['best_s']:.3f} s | "
        f"cold {paths['cold_cache']['best_s']:.3f} s | "
        f"warm {paths['warm_cache']['best_s']:.3f} s | "
        f"speedup {result['speedup_warm']:.1f}x"
    )
    # A cache hit must not change a single row.
    assert result["results_match"]
    assert result["cache"]["bank_hits"] >= 1
    assert result["speedup_warm"] >= 1.3
