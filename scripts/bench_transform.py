#!/usr/bin/env python3
"""Benchmark the MiniRocket transform engines and write BENCH_minirocket.json.

Times ``fit`` and ``transform`` at the paper's shapes (90-sample
keystroke segments, 1 and 4 PPG channels, the ~10K-feature budget) and
at the 4-channel, 480-sample full window that the negative bank's
full-waveform extractor and every one-handed probe use, where ``fit``
costs most. ``transform`` is timed for each available engine:

- ``reference`` — the original per-kernel Python loop, kept as
  ``MiniRocket._transform_reference`` for parity testing;
- ``vectorized`` — the batched NumPy linear-algebra engine, called
  directly (``MiniRocket._transform_vectorized``);
- ``c`` — the compiled kernel, which ``MiniRocket.transform`` runs
  wherever it builds (skipped when no C compiler is available).

The headline ``speedup`` of each case compares the reference loop to
the *default* path — whatever ``MiniRocket.transform`` selects on this
machine (the compiled kernel when it builds, the NumPy engine
otherwise). Each engine also records whether its output is
bit-identical to the reference (``exact``), peak traced allocations
(tracemalloc), and the process's final ``ru_maxrss``.

Usage::

    python scripts/bench_transform.py                  # full, writes JSON
    python scripts/bench_transform.py --smoke          # quick, no JSON
    python scripts/bench_transform.py --out custom.json
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.features import minirocket as mr  # noqa: E402
from repro.features.minirocket import MiniRocket  # noqa: E402

#: (name, n_instances, n_channels, length, num_features, repeats)
FULL_CASES = (
    ("smoke-1ch", 32, 1, 90, 840, 2),
    ("paper-1ch", 256, 1, 90, 9996, 5),
    ("paper-4ch", 256, 4, 90, 9996, 5),
    ("full-4ch-480", 30, 4, 480, 9996, 5),
)
SMOKE_CASES = (("smoke-1ch", 32, 1, 90, 840, 2),)


def _make_input(n: int, channels: int, length: int) -> np.ndarray:
    rng = np.random.default_rng(42)
    x = rng.normal(size=(n, channels, length))
    # A slow baseline drift makes the segments PPG-like rather than
    # white noise; the transform cost is shape-driven either way.
    drift = np.sin(np.linspace(0.0, 3.0, length))
    return np.ascontiguousarray(x + drift)


def _time_call(fn, repeats: int):
    """Best/mean wall time plus tracemalloc peak over ``repeats`` runs."""
    times = []
    peak = 0
    for _ in range(repeats):
        tracemalloc.start()
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
        _, run_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak = max(peak, run_peak)
    return result, {
        "best_s": min(times),
        "mean_s": float(np.mean(times)),
        "peak_traced_mib": peak / 2**20,
    }


def bench_case(name, n, channels, length, num_features, repeats):
    x = _make_input(n, channels, length)

    rocket = MiniRocket(num_features=num_features, seed=0)
    _, fit_stats = _time_call(lambda: rocket.fit(x), repeats)

    default_engine = mr.warm_engine()
    engines = {
        "reference": lambda: rocket._transform_reference(x),
        "vectorized": lambda: rocket._transform_vectorized(
            rocket._check_transform_input(x)
        ),
    }
    if default_engine == "c":
        engines["c"] = lambda: rocket.transform(x)

    reference_out = None
    results = {}
    for engine_name, fn in engines.items():
        out, stats = _time_call(fn, repeats)
        if engine_name == "reference":
            reference_out = out
        else:
            stats["exact"] = bool(np.array_equal(out, reference_out))
        results[engine_name] = stats

    ref_best = results["reference"]["best_s"]
    default_best = results[default_engine]["best_s"]
    case = {
        "case": name,
        "n_instances": n,
        "n_channels": channels,
        "length": length,
        "num_features": rocket.n_features_out,
        "repeats": repeats,
        "default_engine": default_engine,
        "fit": fit_stats,
        "transform": results,
        "speedup": ref_best / default_best,
        "speedup_vectorized": ref_best / results["vectorized"]["best_s"],
    }
    if "c" in results:
        case["speedup_c"] = ref_best / results["c"]["best_s"]
    return case


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one small case, two repeats; no JSON unless --out is given",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_minirocket.json at the repo "
        "root in full mode, nothing in --smoke mode)",
    )
    args = parser.parse_args(argv)

    cases = SMOKE_CASES if args.smoke else FULL_CASES
    report = {
        "benchmark": "minirocket-transform",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "c_kernel_available": mr.c_kernel_available(),
        "cases": [],
    }
    for case_args in cases:
        case = bench_case(*case_args)
        report["cases"].append(case)
        parts = [
            f"{engine}: {stats['best_s'] * 1e3:8.1f} ms"
            + ("" if engine == "reference" else f" exact={stats['exact']}")
            for engine, stats in case["transform"].items()
        ]
        print(
            f"[{case['case']}] default={case['default_engine']} "
            f"speedup={case['speedup']:.1f}x | " + " | ".join(parts),
            file=sys.stderr,
        )
    report["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )

    out = args.out
    if out is None and not args.smoke:
        out = str(REPO_ROOT / "BENCH_minirocket.json")
    if out:
        with open(out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {out}", file=sys.stderr)
    else:
        json.dump(report, sys.stdout, indent=2)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
