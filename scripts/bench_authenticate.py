#!/usr/bin/env python3
"""Benchmark the authenticate hot path and write BENCH_authenticate.json.

Two sections, both on paper-shaped probes (4 PPG channels, ~5 s at
100 Hz):

- ``single`` — one warm probe through the staged reference engine
  (``repro.core.stages.AuthPipeline``) and the fused engine
  (``P2Auth.authenticate``), interleaved within every iteration so
  CPU-frequency drift cancels instead of biasing one side; p50/p95/p99
  per path and the decision-equality flag.
- ``cold`` — the price of the first call: a cold start (empty SG /
  detrend / kernel-plan caches, empty per-thread scratch buffers)
  versus calling :meth:`P2Auth.warmup` first and then authenticating.

The headline numbers are ``single.speedup_fused`` (staged p50 over
fused p50) and ``single.fused.p50_ms`` — the acceptance gate wants
>= 1.5x and <= 10 ms in full mode.

Usage::

    python scripts/bench_authenticate.py                  # full, writes JSON
    python scripts/bench_authenticate.py --smoke          # quick, no JSON
    python scripts/bench_authenticate.py --out custom.json
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.config import PAPER_PINS  # noqa: E402
from repro.core import EnrollmentOptions, P2Auth  # noqa: E402
from repro.core.hotpath import clear_thread_buffers  # noqa: E402
from repro.core.stages import AuthPipeline  # noqa: E402
from repro.data import StudyData, ThirdPartyStore  # noqa: E402
from repro.features import c_kernel_available  # noqa: E402
from repro.signal.detrend import clear_detrend_cache  # noqa: E402
from repro.signal.filters import clear_savgol_cache  # noqa: E402

PIN = PAPER_PINS[0]


def _percentiles(times_s):
    times_ms = np.asarray(times_s) * 1e3
    return {
        "p50_ms": float(np.percentile(times_ms, 50)),
        "p95_ms": float(np.percentile(times_ms, 95)),
        "p99_ms": float(np.percentile(times_ms, 99)),
        "mean_ms": float(np.mean(times_ms)),
    }


def build_world(num_features: int):
    """One enrolled authenticator plus a held-out probe of its user."""
    data = StudyData(n_users=5, seed=21)
    third_party = ThirdPartyStore(data, [1, 2], PIN).sample(20)
    enroll_trials = data.trials(0, PIN, "one_handed", 8)[:6]
    auth = P2Auth(pin=PIN, options=EnrollmentOptions(num_features=num_features))
    auth.enroll(enroll_trials, third_party)
    return auth, data.trials(0, PIN, "one_handed", 7)[6]


def _reset_cold(auth) -> None:
    """Return the process to a just-started state for this authenticator.

    Clears every cache :meth:`P2Auth.warmup` would prime — SG
    coefficients, detrend factorizations, the marshalled kernel plans —
    and the calling thread's shared scratch buffers and feature rows,
    and discards the fused pipeline so its warmup flags are rebuilt.
    (The compiled .so itself stays on disk: a real service restart
    reuses it too, so evicting it would overstate the cold cost.)
    """
    clear_detrend_cache()
    clear_savgol_cache()
    models = auth.models
    for model in [models.full_model, models.fused_model, *models.key_models.values()]:
        rocket = getattr(model, "_rocket", None)
        if rocket is not None:
            rocket._plan = None
    clear_thread_buffers()
    auth._hot_pipeline = None


def bench_single(auth, probe, repeats: int):
    """Warm staged vs fused on one probe, interleaved per iteration."""
    auth.warmup([probe.recording.n_samples])
    reference = AuthPipeline(
        auth.models, config=auth.config, policy=auth.policy,
        no_pin_mode=auth.no_pin_mode,
    )

    def staged_run(trial):
        return reference.run([trial], [True])[0]

    staged_ref = staged_run(probe)
    fused_ref = auth.authenticate(probe)

    staged_times, fused_times = [], []
    for i in range(repeats):
        # Alternate which path goes first so a frequency ramp mid-run
        # penalises both paths equally.
        order = (("staged", staged_run), ("fused", auth.authenticate))
        if i % 2:
            order = order[::-1]
        for name, fn in order:
            start = time.perf_counter()
            fn(probe)
            elapsed = time.perf_counter() - start
            (staged_times if name == "staged" else fused_times).append(elapsed)

    staged = _percentiles(staged_times)
    fused = _percentiles(fused_times)
    return {
        "repeats": repeats,
        "signal_length": probe.recording.n_samples,
        "staged": staged,
        "fused": fused,
        "speedup_fused": staged["p50_ms"] / fused["p50_ms"],
        "parity_ok": staged_ref == fused_ref,
    }


def bench_cold(auth, probe):
    """First-call latency: cold start vs warmup()-then-authenticate."""
    n = probe.recording.n_samples

    _reset_cold(auth)
    start = time.perf_counter()
    cold_decision = auth.authenticate(probe)
    cold_first_ms = (time.perf_counter() - start) * 1e3

    _reset_cold(auth)
    start = time.perf_counter()
    auth.warmup([n])
    warmup_ms = (time.perf_counter() - start) * 1e3
    start = time.perf_counter()
    warm_decision = auth.authenticate(probe)
    warm_first_ms = (time.perf_counter() - start) * 1e3

    return {
        "cold_first_call_ms": cold_first_ms,
        "warmup_ms": warmup_ms,
        "first_call_after_warmup_ms": warm_first_ms,
        "parity_ok": cold_decision == warm_decision,
    }


def run(num_features: int, single_repeats: int):
    """The full harness; shared by the script and the perf-smoke test."""
    auth, probe = build_world(num_features)
    return {
        "num_features": num_features,
        "c_kernel": c_kernel_available(),
        "cold": bench_cold(auth, probe),
        "single": bench_single(auth, probe, single_repeats),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="smaller feature budget and fewer repeats; no JSON unless "
        "--out is given",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_authenticate.json at the repo "
        "root in full mode, nothing in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        params = dict(num_features=840, single_repeats=30)
    else:
        params = dict(num_features=9996, single_repeats=200)

    report = {
        "benchmark": "authenticate-hot-path",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **run(**params),
    }

    single = report["single"]
    print(
        "[single] staged p50 "
        f"{single['staged']['p50_ms']:.2f} ms | fused p50 "
        f"{single['fused']['p50_ms']:.2f} ms | speedup "
        f"{single['speedup_fused']:.2f}x | parity={single['parity_ok']}",
        file=sys.stderr,
    )
    cold = report["cold"]
    print(
        "[cold] first call "
        f"{cold['cold_first_call_ms']:.1f} ms | warmup "
        f"{cold['warmup_ms']:.1f} ms | first call after warmup "
        f"{cold['first_call_after_warmup_ms']:.2f} ms",
        file=sys.stderr,
    )
    report["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )

    out = args.out
    if out is None and not args.smoke:
        out = str(REPO_ROOT / "BENCH_authenticate.json")
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
