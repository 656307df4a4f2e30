#!/usr/bin/env python3
"""Benchmark single-probe authentication and write BENCH_authenticate.json.

Two sections, both on paper-shaped probes (4 PPG channels, ~5 s at
100 Hz):

- ``single`` — one warm probe through ``P2Auth.authenticate`` (the
  staged ``repro.core.stages.AuthPipeline``), repeated; p50/p95/p99
  and a flag that every repeat returned the first call's decision.
- ``cold`` — the price of the first call: a cold start (empty SG /
  detrend / kernel-plan caches) versus calling :meth:`P2Auth.warmup`
  first and then authenticating.

The headline number is ``single.p50_ms``; the perf-smoke test keeps it
under 25 ms.

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
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from benchstats import percentiles  # noqa: E402
from repro.config import PAPER_PINS  # noqa: E402
from repro.core import EnrollmentOptions, P2Auth  # noqa: E402
from repro.data import StudyData, ThirdPartyStore  # noqa: E402
from repro.features import c_kernel_available  # noqa: E402
from repro.signal.detrend import clear_detrend_cache  # noqa: E402
from repro.signal.filters import clear_savgol_cache  # noqa: E402

PIN = PAPER_PINS[0]


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
    and the authenticator's engine and warmup flags. (The compiled .so
    itself stays on disk: a real service restart reuses it too, so
    evicting it would overstate the cold cost.)
    """
    clear_detrend_cache()
    clear_savgol_cache()
    models = auth.models
    for model in [models.full_model, models.fused_model, *models.key_models.values()]:
        rocket = getattr(model, "_rocket", None)
        if rocket is not None:
            rocket._plan = None
    auth._pipeline = None
    auth._warmed_models = None
    auth._warmed_lengths.clear()


def bench_single(auth, probe, repeats: int):
    """Warm single-probe latency; every repeat must decide as the first."""
    auth.warmup([probe.recording.n_samples])
    first = auth.authenticate(probe)
    times, same = [], True
    for _ in range(repeats):
        start = time.perf_counter()
        decision = auth.authenticate(probe)
        times.append(time.perf_counter() - start)
        same = same and decision == first
    return {
        "repeats": repeats,
        "signal_length": probe.recording.n_samples,
        **percentiles(times),
        "parity_ok": same,
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
        f"[single] p50 {single['p50_ms']:.2f} ms | p95 "
        f"{single['p95_ms']:.2f} ms | p99 {single['p99_ms']:.2f} ms | "
        f"parity={single['parity_ok']}",
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
