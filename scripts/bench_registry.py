#!/usr/bin/env python3
"""Benchmark registry storage at population scale; write BENCH_registry.json.

Five sections, proving the registry's "millions of users" claim on
measured numbers rather than arithmetic:

- ``templates`` — wall time to enroll the distinct simulated users that
  seed the population (the real pipeline, process-pool fan-out) and the
  per-user payload each storage dtype produces.
- ``size`` — bytes per user at the paper's feature budget: the packed
  record per dtype (extractors stored once per backend) and the
  resulting models-per-GB, plus the one-file ``save_authenticator``
  form (float64 record + its extractors).
- ``parity`` — the quantization contract on the standard probe battery
  (legit / two-handed / attack / wrong-PIN): float64 bit-exact,
  float32/float16 decision-identical with the measured max score drift.
- ``cold_load`` — ``ShardedPackedBackend`` cold-load latency: open
  time, the first load (which pays the shared-extractor decode), and
  p50/p99 of ``load()`` over sampled users of the population.
- ``thrash`` — a 10k+-user ``ShardedPackedBackend`` behind
  ``ModelRegistry`` under the thread-thrash pattern with
  Zipf-distributed traffic: gets/sec, LRU hit rate, and eviction
  counts from ``ModelRegistry.stats``.

Usage::

    python scripts/bench_registry.py                  # full, writes JSON
    python scripts/bench_registry.py --smoke          # quick, no JSON
    python scripts/bench_registry.py --users 50000 --out custom.json
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from benchstats import percentiles  # noqa: E402
from repro.config import PAPER_PINS  # noqa: E402
from repro.core import (  # noqa: E402
    EnrollmentOptions,
    ModelRegistry,
    P2Auth,
    ShardedPackedBackend,
    pack_authenticator,
    save_authenticator,
    unpack_authenticator,
)
from repro.core.packing import QUANT_DTYPES  # noqa: E402
from repro.data import StudyData, ThirdPartyStore  # noqa: E402
from repro.eval import enroll_templates, materialize_population  # noqa: E402

PIN = PAPER_PINS[0]

#: Zipf exponent for the thrash traffic (web-like popularity skew).
ZIPF_A = 1.2


def build_world(num_features: int):
    """One enrolled authenticator plus the labelled probe battery.

    The cohort matches the test suite's world (7 users, seed 5, 24
    third-party negatives) so the battery exercises both outcomes:
    legit probes accept, emulation attacks and wrong PINs reject.
    """
    data = StudyData(n_users=7, seed=5)
    third_party = ThirdPartyStore(data, [1, 2, 3, 4, 5, 6], PIN).sample(24)
    auth = P2Auth(
        pin=PIN, options=EnrollmentOptions(num_features=num_features)
    )
    auth.enroll(data.trials(0, PIN, "one_handed", 8)[:6], third_party)
    battery = [
        (t, None)
        for t in (
            data.trials(0, PIN, "one_handed", 10)[6:8]  # legit
            + data.trials(0, PIN, "double3", 2)          # two-handed
            + data.emulating_trials(4, 0, PIN, 2)        # attack
        )
    ]
    battery.append((data.trials(0, PIN, "one_handed", 10)[6], "0000"))
    return auth, battery


def bench_templates(n_templates: int, features: int, n_jobs):
    """Enroll the distinct template users; report cost and payloads."""
    start = time.perf_counter()
    templates = enroll_templates(
        n_templates, num_features=features, n_jobs=n_jobs
    )
    elapsed = time.perf_counter() - start
    sample = unpack_authenticator(templates[0])
    per_dtype = {
        dtype: pack_authenticator(sample, dtype=dtype).record_nbytes
        for dtype in QUANT_DTYPES
    }
    extractor_bytes = sum(
        len(blob) for blob in templates[0].extractors.values()
    )
    return templates, {
        "n_templates": n_templates,
        "num_features": features,
        "enroll_wall_s": elapsed,
        "record_bytes": per_dtype,
        "extractor_bytes_once_per_backend": extractor_bytes,
        "n_extractors": len(templates[0].extractors),
    }


def bench_size(features: int):
    """Per-user bytes and models/GB of the packed record per dtype."""
    auth, _ = build_world(features)
    with tempfile.TemporaryDirectory() as root:
        file_path = Path(root) / "user.p2a"
        save_authenticator(auth, file_path)
        file_bytes = file_path.stat().st_size
    out = {"num_features": features, "file_bytes": file_bytes, "packed": {}}
    for dtype in QUANT_DTYPES:
        pack = pack_authenticator(auth, dtype=dtype)
        out["packed"][dtype] = {
            "record_bytes_per_user": pack.record_nbytes,
            "extractor_bytes_once_per_backend": sum(
                len(blob) for blob in pack.extractors.values()
            ),
            "models_per_gb": int(1e9 / pack.record_nbytes),
        }
    return out


def bench_parity(features: int):
    """The quantization contract, measured on the probe battery."""
    auth, battery = build_world(features)
    reference = [
        auth.authenticate(trial, claimed_pin=pin) for trial, pin in battery
    ]
    out = {
        "num_features": features,
        "battery": {
            "n_probes": len(battery),
            "n_accepted": sum(d.accepted for d in reference),
        },
        "dtypes": {},
    }
    for dtype in QUANT_DTYPES:
        reloaded = unpack_authenticator(
            pack_authenticator(auth, dtype=dtype)
        )
        decisions = [
            reloaded.authenticate(trial, claimed_pin=pin)
            for trial, pin in battery
        ]
        max_delta = max(
            (
                abs(a - b)
                for ref, got in zip(reference, decisions)
                for a, b in zip(ref.scores, got.scores)
            ),
            default=0.0,
        )
        out["dtypes"][dtype] = {
            "decisions_match": all(
                got.accepted == ref.accepted
                and got.input_case == ref.input_case
                and got.pin_ok == ref.pin_ok
                for ref, got in zip(reference, decisions)
            ),
            "scores_bit_exact": all(
                got.scores == ref.scores
                for ref, got in zip(reference, decisions)
            ),
            "max_abs_score_delta": max_delta,
        }
    return out


def bench_cold_load(templates, n_users: int, n_loads: int, seed: int = 7):
    """Cold-load latency of ``ShardedPackedBackend`` over sampled users."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as root:
        ids = materialize_population(
            ShardedPackedBackend(root), n_users, templates
        )
        # Fresh instance: empty extractor pool.
        start = time.perf_counter()
        backend = ShardedPackedBackend(root)
        open_ms = (time.perf_counter() - start) * 1e3

        start = time.perf_counter()
        backend.load(ids[0])
        first_ms = (time.perf_counter() - start) * 1e3

        times = []
        for pick in rng.choice(len(ids), size=n_loads):
            start = time.perf_counter()
            backend.load(ids[int(pick)])
            times.append(time.perf_counter() - start)
    return {
        "n_users": n_users,
        "n_loads": n_loads,
        "open_ms": open_ms,
        "first_load_ms": first_ms,
        **percentiles(times, (50, 99)),
    }


def bench_thrash(
    templates, n_users: int, capacity: int, threads: int, ops_per_thread: int
):
    """Zipf traffic against a capacity-bounded registry over the backend."""
    with tempfile.TemporaryDirectory() as root:
        backend = ShardedPackedBackend(root)
        ids = materialize_population(backend, n_users, templates)
        registry = ModelRegistry(capacity=capacity, backend=backend)
        barrier = threading.Barrier(threads + 1)
        errors = []

        def worker(worker_id: int) -> None:
            # Zipf-distributed user picks, wrapped into range: rank r
            # maps to user id r % n_users, keeping the popularity skew
            # while every pick stays in the population.
            rng = np.random.default_rng(1000 + worker_id)
            picks = (rng.zipf(ZIPF_A, ops_per_thread) - 1) % n_users
            barrier.wait()
            try:
                for pick in picks:
                    auth = registry.get(ids[int(pick)])
                    assert auth.enrolled
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        pool = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for t in pool:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        for t in pool:
            t.join()
        wall = time.perf_counter() - start
        if errors:
            raise errors[0]

        stats = registry.stats
        total = threads * ops_per_thread
        return {
            "n_users": n_users,
            "capacity": capacity,
            "threads": threads,
            "ops": total,
            "zipf_a": ZIPF_A,
            "wall_s": wall,
            "gets_per_sec": total / wall,
            "hit_rate": stats["hits"] / max(1, stats["hits"] + stats["misses"]),
            **stats,
            "store_bytes": backend.size_bytes(),
            "store_bytes_per_user": backend.size_bytes() / n_users,
        }


def run(
    *,
    users: int,
    features: int,
    size_features: int,
    n_templates: int,
    n_loads: int,
    capacity: int,
    threads: int,
    ops_per_thread: int,
    n_jobs=None,
):
    """The full harness; shared by the script and the perf-smoke test."""
    templates, templates_report = bench_templates(
        n_templates, features, n_jobs
    )
    return {
        "templates": templates_report,
        "size": bench_size(size_features),
        "parity": bench_parity(features),
        "cold_load": bench_cold_load(templates, users, n_loads),
        "thrash": bench_thrash(
            templates, users, capacity, threads, ops_per_thread
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small population and fewer ops; no JSON unless --out is given",
    )
    parser.add_argument(
        "--users",
        type=int,
        default=None,
        help="simulated population size (default 10000 full / 200 smoke)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for template enrollment (0 = all cores)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_registry.json at the repo root "
        "in full mode, nothing in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        params = dict(
            users=args.users or 200, features=840, size_features=840,
            n_templates=2, n_loads=25, capacity=64, threads=4,
            ops_per_thread=100, n_jobs=args.jobs,
        )
    else:
        params = dict(
            users=args.users or 10_000, features=840, size_features=9996,
            n_templates=4, n_loads=100, capacity=256, threads=8,
            ops_per_thread=1000, n_jobs=args.jobs,
        )

    report = {
        "benchmark": "registry-storage",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **run(**params),
    }

    size = report["size"]
    f32 = size["packed"]["float32"]
    print(
        f"[size] packed f32 {f32['record_bytes_per_user']} B/user "
        f"({f32['models_per_gb']}/GB) | saved file {size['file_bytes']} B",
        file=sys.stderr,
    )
    parity = report["parity"]["dtypes"]
    print(
        "[parity] f64 bit-exact="
        f"{parity['float64']['scores_bit_exact']} | f32 decisions="
        f"{parity['float32']['decisions_match']} "
        f"(max |d|={parity['float32']['max_abs_score_delta']:.2e}) | "
        f"f16 decisions={parity['float16']['decisions_match']} "
        f"(max |d|={parity['float16']['max_abs_score_delta']:.2e})",
        file=sys.stderr,
    )
    cold = report["cold_load"]
    print(
        f"[cold] open {cold['open_ms']:.1f} ms | first "
        f"{cold['first_load_ms']:.1f} ms | p50 {cold['p50_ms']:.2f} ms "
        f"| p99 {cold['p99_ms']:.2f} ms over {cold['n_users']} users",
        file=sys.stderr,
    )
    thrash = report["thrash"]
    print(
        f"[thrash] {thrash['gets_per_sec']:.0f} gets/s over "
        f"{thrash['n_users']} users (capacity {thrash['capacity']}, "
        f"{thrash['threads']} threads) | hit rate {thrash['hit_rate']:.3f} "
        f"| evictions {thrash['evictions']}",
        file=sys.stderr,
    )
    report["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )

    out = args.out
    if out is None and not args.smoke:
        out = str(REPO_ROOT / "BENCH_registry.json")
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
