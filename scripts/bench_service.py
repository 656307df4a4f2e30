#!/usr/bin/env python3
"""Benchmark the auth service end to end; write BENCH_service.json.

A closed-loop load generator over the full HTTP stack: the asyncio
HTTP/1.1 server from :mod:`repro.service.http` fronts an
:class:`~repro.service.AuthService` whose registry reads a sharded
packed population, and N concurrent clients — each with its own
keep-alive connection — issue PIN-proof authentication requests with
Zipf-distributed user picks. Sections:

- ``world`` — population size, template count, feature budget, backend.
- ``closed_loop`` — per concurrency level (default 1/8/32), a **cold**
  pass (fresh registry cache: first touch of every user pays the
  backend load + model warmup) and a **warm** pass (the whole
  population preloaded): auth/sec, p50/p95/p99 request latency, and
  the registry hit/miss delta proving which regime each pass measured.
- ``parity`` — the probe battery through the in-process service facade
  versus direct ``ModelRegistry.authenticate`` calls; the committed
  artifact records that the wire path is decision- and score-
  bit-identical.

Usage::

    python scripts/bench_service.py                  # full, writes JSON
    python scripts/bench_service.py --smoke          # quick, no JSON
    python scripts/bench_service.py --users 2000 --out custom.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "scripts"))

from benchstats import percentiles  # noqa: E402
from repro.core import ModelRegistry, ShardedPackedBackend  # noqa: E402
from repro.data import StudyData  # noqa: E402
from repro.eval import enroll_templates, materialize_population  # noqa: E402
from repro.service import AuthService, encode_trial, pin_proof  # noqa: E402
from repro.service.http import serve  # noqa: E402
from repro.service.protocol import AuthRequest, make_nonce  # noqa: E402

#: PIN every bulk-enrolled user types (the bulkenroll default).
PIN = "1628"

#: Zipf exponent for user picks (web-like popularity skew).
ZIPF_A = 1.2


def build_world(root, n_users, n_templates, features, n_jobs):
    """A packed population plus wire-ready probe payloads.

    Probes come from the cohort behind template 0 (the bulkenroll
    seeds), so users stamped from that template accept them and users
    stamped from other templates reject them — realistic mixed traffic.
    """
    templates = enroll_templates(
        n_templates, num_features=features, n_jobs=n_jobs
    )
    backend = ShardedPackedBackend(root)
    ids = materialize_population(backend, n_users, templates)
    study = StudyData(n_users=5, seed=0)  # template 0's cohort
    probes = study.trials(0, PIN, "one_handed", 9)[7:9]
    return backend, ids, [encode_trial(t) for t in probes], probes


def _make_service(backend, capacity):
    registry = ModelRegistry(capacity=capacity, backend=backend)
    service = AuthService(registry, retry=None, stripes=64, max_workers=4)
    return service


def _adopt_all(service, ids):
    for uid in ids:
        service.adopt_user(uid, PIN)


def _request_body(uid, trial_json):
    nonce = make_nonce()
    proof = pin_proof(PIN, uid, nonce)
    return (
        f'{{"user_id":"{uid}","nonce":"{nonce}","proof":"{proof}",'
        f'"trial":{trial_json}}}'
    ).encode("ascii")


async def _http_post(reader, writer, path, body):
    writer.write(
        f"POST {path} HTTP/1.1\r\nhost: bench\r\n"
        f"content-length: {len(body)}\r\n\r\n".encode("ascii")
        + body
    )
    await writer.drain()
    status_line = await reader.readline()
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers["content-length"]))
    return int(status_line.split()[1]), payload


async def _run_pass(host, port, ids, trial_jsons, concurrency, n_requests, seed):
    """One closed-loop pass; returns (wall_s, latencies, accept_count)."""
    per_client = max(1, n_requests // concurrency)
    latencies = []
    accepted = 0

    async def client(client_id):
        nonlocal accepted
        rng = np.random.default_rng(seed * 1000 + client_id)
        picks = (rng.zipf(ZIPF_A, per_client) - 1) % len(ids)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for i, pick in enumerate(picks):
                uid = ids[int(pick)]
                trial_json = trial_jsons[i % len(trial_jsons)]
                body = _request_body(uid, trial_json)
                start = time.perf_counter()
                status, payload = await _http_post(
                    reader, writer, "/v1/auth", body
                )
                latencies.append(time.perf_counter() - start)
                if status != 200:
                    raise RuntimeError(
                        f"auth returned {status}: {payload[:200]!r}"
                    )
                if json.loads(payload)["accepted"]:
                    accepted += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    start = time.perf_counter()
    await asyncio.gather(*(client(i) for i in range(concurrency)))
    wall = time.perf_counter() - start
    return wall, latencies, accepted


async def _bench_level(backend, ids, trial_jsons, concurrency, n_requests, capacity):
    """Cold + warm closed-loop passes at one concurrency level."""
    service = _make_service(backend, capacity)
    _adopt_all(service, ids)
    ready = asyncio.Event()
    server = asyncio.create_task(serve(service, "127.0.0.1", 0, ready=ready))
    await asyncio.wait_for(ready.wait(), 10)
    host, port = ready.address  # type: ignore[attr-defined]
    out = {"concurrency": concurrency}
    try:
        for phase in ("cold", "warm"):
            if phase == "warm":
                # Preload the whole population so every request hits.
                await service.warm(ids)
            before = service.stats()["registry"]["stats"]
            wall, latencies, accepted = await _run_pass(
                host, port, ids, trial_jsons, concurrency, n_requests,
                seed={"cold": 1, "warm": 2}[phase],
            )
            after = service.stats()["registry"]["stats"]
            out[phase] = {
                "requests": len(latencies),
                "accepted": accepted,
                "wall_s": wall,
                "auth_per_sec": len(latencies) / wall,
                "registry_hits": after["hits"] - before["hits"],
                "registry_misses": after["misses"] - before["misses"],
                **percentiles(latencies),
            }
    finally:
        server.cancel()
        try:
            await server
        except asyncio.CancelledError:
            pass
        service.close()
    return out


def bench_closed_loop(backend, ids, trial_jsons, concurrencies, n_requests, capacity):
    levels = []
    for concurrency in concurrencies:
        levels.append(
            asyncio.run(
                _bench_level(
                    backend, ids, trial_jsons, concurrency, n_requests, capacity
                )
            )
        )
    return levels


def bench_parity(backend, ids, probes, capacity):
    """Wire-path decisions vs direct engine calls on the battery."""
    registry = ModelRegistry(capacity=capacity, backend=backend)
    service = AuthService(registry, retry=None)
    battery = []
    for uid in (ids[0], ids[min(1, len(ids) - 1)]):
        service.adopt_user(uid, PIN)
        for trial in probes:
            battery.append((uid, trial, PIN))
        battery.append((uid, probes[0], "0000"))  # wrong-PIN case

    async def through_service():
        responses = []
        for uid, trial, pin in battery:
            nonce = make_nonce()
            responses.append(
                await service.authenticate(
                    AuthRequest(
                        user_id=uid,
                        nonce=nonce,
                        proof=pin_proof(pin, uid, nonce),
                        trial=encode_trial(trial),
                    )
                )
            )
        return responses

    try:
        responses = asyncio.run(through_service())
    finally:
        service.close()
    direct = [
        registry.authenticate(uid, trial, claimed_pin=pin)
        for uid, trial, pin in battery
    ]
    return {
        "n_probes": len(battery),
        "n_accepted": sum(d.accepted for d in direct),
        "decisions_match": all(
            r.accepted == d.accepted
            and r.reason == d.reason
            and r.pin_ok == d.pin_ok
            for r, d in zip(responses, direct)
        ),
        "scores_bit_exact": all(
            r.scores == tuple(d.scores) for r, d in zip(responses, direct)
        ),
    }


def run(
    *,
    users: int,
    features: int,
    n_templates: int,
    n_requests: int,
    concurrencies,
    capacity: int,
    n_jobs=None,
):
    """The full harness; shared by the script and the perf-smoke test."""
    with tempfile.TemporaryDirectory() as root:
        backend, ids, trial_jsons_raw, probes = build_world(
            root, users, n_templates, features, n_jobs
        )
        trial_jsons = [json.dumps(t) for t in trial_jsons_raw]
        return {
            "world": {
                "n_users": users,
                "n_templates": n_templates,
                "num_features": features,
                "backend": "ShardedPackedBackend",
                "registry_capacity": capacity,
                "zipf_a": ZIPF_A,
                "n_requests_per_pass": n_requests,
            },
            "closed_loop": bench_closed_loop(
                backend, ids, trial_jsons, concurrencies, n_requests, capacity
            ),
            "parity": bench_parity(backend, ids, probes, capacity),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small population and fewer requests; no JSON unless --out",
    )
    parser.add_argument(
        "--users",
        type=int,
        default=None,
        help="packed population size (default 1000 full / 48 smoke)",
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
        help="output path (default: BENCH_service.json at the repo root "
        "in full mode, nothing in --smoke mode)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        params = dict(
            users=args.users or 48, features=840, n_templates=2,
            n_requests=48, concurrencies=(1, 8), capacity=64,
            n_jobs=args.jobs,
        )
    else:
        params = dict(
            users=args.users or 1000, features=840, n_templates=4,
            n_requests=256, concurrencies=(1, 8, 32), capacity=1024,
            n_jobs=args.jobs,
        )

    report = {
        "benchmark": "auth-service",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **run(**params),
    }

    for level in report["closed_loop"]:
        for phase in ("cold", "warm"):
            stats = level[phase]
            print(
                f"[c={level['concurrency']:>2} {phase}] "
                f"{stats['auth_per_sec']:7.1f} auth/s | "
                f"p50 {stats['p50_ms']:6.1f} ms | "
                f"p95 {stats['p95_ms']:6.1f} ms | "
                f"p99 {stats['p99_ms']:6.1f} ms | "
                f"misses {stats['registry_misses']}",
                file=sys.stderr,
            )
    parity = report["parity"]
    print(
        f"[parity] decisions_match={parity['decisions_match']} "
        f"scores_bit_exact={parity['scores_bit_exact']} over "
        f"{parity['n_probes']} probes",
        file=sys.stderr,
    )
    report["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )

    out = args.out
    if out is None and not args.smoke:
        out = str(REPO_ROOT / "BENCH_service.json")
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
