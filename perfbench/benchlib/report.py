"""Turn measured phases into the benchmark's metrics and result line."""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import calib
from . import spans as spanlib
from .runner import Phase, Workload, run_phase
from .stats import median, percentile, supported_percentile

LAUNCHER = Path(__file__).resolve().parent / "traced_serve.py"


def _ms(ns: Sequence[int]) -> List[float]:
    return [v / 1e6 for v in ns]


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _pct(values: Sequence[float], q: float) -> float:
    """The median for ``q == 50``, else the nearest-rank percentile; 0.0
    when no request of the kind succeeded. The run is then incorrect,
    and its ``# MISMATCH`` lines say why."""
    if not values:
        return 0.0
    return median(values) if q == 50 else percentile(values, q)


def _delta(phase: Phase, section: str, key: str) -> int:
    before, after = phase.stats_before[section], phase.stats_after[section]
    if section == "registry":
        before, after = before["stats"], after["stats"]
    return int(after[key]) - int(before[key])


def at_reference_speed(phase: Phase) -> Tuple[List[float], List[float],
                                              List[float], List[float]]:
    """Auth latency and CPU, enrollment latency and CPU, in ms at the
    reference speed: each auth divided by the slowdown measured next to
    it, each enrollment by the slowdown measured just before it."""
    s = phase.samples
    near = calib.slowdowns(s.calib_ns, s.calib_at, len(s.auth_lat_ns))
    pre = calib.paired_slowdowns(s.enroll_calib_ns, len(s.enroll_lat_ns))
    return (
        [v / f for v, f in zip(_ms(s.auth_lat_ns), near)],
        [v / f for v, f in zip(_ms(s.auth_cpu_ns), near)],
        [v / f for v, f in zip(_ms(s.enroll_lat_ns), pre)],
        [v / f for v, f in zip(_ms(s.enroll_cpu_ns), pre)],
    )


def end_to_end(phase: Phase) -> Dict[str, Dict[str, Any]]:
    lat, cpu, enroll_lat, enroll_cpu = at_reference_speed(phase)
    return {
        "auth_p50_ms": _metric(_pct(lat, 50), "ms"),
        "auth_cpu_p50_ms": _metric(_pct(cpu, 50), "ms"),
        "auth_cpu_p90_ms": _metric(_pct(cpu, 90), "ms"),
        "enroll_p50_ms": _metric(_pct(enroll_lat, 50), "ms"),
        "enroll_cpu_p50_ms": _metric(_pct(enroll_cpu, 50), "ms"),
        "server_rss_mib": _metric(phase.rss_mib, "MiB"),
        "setup_s": _metric(phase.setup_s, "s"),
    }


def diagnostics(phase: Phase) -> List[str]:
    """Printed, never gated: the context each run's numbers came from."""
    s = phase.samples
    lat, cpu = _ms(s.auth_lat_ns), _ms(s.auth_cpu_ns)
    ref_lat, ref_cpu, _, _ = at_reference_speed(phase)
    n = len(lat)
    top = supported_percentile(n)
    auths = max(1, n)
    kernel = _ms(s.calib_ns)
    lines = [
        f"window {phase.window_s:.2f} s, {n} timed auths, "
        f"{len(s.enroll_lat_ns)} timed enrollments, steal share "
        f"{phase.steal_share:.3f}, server threads {phase.threads}",
        f"speed: calibration kernel p10/p50/p90 "
        f"{_pct(kernel, 10):.3f}/{_pct(kernel, 50):.3f}/{_pct(kernel, 90):.3f} ms "
        f"over {len(kernel)} runs in the window, slowdown "
        f"{calib.run_slowdown(s.calib_ns):.3f}; before enrollments "
        f"{calib.run_slowdown(s.enroll_calib_ns):.3f} over "
        f"{len(s.enroll_calib_ns)} runs",
        f"as measured: client auth p50/p90/p99 {_pct(lat, 50):.3f}/"
        f"{_pct(lat, 90):.3f}/{_pct(lat, 99):.3f} ms, server CPU p50/p90/p99 "
        f"{_pct(cpu, 50):.3f}/{_pct(cpu, 90):.3f}/{_pct(cpu, 99):.3f} ms "
        f"over {n} samples",
        f"at reference speed: client auth p99 {_pct(ref_lat, 99):.3f} ms, "
        f"server CPU p99 {_pct(ref_cpu, 99):.3f} ms (highest percentile "
        f"with 10 beyond: {'n/a' if top is None else f'p{top:.2f}'})",
        f"throughput at one connection "
        f"{1000.0 * n / sum(lat) if n else 0.0:.1f} auth/s as measured",
        "enrollments as measured (latency, server CPU) in ms: " + ", ".join(
            f"({a:.0f}, {b:.0f})"
            for a, b in zip(_ms(s.enroll_lat_ns), _ms(s.enroll_cpu_ns))),
        f"failed share {s.failed / max(1, s.attempted):.4f} "
        f"({s.failed}/{s.attempted} operations)",
        "registry deltas: " + ", ".join(
            f"{k} {_delta(phase, 'registry', k)}"
            for k in ("hits", "misses", "evictions")
        ) + f" (miss share of timed auths "
        f"{_delta(phase, 'registry', 'misses') / auths:.3f})",
        "service deltas: " + ", ".join(
            f"{k} {_delta(phase, 'service', k)}"
            for k in phase.stats_after["service"]
        ),
        f"population digest {phase.digest[:16]}",
    ]
    return [f"# {line}" for line in lines]


def _print_mismatches(phases: Sequence[Phase],
                      extra_errors: Sequence[str] = ()) -> None:
    """Printed before any metric, so a failing run always says why."""
    for phase in phases:
        for error in phase.samples.errors:
            print(f"# MISMATCH {error}")
    for error in extra_errors:
        print(f"# MISMATCH {error}")


def _result(phases: Sequence[Phase], metrics: Dict[str, Any],
            extra_errors: Sequence[str] = ()) -> Dict[str, Any]:
    attempted = sum(p.samples.attempted for p in phases)
    failed = sum(p.samples.failed for p in phases) + len(extra_errors)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def timed_run(workload: Workload, *, seed: int, seconds: float, src: Path,
              work: Path, t_start: float) -> Dict[str, Any]:
    phase = run_phase(workload, seed=seed, seconds=seconds, src=src,
                      work=work, t_start=t_start)
    _print_mismatches([phase])
    metrics = end_to_end(phase)
    for line in diagnostics(phase):
        print(line)
    for name, m in metrics.items():
        print(f"# {workload.name} {name} = {m['value']:.4f} {m['unit']}")
    return _result([phase], metrics)


#: Per-layer metric -> (span name, required parent span name or None).
SPAN_METRICS: Dict[str, Tuple[str, Optional[str]]] = {
    "service.protocol.parse_ms": ("service.protocol.parse", None),
    "service.protocol.decode_trial_ms": (
        "service.protocol.decode_trial", "service.core.authenticate"),
    "service.protocol.verify_proof_ms": (
        "service.protocol.verify_proof", "service.core.authenticate"),
    "service.protocol.to_wire_ms": ("service.protocol.to_wire", None),
    "service.core.self_ms": ("service.core.authenticate", None),
    "core.session.self_ms": ("core.session.submit_entry", None),
    "core.registry.get_ms": ("core.registry.get", None),
    "core.backends.load_ms": ("core.backends.load", None),
    "core.authenticator.warmup_ms": ("core.authenticator.warmup", None),
    "core.authenticator.authenticate_ms": ("core.authenticator.authenticate", None),
    **{
        f"core.stages.{stage}_ms": (f"core.stages.{stage}", None)
        for stage in ("repair", "preprocess", "segment", "featurize",
                      "classify", "decide")
    },
    "service.protocol.enroll_decode_ms": (
        "service.protocol.decode_trial", "service.core.enroll_complete"),
    "core.authenticator.enroll_ms": ("core.authenticator.enroll", None),
    "core.backends.store_ms": ("core.backends.store", None),
    "core.registry.add_ms": ("core.registry.add", None),
}


def layer_metrics(phase: Phase, spans: Sequence[spanlib.Span]
                  ) -> Tuple[Dict[str, Dict[str, Any]], List[str]]:
    """Per-layer metrics from the timed requests' spans, and a table."""
    s = phase.samples
    timed = set(s.auth_rids) | set(s.enroll_rids)
    mine = [sp for sp in spans if sp.rid in timed]
    own = spanlib.self_times(mine)
    by_id = {sp.sid: sp for sp in mine}

    def parent_name(sp: spanlib.Span) -> Optional[str]:
        parent = by_id.get(sp.parent) if sp.parent is not None else None
        return None if parent is None else parent.name

    metrics: Dict[str, Dict[str, Any]] = {}
    table: List[str] = []
    for metric, (name, parent) in SPAN_METRICS.items():
        chosen = [sp for sp in mine if sp.name == name
                  and (parent is None or parent_name(sp) == parent)]
        self_ms = [own[sp.sid] / 1e6 for sp in chosen]
        total_ms = [sp.duration / 1e6 for sp in chosen]
        metrics[metric] = _metric(_pct(self_ms, 50), "ms")
        table.append(
            f"# {metric:40s} self p50 {metrics[metric]['value']:8.4f} ms  "
            f"incl p50 {_pct(total_ms, 50):8.4f} ms  "
            f"n={len(chosen)}"
        )

    auths = max(1, len(s.auth_rids))
    roots: Dict[str, int] = {}
    for sp in mine:
        if sp.parent is None:
            roots[sp.rid] = roots.get(sp.rid, 0) + sp.duration  # type: ignore[index]
    overhead = [
        (lat - roots.get(rid, 0)) / 1e6
        for rid, lat in zip(s.auth_rids, s.auth_lat_ns)
    ]
    auth_rids = set(s.auth_rids)
    news = sum(1 for sp in mine if sp.name == "core.session.new" and sp.rid in auth_rids)
    loads = [sp.extra for sp in mine if sp.name == "core.backends.load" and sp.extra]
    metrics["service.http.overhead_ms"] = _metric(_pct(overhead, 50), "ms")
    metrics["service.core.session_new_share"] = _metric(news / auths, "ratio")
    metrics["core.registry.hit_share"] = _metric(
        1.0 - _delta(phase, "registry", "misses") / auths, "ratio")
    metrics["core.registry.evictions"] = _metric(
        float(_delta(phase, "registry", "evictions")), "count")
    metrics["core.backends.load_bytes"] = _metric(_pct(loads, 50), "bytes")
    table.append(f"# spans kept {len(mine)} of {len(spans)}; "
                 f"loads with bytes {len(loads)}; new sessions {news}/{auths}")
    return metrics, table


def traced_run(workload: Workload, *, seed: int, seconds: float, src: Path,
               work: Path, t_start: float) -> Dict[str, Any]:
    """The workload untraced, then on the traced launcher; per-layer."""
    (work / "untraced").mkdir()
    (work / "traced").mkdir()
    plain = run_phase(workload, seed=seed, seconds=seconds, src=src,
                      work=work / "untraced", t_start=t_start)
    span_path = work / "spans.json"
    traced = run_phase(workload, seed=seed, seconds=seconds, src=src,
                       work=work / "traced", t_start=time.perf_counter(),
                       server_command=(sys.executable, str(LAUNCHER),
                                       "--spans", str(span_path)))
    errors = []
    if plain.digest != traced.digest:
        errors.append(f"population differs between phases: {plain.digest} "
                      f"vs {traced.digest}")
    _print_mismatches([plain, traced], errors)
    metrics, table = layer_metrics(traced, spanlib.load(span_path))
    # Both at reference speed, so a change of the guest's speed between
    # the two phases is not read as tracing overhead.
    plain_p50 = end_to_end(plain)["auth_p50_ms"]["value"]
    traced_p50 = end_to_end(traced)["auth_p50_ms"]["value"]
    metrics["trace.overhead_ms"] = _metric(traced_p50 - plain_p50, "ms")
    for line in diagnostics(traced):
        print(line)
    for line in table:
        print(line)
    print(f"# auth p50 at reference speed: untraced {plain_p50:.4f} ms, "
          f"traced {traced_p50:.4f} ms")
    return _result([plain, traced], metrics, errors)
