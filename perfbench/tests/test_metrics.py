"""The benchmark prints exactly the metrics BENCHMARK.json declares."""

import json
from pathlib import Path

from benchlib import report
from benchlib.runner import WORKLOADS, Phase, Samples
from benchlib.spans import Span

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def stats(hits, misses, evictions, requests):
    return {
        "registry": {"stats": {"hits": hits, "misses": misses, "evictions": evictions}},
        "service": {"requests": requests},
    }


def phase(samples=None):
    s = samples or Samples(
        auth_lat_ns=[5_000_000, 6_000_000], auth_cpu_ns=[4_000_000, 4_500_000],
        auth_rids=["a1", "a2"], enroll_lat_ns=[1_000_000_000],
        enroll_cpu_ns=[1_400_000_000], enroll_rids=["e1"], attempted=3,
    )
    return Phase(setup_s=15.0, samples=s, stats_before=stats(0, 0, 0, 0),
                 stats_after=stats(0, 2, 1, 2), steal_share=0.0, rss_mib=1000.0,
                 digest="0" * 64, window_s=18.0)


def test_end_to_end_names_and_units_match_the_spec():
    printed = report.end_to_end(phase())
    assert {n: m["unit"] for n, m in printed.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in printed.values())


def test_per_layer_names_match_the_spec():
    spans = [
        Span(1, None, "a1", "service.protocol.parse", 0, 10),
        Span(2, None, "a1", "service.core.authenticate", 10, 4_000_000),
        Span(3, 2, "a1", "core.backends.load", 100, 1_100, extra=588_000),
        Span(4, 2, "a1", "core.session.new", 1_200, 1_300),
        Span(5, None, "stray", "core.stages.decide", 0, 5),  # not a timed request
    ]
    metrics, table = report.layer_metrics(phase(), spans)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    declared.pop("trace.overhead_ms")  # added by the traced run itself
    assert {n: m["unit"] for n, m in metrics.items()} == declared
    assert metrics["core.backends.load_bytes"]["value"] == 588_000
    assert metrics["core.stages.decide_ms"]["value"] == 0.0
    assert metrics["service.core.session_new_share"]["value"] == 0.5
    assert metrics["core.registry.hit_share"]["value"] == 0.0  # 2 misses / 2 auths
    assert metrics["core.registry.evictions"]["value"] == 1.0
    # a1: 5 ms at the client, 10 ns + ~4 ms inside spans.
    overhead = sorted([(5_000_000 - 4_000_000) / 1e6, 6.0])
    assert metrics["service.http.overhead_ms"]["value"] == sum(overhead) / 2
    assert len(table) == len(report.SPAN_METRICS) + 1


def test_run_with_no_successful_request_still_ends_with_a_result(monkeypatch, capsys):
    failing = Samples(attempted=3, failed=3,
                      errors=["auth u0000001: HTTP 429 b'backoff'"] * 3)
    monkeypatch.setattr(report, "run_phase", lambda *a, **k: phase(failing))
    result = report.timed_run(WORKLOADS["warm_zipf"], seed=0, seconds=1.0,
                              src=None, work=None, t_start=0.0)
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == ["# MISMATCH auth u0000001: HTTP 429 b'backoff'"] * 3
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 3)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["auth_cpu_p90_ms"]["value"] == 0.0
    assert json.loads(json.dumps(result, allow_nan=False)) == result

    metrics, _ = report.layer_metrics(phase(failing), [])
    assert metrics["service.http.overhead_ms"]["value"] == 0.0
