"""Self-time arithmetic and span recording in the traced launcher."""

import asyncio
import contextvars
import threading

from benchlib.spans import Span, covered, self_times
from benchlib.traced_serve import Recorder


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered([(10, 30), (20, 50), (90, 120)], 0, 100) == 50
    assert covered([(20, 50), (10, 30)], 0, 100) == 40  # order-free
    assert covered([(30, 40), (10, 60)], 0, 100) == 50  # nested child
    assert covered([], 0, 100) == 0


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span(1, None, "r", "root", 0, 100),
        Span(2, 1, "r", "a", 10, 30),
        Span(3, 1, "r", "b", 20, 50),   # overlaps a: counted once
        Span(4, 2, "r", "leaf", 12, 18),  # grandchild: only a loses it
        Span(5, 1, "r", "late", 90, 120),  # clipped at the parent's end
    ]
    own = self_times(spans)
    assert own[1] == 100 - 40 - 10
    assert own[2] == 20 - 6
    assert own[3] == 30
    assert own[4] == 6
    assert own[5] == 30


def test_recorder_nests_across_threads_and_awaits():
    rec = Recorder()

    class Parsed:
        nonce = "n-1"

    parse = rec.wrap(lambda: Parsed(), "parse", request_id=lambda r: r.nonce)
    leaf = rec.wrap(lambda: 7, "leaf")

    def in_pool():
        ctx = contextvars.copy_context()
        out = []
        worker = threading.Thread(target=lambda: out.append(ctx.run(leaf)))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive()
        return out[0]

    async def handle():
        return in_pool()

    outer = rec.wrap(handle, "outer")

    async def request():
        parse()
        return await outer()

    assert asyncio.run(request()) == 7
    spans = {s[3]: Span(*s) for s in rec.spans}
    assert spans["parse"].parent is None and spans["parse"].rid == "n-1"
    assert spans["outer"].parent is None and spans["outer"].rid == "n-1"
    assert spans["leaf"].parent == spans["outer"].sid
    assert spans["leaf"].rid == "n-1"
    assert spans["outer"].start <= spans["leaf"].start <= spans["leaf"].end <= spans["outer"].end
