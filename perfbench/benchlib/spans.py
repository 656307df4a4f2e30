"""Span arithmetic for the traced run.

A span is ``(id, parent, request_id, name, start_ns, end_ns, extra)``
as :mod:`benchlib.traced_serve` writes it. A layer's self time is its
span's duration minus the part of that interval its child spans cover
(children may run on other threads; overlapping children count once).
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    sid: int
    parent: Optional[int]
    rid: Optional[str]
    name: str
    start: int
    end: int
    extra: Optional[int] = None

    @property
    def duration(self) -> int:
        return self.end - self.start


def load(path: Path) -> List[Span]:
    with open(path, encoding="ascii") as handle:
        return [Span(*row) for row in json.load(handle)]


def covered(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> self time in ns."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: span.duration - covered(children[span.sid], span.start, span.end)
        for span in spans
    }
