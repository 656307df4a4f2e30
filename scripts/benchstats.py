"""Latency summary shared by the ``bench_*.py`` scripts."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


def percentiles(
    times_s: Sequence[float], quantiles: Sequence[int] = (50, 95, 99)
) -> Dict[str, float]:
    """``p<q>_ms`` for each quantile, then ``mean_ms``, of times in seconds."""
    times_ms = np.asarray(times_s) * 1e3
    summary = {f"p{q}_ms": float(np.percentile(times_ms, q)) for q in quantiles}
    summary["mean_ms"] = float(np.mean(times_ms))
    return summary
