#!/usr/bin/env python3
"""Service benchmark: one world, three serial workloads, traced layers.

Boots the deployed server (``python -m repro serve --packed DIR``) on a
freshly materialized 512-user population and drives it over one
keep-alive connection, measuring everything from outside the server:
client latency, per-request server CPU from ``/proc`` schedstat, peak
RSS, and the admin-stats counters. ``perfbench/README.md`` records why
each workload and metric was chosen.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm_zipf --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then against the benchmark's traced launcher and
prints the per-layer metrics. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is nonzero on any non-2xx response or oracle mismatch.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from benchlib import report
    from benchlib.runner import WORKLOADS, new_work_dir

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    # A SIGTERM unwinds like an exception, so the server child is
    # stopped and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = new_work_dir(ROOT)
    try:
        if args.trace:
            result = report.traced_run(
                workload, seed=args.seed, seconds=args.seconds, src=SRC,
                work=work, t_start=T_START,
            )
        else:
            result = report.timed_run(
                workload, seed=args.seed, seconds=args.seconds, src=SRC,
                work=work, t_start=T_START,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
