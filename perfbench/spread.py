#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload warm_zipf --seeds 1-10

Each run is ``run.py --trace 0`` at ``BENCHMARK.json``'s ``run_seconds``.
For every metric it prints the median of the per-run values and the
distance between their first and third quartiles as a share of that
median (``statistics.quantiles(values, n=4)``), next to the bound
``BENCHMARK.json`` gives the metric. Raw per-run results are appended
as JSON lines to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchlib.stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(spec: str) -> "list[int]":
    if "-" in spec:
        lo, hi = spec.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: "dict[str, list[float]]" = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        notes = [line for line in lines[:-1] if line.startswith("# ")]
        steal = next((line.rsplit("steal share ", 1)[1] for line in notes
                      if "steal share" in line), "?")
        if args.out is not None:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": args.workload, "seed": seed,
                                         "notes": notes, **result}) + "\n")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} (steal {steal}): " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = f"{quartile_spread(vals):.3f}" if len(vals) >= 2 and med else "n/a"
        print(f"{name:36s} median {med:10.4f}  spread {spread:>6s}  "
              f"bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
