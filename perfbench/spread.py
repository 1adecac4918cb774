"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage: ``python3 perfbench/spread.py WORKLOAD SEED [SEED ...]``

Runs ``run.py --trace 0`` once per seed, then prints for each metric
its median and the distance between its first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's bound from ``BENCHMARK.json``. A benchmark is steady
when every spread but ``setup_s``'s stays under a third of its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    workload, seeds = sys.argv[1], sys.argv[2:]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", seed, "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correctness gate failed", file=sys.stderr)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds
        ), flush=True)
    worst = 0.0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("inf")
        ratio = share / bounds[name]
        if name != "setup_s":
            worst = max(worst, ratio)
        print(f"{name:16s} median={med:<12.5g} spread={share:7.4f} "
              f"bound={bounds[name]:.2f} spread/bound={ratio:5.2f}")
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
