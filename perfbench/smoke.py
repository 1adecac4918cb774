"""Smoke test for the benchmark's own code.

Usage: ``python3 perfbench/smoke.py``

Runs every workload at toy size, untraced and traced, and asserts that
each run exits 0, passes its correctness gates, and emits every metric
``BENCHMARK.json`` names — with its unit — as the last line's JSON.
Then copies only ``BENCHMARK.json`` and the benchmark's directories
into an empty directory and asserts the benchmark refuses to run there
(non-zero exit, no result line). Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return subprocess.run(
        spec["command"] + [
            "--workload", workload, "--seed", "3", "--seconds", "2",
            "--trace", str(trace), "--scale", "toy",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True:
                failures.append(f"{label}: a correctness gate failed\n"
                                f"{proc.stdout[-3000:]}")
            if result["attempted"] < 1:
                failures.append(f"{label}: attempted < 1")
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    failures.append(f"{label}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    failures.append(
                        f"{label}: {metric['name']} unit {got['unit']!r}"
                        f" != {metric['unit']!r}"
                    )
            extra = set(result["metrics"]) - {m["name"] for m in spec[section]}
            if extra:
                failures.append(f"{label}: undeclared metrics {extra}")
            print(f"ok   {label}", flush=True)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append("a checkout without the program still ran")
    else:
        print("ok   refuses to run without the program source")
    shutil.rmtree(bare)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
