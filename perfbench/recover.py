"""``recover``: the read side of a killed campaign file.

A build subprocess (``build_store.py``) writes the campaign through the
public API — 4d, 200 bootstrapped workers, ``answers_per_task`` answers
per task — flushes, prints its ``hot_state_digest()`` and dies without
closing, leaving a live journal tail past the last auto-snapshot. Its
time from ``DocsSystem(...)`` to the last flush, median over the
builds, is ``setup_s``.

The timed part, in this process: ``DocsSystem.resume`` with the build's
config (``resume_s``; the digest must match the build's), repeated
passes over every ``repro.analytics.QUERY_NAMES`` query
(``analytics_ms``; per-worker answer totals must equal what the
generator wrote), ``arrival_rounds`` post-recovery arrivals per worker
(``assign`` k = 3 then ``submit`` of the HIT, so the first requests
after a crash are measured), and ``finalize``. No reruns run: the build
config's z is above every answer count. The read side runs on each
built file and on ``copies`` copies of each (database and write-ahead
log), which replay exactly what the original would.

Every timing, the build's included, reads its process's CPU time
(``common.cpu_clock``). Builds repeat on identical inputs; in a traced
run the first read side runs untraced and the last traced (their
difference is the tracing overhead).
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

import tracing as bench_trace
from build_store import RERUN_INTERVAL
from common import (
    child_env, cpu_clock, fastest, percentile, warm_imports, work_dir,
)
from inputs import make_inputs

HERE = Path(__file__).resolve().parent

PARAMS = {
    "full": {"tasks_per_domain": 250, "workers": 200,
             "answers_per_task": 10, "builds": 3, "copies": 2,
             "analytics_passes": 3, "finalize_calls": 2, "k": 3,
             "arrival_rounds": 3},
    "toy": {"tasks_per_domain": 30, "workers": 20,
            "answers_per_task": 4, "builds": 2, "copies": 1,
            "analytics_passes": 2, "finalize_calls": 2, "k": 3,
            "arrival_rounds": 2},
}


def build(seed: int, paths: List[Path], params):
    """Start the build process; returns ``(inputs, builds)``.

    This process generates its own copy of the inputs while the build
    process generates (untimed) and builds.
    """
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "build_store.py"), str(seed),
         str(params["tasks_per_domain"]), str(params["workers"]),
         str(params["answers_per_task"])] + [str(p) for p in paths],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(),
    )
    try:
        inputs = make_inputs(
            seed, params["tasks_per_domain"], params["workers"]
        )
        stdout, stderr = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"build failed:\n{stderr}")
    return inputs, [json.loads(line) for line in stdout.splitlines()]


def copy_killed(path: Path, copy: Path) -> Path:
    """Copy a killed campaign file with its write-ahead log."""
    for suffix in ("", "-wal"):
        if Path(f"{path}{suffix}").exists():
            shutil.copyfile(f"{path}{suffix}", f"{copy}{suffix}")
    return copy


def read_side(inputs, path: Path, built, params) -> Dict[str, object]:
    from repro.analytics import QUERY_NAMES
    from repro.core.types import Answer
    from repro.system import DocsConfig, DocsSystem

    span = bench_trace.span
    start = time.perf_counter()
    start_cpu = tic = cpu_clock()
    system = DocsSystem.resume(
        str(path), config=DocsConfig(rerun_interval=RERUN_INTERVAL)
    )
    resume_s = cpu_clock() - tic
    digest = system.hot_state_digest()
    info = system.resume_info

    analytics_ms: List[float] = []
    totals = None
    for _ in range(params["analytics_passes"]):
        tic = cpu_clock()
        results = {query: system.analytics(query) for query in QUERY_NAMES}
        analytics_ms.append((cpu_clock() - tic) * 1e3)
        if totals is None:
            totals = {
                row["worker"]: row["answered"]
                for row in results["worker-accuracy"]["rows"]
            }

    assign_ms: List[float] = []
    submit_ms: List[float] = []
    repeats = 0
    answers = 0
    gen_s = 0.0
    arrivals = inputs.worker_ids * params["arrival_rounds"]
    for worker in arrivals:
        with span("client.check"):
            answered = set(
                system.database.answers.tasks_answered_by(worker)
            )
        tic = cpu_clock()
        picks = system.assign(worker, params["k"])
        assign_ms.append((cpu_clock() - tic) * 1e3)
        repeats += sum(1 for task_id in picks if task_id in answered)
        tic = cpu_clock()
        with span("client.answers"):
            hit = [
                Answer(worker, t, inputs.answer(worker, t)) for t in picks
            ]
        gen_s += cpu_clock() - tic
        tic = cpu_clock()
        for answer in hit:
            system.submit(answer)
        submit_ms.append((cpu_clock() - tic) * 1e3)
        answers += len(hit)

    finalize_s = []
    for _ in range(params["finalize_calls"]):
        tic = cpu_clock()
        truths = system.finalize()
        finalize_s.append(cpu_clock() - tic)
    read_cpu_s = cpu_clock() - start_cpu - gen_s
    end = time.perf_counter()
    system.close()
    return {
        "resume_s": resume_s,
        "digest_match": digest == built["digest"],
        "restore_path": info["restore_path"],
        "tail_entries": info["tail_entries"],
        "totals_match": totals == built["per_worker"],
        "analytics_ms": analytics_ms,
        "assign_ms": assign_ms,
        "submit_ms": submit_ms,
        "answers": answers,
        "repeats": repeats,
        "finalize_s": finalize_s,
        "accuracy": inputs.accuracy(truths),
        "finalized_all": set(truths) == set(inputs.truth),
        "window": (start, end),
        "read_s": end - start,
        "read_cpu_s": read_cpu_s,
        "ops": 1 + len(finalize_s) + len(analytics_ms) * len(QUERY_NAMES)
        + len(assign_ms) + answers,
    }


def run(seed: int, seconds: int, traced: bool, scale: str):
    params = PARAMS[scale]
    out = work_dir(f"recover-{seed}")
    paths = [out / f"build{b}.db" for b in range(params["builds"])]
    inputs, built = build(seed, paths, params)
    warm_imports()
    reads = []
    tracer = None
    for b, (path, info) in enumerate(zip(paths, built)):
        # Copies first: the original is the last read side of a traced
        # run.
        files = [
            copy_killed(path, out / f"copy{b}-{c}.db")
            for c in range(params["copies"])
        ] + [path]
        for file in files:
            if traced and file == paths[-1]:
                tracer = bench_trace.install()
            # Earlier garbage must not add to this read side's peak
            # memory or land a collection inside its timings.
            gc.collect()
            reads.append(read_side(inputs, file, info, params))

    # Builds and read sides replay identical inputs: report the fastest
    # repetition (per arrival for latencies; see common.fastest), and
    # the median build.
    assign_ms = fastest([r["assign_ms"] for r in reads])
    submit_ms = fastest([r["submit_ms"] for r in reads])
    # Loop time if every arrival (assign and submits) ran at its fastest
    # repetition.
    loop_s = sum(fastest([
        [a + b for a, b in zip(r["assign_ms"], r["submit_ms"])]
        for r in reads
    ])) / 1e3
    metrics = {
        "setup_s": float(np.median([b["setup_s"] for b in built])),
        "answers_per_s": reads[0]["answers"] / loop_s,
        "finalize_s": min(v for r in reads for v in r["finalize_s"]),
        "accuracy": reads[0]["accuracy"],
        "assign_p50_ms": percentile(assign_ms, 50),
        "assign_p90_ms": percentile(assign_ms, 90),
        "submit_p50_ms": percentile(submit_ms, 50),
        "submit_p90_ms": percentile(submit_ms, 90),
        "resume_s": min(r["resume_s"] for r in reads),
        "analytics_ms": min(v for r in reads for v in r["analytics_ms"]),
    }
    gates = {
        "digest_matches_build": all(r["digest_match"] for r in reads),
        "worker_totals_match_generator": all(
            r["totals_match"] for r in reads
        ),
        "live_tail_replayed": all(r["tail_entries"] > 0 for r in reads),
        "no_repeated_task_in_hit": sum(r["repeats"] for r in reads) == 0,
        "every_task_finalized": all(r["finalized_all"] for r in reads),
        "builds_agree": len({b["digest"] for b in built}) == 1,
        "reads_identical": len({
            (r["accuracy"], r["answers"]) for r in reads
        }) == 1,
    }
    result = {
        "metrics": metrics,
        "gates": gates,
        "attempted": sum(r["ops"] for r in reads)
        + sum(b["answers"] for b in built),
        "failed": 0,
        "samples": {
            "assign": len(assign_ms), "submit_hits": len(submit_ms),
            "analytics_passes": sum(len(r["analytics_ms"]) for r in reads),
            "read_sides": len(reads),
            "restore_path": reads[-1]["restore_path"],
            "tail_entries": reads[-1]["tail_entries"],
            "build_answers": built[0]["answers"],
        },
        "params": dict(params, dataset="4d", storage="sqlite",
                       rerun_interval=RERUN_INTERVAL),
    }
    if tracer is not None:
        tracer.enabled = False
        last = reads[-1]
        dump = tracer.dump()
        layer = bench_trace.layer_metrics(dump, last["read_s"])
        start, end = last["window"]
        covered = bench_trace.window_coverage(
            dump["spans"], int(start * 1e9),
            int(end * 1e9), threading.main_thread().ident,
        )
        layer["trace.unaccounted_share"] = 1.0 - covered / (
            (end - start) * 1e9
        )
        layer["trace.overhead_share"] = (
            last["read_cpu_s"] / reads[0]["read_cpu_s"] - 1.0
        )
        layer["resume.tail_entries"] = float(last["tail_entries"])
        layer["snapshot.db_bytes"] = float(
            paths[-1].stat().st_size
        )
        result["per_layer"] = layer
        result["dump"] = dump
    return result
