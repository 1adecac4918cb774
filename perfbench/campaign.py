"""``campaign``: a closed-loop library campaign at the paper's defaults.

``DocsSystem(storage="sqlite")`` with ``DocsConfig()`` (k = 20, z = 100,
20 golden tasks) on the 4d dataset, budget ``answers_per_task`` x n.
Each arrival bootstraps if new, then ``assign`` s and ``submit`` s every
picked task; the loop runs until the budget is spent, then ``finalize``
and ``close``. Submit latency is per HIT (the k ``submit`` calls of one
arrival), so the every-z rerun lands in a fifth of the samples instead
of on the p99 boundary. The closed file is then reopened with
``DocsSystem.resume`` and every analytics query runs over it.

The whole campaign repeats ``reps`` times on identical inputs and every
metric reports the fastest repetition (per arrival for latencies; see
``common.fastest``). Every timing reads this process's CPU time
(``common.cpu_clock``). In a traced run the first repetition runs
untraced and the last traced, and the loop-time difference is the
tracing overhead.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Dict, List

import numpy as np

import tracing as bench_trace
from common import cpu_clock, fastest, percentile, warm_imports, work_dir
from inputs import make_inputs

#: Workload parameters per scale (``toy`` is the smoke test's size).
PARAMS = {
    "full": {"tasks_per_domain": 250, "workers": 200,
             "answers_per_task": 3, "reps": 8},
    "toy": {"tasks_per_domain": 30, "workers": 40,
            "answers_per_task": 2, "reps": 2},
}
#: Accuracy floor for the correctness gate: every seed measured so far
#: finalizes at 0.85-0.91 (see RESULTS.md); broken inference falls
#: towards the 0.5 of guessing.
ACCURACY_FLOOR = {"full": 0.8, "toy": 0.6}
#: Repetitions of the short operations, per campaign repetition: single
#: calls of 0.05-0.3 s vary up to 2x from one call to the next on a
#: shared host, so each repeats and the fastest is reported.
#: ``finalize`` is idempotent; the closed campaign is reopened (and its
#: analytics run) ``REOPENS`` times.
FINALIZE_CALLS = 1
REOPENS = 2


def one_campaign(inputs, path: str, params) -> Dict[str, object]:
    from repro.analytics import QUERY_NAMES
    from repro.core.types import Answer
    from repro.system import DocsConfig, DocsSystem

    span = bench_trace.span
    worker_ids = inputs.worker_ids
    n = len(inputs.truth)
    budget = n * params["answers_per_task"]
    rng = np.random.default_rng((inputs.seed, 0xA11))

    system = DocsSystem(DocsConfig(), storage="sqlite", path=path)
    tic = cpu_clock()
    system.prepare(inputs.dataset)
    setup_s = cpu_clock() - tic
    golden = system.golden_task_ids()

    answered: Dict[str, set] = {}
    assign_ms: List[float] = []
    submit_ms: List[float] = []
    #: Program time of each arrival: bootstrap, assign and submits.
    arrival_ms: List[float] = []
    repeats = 0
    used = 0
    empty = 0
    ops = 0
    gen_s = 0.0
    loop_start = time.perf_counter()
    loop_cpu = cpu_clock()
    while used < budget:
        worker = worker_ids[int(rng.integers(len(worker_ids)))]
        if system.needs_bootstrap(worker):
            tic = cpu_clock()
            with span("client.answers"):
                golden_answers = inputs.golden_answers(worker, golden)
            gen_s += cpu_clock() - tic
            tic = cpu_clock()
            system.bootstrap(worker, golden_answers)
            cost_ms = (cpu_clock() - tic) * 1e3
            ops += 1
        else:
            cost_ms = 0.0
        tic = cpu_clock()
        picks = system.assign(worker, min(20, budget - used))
        assign_ms.append((cpu_clock() - tic) * 1e3)
        cost_ms += assign_ms[-1]
        ops += 1
        if not picks:
            arrival_ms.append(cost_ms)
            empty += 1
            if empty > 2 * len(worker_ids):
                break
            continue
        empty = 0
        seen = answered.setdefault(worker, set())
        repeats += sum(1 for task_id in picks if task_id in seen)
        tic = cpu_clock()
        with span("client.answers"):
            hit = [
                Answer(worker, task_id, inputs.answer(worker, task_id))
                for task_id in picks
            ]
        gen_s += cpu_clock() - tic
        # A worker submits the whole HIT; its latency is the HIT's.
        tic = cpu_clock()
        for answer in hit:
            system.submit(answer)
        submit_ms.append((cpu_clock() - tic) * 1e3)
        arrival_ms.append(cost_ms + submit_ms[-1])
        seen.update(picks)
        used += len(hit)
        ops += len(hit)
    loop_s = cpu_clock() - loop_cpu - gen_s
    loop_wall = time.perf_counter() - loop_start

    finalize_s = []
    for _ in range(FINALIZE_CALLS):
        tic = cpu_clock()
        truths = system.finalize()
        finalize_s.append(cpu_clock() - tic)
    system.close()

    resume_s, analytics_ms = [], []
    for _ in range(REOPENS):
        tic = cpu_clock()
        reopened = DocsSystem.resume(path, config=DocsConfig())
        resume_s.append(cpu_clock() - tic)
        tic = cpu_clock()
        for query in QUERY_NAMES:
            reopened.analytics(query)
        analytics_ms.append((cpu_clock() - tic) * 1e3)
        tail_entries = reopened.resume_info["tail_entries"]
        reopened.close()
    ops += 1 + FINALIZE_CALLS + REOPENS * (1 + len(QUERY_NAMES))

    return {
        "setup_s": setup_s,
        "loop_s": loop_s,
        "loop_wall": loop_wall,
        "loop_window": (loop_start, loop_start + loop_wall),
        "answers": used,
        "assign_ms": assign_ms,
        "submit_ms": submit_ms,
        "arrival_ms": arrival_ms,
        "finalize_s": finalize_s,
        "resume_s": resume_s,
        "analytics_ms": analytics_ms,
        "truths": truths,
        "accuracy": inputs.accuracy(truths),
        "repeats": repeats,
        "finalized_all": set(truths) == set(inputs.truth),
        "budget_spent": used == budget,
        "ops": ops,
        "tail_entries": tail_entries,
    }


def run(seed: int, seconds: int, traced: bool, scale: str):
    params = PARAMS[scale]
    out = work_dir(f"campaign-{seed}")
    reps = []
    tracer = None
    count = params["reps"]
    inputs = make_inputs(seed, params["tasks_per_domain"], params["workers"])
    warm_imports()
    for rep in range(count):
        if traced and rep == count - 1:
            tracer = bench_trace.install()
        inputs.reset()
        # The previous repetition's garbage must not add to this one's
        # peak memory or land a collection inside its timings.
        gc.collect()
        reps.append(one_campaign(inputs, str(out / f"rep{rep}.db"), params))

    def pooled(key: str) -> List[float]:
        return [v for r in reps for v in r[key]]

    # Every repetition does identical work, so the fastest one is the
    # program's cost and the rest is interference (per arrival for
    # latencies; see fastest()).
    assign_ms = fastest([r["assign_ms"] for r in reps])
    submit_ms = fastest([r["submit_ms"] for r in reps])
    # Loop time if every arrival ran at its fastest repetition.
    loop_s = sum(fastest([r["arrival_ms"] for r in reps])) / 1e3
    metrics = {
        "setup_s": float(np.median([r["setup_s"] for r in reps])),
        "answers_per_s": reps[0]["answers"] / loop_s,
        "finalize_s": min(pooled("finalize_s")),
        "accuracy": reps[0]["accuracy"],
        "assign_p50_ms": percentile(assign_ms, 50),
        "assign_p90_ms": percentile(assign_ms, 90),
        "submit_p50_ms": percentile(submit_ms, 50),
        "submit_p90_ms": percentile(submit_ms, 90),
        "resume_s": min(pooled("resume_s")),
        "analytics_ms": min(pooled("analytics_ms")),
    }
    floor = ACCURACY_FLOOR[scale]
    gates = {
        "every_task_finalized": all(r["finalized_all"] for r in reps),
        "budget_spent": all(r["budget_spent"] for r in reps),
        f"accuracy>={floor}": min(r["accuracy"] for r in reps) >= floor,
        "no_repeated_task_in_hit": sum(r["repeats"] for r in reps) == 0,
        # Identical inputs must replay identically (fastest() pairs
        # arrivals across repetitions).
        "reps_identical": len({
            (r["accuracy"], r["answers"], len(r["assign_ms"]))
            for r in reps
        }) == 1,
    }
    result = {
        "metrics": metrics,
        "gates": gates,
        "attempted": sum(r["ops"] for r in reps),
        "failed": 0,
        "samples": {"assign": len(assign_ms), "submit": len(submit_ms)},
        "params": dict(params, dataset="4d", storage="sqlite",
                       config="DocsConfig()"),
    }
    if tracer is not None:
        tracer.enabled = False
        last = reps[-1]
        dump = tracer.dump()
        layer = bench_trace.layer_metrics(dump, last["loop_wall"])
        start, end = last["loop_window"]
        main = threading.main_thread().ident
        covered = bench_trace.window_coverage(
            dump["spans"],
            int(start * 1e9), int(end * 1e9), main,
        )
        layer["trace.unaccounted_share"] = 1.0 - covered / (
            (end - start) * 1e9
        )
        layer["trace.overhead_share"] = (
            last["loop_s"] / reps[0]["loop_s"] - 1.0
        )
        layer["resume.tail_entries"] = float(last["tail_entries"])
        layer["snapshot.db_bytes"] = float(
            (out / f"rep{len(reps) - 1}.db").stat().st_size
        )
        result["per_layer"] = layer
        result["dump"] = dump
    return result
