"""Write killed campaign files for the ``recover`` workload.

Usage: ``python3 perfbench/build_store.py SEED TASKS_PER_DOMAIN WORKERS
ANSWERS_PER_TASK PATH [PATH ...]``

Builds one campaign per ``PATH`` from the same generated inputs, through
the public API only: ``DocsSystem(storage="sqlite")`` with
``DocsConfig(rerun_interval=RERUN_INTERVAL)`` (z above the answer
count: at z = 100 the build alone would take minutes, and reruns are
``campaign``'s subject), ``prepare``, a golden bootstrap per worker on
first appearance, and the generator's pre-allocated answers.
Auto-snapshots stay at their defaults. Each build ends with
``flush_journal()`` and prints one JSON line (its ``hot_state_digest()``,
set-up time as this process's CPU time, per-worker answer counts); no system is closed, and the
process ``os._exit`` s after the last, so every file keeps a live
journal tail past its last snapshot.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import answer_plan, make_inputs  # noqa: E402

#: z for the build and the resume: above every answer count the
#: workload produces, so no rerun runs.
RERUN_INTERVAL = 10**9


def build(inputs, plan, path: str) -> dict:
    from repro.system import DocsConfig, DocsSystem

    tic = time.process_time()
    system = DocsSystem(
        DocsConfig(rerun_interval=RERUN_INTERVAL), storage="sqlite",
        path=path,
    )
    system.prepare(inputs.dataset)
    prepared = time.process_time()
    golden_ids = system.golden_task_ids()
    golden = {
        worker: inputs.golden_answers(worker, golden_ids)
        for worker in inputs.worker_ids
    }
    gen_s = time.process_time() - prepared
    counts = {}
    for answer in plan:
        worker = answer.worker_id
        if worker not in counts:
            counts[worker] = 0
            system.bootstrap(worker, golden[worker])
        system.submit(answer)
        counts[worker] += 1
    system.flush_journal()
    return {
        "setup_s": time.process_time() - tic - gen_s,
        "digest": system.hot_state_digest(),
        "answers": len(plan),
        "per_worker": counts,
    }


def main() -> None:
    seed, tasks_per_domain, workers, per_task = (
        int(a) for a in sys.argv[1:5]
    )
    from repro.core.types import Answer

    inputs = make_inputs(seed, tasks_per_domain, workers)
    plan = [
        Answer(worker, task_id, inputs.answer(worker, task_id))
        for worker, task_id in answer_plan(inputs, per_task)
    ]
    for path in sys.argv[5:]:
        inputs.reset()
        print(json.dumps(build(inputs, plan, path)), flush=True)
    os._exit(0)


if __name__ == "__main__":
    main()
