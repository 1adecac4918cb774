"""Benchmark-side span tracer for the traced (``--trace 1``) run.

The program's source is not touched: :func:`install` wraps the public
entry points of each ``repro`` layer (and a few seams inside them) with
span-recording wrappers, at class or module level, for the lifetime of
the process. A span is ``[name, start_ns, end_ns, parent, thread, n]``
kept in one in-memory list and written out as JSON when the run ends;
``n`` is an optional per-span count (rows flushed, batch size).

:func:`layer_metrics` turns a span dump into the per-layer metrics
named in ``BENCHMARK.json``: self time per layer (a span's duration
minus its children's), per-call latencies, counts, and the share of a
window no top-level span covers.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

#: Global tracer; ``None`` when tracing is off (the measured runs).
TRACER: Optional["Tracer"] = None


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.samples: Dict[str, List[float]] = {}
        self.enabled = True
        self._local = threading.local()
        #: AssignmentIndex instances built while installed, for stats().
        self.indexes: List[object] = []
        self.kernel_rows_start = 0

    # -- spans -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> int:
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([
            name, time.perf_counter_ns(), 0,
            stack[-1] if stack else -1, threading.get_ident(), 0,
        ])
        stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack().pop()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- wrapping --------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a callable ``(args, kwargs) -> name``;
        ``before(tracer, args)`` runs first, ``after(tracer, span, args,
        result)`` runs on success.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            label = name(args, kwargs) if callable(name) else name
            index = tracer.enter(label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(index)
            if after is not None:
                after(tracer, tracer.spans[index], args, result)
            return result

        setattr(
            owner, attr, classmethod(wrapper) if is_classmethod else wrapper
        )

    # -- output ----------------------------------------------------------

    def dump(self) -> Dict[str, object]:
        from repro.core.assignment import kernel_rows_evaluated

        stats: Dict[str, int] = {}
        for index in self.indexes:
            for key, value in index.stats().items():
                stats[key] = stats.get(key, 0) + value
        return {
            "spans": self.spans,
            "samples": self.samples,
            "index_stats": stats,
            "kernel_rows": kernel_rows_evaluated() - self.kernel_rows_start,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.dump(), handle)


def install() -> Tracer:
    """Wrap every traced layer entry point; returns the global tracer."""
    global TRACER
    import repro.analytics
    import repro.engines.docs as docs_engine
    import repro.service.app as service_app
    from repro.core.assignment import TaskAssigner, kernel_rows_evaluated
    from repro.core.incremental import IncrementalTruthInference
    from repro.core.serving import AssignmentIndex
    from repro.core.truth_inference import TruthInference
    from repro.platform.journal import AnswerJournal
    from repro.platform.sqlite_storage import (
        SqliteSystemDatabase,
        SqliteWorkerQualityStore,
    )
    from repro.service.scheduler import RequestScheduler
    from repro.system.docs_system import DocsSystem
    from repro.system.ingest import IngestPipeline

    tracer = Tracer()
    tracer.kernel_rows_start = kernel_rows_evaluated()
    wrap = tracer.wrap

    for attr in (
        "prepare", "bootstrap", "assign", "submit", "finalize", "close",
        "resume", "analytics", "flush_journal", "checkpoint",
        "needs_bootstrap", "golden_task_ids", "hot_state_digest",
    ):
        wrap(DocsSystem, attr, f"system.{attr}")
    wrap(DocsSystem, "assign_many", "system.assign_many",
         after=_count_payload(1))
    wrap(DocsSystem, "_replay_journal", "resume.replay")
    wrap(DocsSystem, "_restore_from_index", "resume.restore_index")

    def ingest_report(tracer, span, args, report):
        for stage, value in (
            ("link", report.link_seconds),
            ("dve", report.estimate_seconds),
            ("store", report.store_seconds),
            ("register", report.register_seconds),
        ):
            tracer.sample(f"ingest.{stage}_s", value)

    wrap(IngestPipeline, "ingest", "ingest.pipeline", after=ingest_report)
    wrap(docs_engine, "select_golden_tasks", "golden.select")
    wrap(service_app, "make_dataset", "datasets.make")

    wrap(TaskAssigner, "assign", "assign.assign")
    wrap(TaskAssigner, "assign_many", "assign.assign_many")
    wrap(AssignmentIndex, "select", "serving.select")

    def track_index(tracer, span, args, result):
        tracer.indexes.append(args[0])

    wrap(AssignmentIndex, "__init__", "serving.build", after=track_index)

    wrap(IncrementalTruthInference, "submit", "incremental.submit")
    wrap(
        IncrementalTruthInference, "resync_from_arena_result",
        "incremental.resync",
    )
    wrap(docs_engine.DocsEngine, "run_full_inference", "rerun.full")
    wrap(docs_engine.DocsEngine, "rebuild", "resume.rebuild")
    wrap(TruthInference, "infer_from_log", "rerun.infer")

    def flushed_rows(tracer, span, args, rows):
        span[5] = int(rows)

    wrap(AnswerJournal, "flush", "journal.flush", after=flushed_rows)
    wrap(SqliteSystemDatabase, "write_snapshot", "snapshot.write")
    wrap(SqliteSystemDatabase, "load_snapshot", "resume.load_snapshot")
    wrap(
        SqliteWorkerQualityStore, "apply_batch_delta",
        "worker_store.apply_delta",
    )
    wrap(
        repro.analytics, "run_query",
        lambda args, kwargs: f"analytics.{args[1]}",
    )

    def queue_waits(tracer, args):
        now = time.monotonic()
        for item in args[1]:
            tracer.sample("scheduler.queue_wait_s", now - item.enqueued)

    wrap(RequestScheduler, "_execute", "scheduler.execute",
         before=queue_waits, after=_count_payload(1))
    wrap(RequestScheduler, "_execute_control", "service.control")
    wrap(service_app.DocsService, "_execute_submit_batch",
         "service.submit_batch", after=_count_payload(2))
    wrap(service_app.DocsService, "_execute_assign_batch",
         "service.assign_batch", after=_count_payload(2))
    TRACER = tracer
    return tracer


def _count_payload(position: int) -> Callable:
    def record(tracer, span, args, result):
        span[5] = len(args[position])

    return record


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("name", "index")

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        self.index = TRACER.enter(self.name)
        return self

    def __exit__(self, *exc):
        TRACER.exit(self.index)
        return False


def span(name: str):
    """A benchmark-side span (a no-op context when tracing is off)."""
    if TRACER is None or not TRACER.enabled:
        return _NULL
    return _Span(name)


# -- analysis ---------------------------------------------------------------

def layer_of(name: str) -> str:
    """A span's layer: its name up to the first dot."""
    return name.split(".", 1)[0]


def _ms(values) -> List[float]:
    return [v / 1e6 for v in values]


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def analyse(dump: Dict[str, object]) -> Dict[str, object]:
    """Per-span durations, self times, and parent links of a dump."""
    spans = dump["spans"]
    count = len(spans)
    duration = [0] * count
    child_time = [0] * count
    for i, (name, start, end, parent, _tid, _n) in enumerate(spans):
        duration[i] = max(0, end - start)
    for i, span_ in enumerate(spans):
        if span_[3] >= 0:
            child_time[span_[3]] += duration[i]
    self_time = [duration[i] - child_time[i] for i in range(count)]
    return {
        "spans": spans, "duration": duration, "self": self_time,
    }


def ancestor_names(spans, index: int) -> List[str]:
    names = []
    parent = spans[index][3]
    while parent >= 0:
        names.append(spans[parent][0])
        parent = spans[parent][3]
    return names


def window_coverage(
    spans, start_ns: int, end_ns: int, thread: int
) -> float:
    """Nanoseconds of [start, end] covered by top-level spans of one
    thread (top-level spans of a thread never overlap)."""
    covered = 0
    for i, span_ in enumerate(spans):
        if span_[3] != -1 or span_[4] != thread:
            continue
        lo = max(span_[1], start_ns)
        hi = min(span_[2], end_ns)
        if hi > lo:
            covered += hi - lo
    return covered


def layer_metrics(
    dump: Dict[str, object], wall_s: float
) -> Dict[str, float]:
    """The per-layer metrics of one workload's traced section.

    ``wall_s`` is the wall time the shares are taken of (the campaign
    loop, the recover read side, or the scheduler's traced window).
    """
    info = analyse(dump)
    spans, duration, self_time = (
        info["spans"], info["duration"], info["self"]
    )
    by_name: Dict[str, List[int]] = {}
    for i, span_ in enumerate(spans):
        by_name.setdefault(span_[0], []).append(i)

    def durations(name: str) -> List[int]:
        return [duration[i] for i in by_name.get(name, [])]

    def total_s(name: str) -> float:
        return sum(durations(name)) / 1e9

    out: Dict[str, float] = {}
    samples = dump["samples"]
    out["datasets.make_s"] = total_s("datasets.make")
    for stage in ("link", "dve", "store", "register"):
        out[f"ingest.{stage}_s"] = float(
            sum(samples.get(f"ingest.{stage}_s", []))
        )
    out["golden.select_s"] = total_s("golden.select")

    # assign layer: per-arrival self time = the system-level call minus
    # the serving index's select calls beneath it.
    select_under: Dict[int, int] = {}
    for i in by_name.get("serving.select", []):
        parent = spans[i][3]
        while parent >= 0 and not spans[parent][0].startswith(
            "system.assign"
        ):
            parent = spans[parent][3]
        if parent >= 0:
            select_under[parent] = (
                select_under.get(parent, 0) + duration[i]
            )
    per_call: List[float] = []
    calls = 0
    for name in ("system.assign", "system.assign_many"):
        for i in by_name.get(name, []):
            batch = max(1, spans[i][5]) if name.endswith("many") else 1
            calls += batch
            own = (duration[i] - select_under.get(i, 0)) / batch
            per_call.extend([own] * batch)
    out["assign.calls"] = float(calls)
    out["assign.self_ms.p50"] = _pct(_ms(per_call), 50)
    out["assign.self_ms.p99"] = _pct(_ms(per_call), 99)
    out["serving.select_ms.p50"] = _pct(_ms(durations("serving.select")), 50)
    stats = dump["index_stats"]
    for key in (
        "cold_builds", "warm_hits", "rows_repaired", "full_selections",
    ):
        out[f"serving.{key}"] = float(stats.get(key, 0))
    lookups = stats.get("cold_builds", 0) + stats.get("warm_hits", 0)
    out["serving.warm_hit_ratio"] = (
        stats.get("warm_hits", 0) / lookups if lookups else 0.0
    )
    out["assign.kernel_rows_per_call"] = (
        dump["kernel_rows"] / calls if calls else 0.0
    )

    submits = durations("incremental.submit")
    out["incremental.submit.count"] = float(len(submits))
    out["incremental.submit_us.p50"] = _pct([v / 1e3 for v in submits], 50)
    out["rerun.resync_ms.p50"] = _pct(
        _ms(durations("incremental.resync")), 50
    )

    reruns, finals, rerun_infer = [], [], []
    for i in by_name.get("rerun.full", []):
        if "system.finalize" in ancestor_names(spans, i):
            finals.append(duration[i])
        else:
            reruns.append(duration[i])
    for i in by_name.get("rerun.infer", []):
        if "system.finalize" not in ancestor_names(spans, i):
            rerun_infer.append(duration[i])
    out["rerun.count"] = float(len(reruns))
    out["rerun.infer_ms.p50"] = _pct(_ms(rerun_infer), 50)
    out["rerun.infer_ms.max"] = max(_ms(rerun_infer), default=0.0)
    out["rerun.total_s"] = sum(reruns) / 1e9
    out["rerun.share"] = out["rerun.total_s"] / wall_s if wall_s else 0.0
    out["finalize.infer_s"] = sum(finals) / 1e9

    flushes = [i for i in by_name.get("journal.flush", []) if spans[i][5]]
    flush_ms = _ms([duration[i] for i in flushes])
    out["journal.flush.count"] = float(len(flushes))
    out["journal.flush_ms.p50"] = _pct(flush_ms, 50)
    out["journal.flush_ms.p99"] = _pct(flush_ms, 99)
    out["journal.rows_per_flush"] = (
        sum(spans[i][5] for i in flushes) / len(flushes) if flushes
        else 0.0
    )

    writes = _ms(durations("snapshot.write"))
    out["snapshot.count"] = float(len(writes))
    out["snapshot.write_ms.p50"] = _pct(writes, 50)
    out["snapshot.write_ms.max"] = max(writes, default=0.0)
    deltas = _ms(durations("worker_store.apply_delta"))
    out["worker_store.apply_delta.count"] = float(len(deltas))
    out["worker_store.apply_delta_ms.p50"] = _pct(deltas, 50)

    out["resume.load_snapshot_s"] = total_s("resume.load_snapshot")
    out["resume.rebuild_s"] = total_s("resume.rebuild")
    # Tail answers re-applied on resume (clean shutdowns leave none).
    out["resume.tail_entries"] = float(sum(
        1 for i in by_name.get("incremental.submit", [])
        if "resume.replay" in ancestor_names(spans, i)
    ))
    out["resume.tail_replay_s"] = max(
        0.0, total_s("resume.replay") - total_s("resume.restore_index")
    )

    for query in ("worker-accuracy", "convergence", "leaderboard", "spam"):
        out[f"analytics.{query}_ms"] = _pct(
            _ms(durations(f"analytics.{query}")), 50
        )

    waits = [v * 1e3 for v in samples.get("scheduler.queue_wait_s", [])]
    out["scheduler.queue_wait_ms.p50"] = _pct(waits, 50)
    out["scheduler.queue_wait_ms.p99"] = _pct(waits, 99)

    layers: Dict[str, float] = {}
    for i, span_ in enumerate(spans):
        layer = layer_of(span_[0])
        layers[layer] = layers.get(layer, 0.0) + self_time[i] / 1e9
    for layer in SELF_LAYERS:
        out[f"self_s.{layer}"] = layers.get(layer, 0.0)
    return out


#: Layers whose self time is reported (span-name prefixes).
SELF_LAYERS = (
    "system", "ingest", "golden", "datasets", "assign", "serving",
    "incremental", "rerun", "journal", "snapshot", "worker_store",
    "resume", "analytics", "scheduler", "service", "client",
)
