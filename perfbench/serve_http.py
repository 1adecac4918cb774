"""``serve-http``: open-loop HTTP load against a ``repro serve`` child.

A ``repro serve --db-dir`` subprocess hosts one sqlite campaign created
with ``POST /campaigns`` (4d, n = 4 x ``tasks_per_domain``) on the
service's shared worker store; set-up is that request, repeated on
throwaway campaigns. Every simulated worker bootstraps over HTTP, and
the server is stopped and its directory copied.

The load then replays twice, once on each identical copy reopened with
``serve --resume``: sessions arrive on a fixed schedule at the nominal
100 req/s, each ``GET .../assignment?k=3`` followed by one
``POST /answers`` per returned task, all due when the HIT arrives.
Every request is timed from when it was due, so a stall is charged to
every request queued behind it, and the latency of request i is the
faster of its two replays. The client is one asyncio process holding at
most ``nproc`` keep-alive connections, closed before each SIGTERM.
After each replay a checkpoint must show every acked answer among the
journal's committed rows, then analytics passes and ``finalize`` run
over HTTP. Both restarts must reopen the digest the set-up server
left.

Request latencies are wall time from when each request was due. Set-up
and start-up (``resume_s``) are the server child's CPU time, read from
/proc around the request and when it announces its port (see
``common.cpu_clock``).
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import tracing as bench_trace
from common import (
    child_env, percentile, proc_cpu_s, proc_peak_rss_mb, work_dir,
)
from inputs import CORPUS_SEED, DATASET, make_inputs

HERE = Path(__file__).resolve().parent

PARAMS = {
    "full": {
        "tasks_per_domain": 1000, "workers": 200, "k": 3, "setups": 3,
        "nominal_rps": 100.0, "nominal_s": 12.0, "read_passes": 5,
        "spare_restarts": 2,
    },
    "toy": {
        "tasks_per_domain": 30, "workers": 20, "k": 3, "setups": 2,
        "nominal_rps": 40.0, "nominal_s": 1.5, "read_passes": 2,
        "spare_restarts": 1,
    },
}
CAMPAIGN = "bench"


class Connection:
    """One keep-alive HTTP/1.1 connection (JSON in, JSON out)."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def request(
        self, method: str, path: str, body: Optional[object] = None
    ) -> Tuple[int, Dict[str, object]]:
        data = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        )
        self.writer.write(head.encode("latin-1") + data)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            if key.strip().lower() == "content-length":
                length = int(value.strip())
        payload = await self.reader.readexactly(length) if length else b""
        return status, (json.loads(payload) if payload else {})

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None


class Client:
    """At most ``size`` connections, shared by all in-flight requests."""

    def __init__(self, host: str, port: int, size: int):
        self.host, self.port, self.size = host, port, size
        self.idle: asyncio.Queue = asyncio.Queue()
        self.conns: List[Connection] = []
        self.statuses: Dict[int, int] = {}
        self.transport_errors = 0
        self.in_flight = 0
        self.max_in_flight = 0

    async def open(self) -> "Client":
        for _ in range(self.size):
            conn = await Connection(self.host, self.port).open()
            self.conns.append(conn)
            self.idle.put_nowait(conn)
        return self

    async def call(
        self, method: str, path: str, body: Optional[object] = None
    ) -> Tuple[int, Dict[str, object]]:
        conn = await self.idle.get()
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            status, payload = await conn.request(method, path, body)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            self.transport_errors += 1
            await conn.close()
            conn = await Connection(self.host, self.port).open()
            self.conns.append(conn)
            status, payload = 0, {}
        finally:
            self.in_flight -= 1
            self.idle.put_nowait(conn)
        self.statuses[status] = self.statuses.get(status, 0) + 1
        return status, payload

    @property
    def failed(self) -> int:
        return self.transport_errors + sum(
            count for status, count in self.statuses.items()
            if not 200 <= status < 300
        )

    @property
    def attempted(self) -> int:
        return sum(self.statuses.values())

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()


class Server:
    """A ``repro serve`` child process (optionally span-traced)."""

    def __init__(
        self, db_dir: Path, log: Path, spans: Optional[Path],
        resume: bool = False,
    ):
        argv = [
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--db-dir", str(db_dir),
        ] + (["--resume"] if resume else [])
        if spans is not None:
            cmd = [sys.executable, str(HERE / "serve_traced.py"),
                   str(spans)] + argv
        else:
            cmd = [sys.executable, "-m", "repro"] + argv
        self.log_path = log
        self._log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=child_env(),
        )
        self.port = None
        for line in self.proc.stdout:
            if line.startswith("serving on http://"):
                self.port = int(line.rsplit(":", 1)[1])
                break
        if self.port is None:
            self.stop()
            raise RuntimeError(
                f"server failed to start; see {log}:\n" + self.stderr()
            )
        # Start-up cost: the child's CPU time (interpreter, imports,
        # resume) until it announces its port; see common.cpu_clock.
        self.ready_s = self.cpu_s()

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return code

    def stderr(self) -> str:
        if not self._log.closed:
            self._log.flush()
        return self.log_path.read_text(encoding="utf-8")


class Phase:
    """Latency samples of one open-loop stretch, keyed by request.

    ``assign_ms[i]`` is session ``i``'s assignment; ``submit_ms[(i, j)]``
    its ``j``-th answer. Keys let two replays of the same schedule be
    paired request by request.
    """

    def __init__(self) -> None:
        self.assign_ms: Dict[int, float] = {}
        self.submit_ms: Dict[Tuple[int, int], float] = {}
        self.lateness_ms: List[float] = []
        self.failed = 0
        self.seconds = 0.0
        self.overloaded = False


class Load:
    """The open-loop session generator."""

    def __init__(self, client: Client, inputs, k: int, seed: int):
        self.client = client
        self.inputs = inputs
        self.k = k
        self.rng = np.random.default_rng((seed, 0x5E5))
        self.busy: set = set()
        self.answered: Dict[str, set] = {}
        self.acked: List[Tuple[str, int]] = []
        self.repeats = 0

    def _next_worker(self) -> str:
        """A uniform-random worker with no session in flight (two
        overlapping sessions could be handed the same task)."""
        ids = self.inputs.worker_ids
        while True:
            worker = ids[int(self.rng.integers(len(ids)))]
            if worker not in self.busy:
                self.busy.add(worker)
                return worker

    async def session(
        self, index: int, due: float, worker: str, phase: Phase
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            status, body = await self.client.call(
                "GET",
                f"/campaigns/{CAMPAIGN}/workers/{worker}/assignment"
                f"?k={self.k}",
            )
            arrived = loop.time()
            phase.assign_ms[index] = (arrived - due) * 1e3
            if status != 200:
                phase.failed += 1
                return
            picks = body["task_ids"]
            seen = self.answered.setdefault(worker, set())
            self.repeats += sum(1 for t in picks if t in seen)
            seen.update(picks)
            with bench_trace.span("client.answers"):
                answers = [
                    (t, self.inputs.answer(worker, t)) for t in picks
                ]
            await asyncio.gather(*(
                self._submit((index, j), worker, task_id, choice,
                             arrived, phase)
                for j, (task_id, choice) in enumerate(answers)
            ))
        finally:
            self.busy.discard(worker)

    async def _submit(self, key, worker, task_id, choice, due, phase):
        status, _ = await self.client.call(
            "POST", f"/campaigns/{CAMPAIGN}/answers",
            {"worker_id": worker, "task_id": task_id, "choice": choice},
        )
        phase.submit_ms[key] = (
            asyncio.get_running_loop().time() - due
        ) * 1e3
        if status != 200:
            phase.failed += 1
        else:
            self.acked.append((worker, task_id))

    async def run_phase(self, rate: float, seconds: float) -> Phase:
        """Sessions at ``rate`` requests/s (1 + k requests each)."""
        loop = asyncio.get_running_loop()
        phase = Phase()
        interval = (1 + self.k) / rate
        count = max(1, int(round(seconds / interval)))
        start = loop.time() + 0.01
        tasks = []
        for index in range(count):
            due = start + index * interval
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if len(self.busy) * 2 >= len(self.inputs.worker_ids):
                # Half the crowd is stuck in flight: the backlog is
                # growing without bound.
                phase.overloaded = True
                break
            phase.lateness_ms.append((loop.time() - due) * 1e3)
            tasks.append(asyncio.ensure_future(
                self.session(index, due, self._next_worker(), phase)
            ))
        await asyncio.gather(*tasks)
        phase.seconds = loop.time() - start
        return phase


def expect(status: int, body: Dict[str, object], want: int = 200) -> None:
    if status != want:
        raise RuntimeError(f"expected HTTP {want}, got {status}: {body}")


def committed_pairs(db_path: Path) -> set:
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        rows = conn.execute(
            "SELECT worker_id, task_id FROM answers_log WHERE kind = 0 "
            "UNION ALL SELECT worker_id, task_id FROM answers_archive"
        ).fetchall()
    finally:
        conn.close()
    return {(w, t) for w, t in rows}


def copy_campaign_dir(src: Path, dst: Path) -> None:
    """Copy a stopped server's ``--db-dir``, pointing the campaign
    sidecar at the copy so ``serve --resume`` reopens the copy."""
    shutil.copytree(src, dst)
    sidecar = dst / f"{CAMPAIGN}.meta.json"
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    meta["path"] = str(dst / f"{CAMPAIGN}.db")
    sidecar.write_text(json.dumps(meta, indent=2), encoding="utf-8")


async def _drive(seed, params, traced, out) -> Dict[str, object]:
    from repro.analytics import QUERY_NAMES

    inputs = make_inputs(seed, params["tasks_per_domain"], params["workers"])
    nproc = os.cpu_count() or 1
    db_dirs = [out / "db-a", out / "db-b"]
    r: Dict[str, object] = {
        "nproc": nproc, "spans": [], "resume_s": [], "rss": [],
        "stderr": [], "attempted": 0, "failed": 0, "five_xx": 0,
        "max_in_flight": 0, "digests": [], "lost": [], "replays": [],
        "analytics_ms": [], "finalize_s": [],
    }

    def start(db_dir: Path, name: str, trace: bool, resume: bool = True):
        spans = out / f"spans-{name}.json" if trace else None
        if spans is not None:
            r["spans"].append(spans)
        return Server(db_dir, out / f"server-{name}.log", spans,
                      resume=resume)

    async def against(server: Server, body) -> None:
        """Run ``body(client)`` on ``server``, then close the client's
        connections before the server gets its SIGTERM."""
        client = None
        try:
            client = await Client("127.0.0.1", server.port, nproc).open()
            await body(client)
            r["rss"].append(server.peak_rss_mb())
        finally:
            if client is not None:
                r["attempted"] += client.attempted
                r["failed"] += client.failed
                r["five_xx"] += sum(
                    c for s, c in client.statuses.items() if s >= 500
                )
                r["max_in_flight"] = max(
                    r["max_in_flight"], client.max_in_flight
                )
                await client.close()
            server.stop()
            r["stderr"].append(server.stderr())

    async def checkpoint(client: Client, db_dir: Path, acked) -> None:
        status, body = await client.call(
            "POST", f"/campaigns/{CAMPAIGN}/checkpoint"
        )
        expect(status, body)
        committed = committed_pairs(db_dir / f"{CAMPAIGN}.db")
        r["lost"].append(len(set(acked) - committed))

    async def digest(client: Client) -> str:
        status, summary = await client.call("GET", f"/campaigns/{CAMPAIGN}")
        expect(status, summary)
        return summary["hot_state_digest"]

    async def create(client: Client) -> None:
        # Set-up cost is the server's CPU time for the request (see
        # common.cpu_clock); the client only waits.
        body = {
            "dataset": DATASET, "seed": CORPUS_SEED, "storage": "sqlite",
            "dataset_overrides": {
                "tasks_per_domain": params["tasks_per_domain"]
            },
        }
        r["setup_s"] = []
        for index in range(params["setups"]):
            name = CAMPAIGN if index == params["setups"] - 1 else (
                f"setup{index}"
            )
            tic = setup_server.cpu_s()
            status, created = await client.call(
                "POST", "/campaigns", dict(body, name=name)
            )
            r["setup_s"].append(setup_server.cpu_s() - tic)
            expect(status, created, 201)
            if name != CAMPAIGN:
                # Throwaway set-up: close it and drop its files so the
                # restarts reopen only the measured campaign.
                status, deleted = await client.call(
                    "DELETE", f"/campaigns/{name}"
                )
                expect(status, deleted)
                for suffix in (".db", ".db-wal", ".db-shm", ".meta.json"):
                    path = db_dirs[0] / f"{name}{suffix}"
                    if path.exists():
                        path.unlink()
        golden = created["golden_task_ids"]

        async def bootstrap(worker):
            status, body = await client.call(
                "POST", f"/campaigns/{CAMPAIGN}/workers/{worker}/bootstrap",
                {"answers": [
                    {"task_id": a.task_id, "choice": a.choice}
                    for a in inputs.golden_answers(worker, golden)
                ]},
            )
            expect(status, body)

        await asyncio.gather(*(bootstrap(w) for w in inputs.worker_ids))
        await checkpoint(client, db_dirs[0], [])
        r["digests"].append(await digest(client))

    setup_server = start(db_dirs[0], "setup", traced, resume=False)
    await against(setup_server, create)
    copy_campaign_dir(db_dirs[0], db_dirs[1])
    # Spare copies only give more start-up (resume_s) samples, taken
    # before and after the replays so that a short slow phase of a
    # shared host cannot cover them all.
    spares = [out / f"db-spare{i}" for i in range(params["spare_restarts"])]
    for spare in spares:
        copy_campaign_dir(db_dirs[0], spare)

    def restart(db_dir: Path) -> None:
        server = start(db_dir, db_dir.name, False)
        r["resume_s"].append(server.ready_s)
        server.stop()
        r["stderr"].append(server.stderr())

    restart(spares[0])

    async def read(client: Client) -> None:
        # Analytics passes and finalize calls alternate, and each replay
        # (about 20 s apart) runs its own share, so a slow phase of a
        # shared host cannot cover every sample.
        for _ in range(params["read_passes"]):
            tic = time.perf_counter()
            for query in QUERY_NAMES:
                status, body = await client.call(
                    "GET", f"/campaigns/{CAMPAIGN}/analytics/{query}"
                )
                expect(status, body)
            r["analytics_ms"].append((time.perf_counter() - tic) * 1e3)
            tic = time.perf_counter()
            status, final = await client.call(
                "POST", f"/campaigns/{CAMPAIGN}/finalize"
            )
            r["finalize_s"].append(time.perf_counter() - tic)
            expect(status, final)
        r["truths"] = {int(t): v for t, v in final["truths"].items()}

    # The same schedule replays on two identical copies of the
    # bootstrapped campaign; request i of one replay is request i of the
    # other, so the faster of each pair is the program's latency. In a
    # traced run only the second replay is traced, and the difference
    # between the replays is the tracing overhead.
    for index, db_dir in enumerate(db_dirs):
        server = start(db_dir, f"replay{index}", traced and index == 1)
        r["resume_s"].append(server.ready_s)

        async def replay(client: Client, db_dir=db_dir) -> None:
            r["digests"].append(await digest(client))
            load = Load(client, inputs, params["k"], seed)
            tic = time.perf_counter()
            phase = await load.run_phase(
                params["nominal_rps"], params["nominal_s"]
            )
            window = (tic, time.perf_counter())
            status, metricsz = await client.call("GET", "/metricsz")
            expect(status, metricsz)
            await checkpoint(client, db_dir, load.acked)
            r["replays"].append({
                "load": load, "phase": phase, "window": window,
                "scheduler": metricsz["scheduler"],
            })
            await read(client)

        await against(server, replay)

    for spare in spares[1:]:
        restart(spare)

    r.update({
        "accuracy": inputs.accuracy(r["truths"]),
        "finalized_all": set(r["truths"]) == set(inputs.truth),
        "server_stderr": "".join(r["stderr"])[-4000:],
        "db_bytes": (db_dirs[1] / f"{CAMPAIGN}.db").stat().st_size,
    })
    return r


def paired_fastest(a: Dict, b: Dict) -> List[float]:
    """Request-by-request minimum of two replays of one schedule."""
    return [min(a[key], b[key]) for key in a if key in b]


def run(seed: int, seconds: int, traced: bool, scale: str):
    params = PARAMS[scale]
    out = work_dir(f"serve-http-{seed}")
    r = asyncio.run(_drive(seed, params, traced, out))
    first, second = (rep["phase"] for rep in r["replays"])
    assign_ms = paired_fastest(first.assign_ms, second.assign_ms)
    submit_ms = paired_fastest(first.submit_ms, second.submit_ms)
    acked = [len(rep["load"].acked) for rep in r["replays"]]
    # Repeated identical operations (restarts, analytics passes,
    # finalize calls) report their fastest repetition, and set-ups their
    # median, as the in-process workloads do.
    metrics = {
        "setup_s": float(np.median(r["setup_s"])),
        "answers_per_s": max(
            n / rep["phase"].seconds for n, rep in zip(acked, r["replays"])
        ),
        "finalize_s": min(r["finalize_s"]),
        "accuracy": r["accuracy"],
        "assign_p50_ms": percentile(assign_ms, 50),
        "assign_p90_ms": percentile(assign_ms, 90),
        "submit_p50_ms": percentile(submit_ms, 50),
        "submit_p90_ms": percentile(submit_ms, 90),
        "resume_s": min(r["resume_s"]),
        "analytics_ms": min(r["analytics_ms"]),
        "peak_rss_mb": max(r["rss"]),
    }
    digests = r["digests"]
    gates = {
        "zero_5xx": r["five_xx"] == 0,
        "zero_acked_answer_loss": sum(r["lost"]) == 0,
        # Both replays reopen the checkpointed bootstrap state.
        "digest_matches_after_restart": (
            digests[0] is not None and digests[1] == digests[0]
            and digests[2] == digests[0]
        ),
        "no_repeated_task_in_hit": all(
            rep["load"].repeats == 0 for rep in r["replays"]
        ),
        "every_task_finalized": r["finalized_all"],
        "nominal_rate_sustained": all(
            rep["phase"].failed == 0 and not rep["phase"].overloaded
            for rep in r["replays"]
        ),
        "replays_paired": len(assign_ms) == len(first.assign_ms),
        f"connections<=nproc({r['nproc']})": r["max_in_flight"] <= r["nproc"],
    }
    result = {
        "metrics": metrics,
        "gates": gates,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "samples": {
            "assign": len(assign_ms), "submit": len(submit_ms),
            "acked": acked,
            "setup_s": r["setup_s"], "resume_s": r["resume_s"],
            "lateness_ms_p99": [
                round(percentile(rep["phase"].lateness_ms, 99), 3)
                for rep in r["replays"]
            ],
        },
        "params": dict(params, dataset=DATASET, storage="sqlite",
                       connections=r["nproc"]),
        "server_stderr": r["server_stderr"],
    }
    if traced:
        result.update(_per_layer(r))
    return result


def _per_layer(r) -> Dict[str, object]:
    dumps = [json.loads(path.read_text()) for path in r["spans"]]
    dump = merge_dumps(dumps)
    info = bench_trace.analyse(dump)
    spans, duration, self_time = info["spans"], info["duration"], info["self"]
    executes = [
        i for i, s in enumerate(spans) if s[0] == "scheduler.execute"
    ]
    busy = sum(duration[i] for i in executes)
    layer = bench_trace.layer_metrics(dump, busy / 1e9)
    untraced, traced = r["replays"]
    lo, hi = (int(t * 1e9) for t in traced["window"])
    busy_traced = sum(
        max(0, min(spans[i][2], hi) - max(spans[i][1], lo))
        for i in executes
    )
    scheduler = traced["scheduler"]
    batches = scheduler["batches"]["submit"]
    assign_ms = list(traced["phase"].assign_ms.values())
    layer["scheduler.busy_share"] = busy_traced / (hi - lo)
    layer["scheduler.submit_batch_size"] = (
        scheduler["completed"]["submit"] / batches if batches else 0.0
    )
    layer["scheduler.rejected_429"] = float(scheduler["rejected_429"])
    layer["http.overhead_ms.p50"] = (
        percentile(assign_ms, 50)
        - scheduler["latency"]["assign"]["p50_ms"]
    )
    layer["client.lateness_ms.p99"] = percentile(
        traced["phase"].lateness_ms, 99
    )
    layer["client.in_flight.max"] = float(r["max_in_flight"])
    layer["snapshot.db_bytes"] = float(r["db_bytes"])
    layer["trace.unaccounted_share"] = (
        sum(self_time[i] for i in executes) / busy if busy else 0.0
    )
    layer["trace.overhead_share"] = (
        percentile(assign_ms, 50)
        / percentile(list(untraced["phase"].assign_ms.values()), 50) - 1.0
    )
    return {"per_layer": layer, "dump": dump}


def merge_dumps(dumps: List[Dict[str, object]]) -> Dict[str, object]:
    """Concatenate span dumps of several processes (parents re-based)."""
    spans: List[list] = []
    samples: Dict[str, List[float]] = {}
    stats: Dict[str, int] = {}
    kernel_rows = 0
    for dump in dumps:
        base = len(spans)
        for span_ in dump["spans"]:
            span_ = list(span_)
            if span_[3] >= 0:
                span_[3] += base
            spans.append(span_)
        for key, values in dump["samples"].items():
            samples.setdefault(key, []).extend(values)
        for key, value in dump["index_stats"].items():
            stats[key] = stats.get(key, 0) + value
        kernel_rows += dump["kernel_rows"]
    return {"spans": spans, "samples": samples, "index_stats": stats,
            "kernel_rows": kernel_rows}
