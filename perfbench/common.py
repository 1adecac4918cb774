"""Shared helpers: statistics, run metadata, work directories."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import sqlite3
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

#: The checkout root (the benchmark runs from any working directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for campaign files and span dumps (git-ignored).
OUT = ROOT / ".bench_out"

#: The clock of every in-process timing: CPU time of this process (user
#: + system, all threads). The timed calls are synchronous and compute
#: bound, so on an idle host their wall time is this; on a shared host
#: wall time also counts the time other tenants hold the cores. A fixed
#: 20 ms Python + NumPy loop timed 25 times on a 2-core Linux VM with two
#: busy processes beside it read 60 ms wall (quartile spread 0.21 of the
#: median) but 20.4 ms CPU (spread 0.027). Linux built with
#: PARAVIRT_TIME_ACCOUNTING charges a preempted vCPU's steal time to no
#: task, so the hypervisor's preemption is left out as well.
cpu_clock = time.process_time

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """CPU time (user + system, all threads) a live process has used so
    far, from /proc (clock-tick resolution, 10 ms on usual kernels)."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        # Fields after the parenthesised command name; utime and stime
        # are fields 14 and 15 of the whole line.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def fastest(runs: List[List[float]]) -> List[float]:
    """Element-wise minimum over repetitions of identical work.

    On a shared host a single timing of the same operation varies by up
    to 2x while its minimum stays within a few percent (the reasoning
    behind ``timeit`` reporting the minimum): the excess is other
    processes' interference, not the program. Each repetition replays
    the same inputs, so sample ``i`` of every repetition timed the same
    operation.
    """
    if len({len(run) for run in runs}) != 1:
        raise ValueError("repetitions timed different operation counts")
    return [min(samples) for samples in zip(*runs)]


def warm_imports() -> None:
    """Import what the program imports lazily on first use, so no timed
    repetition pays the once-per-process import cost."""
    import repro.analytics  # noqa: F401
    import repro.engines.registry  # noqa: F401
    import repro.system  # noqa: F401


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live child process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def work_dir(name: str) -> Path:
    """A fresh, empty directory under the checkout's scratch space."""
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env() -> Dict[str, str]:
    """Environment for child Python processes: the checkout's ``src``
    first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metadata(seed: int, workload: str, params: Dict[str, object]):
    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "argv": sys.argv[1:],
    }
