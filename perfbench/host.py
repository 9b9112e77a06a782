"""Process accounting and run metadata, read from outside the program.

CPU and peak memory of the load process come from ``getrusage`` and
``/proc/self/status``; those of the system's child processes (gateway
server, mesh peers) from ``/proc/<pid>/stat`` and ``/proc/<pid>/status``
while they are still alive.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_seconds(pids) -> float:
    """User+sys CPU seconds of this process plus the given children."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    for pid in pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            # fields after the ")" that closes comm; utime and stime are
            # fields 14 and 15 of the whole line
            fields = fh.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) * _TICK_S
    return total


def peak_rss_mib(pids) -> float:
    """Sum of VmHWM (peak resident set) of this process and the children."""
    total_kib = 0
    for pid in ["self", *pids]:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
                    break
    return total_kib / 1024.0


def speed_probe_ms() -> float:
    """A short fixed CPU workload, timed: drift on a shared box shows here."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    a = np.arange(40_000, dtype=np.float64).reshape(200, 200)
    for _ in range(5):
        a = (a @ a) % 1000.0
    return (time.perf_counter() - start) * 1e3


def _idle_ticks() -> dict[int, int]:
    """Idle plus iowait ticks of each CPU, from ``/proc/stat``."""
    ticks = {}
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            name, *fields = line.split()
            if name.startswith("cpu") and name != "cpu":
                ticks[int(name[3:])] = int(fields[3]) + int(fields[4])
    return ticks


def quietest_cpu(cpus, look_s: float = 0.3) -> int:
    """The CPU of ``cpus`` that stayed idle longest over a short look.

    Other tenants' processes share this machine's CPUs. A run pinned to
    a fixed CPU would land on a busy one as often as not; one pinned to
    the idlest leaves the scheduler free to keep the rest elsewhere. On a
    tie the highest-numbered CPU wins.
    """
    before = _idle_ticks()
    time.sleep(look_s)
    after = _idle_ticks()
    return max(cpus, key=lambda c: (after.get(c, 0) - before.get(c, 0), c))


def host_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the whole machine from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def steal_share(since: tuple[int, int]) -> float:
    """Share of CPU time the hypervisor took from this machine since ``since``."""
    steal, total = host_ticks()
    return (steal - since[0]) / max(1, total - since[1])


def git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git``; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(root: Path, seed: int) -> dict:
    return {
        "git_sha": git_sha(root),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "seed": seed,
        "loadavg_before": list(os.getloadavg()),
        "speed_probe_ms": speed_probe_ms(),
    }
