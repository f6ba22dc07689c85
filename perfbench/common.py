"""Shared plumbing: process-tree CPU/RSS, host speed, percentiles, run
bookkeeping.

CPU time and peak RSS are read from outside the program: the parent's
own ``time.process_time()`` plus, for every live descendant process,
the nanosecond run time in ``/proc/<pid>/task/*/schedstat`` (falling
back to ``utime + stime`` from ``/proc/<pid>/stat``) and ``VmHWM`` from
``/proc/<pid>/status``.  Persistent pool workers never reach
``RUSAGE_CHILDREN`` while they live, so reading them directly is the
only way to count their CPU inside a run; ``RUSAGE_CHILDREN`` still
covers any descendant reaped mid-measurement.
"""

from __future__ import annotations

import bisect
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

_TICK_NS = 1e9 / os.sysconf("SC_CLK_TCK")


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return None


def descendants(root: int | None = None) -> list[int]:
    """Pids of every live descendant of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        stat = _read(f"/proc/{name}/stat")
        if stat is None:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) < 2:
            continue
        children.setdefault(int(fields[1]), []).append(int(name))
    found: list[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def process_cpu_ns(pid: int) -> int | None:
    """CPU nanoseconds ``pid`` has run (all threads), or None if gone."""
    total = 0
    seen = False
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        tids = []
    for tid in tids:
        text = _read(f"/proc/{pid}/task/{tid}/schedstat")
        if text:
            total += int(text.split()[0])
            seen = True
    if seen and total > 0:
        return total
    stat = _read(f"/proc/{pid}/stat")
    if stat is None:
        return None
    fields = stat[stat.rfind(")") + 2:].split()
    return int((int(fields[11]) + int(fields[12])) * _TICK_NS)


def process_hwm_bytes(pid: int) -> int:
    """Peak resident set (``VmHWM``) of ``pid`` in bytes (0 if gone)."""
    text = _read(f"/proc/{pid}/status")
    if text is None:
        return 0
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    return 0


def _children_rusage_ns() -> int:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((usage.ru_utime + usage.ru_stime) * 1e9)


@dataclass(frozen=True)
class CpuSnapshot:
    """CPU counters of this process and its descendants at one instant."""

    self_ns: int
    reaped_ns: int
    per_pid: dict[int, int]

    @classmethod
    def take(cls) -> "CpuSnapshot":
        per_pid = {}
        for pid in descendants():
            ns = process_cpu_ns(pid)
            if ns is not None:
                per_pid[pid] = ns
        return cls(
            self_ns=time.process_time_ns(),
            reaped_ns=_children_rusage_ns(),
            per_pid=per_pid,
        )


def cpu_between(a: CpuSnapshot, b: CpuSnapshot) -> tuple[float, float]:
    """(parent seconds, descendant seconds) of CPU spent from ``a`` to ``b``.

    A descendant alive at ``a`` but reaped before ``b`` reached
    ``RUSAGE_CHILDREN`` with its whole lifetime, so its ``a`` reading
    is subtracted from the rusage delta.
    """
    workers = b.reaped_ns - a.reaped_ns
    for pid, ns in b.per_pid.items():
        workers += ns - a.per_pid.get(pid, 0)
    for pid, ns in a.per_pid.items():
        if pid not in b.per_pid:
            workers -= ns
    return (b.self_ns - a.self_ns) / 1e9, max(0, workers) / 1e9


def tree_peak_rss_mb() -> float:
    """Sum of peak RSS over this process and its live descendants (MB)."""
    total = process_hwm_bytes(os.getpid())
    for pid in descendants():
        total += process_hwm_bytes(pid)
    return total / 1e6


#: Iterations of the host-speed probe loop: about 0.3 ms of CPU.
PROBE_LOOPS = 4_000
#: How often the probe thread reads the host (seconds).
PROBE_EVERY_S = 0.02
#: A reading on the reference host (2-vCPU x86_64 VM, CPython 3.11)
#: when nothing else slows it: times are reported at this speed.
PROBE_REF_S = 0.25e-3
#: Readings this long before a sample starts also count for it, so
#: that a short sample has several (seconds).
PROBE_LEAD_S = 0.1


def _probe_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def probe_s() -> float:
    """One host-speed reading: this thread's CPU seconds for the fixed
    probe loop, which no program code shares, so a program change
    cannot move it.  CPU time, not wall time, so waiting for the GIL
    or for a CPU does not count."""
    start = time.thread_time()
    _probe_loop(PROBE_LOOPS)
    return time.thread_time() - start


class HostSpeed:
    """Host-speed readings from a background thread, to scale each
    timed sample to the reference host speed.

    The benchmark's host is a shared VM whose speed drifts by tens of
    percent within seconds, in CPU time as much as in wall time.  While
    it is open, a thread takes one reading every ``PROBE_EVERY_S``
    (under 2% of one CPU).  A sample's times are scaled by
    ``PROBE_REF_S`` over the median of the readings taken while it ran.
    Use as a context manager: the thread stops on every way out.
    """

    def __init__(self) -> None:
        self.readings: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._read, name="host-speed", daemon=True
        )
        self._thread.start()

    def _read(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            reading = probe_s()
            self.readings.append((time.perf_counter(), reading))

    def scale(self, start: float, end: float) -> float:
        """Scale for a sample that ran from ``start`` to ``end``
        (``time.perf_counter()`` seconds)."""
        taken = self.readings[:]
        first = bisect.bisect_left(
            taken, start - PROBE_LEAD_S, key=lambda r: r[0]
        )
        last = bisect.bisect_right(taken, end, key=lambda r: r[0])
        window = [r for _t, r in taken[first:last]]
        if not window:
            window = [probe_s()]
        return PROBE_REF_S / median(window)

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def context(self) -> dict:
        readings = [r for _t, r in self.readings]
        context = {"probe_readings": len(readings)}
        if readings:
            context["probe_us_median"] = round(median(readings) * 1e6, 3)
        return context


def percentile(values: list[float], pct: int) -> float:
    """Linear-interpolated percentile, ``pct`` a whole number in 1..99."""
    if not values:
        raise ValueError("percentile of no samples")
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def median(values: list[float]) -> float:
    return float(statistics.median(values))


class CheckFailed(Exception):
    """An output check failed; the run reports no numbers."""


@dataclass
class RunState:
    """Attempt/failure bookkeeping and the metrics one run reports."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    context: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, ok: bool, message: str) -> None:
        """A correctness check: a false one fails the whole run."""
        if not ok:
            self.errors.append(message)
            raise CheckFailed(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)
