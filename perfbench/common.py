"""Shared helpers of the benchmark: statistics, spans, process facts.

Nothing here imports the program under test, so the parent runner can
use it before it knows whether the checkout holds a program at all.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager

MAX_TRACE_EVENTS = 50_000
"""Spans written to the Chrome trace; metrics use every span recorded."""


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _reference_loop() -> int:
    total = 0
    for i in range(20_000):
        total += i
    return total


def reference_s(reps: int = 5) -> float:
    """Median seconds of the reference op: 20,000 pure-Python additions.

    The reference op shares no code with the program.  Workloads time it
    beside their ops and report op times in units of it, which cancels
    the speed swings of a shared host (see ``README.md``, Steadiness).
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return median(times)


# ---------------------------------------------------------------------------
# Process facts


def _status_kb(pid, field: str) -> float | None:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size of a process in MiB (``VmHWM``)."""
    kb = _status_kb(pid, "VmHWM")
    if kb is None and pid == "self":
        import resource

        kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if kb is None:
        raise OSError(f"cannot read the peak RSS of process {pid}")
    return kb / 1024.0


def reset_peak_rss() -> bool:
    """Reset this process's ``VmHWM`` so the peak covers only what follows.

    The inputs and oracle outputs are built before the timed region;
    resetting here keeps them out of the program's peak.  Returns
    False where the kernel refuses (the peak then covers the whole run).
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def cache_sizes() -> dict:
    """Data/unified cache sizes per level from sysfs, e.g. ``{"L2": "2048K"}``."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(f"{base}/{entry}/level") as f:
                level = f.read().strip()
            with open(f"{base}/{entry}/type") as f:
                kind = f.read().strip()
            with open(f"{base}/{entry}/size") as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_info() -> dict:
    """The stamp every result carries: fingerprint, cores, threads, caches."""
    from repro.tune.fingerprint import machine_fingerprint

    return {
        "fingerprint": machine_fingerprint(),
        "nproc": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "caches": cache_sizes(),
    }


# ---------------------------------------------------------------------------
# Spans


class Spans:
    """In-memory spans recorded around calls into the program's layers.

    Each span has a name, a start and an end (``perf_counter_ns``) and
    the index of the span that was open when it started.  Spans are kept
    in memory and written out as a Chrome trace when the run ends.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.args: list[dict | None] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, args: dict | None = None):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.args.append(args)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        try:
            yield index
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._stack.pop()

    def duration_ns(self, index: int) -> int:
        return self.ends[index] - self.starts[index]

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the time its direct children cover."""
        self_ns = [self.duration_ns(i) for i in range(len(self.names))]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                self_ns[parent] -= self.duration_ns(i)
        return self_ns

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the first ``MAX_TRACE_EVENTS`` spans as Chrome-trace JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min(self.starts) if self.starts else 0
        pid = os.getpid()
        metadata = dict(metadata, spans=len(self.names), written=min(len(self.names), MAX_TRACE_EVENTS))
        with open(path, "w") as handle:
            handle.write('{"metadata": %s, "traceEvents": [' % json.dumps(metadata))
            for i, name in enumerate(self.names[:MAX_TRACE_EVENTS]):
                args = {"parent": self.parents[i], **(self.args[i] or {})}
                event = {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (self.starts[i] - origin) / 1000.0,
                    "dur": self.duration_ns(i) / 1000.0,
                    "pid": pid,
                    "tid": 0,
                    "args": args,
                }
                handle.write(("," if i else "") + json.dumps(event))
            handle.write("]}\n")


class LayerStats:
    """Per-layer sums over recorded spans: count, total and self time."""

    def __init__(self, spans: Spans) -> None:
        self.count: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self_times = spans.self_times_ns()
        for i, name in enumerate(spans.names):
            self.count[name] = self.count.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + spans.duration_ns(i)
            self.self_ns[name] = self.self_ns.get(name, 0) + self_times[i]

    def mean_us(self, name: str, self_time: bool = False) -> float:
        """Mean duration per call in µs; 0 when the layer was not called."""
        calls = self.count.get(name, 0)
        if not calls:
            return 0.0
        total = (self.self_ns if self_time else self.total_ns)[name]
        return total / calls / 1000.0
