"""Host-scaled windows, percentiles and machine facts shared by every workload."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

#: Iterations of the arithmetic part and of the scattered-read part of the
#: fixed loop behind :func:`probe_s`.
_PROBE_ITERATIONS = 2_000
_PROBE_READS = 700
#: What the scattered reads read: 2**16 distinct int objects (about 2.4 MB).
_PROBE_TABLE = list(range(1 << 20, (1 << 20) + (1 << 16)))
#: Seconds :func:`probe_s` takes when the host runs at full speed (its fastest
#: readings on a 2-vCPU x86-64 VM with Python 3.11).  Scaled figures are the
#: ones such a host would give.
REFERENCE_PROBE_S = 0.0005
#: Probe passes around each set-up; their mean sets its host slowdown.
_SETUP_PROBES = 5


def percentile(values: Sequence[float], fraction: float) -> float:
    """The *fraction* quantile of *values* by linear interpolation.

    ``percentile(v, 0.5)`` is the median; with one value that value is every
    percentile.  Raises ``ValueError`` on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * weight


def probe_s() -> float:
    """Seconds one pass of a fixed pure-Python loop takes right now.

    The loop does the kinds of interpreter work the program does — integer
    arithmetic, dict stores, small allocations, and reads scattered over
    more objects than the first-level caches hold — and nothing else, so its
    time tracks how fast the host runs at this moment and never depends on
    the program.  Under load, the arithmetic part slows more than the
    program does and the scattered reads less; about three quarters of the
    probe's time goes to arithmetic, where its slowdown lies between those
    of the serve and the cold workloads.
    """
    started = time.perf_counter()
    total = 0
    table: dict[int, int] = {}
    texts: list[str] = []
    for i in range(_PROBE_ITERATIONS):
        total += i * i % 7
        table[i & 255] = total
        texts.append(str(i))
    key = 1
    mask = len(_PROBE_TABLE) - 1
    for _ in range(_PROBE_READS):
        key = (key * 1103515245 + 12345) & mask
        total += _PROBE_TABLE[key]
    return time.perf_counter() - started


def host_probe_ms(repeats: int = 15) -> float:
    """Median :func:`probe_s` in milliseconds: a diagnostic printed with every run."""
    return statistics.median(probe_s() for _ in range(repeats)) * 1000.0


@dataclass
class Window:
    """Whole request cycles timed back to back, with the probes taken between them."""

    busy_s: float = 0.0
    requests: int = 0
    latencies_s: list[float] = field(default_factory=list)
    probes_s: list[float] = field(default_factory=list)

    @property
    def slowdown(self) -> float:
        """How many times slower than at full speed the host ran in this window."""
        return statistics.fmean(self.probes_s) / REFERENCE_PROBE_S

    def rate(self, scaled: bool = True) -> float:
        """Requests per second, at full host speed unless *scaled* is false."""
        return self.requests / self.busy_s * (self.slowdown if scaled else 1.0)

    def latencies(self, scaled: bool = True) -> list[float]:
        """Latency samples in seconds, at full host speed unless *scaled* is false."""
        divisor = self.slowdown if scaled else 1.0
        return [latency / divisor for latency in self.latencies_s]


class HostScaledWindows:
    """Cycles grouped into windows of at least *window_s* busy seconds.

    The host this runs on changes speed by up to a factor of two within
    seconds, for reasons no process in it can see (the load of other guests
    on the same hardware).  So a short :func:`probe_s` runs before the first
    cycle and after every cycle, and each window's figures are scaled by the
    mean probe time of that window against :data:`REFERENCE_PROBE_S`.  The
    probes run between cycles, outside the cycle times.  A program that does
    the same work faster moves the scaled figures; a host that slows down
    slows the probe and the program alike and leaves them in place.
    """

    def __init__(self, window_s: float, probe: Callable[[], float] = probe_s):
        self.window_s = window_s
        self.windows: list[Window] = []
        self._probe = probe
        self._open = Window(probes_s=[probe()])

    def record(self, busy_s: float, requests: int, latencies_s: Sequence[float]) -> None:
        """Add one finished cycle, then probe the host."""
        window = self._open
        window.busy_s += busy_s
        window.requests += requests
        window.latencies_s.extend(latencies_s)
        after = self._probe()
        window.probes_s.append(after)
        if window.busy_s >= self.window_s:
            self.windows.append(window)
            self._open = Window(probes_s=[after])

    def rates(self, scaled: bool = True) -> list[float]:
        """Requests per second of every full window; a trailing partial one is dropped."""
        return [window.rate(scaled) for window in self.windows]

    def latencies(self, scaled: bool = True) -> list[float]:
        """Latency samples in seconds from every full window."""
        return [latency for window in self.windows for latency in window.latencies(scaled)]


def host_slowdown(passes: int = _SETUP_PROBES, probe: Callable[[], float] = probe_s) -> float:
    """How many times slower than at full speed the host runs now (mean of *passes* probes).

    Set-ups run in another process, so each is scaled by the mean of this
    reading just before and just after it.
    """
    return statistics.fmean(probe() for _ in range(passes)) / REFERENCE_PROBE_S


def _commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head[:12]
    ref = head[5:]
    try:
        return (root / ".git" / ref).read_text().strip()[:12]
    except OSError:
        pass
    try:
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def machine_facts(root: Path) -> dict[str, object]:
    """Host facts printed beside every result (diagnostics, not metrics)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _commit(root),
        "host_probe_ms": round(host_probe_ms(), 4),
    }


def peak_rss_mb() -> float:
    """High-water resident size of this process in MiB (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
