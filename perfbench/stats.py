"""Summaries and provenance shared by every workload."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Summary",
    "summarize",
    "cpu_timed",
    "tree_cpu_s",
    "threads_cpu_s",
    "HostSpeed",
    "percentile",
    "peak_rss_mb",
    "provenance",
]


@dataclass(frozen=True)
class Summary:
    """A measured quantity: median, quartiles and sample count."""

    median: float
    q1: float
    q3: float
    n: int

    def describe(self) -> str:
        return f"n={self.n} q1={self.q1:.6g} q3={self.q3:.6g}"


def summarize(values: list[float]) -> Summary:
    if not values:
        raise ValueError("no samples to summarize")
    if len(values) == 1:
        return Summary(values[0], values[0], values[0], 1)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return Summary(statistics.median(values), q1, q3, len(values))


def cpu_timed(fn):
    """Run ``fn`` once; return ``(result, CPU seconds, wall seconds)``.

    CPU seconds are this process's user plus system time. The guest
    kernel leaves out the time the host preempts its virtual CPU, which
    on a shared host is where most of the wall-clock swing comes from.
    """
    cpu, start = time.process_time(), time.perf_counter()
    result = fn()
    return (
        result,
        time.process_time() - cpu,
        time.perf_counter() - start,
    )


def tree_cpu_s(pid: int) -> float:
    """User plus system seconds of process ``pid`` and of the children
    it has reaped (``/proc/<pid>/stat``, in clock ticks)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # utime, stime, cutime, cstime: fields 14-17 of proc(5)
    ticks = sum(int(v) for v in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def threads_cpu_s(pid: int) -> float:
    """Seconds on CPU of the live threads of process ``pid``, to the
    nanosecond (``/proc/<pid>/task/*/schedstat``)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (OSError, IndexError, ValueError):
            continue  # the thread ended meanwhile
    return total / 1e9


class HostSpeed:
    """How fast the host runs memory-bound Python at the moment.

    On a shared host the same campaign runs up to 1.6x slower for
    minutes at a time, in CPU time as in wall time, and 20% faster or
    slower from one second to the next: other tenants share the
    physical cores and caches. Over 15 minutes that held such a shift,
    30-second medians of campaign CPU rates varied 16-17% (coefficient
    of variation); each campaign scaled by the mean of the probes timed
    just before and just after it, 3.5-4% (measured with list values in
    the table; the tuples below behave alike in ten-run sets). Scaling by a pure-arithmetic
    loop or a small set-based graph probe did worse (5% and 10%): the
    campaigns chase pointers through a heap far larger than the caches,
    and so does this probe.

    The probe shares no code with the simulator: CPU seconds for
    150,000 lookups, in a fixed random order, of a 300,000-entry dict.
    Its values are 1-tuples of ints, which the collector untracks, so
    the table does not change how the simulator's collections run.
    """

    #: the probe's time in a fast minute on the 2-core Xeon VM the
    #: benchmark was built on (typical runs there measured 0.08-0.09 s);
    #: it only sets the scale: normalized figures read as if measured
    #: at that speed
    REFERENCE_S = 0.065
    SIZE = 300_000
    LOOKUPS = 150_000

    def __init__(self) -> None:
        before = rss_mb()
        self._table = {i: (i,) for i in range(self.SIZE)}
        keys = list(self._table)
        random.Random(3).shuffle(keys)
        self._keys = keys[: self.LOOKUPS]
        gc.collect()  # untracks the tuples
        #: resident memory the table holds, left out of peak RSS
        self.table_mb = rss_mb() - before

    def probe(self) -> float:
        """CPU seconds of one probe."""
        table = self._table
        start = time.process_time()
        total = 0
        for key in self._keys:
            total += table[key][0]
        return time.process_time() - start

    @classmethod
    def slowdown(cls, probes: list[float]) -> float:
        """How much slower than the reference host the median probe
        ran: divide times by it, multiply rates by it."""
        return statistics.median(probes) / cls.REFERENCE_S

    @classmethod
    def bracketed(
        cls, values: list[float], probes: list[float], power: int
    ) -> list[float]:
        """``values[i]`` times the slowdown, to ``power`` (1 for rates,
        -1 for times), of the mean of ``probes[i]`` and
        ``probes[i + 1]``: the probes timed just before and just after
        it."""
        if len(probes) != len(values) + 1:
            raise ValueError("need one probe before and after each value")
        return [
            v * ((a + b) / 2 / cls.REFERENCE_S) ** power
            for v, a, b in zip(values, probes, probes[1:])
        ]


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb(usage: resource.struct_rusage | None = None) -> float:
    """Peak resident set size (Linux reports ``ru_maxrss`` in KiB)."""
    if usage is None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024.0


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, **run: object) -> dict:
    """Where a number came from: code, host, interpreter and the run."""
    return {
        "git_sha": _git_sha(root),
        "src_sha256": _source_digest(root),
        "host": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "platform": platform.platform(),
        },
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        **run,
    }
